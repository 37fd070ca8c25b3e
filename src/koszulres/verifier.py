"""Certification of assembled resolutions and the independent brute-force
syzygy oracle.

The checks are deliberately redundant: the complex property is verified as
honest matrix products over R, exactness as rank bookkeeping of the
flattened F_p maps, Betti numbers three ways (assembled block ranks, series
coefficients, oracle), and the graded-level complexes (RingMatrix over F_p)
by RingMatrix composites and rank conditions at every position.  Both
exactness checks read one homology count, `homology_dims`.  Exactness
over R and over F_p rank through `flat_rank`, which, like the oracle,
eliminates each distinct block content of a map once
(`RingMatrix.flat_contents`): no dense matrix of a whole map is formed, so
the checks run to the full degree asked for.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .builder import (
    FiniteComplex,
    ResolutionAssembly,
    assemble_CI,
    assemble_T,
    graded_A_complexes,
)
from .exactfield import (
    QuotientRing,
    RingMatrix,
    cycle_slot,
    kernel_mod,
    rank_mod,
    rref_mod,
)
from .homology import (
    ClassCIBasis,
    ClassTBasis,
    ClassVerificationError,
    DiscoveryError,
    HomologyAlgebra,
    discover_class_CI_basis,
    discover_class_T_basis,
    verify_class_CI,
    verify_class_T,
)
from .koszul import koszul_differential, parse_koszul_element
# perfbench/trace_child.py also wraps these three names in this module
from .sequences import SequencePack, poincare_CI, poincare_T


@dataclass
class CheckSection:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    failure: str | None = None
    seconds: float = 0.0


@dataclass
class VerificationReport:
    sections: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)

    def add(self, check, *args) -> CheckSection:
        """Run ``check(*args)`` and append the section it returns, timed."""
        t0 = time.perf_counter()
        section = check(*args)
        section.seconds = time.perf_counter() - t0
        self.sections.append(section)
        return section

    def section(self, name: str) -> CheckSection | None:
        for s in self.sections:
            if s.name == name:
                return s
        return None

    def to_dict(self, include_timings: bool = True) -> dict:
        """The report as JSON data; each section's details are built
        JSON-ready, their keys strings as the report prints them."""
        sections = []
        for s in self.sections:
            entry = {
                "name": s.name,
                "passed": s.passed,
                "details": s.details,
                "failure": s.failure,
            }
            if include_timings:
                entry["seconds"] = round(s.seconds, 3)
            sections.append(entry)
        return {"passed": self.passed, "sections": sections}


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_complex(F: ResolutionAssembly) -> CheckSection:
    """d_i . d_{i+1} = 0 as RingMatrix products for every consecutive pair."""
    for i in range(1, F.i_max):
        prod = F.diff(i) @ F.diff(i + 1)
        if not prod.is_zero():
            r, c = prod.terms[0, :2].tolist()  # terms are sorted by (row, column)
            return CheckSection(
                "complex", False,
                {"degree_pair": (i, i + 1)},
                failure=f"(d_{i} d_{i+1}) has nonzero entry at "
                        f"({_block_coord(F, i - 1, r)}, {_block_coord(F, i + 1, c)})")
    return CheckSection("complex", True, {"pairs_checked": F.i_max - 1})


def _block_coord(F: ResolutionAssembly, k: int, flat_index: int) -> str:
    """Locate a row/column index of d within the block inventory of F_k."""
    off = 0
    for b in F.blocks[k]:
        width = b.width(F.ring.nvars)
        if flat_index < off + width:
            return f"F_{k} block {b.label()} offset {flat_index - off}"
        off += width
    return f"F_{k} index {flat_index}"


def check_minimality(F: ResolutionAssembly) -> CheckSection:
    """Every entry of every differential lies in the maximal ideal."""
    for i in range(1, F.i_max + 1):
        d = F.diff(i)
        bad = d.first_unit_entry()
        if bad is not None:
            return CheckSection(
                "minimality", False, {"degree": i},
                failure=f"d_{i} entry at {bad} has a unit constant term")
    return CheckSection("minimality", True, {"degrees_checked": F.i_max})


def check_exactness(F: ResolutionAssembly) -> CheckSection:
    """Vanishing homology of the flattened complex in degrees 1..F.i_max-1
    and a one-dimensional cokernel at degree 0.

    The rank of each flattened d_i is `flat_rank`: the dense flat matrix is
    never formed.  The details key flat_ranks and homology by the degree as
    a string, as the report prints them."""
    diffs = [F.diff(i) for i in range(1, F.i_max + 1)]
    ranks = [flat_rank(d) for d in diffs]
    h0, *h = homology_dims([F.ring.dim] + [d.cols * F.ring.dim for d in diffs[:-1]], ranks)
    details = {"flat_ranks": {str(i): int(r) for i, r in enumerate(ranks, 1)},
               "h0_dimension": int(h0)}
    if h0 != 1:
        return CheckSection("exactness", False, details,
                            failure=f"coker d_1 has dimension {h0}, expected 1")
    homology = details["homology"] = {}
    for i, h_i in enumerate(h, 1):
        homology[str(i)] = int(h_i)
        if h_i != 0:
            return CheckSection("exactness", False, details,
                                failure=f"homology at degree {i} has dimension {h_i}")
    return CheckSection("exactness", True, details)


def homology_dims(dims: list, ranks: list) -> list:
    """The homology dimension at each space of a complex: dims[t] minus the
    ranks of the maps on either side of space t, where map t joins spaces t
    and t + 1 (in either direction) and ranks may run one map past the last
    space."""
    return [d - out - into for d, out, into in zip(dims, ranks + [0], [0] + ranks)]


def flat_rank(M: RingMatrix) -> int:
    """The rank of the flat F_p matrix of M: each distinct content of its
    blocks (`RingMatrix.flat_contents`) is ranked once, counted per block."""
    return sum(len(b.owners) * rank_mod(b.matrix, M.ring.p) for b in M.flat_contents())


def check_block_ranks(F: ResolutionAssembly, expected: list) -> CheckSection:
    """Assembled component ranks against the Poincare series coefficients."""
    got = F.ranks[: len(expected)]
    ok = got == list(expected[: len(got)])
    return CheckSection(
        "betti_vs_series", ok,
        {"assembled": [int(r) for r in got],
         "series": [int(r) for r in expected[: len(got)]]},
        failure=None if ok else "assembled ranks differ from series coefficients")


def check_graded_exactness(complexes: dict, pack: SequencePack) -> CheckSection:
    """Every B_k, C_j, A_k complex is exact at every position (ends included),
    and the dimensions of each A_k decompose as the copies d_i and l_{k-j}
    that pack gives of the shifted B and C complexes."""
    details: dict = {}
    for family in ("B", "C", "A"):
        for k, cx in complexes[family].items():
            ok, msg, dims = _finite_complex_exact(cx)
            details[f"{family}_{k}"] = {"dims": dims, "exact": ok}
            if not ok:
                return CheckSection(
                    "graded_exactness", False, details,
                    failure=f"{cx.name}: {msg}")
    for k in complexes["A"]:
        rows = details[f"decomposition_{k}"] = _decomposition_rows(k, complexes, pack)
        bad = [row for row in rows if not row[3]]
        if bad:
            return CheckSection(
                "graded_exactness", False, details,
                failure=f"A_{k} decomposition dimensions disagree at "
                        f"position {bad[0][0]}: {bad[0][1]} vs {bad[0][2]}")
    return CheckSection("graded_exactness", True, details)


def _decomposition_rows(k: int, complexes: dict, pack: SequencePack) -> list:
    """(position, lhs, rhs, ok) at each homological position >= 0, top
    first, of the dimension bookkeeping A_k = sum_i Sigma^i B_{k-i}^{d_i} +
    sum_j Sigma^{k-j} C_j^{l_{k-j}}."""
    lhs, rhs = Counter(), Counter()
    pieces = [(complexes["A"][k], 0, 1, lhs)]
    pieces += [(complexes["B"][k - i], i, pack.d[i], rhs) for i in range(k)]
    pieces += [(complexes["C"][j], k - j, pack.l[k - j], rhs) for j in (1, 2, 3) if j <= k]
    for cx, shift, copies, side in pieces:
        for t, dim in enumerate(cx.dims):
            side[cx.top_position - t + shift] += copies * int(dim)
    return [(pos, lhs[pos], rhs[pos], lhs[pos] == rhs[pos])
            for pos in sorted(set(lhs) | set(rhs), reverse=True) if pos >= 0]


def _finite_complex_exact(cx: FiniteComplex):
    """Exactness of a finite complex by rank bookkeeping.

    With maps d_t : V_t -> V_{t+1} (t = 0 the top), exactness everywhere means
    zero `homology_dims` at every V_t: d_0 injective at the top, rank d_{t-1}
    + rank d_t = dim V_t in the middle, and d_last surjective at the bottom.
    A nonzero composite (a RingMatrix product, each term reduced mod p
    before the sum) is named by its first (row, column)."""
    dims = [int(d) for d in cx.dims]
    for t, M in enumerate(cx.maps):
        if (M.rows, M.cols) != (dims[t + 1], dims[t]):
            return False, f"map {t} has shape {(M.rows, M.cols)}, expected " \
                          f"({dims[t + 1]}, {dims[t]})", dims
    for t in range(len(cx.maps) - 1):
        composite = cx.maps[t + 1] @ cx.maps[t]
        if not composite.is_zero():
            at = tuple(composite.terms[0, :2].tolist())
            return False, f"composite of maps {t} and {t + 1} is nonzero at {at}", dims
    ranks = [flat_rank(M) for M in cx.maps]
    h = homology_dims(dims, ranks)
    if h[0]:
        return False, f"not exact at the top: rank {ranks[0]} < dim {dims[0]}", dims
    for t in range(1, len(ranks)):
        if h[t]:
            return False, (f"not exact at position {cx.top_position - t}: "
                           f"{ranks[t - 1]} + {ranks[t]} != {dims[t]}"), dims
    if h[-1]:
        return False, (f"not exact at the bottom: rank {ranks[-1]} "
                       f"< dim {dims[-1]}"), dims
    return True, "", dims


# ---------------------------------------------------------------------------
# the brute-force syzygy oracle
# ---------------------------------------------------------------------------


def check_oracle(F: ResolutionAssembly) -> CheckSection:
    """The assembled ranks against the Betti numbers of oracle_resolution."""
    betti = oracle_resolution(F.ring, F.i_max).betti
    ok = betti == F.ranks
    return CheckSection(
        "oracle", ok,
        {"oracle_betti": [int(x) for x in betti], "assembled": [int(x) for x in F.ranks]},
        failure=None if ok else "oracle Betti numbers disagree")


@dataclass
class OracleResolution:
    differentials: list  # RingMatrix d_1, d_2, ...

    @property
    def betti(self) -> list:
        """b_0 = 1, then the number of columns of each d_i."""
        return [1] + [d.cols for d in self.differentials]


def oracle_resolution(ring: QuotientRing, i_max: int) -> OracleResolution:
    """Bare-hands minimal resolution of the residue field: starting from the
    row of variables, each next differential is a Nakayama-minimal
    generating set of the kernel of the last (kernel vectors independent
    modulo m . kernel), lifted back to R-columns.  Both steps run once per
    distinct block content of the flattened maps (`RingMatrix.flat_contents`),
    never on a dense flat matrix, and choose the same echelon-ordered
    vectors as a dense elimination would.  Through i_max = 0 it is F_0 = R
    alone, with no differential."""
    current = koszul_differential(1, ring)  # the row of variables
    diffs = [current]
    for _ in range(2, i_max + 1):
        current = _minimal_generators(_flat_kernel(current))
        diffs.append(current)
    return OracleResolution(diffs[:i_max])


def _flat_kernel(d: RingMatrix) -> RingMatrix:
    """The columns of kernel_mod of the flattened d, as R-columns.

    Each content's kernel vectors go to the flat columns of every block with
    it, and a flat column in no block is its own unit vector.  A kernel_mod
    vector is 1 at its free column and 0 after it, and the blocks split the
    echelon form, so sorting the vectors by that column gives the dense
    kernel's order."""
    D = d.ring.dim
    lone = np.ones(d.cols * D, dtype=bool)
    parts = []  # (flat column, free column of its vector, value) per nonzero
    for b in d.flat_contents():
        lone[b.cols] = False
        K, free = kernel_mod(b.matrix, d.ring.p)
        a, t = np.nonzero(K)
        parts.append((b.cols[:, a], b.cols[:, free[t]], np.tile(K[a, t], len(b.owners))))
    u = np.flatnonzero(lone)
    parts.append((u, u, np.ones(len(u), dtype=np.int64)))
    g, free, v = (np.concatenate([x.ravel() for x in xs]) for xs in zip(*parts))
    free, j = np.unique(free, return_inverse=True)
    return RingMatrix.from_terms(d.ring, d.cols, len(free),
                                 np.column_stack([g // D, j, g % D, v]))


def _minimal_generators(K: RingMatrix) -> RingMatrix:
    """K restricted to its columns j outside m . (column span of K) +
    span(K_{<j}), in their order.

    Flat column j*D + b of K is standard monomial b times column j, and
    b = 0 is the monomial 1 (the basis is sorted by degree), so the columns
    with b != 0 span m . K.  Tagging the b = 0 columns puts them last in
    each block; the pivots among them are the chosen j."""
    D = K.ring.dim
    chosen = []
    for b in K.flat_contents(col_tag=np.arange(K.cols * D) % D == 0):
        piv = np.array(rref_mod(b.matrix, K.ring.p)[1], dtype=np.int64)
        chosen.append(b.cols[:, piv[b.col_tags[piv] == 1]].ravel() // D)
    chosen = np.sort(np.concatenate(chosen))
    terms = K.terms[np.isin(K.terms[:, 1], chosen)]
    terms[:, 1] = np.searchsorted(chosen, terms[:, 1])
    return RingMatrix.from_terms(K.ring, K.rows, len(chosen), terms)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


# mode -> (basis discovery, class certificate)
_BASIS_KINDS = {
    "T": (discover_class_T_basis, verify_class_T),
    "CI": (discover_class_CI_basis, verify_class_CI),
}


def resolve_basis(H: HomologyAlgebra, mode: str, cycle_strings: dict):
    """(mode, basis, certificate) over the ring of the Koszul homology H: the
    basis is read from the supplied representatives and certified (a failed
    certificate raises ClassVerificationError), or discovered together with
    the certificate that discovery computed."""
    if mode == "auto":
        c = H.codepth
        if all(H.rank(i) == comb(c, i) for i in range(c + 1)):
            mode = "CI"
        elif c == 3:
            mode = "T"
        else:
            raise DiscoveryError(
                f"cannot classify homology ranks {tuple(H.ranks)} automatically; "
                "pass mode=T or mode=CI")
    if mode not in _BASIS_KINDS:
        raise ValueError(f"unknown mode {mode!r}")
    discover, certify = _BASIS_KINDS[mode]
    if not cycle_strings:
        return (mode, *discover(H))
    basis = basis_from_strings(H.ring, cycle_strings, class_t=mode == "T")
    cert = certify(basis, H)
    if not cert.passed:
        raise ClassVerificationError(_cert_message(mode, cert))
    return mode, basis, cert


def _cert_message(kind, cert):
    fails = "; ".join(f"{c.description} ({c.detail})" if c.detail else c.description
                      for c in cert.failures())
    return f"class {kind} verification failed: {fails}"


def basis_from_strings(ring, cycle_strings, class_t: bool):
    groups: dict = {1: {}, 2: {}, 3: {}}
    names: dict = {}  # (degree, index) -> the cycle name that took it
    for name, text in cycle_strings.items():
        slot = cycle_slot(name)
        if not slot:
            raise ValueError(f"bad cycle name {name!r}")
        if slot in names:
            raise ValueError(f"duplicate cycle {name!r}: {names[slot]!r} already names "
                             f"degree {slot[0]}, index {slot[1]}")
        names[slot] = name
        groups[slot[0]][slot[1]] = parse_koszul_element(text, ring)

    def ordered(deg):
        d = groups[deg]
        if sorted(d) != list(range(1, len(d) + 1)):
            raise ValueError(f"cycle indices for degree {deg} must be 1..{len(d)}")
        return [d[i] for i in sorted(d)]

    if class_t:
        return ClassTBasis(z1=ordered(1), z2=ordered(2), z3=ordered(3))
    if groups[2] or groups[3]:
        raise ClassVerificationError(
            "class CI verification failed: a complete-intersection basis has "
            "degree-1 representatives only, but degree-2/3 cycles were supplied")
    return ClassCIBasis(z1=ordered(1))


def graded_depth(i_max: int) -> int:
    """The largest k of the graded complexes B_k and A_k that verify builds
    at max degree i_max, which is also the last k of the report's u table.
    A_r reads alpha_{j,r} for j = r, r-1, r-2, and assemble_T places them
    for r <= i_max // 2 + 1 only, so every alpha that F uses is checked."""
    return max(2, i_max // 2 + 1)


def full_verify(ring: QuotientRing, mode: str = "auto", i_max: int = 8,
                cycle_strings: dict | None = None, oracle: bool = False,
                sign_flip: bool = False) -> tuple:
    """Run the whole pipeline: class certification, assembly, complex /
    minimality / exactness checks, series cross-checks, graded-level
    exactness (class T), and optionally the oracle comparison through i_max.
    sign_flip (see assemble_T) applies to class T only; on a complete
    intersection it raises ValueError.

    Returns (report, assembly, basis).
    """
    report = VerificationReport()
    H = HomologyAlgebra(ring)
    t0 = time.perf_counter()  # the certificate's section times resolve_basis
    mode, basis, cert = resolve_basis(H, mode, cycle_strings or {})
    if sign_flip and mode != "T":
        raise ValueError(f"a forced sign regime applies to class T only, "
                         f"not to mode {mode}")
    report.add(CheckSection, "class_certificate", cert.passed,
               {"kind": mode, "checks": len(cert.checks),
                "homology_ranks": [int(a) for a in H.ranks]}).seconds = time.perf_counter() - t0
    if mode == "T":
        _, PR = poincare_T(H.rank(1), H.rank(2), H.rank(3), ring.nvars, i_max)
        F = assemble_T(ring, basis, i_max, sign_flip=sign_flip)
        complexes = graded_A_complexes(graded_depth(i_max), basis, H)
        report.add(check_graded_exactness, complexes, basis.pack)
    else:
        _, PR = poincare_CI(H.codepth, ring.nvars, i_max)
        F = assemble_CI(ring, basis, i_max)
    report.add(check_block_ranks, F, [PR.coefficient(k) for k in range(i_max + 1)])
    report.add(check_complex, F)
    report.add(check_minimality, F)
    report.add(check_exactness, F)
    if oracle:
        report.add(check_oracle, F)
    return report, F, basis
