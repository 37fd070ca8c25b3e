"""Certification of assembled resolutions and the independent brute-force
syzygy oracle.

The checks are deliberately redundant: the complex property is verified as
honest matrix products over R, exactness as rank bookkeeping of the
flattened F_p maps, Betti numbers three ways (assembled block ranks, series
coefficients, oracle), and the graded-level complexes by rank conditions at
every position.  Exactness and the oracle both work block by block over the
connected components of the flattened maps (`RingMatrix.flat_blocks`) and
never form one dense flat matrix, so both run to the full degree asked for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .builder import (
    FiniteComplex,
    ResolutionAssembly,
    alpha_family,
    assemble_CI,
    assemble_T,
    graded_A_complexes,
)
from .exactfield import (
    _CYCLE_NAME,
    QuotientRing,
    RingMatrix,
    kernel_mod,
    mod_matmul,
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
    sign_regime: str | None = None
    exactness_range: tuple | None = None

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)

    def add(self, section: CheckSection):
        self.sections.append(section)
        return section

    def section(self, name: str) -> CheckSection | None:
        for s in self.sections:
            if s.name == name:
                return s
        return None

    def to_dict(self, include_timings: bool = True) -> dict:
        sections = []
        for s in self.sections:
            entry = {
                "name": s.name,
                "passed": s.passed,
                "details": _jsonable(s.details),
                "failure": s.failure,
            }
            if include_timings:
                entry["seconds"] = round(s.seconds, 3)
            sections.append(entry)
        return {
            "passed": self.passed,
            "sign_regime": self.sign_regime,
            "exactness_range": list(self.exactness_range) if self.exactness_range else None,
            "sections": sections,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_complex(F: ResolutionAssembly) -> CheckSection:
    """d_i . d_{i+1} = 0 as RingMatrix products for every consecutive pair."""
    t0 = time.time()
    for i in range(1, F.i_max):
        prod = F.diff(i) @ F.diff(i + 1)
        if not prod.is_zero():
            r, c = prod.terms[0, :2].tolist()  # terms are sorted by (row, column)
            return CheckSection(
                "complex", False,
                {"degree_pair": (i, i + 1)},
                failure=f"(d_{i} d_{i+1}) has nonzero entry at "
                        f"({_block_coord(F, i - 1, r)}, {_block_coord(F, i + 1, c)})",
                seconds=time.time() - t0)
    return CheckSection("complex", True,
                        {"pairs_checked": F.i_max - 1}, seconds=time.time() - t0)


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
    t0 = time.time()
    for i in range(1, F.i_max + 1):
        d = F.diff(i)
        bad = d.first_unit_entry()
        if bad is not None:
            return CheckSection(
                "minimality", False, {"degree": i},
                failure=f"d_{i} entry at {bad} has a unit constant term",
                seconds=time.time() - t0)
    return CheckSection("minimality", True,
                        {"degrees_checked": F.i_max}, seconds=time.time() - t0)


def check_exactness(F: ResolutionAssembly) -> CheckSection:
    """Vanishing homology of the flattened complex in degrees 1..F.i_max-1
    and a one-dimensional cokernel at degree 0.

    The rank of each flattened d_i is the sum of the ranks of its connected
    blocks (`RingMatrix.flat_blocks`), so the dense flat matrix is never
    formed; the peak footprint is the nonzero list and blocks of one d_i."""
    t0 = time.time()
    ring, i_max = F.ring, F.i_max
    p = ring.p
    ranks = {}
    cols = {}
    for i in range(1, i_max + 1):
        d = F.diff(i)
        cols[i] = d.cols * ring.dim
        ranks[i] = sum(rank_mod(B, p) for _, _, B in d.flat_blocks())
    details = {"flat_ranks": {i: int(r) for i, r in ranks.items()}}
    h0 = ring.dim - ranks[1]
    details["h0_dimension"] = int(h0)
    if h0 != 1:
        return CheckSection("exactness", False, details,
                            failure=f"coker d_1 has dimension {h0}, expected 1",
                            seconds=time.time() - t0)
    homology = {}
    for i in range(1, i_max):
        ker = cols[i] - ranks[i]
        h = ker - ranks[i + 1]
        homology[i] = int(h)
        if h != 0:
            details["homology"] = homology
            return CheckSection(
                "exactness", False, details,
                failure=f"homology at degree {i} has dimension {h}",
                seconds=time.time() - t0)
    details["homology"] = homology
    return CheckSection("exactness", True, details, seconds=time.time() - t0)


def check_block_ranks(F: ResolutionAssembly, expected: list) -> CheckSection:
    """Assembled component ranks against the Poincare series coefficients."""
    got = F.ranks[: len(expected)]
    ok = got == list(expected[: len(got)])
    return CheckSection(
        "betti_vs_series", ok,
        {"assembled": [int(r) for r in got],
         "series": [int(r) for r in expected[: len(got)]]},
        failure=None if ok else "assembled ranks differ from series coefficients")


def check_graded_exactness(complexes: dict) -> CheckSection:
    """Every B_k, C_j, A_k complex is exact at every position (ends included),
    and the A_k dimension decompositions match."""
    t0 = time.time()
    details: dict = {}
    for family in ("B", "C", "A"):
        for k, cx in complexes[family].items():
            ok, msg, dims = _finite_complex_exact(cx)
            details[f"{family}_{k}"] = {"dims": dims, "exact": ok}
            if not ok:
                return CheckSection(
                    "graded_exactness", False, details,
                    failure=f"{cx.name}: {msg}", seconds=time.time() - t0)
    for k, rows in complexes["decomposition"].items():
        bad = [row for row in rows if not row[3]]
        details[f"decomposition_{k}"] = [tuple(int(x) for x in row[:3]) + (row[3],)
                                         for row in rows]
        if bad:
            return CheckSection(
                "graded_exactness", False, details,
                failure=f"A_{k} decomposition dimensions disagree at "
                        f"position {bad[0][0]}: {bad[0][1]} vs {bad[0][2]}",
                seconds=time.time() - t0)
    return CheckSection("graded_exactness", True, details, seconds=time.time() - t0)


def _finite_complex_exact(cx: FiniteComplex):
    """Exactness of a finite complex by rank bookkeeping.

    With maps d_t : V_t -> V_{t+1} (t = 0 the top), exactness everywhere means
    rank d_0 = dim V_0 (injective at the top), rank d_t + rank d_{t+1} =
    dim V_{t+1} in the middle, and rank d_last = dim V_last (surjective at
    the bottom)."""
    p = cx.p
    dims = [int(d) for d in cx.dims]
    for t, M in enumerate(cx.maps):
        if M.shape != (dims[t + 1], dims[t]):
            return False, f"map {t} has shape {M.shape}, expected " \
                          f"({dims[t + 1]}, {dims[t]})", dims
    for t in range(len(cx.maps) - 1):
        prod = mod_matmul(cx.maps[t + 1], cx.maps[t], p)
        if np.any(prod):
            return False, f"composite of maps {t} and {t + 1} is nonzero", dims
    ranks = [rank_mod(M, p) for M in cx.maps]
    if not ranks:
        return dims[0] == 0, "empty complex must be zero", dims
    if ranks[0] != dims[0]:
        return False, f"not exact at the top: rank {ranks[0]} < dim {dims[0]}", dims
    for t in range(len(ranks) - 1):
        if ranks[t] + ranks[t + 1] != dims[t + 1]:
            return False, (f"not exact at position {cx.top_position - t - 1}: "
                           f"{ranks[t]} + {ranks[t + 1]} != {dims[t + 1]}"), dims
    if ranks[-1] != dims[-1]:
        return False, (f"not exact at the bottom: rank {ranks[-1]} "
                       f"< dim {dims[-1]}"), dims
    return True, "", dims


# ---------------------------------------------------------------------------
# the brute-force syzygy oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleResolution:
    betti: list
    differentials: list  # RingMatrix d_1, d_2, ...


def oracle_resolution(ring: QuotientRing, i_max: int) -> OracleResolution:
    """Bare-hands minimal resolution of the residue field: starting from the
    row of variables, each next differential is a Nakayama-minimal
    generating set of the kernel of the last (kernel vectors independent
    modulo m . kernel), lifted back to R-columns.  Both steps run on the
    connected blocks of the flattened maps (`RingMatrix.flat_blocks`), never
    on a dense flat matrix, and choose the same echelon-ordered vectors as
    a dense elimination would."""
    current = koszul_differential(1, ring)  # the row of variables
    betti = [1, ring.nvars]
    diffs = [current]
    for _ in range(2, i_max + 1):
        current = _minimal_generators(_flat_kernel(current))
        betti.append(current.cols)
        diffs.append(current)
    return OracleResolution(betti[: i_max + 1], diffs)


def _flat_kernel(d: RingMatrix) -> RingMatrix:
    """The columns of kernel_mod of the flattened d, as R-columns.

    Each block's kernel vectors go to its global flat columns, and a flat
    column in no block is its own unit vector.  A kernel_mod vector is 1 at
    its free column and 0 after it, and the blocks split the echelon form,
    so sorting the vectors by that column gives the dense kernel's order."""
    D = d.ring.dim
    lone = np.ones(d.cols * D, dtype=bool)
    parts = []  # (flat column, free column of its vector, value) per nonzero
    for _, cols, B in d.flat_blocks():
        lone[cols] = False
        K = kernel_mod(B, d.ring.p)
        a, t = np.nonzero(K)
        free = cols[len(cols) - 1 - np.argmax(K[::-1] != 0, axis=0)]
        parts.append((cols[a], free[t], K[a, t]))
    u = np.flatnonzero(lone)
    parts.append((u, u, np.ones(len(u), dtype=np.int64)))
    g, free, v = (np.concatenate(x) for x in zip(*parts))
    free, j = np.unique(free, return_inverse=True)
    return RingMatrix.from_terms(d.ring, d.cols, len(free),
                                 np.column_stack([g // D, j, g % D, v]))


def _minimal_generators(K: RingMatrix) -> RingMatrix:
    """K restricted to its columns j outside m . (column span of K) +
    span(K_{<j}), in their order.

    Flat column j*D + b of K is standard monomial b times column j, and
    b = 0 is the monomial 1 (the basis is sorted by degree), so the columns
    with b != 0 span m . K.  Inside each block they go first; the pivots
    among the b = 0 columns after them are the chosen j."""
    D = K.ring.dim
    chosen = []
    for _, cols, B in K.flat_blocks():
        unit = cols % D == 0
        order = np.argsort(unit, kind="stable")  # b != 0 first, each in order
        skip = len(order) - int(unit.sum())
        chosen += [int(cols[order[c]]) // D
                   for c in rref_mod(B[:, order], K.ring.p)[1] if c >= skip]
    chosen.sort()
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
    for name, text in cycle_strings.items():
        m = _CYCLE_NAME.fullmatch(name)
        if not m:
            raise ValueError(f"bad cycle name {name!r}")
        deg, idx = int(m.group(1)), int(m.group(2))
        groups[deg][idx] = parse_koszul_element(text, ring)

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
    mode, basis, cert = resolve_basis(H, mode, cycle_strings or {})
    if sign_flip and mode != "T":
        raise ValueError(f"a forced sign regime applies to class T only, "
                         f"not to mode {mode}")
    report.add(CheckSection(
        "class_certificate", cert.passed,
        {"kind": mode, "checks": len(cert.checks),
         "homology_ranks": [int(a) for a in H.ranks]}))
    if mode == "T":
        a1, a2, a3 = H.rank(1), H.rank(2), H.rank(3)
        pack = SequencePack(a1, a2, a3, k_max=max(12, i_max))
        _, PR = poincare_T(a1, a2, a3, ring.nvars, i_max)
        alphas = alpha_family(pack, basis)
        F = assemble_T(ring, basis, pack, i_max, sign_flip=sign_flip, alphas=alphas)
        complexes = graded_A_complexes(min(5, max(2, i_max // 2 + 1)), basis, pack, H,
                                       alphas=alphas)
        report.add(check_graded_exactness(complexes))
    else:
        _, PR = poincare_CI(H.codepth, ring.nvars, i_max)
        F = assemble_CI(ring, basis, i_max)
    report.sign_regime = F.sign_regime
    report.exactness_range = (0, i_max)
    expected = [PR.coefficient(k) for k in range(i_max + 1)]
    report.add(check_block_ranks(F, expected))
    report.add(check_complex(F))
    report.add(check_minimality(F))
    report.add(check_exactness(F))
    if oracle:
        betti = oracle_resolution(ring, i_max).betti
        ok = betti == F.ranks
        report.add(CheckSection(
            "oracle", ok,
            {"oracle_betti": [int(x) for x in betti],
             "assembled": [int(x) for x in F.ranks]},
            failure=None if ok else "oracle Betti numbers disagree"))
    return report, F, basis
