"""Construction of the resolution data: the word-indexed cycle matrices
beta_k / beta'_k, the gamma row vectors, the alpha family, the assembled
minimal free resolution F of the residue field (class T and complete
intersection), and the finite complexes of homology classes used for
graded-level exactness checks.

The cycle matrices are in index form (see koszul.CycleMatrix): beta, beta'
and gamma list one (row, column, cycle) row per entry over a few cycles,
and alpha tiles each block's index rows down its diagonal copies, shifted
by the copy's corner and by the block's offset in the concatenated cycles.
The graded complexes scatter one class block per cycle to its entries.

Both resolutions are iterated mapping cones of Koszul blocks and come out of
one engine, _assemble_diffs: Koszul differentials on the diagonal, one
cycle-matrix arrow per block off it, each distinct block matrix built once
per assembly.  The two classes differ only in which blocks exist and which
arrow each block carries.

Block signs follow the mapping-cone convention: the diagonal Koszul block of
the component indexed by a tree monomial m carries the sign
(-1)^(deg1 m + deg2 m) - the parity of the block's total homological shift
inside F - and every arrow block carries +1 (reported as the "phi" sign).
The convention is fixed, not searched for; verifier.check_complex certifies
d^2 = 0, and `--sign-flip` forces the (-1)^deg2 diagonal as its negative
control.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .exactfield import QuotientRing, RingMatrix, solve_mod
from .homology import (
    ClassCIBasis,
    ClassTBasis,
    HomologyAlgebra,
    first_nonzero_outer_product,
)
from .koszul import (
    CycleMatrix,
    cycle_matrix_action,
    koszul_differential,
)
from .sequences import (
    SequencePack,
    arrow_target,
    tree_layer,
)


class BuildError(ValueError):
    pass


class AssemblyError(BuildError):
    """A structural precondition of the block construction is violated."""


# ---------------------------------------------------------------------------
# word indexing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def words(c: int, k: int) -> tuple:
    """Non-decreasing words of length k over {1..c}, lexicographic order."""
    if k < 0:
        return ()
    return tuple(itertools.combinations_with_replacement(range(1, c + 1), k))


def bracket(word: tuple) -> tuple:
    """Re-sort an index word non-decreasingly."""
    return tuple(sorted(word))


# ---------------------------------------------------------------------------
# beta, beta', gamma
# ---------------------------------------------------------------------------


def beta(k: int, cycles) -> CycleMatrix:
    """The b_{k-1} x b_k matrix with entry z^1_u at (v-word, u-word) whenever
    the u-word is the sorted extension [v-word . u], over the codepth
    c = len(cycles) of the degree-1 cycles z^1_1..z^1_c."""
    if k < 0:
        raise BuildError("beta needs k >= 0")
    c = len(cycles)
    ring = cycles[0].ring if cycles else None
    rows = words(c, k - 1)
    col_index = {w: j for j, w in enumerate(words(c, k))}
    where = [(i, col_index[bracket(v + (u,))], u - 1)
             for i, v in enumerate(rows) for u in range(1, c + 1)]
    return CycleMatrix(ring, len(rows), len(col_index), 1, cycles, where)


def beta_prime(k: int, basis: ClassTBasis) -> CycleMatrix:
    """The b_{k-1} x b_{k-2} matrix (codepth 3) with entry z^1_{u'} ^ z^1_{u''}
    at (u-word, v-word) whenever u-word = [v-word . u], where {u', u''} is the
    complement of u in {1,2,3} and z^1_1..z^1_3 is the distinguished triple
    of the basis.  The entries are the basis's own products, so every beta'
    of one basis shares the same three cycles."""
    row_index = {w: i for i, w in enumerate(words(3, k - 1))}
    cols = words(3, k - 2)
    z12, z23, z13 = basis.products
    where = [(row_index[bracket(v + (u,))], j, u - 1)
             for j, v in enumerate(cols) for u in (1, 2, 3)]
    return CycleMatrix(z12.ring, len(row_index), len(cols), 2, [z23, z13, z12], where)


def gamma(j: int, basis: ClassTBasis) -> CycleMatrix:
    """gamma_1 = (z1_4 ... z1_{a1}), gamma_2 = (z2_*), gamma_3 = (z3_*) as
    1 x count row vectors of cycles of degree j."""
    if j == 1:
        cycles = basis.z1[3:]
    elif j == 2:
        cycles = basis.z2
    elif j == 3:
        cycles = basis.z3
    else:
        raise BuildError(f"gamma index must be 1, 2 or 3 (got {j})")
    where = [(0, c, c) for c in range(len(cycles))]
    return CycleMatrix(basis.z1[0].ring, 1, len(cycles), j, cycles, where)


# ---------------------------------------------------------------------------
# the alpha family
# ---------------------------------------------------------------------------


def alpha(k: int, r: int, pack: SequencePack, basis: ClassTBasis) -> CycleMatrix:
    """alpha_{k,r} for r in {k, k+1, k+2}: the three block shapes

        alpha_k   = (beta_k^{d_0} + ... + beta_1^{d_{k-1}} | gamma_1^{l_{k-1}})
        alpha'_k  = (beta'-sum with zero rows on the beta_1 row group | gamma_2^{l_{k-1}})
        alpha''_k = gamma_3^{l_{k-1}}

    with extents l_{k-1} x l_{k,r} checked against the sequence tables.  Each
    block's index rows are tiled down its diagonal copies, shifted by the
    copy's corner and by the block's offset in the concatenated cycles."""
    if k < 1:
        raise BuildError("alpha needs k >= 1")
    if r not in (k, k + 1, k + 2):
        raise BuildError(f"alpha_{{k,r}} needs r in {{k, k+1, k+2}}, got r={r}")
    triple = basis.triple
    rows = pack.l[k - 1]
    if r == k:
        diagonal = [(beta(k - t, triple), pack.d[t]) for t in range(k)]
    elif r == k + 1:
        # the beta_1^{d_{k-1}} row group receives no beta' input: zero rows
        diagonal = [(beta_prime(k - t, basis), pack.d[t]) for t in range(k - 1)]
    else:
        diagonal = []
    cycles, where = [], [np.zeros((0, 3), dtype=np.int64)]
    col = 0
    for group in (diagonal, [(gamma(r - k + 1, basis), rows)]):
        row = 0
        for block, copies in group:
            w = np.tile(block.where, (copies, 1, 1))
            w += np.arange(copies)[:, None, None] * [block.rows, block.cols, 0]
            w += [row, col, len(cycles)]
            where.append(w.reshape(-1, 3))
            cycles += block.cycles
            row += copies * block.rows
            col += copies * block.cols
    cols_expected = pack.l_ks(k, r)
    if col != cols_expected:
        raise AssemblyError(
            f"alpha_{{{k},{r}}} extent mismatch: built {col} columns, "
            f"tables give {cols_expected}")
    return CycleMatrix(basis.z1[0].ring, rows, cols_expected, r - k + 1, cycles,
                       np.concatenate(where))


def alpha_family(pack: SequencePack, basis: ClassTBasis):
    """alpha_{k,r} as a function of (k, r) that builds each matrix once, on
    first use, so that assembly and the graded complexes can share them."""
    return lru_cache(maxsize=None)(lambda k, r: alpha(k, r, pack, basis))


# ---------------------------------------------------------------------------
# assembled resolutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One Koszul block K_kdeg^{copies} of some F_degree; identified across
    adjacent degrees by (monomial/ci-index, kdeg)."""

    key: object        # TreeMonomial (class T) or int j (CI)
    kdeg: int
    copies: int
    shift: int         # total homological shift of the block inside F

    def label(self) -> str:
        return f"K[{self.kdeg}]^{self.copies} @ {self.key}"

    def width(self, nvars: int) -> int:
        """Rank of the block as a free R-module."""
        return self.copies * comb(nvars, self.kdeg)


@dataclass
class ResolutionAssembly:
    mode: str                       # "T" or "CI"
    ring: QuotientRing
    i_max: int
    blocks: list                    # blocks[k] = ordered list of Block
    differentials: list             # differentials[k] = RingMatrix d_{k+1}... see diff()
    sign_regime: str
    ranks: list = field(init=False)

    def __post_init__(self):
        self.ranks = [sum(b.width(self.ring.nvars) for b in bl)
                      for bl in self.blocks]

    def diff(self, i: int) -> RingMatrix:
        """d^F_i : F_i -> F_{i-1} for 1 <= i <= i_max."""
        if not 1 <= i <= self.i_max:
            raise BuildError(f"differential index {i} outside [1, {self.i_max}]")
        return self.differentials[i - 1]

    def block_inventory(self):
        return [
            [(str(b.key), b.shift, b.copies, b.kdeg) for b in self.blocks[k]]
            for k in range(self.i_max + 1)
        ]


def _class_t_blocks(k: int, pack: SequencePack, n: int) -> list:
    out = []
    for j in range(0, k // 2 + 1):
        for m in tree_layer(j):
            i = k - j - m.deg2
            if 0 <= i <= n:
                copies = m.deg3(pack)
                if copies:
                    out.append(Block(m, i, copies, m.deg1 + m.deg2))
    return out


def _assemble_diffs(ring, blocks, diag_sign, arrow, cycle_matrix) -> list:
    """The differentials d_k : F_k -> F_{k-1} of an iterated mapping cone of
    Koszul blocks, blocks[k] listing the blocks of F_k.  Each block of F_k
    maps to its own block one Koszul degree down by diag_sign(block) times
    the Koszul differential, and, when arrow(block) = (target_key,
    target_kdeg, name, reps) is given, to the block (target_key,
    target_kdeg) of F_{k-1} by the wedge action of cycle_matrix(name),
    repeated reps times down the diagonal.  Each cycle matrix and action is
    built once per call, on first use; the Koszul differentials are cached
    by koszul_differential itself."""
    n = ring.nvars
    theta = lru_cache(maxsize=None)(cycle_matrix)
    action = lru_cache(maxsize=None)(
        lambda name, i: cycle_matrix_action(theta(name), i))
    diffs = []
    for blocks_lo, blocks_hi in zip(blocks, blocks[1:]):
        row_offset = {}
        rows = 0
        for b in blocks_lo:
            row_offset[(b.key, b.kdeg)] = rows
            rows += b.width(n)
        terms = [np.zeros((0, 4), dtype=np.int64)]
        col = 0
        for b in blocks_hi:
            tgt = row_offset.get((b.key, b.kdeg - 1))
            if tgt is not None:
                terms.append(koszul_differential(b.kdeg, ring).shifted_terms(
                    tgt, col, b.copies, diag_sign(b)))
            spec = arrow(b)
            if spec is not None:
                target_key, target_kdeg, name, reps = spec
                tgt = row_offset.get((target_key, target_kdeg))
                if tgt is not None:
                    act = action(name, target_kdeg)
                    assert act.cols * reps == b.width(n)
                    terms.append(act.shifted_terms(tgt, col, reps, 1))
            col += b.width(n)
        diffs.append(RingMatrix.from_terms(ring, rows, col, np.concatenate(terms)))
    return diffs


def assemble_T(ring: QuotientRing, basis: ClassTBasis, pack: SequencePack,
               i_max: int = 8, sign_flip: bool = False,
               alphas=None) -> ResolutionAssembly:
    """Assemble the class-T resolution F through homological degree i_max.

    The blocks are K_i^{deg3 m} for the tree monomials m; the block of
    X_{j,r}.n carries the arrow alpha_{j,r}, repeated deg3(n) times, into the
    block of arrow_target(X_{j,r}.n).  The pack must tabulate k <= i_max // 2,
    the largest first degree of a tree monomial in F_{i_max}.

    The degree-1 representatives outside the distinguished triple must have
    literally vanishing wedge products in K_2 (not merely vanishing classes);
    this is checked up front because no sign choice can repair it.  The signs
    follow the mapping-cone convention: diagonal (-1)^(deg1+deg2), arrows +1.
    Nothing here tests d^2 = 0; verifier.check_complex certifies it.  With
    sign_flip the diagonal carries (-1)^deg2 instead, the negative control
    that breaks d^2 = 0.  The arrows are read from ``alphas``, an
    alpha_family of the same pack and basis (a new one when None).
    """
    if i_max < 1:
        raise BuildError("i_max must be >= 1")
    _check_literal_products(basis)
    blocks = [_class_t_blocks(k, pack, ring.nvars) for k in range(i_max + 1)]

    def diag_sign(b):
        return (-1) ** (b.key.deg2 if sign_flip else b.shift)

    def arrow(b):
        if b.key.head is None:
            return None
        j, r, tail = b.key.head
        return arrow_target(b.key), b.kdeg + r - j + 1, (j, r), tail.deg3(pack)

    alphas = alphas or alpha_family(pack, basis)
    diffs = _assemble_diffs(ring, blocks, diag_sign, arrow, lambda jr: alphas(*jr))
    label = ("diagonal (-1)^deg2, phi +1 (forced)" if sign_flip
             else "diagonal (-1)^(deg1+deg2), phi +1")
    return ResolutionAssembly("T", ring, i_max, blocks, diffs, label)


def _check_literal_products(basis: ClassTBasis):
    bad = first_nonzero_outer_product(basis.z1)
    if bad is not None:
        u, v = bad
        raise AssemblyError(
            f"representatives z1_{u+1} and z1_{v+1} have a nonzero "
            "wedge product in K_2; the block construction needs these "
            "products to vanish literally - adjust the representatives")


def assemble_CI(ring: QuotientRing, basis: ClassCIBasis,
                i_max: int = 8) -> ResolutionAssembly:
    """Complete-intersection resolution over the codepth c = len(basis.z1):
    F_i = K_i + K_{i-2}^{b_1} + ..., with Koszul differentials on the
    diagonal and beta_j from the block j into the block j-1.  All block
    shifts are even, so every diagonal sign is +1."""
    c = len(basis.z1)
    blocks = [[Block(j, k - 2 * j, len(words(c, j)), 2 * j)
               for j in range(k // 2 + 1) if k - 2 * j <= ring.nvars]
              for k in range(i_max + 1)]

    def arrow(b):
        if b.key == 0:
            return None
        return b.key - 1, b.kdeg + 1, b.key, 1

    diffs = _assemble_diffs(ring, blocks, lambda b: 1, arrow,
                            lambda j: beta(j, basis.z1))
    return ResolutionAssembly("CI", ring, i_max, blocks, diffs,
                              "diagonal +1 (even shifts), beta +1")


# ---------------------------------------------------------------------------
# graded-level complexes of homology classes
# ---------------------------------------------------------------------------


@dataclass
class FiniteComplex:
    """A finite complex of F_p spaces: positions[t] is the dimension at
    homological position pos_top - t and maps[t] : positions[t] ->
    positions[t+1] (numpy matrices acting on column vectors)."""

    name: str
    top_position: int
    dims: list
    maps: list
    p: int


class _Coordinates:
    """Coordinate and multiplication matrices of cycle matrices in one target
    space: A_q in its representative basis (span None), or the subspace of
    A_q spanned by the classes of the cycles in `span`.  Blocks are cached per
    cycle object and source list, since the block matrices share entries."""

    def __init__(self, H: HomologyAlgebra, span=None):
        self.H = H
        self.span = None if span is None else [H.class_of(z) for z in span]
        self._cache: dict = {}

    def _target(self, cls: np.ndarray) -> np.ndarray:
        if self.span is None:
            return cls
        x = solve_mod(np.array(self.span).T, cls, self.H.ring.p)
        if x is None:
            raise BuildError("class does not lie in the expected subspace")
        return x

    def _block(self, z, sources) -> np.ndarray:
        """The target coordinates of the class of z (sources None), or of
        its products with each source, as columns."""
        classes = [self.H.class_of(z)] if sources is None else \
            [self.H.product_class(z, w) for w in sources]
        return np.array([self._target(c) for c in classes], dtype=np.int64).T

    def matrix(self, theta: CycleMatrix, sources=None) -> np.ndarray:
        """With sources None, theta's entries as target-coordinate columns,
        (dim * rows) x cols; otherwise entrywise multiplication by theta,
        from span(sources)^cols to the target^rows.  Each cycle's block is
        computed once and scattered to its entries in one assignment."""
        a_src = 1 if sources is None else len(sources)
        a_dst = len(self.span) if self.span is not None else self.H.rank(
            theta.entry_degree + (0 if sources is None else sources[0].degree))
        M = np.zeros((theta.rows, a_dst, theta.cols, a_src), dtype=np.int64)
        if len(theta.where):
            blocks = []
            for z in theta.cycles:
                key = (id(z), id(sources))
                if key not in self._cache:  # keeps z and sources alive with their ids
                    self._cache[key] = (z, sources, self._block(z, sources))
                blocks.append(self._cache[key][2])
            r, c, k = theta.where.T
            M[r, :, c, :] = np.array(blocks)[k]
        return M.reshape(theta.rows * a_dst, theta.cols * a_src)


def graded_A_complexes(k_max: int, basis: ClassTBasis, pack: SequencePack,
                       H: HomologyAlgebra, alphas=None) -> dict:
    """The finite complexes of homology classes whose exactness certifies the
    graded resolution data: B_k (k <= k_max), C_1..C_3, A_k (k <= k_max), and
    the dimension bookkeeping of the decomposition of A_k into shifted B and C
    pieces.

    The alpha matrices are read from ``alphas``, an alpha_family of the same
    pack and basis (a new one when None).

    Returns {"B": {k: FiniteComplex}, "C": {...}, "A": {...},
    "decomposition": {k: [(position, lhs, rhs, ok), ...]}}.
    """
    p = H.ring.p
    triple = basis.triple
    a1, a2, a3 = H.rank(1), H.rank(2), H.rank(3)
    b, l, lp, lpp = pack.b, pack.l, pack.lp, pack.lpp
    out = {"B": {}, "C": {}, "A": {}, "decomposition": {}}

    def zeros(rows, cols):
        return np.zeros((rows, cols), dtype=np.int64)

    B1 = _Coordinates(H, triple)
    B2 = _Coordinates(H, basis.products)
    for k in range(1, k_max + 1):
        b_m3 = b[k - 3] if k >= 3 else 0
        dims = [b[k], 3 * b[k - 1] + b_m3]
        maps = [np.vstack([B1.matrix(beta(k, triple)), zeros(b_m3, b[k])])]
        if k >= 2:
            dims.append(3 * b[k - 2])
            maps.append(np.hstack([B2.matrix(beta(k - 1, triple), triple),
                                   B2.matrix(beta_prime(k - 1, basis))]))
        out["B"][k] = FiniteComplex(f"B_{k}", k, dims, maps, p)

    for j in (1, 2, 3):
        g = gamma(j, basis)
        d = _Coordinates(H, g.cycles).matrix(g)
        out["C"][j] = FiniteComplex(f"C_{j}", 1, [g.cols, g.cols], [d], p)

    A = _Coordinates(H)
    alphas = alphas or alpha_family(pack, basis)
    for k in range(1, k_max + 1):
        dims = [l[k], a1 * l[k - 1] + lp[k - 1]]
        maps = [np.vstack([A.matrix(alphas(k, k)), zeros(lp[k - 1], l[k])])]
        if k >= 2:
            dims.append(a2 * l[k - 2] + lpp[k - 2])
            top = np.hstack([A.matrix(alphas(k - 1, k - 1), H.reps[1]),
                             A.matrix(alphas(k - 1, k))])
            maps.append(np.vstack([top, zeros(lpp[k - 2], top.shape[1])]))
        if k >= 3:
            dims.append(a3 * l[k - 3])
            maps.append(np.hstack([A.matrix(alphas(k - 2, k - 2), H.reps[2]),
                                   A.matrix(alphas(k - 2, k))]))
        out["A"][k] = FiniteComplex(f"A_{k}", k, dims, maps, p)
        out["decomposition"][k] = _decomposition_check(k, out, pack)

    return out


def _decomposition_check(k: int, complexes: dict, pack: SequencePack) -> list:
    """Dimension bookkeeping of A_k = sum_i Sigma^i B_{k-i}^{d_i} +
    sum_j Sigma^{k-j} C_j^{l_{k-j}} per homological position, read from the
    dimensions of the complexes A_k and B_m built above."""
    lhs = _dims_by_position(complexes["A"][k])
    rhs: Counter = Counter()
    for i in range(k):
        for pos, dim in _dims_by_position(complexes["B"][k - i]).items():
            rhs[pos + i] += pack.d[i] * dim
    c_counts = {1: pack.a1 - 3, 2: pack.a2 - 3, 3: pack.a3}
    for j in (1, 2, 3):
        if k - j >= 0:
            for pos in (1, 0):
                rhs[pos + k - j] += pack.l[k - j] * c_counts[j]
    positions = sorted(set(lhs) | set(rhs), reverse=True)
    return [(pos, lhs.get(pos, 0), rhs[pos], lhs.get(pos, 0) == rhs[pos])
            for pos in positions if pos >= 0]


def _dims_by_position(cx: FiniteComplex) -> dict:
    return {cx.top_position - t: dim for t, dim in enumerate(cx.dims)}
