"""Construction of the resolution data: the word-indexed cycle matrices
beta_k / beta'_k, the gamma row vectors, the alpha family, the assembled
minimal free resolution F of the residue field (class T and complete
intersection), and the finite complexes of homology classes used for
graded-level exactness checks.

The cycle matrices are in index form (see koszul.CycleMatrix): beta, beta'
and gamma list one (row, column, cycle) row per entry over a few cycles,
and alpha repeats each block's index rows down its diagonal copies, shifted
by the copy's corner, over the distinct cycles of its blocks.
The graded complexes place one class block per cycle, a RingMatrix over F_p
(the ring with no variables), at the cycle's entries by one `block_terms`
call; no dense F_p matrix of a map is formed.

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
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .exactfield import QuotientRing, RingMatrix, block_terms, solve_mod
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
from .sequences import SequencePack, arrow_target, tree_layer


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


@lru_cache(maxsize=128)  # bounded: each entry keeps its basis alive
def alpha(k: int, r: int, basis: ClassTBasis) -> CycleMatrix:
    """alpha_{k,r} for r in {k, k+1, k+2}: the three block shapes

        alpha_k   = (beta_k^{d_0} + ... + beta_1^{d_{k-1}} | gamma_1^{l_{k-1}})
        alpha'_k  = (beta'-sum with zero rows on the beta_1 row group | gamma_2^{l_{k-1}})
        alpha''_k = gamma_3^{l_{k-1}}

    with extents l_{k-1} x l_{k,r} checked against the basis's tables.  Each
    block's index rows are repeated down its diagonal copies, shifted by the
    copy's corner, and point into the distinct cycles of all the blocks,
    each listed once (the beta blocks share the triple).  A block with zero
    copies adds no entries, and a diagonal one is not built (at a1 = 3, d_t
    = 0 for t > 0).  Memoized on (k, r, basis), the basis by identity:
    assembly and graded complexes share it."""
    if k < 1:
        raise BuildError("alpha needs k >= 1")
    if r not in (k, k + 1, k + 2):
        raise BuildError(f"alpha_{{k,r}} needs r in {{k, k+1, k+2}}, got r={r}")
    triple, pack = basis.triple, basis.pack
    rows = pack.l[k - 1]
    if r == k:
        diagonal = [(beta(k - t, triple), pack.d[t]) for t in range(k) if pack.d[t]]
    elif r == k + 1:
        # the beta_1^{d_{k-1}} row group receives no beta' input: zero rows
        diagonal = [(beta_prime(k - t, basis), pack.d[t]) for t in range(k - 1) if pack.d[t]]
    else:
        diagonal = []
    cycles, where = {}, [np.zeros((0, 3), dtype=np.int64)]  # cycle -> its index
    col = 0
    for group in (diagonal, [(gamma(r - k + 1, basis), rows)]):
        row = 0
        for block, copies in group:
            slot = np.array([cycles.setdefault(z, len(cycles)) for z in block.cycles],
                            dtype=np.int64)
            w = (block.where + [row, col, 0]
                 + np.arange(copies)[:, None, None] * [block.rows, block.cols, 0])
            w[..., 2] = slot[w[..., 2]]
            where.append(w.reshape(-1, 3))
            row += copies * block.rows
            col += copies * block.cols
    cols_expected = pack.l_ks(k, r)
    if col != cols_expected:
        raise AssemblyError(
            f"alpha_{{{k},{r}}} extent mismatch: built {col} columns, "
            f"tables give {cols_expected}")
    return CycleMatrix(basis.z1[0].ring, rows, cols_expected, r - k + 1,
                       list(cycles), np.concatenate(where))


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
        if self.i_max < 1:
            raise BuildError("i_max must be >= 1")
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


def _assemble_diffs(ring, blocks, diag_sign, arrow) -> list:
    """The differentials d_k : F_k -> F_{k-1} of an iterated mapping cone of
    Koszul blocks, blocks[k] listing the blocks of F_k.  Each block of F_k
    maps to its own block one Koszul degree down by diag_sign(block) times
    the Koszul differential, and, when arrow(block) = (target_key,
    target_kdeg, theta, reps) is given, to the block (target_key,
    target_kdeg) of F_{k-1} by the wedge action of the cycle matrix theta,
    repeated reps times down the diagonal.  Each action is built once per
    call, keyed by (theta, target_kdeg) with theta held by identity; the
    Koszul differentials are cached by koszul_differential itself."""
    n = ring.nvars
    action = lru_cache(maxsize=None)(cycle_matrix_action)
    diffs = []
    for blocks_lo, blocks_hi in zip(blocks, blocks[1:]):
        row_offset = {}
        rows = 0
        for b in blocks_lo:
            row_offset[(b.key, b.kdeg)] = rows
            rows += b.width(n)
        mats = {}  # each distinct block matrix -> its index
        placed = []  # (index, row, column, copies, sign) of each block

        def place(M, *at):
            placed.append((mats.setdefault(M, len(mats)), *at))

        col = 0
        for b in blocks_hi:
            tgt = row_offset.get((b.key, b.kdeg - 1))
            if tgt is not None:
                place(koszul_differential(b.kdeg, ring), tgt, col, b.copies, diag_sign(b))
            spec = arrow(b)
            if spec is not None:
                target_key, target_kdeg, theta, reps = spec
                tgt = row_offset.get((target_key, target_kdeg))
                if tgt is not None:
                    act = action(theta, target_kdeg)
                    if act.cols * reps != b.width(n):
                        raise AssemblyError(f"arrow of width {act.cols * reps} "
                                            f"into a block of width {b.width(n)}")
                    place(act, tgt, col, reps, 1)
            col += b.width(n)
        placed = np.array(placed, dtype=np.int64).reshape(-1, 5).T
        diffs.append(RingMatrix.from_terms(
            ring, rows, col, block_terms(list(mats), *placed)))
    return diffs


def assemble_T(ring: QuotientRing, basis: ClassTBasis, i_max: int = 8,
               sign_flip: bool = False) -> ResolutionAssembly:
    """Assemble the class-T resolution F through homological degree i_max.

    The blocks are K_i^{deg3 m} for the tree monomials m; the block of
    X_{j,r}.n carries the arrow alpha_{j,r}, repeated deg3(n) times, into the
    block of arrow_target(X_{j,r}.n); deg3 reads the basis's sequence tables.

    The degree-1 representatives outside the distinguished triple must have
    literally vanishing wedge products in K_2 (not merely vanishing classes);
    this is checked up front because no sign choice can repair it.  The signs
    follow the mapping-cone convention: diagonal (-1)^(deg1+deg2), arrows +1.
    Nothing here tests d^2 = 0; verifier.check_complex certifies it.  With
    sign_flip the diagonal carries (-1)^deg2 instead, the negative control
    that breaks d^2 = 0.  Each arrow carries its matrix alpha_{j,r}, which
    alpha memoizes per basis.
    """
    _check_literal_products(basis)
    blocks = [_class_t_blocks(k, basis.pack, ring.nvars) for k in range(i_max + 1)]

    def diag_sign(b):
        return (-1) ** (b.key.deg2 if sign_flip else b.shift)

    def arrow(b):
        if b.key.head is None:
            return None
        j, r, tail = b.key.head
        return arrow_target(b.key), b.kdeg + r - j + 1, alpha(j, r, basis), tail.deg3(basis.pack)

    diffs = _assemble_diffs(ring, blocks, diag_sign, arrow)
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

    betas = {j: beta(j, basis.z1) for j in range(1, i_max // 2 + 1)}

    def arrow(b):
        if b.key == 0:
            return None
        return b.key - 1, b.kdeg + 1, betas[b.key], 1

    diffs = _assemble_diffs(ring, blocks, lambda b: 1, arrow)
    return ResolutionAssembly("CI", ring, i_max, blocks, diffs,
                              "diagonal +1 (even shifts), beta +1")


# ---------------------------------------------------------------------------
# graded-level complexes of homology classes
# ---------------------------------------------------------------------------


@dataclass
class FiniteComplex:
    """A finite complex of F_p spaces: positions[t] is the dimension at
    homological position pos_top - t and maps[t] : positions[t] ->
    positions[t+1], acting on column vectors.  Each map is a RingMatrix over
    F_p, the ring with no variables (its one standard monomial is 1), and
    p is read from that ring; no dense matrix of a map is formed."""

    name: str
    top_position: int
    dims: list
    maps: list


def _side_by_side(maps, zero_rows: int = 0) -> RingMatrix:
    """The matrices (all with the same rows) side by side, over zero_rows
    rows of zeros: each map's columns are offset by the columns before it."""
    offsets = np.cumsum([0] + [m.cols for m in maps]).tolist()
    return RingMatrix.from_terms(
        maps[0].ring, maps[0].rows + zero_rows, offsets[-1],
        block_terms(maps, np.arange(len(maps)), 0, offsets[:-1], 1, 1))


class _Coordinates:
    """Multiplication matrices, over H.field (F_p as a QuotientRing with no
    variables), of cycle matrices from a basis of one degree of A (the unit
    class ``H.reps[0]``, which spans A_0, reads the entries themselves) into
    A_q in its representative basis (span None), or into the subspace of A_q
    whose basis is the columns of ``span``, independent classes as
    HomologyAlgebra.classes gives them.  Blocks are cached per cycle and
    sources, each element by identity, since the block matrices share
    entries."""

    def __init__(self, H: HomologyAlgebra, span=None):
        self.H = H
        self.span = span
        self._cache: dict = {}

    def _block(self, z, sources) -> RingMatrix:
        """The target coordinates of the products of z with each source, as
        the columns of a matrix over the field: one classes matrix, and in a
        span one solve for all of it."""
        a = self.H.classes(z.degree + sources[0].degree, [z.wedge(w) for w in sources])
        if self.span is not None:
            a = solve_mod(self.span, a, self.H.ring.p)
            if a is None:
                raise BuildError("class does not lie in the expected subspace")
        i, j = a.nonzero()
        return RingMatrix.from_terms(self.H.field, *a.shape,
                                     np.column_stack([i, j, np.zeros_like(i), a[i, j]]))

    def matrix(self, theta: CycleMatrix, sources) -> RingMatrix:
        """Entrywise multiplication by theta, from span(sources)^cols to the
        target^rows.  Each cycle's block is computed once, and each index row
        places its cycle's block."""
        a_src = len(sources)
        a_dst = self.span.shape[1] if self.span is not None else self.H.rank(
            theta.entry_degree + sources[0].degree)
        blocks = []
        for z in theta.cycles:
            key = (z, *sources)
            if key not in self._cache:
                self._cache[key] = self._block(z, sources)
            blocks.append(self._cache[key])
        where = theta.where
        return RingMatrix.from_terms(
            self.H.field, theta.rows * a_dst, theta.cols * a_src,
            block_terms(blocks, where[:, 2], where[:, 0] * a_dst, where[:, 1] * a_src, 1, 1))


def graded_A_complexes(k_max: int, basis: ClassTBasis, H: HomologyAlgebra) -> dict:
    """The finite complexes of homology classes whose exactness certifies the
    graded resolution data: B_k (k <= k_max), C_1..C_3 and A_k (k <= k_max).
    The maps are RingMatrix over H.field, and a zero block is only its
    extents.

    Each block multiplies by a cycle matrix from sources[q], a basis of
    degree q (the unit class ``H.reps[0]`` stands for the entry itself).
    B_k is the A_k recipe over the subalgebra B that the distinguished
    triple generates: the triple as its basis (so invariants (3, 3, 0)), and
    the spans of the classes of the triple and its products as coordinates.
    Position t of A_k exists while t <= k and a_t != 0, with dimension a_t
    l_{k-t} + l_{k-t,k}; with j = k - t + 1 its map is alpha_{j,j} times the
    degree t - 1 sources, beside alpha_{j,k} times the unit when t > 1,
    over l_{k-t,k} rows of zeros.  The alpha matrices come from alpha,
    memoized per basis, so A's are the ones that assemble_T places.

    Returns {"B": {k: FiniteComplex}, "C": {j: ...}, "A": {k: ...}}.
    """
    out = {"B": {}, "C": {}, "A": {}}
    unit = H.reps[0]
    for j in (1, 2, 3):
        g = gamma(j, basis)
        d = _Coordinates(H, H.classes(j, g.cycles)).matrix(g, unit)
        out["C"][j] = FiniteComplex(f"C_{j}", 1, [g.cols, g.cols], [d])

    B = ClassTBasis(z1=basis.triple, z2=[], z3=[])
    recipes = {"B": (B, [unit, B.triple],
                     [_Coordinates(H, H.classes(1, B.triple)),
                      _Coordinates(H, H.classes(2, B.products))]),
               "A": (basis, H.reps[:3], [_Coordinates(H)] * 3)}
    for k in range(1, k_max + 1):
        for name, (Z, sources, coordinates) in recipes.items():
            P = Z.pack
            dims, maps = [P.l[k]], []
            for t, a_t in enumerate((P.a1, P.a2, P.a3)[:k], 1):
                if not a_t:
                    break
                j, C, zero_rows = k - t + 1, coordinates[t - 1], P.l_ks(k - t, k)
                parts = [C.matrix(alpha(j, j, Z), sources[t - 1])]
                if t > 1:
                    parts.append(C.matrix(alpha(j, k, Z), unit))
                dims.append(a_t * P.l[k - t] + zero_rows)
                maps.append(_side_by_side(parts, zero_rows))
            out[name][k] = FiniteComplex(f"{name}_{k}", k, dims, maps)
    return out

