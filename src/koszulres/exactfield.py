"""Exact arithmetic: Artinian monomial quotient rings and F_p linear algebra.

Everything downstream reduces to two primitives implemented here:

* products of standard monomials in R = k[x_1..x_n]/I for a monomial ideal I
  containing a pure power of every variable (so R is a finite dimensional
  k-vector space with the standard monomials as basis), and
* exact rank / kernel / echelon computations over F_p, all done by one
  int64 eliminator, `rref_mod`.  Its products are at most (p-1)^2 and must
  fit int64, so the characteristic is bounded by MAX_CHARACTERISTIC =
  3037000499.

A matrix over R (`RingMatrix`) is one sorted int64 array of terms (row,
column, standard-monomial index, coefficient).  Monomials are multiplied
one way, by exponent codes wide enough that no digit carries, looked up
among the sorted codes of the basis: `QuotientRing.product` adds two codes
(the index of std_a * std_b, or -1 for zero).  Matrix products call it, and
so does `QuotientRing.multiples` (the nonzero products of std_b with every
std_a), which the nonzeros of a flat F_p matrix read for the b that occur
in the matrix.  Every element of R in this library is a list of such terms;
`term_string` prints one term, in the syntax that ring files and cycle
strings are written in.

Every map eliminated here is block diagonal up to a permutation, with few
distinct block contents: exactness, the oracle, the Koszul homology and the
graded complexes eliminate each content found by `block_contents` once, and
no dense matrix of a whole map is formed.  A matrix over the field F_p is a
RingMatrix over the ring with no variables, so the graded complexes share
the one product and the one rank path (`RingMatrix.flat_contents`).
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np


class ExactFieldError(ValueError):
    """Invalid algebraic input (bad modulus, non-Artinian ideal, ...)."""


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit moduli we accept."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# monomials: exponent tuples, and exponent arrays with one row per monomial
# ---------------------------------------------------------------------------

Monomial = tuple  # exponent tuple, one entry per variable


def monomial_order(E: np.ndarray) -> np.ndarray:
    """The rows of the exponent array E by degree, then within a degree by
    their exponents read left to right, largest first: x > y > z."""
    return E[np.lexsort((*(-E[:, ::-1].T), E.sum(axis=1)))]


def default_names(n: int) -> list[str]:
    if n <= 3:
        return list("xyz"[:n])
    return [f"x{i}" for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Artinian monomial quotient ring
# ---------------------------------------------------------------------------


class QuotientRing:
    """R = F_p[x_1..x_n]/I for a monomial ideal I with a pure power of every
    variable among its generators (the Artinian gate) and no variable among
    them, so that x_1..x_n minimally generate the maximal ideal.

    The standard monomials (those divisible by no generator) form the ordered
    k-basis; a monomial outside it lies in I, so it is zero in R.  With no
    variables (nvars 0, no generators) R is the field F_p itself, of basis
    {1}; ring files still need at least one variable.
    """

    def __init__(self, p: int, nvars: int, ideal_gens: Iterable[Monomial],
                 names: Sequence[str] | None = None):
        if not is_prime(p):
            raise ExactFieldError(f"{p} is not prime")
        _check_characteristic(p)
        self.p = p
        self.nvars = nvars
        self.names = list(names) if names is not None else default_names(nvars)
        if len(self.names) != nvars:
            raise ExactFieldError("variable name count does not match nvars")
        gens = [tuple(g) for g in ideal_gens]
        for g in gens:
            if len(g) != nvars or any(e < 0 for e in g):
                raise ExactFieldError(f"bad ideal generator exponent vector {g}")
            if not any(g):
                raise ExactFieldError("ideal contains 1; quotient ring is zero")
            if sum(g) == 1:
                raise ExactFieldError(
                    f"ideal contains the variable '{self.names[g.index(1)]}': "
                    "remove it from the variables and from the ideal")
        # an exponent of a minimal generator lies below its variable's pure
        # power, so below dim R: a larger limit builds no more rings, and this
        # one keeps the exponents and their sums inside int64
        big = [e for g in gens for e in g if e >= 2 ** 31]
        if big:
            raise ExactFieldError(f"ideal exponent {big[0]} is too large (the limit is 2^31 - 1)")
        # a repeat or a multiple of a row sorts after it, so keeping each row
        # that no kept earlier row divides leaves the minimal generators
        G = monomial_order(np.array(gens, dtype=np.int64).reshape(len(gens), nvars))
        keep = np.ones(len(G), dtype=bool)
        for i in range(len(G)):  # one row at a time: no len(G) x len(G) array
            if keep[i]:
                keep[i + 1:] &= (G[i + 1:] < G[i]).any(axis=1)
        G = G[keep]
        self.ideal_gens = [tuple(g) for g in G.tolist()]
        bounds = G[(G > 0).sum(axis=1) == 1].sum(axis=0)  # one pure power each, at most
        missing = np.flatnonzero(bounds == 0)
        if missing.size:
            raise ExactFieldError(
                f"ideal is not Artinian: no pure power of variable "
                f"'{self.names[missing[0]]}' among the generators")
        self._pure_bounds = bounds.tolist()
        self.std_basis = self._compute_std_basis(G, bounds)
        self.basis_index = {m: i for i, m in enumerate(self.std_basis)}
        self.dim = len(self.std_basis)

    def _compute_std_basis(self, gens: np.ndarray, bounds: np.ndarray) -> list[Monomial]:
        """The monomials that no row of gens divides, in monomial_order, from
        exponent prefixes extended one variable at a time (each a standard
        monomial, so no step holds more than dim R rows): after a prefix, x_v
        runs below the least g_v of the generators g whose support ends at v
        and whose earlier exponents the prefix dominates.  Sets `codes`, the
        exponent code of each: the mixed-radix integer whose digit v, of
        weight code_weights[v] and radix 2 * bound_v - 1, is the exponent of
        x_v.  The digits of a sum of two standard exponents stay below the
        radix, so the code of a product of standard monomials is the sum of
        their codes."""
        last = ((gens > 0) * np.arange(self.nvars)).max(axis=1, initial=0)  # end of support
        E = np.zeros((1, 0), dtype=np.int64)
        for v in range(self.nvars):
            cap = np.full(len(E), bounds[v])
            for g in gens[last == v]:  # one at a time: no len(E) x len(gens) array
                cap = np.where((E >= g[:v]).all(axis=1), np.minimum(cap, g[v]), cap)
            E = np.column_stack([E.repeat(cap, axis=0),
                                 concat_ranges(np.zeros_like(cap), cap)])
        E = monomial_order(E)
        code_weights = np.cumprod(np.r_[1, 2 * bounds - 1])[:-1]
        self.codes = E @ code_weights
        order = self.codes.argsort()
        # the codes ascending, then a sentinel above every sum of two codes,
        # and the basis index of each (-1 at the sentinel)
        self._sorted_code = np.r_[self.codes[order], np.iinfo(np.int64).max]
        self._index_at = np.r_[order, -1]
        return [tuple(m) for m in E.tolist()]

    def _index_of_code(self, code: np.ndarray) -> np.ndarray:
        pos = self._sorted_code.searchsorted(code)
        return np.where(self._sorted_code[pos] == code, self._index_at[pos], -1)

    @cached_property
    def std_strings(self) -> list[str]:
        """The standard monomials printed with the ring's variable names."""
        return [monomial_to_string(m, self.names) for m in self.std_basis]

    def product(self, a, b) -> np.ndarray:
        """The index of std_a * std_b for index arrays a and b, or -1 where
        that product lies in I: the standard monomial, if any, whose code is
        the sum of their codes."""
        return self._index_of_code(self.codes[a] + self.codes[b])

    def multiples(self, bs: np.ndarray) -> np.ndarray:
        """The products of std_b, for each b of the ascending index array
        ``bs``, that are not zero in R: an int64 array of shape (3, N) whose
        columns (b, a, m) say std_b * std_a = std_m, sorted by (b, a).

        The rows are read row by row off `product` of each b with every a,
        so every monomial product is the one code addition.  The b are taken
        a chunk at a time, so no step holds a len(bs) x dim array, and the
        rows of each chunk are kept in int32 until the join, so they add
        half the result's memory rather than all of it."""
        bs, chunk = np.asarray(bs), max(1, 2 ** 18 // self.dim)
        out = [np.zeros((3, 0), dtype=np.int32)]
        for lo in range(0, len(bs), chunk):
            b = bs[lo:lo + chunk]
            m = self.product(b[:, None], np.arange(self.dim))
            k, a = (m >= 0).nonzero()
            out.append(np.stack([b[k], a, m[k, a]]).astype(np.int32))
        return np.concatenate(out, axis=1, dtype=np.int64)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, QuotientRing)
            and self.p == other.p
            and self.nvars == other.nvars
            and self.ideal_gens == other.ideal_gens
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.p, self.nvars, tuple(self.ideal_gens), tuple(self.names)))

    def __repr__(self):
        gens = ", ".join(monomial_to_string(g, self.names) for g in self.ideal_gens)
        return f"F_{self.p}[{', '.join(self.names)}]/({gens})"


# ---------------------------------------------------------------------------
# matrices over R (sparse) and their flat F_p nonzeros
# ---------------------------------------------------------------------------


class RingMatrix:
    """Sparse matrix over R, stored as one int64 array `terms` of shape
    (nnz, 4).  Each row (i, j, b, c) is the term c * std_b of entry (i, j):
    b indexes ring.std_basis and the coefficient c lies in [1, p).  Rows are
    sorted by (i, j, b) and no triple repeats, so equal matrices have equal
    arrays.  Instances are treated as immutable."""

    __slots__ = ("ring", "rows", "cols", "terms")

    @classmethod
    def from_terms(cls, ring, rows, cols, terms) -> "RingMatrix":
        """The matrix summing the term rows (i, j, b, c), given in any order
        and with any integer coefficient c."""
        t = np.asarray(terms, dtype=np.int64).reshape(-1, 4)
        key = (t[:, 0] * cols + t[:, 1]) * ring.dim + t[:, 2]
        order = key.argsort()
        key = key[order]
        first = np.empty(len(key), dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = first.nonzero()[0]
        # array methods, not np.take / np.diff / np.flatnonzero: most calls
        # here sum a handful of terms, where the module functions' overhead
        # is most of the cost
        u = t.take(order[starts], axis=0)
        u[:, 3] = np.add.reduceat(t[:, 3].take(order) % ring.p, starts) % ring.p
        M = cls.__new__(cls)
        M.ring, M.rows, M.cols = ring, rows, cols
        M.terms = u.take(u[:, 3].nonzero()[0], axis=0)
        return M

    @property
    def entries(self) -> MappingProxyType:
        """Read-only {(i, j): printed entry} view of the nonzero entries:
        each is its terms, in standard-monomial order, printed by
        term_string and joined by ' + '."""
        out: dict = {}
        for i, j, b, c in self.terms.tolist():
            out.setdefault((i, j), []).append(term_string(self.ring, b, c))
        return MappingProxyType({ij: " + ".join(t) for ij, t in out.items()})

    def is_zero(self) -> bool:
        return not len(self.terms)

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        """Product over R: terms (i, t, a, c) of self and (t, j, b, c') of
        other give c c' std_a std_b at (i, j), found by ring.product."""
        if self.ring != other.ring or self.cols != other.rows:
            raise ExactFieldError("incompatible RingMatrix product")
        i, t, a, c = self.terms.T
        o = other.terms
        x, y = join_sorted(t, o[:, 0])  # x-th term of self meets y-th of other
        m = self.ring.product(a[x], o[y, 2])
        keep = (m >= 0).nonzero()[0]
        x, y, m = x[keep], y[keep], m[keep]
        return RingMatrix.from_terms(
            self.ring, self.rows, other.cols,
            np.column_stack([i[x], o[y, 1], m, c[x] * o[y, 3] % self.ring.p]))

    def first_unit_entry(self):
        unit = np.flatnonzero(self.terms[:, 2] == 0)  # the terms of std_0 = 1
        return tuple(self.terms[unit[0], :2].tolist()) if len(unit) else None

    def _flat_nonzeros(self):
        """Row, column and value of each nonzero of the F_p matrix of the map
        R^cols -> R^rows that self induces.  Coordinates are R-coordinate
        major: coordinate r occupies the slice [r*dim, (r+1)*dim) in the
        standard-monomial basis of R.  The term c * std_b of entry (i, j)
        sends std_a of coordinate j to c * std_m of coordinate i for each
        (b, a, m) of ring.multiples (products by ring.product), worked out
        only for the b of the terms; distinct terms of an entry send std_a
        to distinct monomials, so no two terms meet."""
        D = self.ring.dim
        i, j, b, c = self.terms.T
        # the distinct b ascending, by bincount: a plain np.unique would
        # import numpy.ma
        nb, na, nm = self.ring.multiples(np.bincount(b, minlength=D).nonzero()[0])
        t, y = join_sorted(b, nb)  # term t meets the product (nb[y], na[y])
        return i[t] * D + nm[y], j[t] * D + na[y], c[t]

    def flat_contents(self, col_tag=0) -> list:
        """block_contents of the flat F_p matrix (see _flat_nonzeros), its
        rows and columns with no nonzero dropped first, so they lie in no
        block; its rank is the sum of the block ranks.  ``cols`` are flat
        columns, ascending in (col_tag, column) in each block, col_tag 0 or
        1 per flat column.  A block's rows, which no caller reads, are the
        flat rows with a nonzero in its columns, in ascending order."""
        r, c, v = self._flat_nonzeros()
        D = self.ring.dim
        row_mark, col_mark = np.zeros(self.rows * D, bool), np.zeros(self.cols * D, bool)
        row_mark[r] = col_mark[c] = True  # renumber by rank among the present ones
        row_at, col_at = row_mark.nonzero()[0], col_mark.nonzero()[0]
        r, c = np.cumsum(row_mark)[r] - 1, np.cumsum(col_mark)[c] - 1
        del row_mark, col_mark
        tag = np.broadcast_to(col_tag, self.cols * D)[col_at]
        return [b._replace(cols=col_at[b.cols])
                for b in block_contents(r, c, v, (len(row_at), len(col_at)), 0, tag)]


def block_terms(mats, k, r0, c0, copies, sign) -> np.ndarray:
    """The term rows, for RingMatrix.from_terms to sum, of placements of the
    distinct matrices ``mats``: placement q is copies[q] diagonal copies of
    sign[q] * mats[k[q]], the first with its top-left corner at (r0[q],
    c0[q]).  Each of k..sign is an int array over the placements or one int
    for all; the terms are gathered at once from the stacked ``mats``."""
    k, r0, c0, copies, sign = np.broadcast_arrays(*np.atleast_1d(k, r0, c0, copies, sign))
    size = np.array([len(M.terms) for M in mats], dtype=np.int64)
    shape = np.array([(M.rows, M.cols) for M in mats], dtype=np.int64).reshape(-1, 2)
    i, j, b, c = np.concatenate([np.zeros((0, 4), dtype=np.int64)]
                                + [M.terms for M in mats]).T.copy()
    # one entry per copy: its placement q, its matrix m and its number nth
    q = np.arange(len(k)).repeat(copies)
    m = k[q]
    nth = concat_ranges(np.zeros_like(copies), copies)
    n = size[m]
    at = concat_ranges((size.cumsum() - size)[m], n)  # the terms of each copy
    t = np.empty((len(at), 4), dtype=np.int64)
    t[:, 0] = i.take(at) + (r0[q] + nth * shape[m, 0]).repeat(n)
    t[:, 1] = j.take(at) + (c0[q] + nth * shape[m, 1]).repeat(n)
    t[:, 2] = b.take(at)
    t[:, 3] = c.take(at) * sign[q].repeat(n)
    return t


def join_sorted(keys: np.ndarray, sorted_keys: np.ndarray):
    """Every pair (x, y) with keys[x] == sorted_keys[y], for an ascending
    sorted_keys: grouped by x in ascending order, y ascending in each group."""
    lo = sorted_keys.searchsorted(keys, side="left")
    n = sorted_keys.searchsorted(keys, side="right") - lo
    return np.arange(len(keys)).repeat(n), concat_ranges(lo, n)


def concat_ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The integer ranges [start[k], start[k] + size[k]), concatenated."""
    return np.arange(size.sum()) + (start - size.cumsum() + size).repeat(size)


def _component_labels(u: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Component of each node of the graph on nodes 0..n-1 with edges (u, w),
    labelled by its smallest node: hook the larger root of every edge whose
    ends have different roots under the smaller one, compress, repeat."""
    parent = np.arange(n)
    while True:
        pu, pw = parent[u], parent[w]
        cross = pu != pw
        if not cross.any():
            return parent
        np.minimum.at(parent, np.maximum(pu, pw)[cross], np.minimum(pu, pw)[cross])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _local_index(label: np.ndarray, *keys) -> np.ndarray:
    """The index of each item among the items with its label, ordered by
    ``keys`` (the last one first, as in np.lexsort), then by position."""
    order = np.lexsort((*keys, label))
    ranked = label[order]
    local = np.empty(len(label), dtype=np.int64)
    local[order] = np.arange(len(label)) - ranked.searchsorted(ranked)
    return local


BlockContent = namedtuple("BlockContent", "matrix row_tags col_tags owners cols")


def block_contents(r, c, v, shape, row_tag, col_tag) -> list:
    """The distinct block contents of the matrix of ``shape`` with nonzeros
    (r, c, v) = (row, column, value).  The blocks are the connected
    components of the nonzeros, every row and column a node, so a row or
    column with no nonzero is a block of its own; inside a block the rows,
    and the columns, come in (tag, index) order, a tag being an int per row
    (``row_tag``) and per column (``col_tag``), or one for all.

    A content is the row [h, w, row tags, column tags, h x w entries]; the
    rows are grouped by length and sorted, and equal neighbours are one
    content.  Returns a BlockContent per content: ``matrix``, the tags, the
    labels of its ``owners`` (ascending: the least node of each, column b
    being node shape[0] + b), and ``cols[k, b]``, the column of local b in
    owner k.  No caller reads an owner's rows, so they are not listed: they
    are the rows with a nonzero in its columns (a lone row is its label)."""
    nr, nc = shape
    row_tag, col_tag = np.broadcast_to(row_tag, nr), np.broadcast_to(col_tag, nc)
    parent = _component_labels(r, c + nr, nr + nc)
    root = parent == np.arange(nr + nc)  # each component's least node
    labels, block = root.nonzero()[0], (np.cumsum(root) - 1)[parent]
    del parent, root
    br, bc = block[:nr], block[nr:]
    row_local, col_local = _local_index(br, row_tag), _local_index(bc, col_tag)
    h, w = (np.bincount(x, minlength=len(labels)) for x in (br, bc))
    length = 2 + h + w + h * w
    offset = np.cumsum(length) - length
    buf = np.zeros(int(length.sum()), dtype=np.int64)
    buf[offset], buf[offset + 1] = h, w
    buf[offset[br] + 2 + row_local] = row_tag
    buf[offset[bc] + 2 + h[bc] + col_local] = col_tag
    b = br[r]
    buf[offset[b] + 2 + h[b] + w[b] + row_local[r] * w[b] + col_local[c]] = v
    first_c = np.cumsum(w) - w
    col_of = np.empty_like(bc)  # the columns, block by block
    col_of[first_c[bc] + col_local] = np.arange(len(bc))
    out = []
    lengths, by_length = np.unique(length, return_inverse=True)
    for g, L in enumerate(lengths.tolist()):
        group = np.flatnonzero(by_length == g)
        content = buf[offset[group][:, None] + np.arange(L)]
        order = np.lexsort(content.T[::-1])
        content, group = content[order], group[order]
        first = np.flatnonzero(np.r_[True, (content[1:] != content[:-1]).any(axis=1)])
        for row, owners in zip(content[first], np.split(group, first[1:])):
            nh, nw = row[:2].tolist()
            out.append(BlockContent(
                row[2 + nh + nw:].reshape(nh, nw), row[2:2 + nh], row[2 + nh:2 + nh + nw],
                labels[owners], col_of[first_c[owners][:, None] + np.arange(nw)]))
    return out


# ---------------------------------------------------------------------------
# exact linear algebra over F_p (numpy int64)
# ---------------------------------------------------------------------------

MAX_CHARACTERISTIC = 3037000499  # (p-1)^2 < 2^63 for every p up to here


def _check_characteristic(p: int) -> None:
    """Refuse a characteristic whose products overflow the int64 eliminator."""
    if p > MAX_CHARACTERISTIC:
        raise ExactFieldError(
            f"characteristic {p} exceeds {MAX_CHARACTERISTIC}: F_p elimination "
            "runs in int64 and needs (p-1)^2 < 2^63")


def rref_mod(A: np.ndarray, p: int):
    """Reduced row echelon form over F_p; returns (R, pivot_columns).

    This is the one eliminator: ranks, kernels, solves, the homology's
    representatives and classes, and the oracle's Nakayama-minimal
    generators all read it.  Each pivot step touches only the rows with a nonzero in the pivot
    column, and only the columns from the pivot on (rows below the pivot
    row vanish left of it), which suits the sparse flattened differentials.
    Entries stay in [0, p) and every product is at most (p-1)^2 < 2^63, so
    int64 arithmetic is exact.
    """
    _check_characteristic(p)
    M = np.asarray(A, dtype=np.int64) % p
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        t = r + int(nz[0])
        if t != r:
            M[[r, t]] = M[[t, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r, c:] = (M[r, c:] * inv) % p
        other = np.nonzero(M[:, c])[0]
        other = other[other != r]
        if other.size:
            M[other, c:] = (M[other, c:] - np.outer(M[other, c], M[r, c:])) % p
        pivots.append(c)
        r += 1
    return M, pivots


def rank_mod(A: np.ndarray, p: int) -> int:
    return len(rref_mod(A, p)[1])


def kernel_mod(A: np.ndarray, p: int) -> tuple:
    """(K, free): the columns of K form an echelon-normalized basis of the
    null space of A, and column k is 1 at row free[k], 0 at the other free
    columns (the non-pivot columns of A, in order) and after free[k]."""
    R, piv = rref_mod(A, p)
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    K = np.zeros((cols, free.size), dtype=np.int64)
    K[free, np.arange(free.size)] = 1
    K[piv, :] = (-R[:len(piv), free]) % p
    return K, free


def solve_mod(A: np.ndarray, b: np.ndarray, p: int):
    """One solution x of Ax = b over F_p, in the shape of b (a vector or a
    matrix of columns), or None if inconsistent."""
    b = np.asarray(b, dtype=np.int64)
    ncols = np.shape(A)[1]
    R, piv = rref_mod(np.column_stack([np.asarray(A, dtype=np.int64), b]), p)
    if piv and piv[-1] >= ncols:
        return None
    x = np.zeros((ncols, R.shape[1] - ncols), dtype=np.int64)
    x[piv] = R[:len(piv), ncols:]
    return x.reshape((ncols,) + b.shape[1:])


# ---------------------------------------------------------------------------
# ring input files
# ---------------------------------------------------------------------------

_RING_KEYS = ("characteristic", "variables", "ideal", "mode", "max_degree",
              "series_order")


@dataclass
class RingFile:
    """Parsed ring description; `cycles` maps names like 'z1_2' to raw
    formal-sum strings (interpreted by the Koszul layer)."""

    characteristic: int
    variables: list[str]
    ideal: list[str]
    mode: str | None = None
    max_degree: int | None = None
    series_order: int | None = None
    cycles: dict = field(default_factory=dict)


def parse_monomial_string(s: str, names: Sequence[str]) -> Monomial:
    """Parse 'x^2', 'x*y*z', '1' into an exponent tuple."""
    index = {nm: i for i, nm in enumerate(names)}
    exps = [0] * len(names)
    s = s.strip()
    if s in ("1", ""):
        return tuple(exps)
    for factor in s.split("*"):
        base, hat, e = (part.strip() for part in factor.partition("^"))
        if base not in index:
            raise ExactFieldError(f"unknown variable {base!r} in monomial {s!r}")
        e = e if hat else "1"
        if not (e.isascii() and e.isdigit() and int(e) >= 1):
            raise ExactFieldError(f"bad exponent in monomial {s!r}")
        exps[index[base]] += int(e)
    return tuple(exps)


def monomial_to_string(m: Monomial, names: Sequence[str]) -> str:
    parts = []
    for v, e in enumerate(m):
        if e == 1:
            parts.append(names[v])
        elif e > 1:
            parts.append(f"{names[v]}^{e}")
    return "*".join(parts) if parts else "1"


def term_string(ring: QuotientRing, b: int, c: int) -> str:
    """The term c * std_b: '2*x*y', 'x*y' when c = 1, '2' when std_b = 1."""
    mono = ring.std_strings[b]
    return mono if c == 1 else f"{c}*{mono}" if b else str(c)


def parse_ring_file(text: str) -> RingFile:
    fields: dict = {}
    cycles: dict = {}
    slots: dict = {}  # (degree, index) -> the cycle name that took it
    in_cycles = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[cycles]":
            in_cycles = True
            continue
        if line.startswith("["):
            raise ExactFieldError(f"line {lineno}: unknown section {line!r}")
        if "=" not in line:
            raise ExactFieldError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if in_cycles:
            slot = cycle_slot(key)
            if not slot:
                raise ExactFieldError(
                    f"line {lineno}: cycle names look like 'z1_2' (got {key!r})")
            if slot in slots:
                raise ExactFieldError(
                    f"line {lineno}: duplicate cycle {key!r}: {slots[slot]!r} already "
                    f"names degree {slot[0]}, index {slot[1]}")
            slots[slot] = key
            cycles[key] = value
        else:
            if key not in _RING_KEYS:
                raise ExactFieldError(f"line {lineno}: unknown key {key!r}")
            if key in fields:
                raise ExactFieldError(f"line {lineno}: duplicate key {key!r}")
            fields[key] = value
    for required in ("characteristic", "variables", "ideal"):
        if required not in fields:
            raise ExactFieldError(f"missing required field {required!r}")
    integers = {}
    for key in ("characteristic", "max_degree", "series_order"):
        if key in fields:
            try:
                integers[key] = int(fields[key])
            except ValueError:
                raise ExactFieldError(f"{key} must be an integer") from None
    variables = [v.strip() for v in fields["variables"].split(",") if v.strip()]
    if len(set(variables)) != len(variables) or not variables:
        raise ExactFieldError("variables must be distinct and nonempty")
    for v in variables:  # the monomial and cycle grammars read no other names
        if not (v.isascii() and v.isidentifier()):
            raise ExactFieldError(f"bad variable name {v!r}: not [A-Za-z_][A-Za-z0-9_]*")
    ideal = [s.strip() for s in fields["ideal"].split(",") if s.strip()]
    mode = fields.get("mode")
    if mode is not None and mode not in ("T", "CI", "auto"):
        raise ExactFieldError(f"mode must be T, CI or auto (got {mode!r})")
    rf = RingFile(
        characteristic=integers["characteristic"],
        variables=variables,
        ideal=ideal,
        mode=mode,
        max_degree=integers.get("max_degree"),
        series_order=integers.get("series_order"),
        cycles=cycles,
    )
    # canonicalize monomial strings through the parser so round-trips are exact
    rf.ideal = [
        monomial_to_string(parse_monomial_string(s, variables), variables)
        for s in rf.ideal
    ]
    return rf


_CYCLE_NAME = re.compile(r"z([123])_([0-9]+)")


def cycle_slot(name: str) -> tuple | None:
    """(degree, index) of a cycle name like 'z1_2', or None for any other
    name.  'z1_04' and 'z1_4' name one slot, (1, 4)."""
    m = _CYCLE_NAME.fullmatch(name)
    return m and (int(m.group(1)), int(m.group(2)))


def serialize_ring_file(rf: RingFile) -> str:
    lines = [
        f"characteristic = {rf.characteristic}",
        f"variables = {', '.join(rf.variables)}",
        f"ideal = {', '.join(rf.ideal)}",
    ]
    if rf.mode is not None:
        lines.append(f"mode = {rf.mode}")
    if rf.max_degree is not None:
        lines.append(f"max_degree = {rf.max_degree}")
    if rf.series_order is not None:
        lines.append(f"series_order = {rf.series_order}")
    if rf.cycles:
        lines.append("")
        lines.append("[cycles]")
        for name in sorted(rf.cycles, key=cycle_slot):
            lines.append(f"{name} = {rf.cycles[name]}")
    return "\n".join(lines) + "\n"


def build_ring(rf: RingFile, char_override: int | None = None) -> QuotientRing:
    p = char_override if char_override is not None else rf.characteristic
    gens = [parse_monomial_string(s, rf.variables) for s in rf.ideal]
    return QuotientRing(p, len(rf.variables), gens, names=rf.variables)
