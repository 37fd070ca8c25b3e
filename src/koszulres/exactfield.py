"""Exact arithmetic: Artinian monomial quotient rings and F_p linear algebra.

Everything downstream reduces to two primitives implemented here:

* products of standard monomials in R = k[x_1..x_n]/I for a monomial ideal I
  containing a pure power of every variable (so R is a finite dimensional
  k-vector space with the standard monomials as basis), and
* exact rank / kernel / echelon computations over F_p, all done by one
  int64 eliminator, `rref_mod`.  Its products are at most (p-1)^2 and must
  fit int64, so the characteristic is bounded by MAX_CHARACTERISTIC =
  3037000499.

`mod_matmul` is one loop over chunks of the inner dimension whose integer dot
products stay exact in the accumulator: float64 BLAS while (p-1)^2 < 2**53,
int64 above; no floating point value leaves this module un-reduced.

A matrix over R (`RingMatrix`) is one sorted int64 array of terms (row,
column, standard-monomial index, coefficient).  Its products and the
nonzeros of its flat F_p matrix multiply monomials through one table,
`QuotientRing.product`: the index of std_a * std_b, or -1 for zero.  Every
element of R in this library is a list of such terms; `term_string` prints
one term, in the syntax that ring files and cycle strings are written in.
"""

from __future__ import annotations

import re
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
# monomials (plain exponent tuples)
# ---------------------------------------------------------------------------

Monomial = tuple  # exponent tuple, one entry per variable


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b))


def mono_key(m: Monomial):
    """Degree-then-lexicographic order key: x > y > z within a degree."""
    return (mono_degree(m), tuple(-e for e in m))


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
    k-basis; a monomial outside it lies in I, so it is zero in R.
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
        self.ideal_gens = self._minimalize(gens)
        self._pure_bounds = self._artinian_bounds()
        self.std_basis = self._compute_std_basis()
        self.basis_index = {m: i for i, m in enumerate(self.std_basis)}
        self.dim = len(self.std_basis)

    @staticmethod
    def _minimalize(gens: list[Monomial]) -> list[Monomial]:
        gens = sorted(set(gens), key=mono_key)
        keep = []
        for g in gens:
            if not any(mono_divides(h, g) for h in keep):
                keep.append(g)
        return keep

    def _artinian_bounds(self) -> list[int]:
        bounds = [None] * self.nvars
        for g in self.ideal_gens:
            support = [v for v, e in enumerate(g) if e]
            if len(support) == 1:
                v = support[0]
                if bounds[v] is None or g[v] < bounds[v]:
                    bounds[v] = g[v]
        for v, b in enumerate(bounds):
            if b is None:
                raise ExactFieldError(
                    f"ideal is not Artinian: no pure power of variable "
                    f"'{self.names[v]}' among the generators"
                )
        return bounds

    def _compute_std_basis(self) -> list[Monomial]:
        ranges = [range(b) for b in self._pure_bounds]
        out = []

        def rec(prefix, v):
            if v == self.nvars:
                m = tuple(prefix)
                if not any(mono_divides(g, m) for g in self.ideal_gens):
                    out.append(m)
                return
            for e in ranges[v]:
                rec(prefix + [e], v + 1)

        rec([], 0)
        out.sort(key=mono_key)
        return out

    @cached_property
    def std_strings(self) -> list[str]:
        """The standard monomials printed with the ring's variable names."""
        return [monomial_to_string(m, self.names) for m in self.std_basis]

    @cached_property
    def product(self) -> np.ndarray:
        """product[a, b] is the index of std_a * std_b, or -1 when that product
        lies in I; built on first use.  Column b is column b' stepped by x_v,
        where std_b = x_v * std_b' and b' < b in the degree order."""
        D, E, unit = self.dim, np.array(self.std_basis), np.eye(self.nvars, dtype=int)
        # step[a, v]: the index of x_v * std_a, with D standing for zero
        step = np.array([[self.basis_index.get(tuple(e + u), D) for u in unit]
                         for e in E] + [[D] * self.nvars], dtype=np.int64)
        table = np.empty((D + 1, D), dtype=np.int64)
        table[:, 0] = np.arange(D + 1)
        for b in range(1, D):
            v = np.flatnonzero(E[b])[0]
            table[:, b] = step[table[:, self.basis_index[tuple(E[b] - unit[v])]], v]
        return np.where(table[:D] == D, -1, table[:D])

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

    @classmethod
    def zero(cls, ring, rows, cols):
        return cls.from_terms(ring, rows, cols, ())

    def shifted_terms(self, r0: int, c0: int, copies: int, sign: int) -> np.ndarray:
        """Term rows of `copies` diagonal copies of sign * self, the first
        with its top-left corner at (r0, c0), for from_terms to sum."""
        t = np.tile(self.terms, (copies, 1, 1))
        t[..., :2] += np.arange(copies)[:, None, None] * [self.rows, self.cols] + [r0, c0]
        t[..., 3] *= sign
        return t.reshape(-1, 4)

    @classmethod
    def repeat_diag(cls, M: "RingMatrix", copies: int) -> "RingMatrix":
        """Block-diagonal sum of `copies` copies of M."""
        return cls.from_terms(M.ring, M.rows * copies, M.cols * copies,
                              M.shifted_terms(0, 0, copies, 1))

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

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return RingMatrix.from_terms(self.ring, self.rows, self.cols,
                                     np.concatenate([self.terms, other.terms]))

    def scale(self, c: int) -> "RingMatrix":
        return RingMatrix.from_terms(self.ring, self.rows, self.cols,
                                     self.terms * [1, 1, 1, c % self.ring.p])

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        """Product over R: terms (i, t, a, c) of self and (t, j, b, c') of
        other give c c' std_a std_b at (i, j), read from ring.product."""
        assert self.ring == other.ring and self.cols == other.rows, \
            "incompatible RingMatrix product"
        i, t, a, c = self.terms.T
        o = other.terms
        x, y = join_sorted(t, o[:, 0])  # x-th term of self meets y-th of other
        m = self.ring.product[a[x], o[y, 2]]
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
        sends std_a of coordinate j to c * std_{product[b, a]} of coordinate
        i; distinct terms of an entry send std_a to distinct monomials, so
        no two terms meet."""
        D, product = self.ring.dim, self.ring.product
        nb, na = np.nonzero(product >= 0)  # the pairs (b, a), grouped by b
        i, j, b, c = self.terms.T
        t, y = join_sorted(b, nb)  # term t meets the pair (nb[y], na[y])
        a = na[y]
        return i[t] * D + product[b[t], a], j[t] * D + a, c[t]

    def flat_blocks(self) -> list:
        """The connected blocks of the flat F_p matrix (see _flat_nonzeros),
        without forming it.

        Each nonzero of the flat matrix joins its row to its column; the
        connected components of that bipartite graph make the matrix
        block-diagonal up to a permutation of rows and columns, so its rank
        is the sum of the block ranks.  Returns (rows, cols, block) per
        component, ordered by smallest row: ascending flat row and column
        indices and the dense int64 block of the flat matrix on them.
        Rows and columns with no nonzero lie in no block.  A monomial entry
        sends standard monomials to standard monomials or to zero, so over a
        monomial ring the blocks are small; entries with several terms only
        merge them.
        """
        D = self.ring.dim
        r, c, v = self._flat_nonzeros()
        n_rows = self.rows * D
        label = _component_labels(r, c + n_rows, n_rows + self.cols * D)
        # the label of a component is its smallest node, always a row
        lr = _local_index(r, label, n_rows)
        lc = _local_index(c, label, self.cols * D)
        order = np.argsort(label, kind="stable")
        r, c, v, lr, lc, label = (x[order] for x in (r, c, v, lr, lc, label))
        starts = np.flatnonzero(np.diff(label, prepend=-1))
        blocks = []
        for s, e in zip(starts, np.r_[starts[1:], len(label)]):
            B = np.zeros((lr[s:e].max() + 1, lc[s:e].max() + 1), dtype=np.int64)
            B[lr[s:e], lc[s:e]] = v[s:e]
            rows = np.empty(B.shape[0], dtype=np.int64)
            rows[lr[s:e]] = r[s:e]
            cols = np.empty(B.shape[1], dtype=np.int64)
            cols[lc[s:e]] = c[s:e]
            blocks.append((rows, cols, B))
        return blocks

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and (self.rows, self.cols) == (other.rows, other.cols)
            and np.array_equal(self.terms, other.terms)
        )

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def join_sorted(keys: np.ndarray, sorted_keys: np.ndarray):
    """Every pair (x, y) with keys[x] == sorted_keys[y], for an ascending
    sorted_keys: grouped by x in ascending order, y ascending in each group."""
    lo = sorted_keys.searchsorted(keys, side="left")
    n = sorted_keys.searchsorted(keys, side="right") - lo
    x = np.arange(len(keys)).repeat(n)
    return x, np.arange(len(x)) + (lo - n.cumsum() + n).repeat(n)


def _component_labels(u: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Component of each edge (u, w) of a graph on nodes 0..n-1, labelled by
    its smallest node: hook the larger root of every edge whose ends have
    different roots under the smaller one, compress, repeat."""
    parent = np.arange(n)
    while True:
        pu, pw = parent[u], parent[w]
        cross = pu != pw
        if not cross.any():
            return pu
        np.minimum.at(parent, np.maximum(pu, pw)[cross], np.minimum(pu, pw)[cross])
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _local_index(x: np.ndarray, label: np.ndarray, n: int) -> np.ndarray:
    """For nodes x (in 0..n-1) with component labels `label`, the index of
    each among the nodes of its component in ascending order."""
    lab = np.full(n, -1, dtype=np.int64)
    lab[x] = label
    nodes = np.flatnonzero(lab >= 0)
    nodes = nodes[np.argsort(lab[nodes], kind="stable")]
    group = lab[nodes]
    starts = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    sizes = np.diff(np.r_[starts, len(nodes)])
    local = np.empty(n, dtype=np.int64)
    local[nodes] = np.arange(len(nodes)) - np.repeat(starts, sizes)
    return local[x]


# ---------------------------------------------------------------------------
# exact linear algebra over F_p (numpy int64)
# ---------------------------------------------------------------------------

MAX_CHARACTERISTIC = 3037000499  # (p-1)^2 < 2^63 for every p up to here


def mod_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) mod p, summed over chunks of the inner dimension.

    Every partial dot product of a chunk stays inside the exact range of the
    accumulator: float64 (BLAS) while (p-1)^2 < 2^53, else int64 with the
    bound 2^63 - p, so adding the reduced running sum cannot overflow."""
    _check_characteristic(p)
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    per = (p - 1) ** 2
    dtype, bound = (np.float64, 2 ** 53) if per < 2 ** 53 else (np.int64, 2 ** 63 - p)
    step = bound // per
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for lo in range(0, A.shape[1], step):
        C = A[:, lo:lo + step].astype(dtype) @ B[lo:lo + step].astype(dtype)
        out = (out + C.astype(np.int64)) % p
    return out


def _check_characteristic(p: int) -> None:
    """Refuse a characteristic whose products overflow the int64 eliminator."""
    if p > MAX_CHARACTERISTIC:
        raise ExactFieldError(
            f"characteristic {p} exceeds {MAX_CHARACTERISTIC}: F_p elimination "
            "runs in int64 and needs (p-1)^2 < 2^63")


def rref_mod(A: np.ndarray, p: int):
    """Reduced row echelon form over F_p; returns (R, pivot_columns).

    This is the one eliminator: ranks, kernels, solves and the oracle's
    Nakayama-minimal generators all read it.  Each pivot step touches only
    the rows with a nonzero in the pivot column, and only the columns from
    the pivot on (rows below the pivot row vanish left of it), which suits
    the sparse flattened differentials.  Entries stay in [0, p) and every
    product is at most (p-1)^2 < 2^63, so int64 arithmetic is exact.
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


def kernel_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Columns form an echelon-normalized basis of the null space of A."""
    R, piv = rref_mod(A, p)
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    K = np.zeros((cols, free.size), dtype=np.int64)
    K[free, np.arange(free.size)] = 1
    K[piv, :] = (-R[:len(piv), free]) % p
    return K


def solve_mod(A: np.ndarray, b: np.ndarray, p: int):
    """One solution of Ax = b over F_p, or None if inconsistent."""
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    if b.ndim == 1:
        b = b[:, None]
    aug = np.hstack([A, b])
    R, piv = rref_mod(aug, p)
    ncols = A.shape[1]
    if any(c >= ncols for c in piv):
        return None
    x = np.zeros((ncols, b.shape[1]), dtype=np.int64)
    for r, pc in enumerate(piv):
        x[pc] = R[r, ncols:]
    return x if x.shape[1] > 1 else x[:, 0]


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
        factor = factor.strip()
        if "^" in factor:
            base, _, e = factor.partition("^")
            base, e = base.strip(), int(e)
        else:
            base, e = factor, 1
        if base not in index:
            raise ExactFieldError(f"unknown variable {base!r} in monomial {s!r}")
        if e < 1:
            raise ExactFieldError(f"bad exponent in monomial {s!r}")
        exps[index[base]] += e
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
            if not _CYCLE_NAME.fullmatch(key):
                raise ExactFieldError(
                    f"line {lineno}: cycle names look like 'z1_2' (got {key!r})")
            if key in cycles:
                raise ExactFieldError(f"line {lineno}: duplicate cycle {key!r}")
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
    try:
        p = int(fields["characteristic"])
    except ValueError:
        raise ExactFieldError("characteristic must be an integer") from None
    variables = [v.strip() for v in fields["variables"].split(",") if v.strip()]
    if len(set(variables)) != len(variables) or not variables:
        raise ExactFieldError("variables must be distinct and nonempty")
    ideal = [s.strip() for s in fields["ideal"].split(",") if s.strip()]
    mode = fields.get("mode")
    if mode is not None and mode not in ("T", "CI", "auto"):
        raise ExactFieldError(f"mode must be T, CI or auto (got {mode!r})")
    rf = RingFile(
        characteristic=p,
        variables=variables,
        ideal=ideal,
        mode=mode,
        max_degree=int(fields["max_degree"]) if "max_degree" in fields else None,
        series_order=int(fields["series_order"]) if "series_order" in fields else None,
        cycles=cycles,
    )
    # canonicalize monomial strings through the parser so round-trips are exact
    rf.ideal = [
        monomial_to_string(parse_monomial_string(s, variables), variables)
        for s in rf.ideal
    ]
    return rf


_CYCLE_NAME = re.compile(r"z([123])_([0-9]+)")


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
        def cycle_key(name):
            m = _CYCLE_NAME.fullmatch(name)
            return (int(m.group(1)), int(m.group(2)))
        for name in sorted(rf.cycles, key=cycle_key):
            lines.append(f"{name} = {rf.cycles[name]}")
    return "\n".join(lines) + "\n"


def build_ring(rf: RingFile, char_override: int | None = None) -> QuotientRing:
    p = char_override if char_override is not None else rf.characteristic
    gens = [parse_monomial_string(s, rf.variables) for s in rf.ideal]
    return QuotientRing(p, len(rf.variables), gens, names=rf.variables)
