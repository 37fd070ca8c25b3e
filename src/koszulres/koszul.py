"""The Koszul complex K on the variables of an Artinian monomial quotient
ring: subset-indexed bases, the exterior (wedge) product, differentials, and
matrices of cycles acting by wedge multiplication.

Conventions fixed once and used everywhere:

* the basis of K_i is {e_S : S subset of {1..n}, |S| = i} with the subsets in
  lexicographic order, so K_i has rank C(n, i);
* d(e_S) = sum_j (-1)^(j+1) x_{s_j} e_{S \\ {s_j}} over the positions j of S;
* e_U ^ e_T = sign(U, T) e_{U u T} where the sign counts the transpositions
  moving U past T (zero when U and T meet).

With these choices d(a ^ b) = da ^ b + (-1)^{deg a} a ^ db, and a matrix
theta of degree-j cycles satisfies d_i o theta = (-1)^j theta o d_{i-j}.

An element of K_i is its coordinate column, a C(n, i) x 1 RingMatrix, so
every product of ring elements goes through `QuotientRing.product`.
`wedge_table` is the sign rule behind every Koszul matrix: it lists the
nonzero products e_U ^ e_T of basis elements, and the differentials (d_i
multiplies by x_v where e_v ^ e_T = s e_S), the wedge product of elements
and the wedge actions of cycle matrices are joins of terms against it.

A matrix of cycles (`CycleMatrix`) is a tuple of cycles plus one sorted
int64 array of (row, column, cycle index) rows, one per nonzero entry.  Its
wedge action joins the cycle indices against the stacked coordinate columns
of the cycles, with no loop over entries.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .exactfield import (
    QuotientRing,
    RingMatrix,
    join_sorted,
    parse_monomial_string,
    term_string,
)


class KoszulError(ValueError):
    pass


# ---------------------------------------------------------------------------
# subset bases
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def subsets(n: int, i: int) -> tuple:
    """Basis index tuples of K_i, lexicographically ordered."""
    if i < 0 or i > n:
        return ()
    return tuple(itertools.combinations(range(1, n + 1), i))


@lru_cache(maxsize=None)
def subset_index(n: int, i: int) -> dict:
    return {S: k for k, S in enumerate(subsets(n, i))}


@lru_cache(maxsize=None)
def wedge_table(n: int, j: int, i: int) -> np.ndarray:
    """The nonzero products of basis elements K_j x K_i -> K_{i+j}: one
    read-only int64 row (u, t, m, s) per e_U ^ e_T = s e_S, where U, T and S
    are the u-th, t-th and m-th subsets of sizes j, i and i + j, and s is -1
    to the number of pairs in U x T out of order (e_U ^ e_T = 0 when U and T
    meet).  Rows are sorted by (u, t); built on first use."""
    dst, rows = subset_index(n, i + j), []
    for u, U in enumerate(subsets(n, j)):
        for t, T in enumerate(subsets(n, i)):
            if not set(U) & set(T):
                inversions = sum(a > b for a in U for b in T)
                rows.append((u, t, dst[tuple(sorted(U + T))], (-1) ** inversions))
    table = np.array(rows, dtype=np.int64).reshape(-1, 4)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# elements of K
# ---------------------------------------------------------------------------


class KoszulElement:
    """Homogeneous element of K_i, stored as its coordinate column `col`: a
    C(n, i) x 1 RingMatrix whose term (t, 0, b, c) is c std_b e_T, with T
    the t-th subset.  Instances are immutable."""

    __slots__ = ("ring", "degree", "col", "_is_cycle")

    def __init__(self, ring: QuotientRing, degree: int, col: RingMatrix | None = None):
        if degree < 0 or degree > ring.nvars:
            raise KoszulError(f"degree {degree} outside [0, {ring.nvars}]")
        rows = len(subsets(ring.nvars, degree))
        if col is None:
            col = RingMatrix.zero(ring, rows, 1)
        elif (col.rows, col.cols) != (rows, 1):
            raise KoszulError(f"a degree-{degree} element is a {rows} x 1 column")
        self.ring = ring
        self.degree = degree
        self.col = col
        self._is_cycle = None

    @classmethod
    def basis(cls, ring, S: tuple) -> "KoszulElement":
        """e_S with unit coefficient."""
        n, i = ring.nvars, len(S)
        return cls(ring, i, RingMatrix.from_terms(
            ring, len(subsets(n, i)), 1, [(subset_index(n, i)[tuple(S)], 0, 0, 1)]))

    def is_zero(self) -> bool:
        return self.col.is_zero()

    def __add__(self, other: "KoszulElement") -> "KoszulElement":
        assert self.ring == other.ring and self.degree == other.degree
        return KoszulElement(self.ring, self.degree, self.col + other.col)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int) -> "KoszulElement":
        return KoszulElement(self.ring, self.degree, self.col.scale(c))

    def wedge(self, other: "KoszulElement") -> "KoszulElement":
        """Exterior product; overflow past K_n is the zero element."""
        assert self.ring == other.ring
        ring, deg = self.ring, self.degree + other.degree
        if deg > ring.nvars:
            return KoszulElement(ring, ring.nvars)
        act = _wedge_action(ring, self.col.terms, 1, 1, self.degree, other.degree)
        return KoszulElement(ring, deg, act @ other.col)

    def differential(self) -> "KoszulElement":
        if self.degree == 0:
            return KoszulElement(self.ring, 0)
        return KoszulElement(self.ring, self.degree - 1,
                             koszul_differential(self.degree, self.ring) @ self.col)

    def is_cycle(self) -> bool:
        """Whether the differential vanishes; computed once per element."""
        if self._is_cycle is None:
            self._is_cycle = self.differential().is_zero()
        return self._is_cycle

    def to_vector(self):
        """F_p coordinate vector, subset-major then standard-monomial: the
        term (t, 0, b, c) is coordinate t * dim + b."""
        D, t = self.ring.dim, self.col.terms
        v = np.zeros(self.col.rows * D, dtype=np.int64)
        v[t[:, 0] * D + t[:, 2]] = t[:, 3]
        return v

    @classmethod
    def from_vector(cls, ring, degree, vec) -> "KoszulElement":
        D = ring.dim
        vec = np.asarray(vec, dtype=np.int64)
        k = np.flatnonzero(vec % ring.p)
        return cls(ring, degree, RingMatrix.from_terms(
            ring, len(subsets(ring.nvars, degree)), 1,
            np.column_stack([k // D, np.zeros_like(k), k % D, vec[k]])))

    def __eq__(self, other):
        return (
            isinstance(other, KoszulElement)
            and self.ring == other.ring
            and self.degree == other.degree
            and self.col == other.col
        )

    def to_string(self) -> str:
        basis, parts = subsets(self.ring.nvars, self.degree), []
        for t, _, b, c in self.col.terms.tolist():
            e = "e[" + ",".join(str(v) for v in basis[t]) + "]"
            coef = term_string(self.ring, b, c)
            parts.append(e if coef == "1" else f"{coef}*{e}")
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"KoszulElement({self.to_string()})"


_CYCLE_TERM = re.compile(r"^(?P<body>.*?)\s*\*?\s*e\[(?P<idx>[0-9,\s]*)\]$")


def parse_koszul_element(s: str, ring: QuotientRing) -> KoszulElement:
    """Parse formal sums like 'x*e[1] + 2*y*z*e[1,2] - e[3]'.  A monomial
    outside the standard basis lies in I, so its term is zero."""
    s = s.strip()
    chunks = []
    sign = 1
    buf = ""
    for ch in s:
        if ch in "+-" and buf.strip():
            chunks.append((sign, buf.strip()))
            sign = 1 if ch == "+" else -1
            buf = ""
        elif ch in "+-":
            sign = sign * (1 if ch == "+" else -1)
        else:
            buf += ch
    if buf.strip():
        chunks.append((sign, buf.strip()))
    if not chunks:
        raise KoszulError(f"empty Koszul element {s!r}")
    degree = None
    terms = []
    for sgn, term in chunks:
        m = _CYCLE_TERM.match(term)
        if not m:
            raise KoszulError(f"cannot parse Koszul term {term!r}")
        idx = tuple(int(t) for t in m.group("idx").split(",") if t.strip())
        if sorted(set(idx)) != list(idx):
            raise KoszulError(f"basis index must be strictly increasing in {term!r}")
        if any(v < 1 or v > ring.nvars for v in idx):
            raise KoszulError(f"basis index out of range in {term!r}")
        if degree is None:
            degree = len(idx)
        elif len(idx) != degree:
            raise KoszulError(f"mixed degrees in Koszul element {s!r}")
        c, mono = _parse_coefficient(m.group("body").strip().rstrip("*").strip(), ring)
        b = ring.basis_index.get(mono)
        if b is not None:
            terms.append((subset_index(ring.nvars, degree)[idx], 0, b, sgn * c % ring.p))
    return KoszulElement(ring, degree, RingMatrix.from_terms(
        ring, len(subsets(ring.nvars, degree)), 1, terms))


def _parse_coefficient(body: str, ring: QuotientRing) -> tuple:
    """(integer, exponent tuple) of a coefficient like '2*x*y^2'; the
    monomial part follows the ring-file monomial grammar."""
    c, variables = 1, []
    for factor in body.split("*"):
        factor = factor.strip()
        if factor.isdigit():
            c *= int(factor)
        elif factor:
            variables.append(factor)
    return c, parse_monomial_string("*".join(variables), ring.names)


# ---------------------------------------------------------------------------
# differentials as matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)  # bounded: each entry keeps its ring and product table alive
def koszul_differential(i: int, ring: QuotientRing) -> RingMatrix:
    """Matrix of d_i : K_i -> K_{i-1} in the lexicographic subset bases:
    entry (T, S) is s x_v wherever e_v ^ e_T = s e_S.  Built once per
    (i, ring) and shared, so its terms are read-only."""
    n = ring.nvars
    if i < 0 or i > n:
        raise KoszulError(f"differential degree {i} outside [0, {n}]")
    v, t, m, s = wedge_table(n, 1, i - 1).T
    # std index of each variable: QuotientRing refuses an ideal containing one
    x = np.array([ring.basis_index[(0,) * w + (1,) + (0,) * (n - w - 1)]
                  for w in range(n)])
    d = RingMatrix.from_terms(ring, len(subsets(n, i - 1)), len(subsets(n, i)),
                              np.column_stack([t, m, x[v], s]))
    d.terms.flags.writeable = False
    return d


def _wedge_action(ring, terms, rows: int, cols: int, j: int, i: int) -> RingMatrix:
    """Left wedge multiplication K_i^cols -> K_{i+j}^rows by a rows x cols
    matrix of elements of K_j, given as one term array in which the
    coordinate column of entry (r, c) fills rows [r*C(n,j), (r+1)*C(n,j))
    of column c: the term row (r*C(n,j) + u, c, b, a) is a std_b e_U in
    entry (r, c), with U the u-th subset.  It meets every row (u, t, m, s)
    of the wedge table, giving s a std_b at (r*C(n,i+j) + m, c*C(n,i) + t);
    row blocks are copy-major."""
    n = ring.nvars
    nu, nr, nc = comb(n, j), comb(n, i + j), comb(n, i)
    r, u = np.divmod(terms[:, 0], nu)
    table = wedge_table(n, j, i)
    x, y = join_sorted(u, table[:, 0])
    _, c, b, a = terms[x].T
    _, t, m, s = table[y].T
    return RingMatrix.from_terms(ring, rows * nr, cols * nc,
                                 np.column_stack([r[x] * nr + m, c * nc + t, b, a * s]))


# ---------------------------------------------------------------------------
# matrices of cycles and their wedge action
# ---------------------------------------------------------------------------


class CycleMatrix:
    """rows x cols matrix whose entries are degree-j cycles of K, stored as
    the tuple `cycles` and one sorted int64 array `where` with a row
    (r, c, k) per nonzero entry: entry (r, c) is cycles[k].  A block matrix
    repeats a few cycles many times, so it is placed by shifting index rows,
    never by copying entries.

    Acting on column vectors by entrywise wedge multiplication it induces
    chain maps Sigma^j K^cols -> K^rows; each cycle is validated once at
    construction because every downstream identity assumes it.  Entries
    whose cycle is zero are dropped.
    """

    __slots__ = ("ring", "rows", "cols", "entry_degree", "cycles", "where")

    def __init__(self, ring: QuotientRing, rows: int, cols: int, entry_degree: int,
                 cycles, where):
        for k, z in enumerate(cycles):
            if z.degree != entry_degree:
                raise KoszulError(
                    f"cycle {k} has degree {z.degree}, expected {entry_degree}")
            if not z.is_cycle():
                raise KoszulError(f"cycle {k} is not a cycle")
        where = np.array(where, dtype=np.int64).reshape(-1, 3)
        r, c, k = where.T
        outside = (r < 0) | (r >= rows) | (c < 0) | (c >= cols) | (k < 0) | (k >= len(cycles))
        if outside.any():
            r, c, k = where[outside.argmax()].tolist()
            raise KoszulError(f"entry ({r},{c}) -> cycle {k} outside {rows}x{cols} "
                              f"and {len(cycles)} cycles")
        key = r * cols + c
        where = where[key.argsort()]
        key.sort()
        twice = (key[1:] == key[:-1]).nonzero()[0]
        if len(twice):
            r, c, _ = where[twice[0]].tolist()
            raise KoszulError(f"entry ({r},{c}) is given twice")
        nonzero = np.array([not z.is_zero() for z in cycles], dtype=bool)
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entry_degree = entry_degree
        self.cycles = tuple(cycles)
        self.where = where[nonzero[where[:, 2]]]

    def __repr__(self):
        return (f"CycleMatrix({self.rows}x{self.cols}, "
                f"entry degree {self.entry_degree}, {len(self.where)} nonzero)")


def cycle_matrix_action(theta: CycleMatrix, i: int) -> RingMatrix:
    """RingMatrix of (y_k) |-> (sum_k theta(s,k) ^ y_k) : K_{i-j}^v -> K_i^u.

    Row blocks are copy-major: copy s of K_i occupies rows
    [s*C(n,i), (s+1)*C(n,i)).  The cycles' coordinate columns are stacked
    once; joining the index rows (r, c, k) against them puts the column of
    cycles[k] at rows r*C(n,j).. of column c, the one term array that
    _wedge_action reads.
    """
    ring, j = theta.ring, theta.entry_degree
    if i < j:
        raise KoszulError(f"target degree {i} below entry degree {j}")
    stacked = np.concatenate([z.col.terms for z in theta.cycles]
                             + [np.zeros((0, 4), dtype=np.int64)])
    owner = np.arange(len(theta.cycles)).repeat(
        np.array([len(z.col.terms) for z in theta.cycles], dtype=np.int64))
    x, y = join_sorted(theta.where[:, 2], owner)
    terms = stacked[y]
    terms[:, 0] += theta.where[x, 0] * comb(ring.nvars, j)
    terms[:, 1] = theta.where[x, 1]
    return _wedge_action(ring, terms, theta.rows, theta.cols, j, i - j)


@dataclass
class ChainMapReport:
    passed: bool
    degrees: list
    failure: tuple | None = None  # (degree, row, col) of first bad coordinate

    def __bool__(self):
        return self.passed


def verify_chain_map(theta: CycleMatrix, degrees) -> ChainMapReport:
    """Check d_i o theta = (-1)^j theta o d_{i-j} as RingMatrix identities,
    with the Koszul differentials repeated block-diagonally over the copies."""
    ring, j = theta.ring, theta.entry_degree
    checked = []
    for i in degrees:
        if i < j or i > ring.nvars:
            continue
        d_i = RingMatrix.repeat_diag(koszul_differential(i, ring), theta.rows)
        lhs = d_i @ cycle_matrix_action(theta, i)
        if i - 1 >= j and 0 < i - j:
            d_src = RingMatrix.repeat_diag(koszul_differential(i - j, ring),
                                           theta.cols)
            rhs_inner = cycle_matrix_action(theta, i - 1) @ d_src
        else:
            rhs_inner = RingMatrix.zero(
                ring, theta.rows * len(subsets(ring.nvars, i - 1)),
                theta.cols * len(subsets(ring.nvars, i - j)))
        diff = lhs + rhs_inner.scale((-1) ** (j + 1))
        checked.append(i)
        if not diff.is_zero():
            r, c = diff.terms[0, :2].tolist()  # terms are sorted by (row, column)
            return ChainMapReport(False, checked, (i, r, c))
    return ChainMapReport(True, checked)

