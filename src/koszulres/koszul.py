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
every product of ring elements goes through `QuotientRing.product`, which
finds std_a * std_b by adding the exponent codes of the two monomials; a
product that lands in I is dropped there.
`wedge_table` is the sign rule behind every Koszul matrix: it lists the
nonzero products e_U ^ e_T of basis elements, and the differentials (d_i
multiplies by x_v where e_v ^ e_T = s e_S), the wedge product of elements
and the wedge actions of cycle matrices are joins of terms against it.

A matrix of cycles (`CycleMatrix`) is a tuple of cycles plus one sorted
int64 array of (row, column, cycle index) rows, one per nonzero entry.  Its
wedge action is one `block_terms` call: each index row places the wedge
action of its cycle, which the cycle builds once per source degree and
keeps, with no loop over entries.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from math import comb

import numpy as np

from .exactfield import (
    QuotientRing,
    RingMatrix,
    block_terms,
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

    __slots__ = ("ring", "degree", "col", "_is_cycle", "_actions")

    def __init__(self, ring: QuotientRing, degree: int, col: RingMatrix | None = None):
        if degree < 0 or degree > ring.nvars:
            raise KoszulError(f"degree {degree} outside [0, {ring.nvars}]")
        rows = len(subsets(ring.nvars, degree))
        if col is None:
            col = RingMatrix.from_terms(ring, rows, 1, ())
        elif (col.rows, col.cols) != (rows, 1):
            raise KoszulError(f"a degree-{degree} element is a {rows} x 1 column")
        self.ring = ring
        self.degree = degree
        self.col = col
        self._is_cycle = None
        self._actions = {}

    @classmethod
    def basis(cls, ring, S: tuple) -> "KoszulElement":
        """e_S with unit coefficient."""
        n, i = ring.nvars, len(S)
        return cls(ring, i, RingMatrix.from_terms(
            ring, len(subsets(n, i)), 1, [(subset_index(n, i)[tuple(S)], 0, 0, 1)]))

    def is_zero(self) -> bool:
        return self.col.is_zero()

    def wedge(self, other: "KoszulElement") -> "KoszulElement":
        """Exterior product; overflow past K_n is the zero element."""
        if self.ring != other.ring:
            raise KoszulError("incompatible KoszulElement product")
        ring, deg = self.ring, self.degree + other.degree
        if deg > ring.nvars:
            return KoszulElement(ring, ring.nvars)
        return KoszulElement(ring, deg, self.wedge_action(other.degree) @ other.col)

    def wedge_action(self, i: int) -> RingMatrix:
        """The matrix of w |-> self ^ w from K_i to K_{i + degree}: each term
        a std_b e_U of self meets every wedge-table row (u, t, m, s), giving
        s a std_b at (m, t).  Built once per i and kept, so one left factor
        serves all its right factors."""
        act = self._actions.get(i)
        if act is None:
            n, j = self.ring.nvars, self.degree
            table = wedge_table(n, j, i)
            x, y = join_sorted(self.col.terms[:, 0], table[:, 0])
            _, _, b, a = self.col.terms[x].T
            _, t, m, s = table[y].T
            act = self._actions[i] = RingMatrix.from_terms(
                self.ring, comb(n, i + j), comb(n, i), np.column_stack([m, t, b, a * s]))
        return act

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

    def to_string(self) -> str:
        basis, parts = subsets(self.ring.nvars, self.degree), []
        for t, _, b, c in self.col.terms.tolist():
            e = "e[" + ",".join(str(v) for v in basis[t]) + "]"
            coef = term_string(self.ring, b, c)
            parts.append(e if coef == "1" else f"{coef}*{e}")
        return " + ".join(parts) or "0"


_CYCLE_TERM = re.compile(r"^(?P<body>.*?)\s*\*?\s*e\[(?P<idx>[0-9,\s]*)\]$")


def parse_koszul_element(s: str, ring: QuotientRing) -> KoszulElement:
    """Parse formal sums like 'x*e[1] + 2*y*z*e[1,2] - e[3]'.  A monomial
    outside the standard basis lies in I, so its term is zero."""
    s = s.strip()
    parts = re.split(r"([+-])", s)
    chunks, sign = [], 1
    for part in parts:
        if part in ("+", "-"):
            sign *= -1 if part == "-" else 1  # a run of signs multiplies
        elif part.strip():
            chunks.append((sign, part.strip()))
            sign = 1
    if not chunks:
        raise KoszulError(f"empty Koszul element {s!r}")
    if not parts[-1]:
        raise KoszulError(f"Koszul element {s!r} ends in a sign")
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
    """(integer, exponent tuple) of a coefficient like '2*x*y^2': an integer
    is ASCII digits, and every other factor follows the ring-file monomial
    grammar."""
    c, variables = 1, []
    for factor in body.split("*"):
        factor = factor.strip()
        if factor.isascii() and factor.isdigit():
            c *= int(factor)
        elif factor:
            variables.append(factor)
    return c, parse_monomial_string("*".join(variables), ring.names)


# ---------------------------------------------------------------------------
# differentials as matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)  # bounded: each entry keeps its ring alive
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
    whose cycle is zero are dropped.  With no __eq__, it hashes by identity,
    and that keys the action cache of builder._assemble_diffs.
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
        self.where.flags.writeable = False  # shared: alpha memoizes its matrices


def cycle_matrix_action(theta: CycleMatrix, i: int) -> RingMatrix:
    """RingMatrix of (y_k) |-> (sum_k theta(s,k) ^ y_k) : K_{i-j}^v -> K_i^u.

    Row blocks are copy-major: copy s of K_i occupies rows
    [s*C(n,i), (s+1)*C(n,i)).  Each index row (r, c, k) places the wedge
    action of cycles[k] with its corner at (r*C(n,i), c*C(n,i-j)); each
    cycle builds its action once and keeps it, so the cycle matrices that
    share cycles share their actions.
    """
    n, j, where = theta.ring.nvars, theta.entry_degree, theta.where
    if i < j:
        raise KoszulError(f"target degree {i} below entry degree {j}")
    return RingMatrix.from_terms(
        theta.ring, theta.rows * comb(n, i), theta.cols * comb(n, i - j),
        block_terms([z.wedge_action(i - j) for z in theta.cycles], where[:, 2],
                    where[:, 0] * comb(n, i), where[:, 1] * comb(n, i - j), 1, 1))
