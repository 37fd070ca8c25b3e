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

`wedge_table` is the sign rule behind every Koszul matrix: it lists the
nonzero products e_U ^ e_T of basis elements, and both the differentials
(d_i multiplies by x_v where e_v ^ e_T = s e_S) and the wedge actions of
cycle matrices are joins of matrix terms against it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exactfield import (
    Polynomial,
    QuotientRing,
    RingMatrix,
    join_sorted,
    monomial_to_string,
    parse_monomial_string,
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


def wedge_sign(U: tuple, T: tuple):
    """(sign, merged subset) for e_U ^ e_T, or (0, None) on overlap."""
    if set(U) & set(T):
        return 0, None
    inversions = sum(1 for u in U for t in T if u > t)
    merged = tuple(sorted(U + T))
    return (-1) ** inversions, merged


@lru_cache(maxsize=None)
def wedge_table(n: int, j: int, i: int) -> np.ndarray:
    """The nonzero products of basis elements K_j x K_i -> K_{i+j}: one
    read-only int64 row (u, t, m, s) per e_U ^ e_T = s e_S, where U, T and S
    are the u-th, t-th and m-th subsets of sizes j, i and i + j.  Rows are
    sorted by (u, t); built on first use."""
    dst, rows = subset_index(n, i + j), []
    for u, U in enumerate(subsets(n, j)):
        for t, T in enumerate(subsets(n, i)):
            s, S = wedge_sign(U, T)
            if s:
                rows.append((u, t, dst[S], s))
    table = np.array(rows, dtype=np.int64).reshape(-1, 4)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# elements of K
# ---------------------------------------------------------------------------


class KoszulElement:
    """Homogeneous element of K_i: dict {subset: Polynomial in normal form}."""

    __slots__ = ("ring", "degree", "coeffs")

    def __init__(self, ring: QuotientRing, degree: int, coeffs: dict | None = None):
        if degree < 0 or degree > ring.nvars:
            raise KoszulError(f"degree {degree} outside [0, {ring.nvars}]")
        self.ring = ring
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for S, f in coeffs.items():
                if len(S) != degree:
                    raise KoszulError(f"subset {S} has wrong size for degree {degree}")
                g = ring.normal_form(f)
                if not g.is_zero():
                    self.coeffs[tuple(S)] = g

    @classmethod
    def basis(cls, ring, S: tuple) -> "KoszulElement":
        """e_S with unit coefficient."""
        return cls(ring, len(S), {tuple(S): ring.one()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "KoszulElement") -> "KoszulElement":
        assert self.ring == other.ring and self.degree == other.degree
        c = dict(self.coeffs)
        for S, f in other.coeffs.items():
            c[S] = c[S] + f if S in c else f
        return KoszulElement(self.ring, self.degree, c)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int) -> "KoszulElement":
        return KoszulElement(
            self.ring, self.degree,
            {S: f.scale(c) for S, f in self.coeffs.items()},
        )

    def wedge(self, other: "KoszulElement") -> "KoszulElement":
        """Exterior product; overflow past K_n is the zero element."""
        assert self.ring == other.ring
        deg = self.degree + other.degree
        if deg > self.ring.nvars:
            return KoszulElement(self.ring, self.ring.nvars)
        c: dict = {}
        for U, f in self.coeffs.items():
            for T, g in other.coeffs.items():
                sign, merged = wedge_sign(U, T)
                if sign == 0:
                    continue
                term = (f * g).scale(sign)
                c[merged] = c[merged] + term if merged in c else term
        return KoszulElement(self.ring, deg, c)

    def differential(self) -> "KoszulElement":
        if self.degree == 0:
            return KoszulElement(self.ring, 0)
        ring = self.ring
        c: dict = {}
        for S, f in self.coeffs.items():
            for j, v in enumerate(S):
                rest = S[:j] + S[j + 1:]
                term = (f * ring.variable(v - 1)).scale((-1) ** j)
                c[rest] = c[rest] + term if rest in c else term
        return KoszulElement(ring, self.degree - 1, c)

    def is_cycle(self) -> bool:
        return self.differential().is_zero()

    def to_vector(self):
        """F_p coordinate vector, subset-major then standard-monomial."""
        n, D = self.ring.nvars, self.ring.dim
        basis = subsets(n, self.degree)
        idx = subset_index(n, self.degree)
        v = np.zeros(len(basis) * D, dtype=np.int64)
        for S, f in self.coeffs.items():
            v[idx[S] * D:(idx[S] + 1) * D] = self.ring.vector_from_element(f)
        return v

    @classmethod
    def from_vector(cls, ring, degree, vec) -> "KoszulElement":
        D = ring.dim
        c = {}
        for k, S in enumerate(subsets(ring.nvars, degree)):
            f = ring.element_from_vector(vec[k * D:(k + 1) * D])
            if not f.is_zero():
                c[S] = f
        return cls(ring, degree, c)

    def __eq__(self, other):
        return (
            isinstance(other, KoszulElement)
            and self.ring == other.ring
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for S in subsets(self.ring.nvars, self.degree):
            f = self.coeffs.get(S)
            if f is None:
                continue
            e = "e[" + ",".join(str(v) for v in S) + "]"
            for m, c in f.sorted_terms():
                factors = [str(c)] if c != 1 else []
                if any(m):
                    factors.append(monomial_to_string(m, self.ring.names))
                parts.append("*".join(factors + [e]))
        return " + ".join(parts)

    def __repr__(self):
        return f"KoszulElement({self.to_string()})"


_CYCLE_TERM = re.compile(r"^(?P<body>.*?)\s*\*?\s*e\[(?P<idx>[0-9,\s]*)\]$")


def parse_koszul_element(s: str, ring: QuotientRing) -> KoszulElement:
    """Parse formal sums like 'x*e[1] + 2*y*z*e[1,2] - e[3]'."""
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
    total: KoszulElement | None = None
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
            total = KoszulElement(ring, degree)
        elif len(idx) != degree:
            raise KoszulError(f"mixed degrees in Koszul element {s!r}")
        body = m.group("body").strip().rstrip("*").strip()
        coef = _parse_coefficient(body, ring).scale(sgn)
        total = total + KoszulElement(ring, degree, {idx: coef})
    return total


def _parse_coefficient(body: str, ring: QuotientRing) -> Polynomial:
    """An integer times a monomial, e.g. '2*x*y^2'; the monomial part follows
    the ring-file monomial grammar."""
    c, variables = 1, []
    for factor in body.split("*"):
        factor = factor.strip()
        if factor.isdigit():
            c *= int(factor)
        elif factor:
            variables.append(factor)
    m = parse_monomial_string("*".join(variables), ring.names)
    return Polynomial.monomial(m, ring.nvars, ring.p, c)


# ---------------------------------------------------------------------------
# differentials as matrices
# ---------------------------------------------------------------------------


def koszul_differential(i: int, ring: QuotientRing) -> RingMatrix:
    """Matrix of d_i : K_i -> K_{i-1} in the lexicographic subset bases:
    entry (T, S) is s x_v wherever e_v ^ e_T = s e_S."""
    n = ring.nvars
    if i < 0 or i > n:
        raise KoszulError(f"differential degree {i} outside [0, {n}]")
    v, t, m, s = wedge_table(n, 1, i - 1).T
    # std index of each variable: QuotientRing refuses an ideal containing one
    x = np.array([ring.basis_index[(0,) * w + (1,) + (0,) * (n - w - 1)]
                  for w in range(n)])
    return RingMatrix.from_terms(ring, len(subsets(n, i - 1)), len(subsets(n, i)),
                                 np.column_stack([t, m, x[v], s]))


# ---------------------------------------------------------------------------
# matrices of cycles and their wedge action
# ---------------------------------------------------------------------------


class CycleMatrix:
    """u x v matrix whose entries are degree-j cycles of K.

    Acting on column vectors by entrywise wedge multiplication it induces
    chain maps Sigma^j K^v -> K^u; entries are validated as cycles at
    construction because every downstream identity assumes it.
    """

    __slots__ = ("ring", "rows", "cols", "entry_degree", "entries")

    def __init__(self, ring: QuotientRing, rows: int, cols: int, entry_degree: int,
                 entries: dict | None = None):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entry_degree = entry_degree
        self.entries = {}
        checked = set()  # ids of entries known to be cycles: beta repeats a few
        if entries:
            for (r, c), z in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise KoszulError(f"entry ({r},{c}) outside {rows}x{cols}")
                if z.degree != entry_degree:
                    raise KoszulError(
                        f"entry ({r},{c}) has degree {z.degree}, expected {entry_degree}")
                if z.is_zero():
                    continue
                if id(z) not in checked and not z.is_cycle():
                    raise KoszulError(f"entry ({r},{c}) is not a cycle")
                checked.add(id(z))
                self.entries[(r, c)] = z

    def entry(self, r, c) -> KoszulElement:
        return self.entries.get((r, c), KoszulElement(self.ring, self.entry_degree))

    def __matmul__(self, other: "CycleMatrix") -> "CycleMatrix":
        """Wedge-compose: entries of the product are sums of wedges."""
        assert self.cols == other.rows
        deg = self.entry_degree + other.entry_degree
        by_row: dict = {}
        for (t, c), z in other.entries.items():
            by_row.setdefault(t, []).append((c, z))
        acc: dict = {}
        for (r, t), z in self.entries.items():
            for c, w in by_row.get(t, ()):
                prod = z.wedge(w)
                key = (r, c)
                acc[key] = acc[key] + prod if key in acc else prod
        acc = {k: z for k, z in acc.items() if not z.is_zero()}
        return CycleMatrix(self.ring, self.rows, other.cols, deg, acc)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, CycleMatrix)
            and (self.rows, self.cols, self.entry_degree)
            == (other.rows, other.cols, other.entry_degree)
            and self.entries == other.entries
        )

    def __repr__(self):
        return (f"CycleMatrix({self.rows}x{self.cols}, "
                f"entry degree {self.entry_degree}, {len(self.entries)} nonzero)")


def cycle_matrix_action(theta: CycleMatrix, i: int) -> RingMatrix:
    """RingMatrix of (y_k) |-> (sum_k theta(s,k) ^ y_k) : K_{i-j}^v -> K_i^u.

    Row blocks are copy-major: copy s of K_i occupies rows
    [s*C(n,i), (s+1)*C(n,i)).  The term a std_b e_U of entry (r, c) of theta
    meets every row (u, t, m, s) of the wedge table with U the u-th subset,
    giving s a std_b at (r*C(n,i) + m, c*C(n,i-j) + t).
    """
    ring, j = theta.ring, theta.entry_degree
    if i < j:
        raise KoszulError(f"target degree {i} below entry degree {j}")
    n = ring.nvars
    nr, nc = len(subsets(n, i)), len(subsets(n, i - j))
    uidx = subset_index(n, j)
    terms = np.array([(r, c, uidx[U], ring.basis_index[mono], a)
                      for (r, c), z in theta.entries.items()
                      for U, f in z.coeffs.items() for mono, a in f.terms.items()],
                     dtype=np.int64).reshape(-1, 5)
    table = wedge_table(n, j, i - j)
    x, y = join_sorted(terms[:, 2], table[:, 0])
    r, c, _, b, a = terms[x].T
    _, t, m, s = table[y].T
    return RingMatrix.from_terms(ring, theta.rows * nr, theta.cols * nc,
                                 np.column_stack([r * nr + m, c * nc + t, b, a * s]))


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
            bad = sorted(diff.entries)[0]
            return ChainMapReport(False, checked, (i, bad[0], bad[1]))
    return ChainMapReport(True, checked)

