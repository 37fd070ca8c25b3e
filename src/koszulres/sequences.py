"""Integer combinatorics for the resolution: the b/l/d/l'/l'' recurrences
and their cross-checked rows, the rank-3^k tree of block monomials with its
four degrees, the u_{k,s} table, exact integer power series, and the
Poincare series of both ring classes.

All integers are Python ints (the l-sequence grows like a_1^k); series are
truncated with their order carried explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod


class SequenceError(ValueError):
    pass


class CrossCheckError(SequenceError):
    """Two computations of the same numbers disagree: a verification
    failure, not an input error."""


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------


class _Table(dict):
    """One sequence as {k: value}: reading a missing k >= 0 first computes
    every missing entry up to k, in order, by entry(k)."""

    def __init__(self, entry):
        super().__init__()
        self.entry = entry

    def __missing__(self, k):
        if k < 0:
            raise KeyError(k)
        for i in range(k + 1):
            if i not in self:
                self[i] = self.entry(i)
        return self[k]


class SequencePack:
    """The tables b_k, l_k, d_k, l'_k, l''_k of the class-T invariants
    (a1, a2, a3), each a {k: value} dict that grows as it is read.

    b_k = C(k+2, 2) is the codepth-3 word count; the l-family follows
        l_k  = sum_{i<=k} b_{k-i} d_i,   d_0 = 1,  d_k = (a1-3) l_{k-1},
        l'_0 = 0,  l'_k = l_{k-2} + (a2-3) l_{k-1},
        l''_0 = 0, l''_k = a3 l_{k-1},
    and l_{k,r} relabels (l, l', l'') at r = k, k+1, k+2.
    """

    def __init__(self, a1: int, a2: int, a3: int):
        if a1 < 3:
            raise SequenceError(f"class T needs a1 >= 3, got a1 = {a1}")
        self.a1, self.a2, self.a3 = a1, a2, a3
        self.b = _Table(lambda k: comb(k + 2, 2))
        self.d = _Table(lambda k: (a1 - 3) * self.l[k - 1] if k else 1)
        self.l = _Table(lambda k: sum(self.b[k - i] * self.d[i] for i in range(k + 1)))
        self.lp = _Table(lambda k: ((self.l[k - 2] if k >= 2 else 0)
                                    + (a2 - 3) * self.l[k - 1]) if k else 0)
        self.lpp = _Table(lambda k: a3 * self.l[k - 1] if k else 0)

    def l_ks(self, k: int, r: int) -> int:
        """l_{k,r}: l_k, l'_k, l''_k at r = k, k+1, k+2 and 0 otherwise."""
        if k < 0:
            return 0
        if r == k:
            return self.l[k]
        if r == k + 1:
            return self.lp[k]
        if r == k + 2:
            return self.lpp[k]
        return 0


def sequence_rows(order: int, pack: SequencePack) -> dict:
    """The rows b, l, lp, lpp and d for k <= order.  l, lp, lpp and d are
    cross-checked against the coefficients of their rational generating
    functions
        f = 1/((1-t)^3 - (a1-3) t),  g = (t^2 + (a2-3) t) f,
        h = a3 t f,  1 + (a1-3) t f,
    and for k <= 3 against the closed forms of the small cases; a mismatch
    aborts, naming the table and k."""
    rows = {name: [getattr(pack, name)[k] for k in range(order + 1)]
            for name in ("b", "l", "lp", "lpp", "d")}
    a1, a2, a3 = pack.a1, pack.a2, pack.a3
    f = PowerSeries.from_terms(
        {(0, 0): 1, (1, 0): -a1, (2, 0): 3, (3, 0): -1}, order).reciprocal().coefficient
    series = {"l": f,
              "lp": lambda k: f(k - 2) + (a2 - 3) * f(k - 1),
              "lpp": lambda k: a3 * f(k - 1),
              "d": lambda k: (a1 - 3) * f(k - 1) if k else 1}
    checks = [(name, k, coefficient(k), "generating function")
              for name, coefficient in series.items() for k in range(order + 1)]
    checks += [(name, k, want, "closed form")
               for (name, k), want in _sequence_closed_forms(pack).items() if k <= order]
    for name, k, want, source in checks:
        if rows[name][k] != want:
            raise CrossCheckError(
                f"{name} table cross-check failed at k={k}: "
                f"recurrence gives {rows[name][k]}, {source} gives {want}")
    return rows


def _sequence_closed_forms(pack: SequencePack) -> dict:
    a1, a2, a3 = pack.a1, pack.a2, pack.a3
    return {
        ("l", 2): a1 ** 2 - 3,
        ("l", 3): a1 ** 3 - 6 * a1 + 1,
        ("lp", 2): a1 * a2 - 3 * a1 + 1,
        ("lp", 3): a1 ** 2 * a2 - 3 * a1 ** 2 - 3 * a2 + a1 + 9,
        ("lpp", 2): a1 * a3,
        ("lpp", 3): a1 ** 2 * a3 - 3 * a3,
        ("d", 3): (a1 - 3) * (a1 ** 2 - 3),
    }


# ---------------------------------------------------------------------------
# the tree of block monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeMonomial:
    """Product of generators X_{k,s}: the first factor may be diagonal
    (k <= s <= k+2), all later factors are strictly off-diagonal
    (k < s <= k+2).  The empty product is the unit."""

    factors: tuple  # of (k, s) pairs

    def __post_init__(self):
        for pos, (k, s) in enumerate(self.factors):
            lo = k if pos == 0 else k + 1
            if not (k >= 1 and lo <= s <= k + 2):
                raise SequenceError(f"bad factor X[{k},{s}] at position {pos}")

    @property
    def deg1(self) -> int:
        return sum(k for k, _ in self.factors)

    @property
    def deg2(self) -> int:
        return sum(s for _, s in self.factors)

    @property
    def deg4(self) -> int:
        return len(self.factors)

    def deg3(self, pack: SequencePack) -> int:
        """The product of the l_{k,s} of the factors."""
        return prod(pack.l_ks(k, s) for k, s in self.factors)

    def append(self, k: int, s: int) -> "TreeMonomial":
        return TreeMonomial(self.factors + ((k, s),))

    @property
    def head(self):
        """(j, r, tail): the first factor and the remaining monomial; the
        unit has no head."""
        if not self.factors:
            return None
        (j, r), rest = self.factors[0], self.factors[1:]
        return j, r, TreeMonomial(rest)

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(f"X[{k},{s}]" for k, s in self.factors)


UNIT_MONOMIAL = TreeMonomial(())


@lru_cache(maxsize=None)
def tree_layer(k: int) -> tuple:
    """All 3^k tree monomials of first degree k, in the construction order:
    the trunk triple first, then the subtrees hanging off the off-diagonal
    generators X_{j,j+1}, X_{j,j+2} for j = k-1 down to 1, each subtree a
    scaled copy of a lower layer.  The layer structure is independent of the
    sequence tables, which only feed the deg3 multiplicities."""
    if k < 0:
        raise SequenceError("negative tree layer")
    if k == 0:
        return (UNIT_MONOMIAL,)
    out = [TreeMonomial(((k, k),)), TreeMonomial(((k, k + 1),)),
           TreeMonomial(((k, k + 2),))]
    for j in range(k - 1, 0, -1):
        for s in (j + 1, j + 2):
            for m in tree_layer(k - j):
                out.append(m.append(j, s))
    return tuple(out)


def arrow_target(m: TreeMonomial) -> TreeMonomial:
    """The unique arrow out of a monomial drops its head to the diagonal one
    level down: X_{j,r} n -> X_{j-1,j-1} n (with X_{0,0} = 1)."""
    j, _, tail = m.head
    if j == 1:
        return tail
    return TreeMonomial(((j - 1, j - 1),) + tail.factors)


def u_table(k_max: int, pack: SequencePack) -> dict:
    """u_{k,s} for k <= k_max (and so s <= 3k) by tree enumeration,
    cross-checked for every k against the graded Poincare series
    coefficients and for k <= 3 against the closed forms of the small cases;
    a mismatch aborts."""
    table: dict = {(0, 0): 1}
    for k in range(1, k_max + 1):
        for m in tree_layer(k):
            key = (k, m.deg2)
            table[key] = table.get(key, 0) + m.deg3(pack)
    series, _ = poincare_T(pack.a1, pack.a2, pack.a3, n=3, order=k_max)
    for k in range(k_max + 1):
        for s in range(3 * k + 1):
            got = table.get((k, s), 0)
            want = series.coefficient(k, s)
            if got != want:
                raise CrossCheckError(
                    f"u table cross-check failed at (k,s)=({k},{s}): "
                    f"tree gives {got}, series gives {want}")
    for (k, s), want in _u_closed_forms(pack).items():
        if k <= k_max and table.get((k, s), 0) != want:
            raise CrossCheckError(
                f"u table cross-check failed at (k,s)=({k},{s}): "
                f"tree gives {table.get((k, s), 0)}, closed form gives {want}")
    return table


def _u_closed_forms(pack: SequencePack) -> dict:
    l1, l2, l3 = pack.l[1], pack.l[2], pack.l[3]
    p1, p2, p3 = pack.lp[1], pack.lp[2], pack.lp[3]
    q1, q2, q3 = pack.lpp[1], pack.lpp[2], pack.lpp[3]
    return {
        (1, 1): l1, (1, 2): p1, (1, 3): q1,
        (2, 2): l2, (2, 3): p2 + l1 * p1, (2, 4): q2 + p1 ** 2 + l1 * q1,
        (2, 5): 2 * p1 * q1, (2, 6): q1 ** 2,
        (3, 3): l3, (3, 4): p3 + l1 * p2 + l2 * p1,
        (3, 5): q3 + l1 * p1 ** 2 + l1 * q2 + 2 * p1 * p2 + l2 * q1,
        (3, 6): 2 * l1 * p1 * q1 + 2 * p1 * q2 + 2 * q1 * p2 + p1 ** 3,
        (3, 7): 3 * p1 ** 2 * q1 + 2 * q1 * q2 + l1 * q1 ** 2,
        (3, 8): 3 * p1 * q1 ** 2,
        (3, 9): q1 ** 3,
    }


# ---------------------------------------------------------------------------
# exact truncated power series
# ---------------------------------------------------------------------------


class PowerSeries:
    """Integer series sum_k t^k * p_k(z), truncated at t-degree `order`
    (inclusive); each slice p_k is a dict {z-degree: nonzero coefficient}.
    A series in t alone keeps every coefficient at z-degree 0."""

    def __init__(self, slices, order: int):
        self.order = order
        self.slices = [{s: c for s, c in d.items() if c} for d in slices[: order + 1]]
        self.slices += [{} for _ in range(order + 1 - len(self.slices))]

    @classmethod
    def from_terms(cls, terms: dict, order: int) -> "PowerSeries":
        """terms: {(t-degree, z-degree): coefficient}."""
        slices = [{} for _ in range(order + 1)]
        for (k, s), c in terms.items():
            if 0 <= k <= order:
                slices[k][s] = slices[k].get(s, 0) + c
        return cls(slices, order)

    def coefficient(self, k: int, s: int = 0) -> int:
        if k > self.order:
            raise SequenceError(f"t-degree {k} beyond truncation {self.order}")
        return self.slices[k].get(s, 0) if k >= 0 else 0

    def __mul__(self, other):
        order = min(self.order, other.order)
        slices = [{} for _ in range(order + 1)]
        for i in range(order + 1):
            for j in range(order + 1 - i):
                target = slices[i + j]
                for s1, c1 in self.slices[i].items():
                    for s2, c2 in other.slices[j].items():
                        target[s1 + s2] = target.get(s1 + s2, 0) + c1 * c2
        return PowerSeries(slices, order)

    def reciprocal(self) -> "PowerSeries":
        """Inverse of a series with constant term 1; verified by multiplying
        back."""
        if self.slices[0] != {0: 1}:
            raise SequenceError("reciprocal needs constant term 1")
        inv = [{0: 1}]
        for k in range(1, self.order + 1):
            acc: dict = {}
            for i in range(1, k + 1):
                for s1, c1 in self.slices[i].items():
                    for s2, c2 in inv[k - i].items():
                        acc[s1 + s2] = acc.get(s1 + s2, 0) - c1 * c2
            inv.append({s: c for s, c in acc.items() if c})
        out = PowerSeries(inv, self.order)
        check = self * out
        if check.slices[0] != {0: 1} or any(check.slices[1:]):
            raise CrossCheckError("series reciprocal failed its product check")
        return out

    def diagonal(self) -> "PowerSeries":
        """Substitute z = t; the result has the same truncation order, since
        the coefficient of t^m only collects slices k <= m."""
        coeffs = [0] * (self.order + 1)
        for k in range(self.order + 1):
            for s, c in self.slices[k].items():
                if k + s <= self.order:
                    coeffs[k + s] += c
        return PowerSeries([{0: c} for c in coeffs], self.order)


def geometric_binomial(n: int, order: int) -> PowerSeries:
    """(1+t)^n truncated."""
    return PowerSeries.from_terms({(k, 0): comb(n, k) for k in range(n + 1)}, order)


# ---------------------------------------------------------------------------
# Poincare series
# ---------------------------------------------------------------------------


def poincare_T(a1: int, a2: int, a3: int, n: int, order: int = 12):
    """Graded and single-variable Poincare series for class T.

    P^A(t,z) is the reciprocal of
        1 - a1 t z - (a2-3) t z^2 + 3 t^2 z^2 - a3 t z^3 - t^2 z^3 - t^3 z^3
    and P^R(t) = (1+t)^n P^A(t,t), whose denominator collapses to
        1 - a1 t^2 - (a2-3) t^3 - (a3-3) t^4 - t^5 - t^6.
    """
    if order < 0:
        raise SequenceError("order must be >= 0")
    denom2 = PowerSeries.from_terms({
        (0, 0): 1,
        (1, 1): -a1,
        (1, 2): -(a2 - 3),
        (2, 2): 3,
        (1, 3): -a3,
        (2, 3): -1,
        (3, 3): -1,
    }, order)
    PA = denom2.reciprocal()
    PR = geometric_binomial(n, order) * PA.diagonal()
    return PA, PR


def poincare_CI(c: int, n: int, order: int = 12):
    """P^A(t,z) = 1/(1-tz)^c and P^R(t) = (1+t)^n P^A(t,t) = (1+t)^n/(1-t^2)^c."""
    if c < 1:
        raise SequenceError("codepth must be >= 1")
    if order < 0:
        raise SequenceError("order must be >= 0")
    PA = PowerSeries.from_terms(  # the reciprocal of (1-tz)^c
        {(k, k): (-1) ** k * comb(c, k) for k in range(c + 1)}, order).reciprocal()
    return PA, geometric_binomial(n, order) * PA.diagonal()
