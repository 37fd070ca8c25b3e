"""Integer combinatorics for the resolution: the b/l/d/l'/l'' recurrences,
the rank-3^k tree of block monomials with its four degrees, the u_{k,s}
table, exact integer power series, and the Poincare series of both ring
classes.

All integers are Python ints (the l-sequence grows like a_1^k); series are
truncated with their order carried explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb


class SequenceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------


class SequencePack:
    """Memoized tables b_k, l_k, d_k, l'_k, l''_k, k <= k_max, for the class-T
    invariants (a1, a2, a3).

    b_k = C(k+2, 2) is the codepth-3 word count; the l-family follows
        l_k  = sum_{i<=k} b_{k-i} d_i,   d_0 = 1,  d_k = (a1-3) l_{k-1},
        l'_0 = 0,  l'_k = l_{k-2} + (a2-3) l_{k-1},
        l''_0 = 0, l''_k = a3 l_{k-1},
    and l_{k,r} relabels (l, l', l'') at r = k, k+1, k+2.
    """

    def __init__(self, a1: int, a2: int, a3: int, k_max: int = 12):
        if a1 < 3:
            raise SequenceError(f"class T needs a1 >= 3, got a1 = {a1}")
        self.k_max = k_max
        self.b = [comb(k + 2, 2) for k in range(k_max + 1)]
        self.a1, self.a2, self.a3 = a1, a2, a3
        self.l = [1]
        self.d = [1]
        self.lp = [0]
        self.lpp = [0]
        for k in range(1, k_max + 1):
            self.d.append((a1 - 3) * self.l[k - 1])
            self.l.append(sum(self.b[k - i] * self.d[i] for i in range(k + 1)))
            self.lp.append((self.l[k - 2] if k >= 2 else 0)
                           + (a2 - 3) * self.l[k - 1])
            self.lpp.append(a3 * self.l[k - 1])

    def l_ks(self, k: int, r: int) -> int:
        """l_{k,r}: l_k, l'_k, l''_k at r = k, k+1, k+2 and 0 otherwise."""
        if k < 0 or k > self.k_max:
            if k < 0:
                return 0
            raise SequenceError(f"k = {k} beyond table size {self.k_max}")
        if r == k:
            return self.l[k]
        if r == k + 1:
            return self.lp[k]
        if r == k + 2:
            return self.lpp[k]
        return 0


def closed_form_check(pack: SequencePack) -> list:
    """Verify the small-k closed forms of the l-family against the tables.

    Returns a list of (name, recurrence value, closed-form value, ok).
    """
    if pack.k_max < 3:
        raise SequenceError("closed forms need k_max >= 3")
    a1, a2, a3 = pack.a1, pack.a2, pack.a3
    expected = [
        ("l_2", pack.l[2], a1 ** 2 - 3),
        ("l_3", pack.l[3], a1 ** 3 - 6 * a1 + 1),
        ("lp_2", pack.lp[2], a1 * a2 - 3 * a1 + 1),
        ("lp_3", pack.lp[3], a1 ** 2 * a2 - 3 * a1 ** 2 - 3 * a2 + a1 + 9),
        ("lpp_2", pack.lpp[2], a1 * a3),
        ("lpp_3", pack.lpp[3], a1 ** 2 * a3 - 3 * a3),
        ("d_3", pack.d[3], (a1 - 3) * (a1 ** 2 - 3)),
    ]
    return [(name, got, want, got == want) for name, got, want in expected]


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
        out = 1
        for k, s in self.factors:
            out *= pack.l_ks(k, s)
        return out

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
                raise SequenceError(
                    f"u table cross-check failed at (k,s)=({k},{s}): "
                    f"tree gives {got}, series gives {want}")
    for (k, s), want in _u_closed_forms(pack).items():
        if k <= k_max and table.get((k, s), 0) != want:
            raise SequenceError(
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

    def __add__(self, other):
        order = min(self.order, other.order)
        slices = []
        for k in range(order + 1):
            d = dict(self.slices[k])
            for s, c in other.slices[k].items():
                d[s] = d.get(s, 0) + c
            slices.append(d)
        return PowerSeries(slices, order)

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
        assert check.slices[0] == {0: 1} and not any(check.slices[1:]), \
            "series reciprocal failed its product check"
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

    def __eq__(self, other):
        order = min(self.order, other.order)
        return self.slices[: order + 1] == other.slices[: order + 1]

    def __repr__(self):
        return f"PowerSeries({self.slices})"


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
    """P^A(t,z) = 1/(1-tz)^c and P^R(t) = (1+t)^n/(1-t^2)^c."""
    if c < 1:
        raise SequenceError("codepth must be >= 1")
    if order < 0:
        raise SequenceError("order must be >= 0")
    one_minus_tz = PowerSeries.from_terms({(0, 0): 1, (1, 1): -1}, order)
    PA = one_minus_tz.reciprocal()
    for _ in range(c - 1):
        PA = PA * one_minus_tz.reciprocal()
    one_minus_t2 = PowerSeries.from_terms({(0, 0): 1, (2, 0): -1}, order)
    PR = geometric_binomial(n, order)
    inv = one_minus_t2.reciprocal()
    for _ in range(c):
        PR = PR * inv
    return PA, PR


def class_t_generating_functions(a1: int, a2: int, a3: int, order: int):
    """(f, g, h, d-series): the generating functions of l, l', l'' and d."""
    base = PowerSeries.from_terms(  # (1-t)^3 - t(a1-3)
        {(0, 0): 1, (1, 0): -3 - (a1 - 3), (2, 0): 3, (3, 0): -1}, order)
    f = base.reciprocal()
    g = PowerSeries.from_terms({(2, 0): 1, (1, 0): a2 - 3}, order) * f
    h = PowerSeries.from_terms({(1, 0): a3}, order) * f
    dser = (PowerSeries.from_terms({(1, 0): a1 - 3}, order) * f
            + PowerSeries.from_terms({(0, 0): 1}, order))
    return f, g, h, dser


def generating_function_check(pack: SequencePack, order: int) -> list:
    """Match the recurrence tables against the rational generating functions,
    and check L(t, 1) = f + g + h coefficientwise.

    Returns (name, k, table value, series value, ok) tuples.
    """
    if order > pack.k_max:
        raise SequenceError("order exceeds the table size")
    f, g, h, dser = class_t_generating_functions(pack.a1, pack.a2, pack.a3, order)
    out = []
    for k in range(order + 1):
        out.append(("l", k, pack.l[k], f.coefficient(k), pack.l[k] == f.coefficient(k)))
        out.append(("lp", k, pack.lp[k], g.coefficient(k), pack.lp[k] == g.coefficient(k)))
        out.append(("lpp", k, pack.lpp[k], h.coefficient(k), pack.lpp[k] == h.coefficient(k)))
        out.append(("d", k, pack.d[k], dser.coefficient(k), pack.d[k] == dser.coefficient(k)))
    total = f + g + h
    for k in range(order + 1):
        lsum = pack.l[k] + pack.lp[k] + pack.lpp[k]
        out.append(("L(t,1)", k, lsum, total.coefficient(k),
                    lsum == total.coefficient(k)))
    return out
