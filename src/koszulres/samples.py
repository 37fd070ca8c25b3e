"""Built-in example rings used by the demo command, the shipped ring-file
fixtures, and the test suite."""

from __future__ import annotations

from .exactfield import QuotientRing, RingFile

#: Cycle representatives certifying class T for the built-in example
#: F_p[x,y,z]/(x^2, y^2, z^2, xyz); their pairwise products outside the
#: distinguished triple vanish literally in K_2.
CLASS_T_CYCLES = {
    "z1_1": "x*e[1]",
    "z1_2": "y*e[2]",
    "z1_3": "z*e[3]",
    "z1_4": "y*z*e[1]",
    "z2_1": "y*z*e[1,2]",
    "z2_2": "x*z*e[1,2]",
    "z2_3": "y*z*e[1,3]",
    "z3_1": "y*z*e[1,2,3]",
    "z3_2": "x*z*e[1,2,3]",
    "z3_3": "x*y*e[1,2,3]",
}


def class_t_ring(p: int = 32003) -> QuotientRing:
    """The codepth-3 almost complete intersection k[x,y,z]/(x^2,y^2,z^2,xyz),
    the smallest class-T example (a = (1, 4, 6, 3))."""
    return QuotientRing(p, 3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
                        names=["x", "y", "z"])


def class_t_ring_file(p: int = 32003, i_max: int = 7) -> RingFile:
    return RingFile(
        characteristic=p,
        variables=["x", "y", "z"],
        ideal=["x^2", "y^2", "z^2", "x*y*z"],
        mode="T",
        max_degree=i_max,
        series_order=10,
        cycles=dict(CLASS_T_CYCLES),
    )


def ci_squares_ring(n: int, p: int = 32003) -> QuotientRing:
    """k[x_1..x_n]/(x_1^2, ..., x_n^2): a complete intersection of codepth n."""
    gens = []
    for v in range(n):
        e = [0] * n
        e[v] = 2
        gens.append(tuple(e))
    names = ["x", "y", "z"][:n] if n <= 3 else None
    return QuotientRing(p, n, gens, names=names)

