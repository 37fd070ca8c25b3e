"""Built-in example rings used by the demo command, the shipped ring-file
fixtures, and the test suite."""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .exactfield import QuotientRing, RingFile, build_ring, parse_ring_file


def class_t_ring_file(p: int = 32003, i_max: int = 7) -> RingFile:
    """The shipped `data/classT_example.ring`: k[x,y,z]/(x^2,y^2,z^2,xyz) with
    cycle representatives certifying class T (their pairwise products
    outside the distinguished triple vanish literally in K_2), read with the
    characteristic p and max_degree i_max."""
    rf = parse_ring_file(
        (Path(__file__).with_name("data") / "classT_example.ring").read_text())
    return dataclasses.replace(rf, characteristic=p, max_degree=i_max)


def class_t_ring(p: int = 32003) -> QuotientRing:
    """The codepth-3 almost complete intersection k[x,y,z]/(x^2,y^2,z^2,xyz),
    the smallest class-T example (a = (1, 4, 6, 3))."""
    return build_ring(class_t_ring_file(p))


def ci_squares_ring(n: int, p: int = 32003) -> QuotientRing:
    """k[x_1..x_n]/(x_1^2, ..., x_n^2): a complete intersection of codepth n."""
    gens = [tuple(2 if u == v else 0 for u in range(n)) for v in range(n)]
    return QuotientRing(p, n, gens)
