"""End-to-end runs over rings beyond the two shipped fixtures: the other
members of the almost-complete-intersection class-T family (discovery path,
no supplied cycles), complete intersections of codepth 4 and with mixed
pure-power degrees, and a non-example that must be rejected."""

import pytest

from koszulres.builder import assemble_CI, assemble_T
from koszulres.exactfield import QuotientRing
from koszulres.homology import (
    DiscoveryError,
    HomologyAlgebra,
    discover_class_CI_basis,
    discover_class_T_basis,
)
from koszulres.sequences import poincare_CI
from koszulres.verifier import (
    check_complex,
    check_exactness,
    check_minimality,
    oracle_resolution,
)

CLASS_T_VARIANTS = [
    [(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 1)],
    [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)],
    [(2, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)],
    [(2, 0, 0), (0, 2, 0), (0, 0, 4), (1, 1, 1)],
]


# every characteristic regime: p = 2 (the two diagonal sign rules agree),
# p = 3, the default prime, and one prime above 2^27 (object-dtype products);
# the default-prime cases keep the bare variant name as their id
FAMILY_PRIMES = (2, 3, 32003, 2147483647)


@pytest.mark.parametrize(
    "gens,p", [(g, p) for g in CLASS_T_VARIANTS for p in FAMILY_PRIMES],
    ids=[name if p == 32003 else f"{name}-p{p}"
         for name in ("z3", "cubes", "y3z3", "z4") for p in FAMILY_PRIMES])
def test_class_t_family_discovery_and_assembly(gens, p):
    """check_complex certifies the fixed sign convention of assemble_T on
    every variant in every characteristic regime."""
    ring = QuotientRing(p, 3, gens, names=["x", "y", "z"])
    H = HomologyAlgebra(ring)
    assert tuple(H.ranks) == (1, 4, 6, 3)
    basis, _ = discover_class_T_basis(H)
    F = assemble_T(ring, basis, i_max=5)
    assert F.ranks == [1, 3, 7, 16, 37, 86]
    assert check_complex(F).passed
    assert check_minimality(F).passed
    assert check_exactness(F).passed


def test_class_t_family_oracle_cross_check():
    ring = QuotientRing(32003, 3, CLASS_T_VARIANTS[0], names=["x", "y", "z"])
    assert oracle_resolution(ring, 5).betti == [1, 3, 7, 16, 37, 86]


def test_non_class_t_rejected():
    # a = (1, 4, 5, 2): neither class T nor CI; discovery must say so
    ring = QuotientRing(32003, 3,
                        [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)],
                        names=["x", "y", "z"])
    H = HomologyAlgebra(ring)
    with pytest.raises(DiscoveryError):
        discover_class_T_basis(H)
    with pytest.raises(DiscoveryError):
        discover_class_CI_basis(H)


def test_ci_codepth_4():
    gens = []
    for v in range(4):
        e = [0] * 4
        e[v] = 2
        gens.append(tuple(e))
    ring = QuotientRing(32003, 4, gens)
    basis, _ = discover_class_CI_basis(HomologyAlgebra(ring))
    F = assemble_CI(ring, basis, i_max=5)
    _, PR = poincare_CI(4, 4, 5)
    assert F.ranks == [PR.coefficient(k) for k in range(6)]
    assert check_complex(F).passed
    assert check_exactness(F).passed
    assert oracle_resolution(ring, 5).betti == F.ranks


def test_ci_mixed_pure_powers():
    # k[x,y]/(x^3, y^4): still a complete intersection, dim 12
    ring = QuotientRing(32003, 2, [(3, 0), (0, 4)], names=["x", "y"])
    assert ring.dim == 12
    basis, _ = discover_class_CI_basis(HomologyAlgebra(ring))
    F = assemble_CI(ring, basis, i_max=6)
    assert F.ranks == [1, 2, 3, 4, 5, 6, 7]
    assert check_complex(F).passed
    assert check_exactness(F).passed
    assert oracle_resolution(ring, 6).betti == F.ranks


def test_hypersurface_higher_power():
    ring = QuotientRing(32003, 1, [(5,)], names=["x"])
    basis, _ = discover_class_CI_basis(HomologyAlgebra(ring))
    F = assemble_CI(ring, basis, i_max=8)
    assert F.ranks == [1] * 9
    assert check_exactness(F).passed
    assert oracle_resolution(ring, 8).betti == [1] * 9
