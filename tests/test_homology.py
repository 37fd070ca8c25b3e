import tracemalloc
from math import comb

import numpy as np
import pytest

from koszulres.exactfield import QuotientRing, rank_mod, solve_mod
from koszulres.homology import (
    ClassCIBasis,
    ClassTBasis,
    DiscoveryError,
    HomologyAlgebra,
    HomologyError,
    _reduce_against,
    discover_class_CI_basis,
    discover_class_T_basis,
    verify_class_CI,
    verify_class_T,
)
from koszulres.koszul import KoszulElement, koszul_differential, parse_koszul_element
from koszulres.samples import ci_squares_ring, class_t_ring
from conftest import dense_homology, dense_rows, flatten, make_class_t_basis

PRIMES = [2, 3, 32003, 2147483647]
ACIT_GENS = [(9, 0, 0), (0, 8, 0), (0, 0, 7), (3, 3, 3)]


def ranks_and_codepth(ring):
    H = HomologyAlgebra(ring)
    return tuple(H.ranks[: H.codepth + 1]), H.codepth


def test_homology_ranks_class_t(ring_t):
    ranks, c = ranks_and_codepth(ring_t)
    assert ranks == (1, 4, 6, 3)
    assert c == 3


def test_homology_ranks_ci(ring_ci3, ring_ci2):
    assert ranks_and_codepth(ring_ci3) == ((1, 3, 3, 1), 3)
    assert ranks_and_codepth(ring_ci2) == ((1, 2, 1), 2)


def test_boundary_class_is_zero(ring_t, homology_t):
    b = KoszulElement.basis(ring_t, (1, 2)).differential()
    assert not homology_t.class_of(b).any()


def test_class_well_defined_mod_boundaries(ring_t, homology_t):
    z = parse_koszul_element("x*e[1]", ring_t)
    moved = z + KoszulElement.basis(ring_t, (1, 3)).differential()
    c1 = homology_t.class_of(z)
    c2 = homology_t.class_of(moved)
    assert c1.any()
    assert (c1 == c2).all()


def test_class_of_rejects_non_cycle(ring_t, homology_t):
    with pytest.raises(HomologyError):
        homology_t.class_of(KoszulElement.basis(ring_t, (1,)))


@pytest.mark.parametrize("p", [2, 3, 32003, 2147483647])
@pytest.mark.parametrize("make_ring", [class_t_ring, lambda p: ci_squares_ring(3, p)],
                         ids=["classT", "ci3"])
def test_class_of_matches_solve_mod(make_ring, p):
    """class_of (reduction against the per-degree echelon basis) equals the
    unique solve_mod solution over [boundaries | reps], read on the reps."""
    ring = make_ring(p)
    H = HomologyAlgebra(ring)
    nprng = np.random.default_rng(p % 1000003)
    for i in range(ring.nvars + 1):
        width = comb(ring.nvars, i) * ring.dim
        bnd = dense_rows(H.boundary[i], width)
        reps = np.array([z.to_vector() for z in H.reps[i]],
                        dtype=np.int64).reshape(-1, width)
        rows = np.vstack([bnd, reps])
        combos = nprng.integers(0, p, size=(8, len(rows)), dtype=np.int64)
        combos = (combos.astype(object) @ rows.astype(object)) % p
        for v in [*rows, *combos.astype(np.int64)]:
            want = solve_mod(rows.T, v, p)
            assert want is not None
            got = H.class_of(KoszulElement.from_vector(ring, i, v))
            assert got.tolist() == (want[len(bnd):] % p).tolist()


@pytest.mark.parametrize("lost", range(4))
def test_class_of_outside_span_raises(ring_t, lost):
    """A degree-1 basis that has lost a rep cannot express that rep's cycle."""
    H = HomologyAlgebra(ring_t)
    S = H._strands[1]
    # the strand of the lost rep gets a content of its own without that rep
    s = next(s for s, ids in S.rep_ids.items() if lost in ids.tolist())
    basis, _, nbnd = S.contents[S.content[s]]
    k = nbnd + S.rep_ids[s].tolist().index(lost)
    basis = np.delete(basis, k, axis=0)
    S.content[s] = len(S.contents)
    S.contents.append((basis, {int(np.flatnonzero(r)[0]): j for j, r in enumerate(basis)},
                       nbnd))
    S.rep_ids[s] = S.rep_ids[s][S.rep_ids[s] != lost]
    with pytest.raises(HomologyError, match="not in the span"):
        H.class_of(H.reps[1][lost])
    for k, z in enumerate(H.reps[1]):
        if k != lost:
            assert H.class_of(z).tolist() == [int(j == k) for j in range(4)]


def test_product_classes(ring_t, homology_t, basis_t):
    z1, z2, z3, z4 = basis_t.z1
    assert homology_t.product_class(z1, z2).any()
    assert not homology_t.product_class(z1, z4).any()
    # [z1_2][z1_3] equals the class of yz e_23
    got = homology_t.product_class(z2, z3)
    want = homology_t.class_of(parse_koszul_element("y*z*e[2,3]", ring_t))
    assert (got == want).all()


def test_product_independent_of_representative(ring_t, homology_t, basis_t):
    z1, z2 = basis_t.z1[0], basis_t.z1[1]
    moved = z1 + KoszulElement.basis(ring_t, (2, 3)).differential()
    a = homology_t.product_class(z1, z2)
    b = homology_t.product_class(moved, z2)
    assert (a == b).all()


def test_supplied_degree1_classes_form_basis(ring_t, homology_t, basis_t):
    M = np.array([homology_t.class_of(z) for z in basis_t.z1]).T
    assert rank_mod(M, ring_t.p) == 4


def test_product_overflow_is_empty(ring_t, homology_t, basis_t):
    z2 = basis_t.z2[0]
    z3 = basis_t.z3[0]
    assert homology_t.product_class(z2, z3).size == 0


# -- certification -----------------------------------------------------------

def test_verify_class_t_passes(ring_t, homology_t, basis_t):
    cert = verify_class_T(basis_t, homology_t)
    assert cert.passed
    descriptions = [c.description for c in cert.checks]
    assert any("distinguished products" in d for d in descriptions)


def test_verify_class_t_passes_p2(ring_t2):
    basis = make_class_t_basis(ring_t2)
    assert verify_class_T(basis, HomologyAlgebra(ring_t2)).passed


def test_verify_class_t_swapped_triple_fails(ring_t, homology_t, basis_t):
    z1 = list(basis_t.z1)
    z1[0], z1[3] = z1[3], z1[0]
    bad = ClassTBasis(z1=z1, z2=basis_t.z2, z3=basis_t.z3)
    cert = verify_class_T(bad, homology_t)
    assert not cert.passed
    assert any("independent" in c.description for c in cert.failures())


def test_verify_class_t_on_ci_ring_fails(ring_ci3):
    # z1_u = x_u e_u; a_2 = 3 so the z2 list is empty, but A_1 . A_2 != 0
    z = [parse_koszul_element(f"{nm}*e[{u}]", ring_ci3)
         for u, nm in enumerate(ring_ci3.names, start=1)]
    bad = ClassTBasis(z1=z, z2=[], z3=[parse_koszul_element("x*y*z*e[1,2,3]", ring_ci3)])
    cert = verify_class_T(bad, HomologyAlgebra(ring_ci3))
    assert not cert.passed


def test_verify_class_ci_passes(ring_ci3):
    basis = ClassCIBasis(z1=[
        parse_koszul_element(f"{nm}*e[{u}]", ring_ci3)
        for u, nm in enumerate(ring_ci3.names, start=1)])
    cert = verify_class_CI(basis, HomologyAlgebra(ring_ci3))
    assert cert.passed


def test_verify_class_ci_count_gate(ring_ci3):
    basis = ClassCIBasis(z1=[parse_koszul_element("x*e[1]", ring_ci3)])
    cert = verify_class_CI(basis, HomologyAlgebra(ring_ci3))
    assert not cert.passed
    assert "codepth" in cert.checks[0].description


def test_class_t_ring_fed_as_ci_fails(ring_t, homology_t, basis_t):
    cert = verify_class_CI(ClassCIBasis(z1=basis_t.z1), homology_t)
    assert not cert.passed


# -- discovery ---------------------------------------------------------------

def test_discover_ci_basis(ring_ci3, ring_ci2):
    for ring in (ring_ci3, ring_ci2):
        H = HomologyAlgebra(ring)
        basis, cert = discover_class_CI_basis(H)
        # discovery hands back the certificate that a fresh run reproduces
        assert cert.passed and cert == verify_class_CI(basis, H)


def test_discover_ci_fails_on_class_t(ring_t, homology_t):
    with pytest.raises(DiscoveryError):
        discover_class_CI_basis(homology_t)


def test_discover_class_t_basis(ring_t, homology_t):
    basis, cert = discover_class_T_basis(homology_t)
    assert cert.passed and cert == verify_class_T(basis, homology_t)


def test_discover_class_t_rejects_ci(ring_ci2):
    with pytest.raises(DiscoveryError):
        discover_class_T_basis(HomologyAlgebra(ring_ci2))


def test_ranks_dimension_bookkeeping(ring_t, homology_t):
    # a_i = dim ker d_i - rank d_{i+1}, with the ranks of the dense flat d_i
    p, D = ring_t.p, ring_t.dim
    rank = [rank_mod(flatten(koszul_differential(i, ring_t)), p) for i in range(4)] + [0]
    for i in range(4):
        assert homology_t.ranks[i] == comb(3, i) * D - rank[i] - rank[i + 1]
        assert len(np.unique(homology_t.boundary[i][0])) == rank[i + 1]


def test_b_and_c_classes_fill_ranks_by_degree(ring_t, homology_t, basis_t):
    # B spans 1, the triple, and its three products; C spans z1_4, z2_*, z3_*;
    # together they fill A degreewise: (1, 4, 6, 3)
    t = basis_t.triple
    by_degree = {0: 1, 1: 0, 2: 0, 3: 0}
    groups = {
        1: t + [basis_t.z1[3]],
        2: [t[0].wedge(t[1]), t[1].wedge(t[2]), t[0].wedge(t[2])] + basis_t.z2,
        3: basis_t.z3,
    }
    for deg, elems in groups.items():
        M = np.array([homology_t.class_of(z) for z in elems]).T
        assert rank_mod(M, ring_t.p) == len(elems)
        by_degree[deg] = len(elems)
    assert tuple(by_degree[i] for i in range(4)) == (1, 4, 6, 3)


def test_homology_peak_memory():
    # the dense flat Koszul differentials of this dim-384 ring peaked at
    # about 48 MB; strand by strand the blocks are at most 3 x 3
    ring = QuotientRing(32003, 3, ACIT_GENS, names=["x", "y", "z"])
    tracemalloc.start()
    try:
        H = HomologyAlgebra(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert [len(np.unique(b[0])) for b in H.boundary] == [383, 765, 381, 0]


def _orders(gens, names):
    """The ring's generators and names, and the same ring with its
    variables in reverse order."""
    return [(gens, names), ([g[::-1] for g in gens], names[::-1])]


STRAND_RINGS = {
    "classT": _orders([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], ["x", "y", "z"]),
    "ci3": _orders([(2, 0, 0), (0, 2, 0), (0, 0, 2)], ["x", "y", "z"]),
    "acit": _orders(ACIT_GENS, ["x", "y", "z"]),
}


@pytest.mark.parametrize("order", [0, 1], ids=["xyz", "zyx"])
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("case", list(STRAND_RINGS))
def test_strands_match_dense(case, p, order):
    """boundary, reps and class_of strand by strand equal the elimination of
    the whole dense flat differentials."""
    gens, names = STRAND_RINGS[case][order]
    ring = QuotientRing(p, 3, gens, names=names)
    H = HomologyAlgebra(ring)
    nprng = np.random.default_rng(p % 1000003 + order)
    for i, (bnd, basis, pivots) in enumerate(dense_homology(ring)):
        width = bnd.shape[1]
        assert np.array_equal(dense_rows(H.boundary[i], width), bnd)
        got = np.array([z.to_vector() for z in H.reps[i]], dtype=np.int64)
        want = np.array(basis[len(bnd):], dtype=np.int64)
        assert np.array_equal(got.reshape(-1, width), want.reshape(-1, width))
        rows = np.array(basis, dtype=np.int64).reshape(-1, width)
        combos = nprng.integers(0, p, size=(4, len(rows))).astype(object)
        for v in (combos @ rows.astype(object)) % p:
            z = KoszulElement.from_vector(ring, i, v.astype(np.int64))
            _, coeffs = _reduce_against(z.to_vector(), basis, pivots, p)
            assert H.class_of(z).tolist() == coeffs[len(bnd):].tolist()
