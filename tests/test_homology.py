import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from koszulres import exactfield, homology
from koszulres.exactfield import QuotientRing, RingMatrix, rank_mod, solve_mod
from koszulres.homology import (
    ClassCIBasis,
    ClassTBasis,
    DiscoveryError,
    HomologyAlgebra,
    HomologyError,
    discover_class_CI_basis,
    discover_class_T_basis,
    verify_class_CI,
    verify_class_T,
)
from koszulres.koszul import KoszulElement, koszul_differential, parse_koszul_element
from koszulres.samples import ci_squares_ring, class_t_ring
from conftest import (
    dense_homology,
    flatten,
    from_vector,
    make_class_t_basis,
    to_vector,
)

PRIMES = [2, 3, 32003, 2147483647]
ACIT_GENS = [(9, 0, 0), (0, 8, 0), (0, 0, 7), (3, 3, 3)]
CLASS_T_GENS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]


def _power(d):
    """The generators of (x, y, z)^d: every monomial of degree d."""
    return [m for m in itertools.product(range(d + 1), repeat=3) if sum(m) == d]


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
    assert not homology_t.classes(1, [b]).any()


def test_class_well_defined_mod_boundaries(ring_t, homology_t):
    z = parse_koszul_element("x*e[1]", ring_t)
    moved = from_vector(ring_t, 1, to_vector(z)
                        + to_vector(KoszulElement.basis(ring_t, (1, 3)).differential()))
    c1, c2 = homology_t.classes(1, [z, moved]).T
    assert c1.any()
    assert (c1 == c2).all()


def test_class_of_rejects_non_cycle(ring_t, homology_t):
    with pytest.raises(HomologyError):
        homology_t.classes(1, [KoszulElement.basis(ring_t, (1,))])


def test_classes_of_mixed_list_match_single_columns(ring_t, homology_t):
    H = homology_t
    for i in (1, 2):
        reps = H.reps[i]
        boundary = KoszulElement.basis(ring_t, (1, 2, 3)[:i + 1]).differential()
        moved = from_vector(ring_t, i, to_vector(reps[-1]) + 5 * to_vector(boundary))
        mixed = [*reps, boundary, moved, reps[0]]
        got = H.classes(i, mixed)
        assert got.dtype == np.int64 and got.shape == (H.rank(i), len(mixed))
        assert np.array_equal(got, np.hstack([H.classes(i, [z]) for z in mixed]))
        eye = np.eye(H.rank(i), dtype=np.int64)
        assert np.array_equal(got, np.c_[eye, 0 * eye[:, 0], eye[:, -1], eye[:, 0]])


def test_classes_of_empty_list(homology_t):
    for i, a in enumerate(homology_t.ranks):
        got = homology_t.classes(i, [])
        assert got.dtype == np.int64 and got.shape == (a, 0)


def test_classes_reject_non_cycles_and_other_degrees(ring_t, homology_t, basis_t):
    H = homology_t
    for i, bad, message in [(1, KoszulElement.basis(ring_t, (1,)), "not a cycle"),
                            (1, basis_t.z2[0], "has degree 2, not 1"),
                            (2, basis_t.z1[0], "has degree 1, not 2"),
                            (3, basis_t.z1[0].wedge(basis_t.z1[1]), "has degree 2, not 3")]:
        with pytest.raises(HomologyError, match=message):
            H.classes(i, [bad])
        with pytest.raises(HomologyError, match=message):
            H.classes(i, [*H.reps[i], bad])


def test_classes_of_cycles_apply_no_differential(ring_t, homology_t, monkeypatch):
    # the product against M_i decides which elements are cycles: a product
    # of cycles is classed without its Koszul differential
    calls = []
    real = KoszulElement.differential
    monkeypatch.setattr(KoszulElement, "differential",
                        lambda z: calls.append(z) or real(z))
    z1 = homology_t.reps[1]
    wedges = [a.wedge(b) for a, b in itertools.combinations(z1, 2)]
    C = homology_t.classes(2, wedges)
    assert calls == []
    assert C.shape == (homology_t.rank(2), len(wedges))
    assert rank_mod(C, ring_t.p) == 3  # A_1 . A_1 of class T


@pytest.mark.parametrize("p", [2, 3, 32003, 2147483647])
@pytest.mark.parametrize("make_ring", [class_t_ring, lambda p: ci_squares_ring(3, p)],
                         ids=["classT", "ci3"])
def test_class_of_matches_solve_mod(make_ring, p):
    """classes (one product against M_i) equals the unique solve_mod
    solution over [dense boundaries | reps], read on the reps."""
    ring = make_ring(p)
    H = HomologyAlgebra(ring)
    nprng = np.random.default_rng(p % 1000003)
    for i, (bnd, _) in enumerate(dense_homology(ring)):
        width = comb(ring.nvars, i) * ring.dim
        reps = np.array([to_vector(z) for z in H.reps[i]],
                        dtype=np.int64).reshape(-1, width)
        rows = np.vstack([bnd, reps])
        combos = nprng.integers(0, p, size=(8, len(rows)), dtype=np.int64)
        combos = (combos.astype(object) @ rows.astype(object)) % p
        for v in [*rows, *combos.astype(np.int64)]:
            want = solve_mod(rows.T, v, p)
            assert want is not None
            got = H.classes(i, [from_vector(ring, i, v)])[:, 0]
            assert got.tolist() == (want[len(bnd):] % p).tolist()


@pytest.mark.parametrize("gens", [CLASS_T_GENS, _power(3)], ids=["classT", "max3"])
def test_classes_make_no_elimination(monkeypatch, gens):
    """A classes call is one product against M_i: it makes no rref_mod,
    kernel_mod or solve_mod call, however many cycles it has."""
    ring = QuotientRing(32003, 3, gens, names=["x", "y", "z"])
    H = HomologyAlgebra(ring)
    calls = []
    # kernel_mod, solve_mod and rank_mod eliminate through exactfield.rref_mod
    for module in (exactfield, homology):
        fn = module.rref_mod
        monkeypatch.setattr(module, "rref_mod", lambda *args, fn=fn: calls.append(1) or fn(*args))
    for i in range(4):
        sums = [from_vector(ring, i, to_vector(a) + to_vector(b))
                for a, b in zip(H.reps[i], H.reps[i][1:])]
        cycles = [*H.reps[i], *sums, *H.reps[i][::-1]]
        got = H.classes(i, cycles)
        eye = np.eye(H.rank(i), dtype=np.int64)
        assert np.array_equal(got[:, :H.rank(i)], eye)
        assert np.array_equal(got[:, -H.rank(i):], eye[:, ::-1])
    assert calls == []


@pytest.mark.parametrize("order", [1, -1], ids=["xe2-first", "e1-first"])
def test_classes_name_the_first_non_cycle(ring_t, homology_t, order):
    """With two non-cycles and cycles between them, the lower index is
    named, whichever of the two it is."""
    a, b = [parse_koszul_element(s, ring_t) for s in ("x*e[2]", "e[1]")][::order]
    z = homology_t.reps[1]
    with pytest.raises(HomologyError, match="element 2 is not a cycle"):
        homology_t.classes(1, [z[0], z[1], a, z[2], z[3], b, z[0]])


@pytest.mark.parametrize("lost", range(4))
def test_class_of_outside_span_raises(ring_t, lost):
    """A degree-1 basis that has lost a rep cannot express that rep's cycle."""
    H = HomologyAlgebra(ring_t)
    M, D = H._kernel_classes[1], ring_t.dim
    # the row of the lost rep, at its free column (its last nonzero), holds
    # the rep and its unit class; M_1 loses that row
    t = H.reps[1][lost].col.terms
    f = int((t[:, 0] * D + t[:, 2]).max())
    row = M.terms[M.terms[:, 0] == f]
    assert row[row[:, 1] < 4, 1:].tolist() == [[lost, 0, 1]]
    H._kernel_classes[1] = RingMatrix.from_terms(M.ring, M.rows, M.cols,
                                                 M.terms[M.terms[:, 0] != f])
    with pytest.raises(HomologyError, match="not in the span"):
        H.classes(1, [H.reps[1][lost]])
    for k, z in enumerate(H.reps[1]):
        if k != lost:
            assert H.classes(1, [z])[:, 0].tolist() == [int(j == k) for j in range(4)]


def test_product_classes(ring_t, homology_t, basis_t):
    z1, z2, z3, z4 = basis_t.z1
    assert homology_t.classes(2, [z1.wedge(z2)]).any()
    assert not homology_t.classes(2, [z1.wedge(z4)]).any()
    # [z1_2][z1_3] equals the class of yz e_23
    got = homology_t.classes(2, [z2.wedge(z3)])
    want = homology_t.classes(2, [parse_koszul_element("y*z*e[2,3]", ring_t)])
    assert (got == want).all()


def test_product_independent_of_representative(ring_t, homology_t, basis_t):
    z1, z2 = basis_t.z1[0], basis_t.z1[1]
    moved = from_vector(ring_t, 1, to_vector(z1)
                        + to_vector(KoszulElement.basis(ring_t, (2, 3)).differential()))
    a, b = homology_t.classes(2, [z1.wedge(z2), moved.wedge(z2)]).T
    assert (a == b).all()


def test_supplied_degree1_classes_form_basis(ring_t, homology_t, basis_t):
    M = homology_t.classes(1, basis_t.z1)
    assert rank_mod(M, ring_t.p) == 4


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


@pytest.mark.parametrize("p", [32003, 2])
def test_basis_pack_has_the_homology_invariants(p):
    # a certified basis holds a1, a2 - 3 and a3 cycles: the shipped ring's
    # basis and the one discovery finds on acit; B's basis is the triple alone
    shipped = class_t_ring(p)
    H_acit = HomologyAlgebra(QuotientRing(p, 3, ACIT_GENS))
    for H, basis in ((HomologyAlgebra(shipped), make_class_t_basis(shipped)),
                     (H_acit, discover_class_T_basis(H_acit)[0])):
        assert verify_class_T(basis, H).passed
        pack = basis.pack
        assert (pack.a1, pack.a2, pack.a3) == tuple(H.ranks[1:4])
        assert basis.pack is pack  # built once per basis
        B = ClassTBasis(z1=basis.triple, z2=[], z3=[]).pack
        assert (B.a1, B.a2, B.a3) == (3, 3, 0)


def test_reps_have_unit_classes(homology_t):
    # discovery completes A_2 from these unit vectors instead of classes
    acit = HomologyAlgebra(QuotientRing(32003, 3, [(9, 0, 0), (0, 8, 0), (0, 0, 7), (3, 3, 3)]))
    for H in (homology_t, acit):
        for i, reps in enumerate(H.reps):
            eye = np.eye(len(reps), dtype=np.int64)
            for k, z in enumerate(reps):
                assert np.array_equal(H.classes(i, [z])[:, 0], eye[k])


def test_discover_class_t_rejects_ci(ring_ci2):
    with pytest.raises(DiscoveryError):
        discover_class_T_basis(HomologyAlgebra(ring_ci2))


def test_discovery_refuses_on_the_product_rank_before_any_triple(monkeypatch):
    # (x,y,z)^6 has a_1 = 28, so C(28, 3) = 3276 triples, and no three of
    # its pairwise products have independent classes: p = rank A_1.A_1 is
    # below 3, read from the pairs in a few class calls, and discovery
    # refuses with the message of a search that tried every triple
    H = HomologyAlgebra(QuotientRing(32003, 3, [(a, b, 6 - a - b)
                                                for a in range(7) for b in range(7 - a)]))
    calls = []
    classes = H.classes
    monkeypatch.setattr(H, "classes", lambda i, cycles: calls.append(i) or classes(i, cycles))
    with pytest.raises(DiscoveryError) as caught:
        discover_class_T_basis(H)
    assert str(caught.value) == (
        "no distinguished triple with independent pairwise products certifies "
        "class T for this ring; supply cycle representatives in the ring file")
    assert H.rank(1) == 28
    assert 0 < len(calls) <= 2 and set(calls) == {2}


def boundary_rows(H, i):
    """The free columns of flat d_i, which are the nonzero rows of M_i,
    minus a_i: rank flat d_{i+1}."""
    return len(np.unique(H._kernel_classes[i].terms[:, 0])) - H.ranks[i]


def test_ranks_dimension_bookkeeping(ring_t, homology_t):
    # a_i = dim ker d_i - rank d_{i+1}, with the ranks of the dense flat d_i
    p, D = ring_t.p, ring_t.dim
    rank = [rank_mod(flatten(koszul_differential(i, ring_t)), p) for i in range(4)] + [0]
    for i in range(4):
        assert homology_t.ranks[i] == comb(3, i) * D - rank[i] - rank[i + 1]
        assert boundary_rows(homology_t, i) == rank[i + 1]


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
        M = homology_t.classes(deg, elems)
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
    assert [boundary_rows(H, i) for i in range(4)] == [383, 765, 381, 0]


def test_homology_peak_memory_x9():
    # dim R = 6561: M_i scatters each content's kernel vectors and classes
    # to every strand of it, 20.2 MiB at peak; a basis per distinct content
    # with strand labels and local indices beside it peaked at 21.5 MiB
    ring = QuotientRing(32003, 4, [(9, 0, 0, 0), (0, 9, 0, 0), (0, 0, 9, 0), (0, 0, 0, 9)])
    tracemalloc.start()
    try:
        H = HomologyAlgebra(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2 ** 20
    assert H.ranks == [comb(4, i) for i in range(5)]


def _orders(gens, names):
    """The ring's generators and names, and the same ring with its
    variables in reverse order."""
    return [(gens, names), ([g[::-1] for g in gens], names[::-1])]


# classT, ci3 and acit have at most one rep per strand; (x, y, z)^2 has one
# strand with two reps and (x, y, z)^3 has three strands with several; aci4
# and two carry the reference to 4 and to 2 variables
STRAND_RINGS = {
    "classT": _orders(CLASS_T_GENS, ["x", "y", "z"]),
    "ci3": _orders([(2, 0, 0), (0, 2, 0), (0, 0, 2)], ["x", "y", "z"]),
    "acit": _orders(ACIT_GENS, ["x", "y", "z"]),
    "max2": _orders(_power(2), ["x", "y", "z"]),
    "max3": _orders(_power(3), ["x", "y", "z"]),
    "aci4": _orders([(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (1, 1, 1, 1)],
                    ["x", "y", "z", "w"]),
    "two": _orders([(4, 0), (2, 1), (0, 3)], ["x", "y"]),
}


@pytest.mark.parametrize("order", [0, 1], ids=["xyz", "zyx"])
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("case", list(STRAND_RINGS))
def test_strands_match_dense(case, p, order):
    """reps and classes strand by strand equal the elimination of the whole
    dense flat differentials; all the cycles go to one classes call, so
    one product reads several of them in a strand at once."""
    gens, names = STRAND_RINGS[case][order]
    ring = QuotientRing(p, len(names), gens, names=names)
    H = HomologyAlgebra(ring)
    nprng = np.random.default_rng(p % 1000003 + order)
    for i, (bnd, basis) in enumerate(dense_homology(ring)):
        width = bnd.shape[1]
        got = np.array([to_vector(z) for z in H.reps[i]], dtype=np.int64)
        want = np.array(basis[len(bnd):], dtype=np.int64)
        assert np.array_equal(got.reshape(-1, width), want.reshape(-1, width))
        rows = np.array(basis, dtype=np.int64).reshape(-1, width)
        combos = nprng.integers(0, p, size=(4, len(rows))).astype(object)
        V = ((combos @ rows.astype(object)) % p).astype(np.int64)
        coeffs = solve_mod(rows.T, V.T, p)
        got = H.classes(i, [from_vector(ring, i, v) for v in V])
        assert np.array_equal(got, coeffs[len(bnd):])
