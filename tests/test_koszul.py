import random

import pytest

from koszulres.exactfield import ExactFieldError, Polynomial, QuotientRing
from koszulres.koszul import (
    CycleMatrix,
    KoszulElement,
    KoszulError,
    cycle_matrix_action,
    koszul_differential,
    parse_koszul_element,
    subsets,
    verify_chain_map,
    wedge_sign,
)
from koszulres.builder import alpha, beta

rng = random.Random(97)


def test_subset_bases(ring_t):
    assert subsets(3, 1) == ((1,), (2,), (3,))
    assert subsets(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert subsets(3, 3) == ((1, 2, 3),)
    assert subsets(3, 4) == ()


def test_wedge_sign_values():
    assert wedge_sign((1,), (2,)) == (1, (1, 2))
    assert wedge_sign((2,), (1,)) == (-1, (1, 2))
    assert wedge_sign((1,), (1,)) == (0, None)
    assert wedge_sign((2, 3), (1,)) == (1, (1, 2, 3))  # two transpositions


# -- differentials -----------------------------------------------------------

def test_differential_degree_one(ring_t):
    d1 = koszul_differential(1, ring_t)
    assert (d1.rows, d1.cols) == (1, 3)
    assert [d1.entry(0, j).to_string(ring_t.names) for j in range(3)] == ["x", "y", "z"]


def test_differential_degree_two(ring_t):
    # d(e_12) = -y e_1 + x e_2, d(e_13) = -z e_1 + x e_3, d(e_23) = -z e_2 + y e_3
    d2 = koszul_differential(2, ring_t)
    x, y, z = (ring_t.variable(v) for v in range(3))
    assert d2.entry(0, 0) == y.scale(-1) and d2.entry(1, 0) == x
    assert d2.entry(0, 1) == z.scale(-1) and d2.entry(2, 1) == x
    assert d2.entry(1, 2) == z.scale(-1) and d2.entry(2, 2) == y


def test_differential_degree_three(ring_t):
    # basis (e_12, e_13, e_23): d(e_123) = z e_12 - y e_13 + x e_23
    d3 = koszul_differential(3, ring_t)
    x, y, z = (ring_t.variable(v) for v in range(3))
    assert d3.entry(0, 0) == z
    assert d3.entry(1, 0) == y.scale(-1)
    assert d3.entry(2, 0) == x


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_d_squared_zero_any_n(n):
    gens = []
    for v in range(n):
        e = [0] * n
        e[v] = 2
        gens.append(tuple(e))
    ring = QuotientRing(101, n, gens)
    for i in range(2, n + 1):
        prod = koszul_differential(i - 1, ring) @ koszul_differential(i, ring)
        assert prod.is_zero()


def test_differential_entries_in_m(ring_t):
    for i in range(1, 4):
        assert koszul_differential(i, ring_t).first_unit_entry() is None


def test_differential_out_of_range(ring_t):
    with pytest.raises(KoszulError):
        koszul_differential(4, ring_t)
    with pytest.raises(KoszulError):
        koszul_differential(-1, ring_t)


# -- wedge product -----------------------------------------------------------

def e(ring, *idx):
    return KoszulElement.basis(ring, tuple(idx))


def test_wedge_basic(ring_t):
    assert e(ring_t, 1).wedge(e(ring_t, 1)).is_zero()
    assert e(ring_t, 1).wedge(e(ring_t, 2)) == e(ring_t, 1, 2)
    assert e(ring_t, 2).wedge(e(ring_t, 1)) == e(ring_t, 1, 2).scale(-1)
    xe1 = e(ring_t, 1).scale_poly(ring_t.variable(0))
    ye2 = e(ring_t, 2).scale_poly(ring_t.variable(1))
    prod = xe1.wedge(ye2)
    assert prod == parse_koszul_element("x*y*e[1,2]", ring_t)


def _random_element(ring, degree, terms=3, rng=rng):
    c = {}
    basis = subsets(ring.nvars, degree)
    for _ in range(terms):
        S = basis[rng.randrange(len(basis))]
        m = tuple(rng.randrange(2) for _ in range(ring.nvars))
        c[S] = Polynomial(ring.nvars, ring.p, {m: rng.randrange(1, ring.p)})
    return KoszulElement(ring, degree, c)


def test_wedge_graded_commutative(ring_t):
    for _ in range(20):
        da, db = rng.randrange(0, 3), rng.randrange(0, 3)
        a = _random_element(ring_t, da)
        b = _random_element(ring_t, db)
        lhs = a.wedge(b)
        rhs = b.wedge(a).scale((-1) ** (da * db))
        assert lhs == rhs


def test_wedge_associative(ring_t):
    for _ in range(20):
        a = _random_element(ring_t, 1)
        b = _random_element(ring_t, 1)
        c = _random_element(ring_t, 1)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_leibniz_identity(ring_t):
    for _ in range(25):
        da = rng.randrange(1, 3)
        db = rng.randrange(1, 4 - da)
        a = _random_element(ring_t, da)
        b = _random_element(ring_t, db)
        lhs = a.wedge(b).differential()
        rhs = a.differential().wedge(b) + a.wedge(b.differential()).scale((-1) ** da)
        assert lhs == rhs


def test_wedge_overflow(ring_t):
    a = _random_element(ring_t, 2)
    b = _random_element(ring_t, 2)
    assert a.wedge(b).is_zero()
    if not (a.is_zero() or b.is_zero()):
        with pytest.raises(KoszulError):
            a.wedge(b, strict=True)


def test_parse_roundtrip(ring_t):
    for text in ("x*e[1]", "y*z*e[1,2]", "x*e[1] + 2*y*e[2] - e[3]",
                 "x*e[1] + y*e[1]"):
        z = parse_koszul_element(text, ring_t)
        again = parse_koszul_element(z.to_string(), ring_t)
        assert z == again
    # one term per monomial: a coefficient with several terms is not bracketed
    assert parse_koszul_element("x*e[1] + y*e[1]", ring_t).to_string() == \
        "x*e[1] + y*e[1]"
    local = random.Random(11)
    for _ in range(30):
        degree = local.randrange(1, 4)
        # sums of random elements give coefficients with several terms
        z = (_random_element(ring_t, degree, rng=local)
             + _random_element(ring_t, degree, rng=local))
        if not z.is_zero():
            assert parse_koszul_element(z.to_string(), ring_t) == z
    with pytest.raises(KoszulError):
        parse_koszul_element("x*e[2,1]", ring_t)
    with pytest.raises(KoszulError):
        parse_koszul_element("x*e[1] + y*e[1,2]", ring_t)
    # cycles share the ring-file monomial grammar, which refuses x^0
    with pytest.raises(ExactFieldError, match="bad exponent"):
        parse_koszul_element("x^0*e[1]", ring_t)


# -- cycle matrices ----------------------------------------------------------

def test_cycle_matrix_rejects_non_cycle(ring_t):
    with pytest.raises(KoszulError, match="not a cycle"):
        CycleMatrix(ring_t, 1, 1, 1, {(0, 0): e(ring_t, 1)})


def test_cycle_matrix_action_row_of_cycles(ring_t, basis_t):
    theta = CycleMatrix(ring_t, 1, 4, 1,
                        {(0, j): z for j, z in enumerate(basis_t.z1)})
    act = cycle_matrix_action(theta, 1, ring_t)
    assert (act.rows, act.cols) == (3, 4)
    # unit vectors map to x e_1, y e_2, z e_3, yz e_1
    for j, want in enumerate(["x*e[1]", "y*e[2]", "z*e[3]", "y*z*e[1]"]):
        col = KoszulElement(ring_t, 1, {
            S: act.entry(i, j) for i, S in enumerate(subsets(3, 1))})
        assert col == parse_koszul_element(want, ring_t)


def test_cycle_matrix_action_zero_and_top(ring_t, basis_t):
    Z = CycleMatrix(ring_t, 2, 3, 1)
    assert cycle_matrix_action(Z, 2, ring_t).is_zero()
    g3 = CycleMatrix(ring_t, 1, 3, 3,
                     {(0, j): z for j, z in enumerate(basis_t.z3)})
    act = cycle_matrix_action(g3, 3, ring_t)
    assert (act.rows, act.cols) == (1, 3)
    vals = [act.entry(0, j).to_string(ring_t.names) for j in range(3)]
    assert vals == ["y*z", "x*z", "x*y"]


def test_action_respects_matrix_product(ring_t, basis_t, pack_t):
    # action(theta theta') = action(theta) action(theta') on beta_k beta'_{k+1}
    from koszulres.builder import beta_prime
    bk = beta(2, 3, basis_t.triple)
    bpk = beta_prime(3, basis_t.triple)
    prod = bk @ bpk
    lhs = cycle_matrix_action(prod, 3, ring_t)
    rhs = cycle_matrix_action(bk, 3, ring_t) @ cycle_matrix_action(bpk, 2, ring_t)
    assert lhs == rhs


def test_verify_chain_map_alpha(ring_t, basis_t, pack_t):
    theta = alpha(1, 1, pack_t, basis_t)
    report = verify_chain_map(theta, range(1, 4), ring_t)
    assert report.passed and report.degrees == [1, 2, 3]


def test_verify_chain_map_detects_non_cycle(ring_t):
    bad = CycleMatrix(ring_t, 1, 1, 1, {(0, 0): e(ring_t, 1)}, check=False)
    report = verify_chain_map(bad, range(1, 4), ring_t)
    assert not report.passed
    assert report.failure is not None
