import random

import pytest

from koszulres.exactfield import ExactFieldError, Polynomial, QuotientRing, RingMatrix
from koszulres.koszul import (
    CycleMatrix,
    KoszulElement,
    KoszulError,
    cycle_matrix_action,
    koszul_differential,
    parse_koszul_element,
    subset_index,
    subsets,
    verify_chain_map,
    wedge_sign,
    wedge_table,
)
from koszulres.builder import alpha, beta, beta_prime, gamma
from koszulres.homology import HomologyAlgebra, discover_class_CI_basis
from koszulres.samples import ci_squares_ring, class_t_ring, class_t_ring_file
from koszulres.sequences import SequencePack
from koszulres.verifier import basis_from_strings

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
    xe1 = parse_koszul_element("x*e[1]", ring_t)
    ye2 = parse_koszul_element("y*e[2]", ring_t)
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
    act = cycle_matrix_action(theta, 1)
    assert (act.rows, act.cols) == (3, 4)
    # unit vectors map to x e_1, y e_2, z e_3, yz e_1
    for j, want in enumerate(["x*e[1]", "y*e[2]", "z*e[3]", "y*z*e[1]"]):
        col = KoszulElement(ring_t, 1, {
            S: act.entry(i, j) for i, S in enumerate(subsets(3, 1))})
        assert col == parse_koszul_element(want, ring_t)


def test_cycle_matrix_action_zero_and_top(ring_t, basis_t):
    Z = CycleMatrix(ring_t, 2, 3, 1)
    assert cycle_matrix_action(Z, 2).is_zero()
    g3 = CycleMatrix(ring_t, 1, 3, 3,
                     {(0, j): z for j, z in enumerate(basis_t.z3)})
    act = cycle_matrix_action(g3, 3)
    assert (act.rows, act.cols) == (1, 3)
    vals = [act.entry(0, j).to_string(ring_t.names) for j in range(3)]
    assert vals == ["y*z", "x*z", "x*y"]


def test_action_respects_matrix_product(ring_t, basis_t, pack_t):
    # action(theta theta') = action(theta) action(theta') on beta_k beta'_{k+1}
    bk = beta(2, basis_t.triple)
    bpk = beta_prime(3, basis_t.triple)
    prod = bk @ bpk
    lhs = cycle_matrix_action(prod, 3)
    rhs = cycle_matrix_action(bk, 3) @ cycle_matrix_action(bpk, 2)
    assert lhs == rhs


def test_verify_chain_map_alpha(ring_t, basis_t, pack_t):
    theta = alpha(1, 1, pack_t, basis_t)
    report = verify_chain_map(theta, range(1, 4))
    assert report.passed and report.degrees == [1, 2, 3]


def test_verify_chain_map_detects_non_cycle(ring_t):
    bad = CycleMatrix(ring_t, 1, 1, 1)
    bad.entries[(0, 0)] = e(ring_t, 1)  # past the constructor's cycle check
    report = verify_chain_map(bad, range(1, 4))
    assert not report.passed
    assert report.failure is not None


# -- the wedge table against the dict-of-Polynomial references -----------------

PRIMES = [2, 3, 32003, 2147483647]


def reference_koszul_differential(i, ring):
    """d_i as the dict-of-Polynomial loop the wedge table replaced."""
    n = ring.nvars
    ridx = subset_index(n, i - 1)
    entries = {}
    for jcol, S in enumerate(subsets(n, i)):
        for j, v in enumerate(S):
            rest = S[:j] + S[j + 1:]
            f = ring.variable(v - 1).scale((-1) ** j)
            key = (ridx[rest], jcol)
            entries[key] = entries[key] + f if key in entries else f
    return RingMatrix(ring, len(subsets(n, i - 1)), len(subsets(n, i)), entries)


def reference_cycle_matrix_action(theta, i, ring):
    """The wedge action as the dict-of-Polynomial loop the table join
    replaced."""
    n, j = ring.nvars, theta.entry_degree
    src, dst = subsets(n, i - j), subsets(n, i)
    didx = subset_index(n, i)
    nr, nc = len(dst), len(src)
    entries: dict = {}
    for (r, c), z in theta.entries.items():
        for U, f in z.coeffs.items():
            for tcol, T in enumerate(src):
                sign, merged = wedge_sign(U, T)
                if sign == 0:
                    continue
                key = (r * nr + didx[merged], c * nc + tcol)
                g = f.scale(sign)
                entries[key] = entries[key] + g if key in entries else g
    return RingMatrix(ring, theta.rows * nr, theta.cols * nc, entries)


def test_wedge_table_lists_every_basis_product():
    for n in range(1, 5):
        ring = ci_squares_ring(n, 3)
        for j in range(n + 1):
            for i in range(n + 1):
                table = wedge_table(n, j, i)
                assert not table.flags.writeable
                assert table[:, :2].tolist() == sorted(table[:, :2].tolist())
                found = {(u, t): (m, s) for u, t, m, s in table.tolist()}
                for u, U in enumerate(subsets(n, j)):
                    for t, T in enumerate(subsets(n, i)):
                        prod = e(ring, *U).wedge(e(ring, *T))
                        if (u, t) not in found:
                            assert prod.is_zero()
                            continue
                        m, s = found[(u, t)]
                        want = e(ring, *subsets(n, i + j)[m])
                        assert prod == (want if s == 1 else want.scale(-1))


@pytest.mark.parametrize("p", PRIMES)
def test_koszul_differential_matches_reference(p):
    rings = [ci_squares_ring(n, p) for n in range(1, 6)] + [
        class_t_ring(p), QuotientRing(p, 4, [(2, 0, 0, 0), (0, 3, 0, 0),
                                             (0, 0, 2, 0), (0, 0, 0, 4)])]
    for ring in rings:
        for i in range(ring.nvars + 1):
            assert koszul_differential(i, ring) == \
                reference_koszul_differential(i, ring)


def _assert_actions_match_reference(theta, ring):
    for i in range(theta.entry_degree, ring.nvars + 1):
        act = cycle_matrix_action(theta, i)
        assert act == reference_cycle_matrix_action(theta, i, ring), (theta, i)


@pytest.mark.parametrize("p", PRIMES)
def test_class_t_actions_match_reference(p):
    # every alpha, beta, beta' and gamma that assemble_T reads through
    # degree 8, and a matrix of cycles with several subsets and monomials
    # per entry
    ring = class_t_ring(p)
    basis = basis_from_strings(ring, class_t_ring_file().cycles, class_t=True)
    pack = SequencePack(4, 6, 3, k_max=12)
    thetas = [alpha(j, r, pack, basis) for j in range(1, 6) for r in (j, j + 1, j + 2)]
    thetas += [beta(k, basis.triple) for k in range(1, 9)]
    thetas += [beta_prime(k, basis.triple) for k in range(2, 9)]
    thetas += [gamma(j, basis) for j in (1, 2, 3)]
    z = basis.z1[0] + basis.z1[3] + e(ring, 1, 3).differential()
    w = basis.z1[1] - e(ring, 2, 3).differential()
    mixed = CycleMatrix(ring, 2, 2, 1, {(0, 0): z, (0, 1): w, (1, 1): z + w})
    assert max(len(f.terms) for f in z.coeffs.values()) >= 2 and len(z.coeffs) >= 2
    for theta in thetas + [mixed]:
        _assert_actions_match_reference(theta, ring)


@pytest.mark.parametrize("p", PRIMES)
def test_ci_betas_match_reference(p):
    for ring in (ci_squares_ring(3, p),
                 QuotientRing(p, 4, [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0),
                                     (0, 0, 0, 2)])):
        z1 = discover_class_CI_basis(HomologyAlgebra(ring)).z1
        for k in range(1, 5):
            _assert_actions_match_reference(beta(k, z1), ring)
