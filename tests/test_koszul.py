import random

import numpy as np
import pytest

from conftest import cycle_entries, right_inverse_holds, ring_matrix
from koszulres.exactfield import ExactFieldError, QuotientRing, RingMatrix
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
    wedge_table,
)
from koszulres.builder import alpha, beta, beta_prime, gamma
from koszulres.homology import HomologyAlgebra, discover_class_CI_basis
from koszulres.samples import ci_squares_ring, class_t_ring, class_t_ring_file
from koszulres.sequences import SequencePack
from koszulres.verifier import basis_from_strings

rng = random.Random(97)

PRIMES = [2, 3, 32003, 2147483647]


# -- the exponent-dict reference ---------------------------------------------
# An element of K_i is {subset: {exponent tuple: coefficient}}.  Products add
# exponent tuples and drop the sums outside the standard basis (they lie in
# I), and signs count inversions: nothing here reads wedge_table or
# QuotientRing.product.


def ref_sign(U, T):
    """(sign, merged subset) of e_U ^ e_T, or (0, None) when U and T meet."""
    if set(U) & set(T):
        return 0, None
    return (-1) ** sum(u > t for u in U for t in T), tuple(sorted(U + T))


def ref_add(acc, S, m, c):
    f = acc.setdefault(S, {})
    f[m] = f.get(m, 0) + c


def ref_clean(ring, acc):
    """acc with coefficients reduced mod p and zero terms dropped."""
    out = {}
    for S, f in acc.items():
        g = {m: c % ring.p for m, c in f.items() if c % ring.p}
        if g:
            out[S] = g
    return out


def ref_of(z):
    """The exponent dict of a KoszulElement."""
    basis, out = subsets(z.ring.nvars, z.degree), {}
    for t, _, b, c in z.col.terms.tolist():
        out.setdefault(basis[t], {})[z.ring.std_basis[b]] = c
    return out


def element(ring, degree, d):
    """The KoszulElement of an exponent dict; a monomial outside the
    standard basis is zero."""
    idx = subset_index(ring.nvars, degree)
    terms = [(idx[S], 0, ring.basis_index[m], c) for S, f in d.items()
             for m, c in f.items() if m in ring.basis_index]
    return KoszulElement(ring, degree, RingMatrix.from_terms(ring, len(idx), 1, terms))


def ref_wedge(ring, a, b, dropped):
    """a ^ b; dropped[0] counts the monomial products that land in I."""
    acc = {}
    for U, f in a.items():
        for T, g in b.items():
            sign, S = ref_sign(U, T)
            for m1, c1 in f.items() if sign else ():
                for m2, c2 in g.items():
                    m = tuple(x + y for x, y in zip(m1, m2))
                    if m in ring.basis_index:
                        ref_add(acc, S, m, sign * c1 * c2)
                    else:
                        dropped[0] += 1
    return ref_clean(ring, acc)


def ref_differential(ring, a):
    """d(f e_S) = sum_j (-1)^j x_{s_j} f e_{S minus s_j}."""
    acc = {}
    for S, f in a.items():
        for j, v in enumerate(S):
            for m, c in f.items():
                xm = m[:v - 1] + (m[v - 1] + 1,) + m[v:]
                if xm in ring.basis_index:
                    ref_add(acc, S[:j] + S[j + 1:], xm, (-1) ** j * c)
    return ref_clean(ring, acc)


def ref_vector(ring, degree, a):
    D, idx = ring.dim, subset_index(ring.nvars, degree)
    v = np.zeros(len(idx) * D, dtype=np.int64)
    for S, f in a.items():
        for m, c in f.items():
            v[idx[S] * D + ring.basis_index[m]] = c
    return v


def ref_string(ring, degree, a):
    """Terms by subset, then by degree and lexicographically with x > y > z;
    unit coefficients and the monomial 1 left out."""
    parts = []
    for S in subsets(ring.nvars, degree):
        f = a.get(S, {})
        for m in sorted(f, key=lambda m: (sum(m), [-x for x in m])):
            factors = [str(f[m])] if f[m] != 1 else []
            factors += [ring.names[v] + (f"^{x}" if x > 1 else "")
                        for v, x in enumerate(m) if x]
            parts.append("*".join(factors + ["e[" + ",".join(map(str, S)) + "]"]))
    return " + ".join(parts) or "0"


def random_ref(ring, degree, rng, terms=3):
    """An exponent dict of `terms` random standard monomials at random
    subsets, with random nonzero coefficients.  Half the monomials come from
    the ten of lowest degree, so that on a large ring not every product
    lands in I."""
    basis, a = subsets(ring.nvars, degree), {}
    for _ in range(terms):
        b = rng.randrange(ring.dim if rng.random() < 0.5 else min(ring.dim, 10))
        a.setdefault(basis[rng.randrange(len(basis))], {})[ring.std_basis[b]] = \
            rng.randrange(1, ring.p)
    return a


def test_subset_bases(ring_t):
    assert subsets(3, 1) == ((1,), (2,), (3,))
    assert subsets(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert subsets(3, 3) == ((1, 2, 3),)
    assert subsets(3, 4) == ()


def test_wedge_sign_values(ring_t):
    assert e(ring_t, 1).wedge(e(ring_t, 2)) == e(ring_t, 1, 2)
    assert e(ring_t, 2).wedge(e(ring_t, 1)) == -e(ring_t, 1, 2)
    assert e(ring_t, 1).wedge(e(ring_t, 1)).is_zero()
    # two transpositions
    assert e(ring_t, 2, 3).wedge(e(ring_t, 1)) == e(ring_t, 1, 2, 3)
    assert wedge_table(3, 2, 1).tolist() == [[0, 2, 0, 1], [1, 1, 0, -1], [2, 0, 0, 1]]


# -- differentials -----------------------------------------------------------

def test_differential_degree_one(ring_t):
    d1 = koszul_differential(1, ring_t)
    assert (d1.rows, d1.cols) == (1, 3)
    assert [d1.entries[(0, j)] for j in range(3)] == ["x", "y", "z"]


def test_differential_degree_two(ring_t):
    # d(e_12) = -y e_1 + x e_2, d(e_13) = -z e_1 + x e_3, d(e_23) = -z e_2 + y e_3
    assert koszul_differential(2, ring_t) == ring_matrix(ring_t, 3, 3, {
        (0, 0): "-y", (1, 0): "x", (0, 1): "-z", (2, 1): "x", (1, 2): "-z", (2, 2): "y"})


def test_differential_degree_three(ring_t):
    # basis (e_12, e_13, e_23): d(e_123) = z e_12 - y e_13 + x e_23
    assert koszul_differential(3, ring_t) == ring_matrix(
        ring_t, 3, 1, {(0, 0): "z", (1, 0): "-y", (2, 0): "x"})


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
    return element(ring, degree, random_ref(ring, degree, rng, terms))


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
        CycleMatrix(ring_t, 1, 1, 1, [e(ring_t, 1)], [(0, 0, 0)])


@pytest.mark.parametrize("where, message", [
    ([(0, 1, 0), (0, 1, 1)], r"entry \(0,1\) is given twice"),
    ([(1, 0, 0), (0, 0, 1), (1, 0, 1)], r"entry \(1,0\) is given twice"),
    ([(2, 0, 0)], "outside 2x3"),
    ([(0, 3, 0)], "outside 2x3"),
    ([(-1, 0, 0)], "outside 2x3"),
    ([(0, 0, 2)], "and 2 cycles"),
])
def test_cycle_matrix_refuses_bad_index(ring_t, basis_t, where, message):
    with pytest.raises(KoszulError, match=message):
        CycleMatrix(ring_t, 2, 3, 1, basis_t.z1[:2], where)


def test_cycle_matrix_index_form(ring_t, basis_t):
    # rows come back sorted by (row, column), and the entries of a zero
    # cycle are dropped
    zero = KoszulElement(ring_t, 1)
    z = basis_t.z1
    theta = CycleMatrix(ring_t, 2, 3, 1, [z[0], zero, z[1]],
                        [(1, 2, 2), (0, 1, 1), (1, 0, 0), (0, 2, 0)])
    assert theta.where.dtype == np.int64
    assert theta.where.tolist() == [[0, 2, 0], [1, 0, 0], [1, 2, 2]]
    assert cycle_entries(theta) == {(0, 2): z[0], (1, 0): z[0], (1, 2): z[1]}
    with pytest.raises(KoszulError, match="has degree 2, expected 1"):
        CycleMatrix(ring_t, 1, 1, 1, [basis_t.z2[0]], [(0, 0, 0)])


def test_cycle_matrix_action_row_of_cycles(ring_t, basis_t):
    theta = CycleMatrix(ring_t, 1, 4, 1, basis_t.z1, [(0, j, j) for j in range(4)])
    act = cycle_matrix_action(theta, 1)
    assert (act.rows, act.cols) == (3, 4)
    # unit vectors map to x e_1, y e_2, z e_3, yz e_1
    for j, want in enumerate(["x*e[1]", "y*e[2]", "z*e[3]", "y*z*e[1]"]):
        col = act.terms[act.terms[:, 1] == j] * [1, 0, 1, 1]
        assert KoszulElement(ring_t, 1, RingMatrix.from_terms(ring_t, 3, 1, col)) == \
            parse_koszul_element(want, ring_t)


def test_cycle_matrix_action_zero_and_top(ring_t, basis_t):
    Z = CycleMatrix(ring_t, 2, 3, 1, (), ())
    assert cycle_matrix_action(Z, 2).is_zero()
    g3 = CycleMatrix(ring_t, 1, 3, 3, basis_t.z3, [(0, j, j) for j in range(3)])
    act = cycle_matrix_action(g3, 3)
    assert (act.rows, act.cols) == (1, 3)
    vals = [act.entries[(0, j)] for j in range(3)]
    assert vals == ["y*z", "x*z", "x*y"]


def test_action_respects_matrix_product(ring_t, basis_t, pack_t):
    # action(theta theta') = action(theta) action(theta') on beta_k beta'_{k+1},
    # whose product is vol * I
    assert right_inverse_holds(basis_t.triple, 2)


def test_verify_chain_map_alpha(ring_t, basis_t, pack_t):
    theta = alpha(1, 1, pack_t, basis_t)
    report = verify_chain_map(theta, range(1, 4))
    assert report.passed and report.degrees == [1, 2, 3]


def test_verify_chain_map_detects_non_cycle(ring_t):
    bad = CycleMatrix(ring_t, 1, 1, 1, (), ())
    # past the constructor's cycle check
    bad.cycles, bad.where = (e(ring_t, 1),), np.array([[0, 0, 0]])
    report = verify_chain_map(bad, range(1, 4))
    assert not report.passed
    assert report.failure is not None


# -- element arithmetic against the exponent-dict reference -------------------

ACIT_GENS = [(9, 0, 0), (0, 8, 0), (0, 0, 7), (3, 3, 3)]  # dim 384
CROSS_RINGS = {
    "classT": class_t_ring,
    "ci3": lambda p: ci_squares_ring(3, p),
    "acit": lambda p: QuotientRing(p, 3, ACIT_GENS, names=["x", "y", "z"]),
}


def _reordered(ring, perm):
    """The same ring with its variables listed in the order perm."""
    return QuotientRing(ring.p, ring.nvars,
                        [tuple(g[v] for v in perm) for g in ring.ideal_gens],
                        names=[ring.names[v] for v in perm])


@pytest.mark.parametrize("perm", [(0, 1, 2), (2, 0, 1)])
@pytest.mark.parametrize("name", sorted(CROSS_RINGS))
@pytest.mark.parametrize("p", PRIMES)
def test_element_arithmetic_matches_reference(p, name, perm):
    # seeded random elements of every degree pair: mostly non-cycles, some
    # products landing in I and some degree overflows past K_n
    ring = _reordered(CROSS_RINGS[name](p), perm)
    n, local = ring.nvars, random.Random(f"{p} {name} {perm}")
    dropped, overflows, non_cycles = [0], 0, 0
    for _ in range(60):
        i, j = local.randrange(n + 1), local.randrange(n + 1)
        a, b = random_ref(ring, i, local), random_ref(ring, j, local)
        z, w = element(ring, i, a), element(ring, j, b)
        prod = z.wedge(w)
        if i + j > n:
            overflows += 1
            assert prod.degree == n and prod.is_zero()
        else:
            assert prod.degree == i + j and ref_of(prod) == ref_wedge(ring, a, b, dropped)
        da = ref_differential(ring, a)
        if i:
            assert ref_of(z.differential()) == da
        assert z.is_cycle() == (not da)
        non_cycles += not da
        v = z.to_vector()
        assert (v == ref_vector(ring, i, a)).all()
        assert KoszulElement.from_vector(ring, i, v) == z
        assert KoszulElement.from_vector(ring, i, v + 3 * ring.p) == z
        text = z.to_string()
        assert text == ref_string(ring, i, a)
        assert parse_koszul_element(text, ring) == z
        assert parse_koszul_element(text, ring).to_string() == text
    assert dropped[0] and overflows and non_cycles


def reference_koszul_differential(i, ring):
    """d_i from d(e_S) = sum_j (-1)^j x_{s_j} e_{S minus s_j}."""
    n = ring.nvars
    ridx = subset_index(n, i - 1)
    terms = []
    for jcol, S in enumerate(subsets(n, i)):
        for j, v in enumerate(S):
            x = tuple(int(u == v - 1) for u in range(n))
            terms.append((ridx[S[:j] + S[j + 1:]], jcol, ring.basis_index[x], (-1) ** j))
    return RingMatrix.from_terms(ring, len(subsets(n, i - 1)), len(subsets(n, i)), terms)


def reference_cycle_matrix_action(theta, i, ring):
    """The wedge action, one term per (entry term, source basis element)."""
    n, j = ring.nvars, theta.entry_degree
    src, dst = subsets(n, i - j), subsets(n, i)
    didx = subset_index(n, i)
    nr, nc = len(dst), len(src)
    terms = []
    for (r, c), z in cycle_entries(theta).items():
        for U, f in ref_of(z).items():
            for tcol, T in enumerate(src):
                sign, merged = ref_sign(U, T)
                for m, a in f.items() if sign else ():
                    terms.append((r * nr + didx[merged], c * nc + tcol,
                                  ring.basis_index[m], sign * a))
    return RingMatrix.from_terms(ring, theta.rows * nr, theta.cols * nc, terms)


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
    thetas += [beta_prime(k, basis) for k in range(2, 9)]
    thetas += [gamma(j, basis) for j in (1, 2, 3)]
    z = basis.z1[0] + basis.z1[3] + e(ring, 1, 3).differential()
    w = basis.z1[1] - e(ring, 2, 3).differential()
    mixed = CycleMatrix(ring, 2, 2, 1, [z, w, z + w], [(0, 0, 0), (0, 1, 1), (1, 1, 2)])
    assert max(len(f) for f in ref_of(z).values()) >= 2 and len(ref_of(z)) >= 2
    for theta in thetas + [mixed]:
        _assert_actions_match_reference(theta, ring)


@pytest.mark.parametrize("p", PRIMES)
def test_ci_betas_match_reference(p):
    for ring in (ci_squares_ring(3, p),
                 QuotientRing(p, 4, [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0),
                                     (0, 0, 0, 2)])):
        z1 = discover_class_CI_basis(HomologyAlgebra(ring))[0].z1
        for k in range(1, 5):
            _assert_actions_match_reference(beta(k, z1), ring)
