import ast
import itertools
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import box_std_basis, flatten, mod_matmul, ring_matrix, same_matrix
from koszulres.builder import assemble_T
from koszulres.exactfield import (
    MAX_CHARACTERISTIC,
    ExactFieldError,
    QuotientRing,
    RingMatrix,
    block_terms,
    kernel_mod,
    parse_ring_file,
    rank_mod,
    rref_mod,
    serialize_ring_file,
    solve_mod,
)
from koszulres.samples import class_t_ring, class_t_ring_file
from koszulres.verifier import basis_from_strings

rng = random.Random(20240611)


# -- quotient ring -----------------------------------------------------------

def test_std_basis_class_t(ring_t):
    assert ring_t.std_strings == ["1", "x", "y", "z", "x*y", "x*z", "y*z"]
    assert ring_t.dim == 7


def test_std_basis_small_rings():
    r1 = QuotientRing(32003, 1, [(2,)], names=["x"])
    assert [sum(m) for m in r1.std_basis] == [0, 1]
    r2 = QuotientRing(32003, 2, [(2, 0), (0, 2)], names=["x", "y"])
    assert len(r2.std_basis) == 4
    assert set(r2.std_basis) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_std_basis_matches_box_filter():
    # random Artinian monomial ideals in up to 4 variables, with mixed
    # generators whose supports end at every variable
    sweep = random.Random(20261019)
    for _ in range(300):
        n = sweep.randint(1, 4)
        gens = [tuple(sweep.randint(1, 6) * (u == v) + (u == v) for u in range(n))
                for v in range(n)]
        gens += [g for g in (tuple(sweep.randint(0, 4) for _ in range(n))
                             for _ in range(sweep.randint(0, 5))) if sum(g) >= 2]
        ring = QuotientRing(7, n, gens)
        assert ring.std_basis == box_std_basis(ring), gens
        # digit v of a code has radix 2 * bound_v - 1, bound_v the least
        # pure power of x_v among the generators
        bounds = [min(g[v] for g in gens if sum(g) == g[v]) for v in range(n)]
        weights = np.cumprod([1] + [2 * b - 1 for b in bounds])[:-1]
        E = np.array(ring.std_basis).reshape(ring.dim, n)
        assert np.array_equal(ring.codes, E @ weights)


def test_std_basis_memory_follows_dim_not_box():
    # D = 5999 in a box of 9 M points: filtering the box peaks near 172 MiB
    tracemalloc.start()
    try:
        ring = QuotientRing(32003, 2, [(3000, 0), (0, 3000), (1, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ring.dim == 5999
    assert peak < 8 * 2 ** 20


def reference_ring(p, n, gens, names):
    """(ideal_gens, pure bounds, std_basis, repr, hash) of the ring by plain
    loops over exponent tuples: sort by degree, then x > y > z; keep each
    generator that no kept one divides; take the standard basis from the
    box below the pure powers."""
    def key(m):
        return sum(m), [-e for e in m]

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    minimal = []
    for g in sorted(set(gens), key=key):
        if not any(divides(h, g) for h in minimal):
            minimal.append(g)
    bounds = [min(g[v] for g in minimal if sum(g) == g[v]) for v in range(n)]
    box = itertools.product(*(range(b) for b in bounds))
    std = sorted((m for m in box if not any(divides(g, m) for g in minimal)), key=key)
    printed = ["*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(names, g) if e)
               for g in minimal]
    return (minimal, bounds, std, f"F_{p}[{', '.join(names)}]/({', '.join(printed)})",
            hash((p, n, tuple(minimal), tuple(names))))


def test_ring_construction_matches_plain_loops():
    # seeded generator lists with repeats and non-minimal multiples, in
    # shuffled order, in 1-4 variables, and the field ring
    sweep = random.Random(20261022)
    cases = [(0, [])]
    for _ in range(200):
        n = sweep.randint(1, 4)
        gens = [tuple(sweep.randint(2, 6) * (u == v) for u in range(n)) for v in range(n)]
        gens += [tuple(sweep.randint(0, 3) for _ in range(n)) for _ in range(sweep.randint(0, 6))]
        gens = [g for g in gens if sum(g) >= 2]
        gens += [tuple(e + sweep.randint(0, 2) for e in sweep.choice(gens)) for _ in range(3)]
        gens += sweep.choices(gens, k=3)
        cases.append((n, gens))
    for n, gens in cases:
        names = ["x", "y", "z", "w"][:n]
        want = reference_ring(5, n, gens, names)
        for _ in range(2):
            sweep.shuffle(gens)
            ring = QuotientRing(5, n, gens, names=names)
            got = (ring.ideal_gens, ring._pure_bounds, ring.std_basis, repr(ring), hash(ring))
            assert got == want, gens


def test_ring_construction_builds_no_generator_by_generator_array():
    # the 3003 monomials of degree 76 in x, y, z with 26 repeats and 26
    # redundant multiples: g = 3055 generators, for which one g x g x n
    # comparison array of bools would take 28 MB
    deg76 = [(a, b, 76 - a - b) for a in range(77) for b in range(77 - a)]
    gens = deg76 + deg76[::120] + [(a + 1, b, c + 2) for a, b, c in deg76[::120]]
    tracemalloc.start()
    try:
        ring = QuotientRing(32003, 3, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(gens), len(ring.ideal_gens), ring.dim) == (3055, 3003, 76076)
    assert ring.ideal_gens == sorted(deg76, key=lambda m: [-e for e in m])
    assert peak < len(gens) ** 2 * 3


def test_ring_with_no_variables_is_the_field():
    F = QuotientRing(7, 0, ())
    assert (F.dim, F.std_basis, F.std_strings) == (1, [()], ["1"])
    M = RingMatrix.from_terms(F, 2, 2, [(0, 0, 0, 3), (1, 0, 0, 9), (1, 1, 0, 7)])
    assert dict(M.entries) == {(0, 0): "3", (1, 0): "2"}
    assert np.array_equal(flatten(M @ M), mod_matmul(flatten(M), flatten(M), 7))
    with pytest.raises(ExactFieldError, match="nonempty"):
        parse_ring_file("characteristic = 7\nvariables =\nideal =\n")


def test_entries_name_variables_like_their_ring():
    ring = QuotientRing(7, 4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
    M = ring_matrix(ring, 1, 1, {(0, 0): "3*x4 + 1"})
    assert dict(M.entries) == {(0, 0): "1 + 3*x4"}


def test_non_artinian_rejected():
    with pytest.raises(ExactFieldError, match="z"):
        QuotientRing(32003, 3, [(2, 0, 0), (0, 2, 0), (1, 1, 1)],
                     names=["x", "y", "z"])


def test_exponent_past_the_limit_rejected():
    # refused before the generators are minimalized or the ring is checked
    # for pure powers, so also on a redundant generator or a non-Artinian ideal
    for gens in ([(2, 0), (0, 2), (1, 2 ** 31)], [(2, 0), (0, 2 ** 64)],
                 [(2, 0, 0), (0, 2 ** 70, 0)]):
        with pytest.raises(ExactFieldError, match=r"is too large \(the limit is 2\^31 - 1\)"):
            QuotientRing(5, len(gens[0]), gens)
    assert QuotientRing(5, 2, [(2, 0), (0, 2), (1, 2 ** 31 - 1)]).ideal_gens == [(2, 0), (0, 2)]


def test_ideal_with_variable_rejected():
    with pytest.raises(ExactFieldError, match="variable 'y'"):
        QuotientRing(5, 3, [(2, 0, 0), (0, 1, 0), (0, 0, 2)])
    # also when a multiple of the variable is listed first
    with pytest.raises(ExactFieldError, match="variable 'z'"):
        QuotientRing(5, 3, [(2, 0, 0), (0, 2, 0), (0, 0, 3), (0, 0, 1)],
                     names=["x", "y", "z"])


def test_normal_form_examples(ring_t):
    # x^2 lies in I, so x * x is zero in R, and x * (x + y) reduces to x*y
    x = ring_t.basis_index[(1, 0, 0)]
    assert ring_t.product(x, x) == -1
    prod = (ring_matrix(ring_t, 1, 1, {(0, 0): "x"})
            @ ring_matrix(ring_t, 1, 1, {(0, 0): "x + y"}))
    assert dict(prod.entries) == {(0, 0): "x*y"}
    assert (2, 0, 0) not in ring_t.basis_index and (1, 1, 1) not in ring_t.basis_index


# -- flatten -----------------------------------------------------------------

def test_flatten_multiplication_by_x(ring_t):
    M = ring_matrix(ring_t, 1, 1, {(0, 0): "x"})
    flat = flatten(M)
    assert flat.shape == (7, 7)
    # brute-force mult table: column j is x * (j-th standard monomial)
    for j, m in enumerate(ring_t.std_basis):
        expected = np.zeros(7, dtype=np.int64)
        prod = (m[0] + 1,) + m[1:]
        if prod in ring_t.basis_index:
            expected[ring_t.basis_index[prod]] = 1
        assert (flat[:, j] == expected).all()
    assert rank_mod(flat, ring_t.p) == 3  # images x, x*y, x*z


def test_flatten_zero_and_identity(ring_t):
    Z = RingMatrix.from_terms(ring_t, 2, 3, ())
    assert not flatten(Z).any()
    I = ring_matrix(ring_t, 2, 2, {(0, 0): "1", (1, 1): "1"})
    assert (flatten(I) == np.eye(14, dtype=np.int64)).all()


PRIMES = [2, 3, 32003, 2147483647]


def entry_dicts(M):
    """{(i, j): {exponent tuple: coefficient}} of a RingMatrix."""
    out: dict = {}
    for i, j, b, c in M.terms.tolist():
        out.setdefault((i, j), {})[M.ring.std_basis[b]] = c
    return out


def reference_product(A, B):
    """The product the term-array product replaced: exponent tuples of the
    entries added, the sums outside the standard basis dropped."""
    ring = A.ring
    by_row: dict = {}
    for (t, c), g in entry_dicts(B).items():
        by_row.setdefault(t, []).append((c, g))
    terms = []
    for (r, t), f in entry_dicts(A).items():
        for c, g in by_row.get(t, ()):
            for m1, c1 in f.items():
                for m2, c2 in g.items():
                    m = tuple(x + y for x, y in zip(m1, m2))
                    if m in ring.basis_index:
                        terms.append((r, c, ring.basis_index[m], c1 * c2 % ring.p))
    return RingMatrix.from_terms(ring, A.rows, B.cols, terms)


def test_flatten_functorial():
    for p in PRIMES:
        ring = class_t_ring(p)
        for _ in range(10):
            A = _random_ring_matrix(ring, 2, 3)
            B = _random_ring_matrix(ring, 3, 2)
            left = flatten(A @ B)
            right = mod_matmul(flatten(A), flatten(B), p)
            assert (left % p == right).all()


def _random_ring_matrix(ring, rows, cols, terms=3):
    """Each entry, with probability 0.7, a sum of `terms` random terms."""
    out = [(i, j, rng.randrange(ring.dim), rng.randrange(ring.p))
           for i in range(rows) for j in range(cols) if rng.random() < 0.7
           for _ in range(terms)]
    return RingMatrix.from_terms(ring, rows, cols, out)


def test_ring_matrix_product_associative():
    for p in PRIMES:
        ring = class_t_ring(p)
        A = _random_ring_matrix(ring, 2, 2)
        B = _random_ring_matrix(ring, 2, 2)
        C = _random_ring_matrix(ring, 2, 2)
        assert same_matrix((A @ B) @ C, A @ (B @ C))


def test_block_terms_matches_per_copy_loop():
    ring = class_t_ring(7)
    mats = [_random_ring_matrix(ring, 2, 3), RingMatrix.from_terms(ring, 1, 2, ()),
            _random_ring_matrix(ring, 3, 1)]
    assert len(mats[0].terms) and len(mats[2].terms)
    k = np.array([0, 1, 2, 0, 2])
    r0 = np.array([0, 4, 1, 9, 2])
    copies = np.array([3, 1, 0, 1, 3])
    sign = np.array([1, -1, 1, -1, -1])
    cases = [(k, r0, 5, copies, sign),           # array and scalar mixed
             (k, 0, np.arange(5), 3, -1),         # scalar copies and sign
             (2, 1, 2, 3, 1),                     # one placement, all scalars
             (np.array([1, 1]), 0, 0, 3, 1)]      # only the matrix with no terms
    for args in cases:
        want = []
        for q, (kq, rq, cq, nq, sq) in enumerate(np.broadcast(*args)):
            M = mats[kq]
            for t in range(nq):
                for i, j, b, c in M.terms.tolist():
                    want.append((i + rq + t * M.rows, j + cq + t * M.cols, b, sq * c))
        got = block_terms(mats, *args)
        assert got.dtype == np.int64
        assert sorted(map(tuple, got.tolist())) == sorted(want), args
    assert block_terms(mats, np.zeros(0, dtype=np.int64), 0, 0, 1, 1).shape == (0, 4)


# rings whose standard bases are not symmetric in the variables, the second
# with mixed generators in four variables
PRODUCT_RINGS = [
    (3, [(4, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)]),
    (4, [(3, 0, 0, 0), (0, 4, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3), (1, 1, 0, 1), (0, 2, 1, 0)]),
]


def _monomial_products(ring):
    """{(a, b): index of std_a * std_b, or -1}, from the exponent tuples."""
    return {(a, b): ring.basis_index.get(tuple(x + y for x, y in zip(ma, mb)), -1)
            for a, ma in enumerate(ring.std_basis) for b, mb in enumerate(ring.std_basis)}


def test_product_table_matches_monomial_products():
    for n, gens in PRODUCT_RINGS:
        ring = QuotientRing(3, n, gens)
        for (a, b), m in _monomial_products(ring).items():
            assert ring.product(a, b) == m
        # and vectorized, over all pairs at once
        a, b = np.divmod(np.arange(ring.dim ** 2), ring.dim)
        assert ring.product(a, b).tolist() == list(_monomial_products(ring).values())


def test_multiples_list_each_standard_product_once():
    # the class-T ring, a two-variable ring with a mixed generator and k[x]/(x^6)
    for n, gens in PRODUCT_RINGS + [(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]),
                                    (2, [(5, 0), (0, 3), (2, 2)]), (1, [(6,)])]:
        ring = QuotientRing(3, n, gens)
        b, a, m = ring.multiples(np.arange(ring.dim))
        assert (np.diff(b) >= 0).all()
        expected = sorted((b, a, m) for (a, b), m in _monomial_products(ring).items()
                          if m >= 0)
        assert list(zip(b.tolist(), a.tolist(), m.tolist())) == expected


def _box_ring_x7():
    # (x^7, y^7, z^7, w^7): dim 2401, 28^4 nonzero products; the multiples
    # are worked out 2^18 // 2401 = 109 b at a time
    return QuotientRing(32003, 4, [tuple(7 * (u == v) for u in range(4)) for v in range(4)])


def test_multiples_across_chunks():
    ring = _box_ring_x7()
    E = np.array(ring.std_basis)
    index = np.full((7,) * 4, -1)
    index[tuple(E.T)] = np.arange(ring.dim)
    for bs in (np.arange(ring.dim), np.arange(1, ring.dim, 3)):
        b, a, m = ring.multiples(bs)
        assert (np.diff(b) >= 0).all()
        assert np.array_equal(np.bincount(b, minlength=ring.dim)[bs], (7 - E[bs]).prod(axis=1))
        for k in sorted({0, len(bs) - 1} | {c + d for c in range(109, len(bs), 109)
                                             for d in (-1, 0)}):
            mine = b == bs[k]
            a_ref = ((E + E[bs[k]]) < 7).all(axis=1).nonzero()[0]
            assert np.array_equal(a[mine], a_ref)
            assert np.array_equal(m[mine], index[tuple((E[a_ref] + E[bs[k]]).T)])


def test_flat_nonzeros_of_d1_work_in_memory_of_its_terms():
    # d_1 of a fresh ring has four distinct b, each with 6 * 7^3 multiples;
    # the products of all 2401 monomials would be 28^4 (b, a, m) rows, 14 MB
    ring = _box_ring_x7()
    d1 = RingMatrix.from_terms(ring, 1, 4, [(0, v, 1 + v, 1) for v in range(4)])
    tracemalloc.start()
    try:
        r, c, v = d1._flat_nonzeros()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(v) == 4 * 6 * 7 ** 3
    assert peak < 2 * 2 ** 20


def test_products_of_every_monomial_hold_no_dim_squared_array():
    # one dense dim x dim int64 table would take 46 MB.  The multiples of
    # every b are 28^4 (b, a, m) rows, 14 MB; flattening a matrix with a
    # term of every b holds them, the join and its three outputs, 8 arrays
    # of 28^4 int64 (38 MB)
    ring = _box_ring_x7()
    M = RingMatrix.from_terms(ring, 1, 1, [(0, 0, b, 1) for b in range(ring.dim)])
    tracemalloc.start()
    try:
        products = ring.multiples(np.arange(ring.dim))
        peak = tracemalloc.get_traced_memory()[1]
        del products
        tracemalloc.reset_peak()
        r, c, v = M._flat_nonzeros()
        flat_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(v) == 28 ** 4
    assert peak < 0.6 * ring.dim ** 2 * 8
    assert flat_peak < ring.dim ** 2 * 8


def test_one_monomial_product_in_src():
    src = Path(__file__).resolve().parents[1] / "src"
    assert not any("nonzero_products" in p.read_text() for p in src.rglob("*.py"))
    # every product of monomials is one addition lookup: the code lookup is
    # called from QuotientRing.product only
    callers = []
    for path in src.rglob("*.py"):
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef):
                callers += [f.name for call in ast.walk(f) if isinstance(call, ast.Call)
                            and getattr(call.func, "attr", None) == "_index_of_code"]
    assert callers == ["product"]
    assert sum(p.read_text().count("_index_of_code(") for p in src.rglob("*.py")) == 2


def test_no_id_call_in_src():
    # a dict keyed by id() must also keep its objects alive; the cycles,
    # elements and matrices hash by identity, so they are the keys themselves
    src = Path(__file__).resolve().parents[1] / "src"
    calls = [f"{path.name}:{call.lineno}" for path in src.rglob("*.py")
             for call in ast.walk(ast.parse(path.read_text()))
             if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "id"]
    assert calls == []


@pytest.mark.parametrize("p", PRIMES)
def test_product_matches_reference_random(p):
    # the class-T ring and a larger ring whose standard basis is not
    # symmetric in x, y, z
    most_terms = 0
    for ring in (class_t_ring(p),
                 QuotientRing(p, 3, [(4, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)])):
        for rows, inner, cols in ((1, 1, 1), (3, 4, 2), (5, 2, 6)):
            A = _random_ring_matrix(ring, rows, inner, terms=5)
            B = _random_ring_matrix(ring, inner, cols, terms=5)
            assert same_matrix(A @ B, reference_product(A, B))
            most_terms = max([most_terms] + [len(f) for f in entry_dicts(A).values()])
    assert most_terms >= 3


@pytest.mark.parametrize("p", PRIMES)
def test_product_matches_reference_on_differentials(p):
    # the class-T resolution (d^2 = 0), the wrong diagonal sign (nonzero
    # products) and a two-term degree-1 cycle (multi-term entries)
    ring = class_t_ring(p)
    cycles_t = class_t_ring_file().cycles
    for cycles, sign_flip in ((cycles_t, False), (cycles_t, True),
                              (dict(cycles_t, z1_1="x*e[1] + y*e[2]"), False)):
        F = assemble_T(ring, basis_from_strings(ring, cycles, class_t=True), 5,
                       sign_flip=sign_flip)
        nonzero = False
        for i in range(1, F.i_max):
            prod = F.diff(i) @ F.diff(i + 1)
            assert same_matrix(prod, reference_product(F.diff(i), F.diff(i + 1)))
            nonzero |= not prod.is_zero()
        # signs are invisible in characteristic 2
        assert nonzero == (sign_flip and p != 2)


@pytest.mark.parametrize("p", PRIMES)
def test_entries_round_trip(p):
    # the printed entries parse back to the matrix
    ring = class_t_ring(p)
    for M in (_random_ring_matrix(ring, 4, 3, terms=5), RingMatrix.from_terms(ring, 2, 2, ()),
              ring_matrix(ring, 3, 3, {(i, i): "1" for i in range(3)})):
        assert same_matrix(ring_matrix(ring, M.rows, M.cols, M.entries), M)
    with pytest.raises(TypeError):
        M.entries[(0, 0)] = "1"  # a read-only view


# -- linear algebra ----------------------------------------------------------

def test_rank_trivial_cases():
    I3 = np.eye(3, dtype=np.int64)
    assert rank_mod(I3, 32003) == 3
    assert kernel_mod(I3, 32003)[0].shape == (3, 0)
    Z = np.zeros((3, 3), dtype=np.int64)
    assert rank_mod(Z, 32003) == 0
    assert kernel_mod(Z, 32003)[0].shape == (3, 3)


def _reference_rref(A, p):
    """Gauss-Jordan elimination on Python ints: the reference the int64
    eliminator is checked against."""
    rows, cols = A.shape
    M = [[int(x) % p for x in row] for row in A.tolist()]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        t = next((i for i in range(r, rows) if M[i][c]), None)
        if t is None:
            continue
        M[r], M[t] = M[t], M[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [x * inv % p for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        pivots.append(c)
    return M, pivots


def _py_matmul(A, B, p):
    """(A @ B) mod p on Python ints (object dtype)."""
    return (np.asarray(A).astype(object) @ np.asarray(B).astype(object)) % p


def _eliminator_cases(p):
    """Seeded shapes: empty, low-rank products, tall, wide, and matrices of
    entries p-1 (the largest int64 products)."""
    nprng = np.random.default_rng(p % 1000003)

    def rand(m, n, lo=0):
        return nprng.integers(lo, p, size=(m, n), dtype=np.int64)

    def low_rank(m, k, n, lo=0):
        return _py_matmul(rand(m, k, lo), rand(k, n, lo), p).astype(np.int64)

    full = np.full((6, 7), p - 1, dtype=np.int64)
    mixed = (p - 1) * nprng.integers(0, 2, size=(9, 11), dtype=np.int64)
    return [np.zeros((0, 5), dtype=np.int64), np.zeros((4, 0), dtype=np.int64),
            low_rank(12, 3, 15), low_rank(20, 5, 9), low_rank(8, 4, 8, lo=p - 2),
            rand(40, 3), rand(3, 40), full, mixed, np.vstack([full, -full])]


@pytest.mark.parametrize("p", [2, 3, 5, 32003, 2147483647, 3037000493])
def test_rank_nullity_and_pivot_agreement(p):
    """rref_mod, rank_mod, kernel_mod and solve_mod against Python ints."""
    nprng = np.random.default_rng(5)
    for A in _eliminator_cases(p):
        m, n = A.shape
        R_ref, piv_ref = _reference_rref(A, p)
        R, piv = rref_mod(A, p)
        assert piv == piv_ref
        assert R.tolist() == R_ref
        assert rank_mod(A, p) == len(piv_ref)
        K, free = kernel_mod(A, p)
        free_ref = [c for c in range(n) if c not in piv_ref]
        K_ref = [[int(c == fc) for fc in free_ref] for c in range(n)]
        for r, pc in enumerate(piv_ref):
            K_ref[pc] = [-R_ref[r][fc] % p for fc in free_ref]
        assert K.shape == (n, len(free_ref))
        assert K.tolist() == K_ref
        # free names the non-pivot columns, where each vector is 1 at its own
        # and 0 at the others
        assert free.tolist() == free_ref
        for k in range(len(free_ref)):
            assert K[free[k], k] == 1
            assert all(K[free[j], k] == 0 for j in range(len(free_ref)) if j != k)
        assert not _py_matmul(A, K, p).any()
        x = nprng.integers(0, p, size=n, dtype=np.int64)
        b = _py_matmul(A, x, p).astype(np.int64)
        got = solve_mod(A, b, p)
        assert got is not None
        assert (_py_matmul(A, got, p) == b).all()
        if len(piv_ref) < m:
            # a random right-hand side: solvable exactly when the reference
            # puts no pivot in the appended column
            e = nprng.integers(0, p, size=m, dtype=np.int64)
            solvable = n not in _reference_rref(np.column_stack([A, e]), p)[1]
            assert (solve_mod(A, e, p) is not None) == solvable


def test_characteristic_bound():
    assert MAX_CHARACTERISTIC == 3037000499
    assert (MAX_CHARACTERISTIC - 1) ** 2 < 2 ** 63 <= (3037000507 - 1) ** 2
    with pytest.raises(ExactFieldError, match="3037000499"):
        rref_mod(np.eye(2, dtype=np.int64), 3037000507)
    with pytest.raises(ExactFieldError, match="3037000499"):
        QuotientRing(3037000507, 1, [(2,)], names=["x"])
    assert QuotientRing(3037000493, 1, [(2,)], names=["x"]).p == 3037000493


def test_solve_mod_roundtrip():
    p = 101
    nprng = np.random.default_rng(3)
    A = nprng.integers(0, p, size=(6, 4)).astype(np.int64)
    x = nprng.integers(0, p, size=4).astype(np.int64)
    b = mod_matmul(A, x[:, None], p)[:, 0]
    got = solve_mod(A, b, p)
    assert got is not None
    assert (mod_matmul(A, got[:, None], p)[:, 0] == b).all()
    # inconsistent system
    A0 = np.zeros((2, 2), dtype=np.int64)
    assert solve_mod(A0, np.array([1, 0]), p) is None


def test_solve_mod_returns_x_in_the_shape_of_b():
    I2 = np.eye(2, dtype=np.int64)
    assert solve_mod(I2, [[1], [2]], 7).tolist() == [[1], [2]]
    assert solve_mod(I2, [1, 2], 7).tolist() == [1, 2]
    # several right-hand sides at once: each column solved on its own
    A = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int64)
    X = np.array([[1, 0, 6], [2, 5, 3]], dtype=np.int64)
    B = mod_matmul(A, X, 7)
    assert solve_mod(A, B, 7).tolist() == X.tolist()
    assert solve_mod(A, np.c_[B, [1, 0, 0]], 7) is None
    assert solve_mod(A, np.zeros((3, 0), dtype=np.int64), 7).shape == (2, 0)


def test_mod_matmul_matches_python_ints():
    p = 32003
    nprng = np.random.default_rng(11)
    A = nprng.integers(0, p, size=(7, 9)).astype(np.int64)
    B = nprng.integers(0, p, size=(9, 5)).astype(np.int64)
    want = (A.astype(object) @ B.astype(object)) % p
    assert (mod_matmul(A, B, p) == want.astype(np.int64)).all()


# -- ring files --------------------------------------------------------------

CANONICAL = """characteristic = 32003
variables = x, y, z
ideal = x^2, y^2, z^2, x*y*z
mode = T
max_degree = 7
series_order = 10

[cycles]
z1_1 = x*e[1]
z1_2 = y*e[2]
"""


def test_ring_file_roundtrip_canonical():
    rf = parse_ring_file(CANONICAL)
    assert serialize_ring_file(rf) == CANONICAL
    rf2 = parse_ring_file(serialize_ring_file(rf))
    assert rf2 == rf


def test_ring_file_normalizes_monomials():
    rf = parse_ring_file("characteristic = 7\nvariables = x, y\nideal = x*x, y^2\n")
    assert rf.ideal == ["x^2", "y^2"]


@pytest.mark.parametrize("text,msg", [
    ("variables = x\nideal = x^2\n", "characteristic"),
    ("characteristic = 7\nvariables = x\nideal = x^2\nbogus = 1\n", "unknown key"),
    ("characteristic = 7\nvariables = x\nideal = x^2\nmode = Z\n", "mode"),
    ("characteristic = 7\nvariables = x, x\nideal = x^2\n", "distinct"),
    ("characteristic = 7\nvariables = x\nideal = x^2\nideal = x^3\n", "duplicate"),
    ("characteristic = 7\nvariables = x\nideal = x^2\nmax_degree = abc\n",
     "max_degree must be an integer"),
    ("characteristic = 7\nvariables = x\nideal = x^2\nseries_order = 1.5\n",
     "series_order must be an integer"),
    # names the monomial and cycle grammars cannot read back: with 2 as a
    # variable, the cycle 2*e[1] would be read as the coefficient 2
    ("characteristic = 7\nvariables = x, 2, z\nideal = x^2\n", "bad variable name '2'"),
    ("characteristic = 7\nvariables = a-b, c\nideal = c^2\n", "bad variable name 'a-b'"),
    ("characteristic = 7\nvariables = y z, w\nideal = w^2\n", "bad variable name 'y z'"),
    ("characteristic = 7\nvariables = x, 1y\nideal = x^2\n", "bad variable name '1y'"),
    ("characteristic = 7\nvariables = x, \u00e9\nideal = x^2\n", "bad variable name '\u00e9'"),
    ("characteristic = 7\nvariables = x, y\nideal = x^a, y^2\n",
     r"bad exponent in monomial 'x\^a'"),
    ("characteristic = 7\nvariables = x, y\nideal = x^2, y^\n", r"bad exponent in monomial 'y\^'"),
    ("characteristic = 7\nvariables = x, y\nideal = x^2, y^1.5\n",
     r"bad exponent in monomial 'y\^1\.5'"),
    ("characteristic = 7\nvariables = x, y\nideal = x^2^2, y^2\n",
     r"bad exponent in monomial 'x\^2\^2'"),
    ("characteristic = 7\nvariables = x\nideal = x^2\n[extra]\n",
     r"line 4: unknown section '\[extra\]'"),
    ("characteristic = 7\nvariables = x\nideal\n", "line 3: expected 'key = value'"),
    ("characteristic = 7\nvariables = x\nideal = x^2\n[cycles]\nw1_1 = x*e[1]\n",
     r"line 5: cycle names look like 'z1_2' \(got 'w1_1'\)"),
    ("characteristic = 7\nvariables = x\nideal = x^2\n[cycles]\nz1_1 = x*e[1]\n"
     "z1_1 = x*e[1]\n", "line 6: duplicate cycle 'z1_1'"),
    # z1_04 and z1_4 both name degree 1, index 4, in either order
    ("characteristic = 7\nvariables = x, y\nideal = x^2, y^2\n[cycles]\nz1_04 = x*e[1]\n"
     "z1_4 = y*e[1]\n", "line 6: duplicate cycle 'z1_4': 'z1_04' already names "
     "degree 1, index 4"),
    ("characteristic = 7\nvariables = x, y\nideal = x^2, y^2\n[cycles]\nz1_4 = y*e[1]\n"
     "z1_04 = x*e[1]\n", "line 6: duplicate cycle 'z1_04': 'z1_4' already names "
     "degree 1, index 4"),
    ("characteristic = 7\nvariables = x, y\nideal = x^2, w^2\n",
     r"unknown variable 'w' in monomial 'w\^2'"),
])
def test_ring_file_rejects_bad_input(text, msg):
    with pytest.raises(ExactFieldError, match=msg):
        parse_ring_file(text)


def test_std_basis_same_at_p2(ring_t, ring_t2):
    assert ring_t.std_basis == ring_t2.std_basis


@pytest.mark.parametrize("p, chunk", [
    (67108859, 2), (94906249, 1),        # float64 BLAS, inner dim in chunks
    (2147483647, None), (3037000493, None),  # int64, chunks of 2 and 1
])
def test_mod_matmul_paths_match_python_ints(p, chunk):
    """mod_matmul with both accumulator dtypes against a Python-int triple
    loop, on empty, tall, wide, long-inner and all-(p-1) shapes."""
    assert ((p - 1) ** 2 >= 2 ** 53) == (chunk is None)
    nprng = np.random.default_rng(p % 1000003)

    def rand(m, n):
        return nprng.integers(0, p, size=(m, n), dtype=np.int64)

    cases = [(rand(0, 5), rand(5, 3)), (rand(4, 0), rand(0, 3)),
             (rand(3, 5), rand(5, 0)), (rand(40, 7), rand(7, 3)),
             (rand(3, 7), rand(7, 40)), (rand(4, 37), rand(37, 5)),
             (np.full((6, 9), p - 1, dtype=np.int64),
              np.full((9, 4), p - 1, dtype=np.int64))]
    for A, B in cases:
        (m, k), n = A.shape, B.shape[1]
        a, b = A.tolist(), B.tolist()
        want = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(n)]
                for i in range(m)]
        got = mod_matmul(A, B, p)
        assert got.shape == (m, n) and got.dtype == np.int64
        assert got.tolist() == want
