import hashlib

import numpy as np
import pytest

from koszulres import builder
from koszulres.builder import (
    AssemblyError,
    BuildError,
    _Coordinates,
    alpha,
    assemble_CI,
    assemble_T,
    beta,
    beta_prime,
    bracket,
    gamma,
    graded_A_complexes,
    words,
)
from koszulres.exactfield import RingMatrix
from koszulres.homology import ClassTBasis, HomologyAlgebra, discover_class_CI_basis
from koszulres.koszul import (
    KoszulElement,
    KoszulError,
    cycle_matrix_action,
    parse_koszul_element,
    subsets,
)
from koszulres.samples import class_t_ring
from koszulres.sequences import SequencePack, arrow_target
from koszulres.verifier import flat_rank, graded_depth
from conftest import (
    alpha_builds,
    cycle_entries,
    flatten,
    from_vector,
    make_class_t_basis,
    repeat_diag,
    right_inverse_holds,
    same_element,
    to_vector,
)


def grid(theta, names):
    entries = cycle_entries(theta)
    return [[names.get(id(entries.get((i, j))), "0")
             for j in range(theta.cols)] for i in range(theta.rows)]


@pytest.fixture(scope="module")
def names_t(basis_t):
    d = {id(z): f"z{1}_{u}" for u, z in enumerate(basis_t.z1, start=1)}
    return d


# -- words and beta ----------------------------------------------------------

def test_words_and_bracket():
    assert words(3, 0) == ((),)
    assert words(3, 1) == ((1,), (2,), (3,))
    assert words(3, 2) == ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    assert len(words(3, 3)) == 10
    assert bracket((1, 3, 1, 2)) == (1, 1, 2, 3)


def test_beta_1_2_3_displayed(basis_t, names_t):
    b1 = beta(1, basis_t.triple)
    assert grid(b1, names_t) == [["z1_1", "z1_2", "z1_3"]]
    b2 = beta(2, basis_t.triple)
    assert grid(b2, names_t) == [
        ["z1_1", "z1_2", "z1_3", "0", "0", "0"],
        ["0", "z1_1", "0", "z1_2", "z1_3", "0"],
        ["0", "0", "z1_1", "0", "z1_2", "z1_3"],
    ]
    b3 = beta(3, basis_t.triple)
    assert (b3.rows, b3.cols) == (6, 10)
    assert grid(b3, names_t) == [
        ["z1_1", "z1_2", "z1_3", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "z1_1", "0", "z1_2", "z1_3", "0", "0", "0", "0", "0"],
        ["0", "0", "z1_1", "0", "z1_2", "z1_3", "0", "0", "0", "0"],
        ["0", "0", "0", "z1_1", "0", "0", "z1_2", "z1_3", "0", "0"],
        ["0", "0", "0", "0", "z1_1", "0", "0", "z1_2", "z1_3", "0"],
        ["0", "0", "0", "0", "0", "z1_1", "0", "0", "z1_2", "z1_3"],
    ]
    b0 = beta(0, basis_t.triple)
    assert (b0.rows, b0.cols) == (0, 1) and not len(b0.where)


def test_beta_prime_displayed(basis_t):
    t = basis_t.triple
    w23, w13, w12 = t[1].wedge(t[2]), t[0].wedge(t[2]), t[0].wedge(t[1])
    bp2 = beta_prime(2, basis_t)
    assert (bp2.rows, bp2.cols) == (3, 1)
    assert all(same_element(cycle_entries(bp2)[(i, 0)], w) for i, w in enumerate((w23, w13, w12)))
    bp3 = beta_prime(3, basis_t)
    assert (bp3.rows, bp3.cols) == (6, 3)
    expected = [
        [w23, None, None],
        [w13, w23, None],
        [w12, None, w23],
        [None, w13, None],
        [None, w12, w13],
        [None, None, w12],
    ]
    entries = cycle_entries(bp3)
    for i in range(6):
        for j in range(3):
            got, want = entries.get((i, j)), expected[i][j]
            assert got is None if want is None else same_element(got, want), (i, j)
    assert not len(beta_prime(0, basis_t).where) and not len(beta_prime(1, basis_t).where)


def test_beta_right_inverse_identity(basis_t):
    assert all(right_inverse_holds(basis_t.triple, k) for k in range(1, 7))


def test_beta_right_inverse_nonzero_volume(ring_ci3):
    # in k[x,y,z]/(x^2,y^2,z^2) the triple product x y z e_123 is nonzero
    triple = [parse_koszul_element(f"{nm}*e[{u}]", ring_ci3)
              for u, nm in enumerate(ring_ci3.names, start=1)]
    vol = triple[0].wedge(triple[1]).wedge(triple[2])
    assert not vol.is_zero()
    assert all(right_inverse_holds(triple, k) for k in range(1, 7))


# -- gamma and alpha ---------------------------------------------------------

def test_gamma_contents(basis_t, ring_t):
    g1 = gamma(1, basis_t)
    assert (g1.rows, g1.cols, g1.entry_degree) == (1, 1, 1)
    (rc, z), = cycle_entries(g1).items()
    assert rc == (0, 0)
    assert same_element(z, parse_koszul_element("y*z*e[1]", ring_t))
    g2 = gamma(2, basis_t)
    assert (g2.rows, g2.cols, g2.entry_degree) == (1, 3, 2)
    g3 = gamma(3, basis_t)
    assert (g3.rows, g3.cols, g3.entry_degree) == (1, 3, 3)
    with pytest.raises(BuildError):
        gamma(4, basis_t)


ALPHA_EXTENTS = {1: (1, [4, 3, 3]), 2: (4, [13, 13, 12])}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_alpha_extents_match_tables(k, pack_t, basis_t):
    thetas = [alpha(k, r, basis_t) for r in (k, k + 1, k + 2)]
    assert [t.cols for t in thetas] == [pack_t.l[k], pack_t.lp[k], pack_t.lpp[k]]
    assert {t.rows for t in thetas} == {pack_t.l[k - 1]}
    assert [t.entry_degree for t in thetas] == [1, 2, 3]
    if k in ALPHA_EXTENTS:
        assert (thetas[0].rows, [t.cols for t in thetas]) == ALPHA_EXTENTS[k]


def test_alpha_11_display(basis_t, names_t):
    theta = alpha(1, 1, basis_t)
    assert grid(theta, names_t) == [["z1_1", "z1_2", "z1_3", "z1_4"]]


def test_alpha_22_display(basis_t, names_t):
    theta = alpha(2, 2, basis_t)
    assert grid(theta, names_t) == [
        ["z1_1", "z1_2", "z1_3", "0", "0", "0", "0", "0", "0",
         "z1_4", "0", "0", "0"],
        ["0", "z1_1", "0", "z1_2", "z1_3", "0", "0", "0", "0",
         "0", "z1_4", "0", "0"],
        ["0", "0", "z1_1", "0", "z1_2", "z1_3", "0", "0", "0",
         "0", "0", "z1_4", "0"],
        ["0", "0", "0", "0", "0", "0", "z1_1", "z1_2", "z1_3",
         "0", "0", "0", "z1_4"],
    ]


def test_alpha_23_layout(basis_t):
    # first column holds beta'_2 in the first b_1 rows; the beta_1^{d_1} row
    # group receives no beta' input; gamma_2 blocks go one per row
    entries = cycle_entries(alpha(2, 3, basis_t))
    t = basis_t.triple
    assert same_element(entries.pop((0, 0)), t[1].wedge(t[2]))
    assert same_element(entries.pop((1, 0)), t[0].wedge(t[2]))
    assert same_element(entries.pop((2, 0)), t[0].wedge(t[1]))
    for s0 in range(4):
        for c in range(3):
            assert same_element(entries.pop((s0, 1 + 3 * s0 + c)), basis_t.z2[c])
    assert not entries  # in particular (3, 0) is empty


def test_alpha_lists_each_cycle_once(basis_t):
    # the beta blocks of alpha share the triple and the beta' blocks share
    # the three products; alpha lists each distinct cycle once
    distinct = {0: 4, 1: 6, 2: 3}  # triple + z1_4; products + z2; z3
    for k in range(1, 7):
        for r in (k, k + 1, k + 2):
            theta = alpha(k, r, basis_t)
            ids = [id(z) for z in theta.cycles]
            assert len(set(ids)) == len(ids), (k, r)
            assert len(ids) == (3 if (k, r) == (1, 2) else distinct[r - k]), (k, r)
            assert set(theta.where[:, 2].tolist()) == set(range(len(ids)))


@pytest.mark.parametrize("k", range(1, 8))
def test_alpha_over_the_triple_is_beta(basis_t, k):
    # B_k is the A_k recipe at the invariants (3, 3, 0) over the triple alone:
    # there d = (1, 0, 0, ...), so alpha_{k,k} is beta_k and alpha_{k,k+1} is
    # beta'_k, and the empty gamma blocks add no columns
    B = ClassTBasis(z1=basis_t.triple, z2=[], z3=[])
    for got, want in [(alpha(k, k, B), beta(k, B.triple)),
                      (alpha(k, k + 1, B), beta_prime(k, B))]:
        assert (got.rows, got.cols, got.entry_degree) == (want.rows, want.cols, want.entry_degree)
        assert np.array_equal(got.where, want.where)
        if len(want.where):  # beta'_1 has no entries, and alpha_{1,2} no cycles
            assert len(got.cycles) == len(want.cycles)
            assert all(a is b for a, b in zip(got.cycles, want.cycles))
    assert alpha(k, k + 2, B).cols == 0


def test_alpha_input_validation(basis_t):
    with pytest.raises(BuildError):
        alpha(0, 0, basis_t)
    with pytest.raises(BuildError):
        alpha(2, 5, basis_t)


def test_alpha_extent_mismatch_raises(basis_t):
    # a1 = 5 tables ask for one more gamma_1 column than the basis has; the
    # mismatched pack is set on a fresh basis's cached attribute
    twin = ClassTBasis(z1=basis_t.z1, z2=basis_t.z2, z3=basis_t.z3)
    twin.pack = SequencePack(5, 7, 3)
    with pytest.raises(AssemblyError, match=r"^alpha_\{1,1\} extent mismatch: "
                       r"built 4 columns, tables give 5$"):
        alpha(1, 1, twin)


def test_action_below_entry_degree_raises(basis_t):
    # alpha_{2,3} has entries of degree 2, which act on no K_{1-2}
    with pytest.raises(KoszulError, match="target degree 1 below entry degree 2"):
        cycle_matrix_action(alpha(2, 3, basis_t), 1)


def test_alpha_is_memoized(basis_t):
    # cached on (k, r, basis), the basis by identity
    assert alpha(2, 3, basis_t) is alpha(2, 3, basis_t)
    twin = ClassTBasis(z1=basis_t.z1, z2=basis_t.z2, z3=basis_t.z3)
    assert twin != basis_t
    assert alpha(2, 3, twin) is not alpha(2, 3, basis_t)


# -- assembled resolutions ---------------------------------------------------

def block_offsets(F, k):
    out = {}
    off = 0
    n = F.ring.nvars
    for b in F.blocks[k]:
        width = b.copies * len(subsets(n, b.kdeg))
        out[(b.key, b.kdeg)] = (off, off + width)
        off += width
    return out


@pytest.fixture(scope="module")
def assembly_t(ring_t, basis_t):
    return assemble_T(ring_t, basis_t, i_max=7)


def test_assembled_ranks(assembly_t):
    assert assembly_t.ranks == [1, 3, 7, 16, 37, 86, 200, 465]


def test_block_inventory_low_degrees(assembly_t):
    labels = [b.label() for b in assembly_t.blocks[2]]
    assert labels == ["K[2]^1 @ 1", "K[0]^4 @ X[1,1]"]
    labels3 = [b.label() for b in assembly_t.blocks[3]]
    assert labels3 == ["K[3]^1 @ 1", "K[1]^4 @ X[1,1]", "K[0]^3 @ X[1,2]"]


def test_diff2_structure(assembly_t, ring_t, basis_t):
    # d_2 = (d^K_2 | alpha_{1,1}) with positive signs in the chosen regime
    d2 = assembly_t.diff(2).entries
    expected_left = repeat_diag(
        __import__("koszulres.koszul", fromlist=["koszul_differential"])
        .koszul_differential(2, ring_t), 1)
    for (i, j), f in expected_left.entries.items():
        assert d2.get((i, j)) == f
    act = cycle_matrix_action(alpha(1, 1, basis_t), 1)
    for (i, j), f in act.entries.items():
        assert d2.get((i, 3 + j)) == f


def test_diff5_block_pattern(assembly_t, ring_t, basis_t, pack_t):
    # every arrow block of d_2..d_7 is alpha_{j,r} acting into the block of
    # arrow_target, repeated deg3(tail) times down the diagonal, with the
    # chosen regime's + sign, and nothing else lies in that block
    assert assembly_t.sign_regime.endswith("phi +1")
    arrows = {}
    for k in range(2, assembly_t.i_max + 1):
        d = assembly_t.diff(k)
        rows = block_offsets(assembly_t, k - 1)
        cols = block_offsets(assembly_t, k)
        for b in assembly_t.blocks[k]:
            if b.key.head is None:
                continue
            j, r, tail = b.key.head
            target = (arrow_target(b.key), b.kdeg + r - j + 1)
            if target not in rows:
                assert target[1] > ring_t.nvars  # K_i = 0 there
                continue
            (r0, r1), (c0, c1) = rows[target], cols[(b.key, b.kdeg)]
            act = cycle_matrix_action(alpha(j, r, basis_t), target[1])
            expected = repeat_diag(act, tail.deg3(pack_t))
            assert (r1 - r0, c1 - c0) == (expected.rows, expected.cols)
            got = {(i - r0, jj - c0): f for (i, jj), f in d.entries.items()
                   if r0 <= i < r1 and c0 <= jj < c1}
            assert got == expected.entries
            arrows[(k, str(b.key), b.kdeg)] = (str(target[0]), target[1],
                                               tail.deg3(pack_t))
    # d_5: (X22@1 -> X11@2) is alpha_{2,2} once; (X11X12@0 -> X12@1) is
    # alpha_{1,1} three times
    assert arrows[(5, "X[2,2]", 1)] == ("X[1,1]", 2, 1)
    assert arrows[(5, "X[1,1]*X[1,2]", 0)] == ("X[1,2]", 1, 3)


def test_assembly_differentials_in_m(assembly_t):
    for i in range(1, assembly_t.i_max + 1):
        assert assembly_t.diff(i).first_unit_entry() is None


def test_assembly_and_graded_complexes_share_alpha(ring_t, homology_t,
                                                  monkeypatch):
    # two separate calls on one basis build each alpha_{k,r} once: 12 on
    # A's basis, and 9 on B's, whose pack has the invariants (3, 3, 0)
    basis = make_class_t_basis(ring_t)
    builder.alpha.cache_clear()
    built = alpha_builds(monkeypatch)
    F = assemble_T(ring_t, basis, i_max=8)
    graded_A_complexes(5, basis, homology_t)
    placed = {b.key.head[:2] for bl in F.blocks for b in bl if b.key.head is not None}
    # A_k reads alpha_{k-t,k-t} and alpha_{k-t,k} at positions t = 0, 1, 2
    graded = {(k - t, r) for k in range(1, 6) for t in range(min(k, 3)) for r in (k - t, k)}
    assert len(placed | graded) == 12
    # B_k reads alpha_{k,k} and, from k = 2 on, alpha_{k-1,k-1} and alpha_{k-1,k}
    assert built() == {(4, 6, 3): 12, (3, 3, 0): 9}


def test_graded_depth_covers_every_placed_alpha(ring_t, basis_t, homology_t,
                                                monkeypatch):
    # F at max degree 12 places alpha_{j,r} up to (6, 6) and (5, 7); the
    # graded complexes that verify builds at that degree read each of them
    seen, real = [set()], builder.alpha
    monkeypatch.setattr(builder, "alpha",
                        lambda k, r, *rest: seen[-1].add((k, r)) or real(k, r, *rest))
    assemble_T(ring_t, basis_t, 12)
    seen.append(set())
    graded_A_complexes(graded_depth(12), basis_t, homology_t)
    placed, graded = seen
    assert {(6, 6), (5, 7)} <= placed <= graded


def spy_actions(monkeypatch):
    """Record the (cycle matrix, target degree) of each cycle_matrix_action
    call that assembly makes."""
    calls, action = [], builder.cycle_matrix_action

    def spy(theta, i):
        calls.append((theta, i))
        return action(theta, i)

    monkeypatch.setattr(builder, "cycle_matrix_action", spy)
    return calls


def arrows_into_present_blocks(F, arrow):
    """(arrow key, target Koszul degree) of every arrow of F whose target
    block exists, one per source block."""
    out = []
    for k in range(1, F.i_max + 1):
        present = {(b.key, b.kdeg) for b in F.blocks[k - 1]}
        for b in F.blocks[k]:
            spec = arrow(b)
            if spec is not None and spec[1:] in present:
                out.append((spec[0], spec[2]))
    return out


def test_assemble_t_builds_each_action_once(ring_t, basis_t, monkeypatch):
    # one wedge action per distinct (alpha_{j,r}, target Koszul degree)
    calls = spy_actions(monkeypatch)
    F = assemble_T(ring_t, basis_t, i_max=8)

    def arrow(b):
        if b.key.head is not None:
            j, r, _ = b.key.head
            return alpha(j, r, basis_t), arrow_target(b.key), b.kdeg + r - j + 1

    arrows = arrows_into_present_blocks(F, arrow)
    assert len(calls) == len(set(calls)) == len(set(arrows)) < len(arrows)
    assert set(calls) == set(arrows)


def test_assemble_ci_builds_each_action_once(ring_ci3, monkeypatch):
    # one beta_j per j, and one wedge action per (beta_j, target Koszul degree)
    calls = spy_actions(monkeypatch)
    basis, _ = discover_class_CI_basis(HomologyAlgebra(ring_ci3))
    F = assemble_CI(ring_ci3, basis, i_max=8)
    arrows = arrows_into_present_blocks(
        F, lambda b: (b.key, b.key - 1, b.kdeg + 1) if b.key else None)
    j_of = {len(words(3, j)): j for j in range(1, 5)}  # beta_j has b_j columns
    assert len(calls) == len(set(calls)) == len(set(arrows))
    assert {(j_of[theta.cols], i) for theta, i in calls} == set(arrows)
    assert len({theta for theta, _ in calls}) == 4


def test_forced_wrong_regime_breaks_d2(ring_t, basis_t):
    F = assemble_T(ring_t, basis_t, i_max=4, sign_flip=True)
    assert F.sign_regime == "diagonal (-1)^deg2, phi +1 (forced)"
    prod = F.diff(2) @ F.diff(3)
    assert not prod.is_zero()


def test_assemble_t_runs_no_products(monkeypatch, ring_t, basis_t):
    # the sign convention is fixed, so assembly tests nothing: d^2 = 0 is
    # left to check_complex, the only place that multiplies differentials.
    # Products into one column are Koszul-element arithmetic (differentials
    # of cycles, wedges), which assembly does use.
    element_product = RingMatrix.__matmul__

    def no_products(self, other):
        if other.cols != 1:
            raise AssertionError("assemble_T computed a RingMatrix product")
        return element_product(self, other)

    monkeypatch.setattr(RingMatrix, "__matmul__", no_products)
    F = assemble_T(ring_t, basis_t, i_max=6)
    assert F.sign_regime == "diagonal (-1)^(deg1+deg2), phi +1"
    assert F.ranks == [1, 3, 7, 16, 37, 86, 200]


def test_literal_product_precondition(ring_t, basis_t):
    # z1_4 + d(e_13) has the same class but a nonzero wedge with z1_2
    moved = from_vector(ring_t, 1, to_vector(basis_t.z1[3])
                        + to_vector(KoszulElement.basis(ring_t, (1, 3)).differential()))
    bad = ClassTBasis(z1=basis_t.z1[:3] + [moved], z2=basis_t.z2, z3=basis_t.z3)
    assert not moved.wedge(basis_t.z1[1]).is_zero()
    with pytest.raises(AssemblyError, match="wedge product"):
        assemble_T(ring_t, bad, i_max=4)


def test_assemble_ci_ranks_and_blocks(ring_ci3, ring_x):
    basis, _ = discover_class_CI_basis(HomologyAlgebra(ring_ci3))
    F = assemble_CI(ring_ci3, basis, i_max=6)
    assert F.ranks == [1, 3, 6, 10, 15, 21, 28]
    # hypersurface: F_i = K_i + K_{i-2} + ... intersected with 0 <= kdeg <= 1
    bx, _ = discover_class_CI_basis(HomologyAlgebra(ring_x))
    Fx = assemble_CI(ring_x, bx, i_max=6)
    assert Fx.ranks == [1] * 7
    assert [(b.key, b.kdeg) for b in Fx.blocks[4]] == [(2, 0)]
    assert [(b.key, b.kdeg) for b in Fx.blocks[5]] == [(2, 1)]


def test_assemble_ci_diff3_blocks(ring_ci3):
    # d^F_3 block pattern: (d_3, beta_1-action; 0, d_1^{b_1})
    basis, _ = discover_class_CI_basis(HomologyAlgebra(ring_ci3))
    F = assemble_CI(ring_ci3, basis, i_max=4)
    d3 = F.diff(3).entries
    from koszulres.koszul import koszul_differential
    top_left = koszul_differential(3, ring_ci3)  # K_3 col -> K_2 row, offsets 0
    for (i, j), f in top_left.entries.items():
        assert d3.get((i, j)) == f
    # beta_1 arrow: K_1^{b_1} (cols from 1) -> K_2 (rows from 0)
    act = cycle_matrix_action(beta(1, basis.z1), 2)
    assert (act.rows, act.cols) == (3, 9)
    for (i, j), f in act.entries.items():
        assert d3.get((i, 1 + j)) == f
    # diagonal of the j=1 block: d_1^{b_1} at rows 3.., cols 1..
    d1 = koszul_differential(1, ring_ci3)
    for copy in range(3):
        for (i, j), f in d1.entries.items():
            assert d3.get((3 + copy * d1.rows + i, 1 + copy * d1.cols + j)) == f


def test_graded_complex_dimensions(basis_t, homology_t):
    out = graded_A_complexes(3, basis_t, homology_t)
    assert out["B"][1].dims == [3, 3]
    assert out["B"][2].dims == [6, 9, 3]
    assert out["C"][1].dims == [1, 1]
    assert out["C"][2].dims == [3, 3]
    assert out["C"][3].dims == [3, 3]
    assert out["A"][1].dims == [4, 4]
    assert out["A"][2].dims == [13, 19, 6]
    assert out["A"][3].dims == [41, 4 * 13 + 13, 6 * 4 + 3, 3]
    for k, rows in out["decomposition"].items():
        assert all(ok for *_, ok in rows), (k, rows)


# (top_position, dims, flat ranks of the maps) of every complex of
# graded_A_complexes(5, ...) on classT_example, the same at every prime:
# none of it depends on the representatives that the classes are read in
GRADED_PROFILE = {
    "B_1": (1, [3, 3], [3]),
    "B_2": (2, [6, 9, 3], [6, 3]),
    "B_3": (3, [10, 19, 9], [10, 9]),
    "B_4": (4, [15, 33, 18], [15, 18]),
    "B_5": (5, [21, 51, 30], [21, 30]),
    "C_1": (1, [1, 1], [1]),
    "C_2": (1, [3, 3], [3]),
    "C_3": (1, [3, 3], [3]),
    "A_1": (1, [4, 4], [4]),
    "A_2": (2, [13, 19, 6], [13, 6]),
    "A_3": (3, [41, 65, 27, 3], [41, 24, 3]),
    "A_4": (4, [129, 207, 90, 12], [129, 78, 12]),
    "A_5": (5, [406, 652, 285, 39], [406, 246, 39]),
}


@pytest.mark.parametrize("p", [2, 32003, 2147483647])
def test_graded_complexes_profile(p):
    ring = class_t_ring(p=p)
    out = graded_A_complexes(5, make_class_t_basis(ring), HomologyAlgebra(ring))
    got = {}
    for family in ("B", "C", "A"):
        for cx in out[family].values():
            assert [(M.rows, M.cols) for M in cx.maps] == \
                list(zip(cx.dims[1:], cx.dims[:-1])), cx.name
            got[cx.name] = (cx.top_position, [int(d) for d in cx.dims],
                            [flat_rank(M) for M in cx.maps])
    assert got == GRADED_PROFILE


# sha256 of every map of graded_A_complexes(5, ...) on classT_example: for
# the families B, C, A in key order, repr((name, top_position, dims)), then
# each map's int64 bytes and repr(shape).  The entries are class
# coordinates in the basis of H.reps, so these change with the reps;
# GRADED_PROFILE pins what does not
GRADED_DIGESTS = {
    2: "00bc633b4eb67fae4edf7f0c695d77820d87a4d015af50d4a021234a0220d65d",
    32003: "13229a350049ff50a5270014e3e4f08e300c4a07eae613f096e9360f0f380c67",
    2147483647: "ad233f38887f8adbe5712e4b37471c4330b2ebe75110f6dccadc8afb6638d140",
}


@pytest.mark.parametrize("p", sorted(GRADED_DIGESTS))
def test_graded_maps_golden(p):
    ring = class_t_ring(p=p)
    out = graded_A_complexes(5, make_class_t_basis(ring), HomologyAlgebra(ring))
    h = hashlib.sha256()
    for family in ("B", "C", "A"):
        for k in sorted(out[family]):
            cx = out[family][k]
            h.update(repr((cx.name, cx.top_position, cx.dims)).encode())
            for m in map(flatten, cx.maps):
                h.update(np.asarray(m, dtype=np.int64).tobytes())
                h.update(repr(m.shape).encode())
    assert h.hexdigest() == GRADED_DIGESTS[p]


def test_coordinates_outside_span_raise(basis_t, homology_t):
    # B_1 is spanned by the classes of the triple; z1_4 lies outside it
    # (the unit class of A_0 reads the entries themselves)
    B1, unit = _Coordinates(homology_t, homology_t.classes(1, basis_t.triple)), homology_t.reps[0]
    assert (flatten(B1.matrix(beta(1, basis_t.triple), unit)) == np.eye(3, dtype=np.int64)).all()
    with pytest.raises(BuildError, match="expected subspace"):
        B1.matrix(gamma(1, basis_t), unit)

def test_span_blocks_solve_once(ring_t, homology_t, monkeypatch):
    # in a span, each block's classes are solved for in one solve_mod call
    # over all of the block's columns, not in one call per class
    blocks, solves = [], []
    block, solve = _Coordinates._block, builder.solve_mod

    def spy_block(self, z, sources):
        out = block(self, z, sources)
        if self.span is not None:
            blocks.append(out.cols)
        return out

    def spy_solve(A, b, p):
        solves.append(np.reshape(b, (len(b), -1)).shape[1])  # columns of b
        return solve(A, b, p)

    monkeypatch.setattr(_Coordinates, "_block", spy_block)
    monkeypatch.setattr(builder, "solve_mod", spy_solve)
    graded_A_complexes(5, make_class_t_basis(ring_t), homology_t)
    assert solves == blocks
    assert sum(blocks) > len(blocks)  # some block has several columns


def test_f7_block_inventory(ring_t, basis_t):
    F = assemble_T(ring_t, basis_t, i_max=7)
    assert [b.label() for b in F.blocks[7]] == [
        "K[3]^3 @ X[1,3]",
        "K[3]^13 @ X[2,2]", "K[2]^13 @ X[2,3]", "K[1]^12 @ X[2,4]",
        "K[2]^12 @ X[1,1]*X[1,2]", "K[1]^9 @ X[1,2]*X[1,2]",
        "K[0]^9 @ X[1,3]*X[1,2]", "K[1]^12 @ X[1,1]*X[1,3]",
        "K[0]^9 @ X[1,2]*X[1,3]",
        "K[1]^41 @ X[3,3]", "K[0]^43 @ X[3,4]",
        "K[0]^52 @ X[1,1]*X[2,3]", "K[0]^39 @ X[2,2]*X[1,2]",
    ]
    widths = [b.copies * len(subsets(3, b.kdeg)) for b in F.blocks[7]]
    assert sum(widths) == 465


def test_graded_blocks_computed_once(ring_t, homology_t, monkeypatch):
    # every beta' of one basis shares the basis's three products, so each
    # distinct (cycle, sources) block of one coordinate space is computed once
    computed = []
    block = _Coordinates._block

    def value(z):  # equal elements have equal degrees and term rows
        return z.degree, z.col.terms.tobytes()

    def spy(self, z, sources):
        computed.append((self, value(z), tuple(map(value, sources))))
        return block(self, z, sources)

    monkeypatch.setattr(_Coordinates, "_block", spy)
    graded_A_complexes(5, make_class_t_basis(ring_t), homology_t)
    assert len(set(computed)) == len(computed) == 37
