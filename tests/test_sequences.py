import random
from math import comb

import pytest

from koszulres.sequences import (
    CrossCheckError,
    PowerSeries,
    SequenceError,
    SequencePack,
    TreeMonomial,
    UNIT_MONOMIAL,
    _sequence_closed_forms,
    arrow_target,
    geometric_binomial,
    poincare_CI,
    poincare_T,
    sequence_rows,
    tree_layer,
    u_table,
)
from conftest import recurrence_tables

rng = random.Random(5)


# -- recurrence tables -------------------------------------------------------

def test_tables_for_the_example(pack_t):
    assert [pack_t.b[k] for k in range(6)] == [1, 3, 6, 10, 15, 21]
    assert [pack_t.l[k] for k in range(6)] == [1, 4, 13, 41, 129, 406]
    assert [pack_t.lp[k] for k in range(5)] == [0, 3, 13, 43, 136]
    assert [pack_t.lpp[k] for k in range(7)] == [0, 3, 12, 39, 123, 387, 1218]
    assert [pack_t.d[k] for k in range(4)] == [1, 1, 4, 13]


def test_tables_grow_from_a_first_read_far_out():
    # reading l_60 first fills every table that l_60 needs, in order, and
    # each table then equals the plain loop over the recurrences
    pack = SequencePack(4, 6, 3)
    want = recurrence_tables(4, 6, 3, 60)
    assert pack.l[60] == want["l"][60]
    assert list(pack.l) == list(range(61))
    for name, values in want.items():
        assert [getattr(pack, name)[k] for k in range(61)] == values, name
    with pytest.raises(KeyError):
        pack.l[-1]  # no list-style read from the end


def test_lp5_follows_the_recurrence(pack_t):
    # l'_5 = l_3 + 3 l_4 = 41 + 387; the value 1347 seen in print is l'_6
    assert pack_t.lp[5] == 41 + 3 * 129 == 428
    assert pack_t.lp[6] == 129 + 3 * 406 == 1347


def test_l_ks_relabeling(pack_t):
    assert pack_t.l_ks(2, 2) == 13
    assert pack_t.l_ks(2, 3) == 13
    assert pack_t.l_ks(2, 4) == 12
    assert pack_t.l_ks(2, 5) == 0
    assert pack_t.l_ks(2, 1) == 0


def test_a1_equals_3_collapses_to_ci():
    pack = SequencePack(3, 5, 2)
    assert [pack.d[k] for k in range(1, 9)] == [0] * 8
    assert [pack.l[k] for k in range(9)] == [pack.b[k] for k in range(9)]


def test_class_t_needs_a1_at_least_3():
    with pytest.raises(SequenceError):
        SequencePack(2, 6, 3)


def test_closed_forms_example_and_random_triples(pack_t):
    # a2 and a3 below 3 included: the closed forms are polynomial identities
    triples = [(4, 6, 3)] + [(rng.randrange(3, 12), rng.randrange(0, 12),
                               rng.randrange(0, 12)) for _ in range(3)]
    assert any(a2 < 3 or a3 < 3 for _, a2, a3 in triples[1:])
    for a1, a2, a3 in triples:
        pack = pack_t if (a1, a2, a3) == (4, 6, 3) else SequencePack(a1, a2, a3)
        closed = _sequence_closed_forms(pack)
        assert len(closed) == 7
        for (name, k), want in closed.items():
            assert getattr(pack, name)[k] == want, (a1, a2, a3, name, k)
        sequence_rows(3, pack)  # checks every one of them, and raises on none


# -- the tree ----------------------------------------------------------------

def test_layer_counts():
    for k in range(9):
        assert len(tree_layer(k)) == 3 ** k


def test_layer_contents_small():
    assert tree_layer(0) == (UNIT_MONOMIAL,)
    assert [str(m) for m in tree_layer(1)] == ["X[1,1]", "X[1,2]", "X[1,3]"]
    assert [str(m) for m in tree_layer(2)] == [
        "X[2,2]", "X[2,3]", "X[2,4]",
        "X[1,1]*X[1,2]", "X[1,2]*X[1,2]", "X[1,3]*X[1,2]",
        "X[1,1]*X[1,3]", "X[1,2]*X[1,3]", "X[1,3]*X[1,3]",
    ]


def test_monomial_degrees(pack_t):
    m = TreeMonomial(((2, 3), (1, 2)))
    assert (m.deg1, m.deg2, m.deg4) == (3, 5, 2)
    assert m.deg3(pack_t) == pack_t.lp[2] * pack_t.lp[1]
    assert (UNIT_MONOMIAL.deg1, UNIT_MONOMIAL.deg2, UNIT_MONOMIAL.deg4) == (0, 0, 0)
    assert UNIT_MONOMIAL.deg3(pack_t) == 1


def test_monomial_normal_form_enforced():
    TreeMonomial(((2, 2), (1, 2)))  # diagonal head is fine
    with pytest.raises(SequenceError):
        TreeMonomial(((1, 2), (2, 2)))  # diagonal factor beyond the head
    with pytest.raises(SequenceError):
        TreeMonomial(((1, 4),))  # s > k + 2


def test_arrow_targets():
    assert arrow_target(TreeMonomial(((3, 4),))) == TreeMonomial(((2, 2),))
    assert arrow_target(TreeMonomial(((1, 2),))) == UNIT_MONOMIAL
    assert arrow_target(TreeMonomial(((1, 1), (1, 2)))) == TreeMonomial(((1, 2),))
    # every layer-k monomial points into layer k-1, three arrows per target
    for k in (2, 3, 4):
        targets = [arrow_target(m) for m in tree_layer(k)]
        assert set(targets) == set(tree_layer(k - 1))
        for t in set(targets):
            assert targets.count(t) == 3


# -- u table -----------------------------------------------------------------

def test_u_table_example_values(pack_t):
    ut = u_table(3, pack_t)
    l, p_, q = pack_t.l, pack_t.lp, pack_t.lpp
    assert ut[(1, 1)] == l[1] == 4
    assert ut[(1, 2)] == p_[1] == 3
    assert ut[(1, 3)] == q[1] == 3
    assert ut[(2, 2)] == l[2]
    assert ut[(2, 3)] == p_[2] + l[1] * p_[1]
    assert ut[(2, 6)] == q[1] ** 2 == 9
    assert ut[(3, 9)] == q[1] ** 3 == 27
    assert (3, 10) not in ut  # u_{k,s} = 0 for s > 3k


def test_u_table_matches_series_through_k5(pack_t):
    ut = u_table(5, pack_t)
    PA, _ = poincare_T(4, 6, 3, 3, 5)
    for k in range(6):
        for s in range(3 * k + 1):
            assert ut.get((k, s), 0) == PA.coefficient(k, s)


# -- power series ------------------------------------------------------------

def test_power_series_reciprocal():
    s = PowerSeries.from_terms({(0, 0): 1, (1, 0): -1}, 10)
    inv = s.reciprocal()
    assert [inv.coefficient(k) for k in range(11)] == [1] * 11
    with pytest.raises(SequenceError):
        PowerSeries.from_terms({(0, 0): 2}, 4).reciprocal()


def test_reciprocal_product_check_raises(monkeypatch):
    # a product that does not give 1 back fails the cross-check
    monkeypatch.setattr(PowerSeries, "__mul__", lambda a, b: a)
    with pytest.raises(CrossCheckError, match="reciprocal failed its product check"):
        PowerSeries.from_terms({(0, 0): 1, (1, 0): -1}, 10).reciprocal()


def test_two_variable_series_product():
    a = PowerSeries.from_terms({(0, 0): 1, (1, 1): 2}, 4)
    b = PowerSeries.from_terms({(0, 0): 1, (1, 2): -1}, 4)
    c = a * b
    assert c.coefficient(1, 1) == 2
    assert c.coefficient(1, 2) == -1
    assert c.coefficient(2, 3) == -2


def test_poincare_t_example():
    PA, PR = poincare_T(4, 6, 3, 3, 10)
    assert [PR.coefficient(k) for k in range(8)] == [1, 3, 7, 16, 37, 86, 200, 465]
    # P^R = (1+t)^n P^A(t,t) coefficientwise
    recombined = geometric_binomial(3, 10) * PA.diagonal()
    assert recombined.order == PR.order and recombined.slices == PR.slices
    # the collapsed denominator reproduces (1+t)^n
    # 1 - a1 t^2 - (a2-3) t^3 - (a3-3) t^4 - t^5 - t^6 at a = (4, 6, 3)
    denom = PowerSeries.from_terms(
        {(0, 0): 1, (2, 0): -4, (3, 0): -3, (4, 0): 0, (5, 0): -1, (6, 0): -1}, 10)
    product = denom * PR
    assert [product.coefficient(k) for k in range(11)] == \
        [comb(3, k) for k in range(11)]


def test_poincare_t_degenerate_denominator():
    # a = (3, 3, 1): the denominator still has unit constant term and the
    # series expands
    PA, PR = poincare_T(3, 3, 1, 3, 6)
    assert PA.coefficient(0, 0) == 1
    assert PR.coefficient(0) == 1


def test_poincare_ci():
    PA, PR = poincare_CI(3, 3, 10)
    # (1+t)^3/(1-t^2)^3 = 1/(1-t)^3
    assert [PR.coefficient(k) for k in range(8)] == \
        [comb(k + 2, 2) for k in range(8)]
    for k in range(6):
        assert PA.coefficient(k, k) == comb(k + 2, 2)  # diagonal = b_k
        assert PA.coefficient(k, k + 1) == 0
    PA1, _ = poincare_CI(1, 1, 8)
    assert all(PA1.coefficient(k, k) == 1 for k in range(9))


def test_rank_formula_from_u_table(pack_t):
    # rank F_i = sum_j C(n, i-j) * sum_{k+s=j} u_{k,s}
    ut = u_table(5, pack_t)
    _, PR = poincare_T(4, 6, 3, 3, 10)
    totals = {}
    for (k, s), v in ut.items():
        totals[k + s] = totals.get(k + s, 0) + v
    for i in range(8):
        rank = sum(comb(3, i - j) * totals.get(j, 0)
                   for j in range(i + 1) if 0 <= i - j <= 3)
        assert rank == PR.coefficient(i)


def test_generating_functions(pack_t):
    assert sequence_rows(6, pack_t) == recurrence_tables(4, 6, 3, 6)
    # a1 = 3: f collapses to 1/(1-t)^3 with coefficients b_k, and the l row
    # that matches it is C(k+2, 2)
    pack = SequencePack(3, 6, 3)
    assert [pack.l[k] for k in range(9)] == [comb(k + 2, 2) for k in range(9)]
    assert sequence_rows(8, pack)["l"] == [comb(k + 2, 2) for k in range(9)]
    # d-series: coefficient k of t(a1-3)f + 1, which the d row matches
    rows = sequence_rows(8, SequencePack(5, 6, 3))
    assert rows["d"] == [1, 2, 10, 44, 192, 838, 3658, 15968, 69704]
    assert rows["d"] == recurrence_tables(5, 6, 3, 8)["d"]


def test_series_checks_far_out_on_fresh_packs():
    # on a fresh pack, which has no size to exceed
    assert sequence_rows(40, SequencePack(4, 6, 3)) == recurrence_tables(4, 6, 3, 40)


@pytest.mark.parametrize("name, k", [("l", 0), ("lp", 5), ("lpp", 7), ("d", 3)])
def test_sequence_rows_name_an_overwritten_entry(name, k):
    pack = SequencePack(4, 6, 3)
    sequence_rows(10, pack)  # every table now holds k <= 10
    want = getattr(pack, name)[k]
    getattr(pack, name)[k] = want + 1
    with pytest.raises(CrossCheckError) as exc:
        sequence_rows(10, pack)
    assert str(exc.value) == (f"{name} table cross-check failed at k={k}: "
                              f"recurrence gives {want + 1}, generating function gives {want}")
