"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete."""

import random
import time
from math import comb

import numpy as np
import pytest

from koszulres.builder import (
    alpha,
    assemble_CI,
    assemble_T,
    graded_A_complexes,
)
from koszulres.homology import HomologyAlgebra, discover_class_CI_basis
from koszulres.koszul import CycleMatrix, KoszulElement
from koszulres.samples import class_t_ring, ci_squares_ring
from koszulres.sequences import (
    CrossCheckError,
    SequencePack,
    poincare_CI,
    poincare_T,
    sequence_rows,
    tree_layer,
    u_table,
)
from koszulres.verifier import (
    check_complex,
    check_exactness,
    check_graded_exactness,
    check_minimality,
    oracle_resolution,
)
from conftest import make_class_t_basis, right_inverse_holds, verify_chain_map

EXPECTED_BETTI = [1, 3, 7, 16, 37, 86, 200, 465]


def report(criterion, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status}" + (f" ({extra})" if extra else ""))
    assert passed, f"criterion {criterion} failed: {extra}"


@pytest.fixture(scope="module", params=[32003, 2], ids=["p32003", "p2"])
def setup_p(request):
    p = request.param
    ring = class_t_ring(p=p)
    basis = make_class_t_basis(ring)
    F = assemble_T(ring, basis, i_max=8)
    return p, ring, basis, F


@pytest.fixture(scope="module")
def setup_default():
    ring = class_t_ring()
    basis = make_class_t_basis(ring)
    pack = SequencePack(4, 6, 3)
    return ring, basis, pack


def test_criterion_1_betti_reproduction(setup_p):
    p, ring, basis, F = setup_p
    t0 = time.time()
    F7 = assemble_T(ring, basis, i_max=7)
    elapsed = time.time() - t0
    ok = F7.ranks == EXPECTED_BETTI and elapsed < 10
    report(1, ok, f"p={p}, ranks {F7.ranks}, {elapsed:.2f}s")


def test_criterion_2_complex_minimality_exactness(setup_p):
    p, ring, basis, F = setup_p
    t0 = time.time()
    cc = check_complex(F)
    cm = check_minimality(F)
    ce = check_exactness(F)
    elapsed = time.time() - t0
    homology_ok = (ce.passed and ce.details["h0_dimension"] == 1
                   and all(ce.details["homology"][str(i)] == 0 for i in range(1, 8)))
    ok = cc.passed and cm.passed and homology_ok and elapsed < 60
    report(2, ok, f"p={p}, {elapsed:.1f}s")


def test_criterion_3_right_inverse_identity(setup_p):
    p, ring, basis, F = setup_p
    t0 = time.time()
    ok = all(right_inverse_holds(basis.triple, k) for k in range(1, 7))
    elapsed = time.time() - t0
    report(3, ok and elapsed < 1, f"p={p}, k <= 6, {elapsed:.3f}s")


def test_criterion_4_sequence_tables(setup_default):
    _, _, pack = setup_default
    ok = ([pack.l[k] for k in range(6)] == [1, 4, 13, 41, 129, 406]
          and [pack.lpp[k] for k in range(7)] == [0, 3, 12, 39, 123, 387, 1218]
          and [pack.b[k] for k in range(6)] == [1, 3, 6, 10, 15, 21]
          and pack.lp[5] == 428)   # the recurrence value, not the printed 1347
    rng = random.Random(13)
    for _ in range(3):
        a1 = rng.randrange(3, 15)
        a2 = rng.randrange(0, 15)
        a3 = rng.randrange(0, 15)
        try:  # the closed forms, and the generating functions to k = 3
            sequence_rows(3, SequencePack(a1, a2, a3))
        except CrossCheckError:
            ok = False
    from koszulres.cli import LP5_NOTE
    ok &= "1347" in LP5_NOTE and "recurrence" in LP5_NOTE
    report(4, ok)


def test_criterion_5_series_identities(setup_default):
    _, _, pack = setup_default
    PA, PR = poincare_T(4, 6, 3, 3, 10)
    ut = u_table(5, pack)
    ok = all(ut.get((k, s), 0) == PA.coefficient(k, s)
             for k in range(6) for s in range(3 * k + 1))
    # P^R(t) = (1+t)^n P^A(t,t) coefficientwise to order 10
    from koszulres.sequences import geometric_binomial
    recombined = geometric_binomial(3, 10) * PA.diagonal()
    ok &= all(recombined.coefficient(k) == PR.coefficient(k) for k in range(11))
    # CI: P^A = 1/(1-tz)^c with diagonal coefficients b_k
    for c in (1, 2, 3):
        PAc, _ = poincare_CI(c, c, 8)
        ok &= all(PAc.coefficient(k, k) == comb(k + c - 1, c - 1)
                  for k in range(9))
        ok &= all(PAc.coefficient(k, s) == 0
                  for k in range(9) for s in range(9) if s != k)
    report(5, ok)


def test_criterion_6_tree_combinatorics(setup_default):
    ring, basis, pack = setup_default
    ok = all(len(tree_layer(k)) == 3 ** k for k in range(9))
    # the K_0 blocks of F are the components C^(j) of the tree: block m sits
    # in F_{deg1 m + deg2 m} with deg3 m copies, so grouped by (j, s) they
    # give u_{j,s} for every j + s <= i_max
    i_max = 8
    F = assemble_T(ring, basis, i_max=i_max)
    agg = {}
    for blocks in F.blocks:
        for b in blocks:
            if b.kdeg == 0:
                key = (b.key.deg1, b.key.deg2)
                agg[key] = agg.get(key, 0) + b.copies
    ut = u_table(i_max, pack)
    ok &= agg == {(j, s): v for (j, s), v in ut.items() if j + s <= i_max and v}
    report(6, ok)


def test_criterion_7_graded_exactness(setup_p):
    p, ring, basis, F = setup_p
    t0 = time.time()
    H = HomologyAlgebra(ring)
    complexes = graded_A_complexes(6, basis, H)
    section = check_graded_exactness(complexes)
    elapsed = time.time() - t0
    ok = (section.passed and set(complexes["B"]) == set(range(1, 7))
          and set(complexes["C"]) == {1, 2, 3}
          and set(complexes["A"]) == set(range(1, 7)) and elapsed < 10)
    report(7, ok, f"p={p}, {elapsed:.1f}s")


def test_criterion_8_oracle_equivalence():
    t0 = time.time()
    ok = True
    ring_t = class_t_ring()
    basis = make_class_t_basis(ring_t)
    Ft = assemble_T(ring_t, basis, i_max=6)
    ok &= oracle_resolution(ring_t, 6).betti == Ft.ranks
    for n in (3, 2):
        ring = ci_squares_ring(n)
        Fc = assemble_CI(ring, discover_class_CI_basis(HomologyAlgebra(ring))[0], i_max=6)
        ok &= oracle_resolution(ring, 6).betti == Fc.ranks
    elapsed = time.time() - t0
    report(8, ok and elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_9_chain_maps(setup_default):
    ring, basis, _ = setup_default
    ok = True
    for k in (1, 2, 3):
        for r in (k, k + 1, k + 2):
            theta = alpha(k, r, basis)
            ok &= verify_chain_map(theta, range(1, 4)).passed
    # negative control: a non-cycle entry breaks the commutation
    bad = CycleMatrix(ring, 1, 1, 1, (), ())
    # past the constructor's cycle check
    bad.cycles, bad.where = (KoszulElement.basis(ring, (1,)),), np.array([[0, 0, 0]])
    ok &= not verify_chain_map(bad, range(1, 4)).passed
    report(9, ok)


def test_criterion_10_characteristic_robustness(setup_p):
    # criteria 1-3 and 7 are parameterized over p in {32003, 2} above; this
    # records that both characteristic runs produced identical Betti data
    p, ring, basis, F = setup_p
    ok = F.ranks == EXPECTED_BETTI + [1081]
    report(10, ok, f"p={p} ranks match")
