import copy
import time

import numpy as np
import pytest

from conftest import (
    alpha_builds,
    dense_complex_exact,
    flatten,
    make_class_t_basis,
    ring_matrix,
    same_matrix,
    sparse_map,
)
from koszulres import builder, verifier
from koszulres.builder import FiniteComplex, assemble_CI, assemble_T, graded_A_complexes
from koszulres.exactfield import (
    MAX_CHARACTERISTIC,
    QuotientRing,
    RingMatrix,
    is_prime,
    rank_mod,
)
from koszulres.homology import (
    ClassVerificationError,
    DiscoveryError,
    HomologyAlgebra,
    discover_class_CI_basis,
    discover_class_T_basis,
)
from koszulres.koszul import koszul_differential
from koszulres.samples import class_t_ring, class_t_ring_file
from koszulres.verifier import (
    _finite_complex_exact,
    check_complex,
    check_exactness,
    check_graded_exactness,
    check_minimality,
    flat_rank,
    full_verify,
    oracle_resolution,
)


@pytest.fixture(scope="module")
def assembly_t(ring_t, basis_t):
    return assemble_T(ring_t, basis_t, i_max=6)


@pytest.fixture(scope="module")
def assembly_ci2(ring_ci2):
    basis, _ = discover_class_CI_basis(HomologyAlgebra(ring_ci2))
    return assemble_CI(ring_ci2, basis, i_max=6)


# -- complex / minimality / exactness ----------------------------------------

def test_check_complex_passes(assembly_t, assembly_ci2, ring_t, ring_ci2):
    assert check_complex(assembly_t).passed
    assert check_complex(assembly_ci2).passed


def test_check_complex_sign_flip_fails(ring_t, basis_t):
    # the wrong diagonal sign rule genuinely breaks the complex
    Fbad = assemble_T(ring_t, basis_t, i_max=4, sign_flip=True)
    section = check_complex(Fbad)
    assert not section.passed
    assert "d_2 d_3" in section.failure and "block" in section.failure


def test_check_minimality(assembly_t, ring_t):
    assert check_minimality(assembly_t).passed
    # Koszul differentials alone are minimal
    for i in range(1, 4):
        assert koszul_differential(i, ring_t).first_unit_entry() is None
    # negative control: a unit entry in a copied differential
    doctored = copy.copy(assembly_t)
    d1 = assembly_t.diff(1)
    bad = ring_matrix(ring_t, d1.rows, d1.cols, dict(d1.entries) | {(0, 0): "1"})
    doctored.differentials = [bad] + assembly_t.differentials[1:]
    section = check_minimality(doctored)
    assert not section.passed and "unit" in section.failure


def test_check_exactness(assembly_t):
    section = check_exactness(assembly_t)
    assert section.passed
    assert section.details["h0_dimension"] == 1
    assert all(v == 0 for v in section.details["homology"].values())


def test_check_exactness_detects_dropped_block(ring_t, basis_t):
    # truncate the last block of F_4 (K_0^13 @ X[2,2]): homology appears at 3
    F = assemble_T(ring_t, basis_t, i_max=5)
    cut = F.blocks[4][-1]
    width = cut.copies  # K_0 blocks have one coordinate per copy
    d4 = F.diff(4)
    d5 = F.diff(5)
    doctored = copy.copy(F)
    doctored.differentials = list(F.differentials)
    doctored.differentials[3] = RingMatrix.from_terms(
        ring_t, d4.rows, d4.cols - width, d4.terms[d4.terms[:, 1] < d4.cols - width])
    doctored.differentials[4] = RingMatrix.from_terms(
        ring_t, d5.rows - width, d5.cols, d5.terms[d5.terms[:, 0] < d5.rows - width])
    section = check_exactness(doctored)
    assert not section.passed
    assert "degree 3" in section.failure


def test_check_exactness_detects_zero_d1(assembly_t, ring_t):
    # with d_1 = 0 the cokernel at degree 0 is all of R
    d1 = assembly_t.diff(1)
    doctored = copy.copy(assembly_t)
    doctored.differentials = [RingMatrix.from_terms(ring_t, d1.rows, d1.cols, d1.terms[:0]),
                              *assembly_t.differentials[1:]]
    section = check_exactness(doctored)
    assert not section.passed
    assert section.failure == f"coker d_1 has dimension {ring_t.dim}, expected 1"
    assert section.details["flat_ranks"]["1"] == 0


def test_negative_controls_hit_one_check_each(ring_t, basis_t):
    # the rejected sign regime fails the complex check but nothing else
    Fbad = assemble_T(ring_t, basis_t, i_max=4, sign_flip=True)
    assert not check_complex(Fbad).passed
    assert check_minimality(Fbad).passed


# -- graded complexes --------------------------------------------------------

def test_graded_exactness(basis_t, homology_t):
    complexes = graded_A_complexes(5, basis_t, homology_t)
    section = check_graded_exactness(complexes)
    assert section.passed, section.failure


def test_graded_exactness_negative_control(basis_t, homology_t):
    complexes = graded_A_complexes(2, basis_t, homology_t)
    M = complexes["A"][2].maps[0]
    complexes["A"][2].maps[0] = sparse_map(np.zeros_like(flatten(M)), M.ring.p)
    section = check_graded_exactness(complexes)
    assert not section.passed
    assert "A_2" in section.failure


def test_graded_exactness_reports_decomposition_mismatch(basis_t, homology_t):
    complexes = graded_A_complexes(2, basis_t, homology_t)
    rows = complexes["decomposition"][2]
    position, lhs, rhs, ok = rows[0]
    assert ok
    rows[0] = (position, lhs, rhs + 1, False)
    section = check_graded_exactness(complexes)
    assert not section.passed
    assert section.failure == (f"A_2 decomposition dimensions disagree at "
                               f"position {position}: {lhs} vs {rhs + 1}")
    assert section.details["decomposition_2"][0] == (position, lhs, rhs + 1, False)


@pytest.mark.parametrize("dims, shape, message", [
    ([1, 2], (1, 1), "map 0 has shape (1, 1), expected (2, 1)"),
    ([0, 1], (1, 0), "not exact at the bottom: rank 0 < dim 1"),
], ids=["shape", "bottom"])
def test_finite_complex_failures(dims, shape, message):
    cx = FiniteComplex("X", 1, dims, [sparse_map(np.zeros(shape, dtype=np.int64), 7)])
    assert _finite_complex_exact(cx) == (False, message, dims)
    assert dense_complex_exact(cx) == (False, message, dims)


def _with_entry(cx: FiniteComplex, t: int, n: int, value: int) -> FiniteComplex:
    """cx with the value of the n-th nonzero of map t replaced."""
    maps = list(cx.maps)
    M = maps[t]
    terms = M.terms.copy()
    terms[n, 3] = value
    maps[t] = RingMatrix.from_terms(M.ring, M.rows, M.cols, terms)
    return FiniteComplex(cx.name, cx.top_position, cx.dims, maps)


@pytest.mark.parametrize("p", [2, 3, 32003, 2147483647])
def test_graded_check_matches_dense(p):
    """The sparse check against the dense reference: the same (ok, message,
    dims) and the same rank of every map, on the class-T complexes to k = 5,
    the acit ring's complexes to k = 2 on its discovered basis, and A_4 of
    class T with one entry set to zero, in ways that break the composite,
    injectivity at the top and exactness in the middle."""
    ring = class_t_ring(p=p)
    classt = graded_A_complexes(5, make_class_t_basis(ring), HomologyAlgebra(ring))
    H = HomologyAlgebra(QuotientRing(p, 3, [(9, 0, 0), (0, 8, 0), (0, 0, 7), (3, 3, 3)]))
    acit = graded_A_complexes(2, discover_class_T_basis(H)[0], H)
    cases = [cx for out in (classt, acit) for family in "BCA" for cx in out[family].values()]
    broken = [_with_entry(classt["A"][4], t, n, 0) for t, n in ((0, 0), (0, 2), (2, 0))]
    cases += broken
    failures = set()
    for cx in cases:
        ok, msg, dims = _finite_complex_exact(cx)
        assert (ok, msg, dims) == dense_complex_exact(cx), cx.name
        assert [flat_rank(M) for M in cx.maps] == \
            [rank_mod(flatten(M), p) for M in cx.maps], cx.name
        failures.add(msg.split(" ")[0])
    assert failures == {"", "composite", "not"}


def test_graded_failure_names_composite_entry(basis_t, homology_t):
    # zeroing entry (2, 1) of d_0 changes column 1 of d_1 d_0 by a multiple
    # of column 2 of d_1, whose first nonzero is in row 0
    complexes = graded_A_complexes(4, basis_t, homology_t)
    d0 = complexes["A"][4].maps[0]
    assert d0.terms[2, :2].tolist() == [2, 1]
    complexes["A"][4] = _with_entry(complexes["A"][4], 0, 2, 0)
    section = check_graded_exactness(complexes)
    assert section.failure == "A_4: composite of maps 0 and 1 is nonzero at (0, 1)"
    assert dense_complex_exact(complexes["A"][4])[1].endswith("at (0, 1)")


LARGEST_PRIME = max(q for q in range(MAX_CHARACTERISTIC - 100, MAX_CHARACTERISTIC + 1)
                    if is_prime(q))


@pytest.mark.parametrize("p", [2147483647, LARGEST_PRIME])
def test_graded_composite_reduces_each_product(p):
    # entry (0, 0) of d_1 d_0 is 3 (p-1)^2 + (p-3) = 0 mod p, and three
    # unreduced products (p-1)^2 overflow int64
    assert 3 * (p - 1) ** 2 >= 2 ** 63
    d0 = np.array([[p - 1, 1], [p - 1, p - 1], [p - 1, 0], [1, 0]], dtype=np.int64)
    d1 = np.array([[p - 1, p - 1, p - 1, p - 3], [1, 1, 0, 2]], dtype=np.int64)
    cx = FiniteComplex("X", 2, [2, 4, 2], [sparse_map(d0, p), sparse_map(d1, p)])
    assert _finite_complex_exact(cx) == (True, "", [2, 4, 2])
    assert dense_complex_exact(cx) == (True, "", [2, 4, 2])
    d1[0, 3] = p - 2  # now (0, 0) is 1 mod p
    cx.maps[1] = sparse_map(d1, p)
    bad = (False, "composite of maps 0 and 1 is nonzero at (0, 0)", [2, 4, 2])
    assert _finite_complex_exact(cx) == bad
    assert dense_complex_exact(cx) == bad


# -- oracle ------------------------------------------------------------------

def test_oracle_class_t(ring_t):
    oracle = oracle_resolution(ring_t, 6)
    assert oracle.betti == [1, 3, 7, 16, 37, 86, 200]
    # differentials are minimal and compose to zero
    for d in oracle.differentials:
        assert d.first_unit_entry() is None
    for a, b in zip(oracle.differentials, oracle.differentials[1:]):
        assert (a @ b).is_zero()


def test_oracle_hypersurface(ring_x):
    assert oracle_resolution(ring_x, 6).betti == [1] * 7


def test_oracle_ci3_matches_series(ring_ci3):
    from math import comb
    oracle = oracle_resolution(ring_ci3, 6)
    assert oracle.betti == [comb(k + 2, 2) for k in range(7)]


def test_oracle_deterministic(ring_ci2):
    a = oracle_resolution(ring_ci2, 4)
    b = oracle_resolution(ring_ci2, 4)
    assert a.betti == b.betti
    assert all(map(same_matrix, a.differentials, b.differentials))


# -- orchestration -----------------------------------------------------------

def test_full_verify_class_t(ring_t):
    report, F, basis = full_verify(ring_t, "T", i_max=6,
                                   cycle_strings=class_t_ring_file().cycles, oracle=True)
    assert report.passed
    names = [s.name for s in report.sections]
    assert names == ["class_certificate", "graded_exactness", "betti_vs_series",
                     "complex", "minimality", "exactness", "oracle"]
    assert report.sign_regime == "diagonal (-1)^(deg1+deg2), phi +1"


def test_oracle_section_is_timed(ring_ci2):
    """The report times every check it runs, the oracle comparison too."""
    report, _, _ = full_verify(ring_ci2, "CI", i_max=4, oracle=True)
    assert report.section("oracle").seconds > 0


def test_class_certificate_section_times_resolve_basis(ring_ci2, monkeypatch):
    """The certificate is computed by resolve_basis, before the report has
    a section for it; that section's time covers the call."""
    resolve = verifier.resolve_basis

    def slow(*args):
        time.sleep(0.05)
        return resolve(*args)

    monkeypatch.setattr(verifier, "resolve_basis", slow)
    report, _, _ = full_verify(ring_ci2, "CI", i_max=2)
    assert report.section("class_certificate").seconds >= 0.05


def test_full_verify_ci(ring_ci2):
    report, F, _ = full_verify(ring_ci2, "CI", i_max=6)
    assert report.passed
    assert F.ranks == [1, 2, 3, 4, 5, 6, 7]


def test_full_verify_auto_detects_class(ring_t, ring_ci3):
    report, F, _ = full_verify(ring_ci3, "auto", i_max=4)
    assert F.mode == "CI" and report.passed
    report, F, _ = full_verify(ring_t, "auto", i_max=4,
                               cycle_strings=class_t_ring_file().cycles)
    assert F.mode == "T" and report.passed


def test_full_verify_wrong_mode_fails_early(ring_t):
    with pytest.raises((ClassVerificationError, DiscoveryError)):
        full_verify(ring_t, "CI", i_max=4)


def test_full_verify_forced_regime_reports_math_failure(ring_t):
    report, F, _ = full_verify(ring_t, "T", i_max=4,
                               cycle_strings=class_t_ring_file().cycles,
                               sign_flip=True)
    assert not report.passed
    failing = [s.name for s in report.sections if not s.passed]
    assert "complex" in failing


@pytest.mark.parametrize("alias_first, message", [
    (True, "duplicate cycle 'z1_4': 'z1_04' already names degree 1, index 4"),
    (False, "duplicate cycle 'z1_04': 'z1_4' already names degree 1, index 4"),
])
def test_full_verify_refuses_two_names_for_one_cycle(ring_t, alias_first, message):
    # z1_04 and z1_4 name one cycle: neither silently replaces the other
    alias, cycles = {"z1_04": "x*e[1]"}, class_t_ring_file().cycles
    cycles = {**alias, **cycles} if alias_first else {**cycles, **alias}
    with pytest.raises(ValueError, match=message):
        full_verify(ring_t, "T", i_max=4, cycle_strings=cycles)


def test_full_verify_minimal_depth(ring_ci2):
    report, F, _ = full_verify(ring_ci2, "CI", i_max=1)
    assert report.passed
    assert F.ranks == [1, 2]


def test_full_verify_builds_each_alpha_once(ring_t, monkeypatch):
    # assembly and the graded complexes share the memoized alpha: at degree 8
    # the 12 distinct alpha_{k,r} of A's basis and the 9 of B's, whose pack
    # has the invariants (3, 3, 0), are built once each
    builder.alpha.cache_clear()
    built = alpha_builds(monkeypatch)
    report, _, _ = full_verify(ring_t, "T", 8, class_t_ring_file().cycles)
    assert report.passed
    assert built() == {(4, 6, 3): 12, (3, 3, 0): 9}
