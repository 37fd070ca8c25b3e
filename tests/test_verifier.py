import copy

import numpy as np
import pytest

from conftest import ring_matrix
from koszulres import builder
from koszulres.builder import assemble_CI, assemble_T, graded_A_complexes
from koszulres.exactfield import RingMatrix
from koszulres.homology import (
    ClassVerificationError,
    DiscoveryError,
    HomologyAlgebra,
    discover_class_CI_basis,
)
from koszulres.koszul import koszul_differential
from koszulres.samples import class_t_ring_file
from koszulres.verifier import (
    check_complex,
    check_exactness,
    check_graded_exactness,
    check_minimality,
    full_verify,
    oracle_resolution,
)


@pytest.fixture(scope="module")
def assembly_t(ring_t, basis_t, pack_t):
    return assemble_T(ring_t, basis_t, pack_t, i_max=6)


@pytest.fixture(scope="module")
def assembly_ci2(ring_ci2):
    basis, _ = discover_class_CI_basis(HomologyAlgebra(ring_ci2))
    return assemble_CI(ring_ci2, basis, i_max=6)


# -- complex / minimality / exactness ----------------------------------------

def test_check_complex_passes(assembly_t, assembly_ci2, ring_t, ring_ci2):
    assert check_complex(assembly_t).passed
    assert check_complex(assembly_ci2).passed


def test_check_complex_sign_flip_fails(ring_t, basis_t, pack_t):
    # the wrong diagonal sign rule genuinely breaks the complex
    Fbad = assemble_T(ring_t, basis_t, pack_t, i_max=4, sign_flip=True)
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


def test_check_exactness_detects_dropped_block(ring_t, basis_t, pack_t):
    # truncate the last block of F_4 (K_0^13 @ X[2,2]): homology appears at 3
    F = assemble_T(ring_t, basis_t, pack_t, i_max=5)
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


def test_negative_controls_hit_one_check_each(ring_t, basis_t, pack_t):
    # the rejected sign regime fails the complex check but nothing else
    Fbad = assemble_T(ring_t, basis_t, pack_t, i_max=4, sign_flip=True)
    assert not check_complex(Fbad).passed
    assert check_minimality(Fbad).passed


# -- graded complexes --------------------------------------------------------

def test_graded_exactness(basis_t, pack_t, homology_t):
    complexes = graded_A_complexes(5, basis_t, pack_t, homology_t)
    section = check_graded_exactness(complexes)
    assert section.passed, section.failure


def test_graded_exactness_negative_control(basis_t, pack_t, homology_t):
    complexes = graded_A_complexes(2, basis_t, pack_t, homology_t)
    complexes["A"][2].maps[0] = np.zeros_like(complexes["A"][2].maps[0])
    section = check_graded_exactness(complexes)
    assert not section.passed
    assert "A_2" in section.failure


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
    assert all(x == y for x, y in zip(a.differentials, b.differentials))


# -- orchestration -----------------------------------------------------------

def test_full_verify_class_t(ring_t):
    report, F, basis = full_verify(ring_t, "T", i_max=6,
                                   cycle_strings=class_t_ring_file().cycles, oracle=True)
    assert report.passed
    names = [s.name for s in report.sections]
    assert names == ["class_certificate", "graded_exactness", "betti_vs_series",
                     "complex", "minimality", "exactness", "oracle"]
    assert report.sign_regime == "diagonal (-1)^(deg1+deg2), phi +1"


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


def test_full_verify_minimal_depth(ring_ci2):
    report, F, _ = full_verify(ring_ci2, "CI", i_max=1)
    assert report.passed
    assert F.ranks == [1, 2]


def test_full_verify_builds_each_alpha_once(ring_t, monkeypatch):
    # assembly and the graded complexes share one alpha_family: at degree 8
    # the 12 distinct alpha_{k,r} are built once each
    calls = []
    alpha = builder.alpha

    def spy(k, r, pack, basis):
        calls.append((k, r))
        return alpha(k, r, pack, basis)

    monkeypatch.setattr(builder, "alpha", spy)
    report, _, _ = full_verify(ring_t, "T", 8, class_t_ring_file().cycles)
    assert report.passed
    assert len(calls) == len(set(calls)) == 12
