"""Exactness by connected blocks: `RingMatrix.flat_blocks` against the dense
flattening it replaces, and the degrees the dense check could not reach."""

import numpy as np
import pytest

from conftest import flatten
from koszulres.builder import assemble_CI, assemble_T
from koszulres.exactfield import QuotientRing, RingMatrix, rank_mod
from koszulres.homology import HomologyAlgebra, discover_class_CI_basis
from koszulres.samples import ci_squares_ring, class_t_ring, class_t_ring_file
from koszulres.sequences import SequencePack
from koszulres.verifier import (
    basis_from_strings,
    check_exactness,
    full_verify,
    resolve_basis,
)

PRIMES = [2, 3, 32003, 2147483647]
ACIT_GENS = [(9, 0, 0), (0, 8, 0), (0, 0, 7), (3, 3, 3)]


def _class_t(ring, cycles, i_max):
    basis = basis_from_strings(ring, cycles, class_t=True)
    return assemble_T(ring, basis, SequencePack(4, 6, 3, k_max=12), i_max)


def _acit(p):
    ring = QuotientRing(p, 3, ACIT_GENS, names=["x", "y", "z"])
    H = HomologyAlgebra(ring)
    _, basis, _ = resolve_basis(H, "auto", {})
    a1, a2, a3 = H.ranks[1:4]
    return assemble_T(ring, basis, SequencePack(a1, a2, a3, k_max=12), 3)


def _ci3(p):
    ring = ci_squares_ring(3, p=p)
    return assemble_CI(ring, discover_class_CI_basis(HomologyAlgebra(ring))[0], 6)


ASSEMBLIES = {
    "classT-i7": lambda p: _class_t(class_t_ring(p), class_t_ring_file().cycles, 7),
    "ci3-i6": _ci3,
    "acit-i3": _acit,
    # a two-term degree-1 cycle: its entries merge monomial blocks
    "classT-mixed-i7": lambda p: _class_t(
        class_t_ring(p), dict(class_t_ring_file().cycles, z1_1="x*e[1] + y*e[2]"), 7),
}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("case", list(ASSEMBLIES))
def test_block_ranks_match_dense(case, p):
    F = ASSEMBLIES[case](p)
    largest = 0
    for i in range(1, F.i_max + 1):
        d = F.diff(i)
        flat = flatten(d)
        blocks = d.flat_blocks()
        rows = np.concatenate([r for r, _, _ in blocks])
        cols = np.concatenate([c for _, c, _ in blocks])
        # blocks own disjoint rows and columns, each listed in ascending order
        assert len(np.unique(rows)) == len(rows)
        assert len(np.unique(cols)) == len(cols)
        for r, c, B in blocks:
            assert (np.diff(r) > 0).all() and (np.diff(c) > 0).all()
            assert B.dtype == np.int64
            assert np.array_equal(B, flat[np.ix_(r, c)])
        # so every flat nonzero lies in exactly one block
        assert sum(np.count_nonzero(B) for _, _, B in blocks) == np.count_nonzero(flat)
        assert sum(rank_mod(B, p) for _, _, B in blocks) == rank_mod(flat, p)
        largest = max(largest, max(B.size for _, _, B in blocks))
    if case == "classT-mixed-i7":
        assert largest == 16 * 17
    elif case == "classT-i7":
        assert largest == 8 * 8


def test_flat_blocks_of_zero_matrix(ring_t):
    assert RingMatrix.zero(ring_t, 3, 4).flat_blocks() == []


def test_exactness_to_degree_10(ring_t):
    # the dense flat d_10 is 17591 x 40894 int64, beyond an 8 GB machine
    F = _class_t(ring_t, class_t_ring_file().cycles, 10)
    section = check_exactness(F)
    assert section.passed
    ranks = section.details["flat_ranks"]
    assert [ranks[i] for i in range(1, 10)] == [6, 15, 34, 78, 181, 421, 979, 2276, 5291]


def test_full_verify_sixth_powers():
    ring = QuotientRing(32003, 3, [(6, 0, 0), (0, 6, 0), (0, 0, 6), (2, 2, 2)],
                        names=["x", "y", "z"])
    report, F, _ = full_verify(ring, "T", 6)
    assert report.passed, [s.failure for s in report.sections if not s.passed]
    assert F.ranks == [1, 3, 7, 16, 37, 86, 200]
