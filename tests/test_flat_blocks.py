"""Exactness by distinct block contents: `RingMatrix.flat_contents` (through
`exactfield.block_contents`) against the per-block reference `flat_blocks`
and the dense flattening both replace, and the degrees the dense check
could not reach."""

from pathlib import Path

import numpy as np
import pytest

import koszulres.homology as homology
import koszulres.verifier as verifier
from conftest import flat_blocks, flatten
from koszulres.builder import assemble_CI, assemble_T
from koszulres.exactfield import QuotientRing, RingMatrix, block_contents, rank_mod
from koszulres.homology import HomologyAlgebra, discover_class_CI_basis
from koszulres.samples import ci_squares_ring, class_t_ring, class_t_ring_file
from koszulres.verifier import (
    _flat_kernel,
    basis_from_strings,
    check_exactness,
    full_verify,
    oracle_resolution,
    resolve_basis,
)

PRIMES = [2, 3, 32003, 2147483647]
ACIT_GENS = [(9, 0, 0), (0, 8, 0), (0, 0, 7), (3, 3, 3)]


def _class_t(ring, cycles, i_max):
    basis = basis_from_strings(ring, cycles, class_t=True)
    return assemble_T(ring, basis, i_max)


def _acit(p):
    ring = QuotientRing(p, 3, ACIT_GENS, names=["x", "y", "z"])
    H = HomologyAlgebra(ring)
    _, basis, _ = resolve_basis(H, "auto", {})
    return assemble_T(ring, basis, 3)


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

# classT-i7, summed over d_1..d_7: (blocks, distinct contents); at p = 2,
# where -1 = 1, fewer contents are distinct
CLASS_T_I7_COUNTS = {2: (1331, 48), 3: (1331, 90), 32003: (1331, 90),
                     2147483647: (1331, 90)}


def _rows(flat, cols):
    """The rows of the flat block with columns ``cols``: a block is a
    connected component of the nonzeros, so they are the rows with a
    nonzero in its columns, ascending."""
    return np.flatnonzero(flat[:, cols].any(axis=1))


def _copies(contents, flat):
    """Every block the contents of ``flat`` stand for, as (rows, cols, block)
    lists."""
    return [(_rows(flat, c).tolist(), c.tolist(), b.matrix.tolist())
            for b in contents for c in b.cols]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("case", list(ASSEMBLIES))
def test_block_ranks_match_dense(case, p):
    F = ASSEMBLIES[case](p)
    largest, blocks, distinct = 0, 0, 0
    for i in range(1, F.i_max + 1):
        d = F.diff(i)
        flat = flatten(d)
        reference = flat_blocks(d)
        rows = np.concatenate([r for r, _, _ in reference])
        cols = np.concatenate([c for _, c, _ in reference])
        # reference blocks own disjoint rows and columns, each ascending
        assert len(np.unique(rows)) == len(rows)
        assert len(np.unique(cols)) == len(cols)
        for r, c, B in reference:
            assert (np.diff(r) > 0).all() and (np.diff(c) > 0).all()
            assert B.dtype == np.int64
            assert np.array_equal(B, flat[np.ix_(r, c)])
        # so every flat nonzero lies in exactly one reference block
        assert sum(np.count_nonzero(B) for _, _, B in reference) == np.count_nonzero(flat)
        contents = d.flat_contents()
        # contents are distinct, and every flat row and column with a
        # nonzero lies in exactly one copy of one of them
        keys = {(b.matrix.shape, b.matrix.tobytes(), b.row_tags.tobytes(),
                 b.col_tags.tobytes()) for b in contents}
        assert len(keys) == len(contents)
        copies = _copies(contents, flat)
        for k, axis in ((0, 1), (1, 0)):
            got = np.sort(np.concatenate([copy[k] for copy in copies]))
            assert np.array_equal(got, np.flatnonzero(flat.any(axis=axis)))
        for b in contents:
            assert b.matrix.dtype == np.int64
            assert len(b.cols) == len(b.owners) > 0
            for c in b.cols:
                r = _rows(flat, c)
                assert len(r) == b.matrix.shape[0] and (np.diff(c) > 0).all()
                assert np.array_equal(flat[np.ix_(r, c)], b.matrix)
        # so every flat nonzero lies in exactly one copy: none links two
        assert sum(len(b.owners) * np.count_nonzero(b.matrix)
                   for b in contents) == np.count_nonzero(flat)
        # the copies are the reference blocks, one for one
        assert sorted(copies) == \
            sorted((r.tolist(), c.tolist(), B.tolist()) for r, c, B in reference)
        rank = sum(len(b.owners) * rank_mod(b.matrix, p) for b in contents)
        assert rank == sum(rank_mod(B, p) for _, _, B in reference) == rank_mod(flat, p)
        largest = max(largest, max(B.size for _, _, B in reference))
        blocks += len(reference)
        distinct += len(contents)
    if case == "classT-mixed-i7":
        assert largest == 16 * 17
    elif case == "classT-i7":
        assert largest == 8 * 8
        assert (blocks, distinct) == CLASS_T_I7_COUNTS[p]


@pytest.mark.parametrize("case", list(ASSEMBLIES))
def test_tagged_columns_go_last(case):
    # the oracle's order: inside each block the untagged columns first,
    # then the tagged ones, each ascending; the tags are part of the content
    F = ASSEMBLIES[case](32003)
    D = F.ring.dim
    for i in range(1, F.i_max + 1):
        d = F.diff(i)
        flat = flatten(d)
        unit = np.arange(d.cols * D) % D == 0
        tagged = d.flat_contents(col_tag=unit)
        for b in tagged:
            for c in b.cols:
                assert np.array_equal(b.col_tags, unit[c])
                assert np.array_equal(c, c[np.lexsort((c, unit[c]))])
                r = _rows(flat, c)
                assert len(r) == b.matrix.shape[0]
                assert np.array_equal(flat[np.ix_(r, c)], b.matrix)
        untagged = {(tuple(r), frozenset(c))
                    for r, c, _ in _copies(d.flat_contents(), flat)}
        assert {(tuple(r), frozenset(c)) for r, c, _ in _copies(tagged, flat)} == untagged


def _block_rows(r, c, b):
    """The rows of each copy of the content b of the nonzeros (r, c): those
    with a nonzero in its columns, or the lone row that labels a block with
    no column."""
    return [np.unique(r[np.isin(c, k)]).tolist() if len(k) else [owner]
            for owner, k in zip(b.owners.tolist(), b.cols)]


def test_contents_keyed_on_shape_and_tags():
    # blocks 0, 1, 3 and 4 (each labelled by its least node, column b being
    # node 5 + b) all hold the entries [1, 1]: block 1 as a column, block 3
    # with its second column tagged; block 4 repeats block 0
    r = np.array([0, 0, 1, 2, 3, 3, 4, 4])
    c = np.array([0, 1, 2, 2, 3, 4, 5, 6])
    v = np.ones(8, dtype=np.int64)
    col_tags = np.array([0, 0, 0, 0, 1, 0, 0])
    contents = block_contents(r, c, v, (5, 7), 0, col_tags)
    got = sorted((b.matrix.tolist(), b.col_tags.tolist(), b.owners.tolist())
                 for b in contents)
    assert got == [([[1], [1]], [0], [1]),
                   ([[1, 1]], [0, 0], [0, 4]),
                   ([[1, 1]], [0, 1], [3])]
    shared = next(b for b in contents if len(b.owners) == 2)
    assert _block_rows(r, c, shared) == [[0], [4]]
    assert shared.cols.tolist() == [[0, 1], [5, 6]]


def test_lone_rows_and_columns_are_blocks():
    # a 2 x 3 matrix whose row 1 and column 1 have no nonzero: each is a
    # block of its own, and in block 0 the tagged column 0 comes after the
    # untagged column 2
    r, c, v = np.array([0, 0]), np.array([2, 0]), np.array([7, 3])
    contents = block_contents(r, c, v, (2, 3), 0, np.array([1, 0, 0]))
    got = sorted((b.matrix.shape, b.matrix.tolist(), b.col_tags.tolist(),
                  b.owners.tolist(), _block_rows(r, c, b), b.cols.tolist()) for b in contents)
    assert got == [((0, 1), [], [0], [3], [[]], [[1]]),
                   ((1, 0), [[]], [], [1], [[1]], [[]]),
                   ((1, 2), [[7, 3]], [0, 1], [0], [[0]], [[2, 0]])]


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or fn(*args))
    return calls


def test_one_elimination_per_distinct_content(monkeypatch):
    F = ASSEMBLIES["classT-i7"](32003)
    ring = F.ring
    contents = [len(F.diff(i).flat_contents()) for i in range(1, 8)]
    ranks = _count_calls(monkeypatch, verifier, "rank_mod")
    check_exactness(F)
    assert len(ranks) == sum(contents) < sum(len(b.owners) for i in range(1, 8)
                                             for b in F.diff(i).flat_contents())
    # the oracle: one kernel_mod per content of each d, one rref_mod per
    # content of each kernel
    diffs = oracle_resolution(ring, 5).differentials
    kernels = [_flat_kernel(d) for d in diffs[:-1]]
    unit = [np.arange(K.cols * ring.dim) % ring.dim == 0 for K in kernels]
    kernel_calls = _count_calls(monkeypatch, verifier, "kernel_mod")
    rref_calls = _count_calls(monkeypatch, verifier, "rref_mod")
    oracle_resolution(ring, 5)
    assert len(kernel_calls) == sum(len(d.flat_contents()) for d in diffs[:-1])
    assert len(rref_calls) == sum(len(K.flat_contents(col_tag=u))
                                  for K, u in zip(kernels, unit))
    # the homology: one rref_mod and one kernel_mod per distinct strand content
    strand_rref = _count_calls(monkeypatch, homology, "rref_mod")
    strand_kernel = _count_calls(monkeypatch, homology, "kernel_mod")
    found, real = [], homology.block_contents

    def spy(*args):
        found.append(real(*args))
        return found[-1]

    monkeypatch.setattr(homology, "block_contents", spy)
    homology.HomologyAlgebra(ring)
    # the contents of the strands, which have columns, and their owners
    contents = [b for blocks in found for b in blocks if b.matrix.shape[1]]
    assert len(strand_rref) == len(strand_kernel) == len(contents)
    assert len(contents) < sum(len(b.owners) for b in contents)


def test_one_block_engine_in_src():
    # the per-block loop is gone, and the homology strands read their
    # contents from exactfield.block_contents
    src = Path(__file__).resolve().parents[1] / "src" / "koszulres"
    text = {p.name: p.read_text() for p in src.glob("*.py")}
    assert not any("flat_blocks" in t for t in text.values())
    assert "block_contents(" in text["homology.py"]
    # and block_contents finds the blocks itself: no other module labels
    # them, and the homology reads no multidegree codes
    for name, t in text.items():
        if name != "exactfield.py":
            assert "_component_labels" not in t and "_local_index" not in t, name
    assert "code_weights" not in text["homology.py"]
    # the graded complexes are RingMatrix over F_p, ranked by the same engine
    assert "np.zeros((theta.rows" not in text["builder.py"]
    assert not any("SparseMap" in t or "sparse_contents" in t for t in text.values())
    verifier = text["verifier.py"]
    for name in ("check_exactness", "_finite_complex_exact"):
        body = verifier[verifier.index(f"def {name}("):]
        body = body[:body.index("\ndef ", 1)]
        assert "flat_rank(" in body, name


def test_flat_blocks_of_zero_matrix(ring_t):
    assert RingMatrix.from_terms(ring_t, 3, 4, ()).flat_contents() == []
    assert flat_blocks(RingMatrix.from_terms(ring_t, 3, 4, ())) == []


def test_exactness_to_degree_10(ring_t):
    # the dense flat d_10 is 17591 x 40894 int64, beyond an 8 GB machine
    F = _class_t(ring_t, class_t_ring_file().cycles, 10)
    section = check_exactness(F)
    assert section.passed
    ranks = section.details["flat_ranks"]
    assert [ranks[str(i)] for i in range(1, 10)] == [6, 15, 34, 78, 181, 421, 979, 2276, 5291]


def test_full_verify_sixth_powers():
    ring = QuotientRing(32003, 3, [(6, 0, 0), (0, 6, 0), (0, 0, 6), (2, 2, 2)],
                        names=["x", "y", "z"])
    report, F, _ = full_verify(ring, "T", 6)
    assert report.passed, [s.failure for s in report.sections if not s.passed]
    assert F.ranks == [1, 3, 7, 16, 37, 86, 200]
