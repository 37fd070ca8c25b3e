"""The syzygy oracle against the dense reference it replaces, and the depths
the dense oracle could not reach."""

import numpy as np
import pytest

from conftest import flatten, ring_matrix
from koszulres.builder import assemble_T
from koszulres.exactfield import (
    QuotientRing,
    RingMatrix,
    kernel_mod,
    mod_matmul,
    rref_mod,
)
from koszulres.samples import ci_squares_ring, class_t_ring, class_t_ring_file
from koszulres.sequences import SequencePack
from koszulres.verifier import OracleResolution, basis_from_strings, oracle_resolution

PRIMES = [2, 3, 32003, 2147483647]


def dense_oracle(ring: QuotientRing, i_max: int) -> OracleResolution:
    """The oracle on dense flat matrices: kernel_mod of the whole flattened
    differential, then the pivots among the kernel columns of the echelon
    form of [m . ker | ker], with m . ker spanned by the variable multiples."""
    p = ring.p
    D = ring.dim
    var_mults = [flatten(ring_matrix(ring, 1, 1, {(0, 0): v})) for v in ring.names]
    d1 = ring_matrix(ring, 1, ring.nvars, {(0, v): x for v, x in enumerate(ring.names)})
    betti = [1, ring.nvars]
    diffs = [d1]
    current = d1
    for _ in range(2, i_max + 1):
        ker = kernel_mod(flatten(current), p)
        m_cols = _m_multiples(ker, var_mults, current.cols, D, p)
        stacked = np.hstack([m_cols, ker]) if m_cols.size else ker
        piv = rref_mod(stacked, p)[1]
        offset = m_cols.shape[1]
        columns = [ker[:, c - offset] for c in piv if c >= offset]
        betti.append(len(columns))
        C = np.array(columns, dtype=np.int64).reshape(-1, ker.shape[0]).T
        g, j = np.nonzero(C)  # flat row g of column j is std_{g % D} of coordinate g // D
        current = RingMatrix.from_terms(ring, current.cols, len(columns),
                                        np.column_stack([g // D, j, g % D, C[g, j]]))
        diffs.append(current)
    return OracleResolution(betti[: i_max + 1], diffs)


def _m_multiples(ker, var_mults, ncoords, D, p):
    """Columns spanning m . (column span of ker) inside R^ncoords."""
    if ker.shape[1] == 0:
        return np.zeros((ker.shape[0], 0), dtype=np.int64)
    blocks = []
    for X in var_mults:
        out = np.zeros_like(ker)
        for r in range(ncoords):
            sl = slice(r * D, (r + 1) * D)
            out[sl] = mod_matmul(X, ker[sl], p)
        blocks.append(out)
    return np.hstack(blocks)


def _xyz(p, gens, names="xyz"):
    """A monomial ring from exponents written in x, y, z order, with the
    variables listed in the order `names`."""
    perm = ["xyz".index(v) for v in names]
    return QuotientRing(p, 3, [tuple(g[v] for v in perm) for g in gens],
                        names=list(names))


# symmetric in x, y, z: listing the variables as z, y, x renames the same ring
X4 = [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)]
# not symmetric in x, y, z, so the two orders give different standard bases
X4Y3Z2 = [(4, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)]

RINGS = {
    "classT-d6": (lambda p: class_t_ring(p), 6),
    "ci3-d6": (lambda p: ci_squares_ring(3, p=p), 6),
    "ci2-d6": (lambda p: ci_squares_ring(2, p=p), 6),
    "x4y4z4xyz-xyz-d4": (lambda p: _xyz(p, X4), 4),
    "x4y4z4xyz-zyx-d4": (lambda p: _xyz(p, X4, "zyx"), 4),
    "x4y3z2xyz-xyz-d5": (lambda p: _xyz(p, X4Y3Z2), 5),
    "x4y3z2xyz-zyx-d5": (lambda p: _xyz(p, X4Y3Z2, "zyx"), 5),
}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("case", list(RINGS))
def test_oracle_matches_dense(case, p):
    make, depth = RINGS[case]
    ring = make(p)
    got = oracle_resolution(ring, depth)
    want = dense_oracle(ring, depth)
    assert got.betti == want.betti
    assert len(got.differentials) == len(want.differentials)
    for a, b in zip(got.differentials, want.differentials):
        assert a == b


def test_oracle_class_t_depth_10(ring_t):
    # the dense oracle needed 788 MB at depth 8 and about 4 GB at depth 9
    basis = basis_from_strings(ring_t, class_t_ring_file().cycles, class_t=True)
    F = assemble_T(ring_t, basis, SequencePack(4, 6, 3, k_max=12), 10)
    oracle = oracle_resolution(ring_t, 10)
    assert oracle.betti == F.ranks
    assert oracle.betti[-2:] == [2513, 5842]
