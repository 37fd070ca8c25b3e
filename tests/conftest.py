import re

import numpy as np
import pytest

from koszulres.builder import beta, beta_prime
from koszulres.exactfield import (
    QuotientRing,
    RingMatrix,
    kernel_mod,
    parse_monomial_string,
    rref_mod,
)
from koszulres.homology import ClassTBasis, HomologyAlgebra, _extend
from koszulres.koszul import (
    CycleMatrix,
    cycle_matrix_action,
    koszul_differential,
    parse_koszul_element,
)
from koszulres.samples import ci_squares_ring, class_t_ring, class_t_ring_file
from koszulres.sequences import SequencePack


def ring_matrix(ring, rows, cols, entries):
    """RingMatrix from {(i, j): 'x*y - 2*z + 3'}, entries written as
    RingMatrix.entries prints them (signs allowed); a monomial outside the
    standard basis lies in the ideal and adds nothing."""
    terms = []
    for (i, j), text in entries.items():
        for sign, term in re.findall(r"([+-]?)\s*([^+-]+)", text):
            c, mono = 1, []
            for factor in term.split("*"):
                factor = factor.strip()
                if factor.isdigit():
                    c *= int(factor)
                else:
                    mono.append(factor)
            b = ring.basis_index.get(parse_monomial_string("*".join(mono), ring.names))
            if b is not None:
                terms.append((i, j, b, (-c if sign == "-" else c) % ring.p))
    return RingMatrix.from_terms(ring, rows, cols, terms)


def flatten(M: RingMatrix) -> np.ndarray:
    """The dense F_p matrix of the map R^cols -> R^rows that M induces, the
    reference for the block and strand paths: coordinate r occupies the
    slice [r*dim, (r+1)*dim) in the standard-monomial basis of R."""
    D = M.ring.dim
    r, c, v = M._flat_nonzeros()
    out = np.zeros((M.rows * D, M.cols * D), dtype=np.int64)
    out[r, c] = v
    return out


def dense_homology(ring):
    """Per degree i, (boundary rows, basis, pivots) of the elimination of the
    whole dense flat Koszul differentials that HomologyAlgebra replaced:
    the reduced echelon rows of (flat d_{i+1})^T, then the kernel_mod
    columns of flat d_i that complete them, reduced and normalized in
    order.  basis[len(boundary rows):] are the rep vectors."""
    n, p = ring.nvars, ring.p
    flat = [flatten(koszul_differential(i, ring)) for i in range(n + 1)]
    out = []
    for i in range(n + 1):
        if i < n:
            R, piv = rref_mod(flat[i + 1].T, p)
            bnd = R[:len(piv)]
        else:
            bnd = np.zeros((0, flat[i].shape[1]), dtype=np.int64)
        basis = list(bnd)
        pivots = {int(np.flatnonzero(r)[0]): k for k, r in enumerate(basis)}
        ker = kernel_mod(flat[i], p)
        for c in range(ker.shape[1]):
            _extend(ker[:, c], basis, pivots, p)
        out.append((bnd, basis, pivots))
    return out


def dense_rows(rows: np.ndarray, cols: int) -> np.ndarray:
    """The dense matrix of an int64 (3, nnz) array of (row, column, value),
    with as many rows as the largest row index plus one."""
    out = np.zeros((rows[0].max() + 1 if rows.size else 0, cols), dtype=np.int64)
    out[rows[0], rows[1]] = rows[2]
    return out


def cycle_entries(theta):
    """{(r, c): cycle} of a CycleMatrix, read off its index rows."""
    return {(r, c): theta.cycles[k] for r, c, k in theta.where.tolist()}


def right_inverse_holds(triple, k):
    """beta_k beta'_{k+1} = vol * I with vol = z1 ^ z2 ^ z3, compared as wedge
    actions K_0 -> K_3, where the action of a degree-3 entry is its
    coordinate column: action(beta_k) action(beta'_{k+1}) = action(vol I)."""
    vol = triple[0].wedge(triple[1]).wedge(triple[2])
    b = beta(k, triple)
    scalar = CycleMatrix(vol.ring, b.rows, b.rows, 3, [vol],
                         [(i, i, 0) for i in range(b.rows)])
    b_prime = beta_prime(k + 1, ClassTBasis(list(triple), [], []))
    product = cycle_matrix_action(b, 3) @ cycle_matrix_action(b_prime, 2)
    return product == cycle_matrix_action(scalar, 3)


def make_class_t_basis(ring):
    cyc = {name: parse_koszul_element(text, ring)
           for name, text in class_t_ring_file().cycles.items()}
    return ClassTBasis(
        z1=[cyc[f"z1_{i}"] for i in range(1, 5)],
        z2=[cyc[f"z2_{i}"] for i in range(1, 4)],
        z3=[cyc[f"z3_{i}"] for i in range(1, 4)],
    )


@pytest.fixture(scope="session")
def ring_t():
    """The codepth-3 class-T example ring over F_32003."""
    return class_t_ring()


@pytest.fixture(scope="session")
def ring_t2():
    return class_t_ring(p=2)


@pytest.fixture(scope="session")
def basis_t(ring_t):
    return make_class_t_basis(ring_t)


@pytest.fixture(scope="session")
def homology_t(ring_t):
    return HomologyAlgebra(ring_t)


@pytest.fixture(scope="session")
def pack_t():
    return SequencePack(4, 6, 3, k_max=12)


@pytest.fixture(scope="session")
def ring_ci3():
    return ci_squares_ring(3)


@pytest.fixture(scope="session")
def ring_ci2():
    return ci_squares_ring(2)


@pytest.fixture(scope="session")
def ring_x():
    """The hypersurface k[x]/(x^2)."""
    return QuotientRing(32003, 1, [(2,)], names=["x"])
