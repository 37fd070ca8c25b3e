import re

import pytest

from koszulres.builder import beta, beta_prime
from koszulres.exactfield import QuotientRing, RingMatrix, parse_monomial_string
from koszulres.homology import ClassTBasis, HomologyAlgebra
from koszulres.koszul import CycleMatrix, cycle_matrix_action, parse_koszul_element
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
    product = cycle_matrix_action(b, 3) @ cycle_matrix_action(beta_prime(k + 1, triple), 2)
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
