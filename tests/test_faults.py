"""Seeded fault injection into assembled resolutions.

Each mutant is an assembled resolution F (class T over F_2 and F_32003, and
the codepth-3 complete intersection k[x,y,z]/(x^2,y^2,z^2), each to degree
6) with some differentials replaced, and it is run through check_complex,
check_minimality and check_exactness.  Its verdict, the set of sections
that fail, must equal the verdict of a dense recomputation (`dense_verdict`):
the products d_i d_{i+1} of the dense flat F_p maps, the terms at the
monomial 1, and the homology read off the ranks of the dense flat maps.  So
a negative mutant, one the recomputation finds at fault, fails the checks,
and every failing section names a degree.  A changed coefficient can also
leave a minimal resolution (a term in the socle of R, which the maximal
ideal annihilates, say), and then the checks must accept the mutant.

The mutant kinds:
* one term of one copy: in d_i, add 1 to the coefficient of one term, or
  over F_2, where a nonzero coefficient can only change to 0, delete it;
* one coefficient of one distinct arrow matrix, so that every copy of it
  changes: F is assembled again with one call of
  builder.cycle_matrix_action answered by the changed matrix;
* the sign of one arrow block: over F_2 this changes nothing, so there it
  is a positive mutant;
* a unit added to one entry;
* positive: basis element j of F_i rescaled by a unit u of R, that is,
  column j of d_i times u and row j of d_{i+1} times u^-1;
* positive: an m-multiple x e_l of basis element l of F_i added to basis
  element j, x the first variable, that is, column j of d_i plus x times
  column l and row l of d_{i+1} minus x times row j.

The graded complexes B_1..B_5 and A_1..A_4 of class T, over F_2 and
F_32003, get one-entry mutants of each map in the same way as the one-term
kind; the sparse exactness check must give each one the verdict and the
message of the dense check in conftest.dense_complex_exact.
"""

import dataclasses
import itertools
import random
import re

import numpy as np
import pytest

from conftest import dense_complex_exact, flatten, make_class_t_basis, mod_matmul
from koszulres import builder
from koszulres.builder import assemble_CI, assemble_T, graded_A_complexes
from koszulres.exactfield import RingMatrix, rank_mod
from koszulres.homology import HomologyAlgebra
from koszulres.koszul import cycle_matrix_action
from koszulres.samples import ci_squares_ring, class_t_ring, class_t_ring_file
from koszulres.sequences import SequencePack
from koszulres.verifier import (
    _finite_complex_exact,
    check_complex,
    check_exactness,
    check_minimality,
    full_verify,
)

I_MAX = 6
CHECKS = (check_complex, check_minimality, check_exactness)
NAMES_A_DEGREE = re.compile(r"\bd_\d|\bdegree \d")


class Case:
    """F, verified by full_verify, and how to assemble it again."""

    def __init__(self, name):
        if name == "ci3":
            ring = ci_squares_ring(3)
            report, self.F, basis = full_verify(ring, "CI", I_MAX)
            self._assemble = lambda: assemble_CI(ring, basis, I_MAX)
        else:
            ring = class_t_ring(int(name.split("-p")[1]))
            report, self.F, basis = full_verify(
                ring, "T", I_MAX, cycle_strings=class_t_ring_file().cycles)
            pack = SequencePack(4, 6, 3)
            self._assemble = lambda: assemble_T(ring, basis, pack, I_MAX)
        assert report.passed
        self.name = name
        self.actions = []  # the number of terms of each action, in call order
        self.assemble(lambda M, n: self.actions.append(len(M.terms)) or M)
        self._dense = {}

    def assemble(self, answer):
        """F assembled again, the n-th call of cycle_matrix_action answered
        by answer(its matrix, n); a differential equal to F's is F's."""
        calls = itertools.count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(builder, "cycle_matrix_action",
                       lambda theta, i: answer(cycle_matrix_action(theta, i), next(calls)))
            G = self._assemble()
        return dataclasses.replace(self.F, differentials=[
            f if g == f else g for f, g in zip(self.F.differentials, G.differentials)])

    def rng(self, kind) -> random.Random:
        return random.Random(f"{self.name} {kind}")

    def dense(self, d):
        """The dense flat F_p matrix of d and its rank, kept for F's own."""
        if id(d) in self._dense:
            return self._dense[id(d)][1:]
        flat = flatten(d)
        out = (d, flat, rank_mod(flat, d.ring.p))
        if any(d is f for f in self.F.differentials):
            self._dense[id(d)] = out
        return out[1:]


@pytest.fixture(scope="module", params=["classT-p2", "classT-p32003", "ci3"])
def case(request):
    return Case(request.param)


def verdict(G) -> set:
    """The sections that fail on G; each failure names a degree."""
    failed = [s for s in (check(G) for check in CHECKS) if not s.passed]
    for s in failed:
        assert NAMES_A_DEGREE.search(s.failure), s.failure
    return {s.name for s in failed}


def dense_verdict(case, G) -> set:
    """The sections that must fail on G, from its dense flat maps."""
    p, D = G.ring.p, G.ring.dim
    flat, ranks = zip(*(case.dense(d) for d in G.differentials))
    faults = set()
    if any(mod_matmul(a, b, p).any() for a, b in zip(flat, flat[1:])):
        faults.add("complex")
    if any((d.terms[:, 2] == 0).any() for d in G.differentials):  # std_0 = 1
        faults.add("minimality")
    homology = [D - ranks[0] - 1] + [D * G.ranks[i] - ranks[i - 1] - ranks[i]
                                     for i in range(1, G.i_max)]
    if any(homology):
        faults.add("exactness")
    return faults


def with_diffs(F, changed: dict):
    return dataclasses.replace(F, differentials=[
        changed.get(i, d) for i, d in enumerate(F.differentials, 1)])


def change_term(M: RingMatrix, t: int) -> RingMatrix:
    """M with 1 added to the coefficient of its term t, or over F_2 that
    term deleted."""
    terms = M.terms.copy()
    if M.ring.p == 2:
        terms = np.delete(terms, t, axis=0)
    else:
        terms[t, 3] += 1
    return RingMatrix.from_terms(M.ring, M.rows, M.cols, terms)


def arrow_blocks(F, k) -> dict:
    """{(row block, column block): its terms} for each arrow block of d_k,
    the blocks of F_{k-1} and F_k that its terms join having different
    keys (the diagonal Koszul blocks keep the key)."""
    n, out = F.ring.nvars, {}
    ends = [np.cumsum([b.width(n) for b in F.blocks[j]]) for j in (k - 1, k)]
    d = F.diff(k)
    rb = ends[0].searchsorted(d.terms[:, 0], side="right")
    cb = ends[1].searchsorted(d.terms[:, 1], side="right")
    for t, (r, c) in enumerate(zip(rb.tolist(), cb.tolist())):
        if F.blocks[k - 1][r].key != F.blocks[k][c].key:
            out.setdefault((r, c), []).append(t)
    return out


def flip_arrow(F, k, block):
    d = F.diff(k)
    terms = d.terms.copy()
    terms[arrow_blocks(F, k)[block], 3] *= -1
    return with_diffs(F, {k: RingMatrix.from_terms(d.ring, d.rows, d.cols, terms)})


def rescale(F, i, j, c):
    """Basis element j of F_i times the unit u = c (1 + x) of R, x the first
    variable, whose square is 0 in these rings: u^-1 = c^-1 (1 - x)."""
    ring, n = F.ring, F.ranks[i]
    x = ring.basis_index[(1,) + (0,) * (ring.nvars - 1)]
    c_inv = pow(c, -1, ring.p)

    def diag(*terms):
        return RingMatrix.from_terms(ring, n, n, [(k, k, 0, 1) for k in range(n) if k != j]
                                     + [(j, j, b, a) for b, a in terms])

    U, U_inv = diag((0, c), (x, c)), diag((0, c_inv), (x, -c_inv))
    assert U @ U_inv == diag((0, 1))
    return with_diffs(F, {i: F.diff(i) @ U, i + 1: U_inv @ F.diff(i + 1)})


def add_multiple(F, i, j, l):
    """Basis element j of F_i replaced by e_j + x e_l, x the first variable
    and l != j: column j of d_i plus x times column l, and row l of d_{i+1}
    minus x times row j."""
    ring, n = F.ring, F.ranks[i]
    x = ring.basis_index[(1,) + (0,) * (ring.nvars - 1)]

    def shear(c):
        return RingMatrix.from_terms(ring, n, n, [(k, k, 0, 1) for k in range(n)]
                                     + [(l, j, x, c)])

    U, U_inv = shear(1), shear(-1)
    assert U @ U_inv == shear(0)
    return with_diffs(F, {i: F.diff(i) @ U, i + 1: U_inv @ F.diff(i + 1)})


# -- negative mutants, and their dense recomputation --------------------------
#
# Each kind makes its first mutant (the first term, the first action, the
# first arrow block), which is at fault in every case, and seeded ones,
# which may leave a resolution; the checks agree with the dense
# recomputation on all of them.

def test_one_term_of_one_copy(case):
    F, rng = case.F, case.rng("term")
    for i in range(2, I_MAX + 1):
        for t in (0, rng.randrange(len(F.diff(i).terms))):
            G = with_diffs(F, {i: change_term(F.diff(i), t)})
            expected = dense_verdict(case, G)
            assert verdict(G) == expected, (i, t)
            assert expected or t, i


def test_one_coefficient_of_one_arrow_matrix(case):
    # every copy of the changed action changes
    rng, last = case.rng("action"), len(case.actions) - 1
    for n, t in [(0, 0)] + [(n, rng.randrange(case.actions[n]))
                            for n in (rng.randint(1, last), last)]:
        G = case.assemble(lambda M, m: change_term(M, t) if m == n else M)
        assert G.differentials != case.F.differentials
        expected = dense_verdict(case, G)
        assert verdict(G) == expected, (n, t)
        assert expected or n, t


def test_sign_of_one_arrow_block(case):
    F, rng = case.F, case.rng("sign")
    for k in range(2, I_MAX + 1):
        blocks = sorted(arrow_blocks(F, k))
        for q in (0, rng.randrange(len(blocks))):
            G = flip_arrow(F, k, blocks[q])
            if F.ring.p == 2:
                # -1 = 1 over F_2: the mutant is F, a positive mutant there
                assert G.differentials == F.differentials
                assert verdict(G) == set()
                continue
            expected = dense_verdict(case, G)
            assert verdict(G) == expected, (k, blocks[q])
            assert expected or q, k


def test_added_unit_entry(case):
    F, rng = case.F, case.rng("unit")
    for i in range(1, I_MAX + 1):
        d = F.diff(i)
        unit = RingMatrix.from_terms(d.ring, d.rows, d.cols,
                                     [(rng.randrange(d.rows), rng.randrange(d.cols), 0, 1)])
        G = with_diffs(F, {i: d + unit})
        expected = dense_verdict(case, G)
        assert "minimality" in expected and verdict(G) == expected, i


# -- positive mutants ---------------------------------------------------------

def test_rescaled_basis_element_passes(case):
    F, rng = case.F, case.rng("rescale")
    for i in range(1, I_MAX):
        j, c = rng.randrange(F.ranks[i]), rng.randrange(1, F.ring.p)
        G = rescale(F, i, j, c)
        assert G.differentials != F.differentials
        assert verdict(G) == set() == dense_verdict(case, G), (i, j, c)


@pytest.mark.parametrize("case", ["classT-p32003", "ci3"], indirect=True)
def test_added_m_multiple_passes(case):
    # two cases keep this file inside its 5 s share of tier-1; the mutants
    # that equal F (x times column l of d_i and x times row j of d_{i+1}
    # both zero) are drawn again
    F, rng = case.F, case.rng("multiple")
    for i in range(1, I_MAX):
        G = F
        while G.differentials == F.differentials:
            j, l = rng.sample(range(F.ranks[i]), 2)
            G = add_multiple(F, i, j, l)
        assert verdict(G) == set() == dense_verdict(case, G), (i, j, l)


# -- the graded complexes -----------------------------------------------------

NAMES_A_MAP = re.compile(r"\bmaps? \d|\bposition -?\d|\bat the (top|bottom)\b")


@pytest.fixture(scope="module", params=[2, 32003])
def graded(request):
    ring = class_t_ring(request.param)
    out = graded_A_complexes(5, make_class_t_basis(ring), SequencePack(4, 6, 3),
                             HomologyAlgebra(ring))
    return [out["B"][k] for k in range(1, 6)] + [out["A"][k] for k in range(1, 5)]


def test_one_entry_of_a_graded_map(graded):
    rng, failed = random.Random(f"graded p={graded[0].maps[0].ring.p}"), 0
    for cx in graded:
        assert _finite_complex_exact(cx)[0], cx.name
        for t, M in enumerate(cx.maps):
            for n in rng.sample(range(len(M.terms)), min(6, len(M.terms))):
                G = dataclasses.replace(cx, maps=[change_term(M, n) if s == t else N
                                                  for s, N in enumerate(cx.maps)])
                ok, message, dims = _finite_complex_exact(G)
                assert (ok, message, dims) == dense_complex_exact(G), (cx.name, t, n)
                assert ok or NAMES_A_MAP.search(message), message
                failed += not ok
    assert failed
