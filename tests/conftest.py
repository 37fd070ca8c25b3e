import re
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np
import pytest

from koszulres import builder
from koszulres.builder import FiniteComplex, beta, beta_prime
from koszulres.exactfield import (
    QuotientRing,
    RingMatrix,
    _check_characteristic,
    _component_labels,
    _local_index,
    block_terms,
    kernel_mod,
    parse_monomial_string,
    rank_mod,
    rref_mod,
)
from koszulres.homology import ClassTBasis, HomologyAlgebra
from koszulres.koszul import (
    CycleMatrix,
    KoszulElement,
    cycle_matrix_action,
    koszul_differential,
    parse_koszul_element,
    subsets,
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


def box_std_basis(ring) -> list:
    """The standard monomials of ring filtered from the whole exponent box
    below its pure powers, in mono_key order: the reference for
    QuotientRing._compute_std_basis, whose memory follows dim R instead."""
    bounds = np.array(ring._pure_bounds, dtype=np.int64)
    box = np.indices(bounds, dtype=np.int64).reshape(ring.nvars, -1).T
    standard = np.ones(len(box), dtype=bool)
    for g in ring.ideal_gens:
        standard &= (box < g).any(axis=1)
    E = box[standard]
    return [tuple(m) for m in E[np.lexsort((*(-E[:, ::-1].T), E.sum(axis=1)))].tolist()]


def mod_matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Exact (A @ B) mod p of dense matrices, summed over chunks of the
    inner dimension, the reference product of the dense cross-checks.

    Every partial dot product of a chunk stays inside the exact range of the
    accumulator: float64 (BLAS) while (p-1)^2 < 2^53, else int64 with the
    bound 2^63 - p, so adding the reduced running sum cannot overflow."""
    _check_characteristic(p)
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    per = (p - 1) ** 2
    dtype, bound = (np.float64, 2 ** 53) if per < 2 ** 53 else (np.int64, 2 ** 63 - p)
    step = bound // per
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for lo in range(0, A.shape[1], step):
        C = A[:, lo:lo + step].astype(dtype) @ B[lo:lo + step].astype(dtype)
        out = (out + C.astype(np.int64)) % p
    return out


def sparse_map(A: np.ndarray, p: int) -> RingMatrix:
    """The dense matrix A as a RingMatrix over F_p, the ring with no
    variables; its dense form is flatten (dim 1)."""
    r, c = np.nonzero(A)
    return RingMatrix.from_terms(QuotientRing(p, 0, ()), *A.shape,
                                 np.column_stack([r, c, np.zeros_like(r), A[r, c]]))


def dense_complex_exact(cx: FiniteComplex):
    """(ok, message, dims) of the finite complex cx, checked on its dense
    maps with mod_matmul and rank_mod: the reference for the sparse check
    verifier._finite_complex_exact, with the same messages."""
    dims = [int(d) for d in cx.dims]
    maps = [flatten(M) for M in cx.maps]
    p = cx.maps[0].ring.p if maps else None
    for t, M in enumerate(maps):
        if M.shape != (dims[t + 1], dims[t]):
            return False, f"map {t} has shape {M.shape}, expected " \
                          f"({dims[t + 1]}, {dims[t]})", dims
    for t in range(len(maps) - 1):
        bad = np.argwhere(mod_matmul(maps[t + 1], maps[t], p))
        if len(bad):
            return False, (f"composite of maps {t} and {t + 1} is nonzero at "
                           f"{tuple(bad[0].tolist())}"), dims
    ranks = [rank_mod(M, p) for M in maps]
    if not ranks:
        return dims[0] == 0, "empty complex must be zero", dims
    if ranks[0] != dims[0]:
        return False, f"not exact at the top: rank {ranks[0]} < dim {dims[0]}", dims
    for t in range(len(ranks) - 1):
        if ranks[t] + ranks[t + 1] != dims[t + 1]:
            return False, (f"not exact at position {cx.top_position - t - 1}: "
                           f"{ranks[t]} + {ranks[t + 1]} != {dims[t + 1]}"), dims
    if ranks[-1] != dims[-1]:
        return False, (f"not exact at the bottom: rank {ranks[-1]} "
                       f"< dim {dims[-1]}"), dims
    return True, "", dims


def flat_blocks(M: RingMatrix) -> list:
    """The connected blocks of the flat F_p matrix of M one by one, the
    reference for RingMatrix.flat_contents: (rows, cols, block) per
    component that has a nonzero, ordered by smallest row, with ascending
    flat row and column indices and the dense int64 block on them."""
    D = M.ring.dim
    r, c, v = M._flat_nonzeros()
    n_rows, n_cols = M.rows * D, M.cols * D
    node = _component_labels(r, c + n_rows, n_rows + n_cols)
    label = node[r]
    lr = _local_index(node[:n_rows])[r]
    lc = _local_index(node[n_rows:])[c]
    order = np.argsort(label, kind="stable")
    r, c, v, lr, lc, label = (x[order] for x in (r, c, v, lr, lc, label))
    starts = np.flatnonzero(np.diff(label, prepend=-1))
    blocks = []
    for s, e in zip(starts, np.r_[starts[1:], len(label)]):
        B = np.zeros((lr[s:e].max() + 1, lc[s:e].max() + 1), dtype=np.int64)
        B[lr[s:e], lc[s:e]] = v[s:e]
        rows = np.empty(B.shape[0], dtype=np.int64)
        rows[lr[s:e]] = r[s:e]
        cols = np.empty(B.shape[1], dtype=np.int64)
        cols[lc[s:e]] = c[s:e]
        blocks.append((rows, cols, B))
    return blocks


def same_matrix(a: RingMatrix, b: RingMatrix) -> bool:
    """Equality of ring matrices: one ring, one shape and the same term
    rows, which from_terms keeps sorted and reduced."""
    return (a.ring == b.ring and (a.rows, a.cols) == (b.rows, b.cols)
            and np.array_equal(a.terms, b.terms))


def same_element(a: KoszulElement, b: KoszulElement) -> bool:
    """Equality of Koszul elements: one degree and the same column."""
    return a.degree == b.degree and same_matrix(a.col, b.col)


def to_vector(z: KoszulElement) -> np.ndarray:
    """The dense F_p coordinate vector of z, subset-major then
    standard-monomial: the term (t, 0, b, c) is coordinate t * dim + b."""
    D, t = z.ring.dim, z.col.terms
    v = np.zeros(z.col.rows * D, dtype=np.int64)
    v[t[:, 0] * D + t[:, 2]] = t[:, 3]
    return v


def from_vector(ring, degree, vec) -> KoszulElement:
    """The element of K_degree with dense coordinate vector vec."""
    D = ring.dim
    vec = np.asarray(vec, dtype=np.int64)
    k = np.flatnonzero(vec % ring.p)
    return KoszulElement(ring, degree, RingMatrix.from_terms(
        ring, len(subsets(ring.nvars, degree)), 1,
        np.column_stack([k // D, np.zeros_like(k), k % D, vec[k]])))


def repeat_diag(M: RingMatrix, copies: int) -> RingMatrix:
    """Block-diagonal sum of `copies` copies of M."""
    return RingMatrix.from_terms(M.ring, M.rows * copies, M.cols * copies,
                                 block_terms([M], 0, 0, 0, copies, 1))


@dataclass
class ChainMapReport:
    passed: bool
    degrees: list
    failure: tuple | None = None  # (degree, row, col) of first bad coordinate

    def __bool__(self):
        return self.passed


def verify_chain_map(theta: CycleMatrix, degrees) -> ChainMapReport:
    """Check d_i o theta = (-1)^j theta o d_{i-j} as RingMatrix identities,
    with the Koszul differentials repeated block-diagonally over the copies."""
    ring, j = theta.ring, theta.entry_degree
    checked = []
    for i in degrees:
        if i < j or i > ring.nvars:
            continue
        d_i = repeat_diag(koszul_differential(i, ring), theta.rows)
        lhs = d_i @ cycle_matrix_action(theta, i)
        shape = (theta.rows * len(subsets(ring.nvars, i - 1)),
                 theta.cols * len(subsets(ring.nvars, i - j)))
        rhs = RingMatrix.from_terms(ring, *shape, ())
        if i - 1 >= j and 0 < i - j:
            d_src = repeat_diag(koszul_differential(i - j, ring), theta.cols)
            rhs = cycle_matrix_action(theta, i - 1) @ d_src
        assert (lhs.rows, lhs.cols) == (rhs.rows, rhs.cols) == shape, i
        diff = RingMatrix.from_terms(ring, *shape, np.concatenate(
            [lhs.terms, rhs.terms * [1, 1, 1, (-1) ** (j + 1)]]))
        checked.append(i)
        if not diff.is_zero():
            r, c = diff.terms[0, :2].tolist()  # terms are sorted by (row, column)
            return ChainMapReport(False, checked, (i, r, c))
    return ChainMapReport(True, checked)


def dense_homology(ring):
    """Per degree i, (boundary rows, basis) of the elimination of the
    whole dense flat Koszul differentials that HomologyAlgebra replaced:
    one rref_mod of [flat d_{i+1} | kernel_mod(flat d_i)], whose pivot
    columns pick an independent set of boundary columns, then the kernel
    columns that complete them, in order.  basis[len(boundary rows):] are
    the rep vectors."""
    n, p = ring.nvars, ring.p
    flat = [flatten(koszul_differential(i, ring)) for i in range(n + 1)]
    out = []
    for i in range(n + 1):
        K = kernel_mod(flat[i], p)
        up = flat[i + 1] if i < n else np.zeros((K.shape[0], 0), dtype=np.int64)
        _, piv = rref_mod(np.hstack([up, K]), p)
        nu = up.shape[1]
        bnd = up[:, [c for c in piv if c < nu]].T
        reps = K[:, [c - nu for c in piv if c >= nu]].T
        out.append((bnd, np.vstack([bnd, reps])))
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
    return same_matrix(product, cycle_matrix_action(scalar, 3))


def alpha_builds(monkeypatch):
    """Spy on builder.alpha.  The returned function gives {invariants of a
    basis's pack: the number of distinct alpha_{k,r} asked for on it}, and checks
    that the memoized alpha built each of them once since its cache was
    last cleared."""
    keys, real = set(), builder.alpha
    monkeypatch.setattr(builder, "alpha",
                        lambda *key: keys.add(key) or real(*key))

    def built() -> dict:
        assert real.cache_info().misses == len(keys)
        return dict(Counter((Z.pack.a1, Z.pack.a2, Z.pack.a3) for _, _, Z in keys))
    return built


def recurrence_tables(a1, a2, a3, k_max) -> dict:
    """{name: [value at k for k <= k_max]} of the tables b, l, lp, lpp and d
    of the class-T invariants (a1, a2, a3), by one plain loop over the
    recurrences that SequencePack states."""
    b = [comb(k + 2, 2) for k in range(k_max + 1)]
    l, lp, lpp, d = [1], [0], [0], [1]
    for k in range(1, k_max + 1):
        d.append((a1 - 3) * l[k - 1])
        l.append(sum(b[k - i] * d[i] for i in range(k + 1)))
        lp.append((l[k - 2] if k >= 2 else 0) + (a2 - 3) * l[k - 1])
        lpp.append(a3 * l[k - 1])
    return {"b": b, "l": l, "lp": lp, "lpp": lpp, "d": d}


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
    return SequencePack(4, 6, 3)


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
