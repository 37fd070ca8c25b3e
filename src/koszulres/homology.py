"""Koszul homology A = H(K) as graded F_p vector spaces with explicit cycle
representatives, products of homology classes, and certification of the two
multiplication structures this library resolves over:

* complete intersection: A is the exterior algebra on A_1;
* class T (codepth 3): A_1 has a distinguished triple whose three pairwise
  products span A_1.A_1 inside A_2, and every other product of basis classes
  vanishes, so A = B |x C is a trivial extension.

Nothing here assumes the multiplication table; every product is computed and
checked by exact linear algebra, in any characteristic.

The homology is computed one strand at a time, a strand being a connected
block of the flat Koszul differentials (`exactfield.block_contents`, as for
exactness and the oracle).  K is Z^n-graded and d preserves the grading, so
each strand lies in one multidegree and is small: no dense flat matrix is
formed (see HomologyAlgebra).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exactfield import QuotientRing, RingMatrix, block_contents, kernel_mod, rank_mod, rref_mod
from .koszul import KoszulElement, koszul_differential, subsets
from .sequences import SequencePack


class HomologyError(ValueError):
    pass


class ClassVerificationError(ValueError):
    """A supplied basis fails its class certification."""


# ---------------------------------------------------------------------------
# the homology algebra
# ---------------------------------------------------------------------------


class HomologyAlgebra:
    """Per-degree cycle representatives and ranks of A = H(K), computed one
    strand at a time.

    The strands of K_i are the connected blocks of the nonzeros of
    (flat d_{i+1})^T stacked over flat d_i, so no kernel or image vector
    leaves its strand.  Over a monomial ring K is Z^n-graded: the flat
    coordinate t*D + b of K_i, which is std_b e_T, has multidegree
    exps(std_b) + eps_T, and every flat d_i preserves it, so each strand
    lies in one multidegree and is small.  For each homological degree i:

      * ``flat_diff[i]``  the nonzeros of flat d_i, an int64 (3, nnz) array
        of (row, column, value);
      * ``reps[i]``      cycle representatives completing the boundaries to
        ker(flat d_i), in the order of the free columns of flat d_i that
        produced them; their classes are the chosen basis of A_i;
      * ``ranks[i]``     a_i = dim A_i.

    The reps are kernel_mod vectors of flat d_i, each 1 at its free column
    and 0 at the others: in order, those outside the span of the boundaries
    and of the kernel vectors before them.  The reduced echelon kernel
    basis is unique and the strands have disjoint supports, so these are
    what one elimination of the whole flat matrices would give.  Strands
    with equal blocks have equal data up to where it is placed, so each
    distinct block content is eliminated once and scattered to its strands.

    The homology is held as one matrix M_i per degree over ``field`` (F_p,
    the ring with no variables), a row per flat coordinate of K_i: row f,
    for each free column f of flat d_i, holds the class of the kernel
    vector with free column f in its first a_i columns and that vector in
    the rest.  ``classes`` is one product against M_i.
    """

    def __init__(self, ring: QuotientRing):
        self.ring = ring
        self.field = QuotientRing(ring.p, 0, ())
        n = ring.nvars
        self.flat_diff = [np.array(koszul_differential(i, ring)._flat_nonzeros())
                          for i in range(n + 1)]
        empty = np.zeros((3, 0), dtype=np.int64)
        self.ranks = []
        self.reps = []
        self._kernel_classes = []
        for i in range(n + 1):
            up = self.flat_diff[i + 1] if i < n else empty
            reps, M = _strand_homology(ring, self.field, i, up, self.flat_diff[i])
            self.ranks.append(len(reps))
            self.reps.append(reps)
            self._kernel_classes.append(M)
        self.codepth = max((i for i, a in enumerate(self.ranks) if a), default=0)

    # -- classes and products ----------------------------------------------

    def rank(self, i: int) -> int:
        return self.ranks[i] if 0 <= i < len(self.ranks) else 0

    def classes(self, i: int, cycles) -> np.ndarray:
        """The int64 (a_i, len(cycles)) matrix whose columns are the
        coordinates of the classes of the degree-i ``cycles`` in the
        representative basis of A_i; any other element raises.  With the
        flat coordinates of the cycles as the rows of C, this is one
        product C @ M_i.  A kernel_mod vector is 1 at its free column and 0
        at the others, so a cycle is the sum of the kernel vectors, each
        weighted by the cycle's entry at its free column: the first a_i
        columns of C @ M_i are the classes, and the rest give C back.  Only
        a row that does not come back has d applied, to name it."""
        M, a, D = self._kernel_classes[i], self.rank(i), self.ring.dim
        for j, z in enumerate(cycles):
            if z.degree != i:
                raise HomologyError(f"element {j} has degree {z.degree}, not {i}")
        t = np.concatenate([np.zeros((0, 4), dtype=np.int64)] + [z.col.terms for z in cycles])
        j = np.arange(len(cycles)).repeat([len(z.col.terms) for z in cycles])
        C = RingMatrix.from_terms(self.field, len(cycles), M.rows,
                                  np.column_stack([j, t[:, 0] * D + t[:, 2], 0 * j, t[:, 3]]))
        X = (C @ M).terms
        cls = X[:, 1] < a
        back = X[~cls] - [0, a, 0, 0]
        if not np.array_equal(back, C.terms):
            lost = {tuple(r) for r in back.tolist()} ^ {tuple(r) for r in C.terms.tolist()}
            bad = next((k for k in sorted({r[0] for r in lost}) if not cycles[k].is_cycle()),
                       None)
            raise HomologyError("cycle is not in the span of kernel basis (bug)"
                                if bad is None else f"element {bad} is not a cycle")
        out = np.zeros((a, len(cycles)), dtype=np.int64)
        out[X[cls, 1], X[cls, 0]] = X[cls, 3]
        return out


def _strand_homology(ring, fp, i, up, down) -> tuple:
    """(reps, M_i over fp) of degree i, from the nonzeros ``up`` of flat
    d_{i+1} and ``down`` of flat d_i.

    The strands are the blocks of the matrix with the coordinates of K_i as
    columns, and as rows those of K_{i+1}, tagged 0 (the image block
    (flat d_{i+1})^T), then those of K_{i-1}, tagged 1 (the kernel block
    flat d_i).  Each distinct content is one kernel_mod of its kernel block
    and one rref_mod of [image block^T | kernel]: its pivots among the image
    columns pick independent boundary rows, and its pivots among the kernel
    columns pick the kernel vectors that complete them, which are the
    reps.  Each kernel vector is 1 at its free column and 0 at the other
    free columns, and its column of the echelon form gives it as a
    combination of the pivot columns: its rows at the picked pivots are its
    class.  The reps are numbered by their global free columns."""
    p, D = ring.p, ring.dim
    n_up, n_down, width = (len(subsets(ring.nvars, i + k)) * D for k in (1, -1, 0))
    entries = np.c_[up[[1, 0, 2]], down + [[n_up], [0], [0]]]  # (d_{i+1})^T over d_i
    parts, rep_free = [(np.zeros(0, dtype=np.int64),) * 3], [np.zeros(0, dtype=np.int64)]
    blocks = block_contents(*entries, (n_up + n_down, width),
                            np.repeat([0, 1], [n_up, n_down]), 0)
    for B, tags, _, owners, coords in blocks:
        nu, nm = len(tags) - int(tags.sum()), B.shape[1]
        if not nm:
            continue  # a row of K_{i-1} or K_{i+1} with no nonzero
        K = kernel_mod(B[nu:], p)
        R, piv = rref_mod(np.hstack([B[:nu].T, K]), p)
        nbnd = int(np.searchsorted(piv, nu))
        picked = np.array(piv[nbnd:], dtype=np.int64) - nu
        free = coords[:, nm - 1 - np.argmax(K[::-1] != 0, axis=0)]  # last nonzeros
        # in the row of each free column: the kernel vector in the columns
        # width + its flat coordinates, and its class in the columns of the
        # free columns of the reps, renumbered below
        r, f = np.nonzero(K)
        q, g = np.nonzero(R[nbnd:len(piv), nu:])
        v = np.concatenate((K[r, f], R[nbnd + q, nu + g]))
        parts.append((free[:, np.concatenate((f, g))],
                      np.hstack((width + coords[:, r], free[:, picked[q]])),
                      np.broadcast_to(v, (len(owners), len(v)))))
        rep_free.append(free[:, picked])
    rep_free = np.sort(np.concatenate([x.ravel() for x in rep_free]))
    a = len(rep_free)
    r, c, v = (np.concatenate([x.ravel() for x in xs]) for xs in zip(*parts))
    c = np.where(c < width, rep_free.searchsorted(c), c - width + a)
    M = RingMatrix.from_terms(fp, width, a + width, np.column_stack([r, c, 0 * r, v]))
    # rep k is row rep_free[k] after its unit class, as the column of terms
    # (t, 0, b, value) of its flat columns t*D + b
    c = M.terms[:, 1] - a
    terms = np.column_stack([c // D, 0 * c, c % D, M.terms[:, 3]])
    lo, hi = (M.terms[:, 0].searchsorted(rep_free, side) for side in ("left", "right"))
    reps = [KoszulElement(ring, i, RingMatrix.from_terms(ring, width // D, 1, terms[x:y]))
            for x, y in zip((lo + 1).tolist(), hi.tolist())]
    return reps, M


# ---------------------------------------------------------------------------
# certification data
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ClassTBasis:
    """Cycle representatives for a class-T ring: z1 (degree 1, the first three
    are the distinguished triple), z2 (degree 2) and z3 (degree 3).  Equality
    is identity, and so is the hash that builder.alpha memoizes on."""

    z1: list
    z2: list
    z3: list

    @property
    def triple(self):
        return self.z1[:3]

    @cached_property
    def products(self) -> tuple:
        """The distinguished products (z1 z2, z2 z3, z1 z3) of the triple,
        computed once per basis, so that every matrix built from them shares
        the same three cycles."""
        t = self.triple
        return t[0].wedge(t[1]), t[1].wedge(t[2]), t[0].wedge(t[2])

    @cached_property
    def pack(self) -> SequencePack:
        """The tables of the invariants (a1, a2, a3) = (#z1, 3 + #z2, #z3)."""
        return SequencePack(len(self.z1), 3 + len(self.z2), len(self.z3))


@dataclass
class ClassCIBasis:
    z1: list


@dataclass
class CheckItem:
    description: str
    ok: bool
    detail: str = ""


@dataclass
class Certificate:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, description, ok, detail=""):
        self.checks.append(CheckItem(description, bool(ok), detail))

    def failures(self):
        return [c for c in self.checks if not c.ok]


def verify_class_T(basis: ClassTBasis, H: HomologyAlgebra) -> Certificate:
    """Certify the trivial-extension multiplication table of a supplied basis
    against the Koszul homology H of its ring.

    Checks, in order: counts against (a_1, a_2 - 3, a_3); cycles; classes of
    z1/z3 form bases; the distinguished triple's three pairwise products plus
    the z2 classes form a basis of A_2; every other product of basis classes
    is zero in homology.
    """
    p = H.ring.p
    cert = Certificate()
    if H.codepth != 3:
        cert.add("codepth is 3", False, f"codepth = {H.codepth}")
        return cert
    a1, a2, a3 = H.rank(1), H.rank(2), H.rank(3)
    cert.add("a_2 >= 3", a2 >= 3, f"a_2 = {a2}")
    cert.add("count of degree-1 representatives equals a_1",
             len(basis.z1) == a1, f"{len(basis.z1)} vs {a1}")
    cert.add("count of degree-2 representatives equals a_2 - 3",
             len(basis.z2) == a2 - 3, f"{len(basis.z2)} vs {a2 - 3}")
    cert.add("count of degree-3 representatives equals a_3",
             len(basis.z3) == a3, f"{len(basis.z3)} vs {a3}")
    if not cert.passed:
        return cert
    for label, group, deg in (("z1", basis.z1, 1), ("z2", basis.z2, 2),
                              ("z3", basis.z3, 3)):
        for u, z in enumerate(group, start=1):
            if z.degree != deg:
                cert.add(f"{label}_{u} has degree {deg}", False)
                return cert
            if not z.is_cycle():
                cert.add(f"{label}_{u} is a cycle", False)
                return cert
    cert.add("all representatives are cycles of the stated degrees", True)

    M1 = H.classes(1, basis.z1)
    cert.add("classes of z1 form a basis of A_1", rank_mod(M1, p) == a1)
    M3 = H.classes(3, basis.z3)
    cert.add("classes of z3 form a basis of A_3", rank_mod(M3, p) == a3)

    prods = [(0, 1), (1, 2), (0, 2)]  # z1 z2, z2 z3, z1 z3, as in basis.products
    P = H.classes(2, basis.products)
    cert.add("the three distinguished products are independent in A_2",
             rank_mod(P, p) == 3)
    M2 = np.hstack([P, H.classes(2, basis.z2)])
    cert.add("distinguished products and z2 classes form a basis of A_2",
             rank_mod(M2, p) == a2)

    # every other product of basis classes must die in homology; the
    # certificate records the computed class of each product checked.
    # A_1 . A_2 = 0 is checked against both the z2 reps and the distinguished
    # products themselves (the whole of A_2 is covered once M2 is a basis)
    deg1 = list(enumerate(basis.z1, start=1))
    deg2 = [(f"z2_{w}", z) for w, z in enumerate(basis.z2, start=1)]
    deg2 += [(f"z1_{i+1}z1_{j+1}", z) for (i, j), z in zip(prods, basis.products)]
    vanishing = {
        2: [(f"[z1_{u}][z1_{v}]", zu, zv)
            for (u, zu), (v, zv) in itertools.combinations(deg1, 2) if v > 3]
        + [(f"[z1_{u}]^2", zu, zu) for u, zu in deg1],
        3: [(f"[z1_{u}][{name}]", zu, zw) for u, zu in deg1 for name, zw in deg2],
    }
    for deg, products in vanishing.items():
        C = H.classes(deg, [zu.wedge(zw) for _, zu, zw in products])
        for (name, _, _), cls in zip(products, C.T):
            cert.add(f"{name} = 0", not cls.any(), f"class {cls.tolist()}")
    return cert


def verify_class_CI(basis: ClassCIBasis, H: HomologyAlgebra) -> Certificate:
    """Certify that A = H is the exterior algebra on the classes of basis.z1."""
    p = H.ring.p
    cert = Certificate()
    c = H.codepth
    a1 = H.rank(1)
    cert.add("number of degree-1 representatives equals a_1 equals codepth",
             len(basis.z1) == a1 == c, f"{len(basis.z1)} vs a_1={a1}, c={c}")
    if not cert.passed:
        return cert
    for u, z in enumerate(basis.z1, start=1):
        if z.degree != 1 or not z.is_cycle():
            cert.add(f"z1_{u} is a degree-1 cycle", False)
            return cert
    cert.add("all representatives are degree-1 cycles", True)
    for i in range(1, c + 1):
        expected = H.rank(i)
        wedges = []
        for S in itertools.combinations(range(c), i):
            z = basis.z1[S[0]]
            for v in S[1:]:
                z = z.wedge(basis.z1[v])
            wedges.append(z)
        ok = (len(wedges) == expected) and rank_mod(H.classes(i, wedges), p) == expected
        cert.add(f"wedge monomials of weight {i} form a basis of A_{i}", ok,
                 f"C({c},{i}) = {len(wedges)}, a_{i} = {expected}")
    return cert


# ---------------------------------------------------------------------------
# best-effort basis discovery
# ---------------------------------------------------------------------------


class DiscoveryError(HomologyError):
    """Raised when no certified basis could be found automatically; the
    caller should supply representatives in the ring file."""


def discover_class_CI_basis(H: HomologyAlgebra) -> tuple:
    """(basis, certificate): the computed A_1 representatives, certified."""
    basis = ClassCIBasis(z1=list(H.reps[1]))
    cert = verify_class_CI(basis, H)
    if not cert.passed:
        raise DiscoveryError(
            "computed homology basis is not an exterior algebra on A_1: "
            + "; ".join(c.description for c in cert.failures())
        )
    return basis, cert


def first_nonzero_outer_product(z1) -> tuple | None:
    """The first pair (u, v), u < v, of degree-1 representatives with a
    nonzero wedge in K_2, among the pairs not inside the distinguished
    triple z1[0:3]; None when all of them vanish literally."""
    for u in range(len(z1)):
        for v in range(max(u + 1, 3), len(z1)):
            if not z1[u].wedge(z1[v]).is_zero():
                return u, v
    return None


def discover_class_T_basis(H: HomologyAlgebra) -> tuple:
    """Greedy search for a distinguished triple among the computed A_1
    representatives.  Triples whose out-of-triple degree-1 products vanish
    literally in K_2 are preferred (the resolution assembly needs that); the
    search is best-effort and raises with a diagnostic when it fails.
    Returns (basis, certificate), the certificate that passed.
    """
    p = H.ring.p
    if H.codepth != 3:
        raise DiscoveryError(f"class T needs codepth 3, got {H.codepth}")
    a1, a2 = H.rank(1), H.rank(2)
    reps1 = H.reps[1]
    candidates = []
    for triple_idx in itertools.combinations(range(a1), 3):
        t = [reps1[i] for i in triple_idx]
        P = H.classes(2, [t[0].wedge(t[1]), t[1].wedge(t[2]), t[0].wedge(t[2])])
        if rank_mod(P, p) != 3:
            continue
        rest = [reps1[i] for i in range(a1) if i not in triple_idx]
        literal = first_nonzero_outer_product(t + rest) is None
        candidates.append((0 if literal else 1, triple_idx, t, rest, P))
    candidates.sort(key=lambda item: (item[0], item[1]))
    for _, triple_idx, t, rest, P in candidates:
        # z2 completes the triple products greedily to a basis of A_2: the
        # k-th rep has the k-th unit class, so they are the reps behind the
        # pivot columns of [P | I] after P's three
        _, piv = rref_mod(np.hstack([P, np.eye(a2, dtype=np.int64)]), p)
        basis = ClassTBasis(z1=t + rest, z2=[H.reps[2][c - 3] for c in piv[3:]],
                            z3=list(H.reps[3]))
        cert = verify_class_T(basis, H)
        if cert.passed:
            return basis, cert
    raise DiscoveryError(
        "no distinguished triple with independent pairwise products certifies "
        "class T for this ring; supply cycle representatives in the ring file"
    )
