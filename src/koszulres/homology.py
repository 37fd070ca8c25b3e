"""Koszul homology A = H(K) as graded F_p vector spaces with explicit cycle
representatives, products of homology classes, and certification of the two
multiplication structures this library resolves over:

* complete intersection: A is the exterior algebra on A_1;
* class T (codepth 3): A_1 has a distinguished triple whose three pairwise
  products span A_1.A_1 inside A_2, and every other product of basis classes
  vanishes, so A = B |x C is a trivial extension.

Nothing here assumes the multiplication table; every product is computed and
checked by exact linear algebra, in any characteristic.

The homology is computed one multidegree strand at a time: over a monomial
ring K is Z^n-graded, so the flat Koszul differentials split into small
blocks, and no dense flat matrix is formed (see HomologyAlgebra).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exactfield import QuotientRing, RingMatrix, kernel_mod, rank_mod, rref_mod
from .koszul import KoszulElement, koszul_differential, subsets


class HomologyError(ValueError):
    pass


class ClassVerificationError(ValueError):
    """A supplied basis fails its class certification."""


# ---------------------------------------------------------------------------
# the homology algebra
# ---------------------------------------------------------------------------


class HomologyAlgebra:
    """Per-degree boundaries, echelon-normalized cycle representatives and
    ranks of A = H(K), computed one multidegree strand at a time.

    Over a monomial ring K is Z^n-graded: the flat coordinate t*D + b of K_i,
    which is std_b e_T, has multidegree exps(std_b) + eps_T, and every flat
    d_i preserves it.  So each d_i splits into strands, one small block per
    multidegree, and no kernel or image vector leaves its strand.  For each
    homological degree i:

      * ``flat_diff[i]``  the nonzeros of flat d_i, an int64 (3, nnz) array
        of (row, column, value);
      * ``boundary[i]``  the reduced echelon rows spanning im(flat d_{i+1}),
        an int64 (3, nnz) array of (row, column, value) sorted by row and
        column, the rows numbered in the order of their pivots;
      * ``reps[i]``      cycle representatives completing the boundaries to
        ker(flat d_i), in the order of the free columns of flat d_i that
        produced them; their classes are the chosen basis of A_i;
      * ``ranks[i]``     a_i = dim A_i.

    Reduced echelon forms are unique and the strands have disjoint supports,
    so these are what one elimination of the whole flat matrices would give.
    Strands with equal blocks have equal echelon data up to where it is
    placed, so each distinct block content is eliminated once and scattered
    to its strands.  ``class_of`` reduces a cycle only inside the strands it
    meets.
    """

    def __init__(self, ring: QuotientRing):
        self.ring = ring
        n = ring.nvars
        self.flat_diff = [np.array(koszul_differential(i, ring)._flat_nonzeros())
                          for i in range(n + 1)]
        codes = _multidegrees(ring)  # codes[i + 1] is K_i
        empty = np.zeros((3, 0), dtype=np.int64)
        self.ranks = []
        self.boundary = []
        self.reps = []
        self._strands = []
        for i in range(n + 1):
            up = self.flat_diff[i + 1] if i < n else empty
            bnd, reps, strands = _strand_homology(ring, i, codes[i:i + 3], up,
                                                  self.flat_diff[i])
            self.ranks.append(len(reps))
            self.boundary.append(bnd)
            self.reps.append(reps)
            self._strands.append(strands)
        self.codepth = max((i for i, a in enumerate(self.ranks) if a), default=0)

    # -- classes and products ----------------------------------------------

    def rank(self, i: int) -> int:
        return self.ranks[i] if 0 <= i < len(self.ranks) else 0

    def class_of(self, z: KoszulElement) -> np.ndarray:
        """Coordinates of [z] in the representative basis of A_{deg z}."""
        if not z.is_cycle():
            raise HomologyError("class_of called on a non-cycle")
        i, D = z.degree, self.ring.dim
        S = self._strands[i]
        t = z.col.terms
        g = t[:, 0] * D + t[:, 2]
        strand = S.strand[g]
        coeffs = np.zeros(self.ranks[i], dtype=np.int64)
        for s in set(strand.tolist()):
            basis, pivots, nbnd = S.contents[S.content[s]]
            mine = strand == s
            v = np.zeros(basis.shape[1], dtype=np.int64)
            v[S.local[g[mine]]] = t[mine, 3]
            rest, c = _reduce_against(v, basis, pivots, self.ring.p)
            if rest.any():
                raise HomologyError("cycle is not in the span of kernel basis (bug)")
            if s in S.rep_ids:
                coeffs[S.rep_ids[s]] = c[nbnd:]
        return coeffs

    def product_class(self, z: KoszulElement, w: KoszulElement) -> np.ndarray:
        """Class of z ^ w; degree overflow past the codepth gives the empty
        coordinate vector of the zero space."""
        deg = z.degree + w.degree
        if deg > self.ring.nvars:
            return np.zeros(0, dtype=np.int64)
        return self.class_of(z.wedge(w))


@dataclass
class _Strands:
    """The strands of one K_i.  ``strand[g]`` and ``local[g]`` are the strand
    of flat coordinate g and its position there (a strand keeps the global
    order of its coordinates).  ``contents`` holds (basis, pivots, number of
    boundary rows) per distinct content in local coordinates, as
    _complete returns them, and ``content[s]`` indexes it.
    ``rep_ids[s]`` lists the global indices of the reps of strand s, for the
    strands that have any."""

    strand: np.ndarray
    local: np.ndarray
    content: np.ndarray
    contents: list
    rep_ids: dict


def _multidegrees(ring: QuotientRing) -> list:
    """codes[i + 1][t*D + b], for i = -1..n+1: the multidegree
    exps(std_b) + eps_T of each flat coordinate of K_i, T the t-th subset,
    as one mixed-radix integer (K_{-1} and K_{n+1} have no coordinates)."""
    n = ring.nvars
    E = np.array(ring.std_basis, dtype=np.int64).reshape(-1, n)
    radix = np.cumprod(np.r_[1, E.max(axis=0)[:-1] + 2])
    return [(np.array([radix[[v - 1 for v in T]].sum() for T in subsets(n, i)],
                      dtype=np.int64)[:, None] + E @ radix).ravel()
            for i in range(-1, n + 2)]


def _split(code: np.ndarray, keys: np.ndarray) -> tuple:
    """(strand, position) of each coordinate: the index of its code in the
    sorted ``keys`` (-1 when absent) and the number of earlier coordinates
    with the same code."""
    order = np.argsort(code, kind="stable")
    ranked = code[order]
    position = np.empty(len(code), dtype=np.int64)
    position[order] = np.arange(len(code)) - ranked.searchsorted(ranked)
    strand = keys.searchsorted(code)
    found = strand < len(keys)
    found[found] = keys[strand[found]] == code[found]
    return np.where(found, strand, -1), position


def _strand_homology(ring, i, codes, up, down) -> tuple:
    """(boundary, reps, strands) of degree i, from the multidegree codes of
    K_{i-1}, K_i and K_{i+1} and the nonzeros ``up`` of flat d_{i+1} and
    ``down`` of flat d_i.

    A strand with m coordinates in K_i has an image block (flat d_{i+1})^T,
    u x m, and a kernel block flat d_i, w x m.  Its content is the row
    [u, m, w, image entries, kernel entries]; the rows are grouped by
    length and deduplicated with np.unique, so that rref_mod, kernel_mod
    and _complete run once per distinct content.  The boundary rows are
    then numbered by their global pivots, and the reps by the global free
    columns that produced them."""
    p, D = ring.p, ring.dim
    code_down, code, code_up = codes
    keys, strand = np.unique(code, return_inverse=True)
    local = _split(code, keys)[1]
    s_up, l_up = _split(code_up, keys)
    s_down, l_down = _split(code_down, keys)
    m = np.bincount(strand, minlength=len(keys))
    u = np.bincount(s_up[s_up >= 0], minlength=len(keys))
    w = np.bincount(s_down[s_down >= 0], minlength=len(keys))
    # the content rows of all strands, one after another in one buffer
    length = 3 + m * (u + w)
    offset = np.r_[0, np.cumsum(length)[:-1]]
    buf = np.zeros(int(length.sum()), dtype=np.int64)
    buf[offset[:, None] + np.arange(3)] = np.column_stack([u, m, w])
    r, c, v = up  # flat row in K_i, column in K_{i+1}
    s = strand[r]
    buf[offset[s] + 3 + l_up[c] * m[s] + local[r]] = v
    r, c, v = down  # flat row in K_{i-1}, column in K_i
    s = strand[c]
    buf[offset[s] + 3 + (u[s] + l_down[r]) * m[s] + local[c]] = v

    members = np.argsort(strand, kind="stable")  # each strand's coordinates
    first = np.r_[0, np.cumsum(m)[:-1]]
    content = np.empty(len(keys), dtype=np.int64)
    contents, bnd_parts, rep_parts, rep_free = [], [], [], []
    lengths, by_length = np.unique(length, return_inverse=True)
    for g, L in enumerate(lengths.tolist()):
        group = np.flatnonzero(by_length == g)
        distinct, which = np.unique(buf[offset[group][:, None] + np.arange(L)],
                                    axis=0, return_inverse=True)
        which = which.reshape(-1)
        split = np.cumsum(np.bincount(which, minlength=len(distinct)))[:-1]
        owner_groups = np.split(group[np.argsort(which, kind="stable")], split)
        for row, owners in zip(distinct, owner_groups):
            nu, nm, nw = row[:3].tolist()
            R, piv = rref_mod(row[3:3 + nu * nm].reshape(nu, nm), p)
            K = kernel_mod(row[3 + nu * nm:].reshape(nw, nm), p)
            basis, pivots, picked = _complete(R[:len(piv)], K, p)
            basis = np.array(basis, dtype=np.int64).reshape(-1, nm)
            content[owners] = len(contents)
            contents.append((basis, pivots, len(piv)))
            # the local column that orders each basis row: its pivot, or the
            # free column (last nonzero) of the kernel vector it came from
            free = nm - 1 - np.argmax(K[::-1] != 0, axis=0)
            lead = np.r_[piv, free[picked]].astype(np.int64)
            coords = members[first[owners][:, None] + np.arange(nm)]
            a, j = np.nonzero(basis)
            nz = (coords[:, lead[a]], coords[:, j],
                  np.broadcast_to(basis[a, j], (len(owners), len(a))))
            is_bnd = a < len(piv)
            bnd_parts.append([x[:, is_bnd] for x in nz])
            rep_parts.append([x[:, ~is_bnd] for x in nz])
            if picked:
                rep_free.append((owners, coords[:, lead[len(piv):]]))
    _, boundary = _numbered(bnd_parts)
    free, (k, col, val) = _numbered(rep_parts)
    rep_ids = {s: free.searchsorted(f)
               for owners, F in rep_free for s, f in zip(owners.tolist(), F)}
    # rep k is the column of terms (t, 0, b, value) of its flat columns t*D + b
    terms = np.column_stack([col // D, 0 * col, col % D, val])
    cuts = k.searchsorted(np.arange(len(free) + 1))
    rows = len(subsets(ring.nvars, i))
    reps = [KoszulElement(ring, i, RingMatrix.from_terms(ring, rows, 1, terms[a:b]))
            for a, b in zip(cuts[:-1], cuts[1:])]
    return boundary, reps, _Strands(strand, local, content, contents, rep_ids)


def _complete(bnd_rows: np.ndarray, ker_cols: np.ndarray, p: int) -> tuple:
    """The boundary rows followed by kernel vectors whose classes complete
    the boundary span, picked and normalized by echelon order
    (deterministic); returns (basis, pivots, picked), picked listing the
    kernel column behind each appended vector."""
    basis = list(bnd_rows)
    pivots = {int(np.flatnonzero(r)[0]): k for k, r in enumerate(basis)}
    picked = [c for c in range(ker_cols.shape[1])
              if _extend(ker_cols[:, c], basis, pivots, p)]
    return basis, pivots, picked


def _numbered(parts) -> tuple:
    """(leads, nonzeros) of rows given per part as (lead, column, value)
    arrays, one entry per nonzero: the rows are numbered in the order of
    their distinct lead columns ``leads``, and ``nonzeros`` is the int64
    (3, nnz) array of (row number, column, value) sorted by row and column."""
    lead, col, val = (np.concatenate([x.ravel() for x in xs]) for xs in zip(*parts))
    leads, row = np.unique(lead, return_inverse=True)
    order = np.lexsort((col, row))
    return leads, np.stack([row[order], col[order], val[order]])


def _reduce_against(v, basis, pivots, p):
    """Reduce v against rows with leading entry 1 at distinct indices
    (``pivots`` maps each leading index to its row).  Returns the residual,
    which is zero exactly when v lies in their span, and the coefficient of
    each row taken off.  Leading indices only grow, so each step updates v
    from the current one on."""
    v = np.asarray(v, dtype=np.int64) % p
    coeffs = np.zeros(len(basis), dtype=np.int64)
    lead = 0
    while True:
        nz = np.flatnonzero(v[lead:])
        if nz.size == 0:
            return v, coeffs
        lead += int(nz[0])
        k = pivots.get(lead)
        if k is None:
            return v, coeffs
        c = int(v[lead])
        coeffs[k] = c
        v[lead:] = (v[lead:] - c * basis[k][lead:]) % p


def _extend(v, basis, pivots, p) -> bool:
    """Append the residual of v, scaled to leading entry 1, to the echelon
    rows ``basis``; False when v is already in their span."""
    v, _ = _reduce_against(v, basis, pivots, p)
    nz = np.flatnonzero(v)
    if nz.size == 0:
        return False
    lead = int(nz[0])
    pivots[lead] = len(basis)
    basis.append((v * pow(int(v[lead]), p - 2, p)) % p)
    return True


# ---------------------------------------------------------------------------
# certification data
# ---------------------------------------------------------------------------


@dataclass
class ClassTBasis:
    """Cycle representatives for a class-T ring: z1 (degree 1, the first three
    are the distinguished triple), z2 (degree 2) and z3 (degree 3)."""

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
    kind: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, description, ok, detail=""):
        self.checks.append(CheckItem(description, bool(ok), detail))

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def __bool__(self):
        return self.passed


def _classes_matrix(H: HomologyAlgebra, elems) -> np.ndarray:
    cols = [H.class_of(z) for z in elems]
    if not cols:
        return np.zeros((0, 0), dtype=np.int64)
    return np.array(cols, dtype=np.int64).T


def verify_class_T(basis: ClassTBasis, H: HomologyAlgebra) -> Certificate:
    """Certify the trivial-extension multiplication table of a supplied basis
    against the Koszul homology H of its ring.

    Checks, in order: counts against (a_1, a_2 - 3, a_3); cycles; classes of
    z1/z3 form bases; the distinguished triple's three pairwise products plus
    the z2 classes form a basis of A_2; every other product of basis classes
    is zero in homology.
    """
    p = H.ring.p
    cert = Certificate("T")
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

    M1 = _classes_matrix(H, basis.z1)
    cert.add("classes of z1 form a basis of A_1", rank_mod(M1, p) == a1)
    M3 = _classes_matrix(H, basis.z3)
    cert.add("classes of z3 form a basis of A_3", rank_mod(M3, p) == a3)

    prods = [(0, 1), (1, 2), (0, 2)]  # z1 z2, z2 z3, z1 z3, as in basis.products
    P = _classes_matrix(H, basis.products)
    cert.add("the three distinguished products are independent in A_2",
             rank_mod(P, p) == 3)
    M2 = np.hstack([P] + ([_classes_matrix(H, basis.z2)] if basis.z2 else []))
    cert.add("distinguished products and z2 classes form a basis of A_2",
             rank_mod(M2, p) == a2)

    # every other product of basis classes must die in homology; the
    # certificate records the computed class of each product checked
    deg1 = list(enumerate(basis.z1, start=1))
    for (u, zu), (v, zv) in itertools.combinations(deg1, 2):
        if u <= 3 and v <= 3:
            continue
        cls = H.product_class(zu, zv)
        cert.add(f"[z1_{u}][z1_{v}] = 0", not np.any(cls),
                 f"class {cls.tolist()}")
    for u, zu in deg1:
        cls = H.product_class(zu, zu)
        cert.add(f"[z1_{u}]^2 = 0", not np.any(cls), f"class {cls.tolist()}")
    # A_1 . A_2 = 0: products against both the z2 reps and the distinguished
    # products themselves (the whole of A_2 is covered once M2 is a basis)
    deg2_reps = [(f"z2_{w}", z) for w, z in enumerate(basis.z2, start=1)]
    deg2_reps += [(f"z1_{i+1}z1_{j+1}", z) for (i, j), z in zip(prods, basis.products)]
    for u, zu in deg1:
        for name, zw in deg2_reps:
            cls = H.product_class(zu, zw)
            cert.add(f"[z1_{u}][{name}] = 0", not np.any(cls),
                     f"class {cls.tolist()}")
    return cert


def verify_class_CI(basis: ClassCIBasis, H: HomologyAlgebra) -> Certificate:
    """Certify that A = H is the exterior algebra on the classes of basis.z1."""
    p = H.ring.p
    cert = Certificate("CI")
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
        M = _classes_matrix(H, wedges)
        ok = (len(wedges) == expected) and rank_mod(M, p) == expected
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
    a1, a2, a3 = H.rank(1), H.rank(2), H.rank(3)
    if a2 < 3:
        raise DiscoveryError(f"class T needs a_2 >= 3, got {a2}")
    reps1 = H.reps[1]
    candidates = []
    for triple_idx in itertools.combinations(range(a1), 3):
        t = [reps1[i] for i in triple_idx]
        P = np.array([
            H.product_class(t[0], t[1]),
            H.product_class(t[1], t[2]),
            H.product_class(t[0], t[2]),
        ], dtype=np.int64).T
        if rank_mod(P, p) != 3:
            continue
        rest = [reps1[i] for i in range(a1) if i not in triple_idx]
        literal = first_nonzero_outer_product(t + rest) is None
        candidates.append((0 if literal else 1, triple_idx, t, rest))
    candidates.sort(key=lambda item: (item[0], item[1]))
    for _, triple_idx, t, rest in candidates:
        z2 = _complete_degree2(H, t, p)
        if z2 is None:
            continue
        basis = ClassTBasis(z1=t + rest, z2=z2, z3=list(H.reps[3]))
        cert = verify_class_T(basis, H)
        if cert.passed:
            return basis, cert
    raise DiscoveryError(
        "no distinguished triple with independent pairwise products certifies "
        "class T for this ring; supply cycle representatives in the ring file"
    )


def _complete_degree2(H: HomologyAlgebra, triple, p):
    """Representatives completing the three triple products to a basis of A_2."""
    prods = [
        triple[0].wedge(triple[1]),
        triple[1].wedge(triple[2]),
        triple[0].wedge(triple[2]),
    ]
    basis = []
    pivots = {}
    for z in prods:
        independent = _extend(H.class_of(z), basis, pivots, p)
        assert independent, "triple products degenerate despite rank check"
    chosen = [rep for rep in H.reps[2]
              if _extend(H.class_of(rep), basis, pivots, p)]
    if len(chosen) != H.rank(2) - 3:
        return None
    return chosen
