"""Koszul homology A = H(K) as graded F_p vector spaces with explicit cycle
representatives, products of homology classes, and certification of the two
multiplication structures this library resolves over:

* complete intersection: A is the exterior algebra on A_1;
* class T (codepth 3): A_1 has a distinguished triple whose three pairwise
  products span A_1.A_1 inside A_2, and every other product of basis classes
  vanishes, so A = B |x C is a trivial extension.

Nothing here assumes the multiplication table; every product is computed and
checked by exact linear algebra, in any characteristic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .exactfield import QuotientRing, kernel_mod, rank_mod, rref_mod
from .koszul import KoszulElement, koszul_differential, subsets


class HomologyError(ValueError):
    pass


class ClassVerificationError(ValueError):
    """A supplied basis fails its class certification."""


# ---------------------------------------------------------------------------
# the homology algebra
# ---------------------------------------------------------------------------


class HomologyAlgebra:
    """Per-degree kernels, boundaries and echelon-normalized representatives.

    For each homological degree i:
      * ``boundary[i]``  rows spanning im(flat d_{i+1})  (reduced echelon),
      * ``reps[i]``      cycle representatives completing the boundaries to
        ker(flat d_i); their classes are the chosen basis of A_i,
      * ``ranks[i]``     a_i = dim A_i.

    ``_basis[i]`` is the rows of ``boundary[i]`` followed by the vectors of
    ``reps[i]`` (the same arrays, not copies): a basis of ker(flat d_i) whose
    rows have leading entry 1 at distinct indices, and ``_pivots[i]`` maps
    each leading index to its row.  ``class_of`` reads coordinates off the
    reduction of a cycle against them.
    """

    def __init__(self, ring: QuotientRing):
        self.ring = ring
        n, p = ring.nvars, ring.p
        self.flat_diff = [koszul_differential(i, ring).flatten() for i in range(n + 1)]
        self.ranks = []
        self.boundary = []
        self.reps = []
        self._basis = []
        self._pivots = []
        for i in range(n + 1):
            bnd = self._image_rows(i + 1)
            basis, pivots = self._complete(bnd, self._kernel(i), p)
            reps = basis[len(bnd):]
            self.ranks.append(len(reps))
            self.boundary.append(bnd)
            self._basis.append(basis)
            self._pivots.append(pivots)
            self.reps.append([KoszulElement.from_vector(ring, i, v) for v in reps])
        self.codepth = max((i for i, a in enumerate(self.ranks) if a), default=0)

    def _kernel(self, i: int) -> np.ndarray:
        n, p = self.ring.nvars, self.ring.p
        if i == 0:
            return np.eye(self.ring.dim, dtype=np.int64)
        if i > n:
            return np.zeros((len(subsets(n, i)) * self.ring.dim, 0), dtype=np.int64)
        return kernel_mod(self.flat_diff[i], p)

    def _image_rows(self, i: int) -> np.ndarray:
        """Reduced echelon rows spanning the image of flat d_i."""
        n, p = self.ring.nvars, self.ring.p
        if i > n:
            dim = len(subsets(n, i - 1)) * self.ring.dim
            return np.zeros((0, dim), dtype=np.int64)
        M = self.flat_diff[i]
        R, piv = rref_mod(M.T, p)
        return R[: len(piv)].copy()  # a view would pin all of R

    @staticmethod
    def _complete(bnd_rows: np.ndarray, ker_cols: np.ndarray, p: int) -> tuple:
        """The boundary rows followed by kernel vectors whose classes complete
        the boundary span, picked and normalized by echelon order
        (deterministic); returns (basis, pivots)."""
        basis = list(bnd_rows)
        pivots = {int(np.flatnonzero(r)[0]): k for k, r in enumerate(basis)}
        for c in range(ker_cols.shape[1]):
            _extend(ker_cols[:, c], basis, pivots, p)
        return basis, pivots

    # -- classes and products ----------------------------------------------

    def rank(self, i: int) -> int:
        return self.ranks[i] if 0 <= i < len(self.ranks) else 0

    def class_of(self, z: KoszulElement) -> np.ndarray:
        """Coordinates of [z] in the representative basis of A_{deg z}."""
        if not z.is_cycle():
            raise HomologyError("class_of called on a non-cycle")
        i = z.degree
        rest, coeffs = _reduce_against(z.to_vector(), self._basis[i],
                                       self._pivots[i], self.ring.p)
        if rest.any():
            raise HomologyError("cycle is not in the span of kernel basis (bug)")
        return coeffs[len(self.boundary[i]):]

    def product_class(self, z: KoszulElement, w: KoszulElement) -> np.ndarray:
        """Class of z ^ w; degree overflow past the codepth gives the empty
        coordinate vector of the zero space."""
        deg = z.degree + w.degree
        if deg > self.ring.nvars:
            return np.zeros(0, dtype=np.int64)
        return self.class_of(z.wedge(w))


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

    t = basis.triple
    prods = [(0, 1), (1, 2), (0, 2)]  # z1 z2, z2 z3, z1 z3
    prod_classes = [H.product_class(t[i], t[j]) for i, j in prods]
    P = np.array(prod_classes, dtype=np.int64).T
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
    deg2_reps += [
        (f"z1_{prods[k][0]+1}z1_{prods[k][1]+1}",
         t[prods[k][0]].wedge(t[prods[k][1]]))
        for k in range(3)
    ]
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
