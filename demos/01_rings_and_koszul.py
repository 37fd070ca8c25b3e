"""Quotient rings, the monomial product table, and the Koszul complex.

Walks through the exact-arithmetic layer on the running example
R = F_p[x,y,z]/(x^2, y^2, z^2, xyz): the standard monomial basis and its
product table, ring elements as term arrays, the subset-indexed Koszul
bases, wedge products, and the differential matrices with their d^2 = 0
check.
"""

from koszulres import KoszulElement, RingMatrix, koszul_differential
from koszulres.koszul import parse_koszul_element
from koszulres.samples import class_t_ring

ring = class_t_ring()
print(f"ring: {ring!r}")
print("standard monomials:", ring.std_strings)
print("dim_k R =", ring.dim)

# ring.product[a, b] is the index of std_a * std_b, or -1 when the product
# lies in the ideal: the one place where monomials are multiplied
print("\nproducts of standard monomials:")
for a, b in (("x", "x"), ("x", "y"), ("x*y", "z"), ("y", "x*z")):
    k = ring.product[ring.std_strings.index(a), ring.std_strings.index(b)]
    print(f"  {a} * {b} ->", ring.std_strings[k] if k >= 0 else "0 (in the ideal)")


def element(*terms):
    """A ring element as a 1 x 1 RingMatrix: one (row, column, standard
    monomial, coefficient) row per term."""
    return RingMatrix.from_terms(ring, 1, 1, [(0, 0, ring.std_strings.index(m), c)
                                              for m, c in terms])


x, x_plus_y = element(("x", 1)), element(("x", 1), ("y", 1))
print("  x * (x + y) ->", (x @ x_plus_y).entries[(0, 0)])

# the Koszul differentials in the lexicographic subset bases
print("\nKoszul differentials:")
for i in (1, 2, 3):
    d = koszul_differential(i, ring)
    rows = [[d.entries.get((r, c), "0") for c in range(d.cols)] for r in range(d.rows)]
    print(f"  d_{i} =", rows)

d1, d2, d3 = (koszul_differential(i, ring) for i in (1, 2, 3))
print("d_1 d_2 = 0:", (d1 @ d2).is_zero(), "   d_2 d_3 = 0:", (d2 @ d3).is_zero())

# an element of K_i is its coordinate column: a C(3, i) x 1 RingMatrix
z = parse_koszul_element("y*z*e[1] + 2*x*e[2]", ring)
print(f"\nz = {z.to_string()}: terms (subset, 0, monomial, coefficient)")
print(z.col.terms)
print("d(z) =", z.differential().to_string())

# wedge products carry shuffle signs and quotient-ring coefficients
e1 = KoszulElement.basis(ring, (1,))
e2 = KoszulElement.basis(ring, (2,))
print("\ne1 ^ e2 =", e1.wedge(e2).to_string())
print("e2 ^ e1 =", e2.wedge(e1).to_string())
xe1 = parse_koszul_element("x*e[1]", ring)
ye2 = parse_koszul_element("y*e[2]", ring)
print("(x e1) ^ (y e2) =", xe1.wedge(ye2).to_string())
print("(x e1) ^ (x e2) =", xe1.wedge(parse_koszul_element("x*e[2]", ring)).to_string())

# a matrix over R is an exact F_p-linear map on the standard-monomial
# coordinates; over a monomial ring that map splits into small connected
# blocks, and no dense F_p matrix is ever formed
print("\nmultiplication by x over F_p, block by block:")
for rows, cols, block in x.flat_blocks():
    print(f"  {[ring.std_strings[c] for c in cols]} -> "
          f"{[ring.std_strings[r] for r in rows]}: {block.tolist()}")
