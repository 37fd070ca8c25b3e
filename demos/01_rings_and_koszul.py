"""Quotient rings, products of standard monomials, and the Koszul complex.

Walks through the exact-arithmetic layer on the running example
R = F_p[x,y,z]/(x^2, y^2, z^2, xyz): the standard monomial basis, its
exponent codes and the products that survive in R, ring elements as term
arrays, the subset-indexed Koszul bases, wedge products, and the
differential matrices with their d^2 = 0 check.
"""

from koszulres import KoszulElement, RingMatrix, koszul_differential
from koszulres.koszul import parse_koszul_element
from koszulres.samples import class_t_ring

ring = class_t_ring()
print(f"ring: {ring!r}")
print("standard monomials:", ring.std_strings)
print("dim_k R =", ring.dim)

# ring.product(a, b) is the index of std_a * std_b, or -1 when the product
# lies in the ideal.  Each exponent tuple has a mixed-radix code wide enough
# that a product's code is the sum of the factors' codes, so a product is
# one lookup of a code
print("\nproducts of standard monomials:")
for a, b in (("x", "x"), ("x", "y"), ("x*y", "z"), ("y", "x*z")):
    k = ring.product(ring.std_strings.index(a), ring.std_strings.index(b))
    print(f"  {a} * {b} ->", ring.std_strings[k] if k >= 0 else "0 (in the ideal)")


def element(*terms):
    """A ring element as a 1 x 1 RingMatrix: one (row, column, standard
    monomial, coefficient) row per term."""
    return RingMatrix.from_terms(ring, 1, 1, [(0, 0, ring.std_strings.index(m), c)
                                              for m, c in terms])


x, x_plus_y = element(("x", 1)), element(("x", 1), ("y", 1))
print("  x * (x + y) ->", (x @ x_plus_y).entries[(0, 0)])

# ring.multiples(bs) runs the same lookup for std_b against every std_a and
# keeps the (b, a, m) with std_b * std_a = std_m that are not zero;
# flattening a matrix asks for the b of its terms only
b, a, m = ring.multiples([ring.std_strings.index("x")])
print("nonzero products of x:",
      [f"x * {ring.std_strings[j]} = {ring.std_strings[k]}" for j, k in zip(a, m)])

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
# blocks with few distinct contents, and no dense F_p matrix is ever formed.
# A block of x lists its columns; its rows are their images x * std_c
print("\nmultiplication by x over F_p, by distinct block content:")
x_index = ring.std_strings.index("x")
for b in x.flat_contents():
    print(f"  {b.matrix.shape[0]} x {b.matrix.shape[1]} block {b.matrix.tolist()}, "
          f"{len(b.owners)} copies:")
    for cols in b.cols:
        print(f"    {[ring.std_strings[c] for c in cols]} -> "
              f"{[ring.std_strings[r] for r in ring.product(cols, x_index)]}")
