"""Koszul homology and the multiplication-structure certificates.

Computes A = H(K) for the class-T example and for a complete intersection,
prints homology ranks and products of classes, and runs both certificates:
the trivial-extension (B |x C) table for class T and the exterior-algebra
table for complete intersections.  Certification is computation, not
assumption: every product is evaluated by exact linear algebra.
"""

from koszulres import HomologyAlgebra, verify_class_CI
from koszulres.homology import discover_class_CI_basis, discover_class_T_basis
from koszulres.samples import class_t_ring, ci_squares_ring

ring = class_t_ring()
H = HomologyAlgebra(ring)
print(f"ring: {ring!r}")
print("homology ranks a_i:", tuple(H.ranks), " codepth:", H.codepth)

basis, cert = discover_class_T_basis(H)
print("\ndiscovered degree-1 representatives:")
for u, z in enumerate(basis.z1, start=1):
    print(f"  z1_{u} = {z.to_string()}")

print("\nproducts of the distinguished triple:")
t = basis.triple
for (i, j) in ((0, 1), (1, 2), (0, 2)):
    prod = t[i].wedge(t[j])
    print(f"  [z1_{i+1}][z1_{j+1}] = [{prod.to_string()}], class",
          H.product_class(t[i], t[j]).tolist())
print("a vanishing product: [z1_1][z1_4] class",
      H.product_class(t[0], basis.z1[3]).tolist())

print(f"\nclass T certificate: {'PASS' if cert.passed else 'FAIL'} "
      f"({len(cert.checks)} checks)")

ci = ci_squares_ring(3)
Hci = HomologyAlgebra(ci)
print(f"\nring: {ci!r}")
print("homology ranks:", tuple(Hci.ranks))
ci_basis, cert_ci = discover_class_CI_basis(Hci)
print(f"class CI certificate: {'PASS' if cert_ci.passed else 'FAIL'}")

# feeding the wrong class is caught by the certificates
from koszulres.homology import ClassCIBasis
wrong = verify_class_CI(ClassCIBasis(z1=basis.z1), H)
print("class-T ring certified as CI?", wrong.passed)
