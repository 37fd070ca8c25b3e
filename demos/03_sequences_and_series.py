"""The integer combinatorics behind the block inventory.

Shows the b/l/d/l'/l'' recurrences, the rank-3^k tree of block monomials
with its four degrees, the u_{k,s} table (tree enumeration cross-checked
against the rational generating function), and the Poincare series of both
ring classes.
"""

from koszulres.sequences import (
    SequencePack,
    poincare_CI,
    poincare_T,
    tree_layer,
    u_table,
)

pack = SequencePack(4, 6, 3)  # each table grows as it is read
print("invariants a = (4, 6, 3), codepth 3")
print("b:   ", [pack.b[k] for k in range(7)])
print("l:   ", [pack.l[k] for k in range(7)])
print("l':  ", [pack.lp[k] for k in range(7)])
print("l'': ", [pack.lpp[k] for k in range(7)])
print("d:   ", [pack.d[k] for k in range(7)])
print("\nnote: l'_5 =", pack.lp[5], "by the recurrence l'_k = l_{k-2} + 3 l_{k-1};")
print("      the value 1347 sometimes quoted at that position equals l'_6 =",
      pack.lp[6])

print("\ntree layers (3^k monomials each):")
for k in range(4):
    layer = tree_layer(k)
    print(f"  layer {k} ({len(layer)}):",
          ", ".join(str(m) for m in layer[:9]),
          "..." if len(layer) > 9 else "")

m = tree_layer(3)[3]
print(f"\nfour degrees of {m}: deg1={m.deg1} (layer), deg2={m.deg2} (shift), "
      f"deg3={m.deg3(pack)} (copies), deg4={m.deg4} (factors)")

ut = u_table(4, pack)
print("\nu_{k,s} (graded Betti numbers over the homology algebra):")
for k in range(5):
    row = {s: v for (kk, s), v in sorted(ut.items()) if kk == k}
    print(f"  k={k}:", row)

PA, PR = poincare_T(4, 6, 3, 3, 10)
print("\nclass-T Betti numbers:", [PR.coefficient(i) for i in range(11)])

_, PRci = poincare_CI(3, 3, 10)
print("complete intersection (c = n = 3):",
      [PRci.coefficient(i) for i in range(11)])
