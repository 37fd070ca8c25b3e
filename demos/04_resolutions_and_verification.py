"""Assembling the resolution and certifying it.

Builds the minimal free resolution of the residue field for the class-T
example out of Koszul blocks and alpha-family arrows, then runs the whole
battery: d^2 = 0 over R, minimality, exactness of the flattened complex,
graded-level exactness, Betti numbers against the Poincare series, and the
independent brute-force syzygy oracle.
"""

import time

from koszulres import SequencePack, assemble_CI, assemble_T
from koszulres.homology import HomologyAlgebra, discover_class_CI_basis
from koszulres.samples import ci_squares_ring, class_t_ring, class_t_ring_file
from koszulres.verifier import basis_from_strings, full_verify, oracle_resolution

ring = class_t_ring()
cycles = class_t_ring_file().cycles
basis = basis_from_strings(ring, cycles, class_t=True)
pack = SequencePack(4, 6, 3)

t0 = time.time()
F = assemble_T(ring, basis, pack, i_max=7)
print(f"assembled through degree 7 in {time.time() - t0:.2f}s")
print("component ranks:", F.ranks)
print("sign regime:", F.sign_regime)
print("\nKoszul-block inventory of F_5:")
for b in F.blocks[5]:
    print("  " + b.label())

t0 = time.time()
report, F8, _ = full_verify(ring, "T", i_max=8, cycle_strings=cycles, oracle=True)
print(f"\nfull verification through degree 8 in {time.time() - t0:.1f}s:")
for s in report.sections:
    print(f"  {s.name:20s} {'pass' if s.passed else 'FAIL'}")

# the oracle is an independent derivation of the same Betti numbers
oracle = oracle_resolution(ring, 6)
print("\noracle Betti numbers:", oracle.betti)
print("assembled ranks:     ", F8.ranks[:7])

# the same machinery covers complete intersections of any codepth
ci = ci_squares_ring(3)
ci_basis, _ = discover_class_CI_basis(HomologyAlgebra(ci))
Fci = assemble_CI(ci, ci_basis, i_max=6)
print(f"\n{ci!r}: ranks {Fci.ranks}")
print("oracle agrees:", oracle_resolution(ci, 6).betti == Fci.ranks)
