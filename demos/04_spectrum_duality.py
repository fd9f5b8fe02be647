"""Prime spectra and the point-space / radical-frame duality."""

import osr
from osr import (
    check_degeneracy_equivalence,
    check_sober,
    check_spectrum_homeomorphism,
    enumerate_maximal,
    enumerate_primes,
    enumerate_radical_ideals,
    frame_points,
    opens_frame,
    spectrum_space,
)

z6 = osr.build_zmod(6)
print("primes of", z6.name, "->", [P.label for P in enumerate_primes(z6)])
print("maximal:", [I.label for I in enumerate_maximal(z6)])

# The spectrum topology comes from the basic opens D(x): primes omitting x.
spec = spectrum_space(z6)
print(spec)
for lab, mask in spec.basis:
    print(" ", lab, "=", [spec.point_labels[i] for i in range(spec.n) if mask >> i & 1])

# A chain produces the Sierpinski space: one prime specializes the other.
chain3 = osr.build_chain_lattice(3)
print(spectrum_space(chain3), "sober:", check_sober(spectrum_space(chain3)) is None)

# Points of the radical frame (through meet-prime elements) recover the
# same space; the homeomorphism is literally the identity on member sets.
rad = enumerate_radical_ideals(z6)
pts = frame_points(rad.lattice)
print(pts)
print("homeomorphic, point bijection:", check_spectrum_homeomorphism(z6))

# And the frame of opens of the spectrum is the radical frame again.
print(opens_frame(spec))

# Degenerate semirings have empty spectra; the four characterisations of
# that collapse are checked to agree.
for A in (osr.build_zmod(1), osr.build_dual_chain(2), z6):
    print(A.name, "degenerate:", check_degeneracy_equivalence(A))
