"""Radical ideals, semiprime elements, and the distributive reflection."""

import osr
from osr import (
    check_coherence,
    distributive_reflection,
    enumerate_ideals,
    enumerate_radical_ideals,
    generated_ideal,
    radical_closure,
    semiprime_elements,
)

# Nilpotents force radical closures to grow: mod 4, the zero ideal is not
# radical because 2 squares to zero.
z4 = osr.build_zmod(4)
zero = generated_ideal(z4, 0)
print("sqrt({0}) in", z4.name, "=", radical_closure(z4, zero).label)
print("radical ideals:", [I.label for I in enumerate_radical_ideals(z4).ideals])

# Radical ideals are exactly the semiprime elements of the ideal quantale;
# the same notion makes sense for an abstract quantale such as the 3-chain
# with a nilpotent middle element.
Q = osr.nilpotent_chain_quantale()
sp = semiprime_elements(Q)
print("semiprimes of", Q.name, "->", [Q.labels[m] for m in sp.members])
print("reflector:", {Q.labels[q]: Q.labels[sp.radical_of[q]] for q in range(Q.n)})

# The distributive reflection of mod 4 collapses to a two-chain: squares
# erase the difference between 0 and 2, and between 1 and 3.
refl = distributive_reflection(z4)
print("reflection size:", refl.lattice.n)
for x in range(z4.n):
    print(f"  {z4.labels[x]} |-> {refl.lattice.labels[refl.universal_map[x]]}")

# A Boolean ring reflects onto its Boolean algebra with the identity
# carrier map: symmetric difference is forgotten, meets survive.
b2 = osr.build_boolean_ring(2)
refl2 = distributive_reflection(b2)
print(b2.name, "reflects onto", refl2.lattice.name,
      "with", refl2.lattice.n, "elements")

# Coherence at finite scale: the radical frame is the ideal frame of the
# reflection, by the explicit downset isomorphism (the check raises if not).
z6 = osr.build_zmod(6)
check_coherence(z6)
print("radical ideals of", z6.name, "= ideals of its reflection:",
      len(enumerate_radical_ideals(z6)))
print("ideals of the reflection match:",
      len(enumerate_ideals(osr.build_from_quantale(refl2.lattice)).ideals)
      == refl2.lattice.n)
