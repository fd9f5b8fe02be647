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
print("semiprimes of", Q.name, "->", [Q.labels[m] for m in sp])
# the reflector sends each element to the least semiprime above it
radical_of = [Q.meet_of(p for p in sp if Q.le(q, p)) for q in range(Q.n)]
print("reflector:", {Q.labels[q]: Q.labels[r] for q, r in enumerate(radical_of)})

# The distributive reflection is the radical frame with x |-> sqrt<x>;
# distributive_reflection checks its universal property (it raises if the
# check fails).  Mod 4 it collapses to a two-chain: squares erase the
# difference between 0 and 2, and between 1 and 3.
an = osr.Analysis(z4)
distributive_reflection(an)
L = an.radicals.lattice
print("reflection size:", L.n)
for x, r in enumerate(an.radical_principal):
    print(f"  {z4.labels[x]} |-> {L.labels[r]}")

# A Boolean ring reflects onto its Boolean algebra with the identity
# carrier map: symmetric difference is forgotten, meets survive.
b2 = osr.build_boolean_ring(2)
distributive_reflection(b2)
L2 = enumerate_radical_ideals(b2).lattice
print(b2.name, "reflects onto", L2.name, "with", L2.n, "elements")

# Coherence at finite scale: the radical frame is the ideal frame of the
# reflection, by the explicit downset isomorphism (the check raises if not).
z6 = osr.build_zmod(6)
check_coherence(z6)
print("radical ideals of", z6.name, "= ideals of its reflection:",
      len(enumerate_radical_ideals(z6)))
print("ideals of the reflection match:",
      len(enumerate_ideals(osr.build_from_quantale(L2)).ideals) == L2.n)
