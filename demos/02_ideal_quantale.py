"""Ideals and the integral quantale they form.

The ideal listing is generated by fixed-point closure and re-verified two
independent ways: the kernels of the maps into the two-element chain, at
every size, and the bounded-sum membership formula.
"""

import osr
from osr import (
    check_quantale_universality,
    enumerate_ideals,
    extend_to_quantale_hom,
    generated_ideal,
    generated_ideal_by_sums,
    ideal_product,
    principal_ideal,
)
from osr.morphisms import classify

z6 = osr.build_zmod(6)
iq = enumerate_ideals(z6)
print("ideals of", z6.name, "->", [I.label for I in iq.ideals])

# Generated ideals: two mod 6 generates the evens; two and three together
# reach a unit, so they generate everything.
print("<2> =", generated_ideal(z6, {2}).label)
print("<2,3> =", generated_ideal(z6, {2, 3}).label)
print("formula route agrees:",
      generated_ideal(z6, {2, 3}).mask == generated_ideal_by_sums(z6, {2, 3}))

# The product of ideals behaves like the ring product.
p2, p3 = principal_ideal(z6, 2), principal_ideal(z6, 3)
print("<2>.<3> =", ideal_product(z6, p2, p3).label)

# The whole carrier is the product unit: an integral quantale.
L = iq.lattice
print("integral:", L.is_integral_quantale, "unit = top:", L.unit == L.top)

# Universal property: subadditive maps out of the semiring correspond
# one-to-one with quantale homomorphisms out of the ideal quantale.
# The check returns the size of the bijection it verified.
print("maps = homs:", check_quantale_universality(z6, osr.chain_frame(2)))

# The correspondence is concrete: the join extension of a morphism.
z4 = osr.build_zmod(4)
iq4 = enumerate_ideals(z4)
f = classify(z4, osr.build_from_quantale(osr.chain_frame(2)), [(0, 1, 0, 1)])[0]
g = extend_to_quantale_hom(f, osr.chain_frame(2), iq4)
for i, I in enumerate(iq4.ideals):
    print(f"  {I.label} |-> {g[i]}")
