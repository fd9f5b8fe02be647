"""Join-preserving maps between finite lattices and universal-property checks.

A quantale homomorphism preserves all joins, the multiplication, and the
unit.  Frame homomorphisms and bounded-lattice homomorphisms are the same
thing at finite scale once meet is treated as the multiplication and top as
the unit, so one enumerator covers every universality check in the package.

Enumeration runs the same forward-checking engine as the morphism search
(``search.forward_search``) over every element of the source, testing each
preservation law as soon as the elements it mentions have values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteLattice, FiniteOrderedSemiring, bits
from .errors import InternalMismatch, NotAQuantale, UniversalityFailure
from .morphisms import enumerate_subadditive
from .search import forward_search


@dataclass(frozen=True)
class LatticeHom:
    """A table of target indices, one per source-lattice element."""

    source: FiniteLattice
    target: FiniteLattice
    values: tuple[int, ...]

    def __repr__(self) -> str:
        return f"LatticeHom({self.source.name} -> {self.target.name}, {list(self.values)})"


def is_quantale_hom(L: FiniteLattice, Q: FiniteLattice, values) -> bool:
    """Exhaustive check: preserves binary joins, bottom, unit, and product."""
    if values[L.bottom] != Q.bottom:
        return False
    if L.unit is None or Q.unit is None or L.mul is None or Q.mul is None:
        raise NotAQuantale("both lattices must carry a multiplication")
    if values[L.unit] != Q.unit:
        return False
    for i in range(L.n):
        for j in range(L.n):
            if values[L.join[i][j]] != Q.join[values[i]][values[j]]:
                return False
            if values[L.mul[i][j]] != Q.mul[values[i]][values[j]]:
                return False
    return True


def enumerate_quantale_homs(L: FiniteLattice, Q: FiniteLattice) -> list[LatticeHom]:
    """All quantale homomorphisms L -> Q, sorted by value table.

    Runs the forward-checking engine over every element of L with bottom
    and unit pinned, monotonicity, and preservation of binary joins and
    products as constraints.  Every value table it finds is re-verified by
    ``is_quantale_hom``; one that fails raises InternalMismatch.
    """
    if L.unit is None or Q.unit is None or L.mul is None or Q.mul is None:
        raise NotAQuantale("both lattices must carry a multiplication")
    out: list[LatticeHom] = []

    def leaf(values) -> None:
        if not is_quantale_hom(L, Q, values):
            raise InternalMismatch(
                f"map {list(values)} from {L.name} to {Q.name} passed forward "
                f"checking but is not a quantale homomorphism"
            )
        out.append(LatticeHom(L, Q, values))

    forward_search(
        L.n,
        Q.n,
        Q.leq,
        ((L.bottom, Q.bottom, True), (L.unit, Q.unit, True)),
        L.leq,
        ((L.join, Q.join, True), (L.mul, Q.mul, True)),
        leaf,
        layer=f"hom search {L.name} -> {Q.name}",
    )
    return out


@dataclass(frozen=True)
class UniversalityReport:
    """Both sides of a verified universal-property bijection."""

    instance: str
    target: str
    morphism_count: int
    hom_count: int


def check_universal_property(
    A: FiniteOrderedSemiring,
    source: FiniteLattice,
    universal_values: tuple[int, ...],
    member_masks: tuple[int, ...],
    target: FiniteLattice,
    target_semiring: FiniteOrderedSemiring,
    strict_zero: bool = False,
) -> UniversalityReport:
    """Verify that composition with the universal arrow is a bijection.

    ``source`` is the constructed quantale/frame over A, ``universal_values``
    the universal subadditive morphism A -> source (as source indices), and
    ``member_masks[i]`` the carrier subset underlying source element ``i``
    (used to compute the join extension of a morphism).  The bijection
    checked is  g |-> g . universal  from quantale homomorphisms
    source -> target onto subadditive morphisms A -> target_semiring, with
    the join extension  f |-> (i |-> join of f over member_masks[i])  as
    its inverse.  Raises UniversalityFailure with a witness on any failure.
    """
    homs = enumerate_quantale_homs(source, target)
    morphisms = enumerate_subadditive(A, target_semiring, strict_zero=strict_zero)
    morphism_values = {m.values: m for m in morphisms}

    seen = set()
    for g in homs:
        f_vals = tuple(g.values[universal_values[x]] for x in range(A.n))
        if f_vals not in morphism_values:
            raise UniversalityFailure(
                f"{A.name}: composite of hom {list(g.values)} with the universal "
                f"arrow is not a subadditive morphism into {target.name}"
            )
        if f_vals in seen:
            raise UniversalityFailure(
                f"{A.name}: two homomorphisms into {target.name} share the "
                f"composite {list(f_vals)}"
            )
        seen.add(f_vals)

    hom_values = {g.values for g in homs}
    for f in morphisms:
        ext = tuple(
            target.join_of(f.values[x] for x in bits(member_masks[i]))
            for i in range(source.n)
        )
        if ext not in hom_values:
            raise UniversalityFailure(
                f"{A.name}: join extension of morphism {list(f.values)} into "
                f"{target.name} is not a homomorphism"
            )
        back = tuple(ext[universal_values[x]] for x in range(A.n))
        if back != f.values:
            raise UniversalityFailure(
                f"{A.name}: triangle fails for morphism {list(f.values)} into "
                f"{target.name}"
            )

    if len(homs) != len(morphisms):
        raise UniversalityFailure(
            f"{A.name}: {len(homs)} homomorphisms vs {len(morphisms)} subadditive "
            f"morphisms into {target.name}"
        )
    return UniversalityReport(
        instance=A.name,
        target=target.name,
        morphism_count=len(morphisms),
        hom_count=len(homs),
    )
