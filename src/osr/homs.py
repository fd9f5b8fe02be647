"""Join-preserving maps between finite lattices and universal-property checks.

A quantale homomorphism preserves all joins, the multiplication, and the
unit.  Frame homomorphisms and bounded-lattice homomorphisms are the same
thing at finite scale once meet is treated as the multiplication and top as
the unit, so one enumerator covers every universality check in the package,
and one ``check_universal_property`` serves both adjunctions (the ideal
quantale and the radical frame as left adjoints) and the distributive
reflection: each passes its lattice of ideals, its universal arrow and the
subadditive morphisms to compare against, which the caller enumerates.

A quantale is searched and re-checked as its semiring, a view on its
tables (``FiniteLattice.semiring``): enumeration runs the morphism search's
forward-checking engine (``search.forward_search``) between the two
semirings, each preservation law narrowing the values of the last element
it mentions, and one call of ``is_quantale_hom`` re-checks the maps it
finds with the law kernel of ``recheck`` that ``morphisms.classify`` reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import FiniteLattice, gather
from .errors import InternalMismatch, UniversalityFailure
from .morphisms import MorphismTable, checked_search
from .recheck import fit_lanes, law_columns

if TYPE_CHECKING:
    from .ideals import IdealLattice


def is_quantale_hom(L: FiniteLattice, Q: FiniteLattice, maps) -> list[bool]:
    """Exhaustive check of each value array of ``maps``, in order: whether
    it preserves binary joins, products, bottom and unit, every pair of
    every map compared (the first column of ``recheck.law_columns`` on the
    two semirings).  Raises NotAQuantale if either lattice lacks a
    multiplication, whatever the maps, and EndpointMismatch for a value
    array that is not a map from L into Q.  With no maps, no table is read
    or built."""
    S, T = L.semiring, Q.semiring
    if maps:
        fit_lanes(L, Q)
    return law_columns(S, T, maps)[0]


def enumerate_quantale_homs(L: FiniteLattice, Q: FiniteLattice) -> list[tuple[int, ...]]:
    """All quantale homomorphisms L -> Q, each a tuple of Q's indices, one
    per element of L, sorted.

    Runs the forward-checking engine from ``L.semiring`` into
    ``Q.semiring``, with bottom and unit pinned, monotonicity, and
    preservation of binary joins and products as constraints.  The value
    tables it finds are re-verified by one call of ``is_quantale_hom``; the
    first that fails raises InternalMismatch.  A lattice that
    ``is_quantale_hom`` could not read is refused with SizeLimit before the
    search is bound (``recheck.fit_lanes``), even where it would find no
    maps.
    """
    S, T = L.semiring, Q.semiring
    fit_lanes(L, Q)

    def recheck(found: list) -> list[tuple[int, ...]]:
        for values, ok in zip(found, is_quantale_hom(L, Q, found)):
            if not ok:
                raise InternalMismatch(
                    f"map {list(values)} from {L.name} to {Q.name} passed forward "
                    f"checking but is not a quantale homomorphism"
                )
        return found

    return checked_search(
        recheck,
        S.search_source,
        T.search_target,
        ((S.zero, T.zero, True), (S.one, T.one, True)),
        ((S.add, T.add, True), (S.mul, T.mul, True)),
        layer=f"hom search {L.name} -> {Q.name}",
    )


def join_extension(
    L: IdealLattice, target: FiniteLattice, f_values
) -> tuple[int, ...]:
    """The map sending each ideal of ``L`` to the join in ``target`` of the
    images ``f_values`` of its members, as target indices.  ``f_values`` is
    monotone (every listed morphism is), so the join over an ideal's
    maximal members is the join over all of them: one gather takes the
    image of each ideal's first maximal member, and ``target.join`` folds
    in the images of the others, only for the ideals that have more than
    one.  A wrong extension fails the hom and triangle checks."""
    firsts, extras = L.member_gathers
    out = firsts(f_values)
    if not extras:
        return out
    out, join = list(out), target.join
    for i, others in extras:
        v = out[i]
        for w in others(f_values):
            v = join[v][w]
        out[i] = v
    return tuple(out)


def check_universal_property(
    L: IdealLattice,
    universal_values: tuple[int, ...],
    target: FiniteLattice,
    morphisms: list[MorphismTable],
) -> int:
    """Verify that composition with the universal arrow is a bijection, and
    return its size.

    ``L`` is the lattice of ideals constructed over its owner A (the ideal
    quantale or the radical frame) and ``universal_values`` the universal
    subadditive morphism A -> L (as indices into ``L``).  The caller passes
    ``morphisms``, every subadditive morphism from A into the semiring of
    ``target``; it is read, never changed.  The bijection checked is
    g |-> g . universal  from quantale homomorphisms L -> target onto
    ``morphisms``, with the join extension (``join_extension``) as its
    inverse.  Raises UniversalityFailure with a witness on any failure.
    """
    A = L.owner
    homs = enumerate_quantale_homs(L.lattice, target)
    morphism_values = {m.values: m for m in morphisms}
    along_universal = gather(universal_values)  # h |-> h . universal

    seen = set()
    for g in homs:
        f_vals = along_universal(g)
        if f_vals not in morphism_values:
            raise UniversalityFailure(
                f"{A.name}: composite of hom {list(g)} with the universal "
                f"arrow is not a subadditive morphism into {target.name}"
            )
        if f_vals in seen:
            raise UniversalityFailure(
                f"{A.name}: two homomorphisms into {target.name} share the "
                f"composite {list(f_vals)}"
            )
        seen.add(f_vals)

    hom_values = set(homs)
    for f in morphisms:
        ext = join_extension(L, target, f.values)
        if ext not in hom_values:
            raise UniversalityFailure(
                f"{A.name}: join extension of morphism {list(f.values)} into "
                f"{target.name} is not a homomorphism"
            )
        back = along_universal(ext)
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
    return len(homs)
