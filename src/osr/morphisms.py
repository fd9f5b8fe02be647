"""Maps between finite ordered semirings: classification and enumeration.

A subadditive morphism is monotone with f(0) <= 0, f(1) = 1,
f(x+y) <= f(x)+f(y) and f(xy) = f(x)f(y).  A homomorphism additionally has
f(0) = 0 and f(x+y) = f(x)+f(y).  Classification flags are always computed
exhaustively over all element pairs, for a whole list of maps at once, by
the law kernel of ``recheck`` that ``homs.is_quantale_hom`` reads too.
Enumeration runs the forward-checking engine of ``search``, collects every
map it finds, and reclassifies them all in one call.

The fixed global convention tying morphisms to ideals is f <-> f^{-1}(0):
a map to the two-element chain classifies the ideal of elements sent to
bottom.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import NamedTuple, Optional

from .core import FiniteOrderedSemiring
from .errors import EndpointMismatch, InternalMismatch, SizeLimit
from .recheck import fit_lanes, law_columns
from .search import forward_search


class MorphismTable(NamedTuple):
    """A function between carriers with exhaustively computed flags."""

    source: FiniteOrderedSemiring
    target: FiniteOrderedSemiring
    values: tuple[int, ...]
    monotone: bool
    zero_subzero: bool  # f(0) <= 0
    zero_strict: bool  # f(0) = 0
    unit_strict: bool  # f(1) = 1
    unit_subunit: bool  # f(1) <= 1
    subadditive: bool  # f(x+y) <= f(x) + f(y)
    additive: bool
    multiplicative: bool
    submultiplicative: bool  # f(xy) <= f(x) f(y)

    @property
    def is_subadditive_morphism(self) -> bool:
        return self.subadditive_with_zero_mode(False)

    @property
    def is_homomorphism(self) -> bool:
        return self.is_subadditive_morphism and self.zero_strict and self.additive

    @property
    def is_sub_submultiplicative(self) -> bool:
        """Monotone with f(0) <= 0, f(1) <= 1, subadditive, submultiplicative."""
        return (
            self.monotone
            and self.zero_subzero
            and self.unit_subunit
            and self.subadditive
            and self.submultiplicative
        )

    def subadditive_with_zero_mode(self, strict_zero: bool) -> bool:
        """Subadditive-morphism flag under either zero axiom variant.

        ``strict_zero=True`` replaces f(0) <= 0 by f(0) = 0; the suites can
        be re-run in this mode to confirm both axiom choices agree on every
        theorem at desk scale.
        """
        zero_ok = self.zero_strict if strict_zero else self.zero_subzero
        return (
            self.monotone
            and zero_ok
            and self.unit_strict
            and self.subadditive
            and self.multiplicative
        )

    def kernel_mask(self) -> int:
        """Bitmask of elements mapped to the target's additive zero."""
        return sum(
            1 << x for x, v in enumerate(self.values) if v == self.target.zero
        )

    def __repr__(self) -> str:
        return (
            f"MorphismTable({self.source.name} -> {self.target.name}, "
            f"{list(self.values)})"
        )


# a NamedTuple's own ``__new__`` is a Python function taking each field as
# an argument: building the tuple of fields directly costs half as much
_table = partial(tuple.__new__, MorphismTable)


def classify(
    A: FiniteOrderedSemiring, B: FiniteOrderedSemiring, maps
) -> list[MorphismTable]:
    """Compute every classification flag of each value array of ``maps``,
    one table per array, in order: the columns of ``recheck.law_columns``,
    each flag over every element pair.  A value array that is not a map
    from A into B raises EndpointMismatch.  With no maps, no table is read
    or built."""
    if not maps:
        return []
    (
        _,
        additive,
        multiplicative,
        zero_strict,
        unit_strict,
        subadditive,
        submultiplicative,
        zero_subzero,
        unit_subunit,
        monotone,
    ) = law_columns(A, B, maps, order=True)
    fields = zip(
        repeat(A),
        repeat(B),
        map(tuple, maps),
        monotone,
        zero_subzero,
        zero_strict,
        unit_strict,
        unit_subunit,
        subadditive,
        additive,
        multiplicative,
        submultiplicative,
    )
    return list(map(_table, fields))


def checked_search(recheck, source, target, pins, laws, *, layer: str) -> list:
    """``search.forward_search`` collecting every map it finds, then
    ``recheck`` of the whole list, whose result is returned.  When the walk
    runs out of its node budget, the maps found so far are re-checked before
    its SizeLimit is re-raised, so a map failing the re-check is reported as
    such."""
    found: list[tuple[int, ...]] = []
    try:
        forward_search(source, target, pins, laws, found.append, layer=layer)
    except SizeLimit:
        recheck(found)
        raise
    return recheck(found)


def _search(
    A: FiniteOrderedSemiring,
    B: FiniteOrderedSemiring,
    pins,
    mul_equal: bool,
    keep,
) -> list[MorphismTable]:
    """Every map A -> B passing the forward-checking engine, in lexicographic
    order of value arrays.

    Constraints: ``pins`` on the zero/unit positions, monotonicity,
    subadditivity f(x+y) <= f(x)+f(y), and multiplicativity f(xy) = f(x)f(y)
    (``mul_equal``) or submultiplicativity f(xy) <= f(x)f(y).  The maps
    found are reclassified exhaustively by one call of ``classify``; if
    ``keep`` rejects one, the first such raises InternalMismatch instead of
    being dropped.  A source or target that ``classify`` could not read
    is refused with SizeLimit before the search is bound
    (``recheck.fit_lanes``), even where the search would find no maps.
    """
    fit_lanes(A, B)

    def recheck(found: list) -> list[MorphismTable]:
        tables = classify(A, B, found)
        for table in tables:
            if not keep(table):
                raise InternalMismatch(
                    f"map {list(table.values)} from {A.name} to {B.name} passed "
                    f"forward checking but fails the exhaustive classification"
                )
        return tables

    return checked_search(
        recheck,
        A.search_source,
        B.search_target,
        pins,
        ((A.add, B.add, False), (A.mul, B.mul, mul_equal)),
        layer=f"morphism search {A.name} -> {B.name}",
    )


def enumerate_subadditive(
    A: FiniteOrderedSemiring,
    B: FiniteOrderedSemiring,
    strict_zero: bool = False,
) -> list[MorphismTable]:
    """All subadditive morphisms A -> B, sorted by value array."""
    return _search(
        A,
        B,
        ((A.zero, B.zero, strict_zero), (A.one, B.one, True)),
        mul_equal=True,
        keep=lambda t: t.subadditive_with_zero_mode(strict_zero),
    )


def enumerate_sub_submul(
    A: FiniteOrderedSemiring, B: FiniteOrderedSemiring
) -> list[MorphismTable]:
    """All subadditive and submultiplicative morphisms A -> B.

    Into the two-element chain these classify exactly the ideals of A.
    """
    return _search(
        A,
        B,
        ((A.zero, B.zero, False), (A.one, B.one, False)),
        mul_equal=False,
        keep=lambda t: t.is_sub_submultiplicative,
    )


def compose(f: MorphismTable, g: MorphismTable) -> MorphismTable:
    """The composite g . f, reclassified from scratch."""
    if f.target != g.source:
        raise EndpointMismatch(
            f"cannot compose {f.source.name} -> {f.target.name} with "
            f"{g.source.name} -> {g.target.name}"
        )
    return classify(f.source, g.target, [tuple(g.values[v] for v in f.values)])[0]


def check_homomorphism_criteria(
    A: FiniteOrderedSemiring, B: FiniteOrderedSemiring
) -> Optional[int]:
    """Check the two conditions forcing subadditive morphisms to be homs.

    Condition 1: B is discretely ordered.  Condition 2: the zero of A is a
    least element and B's addition is the join of its order (idempotent,
    with x <= y exactly when x + y = y).  When either holds, every
    enumerated subadditive morphism A -> B must carry the homomorphism
    flag, and the number checked is returned; a counterexample raises
    InternalMismatch.  When neither holds, returns None.
    """
    zero_least = all(A.le(A.zero, x) for x in range(A.n))
    join_induced = all(B.add[x][x] == x for x in range(B.n)) and all(
        B.le(x, y) == (B.add[x][y] == y) for x in range(B.n) for y in range(B.n)
    )
    if not (B.is_discrete or zero_least and join_induced):
        return None
    checked = 0
    for table in enumerate_subadditive(A, B):
        checked += 1
        if not table.is_homomorphism:
            raise InternalMismatch(
                f"subadditive morphism {list(table.values)} from {A.name} "
                f"to {B.name} is not a homomorphism"
            )
    return checked
