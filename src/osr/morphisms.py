"""Maps between finite ordered semirings: classification and enumeration.

A subadditive morphism is monotone with f(0) <= 0, f(1) = 1,
f(x+y) <= f(x)+f(y) and f(xy) = f(x)f(y).  A homomorphism additionally has
f(0) = 0 and f(x+y) = f(x)+f(y).  Classification flags are always computed
exhaustively over all element pairs.  Enumeration runs the forward-checking
engine of ``search`` and reclassifies every map it finds.

The fixed global convention tying morphisms to ideals is f <-> f^{-1}(0):
a map to the two-element chain classifies the ideal of elements sent to
bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FiniteOrderedSemiring, bits
from .errors import EndpointMismatch, ForcedHomomorphismFailure, InternalMismatch
from .search import forward_search


@dataclass(frozen=True)
class MorphismTable:
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
        return (
            self.monotone
            and self.zero_subzero
            and self.unit_strict
            and self.subadditive
            and self.multiplicative
        )

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


def classify(
    A: FiniteOrderedSemiring, B: FiniteOrderedSemiring, values
) -> MorphismTable:
    """Compute every classification flag for the raw value array."""
    values = tuple(values)
    if len(values) != A.n or any(not 0 <= v < B.n for v in values):
        raise EndpointMismatch(
            f"value array of length {len(values)} does not map {A.name} into {B.name}"
        )
    bleq = B.leq  # bleq[u] >> v & 1 iff u <= v in B
    monotone = all(
        bleq[values[i]] >> values[j] & 1 for i in range(A.n) for j in bits(A.leq[i])
    )
    f0, f1 = values[A.zero], values[A.one]
    subadd = True
    add_ok = True
    mul_ok = True
    submul = True
    for x in range(A.n):
        fx = values[x]
        add_row, mul_row = A.add[x], A.mul[x]
        sum_row, prod_row = B.add[fx], B.mul[fx]
        for y in range(A.n):
            fy = values[y]
            s = values[add_row[y]]
            p = values[mul_row[y]]
            ts = sum_row[fy]
            tp = prod_row[fy]
            if s != ts:
                add_ok = False
            if not bleq[s] >> ts & 1:
                subadd = False
            if p != tp:
                mul_ok = False
            if not bleq[p] >> tp & 1:
                submul = False
        if not (subadd or submul):
            break
    return MorphismTable(
        source=A,
        target=B,
        values=values,
        monotone=monotone,
        zero_subzero=B.le(f0, B.zero),
        zero_strict=f0 == B.zero,
        unit_strict=f1 == B.one,
        unit_subunit=B.le(f1, B.one),
        subadditive=subadd,
        additive=add_ok,
        multiplicative=mul_ok,
        submultiplicative=submul,
    )


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
    (``mul_equal``) or submultiplicativity f(xy) <= f(x)f(y).  Each map
    found is reclassified exhaustively by ``classify``; one that ``keep``
    rejects raises InternalMismatch instead of being dropped.
    """
    out: list[MorphismTable] = []

    def leaf(values) -> None:
        table = classify(A, B, values)
        if not keep(table):
            raise InternalMismatch(
                f"map {list(values)} from {A.name} to {B.name} passed forward "
                f"checking but fails the exhaustive classification"
            )
        out.append(table)

    forward_search(
        A.n,
        B.n,
        B.leq,
        pins,
        A.leq,
        ((A.add, B.add, False), (A.mul, B.mul, mul_equal)),
        leaf,
        layer=f"morphism search {A.name} -> {B.name}",
    )
    return out


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
    return classify(f.source, g.target, tuple(g.values[v] for v in f.values))


@dataclass(frozen=True)
class HomomorphismCriteria:
    """Outcome of the sufficient-conditions check for forced homomorphisms."""

    target_discrete: bool
    join_induced: bool  # 0 <= x for all x in A, and B's addition is its join
    applies: bool
    morphisms_checked: int


def check_homomorphism_criteria(
    A: FiniteOrderedSemiring, B: FiniteOrderedSemiring
) -> HomomorphismCriteria:
    """Check the two conditions forcing subadditive morphisms to be homs.

    Condition 1: B is discretely ordered.  Condition 2: the zero of A is a
    least element and B's addition is the join of its order (idempotent,
    with x <= y exactly when x + y = y).  When either holds, every
    enumerated subadditive morphism A -> B must carry the homomorphism
    flag; a counterexample raises ForcedHomomorphismFailure.
    """
    cond1 = B.is_discrete
    zero_least = all(A.le(A.zero, x) for x in range(A.n))
    join_induced = all(B.add[x][x] == x for x in range(B.n)) and all(
        B.le(x, y) == (B.add[x][y] == y) for x in range(B.n) for y in range(B.n)
    )
    cond2 = zero_least and join_induced
    applies = cond1 or cond2
    checked = 0
    if applies:
        for table in enumerate_subadditive(A, B):
            checked += 1
            if not table.is_homomorphism:
                raise ForcedHomomorphismFailure(
                    f"subadditive morphism {list(table.values)} from {A.name} "
                    f"to {B.name} is not a homomorphism"
                )
    return HomomorphismCriteria(
        target_discrete=cond1,
        join_induced=cond2,
        applies=applies,
        morphisms_checked=checked,
    )
