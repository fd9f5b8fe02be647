"""Ideals of a finite ordered semiring and the integral quantale they form.

An ideal is a downward-closed subset that contains zero, is closed under
addition, and absorbs multiplication.  Generated ideals are computed by
fixed-point closure; the explicit bounded-sum formula is kept alongside as
an independent oracle and the two are compared by the verification suite.

Ideal identity is by member bitmask; within one IdealLattice the ideals
are interned in canonical order (by size, then bitmask) and all tables are
over those dense indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

from .analysis import Source, analysis
from .builders import build_from_quantale
from .core import (
    FiniteLattice,
    FiniteOrderedSemiring,
    Table,
    bits,
    inclusion_order,
    lattice_from_order,
    subset_key,
)
from .errors import (
    InternalMismatch,
    NotIntegral,
    NotSubadditive,
    OwnerMismatch,
)
from .homs import LatticeHom, UniversalityReport, check_universal_property
from .morphisms import MorphismTable, classify, compose

Members = Union[int, Iterable[int]]


def as_mask(A: FiniteOrderedSemiring, members: Members) -> int:
    if isinstance(members, int):
        return members
    mask = 0
    for x in members:
        mask |= 1 << x
    return mask


@dataclass(frozen=True)
class Ideal:
    """A carrier subset satisfying the four ideal closure conditions."""

    owner: FiniteOrderedSemiring
    mask: int

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    @property
    def label(self) -> str:
        return self.owner.set_label(self.mask)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def __repr__(self) -> str:
        return f"Ideal({self.owner.name}, {self.label})"


def is_ideal(A: FiniteOrderedSemiring, members: Members) -> bool:
    """True iff the subset is downward closed, contains zero, is closed
    under addition, and absorbs multiplication."""
    mask = as_mask(A, members)
    if not mask >> A.zero & 1:
        return False
    for x in bits(mask):
        if A.lower_masks[x] & ~mask:
            return False
        for y in bits(mask):
            if not mask >> A.add[x][y] & 1:
                return False
        for y in range(A.n):
            if not mask >> A.mul[x][y] & 1:
                return False
    return True


def _close(A: FiniteOrderedSemiring, mask: int) -> int:
    """Least ideal containing the subset: fixed point of the closure rules."""
    mask |= 1 << A.zero
    while True:
        prev = mask
        for x in bits(prev):
            mask |= A.lower_masks[x]
            row = A.mul[x]
            for y in range(A.n):
                mask |= 1 << row[y]
        for x in bits(mask):
            for y in bits(mask):
                mask |= 1 << A.add[x][y]
        if mask == prev:
            return mask


def generated_ideal(A: FiniteOrderedSemiring, members: Members) -> Ideal:
    """The least ideal of A containing the given subset."""
    return Ideal(A, _close(A, as_mask(A, members)))


def generated_ideal_by_sums(A: FiniteOrderedSemiring, members: Members) -> int:
    """Independent oracle: elements below some finite sum s1*y1 + ... + sm*ym.

    Sums of length at most ``|A|`` suffice because the set of reachable
    partial sums grows monotonically inside the carrier; stability at the
    cutoff is asserted rather than assumed.
    """
    seed = as_mask(A, members)
    prods = {A.mul[s][y] for s in bits(seed) for y in range(A.n)}
    sums = {A.zero}
    for _ in range(A.n):
        grown = sums | {A.add[t][p] for t in sums for p in prods}
        if grown == sums:
            break
        sums = grown
    if sums | {A.add[t][p] for t in sums for p in prods} != sums:
        raise InternalMismatch("partial sums not stable at the length bound")
    mask = 0
    for t in sums:
        mask |= A.lower_masks[t]
    return mask


def principal_ideal(A: FiniteOrderedSemiring, x: int) -> Ideal:
    """The ideal generated by one element: everything below some multiple.

    Evaluates the direct one-generator description and asserts agreement
    with the fixed-point closure.
    """
    mask = 0
    for y in range(A.n):
        mask |= A.lower_masks[A.mul[x][y]]
    closed = _close(A, 1 << x)
    if mask != closed:
        raise InternalMismatch(
            f"principal ideal of {A.labels[x]} in {A.name}: direct formula gives "
            f"{A.set_label(mask)}, closure gives {A.set_label(closed)}"
        )
    return Ideal(A, mask)


def ideal_join(A: FiniteOrderedSemiring, ideals: Iterable[Ideal]) -> Ideal:
    """Least upper bound: the ideal generated by the union."""
    mask = 0
    for I in ideals:
        if I.owner != A:
            raise OwnerMismatch(f"ideal of {I.owner.name} joined over {A.name}")
        mask |= I.mask
    return generated_ideal(A, mask)


def ideal_product(A: FiniteOrderedSemiring, I: Ideal, J: Ideal) -> Ideal:
    """The ideal generated by all pairwise products."""
    for K in (I, J):
        if K.owner != A:
            raise OwnerMismatch(f"ideal of {K.owner.name} multiplied over {A.name}")
    mask = 0
    for x in bits(I.mask):
        for y in bits(J.mask):
            mask |= 1 << A.mul[x][y]
    return generated_ideal(A, mask)


def check_product_of_generators(
    A: FiniteOrderedSemiring, S: Members, T: Members
) -> bool:
    """Does <S> . <T> equal the ideal generated by the pairwise products?"""
    s_mask, t_mask = as_mask(A, S), as_mask(A, T)
    st = 0
    for s in bits(s_mask):
        for t in bits(t_mask):
            st |= 1 << A.mul[s][t]
    lhs = ideal_product(A, generated_ideal(A, s_mask), generated_ideal(A, t_mask))
    return lhs.mask == _close(A, st)


def enumerate_ideals_bruteforce(A: FiniteOrderedSemiring) -> list[int]:
    """All ideal masks by filtering every carrier subset.  Exponential; the
    reference oracle for the closure-based enumeration."""
    return sorted((m for m in range(1 << A.n) if is_ideal(A, m)), key=subset_key)


@dataclass(frozen=True)
class IdealLattice:
    """A family of ideals ordered by containment, with its lattice tables.

    ``kind`` names the family: ``"ideals"`` is every ideal, the ideal
    quantale, multiplied by the ideal product; ``"radicals"`` is the radical
    ideals, the radical frame, multiplied by meet.  In both the unit is the
    whole carrier, which is also the top element (integrality).
    """

    owner: FiniteOrderedSemiring
    kind: str
    ideals: tuple[Ideal, ...]
    lattice: FiniteLattice

    @cached_property
    def _by_mask(self) -> dict:
        return {I.mask: i for i, I in enumerate(self.ideals)}

    def index_of(self, mask: int) -> int:
        try:
            return self._by_mask[mask]
        except KeyError:
            raise OwnerMismatch(
                f"{self.owner.set_label(mask)} is not in {self.lattice.name}"
            ) from None

    @property
    def bottom(self) -> int:
        return self.lattice.bottom

    @property
    def unit(self) -> int:
        u = self.lattice.unit
        assert u is not None
        return u

    def __len__(self) -> int:
        return len(self.ideals)

    def __repr__(self) -> str:
        return f"IdealLattice({self.lattice.name}, {len(self.ideals)} ideals)"


def ideal_lattice(
    A: FiniteOrderedSemiring,
    kind: str,
    masks: Sequence[int],
    mul: Table,
    close: Callable[[int], int],
) -> IdealLattice:
    """The ideals ``masks`` of A (canonical order, whole carrier last) under
    containment, with ``mul`` as multiplication and the whole carrier as
    unit.  Meets are verified to be intersections and joins to be ``close``
    of unions."""
    k = len(masks)
    name = f"{kind}({A.name})"
    lattice = lattice_from_order(
        labels=tuple(A.set_label(m) for m in masks),
        leq=inclusion_order(masks),
        mul=mul,
        unit=k - 1,
        name=name,
    )
    for i in range(k):
        for j in range(k):
            pair = f"{A.set_label(masks[i])} and {A.set_label(masks[j])} in {name}"
            if masks[lattice.join[i][j]] != close(masks[i] | masks[j]):
                raise InternalMismatch(f"join of {pair} is not the closure of the union")
            if masks[lattice.meet[i][j]] != masks[i] & masks[j]:
                raise InternalMismatch(f"meet of {pair} is not the intersection")
    return IdealLattice(A, kind, tuple(Ideal(A, m) for m in masks), lattice)


BRUTEFORCE_CROSSCHECK_LIMIT = 12  # 2^n subset filter re-run below this size


def enumerate_ideals(A: FiniteOrderedSemiring) -> IdealLattice:
    """All ideals of A with fully verified quantale structure.

    Ideals are found by closing generator sets (every ideal is reached by
    adding one generator at a time), cross-checked against the exhaustive
    subset filter at small sizes.  The quantale laws -- commutative monoid
    with the whole carrier as unit, distribution over binary joins -- are
    then checked exhaustively over the ideal indices.
    """
    bottom = _close(A, 0)
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        grown = []
        for mask in frontier:
            for x in bits(A.full_mask & ~mask):
                bigger = _close(A, mask | 1 << x)
                if bigger not in seen:
                    seen.add(bigger)
                    grown.append(bigger)
        frontier = grown

    masks = sorted(seen, key=subset_key)
    if A.n <= BRUTEFORCE_CROSSCHECK_LIMIT:
        if masks != enumerate_ideals_bruteforce(A):
            raise InternalMismatch(
                f"closure enumeration disagrees with subset filter on {A.name}"
            )
    for mask in masks:
        if not is_ideal(A, mask):
            raise InternalMismatch(
                f"{A.set_label(mask)} enumerated but is not an ideal of {A.name}"
            )

    index = {m: i for i, m in enumerate(masks)}
    ideals = [Ideal(A, m) for m in masks]
    product = tuple(
        tuple(index[ideal_product(A, I, J).mask] for J in ideals) for I in ideals
    )
    iq = ideal_lattice(A, "ideals", masks, product, lambda m: _close(A, m))
    if not iq.lattice.is_integral_quantale:
        raise InternalMismatch(f"ideal quantale of {A.name} is not integral")
    return iq


def canonical_embedding(A: Source, *built: IdealLattice) -> MorphismTable:
    """The map sending each element to its principal ideal, as a morphism
    into the semiring induced by the ideal quantale.

    Asserts the subadditive-morphism flag (monotonicity, zero below bottom,
    unit to top, subadditivity, multiplicativity all hold by construction).
    ``built`` are structures of A made already (see ``analysis``).
    """
    an = analysis(A, *built)
    A, iq, values = an.owner, an.ideals, an.principal
    table = classify(A, build_from_quantale(iq.lattice), values)
    if not table.is_subadditive_morphism:
        raise InternalMismatch(
            f"principal-ideal map of {A.name} is not a subadditive morphism"
        )
    if values[A.zero] != iq.bottom:
        raise InternalMismatch(
            f"principal ideal of zero in {A.name} is not the least ideal"
        )
    return table


def _same_tables(A: FiniteOrderedSemiring, B: FiniteOrderedSemiring) -> bool:
    return (
        A.labels == B.labels
        and A.leq == B.leq
        and A.zero == B.zero
        and A.one == B.one
        and A.add == B.add
        and A.mul == B.mul
    )


def extend_to_quantale_hom(
    f: MorphismTable, Q: FiniteLattice, iq: IdealLattice
) -> LatticeHom:
    """The join extension of a subadditive morphism into an integral quantale.

    Maps each ideal of ``iq``, the ideal quantale of ``f``'s source, to the
    join of the images of its members; this is the unique quantale
    homomorphism whose composite with the principal-ideal map recovers
    ``f``.  Preservation of joins, unit, and products and the triangle
    identity are all verified exhaustively.
    """
    if not f.is_subadditive_morphism:
        raise NotSubadditive(
            f"{f.source.name} -> {f.target.name} lacks the subadditive-morphism flag"
        )
    if not Q.is_integral_quantale:
        raise NotIntegral(f"{Q.name} is not an integral quantale")
    if not _same_tables(f.target, build_from_quantale(Q)):
        raise OwnerMismatch(
            f"morphism target {f.target.name} is not the semiring induced by {Q.name}"
        )
    A = f.source
    L = iq.lattice
    values = tuple(
        Q.join_of(f.values[x] for x in I.members) for I in iq.ideals
    )
    for i in range(L.n):
        for j in range(L.n):
            if values[L.join[i][j]] != Q.join[values[i]][values[j]]:
                raise InternalMismatch("join extension does not preserve joins")
            assert L.mul is not None and Q.mul is not None
            if values[L.mul[i][j]] != Q.mul[values[i]][values[j]]:
                raise InternalMismatch("join extension does not preserve products")
    if values[iq.unit] != Q.unit or values[iq.bottom] != Q.bottom:
        raise InternalMismatch("join extension does not preserve the bounds")
    for x in range(A.n):
        if values[iq.index_of(principal_ideal(A, x).mask)] != f.values[x]:
            raise InternalMismatch(
                f"triangle fails at {A.labels[x]}: extension of the morphism does "
                f"not recover it on the principal ideal"
            )
    return LatticeHom(source=L, target=Q, values=values)


def check_quantale_universality(
    A: Source,
    Q: FiniteLattice,
    *built: IdealLattice,
    strict_zero: bool = False,
) -> UniversalityReport:
    """Verify that composition with the principal-ideal map is a bijection
    from quantale homomorphisms out of the ideal quantale onto subadditive
    morphisms out of A."""
    if not Q.is_integral_quantale:
        raise NotIntegral(f"{Q.name} is not an integral quantale")
    an = analysis(A, *built)
    return check_universal_property(
        an.owner,
        source=an.ideals.lattice,
        universal_values=an.principal,
        member_masks=tuple(I.mask for I in an.ideals.ideals),
        target=Q,
        target_semiring=build_from_quantale(Q),
        strict_zero=strict_zero,
    )


def induced_quantale_hom(f: MorphismTable, *built: IdealLattice) -> LatticeHom:
    """The action of a subadditive morphism on ideal quantales.

    Sends each ideal to the ideal generated by its image.  Computed as the
    join extension of the composite with the target's principal-ideal map,
    and cross-checked against direct image generation.  ``built`` are ideal
    quantales of the source or the target made already.
    """
    if not f.is_subadditive_morphism:
        raise NotSubadditive(
            f"{f.source.name} -> {f.target.name} lacks the subadditive-morphism flag"
        )
    A, B = f.source, f.target
    source = analysis(A, *(L for L in built if L.owner == A))
    target = analysis(B, *(L for L in built if L.owner == B))
    source_iq, target_iq = source.ideals, target.ideals
    hom = extend_to_quantale_hom(
        compose(f, canonical_embedding(target)), target_iq.lattice, source_iq
    )
    for i, I in enumerate(source_iq.ideals):
        image = generated_ideal(B, {f.values[x] for x in I.members})
        if target_iq.index_of(image.mask) != hom.values[i]:
            raise InternalMismatch(
                f"image of {I.label} under {A.name} -> {B.name} disagrees with "
                f"the join extension"
            )
    return hom
