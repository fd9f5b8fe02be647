"""Ideals of a finite ordered semiring and the integral quantale they form.

An ideal is a downward-closed subset that contains zero, is closed under
addition, and absorbs multiplication.  Generated ideals are computed by a
one-pass worklist closure (``_close``) that handles each element of the
result at most once and each pair of elements at most once.  The ideal
quantale is integral, its unit the whole carrier, so an ideal holding an
element whose principal ideal is the carrier is the carrier: the closure
returns the carrier as soon as its mask meets the semiring's
``full_generators``, on entry or mid-walk.  Its sums and the products of
two subsets (``_products``) are read four columns at a time from the
semiring's ``slice_images``, which hold the image of every subset of each
four-element slice under each row of ``add`` and ``mul`` (the Method of
Four Russians).  The product table of the ideal quantale is read the same
way a column at a time: ``_column`` gives the products ``x*J`` of every
element with one ideal ``J``, and the entry ``I.J`` is the OR of that
column over the members of ``I``, closed once per distinct product set.
``check_product_of_generators`` takes a verdict's whole list of subset
pairs and checks them in one loop over the analysis's memos.
The explicit bounded-sum formula is kept alongside as an
independent oracle that, like ``is_ideal``, reads only the raw tables,
never ``full_generators`` or the slices, and the two are compared by
the verification suite.

Ideal identity is by member bitmask; within one IdealLattice the ideals
are interned in canonical order (by size, then bitmask) and all tables are
over those dense indices.  The tables come from ``core.subset_lattice``,
which verifies meets as intersections and joins as closures of unions.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .analysis import Analysis, Source, analysis
from .core import (
    FiniteLattice,
    FiniteOrderedSemiring,
    Record,
    Table,
    bits,
    gather,
    subset_key,
    subset_lattice,
)
from .errors import (
    InternalMismatch,
    LabelError,
    NotIntegral,
    NotSubadditive,
    OwnerMismatch,
)
from .homs import is_quantale_hom, join_extension
from .morphisms import MorphismTable, classify, compose

Members = Union[int, Iterable[int]]


def as_mask(A: FiniteOrderedSemiring, members: Members) -> int:
    """The bitmask of a subset of A's carrier, given as a bitmask or as
    elements; a member outside the carrier raises LabelError."""
    if isinstance(members, int):
        mask = members
    elif hasattr(members, "_fields"):  # a record is not a set of elements
        raise TypeError(f"{type(members).__name__} is not a set of elements")
    else:
        mask = 0
        for x in members:
            mask |= 1 << x if x >= 0 else -1  # a negative element: no subset
    if mask < 0 or mask >> A.n:
        raise LabelError(f"members outside the {A.n} elements of {A.name}")
    return mask


class Ideal(NamedTuple):
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
    members = list(bits(mask))
    for x in members:
        if A.lower_masks[x] & ~mask:
            return False
        for y in members:
            if not mask >> A.add[x][y] & 1:
                return False
        for y in range(A.n):
            if not mask >> A.mul[x][y] & 1:
                return False
    return True


def _close(A: FiniteOrderedSemiring, mask: int) -> int:
    """Least ideal containing the subset, in one pass over its elements.

    Every element that enters the mask is taken from a worklist once.
    Taking ``x`` ORs in ``A.multiples[x]``, everything below some ``x*y``
    (downward closure and absorption in one step, since ``x*1 = x``), and
    adds ``x+y`` for every ``y`` taken before it, ``x`` included: the
    ``add`` image of the taken set, one ``slice_images`` lookup per four
    elements.  Each pair of elements is thus added once, not once per round
    of a naive fixed point.  An element strictly below another one of the
    mask is dropped from the worklist instead: by monotonicity everything
    it would add lies below something the larger element adds.  "Strictly"
    keeps two elements that are each below the other (a preorder) from
    dropping each other.

    The ideal is the whole carrier as soon as the mask meets
    ``A.full_generators``, the elements whose principal ideal is the
    carrier (the unit-ideal criterion, read through the order), so the
    mask is tested against them on entry and after each element is taken.
    A full mask holds ``one``, so the same test ends every walk that
    reaches the carrier.
    """
    full, generators = A.full_mask, A.full_generators
    mask |= 1 << A.zero
    if mask & generators:
        return full
    images, leq, lower, multiples = A.slice_images[0], A.leq, A.lower_masks, A.multiples
    taken = seen = 0
    todo = mask
    while todo:
        low = todo & -todo
        x = low.bit_length() - 1
        seen |= low
        if not leq[x] & ~lower[x] & mask:
            taken |= low
            mask |= multiples[x]
            row, rest, k = images[x], taken, 0
            while rest:
                mask |= row[k | rest & 15]
                rest >>= 4
                k += 16
            if mask & generators:
                return full
        todo = mask & ~seen
    return mask


def generated_ideal(A: Source, members: Members) -> Ideal:
    """The least ideal of A containing the given subset."""
    an = analysis(A)
    return Ideal(an.owner, an.close(as_mask(an.owner, members)))


def product_set(A: FiniteOrderedSemiring, members: Members) -> frozenset[int]:
    """Every product ``s*y`` with ``s`` in the subset and ``y`` in A: the
    entries of the rows ``s`` of the multiplication table."""
    return frozenset().union(*(A.mul[s] for s in bits(as_mask(A, members))))


def generated_ideal_by_sums(A: FiniteOrderedSemiring, members: Members) -> int:
    """Independent oracle: elements below some finite sum s1*y1 + ... + sm*ym.

    The subset is read only through its ``product_set``, so two subsets
    with the same products generate the same ideal; the generated-ideal
    verdict evaluates this once per distinct product set.  Sums of length
    at most ``|A|`` suffice because the set of reachable partial sums grows
    monotonically inside the carrier; stability at the cutoff is asserted
    rather than assumed.  The rounds are semi-naive: each adds ``t + p``
    only for the sums ``t`` new since the round before, since every older
    sum was extended then; so each sum is extended once.
    """
    add = A.add
    prods = product_set(A, members)
    sums, new = {A.zero}, {A.zero}
    for _ in range(A.n):
        new = {add[t][p] for t in new for p in prods} - sums
        if not new:
            break
        sums |= new
    if {add[t][p] for t in new for p in prods} - sums:
        raise InternalMismatch("partial sums not stable at the length bound")
    mask = 0
    for t in sums:
        mask |= A.lower_masks[t]
    return mask


def principal_ideal(A: Source, x: int) -> Ideal:
    """The ideal generated by one element: everything below some multiple.

    Reads the direct one-generator description, the cached ``multiples``
    row, and asserts agreement with the fixed-point closure of the zero
    ideal and ``x``, read through the analysis: ``enumerate_ideals`` closes
    that same mask, so after it no subset is closed again.
    """
    an = analysis(A)
    A, close = an.owner, an.close
    if not 0 <= x < A.n:
        raise LabelError(f"{x} is not an element of {A.name}")
    mask = A.multiples[x]
    closed = close(close(0) | 1 << x)
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


def ideal_product(A: Source, I: Ideal, J: Ideal) -> Ideal:
    """The ideal generated by all pairwise products."""
    an = analysis(A)
    A = an.owner
    for K in (I, J):
        if K.owner != A:
            raise OwnerMismatch(f"ideal of {K.owner.name} multiplied over {A.name}")
    return generated_ideal(an, _products(A, I.mask, J.mask))


def _slice_entries(mask: int) -> list[int]:
    """The ``slice_images`` entry of each four-element slice of the carrier
    that the subset meets: ``16 * k`` plus the subset's bits in slice ``k``."""
    entries = []
    k = 0
    while mask:
        if mask & 15:
            entries.append(k | mask & 15)
        mask >>= 4
        k += 16
    return entries


def _products(A: FiniteOrderedSemiring, s_mask: int, t_mask: int) -> int:
    """Mask of every product ``s*t`` with ``s`` in one subset, ``t`` in the
    other: the OR of the ``mul`` images of ``t_mask`` under each row ``s``."""
    images = A.slice_images[1]
    out = 0
    if t_mask < 16:  # inside the first slice: one entry per row
        while s_mask:
            low = s_mask & -s_mask
            out |= images[low.bit_length() - 1][t_mask]
            s_mask ^= low
        return out
    entries = _slice_entries(t_mask)
    while s_mask:
        low = s_mask & -s_mask
        row = images[low.bit_length() - 1]
        for i in entries:
            out |= row[i]
        s_mask ^= low
    return out


def _column(A: FiniteOrderedSemiring, t_mask: int) -> list[int]:
    """The mask of every product ``x*t`` with ``t`` in the subset, for each
    element ``x``: the ``mul`` image of ``t_mask`` under each row, one
    ``slice_images`` entry per slice it meets."""
    images = A.slice_images[1]
    entries = _slice_entries(t_mask)
    out = []
    for row in images:
        image = 0
        for i in entries:
            image |= row[i]
        out.append(image)
    return out


def check_product_of_generators(A: Source, pairs: Sequence[tuple]) -> list[bool]:
    """Whether <S> . <T> equals the ideal generated by the pairwise
    products, for each pair ``(S, T)`` of ``pairs``, in order.

    The report's verdict makes one call per instance.  One loop over the
    pairs closes every subset through the analysis, so each distinct
    subset is closed once, and keeps ``<<S><T>>`` in the analysis per pair
    of closed masks, so each distinct pair of ideals is multiplied once.
    Both product sets are read by ``_products``, the one-pair route.  Two
    int masks, as the report's samples are, are checked against the
    carrier in one test; anything else goes through ``as_mask``.
    """
    an = analysis(A)
    A, close = an.owner, an.close
    full, n = A.full_mask, A.n
    kept = an._built.setdefault("products", {})  # by cs << n | ct
    out = []
    for S, T in pairs:
        if type(S) is int and type(T) is int and 0 <= S | T <= full:
            s_mask, t_mask = S, T  # two masks inside the carrier, checked at once
        else:
            s_mask, t_mask = as_mask(A, S), as_mask(A, T)
        cs, ct = close(s_mask), close(t_mask)
        key = cs << n | ct
        lhs = kept.get(key)
        if lhs is None:
            lhs = kept[key] = close(_products(A, cs, ct))
        out.append(lhs == close(_products(A, s_mask, t_mask)))
    return out


class IdealLattice(Record):
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

    @cached_property
    def member_gathers(self) -> tuple[Callable[[Sequence], tuple], tuple]:
        """Each ideal's maximal members (those strictly below no other
        member), in the order of ``ideals``: one ``gather`` of every ideal's
        first maximal member, and ``(index, gather of the others)`` for each
        ideal that has more than one."""
        leq, lower = self.owner.leq, self.owner.lower_masks
        firsts, extras = [], []
        for i, I in enumerate(self.ideals):
            first, *others = (
                x for x in I.members if not leq[x] & ~lower[x] & I.mask
            )
            firsts.append(first)
            if others:
                extras.append((i, gather(others)))
        return gather(firsts), tuple(extras)

    def index_of(self, mask: int) -> int:
        """The index of an ideal the library computed; a miss is a fault."""
        try:
            return self._by_mask[mask]
        except KeyError:
            raise InternalMismatch(
                f"{self.owner.set_label(mask)} is not in {self.lattice.name}"
            ) from None

    def __len__(self) -> int:
        return len(self.ideals)

    def __repr__(self) -> str:
        return f"IdealLattice({self.lattice.name}, {len(self.ideals)} ideals)"


def ideal_lattice(
    A: FiniteOrderedSemiring,
    kind: str,
    masks: Sequence[int],
    close: Callable[[int], int],
    mul: Optional[Table] = None,
) -> IdealLattice:
    """The ideals ``masks`` of A (canonical order) under containment, built
    and verified by ``core.subset_lattice`` with ``close`` as the closure
    and ``mul`` (default: intersection) as multiplication."""
    labels = tuple(A.set_label(m) for m in masks)
    lattice = subset_lattice(masks, labels, close, mul, name=f"{kind}({A.name})")
    return IdealLattice(A, kind, tuple(Ideal(A, m) for m in masks), lattice)


def enumerate_ideals(A: Source) -> IdealLattice:
    """All ideals of A with fully verified quantale structure.

    Ideals are found by closing generator sets (every ideal is reached by
    adding one generator at a time), checked at every size against the
    kernels of ``Analysis.kernels``, maps into ``two()`` whose search closes
    no subset.  The quantale laws -- commutative monoid with the whole
    carrier as unit, distribution over binary joins -- are then checked
    exhaustively over the ideal indices.  Every closure reads the analysis,
    so each distinct subset is closed once.

    The product table is built from one ``_column`` per ideal ``J``: the
    entry ``(I, J)`` is the OR of ``J``'s column over ``I``'s members, and
    each distinct product set is closed once, by ``generated_ideal``, and
    looked up among the ideals.  Every ordered pair is computed, none
    mirrored, so ``lattice_from_order``'s commutativity check tests the
    products.
    """
    an = analysis(A)
    A, close = an.owner, an.close
    bottom = close(0)
    seen = {bottom}
    frontier = [bottom]
    while frontier:
        grown = []
        for mask in frontier:
            for x in bits(A.full_mask & ~mask):
                bigger = close(mask | 1 << x)
                if bigger not in seen:
                    seen.add(bigger)
                    grown.append(bigger)
        frontier = grown

    masks = sorted(seen, key=subset_key)
    if masks != sorted((f.kernel_mask() for f in an.kernels), key=subset_key):
        raise InternalMismatch(
            f"{A.name}: closure enumeration and kernels of maps into two disagree"
        )
    for mask in masks:
        if not is_ideal(A, mask):
            raise InternalMismatch(
                f"{A.set_label(mask)} enumerated but is not an ideal of {A.name}"
            )

    index = {m: i for i, m in enumerate(masks)}
    columns = [_column(A, m) for m in masks]
    found = {}  # the index of the closure of each distinct product set
    product = []
    for s_mask in masks:
        members = tuple(bits(s_mask))
        row = []
        for t_mask, column in zip(masks, columns):
            p = 0
            for x in members:
                p |= column[x]
            k = found.get(p)
            if k is None:
                K = generated_ideal(an, p)
                if K.mask not in index:
                    raise InternalMismatch(
                        f"{A.set_label(s_mask)}.{A.set_label(t_mask)} = {K.label} "
                        f"is not among the enumerated ideals of {A.name}"
                    )
                k = found[p] = index[K.mask]
            row.append(k)
        product.append(tuple(row))
    return ideal_lattice(A, "ideals", masks, close, tuple(product))


def canonical_embedding(A: Source) -> MorphismTable:
    """The map sending each element to its principal ideal, as a morphism
    into the semiring induced by the ideal quantale.

    Asserts the subadditive-morphism flag (monotonicity, zero below bottom,
    unit to top, subadditivity, multiplicativity all hold by construction).
    """
    an = analysis(A)
    A, iq, values = an.owner, an.ideals, an.principal
    table = classify(A, iq.lattice.semiring, [values])[0]
    if not table.is_subadditive_morphism:
        raise InternalMismatch(
            f"principal-ideal map of {A.name} is not a subadditive morphism"
        )
    if values[A.zero] != iq.lattice.bottom:
        raise InternalMismatch(
            f"principal ideal of zero in {A.name} is not the least ideal"
        )
    return table


def extend_to_quantale_hom(
    f: MorphismTable, Q: FiniteLattice, iq: IdealLattice
) -> tuple[int, ...]:
    """The join extension of a subadditive morphism into an integral quantale,
    as Q's index of the image of each ideal of ``iq``.

    Maps each ideal of ``iq``, the ideal quantale of ``f``'s source (of
    another semiring: OwnerMismatch), to the join of the images of its
    members; this is the unique quantale homomorphism whose composite with
    the principal-ideal map recovers ``f``.  Preservation of joins, unit,
    and products and the triangle identity are all verified exhaustively;
    the triangle reads every principal ideal through one analysis of the
    source.
    """
    return _extend(analysis(f.source), f, Q, iq)


def _extend(
    an: Analysis, f: MorphismTable, Q: FiniteLattice, iq: IdealLattice
) -> tuple[int, ...]:
    """``extend_to_quantale_hom``, reading every principal ideal through
    ``an``, an analysis of ``f.source``."""
    if not f.is_subadditive_morphism:
        raise NotSubadditive(
            f"{f.source.name} -> {f.target.name} lacks the subadditive-morphism flag"
        )
    if not Q.is_integral_quantale:
        raise NotIntegral(f"{Q.name} is not an integral quantale")
    if f.target._replace(name=Q.semiring.name) != Q.semiring:
        raise OwnerMismatch(
            f"morphism target {f.target.name} is not the semiring induced by {Q.name}"
        )
    if iq.owner != f.source:
        raise OwnerMismatch(
            f"ideals of {iq.owner.name} given for a morphism out of {f.source.name}"
        )
    A = an.owner
    values = join_extension(iq, Q, f.values)
    if not is_quantale_hom(iq.lattice, Q, [values])[0]:
        raise InternalMismatch(
            f"join extension of {list(f.values)} from {A.name} into {Q.name} is "
            f"not a quantale homomorphism"
        )
    for x in range(A.n):
        if values[iq.index_of(principal_ideal(an, x).mask)] != f.values[x]:
            raise InternalMismatch(
                f"triangle fails at {A.labels[x]}: extension of the morphism does "
                f"not recover it on the principal ideal"
            )
    return values


def check_quantale_universality(
    A: Source, Q: FiniteLattice, strict_zero: bool = False
) -> int:
    """Verify that composition with the principal-ideal map is a bijection
    from quantale homomorphisms out of the ideal quantale onto subadditive
    morphisms out of A, and return its size."""
    if not Q.is_integral_quantale:
        raise NotIntegral(f"{Q.name} is not an integral quantale")
    return analysis(A).universality("ideals", Q, strict_zero)


def induced_quantale_hom(f: MorphismTable) -> tuple[int, ...]:
    """The action of a subadditive morphism on ideal quantales, as the index
    among the target's ideals of the image of each source ideal.

    Sends each ideal to the ideal generated by its image.  Computed as the
    join extension of the composite with the target's principal-ideal map,
    and cross-checked against direct image generation.  Each side has one
    analysis, so no subset of either is closed twice.
    """
    if not f.is_subadditive_morphism:
        raise NotSubadditive(
            f"{f.source.name} -> {f.target.name} lacks the subadditive-morphism flag"
        )
    A, B = f.source, f.target
    source, target = analysis(A), analysis(B)
    source_iq, target_iq = source.ideals, target.ideals
    g = compose(f, canonical_embedding(target))
    hom = _extend(source, g, target_iq.lattice, source_iq)
    for i, I in enumerate(source_iq.ideals):
        image = generated_ideal(target, {f.values[x] for x in I.members})
        if target_iq.index_of(image.mask) != hom[i]:
            raise InternalMismatch(
                f"image of {I.label} under {A.name} -> {B.name} disagrees with "
                f"the join extension"
            )
    return hom
