"""Radical ideals, the frame they form, and the distributive reflection.

A radical ideal contains every element some power of which it contains.
Each element's positive powers are read from the semiring's ``powers``
row, computed once per semiring.  On the quantale side ``power_set`` walks
the powers itself: the root-exponent bound ``n <= |Q|`` is exact -- the
power sequence of an element revisits itself within the carrier size --
and stabilization at the bound is asserted at runtime rather than assumed.

For abstract finite integral quantales the same closure is the semiprime
reflection; the radical ideals of a semiring are exactly the semiprime
elements of its ideal quantale, and the verification suite checks that
equivalence exhaustively.  Both frames are built by
``core.subset_lattice``: the radical ideals as carrier subsets closed by
``radical_closure``, the semiprime elements as their principal downsets
closed by the reflector.

The distributive reflection is the radical frame itself, with the map
``x -> radical of <x>``; ``distributive_reflection`` verifies that it is
and returns nothing, and the frame and the map are read from the analysis
(``radicals`` and ``radical_principal``).
"""

from __future__ import annotations

from functools import cache

from .analysis import Source, analysis
from .core import (
    FiniteLattice,
    FiniteOrderedSemiring,
    Table,
    bits,
    check_lattice_iso,
    subset_lattice,
)
from .errors import (
    InternalMismatch,
    IsoFailure,
    NotIntegral,
    OwnerMismatch,
    PresentationViolation,
    UniversalityFailure,
)
from .ideals import Ideal, IdealLattice, as_mask, enumerate_ideals, ideal_lattice


def power_set(mul: Table, size: int, x: int) -> set[int]:
    """All positive powers of ``x`` under the given multiplication table.

    Exact with ``size`` steps; the next power is asserted to add nothing.
    """
    out: set[int] = set()
    p = x
    for _ in range(size):
        out.add(p)
        p = mul[p][x]
    if p not in out:
        raise InternalMismatch("power sequence escaped the pigeonhole bound")
    return out


def is_radical(A: FiniteOrderedSemiring, members) -> bool:
    """Does the ideal contain every element with a power inside it?"""
    mask = as_mask(A, members)
    return not any(A.powers[x] & mask for x in bits(A.full_mask & ~mask))


def radical_closure(A: Source, I: Ideal) -> Ideal:
    """Least radical ideal containing I: alternate root adjunction with
    ideal closure, read through the analysis, until stable."""
    an = analysis(A)
    A = an.owner
    if I.owner != A:
        raise OwnerMismatch(f"ideal of {I.owner.name} closed over {A.name}")
    mask = I.mask
    while True:
        prev = mask
        for x in bits(A.full_mask & ~mask):
            if A.powers[x] & mask:
                mask |= 1 << x
        mask = an.close(mask)
        if mask == prev:
            return Ideal(A, mask)


def enumerate_radical_ideals(A: Source) -> IdealLattice:
    """Filter the ideal quantale down to its radical ideals and verify the
    frame laws exhaustively.  The least radical ideal is checked to be the
    radical of the zero ideal, the closure of the empty set.  Every join is
    compared with the radical closure of the union, read through the
    analysis (``Analysis.radical``), so each distinct union is closed once."""
    an = analysis(A)
    A, iq = an.owner, an.ideals
    masks = [I.mask for I in iq.ideals if is_radical(A, I.mask)]
    rad = ideal_lattice(A, "radicals", masks, an.radical)
    if not rad.lattice.is_distributive:
        raise InternalMismatch(f"radical ideals of {A.name} do not form a frame")
    return rad


def semiprime_elements(Q: FiniteLattice) -> tuple[int, ...]:
    """The semiprime elements of a finite integral quantale, as ascending
    quantale indices.

    An element is semiprime when every element with a power below it is
    itself below it.  Verifies: closure under meets, that the restricted
    order is a frame whose meets coincide with those of Q, and that the
    reflector (least semiprime above) is left adjoint to the inclusion.
    """
    if not Q.is_integral_quantale:
        raise NotIntegral(f"{Q.name} is not an integral quantale")
    assert Q.mul is not None
    powers = [power_set(Q.mul, Q.n, q) for q in range(Q.n)]
    members = tuple(
        p
        for p in range(Q.n)
        if all(
            Q.le(q, p) for q in range(Q.n) if any(Q.le(pw, p) for pw in powers[q])
        )
    )
    pos = {p: i for i, p in enumerate(members)}
    for a in members:
        for b in members:
            if Q.meet[a][b] not in pos:
                raise InternalMismatch(
                    f"semiprimes of {Q.name} not closed under meets"
                )
    radical_of = tuple(
        Q.meet_of(p for p in members if Q.le(q, p)) for q in range(Q.n)
    )
    for q in range(Q.n):
        r = radical_of[q]
        if r not in pos or not Q.le(q, r):
            raise InternalMismatch(f"reflector of {Q.name} is not a closure")
        for p in members:
            if Q.le(r, p) != Q.le(q, p):
                raise InternalMismatch(
                    f"reflector of {Q.name} is not left adjoint to the inclusion"
                )
    frame = subset_lattice(
        [Q.lower_masks[p] for p in members],
        tuple(Q.labels[p] for p in members),
        lambda m: Q.lower_masks[radical_of[Q.join_of(bits(m))]],
        name=f"semiprimes({Q.name})",
    )
    if not frame.is_distributive:
        raise InternalMismatch(f"semiprimes of {Q.name} do not form a frame")
    return members


def check_radical_equals_semiprime(A: Source) -> None:
    """An ideal is radical exactly when it is semiprime in the ideal quantale."""
    an = analysis(A)
    A, iq = an.owner, an.ideals
    semi = set(semiprime_elements(iq.lattice))
    for i, I in enumerate(iq.ideals):
        if is_radical(A, I.mask) != (i in semi):
            raise InternalMismatch(
                f"ideal {I.label} of {A.name}: radical and semiprime disagree"
            )


def check_frame_universality(
    A: Source, F: FiniteLattice, strict_zero: bool = False
) -> int:
    """Verify that composition with the radical principal-ideal map is a
    bijection from frame homomorphisms out of the radical frame onto
    subadditive morphisms into the frame's semiring, and return its size."""
    if not F.is_distributive or not F.is_integral_quantale or F.mul != F.meet:
        raise NotIntegral(f"{F.name} is not a frame with meet as multiplication")
    return analysis(A).universality("radicals", F, strict_zero)


@cache
def small_distributive_lattices() -> tuple[FiniteLattice, ...]:
    """The reflection's test targets, built on first use: the chains with
    1, 2 and 3 elements, the four-element Boolean lattice ("diamond") and
    the product of the 2- and 3-element chains ("grid2x3"): five of the 13
    distributive lattices with at most six elements."""
    from .builders import chain_frame, diamond_frame, downset_frame

    return (
        chain_frame(1),
        chain_frame(2),
        chain_frame(3),
        diamond_frame(),
        downset_frame(3, [(0, 1)], name="grid2x3"),
    )


def distributive_reflection(A: Source) -> None:
    """Verify that the radical frame is the universal distributive lattice
    receiving A, its universal map sending each element to its radical
    principal ideal: ``an.radicals`` and ``an.radical_principal``.

    Every ideal of the finite reflection lattice is a principal downset, so
    the lattice presented by the carrier generators collapses onto the
    radical ideals.  Checks the five presentation relations on the
    generator images, that the images generate the lattice,
    distributivity, and -- against every lattice of
    ``small_distributive_lattices`` -- that composition with the universal
    map is a bijection from lattice homomorphisms onto subadditive
    morphisms (``check_frame_universality``).
    """
    an = analysis(A)
    A, lattice, gen = an.owner, an.radicals.lattice, an.radical_principal

    for x in range(A.n):
        for y in range(A.n):
            if A.le(x, y) and not lattice.le(gen[x], gen[y]):
                raise PresentationViolation(
                    f"{A.name}: order relation broken at {A.labels[x]} <= {A.labels[y]}"
                )
            if not lattice.le(gen[A.add[x][y]], lattice.join[gen[x]][gen[y]]):
                raise PresentationViolation(
                    f"{A.name}: sum relation broken at {A.labels[x]} + {A.labels[y]}"
                )
            if gen[A.mul[x][y]] != lattice.meet[gen[x]][gen[y]]:
                raise PresentationViolation(
                    f"{A.name}: product relation broken at {A.labels[x]} * {A.labels[y]}"
                )
    if gen[A.zero] != lattice.bottom:
        raise PresentationViolation(f"{A.name}: zero generator is not the bottom")
    if gen[A.one] != lattice.top:
        raise PresentationViolation(f"{A.name}: unit generator is not the top")
    if not lattice.is_distributive:
        raise PresentationViolation(f"{A.name}: reflection lattice not distributive")

    span = set(gen)
    while True:
        grown = set(span)
        for a in span:
            for b in span:
                grown.add(lattice.join[a][b])
                grown.add(lattice.meet[a][b])
        if grown == span:
            break
        span = grown
    if span != set(range(lattice.n)):
        raise PresentationViolation(
            f"{A.name}: generator images do not generate the reflection lattice"
        )

    for D in small_distributive_lattices():
        try:
            check_frame_universality(an, D)
        except UniversalityFailure as exc:
            raise PresentationViolation(str(exc)) from exc


def check_coherence(A: Source) -> None:
    """Verify the explicit frame isomorphism between the radical frame and
    the ideal quantale of the distributive reflection.

    Every ideal of a finite distributive lattice is a principal downset, so
    the map sending a radical ideal to its downset is a bijection; order
    preservation both ways and agreement of the join/meet tables are
    checked exhaustively.  At finite scale this is the whole content of
    coherence: every finite frame is the ideal frame of a finite
    distributive lattice.
    """
    from .builders import build_from_quantale

    an = analysis(A)
    an.reflection  # the reflection's checks first: its lattice is L
    A, L = an.owner, an.radicals.lattice
    iq = enumerate_ideals(build_from_quantale(L))  # L as an input, validated
    try:
        forward = tuple(iq.index_of(L.lower_masks[r]) for r in range(L.n))
    except InternalMismatch as exc:
        raise IsoFailure(f"{A.name}: downset map: {exc}") from exc
    check_lattice_iso(L, iq.lattice, forward, f"{A.name}: downset map")
