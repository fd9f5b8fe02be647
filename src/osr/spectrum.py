"""Prime ideals, the spectrum topology, and the point/open-set duality.

Prime ideals are proper ideals whose complement is closed under products;
equivalently, kernels of subadditive morphisms to the two-element chain,
and the two are cross-checked against each other.  The spectrum carries the
topology generated by the basic opens D(x) of primes not containing x.

Points of a finite frame are computed through its meet-prime elements:
the kernel of any frame map to the two-element chain is the principal
downset of a meet-prime, which makes the point enumeration linear after a
prime scan instead of a raw function search.  The frame of opens is built
by ``core.subset_lattice`` with union as join, and its isomorphism with
the radical frame is verified by ``core.check_lattice_iso``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .analysis import Source, analysis
from .core import (
    FiniteLattice,
    FiniteOrderedSemiring,
    Record,
    bits,
    bits_label,
    check_lattice_iso,
    subset_key,
    subset_lattice,
)
from .errors import InternalMismatch, IsoFailure
from .ideals import Ideal, principal_ideal


class FiniteTopSpace(Record):
    """A finite point set with a family of open subsets (as point bitmasks).

    ``opens`` always contains the empty and full sets and is closed under
    pairwise union and intersection, which at finite scale gives closure
    under arbitrary unions.  ``basis`` optionally records a labeled
    generating family.
    """

    name: str
    point_labels: tuple[str, ...]
    opens: frozenset[int]
    basis: Optional[tuple[tuple[str, int], ...]] = None

    @property
    def n(self) -> int:
        return len(self.point_labels)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def closed_sets(self) -> tuple[int, ...]:
        return tuple(sorted((self.full & ~u for u in self.opens), key=subset_key))

    def closure_of(self, mask: int) -> int:
        out = self.full
        for c in self.closed_sets:
            if mask & ~c == 0:
                out &= c
        return out

    def __repr__(self) -> str:
        return f"FiniteTopSpace({self.name!r}, {self.n} points, {len(self.opens)} opens)"


def make_space(
    name: str,
    point_labels: tuple[str, ...],
    opens,
    basis=None,
) -> FiniteTopSpace:
    """Validate the topology axioms and freeze the space."""
    opens = frozenset(opens)
    full = (1 << len(point_labels)) - 1
    if 0 not in opens or full not in opens:
        raise InternalMismatch(f"{name}: opens must contain the empty and full sets")
    for u in opens:
        for v in opens:
            if u | v not in opens or u & v not in opens:
                raise InternalMismatch(f"{name}: opens not closed under union/intersection")
    if basis is not None:
        for _, b in basis:
            if b not in opens:
                raise InternalMismatch(f"{name}: basis set is not open")
        for u in opens:
            cover = 0
            for _, b in basis:
                if b & ~u == 0:
                    cover |= b
            if cover != u:
                raise InternalMismatch(f"{name}: open set is not a union of basis sets")
    return FiniteTopSpace(name, point_labels, opens, basis)


def _product_inside(
    A: FiniteOrderedSemiring, mask: int
) -> Optional[tuple[int, int]]:
    """The first pair of elements outside ``mask`` whose product falls
    inside it, or None: a proper ideal with no such pair is prime."""
    mul, outside = A.mul, [x for x in range(A.n) if not mask >> x & 1]
    inside = ((x, y) for x in outside for y in outside if mask >> mul[x][y] & 1)
    return next(inside, None)


def _is_prime_mask(A: FiniteOrderedSemiring, mask: int) -> bool:
    return not mask >> A.one & 1 and _product_inside(A, mask) is None


def enumerate_primes(A: Source) -> list[Ideal]:
    """All prime ideals, cross-checked against the kernels of the
    subadditive morphisms among the analysis's ``kernels``."""
    an = analysis(A)
    A = an.owner
    primes = [I for I in an.ideals.ideals if _is_prime_mask(A, I.mask)]
    kernels = {f.kernel_mask() for f in an.kernels if f.is_subadditive_morphism}
    if kernels != {I.mask for I in primes}:
        raise InternalMismatch(
            f"{A.name}: prime ideals and two-valued subadditive morphisms disagree"
        )
    return primes


def enumerate_maximal(A: Source) -> list[Ideal]:
    """Proper ideals maximal in the containment order: the ideals that the
    whole carrier, the top of the ideal lattice, covers."""
    iq = analysis(A).ideals
    top = iq.lattice.top
    return [iq.ideals[i] for i, j in iq.lattice.covers if j == top]


def check_maximal_implies_prime(A: Source) -> None:
    """Every maximal ideal must be prime; the witness on failure is the
    product pair that escapes the ideal.  The maximal ideals are first
    checked against the definition: the proper ideals that any one element
    outside them closes to the carrier (closures ``enumerate_ideals`` made)."""
    an = analysis(A)
    A, maximal, full = an.owner, an.maximal, an.owner.full_mask
    defined = [
        I.mask
        for I in an.ideals.ideals
        if I.mask != full
        and all(an.close(I.mask | 1 << x) == full for x in bits(full & ~I.mask))
    ]
    if sorted(I.mask for I in maximal) != sorted(defined):
        raise InternalMismatch(
            f"{A.name}: maximal ideals [{', '.join(I.label for I in maximal)}] "
            f"differ from the definition's [{', '.join(map(A.set_label, defined))}]"
        )
    primes = {I.mask for I in an.primes}
    for I in maximal:
        if I.mask in primes:
            continue
        pair = _product_inside(A, I.mask)
        if pair is not None:
            x, y = pair
            raise InternalMismatch(
                f"{A.name}: maximal ideal {I.label} is not prime; product "
                f"of {A.labels[x]} and {A.labels[y]} falls inside"
            )
        raise InternalMismatch(
            f"{A.name}: maximal ideal {I.label} is prime but missing from the "
            f"prime ideals"
        )


def check_degeneracy_equivalence(A: Source) -> bool:
    """Is the spectrum empty?  The four ways to say so must agree --
    everything below zero, one below zero, no primes, no maximal ideals --
    and the first is the same as the zero ideal swallowing the carrier."""
    an = analysis(A)
    A = an.owner
    degenerate = all(A.le(x, A.zero) for x in range(A.n))
    flags = (degenerate, A.le(A.one, A.zero), not an.primes, not an.maximal)
    if len(set(flags)) != 1:
        raise InternalMismatch(
            f"{A.name}: degeneracy conditions disagree: everything-below-zero="
            f"{flags[0]}, one-below-zero={flags[1]}, no-primes={flags[2]}, "
            f"no-maximal={flags[3]}"
        )
    zero_ideal_is_all = principal_ideal(an, A.zero).mask == A.full_mask
    if zero_ideal_is_all != degenerate:
        raise InternalMismatch(
            f"{A.name}: zero ideal covers the carrier iff everything is below zero"
        )
    return degenerate


def spectrum_space(A: Source) -> FiniteTopSpace:
    """The space of prime ideals with basic opens D(x) = primes omitting x.

    Point order is canonical (by prime bitmask); the basis is closed under
    intersection because D(x) meets D(y) in D(xy), which is asserted.
    """
    an = analysis(A)
    A, primes = an.owner, an.primes
    d = []
    for x in range(A.n):
        d.append(sum(1 << i for i, P in enumerate(primes) if x not in P))
    for x in range(A.n):
        for y in range(A.n):
            if d[x] & d[y] != d[A.mul[x][y]]:
                raise InternalMismatch(
                    f"{A.name}: basic opens not closed under intersection at "
                    f"{A.labels[x]}, {A.labels[y]}"
                )
    opens = {0} | set(d)
    while True:
        grown = opens | {u | v for u in opens for v in opens}
        if grown == opens:
            break
        opens = grown
    return make_space(
        name=f"spectrum({A.name})",
        point_labels=tuple(P.label for P in primes),
        opens=opens,
        basis=tuple((f"D({A.labels[x]})", d[x]) for x in range(A.n)),
    )


def frame_points(F: FiniteLattice) -> FiniteTopSpace:
    """The space of frame maps to the two-element chain.

    Points are the meet-prime elements (kernels of such maps are exactly
    their principal downsets); the open U(a) collects the points whose
    meet-prime does not dominate ``a``.
    """
    pts = F.meet_primes
    u = {}
    for a in range(F.n):
        u[a] = sum(1 << i for i, m in enumerate(pts) if not F.le(a, m))
    return make_space(
        name=f"points({F.name})",
        point_labels=tuple(F.labels[m] for m in pts),
        opens=set(u.values()) | {0},
        basis=tuple((f"U({F.labels[a]})", u[a]) for a in range(F.n)),
    )


def opens_frame(X: FiniteTopSpace) -> FiniteLattice:
    """The frame of open sets, ordered by inclusion, with union as join."""
    opens = sorted(X.opens, key=subset_key)
    lattice = subset_lattice(
        opens,
        tuple(bits_label(u) for u in opens),
        lambda u: u,
        name=f"opens({X.name})",
    )
    if not lattice.is_distributive:
        raise InternalMismatch(f"opens of {X.name} do not form a frame")
    return lattice


def check_spectrum_homeomorphism(A: Source) -> tuple[int, ...]:
    """The canonical bijection between frame points of the radical frame
    and prime ideals, verified to be a homeomorphism: entry ``i`` is the
    spectrum point of the ``i``-th frame point.

    A meet-prime radical ideal is literally a prime ideal (and conversely),
    so the point bijection matches up underlying member sets; the opens
    correspond with D(x) matching the open of the radical of <x>.
    """
    an = analysis(A)
    A, rad, spec = an.owner, an.radicals, an.spectrum
    pts = frame_points(rad.lattice)
    prime_masks = [rad.ideals[m].mask for m in rad.lattice.meet_primes]
    spec_masks = [P.mask for P in an.primes]
    if sorted(prime_masks) != sorted(spec_masks):
        raise IsoFailure(
            f"{A.name}: meet-prime radical ideals differ from prime ideals"
        )
    forward = tuple(spec_masks.index(m) for m in prime_masks)
    backward = tuple(prime_masks.index(m) for m in spec_masks)

    def push(mask: int) -> int:
        return sum(1 << forward[i] for i in bits(mask))

    for u in pts.opens:
        if push(u) not in spec.opens:
            raise IsoFailure(f"{A.name}: image of a point-space open is not open")
    for v in spec.opens:
        if sum(1 << backward[i] for i in bits(v)) not in pts.opens:
            raise IsoFailure(f"{A.name}: preimage of a spectrum open is not open")

    assert spec.basis is not None and pts.basis is not None
    for x, r in enumerate(an.radical_principal):
        if push(pts.basis[r][1]) != spec.basis[x][1]:
            raise IsoFailure(
                f"{A.name}: D({A.labels[x]}) does not match the open of the "
                f"radical principal ideal"
            )
    return forward


def check_radical_opens_iso(A: Source) -> None:
    """The radical frame is the frame of opens of the spectrum: the map
    sending a radical ideal to the primes not containing it is a frame
    isomorphism carrying radical principal ideals to the basic opens."""
    an = analysis(A)
    A, rad, spec, primes = an.owner, an.radicals, an.spectrum, an.primes
    O = opens_frame(spec)
    opens_sorted = sorted(spec.opens, key=subset_key)
    pos = {u: i for i, u in enumerate(opens_sorted)}

    forward = []
    for I in rad.ideals:
        u = sum(1 << i for i, P in enumerate(primes) if I.mask & ~P.mask)
        if u not in pos:
            raise IsoFailure(f"{A.name}: image of {I.label} is not open")
        forward.append(pos[u])
    check_lattice_iso(rad.lattice, O, forward, f"{A.name}: open-set map")
    assert spec.basis is not None
    for x, r in enumerate(an.radical_principal):
        if opens_sorted[forward[r]] != spec.basis[x][1]:
            raise IsoFailure(
                f"{A.name}: radical of <{A.labels[x]}> does not map to D({A.labels[x]})"
            )


def check_prime_element_correspondence(A: Source) -> None:
    """An ideal is prime exactly when it is a prime element of the ideal
    quantale: proper, and dividing a product only by dividing a factor."""
    an = analysis(A)
    A, iq = an.owner, an.ideals
    L = iq.lattice
    assert L.mul is not None
    for i, I in enumerate(iq.ideals):
        as_ideal = _is_prime_mask(A, I.mask)
        as_element = i != L.unit and all(
            L.le(j, i) or L.le(m, i)
            for j in range(L.n)
            for m in range(L.n)
            if L.le(L.mul[j][m], i)
        )
        if as_ideal != as_element:
            raise InternalMismatch(
                f"{A.name}: {I.label} is prime as an ideal but not as a quantale "
                f"element (or conversely)"
            )


def check_sober(X: FiniteTopSpace) -> Optional[str]:
    """Is the space T0 with a unique generic point per irreducible closed set?

    Returns None if so, else the witness of the first failure, rather than
    raising: arbitrary spaces may honestly fail, and the suites assert
    soberness only for spectrum outputs.
    """
    for x in range(X.n):
        for y in range(x + 1, X.n):
            if not any(bool(u >> x & 1) != bool(u >> y & 1) for u in X.opens):
                return (
                    f"points {X.point_labels[x]} and {X.point_labels[y]} "
                    f"share all opens"
                )
    for c in X.closed_sets:
        if c == 0:
            continue
        irreducible = all(
            not (u & c and v & c) or (u & v & c)
            for u in X.opens
            for v in X.opens
        )
        if not irreducible:
            continue
        generic = [x for x in bits(c) if X.closure_of(1 << x) == c]
        if len(generic) != 1:
            return f"irreducible closed set with {len(generic)} generic points"
    return None
