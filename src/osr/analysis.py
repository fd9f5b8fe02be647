"""The structures of one ordered semiring, each built once.

An ``Analysis`` is made for one ``run_checks`` call or one CLI command.  It
keeps what it derives from its semiring: the structures below, the
distributive reflection's check (``reflection``, whose lattice and map are
``radicals`` and ``radical_principal``), every ideal closure (``close``)
and radical closure (``radical``), the product ``<<S><T>>`` of each pair
of closed masks that ``ideals.check_product_of_generators`` multiplied
(one dict, read in that check's one loop over a verdict's pairs), every
universal-property result (``universality``) and the subadditive morphisms
those results compare against, one list per target semiring and zero-axiom
variant, each with the failure its build raised, if any.  All of it dies
with the analysis, so a new analysis of the same semiring verifies
everything again.  The only things kept per process are the fixed stock of
target lattices, their semirings and ``two()``, and the report's subset
samples, none of which depends on any instance.  The constructors live
in modules that build on this one, so each is imported when first used;
``ideals`` and ``radicals``, whose closures an analysis runs, and
``morphisms`` and ``homs``, whose searches and checks each universality
runs, are imported once, at the end of this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import FiniteOrderedSemiring
from .errors import VerificationFailure

if TYPE_CHECKING:
    from .core import FiniteLattice
    from .ideals import Ideal, IdealLattice
    from .morphisms import MorphismTable
    from .spectrum import FiniteTopSpace


def _kept(an: "Analysis", key, build):
    """``an``'s value for ``key``, built on first use.  A build that raises
    VerificationFailure is not retried: each later use re-raises it."""
    built = an._built
    if key not in built:
        try:
            built[key] = build()
        except VerificationFailure as exc:
            built[key] = exc
    value = built[key]
    if isinstance(value, VerificationFailure):
        raise value
    return value


def _structure(build) -> property:
    """A field of an Analysis, built by ``build`` on first read."""
    return property(
        lambda an: _kept(an, build.__name__, lambda: build(an)), doc=build.__doc__
    )


class Analysis:
    """The derived structures of ``owner``, each made by its named
    constructor, with every cross-check, on first use.  One search into
    ``two()``, ``kernels``, checks both the ideals and the primes."""

    def __init__(self, owner: FiniteOrderedSemiring) -> None:
        self.owner = owner
        self._built, self._closures, self._radicals = {}, {}, {}  # by key; by mask

    def close(self, mask: int) -> int:
        """``ideals._close(owner, mask)``, computed once per mask."""
        closed = self._closures.get(mask)
        if closed is None:
            closed = self._closures[mask] = ideals._close(self.owner, mask)
        return closed

    def radical(self, mask: int) -> int:
        """The least radical ideal containing ``mask``: ``radical_closure``
        of the ideal ``close(mask)``, computed once per mask."""
        closed = self._radicals.get(mask)
        if closed is None:
            ideal = ideals.Ideal(self.owner, self.close(mask))
            closed = self._radicals[mask] = radicals.radical_closure(self, ideal).mask
        return closed

    def universality(
        self, kind: str, target: "FiniteLattice", strict_zero: bool
    ) -> int:
        """The universal property of the lattice ``kind`` ("ideals" or
        "radicals") and its universal arrow against ``target``, checked once
        per ``(kind, target, strict_zero)``; returns the size of the verified
        bijection.  Both kinds compare against one list of subadditive
        morphisms into ``target.semiring``, searched once per
        ``strict_zero``."""

        def check():
            L = getattr(self, kind)
            arrow = self.principal if kind == "ideals" else self.radical_principal
            B = target.semiring
            found = _kept(
                self,
                (B, strict_zero),
                lambda: morphisms.enumerate_subadditive(self.owner, B, strict_zero),
            )
            return homs.check_universal_property(L, arrow, target, found)

        return _kept(self, (kind, target, strict_zero), check)

    @_structure
    def kernels(self) -> "list[MorphismTable]":
        """The subadditive, submultiplicative maps into ``two()``: their
        kernels are the ideals, and the kernels of the subadditive
        morphisms among them are the primes."""
        from .builders import two
        from .morphisms import enumerate_sub_submul

        return enumerate_sub_submul(self.owner, two())

    @_structure
    def ideals(self) -> "IdealLattice":
        """The ideal quantale."""
        from .ideals import enumerate_ideals

        return enumerate_ideals(self)

    @_structure
    def radicals(self) -> "IdealLattice":
        """The radical frame."""
        from .radicals import enumerate_radical_ideals

        return enumerate_radical_ideals(self)

    @_structure
    def primes(self) -> "list[Ideal]":
        from .spectrum import enumerate_primes

        return enumerate_primes(self)

    @_structure
    def maximal(self) -> "list[Ideal]":
        from .spectrum import enumerate_maximal

        return enumerate_maximal(self)

    @_structure
    def spectrum(self) -> "FiniteTopSpace":
        from .spectrum import spectrum_space

        return spectrum_space(self)

    @_structure
    def reflection(self) -> None:
        """The distributive reflection's check, run once: the reflection is
        ``radicals`` with the map ``radical_principal``."""
        from .radicals import distributive_reflection

        return distributive_reflection(self)

    @_structure
    def principal(self) -> tuple[int, ...]:
        """The universal map x -> <x>, as indices into ``ideals``."""
        from .ideals import principal_ideal

        return tuple(
            self.ideals.index_of(principal_ideal(self, x).mask)
            for x in range(self.owner.n)
        )

    @_structure
    def radical_principal(self) -> tuple[int, ...]:
        """The universal map x -> radical of <x>, as indices into ``radicals``;
        each principal ideal is read from ``principal``."""
        ideals = self.ideals.ideals
        return tuple(
            self.radicals.index_of(self.radical(ideals[i].mask))
            for i in self.principal
        )


# not typing.Union: typing caches it for the life of the process, which would
# keep every re-imported copy of these classes alive
Source = FiniteOrderedSemiring | Analysis


def analysis(A: Source) -> Analysis:
    """``A`` itself if it is an analysis, else a new analysis of ``A``."""
    return A if isinstance(A, Analysis) else Analysis(A)


# last: ideals and radicals build on this module; ``close`` reads
# ``ideals._close``, ``radical`` ``radicals.radical_closure`` and
# ``universality`` the search and check of ``morphisms`` and ``homs`` when
# they run, so a rebound function is the one called, and no call pays for
# an import statement
from . import homs, ideals, morphisms, radicals  # noqa: E402
