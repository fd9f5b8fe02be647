"""The structures of one ordered semiring, each built once.

An ``Analysis`` is made for one ``run_checks`` call or one CLI command.
Nothing is kept per semiring, so a new analysis of the same semiring
verifies everything again.  The constructors live in modules that build on
this one, so each field imports its constructor when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .core import FiniteOrderedSemiring
from .errors import VerificationFailure

if TYPE_CHECKING:
    from .ideals import Ideal, IdealLattice
    from .radicals import ReflectionResult
    from .spectrum import FiniteTopSpace


class _structure:
    """A field of an Analysis, built on first read.  A build that raises
    VerificationFailure is not retried: each later read re-raises it."""

    def __init__(self, build) -> None:
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, an: "Analysis", owner=None):
        if an is None:
            return self
        built = an._built
        if self.name not in built:
            try:
                built[self.name] = self.build(an)
            except VerificationFailure as exc:
                built[self.name] = exc
        value = built[self.name]
        if isinstance(value, VerificationFailure):
            raise value
        return value


@dataclass(frozen=True)
class Analysis:
    """The derived structures of ``owner``, each made by its named
    constructor, with every cross-check, on first use."""

    owner: FiniteOrderedSemiring
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @_structure
    def ideals(self) -> "IdealLattice":
        """The ideal quantale."""
        from .ideals import enumerate_ideals

        return enumerate_ideals(self.owner)

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
    def reflection(self) -> "ReflectionResult":
        from .radicals import distributive_reflection

        return distributive_reflection(self)

    @_structure
    def principal(self) -> tuple[int, ...]:
        """The universal map x -> <x>, as indices into ``ideals``."""
        from .ideals import principal_ideal

        A = self.owner
        return tuple(
            self.ideals.index_of(principal_ideal(A, x).mask) for x in range(A.n)
        )

    @_structure
    def radical_principal(self) -> tuple[int, ...]:
        """The universal map x -> radical of <x>, as indices into ``radicals``."""
        from .ideals import principal_ideal
        from .radicals import radical_closure

        A = self.owner
        return tuple(
            self.radicals.index_of(radical_closure(A, principal_ideal(A, x)).mask)
            for x in range(A.n)
        )


# not typing.Union: typing caches it for the life of the process, which would
# keep every re-imported copy of these classes alive
Source = FiniteOrderedSemiring | Analysis


def analysis(A: Source) -> Analysis:
    """``A`` itself if it is an analysis, else a new analysis of ``A``."""
    return A if isinstance(A, Analysis) else Analysis(A)
