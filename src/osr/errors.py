"""Exception hierarchy.

Input errors (bad labels, bad tables, failed axioms, size guardrails) are
expected at the API boundary.  The *bug signal* errors at the bottom are
raised when an exhaustive verification of a theorem fails; they indicate a
defect in this library, never a legitimate input.
"""

from __future__ import annotations


class OsrError(Exception):
    """Base class for all errors raised by this package."""


class LabelError(OsrError):
    """An element label is missing, duplicated, or a table is malformed."""


class SizeLimit(OsrError):
    """A carrier or search space exceeds the desk-scale guardrail."""


class AxiomViolation(OsrError):
    """One or more ordered-semiring axioms failed on the given tables.

    ``violations`` lists every failed law as ``(axiom_name, witness)`` with
    one witness (a tuple of element labels) per law.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = ", ".join(f"{a} at {w}" for a, w in self.violations)
        super().__init__(f"axioms failed: {lines}")


class NotAPartialOrder(OsrError):
    """The input relation is not antisymmetric after closure."""


class NotALattice(OsrError):
    """Some pair of elements lacks a least upper or greatest lower bound."""


class NotAQuantale(OsrError):
    """The multiplication table violates the quantale laws."""


class NotIntegral(OsrError):
    """The quantale unit is not the top element."""


class NotSubadditive(OsrError):
    """A morphism required to be subadditive is not."""


class EndpointMismatch(OsrError):
    """Composition of morphisms with incompatible endpoints."""


class OwnerMismatch(OsrError):
    """Ideals from different semirings were mixed in one operation."""


class ParseError(OsrError):
    """Syntax error in an ``.osr`` document."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class DuplicateLabel(ParseError):
    """The same element label appears twice."""


class MissingSection(ParseError):
    """A required ``.osr`` section is absent or out of order."""


# --- bug signals: an exhaustively checked theorem failed ---------------------


class VerificationFailure(OsrError):
    """Base class for failures of exhaustively verified theorems."""


class InternalMismatch(VerificationFailure):
    """Two things that must agree differ: two routes to one result
    (formula vs. fixed point, two enumerations of one set), or what a
    theorem asserts (a lemma, an equivalence, sobriety) and what the
    instance shows."""


class UniversalityFailure(VerificationFailure):
    """A universal-property bijection or triangle identity failed."""


class PresentationViolation(VerificationFailure):
    """The distributive reflection violated a presentation relation."""


class IsoFailure(VerificationFailure):
    """An explicitly constructed isomorphism or homeomorphism failed to
    verify."""
