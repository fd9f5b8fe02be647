"""Machine-readable verification reports.

``run_checks`` runs every structural theorem against one instance and
produces a fixed-order verdict list.  The structures come from one
``Analysis``, so each is built once.  Any verification failure -- in a
theorem check or while building a structure -- is caught into a failed
verdict with its witness text instead of aborting the rest: every verdict
that needs a structure that failed to build fails with that witness, and
the counts of such a structure are ``null``.  JSON output is byte-stable
for identical inputs: sampled checks use a fixed seed and the timings
object is emptied in machine output (wall-clock values, one per structure
phase and one per verdict, appear only in the human rendering).

The two sampled verdicts read the same subset samples on every call: they
depend only on the carrier size, so each list is drawn once per process.
The generated-ideal oracle evaluates the bounded-sum formula once per
distinct product-set mask of the sampled subsets (the mask of their
``product_set``, the only thing the formula reads of a subset); every
sampled subset is still closed and compared.
"""

from __future__ import annotations

import json
import random
import time
from functools import cache
from typing import NamedTuple, Optional

from .analysis import Analysis
from .builders import nilpotent_chain_quantale
from .core import FiniteLattice, FiniteOrderedSemiring, bits
from .errors import InternalMismatch, VerificationFailure
from .ideals import (
    check_product_of_generators,
    check_quantale_universality,
    generated_ideal_by_sums,
)
from .radicals import (
    check_coherence,
    check_frame_universality,
    check_radical_equals_semiprime,
    small_distributive_lattices,
)
from .spectrum import (
    check_degeneracy_equivalence,
    check_maximal_implies_prime,
    check_prime_element_correspondence,
    check_radical_opens_iso,
    check_sober,
    check_spectrum_homeomorphism,
)

SAMPLE_SEED = 0x05EED  # sampled checks must be reproducible run to run
SAMPLES = 200
EXHAUSTIVE_SUBSET_SPACE = 1 << 8  # full sweep while the subset tuples fit

class Verdict(NamedTuple):
    check: str
    passed: bool
    witness: Optional[str] = None


def _block(items: list[str], brackets: str) -> str:
    """An object or array one level into the report, as ``indent=2`` writes it."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n  {brackets[1]}"


class CheckReport:
    """One instance's counts, per-theorem verdicts, and timings: one per
    structure phase, then one per verdict in ``VERDICTS`` order."""

    def __init__(self, name: str, counts: dict, timings: dict):
        self.name, self.counts, self.timings = name, counts, timings
        self.verdicts: list[Verdict] = []

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        """The text of ``json.dumps(payload, indent=2)``, written out for the
        report's one shape.  With an indent, ``json`` runs its pure-Python
        encoder, which costs a few percent of a small instance's checks and
        leaves a reference cycle per call; here each name, count and witness
        is one ``json.dumps`` without indent, which the C encoder writes."""
        dump = json.dumps
        counts = [f"    {dump(k)}: {dump(v)}" for k, v in self.counts.items()]
        verdicts = [
            f'    {{\n      "check": {dump(v.check)},\n      "pass": {dump(v.passed)}'
            + (f',\n      "witness": {dump(v.witness)}' if v.witness is not None else "")
            + "\n    }"
            for v in self.verdicts
        ]
        return (
            f'{{\n  "name": {dump(self.name)},\n'
            f'  "counts": {_block(counts, "{}")},\n'
            f'  "verdicts": {_block(verdicts, "[]")},\n'
            '  "timings": {}\n}\n'
        )

    def human(self) -> str:
        lines = [f"instance {self.name}"]
        lines.append(
            "  counts: "
            + "  ".join(f"{k}={v}" for k, v in self.counts.items())
        )
        for v in self.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            suffix = f"  [{v.witness}]" if v.witness else ""
            lines.append(f"  [{mark}] {v.check}{suffix}")
        lines.append(
            "  timings: "
            + "  ".join(f"{k}={v * 1000:.1f}ms" for k, v in self.timings.items())
        )
        return "\n".join(lines) + "\n"


@cache
def quantale_targets() -> tuple[FiniteLattice, ...]:
    """The fixed target family for the ideal-quantale universality verdict,
    built on first use: the 2- and 3-chains and ``nilq3``, whose tables are
    those of the ideal quantale of Z/4.  No target is built by the code
    under test."""
    return (*small_distributive_lattices()[1:3], nilpotent_chain_quantale())


@cache
def frame_targets() -> tuple[FiniteLattice, ...]:
    """The fixed target family for the radical-frame universality verdict:
    the 2- and 3-chains and the diamond, shared with the reflection's
    targets."""
    return small_distributive_lattices()[1:4]


@cache
def _samples(n: int, count: int, how_many_sets: int) -> tuple[tuple[int, ...], ...]:
    """Deterministic subset tuples of an ``n``-element carrier: exhaustive at
    small sizes, sampled above.  Drawn once per process: they depend on no
    instance."""
    space = 1 << n
    if space**how_many_sets <= EXHAUSTIVE_SUBSET_SPACE:
        if how_many_sets == 1:
            return tuple((m,) for m in range(space))
        return tuple((s, t) for s in range(space) for t in range(space))
    rng = random.Random(SAMPLE_SEED)
    return tuple(
        tuple(rng.randrange(space) for _ in range(how_many_sets))
        for _ in range(count)
    )


def _size(an: Analysis, structure: str) -> Optional[int]:
    """How many items a structure of ``an`` has; None if it failed to build."""
    try:
        return len(getattr(an, structure))
    except VerificationFailure:
        return None


def _oracle_equivalence(an: Analysis) -> None:
    """The closure and the bounded-sum formula agree on the sampled subsets,
    the formula evaluated once per distinct product set, keyed by its mask:
    the OR of the rows of the multiplication table, each read as a mask."""
    A = an.owner
    row_masks = [sum({1 << v for v in row}) for row in A.mul]
    by_products: dict = {}
    for (mask,) in _samples(A.n, SAMPLES, 1):
        products = 0
        for s in bits(mask):
            products |= row_masks[s]
        if products not in by_products:
            by_products[products] = generated_ideal_by_sums(A, mask)
        if an.close(mask) != by_products[products]:
            raise InternalMismatch(
                f"{A.name}: closure and sum formula disagree on "
                f"{A.set_label(mask)}"
            )


def _product_of_generators(an: Analysis) -> None:
    A = an.owner
    pairs = _samples(A.n, SAMPLES, 2)
    for (s, t), ok in zip(pairs, check_product_of_generators(an, pairs)):
        if not ok:
            raise InternalMismatch(
                f"{A.name}: <S><T> != <ST> at S={A.set_label(s)}, "
                f"T={A.set_label(t)}"
            )


def _sobriety(an: Analysis) -> None:
    witness = check_sober(an.spectrum)
    if witness is not None:
        raise InternalMismatch(f"{an.owner.name}: {witness}")


# (name, body) of each verdict, in report order.  Every body reads its check
# from this module's namespace when it runs, so a rebound name is the one
# called.  The ideal-quantale laws are verified inside enumerate_ideals, so
# that verdict is whether the ideal quantale was built.
VERDICTS = (
    ("idl-quantale-axioms", lambda an: an.ideals),
    (
        "idl-universality",
        lambda an: [check_quantale_universality(an, Q) for Q in quantale_targets()],
    ),
    ("generated-ideal-oracle", _oracle_equivalence),
    ("product-of-generators", _product_of_generators),
    ("radical-semiprime", lambda an: check_radical_equals_semiprime(an)),
    (
        "rad-universality",
        lambda an: [check_frame_universality(an, F) for F in frame_targets()],
    ),
    ("coherence-iso", lambda an: check_coherence(an)),
    ("dlat-presentation", lambda an: an.reflection),
    ("maximal-implies-prime", lambda an: check_maximal_implies_prime(an)),
    ("degeneracy-equivalence", lambda an: check_degeneracy_equivalence(an)),
    ("prime-element-correspondence", lambda an: check_prime_element_correspondence(an)),
    ("pt-rad-homeo", lambda an: check_spectrum_homeomorphism(an)),
    ("rad-opens-iso", lambda an: check_radical_opens_iso(an)),
    ("sobriety", _sobriety),
)
CHECK_NAMES = tuple(name for name, _ in VERDICTS)


def run_checks(A: FiniteOrderedSemiring) -> CheckReport:
    """Run the full fixed verdict suite against one instance."""
    an = Analysis(A)
    timings: dict = {}
    for phase, structures in (
        ("ideals", ("ideals",)),
        ("radicals", ("radicals",)),
        ("spectrum", ("primes", "maximal", "spectrum")),
    ):
        t0 = time.perf_counter()
        for structure in structures:
            try:
                getattr(an, structure)
            except VerificationFailure:
                pass  # recorded in the analysis; the verdicts that need it fail
        timings[phase] = time.perf_counter() - t0

    report = CheckReport(
        name=A.name,
        counts={
            "elements": A.n,
            "ideals": _size(an, "ideals"),
            "radical_ideals": _size(an, "radicals"),
            "primes": _size(an, "primes"),
            "maximal_ideals": _size(an, "maximal"),
        },
        timings=timings,
    )

    for name, body in VERDICTS:
        t0 = time.perf_counter()
        try:
            body(an)
            report.verdicts.append(Verdict(check=name, passed=True))
        except VerificationFailure as exc:
            report.verdicts.append(
                Verdict(check=name, passed=False, witness=str(exc))
            )
        timings[name] = time.perf_counter() - t0
    return report
