"""Fault injection: each row breaks one function of the library (a
monkeypatch), runs every check on one instance, and names the verdicts
that must fail.  A fault must show as failed verdicts, never as an aborted
report or as a report that passes."""

import pytest

import osr
import osr.homs
import osr.ideals
import osr.spectrum
from osr.core import FiniteOrderedSemiring
from osr.report import run_checks

# the real functions, taken before any row replaces them
column = osr.ideals._column
enumerate_quantale_homs = osr.homs.enumerate_quantale_homs
enumerate_primes = osr.spectrum.enumerate_primes
enumerate_maximal = osr.spectrum.enumerate_maximal
MAXIMAL = {"maximal-implies-prime"}


def _drop_a_maximal_prime(A):
    """The primes without the first one that is also maximal."""
    primes = enumerate_primes(A)
    maximal = {I.mask for I in enumerate_maximal(A)}
    i = next(i for i, I in enumerate(primes) if I.mask in maximal)
    return primes[:i] + primes[i + 1 :]


def _every_prime_is_maximal(A):
    return enumerate_primes(A)


def _drop_a_maximal_ideal(A):
    return enumerate_maximal(A)[:-1]


FAULTS = [
    # (function of osr.spectrum replaced, fault, instance, verdicts that must fail)
    ("enumerate_primes", _drop_a_maximal_prime, "zmod:6", MAXIMAL),
    ("enumerate_primes", _drop_a_maximal_prime, "chain:4", MAXIMAL),
    ("enumerate_primes", _drop_a_maximal_prime, "zmod:12", MAXIMAL),
    ("enumerate_maximal", _every_prime_is_maximal, "chain:4", MAXIMAL),
    ("enumerate_maximal", _every_prime_is_maximal, "chain:9", MAXIMAL),
    ("enumerate_maximal", _drop_a_maximal_ideal, "zmod:6", MAXIMAL),
    ("enumerate_maximal", _drop_a_maximal_ideal, "bool:3", MAXIMAL),
]


@pytest.mark.parametrize(
    "name, fault, spec, must_fail",
    FAULTS,
    ids=[f"{fault.__name__.strip('_')}-{spec}" for _, fault, spec, _ in FAULTS],
)
def test_fault_fails_its_verdicts_without_aborting(
    monkeypatch, name, fault, spec, must_fail
):
    A = osr.from_builder_spec(spec)
    assert run_checks(A).all_passed
    monkeypatch.setattr(osr.spectrum, name, fault)
    report = run_checks(A)  # an exception here is an aborted report
    failed = {v.check for v in report.verdicts if not v.passed}
    assert must_fail <= failed, failed


@pytest.mark.parametrize("spec", ["zmod:6", "chain:4", "zmod:12"])
def test_wrong_full_generators_fail_verdicts_without_aborting(monkeypatch, spec):
    # zero in the table makes every closure the whole carrier, so the ideal
    # quantale collapses; the checking routes read the raw tables and see it
    real = FiniteOrderedSemiring.full_generators.func
    A = osr.from_builder_spec(spec)
    monkeypatch.setattr(
        FiniteOrderedSemiring,
        "full_generators",
        property(lambda S: real(S) | 1 << S.zero),
    )
    report = run_checks(A)  # an exception here is an aborted report
    failed = {v.check for v in report.verdicts if not v.passed}
    assert {"idl-quantale-axioms", "generated-ideal-oracle"} <= failed, failed


@pytest.mark.parametrize("spec", ["zmod:6", "chain:9", "bool:3"])
def test_every_reflection_target_is_checked(monkeypatch, spec):
    # grid2x3 is the last of the five targets, and only the reflection's
    # universality checks use it: losing a hom into it fails just the two
    # verdicts that build the reflection
    def drop_a_grid_hom(L, Q):
        homs = enumerate_quantale_homs(L, Q)
        return homs[:-1] if Q.name == "grid2x3" else homs

    A = osr.from_builder_spec(spec)
    monkeypatch.setattr(osr.homs, "enumerate_quantale_homs", drop_a_grid_hom)
    failed = {v.check for v in run_checks(A).verdicts if not v.passed}
    assert failed == {"coherence-iso", "dlat-presentation"}


@pytest.mark.parametrize("spec", ["zmod:6", "chain:4", "bool:3", "zmod:12"])
def test_a_column_that_loses_an_element_fails_the_quantale(monkeypatch, spec):
    # the product column of the least ideal above the bottom loses its last
    # member: every product with that ideal misses it, the unit law with them
    A = osr.from_builder_spec(spec)
    ideal = osr.enumerate_ideals(A).ideals[1]
    lost = ~(1 << ideal.members[-1])

    def lossy(B, t_mask):
        images = column(B, t_mask)
        if B is A and t_mask == ideal.mask:
            return [m & lost for m in images]
        return images

    monkeypatch.setattr(osr.ideals, "_column", lossy)
    report = run_checks(A)  # an exception here is an aborted report
    assert len(report.verdicts) == 14
    failed = {v.check for v in report.verdicts if not v.passed}
    assert "idl-quantale-axioms" in failed, failed
