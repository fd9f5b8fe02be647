"""Genuine preorders (not posets) must work throughout.

The carrier order is only required to be reflexive and transitive; these
instances have elements related in both directions and sweep the whole
check suite over them.
"""

import osr
from osr.core import RawSemiringDescription, validate
from osr.report import run_checks


def indiscrete_z2():
    """The two-element field with everything related to everything."""
    return validate(
        RawSemiringDescription(
            name="z2-indiscrete",
            elements=("0", "1"),
            le=(("0", "1"), ("1", "0")),
            zero="0",
            one="1",
            add_table=(("0", "1"), ("1", "0")),
            mul_table=(("0", "0"), ("0", "1")),
        )
    )


def glued_truncnat3():
    """Saturating naturals up to 3 with the top two elements identified in
    the order (2 <= 3 and 3 <= 2) but kept distinct as elements."""
    lab = ("0", "1", "2", "3")
    return validate(
        RawSemiringDescription(
            name="truncnat3-glued",
            elements=lab,
            le=(("0", "1"), ("1", "2"), ("2", "3"), ("3", "2")),
            zero="0",
            one="1",
            add_table=tuple(
                tuple(lab[min(i + j, 3)] for j in range(4)) for i in range(4)
            ),
            mul_table=tuple(
                tuple(lab[min(i * j, 3)] for j in range(4)) for i in range(4)
            ),
        )
    )


def test_indiscrete_preorder_is_degenerate():
    A = indiscrete_z2()
    assert A.le(0, 1) and A.le(1, 0)
    iq = osr.enumerate_ideals(A)
    assert [I.mask for I in iq.ideals] == [0b11]  # nothing below the carrier
    assert osr.check_degeneracy_equivalence(A) is True
    assert osr.enumerate_primes(A) == []


def test_glued_preorder_ideals():
    A = glued_truncnat3()
    iq = osr.enumerate_ideals(A)
    # any ideal containing 2 contains 3 and conversely; only the trivial pair
    assert [I.label for I in iq.ideals] == ["{0}", "{0,1,2,3}"]
    assert [P.label for P in osr.enumerate_primes(A)] == ["{0}"]


def test_full_check_suite_on_preorder_instances():
    for A in (indiscrete_z2(), glued_truncnat3()):
        report = run_checks(A)
        assert report.all_passed, [v for v in report.verdicts if not v.passed]
