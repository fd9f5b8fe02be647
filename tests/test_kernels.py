"""One search into two() checks the ideals and the primes at every size.

The ideals are the kernels of the subadditive, submultiplicative maps into
the two-element chain, and the primes are the kernels of the subadditive
morphisms among them.  A closure that loses an ideal is caught by that
search on carriers of any size, and a lookup that misses a computed ideal
becomes a failed verdict.
"""

from pathlib import Path

import pytest

import osr
import osr.ideals
import osr.radicals
from osr.analysis import Analysis
from osr.builders import from_builder_spec
from osr.cli import main
from osr.core import RawSemiringDescription
from osr.errors import InternalMismatch
from osr.osrfile import parse_file, render
from osr.report import CHECK_NAMES, run_checks

F2XY = Path(__file__).parent / "data" / "f2xy.osr"
BASIS = ("1", "x", "y", "xy")  # bit i of an element is its BASIS[i] coefficient


def f2xy_description() -> RawSemiringDescription:
    """F2[x,y]/(x^2, y^2), discretely ordered: 16 elements, a local ring
    whose maximal ideal (x,y) is not principal."""

    def label(e):
        return "+".join(BASIS[i] for i in range(4) if e >> i & 1) or "0"

    def times(e, f):
        out = 0
        for i in range(4):
            for j in range(4):
                # basis i is x^(i&1) y^(i>>1); a square of x or y is zero
                if e >> i & 1 and f >> j & 1 and not i & j:
                    out ^= 1 << (i | j)
        return out

    labels = tuple(label(e) for e in range(16))
    return RawSemiringDescription(
        name="f2xy",
        elements=labels,
        le="discrete",
        zero="0",
        one="1",
        add_table=tuple(tuple(labels[e ^ f] for f in range(16)) for e in range(16)),
        mul_table=tuple(
            tuple(labels[times(e, f)] for f in range(16)) for e in range(16)
        ),
    )


def f2xy():
    return osr.validate(parse_file(str(F2XY)))


def drop_ideal(monkeypatch, A, lost: int) -> None:
    """Make every subset whose closure is ``lost`` close to the next ideal
    up: ``lost`` with its least missing element."""
    close = osr.ideals._close

    def faulty(B, mask):
        out = close(B, mask)
        if B.name == A.name and out == lost:
            missing = A.full_mask & ~lost
            out = close(B, lost | missing & -missing)
        return out

    monkeypatch.setattr(osr.ideals, "_close", faulty)


def test_f2xy_file_is_the_rendered_ring():
    assert F2XY.read_text() == render(f2xy_description())


def test_f2xy_passes_every_check():
    report = run_checks(f2xy())
    assert report.all_passed
    assert report.counts == {
        "elements": 16,
        "ideals": 7,
        "radical_ideals": 2,
        "primes": 1,
        "maximal_ideals": 1,
    }


def test_f2xy_maximal_ideal_is_not_principal():
    an = Analysis(f2xy())
    (maximal,) = an.maximal
    principal = {an.ideals.ideals[i].mask for i in an.principal}
    assert principal == {I.mask for I in an.ideals.ideals} - {maximal.mask}


def test_f2xy_primes_are_kernels_of_subadditive_morphisms():
    an = Analysis(f2xy())
    kernels = [f.kernel_mask() for f in an.kernels if f.is_subadditive_morphism]
    assert kernels == [P.mask for P in an.primes] == [an.maximal[0].mask]
    assert len(an.kernels) == len(an.ideals)


@pytest.mark.parametrize("spec", ["chain:24", "zmod:24", "zmod:16", "f2xy"])
def test_every_dropped_ideal_is_caught_above_twelve_elements(monkeypatch, spec):
    A = f2xy() if spec == "f2xy" else from_builder_spec(spec)
    masks = [I.mask for I in Analysis(A).ideals.ideals]
    # the quantale laws catch a few of these faults, but not all
    for lost in masks[:-1]:
        with monkeypatch.context() as patch:
            drop_ideal(patch, A, lost)
            with pytest.raises(InternalMismatch, match="kernels of maps into two"):
                osr.enumerate_ideals(A)


def test_dropping_the_ideal_of_threes_fails_the_ideals_command(monkeypatch, capsys):
    A = from_builder_spec("zmod:24")
    threes = sum(1 << x for x in range(0, 24, 3))
    assert threes in {I.mask for I in Analysis(A).ideals.ideals}
    drop_ideal(monkeypatch, A, threes)
    with pytest.raises(InternalMismatch):
        osr.enumerate_ideals(A)
    assert main(["ideals", "--builder", "zmod:24", "--json"]) == 1
    assert "kernels of maps into two disagree" in capsys.readouterr().err


def test_a_missed_radical_lookup_becomes_failed_verdicts(monkeypatch):
    A = from_builder_spec("chain:24")
    is_radical = osr.radicals.is_radical
    lost = (1 << 6) - 1  # {0,...,5}

    # the radical frame loses a radical ideal, so the radical of the
    # principal ideal of 5 has no index in it
    monkeypatch.setattr(
        osr.radicals,
        "is_radical",
        lambda B, m: is_radical(B, m) and not (B is A and m == lost),
    )
    report = run_checks(A)
    assert tuple(v.check for v in report.verdicts) == CHECK_NAMES
    passed = {v.check: v.passed for v in report.verdicts}
    assert not passed["radical-semiprime"]
    assert not passed["rad-universality"]
    assert passed["idl-quantale-axioms"]
