"""Relabelling invariance: the same semiring with its elements listed in
another order must give the same report, the same structures and the same
morphisms.

Many routes read elements by index: the closure and the product columns
cut the carrier into four-element slices, the re-check batches
``256 // n`` maps, one after another in a byte lane, and the search takes
its variables in index order.  Listing the elements in another order moves
every element into other slices, lanes and places in the search, and
changes no verdict.  No oracle is needed, so this runs at the carrier cap.
"""

import random

import pytest

import osr
import osr.report
from osr.analysis import Analysis
from osr.core import RawSemiringDescription
from osr.report import run_checks

SEED = 0x0DE1


def relabelled(desc: RawSemiringDescription, order) -> RawSemiringDescription:
    """``desc`` with its elements listed in ``order``: element ``order[i]``
    of ``desc`` comes ``i``-th, and both tables are permuted with it.
    Labels, the order relation and the constants are the same; ``desc``
    carries its order as explicit pairs, as ``describe()`` gives it."""
    elements = desc.elements

    def table(rows):
        return tuple(tuple(rows[i][j] for j in order) for i in order)

    return desc._replace(
        elements=tuple(elements[i] for i in order),
        add_table=table(desc.add_table),
        mul_table=table(desc.mul_table),
    )


def outputs(monkeypatch, A):
    """The JSON report of ``A``; its ideals, radical ideals, primes and
    maximal ideals, each as a set of label sets; the opens of its spectrum,
    as a set of sets of those of the primes; for each radical-frame
    universality target, the subadditive morphisms into it, each as a set
    of (label, value) pairs; and the quantale homomorphisms out of its
    ideal quantale into each ideal-quantale universality target, and out of
    its radical frame into each radical-frame one, each hom as a set of
    (member label set, value) pairs."""
    analyses = []

    def keep(owner):
        analyses.append(Analysis(owner))
        return analyses[-1]

    monkeypatch.setattr(osr.report, "Analysis", keep)
    report = run_checks(A).to_json()
    (an,) = analyses

    def label_set(I):
        return frozenset(A.labels[x] for x in I.members)

    def label_sets(ideals):
        return set(map(label_set, ideals))

    points = [label_set(P) for P in an.primes]  # the spectrum's, in order
    opens = {
        frozenset(p for i, p in enumerate(points) if u >> i & 1)
        for u in an.spectrum.opens
    }
    morphisms = [
        {
            frozenset(zip(A.labels, f.values))
            for f in osr.enumerate_subadditive(A, F.semiring)
        }
        for F in osr.report.frame_targets()
    ]

    def homs(L, targets):
        sets = [label_set(I) for I in L.ideals]
        return [
            {
                frozenset(zip(sets, map(Q.labels.__getitem__, g)))
                for g in osr.enumerate_quantale_homs(L.lattice, Q)
            }
            for Q in targets
        ]

    return (
        report,
        label_sets(an.ideals.ideals),
        label_sets(an.radicals.ideals),
        label_sets(an.primes),
        label_sets(an.maximal),
        opens,
        morphisms,
        homs(an.ideals, osr.report.quantale_targets()),
        homs(an.radicals, osr.report.frame_targets()),
    )


def test_the_relabelling_helper_permutes_the_tables():
    desc = osr.from_builder_spec("zmod:3").describe()
    moved = relabelled(desc, (2, 0, 1))
    assert moved.elements == ("2", "0", "1")
    assert moved.add_table[0] == ("1", "2", "0")  # 2 + 2, 2 + 0, 2 + 1
    assert moved.mul_table[1] == ("0", "0", "0")  # 0 * anything


@pytest.mark.parametrize("specs", ["family6", "zmod:12,chain:12", "chain:24"])
def test_relabelled_instances_give_the_same_outputs(monkeypatch, family6, specs):
    if specs == "family6":
        instances = family6
    else:
        instances = [osr.from_builder_spec(s) for s in specs.split(",")]
    rng = random.Random(SEED)
    for A in instances:
        want = outputs(monkeypatch, A)
        desc = A.describe()
        for _ in range(3):
            order = list(range(A.n))
            rng.shuffle(order)
            assert outputs(monkeypatch, osr.validate(relabelled(desc, order))) == want
