"""The forward-checking search engine: raw-search guard, node budget, leaf
cross-check, and the carrier sizes it makes reachable."""

import dataclasses

import pytest

import osr
import osr.homs
import osr.morphisms
import osr.search
from osr.cli import main
from osr.errors import InternalMismatch, SizeLimit
from osr.report import run_checks

from .oracle import sub_submul_maps_bruteforce, subadditive_maps_bruteforce

ORACLE_FAMILY_SIZE = 6  # raw search is |B|^|A|; 6^6 per source at the top


def oracle_targets():
    return [
        osr.two(),
        osr.build_chain_lattice(3),
        osr.build_from_quantale(osr.diamond_frame()),
        osr.build_from_quantale(osr.downset_frame(3, [(0, 1)], name="grid2x3")),
    ]


def test_both_enumerators_match_raw_search_over_the_family():
    targets = oracle_targets()
    for A in osr.builtin_family(ORACLE_FAMILY_SIZE):
        for B in targets:
            got = [t.values for t in osr.enumerate_subadditive(A, B)]
            assert got == subadditive_maps_bruteforce(A, B), (A.name, B.name)
            got = [t.values for t in osr.enumerate_sub_submul(A, B)]
            assert got == sub_submul_maps_bruteforce(A, B), (A.name, B.name)


def test_node_budget_refusal_names_layer_budget_and_nodes(monkeypatch):
    monkeypatch.setattr(osr.search, "NODE_BUDGET", 5)
    A, B = osr.build_chain_lattice(6), osr.build_chain_lattice(3)
    with pytest.raises(SizeLimit) as exc:
        osr.enumerate_subadditive(A, B)
    assert str(exc.value) == (
        "morphism search chain6 -> chain3: node budget of 5 exhausted "
        "(6 nodes visited)"
    )
    with pytest.raises(SizeLimit) as exc:
        osr.enumerate_quantale_homs(osr.chain_frame(6), osr.diamond_frame())
    assert str(exc.value) == (
        "hom search chain6 -> diamond: node budget of 5 exhausted "
        "(6 nodes visited)"
    )


def test_morphism_leaf_failing_classification_raises(monkeypatch):
    real = osr.morphisms.classify

    def broken(A, B, values):
        return dataclasses.replace(real(A, B, values), multiplicative=False)

    monkeypatch.setattr(osr.morphisms, "classify", broken)
    with pytest.raises(InternalMismatch, match=r"map \[0, 1, 0, 1, 0, 1\]"):
        osr.enumerate_subadditive(osr.build_zmod(6), osr.two())


def test_hom_leaf_failing_exhaustive_check_raises(monkeypatch):
    monkeypatch.setattr(osr.homs, "is_quantale_hom", lambda L, Q, values: False)
    with pytest.raises(InternalMismatch, match=r"\[0, 0, 1\] from chain3 to chain2"):
        osr.enumerate_quantale_homs(osr.chain_frame(3), osr.chain_frame(2))


@pytest.mark.parametrize("spec", ["chain:12", "zmod:12"])
def test_run_checks_passes_above_nine_elements(spec):
    # chain:12 was refused by the old raw-space guard (6^11 assignments)
    assert run_checks(osr.from_builder_spec(spec)).all_passed


def test_primes_at_the_carrier_cap(capsys):
    assert main(["primes", "--builder", "zmod:24", "--json"]) == 0
    assert '"count": 2' in capsys.readouterr().out
