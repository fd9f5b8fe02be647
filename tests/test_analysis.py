"""The per-instance analysis: each structure, closure and universality pair
built once, nothing derived from an instance kept past its analysis, and a
structure that fails to build turns into failed verdicts instead of an
aborted report."""

import gc
import hashlib
import json
import sys
import weakref
from collections import Counter
from pathlib import Path

import osr
import osr.homs
import osr.ideals
import osr.morphisms
import osr.radicals
import osr.spectrum
from osr.analysis import Analysis
from osr.builders import from_builder_spec
from osr.cli import main
from osr.ideals import (
    _close,
    _column,
    _products,
    check_product_of_generators,
    generated_ideal,
    ideal_product,
)
from osr.morphisms import MorphismTable
from osr.radicals import small_distributive_lattices
from osr.report import (
    CHECK_NAMES,
    SAMPLES,
    Verdict,
    _samples,
    frame_targets,
    quantale_targets,
    run_checks,
)

CONSTRUCTORS = (
    ("osr.ideals", "enumerate_ideals"),
    ("osr.radicals", "enumerate_radical_ideals"),
    ("osr.spectrum", "enumerate_primes"),
    ("osr.spectrum", "enumerate_maximal"),
    ("osr.spectrum", "spectrum_space"),
    ("osr.radicals", "distributive_reflection"),
)

PRIME_DEPENDENT = {
    "maximal-implies-prime",
    "degeneracy-equivalence",
    "pt-rad-homeo",
    "rad-opens-iso",
    "sobriety",
}


def test_run_checks_builds_each_structure_once(monkeypatch):
    A = osr.build_zmod(6)
    calls = Counter()
    for module, name in CONSTRUCTORS:
        original = getattr(sys.modules[module], name)

        def counted(src, *args, _name=name, _original=original, **kwargs):
            if getattr(src, "owner", src) is A:
                calls[_name] += 1
            return _original(src, *args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.startswith("osr")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    assert run_checks(A).all_passed
    assert calls == {name: 1 for _, name in CONSTRUCTORS}


def test_structure_failure_becomes_failed_verdicts(monkeypatch, capsys):
    # no map into two() is a subadditive morphism: the prime cross-check
    # fails on zmod:6
    monkeypatch.setattr(
        MorphismTable, "is_subadditive_morphism", property(lambda t: False)
    )

    report = run_checks(osr.build_zmod(6))
    assert tuple(v.check for v in report.verdicts) == CHECK_NAMES
    failed = {v.check: v.witness for v in report.verdicts if not v.passed}
    assert set(failed) == PRIME_DEPENDENT
    assert all("disagree" in witness for witness in failed.values())
    assert report.counts["primes"] is None
    assert report.counts["maximal_ideals"] == 2

    code = main(["check", "--builder", "zmod:6", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["check"] for v in payload["verdicts"]] == list(CHECK_NAMES)
    assert payload["counts"]["primes"] is None


def _drop_top_bit(out: int) -> int:
    return out & ~(1 << (out.bit_length() - 1)) if out else out


def _break_products(monkeypatch):
    """Products of subsets lose their top element, both the pair products
    and the product columns of the ideal table."""
    monkeypatch.setattr(
        osr.ideals, "_products", lambda A, s, t: _drop_top_bit(_products(A, s, t))
    )
    monkeypatch.setattr(
        osr.ideals, "_column", lambda A, t: list(map(_drop_top_bit, _column(A, t)))
    )


def test_broken_ideal_quantale_becomes_failed_verdicts(monkeypatch, capsys):
    # ideal products lose an element: the ideal tables are no quantale
    _break_products(monkeypatch)

    report = run_checks(osr.build_zmod(6))
    assert tuple(v.check for v in report.verdicts) == CHECK_NAMES
    failed = {v.check: v.witness for v in report.verdicts if not v.passed}
    assert set(failed) == set(CHECK_NAMES) - {"generated-ideal-oracle"}
    assert failed["idl-quantale-axioms"].startswith("ideals(zmod6): ")
    assert report.counts["ideals"] is None

    code = main(["check", "--builder", "zmod:6", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["check"] for v in payload["verdicts"]] == list(CHECK_NAMES)


def test_target_stock_is_not_built_by_the_code_under_test(monkeypatch):
    # a fresh stock, built while ideal products are broken
    quantale_targets.cache_clear()
    _break_products(monkeypatch)
    try:
        verdicts = {v.check: v for v in run_checks(osr.build_zmod(6)).verdicts}
    finally:
        quantale_targets.cache_clear()
    witness = verdicts["idl-universality"].witness
    assert witness.startswith("ideals(zmod6): ") and "zmod4" not in witness


def test_broken_spectrum_opens_become_a_failed_verdict(monkeypatch):
    spectrum_space = osr.spectrum.spectrum_space

    def without_empty_open(A):
        X = spectrum_space(A)
        return X._replace(opens=X.opens - {0})

    monkeypatch.setattr(osr.spectrum, "spectrum_space", without_empty_open)
    report = run_checks(osr.build_zmod(6))
    assert tuple(v.check for v in report.verdicts) == CHECK_NAMES
    failed = {v.check: v.witness for v in report.verdicts if not v.passed}
    # the point space keeps its empty open, which has no image
    assert set(failed) == {"rad-opens-iso", "pt-rad-homeo"}
    assert failed["rad-opens-iso"] == (
        "opens(spectrum(zmod6)): {} is not in the family"
    )


def test_downset_outside_the_reflection_ideals_is_a_failed_verdict(monkeypatch):
    enumerate_ideals = osr.radicals.enumerate_ideals

    def one_ideal_fewer(B):
        masks = [I.mask for I in enumerate_ideals(B).ideals]
        del masks[1]
        return osr.ideals.ideal_lattice(B, "ideals", masks, lambda m: _close(B, m))

    # an atom's downset in the reflection is no longer among its ideals
    monkeypatch.setattr(osr.radicals, "enumerate_ideals", one_ideal_fewer)
    report = run_checks(osr.build_zmod(6))
    failed = {v.check: v.witness for v in report.verdicts if not v.passed}
    assert set(failed) == {"coherence-iso"}
    assert failed["coherence-iso"].startswith("zmod6: downset map: ")


def _counting(monkeypatch, module, name):
    """Count the calls to ``module.name`` made through the module."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_universality_pair_is_checked_once(monkeypatch):
    calls = _counting(monkeypatch, osr.homs, "check_universal_property")
    assert run_checks(osr.build_zmod(6)).all_passed
    # 3 quantale targets, 3 frame targets, and the reflection's chain1 and
    # grid2x3; its chain2, chain3 and diamond are rad-universality's
    pairs = [(L.kind, target.name) for L, _, target, _ in calls]
    assert len(pairs) == len(set(pairs)) == 8


def test_each_target_semiring_is_searched_once(monkeypatch):
    calls = []
    for name in ("enumerate_subadditive", "enumerate_sub_submul"):
        original = getattr(osr.morphisms, name)

        def counted(A, B, *args, _name=name, _original=original):
            calls.append((_name, A.name, B, *args))
            return _original(A, B, *args)

        for mod in [m for key, m in sys.modules.items() if key.startswith("osr")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    assert run_checks(osr.build_zmod(6)).all_passed
    # the coherence check also analyses the reflection's own semiring
    calls = [call for call in calls if call[1] == "zmod6"]
    assert len(calls) == len(set(calls))
    # 6 distinct universality targets, chain2 and chain3 shared by both
    # adjunctions and the reflection, and one search into two() that checks
    # both the ideals and the primes
    searches = Counter(name for name, *_ in calls)
    assert searches == {"enumerate_subadditive": 6, "enumerate_sub_submul": 1}
    assert ("enumerate_sub_submul", "zmod6", osr.two()) in calls
    assert osr.two() is osr.two()


def test_building_ideals_and_radicals_closes_each_mask_once(monkeypatch):
    """The generator frontier, the ideal product table, both lattices' join
    checks and the radical closure all read the analysis's closures."""
    closes = _counting(monkeypatch, osr.ideals, "_close")
    an = Analysis(osr.build_chain_lattice(24))
    assert len(an.radicals) <= len(an.ideals)
    masks = Counter(mask for _, mask in closes)
    assert set(masks.values()) == {1}
    assert set(masks) == set(an._closures)


def test_radical_arrow_reads_the_principal_ideals(monkeypatch):
    an = Analysis(osr.build_zmod(12))
    principal = an.principal
    calls = _counting(monkeypatch, osr.ideals, "principal_ideal")
    radical = an.radical_principal
    assert calls == []
    assert len(principal) == len(radical) == an.owner.n


def test_principal_ideals_are_read_from_the_closures_of_the_ideals(monkeypatch):
    an = Analysis(osr.build_zmod(12))
    ideals = an.ideals
    closes = _counting(monkeypatch, osr.ideals, "_close")
    principal = an.principal
    osr.check_degeneracy_equivalence(an)
    assert closes == []
    assert [ideals.ideals[i].mask for i in principal] == list(an.owner.multiples)


def test_second_run_recomputes_everything(monkeypatch):
    A = osr.build_zmod(6)
    closes = _counting(monkeypatch, osr.ideals, "_close")
    homs = _counting(monkeypatch, osr.homs, "enumerate_quantale_homs")
    counts = []
    for _ in range(2):
        before = len(closes), len(homs)
        assert run_checks(A).all_passed
        counts.append((len(closes) - before[0], len(homs) - before[1]))
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0


def test_instance_structures_die_with_their_analysis():
    an = Analysis(osr.build_zmod(6))
    check_product_of_generators(an, [(0b10, 0b100)])
    for Q in quantale_targets():
        osr.check_quantale_universality(an, Q)
    osr.check_coherence(an)
    refs = [weakref.ref(x) for x in (an, an.ideals.lattice, an.radicals.lattice)]
    refs.append(weakref.ref(an.radicals.lattice.semiring))
    del an
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_target_stock_is_built_once_and_matches_a_fresh_build():
    for stock in (quantale_targets, frame_targets, small_distributive_lattices):
        first = stock()
        assert isinstance(first, tuple)
        assert stock() is first
        assert first == stock.__wrapped__()
        for L in first:
            assert_semiring_view(L)


def assert_semiring_view(L):
    # L.semiring shares L's tables and is not validated, on the lemma that
    # the quantale laws lattice_from_order checked give the semiring laws;
    # validate re-checks that lemma here
    S = L.semiring
    assert S is L.semiring and S.add is L.join and S.mul is L.mul
    assert (S.name, S.zero, S.one) == (f"osr({L.name})", L.bottom, L.unit)
    assert S == osr.build_from_quantale(L) == osr.validate(S.describe())


def test_the_semiring_of_every_ideal_lattice_is_a_view_that_validates(family6):
    for A in family6:
        an = Analysis(A)
        assert_semiring_view(an.ideals.lattice)
        assert_semiring_view(an.radicals.lattice)


def test_memoized_product_check_matches_direct_closures(monkeypatch):
    closes = _counting(monkeypatch, osr.ideals, "_close")
    for A in osr.builtin_family(4):
        pairs = [(s, t) for s in range(1 << A.n) for t in range(1 << A.n)]
        an = Analysis(A)
        before = len(closes)
        memoized = check_product_of_generators(an, pairs)
        # the memo is filled by _close alone, once per distinct mask
        assert len(closes) - before == len(an._closures)
        assert an._closures == {m: _close(A, m) for m in an._closures}
        for (s, t), got in zip(pairs, memoized):
            direct = ideal_product(
                A, generated_ideal(A, s), generated_ideal(A, t)
            ).mask == generated_ideal(A, _products(A, s, t)).mask
            assert [got] == check_product_of_generators(A, [(s, t)]) == [direct]


def test_product_memo_does_not_hide_a_fault(monkeypatch):
    A = osr.build_zmod(4)

    def drop_one_bit(A, s, t):
        out = _products(A, s, t)
        # only generator pairs: ideal products, and with them the ideal
        # quantale, keep their values
        if s.bit_count() == t.bit_count() == 1:
            out &= ~(1 << (out.bit_length() - 1))
        return out

    monkeypatch.setattr(osr.ideals, "_products", drop_one_bit)

    def fails(s, t):
        lhs = drop_one_bit(A, _close(A, s), _close(A, t))
        return _close(A, lhs) != _close(A, drop_one_bit(A, s, t))

    s, t = next(p for p in _samples(A.n, SAMPLES, 2) if fails(*p))
    failed = {v.check: v.witness for v in run_checks(A).verdicts if not v.passed}
    assert failed == {
        "product-of-generators": f"{A.name}: <S><T> != <ST> at "
        f"S={A.set_label(s)}, T={A.set_label(t)}"
    }


def test_sampled_verdicts_close_each_mask_once(monkeypatch):
    """The oracle and product verdicts close each distinct mask once, none
    that building the structures closed already, and multiply each
    distinct pair of ideals once."""
    A = osr.build_zmod(8)
    events = []
    analyses, built = [], set()

    def keep(owner):
        analyses.append(Analysis(owner))
        return analyses[-1]

    monkeypatch.setattr(osr.report, "Analysis", keep)
    for name in ("_close", "_products"):

        def counted(*args, _name=name, _original=getattr(osr.ideals, name)):
            events.append((_name, args[1:]))
            return _original(*args)

        monkeypatch.setattr(osr.ideals, name, counted)

    def verdict(check, passed, witness=None):
        events.append(("verdict", check))
        if check == "idl-universality":
            built.update(analyses[0]._closures)
        return Verdict(check, passed, witness)

    monkeypatch.setattr(osr.report, "Verdict", verdict)
    assert run_checks(A).all_passed
    # the two sampled verdicts run right after idl-universality
    start = events.index(("verdict", "idl-universality"))
    end = events.index(("verdict", "product-of-generators"))
    window = events[start + 1 : end]
    closed = Counter(args[0] for name, args in window if name == "_close")
    # n = 8: the oracle's singles are the whole power set; those that the
    # ideal quantale or the radical frame closed are read from the analysis
    assert set(closed) | built >= {m for (m,) in _samples(A.n, SAMPLES, 1)}
    assert set(closed).isdisjoint(built)
    assert set(closed.values()) == {1}
    pairs = _samples(A.n, SAMPLES, 2)
    ideal_pairs = {(_close(A, s), _close(A, t)) for s, t in pairs}
    products = [args for name, args in window if name == "_products"]
    # <ST> once per sampled pair, <S>.<T> once per distinct pair of ideals
    assert len(products) == len(pairs) + len(ideal_pairs)
    assert len(ideal_pairs) < len(pairs)


def test_broken_multiples_fail_the_oracle_verdict():
    A = from_builder_spec("chain:4")
    broken = list(A.multiples)
    broken[3] &= ~(1 << 2)
    # a cached_property is read from the instance dict first
    A.__dict__["multiples"] = tuple(broken)
    report = run_checks(A)
    assert tuple(v.check for v in report.verdicts) == CHECK_NAMES
    failed = {v.check: v.witness for v in report.verdicts if not v.passed}
    assert failed["generated-ideal-oracle"] == (
        "chain4: closure and sum formula disagree on {3}"
    )


LADDER = ("zmod:6", "zmod:8", "bool:3", "chain:9", "truncnat:8", "maxplus:7", "dualq:4")
DIGESTS = Path(__file__).parent / "golden" / "run_checks_digests.json"


def test_run_checks_output_matches_recorded_digests():
    instances = {}
    for A in osr.builtin_family(7) + [from_builder_spec(s) for s in LADDER]:
        instances.setdefault(A.name, A)
    got = {
        name: hashlib.sha256(run_checks(A).to_json().encode()).hexdigest()
        for name, A in instances.items()
    }
    expected = json.loads(DIGESTS.read_text())
    assert sorted(got) == sorted(expected)
    assert [name for name in got if got[name] != expected[name]] == []
