"""The per-instance analysis: each structure built once, and a structure
that fails to build turns into failed verdicts instead of an aborted report."""

import json
import sys
from collections import Counter

import osr
import osr.spectrum
from osr.cli import main
from osr.report import CHECK_NAMES, run_checks

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
    # no two-valued morphisms: the prime cross-check fails on zmod:6
    monkeypatch.setattr(osr.spectrum, "enumerate_subadditive", lambda A, B: [])

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
