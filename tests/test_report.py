"""The two sampled verdicts: sample lists drawn once per process, the sum
oracle evaluated once per distinct product set while every sampled mask is
still closed and compared, and one timing per verdict."""

import hashlib
import json

import pytest

import osr.report
from osr.analysis import Analysis
from osr.builders import from_builder_spec
from osr.core import bits
from osr.ideals import _close
from osr.report import CHECK_NAMES, SAMPLES, Verdict, _samples, run_checks

# sha256 of json.dumps of the sample lists, as lists, recorded before they
# were cached: caching must not change a single sample
SAMPLE_DIGESTS = {
    (5, 1): "a7e8b75e8403771e9d2b040d8352d4d53bb6f82d6844d01796b53f415316ca63",
    (5, 2): "4c0f3276244358a35ec138b059b3ff0060cab67539dfadb2d8db3974ab12b814",
    (9, 1): "23ba1f7ffe1f76f45ee7256006e8073721fca9d5d11d37fb17628fe259257e38",
    (9, 2): "504b108f5757e8dd8deec205ccf372450c25817010942fd810156853c20eb85e",
    (12, 1): "726630ed9fa7ec6c89307b826a01ccd5ccc8ff0fc5072c443f027acf76a6c8e0",
    (12, 2): "de90cf3c8179295d61cbd2c2e0ec57de9e860c623d77b981d1f72d8c28f809ab",
    (24, 1): "1ce9fa13b19427b1c43fda39ce5e6567b0912f82ce8007759ece9b0f1753ec89",
    (24, 2): "696eeef2563201f5a9d25394efc0f64148765cd66c475328fd7a3fbab65419ca",
}

# zmod:8 sweeps every subset; chain:9 draws SAMPLES of them
ORACLE_INSTANCES = ("zmod:8", "chain:9")


def products_of(A, mask):
    return frozenset(A.mul[s][y] for s in bits(mask) for y in range(A.n))


def test_sample_lists_are_the_recorded_ones():
    for (n, k), digest in SAMPLE_DIGESTS.items():
        samples = _samples(n, SAMPLES, k)
        encoded = json.dumps([list(t) for t in samples]).encode()
        assert hashlib.sha256(encoded).hexdigest() == digest


def test_sample_lists_are_drawn_once_per_carrier_size():
    for n, k in SAMPLE_DIGESTS:
        samples = _samples(n, SAMPLES, k)
        assert type(samples) is tuple
        assert all(type(t) is tuple and len(t) == k for t in samples)
        # the lists depend on the carrier size only, not on the instance
        assert _samples(n, SAMPLES, k) is samples


def oracle_calls(monkeypatch, A):
    """The report, and the sum-formula calls and closure reads made during
    the generated-ideal-oracle verdict, in order."""
    events = []

    class Logged(Analysis):
        def close(self, mask):
            events.append(("close", mask))
            return super().close(mask)

    def sums(A, members, _original=osr.report.generated_ideal_by_sums):
        events.append(("sums", members))
        return _original(A, members)

    def verdict(check, passed, witness=None):
        events.append(("verdict", check))
        return Verdict(check, passed, witness)

    monkeypatch.setattr(osr.report, "Analysis", Logged)
    monkeypatch.setattr(osr.report, "generated_ideal_by_sums", sums)
    monkeypatch.setattr(osr.report, "Verdict", verdict)
    report = run_checks(A)
    # the oracle verdict runs right after idl-universality
    start = events.index(("verdict", "idl-universality"))
    end = events.index(("verdict", "generated-ideal-oracle"))
    return report, events[start + 1 : end]


@pytest.mark.parametrize("spec", ORACLE_INSTANCES)
def test_sum_oracle_runs_once_per_product_set(monkeypatch, spec):
    A = from_builder_spec(spec)
    masks = [m for (m,) in _samples(A.n, SAMPLES, 1)]
    first = {}
    for mask in masks:
        first.setdefault(products_of(A, mask), mask)
    assert len(first) < len(masks)
    report, window = oracle_calls(monkeypatch, A)
    assert report.all_passed
    # the formula runs on the first sampled mask of each product set, and
    # every sampled mask is closed and compared, repeats included
    assert [m for kind, m in window if kind == "sums"] == list(first.values())
    assert [m for kind, m in window if kind == "close"] == masks


@pytest.mark.parametrize("spec", ORACLE_INSTANCES)
def test_a_bad_closure_on_a_repeated_product_set_fails_the_oracle(
    monkeypatch, spec
):
    A = from_builder_spec(spec)
    masks = [m for (m,) in _samples(A.n, SAMPLES, 1)]
    # the last sampled mask whose product set an earlier, different mask had
    bad = next(
        m
        for i, m in reversed(list(enumerate(masks)))
        if any(
            e != m and products_of(A, e) == products_of(A, m) for e in masks[:i]
        )
    )

    def corrupt(B, mask):
        closed = _close(B, mask)
        return closed ^ (1 << B.n - 1) if B is A and mask == bad else closed

    monkeypatch.setattr(osr.ideals, "_close", corrupt)
    failed = {v.check: v.witness for v in run_checks(A).verdicts if not v.passed}
    assert failed["generated-ideal-oracle"] == (
        f"{A.name}: closure and sum formula disagree on {A.set_label(bad)}"
    )


def test_timings_hold_each_phase_then_each_verdict():
    report = run_checks(from_builder_spec("zmod:6"))
    assert tuple(report.timings) == ("ideals", "radicals", "spectrum", *CHECK_NAMES)
    assert all(t >= 0 for t in report.timings.values())
    assert json.loads(report.to_json())["timings"] == {}


def test_to_json_writes_what_json_dumps_with_an_indent_writes():
    def by_json(report):
        payload = {
            "name": report.name,
            "counts": report.counts,
            "verdicts": [
                {"check": v.check, "pass": v.passed}
                | ({"witness": v.witness} if v.witness is not None else {})
                for v in report.verdicts
            ],
            "timings": {},
        }
        return json.dumps(payload, indent=2) + "\n"

    reports = [run_checks(from_builder_spec(s)) for s in ("zmod:6", "bool:3")]
    odd = osr.report.CheckReport('a "b"\\ ≤', {"elements": 2, "ideals": None}, {})
    odd.verdicts += [Verdict("x", True), Verdict("y", False, 'at "a" ≤ b\n\tc')]
    reports += [odd, osr.report.CheckReport("empty", {}, {})]
    for report in reports:
        assert report.to_json() == by_json(report)


# each function run_checks calls through osr.report, and the verdict it owns
VERDICT_OF = {
    "check_quantale_universality": "idl-universality",
    "generated_ideal_by_sums": "generated-ideal-oracle",
    "check_product_of_generators": "product-of-generators",
    "check_radical_equals_semiprime": "radical-semiprime",
    "check_frame_universality": "rad-universality",
    "check_coherence": "coherence-iso",
    "check_maximal_implies_prime": "maximal-implies-prime",
    "check_degeneracy_equivalence": "degeneracy-equivalence",
    "check_prime_element_correspondence": "prime-element-correspondence",
    "check_spectrum_homeomorphism": "pt-rad-homeo",
    "check_radical_opens_iso": "rad-opens-iso",
    "check_sober": "sobriety",
}


@pytest.mark.parametrize("function", sorted(VERDICT_OF))
def test_each_verdict_calls_its_check_through_the_report_module(
    monkeypatch, function
):
    # tracers and fault tests rebind these names in osr.report; a verdict
    # that held the function itself would miss the rebinding
    from osr.errors import InternalMismatch

    def broken(*args, **kwargs):
        raise InternalMismatch(f"{function} deliberately broken")

    monkeypatch.setattr(osr.report, function, broken)
    failed = {
        v.check: v.witness
        for v in run_checks(from_builder_spec("zmod:6")).verdicts
        if not v.passed
    }
    assert failed == {VERDICT_OF[function]: f"{function} deliberately broken"}
