"""Span recording from outside the library: wrapping, leaf counting, coverage."""

import importlib
import sys

import pytest

import tracing


@pytest.fixture
def traced():
    importlib.import_module("osr.cli")
    rec = tracing.Recorder()
    patched = tracing.install(rec)
    yield rec
    tracing.uninstall(patched)


def test_wrappers_reach_names_imported_by_name(traced):
    ideals = sys.modules["osr.ideals"]
    assert sys.modules["osr.report"].enumerate_ideals is ideals.enumerate_ideals
    assert sys.modules["osr.cli"].enumerate_ideals is ideals.enumerate_ideals
    assert sys.modules["osr"].enumerate_ideals is ideals.enumerate_ideals
    assert ideals.enumerate_ideals.__wrapped__ is not ideals.enumerate_ideals


def test_uninstall_restores_the_originals():
    rec = tracing.Recorder()
    before = sys.modules["osr.report"].run_checks
    patched = tracing.install(rec)
    assert sys.modules["osr.report"].run_checks is not before
    tracing.uninstall(patched)
    assert sys.modules["osr.report"].run_checks is before


def test_classify_counts_search_leaves_only(traced):
    osr = sys.modules["osr"]
    A, two = osr.build_zmod(3), osr.two()
    osr.classify(A, two, [0, 1, 1])  # outside any search: no span
    found = osr.enumerate_subadditive(A, two)
    totals = tracing.span_totals(traced)
    assert totals["morphisms.search"]["calls"] == 1
    leaves = totals["morphisms.classify"]["calls"]
    assert leaves >= len(found) > 0
    assert traced.found["morphisms.search"] == len(found)
    metrics = tracing.layer_metrics(totals, traced.found, 1, dict.fromkeys(tracing.MEASURED, 0.0))
    assert metrics["morphisms.yield"] == pytest.approx(len(found) / leaves)
    assert metrics["homs.yield"] == 0.0


def test_unfired_names_the_metrics_whose_span_never_ran(traced):
    sys.modules["osr"].enumerate_ideals(sys.modules["osr"].build_zmod(4))
    totals = tracing.span_totals(traced)
    asked = ["ideals.enumerate_ideals.calls", "dot.emit_dot.self_s", "homs.yield", "cli.startup_s"]
    assert tracing.unfired(totals, asked) == ["dot.emit_dot.self_s", "homs.yield"]


def test_merge_renumbers_names_and_parents():
    a, b = tracing.Recorder(), tracing.Recorder()
    outer = b.wrap("outer", lambda f: f())
    inner = b.wrap("inner", lambda: None)
    a.wrap("other", lambda: None)()
    outer(inner)
    a.merge(b.dump())
    assert [a.names[k] for k in a.name] == ["other", "outer", "inner"]
    assert list(a.parent) == [-1, -1, 1]
