"""The benchmark's own arithmetic: self time, the tail rule, failure counting."""

import random

import pytest

import stats
from run import Phase, Sample, attempt, run_passes
from workloads import WORKLOADS, Op, library_ops


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert stats.self_times(starts, ends, parents) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_them():
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [-1, 0, 0, 0]
    # children cover [1,7] and [9,10] of the root
    assert stats.self_times(starts, ends, parents)[0] == pytest.approx(3.0)


def test_tail_is_the_eleventh_largest_of_distinct_samples():
    t = stats.tail([float(x) for x in range(1, 31)])
    assert (t.value, t.samples, t.above) == (20.0, 30, 10)
    assert t.percentile == pytest.approx(100 * 20 / 30)


def test_tail_at_the_smallest_sample_count_that_has_one():
    t = stats.tail([float(x) for x in range(11)])
    assert (t.value, t.above) == (0.0, 10)
    with pytest.raises(ValueError):
        stats.tail([float(x) for x in range(10)])


def test_tail_moves_down_past_ties():
    t = stats.tail([1.0] * 5 + [5.0] * 20)
    assert (t.value, t.above, t.percentile) == (1.0, 20, 20.0)


@pytest.mark.parametrize("passes", range(WORKLOADS["check-ladder"].min_passes,
                                         WORKLOADS["check-ladder"].max_passes + 1))
def test_check_ladder_pass_counts_keep_the_tail_inside_one_cluster(passes):
    # two slow ops per pass (bool:3 ~3 s, zmod:8 ~2 s) and five fast ones;
    # every allowed pass count must put the tail among the zmod:8 samples,
    # away from both neighbouring clusters
    rng = random.Random(passes)
    pass_ms = [3000, 2000, 250, 100, 90, 80, 20]
    samples = [ms * rng.uniform(0.9, 1.1) for _ in range(passes) for ms in pass_ms]
    slow = sorted(samples, reverse=True)
    t = stats.tail(samples)
    rank_in_cluster = slow.index(t.value) - passes  # 0 = slowest zmod:8
    assert 1 <= rank_in_cluster <= passes - 2


def test_throughput_and_p50_are_medians_over_passes():
    # three passes of two ops; the middle pass has one failure
    latencies = [0.1, 0.3, 0.2, 0.4, 0.1, 0.5]
    errors = [None, None, None, "failed", None, None]
    phase = Phase([Sample("op", 2 * t, t, e) for t, e in zip(latencies, errors)], 3)
    # per pass: 2/0.4, 1/0.6, 2/0.6 ops per second of op time; medians 0.2, 0.3, 0.3 s
    assert phase.ops_per_s() == pytest.approx(2 / 0.6)
    assert phase.op_p50() == pytest.approx(0.3)
    assert phase.ops_per_s("raw") == pytest.approx(1 / 0.6)
    assert phase.op_p50("raw") == pytest.approx(0.6)


def test_failed_ratio_counts_a_refusal_and_a_digest_mismatch():
    from osr.errors import SizeLimit

    def refused():
        raise SizeLimit("9^9 candidate maps exceed the enumeration guardrail")

    ops = [
        Op("refused", refused),
        Op("wrong", lambda: b"not what was recorded"),
        Op("right", lambda: b"ok"),
    ]
    expected = {
        "wrong": "0" * 64,
        "right": "2689367b205c16ce32ed4200942b8b8b1e262dfc70d9bc9fbc77c49699a4f1df",
    }
    phase = run_passes(ops, expected, random.Random(0), 0.0, 2, 2)
    failed = len(phase.samples) - phase.ok
    assert (len(phase.samples), failed) == (6, 4)
    assert stats.failed_ratio(failed, len(phase.samples)) == pytest.approx(2 / 3)
    errors = {s.op: s.error for s in phase.samples}
    assert errors["refused"].startswith("SizeLimit")
    assert errors["wrong"] == "output differs from the recorded digest"
    assert errors["right"] is None
    with pytest.raises(ValueError):
        stats.failed_ratio(0, 0)


def test_a_corrupted_expected_digest_is_caught():
    import json

    from run import EXPECTED

    recorded = json.loads(EXPECTED.read_text())["check-ladder"]
    ops = {op.id: op for op in library_ops("check-ladder")}
    zmod6 = ops["run_checks zmod:6"]
    assert attempt(zmod6, recorded)[1] is None
    digest = recorded[zmod6.id]
    corrupted = dict(recorded, **{zmod6.id: ("0" if digest[0] != "0" else "1") + digest[1:]})
    assert attempt(zmod6, corrupted)[1] == "output differs from the recorded digest"
    # the golden file is checked on its own, whatever the digest says
    off_golden = Op(zmod6.id, zmod6.call, golden=b"{}\n")
    assert attempt(off_golden, recorded)[1] == "output differs from the golden file"


def test_scale_uses_the_median_of_the_bursts_around_an_op():
    import reference

    n = reference.NOMINAL_S
    # one loop slowed by an interrupt does not move the median
    assert reference.scale([n, n, n], [n, 9 * n, n]) == pytest.approx(1.0)
    assert reference.scale([n, 9 * n, n], [2 * n, 2 * n, 2 * n]) == pytest.approx(0.5)
