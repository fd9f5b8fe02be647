"""BENCHMARK.json, plan.json, expected.json and the code agree."""

import json

from run import END_TO_END, EXPECTED, PLAN
from tracing import PER_LAYER
from workloads import ROOT, WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN_DATA = json.loads(PLAN.read_text())


def test_metric_lists_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_workloads_match_the_code_and_the_plan():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(WORKLOADS) == list(PLAN_DATA["workloads"])


def test_every_per_layer_metric_has_a_prediction():
    assert list(PLAN_DATA["per_layer"]) == [name for name, _, _ in PER_LAYER]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    for entry in PLAN_DATA["per_layer"].values():
        assert entry["moves"]
        for metric, workload in entry["moves"]:
            assert metric in e2e and workload in WORKLOADS


def test_every_op_has_a_recorded_digest():
    expected = json.loads(EXPECTED.read_text())
    for name, entry in PLAN_DATA["workloads"].items():
        assert sorted(entry["ops"]) == sorted(expected[name])
