"""BENCHMARK.json declares exactly the metrics that run.py reports."""

import json

import run
from workloads import WORKLOADS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_per_layer_metrics_match():
    declared = [(m["name"], m["unit"]) for m in DECLARED["per_layer"]]
    assert declared == [(name, run.layer_unit(name)) for name in run.PER_LAYER]


def test_every_report_scenario_is_pinned():
    pinned = json.loads((run.HERE / "pinned.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS.values():
        for scenario in workload.reports:
            assert pinned[scenario.name]["checks_total"] > 0
