"""scripts/query_replay.py's aggregation on canned child outputs; no child process is started."""

import importlib.util
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "query_replay.py"


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("query_replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child(queries):
    return {"queries": [list(q) for q in queries], "env": {"python": "3"}}


def test_summary_pools_the_children_of_one_side_as_the_benchmark_does(replay):
    first = _child([("reduce", 0.001, True), ("frame_change", 0.004, True), ("reduce", 0.003, True)])
    second = _child([("frame_change", 0.002, True), ("frame_change", 0.006, False), ("reduce", 0.002, True)])
    summary = replay.summarize([first, second])
    pooled = [0.001, 0.004, 0.003, 0.002, 0.006, 0.002]
    assert summary["count"] == 6 and summary["failed"] == 1
    assert summary["query_p50_ms"] == pytest.approx(1e3 * statistics.median(pooled))
    assert summary["query_p90_ms"] == pytest.approx(1e3 * statistics.quantiles(pooled, n=10)[8])
    assert summary["queries_per_s"] == pytest.approx(6 / sum(pooled))
    assert list(summary["kinds"]) == ["frame_change", "reduce"]
    assert summary["kinds"]["frame_change"] == pytest.approx((4.0, 1e3 * statistics.quantiles([0.004, 0.002, 0.006],
                                                                                              n=4)[2]))
    assert summary["kinds"]["reduce"][0] == pytest.approx(2.0)


def test_a_kind_with_one_query_is_its_own_quartile(replay):
    summary = replay.summarize([_child([("rel_obs", 0.005, True)])])
    assert summary["kinds"] == {"rel_obs": pytest.approx((5.0, 5.0))}
    assert summary["query_p90_ms"] is None
    assert any("p90 n/a" in line for line in replay.format_summary("OLD", summary))


def test_ratios_are_new_over_old_per_kind_and_pooled(replay):
    old = replay.summarize([_child([("frame_change", 0.004, True), ("reduce", 0.002, True)])])
    new = replay.summarize([_child([("frame_change", 0.002, True), ("reduce", 0.002, True)])])
    lines = replay.format_ratios(old, new)
    assert lines[0] == "NEW/OLD:"
    assert "frame_change" in lines[1] and "median  0.500" in lines[1] and "upper quartile  0.500" in lines[1]
    assert "reduce" in lines[2] and "median  1.000" in lines[2]
    assert "query_p50_ms  0.667" in lines[3] and "queries_per_s  1.500" in lines[3]
    text = "\n".join(replay.format_summary("NEW", new))
    assert "frame_change" in text and "median   2.0000 ms" in text and "queries/s 500" in text


def test_summary_gives_each_kind_its_share_and_names_the_kind_at_the_pooled_p90(replay):
    # probability is a fifth of the queries but over half the time, and the pooled p90 lies among its latencies
    queries = [(kind, 0.001, True) for kind in ("reduce", "rel_obs", "frame_change", "same_frame_change")] * 4
    queries += [("probability", t, True) for t in (0.004, 0.005, 0.006, 0.007)]
    summary = replay.summarize([_child(queries)])
    assert summary["shares"] == pytest.approx({"frame_change": 0.004 / 0.038, "probability": 0.022 / 0.038,
                                               "reduce": 0.004 / 0.038, "rel_obs": 0.004 / 0.038,
                                               "same_frame_change": 0.004 / 0.038})
    assert sum(summary["shares"].values()) == pytest.approx(1.0)
    assert summary["p90_kind"] == "probability"
    text = "\n".join(replay.format_summary("NEW", summary))
    assert "share  57.9%" in text and "p90 falls in probability" in text


def test_the_p90_kind_follows_the_slowest_tenth(replay):
    fast = [("probability", 0.001, True)] * 18
    slow = [("rel_obs", 0.009, True), ("rel_obs", 0.010, True)]
    assert replay.summarize([_child(fast + slow)])["p90_kind"] == "rel_obs"
    assert replay.summarize([_child(fast + slow[:1] + [("reduce", 0.001, True)])])["p90_kind"] == "probability"


def test_a_control_prints_its_ratios_to_old_beside_new_over_old(replay):
    old = replay.summarize([_child([("frame_change", 0.004, True), ("reduce", 0.002, True)])])
    new = replay.summarize([_child([("frame_change", 0.002, True), ("reduce", 0.002, True)])])
    control = replay.summarize([_child([("frame_change", 0.004, True), ("reduce", 0.001, True)])])
    lines = replay.format_ratios(old, new, control)
    assert lines[0] == "NEW/OLD  |  CONTROL/OLD:"
    assert lines[1].split("|")[0] == replay.format_ratios(old, new)[1] + "  "
    assert "frame_change" in lines[1] and lines[1].split("|")[1] == "  median  1.000  upper quartile  1.000"
    assert lines[2].split("|")[1] == "  median  0.500  upper quartile  0.500"
    new_pooled, control_pooled = lines[3].split("|")
    assert "query_p50_ms  0.667" in new_pooled and "queries_per_s  1.500" in new_pooled
    assert "query_p50_ms  0.833" in control_pooled and "queries_per_s  1.200" in control_pooled


def test_each_side_takes_each_position_once_per_cycle(replay):
    # two sides alternate which goes first, as before a control was added
    assert [replay.round_order(["OLD", "NEW"], r) for r in range(3)] == [["OLD", "NEW"], ["NEW", "OLD"], ["OLD", "NEW"]]
    cycle = [replay.round_order(["OLD", "NEW", "CONTROL"], r) for r in range(3)]
    assert cycle == [["OLD", "NEW", "CONTROL"], ["NEW", "CONTROL", "OLD"], ["CONTROL", "OLD", "NEW"]]
    assert all(sorted(column) == ["CONTROL", "NEW", "OLD"] for column in zip(*cycle))
