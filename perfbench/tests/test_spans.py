"""Span arithmetic and span installation."""

import json
import subprocess
import sys

import pytest

import run
import spans


def _span(name, parent, start, end):
    return [name, parent, start, end]


def test_self_time_is_duration_minus_union_of_children():
    tree = [
        _span("cli.run", -1, 0.0, 10.0),
        _span("reps.group_average", 0, 1.0, 4.0),
        _span("perspective.physical_space", 0, 3.0, 6.0),  # overlaps its sibling
        _span("linalg.orthonormal_range", 0, 9.0, 11.0),  # outlives its parent's end
        _span("reps.tensor", 0, -0.5, 0.5),  # starts before its parent
        _span("linalg.joint_fixed_subspace", 1, 2.0, 3.0),
    ]
    own = spans.self_times(tree)
    # union of the children clipped to [0, 10]: [0, 0.5] + [1, 6] + [9, 10] = 6.5
    assert own[0] == pytest.approx(10.0 - 6.5)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2:] == pytest.approx([3.0, 2.0, 1.0, 1.0])


def test_layer_self_times_fit_in_the_traced_wall_time():
    nested = [
        _span("cli.run", -1, 0.0, 10.0),
        _span("perspective.relational_observable", 0, 1.0, 5.0),
        _span("reps.group_average", 1, 1.5, 4.0),
        _span("perspective.strong_dirac_defect", 1, 4.0, 4.5),
        _span("framechange.frame_change", 0, 6.0, 9.0),
        _span("perspective.system_projector", 4, 6.5, 8.0),
        _span("perspective.physical_space", 5, 7.0, 7.25),
        _span("reps.group_average", 0, 9.0, 9.5),
    ]
    wall = 12.0  # the child process runs a little longer than its outermost span
    out = spans.summarize([{"spans": nested, "counters": {}}])
    layer_totals = {layer: out[f"{layer}.self_s"] for layer in spans.LAYERS}
    assert all(0.0 <= t <= wall for t in layer_totals.values())
    # sequential calls: every instant of the outermost span is attributed exactly once
    assert sum(layer_totals.values()) == pytest.approx(10.0)
    assert out["reps.group_average.calls"] == 2
    assert out["reps.group_average.self_s"] == pytest.approx(3.0)
    assert out["perspective.self_s"] == pytest.approx(1.0 + 0.5 + 1.25 + 0.25)


def test_install_rebinds_module_aliases(tmp_path):
    """perspective imports group_average by name; its calls must still get spans."""
    trace = tmp_path / "trace.json"
    argv = [sys.executable, str(run.HERE / "child.py"), "query", "finite-regular:Z3",
            "--seed", "5", "--count", "40", "--trace", str(trace)]
    subprocess.run(argv, check=True, env=run.child_env(), cwd=run.ROOT, stdout=subprocess.DEVNULL, timeout=120)
    recorded = json.loads(trace.read_text())["spans"]
    names = [s[0] for s in recorded]
    nested = {(names[p], name) for name, p, _, _ in recorded if p >= 0}
    assert ("perspective.relational_observable", "reps.group_average") in nested
    assert ("cli.build_scenario", "perspective.make_scenario") in nested
    out = spans.summarize([json.loads(trace.read_text())])
    assert out["perspective.physical_space.distinct_calls"] == 1
    assert out["perspective.physical_space.calls"] > 1
    # 27-dim kinematical space, |G| = 3: 2 * 3 * 8 * 27**3 flops per finite twirl
    twirls = sum(1 for s in recorded if s[0] == "reps.group_average")
    assert out["reps.group_average.flop_computed"] == twirls * 2 * 3 * 8 * 27**3
