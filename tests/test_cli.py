import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import u1_qubits_config
import qrf
from qrf import cli, framechange, perspective
from qrf.builtins_config import builtin_config, builtin_names
from qrf.cli import ConfigError, emit, load_config, parse_config, parse_tasks, run
from qrf.report import full_report


def small_config(**overrides):
    raw = {
        "name": "test-scenario",
        "group": {"builtin": "u1"},
        "subsystems": [
            {"name": "A", "rep": {"u1_charges": [1, -1]}},
            {"name": "B", "rep": {"u1_charges": [1, -1]}},
            {"name": "C", "rep": {"u1_charges": [2, 0, -2]}},
        ],
        "frames": [{"name": "A", "subsystem": "A", "seed": "uniform"}],
        "tasks": [{"task": "phys_space"}],
    }
    raw.update(overrides)
    return raw


def test_builtin_configs_parse():
    for name in builtin_names():
        cfg = load_config(name)
        assert cfg.name == name
        assert cfg.tasks


def test_builtin_u1_matches_worked_setup():
    cfg = load_config("u1-qubit-qubit-qutrit")
    charges = [sub["rep"].get("u1_charges") for sub in cfg.subsystems]
    assert charges == [[1, -1], [1, -1], [2, 0, -2]]


def test_builtin_su2_four_spin_setup():
    cfg = load_config("su2-four-spin1")
    assert [sub["rep"]["spin_j"] for sub in cfg.subsystems] == [1, 1, 1, 1]
    assert len(cfg.subsystems) == 4


def test_unknown_frame_subsystem_reports_name():
    raw = small_config(frames=[{"name": "X", "subsystem": "Nope", "seed": "uniform"}])
    with pytest.raises(ConfigError, match="Nope"):
        parse_config(json.dumps(raw))


def test_unknown_builtin_lists_options():
    with pytest.raises(ConfigError, match="u1-qubit-qubit-qutrit"):
        load_config("no-such-scenario")


def test_invalid_json_error():
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")


def test_non_utf8_config_file_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"group": "\xff"}')
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(str(cfg_path))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid UTF-8: ")


def _assert_config_error_from_both(raw, message, tmp_path, capsys):
    """``qrf check`` and ``qrf run`` both exit 2 with the one line ``config error: <message>``; run prints no report."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    for command in ("check", "run"):
        assert cli.main([command, str(cfg_path)]) == 2, command
        assert tuple(capsys.readouterr()) == ("", f"config error: {message}\n"), command


def test_bad_observable_dimension_rejected(tmp_path, capsys):
    raw = small_config(
        tasks=[{"task": "rel_obs", "frame": "A", "orientation": {"theta": 0.0},
                "observable": {"diag": [1, 0]}}]
    )
    cfg = parse_config(json.dumps(raw))
    with pytest.raises(ConfigError, match=r"^tasks\[0\]\.observable: observable is \(2, 2\), expected \(6, 6\)$"):
        parse_tasks(cfg, cli.build_scenario(cfg))
    _assert_config_error_from_both(raw, "tasks[0].observable: observable is (2, 2), expected (6, 6)", tmp_path, capsys)


def test_run_collects_task_errors_and_continues():
    # a frame without a right action is a library rejection: the task records it and the next task still runs
    raw = _builtin_with_tasks("su2-three-spin1", [
        {"task": "reorient", "frame": "A", "g": {"su2": [0.1, 0, 0]}, "observable": {"diag": [1, 0, -1] * 3}},
        {"task": "phys_space"},
    ])
    report = run(parse_config(json.dumps(raw)))
    assert "admits no right action" in report["tasks"][0]["error"]
    assert report["tasks"][1]["results"]["dim"] == 1
    assert report["summary"] == {"checks_total": 2, "checks_failed": 1}


def test_check_and_run_reject_each_task_parameter_mistake_before_any_task_runs(tmp_path, capsys):
    # two regular Z3 parties: the frame's complement is 3-dim and its orientations are the indices 0..2
    raw = {
        "group": {"builtin": "Z3"},
        "subsystems": [{"name": n, "rep": {"regular": True}} for n in ("R", "S")],
        "frames": [{"name": "R", "subsystem": "R", "seed": "identity_ket"}],
        "tasks": [
            {"task": "rel_obs", "frame": "R", "observable": {"diag": [1, 0]}},
            {"task": "reduce", "frame": "R", "orientation": {"index": 7}, "state": {"basis_index": 0}},
            {"task": "reorient", "frame": "R", "observable": {"diag": [1, 0, 0]}},
        ],
    }
    _assert_config_error_from_both(raw, "tasks[0].observable: observable is (2, 2), expected (3, 3)", tmp_path, capsys)
    raw["tasks"][0]["observable"] = {"diag": [1, 0, 0]}
    _assert_config_error_from_both(raw, "tasks[1].orientation: element index 7 outside the group", tmp_path, capsys)
    raw["tasks"][1]["orientation"] = {"index": 2}
    _assert_config_error_from_both(raw, "tasks[2].g: missing required parameter", tmp_path, capsys)
    raw["tasks"][2]["g"] = {"index": 1}
    code, text = _run_main(raw, tmp_path)
    assert code == 0 and json.loads(text)["summary"] == {"checks_total": 3, "checks_failed": 0}
    capsys.readouterr()


def test_a_task_key_the_task_does_not_read_is_config_error(tmp_path, capsys):
    tasks = [{"task": "rel_obs", "frame": "A", "orientaton": {"theta": 0.3}, "observable": {"diag": [1] * 6}}]
    message = "tasks[0].orientaton: unknown parameter of rel_obs (it reads: frame, orientation, observable)"
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(small_config(tasks=tasks)))
    assert str(exc.value) == message
    _assert_config_error_from_both(small_config(tasks=tasks), message, tmp_path, capsys)
    message = "tasks[1].frame: unknown parameter of phys_space (it reads: no parameters)"
    _assert_config_error_from_both(small_config(tasks=[{"task": "lr_classify", "frame": "A"},
                                                       {"task": "phys_space", "frame": "A"}]), message, tmp_path, capsys)


def test_full_reports_pass_for_builtin_scenarios():
    for name in ("u1-qubit-qubit-qutrit", "su2-three-spin1", "finite-regular:Z3"):
        report = run(load_config(name))
        assert report["summary"]["checks_failed"] == 0, name
        assert report["summary"]["checks_total"] > 0


PINNED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(set(PINNED) & set(builtin_names())))
def test_builtin_reports_keep_their_benchmark_pins(name):
    # the benchmark refuses a report whose shape differs from its pin; this fails first
    report = run(load_config(name))
    results, pin = report["tasks"][0]["results"], PINNED[name]
    assert report["summary"]["checks_total"] == pin["checks_total"]
    assert (results["kin_dim"], results["phys_dim"]) == (pin["kin_dim"], pin["phys_dim"])
    dims = ("reduced_space_dim", "conditional_span_dim")
    assert {f: {k: entry[k] for k in dims} for f, entry in results["frames"].items()} == pin["frames"]
    layer = results.get("symmetry_layer")
    shape = None if layer is None else {k: layer["subsystem_relativity"][k] for k in ("algebra_dims", "overlap_dim")}
    assert shape == pin["symmetry_layer"]


def test_empty_task_list_gives_header_only_report():
    report = run(parse_config(json.dumps(small_config(tasks=[]))))
    assert report["tasks"] == []
    assert report["summary"] == {"checks_total": 0, "checks_failed": 0}
    assert report["scenario"]["name"] == "test-scenario"


@pytest.mark.parametrize("key", ["frame", "from", "to", "frame1", "frame2"])
@pytest.mark.parametrize("command", ["check", "run"])
def test_unknown_task_frame_is_config_error(key, command, tmp_path, capsys):
    task = {"frame": {"task": "rel_obs"}, "from": {"task": "frame_change", "to": "A"},
            "to": {"task": "frame_change", "from": "A"}, "frame1": {"task": "subsystem_relativity", "frame2": "A"},
            "frame2": {"task": "subsystem_relativity", "frame1": "A"}}[key]
    raw = small_config(tasks=[{"task": "phys_space"}, {**task, key: "Q"}])
    with pytest.raises(ConfigError, match=r"tasks\[1\]: unknown frame 'Q' \(have: A\)"):
        parse_config(json.dumps(raw))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main([command, str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: tasks[1]: unknown frame 'Q' (have: A)\n"


def test_missing_task_parameter_is_config_error(tmp_path, capsys):
    message = "tasks[0].frame: missing required parameter"
    _assert_config_error_from_both(small_config(tasks=[{"task": "rel_obs"}]), message, tmp_path, capsys)
    message = "tasks[0].observable: missing required parameter"
    _assert_config_error_from_both(small_config(tasks=[{"task": "rel_obs", "frame": "A"}]), message, tmp_path, capsys)


def test_phys_space_task_results():
    report = run(parse_config(json.dumps(small_config())))
    task = report["tasks"][0]
    assert task["results"]["dim"] == 4
    assert task["results"]["kin_dim"] == 12
    assert all(c["pass"] for c in task["checks"])


def test_reduce_and_probability_tasks():
    raw = small_config(
        tasks=[
            {"task": "reduce", "frame": "A", "orientation": {"theta": 0.4},
             "state": {"basis_index": 0}},
            {"task": "probabilities", "frame": "A", "orientation": {"theta": 0.4},
             "projector": {"diag": [1, 0, 0, 0, 0, 0]}, "state": {"basis_index": 0}},
        ]
    )
    report = run(parse_config(json.dumps(raw)))
    assert all("error" not in t for t in report["tasks"])
    p = report["tasks"][1]["results"]["probability"]
    assert 0.0 <= p <= 1.0


def test_spin1_builtin_configs_match_their_literals():
    from oracles import SU2_FOUR, SU2_THREE

    assert builtin_config("su2-three-spin1") == SU2_THREE
    assert builtin_config("su2-four-spin1") == SU2_FOUR


def test_one_subsystem_lie_frame_has_a_trivial_complement(tmp_path, capsys):
    raw = small_config(
        subsystems=[{"name": "C", "rep": {"u1_charges": [2, 0, -2]}}],
        frames=[{"name": "C", "subsystem": "C", "seed": "uniform"}],
        tasks=[{"task": "full_report"}],
    )
    comp = cli.build_scenario(parse_config(json.dumps(raw))).complement_rep("C")
    assert comp.dim == 1 and not comp.generators.any()
    code, text = _run_main(raw, tmp_path)
    assert code == 0
    assert json.loads(text)["summary"] == {"checks_total": 5, "checks_failed": 0}
    capsys.readouterr()


def test_full_report_says_the_physical_space_is_empty(tmp_path, capsys):
    # charges 2 and 1 never sum to 0, so no kinematical vector is invariant
    raw = small_config(
        subsystems=[{"name": "A", "rep": {"u1_charges": [2]}}, {"name": "B", "rep": {"u1_charges": [1]}}],
        tasks=[{"task": "full_report"}],
    )
    code, text = _run_main(raw, tmp_path)
    task = json.loads(text)["tasks"][0]
    assert code == 0 and "error" not in task
    assert task["results"]["phys_dim"] == 0 and task["results"]["frames"]["A"]["reduced_space_dim"] == 0
    assert [c["pass"] for c in task["checks"]] == [True]
    capsys.readouterr()


def test_table_format_lists_the_lr_blocks(tmp_path, capsys):
    code, table = _run_main(small_config(tasks=[{"task": "lr_classify", "frame": "A"}]), tmp_path, "--format", "table")
    assert code == 0
    assert "blocks:\n        [0]:\n          label: q=1\n" in table
    assert "[1]:\n          label: q=-1\n" in table
    capsys.readouterr()


def test_frame_change_and_lr_tasks():
    raw = small_config(
        frames=[
            {"name": "A", "subsystem": "A", "seed": "uniform"},
            {"name": "C", "subsystem": "C", "seed": "uniform"},
        ],
        tasks=[
            {"task": "frame_change", "from": "A", "g_from": {"theta": 0.2},
             "to": "C", "g_to": {"theta": 1.0}},
            {"task": "lr_classify", "frame": "A"},
        ],
    )
    report = run(parse_config(json.dumps(raw)))
    assert report["tasks"][0]["results"]["shape"] == [4, 6]
    assert report["tasks"][1]["results"]["lr_exists"] is True


def test_subsystem_relativity_task():
    report = run(load_config("finite-regular:Z2"))
    layer = report["tasks"][0]["results"]["symmetry_layer"]
    assert layer["subsystem_relativity"]["coincide"] is False


def test_json_reports_are_deterministic():
    for name in ("u1-qubit-qubit-qutrit", "finite-regular:Z3"):
        cfg1 = load_config(name)
        cfg2 = load_config(name)
        assert emit(run(cfg1), "json") == emit(run(cfg2), "json")


def test_json_report_roundtrips():
    text = emit(run(parse_config(json.dumps(small_config()))), "json")
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text


def test_table_format_rounds_amplitudes():
    raw = small_config(
        tasks=[{"task": "reduce", "frame": "A", "orientation": {"theta": 0.4},
                "state": {"basis_index": 0}}]
    )
    text = emit(run(parse_config(json.dumps(raw))), "table")
    assert "reduced_amplitudes" in text
    assert "i" in text  # complex rendering a+bi


def test_main_exit_codes(tmp_path, capsys):
    assert cli.main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    assert "su2-three-spin1" in out
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    assert cli.main(["check", str(cfg_path)]) == 0
    assert cli.main(["run", str(cfg_path), "--format", "table"]) == 0
    assert cli.main(["check", "missing.json"]) == 2
    bad = small_config(frames=[{"name": "A", "subsystem": "A", "seed": [[1, 0], [0, 0]]}])
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert cli.main(["check", str(bad_path)]) == 2  # broken resolution of identity
    capsys.readouterr()


def test_main_out_file_and_tol_env(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    out_path = tmp_path / "report.json"
    monkeypatch.setenv("QRF_TOL", "1e-10")
    assert cli.main(["run", str(cfg_path), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["tolerance"] == 1e-10
    capsys.readouterr()


def test_main_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["run", str(cfg_path), "--seed", "7", "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg_path), "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    capsys.readouterr()


def test_failed_checks_give_nonzero_exit(tmp_path, capsys):
    # a state of total charge 4 is not physical: the library rejects the task, which fails once
    raw = small_config(tasks=[{"task": "reduce", "frame": "A", "state": {"amplitudes": [1] + [0] * 11}}])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["check", str(cfg_path)]) == 0
    assert cli.main(["run", str(cfg_path)]) == 1
    assert '"error": "state is not in the physical subspace"' in capsys.readouterr().out


def test_explicit_matrix_rep_and_group_table():
    raw = {
        "name": "finite-table",
        "group": {"table": [[0, 1], [1, 0]]},
        "subsystems": [
            {"name": "R", "rep": {"regular": True}},
            {"name": "S", "rep": {"matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}},
        ],
        "frames": [{"name": "R", "subsystem": "R", "seed": "identity_ket"}],
        "tasks": [{"task": "phys_space"}],
    }
    report = run(parse_config(json.dumps(raw)))
    assert report["tasks"][0]["results"]["dim"] == 2


def test_su2_builtin_runs_and_reports_unavailable_heisenberg():
    report = run(load_config("su2-three-spin1"))
    frames_out = report["tasks"][0]["results"]["frames"]
    assert frames_out["A"]["theta"]["found"] is False
    assert "unavailable" in frames_out["A"]["heisenberg_picture"]
    assert frames_out["A"]["orientation_independent"] is False
    assert frames_out["A"]["conditional_span_dim"] == 3


@pytest.mark.parametrize("key", ["subsystems", "frames", "tasks"])
def test_non_object_list_entries_are_config_errors(key, tmp_path, capsys):
    raw = {"group": {"builtin": "Z3"}, "subsystems": [], "frames": [], "tasks": []}
    raw[key] = [3]
    with pytest.raises(ConfigError, match=rf"{key}\[0\]: expected an object"):
        parse_config(json.dumps(raw))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_unexpected_run_exception_exits_2(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("boom")

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    monkeypatch.setattr(cli, "run", boom)
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"


def test_library_value_error_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    # only a ConfigError reads as "config error"; a ValueError raised inside the library is a runtime error
    def boom(scenario, tol):
        raise ValueError("boom")

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    monkeypatch.setattr(perspective, "physical_space", boom)
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: ValueError: boom\n"


@pytest.mark.parametrize("field, value", [("seed", "x"), ("tolerance", [1])])
@pytest.mark.parametrize("command", ["run", "check"])
def test_non_numeric_seed_or_tolerance_is_config_error(field, value, command, tmp_path, capsys):
    raw = small_config(**{field: value})
    with pytest.raises(ConfigError, match=rf"{field}: expected a number"):
        parse_config(json.dumps(raw))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main([command, str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: expected a number")


@pytest.mark.parametrize("command", ["run", "check"])
def test_non_object_rep_is_config_error(command, tmp_path, capsys):
    raw = {"group": {"builtin": "Z3"}, "subsystems": [{"name": "A", "rep": 3}], "frames": [], "tasks": []}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main([command, str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: subsystems[0].rep: expected an object, got 3\n"


def test_unexpected_check_exception_exits_2(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("boom")

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    monkeypatch.setattr(cli, "build_scenario", boom)
    assert cli.main(["check", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"


def test_s3_full_report_at_tight_tolerance(tmp_path, capsys):
    # sequential restriction by every element admitted rounding noise as constraints here
    out = tmp_path / "s3.json"
    assert cli.main(["run", "finite-regular:S3", "--tol", "1e-14", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tasks"][0]["results"]["phys_dim"] == 36
    assert report["summary"]["checks_failed"] == 0
    capsys.readouterr()


_SMALL_NOMINAL = {  # builtin: (phys_dim, checks_total) at the default tolerance
    "u1-qubit-qubit-qutrit": (4, 17),
    "su2-three-spin1": (1, 3),
    "su2-four-spin1": (3, 3),
    "finite-regular:Z2": (4, 14),
    "finite-regular:Z3": (9, 14),
    "finite-regular:Z4": (16, 14),
    "finite-regular:S3": (36, 14),
}


@pytest.mark.parametrize("tol", ["1e-3", "1e-6", "1e-15", "1e-16", "0"])
@pytest.mark.parametrize("name", sorted(_SMALL_NOMINAL))
def test_small_builtins_keep_nominal_dims_below_machine_precision(name, tol, tmp_path, capsys):
    # rank cuts are floored at max(m, n) * eps * sigma_0, so a tighter tolerance cannot drop real directions;
    # check bounds and the frame input gates are floored at rounding, and the theta searches accept at the
    # fixed frame-validity bound, so even a zero tolerance keeps the nominal dimensions
    out = tmp_path / "report.json"
    assert cli.main(["run", name, "--tol", tol, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    summary = report["summary"]
    assert (report["tasks"][0]["results"]["phys_dim"], summary["checks_total"]) == _SMALL_NOMINAL[name]
    assert summary["checks_failed"] == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(set(builtin_names()) - set(_SMALL_NOMINAL)))
def test_no_builtin_fails_at_a_looser_tolerance_than_one_it_passes(name, tmp_path, capsys):
    # the small builtins pass at every tolerance swept above; the others at the default and the loosest one
    codes = [cli.main(["run", name, "--tol", tol, "--out", str(tmp_path / "r.json")]) for tol in ("1e-9", "1e-3")]
    assert codes == [0, 0]
    capsys.readouterr()


def test_reported_check_tols_are_the_library_bounds():
    raw = {
        "group": {"builtin": "D4"},
        "subsystems": [{"name": n, "rep": {"regular": True}} for n in ("R1", "R2", "S")],
        "frames": [{"name": r, "subsystem": r, "seed": "identity_ket"} for r in ("R1", "R2")],
        "tasks": [
            {"task": "frame_change", "from": "R1", "to": "R2"},
            {"task": "subsystem_relativity", "frame1": "R1", "frame2": "R2"},
            {"task": "subsystem_relativity", "frame1": "R1", "frame2": "R1"},
        ],
    }
    cfg = cli._validate_raw(raw)
    change, relativity, same = (task["checks"] for task in run(cfg)["tasks"])
    assert same == []  # one frame named twice: a degenerate report without checks
    s = cli.build_scenario(cfg)
    e = s.frame("R1").rep.identity_element()
    record = framechange.frame_change(perspective.physical_space(s, cfg.tol()), "R1", e, "R2", e, cfg.tol()).check
    assert change == [record.as_dict()] and record.bound == cfg.tol().bound(1.0, 64)
    commuting = framechange.subsystem_relativity_report(s, "R1", "R2", cfg.tol())["check"]
    assert relativity == [commuting.as_dict()] and commuting.bound == cfg.tol().bound(1.0, 64)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_config_error(value, tmp_path, monkeypatch, capsys):
    raw = small_config(tolerance=value)
    with pytest.raises(ConfigError, match="tolerance: tolerances must be finite"):
        parse_config(json.dumps(raw))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    for command in ("run", "check"):
        assert cli.main([command, str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: tolerance: tolerances must be finite")
    cfg_path.write_text(json.dumps(small_config()))
    assert cli.main(["run", str(cfg_path), "--tol", value]) == 2
    assert capsys.readouterr().err.startswith("config error: --tol: tolerances must be finite")
    monkeypatch.setenv("QRF_TOL", value)
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: QRF_TOL: tolerances must be finite")


def test_check_parses_task_parameters_at_the_qrf_tol_tolerance(tmp_path, monkeypatch, capsys):
    # the projector gate is 1e4 t (1 + 1): a 1e-6 defect passes at the default t = 1e-9, not at t = 1e-12
    task = {"task": "probabilities", "frame": "A", "projector": {"diag": [1 + 1e-6] + [0] * 5}, "state": {"basis_index": 0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tasks=[task])))
    assert cli.main(["check", str(cfg_path)]) == 0
    monkeypatch.setenv("QRF_TOL", "1e-12")
    for command in ("check", "run"):
        assert cli.main([command, str(cfg_path)]) == 2
        assert capsys.readouterr().err == "config error: tasks[0].projector: expected a Hermitian idempotent projector\n"


def test_run_at_tol_zero_accepts_a_rounded_projector(tmp_path, capsys):
    # the rank-1 projector onto (1, ..., 1)/sqrt(6) on A's 6-dim complement is idempotent only up to rounding
    v = np.ones(6) / np.sqrt(6)
    task = {"task": "probabilities", "frame": "A", "projector": {"matrix": np.outer(v, v).tolist()},
            "state": {"basis_index": 0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tasks=[task])))
    assert cli.main(["run", str(cfg_path), "--tol", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "error" not in report["tasks"][0] and 0.0 <= report["tasks"][0]["results"]["probability"] <= 1.0


def test_non_numeric_tolerance_override_is_config_error(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    monkeypatch.setenv("QRF_TOL", "tight")
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: QRF_TOL: expected a number, got 'tight'\n"


def _rep_config(group, rep):
    return small_config(group=group, subsystems=[{"name": "A", "rep": rep}], frames=[])


def _seed_config(seed):
    return small_config(frames=[{"name": "A", "subsystem": "A", "seed": seed}])


_U1_QQQ = builtin_config("u1-qubit-qubit-qutrit")
_CONFIG_ERRORS = {  # case: (config text, message); every one is found by parse_config or build_scenario
    "not an object": ("[1]", "config must be a JSON object"),
    "no group": ("{}", "config is missing the 'group' field"),
    "group not an object": (small_config(group=3), "group: expected an object, got 3"),
    "subsystems not a list": (small_config(subsystems=3), "subsystems: expected a list, got 3"),
    "subsystem without rep": (small_config(subsystems=[{"name": "A"}]), "subsystems[0]: needs 'name' and 'rep'"),
    "duplicate subsystems": (small_config(subsystems=[{"name": "A", "rep": {"u1_charges": [1, -1]}}] * 2),
                             "subsystem names must be unique"),
    "frame without seed": (small_config(frames=[{"name": "A", "subsystem": "A"}]),
                           "frames[0]: needs 'name', 'subsystem' and 'seed'"),
    "unknown frame subsystem": (small_config(frames=[{"name": "A", "subsystem": "Q", "seed": "uniform"}]),
                                "frames[0]: frame 'A' references unknown subsystem 'Q' (have: A, B, C)"),
    "empty group spec": (small_config(group={}), "group spec needs 'builtin', 'table' or 'table_file'"),
    "spin_j on u1": (_rep_config({"builtin": "u1"}, {"spin_j": 1}),
                     "subsystems[0].rep: spin_j representations need the su2 group"),
    "u1_charges on Z3": (_rep_config({"builtin": "Z3"}, {"u1_charges": [1, -1]}),
                         "subsystems[0].rep: u1_charges representations need the u1 group"),
    "regular on u1": (_rep_config({"builtin": "u1"}, {"regular": True}),
                      "subsystems[0].rep: regular representations need a finite group"),
    "matrices on u1": (_rep_config({"builtin": "u1"}, {"matrices": [[[1]]]}),
                       "subsystems[0].rep: per-element matrices need a finite group"),
    "generators on Z3": (_rep_config({"builtin": "Z3"}, {"generators": [[[1]]]}),
                         "subsystems[0].rep: generators need a Lie group"),
    "unknown rep": (_rep_config({"builtin": "u1"}, {"spin": 1}),
                    "subsystems[0].rep: unknown representation spec {'spin': 1}"),
    "seed too long": (_seed_config([1, 0, 0]), "frames[0].seed: seed has 3 amplitudes, representation needs 2"),
    "seed entry": (_seed_config(["x", 1]), "frames[0].seed[0]: expected a number or [re, im] pair, got 'x'"),
    "seed not a list": (_seed_config(3), "frames[0].seed: expected a list of amplitudes"),
    "ragged matrix": (_rep_config({"builtin": "Z2"}, {"matrices": [[[1, 0], [0]], [[1, 0], [0, 1]]]}),
                      "subsystems[0].rep.matrices[0]: rows have inconsistent lengths"),
    "rep bytes": (small_config(group={"table": [[(i + j) % 600 for j in range(600)] for i in range(600)]}, frames=[],
                               subsystems=[{"name": "A", "rep": {"regular": True}},  # x a +-1 character: no table
                                           {"name": "B", "rep": {"matrices": [[[(-1) ** k]] for k in range(600)]}}]),
                  "predicted total representation of 600 x 600 x 600 complex entries (3.22 GiB) "
                  f"exceeds MAX_REP_BYTES = {cli.MAX_REP_BYTES / 2**30:.0f} GiB"),
    "infinite charge": (json.dumps(small_config(subsystems=[{"name": "A", "rep": {"u1_charges": ["INF", -1]}}]))
                        .replace('"INF"', "1e400"), "subsystems[0].rep: generators have non-finite entries"),
    "second rep fails": (json.dumps(small_config(subsystems=[{"name": "A", "rep": {"u1_charges": [1, -1]}},
                                                             {"name": "B", "rep": {"u1_charges": ["INF", -1]}}]))
                         .replace('"INF"', "1e400"), "subsystems[1].rep: generators have non-finite entries"),
    "unnormalized seed": (_seed_config([2, 0]), "frames[0] ('A'): seed must be normalized, got norm 2.0"),
    "matrix not a list": (_rep_config({"builtin": "Z2"}, {"matrices": [3, [[1]]]}),
                          "subsystems[0].rep.matrices[0]: expected a matrix as a list of rows"),
    "unknown task": (small_config(tasks=[{"task": "nope"}]),
                     f"tasks[0]: unknown task 'nope' (known: {', '.join(cli._KNOWN_TASKS)})"),
    "duplicate frames": (dict(_U1_QQQ, frames=_U1_QQQ["frames"] + _U1_QQQ["frames"][:1]),  # frame A twice
                         "frame names must be unique"),
    "negative seed": (small_config(seed=-1), "seed: expected an integer >= 0, got -1"),
}


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("case", list(_CONFIG_ERRORS))
def test_config_mistakes_exit_2_with_their_message(case, command, tmp_path, capsys):
    raw, message = _CONFIG_ERRORS[case]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    assert cli.main([command, str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("charges, message", [
    ([1e30, 1], "U1 weights must lie within +-2^53"),  # cast to int, it would wrap to -2^63
    ([10**20, 1], "U1 weights must lie within +-2^53"),
    ([2**62, -2**62], "U1 weights must lie within +-2^53"),  # exact in int64, but the sums of three overflow
    ([2**52, 1], "weights must lie within +-2^53 / 3 subsystems"),  # each sum exact, but not in float64
])
def test_huge_charges_are_config_errors(charges, message, command, tmp_path, capsys):
    raw = json.loads(json.dumps(_U1_QQQ))  # a copy: the builtin table is shared
    raw["subsystems"][0]["rep"] = {"u1_charges": charges}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main([command, str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: subsystems[0].rep: {message}, got [")


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    assert cli.main(["run", str(cfg_path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed: expected an integer >= 0, got -1\n"


_HUGE_SPIN = small_config(group={"builtin": "su2"}, subsystems=[{"name": "A", "rep": {"spin_j": 1e9}}], frames=[])


@pytest.mark.parametrize("command", ["check", "run"])
def test_huge_rep_is_rejected_before_anything_is_built(command, tmp_path):
    # under a 1 GiB address-space cap, building the 2e9-dim spin rep would end in a MemoryError
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(_HUGE_SPIN))
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from qrf.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qrf.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code, command, str(cfg_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "config error: predicted kinematical dimension 2000000001 (subsystems [2000000001]) "
        f"exceeds MAX_KIN_DIM = {cli.MAX_KIN_DIM}\n"
    )


@pytest.mark.parametrize("command", ["check", "run"])
def test_dense_rep_stack_above_the_byte_limit_is_rejected_before_anything_is_built(command, tmp_path):
    # a regular Z600 passes MAX_KIN_DIM, but its (|G|, d, d) matrix table alone is 3.2 GiB
    n = 600
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    raw = small_config(group={"table": table}, subsystems=[{"name": "A", "rep": {"regular": True}}], frames=[])
    cfg_path = tmp_path / "z600.json"
    cfg_path.write_text(json.dumps(raw))
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from qrf.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qrf.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code, command, str(cfg_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "config error: predicted total representation of 600 x 600 x 600 complex entries (3.22 GiB) "
        "exceeds MAX_REP_BYTES = 2 GiB\n"
    )


def test_byte_limit_admits_a_table_held_total_it_never_densifies(tmp_path):
    # three regular Z16 parties (kin 4096): the total is a permutation table, and the densest stacks are the frames'
    raw = small_config(group={"builtin": "Z16"}, subsystems=[{"name": n, "rep": {"regular": True}} for n in "ABC"],
                       frames=[{"name": n, "subsystem": n, "seed": "identity_ket"} for n in "AB"])
    cfg_path = tmp_path / "z16.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["check", str(cfg_path)]) == 0


def test_byte_limit_admits_every_builtin_and_su2_at_the_dimension_limit():
    assert 16 * 8 * 512**2 <= cli.MAX_REP_BYTES  # the largest builtin stack, a three-party order-8 regular rep
    assert 16 * 3 * cli.MAX_KIN_DIM**2 <= cli.MAX_REP_BYTES
    for name in builtin_names():
        cli.build_scenario(load_config(name))


def test_u1_full_report_builds_no_kinematical_generator(monkeypatch):
    built = []
    build = cli.build_scenario
    monkeypatch.setattr(cli, "build_scenario", lambda cfg: built.append(build(cfg)) or built[-1])
    assert run(u1_qubits_config(8))["summary"]["checks_failed"] == 0
    s = built[0]
    assert s.total_rep._generators is None
    assert all(s.complement_rep(f)._generators is None for f in s.frames)


def test_u1_scenario_set_up_traces_under_one_mib():
    cfg = u1_qubits_config(10)
    cli.build_scenario(u1_qubits_config(2))  # the first build's lazy numpy imports are not the scenario's
    tracemalloc.start()
    try:
        cli.build_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_diagonal_integral_generator_spec_is_held_by_its_charges():
    def rep_of(generators):
        raw = small_config(subsystems=[{"name": "A", "rep": {"generators": generators}}], frames=[])
        return cli.build_scenario(parse_config(json.dumps(raw))).subsystems[0][1]

    rep = rep_of([[[1, 0], [0, -1]]])
    assert rep._generators is None and np.array_equal(rep.charges, [1, -1])
    assert rep_of([[[0, 1], [1, 0]]]).charges is None


def test_kinematical_product_above_the_limit_is_config_error():
    subsystems = [{"name": n, "rep": {"regular": True}} for n in "ABC"]
    raw = small_config(group={"builtin": "Z32"}, subsystems=subsystems, frames=[])
    with pytest.raises(ConfigError, match=r"predicted kinematical dimension 32768 \(subsystems \[32, 32, 32\]\)"):
        cli.build_scenario(parse_config(json.dumps(raw)))


def test_predicted_dims_match_the_built_reps():
    for name in builtin_names():
        cfg = load_config(name)
        s = cli.build_scenario(cfg)
        assert [cli._predicted_dim(s.group, sub["rep"]) for sub in cfg.subsystems] == s.dims
    explicit = [
        ({"builtin": "u1"}, {"generators": [[[1, 0], [0, -1]]]}),
        ({"builtin": "Z2"}, {"matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}),
    ]
    for group, rep in explicit:
        cfg = parse_config(json.dumps(small_config(group=group, subsystems=[{"name": "A", "rep": rep}], frames=[])))
        assert [cli._predicted_dim(None, sub["rep"]) for sub in cfg.subsystems] == cli.build_scenario(cfg).dims == [2]


def _builtin_with_tasks(name, tasks):
    return dict(builtin_config(name), tasks=tasks)


def _run_main(raw, tmp_path, *args):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out_path = tmp_path / "report.out"
    code = cli.main(["run", str(cfg_path), "--out", str(out_path), *args])
    return code, out_path.read_text()


_Z3_DIAG = {"diag": [1, -1, 0.5, 0, 2, 0, -0.5, 1, 0]}


def test_rel_obs_and_reorient_tasks_on_index_orientations(tmp_path, capsys):
    raw = _builtin_with_tasks("finite-regular:Z3", [
        {"task": "rel_obs", "frame": "R1", "orientation": {"index": 1}, "observable": _Z3_DIAG},
        {"task": "reorient", "frame": "R1", "orientation": {"index": 1}, "g": {"index": 2}, "observable": _Z3_DIAG},
    ])
    code, text = _run_main(raw, tmp_path)
    assert code == 0
    rel, moved = json.loads(text)["tasks"]
    assert sorted(rel["results"]) == ["frame", "orientation", "restricted_matrix"]
    assert rel["results"]["orientation"] == {"index": 1}
    assert len(rel["results"]["restricted_matrix"]) == 9  # the 9-dim physical space of three regular Z3 parties
    assert [(c["name"], c["pass"]) for c in rel["checks"]] == [("dirac_commutation", True)]
    assert moved["results"] == {"frame": "R1", "new_orientation": {"index": 2}}  # 1 - 2 = 2 mod 3
    assert [(c["name"], c["pass"]) for c in moved["checks"]] == [("reorientation_orbit", True)]
    assert moved["checks"][0]["residual"] == 0.0
    code, table = _run_main(raw, tmp_path, "--format", "table")
    assert code == 0
    assert "[PASS] dirac_commutation" in table and "[PASS] reorientation_orbit" in table
    assert "new_orientation:" in table and "checks: 2/2 passed" in table
    capsys.readouterr()


def test_rel_obs_and_reorient_tasks_on_su2_orientations(tmp_path, capsys):
    obs = {"diag": [1, 0, -1, 2, 0, 0, 0.5, 0, 1]}
    raw = _builtin_with_tasks("su2-three-spin1", [
        {"task": "rel_obs", "frame": "A", "orientation": {"su2": [0.3, -0.2, 0.5]}, "observable": obs},
        {"task": "reorient", "frame": "A", "orientation": {"su2": [0.3, -0.2, 0.5]}, "g": {"su2": [0.1, 0, 0]},
         "observable": obs},
    ])
    code, text = _run_main(raw, tmp_path)
    assert code == 1  # the reorient task error counts as a failed check
    rel, moved = json.loads(text)["tasks"]
    assert sorted(rel["results"]) == ["frame", "orientation", "restricted_matrix"]
    assert rel["results"]["orientation"] == {"su2": [0.3, -0.2, 0.5]}
    assert [(c["name"], c["pass"]) for c in rel["checks"]] == [("dirac_commutation", True)]
    assert "results" not in moved and "admits no right action" in moved["error"]
    assert json.loads(text)["summary"] == {"checks_total": 2, "checks_failed": 1}
    code, table = _run_main(raw, tmp_path, "--format", "table")
    assert code == 1
    assert "[PASS] dirac_commutation" in table
    assert "ERROR: frame 'A' admits no right action" in table
    capsys.readouterr()


@pytest.mark.parametrize(
    "task, message",
    [
        ({"task": "rel_obs", "frame": "R1", "orientation": {"theta": 0.3}, "observable": _Z3_DIAG},
         "task.orientation: orientation of frame 'R1' must be 'identity' or {'index': ...}"),
        ({"task": "rel_obs", "frame": "R1", "orientation": {"index": 1.7}, "observable": _Z3_DIAG},
         "task.orientation.index: expected an integer, got 1.7"),
        ({"task": "rel_obs", "frame": "R1", "orientation": {"index": 3}, "observable": _Z3_DIAG},
         "task.orientation: element index 3 outside the group"),
        ({"task": "reduce", "frame": "R1", "state": {"amplitudes": [0] * 27}}, "task.state: state has zero norm"),
        ({"task": "reduce", "frame": "R1", "state": {"coefficients": [0] * 9}}, "task.state: state has zero norm"),
        ({"task": "reduce", "frame": "R1", "state": {"basis_index": 0.5}},
         "task.state.basis_index: expected an integer, got 0.5"),
        ({"task": "reduce", "frame": "R1", "state": {"basis_index": 9}},
         "task.state: basis_index 9 outside physical dimension 9"),
        ({"task": "reduce", "frame": "R1", "state": {"coefficients": [1] * 8}},
         "task.state: need 9 physical coefficients"),
        ({"task": "reduce", "frame": "R1", "state": {"amplitudes": [1] * 26}},
         "task.state: need 27 kinematical amplitudes"),
        ({"task": "reduce", "frame": "R1", "state": {}},
         "task.state: state needs 'basis_index', 'coefficients' or 'amplitudes'"),
        ({"task": "rel_obs", "frame": "R1", "observable": {"trace": 1}},
         "task.observable: observable needs 'matrix' or 'diag'"),
        ({"task": "rel_obs", "frame": "R1", "observable": [1]}, "task.observable: observable must be an object"),
        ({"task": "probabilities", "frame": "R1", "projector": {"diag": [0.5] + [0] * 8}, "state": {"basis_index": 0}},
         "task.projector: expected a Hermitian idempotent projector"),
        ({"task": "reorient", "frame": "R1", "g": {"su2": [0, 0, 1]}, "observable": _Z3_DIAG},
         "task.g: orientation of frame 'R1' must be 'identity' or {'index': ...}"),
        ({"task": "frame_change", "from": "R1", "to": "R2", "g_to": "x"},
         "task.g_to: orientation of frame 'R2' must be 'identity' or {'index': ...}"),
    ],
)
def test_orientation_and_state_specs_of_the_wrong_kind_are_task_errors(task, message, tmp_path, capsys):
    # each message is given at the task's own path, task.<param>; both commands print it at tasks[1].<param>
    raw = _builtin_with_tasks("finite-regular:Z3", [{"task": "phys_space"}, task])
    _assert_config_error_from_both(raw, message.replace("task.", "tasks[1].", 1), tmp_path, capsys)


def test_lie_orientation_specs_are_checked_against_the_frame_group():
    s = cli.build_scenario(load_config("su2-three-spin1"))
    assert cli._element(s, "A", {"su2": [0, 0, 1.0]}, "o").coords == (0.0, 0.0, 1.0)
    z3 = cli.build_scenario(load_config("finite-regular:Z3"))
    assert cli._element(z3, "R1", {"index": 2.0}, "o").index == 2  # integral, so not truncated
    for spec, match in [
        ({"theta": 0.3}, r"must be 'identity' or \{'su2': ...\}"),
        ({"su2": [1, 2]}, "expected 3 coordinates, got 2"),
        ({"su2": "x"}, "su2 orientation 'x'"),
        ({"su2": [0, float("nan"), 0]}, "non-finite coordinates"),
        (3, r"must be 'identity' or \{'su2': ...\}"),
    ]:
        with pytest.raises(ConfigError, match=match):
            cli._element(s, "A", spec, "o")


@pytest.mark.parametrize("command", ["check", "run"])
def test_check_and_run_print_the_same_line_for_a_non_unitary_rep(command, tmp_path, capsys):
    raw = {
        "group": {"builtin": "Z2"},
        "subsystems": [{"name": "A", "rep": {"matrices": [[[1, 0], [0, 1]], [[2, 0], [0, 1]]]}}],
        "frames": [],
        "tasks": [{"task": "phys_space"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main([command, str(cfg_path)]) == 2
    assert capsys.readouterr().err == "config error: subsystems[0].rep: matrix for element 1 is not unitary\n"


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "missing" / "report.json")]) == 2
    assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")


def test_tilted_lie_frame_exits_2_at_build(tmp_path, capsys):
    seed = [math.sqrt(0.5 + 1e-6), math.sqrt(0.5 - 1e-6)]
    raw = small_config(frames=[{"name": "A", "subsystem": "A", "seed": seed}], tasks=[{"task": "full_report"}])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    for command in ("check", "run"):
        assert cli.main([command, str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: frames[0] ('A'): frame 'A': coherent-state sum deviates from identity by 2.828e-06\n"
        )


def test_every_builtin_report_derives_reduced_and_span_dims_consistently():
    seen = 0
    for name in builtin_names():
        results = run(load_config(name))["tasks"][0]["results"]
        for fname, entry in results["frames"].items():
            assert entry["reduced_space_dim"] == results["phys_dim"], (name, fname)
            assert entry["orientation_independent"] == (entry["conditional_span_dim"] == entry["reduced_space_dim"])
            seen += 1
    assert seen == 23


_EVERY_TASK = [
    {"task": "phys_space"},
    {"task": "rel_obs", "frame": "R1", "orientation": {"index": 1}, "observable": _Z3_DIAG},
    {"task": "reduce", "frame": "R1", "orientation": {"index": 2}, "state": {"basis_index": 1}},
    {"task": "probabilities", "frame": "R1", "projector": {"diag": [1] + [0] * 8}, "state": {"basis_index": 1}},
    {"task": "frame_change", "from": "R1", "to": "R2", "g_to": {"index": 1}},
    {"task": "reorient", "frame": "R1", "g": {"index": 2}, "observable": _Z3_DIAG},
    {"task": "lr_classify", "frame": "R2"},
    {"task": "subsystem_relativity", "frame1": "R1", "frame2": "R2"},
    {"task": "full_report"},
]


@pytest.mark.parametrize("name", ["finite-regular:Z3", "u1-qubit-qubit-qutrit", "su2-three-spin1"])
def test_the_full_report_task_is_the_library_report_converted_once(name):
    cfg = load_config(name)
    out = run(cfg)
    s = cli.build_scenario(cfg)
    ps = perspective.physical_space(s, cfg.tol())
    fields, checks = full_report(s, ps, cfg.tol(), np.random.default_rng(cfg.seed))
    assert [t["task"] for t in out["tasks"]] == ["full_report"]
    assert cli._jsonable(fields) == out["tasks"][0]["results"]
    assert cli._jsonable([c.as_dict() for c in checks]) == out["tasks"][0]["checks"]
    assert cli._jsonable(out) == out


def test_a_report_of_every_task_is_converted_once():
    report = run(parse_config(json.dumps(_builtin_with_tasks("finite-regular:Z3", _EVERY_TASK))))
    assert report["summary"] == {"checks_total": 21, "checks_failed": 0}
    assert cli._jsonable(report) == report


def test_jsonable_maps_numpy_bools_to_bools():
    out = cli._jsonable({"pass": np.bool_(True), "flags": [np.False_]})
    assert out == {"pass": True, "flags": [False]}
    assert type(out["pass"]) is bool and type(out["flags"][0]) is bool
    assert json.dumps(out) == '{"pass": true, "flags": [false]}'


def test_jsonable_rejects_a_value_it_has_no_form_for():
    with pytest.raises(TypeError, match="set"):
        cli._jsonable({"checks": [{1, 2}]})


def test_jsonable_maps_real_arrays_and_numpy_scalars_to_python_values():
    out = cli._jsonable({"m": np.arange(4.0).reshape(2, 2), "n": np.int64(3), "x": np.float32(0.5), "y": np.float64(0.25)})
    assert out == {"m": [[0.0, 1.0], [2.0, 3.0]], "n": 3, "x": 0.5, "y": 0.25}
    assert [type(out[k]) for k in "nxy"] == [int, float, float]
    assert json.dumps(out) == '{"m": [[0.0, 1.0], [2.0, 3.0]], "n": 3, "x": 0.5, "y": 0.25}'


def test_emit_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit(run(parse_config(json.dumps(small_config(tasks=[])))), "xml")


@pytest.mark.parametrize("order", [["R1", "S", "R2"], ["S", "R2", "R1"]])
def test_symmetry_layer_with_non_adjacent_frames_exits_0(order, tmp_path, capsys):
    # the relation-conditional source puts 1 on the other frame's slot in each complement's own order
    raw = {
        "group": {"builtin": "Z3"},
        "subsystems": [{"name": n, "rep": {"regular": True}} for n in order],
        "frames": [{"name": r, "subsystem": r, "seed": "identity_ket"} for r in ("R1", "R2")],
        "tasks": [{"task": "full_report"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "report.json")]) == 0
    checks = json.loads((tmp_path / "report.json").read_text())["tasks"][0]["checks"]
    layer = next(c for c in checks if c["name"] == "relation_conditional_reorient")
    assert layer["pass"] and layer["residual"] <= 1e-12
    assert {"name": "distinct_system_subalgebras", "residual": 0.0, "tol": 0.0, "pass": True} in checks


def test_identity_on_other_frame_matches_kron_in_complement_order():
    s = cli.build_scenario(load_config("finite-regular:Z2"))  # subsystems R1, R2, S
    small = np.arange(4.0).reshape(2, 2)
    np.testing.assert_array_equal(framechange._identity_on(s, "R1", "R2", small), np.kron(np.eye(2), small))
    np.testing.assert_array_equal(framechange._identity_on(s, "R2", "R1", small), np.kron(np.eye(2), small))
    raw = {
        "group": {"builtin": "Z2"},
        "subsystems": [{"name": n, "rep": {"regular": True}} for n in ("R1", "S1", "R2", "S2")],
        "frames": [{"name": r, "subsystem": r, "seed": "identity_ket"} for r in ("R1", "R2")],
        "tasks": [],
    }
    s4 = cli.build_scenario(cli._validate_raw(raw))
    small = np.arange(16.0).reshape(4, 4)  # on S1 x S2
    t = small.reshape(2, 2, 2, 2)  # (S1 out, S2 out, S1 in, S2 in)
    # complement of R1 is S1, R2, S2: small on the outer slots, 1 on the middle one
    expect = np.einsum("abcd,BD->aBbcDd", t, np.eye(2)).reshape(8, 8)
    np.testing.assert_array_equal(framechange._identity_on(s4, "R1", "R2", small), expect)
    # complement of R2 is R1, S1, S2: 1 first
    np.testing.assert_array_equal(framechange._identity_on(s4, "R2", "R1", small), np.kron(np.eye(2), small))


@pytest.mark.parametrize("value", [1.7, -0.5, float("inf")])
def test_non_integral_seed_is_config_error(value, tmp_path, capsys):
    raw = small_config(seed=value)
    with pytest.raises(ConfigError, match=r"seed: expected an integer"):
        parse_config(json.dumps(raw))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["check", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: seed: expected an integer")


def test_integral_seeds_are_kept_exactly():
    for value, want in ((3, 3), (3.0, 3), ("4", 4), (2**70, 2**70)):
        assert parse_config(json.dumps(small_config(seed=value))).seed == want


def test_d4_full_report_never_builds_the_dense_total_rep(monkeypatch):
    from qrf import reps

    built, shapes = [], []
    build = cli.build_scenario
    monkeypatch.setattr(cli, "build_scenario", lambda cfg: built.append(build(cfg)) or built[-1])
    dense = reps._permutation_matrices
    monkeypatch.setattr(reps, "_permutation_matrices", lambda sigma: shapes.append(sigma.shape) or dense(sigma))
    report = run(load_config("finite-regular:D4"))
    assert report["summary"]["checks_failed"] == 0
    (s,) = built
    assert s.kin_dim == 512 and reps.permutation_table(s.total_rep) is not None
    assert s.total_rep._matrices is None
    assert shapes == []  # no permutation matrix at all: frames and complements act by their tables


def test_d4_full_report_holds_at_most_one_kinematical_square_array_at_a_time():
    # one kin x kin complex array is 4 MiB at kin 512; the (|G|, kin^2) int64 pair-image table alone is 16 MiB
    run(load_config("finite-regular:Z2"))  # numpy's lazy imports are not the report's
    cfg = load_config("finite-regular:D4")
    tracemalloc.start()
    try:
        report = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["summary"]["checks_failed"] == 0 and report["tasks"][0]["results"]["kin_dim"] == 512
    assert peak <= 3 * 16 * 512**2, peak / 2**20


def test_d4_full_report_never_densifies_a_complement_rep(monkeypatch):
    from qrf import reps

    built = []
    build = cli.build_scenario
    monkeypatch.setattr(cli, "build_scenario", lambda cfg: built.append(build(cfg)) or built[-1])
    assert run(load_config("finite-regular:D4"))["summary"]["checks_failed"] == 0
    (s,) = built
    for fname in s.frames:
        comp = s.complement_rep(fname)
        assert reps.permutation_table(comp) is not None and comp._matrices is None, fname


@pytest.mark.parametrize("group, reps_, obs", [
    ("u1", [{"u1_charges": [2, 1]}, {"u1_charges": [1, 3]}], [1, -1]),
    ("su2", [{"spin_j": 0.5}, {"spin_j": 1}], [1, 0, -1]),
], ids=["u1", "su2"])
def test_rel_obs_without_weight_zero_states_restricts_to_an_empty_matrix(group, reps_, obs):
    # no weight-0 state means no physical state: the restriction is 0 x 0, not a missing weight block
    raw = small_config(
        group={"builtin": group},
        subsystems=[{"name": n, "rep": r} for n, r in zip("AB", reps_)],
        tasks=[{"task": "rel_obs", "frame": "A", "observable": {"diag": obs}}],
    )
    task = run(parse_config(json.dumps(raw)))["tasks"][0]
    assert "error" not in task
    assert task["results"]["restricted_matrix"] == []
    assert [(c["name"], c["pass"]) for c in task["checks"]] == [("dirac_commutation", True)]


_Z3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


@pytest.mark.parametrize("text", [json.dumps(_Z3_TABLE), "0 1 2\n1 2 0\n\n2 0 1\n"], ids=["json", "text"])
def test_table_file_group_gives_the_inline_table_report(text, tmp_path, capsys):
    table_path = tmp_path / "z3.table"
    table_path.write_text(text)
    reports = []
    for group in ({"table": _Z3_TABLE}, {"table_file": str(table_path)}):
        code, out = _run_main(_builtin_with_tasks("finite-regular:Z3", [{"task": "full_report"}]) | {"group": group}, tmp_path)
        assert code == 0
        reports.append(json.loads(out))
        assert reports[-1]["scenario"].pop("group") == group
    assert reports[0] == reports[1]
    missing = _builtin_with_tasks("finite-regular:Z3", []) | {"group": {"table_file": str(tmp_path / "none.json")}}
    assert _run_main(missing, tmp_path)[0] == 2 and "FileNotFoundError" in capsys.readouterr().err


def test_matrix_observables_match_their_diagonal_and_library_forms():
    diag = [1, -1, 0.5, 0, 2, -0.5]
    rng = np.random.default_rng(46)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = h + h.conj().T
    specs = [{"diag": diag}, {"matrix": np.diag(diag).tolist()}, {"matrix": [[[z.real, z.imag] for z in row] for row in h]}]
    cfg = _builtin_with_tasks("u1-qubit-qubit-qutrit", [
        {"task": "rel_obs", "frame": "A", "orientation": {"theta": 0.4}, "observable": spec} for spec in specs
    ])
    tasks = run(parse_config(json.dumps(cfg)))["tasks"]
    assert all(c["pass"] for t in tasks for c in t["checks"])
    assert tasks[0]["results"] == tasks[1]["results"] and tasks[0]["checks"] == tasks[1]["checks"]
    s = cli.build_scenario(parse_config(json.dumps(cfg)))
    want = perspective.physical_space(s).restrict(perspective.relational_observable(s, "A", [0.4], h).op)
    got = np.array(tasks[2]["results"]["restricted_matrix"], dtype=float)
    np.testing.assert_allclose(got[..., 0] + 1j * got[..., 1], want, rtol=0, atol=1e-12)


def test_coefficient_and_amplitude_states_match_the_basis_index():
    # unnormalized coefficients and amplitudes are normalized; both name the same physical state as basis_index 1
    cfg = parse_config(json.dumps(_builtin_with_tasks("u1-qubit-qubit-qutrit", [])))
    ps = perspective.physical_space(cli.build_scenario(cfg))
    states = [{"basis_index": 1}, {"coefficients": [0, [0, 2], 0, 0]},
              {"amplitudes": [[3 * z.real, 3 * z.imag] for z in ps.basis.basis[:, 1]]}]
    tasks = [t for state in states for t in (
        {"task": "reduce", "frame": "B", "orientation": {"theta": 0.7}, "state": state},
        {"task": "probabilities", "frame": "B", "orientation": {"theta": 0.7},
         "projector": {"diag": [1, 0, 0, 1, 0, 0]}, "state": state},
    )]
    out = run(parse_config(json.dumps(_builtin_with_tasks("u1-qubit-qubit-qutrit", tasks))))["tasks"]
    assert all("error" not in t and all(c["pass"] for c in t["checks"]) for t in out)

    def amplitudes(task):  # [re, im] pairs
        a = np.array(task["results"]["reduced_amplitudes"], dtype=float)
        return a[:, 0] + 1j * a[:, 1]

    ref = amplitudes(out[0])
    np.testing.assert_allclose(amplitudes(out[2]), 1j * ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(amplitudes(out[4]), ref, rtol=0, atol=1e-12)
    for k in (3, 5):
        assert abs(out[k]["results"]["probability"] - out[1]["results"]["probability"]) <= 1e-12


def test_library_key_error_exits_through_main(tmp_path, monkeypatch, capsys):
    # a KeyError raised inside the library is a runtime fault, not a missing task parameter
    def broken(*args, **kwargs):
        raise KeyError("inner")

    monkeypatch.setattr(cli.reductions, "isometry_check", broken)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(tasks=[{"task": "reduce", "frame": "A", "state": {"basis_index": 0}}])))
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "error: KeyError: 'inner'" in capsys.readouterr().err


def test_su2_weight_zero_sector_without_a_singlet_gives_an_empty_physical_space(tmp_path):
    # spin-3/2 x spin-1/2 has m = 0 states but no j = 0 state: the fixed space has no columns
    subsystems = [{"name": "A", "rep": {"spin_j": 1.5}}, {"name": "B", "rep": {"spin_j": 0.5}}]
    code, out = _run_main(small_config(group={"builtin": "su2"}, subsystems=subsystems,
                                       tasks=[{"task": "full_report"}]), tmp_path)
    assert code == 0
    assert json.loads(out)["tasks"][0]["results"]["phys_dim"] == 0


@pytest.mark.parametrize("frames_on", ["AC", "AB"])
def test_symmetry_layer_with_a_one_dimensional_system_passes(frames_on, tmp_path):
    # regular Z3 frames and a trivial system: both relativized system algebras are the scalars
    trivial = {"matrices": [[[1]], [[1]], [[1]]]}
    raw = small_config(
        group={"builtin": "Z3"},
        subsystems=[{"name": n, "rep": {"regular": True} if n in frames_on else trivial} for n in "ABC"],
        frames=[{"name": n, "subsystem": n, "seed": "identity_ket"} for n in frames_on],
        tasks=[{"task": "full_report"}],
    )
    code, out = _run_main(raw, tmp_path)
    assert code == 0
    task = json.loads(out)["tasks"][0]
    assert task["results"]["symmetry_layer"]["subsystem_relativity"]["algebra_dims"] == [1, 1]
    assert "distinct_system_subalgebras" not in [c["name"] for c in task["checks"]]


def test_su2_seven_spin_rel_obs_run_peaks_under_150_mib(tmp_path):
    # the relational observable's weight blocks answer its Dirac check and its restriction themselves: the kin^2
    # (2187^2) dense operator and commutators took the run to 454 MiB
    names = [chr(ord("A") + i) for i in range(7)]
    raw = {"name": "su2-7-rel-obs", "group": {"builtin": "su2"},
           "subsystems": [{"name": s, "rep": {"spin_j": 1}} for s in names],
           "frames": [{"name": "A", "subsystem": "A", "seed": "uniform"}],
           "tasks": [{"task": "rel_obs", "frame": "A", "observable": {"diag": [float(i % 5) for i in range(3**6)]}}]}
    cfg_path = tmp_path / "su2-7.json"
    cfg_path.write_text(json.dumps(raw))
    code = (
        "import resource, sys; from qrf.cli import main; code = main(['run', sys.argv[1]]); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, file=sys.stderr); sys.exit(code)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qrf.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, str(cfg_path)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["tasks"][0]["checks"][0]["pass"]
    assert float(proc.stderr.split()[-1]) < 150, proc.stderr
