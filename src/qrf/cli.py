"""Scenario runner: parse and admit JSON configs, dispatch tasks, emit reports.

The physics of each task is library code; the full report is ``qrf.report``.
Task runners return library values, and ``run`` turns the assembled report
into JSON values once.  Reports are deterministic for a fixed config, seed
and version: every random draw goes through one seeded generator.  Every
check is a library ``Check`` record, emitted with its bound as the ``tol``
field; this module scales no bound by the tolerance.  Exit code 0 means every
property check in every task passed, 1 that some check failed, and 2 a config
or runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, framechange, frames, groups, perspective, reductions, reps
from .builtins_config import builtin_config, builtin_names
from .linalg import Tolerance
from .perspective import Scenario
from .report import basis_table, full_report

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "load_config", "parse_tasks", "run", "emit", "main"]

# Largest kinematical dimension a config may build; one dense operator of that size is 256 MiB.
MAX_KIN_DIM = 4096
# Largest dense rep stack a finite-group config may form: |G| n x n complex matrices, n the kinematical dimension
# when a subsystem rep has no permutation table (the total is then dense), else the largest subsystem dimension (a
# frame's orbit and isotypic blocks read its stack).  A Lie config forms none: `spin_j` and `u1_charges` totals
# are held by their factors and charges.
MAX_REP_BYTES = 2 * 2**30


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _config_errors(path: str = ""):
    """A ValueError of the group, rep, frame and scenario constructors as a ConfigError with the same message,
    after ``path: `` when one is given; a ConfigError passes through as it is."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


@dataclass
class ScenarioConfig:
    name: str
    group_spec: dict
    subsystems: list[dict]
    frames: list[dict]
    tasks: list[dict]
    seed: int = 0
    tolerance: float = 1e-9

    def tol(self) -> Tolerance:
        return Tolerance(self.tolerance)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _complex_scalar(x, path: str) -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2 and all(isinstance(v, (int, float)) for v in x):
        return complex(x[0], x[1])
    raise ConfigError(f"{path}: expected a number or [re, im] pair, got {x!r}")


def _complex_vector(x, path: str) -> np.ndarray:
    if not isinstance(x, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of amplitudes")
    return np.array([_complex_scalar(v, f"{path}[{i}]") for i, v in enumerate(x)], dtype=complex)


def _complex_matrix(x, path: str) -> np.ndarray:
    if not isinstance(x, (list, tuple)) or not x:
        raise ConfigError(f"{path}: expected a matrix as a list of rows")
    rows = [_complex_vector(r, f"{path}[{i}]") for i, r in enumerate(x)]
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"{path}: rows have inconsistent lengths")
    return np.vstack(rows)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return _validate_raw(raw)


def _validate_raw(raw: dict) -> ScenarioConfig:
    for key in ("group", "subsystems", "frames", "tasks"):
        if key not in raw:
            raise ConfigError(f"config is missing the {key!r} field")
    if not isinstance(raw["group"], dict):
        raise ConfigError(f"group: expected an object, got {raw['group']!r}")
    for key in ("subsystems", "frames", "tasks"):
        if not isinstance(raw[key], list):
            raise ConfigError(f"{key}: expected a list, got {raw[key]!r}")
        for i, entry in enumerate(raw[key]):
            if not isinstance(entry, dict):
                raise ConfigError(f"{key}[{i}]: expected an object, got {entry!r}")
    sub_names = []
    for i, sub in enumerate(raw["subsystems"]):
        if "name" not in sub or "rep" not in sub:
            raise ConfigError(f"subsystems[{i}]: needs 'name' and 'rep'")
        if not isinstance(sub["rep"], dict):
            raise ConfigError(f"subsystems[{i}].rep: expected an object, got {sub['rep']!r}")
        sub_names.append(sub["name"])
    for i, fr in enumerate(raw["frames"]):
        if "name" not in fr or "subsystem" not in fr or "seed" not in fr:
            raise ConfigError(f"frames[{i}]: needs 'name', 'subsystem' and 'seed'")
        if fr["subsystem"] not in sub_names:
            raise ConfigError(
                f"frames[{i}]: frame {fr['name']!r} references unknown subsystem "
                f"{fr['subsystem']!r} (have: {', '.join(sub_names)})"
            )
    frame_names = [fr["name"] for fr in raw["frames"]]
    for kind, names in (("subsystem", sub_names), ("frame", frame_names)):
        if len(set(names)) != len(names):
            raise ConfigError(f"{kind} names must be unique")
    for i, task in enumerate(raw["tasks"]):
        if "task" not in task or task["task"] not in _KNOWN_TASKS:
            raise ConfigError(
                f"tasks[{i}]: unknown task {task.get('task')!r} (known: {', '.join(_KNOWN_TASKS)})"
            )
        params = _TASKS[task["task"]][1]
        for key, value in task.items():
            if key != "task" and key not in params:
                reads = ", ".join(params) or "no parameters"
                raise ConfigError(f"tasks[{i}].{key}: unknown parameter of {task['task']} (it reads: {reads})")
            if key != "task" and params[key][0] is _frame and value not in frame_names:
                have = ", ".join(map(str, frame_names)) or "none"
                raise ConfigError(f"tasks[{i}]: unknown frame {value!r} (have: {have})")
    return ScenarioConfig(
        name=raw.get("name", "scenario"),
        group_spec=raw["group"],
        subsystems=list(raw["subsystems"]),
        frames=list(raw["frames"]),
        tasks=list(raw["tasks"]),
        seed=_seed(raw),
        tolerance=_tolerance(_number(raw, "tolerance", 1e-9, float), "tolerance"),
    )


def _number(raw: dict, key: str, default, kind):
    try:
        return kind(raw.get(key, default))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected a number, got {raw[key]!r}") from None


def _seed(raw: dict) -> int:
    """The config's PRNG seed: an integral number (a string that reads as one too), never truncated."""
    value = _number(raw, "seed", 0, float)
    if not value.is_integer() or value < 0:
        raise ConfigError(f"seed: expected an integer >= 0, got {raw['seed']!r}")
    return raw["seed"] if type(raw.get("seed")) is int else int(value)


def _tolerance(value: float, source: str) -> float:
    """``value`` if it is a valid Tolerance (finite, non-negative), else a ConfigError."""
    try:
        Tolerance(value)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}, got {value!r}") from None
    return value


def load_config(source: str) -> ScenarioConfig:
    """Load a config from a builtin name or a JSON file path."""
    try:
        return _validate_raw(builtin_config(source))
    except KeyError:
        pass
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
        return parse_config(text)
    raise ConfigError(
        f"{source!r} is neither a builtin scenario nor an existing config file; "
        f"builtins: {', '.join(builtin_names())}"
    )


def _build_group(spec: dict):
    if "builtin" in spec:
        name = spec["builtin"].lower()
        if name == "u1":
            return groups.u1()
        if name == "su2":
            return groups.su2()
        return groups.builtin_group(spec["builtin"])
    if "table" in spec:
        return groups.finite_group_from_table(spec["table"])
    if "table_file" in spec:
        return groups.load_group_table(spec["table_file"])
    raise ConfigError("group spec needs 'builtin', 'table' or 'table_file'")


def _build_rep(group, spec: dict, path: str):
    if "spin_j" in spec:
        if not isinstance(group, groups.LieDescriptor) or group.kind != "SU2":
            raise ConfigError(f"{path}: spin_j representations need the su2 group")
        return reps.spin_rep(spec["spin_j"])
    if "u1_charges" in spec:
        if not isinstance(group, groups.LieDescriptor) or group.kind != "U1":
            raise ConfigError(f"{path}: u1_charges representations need the u1 group")
        return reps.u1_rep(spec["u1_charges"])
    if spec.get("regular"):
        if not isinstance(group, groups.FiniteGroup):
            raise ConfigError(f"{path}: regular representations need a finite group")
        return reps.regular_rep(group)
    if "matrices" in spec:
        if not isinstance(group, groups.FiniteGroup):
            raise ConfigError(f"{path}: per-element matrices need a finite group")
        mats = [_complex_matrix(m, f"{path}.matrices[{k}]") for k, m in enumerate(spec["matrices"])]
        return reps.finite_rep(group, np.stack(mats))
    if "generators" in spec:
        if not isinstance(group, groups.LieDescriptor):
            raise ConfigError(f"{path}: generators need a Lie group")
        gens = [_complex_matrix(m, f"{path}.generators[{k}]") for k, m in enumerate(spec["generators"])]
        return reps.lie_rep(group, np.stack(gens))
    raise ConfigError(f"{path}: unknown representation spec {spec!r}")


def _build_seed(rep, spec, path: str) -> np.ndarray:
    if spec == "uniform":
        return np.ones(rep.dim, dtype=complex) / np.sqrt(rep.dim)
    if spec == "identity_ket":
        if not rep.is_finite or rep.dim != rep.group.order:
            raise ConfigError(f"{path}: 'identity_ket' seeds need a regular representation")
        seed = np.zeros(rep.dim, dtype=complex)
        seed[rep.group.identity_index] = 1.0
        return seed
    vec = _complex_vector(spec, path)
    if vec.size != rep.dim:
        raise ConfigError(f"{path}: seed has {vec.size} amplitudes, representation needs {rep.dim}")
    return vec


def _predicted_dim(group, spec: dict) -> int:
    """Dimension of a rep spec, read without building it; 1 where unreadable, which the builder then reports."""
    try:
        if "spin_j" in spec:
            return int(round(2 * float(spec["spin_j"]))) + 1
        if "u1_charges" in spec:
            return len(spec["u1_charges"])
        return group.order if spec.get("regular") else len(spec.get("matrices", spec.get("generators"))[0])
    except (TypeError, ValueError, KeyError, IndexError, AttributeError, OverflowError):
        return 1


@_config_errors()
def build_scenario(cfg: ScenarioConfig) -> Scenario:
    group = _build_group(cfg.group_spec)
    dims = [_predicted_dim(group, sub["rep"]) for sub in cfg.subsystems]
    kin_dim = math.prod(max(d, 1) for d in dims)  # a non-positive dimension is the builder's error to report
    if kin_dim > MAX_KIN_DIM:
        raise ConfigError(
            f"predicted kinematical dimension {kin_dim} (subsystems {dims}) exceeds MAX_KIN_DIM = {MAX_KIN_DIM}"
        )
    subsystems = []
    for i, sub in enumerate(cfg.subsystems):
        with _config_errors(f"subsystems[{i}].rep"):
            rep = _build_rep(group, sub["rep"], f"subsystems[{i}].rep")
            # a total weight sums one weight per subsystem: within 2^53 / n each, every sum is an exact float64 integer
            if not rep.is_finite and np.abs(w := reps.weight_basis(rep).weights).max() > reps.MAX_WEIGHT // len(dims):
                raise ValueError(f"weights must lie within +-2^53 / {len(dims)} subsystems, got {w}")
            subsystems.append((sub["name"], rep))
    if isinstance(group, groups.FiniteGroup):  # before any frame or tensor forms a dense stack
        n = kin_dim if any(reps.permutation_table(rep) is None for _, rep in subsystems) else max(dims)
        if (rep_bytes := 16 * group.order * n**2) > MAX_REP_BYTES:
            raise ConfigError(f"predicted total representation of {group.order} x {n} x {n} complex entries "
                              f"({rep_bytes / 2**30:.2f} GiB) exceeds MAX_REP_BYTES = {MAX_REP_BYTES / 2**30:.0f} GiB")
    by_name = dict(subsystems)
    frame_map = {}
    for i, fr in enumerate(cfg.frames):
        rep = by_name[fr["subsystem"]]
        seed = _build_seed(rep, fr["seed"], f"frames[{i}].seed")
        with _config_errors(f"frames[{i}] ({fr['name']!r})"):
            frame_map[fr["name"]] = (fr["subsystem"], frames.make_frame(rep, seed, name=fr["name"], tol=cfg.tol()))
    return perspective.make_scenario(group, subsystems, frame_map)


def _integral(value, path: str) -> int:
    """``value`` as an int if it is an integral number, else a ConfigError (no truncation)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _element(scenario: Scenario, frame_name: str, spec, path: str):
    """A frame orientation: 'identity', or the one spec key its group takes ('index', 'theta' or 'su2')."""
    rep = scenario.frame(frame_name).rep
    if spec in (None, "identity"):
        return rep.identity_element()
    key = "index" if rep.is_finite else {"U1": "theta", "SU2": "su2"}[rep.group.kind]
    if not isinstance(spec, dict) or key not in spec:
        raise ConfigError(f"{path}: orientation of frame {frame_name!r} must be 'identity' or {{{key!r}: ...}}")
    if key == "index":
        k = _integral(spec[key], f"{path}.index")
        if not 0 <= k < rep.group.order:
            raise ConfigError(f"{path}: element index {k} outside the group")
        return groups.FiniteElement(rep.group, k)
    try:
        return groups.lie_element(rep.group, np.asarray(spec[key], dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {key} orientation {spec[key]!r}: {exc}") from None


def _frame(s, tol, name, path, args) -> str:
    return name  # _validate_raw has checked it against the config's frames


def _orientation(frame_key: str):
    """The parser of an orientation of the frame that parameter ``frame_key`` names."""
    return lambda s, tol, spec, path, args: _element(s, args[frame_key], spec, path)


def _observable(s, tol, spec, path, args) -> np.ndarray:
    """An operator on the complement of the task's frame: {'matrix': rows} or {'diag': entries}."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: observable must be an object")
    if "matrix" in spec:
        m = _complex_matrix(spec["matrix"], f"{path}.matrix")
    elif "diag" in spec:
        m = np.diag(_complex_vector(spec["diag"], f"{path}.diag"))
    else:
        raise ConfigError(f"{path}: observable needs 'matrix' or 'diag'")
    dim = s.complement_dim(args["frame"])
    if m.shape != (dim, dim):
        raise ConfigError(f"{path}: observable is {m.shape}, expected ({dim}, {dim})")
    return m


def _projector(s, tol, spec, path, args) -> np.ndarray:
    with _config_errors(path):
        return reductions._check_projector(s, args["frame"], _observable(s, tol, spec, path, args), tol)


def _state(s, tol, spec, path, args) -> np.ndarray:
    """A kinematical state: a physical basis column, or normalized physical coefficients or amplitudes."""
    if not isinstance(spec, dict) or not {"basis_index", "coefficients", "amplitudes"} & spec.keys():
        raise ConfigError(f"{path}: state needs 'basis_index', 'coefficients' or 'amplitudes'")
    ps = perspective.physical_space(s, tol)  # cached on the scenario, so ``run`` builds it once
    if "basis_index" in spec:
        k = _integral(spec["basis_index"], f"{path}.basis_index")
        if not 0 <= k < ps.dim:
            raise ConfigError(f"{path}: basis_index {k} outside physical dimension {ps.dim}")
        return ps.basis.columns(k, k + 1)[:, 0]
    if "coefficients" in spec:
        v = _complex_vector(spec["coefficients"], f"{path}.coefficients")
        if v.size != ps.dim:
            raise ConfigError(f"{path}: need {ps.dim} physical coefficients")
        v = ps.basis @ v
    else:
        v = _complex_vector(spec["amplitudes"], f"{path}.amplitudes")
        if v.size != s.kin_dim:
            raise ConfigError(f"{path}: need {s.kin_dim} kinematical amplitudes")
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ConfigError(f"{path}: state has zero norm")
    return v / nrm


def parse_tasks(cfg: ScenarioConfig, scenario: Scenario) -> list[dict]:
    """Every task's parameters in its ``_TASKS`` order, each parser taking (scenario, tol, spec, path, args) with
    ``args`` the parameters parsed before it.  ``qrf check`` and ``run`` both call this before any task runs, so a
    parameter mistake is a ConfigError ``tasks[i].<param>: <message>`` from both."""
    tol, parsed = cfg.tol(), []
    for i, task in enumerate(cfg.tasks):
        args: dict = {}
        for key, (parse, default) in _TASKS[task["task"]][1].items():
            path = f"tasks[{i}].{key}"
            if key not in task and default is None:
                raise ConfigError(f"{path}: missing required parameter")
            args[key] = parse(scenario, tol, task.get(key, default), path, args)
        parsed.append(args)
    return parsed


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (complex, np.complexfloating)):
        return [float(np.real(x)), float(np.imag(x))]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist()) if np.iscomplexobj(x) else x.tolist()
    if isinstance(x, (np.bool_, np.integer, np.floating)):
        return x.item()
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if isinstance(x, groups.FiniteElement):
        return {"index": x.index}
    if isinstance(x, groups.LieElement):
        return {"theta": x.coords[0]} if x.descriptor.kind == "U1" else {"su2": list(x.coords)}
    raise TypeError(f"no JSON form for a report value of type {type(x).__name__}")


def _task_phys_space(scenario, ps, tol, rng):
    return {"dim": ps.dim, "kin_dim": scenario.kin_dim, "basis": basis_table(ps)}, [ps.invariance_check(tol)]


def _task_rel_obs(scenario, ps, tol, rng, frame, orientation, observable):
    obs = perspective.relational_observable(scenario, frame, orientation, observable, tol, check=False)
    results = {"frame": frame, "orientation": obs.orientation, "restricted_matrix": ps.restrict(obs.op)}
    return results, [perspective.dirac_check(scenario, obs.op, tol)]


def _task_reduce(scenario, ps, tol, rng, frame, orientation, state):
    reduced, check = reductions.isometry_check(ps, frame, orientation, state, tol)
    return {"frame": frame, "orientation": orientation, "reduced_amplitudes": reduced}, [check]


def _task_probabilities(scenario, ps, tol, rng, frame, orientation, projector, state):
    p = reductions.conditional_probability(ps, frame, orientation, projector, state, tol)
    return {"frame": frame, "orientation": orientation, "probability": p}, [reductions.unit_interval_check(p, tol)]


def _task_frame_change(scenario, ps, tol, rng, f_from, f_to, g_from, g_to):
    change = framechange.frame_change(ps, f_from, g_from, f_to, g_to, tol)
    return {"from": f_from, "to": f_to, "shape": change.op.shape, "scale_notes": change.scale_notes}, [change.check]


def _task_reorient(scenario, ps, tol, rng, frame, orientation, g, observable):
    moved, check = framechange.reorientation_check(scenario, frame, orientation, g, observable, tol)
    return {"frame": frame, "new_orientation": moved.orientation}, [check]


def _task_lr_classify(scenario, ps, tol, rng, frame):
    v_rep, report = frames.lr_classify(scenario.frame(frame), tol)
    return {"frame": frame, "lr_exists": v_rep is not None, "report": report}, []


def _task_subsystem_relativity(scenario, ps, tol, rng, frame1, frame2):
    report = framechange.subsystem_relativity_report(scenario, frame1, frame2, tol)
    return report, [report.pop("check")] if "check" in report else []  # none when both name the same frame


# Each task's runner and the parameters it reads, in the order they are parsed and passed to the runner after
# (scenario, ps, tol, rng), each as (parser, default spec); a default of None makes the parameter required.
_FRAME, _AT = (_frame, None), (_orientation("frame"), "identity")
_TASKS = {
    "phys_space": (_task_phys_space, {}),
    "rel_obs": (_task_rel_obs, {"frame": _FRAME, "orientation": _AT, "observable": (_observable, None)}),
    "reduce": (_task_reduce, {"frame": _FRAME, "orientation": _AT, "state": (_state, None)}),
    "probabilities": (_task_probabilities, {"frame": _FRAME, "orientation": _AT, "projector": (_projector, None),
                                            "state": (_state, None)}),
    "frame_change": (_task_frame_change, {"from": _FRAME, "to": _FRAME, "g_from": (_orientation("from"), "identity"),
                                          "g_to": (_orientation("to"), "identity")}),
    "reorient": (_task_reorient, {"frame": _FRAME, "orientation": _AT, "g": (_orientation("frame"), None),
                                  "observable": (_observable, None)}),
    "lr_classify": (_task_lr_classify, {"frame": _FRAME}),
    "subsystem_relativity": (_task_subsystem_relativity, {"frame1": _FRAME, "frame2": _FRAME}),
    "full_report": (full_report, {}),
}
_KNOWN_TASKS = tuple(_TASKS)


def run(cfg: ScenarioConfig) -> dict:
    """Parse every task's parameters, then execute the tasks in order; library rejections are reported per task."""
    scenario, tol = build_scenario(cfg), cfg.tol()
    parsed = parse_tasks(cfg, scenario)
    ps = perspective.physical_space(scenario, tol)
    rng = np.random.default_rng(cfg.seed)
    tasks_out, failed, total = [], 0, 0
    for task, args in zip(cfg.tasks, parsed):
        record: dict = {"task": task["task"], "params": {k: v for k, v in task.items() if k != "task"}}
        try:
            results, checks = _TASKS[task["task"]][0](scenario, ps, tol, rng, *args.values())
            record["results"], record["checks"] = results, [c.as_dict() for c in checks]
        except (ValueError, np.linalg.LinAlgError) as exc:
            record["error"] = str(exc)
        verdicts = [c["pass"] for c in record["checks"]] if "checks" in record else [False]  # an error fails once
        total += len(verdicts)
        failed += verdicts.count(False)
        tasks_out.append(record)
    return _jsonable({
        "tool": {"name": "qrf", "version": __version__},
        "seed": cfg.seed,
        "tolerance": cfg.tolerance,
        "scenario": {"name": cfg.name, "group": cfg.group_spec, "subsystems": cfg.subsystems, "frames": cfg.frames},
        "tasks": tasks_out,
        "summary": {"checks_total": total, "checks_failed": failed},
    })


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt_complex(pair) -> str:
    re, im = (pair if isinstance(pair, (list, tuple)) else (pair, 0.0))
    return f"{re:+.6f}{im:+.6f}i"


def _emit_table_value(value, indent: int, lines: list[str], key: str) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _emit_table_value(v, indent + 1, lines, k)
    elif isinstance(value, list) and value and isinstance(value[0], list) and len(value[0]) == 2 and all(
            isinstance(x, (int, float)) for x in value[0]):
        lines.append(f"{pad}{key}: [{', '.join(_fmt_complex(v) for v in value)}]")
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        lines.append(f"{pad}{key}:")
        for i, v in enumerate(value):
            _emit_table_value(v, indent + 1, lines, f"[{i}]")
    elif isinstance(value, list) and value and isinstance(value[0], list):
        lines.append(f"{pad}{key}:")
        for i, v in enumerate(value):
            _emit_table_value(v, indent + 1, lines, f"row{i}")
    elif isinstance(value, float):
        lines.append(f"{pad}{key}: {value:.6g}")
    else:
        lines.append(f"{pad}{key}: {value}")


def emit(report: dict, format: str = "json") -> str:
    """Serialize a report: full-precision stable JSON or a rounded text table."""
    if format == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if format != "table":
        raise ValueError(f"unknown format {format!r}")
    lines = [f"qrf {report['tool']['version']} scenario report: {report['scenario']['name']}",
             f"seed={report['seed']} tolerance={report['tolerance']}"]
    for record in report["tasks"]:
        lines += ["", f"== task: {record['task']}"]
        if "error" in record:
            lines.append(f"  ERROR: {record['error']}")
            continue
        _emit_table_value(record.get("results", {}), 1, lines, "results")
        for c in record.get("checks", []):
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"  [{status}] {c['name']}: residual {c['residual']:.3e} (tol {c['tol']:.1e})")
    s = report["summary"]
    lines += ["", f"checks: {s['checks_total'] - s['checks_failed']}/{s['checks_total']} passed"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qrf", description="quantum reference frame scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a builtin or config-file scenario")
    run_p.add_argument("scenario", help="builtin name or path to a JSON config")
    run_p.add_argument("--format", choices=("json", "table"), default="json")
    run_p.add_argument("--tol", type=float, default=None, help="override tolerance")
    run_p.add_argument("--seed", type=int, default=None, help="override PRNG seed")
    run_p.add_argument("--out", default=None, help="write the report to a file")

    sub.add_parser("list-builtins", help="list builtin scenario names")

    check_p = sub.add_parser("check", help="parse and validate a config without running it")
    check_p.add_argument("scenario", help="builtin name or path to a JSON config")

    args = parser.parse_args(argv)
    if args.command == "list-builtins":
        for name in builtin_names():
            print(name)
        return 0
    try:  # any exception other than a ConfigError is a run or write that cannot finish, exit 2 as well
        cfg = load_config(args.scenario)
        if getattr(args, "tol", None) is not None:  # check has no --tol but reads QRF_TOL like run
            cfg.tolerance = _tolerance(args.tol, "--tol")
        elif "QRF_TOL" in os.environ:
            cfg.tolerance = _tolerance(_number(os.environ, "QRF_TOL", None, float), "QRF_TOL")
        if args.command == "check":
            parse_tasks(cfg, build_scenario(cfg))
            print(f"config ok: {cfg.name}")
            return 0
        if args.seed is not None:
            cfg.seed = _seed({"seed": args.seed})
        report = run(cfg)
        text = emit(report, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if report["summary"]["checks_failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
