"""Spans around the public functions of each qrf layer, recorded from outside.

``install`` wraps the functions listed in ``LAYERS`` and rebinds every
module-level alias of them inside ``qrf`` (``perspective`` imports
``group_average`` by name, ``cli`` and ``framechange`` import
``physical_space``, and so on), so no call bypasses its span.  Spans stay in
memory and are written out once, when the traced child exits.

``self_times`` and ``summarize`` turn spans into per-function and per-layer
self times; they need only the standard library, so the parent process can
use them without importing qrf.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Layers are qrf's modules; ``groups`` stays below 1 ms everywhere and is not traced.
LAYERS = {
    "cli": ("load_config", "build_scenario", "run", "emit"),
    "frames": ("make_frame", "lr_classify"),
    "reps": ("tensor", "isotypic_decompose", "group_average", "fixed_subspace", "invariant_closure"),
    "linalg": ("orthonormal_range", "joint_fixed_subspace"),
    "perspective": (
        "make_scenario", "physical_space", "relational_observable", "strong_dirac_defect",
        "system_projector", "orientation_independent", "physical_system_span",
        "check_weak_homomorphism", "conditional_inner_product_check",
    ),
    "reductions": (
        "schrodinger_reduce", "schrodinger_map", "conditional_probability", "solve_theta",
        "disentangler", "heisenberg_reduce",
    ),
    "framechange": (
        "frame_change", "reorient", "relation_conditional_reorient", "restricted_unit_family",
        "subsystem_relativity_report",
    ),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Counters computed from call arguments, so they repeat exactly between runs.
COUNTERS = (
    "reps.group_average.flop_computed",
    "reps.group_average.operand_mib",
    "reps.isotypic_decompose.distinct_calls",
    "perspective.physical_space.distinct_calls",
)

now = time.perf_counter


class Recorder:
    """Spans ``[name, parent index or -1, start, end]`` and argument counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._seen: dict[str, list] = {}  # argument keys seen, with the objects kept alive

    def span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            index = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else -1, now(), None])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][3] = now()

        return wrapper

    def first_seen(self, counter: str, obj, *key) -> None:
        """Count a call whose (object, key) pair this process has not seen before."""
        seen = self._seen.setdefault(counter, [])
        if not any(o is obj and k == key for o, k in seen):
            seen.append((obj, key))  # holding obj keeps its id from being reused
            self.counters[counter] += 1


def _argument_counters(rec: Recorder, name: str, fn):
    """The argument-derived counters of the three functions that have them, else None."""
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    def group_average(*args, **kwargs):
        a = bound(args, kwargs)
        d = a["rep"].dim
        rec.counters["reps.group_average.operand_mib"] += d * d * 16 / 2**20
        if a["rep"].is_finite and a["mode"] == "twirl":
            # 2|G| complex d x d matmuls at 8 real flops per complex multiply-add
            rec.counters["reps.group_average.flop_computed"] += 2 * a["rep"].group.order * 8 * d**3

    def isotypic_decompose(*args, **kwargs):
        a = bound(args, kwargs)
        rec.first_seen("reps.isotypic_decompose.distinct_calls", a["rep"], a["tol"], a["seed"])

    def physical_space(*args, **kwargs):
        a = bound(args, kwargs)
        rec.first_seen("perspective.physical_space.distinct_calls", a["s"], a["tol"])

    return {
        "reps.group_average": group_average,
        "reps.isotypic_decompose": isotypic_decompose,
        "perspective.physical_space": physical_space,
    }.get(name)


def install(rec: Recorder) -> None:
    """Wrap every function in LAYERS and rebind all of its aliases inside qrf."""
    for layer, fns in LAYERS.items():
        module = importlib.import_module(f"qrf.{layer}")
        for fn_name in fns:
            original = getattr(module, fn_name)
            name = f"{layer}.{fn_name}"
            wrapper = rec.span(name, original, _argument_counters(rec, name, original))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qrf" or mod_name.startswith("qrf."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


# ---------------------------------------------------------------------------
# span arithmetic (standard library only)
# ---------------------------------------------------------------------------


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _covered(start, end, kids) for (_, _, start, end), kids in zip(spans, children)]


def summarize(traces: list[dict]) -> dict[str, float]:
    """Per-function ``.self_s``/``.calls``, per-layer ``.self_s`` and summed counters."""
    out: dict[str, float] = {}
    for name in FUNCTIONS:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for name in COUNTERS:
        out[name] = 0
    for trace in traces:
        spans = trace["spans"]
        for (name, _, _, _), own in zip(spans, self_times(spans)):
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
            out[f"{name.split('.', 1)[0]}.self_s"] += own
        for name, value in trace["counters"].items():
            out[name] += value
    return out
