#!/usr/bin/env python3
"""Print the peak-memory growth and wall time of each major library stage of one ``cli.run``.

Usage: PYTHONPATH=src python scripts/stage_peaks.py SCENARIO [--traced]

SCENARIO is what ``qrf run`` takes: a builtin name or a config file.  Each
name in STAGES is rebound, in every loaded ``qrf`` module that holds it, to a
wrapper that reads ``ru_maxrss`` before and after the call; the process's
high-water mark only grows, so a stage shows growth only when it sets a new
peak.  Stages nest (the held observables ``_twirled`` builds inside the weak
homomorphism check), so a line is one stage under one chain of enclosing stages, printed
as a tree under its enclosing stage, in the order of first calls.  ``--traced`` also runs
``tracemalloc`` and prints the largest traced size inside each stage, counted
from the start of the run: the live Python allocations at the stage's peak,
which is what a kinematical-square array shows up in.  Uses only the standard
library and ``qrf``.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
import tracemalloc

from qrf import cli

STAGES = [
    "cli.build_scenario",
    "reps.tensor",
    "perspective.physical_space",
    "reps.fixed_subspace",
    "reps.invariant_closure",
    "frames.lr_classify",
    "perspective.orientation_independent",
    "perspective.physical_system_span",
    "perspective.schrodinger_map",
    "reductions.solve_theta",
    "reductions.trinity_check",
    "reductions.product_form_check",
    "reductions.disentangler",
    "linalg.random_hermitian",
    "perspective.check_weak_homomorphism",
    "perspective.relational_observable",
    "perspective._twirled",
    "perspective.conditional_inner_product_check",
    "framechange.frame_change",
    "framechange.reorientation_check",
    "framechange.relation_conditional_check",
    "framechange.relation_conditional_reorient",
    "framechange.subsystem_relativity_report",
]


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Recorder:
    """Per chain of open stages, in first-call order: calls, wall seconds, ru_maxrss growth and largest traced size."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.rows: dict[tuple, list] = {}
        self.path: list[str] = []  # the open stages, outermost first
        self.peaks = [0]  # running traced peak of each open stage, the whole run at the bottom

    def _fold(self) -> None:  # the traced peak since the last reset, into the innermost open stage
        if self.traced:
            self.peaks[-1] = max(self.peaks[-1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def stage(*args, **kwargs):
            self.path.append(name)
            row = self.rows.setdefault(tuple(self.path), [0, 0.0, 0.0, 0])
            self._fold()
            self.peaks.append(0)
            rss, t0 = _maxrss_mib(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.path.pop()
                row[0] += 1
                row[1] += time.perf_counter() - t0
                row[2] += _maxrss_mib() - rss
                self._fold()
                peak = self.peaks.pop()
                row[3] = max(row[3], peak)
                self.peaks[-1] = max(self.peaks[-1], peak)

        return stage


def install(recorder: Recorder) -> None:
    """Rebind every stage in each loaded qrf module that holds it, so calls by module attribute and by
    imported name are both seen."""
    modules = [m for n, m in sys.modules.items() if n == "qrf" or n.startswith("qrf.")]
    for spec in STAGES:
        mod_name, attr = spec.rsplit(".", 1)
        original = getattr(importlib.import_module(f"qrf.{mod_name}"), attr)
        wrapped = recorder.wrap(spec, original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    recorder = Recorder("--traced" in sys.argv)
    install(recorder)
    cfg = cli.load_config(args[0])
    start = _maxrss_mib()
    if recorder.traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    report = cli.run(cfg)
    wall = time.perf_counter() - t0
    recorder._fold()
    print(f"{args[0]}: {report['summary']['checks_total']} checks in {wall:.3f} s; "
          f"ru_maxrss {start:.1f} -> {_maxrss_mib():.1f} MiB"
          + (f"; traced peak {recorder.peaks[0] / 2**20:.2f} MiB" if recorder.traced else ""))
    print(f"{'stage':52s} {'calls':>5s} {'wall s':>8s} {'+maxrss MiB':>12s}" + (" traced MiB" if recorder.traced else ""))
    first = {path: n for n, path in enumerate(recorder.rows)}  # a stage's row is made before any nested one
    for path in sorted(first, key=lambda p: [first[p[:i]] for i in range(1, len(p) + 1)]):
        calls, secs, grown, peak = recorder.rows[path]
        traced = f" {peak / 2**20:10.2f}" if recorder.traced else ""
        print(f"{'  ' * (len(path) - 1) + path[-1]:52s} {calls:5d} {secs:8.3f} {grown:12.1f}{traced}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
