"""qrf benchmark: cold reports, cold set-up and warm queries, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qrf is imported from ``src``.  Load
is a closed loop from this one process: each child starts after the previous
one has been reaped, so at most one runs at a time.  Every child gets the
same BLAS thread count.  The seed is the ``--seed`` of every report and the
seed of the query generator; qrf itself sees only the generated configs.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
reports and queries once untraced and once with spans around every layer
(see spans.py), and reports per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, Scenario, Workload, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CONFIGS = WORK / "configs"
TRACES = WORK / "traces"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
RUN_LIMIT_S = 170.0  # children not started by then count as failed
TRACED_QUERIES = 300  # per query scenario, in each pass of a traced run
QUERY_SLICES = 3  # warm-query children per query scenario in an untraced run

END_TO_END = {
    "setup_s": "s",
    "report_wall_s": "s",
    "peak_rss_mib": "MiB",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}

# Per-layer metrics of the JSON line.  Self times only of functions that every
# workload calls, so that no time reads a constant 0; the traced run prints and
# writes every metric of spans.summarize.
_NOT_EVERYWHERE = {
    "reps.invariant_closure",  # the CLI never calls it
    "reductions.schrodinger_map",  # same-frame changes: U(1) queries only
    "framechange.reorient",  # finite frames only: not in lie-scaling
    "framechange.relation_conditional_reorient",  # symmetry layer: finite-regular, query-mix
    "framechange.restricted_unit_family",
    "framechange.subsystem_relativity_report",
}
PER_LAYER = (
    tuple(f"{layer}.self_s" for layer in spans.LAYERS)
    + tuple(f"{fn}.self_s" for fn in spans.FUNCTIONS if fn not in _NOT_EVERYWHERE)
    + tuple(f"{fn}.calls" for fn in spans.FUNCTIONS)
    + spans.COUNTERS
    + ("traced_wall_s", "trace_overhead_s")
)


def layer_unit(name: str) -> str:
    if name.endswith("calls"):
        return "count"
    if name.endswith("flop_computed"):
        return "flop"
    return "MiB" if name.endswith("_mib") else "s"


@dataclass
class Child:
    start: float  # time.monotonic() just before the spawn
    wall_s: float
    rss_mib: float
    ok: bool  # exited 0 within the run's time limit
    stdout: str


@dataclass
class Tally:
    """Operations attempted and failed, and the largest per-child peak RSS."""

    attempted: int = 0
    failed: int = 0
    peak_rss_mib: float = 0.0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], deadline: float, tally: Tally) -> Child | None:
    """Run one child to completion.  Peak RSS is read from that child's own
    rusage (``os.wait4``), not from RUSAGE_CHILDREN, which keeps the maximum
    over every child reaped so far."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None
    with open(WORK / "child.out", "w+", encoding="utf-8") as out, \
            open(WORK / "child.err", "a", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(proc.pid, signal.SIGKILL))
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        child = Child(start, wall, usage.ru_maxrss / 1024.0, proc.returncode == 0, out.read())
    tally.peak_rss_mib = max(tally.peak_rss_mib, child.rss_mib)
    return child


def observed_outputs(report: dict | None) -> dict | None:
    """The outputs of a full report that the pins fix, or None if it has none."""
    try:
        res = report["tasks"][0]["results"]
        sym = res.get("symmetry_layer")
        return {
            "kin_dim": res["kin_dim"],
            "phys_dim": res["phys_dim"],
            "checks_total": report["summary"]["checks_total"],
            "frames": {
                name: {k: entry[k] for k in ("reduced_space_dim", "conditional_span_dim")}
                for name, entry in res["frames"].items()
            },
            "symmetry_layer": None if sym is None else {
                "algebra_dims": list(sym["subsystem_relativity"]["algebra_dims"]),
                "overlap_dim": sym["subsystem_relativity"]["overlap_dim"],
            },
        }
    except (KeyError, IndexError, TypeError):
        return None


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.tally = Tally()
        self.pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
        self.env: dict = {}  # versions, as the last query child reported them
        self._traces = 0

    def _trace_file(self) -> str:
        self._traces += 1
        return str(TRACES / f"{self._traces}.json")

    def report(self, scenario: Scenario, traced: bool = False) -> tuple[Child | None, dict | None]:
        """One cold ``qrf run``.  Its checks are the operations; all of them
        fail if it crashes, exits non-zero or differs from the pinned outputs."""
        out = WORK / "report.json"
        out.unlink(missing_ok=True)
        source = scenario.source(CONFIGS)
        common = ["--seed", str(self.seed), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "report", source, *common, "--trace", self._trace_file()]
        else:
            argv = [sys.executable, "-m", "qrf.cli", "run", source, "--format", "json", *common]
        child = spawn(argv, self.deadline, self.tally)
        pinned = self.pinned[scenario.name]
        report = json.loads(out.read_text(encoding="utf-8")) if child and child.ok else None
        observed = observed_outputs(report)
        if observed == pinned:
            self.tally.add(pinned["checks_total"], report["summary"]["checks_failed"])
        else:
            self.tally.add(pinned["checks_total"], pinned["checks_total"],
                           f"{scenario.name}: report failed or differs from its pinned outputs")
        return child, observed

    def setup(self, scenario: Scenario) -> float | None:
        """Seconds from spawning a child until the scenario is ready in it."""
        child = spawn([sys.executable, str(HERE / "child.py"), "setup", scenario.source(CONFIGS)],
                      self.deadline, self.tally)
        ok = child is not None and child.ok
        self.tally.add(1, 0 if ok else 1, f"{scenario.name}: set-up failed")
        return json.loads(child.stdout)["ready"] - child.start if ok else None

    def queries(self, scenario: Scenario, seconds: float = 0.0, count: int | None = None,
                traced: bool = False, part: int = 0) -> tuple[Child | None, list]:
        """Warm queries in one child for ``seconds``, or exactly ``count`` of them;
        ``part`` numbers the children of one run, so each draws other queries.
        A child that fails counts as one failed operation, or as ``count``."""
        argv = [sys.executable, str(HERE / "child.py"), "query", scenario.source(CONFIGS),
                "--seed", str(self.seed), "--part", str(part)]
        argv += ["--seconds", str(seconds)] if count is None else ["--count", str(count)]
        if traced:
            argv += ["--trace", self._trace_file()]
        child = spawn(argv, self.deadline, self.tally)
        if child is None or not child.ok:
            self.tally.add(count or 1, count or 1, f"{scenario.name}: query child failed")
            return child, []
        result = json.loads(child.stdout)
        done = result["queries"]
        bad = sum(1 for _, _, ok in done if not ok)
        self.tally.add(len(done), bad, f"{scenario.name}: {bad} of {len(done)} queries failed")
        self.env = result["env"]
        return child, done


def _walls(children) -> float | None:
    """Summed wall time of a pass, or None if any child did not run."""
    if any(c is None for c in children):
        return None
    return sum(c.wall_s for c in children)


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics with tracing off."""
    w = run.workload
    lines = []
    # Warm queries run in QUERY_SLICES children per query scenario, spread
    # among the cold children, so that they sample the host's speed over the
    # whole run: under load it swings by 20-40% over tens of seconds.
    latencies = []
    slice_s = w.query_seconds * seconds / (QUERY_SLICES * len(w.queries))
    cold_total = 2 * len(w.reports)  # one set-up and one report per scenario
    due = {cold_total * (k + 1) // QUERY_SLICES: k for k in range(QUERY_SLICES)}

    def interleave(cold_done: int) -> None:
        if cold_done in due:
            for scenario in w.queries:
                _, done = run.queries(scenario, slice_s, part=due[cold_done])
                latencies.extend(t for _, t, _ in done)

    # Cold reports: one pass, and after the set-up further passes until their
    # summed time reaches ``seconds``.
    children = []
    for i, s in enumerate(w.reports, 1):
        children.append(run.report(s)[0])
        interleave(i)
    passes = [_walls(children)]
    # Cold set-up, each scenario in a child of its own, so no report inflates its RSS.
    # Once per scenario: a second round would cost the report workloads 15-20 s a run.
    setups = []
    for i, s in enumerate(w.reports, len(w.reports) + 1):
        setups.append(run.setup(s))
        interleave(i)
    while passes[-1] is not None and sum(passes) < seconds:
        children = [run.report(s)[0] for s in w.reports]
        passes.append(_walls(children))
    for s, c in zip(w.reports, children):
        if c is not None:
            lines.append(f"  report {s.name:24s} {c.wall_s:8.3f} s {c.rss_mib:8.1f} MiB")
    lines.append(f"  {len(passes)} report pass(es) over {len(w.reports)} scenarios, {len(latencies)} queries")
    metrics = {
        "setup_s": None if None in setups else sum(setups),
        "report_wall_s": _median(passes),
        "peak_rss_mib": run.tally.peak_rss_mib,
        "queries_per_s": len(latencies) / sum(latencies) if latencies else None,
        "query_p50_ms": 1e3 * statistics.median(latencies) if latencies else None,
        "query_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else None,
    }
    beyond = sum(1 for t in latencies if 1e3 * t > (metrics["query_p90_ms"] or float("inf")))
    lines.append(f"  queries: n={len(latencies)}, {beyond} beyond p90")
    return metrics, lines


def measure_traced(run: Run) -> tuple[dict, list[str], dict]:
    """Per-layer metrics.  Each report and each query child (a fixed number of
    queries, so counts repeat exactly) runs untraced and then traced, back to
    back, so that a drift in machine speed moves both sides of the overhead."""
    w = run.workload
    sizes = {}
    children: dict[bool, list] = {False: [], True: []}
    for s in w.reports:
        for traced in (False, True):
            child, seen = run.report(s, traced)
            children[traced].append(child)
            if seen is not None:
                sizes[s.name] = {"group_order": s.group_order, "kin_dim": seen["kin_dim"], "phys_dim": seen["phys_dim"]}
    for s in w.queries:
        for traced in (False, True):
            children[traced].append(run.queries(s, count=TRACED_QUERIES, traced=traced)[0])
    walls = {traced: _walls(c) for traced, c in children.items()}
    traces = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(TRACES.iterdir())]
    layer = spans.summarize(traces)
    if walls[True] is not None and walls[False] is not None:
        layer["traced_wall_s"] = walls[True]
        layer["trace_overhead_s"] = walls[True] - walls[False]
    lines = [f"  size {name:24s} " + " ".join(f"{k} {v}" for k, v in size.items()) for name, size in sizes.items()]
    lines += [f"  {name:58s} {value:.6g}" for name, value in layer.items()]
    return layer, lines, {"untraced_wall_s": walls[False], "sizes": sizes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least time spent on cold report passes; the unit of warm-query time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "qrf" / "cli.py").is_file():
        print(f"error: no qrf sources under {ROOT / 'src'}; run from a qrf checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    TRACES.mkdir(parents=True)
    write_configs(workload, CONFIGS)
    run = Run(workload, args.seed)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    if args.trace:
        values, lines, extra = measure_traced(run)
        units = {name: layer_unit(name) for name in values}
        wanted = PER_LAYER
    else:
        values, lines = measure(run, args.seconds)
        units = END_TO_END
        wanted = tuple(END_TO_END)
        extra = {}
    print("\n".join(lines))
    print("  env: " + ", ".join(f"{k} {v}" for k, v in run.env.items())
          + f", BLAS threads {BLAS_THREADS}, nproc {NPROC}, seed {run.seed}")
    t = run.tally
    print(f"  failed_frac {t.failed / max(t.attempted, 1):.6g} ({t.failed} of {t.attempted} operations)")
    for note in t.notes:
        print(f"  FAILED: {note}")
    missing = [name for name in wanted if values.get(name) is None]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": run.env,
              "blas_threads": BLAS_THREADS, "nproc": NPROC, "metrics": values, **extra}
    (WORK / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    result = {
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
