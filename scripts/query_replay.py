#!/usr/bin/env python3
"""Replay the benchmark's warm queries on two source checkouts, alternating them.

Usage: python scripts/query_replay.py OLD NEW SCENARIO [--seconds S] [--rounds N] [--seed K]

OLD and NEW are the roots of two checkouts of this repository.  Each round
runs one `perfbench/child.py query SCENARIO` child per checkout, each with its
own `perfbench/child.py` and its own `src` on PYTHONPATH, for S seconds
(default 3); the side that goes first alternates from round to round, and
round r passes `--part r`, so both sides draw the same queries in a round.
SCENARIO is a query scenario of `perfbench/workloads.py` (read from NEW),
such as `u1-8-qubits` or `finite-regular:S3`; a generated config is written
to a temporary directory, and nothing under `perfbench/` is written.

For each side it prints every query kind's median, upper quartile and share
of the pooled query time, and the pooled p50, p90 and queries/s of all
queries, computed as `perfbench/run.py` computes them, with the kind of the
query nearest the pooled p90: the kind that sets queries/s is the one with the
largest share, and the one that sets p90 is named.  Then it prints the NEW/OLD
ratio of each figure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def summarize(outputs: list[dict]) -> dict:
    """Figures of the query children of one side: per kind (median, upper quartile) in ms and its share of the pooled
    query time, pooled p50 and p90 in ms and queries/s, and the kind of the query nearest the pooled p90; each output
    is a child's JSON, {"queries": [[kind, seconds, ok], ...], ...}."""
    by_kind: dict[str, list[float]] = {}
    for out in outputs:
        for kind, seconds, _ in out["queries"]:
            by_kind.setdefault(kind, []).append(seconds)
    pooled = [t for times in by_kind.values() for t in times]
    kinds = {kind: (1e3 * statistics.median(times), 1e3 * _upper_quartile(times))
             for kind, times in sorted(by_kind.items())}
    p90 = statistics.quantiles(pooled, n=10)[8] if len(pooled) > 1 else None
    return {
        "kinds": kinds,
        "shares": {kind: sum(times) / sum(pooled) for kind, times in sorted(by_kind.items())},
        "count": len(pooled),
        "failed": sum(1 for out in outputs for _, _, ok in out["queries"] if not ok),
        "query_p50_ms": 1e3 * statistics.median(pooled) if pooled else None,
        "query_p90_ms": None if p90 is None else 1e3 * p90,
        "p90_kind": None if p90 is None else min(
            ((abs(t - p90), kind) for kind, times in by_kind.items() for t in times))[1],
        "queries_per_s": len(pooled) / sum(pooled) if pooled else None,
    }


def _upper_quartile(times: list[float]) -> float:
    return statistics.quantiles(times, n=4)[2] if len(times) > 1 else times[0]


def format_summary(label: str, summary: dict) -> list[str]:
    lines = [f"{label}: {summary['count']} queries, {summary['failed']} failed"]
    lines += [f"  {kind:20s} median {p50:8.4f} ms  upper quartile {q3:8.4f} ms  share {summary['shares'][kind]:6.1%}"
              for kind, (p50, q3) in summary["kinds"].items()]
    lines.append(f"  pooled p50 {_ms(summary['query_p50_ms'])}  p90 {_ms(summary['query_p90_ms'])}  "
                 f"queries/s {summary['queries_per_s'] or 0:.0f}  p90 falls in {summary['p90_kind'] or 'n/a'}")
    return lines


def format_ratios(old: dict, new: dict) -> list[str]:
    """NEW/OLD for each kind's median and upper quartile and for the pooled figures."""
    lines = ["NEW/OLD:"]
    for kind in sorted(set(old["kinds"]) & set(new["kinds"])):
        (o50, o75), (n50, n75) = old["kinds"][kind], new["kinds"][kind]
        lines.append(f"  {kind:20s} median {n50 / o50:6.3f}  upper quartile {n75 / o75:6.3f}")
    pooled = [(key, old[key], new[key]) for key in ("query_p50_ms", "query_p90_ms", "queries_per_s")]
    lines.append("  " + "  ".join(f"{key} {n / o:6.3f}" for key, o, n in pooled if o and n))
    return lines


def _ms(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f} ms"


def _source(new: Path, scenario: str, config_dir: Path) -> str:
    """The argument `child.py query` takes for a scenario of NEW's workloads, writing its generated config if any."""
    sys.path.insert(0, str(new / "perfbench"))
    import workloads

    known = {s.name: s for w in workloads.WORKLOADS.values() for s in w.reports + w.queries}
    if scenario not in known:
        raise SystemExit(f"unknown scenario {scenario!r}; known: {', '.join(sorted(known))}")
    found = known[scenario]
    if found.config is not None:
        (config_dir / f"{found.name}.json").write_text(json.dumps(found.config, indent=1), encoding="utf-8")
    return found.source(config_dir)


def _child(root: Path, source: str, seed: int, part: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(2, len(os.sched_getaffinity(0))))
    argv = [sys.executable, str(root / "perfbench" / "child.py"), "query", source,
            "--seed", str(seed), "--part", str(part), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Alternate warm-query children of two checkouts.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("scenario")
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=301)
    args = parser.parse_args(argv)
    sides = {"OLD": args.old.resolve(), "NEW": args.new.resolve()}
    outputs: dict[str, list[dict]] = {label: [] for label in sides}
    with tempfile.TemporaryDirectory() as config_dir:
        source = _source(sides["NEW"], args.scenario, Path(config_dir))
        for r in range(args.rounds):
            for label in ("OLD", "NEW") if r % 2 == 0 else ("NEW", "OLD"):
                outputs[label].append(_child(sides[label], source, args.seed, r, args.seconds))
    summaries = {label: summarize(outs) for label, outs in outputs.items()}
    for label, summary in summaries.items():
        print("\n".join(format_summary(f"{label} {sides[label]}", summary)))
    print("\n".join(format_ratios(summaries["OLD"], summaries["NEW"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
