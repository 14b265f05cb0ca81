#!/usr/bin/env python3
"""Run every builtin scenario's full report, and any given config files, and write the JSON files.

Usage: python scripts/run_builtins.py [outdir] [CONFIG.json ...] [--skip-big] [--bench-configs]

A builtin's report is written as <name with ':' replaced by '_'>.json and a
config file's as <file stem>.json, so two runs of the same sources can be
diffed with scripts/compare_reports.py, which also says which pairs are
byte-identical.  --bench-configs also writes the benchmark's
generated configs (the 7 that perfbench/workloads.py defines beside the
builtins) into <outdir>/configs with `workloads.write_configs` and runs them,
so the 12 builtins and the 7 benchmark configs are one command.
--skip-big leaves out the order-8 regular builtins (512-dim kinematical
spaces).  In process on 2 cores (medians of 5 runs) those take 0.27-0.30 s
each, finite-regular:S3 about 0.05 s, and every other builtin under 0.1 s.
"""

import sys
import time
from pathlib import Path

from qrf import cli
from qrf.builtins_config import builtin_names

BIG = {"finite-regular:D4", "finite-regular:Q8", "finite-regular:Z8"}


def bench_configs(config_dir: Path) -> list[str]:
    """Write every workload's generated configs into ``config_dir`` and return their paths."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS.values():
        workloads.write_configs(workload, config_dir)
    return [str(p) for p in sorted(config_dir.glob("*.json"))]


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    outdir = Path(args[0]) if args else Path("reports")
    skip_big = "--skip-big" in sys.argv
    outdir.mkdir(parents=True, exist_ok=True)
    builtins = builtin_names()
    configs = args[1:] + (bench_configs(outdir / "configs") if "--bench-configs" in sys.argv else [])
    failures = 0
    for name in builtins + configs:
        if skip_big and name in BIG:
            print(f"{name:28s} skipped (--skip-big)")
            continue
        t0 = time.time()
        report = cli.run(cli.load_config(name))
        text = cli.emit(report, "json")
        path = outdir / ((name.replace(":", "_") if name in builtins else Path(name).stem) + ".json")
        path.write_text(text)
        s = report["summary"]
        failures += s["checks_failed"]
        print(
            f"{name:28s} {s['checks_total'] - s['checks_failed']:3d}/{s['checks_total']:<3d} checks "
            f"in {time.time() - t0:6.2f}s -> {path}"
        )
    print(f"total failed checks: {failures}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
