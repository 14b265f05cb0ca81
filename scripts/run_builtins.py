#!/usr/bin/env python3
"""Run every builtin scenario's full report and write the JSON files.

Usage: python scripts/run_builtins.py [outdir] [--skip-big]

--skip-big leaves out the order-8 regular scenarios (512-dim kinematical
spaces), which take 0.3–0.5 s each on 2 cores, in process; every other
builtin takes under 0.1 s.
"""

import sys
import time
from pathlib import Path

from qrf import cli
from qrf.builtins_config import builtin_names

BIG = {"finite-regular:D4", "finite-regular:Q8", "finite-regular:Z8"}


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    outdir = Path(args[0]) if args else Path("reports")
    skip_big = "--skip-big" in sys.argv
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in builtin_names():
        if skip_big and name in BIG:
            print(f"{name:28s} skipped (--skip-big)")
            continue
        t0 = time.time()
        report = cli.run(cli.load_config(name))
        text = cli.emit(report, "json")
        path = outdir / (name.replace(":", "_") + ".json")
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
