"""Write pinned.json: the outputs each scenario's full report must reproduce.

    python3 perfbench/pin.py

Run once, from the root of a checkout of the commit whose outputs are the
reference.  The pinned values are dimensions and check counts, which do not
depend on the report seed.
"""

from __future__ import annotations

import json
import sys
import time

import run
from workloads import WORKLOADS, write_configs


def main() -> int:
    pins = {}
    for workload in WORKLOADS.values():
        write_configs(workload, run.CONFIGS)
        for scenario in workload.reports:
            out = run.WORK / "report.json"
            out.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "qrf.cli", "run", scenario.source(run.CONFIGS), "--out", str(out)]
            child = run.spawn(argv, time.monotonic() + 600, run.Tally())
            report = json.loads(out.read_text(encoding="utf-8")) if child.ok else None
            pins[scenario.name] = run.observed_outputs(report)
            if pins[scenario.name] is None or report["summary"]["checks_failed"]:
                print(f"error: {scenario.name} gave no passing report", file=sys.stderr)
                return 1
    (run.HERE / "pinned.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
