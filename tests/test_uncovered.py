"""scripts/uncovered.py --reports on two small builtin reports."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_uncovered_reports_lists_every_module_of_the_traced_reports():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "uncovered.py"), "--reports", "finite-regular:Z2",
                          "u1-qubit-qubit-qutrit"], capture_output=True, text=True, env=env, check=True).stdout
    *modules, total = out.strip().splitlines()
    counts = {}
    for line in modules:
        name, missed, stmts = re.match(r"(src/qrf/\w+\.py): (\d+) of (\d+) statements never ran", line).groups()
        counts[name] = int(missed), int(stmts)
    assert set(counts) == {f"src/qrf/{p.name}" for p in (ROOT / "src" / "qrf").glob("*.py")}
    assert all(missed < stmts for missed, stmts in counts.values())  # every module ran in the reports
    assert re.fullmatch(r"total: \d+ of \d+ statements never ran", total)
