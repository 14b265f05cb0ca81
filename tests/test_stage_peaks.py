"""scripts/stage_peaks.py on a small builtin report."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_stage_peaks_prints_every_stage_the_report_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "stage_peaks.py"), "finite-regular:Z3", "--traced"],
                         capture_output=True, text=True, env=env, check=True).stdout
    header, columns, *rows = out.splitlines()
    assert header.startswith("finite-regular:Z3: 14 checks in") and "traced peak" in header
    names = [row.split()[0] for row in rows]
    for stage in ("cli.build_scenario", "reps.tensor", "reps.fixed_subspace", "reductions.product_form_check",
                  "reductions.disentangler", "linalg.random_hermitian",
                  "perspective.check_weak_homomorphism", "perspective._twirled",
                  "framechange.relation_conditional_reorient", "framechange.subsystem_relativity_report"):
        assert stage in names, stage
    assert all(len(row.split()) == 5 for row in rows)  # name, calls, wall, ru_maxrss growth, traced peak
