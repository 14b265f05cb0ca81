"""scripts/compare_reports.py on synthetic report directories."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


def _table(basis: np.ndarray) -> list:
    """A report's basis table: one row of [re, im] pairs per basis vector."""
    return [[[float(z.real), float(z.imag)] for z in col] for col in basis.T]


def _report() -> dict:
    basis = np.eye(4)[:, :2].astype(complex)
    return {
        "summary": {"checks_total": 2, "checks_failed": 0},
        "tasks": [
            {
                "task": "full_report",
                "results": {"phys_dim": 2, "kin_dim": 4, "basis": _table(basis), "volume": 2.0},
                "checks": [
                    {"name": "R:resolution_of_identity", "residual": 1e-15, "tol": 1e-8, "pass": True},
                    {"name": "frame_change:A->B", "residual": 2e-14, "tol": 1e-4, "pass": True},
                ],
            }
        ],
    }


def _compare(tmp_path, old: dict, new: dict | None, name: str = "r.json") -> subprocess.CompletedProcess:
    for side, report in (("old", old), ("new", new)):
        d = tmp_path / side
        d.mkdir()
        if report is not None:
            (d / name).write_text(json.dumps(report))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "old"), str(tmp_path / "new")],
        capture_output=True, text=True, timeout=60,
    )


def test_identical_directories_pass(tmp_path):
    proc = _compare(tmp_path, _report(), _report())
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.rstrip().endswith("OK")


@pytest.mark.parametrize("change", ["verdict", "phys_dim"])
def test_flipped_verdict_or_changed_dimension_fails(tmp_path, change):
    new = _report()
    if change == "verdict":
        new["tasks"][0]["checks"][1]["pass"] = False
    else:
        new["tasks"][0]["results"]["phys_dim"] = 3
    proc = _compare(tmp_path, _report(), new)
    assert proc.returncode == 1
    assert ("verdicts      2 checks, MISMATCH" if change == "verdict" else "phys_dim: 2 -> 3") in proc.stdout


def test_report_missing_on_one_side_fails(tmp_path):
    proc = _compare(tmp_path, _report(), None)
    assert proc.returncode == 1
    assert "missing in NEW_DIR" in proc.stdout


def test_other_orthonormal_basis_of_the_same_subspace_passes(tmp_path):
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    new = _report()
    new["tasks"][0]["results"]["basis"] = _table(np.eye(4)[:, :2] @ u)
    assert new != _report()
    proc = _compare(tmp_path, _report(), new)
    assert proc.returncode == 0, proc.stdout
    gap = float(proc.stdout.split("max |projector diff| ")[1].split()[0])
    assert gap <= 1e-15


def test_float_moved_by_1e_9_passes_and_is_reported(tmp_path):
    new = _report()
    new["tasks"][0]["results"]["volume"] += 1e-9
    new["tasks"][0]["checks"][1]["tol"] = 2e-7  # a moved bound is counted apart from the result floats
    proc = _compare(tmp_path, _report(), new)
    assert proc.returncode == 0, proc.stdout
    assert "max |float diff| 1.000e-09 at /tasks[0]/results/volume" in proc.stdout
    assert "check tols    1 changed, max |diff| 9.980e-05 at /tasks[0]/checks[1]/tol" in proc.stdout


def test_byte_identity_is_printed_per_pair_and_counted(tmp_path):
    new = _report()
    new["tasks"][0]["results"]["volume"] += 1e-12
    for side, reports in (("old", (_report(), _report())), ("new", (_report(), new))):
        (tmp_path / side).mkdir()
        for name, report in zip(("a.json", "b.json"), reports):
            (tmp_path / side / name).write_text(json.dumps(report))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "old"), str(tmp_path / "new")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout
    blocks = proc.stdout.split("b.json")
    assert "bytes         identical" in blocks[0] and "bytes         differ" in blocks[1]
    assert proc.stdout.splitlines()[-1].startswith("2 reports, 1 byte-identical, ")
