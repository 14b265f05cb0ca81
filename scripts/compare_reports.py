#!/usr/bin/env python3
"""Diff two directories of builtin reports written by scripts/run_builtins.py.

Usage: python scripts/compare_reports.py OLD_DIR NEW_DIR

For every report file in either directory it prints whether the two files
are byte-identical, the exit status that `qrf run` gives for the report
(0 when no check failed, else 1), whether the list of check verdicts and every dimension field ("dim", "shape" and
keys ending in "_dim" or "_dims") agree, and the largest absolute
difference between corresponding floats.  A "basis" table is compared as
the subspace it spans, since the choice of orthonormal basis inside a
subspace is a convention: its line gives the largest entry of the
difference of the two orthogonal projectors, and its amplitudes stay out of
the float difference.  A check's "tol" field is its bound, not a result:
tol changes are counted on their own line, with the largest of them, apart
from the largest result-float difference.  Keys present on one side only are listed
but do not count as a mismatch.  Exits 1 on any exit-status, verdict or dimension
mismatch, or when a report is missing on one side.  The summary line counts the
byte-identical pairs; bytes that differ are not a mismatch.
"""

import json
import sys
from pathlib import Path

import numpy as np


def exit_status(report: dict) -> int:
    return 0 if report["summary"]["checks_failed"] == 0 else 1


def verdicts(report: dict) -> list:
    out = []
    for i, task in enumerate(report["tasks"]):
        if "error" in task:
            out.append((i, task["task"], "error"))
        out.extend((i, c["name"], c["pass"]) for c in task.get("checks", []))
    return out


def is_dim_key(key: str) -> bool:
    return key in ("dim", "shape") or key.endswith(("_dim", "_dims"))


def dim_fields(x, path: str = "", out: dict | None = None) -> dict:
    out = {} if out is None else out
    if isinstance(x, dict):
        for k, v in x.items():
            if is_dim_key(k):
                out[f"{path}/{k}"] = v
            else:
                dim_fields(v, f"{path}/{k}", out)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            dim_fields(v, f"{path}[{i}]", out)
    return out


def projector(table: list) -> np.ndarray:
    """Orthogonal projector onto the span of a basis table: one row of [re, im] pairs per vector."""
    rows = np.asarray(table, dtype=float)
    basis = (rows[..., 0] + 1j * rows[..., 1]).T
    return basis @ basis.conj().T


def float_diff(a, b, path: str, state: dict) -> None:
    """Track the largest float difference, check tol changes, basis projector differences and structure changes."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k == "basis" and isinstance(a.get(k), list) and isinstance(b.get(k), list):
                if len(a[k]) != len(b[k]):
                    state["differs"].append(f"{path}/{k} (spans {len(a[k])} vs {len(b[k])} vectors)")
                elif a[k]:
                    gap = float(np.abs(projector(a[k]) - projector(b[k])).max())
                    state["bases"].append((f"{path}/{k}", gap))
            elif k == "tol" and k in a and k in b and a[k] != b[k]:
                state["tols"].append((abs(a[k] - b[k]), f"{path}/{k}"))
            elif k in a and k in b:
                float_diff(a[k], b[k], f"{path}/{k}", state)
            else:
                state["differs"].append(f"{path}/{k} ({'old' if k in a else 'new'} only)")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (u, v) in enumerate(zip(a, b)):
            float_diff(u, v, f"{path}[{i}]", state)
    elif isinstance(a, float) and isinstance(b, float):
        d = abs(a - b)
        if d > state["max"]:
            state["max"], state["where"] = d, path
    elif a != b:
        state["differs"].append(f"{path} ({a!r} vs {b!r})"[:200])


def compare(old: dict, new: dict) -> tuple[bool, list[str], float]:
    lines = []
    ok = True
    eo, en = exit_status(old), exit_status(new)
    lines.append(f"  exit status   {eo} -> {en}" + ("" if eo == en else "   MISMATCH"))
    ok &= eo == en
    vo, vn = verdicts(old), verdicts(new)
    lines.append(f"  verdicts      {len(vo)} checks, " + ("identical" if vo == vn else "MISMATCH"))
    ok &= vo == vn
    for a, b in zip(vo, vn):
        if a != b:
            lines.append(f"    {a} -> {b}")
    do, dn = dim_fields(old), dim_fields(new)
    bad = sorted(k for k in set(do) | set(dn) if do.get(k) != dn.get(k))
    lines.append(f"  dimensions    {len(do)} fields, " + ("identical" if not bad else "MISMATCH"))
    ok &= not bad
    for k in bad:
        lines.append(f"    {k}: {do.get(k)!r} -> {dn.get(k)!r}")
    state = {"max": 0.0, "where": "-", "differs": [], "bases": [], "tols": []}
    float_diff(old, new, "", state)
    lines.append(f"  max |float diff| {state['max']:.3e} at {state['where']} (basis tables and check tols excluded)")
    tol_gap, tol_where = max(state["tols"], default=(0.0, "-"))
    lines.append(f"  check tols    {len(state['tols'])} changed, max |diff| {tol_gap:.3e} at {tol_where}")
    for p, gap in state["bases"]:
        lines.append(f"  basis subspace {p}: max |projector diff| {gap:.3e}")
    for p in state["differs"]:
        lines.append(f"    differs: {p}")
    return ok, lines, state["max"], max((gap for _, gap in state["bases"]), default=0.0), len(state["tols"])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[0]), Path(argv[1])
    names = sorted({p.name for p in old_dir.glob("*.json")} | {p.name for p in new_dir.glob("*.json")})
    all_ok = True
    worst = worst_basis = 0.0
    tols = identical = 0
    for name in names:
        print(name)
        if not (old_dir / name).exists() or not (new_dir / name).exists():
            print(f"  missing in {'OLD_DIR' if not (old_dir / name).exists() else 'NEW_DIR'}   MISMATCH")
            all_ok = False
            continue
        old_bytes, new_bytes = (old_dir / name).read_bytes(), (new_dir / name).read_bytes()
        same = old_bytes == new_bytes
        identical += same
        print("  bytes         " + ("identical" if same else "differ"))
        ok, lines, diff, basis_gap, tol_changes = compare(json.loads(old_bytes), json.loads(new_bytes))
        print("\n".join(lines))
        all_ok &= ok
        worst = max(worst, diff)
        worst_basis = max(worst_basis, basis_gap)
        tols += tol_changes
    print(
        f"{len(names)} reports, {identical} byte-identical, max |float diff| {worst:.3e}, "
        f"max basis projector diff {worst_basis:.3e}, {tols} check tols changed: " + ("OK" if all_ok else "MISMATCH")
    )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
