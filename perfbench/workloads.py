"""The benchmark's workloads: which scenarios each one reports on and queries.

Standard library only, so the parent process stays light; the children
import this module too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Scenario:
    """One scenario: a builtin name, or a generated config written to disk."""

    name: str
    group_order: int | None  # |G| for finite groups, None for U(1) and SU(2)
    config: dict | None = None  # None: ``name`` is a qrf builtin

    def source(self, config_dir: Path) -> str:
        """The argument ``qrf run`` takes for this scenario."""
        if self.config is None:
            return self.name
        return str(config_dir / f"{self.name}.json")


@dataclass(frozen=True)
class Workload:
    name: str
    reports: tuple[Scenario, ...]  # cold ``qrf run`` children; also the set-up scenarios
    queries: tuple[Scenario, ...]  # warm-query children
    # Warm-query time as a multiple of --seconds, split evenly among ``queries``.
    # Host load makes U(1)-8 queries swing by up to 40% over a few seconds, so
    # the workloads that query it take longer windows.
    query_seconds: float = 1.0


def _regular(group: str, order: int) -> Scenario:
    return Scenario(f"finite-regular:{group}", order)


def _generated_regular_z(n: int) -> Scenario:
    name = f"regular-z{n}"
    return Scenario(name, n, {
        "name": name,
        "group": {"table": [[(a + b) % n for b in range(n)] for a in range(n)]},
        "subsystems": [{"name": s, "rep": {"regular": True}} for s in ("R1", "R2", "S")],
        "frames": [{"name": r, "subsystem": r, "seed": "identity_ket"} for r in ("R1", "R2")],
        "tasks": [{"task": "full_report"}],
    })


def _su2_spin1(parties: int) -> Scenario:
    if parties == 3:
        return Scenario("su2-three-spin1", None)
    if parties == 4:
        return Scenario("su2-four-spin1", None)
    name = f"su2-{parties}-spin1"
    names = [chr(ord("A") + i) for i in range(parties)]
    return Scenario(name, None, {
        "name": name,
        "group": {"builtin": "su2"},
        "subsystems": [{"name": s, "rep": {"spin_j": 1}} for s in names],
        "frames": [{"name": "A", "subsystem": "A", "seed": "uniform"}],
        "tasks": [{"task": "full_report"}],
    })


def _u1_qubits(n: int) -> Scenario:
    # Only even counts: an odd number of charge +-1 qubits has no neutral states.
    name = f"u1-{n}-qubits"
    names = [f"Q{i}" for i in range(n)]
    return Scenario(name, None, {
        "name": name,
        "group": {"builtin": "u1"},
        "subsystems": [{"name": s, "rep": {"u1_charges": [1, -1]}} for s in names],
        "frames": [{"name": s, "subsystem": s, "seed": "uniform"} for s in names[:2]],
        "tasks": [{"task": "full_report"}],
    })


_Z5 = _regular("Z5", 5)
_S3 = _regular("S3", 6)
_U1_8 = _u1_qubits(8)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "finite-regular",
            reports=(
                _regular("Z2", 2), _regular("Z3", 3), _regular("Z4", 4), _Z5,
                _regular("Z6", 6), _S3, _generated_regular_z(7), _regular("D4", 8),
            ),
            queries=(_Z5,),
        ),
        Workload(
            "lie-scaling",
            reports=(
                Scenario("u1-qubit-qubit-qutrit", None),
                _su2_spin1(3), _su2_spin1(4), _su2_spin1(5), _su2_spin1(6),
                _u1_qubits(4), _u1_qubits(6), _U1_8, _u1_qubits(10),
            ),
            queries=(_U1_8,),
            query_seconds=3.0,
        ),
        Workload(
            "query-mix",
            reports=(_S3, _U1_8),
            queries=(_S3, _U1_8),
            query_seconds=2.0,
        ),
    )
}


def write_configs(workload: Workload, config_dir: Path) -> None:
    """Write the generated configs of a workload (builtins need none)."""
    config_dir.mkdir(parents=True, exist_ok=True)
    for scenario in workload.reports + workload.queries:
        if scenario.config is not None:
            path = config_dir / f"{scenario.name}.json"
            path.write_text(json.dumps(scenario.config, indent=1), encoding="utf-8")
