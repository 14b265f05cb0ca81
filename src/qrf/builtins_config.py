"""Embedded builtin scenario configs, so golden runs need no external files."""

from __future__ import annotations

_U1_EXAMPLE = {
    "name": "u1-qubit-qubit-qutrit",
    "group": {"builtin": "u1"},
    "subsystems": [
        {"name": "A", "rep": {"u1_charges": [1, -1]}},
        {"name": "B", "rep": {"u1_charges": [1, -1]}},
        {"name": "C", "rep": {"u1_charges": [2, 0, -2]}},
    ],
    "frames": [
        {"name": "A", "subsystem": "A", "seed": "uniform"},
        {"name": "B", "subsystem": "B", "seed": "uniform"},
        {"name": "C", "subsystem": "C", "seed": "uniform"},
    ],
    "tasks": [{"task": "full_report"}],
}

_FINITE_REGULAR_GROUPS = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z8", "S3", "D4", "Q8")


def _finite_regular(group_name: str) -> dict:
    return {
        "name": f"finite-regular:{group_name}",
        "group": {"builtin": group_name},
        "subsystems": [
            {"name": "R1", "rep": {"regular": True}},
            {"name": "R2", "rep": {"regular": True}},
            {"name": "S", "rep": {"regular": True}},
        ],
        "frames": [
            {"name": "R1", "subsystem": "R1", "seed": "identity_ket"},
            {"name": "R2", "subsystem": "R2", "seed": "identity_ket"},
        ],
        "tasks": [{"task": "full_report"}],
    }


def _su2_spin1(parties: int) -> dict:
    return {
        "name": f"su2-{('three', 'four')[parties - 3]}-spin1",
        "group": {"builtin": "su2"},
        "subsystems": [{"name": n, "rep": {"spin_j": 1}} for n in "ABCD"[:parties]],
        "frames": [{"name": "A", "subsystem": "A", "seed": "uniform"}],
        "tasks": [{"task": "full_report"}],
    }


def builtin_names() -> list[str]:
    return (
        ["u1-qubit-qubit-qutrit", "su2-three-spin1", "su2-four-spin1"]
        + [f"finite-regular:{g}" for g in _FINITE_REGULAR_GROUPS]
    )


def builtin_config(name: str) -> dict:
    if name == "u1-qubit-qubit-qutrit":
        return _U1_EXAMPLE
    if name == "su2-three-spin1":
        return _su2_spin1(3)
    if name == "su2-four-spin1":
        return _su2_spin1(4)
    if name.startswith("finite-regular:"):
        group_name = name.split(":", 1)[1].upper()
        if group_name in _FINITE_REGULAR_GROUPS or (
            group_name.startswith("Z") and group_name[1:].isdigit()
        ):
            return _finite_regular(group_name)
    raise KeyError(
        f"unknown builtin scenario {name!r}; available: {', '.join(builtin_names())}"
    )
