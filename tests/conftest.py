import json

import numpy as np
import pytest

from qrf import cli, frames, groups, perspective, reps
from qrf.linalg import random_hermitian  # noqa: F401 (the tests' random Hermitian draw)


def ket3(*labels):
    """Product ket over spin-1 factors labeled by weights 2, 0, -2."""
    idx = {2: 0, 0: 1, -2: 2}
    pos = 0
    for lab in labels:
        pos = pos * 3 + idx[lab]
    v = np.zeros(3 ** len(labels), dtype=complex)
    v[pos] = 1.0
    return v


def u1_qubits_config(n):
    """The u1-n-qubits config: n charge +-1 qubits, uniform frames on the first two, one full report."""
    names = [f"Q{k}" for k in range(n)]
    return cli.parse_config(json.dumps({
        "name": f"u1-{n}-qubits",
        "group": {"builtin": "u1"},
        "subsystems": [{"name": q, "rep": {"u1_charges": [1, -1]}} for q in names],
        "frames": [{"name": q, "subsystem": q, "seed": "uniform"} for q in names[:2]],
        "tasks": [{"task": "full_report"}],
    }))


def u1_basis_index(*charges):
    """Index of a charge product ket in the qubit x qubit x qutrit space."""
    maps = ({1: 0, -1: 1}, {1: 0, -1: 1}, {2: 0, 0: 1, -2: 2})
    dims = (2, 2, 3)
    pos = 0
    for m, d, c in zip(maps, dims, charges):
        pos = pos * d + m[c]
    return pos


@pytest.fixture(scope="session")
def u1_scenario():
    """Qubit x qubit x qutrit under U(1) charge conservation, frames on all three."""
    rep_qubit = reps.u1_rep([1, -1])
    rep_qutrit = reps.u1_rep([2, 0, -2])
    f_a = frames.make_frame(rep_qubit, np.array([1, 1]) / np.sqrt(2), name="A")
    f_b = frames.make_frame(rep_qubit, np.array([1, 1]) / np.sqrt(2), name="B")
    f_c = frames.make_frame(rep_qutrit, np.ones(3) / np.sqrt(3), name="C")
    return perspective.make_scenario(
        groups.u1(),
        [("A", rep_qubit), ("B", rep_qubit), ("C", rep_qutrit)],
        {"A": ("A", f_a), "B": ("B", f_b), "C": ("C", f_c)},
    )


def rotated_lie_rep(rep, seed):
    """The same rep in a random basis: generators V K V^dag, so J_z is no longer diagonal."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim)))
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    return reps.lie_rep(rep.group, v @ rep.generators @ v.conj().T)


@pytest.fixture(scope="session")
def rotated_u1_scenario():
    """u1_scenario with the qubit A and the qutrit C in random bases, so the total charge is not diagonal;
    the frame sits on the qubit B, in the second slot."""
    rep_qubit = reps.u1_rep([1, -1])
    f_b = frames.make_frame(rep_qubit, np.array([1, 1]) / np.sqrt(2), name="B")
    rotated = [rotated_lie_rep(rep_qubit, 5), rep_qubit, rotated_lie_rep(reps.u1_rep([2, 0, -2]), 6)]
    return perspective.make_scenario(groups.u1(), list(zip("ABC", rotated)), {"B": ("B", f_b)})


@pytest.fixture(scope="session")
def u1_six_qubit_scenario():
    """Six charge +-1 qubits (kinematical dim 64, physical dim 20), uniform frames on the first two."""
    rep_qubit = reps.u1_rep([1, -1])
    names = [f"Q{k}" for k in range(6)]
    fs = {n: (n, frames.make_frame(rep_qubit, np.array([1, 1]) / np.sqrt(2), name=n)) for n in names[:2]}
    return perspective.make_scenario(groups.u1(), [(n, rep_qubit) for n in names], fs)


@pytest.fixture(scope="session")
def three_spin_scenario():
    rep1 = reps.spin_rep(1)
    f_a = frames.make_frame(rep1, np.ones(3) / np.sqrt(3), name="A")
    return perspective.make_scenario(
        groups.su2(),
        [("A", rep1), ("B", rep1), ("C", rep1)],
        {"A": ("A", f_a)},
    )


@pytest.fixture(scope="session")
def four_spin_scenario():
    rep1 = reps.spin_rep(1)
    f_a = frames.make_frame(rep1, np.ones(3) / np.sqrt(3), name="A")
    return perspective.make_scenario(
        groups.su2(),
        [("A", rep1), ("B", rep1), ("C", rep1), ("D", rep1)],
        {"A": ("A", f_a)},
    )


def regular_three_party(group):
    """Three copies of the regular representation with ideal frames on the first two."""
    reg = reps.regular_rep(group)
    seed = np.zeros(group.order, dtype=complex)
    seed[group.identity_index] = 1.0
    f1 = frames.make_frame(reg, seed, name="R1")
    f2 = frames.make_frame(reg, seed, name="R2")
    return perspective.make_scenario(
        group,
        [("R1", reg), ("R2", reg), ("S", reg)],
        {"R1": ("R1", f1), "R2": ("R2", f2)},
    )


@pytest.fixture(scope="session")
def z3_regular_scenario():
    return regular_three_party(groups.cyclic(3))


@pytest.fixture(scope="session")
def s3_regular_scenario():
    return regular_three_party(groups.symmetric_3())

