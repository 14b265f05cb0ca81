import ast
import dataclasses
import importlib.util
import itertools
import json
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import ket3, random_hermitian, u1_basis_index, u1_qubits_config
from qrf import cli, framechange, frames, groups, perspective, reductions, reps
from qrf.builtins_config import builtin_names
from qrf.linalg import Monomial, RowLabels, Tolerance, dagger, densify
from qrf.perspective import (
    check_weak_homomorphism,
    conditional_inner_product_check,
    h_average,
    orientation_independent,
    physical_space,
    physical_system_span,
    relational_observable,
    system_projector,
)
from qrf.reductions import schrodinger_reduce

S3_ISOTROPY = pathlib.Path(__file__).resolve().parent / "golden" / "configs" / "s3-isotropy.json"


def test_u1_physical_space_basis(u1_scenario):
    ps = physical_space(u1_scenario)
    assert ps.dim == 4
    expected = [(1, 1, -2), (1, -1, 0), (-1, 1, 0), (-1, -1, 2)]
    cols = ps.basis.basis
    for k, charges in enumerate(expected):
        target = np.zeros(12)
        target[u1_basis_index(*charges)] = 1.0
        assert abs(abs(np.vdot(cols[:, k], target)) - 1) < 1e-9


def test_three_spin_physical_space(three_spin_scenario):
    ps = physical_space(three_spin_scenario)
    assert ps.dim == 1
    stated = (
        ket3(0, -2, 2) - ket3(2, -2, 0) + ket3(2, 0, -2) - ket3(0, 2, -2)
        + ket3(-2, 2, 0) - ket3(-2, 0, 2)
    ) / np.sqrt(6)
    assert abs(abs(np.vdot(stated, ps.basis.basis[:, 0])) - 1) < 1e-9


def test_four_spin_physical_space_dim(four_spin_scenario):
    assert physical_space(four_spin_scenario).dim == 3


def test_physical_space_cache_keys_on_the_whole_tolerance():
    rep = reps.u1_rep([1, -1])
    s = perspective.make_scenario(groups.u1(), [("A", rep), ("B", rep)])
    loose = physical_space(s, Tolerance(1e-6))
    tight = physical_space(s, Tolerance(1e-9))
    assert loose is not tight
    assert physical_space(s, Tolerance(1e-6)) is loose


def test_zero_dimensional_physical_space_is_reported():
    # two qubits with equal positive charges leave no invariant state
    rep = reps.u1_rep([2, 1])
    s = perspective.make_scenario(groups.u1(), [("A", rep), ("B", rep)])
    assert physical_space(s).dim == 0


def test_relational_observable_of_identity_is_identity(u1_scenario):
    obs = relational_observable(u1_scenario, "A", [0.4], np.eye(6))
    np.testing.assert_allclose(obs.matrix, np.eye(12), atol=1e-9)


def test_relational_observable_bruteforce_z2():
    g = groups.cyclic(2)
    reg = reps.regular_rep(g)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    rsys = reps.finite_rep(g, np.stack([np.eye(2, dtype=complex), sx]))
    f = frames.make_frame(reg, np.array([1, 0], dtype=complex), name="R")
    s = perspective.make_scenario(g, [("R", reg), ("S", rsys)], {"R": ("R", f)})
    f_s = np.diag([1.0, 0.0]).astype(complex)
    lib = relational_observable(s, "R", 0, f_s).matrix
    aligned = np.kron(np.outer(f.seed, f.seed.conj()), f_s)
    oracle = sum(
        np.kron(reg.matrices[k], rsys.matrices[k])
        @ aligned
        @ dagger(np.kron(reg.matrices[k], rsys.matrices[k]))
        for k in range(2)
    )
    np.testing.assert_allclose(lib, oracle, atol=1e-12)


def test_relational_observable_commutes_with_gauge(three_spin_scenario):
    rng = np.random.default_rng(8)
    f_s = random_hermitian(rng, 9)
    obs = relational_observable(three_spin_scenario, "A", [0.1, 0.2, -0.4], f_s)
    for k in three_spin_scenario.total_rep.generators:
        assert np.linalg.norm(k @ obs.matrix - obs.matrix @ k) < 1e-8


def test_relational_observable_isotropy_orbit_collapse():
    # F(gh) = F(g) for h in the frame's isotropy group
    g = groups.cyclic(4)
    mats = np.stack([np.diag([1.0, (-1.0) ** k]).astype(complex) for k in range(4)])
    rep = reps.finite_rep(g, mats)
    f = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2), name="R")
    rsys = reps.finite_rep(g, np.stack([np.diag([1j ** k, (-1j) ** k]) for k in range(4)]))
    s = perspective.make_scenario(g, [("R", rep), ("S", rsys)], {"R": ("R", f)})
    rng = np.random.default_rng(9)
    f_s = random_hermitian(rng, 2)
    assert f.isotropy.element_indices == (0, 2)
    for g0 in range(4):
        a = relational_observable(s, "R", g0, f_s, check=False).matrix
        b = relational_observable(s, "R", g.mult(g0, 2), f_s, check=False).matrix
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_relational_observable_dimension_mismatch(u1_scenario):
    with pytest.raises(ValueError, match="complement"):
        relational_observable(u1_scenario, "A", [0.0], np.eye(4))


# ---------------------------------------------------------------------------
# h_average
# ---------------------------------------------------------------------------


def test_h_average_trivial_group_is_identity_map():
    rng = np.random.default_rng(10)
    f_s = random_hermitian(rng, 3)
    h = groups.Subgroup(parent=groups.su2(), algebra_basis=())
    np.testing.assert_allclose(h_average(f_s, h, reps.spin_rep(1)), f_s, atol=1e-12)


def test_h_average_z2_kills_sigma_x():
    g = groups.cyclic(2)
    rep = reps.finite_rep(g, np.stack([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]))
    h = groups.Subgroup(parent=g, element_indices=(0, 1))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(h_average(sx, h, rep), np.zeros((2, 2)), atol=1e-12)


def test_h_average_fixes_invariant_observable():
    g = groups.cyclic(2)
    rep = reps.finite_rep(g, np.stack([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]))
    h = groups.Subgroup(parent=g, element_indices=(0, 1))
    f_s = np.diag([0.3, 0.9]).astype(complex)
    np.testing.assert_allclose(h_average(f_s, h, rep), f_s, atol=1e-12)


def test_h_average_u1_direction_keeps_charge_blocks():
    rep = reps.spin_rep(1)
    h = groups.Subgroup(parent=groups.su2(), algebra_basis=((0.0, 0.0, 1.0),))
    rng = np.random.default_rng(11)
    f_s = random_hermitian(rng, 3)
    avg = h_average(f_s, h, rep)
    np.testing.assert_allclose(avg, np.diag(np.diag(f_s)), atol=1e-12)
    # idempotent and in the commutant of the isotropy direction
    np.testing.assert_allclose(h_average(avg, h, rep), avg, atol=1e-12)
    kz = rep.generators[2]
    assert np.linalg.norm(kz @ avg - avg @ kz) < 1e-12


def test_h_average_full_su2_isotropy_is_the_commutant_projection():
    from oracles import commutant_projection

    rep = reps.tensor([reps.spin_rep(1), reps.spin_rep(0.5)])
    h = groups.Subgroup(parent=groups.su2(), algebra_basis=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
    f_s = random_hermitian(np.random.default_rng(13), rep.dim)
    avg = h_average(f_s, h, rep)
    np.testing.assert_allclose(avg, commutant_projection(rep, f_s), atol=1e-12)
    assert max(np.linalg.norm(k @ avg - avg @ k) for k in rep.generators) < 1e-12


def test_h_average_on_a_table_held_rep_builds_only_the_isotropy_members():
    # three regular Z16 parties: the frame's trivial isotropy on its 256-dim complement reads one permutation
    # matrix, and the complement keeps no (16, 256, 256) stack
    reg = reps.regular_rep(groups.cyclic(16))
    frame = frames.make_frame(reg, np.eye(16)[0], name="A")
    s = perspective.make_scenario(reg.group, [("A", reg), ("B", reg), ("C", reg)], {"A": ("A", frame)})
    comp = s.complement_rep("A")
    f_s = random_hermitian(np.random.default_rng(12), comp.dim)
    avg = h_average(f_s, frame.isotropy, comp)
    assert frame.isotropy.element_indices == (0,) and comp._matrices is None and reg._matrices is None
    members = comp.matrices[list(frame.isotropy.element_indices)]  # the dense stack the average used to read
    assert np.array_equal(avg, sum(u @ f_s @ dagger(u) for u in members) / len(members))


def test_charge_held_dirac_defect_and_h_average_equal_the_dense_oracles():
    from oracles import dense_u1_twin

    qubit = reps.u1_rep([1, -1])
    frame = frames.make_frame(qubit, np.array([1, 1]) / np.sqrt(2), name="Q0")
    s = perspective.make_scenario(groups.u1(), [(f"Q{k}", qubit) for k in range(6)], {"Q0": ("Q0", frame)})
    comp = s.complement_rep("Q0")
    dense_total, dense_comp = dense_u1_twin(s.total_rep), dense_u1_twin(comp)
    twin = dataclasses.replace(s, total_rep=dense_total, _cache={})
    rng = np.random.default_rng(12)
    f_s = random_hermitian(rng, comp.dim)
    for op in (random_hermitian(rng, s.kin_dim), perspective.relational_observable(s, "Q0", [0.4], f_s).matrix):
        assert perspective.strong_dirac_defect(s, op) == perspective.strong_dirac_defect(twin, op)
    h = groups.Subgroup(parent=groups.u1(), algebra_basis=((1.0,),))
    assert np.array_equal(h_average(f_s, h, comp), h_average(f_s, h, dense_comp))
    assert s.total_rep._generators is None and comp._generators is None


def test_h_average_rejects_an_observable_of_another_dimension():
    g = groups.cyclic(2)
    h = groups.Subgroup(parent=g, element_indices=(0, 1))
    with pytest.raises(ValueError, match="observable does not act on the system representation"):
        h_average(np.eye(3), h, reps.regular_rep(g))


def test_h_average_rejects_unsupported_type():
    h = groups.Subgroup(parent=groups.su2(), algebra_basis=((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="unsupported"):
        h_average(np.eye(3), h, reps.spin_rep(1))


# ---------------------------------------------------------------------------
# system projectors
# ---------------------------------------------------------------------------


def test_ideal_frame_system_projector_is_identity(s3_regular_scenario):
    pi = system_projector(s3_regular_scenario, "R1", 0)
    np.testing.assert_allclose(pi, np.eye(36), atol=1e-9)


def test_u1_frame_projector_theta_independent_charge_filter(u1_scenario):
    pi0 = system_projector(u1_scenario, "A", [0.0])
    pi1 = system_projector(u1_scenario, "A", [2.1])
    np.testing.assert_allclose(pi0, pi1, atol=1e-10)
    totals = np.add.outer([1, -1], [2, 0, -2]).reshape(-1)
    np.testing.assert_allclose(pi0, np.diag((np.abs(totals) == 1).astype(float)), atol=1e-9)


def test_spin1_projector_is_rank_one_and_moves(three_spin_scenario):
    frame = three_spin_scenario.frame("A")
    pi_e = system_projector(three_spin_scenario, "A", [0, 0, 0])
    assert round(float(np.trace(pi_e).real), 6) == 1.0
    g = [0.4, -0.2, 0.9]
    pi_g = system_projector(three_spin_scenario, "A", g)
    assert np.linalg.norm(pi_g - pi_e) > 0.1
    comp = three_spin_scenario.complement_rep("A")
    u = comp.evaluate(g)
    np.testing.assert_allclose(pi_g, u @ pi_e @ dagger(u), atol=1e-8)


def test_system_projector_reads_idempotence_from_the_round_trip(u1_scenario, monkeypatch):
    # the one round-trip gate, ||G - 1||_F <= bound(1, n_phys), which bounds ||Pi^2 - Pi||_F <= ||G||_2 ||G - 1||_F
    # the map is held by index and weight, so the held weights are scaled
    exact = perspective.conditioning_map
    ps = physical_space(u1_scenario)
    c0 = exact(ps, "A", [0.2])
    assert isinstance(c0, Monomial)
    threshold = Tolerance().bound(1.0, ps.dim)  # the gate bound on the 4-dim physical space, 8e-9
    for eps, passes in ((1e-9, True), (1e-8, False)):  # defects 4e-9 and 4e-8 around the threshold

        def scaled(ps, f, g, eps=eps):
            m = exact(ps, f, g)
            return Monomial(m.rows, m.cols, (1 + eps) * m.weights, m.shape)

        monkeypatch.setattr(perspective, "conditioning_map", scaled)
        c = (1 + eps) * c0.dense()
        defect = np.linalg.norm(dagger(c) @ c - np.eye(ps.dim))
        assert (defect < threshold) == passes, defect
        if passes:
            np.testing.assert_allclose(system_projector(u1_scenario, "A", [0.2]), c @ dagger(c), atol=1e-14)
        else:
            with pytest.raises(ValueError, match=rf"round trip C\^dag C = 1 \({defect:.2e}\)"):
                system_projector(u1_scenario, "A", [0.2])


def test_projector_conjugation_relation(u1_scenario):
    comp = u1_scenario.complement_rep("A")
    pi_e = system_projector(u1_scenario, "A", [0.0])
    for th in (0.3, 1.2, 4.4):
        u = comp.evaluate([th])
        np.testing.assert_allclose(
            system_projector(u1_scenario, "A", [th]), u @ pi_e @ dagger(u), atol=1e-9
        )


def test_orientation_independence_flags(u1_scenario, three_spin_scenario, s3_regular_scenario):
    assert orientation_independent(u1_scenario, "A")
    assert orientation_independent(u1_scenario, "C")
    assert orientation_independent(s3_regular_scenario, "R1")
    assert not orientation_independent(three_spin_scenario, "A")


def test_physical_system_span_dims(u1_scenario, three_spin_scenario, four_spin_scenario):
    assert physical_system_span(u1_scenario, "A").dim == 4
    assert physical_system_span(three_spin_scenario, "A").dim == 3
    # the four-spin conditional states pair the frame's spin with the matching
    # spin-1 copies of the complement, so the orientation span fills exactly
    # that isotypic block: three copies x three dimensions
    assert physical_system_span(four_spin_scenario, "A").dim == 9


def test_four_spin_conditionals_confined_to_matching_spin_block(four_spin_scenario):
    s = four_spin_scenario
    ps = physical_space(s)
    frame = s.frame("A")
    comp = s.complement_rep("A")
    c2 = sum(k @ k for k in comp.generators)
    vals, vecs = np.linalg.eigh(c2)
    inside = np.isclose(vals / 4.0, 2.0)  # spin-1 blocks satisfy C2 = 4 j (j+1) = 8
    rng = np.random.default_rng(12)
    for _ in range(5):
        coeff = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = ps.basis.basis @ (coeff / np.linalg.norm(coeff))
        g = rng.uniform(-2, 2, 3)
        cond = s.condition_vector("A", frame.orientation(g), psi)
        cond = dagger(vecs) @ (cond / np.linalg.norm(cond))
        assert np.linalg.norm(cond[~inside]) < 1e-9


def test_conditioning_map_copies_no_kinematical_basis():
    # the frame's slot is read on a reshape view of B, so no frame position transposes a copy of it
    s = cli.build_scenario(cli.load_config("finite-regular:D4"))
    ps = physical_space(s)
    for name in s.frames:
        e = s.frame(name).rep.identity_element()
        tracemalloc.start()
        perspective.conditioning_map(ps, name, e)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < ps.basis.basis.nbytes / 2, (name, peak)


def _slot_scenario(dims):
    """A scenario over subsystems of the given dims with a frame name for each slot; slot arithmetic reads
    nothing else."""
    g = groups.cyclic(2)
    subsystems = tuple(
        (f"S{i}", reps.finite_rep(g, np.stack([np.eye(d), np.diag((-1.0) ** np.arange(d))]).astype(complex)))
        for i, d in enumerate(dims)
    )
    return perspective.Scenario(g, subsystems, {f"S{i}": (i, None) for i in range(len(dims))}, None, math.prod(dims))


@pytest.mark.parametrize("dims", [[2, 3, 4], [3, 2, 2, 3]])
def test_slot_embeddings_equal_the_kronecker_oracle(dims):
    from oracles import embed_pair

    s = _slot_scenario(dims)
    rng = np.random.default_rng(17)
    for slot, d in enumerate(dims):
        comp = s.kin_dim // d
        a, b = random_hermitian(rng, d), random_hermitian(rng, comp)
        assert np.array_equal(s.embed_frame_operator(f"S{slot}", a, b), embed_pair(dims, slot, a, b))
        rest = [x for i, x in enumerate(dims) if i != slot]
        for other in (i for i in range(len(dims)) if i != slot):
            pos = other - (other > slot)
            small = random_hermitian(rng, comp // rest[pos])
            expect = embed_pair(rest, pos, np.eye(rest[pos]), small)
            assert np.array_equal(framechange._identity_on(s, f"S{slot}", f"S{other}", small), expect)


# ---------------------------------------------------------------------------
# weak homomorphism and the conditional inner product
# ---------------------------------------------------------------------------


def test_weak_homomorphism_identity_pair_exact(u1_scenario):
    rep = check_weak_homomorphism(u1_scenario, "A", [0.0], np.eye(6), np.eye(6))
    assert rep["max_weak_residual"] < 1e-10
    # addition is linear, hence exact even on kinematical vectors
    assert rep["strong"]["addition"] < 1e-10


def test_weak_homomorphism_strong_for_ideal_frames(z3_regular_scenario):
    rng = np.random.default_rng(13)
    a = random_hermitian(rng, 9)
    b = random_hermitian(rng, 9)
    rep = check_weak_homomorphism(z3_regular_scenario, "R1", 0, a, b)
    assert rep["weak_check"].passed
    assert rep["max_strong_residual"] < 1e-9


def test_weak_homomorphism_weak_only_for_nonideal_frames(u1_scenario):
    rng = np.random.default_rng(14)
    a = random_hermitian(rng, 6)
    b = random_hermitian(rng, 6)
    rep = check_weak_homomorphism(u1_scenario, "A", [0.0], a, b)
    assert rep["weak_check"].passed
    assert rep["max_weak_residual"] < 1e-9
    assert not rep["strong_pass"]


@pytest.mark.parametrize(
    "fixture, frame, g",
    [
        ("s3_regular_scenario", "R1", 2),
        ("u1_scenario", "A", [0.4]),
        ("three_spin_scenario", "A", [0.3, -0.2, 0.5]),
        ("four_spin_scenario", "A", [-0.7, 0.1, 1.2]),
        ("u1_six_qubit_scenario", "Q1", [0.9]),
        ("rotated_u1_scenario", "B", [2.0]),
    ],
)
def test_weak_homomorphism_matches_kinematical_oracle(fixture, frame, g, request):
    from oracles import weak_homomorphism

    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(16)
    a = random_hermitian(rng, s.complement_dim(frame))
    b = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)  # non-Hermitian
    fast = check_weak_homomorphism(s, frame, g, a, b)
    slow = weak_homomorphism(s, frame, g, a, b)
    for kind in ("weak", "strong"):
        assert set(fast[kind]) == set(slow[kind]) | ({"adjoint"} if kind == "strong" else set())
        for name, value in slow[kind].items():
            assert abs(fast[kind][name] - value) <= 1e-10 * max(1.0, value)


@pytest.mark.parametrize(
    "fixture, frame", [("u1_six_qubit_scenario", "Q0"), ("three_spin_scenario", "A"), ("four_spin_scenario", "A")]
)
def test_lie_homomorphism_check_forms_no_kinematical_operator(fixture, frame, request, monkeypatch):
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(17)
    a, b = (random_hermitian(rng, s.complement_dim(frame)) for _ in range(2))

    def forbidden(*args, **kwargs):
        raise AssertionError("a kinematical operator was formed")

    monkeypatch.setattr(perspective.Scenario, "embed_frame_operator", forbidden)
    monkeypatch.setattr(reps, "group_average", forbidden)
    monkeypatch.setattr(perspective, "group_average", forbidden)
    report = check_weak_homomorphism(s, frame, s.frame(frame).rep.identity_element(), a, b)
    assert report["weak_check"].passed


@pytest.mark.parametrize(
    "fixture, frame, g",
    [
        ("u1_scenario", "B", [0.4]),  # the u1-qubit-qubit-qutrit builtin, frame in the second slot
        ("u1_scenario", "C", [1.3]),
        ("three_spin_scenario", "A", [0.3, -0.2, 0.5]),
        ("four_spin_scenario", "A", [-0.7, 0.1, 1.2]),
        ("rotated_u1_scenario", "B", [2.0]),  # non-diagonal total charge: blocks sliced from the formed operand
    ],
)
def test_block_relational_observable_matches_dense_construction(fixture, frame, g, request):
    from oracles import dense_relational_observable

    s = request.getfixturevalue(fixture)
    f_s = random_hermitian(np.random.default_rng(18), s.complement_dim(frame))
    lib = relational_observable(s, frame, g, f_s).matrix
    dense = dense_relational_observable(s, frame, g, f_s)
    if reps.weight_basis(s.total_rep).vectors is None:  # the same products, summed in the same order
        assert np.array_equal(lib, dense)
    assert np.abs(lib - dense).max() <= 1e-12 * max(1.0, float(np.abs(dense).max()))


@pytest.mark.parametrize("fixture", ["u1_scenario", "three_spin_scenario", "rotated_u1_scenario"])
def test_strong_dirac_defect_matches_commutator_matmuls(fixture, request):
    from oracles import strong_dirac_defect

    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(19)
    a = rng.standard_normal((s.kin_dim, s.kin_dim)) + 1j * rng.standard_normal((s.kin_dim, s.kin_dim))
    for op in (a, reps.group_average(s.total_rep, a, "twirl", 1.0)):
        oracle = strong_dirac_defect(s, op)
        assert abs(perspective.strong_dirac_defect(s, op) - oracle) <= 1e-12 * max(1.0, oracle)


@pytest.mark.parametrize("fixture, frame", [("u1_scenario", "B"), ("four_spin_scenario", "A"), ("rotated_u1_scenario", "B")])
def test_restriction_of_weight_blocks_reads_the_weight_zero_block(fixture, frame, request):
    s = request.getfixturevalue(fixture)
    f_s = random_hermitian(np.random.default_rng(21), s.complement_dim(frame))
    blocks = perspective._twirled(s, frame, s.frame(frame).rep.identity_element(), f_s, Tolerance())
    ps = physical_space(s)
    dense = ps.restrict(blocks.dense())
    assert np.abs(ps.restrict(blocks) - dense).max() <= 1e-13 * max(1.0, float(np.abs(dense).max()))


@pytest.mark.parametrize(
    "fixture, frame", [("s3_regular_scenario", "R1"), ("u1_scenario", "A"), ("four_spin_scenario", "A")]
)
def test_homomorphism_check_builds_no_system_projector(fixture, frame, request, monkeypatch):
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(20)
    a, b = (random_hermitian(rng, s.complement_dim(frame)) for _ in range(2))

    def forbidden(*args, **kwargs):
        raise AssertionError("the complement-sized system projector was built")

    monkeypatch.setattr(perspective, "system_projector", forbidden)
    report = check_weak_homomorphism(s, frame, s.frame(frame).rep.identity_element(), a, b)
    assert report["weak_check"].passed and report["weak"]["definition"] <= 1e-12


def _affine(op, scale, shift):
    """scale F + shift 1, on a dense operator, on each weight block, or on leader rows, where 1 has the entry 1 at
    each leader (l_o, l_o) and 0 elsewhere."""
    if isinstance(op, reps.WeightBlocks):
        return reps.WeightBlocks(op.basis, {w: scale * b + shift * np.eye(len(b)) for w, b in op.blocks.items()})
    if isinstance(op, reps.OrbitMeans):
        means = scale * op.means
        means[np.arange(len(means)), op.leaders()[0][:, 0]] += shift
        return reps.OrbitMeans(op.rep, means)
    return scale * op + shift * np.eye(len(op))


def _failed_weak_homomorphism(name, tmp_path):
    """Exit status of `qrf run name` and whether a weak homomorphism check failed in its report."""
    out = tmp_path / "report.json"
    status = cli.main(["run", name, "--out", str(out)])
    checks = json.loads(out.read_text())["tasks"][0]["checks"]
    return status, any(c["name"].endswith(":weak_homomorphism") and not c["pass"] for c in checks)


@pytest.mark.parametrize("name", ["finite-regular:S3", "u1-qubit-qubit-qutrit", "su2-four-spin1"])
@pytest.mark.parametrize("scale, shift", [(3.0, 1.0), (2.0, 0.0)], ids=["3F+1", "2F"])
def test_builtin_report_fails_on_a_wrong_relational_observable(name, scale, shift, monkeypatch, tmp_path):
    real = perspective._twirled
    monkeypatch.setattr(perspective, "_twirled", lambda *args: _affine(real(*args), scale, shift))
    assert _failed_weak_homomorphism(name, tmp_path) == (1, True)


@pytest.mark.parametrize("name, h", [("u1-qubit-qubit-qutrit", [0.7]), ("su2-four-spin1", [0.3, -0.2, 0.5])])
def test_builtin_report_fails_on_a_relational_observable_at_a_shifted_orientation(name, h, monkeypatch, tmp_path):
    real = perspective._twirled

    def shifted(s, frame_name, g, f_s, tol, *on_read):
        rep = s.frame(frame_name).rep
        return real(s, frame_name, groups.compose(rep.element(g), rep.element(h)), f_s, tol, *on_read)

    monkeypatch.setattr(perspective, "_twirled", shifted)
    assert _failed_weak_homomorphism(name, tmp_path) == (1, True)


def test_weak_homomorphism_adjoint_clause(u1_scenario):
    rng = np.random.default_rng(15)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))  # non-Hermitian
    rep = check_weak_homomorphism(u1_scenario, "A", [0.7], a, a @ a)
    assert rep["weak"]["adjoint"] < 1e-9


def test_conditional_inner_product_unit_and_orthogonal(u1_scenario):
    ps = physical_space(u1_scenario)
    b = ps.basis.basis
    same = conditional_inner_product_check(u1_scenario, "A", b[:, 0], b[:, 0])
    assert same["check"].passed and abs(same["expected"] - 1) < 1e-12
    orth = conditional_inner_product_check(u1_scenario, "A", b[:, 0], b[:, 1])
    assert orth["check"].passed and abs(orth["expected"]) < 1e-12


def test_conditional_inner_product_random_superposition_s3(s3_regular_scenario):
    ps = physical_space(s3_regular_scenario)
    rng = np.random.default_rng(16)
    c1 = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    c2 = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    psi = ps.basis.basis @ (c1 / np.linalg.norm(c1))
    chi = ps.basis.basis @ (c2 / np.linalg.norm(c2))
    out = conditional_inner_product_check(s3_regular_scenario, "R1", psi, chi)
    assert out["samples"] == 6
    assert out["max_deviation"] < 1e-8


def test_conditional_inner_product_rejects_nonphysical(u1_scenario):
    bad = np.zeros(12)
    bad[0] = 1.0
    ps = physical_space(u1_scenario)
    with pytest.raises(ValueError, match="physical"):
        conditional_inner_product_check(u1_scenario, "A", bad, ps.basis.basis[:, 0])


def test_one_physical_state_gate_for_reductions_and_inner_products(u1_scenario):
    ps = physical_space(u1_scenario)
    b = ps.basis.basis
    outside = np.eye(12)[:, 0] - b @ b[0].conj()
    outside /= np.linalg.norm(outside)
    for eps in (5e-8, 5e-7):  # around the gate, 1e-7 (1 + ||v||)
        v = b[:, 0] + eps * outside
        calls = (
            lambda: schrodinger_reduce(ps, "A", [0.0], v),
            lambda: conditional_inner_product_check(u1_scenario, "A", v, b[:, 1]),
        )
        for call in calls:
            if eps < 1e-7:
                call()
            else:
                with pytest.raises(ValueError, match="not in the physical subspace"):
                    call()


def test_scenario_validation_errors():
    rep = reps.u1_rep([1, -1])
    f = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2), name="X")
    with pytest.raises(ValueError, match="unknown subsystem"):
        perspective.make_scenario(groups.u1(), [("A", rep)], {"X": ("Nope", f)})
    with pytest.raises(ValueError, match="unique"):
        perspective.make_scenario(groups.u1(), [("A", rep), ("A", rep)])
    with pytest.raises(ValueError, match="subsystem 'A' does not carry the scenario group"):
        perspective.make_scenario(groups.su2(), [("A", rep)])
    with pytest.raises(ValueError, match="frame 'X' dimension does not match subsystem 'A'"):
        perspective.make_scenario(groups.u1(), [("A", reps.u1_rep([2, 0, -2]))], {"X": ("A", f)})


def test_gathered_strong_dirac_defect_matches_dense_commutators(s3_regular_scenario):
    d4 = groups.builtin_group("D4")
    left_right = perspective.make_scenario(
        d4, [("L", reps.regular_rep(d4, "left")), ("R", reps.regular_rep(d4, "right"))]
    )
    rng = np.random.default_rng(43)
    for s in (s3_regular_scenario, left_right):  # dims 216 and 64
        assert reps.permutation_table(s.total_rep) is not None
        a = rng.standard_normal((s.kin_dim, s.kin_dim)) + 1j * rng.standard_normal((s.kin_dim, s.kin_dim))
        gens = s.total_rep.matrices[list(s.group.generators)]
        for op in (a, reps.group_average(s.total_rep, a, "twirl", 1.0)):
            dense = max(float(np.linalg.norm(u @ op - op @ u)) for u in gens)
            assert abs(perspective.strong_dirac_defect(s, op) - dense) <= 1e-12 * max(1.0, dense)


@pytest.mark.parametrize(
    "fixture, frame, expected",
    [
        ("u1_scenario", "A", True),
        ("u1_scenario", "C", True),
        ("s3_regular_scenario", "R1", True),
        ("three_spin_scenario", "A", False),
        ("four_spin_scenario", "A", False),
    ],
)
def test_orientation_independence_matches_commutator_oracle(fixture, frame, expected, request):
    from oracles import orientation_independent as commutes_with_constraints

    s = request.getfixturevalue(fixture)
    assert orientation_independent(s, frame) is expected
    assert commutes_with_constraints(s, frame) is expected


def test_physical_system_span_is_closed_once_per_frame_and_tolerance(monkeypatch):
    # frame P's C_e is dense, so it is closed, once per tolerance; the identity-ket frame R and every U(1) frame
    # read a monomial C_e and take the coordinate span, with no closure
    from qrf import cli

    calls = []
    original = reps.invariant_closure
    monkeypatch.setattr(reps, "invariant_closure", lambda rep, v, tol: calls.append(1) or original(rep, v, tol))
    s = cli.build_scenario(cli.load_config(str(S3_ISOTROPY)))
    for fname, independent in (("P", False), ("R", True)):
        assert orientation_independent(s, fname) is independent
        assert physical_system_span(s, fname) is physical_system_span(s, fname)
    assert len(calls) == 1
    physical_system_span(s, "P", Tolerance(1e-8))
    physical_system_span(s, "R", Tolerance(1e-8))
    assert len(calls) == 2
    u1 = cli.build_scenario(cli.load_config("u1-qubit-qubit-qutrit"))
    assert all(orientation_independent(u1, fname) for fname in u1.frames) and len(calls) == 2


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_u1_relational_observable_and_probability_never_densify(monkeypatch):
    from qrf import reductions

    cfg = u1_qubits_config(8)
    s, tol = cli.build_scenario(cfg), cfg.tol()
    ps = physical_space(s, tol)
    rng = np.random.default_rng(19)
    comp = s.complement_dim("Q0")
    f_s = random_hermitian(rng, comp)
    q, _ = np.linalg.qr(rng.standard_normal((comp, comp // 2)) + 1j * rng.standard_normal((comp, comp // 2)))
    c = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    psi = ps.basis.basis @ (c / np.linalg.norm(c))

    def rel_obs():
        return relational_observable(s, "Q0", [0.4], f_s, tol, check=True)

    def probability():
        return reductions.conditional_probability(ps, "Q0", [0.4], q @ dagger(q), psi, tol)

    rel_obs(), probability()  # warm: the weight basis, the physical space and the index grids are cached
    assert s.kin_dim == 256  # one kin x kin complex array is 1 MiB
    with monkeypatch.context() as m:
        m.setattr(reps.WeightBlocks, "dense", lambda self: pytest.fail("a kinematical array was densified"))
        obs, peak_obs = _traced_peak(rel_obs)
        _, peak_p = _traced_peak(probability)
    assert peak_obs < 2**20 and peak_p < 2**20
    assert "matrix" not in obs.__dict__
    assert np.array_equal(obs.matrix, obs.op.dense()) and obs.matrix is obs.matrix


@pytest.mark.parametrize("fixture, frame", [("u1_scenario", "B"), ("rotated_u1_scenario", "B"),
                                            ("four_spin_scenario", "A"), ("s3_regular_scenario", "R1")])
def test_lazy_matrix_is_the_densified_twirl(fixture, frame, request):
    from oracles import dense_relational_observable

    s = request.getfixturevalue(fixture)
    f_s = random_hermitian(np.random.default_rng(23), s.complement_dim(frame))
    g = s.frame(frame).rep.identity_element()
    obs = relational_observable(s, frame, g, f_s)
    twirled = perspective._twirled(s, frame, g, f_s, perspective.DEFAULT_TOL)
    if s.total_rep.is_finite:
        assert isinstance(obs.op, reps.OrbitMeans) and "matrix" not in obs.__dict__
        assert np.array_equal(obs.matrix, twirled.dense()) and obs.matrix is obs.matrix
    else:
        assert isinstance(obs.op, reps.WeightBlocks) and "matrix" not in obs.__dict__
        assert np.array_equal(obs.matrix, twirled.dense())
    np.testing.assert_allclose(obs.matrix, dense_relational_observable(s, frame, g, f_s), atol=1e-12)


@pytest.mark.parametrize("source", ["u1-qubit-qubit-qutrit", "u1-8-qubits", "su2-four-spin1"])
def test_block_dirac_check_is_the_dense_one(source):
    cfg = u1_qubits_config(8) if source == "u1-8-qubits" else cli.load_config(source)
    s = cli.build_scenario(cfg)
    rng = np.random.default_rng(29)
    for frame in s.frames:
        f_s = random_hermitian(rng, s.complement_dim(frame))
        obs = relational_observable(s, frame, s.frame(frame).rep.identity_element(), f_s, check=False)
        blocks, dense = perspective.dirac_check(s, obs.op), perspective.dirac_check(s, obs.matrix)
        assert blocks.bound == dense.bound and blocks.passed == dense.passed  # the bound carries the scale
        if s.total_rep.charges is not None:  # invariant by construction: exactly the dense defect, 0
            assert blocks.residual == dense.residual
            assert perspective.strong_dirac_defect(s, obs.op) == perspective.strong_dirac_defect(s, obs.matrix)
        else:  # factor-held SU(2): the ladder commutators of the blocks, the dense defect in other rounding
            assert abs(blocks.residual - dense.residual) <= 1e-12 * max(1.0, dense.residual)


class _DenseRaises(Monomial):
    """A held conditioning map that cannot be densified: a reader that forms the dense C_g fails.  Its adjoint is one
    too, and the products that readers form from it are plain monomials or arrays."""

    @classmethod
    def held(cls, c: Monomial) -> "_DenseRaises":
        return cls(c.rows, c.cols, c.weights, c.shape)

    def dense(self):
        raise AssertionError("dense conditioning map")

    def dagger(self):
        return _DenseRaises(self.cols, self.rows, np.conj(self.weights), self.shape[::-1])


def _random_orientation(rep, rng):
    if rep.is_finite:
        return rep.element(int(rng.integers(1, rep.group.order)))
    return rep.element(rng.uniform(-np.pi, np.pi, size=rep.generators.shape[0]))


def _round_trip(c):
    """C^dag C of a held map: the diagonal of a monomial, read without densifying it, else the dense product."""
    return np.diag(c.gram) if isinstance(c, Monomial) else dagger(c) @ c


def _map_readers(s, ps, f1, g1, f2, g2, a, b, psi_s):
    ch = framechange.frame_change(ps, f1, g1, f2, g2)
    hom = check_weak_homomorphism(s, f1, g1, a, b)
    return {
        "round_trip": _round_trip(perspective.schrodinger_map(ps, f1, g1)),
        "projector": system_projector(s, f1, g1),
        "frame_change": ch.matrix,
        "isometry_defect": ch.scale_notes["isometry_defect"],
        "inverse": reductions.schrodinger_inverse(ps, f1, g1, psi_s),
        "weak": [hom["weak"][k] for k in sorted(hom["weak"])] + [hom["weak_check"].passed],
        "strong": [hom["strong"][k] for k in sorted(hom["strong"])],
    }


@pytest.mark.parametrize("source", ["u1-8-qubits", "u1-qubit-qubit-qutrit", "finite-regular:S3", "finite-regular:D4"])
def test_conditioning_map_readers_take_the_gathers(source, monkeypatch):
    # C_g is read from B's row labels as a monomial; the readers run without densifying it, and agree with their dense
    # branch on the densified map and with the dense products
    from oracles import condition, dense_frame_change, dense_map_products

    cfg = u1_qubits_config(8) if source == "u1-8-qubits" else cli.load_config(source)
    s = cli.build_scenario(cfg)
    ps = physical_space(s)
    assert isinstance(ps.basis, RowLabels)
    rng = np.random.default_rng(41)
    f1, f2 = list(s.frames)[:2]
    g1, g2 = _random_orientation(s.frame(f1).rep, rng), _random_orientation(s.frame(f2).rep, rng)
    a, b = (random_hermitian(rng, s.complement_dim(f1)) for _ in range(2))
    held = perspective.conditioning_map(ps, f1, g1)
    assert isinstance(held, Monomial) and isinstance(perspective.schrodinger_map(ps, f1, g1), Monomial)
    c1, c2 = (np.sqrt(s.frame(f).weight_scale) * condition(s, f, s.frame(f).orientation(g), ps.basis.basis)
              for f, g in ((f1, g1), (f2, g2)))
    assert np.array_equal(held.dense(), c1)
    psi_s = c1 @ (rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim))
    exact = perspective.conditioning_map
    with monkeypatch.context() as m:  # every reader runs with a held C_g that raises when densified
        m.setattr(perspective, "conditioning_map", lambda *args: _DenseRaises.held(exact(*args)))
        m.setattr(reductions, "conditioning_map", perspective.conditioning_map)
        with pytest.raises(AssertionError, match="dense conditioning map"):
            densify(dagger(perspective.conditioning_map(ps, f1, g1)))
        got = _map_readers(s, ps, f1, g1, f2, g2, a, b, psi_s)
    monkeypatch.setattr(perspective, "conditioning_map", lambda *args: densify(exact(*args)))  # the dense twin
    monkeypatch.setattr(reductions, "conditioning_map", perspective.conditioning_map)
    dense = _map_readers(s, ps, f1, g1, f2, g2, a, b, psi_s)
    oracle = dense_map_products(c1, a, np.eye(ps.dim), psi_s)
    want_change, want_defect = dense_frame_change(c1, c2)
    real_weights = s.total_rep.is_finite  # complex weights round differently under a fused multiply-add
    # a held C keeps the U(1) clause sources in physical coordinates, so a homomorphism residual that is rounding alone
    # (the dense one within n_phys eps max|a| max|b|, twice over) is rounded otherwise: it must be nonzero and within
    # that bound; every other value matches the dense one
    rounding = 2 * ps.dim * np.finfo(float).eps * max(1.0, float(np.abs(a).max() * np.abs(b).max()))
    for key, value in got.items():
        if real_weights:
            assert np.array_equal(value, dense[key]), key
        elif key in ("weak", "strong"):
            for held_r, dense_r in zip(value, dense[key], strict=True):
                small = dense_r <= rounding
                assert 0 < held_r <= rounding if small else held_r == pytest.approx(dense_r, rel=1e-14), key
        else:
            np.testing.assert_allclose(value, dense[key], rtol=1e-14, atol=1e-14, err_msg=key)
    assert got["weak"][-1]
    for value, want in ((got["round_trip"], oracle["round_trip"]), (got["projector"], oracle["projector"]),
                        (got["frame_change"], want_change)):
        assert np.array_equal(value, want) if real_weights else np.allclose(value, want, rtol=1e-14, atol=1e-15)
    assert abs(got["isometry_defect"] - want_defect) <= 1e-15


@pytest.mark.parametrize("case", ["su2-three-spin1", "random-seed Z3"])
def test_dense_conditioning_maps_keep_the_dense_products(case):
    if case == "su2-three-spin1":
        s = cli.build_scenario(cli.load_config(case))
    else:  # a covariant seed U e_e, U a unitary in the right-regular algebra: a valid frame with no zero amplitude
        z3 = groups.cyclic(3)
        reg = reps.regular_rep(z3)
        h = np.tensordot([0.3, 1.1 - 0.4j, 1.1 + 0.4j], reps.regular_rep(z3, "right").matrices, 1)  # Hermitian
        vals, vecs = np.linalg.eigh(h)
        seed = (vecs * np.exp(1j * vals)) @ vecs.conj()[0]
        frame = frames.make_frame(reg, seed, name="R")
        s = perspective.make_scenario(z3, [("R", reg), ("S", reg)], {"R": ("R", frame)})
    ps = physical_space(s)
    f = next(iter(s.frames))
    g = _random_orientation(s.frame(f).rep, np.random.default_rng(2))
    m = perspective.schrodinger_map(ps, f, g)
    assert isinstance(m, np.ndarray)  # held dense, as the contraction gives it
    assert np.count_nonzero(m, axis=0).max() > 1
    np.testing.assert_allclose(system_projector(s, f, g), m @ dagger(m), atol=1e-15)


@pytest.mark.parametrize("source", ["u1-8-qubits", "finite-regular:S3"])
def test_warm_queries_form_no_dense_conditioning_map(source, monkeypatch):
    # a warm frame change, reduction and conditional probability never condition the (kin, n_phys) basis: C_g is
    # read from B's row labels, and only physical states are conditioned
    cfg = u1_qubits_config(8) if source == "u1-8-qubits" else cli.load_config(source)
    s = cli.build_scenario(cfg)
    ps = physical_space(s)
    rng = np.random.default_rng(53)
    f1, f2 = list(s.frames)[:2]
    g1, g2, g3 = (_random_orientation(s.frame(f).rep, rng) for f in (f1, f2, f1))
    coeff = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    psi = ps.basis.basis @ (coeff / np.linalg.norm(coeff))
    q, _ = np.linalg.qr(rng.standard_normal((s.complement_dim(f1), 3)))
    proj = q @ q.T

    def queries():
        framechange.frame_change(ps, f1, g1, f2, g2)
        framechange.frame_change(ps, f1, g1, f1, g3)
        reductions.schrodinger_reduce(ps, f1, g1, psi)
        reductions.conditional_probability(ps, f1, g1, proj, psi)

    queries()  # warm: the labels and the twirl indices are cached
    shapes = []
    exact = perspective.Scenario.condition_vector

    def recording(self, frame_name, phi, x):
        shapes.append(np.shape(x))
        return exact(self, frame_name, phi, x)

    monkeypatch.setattr(perspective.Scenario, "condition_vector", recording)
    queries()
    assert shapes and all(len(shape) == 1 for shape in shapes), shapes


@pytest.mark.parametrize("source", ["u1-8-qubits", "u1-qubit-qubit-qutrit"])
def test_twirl_blocks_by_takes_equal_the_grid_gathers(source):
    # each W = 1 weight block of the aligned operand is gathered by 1-D takes, bit-equal to the np.ix_ grid gather,
    # from index arrays of O(kin) entries in all
    from oracles import grid_twirl

    cfg = u1_qubits_config(8) if source == "u1-8-qubits" else cli.load_config(source)
    s = cli.build_scenario(cfg)
    assert reps.weight_basis(s.total_rep).vectors is None
    rng = np.random.default_rng(59)
    for frame in s.frames:
        g = _random_orientation(s.frame(frame).rep, rng)
        f_s = random_hermitian(rng, s.complement_dim(frame))
        got = relational_observable(s, frame, g, f_s, check=False).op
        want = grid_twirl(s, frame, g, f_s)
        assert got.blocks.keys() == want.blocks.keys()
        assert all(np.array_equal(got.blocks[w], want.blocks[w]) for w in want.blocks), frame
        assert sum(r.size + c.size for r, c in s._cache[("twirl_index", frame)].values()) == 2 * s.kin_dim


_FINITE_SOURCES = [n for n in cli.builtin_names() if n.startswith("finite-regular:")] + ["finite-regular:Z7"]


@pytest.mark.parametrize("source", _FINITE_SOURCES)
def test_orbit_means_equal_the_dense_twirl_bit_for_bit(source):
    # every ideal frame, every orientation: the held means gather to exactly the formed operand's twirl
    from oracles import embed_pair

    s = cli.build_scenario(cli.load_config(source))
    rng = np.random.default_rng(61)
    for name in s.frames:
        frame = s.frame(name)
        f_s = random_hermitian(rng, s.complement_dim(name))
        for g in frame.group.elements():
            held = perspective._twirled(s, name, g, f_s, perspective.DEFAULT_TOL)
            phi = frame.orientation(frame.rep.element(g))
            operand = embed_pair(s.dims, s.frame_slot(name), np.outer(phi, np.conj(phi)), f_s)
            dense = reps.group_average(s.total_rep, operand, "twirl", frame.weight_scale)
            assert isinstance(held, reps.OrbitMeans) and np.array_equal(held.dense(), dense), (name, g)
            assert perspective.strong_dirac_defect(s, dense) == 0.0
            assert perspective.dirac_check(s, held) == perspective.dirac_check(s, dense)


@pytest.mark.parametrize("source", ["finite-regular:S3", "finite-regular:Z5"])
def test_ideal_frame_queries_form_no_kinematical_operand(source, monkeypatch):
    s = cli.build_scenario(cli.load_config(source))
    ps = physical_space(s)
    rng = np.random.default_rng(62)
    for name in s.frames:
        framechange.ensure_lr(s.frame(name))  # the right action is a twirl, built once per frame and cached

    def forbidden(*args, **kwargs):
        raise AssertionError("a kinematical operand was formed or twirled")

    monkeypatch.setattr(perspective.Scenario, "embed_frame_operator", forbidden)
    for module in (reps, perspective):
        monkeypatch.setattr(module, "group_average", forbidden)
    monkeypatch.setattr(reps, "_finite_twirl", forbidden)
    for name in s.frames:
        comp = s.complement_dim(name)
        f_s = random_hermitian(rng, comp)
        q = np.linalg.qr(rng.standard_normal((comp, comp // 2)))[0]
        psi = ps.basis.basis @ np.ones(ps.dim) / math.sqrt(ps.dim)
        obs = relational_observable(s, name, 1, f_s, check=True)
        assert isinstance(obs.op, reps.OrbitMeans)
        assert 0.0 <= reductions.conditional_probability(ps, name, 2, q @ dagger(q), psi) <= 1.0
        moved = framechange.reorient(s, name, 3, obs)
        assert isinstance(moved.op, reps.OrbitMeans)
        direct = relational_observable(s, name, moved.orientation, f_s)
        assert np.array_equal(moved.op.means, direct.op.means)


@pytest.mark.parametrize("source", ["finite-regular:S3", "finite-regular:D4"])
def test_held_observables_are_restricted_and_applied_without_a_full_gather(source, monkeypatch):
    # every library reader applies orbit means through the row-blocked ``@``, never through ``dense()``
    s = cli.build_scenario(cli.load_config(source))
    ps = physical_space(s)
    rng = np.random.default_rng(64)

    def forbidden(self):
        raise AssertionError("orbit means were densified")

    monkeypatch.setattr(reps.OrbitMeans, "dense", forbidden)
    psi = ps.basis.basis @ np.ones(ps.dim) / math.sqrt(ps.dim)
    for name in s.frames:
        comp = s.complement_dim(name)
        a, b, f_s = (random_hermitian(rng, comp) for _ in range(3))
        assert check_weak_homomorphism(s, name, 1, a, b)["weak_check"].passed
        obs = relational_observable(s, name, 1, f_s, check=True)
        assert isinstance(obs.op, reps.OrbitMeans) and ps.restrict(obs.op).shape == (ps.dim, ps.dim)
        e, e_cond = (q @ dagger(q) for q in (np.linalg.qr(rng.standard_normal((comp, comp // 2)))[0]
                                             for _ in range(2)))
        assert 0.0 <= reductions.conditional_probability(ps, name, 2, e, psi) <= 1.0
        assert 0.0 <= reductions.multi_event_probability(ps, name, (e, 2), (e_cond, 3), psi) <= 1.0 + 1e-12


def _held_isinstance_calls(src_dir):
    """(file, line) of every isinstance call in ``src_dir`` that names a held class, outside the class bodies."""
    held, found = {"OrbitMeans", "WeightBlocks"}, []
    for path in sorted(pathlib.Path(src_dir).glob("*.py")):
        tree = ast.parse(path.read_text())
        own = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name in held] \
            if path.name == "reps.py" else []
        inside = {id(n) for body in own for n in ast.walk(body)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                    and id(node) not in inside and len(node.args) == 2 \
                    and {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])} & held:
                found.append((path.name, node.lineno))
    return found


def test_no_reader_names_a_held_class():
    # the held forms answer their readers themselves (the protocol of ``reps``), so no reader branches on them
    assert _held_isinstance_calls(pathlib.Path(perspective.__file__).parent) == []


@pytest.mark.parametrize("source", ["finite-regular:S3", "finite-regular:D4", "u1-qubit-qubit-qutrit",
                                    "su2-three-spin1"])
def test_held_forms_answer_as_their_dense_matrix(source):
    from oracles import strong_dirac_defect

    s = cli.build_scenario(cli.load_config(source))
    b = physical_space(s).basis.basis
    rng = np.random.default_rng(65)
    for name in s.frames:
        frame = s.frame(name)
        for g in (frame.rep.identity_element(), _random_orientation(frame.rep, rng)):
            op = relational_observable(s, name, g, random_hermitian(rng, s.complement_dim(name)), check=False).op
            dense = op.dense()
            want = dagger(b) @ (dense @ b)
            assert isinstance(op, reps.OrbitMeans if s.total_rep.is_finite else reps.WeightBlocks)
            assert np.abs(op.restrict(b) - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(dense).max())
            assert op.largest_entry() == np.abs(dense).max()
            # today's rule: orbit means on their rep and charge-held blocks; SU(2) blocks are still commuted
            invariant = op.dirac_defect(s.total_rep) == 0.0
            assert invariant == (s.total_rep.charges is not None or s.total_rep.is_finite)
            if invariant:
                assert strong_dirac_defect(s, dense) <= perspective.dirac_check(s, op).bound
            assert perspective.dirac_check(s, op).passed


def test_dirac_check_densifies_a_non_invariant_held_form_once(rotated_u1_scenario, monkeypatch):
    # rotated weight blocks do not commute with the total charge by construction: one dense form gives the scale
    # and the defect, the same check as the dense operator's
    s = rotated_u1_scenario
    f_s = random_hermitian(np.random.default_rng(65), s.complement_dim("B"))
    held = relational_observable(s, "B", 0.3, f_s, check=False).op
    assert held.dirac_defect(s.total_rep) is None
    calls, dense = [], reps.WeightBlocks.dense
    monkeypatch.setattr(reps.WeightBlocks, "dense", lambda self: calls.append(1) or dense(self))
    relational_observable(s, "B", 0.3, f_s, check=True)
    assert len(calls) == 1
    assert perspective.dirac_check(s, held) == perspective.dirac_check(s, dense(held))


def _s3_on_three_points():
    """S3 on three points with the frame's seed e_0 (isotropy of order 2) beside two regular S3 subsystems."""
    g = groups.symmetric_3()
    points = reps.finite_rep(g, [np.eye(3)[:, p] for p in sorted(itertools.permutations(range(3)))])
    reg = reps.regular_rep(g)
    frame = frames.make_frame(points, [1, 0, 0], name="P")
    return perspective.make_scenario(g, [("P", points), ("S1", reg), ("S2", reg)], {"P": ("P", frame)})


def _d4_with_a_full_support_frame():
    """Three regular D4 parties, the frame on the first seeded by ``build_lr_seed``: every entry nonzero."""
    reg = reps.regular_rep(groups.dihedral_4())
    frame = frames.make_frame(reg, frames.build_lr_seed(reps.isotypic_decompose(reg)), name="R")
    assert np.count_nonzero(frame.seed) == reg.dim
    return perspective.make_scenario(reg.group, [("R", reg), ("S1", reg), ("S2", reg)], {"R": ("R", frame)})


@pytest.mark.parametrize("build, meets", [(_s3_on_three_points, 2), (_d4_with_a_full_support_frame, None)])
def test_support_rule_equals_the_dense_twirl_off_the_ideal_frames(build, meets):
    # the one rule for table-held reps covers a frame with isotropy, whose identity-ket block meets each pair orbit
    # once per isotropy element, and a seed with full support
    from oracles import dense_relational_observable, pair_orbit_labels

    s = build()
    name = next(iter(s.frames))
    frame, comp, kin = s.frame(name), s.complement_dim(name), s.kin_dim
    if meets is not None:  # the frame sits in slot 0: (a, c) is kinematical index a comp + c
        labels = pair_orbit_labels(reps.permutation_table(s.total_rep))[0]
        block = labels[(np.arange(comp)[:, None] * kin + np.arange(comp)).reshape(-1)]
        assert set(np.bincount(block)) - {0} == {meets}
    f_s = random_hermitian(np.random.default_rng(66), comp)
    for g in frame.group.elements():
        obs = relational_observable(s, name, g, f_s, check=True)
        want = dense_relational_observable(s, name, g, f_s)
        assert isinstance(obs.op, reps.OrbitMeans)
        assert np.abs(obs.op.dense() - want).max() <= 1e-13 * np.abs(want).max(), g
        assert perspective.dirac_check(s, obs.op).passed


def _points_cubed():
    """S3 on three points, three parties, the frame on the first seeded e_0: every index has a stabiliser of order 2
    or 6, so the total table does not act freely."""
    g = groups.symmetric_3()
    points = reps.finite_rep(g, [np.eye(3)[:, p] for p in sorted(itertools.permutations(range(3)))])
    frame = frames.make_frame(points, [1, 0, 0], name="P")
    return perspective.make_scenario(g, [("P", points), ("Q", points), ("S", points)], {"P": ("P", frame)})


@pytest.mark.parametrize("source", ["finite-regular:S3", "finite-regular:D4", "points^3"])
def test_leader_rows_answer_as_the_dense_relational_observable(source):
    # free tables (S3^3, D4^3) and a table with stabilisers: every reader of a held observable against the formed
    # operand's twirl, and a reorientation's read against the observable built at the new orientation
    from oracles import dense_relational_observable

    s = _points_cubed() if source == "points^3" else cli.build_scenario(cli.load_config(source))
    kin, b = s.kin_dim, physical_space(s).basis.basis
    assert np.all(reps._index_orbits(s.total_rep).sizes == s.group.order) == (source != "points^3")
    rng = np.random.default_rng(68)
    v, x = rng.standard_normal(kin) + 1j * rng.standard_normal(kin), rng.standard_normal((kin, 3)) + 0j
    for name in s.frames:
        frame = s.frame(name)
        f_s = random_hermitian(rng, s.complement_dim(name))
        held, other = (relational_observable(s, name, g, f_s).op for g in (1, frame.group.order - 1))
        want, want_other = (dense_relational_observable(s, name, g, f_s) for g in (1, frame.group.order - 1))
        bound = 1e-13 * kin * np.abs(want).max()

        def close(got, ref):
            return np.abs(got - ref).max() <= bound

        assert isinstance(held, reps.OrbitMeans) and close(held.dense(), want)
        assert close(held @ v, want @ v) and close(held @ x, want @ x)
        assert close(held.restrict(b), dagger(b) @ want @ b)
        assert close((held - other).dense(), want - want_other)
        assert abs(held.largest_entry() - np.abs(want).max()) <= bound
        assert abs(held.norm() - np.linalg.norm(want)) <= bound
        if frame.dim == frame.group.order:  # a regular frame has a right action: reorient, read as held
            obs = relational_observable(s, name, 1, f_s)
            moved = framechange.reorient(s, name, 2, obs)
            assert isinstance(moved.op, reps.OrbitMeans)
            assert close(moved.op.dense(), dense_relational_observable(s, name, moved.orientation, f_s))


def test_a_finite_report_keeps_no_kinematical_square_on_the_total_rep(monkeypatch):
    # after the full D4 report the total rep holds its table, its index orbits and the inverse table, O(|G| kin)
    # numbers, and no pair labels or other kin x kin array: no report densifies a held observable there
    built, build = [], cli.build_scenario
    monkeypatch.setattr(cli, "build_scenario", lambda cfg: built.append(build(cfg)) or built[-1])
    assert cli.run(cli.load_config("finite-regular:D4"))["summary"]["checks_failed"] == 0
    rep = built[0].total_rep
    arrays = [a for v in rep._iso_cache.values()
              for a in ([v] if isinstance(v, np.ndarray) else [getattr(v, f.name) for f in dataclasses.fields(v)])]
    assert set(rep._iso_cache) == {"perm", "orbits"} and rep._matrices is None
    assert max(a.size for a in arrays) == rep.group.order * rep.dim < rep.dim**2


def test_weak_homomorphism_traces_under_two_mib():
    # caches warm on the D4 report's scenario: seven leader-row observables, restricted and applied as held
    s = cli.build_scenario(cli.load_config("finite-regular:D4"))
    name = next(iter(s.frames))
    rng = np.random.default_rng(69)
    a, b = (random_hermitian(rng, s.complement_dim(name)) for _ in range(2))
    check_weak_homomorphism(s, name, 0, a, b)
    tracemalloc.start()
    try:
        assert check_weak_homomorphism(s, name, 0, a, b)["weak_check"].passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak  # 6.77 MiB with the kin^2 pair labels and row-blocked gathers


def test_finite_observables_trace_under_one_mib():
    # eight checked observables of the D4 report, caches warm: no (|G|, comp^2) gather nor kin x kin array is formed
    s = cli.build_scenario(cli.load_config("finite-regular:D4"))
    name = next(iter(s.frames))
    f_s = random_hermitian(np.random.default_rng(67), s.complement_dim(name))
    relational_observable(s, name, 0, f_s, check=True)
    tracemalloc.start()
    try:
        for g in s.frame(name).group.elements():
            relational_observable(s, name, g, f_s, check=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # one kin x kin complex array is 4 MiB


def test_relational_observable_refuses_an_operator_that_fails_the_dirac_check(monkeypatch):
    s = cli.build_scenario(cli.load_config("finite-regular:Z3"))
    moved = np.zeros((s.kin_dim, s.kin_dim), dtype=complex)
    moved[0, 1] = 1.0  # |0><1| is moved by the Z3 action: not invariant
    monkeypatch.setattr(perspective, "_twirled", lambda *args: moved)
    with pytest.raises(ValueError, match=r"relational observable failed the Dirac commutation check \(1\.41e\+00\)"):
        perspective.relational_observable(s, "R1", 0, np.eye(s.complement_dim("R1")))
    assert perspective.relational_observable(s, "R1", 0, np.eye(s.complement_dim("R1")), check=False).op is moved


# ---------------------------------------------------------------------------
# conditioning plans
# ---------------------------------------------------------------------------


def _generated_configs() -> dict:
    """The benchmark's generated configs by name, read from perfbench/workloads.py (standard library only)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("plan_test_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their annotations through it
    spec.loader.exec_module(module)
    found = [s for w in module.WORKLOADS.values() for s in w.reports + w.queries if s.config is not None]
    return {s.name: s.config for s in found}


_GENERATED = _generated_configs()


def _any_scenario(source: str) -> perspective.Scenario:
    """A builtin, or a generated benchmark config, as a built scenario."""
    cfg = cli.parse_config(json.dumps(_GENERATED[source])) if source in _GENERATED else cli.load_config(source)
    return cli.build_scenario(cfg)


def _plan_orientations(frame) -> list:
    """Every element of a finite frame's group; U(1) at 0, pi and two more angles; SU(2) at e and two draws."""
    if frame.rep.is_finite:
        return list(frame.group.elements())
    if frame.group.kind == "U1":
        return [frame.rep.element([t]) for t in (0.0, np.pi, 0.4, -2.3)]
    rng = np.random.default_rng(8)
    return [frame.rep.identity_element()] + [frame.rep.element(rng.uniform(-np.pi, np.pi, 3)) for _ in range(2)]


def _plan_defects(ps, name, orientations) -> list:
    """The orientations at which C_g read from the plan is not the dense contraction sqrt(Vol) (<phi(g)| x 1) B bit
    for bit; a monomial is compared as its dense matrix."""
    s = ps.scenario
    return [g for g in orientations if not np.array_equal(
        densify(perspective.conditioning_map(ps, name, g)), perspective.condition_on(s, name, g, ps.basis.basis))]


@pytest.mark.parametrize("source", sorted(builtin_names()) + sorted(_GENERATED))
def test_conditioning_plan_is_the_dense_contraction(source):
    # a U(1) frame (every orientation has full support) and an identity-ket finite frame (every orientation is one
    # frame index, a slice of the plan) read C_g as a monomial; SU(2) frames keep the dense contraction
    s = _any_scenario(source)
    ps = physical_space(s)
    for name in s.frames:
        frame = s.frame(name)
        orientations = _plan_orientations(frame)
        assert _plan_defects(ps, name, orientations) == [], name
        held = frame.rep.is_finite or frame.rep.charges is not None
        assert all(isinstance(perspective.conditioning_map(ps, name, g), Monomial) == held for g in orientations)
    assert (set(ps._plans) == set(s.frames)) == isinstance(ps.basis, RowLabels)


@pytest.mark.parametrize("source", ["finite-regular:S3", "u1-8-qubits"])
def test_plan_oracle_catches_a_plan_without_the_volume(source):
    # a plan whose entries drop sqrt(Vol) is a map short of the contraction, and the round-trip gate refuses it
    s = _any_scenario(source)
    ps = physical_space(s)
    name = next(iter(s.frames))
    frame = s.frame(name)
    orientations = _plan_orientations(frame)
    assert _plan_defects(ps, name, orientations) == []
    plan = ps._plans[name]
    ps._plans[name] = plan._replace(vals=plan.vals / np.sqrt(frame.weight_scale))
    assert _plan_defects(ps, name, orientations) == orientations
    with pytest.raises(ValueError, match="round trip"):
        perspective.schrodinger_map(ps, name, orientations[0])


def test_isotropy_frame_keeps_the_per_call_test(monkeypatch):
    # S3 on three points with the seed e_0: phi(g) is one frame index, but two of its entries meet one column (the
    # point's stabiliser joins them in an orbit), so its flag fails, the per-call test runs and C_g stays dense
    s = _points_cubed()
    ps = physical_space(s)
    frame = s.frame("P")
    calls = []
    exact = perspective._distinct
    monkeypatch.setattr(perspective, "_distinct", lambda idx, n: calls.append(n) or exact(idx, n))
    for g in frame.group.elements():
        calls.clear()
        c = perspective.conditioning_map(ps, "P", g)
        assert calls and isinstance(c, np.ndarray)
        assert np.count_nonzero(frame.orientation(g)) == 1
    plan = ps._plans["P"]
    assert not plan.distinct and not plan.distinct_at.any()
    assert _plan_defects(ps, "P", list(frame.group.elements())) == []


def test_warm_u1_frame_changes_read_the_plans_alone(monkeypatch):
    # warm frame changes, same-frame and cross-frame, form their maps from the cached plans: no label arithmetic, no
    # distinctness test, and no cache beyond one O(nnz B) plan per frame
    s = cli.build_scenario(u1_qubits_config(8))
    ps = physical_space(s)
    rng = np.random.default_rng(71)
    pairs = list(itertools.product(s.frames, repeat=2))

    def changes():
        for f1, f2 in pairs:
            framechange.frame_change(ps, f1, rng.uniform(-np.pi, np.pi, 1), f2, rng.uniform(-np.pi, np.pi, 1))

    changes()
    cached = (set(s._cache), set(vars(ps)))
    calls = []

    def counting(name, f):
        return lambda *args, **kwargs: calls.append(name) or f(*args, **kwargs)

    monkeypatch.setattr(np, "divmod", counting("divmod", np.divmod))
    monkeypatch.setattr(np, "bincount", counting("bincount", np.bincount))
    monkeypatch.setattr(perspective, "_distinct", counting("_distinct", perspective._distinct))
    changes()
    assert calls == []
    assert (set(s._cache), set(vars(ps))) == cached
    nnz = ps.basis.rows.size
    assert set(ps._plans) == set(s.frames)
    for name, plan in ps._plans.items():
        assert plan.distinct and plan.distinct_at.all() and plan.starts.size == s.frame(name).dim + 1
        assert plan.index.size == plan.rows.size == plan.cols.size == plan.vals.size == nnz == ps.dim


@pytest.mark.parametrize("held", [True, False], ids=["monomial", "dense"])
def test_round_trip_gate_refuses_a_nan_map(held, monkeypatch):
    # a NaN fails every comparison, so a map whose round trip reads NaN fails the gate rather than passing it
    s = cli.build_scenario(u1_qubits_config(8))
    ps = physical_space(s)
    c = perspective.conditioning_map(ps, "Q0", [0.4])
    bad = Monomial(c.rows, c.cols, np.where(np.arange(c.weights.size) == 3, np.nan, c.weights), c.shape)
    monkeypatch.setattr(perspective, "conditioning_map", lambda *args: bad if held else bad.dense())
    with pytest.raises(ValueError, match=r"reduction map failed its round trip C\^dag C = 1 \(nan\)"):
        perspective.schrodinger_map(ps, "Q0", [0.4])


@pytest.mark.parametrize("fixture, frame", [("u1_scenario", "B"), ("s3_regular_scenario", "R2")])
def test_stacked_conditioning_and_injection_equal_one_vector_at_a_time(fixture, frame, request):
    # a stack of frame vectors conditions on each row, and injects as the sum of the rows' injections
    s = request.getfixturevalue(fixture)
    rng = np.random.default_rng(71)
    d, comp = s.frame(frame).dim, s.complement_dim(frame)
    phis = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
    for shape in ((s.kin_dim,), (s.kin_dim, 3), (s.kin_dim, 0)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stacked = s.condition_vector(frame, phis, x)
        assert stacked.shape == (4, comp) + shape[1:]
        for phi, row in zip(phis, stacked):
            assert np.abs(row - s.condition_vector(frame, phi, x)).max(initial=0.0) <= 1e-14
        chi = rng.standard_normal((4, comp) + shape[1:]) + 1j * rng.standard_normal((4, comp) + shape[1:])
        summed = sum(s.inject_vector(frame, phi, c) for phi, c in zip(phis, chi))
        assert np.abs(s.inject_vector(frame, phis, chi) - summed).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("source", ["u1-10-qubits", "u1-qubit-qubit-qutrit"])
def test_charge_held_restriction_is_a_gather_bit_equal_to_the_product(source, monkeypatch):
    # B's weight-0 rows are an exact 0/1 permutation on a charge-held rep (one-hot, as its labels say): B^dag F B is
    # a gather, found from B itself
    s = cli.build_scenario(u1_qubits_config(10) if source == "u1-10-qubits" else cli.load_config(source))
    ps, name = physical_space(s), next(iter(s.frames))
    assert isinstance(ps.basis, RowLabels) and np.all(ps.basis.vals == 1)
    f_s = random_hermitian(np.random.default_rng(91), s.complement_dim(name))
    held = perspective._twirled(s, name, [0.3], f_s, Tolerance())
    x = ps.basis.basis[held.basis.sectors[0]]
    product = dagger(x) @ held.blocks[0] @ x
    with monkeypatch.context() as m:
        m.setattr(reps, "dagger", lambda x: pytest.fail("restricted by a product"))
        gathered = ps.restrict(held)
    assert np.array_equal(gathered, product)


def test_u1_weak_homomorphism_grows_the_traced_heap_by_under_8_mib():
    # on U(1)-10 the clause sources stay n_phys x n_phys (252 x 252) and only the drawn a is twirled from the
    # 512 x 512 complement: 23.6 MiB of growth when the sources were complement-sized, 10.65 MiB while the twirl
    # scaled copies of its blocks and the restriction formed B's weight-0 rows, 9.69 MiB while F_a and F_b were
    # held whole, 7.06 MiB now that each weight block is built on read and formed in its gathered f_S block
    s = cli.build_scenario(u1_qubits_config(10))
    name = next(iter(s.frames))
    rng = np.random.default_rng(95)
    a, b = (random_hermitian(rng, s.complement_dim(name)) for _ in range(2))
    e = s.frame(name).rep.identity_element()
    check_weak_homomorphism(s, name, e, a, b)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        assert check_weak_homomorphism(s, name, e, a, b)["weak_check"].passed
        growth = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert growth <= 8 * 2**20, growth / 2**20


def test_sandwich_algebra_and_blocks_match_the_complement_sized_products():
    # C X C^dag held by X: sums, products X G Y and adjoints equal the complement-sized products, and each block is
    # read from X bit-equal to the monomial products C X C^dag
    s = cli.build_scenario(u1_qubits_config(6))
    ps, name = physical_space(s), next(iter(s.frames))
    c = perspective.conditioning_map(ps, name, [0.7])
    assert isinstance(c, Monomial) and c.shape[0] > ps.dim
    rng = np.random.default_rng(97)
    x, y = (rng.standard_normal((ps.dim, ps.dim)) + 1j * rng.standard_normal((ps.dim, ps.dim)) for _ in range(2))
    sx, sy = perspective._Sandwich(c, x), perspective._Sandwich(c, y)
    cd = c.dense()
    px, py = cd @ x @ dagger(cd), cd @ y @ dagger(cd)
    for held, want in ((sx + sy, px + py), (sx @ sy, px @ py), (sx + sy @ sx, px + py @ px), (dagger(sx), dagger(px))):
        assert isinstance(held, perspective._Sandwich)
        np.testing.assert_allclose(cd @ held.x @ dagger(cd), want, rtol=0, atol=1e-13)
    idx = np.sort(rng.permutation(c.shape[0])[: c.shape[0] // 2])
    assert np.array_equal(sx.block(idx), (c @ x @ dagger(c))[np.ix_(idx, idx)])


def _golden_sources(tmp_path_factory) -> dict:
    from test_golden import sources

    return sources(tmp_path_factory.mktemp("configs"))


def test_label_span_is_the_closure_oracle(tmp_path_factory):
    # every frame of the golden configs: a monomial C_e on a charge- or table-held complement spans a coordinate
    # subspace, held by its labels with no closure, equal to the SVD closure of the densified C_e; any other frame
    # (SU(2), frame P of the S3 isotropy config) keeps that closure
    from oracles import closure_span

    labelled = closed = 0
    for source in _golden_sources(tmp_path_factory).values():
        cfg = cli.load_config(source)
        s, tol = cli.build_scenario(cfg), cfg.tol()
        ps = physical_space(s, tol)
        for name in s.frames:
            span, oracle = physical_system_span(s, name, tol), closure_span(s, name, tol)
            c_e = perspective.conditioning_map(ps, name, s.frame(name).rep.identity_element())
            comp = s.complement_rep(name)
            held = isinstance(c_e, Monomial) and (comp.charges is not None or reps.permutation_table(comp) is not None)
            assert isinstance(span, RowLabels) == held, (source, name)
            assert span.dim == oracle.dim, (source, name)
            assert np.abs(span.projector() - oracle.projector()).max(initial=0.0) <= 1e-12, (source, name)
            labelled, closed = labelled + held, closed + (not held)
    assert labelled >= 20 and closed >= 5


@pytest.mark.parametrize("source", ["finite-regular:S3", "u1-8-qubits", "u1-qubit-qubit-qutrit", "s3-isotropy"])
def test_labelled_physical_space_reads_as_the_dense_basis(source):
    # B held by its row labels answers every reader as the dense B of the oracle: the basis itself, B c, its column
    # blocks, the invariance check, held restrictions and the column-blocked product form
    from oracles import dense_fixed_subspace, dense_invariance, dense_product_form

    cfg = {"u1-8-qubits": u1_qubits_config(8), "s3-isotropy": cli.load_config(str(S3_ISOTROPY))}.get(source)
    s = cli.build_scenario(cfg or cli.load_config(source))
    ps = physical_space(s)
    assert isinstance(ps.basis, RowLabels)
    b = ps.basis.basis
    assert np.array_equal(b, dense_fixed_subspace(s.total_rep).basis)
    rng = np.random.default_rng(101)
    c = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    assert np.array_equal(ps.basis @ c, b @ c)
    assert np.array_equal(ps.basis.columns(1, 4), b[:, 1:4]) and np.array_equal(ps.basis.columns(2, 10**6), b[:, 2:])
    assert ps.invariance_check().residual == dense_invariance(ps) == 0.0
    moved = perspective.PhysicalSpace(s, RowLabels.coordinates(s.kin_dim, np.array([0, s.kin_dim - 1])))
    assert abs(moved.invariance_check().residual - dense_invariance(moved)) <= 1e-12
    assert moved.invariance_check().residual > 0.5
    for name in s.frames:
        g = _random_orientation(s.frame(name).rep, rng)
        op = relational_observable(s, name, g, random_hermitian(rng, s.complement_dim(name)), check=False).op
        want = dagger(b) @ (op.dense() @ b)
        assert np.abs(ps.restrict(op) - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max())
        theta = reductions.solve_theta(s.frame(name))
        if isinstance(theta, reductions.ThetaState):
            got = reductions.product_form_check(ps, name, theta).residual
            assert abs(got - dense_product_form(ps, name, theta)) <= 1e-12


def test_a_dense_conditioning_map_on_labels_reads_no_dense_basis(monkeypatch):
    # frame P's terms meet a row twice, so C_g is dense: the plan's terms summed, equal to the contraction of B
    from oracles import condition

    s = cli.build_scenario(cli.load_config(str(S3_ISOTROPY)))
    ps, frame = physical_space(s), s.frame("P")
    b = ps.basis.basis
    phis = [frame.orientation(frame.rep.element(k)) for k in range(6)]
    want = [np.sqrt(frame.weight_scale) * condition(s, "P", phi, b) for phi in phis]
    monkeypatch.setattr(RowLabels, "basis", property(lambda self: pytest.fail("dense B built")))
    for k, dense in enumerate(want):
        c = perspective.conditioning_map(ps, "P", k)
        assert isinstance(c, np.ndarray) and np.abs(c - dense).max() <= 1e-15
