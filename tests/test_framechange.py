import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import random_hermitian, regular_three_party, u1_basis_index
from qrf import frames, framechange, groups, perspective, reps
from qrf.framechange import (
    frame_change,
    relation_conditional_reorient,
    reorient,
    subsystem_relativity_report,
    tautological_relobs,
)
from qrf.builtins_config import builtin_names
from qrf.cli import build_scenario, load_config, run
from qrf.linalg import DEFAULT_TOL, Monomial, Tolerance, dagger, densify, orthonormal_range
from qrf.perspective import physical_space, relational_observable, system_projector
from qrf.reductions import schrodinger_map


def test_frame_change_matches_explicit_kernel_z2():
    s = regular_three_party(groups.cyclic(2))
    ps = physical_space(s)
    ch = frame_change(ps, "R1", 0, "R2", 0)
    g = s.group
    reg = s.subsystems[0][1]
    seed = s.frame("R1").seed
    # rows live on (R1, S), columns on (R2, S)
    kernel = np.zeros((4, 4), dtype=complex)
    for k in g.elements():
        ket = reg.matrices[k] @ seed
        bra = reg.matrices[g.inverse(k)] @ seed
        kernel += np.kron(np.outer(ket, np.conj(bra)), reg.matrices[k])
    np.testing.assert_allclose(ch.matrix, kernel, atol=1e-10)


def test_frame_change_kernel_with_orientations_s3(s3_regular_scenario):
    s = s3_regular_scenario
    ps = physical_space(s)
    g = s.group
    g1, g2 = 2, 4
    ch = frame_change(ps, "R1", g1, "R2", g2)
    reg = s.subsystems[0][1]
    seed = s.frame("R1").seed
    kernel = np.zeros((36, 36), dtype=complex)
    for k in g.elements():
        ket = reg.matrices[g.mult(k, g1)] @ seed
        bra = reg.matrices[g.mult(g.inverse(k), g2)] @ seed
        kernel += np.kron(np.outer(ket, np.conj(bra)), reg.matrices[k])
    np.testing.assert_allclose(ch.matrix, kernel, atol=1e-9)


def test_frame_change_unitarity_u1(u1_scenario):
    ps = physical_space(u1_scenario)
    ch = frame_change(ps, "A", [0.3], "C", [1.1])
    assert ch.matrix.shape == (4, 6)
    np.testing.assert_allclose(
        dagger(ch.matrix) @ ch.matrix, system_projector(u1_scenario, "A", [0.3]), atol=1e-8
    )
    np.testing.assert_allclose(ch.matrix @ dagger(ch.matrix), np.eye(4), atol=1e-8)


def test_frame_change_round_trip(u1_scenario):
    ps = physical_space(u1_scenario)
    fwd = frame_change(ps, "A", [0.3], "C", [1.1])
    back = frame_change(ps, "C", [1.1], "A", [0.3])
    np.testing.assert_allclose(
        back.matrix @ fwd.matrix, system_projector(u1_scenario, "A", [0.3]), atol=1e-8
    )


def test_frame_change_state_transport(u1_scenario):
    # transporting a conditional description matches reducing relative to the new frame
    from qrf.reductions import schrodinger_reduce

    ps = physical_space(u1_scenario)
    kin = np.zeros(12, dtype=complex)
    for charges, amp in zip(((1, 1, -2), (1, -1, 0), (-1, 1, 0), (-1, -1, 2)), (0.5, 0.5, 0.5, 0.5)):
        kin[u1_basis_index(*charges)] = amp
    red_a = schrodinger_reduce(ps, "A", [0.3], kin)
    red_c = schrodinger_reduce(ps, "C", [1.1], kin)
    ch = frame_change(ps, "A", [0.3], "C", [1.1])
    np.testing.assert_allclose(ch.matrix @ red_a, red_c, atol=1e-9)


def test_same_frame_change_is_relabeling(u1_scenario):
    ps = physical_space(u1_scenario)
    ch = frame_change(ps, "A", [0.3], "A", [0.9])
    m1 = densify(schrodinger_map(ps, "A", [0.3]))
    m2 = densify(schrodinger_map(ps, "A", [0.9]))
    np.testing.assert_allclose(ch.matrix, m2 @ dagger(m1), atol=1e-10)
    assert ch.scale_notes["isometry_defect"] <= 1e-10
    assert (ch.g_from.coords, ch.g_to.coords) == ((0.3,), (0.9,))


def test_frame_change_rejects_empty_physical_space():
    rep_c = reps.u1_rep([5, 7])  # charge sums never vanish against the two qubits
    qubit = reps.u1_rep([1, -1])
    half = np.array([1, 1]) / np.sqrt(2)
    s = perspective.make_scenario(
        groups.u1(),
        [("A", qubit), ("B", qubit), ("C", rep_c)],
        {
            "A": ("A", frames.make_frame(qubit, half, name="A")),
            "B": ("B", frames.make_frame(qubit, half, name="B")),
        },
    )
    assert physical_space(s).dim == 0
    with pytest.raises(ValueError, match="empty"):
        frame_change(physical_space(s), "A", [0.0], "B", [0.0])
    with pytest.raises(ValueError, match="empty"):
        frame_change(physical_space(s), "A", [0.0], "A", [0.7])


def test_isometry_defect_from_round_trips_matches_complement_products(s3_regular_scenario, monkeypatch):
    from oracles import frame_change_defect

    ps = physical_space(s3_regular_scenario)
    exact = {f: densify(schrodinger_map(ps, f, 0)) for f in ("R1", "R2")}
    rng = np.random.default_rng(12)
    maps = []

    def perturbed(ps_, frame_name, g, tol):
        # a near-isometry, so that the defect is far above rounding noise
        maps.append(exact[frame_name] + 1e-6 * rng.standard_normal(exact[frame_name].shape))
        return maps[-1]

    monkeypatch.setattr(framechange, "schrodinger_map", perturbed)
    for f_from, f_to in (("R1", "R2"), ("R1", "R1"), ("R2", "R1")):
        maps.clear()
        # a defect near 1e-5 passes the isometry check at tolerance 1e-4 (bound 36 * 2e-4)
        got = frame_change(ps, f_from, 0, f_to, 0, Tolerance(1e-4)).scale_notes["isometry_defect"]
        want = frame_change_defect(*maps)
        assert want > 1e-6
        assert abs(got - want) <= 1e-9 * want


# ---------------------------------------------------------------------------
# reorientations
# ---------------------------------------------------------------------------


def test_reorient_identity_leaves_observable(s3_regular_scenario):
    rng = np.random.default_rng(22)
    f_s = random_hermitian(rng, 36)
    obs = relational_observable(s3_regular_scenario, "R1", 1, f_s)
    moved = reorient(s3_regular_scenario, "R1", 0, obs)
    np.testing.assert_allclose(moved.matrix, obs.matrix, atol=1e-12)
    assert moved.orientation.index == 1


def test_reorient_orbit_action_composition(s3_regular_scenario):
    s = s3_regular_scenario
    g = s.group
    rng = np.random.default_rng(23)
    f_s = random_hermitian(rng, 36)
    obs = relational_observable(s, "R1", 2, f_s)
    a, b = 1, 4
    seq = reorient(s, "R1", b, reorient(s, "R1", a, obs))
    combined = reorient(s, "R1", g.mult(b, a), obs)
    np.testing.assert_allclose(seq.matrix, combined.matrix, atol=1e-10)
    assert seq.orientation.index == combined.orientation.index
    direct = relational_observable(s, "R1", seq.orientation, f_s)
    np.testing.assert_allclose(seq.matrix, direct.matrix, atol=1e-10)


def test_reorient_commutes_with_gauge(s3_regular_scenario):
    s = s3_regular_scenario
    v_rep = framechange.ensure_lr(s.frame("R1"))
    for k in s.group.elements():
        v_full = s.embed_frame_operator("R1", v_rep.matrices[k], np.eye(36))
        for gp in s.group.elements():
            u = s.total_rep.matrices[gp]
            assert np.linalg.norm(v_full @ u - u @ v_full) < 1e-10


def test_reorientation_check_on_a_frame_without_a_permutation_table():
    # a regular Z3 rep with one zero entry moved by 1e-17 has no permutation table, so both observables are dense
    z3 = groups.cyclic(3)
    mats = reps.regular_rep(z3).matrices.copy()
    mats[1, 0, 0] += 1e-17
    rep = reps.finite_rep(z3, mats)
    assert reps.permutation_table(rep) is None
    frame = frames.make_frame(rep, np.eye(3, dtype=complex)[z3.identity_index], name="R")
    s = perspective.make_scenario(z3, [("R", rep), ("S", reps.regular_rep(z3))], {"R": ("R", frame)})
    f_s = random_hermitian(np.random.default_rng(47), 3)
    moved, check = framechange.reorientation_check(s, "R", 1, 2, f_s)
    direct = relational_observable(s, "R", moved.orientation, f_s)
    assert isinstance(direct.op, np.ndarray) and check.passed
    assert check.residual == np.linalg.norm(moved.matrix - direct.matrix)


def test_distance_gathers_a_held_direct_beside_a_dense_moved():
    # R1's seed U e_e, U a random unitary of the right-regular algebra, makes V_R no permutation: both checks then
    # compare a dense moved observable with a held direct one
    group = groups.symmetric_3()
    reg, rng = reps.regular_rep(group), np.random.default_rng(65)
    h = np.tensordot(rng.standard_normal(6) + 1j * rng.standard_normal(6), reps.regular_rep(group, "right").matrices, 1)
    vals, vecs = np.linalg.eigh(h + dagger(h))
    seed = (vecs * np.exp(1j * vals)) @ dagger(vecs)[:, group.identity_index]
    ket = np.eye(6, dtype=complex)[group.identity_index]
    s = perspective.make_scenario(group, [("R1", reg), ("R2", reg), ("S", reg)],
                                  {"R1": ("R1", frames.make_frame(reg, seed, name="R1")),
                                   "R2": ("R2", frames.make_frame(reg, ket, name="R2"))})
    f_s, small = random_hermitian(rng, 36), random_hermitian(rng, 6)
    moved, check = framechange.reorientation_check(s, "R1", 1, 2, f_s)
    direct = relational_observable(s, "R1", moved.orientation, f_s)
    assert isinstance(moved.op, np.ndarray) and isinstance(direct.op, reps.OrbitMeans) and check.passed
    assert check.residual == np.linalg.norm(moved.matrix - direct.matrix)
    check = framechange.relation_conditional_check(s, "R1", 1, "R2", 2, small)
    obs1 = relational_observable(s, "R1", 1, framechange._identity_on(s, "R1", "R2", small))
    moved = framechange.relation_conditional_reorient(s, "R1", 1, "R2", 2, obs1)
    direct = relational_observable(s, "R2", 2, framechange._identity_on(s, "R2", "R1", small))
    assert isinstance(moved.op, np.ndarray) and isinstance(direct.op, reps.OrbitMeans) and check.passed
    assert check.residual == np.linalg.norm(moved.matrix - direct.matrix)


def test_reorient_requires_lr(three_spin_scenario):
    rng = np.random.default_rng(24)
    f_s = random_hermitian(rng, 9)
    obs = relational_observable(three_spin_scenario, "A", [0, 0, 0], f_s)
    with pytest.raises(ValueError, match="no right action"):
        reorient(three_spin_scenario, "A", [0.5, 0, 0], obs)


def test_reorient_u1_frame(u1_scenario):
    rng = np.random.default_rng(25)
    f_s = random_hermitian(rng, 6)
    obs = relational_observable(u1_scenario, "A", [1.0], f_s)
    moved = reorient(u1_scenario, "A", [0.4], obs)
    direct = relational_observable(u1_scenario, "A", [0.6], f_s)
    np.testing.assert_allclose(moved.matrix, direct.matrix, atol=1e-9)


# ---------------------------------------------------------------------------
# relation-conditional reorientations (regular representations only)
# ---------------------------------------------------------------------------


def test_relation_conditional_identity_is_unital(z3_regular_scenario):
    s = z3_regular_scenario
    obs = relational_observable(s, "R1", 1, np.eye(9))
    out = relation_conditional_reorient(s, "R1", 1, "R2", 2, obs, modified=False)
    np.testing.assert_allclose(out.matrix, np.eye(27), atol=1e-10)


@pytest.mark.parametrize("modified", [True, False])
def test_relation_conditional_maps_system_observables(z3_regular_scenario, modified):
    s = z3_regular_scenario
    rng = np.random.default_rng(26)
    small = random_hermitian(rng, 3)
    obs = relational_observable(s, "R1", 1, np.kron(np.eye(3), small))
    out = relation_conditional_reorient(s, "R1", 1, "R2", 2, obs, modified=modified)
    direct = relational_observable(s, "R2", 2, np.kron(np.eye(3), small))
    np.testing.assert_allclose(out.matrix, direct.matrix, atol=1e-9)
    assert out.frame_name == "R2"


def test_relation_conditional_tautological_target(z3_regular_scenario):
    s = z3_regular_scenario
    g = s.group
    vals = np.array([0.0, 1.0, 2.0])
    orbit2 = np.column_stack([s.frame("R2").rep.matrices[k] @ s.frame("R2").seed for k in g.elements()])
    q2 = orbit2 @ np.diag(vals) @ dagger(orbit2)
    obs = relational_observable(s, "R1", 1, np.kron(q2, np.eye(3)))
    for modified in (True, False):
        out = relation_conditional_reorient(s, "R1", 1, "R2", 2, obs, modified=modified)
        np.testing.assert_allclose(out.matrix, vals[2] * np.eye(27), atol=1e-9)


def test_relation_conditional_modified_maps_own_tautology(z3_regular_scenario):
    s = z3_regular_scenario
    g = s.group
    vals = np.array([0.5, -1.0, 2.5])
    obs = tautological_relobs(s, "R1", 1, vals)
    np.testing.assert_allclose(obs.matrix, vals[1] * np.eye(27), atol=1e-12)
    out = relation_conditional_reorient(s, "R1", 1, "R2", 2, obs, modified=True)
    orbit1 = np.column_stack([s.frame("R1").rep.matrices[k] @ s.frame("R1").seed for k in g.elements()])
    q1 = orbit1 @ np.diag(vals) @ dagger(orbit1)
    direct = relational_observable(s, "R2", 2, np.kron(q1, np.eye(3)))
    np.testing.assert_allclose(out.matrix, direct.matrix, atol=1e-9)
    # the unital form fixes tautological observables instead
    out_unital = relation_conditional_reorient(s, "R1", 1, "R2", 2, obs, modified=False)
    np.testing.assert_allclose(out_unital.matrix, vals[1] * np.eye(27), atol=1e-9)


def test_relation_conditional_image_is_reorientation_invariant(z3_regular_scenario):
    s = z3_regular_scenario
    rng = np.random.default_rng(27)
    small = random_hermitian(rng, 3)
    obs = relational_observable(s, "R1", 0, np.kron(np.eye(3), small))
    out = relation_conditional_reorient(s, "R1", 0, "R2", 1, obs)
    v_rep = framechange.ensure_lr(s.frame("R1"))
    for k in s.group.elements():
        v_full = s.embed_frame_operator("R1", v_rep.matrices[k], np.eye(9))
        assert np.linalg.norm(v_full @ out.matrix - out.matrix @ v_full) < 1e-9


def test_relation_conditional_rejects_non_regular(u1_scenario):
    rng = np.random.default_rng(28)
    obs = relational_observable(u1_scenario, "A", [0.0], random_hermitian(rng, 6))
    with pytest.raises(ValueError, match="regular"):
        relation_conditional_reorient(u1_scenario, "A", [0.0], "C", [0.0], obs)


def test_relation_conditional_rejects_non_regular_finite_frame():
    # a valid Z4 frame on a 2-dim representation is not a regular-representation frame
    g = groups.cyclic(4)
    mats = np.stack([np.diag([1.0, (-1.0) ** k]).astype(complex) for k in range(4)])
    rep = reps.finite_rep(g, mats)
    f1 = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2), name="R1")
    reg = reps.regular_rep(g)
    seed = np.zeros(4, dtype=complex)
    seed[0] = 1.0
    f2 = frames.make_frame(reg, seed, name="R2")
    s = perspective.make_scenario(
        g, [("R1", rep), ("R2", reg), ("S", rep)], {"R1": ("R1", f1), "R2": ("R2", f2)}
    )
    obs = relational_observable(s, "R1", 0, np.eye(8), check=False)
    with pytest.raises(ValueError, match="not a regular"):
        relation_conditional_reorient(s, "R1", 0, "R2", 0, obs)


def _forbid_right_conjugation(monkeypatch):
    """In the orbit coordinates V_R(k) relabels frame 1's orbit label, so no target is a V_R conjugate."""

    def conjugate(*args):
        raise AssertionError("relation_conditional_reorient conjugated by V_R")

    monkeypatch.setattr(framechange, "_right_conjugate", conjugate)


def _kron_slots_relation_conditional(s, frame1, g1, frame2, g2, obs, modified):
    """Oracle: the orientation projector of every g' as a Kronecker product over every slot."""
    f1, f2 = s.frame(frame1), s.frame(frame2)
    group = f1.rep.group
    orbit1, orbit2 = (
        np.column_stack([f.rep.matrices[k] @ f.seed for k in group.elements()]) for f in (f1, f2)
    )
    slot1, slot2 = s.frame_slot(frame1), s.frame_slot(frame2)
    v_rep = framechange.ensure_lr(f1)
    out = np.zeros((s.kin_dim, s.kin_dim), dtype=complex)
    for gp in group.elements():
        q = np.zeros_like(out)
        for g in group.elements():
            gg = group.mult(g, gp)
            ops = {
                slot1: np.outer(orbit1[:, g], np.conj(orbit1[:, g])),
                slot2: np.outer(orbit2[:, gg], np.conj(orbit2[:, gg])),
            }
            term = np.ones((1, 1), dtype=complex)
            for i, d in enumerate(s.dims):
                term = np.kron(term, ops.get(i, np.eye(d)))
            q += term
        if modified:
            label = group.mult(g2, group.inverse(gp))
            out += q @ relational_observable(s, frame1, label, obs.source, check=False).matrix
        else:
            k = group.mult(gp, group.mult(group.inverse(g2), g1))
            v_full = s.embed_frame_operator(frame1, v_rep.matrices[k], np.eye(s.complement_dim(frame1)))
            out += q @ v_full @ obs.matrix @ dagger(v_full)
    return out


def test_permutation_right_action_conjugates_by_a_gather():
    # the regular frames' V_R is a permutation rep, so the slot conjugation is a gather;
    # the dense two-sided product is its oracle, on every slot of a three-party D4 scenario
    g = groups.dihedral_4()
    reg = reps.regular_rep(g)
    seed = np.zeros(g.order, dtype=complex)
    seed[g.identity_index] = 1.0
    frame = frames.make_frame(reg, seed, name="R")
    v_rep, _ = frames.lr_classify(frame)
    assert reps.permutation_table(v_rep) is not None
    dims = [8, 8, 8]
    m = random_hermitian(np.random.default_rng(41), 512)
    for slot in range(3):
        for k in (1, 3, 6):
            np.testing.assert_allclose(
                framechange._right_conjugate(dims, slot, v_rep, k, m),
                framechange._conjugate_slot(dims, slot, v_rep.matrices[k], m),
                atol=1e-12,
            )


@pytest.mark.parametrize("frame1, frame2", [("R1", "R2"), ("R2", "R1")])
def test_relation_conditional_non_adjacent_frames_match_kron_oracle(frame1, frame2, monkeypatch):
    # frames in slots 0 and 2 with the system between them, in both orders
    g = groups.symmetric_3()
    reg = reps.regular_rep(g)
    seed = np.zeros(g.order, dtype=complex)
    seed[g.identity_index] = 1.0
    s = perspective.make_scenario(
        g,
        [("R1", reg), ("S", reg), ("R2", reg)],
        {name: (name, frames.make_frame(reg, seed, name=name)) for name in ("R1", "R2")},
    )
    rng = np.random.default_rng(29)
    obs = relational_observable(s, frame1, 4, random_hermitian(rng, 36))
    _forbid_right_conjugation(monkeypatch)
    for modified in (True, False):
        out = relation_conditional_reorient(s, frame1, 4, frame2, 2, obs, modified=modified)
        oracle = _kron_slots_relation_conditional(s, frame1, 4, frame2, 2, obs, modified)
        np.testing.assert_allclose(out.matrix, oracle, atol=1e-10)


@pytest.mark.parametrize("group", [groups.symmetric_3(), groups.dihedral_4()], ids=["S3", "D4"])
def test_relation_conditional_matches_twirl_family_oracle(group, monkeypatch):
    from oracles import relation_conditional_reorient as twirl_family

    s = regular_three_party(group)
    n = group.order
    rng = np.random.default_rng(31)
    observables = {
        "identity": relational_observable(s, "R1", 0, random_hermitian(rng, n * n)),
        "non-identity": relational_observable(s, "R1", 3, random_hermitian(rng, n * n)),
        "reoriented": reorient(s, "R1", 2, relational_observable(s, "R1", 1, random_hermitian(rng, n * n))),
        "tautological": tautological_relobs(s, "R1", 5, rng.standard_normal(n)),
    }
    g1, g2 = 1, n - 1  # the modified form reads no g1; the unital one reads no observable orientation
    _forbid_right_conjugation(monkeypatch)
    for label, obs in observables.items():
        for modified in (True, False):
            out = relation_conditional_reorient(s, "R1", g1, "R2", g2, obs, modified=modified)
            ref = twirl_family(s, "R1", g1, "R2", g2, obs, modified=modified)
            np.testing.assert_allclose(out.matrix, ref.matrix, atol=1e-10, err_msg=f"{label}, modified={modified}")
            assert out.frame_name == "R2" and out.orientation.index == g2


@pytest.mark.parametrize("frame1, frame2", [("R1", "R2"), ("R2", "R1")])
def test_relation_conditional_orbit_rows_match_the_oracle_off_the_identity_seed(frame1, frame2, monkeypatch):
    # build_lr_seed makes the orbit matrix O a dense unitary, so the row selection runs in rotated coordinates
    from oracles import relation_conditional_reorient as oracle

    g = groups.symmetric_3()
    reg = reps.regular_rep(g)
    seed = frames.build_lr_seed(reps.isotypic_decompose(reg))
    fr = {name: frames.make_frame(reg, seed, name=name) for name in ("R1", "R2")}
    s = perspective.make_scenario(
        g, [("R1", reg), ("S", reg), ("R2", reg)], {name: (name, f) for name, f in fr.items()}
    )
    orbit = framechange._require_ideal(fr["R1"])
    assert np.count_nonzero(np.abs(orbit) > 1e-12) > g.order  # not a permutation matrix
    rng = np.random.default_rng(37)
    obs = relational_observable(s, frame1, 4, random_hermitian(rng, 36))
    _forbid_right_conjugation(monkeypatch)
    for modified in (True, False):
        out = relation_conditional_reorient(s, frame1, 4, frame2, 2, obs, modified=modified)
        ref = oracle(s, frame1, 4, frame2, 2, obs, modified=modified)
        np.testing.assert_allclose(out.matrix, ref.matrix, rtol=0, atol=1e-13, err_msg=f"modified={modified}")


@pytest.mark.parametrize("name", ["Z3", "S3", "D4"])
@pytest.mark.parametrize("ket", ["identity", "other"])
def test_held_relation_conditional_reorient_equals_the_dense_orbit_path(name, ket):
    # basis-ket seeds make both orbit matrices exact permutations; "other" seeds R1 by the last basis ket and R2
    # by ket 1, whose orbits are non-identity permutations, with R1 between S and R2
    from oracles import relation_conditional_reorient as oracle

    group = groups.builtin_group(name)
    n, reg = group.order, reps.regular_rep(group)
    kets = {"R1": group.identity_index, "R2": group.identity_index} if ket == "identity" else {"R1": n - 1, "R2": 1}
    fr = {f: (f, frames.make_frame(reg, np.eye(n, dtype=complex)[k], name=f)) for f, k in kets.items()}
    order = ("R1", "R2", "S") if ket == "identity" else ("S", "R1", "R2")
    s = perspective.make_scenario(group, [(f, reg) for f in order], fr)
    if ket == "other":
        assert not any(np.array_equal(framechange._require_ideal(s.frame(f)), np.eye(n)) for f in kets)
    rng = np.random.default_rng(45)
    obs = relational_observable(s, "R1", 1 % n, random_hermitian(rng, n * n))
    dense_operand = perspective.RelObs(obs.matrix, "R1", obs.orientation, obs.source, s)
    for modified in (True, False):
        held = relation_conditional_reorient(s, "R1", 2 % n, "R2", n - 1, obs, modified=modified)
        dense = relation_conditional_reorient(s, "R1", 2 % n, "R2", n - 1, dense_operand, modified=modified)
        assert isinstance(held.op, reps.OrbitMeans) and isinstance(dense.op, np.ndarray)
        np.testing.assert_array_equal(held.op.dense(), dense.op, err_msg=f"modified={modified}")
        ref = oracle(s, "R1", 2 % n, "R2", n - 1, obs, modified=modified)
        np.testing.assert_allclose(held.matrix, ref.matrix, rtol=0, atol=1e-12, err_msg=f"modified={modified}")
        assert held.frame_name == "R2" and held.orientation.index == n - 1


def _traced_reorientations(monkeypatch) -> list:
    """Wrap relation_conditional_reorient so each call appends its tracemalloc peak, in kin^2 complex entries."""
    peaks, inner = [], framechange.relation_conditional_reorient

    def traced(s, *args, **kwargs):
        tracemalloc.start()
        try:
            return inner(s, *args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / (16 * s.kin_dim**2))
            tracemalloc.stop()

    monkeypatch.setattr(framechange, "relation_conditional_reorient", traced)
    return peaks


def _regular_parties(name, parties):
    group = groups.builtin_group(name)
    reg = reps.regular_rep(group)
    seed = np.eye(group.order, dtype=complex)[group.identity_index]
    fr = {f: (f, frames.make_frame(reg, seed, name=f)) for f in ("R1", "R2")}
    return perspective.make_scenario(group, [(n, reg) for n in ("R1", "R2", "S", "T")[:parties]], fr)


@pytest.mark.parametrize("name, parties", [("D4", 3), ("S3", 3), ("Z4", 4)])
def test_relation_conditional_reorient_holds_two_kinematical_operators(name, parties, monkeypatch):
    # a held operand on identity-ket frames is relabelled as orbit means through index arrays of kin^2/|G|
    # entries, about four complex ones' worth at once (0.51 kin^2 on D4, 1.01 on Z4); a dense operand takes the
    # orbit-coordinate path: its orbit form m and the output, besides one |G|-th of a target (a third kin^2 array
    # reads 3.0)
    s = _regular_parties(name, parties)
    small = random_hermitian(np.random.default_rng(44), s.complement_dim("R1") // s.dims[1])
    peaks = _traced_reorientations(monkeypatch)
    assert framechange.relation_conditional_check(s, "R1", 1, "R2", 2, small).passed
    obs = relational_observable(s, "R1", 1, framechange._identity_on(s, "R1", "R2", small))
    framechange.relation_conditional_reorient(s, "R1", 1, "R2", 2, obs, modified=False)
    dense = perspective.RelObs(obs.matrix, "R1", obs.orientation, obs.source, s)
    framechange.relation_conditional_reorient(s, "R1", 1, "R2", 2, dense, modified=False)
    assert len(peaks) == 3 and max(peaks[:2]) < 6 / s.group.order and peaks[2] < 2.5, peaks


@pytest.mark.parametrize("name", ["D4", "S3"])
def test_relation_conditional_check_frees_its_operand(name):
    # warm (caches built): 1.41 (D4) and 1.56 (S3) kin^2, the one gathered difference of the held ``moved`` and
    # direct observable, beside their means; the dense orbit-coordinate path's two kin^2 arrays read 2.30 and 2.55
    s = _regular_parties(name, 3)
    small = random_hermitian(np.random.default_rng(44), s.complement_dim("R1") // s.dims[1])
    assert framechange.relation_conditional_check(s, "R1", 1, "R2", 2, small).passed
    tracemalloc.start()
    try:
        assert framechange.relation_conditional_check(s, "R1", 1, "R2", 2, small).passed
        peak = tracemalloc.get_traced_memory()[1] / (16 * s.kin_dim**2)
    finally:
        tracemalloc.stop()
    assert peak < 2.0, peak


# ---------------------------------------------------------------------------
# subsystem relativity
# ---------------------------------------------------------------------------


def test_subsystem_relativity_degenerate_call(z3_regular_scenario):
    out = subsystem_relativity_report(z3_regular_scenario, "R1", "R1")
    assert out["degenerate"] and out["coincide"]


def test_subsystem_relativity_regular_scenarios(z3_regular_scenario, s3_regular_scenario):
    for s in (z3_regular_scenario, s3_regular_scenario):
        out = subsystem_relativity_report(s, "R1", "R2")
        assert out["commuting_pass"]
        assert out["relativized_commutant_residual"] < 1e-10
        assert not out["coincide"]
        d1, d2 = out["algebra_dims"]
        assert out["overlap_dim"] < min(d1, d2)


def test_batched_restricted_family_matches_twirl_route(
    z3_regular_scenario, s3_regular_scenario, u1_scenario, four_spin_scenario
):
    # the kinematical twirl is the oracle for the conditioning-map contraction
    for s, fname in (
        (z3_regular_scenario, "R1"),
        (s3_regular_scenario, "R1"),
        (u1_scenario, "A"),
        (four_spin_scenario, "A"),
    ):
        ps = physical_space(s)
        dims = s.dims
        slot_f = s.frame_slot(fname)
        for target in (i for i in range(len(dims)) if i != slot_f):
            d = dims[target]
            fam = framechange.restricted_unit_family(s, ps, fname, target)
            assert len(fam) == d * d
            for i, j in ((0, 0), (0, 1), (d - 1, 1), (1, d - 1)):
                comp_op = np.ones((1, 1), dtype=complex)
                for k in range(len(dims)):
                    if k == target:
                        unit = np.zeros((d, d), dtype=complex)
                        unit[i, j] = 1.0
                        comp_op = np.kron(comp_op, unit)
                    elif k != slot_f:
                        comp_op = np.kron(comp_op, np.eye(dims[k]))
                identity = s.frame(fname).rep.identity_element()
                direct = ps.restrict(
                    relational_observable(s, fname, identity, comp_op, check=False).matrix
                )
                np.testing.assert_allclose(fam[i * d + j], direct, atol=1e-10)


def _all_pairs_algebra(mats, tol, max_rounds=8):
    """Oracle: every product of the span formed at once in each round."""
    d = mats[0].shape[0]
    seeds = [np.eye(d, dtype=complex)] + list(mats)
    basis = orthonormal_range(np.column_stack([m.reshape(-1) for m in seeds]), tol).basis
    for _ in range(max_rounds):
        ops = basis.T.reshape(-1, d, d)
        prods = np.einsum("aij,bjk->abik", ops, ops, optimize=True).reshape(-1, d * d).T
        resid = prods - basis @ (dagger(basis) @ prods)
        fresh = resid[:, np.linalg.norm(resid, axis=0) > 1e3 * tol.weighted(1.0)]
        if fresh.shape[1] == 0:
            return basis
        basis = orthonormal_range(np.hstack([basis, fresh]), tol).basis
    return basis


def test_blocked_algebra_matches_all_pairs_products(s3_regular_scenario):
    cases = []
    for s in (s3_regular_scenario, regular_three_party(groups.cyclic(4))):
        ps = physical_space(s)
        cases += [framechange.restricted_unit_family(s, ps, f, 2) for f in ("R1", "R2")]
    rng = np.random.default_rng(30)
    cases.append([random_hermitian(rng, 5) for _ in range(2)])  # needs growth rounds
    dims = []
    for mats in cases:
        dim = framechange._generate_algebra(mats, DEFAULT_TOL).shape[1]
        assert dim == _all_pairs_algebra(mats, DEFAULT_TOL).shape[1]
        dims.append(dim)
    assert dims[-1] == 25


# ---------------------------------------------------------------------------
# matrix-unit closure against the product sweep
# ---------------------------------------------------------------------------


def _stacked_commutator(xs, ys):
    ys = np.stack(ys)
    return max(float(np.linalg.norm(x @ ys - ys @ x, axis=(1, 2)).max()) for x in xs)


def _union_overlap(q1, q2):
    return q1.shape[1] + q2.shape[1] - orthonormal_range(np.hstack([q1, q2])).dim


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_matrix_unit_path_matches_product_sweep(name):
    from oracles import matrix_unit_stack

    s = regular_three_party(groups.builtin_group(name))
    ps = physical_space(s)
    algebras = []
    for frame in ("R1", "R2"):
        targets = [i for i in range(3) if i != s.frame_slot(frame)]
        fams = [framechange.restricted_unit_family(s, ps, frame, t) for t in targets]
        # [x, y] for x in one target's family and y in the other's: the same pairs from either side
        comm = _stacked_commutator(*fams)
        for target, fam in zip(targets, fams):
            c = framechange._target_blocks(s, ps, frame, target)
            bound = framechange._matrix_unit_algebra(c, DEFAULT_TOL)
            assert bound is not None
            basis = matrix_unit_stack(fam)
            assert basis.shape[1] == framechange._generate_algebra(fam, DEFAULT_TOL).shape[1] == s.dims[target] ** 2
            assert comm <= bound < 1e-10
            algebras.append(basis)
    for i, q1 in enumerate(algebras):
        for q2 in algebras[i + 1:]:
            assert framechange._overlap_dim(q1, q2, DEFAULT_TOL) == _union_overlap(q1, q2)


@pytest.mark.parametrize("name", ["S3", "Z6", "D4", "Q8"])
def test_matrix_unit_basis_spans_the_svd_basis(name):
    from oracles import matrix_unit_basis, matrix_unit_stack

    s = regular_three_party(groups.builtin_group(name))
    ps = physical_space(s)
    for frame in ("R1", "R2"):
        fam = framechange.restricted_unit_family(s, ps, frame, 2)
        assert framechange._matrix_unit_algebra(framechange._target_blocks(s, ps, frame, 2), DEFAULT_TOL) is not None
        basis = matrix_unit_stack(fam)
        svd = matrix_unit_basis(fam)
        assert basis.shape == svd.shape == (ps.dim**2, s.dims[2] ** 2)
        # ||P_a - P_b||_2 = ||(1 - P_a) Q_b||_2 for orthonormal Q_a, Q_b of equal rank
        for qa, qb in ((basis, svd), (svd, basis)):
            assert np.linalg.norm(qb - qa @ (dagger(qa) @ qb), 2) <= 1e-12


def test_finite_builtins_take_the_matrix_unit_path(monkeypatch):
    def product_sweep(mats, tol, max_rounds=8):
        raise AssertionError("the product sweep ran on an ideal-frame scenario")

    monkeypatch.setattr(framechange, "_generate_algebra", product_sweep)
    for name in builtin_names():
        if not name.startswith("finite-regular:"):
            continue
        cfg = load_config(name)
        s = build_scenario(cfg)
        order = s.group.order
        # the arguments the full report's symmetry layer passes
        out = subsystem_relativity_report(s, "R1", "R2", cfg.tol())
        assert (out["algebra_dims"], out["overlap_dim"]) == ((order**2, order**2), order)
        assert out["commuting_pass"] and out["relativized_commutant_residual"] < 1e-10
    layer = run(load_config("finite-regular:Z3"))["tasks"][0]["results"]["symmetry_layer"]
    assert layer["subsystem_relativity"]["algebra_dims"] == [9, 9]


def test_u1_frames_take_the_product_sweep(monkeypatch):
    calls = []
    sweep = framechange._generate_algebra
    monkeypatch.setattr(framechange, "_generate_algebra", lambda mats, tol: calls.append(len(mats)) or sweep(mats, tol))
    cfg = load_config("u1-qubit-qubit-qutrit")
    cfg.tasks = [{"task": "subsystem_relativity", "frame1": "A", "frame2": "B"}]
    results = run(cfg)["tasks"][0]["results"]
    assert (results["algebra_dims"], results["overlap_dim"]) == ([8, 8], 4)
    assert calls == [9, 9]


def _block_deviation(c):
    """max(||G||_2 ||Pi - 1_t x P||_F, ||G - 1||_F) from the full Pi = C C^dag."""
    d_t, r, n = c.shape
    flat = c.reshape(-1, n)
    pi = flat @ dagger(flat)
    p = sum(pi[i * r:(i + 1) * r, i * r:(i + 1) * r] for i in range(d_t)) / d_t
    g = dagger(flat) @ flat
    return max(np.linalg.norm(g, 2) * np.linalg.norm(pi - np.kron(np.eye(d_t), p)), np.linalg.norm(g - np.eye(n)))


def test_block_cut_picks_the_path_and_both_paths_agree(s3_regular_scenario):
    from oracles import matrix_unit_stack

    s = s3_regular_scenario
    ps = physical_space(s)
    rng = np.random.default_rng(40)
    c = framechange._target_blocks(s, ps, "R1", 2)
    c = c + 1e-7 * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape))
    fam = list(np.einsum("irp,jrq->ijpq", np.conj(c), c).reshape(-1, ps.dim, ps.dim))
    dev = _block_deviation(c)
    below, above = Tolerance(0.6 * dev), Tolerance(0.4 * dev)  # weighted(1) = 1.2 dev, 0.8 dev
    closed = framechange._matrix_unit_algebra(c, below)
    assert closed is not None and framechange._matrix_unit_algebra(c, above) is None
    dims = {matrix_unit_stack(fam).shape[1]} | {framechange._generate_algebra(fam, t).shape[1] for t in (below, above)}
    assert dims == {36}


# ---------------------------------------------------------------------------
# the cross-Gram overlap of two matrix-unit algebras
# ---------------------------------------------------------------------------

_REGULAR = [n.split(":")[1] for n in builtin_names() if n.startswith("finite-regular:")] + ["Z7", "Z10"]


def _unit_stack(c):
    """The oracle basis vec(F_ij) sqrt(d_t/n) of target blocks c, F_ij = C_i^dag C_j."""
    from oracles import matrix_unit_stack

    return matrix_unit_stack(list(np.einsum("irp,jrq->ijpq", np.conj(c), c).reshape(-1, c.shape[2], c.shape[2])))


def _random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("name", _REGULAR)
def test_gram_overlap_matches_the_stacked_residual_rank(name):
    s = regular_three_party(groups.builtin_group(name))
    ps = physical_space(s)
    blocks = {f: framechange._target_blocks(s, ps, f, 2) for f in ("R1", "R2")}
    for a, b in (("R1", "R2"), ("R2", "R1")):
        stacked = framechange._overlap_dim(_unit_stack(blocks[a]), _unit_stack(blocks[b]), DEFAULT_TOL)
        assert framechange._block_overlap_dim(blocks[a], blocks[b], DEFAULT_TOL) == stacked == s.group.order


@pytest.mark.parametrize("eps, expected", [(1e-8, 1), (1e-12, 8)])
def test_gram_overlap_resolves_a_planted_small_angle(eps, expected):
    s = regular_three_party(groups.builtin_group("D4"))
    ps = physical_space(s)
    rng = np.random.default_rng(60)
    w, v = np.linalg.eigh(random_hermitian(rng, ps.dim))
    u = (v * np.exp(1j * eps * w / np.abs(w).max())) @ dagger(v)  # exp(i eps H), ||H||_2 = 1
    c1, c2 = framechange._target_blocks(s, ps, "R1", 2), framechange._target_blocks(s, ps, "R2", 2) @ u
    q1, q2 = _unit_stack(c1), _unit_stack(c2)
    assert framechange._overlap_dim(q1, q2, DEFAULT_TOL) == expected
    assert framechange._block_overlap_dim(c1, c2, DEFAULT_TOL) == expected
    # a cosine of 1 - 5e-17 rounds to 1, so a bare count of cosines cannot see the 1e-8 sines
    assert np.sum(np.linalg.svd(dagger(q1) @ q2, compute_uv=False) > 1 - 1e-12) == 8
    # unitaries on the target index leave both algebras unchanged but mix the Gram's near-1 singular vectors
    for _ in range(3):
        r1, r2 = (np.einsum("ij,jrp->irp", _random_unitary(rng, 8), c) for c in (c1, c2))
        assert framechange._block_overlap_dim(r1, r2, DEFAULT_TOL) == expected


def test_finite_reports_form_no_stacked_algebra(monkeypatch):
    def stacked(*args, **kwargs):
        raise AssertionError("an ideal-frame report reached the stacked-algebra route")

    monkeypatch.setattr(framechange, "restricted_unit_family", stacked)
    monkeypatch.setattr(framechange, "_overlap_dim", stacked)
    for name in builtin_names():
        if name.startswith("finite-regular:"):
            out = run(load_config(name))
            layer = out["tasks"][0]["results"]["symmetry_layer"]["subsystem_relativity"]
            assert out["summary"]["checks_failed"] == 0
            assert layer["overlap_dim"] == groups.builtin_group(name.split(":")[1]).order


def _relativity_peak(s):
    physical_space(s)
    tracemalloc.start()
    try:
        out = subsystem_relativity_report(s, "R1", "R2")
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_relativity_step_holds_no_algebra_stack():
    out, peak = _relativity_peak(regular_three_party(groups.builtin_group("D4")))
    assert (out["algebra_dims"], out["overlap_dim"]) == ((64, 64), 8)
    assert peak < 2 * 2**20


@pytest.mark.slow
def test_four_party_relativity_step_holds_no_algebra_stack(monkeypatch):
    s = _regular_parties("D4", 4)
    out, peak = _relativity_peak(s)
    assert (out["algebra_dims"], out["overlap_dim"]) == ((64, 64), 8)
    assert peak < 32 * 2**20
    peaks = _traced_reorientations(monkeypatch)
    assert framechange.relation_conditional_check(s, "R1", 0, "R2", 0, random_hermitian(np.random.default_rng(45), 64)).passed
    assert len(peaks) == 1 and peaks[0] < 2.5, peaks


@pytest.mark.parametrize("planted", [0, 1, 3, 6])
def test_overlap_dim_matches_union_rank_on_planted_subspaces(planted):
    rng = np.random.default_rng(50 + planted)

    def orth(m):
        return np.linalg.qr(m)[0]

    q1 = orth(rng.standard_normal((40, 9)) + 1j * rng.standard_normal((40, 9)))
    shared = q1 @ (rng.standard_normal((9, planted)) + 1j * rng.standard_normal((9, planted)))
    q2 = orth(np.hstack([shared, rng.standard_normal((40, 6 - planted)) + 1j * rng.standard_normal((40, 6 - planted))]))
    for a, b in ((q1, q2), (q2, q1)):
        assert framechange._overlap_dim(a, b, DEFAULT_TOL) == _union_overlap(a, b) == planted


def test_reorientations_reject_operands_of_another_frame(z3_regular_scenario):
    s = z3_regular_scenario
    obs = relational_observable(s, "R2", 0, random_hermitian(np.random.default_rng(66), s.complement_dim("R2")))
    with pytest.raises(ValueError, match="observable was built relative to another frame"):
        reorient(s, "R1", 1, obs)
    with pytest.raises(ValueError, match="needs two distinct frames"):
        relation_conditional_reorient(s, "R2", 0, "R2", 1, obs)
    with pytest.raises(ValueError, match="operand must be a relational observable relative to the first frame"):
        relation_conditional_reorient(s, "R1", 0, "R2", 1, obs)


@pytest.mark.parametrize("fixture, frame", [("u1_scenario", "A"), ("z3_regular_scenario", "R1")])
def test_tautological_observables_need_one_value_per_finite_element(fixture, frame, request):
    with pytest.raises(ValueError, match="need one value per group element of a finite frame"):
        tautological_relobs(request.getfixturevalue(fixture), frame, 0, [1.0, 2.0])


def test_relativity_rejects_a_target_on_the_frame(z3_regular_scenario):
    s = z3_regular_scenario
    with pytest.raises(ValueError, match="target subsystem coincides with the frame"):
        framechange.restricted_unit_family(s, physical_space(s), "R1", s.frame_slot("R1"))


def test_relativity_needs_a_physical_space_and_a_system():
    rep = reps.u1_rep([2, 1])  # equal positive charges on both: no invariant state
    f = {n: frames.make_frame(rep, np.ones(2) / np.sqrt(2), name=n) for n in "AB"}
    empty = perspective.make_scenario(groups.u1(), [("A", rep), ("B", rep)], {n: (n, f[n]) for n in "AB"})
    with pytest.raises(ValueError, match="empty physical space"):
        subsystem_relativity_report(empty, "A", "B")
    z2 = groups.cyclic(2)
    reg, seed = reps.regular_rep(z2), np.array([1.0, 0.0])
    pair = perspective.make_scenario(z2, [("R1", reg), ("R2", reg)],
                                     {n: (n, frames.make_frame(reg, seed, name=n)) for n in ("R1", "R2")})
    with pytest.raises(ValueError, match="need a system subsystem besides the two frames"):
        subsystem_relativity_report(pair, "R1", "R2")


def test_frame_change_refuses_maps_that_are_not_isometries(monkeypatch, z3_regular_scenario):
    ps = physical_space(z3_regular_scenario)
    exact = framechange.schrodinger_map
    monkeypatch.setattr(framechange, "schrodinger_map", lambda *args: 2.0 * densify(exact(*args)))
    assert ps.dim == 9  # 2C has the round trip G = 4, so the defect is sqrt(9 * (3 * 4)^2) = 36
    with pytest.raises(ValueError, match=r"frame change failed the isometry check \(3\.600e\+01\)"):
        frame_change(ps, "R1", 0, "R2", 1)


def test_algebra_growth_stops_after_its_rounds():
    shift = np.roll(np.eye(3), 1, axis=0).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    # span{1, X, Z} grows by X^2, XZ and Z^2 in one round (ZX is a multiple of XZ), and to all of M_3 in two
    assert framechange._generate_algebra([shift, clock], DEFAULT_TOL, max_rounds=1).shape[1] == 6
    assert framechange._generate_algebra([shift, clock], DEFAULT_TOL).shape[1] == 9


def _frame_change_scenario(source):
    from conftest import u1_qubits_config

    return build_scenario(u1_qubits_config(8) if source == "u1-8-qubits" else load_config(source))


def _orientation(frame, rng):
    return frame.rep.element(int(rng.integers(frame.group.order)) if frame.rep.is_finite else rng.uniform(-3, 3, 1))


@pytest.mark.parametrize("source", ["u1-8-qubits", "u1-qubit-qubit-qutrit", "finite-regular:Z5", "finite-regular:S3",
                                    "finite-regular:D4"])
def test_frame_change_pairs_the_plans_as_the_dense_product(source, monkeypatch):
    # V = C_j C_i^dag of two plan maps, same-frame and cross-frame in both orders, is the dense product of the
    # contractions; with the held weights perturbed column by column, the isometry defect read from the two gated
    # round trips is the four-product oracle's
    from oracles import frame_change_defect

    s = _frame_change_scenario(source)
    ps = physical_space(s)
    rng = np.random.default_rng(97)
    basis = ps.basis.basis
    exact = perspective.conditioning_map

    def perturbed(ps_, f, g):
        m = exact(ps_, f, g)
        return Monomial(m.rows, m.cols, m.weights * (1 + 1e-7 * (m.cols + 1) / m.shape[1]), m.shape)

    for fi, fj in itertools.product(s.frames, repeat=2):
        gi, gj = _orientation(s.frame(fi), rng), _orientation(s.frame(fj), rng)
        ci, cj = (perspective.condition_on(s, f, g, basis) for f, g in ((fi, gi), (fj, gj)))
        got = frame_change(ps, fi, gi, fj, gj).matrix
        if s.total_rep.is_finite:  # real weights: the dense product's one nonzero term per entry, bit for bit
            assert np.array_equal(got, cj @ dagger(ci)), (fi, fj)
        else:
            np.testing.assert_allclose(got, cj @ dagger(ci), rtol=1e-14, atol=1e-15, err_msg=f"{fi}->{fj}")
        with monkeypatch.context() as m:
            m.setattr(perspective, "conditioning_map", perturbed)
            ch = frame_change(ps, fi, gi, fj, gj, Tolerance(1e-4))
        want = frame_change_defect(*(perturbed(ps, f, g).dense() for f, g in ((fi, gi), (fj, gj))))
        assert want > 1e-8
        assert abs(ch.scale_notes["isometry_defect"] - want) <= 1e-6 * want, (fi, fj)


def test_frame_change_oracle_catches_a_pairing_by_position(monkeypatch):
    # two frames' plans hold their columns in different orders, so pairing C_j's entries with C_i's by position, as a
    # pairing carried over from another pair of frames would, gives a wrong V that the dense oracle catches
    s = _frame_change_scenario("u1-8-qubits")
    ps = physical_space(s)
    el = [s.frame(f).rep.element([t]) for f, t in (("Q0", 0.4), ("Q1", -1.3))]
    ci, cj = (perspective.condition_on(s, f, g, ps.basis.basis) for f, g in zip(("Q0", "Q1"), el))
    want = cj @ dagger(ci)
    np.testing.assert_allclose(frame_change(ps, "Q0", el[0], "Q1", el[1]).matrix, want, rtol=1e-14, atol=1e-15)
    assert not np.array_equal(ps._plans["Q0"].cols, ps._plans["Q1"].cols)
    exact = Monomial.__matmul__

    def by_position(self, x):
        if isinstance(x, Monomial):
            return Monomial(self.rows, x.cols, self.weights * x.weights, (self.shape[0], x.shape[1]))
        return exact(self, x)

    monkeypatch.setattr(Monomial, "__matmul__", by_position)
    assert not np.allclose(frame_change(ps, "Q0", el[0], "Q1", el[1]).matrix, want, atol=1e-3)


@pytest.mark.parametrize("source", ["u1-8-qubits", "finite-regular:S3"])
def test_frame_change_holds_v_as_the_maps_product(source):
    # V = C_j C_i^dag stays a Monomial, its shape read as held; its matrix, built on first read, is bit-equal to the
    # densified product that frame_change used to return, and the dense product of the dense maps within rounding
    from conftest import u1_qubits_config
    from oracles import dense_frame_change

    s = build_scenario(u1_qubits_config(8) if source == "u1-8-qubits" else load_config(source))
    ps = physical_space(s)
    f1, f2 = list(s.frames)[:2]
    g1, g2 = (s.frame(f).rep.element(x) for f, x in ((f1, [0.4] if s.frame(f1).rep.charges is not None else 1),
                                                      (f2, [2.2] if s.frame(f2).rep.charges is not None else 4)))
    ch = frame_change(ps, f1, g1, f2, g2)
    ci, cj = schrodinger_map(ps, f1, g1), schrodinger_map(ps, f2, g2)
    assert isinstance(ch.op, Monomial) and ch.op.shape == (s.complement_dim(f2), s.complement_dim(f1))
    assert "matrix" not in vars(ch)  # not densified until read
    np.testing.assert_array_equal(ch.matrix, (cj @ dagger(ci)).dense())
    assert np.abs(ch.matrix - dense_frame_change(densify(ci), densify(cj))[0]).max() <= 1e-15
    assert ch.matrix is ch.matrix


def test_warm_u1_frame_change_densifies_nothing(monkeypatch):
    from conftest import u1_qubits_config
    from qrf import cli

    s = build_scenario(u1_qubits_config(8))
    ps = physical_space(s)
    frame_change(ps, "Q0", [0.3], "Q1", [1.1])  # warm: plans and labels cached

    def refuse(self):
        raise AssertionError("V was densified")

    monkeypatch.setattr(Monomial, "dense", refuse)
    ch = frame_change(ps, "Q0", [0.7], "Q1", [0.2])
    assert ch.check.passed and ch.op.shape == (128, 128)
    results, _ = cli._task_frame_change(s, ps, DEFAULT_TOL, None, "Q0", "Q1", ch.g_from, ch.g_to)
    assert results["shape"] == (128, 128)
