import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrf import frames, groups, reps
from qrf.frames import ResolutionFails
from qrf.linalg import Tolerance, dagger


def u1_qubit_frame():
    return frames.make_frame(reps.u1_rep([1, -1]), np.array([1, 1]) / np.sqrt(2), name="A")


def spin1_uniform_frame():
    return frames.make_frame(reps.spin_rep(1), np.ones(3) / np.sqrt(3), name="S")


def ideal_frame(group, name="R"):
    reg = reps.regular_rep(group)
    seed = np.zeros(group.order, dtype=complex)
    seed[group.identity_index] = 1.0
    return frames.make_frame(reg, seed, name=name)


def test_u1_qubit_frame_valid_and_coherent_states():
    f = u1_qubit_frame()
    assert f.weight_scale == 2.0
    th = 0.813
    np.testing.assert_allclose(
        f.orientation([th]),
        np.array([np.exp(1j * th), np.exp(-1j * th)]) / np.sqrt(2),
        atol=1e-12,
    )


def test_u1_qubit_overlap_is_cosine():
    f = u1_qubit_frame()
    for a, b in ((0.1, 0.7), (2.0, 5.5)):
        ov = np.vdot(f.orientation([a]), f.orientation([b]))
        assert abs(ov - np.cos(a - b)) < 1e-12


def test_spin1_any_seed_is_valid():
    rng = np.random.default_rng(6)
    for _ in range(4):
        seed = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = frames.make_frame(reps.spin_rep(1), seed / np.linalg.norm(seed))
        assert f.weight_scale == 3.0


def test_multiplicity_two_u1_frame_fails_with_block_diagnosis():
    with pytest.raises(ResolutionFails) as err:
        frames.make_frame(reps.u1_rep([1, 1]), np.array([1, 0], dtype=complex))
    assert "q=1" in str(err.value)
    assert "irrep dim 1 < multiplicity 2" in str(err.value)
    report = err.value.block_report
    assert report and not report[0]["multiplicity_ok"]


def test_unnormalized_seed_rejected():
    with pytest.raises(ValueError, match="normalized"):
        frames.make_frame(reps.u1_rep([1, -1]), np.array([1.0, 1.0]))


def test_finite_resolution_checked_directly():
    # non-uniform seed on an abelian 2-charge rep breaks the direct sum check
    g = groups.cyclic(4)
    mats = np.stack([np.diag([1.0, 1j ** k]).astype(complex) for k in range(4)])
    rep = reps.finite_rep(g, mats)
    with pytest.raises(ResolutionFails):
        frames.make_frame(rep, np.array([np.sqrt(0.9), np.sqrt(0.1)]))
    f = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2))
    assert f.element_weight() == pytest.approx(0.5)


def test_frame_accepted_only_where_its_resolution_check_passes():
    # a Z3 regular seed off by 1.5e-8 has resolution residual 1.8e-8, between 2e-9 dim and 1e-8 dim
    group = groups.cyclic(3)
    rep = reps.regular_rep(group)
    seed = np.eye(3)[group.identity_index] + 1.5e-8 * np.array([0.3, -1.0, 0.5])
    seed /= np.linalg.norm(seed)
    residual = frames.resolution_residual(rep, seed)
    assert Tolerance().bound(1.0, 3) < residual < 1e-8 * 3
    with pytest.raises(ResolutionFails):
        frames.make_frame(rep, seed)  # the default check bound, 6e-9, is tighter than 1e-8 dim
    loose = Tolerance(1e-6)
    f = frames.make_frame(rep, seed, tol=loose)
    assert f.resolution_residual <= frames.validity_bound(3, loose) == 1e-8 * 3 <= loose.bound(1.0, 3)
    assert frames.validity_bound(3) == Tolerance().bound(1.0, 3)


def test_orientation_state_at_identity_is_seed():
    f = spin1_uniform_frame()
    np.testing.assert_allclose(f.orientation([0, 0, 0]), f.seed, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    g=st.floats(min_value=-3, max_value=3, allow_nan=False),
    h=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_equivariance_u1(g, h):
    f = u1_qubit_frame()
    lhs = f.orientation([g + h])
    rhs = f.rep.evaluate([g]) @ f.orientation([h])
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_equivariance_su2_sampled():
    f = spin1_uniform_frame()
    su2 = groups.su2()
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = groups.lie_element(su2, rng.uniform(-1, 1, 3))
        h = groups.lie_element(su2, rng.uniform(-1, 1, 3))
        lhs = f.orientation(groups.compose(g, h))
        rhs = f.rep.evaluate(g) @ f.orientation(h)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


# ---------------------------------------------------------------------------
# isotropy
# ---------------------------------------------------------------------------


def test_spin1_uniform_seed_trivial_isotropy():
    iso = spin1_uniform_frame().isotropy
    assert iso.algebra_basis == ()
    assert iso.discrete_part_unknown


def test_spin1_highest_weight_seed_u1_isotropy():
    f = frames.make_frame(reps.spin_rep(1), np.array([1.0, 0, 0]))
    basis = np.array(f.isotropy.algebra_basis)
    assert basis.shape == (1, 3)
    direction = basis[0] / np.linalg.norm(basis[0])
    np.testing.assert_allclose(np.abs(direction), [0, 0, 1], atol=1e-9)


def test_z4_sign_rep_isotropy():
    g = groups.cyclic(4)
    mats = np.stack([np.diag([1.0, (-1.0) ** k]).astype(complex) for k in range(4)])
    rep = reps.finite_rep(g, mats)
    f = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2))
    assert f.isotropy.element_indices == (0, 2)


def test_isotropy_elements_stabilize_seed_ray():
    f = ideal_frame(groups.symmetric_3())
    assert f.isotropy.element_indices == (0,)
    g = groups.cyclic(6)
    mats = np.stack([np.diag([np.exp(2j * np.pi * k / 3), np.exp(-2j * np.pi * k / 3)]) for k in range(6)])
    rep = reps.finite_rep(g, mats)
    f2 = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2))
    seed_proj = np.outer(f2.seed, f2.seed.conj())
    for h in f2.isotropy.element_indices:
        v = rep.matrices[h] @ f2.seed
        assert np.linalg.norm(np.outer(v, v.conj()) - seed_proj) < 1e-8


# ---------------------------------------------------------------------------
# POVM effects
# ---------------------------------------------------------------------------


def test_povm_empty_and_full():
    f = ideal_frame(groups.cyclic(4))
    np.testing.assert_allclose(frames.povm_effect(f, []).matrix, np.zeros((4, 4)), atol=1e-12)
    np.testing.assert_allclose(frames.povm_effect(f, range(4)).matrix, np.eye(4), atol=1e-12)


def test_povm_positive_and_covariant():
    g = groups.cyclic(4)
    mats = np.stack([np.diag([1.0, (-1.0) ** k]).astype(complex) for k in range(4)])
    rep = reps.finite_rep(g, mats)
    f = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2))
    y = [0, 1]
    e = frames.povm_effect(f, y).matrix
    assert np.min(np.linalg.eigvalsh(e)) > -1e-12
    for h in range(4):
        lhs = rep.matrices[h] @ e @ dagger(rep.matrices[h])
        hy = [g.mult(h, x) for x in y]
        np.testing.assert_allclose(lhs, frames.povm_effect(f, hy).matrix, atol=1e-12)


def test_povm_rejects_bad_subset_and_lie_frames():
    f = ideal_frame(groups.cyclic(4))
    with pytest.raises(ValueError):
        frames.povm_effect(f, [7])
    with pytest.raises(ValueError):
        frames.povm_effect(spin1_uniform_frame(), [0])


# ---------------------------------------------------------------------------
# LR classification
# ---------------------------------------------------------------------------


def test_regular_frame_right_action_is_right_regular():
    g = groups.symmetric_3()
    f = ideal_frame(g)
    v_rep, report = frames.lr_classify(f)
    assert v_rep is not None and report["lr_exists"]
    rr = reps.regular_rep(g, "right")
    np.testing.assert_allclose(v_rep.matrices, rr.matrices, atol=1e-9)


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_covariant_regular_frames_pass_the_maximal_entanglement_gate(name):
    # seed U e_e with U a random unitary of the right-regular algebra: the frame is valid, and every block of its
    # seed is maximally entangled to within the input gate, which make_frame's resolution check implies, so
    # lr_classify decides a right action by multiplicities alone
    group, tol = groups.builtin_group(name), Tolerance()
    right = reps.regular_rep(group, "right").matrices
    rng = np.random.default_rng(48)
    for _ in range(4):
        h = np.tensordot(rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order), right, axes=1)
        vals, vecs = np.linalg.eigh(h + dagger(h))
        seed = (vecs * np.exp(1j * vals)) @ dagger(vecs)[:, group.identity_index]
        v_rep, report = frames.lr_classify(frames.make_frame(reps.regular_rep(group), seed, name="R", tol=tol), tol)
        assert v_rep is not None and report["lr_exists"]
        for block in report["blocks"]:
            assert block["max_entangled_deviation"] < frames._input_gate(tol, block["irrep_dim"]), block


def test_spin1_frame_has_no_lr():
    v_rep, report = frames.lr_classify(spin1_uniform_frame())
    assert v_rep is None
    assert "multiplicity 1 != irrep dim 3" in report["reason"]


def test_half_x_conjugate_half_carrier_has_lr():
    half = reps.spin_rep(0.5)
    gens = np.stack([np.kron(k, np.eye(2)) for k in half.generators])
    rep = reps.lie_rep(groups.su2(), gens)
    f = frames.make_frame(rep, np.array([1, 0, 0, 1]) / np.sqrt(2), name="W")
    v_rep, report = frames.lr_classify(f)
    assert v_rep is not None
    conj = reps.conjugate_rep(half)
    for coords in ([0.4, 0, 0], [0.2, -0.5, 0.3]):
        np.testing.assert_allclose(
            v_rep.evaluate(coords), np.kron(np.eye(2), conj.evaluate(coords)), atol=1e-8
        )


def test_lr_double_action_and_commutation():
    g = groups.symmetric_3()
    f = ideal_frame(g)
    v_rep, _ = frames.lr_classify(f)
    u = f.rep
    for a, k, h in ((1, 2, 3), (4, 5, 2), (5, 1, 0)):
        ghk = g.mult(g.mult(a, h), g.inverse(k))
        lhs = u.matrices[a] @ v_rep.matrices[k] @ (u.matrices[h] @ f.seed)
        np.testing.assert_allclose(lhs, u.matrices[ghk] @ f.seed, atol=1e-9)
    for a in g.elements():
        for b in g.elements():
            comm = u.matrices[a] @ v_rep.matrices[b] - v_rep.matrices[b] @ u.matrices[a]
            assert np.linalg.norm(comm) < 1e-9


def test_build_lr_seed_single_irreducible_block():
    deco = reps.isotypic_decompose(reps.spin_rep(1))
    seed = frames.build_lr_seed(deco)
    assert abs(np.linalg.norm(seed) - 1) < 1e-12
    f = frames.make_frame(reps.spin_rep(1), seed)
    assert f.weight_scale == 3.0


def test_build_lr_seed_two_blocks_bruteforce_resolution():
    # dim-5 rep of S3: trivial block (d=1, m=1) plus 2-dim irrep with multiplicity 2
    g = groups.symmetric_3()
    reg = reps.regular_rep(g)
    blocks = reps.isotypic_decompose(reg).blocks
    b1 = next(b for b in blocks if b.irrep_dim == 1)
    b2 = next(b for b in blocks if b.irrep_dim == 2)
    basis = np.hstack([b1.basis_matrix(), b2.basis_matrix()])
    rep5 = reps.finite_rep(g, np.stack([dagger(basis) @ reg.matrices[k] @ basis for k in g.elements()]))
    deco5 = reps.isotypic_decompose(rep5)
    seed = frames.build_lr_seed(deco5)
    w = 5.0 / 6.0
    total = sum(
        w * np.outer(v := rep5.matrices[k] @ seed, np.conj(v)) for k in g.elements()
    )
    np.testing.assert_allclose(total, np.eye(5), atol=1e-9)
    weights = sorted(
        round(abs(np.vdot(b.grid[:, k, k], seed)), 6)
        for b in deco5.blocks
        for k in range(b.multiplicity)
    )
    assert weights == sorted(
        [round(np.sqrt(1 / 5), 6), round(np.sqrt(2 / 5), 6), round(np.sqrt(2 / 5), 6)]
    )


def test_build_lr_seed_rejects_excess_multiplicity():
    deco = reps.isotypic_decompose(reps.u1_rep([1, 1]))
    with pytest.raises(ResolutionFails):
        frames.build_lr_seed(deco)


def test_lr_commutes_even_for_u1_frames():
    f = u1_qubit_frame()
    v_rep, report = frames.lr_classify(f)
    assert v_rep is not None  # abelian frames always admit the right action
    np.testing.assert_allclose(np.sort(np.diag(v_rep.generators[0]).real), [-1, 1], atol=1e-9)


# ---------------------------------------------------------------------------
# frame operators as group averages, against the block-lifted and orbit-sum oracles
# ---------------------------------------------------------------------------


def _commutant_rotated_seed(group, seed_value):
    """exp(iH)|e> with H twirled into the commutant of the left regular rep: another seed with a right action."""
    reg = reps.regular_rep(group)
    rng = np.random.default_rng(seed_value)
    h = rng.standard_normal((group.order, group.order)) + 1j * rng.standard_normal((group.order, group.order))
    vals, vecs = np.linalg.eigh(reps.group_average(reg, (h + dagger(h)) / 2.0))
    return (vecs * np.exp(1j * vals)) @ dagger(vecs)[:, group.identity_index]


def _lr_frames():
    out = []
    for group in (groups.dihedral_4(), groups.symmetric_3(), groups.quaternion_8(), groups.cyclic(5)):
        out.append(ideal_frame(group))
        out.append(frames.make_frame(reps.regular_rep(group), _commutant_rotated_seed(group, 3), name="R"))
    for charges in ([1, -1], [2, 0, -2], [1, 0, -1]):
        out.append(frames.make_frame(reps.u1_rep(charges), np.ones(len(charges)) / np.sqrt(len(charges))))
    half = reps.spin_rep(0.5)
    rep = reps.lie_rep(groups.su2(), np.stack([np.kron(k, np.eye(2)) for k in half.generators]))
    out.append(frames.make_frame(rep, frames.build_lr_seed(reps.isotypic_decompose(rep))))
    return out


def test_twirl_right_action_matches_block_lift_oracle():
    from oracles import right_action

    dense = 0
    for f in _lr_frames():
        v_rep, report = frames.lr_classify(f)
        assert v_rep is not None and report["lr_exists"], report["reason"]
        mine = v_rep.matrices if f.rep.is_finite else v_rep.generators
        assert np.abs(mine - right_action(f)).max() <= 1e-12, (f.group, f.dim)
        dense += f.rep.is_finite and reps.permutation_table(v_rep) is None
    assert dense == 4  # the rotated regular seeds give right actions that are not permutations


def test_lr_classify_is_decided_once_per_frame_and_tolerance(monkeypatch):
    f = ideal_frame(groups.symmetric_3())
    built = []
    original = frames._right_action
    monkeypatch.setattr(frames, "_right_action", lambda *a: built.append(a) or original(*a))
    first = frames.lr_classify(f)
    assert frames.lr_classify(f) is first
    assert len(built) == 1
    frames.lr_classify(f, Tolerance(1e-10))
    assert len(built) == 2


def test_full_report_builds_each_right_action_once(monkeypatch):
    from qrf import cli

    built = []
    original = frames._right_action
    monkeypatch.setattr(frames, "_right_action", lambda f, tol: built.append(f.name) or original(f, tol))
    report = cli.run(cli.load_config("finite-regular:S3"))
    assert report["summary"]["checks_failed"] == 0
    assert sorted(built) == ["R1", "R2"]


def test_resolution_residual_matches_orbit_sum_and_probability_twirl():
    from oracles import resolution_defect
    from qrf import cli

    seen = {"finite": 0, "lie": 0}
    for name in cli.builtin_names():
        s = cli.build_scenario(cli.load_config(name))
        for fname in s.frames:
            f = s.frame(fname)
            new, old = frames.resolution_residual(f.rep, f.seed), resolution_defect(f.rep, f.seed)
            if f.rep.is_finite:
                assert new == old, (name, fname, new, old)
            else:
                assert abs(new - old) <= 1e-15, (name, fname, new, old)
            seen["finite" if f.rep.is_finite else "lie"] += 1
    assert seen == {"finite": 18, "lie": 5}


def test_resolution_residual_matches_oracles_on_broken_seeds():
    from oracles import resolution_defect

    broken = [
        (reps.u1_rep([1, -1]), np.array([1, 0], dtype=complex)),
        (reps.u1_rep([1, 1]), np.array([1, 0], dtype=complex)),
        (reps.regular_rep(groups.cyclic(3)), np.ones(3) / np.sqrt(3)),
    ]
    for rep, seed in broken:
        residual = frames.resolution_residual(rep, seed)
        assert residual > 0.5
        assert abs(residual - resolution_defect(rep, seed)) <= 1e-12


def _tilted_u1_seed():
    return np.array([np.sqrt(0.5 + 1e-6), np.sqrt(0.5 - 1e-6)], dtype=complex)


def test_every_frame_stores_the_residual_it_was_validated_by():
    from qrf import cli

    for name in ("finite-regular:S3", "u1-qubit-qubit-qutrit", "su2-three-spin1"):
        s = cli.build_scenario(cli.load_config(name))
        for fname in s.frames:
            f = s.frame(fname)
            assert f.resolution_residual == frames.resolution_residual(f.rep, f.seed)
            assert f.resolution_residual <= 1e-8 * f.dim


def test_tilted_lie_frame_fails_the_residual_with_no_failing_block():
    # every block passes the Schmidt test (deviation 1e-6), but the residual 2.8e-6 is above 1e-8 dim
    with pytest.raises(ResolutionFails) as err:
        frames.make_frame(reps.u1_rep([1, -1]), _tilted_u1_seed(), name="A")
    assert str(err.value) == "frame 'A': coherent-state sum deviates from identity by 2.828e-06"
    report = err.value.block_report
    assert [r["label"] for r in report] == ["q=1", "q=-1"]
    assert all(r["multiplicity_ok"] and r["schmidt_ok"] for r in report)
    assert max(r["schmidt_deviation"] for r in report) == pytest.approx(1e-6, rel=1e-6)


def test_block_report_runs_only_after_a_rejection(monkeypatch):
    calls = []
    original = frames._lie_block_report
    monkeypatch.setattr(frames, "_lie_block_report", lambda *a: calls.append(1) or original(*a))
    u1_qubit_frame()
    spin1_uniform_frame()
    assert calls == []
    with pytest.raises(ResolutionFails):
        frames.make_frame(reps.u1_rep([1, 1]), np.array([1, 0], dtype=complex))
    assert calls == [1]


# ---------------------------------------------------------------------------
# the orientation orbit of a finite frame
# ---------------------------------------------------------------------------


def _s3_irrep_frame():
    """A frame on the two-dimensional irrep of S3: dense matrices with no permutation table."""
    group = groups.symmetric_3()
    reg = reps.regular_rep(group)
    ref = next(b for b in reps.isotypic_decompose(reg).blocks if b.irrep_dim == 2).grid[:, :, 0]
    rep = reps.finite_rep(group, np.stack([dagger(ref) @ u @ ref for u in reg.matrices]))
    assert reps.permutation_table(rep) is None
    return frames.make_frame(rep, np.array([0.6, 0.8j]), name="E")


def _full_support_frame(group):
    reg = reps.regular_rep(group)
    return frames.make_frame(reg, frames.build_lr_seed(reps.isotypic_decompose(reg)), name="F")


def test_orbit_rows_are_the_orientation_states():
    for f in (ideal_frame(groups.symmetric_3()), ideal_frame(groups.dihedral_4())):
        assert f.orbit.shape == (f.group.order, f.dim)
        for g in f.group.elements():
            assert np.array_equal(f.orbit[g], f.rep.evaluate(g) @ f.seed)
            assert np.array_equal(f.orientation(g), f.orbit[g])
    f = _s3_irrep_frame()
    for g in f.group.elements():
        assert np.abs(f.orbit[g] - f.rep.evaluate(g) @ f.seed).max() <= 1e-15
    assert f.orbit is f.orbit  # formed once, then read
    with pytest.raises(ValueError, match="read-only"):
        f.orientation(1)[0] = 2.0


def test_table_held_orbit_is_the_seed_scattered_by_the_table():
    # (U_g phi)[sigma_g(j)] = phi[j]: bit-equal to the dense product, and no dense stack is built for it
    for f in (ideal_frame(groups.symmetric_3()), ideal_frame(groups.dihedral_4())):
        assert f.rep._matrices is None
        orbit = f.orbit
        assert f.rep._matrices is None and np.array_equal(orbit, f.rep.matrices @ f.seed)
    reg = reps.regular_rep(groups.cyclic(16))
    frames.make_frame(reg, np.eye(16)[0])
    assert reg._matrices is None


def test_right_action_matches_the_twirl_per_element():
    from oracles import twirl_right_action

    for f in (_full_support_frame(groups.dihedral_4()), _full_support_frame(groups.symmetric_3()), _s3_irrep_frame(),
              ideal_frame(groups.quaternion_8())):
        v_rep, report = frames.lr_classify(f)
        assert (v_rep is None) == (f.dim == 2)  # the irrep frame has multiplicity 1 < irrep dim 2
        if v_rep is not None:
            assert np.abs(v_rep.matrices - twirl_right_action(f)).max() <= 1e-12


def test_povm_effect_matches_the_per_element_sum():
    for f in (_full_support_frame(groups.dihedral_4()), _s3_irrep_frame()):
        for subset in ([], [0], [1, 3], list(f.group.elements())):
            e = np.zeros((f.dim, f.dim), dtype=complex)
            for g in subset:
                v = f.rep.matrices[g] @ f.seed
                e += f.element_weight() * np.outer(v, np.conj(v))
            assert np.abs(frames.povm_effect(f, subset).matrix - e).max() <= 1e-12


def test_finite_right_action_twirls_nothing_on_the_frame_rep(monkeypatch):
    from qrf import cli

    f = cli.build_scenario(cli.load_config("finite-regular:D4")).frame("R1")
    calls = []
    original = reps.group_average
    monkeypatch.setattr(reps, "group_average", lambda rep, *a: calls.append(rep is f.rep) or original(rep, *a))
    v_rep, _ = frames.lr_classify(f)
    assert reps.permutation_table(v_rep) is not None
    assert calls.count(True) == 0  # one twirl per element, 8, before the orbit


def test_frame_inputs_are_checked():
    with pytest.raises(ValueError, match="per-element weights only exist for finite groups"):
        u1_qubit_frame().element_weight()
    with pytest.raises(ValueError, match="seed dimension does not match the representation"):
        frames.make_frame(reps.regular_rep(groups.cyclic(3)), [1, 0])
