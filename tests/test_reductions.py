import itertools
import math

import numpy as np
import pytest

from conftest import ket3, regular_three_party, u1_basis_index
from oracles import reproducing_residual
from qrf import frames, groups, perspective, reps
from qrf.linalg import DEFAULT_TOL, Monomial, Tolerance, dagger, densify
from qrf.perspective import physical_space, system_projector
from qrf.reductions import (
    ThetaNotFound,
    ThetaState,
    conditional_probability,
    disentangler,
    heisenberg_reduce,
    multi_event_probability,
    schrodinger_inverse,
    schrodinger_map,
    schrodinger_reduce,
    solve_theta,
    trinity_check,
)


def u1_physical_state(coeffs):
    kin = np.zeros(12, dtype=complex)
    for (a, b, c), amp in zip(((1, 1, -2), (1, -1, 0), (-1, 1, 0), (-1, -1, 2)), coeffs):
        kin[u1_basis_index(a, b, c)] = amp
    return kin


def bc_index(cb, cc):
    return {1: 0, -1: 1}[cb] * 3 + {2: 0, 0: 1, -2: 2}[cc]


def test_u1_conditional_state_phase_pattern(u1_scenario):
    ps = physical_space(u1_scenario)
    alpha, beta, gamma, delta = 0.5, 0.5j, -0.5, 0.5
    kin = u1_physical_state([alpha, beta, gamma, delta])
    th = 1.1
    red = schrodinger_reduce(ps, "A", [th], kin)
    expected = np.zeros(6, dtype=complex)
    expected[bc_index(1, -2)] = np.exp(-1j * th) * alpha
    expected[bc_index(-1, 0)] = np.exp(-1j * th) * beta
    expected[bc_index(1, 0)] = np.exp(1j * th) * gamma
    expected[bc_index(-1, 2)] = np.exp(1j * th) * delta
    np.testing.assert_allclose(red, expected, atol=1e-9)


def test_three_spin_conditional_state(three_spin_scenario):
    ps = physical_space(three_spin_scenario)
    red = schrodinger_reduce(ps, "A", [0, 0, 0], ps.basis.basis[:, 0])
    stated = (
        ket3(-2, 2) - ket3(-2, 0) + ket3(0, -2) - ket3(2, -2) + ket3(2, 0) - ket3(0, 2)
    ) / np.sqrt(6)
    assert abs(abs(np.vdot(red, stated)) - 1) < 1e-9
    assert abs(np.linalg.norm(red) - 1) < 1e-9


def test_reduction_covariance(u1_scenario):
    ps = physical_space(u1_scenario)
    kin = u1_physical_state(np.array([0.3, 0.4, 0.5, 0.6]) / np.linalg.norm([0.3, 0.4, 0.5, 0.6]))
    comp = u1_scenario.complement_rep("A")
    for gp, g0 in ((0.3, 0.9), (1.4, 5.0)):
        lhs = comp.evaluate([gp]) @ schrodinger_reduce(ps, "A", [g0], kin)
        rhs = schrodinger_reduce(ps, "A", [gp + g0], kin)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_reduction_isometry_on_basis_pairs(three_spin_scenario, u1_scenario):
    for scenario, fname, gs in (
        (three_spin_scenario, "A", ([0, 0, 0], [0.5, -0.3, 0.8])),
        (u1_scenario, "A", ([0.0], [2.2])),
    ):
        ps = physical_space(scenario)
        b = ps.basis.basis
        for g in gs:
            red = [schrodinger_reduce(ps, fname, g, b[:, k]) for k in range(ps.dim)]
            for i in range(ps.dim):
                for j in range(ps.dim):
                    expected = 1.0 if i == j else 0.0
                    assert abs(np.vdot(red[i], red[j]) - expected) < 1e-9


def test_schrodinger_inverse_round_trips(u1_scenario):
    ps = physical_space(u1_scenario)
    th = 0.77
    for k in range(ps.dim):
        v = ps.basis.basis[:, k]
        red = schrodinger_reduce(ps, "A", [th], v)
        np.testing.assert_allclose(schrodinger_inverse(ps, "A", [th], red), v, atol=1e-9)
    # forward after inverse reproduces any vector in the projector range
    rng = np.random.default_rng(17)
    pi = system_projector(u1_scenario, "A", [th])
    w = pi @ (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    back = schrodinger_inverse(ps, "A", [th], w)
    np.testing.assert_allclose(schrodinger_reduce(ps, "A", [th], back), w, atol=1e-9)


def test_schrodinger_inverse_rejects_out_of_range(u1_scenario):
    ps = physical_space(u1_scenario)
    pi = system_projector(u1_scenario, "A", [0.0])
    v = np.zeros(6, dtype=complex)
    v[bc_index(1, 2)] = 1.0  # total charge 3 component, orthogonal to the range
    assert np.linalg.norm(pi @ v) < 1e-12
    with pytest.raises(ValueError, match="outside"):
        schrodinger_inverse(ps, "A", [0.0], v)


def test_schrodinger_map_invariants(u1_scenario, s3_regular_scenario, three_spin_scenario):
    ps = physical_space(u1_scenario)
    held = schrodinger_map(ps, "A", [0.4])
    assert isinstance(held, Monomial)  # its round trip is the diagonal G = |w|^2
    m = densify(held)
    np.testing.assert_allclose(dagger(m) @ m, np.eye(ps.dim), atol=1e-9)
    np.testing.assert_allclose(np.diag(held.gram), dagger(m) @ m, atol=1e-12)
    pi = system_projector(u1_scenario, "A", [0.4])
    np.testing.assert_allclose(m @ dagger(m), pi, atol=1e-9)
    assert u1_scenario.frame("A").weight_scale == 2.0
    rng = np.random.default_rng(31)
    for s, fname, g in (
        (s3_regular_scenario, "R1", 4),
        (u1_scenario, "C", [1.3]),
        (three_spin_scenario, "A", [0.4, -0.2, 0.9]),
    ):
        ps = physical_space(s)
        c = densify(perspective.conditioning_map(ps, fname, g))
        assert c.shape == (s.complement_dim(fname), ps.dim)
        np.testing.assert_allclose(densify(schrodinger_map(ps, fname, g)), c, atol=1e-12)
        np.testing.assert_allclose(dagger(c) @ c, np.eye(ps.dim), atol=1e-9)
        np.testing.assert_allclose(c @ dagger(c), system_projector(s, fname, g), atol=1e-9)
        coeff = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
        psi = ps.basis.basis @ (coeff / np.linalg.norm(coeff))
        np.testing.assert_allclose(
            schrodinger_reduce(ps, fname, g, psi), c @ (dagger(ps.basis.basis) @ psi), atol=1e-10
        )


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------


def test_conditional_probability_trivial_projectors(u1_scenario):
    ps = physical_space(u1_scenario)
    kin = u1_physical_state(np.array([1, 1, 1, 1]) / 2.0)
    assert conditional_probability(ps, "A", [0.3], np.eye(6), kin) == pytest.approx(1.0)
    assert conditional_probability(ps, "A", [0.3], np.zeros((6, 6)), kin) == pytest.approx(0.0)


def test_conditional_probability_deterministic_outcome(u1_scenario):
    ps = physical_space(u1_scenario)
    kin = u1_physical_state([1.0, 0, 0, 0])
    e = np.zeros((6, 6))
    e[bc_index(1, -2), bc_index(1, -2)] = 1.0
    for th in (0.0, 0.9, 3.3, 5.1):
        assert conditional_probability(ps, "A", [th], e, kin) == pytest.approx(1.0, abs=1e-9)


def test_conditional_probabilities_sum_over_complete_family(u1_scenario):
    ps = physical_space(u1_scenario)
    rng = np.random.default_rng(18)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    kin = u1_physical_state(c / np.linalg.norm(c))
    total = 0.0
    for k in range(6):
        e = np.zeros((6, 6))
        e[k, k] = 1.0
        p = conditional_probability(ps, "A", [0.8], e, kin)
        assert -1e-12 <= p <= 1 + 1e-12
        total += p
    assert total == pytest.approx(1.0, abs=1e-9)


def test_conditional_probability_rejects_non_projector(u1_scenario):
    ps = physical_space(u1_scenario)
    kin = u1_physical_state([1.0, 0, 0, 0])
    with pytest.raises(ValueError, match="projector"):
        conditional_probability(ps, "A", [0.0], 0.5 * np.eye(6), kin)


def test_projector_gate_passes_a_rounded_projector_at_tolerance_zero(u1_scenario):
    # the projector onto (1, ..., 1)/sqrt(6) has ||e e - e||_F = 3.3e-16 in floating point; the gate is floored at
    # the rounding bound of a 6-dim check, 6 * 32 eps = 4.3e-14, so tolerance 0 does not reject it
    from qrf.reductions import _check_projector

    v = np.ones(6) / np.sqrt(6)  # on the complement of frame A
    e = np.outer(v, v)
    assert np.linalg.norm(e @ e - e) > 0
    np.testing.assert_array_equal(_check_projector(u1_scenario, "A", e, Tolerance(0.0)), e)
    with pytest.raises(ValueError, match="projector"):
        _check_projector(u1_scenario, "A", e + 1e-12 * np.eye(6), Tolerance(0.0))
    assert Tolerance(0.0).bound(1.0, 6) < 1e-12 < 1e4 * DEFAULT_TOL.weighted(1.0)
    _check_projector(u1_scenario, "A", e + 1e-12 * np.eye(6), DEFAULT_TOL)  # the default gate is unchanged


def test_conditional_probability_rejects_a_mis_scaled_frame():
    # a frame volume off by x1.3 scales both sides of the cross-check alike, so only the range gives it away
    rep_qubit, rep_qutrit = reps.u1_rep([1, -1]), reps.u1_rep([2, 0, -2])
    f = frames.make_frame(rep_qubit, np.array([1, 1]) / np.sqrt(2), name="A")
    f.weight_scale *= 1.3
    s = perspective.make_scenario(
        groups.u1(), [("A", rep_qubit), ("B", rep_qubit), ("C", rep_qutrit)], {"A": ("A", f)}
    )
    ps = physical_space(s)
    kin = u1_physical_state(np.array([1, 1, 1, 1]) / 2.0)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        conditional_probability(ps, "A", [0.3], np.eye(6), kin)
    assert conditional_probability(ps, "A", [0.3], np.zeros((6, 6)), kin) == 0.0


def test_multi_event_reduces_to_conditional(u1_scenario):
    ps = physical_space(u1_scenario)
    kin = u1_physical_state(np.array([0.6, 0.2, 0.5, 0.4]) / np.linalg.norm([0.6, 0.2, 0.5, 0.4]))
    e = np.zeros((6, 6))
    e[bc_index(1, -2), bc_index(1, -2)] = 1.0
    p1 = multi_event_probability(ps, "A", (e, [0.4]), (np.eye(6), [1.9]), kin)
    p2 = conditional_probability(ps, "A", [0.4], e, kin)
    assert p1 == pytest.approx(p2, abs=1e-9)


def test_multi_event_idempotent_conditioning(u1_scenario):
    ps = physical_space(u1_scenario)
    kin = u1_physical_state(np.array([0.6, 0.2, 0.5, 0.4]) / np.linalg.norm([0.6, 0.2, 0.5, 0.4]))
    e = np.diag([1.0, 0, 1.0, 0, 0, 0])
    p = multi_event_probability(ps, "A", (e, [0.4]), (e, [0.4]), kin)
    assert p == pytest.approx(1.0, abs=1e-9)


def test_multi_event_disjoint_projectors_zero():
    g = groups.cyclic(2)
    reg = reps.regular_rep(g)
    rsys = reps.finite_rep(g, np.stack([np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]))
    f = frames.make_frame(reg, np.array([1, 0], dtype=complex), name="R")
    s = perspective.make_scenario(g, [("R", reg), ("S", rsys)], {"R": ("R", f)})
    ps = physical_space(s)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    e_plus = np.outer(plus, plus)
    e_minus = np.outer(minus, minus)
    psi = ps.basis.basis @ (np.array([1.0, 1.0]) / np.sqrt(2))
    p = multi_event_probability(ps, "R", (e_minus, 0), (e_plus, 0), psi)
    assert p == pytest.approx(0.0, abs=1e-9)


def test_multi_event_rejects_zero_probability_condition(u1_scenario):
    ps = physical_space(u1_scenario)
    kin = u1_physical_state([1.0, 0, 0, 0])
    e_never = np.zeros((6, 6))
    e_never[bc_index(-1, 2), bc_index(-1, 2)] = 1.0
    with pytest.raises(ValueError, match="zero probability"):
        multi_event_probability(ps, "A", (np.eye(6), [0.0]), (e_never, [0.0]), kin)


# ---------------------------------------------------------------------------
# theta states, disentangler, Heisenberg picture
# ---------------------------------------------------------------------------


def test_ideal_frame_theta_is_all_ones():
    f = frames.make_frame(
        reps.regular_rep(groups.symmetric_3()),
        np.eye(6, dtype=complex)[groups.symmetric_3().identity_index],
        name="R",
    )
    theta = solve_theta(f)
    assert isinstance(theta, ThetaState)
    np.testing.assert_allclose(theta.phases, np.ones(6), atol=1e-12)
    assert reproducing_residual(f, theta) < 1e-10


def test_u1_qubit_frame_theta_fourier_one(u1_scenario):
    for tol in (DEFAULT_TOL, Tolerance(1e-3)):  # the search accepts at the frame-validity bound
        theta = solve_theta(u1_scenario.frame("A"), tol)
        assert isinstance(theta, ThetaState)
        assert theta.fourier_k == 1
        assert reproducing_residual(u1_scenario.frame("A"), theta) < 1e-10
    # |theta|^2 equals the frame volume
    assert np.linalg.norm(theta.vector) ** 2 == pytest.approx(2.0)


def test_u1_qutrit_frame_theta_trivial_phase(u1_scenario):
    theta = solve_theta(u1_scenario.frame("C"))
    assert theta.fourier_k == 0
    assert reproducing_residual(u1_scenario.frame("C"), theta) < 1e-10


def test_theta_from_a_character_where_n_equals_1_fails():
    # a frame without a trivial-charge component: N = 1 gives residual 1, the character chi_1(k) = i^k reproduces K
    g = groups.cyclic(4)
    mats = np.stack([np.diag([1j ** k, (-1j) ** k]) for k in range(4)])
    rep = reps.finite_rep(g, mats)
    f = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2), name="R")
    out = solve_theta(f)
    assert isinstance(out, ThetaState)
    np.testing.assert_allclose(out.phases, 1j ** np.arange(4), atol=1e-15)
    assert out.residual <= 1e-15
    assert reproducing_residual(f, out) <= 1e-15
    s = perspective.make_scenario(g, [("R", rep), ("S", rep)], {"R": ("R", f)})
    ps = physical_space(s)
    assert ps.dim == 2
    assert trinity_check(ps, "R", out, ps.basis.basis[:, 0]).residual <= 1e-14


def test_theta_not_found_when_no_character_reproduces_the_kernel():
    # the S3 2-dim irrep with seed (1, 0): the trivial and the sign character both give residual 1
    s3 = groups.symmetric_3()
    plane = np.array([[1, -1, 0], [1, 1, -2]]).T / np.sqrt([2.0, 6.0])  # orthogonal to (1, 1, 1)
    perms = [np.eye(3)[:, p] for p in sorted(itertools.permutations(range(3)))]  # the builtin's element order
    rep = reps.finite_rep(s3, np.stack([plane.T @ p @ plane for p in perms]))
    assert len(list(groups.characters(s3))) == 2
    out = solve_theta(frames.make_frame(rep, np.array([1.0, 0.0]), name="R"))
    assert isinstance(out, ThetaNotFound)
    assert out.residual == pytest.approx(1.0, abs=1e-12)


def test_theta_accepted_only_where_the_trinity_check_passes():
    # a Z3 regular seed off by 4e-9 is a valid frame whose theta residual, 4e-9, is also its trinity residual
    group = groups.cyclic(3)
    reg = reps.regular_rep(group)
    seed = np.eye(3)[group.identity_index] + 4e-9 * np.array([0.3, -1.0, 0.5])
    f = frames.make_frame(reg, seed / np.linalg.norm(seed), name="R1")
    s = perspective.make_scenario(group, [("R1", reg), ("S", reg)], {"R1": ("R1", f)})
    assert isinstance(solve_theta(f), ThetaNotFound)  # above the default unit bound, 2e-9
    loose = Tolerance(1e-6)
    theta = solve_theta(f, loose)
    assert isinstance(theta, ThetaState) and 3e-9 < theta.residual <= frames.validity_bound(1, loose) == 1e-8
    ps = physical_space(s, loose)
    assert trinity_check(ps, "R1", theta, ps.basis.basis[:, 0], loose).passed


def test_theta_not_found_for_su2(three_spin_scenario):
    out = solve_theta(three_spin_scenario.frame("A"))
    assert isinstance(out, ThetaNotFound)
    assert "SU(2)" in out.reason


def test_disentangler_product_form_finite():
    g = groups.cyclic(2)
    reg = reps.regular_rep(g)
    rsys = reps.finite_rep(g, np.stack([np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]))
    f = frames.make_frame(reg, np.array([1, 0], dtype=complex), name="R")
    s = perspective.make_scenario(g, [("R", reg), ("S", rsys)], {"R": ("R", f)})
    ps = physical_space(s)
    theta = solve_theta(f)
    t_r = disentangler(s, "R", theta, np.eye(s.kin_dim))
    for k in range(ps.dim):
        v = ps.basis.basis[:, k]
        cond = s.condition_vector("R", f.seed, v)
        expect = s.inject_vector("R", theta.vector, cond)
        np.testing.assert_allclose(t_r @ v, expect, atol=1e-10)
    # T Pi_phys T^dag is the product operator |theta><theta| x Pi_S(e)
    big_pi = f.weight_scale * ps.projector()
    lhs = t_r @ big_pi @ t_r.conj().T
    rhs = s.embed_frame_operator("R", np.outer(theta.vector, theta.vector.conj()), system_projector(s, "R", 0))
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_disentangler_product_form_u1(u1_scenario):
    ps = physical_space(u1_scenario)
    f = u1_scenario.frame("A")
    theta = solve_theta(f)
    t_r = disentangler(u1_scenario, "A", theta, np.eye(u1_scenario.kin_dim))
    for k in range(ps.dim):
        v = ps.basis.basis[:, k]
        cond = u1_scenario.condition_vector("A", f.seed, v)
        expect = u1_scenario.inject_vector("A", theta.vector, cond)
        np.testing.assert_allclose(t_r @ v, expect, atol=1e-9)
        # weak isometry
        np.testing.assert_allclose(t_r.conj().T @ (t_r @ v), v, atol=1e-9)
    big_pi = f.weight_scale * ps.projector()
    rhs = u1_scenario.embed_frame_operator(
        "A", np.outer(theta.vector, theta.vector.conj()), system_projector(u1_scenario, "A", [0.0])
    )
    np.testing.assert_allclose(t_r @ big_pi @ t_r.conj().T, rhs, atol=1e-8)


def test_heisenberg_equals_rotated_schrodinger(u1_scenario):
    ps = physical_space(u1_scenario)
    f = u1_scenario.frame("A")
    theta = solve_theta(f)
    rng = np.random.default_rng(19)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    kin = u1_physical_state(c / np.linalg.norm(c))
    heis = heisenberg_reduce(ps, "A", theta, kin)
    comp = u1_scenario.complement_rep("A")
    for th in np.linspace(0.1, 6.0, 8):
        lhs = comp.evaluate([th]).conj().T @ schrodinger_reduce(ps, "A", [th], kin)
        np.testing.assert_allclose(lhs, heis, atol=1e-8)


def test_heisenberg_matches_identity_schrodinger_for_ideal_frame(s3_regular_scenario):
    ps = physical_space(s3_regular_scenario)
    f = s3_regular_scenario.frame("R1")
    theta = solve_theta(f)
    rng = np.random.default_rng(20)
    c = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    psi = ps.basis.basis @ (c / np.linalg.norm(c))
    heis = heisenberg_reduce(ps, "R1", theta, psi)
    np.testing.assert_allclose(heis, schrodinger_reduce(ps, "R1", 0, psi), atol=1e-9)


def test_heisenberg_observable_evolution_matches_reduced_relational(u1_scenario):
    # projected Heisenberg evolution of f equals the reduction of F_f(g)
    ps = physical_space(u1_scenario)
    comp = u1_scenario.complement_rep("A")
    rng = np.random.default_rng(21)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    f_s = (h + h.conj().T) / 2
    pi_e = system_projector(u1_scenario, "A", [0.0])
    for th in (0.0, 0.9, 2.4):
        u = comp.evaluate([th])
        heis_obs = pi_e @ u.conj().T @ f_s @ u @ pi_e
        m = densify(schrodinger_map(ps, "A", [th]))
        f_rel = perspective.relational_observable(u1_scenario, "A", [th], f_s, check=False)
        # Heisenberg reduction of F_f(th) acts as the projected evolved observable
        lhs = heis_obs @ (u.conj().T @ m)
        rhs = u.conj().T @ m @ ps.restrict(f_rel.matrix)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_expectation_preservation_under_reduction(u1_scenario, three_spin_scenario):
    # <psi|F_f(g)|psi> equals the reduced expectation of the projected observable
    rng = np.random.default_rng(30)
    for scenario, fname, g in ((u1_scenario, "A", [0.6]), (three_spin_scenario, "A", [0.2, -0.5, 0.1])):
        ps = physical_space(scenario)
        coeff = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
        psi = ps.basis.basis @ (coeff / np.linalg.norm(coeff))
        dim_c = scenario.complement_dim(fname)
        h = rng.standard_normal((dim_c, dim_c)) + 1j * rng.standard_normal((dim_c, dim_c))
        f_s = (h + h.conj().T) / 2
        f_rel = perspective.relational_observable(scenario, fname, g, f_s, check=False)
        lhs = np.vdot(psi, f_rel.matrix @ psi)
        pi = system_projector(scenario, fname, g)
        red = schrodinger_reduce(ps, fname, g, psi)
        rhs = np.vdot(red, (pi @ f_s @ pi) @ red)
        assert abs(lhs - rhs) < 1e-9


def test_isotropy_phase_invariance_of_reduced_states():
    # for h in the isotropy group, U_S(g h g^-1) fixes the reduced state ray
    g = groups.cyclic(4)
    mats = np.stack([np.diag([1.0, (-1.0) ** k]).astype(complex) for k in range(4)])
    rep = reps.finite_rep(g, mats)
    f = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2), name="R")
    rsys = reps.finite_rep(
        g, np.stack([np.diag([1.0, (-1.0) ** k, 1j ** k]) for k in range(4)])
    )
    s = perspective.make_scenario(g, [("R", rep), ("S", rsys)], {"R": ("R", f)})
    ps = physical_space(s)
    assert ps.dim == 2
    comp = s.complement_rep("R")
    psi = ps.basis.basis[:, 0]
    for g0 in range(4):
        red = schrodinger_reduce(ps, "R", g0, psi)
        for h in f.isotropy.element_indices:
            conj_h = g.mult(g0, g.mult(h, g.inverse(g0)))
            moved = comp.matrices[conj_h] @ red
            overlap = abs(np.vdot(moved, red)) / (np.linalg.norm(red) ** 2)
            assert overlap == pytest.approx(1.0, abs=1e-9)


def _rotated_u1_scenario():
    """Qubit frame and qubit partner with rotated charge bases, plus a diagonal qutrit: no weight basis is 1."""
    rng = np.random.default_rng(5)

    def rotated(charges):
        w, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return reps.lie_rep(groups.u1(), (w @ np.diag(charges) @ dagger(w))[None]), w

    rep_a, w_a = rotated([1, -1])
    rep_b, _ = rotated([1, -1])
    rep_c = reps.u1_rep([2, 0, -2])
    f = frames.make_frame(rep_a, w_a @ np.array([1, 1]) / np.sqrt(2), name="A")
    return perspective.make_scenario(groups.u1(), [("A", rep_a), ("B", rep_b), ("C", rep_c)], {"A": ("A", f)})


def test_slot_first_disentangler_matches_kronecker_sum_oracle(u1_scenario, s3_regular_scenario):
    from oracles import disentangler as kronecker_sum
    from qrf.reductions import product_form_check

    d4 = regular_three_party(groups.dihedral_4())
    rotated = _rotated_u1_scenario()
    assert reps.weight_basis(rotated.frame("A").rep).vectors is not None
    assert reps.weight_basis(rotated.complement_rep("A")).vectors is not None
    cases = [(s3_regular_scenario, f) for f in ("R1", "R2")] + [(d4, f) for f in ("R1", "R2")]
    cases += [(u1_scenario, f) for f in ("A", "B", "C")] + [(rotated, "A")]
    for s, fname in cases:
        theta = solve_theta(s.frame(fname))
        assert isinstance(theta, ThetaState)
        t_r = disentangler(s, fname, theta, np.eye(s.kin_dim))
        assert np.abs(t_r - kronecker_sum(s, fname, theta)).max() <= 1e-12, fname
        ps = physical_space(s)
        assert product_form_check(ps, fname, theta).residual <= 1e-10


def test_inject_vector_takes_columns(u1_scenario):
    rng = np.random.default_rng(9)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    chi = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    cols = u1_scenario.inject_vector("C", phi, chi)
    assert cols.shape == (12, 5)
    for k in range(5):
        np.testing.assert_array_equal(cols[:, k], u1_scenario.inject_vector("C", phi, chi[:, k]))
        np.testing.assert_allclose(u1_scenario.condition_vector("C", phi, cols[:, k]), np.vdot(phi, phi) * chi[:, k])


def test_disentangler_and_conditioning_act_on_matrices_column_by_column(u1_scenario, s3_regular_scenario):
    rng = np.random.default_rng(12)
    cases = [(s3_regular_scenario, f) for f in ("R1", "R2")] + [(u1_scenario, f) for f in ("A", "B", "C")]
    cases += [(_rotated_u1_scenario(), "A")]
    for s, fname in cases:
        theta = solve_theta(s.frame(fname))
        m = rng.standard_normal((s.kin_dim, 3)) + 1j * rng.standard_normal((s.kin_dim, 3))
        phi = rng.standard_normal(s.frame(fname).dim) + 1j * rng.standard_normal(s.frame(fname).dim)
        applied, conditioned = disentangler(s, fname, theta, m), s.condition_vector(fname, phi, m)
        assert applied.shape == m.shape and conditioned.shape == (s.complement_dim(fname), 3)
        for k in range(3):
            np.testing.assert_allclose(applied[:, k], disentangler(s, fname, theta, m[:, k]), rtol=0, atol=1e-14)
            np.testing.assert_allclose(conditioned[:, k], s.condition_vector(fname, phi, m[:, k]), rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "fixture, frame, g", [("u1_scenario", "B", [0.4]), ("four_spin_scenario", "A", [0.3, -0.2, 0.5])]
)
def test_probabilities_on_weight_blocks_match_the_dense_observable(fixture, frame, g, request):
    s = request.getfixturevalue(fixture)
    ps = physical_space(s)
    rng = np.random.default_rng(31)
    comp = s.complement_dim(frame)
    q_e, q_c = (np.linalg.qr(rng.standard_normal((comp, k)))[0] for k in (comp // 2, comp - 1))
    e, e_cond = q_e @ dagger(q_e), q_c @ dagger(q_c)
    c = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    v = ps.basis.basis @ (c / np.linalg.norm(c))
    f_e = perspective.relational_observable(s, frame, g, e, check=False)
    f_c = perspective.relational_observable(s, frame, [0.1] * len(g), e_cond, check=False)
    assert isinstance(f_e.op, reps.WeightBlocks)
    dense = float(np.real(np.vdot(v, f_e.matrix @ v)))
    assert abs(conditional_probability(ps, frame, g, e, v) - dense) <= 1e-14
    num = float(np.real(np.vdot(v, f_c.matrix @ (f_e.matrix @ (f_c.matrix @ v)))))
    p = multi_event_probability(ps, frame, (e, g), (e_cond, [0.1] * len(g)), v)
    assert abs(p - num / float(np.real(np.vdot(v, f_c.matrix @ v)))) <= 1e-14


def test_finite_reductions_read_the_orbit_without_evaluating_the_frame_rep(monkeypatch):
    from qrf import cli

    s = cli.build_scenario(cli.load_config("finite-regular:D4"))
    ps, frame = physical_space(s), s.frame("R1")
    psi = ps.basis.basis[:, 0]
    expected = np.sqrt(frame.weight_scale) * s.condition_vector("R1", frame.rep.evaluate(3) @ frame.seed, psi)
    calls = []
    original = reps.UnitaryRep.evaluate
    monkeypatch.setattr(reps.UnitaryRep, "evaluate", lambda rep, g: calls.append(rep is frame.rep) or original(rep, g))
    assert np.array_equal(schrodinger_reduce(ps, "R1", 3, psi), expected)
    perspective.relational_observable(s, "R1", 5, np.eye(s.complement_dim("R1")))
    assert calls.count(True) == 0  # one evaluation of phi(g) per call before the orbit


def test_conditional_probability_refuses_a_failed_gauge_invariance_cross_check(monkeypatch, z3_regular_scenario):
    from qrf import reductions

    s = z3_regular_scenario
    ps = physical_space(s)
    kin = s.kin_dim
    monkeypatch.setattr(reductions, "_twirled", lambda *a, **k: np.zeros((kin, kin)))
    with pytest.raises(ValueError, match=r"gauge-invariance cross-check failed: 1\.0\d* vs 0\.0"):
        conditional_probability(ps, "R1", 0, np.eye(s.complement_dim("R1")), ps.basis.basis[:, 0])


def _u1_golden_scenarios():
    from conftest import u1_qubits_config
    from qrf import cli

    return [cli.build_scenario(u1_qubits_config(n)) for n in (4, 6, 8, 10)] + [
        cli.build_scenario(cli.load_config("u1-qubit-qubit-qutrit"))]


def _drawn_probability_inputs(rng, s, ps, frame):
    comp = s.complement_dim(frame)
    q = np.linalg.qr(rng.standard_normal((comp, comp)) + 1j * rng.standard_normal((comp, comp)))[0]
    k = int(rng.integers(1, comp))
    e = q[:, :k] @ dagger(q[:, :k])
    c = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    return e, ps.basis @ (c / np.linalg.norm(c)), [float(rng.uniform(0, 2 * np.pi))]


def test_physical_block_probability_is_the_whole_twirl():
    # every frame of the U(1) goldens: <x| P |x>, x = B^dag v and P the weight-0 block at B's rows, against the
    # whole held twirl applied to v, on drawn projectors, states and orientations
    from oracles import twirled_probability
    from qrf import reductions

    rng = np.random.default_rng(41)
    for s in _u1_golden_scenarios():
        ps = physical_space(s)
        for frame in s.frames:
            for _ in range(2):
                e, v, g = _drawn_probability_inputs(rng, s, ps, frame)
                x, rel = reductions._relational(ps, frame, v, DEFAULT_TOL)
                got = float(np.real(np.vdot(x, rel(g, e) @ x)))
                assert x.shape == (ps.dim,) and rel(g, e).shape == (ps.dim, ps.dim)
                assert abs(got - twirled_probability(ps, frame, g, e, v)) <= 1e-13, (s.kin_dim, frame)
                assert abs(conditional_probability(ps, frame, g, e, v) - got) <= 1e-12


def test_the_twirl_weight_zero_block_is_the_physical_block_bit_for_bit():
    # every frame of the U(1) goldens: the probability's F_E(g) on H_phys is the twirl builder's own weight-0 block,
    # equal to the reference formula read at B's rows, because B holds weight 0's kets in the twirl index's order
    from oracles import physical_block
    from qrf.perspective import _sector_index, _twirled

    rng = np.random.default_rng(53)
    for s in _u1_golden_scenarios():
        ps = physical_space(s)
        b, kets = ps.basis, reps.weight_basis(s.total_rep).sectors[0]
        assert np.array_equal(b.rows, kets) and np.array_equal(b.cols, np.arange(ps.dim)) and np.all(b.vals == 1)
        for frame in s.frames:
            for _ in range(2):
                e, _, g = _drawn_probability_inputs(rng, s, ps, frame)
                got = _twirled(s, frame, g, e, DEFAULT_TOL, True).blocks[0]
                assert np.array_equal(got, physical_block(ps, frame, g, e)), (s.kin_dim, frame)
            r, c = _sector_index(s, frame)[0]
            d, rest = s.dims[s.frame_slot(frame)], math.prod(s.dims[s.frame_slot(frame) + 1:])
            assert np.array_equal((c // rest * d + r) * rest + c % rest, kets)  # (r, c) are the kets of B, in order


def test_a_warm_u1_probability_builds_the_weight_zero_block_alone(monkeypatch):
    s = _stacked_case("u1-8-qubits")
    ps, frame = physical_space(s), next(iter(s.frames))
    e, v, g = _drawn_probability_inputs(np.random.default_rng(43), s, ps, frame)
    e_cond = np.eye(s.complement_dim(frame)) - e
    warm = conditional_probability(ps, frame, g, e, v), multi_event_probability(ps, frame, (e, g), (e_cond, g), v)
    built, build = [], perspective._OnRead.__getitem__
    monkeypatch.setattr(perspective._OnRead, "__getitem__", lambda self, w: built.append(w) or build(self, w))
    assert conditional_probability(ps, frame, g, e, v) == warm[0]
    assert built == [0]
    assert multi_event_probability(ps, frame, (e, g), (e_cond, g), v) == warm[1]
    assert built == [0, 0, 0]


def test_u1_conditional_probability_refuses_a_corrupted_physical_index(monkeypatch):
    s = _stacked_case("u1-8-qubits")
    ps, frame = physical_space(s), next(iter(s.frames))
    e, v, g = _drawn_probability_inputs(np.random.default_rng(47), s, ps, frame)
    conditional_probability(ps, frame, g, e, v)
    index = dict(s._cache[("twirl_index", frame)])
    r, c = index[0]
    index[0] = (r, np.roll(c, 1))
    monkeypatch.setitem(s._cache, ("twirl_index", frame), index)
    with pytest.raises(ValueError, match="gauge-invariance cross-check failed"):
        conditional_probability(ps, frame, g, e, v)


def test_u1_theta_search_reports_a_gap_just_above_its_bound():
    # the seed passes make_frame (residual 5.1e-9 <= validity_bound(3) = 6e-9), but the best Fourier phase's
    # gap |3 (1 + d) / 3 - 1| = d = 2.1e-9 lies above validity_bound(1) = 2e-9
    d = 2.1e-9
    f = frames.make_frame(reps.u1_rep([2, 0, -2]), np.sqrt(np.array([1 + d, 1 + d, 1 - 2 * d]) / 3), name="Q")
    out = solve_theta(f)
    assert isinstance(out, ThetaNotFound), out
    assert out.reason == "no integer Fourier phase satisfies the reproducing equality"
    assert out.residual == pytest.approx(d, rel=1e-3) and out.residual > frames.validity_bound(1)


def test_disentangler_checks_the_theta_state_it_is_given(z3_regular_scenario, u1_scenario, three_spin_scenario):
    z3, zv = z3_regular_scenario, np.zeros(z3_regular_scenario.kin_dim)
    with pytest.raises(ValueError, match="theta state belongs to a different frame"):
        disentangler(z3, "R1", ThetaState(frame_name="R2", vector=np.zeros(3), phases=np.ones(3)), zv)
    with pytest.raises(ValueError, match="finite frame needs per-element phases"):
        disentangler(z3, "R1", ThetaState(frame_name="R1", vector=np.zeros(3)), zv)
    with pytest.raises(ValueError, match="disentangler supports finite-group and U\\(1\\) frames"):
        disentangler(three_spin_scenario, "A", ThetaState(frame_name="A", vector=np.zeros(3)),
                     np.zeros(three_spin_scenario.kin_dim))
    with pytest.raises(ValueError, match="U\\(1\\) frame needs a Fourier phase label"):
        disentangler(u1_scenario, "A", ThetaState(frame_name="A", vector=np.zeros(2)), np.zeros(u1_scenario.kin_dim))


def test_heisenberg_reduction_refuses_a_theta_state_that_does_not_reproduce(z3_regular_scenario):
    s = z3_regular_scenario
    ps = physical_space(s)
    theta = solve_theta(s.frame("R1"))
    # on an ideal frame conditioning at h reads |N(h)|^2 times the Schroedinger reduction: unimodular phases all
    # reproduce, a phase of modulus 2 does not
    bent = ThetaState(frame_name="R1", vector=theta.vector, phases=np.array([1.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="Heisenberg reduction depends on the conditioning orientation"):
        heisenberg_reduce(ps, "R1", bent, ps.basis.basis[:, 0])


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(0.0)], ids=["default", "zero"])
def test_projector_gate_refuses_each_clause_just_above_it(tol):
    # E = P + e |0><1| is idempotent with ||E - E^dag||_F = sqrt(2) e; E = (1 + e) P is Hermitian with
    # ||E E - E||_F = e (1 + e) for a rank-1 P: each clause alone refused 1% above the gate and passed 1% below it
    from qrf.reductions import _check_projector

    dim = 128  # the complement of one of eight charge +-1 qubits
    qubit = reps.u1_rep([1, -1])
    frame = frames.make_frame(qubit, np.ones(2) / np.sqrt(2.0), name="A")
    s = perspective.make_scenario(groups.u1(), [(f"Q{k}", qubit) for k in range(8)], {"A": ("Q0", frame)})
    gate = max(1e4 * tol.weighted(1.0), tol.bound(1.0, dim))
    p = np.zeros((dim, dim), dtype=complex)
    p[0, 0] = 1.0
    unit = np.zeros((dim, dim), dtype=complex)
    unit[0, 1] = 1.0
    hermitian_gap = [p + (factor * gate / np.sqrt(2.0)) * unit for factor in (0.99, 1.01)]
    idempotent_gap = [(1.0 + eps) * p for eps in (0.99 * gate, 1.01 * gate)]
    for below, above in (hermitian_gap, idempotent_gap):
        np.testing.assert_array_equal(_check_projector(s, "A", below, tol), below)
        with pytest.raises(ValueError, match="expected a Hermitian idempotent projector"):
            _check_projector(s, "A", above, tol)


def _z4_diagonal_scenario():
    """A frame and a system on the Z4 rep diag(i^k, (-i)^k): a finite rep with no permutation table."""
    g = groups.cyclic(4)
    rep = reps.finite_rep(g, np.stack([np.diag([1j ** k, (-1j) ** k]) for k in range(4)]))
    f = frames.make_frame(rep, np.array([1, 1]) / np.sqrt(2), name="R")
    return perspective.make_scenario(g, [("R", rep), ("S", rep)], {"R": ("R", f)})


def _stacked_case(source):
    from conftest import u1_qubits_config
    from qrf import cli

    if source == "z4-diagonal":
        return _z4_diagonal_scenario()
    return cli.build_scenario(u1_qubits_config(8) if source == "u1-8-qubits" else cli.load_config(source))


@pytest.mark.parametrize("source", ["finite-regular:S3", "finite-regular:D4", "u1-8-qubits", "u1-qubit-qubit-qutrit",
                                    "z4-diagonal"])
def test_stacked_reductions_match_the_dense_per_element_oracles(source):
    # table-held (S3, D4), charge-held (U(1)) and a non-table finite rep: T_R, the Heisenberg state and the trinity
    # stack U_S(g)^dag C_g psi agree with one dense U_S(g) and one Kronecker embedding per element
    import oracles

    s = _stacked_case(source)
    if source == "z4-diagonal":
        assert reps.permutation_table(s.complement_rep("R")) is None
    ps = physical_space(s)
    rng = np.random.default_rng(62)
    for fname in s.frames:
        theta = solve_theta(s.frame(fname))
        assert isinstance(theta, ThetaState), fname
        m = rng.standard_normal((s.kin_dim, 3)) + 1j * rng.standard_normal((s.kin_dim, 3))
        assert np.abs(disentangler(s, fname, theta, m) - oracles.disentangler(s, fname, theta) @ m).max() <= 1e-13
        c = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
        psi = ps.basis.basis @ (c / np.linalg.norm(c))
        heis = heisenberg_reduce(ps, fname, theta, psi)
        assert np.abs(heis - oracles.heisenberg_state(ps, fname, theta, psi)).max() <= 1e-13
        comp, elements = s.complement_rep(fname), perspective.sample_elements(s.frame(fname).group, 8)
        moved = reps._act(comp, reps._inverses(comp, elements), perspective.condition_on_each(s, fname, elements, psi))
        assert np.abs(moved - oracles.trinity_stack(ps, fname, psi)).max() <= 1e-13
        residual = trinity_check(ps, fname, theta, psi).residual
        assert abs(residual - oracles.trinity_residual(ps, fname, theta, psi)) <= 1e-13


def test_trinity_residual_of_an_almost_reproducing_theta_matches_the_oracle():
    # the Z3 seed off by 4e-9 leaves a trinity residual of a few 1e-9, which the stacked check reads as the oracle does
    import oracles

    group = groups.cyclic(3)
    reg = reps.regular_rep(group)
    seed = np.eye(3)[group.identity_index] + 4e-9 * np.array([0.3, -1.0, 0.5])
    f = frames.make_frame(reg, seed / np.linalg.norm(seed), name="R1")
    s = perspective.make_scenario(group, [("R1", reg), ("S", reg)], {"R1": ("R1", f)})
    loose = Tolerance(1e-6)
    ps, theta = physical_space(s, loose), solve_theta(f, loose)
    psi = ps.basis.basis[:, 0]
    residual = trinity_check(ps, "R1", theta, psi, loose).residual
    assert residual > 1e-9
    assert abs(residual - oracles.trinity_residual(ps, "R1", theta, psi)) <= 1e-13


@pytest.mark.parametrize("source", ["finite-regular:D4", "u1-8-qubits"])
def test_reductions_build_no_dense_complement_element(source, monkeypatch):
    # U_S(g)^dag is the complement's own action: no element matrix, dense stack or dense generator is formed
    s = _stacked_case(source)
    ps = physical_space(s)
    fname = next(iter(s.frames))
    theta = solve_theta(s.frame(fname))
    psi, chi = ps.basis.basis[:, 0], ps.basis.basis[:, 1]

    def refuse(*args):
        raise AssertionError("a dense rep matrix was built")

    monkeypatch.setattr(reps, "rep_evaluate", refuse)
    monkeypatch.setattr(reps, "_permutation_matrices", refuse)
    disentangler(s, fname, theta, psi)
    disentangler(s, fname, theta, ps.basis.basis)
    heisenberg_reduce(ps, fname, theta, psi)
    assert trinity_check(ps, fname, theta, psi).passed
    assert perspective.conditional_inner_product_check(s, fname, psi, chi)["check"].passed
    comp = s.complement_rep(fname)
    assert comp._matrices is None and comp._generators is None


def test_reductions_hold_no_per_element_loop_or_dense_evaluation():
    # the stacked forms are the only forms: no element matrix is read in reductions, and the reductions that
    # contract over the orientations hold no Python loop or comprehension; product_form_check's one loop walks B's
    # column blocks, each contracted over every orientation at once
    import ast
    import inspect

    from qrf import reductions

    tree = ast.parse(inspect.getsource(reductions))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"evaluate", "rep_evaluate", "_matrices_at", "matrices"}
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
    for fn in (reductions.disentangler, reductions.heisenberg_reduce, reductions.trinity_check,
               reductions.product_form_check, perspective.conditional_inner_product_check):
        found = [n for n in ast.walk(ast.parse(inspect.getsource(fn))) if isinstance(n, loops)]
        if fn is reductions.product_form_check:
            assert [ast.unparse(n.iter) for n in found] == ["range(0, ps.dim, step)"]
        else:
            assert not found, fn.__name__


def test_wrong_shaped_projectors_raise_the_observable_message(u1_scenario):
    ps = physical_space(u1_scenario)
    kin = ps.basis.basis[:, 0]
    message = "system observable must act on the 6-dim complement of frame 'A'"
    with pytest.raises(ValueError, match=message):
        conditional_probability(ps, "A", [0.0], np.eye(4), kin)
    for event, condition in (((np.eye(4), [0.0]), (np.eye(6), [0.0])), ((np.eye(6), [0.0]), (np.eye(12), [0.0]))):
        with pytest.raises(ValueError, match=message):
            multi_event_probability(ps, "A", event, condition, kin)


@pytest.mark.parametrize("source", ["finite-regular:S3", "u1-8-qubits"])
def test_probability_queries_validate_each_projector_once(source, monkeypatch):
    from qrf import linalg, reductions

    s = _stacked_case(source)
    ps = physical_space(s)
    fname = next(iter(s.frames))
    g = s.frame(fname).rep.identity_element()
    comp = s.complement_dim(fname)
    e = np.diag((np.arange(comp) < comp // 2).astype(float))
    psi = ps.basis.basis[:, 0]
    conditional_probability(ps, fname, g, e, psi)  # warm: labels and twirl indices cached
    calls = []
    exact = linalg.as_cmatrix

    def counting(m):
        calls.append(np.shape(m))
        return exact(m)

    for module in (linalg, reductions, perspective):
        monkeypatch.setattr(module, "as_cmatrix", counting)
    conditional_probability(ps, fname, g, e, psi)
    assert len(calls) == 1
    calls.clear()
    multi_event_probability(ps, fname, (e, g), (np.eye(comp), g), psi)
    assert len(calls) == 2
