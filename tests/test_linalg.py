import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qrf import groups, reps
from qrf.linalg import (
    ROUNDING_FACTOR,
    Check,
    Tolerance,
    joint_fixed_subspace,
    nullspace,
    orthonormal_range,
)

TOL = Tolerance()


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(-1e-9)
    assert Tolerance().t == 1e-9


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_tolerance_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        Tolerance(bad)


@pytest.mark.parametrize("scale, dim", [(0.0, 1), (1e-3, 1), (1.0, 6), (40.0, 512)])
def test_check_bound_grows_with_the_tolerance_and_never_falls_below_rounding(scale, dim):
    floor = dim * ROUNDING_FACTOR * np.finfo(float).eps * scale
    bounds = [Tolerance(t).bound(scale, dim) for t in (0.0, 1e-16, 1e-13, 1e-9, 1e-6, 1e-3, 1e-1)]
    assert bounds == sorted(bounds)
    assert min(bounds) == floor == Tolerance(0.0).bound(scale, dim)
    assert Tolerance(1e-3).bound(scale, dim) == dim * 1e-3 * (1 + scale)


def test_check_record_passes_at_its_bound_and_reports_it_as_tol():
    tol = Tolerance()
    at, above = tol.check("c", tol.bound(2.0, 3), 2.0, 3), tol.check("c", 2 * tol.bound(2.0, 3), 2.0, 3)
    assert at.passed and not above.passed and not Check("c", float("nan"), 1.0).passed
    assert above.as_dict() == {"name": "c", "residual": above.residual, "tol": tol.bound(2.0, 3), "pass": False}


def test_rank_cut_is_floored_at_rounding_noise():
    # a rank-2 product carries singular values ~1e-16 that a zero tolerance must not count
    rng = np.random.default_rng(3)
    m = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 30))
    zero = Tolerance(0.0)
    assert orthonormal_range(m, zero).dim == 2
    assert nullspace(m, zero).shape[1] == 28


def test_orthonormal_range_zero_matrix():
    sub = orthonormal_range(np.zeros((3, 3)))
    assert sub.dim == 0 and sub.ambient_dim == 3


def test_orthonormal_range_identity():
    sub = orthonormal_range(np.eye(3))
    assert sub.dim == 3
    np.testing.assert_allclose(sub.projector(), np.eye(3), atol=1e-12)


def test_orthonormal_range_rank_one_projector():
    v = np.array([1, 1, 0]) / np.sqrt(2)
    sub = orthonormal_range(np.outer(v, v))
    assert sub.dim == 1
    assert abs(abs(np.vdot(sub.basis[:, 0], v)) - 1) < 1e-12


def test_orthonormal_range_rejects_nonfinite():
    with pytest.raises(ValueError):
        orthonormal_range(np.array([[np.nan, 0], [0, 1]]))


complex_matrices = arrays(
    np.float64,
    (5, 4),
    elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@settings(max_examples=30, deadline=None)
@given(re=complex_matrices, im=complex_matrices)
def test_orthonormal_range_gram_is_identity(re, im):
    sub = orthonormal_range(re + 1j * im)
    gram = sub.basis.conj().T @ sub.basis
    np.testing.assert_allclose(gram, np.eye(sub.dim), atol=1e-9)


def test_joint_fixed_subspace_identity_gives_whole_space():
    sub = joint_fixed_subspace([np.eye(4) - np.eye(4)])
    assert sub.dim == 4


def test_joint_fixed_subspace_without_operators_is_whole_space():
    sub = joint_fixed_subspace(np.zeros((0, 3, 3)))
    assert sub.dim == 3
    np.testing.assert_allclose(sub.projector(), np.eye(3), atol=1e-12)


def test_joint_fixed_subspace_diag_sign():
    sub = joint_fixed_subspace([np.diag([1.0, -1.0]) - np.eye(2)])
    assert sub.dim == 1
    np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [1, 0], atol=1e-12)


def test_joint_fixed_subspace_total_charge_generators():
    total = reps.tensor([reps.u1_rep([1, -1]), reps.u1_rep([1, -1]), reps.u1_rep([2, 0, -2])])
    sub = joint_fixed_subspace(list(total.generators))
    assert sub.dim == 4


def test_joint_fixed_subspace_dimension_mismatch():
    with pytest.raises(ValueError):
        joint_fixed_subspace([np.eye(2), np.eye(3)])


def test_joint_fixed_residual_invariant():
    g = groups.cyclic(4)
    rep = reps.regular_rep(g)
    sub = joint_fixed_subspace(rep.matrices - np.eye(4))
    for m in rep.matrices:
        for k in range(sub.dim):
            assert np.linalg.norm(m @ sub.basis[:, k] - sub.basis[:, k]) <= 10 * TOL.t


def test_equal_on_subspace_twirl_vs_projected_action():
    # Pi A Pi = G(A) Pi holds exactly on the physical subspace under matching measure scales
    g = groups.cyclic(3)
    rep = reps.regular_rep(g)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = 1.0  # regular rep frame weight d/|G| = 1
    pi = w * sum(rep.matrices[k] for k in range(3))
    twirl = w * sum(rep.matrices[k] @ a @ rep.matrices[k].conj().T for k in range(3))
    phys = joint_fixed_subspace(rep.matrices - np.eye(3))
    assert phys.dim == 1
    residual = np.linalg.norm((pi @ a @ pi - twirl @ pi) @ phys.basis, axis=0)
    assert residual.max() <= TOL.weighted(max(np.abs(pi @ a @ pi).max(), np.abs(twirl @ pi).max(), 1.0))
