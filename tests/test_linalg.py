import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qrf import groups, reps
from oracles import dense_map_products, monomial_of
from qrf.linalg import (
    ROUNDING_FACTOR,
    Check,
    Monomial,
    RowLabels,
    Subspace,
    Tolerance,
    as_cmatrix,
    as_cvector,
    dagger,
    fix_phase,
    joint_fixed_subspace,
    nullspace,
    orthonormal_range,
    random_hermitian,
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


@st.composite
def monomial_matrices(draw, real=False):
    """A matrix with at most one nonzero per row and per column, possibly with all-zero rows and columns."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.permutations(range(m)))[: min(m, n)]
    cols = draw(st.permutations(range(n)))[: len(rows)]
    keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    part = st.floats(-2, 2, allow_nan=False).filter(lambda x: x != 0)
    out = np.zeros((m, n), dtype=complex)
    for r, c, k in zip(rows, cols, keep):
        if k:
            out[r, c] = complex(draw(part), 0.0 if real else draw(part))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(c=monomial_matrices(), seed=st.integers(0, 2**16))
def test_monomial_products_match_the_dense_products(c, seed):
    mono = monomial_of(c)
    assert np.array_equal(mono.dense(), c)
    rng = np.random.default_rng(seed)
    m, n = c.shape
    a, x = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in (m, n))
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    want = dense_map_products(c, a, x, v)
    got = {
        "round_trip": np.diag(mono.gram),
        "sandwich": dagger(mono) @ a @ mono,
        "scatter": mono @ x @ dagger(mono),
        "projector": (mono @ dagger(mono)).dense(),
        "adjoint": dagger(mono) @ v,
        "apply": mono @ x,
    }
    for key, dense in want.items():
        assert got[key].shape == dense.shape, key
        np.testing.assert_allclose(got[key], dense, rtol=1e-14, atol=1e-14 * np.abs(dense).max(initial=0.0), err_msg=key)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(c=monomial_matrices(real=True), seed=st.integers(0, 2**16))
def test_monomial_products_with_real_weights_are_bit_equal(c, seed):
    # each entry of a dense product has one nonzero term, and with real weights no fused multiply-add rounds it
    mono = monomial_of(c)
    rng = np.random.default_rng(seed)
    m, n = c.shape
    a, x = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in (m, n))
    want = dense_map_products(c, a, x, np.zeros(m))
    assert np.array_equal(dagger(mono) @ a @ mono, want["sandwich"])
    assert np.array_equal(mono @ x @ dagger(mono), want["scatter"])
    assert np.array_equal((mono @ dagger(mono)).dense(), want["projector"])
    assert np.array_equal(np.diag(mono.gram), want["round_trip"])


def test_monomial_product_of_two_monomials_is_the_dense_product():
    ci = np.zeros((4, 3), dtype=complex)
    ci[[2, 0, 3], [0, 1, 2]] = [1j, -2.0, 0.5]
    cj = np.zeros((5, 3), dtype=complex)
    cj[[4, 1], [0, 2]] = [3.0, 1 - 1j]  # column 1 of C_j is zero
    got = monomial_of(cj) @ dagger(monomial_of(ci))
    assert isinstance(got, Monomial) and got.shape == (5, 4)
    np.testing.assert_array_equal(got.dense(), cj @ dagger(ci))


@pytest.mark.parametrize("entries", [[(0, 0), (0, 1)], [(0, 0), (1, 0)]])
def test_two_nonzeros_in_a_row_or_column_are_not_a_monomial(entries):
    m = np.zeros((3, 3))
    for rc in entries:
        m[rc] = 1.0
    assert monomial_of(m) is None


def test_linalg_input_gates_and_phase_fixing_edge_cases():
    with pytest.raises(ValueError, match=r"expected a matrix, got array of shape \(3,\)"):
        as_cmatrix(np.zeros(3))
    with pytest.raises(ValueError, match="vector has non-finite entries"):
        as_cvector([1.0, np.nan])
    with pytest.raises(ValueError, match="basis rows do not match ambient dimension"):
        Subspace(3, np.zeros((2, 0)))
    with pytest.raises(ValueError, match="basis is not orthonormal"):
        Subspace(2, np.ones((2, 1)))
    with pytest.raises(ValueError, match="operators must be square and of equal dimension"):
        joint_fixed_subspace(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="operators have non-finite entries"):
        joint_fixed_subspace([[[np.inf]]])
    zero = np.zeros(2, dtype=complex)
    assert np.array_equal(fix_phase(zero), zero) and fix_phase(zero) is not zero
    # no entry exceeds tol.weighted(top) = 2 at t = 1, so the pivot is entry 0, which is zero: the phase stays
    v = np.array([0.0, 1j])
    assert np.array_equal(fix_phase(v, Tolerance(1.0)), v)


def test_random_hermitian_keeps_the_bits_layout_and_stream_of_the_plain_formula():
    # filled in place and summed in the conjugate transpose's copy: the same draw, in C order, and the generator's
    # next draw unchanged
    dims = [*range(1, 17), 31, 64, 100, 255, 256, 512]
    for seed in range(5):
        ours, plain = np.random.default_rng(seed), np.random.default_rng(seed)
        for dim in dims:
            got = random_hermitian(ours, dim)
            h = plain.standard_normal((dim, dim)) + 1j * plain.standard_normal((dim, dim))
            want = (h + np.conj(h).T) / 2.0
            assert np.array_equal(got, want) and got.flags.c_contiguous, (seed, dim)
        assert ours.standard_normal() == plain.standard_normal()


def test_row_labels_read_as_their_dense_basis():
    # columns meeting no row twice, of unequal sizes, one of them complex: every read equals the dense basis's
    rng = np.random.default_rng(3)
    rows, cols = rng.permutation(12)[:9], np.array([0, 1, 1, 2, 2, 2, 3, 3, 3])
    vals = np.concatenate([[1j], np.full(2, 2**-0.5), np.full(3, 3**-0.5), np.array([1, 1j, -1]) / np.sqrt(3)])
    labels = RowLabels(12, rows, cols, vals, 4)
    dense = np.zeros((12, 4), dtype=complex)
    dense[rows, cols] = vals
    assert np.array_equal(labels.basis, dense) and labels.basis is labels.basis
    assert np.array_equal(labels.projector(), Subspace(12, dense).projector())
    assert np.array_equal(labels.columns(1, 3), dense[:, 1:3]) and labels.columns(3, 9).shape == (12, 1)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12))
    np.testing.assert_allclose(labels @ c, dense @ c, rtol=0, atol=1e-15)
    np.testing.assert_allclose(x @ labels, x @ dense, rtol=0, atol=1e-14)
    np.testing.assert_allclose(x[0] @ labels, x[0] @ dense, rtol=0, atol=1e-14)
    at = np.array([rows[3], 11 if 11 not in rows else rows[0], rows[8]])
    assert np.array_equal(labels[at], dense[at])
    coords = RowLabels.coordinates(6, np.array([1, 4]))
    assert np.array_equal(coords.basis, np.eye(6)[:, [1, 4]])
    assert RowLabels.coordinates(3, np.zeros(0, dtype=int)).basis.shape == (3, 0)


@pytest.mark.parametrize("rows, vals", [([0, 1], [1.0, 0.5]), ([2, 2], [1.0, 1.0])])
def test_row_labels_gate_their_orthonormality(rows, vals):
    # a column of norm other than 1, or a row met by two columns, is not an orthonormal basis held by its labels
    with pytest.raises(ValueError, match="basis is not orthonormal"):
        RowLabels(4, np.array(rows), np.array([0, 1]), np.array(vals, dtype=complex), 2)
