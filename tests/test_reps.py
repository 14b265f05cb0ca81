import itertools
import re

import numpy as np
import pytest

from conftest import ket3, random_hermitian, regular_three_party, rotated_lie_rep
from qrf import frames, groups, perspective, reps
from qrf.linalg import DEFAULT_TOL, Tolerance, dagger, orthonormal_range


def test_rep_evaluate_identity():
    for rep in (reps.spin_rep(1), reps.u1_rep([1, -1]), reps.regular_rep(groups.symmetric_3())):
        ident = rep.identity_element()
        np.testing.assert_allclose(rep.evaluate(ident), np.eye(rep.dim), atol=1e-12)


def test_spin1_z_rotation_is_diagonal_phase():
    rep = reps.spin_rep(1)
    t = 0.731
    np.testing.assert_allclose(
        rep.evaluate([0, 0, t]),
        np.diag([np.exp(2j * t), 1.0, np.exp(-2j * t)]),
        atol=1e-12,
    )


def test_u1_qubit_rep_phases():
    rep = reps.u1_rep([1, -1])
    th = 1.234
    np.testing.assert_allclose(
        rep.evaluate([th]), np.diag([np.exp(1j * th), np.exp(-1j * th)]), atol=1e-12
    )


def test_u1_rep_requires_integer_charges():
    message = re.escape("U1 weight spectrum must be integral, got [ 0.5 -0.5]")
    with pytest.raises(ValueError, match=message):
        reps.u1_rep([0.5, -0.5])
    with pytest.raises(ValueError, match=message):
        reps.lie_rep(groups.u1(), [np.diag([0.5, -0.5])])


def test_u1_reps_are_held_by_their_charges_exactly_when_diagonal_and_integral():
    qubit = reps.u1_rep([1, -1])
    spec = reps.lie_rep(groups.u1(), [[[2, 0, 0], [0, 0, 0], [0, 0, -2]]])
    for rep, charges in ((qubit, [1, -1]), (spec, [2, 0, -2]), (reps.trivial_rep(groups.u1(), 2), [0, 0])):
        assert rep._generators is None and np.array_equal(rep.charges, charges)
    rotated = rotated_lie_rep(qubit, 5)
    near = reps.lie_rep(groups.u1(), [np.diag([1 + 1e-9, -1.0])])
    for dense in (rotated, near, reps.spin_rep(1)):
        assert dense.charges is None and dense._generators is not None
    assert reps.weight_basis(near).weights.tolist() == [1, -1]


def test_charge_held_paths_equal_the_dense_oracles_exactly():
    from oracles import dense_u1_twin

    rep = reps.tensor([reps.u1_rep([1, -1])] * 6 + [reps.u1_rep([2, 0, -2]), reps.u1_rep([3])])
    dense = dense_u1_twin(rep)
    assert np.array_equal(reps.conjugate_rep(rep).generators, reps.conjugate_rep(dense).generators)
    for theta in (0.0, 0.731, -2.9, np.pi):
        assert np.array_equal(rep.evaluate([theta]), dense.evaluate([theta]))
    rng = np.random.default_rng(4)
    v = rng.standard_normal((rep.dim, 3)) + 1j * rng.standard_normal((rep.dim, 3))
    for x in (v, v[:, 0], v.real):
        assert np.array_equal(reps.apply_constraints(rep, x), reps.apply_constraints(dense, x))
    wb, wd = reps.weight_basis(rep), reps.weight_basis(dense)
    assert wb.vectors is None and wd.vectors is None and np.array_equal(wb.weights, wd.weights)
    assert wb.sectors.keys() == wd.sectors.keys()
    assert all(np.array_equal(wb.sectors[w], wd.sectors[w]) for w in wb.sectors)
    assert rep.charges is not None and rep._generators is None


def test_finite_rep_validation_catches_bad_table():
    g = groups.cyclic(2)
    mats = np.stack([np.eye(2, dtype=complex), np.diag([1.0, 0.5]).astype(complex)])
    with pytest.raises(ValueError, match="unitary"):
        reps.finite_rep(g, mats)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reps_reject_non_finite_entries(bad):
    # a NaN fails every comparison of the unitarity, Hermiticity and bracket checks, so each is refused up front
    mats = np.stack([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)])
    mats[1, 0, 1] = bad
    with pytest.raises(ValueError, match="matrix table has non-finite entries"):
        reps.finite_rep(groups.cyclic(2), mats)
    with pytest.raises(ValueError, match="generators have non-finite entries"):
        reps.lie_rep(groups.u1(), [np.diag([bad, 1.0])])
    with pytest.raises(ValueError, match="generators have non-finite entries"):
        reps.u1_rep([bad, 1])


def test_tensor_of_trivial_reps_is_trivial():
    g = groups.cyclic(3)
    t = reps.tensor([reps.trivial_rep(g), reps.trivial_rep(g)])
    for k in range(3):
        np.testing.assert_allclose(t.matrices[k], np.eye(1), atol=1e-12)


def test_tensor_kronecker_sum_spectrum():
    one = reps.spin_rep(1)
    two = reps.tensor([one, one])
    vals = sorted(np.round(np.linalg.eigvalsh(two.generators[2])).astype(int).tolist())
    assert vals == [-4, -2, -2, 0, 0, 0, 2, 2, 4]


def test_total_charge_kernel_is_four_dimensional():
    total = reps.tensor([reps.u1_rep([1, -1]), reps.u1_rep([1, -1]), reps.u1_rep([2, 0, -2])])
    assert reps.fixed_subspace(total).dim == 4


def test_tensor_group_mismatch():
    with pytest.raises(ValueError):
        reps.tensor([reps.spin_rep(1), reps.u1_rep([1, -1])])


def test_conjugate_of_real_rep_is_itself():
    g = groups.symmetric_3()
    reg = reps.regular_rep(g)
    conj = reps.conjugate_rep(reg)
    np.testing.assert_allclose(conj.matrices, reg.matrices, atol=1e-12)


def test_conjugate_u1_flips_charge():
    conj = reps.conjugate_rep(reps.u1_rep([1, -1]))
    np.testing.assert_allclose(np.diag(conj.generators[0]).real, [-1, 1], atol=1e-12)


def test_spin_half_self_dual_intertwiner():
    half = reps.spin_rep(0.5)
    conj = reps.conjugate_rep(half)
    # solve conj(g) M = M half(g) through the generators
    rows = [
        np.kron(cg, np.eye(2)) - np.kron(np.eye(2), hg.T)
        for cg, hg in zip(conj.generators, half.generators)
    ]
    from qrf.linalg import nullspace

    ker = nullspace(np.vstack(rows))
    assert ker.shape[1] == 1
    m = ker[:, 0].reshape(2, 2)
    for coords in ([0.3, 0.1, -0.2], [1.0, 0, 0.4]):
        np.testing.assert_allclose(
            conj.evaluate(coords) @ m, m @ half.evaluate(coords), atol=1e-9
        )


def test_regular_rep_z2():
    g = groups.cyclic(2)
    reg = reps.regular_rep(g)
    np.testing.assert_allclose(reg.matrices[0], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(reg.matrices[1], np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_left_and_right_regular_commute_s3():
    g = groups.symmetric_3()
    left = reps.regular_rep(g, "left")
    right = reps.regular_rep(g, "right")
    for a in g.elements():
        for b in g.elements():
            comm = left.matrices[a] @ right.matrices[b] - right.matrices[b] @ left.matrices[a]
            assert np.linalg.norm(comm) < 1e-12


def test_regular_orbit_is_orthonormal():
    g = groups.dihedral_4()
    reg = reps.regular_rep(g)
    seed = np.zeros(8)
    seed[g.identity_index] = 1.0
    orbit = np.column_stack([reg.matrices[k] @ seed for k in g.elements()])
    np.testing.assert_allclose(orbit.conj().T @ orbit, np.eye(8), atol=1e-12)


def test_finite_homomorphism_property():
    g = groups.quaternion_8()
    reg = reps.regular_rep(g)
    for a in g.elements():
        for b in g.elements():
            np.testing.assert_allclose(
                reg.matrices[a] @ reg.matrices[b], reg.matrices[g.mult(a, b)], atol=1e-12
            )


def test_su2_rep_homomorphism_on_random_pairs():
    rep = reps.spin_rep(1)
    half = reps.spin_rep(0.5)
    su2 = groups.su2()
    rng = np.random.default_rng(2)
    for _ in range(100):
        g = groups.lie_element(su2, rng.uniform(-1.5, 1.5, 3))
        h = groups.lie_element(su2, rng.uniform(-1.5, 1.5, 3))
        gh = groups.compose(g, h)
        np.testing.assert_allclose(
            rep.evaluate(gh), rep.evaluate(g) @ rep.evaluate(h), atol=1e-8
        )
        np.testing.assert_allclose(
            half.evaluate(gh), half.evaluate(g) @ half.evaluate(h), atol=1e-9
        )


# ---------------------------------------------------------------------------
# group averaging
# ---------------------------------------------------------------------------


def test_twirl_fixes_invariant_operand():
    g = groups.symmetric_3()
    reg = reps.regular_rep(g)
    invariant = sum(reg.matrices[k] for k in g.elements()) / 6.0
    out = reps.group_average(reg, invariant, "twirl", 1.0)
    np.testing.assert_allclose(out, invariant, atol=1e-12)


def test_twirl_of_coherent_projector_is_identity():
    # finite ideal frame
    g = groups.cyclic(4)
    reg = reps.regular_rep(g)
    seed = np.zeros(4)
    seed[0] = 1.0
    out = reps.group_average(reg, np.outer(seed, seed), "twirl", measure_scale=4.0)
    np.testing.assert_allclose(out, np.eye(4), atol=1e-12)
    # SU(2) spin-1 frame via commutant projection
    rep1 = reps.spin_rep(1)
    phi = np.ones(3) / np.sqrt(3)
    out = reps.group_average(rep1, np.outer(phi, phi.conj()), "twirl", measure_scale=3.0)
    np.testing.assert_allclose(out, np.eye(3), atol=1e-9)


def test_twirl_matches_bruteforce_sum_z3():
    g = groups.cyclic(3)
    reg = reps.regular_rep(g)
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 3)
    lib = reps.group_average(reg, a, "twirl", measure_scale=3.0)
    oracle = np.zeros((3, 3), dtype=complex)
    for k in range(3):  # frame weight d/|G| = 1 per element
        u = reg.matrices[k]
        oracle = oracle + u @ a @ u.conj().T
    np.testing.assert_allclose(lib, oracle, atol=1e-12)


def test_twirl_commutes_with_rep_and_is_idempotent():
    rng = np.random.default_rng(4)
    for rep in (reps.regular_rep(groups.symmetric_3()), reps.tensor([reps.spin_rep(1), reps.spin_rep(1)])):
        a = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
        t1 = reps.group_average(rep, a, "twirl", 1.0)
        ops = rep.matrices if rep.is_finite else rep.generators
        for op in ops:
            assert np.linalg.norm(op @ t1 - t1 @ op) < 1e-9
        t2 = reps.group_average(rep, t1, "twirl", 1.0)
        np.testing.assert_allclose(t1, t2, atol=1e-10)
        h = random_hermitian(rng, rep.dim)
        th = reps.group_average(rep, h, "twirl", 1.0)
        np.testing.assert_allclose(th, dagger(th), atol=1e-10)


# ---------------------------------------------------------------------------
# permutation tables (fast path) against the dense twirl (oracle)
# ---------------------------------------------------------------------------


def _dense_twirl(rep, a):
    mats = rep.matrices
    return np.mean(mats @ a @ np.conj(np.transpose(mats, (0, 2, 1))), axis=0)


def _s3_two_dim_irrep():
    g = groups.symmetric_3()
    reg = reps.regular_rep(g)
    block = next(b for b in reps.isotypic_decompose(reg).blocks if b.irrep_dim == 2)
    ref = block.grid[:, :, 0]
    return reps.finite_rep(g, np.stack([dagger(ref) @ u @ ref for u in reg.matrices]))


def test_permutation_table_of_regular_reps_and_their_products():
    d4 = groups.builtin_group("D4")
    left, right = reps.regular_rep(d4, "left"), reps.regular_rep(d4, "right")
    for rep in (left, right, reps.tensor([left, right]), reps.tensor([left, left, right])):
        sigma = reps.permutation_table(rep)
        assert sigma is not None and sigma.shape == (d4.order, rep.dim)
        eye = np.eye(rep.dim)
        for g in d4.elements():
            np.testing.assert_array_equal(rep.matrices[g], eye[:, sigma[g]])
        assert reps.permutation_table(rep) is sigma  # cached on the rep


def test_permutation_table_rejects_non_permutation_reps():
    z4 = groups.cyclic(4)
    sign = reps.finite_rep(z4, np.stack([np.diag([1.0, (-1.0) ** k]).astype(complex) for k in range(4)]))
    perturbed = reps.regular_rep(z4).matrices.copy()
    perturbed[1, 0, 0] += 1e-17  # a zero entry of a non-identity element
    for rep in (sign, _s3_two_dim_irrep(), reps.finite_rep(z4, perturbed), reps.spin_rep(1)):
        assert reps.permutation_table(rep) is None


def test_pair_orbit_twirl_matches_dense_twirl():
    d4 = groups.builtin_group("D4")
    rng = np.random.default_rng(42)
    for rep in (
        regular_three_party(groups.symmetric_3()).total_rep,  # dim 216
        reps.tensor([reps.regular_rep(d4, "left"), reps.regular_rep(d4, "right")]),  # dim 64
    ):
        assert reps.permutation_table(rep) is not None
        a = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
        fast = reps.group_average(rep, a, "twirl", 1.0)
        assert np.abs(fast - _dense_twirl(rep, a)).max() <= 1e-12


def test_composed_tables_match_the_kronecker_stack_exactly():
    from oracles import kronecker_stack

    d4, s3 = groups.dihedral_4(), groups.symmetric_3()
    left, right = reps.regular_rep(d4, "left"), reps.regular_rep(d4, "right")
    for factors in ([left, right], [right, left, left], [reps.regular_rep(s3)] * 3, [reps.trivial_rep(d4, 2), left]):
        rep = reps.tensor(factors)
        assert rep._matrices is None  # held as a table until a dense consumer asks
        np.testing.assert_array_equal(rep.matrices, kronecker_stack(factors))
        np.testing.assert_array_equal(reps.conjugate_rep(rep).matrices, rep.matrices)


def test_tensor_with_a_non_permutation_factor_keeps_the_dense_stack():
    from oracles import kronecker_stack

    irrep = _s3_two_dim_irrep()
    reg = reps.regular_rep(irrep.group)
    rep = reps.tensor([reg, irrep])
    assert reps.permutation_table(rep) is None
    np.testing.assert_allclose(rep.matrices, kronecker_stack([reg, irrep]), atol=1e-15)


def test_pair_rule_matches_the_per_kind_tensor_loops():
    from oracles import composed_tables, kronecker_stack, kronecker_sum_generators

    qubit, spin1 = reps.u1_rep([1, -1]), reps.spin_rep(1)
    for factors in (
        [qubit] * 8 + [reps.u1_rep([2, 0, -2])],
        [qubit, rotated_lie_rep(qubit, 3), reps.u1_rep([3])],
        [spin1] * 5,
        [reps.spin_rep(0.5), spin1, reps.spin_rep(1.5)],
        [spin1, rotated_lie_rep(reps.spin_rep(0.5), 3), spin1],
    ):
        assert np.array_equal(reps.tensor(factors).generators, kronecker_sum_generators(factors))
    reg = reps.regular_rep(groups.dihedral_4())
    cube = reps.tensor([reg] * 3)
    assert cube._matrices is None
    assert np.array_equal(reps.permutation_table(cube), composed_tables([reps.permutation_table(reg)] * 3))
    z4 = groups.cyclic(4)
    sign = reps.finite_rep(z4, [[[(-1.0) ** k]] for k in range(4)])
    irrep = _s3_two_dim_irrep()
    for factors in ([sign, reps.regular_rep(z4)], [irrep, irrep]):
        assert np.array_equal(reps.tensor(factors).matrices, kronecker_stack(factors))


def _points_rep():
    """S3 permuting 3 points: a table that does not act freely (each point has a stabiliser of order 2)."""
    import itertools

    from oracles import symmetric_3

    perms = sorted(itertools.permutations(range(3)))
    return reps.finite_rep(symmetric_3(), np.stack([np.eye(3)[:, list(p)] for p in perms]))


def _orbit_cases():
    d4, z4, points = groups.dihedral_4(), groups.cyclic(4), _points_rep()
    return {
        "D4^3": reps.tensor([reps.regular_rep(d4)] * 3),
        "points": points,
        "points^2": reps.tensor([points, points]),
        "points x regular": reps.tensor([points, reps.regular_rep(points.group, "right")]),
        "trivial x D4": reps.tensor([reps.trivial_rep(d4, 2), reps.regular_rep(d4)]),
        **{f"Z{n}^3": reps.tensor([reps.regular_rep(groups.cyclic(n))] * 3) for n in (2, 5, 7)},
        "Z4 left x right": reps.tensor([reps.regular_rep(z4, "left"), reps.regular_rep(z4, "right")]),
    }


def test_index_orbits_and_the_dense_index_match_the_one_pass_image_formula():
    from oracles import index_orbits, pair_orbit_labels

    free, cases = 0, _orbit_cases()
    for name, rep in cases.items():
        sigma, d = reps.permutation_table(rep), rep.dim
        o = reps._index_orbits(rep)
        leaders, t = index_orbits(sigma)
        assert np.array_equal(o.leaders[o.orbit], leaders) and np.array_equal(o.t, t), name
        assert np.array_equal(o.leaders, np.unique(leaders)) and np.array_equal(o.sizes, np.bincount(o.orbit)), name
        assert np.array_equal(np.take_along_axis(o.inverse, sigma, axis=1), np.tile(np.arange(d), (len(sigma), 1)))
        labels, sizes, low = pair_orbit_labels(sigma)
        index = reps._dense_index(rep).reshape(-1)
        # every pair reads the leader row of its orbit at the column of the orbit's smallest pair
        assert np.array_equal(index, o.orbit[low[labels] // d] * d + low[labels] % d), name
        if np.all(o.sizes == rep.group.order):  # a free action: the leader-row flat index is the pair-orbit label
            free += 1
            assert np.array_equal(index, labels) and np.all(sizes == rep.group.order), name
    assert free == 7  # all but the two tables on points alone
    assert np.unique(reps._index_orbits(cases["points^2"]).sizes).size > 1  # orbits of unequal sizes


@pytest.mark.parametrize("case", ["S3^3", "D4^3", "points^2", "points^3"])
def test_leader_rows_answer_as_the_dense_twirl(case):
    # a held operator is its rows at the index-orbit leaders, on a free table (S3^3, D4^3) and on tables whose
    # indices have stabilisers (S3 on three points, tensored): every reader against the dense twirl
    from oracles import pair_orbit_twirl

    points = _points_rep()
    factor, k = {"S3^3": (reps.regular_rep(groups.symmetric_3()), 3), "D4^3": (reps.regular_rep(groups.dihedral_4()), 3),
                 "points^2": (points, 2), "points^3": (points, 3)}[case]
    rep, d = reps.tensor([factor] * k), factor.dim ** k
    o, sigma = reps._index_orbits(rep), reps.permutation_table(rep)
    assert np.all(o.sizes == rep.group.order) == case.startswith(("S3", "D4"))
    rng = np.random.default_rng(63)
    a, b = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2))
    fa, fb = _dense_twirl(rep, a), _dense_twirl(rep, b)
    ha, hb = (reps.OrbitMeans(rep, f[o.leaders]) for f in (fa, fb))

    def close(x, y):
        return np.abs(x - y).max() <= 1e-12 * d

    assert close(reps.group_average(rep, a), fa) and close(pair_orbit_twirl(sigma, a), fa)
    assert close(ha.dense(), fa) and close((ha - hb).dense(), fa - fb)
    for x in (rng.standard_normal(d) + 1j * rng.standard_normal(d), rng.standard_normal((d, 5)) + 0j):
        assert (ha @ x).shape == x.shape and close(ha @ x, fa @ x), x.shape
    basis = reps.fixed_subspace(rep).basis
    assert close(ha.restrict(basis), dagger(basis) @ fa @ basis)
    q = np.arange(d).reshape((factor.dim,) * k).swapaxes(0, 1).reshape(-1)  # swapping two factors commutes with G
    assert close(ha.read(*(q[x] for x in ha.leaders())).dense(), fa[np.ix_(q, q)])
    assert abs(ha.largest_entry() - np.abs(fa).max()) <= 1e-12 * d
    assert abs(ha.norm() - np.linalg.norm(fa)) <= 1e-12 * d


def test_group_average_rejects_bad_inputs():
    rep = reps.regular_rep(groups.cyclic(3))
    with pytest.raises(ValueError, match="measure_scale must be positive"):
        reps.group_average(rep, np.eye(3), measure_scale=0.0)
    with pytest.raises(ValueError, match="unknown mode 'sum'"):
        reps.group_average(rep, np.eye(3), mode="sum")
    with pytest.raises(ValueError, match="operand dimension does not match"):
        reps.group_average(rep, np.eye(4))


def test_regular_reps_read_from_the_product_table_match_their_definition():
    q8 = groups.quaternion_8()
    for side in ("left", "right"):
        rep = reps.regular_rep(q8, side)
        for g in q8.elements():
            for h in q8.elements():
                image = q8.mult(g, h) if side == "left" else q8.mult(h, q8.inverse(g))
                np.testing.assert_array_equal(rep.matrices[g][:, h], np.eye(8)[image])
            np.testing.assert_array_equal(rep.evaluate(g), rep.matrices[g])


def _orbit_basis_reps():
    d4 = groups.dihedral_4()
    totals = [regular_three_party(g).total_rep for g in (groups.symmetric_3(), d4, groups.quaternion_8())]
    return totals + [reps.tensor([reps.regular_rep(d4, "left"), reps.regular_rep(d4, "right")])]


@pytest.mark.parametrize("rep", _orbit_basis_reps(), ids=["S3", "D4", "Q8", "D4-left-right"])
def test_orbit_indicator_basis_matches_the_joint_kernel_oracle(rep):
    from qrf.linalg import canonicalize_basis, joint_fixed_subspace

    fast = reps.fixed_subspace(rep)
    oracle = joint_fixed_subspace(reps.constraints(rep))
    assert fast.dim == oracle.dim
    assert np.abs(fast.projector() - oracle.projector()).max() <= 1e-12
    # Burnside: one column per orbit, the mean number of fixed indices
    sigma = reps.permutation_table(rep)
    assert fast.dim * rep.group.order == np.count_nonzero(sigma == np.arange(rep.dim))
    np.testing.assert_array_equal(canonicalize_basis(fast.basis), fast.basis)
    assert rep._matrices is None  # the orbit basis reads sigma only


def test_apply_constraints_matches_the_dense_constraints():
    rng = np.random.default_rng(12)
    z3, s3 = (regular_three_party(g).total_rep for g in (groups.cyclic(3), groups.symmetric_3()))
    for rep in (z3, s3, _s3_two_dim_irrep(), reps.spin_rep(1)):  # Z3's generator is no involution
        v = rng.standard_normal((rep.dim, 3)) + 1j * rng.standard_normal((rep.dim, 3))
        np.testing.assert_allclose(reps.apply_constraints(rep, v), reps.constraints(rep) @ v, atol=1e-14)
    assert reps.apply_constraints(reps.regular_rep(groups.cyclic(1)), np.ones((1, 2))).shape == (0, 1, 2)


# ---------------------------------------------------------------------------
# isotypic decomposition
# ---------------------------------------------------------------------------


def test_isotypic_spin1_squared():
    deco = reps.isotypic_decompose(reps.tensor([reps.spin_rep(1)] * 2))
    table = {b.label: (b.irrep_dim, b.multiplicity) for b in deco.blocks}
    assert table == {"j=0": (1, 1), "j=1": (3, 1), "j=2": (5, 1)}


def test_isotypic_spin1_cubed_multiplicities():
    deco = reps.isotypic_decompose(reps.tensor([reps.spin_rep(1)] * 3))
    table = {b.label: b.multiplicity for b in deco.blocks}
    assert table == {"j=0": 1, "j=1": 3, "j=2": 2, "j=3": 1}


def test_isotypic_trivial_rep():
    g = groups.cyclic(3)
    deco = reps.isotypic_decompose(reps.trivial_rep(g, dim=4))
    assert len(deco.blocks) == 1
    b = deco.blocks[0]
    assert (b.irrep_dim, b.multiplicity) == (1, 4)


def test_isotypic_clebsch_gordan_counts():
    # block count matches Clebsch-Gordan arithmetic for tensor products of small spins
    for j1, j2 in ((0.5, 0.5), (0.5, 1.0), (1.0, 2.0), (1.5, 1.0)):
        deco = reps.isotypic_decompose(reps.tensor([reps.spin_rep(j1), reps.spin_rep(j2)]))
        expected = [abs(j1 - j2) + k for k in range(int(j1 + j2 - abs(j1 - j2)) + 1)]
        got = sorted(b.irrep_dim for b in deco.blocks)
        assert got == sorted(int(2 * j + 1) for j in expected)
        assert all(b.multiplicity == 1 for b in deco.blocks)


def test_isotypic_blocks_are_invariant_and_aligned():
    rep = reps.tensor([reps.spin_rep(1)] * 3)
    deco = reps.isotypic_decompose(rep)
    assert deco.total_dim() == rep.dim
    su2 = groups.su2()
    g = groups.lie_element(su2, [0.3, -0.7, 0.4])
    u = rep.evaluate(g)
    for block in deco.blocks:
        ref = block.grid[:, :, 0]
        rho = dagger(ref) @ u @ ref
        for m in range(block.multiplicity):
            copy = block.grid[:, :, m]
            np.testing.assert_allclose(u @ copy, copy @ rho, atol=1e-8)


def test_isotypic_finite_regular_squares_of_dims():
    # the regular representation contains each irrep with multiplicity = its dimension
    for g, dims in ((groups.symmetric_3(), [1, 1, 2]), (groups.quaternion_8(), [1, 1, 1, 1, 2])):
        deco = reps.isotypic_decompose(reps.regular_rep(g))
        got = sorted((b.irrep_dim, b.multiplicity) for b in deco.blocks)
        assert got == sorted((d, d) for d in dims)
        assert deco.total_dim() == g.order
        assert deco.seed is not None


def test_isotypic_finite_deterministic():
    rep = reps.regular_rep(groups.dihedral_4())
    d1 = reps.isotypic_decompose(rep, seed=0)
    rep2 = reps.regular_rep(groups.dihedral_4())
    d2 = reps.isotypic_decompose(rep2, seed=0)
    for b1, b2 in zip(d1.blocks, d2.blocks):
        assert b1.label == b2.label
        np.testing.assert_allclose(b1.grid, b2.grid, atol=1e-12)


def test_isotypic_retry_after_a_degenerate_draw_gives_the_same_decomposition(monkeypatch):
    # a first twirl with one eigenvalue leaves a reducible block, so the refinement draws again
    exact, calls = reps._finite_twirl, []

    def degenerate_first(rep, a):
        calls.append(a)
        return np.zeros_like(a) if len(calls) == 1 else exact(rep, a)

    want = reps.isotypic_decompose(reps.regular_rep(groups.symmetric_3()))
    monkeypatch.setattr(reps, "_finite_twirl", degenerate_first)
    got = reps.isotypic_decompose(reps.regular_rep(groups.symmetric_3()))
    assert len(calls) == 2
    assert (got.ambient_dim, got.seed) == (want.ambient_dim, want.seed)
    assert [(b.label, b.irrep_dim, b.multiplicity) for b in got.blocks] == [
        (b.label, b.irrep_dim, b.multiplicity) for b in want.blocks]
    for b_got, b_want in zip(got.blocks, want.blocks):  # the copies depend on the draw, the components do not
        p_got, p_want = (b.basis_matrix() @ dagger(b.basis_matrix()) for b in (b_got, b_want))
        np.testing.assert_allclose(p_got, p_want, atol=1e-10)


def test_u1_isotypic_charge_blocks():
    deco = reps.isotypic_decompose(reps.u1_rep([1, 1, -1]))
    table = {b.label: b.multiplicity for b in deco.blocks}
    assert table == {"q=1": 2, "q=-1": 1}


# ---------------------------------------------------------------------------
# invariant closure
# ---------------------------------------------------------------------------


def test_invariant_closure_of_invariant_vector():
    total = reps.tensor([reps.spin_rep(1)] * 2)
    singlet = (ket3(2, -2) - ket3(0, 0) + ket3(-2, 2)) / np.sqrt(3)
    assert reps.invariant_closure(total, singlet).dim == 1


def test_invariant_closure_three_spin_conditional():
    total = reps.tensor([reps.spin_rep(1)] * 2)
    cond = (
        ket3(-2, 2) - ket3(-2, 0) + ket3(0, -2) - ket3(2, -2) + ket3(2, 0) - ket3(0, 2)
    ) / np.sqrt(6)
    assert reps.invariant_closure(total, cond).dim == 3
    # a matrix start closes the span of its columns: spin 0 plus spin 1
    singlet = (ket3(2, -2) - ket3(0, 0) + ket3(-2, 2)) / np.sqrt(3)
    assert reps.invariant_closure(total, np.column_stack([singlet, cond])).dim == 4


def test_invariant_closure_contains_vector_and_is_invariant():
    rep = reps.regular_rep(groups.symmetric_3())
    rng = np.random.default_rng(5)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    sub = reps.invariant_closure(rep, v)
    assert sub.contains(v / np.linalg.norm(v), Tolerance(1e-8))
    p = sub.projector()
    for m in rep.matrices:
        assert np.linalg.norm(m @ p - p @ m) < 1e-8


def test_invariant_closure_rejects_zero():
    with pytest.raises(ValueError):
        reps.invariant_closure(reps.spin_rep(1), np.zeros(3))
    with pytest.raises(ValueError):
        reps.invariant_closure(reps.spin_rep(1), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# generator constraints against all-element oracles
# ---------------------------------------------------------------------------


def _irrep_three_party():
    """S3 2-dim irrep on three parties, frame on the first: no permutation table."""
    irrep = _s3_two_dim_irrep()
    frame = frames.make_frame(irrep, np.array([1.0, 0.0]), name="R")
    return perspective.make_scenario(
        irrep.group, [("R", irrep), ("A", irrep), ("B", irrep)], {"R": ("R", frame)}
    )


def _constraint_scenarios():
    out = [regular_three_party(g) for g in (groups.symmetric_3(), groups.dihedral_4(), groups.quaternion_8())]
    return out + [_irrep_three_party()]


def test_finite_rep_rejects_table_wrong_only_at_a_non_generator():
    z8 = groups.cyclic(8)
    assert z8.generators == (1,)
    mats = reps.regular_rep(z8).matrices.copy()
    mats[5] = mats[3]  # unitary; 5 is no product of two generators, so only rho(1) rho(4) != rho(5) shows it
    with pytest.raises(ValueError, match="not a homomorphism"):
        reps.finite_rep(z8, mats)


def test_constraints_are_generator_defects_or_lie_generators():
    s3 = groups.symmetric_3()
    reg = reps.regular_rep(s3)
    d = reps.constraints(reg)
    assert d.shape == (len(s3.generators), 6, 6)
    np.testing.assert_array_equal(d, reg.matrices[list(s3.generators)] - np.eye(6))
    spin = reps.spin_rep(1)
    assert reps.constraints(spin) is spin.generators
    assert reps.constraints(reps.regular_rep(groups.cyclic(1))).shape == (0, 1, 1)


def test_fixed_subspace_and_closure_match_all_element_versions():
    rng = np.random.default_rng(5)
    for s in _constraint_scenarios():
        rep = s.total_rep
        all_elements = np.mean(rep.matrices, axis=0)  # projector onto the fixed space
        fixed = reps.fixed_subspace(rep)
        assert np.abs(fixed.projector() - all_elements).max() <= 1e-12
        v = rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)
        orbit = orthonormal_range(np.column_stack([u @ v for u in rep.matrices]))
        closure = reps.invariant_closure(rep, v)
        assert closure.dim == orbit.dim
        assert np.abs(closure.projector() - orbit.projector()).max() <= 1e-12


def test_dirac_defect_and_orientation_independence_match_all_element_versions():
    rng = np.random.default_rng(6)
    verdicts = set()
    for s in _constraint_scenarios():
        rep = s.total_rep
        a = random_hermitian(rng, rep.dim)
        for op in (a, reps.group_average(rep, a, "twirl", 1.0)):
            full = max(float(np.linalg.norm(u @ op - op @ u)) for u in rep.matrices)
            gen = perspective.strong_dirac_defect(s, op)
            # generators are elements; every element is a word of at most |G| generators
            assert full / rep.group.order - 1e-12 <= gen <= full * (1 + 1e-12) + 1e-12
        frame_name = next(iter(s.frames))
        comp = s.complement_rep(frame_name)
        pi_e = perspective.system_projector(s, frame_name, s.frame(frame_name).rep.identity_element())
        thresh = 1e5 * DEFAULT_TOL.weighted(max(1.0, float(np.abs(comp.matrices).max())))
        full = all(float(np.linalg.norm(u @ pi_e - pi_e @ u)) <= thresh for u in comp.matrices)
        assert perspective.orientation_independent(s, frame_name) == full
        verdicts.add(full)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# weight path against the eigh / grid-einsum oracles
# ---------------------------------------------------------------------------


def _weight_test_reps():
    charge = reps.tensor([reps.u1_rep([1, -1]), reps.u1_rep([1, -1]), reps.u1_rep([2, 0, -2])])
    spins = reps.tensor([reps.spin_rep(1), reps.spin_rep(1), reps.spin_rep(0.5), reps.spin_rep(0.5)])
    half = reps.tensor([reps.spin_rep(1), reps.spin_rep(0.5)])  # no invariant vector
    rotated = [rotated_lie_rep(charge, 1), rotated_lie_rep(spins, 2), rotated_lie_rep(reps.spin_rep(1.5), 3)]
    return [charge, spins, half, *rotated]


def test_weight_basis_is_identity_exactly_when_the_cartan_generator_is_diagonal():
    charge, spins, half, rot_charge, rot_spins, _ = _weight_test_reps()
    for plain, rotated in ((charge, rot_charge), (spins, rot_spins)):
        assert reps.weight_basis(plain).vectors is None
        wb = reps.weight_basis(rotated)
        assert wb.vectors is not None
        assert sorted(wb.weights.tolist()) == sorted(reps.weight_basis(plain).weights.tolist())
        h = rotated.generators[-1]
        np.testing.assert_allclose(h @ wb.vectors, wb.vectors * wb.weights, atol=1e-12)
    assert reps.weight_basis(half).weights.tolist() == [3, 1, 1, -1, -1, -3]


def _large_weight_test_reps():
    """U(1) with 9 charge-+-1 qubits (dim 512), SU(2) with five spin-1 parties (243) and nine spin-1/2 (512)."""
    qubits = reps.tensor([reps.u1_rep([1, -1])] * 9)
    spin1 = reps.tensor([reps.spin_rep(1)] * 5)
    half = reps.tensor([reps.spin_rep(0.5)] * 9)
    return [qubits, spin1, half]


def test_weight_twirl_matches_grid_einsum_projection():
    """The block twirl against the commutant projection and the dense mask twirl it replaced."""
    from oracles import commutant_projection, lie_mask_twirl

    rng = np.random.default_rng(21)
    for rep in _weight_test_reps() + _large_weight_test_reps():
        a = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
        fast = reps.group_average(rep, a, "twirl", 1.0)
        assert np.abs(fast - commutant_projection(rep, a)).max() <= 1e-12
        for k in rep.generators:
            assert np.abs(k @ fast - fast @ k).max() <= 1e-12
        wb = reps.weight_basis(rep)
        blocks = reps.lie_twirl(rep, reps.WeightBlocks.of(wb, a), scale=2.5)
        mask = 2.5 * lie_mask_twirl(rep, a)
        if wb.vectors is None:  # the same products in the same order, scaled before or after the scatter
            assert np.array_equal(blocks.dense(), mask)
        assert np.abs(blocks.dense() - mask).max() <= 1e-12
        v = rng.standard_normal((rep.dim, 2)) + 1j * rng.standard_normal((rep.dim, 2))
        assert np.abs(blocks @ v - mask @ v).max() <= 1e-11


def test_weight_isotypic_blocks_match_eigh_ladders():
    from oracles import isotypic

    for rep in _weight_test_reps():
        fast, slow = reps.isotypic_decompose(rep), isotypic(rep)
        assert [(b.label, b.irrep_dim, b.multiplicity) for b in fast.blocks] == [
            (b.label, b.irrep_dim, b.multiplicity) for b in slow.blocks
        ]
        for bf, bs in zip(fast.blocks, slow.blocks):
            pf, ps = bf.basis_matrix() @ dagger(bf.basis_matrix()), bs.basis_matrix() @ dagger(bs.basis_matrix())
            assert np.abs(pf - ps).max() <= 1e-12


def test_weight_physical_projectors_match_sequential_kernels():
    from qrf.linalg import joint_fixed_subspace

    for rep in _weight_test_reps():
        for tol in (DEFAULT_TOL, Tolerance(1e-15)):
            fast, slow = reps.fixed_subspace(rep, tol), joint_fixed_subspace(rep.generators, DEFAULT_TOL)
            assert fast.dim == slow.dim
            assert np.abs(fast.projector() - slow.projector()).max() <= 1e-12
    assert reps.fixed_subspace(_weight_test_reps()[1]).dim == 2  # (0 + 1 + 2) x (0 + 1) holds two singlets


def test_u1_invariant_closure_is_the_sum_of_charge_sector_ranges():
    from oracles import charge_sector_closure, invariant_closure

    rng = np.random.default_rng(22)
    for rep in _weight_test_reps():
        if rep.group.kind != "U1":
            continue
        for cols in (1, 3):
            v = rng.standard_normal((rep.dim, cols)) * (rng.random((rep.dim, 1)) < 0.4)
            fast, slow = reps.invariant_closure(rep, v), invariant_closure(rep, v)
            sectors = charge_sector_closure(rep, v)
            assert fast.dim == slow.dim == sectors.dim
            assert np.abs(fast.projector() - slow.projector()).max() <= 1e-12
            assert np.abs(fast.projector() - sectors.projector()).max() <= 1e-12


def test_rep_evaluate_matches_scipy_expm():
    import scipy.linalg

    rng = np.random.default_rng(23)
    for rep in _weight_test_reps() + [reps.spin_rep(2)]:
        for _ in range(3):
            coords = rng.uniform(-2.0, 2.0, size=rep.group.algebra_dim)
            k = sum(c * g for c, g in zip(coords, rep.generators))
            assert np.abs(rep.evaluate(coords) - scipy.linalg.expm(1j * k)).max() <= 1e-12


def test_importing_the_cli_leaves_scipy_linalg_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, qrf.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_character_norm_equals_kronecker_commutant_dimension():
    from oracles import commutant_dim

    for group, total in ((groups.symmetric_3(), 6), (groups.dihedral_4(), 8), (groups.quaternion_8(), 8)):
        reg = reps.regular_rep(group)
        blocks = reps.isotypic_decompose(reg).blocks
        subspaces = [np.eye(group.order)]  # reducible: sum d^2 = |G|
        subspaces += [b.basis_matrix() for b in blocks]  # isotypic: m^2
        subspaces += [b.grid[:, :, 0] for b in blocks]  # irreducible: 1
        subspaces.append(np.hstack([blocks[0].basis_matrix(), blocks[-1].basis_matrix()]))  # two inequivalent blocks
        dims = []
        for basis in subspaces:
            restricted = dagger(basis) @ reg.matrices @ basis
            dims.append(reps._commutant_dim(restricted))
            assert dims[-1] == commutant_dim(list(restricted))
        assert dims[0] == total
        assert dims[len(blocks) + 1:2 * len(blocks) + 1] == [1] * len(blocks)
        assert dims[-1] == blocks[0].multiplicity ** 2 + blocks[-1].multiplicity ** 2


def _su2_generators(*weights):
    """SU(2) generators that the constructors would reject: zero J_x and J_y beside a diagonal J_z."""
    z = np.diag(np.asarray(weights, dtype=complex))
    return np.stack([np.zeros_like(z), np.zeros_like(z), z])


_Z2, _PAULI = groups.cyclic(2), groups.PAULI


@pytest.mark.parametrize("call, match", [
    (lambda: reps.finite_rep(_Z2, np.eye(2)), "need one square matrix per group element"),
    (lambda: reps.finite_rep(_Z2, [np.diag([-1, 1]), np.eye(2)]), "identity element must map to the identity matrix"),
    (lambda: reps.lie_rep(groups.su2(), [_PAULI["Z"]]), "need one square generator per algebra basis element"),
    (lambda: reps.lie_rep(groups.u1(), [[[0, 1], [0, 0]]]), "generator 0 is not Hermitian"),
    (lambda: reps.lie_rep(groups.su2(), [_PAULI["X"], _PAULI["Y"], _PAULI["X"]]),
     re.escape("bracket relation violated for generators (0, 1)")),
    (lambda: reps.u1_rep([]), "need a non-empty list of charges"),
    (lambda: reps.u1_rep([[1, 0], [0, -1]]), "need a non-empty list of charges"),
    (lambda: reps.spin_rep(-1), "spin must be a non-negative half-integer"),
    (lambda: reps.spin_rep(0.3), "spin must be a non-negative half-integer"),
    (lambda: reps.regular_rep(_Z2, "middle"), "side must be 'left' or 'right'"),
    (lambda: reps.regular_rep(_Z2).evaluate(groups.FiniteElement(groups.cyclic(2), 1)),
     "element does not belong to this representation's group"),
    (lambda: reps.u1_rep([1, -1]).evaluate(groups.lie_element(groups.su2(), [0, 0, 0.1])),
     "element does not belong to this representation's group"),
    (lambda: reps.tensor([]), "need at least one representation"),
    (lambda: reps.tensor([reps.regular_rep(_Z2), reps.u1_rep([1, -1])]), "cannot mix finite and Lie representations"),
    (lambda: reps.invariant_closure(reps.regular_rep(_Z2), np.zeros(2)), "need a nonzero vector"),
    (lambda: reps.invariant_closure(reps.u1_rep([1, -1]), np.zeros(2)), "need a nonzero vector"),
    # inconsistent SU(2) generators, which ``lie_rep`` would refuse, reach the ladder construction's own checks
    (lambda: reps.isotypic_decompose(reps.UnitaryRep(groups.su2(), 3, generators=_su2_generators(2, 0, -2))),
     "ladder terminated early; generators inconsistent"),
    (lambda: reps.isotypic_decompose(reps.UnitaryRep(groups.su2(), 1, generators=_su2_generators(-2))),
     re.escape("isotypic decomposition incomplete: 0 of 1 dimensions")),
])
def test_rep_inputs_and_consistency_are_checked(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_finite_isotypic_refinement_stops_after_its_retries(monkeypatch):
    calls = []
    monkeypatch.setattr(reps, "_commutant_dim", lambda mats: calls.append(1) or 2)  # no block ever certifies
    with pytest.raises(ValueError, match=re.escape("did not converge; achieved commutant dims [2]")):
        reps.isotypic_decompose(reps.regular_rep(groups.cyclic(3)))
    assert len(calls) == 8  # one uncertified block per retry


def test_u1_rep_holds_its_charges_without_a_generator():
    import tracemalloc

    charges = np.resize([1, -1, 2, 0], 2048)
    tracemalloc.start()
    try:
        rep = reps.u1_rep(charges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a dense 2048 x 2048 generator would be 64 MiB
    assert rep._generators is None and np.array_equal(rep.charges, charges)
    assert np.array_equal(rep.generators[0], np.diag(charges.astype(complex)))  # built only when asked for


def test_lr_classify_builds_no_dense_stack_of_a_table_held_frame():
    # the isotypic blocks restrict the rep by gathers of its table, so the frame rep stays held by its table alone
    z16 = groups.cyclic(16)
    rep = reps.regular_rep(z16)
    frame = frames.make_frame(rep, np.eye(16)[0], name="R")
    v_rep, report = frames.lr_classify(frame)
    assert v_rep is not None and report["lr_exists"] and len(report["blocks"]) == 16
    assert rep._matrices is None


def _restrictions(monkeypatch, rep):
    """Each (basis, restricted stack) pair that ``_finite_isotypic`` forms, in order, with the blocks it returns."""
    bases, stacks = [], []
    basis_of, commutant_of = reps.canonicalize_basis, reps._commutant_dim
    monkeypatch.setattr(reps, "canonicalize_basis", lambda b, tol: bases.append(basis_of(b, tol)) or bases[-1])
    monkeypatch.setattr(reps, "_commutant_dim", lambda mats: stacks.append(mats) or commutant_of(mats))
    deco = reps._finite_isotypic(rep, DEFAULT_TOL, 0)
    monkeypatch.undo()
    return list(zip(bases, stacks)), deco


@pytest.mark.parametrize("group", [groups.symmetric_3(), groups.dihedral_4(), groups.quaternion_8()],
                         ids=["S3", "D4", "Q8"])
def test_finite_isotypic_restricts_by_the_table_as_the_dense_stack(group, monkeypatch):
    # on a table the restricted matrices B^dag U_g B are gathers B^dag[:, sigma_g] times B, bit for bit the dense
    # stack's (B^dag U_g) B, so the blocks and the lr report are the dense product's
    rep = reps.regular_rep(group)
    dense = reps._permutation_matrices(reps.permutation_table(rep))
    pairs, deco = _restrictions(monkeypatch, rep)
    assert pairs and rep._matrices is None
    for basis, restricted in pairs:
        assert np.array_equal(restricted, dagger(basis) @ dense @ basis)
    frame = frames.make_frame(rep, np.eye(group.order)[0], name="R")
    _, report = frames.lr_classify(frame)
    assert [(b["irrep_dim"], b["multiplicity"]) for b in report["blocks"]] == [
        (b.irrep_dim, b.multiplicity) for b in deco.blocks]
    assert rep._matrices is None


def test_finite_isotypic_keeps_the_dense_product_without_a_table(monkeypatch):
    # the 2-dim irrep of S3 (and its square) has no permutation table: B^dag U_g B stays the dense stack's product
    s3 = groups.symmetric_3()
    perm = np.stack([np.eye(3)[:, p] for p in sorted(itertools.permutations(range(3)))])
    q = np.linalg.qr(np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T)[0]
    irrep = reps.finite_rep(s3, (q.T @ perm @ q).astype(complex))
    square = reps.tensor([irrep, irrep])
    assert reps.permutation_table(irrep) is None and reps.permutation_table(square) is None
    for rep, dims in ((irrep, [(2, 1)]), (square, [(1, 1), (1, 1), (2, 1)])):
        pairs, deco = _restrictions(monkeypatch, rep)
        for basis, restricted in pairs:
            assert np.array_equal(restricted, dagger(basis) @ rep.matrices @ basis)
        assert [(b.irrep_dim, b.multiplicity) for b in deco.blocks] == dims


def _act_forms():
    """One rep of each form ``_act`` tells apart, with a few of its elements."""
    s3, z2, z4 = groups.symmetric_3(), groups.cyclic(2), groups.cyclic(4)
    z2_sign = reps.finite_rep(z2, np.stack([np.eye(2), np.diag([1.0, -1.0])]))  # |G| = dim: a stack looks square
    z4_phase = reps.finite_rep(z4, np.stack([np.diag([1j ** k, (-1j) ** k]) for k in range(4)]))
    rotated = rotated_lie_rep(reps.u1_rep([1, -1, 2]), 3)
    cases = [reps.regular_rep(s3), z2_sign, z4_phase, reps.u1_rep([2, 0, -2]), reps.spin_rep(1), rotated]
    return [(rep, perspective.sample_elements(rep.group, 5)) for rep in cases]


@pytest.mark.parametrize("k", range(6))
def test_act_matches_the_dense_element_matrices_for_every_rep_form(k):
    # a table scatter, a non-table finite rep (with |G| = dim too), charges, and generators: U_g v_g on a stack of
    # vectors or matrices, one v broadcast, and U_g^dag at the inverse elements
    from oracles import dense_element

    rep, elements = _act_forms()[k]
    rng = np.random.default_rng(70 + k)
    n, d = len(elements), rep.dim
    if rep.is_finite:
        assert (reps.permutation_table(rep) is not None) == (k == 0)
    mats = np.stack([dense_element(rep, g) for g in elements])
    for shape in ((n, d), (n, d, 2), (1, d), (1, d, 2)):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = mats @ (v if v.ndim == 3 else v[..., None])
        got = reps._act(rep, elements, v)
        assert got.shape == (n,) + shape[1:]
        assert np.abs(got - want.reshape(got.shape)).max() <= 1e-13
        adjoint = np.conj(mats.transpose(0, 2, 1)) @ (v if v.ndim == 3 else v[..., None])
        assert np.abs(reps._act(rep, reps._inverses(rep, elements), v) - adjoint.reshape(got.shape)).max() <= 1e-13


def _dense_twin(rep):
    """A factor-held SU(2) total held instead by its dense Kronecker-sum generators, the oracle path."""
    from oracles import kronecker_sum_generators

    return reps.UnitaryRep(rep.group, rep.dim, generators=kronecker_sum_generators(list(rep.factors)))


@pytest.mark.parametrize("spins", [(0.5, 1, 1.5), (1,) * 5])
def test_factor_held_su2_total_equals_its_dense_kronecker_sum(spins, monkeypatch):
    # the weights, the J_+ blocks between weight sectors, the ladders, K v, the element matrices and the conjugate
    # of a factor-held total agree with the dense Kronecker-sum path; the weights and ladder blocks are bit-equal
    import scipy.linalg

    factors = [reps.spin_rep(j) for j in spins]
    rep = reps.tensor(factors)
    assert rep.factors == tuple(factors) and rep._generators is None
    dense = _dense_twin(rep)
    wb, wd = reps.weight_basis(rep), reps.weight_basis(dense)
    assert wb.vectors is None and wd.vectors is None and np.array_equal(wb.weights, wd.weights)
    held, want = reps._raising_blocks(rep, wb), reps._raising_blocks(dense, wd)
    assert held.keys() == want.keys() and all(np.array_equal(held[w], want[w]) for w in want)
    for (top, slots), (top_d, slots_d) in zip(reps._ladders(rep, DEFAULT_TOL), reps._ladders(dense, DEFAULT_TOL),
                                              strict=True):
        assert top == top_d and all(np.array_equal(v, u) for v, u in zip(slots, slots_d, strict=True))
    rng = np.random.default_rng(83)
    v = rng.standard_normal((rep.dim, 3)) + 1j * rng.standard_normal((rep.dim, 3))
    np.testing.assert_allclose(reps.apply_constraints(rep, v), dense.generators @ v, rtol=0, atol=1e-13)
    np.testing.assert_allclose(reps.apply_constraints(rep, v[:, 0]), dense.generators @ v[:, 0], rtol=0, atol=1e-13)
    elements = [groups.lie_element(groups.su2(), c) for c in rng.uniform(-2, 2, size=(3, 3))]
    for g in elements:
        u = scipy.linalg.expm(1j * sum(c * k for c, k in zip(g.coords, dense.generators)))
        np.testing.assert_allclose(reps.rep_evaluate(rep, g), u, rtol=0, atol=1e-12)
    stack = reps._act(rep, elements, v[None])
    np.testing.assert_allclose(stack, np.stack([reps.rep_evaluate(dense, g) @ v for g in elements]), rtol=0, atol=1e-12)
    conj = reps.conjugate_rep(rep)
    assert conj.factors is not None and np.array_equal(conj.generators, reps.conjugate_rep(dense).generators)
    monkeypatch.setattr(reps, "_kronecker_sum", lambda factors: pytest.fail("dense generators built"))
    reps.fixed_subspace(reps.tensor(factors))  # the ladders, from the factors alone


@pytest.mark.parametrize("spins", [(0.5, 1, 1.5), (1,) * 5])
def test_factor_held_strong_dirac_defect_equals_the_dense_commutators(spins, monkeypatch):
    from oracles import strong_dirac_defect

    subsystems = [(f"S{k}", reps.spin_rep(j)) for k, j in enumerate(spins)]
    s = perspective.make_scenario(groups.su2(), subsystems)
    assert s.total_rep.factors is not None
    rng = np.random.default_rng(87)
    a = rng.standard_normal((s.kin_dim,) * 2) + 1j * rng.standard_normal((s.kin_dim,) * 2)
    ops = (a, reps.group_average(s.total_rep, a, "twirl", 1.0))
    with monkeypatch.context() as m:
        m.setattr(reps, "_kronecker_sum", lambda factors: pytest.fail("dense generators built"))
        held = [perspective.strong_dirac_defect(s, op) for op in ops]
    for op, got in zip(ops, held):
        want = strong_dirac_defect(s, op)
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert held[1] <= 1e-11
    # weight blocks read their ladder commutators between adjacent sectors, with no dense operator
    wb = reps.weight_basis(s.total_rep)
    blocks = (reps.WeightBlocks.of(wb, a), reps.lie_twirl(s.total_rep, reps.WeightBlocks.of(wb, a)))
    dense = [op.dense() for op in blocks]
    with monkeypatch.context() as m:
        m.setattr(reps.WeightBlocks, "dense", lambda self: pytest.fail("weight blocks densified"))
        m.setattr(reps, "_kronecker_sum", lambda factors: pytest.fail("dense generators built"))
        held = [perspective.strong_dirac_defect(s, op) for op in blocks]
        checks = [perspective.dirac_check(s, op) for op in blocks]
    for op, got, check in zip(dense, held, checks):
        want = strong_dirac_defect(s, op)
        assert abs(got - want) <= 1e-12 * max(1.0, want) and check.residual == got
        assert check.bound == perspective.dirac_check(s, op).bound
    assert held[0] > 1.0 and held[1] <= 1e-11 and not checks[0].passed and checks[1].passed


def test_rotated_su2_factors_keep_the_dense_path():
    half, spin1 = reps.spin_rep(0.5), reps.spin_rep(1)
    rotated = rotated_lie_rep(half, 5)
    for factors in ([spin1, rotated], [rotated, spin1], [spin1, rotated, spin1], [rotated, rotated]):
        rep = reps.tensor(factors)
        assert rep.factors is None and rep._generators is not None
    assert reps.tensor([half, spin1]).factors == (half, spin1)
    assert reps.tensor([reps.tensor([half, spin1]), spin1]).factors == (half, spin1, spin1)
    assert reps.tensor([reps.u1_rep([1, -1])] * 2).factors is None  # a U(1) total is held by its charges


def test_batched_exponentials_equal_the_per_element_eigh():
    # one batched eigh over the stacked sum_a c_a K_a, with each exactly diagonal sum exponentiated entrywise, is
    # bit-equal to the per-element exponential
    def one(rep, coords):
        k = sum(c * rep.generators[a] for a, c in enumerate(coords))
        if np.count_nonzero(k) == np.count_nonzero(np.diagonal(k)):
            return np.diag(np.exp(1j * np.diagonal(k)))
        vals, vecs = np.linalg.eigh(k)
        return (vecs * np.exp(1j * vals)) @ dagger(vecs)

    rng = np.random.default_rng(89)
    for rep in (reps.spin_rep(0.5), reps.spin_rep(1), rotated_lie_rep(reps.spin_rep(1), 7)):
        at = rng.uniform(-2, 2, size=(8, 3))
        at[2] = [0.0, 0.0, 0.7]  # an exactly diagonal sum on the spin reps
        at[5] = 0.0
        got = reps._exponentials(rep, at)
        assert all(np.array_equal(u, one(rep, c)) for u, c in zip(got, at, strict=True))
        v = rng.standard_normal((rep.dim, 2)) + 1j * rng.standard_normal((rep.dim, 2))
        assert np.array_equal(reps._act(rep, at, v[None]), got @ v)
