import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrf import groups, reps


def test_z4_from_table():
    idx = np.arange(4)
    g = groups.finite_group_from_table((idx[:, None] + idx[None, :]) % 4)
    assert g.order == 4
    assert g.identity_index == 0
    assert g.is_abelian()


def test_s3_nonabelian_detected():
    g = groups.symmetric_3()
    assert g.order == 6
    assert not g.is_abelian()


def test_repeated_row_rejected():
    with pytest.raises(ValueError, match="Latin square"):
        groups.finite_group_from_table([[0, 1], [0, 1]])


def test_nonassociative_rejected():
    # a Latin square with two-sided identity that fails associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        groups.finite_group_from_table(table)


@pytest.mark.parametrize("maker", [lambda: groups.cyclic(7), groups.symmetric_3, groups.dihedral_4, groups.quaternion_8])
def test_builtin_groups_axioms(maker):
    g = maker()
    for a in g.elements():
        assert g.mult(a, g.inverse(a)) == g.identity_index
        assert g.mult(g.inverse(a), a) == g.identity_index


@pytest.mark.parametrize("name", ["symmetric_3", "dihedral_4", "quaternion_8"])
def test_matrix_closures_match_the_permutation_and_quaternion_tables(name):
    import oracles

    g, want = getattr(groups, name)(), getattr(oracles, name)()
    assert np.array_equal(g.product_table, want.product_table)
    assert (g.identity_index, g.generators, g.name) == (want.identity_index, want.generators, want.name)


def test_builtin_group_lookup():
    assert groups.builtin_group("Z6").order == 6
    assert groups.builtin_group("q8").name == "Q8"
    with pytest.raises(ValueError):
        groups.builtin_group("A5")


def test_cosets_z4():
    g = groups.cyclic(4)
    h = groups.Subgroup(parent=g, element_indices=(0, 2))
    cs = groups.cosets(g, h, "left")
    assert sorted(sorted(c) for c in cs) == [[0, 2], [1, 3]]


def test_cosets_trivial_subgroup():
    g = groups.symmetric_3()
    h = groups.Subgroup(parent=g, element_indices=(0,))
    assert len(groups.cosets(g, h, "right")) == 6


def test_cosets_three_cycle_subgroup_s3():
    g = groups.symmetric_3()
    # enumerate a 3-element cyclic subgroup
    for a in g.elements():
        if a != g.identity_index and g.mult(a, g.mult(a, a)) == g.identity_index and g.mult(a, a) != g.identity_index:
            h = groups.Subgroup(parent=g, element_indices=(g.identity_index, a, g.mult(a, a)))
            break
    assert len(groups.cosets(g, h, "left")) == 2


def test_cosets_reject_unclosed():
    g = groups.cyclic(4)
    h = groups.Subgroup(parent=g, element_indices=(0, 1))
    with pytest.raises(ValueError, match="closed"):
        groups.cosets(g, h, "left")


def test_coset_counting_property():
    for maker in (groups.symmetric_3, groups.dihedral_4):
        g = maker()
        for a in g.elements():
            # cyclic subgroup generated by a
            members = {g.identity_index}
            x = a
            while x not in members:
                members.add(x)
                x = g.mult(x, a)
            h = groups.Subgroup(parent=g, element_indices=tuple(sorted(members)))
            assert len(groups.cosets(g, h, "left")) * h.order == g.order


def test_u1_angle_reduction():
    el = groups.lie_element(groups.u1(), [2 * np.pi])
    assert abs(el.coords[0]) < 1e-12
    with pytest.raises(ValueError):
        groups.lie_element(groups.u1(), [np.inf])


def test_su2_identity_and_length():
    el = groups.lie_element(groups.su2(), [0, 0, 0])
    assert el.coords == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        groups.lie_element(groups.su2(), [0.1, 0.2])


def test_su2_half_turn_squares_to_minus_one():
    half = reps.spin_rep(0.5)
    g = groups.lie_element(groups.su2(), [np.pi / 2, 0, 0])
    gg = groups.compose(g, g)
    np.testing.assert_allclose(half.evaluate(gg), -np.eye(2), atol=1e-12)
    # full-turn coordinates evaluate to -1 directly in the double cover
    np.testing.assert_allclose(half.evaluate([np.pi, 0, 0]), -np.eye(2), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-20, max_value=20, allow_nan=False),
    b=st.floats(min_value=-20, max_value=20, allow_nan=False),
)
def test_u1_composition_is_angle_addition(a, b):
    u1 = groups.u1()
    left = groups.compose(groups.lie_element(u1, [a]), groups.lie_element(u1, [b]))
    assert abs(np.exp(1j * left.coords[0]) - np.exp(1j * (a + b))) < 1e-9


@settings(max_examples=25, deadline=None)
@given(data=st.lists(st.floats(min_value=-1.4, max_value=1.4, allow_nan=False), min_size=6, max_size=6))
def test_su2_composition_tracks_spin_half(data):
    su2 = groups.su2()
    half = reps.spin_rep(0.5)
    g = groups.lie_element(su2, data[:3])
    h = groups.lie_element(su2, data[3:])
    gh = groups.compose(g, h)
    np.testing.assert_allclose(
        half.evaluate(gh), half.evaluate(g) @ half.evaluate(h), atol=1e-9
    )


def test_inverse_roundtrip():
    s3 = groups.symmetric_3()
    for a in s3.elements():
        el = groups.FiniteElement(s3, a)
        assert groups.compose(el, groups.inverse(el)).index == s3.identity_index
    su2 = groups.su2()
    g = groups.lie_element(su2, [0.4, -0.2, 0.9])
    back = groups.compose(g, groups.inverse(g))
    assert np.linalg.norm(np.array(back.coords)) < 1e-9


def test_load_group_table_json_and_text(tmp_path):
    idx = np.arange(3)
    table = ((idx[:, None] + idx[None, :]) % 3).tolist()
    jpath = tmp_path / "z3.json"
    jpath.write_text(json.dumps(table))
    assert groups.load_group_table(jpath).order == 3
    tpath = tmp_path / "z3.txt"
    tpath.write_text("\n".join(" ".join(str(x) for x in row) for row in table))
    g = groups.load_group_table(tpath)
    assert g.order == 3 and g.name == "z3"


# ---------------------------------------------------------------------------
# generating sets and Light's associativity test
# ---------------------------------------------------------------------------

_NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _small_groups():
    return [groups.cyclic(n) for n in range(1, 33)] + [
        groups.symmetric_3(), groups.dihedral_4(), groups.quaternion_8()
    ]


def _generated(g):
    """Subgroup generated by g.generators, closed under all pairwise products (oracle)."""
    elems = {g.identity_index, *g.generators}
    while True:
        grown = elems | {g.mult(a, b) for a in elems for b in elems}
        if grown == elems:
            return elems
        elems = grown


def _all_triples_associative(table) -> bool:
    t = np.asarray(table)
    return bool(np.array_equal(t[t, :], t[:, t]))


def test_generators_reach_every_element():
    for g in _small_groups():
        assert _generated(g) == set(g.elements()), g.name
        assert g.identity_index not in g.generators
    assert groups.cyclic(1).generators == ()
    assert len(groups.cyclic(12).generators) == 1
    assert len(groups.symmetric_3().generators) == 2
    assert len(groups.dihedral_4().generators) == 2
    assert len(groups.quaternion_8().generators) == 3


def test_light_test_agrees_with_all_triples():
    for g in _small_groups():
        assert _all_triples_associative(g.product_table)
    assert not _all_triples_associative(_NON_ASSOCIATIVE_LOOP)
    with pytest.raises(ValueError, match="associative"):
        groups.finite_group_from_table(_NON_ASSOCIATIVE_LOOP)
    # every intercalate swap of the order-<=8 tables: Light's verdict equals the oracle's
    checked = rejected = 0
    for g in [groups.cyclic(n) for n in (4, 6, 8)] + [groups.symmetric_3(), groups.dihedral_4(), groups.quaternion_8()]:
        t = g.product_table
        n = g.order
        for r1 in range(n):
            for r2 in range(r1 + 1, n):
                for c1 in range(n):
                    for c2 in range(c1 + 1, n):
                        if t[r1, c1] != t[r2, c2] or t[r1, c2] != t[r2, c1]:
                            continue
                        bad = t.copy()
                        bad[[r1, r1, r2, r2], [c1, c2, c1, c2]] = t[[r1, r1, r2, r2], [c2, c1, c2, c1]]
                        try:
                            groups.finite_group_from_table(bad)
                            accepted = True
                        except ValueError as exc:
                            if "associative" not in str(exc):
                                continue  # rejected earlier (identity or inverses)
                            accepted = False
                        assert accepted == _all_triples_associative(bad), (g.name, r1, r2, c1, c2)
                        checked += 1
                        rejected += not accepted
    assert checked >= 50 and 0 < rejected < checked


def test_light_test_rejects_one_swapped_intercalate_at_order_400():
    n = 400
    idx = np.arange(n)
    t = (idx[:, None] + idx[None, :]) % n
    assert groups.finite_group_from_table(t).generators == (1,)
    # t[3,5] = t[203,205] = 8 and t[3,205] = t[203,5] = 208: swap them
    t[3, 5], t[3, 205], t[203, 5], t[203, 205] = 208, 8, 8, 208
    with pytest.raises(ValueError, match="associative"):
        groups.finite_group_from_table(t)


_Z4 = groups.cyclic(4)


@pytest.mark.parametrize("call, error, match", [
    (lambda: groups.LieDescriptor("U1", 1, ("Z",), np.ones((1, 1, 1))), ValueError, "antisymmetric in the first pair"),
    (lambda: groups.Subgroup(groups.u1(), algebra_basis=((1.0,),)).order, ValueError, "not a finite subgroup"),
    (lambda: groups.compose(groups.FiniteElement(_Z4, 1), groups.FiniteElement(groups.cyclic(4), 1)), ValueError,
     "elements from different groups"),
    (lambda: groups.compose(groups.lie_element(groups.u1(), [0.1]), groups.lie_element(groups.su2(), [0, 0, 0.1])),
     ValueError, "elements from different groups"),
    (lambda: groups.compose(groups.FiniteElement(_Z4, 1), groups.lie_element(groups.u1(), [0.1])), TypeError,
     "cannot compose elements of different kinds"),
    (lambda: groups.inverse(3), TypeError, "not a group element: 3"),
    (lambda: groups.identity_of("Z4"), TypeError, "not a group: 'Z4'"),
    (lambda: groups.finite_group_from_table([[0, 1]]), ValueError, "product table must be square"),
    (lambda: groups.finite_group_from_table([[0, 1], [1, 2]]), ValueError, "table entries must be element indices"),
    (lambda: groups.cosets(_Z4, groups.Subgroup(_Z4, (0, 2)), side="middle"), ValueError,
     "side must be 'left' or 'right'"),
    (lambda: groups.cosets(_Z4, groups.Subgroup(_Z4, algebra_basis=((1.0,),))), ValueError,
     "cosets need a finite subgroup"),
    (lambda: groups.cosets(_Z4, groups.Subgroup(_Z4, (1, 3))), ValueError, "subgroup must contain the identity"),
    (lambda: groups.cosets(_Z4, groups.Subgroup(_Z4, (0, 1, 3))), ValueError, "subgroup not closed under product"),
    (lambda: groups.cyclic(0), ValueError, r"cyclic groups provided for 1 <= n <= 32"),
    (lambda: groups.cyclic(33), ValueError, r"cyclic groups provided for 1 <= n <= 32"),
])
def test_group_inputs_are_checked(call, error, match):
    with pytest.raises(error, match=match):
        call()
