"""Random-scenario differential tests.

Small configs are drawn over three families: a builtin finite group with
regular and one-dimensional reps, U(1) with charges in [-2, 2], and SU(2)
with spins up to 3/2; 2-4 parties, 1-3 frames, kinematical dimension at
most 256, and tolerances 1e-6, 1e-9 or 1e-12.  A frame seed is uniform, the
identity ket, a random unit vector, a covariant random seed (one that
frame validation accepts), or, for U(1), uniform with one coefficient set
to zero, which gives every conditioning map an all-zero column.

The properties, with every drawn frame attached, valid or not:
- ``cli.run`` either raises ``ConfigError`` or returns a report in which
  every check passes;
- every conditioning map read from the physical basis's row labels equals
  the ``oracles.condition`` contraction bit for bit, and a dense one equals
  it to rounding;
- every conditioning map that is a monomial forms the same products as the
  dense matmuls of ``oracles``, and so does ``frame_change`` on valid frames;
- every relational observable equals ``oracles.dense_relational_observable``;
- on valid frames, ``check_weak_homomorphism`` matches ``oracles.weak_homomorphism``,
  and a frame whose C_e is a monomial has a physical system span of dimension
  n_phys;
- on two valid ideal frames among three or more parties,
  ``relation_conditional_reorient`` matches ``oracles.relation_conditional_reorient``
  in its modified and its unital form.

Tier-1 draws a few derandomised examples; the ``slow`` run draws more.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import condition, dense_frame_change, dense_map_products, dense_relational_observable
from qrf import cli, frames, groups, perspective, reps
from qrf.framechange import frame_change, relation_conditional_reorient
from qrf.linalg import Monomial, dagger, random_hermitian
from qrf.perspective import (
    check_weak_homomorphism,
    conditioning_map,
    physical_space,
    physical_system_span,
    relational_observable,
)

MAX_KIN = 256
FINITE = ("Z2", "Z3", "Z4", "S3", "D4", "Q8")


def _amplitudes(v):
    return [[float(z.real), float(z.imag)] for z in v]


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _covariant_seed(family, rep_spec, group, rng):
    """A random seed that frame validation accepts: U e_e for a random unitary U in the right-regular algebra
    (it commutes with the left action), random phases at uniform weight for U(1), any unit vector for a spin."""
    if family == "finite":
        if not rep_spec.get("regular"):
            return [[1.0, 0.0]]
        right = reps.regular_rep(group, "right").matrices
        h = np.tensordot(rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order), right, axes=1)
        vals, vecs = np.linalg.eigh(h + h.conj().T)
        return _amplitudes((vecs * np.exp(1j * vals)) @ vecs.conj()[group.identity_index])
    d = _dim(group, rep_spec)
    if family == "u1":
        return _amplitudes(np.exp(2j * np.pi * rng.random(d)) / np.sqrt(d))
    return _amplitudes(_unit(rng, d))


def _dim(group, spec):
    if "u1_charges" in spec:
        return len(spec["u1_charges"])
    if "spin_j" in spec:
        return int(round(2 * spec["spin_j"])) + 1
    return group.order if spec.get("regular") else 1


@st.composite
def configs(draw):
    family = draw(st.sampled_from(["finite", "u1", "su2"]))
    parties = draw(st.integers(2, 4))
    group = None
    if family == "finite":
        name = draw(st.sampled_from(FINITE))
        group = groups.builtin_group(name)
        chars = list(groups.characters(group))
        one_dim = st.sampled_from(chars).map(lambda chi: {"matrices": [[_amplitudes([z])] for z in chi]})
        rep = st.one_of(st.just({"regular": True}), one_dim)
        group_spec = {"builtin": name}
    elif family == "u1":
        rep = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(lambda q: {"u1_charges": q})
        group_spec = {"builtin": "u1"}
    else:
        rep = st.sampled_from([0, 0.5, 1, 1.5]).map(lambda j: {"spin_j": j})
        group_spec = {"builtin": "su2"}
    specs = draw(st.lists(rep, min_size=parties, max_size=parties))
    dims = [_dim(group, spec) for spec in specs]
    if math.prod(dims) > MAX_KIN:  # drop parties from the end until the kinematical space fits
        while len(specs) > 2 and math.prod(dims) > MAX_KIN:
            specs, dims = specs[:-1], dims[:-1]
    names = "ABCD"[: len(specs)]
    slots = draw(st.permutations(range(len(specs))))[: draw(st.integers(1, min(3, len(specs))))]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    frames = []
    for slot in slots:
        kind = draw(st.sampled_from(["uniform", "identity_ket", "random", "covariant", "zero"]))
        if kind in ("uniform", "identity_ket"):
            seed = kind
        elif kind == "random":
            seed = _amplitudes(_unit(rng, dims[slot]))
        elif kind == "covariant" or family != "u1" or dims[slot] < 2:
            seed = _covariant_seed(family, specs[slot], group, rng)
        else:
            v = np.ones(dims[slot]) / np.sqrt(dims[slot] - 1)
            v[rng.integers(dims[slot])] = 0.0
            seed = _amplitudes(v)
        frames.append({"name": names[slot], "subsystem": names[slot], "seed": seed})
    return {
        "name": "random",
        "group": group_spec,
        "subsystems": [{"name": n, "rep": spec} for n, spec in zip(names, specs)],
        "frames": frames,
        "tasks": [{"task": "full_report"}],
        "tolerance": draw(st.sampled_from([1e-6, 1e-9, 1e-12])),
    }


# The two faults the first random draws found, kept as named examples.
SU2_WEIGHT_ZERO_WITHOUT_SINGLET = {
    "name": "su2-weight-zero-without-singlet",
    "group": {"builtin": "su2"},
    "subsystems": [{"name": "A", "rep": {"spin_j": 1.5}}, {"name": "B", "rep": {"spin_j": 0.5}}],
    "frames": [{"name": "A", "subsystem": "A", "seed": "uniform"}],
    "tasks": [{"task": "full_report"}],
}
ONE_DIMENSIONAL_SYSTEM = {
    "name": "one-dimensional-system",
    "group": {"builtin": "Z3"},
    "subsystems": [{"name": "A", "rep": {"regular": True}}, {"name": "B", "rep": {"matrices": [[[1]], [[1]], [[1]]]}},
                   {"name": "C", "rep": {"regular": True}}],
    "frames": [{"name": n, "subsystem": n, "seed": "identity_ket"} for n in "AC"],
    "tasks": [{"task": "full_report"}],
}


def _seed_vector(rep, spec):
    if spec == "uniform":
        return np.ones(rep.dim) / np.sqrt(rep.dim)
    if spec == "identity_ket":
        return np.eye(rep.dim)[rep.group.identity_index] if rep.is_finite and rep.dim == rep.group.order else None
    return np.array([complex(*z) for z in spec])


def _orientation(rep, rng):
    if rep.is_finite:
        return rep.element(int(rng.integers(rep.group.order)))
    return rep.element(rng.uniform(-np.pi, np.pi, size=rep.generators.shape[0]))


def _close(got, want, what):
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max(initial=0.0), err_msg=what)


def _unvalidated(bare, raw, rng):
    """The drawn frames, valid or not, attached without validation to a copy of the frameless scenario ``bare``."""
    subsystems = dict(bare.subsystems)
    attached = {}
    for fr in raw["frames"]:
        rep = subsystems[fr["subsystem"]]
        seed = _seed_vector(rep, fr["seed"])
        if seed is not None:
            frame = frames.Frame(fr["name"], rep, seed / np.linalg.norm(seed), float(rep.dim),
                                 groups.Subgroup(parent=rep.group), float("nan"))
            attached[fr["name"]] = (fr["subsystem"], frame)
    return perspective.make_scenario(bare.group, list(bare.subsystems), attached)


def check_config(raw) -> dict:
    """The properties on one config; returns whether it was rejected, how many conditioning maps were read from
    the row labels and how many densely, how many of the label-read ones had an all-zero column, and how many
    homomorphism, monomial-span and relation-conditional comparisons ran."""
    cfg = cli.parse_config(json.dumps(raw))
    try:
        report = cli.run(cfg)
    except cli.ConfigError:
        report = None
    if report is not None:
        assert all("error" not in t for t in report["tasks"]), report["tasks"]
        assert report["summary"]["checks_failed"] == 0, [c for t in report["tasks"] for c in t["checks"]]
    # every seed conditions the physical basis, whether or not it makes a valid frame
    rng = np.random.default_rng(3)
    s = _unvalidated(cli.build_scenario(cli.parse_config(json.dumps({**raw, "frames": []}))), raw, rng)
    ps = physical_space(s, cfg.tol())
    paths = {"rejected": int(report is None), "labels": 0, "dense": 0, "zero_column": 0, "homomorphism": 0,
             "monomial_span": 0, "relation_conditional": 0}
    maps = {}
    for f in s.frames:
        frame = s.frame(f)
        g = _orientation(frame.rep, rng)
        want = np.sqrt(frame.weight_scale) * condition(s, f, frame.orientation(g), ps.basis.basis)
        c = conditioning_map(ps, f, g)
        if isinstance(c, Monomial):  # read from the labels: one term per entry, as in the contraction
            assert np.array_equal(c.dense(), want), f
        else:  # the same contraction by another matmul
            _close(c, want, f"conditioning map of {f}")
        maps[f] = (g, want)
        f_s = rng.standard_normal((want.shape[0],) * 2) + 1j * rng.standard_normal((want.shape[0],) * 2)
        f_s = f_s + dagger(f_s)
        obs = relational_observable(s, f, g, f_s, cfg.tol(), check=False)
        _close(obs.matrix, dense_relational_observable(s, f, g, f_s, cfg.tol()), f"relational observable of {f}")
        if not isinstance(c, Monomial):
            paths["dense"] += 1
            continue
        paths["labels"] += 1
        paths["zero_column"] += int(not np.all(np.any(want, axis=0)))
        m, n = c.shape
        a, x = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in (m, n))
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        dense = dense_map_products(want, a, x, v)
        _close(np.diag(c.gram), dense["round_trip"], "round_trip")
        _close(c.dagger() @ a @ c, dense["sandwich"], "sandwich")
        _close(c @ x @ c.dagger(), dense["scatter"], "scatter")
        _close((c @ c.dagger()).dense(), dense["projector"], "projector")
        _close(c.dagger() @ v, dense["adjoint"], "adjoint")
        _close(c @ x, dense["apply"], "apply")
    if report is not None and ps.dim:  # the drawn frames are valid: every frame change passes its checks
        for f_from, (g_from, c_from) in maps.items():
            for f_to, (g_to, c_to) in maps.items():
                ch = frame_change(ps, f_from, g_from, f_to, g_to, cfg.tol())
                mat, defect = dense_frame_change(c_from, c_to)
                _close(ch.matrix, mat, f"{f_from}->{f_to}")
                assert abs(ch.scale_notes["isometry_defect"] - defect) <= 1e-14
        for f, (g, _) in maps.items():
            a = random_hermitian(rng, s.complement_dim(f))
            b = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)  # non-Hermitian
            fast = check_weak_homomorphism(s, f, g, a, b, cfg.tol())
            slow = oracles.weak_homomorphism(s, f, g, a, b, cfg.tol())
            for kind in ("weak", "strong"):
                for name, value in slow[kind].items():
                    assert abs(fast[kind][name] - value) <= 1e-10 * max(1.0, value), (f, kind, name)
            paths["homomorphism"] += 1
        ideal = [f for f in maps if s.frame(f).rep.is_finite and s.frame(f).dim == s.frame(f).rep.group.order]
        if len(ideal) >= 2 and len(s.subsystems) >= 3:
            (f1, (g1, _)), (f2, (g2, _)) = ((f, maps[f]) for f in ideal[:2])
            obs = relational_observable(s, f1, g1, random_hermitian(rng, s.complement_dim(f1)), cfg.tol())
            for modified in (True, False):
                got = relation_conditional_reorient(s, f1, g1, f2, g2, obs, modified, cfg.tol())
                want = oracles.relation_conditional_reorient(s, f1, g1, f2, g2, obs, modified, cfg.tol())
                _close(got.matrix, want.matrix, f"{f1}->{f2}, modified={modified}")
            paths["relation_conditional"] += 1
    if report is not None:  # a valid frame with a monomial C_e: range(C_e) is invariant, so it is the whole span
        for f in s.frames:
            if isinstance(conditioning_map(ps, f, s.frame(f).rep.identity_element()), Monomial):
                assert physical_system_span(s, f, cfg.tol()).dim == ps.dim, f
                paths["monomial_span"] += 1
    return paths


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(raw=configs())
@example(raw=SU2_WEIGHT_ZERO_WITHOUT_SINGLET)
@example(raw=ONE_DIMENSIONAL_SYSTEM)
def test_random_scenarios_pass_or_are_rejected_and_gathers_match_the_dense_products(raw):
    check_config(raw)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(raw=configs())
def test_random_scenarios_many(raw):
    check_config(raw)


def test_the_draws_reach_both_paths_and_every_outcome():
    # the strategy reaches label-read and dense maps, accepted and rejected frames, zero columns and every oracle
    seen = dict.fromkeys(["rejected", "labels", "dense", "zero_column", "homomorphism", "monomial_span",
                          "relation_conditional"], 0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(raw=configs())
    @example(raw=ONE_DIMENSIONAL_SYSTEM)  # two ideal frames among three parties, which few draws reach
    def tally(raw):
        for key, count in check_config(raw).items():
            seen[key] += count

    tally()
    assert all(seen.values()), seen
