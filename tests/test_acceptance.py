"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Criterion 3 checks effect (ii) of the paper on the SU(2) four-spin-1
scenario (frame A, complement W = B x C x D): the frame has no symmetries,
so its per-orientation system space rotates through W.  Physical states are
the invariants of V_1 x W, which pair the frame's V_1 with W's spin-1
isotypic block (Hom_G(V_1*, W) with V_1* = V_1).  The orientation span is
therefore that block (three copies of V_1, dimension 9, against 3 at one
orientation), and conditional states have no support on j = 0, 2 or 3.
The block is taken from the complement's Casimir eigenspace, independently
of the isotypic decomposition under test.
"""

import numpy as np
import pytest

from conftest import ket3, random_hermitian, regular_three_party, u1_basis_index
from oracles import reproducing_residual
from qrf import cli, frames, framechange, groups, perspective, reductions, reps
from qrf.frames import ResolutionFails
from qrf.linalg import dagger
from qrf.perspective import (
    check_weak_homomorphism,
    conditional_inner_product_check,
    orientation_independent,
    physical_space,
    physical_system_span,
    relational_observable,
    sample_elements,
    system_projector,
)
from qrf.reductions import (
    ThetaState,
    heisenberg_reduce,
    schrodinger_reduce,
    solve_theta,
)

TRIALS = 50


class Clauses:
    def __init__(self, criterion):
        self.criterion = criterion
        self.results = []

    def check(self, label, ok, detail=""):
        self.results.append((label, bool(ok), detail))

    def finish(self):
        ok = all(r[1] for r in self.results)
        print(f"[acceptance] criterion {self.criterion}: {'PASS' if ok else 'FAIL'}")
        for label, good, detail in self.results:
            mark = "ok " if good else "FAIL"
            print(f"    [{mark}] {label}" + (f" ({detail})" if detail else ""))
        assert ok, f"criterion {self.criterion} clauses failed: " + "; ".join(
            f"{label}: {detail}" for label, good, detail in self.results if not good
        )


def product_residual(op, d_left, d_right):
    """Operator-Schmidt residual: 0 iff op factorizes as A x B across the cut."""
    t = op.reshape(d_left, d_right, d_left, d_right).transpose(0, 2, 1, 3)
    sv = np.linalg.svd(t.reshape(d_left * d_left, d_right * d_right), compute_uv=False)
    total = float(np.sum(sv**2))
    return float(np.sqrt(max(total - sv[0] ** 2, 0.0) / total))


def test_criterion_1_u1_example(u1_scenario):
    c = Clauses(1)
    ps = physical_space(u1_scenario)
    c.check("physical dimension 4", ps.dim == 4, f"dim {ps.dim}")
    expected = [(1, 1, -2), (1, -1, 0), (-1, 1, 0), (-1, -1, 2)]
    overlaps = []
    for k, charges in enumerate(expected):
        target = np.zeros(12)
        target[u1_basis_index(*charges)] = 1.0
        overlaps.append(abs(abs(np.vdot(ps.basis.basis[:, k], target)) - 1))
    c.check("stated basis up to phase/order", max(overlaps) < 1e-9, f"max dev {max(overlaps):.2e}")
    amps = np.array([0.5, 0.5j, -0.5, 0.5])
    kin = np.zeros(12, dtype=complex)
    for charges, a in zip(expected, amps):
        kin[u1_basis_index(*charges)] = a
    th = 0.9
    red = schrodinger_reduce(ps, "A", [th], kin)
    want = np.zeros(6, dtype=complex)
    bc = lambda cb, cc: {1: 0, -1: 1}[cb] * 3 + {2: 0, 0: 1, -2: 2}[cc]
    want[bc(1, -2)] = np.exp(-1j * th) * amps[0]
    want[bc(-1, 0)] = np.exp(-1j * th) * amps[1]
    want[bc(1, 0)] = np.exp(1j * th) * amps[2]
    want[bc(-1, 2)] = np.exp(1j * th) * amps[3]
    resid = float(np.linalg.norm(red - want))
    c.check("conditional state phase pattern to 1e-9", resid <= 1e-9, f"residual {resid:.2e}")
    c.check("frame A orientation independent", orientation_independent(u1_scenario, "A"))
    pi_c = system_projector(u1_scenario, "C", [0.0])
    c.check("frame C reduced space 4-dim", round(float(np.trace(pi_c).real)) == 4)
    res_c = product_residual(pi_c, 2, 2)
    c.check("frame C projector factorizes", res_c < 1e-9, f"residual {res_c:.2e}")
    pi_a = system_projector(u1_scenario, "A", [0.0])
    res_a = product_residual(pi_a, 2, 3)
    c.check("frame A projector non-product residual > 0.1", res_a > 0.1, f"residual {res_a:.3f}")
    c.finish()


def test_criterion_2_three_spin(three_spin_scenario):
    c = Clauses(2)
    ps = physical_space(three_spin_scenario)
    c.check("physical dimension 1", ps.dim == 1, f"dim {ps.dim}")
    stated = (
        ket3(0, -2, 2) - ket3(2, -2, 0) + ket3(2, 0, -2) - ket3(0, 2, -2)
        + ket3(-2, 2, 0) - ket3(-2, 0, 2)
    ) / np.sqrt(6)
    dev = abs(abs(np.vdot(stated, ps.basis.basis[:, 0])) - 1)
    c.check("stated singlet to 1e-9 up to phase", dev < 1e-9, f"dev {dev:.2e}")
    cond = schrodinger_reduce(ps, "A", [0, 0, 0], ps.basis.basis[:, 0])
    stated_cond = (
        ket3(-2, 2) - ket3(-2, 0) + ket3(0, -2) - ket3(2, -2) + ket3(2, 0) - ket3(0, 2)
    ) / np.sqrt(6)
    dev = abs(abs(np.vdot(cond / np.linalg.norm(cond), stated_cond)) - 1)
    c.check("conditional state matches stated 6-term vector", dev < 1e-9, f"dev {dev:.2e}")
    comp = three_spin_scenario.complement_rep("A")
    closure = reps.invariant_closure(comp, cond)
    c.check("invariant closure dim exactly 3", closure.dim == 3, f"dim {closure.dim}")
    deco = reps.isotypic_decompose(comp)
    support = {
        b.label: float(np.linalg.norm(dagger(b.basis_matrix()) @ (cond / np.linalg.norm(cond))))
        for b in deco.blocks
    }
    c.check(
        "support only on the spin-1 block",
        support["j=0"] <= 1e-9 and support["j=2"] <= 1e-9 and support["j=1"] > 0.9,
        str({k: round(v, 6) for k, v in support.items()}),
    )
    c.finish()


def test_criterion_3_four_spin(four_spin_scenario):
    # Invariants of V_1 x W pair with W's spin-1 block, so the system space
    # (3-dimensional at each orientation) rotates through exactly that block:
    # span 9 = three copies of V_1, and no support on j = 0, 2 or 3.
    c = Clauses(3)
    s = four_spin_scenario
    ps = physical_space(s)
    c.check("physical dimension 3", ps.dim == 3, f"dim {ps.dim}")
    comp = s.complement_rep("A")
    pi_e = system_projector(s, "A", s.frame("A").rep.identity_element())
    dim_e = float(np.real(np.trace(pi_e)))
    c.check("system space at the identity has dim 3", abs(dim_e - 3) <= 1e-9, f"trace {dim_e:.12f}")
    # spin-1 block from the Casimir oracle: sum of k @ k is 4 j (j + 1) = 8 on it
    vals, vecs = np.linalg.eigh(sum(k @ k for k in comp.generators))
    spin1 = vecs[:, np.isclose(vals, 8.0)]
    span = physical_system_span(s, "A")
    gap = float(np.linalg.norm(span.basis @ dagger(span.basis) - spin1 @ dagger(spin1)))
    c.check(
        "orientation span dim exactly 9, equal to the Casimir spin-1 block (<= 1e-9)",
        span.dim == 9 and spin1.shape[1] == 9 and gap <= 1e-9,
        f"dim {span.dim}, block dim {spin1.shape[1]}, projector gap {gap:.2e}",
    )
    coeff = np.array([1.0, 1.1, 0.9])
    psi = ps.basis.basis @ (coeff / np.linalg.norm(coeff))
    cond = schrodinger_reduce(ps, "A", [0, 0, 0], psi)
    cond = cond / np.linalg.norm(cond)
    deco = reps.isotypic_decompose(comp)
    blocks = {b.label: b for b in deco.blocks}
    j0 = float(np.linalg.norm(dagger(blocks["j=0"].basis_matrix()) @ cond))
    c.check("absent in j=0 (<= 1e-9)", j0 <= 1e-9, f"support {j0:.2e}")
    j1 = blocks["j=1"]
    copy_support = [
        float(np.linalg.norm(np.conj(j1.grid[:, :, m]).T @ cond)) for m in range(j1.multiplicity)
    ]
    c.check(
        "support present in all three j=1 copies",
        len(copy_support) == 3 and min(copy_support) > 1e-9,
        str([round(x, 4) for x in copy_support]),
    )
    hw1 = [abs(np.vdot(j1.grid[:, 0, m], cond)) for m in range(j1.multiplicity)]
    gaps = [abs(a - b) for i, a in enumerate(hw1) for b in hw1[i + 1:]]
    c.check(
        "pairwise-distinct highest-weight overlaps",
        min(gaps) > 1e-9,
        str([round(x, 4) for x in hw1]),
    )
    j2 = float(np.linalg.norm(dagger(blocks["j=2"].basis_matrix()) @ cond))
    j3 = float(np.linalg.norm(dagger(blocks["j=3"].basis_matrix()) @ cond))
    c.check("absent in j=2 (<= 1e-9)", j2 <= 1e-9, f"support {j2:.2e}")
    c.check("absent in j=3 (<= 1e-9)", j3 <= 1e-9, f"support {j3:.2e}")
    c.finish()


def test_criterion_4_resolution_of_identity():
    c = Clauses(4)
    worst = 0.0
    for name in cli.builtin_names():
        scenario = cli.build_scenario(cli.load_config(name))
        for fname in scenario.frames:
            frame = scenario.frame(fname)
            worst = max(worst, frames.resolution_residual(frame.rep, frame.seed) / frame.dim)
    c.check("every builtin frame resolves the identity to 1e-8", worst <= 1e-8, f"worst {worst:.2e}")
    try:
        frames.make_frame(reps.u1_rep([1, 1]), np.array([1, 0], dtype=complex))
        c.check("broken multiplicity-2 frame fails", False, "no error raised")
    except ResolutionFails as err:
        msg = str(err)
        c.check(
            "broken frame reports the offending block with dims",
            "q=1" in msg and "irrep dim 1 < multiplicity 2" in msg,
            msg,
        )
    c.finish()


def _lemma_scenarios():
    out = []
    z3 = groups.cyclic(3)
    out.append(("Z3", regular_three_party(z3), True))
    s3 = groups.symmetric_3()
    reg = reps.regular_rep(s3)
    seed = np.zeros(6, dtype=complex)
    seed[s3.identity_index] = 1.0
    f = frames.make_frame(reg, seed, name="R1")
    out.append((
        "S3",
        perspective.make_scenario(s3, [("R1", reg), ("S", reg)], {"R1": ("R1", f)}),
        True,
    ))
    d4 = groups.dihedral_4()
    reg4 = reps.regular_rep(d4)
    seed4 = np.zeros(8, dtype=complex)
    seed4[d4.identity_index] = 1.0
    f4 = frames.make_frame(reg4, seed4, name="R1")
    sys4 = reps.finite_rep(d4, reg4.matrices[:, :, :])  # regular system to keep it exact
    out.append((
        "D4",
        perspective.make_scenario(d4, [("R1", reg4), ("S", sys4)], {"R1": ("R1", f4)}),
        True,
    ))
    rep1 = reps.spin_rep(1)
    fa = frames.make_frame(rep1, np.ones(3) / np.sqrt(3), name="A")
    out.append((
        "su2-three",
        perspective.make_scenario(groups.su2(), [("A", rep1), ("B", rep1), ("C", rep1)], {"A": ("A", fa)}),
        False,
    ))
    fa2 = frames.make_frame(rep1, np.ones(3) / np.sqrt(3), name="A")
    out.append((
        "su2-four",
        perspective.make_scenario(
            groups.su2(), [("A", rep1), ("B", rep1), ("C", rep1), ("D", rep1)], {"A": ("A", fa2)}
        ),
        False,
    ))
    return out


def test_criterion_5_lemma_suite():
    c = Clauses(5)
    rng = np.random.default_rng(100)
    for name, s, is_regular in _lemma_scenarios():
        frame_name = next(iter(s.frames))
        frame = s.frame(frame_name)
        ps = physical_space(s)
        # every element (finite) or generator (Lie): an oracle independent of reps.constraints
        gauge = list(s.total_rep.matrices) if s.total_rep.is_finite else list(s.total_rep.generators)
        worst_commute = 0.0
        worst_rd = 0.0
        worst_proj = 0.0
        for _ in range(TRIALS):
            a = random_hermitian(rng, s.kin_dim)
            tw = reps.group_average(s.total_rep, a, "twirl", 1.0)
            worst_commute = max(
                worst_commute,
                max(float(np.linalg.norm(u @ tw - tw @ u)) for u in gauge) / max(1.0, float(np.abs(tw).max())),
            )
        if frame.rep.is_finite:
            orientations = sample_elements(frame.group)
        else:
            orientations = [
                groups.lie_element(frame.group, rng.uniform(-2, 2, frame.group.algebra_dim))
                for _ in range(TRIALS)
            ]
        for g in orientations:
            phi = frame.orientation(g)
            aligned = s.embed_frame_operator(
                frame_name, np.outer(phi, np.conj(phi)), np.eye(s.complement_dim(frame_name))
            )
            tw = reps.group_average(s.total_rep, aligned, "twirl", frame.weight_scale)
            worst_rd = max(worst_rd, float(np.linalg.norm(tw - np.eye(s.kin_dim))) / s.kin_dim)
            pi = system_projector(s, frame_name, g)
            worst_proj = max(
                worst_proj,
                float(np.linalg.norm(pi @ pi - pi)) + float(np.linalg.norm(pi - dagger(pi))),
            )
        c.check(f"{name}: twirls commute with gauge action", worst_commute <= 1e-8, f"{worst_commute:.2e}")
        c.check(f"{name}: orientation projector twirls to identity", worst_rd <= 1e-8, f"{worst_rd:.2e}")
        c.check(f"{name}: system projector Hermitian idempotent", worst_proj <= 1e-8, f"{worst_proj:.2e}")
        worst_weak = 0.0
        strong_ok = True
        dim_c = s.complement_dim(frame_name)
        g0 = frame.rep.identity_element()
        for _ in range(TRIALS):
            a = random_hermitian(rng, dim_c)
            b = random_hermitian(rng, dim_c)
            scale = max(1.0, float(np.abs(a).max()) * float(np.abs(b).max()))
            rep_h = check_weak_homomorphism(s, frame_name, g0, a, b)
            worst_weak = max(worst_weak, rep_h["max_weak_residual"] / scale)
            if is_regular:
                strong_ok &= rep_h["max_strong_residual"] / scale <= 1e-7
            else:
                strong_ok &= rep_h["max_strong_residual"] / scale > 1e-5
        c.check(f"{name}: weak homomorphism residuals <= 1e-7", worst_weak <= 1e-7, f"{worst_weak:.2e}")
        c.check(
            f"{name}: strong equality iff regular frame",
            strong_ok,
            "regular" if is_regular else "non-regular",
        )
        if ps.dim:
            worst_cip = 0.0
            for _ in range(TRIALS):
                c1 = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
                c2 = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
                psi = ps.basis.basis @ (c1 / np.linalg.norm(c1))
                chi = ps.basis.basis @ (c2 / np.linalg.norm(c2))
                out = conditional_inner_product_check(
                    s, frame_name, psi, chi, sample_elements(frame.group, 6)
                )
                worst_cip = max(worst_cip, out["max_deviation"])
            c.check(f"{name}: conditional inner product equality", worst_cip <= 1e-8, f"{worst_cip:.2e}")
    c.finish()


def test_criterion_6_trinity(u1_scenario, z3_regular_scenario, s3_regular_scenario):
    c = Clauses(6)
    theta_a = solve_theta(u1_scenario.frame("A"))
    c.check(
        "qubit frame reproducing phase has Fourier label 1",
        isinstance(theta_a, ThetaState) and theta_a.fourier_k == 1,
        f"k = {getattr(theta_a, 'fourier_k', None)}",
    )
    resid = reproducing_residual(u1_scenario.frame("A"), theta_a)
    c.check("qubit frame phases reproduce", resid <= 1e-9, f"{resid:.2e}")
    rng = np.random.default_rng(101)
    cases = [("u1", u1_scenario, list(u1_scenario.frames)),
             ("Z3", z3_regular_scenario, ["R1"]),
             ("S3", s3_regular_scenario, ["R1"])]
    for name, s, frame_names in cases:
        ps = physical_space(s)
        for fname in frame_names:
            frame = s.frame(fname)
            theta = solve_theta(frame)
            if not isinstance(theta, ThetaState):
                c.check(f"{name}:{fname} theta found", False, theta.reason)
                continue
            coeff = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
            psi = ps.basis.basis @ (coeff / np.linalg.norm(coeff))
            heis = heisenberg_reduce(ps, fname, theta, psi)
            comp = s.complement_rep(fname)
            worst = max(
                float(np.linalg.norm(dagger(comp.evaluate(g)) @ schrodinger_reduce(ps, fname, g, psi) - heis))
                for g in sample_elements(frame.group, 8)
            )
            c.check(f"{name}:{fname} Heisenberg = rotated Schroedinger over 8 g", worst <= 1e-8, f"{worst:.2e}")
            t_r = reductions.disentangler(s, fname, theta, np.eye(s.kin_dim))
            worst_prod = 0.0
            for k in range(ps.dim):
                v = ps.basis.basis[:, k]
                cond = s.condition_vector(fname, frame.seed, v)
                expect = s.inject_vector(fname, theta.vector, cond)
                worst_prod = max(worst_prod, float(np.linalg.norm(t_r @ v - expect)))
            c.check(f"{name}:{fname} disentangler product form", worst_prod <= 1e-8, f"{worst_prod:.2e}")
    c.finish()


def test_criterion_7_frame_changes(u1_scenario, s3_regular_scenario):
    c = Clauses(7)
    ps_u1 = physical_space(u1_scenario)
    names = list(u1_scenario.frames)
    worst = 0.0
    for i in names:
        for j in names:
            if i == j:
                continue
            gi, gj = [0.4], [1.3]
            ch = framechange.frame_change(ps_u1, i, gi, j, gj)
            pi_dom = system_projector(u1_scenario, i, gi)
            pi_cod = system_projector(u1_scenario, j, gj)
            worst = max(
                worst,
                float(np.linalg.norm(dagger(ch.matrix) @ ch.matrix - pi_dom)),
                float(np.linalg.norm(ch.matrix @ dagger(ch.matrix) - pi_cod)),
            )
    c.check("u1 frame changes unitary between projector ranges", worst <= 1e-8, f"{worst:.2e}")
    s = s3_regular_scenario
    ps = physical_space(s)
    g = s.group
    worst = 0.0
    worst_kernel = 0.0
    reg = s.subsystems[0][1]
    seed = s.frame("R1").seed
    for g1, g2 in ((0, 0), (2, 4)):
        ch = framechange.frame_change(ps, "R1", g1, "R2", g2)
        pi_dom = system_projector(s, "R1", g1)
        pi_cod = system_projector(s, "R2", g2)
        worst = max(
            worst,
            float(np.linalg.norm(dagger(ch.matrix) @ ch.matrix - pi_dom)),
            float(np.linalg.norm(ch.matrix @ dagger(ch.matrix) - pi_cod)),
        )
        kernel = np.zeros_like(ch.matrix)
        for k in g.elements():
            ket = reg.matrices[g.mult(k, g1)] @ seed
            bra = reg.matrices[g.mult(g.inverse(k), g2)] @ seed
            kernel += np.kron(np.outer(ket, np.conj(bra)), reg.matrices[k])
        worst_kernel = max(worst_kernel, float(np.linalg.norm(ch.matrix - kernel)))
    c.check("regular frame changes unitary", worst <= 1e-8, f"{worst:.2e}")
    c.check("regular frame change matches explicit kernel sum", worst_kernel <= 1e-9, f"{worst_kernel:.2e}")
    c.finish()


def test_criterion_8_symmetry_layer(z3_regular_scenario, s3_regular_scenario):
    c = Clauses(8)
    rng = np.random.default_rng(102)
    for name, s in (("Z3", z3_regular_scenario), ("S3", s3_regular_scenario)):
        g = s.group
        n = g.order
        f_s = random_hermitian(rng, n * n)
        g1, gg = 1 % n, (n - 1)
        obs = relational_observable(s, "R1", g1, f_s, check=False)
        moved = framechange.reorient(s, "R1", gg, obs)
        target = relational_observable(s, "R1", g.mult(g1, g.inverse(gg)), f_s, check=False)
        resid = float(np.linalg.norm(moved.matrix - target.matrix)) / max(1.0, float(np.abs(f_s).max()))
        c.check(f"{name}: reorientation shifts the orbit label exactly", resid <= 1e-10, f"{resid:.2e}")
        small = random_hermitian(rng, n)
        obs1 = relational_observable(s, "R1", g1, np.kron(np.eye(n), small), check=False)
        g2 = 2 % n
        out = framechange.relation_conditional_reorient(s, "R1", g1, "R2", g2, obs1)
        direct = relational_observable(s, "R2", g2, np.kron(np.eye(n), small), check=False)
        resid = float(np.linalg.norm(out.matrix - direct.matrix)) / max(1.0, float(np.abs(small).max()))
        c.check(f"{name}: relation-conditional reorientation maps families", resid <= 1e-9, f"{resid:.2e}")
        vals = np.arange(n, dtype=float)
        orbit2 = np.column_stack([s.frame("R2").rep.matrices[k] @ s.frame("R2").seed for k in g.elements()])
        q2 = orbit2 @ np.diag(vals) @ dagger(orbit2)
        obs_q2 = relational_observable(s, "R1", g1, np.kron(q2, np.eye(n)), check=False)
        out_q2 = framechange.relation_conditional_reorient(s, "R1", g1, "R2", g2, obs_q2)
        resid = float(np.linalg.norm(out_q2.matrix - vals[g2] * np.eye(s.kin_dim)))
        c.check(f"{name}: tautological observable collapses to Q2(g2) 1", resid <= 1e-9, f"{resid:.2e}")
        rel = framechange.subsystem_relativity_report(s, "R1", "R2")
        c.check(
            f"{name}: relativized frame-2 and system observables commute",
            rel["commuting_pass"],
            f"{rel['relativized_commutant_residual']:.2e}",
        )
        c.check(f"{name}: system subalgebras relative to the two frames differ", not rel["coincide"])
    c.finish()


def _brute_force_scenarios():
    out = []
    for n in (2, 3, 4):
        out.append((f"Z{n}-3party", regular_three_party(groups.cyclic(n))))
    for maker, name in ((groups.symmetric_3, "S3"), (groups.dihedral_4, "D4"), (groups.quaternion_8, "Q8")):
        g = maker()
        reg = reps.regular_rep(g)
        seed = np.zeros(g.order, dtype=complex)
        seed[g.identity_index] = 1.0
        f = frames.make_frame(reg, seed, name="R1")
        out.append((
            f"{name}-2party",
            perspective.make_scenario(g, [("R1", reg), ("S", reg)], {"R1": ("R1", f)}),
        ))
    return out


def test_criterion_9_finite_bruteforce_oracles():
    c = Clauses(9)
    rng = np.random.default_rng(103)
    for name, s in _brute_force_scenarios():
        g = s.group
        assert g.order <= 8 and s.kin_dim <= 64
        frame_name = next(iter(s.frames))
        frame = s.frame(frame_name)
        w = frame.weight_scale / g.order
        mats = s.total_rep.matrices
        a = random_hermitian(rng, s.kin_dim)
        lib = reps.group_average(s.total_rep, a, "twirl", frame.weight_scale)
        oracle = sum(w * (mats[k] @ a @ dagger(mats[k])) for k in g.elements())
        resid_t = float(np.linalg.norm(lib - oracle)) / max(1.0, float(np.abs(oracle).max()))
        proj_lib = physical_space(s).projector()
        proj_oracle = sum(mats[k] for k in g.elements()) / g.order
        resid_p = float(np.linalg.norm(proj_lib - proj_oracle))
        f_small = random_hermitian(rng, s.complement_dim(frame_name))
        g0 = 1 % g.order
        lib_f = relational_observable(s, frame_name, g0, f_small, check=False).matrix
        phi = frame.rep.matrices[g0] @ frame.seed
        aligned = s.embed_frame_operator(frame_name, np.outer(phi, np.conj(phi)), f_small)
        oracle_f = sum(w * (mats[k] @ aligned @ dagger(mats[k])) for k in g.elements())
        resid_f = float(np.linalg.norm(lib_f - oracle_f)) / max(1.0, float(np.abs(oracle_f).max()))
        worst = max(resid_t, resid_p, resid_f)
        c.check(f"{name}: twirl/projector/relational observable vs brute force", worst <= 1e-10, f"{worst:.2e}")
    c.finish()


def _haar_su2_batch(rng, count):
    q = rng.standard_normal((count, 4))
    q /= np.linalg.norm(q, axis=1)[:, None]
    psi = np.arccos(np.clip(q[:, 0], -1, 1))
    vec = q[:, 1:]
    norms = np.linalg.norm(vec, axis=1)
    safe = norms > 1e-12
    axes = np.zeros_like(vec)
    axes[safe] = vec[safe] / norms[safe][:, None]
    axes[~safe] = [0.0, 0.0, 1.0]
    return psi, axes


@pytest.mark.slow
def test_criterion_9_su2_monte_carlo_haar(three_spin_scenario):
    c = Clauses("9-slow")
    s = three_spin_scenario
    rng = np.random.default_rng(104)
    a = random_hermitian(rng, 27)
    a /= np.linalg.norm(a)  # unit-norm operand so 1e-2 is an absolute statistical tolerance
    exact = reps.group_average(s.total_rep, a, "twirl", 1.0)
    gens = reps.spin_rep(1).generators
    half_gens = np.stack(gens) / 2.0  # eigenvalues -1, 0, 1 along any axis
    total = np.zeros((27, 27), dtype=complex)
    samples = 100_000
    chunk = 2_000
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        psi, axes = _haar_su2_batch(rng, m)
        axis_gen = np.einsum("mk,kij->mij", axes, half_gens)
        sin_t = np.sin(2 * psi)[:, None, None]
        cos_t = np.cos(2 * psi)[:, None, None]
        u3 = (
            np.eye(3)[None, :, :]
            + 1j * sin_t * axis_gen
            + (cos_t - 1.0) * (axis_gen @ axis_gen)
        )
        u27 = np.einsum("mab,mcd,mef->macebdf", u3, u3, u3, optimize=True).reshape(m, 27, 27)
        total += np.einsum("mij,jk,mlk->il", u27, a, np.conj(u27), optimize=True)
        done += m
    mc = total / samples
    resid = float(np.linalg.norm(mc - exact))
    c.check("Monte-Carlo Haar average matches commutant projection (1e-2)", resid <= 1e-2, f"{resid:.2e}")
    c.finish()


def test_criterion_10_cli_determinism():
    c = Clauses(10)
    for name in ("u1-qubit-qubit-qutrit", "su2-three-spin1", "finite-regular:Z3"):
        r1 = cli.emit(cli.run(cli.load_config(name)), "json")
        r2 = cli.emit(cli.run(cli.load_config(name)), "json")
        c.check(f"{name}: byte-identical reports", r1 == r2)
        failed = cli.run(cli.load_config(name))["summary"]["checks_failed"]
        c.check(f"{name}: all property checks pass", failed == 0, f"{failed} failed")
    c.finish()
