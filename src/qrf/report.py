"""The full report: the paper's claims checked on one scenario.

``full_report`` returns library values (arrays, complex numbers, group
elements, tuples) and ``Check`` records; turning them into JSON is the
caller's job.  Every random draw goes through the one generator passed in,
in a fixed order: a trinity state per frame with a theta, then the two
observables of the weak homomorphism, the two states of the conditional
inner product, and the two observables of the symmetry layer.  Every check
bound is the library's, except ``distinct_system_subalgebras``: a 0/1
residual against the bound 0.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import framechange, frames, groups, perspective, reductions
from .linalg import Check, Monomial, Tolerance, random_hermitian
from .perspective import PhysicalSpace, Scenario
from .reductions import ThetaState

__all__ = ["full_report", "basis_table"]


def basis_table(ps: PhysicalSpace, limit: int = 2048):
    """The physical basis as rows of kinematical amplitudes, or a note when it has more than ``limit`` of them."""
    if ps.dim * ps.scenario.kin_dim > limit:
        return f"omitted ({ps.dim} x {ps.scenario.kin_dim} amplitudes)"
    return ps.basis.basis.T


def _random_state(ps: PhysicalSpace, rng) -> np.ndarray:
    coeff = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    return ps.basis @ (coeff / np.linalg.norm(coeff))


def full_report(scenario: Scenario, ps: PhysicalSpace, tol: Tolerance, rng) -> tuple[dict, list[Check]]:
    """Per-frame validity, isotropy, LR and theta data, the weak homomorphism, the conditional inner
    product, every pairwise frame change and, for two ideal frames among three or more parties, the
    symmetry layer; returns the report's fields and its checks, in order."""
    checks = []
    out: dict = {"phys_dim": ps.dim, "kin_dim": scenario.kin_dim, "basis": basis_table(ps)}
    frames_out = {}
    for fname in scenario.frames:
        frame = scenario.frame(fname)
        entry: dict = {"subsystem": scenario.subsystems[scenario.frame_slot(fname)][0], "volume": frame.weight_scale}
        checks.append(tol.check(f"{fname}:resolution_of_identity", frame.resolution_residual, 1.0, frame.dim))
        if frame.isotropy.element_indices is not None:
            entry["isotropy_elements"] = list(frame.isotropy.element_indices)
        else:
            entry["isotropy_algebra_dim"] = len(frame.isotropy.algebra_basis or ())
            entry["isotropy_discrete_part_unknown"] = frame.isotropy.discrete_part_unknown
        v_rep, lr_report = frames.lr_classify(frame, tol)
        entry["lr_exists"] = v_rep is not None
        if v_rep is None:
            entry["lr_obstruction"] = lr_report["reason"]
        entry["orientation_independent"] = perspective.orientation_independent(scenario, fname, tol)
        c = perspective.schrodinger_map(ps, fname, frame.rep.identity_element(), tol)  # tr(C^dag C) = ||C||_F^2
        entry["reduced_space_dim"] = round(float(np.linalg.norm(c.weights if isinstance(c, Monomial) else c)) ** 2)
        entry["conditional_span_dim"] = perspective.physical_system_span(scenario, fname, tol).dim
        if ps.dim:
            theta = reductions.solve_theta(frame, tol)
            if isinstance(theta, ThetaState):
                entry["theta"] = {"found": True, "fourier_k": theta.fourier_k, "phases": theta.phases,
                                  "residual": theta.residual}
                checks.append(reductions.trinity_check(ps, fname, theta, _random_state(ps, rng), tol))
                checks.append(reductions.product_form_check(ps, fname, theta, tol))
            else:
                entry["theta"] = {"found": False, "reason": theta.reason, "residual": theta.residual}
                entry["heisenberg_picture"] = "unavailable, Schroedinger picture used"
        frames_out[fname] = entry
    out["frames"] = frames_out
    if ps.dim:
        fname = next(iter(scenario.frames), None)
        if fname is not None:
            a, b = (random_hermitian(rng, scenario.complement_dim(fname)) for _ in range(2))
            e = scenario.frame(fname).rep.identity_element()
            hom = perspective.check_weak_homomorphism(scenario, fname, e, a, b, tol)
            out["weak_homomorphism"] = {
                k: hom[k] for k in ("weak", "strong", "max_weak_residual", "max_strong_residual", "strong_pass")
            }
            checks.append(hom["weak_check"])
            psi, chi = _random_state(ps, rng), _random_state(ps, rng)
            cip = perspective.conditional_inner_product_check(scenario, fname, psi, chi, None, tol)
            out["conditional_inner_product"] = {k: cip[k] for k in ("max_deviation", "samples")}
            checks.append(cip["check"])
        pairs = [(a, b) for a in scenario.frames for b in scenario.frames if a != b]
        changes = {}
        for f_from, f_to in pairs:
            e_from, e_to = (scenario.frame(f).rep.identity_element() for f in (f_from, f_to))
            ch = framechange.frame_change(ps, f_from, e_from, f_to, e_to, tol)
            checks.append(replace(ch.check, name=f"frame_change:{f_from}->{f_to}"))
            changes[f"{f_from}->{f_to}"] = {"shape": ch.op.shape, "isometry_defect": ch.check.residual}
        out["frame_changes"] = changes
        ideal = [f for f, (_, fr) in scenario.frames.items() if fr.rep.is_finite and fr.dim == fr.rep.group.order]
        if len(ideal) >= 2 and len(scenario.subsystems) >= 3:
            out["symmetry_layer"] = _symmetry_layer(scenario, tol, ideal[0], ideal[1], rng, checks)
    return out, checks


def _symmetry_layer(scenario, tol, f1, f2, rng, checks) -> dict:
    group = scenario.frame(f1).rep.group
    f_s = random_hermitian(rng, scenario.complement_dim(f1))
    g1 = groups.FiniteElement(group, 1 % group.order)
    g = groups.FiniteElement(group, (group.order - 1) % group.order)
    _, orbit = framechange.reorientation_check(scenario, f1, g1, g, f_s, tol)
    checks.append(replace(orbit, name="reorient_orbit_relabeling"))
    small = random_hermitian(rng, scenario.complement_dim(f1) // group.order)
    g2 = groups.FiniteElement(group, 0)
    relation = framechange.relation_conditional_check(scenario, f1, g1, f2, g2, small, tol)
    checks.append(relation)
    report = framechange.subsystem_relativity_report(scenario, f1, f2, tol)
    checks.append(report.pop("check"))
    if max(report["algebra_dims"]) > 1:  # a one-dimensional system: both algebras are the scalars, which coincide
        checks.append(Check("distinct_system_subalgebras", float(report["coincide"]), 0.0))
    return {
        "reorient_residual": orbit.residual,
        "relation_conditional_residual": relation.residual,
        "subsystem_relativity": report,
    }
