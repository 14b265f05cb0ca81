"""Frame transformations.

Gauge-induced coordinate changes route one frame's conditional description
through the perspective-neutral space into another frame's, and are
isometries between the (possibly moving) physical system subspaces
regardless of frame idealness.  Symmetry-induced transformations -- plain
and relation-conditional reorientations -- act on relational observables
instead; the relation-conditional construction is restricted to regular
representations, as is its commuting-subalgebra structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import frames as frames_mod
from .linalg import DEFAULT_TOL, Tolerance, dagger, orthonormal_range
from .perspective import (
    PhysicalSpace,
    RelObs,
    Scenario,
    conditioning_map,
    physical_space,
    relational_observable,
)
from .reductions import schrodinger_map

__all__ = [
    "FrameChange",
    "frame_change",
    "ensure_lr",
    "reorient",
    "relation_conditional_reorient",
    "tautological_relobs",
    "restricted_unit_family",
    "subsystem_relativity_report",
]


@dataclass
class FrameChange:
    """Map between two frames' physical system subspaces (through H_phys)."""

    from_frame: str
    to_frame: str
    g_from: object
    g_to: object
    matrix: np.ndarray  # (complement_dim(to), complement_dim(from))
    scale_notes: dict


def frame_change(
    ps: PhysicalSpace,
    frame_i: str,
    g_i,
    frame_j: str,
    g_j,
    tol: Tolerance = DEFAULT_TOL,
) -> FrameChange:
    """V_{Ri->Rj}(g_i, g_j) = C_j C_i^dag, verified isometric between the projector ranges.

    With the n_phys-sized round trips G = C^dag C, ||V^dag V - C_i C_i^dag||^2
    = ||C_i (G_j - 1) C_i^dag||^2 = tr((G_j - 1) G_i (G_j - 1) G_i), and
    likewise with i and j swapped for V V^dag - C_j C_j^dag.
    """
    if ps.dim == 0:
        raise ValueError("cannot change frames with an empty physical space")
    mi = schrodinger_map(ps, frame_i, g_i, tol)
    mj = schrodinger_map(ps, frame_j, g_j, tol)
    mat = mj.matrix @ mi.inverse_matrix
    gi, gj = mi.round_trip, mj.round_trip
    xi, xj = gi - np.eye(ps.dim), gj - np.eye(ps.dim)
    worst = float(np.sqrt(max(np.vdot(xj @ gi, gi @ xj).real, np.vdot(xi @ gj, gj @ xi).real, 0.0)))
    if worst > 1e5 * tol.weighted(1.0) * max(1, mat.shape[0]):
        raise ValueError(f"frame change failed the isometry check ({worst:.3e})")
    return FrameChange(
        frame_i,
        frame_j,
        mi.orientation,
        mj.orientation,
        mat,
        {
            "from_volume": mi.scale_notes["frame_volume"],
            "to_volume": mj.scale_notes["frame_volume"],
            "isometry_defect": worst,
        },
    )


def ensure_lr(frame, tol: Tolerance = DEFAULT_TOL):
    """Populate and return the frame's right action, or raise if none exists."""
    if frame.lr is None and not frame.lr_report.get("checked"):
        v_rep, report = frames_mod.lr_classify(frame, tol)
        report["checked"] = True
        frame.lr = v_rep
        frame.lr_report = report
    if frame.lr is None:
        raise ValueError(
            f"frame {frame.name!r} admits no right action, so no symmetries: "
            + frame.lr_report.get("reason", "")
        )
    return frame.lr


def reorient(s: Scenario, frame_name: str, g, obs: RelObs, tol: Tolerance = DEFAULT_TOL) -> RelObs:
    """Frame reorientation by g: conjugation with V_R(g) x 1, shifting the orbit label."""
    frame = s.frame(frame_name)
    if obs.frame_name != frame_name:
        raise ValueError("observable was built relative to another frame")
    v_rep = ensure_lr(frame, tol)
    el = frame.rep.element(g)
    from . import groups

    new_orientation = groups.compose(obs.orientation, groups.inverse(el))
    return RelObs(
        matrix=_conjugate_slot(s.dims, s.frame_slot(frame_name), v_rep.evaluate(el), obs.matrix),
        frame_name=frame_name,
        orientation=new_orientation,
        source=obs.source,
        scenario=s,
    )


def _require_ideal(frame, tol: Tolerance) -> np.ndarray:
    """Orbit states of an ideal (regular-representation) frame, as columns."""
    if not frame.rep.is_finite:
        raise ValueError("relation-conditional reorientations need finite regular frames")
    group = frame.rep.group
    if frame.dim != group.order:
        raise ValueError(f"frame {frame.name!r} is not a regular-representation frame")
    orbit = np.column_stack([frame.rep.matrices[g] @ frame.seed for g in group.elements()])
    gram = dagger(orbit) @ orbit
    if np.linalg.norm(gram - np.eye(group.order)) > 1e4 * tol.weighted(1.0) * group.order:
        raise ValueError(f"frame {frame.name!r} orientation states are not orthonormal")
    return orbit


def tautological_relobs(s: Scenario, frame_name: str, g, values) -> RelObs:
    """F_{Q,R}(g) = Q(g) 1 for a frame-configuration observable Q = sum Q(g)|g><g|."""
    frame = s.frame(frame_name)
    vals = np.asarray(values, dtype=complex).reshape(-1)
    if not frame.rep.is_finite or vals.size != frame.rep.group.order:
        raise ValueError("need one value per group element of a finite frame")
    el = frame.rep.element(g)
    return RelObs(
        matrix=complex(vals[el.index]) * np.eye(s.kin_dim, dtype=complex),
        frame_name=frame_name,
        orientation=el,
        source=np.diag(vals),
        scenario=s,
        family=lambda h: complex(vals[frame.rep.element(h).index]) * np.eye(s.kin_dim, dtype=complex),
    )


def _left_apply(dims: list[int], slots: tuple[int, ...], op: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(op on ``slots``, in that order, x identity elsewhere) @ m, without forming the kinematical operator."""
    k = len(slots)
    sub = [dims[i] for i in slots]
    t = m.reshape(list(dims) + [m.shape[1]])
    out = np.tensordot(op.reshape(sub + sub), t, axes=(list(range(k, 2 * k)), list(slots)))
    return np.moveaxis(out, list(range(k)), list(slots)).reshape(m.shape)


def _conjugate_slot(dims: list[int], slot: int, v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(v x 1) m (v x 1)^dag for v acting on one slot."""
    vm = _left_apply(dims, (slot,), v, m)
    return dagger(_left_apply(dims, (slot,), v, dagger(vm)))


def relation_conditional_reorient(
    s: Scenario,
    frame1: str,
    g1,
    frame2: str,
    g2,
    obs: RelObs,
    modified: bool = True,
    tol: Tolerance = DEFAULT_TOL,
) -> RelObs:
    """Reorient frame 1 conditionally on its relation to frame 2.

    The default (modified) form applies the relation-conditional orientation
    relabeling to the whole relational-observable family, which maps every
    relational observable relative to frame 1 -- tautological ones included --
    to its counterpart relative to frame 2.  ``modified=False`` uses the
    unital conjugation form instead, which fixes tautological observables.
    """
    if frame1 == frame2:
        raise ValueError("relation-conditional reorientation needs two distinct frames")
    f1 = s.frame(frame1)
    f2 = s.frame(frame2)
    orbit1 = _require_ideal(f1, tol)
    orbit2 = _require_ideal(f2, tol)
    if obs.frame_name != frame1:
        raise ValueError("operand must be a relational observable relative to the first frame")
    group = f1.rep.group
    slot1 = s.frame_slot(frame1)
    slot2 = s.frame_slot(frame2)
    g1_el = f1.rep.element(g1)
    g2_el = f2.rep.element(g2)
    if modified:
        family: Callable = obs.family or (
            lambda h: relational_observable(s, frame1, h, obs.source, tol, check=False).matrix
        )
    else:
        v_rep = ensure_lr(f1, tol)
    out = np.zeros((s.kin_dim, s.kin_dim), dtype=complex)
    for gp in group.elements():
        # projector onto relative orientation g2 g'^-1 on the two frames:
        # sum_g |g>1<g| x |g g'>2<g g'| = w w^dag, column g of w being |g>1 x |g g'>2
        shifted = orbit2[:, [group.mult(g, gp) for g in group.elements()]]
        w = np.einsum("ig,jg->ijg", orbit1, shifted).reshape(-1, group.order)
        if modified:
            label = group.mult(g2_el.index, group.inverse(gp))
            target = family(f1.rep.element(label))
        else:
            k = group.mult(gp, group.mult(group.inverse(g2_el.index), g1_el.index))
            target = _conjugate_slot(s.dims, slot1, v_rep.matrices[k], obs.matrix)
        out += _left_apply(s.dims, (slot1, slot2), w @ dagger(w), target)
    return RelObs(matrix=out, frame_name=frame2, orientation=g2_el, source=obs.source, scenario=s)


# ---------------------------------------------------------------------------
# subsystem relativity diagnostics
# ---------------------------------------------------------------------------


def _generate_algebra(mats: list[np.ndarray], tol: Tolerance, max_rounds: int = 8) -> np.ndarray:
    """Orthonormal basis of the unital algebra span (vectorized operators).

    Grows the span only by products that fall measurably outside it, so
    already-closed spans cost one residual sweep instead of a giant SVD.
    The products of a k-dim span are formed one left factor at a time, so at
    most k of them (k d^2 entries) are held at once rather than k^2.
    """
    d = mats[0].shape[0]
    seeds = [np.eye(d, dtype=complex)] + mats
    basis = orthonormal_range(np.column_stack([m.reshape(-1) for m in seeds]), tol).basis
    for _ in range(max_rounds):
        if basis.shape[1] == d * d:  # every d x d matrix: closed, no products needed
            return basis
        ops = basis.T.reshape(-1, d, d)
        fresh = []
        for x in ops:
            prods = (x @ ops).reshape(-1, d * d).T
            resid = prods - basis @ (dagger(basis) @ prods)
            fresh.append(resid[:, np.linalg.norm(resid, axis=0) > 1e3 * tol.weighted(1.0)])
        fresh = np.hstack(fresh)
        if fresh.shape[1] == 0:
            return basis
        basis = orthonormal_range(np.hstack([basis, fresh]), tol).basis
    return basis


def _span_overlap_dim(b1: np.ndarray, b2: np.ndarray, tol: Tolerance) -> int:
    union = orthonormal_range(np.hstack([b1, b2]), tol).dim
    return b1.shape[1] + b2.shape[1] - union


def restricted_unit_family(
    s: Scenario,
    ps: PhysicalSpace,
    frame_name: str,
    target_slot: int,
) -> list[np.ndarray]:
    """F_{f,frame}(e) restricted to the physical basis, f = target-slot matrix units.

    On invariant vectors B^dag U A U^dag B = B^dag A B, so the restricted twirl
    of |phi(e)><phi(e)| x E_ij x 1 is C_i^dag C_j, where C_i is the target-row-i
    block of the conditioning map C_e; one contraction covers every unit.
    """
    dims = s.dims
    slot_f = s.frame_slot(frame_name)
    rest = [i for i in range(len(dims)) if i != slot_f]
    if target_slot == slot_f:
        raise ValueError("target subsystem coincides with the frame")
    d_t = dims[target_slot]
    c = conditioning_map(ps, frame_name, s.frame(frame_name).rep.identity_element())
    c = c.reshape([dims[i] for i in rest] + [ps.dim])
    c = np.moveaxis(c, rest.index(target_slot), 0).reshape(d_t, -1, ps.dim)
    fam = np.einsum("irp,jrq->ijpq", np.conj(c), c, optimize=True)
    return [fam[i, j] for i in range(d_t) for j in range(d_t)]


def subsystem_relativity_report(
    s: Scenario,
    frame1: str,
    frame2: str,
    tol: Tolerance = DEFAULT_TOL,
) -> dict:
    """Compare the relational-observable subalgebras defined by two frames.

    Restricted to the physical basis, reports (a) whether frame-2 and system
    observables relativized to frame 1 commute, (b) whether the two system
    subalgebras coincide, and (c) their overlap dimension.
    """
    ps = physical_space(s, tol)
    if ps.dim == 0:
        raise ValueError("empty physical space")
    if frame1 == frame2:
        return {
            "degenerate": True,
            "coincide": True,
            "note": "both arguments name the same frame; subalgebras trivially coincide",
        }
    slot1 = s.frame_slot(frame1)
    slot2 = s.frame_slot(frame2)
    dims = s.dims
    sys_slots = [i for i in range(len(dims)) if i not in (slot1, slot2)]
    if not sys_slots:
        raise ValueError("need a system subsystem besides the two frames")
    report: dict = {"degenerate": False, "frame1": frame1, "frame2": frame2}
    sys_slot = sys_slots[0]
    a_s_r1 = restricted_unit_family(s, ps, frame1, sys_slot)
    a_s_r2 = restricted_unit_family(s, ps, frame2, sys_slot)
    a_r2_r1 = restricted_unit_family(s, ps, frame1, slot2)
    # (a) commutation of the frame-2 and system observables relative to frame 1
    ys = np.stack(a_s_r1)
    comm = max(float(np.linalg.norm(x @ ys - ys @ x, axis=(1, 2)).max()) for x in a_r2_r1)
    report["relativized_commutant_residual"] = comm
    report["commuting_pass"] = comm <= 1e5 * tol.weighted(1.0)
    # (b), (c) distinctness of the two relativizations of the system algebra
    alg1 = _generate_algebra(a_s_r1, tol)
    alg2 = _generate_algebra(a_s_r2, tol)
    overlap = _span_overlap_dim(alg1, alg2, tol)
    report["algebra_dims"] = (int(alg1.shape[1]), int(alg2.shape[1]))
    report["overlap_dim"] = int(overlap)
    report["coincide"] = overlap == alg1.shape[1] == alg2.shape[1]
    return report
