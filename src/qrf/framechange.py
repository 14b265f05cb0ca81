"""Frame transformations.

Gauge-induced coordinate changes route one frame's conditional description through the
perspective-neutral space into another frame's, and are isometries between the (possibly moving)
physical system subspaces regardless of frame idealness.  V = C_j C_i^dag pairs two frames' plans
column by column into a phased scatter when both maps are held by index and weight (U(1) frames,
identity-ket finite frames), and is a dense product otherwise; ``FrameChange`` holds it as formed and
densifies it only when its ``matrix`` is read.  Symmetry-induced transformations --
plain and relation-conditional reorientations -- act on relational observables instead (a plain
reorientation rereads the leader rows of a held finite observable through a slot permutation); the
relation-conditional construction is restricted to regular representations, as is its
commuting-subalgebra structure, and runs in the frames' orbit coordinates, where a reorientation
relabels orbits and a relative-orientation projector keeps rows; with basis-ket seeds it rereads
held leader rows, entry by entry.  Subsystem relativity reads the
relativized algebras of ideal frames as matrix-unit systems from the blocks of C_e and compares
them by a cross Gram of those blocks; it grows them by product sweeps otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import frames as frames_mod
from . import groups, reps
from .linalg import DEFAULT_TOL, Check, Monomial, Tolerance, _rank, dagger, densify, orthonormal_range
from .perspective import (
    PhysicalSpace,
    RelObs,
    Scenario,
    conditioning_map,
    embed_on_slot,
    physical_space,
    relational_observable,
    schrodinger_map,
    slot_view,
)

__all__ = [
    "FrameChange",
    "frame_change",
    "ensure_lr",
    "reorient",
    "reorientation_check",
    "relation_conditional_reorient",
    "relation_conditional_check",
    "tautological_relobs",
    "restricted_unit_family",
    "subsystem_relativity_report",
]


@dataclass
class FrameChange:
    """Map between two frames' physical system subspaces (through H_phys).  ``op`` is V as the two maps' product
    holds it, a ``Monomial`` or an array, whose shape reads without densifying; the dense ``matrix`` is built on
    first access, as ``RelObs.matrix`` is."""

    from_frame: str
    to_frame: str
    g_from: object
    g_to: object
    op: np.ndarray | Monomial  # (complement_dim(to), complement_dim(from))
    scale_notes: dict
    check: Check  # the isometry defect

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return densify(self.op)


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
    likewise with i and j swapped for V V^dag - C_j C_j^dag.  When both maps are
    monomials, V is a phased scatter, held as a ``Monomial``, and the G are diagonal, the ones the gates formed:
    the trace is sum_k ((g_j,k - 1) g_i,k)^2.
    """
    if ps.dim == 0:
        raise ValueError("cannot change frames with an empty physical space")
    fi, fj = ps.scenario.frame(frame_i), ps.scenario.frame(frame_j)
    g_i, g_j = fi.rep.element(g_i), fj.rep.element(g_j)
    ci = schrodinger_map(ps, frame_i, g_i, tol)
    cj = schrodinger_map(ps, frame_j, g_j, tol)
    mat = cj @ dagger(ci)
    if isinstance(mat, Monomial):
        gi, gj = ci.gram, cj.gram
        worst = math.sqrt(max((((gj - 1.0) * gi) ** 2).sum(), (((gi - 1.0) * gj) ** 2).sum()))
    else:  # a monomial's round trip is a monomial, densified here
        gi, gj = (densify(dagger(c) @ c) for c in (ci, cj))
        xi, xj = gi - np.eye(ps.dim), gj - np.eye(ps.dim)
        worst = float(np.sqrt(max(np.vdot(xj @ gi, gi @ xj).real, np.vdot(xi @ gj, gj @ xi).real, 0.0)))
    check = tol.check("frame_change_isometry", worst, 1.0, max(mat.shape))
    if not check.passed:
        raise ValueError(f"frame change failed the isometry check ({worst:.3e})")
    notes = {"from_volume": fi.weight_scale, "to_volume": fj.weight_scale, "isometry_defect": worst}
    return FrameChange(frame_i, frame_j, g_i, g_j, mat, notes, check)


def ensure_lr(frame, tol: Tolerance = DEFAULT_TOL):
    """The frame's right action, or raise if none exists."""
    v_rep, report = frames_mod.lr_classify(frame, tol)
    if v_rep is None:
        raise ValueError(f"frame {frame.name!r} admits no right action, so no symmetries: " + report["reason"])
    return v_rep


def reorient(s: Scenario, frame_name: str, g, obs: RelObs, tol: Tolerance = DEFAULT_TOL) -> RelObs:
    """Frame reorientation by g: conjugation with V_R(g) x 1, shifting the orbit label; leader rows stay held."""
    frame = s.frame(frame_name)
    if obs.frame_name != frame_name:
        raise ValueError("observable was built relative to another frame")
    v_rep = ensure_lr(frame, tol)
    el = frame.rep.element(g)
    return RelObs(
        op=_right_conjugate(s.dims, s.frame_slot(frame_name), v_rep, el, obs.op),
        frame_name=frame_name,
        orientation=groups.compose(obs.orientation, groups.inverse(el)),
        source=obs.source,
        scenario=s,
    )


def reorientation_check(
    s: Scenario, frame_name: str, g1, g, f_s: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[RelObs, Check]:
    """Reorient F_{f_S}(g1) by g; return it and the check that it is F_{f_S} built at the new orientation."""
    moved = reorient(s, frame_name, g, relational_observable(s, frame_name, g1, f_s, tol), tol)
    direct = relational_observable(s, frame_name, moved.orientation, f_s, tol)
    return moved, tol.check("reorientation_orbit", _distance(moved, direct), float(np.abs(f_s).max(initial=0.0)),
                            s.kin_dim)


def _distance(moved: RelObs, direct: RelObs) -> float:
    """||F_moved - F_direct||_F.  Two held observables are subtracted as held and the difference measured as held; a
    held ``direct`` beside a dense ``moved`` is gathered into the array that takes the difference, so no third
    kin x kin array is formed.  y - x = -(x - y) exactly, so the norm has the bits of the plain difference."""
    if isinstance(direct.op, np.ndarray):
        return float(np.linalg.norm(moved.matrix - direct.op))
    if not isinstance(moved.op, np.ndarray):
        return (direct.op - moved.op).norm()
    diff = densify(direct.op)
    diff -= moved.matrix
    return float(np.linalg.norm(diff))


def _require_ideal(frame) -> np.ndarray:
    """Orbit states of an ideal (regular-representation) frame, as columns; orthonormal, since for the
    square orbit matrix O, ||O^dag O - 1|| = ||O O^dag - 1|| is the resolution residual ``make_frame`` bounds."""
    if not frame.rep.is_finite:
        raise ValueError("relation-conditional reorientations need finite regular frames")
    if frame.dim != frame.rep.group.order:
        raise ValueError(f"frame {frame.name!r} is not a regular-representation frame")
    return frame.orbit.T


def tautological_relobs(s: Scenario, frame_name: str, g, values) -> RelObs:
    """F_{Q,R}(g) = Q(g) 1 for a frame-configuration observable Q = sum Q(g)|g><g|."""
    frame = s.frame(frame_name)
    vals = np.asarray(values, dtype=complex).reshape(-1)
    if not frame.rep.is_finite or vals.size != frame.rep.group.order:
        raise ValueError("need one value per group element of a finite frame")
    el = frame.rep.element(g)
    return RelObs(
        op=complex(vals[el.index]) * np.eye(s.kin_dim, dtype=complex),
        frame_name=frame_name,
        orientation=el,
        source=np.diag(vals),
        scenario=s,
        family=lambda h: complex(vals[frame.rep.element(h).index]) * np.eye(s.kin_dim, dtype=complex),
    )


def _conjugate_slot(dims: list[int], slot: int, v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(v x 1) m (v x 1)^dag for v on one slot: v on the rows, then conj(v) on the columns, read over (rows, dims)."""
    vm = (v @ slot_view(m, dims, slot)).reshape(m.shape)
    return (np.conj(v) @ slot_view(vm, [m.shape[0]] + list(dims), slot + 1)).reshape(m.shape)


def _right_conjugate(dims: list[int], slot: int, v_rep, g, m: np.ndarray | reps.OrbitMeans):
    """(V_R(g) x 1) m (V_R(g) x 1)^dag with V_R on one slot.

    When V_R is a permutation rep (the regular frames), this permutes the slot's
    index on both sides of m: one gather, m[q][:, q] with q the inverse permutation.
    V_R commutes with the frame's left action, so q maps pair orbits to pair orbits, and leader rows are
    reread, each held entry at its image under q; otherwise they are densified.
    """
    sigma = reps.permutation_table(v_rep)
    if sigma is None:
        return _conjugate_slot(dims, slot, v_rep.evaluate(g), densify(m))
    q = slot_view(np.arange(math.prod(dims)), dims, slot)[:, np.argsort(sigma[v_rep.element(g).index])].reshape(-1)
    return m[np.ix_(q, q)] if isinstance(m, np.ndarray) else m.read(*(q[k] for k in m.leaders()))


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

    The default (modified) form maps every relational observable relative to
    frame 1 -- tautological ones included -- to its counterpart relative to
    frame 2; ``modified=False`` is the unital conjugation form, which fixes
    tautological observables.  Both read their targets from the right action,
    F(h g^-1) = (V_R(g) x 1) F(h) (V_R(g) x 1)^dag: the modified target
    F(g2 g'^-1) is ``obs.matrix`` conjugated by V_R(k), k = g' g2^-1 o, o the
    observable's orientation, and the unital one takes g1 in place of o.  In the
    frames' orbit coordinates, m = (O1 x O2)^dag M (O1 x O2), V_R(k)|phi(h)> =
    |phi(h k^-1)> relabels frame 1's orbit label, so a target is m[q][:, q] with
    q taking label h to h k; V_R itself is never evaluated.  The modified form
    rotates an observable's own ``family`` where it has one, as tautological
    observables do.  The projector onto relative orientation g' keeps the rows
    with orbit labels b = a g'; these partition the rows, so the sum is rotated
    back once.  When the operand is held as leader rows and has no family to
    rotate, and both orbit matrices are exact permutations (identity-ket and
    other basis-ket seeds), the output is held too: it is invariant, every
    entry is a copy of an operand entry, and each held entry is read at its
    leader-row position through the relabelling of that row (``_held_targets``).
    """
    if frame1 == frame2:
        raise ValueError("relation-conditional reorientation needs two distinct frames")
    f1, f2 = s.frame(frame1), s.frame(frame2)
    orbit1, orbit2 = _require_ideal(f1), _require_ideal(f2)
    if obs.frame_name != frame1:
        raise ValueError("operand must be a relational observable relative to the first frame")
    ensure_lr(f1, tol)
    group = f1.rep.group
    slot1, slot2 = s.frame_slot(frame1), s.frame_slot(frame2)
    g2_el = f2.rep.element(g2)
    anchor = f1.rep.element(obs.orientation if modified else g1).index

    shift = group.mult(group.inverse(g2_el.index), anchor)  # a target's k is g' shift
    family = obs.family if modified else None
    perms = [reps._exact_permutation(orbit) for orbit in (orbit1, orbit2)]
    if family is None and not isinstance(obs.op, np.ndarray) and all(p is not None for p in perms):
        return RelObs(op=_held_targets(s.dims, (slot1, slot2), perms, group, shift, obs.op), frame_name=frame2,
                      orientation=g2_el, source=obs.source, scenario=s)

    def to_orbits(a):  # (O1 x O2)^dag a (O1 x O2), one slot and side at a time; rebinding a frees each step's input
        for slot, orbit in ((slot1, orbit1), (slot2, orbit2)):
            a = (dagger(orbit) @ slot_view(a, s.dims, slot)).reshape(a.shape)
        for slot, orbit in ((slot1, orbit1), (slot2, orbit2)):
            a = (orbit.T @ slot_view(a, [s.kin_dim] + s.dims, slot + 1)).reshape(a.shape)
        return a

    m = None if family is not None else to_orbits(densify(obs.op))
    labels = np.unravel_index(np.arange(s.kin_dim), s.dims)  # each row's index on every slot: its orbit labels
    out = np.zeros((s.kin_dim, s.kin_dim), dtype=complex)
    for gp in group.elements():
        keep = labels[slot2] == group.product_table[labels[slot1], gp]
        if family is not None:
            out[keep] = to_orbits(family(f1.rep.element(group.mult(g2_el.index, group.inverse(gp)))))[keep]
        else:
            k = group.mult(gp, shift)
            q = slot_view(np.arange(s.kin_dim), s.dims, slot1)[:, group.product_table[:, k]].reshape(-1)
            out[keep] = m[np.ix_(q[keep], q)]
    del m  # out is rotated back here, not in a helper whose caller would keep it alive: two kin^2 arrays at a time
    for slot, orbit in ((slot1, orbit1), (slot2, orbit2)):
        out = (orbit @ slot_view(out, s.dims, slot)).reshape(out.shape)
    for slot, orbit in ((slot1, orbit1), (slot2, orbit2)):
        out = (np.conj(orbit) @ slot_view(out, [s.kin_dim] + s.dims, slot + 1)).reshape(out.shape)
    return RelObs(op=out, frame_name=frame2, orientation=g2_el, source=obs.source, scenario=s)


def _held_targets(dims: list[int], slots: tuple[int, int], perms: list[np.ndarray], group, shift: int,
                  m: reps.OrbitMeans) -> reps.OrbitMeans:
    """The relation-conditional sum as leader rows, when the orbit matrices are the permutations O e_h = e_{p[h]}.

    Entry (i, j) of the sum is m's entry at (r(i), r(j)), where r relabels frame 1's index c by p1[p1^-1[c] k],
    k = g' ``shift``, and g' = a^-1 b is row i's relative orientation, a and b its orbit labels on the two frames;
    read at each held entry of the leader rows, one read per entry.
    """
    (slot1, slot2), (p1, p2), table = slots, perms, group.product_table
    inv1, inv2 = np.argsort(p1), np.argsort(p2)
    (stride1, stride2), (d1, d2) = (math.prod(dims[slot + 1:]) for slot in slots), (dims[slot1], dims[slot2])
    rows, cols = m.leaders()
    k = table[table[group.inverse_table[inv1[rows // stride1 % d1]], inv2[rows // stride2 % d2]], shift]

    def relabelled(x):  # x with its frame-1 index c replaced by p1[p1^-1[c] k]
        c = x // stride1 % d1
        return x + (p1[table[inv1[c], k]] - c) * stride1

    return m.read(relabelled(rows), relabelled(cols))


def _identity_on(s: Scenario, frame_name: str, other: str, small: np.ndarray) -> np.ndarray:
    """1 on frame ``other``'s slot x ``small`` on the rest of ``frame_name``'s complement, in the complement's order."""
    slot, pos = s.frame_slot(frame_name), s.frame_slot(other)
    dims = [d for i, d in enumerate(s.dims) if i != slot]
    pos -= pos > slot  # position of ``other`` in the complement
    return embed_on_slot(dims, pos, np.eye(dims[pos]), small)


def relation_conditional_check(
    s: Scenario, frame1: str, g1, frame2: str, g2, small: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> Check:
    """The modified relation-conditional reorientation maps F_{f,R1}(g1) to F_{f,R2}(g2).

    f is ``small`` on the systems besides the two frames, with the identity on
    the other frame, so it is the same system observable relative to either.  The operand lives only through the
    reorientation, so the direct observable's construction holds ``moved`` beside it, not the operand too.
    """
    moved = relation_conditional_reorient(
        s, frame1, g1, frame2, g2, relational_observable(s, frame1, g1, _identity_on(s, frame1, frame2, small), tol),
        True, tol)
    direct = relational_observable(s, frame2, g2, _identity_on(s, frame2, frame1, small), tol)
    return tol.check("relation_conditional_reorient", _distance(moved, direct), float(np.abs(small).max(initial=0.0)),
                     s.kin_dim)


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


def _overlap_dim(q1: np.ndarray, q2: np.ndarray, tol: Tolerance) -> int:
    """dim(span Q1 & span Q2) = k2 - rank((1 - Q1 Q1^dag) Q2) for orthonormal Q1, Q2 (= k1 + k2 - rank[Q1 Q2]).

    A rank, not a count of cosines near 1: 1 - cos is quadratic in the angle, so a
    cut on it at the tolerance would sit below double-precision resolution.
    """
    return q2.shape[1] - orthonormal_range(q2 - q1 @ (dagger(q1) @ q2), tol).dim


def _target_blocks(s: Scenario, ps: PhysicalSpace, frame_name: str, target_slot: int) -> np.ndarray:
    """C_e of the frame as (d_t, rest, n_phys) blocks: c[i] = C_i, the target-row-i block."""
    slot_f = s.frame_slot(frame_name)
    if target_slot == slot_f:
        raise ValueError("target subsystem coincides with the frame")
    c = densify(conditioning_map(ps, frame_name, s.frame(frame_name).rep.identity_element()))
    d_t = s.dims[target_slot]
    view = slot_view(c, [d for i, d in enumerate(s.dims) if i != slot_f], target_slot - (target_slot > slot_f))
    return np.moveaxis(view, 1, 0).reshape(d_t, c.shape[0] // d_t, ps.dim)


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
    c = _target_blocks(s, ps, frame_name, target_slot)
    fam = np.einsum("irp,jrq->ijpq", np.conj(c), c, optimize=True)
    return list(fam.reshape(-1, ps.dim, ps.dim))


def _matrix_unit_algebra(c: np.ndarray, tol: Tolerance) -> float | None:
    """The commutation bound if the target blocks c of C_e factorise, else None.

    See ``subsystem_relativity_report`` for the block test and the bound.  When it passes, the
    vec(F_ij) sqrt(d_t/n) are an orthonormal basis of span{1, F_ij} up to the Delta it bounds.
    """
    d_t, r, n = c.shape
    flat = c.reshape(-1, n)
    pi = (flat @ dagger(flat)).reshape(d_t, r, d_t, r)
    pi[range(d_t), :, range(d_t), :] -= np.einsum("iris->rs", pi) / d_t  # Delta = Pi - 1_t x P, in place
    delta = float(np.linalg.norm(pi))
    g = dagger(flat) @ flat
    g_norm, defect = float(np.linalg.norm(g, 2)), float(np.linalg.norm(g - np.eye(n)))
    if g_norm * delta > tol.weighted(1.0) or defect > tol.weighted(1.0):
        return None
    return 2.0 * g_norm * (2.0 * delta + defect)


def _block_overlap_dim(c1: np.ndarray, c2: np.ndarray, tol: Tolerance) -> int:
    """``_overlap_dim`` of the frames' bases vec(F_ij) sqrt(d_t/n), from the cross Gram of their target blocks."""
    d_t, _, n = c1.shape
    m = np.einsum("irp,kqp->ikrq", c1, np.conj(c2), optimize=True)
    gram = np.einsum("ikrq,jlrq->ijkl", m, np.conj(m), optimize=True).reshape(d_t**2, d_t**2) * (d_t / n)
    _, cos, vh = np.linalg.svd(gram)
    sines = np.sqrt(np.maximum(1.0 - cos**2, 0.0))
    near = np.flatnonzero(sines <= 1e-4)  # above it, sqrt(1 - c^2) errs by about eps / sine <= 2.2e-12
    def rows_of(c, x, rows):  # rows of sum_kl x_kl C_k^dag C_l = C^dag (x x 1) C: ((x^dag x 1) C[:, :, rows])^dag C
        moved = dagger(x.reshape(d_t, d_t)) @ c[:, :, rows].reshape(d_t, -1)
        return dagger(moved.reshape(-1, rows.size)) @ c.reshape(-1, n)
    r = np.zeros((0, near.size), dtype=complex)  # the residuals' R factor, stacked 2^18 entries at a time
    for rows in np.array_split(np.arange(n), -(-near.size * n * n // 2**18)) if near.size else ():
        block = [rows_of(c2, x, rows) - rows_of(c1, gram @ x, rows) for x in np.conj(vh[near])]
        r = np.linalg.qr(np.vstack([r, np.stack(block, axis=-1).reshape(-1, near.size)]), mode="r")
    sines[near] = np.linalg.svd(r, compute_uv=False) * np.sqrt(d_t / n)
    return d_t**2 - _rank((n * n, d_t**2), np.sort(sines)[::-1], tol)


def subsystem_relativity_report(
    s: Scenario,
    frame1: str,
    frame2: str,
    tol: Tolerance = DEFAULT_TOL,
) -> dict:
    """Compare the relational-observable subalgebras defined by two frames.

    Restricted to the physical basis, reports (a) whether frame-2 and system
    observables relativized to frame 1 commute, (b) whether the two system
    subalgebras coincide, and (c) their overlap dimension.  ``check`` is (a)
    as a check.

    Ideal frames make F_ij = C_i^dag C_j matrix units.  With Pi = C C^dag as
    (d_t, r, d_t, r) blocks, P = sum_j Pi_jj / d_t, Delta = Pi - 1_t x P,
    G = C^dag C and E = (1_t x P - 1) C = C (G - 1) - Delta C, the defects
    F_ij F_kl - delta_jk F_il = C_i^dag (Delta_jk C_l + delta_jk E_l) and
    1 - sum_i F_ii = 1 - G sit far below ``_generate_algebra``'s product cut
    when ||G||_2 ||Delta||_F and ||G - 1||_F pass tol; each algebra is then
    span{1, F_ij} with no product sweep.  For X on frame 2 and Y on the system,
    [C^dag X C, C^dag Y C] = C^dag (X Delta Y - Y Delta X) C + C^dag X Y E -
    E^dag X Y C, so the residual is the bound 2 ||G||_2 (2 ||Delta||_F + ||G - 1||_F).
    The overlap needs no n^2-sized basis: the cosines of the principal angles are the singular values
    of the cross Gram <F1_ij, F2_kl> d_t/n = tr(M_ik M_jl^dag) d_t/n, M_ik = C1_i C2_k^dag (Bjorck &
    Golub, Math. Comp. 27, 1973).  Sines above 1e-4 are sqrt(1 - c^2); the rest, which a cosine squares
    away, are the singular values of the residuals sum_kl x_kl F2_kl - sum_ij (G x)_ij F1_ij of their
    right singular vectors x.  Otherwise the algebras are grown and the residual is the largest commutator.
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
    slot1, slot2 = s.frame_slot(frame1), s.frame_slot(frame2)
    dims = s.dims
    sys_slots = [i for i in range(len(dims)) if i not in (slot1, slot2)]
    if not sys_slots:
        raise ValueError("need a system subsystem besides the two frames")
    sys_slot = sys_slots[0]
    blocks = [_target_blocks(s, ps, f, sys_slot) for f in (frame1, frame2)]
    comm, closed2 = (_matrix_unit_algebra(c, tol) for c in blocks)
    if comm is not None and closed2 is not None:
        alg_dims = (dims[sys_slot] ** 2,) * 2
        overlap = _block_overlap_dim(*blocks, tol)
    else:
        fams = [restricted_unit_family(s, ps, f, sys_slot) for f in (frame1, frame2)]
        ys = np.stack(fams[0])
        x_all = restricted_unit_family(s, ps, frame1, slot2)
        comm = max(float(np.linalg.norm(x @ ys - ys @ x, axis=(1, 2)).max()) for x in x_all)
        alg1, alg2 = (_generate_algebra(fam, tol) for fam in fams)
        alg_dims = (int(alg1.shape[1]), int(alg2.shape[1]))
        overlap = _overlap_dim(alg1, alg2, tol)
    commuting = tol.check("relativized_commutation", comm, 1.0, ps.dim)
    return {
        "degenerate": False, "frame1": frame1, "frame2": frame2,
        # (a) commutation of the frame-2 and system observables relative to frame 1
        "relativized_commutant_residual": comm, "commuting_pass": commuting.passed,
        # (b), (c) distinctness of the two relativizations of the system algebra
        "algebra_dims": alg_dims, "overlap_dim": int(overlap), "coincide": overlap == alg_dims[0] == alg_dims[1],
        "check": commuting,
    }
