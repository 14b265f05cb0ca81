"""Jumping into a frame perspective.

Every reduction is built from the conditioning contraction (<phi| x 1),
``Scenario.condition_vector``, and its adjoint, ``inject_vector``, on one frame
vector or on a stack of them.  Schroedinger reduction conditions gauge-invariant
states on a frame orientation through ``perspective.condition_on``, which attaches
the sqrt(Vol) scale; it is then an isometry from the physical space onto the
physical system subspace.  ``schrodinger_map``, C_g as it is held behind the
one round-trip gate ||C_g^dag C_g - 1||_F <= ``tol.bound(1, n_phys)``, is
re-exported from ``perspective``; when C_g is held by index and weight
(``linalg.Monomial``), ``schrodinger_inverse`` reads C_g^dag v and C_g x as a
gather and a scatter.  The Heisenberg route first disentangles the frame into a
reproducing-phase state |theta>, available whenever such phases exist (N = 1 or
another one-dimensional character for finite groups, by Fourier scan for U(1);
SU(2) frames report NotFound).  T_R and the trinity relation U_S(g)^dag C_g psi
= psi_Heisenberg are each one contraction over the orientations: one stacked
conditioning, U_S(g)^dag as the complement's own action at g^-1 (``reps._act``),
and for T_R one stacked injection; no per-element term and no dense U_S(g).
Probabilities cross-check the reduced Born value against <v| F_E(g) |v> on H_phys: on a charge-held rep x^dag P x,
x = B^dag v and P = B^dag F_E(g) B the weight-0 block of the twirl the weak homomorphism check restricts
(``perspective._twirled``), as physical vectors have weight 0; finite and SU(2) reps apply their held twirl to v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups, reps
from .frames import Frame, validity_bound
from .linalg import DEFAULT_TOL, Check, Tolerance, as_cmatrix, as_cvector, dagger, densify
from .perspective import (
    PhysicalSpace,
    Scenario,
    _twirled,
    condition_on,
    condition_on_each,
    conditioning_map,
    sample_elements,
    schrodinger_map,
)

__all__ = [
    "ThetaState",
    "ThetaNotFound",
    "schrodinger_reduce",
    "isometry_check",
    "schrodinger_inverse",
    "schrodinger_map",
    "conditional_probability",
    "multi_event_probability",
    "solve_theta",
    "disentangler",
    "heisenberg_reduce",
    "trinity_check",
    "product_form_check",
    "unit_interval_check",
]

@dataclass
class ThetaState:
    """Reproducing-phase frame state |theta> = sum_g w_g N(g) |phi(g)>."""

    frame_name: str
    vector: np.ndarray
    phases: np.ndarray | None = None  # finite groups: N(g) per element
    fourier_k: int | None = None      # U(1): N(theta) = exp(i k theta)
    residual: float = 0.0

    def phases_at(self, frame: Frame, elements) -> np.ndarray:
        """N(g) at each of ``elements``."""
        at = reps._elements(frame.rep, elements)
        return self.phases[at] if self.phases is not None else np.exp(1j * self.fourier_k * at[:, 0])


@dataclass
class ThetaNotFound:
    reason: str
    residual: float | None = None


def schrodinger_reduce(ps: PhysicalSpace, frame_name: str, g, psi_phys) -> np.ndarray:
    """sqrt(Vol_frame) (<phi(g)| x 1) psi_phys; an isometry on the physical space."""
    return condition_on(ps.scenario, frame_name, g, ps.require(psi_phys))


def isometry_check(
    ps: PhysicalSpace, frame_name: str, g, psi_phys, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, Check]:
    """The Schroedinger reduction of a physical state, and the check that it keeps the state's norm."""
    reduced = schrodinger_reduce(ps, frame_name, g, psi_phys)
    norm = float(np.linalg.norm(psi_phys))
    return reduced, tol.check("isometry", abs(np.linalg.norm(reduced) - norm), norm, reduced.size)


def schrodinger_inverse(
    ps: PhysicalSpace,
    frame_name: str,
    g,
    psi_s,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Map a physical system state back to the perspective-neutral space: B (C_g^dag psi_S); C_g^dag psi_S and
    C_g x are a gather and a scatter when C_g is a monomial, and B x one when B is held by its labels."""
    v = as_cvector(psi_s)
    c = conditioning_map(ps, frame_name, g)
    coeff = dagger(c) @ v
    resid = float(np.linalg.norm(c @ coeff - v))
    if resid > 1e4 * tol.weighted(np.linalg.norm(v)):
        raise ValueError(
            f"state lies outside the physical system subspace of frame {frame_name!r} "
            f"(projection residual {resid:.3e})"
        )
    return ps.basis @ coeff


def _check_projector(s: Scenario, frame_name: str, e: np.ndarray, tol: Tolerance) -> np.ndarray:
    """``e`` as a validated array, once: it must act on the frame's complement, as ``relational_observable`` says,
    and its Hermiticity and idempotence residuals must pass 1e4 tol.weighted(1), floored at the rounding
    bound of a dim-sized check as the frame input gates are, so a rounded projector passes at tolerance 0."""
    e, comp_dim = as_cmatrix(e), s.complement_dim(frame_name)
    if e.shape != (comp_dim, comp_dim):
        raise ValueError(f"system observable must act on the {comp_dim}-dim complement of frame {frame_name!r}")
    gate = max(1e4 * tol.weighted(1.0), tol.bound(1.0, e.shape[0]))
    if _residual_norm(np.conj(e.T, order="C"), e) > gate or _residual_norm(e @ e, e) > gate:
        raise ValueError("expected a Hermitian idempotent projector")
    return e


def _residual_norm(r: np.ndarray, e: np.ndarray) -> float:  # ||r - e||_F in place, r freed before the next
    r -= e
    return float(np.sqrt(np.vdot(r, r).real))


def conditional_probability(ps: PhysicalSpace, frame_name: str, g, projector_e: np.ndarray, psi_phys,
                            tol: Tolerance = DEFAULT_TOL) -> float:
    """P(E when the frame is in orientation g), cross-checked gauge-invariantly against <v| F_E(g) |v>, read on
    H_phys where the rep is charge-held (``_relational``).

    A value outside [0, 1] by more than rounding means a mis-scaled frame or
    state and raises; within that band it is clamped.
    """
    s = ps.scenario
    e = _check_projector(s, frame_name, projector_e, tol)
    v = ps.require(psi_phys)
    v = v / np.linalg.norm(v)
    reduced = condition_on(s, frame_name, g, v)
    p_reduced = float(np.real(np.vdot(reduced, e @ reduced)))
    x, rel = _relational(ps, frame_name, v, tol)
    p_invariant = float(np.real(np.vdot(x, rel(g, e) @ x)))  # F_E(g), from the checked E
    if not tol.check("gauge_invariance", abs(p_reduced - p_invariant), 1.0, s.kin_dim).passed:
        raise ValueError(f"gauge-invariance cross-check failed: {p_reduced} vs {p_invariant}")
    in_range = unit_interval_check(p_reduced, tol)
    if not in_range.passed:
        raise ValueError(f"conditional probability {p_reduced} lies outside [0, 1] by {in_range.residual:.3e}")
    return min(max(p_reduced, 0.0), 1.0)


def unit_interval_check(p: float, tol: Tolerance = DEFAULT_TOL) -> Check:
    """How far a probability lies outside [0, 1]."""
    return tol.check("probability_in_unit_interval", max(0.0, -p, p - 1.0))


def multi_event_probability(ps: PhysicalSpace, frame_name: str, event: tuple[np.ndarray, object],
                            condition: tuple[np.ndarray, object], psi_phys, tol: Tolerance = DEFAULT_TOL) -> float:
    """P(E at g | E~ at g~) = <v| F_c F_E F_c |v> / <v| F_c |v> on physical states, F_c = F_E~(g~): on a charge-held
    rep x^dag P_c P_E P_c x / x^dag P_c x with n_phys-sized physical blocks (``_relational``)."""
    (e, g), (e_cond, g_cond), s = event, condition, ps.scenario
    e, e_cond = (_check_projector(s, frame_name, x, tol) for x in (e, e_cond))
    v = ps.require(psi_phys)
    v = v / np.linalg.norm(v)
    x, rel = _relational(ps, frame_name, v, tol)
    f_e, f_c = rel(g, e), rel(g_cond, e_cond)  # F_E, from the checked E
    denom = float(np.real(np.vdot(x, f_c @ x)))
    if denom <= 1e4 * tol.weighted(1.0):
        raise ValueError("conditioning event has (numerically) zero probability")
    num = float(np.real(np.vdot(x, f_c @ (f_e @ (f_c @ x)))))
    return num / denom


def _relational(ps: PhysicalSpace, frame_name: str, v: np.ndarray, tol: Tolerance):
    """(x, F) with <v| F_E(g) |v> = <x| F(g, E) |x> for a physical v: on a charge-held rep x = B^dag v and F(g, E)
    the twirl's weight-0 block built alone, B^dag F_E(g) B (``perspective._sector_index``); else v and the twirl."""
    if ps.scenario.total_rep.charges is not None:
        return ps.basis.coefficients(v), lambda g, e: _twirled(ps.scenario, frame_name, g, e, tol, True).blocks[0]
    return v, lambda g, e: _twirled(ps.scenario, frame_name, g, e, tol)


# ---------------------------------------------------------------------------
# theta states and the Heisenberg picture
# ---------------------------------------------------------------------------


def _u1_charge_data(frame: Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    wb = reps.weight_basis(frame.rep)
    vecs = np.eye(frame.dim) if wb.vectors is None else wb.vectors
    return wb.weights, vecs, dagger(vecs) @ frame.seed


def solve_theta(frame: Frame, tol: Tolerance = DEFAULT_TOL) -> ThetaState | ThetaNotFound:
    """Search for reproducing phases N(g) for the frame's coherent-state kernel.

    Finite groups: N = 1, then the other one-dimensional characters of the group.
    U(1): Fourier ansatz N(theta) = exp(i k theta), scanning k by |k| and sign.
    Both accept a residual of at most ``validity_bound(1, tol)``, the trinity check's bound or less.
    """
    if frame.rep.is_finite:
        return _solve_theta_finite(frame, tol)
    if frame.group.kind == "U1":
        return _solve_theta_u1(frame, tol)
    return ThetaNotFound(
        reason="no phase search implemented for SU(2) frames; Heisenberg picture unavailable"
    )


def _solve_theta_finite(frame: Frame, tol: Tolerance) -> ThetaState | ThetaNotFound:
    """N = 1, then each other one-dimensional character, if it reproduces K(g, h) = w <phi(g)|phi(h)>.  K is a
    convolution on G, so every character chi is an eigenvector of it, with eigenvalue w sum_u <phi|U(u) phi> chi(u),
    and reproduces K exactly when that is 1.  N = 1 is the fixed point N <- phase(K N) reaches from N = 1."""
    orbit = frame.orbit
    gram = np.einsum("gi,hi->gh", np.conj(orbit), orbit)  # <phi(g)|phi(h)>
    w = frame.element_weight()
    best = np.inf
    for n in groups.characters(frame.rep.group):
        residual = float(np.max(np.abs(w * (gram @ n) - n)))
        if residual <= validity_bound(1, tol):
            theta_vec = w * np.einsum("g,gi->i", n, orbit)
            return ThetaState(frame_name=frame.name, vector=theta_vec, phases=n, residual=residual)
        best = min(best, residual)
    return ThetaNotFound(reason="no one-dimensional character reproduces the coherent-state kernel", residual=best)


def _solve_theta_u1(frame: Frame, tol: Tolerance) -> ThetaState | ThetaNotFound:
    charges, vecs, coeff = _u1_charge_data(frame)
    weights = {q: float(np.sum(np.abs(coeff[charges == q]) ** 2)) for q in set(charges.tolist())}
    q_max = int(np.max(np.abs(charges)))
    best_gap = np.inf
    for k in sorted(range(-q_max, q_max + 1), key=lambda k: (abs(k), k < 0)):
        gap = abs(frame.weight_scale * weights.get(-k, 0.0) - 1.0)
        best_gap = min(best_gap, gap)
        if gap <= validity_bound(1, tol):
            mask = charges == -k
            theta_vec = frame.weight_scale * (vecs[:, mask] @ coeff[mask])
            return ThetaState(frame_name=frame.name, vector=theta_vec, fourier_k=k, residual=gap)
    return ThetaNotFound(
        reason="no integer Fourier phase satisfies the reproducing equality",
        residual=float(best_gap),
    )


def disentangler(s: Scenario, frame_name: str, theta: ThetaState, m: np.ndarray) -> np.ndarray:
    """T_R m for a kinematical vector or matrix m; T_R = Vol int dg N(g) |phi(g)><phi(g)| x U_S(g)^dag is never formed.

    Finite frames condition m on the whole orbit at once, apply U_S(g)^dag to each conditioned stack by the
    complement's own action (``reps._act`` at the inverse elements), and inject the stack against w N(g) phi(g):
    three steps, no per-element term.  U(1) frames evaluate the integral exactly through the charge algebra: in the
    frame's weight basis (v_i, seed coefficients c_i, charges q_i) it is Vol sum_ij c_i conj(c_j) |v_i><v_j| x
    P_{k + q_i - q_j}, with P_q the complement's charge-q projector, a mask in its weight coordinates; m is
    conditioned on every v_j at once, the masks contract the pairs in one product, and the v_i inject as a stack.
    """
    frame = s.frame(frame_name)
    if theta.frame_name != frame.name:
        raise ValueError("theta state belongs to a different frame")
    comp = s.complement_rep(frame_name)
    m = np.asarray(m, dtype=complex)
    if frame.rep.is_finite:
        if theta.phases is None:
            raise ValueError("finite frame needs per-element phases")
        moved = reps._act(comp, frame.group.inverse_table, s.condition_vector(frame_name, frame.orbit, m))
        return s.inject_vector(frame_name, (frame.element_weight() * theta.phases)[:, None] * frame.orbit, moved)
    if frame.group.kind != "U1":
        raise ValueError("disentangler supports finite-group and U(1) frames")
    if theta.fourier_k is None:
        raise ValueError("U(1) frame needs a Fourier phase label")
    charges, vecs, coeff = _u1_charge_data(frame)
    wb = reps.weight_basis(comp)
    w, cols = wb.vectors, m[:, None] if m.ndim == 1 else m
    x = s.condition_vector(frame_name, vecs.T, cols)  # (j, complement, column), to complement weight coordinates
    x = x if w is None else dagger(w) @ x
    mask = wb.weights == theta.fourier_k + charges[:, None, None] - charges[None, :, None]  # (i, j, weight)
    chi = np.einsum("ijr,jrc->irc", (coeff[:, None] * np.conj(coeff))[:, :, None] * mask, x)
    out = s.inject_vector(frame_name, vecs.T, chi if w is None else w @ chi)
    return (frame.weight_scale * out).reshape(m.shape)


def heisenberg_reduce(ps: PhysicalSpace, frame_name: str, theta: ThetaState, psi_phys,
                      tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Disentangle, then condition on the identity; one stacked conditioning on the identity and the sampled
    orientations verifies that the result is g-independent."""
    s = ps.scenario
    frame = s.frame(frame_name)
    elements = [frame.rep.identity_element()] + sample_elements(frame.group, 8)
    tv = disentangler(s, frame_name, theta, ps.require(psi_phys))
    candidates = np.conj(theta.phases_at(frame, elements))[:, None] * condition_on_each(s, frame_name, elements, tv)
    worst = float(np.max(np.linalg.norm(candidates[1:] - candidates[0], axis=1)))
    if not _trinity(s, frame_name, worst, tol).passed:
        raise ValueError(
            f"Heisenberg reduction depends on the conditioning orientation ({worst:.3e}); "
            "theta state is not reproducing for this frame"
        )
    return candidates[0]


def _trinity(s: Scenario, frame_name: str, residual: float, tol: Tolerance) -> Check:
    """A residual between unit-norm reduced states, on the frame's complement."""
    return tol.check(f"{frame_name}:trinity_heisenberg_vs_schrodinger", residual, 1.0, s.complement_dim(frame_name))


def trinity_check(ps: PhysicalSpace, frame_name: str, theta: ThetaState, psi, tol: Tolerance = DEFAULT_TOL) -> Check:
    """max_g ||U_S(g)^dag C_g psi - psi_Heisenberg|| for a unit physical state psi: the trinity of reductions, with
    every sampled C_g psi from one stacked conditioning and U_S(g)^dag the complement's action at g^-1."""
    s = ps.scenario
    heis = heisenberg_reduce(ps, frame_name, theta, psi, tol)
    comp, elements = s.complement_rep(frame_name), sample_elements(s.frame(frame_name).group, 8)
    moved = reps._act(comp, reps._inverses(comp, elements), condition_on_each(s, frame_name, elements, ps.require(psi)))
    return _trinity(s, frame_name, float(np.max(np.linalg.norm(moved - heis, axis=1))), tol)


def product_form_check(ps: PhysicalSpace, frame_name: str, theta: ThetaState, tol: Tolerance = DEFAULT_TOL) -> Check:
    """max_k ||T_R B e_k - |theta> x C_e e_k / sqrt(Vol)|| over the physical basis columns, one block of about 2^16
    kinematical amplitudes at a time, each read from B as it is held: no kin x n_phys stack is formed."""
    s = ps.scenario
    frame = s.frame(frame_name)
    c_e = densify(conditioning_map(ps, frame_name, frame.rep.identity_element())) / np.sqrt(frame.weight_scale)
    step, resid = max(1, 2**16 // s.kin_dim), 0.0
    for lo in range(0, ps.dim, step):
        diff = disentangler(s, frame_name, theta, ps.basis.columns(lo, lo + step))
        diff -= s.inject_vector(frame_name, theta.vector, c_e[:, lo:lo + step])
        resid = max(resid, float(np.max(np.linalg.norm(diff, axis=0), initial=0.0)))
    return tol.check(f"{frame_name}:disentangler_product_form", resid, 1.0, s.kin_dim)
