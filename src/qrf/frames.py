"""Coherent-state reference frames.

A frame is a unitary representation plus a seed state whose orbit resolves
the identity under the frame's own Haar normalization: the measure is scaled
so the resolution constant is 1, which makes the total group volume equal
dim(H_R) for a normalized seed (per-element weight w = dim/|G| for finite
groups).  A finite frame is its orientation orbit: ``Frame.orbit``, the
(|G|, dim) array of the coherent states phi(g) = U(g) phi, formed once, is
where every orientation state, isotropy test, POVM effect, theta search and
orbit coordinate reads them.  The frame operators that the paper writes as
integrals over orientations are the resolution residual
||Vol twirl(|phi><phi|) - 1||, a single group average, and, when it exists,
the right action V_R(g) with V_R(g)|phi(h)> = |phi(h g^-1)>: for a finite
frame V_R(g) = w sum_h |phi(h g^-1)><phi(h)|, one contraction of the orbit
with its right-shifted rows, and for a Lie frame the generators
-Vol twirl(K_a |phi><phi|).  Every frame, finite or Lie, is
validated by the residual against ``validity_bound``, which is never looser
than the report's check of that residual; a Lie frame that fails it gets a
per-block (multiplicity and Schmidt-uniformity) report naming the failing
block.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import reps
from .groups import Subgroup
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_cvector,
    dagger,
    fix_phase,
    nullspace,
)
from .reps import UnitaryRep, isotypic_decompose

__all__ = [
    "Frame",
    "PovmEffect",
    "ResolutionFails",
    "make_frame",
    "orientation_state",
    "isotropy_group",
    "povm_effect",
    "lr_classify",
    "build_lr_seed",
    "resolution_residual",
    "validity_bound",
]


class ResolutionFails(ValueError):
    """Seed orbit does not resolve the identity; carries the block diagnosis."""

    def __init__(self, message: str, block_report: list[dict] | None = None):
        super().__init__(message)
        self.block_report = block_report or []


@dataclass(eq=False)
class Frame:
    """A validated coherent-state frame; treat as immutable."""

    name: str
    rep: UnitaryRep
    seed: np.ndarray
    weight_scale: float  # Vol(G) under this frame's measure = dim(H_R)
    isotropy: Subgroup
    resolution_residual: float  # ||Vol twirl(|phi><phi|) - 1||_F, at most validity_bound(dim, tol)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def group(self):
        return self.rep.group

    def element_weight(self) -> float:
        """Per-element measure weight for finite groups (dim/|G|)."""
        if not self.rep.is_finite:
            raise ValueError("per-element weights only exist for finite groups")
        return self.weight_scale / self.rep.group.order

    def orientation(self, g) -> np.ndarray:
        return orientation_state(self, g)

    @functools.cached_property
    def orbit(self) -> np.ndarray:
        """Row g is phi(g) = U(g) phi, for a finite frame: its (|G|, dim) orientation states, formed once, on a
        table-held rep by scattering the seed with no dense matrix.  Read-only, since ``orientation_state`` hands
        out its rows as views."""
        orbit = reps._act(self.rep, np.arange(self.group.order), self.seed[None])
        orbit.flags.writeable = False
        return orbit


@dataclass(frozen=True)
class PovmEffect:
    subset: tuple[int, ...]
    matrix: np.ndarray


def validity_bound(dim: int, tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest residual a frame (its resolution, of dimension ``dim``) or a theta search (dim 1) accepts:
    1e-8 dim, but never looser than the check bound ``tol.bound(1, dim)``, so what is accepted passes its check."""
    return min(1e-8 * dim, tol.bound(1.0, dim))


def _input_gate(tol: Tolerance, dim: int = 1) -> float:
    """A frame input gate, 1e3 tol.weighted(1), floored at the rounding bound of a dim-sized check."""
    return max(1e3 * tol.weighted(1.0), tol.bound(1.0, dim))


def resolution_residual(rep: UnitaryRep, seed: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
    """||Vol twirl(|phi><phi|) - 1||_F with Vol = dim: how far the seed's orbit is from resolving 1."""
    twirl = reps.group_average(rep, np.outer(seed, np.conj(seed)), "twirl", float(rep.dim), tol)
    return float(np.linalg.norm(twirl - np.eye(rep.dim)))


def _lie_block_report(rep: UnitaryRep, seed: np.ndarray, tol: Tolerance) -> list[dict]:
    """Per-isotypic-block resolution diagnosis (multiplicity bound and Schmidt
    uniformity of the seed across each block)."""
    deco = isotypic_decompose(rep, tol)
    report = []
    for block in deco.blocks:
        d, m = block.irrep_dim, block.multiplicity
        coeff = _block_seed_matrix(block, seed)
        gram = dagger(coeff) @ coeff
        target = (d / rep.dim) * np.eye(m)
        deviation = float(np.linalg.norm(gram - target))
        report.append({"label": block.label, "irrep_dim": d, "multiplicity": m, "multiplicity_ok": m <= d,
                       "schmidt_deviation": deviation, "schmidt_ok": deviation <= _input_gate(tol, m)})
    return report


def make_frame(
    rep: UnitaryRep,
    seed,
    name: str = "R",
    tol: Tolerance = DEFAULT_TOL,
) -> Frame:
    """Validate (rep, seed) as a coherent-state frame and attach its measure.

    The frame is valid iff its resolution residual is at most ``validity_bound(dim, tol)``.  A Lie
    frame that fails is diagnosed block by block: multiplicity <= irrep dim,
    and a seed Schmidt-uniform across the block.
    """
    vec = as_cvector(seed)
    if vec.size != rep.dim:
        raise ValueError("seed dimension does not match the representation")
    nrm = float(np.linalg.norm(vec))
    if abs(nrm - 1.0) > _input_gate(tol):
        raise ValueError(f"seed must be normalized, got norm {nrm}")
    vec = fix_phase(vec / nrm, tol)
    residual = resolution_residual(rep, vec, tol)
    if residual > validity_bound(rep.dim, tol):
        msg = f"frame {name!r}: coherent-state sum deviates from identity by {residual:.3e}"
        report = [] if rep.is_finite else _lie_block_report(rep, vec, tol)
        bad = [r for r in report if not (r["multiplicity_ok"] and r["schmidt_ok"])]
        if bad and not bad[0]["multiplicity_ok"]:
            msg = (
                f"frame {name!r}: block {bad[0]['label']} has irrep dim "
                f"{bad[0]['irrep_dim']} < multiplicity {bad[0]['multiplicity']}"
            )
        elif bad:
            msg = (
                f"frame {name!r}: seed is not Schmidt-uniform on block "
                f"{bad[0]['label']} (deviation {bad[0]['schmidt_deviation']:.3e})"
            )
        raise ResolutionFails(msg, report)
    frame = Frame(
        name=name,
        rep=rep,
        seed=vec,
        weight_scale=float(rep.dim),
        isotropy=Subgroup(parent=rep.group),
        resolution_residual=residual,
    )
    frame.isotropy = isotropy_group(frame, tol)
    return frame


def orientation_state(f: Frame, g) -> np.ndarray:
    """|phi(g)> = U_R(g) |phi(e)>: for a finite frame, row g of ``Frame.orbit``."""
    if f.rep.charges is not None:  # U_R(theta) = diag(e^{i theta q}), applied entrywise
        return np.exp(1j * (f.rep.element(g).coords[0] * f.rep.charges)) * f.seed
    return f.orbit[f.rep.element(g).index] if f.rep.is_finite else f.rep.evaluate(g) @ f.seed


def isotropy_group(f: Frame, tol: Tolerance = DEFAULT_TOL) -> Subgroup:
    """Elements (finite) or algebra directions (Lie) stabilizing the seed ray.

    Lie isotropy is reported at the algebra level only; any discrete stabilizer
    component is flagged unknown.
    """
    seed_proj = np.outer(f.seed, np.conj(f.seed))
    if f.rep.is_finite:
        members = [g for g, v in enumerate(f.orbit) if np.linalg.norm(np.outer(v, np.conj(v)) - seed_proj) <= 1e-8]
        return Subgroup(parent=f.rep.group, element_indices=tuple(members))
    # kernel of c -> (1 - |phi><phi|) (sum_a c_a K_a) |phi>, over real coefficients
    comp = np.eye(f.dim) - seed_proj
    m = np.column_stack([comp @ (k @ f.seed) for k in f.rep.generators])
    ker = nullspace(np.vstack([m.real, m.imag]).astype(complex), tol)
    directions = tuple(tuple(float(x) for x in np.real(ker[:, j])) for j in range(ker.shape[1]))
    return Subgroup(parent=f.rep.group, algebra_basis=directions, discrete_part_unknown=True)


def povm_effect(f: Frame, subset) -> PovmEffect:
    """Covariant POVM effect E_Y = sum_{g in Y} w |phi(g)><phi(g)| = w O_Y^T conj(O_Y), O_Y the orbit rows in Y
    (finite only)."""
    if not f.rep.is_finite:
        raise ValueError("POVM effects over subsets are defined for finite-group frames")
    order = f.rep.group.order
    members = tuple(sorted(int(g) for g in subset))
    if members and (members[0] < 0 or members[-1] >= order):
        raise ValueError("subset contains indices outside the group")
    rows = f.orbit[list(members)]
    return PovmEffect(subset=members, matrix=f.element_weight() * (rows.T @ np.conj(rows)))


# ---------------------------------------------------------------------------
# left-right (LR) structure
# ---------------------------------------------------------------------------


def _block_seed_matrix(block, seed: np.ndarray) -> np.ndarray:
    return np.einsum("iam,i->am", np.conj(block.grid), seed)  # (d, m)


def lr_classify(f: Frame, tol: Tolerance = DEFAULT_TOL) -> tuple[UnitaryRep | None, dict]:
    """Decide whether the frame admits a commuting right action V_R; cached per tolerance, so treat as read-only.

    Exists iff every isotypic block has multiplicity equal to its irrep
    dimension; the seed of a valid frame is then block-wise maximally entangled
    (reported per block).  V_R(g)|phi(h)> = |phi(h g^-1)> and the resolution of
    identity then give V_R(g) = Vol twirl(U(g)^-1 |phi><phi|), for a finite frame
    w sum_h |phi(h g^-1)><phi(h)|, and its derivative at the identity the
    generators -Vol twirl(K_a |phi><phi|).
    """
    key = ("lr", tol)
    if key in f._cache:
        return f._cache[key]
    report: dict = {"blocks": [], "lr_exists": True, "reason": ""}
    for block in isotypic_decompose(f.rep, tol).blocks:
        d, m = block.irrep_dim, block.multiplicity
        entry = {"label": block.label, "irrep_dim": d, "multiplicity": m}
        report["blocks"].append(entry)
        if m != d:
            report["lr_exists"] = False
            report["reason"] = (
                f"block {block.label}: multiplicity {m} != irrep dim {d}, "
                "cannot split as irrep x conjugate-irrep"
            )
            continue
        s = _block_seed_matrix(block, f.seed)  # (d, d)
        target = abs(np.trace(dagger(s) @ s)) / d
        dev = float(np.linalg.norm(dagger(s) @ s - target * np.eye(d)))
        entry["max_entangled_deviation"] = dev
    f._cache[key] = (_right_action(f, tol) if report["lr_exists"] else None, report)
    return f._cache[key]


def _right_action(f: Frame, tol: Tolerance) -> UnitaryRep:
    if f.rep.is_finite:  # V_R(g) = w sum_h |phi(h g^-1)><phi(h)|, with shifted[h, g] = phi(h g^-1)
        shifted = f.orbit[f.group.product_table[:, f.group.inverse_table]]
        return reps.finite_rep(f.group, np.einsum("hgi,hj->gij", shifted, np.conj(f.orbit) * f.element_weight(),
                                                  optimize=True), tol)
    proj = np.outer(f.seed, np.conj(f.seed))
    return reps.lie_rep(f.group, np.stack([-reps.group_average(f.rep, k @ proj, "twirl", f.weight_scale, tol)
                                           for k in f.rep.generators]), tol)


def build_lr_seed(deco: reps.IsotypicDecomposition, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Seed with Schmidt-uniform block entanglement and weights sqrt(d_q^2/dim).

    Requires multiplicity <= irrep dim on every block; the resulting orbit
    resolves the identity by construction.
    """
    dim = deco.ambient_dim
    seed = np.zeros(dim, dtype=complex)
    for block in deco.blocks:
        d, m = block.irrep_dim, block.multiplicity
        if m > d:
            raise ResolutionFails(
                f"block {block.label}: irrep dim {d} < multiplicity {m}, no admissible seed"
            )
        amp = np.sqrt(d / dim)
        for k in range(m):
            seed += amp * block.grid[:, k, k]
    return fix_phase(seed / np.linalg.norm(seed), tol)
