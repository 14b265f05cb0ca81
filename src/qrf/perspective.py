"""Perspective-neutral layer: physical Hilbert space and relational observables.

All in-scope groups are compact, so gauge-invariant states form a genuine
subspace of the kinematical space and the physical inner product is the
kinematical one on an orthonormal basis of that subspace.  The measure
bookkeeping of the per-frame Haar normalization then shows up as explicit
scale constants: twirls over frame orientations carry the frame's volume
(weight_scale), conditionings carry its square root.

An operator on one subsystem slot is one batched matmul on ``slot_view``, the
copy-free (lead, d_slot, rest) reshape of a kinematical axis; a on the slot and
b on the rest is one broadcast product, ``embed_on_slot``.  The one conditioning
primitive is the contraction (<phi| x 1) of ``Scenario.condition_vector``, on a
kinematical vector or on each column of a matrix, and on one frame vector or a
stack of them; its adjoint (|phi> x 1) is ``inject_vector``.  A reduction scales
it by sqrt(Vol) at an orientation g in ``condition_on``, from the one evaluation
of phi(g) and its scale, and at many orientations in ``condition_on_each``.  On the
orthonormal physical basis B it gives
``conditioning_map``, C_g = sqrt(Vol) (<phi(g)| x 1) B, an isometry from
physical-basis coefficients onto the physical system subspace.
``schrodinger_map`` returns C_g as it is held, behind the one round-trip gate
||C_g^dag C_g - 1||_F <= ``tol.bound(1, n_phys)``: the system projector is
C_g C_g^dag of the gated map, the Schroedinger reduction is C_g, and, because
B^dag U A U^dag B = B^dag A B on invariant vectors, a relational observable
restricted to the physical space is C_g^dag f_S C_g.
``PhysicalSpace`` holds B as ``reps.fixed_subspace`` builds it: by its row labels
(row, column, entry) on the table and charge paths (``linalg.RowLabels``, one-hot
charge-0 kets or orbit indicators), so the dense B is built only on request; every
report-path reader takes the labels.  Each frame reads them once into a conditioning
plan (``_plan``); ``conditioning_map`` forms only its weights sqrt(Vol)
conj(phi(g)[a]) B[r], and returns C_g by index and weight (``linalg.Monomial``)
when its terms meet no row and no column twice, which the plan's flags settle
for U(1) and identity-ket finite frames.  There the gate reads the diagonal
round trip |w|^2, the projector and the homomorphism check's C^dag a C are
gathers and scatters, its sources C X C^dag are held by X (``_Sandwich``) on a
charge-held rep, and a monomial C_e spans a coordinate subspace, so
``physical_system_span`` needs no closure.  SU(2) frames and other finite seeds
keep the dense contraction and the closure; the relativity step's target blocks
densify C_e.
``PhysicalSpace.restrict`` is the one restriction, B^dag F B;
the homomorphism check reads every clause through it and ties it to
C_g^dag f_S C_g; on a charge-held rep it builds each weight block on read, so it
holds no whole F.  There a physical vector has weight 0, so B^dag F B is F's
weight-0 block at B's rows (``physical_block``), all a probability reads.
Relational observables are held as ``reps`` describes, and
every reader here asks the held form itself.  The operand |phi(g)><phi(g)| x f_S
lives on the frame blocks (a, b) with a and b in the support of phi(g), so on a
table-held finite rep one rule gives the rows at the index-orbit leaders, with no
kinematical operand or twirl: each pair (i, j) = ((a, c~), (b, c')), a and b in the
support, adds phi_a conj(phi_b) f_S[c~, c'] / |G| to the held entry
(orbit(i), sigma_g(j)) for each g that takes i to its orbit's leader, one g per
row under a free action and one per stabiliser element otherwise; the (g, c~) of
each frame row a are cached per frame, O(kin) indices.  An identity-ket block on a
regular frame meets each held entry once (it is one f_S entry over |G|), and on a
frame with isotropy once per isotropy element.  A Lie observable's weight blocks
are read from |phi><phi| and f_S.
"""

from __future__ import annotations

import collections
import collections.abc
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import groups, reps
from .frames import Frame
from .groups import FiniteGroup, LieDescriptor, Subgroup
from .linalg import (
    DEFAULT_TOL,
    Check,
    Monomial,
    RowLabels,
    Subspace,
    Tolerance,
    _distinct,
    as_cmatrix,
    as_cvector,
    dagger,
    densify,
    orthonormal_range,
)
from .reps import UnitaryRep, group_average, tensor

__all__ = [
    "Scenario",
    "PhysicalSpace",
    "RelObs",
    "make_scenario",
    "physical_space",
    "condition_on",
    "condition_on_each",
    "conditioning_map",
    "schrodinger_map",
    "relational_observable",
    "h_average",
    "system_projector",
    "orientation_independent",
    "physical_system_span",
    "check_weak_homomorphism",
    "conditional_inner_product_check",
    "sample_elements",
    "strong_dirac_defect",
    "dirac_check",
]
Operator = np.ndarray | reps.OrbitMeans | reps.WeightBlocks  # a kinematical operator, as relational observables hold it
_Plan = collections.namedtuple("_Plan", "index rows cols vals starts distinct distinct_at shape")  # see ``_plan``
PHYSICAL_GATE = Tolerance(1e-7)  # an input gate for states, not a user tolerance


@dataclass
class Scenario:
    """A gauge group acting on an ordered list of subsystems, with named frames."""

    group: FiniteGroup | LieDescriptor
    subsystems: tuple[tuple[str, UnitaryRep], ...]
    frames: dict[str, tuple[int, Frame]]  # name -> (subsystem slot, frame)
    total_rep: UnitaryRep
    kin_dim: int
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dims(self) -> list[int]:
        return [rep.dim for _, rep in self.subsystems]

    def frame(self, name: str) -> Frame:
        return self.frames[name][1]

    def frame_slot(self, name: str) -> int:
        return self.frames[name][0]

    def complement_rep(self, frame_name: str) -> UnitaryRep:
        """Tensor representation on everything except the frame's subsystem."""
        key = ("comp", frame_name)
        if key not in self._cache:
            slot = self.frame_slot(frame_name)
            rest = [rep for i, (_, rep) in enumerate(self.subsystems) if i != slot]
            self._cache[key] = tensor(rest) if rest else reps.trivial_rep(self.group)
        return self._cache[key]

    def complement_dim(self, frame_name: str) -> int:
        return self.kin_dim // self.subsystems[self.frame_slot(frame_name)][1].dim

    def embed_frame_operator(self, frame_name: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Operator acting as ``a`` on the frame slot and ``b`` on the complement."""
        return embed_on_slot(self.dims, self.frame_slot(frame_name), as_cmatrix(a), as_cmatrix(b))

    def condition_vector(self, frame_name: str, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """(<phi|_frame x 1) psi for a kinematical vector, or for each column of a matrix, the complement in subsystem
        order; on a stack phi (n, d), one per row, shape (n, complement_dim) + psi.shape[1:].  This contraction and
        its adjoint ``inject_vector`` carry every reduction."""
        psi = np.asarray(psi, dtype=complex)
        c = np.conj(phi) @ slot_view(psi, self.dims, self.frame_slot(frame_name))
        if np.ndim(phi) == 2:  # (lead, n, rest): the stack's axis first
            c = c.transpose(1, 0, 2)
        return c.reshape(np.shape(phi)[:-1] + (self.complement_dim(frame_name),) + psi.shape[1:])

    def inject_vector(self, frame_name: str, phi: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """(|phi>_frame x 1) chi: a frame vector tensored with a complement vector, or with each column of one; a
        stack phi (n, d) with chi (n, complement_dim, ...) gives sum_n |phi_n> x chi_n."""
        chi, slot, phi = np.asarray(chi, dtype=complex), self.frame_slot(frame_name), np.asarray(phi, dtype=complex)
        stack = phi.reshape(-1, phi.shape[-1])  # (n, d), n = 1 for one vector: chi as (lead, n, rest), summed over n
        full = stack.T @ slot_view(chi, [len(stack), math.prod(self.dims[:slot])], 1).transpose(1, 0, 2)
        return full.reshape((self.kin_dim,) + chi.shape[phi.ndim:])


def slot_view(m: np.ndarray, dims: list[int], slot: int) -> np.ndarray:
    """m as (lead, dims[slot], rest), its leading index a flat index over ``dims``: a reshape that copies
    nothing.  Its sizes are explicit, so an array with no columns reshapes too."""
    lead = math.prod(dims[:slot])
    return m.reshape(lead, dims[slot], m.size // (lead * dims[slot]))


def embed_on_slot(dims: list[int], slot: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` on subsystem ``slot`` x ``b`` on the others, in subsystem order: one broadcast product."""
    lead, d = math.prod(dims[:slot]), dims[slot]
    rest, n = b.shape[0] // lead, b.shape[0] * d
    return (a.reshape(1, d, 1, 1, d, 1) * b.reshape(lead, 1, rest, lead, 1, rest)).reshape(n, n)


def make_scenario(
    group,
    subsystems: list[tuple[str, UnitaryRep]],
    frames: dict[str, tuple[str, Frame]] | None = None,
) -> Scenario:
    """Assemble and validate a scenario (shared group, frames on real subsystems)."""
    names = [n for n, _ in subsystems]
    if len(set(names)) != len(names):
        raise ValueError("subsystem names must be unique")
    for n, rep in subsystems:
        same = rep.group is group or (
            not rep.is_finite and isinstance(group, LieDescriptor) and rep.group.kind == group.kind
        )
        if not same:
            raise ValueError(f"subsystem {n!r} does not carry the scenario group")
    frame_map: dict[str, tuple[int, Frame]] = {}
    for fname, (sub_name, frame) in (frames or {}).items():
        if sub_name not in names:
            raise ValueError(f"frame {fname!r} references unknown subsystem {sub_name!r}")
        slot = names.index(sub_name)
        if frame.rep.dim != subsystems[slot][1].dim:
            raise ValueError(f"frame {fname!r} dimension does not match subsystem {sub_name!r}")
        frame_map[fname] = (slot, frame)
    total = tensor([rep for _, rep in subsystems])
    return Scenario(
        group=group,
        subsystems=tuple(subsystems),
        frames=frame_map,
        total_rep=total,
        kin_dim=total.dim,
    )


@dataclass
class PhysicalSpace:
    """Orthonormal basis B of the gauge-invariant subspace of the kinematical space, as ``reps.fixed_subspace``
    builds it: held by its row labels (``linalg.RowLabels``) on the table and charge paths, so the dense
    ``basis.basis`` is built only on request, else a dense ``Subspace``."""

    scenario: Scenario
    basis: Subspace | RowLabels
    _plans: dict = field(default_factory=dict, repr=False, compare=False)  # frame name -> its plan (``_plan``)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def projector(self) -> np.ndarray:
        return self.basis.projector()

    def require(self, v: np.ndarray, label: str = "state") -> np.ndarray:
        """``v`` as a vector if it passes ``PHYSICAL_GATE``, else a ValueError; labels project by gathers."""
        v = as_cvector(v)
        if not self.basis.contains(v, PHYSICAL_GATE):
            raise ValueError(f"{label} is not in the physical subspace")
        return v

    def invariance_check(self, tol: Tolerance = DEFAULT_TOL) -> Check:
        """Largest ||D B|| over the constraint operators D: zero iff every basis vector is invariant.  Each D acts
        as the rep holds it (charges scale rows, a table scatters) on blocks of B's columns, 2^16 amplitudes each."""
        rep, step = self.scenario.total_rep, 2**16 // self.scenario.kin_dim + 1
        sq = sum(np.linalg.norm(reps.apply_constraints(rep, self.basis.columns(lo, lo + step)), axis=(1, 2)) ** 2
                 for lo in range(0, max(self.dim, 1), step))
        worst = float(np.sqrt(np.max(sq, initial=0.0)))
        return tol.check("physical_basis_invariance", worst, 1.0, self.scenario.kin_dim)

    def restrict(self, op: Operator) -> np.ndarray:
        """Matrix B^dag (op B) of an operator in the physical basis; a held operator restricts itself, from B's
        labels when it has them."""
        if isinstance(op, np.ndarray):
            return dagger(self.basis.basis) @ (op @ self.basis.basis)
        return op.restrict(self.basis if isinstance(self.basis, RowLabels) else self.basis.basis)


@dataclass
class RelObs:
    """Relational Dirac observable: frame-orientation-conditional twirl of f_S.  ``op`` is held as ``reps``
    describes; the dense kin x kin ``matrix`` is built on first access, and is ``op`` itself when it is an array."""

    op: Operator
    frame_name: str
    orientation: object
    source: np.ndarray
    scenario: Scenario
    family: object = None  # optional orientation -> matrix evaluator

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return densify(self.op)


def physical_space(s: Scenario, tol: Tolerance = DEFAULT_TOL) -> PhysicalSpace:
    key = ("phys", tol)
    if key not in s._cache:
        s._cache[key] = PhysicalSpace(s, reps.fixed_subspace(s.total_rep, tol))
    return s._cache[key]


def _oriented(s: Scenario, frame_name: str, g) -> tuple[float, np.ndarray]:
    """sqrt(Vol_frame) and phi(g): the one place a reduction evaluates the orientation state and its scale."""
    frame = s.frame(frame_name)
    return np.sqrt(frame.weight_scale), frame.orientation(frame.rep.element(g))


def condition_on(s: Scenario, frame_name: str, g, x: np.ndarray) -> np.ndarray:
    """sqrt(Vol_frame) (<phi(g)| x 1) x for a kinematical vector, or for each column of a matrix."""
    scale, phi = _oriented(s, frame_name, g)
    return scale * s.condition_vector(frame_name, phi, x)


def condition_on_each(s: Scenario, frame_name: str, elements, x: np.ndarray) -> np.ndarray:
    """``condition_on`` at each of ``elements``, one stacked conditioning on the phi(g) of one ``reps._act`` on the
    seed: shape (n, complement_dim) + x.shape[1:]."""
    frame = s.frame(frame_name)
    phis = reps._act(frame.rep, elements, frame.seed[None])
    return np.sqrt(frame.weight_scale) * s.condition_vector(frame_name, phis, x)


def conditioning_map(ps: PhysicalSpace, frame_name: str, g) -> np.ndarray | Monomial:
    """C_g = sqrt(Vol_frame) (<phi(g)| x 1) B, shape (complement_dim, n_phys).

    With B's row labels, labelled row r = (lead, a, rest) adds sqrt(Vol) conj(phi[a]) B[r] to the entry (complement
    index of r, column of r), as ``_plan`` holds them.  When they meet no row and no column twice (the plan's flags
    say so for a full or one-index support, else a call tests it), C_g is a ``Monomial``, else the terms summed into a
    dense C_g, so the dense B is never read.  Without labels C_g is the dense contraction."""
    s, plan = ps.scenario, _plan(ps, frame_name)
    if plan is not None:
        scale, phi = _oriented(s, frame_name, g)
        support = np.count_nonzero(phi)
        a = phi.nonzero()[0][0] if support == 1 else None  # one frame index: a slice of the plan
        index, rows, cols, vals = plan[:4] if a is None else (x[plan.starts[a]:plan.starts[a + 1]] for x in plan[:4])
        w = scale * (np.conj(phi)[index] * vals)
        if a is None and support < phi.size:  # the terms of the indices that phi(g) reaches
            rows, cols, w = (x[w != 0] for x in (rows, cols, w))
        held = plan.distinct if a is None else plan.distinct_at[a]
        if held or _distinct(rows, plan.shape[0]) and _distinct(cols, plan.shape[1]):
            return Monomial(rows, cols, w, plan.shape)
        c = np.zeros(plan.shape, dtype=complex)
        np.add.at(c, (rows, cols), w)
        return c
    return condition_on(s, frame_name, g, ps.basis.basis)


def _plan(ps: PhysicalSpace, frame_name: str) -> _Plan | None:
    """C_g's terms but phi, once per frame, O(nnz B), or None: per labelled row, by frame index a then column, a, its
    complement row, column and entry; index a opens at ``starts[a]``; flags: no row or column twice (in all, in a)."""
    if isinstance(b := ps.basis, RowLabels) and frame_name not in ps._plans:
        s, (rows, cols, vals), slot = ps.scenario, (b.rows, b.cols, b.vals), ps.scenario.frame_slot(frame_name)
        d, rest, shape = s.dims[slot], math.prod(s.dims[slot + 1:]), (s.complement_dim(frame_name), ps.dim)
        lo, a, hi = np.unravel_index(rows, (s.kin_dim // (d * rest), d, rest))
        order = np.lexsort((cols, a))
        a, rows, cols, vals = a[order], (lo * rest + hi)[order], cols[order], vals[order]
        twice = (a[1:] == a[:-1]) & (cols[1:] == cols[:-1])  # one column met twice within an index: adjacent in order
        ps._plans[frame_name] = _Plan(a, rows, cols, vals, np.searchsorted(a, np.arange(d + 1)), _distinct(
            rows, shape[0]) and _distinct(cols, shape[1]), np.bincount(a[1:][twice], minlength=d) == 0, shape)
    return ps._plans.get(frame_name)


def schrodinger_map(ps: PhysicalSpace, frame_name: str, g, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | Monomial:
    """C_g as ``conditioning_map`` holds it, gated by ||G - 1||_F <= ``tol.bound(1, n_phys)``, G = C_g^dag C_g:
    the one round-trip gate.  It bounds Pi = C_g C_g^dag too: ||Pi^2 - Pi||_F = ||C (G - 1) C^dag||_F
    <= ||G||_2 ||G - 1||_F.  A monomial C_g has the diagonal G = |w|^2, read as its diagonal alone."""
    c = conditioning_map(ps, frame_name, g)
    defect = float(np.linalg.norm(c.gram - 1.0 if isinstance(c, Monomial) else dagger(c) @ c - np.eye(ps.dim)))
    if not defect <= tol.bound(1.0, ps.dim):  # a NaN defect fails too
        raise ValueError(f"reduction map failed its round trip C^dag C = 1 ({defect:.2e})")
    return c


def strong_dirac_defect(s: Scenario, op: Operator) -> float:
    """Largest ||D op - op D|| over the constraint operators D of the total rep.

    A held form reads it itself where it can (``dirac_defect``: 0 when invariant by construction, SU(2) weight blocks
    from their ladder commutators).  Everything else is densified.  A Lie
    rep's generators are Hermitian, op K = (K op^dag)^dag, and both products apply one K at a time as the rep holds
    it (``reps._apply_generator``), so a charge- or factor-held rep builds no dense generator.  A finite rep
    commutes ``reps.constraints(rep)`` by matmul: [U_s - 1, op] = [U_s, op].
    """
    rep = s.total_rep
    held = None if isinstance(op, np.ndarray) else op.dirac_defect(rep)
    if held is not None:
        return held
    op = densify(op)
    if rep.is_finite:
        return max((float(np.linalg.norm(d @ op - op @ d)) for d in reps.constraints(rep)), default=0.0)
    op_h = np.ascontiguousarray(dagger(op))  # C order: the factors reshape it without a copy
    return max(float(np.linalg.norm(reps._apply_generator(rep, a, op) - dagger(reps._apply_generator(rep, a, op_h))))
               for a in range(rep.group.algebra_dim))


def dirac_check(s: Scenario, op: Operator, tol: Tolerance = DEFAULT_TOL) -> Check:
    """The strong Dirac defect of a kinematical operator, at the scale of its largest entry.  A held operator that
    reads its defect on the total rep reads its scale too (``reps``); any other is densified once, for both."""
    defect = None if isinstance(op, np.ndarray) else op.dirac_defect(s.total_rep)
    if defect is None:
        op = densify(op)
        defect = strong_dirac_defect(s, op)
    scale = float(np.abs(op).max(initial=0.0)) if isinstance(op, np.ndarray) else op.largest_entry()
    return tol.check("dirac_commutation", defect, scale, s.kin_dim)


def relational_observable(
    s: Scenario,
    frame_name: str,
    g,
    f_s: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    check: bool = True,
) -> RelObs:
    """F_{f_S,R}(g): twirl of |phi(g)><phi(g)| x f_S under the frame's measure."""
    frame = s.frame(frame_name)
    f_s = as_cmatrix(f_s)
    comp_dim = s.complement_dim(frame_name)
    if f_s.shape != (comp_dim, comp_dim):
        raise ValueError(
            f"system observable must act on the {comp_dim}-dim complement of frame {frame_name!r}"
        )
    op = _twirled(s, frame_name, g, f_s, tol)
    obs = RelObs(op=op, frame_name=frame_name, orientation=frame.rep.element(g), source=f_s, scenario=s)
    if check:
        dirac = dirac_check(s, op, tol)
        if not dirac.passed:
            raise ValueError(f"relational observable failed the Dirac commutation check ({dirac.residual:.2e})")
    return obs


@dataclass(frozen=True, eq=False)
class _Sandwich:
    """C X C^dag on a frame's complement, held by a monomial C and the n_phys x n_phys X: sums, products and adjoints
    stay n_phys-sized, C X C^dag C Y C^dag = C (X G Y) C^dag with G = C^dag C the diagonal ``gram``."""

    c: Monomial
    x: np.ndarray

    def __add__(self, other: _Sandwich) -> _Sandwich:
        return _Sandwich(self.c, self.x + other.x)

    def __matmul__(self, other: _Sandwich) -> _Sandwich:
        return _Sandwich(self.c, self.x @ (self.c.gram[:, None] * other.x))

    def dagger(self) -> _Sandwich:
        return _Sandwich(self.c, dagger(self.x))

    def block(self, idx: np.ndarray) -> np.ndarray:
        """Entries (p, q) over idx, (w_p X[col_p, col_q]) conj(w_q) with (col_p, w_p) C's entry in row p, or w_p = 0:
        read from X, each product in the dense product's order."""
        at, w = np.zeros(self.c.shape[0], dtype=int), np.zeros(self.c.shape[0], dtype=complex)
        at[self.c.rows], w[self.c.rows] = self.c.cols, self.c.weights
        k, w = at[idx], w[idx]
        out = np.ascontiguousarray(self.x).take(k, 0).take(k, 1)  # 1-D takes, then the products in place
        np.multiply(w[:, None], out, out=out)
        return np.multiply(out, np.conj(w), out=out)


def _twirled(s: Scenario, frame_name: str, g, f_s: np.ndarray | _Sandwich, tol: Tolerance,
             on_read: bool = False) -> Operator:
    """Vol twirl(E x f_S), E = |phi(g)><phi(g)|: leader rows on a table-held finite rep, accumulated over the
    support of phi(g) by the module's one rule, dense on any other finite rep, weight blocks for a Lie group.

    With W = 1 (an exactly diagonal Cartan generator) the aligned operand's blocks
    are read entrywise, A_ww[i, j] = E[r_i, r_j] f_S[c_i, c_j], with r_i and c_i the frame and complement indices
    of i: each f_S block is gathered by 1-D takes on index arrays cached per frame, O(kin) entries in all, or read
    from X for f_S held as C X C^dag (``_Sandwich``).  With ``on_read`` a charge-held rep's blocks, Vol times the
    aligned ones, are built on each read (``_OnRead``), for a caller that applies and restricts F block by block."""
    rep, frame = s.total_rep, s.frame(frame_name)
    phi = frame.orientation(frame.rep.element(g))
    if reps.permutation_table(rep) is not None:
        o, kin = reps._index_orbits(rep), s.kin_dim
        key = ("leader_index", frame_name)
        if key not in s._cache:  # per frame row a, each (g, c~) with sigma_g((a, c~)) a leader: c~, the offset g kin
            # of sigma_g in the flat table and the offset orbit((a, c~)) kin of its leader row in the flat means
            at = slot_view(np.arange(kin), s.dims, s.frame_slot(frame_name)).transpose(1, 0, 2).reshape(len(phi), -1)
            hits = [np.nonzero(o.sigma[:, row] == o.leaders[o.orbit[row]]) for row in at]
            s._cache[key] = (at, [(c, h * kin, o.orbit[row[c]] * kin) for row, (h, c) in zip(at, hits)])
        at, hits = s._cache[key]
        support = np.flatnonzero(phi)
        cols, means, flat = at[support].reshape(-1), np.zeros(o.leaders.size * kin, dtype=complex), o.sigma.reshape(-1)
        for a in support:  # rows (a, c~) against columns (b, c'), b over the support, one frame row at a time
            c, table_at, lead = hits[a]
            targets = flat.take(table_at[:, None] + cols)  # sigma_g(j) for each hit and column
            targets += lead[:, None]
            terms = (phi[a] * np.conj(phi[support]))[None, :, None] * f_s[c][:, None, :]  # over (g, c~), b, c'
            np.add.at(means, targets.reshape(-1), terms.reshape(-1) / len(o.sigma))
        means *= frame.weight_scale
        return reps.OrbitMeans(rep, means.reshape(-1, kin))
    proj = np.outer(phi, np.conj(phi))
    if rep.is_finite:
        return group_average(rep, s.embed_frame_operator(frame_name, proj, f_s), "twirl", frame.weight_scale, tol)
    wb = reps.weight_basis(rep)
    if wb.vectors is None:
        index, held = _sector_index(s, frame_name), isinstance(f_s, _Sandwich)
        f_s = f_s if held else np.ascontiguousarray(f_s)  # a take on a strided array would copy all of it, per block

        def block(w: int) -> np.ndarray:  # formed in its gathered f_S block
            r, c = index[w]
            f = f_s.block(c) if held else f_s.take(c, 0).take(c, 1)
            return np.multiply(proj.take(r, 0).take(r, 1), f, out=f)

        if on_read and rep.charges is not None:  # U(1)'s twirl is Vol times each block, so each is built on read
            return reps.WeightBlocks(wb, _OnRead(lambda w: block(w) * frame.weight_scale, wb.sectors))
        aligned = reps.WeightBlocks(wb, {w: block(w) for w in wb.sectors})
    else:
        aligned = reps.WeightBlocks.of(wb, s.embed_frame_operator(frame_name, proj, f_s))
    return reps.lie_twirl(rep, aligned, tol, frame.weight_scale)


def _sector_index(s: Scenario, frame_name: str) -> dict:
    """Weight w -> the frame and complement indices (r, c) of its kets, for a total rep with W = 1; cached per frame."""
    if (key := ("twirl_index", frame_name)) not in s._cache:
        shape = slot_view(np.arange(s.kin_dim), s.dims, s.frame_slot(frame_name)).shape
        lo, r, hi = np.unravel_index(np.arange(s.kin_dim), shape)
        c = lo * shape[2] + hi
        s._cache[key] = {w: (r[i], c[i]) for w, i in reps.weight_basis(s.total_rep).sectors.items()}
    return s._cache[key]


@dataclass(frozen=True, eq=False)
class _OnRead(collections.abc.Mapping):
    """Weight blocks over the weights of ``sectors``, each built by ``block(w)`` on every read and never kept: a
    ``WeightBlocks`` over them is applied and restricted one block at a time, and restricting it builds the weight-0
    block alone."""

    block: object
    sectors: dict

    def __getitem__(self, w: int) -> np.ndarray:
        return self.block(w)

    def __iter__(self):
        return iter(self.sectors)

    def __len__(self) -> int:
        return len(self.sectors)


def physical_block(ps: PhysicalSpace, frame_name: str, g, f_s: np.ndarray) -> np.ndarray:
    """B^dag F B for F = ``_twirled`` of f_S on a charge-held rep, in B's column order.  A physical vector has weight
    0, so this is F's weight-0 block, Vol (phi_r conj(phi_r')) f_S[c, c'], r and c each physical ket's frame and
    complement indices in ``_sector_index``: one gather at B's rows, by an n_phys^2 index cached per frame."""
    s, frame = ps.scenario, ps.scenario.frame(frame_name)
    if (key := ("physical_block", frame_name)) not in s._cache:
        (r, c), b = _sector_index(s, frame_name)[0], ps.basis
        p = np.searchsorted(reps.weight_basis(s.total_rep).sectors[0], b.rows[np.argsort(b.cols)])
        s._cache[key] = (r[p], c[p][:, None] * s.complement_dim(frame_name) + c[p])
    r, flat = s._cache[key]
    phi = frame.orientation(frame.rep.element(g))[r]
    block = np.outer(phi, np.conj(phi)) * f_s.take(flat)
    block *= frame.weight_scale  # as ``reps.lie_twirl`` scales a U(1) block
    return block


def h_average(f_s: np.ndarray, h: Subgroup, rep_s: UnitaryRep, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Average of a system observable over the frame's isotropy group.

    Finite subgroups average directly; a one-dimensional isotropy algebra keeps
    the eigenvalue-block-diagonal part of f_S with respect to its generator
    (for a charge-held rep c q, read in the charge basis); the full su(2)
    algebra falls back to the system twirl.
    """
    f_s = as_cmatrix(f_s)
    if h.element_indices is not None:
        if rep_s.dim != f_s.shape[0]:
            raise ValueError("observable does not act on the system representation")
        members = reps._act(rep_s, list(h.element_indices), np.eye(rep_s.dim)[None])  # a table-held rep scatters
        return sum(u @ f_s @ dagger(u) for u in members) / len(h.element_indices)
    basis = h.algebra_basis or ()
    if len(basis) == 0:
        return f_s.copy()
    if len(basis) == 1:
        if rep_s.charges is not None:
            vals, vecs = basis[0][0] * rep_s.charges, None
        else:
            vals, vecs = np.linalg.eigh(sum(c * rep_s.generators[a] for a, c in enumerate(basis[0])))
        keep = np.abs(vals[:, None] - vals[None, :]) <= 1e3 * tol.weighted(max(1.0, np.abs(vals).max()))
        return f_s * keep if vecs is None else vecs @ ((dagger(vecs) @ f_s @ vecs) * keep) @ dagger(vecs)
    if len(basis) == 3 and isinstance(h.parent, LieDescriptor) and h.parent.kind == "SU2":
        return group_average(rep_s, f_s, mode="twirl", measure_scale=1.0, tol=tol)
    raise ValueError(f"unsupported isotropy type: algebra dimension {len(basis)}")


def system_projector(s: Scenario, frame_name: str, g, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Pi_S^phys(g) = C_g C_g^dag = Vol_frame (<phi(g)| x 1) P_phys (|phi(g)> x 1), from the gated map."""
    c = schrodinger_map(physical_space(s, tol), frame_name, g, tol)
    return densify(c @ dagger(c))


def orientation_independent(s: Scenario, frame_name: str, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the physical system subspace does not rotate with the frame orientation.

    C_g = U_S(g) C_e and, on a valid frame, C_e^dag C_e = 1, so every range(C_g)
    has dimension n_phys; they coincide iff range(C_e) is invariant, that is,
    iff its invariant closure keeps dimension n_phys.
    """
    return physical_system_span(s, frame_name, tol).dim == physical_space(s, tol).dim


def physical_system_span(s: Scenario, frame_name: str, tol: Tolerance = DEFAULT_TOL) -> Subspace | RowLabels:
    """Span of the physical system subspaces over all orientations, the invariant closure of range(C_e); cached.
    A monomial C_e spans the coordinate kets of its rows, whose closure is exact and needs no SVD: on a charge-held
    complement those kets, on a table-held one the kets of their index orbits.  Any other C_e is closed by SVDs."""
    key = ("span", frame_name, tol)
    if key not in s._cache:
        c = conditioning_map(physical_space(s, tol), frame_name, s.frame(frame_name).rep.identity_element())
        comp = s.complement_rep(frame_name)
        if isinstance(c, Monomial) and (comp.charges is not None or reps.permutation_table(comp) is not None):
            # on charges each coordinate ket spans an invariant line: every index is its own orbit
            orbit = np.arange(comp.dim) if comp.charges is not None else reps._index_orbits(comp).orbit
            s._cache[key] = RowLabels.coordinates(comp.dim, np.flatnonzero(np.isin(orbit, orbit[c.rows])))
        else:
            c = densify(c)
            s._cache[key] = reps.invariant_closure(comp, c, tol) if c.shape[1] else orthonormal_range(c, tol)
    return s._cache[key]


def sample_elements(group, count: int = 8) -> list:
    """Deterministic sample of group elements used by property checks."""
    if isinstance(group, FiniteGroup):
        return [groups.FiniteElement(group, k) for k in range(group.order)]
    if group.kind == "U1":
        return [groups.lie_element(group, [2.0 * np.pi * k / count + 0.1]) for k in range(count)]
    rng = np.random.default_rng(7)
    return [groups.lie_element(group, rng.uniform(-1.5, 1.5, size=3)) for _ in range(count)]


def check_weak_homomorphism(
    s: Scenario,
    frame_name: str,
    g,
    a: np.ndarray,
    b: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> dict:
    """Residuals of the relationalization homomorphism for a pair of observables.

    Weak residuals read every relational observable F_f through ``PhysicalSpace.restrict``,
    B^dag F_f B; both sides of each clause preserve H_phys, so
    B^dag F_a F_b B = (B^dag F_a B)(B^dag F_b B), and the ``definition`` clause ties
    B^dag F_a B to C^dag a C.  Strong residuals are matvecs on a fixed random kinematical
    vector, which a Lie frame applies block by block without forming any F_f; strong
    equality is expected only for regular-representation frames.
    ``weak_check`` and ``strong_pass`` take them relative to max(1, max|a| max|b|).
    On a charge-held rep the sources Pi a Pi = C (C^dag a C) C^dag are held by C^dag a C (``_Sandwich``).
    """
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    ps = physical_space(s, tol)
    c = conditioning_map(ps, frame_name, g)  # a monomial makes the products below gathers and scatters
    # c_a is what the definition clause ties B^dag F_a B to; on a monomial C, C^dag a C is one gather
    c_a, c_b = (c.sandwich(x) if isinstance(c, Monomial) else dagger(c) @ x @ c for x in (a, b))
    held = isinstance(c, Monomial) and s.total_rep.charges is not None  # no complement-sized Pi = C C^dag either way
    a_p, b_p = (_Sandwich(c, c_a), _Sandwich(c, c_b)) if held else (c @ c_a @ dagger(c), c @ c_b @ dagger(c))

    def rel(f):  # held as built, and restricted and applied as held: on charges one weight block at a time
        return _twirled(s, frame_name, g, f, tol, True)

    rng = np.random.default_rng(11)
    v = rng.standard_normal(s.kin_dim) + 1j * rng.standard_normal(s.kin_dim)
    v /= np.linalg.norm(v)
    f_a, f_b = rel(a_p), rel(b_p)
    r_a, fa_v, r_b, fb_v = ps.restrict(f_a), f_a @ v, ps.restrict(f_b), f_b @ v
    fba_v, fab_v = f_b @ fa_v, f_a @ fb_v
    del f_a, f_b  # weight blocks, or dense arrays off the table path, are not kept through the clause loop
    clauses = (  # name, source of the left side and right side on B (both built when the clause runs), right side on v
        ("addition", lambda: a_p + b_p, lambda: r_a + r_b, fa_v + fb_v),
        ("multiplication", lambda: a_p @ b_p, lambda: r_a @ r_b, fab_v),
        ("combined", lambda: a_p + b_p @ a_p, lambda: r_a + r_b @ r_a, fa_v + fba_v),
        ("projection_equivalence", lambda: a, lambda: r_a, fa_v),
    )
    report: dict = {"frame": frame_name, "weak": {}, "strong": {}}
    for name, source, weak_rhs, strong_rhs in clauses:
        f = rel(source())
        report["weak"][name] = float(np.max(np.linalg.norm(ps.restrict(f) - weak_rhs(), axis=0), initial=0.0))
        report["strong"][name] = float(np.linalg.norm(f @ v - strong_rhs))
        del f  # the next clause builds its observable without this one alive
    del b_p, c_b  # and the adjoint clause reads a_p alone
    report["weak"]["adjoint"] = float(np.linalg.norm(ps.restrict(rel(dagger(a_p))) - dagger(r_a)))
    report["strong"]["adjoint"] = report["weak"]["adjoint"]
    report["weak"]["definition"] = float(np.max(np.linalg.norm(r_a - c_a, axis=0), initial=0.0))
    report["max_weak_residual"] = max(report["weak"].values())
    report["max_strong_residual"] = max(report["strong"].values())
    scale = max(1.0, float(np.abs(a).max()) * float(np.abs(b).max()))
    weak, strong = (report[f"max_{kind}_residual"] / scale for kind in ("weak", "strong"))
    report["weak_check"] = tol.check(f"{frame_name}:weak_homomorphism", weak, 1.0, ps.dim)
    report["strong_pass"] = tol.check(f"{frame_name}:strong_homomorphism", strong, 1.0, s.kin_dim).passed
    return report


def conditional_inner_product_check(s: Scenario, frame_name: str, psi: np.ndarray, chi: np.ndarray,
                                    g_samples: list | None = None, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Check <psi|chi> = Vol_frame <psi| (|phi(g)><phi(g)| x 1) |chi> for sampled g, all in one stacked
    conditioning."""
    ps = physical_space(s, tol)
    psi, chi = ps.require(psi, "psi"), ps.require(chi, "chi")
    if g_samples is None:
        g_samples = sample_elements(s.frame(frame_name).group)
    expected = complex(np.vdot(psi, chi))
    c = condition_on_each(s, frame_name, g_samples, np.column_stack([psi, chi]))
    deviations = np.abs(np.einsum("nr,nr->n", np.conj(c[:, :, 0]), c[:, :, 1]) - expected)
    check = tol.check(f"{frame_name}:conditional_inner_product", float(np.max(deviations)), 1.0, s.kin_dim)
    return {
        "frame": frame_name,
        "expected": expected,
        "max_deviation": check.residual,
        "samples": len(g_samples),
        "check": check,
    }
