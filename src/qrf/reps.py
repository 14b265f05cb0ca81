"""Unitary representations and exact group averaging.

Finite groups carry per-element matrix tables; U(1) and SU(2) carry
Hermitian generators in the convention [K_a, K_b] = 2i f_abc K_c (so the
spin-1/2 generators are the Pauli matrices themselves and weights are the
integers 2m).  ``tensor`` folds one pair rule, ``_tensor2``, over the factors:
composed tables, per-element Kronecker products, summed charges, joined factor
spins, or generators K x 1 + 1 x K'.  A U(1) rep whose generator is exactly
diagonal and integral is held by its charge vector q alone, like a permutation
rep by its table: its weights are q, U(theta) = diag(exp(i theta q)), K v = q v
and [K, A]_ij = (q_i - q_j) A_ij.  An SU(2) product of reps with exactly
diagonal J_z is held by its factors, J_a = sum_k 1 x J_a^(k) x 1: its weights,
K_a v, U(g) v and the J_+ blocks between weight sectors are read one factor at
a time.  Neither builds a dense generator unless asked.

Lie layers work in the weight basis of the Cartan generator (``weight_basis``).
There isotypic blocks are index sets: charge sectors, or SU(2) ladders
lowered from ker J_+.  Twirls are block-diagonal in the weights (Schur), so
``lie_twirl`` keeps each U(1) charge block and projects each SU(2) weight
block onto its ladders, as ``WeightBlocks``; the fixed space is the top of
the weight-0 ladder.

Every invariance question goes through one family of constraint operators,
``constraints(rep)``: U_s - 1 for the generators s of a finite group, K_a
for a Lie group.  The fixed space is their joint kernel, an operator is
gauge-invariant iff it commutes with each of them, and an invariant closure
grows by them.

A finite rep whose every matrix is exactly a 0/1 permutation is held by its
permutation table sigma, U_g e_j = e_{sigma_g(j)}, alone.  Regular reps are
built that way from the product table, the pair rule composes two tables,
sigma_{a x b}(i d_b + j) = sigma_a(i) d_b + sigma_b(j), and a rep given by
dense matrices gets its table from the observed entries.  The dense
(|G|, dim, dim) stack of a table-held rep is built only when a dense
consumer asks for it.  With a table, the fixed space is spanned by the
normalised indicators of the index orbits (Burnside: one per orbit), held by
their row labels, as a charge-held rep's charge-0 kets are, and read
from the table's index orbits: each orbit's leader (its smallest index), the
orbit of every index and the smallest g taking it to its leader, O(|G| dim)
numbers cached on the rep (``_index_orbits``).  The twirl's row at a leader
l is the mean over g of A[sigma_g(l)][:, sigma_g], and the constraint
operators act by gathers.  Every other finite rep (sign reps,
higher-dimensional irreps, tables off by rounding) takes the dense paths,
the joint kernel and the batched-matmul twirl, which are also the tests'
oracles for the permutation paths.

A relational observable is held in the form its rep's path gives: on a
table-held rep by its rows at the index-orbit leaders (``OrbitMeans``: an
invariant F is F[i, j] = means[orbit(i), sigma_{t(i)}(j)], dim^2/|G|
numbers under a free action, each the mean of its pair orbit), on a Lie rep
by its weight blocks (``WeightBlocks``), else as a dense array, every
reader's default.  A held form answers its readers itself, so none names it:
``dense()`` builds the matrix (for ``linalg.densify``), ``@ v`` applies it
(leader rows: one product over the group), ``restrict(B)`` is B^dag op B
for physical columns B (leader rows: S^dag (means B), S the sums of B's rows
over each orbit), ``largest_entry()`` is the Dirac check's scale, and
``invariant_on(rep)`` says it commutes with rep's constraints by
construction: leader rows on their own rep, weight blocks on a charge-held
rep (each block lies in one charge sector), and ``dirac_defect(rep)`` is the
strong Dirac defect where the form reads it: 0 when invariant, and weight
blocks on a factor-held SU(2) rep by their ladder commutators between
adjacent weight sectors.  Leader rows on one rep
subtract as leader rows and give their Frobenius norm, sum_o |o| ||means_o||^2
under the root, and ``OrbitMeans.read`` rereads them through an index
permutation that commutes with the action, one read per held entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .groups import (
    FiniteElement,
    FiniteGroup,
    LieDescriptor,
    LieElement,
    identity_of,
    lie_element,
    su2,
    u1,
)
from .linalg import (
    DEFAULT_TOL,
    RowLabels,
    Subspace,
    Tolerance,
    as_cmatrix,
    canonicalize_basis,
    dagger,
    fix_phase,
    joint_fixed_subspace,
    nullspace,
    orthonormal_range,
    random_hermitian,
)

__all__ = [
    "UnitaryRep",
    "IsotypicBlock",
    "IsotypicDecomposition",
    "finite_rep",
    "lie_rep",
    "u1_rep",
    "spin_rep",
    "trivial_rep",
    "regular_rep",
    "tensor",
    "conjugate_rep",
    "rep_evaluate",
    "group_average",
    "constraints",
    "apply_constraints",
    "permutation_table",
    "WeightBasis",
    "weight_basis",
    "WeightBlocks",
    "OrbitMeans",
    "lie_twirl",
    "isotypic_decompose",
    "invariant_closure",
]


class UnitaryRep:
    """A unitary representation; immutable after construction by convention.

    Finite: dense ``matrices`` (|G|, dim, dim), or for an exact 0/1 permutation
    rep only its table ``sigma`` (|G|, dim), from which ``matrices`` is built on
    first use and cached.  Lie: Hermitian ``generators`` (algebra_dim, dim, dim),
    or for a U(1) rep with an exactly diagonal, exactly integral generator only
    its integer ``charges`` (dim,), or for an SU(2) tensor product of reps with
    exactly diagonal J_z only its ``factors``, from which ``generators`` (the
    Kronecker sums) is built on first use and cached.
    """

    def __init__(self, group: FiniteGroup | LieDescriptor, dim: int, matrices: np.ndarray | None = None,
                 generators: np.ndarray | None = None, sigma: np.ndarray | None = None,
                 charges: np.ndarray | None = None, factors: tuple[UnitaryRep, ...] | None = None) -> None:
        self.group = group
        self.dim = dim
        self.charges = charges
        self.factors = factors
        self._generators = generators
        self._matrices = matrices
        self._iso_cache: dict = {} if sigma is None else {"perm": sigma}

    @property
    def matrices(self) -> np.ndarray | None:
        if self._matrices is None and self._iso_cache.get("perm") is not None:
            self._matrices = _permutation_matrices(self._iso_cache["perm"])
        return self._matrices

    @property
    def generators(self) -> np.ndarray | None:
        if self._generators is None and self.charges is not None:
            self._generators = np.diag(self.charges.astype(complex))[None]
        elif self._generators is None and self.factors is not None:
            self._generators = functools.reduce(_kronecker_sum, (f.generators for f in self.factors))
        return self._generators

    @property
    def is_finite(self) -> bool:
        return isinstance(self.group, FiniteGroup)

    def evaluate(self, g) -> np.ndarray:
        return rep_evaluate(self, g)

    def element(self, spec) -> FiniteElement | LieElement:
        """Wrap a raw index / coordinate array as an element of this rep's group."""
        if self.is_finite:
            if isinstance(spec, FiniteElement):
                return spec
            return FiniteElement(self.group, int(spec))
        if isinstance(spec, LieElement):
            return spec
        return lie_element(self.group, np.atleast_1d(spec))

    def identity_element(self):
        return identity_of(self.group)


# Integers beyond 2^53 are not all float64 numbers, so a weight past it is not exact in a dense generator, nor is
# its integrality; casting a much larger one to int would wrap.
MAX_WEIGHT = 2**53


def _check_unitary(m: np.ndarray, tol: Tolerance, what: str) -> None:
    d = m.shape[0]
    if np.linalg.norm(dagger(m) @ m - np.eye(d)) > 1e3 * tol.weighted(1.0) * d:
        raise ValueError(f"{what} is not unitary")


def _permutation_matrices(sigma: np.ndarray) -> np.ndarray:
    """Dense (k, dim, dim) stack whose matrix g has column j equal to e_{sigma[g, j]}."""
    k, d = sigma.shape
    mats = np.zeros((k, d, d), dtype=complex)
    mats[np.arange(k)[:, None], sigma, np.arange(d)] = 1.0
    return mats


def finite_rep(group: FiniteGroup, matrices, tol: Tolerance = DEFAULT_TOL) -> UnitaryRep:
    """Validate a per-element matrix table as a unitary representation.

    rho(e) = 1 and rho(s) rho(x) = rho(s x) for each generator s and every x
    make it a homomorphism, since every element is a word in the generators.
    """
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
        raise ValueError("need one square matrix per group element")
    if not np.all(np.isfinite(mats)):  # NaN fails no comparison below
        raise ValueError("matrix table has non-finite entries")
    dim = mats.shape[1]
    if not np.allclose(mats[group.identity_index], np.eye(dim), atol=1e-8):
        raise ValueError("identity element must map to the identity matrix")
    for k in range(group.order):
        _check_unitary(mats[k], tol, f"matrix for element {k}")
    for s in group.generators:
        defects = np.linalg.norm(mats[s] @ mats - mats[group.product_table[s]], axis=(1, 2))
        bad = np.flatnonzero(defects > 1e-7 * dim)
        if bad.size:
            raise ValueError(f"matrix table is not a homomorphism at pair ({s}, {bad[0]})")
    return UnitaryRep(group=group, dim=dim, matrices=mats)


def lie_rep(desc: LieDescriptor, generators, tol: Tolerance = DEFAULT_TOL) -> UnitaryRep:
    """Validate Hermitian generators against the descriptor's bracket relations."""
    gens = np.asarray(generators, dtype=complex)
    if gens.ndim != 3 or gens.shape[0] != desc.algebra_dim or gens.shape[1] != gens.shape[2]:
        raise ValueError("need one square generator per algebra basis element")
    if not np.all(np.isfinite(gens)):  # NaN fails no comparison below
        raise ValueError("generators have non-finite entries")
    dim = gens.shape[1]
    scale = max(1.0, max(np.abs(g).max() for g in gens))
    for a in range(desc.algebra_dim):
        if np.linalg.norm(gens[a] - dagger(gens[a])) > 1e3 * tol.weighted(scale):
            raise ValueError(f"generator {a} is not Hermitian")
    f = desc.structure_constants
    for a in range(desc.algebra_dim):
        for b in range(desc.algebra_dim):
            comm = gens[a] @ gens[b] - gens[b] @ gens[a]
            want = 2j * sum(f[a, b, c] * gens[c] for c in range(desc.algebra_dim))
            if np.linalg.norm(comm - want) > 1e-6 * scale * scale * dim:
                raise ValueError(f"bracket relation violated for generators ({a}, {b})")
    q = np.diagonal(gens[-1])
    if desc.kind == "U1" and _is_diagonal(gens[-1]) and np.array_equal(q, np.round(q.real)) and scale <= MAX_WEIGHT:
        return UnitaryRep(group=desc, dim=dim, charges=q.real.astype(int))
    rep = UnitaryRep(group=desc, dim=dim, generators=gens)
    weight_basis(rep)  # compact groups need integral weights; fail early
    return rep


def _is_diagonal(m: np.ndarray) -> bool:
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))


@dataclass(frozen=True, eq=False)
class WeightBasis:
    """Integer weights of a Lie rep's Cartan generator H: H W = W diag(weights).

    ``vectors`` is W, or None when H is exactly diagonal and W = 1, as for
    every ``u1_rep``/``spin_rep`` and their tensor products; otherwise it
    comes from one ``eigh``.  A charge-held rep's weights are its charges, a
    factor-held rep's the sums of its factors' weights.
    ``sectors`` maps each weight to its columns.
    """

    weights: np.ndarray  # (dim,) int
    vectors: np.ndarray | None
    sectors: dict

    def embed(self, idx: np.ndarray, coeff: np.ndarray) -> np.ndarray:  # W[:, idx] @ coeff
        if self.vectors is not None:
            return self.vectors[:, idx] @ coeff
        out = np.zeros((self.weights.size, coeff.shape[1]), dtype=complex)
        out[idx] = coeff
        return out

    def into(self, a: np.ndarray) -> np.ndarray:  # W^dag a W
        return a if self.vectors is None else dagger(self.vectors) @ a @ self.vectors

    def back(self, a: np.ndarray) -> np.ndarray:  # W a W^dag
        return a if self.vectors is None else self.vectors @ a @ dagger(self.vectors)


def weight_basis(rep: UnitaryRep) -> WeightBasis:
    """Weights of generators[-1] (the U(1) generator, or J_z of SU(2)), validated integral; cached."""
    if "weights" not in rep._iso_cache:
        if rep.charges is not None:
            vals, vecs = rep.charges, None
        elif rep.factors is not None:
            vals, vecs = sum(np.ix_(*(weight_basis(f).weights for f in rep.factors))).reshape(-1), None
        elif _is_diagonal(h := rep.generators[-1]):
            vals, vecs = np.diagonal(h).real, None
        else:
            vals, vecs = np.linalg.eigh(h)
        weights = _integral_weights(rep.group.kind, vals)
        sectors = {int(w): np.flatnonzero(weights == w) for w in np.unique(weights)}
        rep._iso_cache["weights"] = WeightBasis(weights, vecs, sectors)
    return rep._iso_cache["weights"]


def _integral_weights(kind: str, vals: np.ndarray) -> np.ndarray:
    """``vals`` rounded to integers, validated integral (within 1e-6) and within ``MAX_WEIGHT``."""
    weights = np.round(vals)
    if np.max(np.abs(vals - weights), initial=0.0) > 1e-6:
        raise ValueError(f"{kind} weight spectrum must be integral, got {vals}")
    if np.max(np.abs(weights), initial=0.0) > MAX_WEIGHT:
        raise ValueError(f"{kind} weights must lie within +-2^53, got {vals}")
    return weights.astype(int)


def u1_rep(charges) -> UnitaryRep:
    """Diagonal U(1) representation with the given integer charges, held by them: no generator is built."""
    q = np.asarray(charges, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("need a non-empty list of charges")
    if not np.all(np.isfinite(q)):
        raise ValueError("generators have non-finite entries")
    return UnitaryRep(group=u1(), dim=q.size, charges=_integral_weights("U1", q))


def _spin_matrices(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generators of spin j = two_j/2 in the Pauli normalization (weights 2m)."""
    j = two_j / 2.0
    dim = two_j + 1
    m = j - np.arange(dim)  # descending weights, highest first
    jz = np.diag(m)
    up = np.zeros((dim, dim))
    for k in range(1, dim):
        up[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jx = (up + up.T) / 2.0
    jy = (up - up.T) / 2j
    return 2.0 * jx, 2.0 * np.asarray(jy, dtype=complex), 2.0 * jz


def spin_rep(j: float) -> UnitaryRep:
    """Spin-j representation of SU(2); basis ordered by descending weight."""
    two_j = int(round(2 * j))
    if two_j < 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError("spin must be a non-negative half-integer")
    gx, gy, gz = _spin_matrices(two_j)
    return lie_rep(su2(), np.stack([gx, gy, gz]))


def trivial_rep(group: FiniteGroup | LieDescriptor, dim: int = 1) -> UnitaryRep:
    if isinstance(group, FiniteGroup):
        return UnitaryRep(group=group, dim=dim, sigma=np.tile(np.arange(dim), (group.order, 1)))
    gens = np.zeros((group.algebra_dim, dim, dim), dtype=complex)
    return lie_rep(group, gens)


def regular_rep(group: FiniteGroup, side: str = "left") -> UnitaryRep:
    """Permutation representation on C^|G|: left |h> -> |gh>, right |h> -> |h g^-1>.

    Its table is read from the validated product table: sigma[g, h] = gh, or h g^-1.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    table = group.product_table
    sigma = table.copy() if side == "left" else table.T[group.inverse_table]
    return UnitaryRep(group=group, dim=group.order, sigma=sigma)


def rep_evaluate(rep: UnitaryRep, g) -> np.ndarray:
    """Matrix of the representation at a group element: ``_act`` on the identity matrix."""
    el = rep.element(g)
    if rep.is_finite:
        if not isinstance(el, FiniteElement) or el.group is not rep.group:
            raise ValueError("element does not belong to this representation's group")
    elif not isinstance(el, LieElement) or el.descriptor.kind != rep.group.kind:
        raise ValueError("element does not belong to this representation's group")
    return _act(rep, [el], np.eye(rep.dim)[None])[0]


def _exponentials(rep: UnitaryRep, at: np.ndarray) -> np.ndarray:
    """(n, dim, dim) exponentials exp(i sum_a c_{n,a} K_a) of a generator-held Lie rep at coordinates ``at``
    (n, algebra_dim): exactly diagonal exponents entrywise, the others by one batched ``eigh``."""
    k = sum(at[:, a, None, None] * gen for a, gen in enumerate(rep.generators))
    diag, d, out = np.array([_is_diagonal(m) for m in k], dtype=bool), np.arange(rep.dim), np.zeros(k.shape, complex)
    out[np.flatnonzero(diag)[:, None], d, d] = np.exp(1j * np.diagonal(k[diag], axis1=1, axis2=2))
    vals, vecs = np.linalg.eigh(k[~diag])
    out[~diag] = (vecs * np.exp(1j * vals)[:, None, :]) @ np.conj(vecs).transpose(0, 2, 1)
    return out


def _kronecker_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K x 1 + 1 x K' per pair of generators, one pair at a time: 4 dim^2 arrays at the peak, not 6."""
    out = np.empty((len(x), x.shape[1] * y.shape[1], x.shape[1] * y.shape[1]), dtype=complex)
    for o, k, k2 in zip(out, x, y):
        o[:] = np.kron(k, np.eye(len(k2)))
        o += np.kron(np.eye(len(k)), k2)
    return out


def _apply_generator(rep: UnitaryRep, a: int, v: np.ndarray) -> np.ndarray:
    """K_a v for v (dim, ...), as the rep holds K_a: a charge- or factor-held rep's Cartan generator scales row j by
    weight w_j and its factors' K_x, K_y act on their own axes (v as (lead, d_k, rest)), else a dense matmul."""
    v = np.asarray(v, dtype=complex)
    if rep.charges is None and rep.factors is None:
        return rep.generators[a] @ v
    if a == rep.group.algebra_dim - 1:
        return weight_basis(rep).weights.reshape(-1, *[1] * (v.ndim - 1)) * v
    out, lead = np.zeros(v.shape, dtype=complex), 1
    for f in rep.factors:
        out += (f.generators[a] @ v.reshape(lead, f.dim, -1)).reshape(v.shape)
        lead *= f.dim
    return out


def _tensor2(a: UnitaryRep, b: UnitaryRep) -> UnitaryRep:
    """The pair rule: composed permutation tables, per-element Kronecker products, summed charges
    q_{a x b}(i d_b + j) = q_a(i) + q_b(j), joined factors of SU(2) reps with diagonal J_z, or K x 1 + 1 x K'."""
    d = a.dim * b.dim
    if a.is_finite:
        sa, sb = permutation_table(a), permutation_table(b)
        if sa is not None and sb is not None:
            return UnitaryRep(group=a.group, dim=d, sigma=(sa[:, :, None] * b.dim + sb[:, None, :]).reshape(len(sa), d))
        mats = np.einsum("gij,gkl->gikjl", a.matrices, b.matrices).reshape(len(a.matrices), d, d)
        return UnitaryRep(group=a.group, dim=d, matrices=mats)
    if a.charges is not None and b.charges is not None:
        return UnitaryRep(group=a.group, dim=d, charges=(a.charges[:, None] + b.charges[None, :]).reshape(d))
    spins = [r.factors or (r,) for r in (a, b) if r.factors or r.group.kind == "SU2" and _is_diagonal(r.generators[-1])]
    if len(spins) == 2:
        return UnitaryRep(group=a.group, dim=d, factors=spins[0] + spins[1])
    return UnitaryRep(group=a.group, dim=d, generators=_kronecker_sum(a.generators, b.generators))


def tensor(reps: list[UnitaryRep]) -> UnitaryRep:
    """Tensor product representation: the pair rule ``_tensor2`` folded over the factors in order."""
    if not reps:
        raise ValueError("need at least one representation")
    first = reps[0]
    for r in reps[1:]:
        if r.is_finite != first.is_finite:
            raise ValueError("cannot mix finite and Lie representations")
        if (r.group is not first.group) if r.is_finite else (r.group.kind != first.group.kind):
            raise ValueError("representations must share the group")
    return functools.reduce(_tensor2, reps)


def conjugate_rep(rep: UnitaryRep) -> UnitaryRep:
    """Entrywise-conjugate representation (Lie: generators K -> -K^T, charges q -> -q, factors conjugated)."""
    if rep.is_finite:
        return UnitaryRep(group=rep.group, dim=rep.dim, matrices=np.conj(rep.matrices))
    if rep.charges is not None:
        return UnitaryRep(group=rep.group, dim=rep.dim, charges=-rep.charges)
    if rep.factors is not None:
        return UnitaryRep(group=rep.group, dim=rep.dim, factors=tuple(conjugate_rep(f) for f in rep.factors))
    return UnitaryRep(group=rep.group, dim=rep.dim, generators=-np.transpose(rep.generators, (0, 2, 1)))


# ---------------------------------------------------------------------------
# isotypic decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsotypicBlock:
    """One isotypic component: ``grid[:, a, m]`` is weight slot a of copy m.

    The grid is aligned: the representation acts with the same irrep matrices
    along the a-axis for every multiplicity index m, and trivially along m.
    """

    label: str
    irrep_dim: int
    multiplicity: int
    grid: np.ndarray  # (ambient_dim, irrep_dim, multiplicity)

    @property
    def dim(self) -> int:
        return self.irrep_dim * self.multiplicity

    def basis_matrix(self) -> np.ndarray:
        return self.grid.reshape(self.grid.shape[0], -1)


@dataclass(frozen=True)
class IsotypicDecomposition:
    ambient_dim: int
    blocks: tuple[IsotypicBlock, ...]
    seed: int | None = None  # PRNG seed used for finite-group refinement

    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)


def _ladders(rep: UnitaryRep, tol: Tolerance) -> list[tuple[int, list[np.ndarray]]]:
    """SU(2) isotypic blocks as (top weight, [V_0, V_1, ...]), cached per tolerance.

    V_a holds slot a of every copy on the weight-(top - 2a) columns: V_0 = ker J_+
    on weight 2j, lowered by J_- = J_+^dag for all copies at once, normalized
    per column (aligned).
    """
    key = ("ladders", tol)
    if key in rep._iso_cache:
        return rep._iso_cache[key]
    wb = weight_basis(rep)
    up = _raising_blocks(rep, wb)
    ladders = []
    for top in sorted((w for w in wb.sectors if w >= 0), reverse=True):
        v = canonicalize_basis(nullspace(up[top], tol), tol)
        if v.shape[1] == 0:
            continue
        slots = [v]
        for w in range(top, -top, -2):
            v = dagger(up[w - 2]) @ slots[-1]
            nrm = np.linalg.norm(v, axis=0)
            if np.any(nrm < tol.t):
                raise ValueError("ladder terminated early; generators inconsistent")
            slots.append(v / nrm)
        ladders.append((top, slots))
    total = sum(len(slots) * slots[0].shape[1] for _, slots in ladders)
    if total != rep.dim:
        raise ValueError(f"isotypic decomposition incomplete: {total} of {rep.dim} dimensions")
    rep._iso_cache[key] = ladders
    return ladders


def _raising_blocks(rep: UnitaryRep, wb: WeightBasis) -> dict:
    """Block w of J_+ = (K_x + i K_y)/2 in weight coordinates maps sector w to w + 2, for w and w - 2 over the weights.
    A factor-held rep scatters them, exactly the dense entries: column j with digit q on factor k (stride s_k) gets
    the factor's J_+[p, q] at row j + (p - q) s_k for each p of weight w_q + 2.  Any other rep slices its dense J_+."""
    sec, j, keys = wb.sectors, np.arange(rep.dim), set(wb.sectors) | {w - 2 for w in wb.sectors}
    if rep.factors is None:
        up = wb.into((rep.generators[0] + 1j * rep.generators[1]) / 2.0)
        return {w: up[np.ix_(sec.get(w + 2, []), sec.get(w, []))] for w in keys}
    blocks = {w: np.zeros((len(sec.get(w + 2, [])), len(sec.get(w, []))), dtype=complex) for w in keys}
    pos, stride = np.zeros(rep.dim, dtype=int), rep.dim
    for idx in sec.values():
        pos[idx] = np.arange(idx.size)  # each index's place in its sector
    for f in rep.factors:
        stride //= f.dim
        up, fw = (f.generators[0] + 1j * f.generators[1]) / 2.0, weight_basis(f).weights
        for p, q in zip(*np.nonzero(up)):
            cols = j[(j // stride % f.dim == q) & (fw[p] == fw[q] + 2)]
            for w in np.unique(wb.weights[cols]):
                at = cols[wb.weights[cols] == w]
                blocks[w][pos[at + (p - q) * stride], pos[at]] = up[p, q]
    return blocks


def _commutant_dim(mats: np.ndarray) -> int:
    """sum m^2 over the irreps of a finite unitary rep: its character norm (1/|G|) sum_g |tr rho(g)|^2 (Serre 2.3)."""
    return int(round(float(np.mean(np.abs(np.trace(mats, axis1=1, axis2=2)) ** 2))))


def _intertwiner(mats_a: list[np.ndarray], mats_b: list[np.ndarray], tol: Tolerance) -> np.ndarray | None:
    """Unitary M with rho_b(g) M = M rho_a(g) for all g, or None if inequivalent."""
    d = mats_a[0].shape[0]
    # row-major vec: rho_b M - M rho_a = (rho_b x I - I x rho_a^T) vec(M)
    rows = [np.kron(b, np.eye(d)) - np.kron(np.eye(d), a.T) for a, b in zip(mats_a, mats_b)]
    ker = nullspace(np.vstack(rows), tol)
    if ker.shape[1] == 0:
        return None
    m = ker[:, 0].reshape(d, d)
    # Schur: M^dag M is a positive multiple of the identity; rescale to unitary
    scale = np.sqrt(np.trace(dagger(m) @ m).real / d)
    return fix_phase(m.reshape(-1) / scale, tol).reshape(d, d)


def _character_key(mats: list[np.ndarray]) -> tuple:
    return tuple(
        (round(float(np.trace(m).real), 6), round(float(np.trace(m).imag), 6)) for m in mats
    )


def _finite_isotypic(rep: UnitaryRep, tol: Tolerance, seed: int) -> IsotypicDecomposition:
    """Eigen-decomposition of the twirl of a seeded generic Hermitian matrix,
    retried until every eigenblock is certifiably irreducible (1-dim commutant)."""
    n, sigma = rep.dim, permutation_table(rep)
    rng = np.random.default_rng(seed)
    last_dims: list[int] = []
    for _ in range(8):
        t = _finite_twirl(rep, random_hermitian(rng, n))
        vals, vecs = np.linalg.eigh(t)
        gaps = np.flatnonzero(np.diff(vals) > 1e-7 * np.abs(vals).max(initial=1.0)) + 1
        splits = [0, *gaps.tolist(), n]
        copies, last_dims = [], []
        for lo, hi in zip(splits[:-1], splits[1:]):
            basis = canonicalize_basis(vecs[:, lo:hi], tol)
            left = dagger(basis) @ rep.matrices if sigma is None else np.conj(basis[sigma]).transpose(0, 2, 1)
            copies.append((basis, left @ basis))  # (B^dag U_g) B: on a table B^dag U_g is the gather B^dag[:, sigma_g]
            last_dims.append(_commutant_dim(copies[-1][1]))
            if last_dims[-1] != 1:
                break
        if last_dims[-1] != 1:
            continue
        # group equivalent copies and align their bases through intertwiners
        classes: list[dict] = []
        for basis, restricted in copies:
            for cls in classes:
                m = _intertwiner(cls["mats"], restricted, tol) if restricted[0].shape == cls["mats"][0].shape else None
                if m is not None:
                    cls["members"].append(basis @ m)
                    break
            else:
                classes.append({"mats": restricted, "members": [basis]})
        classes.sort(key=lambda c: (c["mats"][0].shape[0], -len(c["members"]), _character_key(c["mats"])))
        blocks = []
        for k, cls in enumerate(classes):
            d = cls["mats"][0].shape[0]
            grid = np.stack(cls["members"], axis=2)
            blocks.append(
                IsotypicBlock(label=f"{d}d-{k}", irrep_dim=d, multiplicity=len(cls["members"]), grid=grid)
            )
        return IsotypicDecomposition(n, tuple(blocks), seed=seed)
    raise ValueError(
        f"isotypic block refinement did not converge; achieved commutant dims {last_dims}"
    )


def isotypic_decompose(rep: UnitaryRep, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> IsotypicDecomposition:
    key = ("iso", tol.t, seed)
    if key in rep._iso_cache:
        return rep._iso_cache[key]
    if rep.is_finite:
        deco = _finite_isotypic(rep, tol, seed)
    else:
        wb = weight_basis(rep)
        blocks = []
        u1 = rep.group.kind == "U1"  # one block per charge sector, V_0 = 1
        ladders = ([(q, [np.eye(i.size, dtype=complex)]) for q, i in sorted(wb.sectors.items(), reverse=True)]
                   if u1 else _ladders(rep, tol))
        for top, slots in ladders:
            grid = np.stack([wb.embed(wb.sectors[top - 2 * a], v) for a, v in enumerate(slots)], axis=1)
            label = f"q={top}" if u1 else f"j={top // 2}" if top % 2 == 0 else f"j={top}/2"
            blocks.append(IsotypicBlock(label=label, irrep_dim=len(slots), multiplicity=grid.shape[2], grid=grid))
        deco = IsotypicDecomposition(rep.dim, tuple(blocks))
    rep._iso_cache[key] = deco
    return deco


# ---------------------------------------------------------------------------
# group averaging
# ---------------------------------------------------------------------------


def _exact_permutation(mats: np.ndarray) -> np.ndarray | None:
    """p with m e_j = e_{p[j]} for each matrix m of a stack (..., d, d) whose every entry is exactly 0 or 1 with
    a single 1 in each row and column, or None if any matrix is not such a permutation matrix."""
    ones = mats == 1
    exact = np.all(ones | (mats == 0)) and np.all(ones.sum(axis=-2) == 1) and np.all(ones.sum(axis=-1) == 1)
    return np.argmax(ones, axis=-2) if exact else None


def permutation_table(rep: UnitaryRep) -> np.ndarray | None:
    """(|G|, dim) table sigma with U_g e_j = e_{sigma[g, j]}, or None.

    Not None only for a finite rep whose every matrix is an exact permutation
    matrix: the table a permutation rep was built from, or else read once from
    the dense matrices and cached on the rep.
    """
    if not rep.is_finite:
        return None
    if "perm" not in rep._iso_cache:
        rep._iso_cache["perm"] = _exact_permutation(rep.matrices)
    return rep._iso_cache["perm"]


def _elements(rep: UnitaryRep, elements) -> np.ndarray:
    """Element indices (finite, shape (n,)) or exponential coordinates (Lie, (n, algebra_dim)) of a sequence of
    elements, as ``rep.element`` reads each; an array is taken as such already."""
    if isinstance(elements, np.ndarray):
        return elements
    if rep.is_finite:
        return np.array([rep.element(g).index for g in elements], dtype=int)
    return np.array([rep.element(g).coords for g in elements], dtype=float).reshape(len(elements), -1)


def _inverses(rep: UnitaryRep, elements) -> np.ndarray:  # ``_elements`` of the inverses: negated coordinates on Lie
    at = _elements(rep, elements)
    return rep.group.inverse_table[at] if rep.is_finite else -at


def _act(rep: UnitaryRep, elements, v: np.ndarray) -> np.ndarray:
    """U_g v_g for each element g of ``elements`` (``_elements``), shape (n,) + v.shape[1:]: ``v`` stacks one vector
    (n, dim) or matrix (n, dim, m) per element, or holds one, (1, dim[, m]), broadcast over the elements.  The
    leading axis is always the stack's, so a stack of vectors is never read as a matrix.  U_g^dag v is ``_act`` at
    ``_inverses``.  Each rep form acts its own way: a permutation table scatters, (U_g v)[sigma_g(j)] = v[j], exactly;
    charges scale coordinate j by exp(i theta q_j); any other rep multiplies by its element matrices, on a Lie rep
    ``_exponentials``, one factor at a time on a factor-held rep."""
    at, v = _elements(rep, elements), np.asarray(v)
    if rep.charges is not None:
        phases = np.exp(1j * (at[:, :1] * rep.charges))
        return phases.reshape(phases.shape + (1,) * (v.ndim - 2)) * v
    sigma = permutation_table(rep)
    if sigma is not None:
        out = np.empty((len(at),) + v.shape[1:], dtype=np.result_type(v, complex))
        out[np.arange(len(at))[:, None], sigma[at]] = v
        return out
    if rep.is_finite:
        return (rep.matrices[at] @ (v if v.ndim == 3 else v[..., None])).reshape((len(at),) + v.shape[1:])
    out, lead = np.asarray(v, dtype=complex), 1
    for f in rep.factors or (rep,):  # each factor's element matrices on its own axis, as (n, lead, d_k, rest)
        out = _exponentials(f, at)[:, None] @ out.reshape(len(out), lead, f.dim, -1)
        lead *= f.dim
    return out.reshape((len(at),) + v.shape[1:])


@dataclass(frozen=True, eq=False)
class _IndexOrbits:
    """The orbits of a permutation table's indices, O(|G| dim) numbers in all.  ``leaders`` holds each orbit's
    smallest index in increasing order, ``orbit[i]`` the orbit of index i, ``t[i]`` the smallest g with
    sigma_g(i) = leaders[orbit[i]], ``sizes`` the orbit sizes and ``inverse[g]`` the table of g^-1, sigma_g^-1."""

    sigma: np.ndarray
    leaders: np.ndarray
    orbit: np.ndarray
    t: np.ndarray
    sizes: np.ndarray
    inverse: np.ndarray


def _index_orbits(rep: UnitaryRep) -> _IndexOrbits:
    """The ``_IndexOrbits`` of a table-held rep's table, cached on the rep; the orbit of j is {sigma_g(j)}."""
    if "orbits" not in rep._iso_cache:
        sigma = permutation_table(rep)
        low = sigma.min(axis=0)
        leaders, orbit = np.unique(low, return_inverse=True)
        t = np.argmax(sigma == low, axis=0)
        rep._iso_cache["orbits"] = _IndexOrbits(sigma, leaders, orbit, t, np.bincount(orbit),
                                               sigma[rep.group.inverse_table])
    return rep._iso_cache["orbits"]


# The pair-orbit labels survive only as ``_dense_index``, the gather that densifies leader rows.  It is a running
# minimum over blocks of at most PAIR_BLOCK pair images (one row of a 512-dim table, most of a 216-dim one), not an
# O(dim^2) read of the index orbits, because freeing that block once raises glibc malloc's dynamic mmap and trim
# thresholds: without it every kin^2 array of a warm S3 query (the densified observables a caller subtracts) is
# mapped and faulted in afresh (a reorientation query: 0.80-1.02 ms, not 0.38).  It is built only when leader rows
# are densified, by a caller's ``dense()`` or a table twirl, and no finite report densifies them on its total rep.
PAIR_BLOCK = 2**18


def _dense_index(rep: UnitaryRep) -> np.ndarray:
    """(dim, dim) index into the flat leader rows of an ``OrbitMeans`` on rep: entry (i, j) is o dim + j', where
    (l_o, j') is the smallest flat pair of the orbit of (i, j) under the diagonal action, whose row is the leader l_o.

    The smallest pair is a running minimum over blocks of the rep's table rows, at most ``PAIR_BLOCK`` pair images
    or one row at a time, never the (|G|, dim^2) table.  Under a free action o dim + j' is the pair orbit's rank
    among the smallest pairs, its label.  Cached on the rep: dim^2 ints, built on the first densify.
    """
    if "dense_index" not in rep._iso_cache:
        sigma, d = permutation_table(rep), rep.dim
        step = max(1, PAIR_BLOCK // (d * d))
        low = np.full(d * d, d * d)
        for k in range(0, len(sigma), step):
            rows = sigma[k:k + step]
            for image in (rows[:, :, None] * d + rows[:, None, :]).reshape(len(rows), -1):
                np.minimum(low, image, out=low)
        col = low % d
        low //= d  # the leader's index, in place, then its orbit
        np.take(_index_orbits(rep).orbit, low, out=low)
        low *= d
        low += col
        rep._iso_cache["dense_index"] = low.reshape(d, d)
    return rep._iso_cache["dense_index"]


def _finite_twirl(rep: UnitaryRep, a: np.ndarray) -> np.ndarray:
    """Uniform average of U A U^dag over a finite rep.

    With a permutation table, (U_g A U_g^dag)[i, j] = A[sigma_g^-1 i, sigma_g^-1 j], so the average's row at a
    leader l is the mean over g of A[sigma_g(l)][:, sigma_g]: held as ``OrbitMeans`` and densified.  Otherwise
    batched dense matmuls over the table.
    """
    sigma = permutation_table(rep)
    if sigma is None:
        mats = rep.matrices
        return np.mean((mats @ a) @ np.conj(np.transpose(mats, (0, 2, 1))), axis=0)
    rows = sigma[:, _index_orbits(rep).leaders]
    return OrbitMeans(rep, sum(a[np.ix_(row, col)] for row, col in zip(rows, sigma)) / len(sigma)).dense()


@dataclass(frozen=True, eq=False)
class OrbitMeans:
    """A G-invariant operator F on a table-held finite rep by its rows at the index-orbit leaders (the module's held
    protocol): ``means[o]`` is F's row at leader l_o, shape (n_orbits, dim), each entry the mean of its pair orbit.
    Invariance gives the rest, F[i, j] = means[orbit(i), sigma_{t(i)}(j)] (``_index_orbits``)."""

    rep: UnitaryRep
    means: np.ndarray

    def dense(self) -> np.ndarray:
        return self.means.reshape(-1).take(_dense_index(self.rep))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """(F v)[i] = sum_k means[orbit(i), k] v[sigma_{t(i)}^-1(k)] = Y[orbit(i), t(i)], Y = means @ v[sigma^-1]^T:
        one product over the group, for a vector or each column of a matrix."""
        o, v = _index_orbits(self.rep), np.asarray(v)
        y = self.means @ v[o.inverse.T].reshape(self.rep.dim, -1)  # row o, then (g, column) in order
        return y.reshape((-1,) + v.shape[1:]).take(o.orbit * len(o.inverse) + o.t, axis=0)

    def __sub__(self, other: OrbitMeans) -> OrbitMeans:
        return OrbitMeans(self.rep, self.means - other.means)  # both on self.rep: the same leader rows

    def restrict(self, b: np.ndarray) -> np.ndarray:
        """B^dag F B for invariant columns b: F b is invariant too, so (F b)[i] = (means b)[orbit(i)], and
        B^dag F B = S^dag (means b) with S the sums of b's rows over each orbit, S[o] = |o| b[l_o]."""
        o = _index_orbits(self.rep)
        return dagger(o.sizes[:, None] * b[o.leaders]) @ (self.means @ b)

    def norm(self) -> float:
        """||F||_F: row o of means appears, permuted, once per index of its orbit."""
        return float(np.sqrt(_index_orbits(self.rep).sizes @ np.sum(np.abs(self.means) ** 2, axis=1)))

    def largest_entry(self) -> float:
        return float(np.abs(self.means).max(initial=0.0))  # every held entry is an entry, and every entry is held

    def invariant_on(self, rep: UnitaryRep) -> bool:
        return self.rep is rep  # the leader rows are read through this rep's action

    def dirac_defect(self, rep: UnitaryRep) -> float | None:  # the strong Dirac defect, or None if not known
        return 0.0 if self.invariant_on(rep) else None

    def leaders(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column of each held entry, as broadcastable (n_orbits, 1) and (1, dim) arrays: means[o, j] is
        the entry at (leaders[o], j)."""
        return _index_orbits(self.rep).leaders[:, None], np.arange(self.rep.dim)[None, :]

    def read(self, rows: np.ndarray, cols: np.ndarray) -> OrbitMeans:
        """The held operator whose entry (o, j) is this operator's entry (rows[o, j], cols[o, j]), broadcast: an
        invariant operator held so when it is known to equal these entries at the ``leaders``."""
        o, d = _index_orbits(self.rep), self.rep.dim
        flat = o.sigma.reshape(-1).take(o.t[rows] * d + cols)  # sigma_{t(r)}(c)
        flat += o.orbit[rows] * d
        return OrbitMeans(self.rep, self.means.reshape(-1).take(flat))


@dataclass(frozen=True, eq=False)
class WeightBlocks:
    """An operator block-diagonal in a Lie rep's weights (the module's held protocol): ``blocks[w]`` acts on
    ``basis.sectors[w]`` in weight coordinates, and ``@ v`` applies W (+)_w B_w W^dag v without building it."""

    basis: WeightBasis
    blocks: dict

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        wb = self.basis
        x = v if wb.vectors is None else dagger(wb.vectors) @ v
        out = np.zeros(x.shape, dtype=complex)
        for w, idx in wb.sectors.items():
            out[idx] = self.blocks[w] @ x[idx]
        return out if wb.vectors is None else wb.vectors @ out

    def dense(self) -> np.ndarray:
        out = np.zeros((self.basis.weights.size,) * 2, dtype=complex)
        for w, idx in self.basis.sectors.items():
            out[np.ix_(idx, idx)] = self.blocks[w]
        return self.basis.back(out)

    def restrict(self, b: np.ndarray | RowLabels) -> np.ndarray:
        """Physical columns b have weight 0 and see the weight-0 block alone: x^dag B_0 x, x = (W^dag b)[sector 0].
        Labelled columns (``linalg.RowLabels``) that are each one exact 1, at row idx[p_j], as on a charge-held rep,
        give the gather B_0[p][:, p] with W = 1, bit-equal to the product, and x is never formed."""
        idx, block = self.basis.sectors.get(0, np.zeros(0, dtype=int)), self.blocks.get(0, np.zeros((0, 0)))
        if isinstance(b, RowLabels) and self.basis.vectors is None and b.rows.size == b.dim and np.all(b.vals == 1):
            p = np.searchsorted(idx, b.rows[np.argsort(b.cols)])  # one label per column, in sector 0: b is physical
            return block[np.ix_(p, p)]
        x = (b if self.basis.vectors is None else dagger(self.basis.vectors) @ b)[idx]
        return dagger(x) @ block @ x

    def largest_entry(self) -> float:  # with W = 1, as on a charge-held rep, every entry off the blocks is 0
        return max((float(np.abs(b).max(initial=0.0)) for b in self.blocks.values()), default=0.0)

    def invariant_on(self, rep: UnitaryRep) -> bool:
        return rep.charges is not None  # each block is in one charge sector, where K is a multiple of 1

    def dirac_defect(self, rep: UnitaryRep) -> float | None:
        """max_a ||[K_a, A]||_F, or None off an SU(2) rep held by its factors (W = 1), where [K_z, A] = 0 and
        K_x = J_+ + J_-, K_y = i (J_- - J_+) give one norm, from the blocks J_+ A_w - A_{w+2} J_+ and
        A_w J_- - J_- A_{w+2} between adjacent sectors (J_+ from ``_raising_blocks``)."""
        if self.invariant_on(rep):
            return 0.0
        if rep.factors is None:
            return None
        a, up = self.blocks, _raising_blocks(rep, self.basis)
        return float(np.sqrt(sum(np.linalg.norm(j @ a[w] - a[w + 2] @ j) ** 2 + np.linalg.norm(
            a[w] @ dagger(j) - dagger(j) @ a[w + 2]) ** 2 for w, j in up.items() if w in a and w + 2 in a)))

    @staticmethod
    def of(wb: WeightBasis, a: np.ndarray) -> WeightBlocks:
        """The diagonal weight blocks of W^dag A W; the twirl discards the rest."""
        a = wb.into(a)
        return WeightBlocks(wb, {w: a[np.ix_(idx, idx)] for w, idx in wb.sectors.items()})


def lie_twirl(rep: UnitaryRep, a: WeightBlocks, tol: Tolerance = DEFAULT_TOL, scale: float = 1.0) -> WeightBlocks:
    """``scale`` times the Haar-probability twirl of a Lie rep, on weight blocks (Schur: it is block-diagonal).

    U(1): each charge block as it is, scaled in place, so ``a`` must be an operand
    the caller does not keep.  SU(2): the commutant projection; each
    ladder keeps c = (1/(2j+1)) sum_k V_k^dag A_ww V_k and puts V_k c V_k^dag
    back on the weight block w = 2j - 2k.
    """
    out = a.blocks
    if rep.group.kind == "SU2":
        out = {w: np.zeros_like(b) for w, b in a.blocks.items()}
        for top, slots in _ladders(rep, tol):
            c = sum(dagger(v) @ a.blocks[top - 2 * k] @ v for k, v in enumerate(slots)) / len(slots)
            for k, v in enumerate(slots):
                out[top - 2 * k] += v @ c @ dagger(v)
    for b in out.values():
        b *= scale  # in place: on U(1) the operand's own blocks, which every caller passes as a temporary
    return WeightBlocks(a.basis, out)


def group_average(
    rep: UnitaryRep,
    operand: np.ndarray,
    mode: str = "twirl",
    measure_scale: float = 1.0,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """measure_scale times the Haar-probability twirl of ``operand``.

    Finite: uniform sum; Lie: ``lie_twirl`` of the operand's weight blocks, densified.
    """
    if measure_scale <= 0:
        raise ValueError("measure_scale must be positive")
    if mode != "twirl":
        raise ValueError(f"unknown mode {mode!r}")
    a = as_cmatrix(operand)
    if a.shape != (rep.dim, rep.dim):
        raise ValueError("operand dimension does not match the representation")
    out = _finite_twirl(rep, a) if rep.is_finite else lie_twirl(rep, WeightBlocks.of(weight_basis(rep), a), tol).dense()
    out *= measure_scale  # in place: both twirls return a fresh array
    return out


def constraints(rep: UnitaryRep) -> np.ndarray:
    """(k, dim, dim) stack of U_s - 1 per finite generator s, or the Lie generators; dense, not cached."""
    if rep.is_finite:
        return _act(rep, np.asarray(rep.group.generators, dtype=int), np.eye(rep.dim)[None]) - np.eye(rep.dim)
    return rep.generators


def apply_constraints(rep: UnitaryRep, v: np.ndarray) -> np.ndarray:
    """``constraints(rep) @ v``, shape (k, dim, m): U_s v - v by ``_act`` (with a permutation table a scatter,
    (U_s v)[sigma_s(j)] = v[j]), or each K_a v as the rep holds K_a (``_apply_generator``)."""
    if not rep.is_finite:
        return np.stack([_apply_generator(rep, a, v) for a in range(rep.group.algebra_dim)])
    return _act(rep, np.asarray(rep.group.generators, dtype=int), np.asarray(v)[None]) - v


def fixed_subspace(rep: UnitaryRep, tol: Tolerance = DEFAULT_TOL) -> Subspace | RowLabels:
    """Joint fixed subspace of the representation: the kernel of its constraints.

    Held by its row labels (``linalg.RowLabels``), exact, with no SVD: with a permutation table the normalised
    orbit indicators, B[j, orbit(j)] = 1/sqrt(|orbit|), one column per orbit in the order of its smallest index;
    on a charge-held rep the charge-0 kets in ket order.  Both are ``canonicalize_basis`` order already.
    Any other Lie rep: the top of the weight-0 ladder (U(1): the charge-0 columns, SU(2): spin 0), dense.
    """
    if rep.is_finite:
        if permutation_table(rep) is None:
            return joint_fixed_subspace(constraints(rep), tol)
        o = _index_orbits(rep)
        return RowLabels(rep.dim, np.arange(rep.dim), o.orbit, (1.0 / np.sqrt(o.sizes)[o.orbit]).astype(complex),
                         o.leaders.size)
    wb = weight_basis(rep)
    idx = wb.sectors.get(0, np.zeros(0, dtype=int))
    if rep.charges is not None:
        return RowLabels.coordinates(rep.dim, idx)
    coeff = (np.eye(len(idx), dtype=complex) if rep.group.kind == "U1"
             else next((slots[0] for top, slots in _ladders(rep, tol) if top == 0), np.zeros((len(idx), 0))))
    return Subspace(rep.dim, canonicalize_basis(wb.embed(idx, coeff), tol))


def invariant_closure(rep: UnitaryRep, v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Smallest invariant subspace containing ``v``: a vector, or a matrix whose columns span the start.

    Grown by the constraints, since span{v, U_s v} = span{v, (U_s - 1) v}.
    """
    start = np.asarray(v, dtype=complex)
    basis = orthonormal_range(start[:, None] if start.ndim == 1 else start, tol).basis
    if basis.shape[1] == 0:
        raise ValueError("need a nonzero vector")
    while True:
        grown = np.hstack([basis, *apply_constraints(rep, basis)])
        new_basis = orthonormal_range(grown, tol).basis
        if new_basis.shape[1] == basis.shape[1]:
            return Subspace(rep.dim, new_basis)
        basis = new_basis
