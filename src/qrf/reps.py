"""Unitary representations and exact group averaging.

Finite groups carry per-element matrix tables; U(1) and SU(2) carry
Hermitian generators in the convention [K_a, K_b] = 2i f_abc K_c (so the
spin-1/2 generators are the Pauli matrices themselves and weights are the
integers 2m).  Group averaging over the Lie groups is done exactly through
the commutant projection induced by an isotypic decomposition, never by
quadrature.

Every invariance question goes through one family of constraint operators,
``constraints(rep)``: U_s - 1 for the generators s of a finite group, K_a
for a Lie group.  The fixed space is their joint kernel, an operator is
gauge-invariant iff it commutes with each of them, and an invariant closure
grows by them.

A finite rep whose every matrix is exactly a 0/1 permutation (the regular
reps, their tensor products, and any rep assembled from them) also carries
a permutation table sigma, U_g e_j = e_{sigma_g(j)}, computed once from the
observed entries and cached.  The finite twirl of such a rep is the mean of
the operand over each orbit of index pairs, O(dim^2) and independent of |G|;
every other finite rep (sign reps, higher-dimensional irreps, tables off by
rounding) takes the dense batched-matmul twirl, which is also the tests'
oracle for the permutation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .groups import (
    FiniteElement,
    FiniteGroup,
    LieDescriptor,
    LieElement,
    su2,
    u1,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    as_cmatrix,
    canonicalize_basis,
    dagger,
    fix_phase,
    joint_fixed_subspace,
    nullspace,
    orthonormal_range,
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
    "permutation_table",
    "isotypic_decompose",
    "invariant_closure",
]


@dataclass(eq=False)
class UnitaryRep:
    """A unitary representation; immutable after construction by convention."""

    group: FiniteGroup | LieDescriptor
    dim: int
    matrices: np.ndarray | None = None    # finite: (|G|, dim, dim)
    generators: np.ndarray | None = None  # Lie: (algebra_dim, dim, dim), Hermitian
    _iso_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def is_finite(self) -> bool:
        return isinstance(self.group, FiniteGroup)

    def evaluate(self, g) -> np.ndarray:
        return rep_evaluate(self, g)

    def element(self, spec) -> FiniteElement | LieElement:
        """Wrap a raw index / coordinate array as an element of this rep's group."""
        from . import groups

        if self.is_finite:
            if isinstance(spec, FiniteElement):
                return spec
            return FiniteElement(self.group, int(spec))
        if isinstance(spec, LieElement):
            return spec
        return groups.lie_element(self.group, np.atleast_1d(spec))

    def identity_element(self):
        from . import groups

        return groups.identity_of(self.group)


def _check_unitary(m: np.ndarray, tol: Tolerance, what: str) -> None:
    d = m.shape[0]
    if np.linalg.norm(dagger(m) @ m - np.eye(d)) > 1e3 * tol.weighted(1.0) * d:
        raise ValueError(f"{what} is not unitary")


def finite_rep(group: FiniteGroup, matrices, tol: Tolerance = DEFAULT_TOL) -> UnitaryRep:
    """Validate a per-element matrix table as a unitary representation.

    rho(e) = 1 and rho(s) rho(x) = rho(s x) for each generator s and every x
    make it a homomorphism, since every element is a word in the generators.
    """
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
        raise ValueError("need one square matrix per group element")
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
    rep = UnitaryRep(group=desc, dim=dim, generators=gens)
    _integer_weights(rep)  # compact groups need integral weights; fail early
    return rep


def _integer_weights(rep: UnitaryRep) -> np.ndarray:
    """Spectrum of the distinguished diagonal generator, validated near-integer."""
    gen = rep.generators[-1] if rep.group.kind == "SU2" else rep.generators[0]
    vals = np.linalg.eigvalsh(gen)
    rounded = np.round(vals)
    if np.max(np.abs(vals - rounded)) > 1e-6:
        name = rep.group.kind
        raise ValueError(f"{name} weight spectrum must be integral, got {vals}")
    return rounded.astype(int)


def u1_rep(charges) -> UnitaryRep:
    """Diagonal U(1) representation with the given integer charges."""
    q = np.asarray(charges, dtype=float)
    return lie_rep(u1(), np.diag(q)[None, :, :])


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
        mats = np.broadcast_to(np.eye(dim, dtype=complex), (group.order, dim, dim)).copy()
        return finite_rep(group, mats)
    gens = np.zeros((group.algebra_dim, dim, dim), dtype=complex)
    return lie_rep(group, gens)


def regular_rep(group: FiniteGroup, side: str = "left") -> UnitaryRep:
    """Permutation representation on C^|G|: left |h> -> |gh>, right |h> -> |h g^-1>."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        for h in range(n):
            if side == "left":
                mats[g, group.mult(g, h), h] = 1.0
            else:
                mats[g, group.mult(h, group.inverse(g)), h] = 1.0
    return finite_rep(group, mats)


def rep_evaluate(rep: UnitaryRep, g) -> np.ndarray:
    """Matrix of the representation at a group element."""
    el = rep.element(g)
    if rep.is_finite:
        if not isinstance(el, FiniteElement) or el.group is not rep.group:
            raise ValueError("element does not belong to this representation's group")
        return rep.matrices[el.index]
    if not isinstance(el, LieElement) or el.descriptor.kind != rep.group.kind:
        raise ValueError("element does not belong to this representation's group")
    k = sum(c * rep.generators[a] for a, c in enumerate(el.coords))
    return scipy.linalg.expm(1j * k)


def tensor(reps: list[UnitaryRep]) -> UnitaryRep:
    """Tensor product representation (Kronecker products / Kronecker-sum generators)."""
    if not reps:
        raise ValueError("need at least one representation")
    first = reps[0]
    for r in reps[1:]:
        if r.is_finite != first.is_finite:
            raise ValueError("cannot mix finite and Lie representations")
        if r.is_finite and r.group is not first.group:
            raise ValueError("representations must share the group")
        if not r.is_finite and r.group.kind != first.group.kind:
            raise ValueError("representations must share the group")
    if len(reps) == 1:
        return first
    if first.is_finite:
        mats = reps[0].matrices
        for r in reps[1:]:
            mats = np.einsum("gij,gkl->gikjl", mats, r.matrices).reshape(
                first.group.order, mats.shape[1] * r.dim, mats.shape[1] * r.dim
            )
        return UnitaryRep(group=first.group, dim=mats.shape[1], matrices=mats)
    dims = [r.dim for r in reps]
    total = int(np.prod(dims))
    gens = np.zeros((first.group.algebra_dim, total, total), dtype=complex)
    for a in range(first.group.algebra_dim):
        for i, r in enumerate(reps):
            left = int(np.prod(dims[:i])) if i else 1
            right = int(np.prod(dims[i + 1:])) if i + 1 < len(reps) else 1
            gens[a] += np.kron(np.kron(np.eye(left), r.generators[a]), np.eye(right))
    return UnitaryRep(group=first.group, dim=total, generators=gens)


def conjugate_rep(rep: UnitaryRep) -> UnitaryRep:
    """Entrywise-conjugate representation (Lie: generators K -> -K^T)."""
    if rep.is_finite:
        return UnitaryRep(group=rep.group, dim=rep.dim, matrices=np.conj(rep.matrices))
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

    def projector(self) -> np.ndarray:
        b = self.basis_matrix()
        return b @ dagger(b)


@dataclass(frozen=True)
class IsotypicDecomposition:
    ambient_dim: int
    blocks: tuple[IsotypicBlock, ...]
    seed: int | None = None  # PRNG seed used for finite-group refinement

    def block(self, label: str) -> IsotypicBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)


def _raising_lowering(rep: UnitaryRep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gx, gy, gz = rep.generators
    return (gx + 1j * gy) / 2.0, (gx - 1j * gy) / 2.0, gz


def _weight_spaces(gz: np.ndarray, tol: Tolerance) -> dict[int, np.ndarray]:
    vals, vecs = np.linalg.eigh(gz)
    weights = np.round(vals).astype(int)
    out: dict[int, np.ndarray] = {}
    for w in sorted(set(weights.tolist()), reverse=True):
        cols = vecs[:, weights == w]
        out[w] = canonicalize_basis(cols, tol)
    return out


def _su2_isotypic(rep: UnitaryRep, tol: Tolerance) -> IsotypicDecomposition:
    """Highest-weight extraction: kernel of the raising operator per weight space,
    then repeated lowering with per-vector normalization (ladders stay aligned)."""
    raise_op, lower_op, gz = _raising_lowering(rep)
    spaces = _weight_spaces(gz, tol)
    blocks: list[IsotypicBlock] = []
    for w in sorted(spaces, reverse=True):
        if w < 0:
            break
        basis = spaces[w]
        if basis.shape[1] == 0:
            continue
        # highest-weight vectors of spin j = w/2: kernel of raising within W_w
        ker = nullspace(raise_op @ basis, tol)
        if ker.shape[1] == 0:
            continue
        hw = canonicalize_basis(basis @ ker, tol)
        d = w + 1
        m = hw.shape[1]
        grid = np.zeros((rep.dim, d, m), dtype=complex)
        for k in range(m):
            v = fix_phase(hw[:, k], tol)
            grid[:, 0, k] = v
            for a in range(1, d):
                v = lower_op @ v
                nrm = np.linalg.norm(v)
                if nrm < tol.abs_tol:
                    raise ValueError("ladder terminated early; generators inconsistent")
                v = v / nrm
                grid[:, a, k] = v
        label = f"{w // 2}" if w % 2 == 0 else f"{w}/2"
        blocks.append(IsotypicBlock(label=f"j={label}", irrep_dim=d, multiplicity=m, grid=grid))
    deco = IsotypicDecomposition(rep.dim, tuple(blocks))
    if deco.total_dim() != rep.dim:
        raise ValueError(
            f"isotypic decomposition incomplete: {deco.total_dim()} of {rep.dim} dimensions"
        )
    return deco


def _u1_isotypic(rep: UnitaryRep, tol: Tolerance) -> IsotypicDecomposition:
    spaces = _weight_spaces(rep.generators[0], tol)
    blocks = [
        IsotypicBlock(label=f"q={w}", irrep_dim=1, multiplicity=b.shape[1], grid=b[:, None, :])
        for w, b in spaces.items()
    ]
    return IsotypicDecomposition(rep.dim, tuple(blocks))


def _commutant_dim(mats: list[np.ndarray], tol: Tolerance) -> int:
    d = mats[0].shape[0]
    rows = [np.kron(m, np.eye(d)) - np.kron(np.eye(d), m.T) for m in mats]
    return nullspace(np.vstack(rows), tol).shape[1]


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
    m = m / scale
    return m * _phase_of_first(m, tol)


def _phase_of_first(m: np.ndarray, tol: Tolerance) -> complex:
    flat = m.reshape(-1)
    mags = np.abs(flat)
    idx = int(np.argmax(mags > tol.weighted(mags.max(initial=0.0))))
    pivot = flat[idx]
    return abs(pivot) / pivot if abs(pivot) > 0 else 1.0


def _character_key(mats: list[np.ndarray]) -> tuple:
    return tuple(
        (round(float(np.trace(m).real), 6), round(float(np.trace(m).imag), 6)) for m in mats
    )


def _finite_isotypic(rep: UnitaryRep, tol: Tolerance, seed: int) -> IsotypicDecomposition:
    """Eigen-decomposition of the twirl of a seeded generic Hermitian matrix,
    retried until every eigenblock is certifiably irreducible (1-dim commutant)."""
    n = rep.dim
    group = rep.group
    rng = np.random.default_rng(seed)
    last_dims: list[int] = []
    for _ in range(8):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (h + dagger(h)) / 2.0
        t = _finite_twirl(rep, h)
        vals, vecs = np.linalg.eigh(t)
        splits = [0]
        for i in range(1, n):
            if vals[i] - vals[i - 1] > 1e-7 * max(1.0, abs(vals[-1]), abs(vals[0])):
                splits.append(i)
        splits.append(n)
        copies = []
        ok = True
        last_dims = []
        for lo, hi in zip(splits[:-1], splits[1:]):
            basis = canonicalize_basis(vecs[:, lo:hi], tol)
            restricted = [dagger(basis) @ rep.matrices[g] @ basis for g in range(group.order)]
            cdim = _commutant_dim(restricted, tol)
            last_dims.append(cdim)
            if cdim != 1:
                ok = False
                break
            copies.append((basis, restricted))
        if not ok:
            continue
        # group equivalent copies and align their bases through intertwiners
        classes: list[dict] = []
        for basis, restricted in copies:
            placed = False
            for cls in classes:
                if restricted[0].shape != cls["mats"][0].shape:
                    continue
                m = _intertwiner(cls["mats"], restricted, tol)
                if m is not None:
                    cls["members"].append(basis @ m)
                    placed = True
                    break
            if not placed:
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
    key = ("iso", tol.abs_tol, tol.rel_tol, seed)
    if key in rep._iso_cache:
        return rep._iso_cache[key]
    if rep.is_finite:
        deco = _finite_isotypic(rep, tol, seed)
    elif rep.group.kind == "SU2":
        deco = _su2_isotypic(rep, tol)
    else:
        deco = _u1_isotypic(rep, tol)
    rep._iso_cache[key] = deco
    return deco


# ---------------------------------------------------------------------------
# group averaging
# ---------------------------------------------------------------------------


def permutation_table(rep: UnitaryRep) -> np.ndarray | None:
    """(|G|, dim) table sigma with U_g e_j = e_{sigma[g, j]}, or None.

    Not None only for a finite rep whose every entry is exactly 0 or 1 with a
    single 1 in each row and column; cached on the rep.
    """
    if not rep.is_finite:
        return None
    if "perm" not in rep._iso_cache:
        mats = rep.matrices
        ones = mats == 1
        exact = (
            np.all(ones | (mats == 0))
            and np.all(ones.sum(axis=1) == 1)
            and np.all(ones.sum(axis=2) == 1)
        )
        rep._iso_cache["perm"] = np.argmax(ones, axis=1) if exact else None
    return rep._iso_cache["perm"]


def _pair_orbits(rep: UnitaryRep, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orbit label of every flat index pair (i, j) under the diagonal action, and orbit sizes.

    The orbit of a pair is its image under every g, so labelling each pair by
    the smallest flat index in that image labels orbits; labels are then
    renumbered 0..(#orbits - 1).  Cached on the rep: dim^2 ints.
    """
    if "pair_orbits" not in rep._iso_cache:
        d = rep.dim
        low = np.full(d * d, d * d, dtype=np.int64)
        for s in sigma:
            np.minimum(low, (s[:, None] * d + s[None, :]).reshape(-1), out=low)
        leaders = low == np.arange(d * d)
        labels = (np.cumsum(leaders) - 1)[low]
        rep._iso_cache["pair_orbits"] = (labels, np.bincount(labels))
    return rep._iso_cache["pair_orbits"]


def _finite_twirl(rep: UnitaryRep, a: np.ndarray) -> np.ndarray:
    """Uniform average of U A U^dag over a finite rep.

    With a permutation table, (U_g A U_g^dag)[i, j] = A[sigma_g^-1 i, sigma_g^-1 j],
    so the average is the mean of A over each orbit of index pairs: two
    bincounts and a gather.  Otherwise batched dense matmuls over the table.
    """
    sigma = permutation_table(rep)
    if sigma is None:
        mats = rep.matrices
        return np.mean((mats @ a) @ np.conj(np.transpose(mats, (0, 2, 1))), axis=0)
    labels, sizes = _pair_orbits(rep, sigma)
    flat = a.reshape(-1)
    mean = (np.bincount(labels, flat.real) + 1j * np.bincount(labels, flat.imag)) / sizes
    return mean[labels].reshape(a.shape)


def _commutant_projection(rep: UnitaryRep, a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Hilbert-Schmidt-orthogonal projection onto the commutant of the rep.

    Equals the Haar average over the probability measure for connected
    compact groups.
    """
    deco = isotypic_decompose(rep, tol)
    out = np.zeros_like(a)
    for block in deco.blocks:
        g = block.grid
        c = np.einsum("iam,ij,jan->mn", np.conj(g), a, g, optimize=True)
        out += np.einsum("mn,iam,jan->ij", c / block.irrep_dim, g, np.conj(g), optimize=True)
    return out


def group_average(
    rep: UnitaryRep,
    operand: np.ndarray,
    mode: str = "twirl",
    measure_scale: float = 1.0,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """measure_scale times the Haar-probability twirl of ``operand``.

    Finite: uniform sum; Lie: commutant projection.
    """
    if measure_scale <= 0:
        raise ValueError("measure_scale must be positive")
    if mode != "twirl":
        raise ValueError(f"unknown mode {mode!r}")
    a = as_cmatrix(operand)
    if a.shape != (rep.dim, rep.dim):
        raise ValueError("operand dimension does not match the representation")
    if rep.is_finite:
        return measure_scale * _finite_twirl(rep, a)
    return measure_scale * _commutant_projection(rep, a, tol)


def constraints(rep: UnitaryRep) -> np.ndarray:
    """(k, dim, dim) stack of U_s - 1 per finite generator s, or the Lie generators; not cached."""
    if rep.is_finite:
        return rep.matrices[list(rep.group.generators)] - np.eye(rep.dim)
    return rep.generators


def fixed_subspace(rep: UnitaryRep, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Joint fixed subspace of the representation: the kernel of its constraints."""
    return joint_fixed_subspace(constraints(rep), tol)


def invariant_closure(rep: UnitaryRep, v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Smallest invariant subspace containing ``v``: a vector, or a matrix whose columns span the start.

    Grown by the constraints, since span{v, U_s v} = span{v, (U_s - 1) v}.
    """
    start = np.asarray(v, dtype=complex)
    basis = orthonormal_range(start[:, None] if start.ndim == 1 else start, tol).basis
    if basis.shape[1] == 0:
        raise ValueError("need a nonzero vector")
    ops = constraints(rep)
    while True:
        grown = np.hstack([basis] + [op @ basis for op in ops])
        new_basis = orthonormal_range(grown, tol).basis
        if new_basis.shape[1] == basis.shape[1]:
            return Subspace(rep.dim, new_basis)
        basis = new_basis
