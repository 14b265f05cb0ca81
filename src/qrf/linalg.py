"""Dense complex linear algebra with tolerance-gated rank decisions and checks.

Every other module routes its rank/kernel/range decisions through here so
that the whole library shares one thresholding convention and one
deterministic phase/ordering convention for golden tests.  Fixed spaces are
joint kernels of constraint operators (``reps.constraints`` supplies them
for finite and Lie groups alike).

A ``Tolerance`` moves rank cuts and the bound of every ``Check``, the one rule
``Tolerance.bound``, floored at the rounding error n eps ||A|| of forming a
residual (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Check",
    "Tolerance",
    "Subspace",
    "as_cmatrix",
    "as_cvector",
    "fix_phase",
    "orthonormal_range",
    "nullspace",
    "joint_fixed_subspace",
    "dagger",
    "random_hermitian",
    "densify",
    "Monomial",
    "RowLabels",
]


ROUNDING_FACTOR = 32  # the check bounds' rounding floor, in eps per dimension and unit of scale
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Check:
    """A residual of a verified identity against its bound; it passes iff residual <= bound."""

    name: str
    residual: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound

    def as_dict(self) -> dict:
        """The report's form of the check: its bound is the ``tol`` field."""
        return {"name": self.name, "residual": self.residual, "tol": self.bound, "pass": self.passed}


@dataclass(frozen=True)
class Tolerance:
    """The one tolerance t of all rank decisions and check bounds, with equal absolute and relative parts."""

    t: float = 1e-9

    def __post_init__(self) -> None:
        if not 0 <= self.t < np.inf:  # also rejects NaN
            raise ValueError("tolerances must be finite and non-negative")

    def weighted(self, scale: float) -> float:
        """Effective tolerance t + t |scale| for quantities of magnitude ``scale``."""
        return self.t + self.t * abs(scale)

    def bound(self, scale: float = 1.0, dim: int = 1) -> float:
        """The check bound dim * max(weighted(scale), ROUNDING_FACTOR * eps * |scale|) for a residual
        formed from operands of magnitude ``scale`` and dimension ``dim``."""
        return max(dim, 1) * max(self.weighted(scale), ROUNDING_FACTOR * _EPS * abs(scale))

    def check(self, name: str, residual: float, scale: float = 1.0, dim: int = 1) -> Check:
        """``residual`` as a ``Check`` against ``bound(scale, dim)``."""
        return Check(name, float(residual), self.bound(scale, dim))


DEFAULT_TOL = Tolerance()


def as_cmatrix(m: np.ndarray) -> np.ndarray:
    """Coerce to a finite 2-D complex array (shared validation gate)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_cvector(v: np.ndarray) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite entries")
    return a


def dagger(m):  # a held form's conjugate transpose is its own ``dagger()``
    return m.dagger() if hasattr(m, "dagger") else np.conj(np.asarray(m)).T


def random_hermitian(rng, dim: int) -> np.ndarray:
    """(h + h^dag) / 2 for h with standard normal real and imaginary parts drawn from ``rng`` through one reused
    buffer.  h is symmetrised in place, n rows from the diagonal on and their mirror at a time, with the plain
    formula's additions, so the result is C-ordered and no second dim x dim array is formed."""
    h, buf, n = np.empty((dim, dim), dtype=complex), np.empty((dim, dim)), 64
    h.real = rng.standard_normal(out=buf)
    h.imag = rng.standard_normal(out=buf)
    for lo in range(0, dim, n):
        t = np.conj(h[lo:, lo:lo + n].T) + h[lo:lo + n, lo:]
        t /= 2.0
        h[lo:, lo:lo + n] = np.conj(t.T)
        h[lo:lo + n, lo:] = t  # last, so the diagonal tile keeps the plain formula's bits, its zeros' signs too
    return h


def densify(m) -> np.ndarray:
    """``m`` as a dense array: an array is returned as it is, and any held form (a ``Monomial``, or a held
    relational observable of ``reps``) is built by its own ``dense()``."""
    return m if isinstance(m, np.ndarray) else m.dense()


@dataclass(frozen=True, eq=False)
class Monomial:
    """A matrix with at most one nonzero per row and per column, held by index and weight: its entry
    (rows[k], cols[k]) is weights[k] and every other entry is 0.  Its products with arrays are gathers
    and scatters into dense arrays, in the association of the dense products that they replace; the
    product of two monomials is a monomial."""

    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    shape: tuple[int, int]
    __array_ufunc__ = None  # ndarray @ Monomial defers to __rmatmul__

    def dagger(self) -> Monomial:
        return Monomial(self.cols, self.rows, np.conj(self.weights), self.shape[::-1])

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """The diagonal of M^dag M, the only entries it can have, formed once: read-only."""
        g = np.zeros(self.shape[1])
        g[self.cols] = (np.conj(self.weights) * self.weights).real
        g.flags.writeable = False
        return g

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.weights.dtype)
        out[self.rows, self.cols] = self.weights
        return out

    def sandwich(self, a: np.ndarray) -> np.ndarray:  # M^dag a M, one 2-D gather, rounded as (M^dag a) M
        out, at = np.zeros((self.shape[1],) * 2, dtype=np.result_type(self.weights, a)), np.ix_(self.rows, self.rows)
        out[np.ix_(self.cols, self.cols)] = np.conj(self.weights)[:, None] * a[at] * self.weights
        return out

    def __matmul__(self, x):
        if isinstance(x, Monomial):  # a monomial again: the entries whose column of M meets a row of x
            at = np.full(self.shape[1], -1)
            at[self.cols] = np.arange(self.cols.size)
            k = at[x.rows]
            keep = k >= 0
            k = k[keep]
            return Monomial(self.rows[k], x.cols[keep], self.weights[k] * x.weights[keep], (self.shape[0], x.shape[1]))
        x = np.asarray(x)
        out = np.zeros((self.shape[0],) + x.shape[1:], dtype=np.result_type(self.weights, x))
        out[self.rows] = self.weights.reshape((-1,) + (1,) * (x.ndim - 1)) * x[self.cols]
        return out

    def __rmatmul__(self, x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (self.shape[1],), dtype=np.result_type(self.weights, x))
        out[..., self.cols] = x[..., self.rows] * self.weights
        return out


def fix_phase(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Rotate the global phase so the first significant component is real > 0."""
    v = np.asarray(v, dtype=complex)
    mags = np.abs(v)
    top = mags.max(initial=0.0)
    if top == 0.0:
        return v.copy()
    idx = int(np.argmax(mags > tol.weighted(top)))
    pivot = v[idx]
    if abs(pivot) == 0.0:
        return v.copy()
    return v * (abs(pivot) / pivot)


def _order_key(v: np.ndarray, cluster: float) -> tuple:
    """Fixed-length sort key on the leading significant components."""
    sig = np.flatnonzero(np.abs(v) > cluster)
    lead = [int(i) for i in sig[:4]]
    mags = [float(round(abs(v[i]), 6)) for i in sig[:4]]
    pad = 4 - len(lead)
    return tuple(lead + [len(v)] * pad) + tuple(mags + [0.0] * pad)


def canonicalize_basis(basis: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Deterministically order and phase-fix the columns of an orthonormal basis.

    Ordering is by position of the leading significant components, which keeps
    coordinate-aligned subspaces (e.g. charge eigenspaces) in ket order.
    """
    if basis.shape[1] == 0:
        return basis
    cluster = max(tol.t, 1e-6)
    cols = [fix_phase(basis[:, j], tol) for j in range(basis.shape[1])]
    cols.sort(key=lambda c: _order_key(c, cluster))
    return np.column_stack(cols)


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis of a subspace of C^ambient_dim (columns of ``basis``)."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim)

    def __post_init__(self) -> None:
        b = self.basis
        if b.shape[0] != self.ambient_dim:
            raise ValueError("basis rows do not match ambient dimension")
        gram = dagger(b) @ b
        if b.shape[1] and np.linalg.norm(gram - np.eye(b.shape[1])) > 1e-7:
            raise ValueError("basis is not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ dagger(self.basis)

    def contains(self, v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
        v = as_cvector(v)
        resid = v - self.basis @ (dagger(self.basis) @ v)
        return float(np.linalg.norm(resid)) <= tol.weighted(np.linalg.norm(v))

    def columns(self, lo: int, hi: int) -> np.ndarray:
        return self.basis[:, lo:hi]

    def __matmul__(self, coeff: np.ndarray) -> np.ndarray:  # B coeff
        return self.basis @ coeff


@dataclass(frozen=True, eq=False)
class RowLabels:
    """An orthonormal basis B whose columns meet no row twice, held by its row labels: column cols[k] has the entry
    vals[k] at row rows[k], every other entry 0, so its Gram matrix is the diagonal bincount(cols, |vals|^2).  It
    reads as a ``Subspace``: the dense ``basis`` is built on first request, and its column blocks, B c, rows of B
    (``b[rows]``) and x B are read from the labels."""

    ambient_dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int
    __array_ufunc__ = None  # ndarray @ RowLabels defers to __rmatmul__
    projector = Subspace.projector

    def __post_init__(self) -> None:
        if not _distinct(self.rows, self.ambient_dim) or \
                np.linalg.norm(np.bincount(self.cols, np.abs(self.vals) ** 2, self.dim) - 1.0) > 1e-7:
            raise ValueError("basis is not orthonormal")

    @staticmethod
    def coordinates(ambient_dim: int, rows: np.ndarray) -> RowLabels:  # span{e_r}, a column per row, in order
        return RowLabels(ambient_dim, rows, np.arange(rows.size), np.ones(rows.size, dtype=complex), rows.size)

    @functools.cached_property
    def basis(self) -> np.ndarray:  # the dense B, on first request
        return self.columns(0, self.dim)

    def columns(self, lo: int, hi: int) -> np.ndarray:  # B[:, lo:hi], dense
        keep = (self.cols >= lo) & (self.cols < hi)
        out = np.zeros((self.ambient_dim, min(hi, self.dim) - lo), dtype=complex)
        out[self.rows[keep], self.cols[keep] - lo] = self.vals[keep]
        return out

    def contains(self, v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:  # B B^dag v by a gather and a scatter
        v = np.asarray(v, dtype=complex).reshape(-1)
        return float(np.linalg.norm(v - self @ self.coefficients(v))) <= tol.weighted(np.linalg.norm(v))

    def coefficients(self, v: np.ndarray) -> np.ndarray:  # B^dag v for a vector: a gather, summed per column
        x = np.conj(self.vals) * v[self.rows]
        return np.bincount(self.cols, x.real, self.dim) + 1j * np.bincount(self.cols, x.imag, self.dim)

    def __matmul__(self, coeff: np.ndarray) -> np.ndarray:  # B coeff for a vector: a scatter
        out = np.zeros(self.ambient_dim, dtype=complex)
        out[self.rows] = self.vals * coeff[self.cols]
        return out

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:  # x B: the r-th label of every column at a time, summed
        order, counts = np.argsort(self.cols, kind="stable"), np.bincount(self.cols, minlength=self.dim)
        starts, out = np.cumsum(counts) - counts, np.zeros(x.shape[:-1] + (self.dim,), dtype=complex)
        for r in range(counts.max(initial=0)):
            k = order[starts[counts > r] + r]
            out[..., counts > r] += x[..., self.rows[k]] * self.vals[k]
        return out

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:  # B[rows], dense
        at = np.full(self.ambient_dim, -1)
        at[self.rows] = np.arange(self.rows.size)
        k, out = at[rows], np.zeros((len(rows), self.dim), dtype=complex)
        out[np.flatnonzero(k >= 0), self.cols[k[k >= 0]]] = self.vals[k[k >= 0]]
        return out


def _distinct(idx: np.ndarray, n: int) -> bool:
    return bool(np.bincount(idx, minlength=n).max(initial=0) <= 1)


def _rank(shape: tuple, s: np.ndarray, tol: Tolerance) -> int:
    """Descending singular values s of an m x n matrix above max(t max(1, s_0), max(m, n) eps s_0)."""
    top = s[0] if s.size else 0.0
    cut = max(tol.t * max(1.0, top), max(shape) * _EPS * top)
    return int(np.sum(s > cut))


def orthonormal_range(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the column space of ``m``.

    Singular directions at or below the cut of ``_rank`` are dropped.
    """
    a = as_cmatrix(m)
    if a.shape[1] == 0 or not np.any(a):
        return Subspace(a.shape[0], np.zeros((a.shape[0], 0), dtype=complex))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return Subspace(a.shape[0], canonicalize_basis(u[:, : _rank(a.shape, s, tol)], tol))


def nullspace(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of ker(m), same threshold rule as the range."""
    a = as_cmatrix(m)
    _, s, vh = np.linalg.svd(a)
    return dagger(vh)[:, _rank(a.shape, s, tol):]


def joint_fixed_subspace(ops, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the joint kernel of a (k, d, d) stack of operators.

    The kernel is restricted one operator at a time; with k = 0 it is the
    whole space.
    """
    mats = np.asarray(ops, dtype=complex)  # a ragged list raises ValueError here
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("operators must be square and of equal dimension")
    if not np.all(np.isfinite(mats)):
        raise ValueError("operators have non-finite entries")
    dim = mats.shape[1]
    basis = np.eye(dim, dtype=complex)
    for m in mats:
        if basis.shape[1] == 0:
            break
        basis = basis @ nullspace(m @ basis, tol)
    if basis.shape[1]:
        # re-orthonormalize and canonicalize after the sequential restrictions
        q, _ = np.linalg.qr(basis)
        basis = canonicalize_basis(q[:, : basis.shape[1]], tol)
    return Subspace(dim, basis)
