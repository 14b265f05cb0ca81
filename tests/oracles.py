"""Slow exact reference paths, kept only as test oracles.

The library reads U(1) and SU(2) reps from the weights of their Cartan
generator.  These are the general paths it replaced: weight spaces from an
``eigh`` of the whole generator, highest-weight ladders lowered one vector
at a time, the commutant projection as two grid einsums over the
kinematical space, invariant closures grown by the generators, and the
isometry defect of a frame change from complement-sized products.  The
weak-homomorphism residuals, which the library reads from n_phys-sized
restricted matrices, are formed here from kinematical products.
"""

import numpy as np

from qrf.linalg import DEFAULT_TOL, Subspace, canonicalize_basis, dagger, fix_phase, nullspace, orthonormal_range
from qrf.perspective import physical_space, relational_observable, system_projector
from qrf.reps import IsotypicBlock, IsotypicDecomposition


def weight_spaces(gz, tol=DEFAULT_TOL):
    vals, vecs = np.linalg.eigh(gz)
    weights = np.round(vals).astype(int)
    return {w: canonicalize_basis(vecs[:, weights == w], tol) for w in sorted(set(weights.tolist()), reverse=True)}


def isotypic(rep, tol=DEFAULT_TOL):
    """Charge sectors (U(1)) or per-vector highest-weight ladders (SU(2)) from eigh weight spaces."""
    if rep.group.kind == "U1":
        spaces = weight_spaces(rep.generators[0], tol)
        blocks = [IsotypicBlock(f"q={w}", 1, b.shape[1], b[:, None, :]) for w, b in spaces.items()]
        return IsotypicDecomposition(rep.dim, tuple(blocks))
    gx, gy, gz = rep.generators
    raise_op, lower_op = (gx + 1j * gy) / 2.0, (gx - 1j * gy) / 2.0
    blocks = []
    for w, basis in weight_spaces(gz, tol).items():
        if w < 0:
            break
        ker = nullspace(raise_op @ basis, tol)
        if ker.shape[1] == 0:
            continue
        hw = canonicalize_basis(basis @ ker, tol)
        grid = np.zeros((rep.dim, w + 1, hw.shape[1]), dtype=complex)
        for k in range(hw.shape[1]):
            v = fix_phase(hw[:, k], tol)
            grid[:, 0, k] = v
            for a in range(1, w + 1):
                v = lower_op @ v
                v = v / np.linalg.norm(v)
                grid[:, a, k] = v
        label = f"{w // 2}" if w % 2 == 0 else f"{w}/2"
        blocks.append(IsotypicBlock(f"j={label}", w + 1, hw.shape[1], grid))
    return IsotypicDecomposition(rep.dim, tuple(blocks))


def commutant_projection(rep, a, tol=DEFAULT_TOL):
    """Hilbert-Schmidt projection onto the commutant: two grid einsums per isotypic block."""
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for block in isotypic(rep, tol).blocks:
        g = block.grid
        c = np.einsum("iam,ij,jan->mn", np.conj(g), a, g, optimize=True)
        out += np.einsum("mn,iam,jan->ij", c / block.irrep_dim, g, np.conj(g), optimize=True)
    return out


def invariant_closure(rep, v, tol=DEFAULT_TOL):
    """Grow span(v) by the generators until it stops growing."""
    start = np.asarray(v, dtype=complex)
    basis = orthonormal_range(start[:, None] if start.ndim == 1 else start, tol).basis
    while True:
        grown = orthonormal_range(np.hstack([basis] + [k @ basis for k in rep.generators]), tol).basis
        if grown.shape[1] == basis.shape[1]:
            return Subspace(rep.dim, grown)
        basis = grown


def frame_change_defect(mi, mj):
    """max(||V^dag V - C_i C_i^dag||, ||V V^dag - C_j C_j^dag||) from four complement-sized products."""
    mat = mj.matrix @ mi.inverse_matrix
    return max(
        float(np.linalg.norm(dagger(mat) @ mat - mi.matrix @ mi.inverse_matrix)),
        float(np.linalg.norm(mat @ dagger(mat) - mj.matrix @ mj.inverse_matrix)),
    )


def weak_homomorphism(s, frame_name, g, a, b, tol=DEFAULT_TOL):
    """Weak residuals max_k ||(lhs - rhs) B e_k|| and strong ||(lhs - rhs) v|| from kinematical matrices."""
    basis = physical_space(s, tol).basis.basis
    pi = system_projector(s, frame_name, g, tol)
    a_p, b_p = pi @ a @ pi, pi @ b @ pi

    def rel(f):
        return relational_observable(s, frame_name, g, f, tol, check=False).matrix

    f_a, f_b = rel(a_p), rel(b_p)
    pairs = {
        "addition": (rel(a_p + b_p), f_a + f_b),
        "multiplication": (rel(a_p @ b_p), f_a @ f_b),
        "combined": (rel(a_p + b_p @ a_p), f_a + f_b @ f_a),
        "projection_equivalence": (rel(a), f_a),
    }
    rng = np.random.default_rng(11)
    v = rng.standard_normal(s.kin_dim) + 1j * rng.standard_normal(s.kin_dim)
    v /= np.linalg.norm(v)
    weak = {name: float(np.max(np.linalg.norm((lhs - rhs) @ basis, axis=0))) for name, (lhs, rhs) in pairs.items()}
    strong = {name: float(np.linalg.norm((lhs - rhs) @ v)) for name, (lhs, rhs) in pairs.items()}
    weak["adjoint"] = float(np.linalg.norm(dagger(basis) @ (rel(dagger(a_p)) - dagger(f_a)) @ basis))
    return {"weak": weak, "strong": strong}
