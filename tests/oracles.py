"""Slow exact reference paths, kept only as test oracles.

The library reads U(1) and SU(2) reps from the weights of their Cartan
generator.  These are the general paths it replaced: weight spaces from an
``eigh`` of the whole generator, highest-weight ladders lowered one vector
at a time, the commutant projection as two grid einsums over the
kinematical space, invariant closures grown by the generators, and the
isometry defect of a frame change from complement-sized products.  The
weak-homomorphism residuals, which the library reads from n_phys-sized
restrictions B^dag F B (a weight-block F on its weight-0 block) and block
matvecs, are formed here from kinematical products, and the definition
clause compares B^dag F_a B with Vol B^dag (|phi><phi| x a) B.

The library twirls Lie operators on their weight blocks and reads the
blocks of a relational observable's aligned operand entrywise.  Here are
the dense forms it replaced: the twirl as a charge mask or a ladder
projection on the whole kinematical matrix, the relational observable as
that twirl of the formed |phi><phi| x f_S, and the Dirac defect from
commutator matmuls with every constraint operator.

The library writes the resolution residual as one group average and a finite
frame's right action as one contraction of its orientation orbit.  Here are
the constructions they replaced: the right action V_R lifted block by block
from the isotypic grids, and for a finite frame as |G| twirls
Vol twirl(U(g)^-1 |phi><phi|); the resolution defect as an orbit sum (finite) or a
probability-normalised twirl (Lie), and the commutant dimension as a
Kronecker nullspace.  The library applies the disentangler T_R and reads the
trinity residual as one stacked conditioning over the orientations, with
U_S(g)^dag the complement's own action (a table scatter, a phase per charge),
and never forms T_R; here T_R is the dense kinematical matrix, summed one
Kronecker embedding per element, and the trinity residual takes one dense
U_S(g) per sampled element, each rep's matrices read as a dense stack or
exponentiated by scipy.  The
library reads the overlap of two matrix-unit algebras span{1, F_ij} from a
cross Gram of their target blocks; here each algebra's orthonormal basis is
the stacked vec(F_ij) sqrt(d_t/n) that the block test certifies, or an SVD of
the stacked operators.

The library derives orientation independence from the dimension of the
conditional span and reads relation-conditional targets from the right
action.  Here are the forms they replaced: the system projector Pi_e tested
against every complement constraint by commutators, and the modified
relation-conditional reorientation evaluating F(g2 g'^-1) by one kinematical
twirl per group element.

The library forms every tensor product by folding one pair rule and reads
each builtin S3, D4 and Q8 from a list of matrices closed under products.
Here are the paths they replaced: composed permutation tables, the einsum
Kronecker stack and the per-factor Kronecker-sum generators, each a loop
over all factors; the pair images of a permutation rep in one formula; the
permutation groups composed as index tuples; and Q8 from its literal
multiplication rules.  The two spin-1 builtin configs are kept as the
literals they were written as.  The library holds a table-held invariant
operator by its rows at the index-orbit leaders and twirls onto them; here
are each index's leader found one index at a time, and the twirl as the mean
over each pair orbit, labelled by the one-pass images.  The library holds a U(1) rep whose
generator is exactly diagonal and integral by its charge vector; here is the
same rep held by its dense generator, which takes the general Lie paths.

The library applies every operator on one subsystem slot as a batched
matmul on the copy-free (lead, d, rest) view of the kinematical index, and
the relative-orientation projector of a relation-conditional reorientation
as a row selection in the frames' orbit coordinates.  Here are the forms
they replaced, which share no slot code with the library: the conditioning
contraction and the left application of a one- or two-slot operator as a
tensordot, a slot embedding as a Kronecker product reordered by a transpose,
a slot conjugation as products with that embedding, and each projector
w w^dag formed and applied to its target.

The library holds a conditioning map C_g with at most one nonzero per row
and per column (a charge-held U(1) rep, or a table-held finite rep with a
one-hot seed) by index and weight, and forms its products as gathers and
scatters.  Here are the dense matmuls they replaced: the round trip
C^dag C, C^dag a C, C x C^dag, the projector C C^dag, C^dag v and C x, and
a frame change C_j C_i^dag with its isometry defect read from the dense
round trips.  The library reads such a C_g from the row labels of B; here
a dense matrix is read as a monomial from its observed entries, and C_g is
the tensordot contraction of ``condition``.  The library gathers each
weight block of a W = 1 twirl operand by 1-D takes; here each is one
``np.ix_`` grid gather.

The library holds the physical basis B of a table-held or charge-held rep by
its row labels, reads the conditional span of a monomial C_e as a coordinate
subspace, forms T_R B one block of B's columns at a time, and reads the
invariance of B from the labels.  Here are the dense forms they replaced:
B as a kin x n_phys array (the orbit indicators, or the charge-0 kets through
``canonicalize_basis``), the span as the invariant closure of the densified
C_e by SVDs, the product form from the whole T_R B at once, and ||D B|| from
the constraints applied to the dense B.  The library closes a U(1) span by its
constraints, as any other; here it is the sum of its charge sectors' ranges.

The library's probability cross-check reads F_E(g) on a charge-held rep as its
weight-0 block at B's rows, applied to B^dag v.  Here is the expression it
replaced: the whole held twirl, every weight block, applied to v.
"""

import itertools

import numpy as np

from qrf.groups import finite_group_from_table
from qrf.linalg import (
    DEFAULT_TOL,
    Monomial,
    Subspace,
    canonicalize_basis,
    dagger,
    densify,
    fix_phase,
    nullspace,
    orthonormal_range,
)
from qrf.framechange import ensure_lr
from qrf.perspective import (
    RelObs,
    _twirled,
    conditioning_map,
    physical_space,
    relational_observable,
    sample_elements,
    slot_view,
)
from qrf.reductions import disentangler as library_disentangler
from qrf.reps import (
    IsotypicBlock,
    IsotypicDecomposition,
    UnitaryRep,
    WeightBlocks,
    _index_orbits,
    _ladders,
    apply_constraints,
    constraints,
    invariant_closure as library_closure,
    group_average,
    isotypic_decompose,
    lie_twirl,
    weight_basis,
)


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


def lie_mask_twirl(rep, a, tol=DEFAULT_TOL):
    """Haar twirl on the whole matrix in weight coordinates: the charge mask (U(1)) or, per SU(2) ladder,
    c = mean_k V_k^dag A_ww V_k written back as V_k c V_k^dag on the dense weight blocks."""
    wb = weight_basis(rep)
    a = wb.into(a)
    if rep.group.kind == "U1":
        return wb.back(a * (wb.weights[:, None] == wb.weights[None, :]))
    sub = {w: np.ix_(idx, idx) for w, idx in wb.sectors.items()}
    out = np.zeros_like(a)
    for top, slots in _ladders(rep, tol):
        c = sum(dagger(v) @ a[sub[top - 2 * k]] @ v for k, v in enumerate(slots)) / len(slots)
        for k, v in enumerate(slots):
            out[sub[top - 2 * k]] += v @ c @ dagger(v)
    return wb.back(out)


def dense_relational_observable(s, frame_name, g, f_s, tol=DEFAULT_TOL):
    """Vol twirl(|phi(g)><phi(g)| x f_S) of the formed kinematical operand."""
    frame = s.frame(frame_name)
    phi = frame.orientation(frame.rep.element(g))
    aligned = embed_pair(s.dims, s.frame_slot(frame_name), np.outer(phi, np.conj(phi)), f_s)
    if s.total_rep.is_finite:
        return group_average(s.total_rep, aligned, "twirl", frame.weight_scale, tol)
    return frame.weight_scale * lie_mask_twirl(s.total_rep, aligned, tol)


def strong_dirac_defect(s, op):
    """Largest ||D op - op D|| over the constraint operators, from two matmuls each."""
    return max(float(np.linalg.norm(d @ op - op @ d)) for d in constraints(s.total_rep))


def invariant_closure(rep, v, tol=DEFAULT_TOL):
    """Grow span(v) by the generators until it stops growing."""
    start = np.asarray(v, dtype=complex)
    basis = orthonormal_range(start[:, None] if start.ndim == 1 else start, tol).basis
    while True:
        grown = orthonormal_range(np.hstack([basis] + [k @ basis for k in rep.generators]), tol).basis
        if grown.shape[1] == basis.shape[1]:
            return Subspace(rep.dim, grown)
        basis = grown


def frame_change_defect(ci, cj):
    """max(||V^dag V - C_i C_i^dag||, ||V V^dag - C_j C_j^dag||), V = C_j C_i^dag, from four complement-sized
    products of the dense maps."""
    mat = cj @ dagger(ci)
    return max(
        float(np.linalg.norm(dagger(mat) @ mat - ci @ dagger(ci))),
        float(np.linalg.norm(mat @ dagger(mat) - cj @ dagger(cj))),
    )


def monomial_of(m):
    """``m`` as a ``Monomial`` if its entries have at most one nonzero per row and per column, else None: read from
    the dense observed entries, in row-major order."""
    flat = np.flatnonzero(m != 0)
    if flat.size > min(m.shape):
        return None
    rows, cols = np.divmod(flat, m.shape[1])  # in row-major order: a repeated row repeats its neighbour
    if np.any(rows[1:] == rows[:-1]) or np.any(np.bincount(cols) > 1):
        return None
    return Monomial(rows, cols, m.reshape(-1)[flat], m.shape)


def grid_twirl(s, frame_name, g, f_s, tol=DEFAULT_TOL):
    """The W = 1 relational observable with each aligned weight block E[r][:, r] * f_S[c][:, c] gathered on one
    ``np.ix_`` grid pair, r and c the frame and complement indices of the block's kinematical indices."""
    rep, frame = s.total_rep, s.frame(frame_name)
    phi = frame.orientation(frame.rep.element(g))
    proj, wb = np.outer(phi, np.conj(phi)), weight_basis(rep)
    shape = slot_view(np.arange(s.kin_dim), s.dims, s.frame_slot(frame_name)).shape
    lo, r, hi = np.unravel_index(np.arange(s.kin_dim), shape)
    c = lo * shape[2] + hi
    blocks = {w: proj[np.ix_(r[i], r[i])] * f_s[np.ix_(c[i], c[i])] for w, i in wb.sectors.items()}
    return lie_twirl(rep, WeightBlocks(wb, blocks), tol, frame.weight_scale)


def twirled_probability(ps, frame_name, g, e, v, tol=DEFAULT_TOL):
    """<v| F_E(g) |v> from the whole held twirl of E, every weight block applied to v."""
    return float(np.real(np.vdot(v, _twirled(ps.scenario, frame_name, g, e, tol) @ v)))


def dense_map_products(c, a, x, v):
    """The products of a conditioning map C as dense matmuls, keyed by what they form."""
    return {
        "round_trip": dagger(c) @ c,
        "sandwich": dagger(c) @ a @ c,
        "scatter": c @ x @ dagger(c),
        "projector": c @ dagger(c),
        "adjoint": dagger(c) @ v,
        "apply": c @ x,
    }


def dense_frame_change(ci, cj):
    """C_j C_i^dag, and sqrt(max(tr(X_j G_i X_j G_i), tr(X_i G_j X_i G_j))) from the dense round trips G = C^dag C,
    X = G - 1."""
    gi, gj = dagger(ci) @ ci, dagger(cj) @ cj
    xi, xj = gi - np.eye(len(gi)), gj - np.eye(len(gj))
    return cj @ dagger(ci), float(np.sqrt(max(np.vdot(xj @ gi, gi @ xj).real, np.vdot(xi @ gj, gj @ xi).real, 0.0)))


def weak_homomorphism(s, frame_name, g, a, b, tol=DEFAULT_TOL):
    """Weak residuals max_k ||(lhs - rhs) B e_k|| and strong ||(lhs - rhs) v|| from kinematical matrices;
    the definition clause compares B^dag F_a B with Vol B^dag (|phi(g)><phi(g)| x a) B = C_g^dag a C_g."""
    basis = physical_space(s, tol).basis.basis
    pi = system_projector(s, frame_name, g, tol)
    a_p, b_p = pi @ a @ pi, pi @ b @ pi

    def rel(f):
        return dense_relational_observable(s, frame_name, g, f, tol)

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
    frame = s.frame(frame_name)
    phi = frame.orientation(frame.rep.element(g))
    conditioned = frame.weight_scale * embed_pair(s.dims, s.frame_slot(frame_name), np.outer(phi, np.conj(phi)), a)
    weak["definition"] = float(np.max(np.linalg.norm(dagger(basis) @ (f_a - conditioned) @ basis, axis=0)))
    return {"weak": weak, "strong": strong}


def condition(s, frame_name, phi, psi):
    """(<phi|_frame x 1) psi by one tensordot over the frame's axis, the complement in subsystem order."""
    t = psi.reshape(s.dims + list(psi.shape[1:]))
    c = np.tensordot(np.conj(phi), t, axes=([0], [s.frame_slot(frame_name)]))
    return c.reshape((s.complement_dim(frame_name),) + psi.shape[1:])


def system_projector(s, frame_name, g, tol=DEFAULT_TOL):
    """Pi_S^phys(g) = C_g C_g^dag, with C_g = sqrt(Vol) (<phi(g)| x 1) B from the tensordot contraction."""
    frame = s.frame(frame_name)
    phi = frame.orientation(frame.rep.element(g))
    c = np.sqrt(frame.weight_scale) * condition(s, frame_name, phi, physical_space(s, tol).basis.basis)
    return c @ dagger(c)


def right_action(frame, tol=DEFAULT_TOL):
    """V_R matrices (finite) or generators (Lie), lifted block by block from the aligned isotypic grids.

    On each block with seed matrix S, V_R(g) right-multiplies the coefficient
    matrix by S^-1 rho(g)^dag S; a Lie generator K gives -S^-1 K S.
    """
    blocks = isotypic_decompose(frame.rep, tol).blocks
    pieces = [(b, np.einsum("iam,i->am", np.conj(b.grid), frame.seed)) for b in blocks]

    def lift(block, r):
        return np.einsum("mn,ian,jam->ij", r, block.grid, np.conj(block.grid), optimize=True)

    def restricted(block, op):
        ref = block.grid[:, :, 0]
        return dagger(ref) @ op @ ref

    if frame.rep.is_finite:
        return np.stack([
            sum(lift(b, np.linalg.solve(s, dagger(restricted(b, u)) @ s)) for b, s in pieces)
            for u in frame.rep.matrices
        ])
    out = []
    for k in frame.rep.generators:
        rs = [(b, -np.linalg.solve(s, restricted(b, k) @ s)) for b, s in pieces]
        out.append(sum(lift(b, (r + dagger(r)) / 2.0) for b, r in rs))
    return np.stack(out)


def twirl_right_action(frame, tol=DEFAULT_TOL):
    """A finite frame's V_R(g) = Vol twirl(U(g)^-1 |phi><phi|), one group average per element."""
    proj = np.outer(frame.seed, np.conj(frame.seed))
    return np.stack([group_average(frame.rep, dagger(u) @ proj, "twirl", frame.weight_scale, tol)
                     for u in frame.rep.matrices])


def resolution_defect(rep, seed):
    """Finite: ||(dim/|G|) sum_g |phi(g)><phi(g)| - 1||.  Lie: dim ||twirl(|phi><phi|) - 1/dim||, Haar probability."""
    if rep.is_finite:
        orbit = np.einsum("gij,j->gi", rep.matrices, seed)
        total = rep.dim / rep.group.order * np.einsum("gi,gj->ij", orbit, np.conj(orbit))
        return float(np.linalg.norm(total - np.eye(rep.dim)))
    twirl = group_average(rep, np.outer(seed, np.conj(seed)), "twirl", 1.0)
    return rep.dim * float(np.linalg.norm(twirl - np.eye(rep.dim) / rep.dim))


def reproducing_residual(frame, theta, count=12):
    """max_g |<phi(g)|theta> - N(g)| over a deterministic sample of orientations."""
    worst = 0.0
    for g in sample_elements(frame.group, count):
        phi = frame.orientation(g)
        worst = max(worst, abs(complex(np.vdot(phi, theta.vector)) - theta.phases_at(frame, [g])[0]))
    return worst


def embed_pair(dims, slot, a, b):
    """a on subsystem ``slot`` and b on the rest, from a Kronecker product with the frame factor first."""
    order = [slot] + [i for i in range(len(dims)) if i != slot]
    perm_dims = [dims[i] for i in order]
    full = np.kron(a, b).reshape(perm_dims + perm_dims)
    inv = list(np.argsort(order))
    total = int(np.prod(dims))
    return np.transpose(full, inv + [len(dims) + i for i in inv]).reshape(total, total)


def disentangler(s, frame_name, theta):
    """T_R summed one kinematical Kronecker embedding per group element (finite) or per pair of frame weights (U(1))."""
    frame = s.frame(frame_name)
    comp = s.complement_rep(frame_name)
    slot = s.frame_slot(frame_name)
    total = np.zeros((s.kin_dim, s.kin_dim), dtype=complex)
    if frame.rep.is_finite:
        for g in range(frame.group.order):
            phi = frame.rep.matrices[g] @ frame.seed
            part = frame.element_weight() * theta.phases[g] * np.outer(phi, np.conj(phi))
            total += embed_pair(s.dims, slot, part, dagger(comp.matrices[g]))
        return total
    wf, wc = weight_basis(frame.rep), weight_basis(comp)
    vecs = np.eye(frame.dim) if wf.vectors is None else wf.vectors
    coeff = dagger(vecs) @ frame.seed
    projectors = {q: wc.back(np.diag((wc.weights == q).astype(complex))) for q in wc.sectors}
    for i, qi in enumerate(wf.weights):
        for j, qj in enumerate(wf.weights):
            sq = theta.fourier_k + qi - qj
            if sq in projectors:
                part = coeff[i] * np.conj(coeff[j]) * np.outer(vecs[:, i], np.conj(vecs[:, j]))
                total += frame.weight_scale * embed_pair(s.dims, slot, part, projectors[sq])
    return total


def dense_element(rep, g):
    """U(g) as a dense matrix, by no path of the library's action: a finite rep's dense stack, or scipy's
    exponential of i sum_a c_a K_a."""
    import scipy.linalg

    el = rep.element(g)
    if rep.is_finite:
        return rep.matrices[el.index]
    return scipy.linalg.expm(1j * sum(c * k for c, k in zip(el.coords, rep.generators)))


def trinity_stack(ps, frame_name, psi, count=8):
    """U_S(g)^dag C_g psi for each sampled g, one conditioning and one dense U_S(g) at a time."""
    s = ps.scenario
    frame, comp = s.frame(frame_name), s.complement_rep(frame_name)
    out = []
    for g in sample_elements(frame.group, count):
        reduced = np.sqrt(frame.weight_scale) * condition(s, frame_name, frame.orientation(g), psi)
        out.append(dagger(dense_element(comp, g)) @ reduced)
    return np.stack(out)


def heisenberg_state(ps, frame_name, theta, psi):
    """conj(N(e)) C_e T_R psi, with T_R the dense ``disentangler``."""
    s = ps.scenario
    frame = s.frame(frame_name)
    e = frame.rep.identity_element()
    t_psi = disentangler(s, frame_name, theta) @ psi
    return np.conj(theta.phases_at(frame, [e])[0]) * np.sqrt(frame.weight_scale) * condition(
        s, frame_name, frame.orientation(e), t_psi)


def trinity_residual(ps, frame_name, theta, psi):
    """max_g ||U_S(g)^dag C_g psi - psi_Heisenberg|| over the sampled g, from the dense per-element forms."""
    heis = heisenberg_state(ps, frame_name, theta, psi)
    return float(max(np.linalg.norm(v - heis) for v in trinity_stack(ps, frame_name, psi)))


def matrix_unit_stack(fam):
    """The block-certified orthonormal basis vec(F_ij) sqrt(d_t/n) of span{1, F_ij}, as n^2 x d_t^2 columns."""
    n = fam[0].shape[0]
    return np.column_stack([m.reshape(-1) for m in fam]) * np.sqrt(np.sqrt(len(fam)) / n)


def matrix_unit_basis(fam, tol=DEFAULT_TOL):
    """Orthonormal basis of span{1, F_ij} from an SVD of the vectorised operators."""
    seeds = [np.eye(fam[0].shape[0], dtype=complex)] + list(fam)
    return orthonormal_range(np.column_stack([m.reshape(-1) for m in seeds]), tol).basis


def dense_fixed_subspace(rep, tol=DEFAULT_TOL):
    """B as a dense kin x n_phys array: a table's normalised orbit indicators, or a charge-held rep's charge-0 kets
    through ``canonicalize_basis``."""
    if rep.is_finite:
        o = _index_orbits(rep)
        basis = np.zeros((rep.dim, o.leaders.size), dtype=complex)
        basis[np.arange(rep.dim), o.orbit] = 1.0 / np.sqrt(o.sizes)[o.orbit]
        return Subspace(rep.dim, basis)
    wb = weight_basis(rep)
    idx = wb.sectors.get(0, np.zeros(0, dtype=int))
    return Subspace(rep.dim, canonicalize_basis(wb.embed(idx, np.eye(len(idx), dtype=complex)), tol))


def charge_sector_closure(rep, v, tol=DEFAULT_TOL):
    """The invariant closure of span(v) on a U(1) rep as the sum over charge sectors q of range(P_q v)."""
    wb = weight_basis(rep)
    v = np.asarray(v, dtype=complex).reshape(rep.dim, -1)
    coeff = v if wb.vectors is None else dagger(wb.vectors) @ v
    return Subspace(rep.dim, np.hstack([wb.embed(idx, orthonormal_range(coeff[idx], tol).basis)
                                        for idx in wb.sectors.values()]))


def closure_span(s, frame_name, tol=DEFAULT_TOL):
    """The conditional span as the invariant closure of the densified C_e, by SVDs."""
    c = densify(conditioning_map(physical_space(s, tol), frame_name, s.frame(frame_name).rep.identity_element()))
    return library_closure(s.complement_rep(frame_name), c, tol) if c.shape[1] else orthonormal_range(c, tol)


def dense_product_form(ps, frame_name, theta):
    """max_k ||T_R B e_k - |theta> x C_e e_k / sqrt(Vol)|| from the whole kin x n_phys T_R B at once."""
    s, frame = ps.scenario, ps.scenario.frame(frame_name)
    diff = library_disentangler(s, frame_name, theta, ps.basis.basis)
    c_e = densify(conditioning_map(ps, frame_name, frame.rep.identity_element()))
    diff -= s.inject_vector(frame_name, theta.vector, c_e / np.sqrt(frame.weight_scale))
    return float(np.max(np.linalg.norm(diff, axis=0), initial=0.0))


def dense_invariance(ps):
    """Largest ||D B|| over the constraint operators D, applied to the dense B."""
    moved = apply_constraints(ps.scenario.total_rep, ps.basis.basis)
    return float(np.max(np.linalg.norm(moved, axis=(1, 2)), initial=0.0))


def commutant_dim(mats, tol=DEFAULT_TOL):
    """Dimension of {X : rho(g) X = X rho(g) for all g} as the nullspace of stacked Kronecker rows."""
    d = mats[0].shape[0]
    rows = [np.kron(m, np.eye(d)) - np.kron(np.eye(d), m.T) for m in mats]
    return nullspace(np.vstack(rows), tol).shape[1]


def orientation_independent(s, frame_name, tol=DEFAULT_TOL):
    """Pi_e = C_e C_e^dag commutes with every constraint operator of the complement rep."""
    pi_e = system_projector(s, frame_name, s.frame(frame_name).rep.identity_element(), tol)
    checks = constraints(s.complement_rep(frame_name))
    thresh = 1e5 * tol.weighted(max(1.0, float(np.abs(checks).max(initial=0.0))))
    return all(float(np.linalg.norm(c @ pi_e - pi_e @ c)) <= thresh for c in checks)


def left_apply(dims, slots, op, m):
    """(op on ``slots``, in that order, x identity elsewhere) @ m by one tensordot over the slot axes."""
    k = len(slots)
    sub = [dims[i] for i in slots]
    t = m.reshape(list(dims) + [m.shape[1]])
    out = np.tensordot(op.reshape(sub + sub), t, axes=(list(range(k, 2 * k)), list(slots)))
    return np.moveaxis(out, list(range(k)), list(slots)).reshape(m.shape)


def relation_conditional_reorient(s, frame1, g1, frame2, g2, obs, modified=True, tol=DEFAULT_TOL):
    """Modified targets F(g2 g'^-1) from the observable's family or one kinematical twirl of its source each;
    unital targets by V_R(g' g2^-1 g1) conjugation, formed as a Kronecker embedding; each relative-orientation
    projector w w^dag applied to its target by a two-slot tensordot."""
    f1, f2 = s.frame(frame1), s.frame(frame2)
    group = f1.rep.group
    orbit1, orbit2 = (np.column_stack([f.rep.matrices[g] @ f.seed for g in group.elements()]) for f in (f1, f2))
    slot1, slot2 = s.frame_slot(frame1), s.frame_slot(frame2)
    g1_el, g2_el = f1.rep.element(g1), f2.rep.element(g2)
    family = obs.family or (lambda h: relational_observable(s, frame1, h, obs.source, tol, check=False).matrix)
    v_rep = ensure_lr(f1, tol)
    out = np.zeros((s.kin_dim, s.kin_dim), dtype=complex)
    for gp in group.elements():
        shifted = orbit2[:, [group.mult(g, gp) for g in group.elements()]]
        w = np.einsum("ig,jg->ijg", orbit1, shifted).reshape(-1, group.order)
        if modified:
            target = family(f1.rep.element(group.mult(g2_el.index, group.inverse(gp))))
        else:
            k = group.mult(gp, group.mult(group.inverse(g2_el.index), g1_el.index))
            v_full = embed_pair(s.dims, slot1, v_rep.matrices[k], np.eye(s.complement_dim(frame1)))
            target = v_full @ obs.matrix @ dagger(v_full)
        out += left_apply(s.dims, (slot1, slot2), w @ dagger(w), target)
    return RelObs(op=out, frame_name=frame2, orientation=g2_el, source=obs.source, scenario=s)


def composed_tables(tables):
    """Permutation table of a tensor product, sigma(i d_b + j) = sigma_a(i) d_b + sigma_b(j), over all factors."""
    sigma = tables[0]
    for t in tables[1:]:
        sigma = (sigma[:, :, None] * t.shape[1] + t[:, None, :]).reshape(len(sigma), -1)
    return sigma


def kronecker_stack(factors):
    """The einsum Kronecker product of the factors' dense matrices, one element at a time."""
    mats = factors[0].matrices
    for r in factors[1:]:
        mats = np.einsum("gij,gkl->gikjl", mats, r.matrices).reshape(len(mats), mats.shape[1] * r.dim, -1)
    return mats


def kronecker_sum_generators(factors):
    """Generators of a tensor product, summed one np.kron(np.kron(1_left, K), 1_right) per factor."""
    dims = [r.dim for r in factors]
    total = int(np.prod(dims))
    gens = np.zeros((factors[0].group.algebra_dim, total, total), dtype=complex)
    for a in range(len(gens)):
        for i, r in enumerate(factors):
            left, right = int(np.prod(dims[:i])), int(np.prod(dims[i + 1:]))
            gens[a] += np.kron(np.kron(np.eye(left), r.generators[a]), np.eye(right))
    return gens


def dense_u1_twin(rep):
    """A charge-held U(1) rep held instead by its dense diagonal generator."""
    return UnitaryRep(rep.group, rep.dim, generators=np.diag(rep.charges.astype(complex))[None])


def pair_orbit_labels(sigma):
    """Orbit labels of the flat index pairs, the orbit sizes and each orbit's smallest pair, from the pairs'
    images formed in one (|G|, dim^2) pass: the distinct smallest images, counted and ranked by np.unique."""
    d = sigma.shape[1]
    low = (sigma[:, :, None] * d + sigma[:, None, :]).reshape(len(sigma), -1).min(axis=0)
    leaders, labels, sizes = np.unique(low, return_inverse=True, return_counts=True)
    return labels, sizes, leaders


def pair_orbit_twirl(sigma, a):
    """The table twirl as the mean of ``a`` over each pair orbit: two bincounts over the one-pass labels and a gather,
    in place of the mean over the group of the operand's rows at the index-orbit leaders."""
    labels, sizes, _ = pair_orbit_labels(sigma)
    flat = a.reshape(-1)
    means = (np.bincount(labels, flat.real) + 1j * np.bincount(labels, flat.imag)) / sizes
    return means[labels].reshape(a.shape)


def index_orbits(sigma):
    """Each index's orbit leader (its smallest image) and the smallest g taking it there, one index at a time."""
    leaders = np.array([min(sigma[:, i]) for i in range(sigma.shape[1])])
    t = np.array([min(g for g in range(len(sigma)) if sigma[g, i] == leaders[i]) for i in range(sigma.shape[1])])
    return leaders, t


def perm_group(perms, name):
    """The group of a list of permutation tuples, composed as (p q)[k] = p[q[k]], in list order."""
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(len(p)))] for q in perms] for p in perms]
    return finite_group_from_table(table, name=name)


def symmetric_3():
    return perm_group(sorted(itertools.permutations(range(3))), "S3")


def dihedral_4():
    rots = [tuple((k + r) % 4 for k in range(4)) for r in range(4)]
    refl = [tuple((r - k) % 4 for k in range(4)) for r in range(4)]
    return perm_group(rots + refl, "D4")


def quaternion_8():
    """Q8 on 1, -1, i, -i, j, -j, k, -k from the literal products of the units."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
        ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def split(x):
        return (-1, x[1:]) if x.startswith("-") else (1, x)

    def product(a, b):
        (sa, ua), (sb, ub) = split(a), split(b)
        sc, uc = split(base[(ua, ub)])
        return names.index(uc if sa * sb * sc == 1 else "-" + uc)

    return finite_group_from_table([[product(a, b) for b in names] for a in names], name="Q8")


SU2_THREE = {
    "name": "su2-three-spin1",
    "group": {"builtin": "su2"},
    "subsystems": [
        {"name": "A", "rep": {"spin_j": 1}},
        {"name": "B", "rep": {"spin_j": 1}},
        {"name": "C", "rep": {"spin_j": 1}},
    ],
    "frames": [{"name": "A", "subsystem": "A", "seed": "uniform"}],
    "tasks": [{"task": "full_report"}],
}

SU2_FOUR = {
    "name": "su2-four-spin1",
    "group": {"builtin": "su2"},
    "subsystems": [
        {"name": "A", "rep": {"spin_j": 1}},
        {"name": "B", "rep": {"spin_j": 1}},
        {"name": "C", "rep": {"spin_j": 1}},
        {"name": "D", "rep": {"spin_j": 1}},
    ],
    "frames": [{"name": "A", "subsystem": "A", "seed": "uniform"}],
    "tasks": [{"task": "full_report"}],
}
