"""Finite groups and the compact Lie groups U(1) and SU(2).

Finite groups are index sets with a validated Cayley table and a small
generating set, found once by greedy closure; Lie groups are descriptors
carrying a basis of the (anti-Hermitized) algebra.  The generating set is
the finite counterpart of the algebra basis: associativity (Light's test),
homomorphism checks and every invariance question need only the generators.
The builtin S3, D4 and Q8 are lists of matrices closed under products
(permutation matrices; +-1, +-i, +-j, +-k in SU(2)), and one helper reads
their Cayley tables, with the elements in list order.
Group elements are indices (finite) or real generator coordinates (Lie),
with SU(2) composition routed through the defining spin-1/2 matrices.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "FiniteGroup",
    "LieDescriptor",
    "FiniteElement",
    "LieElement",
    "Subgroup",
    "finite_group_from_table",
    "load_group_table",
    "cosets",
    "characters",
    "lie_element",
    "u1",
    "su2",
    "cyclic",
    "symmetric_3",
    "dihedral_4",
    "quaternion_8",
    "builtin_group",
]

# Pauli matrices in the convention [s_i, s_j] = 2i eps_ijk s_k.
PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on indices 0..order-1 with a validated product table.

    ``generators`` reaches every element by left multiplication from the
    identity (empty for the trivial group).  Compared by identity; the same
    table loaded twice gives distinct groups.
    """

    order: int
    product_table: np.ndarray  # shape (order, order), int indices
    identity_index: int
    name: str = "group"
    inverse_table: np.ndarray = field(repr=False, default=None)
    generators: tuple[int, ...] = ()

    def mult(self, a: int, b: int) -> int:
        return int(self.product_table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inverse_table[a])

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.product_table, self.product_table.T))


@dataclass(frozen=True, eq=False)
class LieDescriptor:
    """Descriptor of U(1) or SU(2) with its structure constants."""

    kind: str  # "U1" | "SU2"
    algebra_dim: int
    generator_names: tuple[str, ...]
    structure_constants: np.ndarray  # f[a,b,c] with [K_a,K_b] = 2i f_abc K_c

    def __post_init__(self) -> None:
        f = self.structure_constants
        if not np.allclose(f, -np.swapaxes(f, 0, 1)):
            raise ValueError("structure constants must be antisymmetric in the first pair")


@dataclass(frozen=True)
class FiniteElement:
    group: FiniteGroup
    index: int


@dataclass(frozen=True)
class LieElement:
    """exp(i sum_a coords[a] K_a); U(1) keeps the angle reduced mod 2pi."""

    descriptor: LieDescriptor
    coords: tuple[float, ...]


@dataclass(frozen=True)
class Subgroup:
    """Finite: member index set. Lie: algebra directions, discrete part unknown."""

    parent: object
    element_indices: tuple[int, ...] | None = None
    algebra_basis: tuple[tuple[float, ...], ...] | None = None
    discrete_part_unknown: bool = False

    @property
    def order(self) -> int:
        if self.element_indices is None:
            raise ValueError("not a finite subgroup")
        return len(self.element_indices)


def _u1() -> LieDescriptor:
    return LieDescriptor("U1", 1, ("Z",), np.zeros((1, 1, 1)))


def _su2() -> LieDescriptor:
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[b, a, c] = -1.0
    return LieDescriptor("SU2", 3, ("X", "Y", "Z"), eps)


_U1 = _u1()
_SU2 = _su2()


def u1() -> LieDescriptor:
    return _U1


def su2() -> LieDescriptor:
    return _SU2


def lie_element(desc: LieDescriptor, coords) -> LieElement:
    c = np.asarray(coords, dtype=float).reshape(-1)
    if c.size != desc.algebra_dim:
        raise ValueError(f"expected {desc.algebra_dim} coordinates, got {c.size}")
    if not np.all(np.isfinite(c)):
        raise ValueError("non-finite coordinates")
    if desc.kind == "U1":
        c = np.mod(c, 2.0 * np.pi)
    return LieElement(desc, tuple(float(x) for x in c))


def _su2_defining(coords: tuple[float, ...]) -> np.ndarray:
    k = sum(c * PAULI[n] for c, n in zip(coords, ("X", "Y", "Z")))
    # closed form of exp(i theta n.sigma)
    theta = float(np.sqrt(sum(c * c for c in coords)))
    if theta < 1e-300:
        return np.eye(2, dtype=complex)
    n = k / theta
    return np.cos(theta) * np.eye(2, dtype=complex) + 1j * np.sin(theta) * n


def _su2_coords_from_matrix(m: np.ndarray) -> tuple[float, float, float]:
    """Invert exp(i theta n.sigma); at theta = pi the axis defaults to Z."""
    # m = cos(theta) 1 + i sin(theta) n.sigma
    ct = float(np.real(m[0, 0] + m[1, 1])) / 2.0
    sv = np.array([np.imag(m[0, 1] + m[1, 0]), np.real(m[0, 1] - m[1, 0]), np.imag(m[0, 0] - m[1, 1])]) / 2.0
    st = float(np.linalg.norm(sv))
    theta = float(np.arctan2(st, ct))
    if st < 1e-12:
        return (0.0, 0.0, 0.0) if ct > 0 else (0.0, 0.0, float(np.pi))
    n = sv / st
    return tuple(float(theta * x) for x in n)


def compose(g: object, h: object) -> object:
    """Group product g*h on elements of matching type."""
    if isinstance(g, FiniteElement) and isinstance(h, FiniteElement):
        if g.group is not h.group:
            raise ValueError("elements from different groups")
        return FiniteElement(g.group, g.group.mult(g.index, h.index))
    if isinstance(g, LieElement) and isinstance(h, LieElement):
        desc = g.descriptor
        if desc.kind != h.descriptor.kind:
            raise ValueError("elements from different groups")
        if desc.kind == "U1":
            return lie_element(desc, [g.coords[0] + h.coords[0]])
        m = _su2_defining(g.coords) @ _su2_defining(h.coords)
        return lie_element(desc, _su2_coords_from_matrix(m))
    raise TypeError("cannot compose elements of different kinds")


def inverse(g: object) -> object:
    if isinstance(g, FiniteElement):
        return FiniteElement(g.group, g.group.inverse(g.index))
    if isinstance(g, LieElement):
        return lie_element(g.descriptor, [-c for c in g.coords])
    raise TypeError(f"not a group element: {g!r}")


def identity_of(group: object) -> object:
    if isinstance(group, FiniteGroup):
        return FiniteElement(group, group.identity_index)
    if isinstance(group, LieDescriptor):
        return lie_element(group, np.zeros(group.algebra_dim))
    raise TypeError(f"not a group: {group!r}")


def _greedy_generators(t: np.ndarray, identity: int) -> tuple[int, ...]:
    """Left-multiply from the identity, adding the smallest unreached index until all are reached."""
    reached = np.zeros(t.shape[0], dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        size = 0
        while size != reached.sum():
            size = reached.sum()
            reached[t[gens][:, reached].reshape(-1)] = True
    return tuple(gens)


def finite_group_from_table(table, name: str = "group") -> FiniteGroup:
    """Validate a Cayley table (Latin square, identity, inverses, associativity).

    Associativity is Light's exact test, (x s) y = x (s y) for all x, y and each
    generator s: the a with (x a) y = x (a y) for all x, y contain the identity
    and are closed under products, so they include every element reached.
    """
    t = np.asarray(table, dtype=int)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("product table must be square")
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        raise ValueError("table entries must be element indices")
    full = np.arange(n)
    if np.any(np.sort(t, axis=1) != full) or np.any(np.sort(t, axis=0) != full[:, None]):
        raise ValueError("not a Latin square")
    ids = np.flatnonzero(np.all(t == full, axis=1) & np.all(t == full[:, None], axis=0))
    if ids.size == 0:
        raise ValueError("no identity element")
    identity = int(ids[0])
    inv = np.argmax(t == identity, axis=1)  # the one right inverse in each row
    if np.any(t[inv, full] != identity):
        raise ValueError("inverses missing or not two-sided")
    gens = _greedy_generators(t, identity)
    for s in gens:
        if not np.array_equal(t[t[:, s], :], t[:, t[s, :]]):  # [x, y]: (x s) y vs x (s y)
            raise ValueError("product table is not associative")
    return FiniteGroup(n, t, identity, name=name, inverse_table=inv, generators=gens)


def load_group_table(source: str | Path, name: str | None = None) -> FiniteGroup:
    """Load a Cayley table from a JSON array-of-rows or whitespace text file."""
    path = Path(source)
    text = path.read_text()
    if text.lstrip().startswith("["):
        rows = json.loads(text)
    else:
        rows = [[int(x) for x in line.split()] for line in text.splitlines() if line.strip()]
    return finite_group_from_table(rows, name=name or path.stem)


def cosets(g: FiniteGroup, h: Subgroup, side: str = "left") -> list[frozenset[int]]:
    """Partition of g into left (gH) or right (Hg) cosets of the subgroup h."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    members = h.element_indices
    if members is None:
        raise ValueError("cosets need a finite subgroup")
    mem = set(members)
    if g.identity_index not in mem:
        raise ValueError("subgroup must contain the identity")
    for a in members:
        if g.inverse(a) not in mem:
            raise ValueError("subgroup not closed under inverse")
        for b in members:
            if g.mult(a, b) not in mem:
                raise ValueError("subgroup not closed under product")
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for a in g.elements():
        if a in seen:
            continue
        cs = frozenset(g.mult(a, m) if side == "left" else g.mult(m, a) for m in members)
        seen |= cs
        out.append(cs)
    return out


def characters(g: FiniteGroup):
    """The one-dimensional characters of g, each as its values on the elements, the trivial one (exact ones)
    first.  A character sends each generator s to a root of unity of s's order; each such assignment is extended
    by left multiplication from the identity and kept if it is multiplicative on the whole product table."""
    t, e = g.product_table, g.identity_index
    orders = []
    for s in g.generators:
        k, x = 1, s
        while x != e:
            k, x = k + 1, t[s, x]
        orders.append(k)
    for powers in itertools.product(*(range(k) for k in orders)):
        roots = [np.exp(2j * np.pi * p / k) if p else 1.0 for p, k in zip(powers, orders)]
        chi = np.zeros(g.order, dtype=complex)
        chi[e], frontier = 1.0, [e]
        while frontier:
            x = frontier.pop()
            for s, z in zip(g.generators, roots):
                if chi[t[s, x]] == 0:
                    chi[t[s, x]] = z * chi[x]
                    frontier.append(t[s, x])
        if np.max(np.abs(chi[t] - chi[:, None] * chi[None, :])) <= 1e-9:  # a miss is |1 - root| >= 2 sin(pi/|G|)
            yield chi


def cyclic(n: int) -> FiniteGroup:
    if not 1 <= n <= 32:
        raise ValueError("cyclic groups provided for 1 <= n <= 32")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return finite_group_from_table(table, name=f"Z{n}")


def _matrix_group(mats: list[np.ndarray], name: str) -> FiniteGroup:
    """The group of a list of matrices closed under products, its elements in list order."""
    index = {(m + 0).tobytes(): k for k, m in enumerate(mats)}  # + 0 turns -0.0 into 0.0
    table = [[index[(a @ b + 0).tobytes()] for b in mats] for a in mats]
    return finite_group_from_table(table, name=name)


def symmetric_3() -> FiniteGroup:
    # permutation matrices P e_k = e_{p[k]}, so P_p P_q is the matrix of k -> p[q[k]]
    return _matrix_group([np.eye(3, dtype=int)[:, p] for p in sorted(itertools.permutations(range(3)))], "S3")


def dihedral_4() -> FiniteGroup:
    # symmetries of the square acting on vertex labels 0..3, as permutation matrices
    rots = [[(k + r) % 4 for k in range(4)] for r in range(4)]
    refl = [[(r - k) % 4 for k in range(4)] for r in range(4)]
    return _matrix_group([np.eye(4, dtype=int)[:, p] for p in rots + refl], "D4")


def quaternion_8() -> FiniteGroup:
    # 1, -1, i, -i, j, -j, k, -k as SU(2) matrices, with k = ij
    one, i, j = np.eye(2, dtype=complex), -1j * PAULI["X"], -1j * PAULI["Y"]
    return _matrix_group([s * u for u in (one, i, j, i @ j) for s in (1, -1)], "Q8")


_BUILTIN_FACTORIES = {
    "S3": symmetric_3,
    "D4": dihedral_4,
    "Q8": quaternion_8,
}


def builtin_group(name: str) -> FiniteGroup:
    """Builtin finite groups: Zn (n <= 32), S3, D4, Q8."""
    key = name.strip().upper()
    if key.startswith("Z") and key[1:].isdigit():
        return cyclic(int(key[1:]))
    factory = _BUILTIN_FACTORIES.get(key)
    if factory is None:
        raise ValueError(f"unknown builtin group {name!r}")
    return factory()
