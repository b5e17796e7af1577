"""Semilinear maps, the lattice maps they induce, and twisted-form dualities.

A semilinear map is an invertible matrix together with a field
automorphism; it sends the row vector v to twist(v) @ matrix, twist applied
entrywise first. Two semilinear maps that differ by a nonzero scalar act
identically on subspaces, so witnesses are normalized to make the first
nonzero entry of the first row equal to 1.

The reverse direction, recovering a semilinear witness from a lattice
automorphism, follows the classical frame argument: images of the
coordinate points and the all-ones point pin the matrix down, and the twist
is read off the line through the first two coordinate points. It applies
from ambient dimension 3 up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import GF, FieldAutomorphism
from .lattice import Subspace, SubspaceLattice
from .maps import ANTI, AUTO, LatticeMap
from .matrices import (
    Matrix,
    as_matrix,
    identity,
    is_invertible,
    mat_inv,
    mat_mul,
    row_space,
    scale_vec,
    transpose,
    vec_mat,
)


class MatchFailure(ValueError):
    """No semilinear witness reproduces the map."""


@dataclass(frozen=True)
class SemilinearMap:
    field: GF
    matrix: Matrix
    twist: FieldAutomorphism

    def __post_init__(self):
        if self.twist.field != self.field:
            raise ValueError("twist belongs to a different field")
        if not is_invertible(self.field, self.matrix):
            raise ValueError("semilinear map requires an invertible matrix")

    @classmethod
    def identity_map(cls, F: GF, n: int) -> "SemilinearMap":
        return cls(F, identity(n), F.frobenius(0))

    @property
    def n(self) -> int:
        return len(self.matrix)

    def apply_vector(self, v) -> tuple[int, ...]:
        return vec_mat(self.field, self.twist.on_vector(v), self.matrix)

    def apply_subspace(self, s: Subspace) -> Subspace:
        rows = [self.apply_vector(r) for r in s.basis]
        return Subspace(self.field, s.n, row_space(self.field, as_matrix(rows)))

    def compose(self, other: "SemilinearMap") -> "SemilinearMap":
        """self after other: v -> self(other(v))."""
        if self.field != other.field:
            raise ValueError("different fields")
        m = mat_mul(self.field, self.twist.on_matrix(other.matrix), self.matrix)
        return SemilinearMap(self.field, m, self.twist.compose(other.twist))

    def inverse(self) -> "SemilinearMap":
        inv_twist = self.twist.inverse()
        m = inv_twist.on_matrix(mat_inv(self.field, self.matrix))
        return SemilinearMap(self.field, m, inv_twist)

    def normalized(self) -> "SemilinearMap":
        """Scale so the first nonzero entry of the first row is 1."""
        first = next((x for x in self.matrix[0] if x), None)
        if first is None or first == 1:
            return self
        c = self.field.inv(first)
        m = tuple(tuple(self.field.mul(c, x) for x in row) for row in self.matrix)
        return SemilinearMap(self.field, m, self.twist)

    def __repr__(self) -> str:
        return f"SemilinearMap({self.field.spec()}, twist^{self.twist.power}, {self.matrix})"


def induced_lattice_map(s: SemilinearMap, L: SubspaceLattice) -> LatticeMap:
    """The subspace permutation X -> s(X). Not verified here:
    verify_lattice_map checks it."""
    perm = tuple(L.index[s.apply_subspace(x)] for x in L.elements)
    return LatticeMap(perm, AUTO, witness=s)


def verify_lattice_map(m: LatticeMap, L: SubspaceLattice) -> None:
    """Exhaustive order check: preserving for AUTO, reversing for ANTI."""
    up = L.up_masks
    perm = m.perm
    for i in range(L.size):
        u = up[i]
        pi = perm[i]
        while u:
            low = u & -u
            j = low.bit_length() - 1
            ok = (up[pi] >> perm[j] & 1) if m.direction == AUTO else (up[perm[j]] >> pi & 1)
            if not ok:
                raise ValueError(
                    f"{m.direction} claim fails: {i} <= {j} but images violate it"
                )
            u ^= low
    # the reverse implication follows because perm is a bijection and <= is
    # finite: counting comparable pairs before and after forces equivalence


@dataclass(frozen=True)
class BilinearForm:
    """Twisted bilinear pairing <x, y> = x @ gram @ twist(y)^T."""

    field: GF
    gram: Matrix
    twist: FieldAutomorphism

    def __post_init__(self):
        if self.twist.field != self.field:
            raise ValueError("twist belongs to a different field")
        if not is_invertible(self.field, self.gram):
            raise ValueError("degenerate form: gram matrix not invertible")

    @classmethod
    def standard(cls, F: GF, n: int, twist: FieldAutomorphism | None = None) -> "BilinearForm":
        return cls(F, identity(n), twist if twist is not None else F.frobenius(0))

    @property
    def n(self) -> int:
        return len(self.gram)


def dual_complement(x: Subspace, b: BilinearForm) -> Subspace:
    """{v : <v, y> = 0 for all y in x}, of dimension n - dim x."""
    F = b.field
    n = x.n
    if not x.basis:
        return Subspace.full(F, n)
    # v @ gram @ twist(basis)^T = 0 row by row
    constraint = mat_mul(F, b.gram, transpose(b.twist.on_matrix(x.basis)))
    from .matrices import left_kernel

    out = Subspace(F, n, left_kernel(F, constraint))
    if out.dim != n - x.dim:
        raise AssertionError("orthogonal complement has wrong dimension")
    return out


def make_duality(b: BilinearForm, L: SubspaceLattice) -> LatticeMap:
    """The anti-automorphism X -> orthogonal complement of X under the form,
    verified order-reversing.

    Involutivity depends on the form being reflexive; callers must check
    g.compose(g).is_identity rather than assume it.
    """
    perm = tuple(L.index[dual_complement(x, b)] for x in L.elements)
    g = LatticeMap(perm, ANTI, witness=b)
    verify_lattice_map(g, L)
    return g


def standard_duality(L: SubspaceLattice) -> LatticeMap:
    """Duality of the identity gram with identity twist; always involutory
    (the untwisted symmetric form is reflexive over every field)."""
    return make_duality(BilinearForm.standard(L.field, L.n), L)


def match_semilinear(f: LatticeMap, L: SubspaceLattice) -> SemilinearMap:
    """Recover a normalized semilinear witness for a lattice automorphism.

    Requires ambient dimension >= 3. The matrix comes from the images of
    the n coordinate points scaled to agree on the all-ones point; the
    twist is read off the pencil of points on the line through the first
    two coordinate points and must be a Frobenius power. The witness is
    verified against f on every lattice element before being returned.
    """
    F = L.field
    n = L.n
    if n < 3:
        raise ValueError(f"witness recovery requires ambient dimension >= 3, got {n}")
    if f.direction != AUTO:
        raise ValueError("only automorphisms have semilinear witnesses")

    def atom_rep(subspace_index: int) -> tuple[int, ...]:
        return L.elements[subspace_index].basis[0]

    def point_index(v) -> int:
        return L.index[Subspace.span(F, n, (v,))]

    e = identity(n)
    y = [atom_rep(f.perm[point_index(e[i])]) for i in range(n)]
    y_mat = as_matrix(y)
    if not is_invertible(F, y_mat):
        raise MatchFailure("images of coordinate points are dependent")
    ones = (1,) * n
    r = atom_rep(f.perm[point_index(ones)])
    c = vec_mat(F, r, mat_inv(F, y_mat))
    if any(x == 0 for x in c):
        raise MatchFailure("image of the unit point misses a coordinate image")
    m = as_matrix(scale_vec(F, ci, yi) for ci, yi in zip(c, y))
    m_inv = mat_inv(F, m)

    # twist from the line through the first two coordinate points
    sigma_table = [0] * F.q
    for lam in F.elements():
        v = (1, lam) + (0,) * (n - 2)
        d = atom_rep(f.perm[point_index(v)])
        t = vec_mat(F, d, m_inv)
        if t[0] == 0 or any(t[j] for j in range(2, n)):
            raise MatchFailure(f"image of pencil point {v} leaves the pencil")
        sigma_table[lam] = F.div(t[1], t[0])
    sigma = next((tw for tw in F.automorphisms() if list(tw.table) == sigma_table), None)
    if sigma is None:
        raise MatchFailure(f"pencil action {sigma_table} is not a field automorphism")

    s = SemilinearMap(F, m, sigma).normalized()
    induced = induced_lattice_map(s, L)
    if induced.perm != f.perm:
        raise MatchFailure("candidate witness does not reproduce the map")
    return s
