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
    SingularMatrixError,
    as_matrix,
    dims,
    identity,
    is_invertible,
    left_kernel,
    mat_inv,
    mat_mul,
    row_space,
    scale_vec,
    transpose,
    vec_mat,
)


class MatchFailure(ValueError):
    """No semilinear witness reproduces the map."""


class _Memo(dict):
    """fn(key), evaluated once per distinct key."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class RowEvaluator:
    """v -> sum_i twist(v_i) * rows[i], which is twist(v) @ rows, read
    from the row multiples twist(x) * rows[i]: each is filled on first
    use, so there are at most len(rows) * q of them, and zero
    coordinates are skipped."""

    def __init__(self, F: GF, rows: Matrix, twist: FieldAutomorphism):
        self.add = F.add_table
        self.shape = dims(rows)
        sigma = twist.table
        self.multiples = [_Memo(lambda x, r=r: scale_vec(F, sigma[x], r)) for r in rows]

    def __call__(self, v) -> tuple[int, ...]:
        if len(v) != self.shape[0]:
            raise ValueError(f"shape mismatch: len {len(v)} vs {self.shape}")
        add, out = self.add, None
        for x, multiples in zip(v, self.multiples):
            if x:
                w = multiples[x]
                out = w if out is None else tuple([add[a][b] for a, b in zip(out, w)])
        return (0,) * self.shape[1] if out is None else out


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
        # the evaluator and its row multiples are not dataclass fields, so
        # equality and hashing stay on (field, matrix, twist)
        object.__setattr__(self, "_rows", RowEvaluator(self.field, self.matrix, self.twist))

    def __reduce__(self):
        # pickled by its fields; the evaluator, and the ring tables that
        # ringmaps keeps here, hold closures and are rebuilt on first use
        return (type(self), (self.field, self.matrix, self.twist))

    @classmethod
    def identity_map(cls, F: GF, n: int) -> "SemilinearMap":
        return cls(F, identity(n), F.frobenius(0))

    @property
    def n(self) -> int:
        return len(self.matrix)

    def apply_vector(self, v) -> tuple[int, ...]:
        """twist(v) @ matrix, from this map's row multiples."""
        return self._rows(v)

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


def _lift_proves(m: LatticeMap, L: SubspaceLattice) -> bool:
    """Whether one packed lift proves m an automorphism of L (AUTO) or an
    anti-automorphism (ANTI), that is an isomorphism from L onto L or
    onto L.dual. Both orders are proved, once per lattice, to be inclusion
    of their atom sets; L.dual's atoms are L's coatoms. The atoms must go
    to the target's atoms, by ordinals sigma, and each element i to the
    element whose target atom set is sigma A(i) (L.lift_atom_perm). Then
    i <= j iff A(i) is in A(j) iff sigma A(i) is in sigma A(j) iff
    m(i) <= m(j) in the target, which for L.dual reads m(j) <= m(i) in the
    order down_masks gives: what the pair walk checks, so an accepted map
    passes it. Nothing else is assumed of perm."""
    perm = m.perm
    target = L if m.direction == AUTO else L.dual
    if not (L.atomistic and target.atomistic):
        return False
    ordinal = target.atom_ordinal
    lifted = L.lift_atom_perm([ordinal.get(perm[a]) for a in L.atoms], target)
    return lifted == tuple(perm)


def verify_lattice_map(m: LatticeMap, L: SubspaceLattice) -> None:
    """Order check: preserving for AUTO, reversing for ANTI. A map the
    packed lift proves is accepted at once. Any other is walked: every
    comparable pair i <= j is checked, i ascending and j ascending within
    i; f(j) must lie in the up-set of f(i) for AUTO and in its down-set
    for ANTI, and the first pair that fails is named. A permutation the
    walk passes is an (anti-)automorphism, which the lift accepts, so the
    walk runs to name that pair, or on a lattice whose proofs failed."""
    L.check_map_size(m.perm)
    if _lift_proves(m, L):
        return
    perm = m.perm
    target = L.up_masks if m.direction == AUTO else L.down_masks
    for i, above in enumerate(L.up_lists):
        allowed = target[perm[i]]
        for j in above:
            if not allowed >> perm[j] & 1:
                raise ValueError(
                    f"{m.direction} claim fails: {i} <= {j} but images violate it"
                )
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
    two coordinate points and must be a Frobenius power. Every point read
    leads with 1, so it is looked up in L.point_index, and each image must
    be a point, whose RREF row is its vector: recovery row-reduces only to
    invert the frame. The witness is verified against f on every lattice
    element before being returned.
    """
    F = L.field
    n = L.n
    if n < 3:
        raise ValueError(f"witness recovery requires ambient dimension >= 3, got {n}")
    if f.direction != AUTO:
        raise ValueError("only automorphisms have semilinear witnesses")
    L.check_map_size(f.perm)
    points, ordinal, elements, perm = L.point_index, L.atom_ordinal, L.elements, f.perm

    def image_vector(v) -> tuple[int, ...]:
        image = perm[points[v]]
        if image not in ordinal:
            raise MatchFailure(f"the point {v} is sent to element {image}, which is not a point")
        return elements[image].basis[0]

    y = [image_vector(e) for e in identity(n)]
    try:
        y_inv = mat_inv(F, y)
    except SingularMatrixError:
        raise MatchFailure("images of coordinate points are dependent") from None
    c = vec_mat(F, image_vector((1,) * n), y_inv)
    if not all(c):
        raise MatchFailure("image of the unit point misses a coordinate image")
    # the witness has rows k c_i y_i, with k = 1 / c_0 so that its first
    # row leads with 1, as y_0 does; its inverse is y^-1 with column j
    # divided by k c_j
    mul, inv = F.mul_table, F.inv_table
    scales = [mul[inv[c[0]]][x] for x in c]
    m = as_matrix(scale_vec(F, x, yi) for x, yi in zip(scales, y))
    unscales = [inv[x] for x in scales]
    m_inv = as_matrix([mul[x][u] for x, u in zip(row, unscales)] for row in y_inv)

    # twist from the line through the first two coordinate points
    sigma_table = [0] * F.q
    for lam in F.elements():
        v = (1, lam) + (0,) * (n - 2)
        t = vec_mat(F, image_vector(v), m_inv)
        if t[0] == 0 or any(t[j] for j in range(2, n)):
            raise MatchFailure(f"image of pencil point {v} leaves the pencil")
        sigma_table[lam] = F.div(t[1], t[0])
    sigma = next((tw for tw in F.automorphisms() if list(tw.table) == sigma_table), None)
    if sigma is None:
        raise MatchFailure(f"pencil action {sigma_table} is not a field automorphism")

    s = SemilinearMap(F, m, sigma)
    induced = induced_lattice_map(s, L)
    if induced.perm != f.perm:
        raise MatchFailure("candidate witness does not reproduce the map")
    return s
