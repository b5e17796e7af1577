"""The lattice of all subspaces of GF(q)^n.

Subspaces are identified with their reduced-row-echelon bases, which makes
equality representational and hashing free. The lattice object indexes
every subspace, precomputes full meet/join tables from order bitmasks, and
exposes the modular-pair and dual-modular-pair predicates by brute force
over the relevant interval. At desk scale (q^n <= 10^6, element counts in
the tens to hundreds) all of this is eager and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .gf import GF, iter_vectors
from .matrices import (
    Matrix,
    as_matrix,
    in_row_space,
    row_space,
)
from .reports import CampaignReport


class AmbientTooLarge(ValueError):
    """Raised when exhaustive enumeration of an ambient is refused."""


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(q)^n, canonically the RREF basis with no zero rows."""

    field: GF
    n: int
    basis: Matrix

    @classmethod
    def span(cls, F: GF, n: int, rows) -> "Subspace":
        m = as_matrix(rows)
        if any(len(r) != n for r in m):
            raise ValueError(f"rows of length != {n}")
        return cls(F, n, row_space(F, m))

    @classmethod
    def zero(cls, F: GF, n: int) -> "Subspace":
        return cls(F, n, ())

    @classmethod
    def full(cls, F: GF, n: int) -> "Subspace":
        from .matrices import identity

        return cls(F, n, identity(n))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return f"Subspace({self.field.spec()}^{self.n}, dim={self.dim}, {self.basis})"


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def subspace_count_total(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def projection_pair_count(n: int, q: int) -> int:
    """Complement pairs: a d-dim subspace has q^(d(n-d)) complements."""
    return sum(gaussian_binomial(n, d, q) * q ** (d * (n - d)) for d in range(n + 1))


VECTOR_LIMIT = 10**6
ELEMENT_LIMIT = 10**4


def enumerate_subspaces(n: int, F: GF) -> "SubspaceLattice":
    """Every subspace exactly once via RREF pivot patterns, dimension-major order.

    Refuses ambients whose vector count exceeds VECTOR_LIMIT or whose
    subspace count exceeds ELEMENT_LIMIT: the lattice stores order masks
    and meet/join tables quadratic in the element count.
    """
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    if F.q**n > VECTOR_LIMIT:
        raise AmbientTooLarge(
            f"q^n = {F.q}^{n} exceeds enumeration limit {VECTOR_LIMIT}"
        )
    total = subspace_count_total(n, F.q)
    if total > ELEMENT_LIMIT:
        raise AmbientTooLarge(
            f"{total} subspaces exceeds the element limit {ELEMENT_LIMIT}"
        )
    elements: list[Subspace] = []
    for d in range(n + 1):
        bucket = []
        for pivots in combinations(range(n), d):
            free = [
                (i, j)
                for i in range(d)
                for j in range(pivots[i] + 1, n)
                if j not in pivots
            ]
            for values in iter_vectors(F, len(free)):
                rows = [[0] * n for _ in range(d)]
                for i in range(d):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                bucket.append(as_matrix(rows))
        bucket.sort(key=lambda m: tuple(x for row in m for x in row))
        elements.extend(Subspace(F, n, m) for m in bucket)
    expected = subspace_count_total(n, F.q)
    if len(elements) != expected or len(set(elements)) != expected:
        raise AssertionError(
            f"enumeration produced {len(elements)} subspaces, expected {expected}"
        )
    return SubspaceLattice(F, n, elements)


class SubspaceLattice:
    """All subspaces of GF(q)^n with order, meet/join tables, and predicates.

    Elements are indexed 0..size-1 in (dimension, basis) order; index 0 is
    the zero subspace and the last index is the whole space. Order masks are
    Python ints with bit j of up_masks[i] set iff element i <= element j.
    """

    def __init__(self, F: GF, n: int, elements: list[Subspace]):
        self.field = F
        self.n = n
        self.elements = elements
        self.size = len(elements)
        self.index = {s: i for i, s in enumerate(elements)}
        self.dims = [s.dim for s in elements]
        self.bottom = self.index[Subspace.zero(F, n)]
        self.top = self.index[Subspace.full(F, n)]
        self.atoms = [i for i, d in enumerate(self.dims) if d == 1]
        self.coatoms = [i for i, d in enumerate(self.dims) if d == n - 1]
        self.dim_index: dict[int, list[int]] = {}
        for i, d in enumerate(self.dims):
            self.dim_index.setdefault(d, []).append(i)
        self._build_order()
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _build_order(self) -> None:
        F = self.field
        els = self.elements
        size = self.size
        # ground-truth containment, element by element
        up = [0] * size
        by_dim = sorted(range(size), key=lambda i: self.dims[i])
        for i in range(size):
            bi = els[i].basis
            ui = 0
            for j in by_dim:
                if self.dims[j] < self.dims[i]:
                    continue
                if self.dims[j] == self.dims[i]:
                    if i == j:
                        ui |= 1 << j
                    continue
                if all(in_row_space(F, row, els[j].basis) for row in bi):
                    ui |= 1 << j
            up[i] = ui
        self.up_masks = up
        self.down_masks = down_masks(up)
        # atom sets, for export and for the automorphism search
        self.elem_atom_masks = atom_masks(up, self.atoms)
        self.atom_mask_index = {m: i for i, m in enumerate(self.elem_atom_masks)}
        if len(self.atom_mask_index) != size:
            raise AssertionError("distinct subspaces share an atom set")

    def _build_tables(self) -> None:
        size = self.size
        down_of = {self.down_masks[i]: i for i in range(size)}
        up_of = {self.up_masks[i]: i for i in range(size)}
        meet_t = [[0] * size for _ in range(size)]
        join_t = [[0] * size for _ in range(size)]
        dm, um = self.down_masks, self.up_masks
        for i in range(size):
            for j in range(i, size):
                m = down_of[dm[i] & dm[j]]
                jn = up_of[um[i] & um[j]]
                meet_t[i][j] = meet_t[j][i] = m
                join_t[i][j] = join_t[j][i] = jn
        self.meet_table = meet_t
        self.join_table = join_t

    # -- order and operations ----------------------------------------------

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.up_masks[i] >> j & 1)

    def meet_idx(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join_idx(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def covers_idx(self, i: int, j: int) -> bool:
        """j covers i: i < j with nothing strictly between."""
        if i == j or not self.leq_idx(i, j):
            return False
        strictly_between = (
            self.up_masks[i] & self.down_masks[j] & ~(1 << i) & ~(1 << j)
        )
        return strictly_between == 0

    def cover_pairs(self) -> list[tuple[int, int]]:
        return cover_pairs(self.up_masks, self.down_masks)

    def complements_idx(self, i: int) -> list[int]:
        bot, top = self.bottom, self.top
        mt, jt = self.meet_table, self.join_table
        return [j for j in range(self.size) if mt[i][j] == bot and jt[i][j] == top]

    def down_set(self, i: int) -> list[int]:
        return _bits(self.down_masks[i])

    def up_set(self, i: int) -> list[int]:
        return _bits(self.up_masks[i])

    def is_modular_pair_idx(self, a: int, b: int) -> bool:
        """(a,b)M: (x v a) ^ b == x v (a ^ b) for every x <= b."""
        jt, mt = self.join_table, self.meet_table
        ab = mt[a][b]
        return all(mt[jt[x][a]][b] == jt[x][ab] for x in self.down_set(b))

    def is_dual_modular_pair_idx(self, a: int, b: int) -> bool:
        """(a,b)M*: (x ^ a) v b == x ^ (a v b) for every x >= b."""
        jt, mt = self.join_table, self.meet_table
        ab = jt[a][b]
        return all(jt[mt[x][a]][b] == mt[x][ab] for x in self.up_set(b))

    @cached_property
    def length(self) -> int:
        """The number of cover steps in a longest chain from bottom to top,
        derived from the cover relation. An element strictly above another
        has strictly more elements below it, so visiting elements by that
        count settles every chain below an element before the element."""
        below: list[list[int]] = [[] for _ in range(self.size)]
        for i, j in self.cover_pairs():
            below[j].append(i)
        height = [0] * self.size
        for j in sorted(range(self.size), key=lambda e: self.down_masks[e].bit_count()):
            height[j] = max((height[i] + 1 for i in below[j]), default=0)
        return height[self.top]

    def atom_vector(self, i: int) -> tuple[int, ...]:
        """Canonical spanning vector of an atom (its single RREF basis row)."""
        return self.elements[i].basis[0]

    def verify_atomistic(self) -> bool:
        """Order coincides with atom-set inclusion, exhaustively."""
        return order_is_atom_inclusion(self.up_masks, self.atoms)

    def __repr__(self) -> str:
        return f"SubspaceLattice({self.field.spec()}^{self.n}, {self.size} elements)"


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# Order helpers shared by the lattice and the projection poset. An order on
# elements 0..size-1 is given by its up-sets: bit j of up[i] is set iff i <= j.


def down_masks(up: list[int]) -> list[int]:
    """The same order read downward: bit i of entry j is set iff i <= j."""
    down = [0] * len(up)
    for i, ui in enumerate(up):
        for j in _bits(ui):
            down[j] |= 1 << i
    return down


def atom_masks(up: list[int], atoms: list[int]) -> list[int]:
    """Atom set of every element: bit t of entry i is set iff atoms[t] <= i."""
    masks = [0] * len(up)
    for t, a in enumerate(atoms):
        for i in _bits(up[a]):
            masks[i] |= 1 << t
    return masks


def cover_pairs(up: list[int], down: list[int]) -> list[tuple[int, int]]:
    """Pairs (i, j) with j covering i: i < j and nothing strictly between."""
    out = []
    for i, ui in enumerate(up):
        for j in _bits(ui & ~(1 << i)):
            if ui & down[j] == (1 << i) | (1 << j):
                out.append((i, j))
    return out


def order_is_atom_inclusion(up: list[int], atoms: list[int]) -> bool:
    """Whether i <= j exactly when the atoms below i are all below j, with
    no two elements below the same atoms. The atoms of i are among those of
    j exactly when j is above every atom below i, so each up[i] must be the
    AND of the up-sets of the atoms below i (every element when there are
    none): one AND per atom-element incidence instead of size^2 pairs."""
    masks = atom_masks(up, atoms)
    if len(set(masks)) != len(up):
        return False
    everything = (1 << len(up)) - 1
    for i, mask in enumerate(masks):
        above = everything
        for t in _bits(mask):
            above &= up[atoms[t]]
        if up[i] != above:
            return False
    return True


def check_g_lattice_properties(L: SubspaceLattice) -> CampaignReport:
    """Structural battery: atom complement bounds, irreducibility witnesses,
    common complements, modularity of all pairs, the covering property both
    ways, and the dimension law. Failures carry explicit witnesses."""
    rep = CampaignReport("g-lattice", (L.n, L.field.spec()))

    multi = [(a, L.complements_idx(a)) for a in L.atoms]
    bad = [(a, len(c)) for a, c in multi if len(c) <= 1]
    rep.add(
        "every_atom_has_multiple_complements",
        not bad,
        f"violations={bad[:3]}" if bad else f"atoms={len(L.atoms)}",
    )

    rep.add(
        "at_least_two_atoms",
        len(L.atoms) >= 2,
        f"atom_count={len(L.atoms)}",
    )

    comp_sets = {a: set(c) for a, c in multi}
    bad_pairs = [
        (p1, p2)
        for p1, p2 in combinations(L.atoms, 2)
        if not (comp_sets[p1] & comp_sets[p2])
    ]
    rep.add(
        "distinct_atoms_share_a_complement",
        len(L.atoms) >= 2 and not bad_pairs,
        f"violations={bad_pairs[:3]}" if bad_pairs else "all pairs",
    )

    mod_bad = []
    for i in range(L.size):
        for j in range(L.size):
            if not L.is_modular_pair_idx(i, j) or not L.is_dual_modular_pair_idx(i, j):
                mod_bad.append((i, j))
    rep.add(
        "all_pairs_modular_and_dual_modular",
        not mod_bad,
        f"violations={mod_bad[:3]}" if mod_bad else f"pairs={L.size**2}",
    )

    cov_bad = []
    for p in L.atoms:
        for a in range(L.size):
            if L.meet_idx(a, p) == L.bottom and not L.covers_idx(a, L.join_idx(a, p)):
                cov_bad.append((p, a))
    rep.add(
        "covering_property",
        not cov_bad,
        f"violations={cov_bad[:3]}" if cov_bad else "all atom joins cover",
    )

    dual_cov_bad = []
    for h in L.coatoms:
        for a in range(L.size):
            if L.join_idx(a, h) == L.top and not L.covers_idx(L.meet_idx(a, h), a):
                dual_cov_bad.append((h, a))
    rep.add(
        "dual_covering_property",
        not dual_cov_bad,
        f"violations={dual_cov_bad[:3]}" if dual_cov_bad else "all coatom meets cover",
    )

    dim_bad = [
        (i, j)
        for i in range(L.size)
        for j in range(L.size)
        if L.dims[i] + L.dims[j]
        != L.dims[L.join_idx(i, j)] + L.dims[L.meet_idx(i, j)]
    ]
    rep.add(
        "dimension_law",
        not dim_bad,
        f"violations={dim_bad[:3]}" if dim_bad else f"pairs={L.size**2}",
    )

    counts_ok = all(
        len(L.dim_index.get(d, [])) == gaussian_binomial(L.n, d, L.field.q)
        for d in range(L.n + 1)
    )
    rep.add("element_counts_match_gaussian_binomials", counts_ok, f"size={L.size}")

    return rep
