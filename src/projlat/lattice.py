"""The lattice of all subspaces of GF(q)^n.

Subspaces are identified with their reduced-row-echelon bases, which makes
equality representational and hashing free. The lattice object indexes
every subspace and stores its order as bitmasks; a meet or a join is one
lookup of a down-set or up-set intersection, and the modular-pair
predicate, read on the lattice or on its dual, takes one lookup per
element to build a's join row and one AND per element of each interval.
At desk scale (q^n <= 10^6, element counts in the tens to hundreds) all of
this is exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import lshift

from .gf import GF, iter_vectors
from .matrices import Matrix, as_matrix, identity, row_space, scale_vec, vec_mat
from .reports import CampaignReport


class AmbientTooLarge(ValueError):
    """Raised when exhaustive enumeration of an ambient is refused."""


class NotAnAtomPermutation(ValueError):
    """Raised when L's packed lift is handed atom images that are not a
    permutation of the atoms: such a sum would carry between slots."""


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


def _count_text(count: int) -> str:
    """count written out up to 30 digits; a longer one by its first four
    digits, its power of ten and its digit count: (q + 1)! at (2, q) has
    500 digits at q = 251, and beyond 4 300 digits str() refuses it."""
    if count < 10**30:
        return str(count)
    e = int(math.log10(count))
    e += count >= 10 ** (e + 1)
    e -= count < 10**e
    lead = str(count // 10 ** (e - 3))
    return f"{lead[0]}.{lead[1:]}e{e} ({e + 1} digits)"


def check_limit(count: int, what: str, limit: str, bound: int) -> None:
    """Refuse the ambient when count, of what, is above the bound named
    limit: every refusal of an ambient is raised here, in one shape."""
    if count > bound:
        raise AmbientTooLarge(f"{_count_text(count)} {what} exceeds the {limit} {bound}")


def check_enumerable(n: int, F: GF) -> None:
    """Refuse ambients whose vector count exceeds VECTOR_LIMIT or whose
    subspace count exceeds ELEMENT_LIMIT: the lattice stores order masks
    quadratic in the element count. Reads (n, q) alone, so a caller can
    run it, then other closed-form bounds, before building L."""
    if n < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {n}")
    check_limit(F.q**n, "vectors", "vector limit", VECTOR_LIMIT)
    check_limit(subspace_count_total(n, F.q), "subspaces", "element limit", ELEMENT_LIMIT)


def enumerate_subspaces(n: int, F: GF) -> "SubspaceLattice":
    """Every subspace exactly once via RREF pivot patterns, dimension-major
    order, for an ambient that check_enumerable admits."""
    check_enumerable(n, F)
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


def point_vectors(F: GF, basis: Matrix):
    """The vectors of span(basis) that lead with 1, one per point, basis
    an RREF basis b_0..b_{d-1}: for each row i and each c in F^(d-i-1),
    b_i plus the combination c of the rows below it. RREF makes each lead
    with 1 at b_i's pivot, since b_i is 0 before its pivot and 1 there, and
    every row below is 0 up to and at that column. Each point of the span
    is met exactly once: its vectors have one coefficient tuple each in the
    independent rows, and exactly one of them has first nonzero
    coefficient 1, at the row i whose pivot leads it."""
    d = len(basis)
    for i in range(d):
        head = (0,) * i + (1,)
        for c in iter_vectors(F, d - i - 1):
            yield vec_mat(F, head + c, basis)


class FiniteOrder:
    """What L and P share: an order on elements 0..size-1 given by its
    up-sets and down-sets (bit j of up_masks[i] is set iff i <= j), its
    atoms, each element's atom set (bit t of elem_atom_masks[i] is set
    iff atoms[t] <= i) with the table from atom sets back to elements,
    and its least bounds, one lookup each."""

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.up_masks[i] >> j & 1)

    def check_map_size(self, perm) -> None:
        """Refuse a map of another ambient, one without one image per
        element, before any of its images is read."""
        if len(perm) != self.size:
            raise ValueError(f"a map of {len(perm)} elements does not act on {self!r}")

    def lub_idx(self, i: int, j: int) -> int | None:
        """Least upper bound, or None if there is no least one. The common
        upper bounds form an up-set, and m is their least exactly when that
        up-set is m's own (Davey & Priestley 2002, ch. 2), so one lookup
        answers."""
        return self.up_mask_index.get(self.up_masks[i] & self.up_masks[j])

    def glb_idx(self, i: int, j: int) -> int | None:
        return self.down_mask_index.get(self.down_masks[i] & self.down_masks[j])

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i, i ascending, then j."""
        up, covers = self.up_masks, self.covers_idx
        return [(i, j) for i, u in enumerate(up) for j in _bits(u) if covers(i, j)]

    @cached_property
    def atom_ordinal(self) -> dict[int, int]:
        return {a: t for t, a in enumerate(self.atoms)}

    @cached_property
    def atom_mask_index(self) -> dict[int, int]:
        """The atom set -> element table; built on first use, from
        elem_atom_masks, where a constructor has not built it."""
        return _mask_index(self.elem_atom_masks, "atom set")

    @cached_property
    def up_mask_index(self) -> dict[int, int]:
        """The up-set -> element table; built on first use, from up_masks."""
        return _mask_index(self.up_masks, "up-set")

    @cached_property
    def down_mask_index(self) -> dict[int, int]:
        """The down-set -> element table; built on first use, from down_masks."""
        return _mask_index(self.down_masks, "down-set")

    def verify_atomistic(self) -> bool:
        """The order is inclusion of the stored atom sets, and the atoms are
        the elements covering the least element, exhaustively."""
        return order_is_atom_inclusion(self.up_masks, self.atoms, self.elem_atom_masks)

    @cached_property
    def atomistic(self) -> bool:
        """verify_atomistic(), run once per order and kept: the one verdict
        the atom searches' guard and verify_lattice_map read."""
        return self.verify_atomistic()

    def modular_partners(self, a: int, candidates) -> list[int]:
        """The b in candidates, in order, with (a,b)M in a lattice: (x v a)
        ^ b == x v (a ^ b) for every x <= b. As y = x v (a ^ b) runs over
        [a ^ b, b] with y v a = x v a, that is (y v a) ^ b == y on the
        interval, compared by down-sets against a's join row (the down-set
        of y v a for every y, one lookup each) over the interval's kept
        list; for complements the interval is down(b)."""
        um, dm, spans = self.up_masks, self.down_masks, self._interval_lists
        join = self.up_mask_index
        row = [dm[join[u]] for u in map(um[a].__and__, um)]
        kept = []
        for b in candidates:
            db = dm[b]
            span = um[self.glb_idx(a, b)] & db
            ys = spans.get(span) or spans.setdefault(span, _bits(span))
            if all(row[y] & db == dm[y] for y in ys):
                kept.append(b)
        return kept

    def is_modular_pair_idx(self, a: int, b: int) -> bool:
        """(a,b)M: modular_partners with b the one candidate."""
        return bool(self.modular_partners(a, (b,)))

    @cached_property
    def _interval_lists(self) -> dict[int, list[int]]:
        """{interval mask: its elements, lowest first}, filled on use."""
        return {}

    def covers_idx(self, i: int, j: int) -> bool:
        """j covers i: i < j with nothing strictly between, so the
        interval [i, j] is {i, j}; it is empty when i is not below j."""
        return i != j and self.up_masks[i] & self.down_masks[j] == (1 << i) | (1 << j)

    @cached_property
    def up_lists(self) -> list[list[int]]:
        """Every element's up-set as a list, lowest first, built once: the
        comparable pairs a lattice-map check walks."""
        return [_bits(u) for u in self.up_masks]

    @cached_property
    def atom_lists(self) -> list[list[int]]:
        """Every element's atom set as a list of atom ordinals."""
        return [_bits(m) for m in self.elem_atom_masks]

    @cached_property
    def dual(self) -> FiniteOrder:
        """The reverse order, up-sets and down-sets swapped: each predicate
        read on it is its dual, so (a,b)M* is dual.is_modular_pair_idx(a, b)
        (Maeda & Maeda 1970, ch. I). Built on first use."""
        D = FiniteOrder()
        D.up_masks, D.down_masks = self.down_masks, self.up_masks
        return D


class SubspaceLattice(FiniteOrder):
    """All subspaces of GF(q)^n with their order, atoms and atom sets.

    Elements are indexed 0..size-1 in the order given, which must be
    dimension order: the order build reads each dimension as one run of
    indices, and elements whose dimensions decrease are refused. Within a
    dimension any order will do; enumerate_subspaces gives (dimension,
    basis) order. Order masks are Python ints with bit j of up_masks[i]
    set iff element i <= element j.
    """

    def __init__(self, F: GF, n: int, elements: list[Subspace]):
        self.field = F
        self.n = n
        self.elements = elements
        self.size = len(elements)
        self.index = {s: i for i, s in enumerate(elements)}
        self.dims = [s.dim for s in elements]
        if self.dims != sorted(self.dims):
            raise ValueError("elements are not in dimension order")
        self.bottom = self.index[Subspace.zero(F, n)]
        self.top = self.index[Subspace.full(F, n)]
        self.atoms = [i for i, d in enumerate(self.dims) if d == 1]
        self.coatoms = [i for i, d in enumerate(self.dims) if d == n - 1]
        self.dim_index: dict[int, list[int]] = {}
        for i, d in enumerate(self.dims):
            self.dim_index.setdefault(d, []).append(i)
        self._build_order()

    # -- construction ------------------------------------------------------

    def _build_order(self) -> None:
        # ground-truth containment from point incidences: s lies in t when
        # every basis row of s does, and each RREF row, leading with 1, is
        # the canonical vector of a point; so one table, point -> elements
        # through it, answers every pair with one AND per basis row of s
        through: dict[tuple[int, ...], int] = {}
        for j, t in enumerate(self.elements):
            bit = 1 << j
            for v in point_vectors(self.field, t.basis):
                through[v] = through.get(v, 0) | bit
        everything = (1 << self.size) - 1
        up = []
        for s in self.elements:
            mask = everything
            for r in s.basis:
                mask &= through[r]
            up.append(mask)
        self.up_masks = up
        # every s < t lies below a lower cover of t, an element one dimension
        # below it, so t's down-set is t with its lower covers' down-sets:
        # one OR per cover pair. Elements are in dimension order, so each
        # dimension's elements are one run of indices, and each down-set is
        # whole before an upper cover reads it
        down = [1 << i for i in range(self.size)]
        for s, (u, d) in enumerate(zip(up, self.dims)):
            above = self.dim_index.get(d + 1)
            if above:
                lo = above[0]
                for t in _bits(u >> lo & ((1 << len(above)) - 1)):
                    down[lo + t] |= down[s]
        self.down_masks = down
        # atom sets, for export and for the automorphism search
        self.elem_atom_masks = atom_masks(up, self.atoms)
        self.atom_mask_index = _mask_index(self.elem_atom_masks, "atom set")

    # -- order and operations ----------------------------------------------

    def complements_idx(self, i: int) -> list[int]:
        """The j with i v j the top and i ^ j the bottom: the only common
        upper bound is the top, and the only common lower bound the bottom."""
        um, dm = self.up_masks, self.down_masks
        ui, di, top, bottom = um[i], dm[i], 1 << self.top, 1 << self.bottom
        return [j for j in range(self.size) if ui & um[j] == top and di & dm[j] == bottom]

    @cached_property
    def _atom_columns(self) -> tuple[list[int], int, set[int]]:
        """The packed form of elem_atom_masks, built once: one int per
        atom t with a slot of nbytes bytes per element, slot e holding 1
        when atoms[t] <= e; nbytes, enough for one bit per atom; and the
        set of atom ordinals."""
        m = len(self.atoms)
        nbytes = _slot_bytes(m)
        columns = [0] * m
        for e, mask in enumerate(self.elem_atom_masks):
            for t in _bits(mask):
                columns[t] |= 1 << (8 * nbytes * e)
        return columns, nbytes, set(range(m))

    def lift_atom_masks(self, sigma) -> list[int]:
        """The atom set of every element's image under sigma, a permutation
        of the atom ordinals: the atoms sigma sends its atoms to. One
        packed sum, column t shifted by sigma[t]: slot e adds the distinct
        bits of e's image atoms, so no carry leaves a slot. A sigma that
        is not a permutation would carry, and is refused."""
        columns, nbytes, ordinals = self._atom_columns
        if len(sigma) != len(columns) or set(sigma) != ordinals:
            raise NotAnAtomPermutation("the atom images are not a permutation of the atoms")
        return _unpack_slots(sum(map(lshift, columns, sigma)), self.size, nbytes)

    def lift_atom_perm(self, sigma, target: FiniteOrder | None = None) -> tuple[int, ...] | None:
        """The element permutation sigma induces from L onto target, L
        itself by default or L.dual: element i goes to the target element
        whose atom set is sigma A(i), sigma a permutation of L's atom
        ordinals onto target's. None when the packed lift refuses sigma as
        no permutation, or when some image atom set belongs to no target
        element; any other error of the lift propagates. A lift found is a
        permutation of the elements, with no count: the target's atom sets
        are pairwise distinct (_mask_index proved it), and a permutation
        sigma keeps L's distinct atom sets distinct."""
        try:
            masks = self.lift_atom_masks(sigma)
        except NotAnAtomPermutation:
            return None
        perm = tuple(map((self if target is None else target).atom_mask_index.get, masks))
        return None if None in perm else perm

    @cached_property
    def dual(self) -> FiniteOrder:
        """The reverse order with L's coatoms as atoms, bottom and top
        swapped: the order P reads on kernels."""
        D = super().dual
        D.size, D.atoms, D.bottom, D.top = self.size, self.coatoms, self.top, self.bottom
        D.elem_atom_masks = atom_masks(D.up_masks, D.atoms)
        return D

    def atom_vector(self, i: int) -> tuple[int, ...]:
        """Canonical spanning vector of an atom (its single RREF basis row)."""
        return self.elements[i].basis[0]

    @cached_property
    def point_index(self) -> dict[tuple[int, ...], int]:
        """The canonical vector -> point table: each point's single RREF
        row, which leads with 1. Built on first use."""
        return {self.elements[a].basis[0]: a for a in self.atoms}

    def point_of(self, v) -> int:
        """The point spanned by the nonzero vector v, with no row
        reduction: v scaled by the inverse of its first nonzero entry
        leads with 1, and is that point's key in point_index."""
        lead = next((x for x in v if x), 0)
        if not lead:
            raise ValueError("the zero vector spans no point")
        return self.point_index[scale_vec(self.field, self.field.inv_table[lead], v)]

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


# bytes of a packed slot, with the memoryview format that reads such slots
# back as unsigned ints
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_bytes(bits: int) -> int:
    """The bytes of the smallest slot that holds bits bits: 1, 2, 4 or 8,
    or else a multiple of 8."""
    return next((b for b in _SLOT_FORMATS if bits <= 8 * b), -(-bits // 64) * 8)


def _unpack_slots(packed: int, count: int, nbytes: int) -> list[int]:
    """The count slots of nbytes bytes each in packed, slot 0 lowest, as
    ints: one to_bytes and one memoryview cast, or slices of the bytes
    for slots wider than 8."""
    fmt = _SLOT_FORMATS.get(nbytes)
    if fmt is None:
        raw = packed.to_bytes(count * nbytes, "little")
        return [int.from_bytes(raw[k : k + nbytes], "little") for k in range(0, len(raw), nbytes)]
    slots = memoryview(packed.to_bytes(count * nbytes, sys.byteorder)).cast(fmt).tolist()
    if sys.byteorder == "big":
        slots.reverse()
    return slots


def or_lists(values: list[int], lists) -> list[int]:
    """Entry k is the OR of values at the indices in lists[k]."""
    out = []
    for group in lists:
        m = 0
        for t in group:
            m |= values[t]
        out.append(m)
    return out


# Order helpers shared by the lattice and the projection poset. An order on
# elements 0..size-1 is given by its up-sets: bit j of up[i] is set iff i <= j.


def down_masks(up: list[int]) -> list[int]:
    """The same order read downward: bit i of entry j is set iff i <= j.
    One step per comparable pair, for any order; L fills its own from its
    lower covers, and the tests compare it with this."""
    down = [0] * len(up)
    for i, ui in enumerate(up):
        for j in _bits(ui):
            down[j] |= 1 << i
    return down


def _mask_index(masks: list[int], what: str) -> dict[int, int]:
    """{mask: element}. Two elements with one mask would break the order's
    antisymmetry, and with it the uniqueness of least bounds."""
    index = {m: i for i, m in enumerate(masks)}
    if len(index) != len(masks):
        raise AssertionError(f"two elements have the same {what}")
    return index


def _digit_bits(mask: int) -> list[int]:
    """_bits read off the mask's binary digits: one scan per mask, not one
    big-int step per set bit; the cheaper on long sparse masks (P's)."""
    digits = format(mask, "b")[::-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def atom_masks(up: list[int], atoms: list[int]) -> list[int]:
    """Atom set of every element: bit t of entry i is set iff atoms[t] <= i."""
    masks = [0] * len(up)
    for t, a in enumerate(atoms):
        for i in _digit_bits(up[a]):
            masks[i] |= 1 << t
    return masks


def order_is_atom_inclusion(up: list[int], atoms: list[int], stored: list[int]) -> bool:
    """Whether i <= j exactly when the atoms below i are all below j, the
    stored sets (bit t of stored[i] for atoms[t] <= i) are those atoms and
    distinct, and the atoms cover the least element. Proved from stored
    alone: the sets are distinct; atoms[t]'s is bit t alone; each up[i]
    holds i and is the AND of the up-sets of the atoms in stored[i] (every
    element when there are none); and the sets hold as many incidences as
    the atoms' up-sets. So i is above its stored atoms, and equal totals
    make them all its atoms. An element with one atom is that atom, and
    one with none is below everything."""
    if len(set(stored)) != len(up) or any(stored[a] != 1 << t for t, a in enumerate(atoms)):
        return False
    if sum(m.bit_count() for m in stored) != sum(up[a].bit_count() for a in atoms):
        return False
    everything = (1 << len(up)) - 1
    for i, mask in enumerate(stored):
        above = everything
        for t in _bits(mask):
            above &= up[atoms[t]]
        if up[i] != above or not above >> i & 1:
            return False
    return True


def check_g_lattice_properties(L: SubspaceLattice) -> CampaignReport:
    """Structural battery: atom complement bounds, irreducibility witnesses,
    common complements, modularity of all pairs, the covering property both
    ways, and the dimension law. Failures carry explicit witnesses."""
    rep = CampaignReport("verify-glattice", (L.n, L.field.spec()))

    multi = [(a, L.complements_idx(a)) for a in L.atoms]
    bad = [(a, len(c)) for a, c in multi if len(c) <= 1]
    rep.add_violations("every_atom_has_multiple_complements", bad, f"atoms={len(L.atoms)}")

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
        both = set(L.dual.modular_partners(i, L.modular_partners(i, range(L.size))))
        mod_bad += [(i, j) for j in range(L.size) if j not in both]
    rep.add_violations("all_pairs_modular_and_dual_modular", mod_bad, f"pairs={L.size**2}")

    for check, S, holds in (
        ("covering_property", L, "all atom joins cover"),
        ("dual_covering_property", L.dual, "all coatom meets cover"),
    ):
        bad = [
            (p, a)
            for p in S.atoms
            for a in range(S.size)
            if S.glb_idx(a, p) == S.bottom and not S.covers_idx(a, S.lub_idx(a, p))
        ]
        rep.add_violations(check, bad, holds)

    dim_bad = [
        (i, j)
        for i in range(L.size)
        for j in range(L.size)
        if L.dims[i] + L.dims[j]
        != L.dims[L.lub_idx(i, j)] + L.dims[L.glb_idx(i, j)]
    ]
    rep.add_violations("dimension_law", dim_bad, f"pairs={L.size**2}")

    counts_ok = all(
        len(L.dim_index.get(d, [])) == gaussian_binomial(L.n, d, L.field.q)
        for d in range(L.n + 1)
    )
    rep.add("element_counts_match_gaussian_binomials", counts_ok, f"size={L.size}")

    return rep
