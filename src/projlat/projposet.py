"""The projection poset of a finite subspace lattice.

Elements are ordered pairs (image, kernel) of complementary subspaces,
with (a,b) <= (c,d) iff a <= c and d <= b, and orthocomplement
(a,b)' = (b,a). Joins and meets need not exist (this is a poset, not a
lattice); absence of a bound is an answer, not an error. The idempotent
matrix acting as the identity on `image` and as zero on `kernel` gives a
second, ring-theoretic view of the same element; the two views are kept
cross-linked and cross-checked.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import or_

from .gf import GF
from .lattice import (
    FiniteOrder,
    Subspace,
    SubspaceLattice,
    _SLOT_FORMATS,
    _bits,
    _digit_bits,
    _mask_index,
    _slot_bytes,
    check_limit,
    enumerate_subspaces,
    or_lists,
    projection_pair_count,
)
from .matrices import (
    BYTE_CODES,
    Matrix,
    all_matrices,
    identity,
    is_idempotent,
    left_kernel,
    mat_inv,
    mat_mul,
    mat_sub,
    row_space,
    stack,
    transpose_code_planes,
    vector_codes,
    zeros,
)
from .reports import CampaignReport


class NotIdempotent(ValueError):
    """Raised when a projection matrix is expected but M @ M != M."""


def projector_matrix(F: GF, image: Subspace, kernel: Subspace) -> Matrix:
    """The unique idempotent fixing `image` pointwise and killing `kernel`.

    Rows of image.basis map to themselves, rows of kernel.basis to zero;
    stacking both gives an invertible system because the pair is
    complementary.
    """
    n = image.n
    c = stack(image.basis, kernel.basis)
    if len(c) != n:
        raise ValueError("image and kernel dimensions do not fill the ambient")
    d = stack(image.basis, zeros(kernel.dim, n))
    m = mat_mul(F, mat_inv(F, c), d)
    if not is_idempotent(F, m):
        raise AssertionError("constructed projector is not idempotent")
    return m


def idempotent_to_subspaces(F: GF, m: Matrix) -> tuple[Subspace, Subspace]:
    """(row space, left kernel) of an idempotent: its image and kernel."""
    if not is_idempotent(F, m):
        raise NotIdempotent(f"matrix is not idempotent: {m}")
    n = len(m)
    return (
        Subspace(F, n, row_space(F, m)),
        Subspace(F, n, left_kernel(F, m)),
    )


IDEMPOTENT_SCAN_LIMIT = 2**20


def enumerate_idempotents(F: GF, n: int) -> list[Matrix]:
    """Brute-force scan of all q^(n^2) matrices, in flat lexicographic order;
    refused above IDEMPOTENT_SCAN_LIMIT of them."""
    check_limit(F.q ** (n * n), "matrices", "scan limit", IDEMPOTENT_SCAN_LIMIT)
    return [m for m in all_matrices(F, n, n) if is_idempotent(F, m)]


# the byte of ProjectionPoset.atom_code_planes' ordinal table that names
# no atom
NO_ATOM = 255


class ProjectionPoset(FiniteOrder):
    """Indexed (image, kernel) pairs with order masks, ortho, and atom data."""

    def __init__(self, L: SubspaceLattice, pairs: list[tuple[int, int]]):
        self.lattice = L
        self.pairs = pairs
        self.size = len(pairs)
        self.image = [a for a, _ in pairs]
        self.kernel = [b for _, b in pairs]
        self.grade = [L.dims[a] for a, _ in pairs]
        rows = self.pair_rows
        self.bottom = rows[L.bottom][L.top]
        self.top = rows[L.top][L.bottom]
        self.ortho = [rows[b][a] for a, b in pairs]
        if None in (self.bottom, self.top, *self.ortho):
            raise ValueError("the pairs lack bottom, top or the swap (b, a) of some (a, b)")
        self.by_image: dict[int, list[int]] = {}
        self.by_kernel: dict[int, list[int]] = {}
        for i, (a, b) in enumerate(pairs):
            self.by_image.setdefault(a, []).append(i)
            self.by_kernel.setdefault(b, []).append(i)
        # the families classify_parity scans: images with two or more
        # complements, in by_image order
        self.image_families = [(a, g) for a, g in self.by_image.items() if len(g) > 1]
        self._build_order()

    def _build_order(self) -> None:
        """P is the product of L on images and L.dual on kernels: the up-set
        of (a, b) is the elements whose image lies in a's up-set in L and
        whose kernel lies in b's up-set in L.dual, and the down-set is the
        same product with the factors swapped. The atoms below (a, b) are
        those whose image is an atom of L below a and whose kernel an atom
        of L.dual (a hyperplane) below b there."""
        L, D = self.lattice, self.lattice.dual
        bits = [1 << i for i in range(self.size)]
        img = or_lists(bits, [self.by_image.get(c, []) for c in range(L.size)])
        ker = or_lists(bits, [self.by_kernel.get(c, []) for c in range(L.size)])
        del bits  # P-sized; freed before the order tables are built
        self.up_masks = self._product(img, ker, L.up_lists, D.up_lists)
        self.down_masks = self._product(img, ker, D.up_lists, L.up_lists)
        self.atoms = [i for i, g in enumerate(self.grade) if g == 1]
        self.atom_pairs = [self.pairs[x] for x in self.atoms]
        # the down-set product over the atoms alone, by the atom ordinals
        # of L on the image side and of L.dual on the kernel side
        self._on_point: list[list[int]] = [[] for _ in L.atoms]
        self._on_hyperplane: list[list[int]] = [[] for _ in D.atoms]
        for t, (p, h) in enumerate(self.atom_pairs):
            self._on_point[L.atom_ordinal[p]].append(t)
            self._on_hyperplane[D.atom_ordinal[h]].append(t)
        self.elem_atom_masks = self.lift_atom_masks(range(len(self.atoms)))
        self.atom_mask_index = _mask_index(self.elem_atom_masks, "atom set")

    def _product(self, img_values, ker_values, img_lists, ker_lists, pairs=None) -> list[int]:
        """The image x kernel product: entry (a, b) is the OR of img_values
        at the indices in img_lists[a], ANDed with the OR of ker_values at
        those in ker_lists[b], for each pair (a, b) of pairs, by default
        P's elements."""
        img = or_lists(img_values, img_lists)
        ker = or_lists(ker_values, ker_lists)
        return [img[a] & ker[b] for a, b in (self.pairs if pairs is None else pairs)]

    def lift_atom_masks(self, sigma, part=None) -> list[int]:
        """The atom set of every element's image under sigma, a permutation
        of the atom ordinals; with part, from lift_part(elements), of those
        elements' images only, in that order. A bijection of the atoms
        commutes with unions and intersections, so this is the atoms sigma
        sends each element's atoms to, and elem_atom_masks is the lift of
        the identity."""
        bits = [1 << y for y in sigma]
        if part is None:
            part = self.lattice.atom_lists, self.lattice.dual.atom_lists, None
        img_lists, ker_lists, pairs = part
        return self._product(
            or_lists(bits, self._on_point), or_lists(bits, self._on_hyperplane),
            img_lists, ker_lists, pairs,
        )

    def lift_part(self, elements) -> tuple:
        """What lift_atom_masks reads to lift the given elements only: the
        lists of the L-elements they name, images and kernels apart, each
        once, and each element as its pair of positions in those lists."""
        images: dict[int, int] = {}
        kernels: dict[int, int] = {}
        pairs = [
            (images.setdefault(self.image[e], len(images)),
             kernels.setdefault(self.kernel[e], len(kernels)))
            for e in elements
        ]
        on_image, on_kernel = self.lattice.atom_lists, self.lattice.dual.atom_lists
        return [on_image[a] for a in images], [on_kernel[b] for b in kernels], pairs

    @cached_property
    def pair_rows(self) -> list[list[int | None]]:
        """The (image, kernel) -> element table, one row per image:
        pair_rows[a][b] is the element (a, b), None when a and b are not
        complements. The constructor reads it for bottom, top and ortho,
        and the transports from lattice maps read it."""
        w = self.lattice.size
        rows: list[list[int | None]] = [[None] * w for _ in range(w)]
        for i, (a, b) in enumerate(self.pairs):
            rows[a][b] = i
        return rows

    # -- order -------------------------------------------------------------

    def is_graded_by_image_dim(self) -> bool:
        """Every cover step raises the image dimension by exactly 1; this is
        what lets the image dimension serve as an order-invariant height.

        Checked without listing covers, as two conditions that together
        are equivalent: nothing above i other than i has grade <= grade[i],
        and everything above i at grade >= grade[i] + 2 lies above some
        element above i at grade[i] + 1."""
        up, grade = self.up_masks, self.grade
        top_grade = max(grade)
        at_grade = [0] * (top_grade + 2)
        for i, g in enumerate(grade):
            at_grade[g] |= 1 << i
        at_most = list(accumulate(at_grade, or_))
        for i, g in enumerate(grade):
            u = up[i]
            if u & at_most[g] != 1 << i:
                return False
            far = u & ~at_most[g + 1]
            if far:
                reach = 0
                for k in _bits(u & at_grade[g + 1]):
                    reach |= up[k]
                if far & ~reach:
                    return False
        return True

    # -- matrix view -------------------------------------------------------

    @cached_property
    def idempotents(self) -> list[Matrix]:
        """The idempotent of every element, in element order. Built on
        first use, one projector_matrix per orthocomplement pair: the
        partner (b, a) of (a, b) is I - E(a, b), the projector onto b
        along a."""
        L = self.lattice
        F, els, one = L.field, L.elements, identity(L.n)
        table: list[Matrix | None] = [None] * self.size
        for i, (a, b) in enumerate(self.pairs):
            if table[i] is None:
                e = table[i] = projector_matrix(F, els[a], els[b])
                table[self.ortho[i]] = mat_sub(F, one, e)
        return table

    @cached_property
    def matrix_index(self) -> dict[Matrix, int]:
        """The element of each idempotent."""
        return {m: i for i, m in enumerate(self.idempotents)}

    @cached_property
    def code_planes(self) -> tuple[list[bytes], list[bytes]] | None:
        """The row code planes and the column code planes of the
        idempotents: plane i holds, in element order, the code
        (matrices.vector_codes) of row i, or of column i, of each. None
        when q^n exceeds BYTE_CODES, so that a code would not fit a byte."""
        L = self.lattice
        if L.field.q**L.n > BYTE_CODES:
            return None
        code = vector_codes(L.field, L.n).__getitem__
        rows = [bytes(map(code, plane)) for plane in zip(*self.idempotents)]
        return rows, transpose_code_planes(rows, L.field.q)

    @cached_property
    def column_code_index(self) -> dict[int, int]:
        """The element of each idempotent's column codes, packed by
        pack_code_planes; for P whose code_planes are not None."""
        index = dict(zip(pack_code_planes(self.code_planes[1]), range(self.size)))
        if len(index) != self.size:
            raise AssertionError("two idempotents share their column codes")
        return index

    @cached_property
    def atom_code_planes(self) -> tuple[bytes, bytes, bytes, bytes, bytes] | None:
        """What the transports from lattice maps read the atoms' images
        by, with bytes.translate: the image plane and the kernel plane of
        the atoms, as L-element bytes in atom order; the point codes and
        the hyperplane codes, tables sending L's t-th point to t (H + 1)
        and its t-th hyperplane to t, every other element to N (H + 1) and
        to H; and the atom ordinals, a table sending the code sum of each
        atom's (image, kernel) to its ordinal and every other code to
        NO_ATOM. N and H count the points and the hyperplanes, so every
        code sum is below (N + 1)(H + 1) and names one pair. None when L
        has more than BYTE_CODES elements, when (N + 1)(H + 1) does, or
        when P has NO_ATOM atoms or more, so that a byte would not hold
        an element, a code sum or an ordinal."""
        L, hyperplanes = self.lattice, self.lattice.dual.atoms
        N, H = len(L.atoms), len(hyperplanes)
        stride = H + 1
        if L.size > BYTE_CODES or (N + 1) * stride > BYTE_CODES or len(self.atoms) >= NO_ATOM:
            return None
        point_codes = [N * stride] * BYTE_CODES
        for t, p in enumerate(L.atoms):
            point_codes[p] = t * stride
        hyperplane_codes = [H] * BYTE_CODES
        for t, h in enumerate(hyperplanes):
            hyperplane_codes[h] = t
        ordinals = bytearray([NO_ATOM]) * BYTE_CODES
        for t, (p, h) in enumerate(self.atom_pairs):
            ordinals[point_codes[p] + hyperplane_codes[h]] = t
        return (
            bytes(a for a, _ in self.atom_pairs),
            bytes(b for _, b in self.atom_pairs),
            bytes(point_codes),
            bytes(hyperplane_codes),
            bytes(ordinals),
        )

    def __repr__(self) -> str:
        L = self.lattice
        return f"ProjectionPoset({L.field.spec()}^{L.n}, {self.size} elements)"


def pack_code_planes(planes: list[bytes]) -> list[int]:
    """One int per position of n byte planes, n at most 8: the planes'
    bytes at that position laid side by side in a slot of 1, 2, 4 or 8
    bytes and read by one memoryview cast. Equal keys mean equal bytes in
    every plane."""
    width = _slot_bytes(8 * len(planes))
    packed = bytearray(width * len(planes[0]))
    for j, plane in enumerate(planes):
        packed[j::width] = plane
    return memoryview(packed).cast(_SLOT_FORMATS[width]).tolist()


# the most elements build_projection_poset builds. P's up- and down-set
# tables hold up to 2 |P|^2 bits: 4 GiB at the limit, 2.6 GB at (4,4),
# the largest P it admits (102 274 elements), and 276 GB at (6,2)
POSET_ELEMENT_LIMIT = 2**17


def build_projection_poset(L: SubspaceLattice) -> ProjectionPoset:
    """All complementary pairs (a, b) of L that are also a modular pair and
    a dual-modular pair, (a,b)M and (a,b)M*: each pair is re-checked by the
    modular-pair predicate of L and of L.dual rather than trusting
    modularity. For complements each walks all of down(b) or up(b), one
    lookup per element. A P of more than POSET_ELEMENT_LIMIT elements,
    counted in closed form, is refused before any pair is tested."""
    expected = projection_pair_count(L.n, L.field.q)
    check_limit(expected, "projections", "poset element limit", POSET_ELEMENT_LIMIT)
    pairs = [
        (a, b)
        for a in range(L.size)
        for b in L.complements_idx(a)
        if L.is_modular_pair_idx(a, b) and L.dual.is_modular_pair_idx(a, b)
    ]
    if len(pairs) != expected:
        raise AssertionError(
            f"pair filter kept {len(pairs)} elements, expected {expected}"
        )
    return ProjectionPoset(L, pairs)


def verify_omp_axioms(P: ProjectionPoset) -> CampaignReport:
    """Exhaustive check of the orthomodular-poset axioms on P."""
    L = P.lattice
    rep = CampaignReport("omp-axioms", (L.n, L.field.spec()), size=P.size)
    size = P.size
    up, down, ortho = P.up_masks, P.down_masks, P.ortho

    full = (1 << size) - 1
    rep.add(
        "bounded",
        up[P.bottom] == full and down[P.top] == full,
        f"bottom={P.pairs[P.bottom]}, top={P.pairs[P.top]}",
    )

    invol_bad = [i for i in range(size) if ortho[ortho[i]] != i]
    rep.add_violations("ortho_is_involution", invol_bad)

    lub = P.lub_idx
    bad_meet = [
        i
        for i in range(size)
        if P.glb_idx(i, ortho[i]) != P.bottom or lub(i, ortho[i]) != P.top
    ]

    # one walk over the comparable pairs i <= k, lowest k first, serves three
    # checks: ortho reverses order (k' <= i'); orthogonal joins, p <= q'
    # implies p v q exists, for p = i and q = k' (ortho is its own inverse,
    # checked above), each unordered pair once at q >= p, the violations
    # sorted into (p, q) order; and the orthomodular law, k = i v (k ^ i'):
    # m = k ^ i' is one lookup, and i v m is k exactly when the common upper
    # bounds of i and m are k's up-set (no two elements share one: building
    # the table behind lub, first used for complementation, checks that)
    down_index = P.down_mask_index
    rev_bad, no_join, om_bad = [], [], []
    for i in range(size):
        oi = ortho[i]
        up_i, down_oi = up[i], down[oi]
        for k in _digit_bits(up_i):
            ok = ortho[k]
            if not (up[ok] >> oi & 1):
                rev_bad.append((i, k))
            if ok >= i and lub(i, ok) is None:
                no_join.append((i, ok))
            m = down_index.get(down[k] & down_oi)
            if m is None or up_i & up[m] != up[k]:
                om_bad.append((i, k))
    no_join.sort()
    rep.add_violations("ortho_reverses_order", rev_bad)
    rep.add_violations("complementation", bad_meet, "p ^ p' = 0, p v p' = 1 for all p")
    rep.add_violations("orthogonal_joins_exist", no_join, "all orthogonal pairs")
    rep.add_violations("orthomodular_law", om_bad, "all comparable pairs")

    return rep


def verify_projection_correspondence(n: int, F: GF) -> CampaignReport:
    """The pair <-> idempotent dictionary is a bijective order isomorphism.

    Matrix order is p <= q iff pq = qp = p; ortho corresponds to
    complementation at the matrix level, m -> 1 - m. Both sides are
    enumerated independently (pairs from the lattice, idempotents by brute
    force) before being matched.
    """
    L = enumerate_subspaces(n, F)
    brute = enumerate_idempotents(F, n)  # its scan limit refuses before P is built
    P = build_projection_poset(L)
    rep = CampaignReport("projection-correspondence", (n, F.spec()), size=P.size)
    rep.add(
        "idempotent_count_matches",
        len(brute) == P.size,
        f"brute={len(brute)}, pairs={P.size}",
    )

    # each projector computed anew, not read from P.idempotents, so the
    # ortho check below compares two computations of every partner
    els = L.elements
    constructed = [projector_matrix(F, els[a], els[b]) for a, b in P.pairs]
    rep.add(
        "bijection_onto_idempotents",
        set(constructed) == set(brute) and len(set(constructed)) == P.size,
        "matrix sets equal",
    )

    rt_bad = []
    for i in range(P.size):
        img, ker = idempotent_to_subspaces(F, constructed[i])
        if (L.index[img], L.index[ker]) != P.pairs[i]:
            rt_bad.append(i)
    rep.add_violations("round_trip_pairs", rt_bad)

    order_bad = []
    for i in range(P.size):
        mi = constructed[i]
        for j in range(P.size):
            mj = constructed[j]
            mat_leq = mat_mul(F, mi, mj) == mi and mat_mul(F, mj, mi) == mi
            if mat_leq != P.leq_idx(i, j):
                order_bad.append((i, j))
    rep.add_violations("order_isomorphism", order_bad)

    one = identity(n)
    ortho_bad = [
        i
        for i in range(P.size)
        if constructed[P.ortho[i]] != mat_sub(F, one, constructed[i])
    ]
    rep.add_violations("ortho_is_one_minus_p", ortho_bad)

    return rep
