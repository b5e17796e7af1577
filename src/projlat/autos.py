"""Exhaustive automorphism machinery for subspace lattices and projection
posets.

Both searches run one backtracking core on atom images, _atom_search; each
supplies only its initial candidates, its narrowing step and its leaf lift.
Atoms determine everything here: in both structures the order is
atom-set inclusion and the atoms cover bottom (proved per instance before
a search structure is built, not assumed), so a candidate atom
permutation lifts through an atom-mask dictionary and the lift is
verified outright at every leaf. Constraint propagation uses only
order-definable (and, for posets, ortho-definable) invariants, so no
genuine automorphism can ever be pruned; spurious leaves die at
verification. That split keeps the search honest: pruning is a
performance device, never a correctness assumption.

Parity machinery: an automorphism of the projection poset is even when
projections sharing an image keep sharing an image, odd when they end up
sharing a kernel. Even maps come from lattice automorphisms acting
componentwise, odd ones from anti-automorphisms acting with the components
swapped, and the decomposition recovers those witnesses exactly.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from array import array
from operator import itemgetter

from .gf import GF, parse_field
from .lattice import (
    _SLOT_FORMATS,
    SubspaceLattice,
    _bits,
    _slot_bytes,
    check_limit,
    enumerate_subspaces,
    gaussian_binomial,
)
from .maps import (
    ANTI,
    AUTO,
    EVEN,
    ODD,
    UNKNOWN,
    LatticeMap,
    PosetMap,
    identity_perm,
    is_permutation,
    perm_compose,
    perm_inverse,
)
from .matrices import BYTE_CODES, identity, vec_mat
from .projposet import NO_ATOM, ProjectionPoset, build_projection_poset
from .reports import CampaignReport, canonical_json, sha256_of
from .semilinear import MatchFailure, match_semilinear, standard_duality, verify_lattice_map


class SearchBudgetExceeded(RuntimeError):
    """Node budget ran out; carries progress telemetry."""

    def __init__(self, nodes: int, found: int):
        super().__init__(f"search budget exhausted after {nodes} nodes, {found} maps found")
        self.nodes = nodes
        self.found = found


class FalsificationError(AssertionError):
    """A structural claim failed on concrete data; payload reproduces it."""

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}


def _require_atomistic(S) -> None:
    """Refuse S, a lattice or a projection poset, unless its order is
    inclusion of its stored atom sets (S.atomistic, kept once per
    structure): every lift through atom sets rests on that. Refuse a poset
    also unless its ortho is a fixed-point-free involution reversing its
    order, and keep its elements split by ortho (_split_by_ortho), which
    the leaf reads: the leaf looks up one member of each ortho pair only,
    and that rests on this. The split is made only once that proof has
    passed, so it is the proof's one record, and a poset that has it is
    not proved again."""
    if not S.atomistic:
        raise FalsificationError(f"{S!r} is not atomistic; atom lifts unsound")
    if isinstance(S, ProjectionPoset) and not hasattr(S, "_ortho_split"):
        if not _ortho_reverses_order(S):
            raise FalsificationError(
                f"{S!r}'s orthocomplement is not a fixed-point-free involution "
                "reversing its order"
            )
        S._ortho_split = _split_by_ortho(S)


def _ortho_reverses_order(P: ProjectionPoset) -> bool:
    """Whether P's ortho is a fixed-point-free involution that reverses
    P's order, given that the order is inclusion of the stored atom sets
    A(e). With B(t) = A(ortho(x_t)) for the atom x_t, it checks that
    A(ortho(e)) is the AND of B(t) over the t in A(e), for every e: the
    atoms below ortho(e) are those below ortho(x_t) for every atom x_t
    below e. That AND can only shrink as A(e) grows, so i <= j gives
    ortho(j) <= ortho(i), and, ortho being an involution, ortho(j) <=
    ortho(i) gives i <= j. Conversely, an ortho that reverses the order
    sends e, the join of its atoms, to the meet of their
    orthocomplements, whose atoms are that AND (Davey & Priestley,
    Introduction to Lattices and Order, 2002, ch. 2): every genuine P
    passes. One AND of atom-set ints per atom-element incidence."""
    ortho, stored = P.ortho, P.elem_atom_masks
    if any(i == o for i, o in enumerate(ortho)):
        return False
    if list(map(ortho.__getitem__, ortho)) != list(range(P.size)):
        return False
    meets = [stored[ortho[x]] for x in P.atoms]
    everything = (1 << len(meets)) - 1
    for mask, o in zip(stored, ortho):
        meet = everything
        while mask:
            low = mask & -mask
            meet &= meets[low.bit_length() - 1]
            mask ^= low
        if meet != stored[o]:
            return False
    return True


def _split_by_ortho(P: ProjectionPoset) -> tuple:
    """P's elements split for the leaf, given that ortho is a
    fixed-point-free involution: bottom and top, the atoms, their
    orthocomplements (the coatoms), and the other elements as ortho pairs
    (e, ortho[e]) with e < ortho[e], e the pair's representative. Returns
    the coatoms, lift_part over the coatoms then the representatives, the
    coatoms' atom sets B(t) = A(ortho x_t), the representatives, and the
    gather that reads the element permutation, in element order, off the
    images of bottom, top, the atoms, the coatoms, the representatives
    and their partners listed in that order. At n <= 2 the categories
    overlap (at n = 1 the one atom is top, at n = 2 the coatoms are
    atoms); the gather reads each element's first place."""
    ortho = P.ortho
    coatoms = [ortho[x] for x in P.atoms]
    placed = {P.bottom, P.top, *P.atoms, *coatoms}
    reps = [e for e in range(P.size) if e not in placed and e < ortho[e]]
    order = [P.bottom, P.top, *P.atoms, *coatoms, *reps, *map(ortho.__getitem__, reps)]
    first: dict[int, int] = {}
    for k, e in enumerate(order):
        first.setdefault(e, k)
    gather = itemgetter(*map(first.__getitem__, range(P.size)))
    coatom_sets = list(map(P.elem_atom_masks.__getitem__, coatoms))
    return coatoms, P.lift_part(coatoms + reps), coatom_sets, reps, gather


# ---------------------------------------------------------------------------
# the atom search, shared by the lattice and the poset
# ---------------------------------------------------------------------------


def _search_plan(init_cand: list[int]) -> tuple[int, list[int]]:
    """The atom the search branches on first, the one with the fewest
    initial candidates (lowest ordinal on ties), and its candidates."""
    pivot = min(range(len(init_cand)), key=lambda z: (init_cand[z].bit_count(), z))
    return pivot, _bits(init_cand[pivot])


def _settle(new_cands, opened, forced, images):
    """The open atoms opened after a narrowing gave them the candidate
    masks new_cands: None when some atom has no candidate left; otherwise
    the atoms left with one are appended to forced, their images to
    images, and the others come back as (opened, cands, counts), still in
    ascending order.

    Most narrowings leave every open atom with two candidates or more: a
    (4,2) poset branch forces a new atom in 966 of its 5 475. Then the
    counts, taken in one map, show it, and the state comes back as it
    is: opened itself, new_cands and the counts. Nothing mutates opened
    or a candidate list in place, so siblings may share them."""
    counts = list(map(int.bit_count, new_cands))
    if min(counts, default=2) > 1:
        return opened, new_cands, counts
    if 0 in counts:
        return None
    still_open, open_cands, open_counts = [], [], []
    for z, nc, k in zip(opened, new_cands, counts):
        if k > 1:
            still_open.append(z)
            open_cands.append(nc)
            open_counts.append(k)
        else:
            forced.append(z)
            images.append(nc.bit_length() - 1)
    return still_open, open_cands, open_counts


def _atom_search(init_cand, narrow, lift, budget, restrict_first, stats):
    """Backtracking on atom images, yielding (atom_perm, lift(atom_perm))
    for every forced permutation whose lift is not None.

    init_cand[z] masks the possible images of atom z. An unassigned atom
    is forced when one candidate is left and open when more are; the
    search keeps the forced atoms with their images (forced, images)
    apart from the open ones, which it holds in ascending order with
    their candidate masks and counts (opened, cands, counts). Each node
    sends the forced atom of lowest ordinal to its image; when none is
    forced, the node branches on every candidate y of the open atom x with
    the fewest candidates (lowest ordinal on ties), each child on its own
    copy of the state. A run of forced steps has one child per node, so
    it updates the state in place.

    A node refuses y when a forced atom already has it as its image, and
    otherwise calls narrow(x, y, assigned, forced, images) with
    assigned[x] == y and x in neither list. The narrowing checks every
    forced atom exactly against the new assignment and returns (ids,
    masks), or None when a forced atom conflicts; every open atom z then
    keeps the candidates in masks[ids[z]]. Once no atom is open, the
    forced images complete the permutation and lift verifies it outright.
    restrict_first limits the initial candidates of the pivot of
    _search_plan, so it limits the images of the first atom the search
    sends. stats, when given, gets the nodes visited and the maps found
    however the walk ends: at its end, on a budget stop or on a close."""
    m = len(init_cand)
    nodes = 0
    found = 0

    def node(x, y, assigned, opened, cands, forced, images):
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExceeded(nodes, found)
        if y in images:
            return None
        assigned[x] = y
        narrowed = narrow(x, y, assigned, forced, images)
        if narrowed is None:
            return None
        ids, masks = narrowed
        return _settle(
            [nc & masks[ids[z]] for z, nc in zip(opened, cands)], opened, forced, images
        )

    def rec(assigned, opened, cands, counts, forced, images):
        nonlocal found
        while opened:
            if forced:
                x = min(forced)
                i = forced.index(x)
                y = images.pop(i)
                del forced[i]
                state = node(x, y, assigned, opened, cands, forced, images)
                if state is None:
                    return
                opened, cands, counts = state
                continue
            i = counts.index(min(counts))
            x = opened[i]
            opts = cands[i]
            opened = opened[:i] + opened[i + 1 :]
            cands = cands[:i] + cands[i + 1 :]
            for y in _bits(opts):
                child, forced, images = assigned.copy(), [], []
                state = node(x, y, child, opened, cands, forced, images)
                if state is not None:
                    yield from rec(child, *state, forced, images)
            return
        # no atom is open: the forced images complete the permutation; the
        # check below rejects target collisions, the lift everything else
        for z, y in zip(forced, images):
            assigned[z] = y
        perm = tuple(assigned)
        if not is_permutation(perm):
            return
        eperm = lift(perm)
        if eperm is not None:
            found += 1
            yield perm, eperm

    cands = list(init_cand)
    if restrict_first is not None:
        cands[_search_plan(init_cand)[0]] &= sum(1 << y for y in set(restrict_first))
    forced, images = [], []
    state = _settle(cands, list(range(m)), forced, images)
    try:
        if state is not None:
            yield from rec([None] * m, *state, forced, images)
    finally:
        if stats is not None:
            stats["nodes"] = nodes
            stats["found"] = found


# ---------------------------------------------------------------------------
# lattice automorphism search
# ---------------------------------------------------------------------------


def _lattice_search_structure(L: SubspaceLattice):
    """Per-lattice pruning data for the collinearity-constrained atom
    search, built once L has passed the atomisticity guard."""
    cached = getattr(L, "_auto_search_cache", None)
    if cached is not None:
        return cached
    _require_atomistic(L)
    atoms = L.atoms
    m = len(atoms)
    # join lines at the atom level: line_mask[i][j] = atoms under atom_i v atom_j
    line_mask = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                line_elem = L.lub_idx(atoms[i], atoms[j])
                line_mask[i][j] = L.elem_atom_masks[line_elem]
    cached = ([(1 << m) - 1] * m, line_mask)
    L._auto_search_cache = cached
    return cached


def lattice_search_plan(L: SubspaceLattice) -> tuple[int, list[int]]:
    """Deterministic root branching: (pivot atom ordinal, target ordinals),
    the search's own first branching. Used to partition long searches for
    checkpointing and worker pools. A lattice that is not atomistic is
    refused here, before any search."""
    return _search_plan(_lattice_search_structure(L)[0])


def iter_lattice_atom_perms(
    L: SubspaceLattice,
    budget: int | None = None,
    restrict_first: set[int] | None = None,
    stats: dict | None = None,
):
    """All atom permutations extending to lattice automorphisms, with their
    full element permutations: yields (atom_perm, element_perm) pairs.

    Constraint: three atoms under a common rank-2 element must map to atoms
    under a common rank-2 element (and non-incident triples must stay
    non-incident), propagated along the lines through each atom sent.
    """
    init_cand, line_mask = _lattice_search_structure(L)

    # line_id[x][z] numbers the line x v z among the lines through x;
    # line_mask[x][x] is 0, and its id is never read
    line_id = []
    for row in line_mask:
        ids = {}
        line_id.append([ids.setdefault(lm, len(ids)) for lm in row])
    n_lines = max(map(max, line_id)) + 1

    def narrow(x, y, assigned, forced, images):
        # one mask per line through x: a line through an assigned x2 maps
        # into the line y v y2, any other line off y and every such image
        # line. Earlier narrowings made every assigned triple collinear
        # exactly when its images are, so all assigned atoms on one line
        # through x name one image line, and two image lines meet only in
        # y: these masks are exactly the AND of one on-or-off rule per
        # earlier assignment
        ids, lm_y = line_id[x], line_mask[y]
        lines = [0] * n_lines
        used = 1 << y
        for x2, y2 in enumerate(assigned):
            if y2 is not None and x2 != x:
                lines[ids[x2]] = lm = lm_y[y2]
                used |= lm
        not_y, off = ~(1 << y), ~used
        masks = [lm & not_y if lm else off for lm in lines]
        for z, w in zip(forced, images):
            if not masks[ids[z]] >> w & 1:
                return None
        return ids, masks

    yield from _atom_search(init_cand, narrow, L.lift_atom_perm, budget, restrict_first, stats)


# the most maps a full lattice search or the semilinear oracle may hold,
# and the most atoms a full poset search accepts
SEMILINEAR_LIMIT = 2**20
MAX_POSET_SEARCH_ATOMS = 150
# the most entries the constructed side holds: a P-atom image for every
# atom of the even and of the odd map of every lattice automorphism. It
# admits (4,2) (4 838 400) and (3,4) (81 285 120); (3,5) (576 600 000)
# ran out of memory at 2.4 GB before this limit refused it
CONSTRUCTED_ENTRY_LIMIT = 2**27


def _poset_atom_count(n: int, q: int) -> int:
    """P-atoms of P(GF(q)^n): a point p with one of the q^(n-1)
    hyperplanes off p."""
    return gaussian_binomial(n, 1, q) * q ** (n - 1)


def _check_poset_search_bound(n: int, F: GF) -> None:
    """Refuse a full search of P(F^n) with more than MAX_POSET_SEARCH_ATOMS
    atoms, counted in closed form, so before L is built."""
    atoms = _poset_atom_count(n, F.q)
    check_limit(atoms, "atoms", "search bound", MAX_POSET_SEARCH_ATOMS)


def _check_constructed_side_bound(n: int, F: GF) -> None:
    """Refuse a constructed side of P(F^n) of more than
    CONSTRUCTED_ENTRY_LIMIT entries, counted in closed form, so before L
    is built: two P-atom permutations, even and odd, per lattice
    automorphism, |PGammaL(n, q)| of them from n = 3 up."""
    maps = expected_lattice_automorphism_count(n, F.q, F.k)
    entries = 2 * maps * _poset_atom_count(n, F.q)
    check_limit(entries, "constructed entries", "constructed-side limit", CONSTRUCTED_ENTRY_LIMIT)


def _check_lattice_search_bound(n: int, F: GF) -> None:
    """Refuse a full search of the subspace lattice of F^n that would find
    more than SEMILINEAR_LIMIT maps, counted in closed form from (n, q, k)
    alone, so before L is built. The oracle holds |PGammaL(n, q)| <=
    |Aut L| maps, so it never refuses an ambient admitted here."""
    count = expected_lattice_automorphism_count(n, F.q, F.k)
    check_limit(count, "lattice automorphisms", "search bound", SEMILINEAR_LIMIT)


def enumerate_lattice_automorphisms(
    L: SubspaceLattice, budget: int | None = None
) -> list[LatticeMap]:
    """All order-automorphisms of L, sorted by their permutation; every
    one was lifted and verified at its search leaf."""
    _check_lattice_search_bound(L.n, L.field)
    maps = [
        LatticeMap(eperm, AUTO) for _, eperm in iter_lattice_atom_perms(L, budget=budget)
    ]
    maps.sort(key=lambda f: f.perm)
    return maps


def semilinear_atom_perms(L: SubspaceLattice) -> set[bytes]:
    """Independent generation of lattice automorphisms: the action on atoms
    of PGammaL(n, q), every invertible matrix with every twist; used to
    cross-check the backtracking search.

    The group is the closure of at most four generators' atom actions: the
    cyclic permutation matrix, I + e_01 (n > 1), diag(omega, 1, ..., 1)
    with omega primitive (q > 2) and the Frobenius (k > 1). Conjugates of
    the transvection I + e_01 give every elementary transvection, hence
    SL(n, q), and the diagonal adds every determinant. A matrix acts on row
    vectors; each image is looked up in L's point table, scaled to lead
    with 1, so nothing is row-reduced. The result has |PGammaL(n, q)|
    maps, so ambients where that order exceeds SEMILINEAR_LIMIT are refused.
    """
    F = L.field
    n, q = L.n, F.q
    order = projective_group_order(n, q, F.k)
    check_limit(order, "semilinear maps", "generation limit", SEMILINEAR_LIMIT)
    atom_vecs = [L.atom_vector(a) for a in L.atoms]
    ordinal, point_of = L.atom_ordinal, L.point_of

    def atom_action(image) -> bytes:
        perm = [ordinal[point_of(image(v))] for v in atom_vecs]
        if not is_permutation(perm):
            raise FalsificationError("a semilinear generator does not permute the atoms")
        return bytes(perm)

    eye = identity(n)
    mats = [eye[1:] + eye[:1]]
    if n > 1:
        mats.append(((1, 1) + eye[0][2:],) + eye[1:])
    if q > 2:
        omega = next(a for a in range(2, q) if len({F.power(a, e) for e in range(q - 1)}) == q - 1)
        mats.append(((omega,) + eye[0][1:],) + eye[1:])
    gens = [atom_action(lambda v, m=m: vec_mat(F, v, m)) for m in mats]
    if F.k > 1:
        gens.append(atom_action(F.automorphisms()[1].on_vector))
    return generated_group(gens, bytes(range(len(atom_vecs))), None)


def generated_group(gens, ident, within: dict | None) -> set | None:
    """The group that the permutations gens generate, by breadth-first
    products from the identity permutation ident (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005, section 4.1); a finite
    group needs no inverses. Products take the type of ident, tuple or
    bytes. With within, a dict whose keys are the allowed permutations,
    each product is stored as within's own key, so no permutation is
    copied, and the result is None at the first product outside within."""
    make = type(ident)
    group, frontier = {ident}, [ident]
    while frontier:
        grown = []
        for g in frontier:
            for s in gens:
                h = make([g[x] for x in s])
                if h in group:
                    continue
                if within is not None:
                    h = within.get(h)
                    if h is None:
                        return None
                group.add(h)
                grown.append(h)
        frontier = grown
    return group


def check_semilinear_generation(rep, L: SubspaceLattice, keys, name, detail) -> None:
    """Add the check `name` to rep: semilinear_atom_perms(L) equals the
    searched atom permutations keys, as bytes, for n >= 3, and lies among
    them for n <= 2, where every atom permutation extends; detail is
    formatted with that set's size."""
    semi = semilinear_atom_perms(L)
    rep.add(name, semi == keys if L.n >= 3 else semi <= keys, detail.format(len(semi)))


def projective_group_order(n: int, q: int, k: int) -> int:
    """|PGammaL(n, q)|: invertible matrices modulo scalars, times the field
    automorphism count. Equals the lattice automorphism count for n >= 3."""
    gl = 1
    for i in range(n):
        gl *= q**n - q**i
    return gl // (q - 1) * k


def expected_lattice_automorphism_count(n: int, q: int, k: int) -> int:
    """n >= 3: the projective semilinear group order. n <= 2: every atom
    permutation extends (the atoms are the one element below the top, or
    an antichain under it), so (number of atoms)! maps."""
    if n <= 2:
        return math.factorial((q**n - 1) // (q - 1))
    return projective_group_order(n, q, k)


# ---------------------------------------------------------------------------
# projection poset automorphism search
# ---------------------------------------------------------------------------


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@functools.cache
def _byte_equal_table(b: int) -> bytes:
    """The bytes.translate table sending byte b to b"1" and every other
    byte to b"0"."""
    return bytes(49 if v == b else 48 for v in range(256))


def _row_lanes(raw: bytes, m: int, nbytes: int, i: int, ids: dict) -> list[tuple[int, int]]:
    """The colors of row i and their lanes, in order of first sight: raw
    is the row's m key slots of nbytes bytes, written high slot first and
    each slot high byte first, so byte b of slot j sits at raw[b::nbytes]
    position m - 1 - j. The lane of a key is bytes.translate of those
    strided bytes against the key's byte, ANDed over the bytes of a wider
    slot: b"1" where the slot holds the key. Read as a binary numeral it
    has bit j for slot j, and with bit i cleared it is the mask of the
    atoms j != i whose key it is. A new key takes the next id in ids.

    The first slot off the diagonal that no lane covers yet holds the next
    key of the row, so the row costs one lane per key it holds, and its
    keys are met in order of their first slot: ids stay dense in order of
    first sight over the pairs, row by row."""
    full = (1 << m) - 1
    covered = 1 << i
    found = []
    while covered != full:
        j = (~covered & (covered + 1)).bit_length() - 1
        at = (m - 1 - j) * nbytes
        key = raw[at : at + nbytes]
        lane = full ^ (1 << i)
        for b, byte in enumerate(key):
            lane &= int(raw[b::nbytes].translate(_byte_equal_table(byte)), 2)
        covered |= lane
        found.append((ids.setdefault(key, len(ids)), lane))
    return found


def _id_row(found: list[tuple[int, int]], m: int, width: int):
    """The color-id row Σ c·lane_c over the (color, lane) pairs of one
    row, stored packed: bytes when ids take one byte, else an array of
    the id width. Each lane is spread to one slot of width bytes per atom,
    its ASCII digits written into the low byte of each slot of b"0"s; the
    lanes are disjoint and miss the diagonal, so no slot carries and the
    diagonal holds 0."""
    zeros = b"0" * (m * width)
    base = int.from_bytes(zeros, "big")
    total = 0
    for c, lane in found:
        if c:
            spread = bytearray(zeros)
            spread[width - 1 :: width] = format(lane, f"0{m}b").encode()
            total += c * (int.from_bytes(spread, "big") - base)
    row = total.to_bytes(m * width, "little")
    if width == 1:
        return row
    packed = array(_SLOT_FORMATS[width])
    packed.frombytes(row)
    if sys.byteorder == "big":
        packed.byteswap()
    return packed


def _poset_search_structure(P: ProjectionPoset):
    """Atom pair invariants for pruning. Both are definable from the order
    and the orthocomplementation alone, so the constraints hold for every
    orthoposet automorphism, even and odd alike. The search permutes P's
    atoms, so P must first pass the atomisticity guard, which also proves
    them to be the elements covering bottom.

    The color of the ordered atom pair (x_i, x_j), o_j being the
    orthocomplement of x_j, is its key: how many elements lie above both
    x_i and x_j, and whether x_i <= o_j. Keys are built packed, SIMD
    within a register: row i is one int with a slot of 1, 2, 4 or 8 bytes
    per atom j, and slot j holds the key of (i, j), the count in the low
    bits, as many as the largest atom up-set needs, and the flag above
    them. The count is a sum over the elements e, so one pass over the
    elements adds e's column, a 1 in the slot of every atom below e and,
    when e = o_j, the flag of slot j, to the row of every atom below e; no
    Python code runs per atom pair.

    Colors are read off the packed rows with byte kernels, again with no
    Python code per pair: _row_lanes gives each row's colors, dense in
    order of first sight, with their lanes, allowed[y][c] being the lane
    of c in row y; _id_row stores the row of color ids packed, as bytes,
    or as an array when ids need more than one byte. The search reads
    colors by rows only. Each orientation of a pair is an invariant by
    itself, and on an orthoposet the key is symmetric anyway (x_i <= o_j
    exactly when x_j <= o_i)."""
    cached = getattr(P, "_auto_search_cache", None)
    if cached is not None:
        return cached
    _require_atomistic(P)
    atoms, up = P.atoms, P.up_masks
    m = len(atoms)
    ortho_a = [P.ortho[x] for x in atoms]
    # a count is largest on the diagonal, |up(x_i)|
    flag_at = max(up[x].bit_count() for x in atoms).bit_length()
    nbytes = _slot_bytes(flag_at + 1)
    flags = {o: 1 << (8 * nbytes * j + flag_at) for j, o in enumerate(ortho_a)}
    rows = [0] * m
    for e, mask in enumerate(P.elem_atom_masks):
        if not mask:
            continue
        # byte t of below is 1 when x_t <= e
        below = format(mask, f"0{m}b").encode().translate(_BIT_BYTES)[::-1]
        slots = bytearray(m * nbytes)
        slots[::nbytes] = below
        column = int.from_bytes(slots, "little") | flags.get(e, 0)
        t = below.find(1)
        while t >= 0:
            rows[t] += column
            t = below.find(1, t + 1)

    # each row's colors and lanes, the row dropped once read; then the
    # packed color-id rows, whose width only the last row settles, and
    # allowed[y][c], the lane of color c in row y, 0 where row y lacks c
    ids: dict[bytes, int] = {}
    lanes = []
    for i in range(m):
        lanes.append(_row_lanes(rows[i].to_bytes(m * nbytes, "big"), m, nbytes, i, ids))
        rows[i] = None
    n_colors = len(ids)
    width = _slot_bytes((n_colors - 1).bit_length())
    colors, allowed = [], []
    for found in lanes:
        colors.append(_id_row(found, m, width))
        masks = [0] * n_colors
        for c, lane in found:
            masks[c] = lane
        allowed.append(masks)
    # each atom's initial candidates: the atoms with as many elements above
    # them, and above them and their orthocomplements, as it has
    unary = [(up[x].bit_count(), (up[x] & up[o]).bit_count()) for x, o in zip(atoms, ortho_a)]
    unary_masks: dict[tuple[int, int], int] = {}
    for t, u in enumerate(unary):
        unary_masks[u] = unary_masks.get(u, 0) | (1 << t)
    init_cand = [unary_masks[u] for u in unary]
    cached = (init_cand, colors, allowed)
    P._auto_search_cache = cached
    return cached


def poset_search_plan(P: ProjectionPoset) -> tuple[int, list[int]]:
    """Deterministic root branching for checkpoint/worker partitioning:
    the pivot the search itself will pick first, and its candidate list.
    A poset that is not atomistic is refused here, before any search."""
    return _search_plan(_poset_search_structure(P)[0])


def _lift_poset_atom_perm(P: ProjectionPoset, sigma) -> tuple[int, ...] | None:
    """The lift of sigma, a permutation of P's atom ordinals, to all
    elements; None if some image atom set belongs to no element or the
    lift does not commute with the orthocomplementation. Only the coatoms'
    and the representatives' image atom sets are built (_split_by_ortho),
    and only the representatives' are looked up.

    Atoms, bottom and top need no lift: sigma sends {t} to {sigma(t)},
    the empty set and the full set to themselves. The coatom ortho(x_t)
    must go to ortho(x_sigma(t)) for the lift to commute with ortho on
    the atoms, which holds exactly when sigma B(t) = B(sigma(t)); one int
    compare per coatom, which is also the coatom's lookup. A
    representative e goes to the element f whose atom set is sigma A(e),
    and its partner ortho(e) to ortho(f), with no lookup, by the identity
    the guard proved: A(ortho e) is the AND of B(t) over t in A(e). A
    permutation of the atoms preserves ANDs, so once sigma B(t) =
    B(sigma t) for every t, sigma A(ortho e) = AND over t in A(e) of
    B(sigma t) = AND over s in A(f) of B(s) = A(ortho f). So every
    element's image atom set is found, the lift commutes with ortho
    everywhere, and it equals the lift that looks up every element. A partner's own image set is never read:
    a P whose index missed a partner's set would still be lifted, which
    is intended, since the guard proved that set to be A(ortho f)."""
    _require_atomistic(P)
    coatoms, part, coatom_sets, _, gather = P._ortho_split
    m = len(coatoms)
    masks = P.lift_atom_masks(sigma, part)
    if masks[:m] != list(map(coatom_sets.__getitem__, sigma)):
        return None
    found = list(map(P.atom_mask_index.get, masks[m:]))
    if None in found:
        return None
    return gather([
        P.bottom, P.top, *map(P.atoms.__getitem__, sigma), *map(coatoms.__getitem__, sigma),
        *found, *map(P.ortho.__getitem__, found),
    ])


def expand_poset_atom_perm(P: ProjectionPoset, perm: tuple[int, ...]):
    """The poset search leaf: _lift_poset_atom_perm, under the module name
    the leaf looks up at call time, so a wrapper installed on that name
    sees every leaf and nothing else. perm must be a permutation of the
    atom ordinals; at a leaf, the search core's is_permutation test has
    made sure of it."""
    return _lift_poset_atom_perm(P, perm)


def iter_poset_atom_perms(
    P: ProjectionPoset,
    budget: int | None = None,
    restrict_first: set[int] | None = None,
    stats: dict | None = None,
):
    """All atom permutations extending to orthoposet automorphisms of P,
    yielding (atom_perm, element_perm) pairs in deterministic order."""
    init_cand, packed, allowed = _poset_search_structure(P)
    # the narrowing reads the color rows one atom at a time, which list
    # rows serve faster than packed ones: unpack them for this search
    colors = list(map(list, packed))

    def narrow(x, y, assigned, forced, images):
        # z keeps the candidates w with colors[y][w] == colors[x][z], and
        # allowed[y] holds no mask with y in it; for a forced z that is
        # one check on its image w
        row_x = colors[x]
        if forced and list(map(row_x.__getitem__, forced)) != list(
            map(colors[y].__getitem__, images)
        ):
            return None
        return row_x, allowed[y]

    # the leaf looks expand_poset_atom_perm up at call time, so a wrapper
    # installed on the module name sees every leaf
    yield from _atom_search(
        init_cand, narrow, lambda perm: expand_poset_atom_perm(P, perm),
        budget, restrict_first, stats,
    )


def enumerate_poset_automorphisms(
    P: ProjectionPoset, budget: int | None = None
) -> list[PosetMap]:
    """All order-automorphisms of P commuting with the orthocomplementation,
    sorted by permutation. Parity tags are left unknown; classify_parity is
    a separate, falsifiable step."""
    _check_poset_search_bound(P.lattice.n, P.lattice.field)
    out = [
        PosetMap(eperm, UNKNOWN)
        for _, eperm in iter_poset_atom_perms(P, budget=budget)
    ]
    out.sort(key=lambda f: f.perm)
    return out


# ---------------------------------------------------------------------------
# even/odd construction, classification, decomposition
# ---------------------------------------------------------------------------


def verify_poset_map(phi, P: ProjectionPoset) -> None:
    """Full orthoposet-automorphism verification, of a PosetMap or of a
    bare permutation: its atom images, as atom ordinals sigma, must be a
    permutation of the atoms, and the map must be exactly the lift of
    sigma, which _lift_poset_atom_perm checks for the orthocomplementation.
    On failure the payload is sigma, None marking an atom sent to a
    non-atom."""
    perm = tuple(phi.perm if isinstance(phi, PosetMap) else phi)
    if len(perm) != P.size:
        raise ValueError("permutation size does not match the poset")
    sigma = tuple(map(P.atom_ordinal.get, map(perm.__getitem__, P.atoms)))
    if not is_permutation(sigma) or _lift_poset_atom_perm(P, sigma) != perm:
        raise FalsificationError(
            "map is not the orthoposet automorphism its atom images induce",
            {"atom_perm": sigma},
        )


def _transport(P: ProjectionPoset, lattice_perm, odd: bool, what: str) -> tuple[int, ...]:
    """The poset permutation induced by a lattice map: (a, b) -> (f(a), f(b))
    for an automorphism, (g(b), g(a)) for an anti-automorphism. Raises with
    the first pair, in element order, whose image leaves the poset."""
    rows, lp = P.pair_rows, lattice_perm
    if len(lp) != P.lattice.size:
        raise ValueError("lattice map size does not match the poset's lattice")
    if odd:
        perm = [rows[lp[b]][lp[a]] for a, b in P.pairs]
    else:
        perm = [rows[lp[a]][lp[b]] for a, b in P.pairs]
    if None in perm:
        a, b = P.pairs[perm.index(None)]
        raise FalsificationError(
            f"{what} image of a projection pair left the poset",
            {"missing": (lp[b], lp[a]) if odd else (lp[a], lp[b])},
        )
    return tuple(perm)


def even_from_lattice_automorphism(f: LatticeMap, P: ProjectionPoset) -> PosetMap:
    """(a, b) -> (f(a), f(b)); the converse half of the classification.
    Not verified here: verify_poset_map checks the result."""
    if f.direction != AUTO:
        raise ValueError("even maps come from lattice automorphisms")
    return PosetMap(_transport(P, f.perm, False, "automorphism"), EVEN, witness=f)


def odd_from_anti_automorphism(g: LatticeMap, P: ProjectionPoset) -> PosetMap:
    """(a, b) -> (g(b), g(a)); odd maps from order-reversing witnesses.
    Not verified here: verify_poset_map checks the result."""
    if g.direction != ANTI:
        raise ValueError("odd maps come from lattice anti-automorphisms")
    return PosetMap(_transport(P, g.perm, True, "anti-automorphism"), ODD, witness=g)


def _refuse_entry_outside(perm, size: int, what: str) -> None:
    """Refuse a map with an entry outside range(size), naming the first:
    Python would read a negative entry as an index from the end."""
    if min(perm) < 0 or max(perm) >= size:
        i, x = next((i, x) for i, x in enumerate(perm) if not 0 <= x < size)
        raise ValueError(f"{what} map entry {i} is {x}, outside range({size})")


def classify_parity(phi, P: ProjectionPoset) -> str:
    """Even or odd, cross-checked on every image-sharing family.

    For each subspace with at least two complements, the images of its
    projection family must all share an image (even evidence) or all share
    a kernel (odd evidence); mixed or absent evidence falsifies the
    dichotomy and raises with a reproducible payload. Every family is
    scanned, so the payload lists every violation. A bare map that is no
    permutation is refused: an entry outside P before any image is read, a
    repeat after the scan, so that a map the dichotomy falsifies keeps it.
    """
    perm = phi.perm if isinstance(phi, PosetMap) else phi
    P.check_map_size(perm)
    repeats = not isinstance(phi, PosetMap) and not is_permutation(perm)
    if repeats:
        _refuse_entry_outside(perm, P.size, "poset")
    img, ker = P.image, P.kernel
    verdict: str | None = None
    bad: list[dict] = []
    for a, group in P.image_families:
        if len({img[perm[i]] for i in group}) == 1:
            v = EVEN
        elif len({ker[perm[i]] for i in group}) == 1:
            v = ODD
        else:
            bad.append({"image": a, "family": group})
            continue
        if verdict is None:
            verdict = v
        elif verdict != v:
            bad.append({"image": a, "family": group, "verdict": v})
    if bad:
        raise FalsificationError(
            "even/odd dichotomy failed on image-sharing families", {"violations": bad}
        )
    if repeats:
        seen: set[int] = set()
        i, x = next((i, x) for i, x in enumerate(perm) if x in seen or seen.add(x))
        raise ValueError(f"poset map entries {perm.index(x)} and {i} are both {x}")
    if verdict is None:
        raise ValueError("no image-sharing projections; parity undefined")
    return verdict


def _recovered_witness(P: ProjectionPoset, perm, odd: bool) -> tuple[int, ...]:
    """The lattice map behind the poset permutation perm if it has the
    given parity. Even: f(a) is the image of the image of one projection
    with image a. Odd: g(b) is the image of the image of one projection
    with kernel b."""
    img = P.image
    families = P.by_kernel if odd else P.by_image
    return tuple(img[perm[families[a][0]]] for a in range(P.lattice.size))


def decompose_poset_automorphism(phi: PosetMap, P: ProjectionPoset) -> LatticeMap:
    """Recover the lattice (anti-)automorphism behind an orthoposet map.

    The witness is accepted only when it rebuilds phi exactly, which makes
    every member of each family agree with it, and is then verified as a
    lattice map. The parity is read off the first image family (even when
    its images agree): classify_parity returns that parity or raises, so
    when the rebuild fails it runs first and a failed dichotomy is what
    gets reported; when the dichotomy holds, the payload names the first
    element, in element order, whose rebuilt image differs from phi's,
    with both images. Every step is checked, so this runs at any lattice
    length: below length 4, where the theorem does not apply, a map
    without a witness raises instead (the verbs that rest on the theorem
    refuse n < 4 themselves).
    """
    perm = phi.perm
    P.check_map_size(perm)
    if not P.image_families:
        classify_parity(phi, P)  # raises: no family fixes a parity
    img = P.image
    odd = len({img[perm[i]] for i in P.image_families[0][1]}) > 1
    f_perm = _recovered_witness(P, perm, odd)
    try:
        rebuilt = _transport(P, f_perm, odd, "witness")
    except FalsificationError:
        classify_parity(phi, P)
        raise
    if rebuilt != perm:
        classify_parity(phi, P)
        e = next(e for e, (got, want) in enumerate(zip(rebuilt, perm)) if got != want)
        raise FalsificationError(
            "recovered witness does not reproduce the poset map",
            {"element": e, "image": perm[e], "rebuilt": rebuilt[e]},
        )
    fmap = LatticeMap(f_perm, ANTI if odd else AUTO)
    verify_lattice_map(fmap, P.lattice)
    return fmap


# every byte, in order: _BYTES[:k] is the bytes below k
_BYTES = bytes(range(BYTE_CODES))


def poset_atom_perm_from_lattice(
    P: ProjectionPoset, lattice_perm: tuple[int, ...], odd: bool
) -> tuple[int, ...]:
    """Fast path: the action on P-atoms induced by a lattice map, without
    materializing the full poset permutation. A map with an entry outside
    range(L.size) is refused before any image is read. When the map sends
    a P-atom to no P-atom, the payload names the first such atom's ordinal
    and its image pair (image, kernel).

    Where P.atom_code_planes is not None, the images are read by
    bytes.translate kernels, with no Python code per atom: the map,
    padded to a 256-byte table, translates the image and the kernel
    planes (swapped for an odd map), the point and hyperplane code tables
    turn them into two runs of codes, added as little-endian ints, and
    the ordinal table reads the atom of each code sum. Every sum is below
    BYTE_CODES, so no byte carries into the next. A map whose entries do
    not all fit a byte below L.size, or that sends some atom to NO_ATOM,
    goes through the pair table instead, which refuses it."""
    _require_atomistic(P)
    lp, size = lattice_perm, P.lattice.size
    if len(lp) != size:
        raise ValueError("lattice map size does not match the poset's lattice")
    planes = P.atom_code_planes
    if planes is not None:
        try:
            table = bytearray(lp)
        except (TypeError, ValueError):  # no byte: refused by the pair table
            table = None
        # every entry below size: nothing is left once those bytes go
        if table is not None and not table.translate(None, _BYTES[:size]):
            images, kernels, point_codes, hyperplane_codes, ordinals = planes
            table = table.ljust(BYTE_CODES, b"\0")
            if odd:
                images, kernels = kernels, images
            on_points = images.translate(table).translate(point_codes)
            on_hyperplanes = kernels.translate(table).translate(hyperplane_codes)
            codes = int.from_bytes(on_points, "little") + int.from_bytes(on_hyperplanes, "little")
            out = codes.to_bytes(len(images), "little").translate(ordinals)
            if NO_ATOM not in out:
                return tuple(out)
    return _atom_perm_by_pairs(P, lp, odd)


def _atom_perm_by_pairs(P: ProjectionPoset, lattice_perm, odd: bool) -> tuple[int, ...]:
    """poset_atom_perm_from_lattice through the pair table, one lookup per
    atom, on a map of L's size: the path of every P whose atom_code_planes
    are None, and the one that refuses a map."""
    rows, lp, ordinal = P.pair_rows, lattice_perm, P.atom_ordinal
    _refuse_entry_outside(lp, P.lattice.size, "lattice")
    try:
        if odd:
            return tuple([ordinal[rows[lp[b]][lp[a]]] for a, b in P.atom_pairs])
        return tuple([ordinal[rows[lp[a]][lp[b]]] for a, b in P.atom_pairs])
    except KeyError:
        images = [(lp[b], lp[a]) if odd else (lp[a], lp[b]) for a, b in P.atom_pairs]
        t = next(t for t, (a, b) in enumerate(images) if rows[a][b] not in ordinal)
        raise FalsificationError(
            "lattice map sends a projection atom to no atom of the poset",
            {"atom": t, "image": images[t]},
        ) from None


# ---------------------------------------------------------------------------
# theorem-level verification campaigns
# ---------------------------------------------------------------------------


SCHEMA_CHECKPOINT = "projlat-checkpoint/1"
# part of the campaign fingerprint: raise it whenever the poset search
# visits its branches or maps in another order, so that a checkpoint
# written under the old order is refused instead of trusted
SEARCH_ORDER_VERSION = 1
# the fields of one completed branch in a checkpoint, with their types
_BRANCH_FIELDS = {
    "target": int, "count": int, "even": int, "odd": int,
    "fail_count": int, "digest": str, "failures": list,
}


class CheckpointError(ValueError):
    """A checkpoint file that is malformed or belongs to another campaign."""


def _branch_digest(keys: list[bytes]) -> str:
    return sha256_of(sorted(k.hex() for k in keys))


def run_poset_branch(P: ProjectionPoset, target: int, budget: int | None = None) -> dict:
    """Enumerate one root branch of the poset search and decompose every
    map found there. Deterministic given (P, target)."""
    keys = []
    n_even = n_odd = 0
    failures = []
    try:
        for aperm, eperm in iter_poset_atom_perms(
            P, budget=budget, restrict_first={target}
        ):
            keys.append(bytes(aperm))
            try:
                witness = decompose_poset_automorphism(PosetMap(eperm, UNKNOWN), P)
                if witness.direction == AUTO:
                    n_even += 1
                else:
                    n_odd += 1
            except (FalsificationError, ValueError) as exc:
                failures.append(str(exc))
    except SearchBudgetExceeded as exc:
        return {"target": target, "budget_exhausted": exc.nodes, "found": exc.found}
    return {
        "target": target,
        "count": len(keys),
        "even": n_even,
        "odd": n_odd,
        "digest": _branch_digest(keys),
        "fail_count": len(failures),
        "failures": failures[:3],
    }


@functools.lru_cache(maxsize=1)
def _worker_poset(n: int, field_spec: str) -> ProjectionPoset:
    """The poset a pool worker searches. Spawned workers share no memory
    with the parent, so each rebuilds P from the ambient once."""
    return build_projection_poset(enumerate_subspaces(n, parse_field(field_spec)))


def _pool_branch(task: tuple) -> dict:
    n, field_spec, target, budget = task
    return run_poset_branch(_worker_poset(n, field_spec), target, budget)


def _branch_results(P: ProjectionPoset, todo, budget, jobs: int):
    """run_poset_branch on each target, in order; in a pool of spawned
    workers when jobs > 1, which behaves the same on every platform."""
    if jobs <= 1 or not todo:
        for target in todo:
            yield run_poset_branch(P, target, budget)
        return
    import multiprocessing  # only a pool needs it, and it is costly to import

    ambient = (P.lattice.n, P.lattice.field.spec())
    tasks = [(*ambient, target, budget) for target in todo]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(jobs, initializer=_worker_poset, initargs=ambient) as pool:
        yield from pool.imap(_pool_branch, tasks)


def _load_checkpoint(path: str | None, fingerprint: str, targets: list[int]) -> dict:
    """The checkpoint state at path, or a fresh one. Every completed branch
    is checked for its fields and for a target in the plan before it is
    trusted. A path in no directory is refused here, before any search."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise CheckpointError(f"cannot write checkpoint {path}: no such directory")
    if not (path and os.path.exists(path)):
        return {"schema": SCHEMA_CHECKPOINT, "fingerprint": fingerprint, "done": {}}
    try:
        with open(path) as fh:
            state = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path} is not a checkpoint file: {exc}") from None
    if not isinstance(state, dict) or state.get("schema") != SCHEMA_CHECKPOINT:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if state.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path} belongs to a different campaign "
            f"(fingerprint mismatch)"
        )
    done = state.get("done")
    if not isinstance(done, dict):
        raise CheckpointError(f"checkpoint {path} has no table of done branches")
    for key, entry in done.items():
        ok = isinstance(entry, dict) and all(
            isinstance(entry.get(f), t) and not isinstance(entry.get(f), bool)
            for f, t in _BRANCH_FIELDS.items()
        )
        if not (ok and key == str(entry["target"]) and entry["target"] in targets):
            raise CheckpointError(
                f"checkpoint {path}: done entry {key!r} is malformed or "
                f"names a branch outside the plan: {entry!r}"
            )
    return state


def _save_checkpoint(path: str | None, state: dict) -> None:
    if not path:
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(canonical_json(state))
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc.strerror}") from None


def _constructed_side(L: SubspaceLattice, P: ProjectionPoset, budget: int | None):
    """The maps the classification constructs: the standard duality gamma,
    the atom keys of every lattice automorphism f, and, in search order,
    the P-atom permutations of the even maps (a, b) -> (f(a), f(b)) and of
    the odd maps built from the anti-automorphisms f . gamma. L's search
    is refused above SEMILINEAR_LIMIT maps, and the whole side above
    CONSTRUCTED_ENTRY_LIMIT entries."""
    _check_lattice_search_bound(L.n, L.field)
    _check_constructed_side_bound(L.n, L.field)
    gamma = standard_duality(L)
    keys: set[bytes] = set()
    evens: list[tuple[int, ...]] = []
    odds: list[tuple[int, ...]] = []
    for aperm, eperm in iter_lattice_atom_perms(L, budget=budget):
        keys.add(bytes(aperm))
        evens.append(poset_atom_perm_from_lattice(P, eperm, odd=False))
        anti = perm_compose(eperm, gamma.perm)
        odds.append(poset_atom_perm_from_lattice(P, anti, odd=True))
    return gamma, keys, evens, odds


def verify_main_theorem(
    L: SubspaceLattice,
    P: ProjectionPoset,
    budget: int | None = None,
    jobs: int = 1,
    checkpoint: str | None = None,
) -> CampaignReport:
    """Exhaustive two-sided check of the even/odd classification.

    Constructs the even and odd maps from the lattice automorphism group
    (cross-checked against the projective group order and semilinear
    generation) and one duality. Then enumerates every orthoposet
    automorphism of P, one root branch of poset_search_plan at a time,
    decomposes each back to its witness, and compares each branch with the
    constructed maps whose pivot image is its target, by digest.

    Completed branches go to the checkpoint file, if given, and are not
    rerun on resume; jobs > 1 runs branches in a pool of spawned workers.
    The report does not depend on either. The node budget applies to the
    lattice search and to each branch; when it runs out, the report so far
    comes back with outcome "partial". A P with more atoms than
    MAX_POSET_SEARCH_ATOMS is refused before either search.
    """
    _check_poset_search_bound(P.lattice.n, P.lattice.field)
    rep = CampaignReport("verify-main-theorem", (L.n, L.field.spec()))
    # a bad checkpoint is refused before any search runs
    pivot, targets = poset_search_plan(P)
    fingerprint = sha256_of(
        {
            "n": L.n,
            "field": L.field.spec(),
            "poset_size": P.size,
            "pivot": pivot,
            "targets": targets,
            "search_order": SEARCH_ORDER_VERSION,
        }
    )
    state = _load_checkpoint(checkpoint, fingerprint, targets)

    try:
        gamma, lattice_keys, evens, odds = _constructed_side(L, P, budget)
    except SearchBudgetExceeded as exc:
        rep.add(
            "lattice_enumeration_complete",
            False,
            f"budget exhausted after {exc.nodes} nodes, {exc.found} maps found; "
            "raise --budget-nodes (the lattice search runs before the "
            "checkpointable poset phase)",
        )
        rep.outcome = "partial"
        return rep
    want = projective_group_order(L.n, L.field.q, L.field.k)
    rep.add(
        "lattice_count_matches_projective_group_order",
        len(evens) == want,
        f"found {len(evens)}, group order {want}",
    )
    check_semilinear_generation(
        rep, L, lattice_keys, "lattice_autos_equal_semilinear_generation",
        "semilinear set {}",
    )
    rep.add("duality_involutory", gamma.compose(gamma).is_identity, "")

    atom_keys = list(map(bytes, evens + odds))
    by_branch: dict[int, list[bytes]] = {t: [] for t in targets}
    for key in atom_keys:
        by_branch[key[pivot]].append(key)
    all_even, all_odd = set(atom_keys[: len(evens)]), set(atom_keys[len(evens) :])
    rep.add(
        "even_odd_constructions_distinct",
        not (all_even & all_odd) and len(all_even) == len(all_odd) == len(evens),
        f"{len(evens)} even, {len(odds)} odd",
    )

    # enumerated side, branch by branch
    done = state["done"]
    todo = [t for t in targets if str(t) not in done]
    if todo:
        sys.stderr.write(
            f"# verify-main-theorem: {len(todo)}/{len(targets)} branches to run\n"
        )
    for result in _branch_results(P, todo, budget, jobs):
        if "budget_exhausted" in result:
            rep.add(
                "poset_enumeration_complete",
                False,
                f"budget exhausted in branch {result['target']} "
                f"after {result['budget_exhausted']} nodes, {result['found']} maps found; "
                f"{len(done)}/{len(targets)} branches checkpointed",
            )
            rep.outcome = "partial"
            _save_checkpoint(checkpoint, state)
            return rep
        done[str(result["target"])] = result
        _save_checkpoint(checkpoint, state)

    branches = [done[str(t)] for t in targets]
    total = sum(b["count"] for b in branches)
    n_even = sum(b["even"] for b in branches)
    n_odd = sum(b["odd"] for b in branches)
    n_fail = sum(b["fail_count"] for b in branches)
    failures = [f for b in branches for f in b["failures"]]
    rep.counts["lattice_automorphisms"] = len(evens)
    rep.counts["poset_automorphisms"] = total
    rep.counts["decomposed_even"] = n_even
    rep.counts["decomposed_odd"] = n_odd
    rep.add(
        "every_enumerated_map_decomposes",
        n_fail == 0 and not failures and n_even + n_odd == total,
        f"{n_fail} failures, first: {failures[:3]}"
        if failures or n_fail
        else f"{n_even} even + {n_odd} odd",
    )
    branch_match = all(
        done[str(t)]["digest"] == _branch_digest(by_branch[t]) for t in targets
    )
    rep.add(
        "enumerated_equals_constructed",
        branch_match and total == len(all_even) + len(all_odd),
        f"enumerated {total}, constructed {len(all_even) + len(all_odd)}, "
        "per-branch digests compared",
    )
    return rep


# the subgroup check composes every pair of permutations while there are
# at most CLOSURE_PAIR_LIMIT pairs, and closes greedy generators above
CLOSURE_PAIR_LIMIT = 10**6


def subgroup_check(perms: list[tuple[int, ...]]) -> tuple[str, bool, str]:
    """Whether perms, permutations of one degree, form a group: (mode,
    verdict, note). Mode "exhaustive", the reference, composes every pair;
    mode "generated" takes generators greedily from perms, last first, and
    requires their closure to stay inside perms and to equal them. Both
    also require the identity and every inverse."""
    members = {p: p for p in perms}
    ident = identity_perm(len(perms[0]))
    if len(perms) ** 2 <= CLOSURE_PAIR_LIMIT:
        mode, note = "exhaustive", f"all {len(perms)}^2 compositions"
        closed = all(perm_compose(a, b) in members for a in perms for b in perms)
    else:
        gens, group = [], {ident}
        for p in reversed(perms):
            if p not in group:
                gens.append(p)
                group = generated_group(gens, ident, members)
                if group is None:
                    break
        mode, note = "generated", f"closure of {len(gens)} generators"
        closed = group is not None and len(group) == len(members)
    ok = closed and ident in members and all(perm_inverse(p) in members for p in perms)
    return mode, ok, note


def verify_semidirect_structure(
    L: SubspaceLattice,
    P: ProjectionPoset,
    budget: int | None = None,
) -> CampaignReport:
    """Group structure of the even/odd maps: evens form a normal subgroup,
    the duality is an involution, and the odds are exactly its coset. The
    mode of subgroup_check goes to counts["closure_mode"]."""
    rep = CampaignReport("semidirect", (L.n, L.field.spec()))
    gamma_l, _, evens, odds = _constructed_side(L, P, budget)
    rep.add("duality_involutory", gamma_l.compose(gamma_l).is_identity, "gamma^2 = 1 on L")
    even_set = set(evens)
    odd_set = set(odds)
    gamma_p = poset_atom_perm_from_lattice(P, gamma_l.perm, odd=True)

    rep.counts["even"] = len(even_set)
    rep.counts["odd"] = len(odd_set)

    rep.add(
        "gamma_squared_identity",
        perm_compose(gamma_p, gamma_p) == identity_perm(len(P.atoms)),
        "gamma^2 = 1 on P",
    )

    rep.counts["closure_mode"], subgroup_ok, closure_note = subgroup_check(evens)
    rep.add("evens_form_subgroup", subgroup_ok, closure_note)

    normal_ok = all(
        perm_compose(perm_compose(gamma_p, e), gamma_p) in even_set for e in evens
    )
    rep.add("evens_normal_under_gamma", normal_ok, "gamma e gamma^-1 even for all e")

    # e -> e gamma is injective, so the coset has len(even_set) elements and
    # equals odd_set when they all lie in it and the sizes agree
    coset_ok = len(odd_set) == len(even_set) and all(
        perm_compose(e, gamma_p) in odd_set for e in evens
    )
    rep.add(
        "odds_are_unique_even_gamma_factorizations",
        coset_ok,
        f"coset size {len(even_set)}",
    )
    return rep


def verify_fundamental_correspondence(
    L: SubspaceLattice, budget: int | None = None
) -> CampaignReport:
    """Every lattice automorphism has a semilinear witness (ambient >= 3);
    reports how many needed a nontrivial twist."""
    rep = CampaignReport("semilinear-witnesses", (L.n, L.field.spec()))
    if L.n < 3:
        raise ValueError("witness matching requires ambient dimension >= 3")
    _check_lattice_search_bound(L.n, L.field)
    total = 0
    matched = 0
    twist_hist: dict[int, int] = {}
    for _, eperm in iter_lattice_atom_perms(L, budget=budget):
        total += 1
        try:
            s = match_semilinear(LatticeMap(eperm, AUTO), L)
        except MatchFailure:
            continue
        matched += 1
        twist_hist[s.twist.power] = twist_hist.get(s.twist.power, 0) + 1
    rep.counts["total"] = total
    rep.counts["matched"] = matched
    rep.counts["twist_histogram"] = {str(k): v for k, v in sorted(twist_hist.items())}
    rep.add(
        "all_automorphisms_have_witnesses",
        matched == total,
        f"{matched}/{total} matched",
    )
    if L.field.k > 1:
        rep.add(
            "nontrivial_twists_required",
            any(p != 0 for p in twist_hist),
            f"histogram {twist_hist}",
        )
    return rep
