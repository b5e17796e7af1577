"""Exhaustive automorphism machinery for subspace lattices and projection
posets.

Both searches run one backtracking core on atom images, _atom_search; each
supplies only its initial candidates, its narrowing step and its leaf lift.
Atoms determine everything here: order is atom-set inclusion in both
structures (verified per instance, not assumed), so a candidate atom
permutation lifts through an atom-mask dictionary and the lift is verified
outright at every leaf. Constraint propagation uses only order-definable
(and, for posets, ortho-definable) invariants, so no genuine automorphism
can ever be pruned; spurious leaves die at verification. That split keeps
the search honest: pruning is a performance device, never a correctness
assumption.

Parity machinery: an automorphism of the projection poset is even when
projections sharing an image keep sharing an image, odd when they end up
sharing a kernel. Even maps come from lattice automorphisms acting
componentwise, odd ones from anti-automorphisms acting with the components
swapped, and the decomposition recovers those witnesses exactly.
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys

from .gf import iter_vectors, parse_field
from .lattice import SubspaceLattice, _bits, enumerate_subspaces
from .maps import (
    ANTI,
    AUTO,
    EVEN,
    ODD,
    UNKNOWN,
    LatticeMap,
    PosetMap,
    identity_perm,
    perm_compose,
    perm_inverse,
)
from .projposet import ProjectionPoset, build_projection_poset
from .reports import CampaignReport, canonical_json, sha256_of
from .semilinear import standard_duality, verify_lattice_map


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


def _atom_lists(S) -> list[list[int]]:
    """Atom ordinals under each element of S, a lattice or a poset, once S
    is verified atomistic: every lift through atom masks rests on order
    being atom-set inclusion. Checked and built once per structure."""
    cached = getattr(S, "_atom_lists_cache", None)
    if cached is None:
        if not S.verify_atomistic():
            raise FalsificationError(f"{S!r} is not atomistic; atom lifts unsound")
        cached = S._atom_lists_cache = [_bits(m) for m in S.elem_atom_masks]
    return cached


def _lift_atom_perm(S, elem_atoms, sigma) -> list[int | None]:
    """Images of all elements of S under the atom permutation sigma: each
    element's image atom set, looked up in S's atom-mask index. None marks
    an element whose image atom set belongs to no element."""
    midx = S.atom_mask_index
    bit = [1 << y for y in sigma]
    out = []
    for atoms in elem_atoms:
        nm = 0
        for t in atoms:
            nm |= bit[t]
        out.append(midx.get(nm))
    return out


def _lift_bijective(S, elem_atoms, sigma) -> tuple[int, ...] | None:
    """The lift of sigma to all elements of S, or None when it is not a
    permutation of the elements."""
    eperm = _lift_atom_perm(S, elem_atoms, sigma)
    if None in eperm or len(set(eperm)) != S.size:
        return None
    return tuple(eperm)


# ---------------------------------------------------------------------------
# the atom search, shared by the lattice and the poset
# ---------------------------------------------------------------------------


def _search_plan(init_cand: list[int]) -> tuple[int, list[int]]:
    """The atom the search branches on first, the one with the fewest
    initial candidates (lowest ordinal on ties), and its candidates."""
    pivot = min(range(len(init_cand)), key=lambda z: (init_cand[z].bit_count(), z))
    return pivot, _bits(init_cand[pivot])


def _atom_search(init_cand, narrow, lift, budget, restrict_first, stats):
    """Backtracking on atom images, yielding (atom_perm, lift(atom_perm))
    for every forced permutation whose lift is not None.

    init_cand[z] masks the possible images of atom z. Each node tries every
    candidate y of the most constrained unassigned atom x (fewest
    candidates, lowest ordinal): narrow(x, y, assigned, cand) gets copies
    with x assigned to y, shrinks the unassigned atoms' candidates in place
    and returns False when one runs empty. lift verifies outright.
    restrict_first limits the images of the pivot of _search_plan."""
    m = len(init_cand)
    nodes = 0
    found = 0
    root_pivot, _ = _search_plan(init_cand)
    root_mask = None
    if restrict_first is not None:
        root_mask = sum(1 << y for y in set(restrict_first))

    def rec(assigned: list[int | None], cand: list[int], n_assigned: int):
        nonlocal nodes, found
        # choose the most constrained unassigned atom
        best = -1
        best_pc = m + 1
        all_forced = True
        for z in range(m):
            if assigned[z] is None:
                pc = cand[z].bit_count()
                if pc == 0:
                    return
                if pc > 1:
                    all_forced = False
                if pc < best_pc:
                    best, best_pc = z, pc
        if best == -1 or all_forced:
            # complete the permutation with the forced choices; the check
            # below rejects target collisions, the lift everything else
            perm = list(assigned)
            for z in range(m):
                if perm[z] is None:
                    perm[z] = cand[z].bit_length() - 1
            perm = tuple(perm)
            if sorted(perm) != list(range(m)):
                return
            eperm = lift(perm)
            if eperm is not None:
                found += 1
                yield perm, eperm
            return
        opts = cand[best]
        if n_assigned == 0 and best == root_pivot and root_mask is not None:
            opts &= root_mask
        for y in _bits(opts):
            nodes += 1
            if budget is not None and nodes > budget:
                if stats is not None:
                    stats["nodes"] = nodes
                raise SearchBudgetExceeded(nodes, found)
            new_assigned = assigned.copy()
            new_assigned[best] = y
            new_cand = cand.copy()
            new_cand[best] = 1 << y
            if narrow(best, y, new_assigned, new_cand):
                yield from rec(new_assigned, new_cand, n_assigned + 1)

    yield from rec([None] * m, list(init_cand), 0)
    if stats is not None:
        stats["nodes"] = nodes
        stats["found"] = found


# ---------------------------------------------------------------------------
# lattice automorphism search
# ---------------------------------------------------------------------------


def _lattice_search_structure(L: SubspaceLattice):
    """Per-lattice pruning data for the collinearity-constrained atom
    search."""
    cached = getattr(L, "_auto_search_cache", None)
    if cached is not None:
        return cached
    atoms = L.atoms
    m = len(atoms)
    # join lines at the atom level: line_mask[i][j] = atoms under atom_i v atom_j
    line_mask = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                line_elem = L.join_table[atoms[i]][atoms[j]]
                line_mask[i][j] = L.elem_atom_masks[line_elem]
    cached = ([(1 << m) - 1] * m, line_mask)
    L._auto_search_cache = cached
    return cached


def lattice_search_plan(L: SubspaceLattice) -> tuple[int, list[int]]:
    """Deterministic root branching: (pivot atom ordinal, target ordinals),
    the search's own first branching. Used to partition long searches for
    checkpointing and worker pools."""
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
    non-incident), propagated pairwise as assignments accumulate.
    """
    elem_atoms = _atom_lists(L)
    init_cand, line_mask = _lattice_search_structure(L)
    m = len(init_cand)

    def narrow(best, y, assigned, cand) -> bool:
        not_y = ~(1 << y)
        for z in range(m):
            if assigned[z] is None:
                nc = cand[z] & not_y
                if nc == 0:
                    return False
                cand[z] = nc
        lm_row = line_mask[best]
        lmy_row = line_mask[y]
        for x2 in range(m):
            y2 = assigned[x2]
            if y2 is None or x2 == best:
                continue
            lm = lm_row[x2]
            lmi = lmy_row[y2]
            not_lmi = ~lmi
            for z in range(m):
                if assigned[z] is None:
                    nc = cand[z] & (lmi if lm >> z & 1 else not_lmi)
                    if nc == 0:
                        return False
                    cand[z] = nc
        return True

    yield from _atom_search(
        init_cand, narrow, lambda perm: _lift_bijective(L, elem_atoms, perm),
        budget, restrict_first, stats,
    )


# the largest atom counts the full enumerations of L and of P accept
MAX_SEARCH_ATOMS = 40
MAX_POSET_SEARCH_ATOMS = 150


def enumerate_lattice_automorphisms(
    L: SubspaceLattice, budget: int | None = None
) -> list[LatticeMap]:
    """All order-automorphisms of L, sorted by their permutation; every
    one was lifted and verified at its search leaf."""
    if len(L.atoms) > MAX_SEARCH_ATOMS:
        raise ValueError(
            f"{len(L.atoms)} atoms exceeds the search bound {MAX_SEARCH_ATOMS}"
        )
    maps = [
        LatticeMap(eperm, AUTO) for _, eperm in iter_lattice_atom_perms(L, budget=budget)
    ]
    maps.sort(key=lambda f: f.perm)
    return maps


SEMILINEAR_LIMIT = 2**20


def semilinear_atom_perms(L: SubspaceLattice) -> set[bytes]:
    """Independent generation of lattice automorphisms: every invertible
    matrix with every twist, reduced to its action on atoms. Exhaustive by
    construction; used to cross-check the backtracking search.

    GL(n, q) is generated row by row, up to scalars: row 0 is a canonical
    point vector, row i any vector outside the span of rows 0..i-1. The
    atom with vector v goes to the point of v[0] row_0 + ... + v[n-1]
    row_(n-1), and these sums are carried down the recursion, so no matrix
    is reduced. A twist sigma permutes the canonical point vectors, so
    (matrix, sigma) acts on atoms as the matrix after that permutation.
    Vectors are base-q codes; no table has more than q * q^n entries. The
    work and the result set grow with |PGammaL(n, q)|, so ambients where
    that group order exceeds SEMILINEAR_LIMIT are refused.
    """
    F = L.field
    n, q = L.n, F.q
    order = projective_group_order(n, q, F.k)
    if order > SEMILINEAR_LIMIT:
        raise ValueError(
            f"|PGammaL({n}, {q})| = {order} exceeds the semilinear generation "
            f"limit {SEMILINEAR_LIMIT}"
        )
    vecs = list(iter_vectors(F, n))  # vecs[c] has base-q code c
    code = {v: c for c, v in enumerate(vecs)}
    mul, add = F.mul_table, F.add_table
    smul = [[code[tuple(mul[a][x] for x in v)] for v in vecs] for a in range(q)]

    # a code splits into its first n - lo and last lo coordinates; each
    # half adds through its own table of at most q^(n+1) entries
    def add_table(d: int) -> list[list[int]]:
        half = list(iter_vectors(F, d))
        index = {v: c for c, v in enumerate(half)}
        return [
            [index[tuple(add[a][b] for a, b in zip(u, v))] for v in half] for u in half
        ]

    lo = n // 2
    base = q**lo
    hi_add, lo_add = add_table(n - lo), add_table(lo)

    def plus(x: int, y: int) -> int:
        return hi_add[x // base][y // base] * base + lo_add[x % base][y % base]

    atom_vecs = [L.atom_vector(a) for a in L.atoms]
    point = [0] * len(vecs)  # point[c]: ordinal of the atom through vector c
    for t, v in enumerate(atom_vecs):
        for a in range(1, q):
            point[smul[a][code[v]]] = t
    twist_perms = [
        [point[code[tw.on_vector(v)]] for v in atom_vecs] for tw in F.automorphisms()
    ]
    # terms[i]: (atom ordinal, entry i of its vector) where that entry is nonzero
    terms = [[(t, v[i]) for t, v in enumerate(atom_vecs) if v[i]] for i in range(n)]
    out: set[bytes] = set()

    def rec(i: int, images: list[int], span: list[int]) -> None:
        """images[t]: code of the partial sum over rows 0..i-1 for atom t;
        span: the codes of the span of those rows."""
        if i == 0:
            rows = [code[v] for v in atom_vecs]
        else:
            inside = set(span)
            rows = [x for x in range(len(vecs)) if x not in inside]
        for r in rows:
            scaled = [smul[a][r] for a in range(q)]
            new = images.copy()
            for t, a in terms[i]:
                new[t] = plus(new[t], scaled[a])
            if i < n - 1:
                rec(i + 1, new, span + [plus(x, y) for y in scaled[1:] for x in span])
            else:
                perm = [point[x] for x in new]
                for tp in twist_perms:
                    out.add(bytes([perm[s] for s in tp]))

    rec(0, [0] * len(atom_vecs), [0])
    return out


def projective_group_order(n: int, q: int, k: int) -> int:
    """|PGammaL(n, q)|: invertible matrices modulo scalars, times the field
    automorphism count. Equals the lattice automorphism count for n >= 3."""
    gl = 1
    for i in range(n):
        gl *= q**n - q**i
    return gl // (q - 1) * k


# ---------------------------------------------------------------------------
# projection poset automorphism search
# ---------------------------------------------------------------------------


class _DenseIds(dict):
    """Dense ids in order of first sight: looking up a new key gives it
    the next id."""

    def __missing__(self, key) -> int:
        value = self[key] = len(self)
        return value


class _Memo(dict):
    """fn(key), evaluated once per distinct key. With `canon`, each key is
    stored as canon[key], so memos sharing one canon share their keys."""

    def __init__(self, fn, canon=None):
        super().__init__()
        self.fn = fn
        self.canon = canon

    def __missing__(self, key):
        if self.canon is not None:
            key = self.canon[key]
        value = self[key] = self.fn(key)
        return value


def _poset_search_structure(P: ProjectionPoset):
    """Atom pair invariants for pruning. Every ingredient is definable from
    the order and the orthocomplementation alone, so the constraints hold
    for every orthoposet automorphism, even and odd alike."""
    cached = getattr(P, "_auto_search_cache", None)
    if cached is not None:
        return cached
    if not P.is_graded_by_image_dim():
        raise FalsificationError("poset not graded by image rank; invariants unsound")
    atoms = P.atoms
    m = len(atoms)
    size = P.size
    up = P.up_masks
    ortho = P.ortho

    # masks are read top-first here, bit size-1-e standing for element e:
    # up-sets of high-grade elements then lie in the low bits, so their
    # intersections are short ints and hash fast
    def top_first(mask: int) -> int:
        return int(format(mask, f"0{size}b")[::-1], 2)

    grade_masks = [0] * (max(P.grade) + 1)
    for e, g in enumerate(P.grade):
        grade_masks[g] |= 1 << (size - 1 - e)
    # few distinct masks recur across many pairs: each one's profile (its
    # count per grade) is computed once, and stands as a dense id
    profile_ids = _DenseIds()
    profile = _Memo(
        lambda mask: profile_ids[tuple((mask & gm).bit_count() for gm in grade_masks)]
    )
    up_a = [top_first(up[x]) for x in atoms]
    up_oa = [top_first(up[ortho[x]]) for x in atoms]
    ortho_a = [ortho[x] for x in atoms]
    ortho_bit = [size - 1 - o for o in ortho_a]
    unary_ids = _DenseIds()
    unary = [unary_ids[profile[u], profile[u & uo]] for u, uo in zip(up_a, up_oa)]

    # the color of (i, j) is the first key below; that of (j, i) swaps its
    # mirrored fields, so both come from one visit of the unordered pair.
    # allowed[y][c] = ordinals y2 with colors[y2][y] == c
    color_ids = _DenseIds()
    colors = [[0] * m for _ in range(m)]
    allowed: list[list[int]] = [[] for _ in range(m)]
    for i in range(m):
        xi, oi, up_i, up_oi = atoms[i], ortho_a[i], up_a[i], up_oa[i]
        colors_i, allowed_i, bit_i, u_i = colors[i], allowed[i], 1 << i, unary[i]
        for j in range(i + 1, m):
            xj, up_j = atoms[j], up_a[j]
            i_below_oj = bool(up_i >> ortho_bit[j] & 1)
            j_below_oi = bool(up_j >> ortho_bit[i] & 1)
            both = profile[up_i & up_j]
            i_oj = profile[up_i & up_oa[j]]
            oi_j = profile[up_oi & up_j]
            c_ij = colors_i[j] = color_ids[
                u_i, unary[j], xj == oi, i_below_oj, j_below_oi, both, i_oj, oi_j
            ]
            c_ji = colors[j][i] = color_ids[
                unary[j], u_i, xi == ortho_a[j], j_below_oi, i_below_oj, both, oi_j, i_oj
            ]
            if len(color_ids) > len(allowed_i):
                for row in allowed:
                    row.extend([0] * (len(color_ids) - len(row)))
            allowed[j][c_ij] |= bit_i
            allowed_i[c_ji] |= 1 << j
    # each atom's initial candidates: the atoms of its unary color
    unary_masks: dict[int, int] = {}
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
    _atom_lists(P)
    return _search_plan(_poset_search_structure(P)[0])


def expand_poset_atom_perm(P: ProjectionPoset, perm: tuple[int, ...]):
    """Lift an atom permutation of P to all elements; None if it fails to
    lift bijectively or breaks the orthocomplementation."""
    eperm = _lift_bijective(P, _atom_lists(P), perm)
    if eperm is None:
        return None
    ortho = P.ortho
    for e in range(P.size):
        if eperm[ortho[e]] != ortho[eperm[e]]:
            return None
    return eperm


def iter_poset_atom_perms(
    P: ProjectionPoset,
    budget: int | None = None,
    restrict_first: set[int] | None = None,
    stats: dict | None = None,
):
    """All atom permutations extending to orthoposet automorphisms of P,
    yielding (atom_perm, element_perm) pairs in deterministic order."""
    _atom_lists(P)  # the atomisticity guard, before any node
    init_cand, colors, allowed = _poset_search_structure(P)
    m = len(init_cand)

    def narrow(best, y, assigned, cand) -> bool:
        not_y = ~(1 << y)
        allowed_y = allowed[y]
        for z in range(m):
            if assigned[z] is None:
                nc = cand[z] & not_y & allowed_y[colors[z][best]]
                if nc == 0:
                    return False
                cand[z] = nc
        return True

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
    if len(P.atoms) > MAX_POSET_SEARCH_ATOMS:
        raise ValueError(
            f"{len(P.atoms)} atoms exceeds the search bound {MAX_POSET_SEARCH_ATOMS}"
        )
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
    bare permutation: the map must be exactly the lift of its own atom
    permutation through expand_poset_atom_perm, which checks bijectivity
    and the orthocomplementation. On failure the payload is that atom
    permutation, None marking an atom sent to a non-atom."""
    perm = tuple(phi.perm if isinstance(phi, PosetMap) else phi)
    if len(perm) != P.size:
        raise ValueError("permutation size does not match the poset")
    sigma = tuple(P.atom_ordinal.get(perm[a]) for a in P.atoms)
    if None in sigma or expand_poset_atom_perm(P, sigma) != perm:
        raise FalsificationError(
            "map is not the orthoposet automorphism its atom images induce",
            {"atom_perm": sigma},
        )


def _transport(P: ProjectionPoset, lattice_perm, odd: bool, what: str) -> tuple[int, ...]:
    """The poset permutation induced by a lattice map: (a, b) -> (f(a), f(b))
    for an automorphism, (g(b), g(a)) for an anti-automorphism. Raises with
    the first pair, in element order, whose image leaves the poset."""
    table, w, lp = P.pair_table, P.lattice.size, lattice_perm
    if len(lp) != w:
        raise ValueError("lattice map size does not match the poset's lattice")
    if odd:
        perm = [table[lp[b] * w + lp[a]] for a, b in P.pairs]
    else:
        perm = [table[lp[a] * w + lp[b]] for a, b in P.pairs]
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


def classify_parity(phi, P: ProjectionPoset) -> str:
    """Even or odd, cross-checked on every image-sharing family.

    For each subspace with at least two complements, the images of its
    projection family must all share an image (even evidence) or all share
    a kernel (odd evidence); mixed or absent evidence falsifies the
    dichotomy and raises with a reproducible payload.
    """
    perm = phi.perm if isinstance(phi, PosetMap) else phi
    img, ker = P.image, P.kernel
    verdict: str | None = None
    bad: list[dict] = []
    for a, group in P.by_image.items():
        if len(group) < 2:
            continue
        imgs = {img[perm[i]] for i in group}
        kers = {ker[perm[i]] for i in group}
        if len(imgs) == 1:
            v = EVEN
        elif len(kers) == 1:
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
    if verdict is None:
        raise ValueError("no image-sharing projections; parity undefined")
    return verdict


def decompose_poset_automorphism(phi: PosetMap, P: ProjectionPoset) -> LatticeMap:
    """Recover the lattice (anti-)automorphism behind an orthoposet map.

    Even: f(a) is the image of the image of one projection with image a.
    Odd: g(b) is the image of the image of one projection with kernel b.
    The witness is accepted only when it rebuilds phi exactly, which makes
    every member of each family agree with it, and is then verified as a
    lattice map. Every step is checked, so this runs at any lattice
    length: below length 4, where the theorem does not apply, a map
    without a witness raises instead (the verbs that rest on the theorem
    refuse n < 4 themselves).
    """
    odd = classify_parity(phi, P) == ODD
    perm, img = phi.perm, P.image
    families = P.by_kernel if odd else P.by_image
    f_perm = tuple(img[perm[families[a][0]]] for a in range(P.lattice.size))
    if _transport(P, f_perm, odd, "witness") != perm:
        raise FalsificationError(
            "recovered witness does not reproduce the poset map", {}
        )
    fmap = LatticeMap(f_perm, ANTI if odd else AUTO)
    verify_lattice_map(fmap, P.lattice)
    return fmap


def poset_atom_perm_from_lattice(
    P: ProjectionPoset, lattice_perm: tuple[int, ...], odd: bool
) -> tuple[int, ...]:
    """Fast path: the action on P-atoms induced by a lattice map, without
    materializing the full poset permutation."""
    _atom_lists(P)  # the atomisticity guard
    table, w, lp, ordinal = P.pair_table, P.lattice.size, lattice_perm, P.atom_ordinal
    if len(lp) != w:
        raise ValueError("lattice map size does not match the poset's lattice")
    try:
        if odd:
            return tuple([ordinal[table[lp[b] * w + lp[a]]] for a, b in P.atom_pairs])
        return tuple([ordinal[table[lp[a] * w + lp[b]]] for a, b in P.atom_pairs])
    except KeyError:
        raise FalsificationError(
            "lattice map sends a projection atom to no atom of the poset", {}
        ) from None


# ---------------------------------------------------------------------------
# theorem-level verification campaigns
# ---------------------------------------------------------------------------


SCHEMA_CHECKPOINT = "projlat-checkpoint/1"
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
        return {"target": target, "budget_exhausted": exc.nodes}
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
    trusted."""
    if not (path and os.path.exists(path)):
        return {"schema": SCHEMA_CHECKPOINT, "fingerprint": fingerprint, "done": {}}
    with open(path) as fh:
        try:
            state = json.load(fh)
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
    with open(tmp, "w") as fh:
        fh.write(canonical_json(state))
    os.replace(tmp, path)


def _constructed_side(L: SubspaceLattice, P: ProjectionPoset, budget: int | None):
    """The maps the classification constructs: the standard duality gamma,
    the atom keys of every lattice automorphism f, and, in search order,
    the P-atom permutations of the even maps (a, b) -> (f(a), f(b)) and of
    the odd maps built from the anti-automorphisms f . gamma."""
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
    comes back with outcome "partial".
    """
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
    try:
        semi = semilinear_atom_perms(L)
        rep.add(
            "lattice_autos_equal_semilinear_generation",
            semi == lattice_keys,
            f"semilinear set {len(semi)}",
        )
    except ValueError:
        rep.add(
            "lattice_autos_equal_semilinear_generation",
            True,
            "skipped: ambient too large",
        )
    rep.add("duality_involutory", gamma.compose(gamma).is_identity, "")

    by_branch: dict[int, list[bytes]] = {t: [] for t in targets}
    for ap in evens + odds:
        by_branch[ap[pivot]].append(bytes(ap))
    all_even = set(map(bytes, evens))
    all_odd = set(map(bytes, odds))
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
                f"after {result['budget_exhausted']} nodes; "
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


# the subgroup closure check composes every pair of even maps while there
# are at most CLOSURE_PAIR_LIMIT pairs, and CLOSURE_SAMPLES seeded pairs above
CLOSURE_PAIR_LIMIT = 10**6
CLOSURE_SAMPLES = 300


def verify_semidirect_structure(
    L: SubspaceLattice,
    P: ProjectionPoset,
    seed: int = 0,
    budget: int | None = None,
) -> CampaignReport:
    """Group structure of the even/odd maps: evens form a normal subgroup,
    the duality is an involution, and the odds are exactly its coset. The
    closure mode, exhaustive or sampled, goes to counts["closure_mode"]."""
    rep = CampaignReport("semidirect", (L.n, L.field.spec()))
    gamma_l, _, evens, odds = _constructed_side(L, P, budget)
    rep.add("duality_involutory", gamma_l.compose(gamma_l).is_identity, "gamma^2 = 1 on L")
    even_set = {bytes(e) for e in evens}
    odd_set = {bytes(o) for o in odds}
    gamma_p = poset_atom_perm_from_lattice(P, gamma_l.perm, odd=True)

    rep.counts["even"] = len(even_set)
    rep.counts["odd"] = len(odd_set)

    m = len(P.atoms)
    ident = identity_perm(m)
    rep.add(
        "gamma_squared_identity",
        perm_compose(gamma_p, gamma_p) == ident,
        "gamma^2 = 1 on P",
    )

    exhaustive = len(evens) ** 2 <= CLOSURE_PAIR_LIMIT
    rep.counts["closure_mode"] = "exhaustive" if exhaustive else "sampled"
    if exhaustive:
        closure_ok = all(
            bytes(perm_compose(e1, e2)) in even_set for e1 in evens for e2 in evens
        )
        closure_note = f"all {len(evens)}^2 compositions"
    else:
        rng = random.Random(seed)
        closure_ok = True
        for _ in range(CLOSURE_SAMPLES):
            e1 = evens[rng.randrange(len(evens))]
            e2 = evens[rng.randrange(len(evens))]
            if bytes(perm_compose(e1, e2)) not in even_set:
                closure_ok = False
                break
        closure_note = f"{CLOSURE_SAMPLES} sampled compositions, seed {seed}"
    inverses_ok = all(bytes(perm_inverse(e)) in even_set for e in evens)
    rep.add(
        "evens_form_subgroup",
        closure_ok and inverses_ok and bytes(ident) in even_set,
        closure_note,
    )

    normal_ok = all(
        bytes(perm_compose(perm_compose(gamma_p, e), gamma_p)) in even_set
        for e in evens
    )
    rep.add("evens_normal_under_gamma", normal_ok, "gamma e gamma^-1 even for all e")

    coset = {bytes(perm_compose(e, gamma_p)) for e in evens}
    rep.add(
        "odds_are_unique_even_gamma_factorizations",
        coset == odd_set and len(coset) == len(even_set),
        f"coset size {len(coset)}",
    )
    return rep


def verify_fundamental_correspondence(
    L: SubspaceLattice, budget: int | None = None
) -> CampaignReport:
    """Every lattice automorphism has a semilinear witness (ambient >= 3);
    reports how many needed a nontrivial twist."""
    from .semilinear import MatchFailure, match_semilinear

    rep = CampaignReport("semilinear-witnesses", (L.n, L.field.spec()))
    if L.n < 3:
        raise ValueError("witness matching requires ambient dimension >= 3")
    total = 0
    matched = 0
    twist_hist: dict[int, int] = {}
    failures: list[int] = []
    for _, eperm in iter_lattice_atom_perms(L, budget=budget):
        total += 1
        f = LatticeMap(eperm, AUTO)
        try:
            s = match_semilinear(f, L)
            matched += 1
            twist_hist[s.twist.power] = twist_hist.get(s.twist.power, 0) + 1
        except MatchFailure:
            failures.append(total - 1)
    rep.counts["total"] = total
    rep.counts["matched"] = matched
    rep.counts["twist_histogram"] = {str(k): v for k, v in sorted(twist_hist.items())}
    rep.add(
        "all_automorphisms_have_witnesses",
        matched == total and not failures,
        f"{matched}/{total} matched",
    )
    if L.field.k > 1:
        rep.add(
            "nontrivial_twists_required",
            any(p != 0 for p in twist_hist),
            f"histogram {twist_hist}",
        )
    return rep
