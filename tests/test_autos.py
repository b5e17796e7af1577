"""The automorphism engine: backtracking enumeration on both levels,
even/odd construction, parity classification, and decomposition."""

import random

import pytest

from projlat import (
    ANTI,
    AUTO,
    EVEN,
    FalsificationError,
    LatticeMap,
    ODD,
    PosetMap,
    SearchBudgetExceeded,
    UNKNOWN,
    classify_parity,
    decompose_poset_automorphism,
    enumerate_lattice_automorphisms,
    enumerate_poset_automorphisms,
    even_from_lattice_automorphism,
    odd_from_anti_automorphism,
    perm_compose,
    projective_group_order,
    standard_duality,
)
from projlat import build_projection_poset, enumerate_subspaces, parse_field
from projlat import autos
from projlat.autos import (
    expand_poset_atom_perm,
    iter_lattice_atom_perms,
    iter_poset_atom_perms,
    lattice_search_plan,
    poset_atom_perm_from_lattice,
    poset_search_plan,
    semilinear_atom_perms,
    subgroup_check,
    verify_poset_map,
    verify_semidirect_structure,
)
from projlat.gf import iter_vectors
from projlat.lattice import _bits as lattice_bits
from projlat.matrices import all_matrices, rank, vec_mat
from projlat.semilinear import SemilinearMap


def test_lattice_automorphism_counts(L22, L32, L23, L33, aut_l32):
    assert len(enumerate_lattice_automorphisms(L22)) == 6  # S_3 on 3 atoms
    assert len(aut_l32) == 168  # simple group of order 168
    assert len(enumerate_lattice_automorphisms(L23)) == 24  # S_4 on 4 atoms
    assert len(enumerate_lattice_automorphisms(L33)) == 5616
    assert projective_group_order(3, 2, 1) == 168
    assert projective_group_order(3, 3, 1) == 5616
    assert projective_group_order(4, 2, 1) == 20160


def test_search_matches_semilinear_generation(L32, aut_l32):
    semi = semilinear_atom_perms(L32)
    atoms = L32.atoms
    ordinal = {a: t for t, a in enumerate(atoms)}
    searched = {bytes(ordinal[f.perm[a]] for a in atoms) for f in aut_l32}
    assert searched == semi


def _brute_semilinear_atom_perms(L):
    """Reference oracle: every n x n matrix kept when its rank is n, with
    every twist, applied as a SemilinearMap to the atom vectors."""
    F, n = L.field, L.n
    vec_ordinal = {}
    for t, a in enumerate(L.atoms):
        for c in iter_vectors(F, 1):
            if c != (0,):
                vec_ordinal[vec_mat(F, c, L.elements[a].basis)] = t
    atom_vecs = [L.atom_vector(a) for a in L.atoms]
    out = set()
    for mat in all_matrices(F, n, n):
        if rank(F, mat) != n:
            continue
        for tw in F.automorphisms():
            s = SemilinearMap(F, mat, tw)
            out.add(bytes(vec_ordinal[s.apply_vector(v)] for v in atom_vecs))
    return out


# at (2,5) Aut(L) is S_6, larger than PGammaL(2,5): the oracle must give
# the group's action, not the search's
@pytest.mark.parametrize(
    "n, spec", [(1, "2^2"), (2, "3"), (2, "2^2"), (2, "5"), (3, "2"), (3, "3"), (4, "2")]
)
def test_semilinear_oracle_matches_brute_force(n, spec):
    L = enumerate_subspaces(n, parse_field(spec))
    assert semilinear_atom_perms(L) == _brute_semilinear_atom_perms(L)


def test_semilinear_oracle_limit_guard(L33, L34, monkeypatch):
    with pytest.raises(ValueError):
        semilinear_atom_perms(enumerate_subspaces(4, parse_field("3")))
    assert len(semilinear_atom_perms(L34)) == projective_group_order(3, 4, 2)
    # the bound is on |PGammaL(n, q)|, inclusive
    monkeypatch.setattr(autos, "SEMILINEAR_LIMIT", 5615)
    with pytest.raises(ValueError):
        semilinear_atom_perms(L33)
    monkeypatch.setattr(autos, "SEMILINEAR_LIMIT", 5616)
    assert len(semilinear_atom_perms(L33)) == 5616


def test_semilinear_oracle_runs_no_rref(monkeypatch, L42):
    from projlat import matrices

    calls = []
    rref = matrices.rref

    def counted(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(matrices, "rref", counted)
    assert len(semilinear_atom_perms(L42)) == 20160
    assert calls == []


@pytest.mark.parametrize("n, spec", [(2, "3"), (3, "2"), (2, "5")])
def test_generated_subgroup_mode_agrees_with_all_pairs(n, spec, monkeypatch):
    L = enumerate_subspaces(n, parse_field(spec))
    P = build_projection_poset(L)
    exhaustive = verify_semidirect_structure(L, P)
    monkeypatch.setattr(autos, "CLOSURE_PAIR_LIMIT", 0)
    generated = verify_semidirect_structure(L, P)
    assert exhaustive.counts.pop("closure_mode") == "exhaustive"
    assert generated.counts.pop("closure_mode") == "generated"
    assert exhaustive.passed and exhaustive.counts == generated.counts
    assert [c[:2] for c in exhaustive.checks] == [c[:2] for c in generated.checks]


def _cyclic_group(m: int) -> list[tuple[int, ...]]:
    """The powers of the m-cycle x -> x + 1 mod m, identity first."""
    cycle = tuple(range(1, m)) + (0,)
    group = [tuple(range(m))]
    while len(group) < m:
        group.append(perm_compose(cycle, group[-1]))
    return group


@pytest.mark.parametrize("limit, mode", [(10**6, "exhaustive"), (0, "generated")])
def test_subgroup_check_beyond_256_points(limit, mode, monkeypatch):
    monkeypatch.setattr(autos, "CLOSURE_PAIR_LIMIT", limit)
    group = _cyclic_group(300)
    assert subgroup_check(group)[:2] == (mode, True)
    # the dropped power is an involution, so only closure can miss it
    assert subgroup_check(group[:150] + group[151:])[:2] == (mode, False)


@pytest.mark.parametrize("limit, mode", [(10**6, "exhaustive"), (0, "generated")])
def test_subgroup_check_rejects_corruptions(L32, limit, mode, monkeypatch):
    monkeypatch.setattr(autos, "CLOSURE_PAIR_LIMIT", limit)
    group = sorted(tuple(k) for k in semilinear_atom_perms(L32))
    assert subgroup_check(group)[:2] == (mode, True)
    # drop an involution: every remaining inverse stays, so only closure
    # can miss it
    at = next(i for i, g in enumerate(group) if g != group[0] and perm_compose(g, g) == group[0])
    assert subgroup_check(group[:at] + group[at + 1:])[:2] == (mode, False)
    # a transposition of two points is no collineation of the Fano plane
    swap = (1, 0) + tuple(range(2, 7))
    assert swap not in group
    assert subgroup_check(group[:at] + [swap] + group[at + 1:])[:2] == (mode, False)


def test_lattice_group_closure_spot_check(aut_l32):
    perms = {f.perm for f in aut_l32}
    rng = random.Random(0)
    sample = rng.sample(aut_l32, 12)
    for f in sample:
        for g in sample:
            assert perm_compose(f.perm, g.perm) in perms
    ident = tuple(range(len(aut_l32[0].perm)))
    assert ident in perms


def test_poset_automorphism_count_32(P32):
    maps = enumerate_poset_automorphisms(P32)
    assert len(maps) == 336  # = 2 * 168: every map is even or odd here


def test_poset_22_dichotomy_fails_below_length_4(P22):
    """Frozen computed truth: at (2,2) the poset has 48 automorphisms but
    only 12 arise from lattice (anti-)automorphisms; the other 36 show
    mixed witness evidence. The length >= 4 hypothesis is necessary."""
    maps = enumerate_poset_automorphisms(P22)
    assert len(maps) == 48
    outcomes = {"even": 0, "odd": 0, "mixed": 0}
    for m in maps:
        try:
            outcomes[classify_parity(m, P22)] += 1
        except FalsificationError:
            outcomes["mixed"] += 1
    assert outcomes == {"even": 6, "odd": 6, "mixed": 36}
    witnesses = {"auto": 0, "anti": 0, "none": 0}
    for m in maps:
        try:
            w = decompose_poset_automorphism(m, P22)
            witnesses["auto" if w.direction == AUTO else "anti"] += 1
        except (FalsificationError, ValueError):
            witnesses["none"] += 1
    assert witnesses == {"auto": 6, "anti": 6, "none": 36}


def test_even_odd_constructions(L32, P32, aut_l32):
    gamma = standard_duality(L32)
    f = aut_l32[17]
    phi = even_from_lattice_automorphism(f, P32)
    assert phi.parity == EVEN
    g = LatticeMap(perm_compose(f.perm, gamma.perm), ANTI)
    psi = odd_from_anti_automorphism(g, P32)
    assert psi.parity == ODD
    verify_poset_map(phi, P32)
    verify_poset_map(psi, P32)
    assert classify_parity(phi, P32) == EVEN
    assert classify_parity(psi, P32) == ODD
    # grade is order-definable, so both parities preserve it; odd maps send
    # the image component through the reversing witness, but complements
    # keep dim(g(kernel)) = dim(image)
    for i in range(P32.size):
        assert P32.grade[phi.perm[i]] == P32.grade[i]
        assert P32.grade[psi.perm[i]] == P32.grade[i]


def test_decompose_round_trip_42(L42, P42, aut_l42):
    gamma = standard_duality(L42)
    rng = random.Random(4)
    for f in rng.sample(aut_l42, 5):
        phi = even_from_lattice_automorphism(f, P42)
        w = decompose_poset_automorphism(phi, P42)
        assert w.direction == AUTO and w.perm == f.perm
        g = LatticeMap(perm_compose(f.perm, gamma.perm), ANTI)
        psi = odd_from_anti_automorphism(g, P42)
        w2 = decompose_poset_automorphism(psi, P42)
        assert w2.direction == ANTI and w2.perm == g.perm


def test_decompose_runs_at_length_3(P32):
    """Decomposition checks no lattice length: at (3,2), length 3, all 336
    poset automorphisms decompose, each with its verified witness."""
    maps = enumerate_poset_automorphisms(P32)
    directions = [decompose_poset_automorphism(m, P32).direction for m in maps]
    assert len(maps) == 336
    assert directions.count(AUTO) == directions.count(ANTI) == 168


SEARCHES = {
    "lattice": (iter_lattice_atom_perms, lattice_search_plan),
    "poset": (iter_poset_atom_perms, poset_search_plan),
}


@pytest.mark.parametrize("kind, ambient", [("lattice", "L32"), ("poset", "P22")])
def test_branch_partition_is_exact(kind, ambient, request, monkeypatch):
    """Branch-restricted searches partition the full enumeration: the root
    pivot's branches are disjoint and their union is everything. The plan's
    pivot is the atom the search core branches on first."""
    S = request.getfixturevalue(ambient)
    search, plan = SEARCHES[kind]
    branched = []
    core = autos._atom_search

    def recording_core(init_cand, narrow, *rest):
        def recording_narrow(x, y, assigned, cand):
            branched.append(x)
            return narrow(x, y, assigned, cand)

        return core(init_cand, recording_narrow, *rest)

    monkeypatch.setattr(autos, "_atom_search", recording_core)
    full = {ap for ap, _ in search(S)}
    pivot, targets = plan(S)
    assert branched[0] == pivot
    union = set()
    total = 0
    for t in targets:
        chunk = {ap for ap, _ in search(S, restrict_first={t})}
        assert all(ap[pivot] == t for ap in chunk)
        total += len(chunk)
        union |= chunk
    assert union == full and total == len(full)


def test_poset_atom_perm_transport_agrees(L32, P32, aut_l32):
    gamma = standard_duality(L32)
    f = aut_l32[29]
    phi = even_from_lattice_automorphism(f, P32)
    ap = poset_atom_perm_from_lattice(P32, f.perm, odd=False)
    eperm = expand_poset_atom_perm(P32, ap)
    assert eperm == phi.perm
    g_perm = perm_compose(f.perm, gamma.perm)
    psi = odd_from_anti_automorphism(LatticeMap(g_perm, ANTI), P32)
    ap_odd = poset_atom_perm_from_lattice(P32, g_perm, odd=True)
    assert expand_poset_atom_perm(P32, ap_odd) == psi.perm


def test_flat_pair_table_matches_full_constructions(L42, P42, aut_l42):
    """The atom action read from the flat pair table equals the atom
    restriction of the full even and odd maps, which in turn match a
    lookup of every image pair in P.index."""
    gamma = standard_duality(L42)
    ordinal = {a: t for t, a in enumerate(P42.atoms)}
    for f in random.Random(11).sample(aut_l42, 50):
        g = LatticeMap(perm_compose(f.perm, gamma.perm), ANTI)
        phi = even_from_lattice_automorphism(f, P42)
        psi = odd_from_anti_automorphism(g, P42)
        verify_poset_map(phi, P42)
        verify_poset_map(psi, P42)
        assert phi.perm == tuple(P42.index[(f.perm[a], f.perm[b])] for a, b in P42.pairs)
        assert psi.perm == tuple(P42.index[(g.perm[b], g.perm[a])] for a, b in P42.pairs)
        assert poset_atom_perm_from_lattice(P42, f.perm, odd=False) == tuple(
            ordinal[phi.perm[a]] for a in P42.atoms
        )
        assert poset_atom_perm_from_lattice(P42, g.perm, odd=True) == tuple(
            ordinal[psi.perm[a]] for a in P42.atoms
        )


def test_constructors_reject_a_pair_leaving_the_poset(L42, P42):
    """Swapping two points x, y sends (x, h), with h a hyperplane through y
    but not x, to (y, h), which is not complementary. Both constructors
    name the first pair, in element order, whose image leaves the poset."""
    x, y = L42.atoms[0], L42.atoms[1]
    swap = list(range(L42.size))
    swap[x], swap[y] = y, x
    swap = tuple(swap)
    cases = [
        (even_from_lattice_automorphism, AUTO, False, "automorphism"),
        (odd_from_anti_automorphism, ANTI, True, "anti-automorphism"),
    ]
    for construct, direction, odd, what in cases:
        images = [(swap[b], swap[a]) if odd else (swap[a], swap[b]) for a, b in P42.pairs]
        missing = next(pair for pair in images if pair not in P42.index)
        with pytest.raises(FalsificationError) as exc:
            construct(LatticeMap(swap, direction), P42)
        assert str(exc.value) == f"{what} image of a projection pair left the poset"
        assert exc.value.payload == {"missing": missing}
        with pytest.raises(FalsificationError):
            poset_atom_perm_from_lattice(P42, swap, odd=odd)
        # a map of another lattice is refused before any lookup
        other = tuple(range(L42.size - 1))
        with pytest.raises(ValueError):
            construct(LatticeMap(other, direction), P42)
        with pytest.raises(ValueError):
            poset_atom_perm_from_lattice(P42, other, odd=odd)


def _colors_by_ordered_pairs(P):
    """Reference: the poset search's atom-pair colors keyed one ordered pair
    at a time, every profile computed afresh. Returns (initial candidates,
    colors, allowed) with allowed[y] a dict from color to the mask of the
    y2 with colors[y2][y] equal to it."""
    atoms = P.atoms
    m = len(atoms)
    grade_masks = [0] * (max(P.grade) + 1)
    for e in range(P.size):
        grade_masks[P.grade[e]] |= 1 << e
    up, ortho = P.up_masks, P.ortho

    def profile(mask):
        return tuple((mask & gm).bit_count() for gm in grade_masks)

    unary_ids = {}
    unary = [
        unary_ids.setdefault((profile(up[x]), profile(up[x] & up[ortho[x]])), len(unary_ids))
        for x in atoms
    ]
    color_ids = {}
    colors = [[0] * m for _ in range(m)]
    for i in range(m):
        xi = atoms[i]
        for j in range(m):
            if i == j:
                continue
            xj = atoms[j]
            key = (
                unary[i],
                unary[j],
                xj == ortho[xi],
                bool(up[xi] >> ortho[xj] & 1),
                bool(up[xj] >> ortho[xi] & 1),
                profile(up[xi] & up[xj]),
                profile(up[xi] & up[ortho[xj]]),
                profile(up[ortho[xi]] & up[xj]),
            )
            colors[i][j] = color_ids.setdefault(key, len(color_ids))
    allowed = [dict() for _ in range(m)]
    for y in range(m):
        for y2 in range(m):
            if y2 != y:
                c = colors[y2][y]
                allowed[y][c] = allowed[y].get(c, 0) | (1 << y2)
    unary_masks = {}
    for t, u in enumerate(unary):
        unary_masks[u] = unary_masks.get(u, 0) | (1 << t)
    return [unary_masks[u] for u in unary], colors, allowed


def _color_renaming(colors, reference):
    """The map from colors to reference colors when both split the ordered
    atom pairs into the same classes, else None."""
    to_ref, from_ref = {}, {}
    m = len(colors)
    for i in range(m):
        for j in range(m):
            if i != j:
                c, r = colors[i][j], reference[i][j]
                if to_ref.setdefault(c, r) != r or from_ref.setdefault(r, c) != c:
                    return None
    return to_ref


def _assert_matches_reference(P):
    init_cand, colors, allowed = autos._poset_search_structure(P)
    ref_cand, ref_colors, ref_allowed = _colors_by_ordered_pairs(P)
    assert init_cand == ref_cand
    rename = _color_renaming(colors, ref_colors)
    assert rename is not None
    assert sorted(rename) == list(range(len(rename)))  # dense color ids
    for y in range(len(colors)):
        assert [ref_allowed[y].get(rename[c], 0) for c in range(len(rename))] == allowed[y]
    return colors


@pytest.mark.parametrize(
    "n, spec", [(2, "2"), (2, "3"), (3, "2"), (3, "3"), (4, "2"), (3, "2^2")]
)
def test_poset_colors_match_ordered_pair_reference(n, spec):
    _assert_matches_reference(build_projection_poset(enumerate_subspaces(n, parse_field(spec))))


def _corrupt(P, how):
    """Corrupt P's order in place, in one of three ways. flip: one bit of
    the up-set of an atom x mid-way in the atom order, so that x's pairs
    are met both first and mirrored. trade: one element above x traded for
    x's own orthocomplement, of the same grade, so that only the second of
    x's unary profiles changes. orient: for each pair of atoms below each
    other's orthocomplements, a seeded choice of one of the two relations
    is dropped, so that the colors of (i, j) and (j, i) differ both for
    i < j and for i > j."""
    up, ortho, atoms = P.up_masks, P.ortho, P.atoms
    x = atoms[len(atoms) // 2]
    above = [ortho[y] for y in atoms if up[x] >> ortho[y] & 1]
    if how == "flip":
        up[x] ^= 1 << above[0]
    elif how == "trade":
        up[x] ^= 1 << above[0] | 1 << ortho[x]
    else:
        rng = random.Random(5)
        for i, xi in enumerate(atoms):
            for xj in atoms[i + 1 :]:
                if up[xi] >> ortho[xj] & 1:
                    a, b = rng.choice(((xi, xj), (xj, xi)))
                    up[a] ^= 1 << ortho[b]
    # the corrupted order fails the checks that guard the search; the
    # colors are built regardless, to compare the two builds
    P.verify_atomistic = lambda: True
    P._graded = True


@pytest.mark.parametrize("how", ["flip", "trade", "orient"])
def test_corrupted_order_colors_match_reference(L32, how):
    """A corrupted order changes the colors, and both builds change them
    the same way."""
    clean = _assert_matches_reference(build_projection_poset(L32))
    P = build_projection_poset(L32)
    _corrupt(P, how)
    corrupted = _assert_matches_reference(P)
    assert _color_renaming(corrupted, clean) is None


@pytest.mark.parametrize(
    "ambient, branch, maps, nodes", [("L32", None, 336, 2128), ("L42", 0, 336, 5475)]
)
def test_poset_search_unchanged_on_reference_colors(ambient, branch, maps, nodes, request):
    """The same yields, in the same order, and the same node counts as the
    search run on the reference colors."""
    L = request.getfixturevalue(ambient)
    runs = []
    for reference in (False, True):
        P = build_projection_poset(L)
        if reference:
            init_cand, colors, allowed = _colors_by_ordered_pairs(P)
            n_colors = 1 + max(c for row in colors for c in row)
            dense = [[a.get(c, 0) for c in range(n_colors)] for a in allowed]
            P._auto_search_cache = (init_cand, colors, dense)
        _, targets = poset_search_plan(P)
        stats = {}
        restrict = None if branch is None else {targets[branch]}
        runs.append((list(iter_poset_atom_perms(P, restrict_first=restrict, stats=stats)), stats))
    (got, stats), (want, ref_stats) = runs
    assert got == want
    assert len(got) == maps and stats["nodes"] == ref_stats["nodes"] == nodes


def test_search_budget_raises(L32):
    with pytest.raises(SearchBudgetExceeded):
        list(enumerate_lattice_automorphisms(L32, budget=10))


def test_verify_rejects_corrupted_map(P32):
    maps = enumerate_poset_automorphisms(P32)
    good = list(maps[3].perm)
    # swap two images of the same grade to keep it a permutation
    a, b = P32.atoms[0], P32.atoms[1]
    good[a], good[b] = good[b], good[a]
    corrupted = PosetMap(tuple(good), UNKNOWN)
    with pytest.raises(FalsificationError):
        verify_poset_map(corrupted, P32)


def test_verify_poset_map_builds_no_pair_colours(L32):
    """Verifying one map checks atomisticity and builds the lift plan, once
    per poset, without the search's pair colours; a poset whose order is
    not atom-set inclusion is refused."""
    P = build_projection_poset(L32)
    calls = []
    check = P.verify_atomistic
    P.verify_atomistic = lambda: calls.append(1) or check()
    ident = tuple(range(P.size))
    autos.verify_poset_map(ident, P)
    autos.verify_poset_map(ident, P)
    assert calls == [1]
    assert not hasattr(P, "_auto_search_cache")

    bad = build_projection_poset(L32)
    bad.up_masks[bad.atoms[0]] |= 1 << bad.atoms[1]
    with pytest.raises(FalsificationError):
        autos.verify_poset_map(ident, bad)


def _reference_image_masks(S, sigma):
    """Reference image atom sets of an atom permutation of S, a lattice or
    a poset: one OR per atom-element incidence."""
    bit = [1 << y for y in sigma]
    out = []
    for mask in S.elem_atom_masks:
        nm = 0
        for t in lattice_bits(mask):
            nm |= bit[t]
        out.append(nm)
    return out


def _reference_lift(S, sigma):
    """Each element's reference image atom set looked up in S's atom-mask
    index, None when no element has it."""
    return [S.atom_mask_index.get(m) for m in _reference_image_masks(S, sigma)]


def _reference_expand(P, sigma):
    """The search leaf's check on the reference lift: bijective, and
    commuting with the orthocomplementation element by element."""
    eperm = _reference_lift(P, sigma)
    if None in eperm or len(set(eperm)) != P.size:
        return None
    if any(eperm[P.ortho[e]] != P.ortho[eperm[e]] for e in range(P.size)):
        return None
    return tuple(eperm)


def _assert_lift_matches_reference(S, sigma):
    plan = autos._lift_plan(S)
    assert autos._lift_atom_perm(plan, sigma, int) == _reference_image_masks(S, sigma)
    assert autos._lift_atom_perm(plan, sigma, S.atom_mask_index.get) == _reference_lift(S, sigma)
    if hasattr(S, "ortho"):
        assert expand_poset_atom_perm(S, sigma) == _reference_expand(S, sigma)


def test_product_lift_matches_reference_on_every_leaf_of_a_branch_42(P42, monkeypatch):
    leaves = []
    leaf = autos.expand_poset_atom_perm
    monkeypatch.setattr(
        autos, "expand_poset_atom_perm", lambda P, perm: leaves.append(perm) or leaf(P, perm)
    )
    _, targets = poset_search_plan(P42)
    found = list(iter_poset_atom_perms(P42, restrict_first={targets[7]}))
    assert len(found) == len(leaves) == 336
    for sigma in leaves:
        _assert_lift_matches_reference(P42, sigma)


@pytest.mark.parametrize("ambient, maps", [("P22", 48), ("P32", 336)])
def test_product_lift_matches_reference_on_every_automorphism(ambient, maps, request):
    P = request.getfixturevalue(ambient)
    found = enumerate_poset_automorphisms(P)
    assert len(found) == maps
    for m in found:
        sigma = tuple(P.atom_ordinal[m.perm[a]] for a in P.atoms)
        _assert_lift_matches_reference(P, sigma)
        assert expand_poset_atom_perm(P, sigma) == m.perm


@pytest.mark.parametrize(
    "n, spec", [(2, "2"), (2, "3"), (3, "2"), (3, "3"), (4, "2"), (3, "2^2"), (3, "5")]
)
def test_product_lift_matches_reference_on_seeded_perms(n, spec):
    """Random atom permutations; near misses, a genuine automorphism (the
    duality's odd map) with two atom images swapped; and a map that is
    not a permutation of the atoms, which no lift accepts."""
    L = enumerate_subspaces(n, parse_field(spec))
    P = build_projection_poset(L)
    m = len(P.atoms)
    rng = random.Random(n * 100 + len(spec))
    gamma = poset_atom_perm_from_lattice(P, standard_duality(L).perm, odd=True)
    assert expand_poset_atom_perm(P, gamma) is not None
    _assert_lift_matches_reference(P, gamma)
    for _ in range(4):
        sigma = list(range(m))
        rng.shuffle(sigma)
        _assert_lift_matches_reference(P, sigma)
        near = list(gamma)
        i, j = rng.sample(range(m), 2)
        near[i], near[j] = near[j], near[i]
        _assert_lift_matches_reference(P, near)
        lattice_sigma = list(range(len(L.atoms)))
        rng.shuffle(lattice_sigma)
        _assert_lift_matches_reference(L, lattice_sigma)
    clash = list(gamma)
    clash[0] = clash[1]
    assert expand_poset_atom_perm(P, clash) is None
    assert _reference_expand(P, clash) is None


def test_product_lift_refuses_masks_that_are_not_products(L32):
    """A poset whose atom sets are not image x kernel products is refused
    before any lift, although its order is still atom-set inclusion."""
    P = build_projection_poset(L32)
    P.elem_atom_masks[P.top] &= ~1
    assert P.verify_atomistic()
    with pytest.raises(FalsificationError, match="not image x kernel products"):
        poset_search_plan(P)
    with pytest.raises(FalsificationError, match="not image x kernel products"):
        verify_poset_map(tuple(range(P.size)), P)


def test_verify_poset_map_is_not_a_search_leaf(P32, monkeypatch):
    """Only the poset search goes through expand_poset_atom_perm, so a
    wrapper on that name counts search leaves and nothing else."""
    maps = enumerate_poset_automorphisms(P32)
    monkeypatch.setattr(autos, "expand_poset_atom_perm", None)
    for m in maps[:20]:
        verify_poset_map(m, P32)
    with pytest.raises(TypeError):
        next(iter_poset_atom_perms(P32))


def _reference_classify_parity(perm, P):
    """Reference: parity classification as it was before the families with
    two or more members were listed once, both sets built per family."""
    img, ker = P.image, P.kernel
    verdict = None
    bad = []
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


def _parity_outcome(classify, perm, P):
    try:
        return classify(perm, P)
    except FalsificationError as exc:
        return str(exc), exc.payload
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("ambient", ["P22", "P32", "P42"])
def test_classify_parity_matches_reference(ambient, request):
    """Every payload byte agrees with the reference: on even and odd maps,
    on conflicting maps (even on some families, odd on others), on mixed
    maps (one family split between the two) and on random permutations."""
    P = request.getfixturevalue(ambient)
    L = P.lattice
    rng = random.Random(len(P.atoms))
    f = next(iter_lattice_atom_perms(L, restrict_first={lattice_search_plan(L)[1][-1]}))[1]
    even = even_from_lattice_automorphism(LatticeMap(f, AUTO), P).perm
    g = perm_compose(f, standard_duality(L).perm)
    odd = odd_from_anti_automorphism(LatticeMap(g, ANTI), P).perm
    families = P.image_families
    assert families == [(a, grp) for a, grp in P.by_image.items() if len(grp) > 1]
    cases = [even, odd, tuple(range(P.size))]
    for _ in range(3):
        chosen = {a for a, _ in rng.sample(families, len(families) // 2)}
        cases.append(tuple(e if P.image[i] in chosen else o
                           for i, (e, o) in enumerate(zip(even, odd))))
        _, group = rng.choice(families)
        split = set(group[: len(group) // 2])
        cases.append(tuple(o if i in split else e for i, (e, o) in enumerate(zip(even, odd))))
        shuffled = list(range(P.size))
        rng.shuffle(shuffled)
        cases.append(tuple(shuffled))
    outcomes = set()
    for perm in cases:
        want = _parity_outcome(_reference_classify_parity, perm, P)
        assert _parity_outcome(classify_parity, perm, P) == want
        outcomes.add(want if isinstance(want, str) else "violations")
    assert {EVEN, ODD, "violations"} <= outcomes


def _reference_verify_poset_map(perm, P):
    """Reference: the poset-map check with its own lift loop and ortho
    loop, as it was before it went through expand_poset_atom_perm."""
    sigma = []
    for a in P.atoms:
        if perm[a] not in P.atom_ordinal:
            raise FalsificationError("atom image is not an atom")
        sigma.append(P.atom_ordinal[perm[a]])
    lifted = _reference_lift(P, sigma)
    if any(lifted[e] != perm[e] for e in range(P.size)):
        raise FalsificationError("element image disagrees with its atom set")
    if any(perm[P.ortho[e]] != P.ortho[perm[e]] for e in range(P.size)):
        raise FalsificationError("map does not commute with orthocomplementation")


def _reference_decompose(phi, P):
    """Reference: decomposition by a consistency set per family and a
    totality scan, then the lattice-map check and the rebuild, as it was
    before the rebuild alone decided it."""
    L = P.lattice
    parity = classify_parity(phi, P)
    f_perm = [None] * L.size
    for a, group in (P.by_image if parity == EVEN else P.by_kernel).items():
        targets = {P.image[phi.perm[i]] for i in group}
        if len(targets) != 1:
            raise FalsificationError("witness recovery saw inconsistent images")
        f_perm[a] = targets.pop()
    if None in f_perm:
        raise FalsificationError("witness recovery is not total")
    fmap = LatticeMap(tuple(f_perm), AUTO if parity == EVEN else ANTI)
    autos.verify_lattice_map(fmap, L)
    construct = even_from_lattice_automorphism if parity == EVEN else odd_from_anti_automorphism
    if construct(fmap, P).perm != phi.perm:
        raise FalsificationError("recovered witness does not reproduce the poset map")
    return fmap


def _outcomes(perm, P):
    """(verified, witness) for the library and for the references: a
    check that raises reads False, a decomposition that raises None."""

    def run(check, decompose):
        try:
            check(perm, P)
            verified = True
        except FalsificationError:
            verified = False
        try:
            w = decompose(PosetMap(perm, UNKNOWN), P)
            witness = (w.perm, w.direction)
        except (FalsificationError, ValueError):
            witness = None
        return verified, witness

    return (
        run(verify_poset_map, decompose_poset_automorphism),
        run(_reference_verify_poset_map, _reference_decompose),
    )


@pytest.mark.parametrize("ambient, maps", [("P22", 48), ("P32", 336)])
def test_checks_match_references_on_every_automorphism(ambient, maps, request):
    P = request.getfixturevalue(ambient)
    found = enumerate_poset_automorphisms(P)
    assert len(found) == maps
    for m in found:
        got, want = _outcomes(m.perm, P)
        assert got == want and got[0]


def test_checks_match_references_on_a_branch_42(P42):
    _, targets = poset_search_plan(P42)
    count = 0
    for _, eperm in iter_poset_atom_perms(P42, restrict_first={targets[5]}):
        got, want = _outcomes(eperm, P42)
        assert got == want and got[0] and got[1] is not None
        count += 1
    assert count == 336


def _corrupted(P, base, how):
    """base with the images of two elements swapped: two atoms of the same
    grade ("atoms"), or an atom and an element of grade 2 ("non-atom")."""
    perm = list(base)
    a = P.atoms[0]
    if how == "atoms":
        b = P.atoms[1]
    else:
        b = next(e for e in range(P.size) if P.grade[e] == 2)
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


@pytest.mark.parametrize("ambient", ["P22", "P32", "P42"])
@pytest.mark.parametrize("how", ["atoms", "non-atom"])
def test_checks_match_references_on_corrupted_maps(ambient, how, request):
    P = request.getfixturevalue(ambient)
    _, eperm = next(iter_poset_atom_perms(P, restrict_first={poset_search_plan(P)[1][-1]}))
    perm = _corrupted(P, eperm, how)
    got, want = _outcomes(perm, P)
    assert got == want == (False, None)
    with pytest.raises(FalsificationError) as exc:
        verify_poset_map(perm, P)
    sigma = tuple(P.atom_ordinal.get(perm[a]) for a in P.atoms)
    assert exc.value.payload == {"atom_perm": sigma}
    assert (None in sigma) == (how == "non-atom")


def test_checks_match_references_on_an_ortho_breaking_swap(P22):
    """At (2,2) the atoms form an antichain, so swapping two atoms that are
    not each other's orthocomplement lifts to an order automorphism, which
    the orthocomplement check alone rejects."""
    a = P22.atoms[0]
    b = next(x for x in P22.atoms[1:] if x != P22.ortho[a])
    perm = list(range(P22.size))
    perm[a], perm[b] = b, a
    perm = tuple(perm)
    sigma = tuple(P22.atom_ordinal[perm[x]] for x in P22.atoms)
    assert tuple(_reference_lift(P22, sigma)) == perm
    assert expand_poset_atom_perm(P22, sigma) is None
    got, want = _outcomes(perm, P22)
    assert got == want and not got[0]


def test_lattice_search_checks_atomisticity_once():
    L = enumerate_subspaces(3, parse_field("2"))
    calls = []
    check = L.verify_atomistic
    L.verify_atomistic = lambda: calls.append(1) or check()
    for _ in range(2):
        assert len(list(iter_lattice_atom_perms(L))) == 168
    assert calls == [1]
    assert len(autos._lattice_search_structure(L)) == 2  # pruning data only


def test_main_theorem_budget_applies_to_each_search(L32, P32):
    """At (3,2) the campaign runs 2,387 nodes in all: 259 in the lattice
    search and at most 76 in any poset branch. A budget of 259 therefore
    completes it, and 258 stops the lattice search."""
    from projlat.autos import verify_main_theorem

    stats = {}
    list(iter_lattice_atom_perms(L32, stats=stats))
    nodes = [stats["nodes"]]
    for target in poset_search_plan(P32)[1]:
        list(iter_poset_atom_perms(P32, restrict_first={target}, stats=stats))
        nodes.append(stats["nodes"])
    assert (sum(nodes), nodes[0], max(nodes[1:])) == (2387, 259, 76)

    rep = verify_main_theorem(L32, P32, budget=259)
    assert rep.passed and rep.outcome is None
    assert rep.counts["poset_automorphisms"] == 336
    rep = verify_main_theorem(L32, P32, budget=258)
    assert rep.outcome == "partial" and not rep.passed


def test_parity_composition_algebra():
    from projlat.maps import compose_parities

    assert compose_parities(EVEN, EVEN) == EVEN
    assert compose_parities(EVEN, ODD) == ODD
    assert compose_parities(ODD, EVEN) == ODD
    assert compose_parities(ODD, ODD) == EVEN


def test_main_theorem_report_is_independent_of_jobs(L32, P32):
    """One library campaign, serial and in a pool of two spawned workers:
    the serialized reports are byte-identical."""
    from projlat import canonical_json, report_to_jsonable
    from projlat.autos import verify_main_theorem

    docs = [
        canonical_json(report_to_jsonable(
            verify_main_theorem(L32, P32, jobs=jobs)
        ))
        for jobs in (1, 2)
    ]
    assert docs[0] == docs[1]
    assert '"poset_automorphisms":336' in docs[0] and '"status":"pass"' in docs[0]
