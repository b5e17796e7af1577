"""The automorphism engine: backtracking enumeration on both levels,
even/odd construction, parity classification, and decomposition."""

import itertools
import json
import math
import random
import tracemalloc

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
    identity_perm,
    match_semilinear,
    odd_from_anti_automorphism,
    perm_compose,
    projective_group_order,
    restrict_to_projections,
    standard_duality,
    transpose_anti_automorphism,
    verify_lattice_map,
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
from projlat.lattice import (
    AmbientTooLarge,
    NotAnAtomPermutation,
    SubspaceLattice,
    _bits as lattice_bits,
    _count_text,
    atom_masks,
    check_limit,
)
from projlat.matrices import all_matrices, rank, vec_mat
from projlat.projposet import NO_ATOM, ProjectionPoset, verify_omp_axioms
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
    with pytest.raises(AmbientTooLarge):
        semilinear_atom_perms(enumerate_subspaces(4, parse_field("3")))
    assert len(semilinear_atom_perms(L34)) == projective_group_order(3, 4, 2)
    # the bound is on |PGammaL(n, q)|, inclusive
    monkeypatch.setattr(autos, "SEMILINEAR_LIMIT", 5615)
    with pytest.raises(ValueError):
        semilinear_atom_perms(L33)
    monkeypatch.setattr(autos, "SEMILINEAR_LIMIT", 5616)
    assert len(semilinear_atom_perms(L33)) == 5616


def test_semilinear_check_lets_every_oracle_error_propagate(L32, monkeypatch):
    """check_semilinear_generation skips nothing: the oracle's refusal of
    an ambient, which no admitted lattice search reaches, propagates out
    of the check, and so does any other ValueError raised inside the
    oracle; neither passes the check."""
    keys = semilinear_atom_perms(L32)
    rep = autos.CampaignReport("semilinear", (3, "2"))
    autos.check_semilinear_generation(rep, L32, keys, "kept", "semilinear set {}")
    assert rep.checks == [("kept", True, "semilinear set 168")]
    monkeypatch.setattr(autos, "SEMILINEAR_LIMIT", 167)
    with pytest.raises(AmbientTooLarge):
        autos.check_semilinear_generation(rep, L32, keys, "refused", "semilinear set {}")
    monkeypatch.undo()

    def broken(*args):
        raise ValueError("not an ambient refusal")

    monkeypatch.setattr(autos, "vec_mat", broken)
    with pytest.raises(ValueError, match="not an ambient refusal"):
        autos.check_semilinear_generation(rep, L32, keys, "broken", "semilinear set {}")
    assert len(rep.checks) == 1


@pytest.mark.parametrize("n, spec, maps, semi", [(2, "5", 720, 120), (3, "2", 168, 168)])
def test_semilinear_check_compares_by_inclusion_only_below_3(n, spec, maps, semi):
    """At n <= 2 every atom permutation extends, so the oracle's set need
    only lie among the searched keys: (2,5) has 720 maps and PGammaL(2,5)
    120. At n >= 3 the two sets must be equal. Either way a key set
    missing one semilinear map fails, and at n >= 3 so does one holding
    an atom permutation that is no automorphism."""
    L = enumerate_subspaces(n, parse_field(spec))
    keys = {bytes(aperm) for aperm, _ in iter_lattice_atom_perms(L)}
    oracle = semilinear_atom_perms(L)
    assert (len(keys), len(oracle)) == (maps, semi)
    rep = autos.CampaignReport("semilinear", (n, spec))
    autos.check_semilinear_generation(rep, L, keys, "all", "{}")
    autos.check_semilinear_generation(rep, L, keys - {min(oracle)}, "missing", "{}")
    verdicts = [("all", True, str(semi)), ("missing", False, str(semi))]
    if n >= 3:
        swap = bytes([1, 0, *range(2, len(L.atoms))])
        assert swap not in keys
        autos.check_semilinear_generation(rep, L, keys | {swap}, "extra", "{}")
        verdicts.append(("extra", False, str(semi)))
    assert rep.checks == verdicts


def test_expected_lattice_automorphism_counts():
    """(number of atoms)! at n <= 2, |PGammaL(n, q)| from n = 3 up; those
    counts, not the atoms, bound the lattice searches."""
    count = autos.expected_lattice_automorphism_count
    assert [count(1, 4, 2), count(2, 5, 1), count(2, 8, 3), count(2, 9, 2)] == [
        1, 720, 362880, 3628800,
    ]
    assert count(3, 5, 1) == projective_group_order(3, 5, 1) == 372000
    assert count(4, 2, 1) == 20160 and count(3, 4, 2) == 120960


def test_search_bound_names_a_long_count_by_its_size():
    """Counts of up to 30 digits are written out; a longer one by its first
    four digits, power of ten and digit count, also beyond the 4 300
    digits str() writes and across a power of ten."""
    text = _count_text
    assert text(10**30 - 1) == "9" * 30
    assert text(10**30) == "1.000e30 (31 digits)"
    assert text(10**31 - 1) == "9.999e30 (31 digits)"
    assert text(math.factorial(252)) == "2.044e497 (498 digits)"
    assert text(7 * 10**5000 + 1) == "7.000e5000 (5001 digits)"
    with pytest.raises(AmbientTooLarge, match=r"^2\.044e497 \(498 digits\) maps exceeds"):
        check_limit(math.factorial(252), "maps", "search bound", 2**20)


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
        def recording_narrow(x, y, *state):
            branched.append(x)
            return narrow(x, y, *state)

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
    lookup of every image pair in P.pair_rows."""
    gamma = standard_duality(L42)
    ordinal = {a: t for t, a in enumerate(P42.atoms)}
    for f in random.Random(11).sample(aut_l42, 50):
        g = LatticeMap(perm_compose(f.perm, gamma.perm), ANTI)
        phi = even_from_lattice_automorphism(f, P42)
        psi = odd_from_anti_automorphism(g, P42)
        verify_poset_map(phi, P42)
        verify_poset_map(psi, P42)
        rows = P42.pair_rows
        assert phi.perm == tuple(rows[f.perm[a]][f.perm[b]] for a, b in P42.pairs)
        assert psi.perm == tuple(rows[g.perm[b]][g.perm[a]] for a, b in P42.pairs)
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
        missing = next((a, b) for a, b in images if P42.pair_rows[a][b] is None)
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


def _pair_keys(P):
    """The poset search's invariants, computed afresh: each atom's unary
    class, its counts of elements above it and above both it and its
    orthocomplement, and key(i, j) of the ordered atom pair (i, j), how
    many elements lie above both x_i and x_j and whether x_i <= o_j."""
    up, atoms, ortho = P.up_masks, P.atoms, P.ortho
    unary = [(up[x].bit_count(), (up[x] & up[ortho[x]]).bit_count()) for x in atoms]

    def key(i, j):
        xi, xj = atoms[i], atoms[j]
        return (up[xi] & up[xj]).bit_count(), bool(up[xi] >> ortho[xj] & 1)

    return unary, key


def _legacy_pair_keys(P):
    """The eight-field keys the pair colors were once built from, as
    _pair_keys gives them: grade profiles of the same two up-sets as unary
    classes, and key(i, j) of the unary classes of x_i and x_j, whether
    x_j = o_i, x_i <= o_j and x_j <= o_i, and grade by grade how many
    elements lie above x_i and x_j, above x_i and o_j, and above o_i and
    x_j."""
    grade_masks = [0] * (max(P.grade) + 1)
    for e in range(P.size):
        grade_masks[P.grade[e]] |= 1 << e
    up, atoms, ortho = P.up_masks, P.atoms, P.ortho

    def profile(mask):
        return tuple((mask & gm).bit_count() for gm in grade_masks)

    unary = [(profile(up[x]), profile(up[x] & up[ortho[x]])) for x in atoms]

    def key(i, j):
        xi, xj = atoms[i], atoms[j]
        return (
            unary[i],
            unary[j],
            xj == ortho[xi],
            bool(up[xi] >> ortho[xj] & 1),
            bool(up[xj] >> ortho[xi] & 1),
            profile(up[xi] & up[xj]),
            profile(up[xi] & up[ortho[xj]]),
            profile(up[ortho[xi]] & up[xj]),
        )

    return unary, key


def _initial_candidates(unary):
    """Each atom's initial candidates: the atoms of its unary class."""
    masks = {}
    for t, u in enumerate(unary):
        masks[u] = masks.get(u, 0) | (1 << t)
    return [masks[u] for u in unary]


def _colors_by_ordered_pairs(P, keys=_pair_keys):
    """Reference: the poset search's atom-pair colors keyed one ordered pair
    at a time by keys(P). Returns (initial candidates, colors, allowed) with
    allowed[y] a dict from color to the mask of the y2 with colors[y][y2]
    equal to it."""
    unary, key = keys(P)
    m = len(unary)
    color_ids = {}
    colors = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                colors[i][j] = color_ids.setdefault(key(i, j), len(color_ids))
    allowed = [dict() for _ in range(m)]
    for y in range(m):
        for y2 in range(m):
            if y2 != y:
                c = colors[y][y2]
                allowed[y][c] = allowed[y].get(c, 0) | (1 << y2)
    return _initial_candidates(unary), colors, allowed


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


REFERENCE_AMBIENTS = [(2, "2"), (2, "3"), (3, "2"), (3, "3"), (4, "2"), (3, "2^2")]


@pytest.mark.parametrize("n, spec", REFERENCE_AMBIENTS)
def test_poset_colors_match_ordered_pair_reference(n, spec):
    """The colors match the reference, and on P they are symmetric: x_i <=
    o_j exactly when x_j <= o_i."""
    colors = _assert_matches_reference(
        build_projection_poset(enumerate_subspaces(n, parse_field(spec)))
    )
    assert all(row[j] == colors[j][i] for i, row in enumerate(colors) for j in range(len(row)))


@pytest.mark.parametrize("n, spec", REFERENCE_AMBIENTS)
def test_pair_key_splits_pairs_as_the_legacy_key(n, spec):
    """The two-field key and the eight-field key it replaced split the
    ordered atom pairs into the same classes, and the unary counts and
    grade profiles the atoms alike: dense in order of first sight, the
    colors and the initial candidates are equal."""
    P = build_projection_poset(enumerate_subspaces(n, parse_field(spec)))
    init_cand, colors, _ = _colors_by_ordered_pairs(P)
    legacy_cand, legacy_colors, _ = _colors_by_ordered_pairs(P, _legacy_pair_keys)
    assert init_cand == legacy_cand
    assert colors == legacy_colors


def _corrupt(P, how):
    """Corrupt P's order in place, in one of three ways. flip: one bit of
    the up-set of an atom x mid-way in the atom order, so that x's pairs
    are met both first and mirrored. trade: one element above x traded for
    x's own orthocomplement, of the same grade, so that only the second of
    x's unary counts changes. orient: for each pair of atoms below each
    other's orthocomplements, a seeded choice of one of the two relations
    is dropped, so that the colors of (i, j) and (j, i) differ both for
    i < j and for i > j. The atom sets the colors read are rebuilt from
    the corrupted up-sets after the atomisticity guard has passed the
    clean order, whose kept verdict lets the colors be built from the
    corrupted one; the leaf lift keeps the clean order's product factors."""
    autos._require_atomistic(P)
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
    P.elem_atom_masks = atom_masks(up, atoms)


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


@pytest.mark.parametrize(
    "n, spec, seed, branch, maps, even",
    [
        pytest.param(3, "2", 1, None, 336, 168, id="3-1-None"),
        pytest.param(3, "2", 2, None, 336, 168, id="3-2-None"),
        pytest.param(4, "2", 3, 0, 336, 168, id="4-3-0"),
        pytest.param(3, "3", 4, 0, 96, 48, id="3x3-4-0"),
    ],
)
def test_poset_from_shuffled_pairs_has_the_same_automorphisms(n, spec, seed, branch, maps, even):
    """P built from a seeded shuffle of its pairs, so with its elements,
    atoms and ortho pairs renumbered, keeps its bottom, top and ortho, and
    its search finds the same maps: the 336 of P(3,2), and the 336 of one
    root branch of P(4,2), 168 of them even either way; and the 96 of one
    root branch of P(3,3), 48 of them even (11 232 over its 117 root
    targets). A list missing one pair, and with it the partner of another,
    is refused."""
    L = enumerate_subspaces(n, parse_field(spec))
    pairs = list(build_projection_poset(L).pairs)
    random.Random(seed).shuffle(pairs)
    with pytest.raises(ValueError, match="lack bottom, top or the swap"):
        ProjectionPoset(L, pairs[1:])
    P = ProjectionPoset(L, pairs)
    assert P.pairs[P.bottom] == (L.bottom, L.top) and P.pairs[P.top] == (L.top, L.bottom)
    assert all(P.pairs[o] == (b, a) for o, (a, b) in zip(P.ortho, pairs))
    restrict = None if branch is None else {poset_search_plan(P)[1][branch]}
    found = iter_poset_atom_perms(P, restrict_first=restrict)
    parities = [classify_parity(eperm, P) for _, eperm in found]
    assert (len(parities), parities.count(EVEN)) == (maps, even)


def test_lattice_shuffled_within_each_dimension_has_the_same_automorphisms():
    """L(3,2) built from a seeded shuffle of its elements within each
    dimension has the 168 lattice automorphisms whose atom actions
    semilinear_atom_perms generates on it, and its P has 58 elements and
    336 orthoposet automorphisms, 168 of them even. The same elements
    shuffled across dimensions are refused."""
    F = parse_field("2")
    elements = enumerate_subspaces(3, F).elements
    rng = random.Random(10)
    runs = [[s for s in elements if s.dim == d] for d in range(4)]
    for run in runs:
        rng.shuffle(run)
    L = SubspaceLattice(F, 3, [s for run in runs for s in run])
    assert L.elements != elements
    ordinal = L.atom_ordinal
    searched = {bytes(ordinal[f.perm[a]] for a in L.atoms) for f in enumerate_lattice_automorphisms(L)}
    assert len(searched) == 168 and searched == semilinear_atom_perms(L)
    P = build_projection_poset(L)
    parities = [classify_parity(eperm, P) for _, eperm in iter_poset_atom_perms(P)]
    assert (P.size, len(parities), parities.count(EVEN)) == (58, 336, 168)
    shuffled = list(elements)
    rng.shuffle(shuffled)
    with pytest.raises(ValueError, match="not in dimension order"):
        SubspaceLattice(F, 3, shuffled)


@pytest.mark.parametrize(
    "change, message",
    [
        ("wrap", "poset map entry 1 is -57, outside range(58)"),
        ("repeat", "poset map entries 1 and 2 are both 2"),
        ("past", "poset map entry 1 is 58, outside range(58)"),
    ],
    ids=["wrap", "repeat", "past"],
)
def test_classify_parity_refuses_a_bare_map_that_is_no_permutation(P32, change, message):
    """The identity of P(3,2) with atom 1's entry made 1 - |P| (an index
    from the end), 2 (the entry of another member of its image family, so
    every family still reads even) or |P| (past the end) is refused."""
    perm = list(range(P32.size))
    assert P32.atoms[0] == 1 and P32.image[1] == P32.image[2]
    perm[1] = {"wrap": 1 - P32.size, "repeat": 2, "past": P32.size}[change]
    with pytest.raises(ValueError) as exc:
        classify_parity(tuple(perm), P32)
    assert str(exc.value) == message


def _keys_by_rows(P, rows, keys=_pair_keys):
    """A row-restricted copy of _colors_by_ordered_pairs: the key of every
    ordered pair (i, j), i != j, with i or j in rows, keyed one pair at a
    time by keys(P), and the initial candidates."""
    unary, key = keys(P)
    m = len(unary)
    pairs = {(r, t) for r in rows for t in range(m)} | {(t, r) for r in rows for t in range(m)}
    return _initial_candidates(unary), {(i, j): key(i, j) for i, j in pairs if i != j}


@pytest.fixture(scope="module")
def P35_rows():
    """P at (3,5), 775 atoms, where the full reference costs seconds, and
    40 seeded atoms whose rows and columns are compared instead."""
    P = build_projection_poset(enumerate_subspaces(3, parse_field("5")))
    return P, random.Random(35).sample(range(len(P.atoms)), 40)


def _same_classes(keys, other):
    """The map from the values of keys to those of other when the two
    dicts, over the same pairs, split them into the same classes; else
    None."""
    to_other, from_other = {}, {}
    for pair, key in keys.items():
        o = other[pair]
        if to_other.setdefault(key, o) != o or from_other.setdefault(o, key) != key:
            return None
    return to_other


def test_poset_colors_match_row_restricted_reference_35(P35_rows):
    """Colors and allowed masks under renaming on the seeded rows and
    columns, initial candidates in full."""
    P, rows = P35_rows
    init_cand, colors, allowed = autos._poset_search_structure(P)
    ref_cand, keys = _keys_by_rows(P, rows)
    assert init_cand == ref_cand
    from_key = _same_classes(keys, {(i, j): colors[i][j] for i, j in keys})
    assert from_key is not None
    assert sorted(from_key.values()) == list(range(len(allowed[0])))
    for y in rows:
        want = {}
        for y2 in range(len(P.atoms)):
            if y2 != y:
                c = from_key[keys[y, y2]]
                want[c] = want.get(c, 0) | 1 << y2
        assert allowed[y] == [want.get(c, 0) for c in range(len(allowed[y]))]


def test_pair_key_splits_rows_as_the_legacy_key_35(P35_rows):
    P, rows = P35_rows
    init_cand, keys = _keys_by_rows(P, rows)
    legacy_cand, legacy = _keys_by_rows(P, rows, _legacy_pair_keys)
    assert init_cand == legacy_cand
    assert _same_classes(keys, legacy) is not None


class _BareOrder:
    """What the pair colors read of a poset, and no more: m atoms at grade
    1, their orthocomplements at grade 2, and the elements add() puts
    above chosen atoms, each its own orthocomplement."""

    def __init__(self, m):
        self.atoms = list(range(m))
        self.grade = [1] * m + [2] * m
        self.ortho = [m + t for t in range(m)] + list(range(m))
        self.up_masks = [1 << e for e in range(2 * m)]
        self.size = 2 * m

    def add(self, grade, below):
        """A new element at grade, above the elements in below."""
        e = self.size
        self.size += 1
        self.grade.append(grade)
        self.ortho.append(e)
        self.up_masks.append(1 << e)
        for b in below:
            self.up_masks[b] |= 1 << e
        return e

    # a fake: the atomisticity guard of the pair colors reads this verdict
    atomistic = True

    @property
    def elem_atom_masks(self):
        return atom_masks(self.up_masks, self.atoms)


def _filled_order(counts):
    """Three atoms, x0 below o1 and, for each counts[k] = c, c elements at
    grade 3 + k above x0 and x1. The largest atom up-set is x0's: x0, o1
    and sum(counts) more. (0, 1) sets its flag above a count of
    sum(counts), and (1, 0) differs from it in the flag only."""
    P = _BareOrder(3)
    P.up_masks[0] |= 1 << P.ortho[1]
    for k, c in enumerate(counts):
        for _ in range(c):
            P.add(3 + k, [0, 1])
    return P


# the count bits of a slot hold the largest atom up-set, 2 + sum(counts)
# elements in _filled_order(counts), summed over the grades; the flag
# takes one more bit
@pytest.mark.parametrize(
    "counts, slot_bytes",
    [
        ([2**6, 2**6 - 3], 1),
        ([2**6, 2**6 - 2], 2),
        ([2**14, 2**14 - 3], 2),
        ([2**14, 2**14 - 2], 4),
    ],
)
def test_pair_key_fields_fill_their_slot(counts, slot_bytes, monkeypatch):
    """Up-sets of 2^k - 1 elements fill k count bits and 2^k takes k + 1:
    the key fits a 1- or 2-byte slot exactly, or takes the next one, and
    the colors still match the reference."""
    slots = []
    slot_bytes_of = autos._slot_bytes

    def recording(bits):
        slots.append(slot_bytes_of(bits))
        return slots[-1]

    monkeypatch.setattr(autos, "_slot_bytes", recording)
    colors = _assert_matches_reference(_filled_order(counts))
    assert slots == [slot_bytes, 1]  # the key slot, then the color ids
    assert len({colors[0][1], colors[1][0], colors[0][2]}) == 3


def test_pair_flag_splits_and_orients_pairs():
    """x0 below o1 and nothing else above an atom: every pair counts no
    element above both atoms, and the flag alone sets (0, 1) apart from
    the other pairs, (1, 0) among them."""
    P = _BareOrder(3)
    P.up_masks[0] |= 1 << P.ortho[1]
    _, key = _pair_keys(P)
    assert {key(i, j)[0] for i in range(3) for j in range(3) if i != j} == {0}
    colors = _assert_matches_reference(P)
    others = {
        c for i, row in enumerate(colors) for j, c in enumerate(row) if i != j and {i, j} != {0, 1}
    }
    assert others == {colors[1][0]} and colors[0][1] not in others


def test_more_than_256_pair_colors():
    """x_i below o_j for all i < j among 130 atoms: (i, j) has the flag
    when i < j, and counts the o_k above both atoms, one for each k above
    max(i, j). Its 129 counts and two flags give 258 colors, row by row:
    colors[y2][2] are 1 for y2 < 2 and 128 + y2 above, so allowed is read
    off color ids of two bytes, some of which agree in one."""
    P = _BareOrder(130)
    for i in range(130):
        for j in range(i + 1, 130):
            P.up_masks[i] |= 1 << P.ortho[j]
    colors = _assert_matches_reference(P)
    assert colors[129][2] - colors[0][2] == 256
    assert len({c for i, row in enumerate(colors) for j, c in enumerate(row) if i != j}) == 258


def _assert_same_ids_as_reference(P):
    """The colors equal the reference's off the diagonal, ids and all, so
    they are dense in order of first sight over the pairs, row by row;
    returns the colors and allowed."""
    _assert_matches_reference(P)
    _, colors, allowed = autos._poset_search_structure(P)
    _, ref_colors, _ = _colors_by_ordered_pairs(P)
    m = len(colors)
    assert all(colors[i][j] == ref_colors[i][j] for i in range(m) for j in range(m) if i != j)
    return colors, allowed


def test_row_whose_first_new_key_is_in_its_last_slot():
    """x1 below o3 and nothing else above an atom: row 0 holds one key,
    and row 1's first new key, its flag, is met in its last slot. The
    rows after it lack that color, so their allowed entries for it are 0."""
    P = _BareOrder(4)
    P.up_masks[1] |= 1 << P.ortho[3]
    colors, allowed = _assert_same_ids_as_reference(P)
    assert list(colors[1]) == [0, 0, 0, 1]
    assert allowed[1] == [0b0101, 0b1000]
    assert [masks[1] for masks in allowed] == [0, 0b1000, 0, 0]


def test_row_whose_first_new_key_follows_the_diagonal():
    """Among 5 atoms, x2 below o3 and one element above x2 and x4: rows 0
    and 1 hold one key, and row 2 meets two new keys, the first in slot 3,
    right after the diagonal, then one in slot 4; they take ids 1 and 2
    in that order. Row 3 lacks both, and row 4 the first."""
    P = _BareOrder(5)
    P.up_masks[2] |= 1 << P.ortho[3]
    P.add(3, [2, 4])
    colors, allowed = _assert_same_ids_as_reference(P)
    assert list(colors[2]) == [0, 0, 0, 1, 2]
    assert allowed[2] == [0b00011, 0b01000, 0b10000]
    assert allowed[3][1:] == [0, 0] and allowed[4][1] == 0


def test_diagonal_key_met_off_the_diagonal_stays_out_of_allowed():
    """An order with x1 below x0, so x0 and x1 share x0's up-set: the key
    of (0, 1) then equals row 0's diagonal key, |up(x0)| and no flag. In a
    poset no atom lies below another, so every off-diagonal count of a row
    is below its diagonal one; the colors must leave the diagonal out of
    allowed all the same."""
    P = _BareOrder(3)
    P.up_masks[1] |= 1 << 0
    colors, allowed = _assert_same_ids_as_reference(P)
    assert allowed[0][colors[0][1]] == 0b010


def test_pair_colors_at_35_retain_under_2_mb(P35_rows):
    """The colors are kept as one packed row per atom: at (3,5), 775 atoms,
    the search structure keeps under 2 MB, where rows of 775 list entries
    would take 4.8 MB alone."""
    P, _ = P35_rows
    autos._require_atomistic(P)
    vars(P).pop("_auto_search_cache", None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        structure = autos._poset_search_structure(P)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(isinstance(row, bytes) for row in structure[1])
    assert retained < 2 * 10**6


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
    """Verifying one map checks atomisticity once per poset, without the
    search's pair colours; a poset whose order is not atom-set inclusion
    is refused."""
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
    masks = S.lift_atom_masks(sigma)
    assert masks == _reference_image_masks(S, sigma)
    assert [S.atom_mask_index.get(m) for m in masks] == _reference_lift(S, sigma)
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
    duality's odd map) or the identity, an even one, with two atom images
    swapped; and a map that is not a permutation of the atoms, which no
    lift accepts."""
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
    near_rng = random.Random(m)
    for _ in range(4):
        i, j = near_rng.sample(range(m), 2)
        near = list(range(m))
        near[i], near[j] = j, i
        _assert_lift_matches_reference(P, near)
    clash = list(gamma)
    clash[0] = clash[1]
    assert expand_poset_atom_perm(P, clash) is None
    assert _reference_expand(P, clash) is None


@pytest.mark.parametrize(
    "n, spec, atoms, slot_bytes",
    [
        (2, "7", 8, 1),
        (2, "8", 9, 2),
        (4, "2", 15, 2),
        (3, "4", 21, 4),
        (2, "2^5", 33, 8),
        (4, "3", 40, 8),
        (3, "8", 73, 16),
    ],
)
def test_lattice_packed_lift_matches_reference(n, spec, atoms, slot_bytes):
    """L's lift is one packed sum with one slot per element, as wide as
    the atoms need: 8 atoms fill a byte, 9 take two, 33 take eight and 73
    take two 8-byte words. On the identity, on seeded permutations, on a
    genuine automorphism and on that map with two atom images swapped it
    equals one OR per atom-element incidence; an atom clash is refused."""
    L = enumerate_subspaces(n, parse_field(spec))
    assert len(L.atoms) == atoms and L._atom_columns[1] == slot_bytes
    assert L.lift_atom_masks(range(atoms)) == L.elem_atom_masks

    def assert_matches(sigma):
        assert L.lift_atom_masks(sigma) == _reference_image_masks(L, sigma)
        want = _reference_lift(L, sigma)
        bijective = None not in want and len(set(want)) == L.size
        assert L.lift_atom_perm(sigma) == (tuple(want) if bijective else None)

    rng = random.Random(n * 1000 + atoms)
    for _ in range(6):
        sigma = list(range(atoms))
        rng.shuffle(sigma)
        assert_matches(sigma)
    auto = next(iter_lattice_atom_perms(L, restrict_first={lattice_search_plan(L)[1][-1]}))[0]
    assert_matches(auto)
    assert L.lift_atom_perm(auto) is not None
    near = list(auto)
    i, j = rng.sample(range(atoms), 2)
    near[i], near[j] = near[j], near[i]
    assert_matches(near)
    clash = list(auto)
    clash[0] = clash[1]
    assert L.lift_atom_perm(clash) is None
    for bad in (clash, auto[:-1], auto + (0,)):
        with pytest.raises(NotAnAtomPermutation, match="not a permutation"):
            L.lift_atom_masks(bad)


def test_every_atom_perm_at_22_checks_the_orthocomplement_as_reference(P22):
    """P(2,2)'s six atoms form an antichain, so each of the 720 atom
    permutations lifts bijectively, and the orthocomplement check alone
    keeps the 48 automorphisms. The check compares the atoms only, which
    rests on the guard's proof that ortho is a fixed-point-free involution
    reversing the order, so a poset whose ortho is no such involution is
    refused."""
    perms = list(itertools.permutations(range(len(P22.atoms))))
    assert len(perms) == 720
    index = P22.atom_mask_index
    assert all(None not in map(index.get, P22.lift_atom_masks(sigma)) for sigma in perms)
    kept = [expand_poset_atom_perm(P22, sigma) for sigma in perms]
    assert kept == [_reference_expand(P22, sigma) for sigma in perms]
    assert sum(e is not None for e in kept) == 48

    P = build_projection_poset(P22.lattice)
    a, b = P.atoms[0], P.ortho[P.atoms[1]]
    P.ortho[a], P.ortho[b] = P.ortho[b], P.ortho[a]
    with pytest.raises(FalsificationError, match="not a fixed-point-free involution"):
        expand_poset_atom_perm(P, perms[0])
    P = build_projection_poset(P22.lattice)
    P.ortho[P.top] = P.top
    with pytest.raises(FalsificationError, match="not a fixed-point-free involution"):
        expand_poset_atom_perm(P, perms[0])


class _HorizontalSum(ProjectionPoset):
    """MO_k, the horizontal sum of k four-element Boolean algebras: the
    bottom 0, the top 2k + 1 and 2k atoms between them, 2i + 1 and 2i + 2
    each other's orthocomplements, each atom also a coatom. Its atoms form
    an antichain, so every atom permutation lifts to an order
    automorphism, and the orthocomplement check alone decides the leaf.
    The lift is the reference's, one OR per atom-element incidence, and a
    part of it is a list of elements."""

    def __init__(self, k):
        self.size = 2 * k + 2
        self.bottom, self.top = 0, self.size - 1
        self.atoms = list(range(1, self.top))
        self.up_masks = [
            (1 << self.size) - 1, *(1 << a | 1 << self.top for a in self.atoms), 1 << self.top
        ]
        self.ortho = [self.top, *(a + 1 if a % 2 else a - 1 for a in self.atoms), 0]
        self.elem_atom_masks = atom_masks(self.up_masks, self.atoms)
        self.atom_mask_index = {mask: e for e, mask in enumerate(self.elem_atom_masks)}

    def lift_part(self, elements):
        return list(elements)

    def lift_atom_masks(self, sigma, part=None):
        masks = _reference_image_masks(self, sigma)
        return masks if part is None else [masks[e] for e in part]

    def __repr__(self):
        return f"MO_{len(self.atoms) // 2}"


def test_every_atom_perm_of_mo4_checks_the_orthocomplement_on_every_atom():
    """On MO_4 the leaf keeps exactly the 4! * 2^4 = 384 atom permutations
    that permute the four blocks, flipping any of them, and agrees with
    the reference on all 8! of them. Each atom's orthocomplement is an
    atom, so the leaf's coatom compare alone decides. The last two blocks
    lie in the second half of the atom order, so a compare on the first
    half alone would keep the swap of elements 5 and 7 (atom ordinals 4
    and 6), which breaks both blocks."""
    P = _HorizontalSum(4)
    perms = list(itertools.permutations(range(8)))
    kept = [expand_poset_atom_perm(P, sigma) for sigma in perms]
    assert kept == [_reference_expand(P, sigma) for sigma in perms]
    assert sum(e is not None for e in kept) == 384
    assert expand_poset_atom_perm(P, (0, 1, 2, 3, 6, 5, 4, 7)) is None


def _representatives(P):
    """One element of each ortho pair whose image is neither a point nor
    a hyperplane, nor 0 nor the whole space: the lower-numbered."""
    n = P.lattice.n
    return [e for e in range(P.size) if 1 < P.grade[e] < n - 1 and e < P.ortho[e]]


def test_leaf_looks_up_every_representative_and_no_partner(P42, monkeypatch):
    """The leaf looks up the image atom set of one element of each ortho
    pair of the middle grade, the representative, and derives its partner
    by ortho. With one representative's set missing from a copy of the
    atom-set index, the identity's lift refuses, for every one of the 280
    representatives at (4,2). With one partner's set missing, it still
    lifts: the guard proved that set to be the AND the leaf never builds,
    so this is intended."""
    poset_search_plan(P42)
    reps = _representatives(P42)
    assert P42._ortho_split[3] == reps and len(reps) == 280
    ident, index = tuple(range(len(P42.atoms))), P42.atom_mask_index
    identity = tuple(range(P42.size))
    assert expand_poset_atom_perm(P42, ident) == identity
    for rep in reps:
        for e, lifts in ((rep, False), (P42.ortho[rep], True)):
            monkeypatch.setattr(P42, "atom_mask_index", {m: i for m, i in index.items() if i != e})
            assert expand_poset_atom_perm(P42, ident) == (identity if lifts else None)


@pytest.mark.parametrize(
    "n, spec",
    [(1, "2"), (1, "3"), (2, "2"), (2, "3"), (3, "2"), (3, "3"), (3, "2^2"), (4, "2"), (3, "5")],
)
def test_leaf_matches_reference_on_seeded_near_misses(n, spec):
    """The leaf equals the reference, which looks up every element's
    image and compares ortho on every element, on the identity, a genuine
    even map, the duality's odd map, and 60 seeded near misses of those:
    one transposition or one 3-cycle of atom images. At n = 1 the one
    atom is top and its orthocomplement bottom; at n = 2 the atoms'
    orthocomplements are atoms; n = 3 has no representatives."""
    L = enumerate_subspaces(n, parse_field(spec))
    P = build_projection_poset(L)
    m = len(P.atoms)
    maps = [tuple(range(m)), poset_atom_perm_from_lattice(P, standard_duality(L).perm, odd=True)]
    if n > 1:
        f = next(iter_lattice_atom_perms(L, restrict_first={lattice_search_plan(L)[1][-1]}))[1]
        maps.append(poset_atom_perm_from_lattice(P, f, odd=False))
    for sigma in maps:
        assert expand_poset_atom_perm(P, sigma) == _reference_expand(P, sigma) is not None
    if m < 3:
        assert m == 1 and P.atoms == [P.top]
        return
    rng = random.Random(n * 100 + len(spec) + 7)
    kept = 0
    for k in range(60):
        near = list(rng.choice(maps))
        picked = rng.sample(range(m), 2 + k % 2)
        moved = [near[i] for i in picked]
        for i, y in zip(picked, moved[1:] + moved[:1]):
            near[i] = y
        lifted = expand_poset_atom_perm(P, near)
        assert lifted == _reference_expand(P, near)
        kept += lifted is not None
    assert kept < 60


def test_ortho_with_a_fixed_point_is_refused_before_the_leaf_split(L32):
    """P(3,2) with one atom made its own orthocomplement: the guard
    refuses P as it would any ortho that is no fixed-point-free
    involution, before the leaf's split by ortho pairs is made, which
    would find that atom's old partner in no pair."""
    P = build_projection_poset(L32)
    P.ortho[P.atoms[0]] = P.atoms[0]
    for refused in (
        lambda: poset_search_plan(P),
        lambda: expand_poset_atom_perm(P, tuple(range(len(P.atoms)))),
    ):
        with pytest.raises(FalsificationError, match="not a fixed-point-free involution"):
            refused()
    assert not hasattr(P, "_ortho_split")


def test_kept_atomistic_verdict_does_not_pass_the_poset_guard(L32):
    """The kept verify_atomistic verdict, P.atomistic, which the witness
    matcher reads too, is not the whole of the atom searches' guard, which
    proves more of a poset: on a fresh P(3,2) whose verdict was kept first
    the guard still runs, so the search finds its 336 maps, and on a P
    whose ortho has a fixed point it still refuses."""
    P = build_projection_poset(L32)
    assert P.atomistic
    assert sum(1 for _ in iter_poset_atom_perms(P)) == 336
    bad = build_projection_poset(L32)
    bad.ortho[bad.atoms[0]] = bad.atoms[0]
    assert bad.atomistic
    with pytest.raises(FalsificationError, match="not a fixed-point-free involution"):
        poset_search_plan(bad)


def test_ortho_that_does_not_reverse_the_order_is_refused(L32):
    """P(3,2) with the partners of two atoms i and j exchanged: ortho'(i)
    = ortho(j), ortho'(ortho(j)) = i, and the same for j. ortho' is still
    a fixed-point-free involution, but it does not reverse the order, as
    the OMP battery's own walk over the comparable pairs confirms; so
    the search plan, verify_poset_map and the leaf each refuse P, and the
    leaf, which compares ortho on the atoms only, never runs on it."""
    P = build_projection_poset(L32)
    ortho = P.ortho
    i, j = P.atoms[:2]
    oi, oj = ortho[i], ortho[j]
    ortho[i], ortho[oj], ortho[j], ortho[oi] = oj, i, oi, j
    assert all(ortho[ortho[e]] == e != ortho[e] for e in range(P.size))
    verdicts = {name: ok for name, ok, _ in verify_omp_axioms(P).checks}
    assert not verdicts["ortho_reverses_order"]
    ident = tuple(range(P.size))
    for refused in (
        lambda: poset_search_plan(P),
        lambda: verify_poset_map(ident, P),
        lambda: expand_poset_atom_perm(P, tuple(range(len(P.atoms)))),
    ):
        with pytest.raises(FalsificationError, match="not a fixed-point-free involution reversing"):
            refused()
    assert not hasattr(P, "_ortho_split")


def test_verify_poset_map_refuses_atom_images_that_repeat(P32):
    """A map sending two atoms to one atom: the atom images are no
    permutation of the atoms, so verify_poset_map refuses the map before
    any lift, and the payload names the images, the repeat included. The
    reference refuses it too."""
    _, eperm = next(iter_poset_atom_perms(P32, restrict_first={poset_search_plan(P32)[1][0]}))
    a, b = P32.atoms[:2]
    perm = list(eperm)
    perm[b] = perm[a]
    perm = tuple(perm)
    sigma = tuple(P32.atom_ordinal[perm[x]] for x in P32.atoms)
    assert sigma[0] == sigma[1]
    with pytest.raises(FalsificationError) as exc:
        verify_poset_map(perm, P32)
    assert exc.value.payload == {"atom_perm": sigma}
    with pytest.raises(FalsificationError):
        _reference_verify_poset_map(perm, P32)


def _transpose_restriction(spec, n, P):
    return lambda: restrict_to_projections(transpose_anti_automorphism(parse_field(spec), n), P)


# each case: (fixtures) -> (the call, texts its refusal must name)
_OTHER_AMBIENT_CASES = {
    "verify-lattice-33-on-32": lambda get: (
        lambda: verify_lattice_map(LatticeMap(identity_perm(28), AUTO), get("L32")),
        ("28", "16 elements"),
    ),
    "verify-lattice-32-on-33": lambda get: (
        lambda: verify_lattice_map(LatticeMap(identity_perm(16), AUTO), get("L33")),
        ("16", "28 elements"),
    ),
    "parity-33-on-32": lambda get: (
        lambda: classify_parity(identity_perm(236), get("P32")), ("236", "58 elements")
    ),
    "parity-32-on-33": lambda get: (
        lambda: classify_parity(identity_perm(58), get("P33")), ("58", "236 elements")
    ),
    "decompose-33-on-32": lambda get: (
        lambda: decompose_poset_automorphism(PosetMap(identity_perm(236)), get("P32")),
        ("236", "58 elements"),
    ),
    "decompose-32-on-33": lambda get: (
        lambda: decompose_poset_automorphism(PosetMap(identity_perm(58)), get("P33")),
        ("58", "236 elements"),
    ),
    "match-33-on-32": lambda get: (
        lambda: match_semilinear(LatticeMap(identity_perm(28), AUTO), get("L32")),
        ("28", "16 elements"),
    ),
    "match-32-on-33": lambda get: (
        lambda: match_semilinear(LatticeMap(identity_perm(16), AUTO), get("L33")),
        ("16", "28 elements"),
    ),
    "restrict-2^3-on-33": lambda get: (
        _transpose_restriction("2", 3, get("P33")), ("GF(2)^3", "(3^3,")
    ),
    "restrict-3^2-on-33": lambda get: (
        _transpose_restriction("3", 2, get("P33")), ("GF(3)^2", "(3^3,")
    ),
    "restrict-2^2-on-17^2": lambda get: (
        _transpose_restriction(
            "2", 2, build_projection_poset(enumerate_subspaces(2, parse_field("17")))
        ),
        ("GF(2)^2", "(17^2,"),
    ),
}


@pytest.mark.parametrize("case", list(_OTHER_AMBIENT_CASES))
def test_a_map_of_another_ambient_is_refused(case, request):
    """A map of another ambient is refused with a plain ValueError naming
    both sizes, or both fields and dimensions for a ring map, before any
    of its images is read: by verify_lattice_map, classify_parity,
    decompose_poset_automorphism, match_semilinear and the restriction.
    Without the check some were judged (L(3,3)'s identity passed as an
    automorphism of L(3,2), P(3,3)'s was classified even on P(3,2)) and
    the rest failed on an index, a StopIteration or a false verdict."""
    call, names = _OTHER_AMBIENT_CASES[case](request.getfixturevalue)
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is ValueError
    assert all(name in str(caught.value) for name in names), str(caught.value)


def test_lift_errors_other_than_the_lattice_refusal_propagate(L32, P22, monkeypatch):
    """L.lift_atom_perm reads only L's refusal of a non-permutation as no
    lift: any other ValueError of the packed lift propagates. A ValueError
    raised inside P's lift, here a negative atom ordinal, propagates out
    of P's leaf lift."""
    m = len(L32.atoms)
    with pytest.raises(NotAnAtomPermutation):
        L32.lift_atom_masks([0] * m)
    assert L32.lift_atom_perm([0] * m) is None

    def broken(sigma):
        raise ValueError("not a lattice refusal")

    L = enumerate_subspaces(3, parse_field("2"))
    monkeypatch.setattr(L, "lift_atom_masks", broken)
    with pytest.raises(ValueError, match="not a lattice refusal"):
        L.lift_atom_perm(range(m))
    bad = [-1, *range(1, len(P22.atoms))]
    with pytest.raises(ValueError, match="negative shift count"):
        expand_poset_atom_perm(P22, bad)


def test_product_lift_refuses_masks_that_are_not_products(L32):
    """A poset whose stored atom sets are not the image x kernel products
    its lift builds, here top's set with one atom dropped, is refused
    before any lift: they are no longer the atom sets of its order."""
    P = build_projection_poset(L32)
    P.elem_atom_masks[P.top] &= ~1
    assert P.lift_atom_masks(range(len(P.atoms)))[P.top] != P.elem_atom_masks[P.top]
    assert not P.verify_atomistic()
    with pytest.raises(FalsificationError, match="not atomistic"):
        poset_search_plan(P)
    with pytest.raises(FalsificationError, match="not atomistic"):
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


def test_main_theorem_refuses_a_poset_above_the_search_bound(L32, monkeypatch):
    """With the bound one below P's 28 atoms, the campaign is refused
    before either search and before the poset's search structure is
    built."""
    from projlat.autos import verify_main_theorem

    P = build_projection_poset(L32)
    monkeypatch.setattr(autos, "MAX_POSET_SEARCH_ATOMS", 27)
    with pytest.raises(AmbientTooLarge, match="^28 atoms exceeds the search bound 27$"):
        verify_main_theorem(L32, P)
    assert not hasattr(P, "_auto_search_cache")


def test_lattice_campaigns_refuse_a_lattice_above_the_search_bound(L32, P32, monkeypatch):
    """The bound is on the closed-form count of L's maps, 168 at (3,2),
    inclusive: at 168 the search runs, and one below it the enumeration,
    the semidirect check and witness matching are refused before the
    lattice search runs."""
    monkeypatch.setattr(autos, "SEMILINEAR_LIMIT", 168)
    assert len(enumerate_lattice_automorphisms(L32)) == 168
    monkeypatch.setattr(autos, "SEMILINEAR_LIMIT", 167)
    monkeypatch.setattr(autos, "iter_lattice_atom_perms", None)
    refused = "^168 lattice automorphisms exceeds the search bound 167$"
    with pytest.raises(AmbientTooLarge, match=refused):
        enumerate_lattice_automorphisms(L32)
    with pytest.raises(AmbientTooLarge, match=refused):
        verify_semidirect_structure(L32, P32)
    with pytest.raises(AmbientTooLarge, match=refused):
        autos.verify_fundamental_correspondence(L32)


@pytest.mark.parametrize("ambient, entries", [(("L32", "P32"), 9408), (("L23", "P23"), 576)])
def test_constructed_side_limit_counts_its_entries(ambient, entries, request, monkeypatch):
    """The constructed side holds 2 |Aut L| [n,1]_q q^(n-1) P-atom images,
    9 408 at (3,2) and 576 at (2,3), where |Aut L| is 4!: at that limit
    it is built, and one below it the semidirect check is refused before
    the lattice search runs."""
    L, P = map(request.getfixturevalue, ambient)
    monkeypatch.setattr(autos, "CONSTRUCTED_ENTRY_LIMIT", entries)
    _, _, evens, odds = autos._constructed_side(L, P, None)
    assert sum(map(len, evens + odds)) == entries
    monkeypatch.setattr(autos, "CONSTRUCTED_ENTRY_LIMIT", entries - 1)
    monkeypatch.setattr(autos, "iter_lattice_atom_perms", None)
    refused = f"^{entries} constructed entries exceeds the constructed-side limit {entries - 1}$"
    with pytest.raises(AmbientTooLarge, match=refused):
        verify_semidirect_structure(L, P)


def test_constructed_side_limit_admits_4_2_and_3_4_and_refuses_3_5():
    for n, spec in ((4, "2"), (3, "4")):
        autos._check_constructed_side_bound(n, parse_field(spec))
    refused = "^576600000 constructed entries exceeds the constructed-side limit 134217728$"
    with pytest.raises(AmbientTooLarge, match=refused):
        autos._check_constructed_side_bound(3, parse_field("5"))


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


# ---------------------------------------------------------------------------
# the search core, the transports and decomposition against verbatim copies
# of their previous versions
# ---------------------------------------------------------------------------


def _previous_atom_search(init_cand, narrow, lift, budget, restrict_first, stats):
    """Reference: the search core as it was before it kept forced atoms
    apart, rescanning every unassigned atom at every node. restrict_first
    limits the pivot's initial candidates, as in the core, so it applies
    even when every atom is forced at the root."""
    m = len(init_cand)
    nodes = 0
    found = 0
    cand = list(init_cand)
    if restrict_first is not None:
        cand[autos._search_plan(init_cand)[0]] &= sum(1 << y for y in set(restrict_first))

    def rec(assigned, cand):
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
        for y in lattice_bits(cand[best]):
            nodes += 1
            if budget is not None and nodes > budget:
                if stats is not None:
                    stats["nodes"] = nodes
                    stats["found"] = found
                raise SearchBudgetExceeded(nodes, found)
            new_assigned = assigned.copy()
            new_assigned[best] = y
            new_cand = cand.copy()
            new_cand[best] = 1 << y
            if narrow(best, y, new_assigned, new_cand):
                yield from rec(new_assigned, new_cand)

    yield from rec([None] * m, cand)
    if stats is not None:
        stats["nodes"] = nodes
        stats["found"] = found


def _previous_lattice_search(L, budget=None, restrict_first=None, stats=None, failed=None):
    """Reference: the lattice search on the previous core and narrowing;
    failed, if given, counts the narrowings that fail."""
    autos._require_atomistic(L)
    init_cand, line_mask = autos._lattice_search_structure(L)
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

    yield from _previous_atom_search(
        init_cand, _counting(narrow, failed),
        L.lift_atom_perm, budget, restrict_first, stats,
    )


def _previous_poset_search(P, budget=None, restrict_first=None, stats=None, failed=None):
    """Reference: the poset search on the previous core and narrowing, the
    colors read by rows as the search reads them."""
    autos._require_atomistic(P)
    init_cand, colors, allowed = autos._poset_search_structure(P)
    m = len(init_cand)

    def narrow(best, y, assigned, cand) -> bool:
        not_y = ~(1 << y)
        allowed_y = allowed[y]
        for z in range(m):
            if assigned[z] is None:
                nc = cand[z] & not_y & allowed_y[colors[best][z]]
                if nc == 0:
                    return False
                cand[z] = nc
        return True

    yield from _previous_atom_search(
        init_cand, _counting(narrow, failed),
        lambda perm: autos.expand_poset_atom_perm(P, perm), budget, restrict_first, stats,
    )


def _counting(narrow, failed):
    if failed is None:
        return narrow

    def counted(*args):
        ok = narrow(*args)
        failed[0] += not ok
        return ok

    return counted


def _search_outcome(search, S, budget, restrict_first):
    """Everything a search shows: its yields, in order, the budget error
    it ends with (nodes, found and message) and its stats."""
    stats = {}
    out = []
    try:
        for item in search(S, budget=budget, restrict_first=restrict_first, stats=stats):
            out.append(item)
    except SearchBudgetExceeded as exc:
        return out, (exc.nodes, exc.found, str(exc)), stats
    return out, None, stats


CORE_SEARCHES = {
    "lattice": (iter_lattice_atom_perms, _previous_lattice_search, lattice_search_plan),
    "poset": (iter_poset_atom_perms, _previous_poset_search, poset_search_plan),
}


def _assert_core_matches_previous(kind, S, restricts, budgets=(None, 0, 1, 10, 500)):
    """The search and the previous core agree under every restriction and
    budget given; returns the previous core's count of failed narrowings
    and its stats for the first restriction without a budget."""
    search, previous, _ = CORE_SEARCHES[kind]
    failed = [0]
    first = None
    for restrict in restricts:
        for budget in budgets:
            got = _search_outcome(search, S, budget, restrict)
            want = _search_outcome(
                lambda *a, **k: previous(*a, **k, failed=failed), S, budget, restrict
            )
            assert got == want, (kind, S, restrict, budget)
            if first is None and budget is None:
                first = want[2]
    return failed[0], first


@pytest.mark.parametrize(
    "kind, n, spec",
    [
        (kind, n, spec)
        for kind in ("lattice", "poset")
        for n, spec in [(1, "2"), (1, "2^2"), (2, "2"), (2, "3"), (3, "2"), (3, "3")]
        if (kind, n, spec) != ("poset", 3, "3")  # one branch below
    ],
)
def test_search_core_matches_previous_core(kind, n, spec, monkeypatch):
    """In full, restricted to the last root target, and restricted to no
    target at all; each without a budget and at budgets 0, 1, 10 and 500.
    The leaf is memoized so that both cores share one lift per leaf."""
    L = enumerate_subspaces(n, parse_field(spec))
    S = L if kind == "lattice" else build_projection_poset(L)
    leaf = autos.expand_poset_atom_perm
    memo = {}
    monkeypatch.setattr(
        autos, "expand_poset_atom_perm",
        lambda P, perm: memo[perm] if perm in memo else memo.setdefault(perm, leaf(P, perm)),
    )
    _, targets = CORE_SEARCHES[kind][2](S)
    _assert_core_matches_previous(kind, S, [None, {targets[-1]}, set()])


def test_search_core_matches_previous_core_on_a_branch_33():
    """The full (3,3) poset search repeats what the other ambients cover
    at many times their cost; its last root branch is compared instead."""
    P = build_projection_poset(enumerate_subspaces(3, parse_field("3")))
    _, targets = poset_search_plan(P)
    _assert_core_matches_previous("poset", P, [{targets[-1]}])


def test_settle_returns_the_state_as_it_is_when_nothing_is_forced():
    opened, cands, forced, images = [2, 5], [0b11, 0b110], [], []
    state = autos._settle(cands, opened, forced, images)
    assert state == ([2, 5], [0b11, 0b110], [2, 2]) and forced == images == []
    assert state[0] is opened and state[1] is cands
    assert autos._settle([0b11, 0b100], opened, forced, images) == ([2], [0b11], [2])
    assert (forced, images) == ([5], [2])
    assert autos._settle([0b100, 0], [2, 5], [], []) is None


def test_lattice_search_matches_previous_core_at_42(L42):
    """The full (4,2) lattice search: the same yields in the same order as
    the previous core, each lift equal to the reference lift."""
    got = _search_outcome(iter_lattice_atom_perms, L42, None, None)
    want = _search_outcome(_previous_lattice_search, L42, None, None)
    assert got == want
    found, error, stats = got
    assert error is None and stats == {"nodes": 30675, "found": 20160}
    assert all(eperm == tuple(_reference_lift(L42, perm)) for perm, eperm in found)


def test_lattice_search_matches_previous_core_on_a_branch_34():
    """One (3,4) root branch: the lattice narrowing by the lines through
    the atom sent, against the previous core's one rule per earlier
    assignment."""
    L = enumerate_subspaces(3, parse_field("4"))
    _, targets = lattice_search_plan(L)
    got = _search_outcome(iter_lattice_atom_perms, L, None, {targets[0]})
    assert got == _search_outcome(_previous_lattice_search, L, None, {targets[0]})
    assert got[1:] == (None, {"nodes": 13761, "found": 5760})


@pytest.mark.parametrize("kind", ["lattice", "poset"])
def test_restricted_search_at_n_1_yields_only_its_branch(kind):
    """At n = 1 the one atom is forced at the root and never sent, and the
    restriction still applies to it: a restriction without the pivot's
    image yields nothing, and the branches still partition the search."""
    L = enumerate_subspaces(1, parse_field("2"))
    S = L if kind == "lattice" else build_projection_poset(L)
    search, plan = SEARCHES[kind]
    assert plan(S) == (0, [0])
    full = list(search(S))
    assert [ap for ap, _ in full] == [(0,)]
    assert list(search(S, restrict_first={0})) == full
    for restrict in (set(), {5}):
        stats = {}
        assert list(search(S, restrict_first=restrict, stats=stats)) == []
        assert stats == {"nodes": 0, "found": 0}


def test_search_core_matches_previous_core_on_a_branch_42(P42):
    _, targets = poset_search_plan(P42)
    failed, stats = _assert_core_matches_previous("poset", P42, [{targets[7]}])
    assert (failed, stats) == (0, {"nodes": 5475, "found": 336})


@pytest.mark.parametrize("how", ["flip", "trade", "orient"])
def test_search_core_matches_previous_core_on_corrupted_orders(L32, how):
    P = build_projection_poset(L32)
    _corrupt(P, how)
    _, targets = poset_search_plan(P)
    _assert_core_matches_previous("poset", P, [None, {targets[0]}])


def _searched_from(kind, S, cut):
    """S, searched from its own initial candidates after cut(init_cand)
    has changed them in place."""
    structure = (
        autos._lattice_search_structure(S) if kind == "lattice"
        else autos._poset_search_structure(S)
    )
    init_cand = list(structure[0])
    cut(init_cand)
    S._auto_search_cache = (init_cand, *structure[1:])
    return S


@pytest.mark.parametrize("kind, n, spec", [("lattice", 3, "2"), ("poset", 2, "3"), ("poset", 3, "2")])
def test_search_core_matches_previous_core_where_narrowings_fail(kind, n, spec):
    """No narrowing fails in the searches of the ambients above, nor on
    the corrupted orders. Initial candidates cut down at random make some
    fail."""
    rng = random.Random(n * 10 + len(spec))

    def cut(init_cand):
        for z in rng.sample(range(len(init_cand)), len(init_cand) // 2):
            kept = rng.sample(lattice_bits(init_cand[z]), rng.choice([1, 1, 2, 3]))
            init_cand[z] = sum(1 << y for y in kept)

    failed = 0
    for _ in range(12):
        L = enumerate_subspaces(n, parse_field(spec))
        S = _searched_from(kind, L if kind == "lattice" else build_projection_poset(L), cut)
        _, targets = CORE_SEARCHES[kind][2](S)
        more, _ = _assert_core_matches_previous(
            kind, S, [None, {targets[-1]}], budgets=(None, 10)
        )
        failed += more
    assert failed > 0


@pytest.mark.parametrize("kind", ["lattice", "poset"])
def test_search_core_matches_previous_core_on_a_forced_root_pivot(kind):
    """An atom left one candidate, its own image, at the root is the
    pivot while other atoms are still open: the root restriction applies
    to it, so restricting to another image, or to none, finds nothing."""
    L = enumerate_subspaces(3, parse_field("2"))
    S = L if kind == "lattice" else build_projection_poset(L)
    S = _searched_from(kind, S, lambda init_cand: init_cand.__setitem__(3, 1 << 3))
    search, _, plan = CORE_SEARCHES[kind]
    assert plan(S) == (3, [3])
    _assert_core_matches_previous(kind, S, [None, {3}, {4}, set()])
    for restrict in ({4}, set()):
        assert _search_outcome(search, S, None, restrict) == ([], None, {"nodes": 0, "found": 0})
    fixed, _, _ = _search_outcome(search, S, None, {3})
    assert fixed and all(ap[3] == 3 for ap, _ in fixed)


def _flat_pair_table(P):
    w = P.lattice.size
    table = [None] * (w * w)
    for i, (a, b) in enumerate(P.pairs):
        table[a * w + b] = i
    return table


def _previous_transport(P, lattice_perm, odd, what):
    """Reference: the transport through the flat pair table, as it was."""
    table, w, lp = _flat_pair_table(P), P.lattice.size, lattice_perm
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


def _previous_poset_atom_perm_from_lattice(P, lattice_perm, odd):
    """Reference: the atom action through the flat pair table, as it was,
    with the payload naming the first atom sent to no atom, found by a
    walk over the atoms in order."""
    autos._require_atomistic(P)
    table, w, lp, ordinal = _flat_pair_table(P), P.lattice.size, lattice_perm, P.atom_ordinal
    if len(lp) != w:
        raise ValueError("lattice map size does not match the poset's lattice")
    out = []
    for t, (a, b) in enumerate(P.atom_pairs):
        image = (lp[b], lp[a]) if odd else (lp[a], lp[b])
        y = ordinal.get(table[image[0] * w + image[1]])
        if y is None:
            raise FalsificationError(
                "lattice map sends a projection atom to no atom of the poset",
                {"atom": t, "image": image},
            )
        out.append(y)
    return tuple(out)


def _previous_decompose(phi, P):
    """Reference: decomposition as it was, classify_parity first, then the
    exact rebuild."""
    odd = classify_parity(phi, P) == ODD
    perm, img = phi.perm, P.image
    families = P.by_kernel if odd else P.by_image
    f_perm = tuple(img[perm[families[a][0]]] for a in range(P.lattice.size))
    if _previous_transport(P, f_perm, odd, "witness") != perm:
        raise FalsificationError(
            "recovered witness does not reproduce the poset map", {}
        )
    fmap = LatticeMap(f_perm, ANTI if odd else AUTO)
    autos.verify_lattice_map(fmap, P.lattice)
    return fmap


def _call_outcome(fn, *args):
    """fn's result, or the type, message and payload of what it raised."""
    try:
        out = fn(*args)
    except (AssertionError, LookupError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "payload", None)
    return (out.perm, out.direction) if isinstance(out, LatticeMap) else out


def _even_odd_pair(P):
    """A lattice automorphism f, f composed with the duality, and the even
    and odd poset permutations they induce."""
    L = P.lattice
    f = next(iter_lattice_atom_perms(L, restrict_first={lattice_search_plan(L)[1][-1]}))[1]
    g = perm_compose(f, standard_duality(L).perm)
    even = even_from_lattice_automorphism(LatticeMap(f, AUTO), P).perm
    odd = odd_from_anti_automorphism(LatticeMap(g, ANTI), P).perm
    return f, g, even, odd


@pytest.mark.parametrize("n, spec", [(2, "2"), (3, "2"), (2, "3"), (4, "2")])
def test_transports_match_previous(n, spec):
    """On automorphisms and their anti-automorphisms, on a swap of a point
    with a complementary hyperplane, which sends the atom pairing them to
    an element that is no atom and other atoms out of the poset, and on a
    map of the wrong size."""
    L = enumerate_subspaces(n, parse_field(spec))
    P = build_projection_poset(L)
    f, g, _, _ = _even_odd_pair(P)
    x = L.atoms[0]
    h = next(b for a, b in P.pairs if a == x and b in L.coatoms)
    swap = list(range(L.size))
    swap[x], swap[h] = h, x
    cases = [f, g, standard_duality(L).perm, tuple(swap), tuple(range(L.size - 1))]
    for lp in cases:
        for odd in (False, True):
            for new, old in [
                (autos._transport, _previous_transport),
                (
                    lambda P, lp, odd, what: poset_atom_perm_from_lattice(P, lp, odd),
                    lambda P, lp, odd, what: _previous_poset_atom_perm_from_lattice(P, lp, odd),
                ),
            ]:
                want = _call_outcome(old, P, lp, odd, "witness")
                assert _call_outcome(new, P, lp, odd, "witness") == want
    if n > 2:  # at n = 2 hyperplanes are points, and the swap an automorphism
        assert P.pair_rows[x][h] in P.atom_ordinal
        assert P.pair_rows[h][x] is not None and P.pair_rows[h][x] not in P.atom_ordinal
        assert _call_outcome(poset_atom_perm_from_lattice, P, tuple(swap), True)[1] == (
            "lattice map sends a projection atom to no atom of the poset"
        )


def test_atom_action_names_the_first_atom_sent_to_no_atom(L32, P32):
    """A swap of a point with a complementary hyperplane sends some
    P-atoms to no P-atom. The payload names the first of them, by atom
    ordinal, and the (image, kernel) pair it goes to, which is no atom,
    under the map and under the map read as an anti-automorphism."""
    x = L32.atoms[0]
    h = next(b for a, b in P32.pairs if a == x and b in L32.coatoms)
    swap = list(range(L32.size))
    swap[x], swap[h] = h, x
    for odd in (False, True):
        with pytest.raises(FalsificationError, match="sends a projection atom to no atom") as exc:
            poset_atom_perm_from_lattice(P32, tuple(swap), odd=odd)
        t, image = exc.value.payload["atom"], exc.value.payload["image"]
        a, b = P32.atom_pairs[t]
        assert image == ((swap[b], swap[a]) if odd else (swap[a], swap[b]))
        assert P32.pair_rows[image[0]][image[1]] not in P32.atom_ordinal
        for a, b in P32.atom_pairs[:t]:
            pair = (swap[b], swap[a]) if odd else (swap[a], swap[b])
            assert P32.pair_rows[pair[0]][pair[1]] in P32.atom_ordinal


def _with_duals(L, lattice_perms):
    """Each lattice automorphism f with f composed with L's duality, the
    anti-automorphism the constructed side reads as an odd map."""
    gamma = standard_duality(L).perm
    return [(f, perm_compose(f, gamma)) for f in lattice_perms]


@pytest.mark.parametrize("n, spec", [(3, "2"), (3, "3"), (4, "2"), (2, "13")])
def test_atom_code_planes_name_every_pair_of_L_exactly(n, spec):
    """For every pair (a, b) of elements of L, the code sum of a and b is
    below (N + 1)(H + 1), N points and H hyperplanes, and the ordinal
    table reads the atom (a, b) when it is one and NO_ATOM otherwise: a
    kernel that is no hyperplane aliases no atom of the next point. The
    planes are the atoms' images and kernels in atom order."""
    L = enumerate_subspaces(n, parse_field(spec))
    P = build_projection_poset(L)
    images, kernels, point_codes, hyperplane_codes, ordinals = P.atom_code_planes
    assert list(zip(images, kernels)) == P.atom_pairs
    codes = (len(L.atoms) + 1) * (len(L.coatoms) + 1)
    for a in range(L.size):
        for b in range(L.size):
            code = point_codes[a] + hyperplane_codes[b]
            assert code < codes
            want = P.atom_ordinal.get(P.pair_rows[a][b], NO_ATOM)
            assert ordinals[code] == want


@pytest.mark.parametrize(
    "n, q, seed", [(3, 2, None), (3, 3, None), (4, 2, None), (3, 3, 5), (4, 2, 6)]
)
def test_atom_perms_by_code_planes_match_the_pair_table(request, monkeypatch, n, q, seed):
    """The byte kernel answers the even and the odd atom permutation of
    every lattice automorphism with the pair table's answer, and without
    calling it. With a seed, on P built from a seeded shuffle of its
    pairs: the planes follow that P's own atom order."""
    L = request.getfixturevalue(f"L{n}{q}")
    P = request.getfixturevalue(f"P{n}{q}")
    if seed is not None:
        pairs = list(P.pairs)
        random.Random(seed).shuffle(pairs)
        P = ProjectionPoset(L, pairs)
        assert P.atom_pairs != request.getfixturevalue(f"P{n}{q}").atom_pairs
    assert P.atom_code_planes is not None
    maps = _with_duals(L, [f for _, f in iter_lattice_atom_perms(L)])
    assert len(maps) == projective_group_order(n, q, 1)
    by_pairs = autos._atom_perm_by_pairs
    want = [(by_pairs(P, f, False), by_pairs(P, g, True)) for f, g in maps]

    def refused(*args):
        raise AssertionError("the pair table was read")

    monkeypatch.setattr(autos, "_atom_perm_by_pairs", refused)
    got = [
        (poset_atom_perm_from_lattice(P, f, False), poset_atom_perm_from_lattice(P, g, True))
        for f, g in maps
    ]
    assert got == want


def test_atom_code_planes_are_none_where_a_code_needs_two_bytes(L34, P34):
    """At (3,4), 21 points and 21 hyperplanes, and at (2,16), 17 of each,
    the code sums run past a byte, so P has no code planes. At (3,4) the
    atom permutations of 40 seeded maps of one root branch, even and odd,
    are the reference's."""
    P216 = build_projection_poset(enumerate_subspaces(2, parse_field("2^4")))
    for L, P in ((L34, P34), (P216.lattice, P216)):
        assert (len(L.atoms) + 1) * (len(L.coatoms) + 1) > 256
        assert P.atom_code_planes is None
    _, targets = lattice_search_plan(L34)
    branch = [f for _, f in iter_lattice_atom_perms(L34, restrict_first={targets[0]})]
    for f, g in _with_duals(L34, random.Random(34).sample(branch, 40)):
        for lp, odd in ((f, False), (g, True)):
            want = _previous_poset_atom_perm_from_lattice(P34, lp, odd)
            assert poset_atom_perm_from_lattice(P34, lp, odd) == want


def test_atom_perm_refusals_are_the_pair_tables_on_the_byte_path(L42, P42):
    """At (4,2), where the byte kernel runs, a swap of a point with a line
    and a swap of a hyperplane with a line send some atom to no atom,
    even and odd: the message and the payload are the reference's, the
    first atom so sent and its image pair. A map of another size is
    refused with the reference's ValueError."""
    assert P42.atom_code_planes is not None
    line = next(i for i, d in enumerate(L42.dims) if d == 2)
    cases = []
    for x in (L42.atoms[3], L42.coatoms[5]):
        swap = list(range(L42.size))
        swap[x], swap[line] = line, x
        cases.append(tuple(swap))
    cases.append(tuple(range(L42.size + 1)))
    for lp in cases:
        for odd in (False, True):
            want = _call_outcome(_previous_poset_atom_perm_from_lattice, P42, lp, odd)
            assert want[0] in ("FalsificationError", "ValueError")
            assert _call_outcome(poset_atom_perm_from_lattice, P42, lp, odd) == want


@pytest.mark.parametrize("n, q", [(4, 2), (3, 4)])
def test_atom_perm_refuses_an_entry_outside_the_lattice(request, n, q):
    """An entry -1, p - |L| or |L| is refused with a ValueError naming it,
    whether or not the atoms read it: at a point p, which they read, and
    at top, which they do not. Python would read a negative entry as an
    index from the end, p - |L| as p itself. At (4,2) through the byte
    kernel, at (3,4) through the pair table."""
    L = request.getfixturevalue(f"L{n}{q}")
    P = request.getfixturevalue(f"P{n}{q}")
    assert (P.atom_code_planes is None) == (q == 4)
    for where in (L.atoms[0], L.top):
        for x in (-1, where - L.size, L.size):
            lp = list(range(L.size))
            lp[where] = x
            for odd in (False, True):
                message = rf"^lattice map entry {where} is {x}, outside range\({L.size}\)$"
                with pytest.raises(ValueError, match=message):
                    poset_atom_perm_from_lattice(P, tuple(lp), odd)


def test_decompose_names_the_first_element_the_rebuild_misses(P32):
    """The identity with two projections of one image family exchanged:
    every family still shares its image, so the dichotomy holds (even),
    and the recovered witness is the identity, whose rebuild differs from
    the map at the lower of the two. The payload names that element, the
    map's image of it and the rebuild's."""
    _, group = P32.image_families[0]
    e, f = group[0], group[1]
    perm = list(range(P32.size))
    perm[e], perm[f] = f, e
    phi = PosetMap(tuple(perm), UNKNOWN)
    assert classify_parity(phi, P32) == EVEN
    with pytest.raises(FalsificationError, match="does not reproduce the poset map") as exc:
        decompose_poset_automorphism(phi, P32)
    assert exc.value.payload == {"element": min(e, f), "image": max(e, f), "rebuilt": min(e, f)}


def _swapped(base, old, new):
    """base followed by the involution that swaps old[i] with new[i]; old
    and new are disjoint."""
    tau = list(range(len(base)))
    for s, t in zip(old, new):
        tau[s], tau[t] = t, s
    return tuple(tau[e] for e in base)


@pytest.mark.parametrize("n, spec", [(1, "2"), (2, "2"), (3, "2"), (2, "3"), (4, "2")])
def test_decompose_matches_previous(n, spec):
    """Exceptions and payloads included, on: the identity; even and odd
    maps; a map whose first image family is even and the others odd, and
    one whose first family is odd and the others even; maps with one
    family split between an image and a kernel; random permutations."""
    L = enumerate_subspaces(n, parse_field(spec))
    P = build_projection_poset(L)
    rng = random.Random(n * 10 + len(spec))
    identity = tuple(range(P.size))
    cases = [identity]
    families = P.image_families
    if families:
        _, _, even, odd = _even_odd_pair(P)
        _, group = families[0]
        size = len(group)
        # the first family's images under odd share a kernel; swapped with
        # an image family of the same size, they share an image instead
        old = [odd[i] for i in group]
        new = next(g for g in P.by_image.values() if len(g) == size and not set(g) & set(old))
        first_even = _swapped(odd, old, new)
        old = [even[i] for i in group]
        new = next(g for g in P.by_kernel.values() if len(g) == size and not set(g) & set(old))
        first_odd = _swapped(even, old, new)
        assert len({P.image[first_even[i]] for i in group}) == 1
        assert len({P.kernel[first_odd[i]] for i in group}) == 1 < len(
            {P.image[first_odd[i]] for i in group}
        )
        cases += [even, odd, first_even, first_odd]
        for _ in range(3):
            _, group = rng.choice(families)
            half = [even[i] for i in group[: len(group) // 2]]
            kernel_family = next(
                g for g in P.by_kernel.values() if len(g) >= len(half) and not set(g) & set(half)
            )
            cases.append(_swapped(even, half, kernel_family))
    for _ in range(3):
        shuffled = list(identity)
        rng.shuffle(shuffled)
        cases.append(tuple(shuffled))
    outcomes = []
    for perm in cases:
        phi = PosetMap(perm, UNKNOWN)
        want = _call_outcome(_previous_decompose, phi, P)
        assert _call_outcome(decompose_poset_automorphism, phi, P) == want
        outcomes.append(want)
    if not families:
        assert set(outcomes) == {
            ("ValueError", "no image-sharing projections; parity undefined", None)
        }
        return
    assert [w[1] for w in outcomes[1:3]] == [AUTO, ANTI]
    if L.n < 3:
        return  # at length 2 a swap can land on an automorphism
    # the first two fail on a family whose verdict conflicts with the first
    # family's, the next three on a family split between image and kernel
    dichotomy = "even/odd dichotomy failed on image-sharing families"
    for kind, (name, message, payload) in zip(["conflict"] * 2 + ["mixed"] * 3, outcomes[3:8]):
        assert (name, message) == ("FalsificationError", dichotomy)
        verdicts = ["verdict" in v for v in payload["violations"]]
        assert any(verdicts) if kind == "conflict" else not all(verdicts)


def test_decompose_classifies_only_when_the_rebuild_fails(P32, monkeypatch):
    """The rebuild guessed from the first family settles every (3,2)
    automorphism without classify_parity; a map it does not rebuild goes
    through classify_parity, which raises."""
    calls = []
    classify = autos.classify_parity
    monkeypatch.setattr(
        autos, "classify_parity", lambda phi, P: calls.append(1) or classify(phi, P)
    )
    maps = enumerate_poset_automorphisms(P32)
    directions = [decompose_poset_automorphism(m, P32).direction for m in maps]
    assert directions.count(AUTO) == directions.count(ANTI) == 168 and calls == []
    shuffled = list(range(P32.size))
    random.Random(3).shuffle(shuffled)
    with pytest.raises(FalsificationError, match="dichotomy"):
        decompose_poset_automorphism(PosetMap(tuple(shuffled), UNKNOWN), P32)
    assert calls == [1]


# ---------------------------------------------------------------------------
# the counts a search leaves, and the budget inside a poset branch
# ---------------------------------------------------------------------------


def test_search_counts_are_written_however_the_search_ends(L32, P32):
    """stats gets the nodes visited and the maps found when the consumer
    closes the search after its first map, when the budget stops it (the
    exception's own counts) and at its end."""
    for search, S, first in (
        (iter_lattice_atom_perms, L32, {"nodes": 4, "found": 1}),
        (iter_poset_atom_perms, P32, {"nodes": 9, "found": 1}),
    ):
        stats = {}
        it = search(S, stats=stats)
        next(it)
        it.close()
        assert stats == first, search
    stats = {}
    with pytest.raises(SearchBudgetExceeded) as exc:
        list(iter_lattice_atom_perms(L32, budget=10, stats=stats))
    assert stats == {"nodes": exc.value.nodes, "found": exc.value.found} == {"nodes": 11, "found": 5}
    stats = {}
    assert len(list(iter_lattice_atom_perms(L32, stats=stats))) == 168
    assert stats == {"nodes": 259, "found": 168}


def test_budget_inside_a_poset_branch_checkpoints_and_resumes(L32, P32, tmp_path, monkeypatch):
    """The lattice search needs 259 nodes at (3,2) and each poset branch
    76, so only a lattice search run without the budget lets a budget
    stop a branch. Budget 20 stops the first branch, 2 maps in: the report
    is partial, names those maps, and the checkpoint is written. With the first three branches
    also run without it, those three are checkpointed. A resume without a
    budget gives the bytes of an uninterrupted run."""
    from projlat import canonical_json, report_to_jsonable
    from projlat.autos import verify_main_theorem

    def doc(rep):
        return canonical_json(report_to_jsonable(rep))

    whole = doc(verify_main_theorem(L32, P32))
    constructed, branch = autos._constructed_side, autos.run_poset_branch
    monkeypatch.setattr(autos, "_constructed_side", lambda L, P, budget: constructed(L, P, None))
    targets = poset_search_plan(P32)[1]
    for free, ckpt in ((0, tmp_path / "a.ckpt"), (3, tmp_path / "b.ckpt")):
        monkeypatch.setattr(
            autos, "run_poset_branch",
            lambda P, t, budget: branch(P, t, None if t in targets[:free] else budget),
        )
        rep = verify_main_theorem(L32, P32, budget=20, checkpoint=str(ckpt))
        assert rep.outcome == "partial" and not rep.passed
        assert rep.checks[-1] == (
            "poset_enumeration_complete", False,
            f"budget exhausted in branch {targets[free]} after 21 nodes, 2 maps found; "
            f"{free}/28 branches checkpointed",
        )
        assert list(json.loads(ckpt.read_text())["done"]) == list(map(str, targets[:free]))
        monkeypatch.setattr(autos, "run_poset_branch", branch)
        assert doc(verify_main_theorem(L32, P32, checkpoint=str(ckpt))) == whole


def test_constructors_refuse_a_map_of_the_other_direction(P32, aut_l32):
    """Even maps come from automorphisms and odd ones from
    anti-automorphisms: a witness of the other direction is refused
    before any pair is transported."""
    f = aut_l32[3]
    with pytest.raises(ValueError, match="^even maps come from lattice automorphisms$"):
        even_from_lattice_automorphism(LatticeMap(f.perm, ANTI), P32)
    with pytest.raises(ValueError, match="^odd maps come from lattice anti-automorphisms$"):
        odd_from_anti_automorphism(f, P32)
