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
from projlat import enumerate_subspaces, parse_field
from projlat import autos
from projlat.autos import (
    expand_poset_atom_perm,
    iter_lattice_atom_perms,
    iter_poset_atom_perms,
    lattice_search_plan,
    poset_atom_perm_from_lattice,
    poset_search_plan,
    semilinear_atom_perms,
)
from projlat.matrices import all_matrices, rank
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
        for v in L.elements[a].vectors():
            if any(v):
                vec_ordinal[v] = t
    atom_vecs = [L.atom_vector(a) for a in L.atoms]
    out = set()
    for mat in all_matrices(F, n, n):
        if rank(F, mat) != n:
            continue
        for tw in F.automorphisms():
            s = SemilinearMap(F, mat, tw)
            out.add(bytes(vec_ordinal[s.apply_vector(v)] for v in atom_vecs))
    return out


@pytest.mark.parametrize("n, spec", [(2, "3"), (2, "2^2"), (3, "2"), (3, "3"), (4, "2")])
def test_semilinear_oracle_matches_brute_force(n, spec):
    L = enumerate_subspaces(n, parse_field(spec))
    assert semilinear_atom_perms(L) == _brute_semilinear_atom_perms(L)


def test_semilinear_oracle_limit_guard(L33, L34):
    with pytest.raises(ValueError):
        semilinear_atom_perms(enumerate_subspaces(4, parse_field("3")))
    # the bound is on |PGammaL(n, q)|, inclusive
    with pytest.raises(ValueError):
        semilinear_atom_perms(L33, limit=5615)
    assert len(semilinear_atom_perms(L33, limit=5616)) == 5616
    assert len(semilinear_atom_perms(L34)) == projective_group_order(3, 4, 2)


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
            w = decompose_poset_automorphism(m, P22, allow_short=True)
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
        phi = even_from_lattice_automorphism(f, P42, verify=False)
        w = decompose_poset_automorphism(phi, P42)
        assert w.direction == AUTO and w.perm == f.perm
        g = LatticeMap(perm_compose(f.perm, gamma.perm), ANTI)
        psi = odd_from_anti_automorphism(g, P42, verify=False)
        w2 = decompose_poset_automorphism(psi, P42)
        assert w2.direction == ANTI and w2.perm == g.perm


def test_decompose_refuses_short_lattices(P32):
    maps = enumerate_poset_automorphisms(P32)
    with pytest.raises(ValueError):
        decompose_poset_automorphism(maps[1], P32)  # length 3 < 4


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
    phi = even_from_lattice_automorphism(f, P32, verify=False)
    ap = poset_atom_perm_from_lattice(P32, f.perm, odd=False)
    eperm = expand_poset_atom_perm(P32, ap)
    assert eperm == phi.perm
    g_perm = perm_compose(f.perm, gamma.perm)
    psi = odd_from_anti_automorphism(LatticeMap(g_perm, ANTI), P32, verify=False)
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


def test_search_budget_raises(L32):
    with pytest.raises(SearchBudgetExceeded):
        list(enumerate_lattice_automorphisms(L32, budget=10))


def test_verify_rejects_corrupted_map(P32):
    from projlat.autos import verify_poset_map

    maps = enumerate_poset_automorphisms(P32)
    good = list(maps[3].perm)
    # swap two images of the same grade to keep it a permutation
    a, b = P32.atoms[0], P32.atoms[1]
    good[a], good[b] = good[b], good[a]
    corrupted = PosetMap(tuple(good), UNKNOWN)
    with pytest.raises(FalsificationError):
        verify_poset_map(corrupted, P32)


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
            verify_main_theorem(L32, P32, enforce_length=False, jobs=jobs)
        ))
        for jobs in (1, 2)
    ]
    assert docs[0] == docs[1]
    assert '"poset_automorphisms":336' in docs[0] and '"status":"pass"' in docs[0]
