"""Semilinear maps, induced lattice maps, dualities from bilinear forms,
and the witness-matching round trip."""

import random
from types import SimpleNamespace

import pytest

from projlat import (
    LatticeMap,
    MatchFailure,
    SemilinearMap,
    enumerate_subspaces,
    induced_lattice_map,
    make_duality,
    match_semilinear,
    parse_field,
    standard_duality,
    verify_lattice_map,
)
from projlat import semilinear
from projlat.maps import ANTI, AUTO
from projlat.matrices import identity, random_invertible
from projlat.semilinear import BilinearForm


def test_identity_map_induces_identity(L32, f2):
    s = SemilinearMap.identity_map(f2, 3)
    m = induced_lattice_map(s, L32)
    assert m.is_identity and m.direction == AUTO


def test_induced_maps_verify_and_compose(L23, f3):
    rng = random.Random(1)
    for _ in range(10):
        s = SemilinearMap(f3, random_invertible(f3, 2, rng), f3.frobenius(0))
        m = induced_lattice_map(s, L23)
        verify_lattice_map(m, L23)  # raises on failure
        assert m.direction == AUTO


def test_semilinear_rejects_singular():
    f3 = parse_field("3")
    with pytest.raises(ValueError):
        SemilinearMap(f3, ((1, 2), (2, 4 % 3)), f3.frobenius(0))


def test_standard_duality_involutory_and_anti(L32, L23):
    for L in (L32, L23):
        g = standard_duality(L)
        assert g.direction == ANTI
        assert g.compose(g).is_identity
        # dimension reversal
        for i in range(L.size):
            assert L.dims[g.perm[i]] == L.n - L.dims[i]


def test_duality_involutivity_tracks_twist_involutivity():
    """Computed outcomes, frozen: gamma^2 = 1 exactly when the twist is
    involutory. GF(9) has only involutory twists; GF(8) has order-3 ones."""
    F8 = parse_field("2^3")
    L8 = enumerate_subspaces(2, F8)
    expected8 = {0: True, 1: False, 2: False}
    for pw, want in expected8.items():
        tw = F8.frobenius(pw)
        g = make_duality(BilinearForm.standard(F8, 2, tw), L8)
        assert tw.compose(tw).is_identity == want
        assert g.compose(g).is_identity == want

    F9 = parse_field("3^2")
    L9 = enumerate_subspaces(2, F9)
    for pw in range(2):
        tw = F9.frobenius(pw)
        assert tw.compose(tw).is_identity
        g = make_duality(BilinearForm.standard(F9, 2, tw), L9)
        assert g.compose(g).is_identity


def test_match_semilinear_round_trip(L32, f2):
    rng = random.Random(7)
    for _ in range(10):
        s = SemilinearMap(f2, random_invertible(f2, 3, rng), f2.frobenius(0))
        m = induced_lattice_map(s, L32)
        verify_lattice_map(m, L32)
        s2 = match_semilinear(m, L32)
        assert induced_lattice_map(s2, L32).perm == m.perm
        assert s2.normalized().matrix == s.normalized().matrix


def test_match_semilinear_recovers_frobenius(L34, f4):
    rng = random.Random(3)
    s = SemilinearMap(f4, random_invertible(f4, 3, rng), f4.frobenius(1))
    m = induced_lattice_map(s, L34)
    verify_lattice_map(m, L34)
    s2 = match_semilinear(m, L34)
    assert s2.twist.power == 1
    assert s2.normalized().matrix == s.normalized().matrix


def test_match_semilinear_rejects_rank2(L23):
    ident = LatticeMap(tuple(range(L23.size)), AUTO)
    with pytest.raises((MatchFailure, ValueError)):
        match_semilinear(ident, L23)


def test_scalar_maps_induce_identity(L23, f3):
    for c in range(2, f3.q):
        from projlat.matrices import scalar_matrix

        s = SemilinearMap(f3, scalar_matrix(f3, c, 2), f3.frobenius(0))
        assert induced_lattice_map(s, L23).is_identity


def _reference_verify_lattice_map(m, L):
    """Reference: the order check walking each up-set bit by bit, with the
    direction tested on every pair."""
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


def _verify_outcome(check, m, L):
    try:
        check(m, L)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n, spec", [(1, "2"), (2, "3"), (3, "2"), (4, "2"), (3, "2^2")])
def test_verify_lattice_map_matches_reference(n, spec):
    """Same verdict and same first failing pair as the reference, in both
    directions, on an automorphism, the duality, near misses of both and
    random permutations. At (1,2) the one atom is the top and the one
    coatom the bottom; at (2,3) the atoms are the coatoms."""
    L = enumerate_subspaces(n, parse_field(spec))
    rng = random.Random(n * 10 + len(spec))
    matrix = random_invertible(L.field, n, rng)
    f = induced_lattice_map(SemilinearMap(L.field, matrix, L.field.frobenius(0)), L).perm
    gamma = standard_duality(L).perm
    perms = [f, gamma]
    for base in (f, gamma):
        for _ in range(3):
            near = list(base)
            i, j = rng.sample(range(L.size), 2)
            near[i], near[j] = near[j], near[i]
            perms.append(tuple(near))
    for _ in range(5):
        shuffled = list(range(L.size))
        rng.shuffle(shuffled)
        perms.append(tuple(shuffled))
    outcomes = []
    for perm in perms:
        for direction in (AUTO, ANTI):
            m = LatticeMap(perm, direction)
            want = _verify_outcome(_reference_verify_lattice_map, m, L)
            assert _verify_outcome(verify_lattice_map, m, L) == want
            outcomes.append(want)
    # f preserves order and gamma reverses it, so each passes one claim
    assert outcomes[0] is None and outcomes[3] is None and None not in outcomes[1:3]


def _perms_and_duality(L, seed):
    """An automorphism of L induced by a seeded matrix, and the duality."""
    matrix = random_invertible(L.field, L.n, random.Random(seed))
    f = induced_lattice_map(SemilinearMap(L.field, matrix, L.field.frobenius(0)), L).perm
    return f, standard_duality(L).perm


@pytest.mark.parametrize("n, spec", [(2, "3"), (3, "2"), (4, "2")])
def test_verify_lattice_map_refuses_a_perm_repeating_an_image(n, spec):
    """verify_lattice_map reads only perm and direction, so it must refuse
    a perm that LatticeMap itself refuses: an automorphism, or the
    duality, with the last element, the top, sent where the first goes.
    Every element but the last has its lifted image, so only the last
    one's comparison keeps the lift from accepting it."""
    L = enumerate_subspaces(n, parse_field(spec))
    f, gamma = _perms_and_duality(L, n)
    for base, direction in ((f, AUTO), (gamma, ANTI)):
        perm = base[:-1] + base[:1]
        with pytest.raises(ValueError, match="not a permutation"):
            LatticeMap(perm, direction)
        m = SimpleNamespace(perm=perm, direction=direction)
        assert not semilinear._lift_proves(m, L)
        want = _verify_outcome(_reference_verify_lattice_map, m, L)
        assert want is not None
        assert _verify_outcome(verify_lattice_map, m, L) == want


def test_verify_lattice_map_proves_nothing_on_a_corrupted_order():
    """Two corruptions of L(4,2), each on a lattice no proof has seen yet
    (the maps come from a third). "both": a line x that the automorphism
    moves is put below a plane y not above it, in the up-sets and the
    down-sets alike, so L's order is no longer inclusion of its atom sets:
    the lift proves no map, and every outcome, near misses included, is
    the reference's, which fails the automorphism and the duality. "down": one point is dropped from the
    down-set of a line above it, the up-sets left alone: L is still
    atomistic, and an automorphism is still proved by the lift, but the
    dual order, which the down-sets give, is no longer inclusion of its
    coatom sets, so the duality is walked, and its ANTI check, which
    reads down-sets, fails."""
    F = parse_field("2")
    f, gamma = _perms_and_duality(enumerate_subspaces(4, F), 4)
    L = enumerate_subspaces(4, F)
    x = next(e for e in L.dim_index[2] if f[e] != e)
    y = next(h for h in L.dim_index[3] if not L.leq_idx(x, h))
    L.up_masks[x] |= 1 << y
    L.down_masks[y] |= 1 << x
    assert not L.verify_atomistic()
    maps = [LatticeMap(f, AUTO), LatticeMap(gamma, ANTI)]
    rng = random.Random(4)
    for perm in (f, gamma):
        for _ in range(2):
            near = list(perm)
            i, j = rng.sample(range(L.size), 2)
            near[i], near[j] = near[j], near[i]
            maps += [LatticeMap(tuple(near), AUTO), LatticeMap(tuple(near), ANTI)]
    outcomes = []
    for m in maps:
        assert not semilinear._lift_proves(m, L)
        want = _verify_outcome(_reference_verify_lattice_map, m, L)
        assert _verify_outcome(verify_lattice_map, m, L) == want
        outcomes.append(want)
    assert outcomes[0] is not None and outcomes[1] is not None

    L = enumerate_subspaces(4, F)
    k = L.dim_index[2][0]
    point = next(p for p in L.atoms if L.leq_idx(p, k))
    L.down_masks[k] &= ~(1 << point)
    assert L.verify_atomistic() and not L.dual.verify_atomistic()
    assert semilinear._lift_proves(LatticeMap(f, AUTO), L)
    verify_lattice_map(LatticeMap(f, AUTO), L)
    duality = LatticeMap(gamma, ANTI)
    assert not semilinear._lift_proves(duality, L)
    with pytest.raises(ValueError, match="anti-automorphism claim fails"):
        verify_lattice_map(duality, L)
