"""Semilinear maps, induced lattice maps, dualities from bilinear forms,
and the witness-matching round trip."""

import random

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
