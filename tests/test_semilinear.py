"""Semilinear maps, induced lattice maps, dualities from bilinear forms,
and the witness-matching round trip."""

import pickle
import random
from types import SimpleNamespace

import pytest

from projlat import (
    LatticeMap,
    MatchFailure,
    SemilinearMap,
    enumerate_lattice_automorphisms,
    enumerate_subspaces,
    induced_lattice_map,
    make_duality,
    match_semilinear,
    parse_field,
    standard_duality,
    verify_lattice_map,
)
from projlat import semilinear
from projlat.gf import iter_vectors
from projlat.lattice import Subspace
from projlat.maps import ANTI, AUTO
from projlat.matrices import (
    as_matrix,
    identity,
    is_invertible,
    mat_inv,
    random_invertible,
    scale_vec,
    vec_mat,
)
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


@pytest.mark.parametrize("n, spec", [(2, "2^3"), (2, "3^2"), (3, "2^2"), (3, "5"), (4, "2")])
def test_apply_vector_equals_vec_mat_on_every_vector(n, spec):
    """The row-multiple evaluator gives twist(v) @ M on all of GF(q)^n,
    the zero vector included, for every twist power, and vec_mat's
    ValueError on a length mismatch; the filled multiples leave equality
    and hashing on (field, matrix, twist)."""
    F = parse_field(spec)
    rng = random.Random(n * 100 + F.q)
    vectors = list(iter_vectors(F, n))
    for twist in F.automorphisms():
        m = random_invertible(F, n, rng)
        s = SemilinearMap(F, m, twist)
        for v in vectors:
            assert s.apply_vector(v) == vec_mat(F, twist.on_vector(v), m), (twist, v)
        assert s.apply_vector((0,) * n) == (0,) * n
        for v in ((0,) * (n + 1), (1,) * (n - 1)):
            with pytest.raises(ValueError) as want:
                vec_mat(F, twist.on_vector(v), m)
            with pytest.raises(ValueError) as got:
                s.apply_vector(v)
            assert str(got.value) == str(want.value)
        fresh = SemilinearMap(F, m, twist)
        assert s == fresh and hash(s) == hash(fresh)
        copied = pickle.loads(pickle.dumps(s))
        assert copied == s and all(copied.apply_vector(v) == s.apply_vector(v) for v in vectors)


@pytest.mark.parametrize("n, spec", [(3, "2"), (3, "3"), (3, "2^2"), (4, "2")])
def test_point_table_agrees_with_span(n, spec):
    """L.point_of(v) is the point Subspace.span gives for every nonzero
    vector v, and the table holds each point once."""
    F = parse_field(spec)
    L = enumerate_subspaces(n, F)
    assert sorted(L.point_index.values()) == L.atoms
    for v in iter_vectors(F, n):
        if any(v):
            assert L.point_of(v) == L.index[Subspace.span(F, n, (v,))], v
    with pytest.raises(ValueError, match="zero vector"):
        L.point_of((0,) * n)


def _previous_match_semilinear(f, L):
    """Reference: the matcher that found each frame point by Subspace.span,
    checked the frame with is_invertible and inverted the witness anew for
    the pencil, then normalized it."""
    F = L.field
    n = L.n

    def atom_rep(subspace_index):
        return L.elements[subspace_index].basis[0]

    def point_index(v):
        return L.index[Subspace.span(F, n, (v,))]

    e = identity(n)
    y = [atom_rep(f.perm[point_index(e[i])]) for i in range(n)]
    y_mat = as_matrix(y)
    if not is_invertible(F, y_mat):
        raise MatchFailure("images of coordinate points are dependent")
    r = atom_rep(f.perm[point_index((1,) * n)])
    c = vec_mat(F, r, mat_inv(F, y_mat))
    if any(x == 0 for x in c):
        raise MatchFailure("image of the unit point misses a coordinate image")
    m = as_matrix(scale_vec(F, ci, yi) for ci, yi in zip(c, y))
    m_inv = mat_inv(F, m)
    sigma_table = [0] * F.q
    for lam in F.elements():
        v = (1, lam) + (0,) * (n - 2)
        t = vec_mat(F, atom_rep(f.perm[point_index(v)]), m_inv)
        if t[0] == 0 or any(t[j] for j in range(2, n)):
            raise MatchFailure(f"image of pencil point {v} leaves the pencil")
        sigma_table[lam] = F.div(t[1], t[0])
    sigma = next((tw for tw in F.automorphisms() if list(tw.table) == sigma_table), None)
    if sigma is None:
        raise MatchFailure(f"pencil action {sigma_table} is not a field automorphism")
    s = SemilinearMap(F, m, sigma).normalized()
    if induced_lattice_map(s, L).perm != f.perm:
        raise MatchFailure("candidate witness does not reproduce the map")
    return s


def _match_outcome(match, f, L):
    try:
        return match(f, L)
    except (ValueError, IndexError) as exc:
        return type(exc)


@pytest.mark.parametrize("n, spec", [(3, "2"), (3, "3")])
def test_matcher_equals_previous_matcher(n, spec):
    """On every lattice automorphism the matcher returns the previous
    matcher's witness. On seeded non-automorphisms (an automorphism with
    two elements swapped, or a shuffle) both raise the same class, except
    where the previous one indexed the empty basis of a non-point image:
    there the matcher raises MatchFailure."""
    L = enumerate_subspaces(n, parse_field(spec))
    autos_of_L = enumerate_lattice_automorphisms(L)
    for f in autos_of_L:
        assert match_semilinear(f, L) == _previous_match_semilinear(f, L)
    rng = random.Random(n * 10 + L.field.q)
    misses = []
    for f in rng.sample(autos_of_L, 20):
        for _ in range(5):
            perm = list(f.perm)
            i, j = rng.sample(range(L.size), 2)
            perm[i], perm[j] = perm[j], perm[i]
            misses.append(perm)
    for _ in range(20):
        perm = list(range(L.size))
        rng.shuffle(perm)
        misses.append(perm)
    fixed = 0
    for perm in misses:
        g = LatticeMap(tuple(perm), AUTO)
        want = _match_outcome(_previous_match_semilinear, g, L)
        got = _match_outcome(match_semilinear, g, L)
        if want is IndexError:
            fixed += 1
            want = MatchFailure
        assert got is want, perm
    assert fixed > 0


def test_matcher_refuses_a_frame_point_sent_to_a_non_point(L32):
    """A frame, unit or pencil point sent to an element that is not a
    point is a MatchFailure naming it: sent to the zero subspace (once an
    IndexError) or to a line (once reported as dependent coordinate
    images)."""
    def point(v):
        return L32.index[Subspace.span(L32.field, 3, (v,))]

    line = L32.dim_index[2][0]
    for point in map(point, ((1, 0, 0), (1, 1, 1), (1, 1, 0))):
        for other in (L32.bottom, line, L32.top):
            perm = list(range(L32.size))
            perm[point], perm[other] = perm[other], perm[point]
            with pytest.raises(MatchFailure, match="which is not a point"):
                match_semilinear(LatticeMap(tuple(perm), AUTO), L32)
