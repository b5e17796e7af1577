"""The projection poset: complement pairs, the idempotent-matrix bijection,
order/orthocomplement structure, and the OMP axioms."""

import copy

import pytest

from projlat import (
    NotIdempotent,
    build_projection_poset,
    enumerate_subspaces,
    enumerate_idempotents,
    idempotent_to_subspaces,
    parse_field,
    projection_pair_count,
    projector_matrix,
    verify_omp_axioms,
    verify_projection_correspondence,
)
from projlat.lattice import _bits, down_masks
from projlat.matrices import identity, is_idempotent, mat_mul, zeros


def test_frozen_pair_counts(P22, P32, P23, P33):
    assert P22.size == 8
    assert P32.size == 58
    assert P23.size == 14
    assert P33.size == 236
    assert projection_pair_count(2, 2) == 8
    assert projection_pair_count(3, 2) == 58
    assert projection_pair_count(2, 3) == 14
    assert projection_pair_count(3, 3) == 236


def test_pair_count_equals_brute_idempotent_count(f2, f3):
    for F, n in ((f2, 2), (f2, 3), (f3, 2)):
        brute = len(enumerate_idempotents(F, n))
        assert brute == projection_pair_count(n, F.q)


def test_poset_order_definition(P32, L32):
    P, L = P32, L32
    for i in range(P.size):
        a, b = P.pairs[i]
        for j in range(P.size):
            c, d = P.pairs[j]
            assert P.leq_idx(i, j) == (L.leq_idx(a, c) and L.leq_idx(d, b))


def test_ortho_swaps_pair_components(P32):
    P = P32
    for i in range(P.size):
        a, b = P.pairs[i]
        assert P.pairs[P.ortho[i]] == (b, a)
        assert P.ortho[P.ortho[i]] == i


def test_grading_and_atoms(P32, L32):
    P = P32
    for i in range(P.size):
        assert P.grade[i] == L32.dims[P.pairs[i][0]]
    assert all(P.grade[a] == 1 for a in P.atoms)
    assert P.verify_atomistic()
    assert P.is_graded_by_image_dim()


def _graded_by_covers(P):
    """Reference: every cover pair of P raises the grade by exactly 1."""
    return all(P.grade[j] == P.grade[i] + 1 for i, j in P.cover_pairs())


def _corrupted(P, grade=None, up=None):
    """A copy of P with its grades or order masks replaced and no cached
    cover pairs or grading verdict."""
    Q = copy.copy(P)
    Q.grade = grade if grade is not None else P.grade
    if up is not None:
        Q.up_masks, Q.down_masks = up, down_masks(up)
    Q._covers = Q._graded = None
    return Q


GRADING_AMBIENTS = [(2, "2"), (2, "3"), (3, "2"), (3, "3"), (4, "2")]


@pytest.mark.parametrize("n, spec", GRADING_AMBIENTS)
def test_grading_check_matches_cover_pairs(n, spec):
    P = build_projection_poset(enumerate_subspaces(n, parse_field(spec)))
    assert P.is_graded_by_image_dim() is _graded_by_covers(P) is True


@pytest.mark.parametrize("n, spec", GRADING_AMBIENTS)
def test_grading_check_matches_cover_pairs_on_raised_grades(n, spec):
    """One element's grade raised by 1, for the bottom, the top, an atom
    and an element of every middle grade."""
    P = build_projection_poset(enumerate_subspaces(n, parse_field(spec)))
    picks = {P.bottom, P.top}
    picks.update(P.grade.index(g) for g in range(1, n))
    for e in sorted(picks):
        grade = list(P.grade)
        grade[e] += 1
        Q = _corrupted(P, grade=grade)
        assert Q.is_graded_by_image_dim() is _graded_by_covers(Q) is False, e


@pytest.mark.parametrize("n, spec", GRADING_AMBIENTS)
def test_grading_check_matches_cover_pairs_on_removed_middles(n, spec):
    """Middle elements of a two-step interval [i, j] removed from i's
    up-set: removing one leaves the grading intact, removing every one
    makes i < j a cover that skips a grade."""
    P = build_projection_poset(enumerate_subspaces(n, parse_field(spec)))
    up, grade = P.up_masks, P.grade
    for i in [P.bottom] + ([P.atoms[0]] if n >= 3 else []):
        j = next(k for k in _bits(up[i]) if grade[k] == grade[i] + 2)
        middles = up[i] & P.down_masks[j] & ~(1 << i | 1 << j)
        assert middles.bit_count() >= 2
        one = middles & -middles
        for removed, graded in ((one, True), (middles, False)):
            corrupted = list(up)
            corrupted[i] &= ~removed
            Q = _corrupted(P, up=corrupted)
            assert Q.is_graded_by_image_dim() is _graded_by_covers(Q) is graded


def _order_by_pairs(P):
    """Reference: the order tested on every pair of elements, (a, b) <= (c, d)
    iff a <= c and d <= b in the lattice, and the down-sets by transposing."""
    lup = P.lattice.up_masks
    img, ker = P.image, P.kernel
    up = []
    for i in range(P.size):
        ua, b = lup[img[i]], ker[i]
        ui = 0
        for j in range(P.size):
            if ua >> img[j] & 1 and lup[ker[j]] >> b & 1:
                ui |= 1 << j
        up.append(ui)
    return up, down_masks(up)


@pytest.mark.parametrize(
    "n, spec", [(2, "2"), (2, "3"), (3, "2"), (3, "3"), (4, "2"), (3, "2^2")]
)
def test_product_order_matches_pairwise_order(n, spec):
    P = build_projection_poset(enumerate_subspaces(n, parse_field(spec)))
    up, down = _order_by_pairs(P)
    assert P.up_masks == up
    assert P.down_masks == down


def test_orthogonal_joins_visit_every_orthogonal_pair(L32):
    """The orthogonal-joins check asks for the join of exactly the pairs
    (p, q), q >= p, with p <= q', and reports the first failures in order."""
    P = build_projection_poset(L32)
    up, ortho = P.up_masks, P.ortho
    want = [
        (i, j)
        for i in range(P.size)
        for j in range(i, P.size)
        if up[i] >> ortho[j] & 1
    ]
    calls = []
    # no join exists anywhere: every pair the checks ask about is reported
    P.lub_idx = lambda i, j: calls.append((i, j))
    checks = {name: (ok, detail) for name, ok, detail in verify_omp_axioms(P).checks}
    # complementation asks first, once per element
    assert calls[: P.size] == [(i, ortho[i]) for i in range(P.size)]
    assert sorted(calls[P.size : P.size + len(want)]) == want
    assert checks["orthogonal_joins_exist"] == (False, f"violations={want[:3]}")


def test_omp_axioms_small(P22, P32, P23, P33):
    for P in (P22, P32, P23, P33):
        rep = verify_omp_axioms(P)
        assert rep.passed, rep.checks


def test_projector_matrix_round_trip(L23, f3):
    L = L23
    P = build_projection_poset(L)
    for i in range(P.size):
        a, b = P.pairs[i]
        m = projector_matrix(f3, L.elements[a], L.elements[b])
        assert is_idempotent(f3, m)
        im, ker = idempotent_to_subspaces(f3, m)
        assert L.index[im] == a and L.index[ker] == b


def test_projector_matrix_rejects_non_complement(L23, f3):
    L = L23
    a = L.atoms[0]
    with pytest.raises(ValueError):
        projector_matrix(f3, L.elements[a], L.elements[a])


def test_idempotent_to_subspaces_rejects_non_idempotent(f3):
    with pytest.raises(NotIdempotent):
        idempotent_to_subspaces(f3, ((1, 1), (0, 1)))


def test_correspondence_campaign(f2, f3):
    for F, n in ((f2, 2), (f2, 3), (f3, 2)):
        rep = verify_projection_correspondence(n, F)
        assert rep.passed, rep.checks


def test_extreme_projections(f2, P22):
    n = 2
    z = zeros(n, n)
    i = identity(n)
    assert is_idempotent(f2, z) and is_idempotent(f2, i)
    assert mat_mul(f2, z, z) == z
    # bottom and top of the poset are the zero and identity idempotents
    bot, top = P22.bottom, P22.top
    assert P22.grade[bot] == 0 and P22.grade[top] == n
