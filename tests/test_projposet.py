"""The projection poset: complement pairs, the idempotent-matrix bijection,
order/orthocomplement structure, and the OMP axioms."""

import copy
import hashlib
import random

import pytest

from projlat import (
    AmbientTooLarge,
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


def test_poset_element_limit_is_inclusive(L32, monkeypatch):
    """P(3,2) has 58 elements: built at a limit of 58, refused at 57
    before any pair is tested."""
    from projlat import projposet

    monkeypatch.setattr(projposet, "POSET_ELEMENT_LIMIT", 58)
    assert build_projection_poset(L32).size == 58
    monkeypatch.setattr(projposet, "POSET_ELEMENT_LIMIT", 57)
    with pytest.raises(AmbientTooLarge, match="^58 projections exceeds the poset element limit 57$"):
        build_projection_poset(L32)


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
    """A copy of P with its grades or order masks replaced and no kept
    atomisticity verdict or bound tables."""
    Q = copy.copy(P)
    Q.grade = grade if grade is not None else P.grade
    if up is not None:
        Q.up_masks, Q.down_masks = up, down_masks(up)
    for kept in ("atomistic", "up_mask_index", "down_mask_index"):
        Q.__dict__.pop(kept, None)
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


def _least_bound(masks, i, j, what):
    """Reference: the least common bound of i and j in the order of masks
    (up masks for upper bounds, down masks for lower), found by walking
    every common bound; None if none is least."""
    common = masks[i] & masks[j]
    found = None
    for m in _bits(common):
        if common & ~masks[m] == 0:
            if found is not None:
                raise AssertionError(f"two distinct {what}")
            found = m
    return found


def _assert_bounds_match_scan(P, pairs, has_none=True):
    """lub_idx and glb_idx agree with the scan on every pair. Some pairs
    have a bound of each kind, and some lack one exactly when has_none."""
    lubs = [P.lub_idx(i, j) for i, j in pairs]
    glbs = [P.glb_idx(i, j) for i, j in pairs]
    assert lubs == [_least_bound(P.up_masks, i, j, "lubs") for i, j in pairs]
    assert glbs == [_least_bound(P.down_masks, i, j, "glbs") for i, j in pairs]
    for bounds in (lubs, glbs):
        assert (None in bounds) is has_none
        assert any(b is not None for b in bounds)


@pytest.mark.parametrize("n, spec", [(2, "2"), (3, "2"), (2, "3")])
def test_least_bounds_match_scan_on_every_pair(n, spec):
    """At n = 2, P is the lattice of height 2 over its atoms, so every
    pair has both bounds; at n = 3 some pairs lack a join or a meet."""
    P = build_projection_poset(enumerate_subspaces(n, parse_field(spec)))
    pairs = [(i, j) for i in range(P.size) for j in range(P.size)]
    _assert_bounds_match_scan(P, pairs, has_none=n > 2)


@pytest.mark.parametrize("n, spec", [(3, "3"), (4, "2"), (3, "5")])
def test_least_bounds_match_scan_on_seeded_pairs(n, spec):
    """Random pairs, which mostly have no least bound, and for each
    sampled i the pairs the OMP checks ask about: (i, i') and i with an
    element above it and with that element's orthocomplement."""
    P = build_projection_poset(enumerate_subspaces(n, parse_field(spec)))
    rng = random.Random(1500 + 10 * n + P.lattice.field.q)
    pairs = []
    for _ in range(300):
        i, j = rng.randrange(P.size), rng.randrange(P.size)
        k = rng.choice(_bits(P.up_masks[i]))
        pairs += [(i, j), (i, P.ortho[i]), (i, k), (k, i), (i, P.ortho[k])]
    _assert_bounds_match_scan(P, pairs)


@pytest.mark.parametrize("masks, table", [
    ("up_masks", "up_mask_index"), ("down_masks", "down_mask_index")
])
def test_bound_table_refuses_a_shared_mask(P32, masks, table):
    """Two elements with one up-set (or down-set) would have two least
    bounds wherever that set is the common one: building the table fails."""
    Q = _corrupted(P32)
    shared = list(getattr(P32, masks))
    shared[P32.atoms[0]] = shared[P32.atoms[1]]
    setattr(Q, masks, shared)
    with pytest.raises(AssertionError, match="same"):
        getattr(Q, table)
    bound = Q.lub_idx if masks == "up_masks" else Q.glb_idx
    with pytest.raises(AssertionError, match="same"):
        bound(P32.bottom, P32.top)


def _omp_axioms_by_scan(P):
    """Reference: each OMP check walked on its own, in report order, with
    every least bound found by _least_bound; the checks as (name, ok,
    detail) triples."""
    size, up, down, ortho = P.size, P.up_masks, P.down_masks, P.ortho

    def lub(i, j):
        return _least_bound(up, i, j, "lubs")

    def glb(i, j):
        return _least_bound(down, i, j, "glbs")

    full = (1 << size) - 1
    checks = [(
        "bounded",
        up[P.bottom] == full and down[P.top] == full,
        f"bottom={P.pairs[P.bottom]}, top={P.pairs[P.top]}",
    )]
    invol_bad = [i for i in range(size) if ortho[ortho[i]] != i]
    checks.append(("ortho_is_involution", not invol_bad, f"violations={invol_bad[:3]}"))
    rev_bad = [
        (i, j) for i in range(size) for j in _bits(up[i])
        if not up[ortho[j]] >> ortho[i] & 1
    ]
    checks.append(("ortho_reverses_order", not rev_bad, f"violations={rev_bad[:3]}"))
    bad_meet = [
        i for i in range(size)
        if glb(i, ortho[i]) != P.bottom or lub(i, ortho[i]) != P.top
    ]
    checks.append((
        "complementation",
        not bad_meet,
        f"violations={bad_meet[:3]}" if bad_meet else "p ^ p' = 0, p v p' = 1 for all p",
    ))
    no_join = sorted(
        (i, ortho[k]) for i in range(size) for k in _bits(up[i])
        if ortho[k] >= i and lub(i, ortho[k]) is None
    )
    checks.append((
        "orthogonal_joins_exist",
        not no_join,
        f"violations={no_join[:3]}" if no_join else "all orthogonal pairs",
    ))
    om_bad = []
    for i in range(size):
        for j in _bits(up[i]):
            m = glb(j, ortho[i])
            if m is None or lub(i, m) != j:
                om_bad.append((i, j))
    checks.append((
        "orthomodular_law",
        not om_bad,
        f"violations={om_bad[:3]}" if om_bad else "all comparable pairs",
    ))
    return checks


@pytest.mark.parametrize("n, spec", [(2, "3"), (3, "2"), (3, "3")])
def test_omp_checks_match_scan_with_broken_orthocomplements(n, spec):
    """With ortho values swapped between elements, so that every check
    but boundedness can fail, the report's checks, violation order and
    detail strings equal those of the scan, on the intact P too."""
    P = build_projection_poset(enumerate_subspaces(n, parse_field(spec)))
    assert verify_omp_axioms(P).checks == _omp_axioms_by_scan(P)
    rng = random.Random(15 * n + P.lattice.field.q)
    for swaps in (1, 2, 5):
        Q = _corrupted(P)
        Q.ortho = list(P.ortho)
        for _ in range(swaps):
            a, b = rng.sample(range(P.size), 2)
            Q.ortho[a], Q.ortho[b] = Q.ortho[b], Q.ortho[a]
        checks = verify_omp_axioms(Q).checks
        assert checks == _omp_axioms_by_scan(Q)
        assert not all(ok for _, ok, _ in checks)


# sha256 of the verify-omp report, as computed while every least bound was
# found by walking the common bounds
OMP_REPORT_SHA256 = {
    (3, "4"): "9836adf38d0237bb88428bf30a2669e77f51285986b97dd12009a413f36ee2ab",
    (4, "2"): "9e0856204f045e8b6ebc6ecf4f10e9b81ad302279ac1d0364b97d70b24735144",
    (3, "5"): "0642ac9c9170506ec9ad56c8f38350ac6785dd0e5c7189835fd42c13bcd5e4f1",
}


@pytest.mark.parametrize("n, spec", sorted(OMP_REPORT_SHA256))
def test_verify_omp_report_is_frozen(run_cli, tmp_path, n, spec):
    argv = ("verify-omp", "--n", str(n), "--field", spec)
    code, _, err = run_cli(*argv, "--format", "json", "--out", str(tmp_path))
    assert code == 0, err
    report = (tmp_path / "verify-omp.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == OMP_REPORT_SHA256[n, spec]


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
