"""Matrix-ring maps: the image/kernel product laws, center computation,
witness extraction from black-box ring isomorphisms, restriction to the
projection poset, and the even-extension construction."""

import hashlib
import random

import pytest

from projlat import (
    AUTO,
    ANTI,
    EVEN,
    FalsificationError,
    LatticeMap,
    ODD,
    SemilinearMap,
    anti_automorphism_from_semilinear,
    build_projection_poset,
    center_is_scalars,
    check_im_ker_lemma,
    conjugation_automorphism,
    enumerate_subspaces,
    even_from_lattice_automorphism,
    extend_to_ring_map,
    extract_semilinear_from_ring_iso,
    odd_from_anti_automorphism,
    parse_field,
    perm_compose,
    restrict_to_projections,
    standard_duality,
    transpose_anti_automorphism,
)
from projlat.matrices import (
    all_matrices,
    identity,
    mat_inv,
    mat_mul,
    random_invertible,
    random_matrix,
    rank,
    transpose,
    zeros,
)
from projlat.ringmaps import RingMap, matrix_units, verify_ring_map


def test_im_ker_lemma_exhaustive(P22, P32, P23):
    for P in (P22, P32, P23):
        rep = check_im_ker_lemma(P)
        assert rep.passed, rep.checks


def test_center_is_scalars(f2, f3, f4):
    for F, n in ((f2, 2), (f2, 3), (f3, 2), (f4, 2)):
        rep = center_is_scalars(F, n)
        assert rep.passed, rep.checks
        assert [name for name, _, _ in rep.checks] == [
            "solution_space_is_one_dimensional",
            "solution_space_is_spanned_by_identity",
            "brute_force_center_is_scalars",
        ]


def test_matrix_units_multiply_correctly(f3):
    units = matrix_units(f3, 2)
    assert len(units) == 2 and all(len(row) == 2 for row in units)
    e = {(i, j): units[i][j] for i in range(2) for j in range(2)}
    # E_ij E_kl = delta_jk E_il
    for (i, j), u in e.items():
        for (k, l), v in e.items():
            prod = mat_mul(f3, u, v)
            want = e[(i, l)] if j == k else zeros(2, 2)
            assert prod == want


def test_conjugation_is_verified_automorphism(f3):
    rng = random.Random(2)
    s = SemilinearMap(f3, random_invertible(f3, 2, rng), f3.frobenius(0))
    phi = conjugation_automorphism(s)
    assert phi.direction == AUTO
    verify_ring_map(phi)  # raises on failure
    # explicit conjugation identity on random elements
    m_inv = mat_inv(f3, s.matrix)
    for _ in range(20):
        t = tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(2))
        assert phi.apply(t) == mat_mul(f3, mat_mul(f3, m_inv, t), s.matrix)


def test_transpose_is_verified_anti_automorphism(f3):
    psi = transpose_anti_automorphism(f3, 2)
    assert psi.direction == ANTI
    verify_ring_map(psi)
    assert psi.apply(((1, 2), (0, 1))) == ((1, 0), (2, 1))


def test_extraction_recovers_witness_exactly(f3):
    rng = random.Random(11)
    for case in range(10):
        s = SemilinearMap(f3, random_invertible(f3, 3, rng), f3.frobenius(0))
        phi = conjugation_automorphism(s)
        s2, sigma = extract_semilinear_from_ring_iso(phi, seed=case)
        assert sigma.is_identity
        assert s2.normalized().matrix == s.normalized().matrix


def test_extraction_recovers_frobenius(f4):
    rng = random.Random(13)
    s = SemilinearMap(f4, random_invertible(f4, 2, rng), f4.frobenius(1))
    phi = conjugation_automorphism(s)
    s2, sigma = extract_semilinear_from_ring_iso(phi)
    assert sigma.power == 1
    assert s2.normalized().matrix == s.normalized().matrix


def test_extraction_independent_of_base_idempotent(f3):
    """The extracted witness (normalized) must not depend on which rank-one
    idempotent seeds the transport construction."""
    rng = random.Random(17)
    s = SemilinearMap(f3, random_invertible(f3, 2, rng), f3.frobenius(0))
    phi = conjugation_automorphism(s)
    base = extract_semilinear_from_ring_iso(phi)[0].normalized().matrix
    e11 = ((1, 0), (0, 0))
    e22 = ((0, 0), (0, 1))
    other = ((1, 1), (0, 0))  # rank-one idempotent? (1,1;0,0)^2 = (1,1;0,0)
    for p in (e11, e22, other):
        got = extract_semilinear_from_ring_iso(phi, idempotent=p)[0]
        assert got.normalized().matrix == base


def test_extraction_rejects_non_isomorphism(f3):
    # a map that is not multiplicative: entrywise doubling
    def bad(t):
        return tuple(tuple(f3.mul(2, x) for x in row) for row in t)

    phi = RingMap(f3, 2, AUTO, bad)
    with pytest.raises(FalsificationError):
        extract_semilinear_from_ring_iso(phi)


def test_restriction_parities(P32, f2):
    rng = random.Random(23)
    for _ in range(5):
        s = SemilinearMap(f2, random_invertible(f2, 3, rng), f2.frobenius(0))
        even = restrict_to_projections(conjugation_automorphism(s), P32)
        assert even.parity == EVEN
        odd = restrict_to_projections(anti_automorphism_from_semilinear(s), P32)
        assert odd.parity == ODD
    assert restrict_to_projections(transpose_anti_automorphism(f2, 3), P32).parity == ODD


def test_extension_round_trip(L42, P42, aut_l42):
    """Even maps extend to ring automorphisms, odd ones to ring
    anti-automorphisms, each restricting back to its map."""
    gamma = standard_duality(L42)
    rng = random.Random(29)
    for f in rng.sample(aut_l42, 3):
        phi = even_from_lattice_automorphism(f, P42)
        psi = odd_from_anti_automorphism(
            LatticeMap(perm_compose(f.perm, gamma.perm), ANTI), P42
        )
        for poset_map, direction in ((phi, AUTO), (psi, ANTI)):
            ring = extend_to_ring_map(poset_map, P42)
            assert ring.direction == direction
            assert restrict_to_projections(ring, P42).perm == poset_map.perm


def test_ring_map_preserves_idempotents(f3, P23):
    rng = random.Random(31)
    s = SemilinearMap(f3, random_invertible(f3, 2, rng), f3.frobenius(0))
    phi = conjugation_automorphism(s)
    midx = P23.matrix_index()
    for i in range(P23.size):
        img = phi.apply(P23.idempotent(i))
        assert img in midx  # idempotents map to idempotents
    assert phi.apply(identity(2)) == identity(2)
    assert phi.apply(zeros(2, 2)) == zeros(2, 2)


# Reference: the ring maps of a semilinear witness as two dense products,
# M^-1 twist(T) M and M^-1 twist(T)^t M.


def _reference_apply(s, direction):
    F, m = s.field, s.matrix
    m_inv = mat_inv(F, m)
    if direction == AUTO:
        return lambda t: mat_mul(F, mat_mul(F, m_inv, s.twist.on_matrix(t)), m)
    return lambda t: mat_mul(F, mat_mul(F, m_inv, transpose(s.twist.on_matrix(t))), m)


def _ring_map(s, direction):
    if direction == AUTO:
        return conjugation_automorphism(s)
    return anti_automorphism_from_semilinear(s)


@pytest.mark.parametrize("n, spec", [(2, "2"), (2, "3"), (2, "2^2"), (3, "2")])
def test_row_tables_match_products_on_every_matrix(n, spec):
    F = parse_field(spec)
    rng = random.Random(41)
    mats = list(all_matrices(F, n, n))
    for twist in F.automorphisms():
        for m in (identity(n), random_invertible(F, n, rng)):
            s = SemilinearMap(F, m, twist)
            for direction in (AUTO, ANTI):
                phi, ref = _ring_map(s, direction), _reference_apply(s, direction)
                assert all(phi.apply(t) == ref(t) for t in mats), (twist, m, direction)


@pytest.mark.parametrize("n, spec", [(3, "2^2"), (3, "5"), (2, "3^2"), (4, "2")])
def test_row_tables_match_products_on_seeded_matrices(n, spec):
    F = parse_field(spec)
    rng = random.Random(43)
    for twist in F.automorphisms():
        s = SemilinearMap(F, random_invertible(F, n, rng), twist)
        for direction in (AUTO, ANTI):
            phi, ref = _ring_map(s, direction), _reference_apply(s, direction)
            for _ in range(200):
                t = random_matrix(F, n, n, rng)
                assert phi.apply(t) == ref(t), (twist, direction, t)


def test_row_tables_match_products_on_drawn_inputs():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    fields = [parse_field(spec) for spec in ("2", "3", "5", "2^2", "3^2", "2^3")]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.data())
    def prop(data):
        F = data.draw(st.sampled_from(fields))
        n = data.draw(st.integers(1, 4))
        entry = st.integers(0, F.q - 1)
        square = st.tuples(*[st.tuples(*[entry] * n)] * n)
        m = data.draw(square)
        assume(rank(F, m) == n)
        s = SemilinearMap(F, m, data.draw(st.sampled_from(F.automorphisms())))
        t = data.draw(square)
        for direction in (AUTO, ANTI):
            assert _ring_map(s, direction).apply(t) == _reference_apply(s, direction)(t)

    prop()


def _reference_perm(ref, P):
    midx = P.matrix_index()
    return tuple(midx[ref(P.idempotent(i))] for i in range(P.size))


def test_restriction_matches_reference_perms(P32, P33, f2, f3):
    rng = random.Random(47)
    for P, F in ((P32, f2), (P33, f3)):
        for _ in range(4):
            s = SemilinearMap(F, random_invertible(F, 3, rng), F.frobenius(0))
            for direction in (AUTO, ANTI):
                got = restrict_to_projections(_ring_map(s, direction), P)
                assert got.perm == _reference_perm(_reference_apply(s, direction), P)
                assert got.parity == (EVEN if direction == AUTO else ODD)


def test_restriction_matches_reference_perms_at_3_5(f5):
    P = build_projection_poset(enumerate_subspaces(3, f5))
    rng = random.Random(53)
    for _ in range(3):
        s = SemilinearMap(f5, random_invertible(f5, 3, rng), f5.frobenius(0))
        for direction in (AUTO, ANTI):
            got = restrict_to_projections(_ring_map(s, direction), P)
            assert got.perm == _reference_perm(_reference_apply(s, direction), P)


def test_restriction_reads_only_apply(P32, f2):
    """A ring map is used only through apply: the restriction of a map whose
    stored witness disagrees with its apply follows the apply."""
    rng = random.Random(59)
    s_apply = SemilinearMap(f2, random_invertible(f2, 3, rng), f2.frobenius(0))
    s_other = SemilinearMap(f2, random_invertible(f2, 3, rng), f2.frobenius(0))
    want = _reference_perm(_reference_apply(s_apply, AUTO), P32)
    assert want != _reference_perm(_reference_apply(s_other, AUTO), P32)
    phi = RingMap(f2, 3, AUTO, conjugation_automorphism(s_apply).apply, witness=s_other)
    assert restrict_to_projections(phi, P32).perm == want


def test_ring_restrict_report_at_3_5_is_frozen(run_cli, tmp_path):
    """The report of ring-restrict at (3,5), the ambient of the
    structure-3x5 benchmark, hashes to its value before the row tables."""
    argv = ("ring-restrict", "--n", "3", "--field", "5", "--cases", "24", "--seed", "0")
    code, _, err = run_cli(*argv, "--format", "json", "--out", str(tmp_path))
    assert code == 0, err
    report = (tmp_path / "ring-restrict.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "cb1525c78e3fa93955f83ea2430d12c693fd15cf730346994e9cafd971f4d911"
    )


def test_ring_extend_report_at_4_2_is_frozen(run_cli, tmp_path):
    """ring-extend runs to a pass at (4,2), and its report hashes to its
    value from before the verb stopped restricting each extension twice."""
    argv = ("ring-extend", "--n", "4", "--field", "2", "--cases", "3", "--seed", "0")
    code, _, err = run_cli(*argv, "--format", "json", "--out", str(tmp_path))
    assert code == 0, err
    report = (tmp_path / "ring-extend.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "290159c3b19d935056b3e5ed7f99aa72bbf11e9610d40bdd16276c63e68d9d08"
    )


def test_ring_odd_experiment_report_at_4_2_is_frozen(run_cli, tmp_path):
    """The odd-extension experiment at (4,2), where the classification
    holds, hashes to its value from before one function extended maps of
    both parities."""
    argv = ("ring-odd-experiment", "--n", "4", "--field", "2", "--cases", "3", "--seed", "0")
    code, _, err = run_cli(*argv, "--format", "json", "--out", str(tmp_path))
    assert code == 0, err
    report = (tmp_path / "ring-odd-experiment.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "8a7ece51430532d268db922140e9919a9adeae1538e99671a87627e65917c9dd"
    )
