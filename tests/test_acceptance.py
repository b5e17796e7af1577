"""Acceptance gate: ten criteria, one test per criterion, exact equality
throughout. Every expected number is produced by an independent oracle
(closed-form count, brute-force generation, or frozen output of a
computation run before the assertion was written)."""

import hashlib
import json
import random
import time

import pytest

from projlat import (
    ANTI,
    AUTO,
    EVEN,
    LatticeMap,
    ODD,
    PosetMap,
    SemilinearMap,
    UNKNOWN,
    anti_automorphism_from_semilinear,
    canonical_json,
    check_im_ker_lemma,
    classify_parity,
    conjugation_automorphism,
    enumerate_idempotents,
    enumerate_poset_automorphisms,
    even_from_lattice_automorphism,
    extend_to_ring_map,
    extract_semilinear_from_ring_iso,
    odd_from_anti_automorphism,
    parse_field,
    perm_compose,
    projection_pair_count,
    restrict_to_projections,
    standard_duality,
    transpose_anti_automorphism,
    verify_fundamental_correspondence,
    verify_omp_axioms,
    verify_projection_correspondence,
    verify_semidirect_structure,
)
from projlat.maps import compose_parities
from projlat.matrices import mat_inv, mat_mul, random_invertible, random_matrix
from projlat.ringmaps import matrix_units


def test_c01_omp_axioms_and_exact_sizes(P22, P32, P23, P33, f2, f3):
    """Criterion 1: the projection poset satisfies every orthomodular-poset
    axiom at (2,2), (3,2), (2,3), (3,3), and its size equals the
    independently computed idempotent-matrix count. Runtime < 10 s."""
    t0 = time.monotonic()
    expected_sizes = {(2, 2): 8, (3, 2): 58, (2, 3): 14, (3, 3): 236}
    posets = {(2, 2): P22, (3, 2): P32, (2, 3): P23, (3, 3): P33}
    for (n, q), P in posets.items():
        rep = verify_omp_axioms(P)
        assert rep.passed, ((n, q), rep.checks)
        assert P.size == expected_sizes[(n, q)] == projection_pair_count(n, q)
    # brute idempotent counts where the scan is feasible
    assert len(enumerate_idempotents(f2, 2)) == 8
    assert len(enumerate_idempotents(f2, 3)) == 58
    assert len(enumerate_idempotents(f3, 2)) == 14
    assert len(enumerate_idempotents(f3, 3)) == 236
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"CRITERION 1 PASS: OMP axioms + exact sizes at 4 ambients ({elapsed:.1f}s)")


def test_c02_idempotent_correspondence_is_order_iso(f2, f3):
    """Criterion 2: complementary pairs biject with idempotent matrices as
    an order isomorphism, with orthocomplement matching p -> 1 - p, at the
    same four ambients. Runtime < 10 s."""
    t0 = time.monotonic()
    for F, n in ((f2, 2), (f2, 3), (f3, 2), (f3, 3)):
        rep = verify_projection_correspondence(n, F)
        assert rep.passed, ((n, F.q), rep.checks)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"CRITERION 2 PASS: order isomorphism with 1-p orthocomplement ({elapsed:.1f}s)")


def test_c03_main_theorem_at_length_4_checkpointable(run_cli, tmp_path):
    """Criterion 3: at (4,2) the poset has exactly 40320 automorphisms;
    every one decomposes as even or odd; the constructed maps (20160
    lattice automorphisms, matched independently against semilinear
    generation, plus their duality twins) reproduce the same set exactly.
    Driven through the CLI to also demonstrate checkpoint/resume. <= 30 min."""
    t0 = time.monotonic()
    ckpt = tmp_path / "mt.ckpt"
    out1 = tmp_path / "first"
    code, _, err = run_cli(
        "verify-main-theorem", "--n", "4", "--field", "2",
        "--checkpoint", str(ckpt), "--out", str(out1),
    )
    assert code == 0, err
    report = (out1 / "verify-main-theorem.json").read_bytes()
    # frozen: the sha256 of this report as first produced, before any refactor
    assert hashlib.sha256(report).hexdigest() == (
        "1279215abb603129d2e0b26da9ed4a0b13693d3e6d5957af26f71fd03d9c8796"
    )
    doc = json.loads(report)
    assert doc["status"] == "pass"
    checks = {c["name"]: c["ok"] for c in doc["checks"]}
    assert checks == {
        "lattice_count_matches_projective_group_order": True,
        "lattice_autos_equal_semilinear_generation": True,
        "duality_involutory": True,
        "even_odd_constructions_distinct": True,
        "every_enumerated_map_decomposes": True,
        "enumerated_equals_constructed": True,
    }
    assert doc["counts"] == {
        "lattice_automorphisms": 20160,
        "poset_automorphisms": 40320,
        "decomposed_even": 20160,
        "decomposed_odd": 20160,
    }

    # checkpoint/resume: drop two completed branches and rerun; only those
    # branches recompute and the final report is byte-identical
    state = json.loads(ckpt.read_text())
    for key in list(state["done"])[:2]:
        del state["done"][key]
    ckpt.write_text(canonical_json(state))
    out2 = tmp_path / "resumed"
    code, _, err = run_cli(
        "verify-main-theorem", "--n", "4", "--field", "2",
        "--checkpoint", str(ckpt), "--out", str(out2),
    )
    assert code == 0, err
    assert (out1 / "verify-main-theorem.json").read_bytes() == (
        out2 / "verify-main-theorem.json"
    ).read_bytes()
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0, f"criterion 3 took {elapsed:.0f}s"
    print(f"CRITERION 3 PASS: 40320 = 20160 even + 20160 odd, exact set equality, checkpointed ({elapsed:.0f}s)")


def test_c04_semilinear_witnesses_for_all_lattice_autos(L32, L42, L34):
    """Criterion 4: every enumerated lattice automorphism matches a
    semilinear witness at (3,2), (4,2), (3,4); at (3,4) the Frobenius
    twist is genuinely needed."""
    t0 = time.monotonic()
    rep32 = verify_fundamental_correspondence(L32)
    assert rep32.passed and rep32.counts["matched"] == rep32.counts["total"] == 168
    rep42 = verify_fundamental_correspondence(L42)
    assert rep42.passed and rep42.counts["matched"] == rep42.counts["total"] == 20160
    rep34 = verify_fundamental_correspondence(L34)
    assert rep34.passed and rep34.counts["matched"] == rep34.counts["total"] == 120960
    # frozen histogram: exactly half the maps need the Frobenius twist
    assert rep34.counts["twist_histogram"] == {"0": 60480, "1": 60480}
    elapsed = time.monotonic() - t0
    print(f"CRITERION 4 PASS: 100% semilinear matching at 3 ambients, Frobenius required at (3,4) ({elapsed:.0f}s)")


def test_c05_duality_and_semidirect_structure(L32, L42, P32, P42):
    """Criterion 5: the identity-gram duality (involutory twist) is an
    involution; the even maps form a normal subgroup with unique coset
    factorization of the odd maps: exhaustively at (3,2), with the full
    coset check at (4,2)."""
    t0 = time.monotonic()
    for L in (L32, L42):
        gamma = standard_duality(L)
        assert gamma.direction == ANTI
        assert gamma.compose(gamma).is_identity
    rep32 = verify_semidirect_structure(L32, P32)
    assert rep32.passed, rep32.checks
    assert rep32.counts["closure_mode"] == "exhaustive"
    names32 = {name for name, ok, _ in rep32.checks}
    assert {"evens_form_subgroup", "evens_normal_under_gamma",
            "odds_are_unique_even_gamma_factorizations",
            "gamma_squared_identity"} <= names32
    rep42 = verify_semidirect_structure(L42, P42, seed=0)
    assert rep42.passed, rep42.checks
    assert rep42.counts["closure_mode"] == "sampled"
    elapsed = time.monotonic() - t0
    print(f"CRITERION 5 PASS: involution + subgroup/normality/unique-coset ({elapsed:.0f}s)")


def test_c06_image_kernel_product_laws(P22, P32, P23):
    """Criterion 6: the idempotent product laws (containment and equality
    of images and kernels) hold over every ordered pair, exhaustively at
    (2,2), (3,2), (2,3). Zero counterexamples."""
    t0 = time.monotonic()
    for P in (P22, P32, P23):
        rep = check_im_ker_lemma(P)
        assert rep.passed, rep.checks
        assert len(rep.checks) == 4  # inclusion + equality, image + kernel
    elapsed = time.monotonic() - t0
    print(f"CRITERION 6 PASS: image/kernel product laws exhaustive at 3 ambients ({elapsed:.0f}s)")


def test_c07_witness_extraction_round_trips():
    """Criterion 7: witness extraction from black-box ring automorphisms:
    >= 100 seeded conjugations per ambient; the matrix is recovered up to
    the scalar normalization and the field twist exactly; the conjugation
    identity holds on all matrix-unit generators and 100 random T per case."""
    t0 = time.monotonic()
    ambients = [
        ("3", 3, 0),   # GF(3)^3, identity twist
        ("5", 3, 0),   # GF(5)^3, identity twist
        ("2^2", 2, 1), # GF(4)^2, Frobenius twist
    ]
    for spec, n, twist_power in ambients:
        F = parse_field(spec)
        rng = random.Random(1000 + F.q)
        units = [matrix_units(F, n)[i][j] for i in range(n) for j in range(n)]
        for case in range(100):
            s = SemilinearMap(F, random_invertible(F, n, rng), F.frobenius(twist_power))
            phi = conjugation_automorphism(s)
            s2, sigma = extract_semilinear_from_ring_iso(phi, seed=case)
            assert sigma.power == twist_power, (spec, case)
            assert s2.normalized().matrix == s.normalized().matrix, (spec, case)
            # conjugation identity with the extracted witness
            m2 = s2.matrix
            m2_inv = mat_inv(F, m2)
            tw = sigma.on_matrix
            for t in units:
                assert phi.apply(t) == mat_mul(F, mat_mul(F, m2_inv, tw(t)), m2)
            for _ in range(100):
                t = random_matrix(F, n, n, rng)
                assert phi.apply(t) == mat_mul(F, mat_mul(F, m2_inv, tw(t)), m2)
    elapsed = time.monotonic() - t0
    print(f"CRITERION 7 PASS: 300 exact extractions incl. Frobenius recovery ({elapsed:.0f}s)")


def test_c08_restriction_parity_and_extension(P32, f2, L42, P42, aut_l42):
    """Criterion 8: every tested ring automorphism restricts to an even
    poset map, the transpose anti-automorphism restricts odd, and the
    even-to-ring extension round-trips on a 100-map sample at n = 4."""
    t0 = time.monotonic()
    rng = random.Random(47)
    for _ in range(10):
        s = SemilinearMap(f2, random_invertible(f2, 3, rng), f2.frobenius(0))
        assert restrict_to_projections(conjugation_automorphism(s), P32).parity == EVEN
        assert (
            restrict_to_projections(anti_automorphism_from_semilinear(s), P32).parity
            == ODD
        )
    assert restrict_to_projections(transpose_anti_automorphism(f2, 3), P32).parity == ODD
    assert restrict_to_projections(transpose_anti_automorphism(f2, 4), P42).parity == ODD
    for _ in range(5):
        s = SemilinearMap(f2, random_invertible(f2, 4, rng), f2.frobenius(0))
        assert restrict_to_projections(conjugation_automorphism(s), P42).parity == EVEN

    sample = random.Random(8).sample(aut_l42, 100)
    for f in sample:
        phi = even_from_lattice_automorphism(f, P42)
        ring = extend_to_ring_map(phi, P42)
        assert ring.direction == AUTO
        assert restrict_to_projections(ring, P42).perm == phi.perm
    elapsed = time.monotonic() - t0
    print(f"CRITERION 8 PASS: parities + 100 extension round trips at n=4 ({elapsed:.0f}s)")


def test_c09_parity_classification_consistency_and_composition(P32, L32, aut_l32):
    """Criterion 9: classify_parity returns a verdict with zero
    mixed-evidence reports for every automorphism of P(3,2) (all 336) and
    for constructed maps at n=4 contexts covered in criteria 3/8; the
    even/odd composition table holds on all pairwise compositions of a
    20-map sample."""
    t0 = time.monotonic()
    maps32 = enumerate_poset_automorphisms(P32)
    assert len(maps32) == 336
    verdicts = []
    for m in maps32:
        verdicts.append(classify_parity(m, P32))  # raises on inconsistency
    assert verdicts.count(EVEN) == 168 and verdicts.count(ODD) == 168

    sample = random.Random(3).sample(list(zip(maps32, verdicts)), 20)
    for m1, p1 in sample:
        for m2, p2 in sample:
            comp = PosetMap(perm_compose(m1.perm, m2.perm), UNKNOWN)
            assert classify_parity(comp, P32) == compose_parities(p1, p2)
    elapsed = time.monotonic() - t0
    print(f"CRITERION 9 PASS: 336 consistent verdicts + 400-composition table ({elapsed:.0f}s)")


C10_VERB_RUNS = [
    ("enumerate-lattice", "--n", "3", "--field", "2"),
    ("build-poset", "--n", "2", "--field", "3"),
    ("verify-omp", "--n", "2", "--field", "2"),
    ("verify-correspondence", "--n", "2", "--field", "3"),
    ("enumerate-lattice-autos", "--n", "2", "--field", "3"),
    ("verify-semidirect", "--n", "2", "--field", "2", "--seed", "9"),
    ("ring-lemma", "--n", "2", "--field", "2"),
    ("ring-extract", "--n", "2", "--field", "3", "--cases", "5", "--seed", "3"),
    ("ring-restrict", "--n", "2", "--field", "3", "--cases", "3", "--seed", "4"),
    ("ring-odd-experiment", "--n", "3", "--field", "2", "--cases", "2"),
]


def test_c10_reports_are_byte_identical_across_reruns(run_cli, tmp_path):
    """Criterion 10: repeating any verb with the same seed yields
    byte-identical JSON reports, both on stdout and in --out files."""
    t0 = time.monotonic()
    verb_runs = C10_VERB_RUNS
    for argv in verb_runs:
        outputs = []
        for rerun in range(2):
            out_dir = tmp_path / f"{argv[0]}-{rerun}"
            code, stdout, err = run_cli(*argv, "--format", "json", "--out", str(out_dir))
            assert code == 0, (argv, err)
            report = (out_dir / f"{argv[0]}.json").read_bytes()
            outputs.append((stdout, report))
        assert outputs[0] == outputs[1], f"rerun of {argv[0]} differed"
    elapsed = time.monotonic() - t0
    print(f"CRITERION 10 PASS: {len(verb_runs)} verbs byte-identical across reruns ({elapsed:.0f}s)")


# sha256 of each report as first produced, before any refactor: a change
# to the code may not change a report byte
FROZEN_REPORT_SHA256 = {
    "enumerate-lattice": "304bbaed40549ccf4fec06dbc952e1bcd111ee7d57fbe8868e6dacd87a27f734",
    "build-poset": "36a1d93d411c35fefe4bae639d65bac3466de7014808a5b45554005b36bb1266",
    "verify-omp": "3bea0ef7cb85864c27576795b2ebfa35127d24bec291f39e114f5a8d557b79af",
    "verify-correspondence": "3ffca6ba95059ad6b33e88d132ec2b2263696c681c4f6d3fe23105cb987b8497",
    "enumerate-lattice-autos": "1a396381019abc0cc5f79381131dc74f6bf91e4a2cf0366f8d5f6f3f30572eb3",
    "verify-semidirect": "dcf02d270ffee1e6150c9c049a12196a70f913e5e4ca71b10d76978936bcbd11",
    "ring-lemma": "b55d7c1cb6007c6e31241284d2a10e2fdfc7e35cb0cab529593b71780e5ace95",
    "ring-extract": "fd47ebe53fbc163001a4f55900ea14747dba70b854e18b895b887042dd5f7943",
    "ring-restrict": "007ae82faa1a87263f2c5e43aa742e7b958ade3684da27b17d4fdaf357bff551",
    "ring-odd-experiment": "9086a71a5894d5b2bcac4baf49e9d5d411a6f93458585dd698d69b4966cf42a4",
    "verify-glattice": "d75a1089163933bfd2f680a2598134fe976d90c42cfc94bc0b7b6d0b77b3b845",
    "verify-main-theorem": "50eee0f51050d8424b407157bf1beab73f58837f6abec39c133eba3337bde6d6",
}


def test_c10_report_bytes_match_frozen_hashes(run_cli, tmp_path):
    """The --out report of every C10 verb, of verify-glattice and of a
    budget-stopped (partial) verify-main-theorem hashes to its frozen
    value, and the exit code follows the report status."""
    runs = C10_VERB_RUNS + [
        ("verify-glattice", "--n", "2", "--field", "3"),
        ("verify-main-theorem", "--n", "4", "--field", "2", "--budget-nodes", "500"),
    ]
    for argv in runs:
        out_dir = tmp_path / argv[0]
        code, _, err = run_cli(*argv, "--format", "json", "--out", str(out_dir))
        report = (out_dir / f"{argv[0]}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == FROZEN_REPORT_SHA256[argv[0]], argv
        status = json.loads(report)["status"]
        assert code == {"pass": 0, "experiment": 0, "partial": 3}[status], (argv, err)
