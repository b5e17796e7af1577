"""Command-line front door.

Verbs run enumeration and verification campaigns over a chosen ambient
(GF(q)^n), write canonical JSON reports, and render Hasse diagrams. Exit
codes follow the report status: 0 pass or experiment (experiments never
fail the exit), 1 fail (a check was falsified), 3 partial (node budget
exhausted, partial results persisted); 2 is a usage error or infeasible
ambient. Wall-clock timing goes to stderr only, so reports are
byte-identical across reruns with the same seed.

Each verb takes only the flags it reads. A config file's `key = value`
lines are parsed as that verb's `--key value` flags, placed before the
explicit ones, which therefore win. The one long-running verb
(verify-main-theorem) wraps autos.verify_main_theorem, which partitions
its search by the first branching decision and can checkpoint per-branch
results, resume, and fan branches out to worker processes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from .autos import (
    CheckpointError,
    FalsificationError,
    SearchBudgetExceeded,
    enumerate_lattice_automorphisms,
    even_from_lattice_automorphism,
    odd_from_anti_automorphism,
    projective_group_order,
    semilinear_atom_perms,
    verify_fundamental_correspondence,
    verify_main_theorem,
    verify_poset_map,
    verify_semidirect_structure,
)
from .exports import (
    dot_hasse_lattice,
    dot_hasse_poset,
    lattice_to_jsonable,
    map_from_jsonable,
    map_to_jsonable,
    poset_to_jsonable,
)
from .gf import FieldAutomorphism, FieldError, parse_field
from .lattice import (
    AmbientTooLarge,
    check_g_lattice_properties,
    enumerate_subspaces,
    gaussian_binomial,
    projection_pair_count,
    subspace_count_total,
)
from .maps import ANTI, EVEN, LatticeMap, ODD, perm_compose
from .matrices import random_invertible
from .projposet import (
    build_projection_poset,
    verify_omp_axioms,
    verify_projection_correspondence,
)
from .reports import CampaignReport, canonical_json, render_text, report_to_jsonable
from .ringmaps import (
    anti_automorphism_from_semilinear,
    check_im_ker_lemma,
    conjugation_automorphism,
    extend_to_ring_map,
    extract_semilinear_from_ring_iso,
    restrict_to_projections,
    transpose_anti_automorphism,
)
from .semilinear import MatchFailure, SemilinearMap, standard_duality, verify_lattice_map

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

EXIT_BY_STATUS = {
    "pass": EXIT_PASS,
    "fail": EXIT_FAIL,
    "experiment": EXIT_PASS,
    "partial": EXIT_BUDGET,
}

SCHEMA_MAPSET = "projlat-maps/1"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _emit(rep: CampaignReport, args, verb: str, name: str | None = None) -> int:
    """Write the report to stdout and, with --out, to VERB.json; return the
    exit code of its status."""
    doc = report_to_jsonable(rep, name=name)
    payload = canonical_json(doc)
    if args.format == "json":
        sys.stdout.write(payload)
    else:
        sys.stdout.write(render_text(doc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"{verb}.json"), "w") as fh:
            fh.write(payload)
    return EXIT_BY_STATUS[doc["status"]]


def _write_artifact(text: str, args, filename: str) -> None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, filename), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ambient(args, min_n: int = 1, why: str = "for this verb"):
    """The field of --field; an --n below min_n is refused, naming why."""
    if args.n is None:
        raise UsageError("--n is required for this verb")
    if args.n < min_n:
        raise UsageError(f"refused: --n must be at least {min_n} {why}")
    try:
        F = parse_field(args.field)
    except (FieldError, ValueError) as exc:
        raise UsageError(f"bad --field {args.field!r}: {exc}") from None
    return F


def _lattice(args, min_n: int = 1, why: str = "for this verb"):
    F = _ambient(args, min_n, why)
    try:
        return F, enumerate_subspaces(args.n, F)
    except AmbientTooLarge as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# simple verbs
# ---------------------------------------------------------------------------


def cmd_enumerate_lattice(args) -> int:
    F, L = _lattice(args)
    rep = CampaignReport("enumerate-lattice", (L.n, F.spec()))
    q = F.q
    total = subspace_count_total(L.n, q)
    rep.add("element_count_matches_formula", L.size == total, f"{L.size} vs {total}")
    by_dim = {}
    for d in range(L.n + 1):
        have = len(L.dim_index.get(d, []))
        want = gaussian_binomial(L.n, d, q)
        by_dim[str(d)] = have
        if have != want:
            rep.add(f"dimension_{d}_count", False, f"{have} vs {want}")
    rep.counts["size"] = L.size
    rep.counts["by_dim"] = by_dim
    return _emit(rep, args, "enumerate-lattice")


def cmd_build_poset(args) -> int:
    F, L = _lattice(args)
    P = build_projection_poset(L)
    rep = CampaignReport("build-poset", (L.n, F.spec()))
    want = projection_pair_count(L.n, F.q)
    rep.add("pair_count_matches_formula", P.size == want, f"{P.size} vs {want}")
    rep.add("graded_by_image_dimension", P.is_graded_by_image_dim(), "")
    rep.add("atomistic", P.verify_atomistic(), "")
    by_grade = {}
    for g in P.grade:
        by_grade[str(g)] = by_grade.get(str(g), 0) + 1
    rep.counts["size"] = P.size
    rep.counts["atoms"] = len(P.atoms)
    rep.counts["by_grade"] = by_grade
    return _emit(rep, args, "build-poset")


def cmd_verify_omp(args) -> int:
    F, L = _lattice(args)
    P = build_projection_poset(L)
    rep = verify_omp_axioms(P)
    return _emit(rep, args, "verify-omp", name="verify-omp")


def cmd_verify_glattice(args) -> int:
    F, L = _lattice(args)
    rep = check_g_lattice_properties(L)
    return _emit(rep, args, "verify-glattice", name="verify-glattice")


def cmd_verify_correspondence(args) -> int:
    F = _ambient(args)
    try:
        rep = verify_projection_correspondence(args.n, F)
    except (AmbientTooLarge, ValueError) as exc:
        raise UsageError(str(exc)) from None
    return _emit(rep, args, "verify-correspondence", name="verify-correspondence")


def expected_lattice_automorphism_count(n: int, q: int, k: int) -> int:
    """n >= 3: the projective semilinear group order. n = 2: atoms form an
    antichain, so every atom permutation extends: (q+1)! maps."""
    if n == 2:
        out = 1
        for i in range(2, q + 2):
            out *= i
        return out
    return projective_group_order(n, q, k)


def cmd_enumerate_lattice_autos(args) -> int:
    F, L = _lattice(args)
    try:
        maps = enumerate_lattice_automorphisms(L, budget=args.budget_nodes)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rep = CampaignReport("enumerate-lattice-autos", (L.n, F.spec()))
    want = expected_lattice_automorphism_count(L.n, F.q, F.k)
    rep.add("count_matches_group_order", len(maps) == want, f"{len(maps)} vs {want}")
    try:
        semi = semilinear_atom_perms(L)
        atoms = L.atoms
        ordinals = {a: t for t, a in enumerate(atoms)}
        search = {bytes(ordinals[m.perm[a]] for a in atoms) for m in maps}
        rep.add(
            "matches_semilinear_generation", semi == search, f"{len(semi)} generated"
        )
    except ValueError:
        rep.add("matches_semilinear_generation", True, "skipped: ambient too large")
    rep.counts["automorphisms"] = len(maps)
    return _emit(rep, args, "enumerate-lattice-autos")


def cmd_verify_ftpg(args) -> int:
    F, L = _lattice(args, 3, "(witness matching requires ambient dimension >= 3)")
    rep = verify_fundamental_correspondence(L, budget=args.budget_nodes)
    return _emit(rep, args, "verify-ftpg")


def cmd_verify_semidirect(args) -> int:
    F, L = _lattice(args, min_n=2)
    P = build_projection_poset(L)
    rep = verify_semidirect_structure(L, P, seed=args.seed, budget=args.budget_nodes)
    return _emit(rep, args, "verify-semidirect")


def cmd_verify_main_theorem(args) -> int:
    F, L = _lattice(args, 4, "(the classification theorem assumes lattice length >= 4)")
    P = build_projection_poset(L)
    try:
        rep = verify_main_theorem(
            L, P, budget=args.budget_nodes, jobs=args.jobs, checkpoint=args.checkpoint
        )
    except CheckpointError as exc:
        raise UsageError(str(exc)) from None
    return _emit(rep, args, "verify-main-theorem")


# ---------------------------------------------------------------------------
# ring verbs
# ---------------------------------------------------------------------------


def cmd_ring_lemma(args) -> int:
    F, L = _lattice(args)
    P = build_projection_poset(L)
    try:
        rep = check_im_ker_lemma(P)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return _emit(rep, args, "ring-lemma", name="ring-lemma")


def cmd_ring_extract(args) -> int:
    F = _ambient(args, min_n=2)
    n = args.n
    rep = CampaignReport("ring-extract", (n, F.spec()))
    rng = random.Random(args.seed)
    twist_counts: dict[str, int] = {}
    ok = 0
    for i in range(args.cases):
        twist = FieldAutomorphism(F, i % F.k)
        s = SemilinearMap(F, random_invertible(F, n, rng), twist)
        phi = conjugation_automorphism(s)
        s2, sigma = extract_semilinear_from_ring_iso(phi, seed=args.seed + i)
        if sigma == twist and s2.normalized().matrix == s.normalized().matrix:
            ok += 1
            twist_counts[str(sigma.power)] = twist_counts.get(str(sigma.power), 0) + 1
        else:
            rep.add(f"case_{i}", False, f"twist {twist.power} not recovered")
    rep.add(
        "all_cases_round_trip_exactly",
        ok == args.cases,
        f"{ok}/{args.cases} exact witness and twist recoveries",
    )
    rep.counts["cases"] = args.cases
    rep.counts["twists_recovered"] = twist_counts
    return _emit(rep, args, "ring-extract")


def cmd_ring_restrict(args) -> int:
    F, L = _lattice(args, min_n=2)
    P = build_projection_poset(L)
    rep = CampaignReport("ring-restrict", (L.n, F.spec()))
    rng = random.Random(args.seed)
    even_ok = odd_ok = 0
    for i in range(args.cases):
        twist = FieldAutomorphism(F, i % F.k)
        s = SemilinearMap(F, random_invertible(F, L.n, rng), twist)
        if restrict_to_projections(conjugation_automorphism(s), P).parity == EVEN:
            even_ok += 1
        if (
            restrict_to_projections(anti_automorphism_from_semilinear(s), P).parity
            == ODD
        ):
            odd_ok += 1
    transpose_odd = (
        restrict_to_projections(transpose_anti_automorphism(F, L.n), P).parity == ODD
    )
    rep.add(
        "automorphisms_restrict_even", even_ok == args.cases, f"{even_ok}/{args.cases}"
    )
    rep.add(
        "anti_automorphisms_restrict_odd", odd_ok == args.cases, f"{odd_ok}/{args.cases}"
    )
    rep.add("transpose_restricts_odd", transpose_odd, "")
    return _emit(rep, args, "ring-restrict")


def _sampled_extensions(args, L, odd: bool) -> tuple[int, int]:
    """Extend the constructed poset maps of one parity, built from a seeded
    sample of --cases lattice automorphisms (all of them when there are at
    most that many), to ring maps; returns (extensions that passed, maps
    sampled). A falsified extension counts as a failure and the loop goes
    on."""
    P = build_projection_poset(L)
    gamma = standard_duality(L)
    auts = enumerate_lattice_automorphisms(L, budget=args.budget_nodes)
    rng = random.Random(args.seed)
    sample = auts if len(auts) <= args.cases else rng.sample(auts, args.cases)
    ok = 0
    for f in sample:
        if odd:
            g = LatticeMap(perm_compose(f.perm, gamma.perm), ANTI)
            phi = odd_from_anti_automorphism(g, P)
        else:
            phi = even_from_lattice_automorphism(f, P)
        try:
            extend_to_ring_map(phi, P)
            ok += 1
        except (FalsificationError, MatchFailure):
            pass
    return ok, len(sample)


def cmd_ring_extend(args) -> int:
    F, L = _lattice(
        args, 4, "(extension rests on the classification, which assumes lattice length >= 4)"
    )
    rep = CampaignReport("ring-extend", (L.n, F.spec()))
    ok, sampled = _sampled_extensions(args, L, odd=False)
    rep.add("extension_round_trips", ok == sampled, f"{ok}/{sampled} even maps")
    rep.counts["sampled"] = sampled
    return _emit(rep, args, "ring-extend")


def cmd_ring_odd_experiment(args) -> int:
    F, L = _lattice(args, 3, "(odd-extension witness matching needs dimension >= 3)")
    rep = CampaignReport(
        "ring-odd-extension-experiment", (L.n, F.spec()), outcome="experiment"
    )
    found, sampled = _sampled_extensions(args, L, odd=True)
    rep.add(
        "anti_automorphism_witness_found_for_every_sampled_odd_map",
        found == sampled,
        f"{found}/{sampled}",
    )
    rep.counts["sampled"] = sampled
    rep.counts["note"] = (
        "EXPERIMENT: a positive finite-scale outcome; it does not settle "
        "whether odd maps extend in general"
    )
    return _emit(rep, args, "ring-odd-experiment")


# ---------------------------------------------------------------------------
# export and re-verification verbs
# ---------------------------------------------------------------------------


def cmd_export_dot(args) -> int:
    if args.target == "autos":
        raise UsageError("export-dot draws the lattice or the poset, not autos")
    F, L = _lattice(args)
    if args.target == "lattice":
        _write_artifact(dot_hasse_lattice(L), args, "lattice.dot")
    else:
        P = build_projection_poset(L)
        _write_artifact(dot_hasse_poset(P), args, "poset.dot")
    return EXIT_PASS


def cmd_export_json(args) -> int:
    F, L = _lattice(args)
    if args.target == "lattice":
        doc = lattice_to_jsonable(L)
        _write_artifact(canonical_json(doc), args, "lattice.json")
    elif args.target == "poset":
        P = build_projection_poset(L)
        doc = poset_to_jsonable(P)
        _write_artifact(canonical_json(doc), args, "poset.json")
    else:  # autos
        maps = enumerate_lattice_automorphisms(L, budget=args.budget_nodes)
        doc = {
            "schema": SCHEMA_MAPSET,
            "kind": "lattice",
            "n": L.n,
            "field": F.spec(),
            "maps": [map_to_jsonable(m) for m in maps],
        }
        _write_artifact(canonical_json(doc), args, "lattice-autos.json")
    return EXIT_PASS


def cmd_verify_map(args) -> int:
    """Re-verify an exported map file against a freshly built ambient."""
    if not args.infile:
        raise UsageError("--in FILE is required for verify-map")
    try:
        with open(args.infile) as fh:
            m = map_from_jsonable(json.load(fh))
    except (OSError, KeyError, ValueError) as exc:
        raise UsageError(f"bad map file: {exc}") from None
    F, L = _lattice(args)
    rep = CampaignReport("verify-map", (L.n, F.spec()))
    if isinstance(m, LatticeMap):
        if len(m.perm) != L.size:
            raise UsageError("map size does not match the ambient lattice")
        try:
            verify_lattice_map(m, L)
            rep.add("lattice_map_verified", True, m.direction)
        except ValueError as exc:
            rep.add("lattice_map_verified", False, str(exc))
    else:
        P = build_projection_poset(L)
        if len(m.perm) != P.size:
            raise UsageError("map size does not match the ambient poset")
        try:
            verify_poset_map(m, P)
            rep.add("poset_map_verified", True, "")
        except FalsificationError as exc:
            rep.add("poset_map_verified", False, str(exc))
    return _emit(rep, args, "verify-map")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """An int of at least 1, for counts of jobs, cases and nodes."""
    value = int(text) if text.strip().lstrip("+-").isdigit() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"want an integer of at least 1, got {text!r}")
    return value


# every flag once; each verb in VERBS names those it reads beyond COMMON_FLAGS
FLAGS = {
    "--n": dict(type=int, help="ambient dimension"),
    "--field": dict(default="2", help="prime or prime power 'p^k' (default: 2)"),
    "--out": dict(help="directory for report artifacts"),
    "--config": dict(help="file of key = value lines, read as flags of this verb"),
    "--format": dict(choices=["json", "text"], default="text", help="stdout report"),
    "--seed": dict(type=int, default=0, help="seed for sampled checks"),
    "--jobs": dict(
        type=_positive_int, default=1, help="worker processes for the poset branches"
    ),
    "--budget-nodes": dict(
        type=_positive_int,
        help="abort each search after this many backtracking nodes (exit 3); in "
        "verify-main-theorem it applies to the lattice search and to each branch",
    ),
    "--checkpoint": dict(help="checkpoint file of completed branches"),
    "--cases": dict(
        type=_positive_int, default=100, help="sample size for seeded campaigns"
    ),
    "--target": dict(
        choices=["lattice", "poset", "autos"], default="lattice", help="what to write"
    ),
    "--in": dict(dest="infile", help="input map file"),
}
COMMON_FLAGS = ("--n", "--field", "--out", "--config")

VERBS = {
    "enumerate-lattice": (
        cmd_enumerate_lattice, ("--format",),
        "Enumerate all subspaces of GF(q)^n and check the counts per "
        "dimension against the Gaussian binomial formula.",
    ),
    "build-poset": (
        cmd_build_poset, ("--format",),
        "Build the poset of projections (complementary subspace pairs with "
        "the modular-pair conditions) and check its size formula, grading, "
        "and atomisticity.",
    ),
    "verify-omp": (
        cmd_verify_omp, ("--format",),
        "Check the orthomodular poset axioms on the projection poset: "
        "bounds, involutive order-reversing orthocomplement, orthogonal "
        "joins, and the orthomodular law.",
    ),
    "verify-glattice": (
        cmd_verify_glattice, ("--format",),
        "Check the geometric-lattice battery on the subspace lattice: "
        "complement richness, modular pairs, covering, and the dimension "
        "law.",
    ),
    "verify-correspondence": (
        cmd_verify_correspondence, ("--format",),
        "Check that complementary pairs biject with idempotent matrices, "
        "that the bijection is an order isomorphism, and that the "
        "orthocomplement matches p -> 1 - p.",
    ),
    "enumerate-lattice-autos": (
        cmd_enumerate_lattice_autos, ("--format", "--budget-nodes"),
        "Backtracking enumeration of all lattice automorphisms, "
        "cross-checked against exhaustive semilinear generation and the "
        "projective group order.",
    ),
    "verify-ftpg": (
        cmd_verify_ftpg, ("--format", "--budget-nodes"),
        "Match every enumerated lattice automorphism (dimension >= 3) to a "
        "semilinear witness and report the twist histogram.",
    ),
    "verify-main-theorem": (
        cmd_verify_main_theorem,
        ("--format", "--budget-nodes", "--jobs", "--checkpoint"),
        "Enumerate ALL automorphisms of the projection poset, decompose "
        "each into a lattice automorphism (even) or anti-automorphism "
        "(odd), and check the set equals the constructed even/odd maps. "
        "Requires n >= 4; checkpointable with --checkpoint; parallel with "
        "--jobs.",
    ),
    "verify-semidirect": (
        cmd_verify_semidirect, ("--format", "--budget-nodes", "--seed"),
        "Check the group structure: even maps form a normal subgroup, the "
        "duality is an involution, and odd maps factor uniquely as "
        "even . duality. Closure is checked on every pair of even maps up "
        "to 10^6 pairs, on 300 pairs drawn with --seed above.",
    ),
    "ring-lemma": (
        cmd_ring_lemma, ("--format",),
        "Check the idempotent image/kernel product laws over every ordered "
        "pair of idempotent matrices.",
    ),
    "ring-extract": (
        cmd_ring_extract, ("--format", "--seed", "--cases"),
        "Round-trip test: conjugation ring automorphisms from seeded random "
        "semilinear maps, witness re-extracted from the black-box ring map "
        "and compared exactly (matrix and field twist).",
    ),
    "ring-restrict": (
        cmd_ring_restrict, ("--format", "--seed", "--cases"),
        "Restrict seeded random ring automorphisms and anti-automorphisms "
        "to the projection poset and classify parity: automorphisms must "
        "land even, anti-automorphisms odd.",
    ),
    "ring-extend": (
        cmd_ring_extend, ("--format", "--budget-nodes", "--seed", "--cases"),
        "Extend sampled even poset automorphisms to ring automorphisms via "
        "decomposition and semilinear matching; check each against the "
        "ring-map laws and that its restriction reproduces the input. "
        "Requires n >= 4.",
    ),
    "ring-odd-experiment": (
        cmd_ring_odd_experiment, ("--format", "--budget-nodes", "--seed", "--cases"),
        "EXPERIMENT: attempt to extend sampled odd poset automorphisms to "
        "ring anti-automorphisms at this finite scale. Reports outcomes "
        "without claiming anything beyond the tested ambient.",
    ),
    "export-dot": (
        cmd_export_dot, ("--target",),
        "Write the Hasse diagram of the lattice or projection poset in DOT "
        "format.",
    ),
    "export-json": (
        cmd_export_json, ("--target", "--budget-nodes"),
        "Write the lattice, the projection poset, or the lattice "
        "automorphism group as canonical JSON.",
    ),
    "verify-map": (
        cmd_verify_map, ("--format", "--in"),
        "Load an exported map file and re-verify it against a freshly "
        "built ambient.",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per verb, taking the common flags and its own; a flag
    the verb does not read is a usage error, and so is a flag abbreviated."""
    parser = argparse.ArgumentParser(
        prog="projlat",
        allow_abbrev=False,
        description=(
            "Finite subspace lattices over GF(q), their projection posets, "
            "and exhaustive verification of the even/odd automorphism "
            "classification."
        ),
    )
    sub = parser.add_subparsers(dest="verb", metavar="VERB")
    for verb, (func, flags, help_text) in VERBS.items():
        p = sub.add_parser(
            verb, help=help_text, description=help_text, allow_abbrev=False
        )
        for flag in COMMON_FLAGS + flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _config_flags(path: str) -> list[str]:
    """The key = value lines of a config file as --key=value tokens (one
    token each, so a value may start with '-'); '#' starts a comment."""
    tokens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line (want key = value): {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            tokens.append(f"--{key.replace('_', '-')}={val}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # config values go right after the verb, so the verb's parser
            # checks them and explicit flags, parsed later, win
            try:
                tokens = _config_flags(args.config)
            except (OSError, UsageError) as exc:
                sys.stderr.write(f"projlat: bad config {args.config}: {exc}\n")
                return EXIT_USAGE
            try:
                args = parser.parse_args(argv[:1] + tokens + argv[1:])
            except SystemExit:
                sys.stderr.write(f"projlat: the error is in config {args.config}\n")
                raise
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    if not args.verb:
        parser.print_help()
        return EXIT_USAGE
    t0 = time.monotonic()
    try:
        code = args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"projlat {args.verb}: {exc}\n")
        return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        sys.stderr.write(f"projlat {args.verb}: {exc}\n")
        return EXIT_BUDGET
    except FalsificationError as exc:
        sys.stderr.write(
            f"projlat {args.verb}: FALSIFIED: {exc}\npayload: {exc.payload!r}\n"
        )
        return EXIT_FAIL
    finally:
        sys.stderr.write(f"# wall {time.monotonic() - t0:.2f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
