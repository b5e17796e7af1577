"""The command-line front door: exit codes, report artifacts, config
precedence, determinism, and the checkpoint machinery."""

import json
import os

import pytest

from projlat import FalsificationError, canonical_json
from projlat.exports import map_to_jsonable


def test_simple_verbs_pass(run_cli):
    for verb, n, field in [
        ("enumerate-lattice", "2", "2"),
        ("build-poset", "2", "3"),
        ("verify-omp", "2", "2"),
        ("verify-glattice", "2", "3"),
        ("verify-correspondence", "2", "2"),
        ("enumerate-lattice-autos", "2", "3"),
    ]:
        code, out, err = run_cli(verb, "--n", n, "--field", field)
        assert code == 0, (verb, err)
        assert "PASS" in out


def test_json_format_emits_canonical_document(run_cli):
    code, out, _ = run_cli(
        "verify-omp", "--n", "2", "--field", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "projlat-report/1"
    assert out == canonical_json(doc)


def test_out_directory_receives_report(run_cli, tmp_path):
    out_dir = tmp_path / "reports"
    code, _, _ = run_cli(
        "build-poset", "--n", "2", "--field", "2", "--out", str(out_dir)
    )
    assert code == 0
    payload = (out_dir / "build-poset.json").read_text()
    doc = json.loads(payload)
    assert doc["status"] == "pass"
    assert payload == canonical_json(doc)


def test_usage_errors_exit_2(run_cli):
    cases = [
        ("verify-omp",),  # missing --n
        ("verify-omp", "--n", "2", "--field", "six"),
        ("verify-omp", "--n", "6", "--field", "5"),  # too large
        ("verify-ftpg", "--n", "2", "--field", "2"),  # needs n >= 3
        ("verify-main-theorem", "--n", "3", "--field", "2"),  # needs n >= 4
        ("ring-extend", "--n", "3", "--field", "2"),  # needs n >= 4
        ("ring-odd-experiment", "--n", "2", "--field", "2"),  # needs n >= 3
        ("no-such-verb",),
        # flags the verb would ignore
        ("verify-ftpg", "--n", "3", "--jobs", "2"),
        ("enumerate-lattice-autos", "--n", "2", "--checkpoint", "F"),
        ("verify-omp", "--n", "2", "--format", "dot"),
        ("export-json", "--n", "2", "--format", "json"),
        ("ring-lemma", "--n", "2", "--seed", "1"),
        ("verify-map", "--n", "2", "--in", "absent.json"),  # unreadable map file
        ("export-dot", "--n", "2", "--target", "autos"),  # no diagram of autos
        # counts below 1
        ("ring-extract", "--n", "2", "--cases", "-1"),
        ("ring-restrict", "--n", "2", "--cases", "0"),
        ("verify-main-theorem", "--n", "4", "--jobs", "-3"),
        ("verify-main-theorem", "--n", "4", "--jobs", "0"),
        ("enumerate-lattice-autos", "--n", "2", "--budget-nodes", "0"),
        # an abbreviated flag
        ("verify-omp", "--n", "2", "--fie", "3"),
    ]
    for argv in cases:
        code, _, _ = run_cli(*argv)
        assert code == 2, argv


def test_main_theorem_refusal_names_the_hypothesis(run_cli):
    code, _, err = run_cli("verify-main-theorem", "--n", "3", "--field", "2")
    assert code == 2
    assert "length >= 4" in err


def test_budget_exhaustion_exits_3_with_partial_report(run_cli, tmp_path):
    out_dir = tmp_path / "partial"
    code, out, _ = run_cli(
        "verify-main-theorem",
        "--n",
        "4",
        "--field",
        "2",
        "--budget-nodes",
        "500",
        "--out",
        str(out_dir),
    )
    assert code == 3
    doc = json.loads((out_dir / "verify-main-theorem.json").read_text())
    assert doc["status"] == "partial"


def test_budget_on_plain_search_exits_3(run_cli):
    code, _, err = run_cli(
        "enumerate-lattice-autos", "--n", "3", "--field", "2",
        "--budget-nodes", "10",
    )
    assert code == 3
    assert "budget" in err


def test_config_file_defaults_and_flag_precedence(run_cli, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nfield = 3\nformat = json\n# comment\n")
    code, out, _ = run_cli("verify-omp", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["ambient"] == {"n": 2, "field": "3"}
    # explicit flag beats the config value
    code, out, _ = run_cli("verify-omp", "--config", str(cfg), "--field", "2")
    assert code == 0
    assert json.loads(out)["ambient"]["field"] == "2"


def test_bad_config_exits_2(run_cli, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    code, _, _ = run_cli("verify-omp", "--config", str(cfg))
    assert code == 2
    code, _, _ = run_cli("verify-omp", "--config", str(tmp_path / "absent.cfg"))
    assert code == 2
    # lines are parsed as the verb's flags: a bad type, an unknown key, a bad
    # choice and a flag the verb does not read are usage errors naming the file
    for verb, line in [
        ("enumerate-lattice-autos", "budget_nodes = abc"),
        ("verify-omp", "nn = 3"),
        ("verify-omp", "format = xml"),
        ("verify-ftpg", "jobs = 2"),
        ("verify-omp", "fie = 3"),  # a prefix of field, not a key
        ("ring-extract", "cases = -1"),
    ]:
        cfg.write_text(f"n = 3\n{line}\n")
        code, _, err = run_cli(verb, "--config", str(cfg))
        assert code == 2, line
        assert str(cfg) in err


def test_reruns_are_byte_identical(run_cli):
    argv = (
        "ring-extract", "--n", "2", "--field", "3",
        "--cases", "4", "--seed", "5", "--format", "json",
    )
    _, first, _ = run_cli(*argv)
    _, second, _ = run_cli(*argv)
    assert first == second


def test_export_dot_and_json(run_cli, tmp_path):
    code, _, _ = run_cli(
        "export-dot", "--n", "2", "--field", "2", "--target", "poset",
        "--out", str(tmp_path),
    )
    assert code == 0
    dot = (tmp_path / "poset.dot").read_text()
    assert dot.startswith("digraph") and "->" in dot
    code, _, _ = run_cli(
        "export-json", "--n", "2", "--field", "2", "--target", "lattice",
        "--out", str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "lattice.json").read_text())
    assert doc["schema"] == "projlat-lattice/1" and doc["size"] == 5


def test_verify_map_round_trip_and_falsification(run_cli, tmp_path, L32, aut_l32):
    good = tmp_path / "good.json"
    good.write_text(canonical_json(map_to_jsonable(aut_l32[3])))
    code, out, _ = run_cli(
        "verify-map", "--n", "3", "--field", "2", "--in", str(good)
    )
    assert code == 0 and "PASS" in out

    # corrupt: swap the images of two atoms; still a permutation, no longer
    # order-preserving
    perm = list(aut_l32[3].perm)
    a, b = L32.atoms[0], L32.atoms[1]
    perm[a], perm[b] = perm[b], perm[a]
    doc = map_to_jsonable(aut_l32[3])
    doc["permutation"] = perm
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_json(doc))
    code, out, _ = run_cli(
        "verify-map", "--n", "3", "--field", "2", "--in", str(bad)
    )
    assert code == 1
    assert "FAIL" in out


def test_worker_branch_budget_and_digest(P22):
    from projlat import autos
    from projlat.autos import iter_poset_atom_perms, poset_search_plan

    pivot, targets = poset_search_plan(P22)
    res = autos.run_poset_branch(P22, targets[0])
    assert res["count"] == res["even"] + res["odd"] + res["fail_count"]
    assert res["fail_count"] > 0  # (2,2): the dichotomy genuinely fails
    # deterministic digest: recompute from a fresh enumeration
    keys = [
        bytes(ap)
        for ap, _ in iter_poset_atom_perms(P22, restrict_first={targets[0]})
    ]
    assert res["digest"] == autos._branch_digest(keys)

    res2 = autos.run_poset_branch(P22, targets[0], budget=3)
    assert "budget_exhausted" in res2


def _branch_entry(target: int) -> dict:
    return {
        "target": target, "count": 336, "even": 168, "odd": 168,
        "digest": "0" * 64, "fail_count": 0, "failures": [],
    }


def test_checkpoint_round_trip(tmp_path):
    from projlat import autos

    path = str(tmp_path / "state.ckpt")
    state = {
        "schema": autos.SCHEMA_CHECKPOINT,
        "fingerprint": "abc",
        "done": {"3": _branch_entry(3)},
    }
    autos._save_checkpoint(path, state)
    loaded = autos._load_checkpoint(path, "abc", [1, 3])
    assert loaded == state
    with pytest.raises(autos.CheckpointError):
        autos._load_checkpoint(path, "different", [1, 3])


def test_corrupted_checkpoint_entry_exits_2(run_cli, tmp_path, P42):
    """A resumed checkpoint whose entries all claim to be done, one of them
    without its digest: a usage error naming that entry, not a traceback."""
    from projlat import autos, sha256_of

    pivot, targets = autos.poset_search_plan(P42)
    fingerprint = sha256_of(
        {"n": 4, "field": "2", "poset_size": P42.size, "pivot": pivot, "targets": targets}
    )
    done = {str(t): _branch_entry(t) for t in targets}
    del done[str(targets[0])]["digest"]
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text(canonical_json(
        {"schema": "projlat-checkpoint/1", "fingerprint": fingerprint, "done": done}
    ))
    code, _, err = run_cli(
        "verify-main-theorem", "--n", "4", "--field", "2", "--checkpoint", str(ckpt)
    )
    assert code == 2
    assert f"entry '{targets[0]}'" in err

    # the checkpoint is checked before any search, so a budget that stops
    # the lattice search does not hide it
    code, _, err = run_cli(
        "verify-main-theorem", "--n", "4", "--field", "2", "--checkpoint", str(ckpt),
        "--budget-nodes", "10",
    )
    assert code == 2
    assert f"entry '{targets[0]}'" in err

    # a target outside the plan is refused the same way
    done[str(targets[0])] = _branch_entry(targets[0])
    done["9999"] = _branch_entry(9999)
    ckpt.write_text(canonical_json(
        {"schema": "projlat-checkpoint/1", "fingerprint": fingerprint, "done": done}
    ))
    code, _, err = run_cli(
        "verify-main-theorem", "--n", "4", "--field", "2", "--checkpoint", str(ckpt)
    )
    assert code == 2
    assert "entry '9999'" in err


def test_help_exits_cleanly(run_cli):
    code, _, _ = run_cli("--help")
    assert code == 0
    code, _, _ = run_cli()
    assert code == 2  # no verb


def test_experiment_verb_always_exits_zero(run_cli):
    code, out, _ = run_cli(
        "ring-odd-experiment", "--n", "3", "--field", "2", "--cases", "2"
    )
    assert code == 0
    assert "EXPERIMENT" in out


@pytest.mark.parametrize(
    "verb, want_code, want_detail",
    [("ring-extend", 1, "2/3 even maps"), ("ring-odd-experiment", 0, "2/3")],
)
def test_failed_extension_is_a_false_check(
    run_cli, tmp_path, monkeypatch, verb, want_code, want_detail
):
    """A falsified extension on one of three sampled maps is a false check
    in the written report: ring-extend then exits 1, the experiment 0."""
    from projlat import cli

    extend = cli.extend_to_ring_map
    calls = []

    def fail_second(phi, P):
        calls.append(phi)
        if len(calls) == 2:
            raise FalsificationError("extension does not restrict to the original map")
        return extend(phi, P)

    monkeypatch.setattr(cli, "extend_to_ring_map", fail_second)
    argv = (verb, "--n", "4", "--field", "2", "--cases", "3", "--seed", "0")
    code, _, err = run_cli(*argv, "--format", "json", "--out", str(tmp_path))
    assert code == want_code, err
    assert len(calls) == 3
    doc = json.loads((tmp_path / f"{verb}.json").read_text())
    assert [(c["ok"], c["detail"]) for c in doc["checks"]] == [(False, want_detail)]


def test_config_keys_reach_every_flag(run_cli, tmp_path, aut_l32):
    """Keys with underscores and the key `in` reach their flags."""
    good = tmp_path / "good.json"
    good.write_text(canonical_json(map_to_jsonable(aut_l32[3])))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 3\nin = {good}\n")
    code, out, _ = run_cli("verify-map", "--config", str(cfg))
    assert code == 0 and "PASS" in out
    cfg.write_text("n = 3\nbudget_nodes = 10\n")
    code, _, err = run_cli("enumerate-lattice-autos", "--config", str(cfg))
    assert code == 3 and "budget" in err


REPORT_FLAGS = {"--n", "--field", "--out", "--config", "--format"}
VERB_FLAGS = {
    "enumerate-lattice": REPORT_FLAGS,
    "build-poset": REPORT_FLAGS,
    "verify-omp": REPORT_FLAGS,
    "verify-glattice": REPORT_FLAGS,
    "verify-correspondence": REPORT_FLAGS,
    "enumerate-lattice-autos": REPORT_FLAGS | {"--budget-nodes"},
    "verify-ftpg": REPORT_FLAGS | {"--budget-nodes"},
    "verify-main-theorem": REPORT_FLAGS | {"--budget-nodes", "--jobs", "--checkpoint"},
    "verify-semidirect": REPORT_FLAGS | {"--budget-nodes", "--seed"},
    "ring-lemma": REPORT_FLAGS,
    "ring-extract": REPORT_FLAGS | {"--seed", "--cases"},
    "ring-restrict": REPORT_FLAGS | {"--seed", "--cases"},
    "ring-extend": REPORT_FLAGS | {"--budget-nodes", "--seed", "--cases"},
    "ring-odd-experiment": REPORT_FLAGS | {"--budget-nodes", "--seed", "--cases"},
    "export-dot": {"--n", "--field", "--out", "--config", "--target"},
    "export-json": {"--n", "--field", "--out", "--config", "--target", "--budget-nodes"},
    "verify-map": REPORT_FLAGS | {"--in"},
}


def test_each_verb_takes_exactly_the_flags_it_reads():
    import argparse

    from projlat.cli import build_parser

    parser = build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        verb: {
            a.option_strings[0]
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for verb, sub in verbs.choices.items()
    }
    assert got == VERB_FLAGS
    assert sum(map(len, got.values())) == 104


# every public callable's parameters that have a default, with the repr of
# that default: a library option that no verb sets to a second value should
# be a constant instead, so a new one has to be added here on purpose
LIBRARY_DEFAULTS = {
    "GF": {"k": "1"},
    "LatticeMap": {"witness": "None"},
    "PosetMap": {"parity": "'unknown'", "witness": "None"},
    "CampaignReport": {
        "checks": "<factory>", "counts": "<factory>", "size": "None", "outcome": "None",
    },
    "FalsificationError": {"payload": "None"},
    "enumerate_lattice_automorphisms": {"budget": "None"},
    "enumerate_poset_automorphisms": {"budget": "None"},
    "verify_fundamental_correspondence": {"budget": "None"},
    "verify_main_theorem": {"budget": "None", "jobs": "1", "checkpoint": "None"},
    "verify_semidirect_structure": {"seed": "0", "budget": "None"},
    "RingMap": {"witness": "None"},
    "extract_semilinear_from_ring_iso": {"idempotent": "None", "seed": "0"},
    "report_to_jsonable": {"name": "None"},
}


def _defaults(obj) -> dict:
    import inspect

    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # exception classes with the built-in constructor
        return {}
    return {p.name: repr(p.default) for p in params if p.default is not p.empty}


def test_library_defaults_are_pinned():
    import projlat
    from projlat import autos, gf

    got = {}
    for name in projlat.__all__:
        obj = getattr(projlat, name)
        if callable(obj) and _defaults(obj):
            got[name] = _defaults(obj)
    assert got == LIBRARY_DEFAULTS
    # helpers outside __all__ that once took an option
    assert _defaults(autos.semilinear_atom_perms) == {}
    assert _defaults(autos.run_poset_branch) == {"budget": "None"}
    assert _defaults(gf.make_field) == {"k": "1"}
    removed = {"allow_short", "enforce_length", "exhaustive", "samples", "limit",
               "twists", "modulus", "verify"}
    assert not removed & {p for d in got.values() for p in d}
