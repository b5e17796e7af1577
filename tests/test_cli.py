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
        # the two-element chain has one automorphism over every field
        ("enumerate-lattice-autos", "1", "2"),
        ("enumerate-lattice-autos", "1", "4"),
        ("enumerate-lattice-autos", "1", "9"),
        # every atom permutation extends at n = 2, beyond PGammaL(2, q)
        ("enumerate-lattice-autos", "2", "5"),
        ("enumerate-lattice-autos", "2", "7"),
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
        ("verify-semidirect", "--n", "2", "--seed", "1"),
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


def _no_poset(L):
    raise AssertionError("P was built before the bound refused the ambient")


def _no_lattice(n, F):
    raise AssertionError("L was built before the bound refused the ambient")


@pytest.mark.parametrize(
    "argv, count, bound",
    [
        (("export-json", "--n", "3", "--field", "7", "--target", "autos"), 5630688, 2**20),
        (("ring-odd-experiment", "--n", "3", "--field", "7"), 5630688, 2**20),
        (("ring-extend", "--n", "4", "--field", "4"), 1974067200, 2**20),
        (("verify-main-theorem", "--n", "4", "--field", "3"), 1080, 150),
        (("verify-ftpg", "--n", "3", "--field", "7"), 5630688, 2**20),
        (("verify-semidirect", "--n", "3", "--field", "7"), 5630688, 2**20),
        (("enumerate-lattice-autos", "--n", "2", "--field", "9"), 3628800, 2**20),
        (("export-json", "--n", "2", "--field", "9", "--target", "autos"), 3628800, 2**20),
        (("verify-semidirect", "--n", "2", "--field", "9"), 3628800, 2**20),
        (("enumerate-lattice-autos", "--n", "5", "--field", "2"), 9999360, 2**20),
        (("verify-ftpg", "--n", "5", "--field", "2"), 9999360, 2**20),
        (("enumerate-lattice-autos", "--n", "4", "--field", "3"), 12130560, 2**20),
        (("ring-extend", "--n", "4", "--field", "3"), 12130560, 2**20),
    ],
)
def test_ambient_beyond_a_search_bound_exits_2(run_cli, argv, count, bound, monkeypatch):
    """A search bound refuses the ambient with one line naming the count
    and the bound, then the wall time. verify-main-theorem is refused by
    the poset search's bound on P-atoms, counted in closed form; every
    other verb by the lattice search's bound on the closed-form count of
    L's automorphisms. Every verb refuses before the search runs and
    before P is built: building P raises here. verify-main-theorem and
    verify-semidirect refuse before L is built as well: building L raises
    for them. Each run passes a small node budget, so a bound that
    admitted the ambient would exit 3 at once, not search on."""
    from projlat import cli

    monkeypatch.setattr(cli, "build_projection_poset", _no_poset)
    if argv[0] in ("verify-main-theorem", "verify-semidirect"):
        monkeypatch.setattr(cli, "enumerate_subspaces", _no_lattice)
    code, out, err = run_cli(*argv, "--budget-nodes", "50")
    assert code == 2
    assert out == ""
    message, wall = err.splitlines()
    what = "atoms" if argv[0] == "verify-main-theorem" else "lattice automorphisms"
    assert message == f"projlat {argv[0]}: {count} {what} exceeds the search bound {bound}"
    assert wall.startswith("# wall ")


def test_refusal_of_a_count_beyond_30_digits_stays_short(run_cli, monkeypatch):
    """verify-semidirect at (2,251) refuses 252! lattice automorphisms, a
    498-digit count, before L is built: the line names the count by its
    first digits, power of ten and digit count, then the bound, and stays
    under 120 characters."""
    from projlat import cli

    monkeypatch.setattr(cli, "enumerate_subspaces", _no_lattice)
    code, out, err = run_cli("verify-semidirect", "--n", "2", "--field", "251")
    assert code == 2
    assert out == ""
    message, wall = err.splitlines()
    assert message == (
        "projlat verify-semidirect: 2.044e497 (498 digits) lattice automorphisms "
        "exceeds the search bound 1048576"
    )
    assert len(message) < 120
    assert wall.startswith("# wall ")


@pytest.mark.parametrize(
    "verb, n, field, entries",
    [("verify-semidirect", "3", "5", 576600000), ("verify-main-theorem", "4", "3", 26202009600)],
)
def test_constructed_side_beyond_its_entry_limit_exits_2(run_cli, monkeypatch, verb, n, field, entries):
    """verify-semidirect at (3,5) passes the lattice search bound (372 000
    maps), but its constructed side would hold 576 600 000 P-atom images;
    it once ran out of memory there after 71 s at 2.4 GB. The
    constructed-side limit, counted in closed form, refuses it before L
    and P are built (building either raises here), with one line, then
    the wall time. verify-main-theorem checks the same limit after its
    poset search bound, raised here to admit the 1 080 atoms of (4,3)."""
    from projlat import autos, cli

    monkeypatch.setattr(cli, "build_projection_poset", _no_poset)
    monkeypatch.setattr(cli, "enumerate_subspaces", _no_lattice)
    monkeypatch.setattr(autos, "MAX_POSET_SEARCH_ATOMS", 1080)
    code, out, err = run_cli(verb, "--n", n, "--field", field)
    assert (code, out) == (2, "")
    message, wall = err.splitlines()
    assert message == (
        f"projlat {verb}: {entries} constructed entries exceeds the "
        "constructed-side limit 134217728"
    )
    assert wall.startswith("# wall ")


def test_im_ker_lemma_beyond_its_pair_bound_exits_2(run_cli, monkeypatch):
    """ring-lemma at (3,5) refuses the 1 552^2 ordered idempotent pairs,
    counted in closed form before L and P are built (building either
    raises here), with one line naming the count and the bound, then the
    wall time."""
    from projlat import cli

    monkeypatch.setattr(cli, "build_projection_poset", _no_poset)
    monkeypatch.setattr(cli, "enumerate_subspaces", _no_lattice)
    code, out, err = run_cli("ring-lemma", "--n", "3", "--field", "5")
    assert code == 2
    assert out == ""
    message, wall = err.splitlines()
    assert message == (
        "projlat ring-lemma: 2408704 idempotent pairs exceeds the exhaustive bound 2000000"
    )
    assert wall.startswith("# wall ")


@pytest.mark.parametrize("verb", ["verify-main-theorem", "verify-semidirect", "ring-lemma"])
def test_enumeration_limit_refuses_before_the_closed_form_bounds(run_cli, verb):
    """At (400, 251) the enumeration limit, which reads q^n alone, refuses
    first, as it did when these verbs built L before their bounds: none of
    their closed-form counts, over numbers of thousands of digits, runs."""
    code, out, err = run_cli(verb, "--n", "400", "--field", "251")
    assert (code, out) == (2, "")
    message, wall = err.splitlines()
    assert message == (
        f"projlat {verb}: 7.404e959 (960 digits) vectors exceeds the vector limit 1000000"
    )
    assert wall.startswith("# wall ")


def _no_pair_filter(L, i):
    raise AssertionError("the pair filter ran before P's element limit refused the ambient")


POSET_MAP = {"schema": "projlat-map/1", "kind": "poset", "permutation": [0]}


@pytest.mark.parametrize("n, field, size", [("6", "2", 1051586), ("3", "31", 1908548)])
@pytest.mark.parametrize(
    "argv",
    [
        ("build-poset",),
        ("verify-omp",),
        ("ring-restrict",),
        ("export-dot", "--target", "poset"),
        ("export-json", "--target", "poset"),
        ("verify-map", "--in", "poset-map.json"),
    ],
)
def test_poset_beyond_its_element_limit_exits_2(
    run_cli, monkeypatch, tmp_path, argv, n, field, size
):
    """Every verb that reaches build_projection_poset is refused at (6,2)
    and (3,31), whose order tables would hold hundreds of GB, with one
    line naming P's closed-form element count and the limit, then the
    wall time. The count is checked before the pair filter tests any
    pair: the filter raises here."""
    from projlat.lattice import SubspaceLattice

    monkeypatch.setattr(SubspaceLattice, "complements_idx", _no_pair_filter)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poset-map.json").write_text(json.dumps(POSET_MAP))
    code, out, err = run_cli(*argv, "--n", n, "--field", field)
    assert (code, out) == (2, "")
    message, wall = err.splitlines()
    assert message == (
        f"projlat {argv[0]}: {size} projections exceeds the poset element limit 131072"
    )
    assert wall.startswith("# wall ")


class _Stopped(Exception):
    pass


def test_largest_admitted_poset_passes_its_element_limit(run_cli, monkeypatch):
    """(4,4), whose P of 102 274 elements builds in seconds, passes the
    element limit: the build is stopped right after the check."""
    from projlat import projposet

    check = projposet.check_limit

    def check_then_stop(count, *rest):
        check(count, *rest)
        raise _Stopped(count)

    monkeypatch.setattr(projposet, "check_limit", check_then_stop)
    with pytest.raises(_Stopped) as stopped:
        run_cli("build-poset", "--n", "4", "--field", "4")
    assert stopped.value.args == (102274,)


def test_correspondence_scan_limit_refuses_before_p(run_cli, monkeypatch):
    """verify-correspondence at (4,4) is refused by the idempotent scan's
    limit on its 4^16 matrices before P is built: building P raises here."""
    from projlat import projposet

    monkeypatch.setattr(projposet, "build_projection_poset", _no_poset)
    code, out, err = run_cli("verify-correspondence", "--n", "4", "--field", "4")
    assert (code, out) == (2, "")
    message, wall = err.splitlines()
    assert message == (
        "projlat verify-correspondence: 4294967296 matrices exceeds the scan limit 1048576"
    )
    assert wall.startswith("# wall ")


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


@pytest.mark.parametrize(
    "doc, why",
    [
        ([], "a JSON list"),
        ({"schema": "projlat-map/1", "kind": "lattice", "direction": "auto", "permutation": 5},
         "permutation is not a list of ints"),
        ({"schema": "projlat-map/1", "kind": "ring", "permutation": [0, 1, 2, 3, 4]},
         "unknown map kind 'ring'"),
        ({"schema": "projlat-map/1", "kind": "poset", "permutation": [0, 1, 2, 3, 4, 5],
          "witness": 5},
         "witness is not an object"),
        ({"schema": "projlat-map/1", "kind": "poset", "permutation": [0, 1, 2, 3, 4, 5],
          "witness": {"field": "2", "matrix": 7, "twist": 0}},
         "witness is not an object"),
        ({"schema": "projlat-map/1", "kind": "poset", "permutation": [0, 1, 2, 3, 4, 5],
          "witness": {"field": "2", "matrix": [[7, 0], [0, 1]], "twist": 0}},
         "witness matrix has an entry outside GF(2)"),
    ],
)
def test_malformed_map_file_exits_2(run_cli, tmp_path, doc, why):
    """A map file that is no map document is a usage error, not a
    falsified map and not a traceback."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli("verify-map", "--n", "2", "--field", "2", "--in", str(path))
    assert code == 2
    assert "bad map file" in err and why in err


@pytest.mark.parametrize(
    "witness, why",
    [
        ({"field": "2", "matrix": [[1, 0], [1]], "twist": 0}, "witness matrix is not square"),
        ({"field": "3", "matrix": [[1, 0], [0, 1]], "twist": 0},
         "the witness is 2 x 2 over GF(3), the ambient GF(2)^2"),
        ({"field": "2", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "twist": 0},
         "the witness is 3 x 3 over GF(2), the ambient GF(2)^2"),
    ],
)
def test_verify_map_refuses_a_witness_that_does_not_fit_the_ambient(run_cli, tmp_path, witness, why):
    """A ragged witness matrix, or one over another field or of another
    size than the ambient, is a bad map file (exit 2), not a traceback
    and not a passing report; the identity with a fitting witness
    passes."""
    doc = {"schema": "projlat-map/1", "kind": "lattice", "direction": "automorphism",
           "permutation": [0, 1, 2, 3, 4]}
    path = tmp_path / "map.json"
    for w, want in ((witness, 2), ({"field": "2", "matrix": [[1, 0], [0, 1]], "twist": 0}, 0)):
        path.write_text(json.dumps({**doc, "witness": w}))
        code, out, err = run_cli("verify-map", "--n", "2", "--field", "2", "--in", str(path))
        assert code == want
        if want:
            assert err.splitlines()[0] == f"projlat verify-map: bad map file: {why}"
        else:
            assert "PASS" in out


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
    fingerprint = sha256_of({
        "n": 4, "field": "2", "poset_size": P42.size, "pivot": pivot,
        "targets": targets, "search_order": autos.SEARCH_ORDER_VERSION,
    })
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


@pytest.mark.parametrize("verb", ["enumerate-lattice", "export-dot"])
def test_out_path_that_is_a_file_exits_2_before_the_verb_runs(run_cli, tmp_path, verb):
    """An --out naming an existing file is refused with one line before the
    verb runs: no report on stdout, no wall time, and the file untouched."""
    path = tmp_path / "F"
    path.write_text("kept")
    code, out, err = run_cli(verb, "--n", "2", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"projlat {verb}: cannot write to --out {path}: File exists"]
    assert path.read_text() == "kept"


def test_checkpoint_in_a_missing_directory_exits_2_before_any_search(run_cli, tmp_path):
    """A checkpoint whose directory is missing is refused when it is
    loaded, before the lattice search: with a budget of 10 nodes an
    admitted run would stop in that search and exit 3."""
    path = tmp_path / "missing" / "x.ckpt"
    code, out, err = run_cli(
        "verify-main-theorem", "--n", "4", "--checkpoint", str(path), "--budget-nodes", "10"
    )
    assert (code, out) == (2, "")
    message, wall = err.splitlines()
    assert message == (
        f"projlat verify-main-theorem: cannot write checkpoint {path}: no such directory"
    )
    assert wall.startswith("# wall ")


def test_checkpoint_that_cannot_be_saved_exits_2(run_cli, tmp_path):
    """A checkpoint save that fails, here because the temporary file's name
    is taken by a directory, is a usage error with one line, not a
    traceback, after the first branch."""
    path = tmp_path / "x.ckpt"
    (tmp_path / "x.ckpt.tmp").mkdir()
    code, out, err = run_cli("verify-main-theorem", "--n", "4", "--checkpoint", str(path))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith("# verify-main-theorem: ")
    assert lines[1] == (
        f"projlat verify-main-theorem: cannot write checkpoint {path}: Is a directory"
    )
    assert lines[2].startswith("# wall ") and len(lines) == 3
    assert not path.exists()


def test_unreadable_checkpoint_path_exits_2(run_cli, tmp_path):
    """A checkpoint path that cannot be read, here a directory, is a usage
    error naming the path."""
    code, _, err = run_cli(
        "verify-main-theorem", "--n", "4", "--field", "2", "--checkpoint", str(tmp_path),
        "--budget-nodes", "10",
    )
    assert code == 2
    assert f"cannot read checkpoint {tmp_path}" in err and "Traceback" not in err


def test_checkpoint_from_an_older_search_order_exits_2(run_cli, tmp_path, P42):
    """A checkpoint whose fingerprint leaves out the search-order version,
    as every checkpoint did before the version was added, is refused
    before any search, however complete its entries look."""
    from projlat import autos, sha256_of

    pivot, targets = autos.poset_search_plan(P42)
    previous = sha256_of(
        {"n": 4, "field": "2", "poset_size": P42.size, "pivot": pivot, "targets": targets}
    )
    ckpt = tmp_path / "old.ckpt"
    ckpt.write_text(canonical_json({
        "schema": "projlat-checkpoint/1", "fingerprint": previous,
        "done": {str(t): _branch_entry(t) for t in targets},
    }))
    code, _, err = run_cli(
        "verify-main-theorem", "--n", "4", "--field", "2", "--checkpoint", str(ckpt),
        "--budget-nodes", "10",
    )
    assert code == 2
    assert "fingerprint mismatch" in err


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
    "verify-semidirect": REPORT_FLAGS | {"--budget-nodes"},
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
    assert sum(map(len, got.values())) == 103


def test_help_texts_name_only_flags_the_verb_takes():
    """A verb's description and flag help name no flag it does not take,
    so no help text can outlive its flag."""
    import argparse
    import re

    from projlat.cli import build_parser

    parser = build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for verb, sub in verbs.choices.items():
        taken = {flag for a in sub._actions for flag in a.option_strings}
        texts = [sub.description] + [a.help or "" for a in sub._actions]
        named = {flag for text in texts for flag in re.findall(r"--[a-z][a-z-]*", text)}
        assert named <= taken, (verb, named - taken)


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
    "verify_semidirect_structure": {"budget": "None"},
    "RingMap": {"witness": "None"},
    "extract_semilinear_from_ring_iso": {"idempotent": "None", "seed": "0"},
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
               "twists", "modulus", "verify", "name"}
    assert not removed & {p for d in got.values() for p in d}


@pytest.mark.parametrize(
    "text, why",
    [
        ("{not json", "is not a checkpoint file: Expecting property name"),
        ("[]", "is not a checkpoint file"),
        ('{"schema": "projlat-report/1", "done": {}}', "is not a checkpoint file"),
        (None, "has no table of done branches"),
    ],
    ids=["not-json", "a-list", "another-schema", "no-done-table"],
)
def test_untrusted_checkpoint_file_exits_2_with_one_line(run_cli, tmp_path, P42, text, why):
    """A checkpoint that is not JSON, JSON that is not an object of the
    checkpoint schema, or an object of the right schema and fingerprint
    with no done table is refused with one message line, then the wall
    time, before any search: with 10 nodes an admitted run would exit 3."""
    from projlat import autos, sha256_of

    if text is None:
        pivot, targets = autos.poset_search_plan(P42)
        fingerprint = sha256_of({
            "n": 4, "field": "2", "poset_size": P42.size, "pivot": pivot,
            "targets": targets, "search_order": autos.SEARCH_ORDER_VERSION,
        })
        text = canonical_json({"schema": autos.SCHEMA_CHECKPOINT, "fingerprint": fingerprint})
    ckpt = tmp_path / "x.ckpt"
    ckpt.write_text(text)
    code, out, err = run_cli(
        "verify-main-theorem", "--n", "4", "--checkpoint", str(ckpt), "--budget-nodes", "10"
    )
    assert (code, out) == (2, "")
    message, wall = err.splitlines()
    assert message.startswith("projlat verify-main-theorem: ") and why in message
    assert str(ckpt) in message and wall.startswith("# wall ")


def test_verify_map_on_a_poset_map_file(run_cli, tmp_path, P32, aut_l32):
    """An even map of P(3,2), written with map_to_jsonable, passes
    verify-map; with the images of two atoms swapped it fails."""
    from projlat import even_from_lattice_automorphism

    doc = map_to_jsonable(even_from_lattice_automorphism(aut_l32[3], P32))
    assert doc["kind"] == "poset" and doc["parity"] == "even"
    good = tmp_path / "good.json"
    good.write_text(canonical_json(doc))
    code, out, err = run_cli("verify-map", "--n", "3", "--field", "2", "--in", str(good))
    assert code == 0 and "PASS" in out, err

    a, b = P32.atoms[0], P32.atoms[1]
    doc["permutation"][a], doc["permutation"][b] = doc["permutation"][b], doc["permutation"][a]
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_json(doc))
    code, out, _ = run_cli("verify-map", "--n", "3", "--field", "2", "--in", str(bad))
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize(
    "verb, target, filename",
    [
        ("export-json", "poset", "poset.json"),
        ("export-json", "autos", "lattice-autos.json"),
        ("export-dot", "lattice", "lattice.dot"),
    ],
)
def test_exports_are_byte_identical_across_reruns(run_cli, tmp_path, verb, target, filename):
    outputs = []
    for rerun in range(2):
        out_dir = tmp_path / str(rerun)
        code, out, err = run_cli(
            verb, "--n", "3", "--field", "2", "--target", target, "--out", str(out_dir)
        )
        assert (code, out) == (0, ""), err
        outputs.append((out_dir / filename).read_bytes())
    assert outputs[0] == outputs[1] and outputs[0]


def test_falsified_campaign_exits_1_with_its_payload(run_cli, monkeypatch):
    """A campaign that raises FalsificationError exits 1 with the message
    and the payload on stderr, then the wall time, and no report."""
    from projlat import cli

    def falsified(P):
        raise FalsificationError("orthomodular law fails", {"pair": [1, 2]})

    monkeypatch.setattr(cli, "verify_omp_axioms", falsified)
    code, out, err = run_cli("verify-omp", "--n", "2", "--field", "2")
    assert (code, out) == (1, "")
    message, payload, wall = err.splitlines()
    assert message == "projlat verify-omp: FALSIFIED: orthomodular law fails"
    assert payload == "payload: {'pair': [1, 2]}" and wall.startswith("# wall ")


@pytest.mark.parametrize(
    "verb, n, field",
    [
        ("verify-omp", 2, "2"),
        ("verify-glattice", 2, "3"),
        ("verify-correspondence", 2, "3"),
        ("ring-lemma", 2, "2"),
    ],
)
def test_library_report_bytes_equal_the_cli_report(run_cli, tmp_path, verb, n, field):
    """Each campaign's report carries its verb's name, so the library's
    canonical bytes are the CLI's --out bytes."""
    from projlat import (
        build_projection_poset,
        check_g_lattice_properties,
        check_im_ker_lemma,
        enumerate_subspaces,
        parse_field,
        report_to_jsonable,
        verify_omp_axioms,
        verify_projection_correspondence,
    )

    F = parse_field(field)
    L = enumerate_subspaces(n, F)
    rep = {
        "verify-omp": lambda: verify_omp_axioms(build_projection_poset(L)),
        "verify-glattice": lambda: check_g_lattice_properties(L),
        "verify-correspondence": lambda: verify_projection_correspondence(n, F),
        "ring-lemma": lambda: check_im_ker_lemma(build_projection_poset(L)),
    }[verb]()
    assert rep.name == verb
    code, _, err = run_cli(verb, "--n", str(n), "--field", field, "--out", str(tmp_path))
    assert code == 0, err
    assert canonical_json(report_to_jsonable(rep)) == (tmp_path / f"{verb}.json").read_text()
