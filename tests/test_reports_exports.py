"""Report serialization determinism and artifact import/export."""

import json

from projlat import canonical_json, report_to_jsonable, sha256_of
from projlat.autos import CampaignReport
from projlat.exports import (
    _witness_jsonable,
    dot_hasse_lattice,
    dot_hasse_poset,
    lattice_to_jsonable,
    map_from_jsonable,
    map_to_jsonable,
    poset_to_jsonable,
)
from projlat.maps import ANTI, AUTO
from projlat.semilinear import SemilinearMap, standard_duality
from projlat.ringmaps import RingMap, conjugation_automorphism, matrix_units
from projlat.matrices import random_invertible, scalar_matrix
import random


def ringmap_to_jsonable(rm: RingMap) -> dict:
    """Intensional encoding: direction plus the semilinear witness, tagged
    with a hash of the map's values on the generator set so an independent
    session can spot a mismatched reconstruction."""
    if rm.witness is None:
        raise ValueError("only witness-backed ring maps are exportable")
    F, n = rm.field, rm.n
    gens = [matrix_units(F, n)[i][j] for i in range(n) for j in range(n)]
    gens += [scalar_matrix(F, lam, n) for lam in F.elements()]
    table = [[list(r) for r in rm.apply(t)] for t in gens]
    return {
        "schema": "projlat-ringmap/1",
        "n": n,
        "field": F.spec(),
        "direction": rm.direction,
        "S": _witness_jsonable(rm.witness),
        "verified_on": sha256_of(table),
    }


def test_canonical_json_is_stable():
    doc = {"b": 2, "a": [3, 1], "c": {"y": 0, "x": 1}}
    s1 = canonical_json(doc)
    s2 = canonical_json(json.loads(s1))
    assert s1 == s2
    assert s1 == '{"a":[3,1],"b":2,"c":{"x":1,"y":0}}\n'
    assert sha256_of(doc) == sha256_of(json.loads(s1))


def test_report_document_shape():
    rep = CampaignReport("sample", (3, "2"))
    rep.add("first", True, "detail")
    rep.add("second", False, "why")
    rep.counts["things"] = 7
    doc = report_to_jsonable(rep)
    assert doc["schema"] == "projlat-report/1"
    assert doc["status"] == "fail"
    assert doc["ambient"] == {"n": 3, "field": "2"}
    assert [c["ok"] for c in doc["checks"]] == [True, False]
    assert doc["counts"]["things"] == 7


def test_experiment_reports_never_fail():
    rep = CampaignReport("some-experiment", (3, "2"), outcome="experiment")
    rep.add("negative_outcome", False, "reported, not failed")
    doc = report_to_jsonable(rep)
    assert doc["status"] == "experiment"
    # the status comes from the declared outcome, never from the name
    named = CampaignReport("some-experiment", (3, "2"))
    named.add("negative_outcome", False, "a failure after all")
    assert report_to_jsonable(named)["status"] == "fail"


def test_lattice_and_poset_documents(L22, P22):
    ld = lattice_to_jsonable(L22)
    assert ld["schema"] == "projlat-lattice/1"
    assert ld["size"] == L22.size == len(ld["elements"])
    pd = poset_to_jsonable(P22)
    assert pd["schema"] == "projlat-poset/1"
    assert pd["size"] == P22.size == len(pd["pairs"])
    assert pd["ortho"][pd["ortho"][3]] == 3


def test_map_round_trip_both_kinds(L32, P32, aut_l32):
    f = aut_l32[7]
    doc = map_to_jsonable(f)
    back = map_from_jsonable(json.loads(canonical_json(doc)))
    assert back.perm == f.perm and back.direction == AUTO

    g = standard_duality(L32)
    back_g = map_from_jsonable(map_to_jsonable(g))
    assert back_g.perm == g.perm and back_g.direction == ANTI

    from projlat import even_from_lattice_automorphism

    phi = even_from_lattice_automorphism(f, P32)
    back_phi = map_from_jsonable(map_to_jsonable(phi))
    assert back_phi.perm == phi.perm and back_phi.parity == phi.parity


def test_semilinear_witness_survives_export(L34, f4):
    rng = random.Random(5)
    s = SemilinearMap(f4, random_invertible(f4, 3, rng), f4.frobenius(1))
    from projlat import induced_lattice_map

    m = induced_lattice_map(s, L34)
    doc = map_to_jsonable(m)
    assert doc["witness"]["twist"] == 1
    back = map_from_jsonable(doc)
    assert back.witness is not None
    assert back.witness.matrix == s.matrix
    assert back.witness.twist.power == 1


def test_ringmap_export_is_deterministic(f3):
    rng = random.Random(9)
    s = SemilinearMap(f3, random_invertible(f3, 2, rng), f3.frobenius(0))
    phi = conjugation_automorphism(s)
    d1 = canonical_json(ringmap_to_jsonable(phi))
    d2 = canonical_json(ringmap_to_jsonable(phi))
    assert d1 == d2
    assert json.loads(d1)["schema"] == "projlat-ringmap/1"


def test_dot_renders_cover_relations(L22, P22):
    dl = dot_hasse_lattice(L22)
    assert dl.startswith("digraph") and dl.rstrip().endswith("}")
    # 5 elements: bottom, three atoms, top -> 6 cover edges
    assert dl.count("->") == 6
    dp = dot_hasse_poset(P22)
    assert dp.count("->") == 12  # 8 elements: 0, six atoms, 1
