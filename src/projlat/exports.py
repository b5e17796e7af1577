"""JSON and DOT artifacts for lattices, posets, and maps.

JSON schemas are versioned and round-trippable enough to re-verify a map
against a freshly rebuilt structure: a map file plus the ambient is all a
later session needs. DOT output renders Hasse diagrams (cover relations
only), bottom at the bottom.
"""

from __future__ import annotations

from .gf import parse_field
from .lattice import SubspaceLattice
from .maps import LatticeMap, PosetMap, UNKNOWN
from .projposet import ProjectionPoset
from .semilinear import SemilinearMap

SCHEMA_LATTICE = "projlat-lattice/1"
SCHEMA_POSET = "projlat-poset/1"
SCHEMA_MAP = "projlat-map/1"


def lattice_to_jsonable(L: SubspaceLattice) -> dict:
    return {
        "schema": SCHEMA_LATTICE,
        "n": L.n,
        "field": L.field.spec(),
        "size": L.size,
        "elements": [
            {"dim": s.dim, "basis": [list(r) for r in s.basis]} for s in L.elements
        ],
        "atoms": L.atoms,
        "covers": [list(c) for c in L.cover_pairs()],
    }


def poset_to_jsonable(P: ProjectionPoset) -> dict:
    return {
        "schema": SCHEMA_POSET,
        "n": P.lattice.n,
        "field": P.lattice.field.spec(),
        "size": P.size,
        "pairs": [list(p) for p in P.pairs],
        "grade": list(P.grade),
        "ortho": list(P.ortho),
        "covers": [list(c) for c in P.cover_pairs()],
    }


def _witness_jsonable(w) -> dict | None:
    if isinstance(w, SemilinearMap):
        return {
            "matrix": [list(r) for r in w.matrix],
            "twist": w.twist.power,
            "field": w.field.spec(),
        }
    return None


def map_to_jsonable(m: LatticeMap | PosetMap) -> dict:
    doc = {"schema": SCHEMA_MAP, "permutation": list(m.perm)}
    if isinstance(m, LatticeMap):
        doc["kind"] = "lattice"
        doc["direction"] = m.direction
    else:
        doc["kind"] = "poset"
        doc["parity"] = m.parity
    w = _witness_jsonable(getattr(m, "witness", None))
    if w is not None:
        doc["witness"] = w
    return doc


def _witness_from_jsonable(doc: dict | None) -> SemilinearMap | None:
    if doc is None:
        return None
    F = parse_field(doc["field"])
    matrix = tuple(tuple(row) for row in doc["matrix"])
    return SemilinearMap(F, matrix, F.frobenius(doc["twist"]))


def map_from_jsonable(doc: dict) -> LatticeMap | PosetMap:
    if doc.get("schema") != SCHEMA_MAP:
        raise ValueError(f"not a map document: schema {doc.get('schema')!r}")
    perm = tuple(doc["permutation"])
    witness = _witness_from_jsonable(doc.get("witness"))
    if doc["kind"] == "lattice":
        return LatticeMap(perm, doc["direction"], witness=witness)
    return PosetMap(perm, doc.get("parity", UNKNOWN), witness=witness)


def dot_hasse_lattice(L: SubspaceLattice) -> str:
    lines = [
        "digraph lattice {",
        "  rankdir=BT;",
        '  node [shape=circle, fontsize=10];',
    ]
    for i in range(L.size):
        lines.append(f'  v{i} [label="{i}\\nd{L.dims[i]}"];')
    for a, b in L.cover_pairs():
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_hasse_poset(P: ProjectionPoset) -> str:
    lines = [
        "digraph projections {",
        "  rankdir=BT;",
        '  node [shape=box, fontsize=9];',
    ]
    for i in range(P.size):
        a, b = P.pairs[i]
        lines.append(f'  p{i} [label="({a},{b})\\ng{P.grade[i]}"];')
    for a, b in P.cover_pairs():
        lines.append(f"  p{a} -> p{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
