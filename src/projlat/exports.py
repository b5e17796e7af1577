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
    """The witness a map document holds; ValueError unless it is an object
    with a string field, a square matrix of int lists of field elements
    and an int twist."""
    if doc is None:
        return None
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("field"), str)
        and isinstance(doc.get("matrix"), list)
        and all(isinstance(r, list) and all(type(x) is int for x in r) for r in doc["matrix"])
        and type(doc.get("twist")) is int
    ):
        raise ValueError("witness is not an object with a field, a matrix of ints and a twist")
    F = parse_field(doc["field"])
    matrix = tuple(tuple(row) for row in doc["matrix"])
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise ValueError("witness matrix is not square")
    if any(not 0 <= x < F.q for row in matrix for x in row):
        raise ValueError(f"witness matrix has an entry outside GF({F.spec()})")
    return SemilinearMap(F, matrix, F.frobenius(doc["twist"]))


def map_from_jsonable(doc) -> LatticeMap | PosetMap:
    """The map a map document holds; ValueError for a document that is not
    an object of the map schema, a permutation that is not a list of ints
    or a kind other than lattice or poset."""
    if not isinstance(doc, dict):
        raise ValueError(f"not a map document: a JSON {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_MAP:
        raise ValueError(f"not a map document: schema {doc.get('schema')!r}")
    perm = doc["permutation"]
    if not (isinstance(perm, list) and all(type(i) is int for i in perm)):
        raise ValueError("permutation is not a list of ints")
    kind = doc["kind"]
    if kind not in ("lattice", "poset"):
        raise ValueError(f"unknown map kind {kind!r}")
    witness = _witness_from_jsonable(doc.get("witness"))
    if kind == "lattice":
        return LatticeMap(tuple(perm), doc["direction"], witness=witness)
    return PosetMap(tuple(perm), doc.get("parity", UNKNOWN), witness=witness)


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
