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
    doc = {"schema": SCHEMA_MAP, "permutation": list(m.perm), m.TAG: getattr(m, m.TAG)}
    doc["kind"] = "lattice" if isinstance(m, LatticeMap) else "poset"
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
        return LatticeMap(perm, doc["direction"], witness=witness)
    return PosetMap(perm, doc.get("parity", UNKNOWN), witness=witness)


def _dot_hasse(name: str, node: str, prefix: str, labels, covers) -> str:
    """A Hasse diagram in DOT, bottom at the bottom: a node per label, an edge per cover."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", f"  node [{node}];"]
    lines += [f'  {prefix}{i} [label="{label}"];' for i, label in enumerate(labels)]
    lines += [f"  {prefix}{a} -> {prefix}{b};" for a, b in covers]
    return "\n".join(lines) + "\n}\n"


def dot_hasse_lattice(L: SubspaceLattice) -> str:
    labels = [f"{i}\\nd{d}" for i, d in enumerate(L.dims)]
    return _dot_hasse("lattice", "shape=circle, fontsize=10", "v", labels, L.cover_pairs())


def dot_hasse_poset(P: ProjectionPoset) -> str:
    labels = [f"({a},{b})\\ng{g}" for (a, b), g in zip(P.pairs, P.grade)]
    return _dot_hasse("projections", "shape=box, fontsize=9", "p", labels, P.cover_pairs())
