"""Spans for traced benchmark runs, recorded from outside the library.

A traced verdict wraps the library functions the benchmark calls, plus a
few functions the library calls internally (RREF, the poset leaf lift,
parity classification, witness verification), in wrappers that record
one span per call: name, start, end and the enclosing span. Spans live in
compact arrays until the run ends. An untraced verdict installs nothing
and calls the library functions themselves.
"""

from __future__ import annotations

import gzip
from array import array
from types import SimpleNamespace

import projlat.autos
import projlat.gf
import projlat.lattice
import projlat.matrices
import projlat.projposet
import projlat.reports
import projlat.ringmaps
import projlat.semilinear

LAYERS = (
    "gf", "matrices", "lattice", "projposet", "autos", "semilinear",
    "ringmaps", "reports",
)

# Library functions the benchmark calls: (module, function, span name).
ENTRY_POINTS = (
    (projlat.gf, "parse_field", "gf.build"),
    (projlat.lattice, "enumerate_subspaces", "lattice.build"),
    (projlat.projposet, "build_projection_poset", "projposet.build"),
    (projlat.projposet, "verify_omp_axioms", "projposet.omp_axioms"),
    (projlat.autos, "lattice_search_plan", "autos.lattice_plan"),
    (projlat.autos, "poset_search_plan", "autos.poset_structure"),
    (projlat.autos, "semilinear_atom_perms", "autos.semilinear_oracle"),
    (projlat.autos, "poset_atom_perm_from_lattice", "autos.construct"),
    (projlat.autos, "decompose_poset_automorphism", "autos.decompose"),
    (projlat.semilinear, "SemilinearMap", "semilinear.map"),
    (projlat.semilinear, "standard_duality", "semilinear.duality"),
    (projlat.semilinear, "match_semilinear", "semilinear.match"),
    (projlat.ringmaps, "conjugation_automorphism", "ringmaps.ring_map"),
    (projlat.ringmaps, "anti_automorphism_from_semilinear", "ringmaps.ring_map"),
    (projlat.ringmaps, "transpose_anti_automorphism", "ringmaps.ring_map"),
    (projlat.ringmaps, "restrict_to_projections", "ringmaps.restrict"),
    (projlat.reports, "report_to_jsonable", "reports.serialize"),
    (projlat.reports, "canonical_json", "reports.serialize"),
)
# Searches are generators; their spans cover one step each.
SEARCHES = (
    (projlat.autos, "iter_lattice_atom_perms", "autos.lattice_search"),
    (projlat.autos, "iter_poset_atom_perms", "autos.poset_search"),
)

# Library-internal call sites patched in traced verdicts:
# (owner, attribute, span name, whether a None result counts as a rejection).
INTERNAL = (
    (projlat.gf.GF, "automorphisms", "gf.automorphisms", False),
    (projlat.matrices, "rref", "matrices.rref", False),
    (projlat.projposet.ProjectionPoset, "verify_atomistic", "projposet.atomistic", False),
    (projlat.autos, "expand_poset_atom_perm", "autos.poset_leaf_lift", True),
    (projlat.autos, "classify_parity", "autos.classify_parity", False),
    (projlat.autos, "verify_lattice_map", "semilinear.verify_lattice_map", False),
    (projlat.semilinear, "induced_lattice_map", "semilinear.induced_map", False),
)


class Tracer:
    """In-memory span store. Span i has name id name[i], start[i] and end[i]
    in the seconds of the now() function given, parent[i] (-1 at top level)
    and rejected[i] (1 when the call raised or was rejected)."""

    def __init__(self, now):
        self.now = now
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rejected = array("b")
        self._open = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open)
        self.end.append(0)
        self.rejected.append(0)
        self._open = i
        self.start.append(self.now())
        return i

    def close(self, i: int, rejected: bool = False) -> None:
        self.end[i] = self.now()
        self._open = self.parent[i]
        if rejected:
            self.rejected[i] = 1

    def wrap(self, name: str, fn, none_rejects: bool = False):
        """fn with a span per call; the span is marked rejected when fn
        raises, or returns None and none_rejects is set."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(i, rejected=True)
                raise
            self.close(i, rejected=none_rejects and out is None)
            return out

        return traced

    def wrap_generator(self, name: str, fn):
        """fn returning an iterator, with one span per step, so the time the
        consumer spends between steps stays outside the span."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    self.close(i)
                    return
                self.close(i)
                yield item

        return traced

    def mark(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Spans as gzip'd TSV, one line per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tparent\tstart_s\tend_s\trejected\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.rejected[i]}\n"
                )


def library(tracer: Tracer | None) -> SimpleNamespace:
    """The entry points by function name: the library's own functions when
    tracer is None, span-recording wrappers around them otherwise."""
    api = {}
    for module, attr, name in ENTRY_POINTS:
        fn = getattr(module, attr)
        api[attr] = fn if tracer is None else tracer.wrap(name, fn)
    for module, attr, name in SEARCHES:
        fn = getattr(module, attr)
        api[attr] = fn if tracer is None else tracer.wrap_generator(name, fn)
    return SimpleNamespace(**api)


class Installed:
    """Wrappers on the library-internal call sites, removed on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, name, none_rejects in INTERNAL:
            fn = getattr(owner, attr)
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.tracer.wrap(name, fn, none_rejects))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()
        return False


def summarize(tracer: Tracer, first: int, last: int, seconds: float) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and rejections,
    over spans first..last-1 of a verdict that took the given seconds; plus
    per-layer self time and the glue time that no top-level span covers."""
    child_s = [0.0] * (last - first)
    top_s = 0.0
    for i in range(first, last):
        d = tracer.end[i] - tracer.start[i]
        p = tracer.parent[i]
        if p >= first:
            child_s[p - first] += d
        else:
            top_s += d
    by_name: dict[str, dict] = {}
    for i in range(first, last):
        name = tracer.names[tracer.name[i]]
        d = tracer.end[i] - tracer.start[i]
        s = by_name.setdefault(
            name, {"calls": 0, "rejected": 0, "s": 0.0, "self_s": 0.0}
        )
        s["calls"] += 1
        s["rejected"] += tracer.rejected[i]
        s["s"] += d
        s["self_s"] += d - child_s[i - first]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in by_name.items():
        layer_self[name.split(".", 1)[0]] += s["self_s"]
    return {
        "spans": by_name,
        "layer_self_s": layer_self,
        "glue_s": seconds - top_s,
        "span_count": last - first,
    }
