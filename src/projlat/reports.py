"""Canonical report serialization.

Every verification campaign reduces to the same shape: an ambient, a list
of named checks with pass flags and reproduction details, and optional
counts. Serialization is canonical (sorted keys, fixed separators, no
timestamps or timings), so rerunning a campaign with the same seed yields
byte-identical files; wall-clock measurements belong on stderr, never in
the report body.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

SCHEMA_REPORT = "projlat-report/1"


@dataclass
class CampaignReport:
    """Named checks with pass flags, counts, and witness payloads.

    size is serialized only when set. outcome is what the producer
    declares when pass or fail would misread the run: "experiment" (a
    finite-scale outcome that never fails) or "partial" (a budget stopped
    the run before every check was made).
    """

    name: str
    ambient: tuple[int, str]
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    size: int | None = None
    outcome: str | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    def add_violations(self, name: str, bad: list, holds: str | None = None) -> None:
        """Record check name from its list of violations: it passes when
        bad is empty, with detail holds if given; otherwise the detail
        names the first three violations."""
        self.add(name, not bad, f"violations={bad[:3]}" if bad or holds is None else holds)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, minimal separators, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def report_status(rep: CampaignReport) -> str:
    """The declared outcome if any, else pass or fail by the checks."""
    return rep.outcome or ("pass" if rep.passed else "fail")


def report_to_jsonable(rep: CampaignReport) -> dict:
    """Canonical document of a report."""
    n, field_spec = rep.ambient
    out = {
        "schema": SCHEMA_REPORT,
        "name": rep.name,
        "ambient": {"n": n, "field": field_spec},
        "status": report_status(rep),
        "checks": [
            {"name": cname, "ok": ok, "detail": detail}
            for cname, ok, detail in rep.checks
        ],
    }
    if rep.size is not None:
        out["size"] = rep.size
    if rep.counts:
        out["counts"] = rep.counts
    return out


def render_text(doc: dict) -> str:
    """Human-readable rendering of a report document."""
    lines = [
        f"{doc['name']}  (n={doc['ambient']['n']}, field={doc['ambient']['field']})"
        f"  -> {doc['status'].upper()}"
    ]
    for chk in doc.get("checks", []):
        mark = "ok " if chk["ok"] else "FAIL"
        detail = f"  {chk['detail']}" if chk["detail"] else ""
        lines.append(f"  [{mark}] {chk['name']}{detail}")
    counts = doc.get("counts")
    if counts:
        for k in sorted(counts):
            lines.append(f"  {k} = {counts[k]}")
    return "\n".join(lines) + "\n"
