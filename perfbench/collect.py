"""Summarize result files from perfbench/out into one trajectory point.

    python3 perfbench/collect.py [--write perfbench/trajectory/NAME.json]

For every workload and end-to-end metric of BENCHMARK.json it prints the
median over the untraced result files and the spread, (q3 - q1) / median
with the quartiles of statistics.quantiles(values, n=4), beside the
metric's bound; spreads at or above a third of the bound are flagged.
Traced result files contribute per-layer medians. With --write it stores
all of it, with each run's environment record, as a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", metavar="PATH")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-seed*-trace[01].json"))]
    point: dict = {"workloads": {}}
    steady = True
    for wl in (w["name"] for w in declared["workloads"]):
        plain = [r for r in runs if r["workload"] == wl and r["trace"] == 0]
        traced = [r for r in runs if r["workload"] == wl and r["trace"] == 1]
        if len(plain) < 2:
            print(f"{wl}: {len(plain)} untraced runs, need 2 or more")
            continue
        entry = {
            "seeds": [r["seed"] for r in plain],
            "failed_frac": max(r["failed_frac"] for r in plain + traced),
            "raw_time_to_verdict_s": [statistics.median(r["raw_time_to_verdict_s"]) for r in plain],
            "report_sha256": {str(r["seed"]): r["report_sha256"] for r in plain + traced},
            "environment": [
                {"seed": r["seed"], "trace": r["trace"], "start": r["env_start"], "end": r["env_end"]}
                for r in plain + traced
            ],
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"{wl}: {len(plain)} untraced, {len(traced)} traced runs, "
              f"failed_frac {entry['failed_frac']}")
        for m in declared["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in plain]
            med, q1, q3, sp = spread(values)
            flag = "" if m["name"] == "setup_s" or sp < m["bound"] / 3 else "  <-- not steady"
            steady &= not flag
            print(f"  {m['name']:22s} median {med:14.6g} {m['unit']:5s} spread {sp:7.4f}"
                  f" (bound {m['bound']}){flag}")
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": sp, "values": values,
            }
        for m in declared["per_layer"] if traced else ():
            values = [r["metrics"][m["name"]] for r in traced]
            entry["per_layer"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values), "values": values,
            }
        point["workloads"][wl] = entry
    if args.write:
        Path(args.write).parent.mkdir(parents=True, exist_ok=True)
        Path(args.write).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
