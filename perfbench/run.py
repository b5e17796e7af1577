"""projlat benchmark: time to a checked verdict on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. The run
repeats whole verdicts (set-up included) while the next one is expected
to end within S seconds, and reports medians. Times are in reference
seconds (see clock.py). With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced verdicts
and prints the per-layer metrics, computed from the spans of the traced
ones, plus the tracing overhead. The last line of standard output is one
JSON object; details, the environment and (traced) the spans go to
perfbench/out/. Exit code 1 means a check failed, 2 a usage or set-up
error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Extra set-ups before each verdict, spread over the run like the verdicts.
SETUP_REPEATS = 2
SETUP_SECONDS = 0.3


def die(message: str):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    src = ROOT / "src"
    if not (src / "projlat" / "__init__.py").is_file():
        die(f"no projlat package under {src}")
    sys.path.insert(0, str(src))
    import projlat

    if Path(projlat.__file__).resolve().parent != src / "projlat":
        die(f"imported projlat from {projlat.__file__}, not from {src}")


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": read("/proc/loadavg").strip(),
    }


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(plain: list[dict], setups: list[float], latencies_us: list[float]) -> dict:
    return {
        "time_to_verdict_s": statistics.median(r["seconds"] for r in plain),
        "setup_s": statistics.median(setups),
        "maps_per_s": statistics.median(r["verdict"].maps / r["verdict"].loop_s for r in plain),
        "map_latency_us_p50": statistics.median(latencies_us),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(v, summary: dict) -> dict:
    spans = summary["spans"]

    def s(name):
        return spans.get(name, {}).get("s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def rejected(name):
        return spans.get(name, {}).get("rejected", 0)

    w = v.work
    poset_maps = w.get("poset_maps", 0)
    leaves = calls("autos.poset_leaf_lift")
    out = {
        "gf.build_s": s("gf.build"),
        "gf.automorphisms_calls": calls("gf.automorphisms"),
        "gf.automorphisms_s": s("gf.automorphisms"),
        "matrices.rref_calls": calls("matrices.rref"),
        "matrices.rref_s": s("matrices.rref"),
        "lattice.build_s": s("lattice.build"),
        "lattice.size": w["lattice_size"],
        "projposet.build_s": s("projposet.build"),
        "projposet.size": w.get("poset_size", 0),
        "projposet.atoms": w.get("poset_atoms", 0),
        "projposet.atomistic_s": s("projposet.atomistic"),
        "projposet.omp_axioms_s": s("projposet.omp_axioms"),
        "autos.poset_structure_s": s("autos.poset_structure"),
        "autos.lattice_search_s": s("autos.lattice_search"),
        "autos.lattice_search_nodes": w.get("lattice_search_nodes", 0),
        "autos.lattice_maps": w.get("lattice_maps", 0),
        "autos.semilinear_oracle_s": s("autos.semilinear_oracle"),
        "autos.construct_s": s("autos.construct"),
        "autos.poset_search_s": s("autos.poset_search"),
        "autos.poset_search_nodes": w.get("poset_search_nodes", 0),
        "autos.poset_maps": poset_maps,
        "autos.poset_leaf_lift_s": s("autos.poset_leaf_lift"),
        "autos.poset_leaves": leaves,
        "autos.poset_leaves_rejected": rejected("autos.poset_leaf_lift"),
        "autos.poset_propagation_s": s("autos.poset_search") - s("autos.poset_leaf_lift"),
        "autos.poset_leaf_yield": poset_maps / leaves if leaves else 0.0,
        "autos.decompose_s": s("autos.decompose"),
        "autos.decompose_calls": calls("autos.decompose"),
        "autos.decompose_failed": rejected("autos.decompose"),
        "autos.classify_parity_s": s("autos.classify_parity"),
        "semilinear.verify_lattice_map_s": s("semilinear.verify_lattice_map"),
        "semilinear.match_s": s("semilinear.match"),
        "semilinear.match_calls": calls("semilinear.match"),
        "semilinear.match_failed": rejected("semilinear.match"),
        "semilinear.induced_map_s": s("semilinear.induced_map"),
        "ringmaps.restrict_s": s("ringmaps.restrict"),
        "ringmaps.restrict_calls": calls("ringmaps.restrict"),
        "reports.serialize_s": s("reports.serialize"),
        "reports.bytes": v.report_bytes,
        "glue_s": summary["glue_s"],
        "trace_spans": summary["span_count"],
    }
    for layer, sec in summary["layer_self_s"].items():
        out[f"{layer}.self_s"] = sec
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()
    import tracing
    from clock import Clock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env_start = environment()
    inputs = wl.inputs(args.seed)
    plain_api = tracing.library(None)

    clock = Clock()
    tracer = tracing.Tracer(clock.now) if args.trace else None
    traced_api = tracing.library(tracer) if tracer else None
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    last = 0.0  # wall seconds of the last verdict and its set-ups
    with clock:
        while (not plain or (tracer is not None and not traced)
               or clock.raw_now() + last < args.seconds):
            started = clock.raw_now()
            if tracer is not None and len(traced) < len(plain):
                first = tracer.mark()
                t0 = clock.now()
                with tracing.Installed(tracer):
                    v = wl.verdict(traced_api, inputs, clock)
                seconds = clock.now() - t0
                summary = tracing.summarize(tracer, first, tracer.mark(), seconds)
                traced.append({"seconds": seconds, "verdict": v,
                               "layers": layer_metrics(v, summary)})
            else:
                t_setups = clock.raw_now()
                repeats = 0
                while repeats < SETUP_REPEATS or clock.raw_now() - t_setups < SETUP_SECONDS:
                    t0 = clock.now()
                    wl.setup(plain_api)
                    setups.append(clock.now() - t0)
                    repeats += 1
                gc.collect()
                t0, raw0 = clock.now(), clock.raw_now()
                v = wl.verdict(plain_api, inputs, clock)
                plain.append({"seconds": clock.now() - t0, "raw_seconds": clock.raw_now() - raw0,
                              "verdict": v})
                setups.append(v.setup_s)
            gc.collect()
            last = clock.raw_now() - started

    verdicts = [r["verdict"] for r in plain + traced]
    checks = [ok for v in verdicts for _, ok, _ in v.report.checks]
    shas = {v.report_sha256 for v in verdicts}
    checks.append(len(shas) == 1)  # same seed, same report bytes
    if traced:
        counts = [
            {k: val for k, val in r["layers"].items() if isinstance(val, int)}
            for r in traced
        ]
        checks.append(all(c == counts[0] for c in counts))  # work repeats exactly
    failed = checks.count(False)

    latencies_us = [x * 1e6 for r in plain for x in r["verdict"].latencies_s]
    if tracer:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace_overhead_frac"] = (
            statistics.median(r["seconds"] for r in traced)
            / statistics.median(r["seconds"] for r in plain) - 1
        )
        declared_metrics = declared["per_layer"]
    else:
        metrics = end_to_end(plain, setups, latencies_us)
        declared_metrics = declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared_metrics}
    if set(units) != set(metrics):
        die(f"metrics {sorted(set(units) ^ set(metrics))} are not both "
            "measured and declared in BENCHMARK.json")

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env_start": env_start,
        "env_end": environment(),
        "verdicts_plain": len(plain),
        "verdicts_traced": len(traced),
        "time_to_verdict_s": [r["seconds"] for r in plain],
        "traced_time_to_verdict_s": [r["seconds"] for r in traced],
        "setup_s": setups,
        "calibration_ticks": clock.ticks,
        "map_latency_samples": len(latencies_us),
        "map_latency_us_p90": percentile(latencies_us, 90),
        "map_latency_us_p99": percentile(latencies_us, 99),
        "raw_time_to_verdict_s": [r["raw_seconds"] for r in plain],
        "report_sha256": sorted(shas),
        "report_counts": verdicts[0].report.counts,
        "checks_attempted": len(checks),
        "checks_failed": failed,
        "failed_frac": failed / len(checks),
        "failed_checks": sorted({name for v in verdicts for name, ok, _ in v.report.checks if not ok}),
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if tracer:
        tracer.write(str(OUT / f"{wl.name}-trace.spans.tsv.gz"))

    print(f"# {wl.name} seed {args.seed}: {len(plain)} plain + {len(traced)} traced verdicts, "
          f"{len(latencies_us)} map latency samples, report sha256 {sorted(shas)[0][:16]}")
    print(f"# failed_frac {failed / len(checks)} ({failed}/{len(checks)} checks)")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
