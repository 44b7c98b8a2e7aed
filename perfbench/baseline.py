#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes every metric.

    python3 perfbench/baseline.py [--write]

For every workload in BENCHMARK.json: one untraced run per seed in SEEDS
(end-to-end metrics) and one traced run per seed in TRACE_SEEDS (per-layer
metrics).  Prints each metric's median, quartiles
(statistics.quantiles(values, n=4)) and spread (q3 - q1) / median, and gives
each end-to-end metric a verdict: "steady" when its spread is at most a third
of its bound, "noisy" when it is above that but within the bound, "unsteady"
above the bound.  setup_s gets no verdict: its spread across seeds is not
gated, only the drift of its median between two sets of runs.  Exits 1 when
any metric is unsteady.  --write replaces perfbench/BASELINE.json with the
summary, the verdicts, the host record, the seeds and the layer map.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Later gain claims must also hold on this seed; it is never used while a
# change is being written.
HELD_OUT_SEED = 7919
DEFAULT_SEED = 1
SEEDS = list(range(1, 11))
TRACE_SEEDS = [1, 2, 3]

# Which end-to-end metric each layer metric should move, per workload.
LAYER_MAP = {
    "workload.pull_us_per_net, workload.serial_share":
        "nets_per_s on chip-netlist; nothing on chip-bignets",
    "atree.topology_us_per_net, atree.topology_share, atree.safe_moves_per_net, "
    "atree.heuristic_moves_per_net, atree.lb_gap":
        "nets_per_s on chip-bignets most, then chip-netlist; eco_p50_us partly",
    "rtree.validate_us_per_net, rtree.compile_us_per_net, rtree.nodes_per_net, "
    "delay.report_us_per_net":
        "nets_per_s on chip-netlist, at most a few %",
    "wiresize.us_per_net, wiresize.share, wiresize.assignments_examined_per_net, "
    "wiresize.bounds_tight_share":
        "nets_per_s on chip-netlist; eco_p50_us",
    "sim.moments_us_per_net, sim.share": "nets_per_s on chip-netlist",
    "batch.efficiency, batch.compiles_per_net":
        "nets_per_s on both chip workloads, most on chip-bignets",
    "report.aggregate_us_per_net": "nets_per_s on chip-netlist",
    "session.apply_us_p50, session.full_route_us_p50, session.eco_incremental_share, "
    "session.eco_fallback_share, session.dirty_sink_share":
        "eco_p50_us, eco_p90_us (all workloads)",
    "session.cache_hit_share, session.cache_evictions_per_admit, "
    "session.cache_resident_mb, session.single_flight_parked, session.shard_contention":
        "admit_p50_ms, admit_p90_ms, nets_per_s on session-eco; nothing on the chip "
        "workloads",
    "trace.stage_coverage, trace.overhead_share, fail_share":
        "none: trace quality and output checks",
}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    host = next((json.loads(l[len("# host "):]) for l in lines if l.startswith("# host ")),
                None)
    result = json.loads(lines[-1]) if lines else None
    if p.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit("%s seed %d trace %d failed (exit %d)"
                         % (workload, seed, trace, p.returncode))
    return host, result


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values),
            "values": values,
        }
    return out


def verdict(name, spread, bounds):
    if name == "setup_s":
        return None
    if spread <= bounds[name] / 3:
        return "steady"
    return "noisy" if spread <= bounds[name] else "unsteady"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": SEEDS,
        "trace_seeds": TRACE_SEEDS,
        "run_seconds": bench["run_seconds"],
        "spread": "(q3 - q1) / median over seeds, statistics.quantiles(n=4)",
        "verdict": "steady: spread <= bound/3; noisy: <= bound; unsteady: > bound; "
                   "setup_s: none (only its median drift is gated)",
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    unsteady = False
    for w in bench["workloads"]:
        name = w["name"]
        host = None
        e2e = []
        for seed in SEEDS:
            host, r = run(name, seed, bench["run_seconds"], 0)
            e2e.append(r)
        layers = [run(name, seed, bench["run_seconds"], 1)[1] for seed in TRACE_SEEDS]
        entry = {"why": w["why"], "host": host, "end_to_end": summarize(e2e),
                 "per_layer": summarize(layers)}
        record["workloads"][name] = entry
        print("== %s" % name)
        for m, s in entry["end_to_end"].items():
            s["verdict"] = verdict(m, s["spread"], bounds)
            unsteady |= s["verdict"] == "unsteady"
        for kind in ("end_to_end", "per_layer"):
            for m, s in entry[kind].items():
                print("  %-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f  %s"
                      % (m, s["median"], s["q1"], s["q3"], s["spread"],
                         s.get("verdict") or ""))
        sys.stdout.flush()
    if args.write:
        with open(os.path.join(HERE, "BASELINE.json"), "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
