#!/usr/bin/env python3
"""Repeat the SmartCIS benchmark and summarise, or compare two result files.

Run each workload once per seed (and --repeat times per seed), print the
median and quartiles of every metric with its unit, list any run whose
correctness checks failed, and flag any metric whose spread (quartile
distance over median) exceeds its bound in BENCHMARK.json:

    python3 perfbench/repeat.py run --workload building,ingest,remote \\
        --seeds 42,123,456 --out .bench_build/all.json

Compare two result files written by `run` (base first) and flag every
metric whose median got worse by more than its bound:

    python3 perfbench/repeat.py compare .bench_build/base.json .bench_build/new.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds():
    """Metric name -> (bound or None, better) from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    out = {}
    for m in spec.get("end_to_end", []):
        out[m["name"]] = (m["bound"], m["better"])
    for m in spec.get("per_layer", []):
        out[m["name"]] = (None, m["better"])
    return spec, out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    meta = {}
    for line in lines[:-1]:
        if line.startswith('{"meta"'):
            meta = json.loads(line)["meta"]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "wall_s": round(wall, 1), "meta": meta, "result": json.loads(lines[-1])}


def summarise(values):
    """Median, first and third quartile, and the spread: the quartiles'
    distance over the median, with quartiles from statistics.quantiles."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def by_workload(runs):
    """(workload, trace) -> metric name -> (unit, values)."""
    out = {}
    for r in runs:
        key = (r["workload"], r["trace"])
        for name, m in r["result"]["metrics"].items():
            out.setdefault(key, {}).setdefault(name, (m["unit"], []))[1].append(m["value"])
    return out


def print_summary(runs, bounds):
    flagged = 0
    for (workload, trace), metrics in sorted(by_workload(runs).items()):
        n = sum(1 for r in runs if r["workload"] == workload and r["trace"] == trace)
        print("%s trace=%d runs=%d" % (workload, trace, n))
        print("  %-32s %-9s %14s %14s %14s %8s %6s" % ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
        for name, (unit, values) in sorted(metrics.items()):
            med, q1, q3, spread = summarise(values)
            bound = bounds.get(name, (None, None))[0]
            flag = ""
            if bound is not None and spread > bound:
                flag = "  SPREAD>BOUND"
                flagged += 1
            print("  %-32s %-9s %14.6g %14.6g %14.6g %8.3f %6s%s" % (
                name, unit, med, q1, q3, spread, "-" if bound is None else bound, flag))
    bad = [r for r in runs if not r["result"]["correct"] or r["result"]["failed"]]
    for r in bad:
        print("INCORRECT: %s seed %s failed %d of %d" % (
            r["workload"], r["seed"], r["result"]["failed"], r["result"]["attempted"]))
    return flagged + len(bad)


def cmd_run(args, bounds):
    seeds = [int(s) for s in args.seeds.split(",") if s]
    runs = []
    for workload in args.workload.split(","):
        for _ in range(args.repeat):
            for seed in seeds:
                r = run_once(workload, seed, args.seconds, args.trace)
                runs.append(r)
                print("%s seed %d (%.0f s): %s" % (workload, seed, r["wall_s"], json.dumps(
                    {k: round(v["value"], 6) for k, v in sorted(r["result"]["metrics"].items())})),
                    flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"runs": runs}, f, indent=1)
    return print_summary(runs, bounds)


def cmd_compare(args, bounds):
    with open(args.base) as f:
        base = by_workload(json.load(f)["runs"])
    with open(args.new) as f:
        new = by_workload(json.load(f)["runs"])
    flagged = 0
    for key in sorted(set(base) & set(new)):
        print("%s trace=%d" % key)
        print("  %-32s %14s %14s %9s %6s" % ("metric", "base median", "new median", "change", "bound"))
        for name in sorted(set(base[key]) & set(new[key])):
            bmed = summarise(base[key][name][1])[0]
            nmed = summarise(new[key][name][1])[0]
            bound, better = bounds.get(name, (None, "lower"))
            change = (nmed - bmed) / bmed if bmed else 0.0
            worse = change if better == "lower" else -change
            flag = ""
            if bound is not None and worse > bound:
                flag = "  WORSE>BOUND"
                flagged += 1
            print("  %-32s %14.6g %14.6g %+8.1f%% %6s%s" % (
                name, bmed, nmed, 100 * change, "-" if bound is None else bound, flag))
    return flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run workloads once per seed and summarise")
    r.add_argument("--workload", required=True, help="one workload or a comma-separated list")
    r.add_argument("--seeds", default="42,123,456")
    r.add_argument("--repeat", type=int, default=1, help="runs per seed")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", help="write every run's result here")
    c = sub.add_parser("compare", help="compare two result files, base first")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    spec, bounds = load_bounds()
    if args.cmd == "run":
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        flagged = cmd_run(args, bounds)
    else:
        flagged = cmd_compare(args, bounds)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
