#!/usr/bin/env python3
"""Steadiness harness for the repository benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload (each run is its own process) and reports, per end-to-end metric,
the median of the runs and the quartile spread (Q3 - Q1) / median, with
quartiles from statistics.quantiles(values, n=4). A metric is steady when
its spread stays below a third of its bound.

    python3 qdbench/steady.py --seeds 1-10 --label session-a
    python3 qdbench/steady.py --compare qdbench/evidence/session-a.json \
        qdbench/evidence/session-b.json

--compare checks that the second set's median is not worse than the first
by more than the metric's bound (direction from BENCHMARK.json).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EVIDENCE = os.path.join(ROOT, "qdbench", "evidence")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def run_sets(args, bench):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = []
    for w in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            t0 = time.time()
            steal0, total0 = cpu_ticks()
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            steal1, total1 = cpu_ticks()
            wall = time.time() - t0
            # Share of CPU time the hypervisor gave to other guests.
            steal = (steal1 - steal0) / max(1, total1 - total0)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            # Every metric of the printed table, gated or not.
            table = {m.group(1): float(m.group(2)) for m in
                     (re.match(r"^[* ] (\S+)\s+(-?[\d.]+) ", l) for l in lines) if m}
            runs.append({"workload": w, "seed": seed, "exit": p.returncode,
                         "wall_s": round(wall, 1), "steal_pct": round(100 * steal, 2), "result": result, "table": table})
            status = "ok" if result and result["correct"] else "FAILED (exit %d)" % p.returncode
            ops = result["metrics"]["ops_per_s"]["value"] if result else 0
            print("%-18s seed=%-4d %6.1fs steal=%5.2f%% ops_per_s=%9.1f %s"
                  % (w, seed, wall, 100 * steal, ops, status), flush=True)
            if not result:
                sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
    return {"label": args.label, "started": started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "nproc": os.cpu_count(), "seconds": seconds, "runs": runs}


def summarize(data, bench):
    ok = True
    summary = {}
    workloads = sorted({r["workload"] for r in data["runs"]})
    print("%-18s %-18s %14s %8s %8s %s" % ("workload", "metric", "median", "spread", "bound", "verdict"))
    for w in workloads:
        results = [r["result"] for r in data["runs"] if r["workload"] == w]
        if not all(results) or not all(r["correct"] for r in results):
            print("%-18s a run failed" % w)
            ok = False
            continue
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, sp = spread(values)
            steady = sp < m["bound"] / 3
            verdict = "steady" if steady else ("within bound" if sp <= m["bound"] else "TOO NOISY")
            if sp > m["bound"]:
                ok = False
            summary.setdefault(w, {})[m["name"]] = {"median": med, "spread": sp, "n": len(values)}
            print("%-18s %-18s %14.4f %7.2f%% %7.0f%% %s" % (w, m["name"], med, 100 * sp,
                                                           100 * m["bound"], verdict))
    return summary, ok


def compare(a, b, bench):
    ok = True
    print("%-18s %-18s %14s %14s %8s %8s" % ("workload", "metric", "first", "second", "worse", "bound"))
    for w in sorted(set(a["summary"]) & set(b["summary"])):
        for m in bench["end_to_end"]:
            x = a["summary"][w][m["name"]]["median"]
            y = b["summary"][w][m["name"]]["median"]
            worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
            flag = "" if worse <= m["bound"] else "  REGRESSED"
            ok &= worse <= m["bound"]
            print("%-18s %-18s %14.4f %14.4f %7.2f%% %7.0f%%%s" % (w, m["name"], x, y, 100 * worse,
                                                                 100 * m["bound"], flag))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    ap.add_argument("--label", help="write qdbench/evidence/<label>.json")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        a, b = (json.load(open(p)) for p in args.compare)
        sys.exit(0 if compare(a, b, bench) else 1)
    data = run_sets(args, bench)
    data["summary"], ok = summarize(data, bench)
    if args.label:
        os.makedirs(EVIDENCE, exist_ok=True)
        with open(os.path.join(EVIDENCE, args.label + ".json"), "w") as f:
            json.dump(data, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
