"""Steadiness check: two sets of runs of the same code, compared against the
bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--traced]

For every workload, runs set 1 on seeds 1 .. runs and set 2 on seeds
runs+1 .. 2*runs, one run at a time, each of BENCHMARK.json's run_seconds.
For each end-to-end metric, setup_s included, it reports each set's median
and quartiles, the spread (quartile distance over median, as
statistics.quantiles gives them) against the metric's bound, and how far set
2's median is from set 1's, in either direction, against the same bound; it
also compares the share of failed operations.  With --traced it adds one
traced run per workload on seed 1 (its per-layer figures land in the run's
JSON file; overhead.py measures what tracing costs).  Every run's result
line and a summary go to perfbench/out/steady.json.  Exit code 1 when a
spread or the distance between the medians exceeds its bound, a run is
incorrect, or failure shares differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-s{seed}-t{trace}.json")) as fh:
        details = json.load(fh)["details"]
    result.update({"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
                   "details": details})
    print(f"{workload:16} seed {seed:3} trace {trace}  {wall:5.1f}s  correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    ok = True
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(2):
            seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
            sets.append([run_once(workload, seed, seconds, 0) for seed in seeds])
            runs += sets[-1]
        rows = {}
        for name, m in metrics.items():
            s1, s2 = (summarize([r["metrics"][name]["value"] for r in rs]) for rs in sets)
            worse = (s1["median"] - s2["median"]) / s1["median"]
            if m["better"] == "lower":
                worse = -worse
            row_ok = max(s1["spread"], s2["spread"], abs(worse)) <= m["bound"]
            ok &= row_ok
            rows[name] = {"set1": s1, "set2": s2, "worse": worse, "bound": m["bound"], "ok": row_ok}
            print(f"{workload:16} {name:15} median {s1['median']:12.5g} {s2['median']:12.5g}  "
                  f"spread {s1['spread']:6.1%} {s2['spread']:6.1%}  set 2 worse by {worse:6.1%}  "
                  f"bound {m['bound']:.0%}  {'ok' if row_ok else 'FAIL'}")
        shares = [[(r["seed"], r["failed"], r["attempted"]) for r in rs] for rs in sets]
        same_share = len({Fraction(r["failed"], r["attempted"]) for rs in sets for r in rs}) == 1
        all_correct = all(r["correct"] for rs in sets for r in rs)
        ok &= same_share and all_correct
        print(f"{workload:16} failed/attempted per run: {shares}  same share: {same_share}  "
              f"all correct: {all_correct}")
        entry = {"metrics": rows, "same_failed_share": same_share, "all_correct": all_correct}
        if args.traced:
            runs.append(run_once(workload, 1, seconds, 1))
        summary[workload] = entry

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump({"run_seconds": seconds, "summary": summary, "runs": runs}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
