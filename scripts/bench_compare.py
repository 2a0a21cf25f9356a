"""Benchmark two checkouts in alternating pairs and summarise them as a
BENCH_<n>.json file.

    python scripts/bench_compare.py run --parent ../parent --change . \\
        --workload oracle-pairing --seeds 21-30 --raw runs.jsonl [--trace 1]
    python scripts/bench_compare.py summarize --raw runs.jsonl --out BENCH_6.json

`run` runs perfbench/run.py at each seed in both checkouts, the side that
goes first alternating from seed to seed, with the run length BENCHMARK.json
fixes, and appends one JSON line per run to the raw file: side, workload,
seed, trace, the wall time from process start to exit, and how the run
ended (0, another exit code, or "timed_out" after TIMEOUT_S); for a run that
ended with 0 also the time its check took and its number of rounds (both
from the run's JSON under perfbench/out/) and its result.  A run that fails
or hangs is recorded and the comparison goes on.  `summarize` gives, per
workload, the runs that did not end with 0, the number of seeds at which
both sides completed (the pairs), and over those pairs each end-to-end
metric's median and quartiles on both sides, the pairs the change won (ties
count for neither), whether the medians lie further apart than the parent's
quartile distance, and the median check time; then the traced per-layer
metrics and every completed run's wall time, check time and round count;
and, at each seed where all the workloads completed, their total wall time
and their total check time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run_one(checkout: str, workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    rec = {"workload": workload, "seed": seed, "trace": trace}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**rec, "wall_s": time.perf_counter() - t0, "ended": "timed_out"}
    rec.update(wall_s=time.perf_counter() - t0, ended=proc.returncode)
    if proc.returncode:
        return rec
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = os.path.join(checkout, "perfbench", "out", f"{workload}-s{seed}-t{trace}.json")
    with open(out) as fh:
        record = json.load(fh)
    if trace:
        result["per_layer"] = record["per_layer"]
    return {**rec, "check_s": record["check_s"], "rounds": record["rounds"], "result": result}


def run(args) -> None:
    seconds = _benchmark()["run_seconds"]
    for i, seed in enumerate(_seeds(args.seeds)):
        sides = [("parent", args.parent), ("change", args.change)]
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            rec = {"side": side, **_run_one(checkout, args.workload, seed, args.trace, seconds)}
            with open(args.raw, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            head = f"{side:6s} {args.workload} s{seed} t{args.trace} wall {rec['wall_s']:.1f} s"
            if rec["ended"]:
                print(f"{head} ended {rec['ended']}", flush=True)
                continue
            m = rec["result"]
            print(f"{head} check {rec['check_s']:.1f} s rounds {rec['rounds']} "
                  f"correct={m['correct']} failed={m['failed']}", flush=True)


def _quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}


def summarize(args) -> None:
    bench = _benchmark()
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    with open(args.raw) as fh:
        every = [json.loads(line) for line in fh if line.strip()]
    # raw files written before runs recorded how they ended hold completed runs only
    recs = [r for r in every if not r.get("ended", 0)]
    out = {"note": args.note, "run_seconds": bench["run_seconds"], "workloads": {}}
    for wl in [w["name"] for w in bench["workloads"]]:
        if not any(r["workload"] == wl for r in every):
            continue
        mine = [r for r in recs if r["workload"] == wl]
        timed = {side: {r["seed"]: r for r in mine if r["side"] == side and not r["trace"]}
                 for side in ("parent", "change")}
        seeds = sorted(set(timed["parent"]) & set(timed["change"]))
        unfinished = [r for r in every if r["workload"] == wl and r.get("ended", 0)]
        entry = {"seeds": seeds, "pairs": len(seeds), "end_to_end": {}, "per_layer": {},
                 "wall_s": {}, "check_s": {}, "rounds": {}, "check_s_median": {},
                 "unfinished": {side: [{"seed": r["seed"], "trace": r["trace"], "ended": r["ended"],
                                        "wall_s": round(r["wall_s"], 2)}
                                       for r in unfinished if r["side"] == side]
                                for side in ("parent", "change")}}
        for name, direction in better.items() if len(seeds) >= 2 else ():
            vals = {side: [timed[side][s]["result"]["metrics"][name]["value"] for s in seeds]
                    for side in timed}
            par, chg = _quartiles(vals["parent"]), _quartiles(vals["change"])
            sign = 1 if direction == "higher" else -1
            entry["end_to_end"][name] = {
                "better": direction,
                "parent": par,
                "change": chg,
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"])),
                "medians_apart_beyond_parent_iqr": abs(chg["median"] - par["median"]) > par["q3"] - par["q1"],
            }
        for side in ("parent", "change"):
            for key in ("wall_s", "check_s", "rounds"):
                entry[key][side] = {f"s{r['seed']}-t{r['trace']}": round(r[key], 2)
                                    for r in mine if r["side"] == side}
            if seeds:
                entry["check_s_median"][side] = round(
                    statistics.median(timed[side][s]["check_s"] for s in seeds), 2)
            entry[f"failed_{side}"] = sum(r["result"]["failed"] for r in mine if r["side"] == side)
            entry[f"correct_{side}"] = all(r["result"]["correct"] for r in mine if r["side"] == side)
            traced = [r for r in mine if r["side"] == side and r["trace"]]
            if traced:
                entry["per_layer"][side] = {f"s{r['seed']}": r["result"]["per_layer"] for r in traced}
        out["workloads"][wl] = entry
    # one run of every workload at one seed: from process start to exit, and
    # the part of it the checks took
    names = list(out["workloads"])
    for key in ("wall_s", "check_s"):
        times = {(r["side"], r["workload"], r["seed"]): r[key] for r in recs if not r["trace"]}
        out[f"{key}_all_workloads_by_seed"] = {
            side: {f"s{seed}": round(sum(times[side, wl, seed] for wl in names), 2)
                   for seed in sorted({s for (_, _, s) in times})
                   if all((side, wl, seed) in times for wl in names)}
            for side in ("parent", "change")}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="like 21-30")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--raw", required=True)
    r.set_defaults(func=run)
    s = sub.add_parser("summarize")
    s.add_argument("--raw", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--note", default="", help="what was compared, and where")
    s.set_defaults(func=summarize)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
