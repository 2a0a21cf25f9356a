"""Tracing overhead: the same rounds run untraced and traced in one process.

    python3 perfbench/overhead.py

Separate traced and untraced runs differ by more than the overhead on a
machine whose speed drifts between runs, so this runs each of the first
ROUNDS rounds of every workload at seed 1 twice, untraced and traced in
alternating order, clearing loopfloer's caches before each pass so that both
start cold as in a benchmark run.  It prints, per workload, the median over
rounds of traced time over untraced time, minus 1, and then all of them as
one JSON line.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from loopfloer import detection, twists  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1
ROUNDS = 5
CACHES = (twists._reparametrize_one, detection.all_unstable_form,
          detection._interval_one_cached, detection.solid_torus_like)


def timed_pass(ops, tracer) -> float:
    for cache in CACHES:
        cache.cache_clear()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for _, _, _, fn, args, _ in ops:
            fn(*args)
        return time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()


def main() -> None:
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name](SEED)
        ratios = []
        for r in range(ROUNDS):
            ops = wl.make_round(r)
            if r % 2:
                traced = timed_pass(ops, spans.Tracer())
                plain = timed_pass(ops, None)
            else:
                plain = timed_pass(ops, None)
                traced = timed_pass(ops, spans.Tracer())
            ratios.append(traced / plain)
        out[name] = statistics.median(ratios) - 1
        print(f"{name:16} tracing overhead {out[name]:6.1%}  per round "
              + " ".join(f"{x - 1:.1%}" for x in ratios), flush=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
