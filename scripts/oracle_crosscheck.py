"""Randomized cross-check of every fast rule against the pairing oracle.

Samples valid loops, sweeps slopes with small numerator and denominator,
and compares the fast filling counts with the box-tensor homology and each
loop's L-space interval membership with the oracle's verdict; then samples
pipeline trees and compares the gluing decision with the pairing.

    python scripts/oracle_crosscheck.py [--loops N] [--pairs N] [--seed S]
"""

import argparse
import math
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))

from loopfloer import (
    Slope,
    cfd,
    fill,
    fill_oracle,
    glue_is_lspace,
    lspace_interval,
    pair_is_lspace,
)
from loopfloer.loops import format_loops


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--loops", type=int, default=200)
    ap.add_argument("--pairs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    from conftest import random_good_bounded_tree, random_loop

    rng = random.Random(args.seed)
    slopes = [Slope(1, 0)] + [
        Slope(p, q)
        for q in range(1, 6)
        for p in range(-5, 6)
        if math.gcd(abs(p), q) == 1
    ]

    t0 = time.time()
    checks = 0
    for _ in range(args.loops):
        loop = random_loop(rng)
        interval = lspace_interval(loop)
        for s in slopes:
            fast = fill(loop, s)
            slow = fill_oracle(loop, s)
            if (fast.dim, fast.chi_abs, fast.is_lspace) != (
                slow.dim,
                slow.chi_abs,
                slow.is_lspace,
            ):
                print(f"FILL MISMATCH {loop} at {s}: {fast} vs {slow}")
                raise SystemExit(1)
            if interval.contains(s) != slow.is_lspace:
                print(f"INTERVAL MISMATCH {loop} at {s}: {interval} vs {slow}")
                raise SystemExit(1)
            checks += 1
    print(f"fillings: {checks} checks agree ({time.time() - t0:.1f}s)")
    print(f"intervals: {checks} memberships agree")

    pool = []
    while len(pool) < 24:
        loops = cfd(random_good_bounded_tree(rng, 5))
        if sum(len(l) for l in loops) <= 24:
            pool.append(loops)
    t0 = time.time()
    done = 0
    while done < args.pairs:
        a, b = rng.choice(pool), rng.choice(pool)
        try:
            g = glue_is_lspace(a, b)
        except ValueError:
            continue
        p = pair_is_lspace(a, b)
        if g != p:
            print(f"GLUE MISMATCH {format_loops(a)} || {format_loops(b)}: {g} vs {p}")
            raise SystemExit(1)
        done += 1
    print(f"gluings: {done} pairs agree ({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
