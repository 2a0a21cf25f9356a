"""Census of L-space intervals over random pipeline trees.

Prints, for each sampled single-boundary tree: its loops, rational
longitude, and the interval of L-space slopes, exact where simple-loop
normalization applies and tagged [sweep-certified to depth 6] otherwise.

    python scripts/census_intervals.py [--count N] [--seed S]
"""

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))

from loopfloer import cfd, lspace_interval, rational_longitude
from loopfloer.loops import format_loops
from loopfloer.plumbing import format_tree


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    from conftest import random_good_bounded_tree

    rng = random.Random(args.seed)
    for i in range(args.count):
        tree = random_good_bounded_tree(rng, 6)
        loops = cfd(tree)
        try:
            interval = lspace_interval(loops)
        except ValueError as err:
            interval = f"<{err}>"
        print(f"# tree {i}")
        print(format_tree(tree).strip())
        print(f"loops: {format_loops(loops)}")
        print(f"longitude: {rational_longitude(loops)}  interval: {interval}")
        print()


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`| head`): point stdout at devnull so
        # that the flush at exit cannot fail again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
