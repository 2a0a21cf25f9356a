"""Regenerate fault_loops.txt: loops whose sweep-certified interval is wrong
on the depth-6 grid because of the _refine_endpoint fault.

Scans a fixed stream of random loops (it does not depend on any benchmark
seed), keeps those whose L-space membership changes between 1/0 and the next
slope of the sweep (the only place the faulty mediant is formed) and whose
interval then disagrees with the pairing oracle on the grid.  The
interval-glue workload runs one of these, a different one in every round, and
counts it as a failed operation while the fault stands.

    python3 perfbench/find_fault_loops.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import loopfloer as lf  # noqa: E402

import inputs  # noqa: E402

COUNT = 60  # one per round; a run holds about 6 rounds
FIRST = "(a-3 b1 c-3)"  # the example the fault was first reported with


def wrong_on_grid(loop: lf.Loop, answer) -> bool:
    """Whether the oracle disagrees with the answer at a grid slope where the
    fast rule already does (the fast rule is the cheaper screen)."""
    suspects = [s for s in lf.stern_brocot_slopes(6)
                if answer.contains(s) != lf.is_lspace_slope(loop, s)]
    return any(answer.contains(s) != lf.fill_oracle(loop, s).is_lspace for s in suspects)


def main() -> None:
    found = [lf.Loop.from_text(FIRST)]
    seen = set(found)
    r = 0
    while len(found) < COUNT:
        rng = inputs.round_rng(0, "fault-scan", r)
        r += 1
        loop = inputs.random_loop(rng, rng.randint(3, 8))
        if loop in seen or not inputs.stable_signs_mixed(loop) or not inputs.ends_near_infinity(loop):
            continue
        seen.add(loop)
        answer = lf.lspace_interval(loop)
        if answer.certified != "exact" and wrong_on_grid(loop, answer):
            found.append(loop)
            print(len(found), loop, answer, file=sys.stderr, flush=True)
    with open(os.path.join(HERE, "fault_loops.txt"), "w") as fh:
        fh.write("# loops hit by the _refine_endpoint fault; regenerate with find_fault_loops.py\n")
        fh.writelines(f"{l}\n" for l in found)


if __name__ == "__main__":
    main()
