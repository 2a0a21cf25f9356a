"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload fill-sweep --seed 1 --seconds 13 --trace 0

Run from the root of a checkout: the program is imported from ./src.  The
run times rounds of the workload until --seconds of operations have been
measured, and between rounds times SETUP_PROBES fresh interpreters that
import loopfloer and answer one `fill` through the CLI, spread evenly over
the run; then it checks every output outside the timing.  The rates are
computed from operation times scaled to the reference speed of speed.py, and
set-up times are taken relative to speed.START_COMMAND.  With --trace 0 the
result holds the end-to-end metrics;
with --trace 1 the same rounds run with spans around loopfloer's public
functions and the result holds the per-layer metrics.  Either way the full
figures go to perfbench/out/<workload>-s<seed>-t<trace>.json (with the spans
themselves in ...-spans.json).  Exit code 0 when the run completes, whether or
not the check passes (see "correct"), 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


class SetupProbes:
    """Fresh interpreters answering one `fill`, run between rounds.

    This machine's speed drifts over tens of seconds, so probes taken in a
    row at the start would measure one moment of it; spread over the run,
    their median is as steady as the run's other figures.  Each probe is
    paired with a run of speed.START_COMMAND, before it or after it in
    turn, and setup_s is speed.START_NOMINAL_S times the median ratio of
    the probe's wall time to its pair's."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.walls, self.starts, self.imports, self.answers = [], [], [], []
        self.outputs = set()

    def between_rounds(self, measured: float) -> None:
        """Catch up to the share of SETUP_PROBES that the measured share of
        the run calls for."""
        due = min(SETUP_PROBES, 1 + int(SETUP_PROBES * measured / self.seconds))
        while len(self.walls) < due:
            self.probe()

    def probe(self) -> None:
        if len(self.walls) % 2:
            self.start()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), SRC],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        self.walls.append(time.perf_counter() - t0)
        if len(self.starts) < len(self.walls):
            self.start()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        *answer, last = proc.stdout.strip().splitlines()
        timing = json.loads(last)
        self.imports.append(timing["import_s"])
        self.answers.append(timing["first_answer_ms"])
        self.outputs.add((timing["code"], "\n".join(answer)))

    def start(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(speed.START_COMMAND, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        self.starts.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"interpreter start failed: {proc.stderr.strip()[-500:]}")

    def result(self) -> dict:
        self.between_rounds(self.seconds)
        ratios = [w / s for w, s in zip(self.walls, self.starts)]
        return {
            "setup_s": speed.START_NOMINAL_S * statistics.median(ratios),
            "setup_s_raw": statistics.median(self.walls),
            "import_s": statistics.median(self.imports),
            "first_answer_ms": statistics.median(self.answers),
            "walls_s": self.walls,
            "start_walls_s": self.starts,
            "outputs": sorted(self.outputs),
        }


def setup_answer_ok(setup: dict) -> bool:
    import loopfloer as lf

    ref = lf.fill_oracle(lf.Loop.from_text("a1 b1 c-2"), lf.Slope(1, 0))
    want = f"dim={ref.dim} chi={ref.chi_abs} lspace={'yes' if ref.is_lspace else 'no'}"
    return setup["outputs"] == [(0, want)]


# per-layer metrics: (name, unit, better, how it is read off the run); `how`
# takes the trace's per-name summary, the attempted operations, the rounds
# and the set-up figures
def _mean(name, scale, field="total_s"):
    def how(t, ops, rounds, setup):
        return scale * t[name][field] / t[name]["calls"] if t[name]["calls"] else 0.0
    return how


def _size(name, key):
    return lambda t, ops, rounds, setup: (
        t[name]["sizes"][key] / t[name]["calls"] if t[name]["calls"] else 0.0)


def _per_op(name):
    return lambda t, ops, rounds, setup: t[name]["calls"] / ops


def _per_round(name, key):
    return lambda t, ops, rounds, setup: t[name]["sizes"][key] / rounds


def _setup(key):
    return lambda t, ops, rounds, setup: setup[key]


LAYER_METRICS = [
    ("algebra.check_ms", "ms", "lower", _mean("algebra.check", 1e3)),
    ("algebra.homology_ms", "ms", "lower", _mean("algebra.homology", 1e3)),
    ("algebra.generators", "count", "lower", _size("algebra.check", "generators")),
    ("algebra.differentials", "count", "lower", _size("algebra.check", "differentials")),
    ("oracle.make_bounded_ms", "ms", "lower", _mean("oracle.make_bounded", 1e3)),
    ("oracle.to_type_a_ms", "ms", "lower", _mean("oracle.to_type_a", 1e3)),
    # box_tensor without the d^2 check it runs, which algebra.check_ms counts
    ("oracle.box_tensor_ms", "ms", "lower", _mean("oracle.box_tensor", 1e3, "self_s")),
    ("oracle.type_a_operations", "count", "lower", _size("oracle.to_type_a", "operations")),
    ("oracle.fill_oracle_us", "us", "lower", _mean("oracle.fill_oracle", 1e6)),
    ("loops.word_in_us", "us", "lower", _mean("loops.word_in", 1e6)),
    ("loops.word_in_calls", "count/op", "lower", _per_op("loops.word_in")),
    ("loops.canonicalize_us", "us", "lower", _mean("loops.canonicalize", 1e6)),
    ("loops.euler_chars_us", "us", "lower", _mean("loops.euler_chars", 1e6)),
    ("twists.reparametrize_us", "us", "lower", _mean("twists.reparametrize", 1e6)),
    ("twists.reparametrize_calls", "count/op", "lower", _per_op("twists.reparametrize")),
    ("twists.twist_us", "us", "lower", _mean("twists.twist", 1e6)),
    ("twists.twist_calls", "count/op", "lower", _per_op("twists.twist")),
    ("twists.fill_us", "us", "lower", _mean("twists.fill", 1e6)),
    ("detection.lspace_interval_ms", "ms", "lower", _mean("detection.lspace_interval", 1e3)),
    ("detection.all_unstable_form_ms", "ms", "lower", _mean("detection.all_unstable_form", 1e3)),
    ("detection.is_lspace_slope_us", "us", "lower", _mean("detection.is_lspace_slope", 1e6)),
    ("detection.sweep_answers", "count/round", "lower", _per_round("detection.lspace_interval", "sweep")),
    ("detection.exact_answers", "count/round", "higher", _per_round("detection.lspace_interval", "exact")),
    ("gluing.glue_is_lspace_us", "us", "lower", _mean("gluing.glue_is_lspace", 1e6)),
    ("gluing.solid_torus_like_us", "us", "lower", _mean("gluing.solid_torus_like", 1e6)),
    ("gluing.lspace_aligned_us", "us", "lower", _mean("gluing.lspace_aligned", 1e6)),
    ("plumbing.cfd_ms", "ms", "lower", _mean("plumbing.cfd", 1e3)),
    ("plumbing.hf_dim_closed_ms", "ms", "lower", _mean("plumbing.hf_dim_closed", 1e3)),
    ("plumbing.letters_out", "count/round", "higher", _per_round("plumbing.cfd", "letters")),
    ("cli.import_s", "s", "lower", _setup("import_s")),
    ("cli.first_answer_ms", "ms", "lower", _setup("first_answer_ms")),
    ("cli.census_ms", "ms", "lower", _mean("cli.run", 1e3)),
]

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_ops_per_s", "ops/s"),
    ("side_ops_per_s", "ops/s"),
]


def layer_metrics(by_name: dict, setup: dict, ops: int, rounds: int) -> dict:
    return {name: {"value": how(by_name, ops, rounds, setup), "unit": unit}
            for name, unit, _, how in LAYER_METRICS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "loopfloer", "__init__.py")):
        print(f"error: no loopfloer package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    probes = SetupProbes(args.seconds)
    tracer = spans.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    measured = wl.run(args.seconds, probes.between_rounds)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    setup = probes.result()

    problems = []
    if not setup_answer_ok(setup):
        problems.append(f"set-up probe answered {setup['outputs']}")
    t1 = time.perf_counter()
    try:
        wl.check()
    except workloads.CheckFailed as err:
        problems.append(str(err))
    check_s = time.perf_counter() - t1
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    end_to_end = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": wl.peak_rss_mb,
        **wl.end_to_end(),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": wl.rounds,
        "op_seconds": [[rec["kind"], rec["cls"], rec["round"], rec["s"], rec["ref"]]
                       for rec in wl.records],
        "reference_s": wl.speed.times,
        "measured_s": measured,
        "wall_s": wall,
        "check_s": check_s,
        "units": {"main": wl.main_unit, "side": wl.side_unit},
        "end_to_end": end_to_end,
        "details": {**wl.details(), **wl.speed_details()},
        "setup": setup,
        "failed_ids": wl.failed_ids,
        "problems": problems,
    }
    if tracer is not None:
        by_name = tracer.by_name()
        metrics = layer_metrics(by_name, setup, len(wl.records), wl.rounds)
        record["per_layer"] = {k: v["value"] for k, v in metrics.items()}
        record["layer_self_s"] = tracer.layer_self_time()
        record["spans_by_name"] = by_name
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(stem + "-spans.json", {"workload": args.workload, "seed": args.seed})

    print(json.dumps({
        "correct": not problems,
        "attempted": len(wl.records),
        "failed": len(wl.failed_ids),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
