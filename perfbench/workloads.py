"""The four workloads: what a round runs, how it is timed, and how its
outputs are checked afterwards.

A run repeats rounds until the measured time reaches --seconds, always
finishing the round it is in.  A round's inputs come from its own seeded
generator and are built before the round starts, outside the timing; every
item is distinct within a run.  A round's operations run in a seeded random
order, so that every kind samples the machine's changing speed across the
whole run rather than in one stretch of it.  Each workload has a main and a side kind of
operation, and every operation belongs to a class of like operations (same
length or shape in every round).  A kind's rate is computed from the
classes' median operation times (see `Workload.rate`).
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import loopfloer as lf
import loopfloer.cli  # noqa: F401  (the package does not import its CLI)

import inputs
import speed

clock = time.perf_counter
RSS_ROUND = 2


class CheckFailed(AssertionError):
    """An output disagreed with its independent check."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Workload:
    """Rounds of main and side operations; subclasses fill in the kinds."""

    name = ""
    main_unit = ""
    side_unit = ""

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.records: List[dict] = []  # one per operation, in order
        self.rounds = 0
        self.failed_ids: List[str] = []
        self.peak_rss_mb = 0.0
        self.speed = speed.Speed()

    # -- subclass interface ------------------------------------------------

    def make_round(self, r: int) -> List[tuple]:
        """(kind, class, op id, callable, args, units) for round r: the
        operation counts `units` towards its kind's rate."""
        raise NotImplementedError

    def check(self) -> None:
        """Check every recorded output; append known-fault failures to
        self.failed_ids and raise CheckFailed on anything else."""
        raise NotImplementedError

    # -- running rounds ----------------------------------------------------

    def run(self, seconds: float, between_rounds=None) -> float:
        """Run rounds until `seconds` of operations are measured; returns
        the measured seconds.  Before each round, calls
        between_rounds(measured seconds so far), if given.  Times the
        machine's reference (see speed.py) at the start, after every
        speed.REF_EVERY_S of measured operations and at the end; each record
        keeps the index of the reading before it.  Sets self.peak_rss_mb to
        the peak resident memory after the first RSS_ROUND rounds (or all of
        them, if the run is shorter), so that it does not grow with the
        number of rounds a faster program fits into the run."""
        measured = 0.0
        since_ref = 0.0
        ref = self.speed.measure()
        while measured < seconds:
            if between_rounds is not None:
                between_rounds(measured)
            r = self.rounds
            if self.tracer is not None:
                self.tracer.active = False
            ops = _shuffled(self.make_round(r), inputs.round_rng(self.seed, "order", r))
            if self.tracer is not None:
                self.tracer.active = True
            for kind, cls, op_id, fn, args, units in ops:
                if self.tracer is not None:
                    self.tracer.item = op_id
                t0 = clock()
                out = fn(*args)
                dt = clock() - t0
                self.records.append({"kind": kind, "cls": cls, "id": op_id, "args": args,
                                     "out": out, "s": dt, "ref": ref, "units": units,
                                     "round": r})
                measured += dt
                since_ref += dt
                if since_ref >= speed.REF_EVERY_S:
                    ref = self.speed.measure()
                    since_ref = 0.0
            self.rounds += 1
            if r < RSS_ROUND:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.speed.measure()
        return measured

    def scaled(self, rec: dict) -> float:
        """The operation's time at the reference speed (speed.py)."""
        return rec["s"] * self.speed.scale(rec["ref"])

    def rate(self, kind: str, time_of=None) -> float:
        """Units of `kind` done per second if every operation took its
        class's median time: the units over the sum, across classes, of the
        class's operation count times that median.  Times are taken at the
        reference speed unless time_of says otherwise.

        A plain total over the run rests on its few slowest items and on
        how long this machine's faster state lasted; a median over the many
        like operations of a class moves less with either."""
        time_of = time_of or self.scaled
        times: Dict[str, List[float]] = defaultdict(list)
        units = 0
        for rec in self.records:
            if rec["kind"] == kind:
                times[rec["cls"]].append(time_of(rec))
                units += rec["units"]
        return units / sum(len(ts) * statistics.median(ts) for ts in times.values())

    def raw_rate(self, kind: str) -> float:
        """rate(kind) from the times as measured, without scaling."""
        return self.rate(kind, lambda rec: rec["s"])

    def latencies(self, kind: str) -> List[float]:
        return [rec["s"] for rec in self.records if rec["kind"] == kind]

    def end_to_end(self) -> Dict[str, float]:
        return {"main_ops_per_s": self.rate("main"), "side_ops_per_s": self.rate("side")}

    def speed_details(self) -> Dict[str, float]:
        """The raw rates and the reference readings behind the scaling."""
        return {
            "main_ops_per_s_raw": self.raw_rate("main"),
            "side_ops_per_s_raw": self.raw_rate("side"),
            "reference_s_median": self.speed.median(),
            "reference_readings": len(self.speed.times),
        }


def _shuffled(ops: List[tuple], rng) -> List[tuple]:
    """ops in a random order; operations that share an id stay together
    and in their order."""
    groups: Dict[str, List[tuple]] = {}
    for op in ops:
        groups.setdefault(op[2], []).append(op)
    order = list(groups.values())
    rng.shuffle(order)
    return [op for group in order for op in group]


def percentile(values: List[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _same_filling(a, b) -> bool:
    return (a.dim, a.chi_abs, a.is_lspace) == (b.dim, b.chi_abs, b.is_lspace)


def _filling_properties(res, what: str) -> None:
    expect(res.dim >= res.chi_abs and (res.dim - res.chi_abs) % 2 == 0, f"{what}: dim vs chi")
    expect(res.is_lspace == all(d == c != 0 for d, c in res.per_loop), f"{what}: lspace flag")


# ---------------------------------------------------------------------------


# There are only 7 loops of length 1 and 46 of length 2 with |subscript| <= 3,
# too few to draw a fresh one in every round, so rounds use lengths 3..8.
LOOP_LENGTHS = range(3, 9)


class FillSweep(Workload):
    """Per round: one random loop of each length 3..8, each filled at the 40
    slopes of the grid.  Main: `fill`.  Side: the two slope predicates."""

    name = "fill-sweep"
    main_unit = "fills"
    side_unit = "pairs"

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.seen = set()

    def make_round(self, r):
        rng = inputs.round_rng(self.seed, self.name, r)
        ops = []
        for length in LOOP_LENGTHS:
            loop = inputs.random_loop(rng, length)
            while loop in self.seen:
                loop = inputs.random_loop(rng, length)
            self.seen.add(loop)
            for s in inputs.SLOPE_GRID:
                op = f"r{r}:{loop}@{s}"
                ops.append(("main", f"len{length}", op, _fill, (loop, s), 1))
                ops.append(("side", f"len{length}", op, _predicates, (loop, s), 1))
        return ops

    def check(self):
        chis = {}
        fills = {}
        for rec in self.records:
            loop, s = rec["args"]
            if rec["kind"] == "main":
                res = rec["out"]
                what = f"fill {loop} at {s}"
                expect(_same_filling(res, lf.fill_oracle(loop, s)), f"{what}: differs from fill_oracle")
                _filling_properties(res, what)
                if loop not in chis:
                    chis[loop] = lf.euler_chars(loop)
                cb, cc = chis[loop]
                expect(res.chi_abs == abs(s.p * cb + s.q * cc), f"{what}: chi from euler_chars")
                fills[(loop, s)] = res
            else:
                lspace, strict = rec["out"]
                res = fills[(loop, s)]
                expect(lspace == res.is_lspace, f"is_lspace_slope {loop} at {s} vs fill")
                expect(lspace or not strict, f"strict but not L-space: {loop} at {s}")

    def details(self):
        fill_s = self.latencies("main")
        pair_s = [a + b for a, b in zip(fill_s, self.latencies("side"))]
        return {
            "fill_pairs_per_s": len(pair_s) / sum(pair_s),
            "fill_p99_us": 1e6 * percentile(pair_s, 99),
            "fill_us_median": 1e6 * statistics.median(fill_s),
        }


def _fill(loop, s):
    return lf.fill(loop, s)


def _predicates(loop, s):
    return lf.is_lspace_slope(loop, s), lf.is_strict_lspace_slope(loop, s)


# ---------------------------------------------------------------------------

# sizes the pairings of a round are drawn at, each within PAIR_BAND of its
# target.  The d^2 check of each component is a dense matrix product, so a
# pairing costs about the sum of the cubes of its component sizes; the size
# used here is the cube root of that sum, which is the number of generators
# when the complex has one component.  Sizes stop at 500: with sizes up to
# 1000 a 15-s run held about 30 pairings and the pairing rate of one seed
# ranged over 26 % from run to run; up to 500 a run holds about 95 and the
# range was 7 %.
PAIR_TARGETS = (200, 300, 400, 500)
PAIR_BAND = 0.03
ORACLE_SLOPES = 20
PAIR_MAX_LETTERS = 48


def _idem_counts(loop: lf.Loop, bounded: bool) -> Tuple[int, int]:
    g = lf.loops.word_to_graph(loop.word)
    if bounded:
        g = lf.oracle.make_bounded(g)
    zeros = sum(1 for idem in g.vertices.values() if idem == "0")
    return zeros, len(g.vertices) - zeros


def pairing_size(a_counts, d_counts) -> float:
    """Cube root of the summed cubed component sizes of a pairing, from the
    idempotent counts of each first-side graph and second-side bounded
    graph: a component has one generator per same-idempotent vertex pair."""
    cubes = sum((a0 * d0 + a1 * d1) ** 3 for a0, a1 in a_counts for d0, d1 in d_counts)
    return cubes ** (1 / 3)


class OraclePairing(Workload):
    """Per round: pairings of pipeline loop sets at sizes of about 200, 300,
    400 and 500 generators (main), and `fill_oracle` on one random loop of
    each length 3..8 at 20 grid slopes, each loop/slope pair new to the run
    (side)."""

    name = "oracle-pairing"
    main_unit = "pairs"
    side_unit = "fills"

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.seen = set()
        self.undecided = 0

    def make_round(self, r):
        rng = inputs.round_rng(self.seed, self.name, r)
        ops = []
        for target in PAIR_TARGETS:
            a, b = self._pair_near(rng, target)
            ops.append(("main", f"pair{target}", f"r{r}:pair{target}", _pairing, (a, b), 1))
        for length in LOOP_LENGTHS:
            loop = inputs.random_loop(rng, length)
            slopes = [s for s in inputs.SLOPE_GRID if (loop, s) not in self.seen]
            while len(slopes) < ORACLE_SLOPES:
                loop = inputs.random_loop(rng, length)
                slopes = [s for s in inputs.SLOPE_GRID if (loop, s) not in self.seen]
            for s in rng.sample(slopes, ORACLE_SLOPES):
                self.seen.add((loop, s))
                ops.append(("side", f"len{length}", f"r{r}:{loop}@{s}", _fill_oracle, (loop, s), 1))
        return ops

    def _pair_near(self, rng, target):
        """A fresh pair of pipeline loop sets whose pairing size is within
        the band around target."""
        lo, hi = target * (1 - PAIR_BAND), target * (1 + PAIR_BAND)
        pool = []
        while True:
            s = inputs.pipeline_loop_set(rng)
            if sum(len(l) for l in s) > PAIR_MAX_LETTERS:
                continue
            entry = (tuple(s), [_idem_counts(l, False) for l in s], [_idem_counts(l, True) for l in s])
            pool.append(entry)
            for x in pool:
                for first, second in ((x, entry), (entry, x)):
                    key = (first[0], second[0])
                    if lo <= pairing_size(first[1], second[2]) <= hi and key not in self.seen:
                        self.seen.add(key)
                        return list(first[0]), list(second[0])

    def check(self):
        for rec in self.records:
            if rec["kind"] == "main":
                a, b = rec["args"]
                res = rec["out"]
                what = f"pairing {lf.format_loops(a)} || {lf.format_loops(b)}"
                for comp, (dim, _, _, chi) in res.per_component.items():
                    expect(dim >= abs(chi) and (dim - chi) % 2 == 0, f"{what}: component {comp}")
                verdict = all(d == abs(c) != 0 for d, _, _, c in res.per_component.values())
                try:
                    glued = lf.glue_is_lspace(a, b)
                except ValueError:  # the gluing rule declines these inputs
                    self.undecided += 1
                    continue
                expect(verdict == glued, f"{what}: pairing vs glue_is_lspace")
            else:
                loop, s = rec["args"]
                res = rec["out"]
                what = f"fill_oracle {loop} at {s}"
                expect(_same_filling(res, lf.fill(loop, s)), f"{what}: differs from fill")
                _filling_properties(res, what)

    def details(self):
        return {
            "pairings_per_s": self.rate("main"),
            "oracle_fills_per_s": self.rate("side"),
            "fill_oracle_us_median": 1e6 * statistics.median(self.latencies("side")),
            "pairs_glue_declined": self.undecided,
        }


def _pairing(a, b):
    return lf.homology(lf.oracle.pair_complex(a, b))


def _fill_oracle(loop, s):
    return lf.fill_oracle(loop, s)


# ---------------------------------------------------------------------------

FAULT_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fault_loops.txt")
GRID_DEPTH = 6
# a glue decision costs from 0.1 to 10 ms, depending on its sets and on which
# of their intervals the cache already holds; with 100 pairs a round the
# side rate of a run rested on 500 decisions and moved by 20 % between seeds
GLUE_PAIRS = 400
GLUE_SET_LETTERS = 8
INTERVAL_SET_LETTERS = 8
DEEP_SLOPES = 2
# the oracle walks graphs recursively; loops reparametrized at slopes just
# below the grid run to several hundred letters
CHECK_RECURSION_LIMIT = 20000


def fault_loops() -> List[lf.Loop]:
    with open(FAULT_FILE) as fh:
        return [lf.Loop.from_text(line) for line in fh if line.strip() and not line.startswith("#")]


def _pipeline_set(rng, max_letters: int) -> List[lf.Loop]:
    while True:
        s = inputs.pipeline_loop_set(rng)
        if sum(len(l) for l in s) <= max_letters:
            return s


class IntervalGlue(Workload):
    """Per round (main): `lspace_interval` on one random loop of each length
    3..8 whose stable chains mix signs (the sweep answers these), on two
    whose chains do not (normalized exactly), on the round's loop of
    fault_loops.txt, hit by the _refine_endpoint fault, and on one pipeline
    loop set; classes by kind of item and loop length.  Side:
    `glue_is_lspace` on 400 pairs of small pipeline loop sets."""

    name = "interval-glue"
    main_unit = "sets"
    side_unit = "pairs"

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.faults = fault_loops()
        self.seen = set()

    def _random_loop(self, rng, length: int, mixed: bool) -> lf.Loop:
        # Left out: loops whose L-space set ends between 1/0 and the grid's
        # last negative slope (the sweep answers them through the faulty
        # mediant, wrongly on the grid for some of them, so the failure
        # count would depend on the seed; the fault is measured by the fixed
        # fault loops instead), and loops that pass the sign test but that
        # the depth-6 search cannot normalize (about one in eight; 1-3 s
        # each, so rounds would not be alike)
        while True:
            loop = inputs.random_loop(rng, length)
            if (loop not in self.seen and inputs.stable_signs_mixed(loop) == mixed
                    and not inputs.ends_near_infinity(loop, GRID_DEPTH)
                    and (mixed or inputs.normalizable(loop, GRID_DEPTH))):
                self.seen.add(loop)
                return loop

    def _fresh_set(self, rng, max_letters: int) -> List[lf.Loop]:
        while True:
            s = _pipeline_set(rng, max_letters)
            key = tuple(s)
            if key not in self.seen:
                self.seen.add(key)
                return s

    def make_round(self, r):
        if r >= len(self.faults):
            # a repeated fault loop would be answered from the interval cache
            raise RuntimeError(f"the run outlasted the {len(self.faults)} loops of "
                               f"{FAULT_FILE}; raise COUNT in find_fault_loops.py and rerun it")
        rng = inputs.round_rng(self.seed, self.name, r)
        items = [(f"mixed{n}", self._random_loop(rng, n, True)) for n in LOOP_LENGTHS]
        # exact answers cost little but take the check about 0.8 s each, so
        # a round holds two, of lengths L and 11 - L for L = 3..8 in turn
        items += [(f"exact{n}", self._random_loop(rng, n, False)) for n in (3 + r % 6, 8 - r % 6)]
        items.append(("fault", self.faults[r]))
        items.append(("pipeline", self._fresh_set(rng, INTERVAL_SET_LETTERS)))
        ops = [("main", cls, f"r{r}:{cls}{i}", _interval, (x,), 1)
               for i, (cls, x) in enumerate(items)]
        for i in range(GLUE_PAIRS):
            # small sets recur (a single vertex gives (d_w)); pairs do not
            while True:
                a = _pipeline_set(rng, GLUE_SET_LETTERS)
                b = _pipeline_set(rng, GLUE_SET_LETTERS)
                if (tuple(a), tuple(b)) not in self.seen:
                    self.seen.add((tuple(a), tuple(b)))
                    break
            ops.append(("side", "glue", f"r{r}:glue{i}", _glue, (a, b), 1))
        return ops

    def check(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, CHECK_RECURSION_LIMIT))
        try:
            self._check()
        finally:
            sys.setrecursionlimit(limit)

    def _check(self):
        grid = lf.stern_brocot_slopes(GRID_DEPTH)
        trefoil = lf.lspace_interval(lf.Loop.from_text("a1 b1 c-2"))
        expect(trefoil == lf.SlopeSet.closed_arc(lf.Slope(1, 0), lf.Slope(-1, 1)),
               f"trefoil interval is {trefoil}")
        for k, rec in enumerate(self.records):
            if rec["kind"] == "side":
                a, b = rec["args"]
                expect(rec["out"] == lf.pair_is_lspace(a, b),
                       f"glue {lf.format_loops(a)} || {lf.format_loops(b)} vs pairing")
                continue
            (item,) = rec["args"]
            loops = [item] if isinstance(item, lf.Loop) else item
            answer = rec["out"]
            what = f"interval {lf.format_loops(loops)} = {answer}"
            slopes = list(grid)
            lam = lf.rational_longitude(loops)
            if lam is not None and lam not in slopes:
                slopes.append(lam)
            wrong = next((s for s in slopes
                          if answer.contains(s) != lf.fill_oracle(loops, s).is_lspace), None)
            if wrong is not None:
                known = answer.certified != "exact" and all(
                    inputs.ends_near_infinity(l, GRID_DEPTH) for l in loops)
                expect(known, f"{what}: wrong at {wrong}")
                self.failed_ids.append(rec["id"])
                continue
            if answer.kind == "closed_arc":
                for e in (answer.a, answer.b):
                    expect(lf.fill_oracle(loops, e).is_lspace, f"{what}: endpoint {e} not L-space")
                    if answer.certified == "exact":
                        expect(not lf.is_strict_lspace_slope(loops, e), f"{what}: endpoint {e} strict")
            if answer.certified == "exact":
                rng = inputs.round_rng(self.seed, "interval-check", k)
                for s in (_deep_slope(rng) for _ in range(DEEP_SLOPES)):
                    expect(answer.contains(s) == lf.fill_oracle(loops, s).is_lspace,
                           f"{what}: wrong at {s}")

    def details(self):
        lat = self.latencies("main")
        random_loops = [rec["s"] for rec in self.records
                        if rec["cls"].startswith(("mixed", "exact"))]
        return {
            "intervals_per_s": self.rate("main"),
            "random_loop_interval_ms_median": 1e3 * statistics.median(random_loops),
            "interval_p90_ms": 1e3 * percentile(lat, 90),
            "interval_samples": len(lat),
            "glue_decisions_per_s": self.rate("side"),
        }


def _deep_slope(rng) -> lf.Slope:
    """A slope of Stern-Brocot depth 7 or 8, just below the checked grid."""
    lo, hi = (0, 1), (1, 0)
    for _ in range(rng.randint(GRID_DEPTH, GRID_DEPTH + 1)):
        med = (lo[0] + hi[0], lo[1] + hi[1])
        if rng.random() < 0.5:
            lo = med
        else:
            hi = med
    p, q = lo[0] + hi[0], lo[1] + hi[1]
    return lf.Slope(p if rng.random() < 0.5 else -p, q)


def _interval(item):
    return lf.lspace_interval(item)


def _glue(a, b):
    return lf.glue_is_lspace(a, b)


# ---------------------------------------------------------------------------

# the census of t = 2..40 in four CLI calls of about equal time, so that a
# run holds four times as many census timings as with one call per round
CENSUS_BLOCKS = ((2, 25), (26, 31), (32, 36), (37, 40))
HF_TREES = 150
HF_VERTICES = 12
HF_MAX_DET = 2000


class PlumbingCensus(Workload):
    """Per round (main): the CLI census of the n_t family for t = 2..40,
    in the four ranges of CENSUS_BLOCKS, counted in rows.  Side: `cfd` and `hf` on a Seifert tree with each of
    1..6 legs, and `hf` on 150 random 12-vertex trees with |det| <= 2000,
    counted in trees."""

    name = "plumbing-census"
    main_unit = "rows"
    side_unit = "trees"

    def __init__(self, seed, tracer=None):
        super().__init__(seed, tracer)
        self.seen = set()

    def make_round(self, r):
        rng = inputs.round_rng(self.seed, self.name, r)
        ops = [("main", f"census{a}", f"r{r}:census{a}", _census, (_census_args(a, b),), b - a + 1)
               for a, b in CENSUS_BLOCKS]
        for legs in range(1, 7):
            data = inputs.seifert_data(rng, legs)
            while data in self.seen:
                data = inputs.seifert_data(rng, legs)
            self.seen.add(data)
            ops.append(("side", f"seifert{legs}", f"r{r}:seifert{legs}", _seifert, data, 1))
        for i in range(HF_TREES):
            t = inputs.hf_tree(rng, HF_VERTICES, HF_MAX_DET)
            while inputs.tree_key(t) in self.seen:
                t = inputs.hf_tree(rng, HF_VERTICES, HF_MAX_DET)
            self.seen.add(inputs.tree_key(t))
            ops.append(("side", "hf", f"r{r}:hf{i}", _hf, (t,), 1))
        return ops

    def check(self):
        poincare = lf.PlumbingTree({0: -1, 1: -2, 2: -3, 3: -5}, [(0, 1), (0, 2), (0, 3)], None)
        expect(lf.hf_dim_closed(poincare) == (1, True), "Poincare sphere dimension")
        for rec in self.records:
            if rec["kind"] == "main":
                (argv,) = rec["args"]
                _check_census(argv, *rec["out"])
            elif rec["cls"].startswith("seifert"):
                e0, cone = rec["args"]
                letters, hf, _ = rec["out"]
                orders = 1
                for a, _ in cone:
                    orders *= a
                expect(letters == orders, f"Seifert {e0} {cone}: loop length {letters} vs {orders}")
                _check_hf(lf.seifert_tree(e0, cone, bounded=False), hf)
            else:
                (t,) = rec["args"]
                _check_hf(t, rec["out"])

    def details(self):
        seifert = [rec for rec in self.records if rec["cls"].startswith("seifert")]
        letters = sum(rec["out"][0] for rec in seifert)
        return {
            # the four blocks' median times: one census of t = 2..40
            "census_s": sum(statistics.median(rec["s"] for rec in self.records
                                              if rec["cls"] == f"census{a}")
                            for a, _ in CENSUS_BLOCKS),
            "cfd_6_legs_s": statistics.median(
                rec["out"][2] for rec in seifert if rec["cls"] == "seifert6"),
            "hf_trees_per_s": self.rate("side"),
            "cfd_letters_per_s": letters / sum(rec["out"][2] for rec in seifert),
        }


def _census_args(first: int, last: int) -> List[str]:
    return ["census", "--family", "nt", "--range", f"{first}..{last}"]


def _census(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lf.cli.run(list(argv))
    return code, buf.getvalue()


def _check_census(argv: List[str], code: int, text: str) -> None:
    first, last = map(int, argv[-1].split(".."))
    expect(code == 0, f"census exit code {code}")
    rows = text.splitlines()
    expect(len(rows) == last - first + 1, f"census {first}..{last} printed {len(rows)} rows")
    for t, row in zip(range(first, last + 1), rows):
        fields = dict(f.split("=", 1) for f in row.split(" loops:")[0].split())
        expect(fields == {"t": str(t), "longitude": "1/0", "dual_fill_dim": str(t * t),
                          "lspace": "yes"}, f"census row {row[:80]}")


def _seifert(e0, cone):
    # only the letter count is kept, so that memory does not grow with rounds
    t0 = clock()
    letters = sum(map(len, lf.cfd(lf.seifert_tree(e0, cone))))
    cfd_s = clock() - t0
    return letters, lf.hf_dim_closed(lf.seifert_tree(e0, cone, bounded=False)), cfd_s


def _hf(t):
    return lf.hf_dim_closed(t)


def _check_hf(t, result) -> None:
    dim, lspace = result
    det = abs(inputs.bareiss_det(inputs.plumbing_matrix(t)))
    what = f"hf of tree {inputs.tree_key(t)} = {dim} (|det| {det})"
    if lspace:
        expect(dim == det, what)
    else:
        expect(dim >= det and (dim - det) % 2 == 0, what)


WORKLOADS = {w.name: w for w in (FillSweep, OraclePairing, IntervalGlue, PlumbingCensus)}
