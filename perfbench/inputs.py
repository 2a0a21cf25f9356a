"""Seeded input generators for the benchmark workloads.

Everything here depends only on the standard library and on the public
constructors of loopfloer, so that edits to the test suite cannot shift a
workload.  Every generator takes a `random.Random`; the workloads seed one per
round from (seed, workload, round), so a round's inputs do not depend on how
many rounds ran before it.
"""

from __future__ import annotations

import inspect
import random
from math import gcd
from typing import List, Sequence, Tuple

import loopfloer as lf
from loopfloer.loops import word_violations

_START = {"a": 2, "b": 1, "c": 2, "d": 1}
_END = {"a": 2, "b": 1, "c": 1, "d": 2}

# 1/0 and p/q with |p| <= 5, 1 <= q <= 5: 40 slopes
SLOPE_GRID = [lf.Slope(1, 0)] + [
    lf.Slope(p, q) for q in range(1, 6) for p in range(-5, 6) if gcd(abs(p), q) == 1
]


def round_rng(seed: int, workload: str, round_no: int) -> random.Random:
    # str seeds are hashed with SHA-512, so this is stable across processes
    return random.Random(f"{seed}:{workload}:{round_no}")


def random_loop(rng: random.Random, length: int, max_sub: int = 3) -> lf.Loop:
    """A valid cyclic standard word of exactly `length` letters with
    |subscript| <= max_sub, by rejection on the adjacency classes."""
    while True:
        fams: List[str] = []
        for _ in range(length):
            opts = [f for f in "abcd" if not fams or _START[f] != _END[fams[-1]]]
            fams.append(rng.choice(opts))
        if _START[fams[0]] == _END[fams[-1]]:
            continue
        if fams.count("a") != fams.count("b"):
            continue
        letters = []
        for f in fams:
            if f in "ab":
                s = rng.choice([k for k in range(-max_sub, max_sub + 1) if k])
            else:
                s = rng.randint(-max_sub, max_sub)
            letters.append(lf.Letter(f, s))
        if word_violations(letters):
            continue
        return lf.Loop.from_letters(letters)


def random_tree(rng: random.Random, n: int, lo: int, hi: int, boundary=None) -> lf.PlumbingTree:
    weights = {i: rng.randint(lo, hi) for i in range(n)}
    edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
    return lf.PlumbingTree(weights, edges, boundary)


def tree_key(t: lf.PlumbingTree):
    return (tuple(sorted(t.weights.items())), tuple(t.edges), t.boundary)


def pipeline_loop_set(rng: random.Random, max_vertices: int = 6) -> List[lf.Loop]:
    """Loops of a random single-boundary tree whose non-boundary vertices
    are all good and which the pipeline accepts."""
    while True:
        t = random_tree(rng, rng.randint(1, max_vertices), -4, 4, boundary=0)
        kinds = lf.classify_vertices(t)
        if any(k == "bad" and v != 0 for v, k in kinds.items()):
            continue
        try:
            return lf.cfd(t)
        except lf.PipelineError:
            continue


def plumbing_matrix(t: lf.PlumbingTree) -> List[List[int]]:
    ids = sorted(t.weights)
    idx = {v: i for i, v in enumerate(ids)}
    m = [[0] * len(ids) for _ in ids]
    for v, w in t.weights.items():
        m[idx[v]][idx[v]] = w
    for a, b in t.edges:
        m[idx[a]][idx[b]] = m[idx[b]][idx[a]] = 1
    return m


def bareiss_det(m: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def hf_tree(rng: random.Random, n: int, max_det: int) -> lf.PlumbingTree:
    """A closed n-vertex tree with at most one bad vertex and a determinant
    of absolute value 1..max_det that the pipeline accepts.

    The pipeline's words grow with the determinant: unbounded, one tree in
    ten takes seconds and the slowest tens of seconds.  Acceptance is
    decided by running hf_dim_closed once; the plumbing module keeps no
    cache, so this does not warm the timed call."""
    while True:
        t = random_tree(rng, n, -5, 5)
        kinds = lf.classify_vertices(t)
        if sum(k == "bad" for k in kinds.values()) > 1:
            continue
        det = bareiss_det(plumbing_matrix(t))
        if not 0 < abs(det) <= max_det:
            continue
        try:
            lf.hf_dim_closed(t)
        except lf.PipelineError:
            continue
        return t


# leg orders of the Seifert trees: the first k primes for k legs, so the
# boundary loop has 2, 6, 30, 210, 2310 and 30030 letters
SEIFERT_PRIMES = (2, 3, 5, 7, 11, 13)


def seifert_data(rng: random.Random, legs: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    e0 = rng.randint(-20, -1)
    cone = tuple(
        (a, rng.choice([b for b in range(1, a) if gcd(a, b) == 1]))
        for a in SEIFERT_PRIMES[:legs]
    )
    return e0, cone


def sweep_neighbour(loop: lf.Loop, depth: int = 6) -> lf.Slope:
    """The slope that follows 1/0 in the sweep's cyclic list: the most
    negative slope of the Stern-Brocot grid, or the rational longitude when
    that lies further out."""
    first = lf.stern_brocot_slopes(depth)[1]
    lam = lf.rational_longitude(loop)
    if lam is not None and not lam.is_infinite and lam.fraction() < first.fraction():
        return lam
    return first


def ends_near_infinity(loop: lf.Loop, depth: int = 6) -> bool:
    """Whether L-space membership, as the fast rule decides it, changes
    between 1/0 and the slope after it in the sweep's list.

    The sweep refines such an endpoint with mediants of (1, 0) and a
    negative slope, which step to the wrong side of infinity.  Computed with
    uncached twists, so it leaves the program's caches cold."""
    twists = lf.twists.reparametrization_word(sweep_neighbour(loop, depth))
    return _one_family_at_infinity(loop) != _one_family_at_infinity(twists.apply(loop))


def _one_family_at_infinity(loop: lf.Loop) -> bool:
    if not lf.loops.expressible(loop, "standard"):
        return False
    fams = {x.family for x in lf.loops.word_in(loop, "standard").letters}
    return ("c" in fams) != ("d" in fams)


def normalizable(loop: lf.Loop, depth: int = 6) -> bool:
    """Whether the bounded twist search finds an all-unstable form.  Runs
    the search without its cache (and without any tracing wrapper), so the
    timed call still starts cold."""
    return inspect.unwrap(lf.detection.all_unstable_form)(loop, depth) is not None


def stable_signs_mixed(loop: lf.Loop) -> bool:
    """Whether the stable-chain subscripts of some word of the loop take
    both signs.  Such loops have no all-unstable form, so their interval
    comes from the sweep; the others are normalized exactly (rarely the
    bounded twist search gives up and they are swept too)."""
    for alphabet in ("standard", "dual"):
        if not lf.loops.expressible(loop, alphabet):
            continue
        subs = [x.subscript for x in lf.loops.word_in(loop, alphabet).letters if x.family in "ab"]
        if subs and min(subs) < 0 < max(subs):
            return True
    return False
