"""Shared corpus: named loops, random valid words, random plumbing trees."""

import random

import hypothesis.strategies as st
import pytest

from loopfloer import Letter, Loop, PlumbingTree, Slope, classify_vertices
from loopfloer.loops import word_violations
from loopfloer.plumbing import plumbing_det

_START = {"a": 2, "b": 1, "c": 2, "d": 1}
_END = {"a": 2, "b": 1, "c": 1, "d": 2}


def random_loop(rng, max_len=8, max_sub=3, star=False):
    """Uniform-ish valid cyclic word via rejection on the adjacency classes."""
    while True:
        n = rng.randint(1, max_len)
        fams = []
        for _ in range(n):
            opts = [f for f in "abcd" if not fams or _START[f] != _END[fams[-1]]]
            fams.append(rng.choice(opts))
        if _START[fams[0]] == _END[fams[-1]]:
            continue
        if sum(f == "a" for f in fams) != sum(f == "b" for f in fams):
            continue
        letters = []
        for f in fams:
            if f in "ab":
                s = rng.choice([k for k in range(-max_sub, max_sub + 1) if k != 0])
            else:
                s = rng.randint(-max_sub, max_sub)
            letters.append(Letter(f, s, star))
        if word_violations(letters):
            continue
        return Loop.from_letters(letters)


@st.composite
def loops(draw, max_len=7, max_sub=3, star=False):
    """Hypothesis strategy for a valid loop of 1..max_len letters."""
    n = draw(st.integers(1, max_len))
    fams = []
    for _ in range(n):
        opts = [f for f in "abcd" if not fams or _START[f] != _END[fams[-1]]]
        fams.append(draw(st.sampled_from(opts)))
    if _START[fams[0]] == _END[fams[-1]]:
        fams = [f for f in fams if f in "cd"] or ["d"]
    if sum(f == "a" for f in fams) != sum(f == "b" for f in fams):
        fams = [f for f in fams if f in "cd"] or ["d"]
    letters = []
    for f in fams:
        if f in "ab":
            s = draw(st.integers(-max_sub, max_sub).filter(lambda k: k != 0))
        else:
            s = draw(st.integers(-max_sub, max_sub))
        letters.append(Letter(f, s, star))
    if word_violations(letters):
        letters = [Letter("d", x.subscript, star) for x in letters]
    return Loop.from_letters(letters)


def random_closed_tree(rng, max_vertices=10, weight_range=(-5, 5)):
    n = rng.randint(1, max_vertices)
    weights = {i: rng.randint(*weight_range) for i in range(n)}
    edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
    return PlumbingTree(weights, edges, None)


def random_good_bounded_tree(rng, max_vertices=6, weight_range=(-4, 4)):
    """Tree with boundary at 0, every other vertex good, and a computable
    pipeline value.

    Good vertices do not rule out non-rational-homology-solid-torus pieces
    (two weight-0 leaves on one vertex, say), whose invariants are not loop
    collections; the pipeline refuses those and the generator resamples.
    """
    from loopfloer import cfd
    from loopfloer.plumbing import PipelineError

    while True:
        t = random_closed_tree(rng, max_vertices, weight_range)
        t = t.with_boundary(0)
        bad = [v for v, k in classify_vertices(t).items() if k == "bad" and v != 0]
        if bad:
            continue
        try:
            cfd(t)
        except PipelineError:
            continue
        return t


def tree_is_rational_homology_sphere(t):
    """Nonzero determinant of the plumbing intersection matrix."""
    return plumbing_det(t) != 0


def all_good_closed_tree(rng, max_vertices=10, weight_range=(-5, 5)):
    """All-good closed tree describing a rational homology sphere (the
    L-space conclusion is only meaningful for those)."""
    while True:
        t = random_closed_tree(rng, max_vertices, weight_range)
        if all(k == "good" for k in classify_vertices(t).values()):
            if tree_is_rational_homology_sphere(t):
                return t


def small_slopes(bound=3):
    out = {Slope(1, 0)}
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if p or q:
                out.add(Slope(p, q))
    return sorted(out, key=str)


NAMED_LOOPS = {
    "solid_torus": "e",
    "dual_solid_torus": "e*",
    "trefoil": "a1 b1 c-2",
    "framed_7_2": "d-4 d-3",
    "two_e": "e e",
    "two_e_star": "e* e*",
    "klein_piece": "a1 b1",
    "no_manifold": "a1 b1 a-1 b-1",
    "d3": "d3",
    "d1d0": "d1 d0",
    "poincare_boundary": (
        "d2 d-1 d0 d0 d0 d0 d1 d-1 d0 d0 d1 d-1 d1 d-1 d0 d1 d0 d-1 d1 d-1 "
        "d1 d0 d0 d-1 d1 d0 d0 d0 d0 d-1"
    ),
}


@pytest.fixture(scope="session")
def named():
    return {k: Loop.from_text(v) for k, v in NAMED_LOOPS.items()}


@pytest.fixture(scope="session")
def corpus():
    """A mixed bag of valid loops for property checks."""
    rng = random.Random(20260808)
    loops = [Loop.from_text(v) for v in NAMED_LOOPS.values()]
    loops += [random_loop(rng) for _ in range(40)]
    loops += [random_loop(rng, star=True, max_len=6) for _ in range(10)]
    return loops


@pytest.fixture(scope="session")
def poincare_tree():
    return PlumbingTree(
        {0: -1, 1: -2, 2: -3, 3: -5}, [(0, 1), (0, 2), (0, 3)], None
    )


# dense pure-Python references for the F2 core: ranks by row reduction of
# 0/1 lists, homology from the ranks of a complex given as id pairs


def _reference_rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [a ^ b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _reference_homology(c):
    """Per component (dim, dim0, dim1, chi) of a complex given as
    (generators, differential): (id, grading, component) triples and a set
    of (source, target) id pairs."""
    generators, differential = c
    per = {}
    for comp in dict.fromkeys(k for _, _, k in generators):
        zeros = [gid for gid, g, k in generators if k == comp and g == 0]
        ones = [gid for gid, g, k in generators if k == comp and g == 1]
        r0 = _reference_rank([[int((s, t) in differential) for s in zeros] for t in ones])
        r1 = _reference_rank([[int((s, t) in differential) for s in ones] for t in zeros])
        h0, h1 = len(zeros) - r0 - r1, len(ones) - r0 - r1
        per[comp] = (h0 + h1, h0, h1, len(zeros) - len(ones))
    return per
