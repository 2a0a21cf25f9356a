import itertools
import math
import random

import pytest

from loopfloer import (
    Loop,
    PlumbingTree,
    Slope,
    cfd,
    classify_vertices,
    euler_chars,
    fill,
    hf_dim_closed,
    merge_loops,
    n_t_tree,
    parse_tree,
    rational_longitude,
    seifert_tree,
    staircase_loop,
)
from loopfloer.detection import is_simple, solid_torus_like
from loopfloer.plumbing import PipelineError, TreeError, format_tree, gamma_n_tree, plumbing_det
from conftest import all_good_closed_tree, random_closed_tree, random_good_bounded_tree

POINCARE = """
# the four-vertex star with weights -1; -2 -3 -5
v 0 -1
v 1 -2
v 2 -3
v 3 -5
e 0 1
e 0 2
e 0 3
"""


def test_parse_tree_roundtrip():
    t = parse_tree(POINCARE)
    assert t.weights == {0: -1, 1: -2, 2: -3, 3: -5}
    assert t.boundary is None
    again = parse_tree(format_tree(t))
    assert again.weights == t.weights and sorted(again.edges) == sorted(t.edges)


def test_parse_tree_errors():
    with pytest.raises(TreeError):
        parse_tree("v 0 0\nb 0\nb 0\n")
    with pytest.raises(TreeError):
        parse_tree("v 0 0\ne 0 1\n")
    with pytest.raises(TreeError):
        parse_tree("v 0 0\nv 1 1\n")  # disconnected
    with pytest.raises(TreeError):
        parse_tree("v 0 0\nv 1 1\nv 2 2\ne 0 1\ne 1 2\ne 2 0\n")  # cycle
    with pytest.raises(TreeError):
        parse_tree("w 0 0")


def test_classify_vertices():
    t = parse_tree(POINCARE)
    kinds = classify_vertices(t)
    assert kinds[0] == "bad"  # -3 < -1 < 0
    assert kinds[1] == kinds[2] == kinds[3] == "good"
    t2 = parse_tree("v 0 -2\nv 1 0\ne 0 1\n")
    assert classify_vertices(t2)[0] == "good"
    # weight 0 between a positive and a negative neighbour is bad
    t3 = parse_tree("v 0 0\nv 1 2\nv 2 -2\ne 0 1\ne 0 2\n")
    assert classify_vertices(t3)[0] == "bad"


def test_merge_grid_examples():
    out = merge_loops(Loop.from_text("d1 d0"), Loop.from_text("d1 d0 d0"))
    assert out == [Loop.from_text("d2 d0 d1 d1 d1 d0")]
    out = merge_loops(Loop.from_text("d-1 d0"), Loop.from_text("d1 d0"))
    assert set(out) == {Loop.from_text("d0 d0"), Loop.from_text("d1 d-1")}
    # merging with the trivial solid torus changes nothing
    for text in ("a1 b1 c-2", "d2 d1", "e e"):
        assert merge_loops(Loop.from_text("e"), Loop.from_text(text)) == [
            Loop.from_text(text)
        ]


def test_merge_requires_unstable_side():
    with pytest.raises(PipelineError):
        merge_loops(Loop.from_text("a1 b1 c-2"), Loop.from_text("e"))
    # an all-c word reverses to (d-1 d0) and is accepted
    out = merge_loops(Loop.from_text("c0 c1"), Loop.from_text("d1 d0"))
    assert set(out) == {Loop.from_text("d0 d0"), Loop.from_text("d1 d-1")}


def test_merge_with_no_standard_side():
    out = merge_loops(Loop.from_text("d1 d0 d0"), Loop.from_text("e* e*"))
    assert out == [Loop.from_text("e* e*")] * 3


def test_merge_loop_count_gcd(corpus):
    rng = random.Random(31)
    for _ in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        l1 = Loop.from_letters(
            [__import__("loopfloer").Letter("d", rng.randint(-2, 2)) for _ in range(m)]
        )
        l2 = Loop.from_letters(
            [__import__("loopfloer").Letter("d", rng.randint(-2, 2)) for _ in range(n)]
        )
        out = merge_loops(l1, l2)
        cb1, _ = euler_chars(l1)
        cb2, _ = euler_chars(l2)
        assert len(out) == math.gcd(abs(cb1), abs(cb2)) or (
            cb2 == 0 and len(out) == abs(cb1)
        )


def test_merge_mixed_families_grid():
    # stable pairs ride along, the unstable letters shift
    out = merge_loops(Loop.from_text("d2"), Loop.from_text("a1 b1 c-2"))
    assert out == [Loop.from_text("a1 b1 c-4")]
    out = merge_loops(Loop.from_text("d1"), Loop.from_text("a1 b1 c3"))
    assert out == [Loop.from_text("a1 b1 c2")]
    out = merge_loops(Loop.from_text("d1"), Loop.from_text("d3 b1 a1"))
    assert out == [Loop.from_text("d4 b1 a1")]


def test_cfd_poincare_chain():
    g1 = parse_tree("v 0 -2\nv 1 0\ne 0 1\nb 1\n")
    assert cfd(g1) == [Loop.from_text("d1 d0")]
    g2 = parse_tree("v 0 -3\nv 1 0\ne 0 1\nb 1\n")
    assert cfd(g2) == [Loop.from_text("d1 d0 d0")]
    g4 = parse_tree("v 0 0\nv 1 -2\nv 2 -3\ne 0 1\ne 0 2\nb 0\n")
    assert cfd(g4) == [Loop.from_text("d2 d0 d1 d1 d1 d0")]
    g6 = parse_tree(POINCARE + "b 0\n")
    loops = cfd(g6)
    assert loops == [
        Loop.from_text(
            "d2 d-1 d0 d0 d0 d0 d1 d-1 d0 d0 d1 d-1 d1 d-1 d0 d1 d0 d-1 d1 d-1 "
            "d1 d0 d0 d-1 d1 d0 d0 d0 d0 d-1"
        )
    ]


def test_cfd_gamma_n():
    loops = cfd(gamma_n_tree())
    assert set(loops) == {Loop.from_text("e* e*"), Loop.from_text("d*1 d*-1")}


def test_cfd_base_cases():
    assert cfd(parse_tree("v 0 0\nb 0\n")) == [Loop.from_text("e")]
    assert cfd(parse_tree("v 0 5\nb 0\n")) == [Loop.from_text("d5")]


def test_hf_examples(poincare_tree):
    assert hf_dim_closed(poincare_tree) == (1, True)
    assert hf_dim_closed(parse_tree("v 0 0\n")) == (2, False)
    assert hf_dim_closed(parse_tree("v 0 -1\n")) == (1, True)
    assert hf_dim_closed(parse_tree("v 0 5\n")) == (5, True)


def test_hf_fast_equals_fill_path(poincare_tree):
    rng = random.Random(32)
    trees = [poincare_tree] + [
        conftest_tree for conftest_tree in (all_good_closed_tree(rng, 6) for _ in range(6))
    ]
    for t in trees:
        # no tree here has a bad vertex, so the boundary goes where
        # hf_dim_closed puts it: the first vertex of highest valence
        adj = t.adjacency()
        attach = min(t.weights, key=lambda v: (-len(adj[v]), v))
        ref = fill(cfd(t.with_boundary(attach)), Slope(0, 1))
        assert hf_dim_closed(t) == (ref.dim, ref.is_lspace)
        assert ref.chi_abs == abs(plumbing_det(t))


def test_hf_rejects_two_bad_vertices():
    t = parse_tree("v 0 0\nv 1 0\nv 2 2\nv 3 -2\ne 0 1\ne 1 2\ne 1 3\n")
    with pytest.raises(PipelineError):
        hf_dim_closed(t)


def test_no_bad_vertex_trees_are_lspaces():
    rng = random.Random(33)
    for _ in range(25):
        t = all_good_closed_tree(rng, 8)
        dim, lspace = hf_dim_closed(t)
        assert lspace, format_tree(t)


def test_attachment_vertex_independence():
    rng = random.Random(34)
    for _ in range(10):
        t = all_good_closed_tree(rng, 7)
        dims = set()
        for v in t.weights:
            loops = cfd(t.with_boundary(v))
            dims.add(fill(loops, Slope(0, 1)).dim)
        assert len(dims) == 1, format_tree(t)


def test_cfd_outputs_are_simple():
    rng = random.Random(35)
    for _ in range(10):
        t = random_good_bounded_tree(rng, 5)
        for loop in cfd(t):
            assert is_simple(loop) == "yes", format_tree(t)


def test_good_vertex_sign_conclusions():
    rng = random.Random(36)
    checked = 0
    for _ in range(40):
        t = random_good_bounded_tree(rng, 5)
        adj = t.adjacency()
        v0 = t.boundary
        np_ = sum(1 for u in adj[v0] if t.weights[u] >= 0)
        nm = sum(1 for u in adj[v0] if t.weights[u] <= 0)
        w0 = t.weights[v0]
        loops = cfd(t)
        subs = [
            x.subscript
            for l in loops
            if not l.star
            for x in l.word.letters
        ]
        # reversal freedom: compare up to a global sign flip
        def all_ge(v, strict):
            pos = all(k > 0 if strict else k >= 0 for k in v)
            neg = all(k < 0 if strict else k <= 0 for k in v)
            return pos or neg

        if w0 > np_ or w0 < -nm:
            assert all_ge(subs, True), format_tree(t)
            checked += 1
        elif w0 == np_ or w0 == -nm:
            assert all_ge(subs, False), format_tree(t)
            checked += 1
    assert checked >= 10


def test_solid_torus_recognition_of_trees():
    # linear chains of good vertices are solid tori; the Poincare boundary is not
    chain = parse_tree("v 0 -2\nv 1 -2\nv 2 -3\ne 0 1\ne 1 2\nb 0\n")
    for loop in cfd(chain):
        assert solid_torus_like(loop)
    g6 = parse_tree(POINCARE + "b 0\n")
    assert not solid_torus_like(cfd(g6)[0])
    rng = random.Random(37)
    # random linear chains are framed solid tori
    for _ in range(8):
        n = rng.randint(1, 6)
        weights = {i: rng.randint(-4, -2) for i in range(n)}
        chain = PlumbingTree(weights, [(i, i + 1) for i in range(n - 1)], 0)
        for loop in cfd(chain):
            assert solid_torus_like(loop), format_tree(chain)
    # a Seifert piece with two genuine cone points is not a solid torus
    star = seifert_tree(-2, [(2, 1), (3, 2)])
    for loop in cfd(star):
        assert not solid_torus_like(loop)


def test_mobius_base_seifert_piece():
    """A Seifert piece over the Mobius band: a star with the 0/{+2,-2}
    chain attached at the centre.  The chain contributes the twisted-bundle
    components, twists fix them, and merging over the unstable legs copies
    them verbatim, so the invariant is a stack of those two loops."""
    text = (
        "v 0 -1\nv 1 -2\nv 2 -3\nv 4 0\nv 5 2\nv 6 -2\n"
        "e 0 1\ne 0 2\ne 0 4\ne 4 5\ne 4 6\nb 0\n"
    )
    loops = cfd(parse_tree(text))
    assert set(loops) == {Loop.from_text("a1 b1"), Loop.from_text("e* e*")}
    for loop in loops:
        assert is_simple(loop) == "yes"
    # merging riding-along stable loops copies them exactly
    assert merge_loops(Loop.from_text("d-1 d0 d0"), Loop.from_text("a1 b1")) == [
        Loop.from_text("a1 b1")
    ] * 3


def test_pipeline_fill_matches_oracle_medium():
    from loopfloer import fill_oracle

    g6 = parse_tree(POINCARE + "b 0\n")
    loops = cfd(g6)  # 30 letters
    for s in (Slope(0, 1), Slope(1, 0), Slope(-1, 1), Slope(2, 3)):
        fast = fill(loops, s)
        slow = fill_oracle(loops, s)
        assert (fast.dim, fast.chi_abs, fast.is_lspace) == (
            slow.dim,
            slow.chi_abs,
            slow.is_lspace,
        ), str(s)


def test_n_t_family():
    # the twisted interval bundle sits at t = 2
    assert n_t_tree(2).weights == {0: 0, 1: 0, 2: 2, 3: -2}
    with pytest.raises(TreeError):
        n_t_tree(1)
    for t in range(2, 7):
        loops = cfd(n_t_tree(t))
        assert len(loops) == t
        assert rational_longitude(loops) == Slope(1, 0)
        # every non-longitude slope fills to an L-space; dual fill has dim t^2
        res = fill(loops, Slope(0, 1))
        assert res.dim == t * t and res.is_lspace
        assert not fill(loops, Slope(1, 0)).is_lspace


def test_seifert_tree_structure():
    t = seifert_tree(-1, [(2, 1), (3, 1), (5, 1)])
    assert t.boundary == 0
    kinds = classify_vertices(t)
    assert all(kinds[v] == "good" for v in t.weights if v != 0)
    loops = cfd(t)
    assert all(is_simple(l) == "yes" for l in loops)
    with pytest.raises(TreeError):
        seifert_tree(0, [(2, 2)])


def test_staircase_loop_calibration():
    assert staircase_loop([1, 1], framing=-2, tau=-1) == Loop.from_text("a1 b1 c0")
    assert staircase_loop([1, 1], framing=0, tau=-1) == Loop.from_text("a1 b1 c-2")
    # the whole framing family for the left-handed trefoil
    for n in range(-3, 4):
        framing = -(2 + n)
        assert staircase_loop([1, 1], framing, tau=-1) == Loop.from_text(
            f"a1 b1 c{n}"
        )
    loop = staircase_loop([1, 1, 2, 1], framing=3, tau=2)
    assert is_simple(loop) == "yes"
    with pytest.raises(ValueError):
        staircase_loop([1], 0, 0)


def test_bareiss_det_matches_permutation_expansion():
    rng = random.Random(4)
    for _ in range(200):
        # weights near 0 make zero pivots and singular matrices common
        t = random_closed_tree(rng, max_vertices=6, weight_range=(-2, 2))
        n = len(t.weights)
        m = [[0] * n for _ in range(n)]
        for v, w in t.weights.items():
            m[v][v] = w
        for a, b in t.edges:
            m[a][b] = m[b][a] = 1
        want = 0
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
            want += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
        assert plumbing_det(t) == want, m
