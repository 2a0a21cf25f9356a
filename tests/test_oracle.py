import random
import sys
import time

from loopfloer import (
    Loop,
    Slope,
    fill,
    fill_oracle,
    make_bounded,
    pair_is_lspace,
    to_type_a,
)
from loopfloer.algebra import DecoratedGraph, IDENT, homology, reduce_graph
from loopfloer.loops import graph_to_words, word_to_graph
from loopfloer.oracle import _parse_runs, pair_complex
from conftest import small_slopes


def test_parse_runs():
    assert _parse_runs("3232") == ("3", "23", "2")
    assert _parse_runs("121") == ("12", "1")
    assert _parse_runs("321") == ("3", "2", "1")
    assert _parse_runs("123") == ("123",)
    assert _parse_runs("2121") == ("2", "12", "1")


def _sample_graph():
    """One i0 generator with arrows to two i1 generators joined by rho23."""
    g = DecoratedGraph()
    g.add_vertex("x", "0")
    g.add_vertex("u", "1")
    g.add_vertex("v", "1")
    g.add_edge("x", "u", "1")
    g.add_edge("x", "v", "3")
    g.add_edge("v", "u", "23")
    return g


def test_to_type_a_sample_graph():
    a = to_type_a(_sample_graph(), max_len=4)
    ops = {(src, inputs): tgts for (src, inputs), tgts in a.operations.items()}
    assert ops[("x", ("3",))] == {"u"}
    assert ops[("x", ("1",))] == {"v"}
    assert ops[("v", ("2", "1"))] == {"u"}
    # the length-two path picks up a merged rho12 input; its final input is
    # rho1 (the idempotent-consistent form)
    assert ops[("x", ("12", "1"))] == {"u"}
    assert ("x", ("12", "2")) not in ops


def test_standard_solid_torus_module():
    a = to_type_a(word_to_graph(Loop.from_text("e").word), max_len=5)
    inputs = sorted(i for (_, i) in a.operations)
    assert inputs == [
        ("3", "2"),
        ("3", "23", "2"),
        ("3", "23", "23", "2"),
        ("3", "23", "23", "23", "2"),
    ]


def test_dual_solid_torus_module():
    a = to_type_a(word_to_graph(Loop.from_text("e*").word), max_len=5)
    inputs = sorted(i for (_, i) in a.operations)
    assert inputs == [
        ("2", "1"),
        ("2", "12", "1"),
        ("2", "12", "12", "1"),
        ("2", "12", "12", "12", "1"),
    ]


def test_make_bounded_examples():
    for text in ("e", "e e", "e* e*", "d3", "a1 b1 c-2"):
        g = word_to_graph(Loop.from_text(text).word)
        b = make_bounded(g)
        assert not b.has_directed_cycle()
        r = reduce_graph(b)
        back = graph_to_words(r, "dual" if Loop.from_text(text).star else "standard")
        total = sum(len(w) for w in back)
        assert total == len(Loop.from_text(text).word)


def test_make_bounded_acyclic_unchanged():
    g = word_to_graph(Loop.from_text("a1 b1 c-2").word)
    # the trefoil graph has a backwards arrow, so it is already bounded
    assert not g.has_directed_cycle()
    assert make_bounded(g).edges == g.edges


def test_box_tensor_trefoil_fillings():
    tre = Loop.from_text("a1 b1 c-2")
    cpx = pair_complex(Loop.from_text("e"), tre)
    assert len(cpx.generators) == 3
    assert len(cpx.differential) == 1
    assert homology(cpx).total == 1
    cpx = pair_complex(Loop.from_text("e*"), tre)
    assert len(cpx.generators) == 4
    assert homology(cpx).total == 2


def test_box_tensor_vanishing_homology():
    cpx = pair_complex(Loop.from_text("e"), Loop.from_text("a1 b1 a-1 b-1"))
    assert homology(cpx).total == 0
    assert not pair_is_lspace(Loop.from_text("e"), Loop.from_text("a1 b1 a-1 b-1"))


def test_pairing_decisions():
    e = Loop.from_text("e")
    estar = Loop.from_text("e*")
    # gluing two standard solid tori meridian-to-longitude gives dim 1;
    # the meridian-to-meridian pairing comes from the dual/standard pair
    assert pair_is_lspace(e, e)
    assert pair_is_lspace(Loop.from_text("d1"), e)
    assert not pair_is_lspace(estar, e)
    res = pair_complex(estar, e)
    h = homology(res)
    assert h.total == 2 and list(h.per_component.values())[0][3] == 0


def test_fill_oracle_agrees_with_fast_path(corpus):
    rng = random.Random(9)
    slopes = small_slopes(2)
    for loop in corpus[:25]:
        for s in rng.sample(slopes, 5):
            fast = fill(loop, s)
            slow = fill_oracle(loop, s)
            assert (fast.dim, fast.chi_abs, fast.is_lspace) == (
                slow.dim,
                slow.chi_abs,
                slow.is_lspace,
            ), (str(loop), str(s))


def test_fill_oracle_on_long_reparametrizations():
    # these reparametrize to 715 and 844 letters: the graph walks of the
    # oracle must not recurse once per edge
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for text, slope in (
            ("c-3 c-2 c-2", Slope(89, 64)),
            ("a-2 d-3 d-2 e d1 b-3", Slope(-31, 80)),
        ):
            loop = Loop.from_text(text)
            assert fill_oracle(loop, slope) == fill(loop, slope), (text, str(slope))
    finally:
        sys.setrecursionlimit(limit)


def test_seifert_237_self_pairing():
    from loopfloer import cfd, seifert_tree

    loops = cfd(seifert_tree(-1, [(2, 1), (3, 1), (7, 1)]))
    assert sum(len(l) for l in loops) == 42
    t0 = time.perf_counter()
    cpx = pair_complex(loops, loops)
    h = homology(cpx)
    elapsed = time.perf_counter() - t0
    assert len(cpx.generators) == 2293
    assert (h.total, h.by_grading) == (1765, (1, 1764))
    # a dense d^2 check took 27 s here
    assert elapsed < 5.0


_SPLIT_RULES = {"12": ("1", "2", "1"), "123": ("1", "23", "1"), "23": ("2", "3", "0")}


def _bounded_variants(g):
    """Every one-edge split that already bounds the graph."""
    out = []
    for i, (src, tgt, label) in enumerate(g.edges):
        if label not in _SPLIT_RULES:
            continue
        first, second, idem = _SPLIT_RULES[label]
        h = g.copy()
        del h.edges[i]
        n1, n2 = ("alt", i, 0), ("alt", i, 1)
        h.add_vertex(n1, idem)
        h.add_vertex(n2, idem)
        h.add_edge(src, n1, first)
        h.add_edge(n2, n1, IDENT)
        h.add_edge(n2, tgt, second)
        if not h.has_directed_cycle():
            out.append(h)
    return out


def test_bounded_edge_choice_invariance(corpus):
    from loopfloer.oracle import box_tensor

    checked = 0
    base_a = word_to_graph(Loop.from_text("e").word)
    for loop in corpus:
        g = word_to_graph(loop.word)
        if not g.has_directed_cycle():
            continue
        variants = _bounded_variants(g)
        if len(variants) < 2:
            continue
        dims = set()
        for h in variants[:3]:
            a = to_type_a(base_a, max_len=h.longest_path_edges())
            dims.add(homology(box_tensor(a, h)).total)
        assert len(dims) == 1, str(loop)
        checked += 1
    assert checked >= 5


def test_pair_components_are_per_loop_pairs():
    loops1 = [Loop.from_text("e"), Loop.from_text("d1")]
    loops2 = [Loop.from_text("e")]
    cpx = pair_complex(loops1, loops2)
    comps = {c for _, _, c in cpx.generators}
    assert comps == {(0, 0), (1, 0)}


def test_slope_trick_invariance(corpus):
    from loopfloer.twists import twist

    pairs = [
        (Loop.from_text("e"), Loop.from_text("a1 b1 c-2")),
        (Loop.from_text("d1"), Loop.from_text("e")),
        (Loop.from_text("a1 b1"), Loop.from_text("d1 d0")),
    ]
    for l1, l2 in pairs:
        base = pair_is_lspace(l1, l2)
        for n in (1, -1, 2):
            assert pair_is_lspace(twist(l1, "tw", n), twist(l2, "du", n)) == base
