import random
import sys
import time
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from loopfloer import (
    Loop,
    Slope,
    fill,
    fill_oracle,
    make_bounded,
    pair_is_lspace,
    to_type_a,
)
from loopfloer import oracle
from loopfloer.algebra import ChainComplexF2, DecoratedGraph, IDENT, GraphError, homology, reduce_graph
from loopfloer.detection import stern_brocot_slopes
from loopfloer.loops import graph_to_words, word_to_graph
from loopfloer.oracle import (
    TypeAStructure,
    _RELABEL,
    _Trie,
    _reparametrized_word,
    _solid_torus_module,
    box_tensor,
    label_path_trie,
    pair_complex,
)
from loopfloer.twists import reparametrization_word
from conftest import _reference_homology, loops, small_slopes


# -- references: the whole-string type A walk and a brute-force box tensor


def _parse_runs(digits):
    """Split a digit string into maximal increasing runs of consecutive
    digits; each run is one torus-algebra element."""
    runs = []
    cur = digits[0]
    for d in digits[1:]:
        if ord(d) == ord(cur[-1]) + 1:
            cur += d
        else:
            runs.append(cur)
            cur = d
    runs.append(cur)
    return tuple(runs)


_COMPLETIONS = {
    "1": ("1", "12", "123"),
    "2": ("2", "23"),
    "3": ("3",),
    "12": ("12", "123"),
    "23": ("23",),
    "123": ("123",),
}


def _prefix_alive(digits, trie):
    """Whether some extension of the digit string can parse into a label
    sequence present in the trie."""
    if trie is None:
        return True
    tokens = _parse_runs(digits)
    node = trie
    for tok in tokens[:-1]:
        node = node.children.get(tok)
        if node is None:
            return False
    return any(c in node.children for c in _COMPLETIONS[tokens[-1]])


def _module(gens, operations):
    """A TypeAStructure from target sets keyed by (source, inputs)."""
    root = _Trie()
    for (src, inputs), targets in operations.items():
        node = root
        for a in inputs:
            node = node.child(a)
        node.ops.update((src, t) for t in targets)
    return TypeAStructure(gens, root)


def _reference_type_a(g, max_len, match_trie=None):
    """to_type_a by re-reading each walk's whole digit string at every step."""
    gr = g.gradings()
    gens = {v: (idem, (gr[v] + (1 if idem == "0" else 0)) % 2) for v, idem in g.vertices.items()}
    outs = {v: [] for v in g.vertices}
    for s, t, label in g.edges:
        outs[s].append((t, _RELABEL[label]))
    ops = Counter()
    for start in g.vertices:
        stack = [(start, "")]
        while stack:
            v, digits = stack.pop()
            if digits:
                inputs = _parse_runs(digits)
                if len(inputs) <= max_len:
                    ops[(start, inputs, v)] += 1
            for t, lab in outs[v]:
                nd = digits + lab
                if len(nd) <= 3 * max_len and _prefix_alive(nd, match_trie):
                    stack.append((t, nd))
    operations = {}
    for (src, inputs, tgt), count in ops.items():
        if count % 2:
            operations.setdefault((src, inputs), set()).add(tgt)
    return _module(gens, operations)


def _reference_box_tensor(a, d, component=0):
    """box_tensor by brute force: every generator x (x) y, every directed
    label path from y, and every operation of x with those inputs."""
    gr_d = d.gradings()
    generators = [((x, y), (gx + gr_d[y]) % 2, component)
                  for x, (ix, gx) in a.generators.items()
                  for y, iy in d.vertices.items() if ix == iy]
    diff = Counter()
    for s, t, label in d.edges:
        if label is IDENT:
            for x, (ix, _) in a.generators.items():
                if ix == d.vertices[s]:
                    diff[((x, s), (x, t))] += 1
    labelled = [(s, t, label) for s, t, label in d.edges if label is not IDENT]
    for (x, y), _, _ in generators:
        stack = [(y, ())]
        while stack:
            v, labels = stack.pop()
            for x2 in a.operations.get((x, labels), ()):
                diff[((x, y), (x2, v))] += 1
            stack += [(t, labels + (label,)) for s, t, label in labelled if s == v]
    return generators, {e for e, n in diff.items() if n % 2}


@st.composite
def oracle_loops(draw, max_len=12):
    """Random loops of 1..max_len letters, all-e and all-e* words among them."""
    kind = draw(st.sampled_from(["standard", "dual", "e", "e*"]))
    if kind in ("e", "e*"):
        return Loop.from_text(" ".join([kind] * draw(st.integers(1, max_len))))
    return draw(loops(max_len=max_len, star=kind == "dual"))


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
        assert b.sort_topologically()
        r = reduce_graph(b)
        back = graph_to_words(r, "dual" if Loop.from_text(text).star else "standard")
        total = sum(len(w) for w in back)
        assert total == len(Loop.from_text(text).word)


@settings(max_examples=200, deadline=None)
@given(oracle_loops())
def test_make_bounded_splits_at_most_once(l):
    g = word_to_graph(l.word)
    b = make_bounded(g)
    assert len(b.vertices) <= len(g.vertices) + 2
    assert b.sort_topologically()
    (back,) = graph_to_words(reduce_graph(b), "dual" if l.star else "standard")
    assert Loop(back) == l


def test_make_bounded_rejects_graphs_one_split_cannot_bound():
    # two rho12 self-loops: one split leaves the other directed cycle
    g = DecoratedGraph()
    g.add_vertex(0, "0")
    g.add_vertex(1, "0")
    g.add_edge(0, 0, "12")
    g.add_edge(1, 1, "12")
    with pytest.raises(GraphError, match="leaves a directed cycle"):
        make_bounded(g)
    # a rho1, rho2 cycle has no edge to split
    g = DecoratedGraph()
    g.add_vertex(0, "0")
    g.add_vertex(1, "1")
    g.add_edge(0, 1, "1")
    g.add_edge(1, 0, "2")
    with pytest.raises(GraphError, match="without a splittable edge"):
        make_bounded(g)


def test_make_bounded_acyclic_unchanged():
    g = word_to_graph(Loop.from_text("a1 b1 c-2").word)
    # the trefoil graph has a backwards arrow, so it is already bounded
    assert g.sort_topologically()
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
        n1, n2 = len(h.vertices), len(h.vertices) + 1  # ints, like the graph's own ids
        h.add_vertex(n1, idem)
        h.add_vertex(n2, idem)
        h.add_edge(src, n1, first)
        h.add_edge(n2, n1, IDENT)
        h.add_edge(n2, tgt, second)
        if h.sort_topologically():
            out.append(h)
    return out


def test_bounded_edge_choice_invariance(corpus):
    from loopfloer.oracle import box_tensor

    checked = 0
    base_a = word_to_graph(Loop.from_text("e").word)
    for loop in corpus:
        g = word_to_graph(loop.word)
        if g.sort_topologically():
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


def test_bounded_graphs_are_sorted_once(monkeypatch):
    """Past make_bounded, fill_oracle and pair_complex sort no graph
    topologically: the bounded graph keeps the order of its last test."""
    kahn = DecoratedGraph._topological_order
    inside = []
    sorts = {"inside": 0, "after": 0}

    def counted(g):
        sorts["inside" if inside else "after"] += 1
        return kahn(g)

    def bounded(g):
        inside.append(g)
        try:
            return make_bounded(g)
        finally:
            inside.pop()

    monkeypatch.setattr(DecoratedGraph, "_topological_order", counted)
    monkeypatch.setattr(oracle, "make_bounded", bounded)
    for text in ("e", "e*", "d3", "a1 b1 c-2", "a-2 d-3 d-2 e d1 b-3"):
        for s in (Slope(1, 0), Slope(0, 1), Slope(-3, 2), Slope(5, 7)):
            fill_oracle(Loop.from_text(text), s)
    big = [Loop.from_text("a-2 d-3 d-2 e d1 b-3"), Loop.from_text("d3")]
    pair_complex(big, [Loop.from_text("e"), Loop.from_text("a1 b1 c-2")])
    pair_complex([Loop.from_text("e")], big)
    assert sorts["inside"] > 0 and sorts["after"] == 0


def test_pairings_read_only_the_trie(monkeypatch):
    """pair_complex and fill_oracle read type A modules through their tries,
    never through the operations view."""

    def unread(self):
        raise AssertionError("TypeAStructure.operations was read")

    monkeypatch.setattr(TypeAStructure, "operations", property(unread))
    monkeypatch.setattr(oracle, "_SOLID_TORUS_CACHE", {})
    for text in ("e", "e*", "d3", "a1 b1 c-2", "a-2 d-3 d-2 e d1 b-3"):
        for s in (Slope(1, 0), Slope(0, 1), Slope(-3, 2), Slope(5, 7)):
            fill_oracle(Loop.from_text(text), s)
    big = [Loop.from_text("a-2 d-3 d-2 e d1 b-3"), Loop.from_text("d3")]
    pair_complex(big, [Loop.from_text("e"), Loop.from_text("a1 b1 c-2")])
    pair_complex([Loop.from_text("e")], big)


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


@pytest.mark.parametrize("length", [4, 8, 16, 32, 64, 128, 256, 512, 2048])
def test_solid_torus_closed_form_matches_walks(length):
    walked = to_type_a(word_to_graph(Loop.from_text("e").word), max_len=length)
    assert _solid_torus_module(length) == walked


def test_type_a_check_rejects_bad_operations():
    x, u, v = ("x",), ("u",), ("v",)
    gens = {x: ("0", 1), u: ("1", 1), v: ("1", 0)}
    good = {(x, ("3",)): {u}}  # every bad case below shares its prefix
    _module(gens, good).check()
    bad = [
        ({(x, ("3", "3")): {u}}, "idempotent mismatch"),
        ({(x, ("3", "2")): {u}}, "target idempotent mismatch"),
        ({(x, ("3", "23")): {v}}, "grading rule"),
        ({(x, ()): {u}}, "empty input"),
    ]
    for ops, reason in bad:
        with pytest.raises(GraphError, match=reason):
            _module(gens, {**good, **ops}).check()


@settings(max_examples=30, deadline=None)
@given(oracle_loops())
def test_oracle_chain_word_is_the_reparametrization(l):
    for s in stern_brocot_slopes(6):
        assert Loop(_reparametrized_word(l, s)) == reparametrization_word(s).apply(l), str(s)


@settings(max_examples=150, deadline=None)
@given(oracle_loops(), oracle_loops(), st.integers(1, 10), st.booleans())
def test_to_type_a_matches_whole_string_walk(l, other, max_len, with_trie):
    g = word_to_graph(l.word)
    trie = label_path_trie(make_bounded(word_to_graph(other.word))) if with_trie else None
    assert to_type_a(g, max_len, trie) == _reference_type_a(g, max_len, trie)


@settings(max_examples=150, deadline=None)
@given(oracle_loops(8), oracle_loops(8))
def test_box_tensor_matches_brute_force(l1, l2):
    d = make_bounded(word_to_graph(l2.word))
    a = to_type_a(word_to_graph(l1.word), max_len=d.longest_path_edges())
    cpx = box_tensor(a, d, component=7)
    # the reference numbered by the same rule, so the whole of d is compared
    assert cpx == ChainComplexF2.from_pairs(*_reference_box_tensor(a, d, component=7))


@settings(max_examples=40, deadline=None)
@given(oracle_loops(6), oracle_loops(6))
def test_flipping_one_bit_of_a_box_tensor_row_fails_the_check(l1, l2):
    """Toggling target j in row i of a valid complex breaks the check when
    j has the grading of i (the flip test), or when d of j is nonzero: d^2
    of i then changes by d of j."""
    d = make_bounded(word_to_graph(l2.word))
    a = to_type_a(word_to_graph(l1.word), max_len=d.longest_path_edges())
    ((rows, n0),) = box_tensor(a, d).components.values()
    for i in range(len(rows)):
        for j in range(len(rows)):
            same = (i < n0) == (j < n0)
            if not (same or rows[j]):
                continue
            bad = list(rows)
            bad[i] ^= 1 << j
            with pytest.raises(GraphError, match="flip" if same else "square"):
                ChainComplexF2({0: (bad, n0)}).check()


@settings(max_examples=60, deadline=None)
@given(st.lists(oracle_loops(6), min_size=1, max_size=3),
       st.lists(oracle_loops(6), min_size=1, max_size=3))
def test_pairing_homology_matches_brute_force(loops1, loops2):
    """The homology of a whole pairing, every component at once, against the
    brute-force box tensor of every loop pair and dense ranks."""
    generators, differential = [], set()
    for i, l1 in enumerate(loops1):
        for j, l2 in enumerate(loops2):
            d = make_bounded(word_to_graph(l2.word))
            a = _reference_type_a(word_to_graph(l1.word), d.longest_path_edges())
            gens, diff = _reference_box_tensor(a, d, component=(i, j))
            generators += [((i, j, gid), g, comp) for gid, g, comp in gens]
            differential |= {((i, j, s), (i, j, t)) for s, t in diff}
    got = homology(pair_complex(loops1, loops2)).per_component
    assert got == _reference_homology((generators, differential))
