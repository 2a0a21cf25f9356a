import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from loopfloer.algebra import (
    ChainComplexF2,
    DecoratedGraph,
    GraphError,
    IDENT,
    ZERO,
    grading,
    homology,
    is_lspace_complex,
    left_idem,
    multiply,
    _gf2_rank,
    reduce_graph,
    right_idem,
)
from conftest import _reference_homology, _reference_rank

ELEMENTS = ["i0", "i1", "1", "2", "3", "12", "23", "123"]

# independent transcription of the multiplication table: every nonzero
# product between non-idempotents, written out by hand
TABLE = {
    ("1", "2"): "12",
    ("2", "3"): "23",
    ("1", "23"): "123",
    ("12", "3"): "123",
}


def test_multiplication_table_exhaustive():
    for a, b in itertools.product(ELEMENTS, repeat=2):
        got = multiply(a, b)
        if a in ("i0", "i1") and b in ("i0", "i1"):
            want = a if a == b else ZERO
        elif a in ("i0", "i1"):
            want = b if left_idem(b) == a else ZERO
        elif b in ("i0", "i1"):
            want = a if right_idem(a) == b else ZERO
        else:
            want = TABLE.get((a, b), ZERO)
        assert got == want, (a, b, got, want)


def test_associativity_all_triples():
    for a, b, c in itertools.product(ELEMENTS + [ZERO], repeat=3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_idempotents_of_generators():
    assert (left_idem("1"), right_idem("1")) == ("i0", "i1")
    assert (left_idem("2"), right_idem("2")) == ("i1", "i0")
    assert (left_idem("3"), right_idem("3")) == ("i0", "i1")
    assert (left_idem("12"), right_idem("12")) == ("i0", "i0")
    assert (left_idem("23"), right_idem("23")) == ("i1", "i1")
    assert (left_idem("123"), right_idem("123")) == ("i0", "i1")


def test_grading_values():
    assert grading("1") == grading("3") == 0
    assert grading("2") == grading("12") == grading("23") == grading("123") == 1


def test_reduce_three_edge_segment():
    # u --rho2--> x <--id-- y --rho3--> v composes to a single rho23 edge
    g = DecoratedGraph()
    g.add_vertex("u", "1")
    g.add_vertex("x", "0")
    g.add_vertex("y", "0")
    g.add_vertex("v", "1")
    g.add_edge("u", "x", "2")
    g.add_edge("y", "x", IDENT)
    g.add_edge("y", "v", "3")
    r = reduce_graph(g)
    assert set(r.vertices) == {"u", "v"}
    assert r.edges == [("u", "v", "23")]


def test_reduce_deletes_zero_products():
    # rho3 then rho2 vanishes, so the composite edge disappears
    g = DecoratedGraph()
    g.add_vertex("u", "0")
    g.add_vertex("x", "1")
    g.add_vertex("y", "1")
    g.add_vertex("v", "0")
    g.add_edge("u", "x", "3")
    g.add_edge("y", "x", IDENT)
    g.add_edge("y", "v", "2")
    r = reduce_graph(g)
    assert set(r.vertices) == {"u", "v"}
    assert r.edges == []


def test_reduce_identity_free_graph_unchanged():
    g = DecoratedGraph()
    g.add_vertex("a", "0")
    g.add_vertex("b", "1")
    g.add_edge("a", "b", "3")
    r = reduce_graph(g)
    assert r.vertices == g.vertices and r.edges == g.edges


def test_kept_gradings_and_out_edges_follow_graph_edits():
    g = DecoratedGraph()
    g.add_vertex(0, "0")
    g.add_vertex(1, "1")
    g.add_edge(0, 1, "1")
    assert dict(g.gradings()) == {0: 0, 1: 1}
    assert g.out_edges() == {0: [(1, "1")], 1: []}
    with pytest.raises(TypeError):
        g.gradings()[1] = 0  # a read-only view of the kept grading
    g.add_vertex(2, "0")
    assert dict(g.gradings()) == {0: 0, 1: 1, 2: 0}
    assert g.out_edges() == {0: [(1, "1")], 1: [], 2: []}
    g.add_edge(1, 2, "2")
    assert dict(g.gradings()) == {0: 0, 1: 1, 2: 1}
    assert g.out_edges() == {0: [(1, "1")], 1: [(2, "2")], 2: []}


def test_reduce_confluent_on_loop_graphs(corpus):
    from loopfloer.loops import graph_to_words, word_to_graph
    from loopfloer.oracle import make_bounded

    rng = random.Random(6)
    for loop in corpus[:20]:
        g = make_bounded(word_to_graph(loop.word))
        first = reduce_graph(g)
        second = reduce_graph(g, choose=lambda idents: rng.choice(idents))
        for alphabet in ("standard", "dual"):
            try:
                w1 = graph_to_words(first, alphabet)
            except Exception:
                continue
            w2 = graph_to_words(second, alphabet)
            assert sorted(map(str, w1)) == sorted(map(str, w2))
            break


def test_homology_trivial_cases():
    c = ChainComplexF2.from_pairs([("x", 0, 0)], set())
    assert homology(c).total == 1
    c = ChainComplexF2.from_pairs([("x", 0, 0), ("y", 1, 0)], {("x", "y")})
    assert c == ChainComplexF2({0: ([0b10, 0], 1)})
    assert homology(c).total == 0


def test_homology_cancellation_invariance():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 12)
        gens = [(i, rng.randint(0, 1), 0) for i in range(n)]
        grs = {i: g for i, g, _ in gens}
        pairs = set()
        for _ in range(rng.randint(0, 2 * n)):
            s, t = rng.randrange(n), rng.randrange(n)
            if grs[t] == (grs[s] + 1) % 2 and s != t:
                pairs.add((s, t))
        c = ChainComplexF2.from_pairs(gens, pairs)
        try:
            c.check()
        except GraphError:
            continue
        base = homology(c)
        # cancel one differential pair by hand and recompute
        if not pairs:
            continue
        s0, t0 = sorted(pairs)[0]
        remaining = [i for i in range(n) if i not in (s0, t0)]
        ins = [u for (u, v) in pairs if v == t0 and u != s0]
        outs = [v for (u, v) in pairs if u == s0 and v != t0]
        new = {(u, v) for (u, v) in pairs if s0 not in (u, v) and t0 not in (u, v)}
        for u in ins:
            for v in outs:
                key = (u, v)
                new ^= {key}
        c2 = ChainComplexF2.from_pairs([(i, grs[i], 0) for i in remaining], new)
        c2.check()
        assert homology(c2).total == base.total


def test_is_lspace_complex_cases():
    one = ChainComplexF2.from_pairs([("x", 0, 0)], set())
    assert is_lspace_complex(one)
    two_opposite = ChainComplexF2.from_pairs([("x", 0, 0), ("y", 1, 0)], set())
    assert not is_lspace_complex(two_opposite)
    zero_h = ChainComplexF2.from_pairs([("x", 0, 0), ("y", 1, 0)], {("x", "y")})
    assert not is_lspace_complex(zero_h)
    # a bad component poisons the total even if another is fine
    mixed = ChainComplexF2.from_pairs([("x", 0, 0), ("u", 0, 1), ("v", 1, 1)], set())
    assert not is_lspace_complex(mixed)


def test_differential_must_flip_grading():
    with pytest.raises(GraphError, match="flip"):
        ChainComplexF2.from_pairs([("x", 0, 0), ("y", 0, 0)], {("x", "y")})
    with pytest.raises(GraphError, match="crosses"):
        ChainComplexF2.from_pairs([("x", 0, 0), ("y", 1, 1)], {("x", "y")})
    # rows that meet the mask of their own grading, or reach past the last
    # generator
    for rows, n0 in (([0b10, 0], 2), ([0, 0b11], 1), ([0b100, 0], 1)):
        with pytest.raises(GraphError, match="flip"):
            ChainComplexF2({0: (rows, n0)}).check()


def test_id_pairs_round_trip():
    gens = [("x", 0, "k"), ("y", 1, "k"), ("z", 1, "k"), ("u", 1, 2), ("v", 0, 2)]
    c = ChainComplexF2.from_pairs(gens, {("x", "y"), ("x", "z"), ("u", "v")})
    # each component numbers its grading 0 generators first, in list order
    assert c.components == {"k": ([0b110, 0, 0], 1), 2: ([0, 0b1], 1)}
    assert ChainComplexF2.from_pairs(c.generators, c.differential) == c
    assert len(c.generators) == 5 and len(c.differential) == 3


# dense pure-Python reference for the F2 rows: d^2 by matrix product; ranks
# and homology by row reduction of 0/1 lists are in conftest


def _reference_fault(c):
    generators, differential = c
    grs = {gid: g for gid, g, _ in generators}
    comps = {gid: k for gid, _, k in generators}
    if any(grs[s] == grs[t] or comps[s] != comps[t] for s, t in differential):
        return True
    index = {gid: i for i, (gid, _, _) in enumerate(generators)}
    n = len(index)
    d = [[0] * n for _ in range(n)]
    for s, t in differential:
        d[index[t]][index[s]] = 1
    return any(
        sum(d[i][k] * d[k][j] for k in range(n)) % 2 for i in range(n) for j in range(n)
    )


def _generators(draw):
    n = draw(st.integers(1, 8))
    return [(i, draw(st.integers(0, 1)), draw(st.integers(0, 1))) for i in range(n)]


@st.composite
def raw_complexes(draw):
    """Small complexes over at most two components.  Most pairs of the
    differential flip the grading within a component, so d^2 may or may not
    vanish; up to two arbitrary pairs may break the flip or cross components."""
    gens = _generators(draw)
    n = len(gens)
    allowed = [
        (s, t)
        for (s, gs, ks), (t, gt, kt) in itertools.product(gens, repeat=2)
        if gs != gt and ks == kt
    ]
    diff = set()
    if allowed:
        diff = draw(st.sets(st.sampled_from(allowed), max_size=2 * n))
    ids = st.integers(0, n - 1)
    diff |= draw(st.sets(st.tuples(ids, ids), max_size=2))
    return gens, diff


@st.composite
def closed_complexes(draw):
    """Complexes with d^2 = 0: cancelling pairs and free generators, in a
    basis changed by elementary moves that keep gradings and components."""
    gens = _generators(draw)
    n = len(gens)
    d = [[0] * n for _ in range(n)]  # d[t][s]: s -> t
    free = set(range(n))
    for s, gs, ks in gens:
        partners = [t for t, gt, kt in gens if t in free and gt != gs and kt == ks]
        if s in free and partners and draw(st.booleans()):
            t = draw(st.sampled_from(partners))
            d[t][s] = 1
            free -= {s, t}
    moves = [(i, j) for i, j in itertools.permutations(range(n), 2) if gens[i][1:] == gens[j][1:]]
    if moves:
        for i, j in draw(st.lists(st.sampled_from(moves), max_size=3 * n)):
            # conjugate by E = 1 + e_ij, its own inverse over F2
            d[i] = [a ^ b for a, b in zip(d[i], d[j])]
            for row in d:
                row[j] ^= row[i]
    diff = {(s, t) for t in range(n) for s in range(n) if d[t][s]}
    return gens, diff


@given(st.one_of(raw_complexes(), closed_complexes()))
@settings(max_examples=300, deadline=None)
def test_check_raises_exactly_on_a_reference_fault(c):
    if _reference_fault(c):
        with pytest.raises(GraphError):
            ChainComplexF2.from_pairs(*c).check()
    else:
        ChainComplexF2.from_pairs(*c).check()


@given(closed_complexes())
@settings(max_examples=300, deadline=None)
def test_homology_matches_dense_reference(c):
    assert not _reference_fault(c)
    want = _reference_homology(c)
    got = homology(ChainComplexF2.from_pairs(*c))
    assert got.per_component == want
    assert got.total == sum(dim for dim, _, _, _ in want.values())
    assert got.by_grading == (
        sum(h0 for _, h0, _, _ in want.values()),
        sum(h1 for _, _, h1, _ in want.values()),
    )


@given(st.lists(st.lists(st.integers(0, 1), min_size=12, max_size=12), max_size=16))
def test_gf2_rank_matches_dense_reference(rows):
    bitsets = [sum(b << i for i, b in enumerate(r)) for r in rows]
    assert _gf2_rank(bitsets) == _reference_rank(rows)
