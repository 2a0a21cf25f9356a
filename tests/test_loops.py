import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from loopfloer import Loop, Slope, euler_chars, mirror, rational_longitude
from loopfloer.loops import (
    Letter,
    LoopWord,
    NotExpressible,
    WordError,
    _emit_dual,
    _emit_standard,
    _other_letters,
    _recognize,
    canonicalize,
    dual_word,
    graph_to_words,
    parse_loops,
    parse_word,
    unstable_subscripts,
    word_in,
    word_to_graph,
    word_violations,
)
from loopfloer.twists import ex, shift_cd


def test_parse_and_format_roundtrip():
    for text in ["a1 b1 c-2", "e", "e*", "d*1 d*0 d*0", "c0 c0", "a-3 b2 a1 b-1"]:
        w = parse_word(text)
        assert parse_word(str(w)) == w


def test_parse_rejects_bad_tokens():
    with pytest.raises(WordError):
        parse_word("a0")
    with pytest.raises(WordError):
        parse_word("b0")
    with pytest.raises(WordError):
        parse_word("e2")
    with pytest.raises(WordError):
        parse_word("q1")
    with pytest.raises(WordError):
        parse_word("a1 b*1")  # mixed alphabets


def test_e_aliases():
    assert parse_word("e").letters == (Letter("d", 0),)
    assert parse_word("e*").letters == (Letter("d", 0, True),)


def test_validate_examples():
    assert not word_violations((Letter("c", 1),))
    assert word_violations((Letter("a", 1),))
    assert not word_violations(parse_word("a1 b1 c-2").letters)
    assert word_violations(parse_word("d3").letters) == []


def test_canonicalize_rotation_and_reversal():
    a = Loop.from_text("e d1")
    b = Loop.from_text("d1 e")
    assert a == b
    # reversal of the trefoil word letter by letter
    assert Loop.from_text("a1 b1 c-2") == Loop.from_text("d2 b-1 a-1")
    assert Loop.from_text("d3") == Loop.from_text("c-3")
    # canonicalize is idempotent
    w = parse_word("d2 b-1 a-1")
    assert canonicalize(canonicalize(w)) == canonicalize(w)


def test_word_graph_roundtrip(corpus):
    for loop in corpus:
        g = word_to_graph(loop.word)
        back = graph_to_words(g, "dual" if loop.star else "standard")
        assert len(back) == 1
        assert canonicalize(back[0]) == loop.word


def test_trefoil_graph_shape():
    g = word_to_graph(parse_word("a1 b1 c-2"))
    assert len(g.vertices) == 7
    idems = sorted(g.vertices.values())
    assert idems.count("0") == 3 and idems.count("1") == 4


def test_single_e_graph():
    g = word_to_graph(parse_word("e"))
    assert len(g.vertices) == 1
    assert g.edges[0][2] == "12"


def test_dualize_examples():
    # loops compare equal across alphabets, so these exercise the converter
    assert Loop.from_text("a1 b1 c-2") == Loop.from_text("a*1 e* b*1 c*-1")
    assert Loop.from_text("d3") == Loop.from_text("d*1 d*0 d*0")
    assert Loop.from_text("a1 b1") == Loop.from_text("d*1 d*-1")
    # and the word views give the expected dual words
    dw = word_in(Loop.from_text("d3"), "dual")
    assert canonicalize(dw) == canonicalize(parse_word("d*1 d*0 d*0"))


def test_dualize_rejects_single_idempotent():
    with pytest.raises(NotExpressible):
        dual_word(Loop.from_text("e"))
    with pytest.raises(NotExpressible):
        dual_word(Loop.from_text("e* e*"))
    assert Loop(dual_word(Loop.from_text("d3"))) == Loop.from_text("d3")


def test_dual_word_involution(corpus):
    for loop in corpus:
        try:
            dw = dual_word(loop)
        except NotExpressible:
            continue
        assert Loop(dw) == loop


def test_dual_stable_chain_observation(corpus):
    # dual stable chains <-> adjacent nonzero subscripts of opposite sign
    for loop in corpus:
        try:
            std = word_in(loop, "standard")
            dual = word_in(loop, "dual")
        except NotExpressible:
            continue
        subs = [x.subscript for x in std.letters if x.subscript != 0]
        opposite = any(
            subs[i] * subs[(i + 1) % len(subs)] < 0 for i in range(len(subs))
        ) if subs else False
        has_dual_stable = any(x.family in "ab" for x in dual.letters)
        assert opposite == has_dual_stable, str(loop)


def test_euler_characteristics():
    assert euler_chars(Loop.from_text("d-4 d-3")) == (2, -7)
    cb, cc = euler_chars(Loop.from_text("e* e*"))
    assert (cb, abs(cc)) == (0, 2)
    cb, cc = euler_chars(Loop.from_text("a1 b1"))
    assert (abs(cb), abs(cc)) == (0, 2)
    # all-d loops: chi_bullet counts letters, chi_circle sums subscripts
    assert euler_chars(Loop.from_text("d1 d0 d0")) == (3, 1)


def test_rational_longitude():
    assert rational_longitude(Loop.from_text("d-4 d-3")) == Slope(7, 2)
    assert rational_longitude(Loop.from_text("e e e")) == Slope(0, 1)
    assert rational_longitude(Loop.from_text("e* e*")) == Slope(1, 0)
    assert rational_longitude(Loop.from_text("a1 b1 a-1 b-1")) is None
    assert rational_longitude(Loop.from_text("a1 b1 c-2")) == Slope(0, 1)


def test_grading_examples():
    # endpoints of an all-d chain share their grading
    g = word_to_graph(Loop.from_text("d3").word)
    gradings = g.gradings()
    bullets = [v for v, idem in g.vertices.items() if idem == "0"]
    assert len({gradings[v] for v in bullets}) == 1
    # the two i0 generators of (a1 b1) have opposite gradings
    g = word_to_graph(Loop.from_text("a1 b1").word)
    gradings = g.gradings()
    bullets = [v for v, idem in g.vertices.items() if idem == "0"]
    assert {gradings[v] for v in bullets} == {0, 1}


def test_mirror_is_involution(corpus):
    for loop in corpus:
        assert mirror(mirror(loop)) == loop


def test_parse_loops_multi_and_comments():
    loops = parse_loops("# comment\n(e e) | a1 b1 # tail\n")
    assert loops == [Loop.from_text("e e"), Loop.from_text("a1 b1")]
    with pytest.raises(WordError):
        parse_loops("# nothing")


def test_textual_dual_rule_cross_check(corpus):
    """The letter-level rewriting rule, with the zero-letter count fixed to
    |k|-1 copies (d*0 after unbarred letters, c*0 after barred ones), agrees
    with the graph conversion."""
    table = {
        # pair of neighbour types -> dual letter type (family, barred?)
        ("abar", "b"): ("a", False), ("abar", "d"): ("a", False),
        ("cbar", "b"): ("a", False), ("cbar", "d"): ("a", False),
        ("bbar", "a"): ("a", True), ("bbar", "c"): ("a", True),
        ("dbar", "a"): ("a", True), ("dbar", "c"): ("a", True),
        ("a", "bbar"): ("b", False), ("a", "cbar"): ("b", False),
        ("d", "bbar"): ("b", False), ("d", "cbar"): ("b", False),
        ("b", "abar"): ("b", True), ("b", "dbar"): ("b", True),
        ("c", "abar"): ("b", True), ("c", "dbar"): ("b", True),
        ("abar", "bbar"): ("c", False), ("abar", "cbar"): ("c", False),
        ("cbar", "bbar"): ("c", False), ("cbar", "cbar"): ("c", False),
        ("b", "a"): ("c", True), ("b", "c"): ("c", True),
        ("c", "a"): ("c", True), ("c", "c"): ("c", True),
        ("a", "b"): ("d", False), ("a", "d"): ("d", False),
        ("d", "b"): ("d", False), ("d", "d"): ("d", False),
        ("bbar", "abar"): ("d", True), ("bbar", "dbar"): ("d", True),
        ("dbar", "abar"): ("d", True), ("dbar", "dbar"): ("d", True),
    }

    def letter_type(x):
        if x.subscript > 0:
            return x.family
        if x.family == "c":
            return "dbar"
        if x.family == "d":
            return "cbar"
        return x.family + "bar"

    def textual_dual(word):
        us = [(i, x) for i, x in enumerate(word.letters) if x.subscript != 0]
        if not us:
            return None
        n = len(word)
        out = []
        for idx, (i, x) in enumerate(us):
            j, y = us[(idx + 1) % len(us)]
            # zero letters inside x itself
            zero_fam = "d" if x.subscript > 0 else "c"
            out += [Letter(zero_fam, 0, True)] * (abs(x.subscript) - 1)
            gap = (j - i - 1) % n
            fam, barred = table[(letter_type(x), letter_type(y))]
            sub = gap + 1
            if barred:  # bars swap the c and d families and negate
                fam = {"a": "a", "b": "b", "c": "d", "d": "c"}[fam]
                sub = -sub
            out.append(Letter(fam, sub, True))
        return out

    checked = 0
    for loop in corpus:
        try:
            std = word_in(loop, "standard")
            dual = word_in(loop, "dual")
        except NotExpressible:
            continue
        letters = textual_dual(std)
        if letters is None:
            continue
        assert canonicalize(LoopWord(letters)) == canonicalize(dual), str(loop)
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# the step transducer against the graph route

# After a letter the next one must start in a given puzzle-piece class: c and
# d keep it, a and b switch it (a only from class 2, b only from class 1), so
# a word that switches an even number of times closes up with as many a as b.
_KEEP = {1: "d", 2: "c"}
_SWITCH = {1: "b", 2: "a"}


@st.composite
def words(draw, max_len=12, max_sub=5):
    """Valid words in either alphabet, all-e and all-e* words included."""
    star = draw(st.booleans())
    n = draw(st.integers(1, max_len))
    if draw(st.integers(0, 7)) == 0:
        return LoopWord([Letter("d", 0, star)] * n)
    switches = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if sum(switches) % 2:
        switches[switches.index(True)] = False
    cls = draw(st.sampled_from([1, 2]))
    letters = []
    for switch in switches:
        fam = _SWITCH[cls] if switch else _KEEP[cls]
        if switch:
            cls = 3 - cls
            sub = draw(st.integers(-max_sub, max_sub).filter(bool))
        else:
            sub = draw(st.integers(-max_sub, max_sub))
        letters.append(Letter(fam, sub, star))
    return LoopWord(letters)


@st.composite
def unstable_words(draw, max_len=8, max_sub=5):
    """All-c or all-d words in either alphabet."""
    fam = draw(st.sampled_from("cd"))
    star = draw(st.booleans())
    subs = draw(st.lists(st.integers(-max_sub, max_sub), min_size=1, max_size=max_len))
    return LoopWord([Letter(fam, k, star) for k in subs])


def _segment_steps(letter):
    """The (label, direction) steps of the letter's segment as the emitters
    write it, walked from its start anchor 0 to its end anchor 1."""
    edges = []
    (_emit_dual if letter.star else _emit_standard)(edges, letter, 0, 1, 2)
    steps, v = [], 0
    while v != 1:
        s, t, label = edges.pop(next(i for i, e in enumerate(edges) if v in e[:2]))
        steps.append((label, 1 if s == v else -1))
        v = t if s == v else s
    assert not edges
    return steps


@pytest.mark.parametrize("star", [False, True])
def test_recognize_inverts_the_emitters(star):
    for fam in "abcd":
        for k in range(-3, 4):
            if fam in "ab" and k == 0:
                continue
            letter = Letter(fam, k, star)
            assert _recognize(_segment_steps(letter), star) == letter, str(letter)


@pytest.mark.parametrize("chunk,star", [
    ([], False),
    ([("3", 1), ("23", 1), ("23", -1), ("2", 1)], False),  # mixed middle steps
    ([("2", 1), ("12", -1), ("12", 1), ("123", 1)], True),
    ([("3", 1), ("12", 1), ("2", 1)], False),  # the other alphabet's middle step
    ([("3", 1)], False),  # one step that is not the zero letter's
    ([("12", 1)], True),
    ([("3", 1), ("2", 1)], True),  # an a1 of the other alphabet
    ([("3", 1), ("23", 1), ("3", 1)], False),  # ends in no letter
    ([("123", 1), ("1", 1)], False),
])
def test_recognize_rejects_malformed_chunks(chunk, star):
    with pytest.raises(WordError):
        _recognize(chunk, star)


def _graph_word(w, alphabet):
    try:
        return canonicalize(graph_to_words(word_to_graph(w), alphabet)[0])
    except NotExpressible:
        return None


def _graph_chis(w):
    g = word_to_graph(w)
    gradings = g.gradings()
    chi = {"0": 0, "1": 0}
    for v, idem in g.vertices.items():
        chi[idem] += 1 if gradings[v] == 0 else -1
    return chi["0"], chi["1"]


@settings(max_examples=400, deadline=None)
@given(words())
def test_transducer_matches_graph_route(w):
    l = Loop(w)
    other = "standard" if w.star else "dual"
    try:
        got = word_in(l, other)
    except NotExpressible:
        got = None
    assert got == _graph_word(w, other)
    assert euler_chars(l) == _graph_chis(l.word)
    if l.other_word is not None:
        assert Loop(dual_word(l)) == l
    # the constructors on the hot paths hand out one shared Letter per value,
    # and loops of shared letters equal and hash like loops of fresh ones
    parsed = parse_word(str(w))
    made = [*parsed, *parse_word(str(w)), *(x.bar() for x in w), *(x.negate() for x in w),
            *shift_cd(parsed, 1), *ex(l).word, *(_other_letters(w) or ())]
    shared = {}
    for x in made:
        assert shared.setdefault(x, x) is x, repr(x)
    assert Loop(parsed) == l and hash(Loop(parsed)) == hash(l)


def test_fast_path_builds_no_graph(monkeypatch):
    from loopfloer import (
        PlumbingTree,
        algebra,
        cfd,
        fill,
        glue_is_lspace,
        hf_dim_closed,
        is_lspace_slope,
        is_strict_lspace_slope,
        lspace_interval,
        n_t_tree,
    )
    from loopfloer import cli, detection, twists

    for cached in (twists._reparametrize_one, detection.all_unstable_form,
                   detection.solid_torus_like, detection._interval_one_cached):
        cached.cache_clear()

    def refuse(*args):
        raise AssertionError("the fast path built a DecoratedGraph")

    monkeypatch.setattr(algebra.DecoratedGraph, "add_vertex", refuse)
    tre, framed, dual = (Loop.from_text(t) for t in ("a1 b1 c-2", "d-4 d-3", "a*2 e* b*1 c*-1"))
    assert fill([tre, framed], Slope(-2, 3)).dim > 0
    assert fill(dual, Slope(0, 1)).dim > 0
    assert is_lspace_slope([framed], Slope(1, 2))
    assert not is_strict_lspace_slope([tre], Slope(3, 1))
    assert str(lspace_interval(tre)) == "closed-arc 1/0 -1"
    assert str(lspace_interval(Loop.from_text("a-3 b1 c-3"))).startswith("closed-arc -3 1/0")
    assert glue_is_lspace([Loop.from_text("e")], [tre])
    assert len(cfd(n_t_tree(4))) == 4
    poincare = PlumbingTree({0: -1, 1: -2, 2: -3, 3: -5}, [(0, 1), (0, 2), (0, 3)], None)
    assert hf_dim_closed(poincare) == (1, True)
    assert cli._census_row(5, False)["dual_fill_dim"] == 25


@settings(max_examples=300, deadline=None)
@given(st.one_of(words(), unstable_words()))
def test_unstable_subscripts_reads_all_unstable_words(w):
    from loopfloer.detection import loop_from_ks

    l = Loop(w)
    ks = unstable_subscripts(l)
    try:
        fams = {x.family for x in word_in(l, "standard").letters}
    except NotExpressible:
        fams = None
    assert (ks is not None) == (fams is not None and fams <= {"c", "d"})
    if ks is not None:
        assert loop_from_ks(ks) == l
