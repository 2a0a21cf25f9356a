"""Hypothesis property tests over randomly generated valid words."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from loopfloer import (
    INFINITY,
    Loop,
    Slope,
    canonicalize,
    euler_chars,
    ex,
    fill,
    fill_oracle,
    is_lspace_slope,
    mirror,
    rational_longitude,
    stern_brocot_slopes,
    twist,
)
from loopfloer.loops import (
    NotExpressible,
    dual_word,
    graph_to_words,
    word_to_graph,
    word_violations,
)
from conftest import loops


slopes = st.builds(
    lambda p, q: Slope(p, q) if (p, q) != (0, 0) else INFINITY,
    st.integers(-4, 4),
    st.integers(0, 4),
)


@given(loops())
def test_canonical_is_rotation_reversal_invariant(l):
    letters = l.word.letters
    for i in range(len(letters)):
        rotated = letters[i:] + letters[:i]
        assert Loop.from_letters(rotated) == l
    reversed_word = tuple(x.bar() for x in reversed(letters))
    assert Loop.from_letters(reversed_word) == l


@given(loops())
def test_graph_roundtrip(l):
    g = word_to_graph(l.word)
    words = graph_to_words(g, "dual" if l.star else "standard")
    assert canonicalize(words[0]) == l.word


@given(loops())
def test_dual_word_roundtrip(l):
    try:
        dw = dual_word(l)
    except NotExpressible:
        return
    assert Loop(dw) == l


@given(loops(), st.sampled_from(["tw", "du"]), st.integers(-3, 3))
def test_twist_invertible_and_valid(l, kind, n):
    out = twist(l, kind, n)
    assert not word_violations(out.word.letters)
    assert twist(out, kind, -n) == l


@given(loops())
def test_ex_matches_composite(l):
    assert ex(l) == twist(twist(twist(l, "tw", 1), "du", -1), "tw", 1)


@given(loops())
def test_equal_a_and_b_counts(l):
    na = sum(1 for x in l.word.letters if x.family == "a")
    nb = sum(1 for x in l.word.letters if x.family == "b")
    assert na == nb


@given(loops())
def test_euler_transform(l):
    cb, cc = euler_chars(l)
    tb, tc = euler_chars(twist(l, "tw", 1))
    assert (tb, tc) in {(cb, cc + cb), (-cb, -(cc + cb))}
    db, dc = euler_chars(twist(l, "du", 1))
    assert (db, dc) in {(cb + cc, cc), (-(cb + cc), -cc)}


@given(loops(max_len=5, max_sub=2), slopes)
@settings(deadline=None, max_examples=40)
def test_fill_matches_oracle(l, s):
    fast = fill(l, s)
    slow = fill_oracle(l, s)
    assert (fast.dim, fast.chi_abs, fast.is_lspace) == (
        slow.dim,
        slow.chi_abs,
        slow.is_lspace,
    )


@given(loops(), st.integers(0, 5), st.integers(0, 63))
@settings(deadline=None, max_examples=100)
def test_oracle_dimension_is_subadditive_on_farey_pairs(l, depth, i):
    """Away from the rational longitude, dim(x + y) <= dim(x) + dim(y) with
    equal parity, for Farey neighbours x, y as vectors (q, p): the first half
    of the kink-search fact, read off the pairing oracle."""
    # a row's neighbours x, y have x + y between them in the next row
    row, finer = stern_brocot_slopes(depth), stern_brocot_slopes(depth + 1)
    i %= len(row)
    x, y, xy = row[i], row[(i + 1) % len(row)], finer[2 * i + 1]
    assume(xy != rational_longitude(l))
    dx, dy, dxy = (fill_oracle(l, s).dim for s in (x, y, xy))
    assert dxy <= dx + dy and (dx + dy - dxy) % 2 == 0, (str(x), str(y))


@given(loops(), slopes)
@settings(deadline=None)
def test_lspace_flag_consistency(l, s):
    assert is_lspace_slope(l, s) == fill(l, s).is_lspace


@given(loops())
def test_mirror_involution_and_validity(l):
    m = mirror(l)
    assert not word_violations(m.word.letters)
    assert mirror(m) == l


@given(loops(max_len=5), slopes)
@settings(deadline=None, max_examples=50)
def test_reparametrize_preserves_validity(l, s):
    from loopfloer import reparametrize

    out = reparametrize(l, s)
    assert not word_violations(out.word.letters)
