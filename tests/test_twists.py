import random

import pytest

from loopfloer import (
    INFINITY,
    Loop,
    Slope,
    euler_chars,
    ex,
    fill,
    rational_longitude,
    reparametrize,
    twist,
)
from loopfloer.loops import word_violations
from loopfloer.twists import (
    TwistWord,
    ZERO_SLOPE,
    reparametrization_word,
)
from conftest import small_slopes


def test_slope_normalization():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-2, -4) == Slope(1, 2)
    assert Slope(3, 0) == INFINITY
    assert Slope(-1, 0) == INFINITY
    assert str(Slope(-7, 2)) == "-7/2"
    with pytest.raises(ValueError):
        Slope(0, 0)
    assert Slope.parse("inf") == INFINITY
    assert Slope.parse("-3/4") == Slope(-3, 4)
    assert Slope(0, 5).reciprocal() == INFINITY


def test_twist_shifts():
    assert twist(Loop.from_text("e"), "tw", 3) == Loop.from_text("d3")
    assert twist(Loop.from_text("a1 b1 c0"), "tw", 1) == Loop.from_text("a1 b1 c-1")
    # all-e* loops are fixed by tw, all-e loops by du
    estar = Loop.from_text("e* e*")
    assert twist(estar, "tw", 5) == estar
    assert twist(Loop.from_text("e e"), "du", -2) == Loop.from_text("e e")


def test_twist_inverses(corpus):
    for loop in corpus[:30]:
        for kind in ("tw", "du"):
            assert twist(twist(loop, kind, 1), kind, -1) == loop
            assert twist(twist(loop, kind, -2), kind, 2) == loop


def test_framed_solid_torus_chain():
    l = Loop.from_text("e")
    l = twist(l, "tw", 3)
    assert l == Loop.from_text("d3") == Loop.from_text("d*1 d*0 d*0")
    l = twist(l, "du", -2)
    assert l == Loop.from_text("c1 c1 c0 c1 c0") == Loop.from_text("d*-1 d*-2 d*-2")
    l = twist(l, "tw", 2)
    assert l == Loop.from_text("c-1 c-1 c-2 c-1 c-2")
    l = twist(l, "du", -1)
    assert l == Loop.from_text("d-4 d-3")
    assert rational_longitude(l) == Slope(7, 2)


def test_du_inverse_on_dual_words():
    assert twist(Loop.from_text("d*1 d*0 d*0"), "du", -2) == Loop.from_text(
        "d*-1 d*-2 d*-2"
    )


def test_ex_examples():
    assert ex(Loop.from_text("d-2")) == Loop.from_text("d*2")
    assert ex(Loop.from_text("e")) == Loop.from_text("e*")
    assert ex(Loop.from_text("d-3")) == Loop.from_text("d*3")
    assert Loop.from_text("d*3") == Loop.from_text("d1 d0 d0")


def test_ex_matches_composite(corpus):
    # ex from its definition: tw, then du^-1, then tw
    for loop in corpus:
        assert ex(loop) == twist(twist(twist(loop, "tw", 1), "du", -1), "tw", 1), str(loop)


def test_ex_squared():
    """ex is not an involution on arbitrary loops (it has order four on some
    words with stable chains), but its square preserves every filling and it
    does square to the identity on all-unstable words."""
    l = Loop.from_text("a-2 b2 c-3")
    assert ex(ex(l)) != l
    assert ex(ex(ex(ex(l)))) == l
    for text in ("e", "e e", "d3", "d-4 d-3", "d1 d0", "e* e*"):
        x = Loop.from_text(text)
        assert ex(ex(x)) == x, text


def test_ex_squared_preserves_fillings(corpus):
    for loop in corpus[:20]:
        doubled = ex(ex(loop))
        for s in small_slopes(2)[::3]:
            a, b = fill(loop, s), fill(doubled, s)
            assert (a.dim, a.chi_abs) == (b.dim, b.chi_abs), (str(loop), str(s))


def test_reparametrization_word_terms():
    # the even-length continued fraction: floors in odd positions, ceilings
    # in even ones, and [.., a] -> [.., a-1, 1] when the length is odd
    for s, terms in ((Slope(-2, 7), [-1, 2, -2, 3]), (Slope(5, 1), [4, 1]),
                     (Slope(7, 2), [3, 2]), (INFINITY, []), (ZERO_SLOPE, [-1, 1])):
        assert [n for _, n in reparametrization_word(s).ops] == terms, str(s)


def test_reparametrization_word_alternates_and_reaches_infinity():
    rng = random.Random(2)
    for _ in range(200):
        s = Slope(rng.randint(-30, 30), rng.randint(1, 30))
        w = reparametrization_word(s)
        kinds = [k for k, _ in w.ops]
        assert kinds[-1] == "du" and all(a != b for a, b in zip(kinds, kinds[1:])), str(s)
        assert w.transfer(s) == INFINITY, str(s)


def test_reparametrize_identity_and_composition():
    tre = Loop.from_text("a1 b1 c-2")
    assert reparametrize(tre, INFINITY) == tre
    w = reparametrization_word(Slope(-2, 7))
    assert w.transfer(Slope(-2, 7)) == INFINITY
    assert w.pullback(INFINITY) == Slope(-2, 7)


def test_twistword_matrix_consistency():
    w = TwistWord([("tw", 3), ("du", -2), ("tw", 2), ("du", -1)])
    # the framed-chain calibration: the dual slope of the start becomes 7/2
    assert w.transfer(ZERO_SLOPE) == Slope(7, 2)
    assert w.inverse().transfer(Slope(7, 2)) == ZERO_SLOPE


def test_twistword_is_immutable():
    from dataclasses import FrozenInstanceError

    from loopfloer.detection import all_unstable_form

    w = all_unstable_form(Loop.from_text("a1 b1 c-2"))[1]
    assert isinstance(w.ops, tuple)
    with pytest.raises(FrozenInstanceError):
        w.ops = ()
    assert w.then(("tw", 0), ("ex", 1)).ops == w.ops + (("ex", 1),)
    with pytest.raises(ValueError):
        w.then(("twist", 1))


def test_ex_transfer_is_rotation():
    w = TwistWord([("ex", 1)])
    assert w.transfer(Slope(3, 5)) == Slope(-5, 3)
    assert w.transfer(INFINITY) == ZERO_SLOPE


def test_fill_examples():
    tre = Loop.from_text("a1 b1 c-2")
    assert (fill(tre, INFINITY).dim, fill(tre, INFINITY).is_lspace) == (1, True)
    res = fill(tre, ZERO_SLOPE)
    assert (res.dim, res.chi_abs, res.is_lspace) == (2, 0, False)
    estar = Loop.from_text("e*")
    assert (fill(estar, INFINITY).dim, fill(estar, INFINITY).is_lspace) == (2, False)
    assert (fill(estar, ZERO_SLOPE).dim, fill(estar, ZERO_SLOPE).is_lspace) == (1, True)
    assert fill(Loop.from_text("e"), INFINITY).dim == 1
    assert fill(Loop.from_text("e"), ZERO_SLOPE).dim == 2
    # the 7/2-framed solid torus fills to dim |p| at slope p/q != longitude
    framed = Loop.from_text("d-4 d-3")
    assert fill(framed, Slope(7, 2)).dim == 2
    assert not fill(framed, Slope(7, 2)).is_lspace
    assert fill(framed, Slope(1, 1)).is_lspace


def test_fill_multi_loop_aggregation():
    loops = [Loop.from_text("e"), Loop.from_text("e*")]
    res = fill(loops, INFINITY)
    assert res.dim == 3 and res.per_loop == ((1, 1), (2, 0))
    assert not res.is_lspace


def test_validity_preserved_by_operations(corpus):
    rng = random.Random(3)
    for loop in corpus[:25]:
        for kind, n in (("tw", 1), ("du", -1), ("tw", rng.randint(-3, 3) or 1)):
            out = twist(loop, kind, n)
            assert not word_violations(out.word.letters)
        assert not word_violations(ex(loop).word.letters)


def test_euler_transform_lemma(corpus):
    """chi transforms by the inverse-transpose-style integer rule: tw adds
    chi_bullet into chi_circle, du adds chi_circle into chi_bullet, both up
    to an overall sign."""
    for loop in corpus:
        cb, cc = euler_chars(loop)
        tb, tc = euler_chars(twist(loop, "tw", 1))
        assert (tb, tc) in {(cb, cc + cb), (-cb, -(cc + cb))}, str(loop)
        db, dc = euler_chars(twist(loop, "du", 1))
        assert (db, dc) in {(cb + cc, cc), (-(cb + cc), -cc)}, str(loop)


def test_longitude_transforms_as_slope(corpus):
    rng = random.Random(4)
    for loop in corpus[:25]:
        lam = rational_longitude(loop)
        if lam is None:
            continue
        s = rng.choice(small_slopes())
        w = reparametrization_word(s)
        out = w.apply(loop)
        assert rational_longitude(out) == w.transfer(lam)


def test_fill_equals_reparametrized_fill(corpus):
    rng = random.Random(5)
    for loop in corpus[:20]:
        s = rng.choice(small_slopes())
        direct = fill(loop, s)
        via = fill(reparametrize(loop, s), INFINITY)
        assert (direct.dim, direct.chi_abs) == (via.dim, via.chi_abs)
