import itertools
import random
from typing import Optional, Sequence

import pytest

from loopfloer import (
    INFINITY,
    Loop,
    Slope,
    fill,
    is_lspace_slope,
    is_simple,
    is_strict_lspace_slope,
    lspace_interval,
)
from loopfloer.detection import (
    SlopeSet,
    _arc_midpoint,
    _case2,
    _case3,
    arc_in_open_arc,
    ex_on_ks,
    in_closed_arc,
    in_open_arc,
    normalize_simple,
    solid_torus_like,
    stern_brocot_slopes,
)
from loopfloer.loops import Letter, expressible, word_in
from loopfloer.twists import ZERO_SLOPE
from conftest import small_slopes


def s(text):
    return Slope.parse(text)


def test_cyclic_order_basics():
    assert in_closed_arc(s("1/2"), s("0"), s("1"))
    assert not in_closed_arc(s("2"), s("0"), s("1"))
    # wrap through infinity
    assert in_closed_arc(s("inf"), s("1"), s("-1"))
    assert in_closed_arc(s("-5"), s("1"), s("-1"))
    assert not in_closed_arc(s("0"), s("1"), s("-1"))
    assert in_closed_arc(s("-3"), s("inf"), s("-1"))
    assert not in_open_arc(s("-1"), s("inf"), s("-1"))
    assert arc_in_open_arc(s("1"), s("2"), s("0"), s("3"))
    assert not arc_in_open_arc(s("1"), s("4"), s("0"), s("3"))
    # an arc that wraps outside is not contained even with both ends inside
    assert not arc_in_open_arc(s("2"), s("1"), s("0"), s("3"))


def test_arcs_match_positions_in_the_cyclic_grid():
    """Every triple and quadruple of depth-3 slopes, against membership read
    off positions in the cyclic list; midpoints against the depth-6 list,
    which holds every a +- b of two depth-3 slopes."""

    def offsets(grid):
        at = {x: i for i, x in enumerate(grid)}
        return lambda x, a: (at[x] - at[a]) % len(grid)

    grid = stern_brocot_slopes(3)
    off = offsets(grid)
    for a, b, x in itertools.product(grid, repeat=3):
        assert in_closed_arc(x, a, b) == (off(x, a) <= off(b, a)), (x, a, b)
        assert in_open_arc(x, a, b) == (0 < off(x, a) < off(b, a)), (x, a, b)
    for a, b, c, d in itertools.product(grid, repeat=4):
        inside = 0 < off(c, a) <= off(d, a) < off(b, a)
        assert arc_in_open_arc(c, d, a, b) == inside, (c, d, a, b)
    off6 = offsets(stern_brocot_slopes(6))
    for a, b in itertools.product(grid, repeat=2):
        if a != b:
            assert 0 < off6(_arc_midpoint(a, b), a) < off6(b, a), (a, b)


def test_slope_set_predicates():
    arc = SlopeSet.closed_arc(s("inf"), s("-1"))
    assert arc.contains(s("inf")) and arc.contains(s("-1")) and arc.contains(s("-7"))
    assert not arc.contains(s("0"))
    assert arc.interior_contains(s("-2"))
    assert not arc.interior_contains(s("-1"))
    ae = SlopeSet.all_except(s("0"))
    assert ae.contains(s("inf")) and not ae.contains(s("0"))
    assert ae.interior_contains(s("5"))


def test_slope_set_intersection():
    a = SlopeSet.closed_arc(s("0"), s("3"))
    b = SlopeSet.closed_arc(s("1"), s("5"))
    assert a.intersect(b) == SlopeSet.closed_arc(s("1"), s("3"))
    assert a.intersect(SlopeSet.all()) == a
    assert a.intersect(SlopeSet.empty()).kind == "empty"
    ae = SlopeSet.all_except(s("7"))
    assert ae.intersect(a) == a
    with pytest.raises(ValueError):
        SlopeSet.all_except(s("1")).intersect(SlopeSet.all_except(s("2")))
    assert a.intersect(SlopeSet.closed_arc(s("4"), s("5"))).kind == "empty"


def test_slope_set_reciprocal_and_complement():
    arc = SlopeSet.closed_arc(s("1"), s("2"))
    rec = arc.reciprocal()
    assert rec == SlopeSet.closed_arc(s("1/2"), s("1"))
    for x in (s("1"), s("3/2"), s("2")):
        assert rec.contains(x.reciprocal())
    assert not rec.contains(s("1/3"))


@pytest.mark.parametrize("depth", range(8))
def test_stern_brocot_enumeration(depth):
    slopes = stern_brocot_slopes(depth)
    assert slopes[0] == INFINITY
    assert len(slopes) == len(set(slopes)) == 2 * (2**depth - 1) + 2
    fracs = [x.fraction() for x in slopes[1:]]
    assert fracs == sorted(fracs)
    # cyclic neighbours, 1/0 with both ends included, are Farey neighbours
    assert all(abs(x.det(y)) == 1 for x, y in zip(slopes, slopes[1:] + slopes[:1]))
    if depth:
        assert slopes[::2] == stern_brocot_slopes(depth - 1)
    assert (Slope(1, 1) in slopes) == (depth >= 1)
    assert (Slope(-2, 3) in slopes) == (depth >= 3)


def test_lspace_slope_examples():
    assert is_lspace_slope(Loop.from_text("d3"), INFINITY)
    tre = Loop.from_text("a1 b1 c-2")
    assert is_lspace_slope(tre, INFINITY)
    assert not is_lspace_slope(tre, ZERO_SLOPE)
    assert not is_lspace_slope(Loop.from_text("e*"), INFINITY)
    assert not is_lspace_slope(Loop.from_text("a1 b1 a-1 b-1"), INFINITY)


def test_strict_slope_examples():
    assert is_strict_lspace_slope(Loop.from_text("d1 d0"), INFINITY)
    assert not is_strict_lspace_slope(Loop.from_text("a1 b1 c-2"), INFINITY)
    assert is_strict_lspace_slope(Loop.from_text("e* e*"), ZERO_SLOPE)
    # the mixed pairs may appear but never adjacently
    assert is_strict_lspace_slope(Loop.from_text("b1 a-1 d2"), INFINITY)
    assert not is_strict_lspace_slope(Loop.from_text("b1 a-1 b-1 a1 d2 d2"), INFINITY)


def test_lspace_equals_fill_flag(corpus):
    rng = random.Random(12)
    for loop in corpus[:30]:
        for slope in rng.sample(small_slopes(), 6):
            assert is_lspace_slope(loop, slope) == fill(loop, slope).is_lspace


def test_ex_on_ks_matches_loop_ex():
    from loopfloer.twists import ex

    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 6)
        ks = [rng.randint(0, 3) for _ in range(n)]
        if all(k == 0 for k in ks):
            continue
        loop = Loop.from_letters(
            [__import__("loopfloer").Letter("d", k) for k in ks]
        )
        fast = Loop.from_letters(
            [__import__("loopfloer").Letter("d", k) for k in ex_on_ks(ks)]
        )
        assert fast == ex(loop)


def test_normalize_cases():
    assert normalize_simple(Loop.from_text("e e")).case == 1
    res = normalize_simple(Loop.from_text("d1 d0"))
    assert res.case == 2
    assert res.terminal in ((0, -1), (-1, 0))
    # the normalization log reproduces the terminal loop
    tre = Loop.from_text("a1 b1 c-2")
    res = normalize_simple(tre)
    assert res.case == 3
    from loopfloer.detection import loop_from_ks

    assert res.log.apply(tre) == loop_from_ks(res.terminal)


def test_case_predicates():
    assert _case2((0, -1))
    assert _case2((1, 0, -1))
    assert not _case2((0, -1, 0, -1))
    assert not _case2((0, 0))
    assert _case3((2, -1, 0, 1), 1)
    assert _case3((-1, 0, 2), 1)
    assert not _case3((-1, 0, -1), 1)
    assert _case3((1, 0, -2), -1)


def test_is_simple():
    assert is_simple(Loop.from_text("d1 d0")) == "yes"
    assert is_simple(Loop.from_text("a1 b1 c-2")) == "yes"
    assert is_simple(Loop.from_text("a1 b1 a-1 b-1")) == "no"
    assert is_simple(Loop.from_text("a1 b1")) == "yes"


def test_not_simple_is_not_floer_simple():
    """'no' from is_simple says no twists reduce the loop to an all-unstable
    word.  These loops still have strict L-space slopes, which the oracle
    confirms together with the integer slopes on either side."""
    from loopfloer import fill_oracle

    for text, p in (("a-3 e b1", -1), ("a-1 b3", 0), ("a-1 d2 d2 b1", 0)):
        loop = Loop.from_text(text)
        assert is_simple(loop) == "no", text
        assert is_strict_lspace_slope(loop, Slope(p, 1)), text
        for x in (p - 1, p, p + 1):
            assert fill_oracle(loop, Slope(x, 1)).is_lspace, (text, x)


def test_intervals_examples():
    assert lspace_interval(Loop.from_text("e")) == SlopeSet.all_except(s("0"))
    assert lspace_interval(Loop.from_text("a1 b1 c-2")) == SlopeSet.closed_arc(
        s("inf"), s("-1")
    )
    assert lspace_interval(Loop.from_text("d-4 d-3")) == SlopeSet.all_except(s("7/2"))
    assert lspace_interval(Loop.from_text("a1 b1 a-1 b-1")).kind == "empty"
    assert lspace_interval(Loop.from_text("a1 b1")) == SlopeSet.all_except(s("inf"))


def test_interval_endpoints_are_lspace_but_not_strict():
    tre = Loop.from_text("a1 b1 c-2")
    iv = lspace_interval(tre)
    for endpoint in (iv.a, iv.b):
        assert is_lspace_slope(tre, endpoint)
        assert not is_strict_lspace_slope(tre, endpoint)


def test_interval_interior_matches_strict(corpus):
    rng = random.Random(14)
    for loop in corpus[:20]:
        try:
            iv = lspace_interval(loop)
        except ValueError:
            continue
        for slope in rng.sample(small_slopes(), 8):
            assert iv.interior_contains(slope) == is_strict_lspace_slope(
                loop, slope
            ), (str(loop), str(slope))
            assert iv.contains(slope) == is_lspace_slope(loop, slope), (
                str(loop),
                str(slope),
            )


def test_membership_changes_at_most_twice(corpus):
    slopes = stern_brocot_slopes(4)
    n = len(slopes)
    for loop in corpus[:25]:
        member = [is_lspace_slope(loop, x) for x in slopes]
        changes = sum(member[i] != member[(i + 1) % n] for i in range(n))
        assert changes <= 2, str(loop)


def sign_class(l: Loop) -> Optional[int]:
    """+1 or -1 when both preferred slopes are L-space slopes.

    A loop with both the zero and infinity fillings L-spaces admits a
    standard word with d-letters and no c-letters containing, in exactly one
    sign, a subword from the witness family: an adjacent pair b_i a_j, a
    pair from {a_i, d_i} x {b_j, d_j} separated only by e letters, or a
    single letter of absolute subscript at least two (all subscripts of the
    stated sign).  +1 certifies that every positive slope is an L-space
    slope, -1 every negative one; None when the hypothesis fails.
    """
    if not expressible(l, "standard"):
        return None
    w = word_in(l, "standard")
    fams = {x.family for x in w.letters}
    if ("c" in fams) == ("d" in fams):
        return None
    if "c" in fams:
        w = w.reversal()
    found = {s for s in (1, -1) if _has_witness(w.letters, s)}
    if len(found) != 1:
        return None
    return found.pop()


def _has_witness(letters: Sequence[Letter], sign: int) -> bool:
    n = len(letters)
    if any(sign * x.subscript >= 2 for x in letters):
        return True
    for i, x in enumerate(letters):
        y = letters[(i + 1) % n]
        if (
            x.family == "b"
            and y.family == "a"
            and sign * x.subscript >= 1
            and sign * y.subscript >= 1
        ):
            return True
        # {a, d} then e letters then {b, d}; cyclic subwords may wrap, so a
        # lone d_1 witnesses through itself
        if x.family in "ad" and sign * x.subscript >= 1:
            j = (i + 1) % n
            steps = 0
            while letters[j].family == "d" and letters[j].subscript == 0 and steps < n:
                j = (j + 1) % n
                steps += 1
            y = letters[j]
            if y.family in "bd" and sign * y.subscript >= 1:
                return True
    return False


def test_positive_interval_corollary(corpus):
    """If slopes 0 and infinity are both L-space slopes, exactly one sign
    class of subword witnesses is present, and it names the closed quadrant
    that consists of L-space slopes."""
    hits = 0
    for loop in corpus:
        both = is_lspace_slope(loop, ZERO_SLOPE) and is_lspace_slope(loop, INFINITY)
        cls = sign_class(loop)
        assert both == (cls is not None), str(loop)
        if not both:
            continue
        hits += 1
        probes = (s("1"), s("1/2"), s("2"), s("3/2"))
        if cls == -1:
            probes = tuple(Slope(-p.p, p.q) for p in probes)
        assert all(is_lspace_slope(loop, x) for x in probes), (str(loop), cls)
    assert hits >= 3


def test_sign_class_examples():
    assert sign_class(Loop.from_text("d1")) == 1
    assert sign_class(Loop.from_text("d-1")) == -1
    assert sign_class(Loop.from_text("d2 d0")) == 1
    assert sign_class(Loop.from_text("a1 b1 c-2")) is None  # 0 is not L-space
    assert sign_class(Loop.from_text("e")) is None  # no dual notation
    assert sign_class(Loop.from_text("e e")) is None


def test_nonlspace_interval_prop(corpus):
    """If slopes 0 and infinity both fail, a whole side fails with them."""
    probe_pos = (s("1"), s("1/2"), s("2"))
    probe_neg = (s("-1"), s("-1/2"), s("-2"))
    for loop in corpus:
        if is_lspace_slope(loop, ZERO_SLOPE) or is_lspace_slope(loop, INFINITY):
            continue
        pos_bad = not any(is_lspace_slope(loop, x) for x in probe_pos)
        neg_bad = not any(is_lspace_slope(loop, x) for x in probe_neg)
        assert pos_bad or neg_bad, str(loop)


def test_solid_torus_like_examples():
    assert solid_torus_like(Loop.from_text("e e"))
    assert solid_torus_like(Loop.from_text("e* e*"))
    assert solid_torus_like(Loop.from_text("d1 d0"))
    assert solid_torus_like(Loop.from_text("d1 d0 d1 d0"))
    assert not solid_torus_like(Loop.from_text("a1 b1"))
    assert not solid_torus_like(Loop.from_text("a1 b1 c-2"))
    assert not solid_torus_like(Loop.from_text("d1 d-1"))


def test_solid_torus_like_orbit_soundness():
    """Bounded orbit search agrees with the normalization decision."""
    from loopfloer.twists import twist

    rng = random.Random(15)
    base = Loop.from_text("e e")
    orbit = {base}
    frontier = [base]
    for _ in range(4):
        nxt = []
        for x in frontier:
            for kind, m in (("tw", 1), ("tw", -1), ("du", 1), ("du", -1)):
                y = twist(x, kind, m)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    for x in rng.sample(sorted(orbit, key=str), 12):
        assert solid_torus_like(x), str(x)


def test_interval_membership_matches_oracle():
    from loopfloer import fill_oracle

    rng = random.Random(16)
    for text in ("a1 b1 c-2", "d1 d0", "a1 b1", "d-4 d-3"):
        loop = Loop.from_text(text)
        iv = lspace_interval(loop)
        for slope in rng.sample(small_slopes(), 6):
            assert iv.contains(slope) == fill_oracle(loop, slope).is_lspace, (
                text,
                str(slope),
            )


def test_sweep_endpoint_next_to_infinity():
    # the arc runs from -3 up through the positive slopes to 1/0; refining
    # the end between 1/0 and the grid's last negative slope must take
    # mediants with -1/0, not 1/0
    loop = Loop.from_text("a-3 b1 c-3")
    iv = lspace_interval(loop)
    assert (iv.kind, iv.a, iv.b) == ("closed_arc", s("-3"), INFINITY)
    assert str(iv).startswith("closed-arc -3 1/0")


def test_sweep_interval_matches_oracle_on_grid():
    from loopfloer import fill_oracle

    loop = Loop.from_text("a-3 b1 c-3")
    iv = lspace_interval(loop)
    for slope in stern_brocot_slopes(6):
        assert iv.contains(slope) == fill_oracle(loop, slope).is_lspace, str(slope)


def test_sweep_fallback_matches_exact():
    tre = Loop.from_text("a1 b1 c-2")
    from loopfloer.detection import _sweep_interval

    swept = _sweep_interval(tre, 6)
    exact = lspace_interval(tre)
    assert swept.kind == exact.kind == "closed_arc"
    assert (swept.a, swept.b) == (exact.a, exact.b)
    assert swept.certified != "exact"
