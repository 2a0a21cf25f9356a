"""L-space slope detection: slope predicates, simple-loop normalization,
and L-space intervals.

Slope sets live on the circle of extended rationals with the cyclic order
that increases through the finite rationals and wraps at infinity.  A closed
arc is traversed from its first endpoint to its second in that order.  With
p/q read as the vector (q, p), x lies strictly inside the arc from a to b
exactly when det(a, x) det(x, b) det(a, b) > 0.

"Simple" below means twist-reducible to an all-unstable word, the paper's
hypothesis for normalization; it is not Floer simplicity (an L-space slope
set with interior), which some loops that fail it still have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .loops import (
    Letter,
    Loop,
    LoopWord,
    as_loops,
    euler_chars,
    expressible,
    rational_longitude,
    unstable_subscripts,
    word_in,
    word_or_none,
)
from .twists import (
    Slope,
    TwistWord,
    ZERO_SLOPE,
    reparametrize,
    twist,
)


# ---------------------------------------------------------------------------
# cyclic order and slope sets


def in_open_arc(x: Slope, a: Slope, b: Slope) -> bool:
    """Whether x lies strictly inside the arc from a to b (never when a == b)."""
    return a.det(x) * x.det(b) * a.det(b) > 0


def in_closed_arc(x: Slope, a: Slope, b: Slope) -> bool:
    """Whether x lies on the closed arc from a to b."""
    return x == a or x == b or in_open_arc(x, a, b)


def arc_in_open_arc(c: Slope, d: Slope, a: Slope, b: Slope) -> bool:
    """Whether the closed arc [c -> d] is contained in the open arc (a -> b)."""
    return in_open_arc(c, a, b) and (d == c or in_open_arc(d, c, b))


@dataclass(frozen=True)
class SlopeSet:
    """Empty, All, AllExcept(a), or the closed arc from a to b."""

    kind: str  # 'empty' | 'all' | 'all_except' | 'closed_arc'
    a: Optional[Slope] = None
    b: Optional[Slope] = None
    certified: str = field(default="exact", compare=False)

    @staticmethod
    def empty() -> "SlopeSet":
        return SlopeSet("empty")

    @staticmethod
    def all() -> "SlopeSet":
        return SlopeSet("all")

    @staticmethod
    def all_except(s: Slope) -> "SlopeSet":
        return SlopeSet("all_except", s)

    @staticmethod
    def closed_arc(a: Slope, b: Slope) -> "SlopeSet":
        return SlopeSet("closed_arc", a, b)

    def contains(self, s: Slope) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "all":
            return True
        if self.kind == "all_except":
            return s != self.a
        return in_closed_arc(s, self.a, self.b)

    def interior_contains(self, s: Slope) -> bool:
        if self.kind in ("empty", "all", "all_except"):
            return self.contains(s)
        return in_open_arc(s, self.a, self.b)

    def reciprocal(self) -> "SlopeSet":
        """Image under p/q -> q/p, which reverses the cyclic order."""
        if self.kind in ("empty", "all"):
            return self
        if self.kind == "all_except":
            return SlopeSet("all_except", self.a.reciprocal(), certified=self.certified)
        return SlopeSet(
            "closed_arc",
            self.b.reciprocal(),
            self.a.reciprocal(),
            certified=self.certified,
        )

    def intersect(self, other: "SlopeSet") -> "SlopeSet":
        cert = self.certified if other.certified == "exact" else other.certified
        if self.kind == "all":
            return _with_cert(other, cert)
        if other.kind == "all":
            return _with_cert(self, cert)
        if self.kind == "empty" or other.kind == "empty":
            return SlopeSet("empty", certified=cert)
        if self.kind == "all_except" and other.kind == "all_except":
            if self.a == other.a:
                return _with_cert(self, cert)
            raise ValueError("intersection is not an interval (two punctures)")
        if self.kind == "all_except":
            if other.contains(self.a):
                raise ValueError("intersection is not an interval")
            return _with_cert(other, cert)
        if other.kind == "all_except":
            return other.intersect(self)
        return _arc_intersection(self, other, cert)

    def __str__(self):
        tail = "" if self.certified == "exact" else f" [{self.certified}]"
        if self.kind == "empty":
            return "empty" + tail
        if self.kind == "all":
            return "all" + tail
        if self.kind == "all_except":
            return f"all-except {self.a}" + tail
        return f"closed-arc {self.a} {self.b}" + tail


def _with_cert(s: SlopeSet, cert: str) -> SlopeSet:
    return SlopeSet(s.kind, s.a, s.b, certified=cert)


def _arc_intersection(x: SlopeSet, y: SlopeSet, cert: str) -> SlopeSet:
    # both closed arcs; keep only the connected outcomes and refuse the rest
    a, b, c, d = x.a, x.b, y.a, y.b
    c_in = in_closed_arc(c, a, b)
    d_in = in_closed_arc(d, a, b)
    a_in = in_closed_arc(a, c, d)
    b_in = in_closed_arc(b, c, d)
    if c_in and d_in and a_in and b_in:
        # equal arcs or a disconnected double overlap
        if x == SlopeSet("closed_arc", c, d):
            return SlopeSet("closed_arc", a, b, certified=cert)
        raise ValueError("intersection is not an interval (double overlap)")
    if c_in and d_in:
        return SlopeSet("closed_arc", c, d, certified=cert)
    if a_in and b_in:
        return SlopeSet("closed_arc", a, b, certified=cert)
    if c_in and b_in:
        return SlopeSet("closed_arc", c, b, certified=cert)
    if a_in and d_in:
        return SlopeSet("closed_arc", a, d, certified=cert)
    return SlopeSet("empty", certified=cert)


def stern_brocot_slopes(depth: int) -> List[Slope]:
    """All slopes of tree depth at most `depth`, in increasing cyclic order
    starting at infinity (so the list is a full circle walk)."""
    # -1/0 and 1/0 are both infinity; the row keeps them apart as its ends
    row = [(-1, 0), (0, 1), (1, 0)]
    for _ in range(depth):
        refined = row[:1]
        for (p, q), (r, s) in zip(row, row[1:]):
            refined += [(p + r, q + s), (r, s)]
        row = refined
    return [Slope(p, q) for p, q in row[:-1]]


# ---------------------------------------------------------------------------
# slope predicates


def _slope_word(l: Loop, s: Slope) -> Optional[LoopWord]:
    """The word that decides slope s: the dual word at slope zero, else the
    standard word of the loop reparametrized to take s to infinity; None
    when that word does not exist."""
    if s != ZERO_SLOPE:
        l, alphabet = reparametrize(l, s), "standard"
    else:
        alphabet = "dual"
    return word_or_none(l, alphabet)


def is_lspace_slope(loops, s: Slope) -> bool:
    """Whether filling every loop at s yields an L-space summand.

    The word deciding s must show unstable chains of exactly one of the c
    and d families (d and no c, up to reversing the loop).
    """
    for l in as_loops(loops):
        w = _slope_word(l, s)
        if w is None:
            return False
        fams = {x.family for x in w.letters}
        if ("c" in fams) == ("d" in fams):
            return False
    return True


def _strict_decomposition(letters: Sequence[Letter]) -> bool:
    """Cyclic decomposition into d_k pieces and b_{+-1} a_{-+1} pairs, with a
    d present and the two pair kinds never adjacent."""
    n = len(letters)
    kinds: List[Optional[int]] = [None] * n  # +1 / -1 for pair starts, 0 for d
    has_d = False
    used = [False] * n
    for i in range(n):
        if used[i]:
            continue
        x = letters[i]
        if x.family == "d":
            kinds[i] = 0
            used[i] = True
            has_d = True
        elif x.family == "b" and abs(x.subscript) == 1:
            j = (i + 1) % n
            y = letters[j]
            if used[j] or y.family != "a" or y.subscript != -x.subscript:
                return False
            kinds[i] = x.subscript
            used[i] = used[j] = True
        elif x.family == "a":
            # must be consumed by the preceding b; check the wrap-around case
            j = (i - 1) % n
            y = letters[j]
            if y.family != "b" or y.subscript != -x.subscript or abs(x.subscript) != 1:
                return False
            if not used[j]:
                kinds[j] = y.subscript
                used[j] = used[i] = True
            else:
                used[i] = True
        else:
            return False
    if not has_d:
        return False
    # opposite pair kinds must never sit next to each other around the cycle
    pieces = [k for k in kinds if k is not None]
    m = len(pieces)
    for idx in range(m):
        k1, k2 = pieces[idx], pieces[(idx + 1) % m]
        if k1 and k2 and k1 != k2:
            return False
    return True


def is_strict_lspace_slope(loops, s: Slope) -> bool:
    """Interior membership in the L-space slope set."""
    for l in as_loops(loops):
        w = _slope_word(l, s)
        if w is None or not (
            _strict_decomposition(w.letters) or _strict_decomposition(w.reversal().letters)
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# all-unstable forms and the normalization algorithm


def _all_unstable_dual(l: Loop) -> bool:
    w = word_or_none(l, "dual")
    return w is not None and {x.family for x in w.letters} <= {"c", "d"}


def _necessary_conditions(l: Loop) -> bool:
    """Stable-chain sign conditions every twist-reduction of an all-unstable
    loop satisfies; failing them shows that no twists reduce the loop to an
    all-unstable word, not that the loop is not Floer simple."""
    for alphabet in ("standard", "dual"):
        w = word_or_none(l, alphabet)
        if w is None:
            continue
        subs = [x.subscript for x in w.letters if x.family in "ab"]
        if subs and not (all(s > 0 for s in subs) or all(s < 0 for s in subs)):
            return False
    return True


def loop_from_ks(ks: Sequence[int], star: bool = False) -> Loop:
    return Loop.from_letters([Letter("d", k, star) for k in ks])


# depth of the twist-orbit search for an all-unstable form, and of the
# Stern-Brocot sweep that answers for loops the search cannot normalize
DEPTH = 6


@lru_cache(maxsize=8192)
def all_unstable_form(l: Loop, depth: int = DEPTH):
    """Search the twist orbit for an all-unstable standard word.

    Returns (subscripts, TwistWord) with TwistWord(l) equal to the all-d loop,
    or None when the bounded search is exhausted.
    """
    if not _necessary_conditions(l):
        return None

    def finish(loop: Loop, ops: tuple):
        ks = unstable_subscripts(loop)
        if ks is None and _all_unstable_dual(loop):
            # push the dual subscripts positive, then read off
            subs = [x.subscript if x.family == "d" else -x.subscript
                    for x in word_in(loop, "dual").letters]
            n = max(0, 1 - min(subs))
            ops += (("du", n),)
            ks = unstable_subscripts(twist(loop, "du", n))
        return None if ks is None else (ks, TwistWord(ops))

    out = finish(l, ())
    if out is not None:
        return out
    seen = {l}
    frontier: List[Tuple[Loop, tuple]] = [(l, ())]
    for _ in range(depth):
        nxt: List[Tuple[Loop, tuple]] = []
        for loop, ops in frontier:
            for step in (("tw", 1), ("tw", -1), ("du", 1), ("du", -1)):
                cand = twist(loop, *step)
                if cand in seen:
                    continue
                seen.add(cand)
                cand_ops = ops + (step,)
                out = finish(cand, cand_ops)
                if out is not None:
                    return out
                nxt.append((cand, cand_ops))
        frontier = nxt
    return None


def is_simple(l: Loop) -> str:
    """'yes', 'no', or 'unknown': can twists remove all stable chains, i.e.
    reduce the loop to an all-unstable word?  This is not Floer simplicity:
    '(a-3 e b1)' is 'no' yet has strict L-space slopes."""
    if not _necessary_conditions(l):
        return "no"
    if all_unstable_form(l) is not None:
        return "yes"
    return "unknown"


def ex_on_ks(ks: Sequence[int]) -> Tuple[int, ...]:
    """ex on an all-d word with subscripts of one sign, as subscripts.

    For nonnegative input (not all zero) the output is nonpositive and vice
    versa; all-zero and mixed-sign words are rejected.
    """
    ks = list(ks)
    if all(k == 0 for k in ks):
        raise ValueError("ex of an all-e word leaves the standard alphabet")
    if all(k <= 0 for k in ks):
        return tuple(-x for x in ex_on_ks([-k for k in ks]))
    if not all(k >= 0 for k in ks):
        raise ValueError("ex fast path needs subscripts of one sign")
    n = len(ks)
    nonzero = [i for i, k in enumerate(ks) if k != 0]
    pieces: List[List[int]] = []
    for idx, i in enumerate(nonzero):
        j = nonzero[(idx + 1) % len(nonzero)]
        zeros = (j - i - 1) % n
        pieces.append([0] * (ks[i] - 1) + [zeros + 1])
    # reverse and negate the c-word to read it as an all-d word
    flat = [x for piece in pieces for x in piece]
    return tuple(-x for x in reversed(flat))


@dataclass
class NormalizeResult:
    case: int  # 1, 2, or 3
    log: TwistWord
    terminal: Tuple[int, ...]  # terminal all-d word subscripts


class MeasureViolated(RuntimeError):
    pass


def _case2(ks: Sequence[int]) -> bool:
    if not all(-1 <= k <= 1 for k in ks):
        return False
    signs = [k for k in ks if k != 0]
    if not signs:
        return False
    if len(signs) == 1:
        return True
    return all(signs[i] != signs[(i + 1) % len(signs)] for i in range(len(signs)))


def _case3(ks: Sequence[int], sign: int) -> bool:
    """sign +1: all k >= -1, some -1, every -1 followed by zeros then k > 0."""
    lo = [sign * k for k in ks]
    if not all(k >= -1 for k in lo):
        return False
    n = len(lo)
    hits = [i for i, k in enumerate(lo) if k == -1]
    if not hits:
        return False
    for i in hits:
        j = (i + 1) % n
        while lo[j] == 0:
            j = (j + 1) % n
            if j == i:
                return False
        if lo[j] < 0:
            return False
    return not _case2(ks)


def normalize_simple(l, sign: int = 1) -> NormalizeResult:
    """Twist-reduction of a simple loop to one of three terminal shapes.

    Accepts a Loop (searched for its all-unstable form first) or a raw
    subscript sequence.  sign +1 runs the algorithm as stated; sign -1 runs
    the mirrored variant that locates the other interval endpoint.
    """
    pre = TwistWord()
    if isinstance(l, Loop):
        found = all_unstable_form(l)
        if found is None:
            raise NotSimple(f"no all-unstable representative within depth {DEPTH}")
        ks, pre = found
    else:
        ks = tuple(l)
    # Work with the mirrored word for the sign -1 run: tw^n there is tw^{-n}
    # on the true loop while ex commutes with mirroring, so logged twists
    # carry a sign factor and ex entries do not.
    ks = tuple(sign * k for k in ks)
    ops: List[Tuple[str, int]] = []

    def done(case: int, terminal: Sequence[int]) -> NormalizeResult:
        return NormalizeResult(case, pre.then(*ops), tuple(sign * k for k in terminal))

    m = min(ks)
    ops.append(("tw", -sign * m))
    ks = tuple(k - m for k in ks)
    kappa = sum(1 for k in ks if k == 0)
    cap = (kappa + 2) * (max(ks) + 2) + len(ks) + 16
    for _ in range(cap):
        if all(k == 0 for k in ks):
            return done(1, ks)
        t = tuple(k - 1 for k in ks)
        case = 2 if _case2(t) else 3 if _case3(t, 1) else None
        if case:
            ops.append(("tw", -sign))
            return done(case, t)
        nxt = ex_on_ks(ks)  # nonpositive output
        m = min(nxt)
        ops += [("ex", 1), ("tw", -sign * m)]
        ks = tuple(k - m for k in nxt)
    raise MeasureViolated("normalization failed to terminate within its measure")


class NotSimple(ValueError):
    pass


@lru_cache(maxsize=8192)
def solid_torus_like(l: Loop) -> bool:
    """Whether the loop lies in the twist orbit of an all-e word."""
    if not expressible(l, "standard"):
        return True  # all dual-e words are twists of all-e words
    if not expressible(l, "dual"):
        return True  # all-e standard word
    if not _necessary_conditions(l):
        return False
    found = all_unstable_form(l)
    if found is None:
        return False
    res = normalize_simple(loop_from_ks(found[0]))
    if res.case == 1:
        return True
    if res.case == 2:
        return sum(1 for k in res.terminal if k != 0) == 1
    return False


# ---------------------------------------------------------------------------
# intervals


def lspace_interval(loops) -> SlopeSet:
    """The set of L-space slopes, intersected over the given loops.

    Simple loops get exact answers via the normalization algorithm; loops the
    bounded search cannot certify fall back to a sweep certified only to
    depth DEPTH.
    """
    out = SlopeSet.all()
    for l in as_loops(loops):
        out = out.intersect(_interval_one_cached(l))
    return out


@lru_cache(maxsize=8192)
def _interval_one_cached(l: Loop) -> SlopeSet:
    chi_b, chi_c = euler_chars(l)
    if chi_b == 0 and chi_c == 0:
        return SlopeSet.empty()
    found = all_unstable_form(l)
    if found is None:
        return _sweep_interval(l, DEPTH)
    ks, pre = found
    results = [normalize_simple(ks, sign=sign) for sign in (1, -1)]
    if any(res.case in (1, 2) for res in results):
        return SlopeSet.all_except(rational_longitude(l))
    e1, e2 = (pre.then(*res.log.ops).pullback(ZERO_SLOPE) for res in results)
    if e1 == e2:
        return SlopeSet.closed_arc(e1, e1)
    return _orient_arc(l, e1, e2)


def _orient_arc(l: Loop, e1: Slope, e2: Slope) -> SlopeSet:
    for a, b in ((e1, e2), (e2, e1)):
        inside = _arc_midpoint(a, b)
        outside = _arc_midpoint(b, a)
        if is_lspace_slope(l, inside) and not is_lspace_slope(l, outside):
            return SlopeSet.closed_arc(a, b)
    raise AssertionError(f"could not orient interval endpoints {e1}, {e2}")


def _arc_midpoint(a: Slope, b: Slope) -> Slope:
    """Some slope strictly inside the arc from a to b (assumes a != b): the
    vector sum of a and whichever of +-b lies less than half a turn onward."""
    sign = 1 if a.det(b) > 0 else -1
    out = Slope(a.p + sign * b.p, a.q + sign * b.q)
    assert in_open_arc(out, a, b)
    return out


def _sweep_interval(l: Loop, depth: int) -> SlopeSet:
    cert = f"sweep-certified to depth {depth}"
    slopes = stern_brocot_slopes(depth)
    longitude = rational_longitude(l)
    if longitude is not None and longitude not in slopes:
        ends = zip(slopes, slopes[1:] + slopes[:1])
        gap = next(i for i, (x, y) in enumerate(ends) if in_open_arc(longitude, x, y))
        slopes.insert(gap + 1, longitude)
    member = [is_lspace_slope(l, s) for s in slopes]
    n = len(slopes)
    changes = [i for i in range(n) if member[i] != member[(i + 1) % n]]
    if len(changes) == 0:
        if all(member):
            raise AssertionError("a loop cannot have every slope an L-space slope")
        return SlopeSet("empty", certified=cert)
    if len(changes) != 2:
        raise AssertionError("membership changed more than twice around the circle")
    i, j = changes
    if member[(i + 1) % n]:
        first_true, last_true = (i + 1) % n, j
    else:
        first_true, last_true = (j + 1) % n, i
    if (
        longitude is not None
        and not member[slopes.index(longitude)]
        and sum(member) == n - 1
    ):
        return SlopeSet("all_except", longitude, certified=cert)
    a = _refine_endpoint(l, slopes[first_true - 1], slopes[first_true], False, depth)
    b = _refine_endpoint(l, slopes[last_true], slopes[(last_true + 1) % n], True, depth)
    return SlopeSet("closed_arc", a, b, certified=cert)


def _refine_endpoint(l: Loop, lo: Slope, hi: Slope, lo_inside: bool, depth: int) -> Slope:
    """Bisect the arc from lo to hi, whose ends differ in membership (lo is
    an L-space slope exactly when lo_inside), and return the inside end."""
    for _ in range(depth):
        mid = _arc_midpoint(lo, hi)
        if is_lspace_slope(l, mid) == lo_inside:
            lo = mid
        else:
            hi = mid
    return lo if lo_inside else hi
