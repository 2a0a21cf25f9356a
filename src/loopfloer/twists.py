"""Loop operations tw / du / ex, slope arithmetic, and fast Dehn fillings.

Conventions, pinned by the framed-solid-torus calibration chain and the
trefoil-complement family:

* tw acts on a standard word by c_j -> c_{j-1}, d_j -> d_{j+1} (a, b fixed);
  du acts the same way on the dual word; loops without the relevant notation
  are fixed.
* A slope p/q of a loop corresponds to the slope (p - nq)/q of tw^n(loop)
  and to p/(q - np) of du^n(loop); ex sends p/q to -q/p.
* reparametrize(loop, p/q) applies tw^{a1}, du^{a2}, ..., du^{a_{2m}} for an
  even-length continued fraction p/q = a1 + 1/(a2 + ...), after which the
  requested slope sits at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import List, Optional, Tuple

from .loops import (
    Loop,
    LoopWord,
    as_loops,
    euler_chars,
    intern_letter,
    word_or_none,
)


@dataclass(frozen=True)
class Slope:
    """A reduced extended rational p/q with q >= 0; infinity is 1/0.  As a
    vector, p/q is the primitive (q, p), defined up to sign."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if p == 0 and q == 0:
            raise ValueError("0/0 is not a slope")
        g = gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @staticmethod
    def parse(text: str) -> "Slope":
        """Read 'p/q', an integer p, or 'inf' (also 'infty', 'oo'), the last
        three with an optional '-' as in '-1/0'."""
        text = text.strip()
        if text.removeprefix("-") in ("inf", "infty", "oo"):
            return INFINITY
        p, slash, q = text.partition("/")
        try:
            if "/" in q:
                raise ValueError
            num, den = int(p), int(q) if slash else 1
        except ValueError:
            raise ValueError("a slope is p/q, an integer, or inf, with at most one '/'") from None
        return Slope(num, den)

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def fraction(self) -> Optional[Fraction]:
        return None if self.is_infinite else Fraction(self.p, self.q)

    def reciprocal(self) -> "Slope":
        return Slope(self.q, self.p)

    def det(self, other: "Slope") -> int:
        """det((q, p), (q', p')).  Its sign depends on the signs chosen for
        the two vectors; a product in which each slope appears twice does not."""
        return self.q * other.p - self.p * other.q

    def __str__(self):
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"

    def __repr__(self):
        return f"Slope({self})"


INFINITY = Slope(1, 0)
ZERO_SLOPE = Slope(0, 1)


# matrices act on column vectors (p, q); these are the slope transfers
def _tw_matrix(n: int):
    return ((1, -n), (0, 1))


def _du_matrix(n: int):
    return ((1, 0), (-n, 1))


_EX_MATRIX = ((0, -1), (1, 0))


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


@dataclass(frozen=True)
class TwistWord:
    """A composite of tw/du/ex moves, applied left to right; tw^0 and du^0
    are dropped."""

    ops: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        for kind, _ in self.ops:
            if kind not in ("tw", "du", "ex"):
                raise ValueError(f"unknown operation {kind!r}")
        object.__setattr__(self, "ops", tuple((k, n) for k, n in self.ops if n or k == "ex"))

    def then(self, *ops: Tuple[str, int]) -> "TwistWord":
        """This word followed by the given (kind, power) moves."""
        return TwistWord(self.ops + ops)

    def matrix(self):
        m = ((1, 0), (0, 1))
        for kind, n in self.ops:
            step = _EX_MATRIX if kind == "ex" else (_tw_matrix(n) if kind == "tw" else _du_matrix(n))
            m = _mat_mul(step, m)
        return m

    def transfer(self, s: Slope) -> Slope:
        """The slope of W(loop) matching the slope s of loop."""
        m = self.matrix()
        return Slope(m[0][0] * s.p + m[0][1] * s.q, m[1][0] * s.p + m[1][1] * s.q)

    def pullback(self, s: Slope) -> Slope:
        """The slope of loop matching the slope s of W(loop)."""
        return self.inverse().transfer(s)

    def apply(self, l: Loop) -> Loop:
        for kind, n in self.ops:
            l = ex(l) if kind == "ex" else twist(l, kind, n)
        return l

    def inverse(self) -> "TwistWord":
        out: List[Tuple[str, int]] = []
        for kind, n in reversed(self.ops):
            # ex^{-1} = tw^{-1} du tw^{-1}
            out += [("tw", -1), ("du", 1), ("tw", -1)] if kind == "ex" else [(kind, -n)]
        return TwistWord(tuple(out))

    def __str__(self):
        return " ".join(f"{k}^{n}" if k != "ex" else "ex" for k, n in self.ops) or "id"


def twist(l: Loop, kind: str, n: int = 1) -> Loop:
    """Apply tw^n or du^n."""
    if kind not in ("tw", "du"):
        raise ValueError(f"unknown twist kind {kind!r}")
    if n == 0:
        return l
    w = word_or_none(l, "standard" if kind == "tw" else "dual")
    if w is None:
        return l  # loops without the notation are fixed
    # Loop canonicalizes the shifted word
    return Loop(shift_cd(w, n))


def shift_cd(w: LoopWord, n: int) -> LoopWord:
    """The word with c_j -> c_{j-n} and d_j -> d_{j+n}: tw^n of a standard
    word, du^n of a dual one.  Shifting c/d subscripts keeps a word valid."""
    star = w.star
    return LoopWord([
        intern_letter("c", x.subscript - n, star) if x.family == "c"
        else intern_letter("d", x.subscript + n, star) if x.family == "d"
        else x
        for x in w.letters
    ], validate=False)


def ex(l: Loop) -> Loop:
    """Negate every subscript and switch alphabet (tw then du^-1 then tw)."""
    return Loop(LoopWord(
        [intern_letter(x.family, -x.subscript, not x.star) for x in l.word.letters], validate=False
    ))


def reparametrization_word(s: Slope) -> TwistWord:
    """Twists taking the slope s to infinity (empty for s = infinity): tw and
    du alternate with the terms of the even-length continued fraction of s,
    floors in odd positions and ceilings in even ones."""
    terms: List[int] = []
    p, q = s.p, s.q
    while q:
        a = p // q if len(terms) % 2 == 0 else -(-p // q)
        terms.append(a)
        p, q = q, p - a * q
    if len(terms) % 2:
        terms[-1:] = [terms[-1] - 1, 1]
    w = TwistWord(tuple(("tw" if i % 2 == 0 else "du", a) for i, a in enumerate(terms)))
    assert w.transfer(s) == INFINITY, (s, w)
    return w


@lru_cache(maxsize=16384)
def _reparametrize_one(l: Loop, s: Slope) -> Loop:
    return reparametrization_word(s).apply(l)


def reparametrize(l, s: Slope):
    """The loop (or list of loops) whose infinity filling is the s filling."""
    if isinstance(l, Loop):
        return _reparametrize_one(l, s)
    return [_reparametrize_one(x, s) for x in l]


@dataclass(frozen=True)
class FillingResult:
    dim: int
    chi_abs: int
    per_loop: Tuple[Tuple[int, int], ...]
    is_lspace: bool

    @staticmethod
    def from_counts(per) -> "FillingResult":
        """The filling of a loop set from its per-loop (dim, |chi|) counts: an
        L-space exactly when every loop has dim = |chi| > 0."""
        per = tuple(per)
        return FillingResult(sum(d for d, _ in per), sum(c for _, c in per), per,
                             all(d == c != 0 for d, c in per))

    def __str__(self):
        return f"dim={self.dim} chi={self.chi_abs} lspace={'yes' if self.is_lspace else 'no'}"


def _count_filling(l: Loop, alphabet: str) -> Tuple[int, int]:
    """(dim, |chi|) of the infinity ('standard') or zero ('dual') filling of
    a single loop."""
    w = word_or_none(l, alphabet)
    if w is None:
        return 2, 0  # two generators of opposite grading
    dual = alphabet == "dual"
    cancelling = "b" if dual else "a"
    n_cancelling = sum(1 for x in w.letters if x.family == cancelling)
    return len(w) - 2 * n_cancelling, abs(euler_chars(l)[dual])


def fill(loops, s: Slope) -> FillingResult:
    """Fast-path abstract Dehn filling of a loop or list of loops.

    Reparametrizes so the requested slope sits at infinity, then counts:
    generators are the i0 vertices, with one cancelling differential per
    a-family chain; at slope zero the symmetric dual-side count is used.
    """
    return FillingResult.from_counts(
        _count_filling(l, "dual") if s == ZERO_SLOPE
        else _count_filling(reparametrize(l, s), "standard")
        for l in as_loops(loops)
    )
