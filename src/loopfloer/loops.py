"""Cyclic words over the standard and dual alphabets, and their graphs.

A letter is (family, subscript, star) with family in 'abcd'.  Barred letters
are stored with negative subscripts via the identifications

    a_{-i} = reverse of a_i,  b_{-i} = reverse of b_i,
    c_{-j} = reverse of d_j,  d_{-j} = reverse of c_j,

with d_0 written 'e' and c_0 its reverse (same with stars).  A loop is the
equivalence class of a valid cyclic word under rotation and reversal; a loop
with vertices in both idempotents has exactly one word in each alphabet up to
that equivalence.  A step transducer converts between the alphabets and reads
off the Euler characteristics letter by letter; words convert to decorated
graphs and back only for the oracle and as the tests' reference.

Letters are interned: the constructors on the hot paths (bar, negate, the
transducer, parse_word, and the twists' shift_cd and ex) hand out one shared
Letter per value from a bounded table, so converting and twisting words
builds no new dataclass per letter.  Letters still compare by value.  The
graph of a word numbers its vertices with ints, anchors first, so the
oracle's graphs carry no tuple ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import DecoratedGraph, GraphError, IDENT


class WordError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Letter:
    family: str  # 'a' | 'b' | 'c' | 'd'
    subscript: int
    star: bool = False

    def __post_init__(self):
        if self.family not in "abcd":
            raise WordError(f"bad family {self.family!r}")
        if self.family in "ab" and self.subscript == 0:
            raise WordError(f"{self.family}0 is not a letter")

    def bar(self) -> "Letter":
        """The same segment traversed backwards."""
        return intern_letter(_BAR_FAMILY[self.family], -self.subscript, self.star)

    def negate(self) -> "Letter":
        return intern_letter(self.family, -self.subscript, self.star)

    def __str__(self) -> str:
        star = "*" if self.star else ""
        if self.family == "d" and self.subscript == 0:
            return "e" + star
        return f"{self.family}{star}{self.subscript}"


_BAR_FAMILY = {"a": "a", "b": "b", "c": "d", "d": "c"}

# the shared Letters, keyed by value (see the module docstring)
_INTERNED: Dict[Tuple[str, int, bool], Letter] = {}
_INTERN_LIMIT = 1 << 16


def intern_letter(family: str, subscript: int, star: bool = False) -> Letter:
    """The shared Letter of a value; a value met once the table is full
    gets an instance of its own."""
    x = _INTERNED.get((family, subscript, star))
    if x is None:
        x = Letter(family, subscript, star)
        if len(_INTERNED) < _INTERN_LIMIT:
            _INTERNED[family, subscript, star] = x
    return x


# Puzzle-piece classes at the break idempotent: each anchor vertex carries one
# edge-end of each class; consecutive letters must present opposite classes.
_START_CLASS = {"a": 2, "b": 1, "c": 2, "d": 1}
_END_CLASS = {"a": 2, "b": 1, "c": 1, "d": 2}


def _adjacent_ok(prev: Letter, nxt: Letter) -> bool:
    return _END_CLASS[prev.family] != _START_CLASS[nxt.family]


class LoopWord:
    """A validated cyclic word; letters all share one star flag."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence[Letter], validate: bool = True):
        letters = tuple(letters)
        if not letters:
            raise WordError("empty word")
        if validate:
            violations = word_violations(letters)
            if violations:
                raise WordError("; ".join(violations))
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("LoopWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, LoopWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    @property
    def star(self) -> bool:
        return self.letters[0].star

    def reversal(self) -> "LoopWord":
        return LoopWord(tuple(l.bar() for l in reversed(self.letters)), validate=False)

    def __str__(self):
        return " ".join(str(l) for l in self.letters)

    def __repr__(self):
        return f"LoopWord({self})"


def word_violations(letters: Sequence[Letter]) -> List[str]:
    """Constraint violations of a cyclic letter sequence (empty list = valid)."""
    out: List[str] = []
    stars = {l.star for l in letters}
    if len(stars) > 1:
        out.append("mixed alphabets in one word")
        return out
    n = len(letters)
    for i, l in enumerate(letters):
        nxt = letters[(i + 1) % n]
        if not _adjacent_ok(l, nxt):
            out.append(f"letters {l} and {nxt} cannot be adjacent")
    na = sum(1 for l in letters if l.family == "a")
    nb = sum(1 for l in letters if l.family == "b")
    if na != nb:
        out.append(f"{na} a-letters vs {nb} b-letters")
    return out


_LETTER_KEY = {"a": 0, "b": 1, "c": 2, "d": 3}


def _word_key(letters: Tuple[Letter, ...]):
    return tuple((_LETTER_KEY[l.family], l.subscript, l.star) for l in letters)


@dataclass(frozen=True)
class Loop:
    """A loop: a cyclic word up to rotation, reversal, and change of
    alphabet.

    The canonical representative is the least standard-alphabet word when
    the loop has an i0 vertex, so words in either alphabet construct equal
    Loops; all-e* loops keep their dual word.  The word in the other alphabet
    and the Euler characteristics are computed once, on first use.
    """

    word: LoopWord

    def __post_init__(self):
        w = self.word
        if w.star:
            std = _other_letters(w)
            if std is not None:
                w = LoopWord(std, validate=False)
        object.__setattr__(self, "word", canonicalize(w))

    @staticmethod
    def from_letters(letters: Sequence[Letter]) -> "Loop":
        return Loop(LoopWord(letters))

    @staticmethod
    def from_text(text: str) -> "Loop":
        return Loop(parse_word(text))

    def __str__(self):
        return f"({self.word})"

    def __repr__(self):
        return f"Loop{self}"

    def __len__(self):
        return len(self.word)

    @property
    def star(self) -> bool:
        return self.word.star

    @cached_property
    def other_word(self) -> Optional[LoopWord]:
        """Canonical word in the alphabet `word` does not use; None for
        loops whose vertices all lie in one idempotent."""
        other = _other_letters(self.word)
        return None if other is None else canonicalize(LoopWord(other, validate=False))

    @cached_property
    def chi(self) -> Tuple[int, int]:
        """(chi_bullet, chi_circle) with anchor 0 of `word` at grading 0."""
        return _euler_chars(self.word)


def _least_rotation(keys: Sequence) -> int:
    """Booth's algorithm: index of the lexicographically least rotation."""
    s = list(keys) + list(keys)
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def canonicalize(w: LoopWord) -> LoopWord:
    """Lexicographically least rotation among the word and its reversal."""
    candidates = []
    for word in (w, w.reversal()):
        keys = _word_key(word.letters)
        k = _least_rotation(keys)
        candidates.append(word.letters[k:] + word.letters[:k])
    best = min(candidates, key=_word_key)
    return LoopWord(best, validate=False)


_TOKEN = re.compile(r"^([abcde])(\*?)(-?\d+)?$")


def parse_word(text: str) -> LoopWord:
    """Parse a whitespace-separated word; 'e' is d0, 'e*' is d*0."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    letters = []
    for pos, tok in enumerate(text.split()):
        m = _TOKEN.match(tok)
        if not m:
            raise WordError(f"token {pos}: cannot parse {tok!r}")
        fam, star, sub = m.group(1), m.group(2) == "*", m.group(3)
        if fam == "e":
            if sub is not None:
                raise WordError(f"token {pos}: 'e' takes no subscript")
            fam, sub = "d", 0
        else:
            if sub is None:
                raise WordError(f"token {pos}: missing subscript in {tok!r}")
            sub = int(sub)
        if fam in "ab" and sub == 0:
            raise WordError(f"token {pos}: {fam}0 is not a letter")
        letters.append(intern_letter(fam, sub, star))
    return LoopWord(letters)


def split_loops(text: str) -> List[str]:
    """The texts of the '|'-separated loops of an input; '#' starts a
    comment."""
    text = " ".join(line.split("#")[0] for line in text.splitlines())
    parts = [p for p in text.split("|") if p.strip()]
    if not parts:
        raise WordError("no loops in input")
    return parts


def parse_loops(text: str) -> List[Loop]:
    """Parse '|'-separated loops; '#' starts a comment."""
    return [Loop.from_text(p) for p in split_loops(text)]


def format_loops(loops: Sequence[Loop]) -> str:
    return " | ".join(str(l) for l in loops)


def as_loops(loops) -> List[Loop]:
    """A Loop as a one-element list; any other iterable of Loops as a list."""
    return [loops] if isinstance(loops, Loop) else list(loops)


# ---------------------------------------------------------------------------
# word <-> graph


def _emit_standard(edges: list, letter: Letter, a: int, b: int, first: int) -> int:
    """Add the edges of the letter's segment between bullet anchors a -> b,
    its interior (circle) vertices numbered from first; their number."""
    if letter.subscript < 0:
        letter, a, b = letter.bar(), b, a
    fam, k = letter.family, letter.subscript
    if k == 0:
        edges.append((a, b, "12") if fam == "d" else (b, a, "12"))
        return 0
    last = first + k - 1
    edges += [(u, u + 1, "23") for u in range(first, last)]
    if fam == "a":
        edges += ((a, first, "3"), (last, b, "2"))
    elif fam == "c":
        edges += ((a, first, "3"), (b, last, "1"))
    elif fam == "d":
        edges += ((a, first, "123"), (last, b, "2"))
    else:  # b
        edges += ((a, first, "123"), (b, last, "1"))
    return k


def _emit_dual(edges: list, letter: Letter, a: int, b: int, first: int) -> int:
    """Add the edges of the letter's segment between circle anchors a -> b,
    its interior (bullet) vertices numbered from first; their number."""
    if letter.subscript < 0:
        letter, a, b = letter.bar(), b, a
    fam, k = letter.family, letter.subscript
    if k == 0:
        edges.append((a, b, "23") if fam == "d" else (b, a, "23"))
        return 0
    last = first + k - 1
    edges += [(u, u + 1, "12") for u in range(first, last)]
    if fam == "a":
        edges += ((first, a, "3"), (last, b, "123"))
    elif fam == "c":
        edges += ((first, a, "3"), (last, b, "1"))
    elif fam == "d":
        edges += ((a, first, "2"), (last, b, "123"))
    else:  # b
        edges += ((a, first, "2"), (last, b, "1"))
    return k


def word_to_graph(w: LoopWord) -> DecoratedGraph:
    """The decorated graph of a word: vertex i < len(w) is the anchor the
    letter at index i starts from, and each letter's interior vertices
    follow, numbered in the order of the letters."""
    n = len(w)
    emit = _emit_dual if w.star else _emit_standard
    edges: list = []
    nxt = n
    for i, letter in enumerate(w.letters):
        nxt += emit(edges, letter, i, (i + 1) % n, nxt)
    anchor, interior = ("1", "0") if w.star else ("0", "1")
    vertices = dict.fromkeys(range(n), anchor)
    vertices.update(dict.fromkeys(range(n, nxt), interior))
    g = DecoratedGraph(vertices, edges)
    g.check()
    return g


def star_check(g: DecoratedGraph) -> List[str]:
    """Violations of the valence-two adjacency constraint on a reduced graph."""
    out = []
    ends: Dict = {v: [] for v in g.vertices}
    for s, t, label in g.edges:
        if label is IDENT:
            out.append("identity edge present")
            return out
        ends[s].append(("out", label))
        ends[t].append(("in", label))
    cls_bullet = {
        ("out", "1"): 1, ("out", "12"): 1, ("out", "123"): 1,
        ("in", "12"): 2, ("in", "2"): 2, ("out", "3"): 2,
    }
    cls_circle = {
        ("in", "1"): 1, ("out", "23"): 1, ("out", "2"): 1,
        ("in", "123"): 2, ("in", "23"): 2, ("in", "3"): 2,
    }
    for v, ee in ends.items():
        if len(ee) != 2:
            out.append(f"vertex {v} has valence {len(ee)}")
            continue
        table = cls_bullet if g.vertices[v] == "0" else cls_circle
        classes = sorted(table.get(e, 0) for e in ee)
        if classes != [1, 2]:
            out.append(f"vertex {v} violates the adjacency constraint")
    return out


class NotExpressible(WordError):
    pass


# ---------------------------------------------------------------------------
# the step transducer: both alphabets and the Euler characteristics without
# a graph

# (first, middle, last) steps of a letter with subscript k > 0 walked from its
# start anchor to its end anchor, as (label, direction) pairs; direction -1
# traverses an edge backwards.  These are the edges _emit_standard and
# _emit_dual write: k + 1 steps, the middle one repeated k - 1 times, the
# first k ending at interior vertices and the last at the next anchor.
_POSITIVE_SEGMENTS = {
    ("a", False): (("3", 1), ("23", 1), ("2", 1)),
    ("b", False): (("123", 1), ("23", 1), ("1", -1)),
    ("c", False): (("3", 1), ("23", 1), ("1", -1)),
    ("d", False): (("123", 1), ("23", 1), ("2", 1)),
    ("a", True): (("3", -1), ("12", 1), ("123", 1)),
    ("b", True): (("2", 1), ("12", 1), ("1", 1)),
    ("c", True): (("3", -1), ("12", 1), ("1", 1)),
    ("d", True): (("2", 1), ("12", 1), ("123", 1)),
}
# keyed by (family, sign of k, star): the barred partner of a letter walks
# its steps backwards
_SEGMENTS = {}
for (_fam, _star), _seg in _POSITIVE_SEGMENTS.items():
    _SEGMENTS[_fam, 1, _star] = _seg
    _SEGMENTS[_BAR_FAMILY[_fam], -1, _star] = tuple(
        (label, -d) for label, d in reversed(_seg))
# the single step of d_0 (c_0 walks it backwards) between two anchors
_ZERO_LABEL = {False: "12", True: "23"}
# the inverse of _SEGMENTS: (first, last, star) -> (family, sign, middle)
_SEGMENT_LETTER = {(seg[0], seg[2], star): (fam, sign, seg[1])
                   for (fam, sign, star), seg in _SEGMENTS.items()}


def _recognize(chunk: List[Tuple[str, int]], star: bool) -> Letter:
    """Letter for a list of (label, direction) steps between anchors."""
    if len(chunk) == 1 and chunk[0][0] == _ZERO_LABEL[star]:
        return intern_letter("d" if chunk[0][1] == 1 else "c", 0, star)
    if len(chunk) > 1:
        hit = _SEGMENT_LETTER.get((chunk[0], chunk[-1], star))
        if hit is not None and all(m == hit[2] for m in chunk[1:-1]):
            return intern_letter(hit[0], hit[1] * (len(chunk) - 1), star)
    raise WordError(f"unrecognized segment {chunk}")


# a middle step runs between two interior vertices: in the other alphabet it
# is a letter of its own, keyed here by (step, star of the word walked)
_MIDDLE_LETTER = {
    (seg[1], star): _recognize([seg[1]], not star)
    for (_, _, star), seg in _SEGMENTS.items()
}


def _other_letters(w: LoopWord) -> Optional[List[Letter]]:
    """The loop's letters in the other alphabet, read off the steps of w
    broken at the interior vertices; None when there are none."""
    star = w.star
    # other-alphabet letters, or the steps of one still to be recognized
    out: list = []
    chunk: List[Tuple[str, int]] = []
    for x in w.letters:
        k = x.subscript
        if k == 0:
            chunk.append((_ZERO_LABEL[star], 1 if x.family == "d" else -1))
            continue
        first, mid, last = _SEGMENTS[x.family, 1 if k > 0 else -1, star]
        chunk.append(first)
        out.append(chunk)
        out.extend([_MIDDLE_LETTER[mid, star]] * (abs(k) - 1))
        chunk = [last]
    if not out:
        return None
    # the steps after the last interior vertex open the first chunk
    out[0] = chunk + out[0]
    return [x if type(x) is Letter else _recognize(x, not star) for x in out]


def _euler_chars(w: LoopWord) -> Tuple[int, int]:
    """(chi_bullet, chi_circle) summed over the vertices the steps of w
    reach, anchor 0 at grading 0.  A step flips the grading unless its label
    contains a 2, so the 12 and 23 steps (zero letters, middle steps) keep
    it; raises GraphError when the grading is inconsistent around the cycle.
    """
    star = w.star
    gr = 0
    chi_anchor = chi_interior = 0
    for x in w.letters:
        k = x.subscript
        if k == 0:
            chi_anchor += 1 - 2 * gr
            continue
        first, _, last = _SEGMENTS[x.family, 1 if k > 0 else -1, star]
        gr ^= "2" not in first[0]
        chi_interior += abs(k) * (1 - 2 * gr)
        gr ^= "2" not in last[0]
        chi_anchor += 1 - 2 * gr
    if gr:
        raise GraphError("inconsistent relative grading")
    return (chi_interior, chi_anchor) if star else (chi_anchor, chi_interior)


def graph_to_words(g: DecoratedGraph, alphabet: str = "standard") -> List[LoopWord]:
    """Break each cycle of a reduced valence-two graph into a word.

    alphabet 'standard' breaks at i0 vertices, 'dual' at i1 vertices; raises
    NotExpressible for components without an anchor of the requested kind.
    """
    if alphabet not in ("standard", "dual"):
        raise WordError(f"unknown alphabet {alphabet!r}")
    star = alphabet == "dual"
    anchor_idem = "1" if star else "0"
    bad = star_check(g)
    if bad:
        raise GraphError("; ".join(bad))
    # edge-end incidence: vertex -> [(edge index, end)], end 0 = src, 1 = tgt
    inc: Dict = {v: [] for v in g.vertices}
    for i, (s, t, _) in enumerate(g.edges):
        inc[s].append((i, 0))
        inc[t].append((i, 1))
    words: List[LoopWord] = []
    seen_edges = set()
    for comp in g.components():
        anchors = sorted(v for v in comp if g.vertices[v] == anchor_idem)
        if not anchors:
            raise NotExpressible(
                f"component not expressible in {alphabet} notation"
            )
        start = anchors[0]
        ei, end = inc[start][0]
        steps: List[Tuple[str, int]] = []
        breaks: List[int] = []
        v = start
        while True:
            s, t, label = g.edges[ei]
            seen_edges.add(ei)
            direction = 1 if end == 0 else -1
            steps.append((label, direction))
            v = t if direction == 1 else s
            if g.vertices[v] == anchor_idem:
                breaks.append(len(steps))
            arrived = (ei, 1 - end)
            nxt = [e for e in inc[v] if e != arrived]
            if len(nxt) != 1:
                raise GraphError(f"vertex {v} is not valence two")
            ei, end = nxt[0]
            if v == start and len(steps) >= 1 and (ei, end) == inc[start][0]:
                break
        letters = []
        prev = 0
        for b in breaks:
            letters.append(_recognize(steps[prev:b], star))
            prev = b
        words.append(LoopWord(letters))
    if len(seen_edges) != len(g.edges):
        raise GraphError("graph has extra structure beyond its cycles")
    return words


def word_or_none(l: Loop, alphabet: str) -> Optional[LoopWord]:
    """The loop's canonical word in the requested alphabet, or None for a
    loop whose vertices all lie in the other idempotent."""
    return l.word if l.star == (alphabet == "dual") else l.other_word


def dual_word(l: Loop) -> LoopWord:
    """Canonical word of the loop in the alphabet its representative does
    not use; raises NotExpressible for single-idempotent loops."""
    return word_in(l, "standard" if l.star else "dual")


def word_in(l: Loop, alphabet: str) -> LoopWord:
    """The loop's canonical word in the requested alphabet."""
    w = word_or_none(l, alphabet)
    if w is None:
        raise NotExpressible("no dual representation")
    return w


def expressible(l: Loop, alphabet: str) -> bool:
    return word_or_none(l, alphabet) is not None


def euler_chars(l: Loop) -> Tuple[int, int]:
    """(chi_bullet, chi_circle) with the base vertex counted positively."""
    return l.chi


def unstable_subscripts(l: Loop) -> Optional[Tuple[int, ...]]:
    """The subscripts of the loop's standard word read as an all-d word, or
    None unless every letter of that word is a c or a d (a valid word never
    mixes the two; an all-c word is read backwards)."""
    w = word_or_none(l, "standard")
    if w is None:
        return None
    fams = {x.family for x in w.letters}
    if fams <= {"c"}:
        w = w.reversal()
    elif not fams <= {"d"}:
        return None
    return tuple(x.subscript for x in w.letters)


def rational_longitude(loops) -> Optional["Slope"]:
    """The distinguished slope -chi_circle/chi_bullet, or None when both
    characteristics vanish (no rational-homology-solid-torus behaviour).

    Accepts a Loop or a list of Loops; for a list the per-loop longitudes
    must agree.
    """
    from .twists import Slope

    slopes = set()
    for l in as_loops(loops):
        cb, cc = euler_chars(l)
        slopes.add(None if cb == 0 and cc == 0 else Slope(-cc, cb))
    if len(slopes) != 1:
        raise WordError("components have different rational longitudes")
    return slopes.pop()


def mirror(l: Loop) -> Loop:
    """Negate every subscript (an involution on valid loops)."""
    return Loop.from_letters([x.negate() for x in l.word])
