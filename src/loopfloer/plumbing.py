"""Plumbing trees and the twist / extend / merge pipeline.

A tree with one boundary half-edge evaluates recursively: the single vertex
of weight w is the loop (d_w); a valence-two boundary vertex contributes a
twist power of an extend move; higher valence splits the boundary weight and
merges the two halves.  Merge inputs must consist of standard unstable
chains only, which holds whenever every non-boundary vertex is good; the
pipeline checks the condition dynamically and fails fast otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .detection import ex_on_ks
from .loops import Letter, Loop, LoopWord, expressible, unstable_subscripts, word_in, word_or_none
from .twists import FillingResult, Slope, ex, fill, twist


class TreeError(ValueError):
    pass


class PipelineError(ValueError):
    """The tree is not computable by the unstable-chain pipeline."""


@dataclass
class PlumbingTree:
    weights: Dict[int, int]
    edges: List[Tuple[int, int]]
    boundary: Optional[int] = None

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        ids = set(self.weights)
        if not ids:
            raise TreeError("empty tree")
        for a, b in self.edges:
            if a not in ids or b not in ids:
                raise TreeError(f"edge ({a},{b}) references a missing vertex")
            if a == b:
                raise TreeError("self-loop edge")
        if self.boundary is not None and self.boundary not in ids:
            raise TreeError(f"boundary vertex {self.boundary} does not exist")
        if len(self.edges) != len(ids) - 1:
            raise TreeError("vertex/edge count is not a tree")
        # connectivity
        adj = self.adjacency()
        seen = {next(iter(ids))}
        stack = list(seen)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != ids:
            raise TreeError("tree is not connected")

    def adjacency(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {v: [] for v in self.weights}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def with_boundary(self, v: int) -> "PlumbingTree":
        return PlumbingTree(dict(self.weights), list(self.edges), v)


def parse_tree(text: str) -> PlumbingTree:
    """Line format: 'v <id> <weight>', 'e <id> <id>', 'b <id>' (at most one),
    '#' comments."""
    weights: Dict[int, int] = {}
    edges: List[Tuple[int, int]] = []
    boundary: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 3:
                vid = int(parts[1])
                if vid in weights:
                    raise TreeError(f"line {lineno}: duplicate vertex {vid}")
                weights[vid] = int(parts[2])
            elif parts[0] == "e" and len(parts) == 3:
                edges.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "b" and len(parts) == 2:
                if boundary is not None:
                    raise TreeError(f"line {lineno}: second boundary marker")
                boundary = int(parts[1])
            else:
                raise TreeError(f"line {lineno}: cannot parse {raw!r}")
        except ValueError as err:
            if isinstance(err, TreeError):
                raise
            raise TreeError(f"line {lineno}: cannot parse {raw!r}") from None
    return PlumbingTree(weights, edges, boundary)


def format_tree(t: PlumbingTree) -> str:
    lines = [f"v {v} {w}" for v, w in sorted(t.weights.items())]
    lines += [f"e {a} {b}" for a, b in t.edges]
    if t.boundary is not None:
        lines.append(f"b {t.boundary}")
    return "\n".join(lines) + "\n"


def classify_vertices(t: PlumbingTree) -> Dict[int, str]:
    """'bad' iff -n_-(v) < w(v) < n_+(v), counting neighbours with weight
    >= 0 and <= 0 respectively."""
    adj = t.adjacency()
    out = {}
    for v, w in t.weights.items():
        np_ = sum(1 for u in adj[v] if t.weights[u] >= 0)
        nm = sum(1 for u in adj[v] if t.weights[u] <= 0)
        out[v] = "bad" if -nm < w < np_ else "good"
    return out


# ---------------------------------------------------------------------------
# merge

# ('d', ks): standard all-d word with the given subscripts
# ('estar', n): the dual word of n e* letters (no standard notation)
# ('loop', Loop): anything else, e.g. a mixed-sign extend output
_Internal = Tuple[str, Union[Tuple[int, ...], int, Loop]]


def _merge_dd(ks1: Sequence[int], ks2: Sequence[int]) -> List[Tuple[int, ...]]:
    m, n = len(ks1), len(ks2)
    g = gcd(m, n)
    length = m * n // g
    out = []
    for c in range(g):
        word = []
        i, j = 0, c
        for _ in range(length):
            word.append(ks1[i] + ks2[j])
            i += 1
            if i == m:
                i = 0
            j += 1
            if j == n:
                j = 0
        out.append(tuple(word))
    return out


def _merge_internal(a: _Internal, b: _Internal) -> List[_Internal]:
    if a[0] != "d" and b[0] == "d":
        a, b = b, a
    if a[0] != "d":
        raise PipelineError("merge requires one side with standard unstable chains")
    if b[0] == "d":
        return [("d", ks) for ks in _merge_dd(a[1], b[1])]
    if b[0] == "estar":
        return [("estar", b[1])] * len(a[1])
    return [("loop", l) for l in merge_loops(_internal_to_loop(a), b[1])]


def merge_loops(l1: Loop, l2: Loop) -> List[Loop]:
    """Merge of two loops; the first must carry only unstable standard
    chains (an all-c word is reversed first).

    When the second loop has no i0 vertices the result is one copy of it per
    segment of the first; otherwise the output is read off the merge grid:
    a_l and b_l segments pass through, c_l becomes c_{l-k}, and d_l becomes
    d_{k+l} against a d_k segment of the first loop.
    """
    ks = unstable_subscripts(l1)
    if ks is None:
        raise PipelineError("merge requires unstable side")
    w2 = word_or_none(l2, "standard")
    if w2 is None:
        return [l2] * len(ks)
    m, n = len(ks), len(w2)
    # tails[vertex] = (letter, head vertex); vertices are (row, column) pairs
    tails: Dict[Tuple[int, int], Tuple[Letter, Tuple[int, int]]] = {}
    for i in range(m):
        k = ks[i]
        for j, x in enumerate(w2.letters):
            j1 = (j + 1) % n
            if x.family == "a":
                tails[((i + 1) % m, j)] = (x, ((i + 1) % m, j1))
            elif x.family == "b":
                tails[(i, j)] = (x, (i, j1))
            elif x.family == "c":
                tails[((i + 1) % m, j)] = (Letter("c", x.subscript - k, x.star), (i, j1))
            else:
                tails[(i, j)] = (Letter("d", k + x.subscript, x.star), ((i + 1) % m, j1))
    out: List[Loop] = []
    seen = set()
    for start in sorted(tails):
        if start in seen:
            continue
        letters = []
        v = start
        while True:
            seen.add(v)
            letter, v = tails[v]
            letters.append(letter)
            if v == start:
                break
        out.append(Loop(LoopWord(letters)))
    return out


# ---------------------------------------------------------------------------
# the pipeline


def _canon_key(t: PlumbingTree, v: int, parent: Optional[int]):
    children = [u for u in t.adjacency()[v] if u != parent]
    return (t.weights[v], tuple(sorted(_canon_key(t, u, v) for u in children)))


def _tw_internal(l: _Internal, n: int) -> _Internal:
    if l[0] == "estar" or n == 0:
        return l
    if l[0] == "d":
        return ("d", tuple(k + n for k in l[1]))
    return ("loop", twist(l[1], "tw", n))


def _ex_internal(l: _Internal) -> _Internal:
    if l[0] == "estar":
        return ("d", (0,) * l[1])
    if l[0] == "loop":
        return _classify_loop(ex(l[1]))
    ks = l[1]
    if all(k == 0 for k in ks):
        return ("estar", len(ks))
    if all(k >= 0 for k in ks) or all(k <= 0 for k in ks):
        return ("d", ex_on_ks(ks))
    # mixed signs: the result is dual-unstable but not standard-unstable
    return _classify_loop(
        Loop(LoopWord([Letter("d", -k, True) for k in ks], validate=False))
    )


def _classify_loop(l: Loop) -> _Internal:
    if not expressible(l, "standard"):
        return ("estar", len(word_in(l, "dual")))
    ks = unstable_subscripts(l)
    return ("loop", l) if ks is None else ("d", ks)


def _eval_subtree(t: PlumbingTree, v: int, weight: int, children: List[int],
                  adj: Dict[int, List[int]]) -> List[_Internal]:
    if not children:
        return [("d", (weight,))]
    if len(children) == 1:
        c = children[0]
        sub = _eval_subtree(t, c, t.weights[c], [u for u in adj[c] if u != v], adj)
        return [_tw_internal(_ex_internal(l), weight) for l in sub]
    ordered = sorted(children, key=lambda u: _canon_key(t, u, v))
    first, rest = ordered[0], ordered[1:]
    np_ = sum(1 for u in children if t.weights[u] >= 0)
    if weight >= np_:
        w1 = 1 if t.weights[first] >= 0 else 0
    else:
        w1 = -1 if t.weights[first] <= 0 else 0
    part1 = _eval_subtree(t, v, w1, [first], adj)
    part2 = _eval_subtree(t, v, weight - w1, rest, adj)
    out: List[_Internal] = []
    for a in part1:
        for b in part2:
            out.extend(_merge_internal(a, b))
    return out


def _internal_to_loop(l: _Internal) -> Loop:
    if l[0] == "estar":
        return Loop(LoopWord([Letter("d", 0, True)] * l[1], validate=False))
    if l[0] == "loop":
        return l[1]
    return Loop(LoopWord([Letter("d", k, False) for k in l[1]], validate=False))


def cfd_internal(t: PlumbingTree) -> List[_Internal]:
    if t.boundary is None:
        raise TreeError("cfd needs a tree with a boundary half-edge")
    adj = t.adjacency()
    v0 = t.boundary
    return _eval_subtree(t, v0, t.weights[v0], list(adj[v0]), adj)


def cfd(t: PlumbingTree) -> List[Loop]:
    """Bordered invariant of a single-boundary plumbing tree as loops."""
    return [_internal_to_loop(l) for l in cfd_internal(t)]


def _dual_fill_counts(l: _Internal) -> Tuple[int, int]:
    """(dim, |chi|) of the dual filling of a pipeline loop."""
    if l[0] == "estar":
        return l[1], l[1]  # dual word is (e*)^n: n circles, no stable chains
    if l[0] == "loop":
        return fill(l[1], Slope(0, 1)).per_loop[0]
    ks = l[1]
    if all(k == 0 for k in ks):
        return 2, 0  # all-e word has no dual notation
    circles = sum(abs(k) for k in ks)
    signs = [1 if k > 0 else -1 for k in ks if k != 0]
    flips = sum(1 for i in range(len(signs)) if signs[i] != signs[(i - 1) % len(signs)])
    return circles - flips, abs(sum(ks))


def hf_dim_closed(t: PlumbingTree) -> Tuple[int, bool]:
    """Total dimension of the invariant of a closed plumbing tree, plus the
    L-space flag; requires at most one bad vertex."""
    if t.boundary is not None:
        raise TreeError("hf_dim_closed expects a closed tree")
    badness = classify_vertices(t)
    bad = sorted(v for v, kind in badness.items() if kind == "bad")
    if len(bad) > 1:
        raise PipelineError(f"{len(bad)} bad vertices: outside the pipeline's scope")
    if bad:
        attach = bad[0]
    else:
        adj = t.adjacency()
        attach = min(t.weights, key=lambda v: (-len(adj[v]), v))
    loops = cfd_internal(t.with_boundary(attach))
    res = FillingResult.from_counts(_dual_fill_counts(l) for l in loops)
    return res.dim, res.is_lspace


def plumbing_det(t: PlumbingTree) -> int:
    """Determinant of the tree's intersection matrix (weights on the
    diagonal, 1 for each edge), by fraction-free (Bareiss) elimination.  A
    closed tree's |det| is the order of its first homology, 0 when that is
    infinite."""
    ids = sorted(t.weights)
    n = len(ids)
    idx = {v: i for i, v in enumerate(ids)}
    m = [[0] * n for _ in ids]
    for v, w in t.weights.items():
        m[idx[v]][idx[v]] = w
    for a, b in t.edges:
        m[idx[a]][idx[b]] = m[idx[b]][idx[a]] = 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


# ---------------------------------------------------------------------------
# constructors


def negative_continued_fraction(p: int, q: int) -> List[int]:
    """p/q = c1 - 1/(c2 - 1/(...)) with every c_i >= 2, for p > q >= 1."""
    if not (p > q >= 1):
        raise TreeError("expects p > q >= 1")
    out = []
    while q:
        c = -((-p) // q)  # ceil(p / q)
        out.append(c)
        p, q = q, c * q - p
    return out


def seifert_tree(
    e0: int, cone_data: Sequence[Tuple[int, int]], bounded: bool = True
) -> PlumbingTree:
    """Star-shaped tree with central weight e0 and one leg per (a, b) pair
    of coprime integers with a > b >= 1; leg weights are at most -2, so all
    non-central vertices are good.  With bounded=True the boundary half-edge
    sits at the centre (a regular fiber removed)."""
    weights = {0: e0}
    edges = []
    nid = 1
    for a, b in cone_data:
        if not (a > b >= 1) or gcd(a, b) != 1:
            raise TreeError(f"invalid Seifert datum ({a}, {b})")
        prev = 0
        for c in negative_continued_fraction(a, b):
            weights[nid] = -c
            edges.append((prev, nid))
            prev = nid
            nid += 1
    return PlumbingTree(weights, edges, 0 if bounded else None)


def n_t_tree(t: int) -> PlumbingTree:
    """The 0-0 spine with +t and -t leaves, boundary on the first 0."""
    if t < 2:
        raise TreeError("t must be at least 2")
    return PlumbingTree({0: 0, 1: 0, 2: t, 3: -t}, [(0, 1), (1, 2), (1, 3)], 0)


def gamma_n_tree() -> PlumbingTree:
    return n_t_tree(2)


def staircase_loop(exponents: Sequence[int], framing: int, tau: int) -> Loop:
    """Loop of an alternating staircase with the given framing.

    exponents is the even-length list of alternating step lengths; the word
    is a_{k1} b_{k2} ... a b followed by the unstable chain c_{2*tau-framing},
    calibrated so framing 0 with exponents [1, 1] and tau -1 gives the
    left-handed trefoil loop (a1 b1 c-2).
    """
    if len(exponents) % 2 != 0 or not exponents:
        raise ValueError("exponents must be a nonempty even-length list")
    if any(k <= 0 for k in exponents):
        raise ValueError("staircase exponents must be positive")
    letters = []
    for i, k in enumerate(exponents):
        letters.append(Letter("a" if i % 2 == 0 else "b", k))
    letters.append(Letter("c", 2 * tau - framing))
    return Loop(LoopWord(letters))
