"""Torus algebra over F2, decorated graphs, edge reduction, and F2 homology.

The F2 core holds a chain complex as rows, one Python int bitset per
generator giving its differential, numbered densely within each component:
the grading flip is a mask test, d^2 = 0 is the XOR of each row's target
rows, and ranks are taken by elimination over the same rows.

The algebra has idempotents i0, i1 and six nontrivial elements rho_I indexed
by the strictly increasing strings I in {1, 2, 3, 12, 23, 123}.  Elements are
represented by their index strings; idempotents by 'i0'/'i1'; zero by the
string 'zero'.  Decorated graphs label directed edges by index strings, or by
None for an identity (unlabeled) edge, which is kept out of the algebra
arithmetic on purpose: reduction is purely structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

RHOS = ("1", "2", "3", "12", "23", "123")
IDEMPOTENTS = ("i0", "i1")
ZERO = "zero"

# rho_I has left idempotent i_{first digit parity} per the standard convention:
# rho1: i0 -> i1, rho2: i1 -> i0, rho3: i0 -> i1.
_LEFT = {"1": "i0", "2": "i1", "3": "i0", "12": "i0", "23": "i1", "123": "i0"}
_RIGHT = {"1": "i1", "2": "i0", "3": "i1", "12": "i0", "23": "i1", "123": "i1"}


def left_idem(a: str) -> str:
    if a in IDEMPOTENTS:
        return a
    return _LEFT[a]


def right_idem(a: str) -> str:
    if a in IDEMPOTENTS:
        return a
    return _RIGHT[a]


def multiply(a: str, b: str) -> str:
    """Product of two algebra elements; returns 'zero' for vanishing products."""
    if a == ZERO or b == ZERO:
        return ZERO
    if a in IDEMPOTENTS:
        if b in IDEMPOTENTS:
            return a if a == b else ZERO
        return b if left_idem(b) == a else ZERO
    if b in IDEMPOTENTS:
        return a if right_idem(a) == b else ZERO
    cat = a + b
    return cat if cat in RHOS else ZERO


def grading(a: str) -> int:
    """Mod-2 grading: rho1 and rho3 have grading 0, everything else grading 1."""
    if a in IDEMPOTENTS or a == ZERO:
        return 0
    return 1 if "2" in a else 0


IDENT = None  # label of an identity edge in a decorated graph

# the (label, source idempotent, target idempotent) triples an edge may
# have, and the change of relative grading along an edge: 1 - gr(rho_I), or
# a flip for an identity edge
_EDGE_ENDS = {(a, _LEFT[a][1], _RIGHT[a][1]) for a in RHOS} | {(IDENT, i, i) for i in "01"}
_EDGE_FLIP = {IDENT: 1, **{a: 1 - grading(a) for a in RHOS}}


class GraphError(ValueError):
    pass


@dataclass
class DecoratedGraph:
    """Directed graph with i0 ('0', drawn as a bullet) / i1 ('1', circle)
    vertices and algebra-or-identity edge labels.

    Edges are a plain list of (src, tgt, label) triples; parallel edges are
    allowed.  Vertex ids must be hashable and mutually comparable so that a
    deterministic base point exists in every component.

    `topology` holds a topological order once `sort_topologically` has
    found the graph acyclic, so that later stages need not sort it again.
    `outs` and `grades` hold the out-edges and the relative grading once
    `out_edges` and `gradings` have computed them, so that each pairing a
    graph takes part in reads them.  add_vertex and add_edge clear all
    three; code that edits `vertices` or `edges` directly must clear them
    too.
    """

    vertices: Dict[Hashable, str] = field(default_factory=dict)
    edges: List[Tuple[Hashable, Hashable, Optional[str]]] = field(default_factory=list)
    topology: Optional[List[Hashable]] = field(default=None, compare=False, repr=False)
    outs: Optional[Dict[Hashable, List[Tuple[Hashable, Optional[str]]]]] = field(
        default=None, compare=False, repr=False)
    grades: Optional[Dict[Hashable, int]] = field(default=None, compare=False, repr=False)

    def add_vertex(self, v: Hashable, idem: str) -> None:
        if idem not in ("0", "1"):
            raise GraphError(f"bad idempotent {idem!r}")
        if v in self.vertices:
            raise GraphError(f"duplicate vertex {v!r}")
        self.vertices[v] = idem
        self.topology = self.outs = self.grades = None

    def add_edge(self, src: Hashable, tgt: Hashable, label: Optional[str]) -> None:
        self.edges.append((src, tgt, label))
        self.topology = self.outs = self.grades = None

    def check(self) -> None:
        """Raise unless every edge is idempotent-compatible."""
        vertices = self.vertices
        for src, tgt, label in self.edges:
            si, ti = vertices.get(src), vertices.get(tgt)
            if (label, si, ti) in _EDGE_ENDS:
                continue
            if si is None or ti is None:
                raise GraphError(f"dangling edge {(src, tgt, label)}")
            if label is IDENT:
                raise GraphError("identity edge between distinct idempotents")
            raise GraphError(f"edge label {label} incompatible with {si}->{ti}")

    def is_reduced(self) -> bool:
        return all(label is not IDENT for _, _, label in self.edges)

    def components(self) -> List[Set[Hashable]]:
        adj: Dict[Hashable, Set[Hashable]] = {v: set() for v in self.vertices}
        for s, t, _ in self.edges:
            adj[s].add(t)
            adj[t].add(s)
        seen: Set[Hashable] = set()
        comps = []
        for v in sorted(self.vertices):
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    def gradings(self) -> Mapping[Hashable, int]:
        """Relative Z/2 grading, base vertex of each component pinned at 0,
        as a read-only view of `grades`.

        Edges labeled rho_I change the grading by 1 - gr(rho_I); identity
        edges flip it.  The base is the smallest vertex of the component.
        Raises GraphError on an inconsistent cycle.
        """
        if self.grades is None:
            self.grades = self._relative_grading()
        return MappingProxyType(self.grades)

    def _relative_grading(self) -> Dict[Hashable, int]:
        gr: Dict[Hashable, int] = {}
        incident: Dict[Hashable, List[Tuple[Hashable, int]]] = {v: [] for v in self.vertices}
        for s, t, label in self.edges:
            flip = _EDGE_FLIP[label]
            incident[s].append((t, flip))
            incident[t].append((s, flip))
        for root in self.vertices:
            if root in gr:
                continue
            # grade the component from its first vertex, then shift it so
            # that its smallest vertex sits at 0
            gr[root] = 0
            comp = [root]
            for u in comp:  # grows while it is walked
                for w, flip in incident[u]:
                    g = gr[u] ^ flip
                    if w in gr:
                        if gr[w] != g:
                            raise GraphError("inconsistent relative grading")
                    else:
                        gr[w] = g
                        comp.append(w)
            if gr[min(comp)]:
                for v in comp:
                    gr[v] ^= 1
        return gr

    def out_edges(self) -> Dict[Hashable, List[Tuple[Hashable, Optional[str]]]]:
        """Each vertex's (target, label) out-edges, kept in `outs`; callers
        must not change them."""
        if self.outs is None:
            outs: Dict[Hashable, List[Tuple[Hashable, Optional[str]]]] = {v: [] for v in self.vertices}
            for s, t, label in self.edges:
                outs[s].append((t, label))
            self.outs = outs
        return self.outs

    def _topological_order(self) -> List[Hashable]:
        """Kahn's order; it leaves out every vertex on or after a directed
        cycle."""
        outs = self.out_edges()
        indeg = dict.fromkeys(self.vertices, 0)
        for _, t, _ in self.edges:
            indeg[t] += 1
        order = [v for v, d in indeg.items() if d == 0]
        for v in order:  # grows while it is walked
            for t, _ in outs[v]:
                d = indeg[t] - 1
                indeg[t] = d
                if not d:
                    order.append(t)
        return order

    def sort_topologically(self) -> bool:
        """Whether the graph is acyclic; if it is, `topology` is set."""
        if self.topology is None:
            order = self._topological_order()
            if len(order) != len(self.vertices):
                return False
            self.topology = order
        return True

    def longest_path_edges(self) -> int:
        """Length (in edges) of the longest directed path; requires acyclic."""
        if not self.sort_topologically():
            raise GraphError("graph has a directed cycle")
        outs = self.out_edges()
        dist = dict.fromkeys(self.vertices, 0)
        for v in self.topology:
            dt = dist[v] + 1
            for t, _ in outs[v]:
                if dist[t] < dt:
                    dist[t] = dt
        return max(dist.values(), default=0)

    def copy(self) -> "DecoratedGraph":
        return DecoratedGraph(dict(self.vertices), list(self.edges))


def reduce_graph(g: DecoratedGraph, choose=None) -> DecoratedGraph:
    """Cancel identity edges until none remain.

    For an identity edge y -> x the vertices x and y are removed, and for
    every edge u -> x (label A, u != y) and y -> v (label B, v != x) an edge
    u -> v labeled A*B is introduced, dropped when the product vanishes.
    Edge multiplicities are mod 2: introducing an edge equal to an existing
    one cancels both.  `choose` optionally picks which identity edge to
    cancel next (used to exercise confluence); default is the smallest.
    """
    g = g.copy()
    g.check()
    edge_set: Set[Tuple[Hashable, Hashable, Optional[str]]] = set()
    for e in g.edges:
        edge_set ^= {e}
    while True:
        idents = sorted(
            (e for e in edge_set if e[2] is IDENT), key=lambda e: (repr(e[0]), repr(e[1]))
        )
        if not idents:
            break
        e = idents[0] if choose is None else choose(idents)
        y, x, _ = e
        if y == x:
            raise GraphError("identity self-edge cannot be cancelled")
        ins = [(u, a) for u, t, a in edge_set if t == x and u not in (x, y)]
        outs = [(v, b) for s, v, b in edge_set if s == y and v not in (x, y)]
        edge_set -= {f for f in edge_set if f[0] in (x, y) or f[1] in (x, y)}
        for u, a in ins:
            for v, b in outs:
                prod = b if a is IDENT else a if b is IDENT else multiply(a, b)
                if prod != ZERO:
                    edge_set ^= {(u, v, prod)}
        del g.vertices[x]
        del g.vertices[y]
    g.edges = sorted(edge_set, key=lambda e: (repr(e[0]), repr(e[1]), e[2] or ""))
    g.check()
    return g


@dataclass
class ChainComplexF2:
    """Z/2-graded chain complex over F2, held as bitset rows per component.

    `components` maps each component id to (rows, n0): its generators are
    numbered 0..len(rows)-1, the n0 of grading 0 first, and rows[i] is d of
    generator i as an int bitset over those numbers.  `check` asserts that d
    strictly flips the grading and squares to zero.  `generators` and
    `differential` list the complex as ids (component, number) and id pairs.
    """

    components: Dict[Hashable, Tuple[List[int], int]]

    @classmethod
    def from_pairs(cls, generators: Iterable[Tuple[Hashable, int, Hashable]],
                   differential: Iterable[Tuple[Hashable, Hashable]]) -> "ChainComplexF2":
        """The complex of (id, grading bit, component) generators and a set
        of (source, target) id pairs, each component numbered in the order
        its generators come, grading 0 first.  Raises GraphError on a pair
        that does not flip the grading or crosses components."""
        by_comp: Dict[Hashable, Tuple[List[Hashable], List[Hashable]]] = {}
        for gid, g, comp in generators:
            by_comp.setdefault(comp, ([], []))[g].append(gid)
        number = {gid: (comp, i, i >= len(zeros)) for comp, (zeros, ones) in by_comp.items()
                  for i, gid in enumerate(zeros + ones)}  # id -> (component, number, grading)
        rows = {comp: [0] * (len(zeros) + len(ones)) for comp, (zeros, ones) in by_comp.items()}
        for s, t in differential:
            (cs, i, gs), (ct, j, gt) = number[s], number[t]
            if gs == gt:
                raise GraphError("differential does not flip the grading")
            if cs != ct:
                raise GraphError("differential crosses components")
            rows[cs][i] |= 1 << j
        return cls({comp: (rows[comp], len(zeros)) for comp, (zeros, _) in by_comp.items()})

    @property
    def generators(self) -> List[Tuple[Hashable, int, Hashable]]:
        return [((comp, i), int(i >= n0), comp)
                for comp, (rows, n0) in self.components.items() for i in range(len(rows))]

    @property
    def differential(self) -> Set[Tuple[Hashable, Hashable]]:
        return {((comp, i), (comp, j))
                for comp, (rows, _) in self.components.items()
                for i, row in enumerate(rows) for j in _bits(row)}

    def check(self) -> None:
        for rows, n0 in self.components.values():
            zeros = (1 << n0) - 1  # the masks of grading 0 and grading 1
            ones = ((1 << len(rows)) - 1) ^ zeros
            if reduce(or_, rows[:n0], 0) & ~ones or reduce(or_, rows[n0:], 0) & ~zeros:
                raise GraphError("differential does not flip the grading")
            for row in rows:
                square = 0
                while row:
                    t = row.bit_length() - 1
                    square ^= rows[t]
                    row ^= 1 << t
                if square:
                    raise GraphError("differential does not square to zero")


def _bits(row: int) -> List[int]:
    """The numbers of the set bits of a row."""
    out = []
    while row:
        t = row.bit_length() - 1
        out.append(t)
        row ^= 1 << t
    return out


def _gf2_rank(rows: List[int]) -> int:
    """Rank over F2 of rows given as int bitsets."""
    pivots: Dict[int, int] = {}  # top bit -> reduced row with that top bit
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


@dataclass
class HomologyResult:
    total: int
    by_grading: Tuple[int, int]
    per_component: Dict[Hashable, Tuple[int, int, int, int]]  # dim, dim0, dim1, chi


def homology(c: ChainComplexF2) -> HomologyResult:
    """Dimensions of H_*(c) over F2, total, by grading, and per component."""
    per: Dict[Hashable, Tuple[int, int, int, int]] = {}
    for comp, (rows, n0) in c.components.items():
        rank = _gf2_rank(rows[:n0]) + _gf2_rank(rows[n0:])  # d: C0 -> C1 and C1 -> C0
        h0, h1 = n0 - rank, len(rows) - n0 - rank
        per[comp] = (h0 + h1, h0, h1, h0 - h1)
    d0, d1 = sum(h[1] for h in per.values()), sum(h[2] for h in per.values())
    return HomologyResult(d0 + d1, (d0, d1), per)


def is_lspace_complex(c: ChainComplexF2) -> bool:
    """True iff in every component dim H equals |chi| and neither is zero."""
    res = homology(c)
    return all(dim == abs(chi) != 0 for dim, _, _, chi in res.per_component.values())
