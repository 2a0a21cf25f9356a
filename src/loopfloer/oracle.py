"""Independent ground truth: type A conversion, boundedness repair, and the
box tensor product.

The right-module structure of a reduced decorated graph is obtained by
relabelling each edge with subscripts 1 <-> 3 swapped (2 fixed), then reading
every directed walk: the concatenated digit string of a walk is re-parsed
greedily into maximal increasing runs, which are the algebra inputs of one
multiplication.  Pairing a type A structure with a bounded graph gives a
chain complex whose differential matches operation inputs against directed
label paths, plus one differential per identity edge.  All multiplicities
are mod 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from .algebra import (
    ChainComplexF2,
    DecoratedGraph,
    GraphError,
    IDENT,
    grading,
    homology,
    is_lspace_complex,
    left_idem,
    right_idem,
)
from .loops import Loop, as_loops, word_to_graph
from .twists import FillingResult, Slope, reparametrize

_RELABEL = {"1": "3", "2": "2", "3": "1", "12": "32", "23": "21", "123": "321"}


def _parse_runs(digits: str) -> Tuple[str, ...]:
    """Split a digit string into maximal increasing runs of consecutive
    digits; each run is one torus-algebra element."""
    runs: List[str] = []
    cur = digits[0]
    for d in digits[1:]:
        if ord(d) == ord(cur[-1]) + 1:
            cur += d
        else:
            runs.append(cur)
            cur = d
    runs.append(cur)
    return tuple(runs)


@dataclass
class TypeAStructure:
    """Generators (idempotent, grading) plus multiplications keyed by
    (source, algebra input sequence) with mod-2 target sets."""

    generators: Dict[Hashable, Tuple[str, int]]
    operations: Dict[Tuple[Hashable, Tuple[str, ...]], Set[Hashable]]

    def check(self) -> None:
        for (src, inputs), targets in self.operations.items():
            if not inputs:
                raise GraphError("empty input sequence")
            idem = "i" + self.generators[src][0]
            for a in inputs:
                if left_idem(a) != idem:
                    raise GraphError(f"idempotent mismatch in {inputs}")
                idem = right_idem(a)
            for t in targets:
                if "i" + self.generators[t][0] != idem:
                    raise GraphError(f"target idempotent mismatch in {inputs}")
                want = (
                    self.generators[src][1]
                    + sum(grading(a) for a in inputs)
                    + len(inputs)
                    + 1
                ) % 2
                if self.generators[t][1] != want:
                    raise GraphError("operation violates the grading rule")


class _Trie:
    __slots__ = ("children", "accept")

    def __init__(self):
        self.children: Dict[str, "_Trie"] = {}
        self.accept = False

    def insert(self, seq: Sequence[str]) -> None:
        node = self
        for a in seq:
            node = node.children.setdefault(a, _Trie())
        node.accept = True


_COMPLETIONS = {
    "1": ("1", "12", "123"),
    "2": ("2", "23"),
    "3": ("3",),
    "12": ("12", "123"),
    "23": ("23",),
    "123": ("123",),
}


def label_path_trie(g: DecoratedGraph) -> _Trie:
    """Trie of the label sequences of all directed non-identity paths of a
    bounded graph, over every start vertex."""
    if g.has_directed_cycle():
        raise GraphError("label path enumeration needs a bounded graph")
    outs: Dict[Hashable, List[Tuple[Hashable, str]]] = {v: [] for v in g.vertices}
    for s, t, label in g.edges:
        if label is not IDENT:
            outs[s].append((t, label))
    trie = _Trie()
    for v in g.vertices:
        # depth-first, with an explicit stack: paths run to hundreds of edges
        stack = [(trie, iter(outs[v]))]
        while stack:
            node, edges = stack[-1]
            for t, lab in edges:
                child = node.children.setdefault(lab, _Trie())
                child.accept = True
                stack.append((child, iter(outs[t])))
                break
            else:
                stack.pop()
    return trie


def _prefix_alive(digits: str, trie: Optional[_Trie]) -> bool:
    """Whether some extension of the digit string can parse into a label
    sequence present in the trie.  Monotone in the digit string, so pruning
    by it preserves mod-2 walk counts of every surviving operation."""
    if trie is None:
        return True
    tokens = _parse_runs(digits)
    node = trie
    for tok in tokens[:-1]:
        node = node.children.get(tok)
        if node is None:
            return False
    return any(c in node.children for c in _COMPLETIONS[tokens[-1]])


def to_type_a(
    g: DecoratedGraph, max_len: int, match_trie: Optional[_Trie] = None
) -> TypeAStructure:
    """Type A structure of a reduced graph, with operations of input length
    at most max_len.

    Gradings: the graph's relative grading with every i0 generator flipped,
    which is the grading the pairing theorem expects on the A side.  An
    optional trie of label paths restricts generation to operations that can
    pair with a given bounded type D side.
    """
    if not g.is_reduced():
        raise GraphError("type A conversion requires a reduced graph")
    gr = g.gradings()
    gens = {
        v: (idem, (gr[v] + (1 if idem == "0" else 0)) % 2)
        for v, idem in g.vertices.items()
    }
    outs: Dict[Hashable, List[Tuple[Hashable, str]]] = {v: [] for v in g.vertices}
    for s, t, label in g.edges:
        outs[s].append((t, _RELABEL[label]))
    # walks of more than 3*max_len digits cannot parse into <= max_len inputs
    digit_cap = 3 * max_len
    ops: Counter = Counter()
    for start in g.vertices:
        stack: List[Tuple[Hashable, str]] = [(start, "")]
        while stack:
            v, digits = stack.pop()
            if digits:
                inputs = _parse_runs(digits)
                if len(inputs) <= max_len:
                    ops[(start, inputs, v)] += 1
            for t, lab in outs[v]:
                nd = digits + lab
                if len(nd) <= digit_cap and _prefix_alive(nd, match_trie):
                    stack.append((t, nd))
    operations: Dict[Tuple[Hashable, Tuple[str, ...]], Set[Hashable]] = {}
    for (src, inputs, tgt), count in ops.items():
        if count % 2:
            operations.setdefault((src, inputs), set()).add(tgt)
    operations = {k: v for k, v in operations.items() if v}
    a = TypeAStructure(gens, operations)
    a.check()
    return a


_SPLITS = {
    "12": ("1", "2", "1"),  # label, and the idempotents of the two new vertices
    "123": ("1", "23", "1"),
    "23": ("2", "3", "0"),
}


def make_bounded(g: DecoratedGraph) -> DecoratedGraph:
    """Split edges until no directed cycle remains.

    A rho12 edge u -> w becomes u -> n1 <- n2 -> w with labels rho1, identity,
    rho2 (similarly rho123 via rho1/rho23, and rho23 via rho2/rho3); edge
    reduction recovers the original graph, so the result is homotopy
    equivalent.  Raises when a directed cycle has no splittable edge.
    """
    g = g.copy()
    counter = 0
    while g.has_directed_cycle():
        cycle = _find_directed_cycle(g)
        candidates = [e for e in cycle if g.edges[e][2] in _SPLITS]
        if not candidates:
            raise GraphError("cannot bound: directed cycle without a splittable edge")
        ei = min(candidates)
        src, tgt, label = g.edges[ei]
        first, second, idem = _SPLITS[label]
        n1 = ("n", counter, 0)
        n2 = ("n", counter, 1)
        counter += 1
        g.add_vertex(n1, idem)
        g.add_vertex(n2, idem)
        del g.edges[ei]
        g.add_edge(src, n1, first)
        g.add_edge(n2, n1, IDENT)
        g.add_edge(n2, tgt, second)
    g.check()
    return g


def _find_directed_cycle(g: DecoratedGraph) -> List[int]:
    """Indices of the edges of some directed cycle."""
    outs: Dict[Hashable, List[int]] = {v: [] for v in g.vertices}
    for i, (s, _, _) in enumerate(g.edges):
        outs[s].append(i)
    color: Dict[Hashable, int] = {}  # 1 while on the stack, 2 when finished
    parent_edge: Dict[Hashable, int] = {}
    for root in sorted(g.vertices):
        if color.get(root, 0):
            continue
        color[root] = 1
        # depth-first, with an explicit stack: cycles run to hundreds of edges
        stack = [(root, iter(outs[root]))]
        while stack:
            v, edges = stack[-1]
            for ei in edges:
                t = g.edges[ei][1]
                if color.get(t, 0) == 1:
                    cycle = [ei]
                    u = v
                    while u != t:
                        pe = parent_edge[u]
                        cycle.append(pe)
                        u = g.edges[pe][0]
                    cycle.reverse()
                    return cycle
                if color.get(t, 0) == 0:
                    parent_edge[t] = ei
                    color[t] = 1
                    stack.append((t, iter(outs[t])))
                    break
            else:
                color[v] = 2
                stack.pop()
    raise GraphError("no directed cycle")


def box_tensor(
    a: TypeAStructure,
    d: DecoratedGraph,
    component: Hashable = 0,
    ops_trie: Optional[_Trie] = None,
) -> ChainComplexF2:
    """Chain complex of pairing a type A structure with a bounded graph.

    Generators x (x) y over matching idempotents with grading gr(x) + gr(y);
    differentials come from identity edges (one each) and from operation
    inputs matching directed label paths.  The component marker tags every
    generator; d-squared and the grading flip are asserted.  ops_trie may pass
    a prebuilt trie of the operations' inputs.
    """
    if d.has_directed_cycle():
        raise GraphError("box tensor needs a bounded second factor")
    gr_d = d.gradings()
    trie = ops_trie
    if trie is None:
        trie = _Trie()
        for (src, inputs) in a.operations:
            trie.insert(inputs)
    outs: Dict[Hashable, List[Tuple[Hashable, Optional[str]]]] = {v: [] for v in d.vertices}
    for s, t, label in d.edges:
        outs[s].append((t, label))
    # label paths from every vertex, pruned by the union of operation inputs
    paths: Dict[Hashable, List[Tuple[Tuple[str, ...], Hashable]]] = {}
    for y in d.vertices:
        found: List[Tuple[Tuple[str, ...], Hashable]] = []
        stack: List[Tuple[Hashable, _Trie, Tuple[str, ...]]] = [(y, trie, ())]
        while stack:
            v, node, labels = stack.pop()
            if node.accept:
                found.append((labels, v))
            for t, label in outs[v]:
                if label is IDENT:
                    continue
                child = node.children.get(label)
                if child is not None:
                    stack.append((t, child, labels + (label,)))
        paths[y] = found
    generators: List[Tuple[Hashable, int, Hashable]] = []
    for x, (idem_x, gr_x) in a.generators.items():
        for y, idem_y in d.vertices.items():
            if idem_x == idem_y:
                generators.append(((x, y), (gr_x + gr_d[y]) % 2, component))
    gen_set = {gid for gid, _, _ in generators}
    diff: Set[Tuple[Hashable, Hashable]] = set()

    def toggle(s, t):
        if (s, t) in diff:
            diff.remove((s, t))
        else:
            diff.add((s, t))

    for s, t, label in d.edges:
        if label is IDENT:
            for x in a.generators:
                if (x, s) in gen_set:
                    toggle((x, s), (x, t))
    for x in a.generators:
        for y, idem_y in d.vertices.items():
            if (x, y) not in gen_set:
                continue
            for labels, y2 in paths[y]:
                targets = a.operations.get((x, labels))
                if targets:
                    for x2 in targets:
                        toggle((x, y), (x2, y2))
    cpx = ChainComplexF2(generators, diff)
    cpx.check()
    return cpx


def _merge_complex(parts: List[ChainComplexF2]) -> ChainComplexF2:
    gens: List[Tuple[Hashable, int, Hashable]] = []
    diff: Set[Tuple[Hashable, Hashable]] = set()
    for i, c in enumerate(parts):
        for gid, g, comp in c.generators:
            gens.append(((i, gid), g, comp))
        for s, t in c.differential:
            diff.add(((i, s), (i, t)))
    return ChainComplexF2(gens, diff)


def pair_complex(loops1, loops2) -> ChainComplexF2:
    """Chain complex of the pairing, one component per pair of loops."""
    loops2 = as_loops(loops2)
    parts = []
    for i, l1 in enumerate(as_loops(loops1)):
        g1 = word_to_graph(l1.word)
        # walk enumeration only branches on larger graphs; the trie that
        # restricts it to sequences realized in the other factor costs a
        # full path enumeration there, so skip it for tiny modules
        small = len(g1.vertices) <= 6
        for j, l2 in enumerate(loops2):
            d = make_bounded(word_to_graph(l2.word))
            trie = None if small else label_path_trie(d)
            a = to_type_a(g1, max_len=d.longest_path_edges(), match_trie=trie)
            parts.append(box_tensor(a, d, component=(i, j)))
    return _merge_complex(parts)


def pair_is_lspace(loops1, loops2) -> bool:
    """Whether the pairing of two loop sets is an L-space complex."""
    return is_lspace_complex(pair_complex(loops1, loops2))


_STANDARD_SOLID_TORUS = Loop.from_text("e")
_SOLID_TORUS_CACHE: Dict[int, Tuple[TypeAStructure, _Trie]] = {}


def _solid_torus_module(max_len: int) -> Tuple[TypeAStructure, _Trie]:
    # round the operation length up so a handful of cache entries serve all
    key = 1 << max(3, max_len - 1).bit_length()
    if key not in _SOLID_TORUS_CACHE:
        a = to_type_a(word_to_graph(_STANDARD_SOLID_TORUS.word), max_len=key)
        trie = _Trie()
        for (_, inputs) in a.operations:
            trie.insert(inputs)
        _SOLID_TORUS_CACHE[key] = (a, trie)
    return _SOLID_TORUS_CACHE[key]


def fill_oracle(loops, s: Slope) -> FillingResult:
    """Filling computed by the pairing, not the fast rules."""
    per = []
    for l in as_loops(loops):
        d = make_bounded(word_to_graph(reparametrize(l, s).word))
        a, trie = _solid_torus_module(d.longest_path_edges())
        res = homology(box_tensor(a, d, ops_trie=trie))
        (dim, _, _, chi) = next(iter(res.per_component.values()))
        per.append((dim, abs(chi)))
    return FillingResult.from_counts(per)
