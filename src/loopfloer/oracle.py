"""Independent ground truth: type A conversion, boundedness repair, and the
box tensor product.

The right-module structure of a reduced decorated graph is obtained by
relabelling each edge with subscripts 1 <-> 3 swapped (2 fixed), then reading
every directed walk: the concatenated digit string of a walk is re-parsed
greedily into maximal increasing runs, which are the algebra inputs of one
multiplication.  A walk is parsed as it grows, one label at a time, and
carries the node of its finished runs in a trie of inputs; each operation
it finds is counted mod 2 at the node of its inputs.  That trie is the
module: its check visits each node once, and pairing it with a bounded
graph gives a chain complex whose differential matches operation inputs
against directed label paths read through the trie, plus one differential
per identity edge.  All multiplicities are mod 2.

Every graph here is the graph of one loop, a single cycle, so splitting
one edge bounds it.  In a pairing, each module's walks run through the
trie of the bounded side's label paths and stop where no path can follow.

`fill_oracle` shares no route with the fast filling past the alphabet
conversion: it runs the twist chain of the reparametrization on raw words,
never canonicalizing and never building a `Loop`, and pairs the result with
the type A module of the standard solid torus, written in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Hashable, List, Optional, Set, Tuple

from .algebra import (
    RHOS,
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
from .loops import Loop, LoopWord, _other_letters, as_loops, word_to_graph
from .twists import FillingResult, Slope, reparametrization_word, shift_cd

_RELABEL = {"1": "3", "2": "2", "3": "1", "12": "32", "23": "21", "123": "321"}


def _append_label(run: str, label: str) -> Tuple[Tuple[str, ...], str]:
    """Append a label's digits to a walk's open run: the runs this closes
    and the new open run.  Runs are maximal increasing runs of consecutive
    digits; each is one torus-algebra element."""
    closed: List[str] = []
    for d in label:
        if run and ord(d) == ord(run[-1]) + 1:
            run += d
        else:
            if run:
                closed.append(run)
            run = d
    return tuple(closed), run


# (open run, edge label) -> (closed runs, new open run), reading the edge
# relabelled
_STEPS = {(run, label): _append_label(run, relabelled)
          for run in ("",) + RHOS for label, relabelled in _RELABEL.items()}


class _Trie:
    """A node of a type A module's trie of algebra inputs: ops holds the
    (source, target) pairs of the operations whose inputs end here."""

    __slots__ = ("children", "ops")

    def __init__(self):
        self.children: Dict[str, "_Trie"] = {}
        self.ops: Set[Tuple[Hashable, Hashable]] = set()

    def child(self, a: str) -> "_Trie":
        node = self.children.get(a)
        if node is None:
            node = self.children[a] = _Trie()
        return node


# per input: its left and right idempotents, and what it adds mod 2 to the
# grading rule's sum (its grading plus one for its count)
_INPUT = {a: (left_idem(a)[1], right_idem(a)[1], (grading(a) + 1) % 2) for a in RHOS}


@dataclass(eq=False)
class TypeAStructure:
    """Generators (idempotent, grading) plus multiplications, held in a trie
    of their input sequences: the node of an operation's inputs holds its
    (source, target) pair, each pair present mod 2."""

    generators: Dict[Hashable, Tuple[str, int]]
    trie: _Trie

    def check(self) -> None:
        """Raise unless each operation's inputs chain idempotents from its
        source to its targets and each target has the grading the rule
        gives.  Each node is visited once, with the idempotents its inputs
        start and end in and their sum for the grading rule."""
        if self.trie.ops:
            raise GraphError("empty input sequence")
        gens = self.generators
        # (node, first idempotent, last idempotent, sum, path to the node as
        # nested (input, parent path) pairs)
        stack: list = [(node, *_INPUT[a], (a, ())) for a, node in self.trie.children.items()]
        while stack:
            node, first, last, gr, path = stack.pop()
            for src, tgt in node.ops:
                idem_src, gr_src = gens[src]
                if idem_src != first:
                    raise GraphError(f"idempotent mismatch in {_inputs(path)}")
                idem_tgt, gr_tgt = gens[tgt]
                if idem_tgt != last:
                    raise GraphError(f"target idempotent mismatch in {_inputs(path)}")
                if gr_tgt != gr_src ^ gr ^ 1:
                    raise GraphError("operation violates the grading rule")
            for a, child in node.children.items():
                left, right, ga = _INPUT[a]
                if left != last:
                    raise GraphError(f"idempotent mismatch in {_inputs((a, path))}")
                stack.append((child, first, right, gr ^ ga, (a, path)))

    @cached_property
    def operations(self) -> Dict[Tuple[Hashable, Tuple[str, ...]], Set[Hashable]]:
        """The target sets keyed by (source, inputs), read off the trie on
        first use; the oracle's own stages read only the trie."""
        ops: Dict[Tuple[Hashable, Tuple[str, ...]], Set[Hashable]] = {}
        stack = [(self.trie, ())]
        while stack:
            node, inputs = stack.pop()
            for src, tgt in node.ops:
                ops.setdefault((src, inputs), set()).add(tgt)
            stack += [(child, inputs + (a,)) for a, child in node.children.items()]
        return ops

    def __eq__(self, other) -> bool:
        if not isinstance(other, TypeAStructure):
            return NotImplemented
        return (self.generators, self.operations) == (other.generators, other.operations)


def _inputs(path) -> Tuple[str, ...]:
    """The inputs along a check's nested path, first to last."""
    out = []
    while path:
        a, path = path
        out.append(a)
    return tuple(reversed(out))


# the runs a walk's open run can still grow into
_COMPLETIONS = {run: frozenset(a for a in RHOS if a.startswith(run)) for run in RHOS}


class _PathTrie:
    """A node of the trie of the label sequences along directed
    non-identity paths of a bounded graph: the vertices those paths end at.
    Children are worked out on first use, so a walk that reads the trie
    pays only for the nodes it reaches."""

    __slots__ = ("ends", "outs", "_children")

    def __init__(self, ends, outs):
        self.ends = ends
        self.outs = outs
        self._children: Optional[Dict[str, "_PathTrie"]] = None

    @property
    def children(self) -> Dict[str, "_PathTrie"]:
        if self._children is None:
            ends: Dict[str, Set[Hashable]] = {}
            for v in self.ends:
                for t, label in self.outs[v]:
                    if label is not IDENT:
                        ends.setdefault(label, set()).add(t)
            self._children = {label: _PathTrie(ts, self.outs) for label, ts in ends.items()}
        return self._children


def label_path_trie(g: DecoratedGraph) -> _PathTrie:
    """Trie of the label sequences of all directed non-identity paths of a
    bounded graph, over every start vertex."""
    if not g.sort_topologically():
        raise GraphError("label path enumeration needs a bounded graph")
    return _PathTrie(g.vertices, g.out_edges())


def to_type_a(
    g: DecoratedGraph, max_len: int, match_trie: Optional[_PathTrie] = None
) -> TypeAStructure:
    """Type A structure of a reduced graph, with operations of input length
    at most max_len.

    Gradings: the graph's relative grading with every i0 generator flipped,
    which is the grading the pairing theorem expects on the A side.  An
    optional trie of label paths restricts generation to operations that can
    pair with a given bounded type D side: a walk is dropped once no
    extension of its runs can be read along the trie, which keeps the mod-2
    walk counts of every surviving operation.
    """
    if not g.is_reduced():
        raise GraphError("type A conversion requires a reduced graph")
    gr = g.gradings()
    gens = {
        v: (idem, (gr[v] + (1 if idem == "0" else 0)) % 2)
        for v, idem in g.vertices.items()
    }
    outs = g.out_edges()
    root = _Trie()
    for start in g.vertices:
        # a walk: its end, the module trie's node after its finished runs
        # and their number, its open run, and the match trie's node after
        # the finished runs; a walk with max_len finished runs can no longer
        # end an operation of at most max_len inputs
        stack: List[Tuple[Hashable, _Trie, int, str, Optional[_PathTrie]]] = [
            (start, root, 0, "", match_trie)]
        while stack:
            v, node, n, run, match = stack.pop()
            if run:
                # the walk's operation, counted mod 2
                ops = node.child(run).ops
                op = (start, v)
                if op in ops:
                    ops.remove(op)
                else:
                    ops.add(op)
            for t, lab in outs[v]:
                closed, nrun = _STEPS[run, lab]
                nn = n + len(closed)
                if nn >= max_len:
                    continue
                nnode, nmatch = node, match
                if closed:
                    if match is not None:
                        for r in closed:
                            nmatch = nmatch.children.get(r)
                            if nmatch is None:
                                break
                        if nmatch is None:
                            continue
                    for r in closed:
                        nnode = nnode.child(r)
                if match is not None and _COMPLETIONS[nrun].isdisjoint(nmatch.children):
                    continue
                stack.append((t, nnode, nn, nrun, nmatch))
    a = TypeAStructure(gens, root)
    a.check()
    return a


_SPLITS = {
    "12": ("1", "2", "1"),  # label, and the idempotents of the two new vertices
    "123": ("1", "23", "1"),
    "23": ("2", "3", "0"),
}


def make_bounded(g: DecoratedGraph) -> DecoratedGraph:
    """Split one edge of a loop's graph if it has a directed cycle.

    A loop's graph is a single cycle, which is directed only when every edge
    runs the same way round, and then splitting any one edge bounds it.  A
    rho12 edge u -> w becomes u -> n1 <- n2 -> w with labels rho1, identity,
    rho2 (similarly rho123 via rho1/rho23, and rho23 via rho2/rho3); edge
    reduction recovers the original graph, so the result is homotopy
    equivalent.  The split edge is the first splittable one.  Vertex ids
    are ints, as word_to_graph numbers them, and the new vertices take the
    ids after the largest.  The result keeps its topological order.  Raises
    when no edge is splittable, or when the split leaves a directed cycle,
    which only a graph that is not one loop's can do.
    """
    g = g.copy()
    if not g.sort_topologically():
        ei = next((i for i, (_, _, label) in enumerate(g.edges) if label in _SPLITS), None)
        if ei is None:
            raise GraphError("cannot bound: directed cycle without a splittable edge")
        src, tgt, label = g.edges[ei]
        first, second, idem = _SPLITS[label]
        n1 = max(g.vertices) + 1
        n2 = n1 + 1
        g.add_vertex(n1, idem)
        g.add_vertex(n2, idem)
        del g.edges[ei]
        g.add_edge(src, n1, first)
        g.add_edge(n2, n1, IDENT)
        g.add_edge(n2, tgt, second)
        if not g.sort_topologically():
            raise GraphError("cannot bound: one split leaves a directed cycle")
    g.check()
    return g


def box_tensor(a: TypeAStructure, d: DecoratedGraph, component: Hashable = 0) -> ChainComplexF2:
    """Chain complex of pairing a type A structure with a bounded graph, as
    one component of bitset rows.

    Generators x (x) y over matching idempotents with grading gr(x) + gr(y),
    numbered grading 0 first, then by x and by y in the orders of
    `a.generators` and `d.vertices`.  Differentials come from identity
    edges (one each) and from operation inputs matching directed label
    paths, found by walking the graph through the trie of the operations'
    inputs; each way one arises toggles its bit, so the rows count it mod 2.
    d-squared and the grading flip are asserted.
    """
    if not d.sort_topologically():
        raise GraphError("box tensor needs a bounded second factor")
    outs = d.out_edges()
    gr_d = d.gradings()
    graded: Dict[str, Tuple[List[Hashable], List[Hashable]]] = {"0": ([], []), "1": ([], [])}
    for y, idem_y in d.vertices.items():
        graded[idem_y][gr_d[y]].append(y)
    number: Dict[Hashable, Dict[Hashable, int]] = {y: {} for y in d.vertices}  # [y][x]: x (x) y
    n = 0
    for g in (0, 1):
        if g:
            n0 = n
        for x, (idem_x, gr_x) in a.generators.items():
            for y in graded[idem_x][gr_x ^ g]:
                number[y][x] = n
                n += 1
    rows = [0] * n
    firsts = a.trie.children
    # label paths spelling operation inputs, as (numbers at the start, end,
    # trie node) after their first edge; an operation has at least one
    # input, so every path starts with an edge whose label begins some
    # operation's inputs (the trie has no identity label)
    stack: List[Tuple[Dict[Hashable, int], Hashable, _Trie]] = []
    for s, t, label in d.edges:
        if label is IDENT:
            for x, i in number[s].items():
                rows[i] ^= 1 << number[t][x]
        elif label in firsts:
            stack.append((number[s], t, firsts[label]))
    # a path from y spelling the inputs of an operation of x starts and ends
    # in the idempotents of x and its targets
    while stack:
        at_y, v, node = stack.pop()
        for x, x2 in node.ops:
            rows[at_y[x]] ^= 1 << number[v][x2]
        for t, label in outs[v]:
            child = node.children.get(label)
            if child is not None:
                stack.append((at_y, t, child))
    cpx = ChainComplexF2({component: (rows, n0)})
    cpx.check()
    return cpx


def pair_complex(loops1, loops2) -> ChainComplexF2:
    """Chain complex of the pairing, one component per pair of loops: the
    components box_tensor writes for each pair, side by side.

    Each graph is built once and keeps its gradings and out-edges, so its
    set-up serves every pair it is in; each bounded graph also has its
    longest path and its label path trie found once, and every first-side
    module is walked only along label sequences that trie holds."""
    graphs1 = [word_to_graph(l.word) for l in as_loops(loops1)]
    sides = []
    for l2 in as_loops(loops2):
        d = make_bounded(word_to_graph(l2.word))
        sides.append((d, d.longest_path_edges(), label_path_trie(d)))
    parts = [box_tensor(to_type_a(g1, max_len=longest, match_trie=trie), d, component=(i, j))
             for i, g1 in enumerate(graphs1) for j, (d, longest, trie) in enumerate(sides)]
    return ChainComplexF2({k: c for part in parts for k, c in part.components.items()})


def pair_is_lspace(loops1, loops2) -> bool:
    """Whether the pairing of two loop sets is an L-space complex."""
    return is_lspace_complex(pair_complex(loops1, loops2))


_SOLID_TORUS_CACHE: Dict[int, TypeAStructure] = {}


def _solid_torus_module(max_len: int) -> TypeAStructure:
    """Type A module of the standard solid torus (e) with operations of up to
    L inputs, L >= max_len a power of two: one generator x in i0 of grading
    1, and m(x, rho3, rho23^k, rho2) = x for 0 <= k <= L - 2.  Its trie is
    one path of rho3 and rho23s with a rho2 leaf off each node."""
    # round the operation length up so a handful of cache entries serve all
    key = 1 << max(3, max_len - 1).bit_length()
    if key not in _SOLID_TORUS_CACHE:
        x = 0  # the one vertex of word_to_graph of (e)
        root = _Trie()
        node = root.child("3")
        for k in range(key - 1):
            if k:
                node = node.child("23")
            node.child("2").ops.add((x, x))
        a = TypeAStructure({x: ("0", 1)}, root)
        a.check()
        _SOLID_TORUS_CACHE[key] = a
    return _SOLID_TORUS_CACHE[key]


@lru_cache(maxsize=4096)
def _twist_chain(s: Slope) -> Tuple[Tuple[str, int], ...]:
    # a check sweeps the same slopes over many loops
    return reparametrization_word(s).ops


def _reparametrized_word(l: Loop, s: Slope) -> LoopWord:
    """A word of reparametrize(l, s), reached apart from it: the twists of
    reparametrization_word(s) run on raw words, each changing alphabet with
    the step transducer when it needs to and shifting c/d subscripts, with
    no canonical form taken along the way."""
    w = l.word
    for kind, n in _twist_chain(s):
        if w.star != (kind == "du"):
            other = _other_letters(w)
            if other is None:
                continue  # loops without the notation are fixed
            w = LoopWord(other, validate=False)
        w = shift_cd(w, n)
    return w


def fill_oracle(loops, s: Slope) -> FillingResult:
    """Filling computed by the pairing, not the fast rules."""
    per = []
    for l in as_loops(loops):
        d = make_bounded(word_to_graph(_reparametrized_word(l, s)))
        a = _solid_torus_module(d.longest_path_edges())
        res = homology(box_tensor(a, d))
        (dim, _, _, chi) = next(iter(res.per_component.values()))
        per.append((dim, abs(chi)))
    return FillingResult.from_counts(per)
