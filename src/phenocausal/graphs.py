"""Directed acyclic graphs over named variables.

This module holds the graph-theoretic machinery that everything else is
built on: d-separation (reachability / Bayes-ball style), graphical causal
sufficiency of a variable subset, marginalization of a DAG onto a
sufficient subset (directed paths through dropped nodes collapse to single
edges), and the backdoor criterion.

Node order is explicit and stable: every set-valued result is returned as a
tuple sorted by the graph's node order, so repeated runs produce identical
output.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Dag",
    "GraphError",
    "CycleError",
    "SufficiencyError",
    "d_separated",
    "is_graphically_causally_sufficient",
    "hidden_common_causes",
    "marginal_dag",
    "backdoor_admissible",
    "all_dags",
    "random_dag",
    "DAG_ENUMERATION_CAP",
]

# Exhaustive DAG enumeration refuses to run above this many nodes: 5 nodes
# have 29,281 DAGs, 6 nodes 3,781,503.
DAG_ENUMERATION_CAP = 5


class GraphError(ValueError):
    """Malformed graph or invalid graph-operation arguments."""


class CycleError(GraphError):
    """The edge set admits no topological order."""


class SufficiencyError(GraphError):
    """A subset required to be graphically causally sufficient is not.

    Carries the name of a witnessing hidden common cause in ``witness``.
    """

    def __init__(self, subset: Sequence[str], witness: str, reached: Sequence[str]):
        self.witness = witness
        self.reached = tuple(reached)
        super().__init__(
            f"subset {sorted(subset)} is not graphically causally sufficient: "
            f"hidden node {witness!r} causes {list(self.reached)} through paths "
            "avoiding the subset"
        )


@dataclass(frozen=True)
class Dag:
    """Immutable DAG over an ordered tuple of named nodes.

    ``edges`` are (parent, child) pairs. Construction validates that all
    endpoints are declared nodes, that there are no self loops or duplicate
    edges, and that a topological order exists. It also stores each node's
    parents and children and the topological order, so structural queries
    never scan the edge set.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _parents: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _children: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _order: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise GraphError(f"duplicate node names in {nodes}")
        edge_list = [tuple(e) for e in edges]
        edge_set = frozenset(edge_list)
        if len(edge_set) != len(edge_list):
            raise GraphError("duplicate edges")
        index = {n: i for i, n in enumerate(nodes)}
        pairs = []
        for a, b in edge_set:
            if a == b:
                raise GraphError(f"self loop on {a!r}")
            if a not in index or b not in index:
                raise GraphError(f"edge ({a!r}, {b!r}) mentions an undeclared node")
            pairs.append((index[a], index[b]))
        # one pass over the edges in node order leaves each list sorted
        parents: list[list[str]] = [[] for _ in nodes]
        children: list[list[str]] = [[] for _ in nodes]
        for i, j in sorted(pairs):
            parents[j].append(nodes[i])
            children[i].append(nodes[j])
        # Kahn's algorithm, always taking the ready node first in node order
        indeg = [len(ps) for ps in parents]
        ready = [i for i, d in enumerate(indeg) if not d]
        order: list[str] = []
        while ready:
            i = heapq.heappop(ready)
            order.append(nodes[i])
            for j in map(index.__getitem__, children[i]):
                indeg[j] -= 1
                if not indeg[j]:
                    heapq.heappush(ready, j)
        if len(order) != len(nodes):
            raise CycleError(f"edge set {sorted(edge_set)} contains a cycle")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edge_set)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_parents", dict(zip(nodes, map(tuple, parents))))
        object.__setattr__(self, "_children", dict(zip(nodes, map(tuple, children))))
        object.__setattr__(self, "_order", tuple(order))

    # -- basic structure ---------------------------------------------------

    def parents(self, node: str) -> tuple[str, ...]:
        parents = self._parents.get(node)
        if parents is None:
            self._check_nodes([node])  # raises the unknown-node error
        return parents

    def descendants(self, node: str) -> tuple[str, ...]:
        """Nodes reachable from ``node`` by a directed path (``node`` itself
        excluded)."""
        seen = _reach(self._check_nodes([node]), self._children)
        seen.discard(node)
        return self.sorted_tuple(seen)

    def topological_order(self) -> tuple[str, ...]:
        return self._order

    def sorted_tuple(self, names: Iterable[str]) -> tuple[str, ...]:
        """Deduplicate and sort names by this graph's node order."""
        return tuple(sorted(set(names), key=self._index.__getitem__))

    def _check_nodes(self, names: Iterable[str]) -> tuple[str, ...]:
        names = tuple(names)
        unknown = [n for n in names if n not in self._index]
        if unknown:
            raise GraphError(f"unknown node(s) {unknown}; graph has {list(self.nodes)}")
        return names

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:  # keys in sorted order
        return {"edges": sorted(list(e) for e in self.edges), "nodes": list(self.nodes)}

    @classmethod
    def from_json(cls, text: str) -> "Dag":
        obj = json.loads(text)
        return cls(obj["nodes"], [tuple(e) for e in obj["edges"]])

    @classmethod
    def from_edge_list(cls, text: str) -> "Dag":
        """One ``a -> b`` line per edge and a bare name per isolated node;
        blank lines and ``#`` comments are skipped."""
        nodes: list[str] = []
        edges = []
        for k, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            names = [part.strip() for part in line.split("->")]
            if len(names) > 2 or not all(names):
                raise GraphError(f"line {k}: {line!r} is neither 'a -> b' nor a node name")
            for n in names:
                if n not in nodes:
                    nodes.append(n)
            if len(names) == 2:
                edges.append(tuple(names))
        return cls(nodes, edges)


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------


def _reach(starts: Iterable[str], step: Mapping[str, tuple[str, ...]],
           blocked: set[str] | frozenset[str] = frozenset()) -> set[str]:
    """``starts`` plus every node reached from them by repeatedly following
    ``step`` (a graph's parents or children map); nodes in ``blocked`` are
    reached but not walked through. The starts are always walked through."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in step[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                if nxt not in blocked:
                    stack.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# d-separation
# ---------------------------------------------------------------------------


def d_separated(g: Dag, a: Iterable[str], b: Iterable[str], c: Iterable[str] = (),
                cut: Iterable[str] = ()) -> bool:
    """True iff every path between ``a`` and ``b`` is blocked by ``c``.

    A path is blocked when it contains a chain or fork whose middle node is
    in ``c``, or an inverted fork (collider) whose middle node is neither in
    ``c`` nor an ancestor of ``c``. Computed by reachability over
    (node, travel-direction) states rather than path enumeration. The edges
    out of the nodes in ``cut`` are skipped, as if removed from ``g``.

    ``a``, ``b``, ``c`` must be pairwise disjoint.
    """
    a_set = set(g._check_nodes(a))
    b_set = set(g._check_nodes(b))
    c_set = set(g._check_nodes(c))
    cut_set = set(g._check_nodes(cut))
    if a_set & b_set or a_set & c_set or b_set & c_set:
        raise GraphError("d_separated requires pairwise disjoint node sets")
    if not a_set or not b_set:
        return True
    parents, children = g._parents, g._children
    if cut_set:
        parents = {v: tuple(u for u in ps if u not in cut_set)
                   for v, ps in parents.items()}
        children = {**children, **dict.fromkeys(cut_set, ())}

    anc_c = _reach(c_set, parents)

    # Travel states: (node, "up") means the trail enters the node from a
    # child; (node, "down") means it enters from a parent.
    frontier = [(s, "up") for s in a_set]
    visited: set[tuple[str, str]] = set()
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node in b_set and node not in c_set:
            return False
        if direction == "up":
            if node in c_set:
                continue
            frontier.extend((p, "up") for p in parents[node])
            frontier.extend((ch, "down") for ch in children[node])
        else:
            if node not in c_set:
                frontier.extend((ch, "down") for ch in children[node])
            if node in anc_c:  # collider with an observed descendant opens
                frontier.extend((p, "up") for p in parents[node])
    return True


# ---------------------------------------------------------------------------
# Graphical causal sufficiency and marginal DAGs
# ---------------------------------------------------------------------------


def _reachable_inside(g: Dag, start: str, s: set[str]) -> tuple[str, ...]:
    """Members of ``s`` other than ``start`` reachable from ``start`` by
    directed paths whose intermediate nodes all lie outside ``s``."""
    seen = _reach((start,), g._children, s)
    seen.discard(start)
    return g.sorted_tuple(seen & s)


def hidden_common_causes(g: Dag, s: Iterable[str]) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Nodes outside ``s`` that cause two or more members of ``s`` through
    paths avoiding ``s``, with the members they reach."""
    s_set = set(g._check_nodes(s))
    out = []
    for node in g.nodes:
        if node in s_set:
            continue
        reached = _reachable_inside(g, node, s_set)
        if len(reached) >= 2:
            out.append((node, reached))
    return tuple(out)


def is_graphically_causally_sufficient(g: Dag, s: Iterable[str]) -> bool:
    """True iff no node outside ``s`` reaches two or more members of ``s``
    via directed paths that avoid ``s`` internally."""
    return not hidden_common_causes(g, s)


def marginal_dag(g: Dag, s: Iterable[str]) -> Dag:
    """Marginalize ``g`` onto the subset ``s``.

    The result has nodes ``s`` (in ``g``'s order) and an edge x -> y exactly
    when ``g`` has a directed path from x to y passing through no other
    member of ``s``. The subset must be graphically causally sufficient,
    otherwise :class:`SufficiencyError` is raised naming a hidden common
    cause: without sufficiency the result has no marginal causal meaning.
    """
    s_nodes = g.sorted_tuple(g._check_nodes(s))
    s_set = set(s_nodes)
    bad = hidden_common_causes(g, s_set)
    if bad:
        witness, reached = bad[0]
        raise SufficiencyError(s_nodes, witness, reached)
    edges = []
    for u in s_nodes:
        for v in _reachable_inside(g, u, s_set):
            if v != u:
                edges.append((u, v))
    return Dag(s_nodes, edges)


# ---------------------------------------------------------------------------
# Backdoor criterion
# ---------------------------------------------------------------------------


def backdoor_admissible(g: Dag, x: str, y: str, z: Iterable[str]) -> bool:
    """Backdoor criterion for the ordered pair (x, y).

    ``z`` must contain no descendant of ``x`` and must block every path
    from x to y that starts with an edge into x. The blocking condition is
    checked as d-separation of x and y with x's outgoing edges skipped, so
    no trimmed graph is built.
    """
    g._check_nodes([x, y])
    z_set = set(g._check_nodes(z))
    if x == y:
        raise GraphError("x and y must differ")
    if x in z_set or y in z_set:
        raise GraphError("z must exclude x and y")
    if z_set & set(g.descendants(x)):
        return False
    return d_separated(g, {x}, {y}, z_set, cut=(x,))


# ---------------------------------------------------------------------------
# Enumeration and random generation
# ---------------------------------------------------------------------------


def _walk(nodes: Sequence[str], options: Sequence[Mapping[int, int]],
          cover: int) -> list[tuple[tuple[str, str], ...]]:
    """Sorted edge lists, in ``all_dags`` order, of the DAGs that give node i
    a parent set of ``options[i]``, a map from parent bit masks to marks (bit
    masks too), with pairwise disjoint marks whose union is ``cover``. The
    walk is depth-first, node by node, and drops a choice as soon as it
    closes a cycle."""
    n = len(nodes)
    parents = [0] * n
    found: list[tuple[tuple[str, str], ...]] = []

    def place(i: int, used: int) -> None:
        if i == n:
            if used == cover:
                found.append(tuple(sorted(
                    (nodes[j], nodes[k]) for k in range(n)
                    for j in range(n) if parents[k] >> j & 1)))
            return
        for pmask, marks in options[i].items():
            if marks & used:
                continue
            # climb from the new parents through the nodes placed so far
            parents[i] = seen = frontier = pmask
            while frontier and not frontier >> i & 1:
                up = 0
                for j in range(i):
                    if frontier >> j & 1:
                        up |= parents[j]
                frontier = up & ~seen
                seen |= frontier
            if not frontier:
                place(i + 1, used | marks)

    place(0, 0)
    return sorted(found, key=lambda e: (len(e), e))


def all_dags(nodes: Sequence[str]) -> Iterator[Dag]:
    """Yield every DAG over ``nodes`` once, ordered by edge count and then by
    sorted edge list.

    The DAGs are those of ``_walk`` with every parent set open to each node
    and no marks; each is built as it is yielded. Above
    ``DAG_ENUMERATION_CAP`` (5) nodes the enumeration is refused before any
    work.
    """
    nodes = tuple(nodes)
    n = len(nodes)
    if n > DAG_ENUMERATION_CAP:
        raise GraphError(f"refusing exhaustive enumeration over {n} nodes "
                         f"(cap {DAG_ENUMERATION_CAP})")
    options = [{pmask: 0 for pmask in range(1 << n) if not pmask >> i & 1}
               for i in range(n)]
    for edges in _walk(nodes, options, 0):
        yield Dag(nodes, edges)


def random_dag(nodes: Sequence[str], rng, edge_prob: float = 0.5) -> Dag:
    """Random DAG: random topological order, independent edge coin flips."""
    nodes = list(nodes)
    order = list(rng.permutation(len(nodes)))
    edges = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if rng.random() < edge_prob:
                edges.append((nodes[order[i]], nodes[order[j]]))
    return Dag(nodes, edges)
