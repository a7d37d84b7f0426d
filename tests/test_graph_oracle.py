"""The stored adjacency, order and reachability walk of ``Dag`` against the
former edge-scan implementations, kept here as the reference.

Every reference query scans the whole edge set; the package answers the
same queries from maps built once per graph. Random DAGs of up to 7 nodes
list their nodes in a shuffled order that differs from the order the edges
follow, so sorting by node order is exercised.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phenocausal import tables
from phenocausal.graphs import (Dag, GraphError, _reachable_inside, _walk, all_dags,
                                hidden_common_causes)
from phenocausal.tables import DiscreteJoint, markov_report


# ---------------------------------------------------------------------------
# Reference implementations: one scan of the edge set per step
# ---------------------------------------------------------------------------


def ref_parents(g: Dag, node: str) -> tuple[str, ...]:
    return g.sorted_tuple(a for a, b in g.edges if b == node)


def ref_children(g: Dag, node: str) -> tuple[str, ...]:
    return g.sorted_tuple(b for a, b in g.edges if a == node)


def ref_descendants(g: Dag, node: str) -> tuple[str, ...]:
    seen = {node}
    stack = [node]
    while stack:
        top = stack.pop()
        for a, b in g.edges:
            if a == top and b not in seen:
                seen.add(b)
                stack.append(b)
    seen.discard(node)
    return g.sorted_tuple(seen)


def ref_topological_order(g: Dag) -> tuple[str, ...]:
    index = {n: i for i, n in enumerate(g.nodes)}
    indeg = {n: 0 for n in g.nodes}
    for _, b in g.edges:
        indeg[b] += 1
    ready = [n for n in g.nodes if indeg[n] == 0]
    order = []
    while ready:
        ready.sort(key=index.__getitem__)
        n = ready.pop(0)
        order.append(n)
        for c in (b for a, b in g.edges if a == n):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    assert len(order) == len(g.nodes)
    return tuple(order)


def ref_reachable_inside(g: Dag, start: str, s: set[str]) -> tuple[str, ...]:
    hits: set[str] = set()
    stack = [start]
    seen = {start}
    while stack:
        for ch in ref_children(g, stack.pop()):
            if ch in s:
                hits.add(ch)
            elif ch not in seen:
                seen.add(ch)
                stack.append(ch)
    return g.sorted_tuple(hits)


def ref_hidden_common_causes(g: Dag, s: set[str]):
    out = []
    for node in g.nodes:
        if node not in s:
            reached = ref_reachable_inside(g, node, s)
            if len(reached) >= 2:
                out.append((node, reached))
    return tuple(out)


def ref_local_markov_triples(g: Dag):
    out = []
    for node in g.nodes:
        pa = ref_parents(g, node)
        desc = ref_descendants(g, node)
        nondesc = tuple(n for n in g.nodes if n != node and n not in desc and n not in pa)
        if nondesc:
            out.append(((node,), nondesc, pa))
    return out


def ref_all_dags(nodes):
    """The former enumeration: every DAG built, then sorted."""
    nodes = tuple(nodes)
    n = len(nodes)
    pair_slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    graphs = []
    for perm in itertools.permutations(range(n)):
        for mask in range(1 << len(pair_slots)):
            edges = tuple((nodes[perm[i]], nodes[perm[j]])
                          for k, (i, j) in enumerate(pair_slots) if mask >> k & 1)
            key = frozenset(edges)
            if key not in seen:
                seen.add(key)
                graphs.append((tuple(sorted(edges)), Dag(nodes, edges)))
    graphs.sort(key=lambda item: (len(item[0]), item[0]))
    return [g for _, g in graphs]


# ---------------------------------------------------------------------------
# Random DAGs whose node order differs from their topological order
# ---------------------------------------------------------------------------


@st.composite
def dags(draw, max_nodes: int = 7):
    n = draw(st.integers(1, max_nodes))
    names = [f"v{i}" for i in range(n)]
    listed = draw(st.permutations(names))
    causal = draw(st.permutations(names))
    pairs = [(causal[i], causal[j]) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Dag(listed, [p for p, keep in zip(pairs, mask) if keep])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dags(), st.data())
def test_graph_core_matches_edge_scan_reference(g, data):
    assert g.topological_order() == ref_topological_order(g)
    for v in g.nodes:
        assert g.parents(v) == ref_parents(g, v)
        assert g._children[v] == ref_children(g, v)  # the map the walks read
        assert g.descendants(v) == ref_descendants(g, v)
    s = data.draw(st.sets(st.sampled_from(g.nodes)))
    for v in g.nodes:
        assert _reachable_inside(g, v, s) == ref_reachable_inside(g, v, s)
    assert hidden_common_causes(g, s) == ref_hidden_common_causes(g, s)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dags())
def test_local_markov_checks_the_reference_triples(g):
    checked = []

    def record(p, a, b, c=()):
        checked.append((tuple(a), tuple(b), tuple(c)))
        return 0.0

    cards = (1,) * len(g.nodes)
    joint = DiscreteJoint(g.nodes, np.ones(cards))
    original = tables.ci_residual
    tables.ci_residual = record
    try:
        assert markov_report(joint, g) == (True, None, 0.0)
    finally:
        tables.ci_residual = original
    assert checked == ref_local_markov_triples(g)


def test_unknown_node_still_raises():
    g = Dag(("a", "b"), [("a", "b")])
    for query in (g.parents, g.descendants):
        with pytest.raises(GraphError):
            query("z")


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_all_dags_order_and_edge_sets_unchanged(n):
    nodes = tuple("edcba"[5 - n:])
    got = [(g.nodes, g.edges) for g in all_dags(nodes)]
    assert got == [(g.nodes, g.edges) for g in ref_all_dags(nodes)]


@st.composite
def walk_instances(draw):
    """Nodes, one option map (parent mask -> marks over two mark bits) per
    node, and a cover. Most marks are 0, so that many instances have DAGs."""
    n = draw(st.integers(0, 4))
    marks = st.sampled_from((0, 0, 0, 1, 2, 3))
    options = [draw(st.dictionaries(
        st.sampled_from([m for m in range(1 << n) if not m >> i & 1]), marks,
        min_size=1 << max(n - 2, 0)))
        for i in range(n)]
    return tuple("dcba"[4 - n:]), options, draw(st.integers(0, 3))


def ref_walk(nodes, options, cover):
    """The sorted edge lists of the DAGs of ``ref_all_dags`` whose every
    parent set is a key of its node's option map, with pairwise disjoint
    marks whose union is ``cover``."""
    out = []
    for g in ref_all_dags(nodes):
        masks = [sum(1 << nodes.index(p) for p in ref_parents(g, v)) for v in nodes]
        if not all(m in opts for m, opts in zip(masks, options)):
            continue
        marks = [opts[m] for m, opts in zip(masks, options)]
        union = 0
        for m in marks:
            union |= m
        if union == cover and sum(bin(m).count("1") for m in marks) == bin(cover).count("1"):
            out.append(tuple(sorted(g.edges)))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walk_instances())
def test_walk_is_a_filter_of_the_reference_enumeration(instance):
    nodes, options, cover = instance
    assert _walk(nodes, options, cover) == ref_walk(nodes, options, cover)


def test_all_dags_refuses_six_nodes_before_enumerating():
    with pytest.raises(GraphError):
        next(all_dags(tuple("abcdef")))
