"""Graph-core tests: d-separation, sufficiency, marginalization, backdoor.

The reachability implementations are checked against brute-force path
enumeration oracles that apply the blocking rules literally.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phenocausal import (
    Dag,
    GraphError,
    SufficiencyError,
    all_dags,
    backdoor_admissible,
    d_separated,
    is_graphically_causally_sufficient,
    marginal_dag,
    random_dag,
)


# ---------------------------------------------------------------------------
# Oracles: exhaustive path enumeration with the chain/fork/collider rules
# ---------------------------------------------------------------------------


def _all_paths(g: Dag, start: str, end: str):
    """All simple undirected paths with per-step edge orientation."""
    adj: dict[str, list[tuple[str, str]]] = {n: [] for n in g.nodes}
    for a, b in g.edges:
        adj[a].append((b, "fwd"))
        adj[b].append((a, "rev"))

    def walk(node, path, dirs):
        if node == end:
            yield list(path), list(dirs)
            return
        for nxt, direction in adj[node]:
            if nxt in path:
                continue
            path.append(nxt)
            dirs.append(direction)
            yield from walk(nxt, path, dirs)
            path.pop()
            dirs.pop()

    yield from walk(start, [start], [])


def _path_open(g: Dag, path: list[str], dirs: list[str], z: set[str]) -> bool:
    for k in range(1, len(path) - 1):
        into = dirs[k - 1] == "fwd"
        out = dirs[k] == "fwd"
        mid = path[k]
        if into and not out:  # collider
            desc = set(g.descendants(mid)) | {mid}
            if not desc & z:
                return False
        else:  # chain or fork
            if mid in z:
                return False
    return True


def d_separated_oracle(g: Dag, a, b, c) -> bool:
    c = set(c)
    for x in a:
        for y in b:
            for path, dirs in _all_paths(g, x, y):
                if _path_open(g, path, dirs, c):
                    return False
    return True


def backdoor_oracle(g: Dag, x: str, y: str, z) -> bool:
    z = set(z)
    if z & set(g.descendants(x)):
        return False
    for path, dirs in _all_paths(g, x, y):
        if len(path) > 1 and dirs[0] == "rev":  # starts with an edge into x
            if _path_open(g, path, dirs, z):
                return False
    return True


def marginal_edges_oracle(g: Dag, s) -> set[tuple[str, str]]:
    s = set(s)
    out = set()
    for u in s:
        stack = [(u,)]
        while stack:
            path = stack.pop()
            for ch in (b for a, b in g.edges if a == path[-1]):
                if ch in s:
                    if ch != u:
                        out.add((u, ch))
                elif ch not in path:
                    stack.append(path + (ch,))
    return out


# ---------------------------------------------------------------------------
# Construction and serialization
# ---------------------------------------------------------------------------


def test_dag_validation():
    with pytest.raises(GraphError):
        Dag(("a", "a"))
    with pytest.raises(GraphError):
        Dag(("a", "b"), [("a", "a")])
    with pytest.raises(GraphError):
        Dag(("a", "b"), [("a", "c")])
    with pytest.raises(GraphError):
        Dag(("a", "b"), [("a", "b"), ("b", "a")])


def test_parents_look_up_without_validation(monkeypatch):
    g = Dag(("a", "b", "c"), [("a", "b"), ("a", "c")])
    checked = []
    real = Dag._check_nodes

    def check(self, names):
        names = tuple(names)
        checked.append(names)
        return real(self, names)

    monkeypatch.setattr(Dag, "_check_nodes", check)
    assert g.parents("b") == ("a",) and g.parents("a") == ()
    assert checked == []
    with pytest.raises(GraphError,
                       match=r"unknown node\(s\) \['z'\]; graph has \['a', 'b', 'c'\]"):
        g.parents("z")


def test_topological_order_stable():
    g = Dag(("c", "a", "b"), [("a", "b")])
    assert g.topological_order() == ("c", "a", "b")


def test_json_roundtrip():
    g = Dag(("x", "y", "z"), [("x", "y"), ("y", "z")])
    assert Dag.from_json(json.dumps(g.to_json_obj())) == g


def test_edge_list_reads_edges_and_isolated_nodes():
    text = "# a comment\nx -> y\n\n  lonely  \ny\n"
    assert Dag.from_edge_list(text) == Dag(("x", "y", "lonely"), [("x", "y")])


@pytest.mark.parametrize("line", ["a -> b -> c", "-> b", "a ->", "->", "a -> -> b"])
def test_edge_list_refuses_malformed_lines(line):
    with pytest.raises(GraphError, match=rf"^line 2: '{line}' is neither"):
        Dag.from_edge_list(f"x -> y\n{line}\n")


# ---------------------------------------------------------------------------
# d-separation
# ---------------------------------------------------------------------------


def test_chain_blocked_by_middle():
    g = Dag(("X", "Y", "Z"), [("X", "Y"), ("Y", "Z")])
    assert d_separated(g, {"X"}, {"Z"}, {"Y"})
    assert not d_separated(g, {"X"}, {"Z"}, set())


def test_collider_conditioning_opens():
    g = Dag(("X", "Y", "Z"), [("X", "Z"), ("Y", "Z")])
    assert d_separated(g, {"X"}, {"Y"}, set())
    assert not d_separated(g, {"X"}, {"Y"}, {"Z"})


def test_figure7_direct_edge_never_blocked():
    from phenocausal import urn_chain

    g = urn_chain(n=5).ground_truth
    assert not d_separated(g, {"K5"}, {"K3"}, {"K4"})


def test_overlapping_sets_rejected():
    g = Dag(("X", "Y"), [("X", "Y")])
    with pytest.raises(GraphError):
        d_separated(g, {"X"}, {"X"}, set())


def test_descendant_of_collider_opens_path():
    g = Dag(("X", "Y", "C", "D"), [("X", "C"), ("Y", "C"), ("C", "D")])
    assert d_separated(g, {"X"}, {"Y"}, set())
    assert not d_separated(g, {"X"}, {"Y"}, {"D"})


@pytest.mark.parametrize("seed", range(40))
def test_d_separation_matches_path_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    g = random_dag([f"v{i}" for i in range(n)], rng, edge_prob=0.5)
    nodes = list(g.nodes)
    for _ in range(10):
        rng.shuffle(nodes)
        a, b = {nodes[0]}, {nodes[1]}
        c = set(nodes[2: 2 + int(rng.integers(0, n - 1))])
        assert d_separated(g, a, b, c) == d_separated_oracle(g, a, b, c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_d_separation_symmetric(seed, pick):
    rng = np.random.default_rng(seed)
    g = random_dag(["a", "b", "c", "d", "e"], rng, edge_prob=0.4)
    rng2 = np.random.default_rng(pick)
    nodes = list(g.nodes)
    rng2.shuffle(nodes)
    a, b = {nodes[0]}, {nodes[1]}
    c = set(nodes[2: 2 + int(rng2.integers(0, 3))])
    assert d_separated(g, a, b, c) == d_separated(g, b, a, c)


# ---------------------------------------------------------------------------
# Sufficiency and marginal DAGs
# ---------------------------------------------------------------------------


def test_fork_sufficiency():
    g = Dag(("X", "C", "Y"), [("C", "X"), ("C", "Y")])
    assert not is_graphically_causally_sufficient(g, ("X", "Y"))
    assert is_graphically_causally_sufficient(g, ("X", "C", "Y"))


def test_chain_interior_dropped_is_sufficient():
    g = Dag(("X1", "X2", "X3"), [("X1", "X2"), ("X2", "X3")])
    assert is_graphically_causally_sufficient(g, ("X1", "X3"))


def test_sufficiency_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_dag([f"v{i}" for i in range(5)], rng, edge_prob=0.45)
        for _ in range(5):
            s = [v for v in g.nodes if rng.random() < 0.6]
            if not s:
                continue
            expected = True
            for node in g.nodes:
                if node in s:
                    continue
                hits = {m for m in marginal_edges_oracle(g, set(s) | {node})
                        if m[0] == node}
                if len(hits) >= 2:
                    expected = False
            assert is_graphically_causally_sufficient(g, s) == expected


def test_marginal_dag_figure9():
    g = Dag(("X1", "X2", "X3", "I"), [("X1", "X2"), ("X2", "X3"), ("I", "X2")])
    m = marginal_dag(g, ("X1", "X3", "I"))
    assert set(m.edges) == {("X1", "X3"), ("I", "X3")}


def test_marginal_dag_identity_on_full_set():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_dag(["a", "b", "c", "d"], rng, edge_prob=0.5)
        assert marginal_dag(g, g.nodes) == g


def test_marginal_dag_insufficient_raises_with_witness():
    g = Dag(("X", "C", "Y"), [("C", "X"), ("C", "Y")])
    with pytest.raises(SufficiencyError) as exc:
        marginal_dag(g, ("X", "Y"))
    assert exc.value.witness == "C"


@pytest.mark.parametrize("seed", range(25))
def test_marginal_dag_random_against_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    g = random_dag([f"v{i}" for i in range(6)], rng, edge_prob=0.4)
    for _ in range(10):
        s = tuple(v for v in g.nodes if rng.random() < 0.6)
        if len(s) < 2 or not is_graphically_causally_sufficient(g, s):
            continue
        assert set(marginal_dag(g, s).edges) == marginal_edges_oracle(g, s)


def test_marginalization_preserves_separations():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        g = random_dag([f"v{i}" for i in range(6)], rng, edge_prob=0.4)
        s = tuple(v for v in g.nodes if rng.random() < 0.7)
        if len(s) < 3 or not is_graphically_causally_sufficient(g, s):
            continue
        gs = marginal_dag(g, s)
        nodes = list(s)
        rng.shuffle(nodes)
        a, b = {nodes[0]}, {nodes[1]}
        c = set(nodes[2: 2 + int(rng.integers(0, len(s) - 1))])
        if d_separated(g, a, b, c):
            assert d_separated(gs, a, b, c)
        checked += 1


def test_marginal_dag_idempotent_on_nested_subsets():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 15:
        g = random_dag([f"v{i}" for i in range(6)], rng, edge_prob=0.4)
        s = tuple(v for v in g.nodes if rng.random() < 0.8)
        if len(s) < 3 or not is_graphically_causally_sufficient(g, s):
            continue
        gs = marginal_dag(g, s)
        s2 = tuple(v for v in s if rng.random() < 0.7)
        if len(s2) < 2:
            continue
        if not (is_graphically_causally_sufficient(gs, s2)
                and is_graphically_causally_sufficient(g, s2)):
            continue
        assert marginal_dag(gs, s2) == marginal_dag(g, s2)
        checked += 1


# ---------------------------------------------------------------------------
# Backdoor criterion
# ---------------------------------------------------------------------------


def test_backdoor_textbook_adjustment():
    g = Dag(("X", "C", "Y"), [("C", "X"), ("C", "Y"), ("X", "Y")])
    assert backdoor_admissible(g, "X", "Y", {"C"})
    assert not backdoor_admissible(g, "X", "Y", set())


def test_backdoor_rejects_descendants():
    g = Dag(("X", "M", "Y"), [("X", "M"), ("M", "Y")])
    assert not backdoor_admissible(g, "X", "Y", {"M"})


@pytest.mark.parametrize("seed", range(30))
def test_backdoor_matches_path_oracle(seed):
    rng = np.random.default_rng(500 + seed)
    g = random_dag([f"v{i}" for i in range(5)], rng, edge_prob=0.5)
    nodes = list(g.nodes)
    for x, y in itertools.permutations(nodes, 2):
        others = [v for v in nodes if v not in (x, y)]
        for mask in range(1 << len(others)):
            z = {others[k] for k in range(len(others)) if mask >> k & 1}
            assert backdoor_admissible(g, x, y, z) == backdoor_oracle(g, x, y, z)


def test_backdoor_check_builds_no_dag(monkeypatch):
    g = Dag(("C", "X", "M", "Y"), [("C", "X"), ("C", "Y"), ("X", "M"), ("M", "Y")])
    built = []
    init = Dag.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Dag, "__init__", counted)
    assert backdoor_admissible(g, "X", "Y", {"C"})
    assert not backdoor_admissible(g, "X", "Y", set())
    assert built == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_d_separation_with_cut_out_edges_equals_the_trimmed_graph(n, seed):
    rng = np.random.default_rng(seed)
    g = random_dag([f"v{i}" for i in range(n)], rng, edge_prob=0.5)
    nodes = list(rng.permutation(g.nodes))
    cut = set(nodes[:int(rng.integers(0, n + 1))])
    trimmed = Dag(g.nodes, [(u, v) for u, v in g.edges if u not in cut])
    for a, b in itertools.permutations(g.nodes, 2):
        others = [v for v in g.nodes if v not in (a, b)]
        c = {v for v in others if rng.random() < 0.4}
        assert d_separated(g, {a}, {b}, c, cut=cut) == d_separated(trimmed, {a}, {b}, c)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_all_dags_counts():
    # known DAG counts for n = 1..4 labelled nodes
    assert sum(1 for _ in all_dags(("a",))) == 1
    assert sum(1 for _ in all_dags(("a", "b"))) == 3
    assert sum(1 for _ in all_dags(("a", "b", "c"))) == 25
    assert sum(1 for _ in all_dags(("a", "b", "c", "d"))) == 543


def test_all_dags_cap():
    with pytest.raises(GraphError):
        list(all_dags(tuple("abcdefgh")))
