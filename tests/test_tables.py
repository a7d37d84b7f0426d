"""Exact-table tests: factorization, Markov checks, interventions and
factor-change detection."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phenocausal import (
    ConditionalTable,
    Dag,
    DiscreteJoint,
    TableError,
    changed_factors,
    ci_residual,
    conditional,
    d_separated,
    factorize,
    hard_intervention,
    is_markov,
    marginal_dag,
    markov_report,
    product_joint,
    random_conditional,
    random_dag,
    random_markov_joint,
    random_sufficient_subset,
    soft_intervention,
    tv_distance,
)
from phenocausal.tables import MAX_TABLE_ENTRIES, _tabulate


def _chain3():
    return Dag(("A", "B", "C"), [("A", "B"), ("B", "C")])


def _positive_joint(g, cards, seed):
    return random_markov_joint(g, cards, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# DiscreteJoint basics
# ---------------------------------------------------------------------------


def test_joint_validation():
    with pytest.raises(TableError):
        DiscreteJoint(("X",), np.array([0.4, 0.4]))
    with pytest.raises(TableError):
        DiscreteJoint(("X",), np.array([[0.5, 0.5]]))
    with pytest.raises(TableError):
        DiscreteJoint(("X", "Y"), np.array([1.5, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_joint_rejects_non_finite_entries(bad):
    # NaN passes both the negative-entry and the sum check on its own
    with pytest.raises(TableError, match="non-finite"):
        DiscreteJoint(("X", "Y"), np.array([[0.5, 0.5], [0.0, bad]]))


def test_table_cap():
    n = MAX_TABLE_ENTRIES + 1
    with pytest.raises(TableError, match="exceeds cap"):
        DiscreteJoint(("X",), np.full(n, 1 / n))


# ---------------------------------------------------------------------------
# Labeled tables from value columns
# ---------------------------------------------------------------------------


def _tabulate_reference(names, outcome_lists):
    """The former dict-based ``_tabulate`` over lists of (value tuple,
    weight) outcomes, verbatim."""
    totals = []
    for outcomes in outcome_lists:
        weights: dict[tuple, float] = {}
        for key, w in outcomes:
            if w != 0.0:
                weights[key] = weights.get(key, 0.0) + w
        totals.append(weights)
    levels = tuple(tuple(sorted({key[k] for weights in totals for key in weights}))
                   for k in range(len(names)))
    index = [{value: i for i, value in enumerate(lv)} for lv in levels]
    joints = []
    for weights in totals:
        table = np.zeros(tuple(len(lv) for lv in levels))
        for key, w in weights.items():
            table[tuple(ix[value] for ix, value in zip(index, key))] = w
        joints.append(DiscreteJoint(names, table))
    return levels, joints


# few distinct values, so rows tie; 99 and 99.5 appear only at zero weight
_INT_VALUES = st.integers(-3, 3)
_FLOAT_VALUES = st.sampled_from([-2.5, -1.0, 0.0, 0.1, 0.2, 0.30000000000000004,
                                 1e-300, 1.0, 7.25])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 3), st.integers(1, 4))
def test_tabulate_equals_dict_reference(data, n_joints, d):
    names = tuple(f"V{k}" for k in range(d))
    is_int = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
    outcomes, reference = [], []
    for j in range(n_joints):
        rows = data.draw(st.integers(1, 12))
        columns = [np.array(data.draw(st.lists(_INT_VALUES if i else _FLOAT_VALUES,
                                               min_size=rows, max_size=rows)),
                            dtype=np.int64 if i else float)
                   for i in is_int]
        counts = data.draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows)
                           .filter(lambda c: sum(c) > 0))
        weights = np.array(counts) / sum(counts)
        if j == 0:  # a value reached only at zero weight
            columns = [np.append(c, 99 if i else 99.5) for c, i in zip(columns, is_int)]
            weights = np.append(weights, 0.0)
        outcomes.append((columns, weights))
        reference.append(list(zip(zip(*(c.tolist() for c in columns)), weights.tolist())))
    levels, joints = _tabulate(names, outcomes)
    ref_levels, ref_joints = _tabulate_reference(names, reference)
    assert levels == ref_levels
    assert [[type(v) for v in lv] for lv in levels] == \
        [[type(v) for v in lv] for lv in ref_levels]
    assert all(type(v) is (int if i else float) for lv, i in zip(levels, is_int)
               for v in lv)
    assert not {99, 99.5} & {v for lv in levels for v in lv}
    for joint, ref in zip(joints, ref_joints, strict=True):
        assert joint.names == ref.names == names
        assert np.array_equal(joint.probs, ref.probs)


def test_tabulate_refuses_a_level_grid_above_the_cap():
    side = 1025  # 1025^2 cells, just above 2^20
    column = np.arange(side)
    with pytest.raises(TableError, match=r"level grid \(1025, 1025\) exceeds cap"):
        _tabulate(("X", "Y"), [((column, column), np.full(side, 1 / side))])


def test_marginal_and_permute():
    p = DiscreteJoint(("X", "Y"), np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert np.allclose(p.marginal(("Y",)).probs, [0.4, 0.6])
    q = p.permute(("Y", "X"))
    assert q.names == ("Y", "X")
    assert np.allclose(q.probs.T, p.probs)


def test_marginal_reads_names_once():
    p = DiscreteJoint(("X", "Y"), np.array([[0.1, 0.2], [0.3, 0.4]]))
    from_gen = p.marginal(n for n in ("Y",))
    assert from_gen.names == ("Y",)
    assert np.array_equal(from_gen.probs, p.marginal(("Y",)).probs)
    from_iter = p.marginal(iter(["Y", "X"]))
    assert from_iter.names == ("X", "Y")
    assert np.array_equal(from_iter.probs, p.probs)


def test_permute_reads_names_once():
    p = DiscreteJoint(("X", "Y"), np.array([[0.1, 0.2], [0.3, 0.4]]))
    q = p.permute(iter(["Y", "X"]))
    assert q.names == ("Y", "X")
    assert np.array_equal(q.probs, p.probs.T)
    assert p.permute(n for n in ("X", "Y")) is p
    for bad in (("X",), ("X", "Z"), ("X", "Y", "Y"), iter(["Y", "X", "X"])):
        with pytest.raises(TableError, match="same variable set"):
            p.permute(bad)


def test_sampling_matches_distribution():
    p = DiscreteJoint(("X", "Y"), np.array([[0.7, 0.1], [0.1, 0.1]]))
    rows = p.sample(20_000, np.random.default_rng(0))
    freq = np.zeros((2, 2))
    np.add.at(freq, (rows[:, 0], rows[:, 1]), 1.0)
    assert np.abs(freq / 20_000 - p.probs).max() < 0.02


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def test_independent_coins_factorize_to_marginals():
    g = Dag(("X", "Y"))
    p = DiscreteJoint(("X", "Y"), np.full((2, 2), 0.25))
    tables = factorize(p, g)
    for t in tables:
        assert t.given == ()
        assert np.allclose(t.table, [0.5, 0.5])


def test_factorize_product_roundtrip():
    g = Dag(("A", "B", "C"), [("A", "B"), ("B", "C"), ("A", "C")])
    p = _positive_joint(g, {"A": 2, "B": 3, "C": 2}, 0)
    q = product_joint(g, factorize(p, g)).permute(p.names)
    assert np.abs(q.probs - p.probs).max() <= 1e-12


def test_undefined_contexts_flagged_not_fabricated():
    # context X=1 has zero probability
    p = DiscreteJoint(("X", "Y"), np.array([[0.5, 0.5], [0.0, 0.0]]))
    t = conditional(p, "Y", ("X",))
    assert t.defined[0] and not t.defined[1]
    assert np.isnan(t.table[1]).all()


@pytest.mark.parametrize("row", [[np.nan, 0.5], [1.5, -0.5], [np.inf, -np.inf],
                                 [np.nan, np.nan], [0.5, np.inf]])
def test_conditional_table_refuses_bad_defined_entries(row):
    with pytest.raises(TableError, match="non-finite|negative"):
        ConditionalTable("Y", ("X",), [row, [0.5, 0.5]])
    # the same slice is accepted where its context is undefined
    t = ConditionalTable("Y", ("X",), [row, [0.5, 0.5]], defined=[False, True])
    assert np.isnan(t.table[0]).all() and list(t.table[1]) == [0.5, 0.5]


def test_conditional_table_accepts_rounding_negatives():
    t = ConditionalTable("Y", (), [1.0 + 1e-16, -1e-16])
    assert t.table[1] == -1e-16
    with pytest.raises(TableError, match="negative entry"):
        ConditionalTable("Y", (), [1.0 + 1e-13, -1e-13])


# ---------------------------------------------------------------------------
# Markov checks
# ---------------------------------------------------------------------------


def test_any_joint_markov_to_complete_dag():
    g = Dag(("X", "Y"), [("X", "Y")])
    rng = np.random.default_rng(1)
    raw = rng.random((3, 3))
    p = DiscreteJoint(("X", "Y"), raw / raw.sum())
    assert is_markov(p, g, 1e-12)


def test_dependent_pair_not_markov_to_empty_graph():
    p = DiscreteJoint(("X", "Y"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    g = Dag(("X", "Y"))
    ok, triple, worst = markov_report(p, g)
    assert not ok and worst > 0.4
    assert triple is not None


def _all_triples_markov(p, g, eps):
    """Oracle: every disjoint (a, b, c) with a and b d-separated given c,
    4^n assignments, must hold in ``p`` within ``eps``."""
    for assign in np.ndindex(*(4,) * len(g.nodes)):
        a, b, c = (tuple(v for v, k in zip(g.nodes, assign) if k == part)
                   for part in range(3))
        if a and b and d_separated(g, a, b, c) and ci_residual(p, a, b, c) > eps:
            return False
    return True


def test_markov_local_agrees_with_all_mode():
    rng = np.random.default_rng(7)
    for _ in range(15):
        g = random_dag(["a", "b", "c", "d"], rng, edge_prob=0.5)
        p = random_markov_joint(g, {v: 2 for v in g.nodes}, rng)
        assert is_markov(p, g, 1e-11)
        assert _all_triples_markov(p, g, 1e-11)
        # and a deliberately wrong graph fails both ways when it fails
        h = random_dag(["a", "b", "c", "d"], rng, edge_prob=0.3)
        assert is_markov(p, h, 1e-7) == _all_triples_markov(p, h, 1e-7)


def test_markov_preserved_under_sufficient_marginalization():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 20:
        g = random_dag([f"v{i}" for i in range(6)], rng, edge_prob=0.4)
        p = random_markov_joint(g, {v: 2 for v in g.nodes}, rng)
        s = random_sufficient_subset(g, rng)
        if len(s) < 2:
            continue
        ps = p.marginal(s)
        gs = marginal_dag(g, s)
        assert is_markov(ps, gs, 1e-12)
        checked += 1


# ---------------------------------------------------------------------------
# Interventions
# ---------------------------------------------------------------------------


def test_hard_intervention_on_source_equals_conditioning():
    g = Dag(("X", "Y"), [("X", "Y")])
    p = _positive_joint(g, {"X": 2, "Y": 3}, 2)
    h = hard_intervention(p, g, "X", 0)
    cond = p.probs[0] / p.probs[0].sum()
    assert np.abs(h.probs[0] - cond).max() <= 1e-12
    assert h.probs[1].sum() == 0.0


def test_hard_intervention_on_sink_keeps_upstream():
    g = Dag(("X", "Y"), [("X", "Y")])
    p = _positive_joint(g, {"X": 2, "Y": 3}, 3)
    h = hard_intervention(p, g, "Y", 1)
    assert np.abs(h.marginal(("X",)).probs - p.marginal(("X",)).probs).max() <= 1e-12


def test_hard_intervention_chain_matches_factor_product():
    g = _chain3()
    cards = {"A": 2, "B": 2, "C": 2}
    p = _positive_joint(g, cards, 4)
    h = hard_intervention(p, g, "B", 1)
    # oracle: rebuild from scratch with a point-mass factor
    factors = factorize(p, g)
    point = np.zeros((2, 2))
    point[:, 1] = 1.0
    oracle = product_joint(
        g, [ConditionalTable("B", ("A",), point) if f.target == "B" else f
            for f in factors])
    assert np.abs(h.permute(oracle.names).probs - oracle.probs).max() <= 1e-12


def test_hard_intervention_value_range():
    g = _chain3()
    p = _positive_joint(g, {"A": 2, "B": 2, "C": 2}, 5)
    with pytest.raises(TableError):
        hard_intervention(p, g, "B", 2)


@pytest.mark.parametrize("nodes, edges, probs, message", [
    (("A", "B"), [("A", "B")], [[0.5, 0.5], [0.0, 0.0]],
     "the conditional of 'B' is undefined given A = 1, a context of probability 0.5 "),
    (("C", "A", "B"), [("C", "B"), ("A", "B")],
     [[[0.25, 0.25], [0.0, 0.0]], [[0.25, 0.25], [0.0, 0.0]]],
     "the conditional of 'B' is undefined given C = 0, A = 1, a context of probability 0.25 "),
])
def test_soft_intervention_names_the_undefined_conditional_it_reaches(
        nodes, edges, probs, message):
    # p gives A = 1 no mass, so B's conditional is undefined there, and a
    # uniform factor of A sends mass into that context
    g = Dag(nodes, edges)
    p = DiscreteJoint(nodes, np.array(probs))
    with pytest.raises(TableError, match="^" + re.escape(message)):
        soft_intervention(p, g, "A", ConditionalTable("A", (), np.array([0.5, 0.5])))
    # a factor that keeps A = 0 reaches no undefined context
    kept = soft_intervention(p, g, "A", ConditionalTable("A", (), np.array([1.0, 0.0])))
    assert np.array_equal(kept.probs, p.probs)


def test_hard_intervention_nondescendant_marginals_unchanged():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_dag(["a", "b", "c", "d"], rng, edge_prob=0.5)
        p = random_markov_joint(g, {v: 2 for v in g.nodes}, rng)
        j = g.nodes[int(rng.integers(4))]
        h = hard_intervention(p, g, j, 0)
        nondesc = [v for v in g.nodes if v != j and v not in g.descendants(j)]
        if nondesc:
            assert np.abs(h.marginal(nondesc).probs
                          - p.marginal(nondesc).probs).max() <= 1e-12


def test_soft_intervention_identity_factor_is_noop():
    g = _chain3()
    p = _positive_joint(g, {"A": 2, "B": 2, "C": 2}, 6)
    t = conditional(p, "B", g.parents("B"))
    q = soft_intervention(p, g, "B", t)
    assert np.abs(q.probs - p.probs).max() <= 1e-12


def test_soft_intervention_requires_parent_set():
    g = _chain3()
    p = _positive_joint(g, {"A": 2, "B": 2, "C": 2}, 7)
    t = ConditionalTable("B", (), np.array([0.5, 0.5]))
    with pytest.raises(TableError):
        soft_intervention(p, g, "B", t)


def test_soft_intervention_changes_only_target_factor():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_dag(["a", "b", "c", "d"], rng, edge_prob=0.5)
        cards = {v: 2 for v in g.nodes}
        p = random_markov_joint(g, cards, rng)
        j = g.nodes[int(rng.integers(4))]
        t = random_conditional(g, j, cards, rng)
        q = soft_intervention(p, g, j, t)
        assert changed_factors(p, q, g) == (j,)
        # untouched factors are numerically identical tables
        for fp, fq in zip(factorize(p, g), factorize(q, g)):
            if fp.target != j:
                both = fp.defined & fq.defined
                assert np.abs(fp.table[both] - fq.table[both]).max() <= 1e-9


def test_soft_intervention_source_leaves_upstream_marginal():
    g = _chain3()
    cards = {"A": 3, "B": 2, "C": 2}
    p = _positive_joint(g, cards, 8)
    t = random_conditional(g, "C", cards, np.random.default_rng(9))
    q = soft_intervention(p, g, "C", t)
    assert np.abs(q.marginal(("A", "B")).probs
                  - p.marginal(("A", "B")).probs).max() <= 1e-12


# ---------------------------------------------------------------------------
# changed_factors and tv_distance
# ---------------------------------------------------------------------------


def test_changed_factors_empty_for_equal():
    g = _chain3()
    p = _positive_joint(g, {"A": 2, "B": 2, "C": 2}, 10)
    assert changed_factors(p, p, g) == ()


def test_changed_factors_symmetric_and_monotone_in_eps():
    rng = np.random.default_rng(31)
    g = _chain3()
    cards = {"A": 2, "B": 2, "C": 2}
    p = random_markov_joint(g, cards, rng)
    q = random_markov_joint(g, cards, rng)
    small = changed_factors(p, q, g, eps=1e-9)
    assert small == changed_factors(q, p, g, eps=1e-9)
    big = changed_factors(p, q, g, eps=0.2)
    assert set(big) <= set(small)


def test_changed_factors_skips_one_sided_contexts():
    # p never reaches X = 1, so nothing there says whether p(Y | X) changed
    p = DiscreteJoint(("X", "Y"), np.array([[0.5, 0.5], [0.0, 0.0]]))
    q = DiscreteJoint(("X", "Y"), np.array([[0.25, 0.25], [0.25, 0.25]]))
    g = Dag(("X", "Y"), [("X", "Y")])
    assert changed_factors(p, q, g) == ("X",)


def test_tv_distance_basics():
    p = DiscreteJoint(("X",), np.array([1.0, 0.0]))
    q = DiscreteJoint(("X",), np.array([0.0, 1.0]))
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == 1.0


def test_tv_distance_refuses_different_variables():
    p = DiscreteJoint(("X", "Y"), np.array([[0.1, 0.2], [0.3, 0.4]]))
    q = DiscreteJoint(("A", "B"), np.array([[0.3, 0.2], [0.1, 0.4]]))
    with pytest.raises(TableError, match="share variables"):
        tv_distance(p, q)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_tv_distance_matches_hand_sum(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((2, 3))
    b = rng.random((2, 3))
    p = DiscreteJoint(("X", "Y"), a / a.sum())
    q = DiscreteJoint(("X", "Y"), b / b.sum())
    hand = 0.5 * sum(abs(p.probs[i, j] - q.probs[i, j])
                     for i in range(2) for j in range(3))
    assert abs(tv_distance(p, q) - hand) <= 1e-12
    assert 0.0 <= tv_distance(p, q) <= 1.0


def _loop_factor_distance(p: DiscreteJoint, q: DiscreteJoint, g: Dag,
                          node: str) -> float:
    """Reference: the context-by-context loop over the contexts both
    conditionals define."""
    pa = g.parents(node)
    fp, fq = conditional(p, node, pa), conditional(q, node, pa)
    flat_p = fp.table.reshape(-1, fp.table.shape[-1])
    flat_q = fq.table.reshape(-1, fq.table.shape[-1])
    def_p, def_q = fp.defined.reshape(-1), fq.defined.reshape(-1)
    worst = 0.0
    for k in range(flat_p.shape[0]):
        if not (def_p[k] and def_q[k]):
            continue
        worst = max(worst, 0.5 * float(np.abs(flat_p[k] - flat_q[k]).sum()))
    return worst


def _sparse_joint(names, cards, rng, zero_frac):
    probs = rng.random(cards) * (rng.random(cards) >= zero_frac)
    if probs.sum() == 0:
        probs.flat[0] = 1.0
    return DiscreteJoint(names, probs / probs.sum())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from((0.0, 0.3, 0.7)))
def test_factor_distance_matches_context_loop(seed, zero_frac):
    # zero cells leave contexts undefined under one joint or both
    from phenocausal.tables import factor_distance

    rng = np.random.default_rng(seed)
    names = ("A", "B", "C")
    g = random_dag(names, rng, edge_prob=0.6)
    cards = tuple(int(c) for c in rng.integers(2, 4, size=3))
    p = _sparse_joint(names, cards, rng, zero_frac)
    q = _sparse_joint(names, cards, rng, zero_frac if rng.random() < 0.5 else 0.0)
    for v in names:
        assert factor_distance(p, q, g, v) == _loop_factor_distance(p, q, g, v)
        assert factor_distance(p, p, g, v) == 0.0
