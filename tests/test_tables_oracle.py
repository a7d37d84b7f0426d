"""Exact-table fast paths against the paths they replace.

``conditional`` takes its marginal straight from the joint's array and
memoizes the table on the joint, ``ci_residual`` reduces over every positive
context in one array pass, ``product_joint`` zeroes undefined slices
through the ``defined`` mask, and ``changed_factors`` compares the
conditionals of both joints in one stacked pass. The references below are
the former paths: the marginal-then-permute conditional with the
copy-and-assign masking, the per-context residual loop, the ``nan_to_num``
product and the node-by-node ``factor_distance`` loop. The properties
require equal bits, not closeness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phenocausal import (
    Dag,
    DiscreteJoint,
    TableError,
    changed_factors,
    ci_residual,
    conditional,
    factor_distance,
    factorize,
    product_joint,
    random_dag,
    random_markov_joint,
)
from phenocausal import tables


def _reference_conditional(p: DiscreteJoint, target: str, given
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(table, defined) of p(target | given) through intermediate joints."""
    given = tuple(given)
    sub = p.marginal((*given, target)).permute((*given, target))
    ctx = sub.probs.sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        table = sub.probs / ctx[..., None]
    defined = ctx > 0.0
    table = table.copy()
    table[~defined] = np.nan
    return table, defined


def _reference_ci_residual(p: DiscreteJoint, a, b, c=()) -> float:
    """The residual as a loop over the c-contexts."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    sub = p.marginal((*c, *a, *b)).permute((*c, *a, *b))
    nc, na = len(c), len(a)
    t = sub.probs
    c_shape = t.shape[:nc]
    a_shape = t.shape[nc:nc + na]
    b_shape = t.shape[nc + na:]
    t = t.reshape(int(np.prod(c_shape or (1,))), int(np.prod(a_shape or (1,))),
                  int(np.prod(b_shape or (1,))))
    ctx = t.sum(axis=(1, 2))
    worst = 0.0
    for k in range(t.shape[0]):
        if ctx[k] <= 0.0:
            continue
        joint = t[k] / ctx[k]
        prod = joint.sum(axis=1, keepdims=True) * joint.sum(axis=0, keepdims=True)
        worst = max(worst, 0.5 * float(np.abs(joint - prod).sum()))
    return worst


def _reference_product(g, factors) -> np.ndarray:
    """The product of the factors over ``g``'s node order, NaN read as 0."""
    shape = tuple(next(f.table.shape[-1] for f in factors if f.target == v)
                  for v in g.nodes)
    n = len(g.nodes)
    result = np.ones(shape)
    for f in factors:
        tab = np.nan_to_num(f.table, nan=0.0)
        axes = [g.nodes.index(v) for v in (*f.given, f.target)]
        order = np.argsort(axes)
        axis_set = set(axes)
        view = np.transpose(tab, order).reshape(
            [shape[i] if i in axis_set else 1 for i in range(n)])
        result = result * view
    return result


@st.composite
def _joints(draw, min_vars: int = 1, max_vars: int = 5,
            max_card: int = 3) -> DiscreteJoint:
    """A joint over ``min_vars``-``max_vars`` variables of cardinality
    1-``max_card``, with zero cells so that some contexts are undefined, its
    axes in a shuffled order."""
    cards = draw(st.lists(st.integers(1, max_card), min_size=min_vars,
                          max_size=max_vars))
    zero_frac = draw(st.sampled_from((0.0, 0.3, 0.7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.random(cards) * (rng.random(cards) >= zero_frac)
    if probs.sum() == 0:
        probs.flat[0] = 1.0
    names = [f"V{i}" for i in range(len(cards))]
    p = DiscreteJoint(names, probs / probs.sum())
    return p.permute(draw(st.permutations(names)))


# Sums over more than 8 entries add pairwise along a contiguous axis and in
# sequence along any other, so only wide axes show a change of memory order.
_WIDE = _joints(max_vars=3, max_card=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from((_joints(), _WIDE)))
def test_conditional_matches_marginal_permute(data, joints):
    p = data.draw(joints)
    target = data.draw(st.sampled_from(p.names))
    rest = [n for n in p.names if n != target]
    given_ = data.draw(st.permutations(rest))[:data.draw(st.integers(0, len(rest)))]
    t = conditional(p, target, given_)
    ref_table, ref_defined = _reference_conditional(p, target, given_)
    assert (t.target, t.given) == (target, tuple(given_))
    assert np.array_equal(t.table, ref_table, equal_nan=True)
    assert np.array_equal(t.defined, ref_defined)
    assert t.table.flags.c_contiguous


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from((_joints(min_vars=2),
                                   _joints(min_vars=2, max_vars=3, max_card=12))))
def test_ci_residual_matches_context_loop(data, joints):
    p = data.draw(joints)
    names = data.draw(st.permutations(p.names))
    na = data.draw(st.integers(1, len(names) - 1))
    nb = data.draw(st.integers(1, len(names) - na))
    nc = data.draw(st.integers(0, len(names) - na - nb))
    a, b = names[:na], names[na:na + nb]
    c = names[na + nb:na + nb + nc]
    assert ci_residual(p, a, b, c) == _reference_ci_residual(p, a, b, c)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_product_joint_matches_nan_to_num(data):
    p = data.draw(_joints())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = random_dag(data.draw(st.permutations(p.names)), rng, edge_prob=0.5)
    factors = factorize(p, g)
    ref = _reference_product(g, factors)
    if abs(ref.sum() - 1.0) > 1e-12:
        # p is not Markov to g, and the product puts mass on a context the
        # undefined slices of p's conditionals drop
        with pytest.raises(TableError, match="entries sum to"):
            product_joint(g, factors)
        return
    q = product_joint(g, factors)
    assert q.names == g.nodes
    assert np.array_equal(q.probs, ref)
    assert q.probs.flags.c_contiguous


def test_conditional_is_computed_once_per_joint(monkeypatch):
    p = DiscreteJoint(("X", "Y", "Z"), np.full((2, 3, 2), 1 / 12))
    calls = []
    real = tables._conditional

    def counted(joint, target, given):
        calls.append((target, given))
        return real(joint, target, given)

    monkeypatch.setattr(tables, "_conditional", counted)
    first = conditional(p, "Y", ("X", "Z"))
    assert conditional(p, "Y", ["X", "Z"]) is first
    assert conditional(p, "Y", iter(("X", "Z"))) is first
    other = conditional(p, "Y", ("Z", "X"))
    assert other is not first and other.given == ("Z", "X")
    # an equal joint is another object with its own memo
    twin = DiscreteJoint(p.names, p.probs)
    assert conditional(twin, "Y", ("X", "Z")) is not first
    assert calls == [("Y", ("X", "Z")), ("Y", ("Z", "X")), ("Y", ("X", "Z"))]


def _loop_changed_factors(p: DiscreteJoint, q: DiscreteJoint, g, eps: float
                          ) -> tuple[str, ...]:
    """``changed_factors`` as ``factor_distance`` node by node."""
    return g.sorted_tuple(n for n in g.nodes if factor_distance(p, q, g, n) > eps)


@st.composite
def _joint_pairs(draw, joints):
    """(p, q, g): a joint from ``joints``, a joint over the same variables
    and cardinalities mixed into it at a drawn weight (zero cells of both
    stay zero), in p's or a shuffled variable order, and a random DAG."""
    p = draw(joints)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    other = rng.random(p.cards) * (rng.random(p.cards) >= 0.5)
    if other.sum() == 0:
        other = p.probs
    t = draw(st.sampled_from((0.0, 1e-13, 1e-10, 1e-3, 0.3, 1.0)))
    q = DiscreteJoint(p.names, (1 - t) * p.probs + t * other / other.sum())
    q = q.permute(draw(st.sampled_from((p.names, draw(st.permutations(p.names))))))
    g = random_dag(draw(st.permutations(p.names)), rng, edge_prob=0.5)
    return p, q, g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from((_joints(), _WIDE)).flatmap(_joint_pairs))
def test_changed_factors_matches_factor_distance_loop(pq):
    p, q, g = pq
    # the loop sums each joint in its own memory order, the one pass both in
    # p's variable order, C-ordered. On two joints so laid out, as
    # product_joint and marginal build them, both add in the same order
    cp = DiscreteJoint(p.names, np.ascontiguousarray(p.probs))
    cq = DiscreteJoint(p.names, np.ascontiguousarray(q.permute(p.names).probs))
    # thresholds at each distance and just below it: a distance off by one
    # bit flips a node in or out
    near = [eps for node in g.nodes for d in [factor_distance(cp, cq, g, node)]
            for eps in (d, np.nextafter(d, -1.0))]
    for eps in (0.0, 1e-12, 1e-9, 0.05, 0.5, *near):
        assert changed_factors(cp, cq, g, eps) == _loop_changed_factors(cp, cq, g, eps)
    # in other layouts and orders the sums differ by rounding alone, which a
    # threshold of 1e-12 or more never sees
    for eps in (1e-12, 1e-9, 0.05, 0.5):
        assert changed_factors(p, q, g, eps) == _loop_changed_factors(p, q, g, eps)


def test_changed_factors_builds_no_conditional_and_keeps_no_memo(monkeypatch):
    rng = np.random.default_rng(5)
    g = random_dag(["A", "B", "C", "D"], rng, edge_prob=0.6)
    cards = {"A": 2, "B": 3, "C": 2, "D": 2}
    p = random_markov_joint(g, cards, rng)
    q = random_markov_joint(g, cards, rng).permute(("D", "C", "B", "A"))

    def refuse(joint, target, given):
        raise AssertionError(f"conditional of {target!r} given {given} computed")

    monkeypatch.setattr(tables, "_conditional", refuse)
    assert changed_factors(p, q, g) == g.nodes
    assert p._conditionals == {} and q._conditionals == {}


def test_changed_factors_refuses_mismatched_cardinalities():
    p = DiscreteJoint(("X", "Y"), np.full((2, 2), 0.25))
    q = DiscreteJoint(("Y", "X"), np.full((2, 3), 1 / 6))
    g = Dag(("X", "Y"), [("X", "Y")])
    with pytest.raises(TableError, match="shape mismatch"):
        changed_factors(p, q, g)
