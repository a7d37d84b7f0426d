"""Exact-table fast paths against the paths they replace.

``conditional`` takes its marginal straight from the joint's array and
memoizes the table on the joint, ``ci_residual`` reduces over every positive
context in one array pass, and ``product_joint`` zeroes undefined slices
through the ``defined`` mask. The references below are the former paths:
the marginal-then-permute conditional with the copy-and-assign masking, the
per-context residual loop and the ``nan_to_num`` product. The properties
require equal bits, not closeness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phenocausal import (
    DiscreteJoint,
    TableError,
    ci_residual,
    conditional,
    factorize,
    product_joint,
    random_dag,
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
