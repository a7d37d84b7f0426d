"""``valid_graphs`` against brute force.

``valid_graphs`` computes each node-local quantity once per call and looks
it up for every later candidate DAG. The oracles here classify every DAG of
``all_dags`` from scratch: the statistical one with fresh ``markov_report``
and ``changed_factors`` calls, the unit one with a fresh solver per graph.
The call-count tests pin the sharing itself.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from phenocausal import (
    ActionVerdict,
    ClassificationReport,
    Dag,
    DiscreteJoint,
    StatisticalAction,
    VerdictKind,
    all_dags,
    build_exemplar,
    bundles_chain,
    changed_factors,
    markov_report,
    random_conditional,
    random_dag,
    random_markov_joint,
    soft_intervention,
    urn_bivariate,
    urn_chain,
    valid_graphs,
)
from phenocausal import actions
from phenocausal.actions import classify_unit_displacements


def _markov_violation(label: str, what: str, joint, g, eps: float):
    ok, triple, worst = markov_report(joint, g, eps=max(eps, 1e-9))
    if ok:
        return None
    a, b, c = triple
    return ActionVerdict(label, VerdictKind.VIOLATION, None,
                         f"{what} violates {a} _||_ {b} | {c} implied by the "
                         f"graph (residual {worst:.3g})")


def _statistical_oracle(baseline: DiscreteJoint, suite, eps: float = 1e-9
                        ) -> list[ClassificationReport]:
    """The report of every DAG over the baseline's variables, in
    ``all_dags`` order, each built from scratch."""
    out = []
    for g in all_dags(baseline.names):
        verdicts = []
        diagnostics: dict = {"changed": {}}
        broken = _markov_violation("(baseline)", "baseline", baseline, g, eps)
        if broken:
            verdicts.append(broken)
        for action in suite:
            effect = action.resolve(baseline)
            changed = changed_factors(baseline, effect, g, eps)
            diagnostics["changed"][action.label] = list(changed)
            if len(changed) >= 2:
                verdicts.append(ActionVerdict(
                    action.label, VerdictKind.VIOLATION, None,
                    f"changes conditionals of {list(changed)}"))
                continue
            broken = _markov_violation(action.label, "effect", effect, g, eps)
            if broken:
                verdicts.append(broken)
            elif not changed:
                verdicts.append(ActionVerdict(action.label, VerdictKind.IDENTITY))
            else:
                verdicts.append(ActionVerdict(action.label, VerdictKind.ASSIGNED,
                                              changed[0]))
        out.append(ClassificationReport(g, tuple(verdicts), diagnostics))
    return out


def _unit_oracle(disp, eps: float = 1e-9) -> list[ClassificationReport]:
    """The report of every DAG over the system's variables, each from a
    fresh solver that shares nothing with the others."""
    return [classify_unit_displacements(g, disp, eps) for g in all_dags(disp.columns)]


def _as_json(pairs):
    return [(g, report.to_json_obj()) for g, report in pairs]


def _coupling(p: DiscreteJoint, u: str, w: str) -> DiscreteJoint:
    """Couple two independent root variables of ``p``: their joint becomes
    p(u) p(w) + d (e0 - e1)(e0 - e1)^T, which keeps both marginals and every
    other mechanism. A graph with u and w as unlinked roots then sees no
    changed conditional but a non-Markov effect."""
    mu = p.marginal((u,)).probs
    mw = p.marginal((w,)).probs
    d = 0.5 * min(mu[0] * mw[1], mu[1] * mw[0])
    s = np.zeros(len(mu))
    s[:2] = (1.0, -1.0)
    t = np.zeros(len(mw))
    t[:2] = (1.0, -1.0)
    ratio = 1.0 + d * np.outer(s, t) / np.outer(mu, mw)
    shape = [1] * len(p.names)
    iu, iw = p.axis(u), p.axis(w)
    shape[iu], shape[iw] = len(mu), len(mw)
    if iu > iw:
        ratio = ratio.T
    q = p.probs * ratio.reshape(shape)
    return DiscreteJoint(p.names, q / q.sum())


def _statistical_instance(n: int, cards: list[int], seed: int, identity: bool,
                          couple: bool, generated: bool):
    """A random Markov baseline with one soft intervention per node, plus
    optional identity, dependence-creating and callable actions."""
    rng = np.random.default_rng(seed)
    nodes = [f"X{i}" for i in range(n)]
    g = random_dag(nodes, rng, edge_prob=0.5)
    # X0 and X1 are unlinked roots, so the baseline makes them independent
    roots = {"X0", "X1"}
    g = Dag(nodes, [(a, b) for a, b in g.edges if b not in roots])
    card = dict(zip(nodes, cards))
    p = random_markov_joint(g, card, rng)
    suite = [StatisticalAction(f"soft-{v}", soft_intervention(
        p, g, v, random_conditional(g, v, card, rng))) for v in nodes]
    if identity:
        suite.append(StatisticalAction("noop", p.permute(tuple(reversed(nodes)))))
    if couple:
        suite.append(StatisticalAction("couple", _coupling(p, "X0", "X1")))
    if generated:
        v = nodes[-1]
        t = random_conditional(g, v, card, rng)
        suite.append(StatisticalAction(
            f"gen-{v}", lambda base: soft_intervention(base, g, v, t)))
    return g, p, suite


_FLAGS = dict(cards=st.lists(st.integers(2, 3), min_size=4, max_size=4),
              seed=st.integers(0, 2**31), identity=st.booleans(),
              couple=st.booleans(), generated=st.booleans())


def _check_statistical(n, cards, seed, identity, couple, generated):
    g, p, suite = _statistical_instance(n, cards[:n], seed, identity, couple,
                                        generated)
    reports = _statistical_oracle(p, suite)
    expected = [(r.graph, r) for r in reports if r.valid]
    assert _as_json(valid_graphs(p, suite, mode="statistical")) == _as_json(expected)
    # every candidate, valid or not, from one shared suite
    shared = actions._StatisticalSuite(p, suite, 1e-9)
    assert [shared.classify(r.graph).to_json_obj() for r in reports] == \
        [r.to_json_obj() for r in reports]
    if couple:
        truth = next(r for r in reports if r.graph == g)
        assert "effect violates" in truth.verdict_for("couple").detail


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 3), **_FLAGS)
def test_statistical_valid_graphs_match_brute_force(n, cards, seed, identity,
                                                     couple, generated):
    _check_statistical(n, cards, seed, identity, couple, generated)


# the brute-force oracle takes 2.5-4.5 s per four-node instance
@settings(max_examples=2, deadline=None, derandomize=True)
@given(**_FLAGS)
def test_statistical_valid_graphs_match_brute_force_four_nodes(
        cards, seed, identity, couple, generated):
    _check_statistical(4, cards, seed, identity, couple, generated)


_UNIT_SYSTEMS = {
    "urn2": lambda: urn_bivariate(),
    "urnN-3": lambda: urn_chain(n=3),
    "bundles-3": lambda: bundles_chain(n=3),
    "rabbits1": lambda: build_exemplar("rabbits1"),
    "rabbits2": lambda: build_exemplar("rabbits2"),
    "macro1": lambda: build_exemplar("macro1"),
    "macro2": lambda: build_exemplar("macro2"),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_UNIT_SYSTEMS)), trials=st.integers(1, 120),
       seed=st.integers(0, 2**31))
def test_unit_valid_graphs_match_brute_force(name, trials, seed):
    ex = _UNIT_SYSTEMS[name]()
    disp = actions.unit_displacements(ex.scm, ex.unit_actions, trials, seed)
    reports = _unit_oracle(disp)
    expected = [(r.graph, r) for r in reports if r.valid]
    got = valid_graphs(ex.scm, ex.unit_actions, mode="unit", trials=trials, seed=seed)
    assert _as_json(got) == _as_json(expected)
    shared = actions._UnitSuite(disp, 1e-9)
    assert [shared.classify(r.graph).to_json_obj() for r in reports] == \
        [r.to_json_obj() for r in reports]


def _content(joint: DiscreteJoint) -> tuple:
    return joint.names, joint.probs.shape, joint.probs.tobytes()


def test_statistical_node_local_work_runs_once_per_key(monkeypatch):
    _, p, suite = _statistical_instance(4, [2, 3, 2, 2], 5, identity=False,
                                        couple=True, generated=True)
    assert len({_content(a.resolve(p)) for a in suite} | {_content(p)}) == len(suite) + 1
    conditionals: Counter = Counter()
    residuals: Counter = Counter()
    effects: Counter = Counter()

    def conditional(joint, target, given):
        conditionals[(_content(joint), target, tuple(given))] += 1
        return real_conditional(joint, target, given)

    def ci_residual(joint, a, b, c=()):
        residuals[(_content(joint), tuple(a), tuple(b), tuple(c))] += 1
        return real_residual(joint, a, b, c)

    def counted(action):
        def effect(base):
            effects[action.label] += 1
            return action.resolve(base)
        return StatisticalAction(action.label, effect)

    real_conditional, real_residual = actions.conditional, actions.ci_residual
    monkeypatch.setattr(actions, "conditional", conditional)
    monkeypatch.setattr(actions, "ci_residual", ci_residual)
    out = valid_graphs(p, [counted(a) for a in suite], mode="statistical")
    assert out
    assert max(conditionals.values()) == 1
    assert max(residuals.values()) == 1
    assert effects == {a.label: 1 for a in suite}


def test_unit_solves_run_once_per_key(monkeypatch):
    ex = urn_chain(n=4, k0=(30,) * 4, rounds=3)
    keys: list = []
    solves = Counter()
    real_solution = actions._UnitSuite.solution
    real_solve, real_free = actions._consistent_solution, actions._free_coefficients

    def solution(self, v, pa, block):
        keys.append((v, pa, block))
        return real_solution(self, v, pa, block)

    def solve(m, b, eps):
        solves["solve"] += 1
        return real_solve(m, b, eps)

    def free(m):
        solves["free"] += 1
        return real_free(m)

    monkeypatch.setattr(actions._UnitSuite, "solution", solution)
    monkeypatch.setattr(actions, "_consistent_solution", solve)
    monkeypatch.setattr(actions, "_free_coefficients", free)
    out = valid_graphs(ex.scm, ex.unit_actions, mode="unit", trials=60, seed=5)
    assert [frozenset(g.edges) for g, _ in out] == [frozenset(ex.ground_truth.edges)]
    assert solves["solve"] == len(set(keys)) < len(keys)
    assert solves["free"] <= len(set(keys))


def test_coupling_keeps_marginals_and_other_mechanisms():
    g, p, suite = _statistical_instance(3, [3, 2, 3], 11, identity=False,
                                        couple=True, generated=False)
    q = next(a for a in suite if a.label == "couple").resolve(p)
    for v in ("X0", "X1"):
        assert np.allclose(q.marginal((v,)).probs, p.marginal((v,)).probs, atol=1e-12)
    assert changed_factors(p, q, g) == ()
    assert not markov_report(q, g)[0]
