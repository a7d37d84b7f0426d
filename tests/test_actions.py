"""Action-classification tests for both encodings, plus graph enumeration
and bivariate verdicts."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phenocausal.actions import unit_displacements
from phenocausal import (
    ClassificationError,
    ConditionalTable,
    Dag,
    DirectionVerdict,
    DiscreteJoint,
    GeneralScm,
    NoiseSpec,
    ScmError,
    StatisticalAction,
    UnitAction,
    VerdictKind,
    all_dags,
    bivariate_direction,
    build_exemplar,
    classify_statistical,
    classify_unit,
    exact_joint,
    product_joint,
    random_conditional,
    random_dag,
    random_markov_joint,
    soft_intervention,
    unit_action_from_spec,
    urn_bivariate,
    urn_chain,
    valid_graphs,
)
from test_discovery import root_shift_to_an_unreached_value


def _urn2():
    return urn_bivariate(kb0=40, kr0=40, rounds=4)


# ---------------------------------------------------------------------------
# Statistical classification
# ---------------------------------------------------------------------------


def test_urn_statistical_assignments():
    ex = _urn2()
    report = classify_statistical(ex.ground_truth, ex.baseline,
                                  ex.statistical_actions)
    assert report.valid
    verdicts = {v.label: v for v in report.verdicts}
    assert verdicts["A1-bias-shift"].node == "Kb"
    assert verdicts["A2-bias-shift"].node == "Kr"


def test_urn_statistical_reversed_graph_violates():
    ex = _urn2()
    reversed_g = Dag(("Kb", "Kr"), [("Kr", "Kb")])
    report = classify_statistical(reversed_g, ex.baseline, ex.statistical_actions)
    assert not report.valid
    v = {v.label: v for v in report.verdicts}["A1-bias-shift"]
    assert v.kind is VerdictKind.VIOLATION
    assert "Kb" in v.detail and "Kr" in v.detail


def test_identity_action_reported_as_identity():
    ex = _urn2()
    actions = (StatisticalAction("noop", ex.baseline),)
    report = classify_statistical(ex.ground_truth, ex.baseline, actions)
    (verdict,) = report.verdicts
    assert verdict.label == "noop" and verdict.kind is VerdictKind.IDENTITY
    assert report.valid


def test_generator_effects_resolved_from_baseline():
    ex = _urn2()
    g = ex.ground_truth

    def regenerate(baseline):
        t = conditional_of(baseline)
        return soft_intervention(baseline, g, "Kr", t)

    from phenocausal import random_conditional as _rc

    def conditional_of(baseline):
        return _rc(g, "Kr", {"Kb": baseline.cards[0], "Kr": baseline.cards[1]},
                   np.random.default_rng(0))

    report = classify_statistical(g, ex.baseline,
                                  (StatisticalAction("gen", regenerate),))
    (verdict,) = report.verdicts
    assert verdict.label == "gen" and verdict.node == "Kr"


def test_soft_intervention_actions_classified_by_construction():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = random_dag(["a", "b", "c"], rng, edge_prob=0.5)
        cards = {v: 2 for v in g.nodes}
        p = random_markov_joint(g, cards, rng)
        j = g.nodes[int(rng.integers(3))]
        t = random_conditional(g, j, cards, rng)
        action = StatisticalAction("soft", soft_intervention(p, g, j, t))
        report = classify_statistical(g, p, (action,))
        (verdict,) = report.verdicts
        assert verdict.label == "soft"
        assert verdict.kind in (VerdictKind.ASSIGNED, VerdictKind.IDENTITY)
        if verdict.kind is VerdictKind.ASSIGNED:
            assert verdict.node == j


def test_non_markov_baseline_invalidates_graph():
    p = DiscreteJoint(("X", "Y"), np.array([[0.5, 0.0], [0.0, 0.5]]))
    g = Dag(("X", "Y"))
    report = classify_statistical(g, p, ())
    assert not report.valid
    assert report.verdicts[0].label == "(baseline)"


def test_statistical_permutation_equivariance():
    ex = _urn2()
    g = ex.ground_truth
    report = classify_statistical(g, ex.baseline, ex.statistical_actions)
    swap = {"Kb": "Red", "Kr": "Blue"}
    assert g == Dag(("Kb", "Kr"), [("Kb", "Kr")])
    g2 = Dag(("Red", "Blue"), [("Red", "Blue")])
    baseline2 = DiscreteJoint(("Red", "Blue"), ex.baseline.probs)
    actions2 = tuple(
        StatisticalAction(a.label,
                          DiscreteJoint(("Red", "Blue"), a.resolve(ex.baseline).probs))
        for a in ex.statistical_actions)
    report2 = classify_statistical(g2, baseline2, actions2)
    assert report2.valid == report.valid
    for v1, v2 in zip(report.verdicts, report2.verdicts):
        assert v2.node == (swap[v1.node] if v1.node else None)


# ---------------------------------------------------------------------------
# Unit-level classification
# ---------------------------------------------------------------------------


def test_urn_unit_assignments_match_example():
    ex = _urn2()
    report = classify_unit(ex.ground_truth, ex.scm, ex.unit_actions,
                           trials=100, seed=1)
    assert report.valid
    assert {v.label: v.node for v in report.verdicts} == {
        "A1+": "Kb", "A1-": "Kb", "A2+": "Kr", "A2-": "Kr"}
    assert report.diagnostics["coefficients"]["Kb->Kr"] == pytest.approx(-1.0)


def test_urn_unit_reversed_graph_invalid():
    ex = _urn2()
    reversed_g = Dag(("Kb", "Kr"), [("Kr", "Kb")])
    report = classify_unit(reversed_g, ex.scm, ex.unit_actions, trials=100, seed=1)
    assert not report.valid


def test_urn_chain_unit_assignments():
    ex = urn_chain(n=4, k0=(30,) * 4, rounds=3)
    report = classify_unit(ex.ground_truth, ex.scm, ex.unit_actions,
                           trials=60, seed=2)
    assert report.valid
    nodes = {v.label: v.node for v in report.verdicts}
    for j in range(1, 5):
        assert nodes[f"A{j}+"] == nodes[f"A{j}-"] == f"K{j}"


def test_inapplicable_action_reported():
    ex = urn_bivariate(kb0=12, kr0=12, rounds=3)
    # an action refused everywhere: requires a strictly negative-count state
    bad = unit_action_from_spec(
        "impossible", {"kind": "add-constant", "deltas": {"Kb": 1},
                       "requires_positive": ["Kb"]})
    # make it genuinely inapplicable by subtracting far more than exists
    really_bad = unit_action_from_spec(
        "drain", {"kind": "add-constant", "deltas": {"Kr": -1000},
                  "requires_positive": []})

    def refuse(x, nodes):
        return np.zeros(len(x), dtype=bool), x.copy()

    refuser = UnitAction("refuser", refuse)
    report = classify_unit(ex.ground_truth, ex.scm,
                           ex.unit_actions + (refuser,), trials=20, seed=3)
    assert not report.valid
    v = report.verdicts[-1]
    assert v.label == "refuser"
    assert v.kind is VerdictKind.VIOLATION and "inapplicable" in v.detail
    del bad, really_bad


# ---------------------------------------------------------------------------
# valid_graphs and direction verdicts
# ---------------------------------------------------------------------------


def test_urn2_statistical_unique_graph():
    ex = _urn2()
    out = valid_graphs(ex.baseline, ex.statistical_actions, mode="statistical")
    assert [sorted(g.edges) for g, _ in out] == [[("Kb", "Kr")]]


def test_urn2_unit_unique_graph():
    ex = _urn2()
    out = valid_graphs(ex.scm, ex.unit_actions, mode="unit", trials=80, seed=5)
    assert [sorted(g.edges) for g, _ in out] == [[("Kb", "Kr")]]


def test_urn_chain_unit_unique_graph():
    ex = urn_chain(n=4, k0=(30,) * 4, rounds=3)
    out = valid_graphs(ex.scm, ex.unit_actions, mode="unit", trials=60, seed=5)
    assert len(out) == 1
    assert frozenset(out[0][0].edges) == frozenset(ex.ground_truth.edges)


def test_valid_graphs_rerun_reproduces_valid():
    ex = _urn2()
    for g, report in valid_graphs(ex.baseline, ex.statistical_actions,
                                  mode="statistical"):
        again = classify_statistical(g, ex.baseline, ex.statistical_actions)
        assert again.valid and report.valid


def test_empty_action_list_vacuously_valid():
    ex = _urn2()
    out = valid_graphs(ex.scm, (), mode="unit", trials=10, seed=1)
    assert len(out) == 3  # all DAGs over two nodes


def test_valid_graphs_node_cap():
    ex = urn_chain(n=6, k0=(30,) * 6, rounds=3)
    with pytest.raises(ClassificationError):
        valid_graphs(ex.scm, ex.unit_actions, mode="unit", trials=10, seed=1)


def _zeroed_conditional(g: Dag, node: str, cards: dict, rng, rate: float
                        ) -> ConditionalTable:
    """Random conditional of ``node`` given its parents in ``g`` with entries
    zeroed at ``rate``; each context keeps one positive entry."""
    shape = tuple(cards[u] for u in g.parents(node)) + (cards[node],)
    raw = (rng.random(shape) + 0.05) * (rng.random(shape) >= rate)
    raw[..., 0][~raw.any(axis=-1)] = 1.0
    return ConditionalTable(node, g.parents(node), raw / raw.sum(axis=-1, keepdims=True))


def _soft_intervention_instance(seed: int, rate: float):
    """A generating DAG on 2-4 nodes, its product-joint baseline and one soft
    intervention on each of 1 to n nodes, every conditional zeroed at
    ``rate``. Each joint is the product of its factors, so each action
    changes exactly one conditional of the generating graph, whatever
    contexts the baseline leaves unreached."""
    rng = np.random.default_rng(seed)
    names = tuple("ABCD"[:int(rng.integers(2, 5))])
    g = random_dag(names, rng, edge_prob=0.6)
    cards = {v: int(rng.integers(2, 4)) for v in names}
    factors = [_zeroed_conditional(g, v, cards, rng, rate) for v in names]
    targets = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
    actions = []
    for v in g.sorted_tuple(targets):
        t = _zeroed_conditional(g, v, cards, rng, rate)
        effect = product_joint(g, [t if f.target == v else f for f in factors])
        actions.append(StatisticalAction(f"soft-{v}", effect))
    return g, product_joint(g, factors), tuple(actions)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_generating_graph_is_valid_under_zero_cell_soft_interventions(seed):
    # a context that only one joint reaches carries no evidence, so a child
    # of an intervened node does not read as changed there
    g, baseline, actions = _soft_intervention_instance(seed, 0.35)
    valid = {frozenset(h.edges) for h, _ in valid_graphs(baseline, actions)}
    assert frozenset(g.edges) in valid


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from((0.0, 0.35)))
def test_valid_set_is_up_closed(seed, rate):
    # every DAG that contains a valid DAG is valid (README, "Contexts of
    # probability zero")
    _, baseline, actions = _soft_intervention_instance(seed, rate)
    valid = {frozenset(h.edges) for h, _ in valid_graphs(baseline, actions)}
    for h in all_dags(baseline.names):
        edges = frozenset(h.edges)
        if any(v <= edges for v in valid):
            assert edges in valid


def test_bivariate_direction_urn():
    ex = _urn2()
    assert bivariate_direction(ex.baseline, ex.statistical_actions) \
        is DirectionVerdict.X_CAUSES_Y  # (X, Y) = (Kb, Kr)
    assert bivariate_direction(ex.scm, ex.unit_actions, mode="unit",
                               trials=60, seed=2) is DirectionVerdict.X_CAUSES_Y


def test_independent_pair_with_marginal_actions_undetermined():
    # each action changes exactly one marginal of an independent pair; the
    # empty graph and X->Y both validate, so the verdict stays undetermined
    p = DiscreteJoint(("X", "Y"), np.outer([0.5, 0.5], [0.3, 0.7]))
    qx = DiscreteJoint(("X", "Y"), np.outer([0.8, 0.2], [0.3, 0.7]))
    qy = DiscreteJoint(("X", "Y"), np.outer([0.5, 0.5], [0.6, 0.4]))
    actions = (StatisticalAction("shift-x", qx), StatisticalAction("shift-y", qy))
    out = valid_graphs(p, actions, mode="statistical")
    keys = {frozenset(g.edges) for g, _ in out}
    assert frozenset() in keys and len(keys) >= 2
    assert bivariate_direction(p, actions) is DirectionVerdict.UNDETERMINED


def test_root_shift_to_an_unreached_value_is_assigned_to_the_root():
    # the baseline never reaches X = 1, so p(Y | X) is compared at X = 0 alone
    p, q, g = root_shift_to_an_unreached_value()
    action = StatisticalAction("shift-x", q)
    out = valid_graphs(p, (action,), mode="statistical")
    assert [sorted(h.edges) for h, _ in out] == [[("X", "Y")]]
    report = classify_statistical(g, p, (action,))
    assert [(v.kind, v.node) for v in report.verdicts] == [(VerdictKind.ASSIGNED, "X")]


def test_dependence_creating_action_violates_empty_graph():
    # an action that keeps both marginals but couples the variables breaks
    # the empty graph's independence; the violation is caught through the
    # effect-level Markov check rather than the projected factors
    p = DiscreteJoint(("X", "Y"), np.outer([0.5, 0.5], [0.5, 0.5]))
    coupled = DiscreteJoint(("X", "Y"), np.array([[0.4, 0.1], [0.1, 0.4]]))
    report = classify_statistical(Dag(("X", "Y")), p,
                                  (StatisticalAction("couple", coupled),))
    assert not report.valid
    (v,) = report.verdicts
    assert v.label == "couple"
    assert v.kind is VerdictKind.VIOLATION and "effect violates" in v.detail


def test_unit_mode_type_checks():
    ex = _urn2()
    with pytest.raises(ClassificationError):
        valid_graphs(ex.scm, ex.unit_actions, mode="statistical")
    with pytest.raises(ClassificationError):
        valid_graphs(ex.baseline, ex.statistical_actions, mode="unit")
    with pytest.raises(ClassificationError):
        bivariate_direction(urn_chain(n=3, k0=(20,) * 3, rounds=2).scm, (),
                            mode="unit")


def test_unit_mode_needs_a_trial():
    ex = _urn2()
    for trials in (0, -2):
        with pytest.raises(ClassificationError, match="at least one trial"):
            classify_unit(ex.ground_truth, ex.scm, ex.unit_actions, trials=trials)
        with pytest.raises(ClassificationError, match="at least one trial"):
            valid_graphs(ex.scm, ex.unit_actions, mode="unit", trials=trials)


def _refuse_sampling(monkeypatch):
    def refuse(self, n, seed):
        raise AssertionError("noise was sampled before the refusal")

    monkeypatch.setattr(GeneralScm, "sample_noise", refuse)


@pytest.mark.parametrize("kwargs, match", [
    ({"trials": 2.5}, "^trials must be an integer, got 2.5$"),
    ({"trials": "80"}, "^trials must be an integer, got '80'$"),
    ({"seed": 2.5}, "^seed must be an integer, got 2.5$"),
    ({"seed": None}, "^seed must be an integer, got None$"),
    ({"seed": -1}, "^seed must be >= 0, got -1$"),
])
def test_unit_mode_refuses_bad_trials_and_seed_before_sampling(monkeypatch, kwargs,
                                                               match):
    ex = _urn2()
    args = {"trials": 20, "seed": 1, **kwargs}
    _refuse_sampling(monkeypatch)
    with pytest.raises(ClassificationError, match=match):
        unit_displacements(ex.scm, ex.unit_actions, args["trials"], args["seed"])
    with pytest.raises(ClassificationError, match=match):
        classify_unit(ex.ground_truth, ex.scm, ex.unit_actions, **args)
    with pytest.raises(ClassificationError, match=match):
        valid_graphs(ex.scm, ex.unit_actions, mode="unit", **args)
    with pytest.raises(ClassificationError, match=match):
        bivariate_direction(ex.scm, ex.unit_actions, mode="unit", **args)


def test_unit_mode_takes_numpy_integers():
    ex = _urn2()
    plain = valid_graphs(ex.scm, ex.unit_actions, mode="unit", trials=30, seed=4)
    numpy = valid_graphs(ex.scm, ex.unit_actions, mode="unit",
                         trials=np.int64(30), seed=np.uint8(4))
    assert [(g, r.to_json_obj()) for g, r in numpy] == \
        [(g, r.to_json_obj()) for g, r in plain]


def test_actions_may_come_from_a_one_shot_iterable():
    ex = _urn2()
    for system, actions, kw in ((ex.scm, ex.unit_actions, {"mode": "unit", "trials": 30}),
                                (ex.baseline, ex.statistical_actions, {})):
        listed = valid_graphs(system, list(actions), **kw)
        once = valid_graphs(system, (a for a in actions), **kw)
        assert [(g, r.to_json_obj()) for g, r in once] == \
            [(g, r.to_json_obj()) for g, r in listed]


def test_each_mode_refuses_the_other_modes_actions(monkeypatch):
    ex = _urn2()
    _refuse_sampling(monkeypatch)
    unit_msg = "^action 'A1-bias-shift' is a StatisticalAction; unit mode takes UnitActions$"
    with pytest.raises(ClassificationError, match=unit_msg):
        classify_unit(ex.ground_truth, ex.scm, ex.statistical_actions, trials=5)
    with pytest.raises(ClassificationError, match=unit_msg):
        valid_graphs(ex.scm, ex.statistical_actions, mode="unit", trials=5)
    with pytest.raises(ClassificationError, match=unit_msg):
        bivariate_direction(ex.scm, ex.statistical_actions, mode="unit", trials=5)
    label = ex.unit_actions[0].label
    stat_msg = (f"^action {re.escape(repr(label))} is a UnitAction; statistical "
                "mode takes StatisticalActions$")
    with pytest.raises(ClassificationError, match=stat_msg):
        classify_statistical(ex.ground_truth, ex.baseline, ex.unit_actions)
    with pytest.raises(ClassificationError, match=stat_msg):
        valid_graphs(ex.baseline, ex.unit_actions, mode="statistical")
    with pytest.raises(ClassificationError, match=stat_msg):
        bivariate_direction(ex.baseline, ex.unit_actions)


@pytest.mark.parametrize("baseline", [None, ("Kb", "Kr"), Dag(("X", "Y"))])
def test_bivariate_direction_refuses_a_baseline_of_another_type(baseline):
    with pytest.raises(ClassificationError,
                       match="needs a DiscreteJoint or a GeneralScm baseline, got "):
        bivariate_direction(baseline, ())


@pytest.mark.parametrize("eps", [float("nan"), -1.0, -1e-12])
def test_eps_must_be_non_negative(eps):
    ex = _urn2()
    with pytest.raises(ClassificationError, match="eps must be a number >= 0"):
        classify_unit(ex.ground_truth, ex.scm, ex.unit_actions, trials=5, eps=eps)
    with pytest.raises(ClassificationError, match="eps must be a number >= 0"):
        valid_graphs(ex.scm, ex.unit_actions, mode="unit", trials=5, eps=eps)
    ball = build_exemplar("balltrack")
    with pytest.raises(ClassificationError, match="eps must be a number >= 0"):
        classify_statistical(ball.ground_truth, ball.baseline,
                             ball.statistical_actions, eps=eps)


def test_non_finite_displacement_refused():
    ex = urn_bivariate(kb0=4, kr0=4, rounds=3)
    blow_up = UnitAction("blow-up", lambda x, nodes: (np.ones(len(x), dtype=bool),
                                                      x * np.inf), {"kind": "opaque"})
    with pytest.raises(ClassificationError, match="'blow-up' gives a non-finite displacement"):
        classify_unit(ex.ground_truth, ex.scm, [blow_up], trials=5, seed=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_displacement_too_large_to_round_refused():
    from phenocausal.actions import unit_displacements

    # np.round(d, 12) scales by 1e12 first: a finite 1e300 rounds to inf
    scm = urn_bivariate(kb0=4, kr0=4, rounds=3).scm
    big = unit_action_from_spec("big", {"kind": "add-constant", "deltas": {"Kb": 1e300}})
    with pytest.raises(ClassificationError, match="'big' gives a non-finite displacement"):
        unit_displacements(scm, [big], 5, 1)
    fine = unit_action_from_spec("fine", {"kind": "add-constant", "deltas": {"Kb": 1e290}})
    assert unit_displacements(scm, [fine], 5, 1).rows[0].tolist() == [[1e290, 0.0]]


def test_spec_naming_a_missing_variable_refused():
    ex = _urn2()
    for spec in ({"kind": "add-constant", "deltas": {"Z": 1}},
                 {"kind": "add-constant", "deltas": {"Kb": 1}, "requires_positive": ["Z"]},
                 {"kind": "scale", "factors": {"Kb": 2, "Z": 2}}):
        action = unit_action_from_spec("a", spec)
        with pytest.raises(ClassificationError,
                           match="action 'a' names variable 'Z', which the system lacks"):
            classify_unit(ex.ground_truth, ex.scm, [action], trials=5, seed=1)


def test_unit_action_spec_families():
    add = unit_action_from_spec("a", {"kind": "add-constant", "deltas": {"x": 2}})
    ok, post = add.columns(np.array([[1.0, 0.0]]), ("x", "y"))
    assert ok.tolist() == [True] and post.tolist() == [[3.0, 0.0]]
    guard = unit_action_from_spec(
        "g", {"kind": "add-constant", "deltas": {"x": -1},
              "requires_positive": ["x"]})
    ok, post = guard.columns(np.array([[0.0], [2.0]]), ("x",))
    assert ok.tolist() == [False, True] and post[1].tolist() == [1.0]
    scale = unit_action_from_spec("s", {"kind": "scale", "factors": {"x": 2}})
    ok, post = scale.columns(np.array([[3.0]]), ("x",))
    assert ok.tolist() == [True] and post.tolist() == [[6.0]]
    # only the two families the exemplars use exist
    for kind in ("replace-count", "swap-count", "nope"):
        with pytest.raises(ClassificationError, match="unknown map-spec kind"):
            unit_action_from_spec("bad", {"kind": kind})


def _spec_reference_map(spec):
    # the former per-state maps of ``unit_action_from_spec``, or None
    kind = (spec or {}).get("kind")
    if kind == "add-constant":
        deltas = {k: float(v) for k, v in spec.get("deltas", {}).items()}
        requires = tuple(spec.get("requires_positive", ()))

        def apply_add(state):
            if any(state[v] <= 0 for v in requires):
                return None
            out = dict(state)
            for k, v in deltas.items():
                out[k] = out[k] + v
            return out

        return apply_add
    if kind == "scale":
        factors = {k: float(v) for k, v in spec.get("factors", {}).items()}

        def apply_scale(state):
            out = dict(state)
            for k, v in factors.items():
                out[k] = out[k] * v
            return out

        return apply_scale
    return None


def _former_rabbit_maps(ex):
    # the rabbits' former per-state opaque maps
    if ex.name == "rabbits1":
        return {"add-rabbit": lambda s: {"X": s["X"] + s["Y"], "Y": s["Y"]},
                "more-food": dict}
    if ex.name == "rabbits2":
        n = ex.notes["n_rabbits"]
        return {"add-rabbit": lambda s: {"X": s["X"], "Y": s["X"] / (n + 1)},
                "appetizer": dict}
    return {}


def _reference_unit_displacements(scm, actions, trials, seed, maps=None):
    # the former per-state path: a spec-built action runs its former
    # per-state map, any other ``maps[label]`` or else its column map on
    # one unit at a time
    from phenocausal.actions import _Displacements

    if trials < 1:
        raise ClassificationError(f"need at least one trial, got {trials}")
    maps = maps or {}
    noise = scm.sample_noise(trials, seed)
    states = [scm.evaluate({v: noise[v][r] for v in scm.nodes})
              for r in range(trials)]
    labels, rows, inapplicable = [], [], []
    for action in actions:
        apply = maps.get(action.label) or _spec_reference_map(action.spec)
        deltas = []
        refused = False
        with np.errstate(invalid="ignore", over="ignore"):  # refused below
            for s in states:
                if apply is not None:
                    post = apply(s)
                else:
                    ok, out = action.columns(np.array([[s[v] for v in scm.nodes]]),
                                             scm.nodes)
                    post = dict(zip(scm.nodes, out[0])) if ok[0] else None
                if post is None:
                    refused = True
                    continue
                deltas.append([post[v] - s[v] for v in scm.nodes])
        arr = np.asarray(deltas, dtype=float) if deltas else np.empty((0, len(scm.nodes)))
        if not np.isfinite(arr).all():
            raise ClassificationError(
                f"action {action.label!r} gives a non-finite displacement")
        if arr.size:
            with np.errstate(over="ignore"):  # too large to round: refused below
                arr = np.round(arr, 12)
            if not np.isfinite(arr).all():
                raise ClassificationError(
                    f"action {action.label!r} gives a non-finite displacement")
            arr = np.unique(arr, axis=0)
        labels.append(action.label)
        rows.append(arr)
        inapplicable.append(refused)
    return _Displacements(tuple(scm.nodes), tuple(labels), tuple(rows),
                          tuple(inapplicable))


def _displacement_outcome(scm, suite, trials, seed, compute=None, **kwargs):
    from phenocausal.actions import unit_displacements

    try:
        d = (compute or unit_displacements)(scm, suite, trials, seed, **kwargs)
    except ClassificationError as exc:
        return type(exc), str(exc)
    return (d.columns, d.labels, d.inapplicable,
            [(r.shape, r.tobytes()) for r in d.rows])


_UNIT_EXEMPLARS = ("urn2", "urnN", "bundles", "rabbits1", "rabbits2", "macro1", "macro2")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", _UNIT_EXEMPLARS)
def test_unit_displacements_match_per_state_reference(name):
    ex = build_exemplar(name)
    for seed in range(4):
        assert (_displacement_outcome(ex.scm, ex.unit_actions, 200, seed)
                == _displacement_outcome(ex.scm, ex.unit_actions, 200, seed,
                                         _reference_unit_displacements,
                                         maps=_former_rabbit_maps(ex)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["rabbits1", "rabbits2", "urn2"])
def test_unit_displacements_call_each_map_once(name):
    from phenocausal.actions import unit_displacements

    ex = build_exemplar(name)
    calls = []

    def counted(action):
        def columns(x, nodes):
            calls.append(action.label)
            return action.columns(x, nodes)

        return UnitAction(action.label, columns, action.spec)

    suite = [counted(a) for a in ex.unit_actions]
    labels = [a.label for a in ex.unit_actions]
    for trials in (1, 60, 200):
        calls.clear()
        unit_displacements(ex.scm, suite, trials, 1)
        assert calls == labels
        assert (_displacement_outcome(ex.scm, suite, trials, 1)
                == _displacement_outcome(ex.scm, ex.unit_actions, trials, 1))


def _real_scm():
    # non-integer states of either sign, so ``requires_positive`` refuses some
    return GeneralScm(
        nodes=("a", "b", "c"), parents={"b": ("a",), "c": ("a", "b")},
        mechanisms={"a": lambda pa, n: n, "b": lambda pa, n: 0.5 * pa["a"] + n,
                    "c": lambda pa, n: pa["a"] - pa["b"] + n},
        noises={"a": NoiseSpec.finite([-1.3, -0.4, 0.3, 1.7], [0.2, 0.3, 0.3, 0.2]),
                "b": NoiseSpec.finite([-0.9, 0.6, 1.85], [0.3, 0.4, 0.3]),
                "c": NoiseSpec.finite([-1.0, 0.0, 0.5], [0.25, 0.25, 0.5])})


def _nan_scm():
    # a NaN state is not <= 0, so ``requires_positive`` lets the unit through
    return GeneralScm(
        nodes=("a", "b"), parents={"b": ("a",)},
        mechanisms={"a": lambda pa, n: n, "b": lambda pa, n: pa["a"] * 0.0 + n},
        noises={"a": NoiseSpec.finite([math.nan, 1.0, -1.0], [0.2, 0.4, 0.4]),
                "b": NoiseSpec.finite([-2.0, 0.0, 3.0], [0.3, 0.3, 0.4])})


def test_exact_joint_refuses_a_nan_state_that_unit_displacements_samples():
    scm = _nan_scm()
    with pytest.raises(ScmError, match="node 'a' takes a non-finite value"):
        exact_joint(scm)

    def shift_finite_b(x, nodes):
        post = x.copy()
        post[:, 1] += 1.0
        return np.isfinite(x).all(axis=1), post

    # sampling keeps NaN units: the map refuses them and the rest move by (0, 1)
    out = unit_displacements(scm, [UnitAction("b+1", shift_finite_b)], 200, 3)
    assert out.inapplicable == (True,)
    assert np.array_equal(out.rows[0], [[0.0, 1.0]])


@pytest.mark.parametrize("a", [2.0, -3.0])
def test_exact_joint_refuses_an_infinite_state(a):
    # b overflows to +inf or -inf at its large atom
    scm = GeneralScm(
        nodes=("a", "b"), parents={"b": ("a",)},
        mechanisms={"a": lambda pa, n: n, "b": lambda pa, n: pa["a"] * n},
        noises={"a": NoiseSpec.finite([a, 1.0], [0.5, 0.5]),
                "b": NoiseSpec.finite([1.0, 1e308], [0.5, 0.5])})
    with np.errstate(over="ignore"), \
            pytest.raises(ScmError, match="node 'b' takes a non-finite value"):
        exact_joint(scm)


_DISPLACEMENT_SCMS = [_real_scm(), _nan_scm(), urn_bivariate(kb0=4, kr0=4, rounds=3).scm,
                      urn_chain(n=3, k0=(4, 5, 4), rounds=3).scm,
                      build_exemplar("rabbits1").scm, build_exemplar("macro2").scm]
# deltas equal to minus an urn count drive those units to zero
_DELTAS = st.one_of(st.sampled_from([-1.0, -2.0, 1.0, 0.5, -0.0, 1e-13, 1e308, math.inf]),
                    st.floats(-10.0, 10.0))
_FACTORS = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -2.5, 0.5, 1e308, math.nan]),
                     st.floats(-100.0, 100.0))


def _negate(x, nodes):
    return np.ones(len(x), dtype=bool), -x


def _refuse_positive_first(x, nodes):
    return ~(x[:, 0] > 0), x.copy()


def _unchanged(x, nodes):
    return np.ones(len(x), dtype=bool), x.copy()


@st.composite
def _unit_suites(draw, nodes):
    suite = []
    for i in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["add-constant", "scale", "opaque"]))
        vars_ = st.lists(st.sampled_from(nodes), unique=True, max_size=len(nodes))
        if kind == "opaque":
            suite.append(UnitAction(f"o{i}", draw(st.sampled_from(
                [_negate, _refuse_positive_first, _unchanged]))))
            continue
        if kind == "scale":
            spec = {"kind": "scale", "factors": {v: draw(_FACTORS) for v in draw(vars_)}}
        else:
            spec = {"kind": "add-constant",
                    "deltas": {v: draw(_DELTAS) for v in draw(vars_)},
                    "requires_positive": draw(vars_)}
        suite.append(unit_action_from_spec(f"m{i}", spec))
    return suite


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), st.integers(0, len(_DISPLACEMENT_SCMS) - 1), st.integers(1, 300),
       st.integers(0, 2**31 - 1))
def test_column_form_matches_per_state_reference(data, which, trials, seed):
    scm = _DISPLACEMENT_SCMS[which]
    suite = data.draw(_unit_suites(scm.nodes))
    assert (_displacement_outcome(scm, suite, trials, seed)
            == _displacement_outcome(scm, suite, trials, seed,
                                     _reference_unit_displacements))


def _reference_free_coefficients(m: np.ndarray) -> np.ndarray:
    """The former three-branch mask: no rows leave every coefficient free,
    no columns have none, and otherwise the null space of the SVD, guarded
    for being empty. Folding the branches by reading ``s[0]`` raises
    IndexError on both empty shapes, where the SVD returns no singular
    value."""
    k = m.shape[1]
    if m.shape[0] == 0:
        return np.ones(k, dtype=bool)
    if k == 0:
        return np.zeros(0, dtype=bool)
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    rank = int((s > max(s[0] * 1e-10, 1e-12)).sum())
    null = vt[rank:]
    return (np.abs(null) > 1e-8).any(axis=0) if null.size else np.zeros(k, dtype=bool)


def _reference_system_state(m: np.ndarray, b: np.ndarray, tol: float):
    """Reference: least squares, consistency and the free-coefficient mask
    of the three-branch reference."""
    k = m.shape[1]
    if m.shape[0] == 0:
        return True, np.zeros(k), np.ones(k, dtype=bool)
    if k == 0:
        return bool(np.abs(b).max() <= tol), np.zeros(0), np.zeros(0, dtype=bool)
    x0, *_ = np.linalg.lstsq(m, b, rcond=None)
    consistent = bool(np.abs(m @ x0 - b).max() <= tol)
    return consistent, x0, _reference_free_coefficients(m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(0, 5), st.integers(0, 3),
       st.booleans(), st.booleans())
def test_unit_solver_systems_match_reference(seed, rows, k, low_rank, consistent):
    from phenocausal.actions import _consistent_solution, _free_coefficients

    rng = np.random.default_rng(seed)
    # small integer displacements, as the urn actions produce
    m = rng.integers(-2, 3, size=(rows, k)).astype(float)
    if low_rank and k >= 2:
        m[:, -1] = m[:, 0]
    b = (m @ rng.integers(-2, 3, size=k) if consistent
         else rng.integers(-3, 4, size=rows)).astype(float)
    eps = 1e-9
    tol = eps * max(1.0, float(np.abs(b).max()) if b.size else 1.0)
    ok, x_ref, free_ref = _reference_system_state(m, b, tol)
    x0 = _consistent_solution(m, b, eps)
    assert (x0 is not None) == ok
    if ok:
        assert np.array_equal(x0, x_ref)
    assert np.array_equal(_free_coefficients(m), free_ref)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.integers(0, 5), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from([1.0, 1e-13, 1e8]))
@example(seed=0, rows=0, k=3, rank=0, scale=1.0)   # zero rows
@example(seed=0, rows=3, k=0, rank=0, scale=1.0)   # zero columns
@example(seed=0, rows=0, k=0, rank=0, scale=1.0)
@example(seed=1, rows=4, k=3, rank=3, scale=1.0)   # full column rank
@example(seed=2, rows=4, k=3, rank=1, scale=1.0)   # rank deficient
@example(seed=3, rows=2, k=4, rank=2, scale=1.0)   # wide, full row rank
def test_free_coefficients_fold_equals_the_three_branch_reference(seed, rows, k, rank,
                                                                  scale):
    from phenocausal.actions import _free_coefficients

    rng = np.random.default_rng(seed)
    rank = min(rank, rows, k)
    # integer factors, as the urn displacements give, at a few magnitudes
    m = scale * (rng.integers(-2, 3, size=(rows, rank))
                 @ rng.integers(-2, 3, size=(rank, k))).astype(float)
    free = _free_coefficients(m)
    assert free.dtype == bool and free.shape == (k,)
    assert np.array_equal(free, _reference_free_coefficients(m))
