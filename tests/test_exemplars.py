"""Worked-example tests: action semantics, process-vs-linear agreement,
regime reversals, and the registry contract."""

from __future__ import annotations

import collections
import hashlib
import inspect
import itertools
import json
import math
import re

import numpy as np
import pytest

from phenocausal import exemplars
from phenocausal import (
    Dag,
    DirectionVerdict,
    EXEMPLARS,
    ScmError,
    TableError,
    ball_track,
    bivariate_direction,
    build_exemplar,
    bundles_chain,
    changed_factors,
    classify_statistical,
    classify_unit,
    farmers,
    macro_pair,
    rabbits,
    urn_bivariate,
    urn_chain,
)
from urn_oracles import exact_urn2_joint


# ---------------------------------------------------------------------------
# Bivariate urn
# ---------------------------------------------------------------------------


def test_a1_plus_moves_one_ball():
    ex = urn_bivariate(kb0=10, kr0=10, rounds=2)
    act = {a.label: a for a in ex.unit_actions}
    for label, post in (("A1+", [11, 9]), ("A1-", [9, 11]), ("A2+", [10, 11])):
        ok, out = act[label].columns(np.array([[10.0, 10.0]]), ("Kb", "Kr"))
        assert ok.tolist() == [True] and out.tolist() == [post]


def test_actions_refused_at_empty_type():
    ex = urn_bivariate(kb0=10, kr0=10, rounds=2)
    act = {a.label: a for a in ex.unit_actions}
    x = np.array([[5.0, 0.0], [0.0, 5.0]])  # no red ball, no blue ball
    for label, applies in (("A2-", [False, True]), ("A1+", [False, True]),
                           ("A1-", [True, False])):
        assert act[label].columns(x, ("Kb", "Kr"))[0].tolist() == applies
    ok, out = act["A2+"].columns(x, ("Kb", "Kr"))
    assert ok.tolist() == [True, True] and out[0].tolist() == [5, 1]


def test_zero_biases_keep_initial_state():
    ex = urn_bivariate(kb0=12, kr0=12, rounds=4, coin_biases=(0, 0, 0, 0))
    ds = ex.sample(50, 3)
    assert np.array_equal(ds.rows, np.full((50, 2), 12.0))


def test_rounds_precondition():
    with pytest.raises(ScmError):
        urn_bivariate(kb0=5, kr0=20, rounds=5)


@pytest.mark.parametrize("build, width", [
    (urn_bivariate, 4), (lambda coin_biases: urn_chain(n=3, coin_biases=coin_biases), 6),
    (lambda coin_biases: bundles_chain(n=3, coin_biases=coin_biases), 6),
])
@pytest.mark.parametrize("bias", [1.5, -0.1, math.nan])
def test_urn_exemplars_refuse_a_coin_bias_outside_the_unit_interval(build, width, bias):
    # refused when the process is built, before any sample or exact joint
    biases = (bias,) + (0.5,) * (width - 1)
    with pytest.raises(ScmError, match=re.escape(
            f"move A1+ coin bias must lie in [0, 1], got {bias!r}")):
        build(coin_biases=biases)


def test_bounded_process_matches_linear_idealization_without_refusals():
    # kr0 > 2*rounds and kb0 > rounds: no boundary can ever be hit
    ex = urn_bivariate(kb0=20, kr0=20, rounds=5)
    ds, refused = ex.process.simulate(4000, 17)
    assert not refused.any()
    lin = ex.linear.general().simulate(4000, 17)
    # same seed drives different generators, so compare distributions
    assert abs(ds.column("Kb").mean() - lin.column("Kb").mean()) < 0.15
    assert abs(ds.column("Kr").var() - lin.column("Kr").var()) < 0.6
    # and the exact process joint equals the exact linear-model joint
    from phenocausal import exact_joint

    dp, levels = exact_urn2_joint(20, 20, 5, (0.5, 0.5, 0.5, 0.5))
    lj, _ = exact_joint(ex.scm)
    assert np.abs(dp.probs - lj.probs).max() <= 1e-12


def test_exact_joint_grid_and_mass():
    joint, levels = exact_urn2_joint(10, 12, 3, (0.6, 0.3, 0.5, 0.4))
    assert levels["Kb"][0] == 7 and levels["Kb"][-1] == 13
    assert levels["Kr"][0] == 6 and levels["Kr"][-1] == 18
    assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_boundary_refusals_recorded():
    # tiny red reserve: refusals must occur and be flagged
    ex = urn_bivariate(kb0=30, kr0=4, rounds=3, coin_biases=(0.9, 0.1, 0.1, 0.9))
    _, refused = ex.process.simulate(4000, 1)
    assert refused.any()


def test_exact_joint_matches_bounded_sampler_at_boundary():
    # in a refusal-heavy regime the exact DP must still track the process
    biases = (0.9, 0.1, 0.1, 0.9)
    joint, levels = exact_urn2_joint(30, 4, 3, biases)
    assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert levels["Kr"][0] == 0  # the empty-red boundary is reachable
    ex = urn_bivariate(kb0=30, kr0=4, rounds=3, coin_biases=biases)
    n = 60_000
    ds = ex.sample(n, 77)
    emp = np.zeros(joint.probs.shape)
    kb_idx = (ds.column("Kb") - levels["Kb"][0]).astype(int)
    kr_idx = (ds.column("Kr") - levels["Kr"][0]).astype(int)
    np.add.at(emp, (kb_idx, kr_idx), 1.0 / n)
    assert np.abs(emp - joint.probs).max() < 0.01


# ---------------------------------------------------------------------------
# n-type urn chain
# ---------------------------------------------------------------------------


def test_chain_action_semantics_n3():
    ex = urn_chain(n=3, k0=(10, 10, 10), rounds=2)
    act = {a.label: a for a in ex.unit_actions}
    for label, post in (("A2+", [10, 11, 9]), ("A3+", [11, 9, 10]),
                        ("A1+", [10, 10, 11])):
        ok, out = act[label].columns(np.array([[10.0, 10.0, 10.0]]), ("K3", "K2", "K1"))
        assert ok.tolist() == [True] and out.tolist() == [post]


@pytest.mark.parametrize("n, k0", [(3, (10, 10)), (2, (10, 10, 10))])
def test_chain_refuses_initial_counts_of_another_length(n, k0):
    with pytest.raises(ScmError, match=f"need {n} initial counts k0, got {len(k0)}"):
        urn_chain(n=n, k0=k0, rounds=2)


def test_chain_ground_truth_is_complete_downward():
    ex = urn_chain(n=5)
    expected = {(f"K{i}", f"K{j}") for i in range(5, 0, -1)
                for j in range(i - 1, 0, -1)}
    assert set(ex.ground_truth.edges) == expected


def test_chain_mixing_matches_linear():
    ex = urn_chain(n=4, k0=(20,) * 4, rounds=3)
    s = np.asarray(ex.notes["mixing"])
    assert np.abs(np.linalg.inv(np.eye(4) - ex.linear.a) - s).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("build", [lambda n: urn_chain(n=n),
                                   lambda n: urn_chain(n=n, endpoint="high"),
                                   lambda n: bundles_chain(n=n)],
                         ids=["urnN-low", "urnN-high", "bundles"])
def test_recorded_mixing_is_the_process_mixing(build, n):
    ex = build(n)
    linear = ex.process.linear(ex.notes["class_nodes"])
    assert ex.notes["mixing"] == linear.mixing().tolist()


def test_changing_one_count_needs_j_elementary_actions():
    # BFS over compositions: raising K_j alone requires at least j actions
    ex = urn_chain(n=3, k0=(5, 5, 5), rounds=2)
    nodes = ("K3", "K2", "K1")
    start = (5, 5, 5)

    def bfs_min_steps(target):
        frontier, seen, depth = {start}, {start}, 0
        while depth <= 4:
            if target in frontier:
                return depth
            x = np.array(sorted(frontier), dtype=float)
            nxt = set()
            for a in ex.unit_actions:
                ok, post = a.columns(x, nodes)
                nxt |= set(map(tuple, post[ok].tolist()))
            frontier = nxt - seen
            seen |= frontier
            depth += 1
        return None

    assert bfs_min_steps((5, 5, 6)) == 1
    assert bfs_min_steps((5, 6, 5)) == 2
    assert bfs_min_steps((6, 5, 5)) == 3


def test_endpoint_reversal_flips_every_edge():
    low = urn_chain(n=4, k0=(30,) * 4, rounds=3, endpoint="low")
    high = urn_chain(n=4, k0=(30,) * 4, rounds=3, endpoint="high")
    assert {(b, a) for a, b in low.ground_truth.edges} == set(high.ground_truth.edges)
    rep = classify_unit(high.ground_truth, high.scm, high.unit_actions,
                        trials=60, seed=4)
    assert rep.valid
    # and the reversed complete DAG is the unique valid graph again
    from phenocausal import valid_graphs

    out = valid_graphs(high.scm, high.unit_actions, mode="unit", trials=60, seed=4)
    assert len(out) == 1
    assert frozenset(out[0][0].edges) == frozenset(high.ground_truth.edges)


def test_chain_process_linear_agreement():
    ex = urn_chain(n=3, k0=(25, 25, 25), rounds=3)
    ds, refused = ex.process.simulate(3000, 9)
    assert not refused.any()
    lin = ex.linear.general().simulate(3000, 9)
    for col in ex.scm.nodes:
        assert abs(ds.column(col).mean() - lin.column(col).mean()) < 0.2


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def test_bundle_action_on_zero_state():
    ex = bundles_chain(n=4, rounds=2)
    act = {a.label: a for a in ex.unit_actions}
    zero, nodes = np.zeros((1, 4)), ("K1", "K2", "K3", "K4")
    ok, out = act["A3+"].columns(zero, nodes)
    assert ok.tolist() == [True] and out.tolist() == [[1, 1, 1, 0]]
    assert act["A3-"].columns(zero, nodes)[0].tolist() == [False]


def test_bundle_ground_truth_chain():
    ex = bundles_chain(n=4)
    assert set(ex.ground_truth.edges) == {("K4", "K3"), ("K3", "K2"), ("K2", "K1")}


def test_bundle_top_count_equals_tally():
    ex = bundles_chain(n=4, rounds=4)
    ds, noise = ex.scm.simulate(200, 6), ex.scm.sample_noise(200, 6)
    k0_top = ex.notes["k0"][0]
    assert np.array_equal(ds.column("K4") - k0_top, noise["K4"])


def test_bundle_sampler_never_refuses_at_default_reserve():
    ex = bundles_chain(n=4, rounds=3)
    _, refused = ex.process.simulate(3000, 2)
    assert not refused.any()


# ---------------------------------------------------------------------------
# Rabbits
# ---------------------------------------------------------------------------


def test_rabbits_scenario1_examples():
    ex = rabbits(scenario=1, n_rabbits=5, demand_per_rabbit=2.0)
    state = np.array([[10.0, 2.0]])  # X, Y
    post = {a.label: a.columns(state, ("X", "Y"))[1][0].tolist() for a in ex.unit_actions}
    assert post["add-rabbit"] == [12.0, 2.0]  # X moves, Y does not
    assert post["more-food"] == [10.0, 2.0]
    x, y = post["appetizer"]
    assert x == pytest.approx(y * 5)  # X = n*Y preserved


def test_rabbits_scenario2_examples():
    ex = rabbits(scenario=2, n_rabbits=5, demand_per_rabbit=2.0)
    f = ex.notes["food_supply"]
    state = np.array([[f, f / 5]])  # X, Y
    post = {a.label: a.columns(state, ("X", "Y"))[1][0].tolist() for a in ex.unit_actions}
    assert post["appetizer"] == [f, f / 5]  # no effect
    x, y = post["more-food"]
    assert y == pytest.approx(x / 5)  # Y = X/n preserved
    assert x != f
    x, y = post["add-rabbit"]
    assert x == f and y < f / 5


def test_rabbits_directions_reverse_between_scenarios():
    d1 = bivariate_direction(rabbits(scenario=1).scm,
                             rabbits(scenario=1).unit_actions,
                             mode="unit", trials=40, seed=2)
    d2 = bivariate_direction(rabbits(scenario=2).scm,
                             rabbits(scenario=2).unit_actions,
                             mode="unit", trials=40, seed=2)
    assert d1 is DirectionVerdict.Y_CAUSES_X
    assert d2 is DirectionVerdict.X_CAUSES_Y


def test_rabbits_parameter_validation():
    with pytest.raises(ScmError):
        rabbits(n_rabbits=0)
    with pytest.raises(ScmError, match="n_rabbits must be a finite integer"):
        rabbits(n_rabbits=10**309)
    with pytest.raises(ScmError):
        rabbits(scenario=2, food_supply=1000.0)


@pytest.mark.parametrize("build, param", [
    (farmers, "potato_elasticity"), (farmers, "exchange_factor"),
    (farmers, "factor_change"), (rabbits, "n_rabbits"),
    (lambda **kw: rabbits(scenario=2, **kw), "food_supply"),
    (urn_bivariate, "bias_shift"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_refused(build, param, value):
    with pytest.raises(ScmError, match="finite"):
        build(**{param: value})


@pytest.mark.parametrize("params", [
    {"n_rabbits": 10**308}, {"demand_per_rabbit": 1e308}, {"appetite_factor": 1e308},
    {"demand_per_rabbit": math.inf}, {"demand_per_rabbit": math.nan},
    {"appetite_factor": math.inf}, {"appetite_factor": math.nan},
    # only (n + 1) * d_hi overflows
    {"n_rabbits": 1, "demand_per_rabbit": 1e308 / 1.2, "food_supply": 1.5e308},
    # only the default food supply 4 * n * d_hi overflows
    {"n_rabbits": 1, "demand_per_rabbit": 5e307 / 1.2},
])
def test_rabbits_non_finite_states_refused(params):
    with pytest.raises(ScmError, match=r"n_rabbits=.*, demand_per_rabbit=.* and "
                                       r"appetite_factor=.* give non-finite scenario 1"):
        rabbits(**params)


@pytest.mark.parametrize("params", [
    {"demand_per_rabbit": math.nan}, {"demand_per_rabbit": math.inf},
    {"demand_per_rabbit": math.nan, "food_supply": 1.0},
    # only the default food supply 0.5 * n * d_lo overflows
    {"demand_per_rabbit": 1e308},
])
def test_rabbits2_non_finite_demand_or_food_refused(params):
    with pytest.raises(ScmError, match=r"n_rabbits=5 and demand_per_rabbit=.* give a "
                                       r"non-finite scenario 2 demand or default food"):
        rabbits(scenario=2, **params)


def test_rabbits2_huge_demand_with_finite_food_builds():
    # n * d_lo overflows, but only bounds the food; every state is finite
    ex = rabbits(scenario=2, demand_per_rabbit=1e308, food_supply=1.0)
    assert np.isfinite(ex.sample(5, 1).rows).all()


@pytest.mark.parametrize("params", [
    {"exchange_factor": 1e-300, "potato_elasticity": 2.0},
    {"exchange_factor": 1e308},
])
def test_farmers_overflowing_quantities_refused(params):
    with pytest.raises(ScmError, match="overflow"):
        farmers(**params)


# ---------------------------------------------------------------------------
# Macro averages
# ---------------------------------------------------------------------------


def test_macro_directions_opposite():
    d1 = bivariate_direction(macro_pair("act-on-1s").scm,
                             macro_pair("act-on-1s").unit_actions,
                             mode="unit", trials=40, seed=3)
    d2 = bivariate_direction(macro_pair("act-on-2s").scm,
                             macro_pair("act-on-2s").unit_actions,
                             mode="unit", trials=40, seed=3)
    assert d1 is DirectionVerdict.X_CAUSES_Y   # Xbar -> Ybar
    assert d2 is DirectionVerdict.Y_CAUSES_X


def test_macro_micro_shift_degenerate_freedom():
    # adding (delta + c, -c) to (X1, X2) moves Xbar by delta/2 whatever c is
    micro = exemplars._MICRO.general()

    def aggregate(state):
        averages = exemplars._AVERAGING @ [state[v] for v in micro.nodes]
        return dict(zip(("Xbar", "Ybar"), averages))

    state = micro.evaluate({"X1": 1.0, "Y2": 2.0, "Y1": 0.0, "X2": 0.0})
    base = aggregate(state)
    delta = 1.0
    for c in (-2.0, 0.0, 0.7, 3.5):
        shifted = dict(state)
        shifted["X1"] += delta + c
        shifted["X2"] += -c
        after = aggregate(shifted)
        assert after["Xbar"] - base["Xbar"] == pytest.approx(delta / 2)


def test_macro_identity_between_averages():
    ex = macro_pair("act-on-1s")
    ds = ex.sample(100, 5)
    assert np.allclose(ds.column("Xbar"), ds.column("Ybar"))


@pytest.mark.parametrize("shift", [1.0, 0.3, -2.5])
@pytest.mark.parametrize("choice", ["act-on-1s", "act-on-2s"])
def test_macro_is_exact_transformation_of_micro(choice, shift):
    ex = macro_pair(choice, shift=shift)
    micro = exemplars._MICRO.general()
    w = exemplars._AVERAGING
    (cause, effect), = ex.ground_truth.edges
    cause_atoms, cause_probs = ex.scm.noises[cause].support()
    (effect_atom,), _ = ex.scm.noises[effect].support()
    supports = [micro.noises[v].support() for v in micro.nodes]
    assignments = list(itertools.product(*(atoms for atoms, _ in supports)))
    weights = [math.prod(p) for p in itertools.product(*(p for _, p in supports))]
    assert list(cause_probs) == weights
    for k, atoms in enumerate(assignments):
        noise = dict(zip(micro.nodes, atoms))
        state = micro.evaluate(noise)
        pre = np.array([state[v] for v in micro.nodes])
        macro = ex.scm.evaluate({cause: cause_atoms[k], effect: effect_atom})
        assert macro == dict(zip(("Xbar", "Ybar"), w @ pre))
        for action in ex.unit_actions:
            v = action.label.removeprefix("shift-")
            post = micro.evaluate({**noise, v: noise[v] + shift})
            delta = w @ (np.array([post[u] for u in micro.nodes]) - pre)
            pre_macro = np.array([[macro["Xbar"], macro["Ybar"]]])
            ok, moved = action.columns(pre_macro, ("Xbar", "Ybar"))
            assert ok.tolist() == [True]
            assert (moved - pre_macro)[0].tolist() == pytest.approx(list(delta), abs=1e-12)


def test_macro_edge_follows_the_acted_micro_variables():
    for choice, acted, edge in (("act-on-1s", {"X1", "Y1"}, ("Xbar", "Ybar")),
                                ("act-on-2s", {"X2", "Y2"}, ("Ybar", "Xbar"))):
        ex = macro_pair(choice)
        assert {a.label.removeprefix("shift-") for a in ex.unit_actions} == acted
        assert ex.ground_truth.edges == {edge}
        assert not any(callable(v) for v in ex.notes.values())
    with pytest.raises(ScmError):
        macro_pair(shift=0.0)


# ---------------------------------------------------------------------------
# Ball track
# ---------------------------------------------------------------------------


def test_balltrack_factor_changes():
    ex = ball_track()
    g = ex.ground_truth
    for action, target in (("older-children", "X"), ("move-barrier", "Y")):
        effect = {a.label: a for a in ex.statistical_actions}[action].effect
        assert changed_factors(ex.baseline, effect, g) == (target,)


def test_balltrack_reversed_graph_violates_both_actions():
    ex = ball_track()
    rev = Dag(("X", "Y"), [("Y", "X")])
    report = classify_statistical(rev, ex.baseline, ex.statistical_actions)
    assert not report.valid
    assert [v.label for v in report.verdicts] == [a.label for a in ex.statistical_actions]
    assert all(v.kind.value == "violation" for v in report.verdicts)


def test_balltrack_speed_monotone():
    ex = ball_track()
    y_levels = ex.notes["levels"]["Y"]
    assert all(b > a for a, b in zip(y_levels, y_levels[1:]))


# ---------------------------------------------------------------------------
# Farmers
# ---------------------------------------------------------------------------


def test_farmers_zero_elasticity_keeps_potatoes_fixed():
    ex = farmers(potato_elasticity=0.0)
    effect = ex.statistical_actions[0].effect
    assert changed_factors(ex.baseline, effect, ex.ground_truth) == ("KE",)


def test_farmers_invariance_elasticity_flips_direction():
    assert bivariate_direction(farmers(potato_elasticity=1.0).baseline,
                               farmers(potato_elasticity=1.0).statistical_actions) \
        is DirectionVerdict.Y_CAUSES_X


def test_farmers_generic_elasticity_grey_zone():
    ex = farmers(potato_elasticity=0.4)
    assert ex.notes["grey_zone"]
    assert bivariate_direction(ex.baseline, ex.statistical_actions) \
        is DirectionVerdict.UNDETERMINED


# ---------------------------------------------------------------------------
# Registry-wide contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXEMPLARS))
def test_every_exemplar_validates_its_ground_truth(name):
    ex = build_exemplar(name)
    assert ex.ground_truth.nodes
    if ex.unit_actions and ex.scm is not None:
        report = classify_unit(ex.ground_truth, ex.scm, ex.unit_actions,
                               trials=60, seed=11)
    else:
        report = classify_statistical(ex.ground_truth, ex.baseline,
                                      ex.statistical_actions)
    assert report.valid, report.to_json_obj()


@pytest.mark.parametrize("name", sorted(EXEMPLARS))
def test_every_exemplar_samples_deterministically(name):
    ex = build_exemplar(name)
    d1 = ex.sample(64, 123)
    d2 = ex.sample(64, 123)
    assert np.array_equal(d1.rows, d2.rows)
    assert d1.seed == 123


# per exemplar constructor, the keywords of a build that gives one parameter
# a second valid value; its twin build resets that parameter to its default
_CONSTRUCTORS = (urn_bivariate, urn_chain, bundles_chain, rabbits, macro_pair,
                 ball_track, farmers)
_SECOND_VALUES = [
    (urn_bivariate, "kb0", {"kb0": 40}),
    (urn_bivariate, "kr0", {"kr0": 40}),
    (urn_bivariate, "rounds", {"rounds": 3}),
    (urn_bivariate, "coin_biases", {"coin_biases": (0.6, 0.4, 0.5, 0.5)}),
    (urn_bivariate, "bias_shift", {"bias_shift": 0.3}),
    (urn_chain, "n", {"n": 3}),
    (urn_chain, "k0", {"k0": (40, 50, 50, 50)}),
    (urn_chain, "rounds", {"rounds": 3}),
    (urn_chain, "coin_biases", {"coin_biases": (0.6, 0.4) + (0.5,) * 6}),
    (urn_chain, "endpoint", {"endpoint": "high"}),
    (bundles_chain, "n", {"n": 3}),
    (bundles_chain, "rounds", {"rounds": 3}),
    (bundles_chain, "coin_biases", {"coin_biases": (0.6, 0.4) + (0.5,) * 6}),
    (bundles_chain, "initial_packages", {"initial_packages": 10}),
    (rabbits, "n_rabbits", {"n_rabbits": 6}),
    # in scenario 1 every food supply above demand gives the same system
    (rabbits, "food_supply", {"food_supply": 3.0, "scenario": 2}),
    (rabbits, "demand_per_rabbit", {"demand_per_rabbit": 3.0}),
    (rabbits, "scenario", {"scenario": 2}),
    (rabbits, "appetite_factor", {"appetite_factor": 1.5}),
    (macro_pair, "action_choice", {"action_choice": "act-on-2s"}),
    (macro_pair, "shift", {"shift": 2.0}),
    (ball_track, "start_distribution_param", {"start_distribution_param": 0.7}),
    (ball_track, "barrier_offset", {"barrier_offset": 1}),
    (farmers, "exchange_factor", {"exchange_factor": 3.0}),
    (farmers, "potato_elasticity", {"potato_elasticity": 1.0}),
    (farmers, "factor_change", {"factor_change": 2.0}),
]


def _beyond_notes(ex) -> tuple:
    """What an exemplar is apart from its ``notes``: its artifact, a
    20-row sample and the joint each statistical action leaves."""
    obj = {k: v for k, v in ex.to_json_obj().items() if k != "notes"}
    return (json.dumps(obj), ex.sample(20, 0).rows.tobytes(),
            [json.dumps(a.resolve(ex.baseline).to_json_obj())
             for a in ex.statistical_actions])


def test_the_second_value_table_lists_every_constructor_parameter():
    listed = {(build.__name__, param) for build, param, _ in _SECOND_VALUES}
    assert listed == {(build.__name__, param) for build in _CONSTRUCTORS
                      for param in inspect.signature(build).parameters}


@pytest.mark.parametrize("build, param, kwargs", _SECOND_VALUES,
                         ids=[f"{b.__name__}.{p}" for b, p, _ in _SECOND_VALUES])
def test_every_constructor_parameter_changes_the_exemplar_beyond_its_notes(
        build, param, kwargs):
    # a parameter that only its own notes entry records has no effect
    default = inspect.signature(build).parameters[param].default
    assert kwargs[param] != default
    assert _beyond_notes(build(**kwargs)) != _beyond_notes(
        build(**{**kwargs, param: default}))


def test_unknown_exemplar_rejected():
    with pytest.raises(KeyError):
        build_exemplar("nope")


def test_unit_and_statistical_encodings_agree_for_urn2():
    # both encodings of the same system produce the same unique graph;
    # the paper leaves their general agreement open, so only this instance
    # is pinned
    ex = urn_bivariate(kb0=30, kr0=30, rounds=3)
    stat = bivariate_direction(ex.baseline, ex.statistical_actions)
    unit = bivariate_direction(ex.scm, ex.unit_actions, mode="unit",
                               trials=50, seed=1)
    assert stat is unit is DirectionVerdict.X_CAUSES_Y


# ---------------------------------------------------------------------------
# Urn exemplars as lazy views over their process
# ---------------------------------------------------------------------------


@pytest.fixture
def derivations(monkeypatch):
    """Counts of the process's lattice DPs and linear solves."""
    calls = collections.Counter()
    for name in ("exact_joint", "linear"):
        original = getattr(exemplars._UrnProcess, name)

        def counted(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(exemplars._UrnProcess, name, counted)
    return calls


URN_BUILDS = [
    lambda: urn_bivariate(),
    lambda: urn_bivariate(kb0=1000, kr0=1000, rounds=2),
    lambda: urn_chain(n=4),
    lambda: urn_chain(n=3, endpoint="high"),
    lambda: bundles_chain(n=4),
]
URN_IDS = ["urn2", "urn2-big", "urnN", "urnN-high", "bundles"]


@pytest.mark.parametrize("build", URN_BUILDS, ids=URN_IDS)
def test_sampling_an_urn_derives_nothing(build, derivations):
    build().sample(50, 1)
    assert derivations == {}


@pytest.mark.parametrize("build", URN_BUILDS, ids=URN_IDS)
def test_each_urn_value_is_derived_at_most_once(build, derivations):
    ex = build()
    for _ in range(2):
        ex.baseline, ex.linear, ex.notes, ex.ground_truth, ex.scm
        ex.unit_actions, ex.to_json_obj()
    assert derivations["exact_joint"] <= 1 and derivations["linear"] <= 1
    assert derivations["exact_joint"] == (ex.baseline is not None)
    assert ex.notes is ex.notes and ex.scm is ex.scm


def test_oversized_urn_lattice_refused_at_build():
    with pytest.raises(TableError, match="exceeds cap"):
        urn_bivariate(kb0=5000, kr0=5000, rounds=2000)


# sha256 of json.dumps(build_exemplar(name).to_json_obj()), recorded while
# every value was still computed at build time; the urn entries were
# re-recorded when their notes lost the ``seed`` that no build read
EXEMPLAR_JSON_SHA256 = {
    "urn2": "51544055cd5f60af2ac818e1137879e2bacc5dab86a8d5bcf1e19897ce3def63",
    "urnN": "81a4d038f5a88a7443eac8144b1c8155a37b422c055569426f72819b9c43073b",
    "bundles": "e23bd5a4753fc0c02510938d1a36735ae8f8c13d88254ad04c62b0dedb9f8070",
    "rabbits1": "fa312ae187a000aaf91c1378f5fcbe7f2724761d9c82be9dfa3eab636df3d027",
    "rabbits2": "e90ce699d9c2d6e202e0aecdd5303fd1444e9c0b4727ccdc7f83b427d1e14244",
    "macro1": "5c4ee34c0067c60533ace6ac7c4699dbefc33efface5be171896974a59f79558",
    "macro2": "715e2c7a309a8dcc2cbc741b4af462cdf87b5e77d2852d6e04d67ad3bb5b0755",
    "balltrack": "fcefbb6a8dcba2597e0867a7d34754e36afeea35b1104fb3cac907ddb026f2c3",
    "farmers": "a3b9d362581f7bdb5e6e686dc5478e4aaa5cb6cf0ad2dff7517d51952ec5d66a",
}


@pytest.mark.parametrize("name", sorted(EXEMPLARS))
def test_exemplar_json_bytes_pinned(name):
    assert set(EXEMPLAR_JSON_SHA256) == set(EXEMPLARS)
    text = json.dumps(build_exemplar(name).to_json_obj())
    assert hashlib.sha256(text.encode()).hexdigest() == EXEMPLAR_JSON_SHA256[name]
