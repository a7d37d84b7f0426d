"""Consistency-verifier tests: the identifiability statement, embedding
Markovness, boundary consistency, backdoor preservation, and suite replay
determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phenocausal import (
    ConditionalTable,
    ControllerSpec,
    Dag,
    DiscreteJoint,
    Exemplar,
    NoiseSpec,
    SufficiencyError,
    SuiteConfig,
    TableError,
    TrialRecord,
    build_embedding,
    build_exemplar,
    changed_factors,
    conditional,
    exact_joint,
    farmers,
    hard_intervention,
    marginal_dag,
    random_conditional,
    random_dag,
    random_markov_joint,
    random_sufficient_subset,
    randomized_suite,
    soft_intervention,
    tv_distance,
    urn2_controllers,
    urn_bivariate,
    urn_chain,
    verify_boundary_consistency,
    verify_embedding_markov,
    verify_identifiability,
)
from phenocausal import graphs, tables
from phenocausal.exemplars import _UrnProcess
from phenocausal.graphs import _reachable_inside
from phenocausal.scm import NOISE_COMBO_CAP, _philox
from phenocausal.tables import _marginal_array, _replace_factor
from phenocausal.verify import (
    _adjustment,
    _do_marginal,
    _random_factors,
    boundary_trial,
    check_backdoor_preservation,
    embedding_trial,
    proposition_trial,
)
from embedding_reference import embedding_reference


# ---------------------------------------------------------------------------
# Identifiability via changes
# ---------------------------------------------------------------------------


def test_worked_example_changes_both_objects():
    p = DiscreteJoint(("X", "Y"), np.array([[0.3, 0.2], [0.1, 0.4]]))
    rec = verify_identifiability(p, np.array([0.6, 0.4]))
    assert rec.ok
    # oracle: direct Bayes-rule recomputation
    assert rec.details["tv_y"] == pytest.approx(0.04, abs=1e-12)
    assert rec.details["tv_x_given_y"] == pytest.approx(2 / 21, abs=1e-12)


def test_identity_marginal_changes_nothing():
    p = DiscreteJoint(("X", "Y"), np.array([[0.3, 0.2], [0.1, 0.4]]))
    rec = verify_identifiability(p, np.array([0.5, 0.5]))
    assert rec.ok
    assert rec.details["tv_x"] == 0.0
    assert rec.details["tv_y"] == 0.0


def test_rank_deficient_instance_rejected():
    p = DiscreteJoint(("X", "Y"), np.full((2, 2), 0.25))
    rec = verify_identifiability(p, np.array([0.7, 0.3]))
    assert rec.kind == "identifiability-rejected"
    assert rec.details["reason"] == "rank-deficient"


def test_nonpositive_instance_rejected():
    p = DiscreteJoint(("X", "Y"), np.array([[0.5, 0.0], [0.1, 0.4]]))
    rec = verify_identifiability(p, np.array([0.7, 0.3]))
    assert rec.kind == "identifiability-rejected"


def test_proposition_trials_never_fail():
    for i in range(300):
        rec = proposition_trial(4242 + i, index=i)
        assert rec.ok, rec.details


# ---------------------------------------------------------------------------
# Embedding construction and Markov check
# ---------------------------------------------------------------------------


def _embedding(rounds=3):
    base = (0.5, 0.5, 0.5, 0.5)
    shifted = (0.8, 0.2, 0.7, 0.3)
    ex = urn_bivariate(kb0=4 * rounds, kr0=4 * rounds, rounds=rounds,
                       coin_biases=base)
    return ex, urn2_controllers(rounds, base, shifted)


def test_embedding_graph_edges():
    ex, spec = _embedding()
    joint, levels, gtilde = build_embedding(ex, spec)
    assert set(gtilde.edges) == {("Y1", "Kb"), ("Y2", "Kr"), ("Kb", "Kr")}
    assert joint.names == gtilde.nodes == tuple(levels) == ("Y1", "Y2", "Kb", "Kr")


def test_embedding_exact_joint_markov():
    ex, spec = _embedding()
    joint, _levels, gtilde = build_embedding(ex, spec)
    rec = verify_embedding_markov(joint, gtilde)
    assert rec.ok
    assert rec.details["worst_residual"] <= 1e-12


def test_embedding_wrong_graph_fails_with_named_independence():
    ex, spec = _embedding()
    joint, _levels, gtilde = build_embedding(ex, spec)
    wrong = Dag(gtilde.nodes, [e for e in gtilde.edges if e != ("Y1", "Kb")])
    rec = verify_embedding_markov(joint, wrong)
    assert not rec.ok
    assert "Y1" in rec.details["worst_independence"]


def test_no_controllers_reduces_to_ground_truth():
    ex, _ = _embedding()
    joint, levels, gtilde = build_embedding(ex, ControllerSpec(noises={}, controls={}))
    assert set(gtilde.edges) == set(ex.ground_truth.edges)
    ref, ref_levels = exact_joint(ex.scm)
    assert joint.names == ref.names == ex.scm.nodes and levels == ref_levels
    assert np.array_equal(joint.probs, ref.probs)


def test_constant_controllers_reduce_to_exemplar_check():
    ex, _ = _embedding()
    rounds = 3
    spec = urn2_controllers(rounds, (0.5,) * 4, (0.8, 0.2, 0.7, 0.3),
                            p_y1=0.0, p_y2=0.0)  # controllers pinned to 0
    joint, _levels, gtilde = build_embedding(ex, spec)
    rec = verify_embedding_markov(joint, gtilde)
    assert rec.ok


def _fair_tally(y):
    return NoiseSpec.binomdiff(3, 0.5, 0.5)


@pytest.mark.parametrize("controls, match", [
    ({"A9": ("Y1", _fair_tally)}, "unknown action class 'A9'"),
    ({"A1": ("Kr", _fair_tally)}, "class 'A1' is driven by 'Kr', which is not a "
                                  "controller variable"),
], ids=["unknown-class", "not-a-controller"])
def test_embedding_refuses_bad_controls(controls, match):
    ex, spec = _embedding()
    with pytest.raises(ValueError, match=match):
        build_embedding(ex, ControllerSpec(noises=spec.noises, controls=controls))


def test_embedding_refuses_an_exemplar_without_a_unit_level_system():
    _, spec = _embedding()
    with pytest.raises(ValueError, match="'farmers' has no unit-level system"):
        build_embedding(farmers(), spec)


@pytest.mark.parametrize("name", ["rabbits1", "rabbits2", "macro1", "macro2"])
def test_embedding_refuses_an_exemplar_without_an_action_class_map(name):
    with pytest.raises(ValueError, match=f"^exemplar '{name}' has no action-class map$"):
        build_embedding(build_exemplar(name), ControllerSpec({}, {}))


def test_embedding_refuses_a_node_driven_by_two_classes():
    ex, spec = _embedding()
    both_on_kb = Exemplar(name="urn2", ground_truth=ex.ground_truth, scm=ex.scm,
                          notes={"class_nodes": {"A1": "Kb", "A2": "Kb"}})
    with pytest.raises(ValueError, match="node 'Kb' controlled by two classes"):
        build_embedding(both_on_kb, spec)


def _spy_exact_joint(monkeypatch):
    """Record the noise grid size of every ``exact_joint`` the embedding runs."""
    import phenocausal.verify as verify

    grids = []

    def spy(scm):
        grids.append(math.prod(len(scm.noises[v].support()[0]) for v in scm.nodes))
        return exact_joint(scm)

    monkeypatch.setattr(verify, "exact_joint", spy)
    return grids


@pytest.mark.parametrize("p_y1, count", [(0.5, 4), (0.0, 2)])
def test_embedding_runs_one_exact_joint_per_positive_weight_setting(
        monkeypatch, p_y1, count):
    ex, _ = _embedding()
    grids = _spy_exact_joint(monkeypatch)
    spec = urn2_controllers(3, (0.5,) * 4, (0.8, 0.2, 0.7, 0.3), p_y1=p_y1)
    joint, levels, _ = build_embedding(ex, spec)
    # no grid beyond the exemplar's own 7 x 7 tallies
    assert grids == [49] * count
    assert len(levels["Y1"]) * len(levels["Y2"]) == count


def _embedding_per_setting(exemplar, controllers):
    """The embedding's joint and levels with one ``exact_joint`` for every
    controller setting, idle controllers included: the reference for
    sharing one system among the settings that differ only in idle
    controllers."""
    base, class_nodes = exemplar.scm, exemplar.notes["class_nodes"]
    driven = {class_nodes[label]: (ctrl, fn)
              for label, (ctrl, fn) in controllers.controls.items()}
    ctrls = tuple(controllers.noises)
    laws = []
    for y in ctrls:
        atoms, probs = controllers.noises[y].support()
        values, codes = np.unique(atoms, return_inverse=True)
        mass = np.bincount(codes, weights=probs)
        laws.append([(v, w) for v, w in zip(values.tolist(), mass.tolist()) if w > 0])
    columns, weights = [], []
    for setting in itertools.product(*laws):
        y = dict(zip(ctrls, (v for v, _w in setting)))
        noises = {**base.noises, **{v: fn(y[ctrl]) for v, (ctrl, fn) in driven.items()}}
        p_y, levels_y = exact_joint(dataclasses.replace(base, noises=noises))
        cells = np.nonzero(p_y.probs)
        columns.append([np.full(cells[0].size, v) for v, _w in setting]
                       + [np.asarray(levels_y[v])[i] for v, i in zip(base.nodes, cells)])
        weights.append(math.prod(w for _v, w in setting) * p_y.probs[cells])
    nodes = ctrls + base.nodes
    levels, (joint,) = tables._tabulate(
        nodes, [(list(map(np.concatenate, zip(*columns))), np.concatenate(weights))])
    return joint, dict(zip(nodes, levels))


def test_embedding_runs_no_exact_joint_for_an_idle_controller(monkeypatch):
    ex, spec = _embedding()  # urn_bivariate(12, 12, 3)
    idle = NoiseSpec.finite([float(i) for i in range(64)], [1 / 64] * 64)
    # the idle controller comes first, so it varies slowest across settings
    spec = ControllerSpec(noises={"Y0": idle, **spec.noises}, controls=spec.controls)
    grids = _spy_exact_joint(monkeypatch)
    joint, levels, gtilde = build_embedding(ex, spec)
    assert grids == [49] * 4  # 256 settings, 4 of the driving controllers
    monkeypatch.undo()
    ref, ref_levels = _embedding_per_setting(ex, spec)
    assert joint.names == ref.names and levels == ref_levels
    assert np.array_equal(joint.probs, ref.probs)
    assert not any("Y0" in edge for edge in gtilde.edges)


def test_embedding_refuses_more_settings_than_a_table_holds_before_any_exact_joint(
        monkeypatch):
    ex, _ = _embedding()
    grids = _spy_exact_joint(monkeypatch)
    wide = NoiseSpec.finite(range(128), [1 / 128] * 128)
    # a one-atom tally keeps a vector-noise construction of this small
    spec = ControllerSpec(noises={"Y1": wide, "Y2": wide, "Y3": wide},
                          controls={"A1": ("Y1", lambda y: NoiseSpec.degenerate(0.0))})
    with pytest.raises(ValueError, match="^2097152 controller settings exceed cap 1048576$"):
        build_embedding(ex, spec)
    assert grids == []


_BIASES = st.sampled_from([0.0, 0.3, 0.5, 1.0])


def _controller(data):
    """A controller law over 2-3 atoms, one of them possibly of zero weight,
    and the tally law of its class under each atom."""
    k = data.draw(st.integers(2, 3))
    atoms = data.draw(st.lists(st.integers(-2, 4), min_size=k, max_size=k, unique=True))
    weights = data.draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    if data.draw(st.booleans()):
        weights[data.draw(st.integers(0, k - 1))] = 0
    law = NoiseSpec.finite([float(a) for a in atoms], [w / sum(weights) for w in weights])
    tallies = {float(a): (data.draw(_BIASES), data.draw(_BIASES)) for a in atoms}
    return law, tallies


def _drawn_embedding(data, name):
    """An ``urn2``, or an ``urnN`` n = 3 with A3 uncontrolled, whose classes
    A1 and A2 are driven by drawn controllers; rounds 1-2."""
    rounds = data.draw(st.integers(1, 2))
    if name == "urn2":
        ex = urn_bivariate(kb0=4, kr0=4, rounds=rounds,
                           coin_biases=[data.draw(_BIASES) for _ in range(4)])
    else:
        ex = urn_chain(n=3, k0=(4, 4, 4), rounds=rounds,
                       coin_biases=[data.draw(_BIASES) for _ in range(6)])
    laws, tallies = {}, {}
    for j, label in enumerate(("A1", "A2")):
        laws[f"Y{j}"], tallies[label] = _controller(data)
    controls = {label: (f"Y{j}", lambda c, label=label: NoiseSpec.binomdiff(
        rounds, *tallies[label][c])) for j, label in enumerate(("A1", "A2"))}
    return ex, ControllerSpec(noises=laws, controls=controls)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(["urn2", "urnN"]))
def test_embedding_given_the_controllers_is_the_exemplar_under_their_tallies(data, name):
    ex, spec = _drawn_embedding(data, name)
    laws, controls = spec.noises, spec.controls
    joint, levels, _ = build_embedding(ex, spec)
    ctrl, system = tuple(laws), ex.scm.nodes
    assert joint.names == ctrl + system

    p_ctrl = joint.marginal(ctrl).probs
    # every setting of positive weight: the joint keeps no other level
    for at in itertools.product(*(range(len(levels[y])) for y in ctrl)):
        setting = {y: levels[y][i] for y, i in zip(ctrl, at)}
        # the controllers' marginal is the product of their laws
        want = math.prod(dict(zip(*laws[y].support()))[c] for y, c in setting.items())
        assert abs(p_ctrl[at] - want) <= 1e-15
        noises = dict(ex.scm.noises)
        for label, (y, fn) in controls.items():
            noises[ex.notes["class_nodes"][label]] = fn(setting[y])
        ref, ref_levels = exact_joint(dataclasses.replace(ex.scm, noises=noises))
        given = joint.probs[at] / p_ctrl[at]
        ref_at = {tuple(ref_levels[v][i] for v, i in zip(system, cell)): q
                  for cell, q in np.ndenumerate(ref.probs)}
        for cell, q in np.ndenumerate(given):
            state = tuple(levels[v][i] for v, i in zip(system, cell))
            assert abs(q - ref_at.get(state, 0.0)) <= 1e-15, (setting, state)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(["urn2", "urnN"]))
def test_embedding_equals_the_vector_noise_reference(data, name):
    ex, spec = _drawn_embedding(data, name)
    ref_scm = embedding_reference(ex, spec)
    grid = math.prod(len(ref_scm.noises[v].support()[0]) for v in ref_scm.nodes)
    assume(grid <= NOISE_COMBO_CAP)
    joint, levels, _ = build_embedding(ex, spec)
    ref, ref_levels = exact_joint(ref_scm)
    assert joint.names == ref.names and levels == ref_levels
    assert np.abs(joint.probs - ref.probs).max() <= 1e-15


def test_embedding_trials_pass():
    for i in range(3):
        assert embedding_trial(900 + i, index=i).ok


def test_embedding_trial_runs_no_urn_lattice_dp(monkeypatch):
    # the embedding reads the exemplar's notes, whose levels are the lattice
    # axes; the process's exact joint is never needed
    def refuse(self):
        raise AssertionError("the urn lattice DP ran")

    monkeypatch.setattr(_UrnProcess, "exact_joint", refuse)
    assert embedding_trial(900).ok


@pytest.mark.parametrize("rounds", [6, 7, 8])
def test_embedding_trial_passes_past_the_vector_noise_grid_cap(rounds):
    # the vector-noise grid held 2 * 2 * 169 * 169 = 114,244 combos at rounds 6
    rec = embedding_trial(11, rounds=rounds)
    assert rec.ok and rec.details["worst_residual"] <= 1e-12


@pytest.mark.parametrize("rounds", [0, -2])
def test_embedding_trial_refuses_rounds_below_one(rounds):
    with pytest.raises(ValueError, match=f"rounds must be at least 1, got {rounds}"):
        embedding_trial(900, rounds=rounds)


# ---------------------------------------------------------------------------
# Boundary consistency
# ---------------------------------------------------------------------------


def _boundary(g, p, j, new_factor, s):
    """The boundary check of ``p`` with ``j``'s factor replaced, on ``s``."""
    gs = marginal_dag(g, s)
    return verify_boundary_consistency(g, p, soft_intervention(p, g, j, new_factor),
                                       j, gs, p.marginal(gs.nodes))


def test_figure9_instance_changed_factor_is_x3():
    g = Dag(("X1", "X2", "X3"), [("X1", "X2"), ("X2", "X3")])
    rng = np.random.default_rng(0)
    cards = {v: 2 for v in g.nodes}
    p = random_markov_joint(g, cards, rng)
    new_factor = random_conditional(g, "X2", cards, rng)
    rec = _boundary(g, p, "X2", new_factor, ("X1", "X3"))
    assert rec.ok
    assert rec.details["changed"] == ["X3"]
    assert rec.details["expected_at_most"] == ["X3"]


def test_perturbing_member_of_subset_changes_its_own_factor():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_dag(["a", "b", "c", "d"], rng, edge_prob=0.5)
        cards = {v: 2 for v in g.nodes}
        p = random_markov_joint(g, cards, rng)
        s = random_sufficient_subset(g, rng)
        j = s[int(rng.integers(len(s)))]
        rec = _boundary(g, p, j, random_conditional(g, j, cards, rng), s)
        assert rec.ok
        assert set(rec.details["changed"]) <= {j}


def test_boundary_trials_random_batch():
    for i in range(120):
        rec = boundary_trial(31_000 + i, index=i)
        assert rec.ok, rec.details


def test_insufficient_subset_is_refused_before_the_boundary_check():
    # the check takes the marginal graph, which exists only for a
    # sufficient subset
    g = Dag(("X", "C", "Y"), [("C", "X"), ("C", "Y")])
    rng = np.random.default_rng(2)
    cards = {v: 2 for v in g.nodes}
    p = random_markov_joint(g, cards, rng)
    with pytest.raises(SufficiencyError) as refused:
        _boundary(g, p, "C", random_conditional(g, "C", cards, rng), ("X", "Y"))
    assert refused.value.witness == "C"


@pytest.mark.parametrize("max_nodes", [2, 0, -1])
def test_boundary_trial_refuses_max_nodes_below_three(max_nodes):
    with pytest.raises(ValueError, match=f"max_nodes must be at least 3, got {max_nodes}"):
        boundary_trial(5, max_nodes=max_nodes)


@pytest.mark.parametrize("max_nodes", [21, 40])
def test_boundary_trial_refuses_more_binary_nodes_than_a_table_holds(max_nodes,
                                                                     monkeypatch):
    # 2**21 entries exceed tables.MAX_TABLE_ENTRIES = 2**20; the refusal
    # comes before any joint is built
    import phenocausal.verify as verify

    def refuse(*args, **kwargs):
        raise AssertionError("a joint was built")

    monkeypatch.setattr(verify, "product_joint", refuse)
    monkeypatch.setattr(tables, "product_joint", refuse)
    with pytest.raises(ValueError, match=f"max_nodes must be at most 20, got {max_nodes}"):
        boundary_trial(4, max_nodes=max_nodes)


def test_replacement_factor_must_target_the_node_given_its_parents():
    # the trial's perturbed joint keeps soft_intervention's refusals
    g = Dag(("X1", "X2", "X3"), [("X1", "X2"), ("X2", "X3")])
    factors = _random_factors(g, {v: 2 for v in g.nodes}, np.random.default_rng(5))
    wrong_target = ConditionalTable("X3", ("X1",), np.full((2, 2), 0.5))
    with pytest.raises(TableError, match="replacement targets 'X3', expected 'X2'"):
        _replace_factor(g, factors, "X2", wrong_target)
    wrong_parents = ConditionalTable("X2", (), np.array([0.5, 0.5]))
    with pytest.raises(TableError, match="parents of 'X2' are"):
        _replace_factor(g, factors, "X2", wrong_parents)


# The former trial, kept as the reference: the perturbed joint by
# soft_intervention on p, the marginal graph and joint built in each check,
# and p(z) by marginal().permute() for every value of x.


def _reference_boundary(g, p, j, new_factor, s, index, seed):
    s_nodes = g.sorted_tuple(s)
    gs = marginal_dag(g, s_nodes)
    p_tilde = soft_intervention(p, g, j, new_factor)
    ps = p.marginal(s_nodes)
    ps_tilde = p_tilde.marginal(s_nodes)
    changed = changed_factors(ps, ps_tilde, gs, 1e-9)
    if j in s_nodes:
        expected, unique_blocker = (j,), True
    else:
        expected = _reachable_inside(g, j, set(s_nodes))
        unique_blocker = len(expected) <= 1
    ok = len(changed) <= 1 and set(changed) <= set(expected) and unique_blocker
    return TrialRecord("boundary", index, seed, ok, {
        "perturbed": j, "subset": list(s_nodes), "changed": list(changed),
        "expected_at_most": list(expected), "unique_blocker": unique_blocker,
        "tv_full": tv_distance(p, p_tilde), "tv_marginal": tv_distance(ps, ps_tilde)})


def _reference_adjustment(ps, x, y, z, v):
    cond = np.nan_to_num(conditional(ps, y, (x, *z)).table[v], nan=0.0)
    if not z:
        return cond
    pz = ps.marginal(z).permute(tuple(z)).probs
    return (cond * pz[..., None]).reshape(-1, cond.shape[-1]).sum(axis=0)


def _reference_backdoor(g, p, s, x, y, z):
    s_nodes = g.sorted_tuple(s)
    gs = marginal_dag(g, s_nodes)
    z = gs.sorted_tuple(z)
    if not graphs.backdoor_admissible(gs, x, y, z):
        return True, {"skipped": "z not admissible in marginal graph"}
    inherited = graphs.backdoor_admissible(g, x, y, z)
    ps = p.marginal(s_nodes)
    pa_x = g.parents(x)

    def do(v):
        if y in pa_x:
            return p.marginal((y,)).probs
        return _reference_adjustment(p, x, y, pa_x, v)

    worst = max(float(np.abs(do(v) - _reference_adjustment(ps, x, y, z, v)).max())
                for v in range(ps.cards[ps.axis(x)]))
    return inherited and worst <= 1e-9, {"x": x, "y": y, "z": list(z),
                                         "admissible_in_full": inherited,
                                         "max_dev": worst}


def _reference_trial(trial_seed, max_nodes=6, index=0):
    rng = _philox(trial_seed)
    n = int(rng.integers(3, max_nodes + 1))
    g = random_dag([f"X{i+1}" for i in range(n)], rng, edge_prob=0.5)
    cards = {v: 2 for v in g.nodes}
    p = random_markov_joint(g, cards, rng)
    j = g.nodes[int(rng.integers(n))]
    new_factor = random_conditional(g, j, cards, rng)
    s = random_sufficient_subset(g, rng)
    record = _reference_boundary(g, p, j, new_factor, s, index, trial_seed)
    s_nodes = g.sorted_tuple(s)
    if len(s_nodes) >= 2 and record.ok:
        idx = rng.permutation(len(s_nodes))[:2]
        x, y = s_nodes[idx[0]], s_nodes[idx[1]]
        rest = [v for v in s_nodes if v not in (x, y)]
        z = tuple(v for v in rest if rng.random() < 0.5)
        ok_bd, bd = _reference_backdoor(g, p, s_nodes, x, y, z)
        record = dataclasses.replace(record, ok=record.ok and ok_bd,
                                     details={**record.details, "backdoor": bd})
    return record


_TRIAL_FLOATS = ("tv_full", "tv_marginal")


def _split_floats(record):
    """The record without its float fields, and those fields by name."""
    details = dict(record.details)
    floats = {k: details.pop(k) for k in _TRIAL_FLOATS}
    if "max_dev" in details.get("backdoor", {}):
        details["backdoor"] = dict(details["backdoor"])
        floats["max_dev"] = details["backdoor"].pop("max_dev")
    return dataclasses.replace(record, details=details), floats


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**63 - 1), st.integers(3, 6))
def test_boundary_trial_equals_the_former_trial(trial_seed, max_nodes):
    got, got_floats = _split_floats(boundary_trial(trial_seed, max_nodes=max_nodes,
                                                   index=7))
    want, want_floats = _split_floats(_reference_trial(trial_seed, max_nodes, index=7))
    assert got == want
    assert got_floats.keys() == want_floats.keys()
    for key, value in want_floats.items():
        assert abs(got_floats[key] - value) <= 1e-15, key


# SHA-256 of the JSON of the boundary records at seeds 0-499, recorded with
# the node-by-node factor comparison, the argsort product and the per-x
# adjustment: the faster paths keep every record's bytes
_BOUNDARY_RECORDS_SHA256 = "b5c4e3e0869f0e087d545846c26ae10ba8661d365cfffafa91ee0f83f31782f7"


def test_boundary_records_keep_their_bytes():
    records = [boundary_trial(s, index=s).to_json_obj() for s in range(500)]
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _BOUNDARY_RECORDS_SHA256


def test_boundary_trial_marginalizes_once_and_never_refactorizes(monkeypatch):
    import phenocausal.verify as verify

    calls = {"marginal_dag": 0}
    real = verify.marginal_dag

    def counted(g, s):
        calls["marginal_dag"] += 1
        return real(g, s)

    def refuse(*args, **kwargs):
        raise AssertionError("a joint was factorized again")

    monkeypatch.setattr(verify, "marginal_dag", counted)
    monkeypatch.setattr(tables, "soft_intervention", refuse)
    monkeypatch.setattr(tables, "factorize", refuse)
    trials = 40
    backdoor = 0
    for i in range(trials):
        rec = boundary_trial(31_000 + i, index=i)
        assert rec.ok, rec.details
        backdoor += "x" in rec.details.get("backdoor", {})
    assert calls["marginal_dag"] == trials
    assert backdoor > 0  # the side check ran on the shared marginal model


# ---------------------------------------------------------------------------
# Backdoor preservation
# ---------------------------------------------------------------------------


def test_backdoor_adjustment_matches_truncated_factorization():
    g = Dag(("C", "X", "Y"), [("C", "X"), ("C", "Y"), ("X", "Y")])
    rng = np.random.default_rng(3)
    p = random_markov_joint(g, {v: 2 for v in g.nodes}, rng)
    # the subset is every node: the marginal model is the model itself
    ok, details = check_backdoor_preservation(g, p, g, p, "X", "Y", ("C",))
    assert ok
    assert details["admissible_in_full"]
    assert details["max_dev"] <= 1e-9


def test_backdoor_preservation_random_instances():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 25:
        g = random_dag([f"v{i}" for i in range(5)], rng, edge_prob=0.5)
        p = random_markov_joint(g, {v: 2 for v in g.nodes}, rng)
        s = random_sufficient_subset(g, rng)
        if len(s) < 2:
            continue
        nodes = list(s)
        rng.shuffle(nodes)
        x, y = nodes[0], nodes[1]
        z = tuple(v for v in nodes[2:] if rng.random() < 0.5)
        gs = marginal_dag(g, s)
        ok, details = check_backdoor_preservation(g, p, gs, p.marginal(gs.nodes),
                                                  x, y, z)
        assert ok, details
        checked += 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_do_marginal_by_adjustment_equals_truncated_factorization(n, seed):
    # every ordered pair, so y a parent of x and x without parents both occur
    rng = np.random.default_rng(seed)
    g = random_dag([f"X{i}" for i in range(n)], rng, edge_prob=0.5)
    p = random_markov_joint(g, {v: 2 for v in g.nodes}, rng)
    for x in g.nodes:
        for y in (w for w in g.nodes if w != x):
            for v in range(2):
                want = hard_intervention(p, g, x, v).marginal((y,)).probs
                assert np.abs(_do_marginal(p, g, x, y)[v] - want).max() <= 1e-15


def _loop_adjustment(ps, x, y, z):
    """The adjustment summed over z once per value of x."""
    cond = np.nan_to_num(conditional(ps, y, (x, *z)).table, nan=0.0)
    if not z:
        return cond
    pz = _marginal_array(ps, tuple(z))[..., None]
    return np.array([(c * pz).reshape(-1, c.shape[-1]).sum(axis=0) for c in cond])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_adjustment_equals_the_per_x_sum(data):
    # joints with zero cells in a shuffled variable order, so some contexts
    # are undefined and the marginal of z is a transposed view
    cards = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    probs = rng.random(cards) * (rng.random(cards) >= data.draw(
        st.sampled_from((0.0, 0.3, 0.6))))
    if probs.sum() == 0:
        probs.flat[0] = 1.0
    names = [f"V{i}" for i in range(len(cards))]
    ps = DiscreteJoint(names, probs / probs.sum()).permute(
        data.draw(st.permutations(names)))
    x, y, *rest = data.draw(st.permutations(names))
    z = tuple(rest[:data.draw(st.integers(0, len(rest)))])
    got = _adjustment(ps, x, y, z)
    want = _loop_adjustment(ps, x, y, z)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Suite aggregation and replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config,which", [
    (SuiteConfig(0, 0, 0), "all"),
    (SuiteConfig(0, -3, 0), "all"),
    (SuiteConfig(5, 5, 0), "all"),
    (SuiteConfig(5, -3, 5), "boundary"),
], ids=["all-zero", "all-negative", "embedding-zero", "boundary-negative"])
def test_suite_below_one_trial_is_refused(monkeypatch, config, which):
    import phenocausal.verify as verify

    ran = []
    monkeypatch.setattr(verify, "_run_trials", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="at least 1 trial"):
        randomized_suite(config, seed=1, which=which)
    assert ran == []  # refused before any suite runs


def test_unselected_suite_count_is_not_read():
    out = randomized_suite(SuiteConfig(2, 0, -1), seed=1, which="prop1")
    assert out["prop1"].passed and out["prop1"].trials == 2


def test_suite_records_replay_identically():
    config = SuiteConfig(proposition_trials=5, boundary_trials=5,
                         embedding_trials=1)
    reports = randomized_suite(config, seed=77)
    for rec in reports["boundary"].records:
        replay = boundary_trial(rec.seed, index=rec.index)
        assert replay == rec
    for rec in reports["prop1"].records:
        assert proposition_trial(rec.seed, index=rec.index) == rec


def test_suite_selector():
    out = randomized_suite(SuiteConfig(proposition_trials=3), seed=1,
                           which="prop1")
    assert set(out) == {"prop1"}
    with pytest.raises(ValueError):
        randomized_suite(SuiteConfig(), seed=1, which="nope")


def test_report_json_shape():
    reports = randomized_suite(SuiteConfig(proposition_trials=2,
                                           boundary_trials=2,
                                           embedding_trials=1), seed=5)
    obj = reports["boundary"].to_json_obj()
    assert obj["passed"] and obj["trials"] == 2
    assert len(obj["records"]) == 2


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and runs
    the trials in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers: int):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("jobs,cores,trials,expected", [
    (64, 3, 10, [3]),      # capped by the cores
    (64, 8, 5, [5]),       # capped by the trials
    (2, 8, 10, [2]),       # as asked
    (64, 1, 10, []),       # one core: serial, no pool
    (4, 8, 1, []),         # one trial: serial, no pool
])
def test_worker_count_is_clamped(monkeypatch, jobs, cores, trials, expected):
    import concurrent.futures
    import os

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    config = SuiteConfig(proposition_trials=trials)
    pooled = randomized_suite(config, seed=4, which="prop1", jobs=jobs)
    assert _RecordingPool.sizes == expected
    serial = randomized_suite(config, seed=4, which="prop1")
    assert pooled["prop1"].to_json_obj() == serial["prop1"].to_json_obj()
