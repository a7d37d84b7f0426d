"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities. Tolerances and trial counts are pinned here, not
configurable."""

from __future__ import annotations

import time

import numpy as np

from phenocausal import (
    Dag,
    DirectionVerdict,
    bivariate_direction,
    build_exemplar,
    bundles_chain,
    classify_statistical,
    classify_unit,
    lingam_bivariate,
    lingam_multivariate,
    localize_mechanism_change,
    macro_pair,
    marginal_dag,
    rabbits,
    random_conditional,
    random_markov_joint,
    soft_intervention,
    solve_structure,
    total_effect,
    urn2_controllers,
    urn_bivariate,
    urn_chain,
    valid_graphs,
    verify_boundary_consistency,
    verify_embedding_markov,
    build_embedding,
)
from phenocausal.cli import run
from phenocausal import verify
from phenocausal.verify import boundary_trial, proposition_trial, _spawn_seed
from urn_oracles import bundles_mixing, urn_toeplitz_mixing


def _report(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}")


def test_criterion_01_proposition_suite():
    # the tolerances the trials run at
    assert verify._MARGINAL_TOL == 1e-3 and verify._CHANGE_FLOOR == 1e-12
    t0 = time.monotonic()
    records = [proposition_trial(_spawn_seed(101, 0, i), index=i)
               for i in range(1000)]
    elapsed = time.monotonic() - t0
    failures = [r for r in records if not r.ok]
    moved = [r for r in records if r.details["tv_x"] > 1e-3]
    assert not failures
    assert len(moved) == 1000  # every instance actually changed p(x)
    assert all(r.details["tv_y"] > 1e-12 and r.details["tv_x_given_y"] > 1e-12
               for r in moved)
    assert elapsed < 5.0
    _report(1, f"1000/1000 identifiability trials, 0 violations at floor "
               f"1e-12, {elapsed:.2f}s")


def test_criterion_02_boundary_suite():
    assert verify._BOUNDARY_EPS == 1e-9  # the tolerance the trials run at
    t0 = time.monotonic()
    records = [boundary_trial(_spawn_seed(202, 1, i), max_nodes=6, index=i)
               for i in range(500)]
    elapsed = time.monotonic() - t0
    failures = [r for r in records if not r.ok]
    assert not failures
    assert all(len(r.details.get("changed", [])) <= 1 for r in records
               if r.kind == "boundary")
    # pinned Figure-9 style instance: perturb the middle of a chain and
    # marginalize it away; the changed factor must be exactly {X3}
    g = Dag(("X1", "X2", "X3"), [("X1", "X2"), ("X2", "X3")])
    rng = np.random.default_rng(99)
    cards = {v: 2 for v in g.nodes}
    p = random_markov_joint(g, cards, rng)
    p_tilde = soft_intervention(p, g, "X2", random_conditional(g, "X2", cards, rng))
    gs = marginal_dag(g, ("X1", "X3"))
    rec = verify_boundary_consistency(g, p, p_tilde, "X2", gs, p.marginal(gs.nodes))
    assert rec.ok and rec.details["changed"] == ["X3"]
    assert elapsed < 60.0
    _report(2, f"500/500 boundary trials with <= 1 changed marginal factor, "
               f"Figure-9 instance changed exactly X3, {elapsed:.2f}s")


def test_criterion_03_embedding_markov():
    assert verify._EMBEDDING_EPS == 1e-12  # the tolerance the check runs at
    t0 = time.monotonic()
    rounds = 3
    base = (0.5, 0.5, 0.5, 0.5)
    shifted = (0.8, 0.2, 0.7, 0.3)
    ex = urn_bivariate(kb0=12, kr0=12, rounds=rounds, coin_biases=base)
    joint, _levels, gtilde = build_embedding(ex, urn2_controllers(rounds, base, shifted))
    rec = verify_embedding_markov(joint, gtilde)
    elapsed = time.monotonic() - t0
    assert rec.ok
    assert rec.details["states"] <= 2**14
    assert elapsed < 10.0
    _report(3, f"embedding joint over {rec.details['states']} states Markov "
               f"to G-tilde at 1e-12 (residual {rec.details['worst_residual']:.2e}), "
               f"{elapsed:.2f}s")


def test_criterion_04_urn_algebra():
    a = solve_structure(urn_toeplitz_mixing(5))
    expected = np.zeros((5, 5))
    expected[np.tril_indices(5, -1)] = -1.0
    assert np.array_equal(a, expected)
    assert np.abs(np.linalg.inv(np.eye(5) - a)
                  - urn_toeplitz_mixing(5)).max() <= 1e-12
    ab = solve_structure(bundles_mixing(4))
    expected_b = np.zeros((4, 4))
    for i in range(1, 4):
        expected_b[i, i - 1] = 1.0
    assert np.array_equal(ab, expected_b)
    assert np.abs(np.linalg.inv(np.eye(4) - ab)
                  - bundles_mixing(4)).max() <= 1e-12
    _report(4, "structure matrices recovered exactly (urn n=5 all -1 strictly "
               "lower, bundles sub-diagonal ones); mixing roundtrip <= 1e-12")


def test_criterion_05_effect_cancellation_and_unfaithfulness():
    ex = urn_chain(n=5, k0=(50,) * 5, rounds=5)
    for j in range(5, 2, -1):
        assert total_effect(ex.linear, f"K{j}", f"K{j-2}") == 0.0
    n = 100_000
    ds = ex.sample(n, 4242)
    corr = np.corrcoef(ds.rows.T)
    band = 5.0 / np.sqrt(n)
    worst = 0.0
    for a in range(5):
        for b in range(5):
            gap = abs(int(ds.columns[a][1:]) - int(ds.columns[b][1:]))
            if gap >= 2:
                worst = max(worst, abs(corr[a, b]))
    assert worst < band
    _report(5, f"total effects over two steps exactly 0; max |corr| at "
               f"distance >= 2 is {worst:.4f} < 5/sqrt(n) = {band:.4f}")


def test_criterion_06_classification_ground_truths():
    seeds = {"trials": 80, "seed": 606}
    for name in ("urn2", "urnN", "bundles", "rabbits1", "rabbits2",
                 "macro1", "macro2", "balltrack", "farmers"):
        ex = build_exemplar(name)
        if ex.unit_actions and ex.scm is not None:
            report = classify_unit(ex.ground_truth, ex.scm, ex.unit_actions,
                                   trials=seeds["trials"], seed=seeds["seed"])
        else:
            report = classify_statistical(ex.ground_truth, ex.baseline,
                                          ex.statistical_actions)
        assert report.valid, f"{name} failed: {report.to_json_obj()}"
    # uniqueness asserted for urn2 (statistical and unit) and urnN (unit)
    ex2 = urn_bivariate()
    stat = valid_graphs(ex2.baseline, ex2.statistical_actions, mode="statistical")
    assert [sorted(g.edges) for g, _ in stat] == [[("Kb", "Kr")]]
    unit = valid_graphs(ex2.scm, ex2.unit_actions, mode="unit",
                        trials=80, seed=606)
    assert [sorted(g.edges) for g, _ in unit] == [[("Kb", "Kr")]]
    exn = urn_chain(n=4)
    uniq = valid_graphs(exn.scm, exn.unit_actions, mode="unit",
                        trials=80, seed=606)
    assert len(uniq) == 1
    assert frozenset(uniq[0][0].edges) == frozenset(exn.ground_truth.edges)
    _report(6, "all nine exemplars validate their declared graphs; urn2 and "
               "urnN admit exactly one valid DAG")


def test_criterion_06_five_node_unit_enumeration():
    # all 29,281 five-node DAGs; the time bound is a gate
    t0 = time.monotonic()
    found = {}
    for ex in (urn_chain(n=5), bundles_chain(n=5)):
        valid = valid_graphs(ex.scm, ex.unit_actions, mode="unit",
                             trials=80, seed=606)
        assert [frozenset(g.edges) for g, _ in valid] == \
            [frozenset(ex.ground_truth.edges)], ex.name
        found[ex.name] = len(valid)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, f"unit reading over all five-node DAGs: {found} valid, the "
               f"ground truth each, {elapsed:.1f}s")


def test_criterion_07_regime_reversal():
    r1 = rabbits(scenario=1)
    r2 = rabbits(scenario=2)
    d1 = bivariate_direction(r1.scm, r1.unit_actions, mode="unit",
                             trials=60, seed=7)
    d2 = bivariate_direction(r2.scm, r2.unit_actions, mode="unit",
                             trials=60, seed=7)
    assert d1 is DirectionVerdict.Y_CAUSES_X
    assert d2 is DirectionVerdict.X_CAUSES_Y
    m1 = macro_pair("act-on-1s")
    m2 = macro_pair("act-on-2s")
    e1 = bivariate_direction(m1.scm, m1.unit_actions, mode="unit",
                             trials=60, seed=7)
    e2 = bivariate_direction(m2.scm, m2.unit_actions, mode="unit",
                             trials=60, seed=7)
    assert e1 is DirectionVerdict.X_CAUSES_Y
    assert e2 is DirectionVerdict.Y_CAUSES_X
    _report(7, "rabbits: scenario 1 gives Y->X, scenario 2 gives X->Y; macro "
               "averages flip with the acting side")


def test_criterion_08_lingam_recovery():
    t0 = time.monotonic()
    good = 0
    for seed in range(100):
        ex = urn_bivariate(kb0=1000, kr0=1000, rounds=2)
        res = lingam_bivariate(ex.sample(10_000, 8000 + seed), max_points=1500)
        if res.direction == "x->y" and -1.05 <= res.slope <= -0.95:
            good += 1
    assert good >= 95
    chain_good = 0
    bundle_good = 0
    for seed in range(20):
        exn = urn_chain(n=4, k0=(1000,) * 4, rounds=1)
        r = lingam_multivariate(exn.sample(100_000, 8200 + seed),
                                max_points=1200)
        chain_good += frozenset(r.dag.edges) == frozenset(exn.ground_truth.edges)
        exb = bundles_chain(n=4, rounds=1)
        rb = lingam_multivariate(exb.sample(100_000, 8400 + seed),
                                 max_points=1200)
        bundle_good += frozenset(rb.dag.edges) == frozenset(exb.ground_truth.edges)
    elapsed = time.monotonic() - t0
    assert chain_good >= 18
    assert bundle_good >= 18
    assert elapsed < 180.0
    _report(8, f"bivariate {good}/100 correct with slope in [-1.05, -0.95]; "
               f"multivariate support exact {chain_good}/20 (urn chain) and "
               f"{bundle_good}/20 (bundles), {elapsed:.1f}s")


def test_criterion_09_mechanism_shift_localization():
    base = urn_bivariate(kb0=50, kr0=50, rounds=3, coin_biases=(0.5,) * 4)
    shifted = urn_bivariate(kb0=50, kr0=50, rounds=3,
                            coin_biases=(0.5, 0.5, 0.8, 0.2))
    hits = 0
    for seed in range(100):
        a = base.sample(10_000, 90_000 + 2 * seed)
        b = shifted.sample(10_000, 90_001 + 2 * seed)
        out = localize_mechanism_change([a, b], base.ground_truth, seed=seed)
        union = set().union(*(set(r.changed) for r in out))
        hits += union == {"Kr"}
    assert hits >= 95
    _report(9, f"shifted A2 coin bias localized to Kr in {hits}/100 seeds "
               f"at n=10^4 per environment")


def test_criterion_10_determinism(tmp_path):
    pairs = []
    for name in ("r1", "r2"):
        out = tmp_path / f"{name}.json"
        assert run(["verify", "--which", "boundary", "--trials", "40",
                    "--seed", "10", "--out", str(out)]) == 0
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]
    csvs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        assert run(["exemplar", "urnN", "--n", "4", "--rounds", "2",
                    "--seed", "11", "--samples", "5000", "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    discs = []
    data = tmp_path / "c1.csv"
    for name in ("d1.json", "d2.json"):
        out = tmp_path / name
        assert run(["discover", "--method", "multivariate", "--in", str(data),
                    "--seed", "12", "--out", str(out)]) == 0
        discs.append(out.read_bytes())
    assert discs[0] == discs[1]
    _report(10, "verification, exemplar and discovery artifacts are "
                "byte-identical across reruns with the same seed")
