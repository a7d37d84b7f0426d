"""Pinned discovery outcomes at fixed seeds.

The LiNGAM decisions (direction, order, edges) are pinned exactly; their
float diagnostics (statistics, slopes, scores, normality p-values) to a
relative 1e-9, so a faster but equivalent independence statistic or
regression passes and a different one fails. Mechanism-shift localization
results are pinned byte for byte through a digest of their JSON form.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from phenocausal import (
    Dag,
    Dataset,
    bundles_chain,
    discovery,
    lingam_bivariate,
    lingam_multivariate,
    localize_mechanism_change,
    urn_bivariate,
    urn_chain,
)

REL = 1e-9

# seed: (direction, slope, confidence, stat_x_to_y, stat_y_to_x,
#        normality_p_forward, normality_p_backward)
BIVARIATE = {
    100: ('x->y', -1.0059893713174808, 0.08443130246470434, 0.05099821711581156, 0.1354295195805159, 4.5283040340901173e-51, 1.6008509889649896e-06),
    101: ('x->y', -1.0070653286913813, 0.06685956828526021, 0.05642652867191294, 0.12328609695717316, 4.825154359718556e-35, 3.847730464099325e-08),
    102: ('x->y', -0.9820866432036095, 0.047140697870480766, 0.07862508648948786, 0.12576578435996863, 6.47290759474873e-40, 5.37740390413179e-06),
    103: ('x->y', -1.0216146800786934, 0.03656727748964017, 0.08471447375056133, 0.1212817512402015, 3.4399199340497378e-40, 2.7590323538922976e-07),
    104: ('x->y', -1.0050566405583763, 0.06871870470081078, 0.049224049715162865, 0.11794275441597364, 1.3674326225261775e-39, 8.491585149426034e-09),
    105: ('x->y', -0.9841873777749436, 0.06217044351701187, 0.0773797614408922, 0.13955020495790407, 1.1031528501262015e-40, 1.1864542680170807e-07),
    106: ('x->y', -0.9965951946888976, 0.08712699165129201, 0.04303071247236744, 0.13015770412365946, 6.235698826213636e-54, 9.849610971579285e-08),
    107: ('x->y', -1.005153158579912, 0.06337381239039162, 0.05562038243584379, 0.11899419482623541, 2.30019972854047e-44, 6.97882591024875e-07),
    108: ('x->y', -0.9984812058253775, 0.09819324596414489, 0.029330956255079067, 0.12752420221922395, 5.4107668746953066e-42, 3.59318035156854e-06),
    109: ('x->y', -1.0062175446820987, 0.07725357897391413, 0.05305025895724604, 0.13030383793116018, 1.0575673173997942e-49, 6.912454734734094e-06),
}


def _check_bivariate(res, expected):
    direction, *floats = expected
    assert res.direction == direction
    d = res.diagnostics
    got = (res.slope, res.confidence, d["stat_x_to_y"], d["stat_y_to_x"],
           d["normality_p_forward"], d["normality_p_backward"])
    assert got == pytest.approx(tuple(floats), rel=REL, abs=0.0)


@pytest.mark.parametrize("seed", sorted(BIVARIATE))
def test_bivariate_urn_pinned(seed):
    ex = urn_bivariate(kb0=1000, kr0=1000, rounds=2)
    res = lingam_bivariate(ex.sample(10_000, seed), max_points=1500)
    assert (res.x, res.y) == ("Kb", "Kr")
    _check_bivariate(res, BIVARIATE[seed])


def test_bivariate_flipped_pinned():
    ex = urn_bivariate(kb0=1000, kr0=1000, rounds=2)
    ds = ex.sample(10_000, 5)
    res = lingam_bivariate(Dataset(("Kr", "Kb"), ds.rows[:, ::-1], 5))
    assert (res.x, res.y) == ("Kr", "Kb")
    _check_bivariate(res, ('y->x', -1.0090698942011869, 0.05145068396567477,
                           0.12165495326042777, 0.070204269294753,
                           1.162613837292087e-06, 1.523781077824188e-45))


def test_bivariate_gaussian_pinned():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, 2000)
    y = 0.7 * x + rng.normal(0, 1, 2000)
    res = lingam_bivariate(Dataset(("x", "y"), np.column_stack([x, y]), 1))
    _check_bivariate(res, ('undetermined', 0.6710447812231876,
                           0.002280022566275304, 0.035227135402275275,
                           0.03294711283599997, 0.540788669626383,
                           0.7036401749744594))


MULTIVARIATE = {
    "urn_chain": (
        lambda: urn_chain(n=4, k0=(1000,) * 4, rounds=1), 2001,
        ('K4', 'K3', 'K2', 'K1'),
        [('K2', 'K1'), ('K3', 'K1'), ('K3', 'K2'), ('K4', 'K1'), ('K4', 'K2'), ('K4', 'K3')],
        {'K4->K3': 0.705718020400859, 'K4->K2': 0.7078180220181104, 'K3->K2': 1.000110618108279, 'K4->K1': 0.7050226891229885, 'K3->K1': 1.0008206254112024, 'K2->K1': 1.0031555606763316},
        {'K4': 0.011868403323887408, 'K3': 0.0027738408354833857, 'K2': 0.0005307987592616614, 'K1': 0.0},
        [[0.0, 0.0, 0.0, 0.0], [-0.9973290660839554, 0.0, 0.0, 0.0], [-1.0049183758469544, -1.0047313204528532, 0.0, 0.0], [-0.9977099882493421, -1.0021903212566445, -0.9999086826862729, 0.0]]),
    "bundles_chain": (
        lambda: bundles_chain(n=4, rounds=1), 3001,
        ('K4', 'K3', 'K2', 'K1'),
        [('K2', 'K1'), ('K3', 'K2'), ('K4', 'K3')],
        {'K4->K3': 0.7093591269650367, 'K3->K2': 0.8173599467902428, 'K2->K1': 0.8695393236782595},
        {'K4': 0.011606698490393795, 'K3': 0.00555285118974551, 'K2': 0.0035762997361547966, 'K1': 0.0},
        [[0.0, 0.0, 0.0, 0.0], [1.005913072111058, 0.0, 0.0, 0.0], [0.0, 0.9951383809540066, 0.0, 0.0], [0.0, 0.0, 1.004939930739524, 0.0]]),
}


@pytest.mark.parametrize("name", sorted(MULTIVARIATE))
def test_multivariate_pinned(name):
    build, seed, order, edges, scores, exo, matrix = MULTIVARIATE[name]
    res = lingam_multivariate(build().sample(100_000, seed), max_points=1200)
    assert res.order == order
    assert sorted(res.dag.edges) == edges
    assert res.scores.keys() == scores.keys()
    assert res.scores == pytest.approx(scores, rel=REL, abs=0.0)
    assert res.metadata["exogeneity_scores"] == pytest.approx(exo, rel=REL, abs=0.0)
    np.testing.assert_allclose(res.matrix, matrix, rtol=REL, atol=0.0)


def _kernel_sizes(monkeypatch) -> list[int]:
    """Records the point count of every cross sum the statistic runs."""
    sizes = []
    kernel = discovery._cross_distance_sum

    def spy(x, *rest):
        sizes.append(x.size)
        return kernel(x, *rest)

    monkeypatch.setattr(discovery, "_cross_distance_sum", spy)
    return sizes


def test_bivariate_kernel_runs_on_distinct_points(monkeypatch):
    # Kb takes 5 values and Kr 9 in this sample, so each regressor and its
    # residual form at most 45 distinct points of the 1500 strided rows
    sizes = _kernel_sizes(monkeypatch)
    ds = urn_bivariate(kb0=1000, kr0=1000, rounds=2).sample(10_000, 100)
    assert [np.unique(ds.rows[:, k]).size for k in (0, 1)] == [5, 9]
    _check_bivariate(lingam_bivariate(ds, max_points=1500), BIVARIATE[100])
    assert len(sizes) == 2 and max(sizes) <= 45


def test_multivariate_kernel_runs_on_distinct_points(monkeypatch):
    # the 1200 strided rows of the urn_chain pin sample hold 81 distinct
    # rows, and every working column is a function of the row
    sizes = _kernel_sizes(monkeypatch)
    build, seed, order, *_ = MULTIVARIATE["urn_chain"]
    ds = build().sample(100_000, seed)
    assert np.unique(discovery._subsample(ds.rows, 1200), axis=0).shape[0] == 81
    assert lingam_multivariate(ds, max_points=1200).order == order
    assert len(sizes) == 4 * 3 + 3 * 2 + 2 * 1 and max(sizes) <= 81


def _digest(results) -> str:
    text = json.dumps([r.to_json_obj() for r in results], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_localization_urn2_bit_identical():
    base = urn_bivariate(kb0=50, kr0=50, rounds=3, coin_biases=(0.5,) * 4)
    shifted = urn_bivariate(kb0=50, kr0=50, rounds=3,
                            coin_biases=(0.5, 0.5, 0.8, 0.2))
    out = localize_mechanism_change([base.sample(10_000, 31),
                                     shifted.sample(10_000, 32)],
                                    base.ground_truth, seed=6)
    assert _digest(out) == ("6364d839d5f419959921f811a9cdc362"
                            "a071571015e80d2cdd67dfc60bf073c3")


def test_localization_chain_bit_identical():
    shifted_a3 = (0.5, 0.5, 0.5, 0.5, 0.8, 0.2, 0.5, 0.5)
    base = urn_chain(n=4, k0=(30,) * 4, rounds=3, coin_biases=(0.5,) * 8)
    shifted = urn_chain(n=4, k0=(30,) * 4, rounds=3, coin_biases=shifted_a3)
    out = localize_mechanism_change([base.sample(10_000, 41),
                                     shifted.sample(10_000, 42)],
                                    base.ground_truth, seed=41)
    assert [r.changed for r in out] == [("K3",), ("K3",)]
    assert _digest(out) == ("15e4508a549f65270183e24801272519"
                            "223ee131d7ef329852a1d136a6aa90ce")


def test_localization_binned_bit_identical():
    rng = np.random.default_rng(13)
    g = Dag(("u", "v"), [("u", "v")])
    n = 4000
    u1 = rng.uniform(size=n)
    v1 = u1 + 0.1 * rng.uniform(size=n)
    u2 = rng.uniform(size=n)
    v2 = -u2 + 0.1 * rng.uniform(size=n)
    out = localize_mechanism_change(
        [Dataset(("u", "v"), np.column_stack([u1, v1]), 1),
         Dataset(("u", "v"), np.column_stack([u2, v2]), 2)], g, seed=3)
    assert _digest(out) == ("d27bf36468d1b6c200692bc03a2b4cea"
                            "dc2bb1744ba28138dbddb134ca2597a0")
