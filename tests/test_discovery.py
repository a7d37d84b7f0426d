"""Discovery tests: independence statistic, LiNGAM directions, multivariate
recovery, mechanism-shift localization. Heavy multi-seed rate checks live
in the acceptance suite; these tests pin behaviour on single seeds."""

from __future__ import annotations

import ast
import functools
import importlib.util
import inspect
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phenocausal.cli
import phenocausal.verify
from phenocausal import (
    ConditionalTable,
    Dag,
    Dataset,
    DiscoveryError,
    bundles_chain,
    changed_factors,
    independence_statistic,
    lingam_bivariate,
    lingam_multivariate,
    localize_mechanism_change,
    permutation_threshold,
    product_joint,
    random_conditional,
    random_markov_joint,
    soft_intervention,
    urn_bivariate,
    urn_chain,
)


# ---------------------------------------------------------------------------
# Independence statistic
# ---------------------------------------------------------------------------


def test_statistic_independent_below_null_quantile():
    rng = np.random.default_rng(0)
    u = rng.uniform(size=600)
    v = rng.uniform(size=600)
    stat = independence_statistic(u, v)
    thr = permutation_threshold(u, v, n_perm=99, seed=1)
    assert stat < thr


def test_statistic_identity_large():
    rng = np.random.default_rng(1)
    u = rng.uniform(size=400)
    assert independence_statistic(u, u) > 0.9


def test_statistic_detects_nonlinear_dependence():
    rng = np.random.default_rng(2)
    u = rng.uniform(-1, 1, size=800)
    v = u**2 + 0.05 * rng.uniform(size=800)
    stat = independence_statistic(u, v)
    thr = permutation_threshold(u, v, n_perm=99, seed=3)
    assert stat > thr


def test_statistic_constant_column_zero():
    rng = np.random.default_rng(3)
    u = rng.uniform(size=100)
    assert independence_statistic(u, np.ones(100)) == 0.0


def test_statistic_affine_invariance():
    rng = np.random.default_rng(4)
    u = rng.uniform(size=500)
    v = rng.uniform(size=500) + 0.5 * u
    s1 = independence_statistic(u, v)
    s2 = independence_statistic(3.0 * u - 7.0, -2.0 * v + 1.0)
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_statistic_input_validation():
    with pytest.raises(DiscoveryError):
        independence_statistic(np.ones(5), np.ones(5))
    with pytest.raises(DiscoveryError):
        independence_statistic(np.ones(30), np.ones(29))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**600, 2.0**-600])
def test_statistic_invariant_at_extreme_scales(scale):
    # moments of the raw columns would overflow or underflow at these scales
    rng = np.random.default_rng(4)
    u = rng.uniform(size=500)
    v = u + rng.uniform(size=500)
    ref = independence_statistic(u, v)
    assert ref > 0.5
    for su, sv in ((u * scale, v), (u, v * scale), (u * scale, v * scale)):
        got = independence_statistic(su, sv)
        if math.frexp(scale)[0] == 0.5:   # a power of two scales exactly
            assert got == ref
        else:
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_statistic_refuses_non_finite(bad):
    u = np.random.default_rng(5).uniform(size=100)
    w = u.copy()
    w[17] = bad
    for args in ((w, u), (u, w)):
        with pytest.raises(DiscoveryError, match="finite"):
            independence_statistic(*args)


@pytest.mark.parametrize("max_points", [-3, 0, 1, 19, 1500.5, 20.0, "100", None])
def test_max_points_below_twenty_refused(max_points):
    rng = np.random.default_rng(6)
    u = rng.exponential(size=300)
    v = u + rng.exponential(size=300)
    ds = Dataset(("u", "v"), np.column_stack([u, v]), 6)
    with pytest.raises(DiscoveryError, match="max_points"):
        independence_statistic(u, v, max_points=max_points)
    with pytest.raises(DiscoveryError, match="max_points"):
        permutation_threshold(u, v, n_perm=5, max_points=max_points)
    with pytest.raises(DiscoveryError, match="max_points"):
        lingam_bivariate(ds, max_points=max_points)
    with pytest.raises(DiscoveryError, match="max_points"):
        lingam_multivariate(ds, max_points=max_points)
    # refused before the data is read: a degenerate pair is refused too
    flat = Dataset(("u", "v"), np.ones((300, 2)), 6)
    with pytest.raises(DiscoveryError, match="max_points"):
        lingam_bivariate(flat, max_points=max_points)


def test_max_points_numpy_integer_accepted():
    rng = np.random.default_rng(6)
    u = rng.exponential(size=300)
    v = u + rng.exponential(size=300)
    assert (independence_statistic(u, v, max_points=np.int64(40))
            == independence_statistic(u, v, max_points=40))


def test_max_points_twenty_accepted():
    rng = np.random.default_rng(6)
    u = rng.exponential(size=300)
    v = u + rng.exponential(size=300)
    assert 0.0 < independence_statistic(u, v, max_points=20) <= 1.0


def test_statistic_parameter_names():
    # callers bind them by keyword: perfbench/tracing.py reads u and
    # max_points from the bound arguments to count the pairs of a call
    params = inspect.signature(independence_statistic).parameters
    assert list(params) == ["u", "v", "max_points"]


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_functions_bind_their_counter_parameters():
    # the tracer wraps each attribute and its counters read the bound
    # arguments by name, so a renamed function or parameter breaks the run
    tracing = _load_tracing()
    bound = set()
    for _, owner, attr, _, counter in tracing.TRACED:
        assert hasattr(owner, attr), attr
        if counter is None:
            continue
        args = next(iter(inspect.signature(counter).parameters))
        read = {node.slice.value
                for node in ast.walk(ast.parse(inspect.getsource(counter)))
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == args}
        assert read <= set(inspect.signature(getattr(owner, attr)).parameters), attr
        bound |= read
    assert bound >= {"u", "max_points", "environments", "n_perm", "eps", "scm", "argv"}


def test_benchmark_keyword_calls_bind():
    # every call the workloads make through the package's modules binds
    modules = {"pc": phenocausal, "pv": phenocausal.verify, "cli": phenocausal.cli}
    tree = ast.parse((_PERFBENCH / "workloads.py").read_text())
    keywords = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            continue
        fn = getattr(modules[node.func.value.id], node.func.attr)
        names = [k.arg for k in node.keywords if k.arg is not None]
        inspect.signature(fn).bind(*node.args, **dict.fromkeys(names))
        keywords.update(names)
    assert keywords >= {"mode", "trials", "seed", "max_nodes", "rounds",
                        "edge_prob", "k0", "coin_biases", "max_points"}


# ---------------------------------------------------------------------------
# Bivariate direction
# ---------------------------------------------------------------------------


def test_urn_bivariate_direction_and_slope():
    ex = urn_bivariate(kb0=1000, kr0=1000, rounds=2)
    res = lingam_bivariate(ex.sample(10_000, 77))
    assert res.direction == "x->y"
    assert -1.05 <= res.slope <= -0.95
    assert res.confidence > 0


def test_gaussian_pair_undetermined():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, 2000)
    y = 0.7 * x + rng.normal(0, 1, 2000)
    res = lingam_bivariate(Dataset(("x", "y"), np.column_stack([x, y]), 1))
    assert res.direction == "undetermined"


def test_exact_functional_fit_degenerate():
    rng = np.random.default_rng(2)
    x = rng.uniform(size=500)
    res = lingam_bivariate(Dataset(("x", "y"), np.column_stack([x, 2 * x]), 2))
    assert res.direction == "degenerate"
    assert "reason" in res.diagnostics


def test_bivariate_needs_samples():
    with pytest.raises(DiscoveryError):
        lingam_bivariate(Dataset(("x", "y"), np.zeros((50, 2)), 0))


def test_reverse_oriented_data_detected():
    # anti-causal column order: verdict should be y->x
    ex = urn_bivariate(kb0=1000, kr0=1000, rounds=2)
    ds = ex.sample(10_000, 5)
    flipped = Dataset(("Kr", "Kb"), ds.rows[:, ::-1], 5)
    res = lingam_bivariate(flipped)
    assert res.direction == "y->x"
    assert res.y == "Kb"


# ---------------------------------------------------------------------------
# Multivariate recovery
# ---------------------------------------------------------------------------


def test_urn_chain_recovery_single_seed():
    ex = urn_chain(n=4, k0=(1000,) * 4, rounds=1)
    res = lingam_multivariate(ex.sample(100_000, 2001), max_points=1200)
    assert frozenset(res.dag.edges) == frozenset(ex.ground_truth.edges)
    lower = res.matrix[np.tril_indices(4, -1)]
    assert np.all(np.abs(lower + 1.0) < 0.1)


def test_bundles_recovery_single_seed():
    ex = bundles_chain(n=4, rounds=1)
    res = lingam_multivariate(ex.sample(100_000, 3001), max_points=1200)
    assert frozenset(res.dag.edges) == frozenset(ex.ground_truth.edges)
    for p, c in ex.ground_truth.edges:
        i, j = res.dag.nodes.index(p), res.dag.nodes.index(c)
        assert abs(res.matrix[j, i] - 1.0) < 0.1


def test_permuted_columns_same_graph():
    ex = urn_chain(n=3, k0=(1000,) * 3, rounds=1)
    ds = ex.sample(60_000, 9)
    res = lingam_multivariate(ds, max_points=1000)
    perm = (2, 0, 1)
    shuffled = Dataset(tuple(ds.columns[i] for i in perm), ds.rows[:, perm], 9)
    res2 = lingam_multivariate(shuffled, max_points=1000)
    assert frozenset(res.dag.edges) == frozenset(res2.dag.edges)


def test_multivariate_needs_samples():
    with pytest.raises(DiscoveryError):
        lingam_multivariate(Dataset(("a", "b", "c"), np.zeros((100, 3)), 0))


def _uniform_rows(lin, n: int, seed: int) -> Dataset:
    """Rows of ``lin`` driven by Uniform(-1, 1) noises drawn from the
    Philox streams that ``GeneralScm.sample_noise`` keys by (seed, node
    index, stream 0, chunk); the package's noise laws are all finite."""
    from phenocausal.scm import _CHUNK, _philox

    sizes = [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]
    noise = {v: np.concatenate([_philox(seed, k, 0, c).uniform(-1, 1, size)
                                for c, size in enumerate(sizes)])
             for k, v in enumerate(lin.nodes)}
    state = lin.general().evaluate(noise)
    return Dataset(lin.nodes, np.column_stack([state[v] for v in lin.nodes]), seed)


def test_random_linear_models_recovered():
    # calibration target: uniform noises, coefficient magnitudes in
    # [0.5, 2], recovery rate at least 9/10 over pinned seeds at n = 1e5
    from phenocausal import LinearScm, NoiseSpec

    def random_linear(seed, d=4):
        rng = np.random.default_rng(seed)
        a = np.zeros((d, d))
        for j in range(d):
            for i in range(j):
                if rng.random() < 0.5:
                    a[j, i] = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
        # the noise specs are placeholders: ``_uniform_rows`` draws the noise
        return LinearScm(tuple(f"v{k}" for k in range(d)), a, np.zeros(d),
                         (NoiseSpec.degenerate(0.0),) * d)

    good = 0
    for seed in range(10):
        lin = random_linear(seed)
        res = lingam_multivariate(_uniform_rows(lin, 100_000, 5000 + seed),
                                  max_points=1200)
        good += frozenset(res.dag.edges) == frozenset(lin.graph().edges)
    assert good >= 9


def test_direction_verdict_affine_invariant():
    ex = urn_bivariate(kb0=1000, kr0=1000, rounds=2)
    ds = ex.sample(8000, 55)
    res = lingam_bivariate(ds)
    scaled = Dataset(ds.columns,
                     np.column_stack([3.0 * ds.rows[:, 0] - 40.0,
                                      -0.5 * ds.rows[:, 1] + 7.0]), 55)
    res2 = lingam_bivariate(scaled)
    assert res.direction == res2.direction == "x->y"


@pytest.fixture(scope="module")
def urn_pair():
    return urn_bivariate(kb0=1000, kr0=1000, rounds=2).sample(10_000, 3)


@pytest.mark.parametrize("scale", [1e154, 1e-160, 1e-200])
def test_bivariate_at_extreme_scales(urn_pair, scale):
    # the raw moments overflow at 1e154 and underflow at 1e-160 and 1e-200
    ref = lingam_bivariate(urn_pair, max_points=1500)
    scaled = Dataset(urn_pair.columns, urn_pair.rows * scale, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lingam_bivariate(scaled, max_points=1500)
    assert got.direction == ref.direction == "x->y"
    assert got.slope == pytest.approx(ref.slope, rel=1e-12)
    assert got.confidence == pytest.approx(ref.confidence, rel=1e-9)
    assert got.diagnostics == pytest.approx(ref.diagnostics, rel=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.integers(-500, 500), st.integers(-500, 500))
def test_bivariate_exact_under_power_of_two_scaling(seed, a, b):
    # x in [1, 2), y in [3, 6) and a slope near 0.5: every scaled value and
    # the scaled slope stay normal floats
    rng = np.random.default_rng(seed)
    x = 1.0 + rng.uniform(size=400) ** 2
    y = 3.0 + 0.5 * x + rng.uniform(size=400)
    ref = lingam_bivariate(Dataset(("x", "y"), np.column_stack([x, y])))
    got = lingam_bivariate(Dataset(("x", "y"),
                                   np.column_stack([np.ldexp(x, a), np.ldexp(y, b)])))
    assert (got.direction, got.confidence, got.diagnostics) == \
        (ref.direction, ref.confidence, ref.diagnostics)
    slope_scale = b - a if got.direction != "y->x" else a - b
    assert got.slope == math.ldexp(ref.slope, slope_scale)


@pytest.fixture(scope="module")
def urn_chain3():
    return urn_chain(n=3, k0=(1000,) * 3, rounds=1).sample(3000, 1)


@pytest.mark.parametrize("scale", [1e154, 1e-200])
def test_multivariate_at_extreme_scales(urn_chain3, scale):
    # the raw moments overflow at 1e154 and underflow at 1e-200
    ref = lingam_multivariate(urn_chain3, max_points=600)
    scaled = Dataset(urn_chain3.columns, urn_chain3.rows * scale, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lingam_multivariate(scaled, max_points=600)
    assert got.order == ref.order
    assert got.dag.edges == ref.dag.edges and len(ref.dag.edges) == 3
    assert got.scores == pytest.approx(ref.scores, rel=1e-9)
    np.testing.assert_allclose(got.matrix, ref.matrix, rtol=1e-9, atol=0.0)
    for key in ("exogeneity_scores", "residual_normality_p"):
        assert got.metadata[key] == pytest.approx(ref.metadata[key], rel=1e-9)


def test_multivariate_exact_under_power_of_two_scaling(urn_chain3):
    exps = np.array([-700, 300, 5])
    ref = lingam_multivariate(urn_chain3, max_points=600)
    got = lingam_multivariate(Dataset(urn_chain3.columns,
                                      np.ldexp(urn_chain3.rows, exps), 1),
                              max_points=600)
    assert (got.order, got.dag.edges, got.scores) == (ref.order, ref.dag.edges, ref.scores)
    assert got.metadata == ref.metadata
    # A[j, i] scales by 2^(e_j - e_i)
    assert np.array_equal(got.matrix, np.ldexp(ref.matrix, exps[:, None] - exps[None, :]))


def test_multivariate_memory_stays_near_one_copy():
    # one centred copy of the rows, and one residual with the normality
    # test's temporaries at a time: about 2x
    ds = urn_chain(n=4, k0=(1000,) * 4, rounds=1).sample(100_000, 2001)
    tracemalloc.start()
    try:
        lingam_multivariate(ds, max_points=1200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * ds.rows.nbytes


def test_multivariate_flags_gaussian_data():
    rng = np.random.default_rng(8)
    x = rng.normal(size=2000)
    y = x + rng.normal(size=2000)
    z = y + rng.normal(size=2000)
    res = lingam_multivariate(Dataset(("x", "y", "z"),
                                      np.column_stack([x, y, z]), 8))
    assert res.metadata["near_gaussian"]


# ---------------------------------------------------------------------------
# Mechanism-shift localization
# ---------------------------------------------------------------------------


def test_identical_environments_empty():
    ex = urn_bivariate(kb0=50, kr0=50, rounds=3)
    a = ex.sample(8000, 21)
    b = ex.sample(8000, 22)
    out = localize_mechanism_change([a, b], ex.ground_truth, seed=5)
    assert all(r.changed == () for r in out)


def test_shifted_a2_bias_localized_to_kr():
    base = urn_bivariate(kb0=50, kr0=50, rounds=3, coin_biases=(0.5,) * 4)
    shifted = urn_bivariate(kb0=50, kr0=50, rounds=3,
                            coin_biases=(0.5, 0.5, 0.8, 0.2))
    a = base.sample(10_000, 31)
    b = shifted.sample(10_000, 32)
    out = localize_mechanism_change([a, b], base.ground_truth, seed=6)
    union = set().union(*(set(r.changed) for r in out))
    assert union == {"Kr"}


_CHAIN = dict(n=4, k0=(30,) * 4, rounds=3)


@functools.cache
def _chain_flags(shifted: int) -> dict[int, list[tuple[str, ...]]]:
    """Per data seed, the nodes flagged in each environment of the
    benchmark's 4-node chain against its copy with class A``shifted``'s
    coins at (0.8, 0.2); class Aj moves Kj, whose parents are K(j+1) .. K4."""
    coins = [0.5] * 8
    coins[2 * shifted - 2:2 * shifted] = (0.8, 0.2)
    base = urn_chain(**_CHAIN, coin_biases=(0.5,) * 8)
    other = urn_chain(**_CHAIN, coin_biases=tuple(coins))
    return {seed: [r.changed for r in localize_mechanism_change(
                [base.sample(10_000, seed), other.sample(10_000, seed + 1)],
                base.ground_truth, seed=seed)]
            for seed in (11, 22, 33, 44, 55)}


@pytest.mark.parametrize("shifted", [1, 2, 3, 4])
def test_chain_shift_is_flagged_at_its_own_node(shifted):
    # scored by the maximum over parent contexts, no shift at K1 or K2 was
    # flagged at these seeds
    for seed, changed in _chain_flags(shifted).items():
        assert all(f"K{shifted}" in c for c in changed), (seed, changed)


# A node whose conditional did not change is flagged with probability at
# most 1/61: its threshold is the largest of 60 null draws. A same-law call
# on the chain then flags some node with probability at most 4/61, and a
# shifted call one of its three other nodes with at most 3/61. At those
# rates the bounds below fail with probability 1.4% and 1.5%.


def test_same_law_chain_pairs_are_rarely_flagged():
    base = urn_chain(**_CHAIN, coin_biases=(0.5,) * 8)
    flagged = 0
    for i in range(40):
        out = localize_mechanism_change([base.sample(10_000, 7000 + 2 * i),
                                         base.sample(10_000, 7001 + 2 * i)],
                                        base.ground_truth, seed=i)
        flagged += any(r.changed for r in out)
    assert flagged <= 6


def test_chain_shift_rarely_flags_another_node():
    # the maximum over parent contexts flagged K3 besides K4 at 3 of 5 seeds
    others = [seed for shifted in (1, 2, 3, 4)
              for seed, changed in _chain_flags(shifted).items()
              if set().union(*changed) != {f"K{shifted}"}]
    assert len(others) <= 3, others


def _flagged(kr0: int, i: int) -> set[str]:
    base = urn_bivariate(kb0=50, kr0=50, rounds=3)
    other = urn_bivariate(kb0=50, kr0=kr0, rounds=3)
    out = localize_mechanism_change([base.sample(1000, 100 + 2 * i),
                                     other.sample(1000, 101 + 2 * i)],
                                    base.ground_truth, seed=i)
    return set().union(*(set(r.changed) for r in out))


def test_one_ball_more_of_kr_is_flagged_at_1000_rows():
    # the maximum over parent contexts flagged 4 of these 40 pairs
    assert sum("Kr" in _flagged(51, i) for i in range(40)) >= 36


def test_same_law_pairs_are_rarely_flagged_at_1000_rows():
    assert sum(bool(_flagged(50, i)) for i in range(40)) <= 2


def root_shift_to_an_unreached_value():
    """p(X) = (1, 0) and q(X) = (1/2, 1/2) with one shared p(Y | X): the
    baseline never reaches X = 1, so only X's conditional reads as changed."""
    g = Dag(("X", "Y"), [("X", "Y")])
    y_given_x = ConditionalTable("Y", ("X",), np.array([[0.3, 0.7], [0.6, 0.4]]))
    p = product_joint(g, [ConditionalTable("X", (), np.array([1.0, 0.0])), y_given_x])
    q = product_joint(g, [ConditionalTable("X", (), np.array([0.5, 0.5])), y_given_x])
    return p, q, g


def test_exact_joints_reduce_to_changed_factors():
    rng = np.random.default_rng(12)
    g = Dag(("A", "B", "C"), [("A", "B"), ("B", "C")])
    cards = {v: 2 for v in g.nodes}
    p = random_markov_joint(g, cards, rng)
    t = random_conditional(g, "B", cards, rng)
    q = soft_intervention(p, g, "B", t)
    for (p, q, g), target in (((p, q, g), ("B",)),
                              (root_shift_to_an_unreached_value(), ("X",))):
        out = localize_mechanism_change([p, q], g, eps=1e-9)
        direct = changed_factors(p, q, g, 1e-9)
        assert out[0].changed == direct == target
        assert out[1].changed == direct


def test_continuous_columns_are_binned():
    rng = np.random.default_rng(13)
    g = Dag(("u", "v"), [("u", "v")])
    n = 4000
    u1 = rng.uniform(size=n)
    v1 = u1 + 0.1 * rng.uniform(size=n)
    u2 = rng.uniform(size=n)
    v2 = -u2 + 0.1 * rng.uniform(size=n)  # flipped mechanism for v
    e1 = Dataset(("u", "v"), np.column_stack([u1, v1]), 1)
    e2 = Dataset(("u", "v"), np.column_stack([u2, v2]), 2)
    out = localize_mechanism_change([e1, e2], g, seed=3)  # 5 pooled-quantile bins
    union = set().union(*(set(r.changed) for r in out))
    assert "v" in union and "u" not in union


def test_localization_needs_two_envs():
    ex = urn_bivariate(kb0=50, kr0=50, rounds=3)
    with pytest.raises(DiscoveryError):
        localize_mechanism_change([ex.sample(100, 0)], ex.ground_truth)


@pytest.mark.parametrize("empty", [0, 1, 2])
def test_localization_refuses_an_environment_without_rows(empty):
    # an empty environment gave NaN distances and thresholds, no change and
    # a RuntimeWarning
    ex = urn_bivariate(kb0=50, kr0=50, rounds=3)
    envs = [ex.sample(100, seed) for seed in range(3)]
    envs[empty] = Dataset(envs[0].columns, np.zeros((0, 2)))
    with pytest.raises(DiscoveryError, match=f"^environment {empty} has no rows$"):
        localize_mechanism_change(envs, ex.ground_truth)


@pytest.mark.parametrize("n_perm", [0, -2])
def test_permutation_counts_below_one_are_refused(n_perm):
    ex = urn_bivariate(kb0=50, kr0=50, rounds=3)
    envs = [ex.sample(500, 0), ex.sample(500, 1)]
    message = f"n_perm must be at least 1, got {n_perm}"
    with pytest.raises(DiscoveryError, match=message):
        localize_mechanism_change(envs, ex.ground_truth, n_perm=n_perm)
    with pytest.raises(DiscoveryError, match=message):
        permutation_threshold(envs[0].column("Kb"), envs[0].column("Kr"), n_perm=n_perm)


@pytest.mark.parametrize("n_perm", [2.5, 3.0, "3", None])
@pytest.mark.parametrize("eps", [None, 0.1])
def test_non_integer_permutation_counts_are_refused(n_perm, eps):
    ex = urn_bivariate(kb0=50, kr0=50, rounds=3)
    envs = [ex.sample(500, 0), ex.sample(500, 1)]
    message = f"n_perm must be an integer, got {n_perm!r}"
    with pytest.raises(DiscoveryError, match="^" + re.escape(message) + "$"):
        localize_mechanism_change(envs, ex.ground_truth, eps=eps, n_perm=n_perm)
    with pytest.raises(DiscoveryError, match="^" + re.escape(message) + "$"):
        permutation_threshold(envs[0].column("Kb"), envs[0].column("Kr"), n_perm=n_perm)


def test_numpy_integer_permutation_counts_are_accepted():
    ex = urn_bivariate(kb0=50, kr0=50, rounds=3)
    envs = [ex.sample(500, 0), ex.sample(500, 1)]
    assert (localize_mechanism_change(envs, ex.ground_truth, n_perm=np.int64(5))
            == localize_mechanism_change(envs, ex.ground_truth, n_perm=5))
    u, v = envs[0].column("Kb"), envs[0].column("Kr")
    assert (permutation_threshold(u, v, n_perm=np.int32(5))
            == permutation_threshold(u, v, n_perm=5))


@pytest.mark.parametrize("eps", [math.nan, -1.0])
def test_localization_refuses_an_eps_below_zero_or_nan(eps):
    # NaN flagged nothing and -1 flagged every node of two same-law samples
    ex = urn_bivariate(kb0=50, kr0=50, rounds=3)
    for envs in ([ex.sample(500, 0), ex.sample(500, 1)], [ex.baseline] * 2):
        with pytest.raises(DiscoveryError, match="eps must be a number >= 0"):
            localize_mechanism_change(envs, ex.ground_truth, eps=eps)
