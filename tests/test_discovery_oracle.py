"""Fast discovery paths against their brute-force references.

* The blocked distance-correlation kernel, run over the distinct points
  weighted by their counts, against the dense m x m double-centred form it
  replaced, on the same strided, standardized points.
* Its blocked cross sum against the purely dyadic merge it replaced, with
  unit weights and with the rows expanded by their weights.
* The in-package K^2 normality p-value against ``scipy.stats.normaltest``.
* The closed-form one-regressor OLS against ``lstsq``.
* Multivariate LiNGAM from one Gram matrix and the strided points against
  the full-column DirectLiNGAM it replaced.
* The context-weighted shift of mechanism-shift localization, from the
  counts of the occupied cells, against a per-context loop over the
  conditionals of joints from the row-by-row level-map builder, and
  against the dense-grid score it replaced.
* The null's sequential hypergeometric splits against the exact shares
  of all environment label assignments.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from phenocausal import (Dag, Dataset, bundles_chain, discovery, lingam_multivariate,
                         random_dag, tables, urn_chain)
from phenocausal.discovery import (_MAX_DCOR_POINTS, _NORMALITY_ALPHA, _PRUNE_THRESHOLD,
                                   DiscoveryError, DiscoveryResult, _binary_exponent,
                                   _integer_at_least, _normality_pvalue, _ols1,
                                   independence_statistic, permutation_threshold)
from phenocausal.scm import _philox
from phenocausal.tables import DiscreteJoint

# ---------------------------------------------------------------------------
# Dense reference for the distance correlation
# ---------------------------------------------------------------------------


def _center_distances(x: np.ndarray) -> np.ndarray:
    d = np.abs(x[:, None] - x[None, :])
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


def dense_statistic(u, v, max_points: int = 2000) -> float:
    """The O(m^2) V-statistic distance correlation, step for step."""
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if u.std() == 0.0 or v.std() == 0.0:
        return 0.0
    u = discovery._subsample((u - u.mean()) / u.std(), max_points)
    v = discovery._subsample((v - v.mean()) / v.std(), max_points)
    a = _center_distances(u)
    b = _center_distances(v)
    dcov2 = float((a * b).mean())
    denom = np.sqrt(float((a * a).mean()) * float((b * b).mean()))
    if denom <= 0.0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / denom))


REL = 1e-10
# An exact product design (say every (u, v) level pair equally often) has
# dCor = 0; both kernels then return rounding noise, up to about 1e-7 for
# the fast one at m = 2000. There the squared statistics are compared on an
# absolute scale instead.
SQUARED_FLOOR = 2e-14


def close(fast: float, dense: float) -> bool:
    return (abs(fast - dense) <= REL * dense
            or abs(fast**2 - dense**2) <= SQUARED_FLOOR)


KINDS = ("independent", "functional", "noisy", "ties_one", "ties_both",
         "urn_counts", "heavy_tail")


def _pair(kind: str, m: int, rng: np.random.Generator):
    if kind == "independent":
        return rng.normal(size=m), rng.uniform(size=m)
    if kind == "functional":
        u = rng.uniform(-1, 1, size=m)
        return u, np.sin(3 * u) + u**2
    if kind == "noisy":
        u = rng.uniform(-1, 1, size=m)
        return u, u**2 + rng.uniform(-0.3, 0.3, size=m)
    if kind == "ties_one":
        return rng.integers(0, 3, size=m).astype(float), rng.normal(size=m)
    if kind == "ties_both":
        u = rng.integers(0, 4, size=m).astype(float)
        return u, (rng.integers(0, 2, size=m) + (u > 1)).astype(float)
    if kind == "urn_counts":
        kb = rng.binomial(1000, 0.5, size=m).astype(float)
        return kb, (1000 - kb + rng.integers(-2, 3, size=m)).astype(float)
    return rng.standard_cauchy(size=m), rng.exponential(size=m)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kind=st.sampled_from(KINDS),
       m=st.integers(20, 2000) | st.sampled_from((1200, 1500, 1999, 2000)),
       seed=st.integers(0, 2**32 - 1), swap=st.booleans())
def test_fast_statistic_matches_dense(kind, m, seed, swap):
    u, v = _pair(kind, m, np.random.default_rng(seed))
    if swap:
        u, v = v, u
    assert close(independence_statistic(u, v), dense_statistic(u, v))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), m=st.integers(20, 1500),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.01, 100.0), shift=st.floats(-1e3, 1e3),
       flip=st.booleans())
def test_fast_statistic_affine_rescaling(kind, m, seed, scale, shift, flip):
    u, v = _pair(kind, m, np.random.default_rng(seed))
    u2 = (-scale if flip else scale) * u + shift
    assert close(independence_statistic(u2, v), dense_statistic(u, v))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(3000, 6000), max_points=st.sampled_from([50, 500, 1500]),
       seed=st.integers(0, 2**32 - 1))
def test_fast_statistic_strided_subsample(n, max_points, seed):
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 5, size=n).astype(float)
    v = u + rng.uniform(size=n)
    assert close(independence_statistic(u, v, max_points=max_points),
                 dense_statistic(u, v, max_points=max_points))


# distinct-point counts at the edges of the dense block and the first merge
# levels of the weighted cross sum
TIE_POINTS = (2, 63, 64, 65, 127, 128, 129)


def _tied_pair(k: int, m: int, rng: np.random.Generator):
    """m rows over exactly k >= 2 distinct (u, v) points, each used at
    least once, on a few random levels per column; the grid cells (0, 0)
    and (1, 1) are always among them, so neither column is constant."""
    side = int(np.ceil(np.sqrt(k))) + 1
    rest = np.setdiff1d(np.arange(side * side), [0, side + 1])
    cells = np.concatenate([[0, side + 1], rng.choice(rest, size=k - 2, replace=False)])
    u_levels, v_levels = rng.normal(size=side), rng.exponential(size=side)
    pick = rng.permutation(np.concatenate([np.arange(k),
                                           rng.integers(0, k, size=m - k)]))
    ui, vi = np.divmod(cells[pick], side)
    return u_levels[ui], v_levels[vi]


def _kernel_points(u, v) -> tuple[float, list[int]]:
    """The statistic of u and v, and the point count of each cross sum it
    ran."""
    sizes = []
    kernel = discovery._cross_distance_sum

    def spy(x, *rest):
        sizes.append(x.size)
        return kernel(x, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(discovery, "_cross_distance_sum", spy)
        return independence_statistic(u, v), sizes


@settings(derandomize=True, max_examples=80, deadline=None)
@given(k=st.sampled_from(TIE_POINTS), m=st.integers(129, 2000),
       seed=st.integers(0, 2**32 - 1), swap=st.booleans())
def test_fast_statistic_on_tied_points_matches_dense(k, m, seed, swap):
    u, v = _tied_pair(k, m, np.random.default_rng(seed))
    if swap:
        u, v = v, u
    stat, sizes = _kernel_points(u, v)
    assert close(stat, dense_statistic(u, v))
    assert sizes == [k]


def test_fast_statistic_on_every_tie_family():
    # each distinct-point count at the smallest and largest sizes, so a
    # random draw cannot skip one
    rng = np.random.default_rng(27)
    for k in TIE_POINTS:
        for m in (max(k, 20), 2000):
            u, v = _tied_pair(k, m, rng)
            stat, sizes = _kernel_points(u, v)
            assert close(stat, dense_statistic(u, v))
            assert sizes == [k]


def test_fast_statistic_one_level_in_one_column():
    # K = 1 in one column: every point shares that column's level, so the
    # statistic is exactly 0 and the kernel never runs
    for m in (20, 2000):
        v = np.random.default_rng(m).normal(size=m)
        for u, w in ((np.full(m, 3.0), v), (v, np.full(m, -0.5))):
            stat, sizes = _kernel_points(u, w)
            assert stat == dense_statistic(u, w) == 0.0
            assert sizes == []


def test_column_constant_after_subsampling():
    # non-constant column whose strided subsample is constant
    n, max_points = 100, 25
    u = np.ones(n)
    u[np.linspace(0, n - 1, max_points).astype(int)] = 0.0
    v = np.random.default_rng(0).normal(size=n)
    assert u.std() > 0.0
    assert dense_statistic(u, v, max_points) == 0.0
    assert independence_statistic(u, v, max_points) == 0.0
    assert independence_statistic(v, u, max_points) == 0.0


def test_exact_product_design_near_zero():
    # every (u, v) level pair equally often: the empirical joint is the
    # product of its marginals, so the exact statistic is 0
    u, v = np.meshgrid(np.arange(4.0), np.array([0.0, 3.0, 7.0]))
    u, v = np.repeat(u.ravel(), 50), np.repeat(v.ravel(), 50)
    perm = np.random.default_rng(1).permutation(u.size)
    assert independence_statistic(u[perm], v[perm]) < 1e-6


def test_permutation_threshold_matches_dense():
    rng = np.random.default_rng(7)
    u = rng.integers(0, 6, size=600).astype(float)
    v = u + rng.exponential(size=600)
    null = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
    dense = float(np.quantile([dense_statistic(u, null.permutation(v))
                               for _ in range(49)], 0.9))
    fast = permutation_threshold(u, v, n_perm=49, quantile=0.9, seed=11)
    assert close(fast, dense)


# ---------------------------------------------------------------------------
# Blocked cross sum against the dyadic merge
# ---------------------------------------------------------------------------


def dyadic_cross_distance_sum(x: np.ndarray, y: np.ndarray) -> float:
    """sum_ij |x_i - x_j| |y_i - y_j| by a dominance sum gathered at every
    level of a bottom-up merge, from block size 1 up, on (4, m) channels."""
    m = x.size
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    rank = np.unique(ys, return_inverse=True)[1]
    f = np.stack([np.ones(m), xs, ys, xs * ys])
    below = np.zeros((4, m))
    pos = np.arange(m)
    size = 1
    while size < m:
        right = (pos // size) % 2 == 1
        pair = pos // (2 * size)
        left_keys = pair[~right] * m + rank[~right]
        left_order = np.argsort(left_keys, kind="stable")
        left_keys = left_keys[left_order]
        csum = np.zeros((4, left_keys.size + 1))
        np.cumsum(f[:, ~right][:, left_order], axis=1, out=csum[:, 1:])
        hi = np.searchsorted(left_keys, pair[right] * m + rank[right])
        lo = np.searchsorted(left_keys, pair[right] * m)
        below[:, right] += csum[:, hi] - csum[:, lo]
        size *= 2
    before = np.zeros((4, m))
    np.cumsum(f[:, :-1], axis=1, out=before[:, 1:])
    signed = 2.0 * below - before
    inner = xs * ys * signed[0] - xs * signed[2] - ys * signed[1] + signed[3]
    return 2.0 * float(inner.sum())


def _blocked_cross_sum(u: np.ndarray, v: np.ndarray,
                       weight: np.ndarray | None = None) -> float:
    """The kernel's weighted cross sum of the points (u_i, v_i), unit
    weights by default, in the x-sorted order it expects."""
    order = np.argsort(u, kind="stable")
    weight = np.ones(u.size) if weight is None else np.asarray(weight, dtype=float)
    rank = np.unique(v, return_inverse=True)[1]
    return discovery._cross_distance_sum(u[order], v[order], rank[order],
                                         weight[order])


# block edges of the dense within-block pass and of the first merge levels
CROSS_SIZES = (20, 63, 64, 65, 127, 128, 129, 1200, 1500, 1999, 2000)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(KINDS), m=st.sampled_from(CROSS_SIZES),
       seed=st.integers(0, 2**32 - 1), swap=st.booleans(),
       standardize=st.booleans())
def test_blocked_cross_sum_matches_dyadic(kind, m, seed, swap, standardize):
    u, v = _pair(kind, m, np.random.default_rng(seed))
    if swap:
        u, v = v, u
    if standardize:
        u, v = (u - u.mean()) / u.std(), (v - v.mean()) / v.std()
    ref = dyadic_cross_distance_sum(u, v)
    assert ref > 0.0
    assert abs(_blocked_cross_sum(u, v) - ref) <= 1e-12 * ref


def test_blocked_cross_sum_matches_dyadic_on_every_kind():
    # each input family at each block edge, so a random draw cannot skip one
    rng = np.random.default_rng(15)
    for kind in KINDS:
        for m in CROSS_SIZES:
            u, v = _pair(kind, m, rng)
            ref = dyadic_cross_distance_sum(u, v)
            assert abs(_blocked_cross_sum(u, v) - ref) <= 1e-12 * ref


@settings(derandomize=True, max_examples=80, deadline=None)
@given(kind=st.sampled_from(KINDS), k=st.sampled_from(CROSS_SIZES),
       seed=st.integers(0, 2**32 - 1), max_weight=st.sampled_from((1, 2, 5, 40)))
def test_weighted_cross_sum_matches_dyadic_on_expanded_rows(kind, k, seed,
                                                            max_weight):
    # the weight of a point is its count: the weighted sum over k points is
    # the plain sum over the rows they stand for
    rng = np.random.default_rng(seed)
    u, v = _pair(kind, k, rng)
    weight = rng.integers(1, max_weight + 1, size=k)
    ref = dyadic_cross_distance_sum(np.repeat(u, weight), np.repeat(v, weight))
    assert ref > 0.0
    assert abs(_blocked_cross_sum(u, v, weight) - ref) <= 1e-12 * ref


def test_weighted_cross_sum_matches_dyadic_on_every_kind():
    rng = np.random.default_rng(16)
    for kind in KINDS:
        for k in CROSS_SIZES:
            u, v = _pair(kind, k, rng)
            weight = rng.integers(1, 6, size=k)
            ref = dyadic_cross_distance_sum(np.repeat(u, weight),
                                            np.repeat(v, weight))
            assert abs(_blocked_cross_sum(u, v, weight) - ref) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# K^2 normality p-value against scipy
# ---------------------------------------------------------------------------


def _sample(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "exponential":
        return rng.exponential(size=n)
    if kind == "uniform":
        return rng.uniform(size=n)
    if kind == "t3":
        return rng.standard_t(3, size=n)
    if kind == "levels":
        return rng.integers(0, 3, size=n).astype(float)
    # a near-Gaussian residual: the sum of a few uniforms
    return rng.uniform(-1, 1, size=(n, 4)).sum(axis=1)


def normality_close(fast: float, ref: float) -> bool:
    # below 1e-300 subnormal rounding would dominate a relative gap; every
    # such p-value rejects normality all the same
    if ref < 1e-300:
        return fast < 1e-290
    return abs(fast - ref) <= 1e-12 * ref


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(("normal", "exponential", "uniform", "t3",
                             "levels", "sum")),
       n=st.integers(20, 200) | st.sampled_from((20, 1000, 10_000)),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3), shift=st.floats(-1e3, 1e3))
def test_normality_pvalue_matches_scipy(kind, n, seed, scale, shift):
    r = scale * _sample(kind, n, np.random.default_rng(seed)) + shift
    if r.std() == 0.0:
        return
    fast = discovery._normality_pvalue(r)
    assert normality_close(fast, float(scipy.stats.normaltest(r).pvalue))


def test_normality_pvalue_zero_skew_branch():
    # exactly symmetric samples have skewness 0, where scipy's skew z-score
    # substitutes 1 for the scaled skewness
    for r in (np.tile([-5.0, -1.0, 0.0, 1.0, 5.0], 4),
              np.repeat([-2.0, 2.0], 10),
              np.tile([-3.0, -1.0, 1.0, 3.0], 250)):
        assert scipy.stats.skew(r) == 0.0
        fast = discovery._normality_pvalue(r)
        assert normality_close(fast, float(scipy.stats.normaltest(r).pvalue))


def test_normality_pvalue_at_twenty_points():
    rng = np.random.default_rng(20)
    for kind in ("normal", "exponential", "uniform", "t3", "levels", "sum"):
        r = _sample(kind, 20, rng)
        fast = discovery._normality_pvalue(r)
        assert normality_close(fast, float(scipy.stats.normaltest(r).pvalue))
        assert math.isfinite(fast)


# ---------------------------------------------------------------------------
# Closed-form one-regressor OLS
# ---------------------------------------------------------------------------


def _ols(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regress y on columns of x plus intercept; return (coefs, residual)."""
    design = np.column_stack([np.ones(x.shape[0]), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef[1:], y - design @ coef


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(3, 3000), seed=st.integers(0, 2**32 - 1),
       ties=st.booleans())
def test_ols1_matches_lstsq(n, seed, ties):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=n).astype(float) if ties else rng.normal(size=n)
    y = rng.uniform(-2, 2) * x + rng.exponential(size=n) + rng.normal() * 50
    slope, resid = discovery._ols1(y, x)
    coefs, ref = _ols(y, x[:, None])
    if x.std() > 0:  # a constant x leaves the slope free
        assert abs(slope - coefs[0]) <= 1e-10 * max(1.0, abs(coefs[0]))
    np.testing.assert_allclose(resid, ref, rtol=0, atol=1e-9 * (1 + np.abs(y).max()))


def test_ols1_constant_regressor():
    y = np.arange(10.0)
    slope, resid = discovery._ols1(y, np.full(10, 3.0))
    assert slope == 0.0
    np.testing.assert_array_equal(resid, y - y.mean())


# ---------------------------------------------------------------------------
# Multivariate LiNGAM from the Gram matrix
# ---------------------------------------------------------------------------


def lingam_multivariate_full_columns(
        data: Dataset, max_points: int = _MAX_DCOR_POINTS) -> DiscoveryResult:
    """The former ``lingam_multivariate``, its body kept verbatim: every
    pairwise test builds a full-length residual column for the statistic to
    stride, and the edge fits are ``lstsq`` on the rows."""
    _integer_at_least("max_points", max_points, 20)
    cols = data.columns
    d = len(cols)
    n = data.rows.shape[0]
    if n < 100 * d:
        raise DiscoveryError(f"need at least {100 * d} samples for {d} columns")
    # fit on the columns scaled by powers of two, as lingam_bivariate does:
    # exact, so the order, scores and p-values are those of the raw columns,
    # with moments that neither overflow nor underflow; the coefficients are
    # scaled back exactly
    exps = {c: _binary_exponent(data.column(c)) for c in cols}

    def scaled(c: str) -> np.ndarray:
        return np.ldexp(data.column(c), -exps[c])

    work = {c: scaled(c) for c in cols}
    active = list(cols)
    order: list[str] = []
    exo_scores: dict[str, float] = {}
    while len(active) > 1:
        best, best_total = None, None
        for cand in active:
            total = 0.0
            for other in active:
                if other == cand:
                    continue
                _, resid = _ols1(work[other], work[cand])
                total += independence_statistic(work[cand], resid,
                                                max_points=max_points) ** 2
            if best_total is None or total < best_total:
                best, best_total = cand, total
        order.append(best)
        exo_scores[best] = float(best_total)
        active.remove(best)
        for other in active:
            _, resid = _ols1(work[other], work[best])
            work[other] = resid
    order.append(active[0])
    exo_scores[active[0]] = 0.0
    del work  # the residual columns, before the regressions below

    matrix = np.zeros((d, d))
    stds = {c: scaled(c).std() for c in cols}
    edges = []
    edge_scores: dict[str, float] = {}
    normality = {}
    for pos, node in enumerate(order):
        preds = order[:pos]
        yv = scaled(node)
        if preds:
            xv = np.column_stack([data.column(p) for p in preds])
            np.ldexp(xv, [-exps[p] for p in preds], out=xv)
            coefs, resid = _ols(yv, xv)
        else:
            coefs, resid = np.zeros(0), yv - yv.mean()
        if resid.std() > 0 and resid.size >= 20:
            normality[node] = _normality_pvalue(resid)
        for p, c in zip(preds, coefs):
            scale = stds[p] / stds[node] if stds[node] > 0 else 1.0
            standardized = abs(c) * scale
            if standardized >= _PRUNE_THRESHOLD:
                with np.errstate(over="ignore"):  # beyond the float range is inf
                    c = np.ldexp(c, exps[node] - exps[p])
                matrix[cols.index(node), cols.index(p)] = c
                edges.append((p, node))
                edge_scores[f"{p}->{node}"] = float(standardized)
    dag = Dag(cols, edges)
    near_gaussian = bool(normality) and all(p > _NORMALITY_ALPHA
                                              for p in normality.values())
    return DiscoveryResult(
        dag=dag, matrix=matrix, order=tuple(order), scores=edge_scores,
        metadata={
            "method": "direct-lingam",
            "statistic": "distance-correlation",
            "prune_threshold": _PRUNE_THRESHOLD,
            "max_points": max_points,
            "exogeneity_scores": exo_scores,
            "residual_normality_p": normality,
            "near_gaussian": near_gaussian,
            "seed": data.seed,
            "n": int(n),
        },
    )


def _assert_same_discovery(got, ref, normality: bool = True) -> None:
    assert got.order == ref.order
    assert got.dag.edges == ref.dag.edges
    np.testing.assert_allclose(got.matrix, ref.matrix, rtol=1e-9, atol=0.0)
    assert got.scores.keys() == ref.scores.keys()
    assert got.scores == pytest.approx(ref.scores, rel=1e-9, abs=0.0)
    keys = ("exogeneity_scores", "residual_normality_p") if normality \
        else ("exogeneity_scores",)
    if normality:
        assert got.metadata["near_gaussian"] == ref.metadata["near_gaussian"]
    for key in keys:
        assert got.metadata[key].keys() == ref.metadata[key].keys()
        assert got.metadata[key] == pytest.approx(ref.metadata[key], rel=1e-9, abs=0.0)


CHAINS = {
    "urn_chain": lambda n: urn_chain(n=n, k0=(1000,) * n, rounds=1),
    "bundles_chain": lambda n: bundles_chain(n=n, rounds=1),
    "urn_chain_default": lambda n: urn_chain(n=n),
}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(chain=st.sampled_from(sorted(CHAINS)), n=st.integers(2, 5),
       size=st.sampled_from([(3000, 600), (10_000, 2000), (100_000, 1200)]),
       seed=st.integers(0, 2**32 - 1))
def test_gram_lingam_matches_full_columns(chain, n, size, seed):
    rows, max_points = size
    data = CHAINS[chain](n).sample(rows, seed)
    _assert_same_discovery(lingam_multivariate(data, max_points=max_points),
                           lingam_multivariate_full_columns(data, max_points=max_points))


def _with_column(data: Dataset, pos: int, name: str, column: np.ndarray) -> Dataset:
    cols = list(data.columns)
    cols.insert(pos, name)
    return Dataset(tuple(cols), np.insert(data.rows, pos, column, axis=1), data.seed)


@pytest.fixture(scope="module")
def chain3():
    return bundles_chain(n=3, rounds=1).sample(3000, 5)


# A rank-deficient Gram block is fitted by lstsq: a solve on it would raise.
# The residual of a duplicated column is exactly 0 on the Gram path and
# rounding noise on the rows, so normality p-values are left out there.
@pytest.mark.parametrize("value", [7.0, 0.1, 0.0, -3.3e5])
@pytest.mark.parametrize("pos", [0, 3])
def test_gram_lingam_constant_column(chain3, value, pos):
    data = _with_column(chain3, pos, "C", np.full(3000, value))
    got = lingam_multivariate(data, max_points=600)
    _assert_same_discovery(got, lingam_multivariate_full_columns(data, max_points=600))
    assert got.order[0] == "C" and all("C" not in e for e in got.dag.edges)


@pytest.mark.parametrize("source", [0, 1, 2])
@pytest.mark.parametrize("pos", [0, 3])
def test_gram_lingam_duplicate_column(chain3, source, pos):
    data = _with_column(chain3, pos, "D", chain3.rows[:, source])
    _assert_same_discovery(lingam_multivariate(data, max_points=600),
                           lingam_multivariate_full_columns(data, max_points=600),
                           normality=False)


def test_gram_lingam_skips_rounding_noise_residual(chain3):
    # D repeats K2, so its edge fit on the predecessors is exact and leaves
    # a residual of rounding noise (about 1e-16), whose K^2 p-value (4.65e-57
    # here before) means nothing; it is left out as a constant one is
    data = _with_column(chain3, 3, "D", chain3.column("K2"))
    got = lingam_multivariate(data, max_points=600)
    assert got.order[-1] == "D"
    assert set(got.metadata["residual_normality_p"]) == {"K1", "K2", "K3"}
    ref = lingam_multivariate(chain3, max_points=600)
    for node in ("K1", "K2", "K3"):
        assert got.metadata["residual_normality_p"][node] == pytest.approx(
            ref.metadata["residual_normality_p"][node], rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# Context-weighted shifts from cell counts
# ---------------------------------------------------------------------------


def dataset_joint_rowwise(rows: np.ndarray, level_maps: list[dict]) -> DiscreteJoint:
    """The row-by-row builder: each value mapped to its level through a dict."""
    shape = tuple(len(m) for m in level_maps)
    counts = np.zeros(shape)
    idx = np.column_stack([
        np.asarray([m[v] for v in rows[:, k]]) for k, m in enumerate(level_maps)
    ])
    np.add.at(counts, tuple(idx.T), 1.0)
    return DiscreteJoint([f"c{k}" for k in range(len(level_maps))],
                         counts / counts.sum())


def weighted_shift_by_context(env: DiscreteJoint, pooled: DiscreteJoint, g,
                              node: str) -> float:
    """sum_c q_e(c) TV(q_e(node | c), pooled(node | c)), one parent context
    at a time, from the two joints' conditionals."""
    pa = g.parents(node)
    own = tables.conditional(env, node, pa)
    ref = tables.conditional(pooled, node, pa)
    context = env.marginal((*pa, node)).permute((*pa, node)).probs.sum(axis=-1)
    total = 0.0
    for c in np.ndindex(*context.shape):
        if own.defined[c]:
            total += context[c] * 0.5 * np.abs(own.table[c] - ref.table[c]).sum()
    return total


def dense_weighted_shifts(counts: np.ndarray, columns: tuple[str, ...],
                          g) -> dict[str, np.ndarray]:
    """The dense-grid score the occupied-cell one replaced: per node v, one
    shift per environment of the stacked cell counts ``counts`` (E, *shape),
    1/2 sum_{c,x} |n_e(c, x) - n_e(c) n(c, x) / n(c)| / n_e over the whole
    level grid."""
    cell_axes = tuple(range(1, counts.ndim))
    size = counts.sum(axis=cell_axes)
    out = {}
    for v in g.nodes:
        kept = {1 + columns.index(u) for u in (v, *g.parents(v))}
        joint = counts.sum(axis=tuple(k for k in cell_axes if k not in kept),
                           keepdims=True)
        context = joint.sum(axis=1 + columns.index(v), keepdims=True)
        pooled = joint.sum(axis=0)
        expected = context * (pooled / np.maximum(context.sum(axis=0), 1))
        out[v] = 0.5 * np.abs(joint - expected).sum(axis=cell_axes) / size
    return out


def both_shifts(parts: list[np.ndarray], columns: tuple[str, ...], g):
    """The occupied-cell shifts and the dense-grid ones of the row blocks
    ``parts``, one per environment, coded as localization codes them."""
    rows = np.vstack(parts)
    _, cells, shape = tables._cells(rows.T)
    occupied, cell = np.unique(cells, return_inverse=True)
    env = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    counts = np.bincount(env * occupied.size + cell,
                         minlength=len(parts) * occupied.size).reshape(len(parts), -1)
    index = discovery._shift_index(occupied, shape, columns, g, len(parts))
    dense = np.stack([np.bincount(part, minlength=math.prod(shape)).reshape(shape)
                      for part in np.split(cells, np.cumsum([len(p) for p in parts])[:-1])])
    return (discovery._weighted_shifts(counts, index),
            dense_weighted_shifts(dense, columns, g))


def assert_match_dense(fast: dict, dense: dict) -> None:
    """Equal up to the order of summation: each cell's term is the same
    float, so the sums agree to within a few ulps."""
    assert set(fast) == set(dense)
    for v in dense:
        assert fast[v].shape == dense[v].shape
        assert (np.abs(fast[v] - dense[v]) <= 1e-15 * np.abs(dense[v])).all(), v


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(1, 4), n_env=st.integers(2, 3), n=st.integers(1, 200),
       levels=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_weighted_shifts_match_context_loop(d, n_env, n, levels, seed):
    # few rows over up to 5^4 cells leave cells empty, and a level can
    # appear in one environment only
    rng = np.random.default_rng(seed)
    columns = tuple(f"c{k}" for k in range(d))
    g = random_dag(columns, rng)
    parts = [rng.integers(0, levels, size=(int(rng.integers(1, n + 1)), d)).astype(float)
             for _ in range(n_env)]
    rows = np.vstack(parts)
    level_maps = [{v: i for i, v in enumerate(np.unique(rows[:, k]))}
                  for k in range(d)]
    fast, dense = both_shifts(parts, columns, g)
    assert_match_dense(fast, dense)
    pooled = dataset_joint_rowwise(rows, level_maps)
    for e, part in enumerate(parts):
        env = dataset_joint_rowwise(part, level_maps)
        for v in columns:
            assert fast[v].shape == (n_env,)
            assert abs(fast[v][e] - weighted_shift_by_context(env, pooled, g, v)) <= 1e-12


def _chain_pair(shifted: int | None, seed: int):
    coins = [0.5] * 8
    if shifted:
        coins[2 * shifted - 2:2 * shifted] = (0.8, 0.2)
    base = urn_chain(n=4, k0=(30,) * 4, rounds=3, coin_biases=(0.5,) * 8)
    other = urn_chain(n=4, k0=(30,) * 4, rounds=3, coin_biases=tuple(coins))
    return [base.sample(10_000, seed), other.sample(10_000, seed + 1)], base.ground_truth


@pytest.mark.parametrize("shifted", [None, 1, 2, 3, 4])
@pytest.mark.parametrize("seed", [11, 44])
def test_weighted_shifts_match_dense_on_the_chain(shifted, seed):
    # 20,000 rows over a level grid of about 30,000 cells, 1,500 occupied
    envs, g = _chain_pair(shifted, seed)
    assert_match_dense(*both_shifts([e.rows for e in envs], envs[0].columns, g))


# ---------------------------------------------------------------------------
# The null's relabelings: sequential hypergeometric splits
# ---------------------------------------------------------------------------


def split_probability(pooled: tuple[int, ...], split: np.ndarray) -> Fraction:
    """The sequential rule's probability of the split ``split`` (E, K) of
    the pooled counts: the product over e < E - 1 of the multivariate
    hypergeometric pmf of row e given the cells not yet placed."""
    left = list(pooled)
    prob = Fraction(1)
    for row in split[:-1]:
        ways = math.prod(math.comb(n, x) for n, x in zip(left, row))
        prob *= Fraction(ways, math.comb(sum(left), int(row.sum())))
        left = [n - int(x) for n, x in zip(left, row)]
    assert left == list(split[-1])
    return prob


def label_shares(pooled: tuple[int, ...], sizes: tuple[int, ...]) -> dict:
    """Each split's share of all assignments of ``sizes[e]`` of the pooled
    rows to environment e, every assignment counted once."""
    cell = np.repeat(np.arange(len(pooled)), pooled)
    shares = Counter()

    def assign(free: tuple[int, ...], e: int, labels: np.ndarray) -> None:
        if e == len(sizes) - 1:
            labels[list(free)] = e
            split = np.zeros((len(sizes), len(pooled)), dtype=np.int64)
            np.add.at(split, (labels, cell), 1)
            shares[split.tobytes()] += 1
            return
        for chosen in itertools.combinations(free, sizes[e]):
            labels[list(chosen)] = e
            assign(tuple(i for i in free if i not in chosen), e + 1, labels)

    assign(tuple(range(cell.size)), 0, np.zeros(cell.size, dtype=np.int64))
    total = sum(shares.values())
    return {key: Fraction(n, total) for key, n in shares.items()}


@st.composite
def pooled_tables(draw):
    pooled = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)
                        .filter(lambda c: 2 <= sum(c) <= 8)))
    n_env = draw(st.integers(2, min(3, sum(pooled))))
    cuts = sorted(draw(st.lists(st.integers(1, sum(pooled) - 1), min_size=n_env - 1,
                                max_size=n_env - 1, unique=True)))
    sizes = tuple(np.diff([0, *cuts, sum(pooled)]).tolist())
    return pooled, sizes


@settings(derandomize=True, max_examples=60, deadline=None)
@given(table=pooled_tables())
def test_sequential_split_is_equal_in_law_to_label_permutation(table):
    pooled, sizes = table
    shares = label_shares(pooled, sizes)
    for key, share in shares.items():
        split = np.frombuffer(key, dtype=np.int64).reshape(len(sizes), len(pooled))
        assert split_probability(pooled, split) == share
    # the rule puts no mass outside the splits some assignment gives
    assert sum(shares.values()) == 1


@pytest.mark.parametrize("sizes", [(3, 5), (2, 3, 3)])
def test_seeded_splits_follow_the_hypergeometric_law(sizes):
    pooled = np.array([3, 1, 2, 2])
    rng = _philox(0)
    drawn = Counter(discovery._relabel(pooled, sizes, rng).tobytes() for _ in range(20_000))
    shares = label_shares(tuple(pooled.tolist()), sizes)
    assert set(drawn) <= set(shares)
    for key, share in shares.items():
        assert abs(drawn[key] / 20_000 - float(share)) <= 0.01


class _SplitSpy:
    """A generator that counts its hypergeometric splits and refuses to
    permute."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.splits = 0

    def multivariate_hypergeometric(self, *args, **kwargs):
        self.splits += 1
        return self.rng.multivariate_hypergeometric(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        raise AssertionError("the null permuted rows")


@pytest.mark.parametrize("n_env", [2, 3])
def test_null_draws_one_split_per_environment_but_the_last(n_env, monkeypatch):
    spies = []

    def spy(seed):
        spies.append(_SplitSpy(_philox(seed)))
        return spies[-1]

    monkeypatch.setattr(discovery, "_philox", spy)
    ex = urn_chain(n=3, k0=(20,) * 3, rounds=2)
    envs = [ex.sample(300, seed) for seed in range(n_env)]
    discovery.localize_mechanism_change(envs, ex.ground_truth, n_perm=17, seed=4)
    assert len(spies) == 1 and spies[0].splits == 17 * (n_env - 1)
