"""Statistical structure recovery for linear non-Gaussian data.

Direction decisions follow the regression-residual independence principle:
in the true direction the residual is independent of the regressor, in the
reversed direction it is not (unless the noise is Gaussian). Independence
is measured by distance correlation on standardized values, computed
exactly over the K distinct points of the sample, each weighted by its
count, from row sums per level and a blocked merge-style cross sum in
O(K·64 + K log^2(K/64)), never as an m x m matrix; thresholds, when
needed, come from a permutation null. One-regressor fits are closed-form
covariances, and residual normality is the D'Agostino-Pearson K^2 test
computed from one pass of central moments.
Multivariate recovery is a DirectLiNGAM-style ordering (iteratively extract
the most exogenous variable, regress it out, recurse) followed by
coefficient pruning, with a least-squares fit on all predecessors, all from
one Gram matrix of the centred columns and their strided points.

Mechanism-shift localization scores a node, per environment, by the total
variation between the environment's conditional and the pooled one in each
parent context, weighted by the context's frequency in the environment
(after the per-context invariance tests of CD-NOD, Huang et al., JMLR 21,
2020, and ICP, Peters, Buhlmann & Meinshausen, JRSS-B 78, 2016). The score
is a closed form over the counts of the occupied cells, two weighted
``bincount``s per node, for the observed split and every draw of the null.
A null draw relabels the pooled rows by one multivariate hypergeometric
split of those counts per environment, equal in law to a permutation of
the environment labels, with nothing of the rows' number or the level
grid's size in it. On exact joint inputs it is the exact factor distance
instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import Dag
from .scm import Dataset, _philox
from .tables import DiscreteJoint, _cells, factor_distance

__all__ = [
    "DiscoveryError",
    "independence_statistic",
    "permutation_threshold",
    "BivariateResult",
    "lingam_bivariate",
    "DiscoveryResult",
    "lingam_multivariate",
    "LocalizationResult",
    "localize_mechanism_change",
]

_MAX_DCOR_POINTS = 2000
# the distance-correlation cross sum counts pairs inside each run of this
# many consecutive x-sorted points densely, and the rest level by level
_BLOCK = 64
_STRICTLY_LOWER = np.tri(_BLOCK, k=-1, dtype=bool)
# residuals whose normality-test p-value exceeds this count as Gaussian
_NORMALITY_ALPHA = 0.05
# a residual whose std is at most this fraction of its column's is an exact
# fit up to rounding
_TINY_RESIDUAL = 1e-12
# standardized coefficients below this are pruned from a recovered DAG
_PRUNE_THRESHOLD = 0.05
# a calibrated shift threshold is this quantile of the permutation null,
# Bonferroni-adjusted over the nodes
_NULL_QUANTILE = 0.95
# a calibrated shift threshold never falls below this shift
_MIN_EFFECT = 0.02


class DiscoveryError(ValueError):
    """Invalid discovery request (too few samples, bad columns)."""


# ---------------------------------------------------------------------------
# Independence statistic
# ---------------------------------------------------------------------------


def _subsample(u: np.ndarray, max_points: int) -> np.ndarray:
    if u.shape[0] <= max_points:
        return u
    idx = np.linspace(0, u.shape[0] - 1, max_points).astype(int)
    return u[idx]


def _distance_row_sums(levels: np.ndarray, count: np.ndarray) -> np.ndarray:
    """a_k = sum_j c_j |x_k - x_j| at every level x_k, from the sorted
    distinct levels and their counts c.

    With N_k and C_k the inclusive prefix sums of c and of c x, and m and T
    their totals, a_k = (2 N_k - m) x_k + T - 2 C_k.
    """
    n = np.cumsum(count)
    c = np.cumsum(count * levels)
    return (2.0 * n - n[-1]) * levels + (c[-1] - 2.0 * c)


def _cross_distance_sum(x: np.ndarray, y: np.ndarray, y_rank: np.ndarray,
                        weight: np.ndarray) -> float:
    """sum_ij c_i c_j |x_i - x_j| |y_i - y_j| over K weighted points in
    O(K B + K log^2(K / B)) steps.

    The points come sorted by x (ties in any order), ``y_rank`` ranks y
    among its distinct values and ``weight`` holds each point's count c.

    In x-sorted order every pair j < i has |x_i - x_j| = x_i - x_j, so the
    sum is twice sum_i c_i sum_{j<i} c_j (x_i - x_j) s_ij (y_i - y_j), with
    s_ij = +1 if y_j < y_i and -1 otherwise (equal y contribute zero). With
    Q_i(f) = sum_{j<i} f_j and L_i(f) the same sum over y_j < y_i, each
    inner sum expands over f in c (1, x, y, xy) into 2 L_i(f) - Q_i(f), and
    the total is sum_i w_i . (2 L_i - Q_i) with w_i = c_i (x_i y_i, -y_i,
    -x_i, 1). Q is a prefix sum. L is a dominance sum, split by where j
    falls: within i's block of ``_BLOCK`` consecutive points it is one
    masked product per block; otherwise it is gathered level by level of a
    bottom-up merge from block size ``_BLOCK`` up, where each element of a
    right block collects the left sibling's elements whose y rank is below
    its own.
    """
    m = x.size
    nb = -(-m // _BLOCK)
    # rows past m pad the last block; they follow every real point, so the
    # strictly lower mask never counts them
    f = np.zeros((nb * _BLOCK, 4))
    f[:m, 0] = weight
    f[:m, 1] = weight * x
    f[:m, 2] = weight * y
    f[:m, 3] = f[:m, 1] * y
    rb = np.zeros(nb * _BLOCK, dtype=y_rank.dtype)
    rb[:m] = y_rank
    rb = rb.reshape(nb, _BLOCK)
    mask = (rb[:, None, :] < rb[:, :, None]) & _STRICTLY_LOWER
    below = (mask.astype(float) @ f.reshape(nb, _BLOCK, 4)).reshape(-1, 4)[:m]
    f = f[:m]
    w = f[:, ::-1] * np.array([1.0, -1.0, -1.0, 1.0])
    before = np.zeros((m, 4))
    np.cumsum(f[:-1], axis=0, out=before[1:])
    total = 2.0 * np.vdot(w, below) - np.vdot(w, before)
    pos = np.arange(m)
    size = _BLOCK
    while size < m:
        side = pos & size
        right = np.flatnonzero(side)
        left = np.flatnonzero(side == 0)
        shift = size.bit_length()   # pos >> shift is the pair of siblings
        keys = (left >> shift) * m + y_rank.take(left)
        by_key = np.argsort(keys, kind="stable")
        csum = np.zeros((left.size + 1, 4))
        np.cumsum(f.take(left.take(by_key), axis=0), axis=0, out=csum[1:])
        # every left block before the last pair's is full, so the pair's
        # left elements start at pair * size in key order
        hi = np.searchsorted(keys.take(by_key),
                             (right >> shift) * m + y_rank.take(right))
        lo = (right >> shift) * size
        total += 2.0 * np.vdot(w.take(right, axis=0),
                               csum.take(hi, axis=0) - csum.take(lo, axis=0))
        size *= 2
    return 2.0 * float(total)


def _dcov2(m: float, cross: float, rows: float, total: float) -> float:
    """V-statistic dCov^2 = S1/m^2 - 2 S2/m^3 + S3/m^4 over m points, from
    the cross sum S1, S2 = sum_i a_i b_i of the row sums and their total
    product S3 = sum_i a_i sum_i b_i."""
    return cross / m**2 - 2.0 * rows / m**3 + total / m**4


def _dvar(levels: np.ndarray, count: np.ndarray, a: np.ndarray) -> float:
    """dCov^2(x, x) from x's levels, their counts and row sums; its
    S1 = sum_ij (x_i - x_j)^2 is in closed form."""
    m = float(count.sum())
    d = levels - float(count @ levels) / m
    cd = count * d
    a_total = float(count @ a)
    return _dcov2(m, 2.0 * m * float(cd @ d) - 2.0 * float(cd.sum()) ** 2,
                  float(count @ (a * a)), a_total * a_total)


def _integer_at_least(name: str, value: int, least: int) -> int:
    """``value`` as an int; a non-integer (numpy integers pass) or a value
    below ``least`` is refused with a DiscoveryError naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DiscoveryError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise DiscoveryError(f"{name} must be at least {least}, got {value}")
    return count


def _binary_exponent(u: np.ndarray) -> int:
    """The power of two whose inverse brings u's largest magnitude into
    [0.5, 1)."""
    return int(np.frexp(np.abs(u).max())[1])


def _binary_normalized(u: np.ndarray) -> np.ndarray:
    """u times the power of two that brings its largest magnitude into
    [0.5, 1). The scaling is exact, so standardizing the result gives the
    same values as standardizing u, without overflow or underflow in the
    moments of very large or very small columns."""
    return np.ldexp(u, -_binary_exponent(u))


def independence_statistic(u: np.ndarray, v: np.ndarray,
                           max_points: int = _MAX_DCOR_POINTS) -> float:
    """Distance correlation between two finite columns, in [0, 1].

    Zero iff the (sub)sample is empirically independent under the distance
    covariance functional. Columns are standardized first, so the statistic
    is invariant under affine rescaling at any magnitude; constant columns
    yield 0. Long columns are strided down to ``max_points`` (at least 20).
    The V-statistic over these m points is computed exactly over their K
    distinct (u, v) pairs, each weighted by its count, in O(m log m) for
    the sorts plus O(K·64 + K log^2(K/64)) for row sums per level and a
    blocked merge-style cross sum (after Huo & Szekely, Technometrics
    58(4), 2016), with no m x m matrix. Count data has K far below m; a
    tie-free sample has K = m, all weights 1.
    """
    max_points = _integer_at_least("max_points", max_points, 20)
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if u.shape != v.shape:
        raise DiscoveryError("columns must have equal length")
    if u.size < 20:
        raise DiscoveryError("need at least 20 points")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DiscoveryError("columns must be finite")
    u, v = _binary_normalized(u), _binary_normalized(v)
    su, sv = u.std(), v.std()
    if su == 0.0 or sv == 0.0:
        return 0.0
    # stride first: each kept point is standardized by the full column's
    # moments, exactly as if the whole column had been
    u = (_subsample(u, max_points) - u.mean()) / su
    v = (_subsample(v, max_points) - v.mean()) / sv
    if u.min() == u.max() or v.min() == v.max():
        # exactly 0 by definition; the closed forms below would leave noise
        return 0.0
    # the sums run over the K distinct (u, v) points, each weighted by its
    # count: count data has few levels, and a tie-free sample is all ones
    u_levels, u_level, u_count = np.unique(u, return_inverse=True,
                                           return_counts=True)
    v_levels, v_level, v_count = np.unique(v, return_inverse=True,
                                           return_counts=True)
    # sorted pair codes order the points by u level, then v level
    codes, weight = np.unique(u_level * v_levels.size + v_level,
                              return_counts=True)
    x_level, y_level = np.divmod(codes, v_levels.size)
    a = _distance_row_sums(u_levels, u_count)
    b = _distance_row_sums(v_levels, v_count)
    cross = _cross_distance_sum(u_levels[x_level], v_levels[y_level], y_level,
                                weight)
    dcov2 = _dcov2(float(u.size), cross, float(weight @ (a[x_level] * b[y_level])),
                   float(u_count @ a) * float(v_count @ b))
    denom = np.sqrt(_dvar(u_levels, u_count, a) * _dvar(v_levels, v_count, b))
    if denom <= 0.0:
        return 0.0
    return float(np.sqrt(max(dcov2, 0.0) / denom))


def permutation_threshold(u: np.ndarray, v: np.ndarray, n_perm: int = 199,
                          quantile: float = 0.95, seed: int = 0,
                          max_points: int = _MAX_DCOR_POINTS) -> float:
    """Null quantile of the statistic under random pairing of u and v."""
    n_perm = _integer_at_least("n_perm", n_perm, 1)
    rng = _philox(seed)
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    stats = [
        independence_statistic(u, rng.permutation(v), max_points=max_points)
        for _ in range(n_perm)
    ]
    return float(np.quantile(stats, quantile))


# ---------------------------------------------------------------------------
# Bivariate LiNGAM
# ---------------------------------------------------------------------------


def _ols1(y: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Regress y on one column x plus intercept; return (slope, residual).

    Closed form slope = cov(x, y) / var(x). A constant x gets slope 0; any
    slope fits it equally well, and the residual is y - mean(y) either way.
    """
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ yc) / sxx if sxx > 0.0 else 0.0
    return slope, yc - slope * xc


def _normality_pvalue(r: np.ndarray) -> float:
    """D'Agostino-Pearson K^2 normality test p-value of a non-constant
    sample of at least 20 values.

    K^2 = Z_s^2 + Z_k^2 combines the skewness z-score (D'Agostino 1970) and
    the kurtosis z-score (Anscombe & Glynn 1983), both from the biased
    central moments, with the same formulas as ``scipy.stats.skewtest``
    and ``kurtosistest``; under normality K^2 is chi-squared with 2 degrees
    of freedom, whose survival function is exp(-K^2 / 2)
    (D'Agostino & Pearson, Biometrika 60, 1973).
    """
    n = float(r.size)
    d = r - r.mean()
    d2 = d * d
    m2 = d2.mean()
    skew = (d2 * d).mean() / m2**1.5
    kurt = (d2 * d2).mean() / m2**2
    # skewness z-score
    y = skew * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3)
             / ((n - 2) * (n + 5) * (n + 7) * (n + 9)))
    w2 = -1 + math.sqrt(2 * (beta2 - 1))
    delta = 1 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1))
    y = (y if y != 0.0 else 1.0) / alpha   # scipy's substitution at y = 0
    z_skew = delta * math.log(y + math.sqrt(y * y + 1))
    # kurtosis z-score
    mean_b2 = 3.0 * (n - 1) / (n + 1)
    var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    x = (kurt - mean_b2) / math.sqrt(var_b2)
    sqrt_beta1 = (6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
                  * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3))))
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1
                                  + math.sqrt(1 + 4.0 / sqrt_beta1**2))
    denom = 1 + x * math.sqrt(2 / (a - 4.0))
    cube = math.copysign(abs((1 - 2.0 / a) / denom) ** (1 / 3), denom)
    z_kurt = (1 - 2 / (9.0 * a) - cube) / math.sqrt(2 / (9.0 * a))
    return math.exp(-0.5 * (z_skew * z_skew + z_kurt * z_kurt))


@dataclass(frozen=True)
class BivariateResult:
    direction: str            # "x->y", "y->x", "undetermined", "degenerate"
    x: str
    y: str
    slope: float              # fitted slope of the winning direction
    confidence: float         # gap between the two dependence statistics
    diagnostics: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"direction": self.direction, "x": self.x, "y": self.y,
                "slope": self.slope, "confidence": self.confidence,
                "diagnostics": self.diagnostics}


def lingam_bivariate(data: Dataset,
                     max_points: int = _MAX_DCOR_POINTS) -> BivariateResult:
    """Decide between x -> y and y -> x for a linear non-Gaussian pair, x and
    y the first two columns of ``data``.

    Both regressions are fitted; the winning direction is the one whose
    residual is more independent of its regressor. Near-Gaussian pairs
    (both residuals pass a normality test at ``_NORMALITY_ALPHA``) are
    reported as undetermined; an exact functional fit is reported as
    degenerate.
    """
    max_points = _integer_at_least("max_points", max_points, 20)
    if len(data.columns) < 2:
        raise DiscoveryError("need at least two columns")
    x, y = data.columns[:2]
    u = data.column(x)
    v = data.column(y)
    if u.size < 100:
        raise DiscoveryError("need at least 100 samples")
    # fit on the columns scaled by powers of two: exact, so the statistics
    # and p-values are those of u and v, with moments that neither overflow
    # nor underflow; the slopes are scaled back exactly
    eu, ev = _binary_exponent(u), _binary_exponent(v)
    u, v = np.ldexp(u, -eu), np.ldexp(v, -ev)
    if u.std() == 0.0 or v.std() == 0.0:
        return BivariateResult("degenerate", x, y, 0.0, 0.0,
                               {"reason": "constant column"})
    slope_xy, resid_xy = _ols1(v, u)   # y on x
    slope_yx, resid_yx = _ols1(u, v)   # x on y
    with np.errstate(over="ignore"):   # a slope beyond the float range is inf
        slope_xy = float(np.ldexp(slope_xy, ev - eu))
        slope_yx = float(np.ldexp(slope_yx, eu - ev))
    if (resid_xy.std() <= _TINY_RESIDUAL * v.std()
            or resid_yx.std() <= _TINY_RESIDUAL * u.std()):
        return BivariateResult(
            "degenerate", x, y, slope_xy, 0.0,
            {"reason": "zero-noise functional relation"})
    stat_xy = independence_statistic(u, resid_xy, max_points=max_points)
    stat_yx = independence_statistic(v, resid_yx, max_points=max_points)
    p_norm_xy = _normality_pvalue(resid_xy)
    p_norm_yx = _normality_pvalue(resid_yx)
    diagnostics = {
        "stat_x_to_y": stat_xy, "stat_y_to_x": stat_yx,
        "normality_p_forward": p_norm_xy, "normality_p_backward": p_norm_yx,
        "n": int(u.size),
    }
    if p_norm_xy > _NORMALITY_ALPHA and p_norm_yx > _NORMALITY_ALPHA:
        return BivariateResult("undetermined", x, y, slope_xy,
                               abs(stat_xy - stat_yx), diagnostics)
    if stat_xy <= stat_yx:
        return BivariateResult("x->y", x, y, slope_xy,
                               stat_yx - stat_xy, diagnostics)
    return BivariateResult("y->x", x, y, slope_yx,
                           stat_xy - stat_yx, diagnostics)


# ---------------------------------------------------------------------------
# Multivariate DirectLiNGAM
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscoveryResult:
    dag: Dag
    matrix: np.ndarray        # [j, i] = coefficient of column i in equation j
    order: tuple[str, ...]    # estimated causal order, sources first
    scores: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "dag": self.dag.to_json_obj(),
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "order": list(self.order),
            "scores": self.scores,
            "metadata": self.metadata,
        }


def lingam_multivariate(data: Dataset,
                        max_points: int = _MAX_DCOR_POINTS) -> DiscoveryResult:
    """DirectLiNGAM-style recovery of a linear non-Gaussian DAG.

    Repeatedly picks the variable whose pairwise regression residuals are
    most independent of it, regresses it out of the rest, and recurses.
    Edges are then estimated by regressing each variable on all its
    predecessors and pruning standardized coefficients below
    ``_PRUNE_THRESHOLD``. The fit is flagged near-Gaussian when every
    residual passes a normality test at ``_NORMALITY_ALPHA``; a residual
    whose std is at most ``_TINY_RESIDUAL`` times its column's is an exact
    fit up to rounding and is left untested, as a constant one is.

    The n rows are read in one O(n·d^2) pass: a centred copy of the data
    and its Gram matrix. Every working column is then a coefficient vector
    over that copy, so a pairwise slope is a quadratic form in the Gram
    matrix, a residual is formed only at the ``max_points`` strided points
    the statistic reads (distance correlation is affine invariant, so the
    statistic is that of the full residual column), and regressing a node
    out updates vectors: a pairwise test costs O(max_points·d) besides the
    statistic, whatever n. The edge fits are least squares on blocks of the
    Gram matrix. The only full-length work left is one residual per node,
    one at a time, for its normality test.
    """
    max_points = _integer_at_least("max_points", max_points, 20)
    cols = data.columns
    d = len(cols)
    n = data.rows.shape[0]
    if n < 100 * d:
        raise DiscoveryError(f"need at least {100 * d} samples for {d} columns")
    # fit on the columns scaled by powers of two, as lingam_bivariate does:
    # exact, so the order, scores and p-values are those of the raw columns,
    # with moments that neither overflow nor underflow; the coefficients are
    # scaled back exactly
    exps = [_binary_exponent(data.rows[:, k]) for k in range(d)]
    xc = np.ldexp(data.rows, [-e for e in exps])
    xc -= xc.mean(axis=0)
    gram = xc.T @ xc
    points = _subsample(xc, max_points)

    def residual(bx: np.ndarray, by: np.ndarray) -> np.ndarray:
        """The coefficients of _ols1's residual of xc @ by on xc @ bx."""
        sxx = float(bx @ gram @ bx)
        return by - (float(bx @ gram @ by) / sxx if sxx > 0.0 else 0.0) * bx

    work = dict(zip(cols, np.eye(d)))   # working column c is xc @ work[c]
    active = list(cols)
    order: list[str] = []
    exo_scores: dict[str, float] = {}
    while len(active) > 1:
        best, best_total = None, None
        for cand in active:
            bx = work[cand]
            u = points @ bx
            total = 0.0
            for other in active:
                if other == cand:
                    continue
                resid = points @ residual(bx, work[other])
                total += independence_statistic(u, resid,
                                                max_points=max_points) ** 2
            if best_total is None or total < best_total:
                best, best_total = cand, total
        order.append(best)
        exo_scores[best] = float(best_total)
        active.remove(best)
        for other in active:
            work[other] = residual(work[best], work[other])
    order.append(active[0])
    exo_scores[active[0]] = 0.0

    matrix = np.zeros((d, d))
    stds = np.sqrt(np.diag(gram) / n)
    edges = []
    edge_scores: dict[str, float] = {}
    normality = {}
    for pos, node in enumerate(order):
        j = cols.index(node)
        preds = [cols.index(p) for p in order[:pos]]
        # lstsq, not solve: a constant or duplicated predecessor makes the
        # Gram block singular, and lstsq gives the minimum-norm fit, as on
        # the rows
        coefs = np.linalg.lstsq(gram[np.ix_(preds, preds)], gram[preds, j],
                                rcond=None)[0]
        w = np.zeros(d)
        w[j] = 1.0
        w[preds] = -coefs
        resid = xc @ w
        # an exact fit leaves only rounding noise, whose p-value means nothing
        if resid.std() > _TINY_RESIDUAL * stds[j]:
            normality[node] = _normality_pvalue(resid)
        for k, c in zip(preds, coefs):
            scale = stds[k] / stds[j] if stds[j] > 0 else 1.0
            standardized = abs(c) * scale
            if standardized >= _PRUNE_THRESHOLD:
                with np.errstate(over="ignore"):  # beyond the float range is inf
                    matrix[j, k] = np.ldexp(c, exps[j] - exps[k])
                edges.append((cols[k], node))
                edge_scores[f"{cols[k]}->{node}"] = float(standardized)
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


# ---------------------------------------------------------------------------
# Mechanism-shift localization across environments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalizationResult:
    changed: tuple[str, ...]
    distances: dict

    def to_json_obj(self) -> dict:
        return {"changed": list(self.changed), "distances": self.distances}


def _shift_index(occupied: np.ndarray, shape: tuple[int, ...],
                 columns: tuple[str, ...], g: Dag, n_env: int
                 ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per node v, where the counts of the ``occupied`` cells of the level
    grid ``shape`` go in v's scores, stacked for ``n_env`` environments:
    the flat (environment, (parents, v) cell) index of each (environment,
    occupied cell), and the flat (environment, parent context) index of
    each (environment, (parents, v) cell). Each index takes every value
    below ``n_env`` times its number of cells or contexts, so its
    ``bincount`` has exactly that length."""
    coords = np.unravel_index(occupied, shape)
    env = np.arange(n_env)[:, None]
    out = {}
    for v in g.nodes:
        kept = [columns.index(u) for u in (*g.parents(v), v)]
        code = np.ravel_multi_index([coords[k] for k in kept],
                                    [shape[k] for k in kept])
        joints, joint_of_cell = np.unique(code, return_inverse=True)
        contexts, context_of_joint = np.unique(joints // shape[kept[-1]],
                                               return_inverse=True)
        out[v] = ((env * joints.size + joint_of_cell).ravel(),
                  (env * contexts.size + context_of_joint).ravel())
    return out


def _weighted_shifts(counts: np.ndarray,
                     index: dict[str, tuple[np.ndarray, np.ndarray]]
                     ) -> dict[str, np.ndarray]:
    """Per node v, one shift per environment of the occupied cells' counts
    ``counts`` (E, K) placed by ``_shift_index``: sum_c q_e(c)
    TV(q_e(v | c), pooled(v | c)) over v's parent contexts c, which is
    1/2 sum_{c,x} |n_e(c, x) - n_e(c) n(c, x) / n(c)| / n_e."""
    n_env = counts.shape[0]
    size = counts.sum(axis=1)
    weights = counts.ravel()
    out = {}
    for v, (joint_at, context_at) in index.items():
        joint = np.bincount(joint_at, weights=weights).reshape(n_env, -1)
        context = np.bincount(context_at, weights=joint.ravel()).reshape(n_env, -1)
        of_joint = context_at[:joint.shape[1]]   # environment 0's, unshifted
        expected = context[:, of_joint] * (joint.sum(axis=0) / context.sum(axis=0)[of_joint])
        out[v] = 0.5 * np.abs(joint - expected).sum(axis=1) / size
    return out


def _relabel(pooled: np.ndarray, sizes: Sequence[int],
             rng: np.random.Generator) -> np.ndarray:
    """The cell counts (E, K) of one uniformly random relabeling of the
    ``pooled`` rows into environments of ``sizes`` rows: for e = 0 .. E-2, a
    multivariate hypergeometric draw of ``sizes[e]`` rows from those not yet
    placed; the last environment takes the rest. The product of these
    hypergeometric laws is the law of the counts under a uniform
    permutation of the environment labels."""
    out = np.empty((len(sizes), pooled.size), dtype=np.int64)
    out[-1] = pooled   # the rows not yet placed
    for e, size in enumerate(sizes[:-1]):
        out[e] = rng.multivariate_hypergeometric(out[-1], size, method="marginals")
        out[-1] -= out[e]
    return out


def localize_mechanism_change(environments: Sequence, g: Dag,
                              eps: float | None = None, n_perm: int = 60,
                              seed: int = 0) -> list[LocalizationResult]:
    """Per environment, the nodes whose causal conditional differs from the
    pooled one beyond a threshold.

    Environments are exact DiscreteJoints, where a node's distance is the
    factor distance from the mixture's conditional and any difference
    above ``eps`` (default 1e-9) is a change, or Datasets sharing columns
    (a column with more than 32 distinct pooled values is cut into 5 bins
    at its pooled quantiles), where it is the context-weighted shift of
    ``_weighted_shifts`` over the counts of the occupied cells. With
    ``eps=None`` a per-node threshold is calibrated on ``n_perm``
    relabelings of the pooled rows, each a sequential multivariate
    hypergeometric split of the occupied cells' pooled counts into the
    environments' sizes (``_relabel``), equal in law to a uniform
    permutation of the environment labels: the ceil((n_perm + 1) q_eff)-th
    smallest max-over-environment shift, with the Bonferroni-adjusted
    q_eff = 1 - (1 - ``_NULL_QUANTILE``) / nodes, capped at the largest
    draw and never below ``_MIN_EFFECT``. Below 79 relabelings for two
    nodes and 159 for four, the default 60 included, it is the largest
    draw; such counts are not refused, and the thresholds are reported
    with the distances. An environment without rows is refused.
    """
    if len(environments) < 2:
        raise DiscoveryError("need at least two environments")
    n_perm = _integer_at_least("n_perm", n_perm, 1)
    if eps is not None and not eps >= 0:
        raise DiscoveryError(f"eps must be a number >= 0, got {eps!r}")
    if all(isinstance(e, DiscreteJoint) for e in environments):
        names = environments[0].names
        if set(names) != set(g.nodes):
            raise DiscoveryError("graph nodes must match the joint's variables")
        envs = [e.permute(names) for e in environments]
        mixture = DiscreteJoint(names, sum(e.probs for e in envs) / len(envs))
        thr = eps if eps is not None else 1e-9
        dists = [{v: factor_distance(mixture, env, g, v) for v in g.nodes} for env in envs]
        return [LocalizationResult(tuple(v for v in g.nodes if d[v] > thr), d)
                for d in dists]

    if not all(isinstance(e, Dataset) for e in environments):
        raise DiscoveryError("environments must be all Datasets or all joints")
    columns = environments[0].columns
    if any(e.columns != columns for e in environments):
        raise DiscoveryError("environments must share columns")
    if tuple(sorted(columns)) != tuple(sorted(g.nodes)):
        raise DiscoveryError("graph nodes must match the data columns")

    sizes = [e.rows.shape[0] for e in environments]
    if 0 in sizes:
        raise DiscoveryError(f"environment {sizes.index(0)} has no rows")
    rows = np.vstack([e.rows for e in environments])  # a new, writable array
    for column in rows.T:  # 5 bins at the pooled quantiles above 32 levels
        if np.unique(column).size > 32:
            edges = np.quantile(column, np.linspace(0, 1, 6)[1:-1])
            column[:] = np.searchsorted(edges, column)
    _, cells, shape = _cells(rows.T)
    occupied, cell = np.unique(cells, return_inverse=True)
    env = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.bincount(env * occupied.size + cell,
                         minlength=len(sizes) * occupied.size).reshape(len(sizes), -1)
    index = _shift_index(occupied, shape, columns, g, len(sizes))
    observed = _weighted_shifts(counts, index)
    if eps is None:
        rng = _philox(seed)
        pooled = counts.sum(axis=0)
        null_stats = {v: [] for v in g.nodes}
        for _ in range(n_perm):
            for v, shift in _weighted_shifts(_relabel(pooled, sizes, rng), index).items():
                null_stats[v].append(shift.max())
        # Bonferroni across nodes, conservative order statistic
        q_eff = 1.0 - (1.0 - _NULL_QUANTILE) / max(1, len(g.nodes))
        k = min(n_perm - 1, max(0, int(np.ceil((n_perm + 1) * q_eff)) - 1))
        thresholds = {
            v: max(float(np.sort(null_stats[v])[k]), _MIN_EFFECT)
            for v in g.nodes
        }
    else:
        thresholds = {v: float(eps) for v in g.nodes}

    dists = [{v: float(observed[v][e]) for v in g.nodes}
             for e in range(len(environments))]
    return [LocalizationResult(tuple(v for v in g.nodes if d[v] > thresholds[v]),
                               {"distances": d, "thresholds": thresholds})
            for d in dists]
