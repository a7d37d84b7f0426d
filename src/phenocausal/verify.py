"""Machine checks of the package's formal guarantees on randomized exact
instances.

Three verifiers are provided, each producing replayable trial records:

* identifiability -- for a full-rank strictly positive p(x, y), replacing
  the marginal of x while keeping p(y|x) must change both the marginal of
  y and the backward conditional p(x|y).
* embedding Markov -- when each action class is driven by its own
  independent controller variable, the exact joint over (controllers,
  system), the p(y)-mixture over controller settings y, must satisfy the
  Markov condition of the combined graph.
* boundary consistency -- a single-factor perturbation, pushed through
  marginalization onto a graphically causally sufficient subset, changes
  at most one factor of the marginal model; on the side, backdoor sets of
  the marginal graph must reproduce the full model's interventional
  marginals, read by adjusting for the parents of the intervened node.

Failures are treated as implementation bugs (the statements are theorems);
every record carries the integer seed that regenerates its instance.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .exemplars import Exemplar, urn_bivariate
from .graphs import (Dag, _reachable_inside, backdoor_admissible,
                     is_graphically_causally_sufficient, marginal_dag,
                     random_dag)
from .scm import NoiseSpec, _philox, exact_joint
from .tables import (MAX_TABLE_ENTRIES, ConditionalTable, DiscreteJoint,
                     _marginal_array, _replace_factor, _tabulate, changed_factors,
                     conditional, markov_report, product_joint, tv_distance)

__all__ = [
    "TrialRecord",
    "VerificationReport",
    "verify_identifiability",
    "ControllerSpec",
    "build_embedding",
    "urn2_controllers",
    "verify_embedding_markov",
    "verify_boundary_consistency",
    "random_markov_joint",
    "random_conditional",
    "random_sufficient_subset",
    "SuiteConfig",
    "randomized_suite",
    "proposition_trial",
    "boundary_trial",
    "embedding_trial",
]

# Tolerances: a new marginal of x within _MARGINAL_TOL (total variation) is
# no change, and a change moves p(y) and p(x|y) by more than _CHANGE_FLOOR;
# a factor changed, or a backdoor adjustment deviates, above _BOUNDARY_EPS;
# an embedding joint is Markov up to residuals of _EMBEDDING_EPS.
_MARGINAL_TOL = 1e-3
_CHANGE_FLOOR = 1e-12
_BOUNDARY_EPS = 1e-9
_EMBEDDING_EPS = 1e-12


@dataclass(frozen=True)
class TrialRecord:
    kind: str
    index: int
    seed: int
    ok: bool
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "index": self.index, "seed": self.seed,
                "ok": self.ok, "details": self.details}


@dataclass(frozen=True)
class VerificationReport:
    name: str
    records: tuple[TrialRecord, ...]
    extras: dict = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> tuple[TrialRecord, ...]:
        return tuple(r for r in self.records if not r.ok)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "passed": self.passed,
            "failures": [r.to_json_obj() for r in self.failures],
            "records": [r.to_json_obj() for r in self.records],
            "extras": self.extras,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: {self.trials} trials, "
                f"{len(self.failures)} failures")


# ---------------------------------------------------------------------------
# Identifiability via changes
# ---------------------------------------------------------------------------


def verify_identifiability(p_xy: DiscreteJoint, new_marginal: np.ndarray,
                           index: int = 0, seed: int = 0) -> TrialRecord:
    """Check that replacing p(x) (keeping p(y|x)) moves p(y) and p(x|y).

    Precondition failures (non-square, non-positive, rank-deficient) yield
    an ok record of kind "identifiability-rejected" rather than a result.
    """
    if len(p_xy.names) != 2 or p_xy.cards[0] != p_xy.cards[1]:
        return TrialRecord("identifiability-rejected", index, seed, True,
                           {"reason": "needs a square two-variable table"})
    m = p_xy.probs
    if m.min() <= 0.0:
        return TrialRecord("identifiability-rejected", index, seed, True,
                           {"reason": "not strictly positive"})
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.min() <= 1e-10:
        return TrialRecord("identifiability-rejected", index, seed, True,
                           {"reason": "rank-deficient", "min_sv": float(sv.min())})
    new_marginal = np.asarray(new_marginal, dtype=float)
    px = m.sum(axis=1)
    tv_x = 0.5 * float(np.abs(new_marginal - px).sum())
    # tilde p(x, y) = tilde p(x) p(y | x)
    tilde = new_marginal[:, None] * (m / px[:, None])
    tv_y = 0.5 * float(np.abs(tilde.sum(axis=0) - m.sum(axis=0)).sum())
    back_old = m / m.sum(axis=0, keepdims=True)
    back_new = tilde / tilde.sum(axis=0, keepdims=True)
    tv_back = 0.5 * float(np.abs(back_new - back_old).sum(axis=0).max())
    ok = True
    if tv_x > _MARGINAL_TOL:
        ok = tv_y > _CHANGE_FLOOR and tv_back > _CHANGE_FLOOR
    return TrialRecord("identifiability", index, seed, ok,
                       {"tv_x": tv_x, "tv_y": tv_y, "tv_x_given_y": tv_back})


# ---------------------------------------------------------------------------
# Embedding construction (actions driven by controller variables)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ControllerSpec:
    """Independent controller variables and the action class each drives.

    Each controller is a root that takes its noise value; ``controls`` maps
    an action-class label to (controller, fn), where fn maps the
    controller's value to the NoiseSpec of the class tally under that
    setting.
    """

    noises: dict[str, NoiseSpec]
    controls: dict[str, tuple[str, Callable]]


def build_embedding(exemplar: Exemplar, controllers: ControllerSpec
                    ) -> tuple[DiscreteJoint, dict[str, tuple], Dag]:
    """Exact joint over (controllers, system) and its levels, as
    ``exact_joint`` returns them, plus the combined graph, where an edge runs
    from a controller to the node whose action class it drives.

    Given the controllers' values y, the system is the exemplar with each
    driven class tally at fn(y): the joint is the p(y)-mixture of these
    systems over the settings (the controllers' distinct atoms of positive
    weight, in ``itertools.product`` order). A system depends only on the
    values of the controllers that drive a class, so there is one
    ``exact_joint`` per distinct tuple of those values.
    """
    base = exemplar.scm
    if base is None:
        raise ValueError(f"exemplar {exemplar.name!r} has no unit-level system")
    class_nodes: dict[str, str] | None = exemplar.notes.get("class_nodes")
    if class_nodes is None:
        raise ValueError(f"exemplar {exemplar.name!r} has no action-class map")
    driven: dict[str, tuple[str, Callable]] = {}
    for label, (ctrl, fn) in controllers.controls.items():
        if label not in class_nodes:
            raise ValueError(f"unknown action class {label!r}")
        if ctrl not in controllers.noises:
            raise ValueError(f"class {label!r} is driven by {ctrl!r}, which is "
                             "not a controller variable")
        target = class_nodes[label]
        if target in driven:
            raise ValueError(f"node {target!r} controlled by two classes")
        driven[target] = (ctrl, fn)

    ctrls = tuple(controllers.noises)
    nodes = ctrls + base.nodes
    gtilde = Dag(nodes, set(exemplar.ground_truth.edges)
                 | {(ctrl, v) for v, (ctrl, _fn) in driven.items()})
    laws = []  # each controller's (value, weight) pairs of positive weight
    for y in ctrls:
        atoms, probs = map(np.asarray, controllers.noises[y].support())
        (values,), (law,) = _tabulate((y,), [([atoms], probs)])
        laws.append(list(zip(values, law.probs.tolist())))
    settings = math.prod(map(len, laws))
    if settings > MAX_TABLE_ENTRIES:
        raise ValueError(f"{settings} controller settings exceed cap {MAX_TABLE_ENTRIES}")
    driving = {ctrl for ctrl, _fn in driven.values()}
    drivers = [k for k, y in enumerate(ctrls) if y in driving]
    systems: dict[tuple, tuple[list[np.ndarray], np.ndarray]] = {}
    columns, weights = [], []  # the rows (y, x) of each setting, weighted p(y) p_y(x)
    for setting in itertools.product(*laws):
        key = tuple(setting[k][0] for k in drivers)
        if key not in systems:
            y = dict(zip(ctrls, (v for v, _w in setting)))
            noises = {**base.noises,
                      **{v: fn(y[ctrl]) for v, (ctrl, fn) in driven.items()}}
            p_y, levels_y = exact_joint(replace(base, noises=noises))
            cells = np.nonzero(p_y.probs)
            systems[key] = ([np.asarray(levels_y[v])[i] for v, i in zip(base.nodes, cells)],
                            p_y.probs[cells])
        x, p_x = systems[key]
        columns.append([np.full(p_x.size, v) for v, _w in setting] + x)
        weights.append(math.prod(w for _v, w in setting) * p_x)
    levels, (joint,) = _tabulate(nodes, [(list(map(np.concatenate, zip(*columns))),
                                          np.concatenate(weights))])
    return joint, dict(zip(nodes, levels)), gtilde


def urn2_controllers(rounds: int, base_biases: Sequence[float],
                     shifted_biases: Sequence[float],
                     p_y1: float = 0.5, p_y2: float = 0.5) -> ControllerSpec:
    """Two independent binary controllers: Y1 switches the A1 coin biases,
    Y2 the A2 coin biases, between the base and shifted settings."""
    b = tuple(float(v) for v in base_biases)
    s = tuple(float(v) for v in shifted_biases)

    def tally(k):  # class k + 1 under its controller's value y
        return lambda y: NoiseSpec.binomdiff(
            rounds, *(b if y == 0 else s)[2 * k:2 * k + 2])

    return ControllerSpec(
        noises={"Y1": NoiseSpec.finite((0.0, 1.0), (1 - p_y1, p_y1)),
                "Y2": NoiseSpec.finite((0.0, 1.0), (1 - p_y2, p_y2))},
        controls={"A1": ("Y1", tally(0)), "A2": ("Y2", tally(1))},
    )


def verify_embedding_markov(joint: DiscreteJoint, gtilde: Dag, index: int = 0,
                            seed: int = 0) -> TrialRecord:
    """Check the embedding's exact joint for Markovness to ``gtilde``."""
    ok, triple, worst = markov_report(joint, gtilde, eps=_EMBEDDING_EPS)
    details = {"worst_residual": worst, "states": int(joint.probs.size)}
    if triple is not None:
        a, bt, c = triple
        details["worst_independence"] = f"{list(a)} _||_ {list(bt)} | {list(c)}"
    return TrialRecord("embedding-markov", index, seed, ok, details)


# ---------------------------------------------------------------------------
# Boundary consistency
# ---------------------------------------------------------------------------


def verify_boundary_consistency(g: Dag, p: DiscreteJoint, p_tilde: DiscreteJoint,
                                j_perturbed: str, gs: Dag, ps: DiscreteJoint,
                                index: int = 0, seed: int = 0) -> TrialRecord:
    """Check that perturbing one factor, ``p`` to ``p_tilde`` at
    ``j_perturbed``, changes at most one factor of the marginal model -- the
    perturbed node itself when it survives marginalization, otherwise its
    unique blocking descendant inside the subset.

    The marginal model is ``gs = marginal_dag(g, s)`` for a graphically
    causally sufficient subset s (``marginal_dag`` refuses any other) and
    ``ps``, the marginal of ``p`` over ``gs.nodes``.
    """
    s_nodes = gs.nodes
    ps_tilde = p_tilde.marginal(s_nodes)
    changed = changed_factors(ps, ps_tilde, gs, _BOUNDARY_EPS)
    if j_perturbed in s_nodes:
        expected: tuple[str, ...] = (j_perturbed,)
        unique_blocker = True
    else:
        expected = _reachable_inside(g, j_perturbed, set(s_nodes))
        unique_blocker = len(expected) <= 1
    ok = len(changed) <= 1 and set(changed) <= set(expected) and unique_blocker
    details = {
        "perturbed": j_perturbed,
        "subset": list(s_nodes),
        "changed": list(changed),
        "expected_at_most": list(expected),
        "unique_blocker": unique_blocker,
        "tv_full": tv_distance(p, p_tilde),
        "tv_marginal": tv_distance(ps, ps_tilde),
    }
    return TrialRecord("boundary", index, seed, ok, details)


def check_backdoor_preservation(g: Dag, p: DiscreteJoint, gs: Dag, ps: DiscreteJoint,
                                x: str, y: str, z: Sequence[str]) -> tuple[bool, dict]:
    """If z is backdoor-admissible for (x, y) in the marginal graph ``gs``,
    it must be admissible in the full graph ``g``, and the adjustment on the
    marginal joint ``ps`` must match the full model's p(y | do(x))."""
    z = gs.sorted_tuple(z)
    if not backdoor_admissible(gs, x, y, z):
        return True, {"skipped": "z not admissible in marginal graph"}
    inherited = backdoor_admissible(g, x, y, z)
    worst = float(np.abs(_do_marginal(p, g, x, y) - _adjustment(ps, x, y, z)).max())
    ok = inherited and worst <= _BOUNDARY_EPS
    return ok, {"x": x, "y": y, "z": list(z), "admissible_in_full": inherited,
                "max_dev": worst}


def _do_marginal(p: DiscreteJoint, g: Dag, x: str, y: str) -> np.ndarray:
    """p(y | do(x = v)), one row per value v of x, on a strictly positive
    joint Markov to ``g``: the adjustment for the parents of x, or p(y) when
    y is one of them."""
    pa_x = g.parents(x)
    if y in pa_x:
        py = _marginal_array(p, (y,))
        return np.broadcast_to(py, (p.cards[p.axis(x)], py.size))
    return _adjustment(p, x, y, pa_x)


def _adjustment(ps: DiscreteJoint, x: str, y: str, z: Sequence[str]) -> np.ndarray:
    """Backdoor adjustment sum_z p(y | x=v, z) p(z) on an exact table, one
    row per value v of x."""
    # axes (x, *z, y); contexts of probability zero contribute nothing
    f = conditional(ps, y, (x, *z))
    cond = np.where(f.defined[..., None], f.table, 0.0)
    if not z:
        return cond
    pz = _marginal_array(ps, tuple(z))[..., None]
    return (cond * pz).reshape(len(cond), -1, cond.shape[-1]).sum(axis=1)


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


# weight of the uniform distribution mixed into every random conditional
_UNIFORM_MIX = 1e-3

# rejection-sampling attempts before random_sufficient_subset falls back
_SUBSET_TRIES = 200


def random_conditional(g: Dag, node: str, cards: dict[str, int],
                       rng: np.random.Generator) -> ConditionalTable:
    """Random strictly positive conditional table for ``node`` given its
    parents: uniform-mixed so every entry is bounded away from zero."""
    pa = g.parents(node)
    shape = tuple(cards[p] for p in pa) + (cards[node],)
    raw = rng.random(shape) + 0.05
    raw = raw / raw.sum(axis=-1, keepdims=True)
    table = (1.0 - _UNIFORM_MIX) * raw + _UNIFORM_MIX / cards[node]
    return ConditionalTable(node, pa, table)


def random_markov_joint(g: Dag, cards: dict[str, int],
                        rng: np.random.Generator) -> DiscreteJoint:
    """Strictly positive joint that factorizes exactly over ``g``.

    Positivity is enforced factor by factor (mixing each conditional with
    the uniform one), which keeps the product exactly Markov.
    """
    return product_joint(g, _random_factors(g, cards, rng))


def _random_factors(g: Dag, cards: dict[str, int],
                    rng: np.random.Generator) -> list[ConditionalTable]:
    """One random conditional per node of ``g``, drawn in node order."""
    return [random_conditional(g, v, cards, rng) for v in g.nodes]


def random_sufficient_subset(g: Dag, rng: np.random.Generator) -> tuple[str, ...]:
    """Rejection-sample a proper graphically causally sufficient subset;
    falls back to the full node set (always sufficient)."""
    nodes = list(g.nodes)
    for _ in range(_SUBSET_TRIES):
        keep = [v for v in nodes if rng.random() < 0.6]
        if not keep or len(keep) == len(nodes):
            continue
        if is_graphically_causally_sufficient(g, keep):
            return g.sorted_tuple(keep)
    return tuple(nodes)


# ---------------------------------------------------------------------------
# Randomized suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Trial counts of the three suites."""

    proposition_trials: int = 1000
    boundary_trials: int = 500
    embedding_trials: int = 3


def _spawn_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def proposition_trial(trial_seed: int, index: int = 0) -> TrialRecord:
    rng = _philox(trial_seed)
    k = int(rng.integers(2, 5))
    for _ in range(100):
        m = rng.random((k, k)) + 0.05
        m = m / m.sum()
        if m.min() > 0 and np.linalg.svd(m, compute_uv=False).min() > 1e-10:
            break
    p = DiscreteJoint(("X", "Y"), m)
    px = m.sum(axis=1)
    for _ in range(100):
        raw = rng.random(k) + 0.05
        new_marginal = raw / raw.sum()
        if 0.5 * np.abs(new_marginal - px).sum() > _MARGINAL_TOL:
            break
    return verify_identifiability(p, new_marginal, index=index, seed=trial_seed)


def boundary_trial(trial_seed: int, max_nodes: int = 6, index: int = 0) -> TrialRecord:
    """One boundary instance: a random binary Markov joint over 3 to
    ``max_nodes`` nodes, one factor replaced by a random one, and a random
    sufficient subset; then, when the boundary check passes, the backdoor
    side check on a random (x, y, z) inside the subset.

    Each joint is the product of known factors, so none is factorized
    again, and the marginal graph and joint are built once for both checks.
    """
    if max_nodes < 3:
        raise ValueError(f"max_nodes must be at least 3, got {max_nodes}")
    most = MAX_TABLE_ENTRIES.bit_length() - 1  # a joint of binary nodes has 2**n entries
    if max_nodes > most:
        raise ValueError(f"max_nodes must be at most {most}, got {max_nodes}")
    rng = _philox(trial_seed)
    n = int(rng.integers(3, max_nodes + 1))
    g = random_dag([f"X{i+1}" for i in range(n)], rng, edge_prob=0.5)
    cards = {v: 2 for v in g.nodes}
    factors = _random_factors(g, cards, rng)
    j = g.nodes[int(rng.integers(n))]
    new_factor = random_conditional(g, j, cards, rng)
    gs = marginal_dag(g, random_sufficient_subset(g, rng))
    p = product_joint(g, factors)
    p_tilde = product_joint(g, _replace_factor(g, factors, j, new_factor))
    ps = p.marginal(gs.nodes)
    record = verify_boundary_consistency(g, p, p_tilde, j, gs, ps, index=index,
                                         seed=trial_seed)
    s_nodes = gs.nodes
    if len(s_nodes) >= 2 and record.ok:
        idx = rng.permutation(len(s_nodes))[:2]
        x, y = s_nodes[idx[0]], s_nodes[idx[1]]
        rest = [v for v in s_nodes if v not in (x, y)]
        z = tuple(v for v in rest if rng.random() < 0.5)
        ok_bd, bd = check_backdoor_preservation(g, p, gs, ps, x, y, z)
        record = replace(record, ok=record.ok and ok_bd,
                         details={**record.details, "backdoor": bd})
    return record


def embedding_trial(trial_seed: int, rounds: int = 3, index: int = 0) -> TrialRecord:
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    rng = _philox(trial_seed)
    base = tuple(rng.uniform(0.2, 0.8, size=4))
    shifted = tuple(np.clip(np.asarray(base) + rng.uniform(-0.15, 0.15, size=4),
                            0.05, 0.95))
    ex = urn_bivariate(kb0=4 * rounds, kr0=4 * rounds, rounds=rounds,
                       coin_biases=base)
    spec = urn2_controllers(rounds, base, shifted,
                            p_y1=float(rng.uniform(0.3, 0.7)),
                            p_y2=float(rng.uniform(0.3, 0.7)))
    joint, _levels, gtilde = build_embedding(ex, spec)
    return verify_embedding_markov(joint, gtilde, index=index, seed=trial_seed)


def _run_trials(fn: Callable, seeds: list[int], jobs: int) -> list[TrialRecord]:
    """``fn(seed, index=i)`` for each seed, in seed order."""
    # no more workers than cores or trials: under the fork start method the
    # pool starts every requested worker at the first submit
    workers = min(jobs, os.cpu_count() or 1, len(seeds))
    call = functools.partial(_trial_at, fn)
    if workers <= 1:
        return [call(a) for a in enumerate(seeds)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(call, enumerate(seeds), chunksize=8))


def _trial_at(fn: Callable, args: tuple[int, int]) -> TrialRecord:
    """``fn(seed, index=index)`` for ``args = (index, seed)``; a module-level
    function, so a partial of it pickles to worker processes."""
    index, seed = args
    return fn(seed, index=index)


def randomized_suite(config: SuiteConfig = SuiteConfig(),
                     seed: int = 0,
                     which: str = "all",
                     jobs: int = 1) -> dict[str, VerificationReport]:
    """Run the selected verifier suites; every record replays from its seed.

    A selected suite needs at least 1 trial (``ValueError`` otherwise): an
    empty run would report a pass it never checked. Each trial runs with its
    function's default parameters. ``jobs > 1`` distributes trials over at
    most that many worker processes, and never more than there are cores or
    trials; trials are pure functions of their spawned seeds, so the
    aggregated report is identical to the serial one.
    """
    # (key, report name, seed stream, trial function, trial count)
    suites = (
        ("prop1", "identifiability-via-changes", 0, proposition_trial,
         config.proposition_trials),
        ("boundary", "boundary-consistency", 1, boundary_trial,
         config.boundary_trials),
        ("embedding", "embedding-markov", 2, embedding_trial,
         config.embedding_trials),
    )
    selected = [s for s in suites if which in (s[0], "all")]
    if not selected:
        raise ValueError(f"unknown suite selector {which!r}")
    for key, _, _, _, count in selected:
        if count < 1:
            raise ValueError(f"{key} suite needs at least 1 trial, got {count}")
    out: dict[str, VerificationReport] = {}
    for key, name, stream, trial, count in selected:
        seeds = [_spawn_seed(seed, stream, i) for i in range(count)]
        out[key] = VerificationReport(name, tuple(_run_trials(trial, seeds, jobs)))
    return out
