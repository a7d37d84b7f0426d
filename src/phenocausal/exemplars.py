"""Worked example systems: urns, bundles, rabbits, macro averages, the ball
track and the farmers' countertrade.

Each constructor returns an :class:`Exemplar` bundling the system (a
general SCM, a linear idealization, and/or an exact joint), an action suite
in unit and/or statistical encoding, and the declared ground-truth graph.
The urn-family exemplars also carry the bounded ball-moving process as
``Exemplar.process``, which states each elementary action once, as a ball
move. Everything else about them is derived from it: the simulator, the
unit actions, the exact joint, and -- given the node each action class
moves (``notes["class_nodes"]``) -- the linear idealization, its general
SCM and the ground-truth graph. The process agrees with the linear
idealization exactly on every run that never empties a ball type.

The two macro exemplars are derived from one micro linear model and the
averaging map W: their actions, general SCM and ground truth follow from
which micro variables the actions shift. The ball track and the farmers'
countertrade tabulate labeled exact joints through one helper and sample
them through ``_level_sampler``.

Conventions: urn nodes are listed cause-first, so the chain over n types
is ("Kn", ..., "K1") and the mixing matrix S is the lower-bidiagonal
Toeplitz form (diagonal 1, first sub-diagonal -1) whose structure matrix
I - S^{-1} is strictly lower triangular with every entry -1. Within each
simulated round the action coins are applied in a fixed order (descending
type, + before -); outside boundary states the order is immaterial.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .actions import StatisticalAction, UnitAction, unit_action_from_spec
from .graphs import Dag
from .scm import (Dataset, GeneralScm, LinearScm, NoiseSpec, ScmError,
                  solve_structure)
from .tables import MAX_TABLE_ENTRIES, DiscreteJoint, TableError, _tabulate

__all__ = [
    "Exemplar",
    "urn_bivariate",
    "urn_chain",
    "bundles_chain",
    "rabbits",
    "macro_pair",
    "ball_track",
    "farmers",
    "EXEMPLARS",
    "build_exemplar",
    "urn_toeplitz_mixing",
    "bundles_mixing",
    "exact_urn2_joint",
]


@dataclass(frozen=True)
class Exemplar:
    """A system, its elementary actions, and the declared causal graph."""

    name: str
    ground_truth: Dag
    scm: GeneralScm | None = None
    unit_actions: tuple[UnitAction, ...] = ()
    baseline: DiscreteJoint | None = None
    statistical_actions: tuple[StatisticalAction, ...] = ()
    linear: LinearScm | None = None
    sampler: Callable[[int, int], Dataset] | None = None
    process: _UrnProcess | None = None
    notes: dict = field(default_factory=dict)

    def sample(self, n: int, seed: int) -> Dataset:
        if self.sampler is None:
            raise ScmError(f"exemplar {self.name!r} has no dataset sampler")
        return self.sampler(n, seed)

    def to_json_obj(self) -> dict:
        obj = {
            "name": self.name,
            "ground_truth": json.loads(self.ground_truth.to_json()),
            "unit_actions": [a.to_json_obj() for a in self.unit_actions],
            "statistical_actions": [a.label for a in self.statistical_actions],
            "notes": self.notes,
        }
        if self.baseline is not None:
            obj["baseline"] = json.loads(self.baseline.to_json())
        if self.linear is not None:
            obj["linear"] = self.linear.to_json_obj()
        return obj


# ---------------------------------------------------------------------------
# Bounded urn process: one description of the elementary actions, from which
# the simulator, the unit actions, the exact joint and the linear model are
# derived
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Move:
    """One elementary action: with probability ``prob`` per round it adds
    ``deltas`` to the counts, and it is refused while any type listed in
    ``requires_positive`` is empty."""

    label: str
    deltas: Mapping[str, int]
    requires_positive: tuple[str, ...]
    prob: float


@dataclass(frozen=True)
class _UrnProcess:
    """Counts of the ball types ``nodes``, starting at ``k0``. In each of
    ``rounds`` rounds every move tosses its coin once, in list order.

    Every move that removes balls of a type requires that type to be
    nonempty, so counts never go negative.

    This is the one statement of an urn's elementary actions: ``simulate``,
    ``unit_actions``, ``exact_joint`` and, given the node each action class
    moves, ``linear`` are all derived from the moves.
    """

    nodes: tuple[str, ...]
    k0: tuple[int, ...]
    moves: tuple[_Move, ...]
    rounds: int

    def __post_init__(self):
        try:
            k0 = tuple(operator.index(k) for k in self.k0)
            rounds = operator.index(self.rounds)
        except TypeError:
            raise ScmError(f"ball counts and rounds must be integers, got "
                           f"k0={list(self.k0)}, rounds={self.rounds!r}") from None
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "rounds", rounds)

    def _steps(self) -> np.ndarray:
        return np.array([[mv.deltas.get(v, 0) for v in self.nodes]
                         for mv in self.moves])

    def simulate(self, n: int, seed: int) -> tuple[Dataset, np.ndarray]:
        """Vectorized runs; returns the dataset and per-row flags marking
        runs in which at least one move was refused.

        The counts are held type-major, one contiguous row of ``n`` runs per
        ball type, and a move adds ``hit * delta`` to the rows of the types
        it changes; one coin draw per move and round."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        col = {v: i for i, v in enumerate(self.nodes)}
        state = np.repeat(np.asarray(self.k0, dtype=float)[:, None], n, axis=1)
        refused = np.zeros(n, dtype=bool)
        plan = [(mv.prob, [col[v] for v in mv.requires_positive],
                 [(i, float(d)) for i, d in enumerate(step) if d])
                for mv, step in zip(self.moves, self._steps().tolist())]
        for _ in range(self.rounds):
            for prob, needs, changes in plan:
                hit = rng.random(n) < prob
                if needs:
                    ok = state[needs[0]] > 0
                    for i in needs[1:]:
                        ok &= state[i] > 0
                    refused |= hit & ~ok
                    hit &= ok
                for i, d in changes:
                    state[i] += hit * d
        return Dataset(self.nodes, np.ascontiguousarray(state.T), seed), refused

    def sample(self, n: int, seed: int) -> Dataset:
        return self.simulate(n, seed)[0]

    def unit_actions(self) -> tuple[UnitAction, ...]:
        return tuple(
            unit_action_from_spec(mv.label, {
                "kind": "add-constant", "deltas": mv.deltas,
                "requires_positive": list(mv.requires_positive)})
            for mv in self.moves)

    def with_prob(self, label: str, prob: float) -> "_UrnProcess":
        """The same process with the coin of move ``label`` rebiased."""
        return replace(self, moves=tuple(
            replace(mv, prob=prob) if mv.label == label else mv
            for mv in self.moves))

    def exact_joint(self) -> tuple[DiscreteJoint, dict]:
        """Exact distribution after ``rounds``, by dynamic programming over
        the lattice of reachable counts, refusals at empty types included.

        Returns the joint over level indices and the levels of each type.
        """
        steps = self._steps()
        k0 = np.asarray(self.k0)
        lo = np.maximum(0, k0 - self.rounds * np.maximum(0, -steps).sum(axis=0))
        hi = k0 + self.rounds * np.maximum(0, steps).sum(axis=0)
        shape = tuple(int(s) for s in hi - lo + 1)
        if math.prod(shape) > MAX_TABLE_ENTRIES:
            raise TableError(f"level grid {shape} exceeds cap {MAX_TABLE_ENTRIES}")
        levels = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
        counts = dict(zip(self.nodes, np.meshgrid(*levels, indexing="ij", sparse=True)))
        # per move: its coin, where it may fire, and the slices that shift the
        # grid by its step; no run leaves the grid, so no mass is dropped
        table = []
        for mv, step in zip(self.moves, steps.tolist()):
            ok = np.ones(shape, dtype=bool)
            for v in mv.requires_positive:
                ok &= counts[v] > 0
            src = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(step, shape))
            dst = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(step, shape))
            table.append((mv.prob, ok, ~ok, src, dst))
        pmf = np.zeros(shape)
        pmf[tuple(k0 - lo)] = 1.0
        for _ in range(self.rounds):
            for p, ok, refused, src, dst in table:
                moved = np.zeros(shape)
                moved[dst] = pmf[src] * p * ok[src]
                pmf = pmf * (1.0 - p) + pmf * p * refused + moved
        joint = DiscreteJoint(self.nodes, pmf)
        return joint, {v: [int(x) for x in lv] for v, lv in zip(self.nodes, levels)}

    def linear(self, class_nodes: Mapping[str, str]) -> LinearScm:
        """The linear idealization, in which every action class ``c`` (the
        move pair ``c+``/``c-``) changes only the mechanism of its node
        ``class_nodes[c]`` and no move is ever refused.

        Column v of the mixing matrix S is the state change of one firing of
        v's class, signed so that S[v, v] = 1, and v's noise is that class's
        signed tally. The structure matrix is A = I - S^{-1} and the offsets
        are (I - A) k0, so that X = S (k0 + tallies).
        """
        moves = {mv.label: mv for mv in self.moves}
        col = {v: i for i, v in enumerate(self.nodes)}
        s = np.zeros((len(self.nodes), len(self.nodes)))
        noises = [None] * len(self.nodes)
        for c, v in class_nodes.items():
            plus, minus = moves[f"{c}+"], moves[f"{c}-"]
            sign = plus.deltas[v]
            for u, d in plus.deltas.items():
                s[col[u], col[v]] = sign * d
            coins = (plus.prob, minus.prob) if sign > 0 else (minus.prob, plus.prob)
            noises[col[v]] = NoiseSpec.binomdiff(self.rounds, *coins)
        a = solve_structure(s).a
        return LinearScm(self.nodes, a, (np.eye(len(self.nodes)) - a) @ self.k0,
                         tuple(noises))


def _urn2_process(kb0: int, kr0: int, rounds: int,
                  biases: Sequence[float]) -> _UrnProcess:
    p1p, p1m, p2p, p2m = biases
    return _UrnProcess(("Kb", "Kr"), (kb0, kr0), (
        _Move("A1+", {"Kb": 1, "Kr": -1}, ("Kr",), p1p),
        _Move("A1-", {"Kb": -1, "Kr": 1}, ("Kb",), p1m),
        _Move("A2+", {"Kr": 1}, (), p2p),
        _Move("A2-", {"Kr": -1}, ("Kr",), p2m),
    ), rounds)


def exact_urn2_joint(kb0: int, kr0: int, rounds: int,
                     biases: Sequence[float]) -> tuple[DiscreteJoint, dict]:
    """Exact distribution of the bounded two-ball process after ``rounds``.

    Computed by dynamic programming over the lattice of reachable counts,
    including refusal behaviour at empty types; with kb0 > rounds and
    kr0 > 2 * rounds no refusal can occur and the result coincides with the
    linear idealization.
    """
    return _urn2_process(kb0, kr0, rounds, biases).exact_joint()


# ---------------------------------------------------------------------------
# Example: two-ball urn
# ---------------------------------------------------------------------------


def urn_bivariate(kb0: int = 50, kr0: int = 50, rounds: int = 5,
                  coin_biases: Sequence[float] = (0.5, 0.5, 0.5, 0.5),
                  seed: int = 0, bias_shift: float = 0.2) -> Exemplar:
    """Urn with blue and red balls; ground truth Kb -> Kr.

    Elementary actions: A1+/- replace a red ball by a blue one or back,
    A2+/- add or remove a red ball. Statistical actions shift the A1 or A2
    coin biases by ``bias_shift`` and replace the exact process joint; each
    is a callable that computes its joint when first resolved.
    """
    if rounds >= min(kb0, kr0):
        raise ScmError("need rounds < min(kb0, kr0)")
    if rounds < 1:
        raise ScmError("need at least one round")
    if not math.isfinite(bias_shift):
        raise ScmError("bias_shift must be finite")
    p1p, p1m, p2p, p2m = (float(b) for b in coin_biases)
    process = _urn2_process(kb0, kr0, rounds, (p1p, p1m, p2p, p2m))
    class_nodes = {"A1": "Kb", "A2": "Kr"}
    linear = process.linear(class_nodes)

    baseline, levels = process.exact_joint()

    def shifted(label: str, b: float) -> Callable[[DiscreteJoint], DiscreteJoint]:
        # the exact joint of the rebiased process, computed on first use
        joint = functools.cache(process.with_prob(
            label, min(0.95, max(0.05, b + bias_shift))).exact_joint)
        return lambda _baseline: joint()[0]

    stat_actions = (
        StatisticalAction("A1-bias-shift", shifted("A1+", p1p)),
        StatisticalAction("A2-bias-shift", shifted("A2+", p2p)),
    )

    return Exemplar(
        name="urn2",
        ground_truth=linear.graph(),
        scm=linear.general(),
        unit_actions=process.unit_actions(),
        baseline=baseline,
        statistical_actions=stat_actions,
        linear=linear,
        sampler=process.sample,
        process=process,
        notes={
            "kb0": kb0, "kr0": kr0, "rounds": rounds,
            "coin_biases": [p1p, p1m, p2p, p2m],
            "bias_shift": bias_shift,
            "levels": levels,
            "class_nodes": class_nodes,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Example: n ball types in a row
# ---------------------------------------------------------------------------


def urn_toeplitz_mixing(n: int) -> np.ndarray:
    """Lower-bidiagonal Toeplitz S (diagonal 1, first sub-diagonal -1)."""
    s = np.eye(n)
    for i in range(1, n):
        s[i, i - 1] = -1.0
    return s


def _chain_nodes(n: int) -> tuple[str, ...]:
    return tuple(f"K{j}" for j in range(n, 0, -1))


def urn_chain(n: int = 4, k0: Sequence[int] | None = None, rounds: int = 5,
              coin_biases: Sequence[float] | None = None, seed: int = 0,
              endpoint: str = "low") -> Exemplar:
    """Urn with n ball types; A_j+/- convert type j-1 into type j and back,
    and the endpoint actions add or remove balls of type 1.

    Ground truth is the complete DAG pointing from high type labels toward
    low ones (every intervention propagates one step and is cancelled at
    the grandchild). ``endpoint="high"`` moves the free add/remove actions
    to type n, which reverses every edge.
    """
    if n < 2:
        raise ScmError("need n >= 2 ball types")
    if k0 is None:
        k0 = (50,) * n
    k0 = tuple(k0)
    if rounds >= min(k0) or rounds < 1:
        raise ScmError("need 1 <= rounds < min(k0)")
    if coin_biases is None:
        coin_biases = (0.5,) * (2 * n)
    biases = tuple(float(b) for b in coin_biases)  # (p1+, p1-, ..., pn+, pn-)
    if len(biases) != 2 * n:
        raise ScmError(f"need 2*{n} coin biases")
    if endpoint not in ("low", "high"):
        raise ScmError("endpoint must be 'low' or 'high'")

    if endpoint == "low":
        class_nodes = {f"A{j}": f"K{j}" for j in range(1, n + 1)}
    else:
        class_nodes = {f"A{j}": f"K{j-1}" for j in range(2, n + 1)}
        class_nodes["A1"] = f"K{n}"

    moves = []
    for j in range(n, 1, -1):
        moves.append(_Move(f"A{j}+", {f"K{j}": 1, f"K{j-1}": -1}, (f"K{j-1}",),
                           biases[2 * (j - 1)]))
        moves.append(_Move(f"A{j}-", {f"K{j}": -1, f"K{j-1}": 1}, (f"K{j}",),
                           biases[2 * (j - 1) + 1]))
    end = f"K{1 if endpoint == 'low' else n}"
    moves.append(_Move("A1+", {end: 1}, (), biases[0]))
    moves.append(_Move("A1-", {end: -1}, (end,), biases[1]))
    # nodes run Kn..K1, k0 lists K1..Kn
    process = _UrnProcess(_chain_nodes(n), k0[::-1], tuple(moves), rounds)
    linear = process.linear(class_nodes)

    return Exemplar(
        name="urnN",
        ground_truth=linear.graph(),
        scm=linear.general(),
        unit_actions=process.unit_actions(),
        # the pinned high-endpoint sidecar carries no linear block
        linear=linear if endpoint == "low" else None,
        sampler=process.sample,
        process=process,
        notes={
            "n": n, "k0": list(process.k0[::-1]), "rounds": rounds,
            "coin_biases": list(biases), "endpoint": endpoint,
            "mixing": linear.mixing().tolist(),
            "class_nodes": class_nodes,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Example: bundled packages
# ---------------------------------------------------------------------------


def bundles_mixing(n: int) -> np.ndarray:
    """Lower-triangular all-ones S of the package urn."""
    return np.tril(np.ones((n, n)))


def bundles_chain(n: int = 4, rounds: int = 5,
                  coin_biases: Sequence[float] | None = None, seed: int = 0,
                  initial_packages: int | None = None) -> Exemplar:
    """Package urn: A_j+ drops one package containing one ball of each type
    1..j, A_j- wraps such a package back. Ground truth is the simple chain
    Kn -> ... -> K1.

    Simulated runs start from ``initial_packages`` packages of every type
    (default rounds + 1) so that no wrap-back is ever refused and the
    process matches the linear form K_j = K_{j+1} + N_j exactly.
    """
    if n < 2:
        raise ScmError("need n >= 2 package types")
    if rounds < 1:
        raise ScmError("need at least one round")
    if coin_biases is None:
        coin_biases = (0.5,) * (2 * n)
    biases = tuple(float(b) for b in coin_biases)
    if len(biases) != 2 * n:
        raise ScmError(f"need 2*{n} coin biases")
    r0 = initial_packages if initial_packages is not None else rounds + 1
    if r0 <= rounds:
        raise ScmError("need initial_packages > rounds")

    moves = []
    for j in range(n, 0, -1):
        types = tuple(f"K{i}" for i in range(1, j + 1))
        moves.append(_Move(f"A{j}+", {v: 1 for v in types}, (),
                           biases[2 * (j - 1)]))
        moves.append(_Move(f"A{j}-", {v: -1 for v in types}, types,
                           biases[2 * (j - 1) + 1]))
    # K_j starts with r0 balls from each of the package types j..n
    process = _UrnProcess(_chain_nodes(n), tuple(r0 * k for k in range(1, n + 1)),
                          tuple(moves), rounds)
    class_nodes = {f"A{j}": f"K{j}" for j in range(1, n + 1)}
    linear = process.linear(class_nodes)

    return Exemplar(
        name="bundles",
        ground_truth=linear.graph(),
        scm=linear.general(),
        unit_actions=process.unit_actions(),
        linear=linear,
        sampler=process.sample,
        process=process,
        notes={
            "n": n, "rounds": rounds, "coin_biases": list(biases),
            "initial_packages": process.k0[0],
            "k0": list(process.k0),
            "mixing": linear.mixing().tolist(),
            "class_nodes": class_nodes,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Example: rabbits
# ---------------------------------------------------------------------------


def _unchanged(x: np.ndarray, nodes: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The identity unit map: every unit applies and stays where it is."""
    return np.ones(len(x), dtype=bool), x.copy()


def rabbits(n_rabbits: int = 5, food_supply: float | None = None,
            demand_per_rabbit: float = 2.0, scenario: int = 1,
            appetite_factor: float = 1.25) -> Exemplar:
    """Food consumption: X is the total amount eaten per day, Y the amount
    per rabbit, X = min(food, n * demand) and Y = X / n.

    Scenario 1 (plenty of food) makes Y the cause of X; scenario 2 (food
    shortage) makes X the cause of Y. Demand varies by 20 percent across
    days (the statistical units); the appetizer scales demand by
    ``appetite_factor``.
    """
    if not 0 < n_rabbits < math.inf:
        raise ScmError("need at least one rabbit, and finitely many")
    if demand_per_rabbit <= 0 or appetite_factor <= 1.0:
        raise ScmError("need positive demand and appetite_factor > 1")
    if scenario not in (1, 2):
        raise ScmError("scenario must be 1 or 2")
    n = n_rabbits
    d = demand_per_rabbit
    d_lo, d_hi = 0.8 * d, 1.2 * d
    if food_supply is None:
        food_supply = 4.0 * n * d_hi if scenario == 1 else 0.5 * n * d_lo
    elif not math.isfinite(food_supply):
        raise ScmError("food_supply must be finite")
    f = float(food_supply)
    if scenario == 1 and f < appetite_factor * n * d_hi:
        raise ScmError("scenario 1 needs food_supply >= appetite * n * max demand")
    if scenario == 2 and f >= n * d_lo:
        raise ScmError("scenario 2 needs food_supply < n * min demand")

    demand_noise = NoiseSpec.finite((d_lo, d, d_hi), (1 / 3, 1 / 3, 1 / 3))
    if scenario == 1:
        truth = Dag(("X", "Y"), [("Y", "X")])
        scm = GeneralScm(
            nodes=("X", "Y"),
            parents={"X": ("Y",), "Y": ()},
            mechanisms={"Y": lambda pa, dv: dv,
                        "X": lambda pa, _n: n * pa["Y"]},
            noises={"Y": demand_noise, "X": NoiseSpec.degenerate(0.0)},
        )
        # In the plenty regime X = n * d, so d is recoverable from the state.
        def add_rabbit(x: np.ndarray, nodes: Sequence[str]):
            post = x.copy()
            post[:, nodes.index("X")] += x[:, nodes.index("Y")]
            return np.ones(len(x), dtype=bool), post

        actions = (
            UnitAction("add-rabbit", add_rabbit,
                       {"kind": "opaque", "family": "rabbit-count"}),
            UnitAction("more-food", _unchanged,
                       {"kind": "opaque", "family": "food-supply"}),
            unit_action_from_spec(
                "appetizer", {"kind": "scale",
                              "factors": {"X": appetite_factor,
                                          "Y": appetite_factor}}),
        )
    else:
        truth = Dag(("X", "Y"), [("X", "Y")])
        scm = GeneralScm(
            nodes=("X", "Y"),
            parents={"X": (), "Y": ("X",)},
            mechanisms={"X": lambda pa, fv: fv,
                        "Y": lambda pa, _n: pa["X"] / n},
            noises={"X": NoiseSpec.degenerate(f), "Y": NoiseSpec.degenerate(0.0)},
        )
        food_factor = 0.8

        def add_rabbit(x: np.ndarray, nodes: Sequence[str]):
            post = x.copy()
            post[:, nodes.index("Y")] = x[:, nodes.index("X")] / (n + 1)
            return np.ones(len(x), dtype=bool), post

        actions = (
            UnitAction("add-rabbit", add_rabbit,
                       {"kind": "opaque", "family": "rabbit-count"}),
            unit_action_from_spec(
                "more-food", {"kind": "scale",
                              "factors": {"X": food_factor, "Y": food_factor}}),
            UnitAction("appetizer", _unchanged,
                       {"kind": "opaque", "family": "appetizer"}),
        )

    return Exemplar(
        name=f"rabbits{scenario}",
        ground_truth=truth,
        scm=scm,
        unit_actions=actions,
        sampler=lambda m, s: scm.simulate(m, s),
        notes={"n_rabbits": n, "food_supply": f,
               "demand_per_rabbit": d, "scenario": scenario,
               "appetite_factor": appetite_factor},
    )


# ---------------------------------------------------------------------------
# Example: macro averages of a split micro system
# ---------------------------------------------------------------------------


# The micro model Y1 = X1, X2 = Y2 with X1 and Y2 uniform on a four-point
# grid, and the map W that averages it into (Xbar, Ybar).
_GRID = NoiseSpec.finite((0.0, 1.0, 2.0, 3.0), (0.25,) * 4)
_MICRO = LinearScm(
    ("X1", "X2", "Y1", "Y2"),
    np.array([[0, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 0, 0]]),
    np.zeros(4),
    (_GRID, NoiseSpec.degenerate(0.0), NoiseSpec.degenerate(0.0), _GRID))
_MACRO_NODES = ("Xbar", "Ybar")
_AVERAGING = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
# per action choice: the exemplar name and the micro nodes its actions
# shift, in the micro model's causal order
_MACRO_CHOICES = {"act-on-1s": ("macro1", ("X1", "Y1")),
                  "act-on-2s": ("macro2", ("Y2", "X2"))}


def macro_pair(action_choice: str = "act-on-1s", shift: float = 1.0) -> Exemplar:
    """Averages Xbar = (X1+X2)/2, Ybar = (Y1+Y2)/2 over the micro model
    Y1 = X1, X2 = Y2.

    Whoever moves the averages through the index-1 variables concludes
    Xbar -> Ybar; acting through the index-2 variables yields the opposite
    direction. Identically, Xbar = Ybar holds in every state.

    The macro model is the exact transformation of the micro one by the
    averaging map W: action ``shift-v`` adds W (shift S[:, v]) to the
    averages, with S the micro mixing matrix. The average that one action
    moves alone is the effect; the cause takes the law of its row of W S
    over the micro noises, and the effect copies it.
    """
    if action_choice not in _MACRO_CHOICES:
        raise ScmError("action_choice must be 'act-on-1s' or 'act-on-2s'")
    if not (math.isfinite(shift) and shift != 0):
        raise ScmError("shift must be finite and nonzero")
    name, shifted = _MACRO_CHOICES[action_choice]
    s = _MICRO.mixing()
    actions, alone = [], []
    for v in shifted:
        delta = _AVERAGING @ (shift * s[:, _MICRO.nodes.index(v)])
        deltas = {m: float(d) for m, d in zip(_MACRO_NODES, delta) if d != 0}
        actions.append(unit_action_from_spec(
            f"shift-{v}", {"kind": "add-constant", "deltas": deltas}))
        if len(deltas) == 1:
            alone.extend(deltas)
    (effect,) = alone
    (cause,) = (m for m in _MACRO_NODES if m != effect)

    row = (_AVERAGING @ s)[_MACRO_NODES.index(cause)]
    supports = [spec.support() for spec in _MICRO.noises]
    law = NoiseSpec.finite(
        [float(row @ atoms) for atoms in itertools.product(*(a for a, _ in supports))],
        [math.prod(p) for p in itertools.product(*(p for _, p in supports))])
    a = np.zeros((2, 2))
    a[_MACRO_NODES.index(effect), _MACRO_NODES.index(cause)] = 1.0
    noises = {cause: law, effect: NoiseSpec.degenerate(0.0)}
    linear = LinearScm(_MACRO_NODES, a, np.zeros(2),
                       tuple(noises[m] for m in _MACRO_NODES))
    scm = linear.general()
    return Exemplar(
        name=name,
        ground_truth=linear.graph(),
        scm=scm,
        unit_actions=tuple(actions),
        sampler=scm.simulate,
        notes={"action_choice": action_choice, "shift": shift},
    )


# ---------------------------------------------------------------------------
# Example: ball track
# ---------------------------------------------------------------------------


def ball_track(start_distribution_param: float = 0.6,
               barrier_offset: int = 0) -> Exemplar:
    """Ball on a track: start position X, measured speed Y; truth X -> Y.

    Speeds live on a quarter-unit lattice: the height-to-speed map is an
    increasing square-root law quantized by the sensor, the barrier offset
    subtracts lattice steps, and measurement jitter is one lattice step.
    The statistical actions change the start-position distribution (older
    children start higher) or move the light barrier one step.
    """
    theta = float(start_distribution_param)
    if not 0 < theta < math.inf:
        raise ScmError("start_distribution_param must be positive and finite")
    positions = range(4)
    # sqrt speed law in quarter units, sensor-quantized
    speed_units = [round(4 * math.sqrt(x + 1)) for x in positions]
    jitter = ((-1, 0.25), (0, 0.5), (1, 0.25))
    offset = int(barrier_offset)

    def outcomes(t: float, o: int) -> list:
        with np.errstate(over="ignore", invalid="ignore"):
            w = t ** np.array(positions, dtype=float)
            px = w / w.sum()
        if not np.isfinite(px).all():
            raise ScmError(f"start law weights {t!r}**x overflow; "
                           f"start_distribution_param={theta!r} is too extreme")
        return [((x, (speed_units[x] + nz - 2 * o) * 0.25), px[x] * pn)
                for x in positions for nz, pn in jitter]

    levels, (baseline, older, moved) = _tabulate(("X", "Y"), [
        outcomes(theta, offset), outcomes(1.0 / theta, offset),
        outcomes(theta, offset + 1)])
    return Exemplar(
        name="balltrack",
        ground_truth=Dag(("X", "Y"), [("X", "Y")]),
        baseline=baseline,
        statistical_actions=(StatisticalAction("older-children", older),
                             StatisticalAction("move-barrier", moved)),
        sampler=_level_sampler(baseline, levels),
        notes={
            "start_distribution_param": theta,
            "barrier_offset": offset,
            "levels": {"X": list(levels[0]), "Y": list(levels[1])},
        },
    )


# ---------------------------------------------------------------------------
# Example: farmers' countertrade
# ---------------------------------------------------------------------------


def farmers(exchange_factor: float = 2.0, potato_elasticity: float = 0.0,
            factor_change: float = 1.5) -> Exemplar:
    """Potatoes against eggs: KE = KP * F with negotiated factor F.

    Potato demand follows a constant-elasticity law KP = B * F^(-e) with a
    random base quantity B. The single action family renegotiates F. With
    elasticity 0, KP is robust to the change and the verdict is KP -> KE;
    at the egg-invariance elasticity 1 the direction flips; anything in
    between is a declared grey zone.
    """
    e = float(potato_elasticity)
    f0 = float(exchange_factor)
    change = float(factor_change)
    if not all(map(math.isfinite, (e, f0, change))):
        raise ScmError("exchange_factor, potato_elasticity and factor_change "
                       "must be finite")
    if f0 <= 0 or change <= 0 or change == 1.0:
        raise ScmError("need positive exchange_factor and factor_change != 1")
    f1 = f0 * change
    base = np.array([80.0, 90.0, 100.0, 110.0, 120.0])
    base_probs = np.array([0.1, 0.2, 0.4, 0.2, 0.1])

    def outcomes(f: float) -> list:
        with np.errstate(over="ignore"):
            kp = base * np.power(f, -e)
            ke = kp * f
        if not (np.isfinite(kp).all() and np.isfinite(ke).all()):
            raise ScmError(f"quantities overflow at exchange factor {f!r}; "
                           "exchange_factor or potato_elasticity is too extreme")
        return list(zip(zip(np.round(kp, 9), np.round(ke, 9)), base_probs))

    levels, (baseline, changed) = _tabulate(("KP", "KE"), [outcomes(f0), outcomes(f1)])
    if e < 0.5:
        truth = Dag(("KP", "KE"), [("KP", "KE")])
    else:
        truth = Dag(("KP", "KE"), [("KE", "KP")])
    return Exemplar(
        name="farmers",
        ground_truth=truth,
        baseline=baseline,
        statistical_actions=(StatisticalAction("change-F", changed),),
        sampler=_level_sampler(baseline, levels),
        notes={
            "exchange_factor": f0, "potato_elasticity": e,
            "factor_change": change,
            "grey_zone": e not in (0.0, 1.0),
            "levels": {"KP": list(levels[0]), "KE": list(levels[1])},
        },
    )


def _level_sampler(baseline: DiscreteJoint,
                   levels: Sequence[Sequence[float]]) -> Callable[[int, int], Dataset]:
    """Rows drawn from ``baseline``, each level index replaced by its value
    in ``levels`` (one sequence per variable)."""
    values = [np.asarray(lv, dtype=float) for lv in levels]

    def sample(m: int, seed: int) -> Dataset:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        idx = baseline.sample(m, rng)
        return Dataset(baseline.names,
                       np.column_stack([v[idx[:, k]] for k, v in enumerate(values)]),
                       seed)

    return sample


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXEMPLARS: dict[str, Callable[..., Exemplar]] = {
    "urn2": urn_bivariate,
    "urnN": urn_chain,
    "bundles": bundles_chain,
    "rabbits1": lambda **kw: rabbits(scenario=1, **kw),
    "rabbits2": lambda **kw: rabbits(scenario=2, **kw),
    "macro1": lambda **kw: macro_pair(action_choice="act-on-1s", **kw),
    "macro2": lambda **kw: macro_pair(action_choice="act-on-2s", **kw),
    "balltrack": ball_track,
    "farmers": farmers,
}


def build_exemplar(name: str, **params) -> Exemplar:
    if name not in EXEMPLARS:
        raise KeyError(f"unknown exemplar {name!r}; known: {sorted(EXEMPLARS)}")
    return EXEMPLARS[name](**params)
