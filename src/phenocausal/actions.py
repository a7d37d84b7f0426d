"""Classification of elementary actions against candidate causal DAGs.

A candidate graph is *valid* for a suite of actions when every action can
be assigned to a single node whose causal mechanism is the only thing the
action touches. Two encodings are supported:

* statistical -- an action is a replacement joint distribution; it is
  assigned to the unique node whose causal conditional (w.r.t. the
  candidate graph) differs from the baseline. The baseline itself must be
  Markov to the candidate: a graph whose independences the unperturbed
  system already contradicts cannot be the graph under which actions
  single out mechanisms.

* unit level -- an action is a state map. For a candidate graph we ask
  whether there exist per-node structural maps, affine in the parents with
  coefficients shared across units (intercepts absorb the per-unit noise),
  such that each action breaks at most its own node's equation. With
  displacement vectors d = post - pre, an action sits in class j exactly
  when (I - C) d is supported on {j}. The class needs no search: in any
  unit the action moves, the first node in topological order that moves
  has its parents still, so the action is forced onto that node. What is
  left is a least-squares consistency check of each node's equation under
  the forced assignment. An edge whose coefficient the action suite forces
  to zero is treated as unwitnessed and invalidates the candidate.

Identity actions (no detectable change) are classifiable to any node and
are reported separately; they never cause violations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .graphs import DAG_ENUMERATION_CAP, Dag, _walk, all_dags
from .scm import GeneralScm
from .tables import (DiscreteJoint, _local_statements, _worst_local_residual,
                     ci_residual, factor_distance)

__all__ = [
    "StatisticalAction",
    "UnitAction",
    "unit_action_from_spec",
    "VerdictKind",
    "ActionVerdict",
    "ClassificationReport",
    "ClassificationError",
    "classify_statistical",
    "classify_unit",
    "valid_graphs",
    "DirectionVerdict",
    "bivariate_direction",
]

class ClassificationError(ValueError):
    """Invalid classification request (mismatched variables, cap exceeded)."""


def _integer(name: str, value) -> int:
    """``value`` as an int (numpy integers pass); anything else is refused
    with a ClassificationError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ClassificationError(f"{name} must be an integer, got {value!r}") from None


def _check_kind(actions: Sequence, kind: type, mode: str) -> None:
    """Refuse an action that is not a ``kind``, naming it and the mode."""
    for action in actions:
        if not isinstance(action, kind):
            raise ClassificationError(
                f"action {getattr(action, 'label', action)!r} is a "
                f"{type(action).__name__}; {mode} mode takes {kind.__name__}s")


# ---------------------------------------------------------------------------
# Action containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatisticalAction:
    """A system transformation given by its effect on the joint distribution.

    ``effect`` is the post-action joint, or a callable producing it from
    the baseline. Deliberately not labeled with a target node; the target
    is what classification determines.
    """

    label: str
    effect: DiscreteJoint | Callable[[DiscreteJoint], DiscreteJoint]

    def resolve(self, baseline: DiscreteJoint) -> DiscreteJoint:
        out = self.effect(baseline) if callable(self.effect) else self.effect
        if set(out.names) != set(baseline.names):
            raise ClassificationError(
                f"action {self.label!r} changes the variable set")
        return out.permute(baseline.names)


@dataclass(frozen=True)
class UnitAction:
    """A (possibly partial) map from system states to system states.

    ``columns(x, nodes)`` applies the map to states stacked as the rows of
    ``x`` (columns in ``nodes`` order) and returns the mask of the units it
    applies to and the post-states of every unit. ``spec`` optionally
    records a serializable description (one of the parametric map
    families).
    """

    label: str
    columns: Callable[[np.ndarray, Sequence[str]], tuple[np.ndarray, np.ndarray]]
    spec: dict | None = None

    def to_json_obj(self) -> dict:
        return {"label": self.label, "map": self.spec or {"kind": "opaque"}}


def unit_action_from_spec(label: str, spec: Mapping) -> UnitAction:
    """Build a unit action from a serializable map-spec.

    Families: ``add-constant`` (per-variable deltas, with
    ``requires_positive`` listing variables that must be > 0 beforehand)
    and ``scale`` (per-variable factors). Any other kind raises
    ``ClassificationError``, and so does applying the map to a system that
    lacks a variable the spec names.
    """
    spec = dict(spec)
    kind = spec.get("kind")

    def index(nodes: Sequence[str], names) -> list[int]:
        col = {v: i for i, v in enumerate(nodes)}
        for v in names:
            if v not in col:
                raise ClassificationError(
                    f"action {label!r} names variable {v!r}, which the system lacks")
        return [col[v] for v in names]

    if kind == "add-constant":
        deltas = {k: float(v) for k, v in spec.get("deltas", {}).items()}
        requires = tuple(spec.get("requires_positive", ()))

        def add_columns(x: np.ndarray, nodes: Sequence[str]):
            needs, moved = index(nodes, requires), index(nodes, deltas)
            post = x.copy()
            for i, v in zip(moved, deltas.values()):
                post[:, i] += v
            return ~(x[:, needs] <= 0).any(axis=1), post

        return UnitAction(label, add_columns, {"kind": kind, "deltas": deltas,
                                               "requires_positive": list(requires)})
    if kind == "scale":
        factors = {k: float(v) for k, v in spec.get("factors", {}).items()}

        def scale_columns(x: np.ndarray, nodes: Sequence[str]):
            post = x.copy()
            for i, v in zip(index(nodes, factors), factors.values()):
                post[:, i] *= v
            return np.ones(len(x), dtype=bool), post

        return UnitAction(label, scale_columns, {"kind": kind, "factors": factors})
    raise ClassificationError(f"unknown map-spec kind {kind!r}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class VerdictKind(str, Enum):
    ASSIGNED = "assigned"
    IDENTITY = "identity"
    VIOLATION = "violation"


@dataclass(frozen=True)
class ActionVerdict:
    label: str
    kind: VerdictKind
    node: str | None = None
    detail: str = ""

    def to_json_obj(self) -> dict:
        return {"label": self.label, "kind": self.kind.value,
                "node": self.node, "detail": self.detail}


@dataclass(frozen=True)
class ClassificationReport:
    graph: Dag
    verdicts: tuple[ActionVerdict, ...]
    diagnostics: dict = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return all(v.kind is not VerdictKind.VIOLATION for v in self.verdicts)

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph.to_json_obj(),
            "valid": self.valid,
            "verdicts": [v.to_json_obj() for v in self.verdicts],
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# Statistical classification
# ---------------------------------------------------------------------------


def classify_statistical(g: Dag, baseline: DiscreteJoint,
                         actions: Sequence[StatisticalAction],
                         eps: float = 1e-9) -> ClassificationReport:
    """Classify replacement-distribution actions against ``g``.

    Each action is assigned the unique node whose causal conditional it
    changes; an empty change set is an identity, two or more changed
    conditionals a violation. The baseline must satisfy ``g``'s Markov
    condition; a failure is reported as a violation attributed to the
    baseline itself.
    """
    return _StatisticalSuite(baseline, actions, eps).classify(g)


class _StatisticalSuite:
    """Replacement-distribution actions against one baseline, with every
    node-local quantity computed once for all graphs classified.

    Whether an action changes v's conditional depends on (v, pa(v)) alone,
    and each local Markov residual on (v, nondesc(v), pa(v)), so candidate
    graphs that share those keys share the values. Joint 0 is the baseline,
    joint a + 1 the effect of action a, resolved on first use.
    """

    def __init__(self, baseline: DiscreteJoint,
                 actions: Sequence[StatisticalAction], eps: float):
        if not eps >= 0:
            raise ClassificationError(f"eps must be a number >= 0, got {eps!r}")
        self.actions = tuple(actions)
        _check_kind(self.actions, StatisticalAction, "statistical")
        self.baseline = baseline
        self.eps = eps
        self._joints: dict[int, DiscreteJoint] = {0: baseline}
        self._distances: dict[tuple, float] = {}
        self._residuals: dict[tuple, float] = {}

    def _joint(self, j: int) -> DiscreteJoint:
        if j not in self._joints:
            self._joints[j] = self.actions[j - 1].resolve(self.baseline)
        return self._joints[j]

    def _changed(self, a: int, g: Dag) -> tuple[str, ...]:
        """``changed_factors(baseline, effect of action a, g, eps)``."""
        out = []
        for v in g.nodes:
            key = (a, v, g.parents(v))
            if key not in self._distances:
                self._distances[key] = factor_distance(
                    self.baseline, self._joint(a + 1), g, v)
            if self._distances[key] > self.eps:
                out.append(v)
        return tuple(out)

    def candidates(self) -> Iterator[Dag]:
        """The DAGs of ``all_dags`` in which no action changes two or more
        conditionals; any other DAG is invalid whatever its Markov
        statements say."""
        for g in all_dags(self.baseline.names):
            if all(len(self._changed(k, g)) < 2 for k in range(len(self.actions))):
                yield g

    def _markov(self, j: int, statements) -> tuple[bool, tuple | None, float]:
        """``markov_report(joint j, g)`` from the statements of ``g``."""

        def residual(v, nondesc, pa):
            key = (j, v, nondesc, pa)
            if key not in self._residuals:
                self._residuals[key] = ci_residual(self._joint(j), (v,), nondesc, pa)
            return self._residuals[key]

        return _worst_local_residual(statements, residual, max(self.eps, 1e-9))

    def classify(self, g: Dag) -> ClassificationReport:
        if set(self.baseline.names) != set(g.nodes):
            raise ClassificationError("baseline variables differ from graph nodes")
        statements = _local_statements(g)
        verdicts: list[ActionVerdict] = []
        diagnostics: dict = {"changed": {}}
        ok, triple, worst = self._markov(0, statements)
        if not ok:
            a, b, c = triple
            verdicts.append(ActionVerdict(
                "(baseline)", VerdictKind.VIOLATION, None,
                f"baseline violates {a} _||_ {b} | {c} implied by the graph "
                f"(residual {worst:.3g})"))
        for k, action in enumerate(self.actions):
            changed = self._changed(k, g)
            diagnostics["changed"][action.label] = list(changed)
            if len(changed) >= 2:
                verdicts.append(ActionVerdict(
                    action.label, VerdictKind.VIOLATION, None,
                    f"changes conditionals of {list(changed)}"))
                continue
            # a true single-factor change preserves Markovness exactly, so a
            # non-Markov effect is a violation hiding in a missing edge
            ok, triple, worst = self._markov(k + 1, statements)
            if not ok:
                a, b, c = triple
                verdicts.append(ActionVerdict(
                    action.label, VerdictKind.VIOLATION, None,
                    f"effect violates {a} _||_ {b} | {c} implied by the "
                    f"graph (residual {worst:.3g})"))
                continue
            if not changed:
                verdicts.append(ActionVerdict(action.label, VerdictKind.IDENTITY))
            else:
                verdicts.append(ActionVerdict(action.label, VerdictKind.ASSIGNED,
                                              changed[0]))
        return ClassificationReport(g, tuple(verdicts), diagnostics)


# ---------------------------------------------------------------------------
# Unit-level classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Displacements:
    """Deduplicated post-minus-pre state changes for one action suite."""

    columns: tuple[str, ...]
    labels: tuple[str, ...]
    rows: tuple[np.ndarray, ...]          # per action: (r, n) unique rows
    inapplicable: tuple[bool, ...]


def unit_displacements(scm: GeneralScm, actions: Sequence[UnitAction],
                       trials: int, seed: int) -> _Displacements:
    """Apply every action to ``trials`` sampled baseline states at once and
    collect the unique displacement vectors per action (in scm node order,
    rounded to 12 decimals). A displacement that is not finite, or too
    large to round, is refused: it has no consistent equation. A
    non-integer ``trials`` or ``seed``, a negative seed and an action that is
    not a UnitAction are refused before any state is sampled."""
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    if trials < 1:
        raise ClassificationError(f"need at least one trial, got {trials}")
    if seed < 0:
        raise ClassificationError(f"seed must be >= 0, got {seed}")
    actions = tuple(actions)
    _check_kind(actions, UnitAction, "unit")
    state = scm.evaluate(scm.sample_noise(trials, seed))
    x = np.column_stack([np.broadcast_to(state[v], trials) for v in scm.nodes]
                        ).astype(float)
    labels, rows, inapplicable = [], [], []
    for action in actions:
        with np.errstate(invalid="ignore", over="ignore"):  # refused below
            applicable, post = action.columns(x, scm.nodes)
            arr = np.round(post[applicable] - x[applicable], 12)
        if not np.isfinite(arr).all():
            raise ClassificationError(
                f"action {action.label!r} gives a non-finite displacement")
        if arr.size:
            arr = np.unique(arr, axis=0)
        labels.append(action.label)
        rows.append(arr)
        inapplicable.append(not applicable.all())
    return _Displacements(tuple(scm.nodes), tuple(labels), tuple(rows),
                          tuple(inapplicable))


def _consistent_solution(m: np.ndarray, b: np.ndarray,
                         eps: float) -> np.ndarray | None:
    """Least-squares solution of m x = b, or None when its residual exceeds
    ``eps`` relative to the largest |b| (at least 1)."""
    if m.shape[0] == 0:
        return np.zeros(m.shape[1])
    tol = eps * max(1.0, float(np.abs(b).max()))
    x0 = np.zeros(0) if m.shape[1] == 0 else np.linalg.lstsq(m, b, rcond=None)[0]
    return x0 if np.abs(m @ x0 - b).max() <= tol else None


def _free_coefficients(m: np.ndarray) -> np.ndarray:
    """Mask of the coefficients that m x = b does not pin down: those the
    null space of m touches."""
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    rank = int((s > max(s.max(initial=0.0) * 1e-10, 1e-12)).sum())
    return (np.abs(vt[rank:]) > 1e-8).any(axis=0)


class _UnitSuite:
    """Unit displacements of one action suite, with every node-local result
    computed once for all graphs classified.

    Validity is a conjunction of facts about (v, pa(v)): the non-identity
    actions forced onto v, and whether v's equation (the rows of the other
    non-identity actions, in action order) is consistent with no zero-forced
    edge. ``equation`` holds that record once per (v, pa(v)), and both
    ``candidates`` and the accept path of ``classify`` read it, so the unit
    rule is stated once. The blame pass of ``classify`` solves other blocks
    through ``solution``, keyed by (v, pa(v), the block's actions in
    assignment order): the order is the row order ``lstsq`` sees.
    """

    def __init__(self, disp: _Displacements, eps: float):
        if not eps >= 0:
            raise ClassificationError(f"eps must be a number >= 0, got {eps!r}")
        self.disp = disp
        self.eps = eps
        self.col = {name: k for k, name in enumerate(disp.columns)}
        self.identity = [bool(r.size == 0 or np.abs(r).max() <= eps)
                         for r in disp.rows]
        self.moved = tuple(a for a, same in enumerate(self.identity) if not same)
        self._equations: dict[tuple, tuple] = {}
        self._solutions: dict[tuple, np.ndarray | None] = {}

    def _system(self, v: str, pa: tuple[str, ...], block: tuple[int, ...]):
        """m x = b for v's coefficients on ``pa`` from the rows of ``block``."""
        if not block:
            return np.empty((0, len(pa))), np.empty(0)
        idx = [self.col[p] for p in pa]
        rows = [self.disp.rows[a] for a in block]
        return (np.vstack([r[:, idx] for r in rows]),
                np.concatenate([r[:, self.col[v]] for r in rows]))

    def solution(self, v: str, pa: tuple[str, ...],
                 block: tuple[int, ...]) -> np.ndarray | None:
        key = (v, pa, block)
        if key not in self._solutions:
            self._solutions[key] = _consistent_solution(*self._system(*key), self.eps)
        return self._solutions[key]

    def equation(self, v: str, pa: tuple[str, ...]
                 ) -> tuple[tuple[int, ...], np.ndarray | None, tuple[str, ...]]:
        """(the non-identity actions forced onto v, v's coefficients on
        ``pa`` or None, the parents whose coefficient is forced to zero).

        An action is forced onto v when one of its units moves v with v's
        parents still. v's equation is the block of the other non-identity
        actions; it has coefficients when the block is consistent, and a
        coefficient within eps of 0 that the block pins down is forced to
        zero.
        """
        key = (v, pa)
        if key not in self._equations:
            rows, cols, eps = self.disp.rows, [self.col[p] for p in pa], self.eps
            forced = tuple(a for a in self.moved if (
                (np.abs(rows[a][:, self.col[v]]) > eps)
                & (np.abs(rows[a][:, cols]) <= eps).all(axis=1)).any())
            block = tuple(a for a in self.moved if a not in forced)
            x0 = self.solution(v, pa, block)
            zero: tuple[str, ...] = ()
            if x0 is not None and (np.abs(x0) <= eps).any():
                free = _free_coefficients(self._system(v, pa, block)[0])
                zero = tuple(p for p, x, f in zip(pa, x0, free) if not f and abs(x) <= eps)
            self._equations[key] = forced, x0, zero
        return self._equations[key]

    def candidates(self) -> list[Dag]:
        """The DAGs that ``classify`` finds valid, in ``all_dags`` order.

        A DAG is valid exactly when each node's ``equation`` record has
        coefficients and no zero-forced parent, and the forced sets are
        pairwise disjoint and cover every non-identity action. So each
        parent set is checked once, and ``graphs._walk`` combines the ones
        that pass, with the forced sets as marks.
        """
        nodes = self.disp.columns
        if any(self.disp.inapplicable):
            return []
        n = len(nodes)
        options: list[dict[int, int]] = [{} for _ in nodes]
        for i, v in enumerate(nodes):
            for pmask in range(1 << n):
                if not pmask >> i & 1:
                    forced, x0, zero = self.equation(
                        v, tuple(nodes[j] for j in range(n) if pmask >> j & 1))
                    if x0 is not None and not zero:
                        options[i][pmask] = sum(1 << a for a in forced)
        cover = sum(1 << a for a in self.moved)
        return [Dag(nodes, edges) for edges in _walk(nodes, options, cover)]

    def classify(self, g: Dag) -> ClassificationReport:
        """Assign every non-identity action to the node it is forced onto.

        Take a unit the action moves and the first node, in ``g``'s
        topological order, that moves by more than eps: its parents come
        earlier and stay still, so only its own equation can absorb the
        move. With finite displacements and eps >= 0 every non-identity
        action is therefore forced onto at least one node, and that node is
        its only possible class. An action forced onto two or more nodes is
        a violation. Otherwise ``g`` is valid when every node's ``equation``
        record has coefficients; when one has none, an in-order pass blames
        each action whose placement breaks some equation.
        """
        if set(g.nodes) != set(self.disp.columns):
            raise ClassificationError("graph nodes differ from system variables")
        disp = self.disp
        if any(disp.inapplicable):
            return ClassificationReport(g, tuple(
                ActionVerdict(label, VerdictKind.VIOLATION, None,
                              "inapplicable on a sampled state")
                for label, refused in zip(disp.labels, disp.inapplicable) if refused),
                {"reason": "inapplicable actions"})
        parents = {v: g.parents(v) for v in g.nodes}
        records = {v: self.equation(v, parents[v]) for v in g.nodes}
        forced = [tuple(v for v in g.nodes if a in records[v][0])
                  for a in range(len(disp.labels))]
        if (all(len(nodes) <= 1 for nodes in forced)
                and all(x0 is not None for _, x0, _ in records.values())):
            coeffs = {f"{p}->{v}": float(x) for v, (_, x0, _) in records.items()
                      for p, x in zip(parents[v], x0)}
            zero_forced = [f"{p}->{v}" for v, (_, _, zero) in records.items()
                           for p in zero]
            verdicts = [ActionVerdict(label, VerdictKind.IDENTITY) if self.identity[a]
                        else ActionVerdict(label, VerdictKind.ASSIGNED, forced[a][0])
                        for a, label in enumerate(disp.labels)]
            if zero_forced:
                verdicts.append(ActionVerdict(
                    "(graph)", VerdictKind.VIOLATION, None,
                    f"action suite forces zero coefficient on edge(s) "
                    f"{', '.join(zero_forced)}"))
            return ClassificationReport(g, tuple(verdicts), {"coefficients": coeffs})

        def feasible(assignment: dict[int, str]) -> bool:
            """Whether every node's equation, the rows of the actions not
            assigned to it in assignment order, is consistent."""
            return all(self.solution(v, parents[v], tuple(
                a for a, cls in assignment.items() if cls != v)) is not None
                for v in g.nodes)

        # Blame: place the actions in order, each on its forced node; an
        # action whose placement makes some equation inconsistent is the
        # violation and stays unplaced.
        verdicts = []
        assignment = {}
        for a, label in enumerate(disp.labels):
            if self.identity[a]:
                verdicts.append(ActionVerdict(label, VerdictKind.IDENTITY))
            elif len(forced[a]) >= 2:
                verdicts.append(ActionVerdict(
                    label, VerdictKind.VIOLATION, None,
                    f"breaks equations of {list(forced[a])}"))
            else:
                assignment[a] = forced[a][0]
                if feasible(assignment):
                    verdicts.append(ActionVerdict(label, VerdictKind.ASSIGNED,
                                                  forced[a][0]))
                else:
                    del assignment[a]
                    verdicts.append(ActionVerdict(
                        label, VerdictKind.VIOLATION, None,
                        "no class assignment keeps the other equations consistent"))
        return ClassificationReport(g, tuple(verdicts), {"reason": "no assignment"})


def classify_unit(g: Dag, scm: GeneralScm, actions: Sequence[UnitAction],
                  trials: int = 1000, seed: int = 0,
                  eps: float = 1e-9) -> ClassificationReport:
    """Classify state-map actions against ``g`` on sampled units."""
    disp = unit_displacements(scm, actions, trials, seed)
    return classify_unit_displacements(g, disp, eps)


def classify_unit_displacements(g: Dag, disp: _Displacements,
                                eps: float = 1e-9) -> ClassificationReport:
    return _UnitSuite(disp, eps).classify(g)


# ---------------------------------------------------------------------------
# Graph enumeration and bivariate verdicts
# ---------------------------------------------------------------------------


def valid_graphs(baseline, actions, eps: float = 1e-9, mode: str = "statistical",
                 trials: int = 1000, seed: int = 0) -> list[tuple[Dag, ClassificationReport]]:
    """All DAGs over the system's variables that classify without violation,
    in ``all_dags`` order.

    ``baseline`` is a DiscreteJoint in statistical mode and a GeneralScm in
    unit mode. More than ``DAG_ENUMERATION_CAP`` (5) nodes are refused
    before any work. Every test behind a verdict is local to a node, so each
    runs once per call and later candidates look it up. In statistical mode
    the candidates are the DAGs of ``all_dags`` in which no action changes
    two or more conditionals (``_StatisticalSuite.candidates``); in unit
    mode they come from a search over each node's parent sets
    (``_UnitSuite.candidates``). Either way only candidates are classified,
    and each returned report equals that of classifying its graph alone.
    """
    if mode == "statistical":
        if not isinstance(baseline, DiscreteJoint):
            raise ClassificationError("statistical mode needs a DiscreteJoint baseline")
        nodes = baseline.names
    elif mode == "unit":
        if not isinstance(baseline, GeneralScm):
            raise ClassificationError("unit mode needs a GeneralScm system")
        nodes = baseline.nodes
    else:
        raise ClassificationError(f"unknown mode {mode!r}")
    if len(nodes) > DAG_ENUMERATION_CAP:
        raise ClassificationError(
            f"{len(nodes)} nodes exceeds exhaustive cap {DAG_ENUMERATION_CAP}")
    suite = (_StatisticalSuite(baseline, actions, eps) if mode == "statistical"
             else _UnitSuite(unit_displacements(baseline, actions, trials, seed), eps))
    return [(g, r) for g in suite.candidates() if (r := suite.classify(g)).valid]


class DirectionVerdict(str, Enum):
    X_CAUSES_Y = "XcausesY"
    Y_CAUSES_X = "YcausesX"
    CONFOUNDED = "Confounded"
    UNDETERMINED = "Undetermined"


def bivariate_direction(baseline, actions, mode: str = "statistical",
                        trials: int = 1000, seed: int = 0) -> DirectionVerdict:
    """Direction verdict for a two-variable system.

    X is the first variable, Y the second. XcausesY iff X->Y is the only
    valid graph; Confounded iff only the empty graph validates (the regime
    where every action touches exactly one of the two variables);
    Undetermined when several graphs validate or none does.
    """
    if not isinstance(baseline, (DiscreteJoint, GeneralScm)):
        raise ClassificationError(
            f"bivariate_direction needs a DiscreteJoint or a GeneralScm baseline, "
            f"got {type(baseline).__name__}")
    nodes = baseline.names if isinstance(baseline, DiscreteJoint) else baseline.nodes
    if len(nodes) != 2:
        raise ClassificationError("bivariate_direction needs exactly two variables")
    valid = valid_graphs(baseline, actions, mode=mode, trials=trials, seed=seed)
    return _direction_verdict(valid, *nodes)


def _direction_verdict(valid: Sequence[tuple[Dag, ClassificationReport]],
                       x: str, y: str) -> DirectionVerdict:
    """The verdict of ``bivariate_direction`` from the valid graphs over
    (x, y)."""
    keys = {frozenset(g.edges) for g, _ in valid}
    if len(keys) != 1:
        return DirectionVerdict.UNDETERMINED
    return {frozenset({(x, y)}): DirectionVerdict.X_CAUSES_Y,
            frozenset({(y, x)}): DirectionVerdict.Y_CAUSES_X,
            frozenset(): DirectionVerdict.CONFOUNDED}[keys.pop()]
