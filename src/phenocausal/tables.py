"""Exact joint distributions over finitely many named variables.

Probability tables are the verification backbone of this package: every
formal claim that can be checked at all is checked here in exact
double-precision arithmetic, with tolerances around 1e-9..1e-12 rather than
sampling error. Tables are immutable numpy arrays; all operations return
new values.

Zero-probability conditioning contexts are never fabricated: conditional
tables flag them as undefined, and factor-change detection compares only
the contexts that both distributions being compared reach.

Every check here is a question about conditionals, so the conditional is
the cached unit: ``conditional(p, target, given)`` is computed once per
joint, straight from ``p``'s array, and kept on ``p`` for every later call
(the joint is frozen and its array read-only). Only returned values are
validated; no intermediate joint is built on the way. ``changed_factors``
compares two joints' conditionals in one stacked pass and keeps none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .graphs import Dag

__all__ = [
    "DiscreteJoint",
    "ConditionalTable",
    "TableError",
    "factorize",
    "product_joint",
    "conditional",
    "is_markov",
    "markov_report",
    "ci_residual",
    "hard_intervention",
    "soft_intervention",
    "changed_factors",
    "factor_distance",
    "tv_distance",
    "MAX_TABLE_ENTRIES",
]

# Exact tables are an oracle, not a scalability claim.
MAX_TABLE_ENTRIES = 1 << 20

_SUM_TOL = 1e-12


class TableError(ValueError):
    """Malformed probability table or mismatched table arguments."""


@dataclass(frozen=True)
class DiscreteJoint:
    """Exact joint distribution, one axis per variable.

    ``names`` orders the variables; ``probs`` has shape equal to the
    variable cardinalities, entries finite, nonnegative and summing to one
    within 1e-12.
    """

    names: tuple[str, ...]
    probs: np.ndarray
    # conditional(self, target, given) by (target, given); sound because the
    # joint is frozen and its array read-only
    _conditionals: dict = field(init=False, repr=False, compare=False)

    def __init__(self, names: Iterable[str], probs: np.ndarray):
        names = tuple(names)
        probs = np.asarray(probs, dtype=float)
        if len(set(names)) != len(names):
            raise TableError(f"duplicate variable names in {names}")
        if probs.ndim != len(names):
            raise TableError(
                f"table has {probs.ndim} axes for {len(names)} variables")
        if probs.size > MAX_TABLE_ENTRIES:
            raise TableError(
                f"table with {probs.size} entries exceeds cap {MAX_TABLE_ENTRIES}")
        total = float(probs.sum())
        if not math.isfinite(total):  # a NaN entry passes both checks below
            raise TableError(f"non-finite entries: they sum to {total!r}")
        if probs.size and probs.min() < -1e-15:
            raise TableError(f"negative entry {probs.min()}")
        if abs(total - 1.0) > _SUM_TOL:
            raise TableError(f"entries sum to {total!r}, not 1 within {_SUM_TOL}")
        probs = np.where(probs < 0.0, 0.0, probs)
        probs.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_conditionals", {})

    @property
    def cards(self) -> tuple[int, ...]:
        return self.probs.shape

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise TableError(f"unknown variable {name!r}; have {list(self.names)}")

    def marginal(self, names: Iterable[str]) -> "DiscreteJoint":
        """Marginal over ``names`` (kept in this joint's variable order)."""
        names = tuple(names)
        keep = [n for n in self.names if n in names]
        missing = set(names) - set(keep)
        if missing:
            raise TableError(f"unknown variable(s) {sorted(missing)}")
        drop = tuple(i for i, n in enumerate(self.names) if n not in keep)
        return DiscreteJoint(keep, self.probs.sum(axis=drop) if drop else self.probs)

    def permute(self, names: Iterable[str]) -> "DiscreteJoint":
        names = tuple(names)
        if names == self.names:
            return self
        if set(names) != set(self.names) or len(names) != len(self.names):
            raise TableError("permute requires the same variable set")
        order = [self.axis(n) for n in names]
        return DiscreteJoint(names, np.transpose(self.probs, order))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` rows of value indices, shape (n, len(names))."""
        flat = self.probs.reshape(-1)
        idx = rng.choice(flat.size, size=n, p=flat)
        return np.stack(np.unravel_index(idx, self.probs.shape), axis=1)

    def to_json_obj(self) -> dict:  # keys in sorted order
        return {
            "probs": [float(v) for v in self.probs.reshape(-1)],
            "variables": [{"cardinality": int(c), "name": n}
                          for n, c in zip(self.names, self.cards)],
        }


def _cells(columns: Sequence[np.ndarray]
           ) -> tuple[tuple[np.ndarray, ...], np.ndarray, tuple[int, ...]]:
    """Each column's sorted distinct values, each row's flat cell index in
    the table over those levels, and that table's shape. A table above
    ``MAX_TABLE_ENTRIES`` is refused before anything of its size exists."""
    levels = tuple(np.unique(c) for c in columns)
    shape = tuple(lv.size for lv in levels)
    if math.prod(shape) > MAX_TABLE_ENTRIES:
        raise TableError(f"level grid {shape} exceeds cap {MAX_TABLE_ENTRIES}")
    codes = [np.searchsorted(lv, c) for lv, c in zip(levels, columns)]
    return levels, np.ravel_multi_index(codes, shape), shape


def _tabulate(names: Sequence[str],
              outcomes: Sequence[tuple[Sequence[np.ndarray], np.ndarray]]
              ) -> tuple[tuple[tuple, ...], list[DiscreteJoint]]:
    """Joints over ``names`` from (value columns, weights) outcomes.

    Each outcome holds one value column per variable and one weight per
    row. Rows of zero weight are dropped, so a value only they reach is no
    level; the weights of equal rows are added in row order (one
    ``np.bincount``). Returns the sorted levels of each variable as Python
    scalars, shared by all outcomes, and one joint over level indices per
    outcome.
    """
    kept = [([c[w != 0.0] for c in columns], w[w != 0.0]) for columns, w in outcomes]
    levels, cells, shape = _cells([np.concatenate(parts)
                                   for parts in zip(*(c for c, _ in kept))])
    parts = np.split(cells, np.cumsum([w.size for _, w in kept])[:-1])
    joints = [DiscreteJoint(names, np.bincount(part, weights=w, minlength=math.prod(shape))
                            .reshape(shape))
              for part, (_, w) in zip(parts, kept)]
    return tuple(tuple(lv.tolist()) for lv in levels), joints


@dataclass(frozen=True)
class ConditionalTable:
    """p(target | given), stored with the conditioning axes first.

    ``table`` has shape (*given_cards, target_card); each defined slice has
    finite, nonnegative entries summing to one within 1e-12. Slices whose
    conditioning context has probability zero are flagged in ``defined``
    (False) and hold NaN rather than an invented distribution.
    """

    target: str
    given: tuple[str, ...]
    table: np.ndarray
    defined: np.ndarray

    def __init__(self, target: str, given: Iterable[str], table: np.ndarray,
                 defined: np.ndarray | None = None):
        given = tuple(given)
        table = np.asarray(table, dtype=float)
        if table.ndim != len(given) + 1:
            raise TableError(
                f"table has {table.ndim} axes; expected {len(given) + 1}")
        if defined is None:
            defined = np.ones(table.shape[:-1], dtype=bool)
        defined = np.array(defined, dtype=bool)
        if defined.shape != table.shape[:-1]:
            raise TableError("defined mask shape mismatch")
        # entries of undefined slices are never read. NaN and -inf show in
        # the lowest entry and +inf in the worst sum; taking the lowest entry
        # first keeps inf - inf out of the sums.
        inside = defined[..., None]
        lowest = float(np.minimum.reduce(table, axis=None, where=inside, initial=0.0))
        if not math.isfinite(lowest):
            raise TableError("non-finite entries in a defined slice")
        if lowest < -1e-15:
            raise TableError(f"negative entry {lowest} in a defined slice")
        worst = float(np.maximum.reduce(
            np.abs(np.add.reduce(table, axis=-1, where=inside) - 1.0),
            axis=None, where=defined, initial=0.0))
        if not math.isfinite(worst):
            raise TableError("non-finite entries in a defined slice")
        if worst > _SUM_TOL:
            raise TableError("a defined conditional slice does not sum to 1")
        # sums over a table add in its memory order: keep every table C-ordered
        table = np.ascontiguousarray(np.where(inside, table, np.nan))
        table.flags.writeable = False
        defined.flags.writeable = False
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "defined", defined)


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def _check_same_variables(p: DiscreteJoint, g: Dag) -> None:
    if set(p.names) != set(g.nodes):
        raise TableError(
            f"variable mismatch: table has {sorted(p.names)}, graph has "
            f"{sorted(g.nodes)}")


def factorize(p: DiscreteJoint, g: Dag) -> list[ConditionalTable]:
    """One conditional table per node, conditioned on its parents in ``g``.

    Returned in ``g``'s node order; on strictly positive joints the product
    of the tables reconstructs ``p`` entrywise.
    """
    _check_same_variables(p, g)
    return [conditional(p, node, g.parents(node)) for node in g.nodes]


def conditional(p: DiscreteJoint, target: str, given: Iterable[str]) -> ConditionalTable:
    """p(target | given), computed once per joint and then looked up."""
    given = tuple(given)
    key = (target, given)
    memo = p._conditionals
    if key not in memo:
        memo[key] = _conditional(p, target, given)
    return memo[key]


def _conditional(p: DiscreteJoint, target: str, given: tuple[str, ...]
                 ) -> ConditionalTable:
    table, defined = _divide_by_context(_marginal_array(p, (*given, target)))
    return ConditionalTable(target, given, table, defined)


def _divide_by_context(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, defined) of the conditional of ``sub``'s last axis given its
    other axes: ``defined`` marks the contexts of positive mass."""
    ctx = sub.sum(axis=-1)
    defined = ctx > 0.0
    # the slices of zero-probability contexts stay unset (out=None): no
    # caller reads them
    table = np.divide(sub, ctx[..., None], out=None, where=defined[..., None])
    return table, defined


def _marginal_array(p: DiscreteJoint, names: tuple[str, ...],
                    probs: np.ndarray | None = None) -> np.ndarray:
    """The marginal table of ``p`` over ``names``, axes in that order.

    The values of ``p.marginal(names).permute(names).probs``, laid out in
    the same memory order, so reductions over it add in the same order.
    ``probs`` replaces ``p.probs`` by an array whose last axes are ``p``'s
    and whose leading axes (several joints over ``p``'s variables stacked)
    are kept in front.
    """
    axes = [p.axis(n) for n in names]
    if len(set(axes)) != len(axes):
        raise TableError(f"repeated variable in {list(names)}")
    t = p.probs if probs is None else probs
    lead = t.ndim - len(p.names)
    drop = tuple(lead + i for i in range(len(p.names)) if i not in axes)
    kept = sorted(axes)
    t = t.sum(axis=drop) if drop else t
    return np.transpose(t, [*range(lead), *(lead + kept.index(i) for i in axes)])


def product_joint(g: Dag, factors: Sequence[ConditionalTable]) -> DiscreteJoint:
    """Multiply per-node factors into the joint over ``g``'s node order.

    Undefined slices of a factor are treated as zero mass (their context is
    unreachable, so no mass is lost).
    """
    by_target = {f.target: f for f in factors}
    if set(by_target) != set(g.nodes):
        raise TableError("factors must cover exactly the graph's nodes")
    shape = tuple(by_target[v].table.shape[-1] for v in g.nodes)
    result = np.ones(shape)
    for f in factors:
        if tuple(f.given) != g.parents(f.target):
            raise TableError(
                f"factor for {f.target!r} conditions on {f.given}, graph parents "
                f"are {g.parents(f.target)}")
        tab = np.where(f.defined[..., None], f.table, 0.0)
        axes = [g._index[v] for v in (*f.given, f.target)]
        # transpose the factor so its axes are in ascending destination
        # order, then pad singleton axes for broadcasting
        order = sorted(range(len(axes)), key=axes.__getitem__)
        padded = [1] * len(shape)
        for i in axes:
            padded[i] = shape[i]
        result = result * tab.transpose(order).reshape(padded)
    return DiscreteJoint(g.nodes, result)


# ---------------------------------------------------------------------------
# Conditional independence and the Markov condition
# ---------------------------------------------------------------------------


def ci_residual(p: DiscreteJoint, a: Iterable[str], b: Iterable[str],
                c: Iterable[str] = ()) -> float:
    """Deviation of ``p`` from (a independent of b given c).

    Maximum over positive-probability c-contexts of the total-variation
    distance between p(a, b | c) and p(a | c) p(b | c). Zero means the
    independence holds exactly.
    """
    a, b, c = tuple(a), tuple(b), tuple(c)
    t = _marginal_array(p, (*c, *a, *b))
    nc, na = len(c), len(a)
    c_shape = t.shape[:nc]
    a_shape = t.shape[nc:nc + na]
    b_shape = t.shape[nc + na:]
    t = t.reshape(int(np.prod(c_shape or (1,))), int(np.prod(a_shape or (1,))),
                  int(np.prod(b_shape or (1,))))
    ctx = t.sum(axis=(1, 2))
    positive = ctx > 0.0
    if not positive.any():
        return 0.0
    # indexing the context axis keeps each context's (a, b) block in the
    # memory order of t, so every sum adds as it would on that block alone
    joint = t[positive] / ctx[positive, None, None]
    prod = joint.sum(axis=2, keepdims=True) * joint.sum(axis=1, keepdims=True)
    diff = np.abs(joint - prod).reshape(len(joint), -1)
    return 0.5 * float(diff.sum(axis=1).max())


def markov_report(p: DiscreteJoint, g: Dag,
                  eps: float = 1e-9) -> tuple[bool, tuple | None, float]:
    """Check the Markov condition; return (ok, worst triple, worst residual).

    Checks each node against its non-descendants given its parents. For a
    DAG this local property is equivalent to every d-separation constraint
    the graph implies (Lauritzen, Dawid, Larsen & Leimer, 1990).
    """
    _check_same_variables(p, g)
    return _worst_local_residual(
        _local_statements(g),
        lambda node, nondesc, pa: ci_residual(p, (node,), nondesc, pa), eps)


def _local_statements(g: Dag) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """(node, non-descendants outside the parents, parents) for each node of
    ``g`` in node order, skipping nodes with no such non-descendant."""
    out = []
    for node in g.nodes:
        pa = g.parents(node)
        skip = {node, *pa, *g.descendants(node)}
        nondesc = tuple(n for n in g.nodes if n not in skip)
        if nondesc:
            out.append((node, nondesc, pa))
    return out


def _worst_local_residual(statements, residual, eps: float
                          ) -> tuple[bool, tuple | None, float]:
    """``markov_report``'s verdict from ``residual(node, nondesc, pa)`` over
    the statements of ``_local_statements``: the first largest residual
    wins."""
    worst = 0.0
    worst_triple: tuple | None = None
    for node, nondesc, pa in statements:
        r = residual(node, nondesc, pa)
        if r > worst:
            worst, worst_triple = r, ((node,), nondesc, pa)
    return worst <= eps, worst_triple, worst


def is_markov(p: DiscreteJoint, g: Dag, eps: float = 1e-9) -> bool:
    """True iff every conditional independence implied by ``g`` holds in
    ``p`` with residual at most ``eps``."""
    return markov_report(p, g, eps)[0]


# ---------------------------------------------------------------------------
# Interventions
# ---------------------------------------------------------------------------


def hard_intervention(p: DiscreteJoint, g: Dag, j: str, v: int) -> DiscreteJoint:
    """Truncated factorization for do(X_j = v): the soft intervention whose
    replacement factor puts all mass on ``v`` in every parent context."""
    _check_same_variables(p, g)
    card = p.cards[p.axis(j)]
    if not 0 <= v < card:
        raise TableError(f"value {v} out of range for {j!r} (cardinality {card})")
    given = g.parents(j)
    point = np.zeros((*(p.cards[p.axis(n)] for n in given), card))
    point[..., v] = 1.0
    return soft_intervention(p, g, j, ConditionalTable(j, given, point))


def soft_intervention(p: DiscreteJoint, g: Dag, j: str,
                      t: ConditionalTable) -> DiscreteJoint:
    """Replace the factor of ``j`` by ``t``; all other factors unchanged.

    Refused when the intervened joint reaches a parent context in which a
    conditional is undefined (``p`` gives that context no mass)."""
    _check_same_variables(p, g)
    factors = _replace_factor(g, factorize(p, g), j, t)
    try:
        return product_joint(g, factors).permute(p.names)
    except TableError:
        _refuse_undefined_context(g, factors)
        raise


def _refuse_undefined_context(g: Dag, factors: Sequence[ConditionalTable]) -> None:
    """Raise TableError naming the first node, in topological order, whose
    conditional is undefined in a parent context of positive mass. Uniform
    rows in the undefined contexts make the product a joint whose context
    masses are exact up to that node."""
    q = product_joint(g, [ConditionalTable(f.target, f.given, np.where(
        f.defined[..., None], f.table, 1.0 / f.table.shape[-1])) for f in factors])
    by_target = {f.target: f for f in factors}
    for v in g.topological_order():
        f = by_target[v]
        lost = np.where(f.defined, 0.0, q.marginal(f.given).permute(f.given).probs)
        if lost.max(initial=0.0) > 0.0:
            at = np.unravel_index(np.argmax(lost), lost.shape)
            where = ", ".join(f"{u} = {i}" for u, i in zip(f.given, at)) or "no parents"
            raise TableError(f"the conditional of {v!r} is undefined given {where}, a "
                             f"context of probability {float(lost[at])!r} after the intervention")


def _replace_factor(g: Dag, factors: Sequence[ConditionalTable], j: str,
                    t: ConditionalTable) -> list[ConditionalTable]:
    """``factors`` with the factor of ``j`` replaced by ``t``, which must be
    a conditional of ``j`` given its parents in ``g``."""
    if t.target != j:
        raise TableError(f"replacement targets {t.target!r}, expected {j!r}")
    if tuple(t.given) != g.parents(j):
        raise TableError(
            f"replacement conditions on {t.given}, but parents of {j!r} are "
            f"{g.parents(j)}")
    return [t if f.target == j else f for f in factors]


# ---------------------------------------------------------------------------
# Factor-change detection and distances
# ---------------------------------------------------------------------------


def factor_distance(p: DiscreteJoint, q: DiscreteJoint, g: Dag, node: str) -> float:
    """Max-over-context total variation between the ``node`` conditionals of
    ``p`` and ``q`` given the node's parents in ``g``, over the contexts both
    joints reach: a context of probability zero carries no evidence."""
    pa = g.parents(node)
    fp, fq = conditional(p, node, pa), conditional(q, node, pa)
    return _shared_context_tv(fp.table, fp.defined, fq.table, fq.defined)


def _shared_context_tv(a: np.ndarray, a_defined: np.ndarray,
                       b: np.ndarray, b_defined: np.ndarray) -> float:
    """Max-over-context total variation between two conditional tables of
    one shape (target axis last), over the contexts both define; the slices
    of the other contexts are never read."""
    both = (a_defined & b_defined).reshape(-1)
    width = a.shape[-1]
    diff = a.reshape(-1, width)[both] - b.reshape(-1, width)[both]
    return 0.5 * float(np.abs(diff).sum(axis=1).max(initial=0.0))


def changed_factors(p: DiscreteJoint, q: DiscreteJoint, g: Dag,
                    eps: float = 1e-9) -> tuple[str, ...]:
    """Nodes whose causal conditional (w.r.t. ``g``) differs between ``p``
    and ``q`` by more than ``eps`` in max-over-context total variation.

    Each node's ``factor_distance``, read from both joints in one pass: the
    family's marginal, context mass and division are taken once for the two
    joints stacked in ``p``'s variable order, and nothing is kept in either
    joint's memo."""
    if set(p.names) != set(q.names):
        raise TableError("distributions must share variables")
    _check_same_variables(p, g)
    q = q.permute(p.names)
    if p.cards != q.cards:
        raise TableError("shape mismatch")
    stacked = np.stack((p.probs, q.probs))
    changed = []
    for node in g.nodes:
        table, defined = _divide_by_context(
            _marginal_array(p, (*g.parents(node), node), stacked))
        if _shared_context_tv(table[0], defined[0], table[1], defined[1]) > eps:
            changed.append(node)
    return tuple(changed)


def tv_distance(p: DiscreteJoint, q: DiscreteJoint) -> float:
    """Total variation distance, 0.5 * sum |p - q|, in [0, 1]."""
    if set(p.names) != set(q.names):
        raise TableError("distributions must share variables")
    if p.names != q.names:
        q = q.permute(p.names)
    if p.cards != q.cards:
        raise TableError("shape mismatch")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())
