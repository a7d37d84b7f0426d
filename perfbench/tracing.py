"""Spans and counters recorded from outside the phenocausal package.

``install`` replaces each traced public function at every module attribute
of the package that refers to it (``discovery.factor_distance``,
``actions.all_dags``, the ``cli`` imports, ``EXEMPLARS`` entries, ...), so
internal calls are counted as well as the benchmark's own. A span records
its name, start, end, parent span and task id; spans stay in memory until
the run ends. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

from phenocausal import actions, cli, discovery, exemplars, graphs, scm, tables, verify

DAGS = "graphs.all_dags.dags"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list[int] = []
        self.outer: list[bool] = []   # no enclosing span of the same name
        self.stack: list[int] = []
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.task = -1

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.tasks.append(self.task)
        self.outer.append(self.depth[name] == 0)
        self.depth[name] += 1
        self.stack.append(i)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        if self.stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]} closed out of order")
        self.depth[self.names[i]] -= 1

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i],
                                     "task": self.tasks[i]}) + "\n")


# -- computed counters: (bound arguments, result, tracer, DAG count at entry)


def _pairs(a, result, tr, dags0):
    m = min(np.size(a["u"]), a["max_points"])
    return {"pairs": m * m}


def _joints(a, result, tr, dags0):
    envs = a["environments"]
    if all(isinstance(e, tables.DiscreteJoint) for e in envs):
        return {"joints": 0}
    permuted = a["n_perm"] * len(envs) if a["eps"] is None else 0
    return {"joints": 1 + len(envs) + permuted}


def _combos(a, result, tr, dags0):
    s = a["scm"]
    return {"combos": math.prod(len(s.noises[v].support()[0]) for v in s.nodes)}


def _rows(a, result, tr, dags0):
    return {"rows": result.rows.shape[0]}


def _valid(a, result, tr, dags0):
    return {"examined": tr.counts[DAGS] - dags0, "valid": len(result)}


def _bytes_out(a, result, tr, dags0):
    argv = list(a["argv"] or ())
    if "--out" not in argv:
        return {"bytes_out": 0}
    out = Path(argv[argv.index("--out") + 1])
    return {"bytes_out": out.stat().st_size if out.exists() else 0}


# (metric prefix, owner, attribute, reports total_s, computed counters)
TRACED: list[tuple[str, object, str, bool, Callable | None]] = [
    ("graphs.all_dags", graphs, "all_dags", True, None),
    ("graphs.d_separated", graphs, "d_separated", False, None),
    ("graphs.marginal_dag", graphs, "marginal_dag", False, None),
    ("graphs.is_graphically_causally_sufficient", graphs,
     "is_graphically_causally_sufficient", False, None),
    ("graphs.backdoor_admissible", graphs, "backdoor_admissible", False, None),
    ("tables.conditional", tables, "conditional", False, None),
    ("tables.factor_distance", tables, "factor_distance", False, None),
    ("tables.changed_factors", tables, "changed_factors", False, None),
    ("tables.markov_report", tables, "markov_report", False, None),
    ("tables.ci_residual", tables, "ci_residual", False, None),
    ("tables.product_joint", tables, "product_joint", False, None),
    ("tables.soft_intervention", tables, "soft_intervention", False, None),
    ("tables.hard_intervention", tables, "hard_intervention", False, None),
    ("scm.exact_joint", scm, "exact_joint", False, _combos),
    ("scm.GeneralScm.simulate", scm.GeneralScm, "simulate", False, None),
    ("scm.Dataset.from_csv", scm.Dataset, "from_csv", False, _rows),
    ("scm.Dataset.to_csv", scm.Dataset, "to_csv", False, None),
    ("actions.valid_graphs", actions, "valid_graphs", True, _valid),
    ("actions.classify_unit_displacements", actions,
     "classify_unit_displacements", False, None),
    ("actions.unit_displacements", actions, "unit_displacements", False, None),
    ("actions.classify_statistical", actions, "classify_statistical", False, None),
    ("actions.classify_unit", actions, "classify_unit", False, None),
    ("actions.bivariate_direction", actions, "bivariate_direction", False, None),
    ("exemplars.Exemplar.sample", exemplars.Exemplar, "sample", False, _rows),
    ("exemplars.build_exemplar", exemplars, "build_exemplar", False, None),
    ("exemplars.urn_bivariate", exemplars, "urn_bivariate", False, None),
    ("exemplars.urn_chain", exemplars, "urn_chain", False, None),
    ("exemplars.bundles_chain", exemplars, "bundles_chain", False, None),
    ("discovery.independence_statistic", discovery, "independence_statistic",
     False, _pairs),
    ("discovery.lingam_bivariate", discovery, "lingam_bivariate", False, None),
    ("discovery.lingam_multivariate", discovery, "lingam_multivariate", True, None),
    ("discovery.localize_mechanism_change", discovery, "localize_mechanism_change",
     True, _joints),
    ("verify.proposition_trial", verify, "proposition_trial", False, None),
    ("verify.boundary_trial", verify, "boundary_trial", False, None),
    ("verify.embedding_trial", verify, "embedding_trial", False, None),
    ("verify.verify_boundary_consistency", verify, "verify_boundary_consistency",
     False, None),
    ("verify.check_backdoor_preservation", verify, "check_backdoor_preservation",
     False, None),
    ("verify.verify_embedding_markov", verify, "verify_embedding_markov", False, None),
    ("verify.randomized_suite", verify, "randomized_suite", True, None),
    ("cli.run", cli, "run", True, _bytes_out),
]

# classes whose constructions are counted, without spans
CREATED = [("graphs.Dag.created", graphs.Dag),
           ("tables.DiscreteJoint.created", tables.DiscreteJoint)]

EXTRAS = {
    "graphs.all_dags": ("dags",),
    "scm.exact_joint": ("combos",),
    "scm.Dataset.from_csv": ("rows",),
    "actions.valid_graphs": ("examined", "valid", "valid_ratio"),
    "exemplars.Exemplar.sample": ("rows",),
    "discovery.independence_statistic": ("pairs",),
    "discovery.localize_mechanism_change": ("joints",),
    "cli.run": ("bytes_out",),
}


def _wrap(tr: Tracer, name: str, fn: Callable, extra: Callable | None) -> Callable:
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tr.calls[name] += 1
        dags0 = tr.counts[DAGS]
        i = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if extra is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, k in extra(bound.arguments, result, tr, dags0).items():
                tr.counts[f"{name}.{key}"] += k
        return result

    return traced


def _wrap_generator(tr: Tracer, name: str, fn: Callable) -> Callable:
    """One span per resumption, so total_s is the time spent producing."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tr.calls[name] += 1
        it = fn(*args, **kwargs)
        while True:
            i = tr.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.close(i)
            tr.counts[DAGS] += 1
            yield item

    return traced


def _wrap_init(tr: Tracer, name: str, init: Callable) -> Callable:
    @functools.wraps(init)
    def counted(self, *args, **kwargs):
        tr.counts[name] += 1
        init(self, *args, **kwargs)

    return counted


def _replace_everywhere(orig: Callable, new: Callable) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "phenocausal" or modname.startswith("phenocausal."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
    for key, value in exemplars.EXEMPLARS.items():
        if value is orig:
            exemplars.EXEMPLARS[key] = new


def install() -> Tracer:
    """Wrap every traced function and counted constructor; return the tracer."""
    tr = Tracer()
    for name, owner, attr, _, extra in TRACED:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(tr, name, raw.__func__, extra)))
            else:
                setattr(owner, attr, _wrap(tr, name, raw, extra))
            continue
        orig = getattr(owner, attr)
        new = (_wrap_generator(tr, name, orig) if inspect.isgeneratorfunction(orig)
               else _wrap(tr, name, orig, extra))
        _replace_everywhere(orig, new)
    for name, cls in CREATED:
        cls.__init__ = _wrap_init(tr, name, cls.__init__)
    return tr


def layer_metrics(tr: Tracer, wall: float, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced pass, and any self-time accounting errors.

    The self times of all spans plus the unattributed time (benchmark code
    outside every span) must add up to the traced wall time.
    """
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tr.parents):
        if p >= 0:
            child[p] += dur[i]
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for i, name in enumerate(tr.names):
        self_s[name] += dur[i] - child[i]
        if tr.outer[i]:
            total_s[name] += dur[i]
    covered = sum(d for d, p in zip(dur, tr.parents) if p < 0)
    unattributed = wall - covered
    errors = []
    worst = min((dur[i] - child[i] for i in range(n)), default=0.0)
    if worst < -1e-6:
        errors.append(f"negative self time {worst:.3g} s")
    if unattributed < -1e-6:
        errors.append(f"spans cover {covered:.6f} s of a {wall:.6f} s pass")
    if abs(sum(self_s.values()) + unattributed - wall) > 1e-6 * max(1.0, wall):
        errors.append("self times plus unattributed time differ from wall time")
    if tr.stack:
        errors.append(f"{len(tr.stack)} spans left open")

    values: dict[str, float] = {}
    for name, _, _, total, _ in TRACED:
        values[f"{name}.calls"] = tr.calls[name]
        values[f"{name}.self_s"] = self_s[name]
        if total:
            values[f"{name}.total_s"] = total_s[name]
        for key in EXTRAS.get(name, ()):
            values[f"{name}.{key}"] = tr.counts[f"{name}.{key}"]
    examined = values["actions.valid_graphs.examined"]
    values["actions.valid_graphs.valid_ratio"] = (
        values["actions.valid_graphs.valid"] / examined if examined else 0.0)
    for name, _ in CREATED:
        values[name] = tr.counts[name]
    values["trace.overhead_frac"] = wall / untraced_wall - 1.0
    values["trace.unattributed_frac"] = unattributed / wall
    return values, errors


# Calls predicted, before measuring, to be zero (the workload bypasses the
# function) or nonzero (the workload stresses it); see README.md for the
# end-to-end metric each layer metric should move.
MUST_NOT_RUN = {
    "discovery.independence_statistic": ("discrete",),
    "discovery.localize_mechanism_change": ("lingam",),
    "tables.conditional": ("lingam",),
    "tables.factor_distance": ("lingam",),
    "tables.markov_report": ("lingam",),
    "tables.ci_residual": ("lingam",),
    "graphs.all_dags": ("lingam",),
    "actions.valid_graphs": ("lingam",),
    "actions.classify_unit_displacements": ("lingam",),
    "graphs.marginal_dag": ("lingam",),
    "graphs.is_graphically_causally_sufficient": ("lingam",),
    "graphs.d_separated": ("lingam",),
    "tables.product_joint": ("lingam",),
    "scm.exact_joint": ("lingam",),
    "scm.Dataset.from_csv": ("discrete",),
}
MUST_RUN = {
    "discovery.independence_statistic": ("lingam",),
    "discovery.localize_mechanism_change": ("discrete",),
    "tables.conditional": ("discrete",),
    "tables.factor_distance": ("discrete",),
    "tables.markov_report": ("discrete",),
    "tables.ci_residual": ("discrete",),
    "graphs.all_dags": ("discrete",),
    "actions.valid_graphs": ("discrete",),
    "actions.classify_unit_displacements": ("discrete",),
    "graphs.marginal_dag": ("discrete",),
    "graphs.is_graphically_causally_sufficient": ("discrete",),
    "graphs.d_separated": ("discrete",),
    "tables.product_joint": ("discrete",),
    "scm.exact_joint": ("discrete",),
    "exemplars.Exemplar.sample": ("lingam", "discrete"),
    "scm.Dataset.from_csv": ("lingam",),
    "cli.run": ("lingam", "discrete"),
}
# every layer has calls on the workloads meant to stress it
STRESSED_BY = {
    "graphs": ("discrete",),
    "tables": ("discrete",),
    "scm": ("lingam", "discrete"),
    "actions": ("discrete",),
    "exemplars": ("lingam", "discrete"),
    "discovery": ("lingam", "discrete"),
    "verify": ("discrete",),
    "cli": ("lingam", "discrete"),
}


def bypass_errors(workload: str, values: dict) -> list[str]:
    errors = []
    for fn, workloads in MUST_NOT_RUN.items():
        if workload in workloads and values[f"{fn}.calls"] != 0:
            errors.append(f"{fn} called {values[f'{fn}.calls']} times, predicted 0")
    for fn, workloads in MUST_RUN.items():
        if workload in workloads and values[f"{fn}.calls"] == 0:
            errors.append(f"{fn} never called, predicted to run")
    for layer, workloads in STRESSED_BY.items():
        calls = sum(values[f"{name}.calls"] for name, *_ in TRACED
                    if name.split(".")[0] == layer)
        if workload in workloads and calls == 0:
            errors.append(f"layer {layer} has no calls")
    return errors
