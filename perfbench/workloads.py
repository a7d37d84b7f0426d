"""Seeded task lists of the two benchmark workloads.

``lingam`` is LiNGAM recovery. ``discrete`` mixes three task families that
work on discrete tables: mechanism-shift localization, ``valid_graphs``
enumeration and the theorem-suite trials.

A workload is a fixed list of tasks run back to back by one caller (a
closed loop). The list is a seeded shuffle of whole blocks; a block holds
every task kind of the workload in fixed proportions, and the number of
blocks follows from ``--seconds`` and the block's cost on a 2-core Xeon
(``WORKLOADS``). Every task is scored against ground truth.

Tasks call the package through module attributes (``pc.lingam_bivariate``,
``cli.run``, ...) looked up at call time, so the traced run sees every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import phenocausal as pc
from phenocausal import cli
from phenocausal import verify as pv


class TaskFailed(Exception):
    """A CLI call exited nonzero or wrote an artifact that does not parse."""


@dataclass(frozen=True)
class Task:
    kind: str
    run: Callable[[], object]
    # maps run()'s result to (discrete outcome, matches ground truth)
    score: Callable[[object], tuple[str, bool]]
    # statistical recovery is right most of the time; exact tasks always
    statistical: bool = False


def _cli(argv: list[str], out: Path) -> dict:
    code = cli.run(argv + ["--out", str(out)])
    if code != 0:
        raise TaskFailed(f"{argv[0]} exited {code}")
    try:
        return json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        raise TaskFailed(f"{argv[0]} artifact unreadable: {exc}") from exc


def _edges(g) -> list:
    return sorted(map(list, g.edges))


# ---------------------------------------------------------------------------
# lingam: LiNGAM recovery (acceptance criterion 8 plus the CLI path)
# ---------------------------------------------------------------------------


def _urn2_big():
    return pc.urn_bivariate(kb0=1000, kr0=1000, rounds=2)


def _chain_big():
    return pc.urn_chain(n=4, k0=(1000,) * 4, rounds=1)


def _lingam_bivariate(seed: int) -> Task:
    def run():
        return pc.lingam_bivariate(_urn2_big().sample(10_000, seed),
                                   max_points=1500)

    def score(r):
        slope_ok = -1.05 <= r.slope <= -0.95
        return f"{r.direction} slope_ok={slope_ok}", r.direction == "x->y" and slope_ok

    return Task("lingam_bivariate", run, score, statistical=True)


def _lingam_multivariate(kind: str, build: Callable, seed: int) -> Task:
    def run():
        ex = build()
        return ex.ground_truth, pc.lingam_multivariate(ex.sample(100_000, seed),
                                                       max_points=1200)

    def score(out):
        truth, r = out
        return str(_edges(r.dag)), r.dag.edges == truth.edges

    return Task(kind, run, score, statistical=True)


def _cli_discover(method: str, csv: Path, out: Path, truth, seed: int) -> Task:
    def run():
        return _cli(["discover", "--method", method, "--in", str(csv),
                     "--seed", str(seed)], out)

    def score(obj):
        if method == "bivariate":
            edge = obj["result"]["edge"]
            return edge, edge == "Kb->Kr"
        edges = obj["result"]["dag"]["edges"]
        return str(edges), edges == _edges(truth)

    return Task(f"cli_discover_{method}", run, score, statistical=True)


def lingam(rng: np.random.Generator, blocks: int, work: Path) -> list[Task]:
    tasks = []
    for _ in range(blocks):
        seeds = iter(rng.integers(0, 2**31, size=100))
        tasks += [_lingam_bivariate(int(next(seeds))) for _ in range(82)]
        for _ in range(2):
            tasks.append(_lingam_multivariate("lingam_multivariate_urn",
                                              _chain_big, int(next(seeds))))
            tasks.append(_lingam_multivariate(
                "lingam_multivariate_bundles",
                lambda: pc.bundles_chain(n=4, rounds=1), int(next(seeds))))
        for method, count, build in (("bivariate", 13, _urn2_big),
                                     ("multivariate", 1, _chain_big)):
            for _ in range(count):
                seed = int(next(seeds))
                ex = build()
                csv = work / f"{method}-{len(tasks)}.csv"
                csv.write_text(ex.sample(10_000, seed).to_csv())
                tasks.append(_cli_discover(method, csv, csv.with_suffix(".json"),
                                           ex.ground_truth, seed))
    return tasks


# ---------------------------------------------------------------------------
# discrete, part 1: mechanism-shift localization (acceptance criterion 9)
# ---------------------------------------------------------------------------


def _shift(kind: str, build: Callable, base_biases, shifted_biases,
           expected: set, seed: int) -> Task:
    def run():
        base, shifted = build(base_biases), build(shifted_biases)
        environments = [base.sample(10_000, seed), shifted.sample(10_000, seed + 1)]
        out = pc.localize_mechanism_change(environments, base.ground_truth,
                                           seed=seed)
        return set().union(*(r.changed for r in out))

    def score(changed):
        return str(sorted(changed)), changed == expected

    return Task(kind, run, score, statistical=True)


def _urn2_small(biases):
    return pc.urn_bivariate(kb0=50, kr0=50, rounds=3, coin_biases=biases)


def _chain_small(biases):
    return pc.urn_chain(n=4, k0=(30,) * 4, rounds=3, coin_biases=biases)


# (p1+, p1-, ..., p4+, p4-): the A3 pair is shifted
_CHAIN_SHIFTED = (0.5, 0.5, 0.5, 0.5, 0.8, 0.2, 0.5, 0.5)


def shift(rng: np.random.Generator, blocks: int, work: Path) -> list[Task]:
    tasks = []
    for _ in range(blocks):
        seeds = iter(rng.integers(0, 2**31 - 1, size=5))
        tasks += [_shift("shift_2node", _urn2_small, (0.5,) * 4,
                         (0.5, 0.5, 0.8, 0.2), {"Kr"}, int(next(seeds)))
                  for _ in range(3)]
        tasks += [_shift("shift_4node", _chain_small, (0.5,) * 8,
                         _CHAIN_SHIFTED, {"K3"}, int(next(seeds)))
                  for _ in range(2)]
    return tasks


# ---------------------------------------------------------------------------
# discrete, part 2: exhaustive valid_graphs
# ---------------------------------------------------------------------------


def _unit_enumeration(kind: str, build: Callable, seed: int) -> Task:
    def run():
        ex = build()
        return ex.ground_truth, pc.valid_graphs(ex.scm, ex.unit_actions,
                                                mode="unit", trials=80, seed=seed)

    def score(out):
        truth, valid = out
        found = [_edges(g) for g, _ in valid]
        return str(found), found == [_edges(truth)]

    return Task(kind, run, score)


def _statistical_enumeration(n: int, seed: int) -> Task:
    """Random binary Markov joint with one soft intervention per node; the
    generating DAG must be among the valid graphs."""

    def run():
        rng = np.random.default_rng(seed)
        nodes = [f"X{i + 1}" for i in range(n)]
        g = pc.random_dag(nodes, rng, edge_prob=0.5)
        cards = {v: 2 for v in nodes}
        p = pc.random_markov_joint(g, cards, rng)
        actions = [pc.StatisticalAction(
            f"soft-{v}",
            pc.soft_intervention(p, g, v, pc.random_conditional(g, v, cards, rng)))
            for v in nodes]
        return g, pc.valid_graphs(p, actions, mode="statistical")

    def score(out):
        truth, valid = out
        found = [_edges(h) for h, _ in valid]
        return str(found), _edges(truth) in found

    return Task(f"statistical_{n}node", run, score)


# criterion 7: regime reversal
_DIRECTIONS = {"rabbits1": "YcausesX", "rabbits2": "XcausesY",
               "macro1": "XcausesY", "macro2": "YcausesX"}


def _direction(name: str, seed: int) -> Task:
    def run():
        ex = pc.build_exemplar(name)
        return pc.bivariate_direction(ex.scm, ex.unit_actions, mode="unit",
                                      trials=60, seed=seed)

    def score(verdict):
        return f"{name}:{verdict.value}", verdict.value == _DIRECTIONS[name]

    return Task("bivariate_direction", run, score)


def _cli_classify(out: Path, seed: int) -> Task:
    truth = _edges(pc.urn_chain(n=4).ground_truth)

    def run():
        return _cli(["classify", "urnN", "--n", "4", "--enumerate",
                     "--seed", str(seed)], out)

    def score(obj):
        found = [sorted(g["edges"]) for g in obj["valid_graphs"]]
        return str(found), found == [truth]

    return Task("cli_classify_enumerate", run, score)


def enumerate_(rng: np.random.Generator, blocks: int, work: Path) -> list[Task]:
    tasks = []
    for b in range(blocks):
        seeds = iter(rng.integers(0, 2**31, size=50))
        tasks += [_statistical_enumeration(3, int(next(seeds))) for _ in range(32)]
        tasks += [_direction(name, int(next(seeds)))
                  for name in sorted(_DIRECTIONS) for _ in range(2)]
        for _ in range(3):
            tasks.append(_unit_enumeration("unit_urnN", lambda: pc.urn_chain(n=4),
                                           int(next(seeds))))
            tasks.append(_unit_enumeration("unit_bundles",
                                           lambda: pc.bundles_chain(n=4),
                                           int(next(seeds))))
            tasks.append(_statistical_enumeration(4, int(next(seeds))))
        tasks.append(_cli_classify(work / f"classify-{b}.json", int(next(seeds))))
    return tasks


# ---------------------------------------------------------------------------
# discrete, part 3: the randomized theorem suites, one trial per task
# ---------------------------------------------------------------------------


def _trial(kind: str, trial: Callable, seed: int) -> Task:
    def run():
        return trial(seed)

    def score(record):
        return f"{record.kind}:{record.ok}", record.ok

    return Task(kind, run, score)


def _cli_report(out: Path, seed: int) -> Task:
    def run():
        return _cli(["report", "--seed", str(seed)], out)

    def score(obj):
        return f"passed={obj['passed']}", obj["passed"] is True

    return Task("cli_report", run, score)


def verify(rng: np.random.Generator, blocks: int, work: Path) -> list[Task]:
    tasks = []
    for b in range(blocks):
        seeds = iter(rng.integers(0, 2**31, size=100))
        tasks += [_trial("proposition_trial",
                         lambda s: pv.proposition_trial(s), int(next(seeds)))
                  for _ in range(40)]
        tasks += [_trial("boundary_trial",
                         lambda s: pv.boundary_trial(s, max_nodes=6), int(next(seeds)))
                  for _ in range(40)]
        tasks += [_trial("embedding_trial",
                         lambda s: pv.embedding_trial(s, rounds=3), int(next(seeds)))
                  for _ in range(17)]
        tasks += [_cli_report(work / f"report-{b}-{i}.json", int(next(seeds)))
                  for i in range(3)]
    return tasks


def discrete(rng: np.random.Generator, blocks: int, work: Path) -> list[Task]:
    tasks = []
    for _ in range(blocks):
        tasks += shift(rng, 3, work) + enumerate_(rng, 1, work) + verify(rng, 8, work)
    return tasks


# builder, nominal seconds per block on the reference machine
WORKLOADS: dict[str, tuple[Callable, float]] = {
    "lingam": (lingam, 24.0),
    "discrete": (discrete, 37.5),
}


def build(name: str, seed: int, seconds: int, work: Path) -> list[Task]:
    """The workload's task list for ``seed``: whole blocks, shuffled. Writes
    the CLI input files into ``work``."""
    builder, block_seconds = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    tasks = builder(rng, max(1, round(seconds / block_seconds)), work)
    return [tasks[i] for i in rng.permutation(len(tasks))]
