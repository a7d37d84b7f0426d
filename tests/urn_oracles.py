"""Closed forms of the urn exemplars, kept as test oracles: the exact joint
of the two-type urn, the mixing matrices S that ``_UrnProcess.linear``
derives for the chain and package urns, and the urns' moves written out one
by one, as the builders listed them before each action class was stated
once by ``exemplars._pair``."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from phenocausal.exemplars import _Move, _urn2_process
from phenocausal.tables import DiscreteJoint


def exact_urn2_joint(kb0: int, kr0: int, rounds: int,
                     biases: Sequence[float]) -> tuple[DiscreteJoint, dict]:
    """Exact distribution of the bounded two-ball process after ``rounds``.

    Computed by dynamic programming over the lattice of reachable counts,
    including refusal behaviour at empty types; with kb0 > rounds and
    kr0 > 2 * rounds no refusal can occur and the result coincides with the
    linear idealization.
    """
    return _urn2_process(kb0, kr0, rounds, biases).exact_joint()


def urn_toeplitz_mixing(n: int) -> np.ndarray:
    """Lower-bidiagonal Toeplitz S (diagonal 1, first sub-diagonal -1)."""
    s = np.eye(n)
    for i in range(1, n):
        s[i, i - 1] = -1.0
    return s


def bundles_mixing(n: int) -> np.ndarray:
    """Lower-triangular all-ones S of the package urn."""
    return np.tril(np.ones((n, n)))


def urn2_moves(biases: Sequence[float]) -> tuple[_Move, ...]:
    p1p, p1m, p2p, p2m = biases
    return (
        _Move("A1+", {"Kb": 1, "Kr": -1}, ("Kr",), p1p),
        _Move("A1-", {"Kb": -1, "Kr": 1}, ("Kb",), p1m),
        _Move("A2+", {"Kr": 1}, (), p2p),
        _Move("A2-", {"Kr": -1}, ("Kr",), p2m),
    )


def chain_moves(n: int, biases: Sequence[float], endpoint: str) -> tuple[_Move, ...]:
    moves = []
    for j in range(n, 1, -1):
        moves.append(_Move(f"A{j}+", {f"K{j}": 1, f"K{j-1}": -1}, (f"K{j-1}",),
                           biases[2 * (j - 1)]))
        moves.append(_Move(f"A{j}-", {f"K{j}": -1, f"K{j-1}": 1}, (f"K{j}",),
                           biases[2 * (j - 1) + 1]))
    end = f"K{1 if endpoint == 'low' else n}"
    moves.append(_Move("A1+", {end: 1}, (), biases[0]))
    moves.append(_Move("A1-", {end: -1}, (end,), biases[1]))
    return tuple(moves)


def bundles_moves(n: int, biases: Sequence[float]) -> tuple[_Move, ...]:
    moves = []
    for j in range(n, 0, -1):
        types = tuple(f"K{i}" for i in range(1, j + 1))
        moves.append(_Move(f"A{j}+", {v: 1 for v in types}, (),
                           biases[2 * (j - 1)]))
        moves.append(_Move(f"A{j}-", {v: -1 for v in types}, types,
                           biases[2 * (j - 1) + 1]))
    return tuple(moves)
