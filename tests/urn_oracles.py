"""Closed forms of the urn exemplars, kept as test oracles: the exact joint
of the two-type urn and the mixing matrices S that ``_UrnProcess.linear``
derives for the chain and package urns."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from phenocausal.exemplars import _urn2_process
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
