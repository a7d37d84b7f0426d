"""The shared urn-process DP against its references: a hand-written
two-type lattice DP (the original ``exact_urn2_joint``) kept here as the
oracle, and the enumerated joint of the linear idealization wherever no
move can be refused."""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phenocausal import (DiscreteJoint, TableError, bundles_chain, exact_joint,
                         exact_urn2_joint, urn_chain)


def _shift2(arr: np.ndarray, db: int, dr: int) -> np.ndarray:
    out = np.zeros_like(arr)
    sb = slice(max(0, -db), arr.shape[0] - max(0, db))
    tb = slice(max(0, db), arr.shape[0] - max(0, -db))
    sr = slice(max(0, -dr), arr.shape[1] - max(0, dr))
    tr = slice(max(0, dr), arr.shape[1] - max(0, -dr))
    out[tb, tr] = arr[sb, sr]
    return out


def oracle_urn2_joint(kb0: int, kr0: int, rounds: int,
                      biases: Sequence[float]) -> tuple[DiscreteJoint, dict]:
    """Two-type bounded urn process by a DP with a hand-written move table."""
    p1p, p1m, p2p, p2m = biases
    kb_lo, kb_hi = max(0, kb0 - rounds), kb0 + rounds
    kr_lo, kr_hi = max(0, kr0 - 2 * rounds), kr0 + 2 * rounds
    kb_levels = np.arange(kb_lo, kb_hi + 1)
    kr_levels = np.arange(kr_lo, kr_hi + 1)
    pmf = np.zeros((kb_levels.size, kr_levels.size))
    pmf[kb0 - kb_lo, kr0 - kr_lo] = 1.0
    kb_pos = kb_levels > 0
    kr_pos = kr_levels > 0
    moves = (
        ((+1, -1), np.outer(np.ones_like(kb_pos), kr_pos), p1p),   # A1+: needs red
        ((-1, +1), np.outer(kb_pos, np.ones_like(kr_pos)), p1m),   # A1-: needs blue
        ((0, +1), np.ones(pmf.shape, dtype=bool), p2p),            # A2+
        ((0, -1), np.outer(np.ones_like(kb_pos), kr_pos), p2m),    # A2-: needs red
    )
    for _ in range(rounds):
        for (db, dr), ok, p in moves:
            stay = pmf * (1.0 - p) + pmf * p * (~ok)
            pmf = stay + _shift2(pmf * p * ok, db, dr)
    joint = DiscreteJoint(("Kb", "Kr"), pmf)
    levels = {"Kb": [int(v) for v in kb_levels], "Kr": [int(v) for v in kr_levels]}
    return joint, levels


_bias = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(1, 6),
       st.tuples(_bias, _bias, _bias, _bias))
def test_urn2_dp_matches_oracle_bit_for_bit(kb0, kr0, rounds, biases):
    # small reserves and few balls make refused moves common
    joint, levels = exact_urn2_joint(kb0, kr0, rounds, biases)
    ref, ref_levels = oracle_urn2_joint(kb0, kr0, rounds, biases)
    assert levels == ref_levels
    assert joint.names == ref.names
    assert np.array_equal(joint.probs, ref.probs)


def test_urn2_dp_matches_oracle_on_benchmark_sizes():
    for kb0, kr0, rounds in ((12, 12, 3), (50, 50, 3), (1000, 1000, 2)):
        for biases in ((0.5,) * 4, (0.9, 0.1, 0.2, 0.7)):
            joint, levels = exact_urn2_joint(kb0, kr0, rounds, biases)
            ref, ref_levels = oracle_urn2_joint(kb0, kr0, rounds, biases)
            assert levels == ref_levels
            assert joint.to_json() == ref.to_json()


def test_dp_refuses_grid_above_table_cap():
    # 4001 x 8001 levels: refused before the grid is allocated
    with pytest.raises(TableError, match="exceeds cap"):
        exact_urn2_joint(5000, 5000, 2000, (0.5,) * 4)


@pytest.mark.parametrize("ex", [
    urn_chain(n=3, k0=(10, 10, 10), rounds=3,
              coin_biases=(0.6, 0.3, 0.5, 0.4, 0.7, 0.2)),
    urn_chain(n=3, k0=(10, 10, 10), rounds=3, endpoint="high"),
    bundles_chain(n=3, rounds=3, coin_biases=(0.6, 0.3, 0.5, 0.4, 0.7, 0.2)),
], ids=["urnN-low", "urnN-high", "bundles"])
def test_chain_dp_matches_linear_idealization_without_refusals(ex):
    # every reserve exceeds what the moves can remove in ``rounds`` rounds
    _, refused = ex.process.simulate(2000, 5)
    assert not refused.any()
    dp, levels = ex.process.exact_joint()
    lin, lin_levels = exact_joint(ex.scm)
    assert dp.names == lin.names
    cells = np.argwhere(dp.probs > 0)
    values = [tuple(levels[v][i] for v, i in zip(dp.names, cell)) for cell in cells]
    index = {v: {x: i for i, x in enumerate(lin_levels[v])} for v in lin.names}
    lin_cells = [tuple(index[v][x] for v, x in zip(lin.names, value))
                 for value in values]
    assert len(lin_cells) == np.count_nonzero(lin.probs)
    got = dp.probs[tuple(cells.T)]
    want = lin.probs[tuple(np.asarray(lin_cells).T)]
    assert np.abs(got - want).max() <= 1e-12
