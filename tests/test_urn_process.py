"""The shared urn process against its references: a hand-written
two-type lattice DP (the original ``exact_urn2_joint``) kept here as the
oracle of the exact joint, the enumerated joint of the linear idealization
wherever no move can be refused, and the former row-scatter simulator as
the oracle of ``simulate``."""

from __future__ import annotations

import json
import re
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phenocausal import (DiscreteJoint, ScmError, TableError, bundles_chain,
                         exact_joint, urn_bivariate, urn_chain)
from phenocausal.exemplars import _Move, _UrnProcess
from urn_oracles import bundles_moves, chain_moves, exact_urn2_joint, urn2_moves


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
            assert json.dumps(joint.to_json_obj()) == json.dumps(ref.to_json_obj())
            assert urn_bivariate(kb0, kr0, rounds,
                                 coin_biases=biases).notes["levels"] == ref_levels


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


def simulate_reference(process: _UrnProcess, n: int, seed: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The former simulator: (n, k) rows, each move added to the rows it
    hits through a boolean-mask scatter."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    col = {v: i for i, v in enumerate(process.nodes)}
    state = np.tile(np.asarray(process.k0, dtype=float), (n, 1))
    refused = np.zeros(n, dtype=bool)
    steps = np.array([[mv.deltas.get(v, 0) for v in process.nodes]
                      for mv in process.moves])
    for _ in range(process.rounds):
        for mv, step in zip(process.moves, steps):
            fire = rng.random(n) < mv.prob
            ok = np.ones(n, dtype=bool)
            for v in mv.requires_positive:
                ok &= state[:, col[v]] > 0
            refused |= fire & ~ok
            hit = fire & ok
            if hit.any():
                state[hit] += step
    return state, refused


@st.composite
def urn_processes(draw) -> _UrnProcess:
    """Random move sets over one to four types. Reserves of 0..3 balls make
    refusals common; a move may remove balls of a type it does not require,
    so counts may also go negative."""
    nodes = tuple(f"T{i}" for i in range(draw(st.integers(1, 4))))
    moves = tuple(
        _Move(f"M{m}", {v: draw(st.integers(-2, 2)) for v in nodes
                        if draw(st.booleans())},
              tuple(v for v in nodes if draw(st.booleans())),
              draw(st.sampled_from([0.0, 1.0, 0.5]) | _bias))
        for m in range(draw(st.integers(1, 5))))
    k0 = tuple(draw(st.integers(0, 3)) for _ in nodes)
    return _UrnProcess(nodes, k0, moves, draw(st.integers(1, 6)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(urn_processes(), st.sampled_from([0, 1, 7, 2000]), st.integers(0, 2**32 - 1))
def test_simulate_matches_row_scatter_reference(process, n, seed):
    ds, refused = process.simulate(n, seed)
    rows, ref_refused = simulate_reference(process, n, seed)
    assert ds.rows.shape == rows.shape == (n, len(process.nodes))
    assert ds.rows.flags.c_contiguous
    assert ds.rows.tobytes() == rows.tobytes()
    assert refused.dtype == ref_refused.dtype == bool
    assert refused.tobytes() == ref_refused.tobytes()


def test_reference_property_reaches_refusals():
    # two balls of one type and a coin that always removes one: the third
    # round is refused in every run
    process = _UrnProcess(("T0",), (2,), (_Move("M0", {"T0": -1}, ("T0",), 1.0),), 3)
    ds, refused = process.simulate(7, 1)
    rows, ref_refused = simulate_reference(process, 7, 1)
    assert refused.all() and ref_refused.all()
    assert ds.rows.tobytes() == rows.tobytes() and not ds.rows.any()


@pytest.mark.parametrize("k0, rounds", [((50.5, 50), 2), ((50, 50), 2.5),
                                        ((50.0, 50), 2), ((50, 50), None)])
def test_process_refuses_non_integer_counts(k0, rounds):
    moves = (_Move("A+", {"Kb": 1}, (), 0.5),)
    with pytest.raises(ScmError, match="must be integers"):
        _UrnProcess(("Kb", "Kr"), k0, moves, rounds)


def test_builders_refuse_fractional_counts():
    with pytest.raises(ScmError, match="must be integers"):
        urn_bivariate(kb0=50.5)
    with pytest.raises(ScmError, match="must be integers"):
        urn_chain(n=3, rounds=2.5)
    with pytest.raises(ScmError, match="must be integers"):
        urn_chain(n=3, k0=(10, 10.5, 10), rounds=2)
    with pytest.raises(ScmError, match="must be integers"):
        bundles_chain(n=3, rounds=2.5)
    with pytest.raises(ScmError, match="must be integers"):
        bundles_chain(n=3, rounds=2, initial_packages=4.7)
    # integer types other than int are accepted and stored as int
    ex = urn_chain(n=3, k0=np.array([10, 11, 12]), rounds=np.int64(2))
    assert ex.process.k0 == (12, 11, 10) and type(ex.process.rounds) is int
    assert ex.notes["k0"] == [10, 11, 12]


_URNS = ([("urn2", urn_bivariate)]
         + [(f"urnN-{end}-{n}", lambda n=n, end=end: urn_chain(n=n, endpoint=end))
            for n in range(2, 7) for end in ("low", "high")]
         + [(f"bundles-{n}", lambda n=n: bundles_chain(n=n)) for n in range(2, 7)])


@pytest.mark.parametrize("name, build", _URNS, ids=[name for name, _ in _URNS])
def test_the_unit_reading_of_the_moves_alone_gives_the_declared_structure(name, build):
    # one displacement row per move, its deltas: the idealization in which
    # no move is refused. The definition then leaves exactly the declared
    # graph, and puts both moves of each class on the declared node.
    from phenocausal.actions import _Displacements, _UnitSuite

    ex = build()
    nodes, moves = ex.process.nodes, ex.process.moves
    disp = _Displacements(nodes, tuple(mv.label for mv in moves),
                          tuple(np.array([[float(mv.deltas.get(v, 0)) for v in nodes]])
                                for mv in moves),
                          (False,) * len(moves))
    suite = _UnitSuite(disp, 1e-9)
    [g] = suite.candidates()
    assert g.nodes == ex.ground_truth.nodes
    assert set(g.edges) == set(ex.ground_truth.edges)
    verdicts = suite.classify(g).verdicts
    assert len(verdicts) == len(moves)
    assert {(v.label[:-1], v.node) for v in verdicts} == set(ex.notes["class_nodes"].items())


def _spelled_out(moves) -> list[tuple]:
    # deltas as an item list: their key order is part of the move
    return [(mv.label, list(mv.deltas.items()), mv.requires_positive, mv.prob)
            for mv in moves]


_MOVE_CASES = ([("urn2", 2, "low")]
               + [("urnN", n, end) for n in range(2, 7) for end in ("low", "high")]
               + [("bundles", n, "low") for n in range(2, 7)])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind, n, endpoint", _MOVE_CASES,
                         ids=[f"{k}-{n}-{e}" for k, n, e in _MOVE_CASES])
def test_each_urn_builds_the_moves_written_out_by_hand(kind, n, endpoint, seed):
    # every class stated once as a pair gives the former move lists: same
    # order, labels, deltas in key order, refusal lists and coins
    biases = tuple(np.random.default_rng([seed, n]).uniform(0, 1, 2 * n).tolist())
    if kind == "urn2":
        ex, want = urn_bivariate(coin_biases=biases), urn2_moves(biases)
    elif kind == "urnN":
        ex = urn_chain(n=n, coin_biases=biases, endpoint=endpoint)
        want = chain_moves(n, biases, endpoint)
    else:
        ex, want = bundles_chain(n=n, coin_biases=biases), bundles_moves(n, biases)
    assert _spelled_out(ex.process.moves) == _spelled_out(want)


@pytest.mark.parametrize("build, n", [
    (lambda b: urn_bivariate(coin_biases=b), 2),
    (lambda b: urn_chain(n=3, coin_biases=b), 3),
    (lambda b: bundles_chain(n=4, coin_biases=b), 4),
], ids=["urn2", "urnN", "bundles"])
def test_urn_builders_refuse_coin_biases_of_another_length(build, n):
    for width in (2 * n - 1, 2 * n + 1):
        with pytest.raises(ScmError, match=re.escape(f"need 2*{n} coin biases")):
            build((0.5,) * width)
    # only a missing list takes the default: a number is no list of coins
    with pytest.raises(TypeError):
        build(0)
