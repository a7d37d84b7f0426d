"""The urn exemplars' structural models against hand-written references.

The references below are the linear idealizations of ``urn2``, ``urnN``
(both endpoints) and ``bundles`` written out by hand: one mechanism
closure per node, one ``LinearScm`` and one ground-truth edge list each.
The exemplars must match them exactly: the same ``LinearScm`` JSON and
arrays (no negative zeros), the same graph, and a ``GeneralScm`` with the
same parents and noises whose simulated rows and exact joint agree bit for
bit.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from phenocausal import (Dag, GeneralScm, LinearScm, NoiseSpec, bundles_chain,
                         exact_joint, urn_bivariate, urn_chain)


def ref_urn2(kb0: int, kr0: int, rounds: int, biases: Sequence[float]):
    p1p, p1m, p2p, p2m = biases
    truth = Dag(("Kb", "Kr"), [("Kb", "Kr")])
    scm = GeneralScm(
        nodes=("Kb", "Kr"),
        parents={"Kb": (), "Kr": ("Kb",)},
        mechanisms={
            "Kb": lambda pa, n1: kb0 + n1,
            "Kr": lambda pa, n2: kr0 + kb0 - pa["Kb"] + n2,
        },
        noises={
            "Kb": NoiseSpec.binomdiff(rounds, p1p, p1m),
            "Kr": NoiseSpec.binomdiff(rounds, p2p, p2m),
        },
    )
    linear = LinearScm(
        nodes=("Kb", "Kr"),
        a=np.array([[0.0, 0.0], [-1.0, 0.0]]),
        offsets=np.array([float(kb0), float(kr0 + kb0)]),
        noises=(NoiseSpec.binomdiff(rounds, p1p, p1m),
                NoiseSpec.binomdiff(rounds, p2p, p2m)),
    )
    return truth, scm, linear


def ref_urn_chain(n: int, k0: Sequence[int], rounds: int,
                  biases: Sequence[float], endpoint: str):
    nodes = tuple(f"K{j}" for j in range(n, 0, -1))
    k0_by_type = {f"K{j}": k0[j - 1] for j in range(1, n + 1)}
    if endpoint == "low":
        truth = Dag(nodes, [(f"K{i}", f"K{j}")
                            for i in range(n, 0, -1) for j in range(i - 1, 0, -1)])
    else:
        truth = Dag(nodes, [(f"K{i}", f"K{j}")
                            for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    p1, m1 = biases[0], biases[1]
    parents = {v: truth.parents(v) for v in nodes}
    mechanisms = {}
    noises = {}
    for v in nodes:
        j = int(v[1:])
        anchor = k0_by_type[v]

        def mech(pa: Mapping[str, float], nj: float, anchor=anchor,
                 pset=parents[v]) -> float:
            drift = sum(pa[p] - k0_by_type[p] for p in pset)
            return anchor - drift + nj

        mechanisms[v] = mech
        if endpoint == "low":
            pj, mj = biases[2 * (j - 1)], biases[2 * (j - 1) + 1]
            noises[v] = NoiseSpec.binomdiff(rounds, pj, mj)
        elif j < n:
            # class A_{j+1} intervenes on K_j; its tally enters negated
            pj, mj = biases[2 * j], biases[2 * j + 1]
            noises[v] = NoiseSpec.binomdiff(rounds, mj, pj)
        else:
            noises[v] = NoiseSpec.binomdiff(rounds, p1, m1)
    scm = GeneralScm(nodes=nodes, parents=parents, mechanisms=mechanisms,
                     noises=noises)
    linear = None
    if endpoint == "low":
        a = np.zeros((n, n))
        a[np.tril_indices(n, -1)] = -1.0
        offsets = np.cumsum([k0_by_type[v] for v in nodes]).astype(float)
        linear = LinearScm(
            nodes=nodes, a=a, offsets=offsets,
            noises=tuple(
                NoiseSpec.binomdiff(rounds, biases[2 * (int(v[1:]) - 1)],
                                    biases[2 * (int(v[1:]) - 1) + 1])
                for v in nodes))
    return truth, scm, linear


def ref_bundles(n: int, rounds: int, biases: Sequence[float], r0: int):
    nodes = tuple(f"K{j}" for j in range(n, 0, -1))
    truth = Dag(nodes, [(nodes[i], nodes[i + 1]) for i in range(n - 1)])
    parents = {v: truth.parents(v) for v in nodes}
    mechanisms = {}
    noises = {}
    for v in nodes:
        j = int(v[1:])

        def mech(pa: Mapping[str, float], nj: float, pset=parents[v]) -> float:
            return (pa[pset[0]] if pset else 0.0) + r0 + nj

        mechanisms[v] = mech
        noises[v] = NoiseSpec.binomdiff(rounds, biases[2 * (j - 1)],
                                        biases[2 * (j - 1) + 1])
    scm = GeneralScm(nodes=nodes, parents=parents, mechanisms=mechanisms,
                     noises=noises)
    a = np.zeros((n, n))
    for i in range(1, n):
        a[i, i - 1] = 1.0
    linear = LinearScm(
        nodes=nodes, a=a, offsets=np.full(n, float(r0)),
        noises=tuple(
            NoiseSpec.binomdiff(rounds, biases[2 * (int(v[1:]) - 1)],
                                biases[2 * (int(v[1:]) - 1) + 1])
            for v in nodes))
    return truth, scm, linear


def assert_same_linear(got: LinearScm | None, want: LinearScm | None) -> None:
    if want is None:
        assert got is None
        return
    assert got.to_json_obj() == want.to_json_obj()
    assert got.nodes == want.nodes
    assert got.noises == want.noises
    for g, w in ((got.a, want.a), (got.offsets, want.offsets)):
        assert np.array_equal(g, w)
        assert not np.signbit(g[g == 0.0]).any()


def linear_rows(linear: LinearScm, scm: GeneralScm, n: int, seed: int) -> np.ndarray:
    """The former ``LinearScm.simulate``, kept as a reference: (noise +
    offsets) @ S^T on the noise columns that ``scm.sample_noise`` draws."""
    noise = scm.sample_noise(n, seed)
    return (np.column_stack([noise[v] for v in linear.nodes])
            + linear.offsets) @ linear.mixing().T


def assert_same_general(got: GeneralScm, want: GeneralScm, exact: bool) -> None:
    assert got.nodes == want.nodes
    assert got.parents == want.parents
    assert got.noises == want.noises
    assert np.array_equal(got.simulate(64, 11).rows, want.simulate(64, 11).rows)
    if exact:
        joint, levels = exact_joint(got)
        ref, ref_levels = exact_joint(want)
        assert levels == ref_levels
        assert np.array_equal(joint.probs, ref.probs)


def _check(ex, truth: Dag, scm: GeneralScm, linear: LinearScm | None) -> None:
    assert ex.ground_truth == truth
    assert ex.ground_truth.to_json_obj() == truth.to_json_obj()
    assert_same_linear(ex.linear, linear)
    rounds = scm.noises[scm.nodes[0]].params[0]
    # exact joints only where the noise product stays small
    assert_same_general(ex.scm, scm,
                        exact=(2 * rounds + 1) ** len(scm.nodes) <= 2500)


_bias = st.floats(0.05, 0.95, allow_nan=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 6),
       st.lists(_bias, min_size=4, max_size=4))
def test_urn2_models_match_hand_written(rounds, extra_b, extra_r, biases):
    kb0, kr0 = rounds + 1 + extra_b, rounds + 1 + extra_r
    ex = urn_bivariate(kb0=kb0, kr0=kr0, rounds=rounds, coin_biases=biases)
    _check(ex, *ref_urn2(kb0, kr0, rounds, tuple(float(b) for b in biases)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data(), st.integers(2, 5), st.sampled_from(("low", "high")),
       st.integers(1, 3))
def test_urn_chain_models_match_hand_written(data, n, endpoint, rounds):
    k0 = data.draw(st.lists(st.integers(rounds + 1, rounds + 30),
                            min_size=n, max_size=n), label="k0")
    biases = data.draw(st.lists(_bias, min_size=2 * n, max_size=2 * n),
                       label="biases")
    ex = urn_chain(n=n, k0=k0, rounds=rounds, coin_biases=biases,
                   endpoint=endpoint)
    _check(ex, *ref_urn_chain(n, tuple(k0), rounds,
                              tuple(float(b) for b in biases), endpoint))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data(), st.integers(2, 5), st.integers(1, 3), st.integers(1, 4))
def test_bundles_models_match_hand_written(data, n, rounds, spare):
    biases = data.draw(st.lists(_bias, min_size=2 * n, max_size=2 * n),
                       label="biases")
    r0 = rounds + spare
    ex = bundles_chain(n=n, rounds=rounds, coin_biases=biases,
                       initial_packages=r0)
    _check(ex, *ref_bundles(n, rounds, tuple(float(b) for b in biases), r0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data(), st.integers(2, 5), st.sampled_from(("low", "high")))
def test_process_linear_simulates_like_its_general_form(data, n, endpoint):
    # the high endpoint keeps no linear block, but its process still has one
    biases = data.draw(st.lists(_bias, min_size=2 * n, max_size=2 * n))
    ex = urn_chain(n=n, k0=(20,) * n, rounds=3, coin_biases=biases,
                   endpoint=endpoint)
    linear = ex.process.linear(ex.notes["class_nodes"])
    assert linear.graph() == ex.ground_truth
    assert np.array_equal(linear_rows(linear, ex.scm, 200, 4),
                          ex.scm.simulate(200, 4).rows)
    # S is the mixing matrix and S[v, v] = 1 for every node
    assert np.array_equal(np.diag(linear.mixing()), np.ones(n))


def test_general_form_of_a_non_integer_linear_model():
    linear = LinearScm(
        nodes=("x", "y", "z"),
        a=np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [-0.3, 1.9, 0.0]]),
        offsets=np.array([0.5, -1.25, 2.0]),
        noises=(NoiseSpec.binomdiff(2, 0.3, 0.6),
                NoiseSpec.finite([-0.75, 0.5, 1.25], [0.25, 0.5, 0.25]),
                NoiseSpec.degenerate(-0.5)))
    scm = dataclasses.replace(linear.general(), noise_streams={"y": 3})
    assert scm.parents == {"x": (), "y": ("x",), "z": ("x", "y")}
    assert scm.noises == dict(zip(linear.nodes, linear.noises))
    assert np.allclose(scm.simulate(500, 9).rows, linear_rows(linear, scm, 500, 9),
                       rtol=0, atol=1e-12)
    # coefficients and offsets enter as plain floats
    out = scm.mechanisms["z"]({"x": 1.0, "y": 2.0}, 0.25)
    assert type(out) is float and out == 2.0 - 0.3 + 3.8 + 0.25
