"""Structural-model tests: simulation, structure algebra, unit maps,
structure-preserving interventions and exact enumeration."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math

import numpy as np
import scipy.stats
import pytest
from hypothesis import given, settings, strategies as st

from phenocausal import (
    Dataset,
    DiscreteJoint,
    GeneralScm,
    LinearScm,
    NoiseSpec,
    ScmError,
    SingularStructureError,
    build_embedding,
    bundles_mixing,
    exact_joint,
    is_markov,
    solve_structure,
    structure_preserving_intervention,
    total_effect,
    unit_map,
    urn_bivariate,
    urn_chain,
    urn2_controllers,
    urn_toeplitz_mixing,
)


def _urn2_linear(rounds=4):
    return urn_bivariate(kb0=30, kr0=30, rounds=rounds).linear


# ---------------------------------------------------------------------------
# Noise specs
# ---------------------------------------------------------------------------


def test_binomdiff_moments_and_pmf():
    spec = NoiseSpec.binomdiff(6, 0.7, 0.2)
    assert spec.mean() == pytest.approx(6 * 0.5)
    assert spec.var() == pytest.approx(6 * (0.21 + 0.16))
    atoms, probs = spec.support()
    assert atoms[0] == -6 and atoms[-1] == 6
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    mean = sum(a * p for a, p in zip(atoms, probs))
    assert mean == pytest.approx(spec.mean(), abs=1e-12)


def test_finite_noise_requires_probability_vector():
    with pytest.raises(ScmError):
        NoiseSpec.finite((0, 1), (0.5, 0.6))


@pytest.mark.parametrize("probs", [(float("nan"), 1.0), (1.0, float("nan"))])
def test_finite_noise_rejects_non_finite_probs(probs):
    with pytest.raises(ScmError):
        NoiseSpec.finite((0, 1), probs)


def test_continuous_families_have_no_support():
    with pytest.raises(ScmError):
        NoiseSpec.uniform(0, 1).support()


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


def test_dataset_csv_roundtrip():
    ds = Dataset(("a", "b"), np.array([[1.0, 2.5], [3.0, -4.0]]), seed=9)
    again = Dataset.from_csv(ds.to_csv(), seed=9)
    assert again.columns == ds.columns
    assert np.array_equal(again.rows, ds.rows)


def test_dataset_rejects_ragged():
    with pytest.raises(ScmError):
        Dataset(("a", "b"), np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_rows(bad):
    rows = np.arange(8.0).reshape(4, 2)
    rows[2, 1] = bad
    with pytest.raises(ScmError, match="row 2 holds a non-finite value"):
        Dataset(("a", "b"), rows)
    # the CSV reader names the line at fault, before the rows reach Dataset
    text = "a,b\n0,1\n2,3\n4," + repr(float(bad)) + "\n6,7\n"
    with pytest.raises(ScmError, match="line 4: non-finite value"):
        Dataset.from_csv(text)


@pytest.mark.parametrize("header", ["a,a", "a,b,a"])
def test_dataset_rejects_duplicate_columns(header):
    cols = header.count(",") + 1
    text = header + "\n" + "1.0," * (cols - 1) + "2.0\n"
    with pytest.raises(ScmError, match="duplicate column names"):
        Dataset.from_csv(text)
    with pytest.raises(ScmError, match="duplicate column names"):
        Dataset(tuple(header.split(",")), np.zeros((1, cols)))


# ---------------------------------------------------------------------------
# Linear SCM simulation
# ---------------------------------------------------------------------------


def test_simulation_deterministic_given_seed():
    lin = _urn2_linear()
    d1 = lin.simulate(2000, 5)
    d2 = lin.simulate(2000, 5)
    assert np.array_equal(d1.rows, d2.rows)
    d3 = lin.simulate(2000, 6)
    assert not np.array_equal(d1.rows, d3.rows)


def test_degenerate_noise_propagates_offsets():
    lin = _urn2_linear()
    frozen = dataclasses.replace(
        lin, noises=tuple(NoiseSpec.degenerate(0.0) for _ in lin.nodes))
    rows = frozen.simulate(4, 1).rows
    assert np.array_equal(rows, np.full((4, 2), 30.0))


def test_urn_sample_means_match_noise_moments():
    rounds = 6
    biases = (0.7, 0.2, 0.4, 0.4)
    lin = urn_bivariate(kb0=40, kr0=40, rounds=rounds, coin_biases=biases).linear
    n = 40_000
    ds = lin.simulate(n, 3)
    e1 = rounds * (biases[0] - biases[1])
    e2 = rounds * (biases[2] - biases[3])
    v1 = rounds * (biases[0] * 0.3 + biases[1] * 0.8)
    v2 = rounds * (biases[2] * 0.6 + biases[3] * 0.6)
    kb, kr = ds.column("Kb"), ds.column("Kr")
    assert abs(kb.mean() - (40 + e1)) < 3 * np.sqrt(v1 / n)
    assert abs(kr.mean() - (40 - e1 + e2)) < 3 * np.sqrt((v1 + v2) / n)


def test_empirical_covariance_matches_mixing():
    lin = _urn2_linear(rounds=5)
    n = 100_000
    ds, noise = lin.simulate(n, 8, return_noise=True)
    s = lin.mixing()
    cov_n = np.diag([spec.var() for spec in lin.noises])
    expected = s @ cov_n @ s.T
    observed = np.cov(ds.rows.T)
    stderr = np.abs(expected).max() * 5 / np.sqrt(n) + 5 * 2.0 / np.sqrt(n)
    assert np.abs(observed - expected).max() < 5 * stderr + 0.05 * np.abs(expected).max()


def test_cyclic_structure_rejected():
    with pytest.raises(ScmError):
        LinearScm(("x", "y"), np.array([[0.0, 1.0], [1.0, 0.0]]),
                  np.zeros(2), (NoiseSpec.gaussian(0, 1),) * 2)


# ---------------------------------------------------------------------------
# Structure algebra
# ---------------------------------------------------------------------------


def test_urn_toeplitz_structure_matrix_exact():
    sol = solve_structure(urn_toeplitz_mixing(5))
    expected = np.zeros((5, 5))
    expected[np.tril_indices(5, -1)] = -1.0
    assert np.array_equal(sol.a, expected)
    assert len(sol.dag.edges) == 10  # complete DAG over 5 nodes


def test_bivariate_urn_structure_matrix():
    sol = solve_structure(np.array([[1.0, 0.0], [-1.0, 1.0]]), nodes=("Kb", "Kr"))
    assert np.array_equal(sol.a, np.array([[0.0, 0.0], [-1.0, 0.0]]))
    assert set(sol.dag.edges) == {("Kb", "Kr")}


def test_bundles_structure_matrix_exact():
    sol = solve_structure(bundles_mixing(4))
    expected = np.zeros((4, 4))
    for i in range(1, 4):
        expected[i, i - 1] = 1.0
    assert np.array_equal(sol.a, expected)
    assert len(sol.dag.edges) == 3


def test_solve_structure_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = np.tril(rng.uniform(-2, 2, (4, 4)), -1)
        s = np.linalg.inv(np.eye(4) - a)
        sol = solve_structure(s)
        assert np.abs(np.linalg.inv(np.eye(4) - sol.a) - s).max() <= 1e-12


def test_singular_mixing_rejected():
    with pytest.raises(SingularStructureError):
        solve_structure(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_total_effect_cancellation():
    lin = urn_chain(n=5).linear
    for j in range(5, 2, -1):
        assert total_effect(lin, f"K{j}", f"K{j-2}") == 0.0
    for j in range(5, 1, -1):
        assert total_effect(lin, f"K{j}", f"K{j-1}") == -1.0


def test_total_effect_bundles_propagates_everywhere():
    from phenocausal import bundles_chain

    blin = bundles_chain(n=4).linear
    assert total_effect(blin, "K4", "K1") == 1.0
    assert total_effect(blin, "K4", "K3") == 1.0


def test_total_effect_zero_for_nondescendants():
    rng = np.random.default_rng(4)
    a = np.tril(rng.uniform(0.5, 2, (4, 4)), -1) * (rng.random((4, 4)) < 0.5)
    lin = LinearScm(tuple("wxyz"), a, np.zeros(4),
                    tuple(NoiseSpec.uniform(-1, 1) for _ in range(4)))
    g = lin.graph()
    for i in g.nodes:
        for j in g.nodes:
            if i != j and j not in g.descendants(i):
                assert abs(total_effect(lin, i, j)) <= 1e-12


# ---------------------------------------------------------------------------
# General SCM: unit maps, enumeration, consistency
# ---------------------------------------------------------------------------


def test_unit_map_additive_example():
    scm = GeneralScm(
        nodes=("X", "Y"), parents={"Y": ("X",)},
        mechanisms={"X": lambda pa, n: n, "Y": lambda pa, n: pa["X"] + n},
        noises={"X": NoiseSpec.discrete_uniform(0, 3),
                "Y": NoiseSpec.discrete_uniform(0, 3)},
    )
    m = unit_map(scm, "Y", 3)
    assert m({"X": 4}) == 7
    assert m({"X": -1}) == 2


def test_unit_map_constant_mechanism():
    scm = GeneralScm(
        nodes=("X",), parents={},
        mechanisms={"X": lambda pa, n: 42.0},
        noises={"X": NoiseSpec.discrete_uniform(0, 5)},
    )
    assert unit_map(scm, "X", 0)({}) == unit_map(scm, "X", 5)({}) == 42.0


def test_urn_unit_relation_after_a1_actions():
    # with only conversion actions, Kr = c - Kb for a unit-fixed constant
    ex = urn_bivariate(kb0=10, kr0=10, rounds=3)
    m = unit_map(ex.scm, "Kr", 0)  # zero A2 tally
    c = m({"Kb": 10}) + 10
    for kb in (8, 9, 11, 12):
        assert m({"Kb": kb}) == c - kb


def test_unit_map_reproduces_simulated_rows():
    ex = urn_bivariate(kb0=20, kr0=20, rounds=4)
    ds, noise = ex.scm.simulate(50, 12, return_noise=True)
    for r in range(50):
        state = {v: ds.rows[r][k] for k, v in enumerate(ex.scm.nodes)}
        for v in ex.scm.nodes:
            m = unit_map(ex.scm, v, noise[v][r])
            pa = {p: state[p] for p in ex.scm.parents[v]}
            assert m(pa) == state[v]


def test_exact_joint_is_markov_to_induced_dag():
    ex = urn_bivariate(kb0=15, kr0=15, rounds=3)
    joint, levels = exact_joint(ex.scm)
    assert is_markov(joint, ex.scm.graph(), 1e-12)
    assert levels["Kb"] == tuple(range(12, 19))


def test_exact_joint_cap():
    ex = urn_bivariate(kb0=40, kr0=40, rounds=6)
    with pytest.raises(ScmError):
        exact_joint(ex.scm, max_combos=10)


# ---------------------------------------------------------------------------
# Structure-preserving interventions
# ---------------------------------------------------------------------------


def test_structure_preserving_keeps_law_changes_units():
    ex = urn_bivariate(kb0=25, kr0=25, rounds=4)
    scm2 = structure_preserving_intervention(ex.scm, "Kr", fresh_seed=99)
    d1, n1 = ex.scm.simulate(3000, 21, return_noise=True)
    d2, n2 = scm2.simulate(3000, 21, return_noise=True)
    # non-descendants of Kr bit-identical under shared upstream noise
    assert np.array_equal(d1.column("Kb"), d2.column("Kb"))
    # unit values of Kr change
    assert not np.array_equal(d1.column("Kr"), d2.column("Kr"))
    # same conditional law: exact joints agree
    j1, _ = exact_joint(ex.scm)
    j2, _ = exact_joint(scm2)
    assert np.abs(j1.probs - j2.probs).max() <= 1e-12


def test_structure_preserving_linear_variant():
    lin = _urn2_linear()
    lin2 = structure_preserving_intervention(lin, "Kb", fresh_seed=5)
    d1 = lin.simulate(1000, 3)
    d2 = lin2.simulate(1000, 3)
    assert not np.array_equal(d1.column("Kb"), d2.column("Kb"))
    assert lin2.noises == lin.noises


def exact_joint_reference(scm: GeneralScm):
    """The former enumeration: weights summed in a dict keyed by state,
    zero-weight assignments skipped, then one table over sorted levels."""
    supports = [scm.noises[v].support() for v in scm.nodes]
    weights: dict[tuple, float] = {}
    for atoms, probs in zip(itertools.product(*(a for a, _ in supports)),
                            itertools.product(*(p for _, p in supports))):
        w = math.prod(probs)
        if w == 0.0:
            continue
        state = scm.evaluate(dict(zip(scm.nodes, atoms)))
        key = tuple(state[v] for v in scm.nodes)
        weights[key] = weights.get(key, 0.0) + w
    levels = {v: tuple(sorted({key[k] for key in weights}))
              for k, v in enumerate(scm.nodes)}
    table = np.zeros(tuple(len(levels[v]) for v in scm.nodes))
    index = {v: {val: i for i, val in enumerate(levels[v])} for v in scm.nodes}
    for key, w in weights.items():
        table[tuple(index[v][key[k]] for k, v in enumerate(scm.nodes))] += w
    return DiscreteJoint(scm.nodes, table), levels


def _wrapped_sum(terms, modulus, use_noise=True):
    # many noise assignments share a state: the sum is taken mod ``modulus``
    if not use_noise:
        return lambda pa, u: float(sum(c * pa[p] for p, c in terms) % modulus)
    return lambda pa, u: float((u + sum(c * pa[p] for p, c in terms)) % modulus)


def _by_context(inner, ctx):
    # a vector noise atom with one component per value of parent ``ctx``, the
    # component picked by that value, as ``build_embedding`` wires controllers
    return lambda pa, atom: inner(pa, atom[int(pa[ctx]) % len(atom)])


def _integer_weights(data, k):
    # integer weights with zeros: zero-probability atoms are common
    w = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                  .filter(lambda ws: sum(ws) > 0))
    return [x / sum(w) for x in w]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 5))
def test_exact_joint_matches_dict_then_table_reference(data, d):
    nodes = tuple(f"V{k}" for k in range(d))
    # V0 passes its atom through, and its last atom has weight zero: that
    # value reaches its children only at zero weight and leaves the levels
    k0 = data.draw(st.integers(2, 4))
    atoms0 = data.draw(st.lists(st.integers(-3, 3), min_size=k0, max_size=k0,
                                unique=True))
    parents = {"V0": ()}
    mechanisms = {"V0": lambda pa, u: u}
    noises = {"V0": NoiseSpec.finite([float(a) for a in atoms0],
                                     _integer_weights(data, k0 - 1) + [0.0])}
    for j, v in enumerate(nodes[1:], start=1):
        pa = tuple(p for p in nodes[:j] if data.draw(st.booleans()))
        terms = tuple((p, data.draw(st.integers(-2, 2))) for p in pa)
        parents[v] = pa
        mech = _wrapped_sum(terms, data.draw(st.integers(1, 4)),
                            use_noise=data.draw(st.booleans()))
        k = data.draw(st.integers(1, 4))
        width = data.draw(st.integers(1, 3)) if pa else 1
        atoms = [tuple(float(a) for a in data.draw(
                     st.lists(st.integers(-3, 3), min_size=width, max_size=width)))
                 for _ in range(k)]
        if pa and data.draw(st.booleans()):
            mech = _by_context(mech, data.draw(st.sampled_from(pa)))
        else:
            atoms = [a[0] for a in atoms]
        mechanisms[v] = mech
        noises[v] = NoiseSpec.finite(atoms, _integer_weights(data, k))
    scm = GeneralScm(nodes=nodes, parents=parents, mechanisms=mechanisms,
                     noises=noises)
    joint, levels = exact_joint(scm)
    ref, ref_levels = exact_joint_reference(scm)
    assert joint.names == ref.names
    assert np.array_equal(joint.probs, ref.probs)
    assert levels == ref_levels
    assert float(atoms0[-1]) not in levels["V0"]


def test_exact_joint_calls_each_mechanism_once_per_parent_values_and_atom():
    base, shifted = (0.5, 0.4, 0.6, 0.3), (0.7, 0.2, 0.4, 0.5)
    ex = urn_bivariate(kb0=12, kr0=12, rounds=3, coin_biases=base)
    scm, _ = build_embedding(ex, urn2_controllers(3, base, shifted))
    calls = collections.Counter()

    def counted(v, mech):
        def wrapper(pa, atom):
            calls[v, tuple(sorted(pa.items())), atom] += 1
            return mech(pa, atom)
        return wrapper

    counted_scm = dataclasses.replace(
        scm, mechanisms={v: counted(v, m) for v, m in scm.mechanisms.items()})
    joint, levels = exact_joint(counted_scm)
    assert max(calls.values()) == 1
    # 2 + 2 (Y1, Y2) + 2 x 49 (Kb: Y1 x vector atom) + 7 x 2 x 49 (Kr: Kb x Y2
    # x vector atom); evaluating all 2 x 2 x 49 x 49 assignments in full
    # makes 4 x 9604 = 38,416 calls
    assert sum(calls.values()) == 788
    ref, ref_levels = exact_joint_reference(scm)
    assert np.array_equal(joint.probs, ref.probs) and levels == ref_levels


@pytest.mark.parametrize("cards", [(3, 5, 2), (2**33, 2**33, 3), (2**62, 2)])
def test_distinct_rows_groups_equal_rows(cards):
    # cardinalities whose product leaves int64 take the re-coding path; a
    # wrapped key would merge (2**31, 0, 0) with (0, 0, 0)
    from phenocausal.scm import _distinct_rows

    rng = np.random.default_rng(5)
    columns = [rng.choice(np.array([0, 1, 2**31 % card, card - 1], dtype=np.int64), 200)
               for card in cards]
    first, inverse = _distinct_rows(columns, list(cards), 200)
    rows = list(zip(*(c.tolist() for c in columns)))
    assert len(first) == len(set(rows))
    for i, row in enumerate(rows):
        j = first[inverse[i]]
        assert rows[j] == row and j == rows.index(row)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300),
       st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.lists(st.integers(2, 2**40), max_size=3))
def test_distinct_rows_equals_np_unique_on_dense_and_sparse_keys(seed, rows, cards,
                                                                 wide):
    # small cardinalities fill their key space; wide ones leave it sparse
    # and, past int64, take the re-coding path. The mixed-radix keys must
    # order rows as np.unique orders the rows themselves.
    from phenocausal.scm import _distinct_rows

    if not wide:
        rows = max(rows, math.prod(cards))
    cards = cards + wide
    rng = np.random.default_rng(seed)
    columns = [rng.integers(0, card, rows) for card in cards]
    _, want_first, want_inverse = np.unique(
        np.stack(columns, axis=1), axis=0, return_index=True, return_inverse=True)
    first, inverse = _distinct_rows(columns, cards, rows)
    assert np.array_equal(first, want_first)
    assert np.array_equal(inverse, want_inverse.ravel())


def _two_pmfs(r, pp, pm):
    # the former binomdiff support: one binom.pmf call per coin
    plus = scipy.stats.binom.pmf(np.arange(r + 1), r, pp)
    minus = scipy.stats.binom.pmf(np.arange(r + 1), r, pm)
    return np.convolve(plus, minus[::-1])


@pytest.mark.parametrize("r", [0, 1, 3, 12])
@pytest.mark.parametrize("pp, pm", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                                    (0.0, 0.35), (1.0, 0.35), (0.35, 0.0),
                                    (0.35, 1.0), (0.7, 0.2)])
def test_binomdiff_support_equals_two_separate_pmfs(r, pp, pm):
    atoms, probs = NoiseSpec.binomdiff(r, pp, pm).support()
    assert atoms == tuple(float(v) for v in range(-r, r + 1))
    assert np.array(probs).tobytes() == _two_pmfs(r, pp, pm).tobytes()


def _bytes_or_error(pmf):
    try:
        return np.array(pmf()).tobytes()
    except ArithmeticError as exc:  # scipy overflows at some subnormal p
        return type(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 20), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_binomdiff_support_equals_two_separate_pmfs_at_random(r, pp, pm):
    got = _bytes_or_error(lambda: NoiseSpec.binomdiff(r, pp, pm).support()[1])
    assert got == _bytes_or_error(lambda: _two_pmfs(r, pp, pm))
