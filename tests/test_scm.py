"""Structural-model tests: simulation, structure algebra, unit maps,
structure-preserving interventions and exact enumeration."""

from __future__ import annotations

import collections
import csv
import dataclasses
import io
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import scipy.linalg
import scipy.stats
import pytest
from hypothesis import given, settings, strategies as st

from phenocausal import exemplars
from phenocausal.actions import unit_displacements
from phenocausal.scm import NOISE_COMBO_CAP, _binomial_pmf
from phenocausal import (
    Dataset,
    DiscreteJoint,
    GeneralScm,
    LinearScm,
    NoiseSpec,
    ScmError,
    SingularStructureError,
    TableError,
    bundles_chain,
    exact_joint,
    is_markov,
    solve_structure,
    structure_preserving_intervention,
    total_effect,
    unit_map,
    urn_bivariate,
    urn_chain,
    urn2_controllers,
)
from embedding_reference import embedding_reference
from urn_oracles import bundles_mixing, urn_toeplitz_mixing


def _urn2_linear(rounds=4):
    return urn_bivariate(kb0=30, kr0=30, rounds=rounds).linear


# ---------------------------------------------------------------------------
# Noise specs
# ---------------------------------------------------------------------------


def _moments(spec: NoiseSpec) -> tuple[float, float]:
    """Mean and variance of a finite noise, from its support."""
    atoms, probs = (np.asarray(x) for x in spec.support())
    mean = float(probs @ atoms)
    return mean, float(probs @ atoms**2) - mean**2


def test_binomdiff_moments_and_pmf():
    spec = NoiseSpec.binomdiff(6, 0.7, 0.2)
    atoms, probs = spec.support()
    assert atoms[0] == -6 and atoms[-1] == 6
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    mean, var = _moments(spec)
    assert mean == pytest.approx(6 * (0.7 - 0.2), abs=1e-12)
    assert var == pytest.approx(6 * (0.7 * 0.3 + 0.2 * 0.8), abs=1e-12)


def test_finite_noise_requires_probability_vector():
    with pytest.raises(ScmError):
        NoiseSpec.finite((0, 1), (0.5, 0.6))


@pytest.mark.parametrize("probs", [(float("nan"), 1.0), (1.0, float("nan"))])
def test_finite_noise_rejects_non_finite_probs(probs):
    with pytest.raises(ScmError):
        NoiseSpec.finite((0, 1), probs)


@pytest.mark.parametrize("atoms", [((0.0, 1.0), (1.0, 0.0)), ("a", "b"), (0.0, "1")])
def test_finite_noise_refuses_atoms_that_are_not_real(atoms):
    with pytest.raises(ScmError, match="real"):
        NoiseSpec.finite(atoms, (0.5, 0.5))


def test_finite_noise_stores_real_atoms_as_floats():
    spec = NoiseSpec.finite((0, np.int64(2), 0.5, math.nan), (0.25,) * 4)
    assert all(type(a) is float for a in spec.atoms)
    assert spec.atoms[:3] == (0.0, 2.0, 0.5) and math.isnan(spec.atoms[3])


@pytest.mark.parametrize("value", [(1.0, 2.0), "1", None])
def test_degenerate_noise_refuses_a_value_that_is_not_real(value):
    with pytest.raises(ScmError, match="real"):
        NoiseSpec.degenerate(value)


def test_degenerate_noise_stores_its_value_as_a_float():
    for value in (3, np.int64(-2), np.float32(0.25), math.nan):
        spec = NoiseSpec.degenerate(value)
        (atom,) = spec.params
        assert type(atom) is float and (atom == value or math.isnan(value))
        assert spec.support() == ((atom,), (1.0,)) or math.isnan(value)


def test_continuous_families_have_no_support():
    # no constructor builds one; a spec built directly is refused
    spec = NoiseSpec("uniform", (0.0, 1.0))
    with pytest.raises(ScmError, match="no finite support"):
        spec.support()
    with pytest.raises(ScmError, match="unknown noise family"):
        spec.sample(np.random.default_rng(0), 3)


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


def _reference_format_number(v):
    return repr(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


def _reference_to_csv(ds):
    # the former writer: csv.writer, one row at a time
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ds.columns)
    for row in ds.rows:
        writer.writerow([_reference_format_number(v) for v in row])
    return buf.getvalue()


def _reference_from_csv(text):
    # the former reader: csv.reader, one row at a time
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header:
        raise ScmError("CSV has no header line")
    cells, lines = [], []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ScmError(f"line {reader.line_num}: {len(row)} fields, "
                           f"header has {len(header)}")
        for field in row:  # digit groups and non-ASCII digits are no CSV numbers
            if "_" in field or not field.isascii():
                raise ScmError(f"line {reader.line_num}: {field!r} is not a CSV number")
        cells.append(row)
        lines.append(reader.line_num)
    if not cells:
        raise ScmError("CSV has a header but no data rows")
    try:
        rows = np.array(cells, dtype=float)
    except ValueError as exc:
        for row, line in zip(cells, lines):
            try:
                np.array(row, dtype=float)
            except ValueError:
                raise ScmError(f"line {line}: {exc}") from None
        raise
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ScmError(f"line {lines[k]}: non-finite value in {cells[k]}")
    return Dataset(tuple(header), rows)


def _read_outcome(read, text):
    try:
        ds = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.columns, ds.rows.shape, ds.rows.tobytes()


def _assert_reads_like_reference(text):
    outcome = _read_outcome(Dataset.from_csv, text)
    expected = _read_outcome(_reference_from_csv, text)
    if expected[0] is csv.Error:
        # the csv module's own error arrives as an ScmError naming the line
        assert outcome[0] is ScmError
        assert re.fullmatch(r"line \d+: " + re.escape(expected[1]), outcome[1])
    else:
        assert outcome == expected
    return outcome


_ODD_FIELDS = ["1_0", "0x10", "nan", "-inf", "Infinity", "1e400", "1e-400", " 1", "2 ",
               " 3 ", "", "x", "1e5", "1E+2", "+4", "-0", ".5", "5.", "١٢",
               "\x0c6", "7\u2028", "\u00a08", "\x1c9", "\x859", '"1"', '"2,3"', "1\x00",
               # where numpy's float grammar and Python's could part
               "1e5_0", "nan(1)", "0x1p3", "iNfInItY", "+.5", "1e", "-.e1"]
_CSV_FIELDS = st.one_of(st.integers(-10**6, 10**6).map(str),
                        st.integers(-10**20, 10**20).map(str),
                        st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        st.sampled_from(_ODD_FIELDS))


@st.composite
def _csv_texts(draw):
    width = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["a", "b", "c", " d", "e f", "é"]),
                          min_size=width, max_size=width))
    header = ",".join(names)
    if draw(st.integers(0, 9)) == 0:
        header = '"' + header + ',q"'
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append("")
        else:
            n = width if kind > 1 else draw(st.integers(0, 4))
            lines.append(",".join(draw(st.lists(_CSV_FIELDS, min_size=n, max_size=n))))
    if draw(st.integers(0, 14)) == 0:
        lines.insert(0, "")
    end = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end, end + end]))
    if draw(st.integers(0, 14)) == 0:
        k = draw(st.integers(0, len(text)))
        text = text[:k] + "\x00" + text[k:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_csv_texts())
def test_from_csv_matches_row_by_row_reader(text):
    _assert_reads_like_reference(text)


@pytest.mark.parametrize("text", [
    "", "\n", "\na,b\n1,2\n", "a,b", "a,b\n", "a,b\n\n\n", "a,b\n1,2\n3\n", "a,b\n1,2,3\n",
    "a,b\n1\n2,3\n", "a,b\n1,2,3\n4\n", "a,b,c\n1\n2,3,4,5\n", "a,b\n1,2\n3,4", "a,b\n\n1,2\n\n3,4\n\n", "a\n1\n \n", "a\n1\n,\n",
    "a,b\n1,\n", "a,b\n1_0,0x10\n", "a,b\n1,nan\n", "a,b\n1,1e400\n", "a,a\n1,2\n",
    "a, b\n 1 ,2 \n", '"a,b",c\n1,2,3\n', '"a",b\r\n1,2\r\n', "a,b\r1,2\r", "a,b\n1,\x002\n",
    "a,,b\n1,2,3\n", "a\u2028b,c\n1\u2028,2\n", "a\x85b,c\n1,2\x85\n",
    # numpy's parser strips these control characters, where float refuses them
    "a,a,a\n0,0,\x1c9\n", "a,b\n\x1d4\x1e,\x1f2\n",
])
def test_from_csv_matches_row_by_row_reader_on_edge_texts(text):
    _assert_reads_like_reference(text)


@pytest.mark.parametrize("width, accepted", [(20, True), (21, False), (40, False)])
def test_from_csv_keeps_the_csv_field_size_limit(width, accepted):
    text = "a,b\n1," + " " * (width - 1) + "2\n3,4\n"
    old = csv.field_size_limit(20)
    try:
        outcome = _assert_reads_like_reference(text)
        assert (outcome[0] == ("a", "b")) == accepted
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("text, message", [
    ("a,b\r1,2\r", "line 1: new-line character seen in unquoted field"),
    ("a,b\n1,2\r3,4\n", "line 2: new-line character seen in unquoted field"),
    ("a,b\n1,2\n3," + "4" * 200_000 + "\n", "line 3: field larger than field limit"),
    ("a," + "b" * 200_000 + "\n1,2\n", "line 1: field larger than field limit"),
])
def test_csv_module_errors_are_scm_errors(text, message):
    with pytest.raises(ScmError, match="^" + re.escape(message)):
        Dataset.from_csv(text)


@pytest.mark.parametrize("text, message", [
    ("a,b\n1_0,2\n3,1e5_0\n", "line 2: '1_0' is not a CSV number"),
    ("a,b\n1,2\n3,1e5_0\n", "line 3: '1e5_0' is not a CSV number"),
    ("a,b\n1,2\n3,\u0664\n", "line 3: '\u0664' is not a CSV number"),
    ('a,b\n1,"\u00a08"\n', "line 2: '\\xa08' is not a CSV number"),
])
def test_from_csv_refuses_digit_groups_and_non_ascii_fields(text, message):
    with pytest.raises(ScmError, match="^" + re.escape(message) + "$"):
        Dataset.from_csv(text)


@pytest.mark.parametrize("row", ["1,2", '"1",2'])  # quotes take the csv module
def test_from_csv_keeps_any_header_text(row):
    ds = Dataset.from_csv(f"a_1,\u00e9\u0664\n{row}\n")
    assert ds.columns == ("a_1", "\u00e9\u0664") and ds.rows.tolist() == [[1.0, 2.0]]


_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e15, -1e15, np.nextafter(1e15, 0.0),
                -np.nextafter(1e15, 0.0), np.nextafter(1e15, 2e15), 2.0 ** 53,
                2.0 ** 53 + 2, -(2.0 ** 53), 5e-324, -5e-324, 2.2250738585072014e-308,
                1e-310, 1e300, -1e300, 1.7976931348623157e308, 1.2345678901234568e17,
                1e16, 1e-7, 123.25]
_INTEGRAL = st.one_of(st.integers(-10**6, 10**6).map(float),
                      st.integers(-10**15 + 1, 10**15 - 1).map(float),
                      st.sampled_from([0.0, -0.0, 2.0 ** 52, np.nextafter(1e15, 0.0)]))
_ANY_VALUE = st.one_of(_INTEGRAL, st.sampled_from(_EDGE_VALUES),
                       st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _datasets(draw, names, min_width=0, min_rows=0):
    width = draw(st.integers(min_width, 4))
    columns = tuple(draw(st.lists(st.sampled_from(names), min_size=width,
                                  max_size=width, unique=True)))
    n = draw(st.integers(min_rows, 8))
    cols = [draw(st.lists(draw(st.sampled_from([_INTEGRAL, _ANY_VALUE])),
                          min_size=n, max_size=n)) for _ in range(width)]
    return Dataset(columns, np.array(cols, dtype=float).T.reshape(n, width))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_datasets(["a", "b", "c d", "a,b", 'q"x', " s", "", "é"]))
def test_to_csv_matches_row_by_row_writer(ds):
    assert ds.to_csv() == _reference_to_csv(ds)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_datasets(["a", "b", "c d", " s", "é", "Kb", "Kr"], min_width=1, min_rows=1))
def test_reading_written_csv_skips_the_csv_module(ds):
    text = ds.to_csv()
    with mock.patch.object(csv, "reader", side_effect=AssertionError("csv.reader called")):
        again = Dataset.from_csv(text)
    assert again.columns == ds.columns
    assert np.array_equal(again.rows, ds.rows)


# ---------------------------------------------------------------------------
# Linear SCM simulation
# ---------------------------------------------------------------------------


def test_simulation_deterministic_given_seed():
    lin = _urn2_linear()
    d1 = lin.general().simulate(2000, 5)
    d2 = lin.general().simulate(2000, 5)
    assert np.array_equal(d1.rows, d2.rows)
    d3 = lin.general().simulate(2000, 6)
    assert not np.array_equal(d1.rows, d3.rows)


def test_degenerate_noise_propagates_offsets():
    lin = _urn2_linear()
    frozen = dataclasses.replace(
        lin, noises=tuple(NoiseSpec.degenerate(0.0) for _ in lin.nodes))
    rows = frozen.general().simulate(4, 1).rows
    assert np.array_equal(rows, np.full((4, 2), 30.0))


def test_urn_sample_means_match_noise_moments():
    rounds = 6
    biases = (0.7, 0.2, 0.4, 0.4)
    lin = urn_bivariate(kb0=40, kr0=40, rounds=rounds, coin_biases=biases).linear
    n = 40_000
    ds = lin.general().simulate(n, 3)
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
    ds = lin.general().simulate(n, 8)
    s = lin.mixing()
    cov_n = np.diag([_moments(spec)[1] for spec in lin.noises])
    expected = s @ cov_n @ s.T
    observed = np.cov(ds.rows.T)
    stderr = np.abs(expected).max() * 5 / np.sqrt(n) + 5 * 2.0 / np.sqrt(n)
    assert np.abs(observed - expected).max() < 5 * stderr + 0.05 * np.abs(expected).max()


def test_cyclic_structure_rejected():
    with pytest.raises(ScmError):
        LinearScm(("x", "y"), np.array([[0.0, 1.0], [1.0, 0.0]]),
                  np.zeros(2), (NoiseSpec.degenerate(0.0),) * 2)


# ---------------------------------------------------------------------------
# Structure algebra
# ---------------------------------------------------------------------------


def test_urn_toeplitz_structure_matrix_exact():
    a = solve_structure(urn_toeplitz_mixing(5))
    expected = np.zeros((5, 5))
    expected[np.tril_indices(5, -1)] = -1.0
    assert np.array_equal(a, expected)


def test_bivariate_urn_structure_matrix():
    a = solve_structure(np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert np.array_equal(a, np.array([[0.0, 0.0], [-1.0, 0.0]]))


def test_bundles_structure_matrix_exact():
    a = solve_structure(bundles_mixing(4))
    expected = np.zeros((4, 4))
    for i in range(1, 4):
        expected[i, i - 1] = 1.0
    assert np.array_equal(a, expected)


def test_solve_structure_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = np.tril(rng.uniform(-2, 2, (4, 4)), -1)
        s = np.linalg.inv(np.eye(4) - a)
        got = solve_structure(s)
        assert np.abs(np.linalg.inv(np.eye(4) - got) - s).max() <= 1e-12


def test_singular_mixing_rejected():
    with pytest.raises(SingularStructureError):
        solve_structure(np.array([[1.0, 1.0], [1.0, 1.0]]))


def _scipy_structure(s: np.ndarray) -> tuple[bool, np.ndarray]:
    """The LAPACK path solve_structure once took: (singular verdict, A)."""
    lu, piv = scipy.linalg.lu_factor(s)
    a = np.eye(len(s)) - scipy.linalg.lu_solve((lu, piv), np.eye(len(s)))
    a[np.abs(a) < 1e-12] = 0.0
    return bool(np.abs(np.diag(lu)).min() < 1e-10), a


def _exemplar_mixings() -> list[np.ndarray]:
    """Every mixing matrix the urn exemplars solve, n = 2..8."""
    seen = []

    def recording(s):
        seen.append(s)
        return solve_structure(s)

    with mock.patch.object(exemplars, "solve_structure", recording):
        urn_bivariate().linear
        for n in range(2, 9):
            urn_chain(n=n).ground_truth
            urn_chain(n=n, endpoint="high").ground_truth
            bundles_chain(n=n).ground_truth
    return seen


def test_solve_structure_matches_lapack_on_exemplar_mixings():
    mixings = _exemplar_mixings()
    assert len(mixings) == 22
    for s in mixings:
        singular, a = _scipy_structure(s)
        assert not singular
        assert np.array_equal(solve_structure(s), a)


def test_solve_structure_close_to_lapack_on_random_mixings():
    # on an arbitrary S the last bits may differ from LAPACK's, whose
    # kernels order and fuse the operations differently
    rng = np.random.default_rng(20)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        s = rng.normal(size=(d, d)) + d * np.diag(rng.choice([-1.0, 1.0], d))
        _, a = _scipy_structure(s)
        got = solve_structure(s)
        assert np.abs(got - a).max() <= 1e-12 * max(1.0, np.abs(a).max())


@pytest.mark.parametrize("pivot, singular", [(1e-12, True), (1e-8, False)])
def test_singular_verdict_matches_lapack(pivot, singular):
    # S = L U with |L| < 1 below the diagonal, so partial pivoting keeps U's
    # diagonal as the pivots, one of which is ``pivot``
    rng = np.random.default_rng(21)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        lower = np.eye(d) + np.tril(rng.uniform(-0.5, 0.5, (d, d)), -1)
        diag = rng.uniform(1.0, 2.0, d) * rng.choice([-1.0, 1.0], d)
        diag[rng.integers(d)] = pivot
        s = lower @ (np.diag(diag) + np.triu(rng.uniform(-1, 1, (d, d)), 1))
        assert _scipy_structure(s)[0] is singular
        if singular:
            with pytest.raises(SingularStructureError):
                solve_structure(s)
        else:
            solve_structure(s)


@pytest.mark.parametrize("s", [np.zeros((0, 0)), np.float64(1.0), np.ones(3),
                               np.ones((2, 3)), np.array([[1.0, 0.0], [np.nan, 1.0]])])
def test_solve_structure_refuses_malformed_mixing(s):
    with pytest.raises(ScmError):
        solve_structure(s)


def test_total_effect_cancellation():
    lin = urn_chain(n=5).linear
    for j in range(5, 2, -1):
        assert total_effect(lin, f"K{j}", f"K{j-2}") == 0.0
    for j in range(5, 1, -1):
        assert total_effect(lin, f"K{j}", f"K{j-1}") == -1.0


def test_total_effect_bundles_propagates_everywhere():
    blin = bundles_chain(n=4).linear
    assert total_effect(blin, "K4", "K1") == 1.0
    assert total_effect(blin, "K4", "K3") == 1.0


def test_total_effect_zero_for_nondescendants():
    rng = np.random.default_rng(4)
    a = np.tril(rng.uniform(0.5, 2, (4, 4)), -1) * (rng.random((4, 4)) < 0.5)
    lin = LinearScm(tuple("wxyz"), a, np.zeros(4),
                    (NoiseSpec.degenerate(0.0),) * 4)
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
        noises={"X": NoiseSpec.finite(range(4), (0.25,) * 4),
                "Y": NoiseSpec.finite(range(4), (0.25,) * 4)},
    )
    m = unit_map(scm, "Y", 3)
    assert m({"X": 4}) == 7
    assert m({"X": -1}) == 2


def test_unit_map_constant_mechanism():
    scm = GeneralScm(
        nodes=("X",), parents={},
        mechanisms={"X": lambda pa, n: 42.0},
        noises={"X": NoiseSpec.finite(range(6), (1 / 6,) * 6)},
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
    ds, noise = ex.scm.simulate(50, 12), ex.scm.sample_noise(50, 12)
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


def _counted(scm):
    """``scm`` with every mechanism call counted per node, and the counter."""
    calls = collections.Counter()

    def counted(v, mech):
        def wrapper(pa, noise):
            calls[v] += 1
            return mech(pa, noise)
        return wrapper

    return dataclasses.replace(
        scm, mechanisms={v: counted(v, m) for v, m in scm.mechanisms.items()}), calls


def test_exact_joint_cap():
    # 11^5 = 161,051 noise assignments; refused before any mechanism runs
    scm = urn_chain(n=5).scm
    counted_scm, calls = _counted(scm)
    with pytest.raises(ScmError, match="161051 exceeds enumeration cap 65536"):
        exact_joint(counted_scm)
    assert not calls


def test_exact_joint_refuses_a_table_above_the_cap_before_allocating_it():
    # 2^16 assignments, within the noise cap, but V0 takes 2 values and every
    # later node 3: a 2 x 3^15 = 28.7M-entry (230 MB) table, refused from the
    # level counts
    nodes = tuple(f"V{k}" for k in range(16))
    mechanisms = {"V0": lambda pa, u: u}
    for p, v in zip(nodes, nodes[1:]):
        mechanisms[v] = lambda pa, u, p=p: np.remainder(pa[p] + u, 3)
    scm = GeneralScm(nodes=nodes, parents={v: (p,) for p, v in zip(nodes, nodes[1:])},
                     mechanisms=mechanisms,
                     noises={v: NoiseSpec.finite((0.0, 1.0), (0.5, 0.5)) for v in nodes})
    tracemalloc.start()
    try:
        with pytest.raises(TableError, match=r"level grid \(2, 3, 3, .*exceeds cap"):
            exact_joint(scm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6  # 45 MB measured


# ---------------------------------------------------------------------------
# Structure-preserving interventions
# ---------------------------------------------------------------------------


def test_structure_preserving_keeps_law_changes_units():
    ex = urn_bivariate(kb0=25, kr0=25, rounds=4)
    scm2 = structure_preserving_intervention(ex.scm, "Kr", fresh_seed=99)
    d1 = ex.scm.simulate(3000, 21)
    d2 = scm2.simulate(3000, 21)
    # non-descendants of Kr bit-identical under shared upstream noise
    assert np.array_equal(d1.column("Kb"), d2.column("Kb"))
    # unit values of Kr change
    assert not np.array_equal(d1.column("Kr"), d2.column("Kr"))
    # same conditional law: exact joints agree
    j1, _ = exact_joint(ex.scm)
    j2, _ = exact_joint(scm2)
    assert np.abs(j1.probs - j2.probs).max() <= 1e-12


def test_structure_preserving_linear_variant():
    # a linear model has no noise streams; its general form does
    lin = _urn2_linear()
    with pytest.raises(ScmError, match="unsupported model type LinearScm"):
        structure_preserving_intervention(lin, "Kb", fresh_seed=5)
    scm2 = structure_preserving_intervention(lin.general(), "Kb", fresh_seed=5)
    assert not np.array_equal(lin.general().simulate(1000, 3).column("Kb"),
                              scm2.simulate(1000, 3).column("Kb"))


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
    # many noise assignments share a state: the sum is taken mod ``modulus``;
    # with neither noise nor terms it returns a constant
    return lambda pa, u: np.remainder(
        (u if use_noise else 0.0) + sum(c * pa[p] for p, c in terms), modulus)


def _by_context(inner, ctx, components):
    # the atom is the integer code of a vector (a row of ``components``) with
    # one component per value of parent ``ctx``, the component picked by that
    # value, as ``embedding_reference`` wires controllers
    table = np.asarray(components, dtype=float)
    return lambda pa, code: inner(pa, table[
        np.asarray(code, dtype=np.intp),
        np.remainder(pa[ctx], table.shape[1]).astype(np.intp)])


def _integer_weights(data, k):
    # integer weights with zeros: zero-probability atoms are common
    w = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                  .filter(lambda ws: sum(ws) > 0))
    return [x / sum(w) for x in w]


def _random_scm(data, d):
    """Random elementwise mechanisms over V0..V{d-1}: wrapped affine sums,
    some reading a coded vector noise, some constant; finite and degenerate
    noises. V0 passes its atom through, and its last atom has weight zero:
    that value reaches its children only at zero weight."""
    nodes = tuple(f"V{k}" for k in range(d))
    k0 = data.draw(st.integers(2, 4))
    atoms0 = data.draw(st.lists(st.integers(-3, 3), min_size=k0, max_size=k0,
                                unique=True))
    parents = {"V0": ()}
    mechanisms = {"V0": lambda pa, u: u}
    noises = {"V0": NoiseSpec.finite(atoms0, _integer_weights(data, k0 - 1) + [0.0])}
    for j, v in enumerate(nodes[1:], start=1):
        pa = tuple(p for p in nodes[:j] if data.draw(st.booleans()))
        terms = tuple((p, data.draw(st.integers(-2, 2))) for p in pa)
        parents[v] = pa
        mech = _wrapped_sum(terms, data.draw(st.integers(1, 4)),
                            use_noise=data.draw(st.booleans()))
        k = data.draw(st.integers(1, 4))
        width = data.draw(st.integers(1, 3)) if pa else 1
        components = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=width, max_size=width),
            min_size=k, max_size=k))
        if pa and data.draw(st.booleans()):
            mech = _by_context(mech, data.draw(st.sampled_from(pa)), components)
            atoms = list(range(k))
        else:
            atoms = [c[0] for c in components]
        mechanisms[v] = mech
        noises[v] = (NoiseSpec.degenerate(atoms[0]) if data.draw(st.booleans())
                     else NoiseSpec.finite(atoms, _integer_weights(data, k)))
    return GeneralScm(nodes=nodes, parents=parents, mechanisms=mechanisms,
                      noises=noises)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 5))
def test_exact_joint_matches_dict_then_table_reference(data, d):
    scm = _random_scm(data, d)
    joint, levels = exact_joint(scm)
    ref, ref_levels = exact_joint_reference(scm)
    assert joint.names == ref.names
    assert np.array_equal(joint.probs, ref.probs)
    assert levels == ref_levels
    assert scm.noises["V0"].atoms[-1] not in levels["V0"]


def test_exact_joint_calls_each_mechanism_once_per_parent_values_and_atom():
    # one call per node, on the whole 2 x 2 x 49 x 49 noise grid
    base, shifted = (0.5, 0.4, 0.6, 0.3), (0.7, 0.2, 0.4, 0.5)
    ex = urn_bivariate(kb0=12, kr0=12, rounds=3, coin_biases=base)
    scm = embedding_reference(ex, urn2_controllers(3, base, shifted))
    counted_scm, calls = _counted(scm)
    joint, levels = exact_joint(counted_scm)
    assert calls == collections.Counter(scm.nodes)
    ref, ref_levels = exact_joint_reference(scm)
    assert np.array_equal(joint.probs, ref.probs) and levels == ref_levels


# The forward pass: ``simulate``, ``unit_displacements`` and ``exact_joint``
# each run every elementwise mechanism once, on whole columns.


def _per_unit_rows(scm, noise, n):
    """The per-unit reference: one scalar ``evaluate`` per row."""
    rows = np.empty((n, len(scm.nodes)))
    for r in range(n):
        state = scm.evaluate({v: noise[v][r] for v in scm.nodes})
        rows[r] = [state[v] for v in scm.nodes]
    return rows


def _assert_one_forward_pass(scm, actions, n, seed):
    counted_scm, calls = _counted(scm)
    once = collections.Counter(scm.nodes)
    ds, noise = counted_scm.simulate(n, seed), counted_scm.sample_noise(n, seed)
    assert calls == once
    assert ds.rows.tobytes() == _per_unit_rows(scm, noise, n).tobytes()
    calls.clear()
    unit_displacements(counted_scm, actions, n, seed)
    assert calls == once
    calls.clear()
    exact_joint(counted_scm)
    assert calls == once


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 5), st.sampled_from([1, 7, 8193]),
       st.integers(0, 2**32 - 1))
def test_forward_pass_equals_per_unit_evaluate_on_random_scms(data, d, n, seed):
    # 8193 rows cross the 8192-row noise chunk
    _assert_one_forward_pass(_random_scm(data, d), (), n, seed)


_SCM_EXEMPLARS = [name for name in sorted(exemplars.EXEMPLARS)
                  if exemplars.build_exemplar(name).scm is not None]


@pytest.mark.parametrize("n", [1, 7, 8193])
@pytest.mark.parametrize("name", _SCM_EXEMPLARS)
def test_forward_pass_equals_per_unit_evaluate_on_exemplars(name, n):
    ex = exemplars.build_exemplar(name)
    _assert_one_forward_pass(ex.scm, ex.unit_actions, n, 11)


@pytest.mark.parametrize("n", [1, 7, 8193])
def test_forward_pass_equals_per_unit_evaluate_on_an_embedding(n):
    base, shifted = (0.5, 0.4, 0.6, 0.3), (0.7, 0.2, 0.4, 0.5)
    ex = urn_bivariate(kb0=12, kr0=12, rounds=3, coin_biases=base)
    scm = embedding_reference(ex, urn2_controllers(3, base, shifted))
    _assert_one_forward_pass(scm, (), n, 11)


# The binomdiff pmf against the exact rational pmf of its float biases, and
# against scipy's binom.pmf as a second, looser oracle.
PMF_ULPS = 4          # each binomial, r <= 50: 3.2 ulp at worst over 4500 biases
SUPPORT_ULPS = 8      # the convolved support, entries >= 1e-300: 3.5 ulp measured
LARGE_R_REL = 1e-14   # each binomial at r > 1000: 6e-16 measured
SCIPY_REL = 2e-12     # scipy's own binom.pmf is up to 3362 ulp (7.5e-13) off


def _exact_pmf(r, q, ks=None):
    """Binomial(r, q) pmf entries at ks (default all) for the float bias q,
    as exact fractions."""
    q = Fraction(q)
    ks = range(r + 1) if ks is None else ks
    return [math.comb(r, k) * q**k * (1 - q) ** (r - k) for k in ks]


def _exact_support(r, pp, pm):
    plus, minus = _exact_pmf(r, pp), _exact_pmf(r, pm)
    return [sum(plus[k] * minus[k - d] for k in range(max(d, 0), min(r, r + d) + 1))
            for d in range(-r, r + 1)]


def _ulps(got, want):
    """|got - want| in ulps of the float nearest want (2**-1074 below the
    normal range)."""
    return abs(Fraction(got) - want) / Fraction(math.ulp(float(want)))


def _assert_support_is_exact(r, pp, pm):
    atoms, probs = NoiseSpec.binomdiff(r, pp, pm).support()
    assert atoms == tuple(float(v) for v in range(-r, r + 1))
    for q in (pp, pm):
        for got, want in zip(_binomial_pmf(r, q), _exact_pmf(r, q), strict=True):
            assert _ulps(got, want) <= PMF_ULPS, (q, got, want)
    for got, want in zip(probs, _exact_support(r, pp, pm), strict=True):
        if want >= 1e-300:
            assert _ulps(got, want) <= SUPPORT_ULPS, (got, want)
        else:  # sums of products below the normal range
            assert abs(got - want) <= 1e-300


def _scipy_support(r, pp, pm):
    plus = scipy.stats.binom.pmf(np.arange(r + 1), r, pp)
    minus = scipy.stats.binom.pmf(np.arange(r + 1), r, pm)
    return np.convolve(plus, minus[::-1])


def _assert_support_near_scipy(r, pp, pm):
    probs = np.array(NoiseSpec.binomdiff(r, pp, pm).support()[1])
    want = _scipy_support(r, pp, pm)
    assert (np.abs(probs - want) <= SCIPY_REL * want + 1e-300).all()


@pytest.mark.parametrize("r", [0, 1, 3, 12])
@pytest.mark.parametrize("pp, pm", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                                    (0.0, 0.35), (1.0, 0.35), (0.35, 0.0),
                                    (0.35, 1.0), (0.7, 0.2)])
def test_binomdiff_support_equals_two_separate_pmfs(r, pp, pm):
    _assert_support_is_exact(r, pp, pm)
    _assert_support_near_scipy(r, pp, pm)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 20), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_binomdiff_support_equals_two_separate_pmfs_at_random(r, pp, pm):
    _assert_support_is_exact(r, pp, pm)
    try:
        _scipy_support(r, pp, pm)
    except ArithmeticError:  # scipy's pmf overflows at some subnormal biases
        return
    _assert_support_near_scipy(r, pp, pm)


@pytest.mark.parametrize("r, pp, pm", [
    (2, 0.0, 1.1125369292536007e-308),
    (5, 2.2250738585072014e-308, 0.5),
])
def test_binomdiff_pmf_at_subnormal_bias_equals_reference(r, pp, pm):
    # scipy's pmf overflows at these biases; the closed form does not
    _assert_support_is_exact(r, pp, pm)


@pytest.mark.parametrize("r", [1029, 1030, 2000])  # float(math.comb) overflows from 1030
@pytest.mark.parametrize("q", [0.3, 0.5, 0.999, 1e-3])
def test_binomial_pmf_past_float_comb_matches_reference(r, q):
    got = _binomial_pmf(r, q)
    ks = sorted({*range(0, r + 1, 41), round(r * q), r})
    for k, want in zip(ks, _exact_pmf(r, q, ks)):
        if want >= 1e-300:
            assert abs(Fraction(got[k]) - want) <= LARGE_R_REL * want, k
        else:
            assert abs(got[k] - want) <= 1e-300, k


def test_binomdiff_support_at_the_largest_rounds_exact_joint_admits():
    r = (NOISE_COMBO_CAP - 1) // 2
    probs = np.array(NoiseSpec.binomdiff(r, 0.3, 0.6).support()[1])
    assert probs.size == 2 * r + 1 <= NOISE_COMBO_CAP
    assert (probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("q", [-0.1, 1.5, float("nan")])
def test_binomdiff_refuses_a_bias_outside_the_unit_interval(q):
    with pytest.raises(ScmError, match="p_plus"):
        NoiseSpec.binomdiff(3, q, 0.2)
    with pytest.raises(ScmError, match="p_minus"):
        NoiseSpec.binomdiff(3, 0.2, q)


@pytest.mark.parametrize("rounds", [-1, 2.5])
def test_binomdiff_refuses_rounds_that_are_not_a_non_negative_integer(rounds):
    with pytest.raises(ScmError, match="rounds"):
        NoiseSpec.binomdiff(rounds, 0.5, 0.5)
