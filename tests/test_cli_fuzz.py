"""Fuzz of the CLI contract: on any argv and any CSV content, ``run`` returns
0, 1 or 2, never lets an exception escape (which the console script
would print as a traceback), and writes only strict JSON (no NaN or
Infinity).

Inputs stay small (few samples, few trials, at most three urn types) so
the whole module runs in a few seconds.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phenocausal.cli import run
from phenocausal.exemplars import EXEMPLARS

NAMES = sorted(EXEMPLARS) + ["nope"]
SEEDS = st.sampled_from(["0", "1", "2", "3", "7", "11", "-1", "x"])
PARAMS = st.sampled_from([
    "endpoint=high", "endpoint=middle", "coin_biases=abc", "coin_biases=0.5",
    "bias_shift=0.1", "scenario=3", "n_rabbits=0", "food_supply=-1",
    "potato_elasticity=0.5", "shift=nan", "initial_packages=1", "k0=5",
    "unknown=1", "noequals", "demand_per_rabbit=inf", "potato_elasticity=nan",
    "bias_shift=inf", "barrier_offset=inf", "kb0=50.5", "kr0=3.5", "rounds=2.5",
    "rounds=2.0", "initial_packages=4.7", "coin_biases=0.5,0.5,0.8,0.2", "k0=5,5",
    "kb0=50,", "coin_biases=0.5,,x",
])
EPS = st.sampled_from(["1e-9", "0", "-1", "nan", "inf", "0.05"])

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _numeric_rows(n: int, cols: int) -> str:
    return "".join(",".join(str((7 * i + 3 * k) % 11) for k in range(cols)) + "\n"
                   for i in range(n))


CELL = st.sampled_from(["0", "1", "2", "3", "-4", "2.5", "1e300", "x", "nan", ""])


@st.composite
def generated_csv(draw) -> str:
    """A header of one to three columns and rows that are mostly numeric,
    occasionally ragged or holding a bad cell."""
    cols = draw(st.sampled_from([2, 2, 1, 3]))
    rows = draw(st.sampled_from([220, 120, 0, 1, 3]))
    bad = draw(st.sampled_from([None, None, None, "cell", "ragged"]))
    lines = [",".join(["Kb", "Kr", "Kx"][:cols])]
    lines += [",".join(str((7 * i + 3 * k) % 11) for k in range(cols)) for i in range(rows)]
    if bad and rows:
        i = draw(st.integers(1, rows))
        lines[i] = (",".join([draw(CELL)] * cols) if bad == "cell"
                    else lines[i] + ",9")
    return "\n".join(lines) + "\n"


CSV = st.one_of(generated_csv(), st.sampled_from([
    "",
    "\n\n",
    "Kb,Kr\n",
    "Kb,Kr\n1,2\n3\n",
    "Kb,Kr\n1,2\n3,x\n",
    "Kb,Kr\n1,nan\n2,3\n",
    "Kb,Kr\n1,inf\n",
    "Kb,Kr\n1,2\n",
    "Kb,Kr\n" + _numeric_rows(5, 2),
    "Kb\n" + _numeric_rows(150, 1),
    "Kb,Kr\n" + _numeric_rows(150, 2),
    "Kb,Kr,Kx\n" + _numeric_rows(30, 3),
    "Kb,Kb\n" + _numeric_rows(150, 2),
    "Kb,Kb\n" + _numeric_rows(300, 2),
    "Kb,Kr,Kb\n" + _numeric_rows(300, 3),
    "Kb,Kr\n" + "1,1\n" * 150,
]))
GRAPH = st.sampled_from([
    None, "Kb -> Kr\n", "Kr -> Kb\n", "Kb -> Kr\nKr -> Kb\n", "Kb -> Kb\n",
    "Kb\nKr\n", "A -> B\n", '{"nodes": ["Kb", "Kr"], "edges": [["Kb", "Kr"]]}',
    '{"nodes": ["Kb"', '{"edges": []}', '{"nodes": 3, "edges": []}',
])


def _refuse_constant(name: str):
    raise AssertionError(f"artifact holds {name}, which strict JSON forbids")


def _assert_contract(argv: list[str], capfd, sidecar: Path | None = None) -> None:
    capfd.readouterr()
    rc = run(argv)
    captured = capfd.readouterr()
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in captured.err
    if captured.out:
        json.loads(captured.out, parse_constant=_refuse_constant)
    if sidecar is not None and sidecar.exists():
        json.loads(sidecar.read_text(), parse_constant=_refuse_constant)


@FUZZ
@given(name=st.sampled_from(NAMES), seed=SEEDS, samples=st.integers(-1, 30),
       sizes=st.lists(st.sampled_from(["--kb0", "--kr0", "--rounds", "--n"]), max_size=2),
       size=st.integers(-1, 8), params=st.lists(PARAMS, max_size=2),
       missing_dir=st.booleans())
def test_exemplar_argv_keeps_contract(name, seed, samples, sizes, size, params,
                                      missing_dir, capfd):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / ("missing" if missing_dir else "") / "out.csv"
        argv = ["exemplar", name, "--seed", seed, "--samples", str(samples),
                "--out", str(out)]
        for flag in sizes:
            argv += [flag, str(size)]
        for p in params:
            argv += ["--param", p]
        _assert_contract(argv, capfd, out.with_suffix(".json"))


@FUZZ
@given(name=st.sampled_from(NAMES), seed=SEEDS,
       mode=st.sampled_from(["auto", "unit", "statistical", "bogus"]),
       trials=st.integers(-1, 8), eps=EPS, enumerate_=st.booleans(),
       n=st.integers(-1, 3), params=st.lists(PARAMS, max_size=1))
def test_classify_argv_keeps_contract(name, seed, mode, trials, eps, enumerate_, n,
                                      params, capfd):
    argv = ["classify", name, "--seed", seed, "--mode", mode, "--trials", str(trials),
            "--eps", eps]
    if name in ("urnN", "bundles"):
        argv += ["--n", str(n)]
    if enumerate_:
        argv.append("--enumerate")
    for p in params:
        argv += ["--param", p]
    _assert_contract(argv, capfd)


@pytest.mark.parametrize("argv", [
    ["exemplar", "urn2", "--param", "kb0=50.5", "--samples", "5"],
    ["exemplar", "urnN", "--param", "rounds=2.5", "--samples", "5"],
    ["exemplar", "bundles", "--param", "rounds=2.5", "--samples", "5"],
    ["exemplar", "bundles", "--param", "rounds=2", "--param", "initial_packages=4.7",
     "--samples", "5"],
    ["classify", "urnN", "--param", "rounds=2.5"],
    ["classify", "urn2", "--param", "rounds=2.5"],
])
def test_fractional_urn_counts_exit_2(argv, tmp_path, capfd):
    out = tmp_path / "out.csv"
    if argv[0] == "exemplar":
        argv = argv + ["--out", str(out)]
    capfd.readouterr()
    assert run(argv + ["--seed", "1"]) == 2
    assert "must be integers" in capfd.readouterr().err
    assert not out.exists()


@FUZZ
@given(method=st.sampled_from(["bivariate", "multivariate", "shift", "shift", "bogus"]),
       csv1=CSV, csv2=st.one_of(st.none(), CSV), graph=GRAPH, seed=SEEDS,
       eps=st.one_of(st.none(), EPS))
def test_discover_inputs_keep_contract(method, csv1, csv2, graph, seed, eps, capfd):
    with tempfile.TemporaryDirectory() as tmp:
        in1 = Path(tmp) / "in1.csv"
        in1.write_text(csv1)
        argv = ["discover", "--method", method, "--in", str(in1), "--seed", seed]
        if csv2 is not None:
            in2 = Path(tmp) / "in2.csv"
            in2.write_text(csv2)
            argv += ["--in2", str(in2)]
        if graph is not None:
            g = Path(tmp) / ("g.json" if graph.startswith("{") else "g.txt")
            g.write_text(graph)
            argv += ["--graph", str(g)]
        if eps is not None:
            argv += ["--eps", eps]
        _assert_contract(argv, capfd)
