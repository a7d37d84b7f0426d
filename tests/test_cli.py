"""CLI contract tests: exit codes, artifacts on disk, byte-identical
reruns, and schema validity of every emitted JSON."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from phenocausal.cli import run


def _schema_store():
    store = {}
    root = resources.files("phenocausal") / "schemas"
    for entry in root.iterdir():
        if entry.name.endswith(".schema.json"):
            schema = json.loads(entry.read_text())
            store[schema["$id"]] = schema
    return store


def _validate(obj: dict, name: str) -> None:
    from referencing import Registry, Resource

    store = _schema_store()
    schema = store[f"urn:phenocausal:{name}"]
    registry = Registry().with_resources(
        (uri, Resource.from_contents(s)) for uri, s in store.items())
    jsonschema.Draft202012Validator(schema, registry=registry).validate(obj)


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# exemplar
# ---------------------------------------------------------------------------


def test_exemplar_emits_csv_and_sidecar(tmp_path):
    out = tmp_path / "data.csv"
    rc = run(["exemplar", "urn2", "--kb0", "60", "--kr0", "60", "--rounds", "3",
              "--seed", "7", "--samples", "200", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "Kb,Kr"
    assert len(lines) == 201
    sidecar = _read(tmp_path / "data.json")
    assert sidecar["exemplar"] == "urn2" and sidecar["seed"] == 7
    assert sidecar["ground_truth"]["edges"] == [["Kb", "Kr"]]
    _validate(sidecar, "exemplar")


def test_unknown_exemplar_exits_2(tmp_path):
    rc = run(["exemplar", "nope", "--seed", "1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_missing_seed_is_usage_error(tmp_path, capsys):
    rc = run(["exemplar", "urn2", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_bad_param_exits_2(tmp_path):
    rc = run(["exemplar", "urn2", "--seed", "1", "--param", "nonsense",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    rc = run(["exemplar", "farmers", "--seed", "1", "--param", "bogus=3",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_exemplar_zero_samples_exits_2(tmp_path):
    out = tmp_path / "x.csv"
    rc = run(["exemplar", "urn2", "--seed", "1", "--samples", "0",
              "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_exemplar_malformed_list_parameter_exits_2(tmp_path, capfd):
    rc = run(["exemplar", "urn2", "--seed", "1", "--param", "coin_biases=abc",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "bad parameters for 'urn2'" in capfd.readouterr().err


@pytest.mark.parametrize("name, params", [
    ("farmers", ["potato_elasticity=nan"]), ("farmers", ["exchange_factor=inf"]),
    ("farmers", ["factor_change=nan"]), ("rabbits1", ["n_rabbits=nan"]),
    ("rabbits2", ["food_supply=nan"]), ("urn2", ["bias_shift=inf"]),
    # finite parameters whose potato quantities overflow
    ("farmers", ["exchange_factor=1e-300", "potato_elasticity=2"]),
    # integer parameters given as infinity
    ("balltrack", ["barrier_offset=inf"]), ("bundles", ["initial_packages=inf"]),
])
def test_exemplar_non_finite_parameter_exits_2(name, params, tmp_path, capfd):
    argv = ["exemplar", name, "--seed", "1", "--samples", "10",
            "--out", str(tmp_path / "x.csv")]
    for p in params:
        argv += ["--param", p]
    rc = run(argv)
    err = capfd.readouterr().err
    assert rc == 2
    assert f"bad parameters for {name!r}" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not any(tmp_path.iterdir())


def test_exemplar_non_finite_sidecar_exits_2_and_writes_nothing(tmp_path, capfd):
    # the library accepts an infinite demand; the sidecar has no JSON form
    rc = run(["exemplar", "rabbits1", "--seed", "1", "--samples", "10",
              "--param", "demand_per_rabbit=inf", "--out", str(tmp_path / "x.csv")])
    err = capfd.readouterr().err
    assert rc == 2
    assert "artifact has a non-finite value" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_negative_seed_is_usage_error(tmp_path, capfd):
    rc = run(["exemplar", "urn2", "--seed", "-1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "seed must be a non-negative integer" in capfd.readouterr().err


def test_exemplar_invalid_parameters_exit_2(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["exemplar", "urn2", "--kb0", "5", "--kr0", "5", "--rounds", "7",
                "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()


def test_exemplar_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["exemplar", "urnN", "--n", "3", "--rounds", "2",
                    "--seed", "3", "--samples", "100", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# ---------------------------------------------------------------------------
# discover
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def urn_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    path = d / "urn.csv"
    assert run(["exemplar", "urn2", "--kb0", "1000", "--kr0", "1000",
                "--rounds", "2", "--seed", "7", "--samples", "10000",
                "--out", str(path)]) == 0
    return path


def test_discover_bivariate_recovers_urn_direction(urn_csv, tmp_path):
    out = tmp_path / "disc.json"
    rc = run(["discover", "--method", "bivariate", "--in", str(urn_csv),
              "--seed", "1", "--out", str(out)])
    assert rc == 0
    obj = _read(out)
    _validate(obj, "discovery")
    assert obj["result"]["edge"] == "Kb->Kr"
    assert -1.05 <= obj["result"]["slope"] <= -0.95


def test_discover_byte_identical(urn_csv, tmp_path):
    outs = []
    for name in ("d1.json", "d2.json"):
        out = tmp_path / name
        assert run(["discover", "--method", "bivariate", "--in", str(urn_csv),
                    "--seed", "1", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_discover_shift_needs_graph(urn_csv):
    assert run(["discover", "--method", "shift", "--in", str(urn_csv),
                "--seed", "1"]) == 2


def test_discover_shift_localizes(tmp_path):
    base = tmp_path / "base.csv"
    shifted = tmp_path / "shifted.csv"
    assert run(["exemplar", "urn2", "--kb0", "50", "--kr0", "50", "--rounds",
                "3", "--seed", "5", "--samples", "8000", "--out", str(base)]) == 0
    # the shifted environment needs a list-valued parameter, which --param
    # does not express; build it through the API
    from phenocausal import urn_bivariate

    ds = urn_bivariate(kb0=50, kr0=50, rounds=3,
                       coin_biases=(0.5, 0.5, 0.8, 0.2)).sample(8000, 6)
    shifted.write_text(ds.to_csv())
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"nodes": ["Kb", "Kr"],
                                 "edges": [["Kb", "Kr"]]}))
    out = tmp_path / "shift.json"
    rc = run(["discover", "--method", "shift", "--in", str(base),
              "--in2", str(shifted), "--graph", str(graph),
              "--seed", "2", "--out", str(out)])
    assert rc == 0
    obj = _read(out)
    _validate(obj, "discovery")
    union = set()
    for env in obj["result"]:
        union |= set(env["changed"])
    assert union == {"Kr"}


def _discover_rc(tmp_path, text: str) -> int:
    path = tmp_path / "in.csv"
    path.write_text(text)
    return run(["discover", "--method", "bivariate", "--in", str(path),
                "--seed", "1"])


def test_discover_empty_csv_exits_2(tmp_path, capfd):
    assert _discover_rc(tmp_path, "") == 2
    assert "no header line" in capfd.readouterr().err


def test_discover_header_only_csv_exits_2(tmp_path, capfd):
    assert _discover_rc(tmp_path, "Kb,Kr\n") == 2
    assert "no data rows" in capfd.readouterr().err


def test_discover_ragged_csv_names_line(tmp_path, capfd):
    assert _discover_rc(tmp_path, "Kb,Kr\n1,2\n3\n4,5\n") == 2
    assert "line 3: 1 fields, header has 2" in capfd.readouterr().err


def test_discover_non_numeric_csv_names_line(tmp_path, capfd):
    assert _discover_rc(tmp_path, "Kb,Kr\n1,2\n3,x\n") == 2
    assert "line 3:" in capfd.readouterr().err


def test_discover_oversized_field_exits_2(tmp_path, capfd):
    rows = [f"{i},{(7 * i) % 13}" for i in range(300)]
    rows[150] = "3," + "4" * 200_000
    assert _discover_rc(tmp_path, "Kb,Kr\n" + "\n".join(rows) + "\n") == 2
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert [line.startswith("bad input") for line in err.splitlines()] == [True]
    assert "line 152: field larger than field limit" in err


def test_discover_reads_cr_line_ends(tmp_path, capfd):
    rows = [f"{i},{(7 * i) % 13}" for i in range(300)]
    (tmp_path / "lf").mkdir()
    assert _discover_rc(tmp_path, "Kb,Kr\r" + "\r".join(rows) + "\r") == 0
    assert _discover_rc(tmp_path / "lf", "Kb,Kr\n" + "\n".join(rows) + "\n") == 0
    assert "Traceback" not in capfd.readouterr().err


def test_discover_nan_cell_exits_2_without_lapack_noise(tmp_path, capfd):
    rows = [f"{i},{(7 * i) % 13}" for i in range(300)]
    rows[150] = "3,nan"
    assert _discover_rc(tmp_path, "Kb,Kr\n" + "\n".join(rows) + "\n") == 2
    err = capfd.readouterr().err
    assert "line 152: non-finite value" in err
    assert "DLASCL" not in err


def _shift_inputs(tmp_path) -> tuple[Path, Path, Path]:
    """Two small readable CSVs and an edge-list graph over their columns."""
    rows = "Kb,Kr\n" + "".join(f"{i % 5},{(3 * i) % 7}\n" for i in range(40))
    a, b, g = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "g.txt"
    a.write_text(rows)
    b.write_text(rows)
    g.write_text("Kb -> Kr\n")
    return a, b, g


def _assert_bad_input(rc: int, capfd, path) -> None:
    err = capfd.readouterr().err
    assert rc == 2
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["bivariate", "multivariate"])
@pytest.mark.parametrize("header", ["X,X", "X,Y,X"])
def test_discover_duplicate_columns_exit_2(method, header, tmp_path, capfd):
    cols = header.count(",") + 1
    path = tmp_path / "dup.csv"
    path.write_text(header + "\n" + "".join(
        ",".join(str((7 * i + 3 * k) % 11) for k in range(cols)) + "\n"
        for i in range(300)))
    out = tmp_path / "d.json"
    rc = run(["discover", "--method", method, "--in", str(path), "--seed", "1",
              "--out", str(out)])
    err = capfd.readouterr().err
    assert rc == 2
    assert "duplicate column names" in err and "Traceback" not in err
    assert not out.exists()


def test_discover_missing_in_exits_2(tmp_path, capfd):
    missing = tmp_path / "missing.csv"
    rc = run(["discover", "--method", "bivariate", "--in", str(missing), "--seed", "1"])
    _assert_bad_input(rc, capfd, missing)


def test_discover_missing_in2_exits_2(tmp_path, capfd):
    a, _, g = _shift_inputs(tmp_path)
    missing = tmp_path / "missing.csv"
    rc = run(["discover", "--method", "shift", "--in", str(a), "--in2", str(missing),
              "--graph", str(g), "--seed", "1"])
    _assert_bad_input(rc, capfd, missing)


def test_discover_missing_graph_exits_2(tmp_path, capfd):
    a, b, _ = _shift_inputs(tmp_path)
    missing = tmp_path / "missing.txt"
    rc = run(["discover", "--method", "shift", "--in", str(a), "--in2", str(b),
              "--graph", str(missing), "--seed", "1"])
    _assert_bad_input(rc, capfd, missing)


def test_discover_cyclic_graph_exits_2(tmp_path, capfd):
    a, b, g = _shift_inputs(tmp_path)
    g.write_text("Kb -> Kr\nKr -> Kb\n")
    rc = run(["discover", "--method", "shift", "--in", str(a), "--in2", str(b),
              "--graph", str(g), "--seed", "1"])
    _assert_bad_input(rc, capfd, g)


def test_discover_unparsable_graph_exits_2(tmp_path, capfd):
    a, b, _ = _shift_inputs(tmp_path)
    g = tmp_path / "g.json"
    g.write_text('{"nodes": ["Kb", "Kr"], "edges": [["Kb"')
    rc = run(["discover", "--method", "shift", "--in", str(a), "--in2", str(b),
              "--graph", str(g), "--seed", "1"])
    _assert_bad_input(rc, capfd, g)


def test_out_in_missing_directory_exits_2(tmp_path, capfd):
    out = tmp_path / "no-such-dir" / "report.json"
    rc = run(["exemplar", "urn2", "--seed", "1", "--samples", "5", "--out", str(out)])
    _assert_bad_input(rc, capfd, out)
    rc = run(["classify", "urn2", "--seed", "1", "--trials", "5", "--out", str(out)])
    _assert_bad_input(rc, capfd, out)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_urn2_enumerate(tmp_path):
    out = tmp_path / "cls.json"
    rc = run(["classify", "urn2", "--seed", "3", "--trials", "60",
              "--enumerate", "--out", str(out)])
    assert rc == 0
    obj = _read(out)
    _validate(obj, "classification")
    assert obj["ground_truth_report"]["valid"]
    assert obj["direction"] == "XcausesY"
    assert obj["valid_graphs"] == [{"nodes": ["Kb", "Kr"],
                                    "edges": [["Kb", "Kr"]]}]


def test_classify_enumerate_above_cap_exits_2(tmp_path, capfd):
    rc = run(["classify", "urnN", "--n", "6", "--enumerate", "--trials", "20",
              "--seed", "1", "--out", str(tmp_path / "cls.json")])
    assert rc == 2
    assert "exceeds exhaustive cap" in capfd.readouterr().err


def test_classify_statistical_mode(tmp_path):
    out = tmp_path / "cls2.json"
    rc = run(["classify", "balltrack", "--mode", "statistical", "--seed", "1",
              "--out", str(out)])
    assert rc == 0
    obj = _read(out)
    _validate(obj, "classification")
    assert obj["mode"] == "statistical"


@pytest.mark.parametrize("argv, theta", [
    (["classify", "balltrack", "--out", "cls.json"], "1e-120"),
    (["exemplar", "balltrack", "--samples", "10", "--out", "x.csv"], "1e200"),
])
def test_balltrack_overflowing_start_law_exits_2(argv, theta, tmp_path, capfd,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(argv + ["--seed", "1", "--param", f"start_distribution_param={theta}"])
    assert rc == 2
    err = capfd.readouterr().err
    assert err.count("\n") == 1 and "overflow" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_classify_non_finite_displacement_exits_2(tmp_path, capfd):
    out = tmp_path / "cls.json"
    for extra in ([], ["--enumerate"]):
        rc = run(["classify", "rabbits1", "--seed", "1", "--param",
                  "demand_per_rabbit=inf", "--out", str(out)] + extra)
        err = capfd.readouterr().err
        assert rc == 2
        assert "non-finite displacement" in err
        assert "Traceback" not in err and "DLASCL" not in err
        assert "Warning" not in err
    assert not out.exists()


def test_classify_displacement_too_large_to_round_exits_2(tmp_path, capfd):
    # finite, but rounding to 12 decimals scales it past the float range
    out = tmp_path / "cls.json"
    for extra in ([], ["--enumerate"]):
        rc = run(["classify", "macro1", "--param", "shift=1e300", "--seed", "1",
                  "--trials", "5", "--out", str(out)] + extra)
        captured = capfd.readouterr()
        assert rc == 2
        assert captured.err == "action 'shift-X1' gives a non-finite displacement\n"
        assert "DLASCL" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv", [["classify", "balltrack"], ["classify", "urn2"]])
@pytest.mark.parametrize("eps", ["nan", "-1", "inf"])
def test_classify_bad_eps_exits_2(argv, eps, tmp_path, capfd):
    out = tmp_path / "cls.json"
    rc = run(argv + ["--seed", "1", "--trials", "5", "--eps", eps, "--out", str(out)])
    err = capfd.readouterr().err
    assert rc == 2
    assert "eps must be a number >= 0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["nan", "-1", "inf"])
def test_discover_shift_bad_eps_exits_2(eps, tmp_path, capfd):
    a, b, g = _shift_inputs(tmp_path)
    out = tmp_path / "shift.json"
    rc = run(["discover", "--method", "shift", "--in", str(a), "--in2", str(b),
              "--graph", str(g), "--seed", "1", "--eps", eps, "--out", str(out)])
    err = capfd.readouterr().err
    assert rc == 2
    assert "eps must be a number >= 0" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify and report
# ---------------------------------------------------------------------------


def test_verify_boundary_pass(tmp_path):
    out = tmp_path / "ver.json"
    rc = run(["verify", "--which", "boundary", "--trials", "25",
              "--seed", "1", "--out", str(out)])
    assert rc == 0
    obj = _read(out)
    _validate(obj, "verification")
    assert obj["passed"] and obj["reports"]["boundary"]["trials"] == 25


def test_verify_byte_identical(tmp_path):
    blobs = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        assert run(["verify", "--which", "prop1", "--trials", "30",
                    "--seed", "9", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_report_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    rc = run(["report", "--seed", "2", "--out", str(out)])
    assert rc == 0
    obj = _read(out)
    _validate(obj, "report")
    assert obj["passed"]
    assert set(obj["exemplars"]) == {
        "balltrack", "bundles", "farmers", "macro1", "macro2",
        "rabbits1", "rabbits2", "urn2", "urnN"}


def test_classify_enumerate_enumerates_two_variable_systems_once(tmp_path,
                                                                 monkeypatch):
    from phenocausal import actions, cli

    calls = []
    original = actions.valid_graphs

    def counting(*args, **kwargs):
        calls.append(kwargs.get("mode"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "valid_graphs", counting)
    monkeypatch.setattr(actions, "valid_graphs", counting)
    out = tmp_path / "cls.json"
    assert run(["classify", "rabbits1", "--enumerate", "--trials", "60",
                "--seed", "3", "--out", str(out)]) == 0
    assert calls == ["unit"]
    assert _read(out)["direction"] == "YcausesX"


def test_verify_jobs_below_one_exits_2(tmp_path, capfd):
    for jobs in ("0", "-3"):
        rc = run(["verify", "--which", "prop1", "--trials", "3", "--seed", "1",
                  "--jobs", jobs, "--out", str(tmp_path / "ver.json")])
        assert rc == 2
        assert "--jobs must be at least 1" in capfd.readouterr().err
    assert not (tmp_path / "ver.json").exists()


def test_verify_jobs_report_matches_serial(tmp_path):
    blobs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"ver-{jobs}.json"
        assert run(["verify", "--which", "all", "--trials", "6", "--seed", "5",
                    "--jobs", jobs, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("trials", ["0", "-2"])
@pytest.mark.parametrize("argv", [["classify", "urn2", "--mode", "unit"],
                                  ["verify", "--which", "prop1"]],
                         ids=["classify", "verify"])
def test_trials_below_one_exit_2(argv, trials, tmp_path, capfd):
    out = tmp_path / "out.json"
    assert run(argv + ["--trials", trials, "--seed", "1", "--out", str(out)]) == 2
    assert "--trials must be at least 1" in capfd.readouterr().err
    assert not out.exists()
