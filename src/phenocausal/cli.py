"""Command-line entry point.

Subcommands: ``exemplar`` (emit a worked example's dataset + ground truth),
``classify`` (run action classification against candidate graphs),
``discover`` (LiNGAM-style recovery or mechanism-shift localization),
``verify`` (randomized consistency suites) and ``report`` (compact
end-to-end summary). All stochastic paths take a mandatory ``--seed``; all
artifacts embed the seed and are byte-identical across reruns with the
same arguments.

Exit codes: 0 success, 1 verification or classification failure, 2 usage
error or bad input (a missing or malformed CSV or graph file, an output
path that cannot be written, invalid exemplar parameters, a negative seed,
a negative, NaN or infinite eps, a non-finite displacement or one too
large to round to 12 decimals, a non-finite exemplar parameter, duplicate
CSV column names, a size cap exceeded, an artifact value that is not
finite and so has no strict-JSON form).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .actions import (ClassificationError, _direction_verdict, classify_statistical,
                      classify_unit, valid_graphs)
from .discovery import (DiscoveryError, lingam_bivariate, lingam_multivariate,
                        localize_mechanism_change)
from .exemplars import EXEMPLARS, build_exemplar
from .graphs import Dag
from .scm import Dataset, ScmError
from .tables import TableError
from .verify import SuiteConfig, randomized_suite

SPEC_VERSION = "1"


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise SystemExit2(f"cannot write {path}: {exc.strerror or exc}")


def _dumps(obj: dict) -> str:
    """Strict JSON: a NaN or infinite value is refused, not written."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SystemExit2(f"artifact has a non-finite value: {exc}")


def _emit(obj: dict, out: str | None) -> None:
    text = _dumps(obj)
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer: {text!r}")
    return int(text)


def _eps(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"eps must be a number >= 0 and finite: {text!r}")
    return value


def _parse_param(items: list[str]) -> dict:
    params = {}
    for item in items:
        if "=" not in item:
            raise SystemExit2(f"bad --param {item!r}, expected key=value")
        key, raw = item.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key] = value
    return params


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        sys.stderr.write(message + "\n")
        super().__init__(2)


def _build_from_args(args) -> "Exemplar":
    params = _parse_param(args.param or [])
    for key in ("kb0", "kr0", "rounds", "n"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if args.exemplar not in EXEMPLARS:
        raise SystemExit2(
            f"unknown exemplar {args.exemplar!r}; known: {sorted(EXEMPLARS)}")
    try:
        return build_exemplar(args.exemplar, **params)
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise SystemExit2(f"bad parameters for {args.exemplar!r}: {exc}")


def _load_dataset(path: str, seed: int) -> Dataset:
    try:
        return Dataset.from_csv(Path(path).read_text(), seed=seed)
    except (OSError, UnicodeDecodeError, ScmError) as exc:
        raise SystemExit2(f"bad input {path}: {exc}")


def _cmd_exemplar(args) -> int:
    if args.samples < 1:
        raise SystemExit2("--samples must be at least 1")
    ex = _build_from_args(args)
    try:
        ds = ex.sample(args.samples, args.seed)
    except ScmError as exc:   # a Dataset refuses non-finite rows
        raise SystemExit2(f"artifact has a non-finite value: {exc}")
    out = Path(args.out)
    sidecar = {
        "spec_version": SPEC_VERSION,
        "tool_version": __version__,
        "kind": "exemplar",
        "exemplar": ex.name,
        "seed": args.seed,
        "samples": args.samples,
        "columns": list(ds.columns),
        **ex.to_json_obj(),
    }
    # a sidecar that cannot be written as strict JSON refuses the whole run
    text = _dumps(sidecar)
    _write(out, ds.to_csv())
    _write(out.with_suffix(".json"), text)
    return 0


def _cmd_classify(args) -> int:
    if args.trials < 1:
        raise SystemExit2("--trials must be at least 1")
    ex = _build_from_args(args)
    mode = args.mode
    if mode == "auto":
        mode = "unit" if ex.unit_actions else "statistical"
    obj: dict = {
        "spec_version": SPEC_VERSION,
        "kind": "classification",
        "exemplar": ex.name,
        "mode": mode,
        "seed": args.seed,
        "eps": args.eps,
    }
    try:
        if mode == "statistical":
            if ex.baseline is None:
                raise SystemExit2(f"{ex.name!r} has no statistical encoding")
            report = classify_statistical(ex.ground_truth, ex.baseline,
                                          ex.statistical_actions, eps=args.eps)
            system, actions = ex.baseline, ex.statistical_actions
            nodes = system.names
        else:
            if ex.scm is None:
                raise SystemExit2(f"{ex.name!r} has no unit-level encoding")
            report = classify_unit(ex.ground_truth, ex.scm, ex.unit_actions,
                                   trials=args.trials, seed=args.seed, eps=args.eps)
            system, actions = ex.scm, ex.unit_actions
            nodes = system.nodes
        obj["ground_truth_report"] = report.to_json_obj()
        if args.enumerate:
            valid = valid_graphs(system, actions, eps=args.eps, mode=mode,
                                 trials=args.trials, seed=args.seed)
            obj["valid_graphs"] = [json.loads(g.to_json()) for g, _ in valid]
            if len(nodes) == 2:
                obj["direction"] = _direction_verdict(valid, *nodes).value
    except ClassificationError as exc:
        raise SystemExit2(str(exc))
    _emit(obj, args.out)
    return 0 if report.valid else 1


def _load_graph(path: str) -> Dag:
    try:
        text = Path(path).read_text()
        if path.endswith(".json") or text.lstrip().startswith("{"):
            return Dag.from_json(text)
        return Dag.from_edge_list(text)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # GraphError included
        raise SystemExit2(f"bad graph {path}: {exc}")


def _cmd_discover(args) -> int:
    data = _load_dataset(args.infile, args.seed)
    obj: dict = {
        "spec_version": SPEC_VERSION,
        "kind": "discovery",
        "method": args.method,
        "seed": args.seed,
        "input": str(args.infile),
    }
    try:
        if args.method == "bivariate":
            res = lingam_bivariate(data)
            named = {"x->y": f"{res.x}->{res.y}", "y->x": f"{res.y}->{res.x}"}
            obj["result"] = res.to_json_obj()
            obj["result"]["edge"] = named.get(res.direction, res.direction)
        elif args.method == "multivariate":
            res = lingam_multivariate(data)
            obj["result"] = res.to_json_obj()
        elif args.method == "shift":
            if not args.infile2 or not args.graph:
                raise SystemExit2("--method shift needs --in2 and --graph")
            data2 = _load_dataset(args.infile2, args.seed)
            g = _load_graph(args.graph)
            results = localize_mechanism_change([data, data2], g, eps=args.eps,
                                                seed=args.seed)
            obj["result"] = [r.to_json_obj() for r in results]
        else:  # pragma: no cover - argparse restricts choices
            raise SystemExit2(f"unknown method {args.method!r}")
    except (DiscoveryError, TableError) as exc:
        raise SystemExit2(str(exc))
    _emit(obj, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise SystemExit2("--trials must be at least 1")
    if args.jobs < 1:
        raise SystemExit2("--jobs must be at least 1")
    # randomized_suite reads only the trial counts of the selected suites
    config = SuiteConfig(
        proposition_trials=args.trials,
        boundary_trials=args.trials,
        embedding_trials=min(args.trials, 5 if args.which == "all" else 10),
    )
    reports = randomized_suite(config, seed=args.seed, which=args.which,
                               jobs=args.jobs)
    obj = {
        "spec_version": SPEC_VERSION,
        "kind": "verification",
        "which": args.which,
        "seed": args.seed,
        "trials": args.trials,
        "passed": all(r.passed for r in reports.values()),
        "reports": {k: r.to_json_obj() for k, r in reports.items()},
    }
    for r in reports.values():
        sys.stderr.write(r.summary() + "\n")
    _emit(obj, args.out)
    return 0 if obj["passed"] else 1


def _cmd_report(args) -> int:
    lines = []
    ok_all = True
    summary: dict = {"spec_version": SPEC_VERSION, "kind": "report",
                     "seed": args.seed, "exemplars": {}}
    for name in sorted(EXEMPLARS):
        ex = build_exemplar(name)
        if ex.unit_actions and ex.scm is not None:
            rep = classify_unit(ex.ground_truth, ex.scm, ex.unit_actions,
                                trials=200, seed=args.seed)
        else:
            rep = classify_statistical(ex.ground_truth, ex.baseline,
                                       ex.statistical_actions)
        ok_all &= rep.valid
        summary["exemplars"][name] = {"ground_truth_valid": rep.valid}
        lines.append(f"[{'PASS' if rep.valid else 'FAIL'}] {name}: "
                     "declared graph classifies cleanly")
    config = SuiteConfig(proposition_trials=50, boundary_trials=25,
                         embedding_trials=1)
    reports = randomized_suite(config, seed=args.seed, which="all")
    summary["verification"] = {k: {"trials": r.trials, "passed": r.passed}
                               for k, r in reports.items()}
    for key, r in reports.items():
        ok_all &= r.passed
        lines.append(r.summary())
    summary["passed"] = ok_all
    for line in lines:
        sys.stderr.write(line + "\n")
    _emit(summary, args.out)
    return 0 if ok_all else 1


@functools.cache  # parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phenocausal",
        description="Action-defined causal structure: exemplars, "
                    "classification, discovery and consistency verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ex = sub.add_parser("exemplar", help="emit an exemplar dataset + ground truth")
    p_ex.add_argument("exemplar", help=f"one of {sorted(EXEMPLARS)}")
    p_ex.add_argument("--seed", type=_seed, required=True)
    p_ex.add_argument("--samples", type=int, default=10_000)
    p_ex.add_argument("--out", required=True, help="CSV path; a .json sidecar is written next to it")
    p_ex.add_argument("--kb0", type=int)
    p_ex.add_argument("--kr0", type=int)
    p_ex.add_argument("--rounds", type=int)
    p_ex.add_argument("--n", type=int)
    p_ex.add_argument("--param", action="append", metavar="KEY=VALUE")
    p_ex.set_defaults(func=_cmd_exemplar)

    p_cl = sub.add_parser("classify", help="classify an exemplar's actions")
    p_cl.add_argument("exemplar")
    p_cl.add_argument("--mode", choices=("auto", "unit", "statistical"),
                      default="auto")
    p_cl.add_argument("--seed", type=_seed, required=True)
    p_cl.add_argument("--eps", type=_eps, default=1e-9)
    p_cl.add_argument("--trials", type=int, default=500)
    p_cl.add_argument("--enumerate", action="store_true",
                      help="also enumerate all valid graphs")
    p_cl.add_argument("--out")
    p_cl.add_argument("--kb0", type=int)
    p_cl.add_argument("--kr0", type=int)
    p_cl.add_argument("--rounds", type=int)
    p_cl.add_argument("--n", type=int)
    p_cl.add_argument("--param", action="append", metavar="KEY=VALUE")
    p_cl.set_defaults(func=_cmd_classify)

    p_di = sub.add_parser("discover", help="structure recovery from CSV data")
    p_di.add_argument("--method", choices=("bivariate", "multivariate", "shift"),
                      required=True)
    p_di.add_argument("--in", dest="infile", required=True)
    p_di.add_argument("--in2", dest="infile2")
    p_di.add_argument("--graph", help="graph file (JSON or edge list) for --method shift")
    p_di.add_argument("--eps", type=_eps, default=None)
    p_di.add_argument("--seed", type=_seed, required=True)
    p_di.add_argument("--out")
    p_di.set_defaults(func=_cmd_discover)

    p_ve = sub.add_parser("verify", help="run the consistency suites")
    p_ve.add_argument("--which", choices=("prop1", "embedding", "boundary", "all"),
                      default="all")
    p_ve.add_argument("--trials", type=int, default=100)
    p_ve.add_argument("--seed", type=_seed, required=True)
    p_ve.add_argument("--jobs", type=int, default=1,
                      help="worker processes for trials, at most one per core "
                           "(default serial)")
    p_ve.add_argument("--out")
    p_ve.set_defaults(func=_cmd_verify)

    p_re = sub.add_parser("report", help="compact end-to-end summary")
    p_re.add_argument("--seed", type=_seed, required=True)
    p_re.add_argument("--out")
    p_re.set_defaults(func=_cmd_report)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        return int(exc.code or 2)


def main() -> None:  # console-script entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
