"""The package namespace is the union of its modules' ``__all__`` lists;
importing it, building and reading the urn exemplars, the commands, and the
binomdiff pmf load numpy but no scipy module, and the package source
imports none."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import re
import textwrap
import types
from enum import Enum
from pathlib import Path

import phenocausal

MODULES = ("graphs", "tables", "scm", "actions", "exemplars", "discovery", "verify")

# every public name, modules aside, that the package exported while it still
# listed its imports by hand, less the three urn closed forms that are now
# test oracles (tests/urn_oracles.py)
EXPORTED = (
    "ActionVerdict", "BivariateResult", "ClassificationError",
    "ClassificationReport", "ConditionalTable", "ControllerSpec", "CycleError",
    "Dag", "Dataset", "DirectionVerdict", "DiscoveryError", "DiscoveryResult",
    "DiscreteJoint", "EXEMPLARS", "Exemplar", "GeneralScm", "GraphError",
    "LinearScm", "LocalizationResult", "NoiseSpec", "ScmError",
    "SingularStructureError", "StatisticalAction", "SufficiencyError",
    "SuiteConfig", "TableError", "TrialRecord", "UnitAction", "VerdictKind",
    "VerificationReport", "all_dags", "backdoor_admissible", "ball_track",
    "bivariate_direction", "build_embedding", "build_exemplar", "bundles_chain",
    "changed_factors", "ci_residual", "classify_statistical", "classify_unit",
    "conditional", "d_separated", "exact_joint", "factor_distance", "factorize",
    "farmers", "hard_intervention", "independence_statistic",
    "is_graphically_causally_sufficient", "is_markov", "lingam_bivariate",
    "lingam_multivariate", "localize_mechanism_change", "macro_pair",
    "marginal_dag", "markov_report", "permutation_threshold", "product_joint",
    "rabbits", "random_conditional", "random_dag", "random_markov_joint",
    "random_sufficient_subset", "randomized_suite", "soft_intervention",
    "solve_structure", "structure_preserving_intervention", "total_effect",
    "tv_distance", "unit_action_from_spec", "unit_map", "urn2_controllers",
    "urn_bivariate", "urn_chain", "valid_graphs", "verify_boundary_consistency",
    "verify_embedding_markov", "verify_identifiability",
)


def _declared() -> dict[str, object]:
    """Each name a module declares public, mapped to that module's object."""
    out = {}
    for name in MODULES:
        mod = importlib.import_module(f"phenocausal.{name}")
        for attr in mod.__all__:
            assert attr not in out, f"{attr} is declared by two modules"
            out[attr] = getattr(mod, attr)
    return out


def test_every_module_export_is_the_package_object():
    for attr, value in _declared().items():
        assert getattr(phenocausal, attr) is value, attr


def test_package_exports_exactly_the_declared_names():
    public = {n for n, v in vars(phenocausal).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(_declared())


def test_no_earlier_export_is_lost():
    assert len(EXPORTED) == 79
    assert set(EXPORTED) <= set(_declared())


# exported for the concept of the paper or the method that each names,
# although nothing in the package or the benchmark calls them;
# ``hard_intervention`` is the do-operator that the paper's definition of
# causal structure by elementary actions replaces
CONCEPTS = {"is_markov", "total_effect", "unit_map",
            "structure_preserving_intervention", "permutation_threshold",
            "hard_intervention"}


def _referenced(path: Path) -> set[str]:
    """The names a source file reads, bare or as an attribute, outside the
    top-level definition of the same name."""
    names = set()
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        read = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
                or isinstance(node, ast.Attribute)}
        read.discard(getattr(stmt, "name", None))
        names |= read
    return names


def test_every_export_but_the_concept_names_has_a_caller():
    # a new export with no caller outside the tests fails here
    root = Path(phenocausal.__file__).resolve().parents[2]
    sources = [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]
    referenced = set().union(*map(_referenced, sources))
    assert set(_declared()) - referenced == CONCEPTS


def _attribute_reads(path: Path) -> set[tuple[str | None, str, tuple[str, str] | None]]:
    """(qualifier, attribute, definition) for each attribute a source file
    reads. The qualifier is the name the attribute is read on (``C`` in
    ``C.attr`` and ``mod.C.attr``), the definition the (class, method) whose
    body holds the read, if any. Each entry of ``perfbench/tracing.py``'s
    ``TRACED`` also reads its attribute string on its owner."""
    reads = set()

    def qualifier(owner: ast.AST) -> str | None:
        return getattr(owner, "id", getattr(owner, "attr", None))

    def visit(node: ast.AST, where: tuple[str, str] | None) -> None:
        if isinstance(node, ast.Attribute):
            reads.add((qualifier(node.value), node.attr, where))
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef):
                visit(child, (node.name, child.name))
            else:
                visit(child, where)

    tree = ast.parse(path.read_text(), filename=str(path))
    visit(tree, None)
    if path.name == "tracing.py":
        for stmt in tree.body:
            if getattr(getattr(stmt, "target", None), "id", None) == "TRACED":
                for entry in stmt.value.elts:
                    _, owner, attr, *_ = entry.elts
                    reads.add((qualifier(owner), attr.value, None))
    return reads


# private classes whose public methods the caller scan covers as well: the
# suites behind ``valid_graphs`` and the two ``classify_*`` functions
SCANNED_PRIVATE = ("_UnitSuite", "_StatisticalSuite")


def test_every_public_method_of_an_exported_class_has_a_caller():
    # a method, property, classmethod or staticmethod that only the tests
    # read fails here; a classmethod counts as read only as ``Class.attr``
    actions = importlib.import_module("phenocausal.actions")
    classes = [*_declared().values(), *(getattr(actions, c) for c in SCANNED_PRIVATE)]
    members = {(cls.__name__, attr): isinstance(raw, classmethod)
               for cls in classes if isinstance(cls, type)
               for attr, raw in vars(cls).items()
               if not attr.startswith("_") and isinstance(
                   raw, (types.FunctionType, property, classmethod, staticmethod))}
    root = Path(phenocausal.__file__).resolve().parents[2]
    sources = [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]
    reads = set().union(*map(_attribute_reads, sources))
    unread = {(cls, attr) for (cls, attr), on_class_only in members.items()
              if not any(name == attr and where != (cls, attr)
                         and (owner == cls or not on_class_only)
                         for owner, name, where in reads)}
    assert members["NoiseSpec", "binomdiff"] and ("Dag", "parents") in members
    assert ("_UnitSuite", "equation") in members
    assert ("_StatisticalSuite", "candidates") in members
    assert unread == set()


def _passed_parameters(path: Path, signatures: dict[str, list[str]],
                       fields: dict[str, set[str]]) -> set[str]:
    """``name.param`` for each parameter of ``signatures[name]`` that some
    call of ``name`` (bare or as an attribute) in a source file passes, by
    position or keyword. A ``cls(...)`` call in a classmethod calls the
    enclosing class, and ``replace(x, k=...)`` passes ``k`` to every
    dataclass whose ``fields`` hold ``k``."""
    passed = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "cls":
                name = owner
            if name == "replace":
                passed.update(f"{cls}.{k.arg}" for cls, names in fields.items()
                              for k in node.keywords if k.arg in names)
            elif name in signatures:
                positional = [a for a in node.args if not isinstance(a, ast.Starred)]
                passed.update(f"{name}.{p}" for p in signatures[name][:len(positional)])
                passed.update(f"{name}.{k.arg}" for k in node.keywords
                              if k.arg is not None)
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef):
                in_classmethod = any(getattr(d, "id", None) == "classmethod"
                                     for d in child.decorator_list)
                visit(child, node.name if in_classmethod else None)
            else:
                visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return passed


# defaulted parameters of exports that no call the scan can read sets, each
# with its reason:
# - concept exports, which nothing calls (``CONCEPTS``): ``is_markov.eps`` and
#   the four of ``permutation_threshold``;
# - ``localize_mechanism_change.n_perm``: the benchmark's traced ``joints``
#   counter reads it. It stays at 60 with its rule in the docstring: the
#   threshold is the largest null draw below 79 permutations for two nodes
#   and 159 for four, and smaller counts are reported, not refused;
# - each trial function's ``index``: ``verify._trial_at`` passes it to the
#   function it is bound to;
# - ``VerificationReport.extras``: an artifact field kept empty until the
#   report schema changes.
UNREAD_DEFAULTS = {
    "is_markov.eps", "permutation_threshold.n_perm", "permutation_threshold.quantile",
    "permutation_threshold.seed", "permutation_threshold.max_points",
    "localize_mechanism_change.n_perm",
    "proposition_trial.index", "boundary_trial.index", "embedding_trial.index",
    "VerificationReport.extras",
}


def test_every_defaulted_parameter_is_passed_by_a_caller():
    # a tolerance or option that every caller leaves at its default fails
    # here. The exemplar constructors are exempt, because the CLI's
    # ``--param`` reaches any of their parameters, the list-valued
    # ``coin_biases`` and ``k0`` too (a value with commas is a tuple); so
    # are enums, whose call signature is the functional API of ``Enum``,
    # and exceptions.
    signatures = {name: inspect.signature(value) for name, value in _declared().items()
                  if callable(value) and not (isinstance(value, type)
                                              and issubclass(value, (Enum, Exception)))}
    params = {name: sig.parameters for name, sig in signatures.items()
              if sig.return_annotation != "Exemplar"}
    defaulted = {f"{name}.{p.name}" for name in params for p in params[name].values()
                 if p.default is not inspect.Parameter.empty}
    root = Path(phenocausal.__file__).resolve().parents[2]
    sources = [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]
    names = {name: list(p) for name, p in params.items()}
    fields = {name: {f.name for f in dataclasses.fields(value)}
              for name, value in _declared().items()
              if name in params and dataclasses.is_dataclass(value)}
    passed = set().union(*(_passed_parameters(path, names, fields) for path in sources))
    assert defaulted - passed == UNREAD_DEFAULTS


_START_UP = textwrap.dedent("""
    import json, os, sys, tempfile

    def scipy_loaded():
        return ["scipy.linalg" in sys.modules, "scipy.stats" in sys.modules,
                sorted(m for m in sys.modules if m.startswith("scipy"))]

    steps = {}
    import phenocausal, phenocausal.cli
    steps["import"] = scipy_loaded()
    import numpy as np
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 400)
    data = phenocausal.Dataset(("x", "y"), np.column_stack([x, x + rng.uniform(0, 1, 400)]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w") as fh:
            fh.write(data.to_csv())
        steps["discover_rc"] = phenocausal.cli.run(
            ["discover", "--method", "bivariate", "--in", path, "--seed", "1",
             "--out", os.path.join(tmp, "out.json")])
        steps["discover"] = scipy_loaded()
        ex = phenocausal.urn_bivariate()
        steps["urn_bivariate"] = scipy_loaded()
        ex.ground_truth, ex.scm, ex.linear
        steps["urn_bivariate_model"] = scipy_loaded()
        steps["exemplar_rc"] = phenocausal.cli.run(
            ["exemplar", "urn2", "--seed", "7", "--samples", "300",
             "--out", os.path.join(tmp, "urn2.csv")])
        steps["exemplar"] = scipy_loaded()
        steps["classify_rc"] = phenocausal.cli.run(
            ["classify", "urnN", "--n", "3", "--seed", "1", "--trials", "50",
             "--out", os.path.join(tmp, "urnN.json")])
        steps["classify"] = scipy_loaded()
        steps["verify_rc"] = phenocausal.cli.run(
            ["verify", "--which", "embedding", "--trials", "3", "--seed", "1",
             "--out", os.path.join(tmp, "verify.json")])
        steps["verify"] = scipy_loaded()
        steps["report_rc"] = phenocausal.cli.run(
            ["report", "--seed", "3", "--out", os.path.join(tmp, "report.json")])
        steps["report"] = scipy_loaded()
    phenocausal.NoiseSpec.binomdiff(3, 0.5, 0.5).support()
    steps["binomdiff_support"] = scipy_loaded()
    print(json.dumps(steps))
""")


def test_scipy_modules_load_only_where_they_are_called():
    # a fresh interpreter: this process has long since loaded both modules
    src = Path(phenocausal.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _START_UP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # [scipy.linalg loaded, scipy.stats loaded, every scipy module] after each step
    none = [False, False, []]
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": none,
        "discover_rc": 0,
        "discover": none,
        "urn_bivariate": none,
        "urn_bivariate_model": none,
        "exemplar_rc": 0,
        "exemplar": none,
        "classify_rc": 0,
        "classify": none,
        "verify_rc": 0,
        "verify": none,
        "report_rc": 0,
        "report": none,
        "binomdiff_support": none,
    }


def _imported_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def _requirement_names(pyproject: str, key: str) -> list[str]:
    """The package names in the one-requirement-per-line list ``key = [...]``."""
    block = re.search(rf"^{key} = \[(.*?)^\]", pyproject, re.M | re.S).group(1)
    return [re.match(r"[A-Za-z0-9_.-]+", req).group(0)
            for req in re.findall(r'"([^"]+)"', block)]


def test_package_source_imports_no_scipy_and_depends_on_numpy_only():
    package = Path(phenocausal.__file__).resolve().parent
    sources = sorted(package.rglob("*.py"))
    assert {path.stem for path in sources} >= {*MODULES, "cli"}
    for path in sources:
        scipy_imports = {m for m in _imported_modules(path)
                         if m == "scipy" or m.startswith("scipy.")}
        assert not scipy_imports, (path.name, scipy_imports)
    pyproject = (package.parents[1] / "pyproject.toml").read_text()
    assert _requirement_names(pyproject, "dependencies") == ["numpy"]
    assert "scipy" in _requirement_names(pyproject, "test")
