"""The package namespace is the union of its modules' ``__all__`` lists."""

from __future__ import annotations

import importlib
import types

import phenocausal

MODULES = ("graphs", "tables", "scm", "actions", "exemplars", "discovery", "verify")

# every public name, modules aside, that the package exported while it still
# listed its imports by hand
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
    "bundles_mixing", "changed_factors", "ci_residual", "classify_statistical",
    "classify_unit", "conditional", "d_separated", "exact_joint",
    "exact_urn2_joint", "factor_distance", "factorize", "farmers",
    "hard_intervention", "independence_statistic",
    "is_graphically_causally_sufficient", "is_markov", "lingam_bivariate",
    "lingam_multivariate", "localize_mechanism_change", "macro_pair",
    "marginal_dag", "markov_report", "permutation_threshold", "product_joint",
    "rabbits", "random_conditional", "random_dag", "random_markov_joint",
    "random_sufficient_subset", "randomized_suite", "soft_intervention",
    "solve_structure", "structure_preserving_intervention", "total_effect",
    "tv_distance", "unit_action_from_spec", "unit_map", "urn2_controllers",
    "urn_bivariate", "urn_chain", "urn_toeplitz_mixing", "valid_graphs",
    "verify_boundary_consistency", "verify_embedding_markov",
    "verify_identifiability",
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
    assert len(EXPORTED) == 82
    assert set(EXPORTED) <= set(_declared())
