import pytest

from opschur import analysis
from opschur.experiments import (
    REGISTRY,
    ExperimentConfig,
    experiment_names,
    kernel_axioms,
    norm_identities,
    run_experiment,
    sigma_profiles,
)

EXPECTED_NAMES = (
    "norm-identities",
    "schur-submultiplicativity",
    "kernel-axioms",
    "sigma-profiles",
    "toeplitz-symbol-convergence",
    "phi-bounds",
    "hinf-profile",
)


def test_registry_names():
    assert experiment_names() == EXPECTED_NAMES
    assert set(REGISTRY) == set(EXPECTED_NAMES)


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        run_experiment("nope", ExperimentConfig())


def test_norm_identities_passes():
    result = norm_identities(ExperimentConfig(size=8))
    assert result.passed
    assert result.name == "norm-identities"
    names = {a.name for a in result.assertions}
    assert "rank_one_identity" in names
    assert result.tables[0].header[0] == "check"


def test_kernel_axioms_expected_failure_is_flagged():
    result = kernel_axioms(ExperimentConfig())
    verdicts = {a.name: a.passed for a in result.assertions}
    # the growing partial-sum family failing axiom 2 is the documented outcome
    assert verdicts["dirichlet_l1_grows"]
    assert verdicts["fejer_all_axioms"]
    assert result.passed


def test_sigma_profiles_tolerance_override_changes_verdict(monkeypatch):
    monkeypatch.setattr(analysis, "RELATIVE_PROFILE_TOLERANCE", 1e-12)
    strict = sigma_profiles(ExperimentConfig())
    verdicts = {a.name: a.passed for a in strict.assertions}
    assert not verdicts["banded_converges"]
    assert not strict.passed


def test_results_are_deterministic():
    config = ExperimentConfig(size=8, seed=3)
    first = norm_identities(config)
    second = norm_identities(config)
    assert first.tables == second.tables
    assert first.assertions == second.assertions
