"""Sparse linear surrogate fitting and its objective pieces."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlime import (DataError, ExplainConfig, FairConfig, KernelConfig,
                      LogisticModel, explain_neighborhood,
                      fair_explain_neighborhood, fidelity_loss,
                      implied_boundary, lime_explain, surrogate)
from fairlime.datasets import CONTINUOUS, FeatureStats
from fairlime.surrogate import (FitProblem, default_sparsity,
                               greedy_feature_selection)

from conftest import hand_explanation, hand_neighborhood


class Threshold1D:
    """Hard unit-step scorer on a single feature."""

    def __init__(self, boundary):
        self.boundary = boundary

    def score(self, X):
        return (np.asarray(X, dtype=float)[:, 0] > self.boundary).astype(float)

    def predict(self, X):
        return (self.score(X) >= 0.5).astype(float)


def linear_neighborhood(n=60, seed=0, group_col=None):
    """Samples with noiseless linear scores: 0.3 + 0.05 a - 0.02 b."""
    rng = np.random.default_rng(seed)
    samples = np.column_stack([rng.standard_normal(n),
                               rng.standard_normal(n)])
    scores = 0.3 + samples @ np.array([0.05, -0.02])
    weights = rng.uniform(0.5, 2.0, n)
    return hand_neighborhood(samples, scores, weights=weights,
                             group_col=group_col)


def test_fidelity_zero_for_exact_reproduction():
    nb = linear_neighborhood()
    e = hand_explanation(0.3, np.array([0.05, -0.02]))
    assert fidelity_loss(e, nb) == 0.0


def test_fidelity_constant_surrogate_hand_value():
    samples = np.arange(8.0).reshape(4, 2)
    nb = hand_neighborhood(samples, np.array([0.2, 0.4, 0.6, 0.8]),
                           group_col=None)
    e = hand_explanation(0.5, np.zeros(2))
    assert math.isclose(fidelity_loss(e, nb), 0.05, rel_tol=1e-12)


def test_fidelity_invariant_under_weight_rescaling():
    nb = linear_neighborhood(seed=3)
    doubled = hand_neighborhood(nb.samples, nb.f_scores,
                                weights=2.0 * nb.weights, group_col=None)
    e = hand_explanation(0.1, np.array([0.2, -0.3]))
    assert fidelity_loss(e, nb) == fidelity_loss(e, doubled)


def test_complexity_counts_active_features():
    assert hand_explanation(0.0, np.zeros(5)).complexity == 0
    e = hand_explanation(0.0, np.array([0.0, 1.5, 0.0, -0.2, 0.0]))
    assert e.complexity == 2
    rescaled = hand_explanation(0.0, np.array([0.0, 150.0, 0.0, -20.0, 0.0]))
    assert rescaled.complexity == e.complexity


def test_default_sparsity_rule():
    assert default_sparsity(1) == 1
    assert default_sparsity(3) == 3
    assert default_sparsity(4) == 5
    assert default_sparsity(40) == 5


def test_explain_config_validation():
    with pytest.raises(ValueError):
        ExplainConfig(n_features=0)
    with pytest.raises(ValueError):
        ExplainConfig(lambda1=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda1 must be finite"):
            ExplainConfig(lambda1=bad)
    with pytest.raises(DataError, match="exceeds"):
        ExplainConfig(n_features=4).resolve_budget(2)


def one_feature_stats(mean, std=1.0):
    return FeatureStats(feature_names=("x",), feature_kinds=(CONTINUOUS,),
                        means=np.array([mean]), stds=np.array([std]),
                        binary_freqs=np.array([math.nan]), group_col=None)


def test_lime_constant_model_gives_flat_surrogate():
    f = LogisticModel(np.zeros(1), 0.0)
    stats = one_feature_stats(0.0)
    e = lime_explain(f, np.array([0.0]), stats, KernelConfig(n_samples=200),
                     ExplainConfig(), seed=0)
    assert abs(e.intercept - 0.5) < 1e-12
    assert np.all(np.abs(e.coefficients) < 1e-9)
    assert abs(e.loss) < 1e-18


def test_lime_recovers_one_dimensional_boundary():
    f = Threshold1D(5.5)
    stats = one_feature_stats(5.5)
    e = lime_explain(f, np.array([5.5]), stats, KernelConfig(n_samples=5000),
                     ExplainConfig(), seed=0)
    assert abs(implied_boundary(e, 0) - 5.5) < 0.15


def test_lime_deterministic_per_seed():
    f = Threshold1D(5.5)
    stats = one_feature_stats(5.5)
    kc = KernelConfig(n_samples=300)
    a = lime_explain(f, np.array([5.5]), stats, kc, ExplainConfig(), seed=9)
    b = lime_explain(f, np.array([5.5]), stats, kc, ExplainConfig(), seed=9)
    assert a.intercept == b.intercept
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.active == b.active


def test_surrogate_score_hand_case():
    e = hand_explanation(-5.0, np.array([0.0, 0.0, 1.0]))
    z = np.array([[1.0, 3.0, 5.6]])
    assert math.isclose(e.predict_score(z)[0], 0.6, rel_tol=1e-12)
    assert e.predict(z)[0] == 1.0


def test_surrogate_constant_positive_predicts_one_everywhere():
    e = hand_explanation(0.7, np.zeros(3))
    Z = np.random.default_rng(0).standard_normal((50, 3))
    assert np.all(e.predict(Z) == 1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 100.0))
def test_predict_invariant_under_threshold_rescaling(c):
    rng = np.random.default_rng(17)
    w = np.array([0.4, -0.8])
    b = 0.3
    base = hand_explanation(b, w)
    scaled = hand_explanation(0.5 + c * (b - 0.5), c * w)
    Z = rng.standard_normal((100, 2))
    assert np.array_equal(base.predict(Z), scaled.predict(Z))


def test_implied_boundary_hand_case():
    e = hand_explanation(-5.0, np.array([0.0, 0.0, 1.0]))
    assert implied_boundary(e, 2) == 5.5


def test_implied_boundary_rescale_invariance():
    w = np.array([0.0, 0.2, 0.5])
    center = np.array([0.0, 1.5, 4.0])
    base = hand_explanation(0.1, w, center=center)
    t = implied_boundary(base, 2)
    for c in (0.5, 3.0, 40.0):
        scaled = hand_explanation(0.5 + c * (0.1 - 0.5), c * w, center=center)
        assert math.isclose(implied_boundary(scaled, 2), t, rel_tol=1e-12)


def test_implied_boundary_errors():
    e = hand_explanation(0.2, np.array([0.0, 0.3]))
    with pytest.raises(DataError, match="zero"):
        implied_boundary(e, 0)
    with pytest.raises(DataError, match="range"):
        implied_boundary(e, 5)


def test_implied_boundary_uses_center_values():
    e = hand_explanation(0.0, np.array([0.2, 0.5]),
                         center=np.array([2.0, 9.0]))
    expected = (0.5 - 0.0 - 0.2 * 2.0) / 0.5
    assert math.isclose(implied_boundary(e, 1), expected, rel_tol=1e-12)


def wide_neighborhood(n=80, d=6, seed=1):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n, d))
    beta = np.array([0.08, -0.05, 0.02, 0.0, 0.01, -0.03])
    scores = np.clip(0.4 + samples @ beta + 0.01 * rng.standard_normal(n),
                     0.0, 1.0)
    return hand_neighborhood(samples, scores, group_col=None)


def test_sparsity_budget_is_respected_with_exact_zeros():
    nb = wide_neighborhood()
    e = explain_neighborhood(nb, ExplainConfig(n_features=2))
    assert len(e.active) == 2
    assert e.complexity == 2
    off = [j for j in range(6) if j not in e.active]
    assert np.all(e.coefficients[off] == 0.0)
    assert np.all(e.coefficients[list(e.active)] != 0.0)


def test_greedy_each_step_reduces_error():
    nb = wide_neighborhood(seed=2)
    losses = []
    for k in (1, 2, 3, 4):
        e = explain_neighborhood(nb, ExplainConfig(n_features=k))
        losses.append(e.loss)
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_greedy_ties_break_to_the_lower_index():
    rng = np.random.default_rng(5)
    col = rng.standard_normal(50)
    samples = np.column_stack([col, col])
    scores = np.clip(0.5 + 0.1 * col, 0.0, 1.0)
    nb = hand_neighborhood(samples, scores, weights=np.full(50, 0.02),
                           group_col=None)
    problem, _, _ = greedy_feature_selection(FitProblem(nb), 1)
    assert problem.active == (0,)


def test_fidelity_never_beats_the_returned_fit():
    for seed in range(5):
        nb = wide_neighborhood(seed=seed)
        e = explain_neighborhood(nb, ExplainConfig(n_features=3))
        wn = nb.weights / np.sum(nb.weights)
        mean = float(np.sum(wn * nb.f_scores))
        variance = float(np.sum(wn * (nb.f_scores - mean) ** 2))
        assert e.loss <= variance + 1e-12


def test_explanation_objective_prices_active_features():
    nb = wide_neighborhood()
    e = explain_neighborhood(nb, ExplainConfig(n_features=2, lambda1=0.25))
    assert math.isclose(e.objective, e.loss + 0.25 * 2, rel_tol=1e-12)


def test_explanation_as_dict_serializes():
    nb = wide_neighborhood()
    e = explain_neighborhood(nb, ExplainConfig(n_features=2))
    doc = e.as_dict()
    assert set(doc["objective_breakdown"]) == {"fidelity", "complexity",
                                               "psi_hard"}
    assert doc["objective_breakdown"]["fidelity"] == e.loss
    assert json.dumps(doc)


def test_explanation_psi_requires_both_groups():
    nb = wide_neighborhood()
    e = explain_neighborhood(nb, ExplainConfig(n_features=2))
    assert e.psi_hard is None


def test_ranked_features_orders_by_magnitude():
    e = hand_explanation(0.0, np.array([0.1, -0.5, 0.0]),
                         feature_names=("a", "b", "c"))
    assert e.ranked_features() == [("b", -0.5), ("a", 0.1)]


def test_plain_fit_solves_each_least_squares_system_once(monkeypatch):
    # Three features: 3 + 2 + 1 candidate fits, and the last round's
    # winner is the reported fit, not solved again, also where the
    # penalized fit starts from it.
    calls = []
    solve = surrogate.FitProblem.solve

    def counting(problem):
        calls.append(problem.cols.shape[1])
        return solve(problem)

    monkeypatch.setattr(surrogate.FitProblem, "solve", counting)
    rng = np.random.default_rng(4)
    g = (rng.random(80) < 0.5).astype(float)
    samples = np.column_stack([g, rng.standard_normal((80, 2))])
    scores = np.clip(0.4 + samples @ np.array([0.1, 0.05, -0.02]), 0.0, 1.0)
    nb = hand_neighborhood(samples, scores)
    cfg = ExplainConfig(n_features=3)
    fair = FairConfig(polish_dirs=0)
    for fit in (lambda: explain_neighborhood(nb, cfg),
                lambda: fair_explain_neighborhood(nb, cfg, fair)):
        calls.clear()
        e = fit()
        assert len(e.active) == 3 and e.psi_hard is not None
        assert calls == [1, 1, 1, 2, 2, 3]
