"""Parity-penalized surrogate fitting and its brute-force cross-check."""
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fairlime import (DataError, ExplainConfig, FairConfig, GridSpec,
                      KernelConfig, LogisticModel, MetricUndefinedError,
                      OptimizationError, SyntheticConfig, TabularDataset,
                      ThresholdOracle, demographic_parity,
                      explain_neighborhood, fair_explain_neighborhood,
                      fair_lime_explain, fairness_mismatch, feature_stats,
                      generate_synthetic, grid_search_oracle, lime_explain,
                      sample_two_group_neighborhood, smoothed_objective,
                      smoothed_objective_gradient)
import fairlime
from fairlime import objective, oracle
from fairlime.metrics import DEMOGRAPHIC_PARITY
from fairlime.objective import (POLISH_CANDIDATE_BOUND, _FairProblem, _descend,
                                _line_minimum)

from conftest import hand_explanation, hand_neighborhood


def fig_one_stats(seed=0):
    ds = generate_synthetic(SyntheticConfig(n_rows=4000,
                                            minority_fraction=0.27,
                                            seed=seed))
    return feature_stats(ds)


def oracle_neighborhood(n_samples=200, seed=0, x1=5.5):
    stats = fig_one_stats()
    f = ThresholdOracle()
    x = np.array([1.0, 2.0, x1])
    return sample_two_group_neighborhood(x, stats, f,
                                         KernelConfig(n_samples=n_samples),
                                         seed)


def psi_hand_neighborhood():
    samples = np.column_stack([
        np.array([1.0, 1.0, 0.0, 0.0]),
        np.array([0.7, 0.55, 0.3, 0.45]),
    ])
    f_scores = np.array([0.9, 0.4, 0.9, 0.9])
    return hand_neighborhood(samples, f_scores)


def parity_mismatch(e, nb):
    """The demographic-parity audit of ``e`` over its neighborhood."""
    return fairness_mismatch(DEMOGRAPHIC_PARITY, nb.f_preds,
                             e.predict(nb.samples), nb.groups)


def test_psi_hand_case():
    nb = psi_hand_neighborhood()
    e = hand_explanation(0.7, np.zeros(2))
    report = parity_mismatch(e, nb)
    assert report.m_blackbox == -0.5
    assert report.m_surrogate == 0.0
    assert report.mismatch == 0.5
    assert json.dumps(report.as_dict())


def test_psi_zero_when_surrogate_matches_predictions():
    samples = np.column_stack([np.array([1.0, 0.0, 1.0, 0.0]),
                               np.zeros(4)])
    f_scores = np.array([0.9, 0.8, 0.7, 0.6])
    nb = hand_neighborhood(samples, f_scores)
    e = hand_explanation(0.7, np.zeros(2))
    assert parity_mismatch(e, nb).mismatch == 0.0


def test_psi_smooth_saturates_at_tiny_tau():
    problem = _FairProblem(psi_hand_neighborhood(), (0, 1), 0.0, 1e-6)
    # Surrogate scores equal the x column: 0.7, 0.55, 0.3, 0.45, all at
    # least 0.05 away from the threshold.
    scores = problem.scores(np.array([0.0, 0.0, 1.0]))
    assert abs(problem.smooth_dp(scores) - problem.hard_dp(scores)) < 1e-6


def test_psi_validation():
    single = hand_neighborhood(np.column_stack([np.ones(4), np.zeros(4)]),
                               np.full(4, 0.9))
    with pytest.raises(MetricUndefinedError):
        fair_explain_neighborhood(single, ExplainConfig(), FairConfig())


def test_fair_config_validation():
    with pytest.raises(ValueError):
        FairConfig(lambda2=-1.0)
    with pytest.raises(ValueError):
        FairConfig(tau=0.0)
    with pytest.raises(ValueError):
        FairConfig(restarts=0)
    with pytest.raises(ValueError):
        FairConfig(steps=0)
    with pytest.raises(ValueError):
        FairConfig(polish_rounds=-1)
    with pytest.raises(ValueError):
        FairConfig(polish_dirs=-1)


def test_gradient_matches_finite_differences():
    nb = oracle_neighborhood()
    active = (0, 1, 2)
    tau, lam = 0.05, 5.0
    dp_bb = demographic_parity(nb.f_preds, nb.groups)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        beta = rng.normal(0.0, 0.5, 4)
        scores = beta[0] + nb.samples[:, list(active)] @ beta[1:]
        s = expit((scores - 0.5) / tau)
        g = nb.groups
        dp_smooth = float(s[g == 1.0].mean() - s[g == 0.0].mean())
        if abs(dp_bb - dp_smooth) <= 1e-3:
            continue
        checked += 1
        analytic = smoothed_objective_gradient(beta, nb, active, lam, tau)
        numeric = np.empty_like(analytic)
        h = 1e-5
        for i in range(beta.size):
            up, down = beta.copy(), beta.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (smoothed_objective(up, nb, active, lam, tau)
                          - smoothed_objective(down, nb, active, lam, tau)
                          ) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                           1e-6)
        assert float(np.max(np.abs(analytic - numeric) / denom)) < 1e-4


def test_gradient_with_penalty_off_is_least_squares():
    nb = oracle_neighborhood(seed=3)
    active = (0, 2)
    beta = np.array([0.2, -0.1, 0.05])
    grad = smoothed_objective_gradient(beta, nb, active, 0.0, 0.05)
    cols = nb.samples[:, list(active)]
    wn = nb.weights / np.sum(nb.weights)
    r = wn * (beta[0] + cols @ beta[1:] - nb.f_scores)
    expected = 2.0 * np.concatenate([[np.sum(r)], cols.T @ r])
    assert np.allclose(grad, expected, rtol=1e-12, atol=0.0)


def test_gradient_zero_parity_gap_contributes_nothing():
    samples = np.column_stack([
        np.array([1.0, 1.0, 0.0, 0.0]),
        np.array([0.9, 0.1, 0.4, 0.6]),
    ])
    f_scores = np.array([0.9, 0.4, 0.9, 0.4])
    nb = hand_neighborhood(samples, f_scores)
    assert demographic_parity(nb.f_preds, nb.groups) == 0.0
    beta = np.array([0.3, 0.0, 0.0])
    with_penalty = smoothed_objective_gradient(beta, nb, (0, 1), 7.5, 0.05)
    without = smoothed_objective_gradient(beta, nb, (0, 1), 0.0, 0.05)
    assert np.array_equal(with_penalty, without)


def test_lambda2_zero_reduces_to_plain_fit():
    nb = oracle_neighborhood(seed=5)
    plain = explain_neighborhood(nb, ExplainConfig())
    fair = fair_explain_neighborhood(nb, ExplainConfig(),
                                     FairConfig(lambda2=0.0, seed=11))
    assert fair.intercept == plain.intercept
    assert np.array_equal(fair.coefficients, plain.coefficients)
    assert fair.active == plain.active
    assert fair.loss == plain.loss
    assert fair.objective == plain.objective


def test_lambda2_zero_end_to_end_matches_lime():
    stats = fig_one_stats()
    f = ThresholdOracle()
    x = np.array([1.0, 2.0, 5.3])
    kc = KernelConfig(n_samples=300)
    plain = lime_explain(f, x, stats, kc, ExplainConfig(), seed=7)
    fair = fair_lime_explain(f, x, stats, kc, ExplainConfig(),
                             FairConfig(lambda2=0.0, seed=0), seed=7)
    assert fair.intercept == plain.intercept
    assert np.array_equal(fair.coefficients, plain.coefficients)
    assert fair.psi_hard == plain.psi_hard


def test_fair_fit_never_loses_to_plain_on_hard_objective():
    for seed in range(5):
        nb = oracle_neighborhood(seed=seed, x1=5.2 + 0.2 * seed)
        cfg = ExplainConfig()
        fair_cfg = FairConfig(lambda2=5.0, restarts=2, steps=120,
                              polish_rounds=1, polish_dirs=0, seed=seed)
        plain = explain_neighborhood(nb, cfg)
        fair = fair_explain_neighborhood(nb, cfg, fair_cfg)
        plain_hard = (plain.loss + cfg.lambda1 * len(plain.active)
                      + fair_cfg.lambda2 * plain.psi_hard)
        assert fair.objective <= plain_hard + 1e-12


def test_fair_fit_deterministic():
    nb = oracle_neighborhood(seed=9)
    cfg = ExplainConfig()
    fair_cfg = FairConfig(lambda2=5.0, restarts=3, steps=150,
                          polish_rounds=2, polish_dirs=4, seed=21)
    a = fair_explain_neighborhood(nb, cfg, fair_cfg)
    b = fair_explain_neighborhood(nb, cfg, fair_cfg)
    assert a.intercept == b.intercept
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.objective == b.objective


def test_fair_objective_prices_the_hard_gap():
    nb = oracle_neighborhood(seed=2)
    cfg = ExplainConfig(lambda1=0.03)
    fair_cfg = FairConfig(lambda2=2.0, restarts=2, steps=120,
                          polish_rounds=1, polish_dirs=0, seed=0)
    e = fair_explain_neighborhood(nb, cfg, fair_cfg)
    assert e.objective == e.loss + 0.03 * len(e.active) + 2.0 * e.psi_hard
    assert parity_mismatch(e, nb).mismatch == e.psi_hard


def test_fair_explanation_serializes_with_penalty_fields():
    nb = oracle_neighborhood(seed=2)
    e = fair_explain_neighborhood(nb, ExplainConfig(),
                                  FairConfig(lambda2=5.0, restarts=2,
                                             steps=120, polish_rounds=1,
                                             polish_dirs=0, seed=0))
    doc = e.as_dict()
    assert doc["tau"] == 0.05
    assert "psi_vanilla" not in doc
    breakdown = doc["objective_breakdown"]
    for key in ("psi_hard", "psi_smooth", "dp_blackbox",
                "dp_surrogate_hard", "dp_surrogate_smooth"):
        assert key in breakdown
    assert json.dumps(doc)


def test_mean_parity_gap_monotone_in_lambda2():
    stats = fig_one_stats()
    f = ThresholdOracle()
    cfg = ExplainConfig()
    kc = KernelConfig(n_samples=500)
    means = {}
    for lam in (0.0, 0.5, 5.0):
        vals = []
        for s in range(20):
            x = np.array([1.0, 2.0, 4.5 + 0.1 * s])
            nb = sample_two_group_neighborhood(x, stats, f, kc, (11, s))
            fair_cfg = FairConfig(lambda2=lam, restarts=2, steps=120,
                                  polish_rounds=1, polish_dirs=4, seed=s)
            vals.append(fair_explain_neighborhood(nb, cfg, fair_cfg).psi_hard)
        means[lam] = float(np.mean(vals))
    assert means[0.0] >= means[0.5] >= means[5.0]
    assert means[5.0] < means[0.0]


def test_divergent_descent_reports_restart_index():
    nb = oracle_neighborhood(seed=1)
    problem = _FairProblem(nb, (0, 1, 2), 5.0, 0.05)
    with pytest.raises(OptimizationError) as info:
        _descend(problem, np.array([np.nan, 0.0, 0.0, 0.0]), 10, 3)
    assert info.value.restart_index == 3


def two_feature_neighborhood(seed=3, model=None):
    rng = np.random.default_rng(0)
    n = 3000
    rows = np.column_stack([(rng.random(n) < 0.5).astype(float),
                            rng.uniform(3.0, 8.0, n)])
    ds = TabularDataset(("g", "x"), rows, group_col=0)
    stats = feature_stats(ds)
    f = model or ThresholdOracle(group_col=0, x1_col=1)
    return sample_two_group_neighborhood(np.array([1.0, 5.5]), stats, f,
                                         KernelConfig(n_samples=300), seed)


def test_oracle_constant_model_recovers_weighted_mean():
    f = LogisticModel(np.zeros(2), math.log(0.3 / 0.7))
    nb = two_feature_neighborhood(seed=5, model=f)
    e = grid_search_oracle(nb, ExplainConfig(n_features=1),
                           FairConfig(lambda2=0.0, seed=0))
    wn = nb.weights / np.sum(nb.weights)
    mean = float(np.sum(wn * nb.f_scores))
    assert abs(e.intercept - mean) <= 0.005 + 1e-12
    assert np.all(e.coefficients == 0.0)


def test_oracle_never_beats_solver_by_more_than_grid_slack():
    nb = two_feature_neighborhood()
    cfg = ExplainConfig()
    fair = FairConfig(lambda2=5.0, seed=0)
    solver = fair_explain_neighborhood(nb, cfg, fair)
    grid = GridSpec(intercept_low=-2.0, intercept_high=2.0, weight_low=-1.0,
                    weight_high=1.0, intercept_steps=100, weight_steps=50)
    oracle = grid_search_oracle(nb, cfg, fair, grid=grid)
    # 0.02 absorbs the within-cell drift of a 0.04-resolution lattice;
    # the measured gap on this instance is 0.0043.
    assert oracle.objective <= solver.objective + 0.02


def doubled(grid):
    """``grid`` at twice the step counts over the same spans."""
    return dataclasses.replace(grid, intercept_steps=2 * grid.intercept_steps,
                               weight_steps=2 * grid.weight_steps)


def test_oracle_refinement_never_increases_the_optimum():
    nb = two_feature_neighborhood()
    cfg = ExplainConfig()
    fair = FairConfig(lambda2=5.0, seed=0)
    grid = GridSpec(intercept_low=-2.0, intercept_high=2.0, weight_low=-1.0,
                    weight_high=1.0, intercept_steps=100, weight_steps=50)
    coarse = grid_search_oracle(nb, cfg, fair, grid=grid)
    fine = grid_search_oracle(nb, cfg, fair, grid=doubled(grid))
    assert fine.objective <= coarse.objective


def test_oracle_rejects_wide_active_sets():
    nb = oracle_neighborhood(seed=0)
    with pytest.raises(DataError, match="at most 2"):
        grid_search_oracle(nb, ExplainConfig(), FairConfig(seed=0))


def test_grid_spec_refine_is_a_bitwise_superset():
    grid = GridSpec(intercept_low=-1.3, intercept_high=2.1, weight_low=-0.7,
                    weight_high=0.9, intercept_steps=37, weight_steps=23)
    fine = doubled(grid)
    assert np.all(np.isin(grid.intercept_axis(), fine.intercept_axis()))
    assert np.all(np.isin(grid.weight_axis(), fine.weight_axis()))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(intercept_low=1.0, intercept_high=-1.0)
    with pytest.raises(ValueError):
        GridSpec(weight_low=0.5, weight_high=0.5)
    with pytest.raises(ValueError):
        GridSpec(intercept_steps=0)


@pytest.mark.parametrize("bound, value", [
    ("intercept_low", -math.inf), ("intercept_high", math.inf),
    ("intercept_high", math.nan), ("weight_low", math.nan),
    ("weight_high", math.inf),
])
def test_grid_spec_rejects_non_finite_bounds(bound, value):
    with pytest.raises(ValueError, match="finite"):
        GridSpec(**{bound: value})


def test_oracle_names_resolve_from_the_package_and_the_module():
    assert fairlime.GridSpec is objective.GridSpec
    assert fairlime.grid_search_oracle is objective.grid_search_oracle


def _grid_minimum(problem, b_axis, w_axis):
    """The lattice point [intercept, weights] with the lowest hard
    objective on ``problem``, found by scoring every cell, block by
    block. Kept as the exhaustive reference that oracle.lattice_minimum
    must match bit for bit."""
    combos = oracle.weight_combinations(w_axis, problem.cols.shape[1])
    best = None
    for lo in range(0, combos.shape[0], oracle._GRID_CHUNK):
        w_chunk = combos[lo:lo + oracle._GRID_CHUNK]
        z = problem.cols @ w_chunk.T
        m1, m2 = oracle.block_moments(problem, z)
        best = oracle.offer(best, oracle.cell_values(problem, b_axis, z, m1, m2),
                            b_axis, w_chunk)
    return best[1]


_DYADIC_LOWS = (-2.0, -1.5, -1.0, -0.5, 0.0)
_DYADIC_SPANS = (0.5, 1.0, 2.0, 4.0)


@st.composite
def lattice_cases(draw):
    """A small hand-built neighborhood over the group column and, for two
    features, a continuous or a quarter-step column; a logistic or a
    constant black box; equal or random kernel weights; and a small
    grid. Dyadic data and grids give exact ties between cells. A
    two-feature grid of 64 or more weight steps, or a one-feature grid
    of 4096 or more, exceeds one block, so columns get pruned."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(10, 60))
    k = draw(st.sampled_from((1, 2)))
    g = np.zeros(n)
    g[rng.permutation(n)[:draw(st.integers(1, n - 1))]] = 1.0
    samples = g[:, None]
    if k == 2:
        x = (rng.normal(0.0, 1.0, n) if draw(st.booleans())
             else rng.integers(-4, 5, n) / 4.0)
        samples = np.column_stack([g, x])
    if draw(st.booleans()):
        f_scores = np.full(n, draw(st.sampled_from((0.25, 0.3, 0.5, 0.75))))
    else:
        f_scores = expit(samples @ rng.uniform(-3.0, 3.0, k)
                         + rng.uniform(-1.0, 1.0))
    weights = np.ones(n) if draw(st.booleans()) else rng.uniform(0.1, 1.0, n)
    nb = hand_neighborhood(samples, f_scores, weights=weights)
    if draw(st.booleans()):
        i_low, i_span = (draw(st.sampled_from(_DYADIC_LOWS)),
                         draw(st.sampled_from(_DYADIC_SPANS)))
        w_low, w_span = (draw(st.sampled_from(_DYADIC_LOWS)),
                         draw(st.sampled_from(_DYADIC_SPANS)))
    else:
        i_low, i_span, w_low, w_span = (draw(st.floats(-2.0, 0.5)),
                                        draw(st.floats(0.25, 4.0)),
                                        draw(st.floats(-2.0, 0.5)),
                                        draw(st.floats(0.25, 4.0)))
    w_steps = (draw(st.integers(1, 90)) if k == 2
               else draw(st.sampled_from((1, 40, 4095, 4096, 5000, 8192))))
    grid = GridSpec(intercept_low=i_low, intercept_high=i_low + i_span,
                    weight_low=w_low, weight_high=w_low + w_span,
                    intercept_steps=draw(st.integers(1, 24)),
                    weight_steps=w_steps)
    fair = FairConfig(lambda2=draw(st.sampled_from((0.0, 0.5, 5.0, 50.0))))
    return nb, ExplainConfig(n_features=k), fair, grid


@settings(max_examples=60, deadline=None)
@given(lattice_cases())
def test_property_pruned_oracle_equals_the_exhaustive_scan(case):
    nb, cfg, fair, grid = case
    e = grid_search_oracle(nb, cfg, fair, grid=grid)
    problem = _FairProblem(nb, e.active, fair.lambda2, fair.tau)
    reference = objective._assemble(problem, nb, e.active,
                                    _grid_minimum(problem, grid.intercept_axis(),
                                                  grid.weight_axis()),
                                    e.psi_vanilla, cfg, fair)
    assert e.intercept.hex() == reference.intercept.hex()
    assert e.coefficients.tobytes() == reference.coefficients.tobytes()
    assert e.objective.hex() == reference.objective.hex()
    assert e.psi_hard.hex() == reference.psi_hard.hex()


@pytest.mark.parametrize("margin", [oracle._PRUNE_MARGIN, 0.0])
def test_pruned_oracle_scores_a_column_whose_bound_ties_the_incumbent(
        monkeypatch, margin):
    # A constant feature x = 1 and dyadic targets make every column's
    # bound exactly var(f) = 1/32, and so is every cell with b + w equal
    # to mean(f) = 0.5. Weights are -3 + k / 2048: the first block, k <
    # 4096, reaches 1/32 at (b, w) = (2, -1.5), and the column w = 0 at
    # k = 6144 ties it there with a smaller max-norm. With margin 0 only
    # "bound <= incumbent" keeps that column.
    nb = hand_neighborhood(np.column_stack([[0.0, 1.0, 0.0, 1.0], np.ones(4)]),
                           [0.25, 0.75, 0.5, 0.5])
    grid = GridSpec(intercept_low=0.0, intercept_high=4.0, weight_low=-3.0,
                    weight_high=1.0, intercept_steps=8, weight_steps=8192)
    monkeypatch.setattr(oracle, "_PRUNE_MARGIN", margin)
    problem = _FairProblem(nb, (1,), 0.0, 0.05)
    beta = oracle.lattice_minimum(problem, grid.intercept_axis(),
                                  grid.weight_axis())
    exhaustive = _grid_minimum(problem, grid.intercept_axis(), grid.weight_axis())
    assert beta.tolist() == [0.5, 0.0]
    assert [v.hex() for v in beta] == [v.hex() for v in exhaustive]


def test_pruning_keeps_bounds_within_the_rounding_margin():
    b_axis = np.linspace(-3.0, 3.0, 601)
    incumbent = 0.03125
    cutoff = oracle._cutoff(incumbent, b_axis)
    bounds = np.array([incumbent, incumbent + 1e-12, cutoff,
                       np.nextafter(cutoff, np.inf), incumbent + 1e-6])
    kept = oracle._survivors(bounds, incumbent, b_axis)
    assert kept.tolist() == [True, True, True, False, False]


def test_covariance_bounds_match_the_block_moment_bounds():
    nb = two_feature_neighborhood()
    problem = oracle.PenalizedProblem(nb, (0, 1), 5.0)
    combos = oracle.weight_combinations(np.linspace(-1.5, 1.5, 101), 2)
    m1, m2 = oracle.block_moments(problem, problem.cols @ combos.T)
    np.testing.assert_allclose(oracle._covariance_bounds(problem, combos),
                               m2 - m1 * m1, rtol=1e-9, atol=1e-12)


def test_pruned_oracle_is_exact_whatever_columns_come_first(monkeypatch):
    # The covariance bounds only pick the columns scored first; with the
    # worst columns first the scan still returns the exhaustive optimum.
    nb = two_feature_neighborhood()
    grid = GridSpec(intercept_low=-2.0, intercept_high=2.0, weight_low=-1.0,
                    weight_high=1.0, intercept_steps=40, weight_steps=80)
    problem = _FairProblem(nb, (0, 1), 5.0, 0.05)
    exhaustive = _grid_minimum(problem, grid.intercept_axis(), grid.weight_axis())
    bounds = oracle._covariance_bounds
    monkeypatch.setattr(oracle, "_covariance_bounds",
                        lambda problem, combos: -bounds(problem, combos))
    beta = oracle.lattice_minimum(problem, grid.intercept_axis(),
                                  grid.weight_axis())
    assert [v.hex() for v in beta] == [v.hex() for v in exhaustive]


# Plain fits whose largest weight is 0.4, 0.9 and 2.4: the coarse
# lattice spans twice that, at least 1.5, so the last two have 73 and
# 193 weights per axis, more combinations than one block.
@pytest.mark.parametrize("v_beta", [[0.3, 0.4, -0.1], [-1.2, 0.9, 0.4],
                                    [0.5, -2.4, 0.1]])
def test_coarse_seed_scan_equals_the_exhaustive_scan(monkeypatch, v_beta):
    nb = two_feature_neighborhood(model=LogisticModel(np.array([1.2, -0.4]), 1.0))
    problem = _FairProblem(nb, (0, 1), 5.0, 0.05)
    scans, scored = [], []
    scan, score = oracle.lattice_minimum, oracle._score

    def recording_scan(problem, b_axis, w_axis):
        scans.append((b_axis, w_axis))
        return scan(problem, b_axis, w_axis)

    def counting_score(problem, b_axis, combos, m1, m2, idx, best):
        scored.append((idx.size, combos.shape[0]))
        return score(problem, b_axis, combos, m1, m2, idx, best)

    monkeypatch.setattr(objective, "lattice_minimum", recording_scan)
    monkeypatch.setattr(oracle, "_score", counting_score)
    seed = objective._coarse_scan_seed(problem, np.array(v_beta))
    (b_axis, w_axis), = scans
    exhaustive = _grid_minimum(problem, b_axis, w_axis)
    assert [v.hex() for v in seed] == [v.hex() for v in exhaustive]
    (rest, combos), = scored
    if max(abs(w) for w in v_beta[1:]) > 0.75:
        assert combos > oracle._GRID_CHUNK
        assert rest < combos - oracle._GRID_CHUNK
    else:
        assert combos <= oracle._GRID_CHUNK


# A black box that follows the group bit gives a plain group weight near
# 1, so its coarse lattice holds more combinations than one block.
@pytest.mark.parametrize("model, n_features, seed, wide", [
    (None, 2, 3, False),
    (LogisticModel(np.array([1.2, -0.4]), 1.0), 2, 4, False),
    (LogisticModel(np.array([8.0, 0.0]), -4.0), 2, 5, True),
    (LogisticModel(np.array([1.2, -0.4]), 1.0), 1, 6, False),
])
def test_fair_fit_is_bit_equal_under_the_exhaustive_seed_scan(
        monkeypatch, model, n_features, seed, wide):
    nb = two_feature_neighborhood(seed=seed, model=model)
    cfg = ExplainConfig(n_features=n_features)
    fair = FairConfig(lambda2=5.0, restarts=3, steps=150, polish_rounds=2,
                      polish_dirs=4, seed=seed)
    fast = fair_explain_neighborhood(nb, cfg, fair)
    lattices = []

    def reference(problem, b_axis, w_axis):
        lattices.append(w_axis.size ** problem.cols.shape[1])
        return _grid_minimum(problem, b_axis, w_axis)

    monkeypatch.setattr(objective, "lattice_minimum", reference)
    slow = fair_explain_neighborhood(nb, cfg, fair)
    assert len(lattices) == 1
    assert (lattices[0] > oracle._GRID_CHUNK) == wide
    assert fast.intercept.hex() == slow.intercept.hex()
    assert fast.coefficients.tobytes() == slow.coefficients.tobytes()
    assert (json.dumps(fast.as_dict(), sort_keys=True)
            == json.dumps(slow.as_dict(), sort_keys=True))


def _line_minimum_reference(problem, design, beta, direction):
    """The line search as first written: unsorted candidates, two
    searchsorted passes per group. Kept as the reference that
    _line_minimum must match bit for bit."""
    base = design @ beta
    slope = design @ direction
    resid = base - problem.targets
    q2 = float(np.sum(problem.wn * slope * slope))
    q1 = float(np.sum(problem.wn * slope * resid))
    q0 = float(np.sum(problem.wn * resid * resid))
    moving = slope != 0.0
    brk = (0.5 - base[moving]) / slope[moving]
    pool = [np.zeros(1), brk, np.nextafter(brk, np.inf), np.nextafter(brk, -np.inf)]
    if q2 > 0.0:
        pool.append(np.array([-q1 / q2]))
    ts = np.concatenate(pool)
    ts = ts[np.isfinite(ts) & (np.abs(ts) <= POLISH_CANDIDATE_BOUND)]
    fidelity = q2 * ts * ts + 2.0 * q1 * ts + q0
    counts = []
    for mask in (problem.mask1, problem.mask0):
        sub = mask[moving]
        fixed = np.count_nonzero(mask & ~moving & (base >= 0.5))
        up = np.sort(brk[(slope[moving] > 0.0) & sub])
        down = np.sort(brk[(slope[moving] < 0.0) & sub])
        counts.append(fixed + np.searchsorted(up, ts, side="right")
                      + down.size - np.searchsorted(down, ts, side="left"))
    dp = counts[0] / problem.n1 - counts[1] / problem.n0
    values = fidelity + problem.lambda2 * np.abs(problem.dp_blackbox - dp)
    return float(ts[int(np.argmin(values))])


def _ulp_chain(center, steps):
    """``center`` and its ``steps`` nearest floats on either side."""
    values = [center]
    up = down = center
    for _ in range(steps):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        values += [up, down]
    return tuple(values)


# With beta = (0, 0, 1) the score is x, and along the intercept axis the
# breakpoints 0.5 - x of this chain round onto equal and adjacent floats.
_CHAIN = _ulp_chain(0.2, 4)
_UNIT = st.floats(-1.0, 1.0)


@st.composite
def line_searches(draw, chain=False):
    """A random line search on a two-column (group, x) problem.

    With ``chain`` the x values come from _CHAIN, the fit scores x
    exactly and the line runs along the intercept axis, so breakpoints
    coincide or sit one float apart for rising or falling scores.
    """
    n = draw(st.integers(2, 24))
    if chain:
        x_values = st.sampled_from(_CHAIN)
    else:
        x_values = draw(st.sampled_from([
            st.floats(-3.0, 3.0),
            st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)),
            st.sampled_from(_CHAIN),
        ]))
    x = draw(st.lists(x_values, min_size=n, max_size=n))
    g = [1.0, 0.0] + draw(st.lists(st.sampled_from((0.0, 1.0)),
                                   min_size=n - 2, max_size=n - 2))
    scores = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    lambda2 = draw(st.sampled_from((0.0, 1.0, 100.0)))
    if chain:
        beta = (0.0, 0.0, 1.0)
        direction = draw(st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]))
    else:
        beta = draw(st.one_of(st.just((0.0, 0.0, 1.0)),
                              st.tuples(*[st.floats(-2.0, 2.0)] * 3)))
        direction = draw(st.one_of(
            # All zero, the intercept, the group column (group 0 stays
            # put), and x.
            st.sampled_from([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                             (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
            st.tuples(_UNIT, _UNIT, _UNIT),
            # Breakpoints beyond POLISH_CANDIDATE_BOUND.
            st.tuples(_UNIT, _UNIT, _UNIT).map(lambda v: [1e-12 * c for c in v]),
            # Slopes whose squares underflow: breakpoints but q2 == 0.
            st.tuples(_UNIT, _UNIT, _UNIT).map(lambda v: [1e-170 * c for c in v]),
        ))
    nb = hand_neighborhood(np.column_stack([g, x]), scores, weights=weights)
    problem = _FairProblem(nb, (0, 1), lambda2, 0.05)
    design = np.column_stack([np.ones(n), problem.cols])
    return problem, design, np.array(beta), np.array(direction, dtype=float)


# Subnormal slopes overflow to infinite breakpoints, which both
# versions must discard alike.
@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
@settings(max_examples=700, deadline=None)
@given(st.one_of(line_searches(), line_searches(chain=True)))
def test_line_minimum_matches_the_reference_bit_for_bit(case):
    fast = _line_minimum(*case)
    reference = _line_minimum_reference(*case)
    assert fast.hex() == reference.hex()


def test_line_minimum_drops_overflowing_breakpoints_without_a_warning():
    # Rows 1 and 4 have group 0 and x = 0, so their slope along this
    # direction is the subnormal 1e-315 and their breakpoints overflow.
    g = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
    x = np.array([0.0, 0.0, 0.3, 0.9, 0.0, 0.6])
    nb = hand_neighborhood(np.column_stack([g, x]),
                           [0.2, 0.7, 0.4, 0.9, 0.1, 0.6])
    problem = _FairProblem(nb, (0, 1), 1.0, 0.05)
    design = np.column_stack([np.ones(6), problem.cols])
    beta = np.array([0.1, 0.0, 1.0])
    direction = 1e-170 * np.array([1e-145, 0.5, -0.25])
    with np.errstate(over="ignore"):
        assert np.any(np.isinf((0.5 - design @ beta) / (design @ direction)))
        reference = _line_minimum_reference(problem, design, beta, direction)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = _line_minimum(problem, design, beta, direction)
    assert t.hex() == reference.hex()


def test_line_minimum_chain_has_equal_and_adjacent_breakpoints():
    brk = np.sort(0.5 - np.array(_CHAIN))
    gaps = np.nextafter(brk[:-1], np.inf)
    assert np.any(brk[1:] == brk[:-1])
    assert np.any(brk[1:] == gaps)


@pytest.mark.parametrize("n_samples, seed, logistic", [
    (200, 0, False), (200, 1, True), (200, 2, False),
    (5000, 3, False), (5000, 4, True),
])
def test_fair_fit_is_bit_equal_under_the_reference_line_search(
        monkeypatch, n_samples, seed, logistic):
    stats = fig_one_stats()
    f = (LogisticModel(np.array([0.8, 0.3, 1.1]), -6.0) if logistic
         else ThresholdOracle())
    x = np.array([1.0, 2.0, 5.2 + 0.2 * seed])
    nb = sample_two_group_neighborhood(x, stats, f,
                                       KernelConfig(n_samples=n_samples), seed)
    cfg = ExplainConfig()
    fair = FairConfig(lambda2=5.0, restarts=3, steps=150, polish_rounds=3,
                      polish_dirs=8, seed=seed)
    fast = fair_explain_neighborhood(nb, cfg, fair)
    monkeypatch.setattr(objective, "_line_minimum", _line_minimum_reference)
    reference = fair_explain_neighborhood(nb, cfg, fair)
    assert fast.intercept.hex() == reference.intercept.hex()
    assert fast.coefficients.tobytes() == reference.coefficients.tobytes()
    assert (json.dumps(fast.as_dict(), sort_keys=True)
            == json.dumps(reference.as_dict(), sort_keys=True))


@st.composite
def fit_cases(draw):
    """A sampled two-group neighborhood of at most 300 perturbations
    around a fig-one point, scored by the threshold oracle or a random
    logistic black box, with a lean penalized config. One or two active
    features with polish directions take the coarse-seed path."""
    if draw(st.booleans()):
        f = ThresholdOracle()
    else:
        f = LogisticModel(np.array(draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3))),
                          draw(st.floats(-8.0, 0.0)))
    x = np.array([1.0, 2.0, draw(st.floats(4.0, 7.0))])
    nb = sample_two_group_neighborhood(
        x, fig_one_stats(), f, KernelConfig(n_samples=draw(st.integers(50, 300))),
        draw(st.integers(0, 2**16)))
    cfg = ExplainConfig(n_features=draw(st.integers(1, 3)))
    fair = FairConfig(lambda2=draw(st.sampled_from((0.5, 5.0, 50.0))),
                      restarts=2, steps=60, polish_rounds=1,
                      polish_dirs=draw(st.sampled_from((0, 4))),
                      seed=draw(st.integers(0, 100)))
    return nb, cfg, fair


def _penalty_off(fair):
    return dataclasses.replace(fair, lambda2=0.0)


@settings(max_examples=40, deadline=None)
@given(fit_cases())
def test_property_lambda2_zero_is_the_plain_fit_bit_for_bit(case):
    nb, cfg, fair = case
    plain = explain_neighborhood(nb, cfg)
    off = fair_explain_neighborhood(nb, cfg, _penalty_off(fair))
    assert off.active == plain.active
    assert off.intercept.hex() == plain.intercept.hex()
    assert off.coefficients.tobytes() == plain.coefficients.tobytes()
    assert off.loss.hex() == plain.loss.hex()
    assert off.objective.hex() == plain.objective.hex()
    assert off.objective_smooth.hex() == plain.objective.hex()
    assert off.psi_hard.hex() == plain.psi_hard.hex()
    plain_dp = demographic_parity(plain.predict(nb.samples), nb.groups)
    assert off.dp_surrogate_hard.hex() == plain_dp.hex()


@settings(max_examples=40, deadline=None)
@given(fit_cases())
def test_property_psi_vanilla_is_the_psi_of_the_penalty_off_fit(case):
    nb, cfg, fair = case
    off = fair_explain_neighborhood(nb, cfg, _penalty_off(fair))
    fit = fair_explain_neighborhood(nb, cfg, fair)
    assert fit.psi_vanilla.hex() == off.psi_hard.hex()
    assert off.psi_vanilla.hex() == off.psi_hard.hex()


@settings(max_examples=40, deadline=None)
@given(fit_cases())
def test_property_fit_never_loses_to_the_plain_hard_objective(case):
    nb, cfg, fair = case
    plain = explain_neighborhood(nb, cfg)
    plain_hard = plain.objective + fair.lambda2 * plain.psi_hard
    fit = fair_explain_neighborhood(nb, cfg, fair)
    assert fit.objective <= plain_hard + 1e-12


@settings(max_examples=40, deadline=None)
@given(fit_cases())
def test_property_doubling_kernel_weights_leaves_the_fit_bit_identical(case):
    nb, cfg, fair = case
    doubled = dataclasses.replace(nb, weights=2.0 * nb.weights)
    a = fair_explain_neighborhood(nb, cfg, fair)
    b = fair_explain_neighborhood(doubled, cfg, fair)
    assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())
    assert a.psi_vanilla.hex() == b.psi_vanilla.hex()


@settings(max_examples=40, deadline=None)
@given(fit_cases())
def test_property_reported_psi_is_the_parity_audit_of_the_explanation(case):
    nb, cfg, fair = case
    fit = fair_explain_neighborhood(nb, cfg, fair)
    report = parity_mismatch(fit, nb)
    assert report.mismatch.hex() == fit.psi_hard.hex()
    assert report.m_surrogate.hex() == fit.dp_surrogate_hard.hex()
    assert report.m_blackbox.hex() == fit.dp_blackbox.hex()
    assert fit.psi_vanilla.hex() == explain_neighborhood(nb, cfg).psi_hard.hex()


@settings(max_examples=40, deadline=None)
@given(fit_cases())
def test_property_swapping_group_labels_leaves_psi_unchanged(case):
    nb, cfg, fair = case
    samples = np.array(nb.samples)
    samples[:, nb.group_col] = 1.0 - samples[:, nb.group_col]
    swapped = dataclasses.replace(nb, samples=samples, center=samples[0])
    plain = explain_neighborhood(nb, cfg)
    # Swapping moves the fit's scores by rounding; away from the
    # threshold that cannot flip a predicted label.
    assume(np.min(np.abs(plain.predict_score(nb.samples) - 0.5)) > 1e-9)
    plain_swapped = explain_neighborhood(swapped, cfg)
    assert plain_swapped.psi_hard.hex() == plain.psi_hard.hex()
    # The penalized fit itself is not compared: its restart noise acts
    # in a different basis once the group column is flipped.
    fit = fair_explain_neighborhood(nb, cfg, fair)
    fit_swapped = fair_explain_neighborhood(swapped, cfg, fair)
    assert fit_swapped.psi_vanilla.hex() == fit.psi_vanilla.hex()
    # Exact negation; == because a zero gap stays +0.0.
    assert fit_swapped.dp_blackbox == -fit.dp_blackbox
