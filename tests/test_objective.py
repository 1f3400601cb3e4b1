"""Parity-penalized surrogate fitting and its brute-force cross-check."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fairlime import (DataError, ExplainConfig, FairConfig, GridSpec,
                      KernelConfig, LogisticModel, MetricUndefinedError,
                      OptimizationError, SyntheticConfig, TabularDataset,
                      ThresholdOracle, demographic_parity,
                      explain_neighborhood, fair_explain_neighborhood,
                      fair_lime_explain, feature_stats, generate_synthetic,
                      grid_search_oracle, lime_explain,
                      sample_two_group_neighborhood, smoothed_objective,
                      smoothed_objective_gradient)
from fairlime import objective
from fairlime.objective import (POLISH_CANDIDATE_BOUND, _FairProblem, _descend,
                                _line_minimum, psi)

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


def test_psi_hand_case():
    nb = psi_hand_neighborhood()
    e = hand_explanation(0.7, np.zeros(2))
    breakdown = psi(e, nb)
    assert breakdown.dp_blackbox == -0.5
    assert breakdown.dp_surrogate_hard == 0.0
    assert breakdown.psi_hard == 0.5
    assert json.dumps(breakdown.as_dict())


def test_psi_zero_when_surrogate_matches_predictions():
    samples = np.column_stack([np.array([1.0, 0.0, 1.0, 0.0]),
                               np.zeros(4)])
    f_scores = np.array([0.9, 0.8, 0.7, 0.6])
    nb = hand_neighborhood(samples, f_scores)
    e = hand_explanation(0.7, np.zeros(2))
    assert psi(e, nb).psi_hard == 0.0


def test_psi_smooth_saturates_at_tiny_tau():
    nb = psi_hand_neighborhood()
    # Surrogate scores equal the x column: 0.7, 0.55, 0.3, 0.45, all at
    # least 0.05 away from the threshold.
    e = hand_explanation(0.0, np.array([0.0, 1.0]))
    breakdown = psi(e, nb, tau=1e-6)
    assert abs(breakdown.psi_smooth - breakdown.psi_hard) < 1e-6


def test_psi_validation():
    nb = psi_hand_neighborhood()
    e = hand_explanation(0.7, np.zeros(2))
    with pytest.raises(DataError, match="positive"):
        psi(e, nb, tau=0.0)
    single = hand_neighborhood(np.column_stack([np.ones(4), np.zeros(4)]),
                               np.full(4, 0.9))
    with pytest.raises(MetricUndefinedError):
        psi(e, single)


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
    assert fair.restart_count == 0


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


def test_fair_fit_never_loses_to_plain_on_hard_objective():
    for seed in range(5):
        nb = oracle_neighborhood(seed=seed, x1=5.2 + 0.2 * seed)
        cfg = ExplainConfig()
        fair_cfg = FairConfig(lambda2=5.0, restarts=2, steps=120,
                              polish_rounds=1, polish_dirs=0, seed=seed)
        plain = explain_neighborhood(nb, cfg)
        fair = fair_explain_neighborhood(nb, cfg, fair_cfg)
        plain_hard = (plain.loss + cfg.lambda1 * len(plain.active)
                      + fair_cfg.lambda2 * psi(plain, nb).psi_hard)
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
    assert psi(e, nb, tau=fair_cfg.tau).psi_hard == e.psi_hard


def test_fair_explanation_serializes_with_penalty_fields():
    nb = oracle_neighborhood(seed=2)
    e = fair_explain_neighborhood(nb, ExplainConfig(),
                                  FairConfig(lambda2=5.0, restarts=2,
                                             steps=120, polish_rounds=1,
                                             polish_dirs=0, seed=0))
    doc = e.as_dict()
    assert doc["tau"] == 0.05
    assert doc["restart_count"] == 2
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
        _descend(problem, np.array([np.nan, 0.0, 0.0, 0.0]), 10, 1.0, 3)
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


def test_oracle_refinement_never_increases_the_optimum():
    nb = two_feature_neighborhood()
    cfg = ExplainConfig()
    fair = FairConfig(lambda2=5.0, seed=0)
    grid = GridSpec(intercept_low=-2.0, intercept_high=2.0, weight_low=-1.0,
                    weight_high=1.0, intercept_steps=100, weight_steps=50)
    coarse = grid_search_oracle(nb, cfg, fair, grid=grid)
    fine = grid_search_oracle(nb, cfg, fair, grid=grid.refine())
    assert fine.objective <= coarse.objective


def test_oracle_rejects_wide_active_sets():
    nb = oracle_neighborhood(seed=0)
    with pytest.raises(DataError, match="at most 2"):
        grid_search_oracle(nb, ExplainConfig(), FairConfig(seed=0))


def test_grid_spec_refine_is_a_bitwise_superset():
    grid = GridSpec(intercept_low=-1.3, intercept_high=2.1, weight_low=-0.7,
                    weight_high=0.9, intercept_steps=37, weight_steps=23)
    fine = grid.refine()
    assert np.all(np.isin(grid.intercept_axis(), fine.intercept_axis()))
    assert np.all(np.isin(grid.weight_axis(), fine.weight_axis()))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(intercept_low=1.0, intercept_high=-1.0)
    with pytest.raises(ValueError):
        GridSpec(weight_low=0.5, weight_high=0.5)
    with pytest.raises(ValueError):
        GridSpec(intercept_steps=0)


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
    dp = np.zeros_like(ts)
    for mask, scale in ((problem.mask1, 1.0 / problem.n1),
                        (problem.mask0, -1.0 / problem.n0)):
        sub = mask[moving]
        fixed = np.count_nonzero(mask & ~moving & (base >= 0.5))
        up = np.sort(brk[(slope[moving] > 0.0) & sub])
        down = np.sort(brk[(slope[moving] < 0.0) & sub])
        count = (fixed + np.searchsorted(up, ts, side="right")
                 + down.size - np.searchsorted(down, ts, side="left"))
        dp += scale * count
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
