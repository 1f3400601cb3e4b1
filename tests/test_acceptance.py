"""Acceptance gate: eight end-to-end checks, one printed verdict each.

Every test prints a single "criterion N: PASS/FAIL - detail" line before
asserting, so a red run still reports every measured number.
"""
import json
import time

import numpy as np
import pytest
from scipy.special import expit

from fairlime import (ExplainConfig, FairConfig, KernelConfig,
                      MetricUndefinedError, SyntheticConfig,
                      TabularDataset, ThresholdOracle, TrainConfig, accuracy,
                      demographic_parity, evaluate_metric,
                      explain_neighborhood, fair_explain_neighborhood,
                      fair_lime_explain, fairness_mismatch, feature_stats,
                      generate_synthetic, grid_search_oracle, lime_explain,
                      sample_two_group_neighborhood, smoothed_objective,
                      smoothed_objective_gradient, train_mlp)
from fairlime.cli import main
from fairlime.metrics import (DEMOGRAPHIC_PARITY, EQUALIZED_ODDS,
                              EQUAL_OPPORTUNITY, METRIC_NAMES,
                              PREDICTIVE_PARITY)
from fairlime.models import MLP, gradient_check
from fairlime.experiments import (run_boundary_experiment,
                                  run_perturbation_sweep, sweep_fair_config)

import solver_misses


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_boundary_tracks_the_majority_threshold():
    t0 = time.monotonic()
    r = run_boundary_experiment(SyntheticConfig(),
                                KernelConfig(n_samples=5000),
                                ExplainConfig(), seeds=range(20))
    elapsed = time.monotonic() - t0
    b = r.mean_boundary
    nearer = abs(b - 5.0) < abs(b - 6.0)
    ok = nearer and b < 5.45 and elapsed < 120.0
    verdict(1, ok, f"mean implied boundary {b:.4f} against thresholds "
                   f"5 (majority) and 6 (minority), {elapsed:.1f}s")
    assert nearer
    assert b < 5.45
    assert elapsed < 120.0


def test_criterion_2_balanced_groups_split_the_difference():
    t0 = time.monotonic()
    r = run_boundary_experiment(SyntheticConfig(minority_fraction=0.5),
                                KernelConfig(n_samples=5000),
                                ExplainConfig(), seeds=range(20))
    elapsed = time.monotonic() - t0
    b = r.mean_boundary
    ok = 5.2 <= b <= 5.8 and elapsed < 120.0
    verdict(2, ok, f"balanced-group mean implied boundary {b:.4f}, "
                   f"{elapsed:.1f}s")
    assert 5.2 <= b <= 5.8
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_3_penalty_shrinks_the_parity_gap_at_every_count():
    t0 = time.monotonic()
    ds = generate_synthetic(SyntheticConfig())
    r = run_perturbation_sweep(ds, ThresholdOracle(),
                               (100, 200, 500, 1000, 2000), ExplainConfig(),
                               sweep_fair_config(), seeds=range(20),
                               max_points=200)
    elapsed = time.monotonic() - t0
    dominated = all(f <= v for f, v in zip(r.mean_fair, r.mean_vanilla))
    improvement = (r.mean_vanilla[-1] - r.mean_fair[-1]) / r.mean_vanilla[-1]
    ok = dominated and improvement >= 0.10 and elapsed < 600.0
    verdict(3, ok, f"penalized gap below vanilla at all 5 counts: "
                   f"{dominated}, relative improvement at 2000: "
                   f"{improvement:.1%}, {elapsed:.1f}s")
    assert dominated
    assert improvement >= 0.10
    assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_4_solver_matches_the_exhaustive_oracle():
    grid = solver_misses.GRID
    b_axis, w_axis = grid.intercept_axis(), grid.weight_axis()
    cfg = ExplainConfig()
    fair = FairConfig(lambda2=5.0)
    overshoot = []
    t0 = time.monotonic()
    for _, nb in solver_misses.instances(42):
        e = fair_explain_neighborhood(nb, cfg, fair)
        o = grid_search_oracle(nb, cfg, fair, grid=grid)
        # The optimum must sit strictly inside the grid box, otherwise
        # the documented ranges clipped it and the comparison is void.
        assert b_axis[0] < o.intercept < b_axis[-1]
        for j in o.active:
            assert w_axis[0] < o.coefficients[j] < w_axis[-1]
        overshoot.append((e.objective - o.objective) / abs(o.objective))
    elapsed = time.monotonic() - t0
    worst = float(np.max(overshoot))
    # The oracle walks a 0.01 lattice while the solver moves in the
    # continuum, so the solver may legitimately land below the lattice
    # optimum; only the direction where the solver is worse is bounded.
    ok = worst <= 1e-2 and elapsed < 300.0
    verdict(4, ok, f"worst solver-vs-oracle relative excess {worst:.2e} "
                   f"over 50 instances (negative means the solver won), "
                   f"{elapsed:.1f}s")
    assert worst <= 1e-2
    assert elapsed < 300.0


def test_criterion_5_analytic_gradients_match_finite_differences():
    stats = feature_stats(generate_synthetic(SyntheticConfig(n_rows=3000,
                                                             seed=0)))
    nb = sample_two_group_neighborhood(np.array([1.0, 2.0, 5.5]), stats,
                                       ThresholdOracle(),
                                       KernelConfig(n_samples=200), 0)
    active, tau, lam, h = (0, 1, 2), 0.05, 5.0, 1e-5
    dp_bb = demographic_parity(nb.f_preds, nb.groups)
    rng = np.random.default_rng(42)
    checked, worst_psi = 0, 0.0
    while checked < 20:
        beta = rng.normal(0.0, 0.5, 4)
        scores = beta[0] + nb.samples[:, list(active)] @ beta[1:]
        s = expit((scores - 0.5) / tau)
        gap = dp_bb - float(s[nb.groups == 1.0].mean()
                            - s[nb.groups == 0.0].mean())
        if abs(gap) <= 1e-3:
            continue
        checked += 1
        analytic = smoothed_objective_gradient(beta, nb, active, lam, tau)
        numeric = np.empty_like(analytic)
        for i in range(beta.size):
            up, down = beta.copy(), beta.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (smoothed_objective(up, nb, active, lam, tau)
                          - smoothed_objective(down, nb, active, lam, tau)
                          ) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                           1e-6)
        worst_psi = max(worst_psi,
                        float(np.max(np.abs(analytic - numeric) / denom)))

    model = MLP.initialize(3, (5, 4), np.random.default_rng(0))
    X = rng.normal(0.0, 1.0, (40, 3))
    y = rng.integers(0, 2, 40).astype(float)
    worst_mlp = 0.0
    for _ in range(20):
        model.set_flat_params(rng.normal(0.0, 0.7, model.flat_params().size))
        worst_mlp = max(worst_mlp, gradient_check(model, X, y, step=h))

    ok = worst_psi < 1e-4 and worst_mlp < 1e-4
    verdict(5, ok, f"worst relative error over 20 points each: penalized "
                   f"objective {worst_psi:.2e}, network loss {worst_mlp:.2e}")
    assert worst_psi < 1e-4
    assert worst_mlp < 1e-4


def test_criterion_6_metric_properties_hold_on_random_vectors():
    rng = np.random.default_rng(123)
    dp_checked = perm_checked = identity_checked = undefined_raised = 0
    for _ in range(1000):
        n = int(rng.integers(4, 60))
        f_preds = rng.integers(0, 2, n).astype(float)
        groups = rng.integers(0, 2, n).astype(float)
        labels = rng.integers(0, 2, n).astype(float)
        perm = rng.permutation(n)
        try:
            dp = demographic_parity(f_preds, groups)
        except MetricUndefinedError as err:
            assert err.metric == DEMOGRAPHIC_PARITY
            assert isinstance(err, ValueError)
            assert isinstance(err.group_counts, dict)
            undefined_raised += 1
            continue
        assert -1.0 <= dp <= 1.0
        assert demographic_parity(f_preds, 1.0 - groups) == -dp
        dp_checked += 1
        for kind in METRIC_NAMES:
            try:
                base = evaluate_metric(kind, f_preds, groups, labels)
            except MetricUndefinedError as err:
                assert err.metric == kind
                assert isinstance(err.group_counts, dict)
                undefined_raised += 1
                continue
            shuffled = evaluate_metric(kind, f_preds[perm], groups[perm],
                                       labels[perm])
            assert shuffled.value == base.value
            perm_checked += 1
            report = fairness_mismatch(kind, f_preds, f_preds, groups,
                                       labels)
            assert report.mismatch == 0.0
            assert report.preserved
            identity_checked += 1

    with pytest.raises(MetricUndefinedError):
        demographic_parity(np.ones(4), np.ones(4))
    with pytest.raises(MetricUndefinedError):
        evaluate_metric(EQUAL_OPPORTUNITY, np.ones(4),
                        np.array([0.0, 0.0, 1.0, 1.0]),
                        np.array([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(MetricUndefinedError):
        evaluate_metric(PREDICTIVE_PARITY, np.array([0.0, 0.0, 1.0, 1.0]),
                        np.array([0.0, 0.0, 1.0, 1.0]), np.ones(4))
    with pytest.raises(MetricUndefinedError):
        evaluate_metric(EQUALIZED_ODDS, np.ones(4),
                        np.array([0.0, 0.0, 1.0, 1.0]),
                        np.array([1.0, 1.0, 0.0, 1.0]))

    ok = dp_checked >= 900 and perm_checked >= 1000 and undefined_raised > 0
    verdict(6, ok, f"1000 random vectors: parity range and antisymmetry on "
                   f"{dp_checked}, permutation invariance on {perm_checked} "
                   f"metric evaluations, self-mismatch zero on "
                   f"{identity_checked}, undefined cases raised "
                   f"{undefined_raised} structured errors")
    assert dp_checked >= 900
    assert perm_checked >= 1000
    assert identity_checked >= 1000
    assert undefined_raised > 0


def run_twice(tmp_path, name, build_args):
    outputs = []
    for tag in ("first", "second"):
        d = tmp_path / f"{name}-{tag}"
        d.mkdir()
        argv, files = build_args(d)
        assert main(argv) == 0
        outputs.append([open(p, "rb").read() for p in files])
    return outputs[0] == outputs[1]


def test_criterion_7_penalty_off_reduces_exactly_and_runs_repeat(tmp_path):
    stats = feature_stats(generate_synthetic(SyntheticConfig()))
    f = ThresholdOracle()
    cfg = ExplainConfig()
    kc = KernelConfig(n_samples=500)
    identical = 0
    for seed in range(10):
        x = np.array([float(seed % 2), 2.0, 4.6 + 0.15 * seed])
        nb = sample_two_group_neighborhood(x, stats, f, kc, seed)
        plain = explain_neighborhood(nb, cfg)
        fair = fair_explain_neighborhood(nb, cfg,
                                         FairConfig(lambda2=0.0, seed=seed))
        assert fair.intercept == plain.intercept
        assert np.array_equal(fair.coefficients, plain.coefficients)
        assert fair.active == plain.active
        assert fair.loss == plain.loss
        assert fair.objective == plain.objective
        end_to_end = fair_lime_explain(f, x, stats, kc, cfg,
                                       FairConfig(lambda2=0.0, seed=seed),
                                       seed=seed)
        direct = lime_explain(f, x, stats, kc, cfg, seed=seed)
        assert end_to_end.intercept == direct.intercept
        assert np.array_equal(end_to_end.coefficients, direct.coefficients)
        identical += 1

    data = str(tmp_path / "data.csv")
    assert main(["synth", "--out", data, "--n", "300", "--seed", "4"]) == 0
    lean = ["--polish-dirs", "0"]
    commands = {
        "synth": lambda d: (["synth", "--out", str(d / "s.csv"), "--n",
                             "300", "--seed", "4"], [d / "s.csv"]),
        "train": lambda d: (["train", "--data", data, "--group", "g",
                             "--label", "y", "--model", str(d / "m.txt"),
                             "--epochs", "3", "--seed", "1"], [d / "m.txt"]),
        "explain": lambda d: (["explain", "--data", data, "--group", "g",
                               "--label", "y", "--model", "oracle", "--row",
                               "7", "--perturbations", "400", "--seed", "2",
                               "--out", str(d / "e.json"),
                               "--dump-neighborhood", str(d / "nb.csv")],
                              [d / "e.json", d / "nb.csv"]),
        "audit": lambda d: (["audit", "--data", data, "--group", "g",
                             "--label", "y", "--model", "oracle", "--metric",
                             "dp", "--points", "3", "--perturbations", "200",
                             "--seed", "3", "--out", str(d / "a.json")]
                            + lean, [d / "a.json"]),
        "sweep": lambda d: (["sweep", "--data", data, "--group", "g",
                             "--label", "y", "--model", "oracle", "--counts",
                             "60,120", "--seeds", "2", "--max-points", "5",
                             "--seed", "0", "--out", str(d / "w.json")],
                            [d / "w.json"]),
        "boundary": lambda d: (["boundary", "--seeds", "5", "--n", "400",
                                "--perturbations", "200",
                                "--out", str(d / "b.json")], [d / "b.json"]),
    }
    repeatable = {name: run_twice(tmp_path, name, build)
                  for name, build in commands.items()}
    ok = identical == 10 and all(repeatable.values())
    verdict(7, ok, f"penalty-off output bit-identical on {identical}/10 "
                   f"seeds; byte-identical reruns for "
                   f"{sum(repeatable.values())}/6 commands")
    assert identical == 10
    assert all(repeatable.values()), repeatable


def test_criterion_8_network_learns_a_separable_rule():
    rng = np.random.default_rng(0)
    n = 2000
    y = rng.integers(0, 2, n).astype(float)
    g = (rng.random(n) < 0.5).astype(float)
    x0 = (2.0 * y - 1.0) * rng.uniform(0.5, 3.0, n)
    ds = TabularDataset(("g", "x0", "y"), np.column_stack([g, x0, y]),
                        group_col=0, label_col=2)
    model = train_mlp(ds, TrainConfig(epochs=50, seed=0))
    acc = accuracy(model.predict(ds.features), ds.labels)

    probes = rng.normal(0.0, 3.0, (10_000, 2))
    scores = model.score(probes)
    in_range = bool(np.all(np.isfinite(scores))
                    and np.all((scores >= 0.0) & (scores <= 1.0)))
    ok = acc >= 0.95 and in_range
    verdict(8, ok, f"training accuracy {acc:.3f} after 50 epochs on 2000 "
                   f"separable rows; scores within [0, 1] on 10000 random "
                   f"inputs: {in_range}")
    assert acc >= 0.95
    assert in_range
