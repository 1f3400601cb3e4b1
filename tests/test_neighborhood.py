"""Perturbation sampling, kernel weighting, and group flips."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlime import (DataError, ExplainConfig, FairConfig, KernelConfig,
                      LogisticModel, Neighborhood, fair_lime_explain,
                      SyntheticConfig, ThresholdOracle, feature_stats,
                      flip_group, generate_synthetic, kernel_weights,
                      sample_neighborhood, sample_two_group_neighborhood)

from conftest import OneNaNScore, hand_neighborhood


def oracle():
    return ThresholdOracle(boundary_majority=5.0, boundary_minority=6.0,
                           group_col=0, x1_col=2)


def synthetic_stats(n=4000, minority=0.27, seed=0):
    ds = generate_synthetic(SyntheticConfig(n_rows=n,
                                            minority_fraction=minority,
                                            seed=seed))
    return feature_stats(ds)


def test_kernel_weight_at_zero_distance_is_one():
    assert kernel_weights(np.array([0.0]), width=2.0)[0] == 1.0


def test_kernel_weight_hand_ratio():
    w = kernel_weights(np.array([1.0, 2.0]), width=1.0)
    assert math.isclose(w[0] / w[1], math.exp(3.0), rel_tol=1e-12)


def test_kernel_weight_monotone_in_distance():
    d = np.sort(np.random.default_rng(0).uniform(0.0, 5.0, 100))
    w = kernel_weights(d, width=0.75 * math.sqrt(3))
    assert np.all(np.diff(w) < 0.0)


def test_kernel_weight_strictly_positive_far_out():
    w = kernel_weights(np.array([1e3]), width=0.5)
    assert w[0] > 0.0


def test_sample_neighborhood_deterministic():
    stats = synthetic_stats()
    x = np.array([1.0, 2.0, 5.5])
    kc = KernelConfig(n_samples=200)
    a = sample_neighborhood(x, stats, oracle(), kc, seed=5)
    b = sample_neighborhood(x, stats, oracle(), kc, seed=5)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.f_scores, b.f_scores)


def test_sample_neighborhood_center_is_row_zero():
    stats = synthetic_stats()
    x = np.array([1.0, 2.0, 5.5])
    nb = sample_neighborhood(x, stats, oracle(), KernelConfig(n_samples=50),
                             seed=0)
    assert np.array_equal(nb.samples[0], x)
    assert nb.distances[0] == 0.0
    assert nb.weights[0] == 1.0
    assert nb.n_samples == 50
    assert nb.group_col == 0


def test_sample_neighborhood_default_width():
    stats = synthetic_stats()
    nb = sample_neighborhood(np.array([1.0, 2.0, 5.5]), stats, oracle(),
                             KernelConfig(n_samples=50), seed=0)
    assert nb.kernel_width == 0.75 * math.sqrt(3)
    wide = KernelConfig(n_samples=50, width=2.5)
    nb2 = sample_neighborhood(np.array([1.0, 2.0, 5.5]), stats, oracle(),
                              wide, seed=0)
    assert nb2.kernel_width == 2.5


def test_sample_neighborhood_group_proportion_tracks_stats():
    stats = synthetic_stats(n=20000, minority=0.27, seed=3)
    nb = sample_neighborhood(np.array([1.0, 2.0, 5.5]), stats, oracle(),
                             KernelConfig(n_samples=5000), seed=1)
    freq = stats.binary_freqs[0]
    observed = float(np.mean(nb.groups == 0.0))
    assert abs(observed - (1.0 - freq)) <= 0.02


def test_sample_neighborhood_scores_match_model():
    stats = synthetic_stats()
    f = oracle()
    nb = sample_neighborhood(np.array([0.0, 0.0, 5.5]), stats, f,
                             KernelConfig(n_samples=100), seed=2)
    assert np.array_equal(nb.f_scores, f.score(nb.samples))
    assert np.array_equal(nb.f_preds, (nb.f_scores >= 0.5).astype(float))


def test_sample_neighborhood_constant_feature_uses_floor():
    from fairlime import TabularDataset
    rows = np.column_stack([
        np.array([0.0, 1.0, 0.0, 1.0]),
        np.full(4, 3.0),
        np.array([4.0, 5.0, 6.0, 7.0]),
    ])
    stats = feature_stats(TabularDataset(("g", "c", "x1"), rows, group_col=0))
    nb = sample_neighborhood(np.array([0.0, 3.0, 5.5]), stats, oracle(),
                             KernelConfig(n_samples=100), seed=0)
    spread = np.ptp(nb.samples[:, 1])
    assert 0.0 < spread < 1e-4
    assert np.all(np.isfinite(nb.distances))


def test_sample_neighborhood_validation():
    stats = synthetic_stats()
    kc = KernelConfig(n_samples=50)
    with pytest.raises(DataError, match="shape"):
        sample_neighborhood(np.array([1.0, 2.0]), stats, oracle(), kc, 0)
    with pytest.raises(DataError, match="not 0 or 1"):
        sample_neighborhood(np.array([0.5, 2.0, 5.5]), stats, oracle(), kc, 0)
    with pytest.raises(DataError, match="non-finite"):
        sample_neighborhood(np.array([1.0, np.nan, 5.5]), stats, oracle(),
                            kc, 0)


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(n_samples=5)
    with pytest.raises(ValueError):
        KernelConfig(n_samples=100, width=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="width must be finite"):
            KernelConfig(n_samples=100, width=bad)


def test_freeze_group_holds_the_anchor_bit():
    stats = synthetic_stats()
    kc = KernelConfig(n_samples=100, freeze_group=True)
    nb = sample_neighborhood(np.array([1.0, 2.0, 5.5]), stats, oracle(),
                             kc, seed=0)
    assert np.all(nb.groups == 1.0)


def test_two_group_sampler_pairs_with_plain_sampler():
    stats = synthetic_stats()
    kc = KernelConfig(n_samples=200)
    x = np.array([1.0, 2.0, 5.5])
    plain = sample_neighborhood(x, stats, oracle(), kc, seed=4)
    assert plain.has_both_groups()
    paired = sample_two_group_neighborhood(x, stats, oracle(), kc, seed=4)
    assert np.array_equal(plain.samples, paired.samples)


def test_two_group_sampler_exhausts_attempts():
    stats = synthetic_stats()
    kc = KernelConfig(n_samples=100, freeze_group=True)
    with pytest.raises(DataError, match="all 5 attempts"):
        sample_two_group_neighborhood(np.array([1.0, 2.0, 5.5]), stats,
                                      oracle(), kc, seed=0)


def test_neighborhood_validation():
    samples = np.array([[0.0, 5.0], [1.0, 6.0]])
    scores = np.array([0.2, 0.8])
    with pytest.raises(DataError, match="positive"):
        hand_neighborhood(samples, scores, weights=[1.0, 0.0])
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        hand_neighborhood(samples, np.array([0.2, 1.8]))
    with pytest.raises(DataError, match="thresholded"):
        Neighborhood(
            center=samples[0], samples=samples, feature_names=("g", "x"),
            distances=np.zeros(2), weights=np.ones(2), f_scores=scores,
            f_preds=np.array([1.0, 0.0]), group_col=0, kernel_width=1.0,
        )


def test_neighborhood_rejects_non_finite_scores():
    samples = np.array([[0.0, 5.0], [1.0, 6.0], [1.0, 7.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="finite"):
            hand_neighborhood(samples, np.array([0.2, bad, 0.8]))


@pytest.mark.parametrize("name", ["center", "samples", "distances", "weights"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_neighborhood_rejects_non_finite_inputs(name, bad):
    fields = dict(center=np.array([0.0, 5.0]),
                  samples=np.array([[0.0, 5.0], [1.0, 6.0], [1.0, 7.0]]),
                  distances=np.zeros(3), weights=np.ones(3))
    fields[name] = fields[name].copy()
    fields[name].flat[1] = bad
    scores = np.array([0.2, 0.6, 0.8])
    with pytest.raises(DataError, match=f"{name} must be finite; 1 of "
                                        f"{fields[name].size}"):
        Neighborhood(feature_names=("g", "x"), f_scores=scores,
                     f_preds=(scores >= 0.5).astype(float), group_col=0,
                     kernel_width=1.0, **fields)


@pytest.mark.parametrize("lambda2", [0.0, 5.0])
def test_nan_black_box_score_fails_at_sampling(lambda2):
    f = OneNaNScore(oracle())
    x = np.array([1.0, 2.0, 5.5])
    with pytest.raises(DataError, match="1 of 200"):
        fair_lime_explain(f, x, synthetic_stats(), KernelConfig(n_samples=200),
                          ExplainConfig(), FairConfig(lambda2=lambda2), seed=0)


def test_neighborhood_groups_requires_group_col():
    nb = hand_neighborhood(np.array([[0.0, 5.0], [1.0, 6.0]]),
                           np.array([0.2, 0.8]), group_col=None)
    with pytest.raises(DataError, match="group column"):
        nb.groups
    assert not nb.has_both_groups()


def test_flip_group_hand_case():
    x = np.array([0.0, 1.2, 5.5])
    flipped = flip_group(x, 0)
    assert np.array_equal(flipped, [1.0, 1.2, 5.5])
    assert x[0] == 0.0


def test_flip_group_rejects_non_binary():
    with pytest.raises(DataError, match="not 0 or 1"):
        flip_group(np.array([0.3, 1.0]), 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2), st.integers(0, 1),
       st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3))
def test_flip_group_involution(col, bit, values):
    x = np.asarray(values, dtype=float)
    x[col] = float(bit)
    once = flip_group(x, col)
    assert once[col] == 1.0 - x[col]
    twice = flip_group(once, col)
    assert np.array_equal(twice, x)
    mask = np.arange(3) != col
    assert np.array_equal(once[mask], x[mask])


def test_oracle_disagreement_region_is_the_boundary_gap():
    f = oracle()
    for x1 in np.concatenate([np.arange(4.0, 7.01, 0.05),
                              [5.0, np.nextafter(5.0, 6.0), 6.0,
                               np.nextafter(6.0, 7.0)]]):
        x = np.array([1.0, 0.0, float(x1)])
        disagree = (f.predict(x[None, :])[0]
                    != f.predict(flip_group(x, 0)[None, :])[0])
        assert disagree == (5.0 < x1 <= 6.0)
