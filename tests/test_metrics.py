"""Group fairness metrics, mismatch audits, and counterfactual checks."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlime import (DataError, ExplainConfig, KernelConfig, LogisticModel,
                      MetricUndefinedError, SyntheticConfig, ThresholdOracle,
                      counterfactual_check, demographic_parity,
                      evaluate_metric, fairness_mismatch, feature_stats,
                      flip_group, generate_synthetic, lime_explain,
                      sensitive_importance)
from fairlime.metrics import (DEMOGRAPHIC_PARITY, EQUAL_OPPORTUNITY,
                              EQUALIZED_ODDS, METRIC_NAMES, PREDICTIVE_PARITY,
                              SIDE_SURROGATE)

from conftest import hand_explanation


def test_dp_hand_case():
    value = demographic_parity([1, 0, 1, 1], [1, 1, 0, 0])
    assert value == -0.5


def test_dp_identical_rates():
    assert demographic_parity([1, 1, 1, 1], [1, 0, 1, 0]) == 0.0


def test_dp_single_group_errors_with_counts():
    with pytest.raises(MetricUndefinedError) as info:
        demographic_parity([1, 0, 1], [1, 1, 1])
    assert info.value.metric == DEMOGRAPHIC_PARITY
    assert info.value.group_counts == {"group 1": 3, "group 0": 0}
    assert isinstance(info.value, ValueError)


def test_dp_shape_validation():
    with pytest.raises(DataError, match="same length"):
        demographic_parity([1, 0], [1, 0, 1])
    with pytest.raises(DataError, match="only 0 and 1"):
        demographic_parity([0.5, 1.0], [0, 1])


def binary_vectors(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30).flatmap(
    lambda n: st.tuples(binary_vectors(n), binary_vectors(n),
                        st.permutations(range(n)))))
def test_dp_range_antisymmetry_permutation(data):
    preds, groups, perm = (np.array(data[0], dtype=float),
                           np.array(data[1], dtype=float),
                           list(data[2]))
    if groups.min() == groups.max():
        with pytest.raises(MetricUndefinedError):
            demographic_parity(preds, groups)
        return
    value = demographic_parity(preds, groups)
    assert -1.0 <= value <= 1.0
    assert demographic_parity(preds, 1.0 - groups) == -value
    assert demographic_parity(preds[perm], groups[perm]) == value


def test_equal_opportunity_perfect_classifier():
    labels = np.array([1, 0, 1, 0, 1, 0], dtype=float)
    groups = np.array([1, 1, 1, 0, 0, 0], dtype=float)
    assert evaluate_metric(EQUAL_OPPORTUNITY, labels, groups, labels).value == 0.0


def test_equal_opportunity_hand_case():
    value = evaluate_metric(EQUAL_OPPORTUNITY, [1, 1, 0, 0], [1, 1, 0, 0],
                            [1, 0, 1, 0]).value
    assert value == 1.0


def test_equal_opportunity_undefined_conditional():
    with pytest.raises(MetricUndefinedError) as info:
        evaluate_metric(EQUAL_OPPORTUNITY, [1, 0, 1, 0], [1, 1, 0, 0],
                        [1, 0, 0, 0])
    assert info.value.group_counts["group 0 with label 1"] == 0


def test_equalized_odds_hand_case():
    result = evaluate_metric(EQUALIZED_ODDS, [1, 1, 0, 0], [1, 1, 0, 0],
                             [1, 0, 1, 0])
    assert result.value == 1.0
    assert result.details["tpr_gap"] == 1.0
    assert result.details["fpr_gap"] == 1.0


def test_equalized_odds_takes_the_larger_gap():
    # TPR gap 0, FPR gap 1: group 1 false-positives everywhere.
    preds = np.array([1, 1, 1, 0], dtype=float)
    labels = np.array([1, 0, 1, 0], dtype=float)
    groups = np.array([1, 1, 0, 0], dtype=float)
    result = evaluate_metric(EQUALIZED_ODDS, preds, groups, labels)
    assert result.details["tpr_gap"] == 0.0
    assert result.details["fpr_gap"] == 1.0
    assert result.value == 1.0


def test_predictive_parity_hand_case():
    value = evaluate_metric(PREDICTIVE_PARITY, [1, 1, 1, 0], [1, 1, 0, 0],
                            [1, 0, 1, 1]).value
    assert value == -0.5


def test_evaluate_metric_validation():
    with pytest.raises(DataError, match="unknown metric"):
        evaluate_metric("parity", [1], [1])
    with pytest.raises(DataError, match="labels"):
        evaluate_metric(EQUAL_OPPORTUNITY, [1, 0], [1, 0])


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 30).flatmap(
    lambda n: st.tuples(binary_vectors(n), binary_vectors(n),
                        binary_vectors(n), st.permutations(range(n)))))
def test_all_metrics_invariant_under_joint_permutation(data):
    preds, groups, labels, perm = (np.array(data[0], dtype=float),
                                   np.array(data[1], dtype=float),
                                   np.array(data[2], dtype=float),
                                   list(data[3]))
    for kind in METRIC_NAMES:
        try:
            value = evaluate_metric(kind, preds, groups, labels).value
        except MetricUndefinedError:
            continue
        assert evaluate_metric(kind, preds[perm], groups[perm],
                               labels[perm]).value == value


def test_mismatch_identity_is_zero_for_every_metric():
    preds = np.array([1, 0, 1, 0, 1, 0, 0, 1], dtype=float)
    groups = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
    labels = np.array([1, 0, 0, 1, 1, 0, 1, 0], dtype=float)
    for kind in METRIC_NAMES:
        report = fairness_mismatch(kind, preds, preds, groups, labels)
        assert report.mismatch == 0.0
        assert report.preserved


def test_mismatch_hand_case_and_inclusive_epsilon():
    report = fairness_mismatch(DEMOGRAPHIC_PARITY, [1, 0, 1, 1], [1, 1, 1, 1],
                               [1, 1, 0, 0], epsilon=0.5)
    assert report.m_blackbox == -0.5
    assert report.m_surrogate == 0.0
    assert report.mismatch == 0.5
    assert report.preserved
    tighter = fairness_mismatch(DEMOGRAPHIC_PARITY, [1, 0, 1, 1],
                                [1, 1, 1, 1], [1, 1, 0, 0], epsilon=0.49)
    assert not tighter.preserved


def test_mismatch_rejects_negative_epsilon():
    with pytest.raises(DataError, match="nonnegative"):
        fairness_mismatch(DEMOGRAPHIC_PARITY, [1, 0], [1, 0], [1, 0],
                          epsilon=-0.1)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_mismatch_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(DataError, match="finite"):
        fairness_mismatch(DEMOGRAPHIC_PARITY, [1, 0], [1, 0], [1, 0],
                          epsilon=epsilon)


def test_mismatch_tags_the_failing_side():
    preds = np.array([1, 0, 1, 0], dtype=float)
    groups = np.array([1, 1, 0, 0], dtype=float)
    labels = np.array([1, 0, 1, 0], dtype=float)
    with pytest.raises(MetricUndefinedError) as info:
        fairness_mismatch(PREDICTIVE_PARITY, preds, np.zeros(4), groups,
                          labels)
    assert info.value.side == SIDE_SURROGATE


def test_mismatch_report_serializes():
    report = fairness_mismatch(DEMOGRAPHIC_PARITY, [1, 0, 1, 1], [1, 1, 1, 1],
                               [1, 1, 0, 0])
    doc = report.as_dict()
    assert doc["metric"] == DEMOGRAPHIC_PARITY
    assert json.dumps(doc)


def test_counterfactual_insensitive_model():
    f = LogisticModel(np.array([0.0, 0.4, -0.2]), 0.1)
    e = hand_explanation(0.3, np.array([0.0, 0.1, 0.05]))
    report = counterfactual_check(f, e, np.array([1.0, 0.5, 2.0]), 0)
    assert report.f_delta == 0.0
    assert report.e_delta == 0.0
    assert report.discrepancy == 0.0
    assert report.within(0.0)


def test_counterfactual_oracle_boundary_gap():
    f = ThresholdOracle(boundary_majority=5.0, boundary_minority=6.0,
                        group_col=0, x1_col=2)
    e = hand_explanation(0.1, np.array([0.2, 0.0, 0.05]))
    x = np.array([1.0, 0.0, 5.5])
    report = counterfactual_check(f, e, x, 0)
    assert report.f_delta == 1.0
    assert math.isclose(report.e_delta, 0.2, rel_tol=1e-12)
    assert math.isclose(report.discrepancy, 0.8, rel_tol=1e-12)


def test_counterfactual_swap_negates_deltas():
    f = ThresholdOracle()
    e = hand_explanation(0.1, np.array([0.2, -0.1, 0.05]))
    x = np.array([1.0, 0.7, 5.5])
    a = counterfactual_check(f, e, x, 0)
    b = counterfactual_check(f, e, flip_group(x, 0), 0)
    assert b.f_delta == -a.f_delta
    assert b.e_delta == -a.e_delta
    assert b.discrepancy == a.discrepancy


def test_counterfactual_linear_recovery_has_no_discrepancy():
    class BoundedLinear:
        """Linear scorer staying inside [0, 1] on the sampled region."""

        def score(self, X):
            X = np.asarray(X, dtype=float)
            return 0.4 + X @ np.array([0.1, 0.02, 0.03])

        def predict(self, X):
            return (self.score(X) >= 0.5).astype(float)

    ds = generate_synthetic(SyntheticConfig(n_rows=2000, seed=0))
    stats = feature_stats(ds)
    f = BoundedLinear()
    x = np.array([1.0, 2.0, 5.5])
    e = lime_explain(f, x, stats, KernelConfig(n_samples=500),
                     ExplainConfig(), seed=2)
    report = counterfactual_check(f, e, x, 0)
    assert report.discrepancy < 1e-6


def test_sensitive_importance_zero_weight_advisory():
    e = hand_explanation(0.3, np.array([0.0, 0.1]), active=(0, 1),
                         feature_names=("g", "x0"))
    report = sensitive_importance(e, 0)
    assert report.weight == 0.0
    assert report.selected
    assert report.group_feature == "g"
    assert "not evidence" in report.note
    assert "excluded" not in report.note


def test_sensitive_importance_verbatim_weight():
    e = hand_explanation(0.3, np.array([-0.3, 0.1]),
                         feature_names=("g", "x0"))
    assert sensitive_importance(e, 0).weight == -0.3


def test_sensitive_importance_excluded_by_selection():
    e = hand_explanation(0.3, np.array([0.0, 0.1]), active=(1,),
                         feature_names=("g", "x0"))
    report = sensitive_importance(e, 0)
    assert not report.selected
    assert report.note.endswith("excluded by sparse feature selection.")
    assert json.dumps(report.as_dict())


def test_sensitive_importance_validates_column():
    e = hand_explanation(0.3, np.array([0.0, 0.1]))
    with pytest.raises(DataError, match="out of range"):
        sensitive_importance(e, 7)
