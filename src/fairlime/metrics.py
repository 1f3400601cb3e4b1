"""Group fairness metrics and explainer audits.

All metrics are signed gaps between the group coded 1 and the group
coded 0, except equalized odds, whose scalar value is the larger of its
two gap magnitudes (both gaps are reported alongside). A metric whose
conditioning population is empty raises MetricUndefinedError instead of
pretending the gap is zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, MetricUndefinedError
from .neighborhood import flip_group

DEMOGRAPHIC_PARITY = "demographic_parity"
EQUALIZED_ODDS = "equalized_odds"
EQUAL_OPPORTUNITY = "equal_opportunity"
PREDICTIVE_PARITY = "predictive_parity"

METRIC_NAMES = (
    DEMOGRAPHIC_PARITY,
    EQUALIZED_ODDS,
    EQUAL_OPPORTUNITY,
    PREDICTIVE_PARITY,
)

SIDE_BLACKBOX = "blackbox"
SIDE_SURROGATE = "surrogate"


def _as_binary(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise DataError(f"{name} must contain only 0 and 1")
    return arr


def _conditional_rate(values: np.ndarray, mask: np.ndarray, *, metric: str,
                      population: str, counts: dict, side: str | None) -> float:
    n = int(mask.sum())
    counts[population] = n
    if n == 0:
        raise MetricUndefinedError(
            f"{metric} is undefined: no samples with {population}"
            + (f" on the {side} side" if side else ""),
            metric=metric,
            group_counts=dict(counts),
            side=side,
        )
    return float(values[mask].mean())


def demographic_parity(preds, groups, *, side: str | None = None) -> float:
    """P(prediction = 1 | group 1) - P(prediction = 1 | group 0)."""
    return evaluate_metric(DEMOGRAPHIC_PARITY, preds, groups, side=side).value


@dataclass(frozen=True)
class MetricResult:
    """A named fairness reading with its per-group ingredients.

    ``value`` is the signed gap (group 1 minus group 0) for every metric
    except equalized odds, where it is max(|tpr gap|, |fpr gap|).
    """

    name: str
    value: float
    details: dict

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "details": dict(self.details)}


def _check_supervised(preds, groups, labels):
    preds = _as_binary("preds", preds)
    groups = _as_binary("groups", groups)
    labels = _as_binary("labels", labels)
    if not preds.shape == groups.shape == labels.shape:
        raise DataError("preds, groups, and labels must have the same length")
    return preds, groups, labels


def evaluate_metric(kind: str, preds, groups, labels=None, *,
                    side: str | None = None) -> MetricResult:
    """Compute one metric by name, with per-group rates in ``details``.

    ``labels`` (ground truth) is required for every metric except
    demographic parity.
    """
    if kind not in METRIC_NAMES:
        raise DataError(f"unknown metric {kind!r}; choose from {', '.join(METRIC_NAMES)}")
    if kind == DEMOGRAPHIC_PARITY:
        preds = _as_binary("preds", preds)
        groups = _as_binary("groups", groups)
        if preds.shape != groups.shape:
            raise DataError("preds and groups must have the same length")
        counts: dict = {}
        r1 = _conditional_rate(preds, groups == 1.0, metric=kind,
                               population="group 1", counts=counts, side=side)
        r0 = _conditional_rate(preds, groups == 0.0, metric=kind,
                               population="group 0", counts=counts, side=side)
        return MetricResult(kind, r1 - r0, {"rate_group1": r1, "rate_group0": r0})
    if labels is None:
        raise DataError(f"{kind} requires ground-truth labels")
    preds, groups, labels = _check_supervised(preds, groups, labels)
    counts = {}
    if kind == PREDICTIVE_PARITY:
        p1 = _conditional_rate(labels, (groups == 1.0) & (preds == 1.0),
                               metric=kind, population="group 1 with prediction 1",
                               counts=counts, side=side)
        p0 = _conditional_rate(labels, (groups == 0.0) & (preds == 1.0),
                               metric=kind, population="group 0 with prediction 1",
                               counts=counts, side=side)
        return MetricResult(kind, p1 - p0, {"ppv_group1": p1, "ppv_group0": p0})
    t1 = _conditional_rate(preds, (groups == 1.0) & (labels == 1.0),
                           metric=kind, population="group 1 with label 1",
                           counts=counts, side=side)
    t0 = _conditional_rate(preds, (groups == 0.0) & (labels == 1.0),
                           metric=kind, population="group 0 with label 1",
                           counts=counts, side=side)
    if kind == EQUAL_OPPORTUNITY:
        return MetricResult(kind, t1 - t0, {"tpr_group1": t1, "tpr_group0": t0})
    # Equalized odds: the FPR gap must be defined too.
    f1 = _conditional_rate(preds, (groups == 1.0) & (labels == 0.0),
                           metric=kind, population="group 1 with label 0",
                           counts=counts, side=side)
    f0 = _conditional_rate(preds, (groups == 0.0) & (labels == 0.0),
                           metric=kind, population="group 0 with label 0",
                           counts=counts, side=side)
    tpr_gap, fpr_gap = t1 - t0, f1 - f0
    return MetricResult(
        EQUALIZED_ODDS,
        max(abs(tpr_gap), abs(fpr_gap)),
        {"tpr_gap": tpr_gap, "fpr_gap": fpr_gap,
         "tpr_group1": t1, "tpr_group0": t0,
         "fpr_group1": f1, "fpr_group0": f0},
    )


@dataclass(frozen=True)
class MismatchReport:
    """One metric read through both routes, plus their disagreement.

    ``preserved`` uses the inclusive comparison mismatch <= epsilon.
    """

    metric: str
    m_blackbox: float
    m_surrogate: float
    mismatch: float
    epsilon: float
    preserved: bool
    details_blackbox: dict
    details_surrogate: dict

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "m_blackbox": self.m_blackbox,
            "m_surrogate": self.m_surrogate,
            "mismatch": self.mismatch,
            "epsilon": self.epsilon,
            "preserved": self.preserved,
            "details_blackbox": dict(self.details_blackbox),
            "details_surrogate": dict(self.details_surrogate),
        }


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon < np.inf:
        raise DataError("epsilon must be finite and nonnegative")


def fairness_mismatch(kind: str, f_preds, e_preds, groups, labels=None,
                      epsilon: float = 0.05) -> MismatchReport:
    """|M(black box) - M(surrogate)| on whatever population the caller
    passes: neighborhood samples for local audits, a labeled test set
    for global ones.

    A MetricUndefinedError from either side propagates with its ``side``
    attribute set, never masked as zero.
    """
    _check_epsilon(epsilon)
    bb = evaluate_metric(kind, f_preds, groups, labels, side=SIDE_BLACKBOX)
    sur = evaluate_metric(kind, e_preds, groups, labels, side=SIDE_SURROGATE)
    mismatch = abs(bb.value - sur.value)
    return MismatchReport(
        metric=kind,
        m_blackbox=bb.value,
        m_surrogate=sur.value,
        mismatch=mismatch,
        epsilon=epsilon,
        preserved=mismatch <= epsilon,
        details_blackbox=bb.details,
        details_surrogate=sur.details,
    )


@dataclass(frozen=True)
class CounterfactualReport:
    """How each route's score responds to toggling the group bit.

    Deltas are original minus flipped. No verdict is attached: the
    caller decides what counts as preserved via ``within``.
    """

    f_delta: float
    e_delta: float
    discrepancy: float

    def within(self, tolerance: float) -> bool:
        return self.discrepancy <= tolerance

    def as_dict(self) -> dict:
        return {
            "f_delta": self.f_delta,
            "e_delta": self.e_delta,
            "discrepancy": self.discrepancy,
        }


def counterfactual_check(f, explanation, x, group_col: int) -> CounterfactualReport:
    """Toggle the group bit of ``x`` and compare score responses of the
    black box and the surrogate fitted at ``x``."""
    x = np.asarray(x, dtype=float)
    pair = np.vstack([x, flip_group(x, group_col)])
    bb = np.asarray(f.score(pair), dtype=float)
    sur = explanation.predict_score(pair)
    f_delta = float(bb[0] - bb[1])
    e_delta = float(sur[0] - sur[1])
    return CounterfactualReport(
        f_delta=f_delta,
        e_delta=e_delta,
        discrepancy=abs(f_delta - e_delta),
    )


@dataclass(frozen=True)
class SensitiveImportanceReport:
    """The surrogate's weight on the sensitive attribute, verbatim.

    Descriptive only: a zero weight is not evidence the model ignores
    the attribute, since correlated features can carry its influence.
    """

    group_feature: str
    weight: float
    selected: bool
    note: str

    def as_dict(self) -> dict:
        return {
            "group_feature": self.group_feature,
            "weight": self.weight,
            "selected": self.selected,
            "note": self.note,
        }


ZERO_WEIGHT_NOTE = (
    "The surrogate puts zero weight on the sensitive attribute. This is "
    "not evidence of fairness: the black box can still depend on it "
    "through correlated features, so read a zero here with suspicion "
    "rather than relief. No verdict is implied either way."
)

NONZERO_WEIGHT_NOTE = (
    "The surrogate puts nonzero weight on the sensitive attribute. "
    "Whether that reflects the black box or sampling noise needs a "
    "mismatch or counterfactual audit. No verdict is implied either way."
)

EXCLUDED_NOTE = " The attribute was excluded by sparse feature selection."


def sensitive_importance(explanation, group_col: int) -> SensitiveImportanceReport:
    """Report the explanation's weight on the sensitive attribute."""
    coefs = explanation.coefficients
    if not 0 <= group_col < coefs.shape[0]:
        raise DataError(f"group_col {group_col} out of range")
    weight = float(coefs[group_col])
    selected = group_col in explanation.active
    note = ZERO_WEIGHT_NOTE if weight == 0.0 else NONZERO_WEIGHT_NOTE
    if not selected:
        note += EXCLUDED_NOTE
    return SensitiveImportanceReport(
        group_feature=explanation.feature_names[group_col],
        weight=weight,
        selected=selected,
        note=note,
    )
