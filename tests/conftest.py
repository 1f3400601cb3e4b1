"""Shared helpers for the test suite."""
import numpy as np

from fairlime import Explanation, Neighborhood


def hand_neighborhood(samples, f_scores, weights=None, group_col=0,
                      feature_names=None, width=1.0, seed=None):
    """Build a neighborhood directly from arrays, bypassing the sampler.

    Row 0 doubles as the center, matching the sampler's convention.
    Distances are left at zero; the fitting code only reads weights.
    """
    samples = np.asarray(samples, dtype=float)
    n, d = samples.shape
    f_scores = np.asarray(f_scores, dtype=float)
    if weights is None:
        weights = np.ones(n)
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(d))
    return Neighborhood(
        center=samples[0],
        samples=samples,
        feature_names=feature_names,
        distances=np.zeros(n),
        weights=np.asarray(weights, dtype=float),
        f_scores=f_scores,
        f_preds=(f_scores >= 0.5).astype(float),
        group_col=group_col,
        kernel_width=width,
        seed=seed,
    )


def hand_explanation(intercept, coefficients, center=None, active=None,
                     feature_names=None):
    """Build a bare explanation with the given linear part."""
    coefficients = np.asarray(coefficients, dtype=float)
    d = coefficients.shape[0]
    if center is None:
        center = np.zeros(d)
    if active is None:
        active = tuple(int(j) for j in np.nonzero(coefficients)[0])
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(d))
    return Explanation(
        feature_names=feature_names,
        center=center,
        active=active,
        intercept=float(intercept),
        coefficients=coefficients,
        lambda1=0.0,
        lambda2=0.0,
        n_samples=0,
        kernel_width=1.0,
        seed=None,
        loss=0.0,
        complexity=len(active),
        psi_hard=None,
        objective=0.0,
    )


class OneNaNScore:
    """A black box that returns NaN for one row of every batch of at
    least eight rows and ``inner``'s score for the rest."""

    def __init__(self, inner, row=7):
        self.inner = inner
        self.row = row

    def score(self, X):
        scores = np.array(self.inner.score(X), dtype=float)
        if scores.shape[0] > self.row:
            scores[self.row] = np.nan
        return scores

    def predict(self, X):
        return (self.score(X) >= 0.5).astype(float)
