"""Perturbation neighborhoods around a single instance.

Continuous features get Gaussian noise scaled by their sample std;
binary features (including the sensitive attribute) are resampled from
their empirical frequency, so the neighborhood's group mix mirrors the
population. Kernel weights decay exponentially in squared standardized
Euclidean distance, and the black box is scored on every sample at
construction time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import BINARY, STD_FLOOR, FeatureStats
from .errors import DataError

# Draws sample_two_group_neighborhood makes before it gives up.
_GROUP_ATTEMPTS = 5


@dataclass(frozen=True)
class KernelConfig:
    """Sampler knobs.

    ``width`` of None resolves to 0.75 * sqrt(n_features), a scale-free
    default for the exponential kernel. Distances are always Euclidean
    on std-standardized features. ``freeze_group`` holds the sensitive
    attribute at the anchor's value instead of resampling it.
    """

    n_samples: int = 1000
    width: float | None = None
    freeze_group: bool = False

    def __post_init__(self):
        if self.n_samples < 10:
            raise ValueError("n_samples must be at least 10")
        if self.width is not None and not 0.0 < self.width < np.inf:
            raise ValueError("width must be finite and positive")

    def resolve_width(self, n_features: int) -> float:
        if self.width is not None:
            return float(self.width)
        return 0.75 * float(np.sqrt(n_features))


@dataclass(frozen=True)
class Neighborhood:
    """Perturbed samples around ``center``; row 0 is the center itself.

    Carries the black box's scores and thresholded predictions on every
    sample, so downstream fits never re-query the model. ``weights`` are
    strictly positive (floored at the smallest normal float).
    """

    center: np.ndarray
    samples: np.ndarray
    feature_names: tuple[str, ...]
    distances: np.ndarray
    weights: np.ndarray
    f_scores: np.ndarray
    f_preds: np.ndarray
    group_col: int | None
    kernel_width: float
    seed: object = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("center", "samples", "distances", "weights",
                     "f_scores", "f_preds"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        n, d = self.samples.shape
        if self.center.shape != (d,):
            raise DataError("center width does not match samples")
        if len(self.feature_names) != d:
            raise DataError("feature name count does not match samples")
        for name in ("distances", "weights", "f_scores", "f_preds"):
            if getattr(self, name).shape != (n,):
                raise DataError(f"{name} length does not match sample count")
        for name in ("center", "samples", "distances", "weights", "f_scores"):
            arr = getattr(self, name)
            bad = arr.size - int(np.count_nonzero(np.isfinite(arr)))
            if bad:
                raise DataError(f"{name} must be finite; {bad} of {arr.size} "
                                f"values are not")
        if np.any(self.weights <= 0.0):
            raise DataError("sample weights must be strictly positive")
        if np.any((self.f_scores < 0.0) | (self.f_scores > 1.0)):
            raise DataError("black-box scores must lie in [0, 1]")
        if not np.array_equal(self.f_preds, (self.f_scores >= 0.5).astype(float)):
            raise DataError("predictions must be scores thresholded at 0.5")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]

    @property
    def groups(self) -> np.ndarray:
        if self.group_col is None:
            raise DataError("neighborhood has no designated group column")
        return self.samples[:, self.group_col]

    def has_both_groups(self) -> bool:
        if self.group_col is None:
            return False
        g = self.groups
        return bool(np.any(g == 1.0) and np.any(g == 0.0))


def kernel_weights(distances: np.ndarray, width: float) -> np.ndarray:
    """exp(-d^2 / width^2), floored to stay strictly positive."""
    w = np.exp(-np.square(distances) / (width * width))
    return np.maximum(w, np.finfo(float).tiny)


def sample_neighborhood(x, stats: FeatureStats, f, kc: KernelConfig,
                        seed) -> Neighborhood:
    """Draw a weighted perturbation neighborhood around ``x`` and score
    it with the black box ``f``.

    Deterministic for a fixed seed (an int or a tuple of ints). Columns
    are drawn in feature order: binary features are Bernoulli resamples
    of their empirical frequency, continuous features are the anchor
    value plus N(0, std^2) noise, with stds floored at 1e-6 so constant
    features neither crash nor dominate the standardized distances.
    """
    x = np.asarray(x, dtype=float)
    d = stats.n_features
    if x.shape != (d,):
        raise DataError(f"center point has shape {x.shape}, expected ({d},)")
    if not np.all(np.isfinite(x)):
        raise DataError("center point contains non-finite values")
    for j, kind in enumerate(stats.feature_kinds):
        if kind == BINARY and x[j] not in (0.0, 1.0):
            raise DataError(
                f"center value {x[j]} for binary feature "
                f"{stats.feature_names[j]!r} is not 0 or 1"
            )
    rng = np.random.default_rng(seed)
    n_drawn = kc.n_samples - 1
    cols = []
    for j, kind in enumerate(stats.feature_kinds):
        if kind == BINARY:
            if j == stats.group_col and kc.freeze_group:
                cols.append(np.full(n_drawn, x[j]))
            else:
                freq = stats.binary_freqs[j]
                cols.append((rng.random(n_drawn) < freq).astype(float))
        else:
            scale = max(stats.stds[j], STD_FLOOR)
            cols.append(x[j] + rng.normal(0.0, scale, n_drawn))
    samples = np.vstack([x, np.column_stack(cols)])
    scales = np.maximum(stats.stds, STD_FLOOR)
    z = (samples - x) / scales
    distances = np.sqrt(np.sum(z * z, axis=1))
    width = kc.resolve_width(d)
    scores = np.asarray(f.score(samples), dtype=float)
    return Neighborhood(
        center=x,
        samples=samples,
        feature_names=stats.feature_names,
        distances=distances,
        weights=kernel_weights(distances, width),
        f_scores=scores,
        f_preds=(scores >= 0.5).astype(float),
        group_col=stats.group_col,
        kernel_width=width,
        seed=seed,
    )


def sample_two_group_neighborhood(x, stats: FeatureStats, f, kc: KernelConfig,
                                  seed) -> Neighborhood:
    """Like sample_neighborhood, but guarantees both groups appear.

    Attempt 0 uses ``seed`` unchanged (so results pair exactly with a
    plain sample_neighborhood call); subsequent attempts prepend the
    attempt index to the seed. Raises DataError once all
    ``_GROUP_ATTEMPTS`` attempts missed a group.
    """
    if stats.group_col is None:
        raise DataError("feature statistics designate no group column")
    for attempt in range(_GROUP_ATTEMPTS):
        if attempt == 0:
            attempt_seed = seed
        elif isinstance(seed, tuple):
            attempt_seed = (attempt, *seed)
        else:
            attempt_seed = (attempt, seed)
        nb = sample_neighborhood(x, stats, f, kc, attempt_seed)
        if nb.has_both_groups():
            return nb
    raise DataError(
        f"neighborhood contained a single group in all {_GROUP_ATTEMPTS} attempts"
    )


def flip_group(x, group_col: int) -> np.ndarray:
    """The same point with its sensitive attribute toggled."""
    x = np.asarray(x, dtype=float)
    if x[group_col] not in (0.0, 1.0):
        raise DataError(f"group value {x[group_col]} is not 0 or 1")
    flipped = x.copy()
    flipped[group_col] = 1.0 - flipped[group_col]
    return flipped
