"""Black-box classifiers behind one scoring interface.

Three variants: a group-conditional threshold oracle, a logistic model,
and a three-layer MLP. Each exposes ``score`` (values in [0, 1]) and
``predict`` (1 exactly when the score is >= 0.5), which is the whole
surface the explainer and the audits rely on. Models serialize to a
plain-text key-value format whose floats round-trip exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .datasets import TabularDataset
from .errors import DataError, ModelFormatError

MODEL_FORMAT = "fairlime-model"
MODEL_FORMAT_VERSION = 1

VARIANT_ORACLE = "oracle"
VARIANT_LOGISTIC = "logistic"
VARIANT_MLP3 = "mlp3"


def _check_inputs(X: np.ndarray, n_features: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError(f"expected a 2-D input matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError("input matrix contains non-finite values")
    if n_features is not None and X.shape[1] != n_features:
        raise DataError(
            f"input has {X.shape[1]} columns, model expects {n_features}"
        )
    return X


def accuracy(predicted: np.ndarray, actual: np.ndarray) -> float:
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise DataError("prediction and label vectors must match and be nonempty")
    return float(np.mean(predicted == actual))


class ThresholdOracle:
    """Scores 1 exactly where x1 strictly exceeds its group's threshold.

    The minority group (coded 0) gets ``boundary_minority``, the majority
    (coded 1) gets ``boundary_majority``; scores are hard 0/1, so score
    and predict coincide. Column indices refer to the model-input matrix;
    a negative one is rejected here, one past the input's width at
    scoring.
    """

    variant = VARIANT_ORACLE

    def __init__(self, boundary_majority=5.0, boundary_minority=6.0,
                 group_col=0, x1_col=2):
        if group_col < 0 or x1_col < 0:
            raise DataError(f"oracle columns must be nonnegative, got group "
                            f"column {group_col} and x1 column {x1_col}")
        if group_col == x1_col:
            raise DataError("group and x1 columns must differ")
        self.boundary_majority = float(boundary_majority)
        self.boundary_minority = float(boundary_minority)
        self.group_col = int(group_col)
        self.x1_col = int(x1_col)

    def boundaries(self, groups: np.ndarray) -> np.ndarray:
        return np.where(
            np.asarray(groups, dtype=float) == 1.0,
            self.boundary_majority,
            self.boundary_minority,
        )

    def score(self, X: np.ndarray) -> np.ndarray:
        X = _check_inputs(X)
        for name, col in (("group", self.group_col), ("x1", self.x1_col)):
            if col >= X.shape[1]:
                raise DataError(f"oracle {name} column {col} is out of range "
                                f"for an input with {X.shape[1]} columns")
        g = X[:, self.group_col]
        if not np.all((g == 0.0) | (g == 1.0)):
            raise DataError("group column contains values outside {0, 1}")
        return (X[:, self.x1_col] > self.boundaries(g)).astype(float)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.score(X) >= 0.5).astype(float)


class LogisticModel:
    """Plain logistic scorer: sigmoid(w . x + b)."""

    variant = VARIANT_LOGISTIC

    def __init__(self, weights, intercept):
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1:
            raise ModelFormatError("logistic weights must be a vector")
        self.intercept = float(intercept)

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def score(self, X: np.ndarray) -> np.ndarray:
        X = _check_inputs(X, self.n_features)
        return expit(X @ self.weights + self.intercept)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.score(X) >= 0.5).astype(float)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for MLP training.

    ``epochs`` may be 0, which returns the freshly initialized network
    untouched; every other field must be strictly positive. Full-batch
    runs (batch_size >= n_rows) are empirically loss-monotone at the
    default learning rate on unit-scale features.
    """

    epochs: int = 50
    learning_rate: float = 0.05
    batch_size: int = 32
    hidden_widths: tuple[int, int] = (16, 8)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths",
                           tuple(int(h) for h in self.hidden_widths))
        if len(self.hidden_widths) != 2 or min(self.hidden_widths) < 1:
            raise ValueError("hidden_widths must be two positive integers")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


class MLP:
    """Three-layer network: two ReLU hidden layers, sigmoid output.

    Parameters are three weight matrices (d x h1, h1 x h2, h2 stored as
    a vector) and per-layer biases. Trained by mini-batch SGD on mean
    binary cross-entropy; ``loss_history`` records the full-data loss
    after each epoch.
    """

    variant = VARIANT_MLP3

    def __init__(self, w1, b1, w2, b2, w3, b3, loss_history=()):
        self.w1 = np.asarray(w1, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        self.b2 = np.asarray(b2, dtype=float)
        self.w3 = np.asarray(w3, dtype=float)
        self.b3 = float(b3)
        self.loss_history = list(loss_history)
        if self.w1.ndim != 2 or self.w2.ndim != 2 or self.w3.ndim != 1:
            raise ModelFormatError("malformed layer shapes")
        h1 = self.w1.shape[1]
        h2 = self.w2.shape[1]
        if self.w2.shape[0] != h1:
            raise ModelFormatError("layer width mismatch between w1 and w2")
        if self.b1.shape != (h1,) or self.b2.shape != (h2,) or self.w3.shape != (h2,):
            raise ModelFormatError("bias or output layer shape mismatch")

    @classmethod
    def initialize(cls, n_features: int, hidden_widths, rng: np.random.Generator) -> "MLP":
        """He-scaled Gaussian weights, zero biases."""
        h1, h2 = hidden_widths
        w1 = rng.normal(0.0, np.sqrt(2.0 / n_features), (n_features, h1))
        w2 = rng.normal(0.0, np.sqrt(2.0 / h1), (h1, h2))
        w3 = rng.normal(0.0, np.sqrt(2.0 / h2), h2)
        return cls(w1, np.zeros(h1), w2, np.zeros(h2), w3, 0.0)

    @property
    def n_features(self) -> int:
        return self.w1.shape[0]

    def _forward(self, X):
        z1 = X @ self.w1 + self.b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ self.w2 + self.b2
        a2 = np.maximum(z2, 0.0)
        z3 = a2 @ self.w3 + self.b3
        return z1, a1, z2, a2, z3

    def score(self, X: np.ndarray) -> np.ndarray:
        X = _check_inputs(X, self.n_features)
        return expit(self._forward(X)[4])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.score(X) >= 0.5).astype(float)

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean binary cross-entropy, computed from logits for stability."""
        X = _check_inputs(X, self.n_features)
        y = np.asarray(y, dtype=float)
        z = self._forward(X)[4]
        # BCE = y * softplus(-z) + (1 - y) * softplus(z)
        return float(np.mean(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)))

    def gradient(self, X: np.ndarray, y: np.ndarray):
        """Backprop gradient of the mean BCE w.r.t. every parameter.

        Returns (gw1, gb1, gw2, gb2, gw3, gb3) matching the parameter
        shapes. ReLU takes subgradient 0 at its kink.
        """
        X = _check_inputs(X, self.n_features)
        y = np.asarray(y, dtype=float)
        if X.shape[0] == 0:
            raise DataError("gradient needs a nonempty batch")
        n = X.shape[0]
        z1, a1, z2, a2, z3 = self._forward(X)
        dz3 = (expit(z3) - y) / n
        gw3 = a2.T @ dz3
        gb3 = float(dz3.sum())
        dz2 = np.outer(dz3, self.w3) * (z2 > 0.0)
        gw2 = a1.T @ dz2
        gb2 = dz2.sum(axis=0)
        dz1 = (dz2 @ self.w2.T) * (z1 > 0.0)
        gw1 = X.T @ dz1
        gb1 = dz1.sum(axis=0)
        return gw1, gb1, gw2, gb2, gw3, gb3

    # Flat parameter views, used by the finite-difference check.

    def flat_params(self) -> np.ndarray:
        return np.concatenate([
            self.w1.ravel(), self.b1, self.w2.ravel(), self.b2,
            self.w3, [self.b3],
        ])

    def set_flat_params(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        shapes = [self.w1.shape, self.b1.shape, self.w2.shape,
                  self.b2.shape, self.w3.shape]
        sizes = [int(np.prod(s)) for s in shapes] + [1]
        if vec.shape != (sum(sizes),):
            raise ModelFormatError(
                f"parameter vector has {vec.size} entries, expected {sum(sizes)}"
            )
        pieces = np.split(vec, np.cumsum(sizes)[:-1])
        self.w1 = pieces[0].reshape(shapes[0])
        self.b1 = pieces[1].copy()
        self.w2 = pieces[2].reshape(shapes[2])
        self.b2 = pieces[3].copy()
        self.w3 = pieces[4].copy()
        self.b3 = float(pieces[5][0])

    def flat_gradient(self, X, y) -> np.ndarray:
        gw1, gb1, gw2, gb2, gw3, gb3 = self.gradient(X, y)
        return np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2, gw3, [gb3]])


def finite_difference_gradient(model: MLP, X, y, step: float = 1e-5) -> np.ndarray:
    """Central-difference loss gradient, one coordinate at a time."""
    base = model.flat_params()
    out = np.empty_like(base)
    for i in range(base.size):
        probe = base.copy()
        probe[i] = base[i] + step
        model.set_flat_params(probe)
        up = model.loss(X, y)
        probe[i] = base[i] - step
        model.set_flat_params(probe)
        down = model.loss(X, y)
        out[i] = (up - down) / (2.0 * step)
    model.set_flat_params(base)
    return out


def gradient_check(model: MLP, X, y, step: float = 1e-5) -> float:
    """Worst-case relative disagreement between backprop and central
    differences, with a small absolute floor so zero entries compare
    sanely."""
    analytic = model.flat_gradient(X, y)
    numeric = finite_difference_gradient(model, X, y, step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def train_mlp(ds: TabularDataset, cfg: TrainConfig) -> MLP:
    """Mini-batch SGD on mean BCE over the dataset's labeled rows.

    Deterministic per config. One loss_history entry per completed
    epoch, measured on the full training set after that epoch's updates.
    """
    if ds.labels is None:
        raise DataError("training requires a dataset with a label column")
    X = ds.features
    y = ds.labels
    n_pos = int(np.sum(y == 1.0))
    if min(n_pos, len(y) - n_pos) < 2:
        raise DataError("training requires at least 2 rows of each class")
    rng = np.random.default_rng(cfg.seed)
    model = MLP.initialize(X.shape[1], cfg.hidden_widths, rng)
    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grads = model.gradient(X[idx], y[idx])
            model.w1 -= cfg.learning_rate * grads[0]
            model.b1 -= cfg.learning_rate * grads[1]
            model.w2 -= cfg.learning_rate * grads[2]
            model.b2 -= cfg.learning_rate * grads[3]
            model.w3 -= cfg.learning_rate * grads[4]
            model.b3 -= cfg.learning_rate * grads[5]
        epoch_loss = model.loss(X, y)
        if not np.isfinite(epoch_loss):
            raise DataError("training diverged to a non-finite loss")
        model.loss_history.append(epoch_loss)
    return model


def _format_array(arr: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(arr, dtype=float).ravel())


def _parse_array(text: str, size: int, key: str, path) -> np.ndarray:
    tokens = text.split()
    if len(tokens) != size:
        raise ModelFormatError(
            f"{path}: field {key!r} has {len(tokens)} values, expected {size}"
        )
    try:
        return np.array([float(t) for t in tokens])
    except ValueError:
        raise ModelFormatError(f"{path}: non-numeric value in field {key!r}") from None


def save_model(model, path) -> None:
    """Write any model variant as versioned plain-text key-value lines."""
    lines = [f"format: {MODEL_FORMAT}", f"format_version: {MODEL_FORMAT_VERSION}",
             f"variant: {model.variant}"]
    if model.variant == VARIANT_ORACLE:
        lines += [
            f"boundary_majority: {repr(model.boundary_majority)}",
            f"boundary_minority: {repr(model.boundary_minority)}",
            f"group_col: {model.group_col}",
            f"x1_col: {model.x1_col}",
        ]
    elif model.variant == VARIANT_LOGISTIC:
        lines += [
            f"n_features: {model.n_features}",
            f"weights: {_format_array(model.weights)}",
            f"intercept: {repr(model.intercept)}",
        ]
    elif model.variant == VARIANT_MLP3:
        d, h1 = model.w1.shape
        h2 = model.w2.shape[1]
        lines += [
            f"n_features: {d}", f"hidden1: {h1}", f"hidden2: {h2}",
            f"w1: {_format_array(model.w1)}", f"b1: {_format_array(model.b1)}",
            f"w2: {_format_array(model.w2)}", f"b2: {_format_array(model.b2)}",
            f"w3: {_format_array(model.w3)}", f"b3: {repr(model.b3)}",
        ]
    else:
        raise ModelFormatError(f"unknown model variant {model.variant!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _require(fields: dict, key: str, path) -> str:
    if key not in fields:
        raise ModelFormatError(f"{path}: missing field {key!r}")
    return fields[key]


def load_model(path, expected_variant: str | None = None):
    """Parse a model file, dispatching on its variant tag.

    Raises ModelFormatError for anything structurally wrong: bad header,
    unknown variant, missing fields, wrong counts, or a variant other
    than ``expected_variant`` when that is given.
    """
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if ": " not in line:
                raise ModelFormatError(f"{path}: line {line_no} is not 'key: value'")
            key, value = line.split(": ", 1)
            fields[key.strip()] = value
    if fields.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a recognized model file")
    if fields.get("format_version") != str(MODEL_FORMAT_VERSION):
        raise ModelFormatError(
            f"{path}: unsupported format version {fields.get('format_version')!r}"
        )
    variant = fields.get("variant")
    if variant not in (VARIANT_ORACLE, VARIANT_LOGISTIC, VARIANT_MLP3):
        raise ModelFormatError(f"{path}: unknown variant {variant!r}")
    if expected_variant is not None and variant != expected_variant:
        raise ModelFormatError(
            f"{path}: expected a {expected_variant!r} model, found {variant!r}"
        )
    try:
        if variant == VARIANT_ORACLE:
            return ThresholdOracle(
                boundary_majority=float(_require(fields, "boundary_majority", path)),
                boundary_minority=float(_require(fields, "boundary_minority", path)),
                group_col=int(_require(fields, "group_col", path)),
                x1_col=int(_require(fields, "x1_col", path)),
            )
        if variant == VARIANT_LOGISTIC:
            d = int(_require(fields, "n_features", path))
            if d < 1:
                raise ModelFormatError(f"{path}: nonpositive feature count")
            return LogisticModel(
                weights=_parse_array(_require(fields, "weights", path), d, "weights", path),
                intercept=float(_require(fields, "intercept", path)),
            )
        d = int(_require(fields, "n_features", path))
        h1 = int(_require(fields, "hidden1", path))
        h2 = int(_require(fields, "hidden2", path))
        if d < 1 or h1 < 1 or h2 < 1:
            raise ModelFormatError(f"{path}: nonpositive layer size")
        return MLP(
            w1=_parse_array(_require(fields, "w1", path), d * h1, "w1", path).reshape(d, h1),
            b1=_parse_array(_require(fields, "b1", path), h1, "b1", path),
            w2=_parse_array(_require(fields, "w2", path), h1 * h2, "w2", path).reshape(h1, h2),
            b2=_parse_array(_require(fields, "b2", path), h2, "b2", path),
            w3=_parse_array(_require(fields, "w3", path), h2, "w3", path),
            b3=float(_require(fields, "b3", path)),
        )
    except ValueError:
        raise ModelFormatError(f"{path}: malformed numeric field") from None
