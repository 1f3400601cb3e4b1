"""Tabular datasets with a binary sensitive attribute.

Covers CSV ingestion and writing, the two-group synthetic scenario with
group-conditional decision boundaries, per-feature statistics for the
perturbation sampler, and seeded train/test splitting.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

CONTINUOUS = "continuous"
BINARY = "binary"

# Floor applied wherever a per-feature standard deviation is used as a
# scale, so constant columns perturb and standardize without dividing by 0.
STD_FLOOR = 1e-6

SYNTHETIC_FEATURE_NAMES = ("g", "x0", "x1")


def _infer_kinds(rows: np.ndarray) -> tuple[str, ...]:
    kinds = []
    for j in range(rows.shape[1]):
        col = rows[:, j]
        kinds.append(BINARY if np.all((col == 0.0) | (col == 1.0)) else CONTINUOUS)
    return tuple(kinds)


@dataclass(frozen=True)
class TabularDataset:
    """Numeric matrix plus column roles.

    ``rows`` holds every column, including the label when present.
    ``group_col`` and ``label_col`` index into that full matrix; the
    ``features`` view drops the label column, which is what models and
    explainers consume.
    """

    feature_names: tuple[str, ...]
    rows: np.ndarray
    group_col: int
    label_col: int | None = None
    feature_kinds: tuple[str, ...] = ()

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2:
            raise DataError(f"row matrix must be 2-D, got shape {rows.shape}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if len(self.feature_names) != rows.shape[1]:
            raise DataError(
                f"{len(self.feature_names)} feature names for "
                f"{rows.shape[1]} columns"
            )
        if not 0 <= self.group_col < rows.shape[1]:
            raise DataError(f"group_col {self.group_col} out of range")
        if self.label_col is not None:
            if not 0 <= self.label_col < rows.shape[1]:
                raise DataError(f"label_col {self.label_col} out of range")
            if self.label_col == self.group_col:
                raise DataError("group and label columns must differ")
        g = rows[:, self.group_col]
        if not np.all((g == 0.0) | (g == 1.0)):
            raise DataError("group column contains values outside {0, 1}")
        if self.label_col is not None:
            y = rows[:, self.label_col]
            if not np.all((y == 0.0) | (y == 1.0)):
                raise DataError("label column contains values outside {0, 1}")
        if not self.feature_kinds:
            object.__setattr__(self, "feature_kinds", _infer_kinds(rows))
        else:
            object.__setattr__(self, "feature_kinds", tuple(self.feature_kinds))
            if len(self.feature_kinds) != rows.shape[1]:
                raise DataError("feature_kinds length mismatch")
        rows.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.rows.shape[1]

    @property
    def feature_cols(self) -> tuple[int, ...]:
        """Indices of the model-input columns (everything but the label)."""
        return tuple(j for j in range(self.n_cols) if j != self.label_col)

    @property
    def features(self) -> np.ndarray:
        """Model-input matrix: all columns except the label."""
        if self.label_col is None:
            return self.rows
        return self.rows[:, list(self.feature_cols)]

    @property
    def labels(self) -> np.ndarray | None:
        if self.label_col is None:
            return None
        return self.rows[:, self.label_col]

    @property
    def groups(self) -> np.ndarray:
        return self.rows[:, self.group_col]

    @property
    def feature_group_col(self) -> int:
        """Index of the group column within the ``features`` view."""
        return self.feature_cols.index(self.group_col)

    def subset(self, indices) -> "TabularDataset":
        return TabularDataset(
            feature_names=self.feature_names,
            rows=self.rows[np.asarray(indices, dtype=int)].copy(),
            group_col=self.group_col,
            label_col=self.label_col,
            feature_kinds=self.feature_kinds,
        )


@dataclass(frozen=True)
class SyntheticConfig:
    """Two-group scenario with group-conditional decision boundaries.

    The minority group is coded 0 and owns ``boundary_minority`` (the
    harder threshold); the majority is coded 1 with ``boundary_majority``.
    x0 is drawn N(x0_group_shift * group, 1), so it correlates with group
    membership; x1 is uniform over [boundary_majority - 3,
    boundary_minority + 3] plus N(0, noise_std^2), which keeps both
    predicted classes populated on each side of both boundaries.
    """

    n_rows: int = 2000
    minority_fraction: float = 0.27
    boundary_majority: float = 5.0
    boundary_minority: float = 6.0
    x0_group_shift: float = 2.0
    noise_std: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.n_rows < 10:
            raise ValueError("n_rows must be at least 10")
        if not 0.0 < self.minority_fraction <= 0.5:
            raise ValueError("minority_fraction must lie in (0, 0.5]")
        if self.noise_std <= 0.0:
            raise ValueError("noise_std must be positive")
        if self.x1_low >= self.x1_high:
            raise ValueError("degenerate x1 range; boundaries too far apart")

    @property
    def x1_low(self) -> float:
        return self.boundary_majority - 3.0

    @property
    def x1_high(self) -> float:
        return self.boundary_minority + 3.0


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature sample statistics over the feature view of a dataset.

    Defines the perturbation distribution: continuous features get their
    sample mean/std, binary features their empirical frequency of 1.
    ``binary_freqs`` is NaN for continuous features.
    """

    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    binary_freqs: np.ndarray
    group_col: int | None

    def __post_init__(self):
        for name in ("means", "stds", "binary_freqs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.stds < 0):
            raise ValueError("standard deviations must be nonnegative")

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def is_constant(self) -> np.ndarray:
        """Mask of constant features (zero sample std)."""
        return self.stds == 0.0


def load_csv(path, group_col_name: str, label_col_name: str | None = None) -> TabularDataset:
    """Parse a UTF-8, comma-separated, single-header-row numeric CSV.

    Raises DataError naming the offending row and column for non-numeric
    cells or out-of-range group values; FileNotFoundError for a missing
    file.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        if group_col_name not in header:
            raise DataError(
                f"{path}: group column {group_col_name!r} not found; "
                f"columns are {header}"
            )
        group_col = header.index(group_col_name)
        label_col = None
        if label_col_name is not None:
            if label_col_name not in header:
                raise DataError(
                    f"{path}: label column {label_col_name!r} not found; "
                    f"columns are {header}"
                )
            label_col = header.index(label_col_name)
        data = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {line_no} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            parsed = []
            for j, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell.strip()!r} at "
                        f"line {line_no}, column {header[j]!r}"
                    ) from None
            if parsed[group_col] not in (0.0, 1.0):
                raise DataError(
                    f"{path}: group value {parsed[group_col]} outside "
                    f"{{0, 1}} at line {line_no}"
                )
            data.append(parsed)
    if not data:
        raise DataError(f"{path}: no data rows")
    return TabularDataset(
        feature_names=tuple(header),
        rows=np.array(data, dtype=float),
        group_col=group_col,
        label_col=label_col,
    )


def write_csv(ds: TabularDataset, path) -> None:
    """Write the full matrix back out; round-trips exactly through repr.

    The body is joined by hand: a float's repr never needs CSV quoting,
    so the bytes are csv.writer's, at a fraction of its cost per cell.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(ds.feature_names)
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in ds.rows.tolist())


def generate_synthetic(cfg: SyntheticConfig) -> TabularDataset:
    """Sample the two-group scenario; deterministic for a fixed seed.

    Columns are (g, x0, x1) with no label column: ground truth comes
    from the threshold oracle, not the dataset.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_rows
    group = (rng.random(n) >= cfg.minority_fraction).astype(float)
    x0 = rng.normal(0.0, 1.0, n) + cfg.x0_group_shift * group
    x1 = rng.uniform(cfg.x1_low, cfg.x1_high, n) + rng.normal(0.0, cfg.noise_std, n)
    return TabularDataset(
        feature_names=SYNTHETIC_FEATURE_NAMES,
        rows=np.column_stack([group, x0, x1]),
        group_col=0,
        label_col=None,
    )


def feature_stats(ds: TabularDataset) -> FeatureStats:
    """Sample statistics (ddof=1) over the feature view of the dataset."""
    if ds.n_rows < 2:
        raise DataError("feature statistics need at least 2 rows")
    X = ds.features
    kinds = tuple(ds.feature_kinds[j] for j in ds.feature_cols)
    names = tuple(ds.feature_names[j] for j in ds.feature_cols)
    means = X.mean(axis=0)
    stds = X.std(axis=0, ddof=1)
    freqs = np.array(
        [X[:, j].mean() if kinds[j] == BINARY else math.nan for j in range(X.shape[1])]
    )
    return FeatureStats(
        feature_names=names,
        feature_kinds=kinds,
        means=means,
        stds=stds,
        binary_freqs=freqs,
        group_col=ds.feature_group_col,
    )


def split(ds: TabularDataset, train_fraction: float, seed: int) -> tuple[TabularDataset, TabularDataset]:
    """Disjoint row partition, deterministic per seed.

    The train split gets floor(train_fraction * n_rows) rows of a seeded
    permutation; the remainder goes to the second split.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly in (0, 1)")
    n = ds.n_rows
    n_train = int(math.floor(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise DataError(
            f"train_fraction {train_fraction} yields an empty split for {n} rows"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])
