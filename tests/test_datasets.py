"""Dataset ingestion, synthesis, statistics, and splitting."""
import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairlime import (DataError, SyntheticConfig, TabularDataset,
                      feature_stats, generate_synthetic, load_csv, split,
                      write_csv)

DATA_DIR = Path(__file__).parent / "data"

# Hand transcription of tests/data/compas_tiny.csv, kept in sync by eye.
COMPAS_TINY = np.array([
    [0, 0, 23, 1], [1, 1, 31, 0], [0, 2, 45, 1], [1, 0, 27, 0],
    [1, 3, 36, 0], [0, 5, 52, 1], [1, 1, 29, 0], [1, 0, 41, 0],
    [0, 2, 33, 1], [1, 4, 25, 1], [0, 6, 47, 0], [1, 1, 38, 0],
    [1, 0, 22, 1], [0, 3, 58, 0], [1, 2, 30, 0], [0, 7, 26, 1],
    [1, 1, 35, 0], [1, 2, 44, 1], [0, 0, 50, 0], [1, 4, 28, 1],
], dtype=float)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_four_rows(tmp_path):
    path = tmp_path / "four.csv"
    write_lines(path, ["g,x0,x1,y", "0,1.5,4.0,0", "0,2.5,6.0,1",
                       "1,0.5,5.0,0", "1,1.0,7.0,1"])
    ds = load_csv(path, "g", "y")
    assert ds.group_col == 0
    assert ds.label_col == 3
    assert ds.n_rows == 4
    assert int(np.sum(ds.groups == 0.0)) == 2
    assert int(np.sum(ds.groups == 1.0)) == 2
    assert ds.features.shape == (4, 3)
    assert np.array_equal(ds.labels, [0.0, 1.0, 0.0, 1.0])


def test_load_csv_without_label(tmp_path):
    path = tmp_path / "plain.csv"
    write_lines(path, ["g,x0", "0,1.0", "1,2.0"])
    ds = load_csv(path, "g")
    assert ds.label_col is None
    assert ds.labels is None
    assert ds.features.shape == (2, 2)


def test_load_csv_bad_group_value(tmp_path):
    path = tmp_path / "bad.csv"
    write_lines(path, ["g,x0", "0,1.0", "2,2.0"])
    with pytest.raises(DataError, match=r"line 3"):
        load_csv(path, "g")


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    write_lines(path, ["g,x0", "0,1.0", "1,oops"])
    with pytest.raises(DataError, match=r"'oops' at line 3, column 'x0'"):
        load_csv(path, "g")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " Infinity", "NaN"])
def test_load_csv_non_finite_cell(tmp_path, cell):
    path = tmp_path / "bad.csv"
    write_lines(path, ["g,x0,x1", "0,1.0,2.0", f"1,3.0,{cell}"])
    with pytest.raises(DataError, match=f"non-finite value '{cell.strip()}' "
                                        f"at line 3, column 'x1'"):
        load_csv(path, "g")


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "plain.csv"
    write_lines(path, ["g,x0", "0,1.0"])
    with pytest.raises(DataError, match="group column"):
        load_csv(path, "s")
    with pytest.raises(DataError, match="label column"):
        load_csv(path, "g", "y")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv", "g")


def test_compas_fixture_parses_to_hand_values():
    ds = load_csv(DATA_DIR / "compas_tiny.csv", "race", "two_year_recid")
    assert ds.feature_names == ("race", "priors_count", "age",
                                "two_year_recid")
    assert ds.group_col == 0
    assert ds.label_col == 3
    assert np.array_equal(ds.rows, COMPAS_TINY)
    assert ds.feature_kinds[0] == "binary"
    assert ds.feature_kinds[2] == "continuous"


def test_compas_fixture_round_trip(tmp_path):
    ds = load_csv(DATA_DIR / "compas_tiny.csv", "race", "two_year_recid")
    out = tmp_path / "copy.csv"
    write_csv(ds, out)
    again = load_csv(out, "race", "two_year_recid")
    assert again.feature_names == ds.feature_names
    assert np.array_equal(again.rows, ds.rows)


def test_write_csv_round_trips_arbitrary_floats(tmp_path):
    rng = np.random.default_rng(3)
    rows = np.column_stack([
        (rng.random(6) < 0.5).astype(float),
        rng.standard_normal(6) * 1e3,
        rng.standard_normal(6) * 1e-7,
    ])
    ds = TabularDataset(("g", "a", "b"), rows, group_col=0)
    out = tmp_path / "floats.csv"
    write_csv(ds, out)
    again = load_csv(out, "g")
    assert np.array_equal(again.rows, rows)


def test_write_csv_bytes_match_csv_writer_over_float_reprs(tmp_path):
    rows = np.array([
        [0.0, -0.0, 5e-324, 1e300],
        [1.0, math.inf, -math.inf, math.nan],
        [1.0, 3.0, -2.0, 0.1],
        [0.0, 1e16, -1.5e-7, 123456789.0],
    ])
    ds = TabularDataset(("g", 'needs "quotes", and a comma', "c", "d"), rows,
                        group_col=0)
    out = tmp_path / "written.csv"
    write_csv(ds, out)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names)
        for row in ds.rows:
            writer.writerow([repr(float(v)) for v in row])
    assert out.read_bytes() == reference.read_bytes()


def test_dataset_validation():
    with pytest.raises(DataError, match="outside"):
        TabularDataset(("g", "x"), np.array([[2.0, 1.0]]), group_col=0)
    with pytest.raises(DataError, match="names"):
        TabularDataset(("g",), np.array([[0.0, 1.0]]), group_col=0)
    with pytest.raises(DataError, match="differ"):
        TabularDataset(("g", "x"), np.array([[0.0, 1.0]]), group_col=0,
                       label_col=0)
    with pytest.raises(DataError, match="2-D"):
        TabularDataset(("g",), np.array([0.0, 1.0]), group_col=0)


def test_synthetic_minority_proportion():
    ds = generate_synthetic(SyntheticConfig(n_rows=10000,
                                            minority_fraction=0.27, seed=7))
    minority = float(np.mean(ds.groups == 0.0))
    assert abs(minority - 0.27) <= 0.02


def test_synthetic_balanced_proportion():
    ds = generate_synthetic(SyntheticConfig(n_rows=10000,
                                            minority_fraction=0.5, seed=7))
    assert abs(float(np.mean(ds.groups == 0.0)) - 0.5) <= 0.02
    assert abs(float(np.mean(ds.groups == 1.0)) - 0.5) <= 0.02


def test_synthetic_deterministic():
    cfg = SyntheticConfig(n_rows=500, seed=42)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.rows, b.rows)
    assert a.feature_names == b.feature_names


@pytest.mark.parametrize("fraction", [0.1, 0.27, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_synthetic_proportion_binomial_bound(fraction, seed):
    n = 10000
    ds = generate_synthetic(SyntheticConfig(n_rows=n,
                                            minority_fraction=fraction,
                                            seed=seed))
    bound = 3.0 * math.sqrt(fraction * (1.0 - fraction) / n)
    assert abs(float(np.mean(ds.groups == 0.0)) - fraction) <= bound


def test_synthetic_x1_range_brackets_both_boundaries():
    cfg = SyntheticConfig(n_rows=5000, seed=1)
    ds = generate_synthetic(cfg)
    x1 = ds.rows[:, 2]
    assert x1.min() < cfg.boundary_majority
    assert x1.max() > cfg.boundary_minority


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(n_rows=5)
    with pytest.raises(ValueError):
        SyntheticConfig(minority_fraction=0.6)
    with pytest.raises(ValueError):
        SyntheticConfig(minority_fraction=0.0)
    with pytest.raises(ValueError):
        SyntheticConfig(noise_std=0.0)


def test_feature_stats_hand_values():
    rows = np.array([[0.0, 2.0], [1.0, 4.0], [0.0, 6.0]])
    stats = feature_stats(TabularDataset(("g", "v"), rows, group_col=0))
    assert stats.means[1] == 4.0
    assert stats.stds[1] == 2.0
    assert stats.feature_kinds == ("binary", "continuous")
    assert math.isnan(stats.binary_freqs[1])
    assert not stats.is_constant[1]


def test_feature_stats_constant_and_binary_columns():
    rows = np.column_stack([
        np.array([0.0, 0.0, 1.0, 1.0]),
        np.ones(4),
        np.array([1.0, 2.0, 3.0, 4.0]),
    ])
    stats = feature_stats(TabularDataset(("g", "c", "v"), rows, group_col=0))
    assert stats.binary_freqs[0] == 0.5
    assert stats.means[1] == 1.0
    assert stats.stds[1] == 0.0
    assert stats.is_constant[1]
    assert stats.binary_freqs[1] == 1.0


def test_feature_stats_excludes_label_column():
    rows = np.array([[0.0, 2.0, 1.0], [1.0, 4.0, 0.0]])
    ds = TabularDataset(("g", "v", "y"), rows, group_col=0, label_col=2)
    stats = feature_stats(ds)
    assert stats.feature_names == ("g", "v")
    assert stats.group_col == 0


def test_feature_stats_needs_two_rows():
    ds = TabularDataset(("g", "v"), np.array([[0.0, 1.0]]), group_col=0)
    with pytest.raises(DataError, match="at least 2"):
        feature_stats(ds)


def make_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([
        (rng.random(n) < 0.5).astype(float),
        rng.standard_normal(n),
    ])


def test_split_partition():
    ds = TabularDataset(("g", "v"), make_rows(10), group_col=0)
    train, test = split(ds, 0.8, seed=0)
    assert train.n_rows == 8
    assert test.n_rows == 2
    merged = np.vstack([train.rows, test.rows])
    assert np.array_equal(
        np.sort(merged.view([("", float)] * 2), axis=0),
        np.sort(ds.rows.view([("", float)] * 2), axis=0),
    )


def test_split_deterministic():
    ds = TabularDataset(("g", "v"), make_rows(20), group_col=0)
    a_train, a_test = split(ds, 0.7, seed=9)
    b_train, b_test = split(ds, 0.7, seed=9)
    assert np.array_equal(a_train.rows, b_train.rows)
    assert np.array_equal(a_test.rows, b_test.rows)


def test_split_floor_rule():
    ds = TabularDataset(("g", "v"), make_rows(10), group_col=0)
    train, test = split(ds, 0.99, seed=0)
    assert train.n_rows == 9
    assert test.n_rows == 1


def test_split_preserves_column_roles():
    rows = np.column_stack([make_rows(10), (make_rows(10)[:, 0])])
    ds = TabularDataset(("g", "v", "y"), rows, group_col=0, label_col=2)
    train, _ = split(ds, 0.5, seed=0)
    assert train.group_col == 0
    assert train.label_col == 2


def test_split_rejects_degenerate_fractions():
    ds = TabularDataset(("g", "v"), make_rows(10), group_col=0)
    with pytest.raises(DataError, match="empty split"):
        split(ds, 0.05, seed=0)
    with pytest.raises(ValueError):
        split(ds, 1.2, seed=0)
    with pytest.raises(ValueError):
        split(ds, 0.0, seed=0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(10, 40), frac=st.floats(0.2, 0.8), seed=st.integers(0, 99))
def test_split_partition_property(n, frac, seed):
    rows = np.column_stack([
        np.zeros(n),
        np.arange(n, dtype=float),
    ])
    ds = TabularDataset(("g", "idx"), rows, group_col=0)
    train, test = split(ds, frac, seed)
    seen = np.concatenate([train.rows[:, 1], test.rows[:, 1]])
    assert train.n_rows == math.floor(frac * n)
    assert np.array_equal(np.sort(seen), np.arange(n, dtype=float))
