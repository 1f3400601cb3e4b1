"""Boundary study, perturbation sweep, and report serialization."""
import csv
import dataclasses
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairlime import (DataError, ExplainConfig, KernelConfig, SyntheticConfig,
                      ThresholdOracle, generate_synthetic)
from fairlime.experiments import (SweepReport, emit_report,
                                  run_boundary_experiment,
                                  run_perturbation_sweep, subsample_indices,
                                  sweep_fair_config, write_json)


def test_subsample_indices_hand_case():
    assert subsample_indices(10, 4).tolist() == [0, 2, 5, 7]


def test_subsample_indices_within_budget_keeps_every_row():
    assert subsample_indices(3, 8).tolist() == [0, 1, 2]


@pytest.mark.parametrize("max_points", [0, -1])
def test_subsample_indices_rejects_an_empty_budget(max_points):
    with pytest.raises(DataError, match="max_points must be at least 1"):
        subsample_indices(10, max_points)


@given(st.integers(min_value=1, max_value=5000),
       st.integers(min_value=1, max_value=500))
def test_subsample_indices_strictly_increasing_and_in_range(n, m):
    idx = subsample_indices(n, m)
    assert len(idx) == min(n, m)
    assert idx[0] == 0
    assert np.all(np.diff(idx) >= 1)
    assert idx[-1] < n


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic(SyntheticConfig(n_rows=400, seed=3))


@pytest.fixture(scope="module")
def sweep_report(small_dataset):
    return run_perturbation_sweep(small_dataset, ThresholdOracle(),
                                  (100, 300), ExplainConfig(),
                                  sweep_fair_config(seed=0),
                                  seeds=(0, 1, 2), max_points=25)


def test_sweep_rejects_bad_arguments(small_dataset):
    f = ThresholdOracle()
    cfg, fair = ExplainConfig(), sweep_fair_config(seed=0)
    with pytest.raises(DataError, match="nonempty"):
        run_perturbation_sweep(small_dataset, f, (), cfg, fair, (0,))
    with pytest.raises(DataError, match="at least 50"):
        run_perturbation_sweep(small_dataset, f, (40, 100), cfg, fair, (0,))
    with pytest.raises(DataError, match="strictly ascending"):
        run_perturbation_sweep(small_dataset, f, (100, 100), cfg, fair, (0,))
    with pytest.raises(DataError, match="seeds must be nonempty"):
        run_perturbation_sweep(small_dataset, f, (100,), cfg, fair, ())
    with pytest.raises(DataError, match="at least 1"):
        run_perturbation_sweep(small_dataset, f, (100,), cfg, fair, (0,),
                               max_points=0)


def test_sweep_penalized_never_trails_vanilla(sweep_report):
    for fair, vanilla in zip(sweep_report.mean_fair,
                             sweep_report.mean_vanilla):
        assert fair <= vanilla + 1e-12


def test_sweep_report_structure(sweep_report):
    assert sweep_report.counts == (100, 300)
    assert sweep_report.seeds == (0, 1, 2)
    assert sweep_report.lambda2 == 5.0
    assert sweep_report.skipped == 0
    expected = tuple(int(i) for i in subsample_indices(400, 25))
    assert sweep_report.point_indices == expected
    for field in ("mean_vanilla", "std_vanilla", "mean_fair", "std_fair"):
        assert len(getattr(sweep_report, field)) == 2
    assert len(sweep_report.cells()) == 4
    assert json.dumps(sweep_report.as_dict())


def test_sweep_report_rejects_ragged_columns():
    with pytest.raises(DataError, match="one entry per count"):
        SweepReport(counts=(100, 200), seeds=(0,), lambda2=5.0,
                    point_indices=(0,), mean_vanilla=(0.1,),
                    std_vanilla=(0.0, 0.0), mean_fair=(0.1, 0.1),
                    std_fair=(0.0, 0.0), skipped=0)


def test_sweep_with_penalty_off_pairs_the_variants_exactly(small_dataset):
    report = run_perturbation_sweep(small_dataset, ThresholdOracle(), (60,),
                                    ExplainConfig(),
                                    sweep_fair_config(lambda2=0.0, seed=0),
                                    seeds=(0, 1), max_points=10)
    assert report.mean_fair == report.mean_vanilla
    assert report.std_fair == report.std_vanilla


def test_vanilla_gap_plateaus_at_large_counts():
    ds = generate_synthetic(SyntheticConfig(n_rows=1000, seed=5))
    report = run_perturbation_sweep(ds, ThresholdOracle(), (1000, 2000),
                                    ExplainConfig(),
                                    sweep_fair_config(lambda2=0.0, seed=0),
                                    seeds=tuple(range(20)), max_points=10)
    lower, upper = report.mean_vanilla
    assert 0.8 <= upper / lower <= 1.2


def test_boundary_experiment_needs_five_seeds():
    with pytest.raises(DataError, match="at least 5 seeds"):
        run_boundary_experiment(SyntheticConfig(n_rows=500, seed=0),
                                KernelConfig(n_samples=100), ExplainConfig(),
                                seeds=(0, 1, 2, 3))


@pytest.fixture(scope="module")
def boundary_report():
    return run_boundary_experiment(SyntheticConfig(n_rows=1500, seed=0),
                                   KernelConfig(n_samples=400),
                                   ExplainConfig(), seeds=range(5))


def test_boundary_sits_nearer_the_majority_threshold(boundary_report):
    r = boundary_report
    assert r.boundary_majority == 5.0
    assert r.boundary_minority == 6.0
    assert abs(r.mean_boundary - 5.0) < abs(r.mean_boundary - 6.0)
    assert r.closer_to_majority


def test_boundary_majority_pull_survives_swapping_the_thresholds():
    cfg = SyntheticConfig(n_rows=1500, boundary_majority=6.0,
                          boundary_minority=5.0, seed=0)
    r = run_boundary_experiment(cfg, KernelConfig(n_samples=400),
                                ExplainConfig(), seeds=range(5))
    assert abs(r.mean_boundary - 6.0) < abs(r.mean_boundary - 5.0)
    assert r.closer_to_majority


def test_boundary_report_structure(boundary_report):
    r = boundary_report
    assert r.seeds == (0, 1, 2, 3, 4)
    assert len(r.per_seed_boundaries) == 5
    assert r.mean_boundary == float(np.mean(r.per_seed_boundaries))
    assert r.std_boundary == float(np.std(r.per_seed_boundaries, ddof=1))
    assert r.midpoint == 5.5
    assert r.n_perturbations == 400
    assert r.excluded >= 0
    assert len(r.cells()) == 5
    doc = r.as_dict()
    assert doc["config"]["n_rows"] == 1500
    assert json.dumps(doc)


def test_emit_json_round_trips(sweep_report, tmp_path):
    path = tmp_path / "sweep.json"
    emit_report(sweep_report, "json", path)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == sweep_report.as_dict()


def test_write_json_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "doc.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="non-finite"):
            write_json({"psi": [0.1, bad]}, path)
        assert not path.exists()


def test_emit_json_rejects_a_report_holding_nan(sweep_report, tmp_path):
    broken = dataclasses.replace(
        sweep_report, mean_fair=(float("nan"),) + sweep_report.mean_fair[1:])
    path = tmp_path / "sweep.json"
    with pytest.raises(DataError, match="non-finite"):
        emit_report(broken, "json", path)
    assert not path.exists()


def test_emit_csv_writes_one_row_per_cell(sweep_report, tmp_path):
    path = tmp_path / "sweep.csv"
    emit_report(sweep_report, "csv", path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2 * len(sweep_report.counts)
    assert rows[0] == list(sweep_report.cells()[0].keys())
    variants = {row[1] for row in rows[1:]}
    assert variants == {"vanilla", "fair"}


def test_emit_csv_boundary_report(boundary_report, tmp_path):
    path = tmp_path / "boundary.csv"
    emit_report(boundary_report, "csv", path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + len(boundary_report.seeds)
    assert rows[0] == ["seed", "implied_boundary"]


def test_emit_svg_draws_two_series(sweep_report, tmp_path):
    path = tmp_path / "sweep.svg"
    emit_report(sweep_report, "svg-lines", path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    for el in polylines:
        points = el.attrib["points"].split()
        assert len(points) == len(sweep_report.counts)


def test_emit_svg_requires_a_sweep(boundary_report, tmp_path):
    with pytest.raises(DataError, match="sweep report"):
        emit_report(boundary_report, "svg-lines", tmp_path / "b.svg")


def test_emit_unknown_format(sweep_report, tmp_path):
    with pytest.raises(DataError, match="unknown report format"):
        emit_report(sweep_report, "yaml", tmp_path / "sweep.yaml")


def test_sweep_lambda2_zero_copies_config_not_results():
    base = sweep_fair_config(seed=0)
    vanilla = dataclasses.replace(base, lambda2=0.0)
    assert vanilla.lambda2 == 0.0
    assert base.lambda2 == 5.0
