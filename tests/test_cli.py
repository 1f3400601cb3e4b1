"""End-to-end command-line runs, in process, on temporary files."""
import csv
import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fairlime import (ExplainConfig, FairConfig, ThresholdOracle, cli,
                      load_csv, sweep_fair_config)
from fairlime.cli import main

from conftest import OneNaNScore

LEAN = ["--restarts", "2", "--steps", "120", "--polish-rounds", "1",
        "--polish-dirs", "0"]


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    assert main(["synth", "--out", str(path), "--n", "400",
                 "--seed", "1"]) == 0
    return str(path)


def explain_args(data_csv, out, row="5", extra=()):
    return (["explain", "--data", data_csv, "--group", "g", "--label", "y",
             "--model", "oracle", "--row", row, "--perturbations", "300",
             "--seed", "0", "--out", out] + LEAN + list(extra))


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(tmp_path):
    out = str(tmp_path / "d.csv")
    assert main(["synth", "--out", out, "--bogus"]) == 1


def test_synth_writes_an_oracle_labeled_dataset(data_csv):
    ds = load_csv(data_csv, "g", "y")
    assert ds.feature_names == ("g", "x0", "x1", "y")
    assert ds.features.shape == (400, 3)
    assert ds.n_rows == 400
    assert set(np.unique(ds.labels)) <= {0.0, 1.0}
    assert abs(float(np.mean(ds.groups == 0.0)) - 0.27) < 0.1
    assert np.array_equal(ds.labels, ThresholdOracle().predict(ds.features))


def test_synth_is_byte_reproducible(tmp_path):
    paths = [str(tmp_path / name) for name in ("a.csv", "b.csv")]
    for p in paths:
        assert main(["synth", "--out", p, "--n", "200", "--seed", "9"]) == 0
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b


def test_train_then_reload(data_csv, tmp_path, capsys):
    model_path = str(tmp_path / "model.npz")
    rc = main(["train", "--data", data_csv, "--group", "g", "--label", "y",
               "--model", model_path, "--epochs", "5", "--batch-size", "64",
               "--seed", "0"])
    assert rc == 0
    assert "training accuracy" in capsys.readouterr().out
    from fairlime import load_model
    model = load_model(model_path)
    scores = model.score(load_csv(data_csv, "g", "y").features)
    assert np.all((scores >= 0.0) & (scores <= 1.0))


def test_train_without_label_fails(data_csv, tmp_path, capsys):
    rc = main(["train", "--data", data_csv, "--group", "g",
               "--model", str(tmp_path / "m.npz")])
    assert rc == 2
    assert "requires --label" in capsys.readouterr().err


def test_explain_emits_a_full_report(data_csv, tmp_path, capsys):
    out = str(tmp_path / "e.json")
    assert main(explain_args(data_csv, out)) == 0
    assert "psi_hard" in capsys.readouterr().out
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["row"] == 5
    assert doc["feature_names"] == ["g", "x0", "x1"]
    assert doc["lambda2"] == 5.0
    assert doc["n_samples"] == 300
    assert doc["active_features"]
    assert "psi_hard" in doc["objective_breakdown"]


def test_explain_is_byte_reproducible(data_csv, tmp_path):
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for p in paths:
        assert main(explain_args(data_csv, p)) == 0
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b


def test_explain_can_dump_its_neighborhood(data_csv, tmp_path):
    out = str(tmp_path / "e.json")
    dump = str(tmp_path / "nb.csv")
    rc = main(explain_args(data_csv, out,
                           extra=["--dump-neighborhood", dump]))
    assert rc == 0
    with open(dump, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["g", "x0", "x1", "distance", "weight",
                       "f_score", "f_pred"]
    assert len(rows) == 1 + 300
    center = rows[1]
    assert float(center[3]) == 0.0
    assert float(center[4]) == 1.0


def test_explain_row_out_of_range(data_csv, tmp_path, capsys):
    rc = main(explain_args(data_csv, str(tmp_path / "e.json"), row="9999"))
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_explain_missing_data_file(tmp_path):
    rc = main(explain_args(str(tmp_path / "absent.csv"),
                           str(tmp_path / "e.json")))
    assert rc == 2


@pytest.mark.parametrize("lambda2", ["0", "5"])
def test_explain_nan_black_box_scores_are_a_data_error(data_csv, tmp_path,
                                                       capsys, monkeypatch,
                                                       lambda2):
    monkeypatch.setattr(cli, "_model_for",
                        lambda args, ds: OneNaNScore(ThresholdOracle()))
    out = tmp_path / "e.json"
    rc = main(explain_args(data_csv, str(out),
                           extra=["--perturbations", "200",
                                  "--lambda2", lambda2]))
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_explain_non_finite_cell_is_a_data_error(data_csv, tmp_path, capsys):
    rows = open(data_csv, encoding="utf-8").read().splitlines()
    header = rows[0].split(",")
    cells = rows[3].split(",")
    cells[header.index("x0")] = "inf"
    rows[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "e.json"
    assert main(explain_args(str(bad), str(out))) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: non-finite value 'inf' at line 4, column 'x0'\n")
    assert not out.exists()


def test_explain_refuses_to_write_nan(data_csv, tmp_path, capsys, monkeypatch):
    fit = cli.fair_explain_neighborhood
    monkeypatch.setattr(cli, "fair_explain_neighborhood",
                        lambda *a: dataclasses.replace(fit(*a),
                                                       objective=math.nan))
    out = tmp_path / "e.json"
    assert main(explain_args(data_csv, str(out))) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_audit_demographic_parity_runs_locally(data_csv, tmp_path):
    out = str(tmp_path / "audit.json")
    rc = main(["audit", "--data", data_csv, "--group", "g", "--label", "y",
               "--model", "oracle", "--metric", "dp", "--points", "5",
               "--perturbations", "200", "--seed", "0", "--out", out] + LEAN)
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["metric"] == "demographic_parity"
    assert doc["population"] == "neighborhood"
    assert doc["aggregate"]["audited"] == 5
    for row in doc["rows"]:
        assert "counterfactual" in row
        assert "sensitive_importance" in row
        assert "preserved" in row


def test_audit_labeled_metric_runs_on_the_dataset(data_csv, tmp_path):
    out = str(tmp_path / "audit.json")
    rc = main(["audit", "--data", data_csv, "--group", "g", "--label", "y",
               "--model", "oracle", "--metric", "eopp", "--points", "3",
               "--perturbations", "200", "--seed", "0", "--out", out] + LEAN)
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["population"] == "dataset"


def test_audit_labeled_metric_without_labels_fails(data_csv, tmp_path,
                                                   capsys):
    rc = main(["audit", "--data", data_csv, "--group", "g",
               "--model", "oracle", "--metric", "eopp",
               "--out", str(tmp_path / "a.json")])
    assert rc == 2
    assert "requires --label" in capsys.readouterr().err


def test_audit_unknown_metric(data_csv, tmp_path, capsys):
    rc = main(["audit", "--data", data_csv, "--group", "g",
               "--model", "oracle", "--metric", "nope",
               "--out", str(tmp_path / "a.json")])
    assert rc == 2
    assert "unknown metric" in capsys.readouterr().err


def sweep_args(data_csv, out, extra=()):
    return ["sweep", "--data", data_csv, "--group", "g", "--label", "y",
            "--model", "oracle", "--counts", "60,120", "--seeds", "2",
            "--max-points", "6", "--seed", "0", "--out", out] + list(extra)


def test_sweep_infers_json_csv_and_svg_from_the_suffix(data_csv, tmp_path):
    json_out = str(tmp_path / "s.json")
    assert main(sweep_args(data_csv, json_out)) == 0
    with open(json_out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["counts"] == [60, 120]
    assert len(doc["mean_fair"]) == 2

    csv_out = str(tmp_path / "s.csv")
    assert main(sweep_args(data_csv, csv_out)) == 0
    with open(csv_out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5

    svg_out = str(tmp_path / "s.svg")
    assert main(sweep_args(data_csv, svg_out)) == 0
    root = ET.parse(svg_out).getroot()
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_sweep_format_flag_overrides_the_suffix(data_csv, tmp_path):
    out = str(tmp_path / "report.dat")
    assert main(sweep_args(data_csv, out, extra=["--format", "json"])) == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["seeds"] == [0, 1]


def test_sweep_unknown_suffix_without_format_fails(data_csv, tmp_path,
                                                   capsys):
    rc = main(sweep_args(data_csv, str(tmp_path / "report.dat")))
    assert rc == 2
    assert "cannot infer" in capsys.readouterr().err


def test_sweep_is_byte_reproducible(data_csv, tmp_path):
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for p in paths:
        assert main(sweep_args(data_csv, p)) == 0
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b


@pytest.mark.parametrize("command, extra, expected", [
    ("explain", ["--row", "0"], FairConfig()),
    ("sweep", ["--counts", "100", "--seeds", "1"], sweep_fair_config()),
])
def test_default_flags_build_the_library_default_configs(command, extra,
                                                         expected):
    args = cli.build_parser().parse_args(
        [command, "--data", "d.csv", "--model", "oracle", "--out", "o.json",
         *extra])
    assert cli._fair_config(args, args.lambda2) == expected
    assert args.lambda1 == ExplainConfig().lambda1


def test_boundary_reports_the_majority_pull(tmp_path):
    out = str(tmp_path / "b.json")
    rc = main(["boundary", "--seeds", "5", "--n", "600",
               "--perturbations", "200", "--out", out])
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["closer_to_majority"] is True
    assert len(doc["per_seed_boundaries"]) == 5
    assert doc["midpoint"] == 5.5


def test_boundary_csv_output(tmp_path):
    out = str(tmp_path / "b.csv")
    rc = main(["boundary", "--seeds", "5", "--n", "600",
               "--perturbations", "200", "--out", out])
    assert rc == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6
    assert rows[0] == ["seed", "implied_boundary"]
