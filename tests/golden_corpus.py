"""Golden corpus: fixed CLI and solver runs whose output bytes a
refactor must reproduce.

    PYTHONPATH=src python3 tests/golden_corpus.py

rewrites every file under tests/golden/ from the current code;
tests/test_golden.py reruns the same cases and compares bytes. Rewrite
the corpus only in a change that alters an output on purpose, and list
the bytes that moved, and why, in CHANGES.md.

The CLI cases run on ``synth --n 300``: the MLP trained on it for
``explain`` at lambda2 = 5 (with its ``--dump-neighborhood`` CSV) and at
lambda2 = 0 and for ``audit --metric dp``, the threshold oracle for a
small ``sweep``; a small ``boundary`` study, as JSON and as CSV, pins
the plain fits of ``lime_explain``. Two in-process cases share one
two-feature neighborhood: the solver and the grid oracle on it, and
the plain fit on it and on a one-group neighborhood, whose
``psi_hard`` is null.
"""
from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from fairlime import (ExplainConfig, FairConfig, GridSpec, KernelConfig,
                      LogisticModel, TabularDataset, cli, explain_neighborhood,
                      fair_explain_neighborhood, feature_stats,
                      grid_search_oracle, sample_neighborhood,
                      sample_two_group_neighborhood)
from fairlime.experiments import write_json

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SEED = 3
ROW = 17


def _cli(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"fairlime {argv[0]} exited {code}: {err.getvalue()}")


def _two_feature_case():
    """Group g plus one continuous x and a logistic black box."""
    rng = np.random.default_rng(SEED)
    g = (rng.random(300) < 0.5).astype(float)
    x = rng.normal(0.0, 1.0, 300) + 0.5 * g
    ds = TabularDataset(("g", "x"), np.column_stack([g, x]), group_col=0)
    return ds.features[ROW], feature_stats(ds), LogisticModel(np.array([1.2, -1.8]), 0.3)


def _solver_and_grid(path: Path) -> None:
    """A criterion-4-style instance: 200 perturbations, lambda2 = 5; the
    solver runs its certified lattice scan and the grid oracle checks
    it."""
    x, stats, f = _two_feature_case()
    nb = sample_two_group_neighborhood(x, stats, f, KernelConfig(n_samples=200),
                                       SEED)
    cfg = ExplainConfig(lambda1=0.01)
    fair = FairConfig(lambda2=5.0)
    grid = GridSpec(intercept_low=-3.0, intercept_high=3.0, weight_low=-1.5,
                    weight_high=1.5, intercept_steps=150, weight_steps=75)
    write_json({"solver": fair_explain_neighborhood(nb, cfg, fair).as_dict(),
                "grid": grid_search_oracle(nb, cfg, fair, grid=grid).as_dict()},
               path)


def _plain_fits(path: Path) -> None:
    """The plain fit on the solver-grid neighborhood, and on one drawn
    with the group held at the center's value, where psi_hard is null."""
    x, stats, f = _two_feature_case()
    cfg = ExplainConfig(lambda1=0.01)
    both = sample_two_group_neighborhood(x, stats, f, KernelConfig(n_samples=200),
                                         SEED)
    one = sample_neighborhood(x, stats, f,
                              KernelConfig(n_samples=200, freeze_group=True), SEED)
    write_json({"two_groups": explain_neighborhood(both, cfg).as_dict(),
                "one_group": explain_neighborhood(one, cfg).as_dict()}, path)


def build(workdir: Path) -> dict[str, bytes]:
    """Run every case in ``workdir``; return the corpus, file name to bytes."""
    data, model = workdir / "synth.csv", workdir / "mlp.model"
    _cli(["synth", "--out", data, "--n", 300, "--seed", SEED])
    _cli(["train", "--data", data, "--label", "y", "--model", model,
          "--epochs", 20, "--seed", SEED])
    common = ["--data", data, "--label", "y", "--seed", SEED]
    for lambda2 in ("5", "0"):
        dump = ["--dump-neighborhood", workdir / "explain-lambda2-5-neighborhood.csv"]
        _cli(["explain", *common, "--model", model, "--row", ROW,
              "--lambda2", lambda2, *(dump if lambda2 == "5" else []),
              "--out", workdir / f"explain-lambda2-{lambda2}.json"])
    _cli(["audit", *common, "--model", model, "--metric", "dp", "--points", 8,
          "--perturbations", 300, "--out", workdir / "audit-dp.json"])
    _cli(["sweep", *common, "--model", "oracle", "--counts", "100,200",
          "--seeds", 2, "--max-points", 12, "--out", workdir / "sweep.json"])
    for ext in ("json", "csv"):
        _cli(["boundary", "--seeds", 5, "--n", 400, "--perturbations", 200,
              "--out", workdir / f"boundary.{ext}"])
    _solver_and_grid(workdir / "solver-grid.json")
    _plain_fits(workdir / "plain-fit.json")
    names = ("synth.csv", "explain-lambda2-5.json",
             "explain-lambda2-5-neighborhood.csv", "explain-lambda2-0.json",
             "audit-dp.json", "sweep.json", "boundary.json", "boundary.csv",
             "solver-grid.json", "plain-fit.json")
    return {name: (workdir / name).read_bytes() for name in names}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        corpus = build(Path(tmp))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.iterdir():
        stale.unlink()
    for name, content in corpus.items():
        (GOLDEN_DIR / name).write_bytes(content)
        print(f"wrote {GOLDEN_DIR / name} ({len(content)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
