"""Golden corpus: fixed CLI and solver runs whose output bytes a
refactor must reproduce.

    PYTHONPATH=src python3 tests/golden_corpus.py

rewrites every file under tests/golden/ from the current code;
tests/test_golden.py reruns the same cases and compares bytes. Rewrite
the corpus only in a change that alters an output on purpose, and list
the bytes that moved, and why, in CHANGES.md.

Every case runs on ``synth --n 300``: the MLP trained on it for
``explain`` at lambda2 = 5 and at lambda2 = 0 and for ``audit --metric
dp``, the threshold oracle for a small ``sweep``, plus one two-feature
solver and grid-oracle instance called in-process.
"""
from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from fairlime import (ExplainConfig, FairConfig, GridSpec, KernelConfig,
                      LogisticModel, TabularDataset, cli,
                      fair_explain_neighborhood, feature_stats,
                      grid_search_oracle, sample_two_group_neighborhood)
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


def _solver_and_grid(path: Path) -> None:
    """A criterion-4-style instance: group g plus one continuous x, a
    logistic black box, 200 perturbations, lambda2 = 5; the solver takes
    its coarse-lattice seed path and the grid oracle checks it."""
    rng = np.random.default_rng(SEED)
    g = (rng.random(300) < 0.5).astype(float)
    x = rng.normal(0.0, 1.0, 300) + 0.5 * g
    ds = TabularDataset(("g", "x"), np.column_stack([g, x]), group_col=0)
    f = LogisticModel(np.array([1.2, -1.8]), 0.3)
    nb = sample_two_group_neighborhood(ds.features[ROW], feature_stats(ds), f,
                                       KernelConfig(n_samples=200), SEED)
    cfg = ExplainConfig(lambda1=0.01)
    fair = FairConfig(lambda2=5.0)
    grid = GridSpec(intercept_low=-3.0, intercept_high=3.0, weight_low=-1.5,
                    weight_high=1.5, intercept_steps=150, weight_steps=75)
    write_json({"solver": fair_explain_neighborhood(nb, cfg, fair).as_dict(),
                "grid": grid_search_oracle(nb, cfg, fair, grid=grid).as_dict()},
               path)


def build(workdir: Path) -> dict[str, bytes]:
    """Run every case in ``workdir``; return the corpus, file name to bytes."""
    data, model = workdir / "synth.csv", workdir / "mlp.model"
    _cli(["synth", "--out", data, "--n", 300, "--seed", SEED])
    _cli(["train", "--data", data, "--label", "y", "--model", model,
          "--epochs", 20, "--seed", SEED])
    common = ["--data", data, "--label", "y", "--seed", SEED]
    for lambda2 in ("5", "0"):
        _cli(["explain", *common, "--model", model, "--row", ROW,
              "--lambda2", lambda2,
              "--out", workdir / f"explain-lambda2-{lambda2}.json"])
    _cli(["audit", *common, "--model", model, "--metric", "dp", "--points", 8,
          "--perturbations", 300, "--out", workdir / "audit-dp.json"])
    _cli(["sweep", *common, "--model", "oracle", "--counts", "100,200",
          "--seeds", 2, "--max-points", 12, "--out", workdir / "sweep.json"])
    _solver_and_grid(workdir / "solver-grid.json")
    names = ("synth.csv", "explain-lambda2-5.json", "explain-lambda2-0.json",
             "audit-dp.json", "sweep.json", "solver-grid.json")
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
