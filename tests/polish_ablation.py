"""The default solver on explain-scale fits, with held-out parity gaps.

    PYTHONPATH=src python3 tests/polish_ablation.py 42-61

refits the benchmark's ``explain`` panel for each seed s: ``synth --n
2000 --seed s`` and the MLP trained on it (50 epochs, seed s), then,
per group, the row nearest the group's mean x0 at x1 = 4.5, 5.5 and
6.5. Each row gets a 5000-perturbation two-group neighborhood with seed
s, as ``fairlime explain --seed s`` draws it, and the default
``FairConfig(lambda2=5.0, seed=s)``. It prints one line per fit (seed,
row, objective, in-sample psi, held-out psi, fit seconds) and a summary
line. The held-out psi (held_out.py) is the fit's demographic-parity
mismatch on a fresh neighborhood of the same size drawn with seed
(s, 99). Run it on two trees to compare their solvers on the same fits.
"""
from __future__ import annotations

import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from fairlime import (ExplainConfig, FairConfig, KernelConfig, cli,
                      fair_explain_neighborhood, feature_stats, load_csv,
                      load_model, sample_two_group_neighborhood)
from held_out import held_out_psi

N_ROWS = 2000
PERTURBATIONS = 5000
PANEL_X1 = (4.5, 5.5, 6.5)


def _cli(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"fairlime {argv[0]} exited {code}: {err.getvalue()}")


def panel(seed: int, workdir: Path):
    """The dataset, trained MLP and panel rows of one seed."""
    data, model = workdir / "data.csv", workdir / "mlp.model"
    _cli(["synth", "--out", data, "--n", N_ROWS, "--seed", seed])
    _cli(["train", "--data", data, "--group", "g", "--label", "y",
          "--model", model, "--epochs", 50, "--seed", seed])
    ds = load_csv(data, "g", "y")
    x = ds.features
    rows = []
    for g in (0.0, 1.0):
        idx = np.flatnonzero(x[:, 0] == g)
        x0_mean = x[idx, 1].mean()
        for x1 in PANEL_X1:
            d = (x[idx, 1] - x0_mean) ** 2 + (x[idx, 2] - x1) ** 2
            rows.append(int(idx[int(np.argmin(d))]))
    return ds, load_model(model), rows


def main(argv) -> int:
    first, _, last = argv[0].partition("-")
    seeds = range(int(first), int(last or first) + 1)
    cfg, kc = ExplainConfig(), KernelConfig(n_samples=PERTURBATIONS)
    objectives, held_out, seconds = [], [], []
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            ds, model, rows = panel(seed, Path(tmp))
        stats = feature_stats(ds)
        fair = FairConfig(lambda2=5.0, seed=seed)
        for row in rows:
            x = ds.features[row]
            nb = sample_two_group_neighborhood(x, stats, model, kc, seed)
            start = time.perf_counter()
            e = fair_explain_neighborhood(nb, cfg, fair)
            seconds.append(time.perf_counter() - start)
            held_out.append(held_out_psi(e, x, stats, model, kc, (seed,)))
            objectives.append(e.objective)
            print(seed, row, repr(e.objective), f"{e.psi_hard:.6f}",
                  f"{held_out[-1]:.6f}", f"{seconds[-1]:.4f}", flush=True)
    print(f"{len(objectives)} fits; mean objective "
          f"{statistics.fmean(objectives):.6f}; mean held-out psi "
          f"{statistics.fmean(held_out):.5f}; median fit "
          f"{statistics.median(seconds):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
