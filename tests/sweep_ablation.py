"""The penalized fit at gate scale, with held-out parity gaps.

    PYTHONPATH=src python3 tests/sweep_ablation.py 0-19

reruns acceptance criterion 3's sweep (tests/test_acceptance.py): the
default synth dataset, the threshold oracle, ``sweep_fair_config()``,
200 evenly spaced points and counts 100, 200, 500, 1000 and 2000, one
two-group neighborhood with seed (s, ci, pi) per seed s, count index ci
and point index pi, exactly as ``run_perturbation_sweep`` draws them.
Per count it prints the vanilla and fair in-sample psi, each the mean
over seeds of the per-seed mean as the criterion aggregates them, the
mean objective, the mean held-out psi (held_out.py, seed
(s, ci, pi, 99)) and the total fit seconds. Run it on two trees to
compare their solvers on the same fits.
"""
from __future__ import annotations

import statistics
import sys
import time

from fairlime import (ExplainConfig, KernelConfig, SyntheticConfig,
                      ThresholdOracle, fair_explain_neighborhood,
                      feature_stats, generate_synthetic,
                      sample_two_group_neighborhood, sweep_fair_config)
from fairlime.errors import DataError
from fairlime.experiments import subsample_indices
from held_out import held_out_psi

COUNTS = (100, 200, 500, 1000, 2000)
MAX_POINTS = 200


def main(argv) -> int:
    first, _, last = argv[0].partition("-")
    seeds = range(int(first), int(last or first) + 1)
    ds, f = generate_synthetic(SyntheticConfig()), ThresholdOracle()
    stats, cfg, fair = feature_stats(ds), ExplainConfig(), sweep_fair_config()
    rows = ds.features[subsample_indices(ds.n_rows, MAX_POINTS)]
    print("count vanilla_psi fair_psi objective held_out_psi fit_s")
    for ci, count in enumerate(COUNTS):
        kc = KernelConfig(n_samples=count)
        vanilla, fair_psi, objectives, held_out, seconds = [], [], [], [], 0.0
        for s in seeds:
            per_seed = []
            for pi, x in enumerate(rows):
                try:
                    nb = sample_two_group_neighborhood(x, stats, f, kc, (s, ci, pi))
                except DataError:
                    continue
                start = time.perf_counter()
                e = fair_explain_neighborhood(nb, cfg, fair)
                seconds += time.perf_counter() - start
                per_seed.append((e.psi_vanilla, e.psi_hard))
                objectives.append(e.objective)
                held_out.append(held_out_psi(e, x, stats, f, kc, (s, ci, pi)))
            vanilla.append(statistics.fmean(v for v, _ in per_seed))
            fair_psi.append(statistics.fmean(p for _, p in per_seed))
        print(count, f"{statistics.fmean(vanilla):.5f}",
              f"{statistics.fmean(fair_psi):.5f}",
              f"{statistics.fmean(objectives):.5f}",
              f"{statistics.fmean(held_out):.4f}", f"{seconds:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
