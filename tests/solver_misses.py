"""Solver-versus-grid-oracle misses on criterion-4-style instances.

    PYTHONPATH=src python3 tests/solver_misses.py 2001-2010

draws 50 instances per seed from ``instances``, the stream acceptance
criterion 4 (tests/test_acceptance.py) draws from seed 42: 300 rows of
a group bit g and x ~ N(0.5 g, 1), a random logistic black box and a
200-sample two-group neighborhood with seed (1000 + i,). Each gets the
default FairConfig at lambda2 = 5 and the criterion's 0.01 ``GRID``.
It prints one line per instance (seed, index, solver and oracle
objectives, relative excess, solver seconds) and then the number of
misses, instances where the solver ends more than 1 % above the
oracle's optimum. A last line counts the solver's certified lattice
scans, those it skipped (box over the cell or weight-combination cap,
or a singular Gram matrix), and the most cells and the most weight
combinations a scanned box held.
"""
from __future__ import annotations

import math
import statistics
import sys
import time
from unittest import mock

import numpy as np

from fairlime import (ExplainConfig, FairConfig, GridSpec, KernelConfig,
                      LogisticModel, TabularDataset, fair_explain_neighborhood,
                      feature_stats, grid_search_oracle,
                      sample_two_group_neighborhood)
from fairlime import objective, oracle

GRID = GridSpec(intercept_low=-3.0, intercept_high=3.0, weight_low=-1.5,
                weight_high=1.5, intercept_steps=600, weight_steps=300)


def instances(seed: int, count: int = 50):
    """Criterion 4's instance stream for ``seed``."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 300
        g = (rng.random(n) < 0.5).astype(float)
        x = rng.normal(0.0, 1.0, n) + 0.5 * g
        ds = TabularDataset(("g", "x"), np.column_stack([g, x]), group_col=0)
        f = LogisticModel(rng.uniform(-3.0, 3.0, 2), rng.uniform(-1.0, 1.0))
        center = ds.rows[int(rng.integers(n))]
        yield i, sample_two_group_neighborhood(center, feature_stats(ds), f,
                                               KernelConfig(n_samples=200),
                                               (1000 + i,))


class _ScanRecord:
    """Wraps the solver's certified scan (and, inside it, the lattice
    scan; the grid oracle calls its own binding) to count the scans,
    the skipped ones and each scanned box's size."""

    def __init__(self):
        self.calls, self.skipped, self.boxes = 0, 0, []
        self._certify = objective.certified_minimum
        self._scan = oracle.lattice_minimum

    def certify(self, problem, incumbent):
        self.calls += 1
        beta = self._certify(problem, incumbent)
        self.skipped += beta is None
        return beta

    def scan(self, problem, b_axis, w_axes):
        combinations = math.prod(axis.size for axis in w_axes)
        self.boxes.append((b_axis.size * combinations, combinations))
        return self._scan(problem, b_axis, w_axes)


def main(argv) -> int:
    first, _, last = argv[0].partition("-")
    seeds = range(int(first), int(last or first) + 1)
    cfg, fair = ExplainConfig(), FairConfig(lambda2=5.0)
    excess, seconds = [], []
    record = _ScanRecord()
    with mock.patch.object(objective, "certified_minimum", record.certify), \
            mock.patch.object(oracle, "lattice_minimum", record.scan):
        for seed in seeds:
            for i, nb in instances(seed):
                start = time.perf_counter()
                solver = fair_explain_neighborhood(nb, cfg, fair)
                seconds.append(time.perf_counter() - start)
                best = grid_search_oracle(nb, cfg, fair, grid=GRID)
                excess.append((solver.objective - best.objective)
                              / abs(best.objective))
                print(seed, i, repr(solver.objective), repr(best.objective),
                      f"{excess[-1]:+.3e}", f"{seconds[-1]:.4f}", flush=True)
    misses = sum(e > 1e-2 for e in excess)
    print(f"{misses} misses of {len(excess)} instances; worst excess "
          f"{max(excess):+.3e}; solver median {statistics.median(seconds):.4f} s")
    cells, combinations = ([max(sizes) for sizes in zip(*record.boxes)]
                           if record.boxes else (0, 0))
    print(f"{record.calls} certified scans, {record.skipped} skipped; largest "
          f"box {cells} cells, most weight combinations {combinations}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
