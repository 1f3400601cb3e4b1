#!/usr/bin/env python3
"""fairlime benchmark.

    python3 bench/run.py --workload {explain,sweep,oracle,audit} \\
        --seed N --seconds S --trace {0,1}

Imports fairlime from the ``src`` directory next to this one, sets up
the workload's inputs from the seed, repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checks the first
round's outputs independently and prints one JSON line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A human-readable summary of both goes to standard error. Scratch files
and traces live under ``.bench_work/`` at the repository root.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is repeated and its median reported, so that work moved into
# set-up shows against a steady figure.
SETUP_REPEATS = 7

WORKLOAD_NAMES = ("explain", "sweep", "oracle", "audit")

END_TO_END_UNITS = {"setup_s": "s", "latency_s": "s", "explanations_per_s": "1/s",
                    "objective": "1", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_fairlime():
    """Import fairlime from this checkout's sources and nowhere else."""
    if not (SRC / "fairlime" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fairlime sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fairlime
    if Path(fairlime.__file__).resolve().parent != SRC / "fairlime":
        raise SystemExit(f"bench: imported fairlime from {fairlime.__file__}, not {SRC}")


def install_tracer():
    from fairlime import cli, datasets, experiments, metrics, models
    from fairlime import neighborhood, objective, surrogate
    from tracing import Tracer

    tracer = Tracer()
    for name, fn in (
        ("cli.main", cli.main),
        ("datasets.load_csv", datasets.load_csv),
        ("neighborhood.sample", neighborhood.sample_two_group_neighborhood),
        ("surrogate.fit", surrogate.explain_neighborhood),
        ("objective.fair_fit", objective.fair_explain_neighborhood),
        ("objective.grid", objective.grid_search_oracle),
        ("metrics.audit", metrics.fairness_mismatch),
        ("metrics.audit", metrics.counterfactual_check),
        ("metrics.audit", metrics.sensitive_importance),
        ("experiments.sweep", experiments.run_perturbation_sweep),
    ):
        tracer.wrap_function(name, fn)
    for cls in (models.MLP, models.LogisticModel, models.ThresholdOracle):
        tracer.wrap_score("models.score", cls)
    return tracer


def per_layer_metrics(tracer, explanations: int, psi_fair: float) -> dict:
    s = tracer.summary()

    def total(name, parent=None):
        entry = s.get(name)
        if entry is None:
            return 0.0
        if parent is None:
            return entry["total_s"]
        return entry["by_parent"].get(parent, {"total_s": 0.0})["total_s"]

    def field(name, key):
        return s.get(name, {}).get(key, 0)

    samples, nested_scores = tracer.count_children("neighborhood.sample", "models.score")
    top_grid = [end - start for name, start, end, parent, _ in tracer.spans
                if name == "objective.grid" and parent < 0]
    per = 1.0 / explanations
    return {
        "datasets.load_s": (total("datasets.load_csv") * per, "s"),
        "models.score_s": (total("models.score") * per, "s"),
        "models.rows_scored": (field("models.score", "rows") * per, "count"),
        "neighborhood.sample_s": (field("neighborhood.sample", "self_s") * per, "s"),
        "neighborhood.attempts_per_neighborhood":
            (nested_scores / samples if samples else 0.0, "count"),
        "surrogate.fit_s": (total("surrogate.fit") * per, "s"),
        "surrogate.fits_per_explanation": (field("surrogate.fit", "calls") * per, "count"),
        "objective.fit_s": (field("objective.fair_fit", "self_s") * per, "s"),
        "objective.coarse_scan_s": (total("objective.grid", "objective.fair_fit") * per, "s"),
        "metrics.audit_s": (total("metrics.audit") * per, "s"),
        "experiments.self_s": (field("experiments.sweep", "self_s") * per, "s"),
        "cli.self_s": (field("cli.main", "self_s") * per, "s"),
        "oracle_s": (statistics.median(top_grid) if top_grid else 0.0, "s"),
        "psi_fair": (psi_fair, "1"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    import_fairlime()
    from workloads import WORKLOADS, OperationFailed
    import checks

    workload = WORKLOADS[args.workload]()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            workdir = tmp / f"setup-{k}"
            workdir.mkdir()
            start = time.perf_counter()
            state = workload.setup(workdir, args.seed)
            setup_times.append(time.perf_counter() - start)
        operations = workload.operations(state)

        tracer = install_tracer() if args.trace else None
        rounds, failed = [], 0
        start = time.perf_counter()
        try:
            while True:
                results = []
                for op in operations:
                    try:
                        results.append(op())
                    except OperationFailed as exc:
                        print(f"bench: operation failed: {exc}", file=sys.stderr)
                        failed += 1
                        results.append(None)
                rounds.append(results)
                if time.perf_counter() - start >= args.seconds:
                    break
            wall = time.perf_counter() - start
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            if tracer is not None:
                tracer.restore()

        done = [r for results in rounds for r in results if r is not None]
        first = rounds[0]
        correct = True
        if failed:
            # Outputs of a failed round cannot be checked.
            correct = False
            objective = psi_fair = 0.0
        else:
            for results in rounds[1:]:
                for a, b in zip(first, results):
                    if a["output"] != b["output"]:
                        print("bench: an operation's output changed between rounds",
                              file=sys.stderr)
                        correct = False
            try:
                workload.check(state, first)
            except checks.CheckError as exc:
                print(f"bench: check failed: {exc}", file=sys.stderr)
                correct = False
            objective, psi_fair = workload.quality(state, first)

        explanations = sum(r["explanations"] for r in done)
        latencies = [r["latency_s"] for r in done]
        e2e = {
            "setup_s": statistics.median(setup_times),
            "latency_s": statistics.median(latencies),
            "explanations_per_s": explanations / wall,
            "objective": objective,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"bench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
              f"{explanations} explanations in {wall:.3f} s, "
              f"setup times {[round(t, 4) for t in setup_times]}, "
              f"psi_fair {psi_fair!r}", file=sys.stderr)
        print(f"bench:   latencies {[round(t, 3) for t in latencies]}",
              file=sys.stderr)
        for name, value in e2e.items():
            print(f"bench:   {name} = {value!r} {END_TO_END_UNITS[name]}", file=sys.stderr)
        if tracer is not None:
            layers = per_layer_metrics(tracer, explanations, psi_fair)
            for name, (value, unit) in layers.items():
                print(f"bench:   {name} = {value!r} {unit}", file=sys.stderr)
            tracer.write(work_root / f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics = {n: {"value": v, "unit": u} for n, (v, u) in layers.items()}
        else:
            metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in e2e.items()}
        print(json.dumps({"correct": correct, "attempted": len(rounds) * len(operations),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
