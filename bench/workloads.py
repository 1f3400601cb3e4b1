"""The benchmark's four workloads.

Each workload writes its inputs to files at set-up, from the run's seed
only, and then repeats one fixed round of operations: the same calls on
the same inputs every round. An operation returns its latency, the
number of explanations it produced and its output, which must repeat
exactly from round to round. Fit quality and the output checks read
the first round.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

import checks
from fairlime import cli, datasets, experiments, models, neighborhood, objective
from fairlime.datasets import TabularDataset
from fairlime.models import LogisticModel
from fairlime.neighborhood import KernelConfig
from fairlime.objective import FairConfig, GridSpec
from fairlime.surrogate import ExplainConfig

# The CLI's explain/audit defaults, which the checks recompute against.
LAMBDA1 = 0.01
EXPLAIN_LAMBDA2 = 5.0
AUDIT_EPSILON = 0.05


class OperationFailed(RuntimeError):
    pass


def run_cli(argv) -> None:
    """One in-process ``fairlime`` command; its console output is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OperationFailed(f"fairlime {argv[0]} exited {code}: {err.getvalue().strip()}")


@contextlib.contextmanager
def recording(module, attr, sink):
    """Append (lambda2, objective, psi_hard) of every explanation that
    ``module.attr`` returns; used where the CLI report omits them."""
    inner = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append((result.lambda2, result.objective, result.psi_hard))
        return result

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, inner)


def timed_cli(argv) -> float:
    start = time.perf_counter()
    run_cli(argv)
    return time.perf_counter() - start


def read_csv_matrix(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def evenly_spaced(n_rows: int, points: int) -> list[int]:
    if n_rows <= points:
        return list(range(n_rows))
    return [int(np.floor(i * (n_rows / points))) for i in range(points)]


def labelled_scenario(workdir: Path, seed: int, n_rows: int) -> dict:
    """Synthetic two-group CSV with oracle labels, and an MLP trained on it."""
    data, model = workdir / "data.csv", workdir / "mlp.model"
    run_cli(["synth", "--out", data, "--n", n_rows, "--seed", seed])
    run_cli(["train", "--data", data, "--group", "g", "--label", "y",
             "--model", model, "--epochs", 50, "--seed", seed])
    return {"data": data, "model": model, "seed": seed, "workdir": workdir}


class ProgramSampler:
    """Rebuilds the neighborhoods a CLI command fitted with fairlime's own
    loader, model and sampler; the checks then verify the fits on them
    independently."""

    def __init__(self, data, label, model):
        self.ds = datasets.load_csv(data, "g", label)
        self.stats = datasets.feature_stats(self.ds)
        self.f = models.ThresholdOracle() if model == "oracle" else models.load_model(model)

    def __call__(self, row, n_samples, seed):
        return neighborhood.sample_two_group_neighborhood(
            self.ds.features[row], self.stats, self.f,
            KernelConfig(n_samples=n_samples), seed)


class Explain:
    """``fairlime explain`` with the MLP, 5000 perturbations and the
    default FairConfig, on a panel of rows: per group, the row nearest
    the group's mean x0 at x1 = 4.5, 5.5 and 6.5, i.e. on both sides of
    both group thresholds (5 and 6). A fixed panel geometry keeps the
    fit quality comparable across seeds."""

    name = "explain"
    PANEL_X1 = (4.5, 5.5, 6.5)

    def __init__(self, n_rows=2000, perturbations=5000, panel_x1=PANEL_X1):
        self.n_rows = n_rows
        self.perturbations = perturbations
        self.panel_x1 = panel_x1

    def setup(self, workdir: Path, seed: int) -> dict:
        state = labelled_scenario(workdir, seed, self.n_rows)
        m = read_csv_matrix(state["data"])
        rows = []
        for g in (0.0, 1.0):
            idx = np.flatnonzero(m[:, 0] == g)
            x0_mean = m[idx, 1].mean()
            for x1 in self.panel_x1:
                d = (m[idx, 1] - x0_mean) ** 2 + (m[idx, 2] - x1) ** 2
                rows.append(int(idx[int(np.argmin(d))]))
        state["rows"] = rows
        return state

    def operations(self, state) -> list:
        def op(row):
            out = state["workdir"] / f"explain-{row}.json"
            argv = ["explain", "--data", state["data"], "--group", "g",
                    "--label", "y", "--model", state["model"], "--row", row,
                    "--perturbations", self.perturbations,
                    "--seed", state["seed"], "--out", out]

            def run():
                latency = timed_cli(argv)
                return {"latency_s": latency, "explanations": 1,
                        "output": out.read_bytes()}
            return run
        return [op(row) for row in state["rows"]]

    def quality(self, state, results):
        docs = [json.loads(r["output"]) for r in results]
        return (float(np.mean([d["objective"] for d in docs])),
                float(np.mean([d["objective_breakdown"]["psi_hard"] for d in docs])))

    def check(self, state, results) -> None:
        sampler = ProgramSampler(state["data"], "y", state["model"])
        for row, r in zip(state["rows"], results):
            nb = sampler(row, self.perturbations, state["seed"])
            checks.check_explanation(json.loads(r["output"]), nb, LAMBDA1,
                                     EXPLAIN_LAMBDA2)


class Sweep:
    """One ``fairlime sweep`` on the synthetic scenario with the threshold
    oracle: counts 100..2000, one seed, 200 points, the CLI's lean sweep
    optimizer settings. Thousands of small fits."""

    name = "sweep"
    COUNTS = (100, 200, 500, 1000, 2000)

    def __init__(self, n_rows=2000, counts=COUNTS, points=200):
        self.n_rows = n_rows
        self.counts = counts
        self.points = points

    def setup(self, workdir: Path, seed: int) -> dict:
        data = workdir / "data.csv"
        run_cli(["synth", "--out", data, "--n", self.n_rows, "--seed", seed])
        return {"data": data, "seed": seed, "workdir": workdir}

    def operations(self, state) -> list:
        out = state["workdir"] / "sweep.json"
        argv = ["sweep", "--data", state["data"], "--group", "g", "--label", "y",
                "--model", "oracle", "--counts", ",".join(map(str, self.counts)),
                "--seeds", 1, "--max-points", self.points,
                "--seed", state["seed"], "--out", out]

        def run():
            captured = []
            with recording(experiments, "fair_explain_neighborhood", captured):
                latency = timed_cli(argv)
            cells = len(self.counts) * min(self.points, self.n_rows)
            return {"latency_s": latency, "explanations": cells,
                    "output": out.read_bytes(), "captured": captured}
        return [run]

    def quality(self, state, results):
        report = json.loads(results[0]["output"])
        fair = [obj for lam, obj, _ in results[0]["captured"] if lam > 0.0]
        return float(np.mean(fair)), float(np.mean(report["mean_fair"]))

    def check(self, state, results) -> None:
        report = json.loads(results[0]["output"])
        features = read_csv_matrix(state["data"])[:, :3]
        rows = evenly_spaced(len(features), self.points)
        checks.require(report["point_indices"] == rows, "sweep: points differ")
        sampler = ProgramSampler(state["data"], "y", "oracle")
        cells = {}
        for ci, count in enumerate(self.counts):
            cells[count] = []
            for pi, row in enumerate(rows):
                nb = sampler(row, count, (0, ci, pi))
                cells[count].append(checks.vanilla_psi_interval(
                    nb.samples, nb.f_scores, nb.weights, nb.samples[:, 0]))
        checks.check_sweep(report, cells)


class Oracle:
    """Acceptance-criterion-4 instances: two features (group g and one
    continuous x), 300 rows, a random LogisticModel, 200 perturbations,
    lambda2 = 5. Per instance, fairlime loads the files, samples the
    neighborhood, runs fair_explain_neighborhood (two active features,
    so it takes the coarse-lattice seed path) and then the exhaustive
    grid_search_oracle on the criterion's grid. The latency is the whole
    instance: the solver alone costs 0.1-0.2 s depending on the
    instance's coarse lattice, too uneven over five instances to bound,
    and its parts are the per-layer metrics."""

    name = "oracle"
    GRID = GridSpec(intercept_low=-3.0, intercept_high=3.0, weight_low=-1.5,
                    weight_high=1.5, intercept_steps=600, weight_steps=300)

    def __init__(self, instances=5, n_rows=300, perturbations=200, grid=GRID):
        self.instances = instances
        self.n_rows = n_rows
        self.perturbations = perturbations
        self.grid = grid
        self.cfg = ExplainConfig(lambda1=LAMBDA1)
        self.fair = FairConfig(lambda2=EXPLAIN_LAMBDA2)

    def setup(self, workdir: Path, seed: int) -> dict:
        instances = []
        for i in range(self.instances):
            rng = np.random.default_rng((seed, i))
            n = self.n_rows
            g = (rng.random(n) < 0.5).astype(float)
            x = rng.normal(0.0, 1.0, n) + 0.5 * g
            model = LogisticModel(rng.uniform(-3.0, 3.0, 2), rng.uniform(-1.0, 1.0))
            data, path = workdir / f"instance-{i}.csv", workdir / f"instance-{i}.model"
            datasets.write_csv(TabularDataset(("g", "x"), np.column_stack([g, x]),
                                              group_col=0), data)
            models.save_model(model, path)
            instances.append((data, path, int(rng.integers(n)), (seed, 1000 + i)))
        return {"instances": instances}

    def operations(self, state) -> list:
        def op(data, path, row, nb_seed):
            def run():
                start = time.perf_counter()
                ds = datasets.load_csv(data, "g")
                f = models.load_model(path)
                nb = neighborhood.sample_two_group_neighborhood(
                    ds.features[row], datasets.feature_stats(ds), f,
                    KernelConfig(n_samples=self.perturbations), nb_seed)
                solver = objective.fair_explain_neighborhood(nb, self.cfg, self.fair)
                oracle = objective.grid_search_oracle(nb, self.cfg, self.fair,
                                                      grid=self.grid)
                latency = time.perf_counter() - start
                return {"latency_s": latency, "explanations": 1, "nb": nb,
                        "solver": solver, "oracle": oracle,
                        "output": (solver.as_dict(), oracle.as_dict())}
            return run
        return [op(*inst) for inst in state["instances"]]

    def quality(self, state, results):
        return (float(np.mean([r["solver"].objective / r["oracle"].objective
                               for r in results])),
                float(np.mean([r["solver"].psi_hard for r in results])))

    def check(self, state, results) -> None:
        for i, r in enumerate(results):
            if not checks.check_oracle_instance(
                    r["nb"], r["solver"], r["oracle"], LAMBDA1, EXPLAIN_LAMBDA2,
                    self.grid.intercept_axis(), self.grid.weight_axis()):
                print(f"bench: oracle instance {i}: solver objective "
                      f"{r['solver'].objective!r} exceeds the grid optimum "
                      f"{r['oracle'].objective!r} by more than 1 %", file=sys.stderr)


class Audit:
    """``fairlime audit --metric eodds`` at the default lambda2 = 0 with the
    MLP over 250 evenly spaced rows of the labelled synthetic dataset:
    vanilla surrogates only, so sampling, MLP scoring, greedy least
    squares, the metrics and the JSON report do the work. Calls are
    kept short so that a run's median rests on many of them."""

    name = "audit"

    def __init__(self, n_rows=2000, points=250, perturbations=1000):
        self.n_rows = n_rows
        self.points = points
        self.perturbations = perturbations

    def setup(self, workdir: Path, seed: int) -> dict:
        return labelled_scenario(workdir, seed, self.n_rows)

    def operations(self, state) -> list:
        out = state["workdir"] / "audit.json"
        argv = ["audit", "--data", state["data"], "--group", "g", "--label", "y",
                "--model", state["model"], "--metric", "eodds",
                "--points", self.points, "--perturbations", self.perturbations,
                "--epsilon", AUDIT_EPSILON, "--seed", state["seed"], "--out", out]

        def run():
            captured = []
            with recording(cli, "fair_explain_neighborhood", captured):
                latency = timed_cli(argv)
            return {"latency_s": latency,
                    "explanations": min(self.points, self.n_rows),
                    "output": out.read_bytes(), "captured": captured}
        return [run]

    def quality(self, state, results):
        captured = results[0]["captured"]
        return (float(np.mean([obj for _, obj, _ in captured])),
                float(np.mean([psi for _, _, psi in captured])))

    def check(self, state, results) -> None:
        doc = json.loads(results[0]["output"])
        m = read_csv_matrix(state["data"])
        features, groups, labels = m[:, :3], m[:, 0], m[:, 3]
        checks.require(features.shape[1] <= 3,
                       "audit: the check assumes every feature is active")
        rows = evenly_spaced(len(m), self.points)
        sampler = ProgramSampler(state["data"], "y", state["model"])
        hoods = []
        for pi, row in enumerate(rows):
            nb = sampler(row, self.perturbations, (state["seed"], pi))
            hoods.append((nb.samples, nb.f_scores, nb.weights))
        bb = checks.mlp_scores(checks.read_mlp(state["model"]), features)
        checks.check_audit(doc, features, groups, labels, bb, 0, rows, hoods,
                           AUDIT_EPSILON)


WORKLOADS = {w.name: w for w in (Explain, Sweep, Oracle, Audit)}
