#!/usr/bin/env python3
"""Shows that each workload's output check accepts fairlime's real
outputs and rejects corrupted copies of them.

    python3 bench/selftest.py

Runs every workload once at a small size (a few seconds in all), checks
the genuine outputs, then checks each corruption and expects a
CheckError. Exits 1 if a genuine output is rejected or a corruption
passes.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run

run.import_fairlime()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def edit_json(results, index, edit):
    """A copy of ``results`` whose ``index``-th JSON output went through ``edit``."""
    out = [dict(r) for r in results]
    doc = json.loads(out[index]["output"])
    edit(doc)
    out[index]["output"] = json.dumps(doc).encode()
    return out


def shift_coefficient(doc):
    name = doc["active_features"][0]
    doc["coefficients"][name] += 0.01


def swap_groups(doc):
    br = doc["objective_breakdown"]
    assert br["dp_blackbox"] != 0.0, "pick a row whose parity gap is not 0"
    br["dp_blackbox"] = -br["dp_blackbox"]
    br["dp_surrogate_hard"] = -br["dp_surrogate_hard"]


def swap_columns(doc):
    doc["mean_fair"], doc["mean_vanilla"] = doc["mean_vanilla"], doc["mean_fair"]


def shift_vanilla(doc):
    doc["mean_vanilla"][0] += 1e-3


def flip_preserved(doc):
    doc["rows"][0]["preserved"] = not doc["rows"][0]["preserved"]


def shift_group_weight(doc):
    doc["rows"][0]["sensitive_importance"]["weight"] += 0.01


def shift_blackbox_metric(doc):
    row = doc["rows"][0]
    row["m_blackbox"] += 0.01
    row["mismatch"] = abs(row["m_blackbox"] - row["m_surrogate"])


def shift_solver(results):
    out = [dict(r) for r in results]
    e = out[0]["solver"]
    coef = np.array(e.coefficients)
    coef[e.active[0]] += 0.01
    out[0]["solver"] = dataclasses.replace(e, coefficients=coef)
    return out


def misreport_oracle(results):
    out = [dict(r) for r in results]
    o = out[0]["oracle"]
    out[0]["oracle"] = dataclasses.replace(o, objective=0.9 * o.objective)
    return out


def main() -> int:
    small = {
        workloads.Explain(n_rows=400, perturbations=400, panel_x1=(5.5,)): [
            ("shifted coefficient", lambda r: edit_json(r, 0, shift_coefficient)),
            ("swapped group labels", lambda r: edit_json(r, 0, swap_groups)),
        ],
        workloads.Sweep(n_rows=300, counts=(100, 200), points=10): [
            ("fair and vanilla columns swapped", lambda r: edit_json(r, 0, swap_columns)),
            ("shifted vanilla mean", lambda r: edit_json(r, 0, shift_vanilla)),
        ],
        workloads.Oracle(instances=1, grid=dataclasses.replace(
                workloads.Oracle.GRID, intercept_steps=150, weight_steps=75)): [
            ("shifted solver coefficient", shift_solver),
            ("misreported oracle objective", misreport_oracle),
        ],
        workloads.Audit(n_rows=300, points=20, perturbations=200): [
            ("flipped preserved flag", lambda r: edit_json(r, 0, flip_preserved)),
            ("shifted group weight", lambda r: edit_json(r, 0, shift_group_weight)),
            ("shifted black-box metric", lambda r: edit_json(r, 0, shift_blackbox_metric)),
        ],
    }
    bad = 0
    work_root = run.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for workload, corruptions in small.items():
            workdir = Path(tmp) / workload.name
            workdir.mkdir()
            state = workload.setup(workdir, SEED)
            results = [op() for op in workload.operations(state)]
            try:
                workload.check(state, results)
                print(f"{workload.name}: genuine output accepted")
            except checks.CheckError as exc:
                print(f"{workload.name}: FAIL genuine output rejected: {exc}")
                bad += 1
            for label, corrupt in corruptions:
                try:
                    workload.check(state, corrupt(results))
                except checks.CheckError as exc:
                    print(f"{workload.name}: {label} rejected ({exc})")
                else:
                    print(f"{workload.name}: FAIL {label} accepted")
                    bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
