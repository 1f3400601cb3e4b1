"""Desk-scale experiments: boundary-bias study and perturbation sweep.

The boundary study measures where local surrogates place the decision
boundary of a group-conditional threshold black box, and whether the
majority group's boundary dominates the explanation. The sweep tracks
the parity-preservation gap of vanilla versus penalized surrogates as
the perturbation budget grows. Both emit deterministic, machine-
readable reports.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .datasets import (SYNTHETIC_FEATURE_NAMES, SyntheticConfig,
                       TabularDataset, feature_stats, generate_synthetic)
from .errors import DataError
from .models import ThresholdOracle
from .neighborhood import KernelConfig, sample_two_group_neighborhood
from .objective import FairConfig, fair_explain_neighborhood
from .surrogate import ExplainConfig, implied_boundary, lime_explain

GROUP_COL = 0
X0_COL = 1
X1_COL = 2

# Panel of surrogate centers for the boundary study: evenly spaced x1
# values straddling both thresholds, at each group's mean x0.
PANEL_SIZE = 9
PANEL_MARGIN = 0.5

VARIANT_VANILLA = "vanilla"
VARIANT_FAIR = "fair"


@dataclass(frozen=True)
class BoundaryReport:
    """Implied-boundary aggregate across seeds for one scenario."""

    config: SyntheticConfig
    n_perturbations: int
    kernel_width: float | None
    seeds: tuple[int, ...]
    per_seed_boundaries: tuple[float, ...]
    mean_boundary: float
    std_boundary: float
    boundary_majority: float
    boundary_minority: float
    midpoint: float
    closer_to_majority: bool
    excluded: int

    def as_dict(self) -> dict:
        return {
            "config": dataclasses.asdict(self.config),
            "n_perturbations": self.n_perturbations,
            "kernel_width": self.kernel_width,
            "seeds": list(self.seeds),
            "per_seed_boundaries": list(self.per_seed_boundaries),
            "mean_boundary": self.mean_boundary,
            "std_boundary": self.std_boundary,
            "boundary_majority": self.boundary_majority,
            "boundary_minority": self.boundary_minority,
            "midpoint": self.midpoint,
            "closer_to_majority": self.closer_to_majority,
            "excluded": self.excluded,
        }

    def cells(self) -> list[dict]:
        return [
            {"seed": s, "implied_boundary": b}
            for s, b in zip(self.seeds, self.per_seed_boundaries)
        ]


def run_boundary_experiment(cfg: SyntheticConfig, kc: KernelConfig,
                            explain_cfg: ExplainConfig,
                            seeds) -> BoundaryReport:
    """Fit local surrogates across a panel of centers and extract the
    x1 value where each surrogate's score crosses 0.5.

    Per seed, the dataset is regenerated and 9 centers per group are
    explained: x1 evenly spaced over [lower boundary - 0.5, upper
    boundary + 0.5], x0 at the group's mean. Per-seed boundaries are
    group-frequency-weighted means over the panel, so the aggregate
    reflects the population the sampler actually sees. Surrogates with
    zero x1 weight have no implied boundary; they are excluded and
    counted, never silently dropped.
    """
    seeds = tuple(int(s) for s in seeds)
    if len(seeds) < 5:
        raise DataError("boundary experiment needs at least 5 seeds")
    explain_cfg.resolve_budget(len(SYNTHETIC_FEATURE_NAMES))  # before any dataset
    b_major, b_minor = cfg.boundary_majority, cfg.boundary_minority
    lo = min(b_major, b_minor) - PANEL_MARGIN
    hi = max(b_major, b_minor) + PANEL_MARGIN
    panel_x1 = np.linspace(lo, hi, PANEL_SIZE)
    f = ThresholdOracle(boundary_majority=b_major, boundary_minority=b_minor,
                        group_col=GROUP_COL, x1_col=X1_COL)
    excluded = 0
    per_seed = []
    for s in seeds:
        ds = generate_synthetic(dataclasses.replace(cfg, seed=s))
        stats = feature_stats(ds)
        groups = ds.groups
        weighted_sum, weight_total = 0.0, 0.0
        panel_idx = 0
        for g in (0.0, 1.0):
            mask = groups == g
            if not mask.any():
                raise DataError(f"seed {s} produced a single-group dataset")
            frequency = float(mask.mean())
            x0 = float(ds.rows[mask, X0_COL].mean())
            for center_x1 in panel_x1:
                x = np.array([g, x0, float(center_x1)])
                e = lime_explain(f, x, stats, kc, explain_cfg, seed=(s, panel_idx))
                panel_idx += 1
                if e.coefficients[X1_COL] == 0.0:
                    excluded += 1
                    continue
                weighted_sum += frequency * implied_boundary(e, X1_COL)
                weight_total += frequency
        if weight_total == 0.0:
            raise DataError(f"seed {s}: every panel surrogate had zero x1 weight")
        per_seed.append(weighted_sum / weight_total)
    mean = float(np.mean(per_seed))
    return BoundaryReport(
        config=cfg,
        n_perturbations=kc.n_samples,
        kernel_width=kc.width,
        seeds=seeds,
        per_seed_boundaries=tuple(per_seed),
        mean_boundary=mean,
        std_boundary=float(np.std(per_seed, ddof=1)),
        boundary_majority=b_major,
        boundary_minority=b_minor,
        midpoint=(b_major + b_minor) / 2.0,
        closer_to_majority=abs(mean - b_major) < abs(mean - b_minor),
        excluded=excluded,
    )


@dataclass(frozen=True)
class SweepReport:
    """Mean parity gap per perturbation count for both variants.

    Means are over per-seed means; stds are population stds over the
    same per-seed means. Every cell aggregates every seed.
    """

    counts: tuple[int, ...]
    seeds: tuple[int, ...]
    lambda2: float
    point_indices: tuple[int, ...]
    mean_vanilla: tuple[float, ...]
    std_vanilla: tuple[float, ...]
    mean_fair: tuple[float, ...]
    std_fair: tuple[float, ...]
    skipped: int

    def __post_init__(self):
        n = len(self.counts)
        for name in ("mean_vanilla", "std_vanilla", "mean_fair", "std_fair"):
            if len(getattr(self, name)) != n:
                raise DataError(f"{name} must have one entry per count")

    def as_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "seeds": list(self.seeds),
            "lambda2": self.lambda2,
            "point_indices": list(self.point_indices),
            "mean_vanilla": list(self.mean_vanilla),
            "std_vanilla": list(self.std_vanilla),
            "mean_fair": list(self.mean_fair),
            "std_fair": list(self.std_fair),
            "skipped": self.skipped,
        }

    def cells(self) -> list[dict]:
        rows = []
        for i, count in enumerate(self.counts):
            rows.append({
                "count": count,
                "variant": VARIANT_VANILLA,
                "mean_psi_hard": self.mean_vanilla[i],
                "std_psi_hard": self.std_vanilla[i],
                "seed_count": len(self.seeds),
            })
            rows.append({
                "count": count,
                "variant": VARIANT_FAIR,
                "mean_psi_hard": self.mean_fair[i],
                "std_psi_hard": self.std_fair[i],
                "seed_count": len(self.seeds),
            })
        return rows


def sweep_fair_config(lambda2: float = 5.0, seed: int = 0) -> FairConfig:
    """Optimizer settings sized for thousands of fits per sweep: a
    polish pass along the coordinate axes only, which still guarantees
    the penalized fit never loses to vanilla on the reported
    objective."""
    return FairConfig(lambda2=lambda2, polish_dirs=0, seed=seed)


def subsample_indices(n_rows: int, max_points: int) -> np.ndarray:
    """Evenly spaced row indices: floor(i * n / m) for i < m; every row
    when the dataset is already within budget."""
    if max_points < 1:
        raise DataError("max_points must be at least 1")
    if n_rows <= max_points:
        return np.arange(n_rows)
    return np.floor(np.arange(max_points) * (n_rows / max_points)).astype(int)


def run_perturbation_sweep(ds: TabularDataset, f, counts, explain_cfg: ExplainConfig,
                           fair_cfg: FairConfig, seeds,
                           max_points: int = 200) -> SweepReport:
    """Paired comparison of vanilla and parity-penalized surrogates as
    the perturbation budget grows.

    For each (count, seed, point), one two-group neighborhood is drawn
    and one penalized fit on it reports both variants' parity gaps (the
    vanilla surrogate is the fit's start), so differences are
    attributable to the penalty alone. Datasets larger than
    ``max_points`` rows are cut to an evenly spaced fixed subsample.
    Points whose neighborhood misses a group even after resampling are
    skipped in both variants and counted.
    """
    counts = tuple(int(c) for c in counts)
    seeds = tuple(int(s) for s in seeds)
    if not counts:
        raise DataError("counts must be nonempty")
    if any(c < 50 for c in counts):
        raise DataError("every perturbation count must be at least 50")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise DataError("counts must be strictly ascending")
    if not seeds:
        raise DataError("seeds must be nonempty")
    stats = feature_stats(ds)
    X = ds.features
    indices = subsample_indices(ds.n_rows, max_points)
    skipped = 0
    mean_v, std_v, mean_f, std_f = [], [], [], []
    for ci, count in enumerate(counts):
        kc = KernelConfig(n_samples=count)
        seed_means_v, seed_means_f = [], []
        for s in seeds:
            psi_v, psi_f = [], []
            for pi, row in enumerate(indices):
                try:
                    nb = sample_two_group_neighborhood(
                        X[row], stats, f, kc, (s, ci, pi)
                    )
                except DataError:
                    skipped += 1
                    continue
                fair_e = fair_explain_neighborhood(nb, explain_cfg, fair_cfg)
                psi_f.append(fair_e.psi_hard)
                psi_v.append(fair_e.psi_vanilla)
            if not psi_v:
                raise DataError(
                    f"count {count}, seed {s}: every neighborhood was skipped"
                )
            seed_means_v.append(float(np.mean(psi_v)))
            seed_means_f.append(float(np.mean(psi_f)))
        mean_v.append(float(np.mean(seed_means_v)))
        std_v.append(float(np.std(seed_means_v)))
        mean_f.append(float(np.mean(seed_means_f)))
        std_f.append(float(np.std(seed_means_f)))
    return SweepReport(
        counts=counts,
        seeds=seeds,
        lambda2=fair_cfg.lambda2,
        point_indices=tuple(int(i) for i in indices),
        mean_vanilla=tuple(mean_v),
        std_vanilla=tuple(std_v),
        mean_fair=tuple(mean_f),
        std_fair=tuple(std_f),
        skipped=skipped,
    )


def _sweep_svg(report: SweepReport) -> str:
    width, height = 640, 400
    left, right, top, bottom = 70, 30, 30, 50
    counts = report.counts
    x_lo, x_hi = float(min(counts)), float(max(counts))
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    y_hi = max(max(report.mean_vanilla), max(report.mean_fair), 1e-9) * 1.05
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(c: float) -> float:
        return left + (c - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return height - bottom - v / y_hi * plot_h

    def polyline(values, color: str) -> str:
        pts = " ".join(
            f"{sx(c):.2f},{sy(v):.2f}" for c, v in zip(counts, values)
        )
        return (f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                f'points="{pts}"/>')

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        f'stroke="black"/>',
    ]
    for c in counts:
        lines.append(
            f'<text x="{sx(c):.2f}" y="{height - bottom + 18}" '
            f'font-size="11" text-anchor="middle">{c}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        v = y_hi * frac
        lines.append(
            f'<text x="{left - 6}" y="{sy(v):.2f}" font-size="11" '
            f'text-anchor="end">{v:.3f}</text>'
        )
    lines.extend([
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">perturbation count</text>',
        f'<text x="16" y="{top + plot_h / 2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {top + plot_h / 2:.2f})"'
        f'>mean hard parity gap</text>',
        polyline(report.mean_vanilla, "#1f77b4"),
        polyline(report.mean_fair, "#d62728"),
        f'<text x="{width - right - 4}" y="{top + 14}" font-size="12" '
        f'text-anchor="end" fill="#1f77b4">{VARIANT_VANILLA}</text>',
        f'<text x="{width - right - 4}" y="{top + 30}" font-size="12" '
        f'text-anchor="end" fill="#d62728">{VARIANT_FAIR} '
        f'(lambda2={report.lambda2})</text>',
        "</svg>",
    ])
    return "\n".join(lines) + "\n"


REPORT_FORMATS = ("json", "csv", "svg-lines")


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline.

    JSON has no spelling for NaN or infinity, so a document holding one
    raises DataError, and the partly written file is removed.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except ValueError as exc:
        os.remove(path)
        raise DataError(f"report holds a non-finite number: {exc}") from exc


def emit_report(report, format: str, path) -> None:
    """Write a report deterministically in one of the supported formats.

    JSON carries the full structure; CSV one row per aggregate cell;
    svg-lines a two-polyline chart of mean parity gap against
    perturbation count (sweep reports only).
    """
    if format == "json":
        write_json(report.as_dict(), path)
    elif format == "csv":
        rows = report.cells()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(row.values())
    elif format == "svg-lines":
        if not isinstance(report, SweepReport):
            raise DataError("svg-lines output requires a sweep report")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_sweep_svg(report))
    else:
        raise DataError(
            f"unknown report format {format!r}; choose from {', '.join(REPORT_FORMATS)}"
        )
