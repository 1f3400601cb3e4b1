"""Command-line interface.

Subcommands: synth, train, explain, audit, sweep, boundary. Every
command is deterministic given its flags: all randomness flows from
--seed style flags, outputs are written with sorted keys and repr
floats, and no timestamps or environment state leak into them.

Exit codes: 0 success; 1 usage error; 2 data, file, or
metric-undefined error; 3 internal numeric failure.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .datasets import (SyntheticConfig, TabularDataset, feature_stats,
                       generate_synthetic, load_csv, write_csv)
from .errors import (DataError, MetricUndefinedError, ModelFormatError,
                     OptimizationError)
from .experiments import (emit_report, run_boundary_experiment,
                          run_perturbation_sweep, subsample_indices,
                          sweep_fair_config, write_json)
from .metrics import (DEMOGRAPHIC_PARITY, EQUAL_OPPORTUNITY, EQUALIZED_ODDS,
                      PREDICTIVE_PARITY, _check_epsilon, counterfactual_check,
                      fairness_mismatch, sensitive_importance)
from .models import (ThresholdOracle, TrainConfig, accuracy, load_model,
                     save_model, train_mlp)
from .neighborhood import (KernelConfig, Neighborhood,
                           sample_two_group_neighborhood)
from .objective import FairConfig, fair_explain_neighborhood
from .surrogate import ExplainConfig

ORACLE_KEYWORD = "oracle"

METRIC_ALIASES = {
    "dp": DEMOGRAPHIC_PARITY,
    "eodds": EQUALIZED_ODDS,
    "eopp": EQUAL_OPPORTUNITY,
    "ppar": PREDICTIVE_PARITY,
    DEMOGRAPHIC_PARITY: DEMOGRAPHIC_PARITY,
    EQUALIZED_ODDS: EQUALIZED_ODDS,
    EQUAL_OPPORTUNITY: EQUAL_OPPORTUNITY,
    PREDICTIVE_PARITY: PREDICTIVE_PARITY,
}


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with exit code 2; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--boundary-majority", type=float, default=5.0,
                   help="oracle threshold for group 1 (default 5.0)")
    p.add_argument("--boundary-minority", type=float, default=6.0,
                   help="oracle threshold for group 0 (default 6.0)")
    p.add_argument("--x1-col", type=int, default=2,
                   help="feature column the oracle thresholds (default 2)")


def _add_data_flags(p: argparse.ArgumentParser, with_label: bool = True) -> None:
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--group", default="g",
                   help="name of the binary group column (default g)")
    if with_label:
        p.add_argument("--label", default=None,
                       help="name of the binary label column, if any")


def _add_fair_flags(p: argparse.ArgumentParser, defaults: FairConfig) -> None:
    lambda1 = ExplainConfig().lambda1
    p.add_argument("--lambda1", type=float, default=lambda1,
                   help=f"price per active feature (default {lambda1})")
    p.add_argument("--polish-dirs", type=int, default=defaults.polish_dirs,
                   help="random directions of the polish pass (default "
                        f"{defaults.polish_dirs}; 0: coordinate axes only)")
    p.add_argument("--k", type=int, default=None,
                   help="sparsity budget (default: all features if at most "
                        "3, else 5)")
    p.add_argument("--width", type=float, default=None,
                   help="kernel width (default 0.75 * sqrt(n_features))")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairlime",
                     description="Local surrogate explanations with "
                                 "fairness-preservation auditing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the two-group synthetic CSV",
                       parents=[], add_help=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n", type=int, default=2000, help="row count")
    p.add_argument("--minority-frac", type=float, default=0.27)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0-shift", type=float, default=2.0)
    p.add_argument("--noise-std", type=float, default=0.25)
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the 3-layer MLP on labeled data")
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--hidden", default="16,8",
                   help="two comma-separated hidden widths (default 16,8)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="explain one row of a dataset")
    _add_data_flags(p)
    p.add_argument("--model", required=True,
                   help=f"model file path, or '{ORACLE_KEYWORD}' for the "
                        "threshold oracle")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--lambda2", type=float, default=FairConfig().lambda2,
                   help="parity-preservation penalty weight (0 disables)")
    p.add_argument("--perturbations", type=int, default=1000)
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-neighborhood", default=None, metavar="CSV",
                   help="also write the sampled neighborhood to this CSV")
    _add_fair_flags(p, FairConfig())
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("audit",
                       help="fairness-mismatch audit of local surrogates")
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--metric", required=True,
                   help="dp, eodds, eopp, or ppar (full names also accepted)")
    p.add_argument("--epsilon", type=float, default=0.05,
                   help="preservation tolerance (default 0.05)")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--points", type=int, default=50,
                   help="max rows audited, evenly spaced (default 50)")
    p.add_argument("--lambda2", type=float, default=0.0,
                   help="audit the penalized explainer instead of vanilla")
    p.add_argument("--perturbations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_fair_flags(p, FairConfig())
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep",
                       help="parity gap vs perturbation count, vanilla vs fair")
    _add_data_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--counts", required=True,
                   help="comma-separated ascending perturbation counts")
    p.add_argument("--seeds", type=int, required=True,
                   help="number of seeds (0..N-1)")
    p.add_argument("--out", required=True,
                   help="output path (.json, .csv, or .svg)")
    p.add_argument("--format", default=None, dest="format",
                   choices=("json", "csv", "svg-lines"),
                   help="override the format inferred from --out")
    p.add_argument("--lambda2", type=float, default=sweep_fair_config().lambda2)
    p.add_argument("--max-points", type=int, default=200,
                   help="fixed evenly spaced subsample size (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for descent start noise and polish directions")
    _add_fair_flags(p, sweep_fair_config())
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("boundary",
                       help="implied-boundary study on the synthetic scenario")
    p.add_argument("--minority-frac", type=float, default=0.27)
    p.add_argument("--seeds", type=int, required=True,
                   help="number of seeds (0..N-1)")
    p.add_argument("--out", required=True, help="output path (.json or .csv)")
    p.add_argument("--format", default=None, dest="format",
                   choices=("json", "csv"),
                   help="override the format inferred from --out")
    p.add_argument("--n", type=int, default=2000, help="rows per dataset")
    p.add_argument("--perturbations", type=int, default=5000)
    p.add_argument("--x0-shift", type=float, default=2.0)
    p.add_argument("--noise-std", type=float, default=0.25)
    p.add_argument("--lambda1", type=float, default=ExplainConfig().lambda1)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--width", type=float, default=None)
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_boundary)

    return parser


def _load_dataset(args) -> TabularDataset:
    return load_csv(args.data, args.group, getattr(args, "label", None))


def _model_for(args, ds: TabularDataset):
    if args.model == ORACLE_KEYWORD:
        return ThresholdOracle(
            boundary_majority=args.boundary_majority,
            boundary_minority=args.boundary_minority,
            group_col=ds.feature_group_col,
            x1_col=args.x1_col,
        )
    return load_model(args.model)


def _row_vector(ds: TabularDataset, row: int) -> np.ndarray:
    if not 0 <= row < ds.n_rows:
        raise DataError(f"row {row} out of range for {ds.n_rows} rows")
    return ds.features[row]


def _infer_format(path: str, explicit: str | None, sweep: bool) -> str:
    """--format, else the suffix's format; only a sweep writes svg-lines."""
    fmt = explicit
    for suffix, name in ((".json", "json"), (".csv", "csv"), (".svg", "svg-lines")):
        if fmt is None and path.endswith(suffix):
            fmt = name
    if fmt is None:
        raise DataError(f"cannot infer a report format from {path!r}; pass --format")
    if fmt == "svg-lines" and not sweep:
        raise DataError("svg-lines output requires a sweep report")
    return fmt


def _dump_neighborhood(nb: Neighborhood, path: str) -> None:
    rows = np.column_stack([nb.samples, nb.distances, nb.weights,
                            nb.f_scores, nb.f_preds])
    write_csv(TabularDataset(
        nb.feature_names + ("distance", "weight", "f_score", "f_pred"),
        rows, group_col=nb.group_col), path)


def _synthetic_config(args, seed: int) -> SyntheticConfig:
    """The scenario of the synth and boundary flags."""
    return SyntheticConfig(
        n_rows=args.n,
        minority_fraction=args.minority_frac,
        boundary_majority=args.boundary_majority,
        boundary_minority=args.boundary_minority,
        x0_group_shift=args.x0_shift,
        noise_std=args.noise_std,
        seed=seed,
    )


def cmd_synth(args) -> int:
    ds = generate_synthetic(_synthetic_config(args, args.seed))
    oracle = ThresholdOracle(
        boundary_majority=args.boundary_majority,
        boundary_minority=args.boundary_minority,
        group_col=0,
        x1_col=args.x1_col,
    )
    labels = oracle.predict(ds.rows)
    labeled = TabularDataset(
        feature_names=ds.feature_names + ("y",),
        rows=np.column_stack([ds.rows, labels]),
        group_col=ds.group_col,
        label_col=ds.n_cols,
    )
    write_csv(labeled, args.out)
    minority = float(np.mean(labeled.groups == 0.0))
    print(f"wrote {args.out}: {labeled.n_rows} rows, "
          f"empirical minority fraction {minority!r}")
    return 0


def cmd_train(args) -> int:
    if args.label is None:
        raise DataError("train requires --label")
    ds = _load_dataset(args)
    hidden = tuple(int(h) for h in args.hidden.split(","))
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        hidden_widths=hidden,
        seed=args.seed,
    )
    model = train_mlp(ds, cfg)
    save_model(model, args.model)
    acc = accuracy(model.predict(ds.features), ds.labels)
    final = model.loss_history[-1] if model.loss_history else model.loss(
        ds.features, ds.labels)
    print(f"wrote {args.model}: {args.epochs} epochs, "
          f"final loss {final!r}, training accuracy {acc!r}")
    return 0


def _fair_config(args, lambda2: float) -> FairConfig:
    return FairConfig(
        lambda2=lambda2,
        polish_dirs=args.polish_dirs,
        seed=args.seed,
    )


def cmd_explain(args) -> int:
    ds = _load_dataset(args)
    model = _model_for(args, ds)
    stats = feature_stats(ds)
    x = _row_vector(ds, args.row)
    kc = KernelConfig(n_samples=args.perturbations, width=args.width)
    cfg = ExplainConfig(n_features=args.k, lambda1=args.lambda1)
    fair = _fair_config(args, args.lambda2)
    cfg.resolve_budget(stats.n_features)  # a bad --k fails before sampling
    nb = sample_two_group_neighborhood(x, stats, model, kc, args.seed)
    if args.dump_neighborhood:
        _dump_neighborhood(nb, args.dump_neighborhood)
    explanation = fair_explain_neighborhood(nb, cfg, fair)
    doc = explanation.as_dict()
    doc["row"] = args.row
    write_json(doc, args.out)
    print(f"wrote {args.out}: row {args.row}, "
          f"objective {explanation.objective!r}, "
          f"psi_hard {explanation.psi_hard!r}")
    return 0


def cmd_audit(args) -> int:
    kind = METRIC_ALIASES.get(args.metric)
    if kind is None:
        raise DataError(
            f"unknown metric {args.metric!r}; choose from "
            f"{', '.join(sorted(set(METRIC_ALIASES)))}"
        )
    ds = _load_dataset(args)
    if kind != DEMOGRAPHIC_PARITY and ds.labels is None:
        raise DataError(f"{kind} requires --label (ground truth)")
    model = _model_for(args, ds)
    stats = feature_stats(ds)
    kc = KernelConfig(n_samples=args.perturbations)
    cfg = ExplainConfig(n_features=args.k, lambda1=args.lambda1)
    fair = _fair_config(args, args.lambda2)
    indices = subsample_indices(ds.n_rows, args.points)
    cfg.resolve_budget(stats.n_features)  # a bad --k fails before sampling
    _check_epsilon(args.epsilon)
    X = ds.features
    # Labeled metrics compare against the black box's predictions on
    # the whole dataset, which are the same for every audited row.
    dataset_preds = None if kind == DEMOGRAPHIC_PARITY else model.predict(X)
    rows = []
    for pi, row in enumerate(indices):
        x = X[row]
        nb = sample_two_group_neighborhood(x, stats, model, kc,
                                           (args.seed, int(pi)))
        explanation = fair_explain_neighborhood(nb, cfg, fair)
        if kind == DEMOGRAPHIC_PARITY:
            # Local audit on the explanation's own neighborhood.
            report = fairness_mismatch(
                kind, nb.f_preds, explanation.predict(nb.samples),
                nb.groups, epsilon=args.epsilon,
            )
        else:
            # Labeled metrics need ground truth, which sampled
            # neighborhoods lack; audit globally over the dataset.
            report = fairness_mismatch(
                kind, dataset_preds, explanation.predict(X),
                ds.groups, ds.labels, epsilon=args.epsilon,
            )
        flip = counterfactual_check(model, explanation, x,
                                    ds.feature_group_col)
        importance = sensitive_importance(explanation, ds.feature_group_col)
        doc = report.as_dict()
        doc["row"] = int(row)
        doc["counterfactual"] = flip.as_dict()
        doc["sensitive_importance"] = importance.as_dict()
        rows.append(doc)
    mismatches = [r["mismatch"] for r in rows]
    preserved = [r["preserved"] for r in rows]
    out = {
        "metric": kind,
        "population": "neighborhood" if kind == DEMOGRAPHIC_PARITY else "dataset",
        "epsilon": args.epsilon,
        "lambda2": args.lambda2,
        "perturbations": args.perturbations,
        "seed": args.seed,
        "rows": rows,
        "aggregate": {
            "audited": len(rows),
            "mean_mismatch": float(np.mean(mismatches)),
            "max_mismatch": float(np.max(mismatches)),
            "preserved_fraction": float(np.mean(preserved)),
        },
    }
    write_json(out, args.out)
    print(f"wrote {args.out}: {len(rows)} rows audited, "
          f"mean mismatch {out['aggregate']['mean_mismatch']!r}, "
          f"preserved fraction {out['aggregate']['preserved_fraction']!r}")
    return 0


def cmd_sweep(args) -> int:
    ds = _load_dataset(args)
    model = _model_for(args, ds)
    counts = [int(c) for c in args.counts.split(",") if c.strip()]
    cfg = ExplainConfig(n_features=args.k, lambda1=args.lambda1)
    fair = _fair_config(args, args.lambda2)
    cfg.resolve_budget(ds.features.shape[1])  # a bad --k fails before sampling
    fmt = _infer_format(args.out, args.format, sweep=True)
    report = run_perturbation_sweep(
        ds, model, counts, cfg, fair, range(args.seeds),
        max_points=args.max_points,
    )
    emit_report(report, fmt, args.out)
    print(f"wrote {args.out}: counts {','.join(str(c) for c in report.counts)}, "
          f"final vanilla psi {report.mean_vanilla[-1]!r}, "
          f"final fair psi {report.mean_fair[-1]!r}, "
          f"skipped {report.skipped}")
    return 0


def cmd_boundary(args) -> int:
    cfg = _synthetic_config(args, seed=0)
    kc = KernelConfig(n_samples=args.perturbations, width=args.width)
    explain_cfg = ExplainConfig(n_features=args.k, lambda1=args.lambda1)
    fmt = _infer_format(args.out, args.format, sweep=False)
    report = run_boundary_experiment(cfg, kc, explain_cfg, range(args.seeds))
    emit_report(report, fmt, args.out)
    side = "majority" if report.closer_to_majority else "minority"
    print(f"wrote {args.out}: mean implied boundary "
          f"{report.mean_boundary!r}, closer to the {side} threshold, "
          f"excluded {report.excluded}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (DataError, MetricUndefinedError, ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OptimizationError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
