"""Local surrogate explanations with fairness-preservation auditing.

Perturbation-based local linear surrogates for black-box classifiers
on tabular data with a binary sensitive attribute, plus group fairness
metrics, mismatch audits between model and explanation, and a
parity-preservation penalty for the surrogate fit itself.
"""
from .datasets import (FeatureStats, SyntheticConfig, TabularDataset,
                       feature_stats, generate_synthetic, load_csv, split,
                       write_csv)
from .errors import (DataError, MetricUndefinedError, ModelFormatError,
                     OptimizationError)
from .experiments import (BoundaryReport, SweepReport, emit_report,
                          run_boundary_experiment, run_perturbation_sweep,
                          sweep_fair_config)
from .metrics import (CounterfactualReport, MetricResult, MismatchReport,
                      SensitiveImportanceReport, counterfactual_check,
                      demographic_parity, evaluate_metric, fairness_mismatch,
                      sensitive_importance)
from .models import (LogisticModel, MLP, ThresholdOracle, TrainConfig,
                     accuracy, gradient_check, load_model, save_model,
                     train_mlp)
from .neighborhood import (KernelConfig, Neighborhood, flip_group,
                           kernel_weights, sample_neighborhood,
                           sample_two_group_neighborhood)
from .objective import (FairConfig, FairExplanation, GridSpec,
                        fair_explain_neighborhood, fair_lime_explain,
                        grid_search_oracle, smoothed_objective,
                        smoothed_objective_gradient)
from .surrogate import (ExplainConfig, Explanation, explain_neighborhood,
                        fidelity_loss, implied_boundary, lime_explain)

__version__ = "0.1.0"

__all__ = [
    "BoundaryReport", "CounterfactualReport", "DataError", "ExplainConfig",
    "Explanation", "FairConfig", "FairExplanation", "FeatureStats",
    "GridSpec", "KernelConfig", "LogisticModel", "MLP", "MetricResult",
    "MetricUndefinedError", "MismatchReport", "ModelFormatError",
    "Neighborhood", "OptimizationError",
    "SensitiveImportanceReport", "SweepReport", "SyntheticConfig",
    "TabularDataset", "ThresholdOracle", "TrainConfig", "accuracy",
    "counterfactual_check", "demographic_parity", "emit_report",
    "evaluate_metric", "explain_neighborhood", "fair_explain_neighborhood",
    "fair_lime_explain", "fairness_mismatch", "feature_stats",
    "fidelity_loss", "flip_group", "generate_synthetic", "gradient_check",
    "grid_search_oracle", "implied_boundary",
    "kernel_weights", "lime_explain", "load_csv", "load_model",
    "run_boundary_experiment",
    "run_perturbation_sweep", "sample_neighborhood",
    "sample_two_group_neighborhood", "save_model", "sensitive_importance",
    "smoothed_objective", "smoothed_objective_gradient", "split",
    "sweep_fair_config", "train_mlp", "write_csv",
]
