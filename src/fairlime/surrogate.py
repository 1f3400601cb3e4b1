"""Sparse local linear surrogates fit to a black box over a neighborhood.

The surrogate g(z) = b + w . z is fit by weighted least squares against
the black box's scores, with greedy forward selection down to a sparsity
budget K. The reported objective is

    fidelity + lambda1 * complexity (+ lambda2 * parity gap, when used)

where fidelity is the kernel-weighted mean squared error, complexity is
the active-set size, and the parity gap compares demographic parity of
the thresholded surrogate against the black box's.

``FitProblem`` is that fit on a fixed active set. Each fit sets one up
once and greedy selection grows it: a FitProblem for the plain fit, its
penalized subclass (objective.py) for the solver and the grid oracle.
Its ``explanation_fields`` builds every explanation.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DataError, OptimizationError
from .metrics import demographic_parity
from .neighborhood import KernelConfig, Neighborhood, sample_neighborhood

# Unconditional diagonal damping on the weight block of the normal
# equations. Purely numerical conditioning for duplicated or constant
# columns; not part of the reported complexity or objective.
RIDGE_DAMPING = 1e-8


def default_sparsity(n_features: int) -> int:
    """All features for tiny synthetic spaces, 5 otherwise."""
    return n_features if n_features <= 3 else 5


@dataclass(frozen=True)
class ExplainConfig:
    """Sparsity budget and complexity price for the local fit.

    ``n_features`` of None resolves per dataset via default_sparsity.
    ``lambda1`` prices each active feature in the reported objective; it
    does not bend the least-squares fit itself.
    """

    n_features: int | None = None
    lambda1: float = 0.01

    def __post_init__(self):
        if self.n_features is not None and self.n_features < 1:
            raise ValueError("n_features must be at least 1")
        if not 0.0 <= self.lambda1 < np.inf:
            raise ValueError("lambda1 must be finite and nonnegative")

    def resolve_budget(self, n_features: int) -> int:
        budget = self.n_features
        if budget is None:
            budget = default_sparsity(n_features)
        if budget > n_features:
            raise DataError(
                f"sparsity budget {budget} exceeds {n_features} features"
            )
        return budget


def _seed_json(seed):
    return list(seed) if isinstance(seed, tuple) else seed


@dataclass(frozen=True)
class Explanation:
    """A fitted sparse linear surrogate with its objective breakdown.

    ``coefficients`` is full-width with exact zeros off the active set.
    ``active`` records the selection order; ``predict_score`` takes the
    active columns in that order, the same matrix product the fit
    scored, so an explanation predicts exactly what its fit counted.
    ``psi_hard`` is None when the fitting neighborhood lacked one of the
    groups (the parity gap is undefined there, never silently zero).
    """

    feature_names: tuple[str, ...]
    center: np.ndarray
    active: tuple[int, ...]
    intercept: float
    coefficients: np.ndarray
    lambda1: float
    lambda2: float
    n_samples: int
    kernel_width: float
    seed: object
    loss: float
    complexity: int
    psi_hard: float | None
    objective: float

    def __post_init__(self):
        for name in ("center", "coefficients"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "active", tuple(int(j) for j in self.active))
        width = len(self.feature_names)
        if self.coefficients.shape != (width,) or self.center.shape != (width,):
            raise DataError("coefficient or center width does not match names")

    def predict_score(self, X: np.ndarray) -> np.ndarray:
        """``intercept + X[:, active] @ coefficients[active]``, with
        ``active`` in selection order."""
        active = list(self.active)
        X = np.asarray(X, dtype=float)
        return self.intercept + X[:, active] @ self.coefficients[active]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Hard labels: score at or above 0.5 predicts 1."""
        return (self.predict_score(X) >= 0.5).astype(float)

    def ranked_features(self) -> list[tuple[str, float]]:
        """Active (name, coefficient) pairs, largest magnitude first."""
        order = sorted(self.active, key=lambda j: (-abs(self.coefficients[j]), j))
        return [(self.feature_names[j], float(self.coefficients[j])) for j in order]

    def as_dict(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "center": [float(v) for v in self.center],
            "active_features": [self.feature_names[j] for j in self.active],
            "intercept": self.intercept,
            "coefficients": {
                self.feature_names[j]: float(self.coefficients[j])
                for j in self.active
            },
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "n_samples": self.n_samples,
            "kernel_width": self.kernel_width,
            "seed": _seed_json(self.seed),
            "objective_breakdown": {
                "fidelity": self.loss,
                "complexity": self.complexity,
                "psi_hard": self.psi_hard,
            },
            "objective": self.objective,
        }


def fidelity_loss(explanation, nb: Neighborhood) -> float:
    """Kernel-weighted mean squared error against the black-box scores,
    the ``loss`` a fit on ``nb`` reports; invariant under rescaling the
    kernel weights."""
    return FitProblem(nb).loss(explanation.predict_score(nb.samples))


class FitProblem:
    """The kernel-weighted fit of the black box's scores on a fixed
    active set, with beta = [intercept, weights over the active columns].

    ``wn`` are the kernel weights normalized to sum 1, so the fidelity
    is invariant under rescaling them. Where both groups are present,
    or ``require_groups`` demands them (raising MetricUndefinedError
    otherwise, DataError without a group column), the problem carries
    the group masks and sizes and the black box's ``dp_blackbox``.
    """

    def __init__(self, nb: Neighborhood, active=(), require_groups: bool = False):
        self.nb = nb
        self.active = tuple(active)
        self.cols = nb.samples[:, list(self.active)]
        self.targets = nb.f_scores
        self.wn = nb.weights / np.sum(nb.weights)
        self.has_groups = require_groups or nb.has_both_groups()
        if self.has_groups:
            groups = nb.groups
            self.mask1 = groups == 1.0
            self.mask0 = ~self.mask1
            self.n1 = int(np.count_nonzero(self.mask1))
            self.n0 = int(np.count_nonzero(self.mask0))
            self.dp_blackbox = demographic_parity(nb.f_preds, groups)

    def with_active(self, active) -> FitProblem:
        """The same fit on the active set ``active``; weights and group
        fields are shared, not recomputed."""
        problem = copy.copy(self)
        problem.active = tuple(active)
        problem.cols = self.nb.samples[:, list(problem.active)]
        return problem

    def normal_equations(self, damped: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The weighted Gram matrix of the design [1, cols] and the
        right-hand side of the weighted normal equations; ``damped`` adds
        RIDGE_DAMPING to the weights' diagonal only, so an intercept-only
        fit stays the exact weighted mean."""
        design = np.column_stack([np.ones(self.cols.shape[0]), self.cols])
        weighted = design.T * self.wn
        gram = weighted @ design
        if damped:
            k = self.cols.shape[1]
            gram[np.arange(1, k + 1), np.arange(1, k + 1)] += RIDGE_DAMPING
        return gram, weighted @ self.targets

    def solve(self) -> np.ndarray:
        """The damped least-squares parameters [intercept, weights]."""
        gram, rhs = self.normal_equations(damped=True)
        try:
            return np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            raise OptimizationError(
                "normal equations are singular despite damping"
            ) from None

    def scores(self, beta: np.ndarray) -> np.ndarray:
        return beta[0] + self.cols @ beta[1:]

    def loss(self, scores: np.ndarray) -> float:
        """Kernel-weighted mean squared error of ``scores``."""
        r = scores - self.targets
        return float(np.sum(self.wn * r * r))

    def hard_dp(self, scores: np.ndarray) -> float:
        """Group 1's positive rate minus group 0's, each a count over the
        group size: bit for bit what metrics.demographic_parity returns
        for the thresholded scores."""
        positive = scores >= 0.5
        return (int(np.count_nonzero(positive & self.mask1)) / self.n1
                - int(np.count_nonzero(positive & self.mask0)) / self.n0)

    def explanation_fields(self, beta: np.ndarray, loss: float,
                           dp_hard: float | None, lambda1: float,
                           lambda2: float = 0.0) -> dict:
        """The Explanation fields of parameters ``beta``, whose fidelity
        is ``loss`` and whose surrogate parity is ``dp_hard`` (None
        without both groups, which leaves psi_hard None). The objective
        prices the parity gap only when ``lambda2`` is nonzero."""
        nb = self.nb
        coefficients = np.zeros(nb.n_features)
        coefficients[list(self.active)] = beta[1:]
        psi_hard = None if dp_hard is None else abs(self.dp_blackbox - dp_hard)
        objective = loss + lambda1 * len(self.active)
        if lambda2:
            objective += lambda2 * psi_hard
        return dict(
            feature_names=nb.feature_names,
            center=nb.center,
            active=self.active,
            intercept=float(beta[0]),
            coefficients=coefficients,
            lambda1=lambda1,
            lambda2=lambda2,
            n_samples=nb.n_samples,
            kernel_width=nb.kernel_width,
            seed=nb.seed,
            loss=loss,
            complexity=len(self.active),
            psi_hard=psi_hard,
            objective=objective,
        )


def greedy_feature_selection(root: FitProblem,
                             budget: int) -> tuple[FitProblem, np.ndarray, float]:
    """Forward selection from ``root``, a problem with no active
    features: repeatedly add the feature whose refit most reduces the
    weighted mean squared error, breaking ties toward the lower index.

    Returns ``root`` on the selected features in selection order (a
    with_active copy, so a subclass keeps its fields), its parameters
    and their fidelity: the last round's winning solve, which is the fit.
    """
    problem, best = root, None
    for _ in range(budget):
        best = None
        for j in range(root.nb.n_features):
            if j in problem.active:
                continue
            candidate = problem.with_active(problem.active + (j,))
            beta = candidate.solve()
            loss = candidate.loss(candidate.scores(beta))
            if best is None or loss < best[2] - 1e-15:
                best = (candidate, beta, loss)
        problem = best[0]
    return best


def explain_neighborhood(nb: Neighborhood, cfg: ExplainConfig) -> Explanation:
    """Fit a sparse surrogate to an already-sampled neighborhood.

    The parity gap against the black box is attached when both groups
    are present; otherwise psi_hard is None and only the fidelity and
    complexity terms enter the objective.
    """
    budget = cfg.resolve_budget(nb.n_features)
    problem, beta, loss = greedy_feature_selection(FitProblem(nb), budget)
    dp_hard = problem.hard_dp(problem.scores(beta)) if problem.has_groups else None
    return Explanation(**problem.explanation_fields(beta, loss, dp_hard,
                                                    cfg.lambda1))


def lime_explain(f, x, stats, kc: KernelConfig, cfg: ExplainConfig, seed) -> Explanation:
    """Sample a neighborhood around ``x`` and fit the sparse surrogate.

    Deterministic per seed: the same (x, stats, kc, cfg, seed) always
    yields the same explanation.
    """
    nb = sample_neighborhood(x, stats, f, kc, seed)
    return explain_neighborhood(nb, cfg)


def implied_boundary(explanation: Explanation, feature_index: int) -> float:
    """The feature value where the surrogate crosses score 0.5 with all
    other features held at the explanation's center values."""
    coefs = explanation.coefficients
    if not 0 <= feature_index < coefs.shape[0]:
        raise DataError(f"feature index {feature_index} out of range")
    w = float(coefs[feature_index])
    if w == 0.0:
        raise DataError(
            f"feature {explanation.feature_names[feature_index]!r} has zero "
            "weight; no implied boundary"
        )
    others = float(coefs @ explanation.center) - w * float(explanation.center[feature_index])
    return (0.5 - explanation.intercept - others) / w
