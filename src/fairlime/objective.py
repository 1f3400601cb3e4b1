"""Fairness-preserving local surrogates.

Extends the sparse local surrogate with a demographic-parity
preservation penalty. The full objective on a fixed active set is

    fidelity + lambda1 * complexity + lambda2 * psi

where psi is the absolute gap between the black box's demographic
parity over the neighborhood and the thresholded surrogate's. psi is a
step function of the surrogate parameters, so a descent scaled by the
fidelity's curvature runs on a sigmoid-relaxed psi (temperature TAU)
and an exact line-search polish then attacks the thresholded objective
directly. Output always reports the hard psi; the smooth proxy is only
a diagnostic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DataError, OptimizationError
from .neighborhood import KernelConfig, Neighborhood, sample_two_group_neighborhood
from .oracle import certified_minimum, lattice_minimum
from .surrogate import (ExplainConfig, Explanation, FitProblem,
                        greedy_feature_selection)

ARMIJO_C1 = 1e-4
# Scale of the Gaussian noise that moves the second descent start.
RESTART_NOISE = 0.1
# Most steps of each of the two descents.
DESCENT_STEPS = 12
# Temperature of the sigmoid that relaxes the parity gap, on the score
# scale.
TAU = 0.05
MAX_BACKTRACKS = 60
SLOPE_TOL = 1e-16
REL_IMPROVE_TOL = 1e-12

# Coordinate-polish candidates beyond this magnitude are discarded; a
# surrogate weight this size only arises from a degenerate quadratic.
POLISH_CANDIDATE_BOUND = 1e9


@dataclass(frozen=True)
class FairConfig:
    """Knobs for the parity-preservation penalty and its optimizer.

    ``lambda2`` prices the parity gap; 0 turns the penalty off and the
    solve reduces exactly to the plain surrogate. ``seed`` draws the
    second descent start and the polish's random lines; ``polish_dirs``
    is their number (0: axes only, cheaper, but unable to cross cell
    corners of the piecewise-constant parity term). The rest of the
    solver is fixed: two Gram-scaled descents of at most
    ``DESCENT_STEPS`` steps, one polish pass and, for up to two active
    features, a certified lattice scan (fair_explain_neighborhood).
    """

    lambda2: float = 5.0
    polish_dirs: int = 48
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lambda2 < np.inf:
            raise ValueError("lambda2 must be finite and nonnegative")
        if self.polish_dirs < 0:
            raise ValueError("polish_dirs must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


class _FairProblem(FitProblem):
    """Fidelity plus parity penalty on a fixed active set, which needs
    both groups. The complexity term is constant there and omitted;
    callers add lambda1 * |active| when reporting objectives.
    """

    def __init__(self, nb: Neighborhood, active, lambda2: float, tau: float):
        super().__init__(nb, active, require_groups=True)
        # Signed per-sample contribution to the group rate difference.
        self.gsign = np.where(self.mask1, 1.0 / self.n1, -1.0 / self.n0)
        self.lambda2 = lambda2
        self.tau = tau
        self._newton = None

    def with_active(self, active) -> _FairProblem:
        problem = super().with_active(active)
        problem._newton = None
        return problem

    def newton_direction(self, grad: np.ndarray) -> np.ndarray:
        """-(2G)^-1 grad, with G the damped Gram matrix of solve(), inverted
        once per active set. 2G is the fidelity's exact Hessian, so with
        lambda2 = 0 one step of 1 lands on the least-squares fit."""
        if self._newton is None:
            self._newton = -0.5 * np.linalg.inv(self.normal_equations(damped=True)[0])
        return self._newton @ grad

    def smooth_dp(self, scores: np.ndarray) -> float:
        return float(np.sum(self.gsign * expit((scores - 0.5) / self.tau)))

    def hard_value(self, beta: np.ndarray) -> float:
        scores = self.scores(beta)
        return self.loss(scores) + self.lambda2 * abs(
            self.dp_blackbox - self.hard_dp(scores)
        )

    def smooth_value(self, beta: np.ndarray) -> float:
        scores = self.scores(beta)
        return self.loss(scores) + self.lambda2 * abs(
            self.dp_blackbox - self.smooth_dp(scores)
        )

    def smooth_gradient(self, beta: np.ndarray) -> np.ndarray:
        scores = self.scores(beta)
        r = self.wn * (scores - self.targets)
        grad = 2.0 * np.concatenate([[np.sum(r)], self.cols.T @ r])
        s = expit((scores - 0.5) / self.tau)
        gap = self.dp_blackbox - float(np.sum(self.gsign * s))
        # Subgradient of |gap| in the surrogate's parity; sign(0) is 0.
        slope = -np.sign(gap) * self.gsign * s * (1.0 - s) / self.tau
        grad += self.lambda2 * np.concatenate([[np.sum(slope)], self.cols.T @ slope])
        return grad


def smoothed_objective(beta, nb: Neighborhood, active, lambda2: float,
                       tau: float) -> float:
    """Fidelity plus lambda2 times the sigmoid-relaxed parity gap; the
    complexity term, constant on a fixed active set, is excluded."""
    return _FairProblem(nb, active, lambda2, tau).smooth_value(
        np.asarray(beta, dtype=float))


def smoothed_objective_gradient(beta, nb: Neighborhood, active, lambda2: float,
                                tau: float) -> np.ndarray:
    """Analytic gradient of smoothed_objective over [intercept, weights]."""
    problem = _FairProblem(nb, active, lambda2, tau)
    return problem.smooth_gradient(np.asarray(beta, dtype=float))


def _descend(problem: _FairProblem, start: np.ndarray,
             restart_index: int) -> np.ndarray:
    """At most DESCENT_STEPS steps along _FairProblem.newton_direction
    with an Armijo backtracking search on the slope ``grad @ direction``:
    the step starts at 1, halves on each rejection and doubles after
    each accepted step, up to 1. Monotone, so the result never scores
    worse than the start."""
    beta = np.array(start, dtype=float)
    value = problem.smooth_value(beta)
    if not np.isfinite(value):
        raise OptimizationError("non-finite objective at descent start",
                                restart_index=restart_index)
    step = 1.0
    for _ in range(DESCENT_STEPS):
        grad = problem.smooth_gradient(beta)
        direction = problem.newton_direction(grad)
        slope = float(grad @ direction)
        if not np.isfinite(slope):
            raise OptimizationError("non-finite gradient during descent",
                                    restart_index=restart_index)
        if slope >= -SLOPE_TOL:
            break
        for _ in range(MAX_BACKTRACKS):
            cand = beta + step * direction
            cval = problem.smooth_value(cand)
            if np.isfinite(cval) and cval <= value + ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            break
        improvement = value - cval
        beta, value = cand, cval
        if improvement <= REL_IMPROVE_TOL * max(1.0, abs(value)):
            break
        step = min(step * 2.0, 1.0)
    return beta


# Offsets the polish random stream from the restart-noise stream.
_POLISH_STREAM = 7919


def _line_minimum(problem: _FairProblem, design: np.ndarray, beta: np.ndarray,
                  direction: np.ndarray) -> float:
    """Exact minimizing offset of the hard objective along a line.

    Along ``beta + t * direction`` the fidelity term is a quadratic
    polynomial in t while each sample's predicted label flips at most
    once, where its score crosses 0.5, so the hard parity gap is
    piecewise constant with breakpoints t = (0.5 - score) / slope.
    Candidates, in this order, are the current point, the breakpoints,
    their upper and their lower floating-point neighbours, and the
    quadratic's vertex; argmin breaks ties toward the earliest. The
    parity at every candidate comes from one sort of the breakpoints
    and cumulative per-group counts (_candidate_parity), so a line
    costs O(n log n). Returns the best offset t, 0.0 for no move.
    """
    base = design @ beta
    slope = design @ direction
    resid = base - problem.targets
    q2 = float(np.sum(problem.wn * slope * slope))
    q1 = float(np.sum(problem.wn * slope * resid))
    q0 = float(np.sum(problem.wn * resid * resid))
    moving = slope != 0.0
    # A subnormal slope overflows to an infinite breakpoint, which the
    # bound filter below drops.
    with np.errstate(over="ignore"):
        brk = (0.5 - base[moving]) / slope[moving]
    vertex = [-q1 / q2] if q2 > 0.0 else []
    ts = np.concatenate([[0.0], brk, np.nextafter(brk, np.inf),
                         np.nextafter(brk, -np.inf), vertex])
    dp = _candidate_parity(problem, base, slope, moving, ts)
    keep = np.isfinite(ts) & (np.abs(ts) <= POLISH_CANDIDATE_BOUND)
    ts = ts[keep]
    fidelity = q2 * ts * ts + 2.0 * q1 * ts + q0
    values = fidelity + problem.lambda2 * np.abs(problem.dp_blackbox - dp[keep])
    return float(ts[int(np.argmin(values))])


def _candidate_parity(problem: _FairProblem, base: np.ndarray,
                      slope: np.ndarray, moving: np.ndarray,
                      ts: np.ndarray) -> np.ndarray:
    """The surrogate's hard parity at each of _line_minimum's candidates.

    One argsort of the breakpoints does the counting. A rising sample
    is positive at t when its breakpoint is at most t, a falling one
    when its breakpoint is at least t, so cumulative sums of the
    per-group rising and falling indicators in sorted order give each
    group's positive count inside every gap between consecutive
    distinct breakpoints and at every breakpoint value. A neighbour
    lies in the gap next to its breakpoint unless it is a breakpoint
    itself; searchsorted places the current point and the vertex. Each
    parity is group 1's count over n1 minus group 0's over n0, as in
    FitProblem.hard_dp, scattered back to candidate order.
    """
    m = np.count_nonzero(moving)
    brk = ts[1:1 + m]
    order = np.argsort(brk)
    sorted_brk = brk[order]
    # Sorted position i lies in the run [lo[i], hi[i]) of equal
    # breakpoints; lo and hi continue with the ranks of the current
    # point and the vertex.
    new_run = np.empty(m, dtype=bool)
    new_run[:1] = True
    np.not_equal(sorted_brk[1:], sorted_brk[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    run = np.cumsum(new_run) - 1
    # The vertex, when there is one, is the last candidate.
    point_vertex = ts[[0, -1]] if ts.size > 3 * m + 1 else ts[:1]
    lo = np.concatenate([starts[run],
                         np.searchsorted(sorted_brk, point_vertex, side="left")])
    hi = np.concatenate([np.append(starts[1:], m)[run],
                         np.searchsorted(sorted_brk, point_vertex, side="right")])
    sorted_slope = slope[moving][order]
    rising = sorted_slope > 0.0
    falling = sorted_slope < 0.0
    in1 = problem.mask1[moving][order]
    still_positive = ~moving & (base >= 0.5)
    # gap[k]: a group's positive count at t strictly inside gap k,
    # between sorted positions k - 1 and k; on: at t with lo
    # breakpoints below it and hi at or below it.
    gap, on = [], []
    for sub, mask in ((in1, problem.mask1), (~in1, problem.mask0)):
        up = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(rising & sub, out=up[1:])
        down = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(falling & sub, out=down[1:])
        offset = np.count_nonzero(mask & still_positive) + down[-1]
        gap.append(offset + up - down)
        on.append(offset + up[hi] - down[lo])
    dp_gap = gap[0] / problem.n1 - gap[1] / problem.n0
    dp_on = on[0] / problem.n1 - on[1] / problem.n0
    nxt = np.minimum(hi[:m], m - 1)
    dp_above = np.where(sorted_brk[nxt] == ts[1 + m:1 + 2 * m][order],
                        dp_on[nxt], dp_gap[hi[:m]])
    prv = np.maximum(lo[:m] - 1, 0)
    dp_below = np.where(sorted_brk[prv] == ts[1 + 2 * m:1 + 3 * m][order],
                        dp_on[prv], dp_gap[lo[:m]])
    dp = np.empty_like(ts)
    dp[0] = dp_on[m]
    dp[1 + 3 * m:] = dp_on[m + 1:]
    for block, values in enumerate((dp_on[:m], dp_above, dp_below)):
        dp[1 + block * m + order] = values
    return dp


def _polish(problem: _FairProblem, design: np.ndarray, start: np.ndarray,
            anchor: np.ndarray, extra_dirs: int, seed) -> np.ndarray:
    """Polish a point by exact line minimization of the hard objective.

    One pass sweeps the coordinate axes and, when ``extra_dirs`` is
    positive, then the direction from ``start`` toward ``anchor`` (the
    plain least-squares fit) and ``extra_dirs`` random unit directions
    drawn from ``seed``. Coordinate sweeps alone stall on cell corners
    of the piecewise constant parity term; oblique lines can cross
    them. A move needs strict improvement of the exact objective, so
    the polish never leaves its start worse.
    """
    beta = np.array(start, dtype=float)
    best = problem.hard_value(beta)
    rng = np.random.default_rng(seed)
    directions = list(np.eye(beta.size))
    if extra_dirs > 0:
        gap = anchor - beta
        norm = float(np.linalg.norm(gap))
        if norm > 0.0:
            directions.append(gap / norm)
    for _ in range(extra_dirs):
        vec = rng.standard_normal(beta.size)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            directions.append(vec / norm)
    for direction in directions:
        t = _line_minimum(problem, design, beta, direction)
        if t == 0.0:
            continue
        cand = beta + t * direction
        value = problem.hard_value(cand)
        if value < best:
            beta, best = cand, value
    return beta


@dataclass(frozen=True)
class FairExplanation(Explanation):
    """A surrogate fit under the parity-preservation penalty.

    ``objective`` prices the hard parity gap; ``objective_smooth`` is
    the same expression with the sigmoid-relaxed gap and exists so the
    optimizer's own yardstick stays inspectable. ``psi_vanilla`` is the
    hard parity gap of the plain surrogate on the same neighborhood, so
    one fit carries both sides of the comparison; ``as_dict`` leaves it
    out.
    """

    tau: float
    dp_blackbox: float
    dp_surrogate_hard: float
    dp_surrogate_smooth: float
    psi_smooth: float
    objective_smooth: float
    psi_vanilla: float

    def as_dict(self) -> dict:
        doc = super().as_dict()
        doc["tau"] = self.tau
        doc["objective_smooth"] = self.objective_smooth
        doc["objective_breakdown"].update(
            {
                "psi_smooth": self.psi_smooth,
                "dp_blackbox": self.dp_blackbox,
                "dp_surrogate_hard": self.dp_surrogate_hard,
                "dp_surrogate_smooth": self.dp_surrogate_smooth,
            }
        )
        return doc


def _assemble(problem: _FairProblem, beta: np.ndarray, v_beta: np.ndarray,
              cfg: ExplainConfig, fair: FairConfig) -> FairExplanation:
    """The explanation with parameters ``beta`` on ``problem``, whose
    plain (vanilla) fit is ``v_beta``; every FairExplanation is built
    here, on FitProblem's base fields."""
    psi_vanilla = abs(problem.dp_blackbox - problem.hard_dp(problem.scores(v_beta)))
    scores = problem.scores(beta)
    loss = problem.loss(scores)
    dp_hard = problem.hard_dp(scores)
    dp_smooth = problem.smooth_dp(scores)
    psi_smooth = abs(problem.dp_blackbox - dp_smooth)
    return FairExplanation(
        **problem.explanation_fields(beta, loss, dp_hard, cfg.lambda1,
                                     fair.lambda2),
        tau=problem.tau,
        dp_blackbox=problem.dp_blackbox,
        dp_surrogate_hard=dp_hard,
        dp_surrogate_smooth=dp_smooth,
        psi_smooth=psi_smooth,
        objective_smooth=(loss + cfg.lambda1 * len(problem.active)
                          + fair.lambda2 * psi_smooth),
        psi_vanilla=psi_vanilla,
    )


def fair_explain_neighborhood(nb: Neighborhood, cfg: ExplainConfig,
                              fair: FairConfig) -> FairExplanation:
    """Fit the parity-penalized surrogate on a two-group neighborhood.

    Greedy selection on the penalized problem gives the plain fit. With
    lambda2 = 0 the plain solution is returned verbatim, bit for bit.
    Otherwise the Gram-scaled descent on the smoothed objective (_descend)
    runs from the plain solution (restart 0) and from one noisy copy of
    it (restart 1); the plain solution and both descent results each get
    one exact line-search polish pass on the hard objective (_polish),
    and the lowest hard objective is picked. For up to two active
    features the best cell of the 0.01 lattice that could beat the pick
    (oracle.certified_minimum), polished, replaces it if strictly better.
    The polish accepts only strict improvements, so the fit never loses
    to the plain solution. Only the descent sees the smooth proxy: at
    the hard optimum scores often sit near the 0.5 threshold, where the
    sigmoid is far from saturated.
    """
    budget = cfg.resolve_budget(nb.n_features)
    problem, v_beta, _ = greedy_feature_selection(
        _FairProblem(nb, (), fair.lambda2, TAU), budget)
    if fair.lambda2 == 0.0:
        return _assemble(problem, v_beta, v_beta, cfg, fair)
    rng = np.random.default_rng(fair.seed)
    noisy = v_beta + RESTART_NOISE * rng.standard_normal(v_beta.shape)
    design = np.column_stack([np.ones(problem.cols.shape[0]), problem.cols])
    starts = [v_beta] + [_descend(problem, start, r)
                         for r, start in enumerate((v_beta, noisy))]
    candidates = [
        _polish(problem, design, s, v_beta, fair.polish_dirs,
                (fair.seed, _POLISH_STREAM, i))
        for i, s in enumerate(starts)
    ]
    pick = min(candidates, key=problem.hard_value)
    cell = (certified_minimum(problem, problem.hard_value(pick))
            if len(problem.active) <= 2 else None)
    if cell is not None:
        polished = _polish(problem, design, cell, v_beta, fair.polish_dirs,
                           (fair.seed, _POLISH_STREAM, len(starts)))
        pick = min([pick, polished], key=problem.hard_value)
    return _assemble(problem, pick, v_beta, cfg, fair)


def fair_lime_explain(f, x, stats, kc: KernelConfig, cfg: ExplainConfig,
                      fair: FairConfig, seed) -> FairExplanation:
    """Sample a two-group neighborhood around ``x`` and fit the
    parity-penalized surrogate. Deterministic per seed; resamples with
    a documented retry scheme when a draw misses one group."""
    nb = sample_two_group_neighborhood(x, stats, f, kc, seed)
    return fair_explain_neighborhood(nb, cfg, fair)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned search grid over [intercept, weights].

    Axes are low + span * k / steps for k = 0..steps, so doubling the
    step counts yields a bitwise superset of the coarser grid. Default
    spans give a resolution of 0.01 per axis.
    """

    intercept_low: float = -4.0
    intercept_high: float = 4.0
    weight_low: float = -2.0
    weight_high: float = 2.0
    intercept_steps: int = 800
    weight_steps: int = 400

    def __post_init__(self):
        if not np.all(np.isfinite([self.intercept_low, self.intercept_high,
                                   self.weight_low, self.weight_high])):
            raise ValueError("grid bounds must be finite")
        if self.intercept_high <= self.intercept_low:
            raise ValueError("empty intercept range")
        if self.weight_high <= self.weight_low:
            raise ValueError("empty weight range")
        if self.intercept_steps < 1 or self.weight_steps < 1:
            raise ValueError("step counts must be at least 1")

    def intercept_axis(self) -> np.ndarray:
        span = self.intercept_high - self.intercept_low
        k = np.arange(self.intercept_steps + 1)
        return self.intercept_low + span * (k / self.intercept_steps)

    def weight_axis(self) -> np.ndarray:
        span = self.weight_high - self.weight_low
        k = np.arange(self.weight_steps + 1)
        return self.weight_low + span * (k / self.weight_steps)


def grid_search_oracle(nb: Neighborhood, cfg: ExplainConfig, fair: FairConfig,
                       grid: GridSpec | None = None) -> FairExplanation:
    """The exact hard objective's optimum over a grid.

    The active set is greedy selection on the penalized problem, capped
    at two features since the grid is exponential in dimension. The
    optimum is exact on the lattice (oracle.lattice_minimum skips only
    columns whose fidelity bound exceeds a cell already scored). Ties
    break toward the lowest objective, then the smallest weight
    max-norm, then lexicographically over (intercept, weights).
    Intended as an independent check on the gradient solver, not for
    production use.
    """
    if grid is None:
        grid = GridSpec()
    budget = cfg.resolve_budget(nb.n_features)
    if budget > 2:
        raise DataError(f"grid oracle supports at most 2 active features, got {budget}")
    problem, v_beta, _ = greedy_feature_selection(
        _FairProblem(nb, (), fair.lambda2, TAU), budget)
    beta = lattice_minimum(problem, grid.intercept_axis(),
                           [grid.weight_axis()] * budget)
    return _assemble(problem, beta, v_beta, cfg, fair)
