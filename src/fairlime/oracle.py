"""Exact lattice oracle for the parity-penalized surrogate.

``grid_search_oracle`` (objective.py) checks the gradient solver against
the best point of an axis-aligned lattice over [intercept, weights] for
one or two active features. For a weight combination w, let m1 and m2
be the kernel-weighted mean and mean square of the residuals X w - f.
The hard objective of the lattice cell (b, w) is then

    b^2 + 2 b m1 + m2 + lambda2 * |dp_blackbox - dp(b, w)|.

Over b the fidelity part is a parabola whose minimum is m2 - m1^2, and
the penalty is nonnegative, so m2 - m1^2 bounds every cell of w's
column from below. ``lattice_minimum`` fully scores the columns with
the lowest bounds first and then skips every column whose bound exceeds
the best value found there; it returns an exhaustive scan's optimum,
bit for bit, after scoring a few percent of the cells. The first
columns are picked by the same bound taken from the weighted covariance
of [X, f], so that their products can be kept while every block's
moments are computed and no block is multiplied twice. The solver's
certified search region (``certified_minimum``) runs the same scan.

Every function takes the penalized problem greedy selection grew for
the fit: a surrogate.FitProblem with both groups' fields, plus the
penalty weight ``lambda2`` that objective._FairProblem adds.
"""
from __future__ import annotations

import numpy as np

from .surrogate import FitProblem

# Weight combinations per block. Every column's products and moments
# come from its whole block's matrix products, so the pruned scan reads
# the values an exhaustive block-by-block scan would, bit for bit.
_GRID_CHUNK = 4096

# Relative slack on the pruning cutoff: a cell's computed value can sit
# a few ulps below its column's computed bound.
_PRUNE_MARGIN = 1e-9

# The most cells a certified scan may hold, 201 per axis of [intercept,
# w1, w2], and the most weight combinations, 201 per weight axis:
# lattice_minimum keeps about 70 bytes per combination however few
# intercepts there are. Only a (nearly) singular Gram matrix gives a
# wider box.
_MAX_CERTIFIED_CELLS = 201 ** 3
_MAX_CERTIFIED_COMBINATIONS = 201 ** 2


def weight_combinations(w_axes) -> np.ndarray:
    """Every combination of one weight from each axis of ``w_axes`` (one
    or two), one per row, the last weight varying fastest."""
    grids = np.meshgrid(*w_axes, indexing="ij")
    return np.column_stack([grid.ravel() for grid in grids])


def _positives_over_intercepts(b_axis: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Entry [j, k]: how many rows of ``u`` (one column per weight
    combination) are at most ``b_axis[j]`` in column k."""
    n_axis, c = b_axis.shape[0], u.shape[1]
    flat = np.searchsorted(b_axis, u) * c + np.arange(c)[None, :]
    counts = np.bincount(flat.ravel(), minlength=(n_axis + 1) * c)
    positives = counts.reshape(n_axis + 1, c)[:n_axis]
    # Row by row in place: numpy's cumsum along axis 0 of this matrix is
    # about nine times slower.
    for j in range(1, n_axis):
        np.add(positives[j - 1], positives[j], out=positives[j])
    return positives


def block_moments(problem: FitProblem, z: np.ndarray):
    """m1 and m2 of every column of ``z = cols @ w_block.T``."""
    d = z - problem.targets[:, None]
    m1 = problem.wn @ d
    return m1, problem.wn @ np.multiply(d, d, out=d)


def cell_values(problem: FitProblem, b_axis: np.ndarray, z: np.ndarray,
                m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Hard objective at cell [j, k]: intercept ``b_axis[j]`` and the
    weight combination of column k of ``z``, whose moments are
    ``m1[k]`` and ``m2[k]``."""
    # (b^2 + 2 b m1) + m2, built in place: the in-place operations
    # round exactly as the expression does and keep peak memory down.
    values = np.outer(b_axis, m1)
    values *= 2.0
    values += (b_axis * b_axis)[:, None]
    values += m2
    # A sample scores at least 0.5 once the intercept reaches
    # 0.5 - w . x, so per-group positive counts over the intercept
    # axis are cumulative histograms of those thresholds.
    u = 0.5 - z
    dp = _positives_over_intercepts(b_axis, u[problem.mask1]) / problem.n1
    dp -= _positives_over_intercepts(b_axis, u[problem.mask0]) / problem.n0
    np.subtract(problem.dp_blackbox, dp, out=dp)
    np.abs(dp, out=dp)
    dp *= problem.lambda2
    values += dp
    return values


def offer(best, values: np.ndarray, b_axis: np.ndarray, w_cols: np.ndarray):
    """``best``, a (key, beta) pair or None, updated with the cells of
    ``values`` (columns ``w_cols``). Keys order by value, then weight
    max-norm, then (intercept, weights)."""
    low = float(values.min())
    if best is not None and low > best[0][0]:
        return best
    for j, c in zip(*np.nonzero(values == low)):
        w = w_cols[c]
        key = (low, float(np.max(np.abs(w))), float(b_axis[j]),
               tuple(float(v) for v in w))
        if best is None or key < best[0]:
            best = (key, np.concatenate([[b_axis[j]], w]))
    return best


def _cutoff(incumbent: float, b_axis: np.ndarray) -> float:
    """The largest column bound that may still hide a cell at or below
    ``incumbent``.

    Where a cell's computed value is at most the incumbent while its
    exact value is at least the bound, |m1| is about |b| at most, so
    the rounding in b^2 + 2 b m1 + m2 and m2 - m1^2 is a few ulps of
    b_max^2 + |incumbent|; the margin is that scale times 1e-9.
    """
    scale = max(1.0, float(np.max(b_axis * b_axis)), abs(incumbent))
    return incumbent + _PRUNE_MARGIN * scale


def _block_columns(problem: FitProblem, combos: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    """``cols @ combos[idx].T`` for ascending ``idx``, each column cut
    from the product of its whole block."""
    blocks = idx // _GRID_CHUNK
    z = np.empty((problem.cols.shape[0], idx.size))
    for block in np.unique(blocks):
        at = blocks == block
        lo = int(block) * _GRID_CHUNK
        z[:, at] = (problem.cols @ combos[lo:lo + _GRID_CHUNK].T)[:, idx[at] - lo]
    return z


def _score(problem: FitProblem, b_axis: np.ndarray, combos: np.ndarray,
           m1: np.ndarray, m2: np.ndarray, idx: np.ndarray, best):
    """``best`` (as in ``offer``) updated with every cell of the
    combinations ``idx``, which ascend."""
    for lo in range(0, idx.size, _GRID_CHUNK):
        part = idx[lo:lo + _GRID_CHUNK]
        z = _block_columns(problem, combos, part)
        best = offer(best, cell_values(problem, b_axis, z, m1[part], m2[part]),
                     b_axis, combos[part])
    return best


def _covariance_bounds(problem: FitProblem, combos: np.ndarray) -> np.ndarray:
    """m2 - m1^2 of every combination w, as the weighted variance
    [w, -1] C [w, -1] with C the weighted covariance of [cols, targets].
    Equal to the block moments' bounds up to rounding; it only orders
    the columns, and no cell is skipped on it."""
    data = np.column_stack([problem.cols, problem.targets])
    centered = data - problem.wn @ data
    cov = (centered * problem.wn[:, None]).T @ centered
    coef = np.column_stack([combos, np.full(combos.shape[0], -1.0)])
    return np.sum((coef @ cov) * coef, axis=1)


def lattice_minimum(problem: FitProblem, b_axis: np.ndarray,
                    w_axes) -> np.ndarray:
    """The lattice point [intercept, weights] with the lowest hard
    objective on ``problem``, which has one or two columns.

    The lattice is ``b_axis`` by ``w_axes[j]`` for column j. Ties break
    toward the smallest weight max-norm, then lexicographically over
    (intercept, weights). Exact: the _GRID_CHUNK columns with the
    lowest covariance bounds give an incumbent, and of the rest only the
    columns whose block-moment bound could reach it are scored.
    """
    combos = weight_combinations(w_axes)
    first = np.sort(np.argsort(_covariance_bounds(problem, combos),
                               kind="stable")[:_GRID_CHUNK])
    m1 = np.empty(combos.shape[0])
    m2 = np.empty(combos.shape[0])
    z_first = np.empty((problem.cols.shape[0], first.size))
    for lo in range(0, combos.shape[0], _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, combos.shape[0])
        z = problem.cols @ combos[lo:hi].T
        # The first columns of this block, kept from its own product;
        # when they are exactly this block, without a copy.
        a, b = np.searchsorted(first, (lo, hi))
        if b - a == first.size == hi - lo:
            z_first = z
        else:
            z_first[:, a:b] = z[:, first[a:b] - lo]
        m1[lo:hi], m2[lo:hi] = block_moments(problem, z)
    best = offer(None, cell_values(problem, b_axis, z_first, m1[first],
                                   m2[first]), b_axis, combos[first])
    rest = m2 - m1 * m1 <= _cutoff(best[0][0], b_axis)
    rest[first] = False
    return _score(problem, b_axis, combos, m1, m2, np.flatnonzero(rest), best)[1]


def certified_minimum(problem: FitProblem, incumbent: float) -> np.ndarray | None:
    """The best point of the 0.01 lattice anchored at 0, whenever its
    hard objective is below ``incumbent``; None, scanning nothing, where
    the weighted Gram matrix G of [1, cols] is singular or the box below
    would hold more than _MAX_CERTIFIED_CELLS cells or more than
    _MAX_CERTIFIED_COMBINATIONS weight combinations.

    With v the undamped least-squares fit and F its fidelity, fidelity
    is exactly F + (beta - v)' G (beta - v) and the penalty is
    nonnegative, so every cell at or below the incumbent lies in the box
    v +- sqrt(R inv(G)_jj), R = incumbent - F plus the pruning's
    rounding margin; ``lattice_minimum`` scans it, rounded outward.
    """
    gram, rhs = problem.normal_equations()
    try:
        center = np.linalg.solve(gram, rhs)
        diag = np.diag(np.linalg.inv(gram))
    except np.linalg.LinAlgError:
        return None
    floor = problem.loss(problem.scores(center))
    with np.errstate(over="ignore", invalid="ignore"):
        # The margin is taken on the scale of the box's own intercepts.
        b_max = abs(center[0]) + np.sqrt((incumbent - floor) * diag[0])
        half = np.sqrt((_cutoff(incumbent, np.array([b_max])) - floor) * diag)
        low = np.floor(100.0 * (center - half))
        high = np.ceil(100.0 * (center + half))
        sizes = high - low + 1.0
        cells, combinations = np.prod(sizes), np.prod(sizes[1:])
    if not (cells <= _MAX_CERTIFIED_CELLS  # also NaN counts
            and combinations <= _MAX_CERTIFIED_COMBINATIONS):
        return None
    b_axis, *w_axes = (np.arange(lo, hi + 1.0) / 100.0
                       for lo, hi in zip(low, high))
    return lattice_minimum(problem, b_axis, w_axes)
