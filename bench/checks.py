"""Independent checks of fairlime's outputs, in plain numpy.

Nothing here calls fairlime's fitting, metric or objective code: the
checks refit surrogates by least squares, re-derive parity gaps and
equalized odds from their textbook definitions, and re-evaluate the
network from its saved weights. Each check raises ``CheckError`` on the
first disagreement.

The program's surrogate scores and these recomputations can differ in
the last bits, and the exact polish deliberately parks scores one ulp
from the 0.5 threshold. A sample whose recomputed score lies within
``TIE`` of 0.5 may therefore count on either side; parity gaps are
checked against the interval those samples span.
"""
from __future__ import annotations

import numpy as np

TIE = 1e-9
REL = 1e-9
ABS = 1e-12


class CheckError(AssertionError):
    pass


def require(ok, message) -> None:
    if not ok:
        raise CheckError(message)


def close(a, b, rel=REL, abs_=ABS) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def wls(columns: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted least squares by QR-based lstsq on the sqrt-weighted
    design; returns [intercept, coefficients...]."""
    sw = np.sqrt(weights / weights.sum())
    design = np.column_stack([np.ones(len(targets)), columns]) * sw[:, None]
    beta, *_ = np.linalg.lstsq(design, targets * sw, rcond=None)
    return beta


def fidelity(scores, targets, weights) -> float:
    r = targets - scores
    return float(np.sum(weights * r * r) / np.sum(weights))


def rate_gap(preds, groups) -> float:
    return float(preds[groups == 1.0].mean() - preds[groups == 0.0].mean())


def dp_interval(scores, groups) -> tuple[float, float]:
    """Range of the surrogate's demographic parity over threshold ties."""
    sure = (scores >= 0.5 + TIE).astype(float)
    maybe = (np.abs(scores - 0.5) < TIE).astype(float)
    g1, g0 = groups == 1.0, groups == 0.0
    lo = sure[g1].mean() - (sure + maybe)[g0].mean()
    hi = (sure + maybe)[g1].mean() - sure[g0].mean()
    return float(lo), float(hi)


def psi_interval(dp_bb, scores, groups) -> tuple[float, float]:
    lo, hi = dp_interval(scores, groups)
    if lo <= dp_bb <= hi:
        return 0.0, max(dp_bb - lo, hi - dp_bb)
    return min(abs(dp_bb - lo), abs(dp_bb - hi)), max(abs(dp_bb - lo), abs(dp_bb - hi))


def hard_objective_interval(intercept, coefficients, active, samples, targets,
                            weights, groups, lambda1, lambda2):
    """Fidelity + lambda1 * |active| + lambda2 * psi over threshold ties."""
    scores = intercept + samples @ coefficients
    fid = fidelity(scores, targets, weights)
    dp_bb = rate_gap((targets >= 0.5).astype(float), groups)
    p_lo, p_hi = psi_interval(dp_bb, scores, groups)
    base = fid + lambda1 * len(active)
    return fid, dp_bb, scores, (base + lambda2 * p_lo, base + lambda2 * p_hi)


def least_squares_objective(samples, targets, weights, groups, active,
                            lambda1, lambda2) -> float:
    """Highest hard objective, over threshold ties, of an independent
    least-squares fit on ``active``; the penalized fit must not exceed it,
    since the plain solution is always among its candidates."""
    beta = wls(samples[:, active], targets, weights)
    coef = np.zeros(samples.shape[1])
    coef[active] = beta[1:]
    *_, (_, hi) = hard_objective_interval(beta[0], coef, active, samples, targets,
                                          weights, groups, lambda1, lambda2)
    return hi


def check_explanation(doc: dict, nb, lambda1: float, lambda2: float) -> None:
    """A CLI ``explain`` report against the neighborhood it was fitted on.

    ``nb`` carries samples, weights, black-box scores and the group
    column. Recomputes fidelity, both demographic parities, psi_hard
    and the objective from the reported coefficients, and requires the
    objective to be no worse than that of an independent least-squares
    fit on the same active set.
    """
    names = doc["feature_names"]
    active = [names.index(a) for a in doc["active_features"]]
    coef = np.zeros(len(names))
    for name, value in doc["coefficients"].items():
        coef[names.index(name)] = value
    groups = nb.samples[:, nb.group_col]
    br = doc["objective_breakdown"]
    require(doc["lambda1"] == lambda1 and doc["lambda2"] == lambda2,
            "explain: penalty weights differ from the request")
    require(doc["n_samples"] == nb.samples.shape[0],
            "explain: sample count differs from the neighborhood")
    require(np.array_equal(np.asarray(doc["center"]), nb.samples[0]),
            "explain: center differs from the requested row")
    require(br["complexity"] == len(active), "explain: complexity is not |active|")
    fid, dp_bb, scores, (obj_lo, obj_hi) = hard_objective_interval(
        doc["intercept"], coef, active, nb.samples, nb.f_scores, nb.weights,
        groups, lambda1, lambda2)
    require(close(br["fidelity"], fid),
            f"explain: fidelity {br['fidelity']!r} != recomputed {fid!r}")
    require(close(br["dp_blackbox"], dp_bb),
            f"explain: dp_blackbox {br['dp_blackbox']!r} != recomputed {dp_bb!r}")
    lo, hi = dp_interval(scores, groups)
    require(lo - ABS <= br["dp_surrogate_hard"] <= hi + ABS,
            f"explain: dp_surrogate_hard {br['dp_surrogate_hard']!r} outside "
            f"recomputed [{lo!r}, {hi!r}]")
    require(close(br["psi_hard"], abs(dp_bb - br["dp_surrogate_hard"])),
            "explain: psi_hard is not |dp_blackbox - dp_surrogate_hard|")
    require(obj_lo - ABS - REL * obj_lo <= doc["objective"] <= obj_hi + ABS + REL * obj_hi,
            f"explain: objective {doc['objective']!r} outside recomputed "
            f"[{obj_lo!r}, {obj_hi!r}]")
    ref_hi = least_squares_objective(nb.samples, nb.f_scores, nb.weights, groups,
                                     active, lambda1, lambda2)
    require(doc["objective"] <= ref_hi + ABS + REL * ref_hi,
            f"explain: objective {doc['objective']!r} worse than the "
            f"least-squares fit's {ref_hi!r}")


def check_sweep(report: dict, vanilla_psi: dict) -> None:
    """A CLI ``sweep`` report against independently refitted vanilla cells.

    ``vanilla_psi`` maps each count to a list of (low, high) psi
    intervals, one per (seed, point) cell, from independent fits.
    """
    require(report["skipped"] == 0, "sweep: cells were skipped")
    require(list(report["counts"]) == sorted(vanilla_psi),
            "sweep: counts differ from the request")
    for i, count in enumerate(report["counts"]):
        fair, vanilla = report["mean_fair"][i], report["mean_vanilla"][i]
        require(fair <= vanilla,
                f"sweep: count {count}: fair psi {fair!r} above vanilla {vanilla!r}")
        cells = np.asarray(vanilla_psi[count])
        lo, hi = float(cells[:, 0].mean()), float(cells[:, 1].mean())
        require(lo - ABS <= vanilla <= hi + ABS,
                f"sweep: count {count}: vanilla psi {vanilla!r} outside "
                f"recomputed [{lo!r}, {hi!r}]")


def vanilla_psi_interval(samples, targets, weights, groups) -> tuple[float, float]:
    """psi of an independent least-squares fit on every feature."""
    beta = wls(samples, targets, weights)
    scores = beta[0] + samples @ beta[1:]
    dp_bb = rate_gap((targets >= 0.5).astype(float), groups)
    return psi_interval(dp_bb, scores, groups)


def check_oracle_instance(nb, solver, oracle, lambda1, lambda2,
                          intercept_axis, weight_axis) -> bool:
    """Solver and grid-oracle explanations of one instance.

    Recomputes both objectives from their parameters, requires the
    solver to be no worse than an independent least-squares fit on its
    active set and the oracle's optimum to lie strictly inside its
    grid. Returns whether the solver is within 1 % of the oracle, the
    program's documented agreement, which some random instances miss;
    the caller reports that rather than failing on it.
    """
    groups = nb.samples[:, nb.group_col]
    for label, e in (("solver", solver), ("oracle", oracle)):
        *_, (lo, hi) = hard_objective_interval(
            e.intercept, np.asarray(e.coefficients), e.active, nb.samples,
            nb.f_scores, nb.weights, groups, lambda1, lambda2)
        require(lo - ABS - REL * lo <= e.objective <= hi + ABS + REL * hi,
                f"oracle: {label} objective {e.objective!r} outside "
                f"recomputed [{lo!r}, {hi!r}]")
    ref_hi = least_squares_objective(nb.samples, nb.f_scores, nb.weights, groups,
                                     list(solver.active), lambda1, lambda2)
    require(solver.objective <= ref_hi + ABS + REL * ref_hi,
            f"oracle: solver objective {solver.objective!r} worse than the "
            f"least-squares fit's {ref_hi!r}")
    require(intercept_axis[0] < oracle.intercept < intercept_axis[-1],
            "oracle: grid optimum intercept on the grid boundary")
    for j in oracle.active:
        require(weight_axis[0] < oracle.coefficients[j] < weight_axis[-1],
                "oracle: grid optimum weight on the grid boundary")
    return solver.objective <= oracle.objective * 1.01


def read_mlp(path):
    """The network's parameters from its plain-text model file."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if ": " in line:
                key, value = line.rstrip("\n").split(": ", 1)
                fields[key] = value
    require(fields.get("variant") == "mlp3", "audit: model file is not an MLP")
    d, h1, h2 = (int(fields[k]) for k in ("n_features", "hidden1", "hidden2"))

    def arr(key, shape):
        return np.array([float(t) for t in fields[key].split()]).reshape(shape)

    return (arr("w1", (d, h1)), arr("b1", (h1,)), arr("w2", (h1, h2)),
            arr("b2", (h2,)), arr("w3", (h2,)), float(fields["b3"]))


def mlp_scores(params, X) -> np.ndarray:
    w1, b1, w2, b2, w3, b3 = params
    a1 = np.maximum(X @ w1 + b1, 0.0)
    a2 = np.maximum(a1 @ w2 + b2, 0.0)
    return 1.0 / (1.0 + np.exp(-(a2 @ w3 + b3)))


def equalized_odds(preds, groups, labels) -> float:
    """max(|TPR_1 - TPR_0|, |FPR_1 - FPR_0|)."""
    def rate(g, y):
        mask = (groups == g) & (labels == y)
        require(mask.any(), "audit: an equalized-odds cell is empty")
        return preds[mask].mean()
    return float(max(abs(rate(1.0, 1.0) - rate(0.0, 1.0)),
                     abs(rate(1.0, 0.0) - rate(0.0, 0.0))))


def check_audit(doc: dict, features, groups, labels, bb_scores, group_col,
                rows, neighborhoods, epsilon) -> None:
    """A CLI ``audit --metric eodds`` report.

    ``bb_scores`` are the network's scores on the dataset from
    ``mlp_scores``; ``neighborhoods`` holds, per audited row, the
    (samples, black-box scores, weights) the surrogate was fitted on.
    """
    require(not np.any(np.abs(bb_scores - 0.5) < TIE),
            "audit: a black-box score ties the threshold")
    m_bb = equalized_odds((bb_scores >= 0.5).astype(float), groups, labels)
    entries = doc["rows"]
    require([r["row"] for r in entries] == list(rows), "audit: audited rows differ")
    for entry, (samples, targets, weights) in zip(entries, neighborhoods):
        require(close(entry["m_blackbox"], m_bb),
                f"audit: row {entry['row']}: m_blackbox {entry['m_blackbox']!r} "
                f"!= recomputed {m_bb!r}")
        require(entry["mismatch"] == abs(entry["m_blackbox"] - entry["m_surrogate"]),
                f"audit: row {entry['row']}: mismatch is not |m_blackbox - m_surrogate|")
        require(entry["preserved"] == (entry["mismatch"] <= epsilon),
                f"audit: row {entry['row']}: preserved flag contradicts epsilon")
        beta = wls(samples, targets, weights)
        weight = entry["sensitive_importance"]["weight"]
        require(abs(weight - beta[1 + group_col]) <= 1e-6,
                f"audit: row {entry['row']}: group weight {weight!r} != "
                f"least-squares {beta[1 + group_col]!r}")
    mismatches = [r["mismatch"] for r in entries]
    agg = doc["aggregate"]
    require(agg["audited"] == len(entries), "audit: audited count is wrong")
    require(close(agg["mean_mismatch"], float(np.mean(mismatches))),
            "audit: mean_mismatch is not the mean")
    require(agg["max_mismatch"] == max(mismatches), "audit: max_mismatch is not the max")
    require(close(agg["preserved_fraction"],
                  float(np.mean([r["preserved"] for r in entries]))),
            "audit: preserved_fraction is not the mean of the flags")
