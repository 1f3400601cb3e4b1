"""The held-out parity gap that the ablation scripts report.

A fit's in-sample psi is measured on the neighborhood it was tuned on;
``held_out_psi`` scores the same explanation on a fresh two-group
neighborhood of the same point, so it shows how much of the parity the
penalty keeps off the sample.
"""
from __future__ import annotations

from fairlime import fairness_mismatch, sample_two_group_neighborhood
from fairlime.metrics import DEMOGRAPHIC_PARITY

HELD_OUT_STREAM = 99


def held_out_psi(explanation, x, stats, f, kc, seed: tuple) -> float:
    """The demographic-parity mismatch between ``f`` and
    ``explanation`` on a fresh neighborhood of ``x``, drawn as the fit's
    was but with seed ``seed + (HELD_OUT_STREAM,)``."""
    fresh = sample_two_group_neighborhood(x, stats, f, kc,
                                          seed + (HELD_OUT_STREAM,))
    return fairness_mismatch(DEMOGRAPHIC_PARITY, fresh.f_preds,
                             explanation.predict(fresh.samples),
                             fresh.groups).mismatch
