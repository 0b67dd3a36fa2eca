"""Evaluation metrics for the ML substrate."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.errors import ModelError

__all__ = ["geometric_mean", "grouped_importance"]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (paper's GM aggregation)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ModelError("geometric mean of empty sequence")
    if np.any(values <= 0):
        raise ModelError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(values))))


def grouped_importance(
    importances: np.ndarray, groups: Sequence[str]
) -> Dict[str, float]:
    """Sum per-feature importances into named groups (Figure 10).

    Parameters
    ----------
    importances:
        Per-feature importance vector (sums to 1 for a fitted tree).
    groups:
        Group name of each feature, parallel to ``importances``.
    """
    importances = np.asarray(importances, dtype=np.float64)
    if importances.size != len(groups):
        raise ModelError("importances and groups must be parallel")
    out: Dict[str, float] = {}
    for value, group in zip(importances, groups):
        out[group] = out.get(group, 0.0) + float(value)
    return out
