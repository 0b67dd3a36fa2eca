"""Ablations of SparseAdapt's design choices.

The central one is the **configuration echo** (paper Section 4.2): the
key difference from ProfileAdapt is feeding the *current configuration
parameters* into the predictive model alongside the counters, which is
what removes the profiling configuration. Ablating those features
quantifies their value: a counters-only model must implicitly guess
what hardware produced the telemetry it sees.

:func:`train_counters_only_model` zeroes the configuration-echo columns
of the training set. A constant column has no split position, so the
fitted trees never split on them and ignore the echo at inference too.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.dataset import TrainingSet
from repro.core.model import SparseAdaptModel
from repro.core.telemetry import feature_names
from repro.core.training import QUICK_PARAM_GRID, train_model

__all__ = [
    "config_feature_indices",
    "mask_config_features",
    "train_counters_only_model",
]


def config_feature_indices() -> np.ndarray:
    """Column indices of the configuration-echo features."""
    names = feature_names()
    return np.array(
        [i for i, name in enumerate(names) if name.startswith("cfg_")]
    )


def mask_config_features(features: np.ndarray) -> np.ndarray:
    """Zero the configuration-echo columns of a feature matrix."""
    features = np.array(features, dtype=np.float64, copy=True)
    if features.ndim == 1:
        features = features.reshape(1, -1)
    features[:, config_feature_indices()] = 0.0
    return features


def train_counters_only_model(
    training_set: TrainingSet,
    l1_type: str = "cache",
    param_grid: Optional[Dict[str, Sequence]] = None,
    seed: int = 0,
) -> SparseAdaptModel:
    """Train the ablated (counters-only) model on the same training set."""
    masked = TrainingSet(
        features=mask_config_features(training_set.features),
        labels=training_set.labels,
        names=training_set.names,
    )
    return train_model(
        masked,
        l1_type=l1_type,
        param_grid=param_grid or QUICK_PARAM_GRID,
        seed=seed,
    )
