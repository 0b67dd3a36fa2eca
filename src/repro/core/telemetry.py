"""Telemetry pre-processing: counters + current config -> feature vector.

The paper's key insight over ProfileAdapt (Section 4.2) is feeding the
*current configuration parameters* into the predictive model alongside
the performance counters, which removes the need for a profiling
configuration. The runtime also performs "lightweight pre-processing
... such as normalization and feature set augmentation" (Section 3.3);
the augmentation here adds a few architecture-derived combinations
(total bandwidth pressure, traffic intensity) that help shallow trees.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

import numpy as np

from repro.transmuter.config import HardwareConfig
from repro.transmuter.counters import COUNTER_GROUPS, PerformanceCounters

__all__ = [
    "build_features",
    "feature_matrix",
    "feature_names",
    "feature_groups",
]

_AUGMENTED = [
    "aug_dram_total_utilization",
    "aug_l1_traffic_intensity",
    "aug_l2_pressure",
]


def _augment(c: Mapping) -> list:
    """Derived features (Section 3.3's feature-set augmentation).

    ``c`` maps counter names to values: floats for one epoch, or arrays
    for many (elementwise, so each element gets the same bits).
    """
    return [
        c["dram_read_utilization"] + c["dram_write_utilization"],
        c["l1_access_rate"] * c["l1_miss_rate"],
        c["l2_occupancy"] * c["l2_miss_rate"],
    ]


def build_features(
    counters: PerformanceCounters, config: HardwareConfig
) -> np.ndarray:
    """Feature vector for the predictive model."""
    return np.concatenate(
        [
            counters.as_features(),
            np.array(_augment(vars(counters))),
            config.as_features(),
        ]
    )


def feature_matrix(
    counters: Mapping[str, np.ndarray], configs: Sequence[HardwareConfig]
) -> np.ndarray:
    """:func:`build_features` for many epochs, one row per epoch.

    ``counters`` maps every counter name to a 1-D array over the epochs
    (``EpochGrid.counter_columns`` layout); ``configs`` are the epochs'
    configurations. Row ``k`` equals ``build_features`` of epoch ``k``
    bit for bit.
    """
    config_rows = np.array(
        [config.as_features() for config in configs]
    ).reshape(len(configs), -1)
    return np.column_stack(
        [counters[name] for name in PerformanceCounters.feature_names()]
        + _augment(counters)
        + [config_rows]
    )


def feature_names() -> List[str]:
    """Names parallel to :func:`build_features`."""
    return (
        PerformanceCounters.feature_names()
        + list(_AUGMENTED)
        + HardwareConfig.feature_names()
    )


def feature_groups() -> List[str]:
    """Counter-class group of each feature (Figure 10 aggregation).

    Configuration-echo features are grouped as ``Config``; augmented
    features inherit the class of their dominant source counter.
    """
    groups = [COUNTER_GROUPS[name] for name in PerformanceCounters.feature_names()]
    groups += ["Memory Ctrl", "L1 R-DCache", "L2 R-DCache"]
    groups += ["Config"] * len(HardwareConfig.feature_names())
    return groups
