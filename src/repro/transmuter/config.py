"""Hardware configuration space (paper Table 1).

Seven parameters describe a Transmuter configuration:

=====================  ==========================  =====
Parameter              Values                      Count
=====================  ==========================  =====
L1 R-DCache type       cache, spm (compile-time)       2
L1 sharing mode        shared, private                 2
L2 sharing mode        shared, private                 2
L1 bank capacity       4..64 kB, x2 steps              5
L2 bank capacity       4..64 kB, x2 steps              5
System clock           31.25..1000 MHz, x2 steps       6
Prefetcher aggr.       0 (off), 4, 8                   3
=====================  ==========================  =====

Total: 3600 configurations. The L1 type is fixed at compile time
(Section 3.4), and the L1 capacity is not varied in SPM mode (Table 1
footnote), so the *runtime* space predicted by SparseAdapt has six
dimensions for cache mode and five for SPM mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "L1_TYPES",
    "SHARING_MODES",
    "CAPACITIES_KB",
    "CLOCKS_MHZ",
    "PREFETCH_LEVELS",
    "RUNTIME_PARAMETERS",
    "SPM_FIXED_L1_KB",
    "HardwareConfig",
    "full_space",
    "runtime_space",
    "space_size",
    "sample_configs",
    "neighbors",
]

L1_TYPES: Tuple[str, ...] = ("cache", "spm")
SHARING_MODES: Tuple[str, ...] = ("shared", "private")
CAPACITIES_KB: Tuple[int, ...] = (4, 8, 16, 32, 64)
CLOCKS_MHZ: Tuple[float, ...] = (31.25, 62.5, 125.0, 250.0, 500.0, 1000.0)
PREFETCH_LEVELS: Tuple[int, ...] = (0, 4, 8)

#: The six parameters SparseAdapt predicts at runtime (Section 3.4: the
#: L1 memory type is selected by the compiler).
RUNTIME_PARAMETERS: Tuple[str, ...] = (
    "l1_sharing",
    "l2_sharing",
    "l1_kb",
    "l2_kb",
    "clock_mhz",
    "prefetch",
)

#: L1 bank capacity used when the L1 is a scratchpad (Table 1 footnote:
#: not varied in SPM mode; Table 4's Best-Avg SPM row uses 4 kB banks).
SPM_FIXED_L1_KB = 4

_ORDINAL_VALUES: Dict[str, Sequence] = {
    "l1_kb": CAPACITIES_KB,
    "l2_kb": CAPACITIES_KB,
    "clock_mhz": CLOCKS_MHZ,
    "prefetch": PREFETCH_LEVELS,
}
_CATEGORICAL_VALUES: Dict[str, Sequence] = {
    "l1_sharing": SHARING_MODES,
    "l2_sharing": SHARING_MODES,
}


@dataclass(frozen=True)
class HardwareConfig:
    """One point of the Table-1 configuration space.

    Instances are immutable and hashable so they can key oracle DP tables
    and training-set dictionaries.
    """

    l1_type: str = "cache"
    l1_sharing: str = "shared"
    l2_sharing: str = "shared"
    l1_kb: int = 4
    l2_kb: int = 4
    clock_mhz: float = 1000.0
    prefetch: int = 4

    def __post_init__(self) -> None:
        if self.l1_type not in L1_TYPES:
            raise ConfigError(f"bad l1_type {self.l1_type!r}")
        if self.l1_sharing not in SHARING_MODES:
            raise ConfigError(f"bad l1_sharing {self.l1_sharing!r}")
        if self.l2_sharing not in SHARING_MODES:
            raise ConfigError(f"bad l2_sharing {self.l2_sharing!r}")
        if self.l1_kb not in CAPACITIES_KB:
            raise ConfigError(f"bad l1_kb {self.l1_kb!r}")
        if self.l2_kb not in CAPACITIES_KB:
            raise ConfigError(f"bad l2_kb {self.l2_kb!r}")
        if self.clock_mhz not in CLOCKS_MHZ:
            raise ConfigError(f"bad clock_mhz {self.clock_mhz!r}")
        if self.prefetch not in PREFETCH_LEVELS:
            raise ConfigError(f"bad prefetch {self.prefetch!r}")

    # ------------------------------------------------------------------
    def get(self, parameter: str):
        """Value of one named parameter."""
        if not hasattr(self, parameter):
            raise ConfigError(f"unknown parameter {parameter!r}")
        return getattr(self, parameter)

    def with_value(self, parameter: str, value) -> "HardwareConfig":
        """Copy with one parameter replaced (validated)."""
        if not hasattr(self, parameter):
            raise ConfigError(f"unknown parameter {parameter!r}")
        return replace(self, **{parameter: value})

    def as_features(self) -> np.ndarray:
        """Numeric encoding of the runtime parameters for the predictor.

        Sharing modes encode as 0/1; capacities and clocks as log2 of
        the value so steps are uniform; the prefetch level stays raw.
        """
        return np.array(
            [
                float(SHARING_MODES.index(self.l1_sharing)),
                float(SHARING_MODES.index(self.l2_sharing)),
                float(np.log2(self.l1_kb)),
                float(np.log2(self.l2_kb)),
                float(np.log2(self.clock_mhz)),
                float(self.prefetch),
            ]
        )

    @staticmethod
    def feature_names() -> List[str]:
        """Names parallel to :meth:`as_features`."""
        return [f"cfg_{name}" for name in RUNTIME_PARAMETERS]

    def describe(self) -> str:
        """Short human-readable summary."""
        return (
            f"L1={self.l1_kb}kB/{self.l1_sharing}/{self.l1_type} "
            f"L2={self.l2_kb}kB/{self.l2_sharing} "
            f"f={self.clock_mhz:g}MHz pf={self.prefetch}"
        )


def full_space() -> Iterator[HardwareConfig]:
    """Iterate over all 3600 configurations of Table 1."""
    for values in itertools.product(
        L1_TYPES,
        SHARING_MODES,
        SHARING_MODES,
        CAPACITIES_KB,
        CAPACITIES_KB,
        CLOCKS_MHZ,
        PREFETCH_LEVELS,
    ):
        yield HardwareConfig(*values)


def space_size() -> int:
    """Size of the full Table-1 space (3600)."""
    return (
        len(L1_TYPES)
        * len(SHARING_MODES) ** 2
        * len(CAPACITIES_KB) ** 2
        * len(CLOCKS_MHZ)
        * len(PREFETCH_LEVELS)
    )


def runtime_space(l1_type: str = "cache") -> List[HardwareConfig]:
    """All configurations reachable at runtime for a compiled L1 type.

    Cache mode varies all six runtime parameters (1800 points); SPM mode
    pins the L1 capacity (360 points).
    """
    return list(_runtime_space(l1_type)[0])


#: Per L1 type: the runtime space in enumeration order, and each
#: config's position in it (built once; configs hash field by field).
_RUNTIME_SPACES: Dict[str, Tuple[Tuple[HardwareConfig, ...], Dict]] = {}


def _runtime_space(
    l1_type: str,
) -> Tuple[Tuple[HardwareConfig, ...], Dict[HardwareConfig, int]]:
    cached = _RUNTIME_SPACES.get(l1_type)
    if cached is not None:
        return cached
    if l1_type not in L1_TYPES:
        raise ConfigError(f"bad l1_type {l1_type!r}")
    l1_choices = CAPACITIES_KB if l1_type == "cache" else (SPM_FIXED_L1_KB,)
    space = tuple(
        HardwareConfig(l1_type, l1s, l2s, l1_kb, l2_kb, clk, pf)
        for l1s in SHARING_MODES
        for l2s in SHARING_MODES
        for l1_kb in l1_choices
        for l2_kb in CAPACITIES_KB
        for clk in CLOCKS_MHZ
        for pf in PREFETCH_LEVELS
    )
    cached = (space, {cfg: i for i, cfg in enumerate(space)})
    _RUNTIME_SPACES[l1_type] = cached
    return cached


#: Memo for seeded samples (the sample is a pure function of its
#: arguments when a seed is given).
_SAMPLE_MEMO: Dict[tuple, tuple] = {}


def sample_configs(
    count: int,
    l1_type: str = "cache",
    seed: Optional[int] = None,
    include: Sequence[HardwareConfig] = (),
) -> List[HardwareConfig]:
    """Sample ``count`` distinct runtime configurations.

    ``include`` forces specific configurations (e.g. the static baselines)
    into the sample so comparisons share the same evaluated set, matching
    the paper's S=256 sampled space (Appendix A.7).
    """
    memo_key = None
    if seed is not None:
        memo_key = (count, l1_type, seed, tuple(include))
        cached = _SAMPLE_MEMO.get(memo_key)
        if cached is not None:
            return list(cached)
    space, position = _runtime_space(l1_type)
    forced = [cfg for cfg in include if cfg in position]
    rng = np.random.default_rng(seed)
    taken = {position[cfg] for cfg in forced}
    remaining = [cfg for i, cfg in enumerate(space) if i not in taken]
    count = min(count, len(space))
    extra = max(0, count - len(forced))
    picked_idx = rng.choice(len(remaining), size=extra, replace=False)
    sample = forced + [remaining[i] for i in picked_idx]
    sample = sample[:count] if len(sample) > count else sample
    if memo_key is not None:
        if len(_SAMPLE_MEMO) >= 256:
            _SAMPLE_MEMO.clear()
        _SAMPLE_MEMO[memo_key] = tuple(sample)
    return sample


def neighbors(config: HardwareConfig, runtime_only: bool = True) -> List[HardwareConfig]:
    """Single-step neighborhood of a configuration.

    Ordinal parameters move one step up/down their value ladder;
    categorical parameters flip. This is the "m-dimensional hyper-sphere"
    explored during training-set construction (Figure 4a, step 2).
    """
    out: List[HardwareConfig] = []
    for name, values in _ORDINAL_VALUES.items():
        if runtime_only and config.l1_type == "spm" and name == "l1_kb":
            continue
        current = config.get(name)
        position = list(values).index(current)
        for step in (-1, 1):
            neighbor_pos = position + step
            if 0 <= neighbor_pos < len(values):
                out.append(config.with_value(name, values[neighbor_pos]))
    for name, values in _CATEGORICAL_VALUES.items():
        current = config.get(name)
        for value in values:
            if value != current:
                out.append(config.with_value(name, value))
    return out
