"""The SparseAdapt predictive model: one decision tree per parameter.

The model is "an ensemble of independent functions f_i" (Section 4.1)
under the conditional-independence assumption: each runtime parameter
gets its own classifier mapping the telemetry feature vector to that
parameter's best value. Inference is a handful of tree traversals —
cheap enough to run every epoch on the host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.telemetry import build_features, feature_groups, feature_names
from repro.errors import ModelError
from repro.obs import profile as obs_profile
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.metrics import grouped_importance
from repro.transmuter.config import (
    RUNTIME_PARAMETERS,
    SPM_FIXED_L1_KB,
    HardwareConfig,
)
from repro.transmuter.counters import PerformanceCounters

__all__ = ["SparseAdaptModel"]


@dataclass
class SparseAdaptModel:
    """Fitted per-parameter classifier ensemble.

    Attributes
    ----------
    trees:
        Mapping from runtime parameter name to a fitted
        :class:`~repro.ml.decision_tree.DecisionTreeClassifier`.
    l1_type:
        The compile-time L1 memory type this model was trained for.
    hyperparameters:
        The selected hyperparameters per tree (for inspection).
    """

    trees: Dict[str, DecisionTreeClassifier]
    l1_type: str = "cache"
    hyperparameters: Dict[str, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = set(self.predicted_parameters())
        missing = expected - set(self.trees)
        if missing:
            raise ModelError(f"missing trees for parameters: {sorted(missing)}")
        for name, tree in self.trees.items():
            if not isinstance(tree, DecisionTreeClassifier):
                raise ModelError(
                    f"tree for {name!r} is a {type(tree).__name__}, "
                    "not a DecisionTreeClassifier"
                )

    # ------------------------------------------------------------------
    def predicted_parameters(self) -> List[str]:
        """Runtime parameters this model predicts (SPM pins l1_kb)."""
        if self.l1_type == "spm":
            return [p for p in RUNTIME_PARAMETERS if p != "l1_kb"]
        return list(RUNTIME_PARAMETERS)

    def _check_l1_type(self, current: HardwareConfig) -> None:
        if current.l1_type != self.l1_type:
            raise ModelError(
                f"model trained for l1_type={self.l1_type!r}, "
                f"got {current.l1_type!r}"
            )

    def predict(
        self,
        counters: PerformanceCounters,
        current: HardwareConfig,
    ) -> HardwareConfig:
        """Best configuration for the next epoch given this epoch's
        telemetry and the configuration it ran on."""
        self._check_l1_type(current)
        with obs_profile.span("forest_inference"):
            row = build_features(counters, current).tolist()
            values = {
                name: self._coerce(
                    name, self.trees[name].table.predict_row(row)
                )
                for name in self.predicted_parameters()
            }
            if self.l1_type == "spm":
                values["l1_kb"] = SPM_FIXED_L1_KB
            return HardwareConfig(l1_type=self.l1_type, **values)

    def explain(
        self,
        counters: PerformanceCounters,
        current: HardwareConfig,
    ) -> Dict[str, dict]:
        """Per-parameter provenance of :meth:`predict` on the same inputs.

        Maps each predicted parameter to a JSON-friendly dict::

            {"parameter": "l1_kb", "current": 16, "predicted": 64,
             "kind": "tree", "margin": 0.83, "depth": 2,
             "path": [{"depth": 0, "feature": "l1_miss_rate",
                       "feature_index": 2, "threshold": 0.24,
                       "value": 0.31, "direction": "gt"}, ...],
             "leaf": {...}}

        Each tree's ``decision_path`` reads the leaf that :meth:`predict`
        decodes, so ``predicted`` always equals the prediction.
        """
        self._check_l1_type(current)
        with obs_profile.span("forest_inference"):
            row = build_features(counters, current)
            names = feature_names()
            provenance: Dict[str, dict] = {}
            for name in self.predicted_parameters():
                path = self.trees[name].decision_path(row)
                leaf = path["leaf"]
                steps = self._describe_steps(path["steps"], names)
                provenance[name] = {
                    "parameter": name,
                    "current": current.get(name),
                    "predicted": self._coerce(name, leaf["prediction"]),
                    "kind": "tree",
                    "margin": leaf["margin"],
                    "depth": len(steps),
                    "path": steps,
                    "leaf": leaf,
                }
            return provenance

    @staticmethod
    def _describe_steps(steps, names: List[str]) -> List[dict]:
        """Path steps with feature indices resolved to telemetry names."""
        return [
            {
                "depth": step["depth"],
                "feature": names[step["feature"]],
                "feature_index": step["feature"],
                "threshold": step["threshold"],
                "value": step["value"],
                "direction": step["direction"],
            }
            for step in steps
        ]

    @staticmethod
    def _coerce(name: str, value):
        """Cast numpy label types back to the config's native types."""
        if name in ("l1_sharing", "l2_sharing"):
            return str(value)
        if name == "clock_mhz":
            return float(value)
        return int(value)

    # ------------------------------------------------------------------
    def feature_importance(self, parameter: str) -> np.ndarray:
        """Per-feature Gini importance of one parameter's tree."""
        if parameter not in self.trees:
            raise ModelError(f"no tree for parameter {parameter!r}")
        importances = self.trees[parameter].feature_importances_
        if importances is None:
            raise ModelError(f"tree for {parameter!r} is not fitted")
        return importances

    def grouped_feature_importance(
        self, parameter: str
    ) -> Dict[str, float]:
        """Figure-10 style importance grouped by counter class."""
        return grouped_importance(
            self.feature_importance(parameter), feature_groups()
        )

    def importance_table(self) -> Dict[str, Dict[str, float]]:
        """Grouped importances for every predicted parameter."""
        return {
            name: self.grouped_feature_importance(name)
            for name in self.predicted_parameters()
        }

    @staticmethod
    def feature_names() -> List[str]:
        """Names of the feature vector the trees consume."""
        return feature_names()

    def describe(self) -> str:
        """One line per tree: depth and leaf count."""
        lines = []
        for name in self.predicted_parameters():
            tree = self.trees[name]
            lines.append(
                f"{name}: depth={tree.depth()} leaves={tree.n_leaves()}"
            )
        return "\n".join(lines)
