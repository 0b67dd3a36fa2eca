"""Save and load trained models as JSON.

The paper's artifact ships pre-trained per-parameter models
(``best_models/`` in the Docker image) so evaluations skip the training
sweep; this module provides the equivalent: a portable, dependency-free
JSON serialization of the decision-tree ensembles — the stock
:class:`SparseAdaptModel` and the Section-7
:class:`~repro.core.memorymode.MemoryModeModel` extension.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.model import SparseAdaptModel
from repro.errors import ModelError
from repro.ml.decision_tree import DecisionTreeClassifier, TreeNode
from repro.obs.sinks import write_atomic

__all__ = [
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "save_memory_mode_model",
    "load_memory_mode_model",
]

_FORMAT_VERSION = 1


def _node_to_dict(node: TreeNode) -> dict:
    out = {
        "value": [float(v) for v in node.value],
        "n_samples": int(node.n_samples),
        "impurity": float(node.impurity),
    }
    if not node.is_leaf:
        out["feature"] = int(node.feature)
        out["threshold"] = float(node.threshold)
        out["left"] = _node_to_dict(node.left)
        out["right"] = _node_to_dict(node.right)
    return out


def _node_from_dict(data: dict) -> TreeNode:
    node = TreeNode(
        value=np.asarray(data["value"], dtype=np.float64),
        n_samples=int(data["n_samples"]),
        impurity=float(data["impurity"]),
    )
    if "feature" in data:
        node.feature = int(data["feature"])
        node.threshold = float(data["threshold"])
        node.left = _node_from_dict(data["left"])
        node.right = _node_from_dict(data["right"])
    return node


def _tree_to_dict(tree: DecisionTreeClassifier) -> dict:
    if tree.root_ is None or tree.classes_ is None:
        raise ModelError("cannot serialize an unfitted tree")
    classes = tree.classes_
    if classes.dtype.kind in ("U", "S"):
        class_values = [str(c) for c in classes]
        class_kind = "str"
    elif classes.dtype.kind == "f":
        class_values = [float(c) for c in classes]
        class_kind = "float"
    else:
        class_values = [int(c) for c in classes]
        class_kind = "int"
    return {
        "params": tree.get_params(),
        "classes": class_values,
        "class_kind": class_kind,
        "n_features": int(tree.n_features_),
        "feature_importances": [
            float(v) for v in tree.feature_importances_
        ],
        "root": _node_to_dict(tree.root_),
    }


def _tree_from_dict(data: dict) -> DecisionTreeClassifier:
    params = dict(data["params"])
    # Older files also carry the since-removed per-node feature
    # subsampling knob and its seed; only the unsubsampled tree loads.
    params.pop("random_state", None)
    if params.pop("max_features", None) is not None:
        raise ModelError("feature-subsampled trees are not supported")
    tree = DecisionTreeClassifier(**params)
    kind = {"str": str, "int": np.int64, "float": np.float64}[
        data["class_kind"]
    ]
    tree.classes_ = np.asarray(data["classes"], dtype=kind)
    tree._n_classes = tree.classes_.size
    tree.n_features_ = int(data["n_features"])
    tree.feature_importances_ = np.asarray(
        data["feature_importances"], dtype=np.float64
    )
    tree.root_ = _node_from_dict(data["root"])
    return tree


def model_to_dict(model: SparseAdaptModel) -> dict:
    """Serialize a fitted model ensemble to plain dictionaries."""
    return {
        "format_version": _FORMAT_VERSION,
        "l1_type": model.l1_type,
        "hyperparameters": model.hyperparameters,
        "trees": {
            name: _tree_to_dict(tree) for name, tree in model.trees.items()
        },
    }


def model_from_dict(data: dict) -> SparseAdaptModel:
    """Rebuild a model ensemble from :func:`model_to_dict` output."""
    if data.get("format_version") != _FORMAT_VERSION:
        raise ModelError(
            f"unsupported model format {data.get('format_version')!r}"
        )
    trees = {
        name: _tree_from_dict(tree_data)
        for name, tree_data in data["trees"].items()
    }
    return SparseAdaptModel(
        trees=trees,
        l1_type=data["l1_type"],
        hyperparameters=data.get("hyperparameters", {}),
    )


def save_model(model: SparseAdaptModel, path: Union[str, Path]) -> None:
    """Write a fitted model to a JSON file (crash-safe atomic write)."""
    write_atomic(path, json.dumps(model_to_dict(model)))


def load_model(path: Union[str, Path]) -> SparseAdaptModel:
    """Load a model previously written by :func:`save_model`."""
    path = Path(path)
    if not path.exists():
        raise ModelError(f"model file {path} does not exist")
    return model_from_dict(json.loads(path.read_text()))


def save_memory_mode_model(model, path: Union[str, Path]) -> None:
    """Write a fitted memory-mode model (Section-7 extension) to JSON."""
    from repro.core.memorymode import MemoryModeModel

    if not isinstance(model, MemoryModeModel):
        raise ModelError("expected a MemoryModeModel")
    payload = {
        "format_version": _FORMAT_VERSION,
        "kind": "memory-mode",
        "cache_model": model_to_dict(model.cache_model),
        "spm_model": model_to_dict(model.spm_model),
        "type_tree": _tree_to_dict(model.type_tree),
    }
    write_atomic(path, json.dumps(payload))


def load_memory_mode_model(path: Union[str, Path]):
    """Load a model previously written by :func:`save_memory_mode_model`."""
    from repro.core.memorymode import MemoryModeModel

    path = Path(path)
    if not path.exists():
        raise ModelError(f"model file {path} does not exist")
    payload = json.loads(path.read_text())
    if payload.get("kind") != "memory-mode":
        raise ModelError("file does not hold a memory-mode model")
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ModelError(
            f"unsupported model format {payload.get('format_version')!r}"
        )
    return MemoryModeModel(
        cache_model=model_from_dict(payload["cache_model"]),
        spm_model=model_from_dict(payload["spm_model"]),
        type_tree=_tree_from_dict(payload["type_tree"]),
    )
