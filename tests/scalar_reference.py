"""Scalar reference copies of the batched code, for differential tests.

Production has one code path: the vectorized epoch grid, the flat
decision tables and the pure-function memos. This module keeps the
scalar code each of them replaced, and :func:`scalar_path` patches it
in for the duration of a ``with`` block, so a test can run the same
campaign both ways and compare the results byte for byte:

* ``run_static`` and ``EpochTable`` fill their grids cell by cell,
  and the training-set search and ProfileAdapt simulate their
  (workload, config) pairs one at a time, in pair order (``EpochGrid``
  and its paired form);
* ``ideal_static`` scores a full schedule per configuration;
* ``DecisionTreeClassifier.predict_proba`` and ``decision_path`` walk
  the linked ``TreeNode``s instead of the flat table, and
  ``SparseAdaptModel.predict`` decodes each tree through them, so the
  predictions and the traced provenance (``SparseAdaptModel.explain``)
  both come from the linked walk;
* the controller's decision memo, the seeded-sample memo and the
  transition-cost memo never store, so every call recomputes;
* ``EpochAccumulator`` takes one task per ``add`` call and closes each
  epoch the moment its running FP-op total reaches the budget, and the
  SpMSpM and SpMSpV traces (so BFS and SSSP too) feed it task by task,
  walking the columns and rows in a Python loop.

It also keeps code that tests compare against directly, without
patching: the set-based matrix generators (``rmat``,
``diagonal_local``, ``block_arrow``), the per-column
``partials_per_row``, the two-sort COO conversions
(``coo_sum_duplicates``, ``coo_to_csr``, ``coo_to_csc``), the
epoch-by-epoch run of one static configuration (``simulate_trace``), the
all-positions CART split search (``all_position_splits``), the
whole-grid unboxing of ``EpochGrid`` cells through the dataclass
constructors (``whole_grid_results``) and the per-workload loop that
computed the grid's workload-only quantities (``workload_scalars``).

Every simulated epoch goes through ``TransmuterModel.simulate_epoch``,
so a traced run under :func:`scalar_path` emits its ``machine.epoch``
records from the per-epoch model. The patches are module and class
attributes, which worker processes forked inside the block inherit.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, List, Optional, Tuple

import numpy as np

from repro.baselines import profileadapt, static
from repro.baselines import table as baselines_table
from repro.core import dataset
from repro.core.controller import SparseAdaptController
from repro.core.model import SPM_FIXED_L1_KB, SparseAdaptModel
from repro.core.schedule import EpochRecord, ScheduleResult
from repro.core.telemetry import build_features
from repro.errors import ModelError, ShapeError, SimulationError
from repro.kernels import spmspm as kernels_spmspm
from repro.kernels import spmspv as kernels_spmspv
from repro.kernels.base import (
    SPMSPM_EPOCH_FP_OPS,
    SPMSPV_EPOCH_FP_OPS,
    EpochAccumulator,
    KernelTrace,
)
from repro.fastpath import epochs
from repro.fastpath.epochs import EpochGrid
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.obs import profile as obs_profile
from repro.sparse import ops as sparse_ops
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.transmuter import config as transmuter_config
from repro.transmuter import params, reconfig
from repro.transmuter.config import HardwareConfig
from repro.transmuter.counters import PerformanceCounters
from repro.transmuter.crossbar import model_crossbar
from repro.transmuter.machine import EpochResult
from repro.transmuter.power import EnergyBreakdown
from repro.transmuter.workload import (
    PHASE_MERGE,
    PHASE_MULTIPLY,
    PHASE_SPMSPV,
    EpochWorkload,
)

__all__ = [
    "scalar_path",
    "code_path",
    "predict_proba",
    "decision_path",
    "ScalarEpochAccumulator",
    "trace_spmspm",
    "trace_spmspv",
    "partials_per_row",
    "rmat",
    "diagonal_local",
    "block_arrow",
    "coo_sum_duplicates",
    "coo_to_csr",
    "coo_to_csc",
    "all_position_splits",
    "whole_grid_results",
    "workload_scalars",
    "simulate_trace",
]


def simulate_trace(machine, workloads, config):
    """Many epochs under one configuration, one epoch at a time."""
    return [machine.simulate_epoch(workload, config) for workload in workloads]


class ScalarGrid:
    """``EpochGrid``'s cell-by-cell fill behind the same API."""

    def __init__(self, machine, workloads, configs, paired=False) -> None:
        self.configs = list(configs)
        if paired:
            self.results = [
                [
                    machine.simulate_epoch(workload, config)
                    for workload, config in zip(workloads, configs)
                ]
            ]
        else:
            self.results = [
                [machine.simulate_epoch(workload, config) for config in configs]
                for workload in workloads
            ]
        self.times = np.array(
            [[r.time_s for r in row] for row in self.results]
        )
        self.energies = np.array(
            [[r.energy_j for r in row] for row in self.results]
        )

    @classmethod
    def paired(cls, machine, pairs):
        return cls(
            machine,
            [workload for workload, _ in pairs],
            [config for _, config in pairs],
            paired=True,
        )

    def rows(self):
        return self.results

    def result(self, i, j):
        return self.results[i][j]

    def counter_columns(self):
        return {
            name: np.array(
                [[getattr(r.counters, name) for r in row] for row in self.results],
                dtype=np.float64,
            )
            for name in PerformanceCounters.feature_names()
        }


def ideal_static(table, mode):
    """Best whole-trace static configuration, one schedule per config."""
    best_schedule = None
    best_metric = float("-inf")
    for config in table.configs:
        schedule = ScheduleResult(scheme="ideal-static")
        for index in range(table.n_epochs):
            schedule.append(
                EpochRecord(
                    index=index,
                    config=config,
                    result=table.result(index, config),
                )
            )
        metric = schedule.metric(mode)
        if metric > best_metric:
            best_metric = metric
            best_schedule = schedule
    return best_schedule


def predict(self, counters, current):
    """``SparseAdaptModel.predict`` through ``DecisionTreeClassifier.predict``
    (the linked-node ``predict_proba`` under :func:`scalar_path`)."""
    if current.l1_type != self.l1_type:
        raise ModelError(
            f"model trained for l1_type={self.l1_type!r}, "
            f"got {current.l1_type!r}"
        )
    with obs_profile.span("forest_inference"):
        batch = build_features(counters, current).reshape(1, -1)
        values = {}
        for name in self.predicted_parameters():
            prediction = self.trees[name].predict(batch)[0]
            values[name] = self._coerce(name, prediction)
        if self.l1_type == "spm":
            values["l1_kb"] = SPM_FIXED_L1_KB
        return HardwareConfig(l1_type=self.l1_type, **values)


def predict_proba(self, features) -> np.ndarray:
    """``DecisionTreeClassifier.predict_proba`` over the linked nodes."""
    root = self._check_fitted()
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features.reshape(1, -1)
    if features.shape[1] != self.n_features_:
        raise ModelError(
            f"expected {self.n_features_} features, got {features.shape[1]}"
        )
    out = np.empty((features.shape[0], root.value.size))
    stack = [(root, np.arange(features.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        go_left = features[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def decision_path(self, features) -> dict:
    """``DecisionTreeClassifier.decision_path`` over the linked nodes."""
    node = self._check_fitted()
    sample = np.asarray(features, dtype=np.float64).reshape(-1)
    if sample.size != self.n_features_:
        raise ModelError(
            f"expected {self.n_features_} features, got {sample.size}"
        )
    steps = []
    depth = 0
    while not node.is_leaf:
        observed = float(sample[node.feature])
        go_left = observed <= node.threshold
        steps.append(
            {
                "depth": depth,
                "feature": int(node.feature),
                "threshold": float(node.threshold),
                "value": observed,
                "direction": "le" if go_left else "gt",
            }
        )
        node = node.left if go_left else node.right
        depth += 1
    probabilities = node.value
    best = int(np.argmax(probabilities))
    prediction = self.classes_[best]
    item = getattr(prediction, "item", None)
    if probabilities.size > 1:
        others = np.delete(probabilities, best)
        margin = float(probabilities[best] - others.max())
    else:
        margin = 1.0
    leaf = {
        "depth": depth,
        "n_samples": int(node.n_samples),
        "value": [float(v) for v in probabilities],
        "prediction": item() if callable(item) else prediction,
        "margin": margin,
    }
    return {"steps": steps, "leaf": leaf}


class ScalarEpochAccumulator:
    """``EpochAccumulator`` with running totals, closing epochs in ``add``."""

    def __init__(self, phase: str, epoch_fp_ops: float) -> None:
        if epoch_fp_ops <= 0:
            raise SimulationError("epoch budget must be positive")
        self.phase = phase
        self.epoch_fp_ops = epoch_fp_ops
        self.epochs: List[EpochWorkload] = []
        self._reset()

    def _reset(self) -> None:
        self._fp_ops = 0.0
        self._flops = 0.0
        self._int_ops = 0.0
        self._loads = 0.0
        self._stores = 0.0
        self._unique_words = 0.0
        self._unique_lines = 0.0
        self._stride_weighted = 0.0
        self._reuse_locality_weighted = 0.0
        self._shared_weighted = 0.0
        self._unique_weight = 0.0
        self._read_bytes = 0.0
        self._write_bytes = 0.0
        self._resident_bytes = 0.0
        self._task_work: List[float] = []

    def add(
        self,
        flops,
        fp_loads,
        fp_stores,
        int_ops,
        loads,
        stores,
        unique_words,
        unique_lines,
        stride_fraction,
        shared_fraction,
        read_bytes,
        write_bytes,
        resident_bytes=0.0,
        reuse_locality=0.5,
    ) -> None:
        self._flops += flops
        self._fp_ops += flops + fp_loads + fp_stores
        self._int_ops += int_ops
        self._loads += loads
        self._stores += stores
        self._unique_words += unique_words
        self._unique_lines += unique_lines
        weight = max(unique_words, 1.0)
        self._stride_weighted += stride_fraction * weight
        self._reuse_locality_weighted += reuse_locality * weight
        self._shared_weighted += shared_fraction * weight
        self._unique_weight += weight
        self._read_bytes += read_bytes
        self._write_bytes += write_bytes
        self._resident_bytes = max(self._resident_bytes, resident_bytes)
        self._task_work.append(flops + fp_loads + fp_stores)
        if self._fp_ops >= self.epoch_fp_ops:
            self._close()

    def _close(self) -> None:
        if self._fp_ops <= 0:
            self._reset()
            return
        work = np.asarray(self._task_work)
        if work.size > 1 and work.mean() > 0:
            skew = float(work.std() / work.mean())
        else:
            skew = 0.0
        weight = max(self._unique_weight, 1e-9)
        self.epochs.append(
            EpochWorkload(
                phase=self.phase,
                fp_ops=self._fp_ops,
                flops=self._flops,
                int_ops=self._int_ops,
                loads=self._loads,
                stores=self._stores,
                unique_words=self._unique_words,
                unique_lines=max(self._unique_lines, 1.0),
                stride_fraction=min(1.0, self._stride_weighted / weight),
                shared_fraction=min(1.0, self._shared_weighted / weight),
                read_bytes_compulsory=self._read_bytes,
                write_bytes=self._write_bytes,
                work_skew=skew,
                resident_bytes=self._resident_bytes,
                reuse_locality=min(
                    1.0, self._reuse_locality_weighted / weight
                ),
            )
        )
        self._reset()

    def finish(self) -> List[EpochWorkload]:
        if self._fp_ops > 0:
            self._close()
        return self.epochs


def partials_per_row(a_csc, b_csr) -> np.ndarray:
    """Outer-product partials per row of C, one ``np.add.at`` per column."""
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(
            f"inner dimensions differ: {a_csc.shape} @ {b_csr.shape}"
        )
    b_counts = b_csr.row_lengths()
    counts = np.zeros(a_csc.shape[0], dtype=np.int64)
    for i in range(a_csc.shape[1]):
        rows, _ = a_csc.col(i)
        if rows.size:
            np.add.at(counts, rows, b_counts[i])
    return counts


def trace_spmspm(
    a_csc,
    b_csr,
    epoch_fp_ops: float = SPMSPM_EPOCH_FP_OPS,
    name: Optional[str] = None,
) -> KernelTrace:
    """Outer-product SpMSpM traced one outer product / merged row at a time."""
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ShapeError(
            f"inner dimensions differ: {a_csc.shape} @ {b_csr.shape}"
        )
    element = kernels_spmspm._ELEMENT_BYTES
    concurrency = kernels_spmspm._CONCURRENCY
    multiply = ScalarEpochAccumulator(PHASE_MULTIPLY, epoch_fp_ops)
    a_counts = a_csc.col_lengths()
    b_counts = b_csr.row_lengths()
    for i in range(a_csc.shape[1]):
        a_nnz = int(a_counts[i])
        b_nnz = int(b_counts[i])
        if a_nnz == 0 or b_nnz == 0:
            continue
        partials = a_nnz * b_nnz
        fp_loads = a_nnz + a_nnz * b_nnz
        fp_stores = partials
        int_ops = 2.0 * partials + (a_nnz + b_nnz)
        loads = 2.0 * a_nnz + a_nnz * b_nnz + b_nnz
        stores = 2.0 * partials
        unique_words = 2.0 * (a_nnz + b_nnz) + 2.0 * partials
        unique_lines = (
            element * (a_nnz + b_nnz) + element * partials
        ) / params.CACHE_LINE_BYTES
        shared = (2.0 * b_nnz) / max(unique_words, 1.0)
        multiply.add(
            flops=float(partials),
            fp_loads=float(fp_loads),
            fp_stores=float(fp_stores),
            int_ops=float(int_ops),
            loads=float(loads),
            stores=float(stores),
            unique_words=float(unique_words),
            unique_lines=float(max(unique_lines, 1.0)),
            stride_fraction=kernels_spmspm._MULTIPLY_STRIDE,
            shared_fraction=min(0.9, 4.0 * shared),
            read_bytes=element * (a_nnz + b_nnz),
            write_bytes=element * partials,
            resident_bytes=concurrency * element * (a_nnz + b_nnz),
            reuse_locality=0.9,
        )
    multiply_epochs = multiply.finish()

    merge = ScalarEpochAccumulator(PHASE_MERGE, epoch_fp_ops)
    row_partials = partials_per_row(a_csc, b_csr)
    for k in row_partials[row_partials > 0]:
        k = float(k)
        passes = max(1.0, math.ceil(math.log2(k)) if k > 1 else 1.0)
        output = max(1.0, k * 0.7)
        fp_loads = k * passes
        fp_stores = k * (passes - 1.0) + output
        merge.add(
            flops=k,
            fp_loads=fp_loads,
            fp_stores=fp_stores,
            int_ops=2.0 * k * passes,
            loads=2.0 * k * passes,
            stores=2.0 * (k * (passes - 1.0) + output),
            unique_words=2.0 * (k + output),
            unique_lines=max(
                1.0, element * (k + output) / params.CACHE_LINE_BYTES
            ),
            stride_fraction=kernels_spmspm._MERGE_STRIDE,
            shared_fraction=kernels_spmspm._MERGE_SHARED,
            read_bytes=element * k,
            write_bytes=element * output,
            resident_bytes=concurrency * element * (k + output),
            reuse_locality=0.6,
        )
    merge_epochs = merge.finish()

    return KernelTrace(
        name=name or "spmspm",
        epochs=multiply_epochs + merge_epochs,
        info={
            "a_nnz": float(a_csc.nnz),
            "b_nnz": float(b_csr.nnz),
            "partial_products": float(np.sum(row_partials)),
            "multiply_epochs": float(len(multiply_epochs)),
            "merge_epochs": float(len(merge_epochs)),
        },
    )


def trace_spmspv(
    a_csc,
    x,
    epoch_fp_ops: float = SPMSPV_EPOCH_FP_OPS,
    name: Optional[str] = None,
) -> KernelTrace:
    """Column-wise SpMSpV traced one column of A at a time."""
    if a_csc.shape[1] != x.length:
        raise ShapeError(
            f"dimension mismatch: {a_csc.shape} @ vector({x.length})"
        )
    element = kernels_spmspv._ELEMENT_BYTES
    accumulator_touched = np.zeros(a_csc.shape[0], dtype=bool)
    touched_count = 0
    accumulator = ScalarEpochAccumulator(PHASE_SPMSPV, epoch_fp_ops)
    words_per_line = params.CACHE_LINE_BYTES // params.WORD_BYTES
    for j in x.indices:
        rows, _values = a_csc.col(int(j))
        a_nnz = int(rows.size)
        if a_nnz == 0:
            continue
        new_mask = ~accumulator_touched[rows]
        new_touches = int(np.count_nonzero(new_mask))
        accumulator_touched[rows] = True
        touched_count += new_touches
        if a_nnz > 1:
            gaps = np.diff(rows)
            accumulator_locality = float(np.mean(gaps <= words_per_line))
        else:
            accumulator_locality = 1.0
        unique_lines = max(
            1.0,
            (
                element * a_nnz
                + params.WORD_BYTES * new_touches / max(accumulator_locality, 0.125)
            )
            / params.CACHE_LINE_BYTES,
        )
        column_accesses = 2.0 * a_nnz
        accumulator_accesses = 2.0 * a_nnz
        stride = (
            column_accesses * kernels_spmspv._COLUMN_STRIDE
            + accumulator_accesses * accumulator_locality
        ) / (column_accesses + accumulator_accesses)
        accumulator.add(
            flops=2.0 * a_nnz,
            fp_loads=2.0 * a_nnz + 1.0,
            fp_stores=float(a_nnz),
            int_ops=3.0 * a_nnz,
            loads=3.0 * a_nnz + 1.0,
            stores=float(a_nnz),
            unique_words=2.0 * a_nnz + new_touches,
            unique_lines=unique_lines,
            stride_fraction=float(np.clip(stride, 0.0, 1.0)),
            shared_fraction=0.15,
            read_bytes=element * a_nnz + element,
            write_bytes=element * new_touches,
            resident_bytes=(
                touched_count * params.WORD_BYTES + element * a_nnz
            ),
            reuse_locality=accumulator_locality,
        )
    return KernelTrace(
        name=name or "spmspv",
        epochs=accumulator.finish(),
        info={
            "a_nnz": float(a_csc.nnz),
            "x_nnz": float(x.nnz),
            "y_nnz": float(np.count_nonzero(accumulator_touched)),
        },
    )


def rmat(n, nnz, a=0.1, b=0.4, c=0.1, seed=None) -> COOMatrix:
    """R-MAT with ``rng.choice`` quadrants and a set of seen coordinates."""
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ShapeError("R-MAT quadrant probabilities must be >= 0")
    if n <= 0 or (n & (n - 1)) != 0:
        depth = int(np.ceil(np.log2(max(n, 2))))
    else:
        depth = int(np.log2(n))
    rng = np.random.default_rng(seed)
    probs = np.array([a, b, c, d])
    target = min(nnz, n * n)
    seen = set()
    for _ in range(64):
        need = target - len(seen)
        if need <= 0:
            break
        batch = max(64, int(need * 1.5))
        quadrants = rng.choice(4, size=(batch, depth), p=probs)
        row_bits = (quadrants >> 1) & 1
        col_bits = quadrants & 1
        weights = 1 << np.arange(depth - 1, -1, -1, dtype=np.int64)
        rows = row_bits @ weights
        cols = col_bits @ weights
        in_range = (rows < n) & (cols < n)
        for r, cl in zip(rows[in_range], cols[in_range]):
            key = int(r) * n + int(cl)
            if key not in seen:
                seen.add(key)
                if len(seen) >= target:
                    break
    return _from_keys(seen, n, rng)


def diagonal_local(n, nnz, spread=0.01, seed=None) -> COOMatrix:
    """Diagonal-local matrix deduplicated through a set."""
    rng = np.random.default_rng(seed)
    scale = max(1.0, spread * n)
    seen = set()
    for _ in range(64):
        need = nnz - len(seen)
        if need <= 0:
            break
        rows = rng.integers(0, n, size=int(need * 1.5) + 16)
        offsets = np.round(rng.laplace(0.0, scale, size=rows.size)).astype(np.int64)
        cols = rows + offsets
        ok = (cols >= 0) & (cols < n)
        for r, cl in zip(rows[ok], cols[ok]):
            key = int(r) * n + int(cl)
            if key not in seen:
                seen.add(key)
                if len(seen) >= nnz:
                    break
    return _from_keys(seen, n, rng)


def block_arrow(n, nnz, n_blocks=8, arrow_fraction=0.25, seed=None) -> COOMatrix:
    """Block-arrow matrix deduplicated through a set."""
    if n_blocks < 1:
        raise ShapeError("n_blocks must be >= 1")
    rng = np.random.default_rng(seed)
    block = max(1, n // n_blocks)
    arrow_nnz = int(nnz * arrow_fraction)
    block_nnz = nnz - arrow_nnz
    seen = set()
    border = max(1, n // 50)
    attempts = 0
    while len(seen) < arrow_nnz and attempts < 64:
        attempts += 1
        need = arrow_nnz - len(seen)
        pick_row_side = rng.random(int(need * 1.5) + 8) < 0.5
        rr = np.where(
            pick_row_side,
            rng.integers(n - border, n, size=pick_row_side.size),
            rng.integers(0, n, size=pick_row_side.size),
        )
        cc = np.where(
            pick_row_side,
            rng.integers(0, n, size=pick_row_side.size),
            rng.integers(n - border, n, size=pick_row_side.size),
        )
        for r, cl in zip(rr, cc):
            seen.add(int(r) * n + int(cl))
            if len(seen) >= arrow_nnz:
                break
    target = arrow_nnz + block_nnz
    attempts = 0
    while len(seen) < target and attempts < 128:
        attempts += 1
        need = target - len(seen)
        b = rng.integers(0, n_blocks, size=int(need * 1.5) + 8)
        base = b * block
        rr = base + rng.integers(0, block, size=b.size)
        cc = base + rng.integers(0, block, size=b.size)
        ok = (rr < n) & (cc < n)
        for r, cl in zip(rr[ok], cc[ok]):
            seen.add(int(r) * n + int(cl))
            if len(seen) >= target:
                break
    return _from_keys(seen, n, rng)


def _from_keys(seen, n, rng) -> COOMatrix:
    keys = np.fromiter(seen, dtype=np.int64, count=len(seen))
    keys.sort()
    return COOMatrix(
        keys // n, keys % n, rng.uniform(0.1, 1.1, size=keys.size), (n, n)
    )


def coo_sum_duplicates(coo: COOMatrix) -> COOMatrix:
    """Duplicates summed after a stable sort on the row-major key."""
    if coo.nnz == 0:
        return coo
    keys = coo.rows * coo.shape[1] + coo.cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = coo.vals[order]
    unique_mask = np.empty(keys.size, dtype=bool)
    unique_mask[0] = True
    unique_mask[1:] = keys[1:] != keys[:-1]
    group_ids = np.cumsum(unique_mask) - 1
    summed = np.zeros(int(group_ids[-1]) + 1)
    np.add.at(summed, group_ids, vals)
    unique_keys = keys[unique_mask]
    return COOMatrix(
        unique_keys // coo.shape[1],
        unique_keys % coo.shape[1],
        summed,
        coo.shape,
    )


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Two sorts: ``coo_sum_duplicates``, then a row-major ``lexsort``."""
    merged = coo_sum_duplicates(coo)
    order = np.lexsort((merged.cols, merged.rows))
    indptr = np.zeros(coo.shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, merged.rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(
        indptr, merged.cols[order], merged.vals[order], coo.shape
    )


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Two sorts: ``coo_sum_duplicates``, then a column-major ``lexsort``."""
    merged = coo_sum_duplicates(coo)
    order = np.lexsort((merged.rows, merged.cols))
    indptr = np.zeros(coo.shape[1] + 1, dtype=np.int64)
    np.add.at(indptr, merged.cols + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSCMatrix(
        indptr, merged.rows[order], merged.vals[order], coo.shape
    )


def _best_split(self, features, encoded, sorted_rows):
    """``DecisionTreeClassifier._best_split`` scoring every position,
    then masking."""
    n = sorted_rows.shape[1]
    lo = self.min_samples_leaf
    hi = n - self.min_samples_leaf
    candidates = np.arange(sorted_rows.shape[0])
    if hi < lo or not len(candidates):
        return -1, 0.0, 0.0
    positions = np.arange(lo, hi + 1)
    x_sorted = features[sorted_rows, candidates[:, None]]
    gains = self._all_split_gains(encoded[sorted_rows], positions)
    distinct = x_sorted[:, positions] > x_sorted[:, positions - 1] + 1e-15
    gains[~distinct] = -np.inf
    best_columns = np.argmax(gains, axis=1)
    row_gains = gains[np.arange(len(candidates)), best_columns]

    best_gain = 0.0
    best_feature = -1
    best_threshold = 0.0
    for row, gain in enumerate(row_gains.tolist()):
        if gain > best_gain + 1e-15:
            pos = positions[best_columns[row]]
            best_gain = gain
            best_feature = int(candidates[row])
            best_threshold = float(
                0.5 * (x_sorted[row, pos - 1] + x_sorted[row, pos])
            )
    return best_feature, best_threshold, best_gain


def _classifier_gains(self, y_sorted, positions):
    """Gains of every position, from float64 cumulative class counts."""
    n = y_sorted.shape[1]
    prefix = np.cumsum(
        y_sorted[:, :, None] == np.arange(self._n_classes),
        axis=1,
        dtype=np.float64,
    )
    total = prefix[0, -1]
    parent_impurity = self._impurity_from_counts(total)
    left_counts = prefix[:, positions - 1]
    right_counts = total - left_counts
    n_left = positions.astype(np.float64)
    n_right = n - n_left
    weighted = (
        n_left * self._batch_impurity(left_counts, n_left)
        + n_right * self._batch_impurity(right_counts, n_right)
    ) / n
    return parent_impurity - weighted


@contextmanager
def all_position_splits() -> Iterator[None]:
    """Fit CART trees in the block with the all-positions split search."""
    with _patched(
        [
            (DecisionTreeClassifier, "_best_split", _best_split),
            (DecisionTreeClassifier, "_all_split_gains", _classifier_gains),
        ]
    ):
        yield


def whole_grid_results(grid: EpochGrid) -> List[List[EpochResult]]:
    """Every cell of ``grid``, unboxed by one ``tolist`` of its field
    stack and built through the dataclass constructors."""
    lists = dict(zip(epochs._STACKED, grid._stack.tolist()))
    out = []
    for i in range(grid.n_workloads):
        row = []
        for j in range(grid.n_configs):
            f = {name: lists[name][i][j] for name in epochs._FIELDS}
            workload, config = grid._cell(i, j)
            energy = EnergyBreakdown(
                core_dynamic=f["core_dynamic"],
                l1_dynamic=f["l1_dynamic"],
                l2_dynamic=f["l2_dynamic"],
                xbar_dynamic=f["xbar_dynamic"],
                dram=f["dram"],
                leakage=f["leakage"],
            )
            counters = PerformanceCounters(
                l1_access_rate=f["l1_access_rate"],
                l1_occupancy=f["l1_occupancy"],
                l1_miss_rate=f["l1_miss_rate"],
                l1_prefetch_ratio=f["l1_prefetch_ratio"],
                l1_capacity_kb=float(config.l1_kb),
                l2_access_rate=f["l2_access_rate"],
                l2_occupancy=f["l2_occupancy"],
                l2_miss_rate=f["l2_miss_rate"],
                l2_prefetch_ratio=f["l2_prefetch_ratio"],
                l2_capacity_kb=float(config.l2_kb),
                xbar_contention_ratio=f["xbar_contention_ratio"],
                gpe_ipc=f["gpe_ipc"],
                gpe_fp_ipc=f["gpe_fp_ipc"],
                lcp_ipc=f["lcp_ipc"],
                lcp_fp_ipc=f["lcp_ipc"] * 0.4,
                clock_mhz=config.clock_mhz,
                dram_read_utilization=f["dram_read_utilization"],
                dram_write_utilization=f["dram_write_utilization"],
            )
            row.append(
                EpochResult(
                    time_s=f["time_s"],
                    energy=energy,
                    counters=counters,
                    core_time_s=f["core_time_s"],
                    memory_time_s=f["memory_time_s"],
                    dram_read_bytes=f["dram_read_bytes"],
                    dram_write_bytes=f["dram_write_bytes"],
                    flops=workload.flops,
                    fp_ops=workload.fp_ops,
                )
            )
        out.append(row)
    return out


def workload_scalars(machine, workloads, spm):
    """``EpochGrid``'s workload-only quantities, one workload at a time.

    The scalar expressions of ``EpochWorkload``'s properties and
    ``_simulate_epoch``, with ``model_crossbar`` called per workload;
    columns shaped ``(n_workloads, 1)`` like the array form's.
    """
    tiles = machine.n_tiles
    gpes = machine.gpes_per_tile
    n_gpes = machine.n_gpes
    cols = {name: [] for name in (
        "accesses", "instructions", "imbalance", "ipg", "mlp",
        "ws_l1_shared", "infl_l1_shared", "ws_l1_private",
        "infl_l1_private", "total_ws", "ws_l2_private",
        "infl_l2_private", "unique_words", "unique_lines", "conflict",
        "stride", "reuse_locality", "store_fraction", "lcp_instr",
        "fp_per_gpe", "read_bytes_compulsory", "write_bytes",
        "x1_contention", "x1_extra", "x1_transfers",
    )}
    for w in workloads:
        int_ops = w.int_ops
        if spm:
            int_ops *= 1.0 + params.SPM_ORCHESTRATION_OVERHEAD
        instructions = w.flops + int_ops + w.accesses
        imbalance = 1.0 + min(
            params.IMBALANCE_CAP - 1.0,
            params.IMBALANCE_COEFF * w.work_skew,
        )
        ipg = instructions / n_gpes * imbalance
        shared_frac = w.shared_fraction
        total_ws = w.live_set_bytes
        sf2 = w.shared_fraction * params.TILE_SHARING_FACTOR
        x1 = model_crossbar(
            accesses=w.accesses / tiles,
            busy_cycles=ipg,
            n_requesters=gpes,
            n_banks=gpes,
            shared=True,
        )
        cols["accesses"].append(w.accesses)
        cols["instructions"].append(instructions)
        cols["imbalance"].append(imbalance)
        cols["ipg"].append(ipg)
        cols["mlp"].append(
            params.MLP
            * (
                params.MLP_STRIDE_FLOOR
                + params.MLP_STRIDE_SLOPE * w.stride_fraction
            )
        )
        cols["ws_l1_shared"].append(
            total_ws * ((1.0 - shared_frac) / tiles + shared_frac)
        )
        cols["infl_l1_shared"].append(
            (1.0 - shared_frac) + shared_frac * min(tiles, 2.0)
        )
        cols["ws_l1_private"].append(
            total_ws * ((1.0 - shared_frac) / (tiles * gpes) + shared_frac)
        )
        cols["infl_l1_private"].append(
            (1.0 - shared_frac)
            + shared_frac * min(gpes, params.REPLICATION_CAP_L1)
        )
        cols["total_ws"].append(total_ws)
        cols["ws_l2_private"].append(total_ws * ((1.0 - sf2) / tiles + sf2))
        cols["infl_l2_private"].append(
            (1.0 - sf2) + sf2 * min(tiles, params.REPLICATION_CAP_L2)
        )
        cols["unique_words"].append(w.unique_words)
        cols["unique_lines"].append(w.unique_lines)
        cols["conflict"].append(
            params.CONFLICT_BASE
            + params.CONFLICT_IRREGULAR * (1.0 - w.stride_fraction)
        )
        cols["stride"].append(w.stride_fraction)
        cols["reuse_locality"].append(w.reuse_locality)
        cols["store_fraction"].append(w.stores / max(w.accesses, 1e-9))
        cols["lcp_instr"].append(
            w.instructions
            * params.LCP_WORK_FRACTION
            * (1.0 + w.work_skew)
            / tiles
        )
        cols["fp_per_gpe"].append(w.fp_ops / n_gpes)
        cols["read_bytes_compulsory"].append(w.read_bytes_compulsory)
        cols["write_bytes"].append(w.write_bytes)
        cols["x1_contention"].append(x1.contention_ratio)
        cols["x1_extra"].append(x1.extra_latency_cycles)
        cols["x1_transfers"].append(x1.transfers)
    return {
        name: np.asarray(values, dtype=np.float64).reshape(-1, 1)
        for name, values in cols.items()
    }


class _NeverStores(dict):
    """A memo that forgets: every lookup misses, every call recomputes."""

    def __setitem__(self, key, value) -> None:
        pass


_FORGETFUL = _NeverStores()

#: Shadows every controller's decision memo: a data descriptor wins
#: over the instance attribute, which assignments still reach, so a
#: controller built inside :func:`scalar_path` keeps its memo after.
_NO_DECISION_MEMO = property(
    lambda self: _FORGETFUL,
    lambda self, memo: self.__dict__.__setitem__("_decision_memo", memo),
)

_MISSING = object()


def _bindings(original) -> List[Tuple[object, str]]:
    """Every loaded module attribute bound to ``original``."""
    return [
        (module, name)
        for module in list(sys.modules.values())
        for name, value in list(getattr(module, "__dict__", {}).items())
        if value is original
    ]


@contextmanager
def scalar_path() -> Iterator[None]:
    """Run the block on the scalar reference code."""
    patches = [
        (static, "EpochGrid", ScalarGrid),
        (baselines_table, "EpochGrid", ScalarGrid),
        (dataset, "EpochGrid", ScalarGrid),
        (profileadapt, "EpochGrid", ScalarGrid),
        (SparseAdaptModel, "predict", predict),
        (DecisionTreeClassifier, "predict_proba", predict_proba),
        (DecisionTreeClassifier, "decision_path", decision_path),
        (SparseAdaptController, "_decision_memo", _NO_DECISION_MEMO),
        (transmuter_config, "_SAMPLE_MEMO", _FORGETFUL),
        (reconfig, "_COST_MEMO", _FORGETFUL),
    ]
    for original, replacement in (
        (static.ideal_static, ideal_static),
        (EpochAccumulator, ScalarEpochAccumulator),
        (kernels_spmspm.trace_spmspm, trace_spmspm),
        (kernels_spmspv.trace_spmspv, trace_spmspv),
        (sparse_ops.partials_per_row, partials_per_row),
    ):
        patches += [
            (module, name, replacement)
            for module, name in _bindings(original)
        ]
    with _patched(patches):
        yield


@contextmanager
def _patched(patches: List[Tuple[object, str, object]]) -> Iterator[None]:
    """Set each ``(owner, name, replacement)`` for the block, then undo."""
    saved = [(owner, name, vars(owner).get(name, _MISSING))
             for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def code_path(fast: bool) -> ContextManager[None]:
    """The production path when ``fast``, else :func:`scalar_path`."""
    return nullcontext() if fast else scalar_path()
