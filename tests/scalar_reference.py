"""Scalar reference copies of the batched code, for differential tests.

Production has one code path: the vectorized epoch grid, the compiled
decision tables and the pure-function memos. This module keeps the
scalar code each of them replaced, and :func:`scalar_path` patches it
in for the duration of a ``with`` block, so a test can run the same
campaign both ways and compare the results byte for byte:

* ``run_static`` simulates epoch by epoch (``simulate_trace``);
* ``EpochTable`` fills its table cell by cell, and the training-set
  search and ProfileAdapt simulate their (workload, config) pairs one
  at a time, in pair order (``EpochGrid`` and its paired form);
* ``ideal_static`` scores a full schedule per configuration;
* ``SparseAdaptModel.predict`` walks each estimator itself instead of
  its compiled table;
* the controller's decision memo, the seeded-sample memo and the
  transition-cost memo never store, so every call recomputes.

Every simulated epoch goes through ``TransmuterModel.simulate_epoch``,
so a traced run under :func:`scalar_path` emits its ``machine.epoch``
records from the per-epoch model. The patches are module and class
attributes, which worker processes forked inside the block inherit.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, List, Tuple

import numpy as np

from repro.baselines import profileadapt, static
from repro.baselines import table as baselines_table
from repro.core import dataset
from repro.core.controller import SparseAdaptController
from repro.core.model import SPM_FIXED_L1_KB, SparseAdaptModel
from repro.core.schedule import EpochRecord, ScheduleResult
from repro.core.telemetry import build_features
from repro.errors import ModelError
from repro.obs import profile as obs_profile
from repro.transmuter import config as transmuter_config
from repro.transmuter import reconfig
from repro.transmuter.config import HardwareConfig
from repro.transmuter.counters import PerformanceCounters

__all__ = ["scalar_path", "code_path"]


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
    """``SparseAdaptModel.predict`` through the estimators' own walk."""
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
        (static, "simulate_trace", simulate_trace),
        (baselines_table, "EpochGrid", ScalarGrid),
        (dataset, "EpochGrid", ScalarGrid),
        (profileadapt, "EpochGrid", ScalarGrid),
        (SparseAdaptModel, "predict", predict),
        (SparseAdaptController, "_decision_memo", _NO_DECISION_MEMO),
        (transmuter_config, "_SAMPLE_MEMO", _FORGETFUL),
        (reconfig, "_COST_MEMO", _FORGETFUL),
    ]
    patches += [
        (module, name, ideal_static)
        for module, name in _bindings(static.ideal_static)
    ]
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
