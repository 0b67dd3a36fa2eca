"""Multi-kernel application pipelines under one controller.

Real deployments (the paper's cloud/edge scenarios) run *sequences* of
offloaded kernels — e.g. a graph-analytics service running BFS, then
PageRank, then connected components over the same graph. Each kernel
boundary is a hard explicit phase change on top of the kernels' own
internal phases, and a single controller instance carries its
configuration across them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.controller import SparseAdaptController
from repro.core.schedule import ScheduleResult
from repro.errors import ConfigError
from repro.kernels.base import KernelTrace

__all__ = ["PipelineStage", "PipelineResult", "concat_traces", "run_pipeline"]


@dataclass(frozen=True)
class PipelineStage:
    """One kernel of a pipeline: a name and its workload trace."""

    name: str
    trace: KernelTrace


@dataclass
class PipelineResult:
    """Combined schedule plus the per-stage breakdown."""

    schedule: ScheduleResult
    stage_slices: List[Tuple[str, int, int]] = field(default_factory=list)

    def stage_schedule(self, name: str) -> ScheduleResult:
        """The sub-schedule of one named stage."""
        for stage_name, start, stop in self.stage_slices:
            if stage_name == name:
                sliced = ScheduleResult(scheme=f"{self.schedule.scheme}/{name}")
                sliced.records = self.schedule.records[start:stop]
                return sliced
        raise ConfigError(f"unknown pipeline stage {name!r}")

    def per_stage_summary(self) -> Dict[str, dict]:
        """Scalar summary per stage."""
        return {
            name: self.stage_schedule(name).summary()
            for name, _, _ in self.stage_slices
        }


def concat_traces(
    stages: Sequence[PipelineStage], name: str = "pipeline"
) -> KernelTrace:
    """Concatenate stage traces into one application trace."""
    if not stages:
        raise ConfigError("pipeline needs at least one stage")
    epochs = []
    info: Dict[str, float] = {}
    for stage in stages:
        epochs.extend(stage.trace.epochs)
        info[f"{stage.name}_epochs"] = float(stage.trace.n_epochs)
        info[f"{stage.name}_flops"] = stage.trace.total_flops
    return KernelTrace(name=name, epochs=epochs, info=info)


def run_pipeline(
    controller: SparseAdaptController,
    stages: Sequence[PipelineStage],
    name: str = "pipeline",
) -> PipelineResult:
    """Run the stages back to back under one controller instance.

    The controller's configuration state carries across stage
    boundaries, exactly as the runtime would behave for consecutive
    kernel offloads (the epoch after a boundary still reconfigures
    based on the last epoch of the previous kernel — an explicit phase
    change the telemetry must detect).
    """
    trace = concat_traces(stages, name)
    schedule = controller.run(trace)
    slices: List[Tuple[str, int, int]] = []
    cursor = 0
    for stage in stages:
        n = stage.trace.n_epochs
        slices.append((stage.name, cursor, cursor + n))
        cursor += n
    return PipelineResult(schedule=schedule, stage_slices=slices)
