"""Declarative strategy-vs-strategy experiment specs.

An experiment spec is a small JSON (or TOML, on Python 3.11+) file
that names *candidates* — complete controller/baseline configurations:
a scheme plus optional policy, hardening switch, fault schedule, and
trained model — and *workloads* (kernel x matrix selections), a seed
list, and the metric set to compare them on::

    {
      "name": "policies",
      "baseline": "conservative",
      "metrics": ["efficiency_gain", "perf_gain"],
      "seeds": [0],
      "defaults": {"kernel": "spmspv", "scale": 0.3, "mode": "pp"},
      "candidates": [
        {"name": "conservative", "policy": "conservative"},
        {"name": "hybrid-40", "policy": "hybrid:0.4"},
        {"name": "best-avg", "scheme": "Best Avg"}
      ],
      "workloads": [
        {"matrix": "P3"},
        {"matrix": "R12"}
      ],
      "gates": [
        {"candidate": "hybrid-40", "metric": "efficiency_gain",
         "within_pct": 50}
      ]
    }

:func:`compile_plan` turns the cross product (workload-major:
workloads, then candidates, then seeds) into an ordinary
:class:`~repro.runner.plan.CampaignPlan` whose jobs carry their
candidate/workload/seed identity, so specs run through ``suite-run``'s
supervised, sharded, kill/resume-safe executor *unchanged* and land in
the same content-addressed ledger format. The comparison layer
(:mod:`repro.obs.compare`, ``repro compare``) scrapes the declared
metrics back out of the ledger and renders side-by-side reports.

Like plan and fault-schedule files, specs are strict: unknown keys are
rejected at every level, and cross-references (baseline candidate,
gate targets) are checked at load time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError

__all__ = [
    "DEFAULT_METRICS",
    "CandidateSpec",
    "WorkloadSpec",
    "RegressionGate",
    "ExperimentSpec",
    "compile_plan",
    "load_spec",
    "looks_like_spec",
]

#: Metrics compared when the spec does not declare a list.
DEFAULT_METRICS: Tuple[str, ...] = ("efficiency_gain", "perf_gain")

_SPEC_KEYS = (
    "name",
    "description",
    "baseline",
    "metrics",
    "seeds",
    "defaults",
    "candidates",
    "workloads",
    "gates",
)
_CANDIDATE_KEYS = ("name", "scheme", "policy", "hardening", "faults", "model")
_WORKLOAD_KEYS = (
    "name",
    "kernel",
    "matrix",
    "scale",
    "mode",
    "l1_type",
    "bandwidth_gbps",
)
#: Workload fields the spec-level ``defaults`` object may set.
_WORKLOAD_DEFAULT_KEYS = tuple(
    key for key in _WORKLOAD_KEYS if key not in ("name", "matrix")
)
_GATE_KEYS = ("candidate", "metric", "within_pct", "of", "workload")


def _require_keys(raw: Mapping, known: Tuple[str, ...], what: str) -> None:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{what} must be an object, got {raw!r}")
    for key in raw:
        if key not in known:
            raise ConfigError(
                f"unknown {what} key {key!r} "
                f"(expected one of {', '.join(known)})"
            )


def _name_of(raw: Mapping, what: str, fallback: Optional[str] = None) -> str:
    name = raw.get("name", fallback)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{what} needs a non-empty 'name'")
    return name


@dataclass(frozen=True)
class CandidateSpec:
    """One named strategy under comparison."""

    name: str
    scheme: str = "SparseAdapt"
    policy: Optional[str] = None
    hardening: Optional[bool] = None
    faults: Optional[dict] = None
    model: Optional[str] = None

    @staticmethod
    def from_dict(raw: Mapping) -> "CandidateSpec":
        _require_keys(raw, _CANDIDATE_KEYS, "candidate")
        return CandidateSpec(
            name=_name_of(raw, "candidate"),
            scheme=raw.get("scheme", "SparseAdapt"),
            policy=raw.get("policy"),
            hardening=raw.get("hardening"),
            faults=raw.get("faults"),
            model=raw.get("model"),
        )

    def schemes(self) -> Tuple[str, ...]:
        """The evaluation scheme set: Baseline (the gains reference)
        plus this candidate's scheme, unless the candidate *is* the
        baseline machine."""
        if self.scheme == "Baseline":
            return ("Baseline",)
        return ("Baseline", self.scheme)


@dataclass(frozen=True)
class WorkloadSpec:
    """One named kernel x matrix input the candidates all run on."""

    name: str
    kernel: str
    matrix: str
    scale: float = 0.3
    mode: str = "ee"
    l1_type: str = "cache"
    bandwidth_gbps: float = 1.0

    @staticmethod
    def from_dict(
        raw: Mapping, defaults: Optional[Mapping] = None
    ) -> "WorkloadSpec":
        _require_keys(raw, _WORKLOAD_KEYS, "workload")
        merged = dict(defaults or {})
        merged.update(raw)
        if "kernel" not in merged or "matrix" not in merged:
            raise ConfigError(
                "workload needs 'kernel' and 'matrix' ('matrix' on each "
                "workload; 'kernel' there or in spec defaults)"
            )
        merged.setdefault("name", merged["matrix"])
        return WorkloadSpec(**merged)


@dataclass(frozen=True)
class RegressionGate:
    """``require: candidate X within Y% of candidate Z on metric M``.

    ``of`` defaults to the spec's baseline candidate; ``workload``
    limits the check to one workload (default: the geomean across all
    of them). A gate *passes* when the candidate's value is no more
    than ``within_pct`` percent worse than the reference on that
    metric, worse meaning lower for higher-is-better metrics and
    higher for lower-is-better ones. A negative ``within_pct`` turns
    the tolerance into a required lead: the candidate must beat the
    reference by at least ``|within_pct|`` percent.
    """

    candidate: str
    metric: str
    within_pct: float
    of: Optional[str] = None
    workload: Optional[str] = None

    @staticmethod
    def from_dict(raw: Mapping) -> "RegressionGate":
        _require_keys(raw, _GATE_KEYS, "gate")
        for key in ("candidate", "metric", "within_pct"):
            if key not in raw:
                raise ConfigError(f"gate is missing {key!r}")
        within = raw["within_pct"]
        if not isinstance(within, (int, float)) or isinstance(within, bool):
            raise ConfigError(
                f"gate within_pct must be a number, got {within!r}"
            )
        if not math.isfinite(within):
            raise ConfigError(
                f"gate within_pct must be finite, got {within!r}"
            )
        return RegressionGate(
            candidate=raw["candidate"],
            metric=raw["metric"],
            within_pct=float(within),
            of=raw.get("of"),
            workload=raw.get("workload"),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed, cross-checked experiment file."""

    name: str
    candidates: Tuple[CandidateSpec, ...]
    workloads: Tuple[WorkloadSpec, ...]
    baseline: str
    metrics: Tuple[str, ...] = DEFAULT_METRICS
    seeds: Tuple[int, ...] = (0,)
    gates: Tuple[RegressionGate, ...] = ()
    description: str = ""

    def candidate_names(self) -> List[str]:
        return [candidate.name for candidate in self.candidates]

    def workload_names(self) -> List[str]:
        return [workload.name for workload in self.workloads]

    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(raw: Mapping) -> "ExperimentSpec":
        _require_keys(raw, _SPEC_KEYS, "experiment spec")
        name = _name_of(raw, "experiment spec")
        for key in ("candidates", "workloads"):
            entries = raw.get(key)
            if not isinstance(entries, (list, tuple)) or not entries:
                raise ConfigError(
                    f"experiment spec needs a non-empty {key!r} list"
                )

        candidates = tuple(
            CandidateSpec.from_dict(entry) for entry in raw["candidates"]
        )
        _reject_duplicates([c.name for c in candidates], "candidate")

        defaults = raw.get("defaults", {})
        _require_keys(defaults, _WORKLOAD_DEFAULT_KEYS, "spec defaults")
        workloads = tuple(
            WorkloadSpec.from_dict(entry, defaults=defaults)
            for entry in raw["workloads"]
        )
        _reject_duplicates([w.name for w in workloads], "workload")

        baseline = raw.get("baseline", candidates[0].name)
        if baseline not in [c.name for c in candidates]:
            raise ConfigError(
                f"baseline {baseline!r} is not a declared candidate"
            )

        metrics = tuple(raw.get("metrics", DEFAULT_METRICS))
        if not metrics:
            raise ConfigError("experiment spec 'metrics' must be non-empty")
        _reject_duplicates(list(metrics), "metric")
        from repro.obs.compare import METRICS

        for metric in metrics:
            if metric not in METRICS:
                raise ConfigError(
                    f"unknown metric {metric!r} "
                    f"(expected one of {', '.join(sorted(METRICS))})"
                )

        seeds = raw.get("seeds", [0])
        if not isinstance(seeds, (list, tuple)) or not seeds:
            raise ConfigError("'seeds' must be a non-empty list of integers")
        for seed in seeds:
            if (
                not isinstance(seed, int)
                or isinstance(seed, bool)
                or seed < 0
            ):
                raise ConfigError(f"seeds must be integers >= 0, got {seed!r}")
        _reject_duplicates([str(seed) for seed in seeds], "seed")

        gates = tuple(
            RegressionGate.from_dict(entry) for entry in raw.get("gates", [])
        )
        spec = ExperimentSpec(
            name=name,
            candidates=candidates,
            workloads=workloads,
            baseline=baseline,
            metrics=metrics,
            seeds=tuple(seeds),
            gates=gates,
            description=raw.get("description", ""),
        )
        spec._check_gates()
        return spec

    def _check_gates(self) -> None:
        candidates = set(self.candidate_names())
        workloads = set(self.workload_names())
        for gate in self.gates:
            if gate.candidate not in candidates:
                raise ConfigError(
                    f"gate names unknown candidate {gate.candidate!r}"
                )
            reference = gate.of if gate.of is not None else self.baseline
            if reference not in candidates:
                raise ConfigError(
                    f"gate names unknown reference candidate {reference!r}"
                )
            if reference == gate.candidate:
                raise ConfigError(
                    f"gate compares candidate {gate.candidate!r} "
                    f"against itself"
                )
            if gate.metric not in self.metrics:
                raise ConfigError(
                    f"gate metric {gate.metric!r} is not in the spec's "
                    f"metric list ({', '.join(self.metrics)})"
                )
            if gate.workload is not None and gate.workload not in workloads:
                raise ConfigError(
                    f"gate names unknown workload {gate.workload!r}"
                )


def _reject_duplicates(names: List[str], what: str) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise ConfigError(f"duplicate {what} name {name!r}")
        seen.add(name)


# ---------------------------------------------------------------------------
# Spec -> CampaignPlan compilation
# ---------------------------------------------------------------------------
def compile_plan(spec: ExperimentSpec):
    """Compile a spec into a :class:`~repro.runner.plan.CampaignPlan`.

    Jobs are emitted workload-major (all candidates x seeds of workload
    1, then workload 2, ...) so a partially-run ledger always holds
    complete comparison rows for a prefix of the workloads. Every job
    carries its candidate/workload/seed identity in both the
    content-addressed key and the ledger row metadata.
    """
    from repro.runner.plan import CampaignPlan, JobSpec

    regret = "oracle_regret_pct" in spec.metrics
    jobs = []
    for workload in spec.workloads:
        for candidate in spec.candidates:
            for seed in spec.seeds:
                jobs.append(
                    JobSpec(
                        kernel=workload.kernel,
                        matrix=workload.matrix,
                        scale=workload.scale,
                        mode=workload.mode,
                        schemes=candidate.schemes(),
                        l1_type=workload.l1_type,
                        bandwidth_gbps=workload.bandwidth_gbps,
                        candidate=candidate.name,
                        workload=workload.name,
                        seed=seed,
                        policy=candidate.policy,
                        hardening=candidate.hardening,
                        faults=candidate.faults,
                        model=candidate.model,
                        regret=regret,
                    )
                )
    return CampaignPlan(name=spec.name, jobs=tuple(jobs))


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------
def load_spec(path: Union[str, "object"]) -> ExperimentSpec:
    """Load a spec file (JSON, or TOML on Python 3.11+).

    Every failure — missing file, malformed syntax, schema violation —
    is a :class:`ConfigError` with a one-line explanation.
    """
    raw = _read_raw(path)
    return ExperimentSpec.from_dict(raw)


def _read_raw(path) -> Mapping:
    text_path = str(path)
    if text_path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise ConfigError(
                "TOML specs need Python 3.11+ (tomllib); "
                "convert the spec to JSON to run it here"
            ) from None
        try:
            with open(path, "rb") as handle:
                return tomllib.load(handle)
        except FileNotFoundError:
            raise ConfigError(f"no such spec file: {path}") from None
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"malformed spec {path}: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read spec {path}: {exc}") from None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"no such spec file: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"{path} is a directory, not a spec") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed spec {path}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read spec {path}: {exc}") from None
    if not isinstance(raw, Mapping):
        raise ConfigError(
            f"spec {path} must contain a JSON object, "
            f"got {type(raw).__name__}"
        )
    return raw


def looks_like_spec(path) -> bool:
    """Cheap sniff: is ``path`` an experiment spec file (vs a ledger)?

    Spec files are single JSON/TOML documents with a ``candidates``
    list; ledgers are JSONL streams whose first record is a header
    object without one. Used by ``repro compare`` to accept either.
    """
    try:
        raw = _read_raw(path)
    except ConfigError:
        return False
    return isinstance(raw, Mapping) and "candidates" in raw
