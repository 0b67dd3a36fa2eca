"""Declarative campaign plans and content-addressed job keys.

A :class:`CampaignPlan` is the unit of scientific work the paper's
evaluation is built from: a named list of (kernel x matrix x scheme set
x mode) jobs, each fully described by data. Plans are what the suite
runner supervises and checkpoints — the plan says *what* to run, the
:mod:`repro.runner.executor` decides *how* (deadlines, retries,
ledger, resume).

Every job has a content-addressed key (:func:`job_key`): the SHA-256 of
its canonical JSON description. The run ledger stores results under
these keys, so ``--resume`` can skip completed jobs even across plan
edits — a job re-runs only when its *description* changed.

Plan files are strict JSON (unknown keys rejected, like fault schedule
specs)::

    {
      "name": "nightly",
      "defaults": {"scale": 0.3, "mode": "ee",
                   "schemes": ["Baseline", "SparseAdapt"]},
      "jobs": [
        {"kernel": "spmspm", "matrix": "R01"},
        {"kernel": "spmspv", "matrix": "R09", "scale": 0.2}
      ]
    }

:func:`table5_plan` builds the paper's full R01–R16 sweep (Table 5 /
Figures 12–14): SpMSpM over R01–R08, SpMSpV over R09–R16.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError
from repro.runner.ledger import _number

__all__ = [
    "KNOWN_KERNELS",
    "JobSpec",
    "CampaignPlan",
    "job_key",
    "table5_plan",
]

KNOWN_KERNELS: Tuple[str, ...] = ("spmspm", "spmspv", "bfs", "sssp")
_KNOWN_MODES: Tuple[str, ...] = ("ee", "pp")

_JOB_KEYS = (
    "kernel",
    "matrix",
    "scale",
    "mode",
    "schemes",
    "l1_type",
    "bandwidth_gbps",
    "deadline_s",
    "candidate",
    "workload",
    "seed",
    "policy",
    "hardening",
    "faults",
    "model",
    "regret",
)
#: Per-job identity fields that make no sense as plan-wide defaults.
_NON_DEFAULT_KEYS = ("kernel", "matrix", "candidate", "workload")
_DEFAULT_KEYS = tuple(k for k in _JOB_KEYS if k not in _NON_DEFAULT_KEYS)
_PLAN_KEYS = ("name", "defaults", "jobs", "faults")


def job_key(payload: Mapping) -> str:
    """Content-addressed key of one job description.

    The SHA-256 (truncated to 16 hex chars) of the canonical JSON form:
    sorted keys, compact separators. Two jobs with the same description
    always collide — that is the point: the ledger uses these keys to
    decide what "already ran" means.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class JobSpec:
    """One evaluation job: a kernel over a matrix under one scheme set."""

    kernel: str
    matrix: str
    scale: float = 0.3
    mode: str = "ee"
    schemes: Tuple[str, ...] = ("Baseline", "SparseAdapt")
    l1_type: str = "cache"
    bandwidth_gbps: float = 1.0
    #: Per-job deadline override; ``None`` inherits the runner's.
    deadline_s: Optional[float] = None
    #: Experiment-spec provenance: which named candidate/workload this
    #: job belongs to (``repro compare`` groups rows by these).
    candidate: Optional[str] = None
    workload: Optional[str] = None
    #: Input seed (vector generation, epoch-table sampling).
    seed: int = 0
    #: Declarative policy string (``conservative`` / ``aggressive`` /
    #: ``hybrid:<tolerance>``); ``None`` keeps the paper default.
    policy: Optional[str] = None
    #: ``False`` disables the hardened controller layer for this job's
    #: fault run; ``None`` keeps the default (hardened when faulted).
    hardening: Optional[bool] = None
    #: Hardware fault schedule applied to the adaptive scheme only.
    faults: Optional[dict] = None
    #: Path of a trained model JSON; ``None`` trains the stock model.
    model: Optional[str] = None
    #: Also compute the per-scheme oracle regret (builds an EpochTable,
    #: noticeably more expensive — opt in via the spec's metric list).
    regret: bool = False

    def __post_init__(self) -> None:
        from repro.sparse import suite

        if self.kernel not in KNOWN_KERNELS:
            raise ConfigError(
                f"unknown kernel {self.kernel!r} "
                f"(expected one of {', '.join(KNOWN_KERNELS)})"
            )
        if self.matrix not in suite.SUITE:
            raise ConfigError(f"unknown suite matrix {self.matrix!r}")
        # Checked, not converted: the job key hashes the value as written.
        if not _number(self.scale) or not 0.0 < self.scale <= 1.0:
            raise ConfigError(f"scale must be in (0, 1], got {self.scale!r}")
        if not _number(self.bandwidth_gbps) or self.bandwidth_gbps <= 0:
            raise ConfigError(
                "bandwidth must be finite and positive, "
                f"got {self.bandwidth_gbps!r}"
            )
        if self.mode not in _KNOWN_MODES:
            raise ConfigError(
                f"mode must be one of {_KNOWN_MODES}, got {self.mode!r}"
            )
        if self.l1_type not in ("cache", "spm"):
            raise ConfigError(
                f"l1_type must be 'cache' or 'spm', got {self.l1_type!r}"
            )
        schemes = tuple(self.schemes)
        object.__setattr__(self, "schemes", schemes)
        if not schemes:
            raise ConfigError("a job needs at least one scheme")
        from repro.experiments.harness import KNOWN_SCHEMES

        for name in schemes:
            if name not in KNOWN_SCHEMES:
                raise ConfigError(
                    f"unknown scheme {name!r} "
                    f"(expected one of {', '.join(KNOWN_SCHEMES)})"
                )
        if "Baseline" not in schemes:
            raise ConfigError(
                "every job must evaluate 'Baseline' (the gains reference)"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be positive, got {self.deadline_s!r}"
            )
        for name in ("candidate", "workload"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, str) or not value
            ):
                raise ConfigError(
                    f"{name} must be a non-empty string, got {value!r}"
                )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.policy is not None:
            from repro.core.policies import parse_policy

            parse_policy(self.policy)  # fail fast at plan-load time
        if self.hardening is not None and not isinstance(
            self.hardening, bool
        ):
            raise ConfigError(
                f"hardening must be true/false, got {self.hardening!r}"
            )
        if self.faults is not None:
            from repro.faults.spec import FaultSchedule

            if not isinstance(self.faults, Mapping):
                raise ConfigError(
                    f"job faults must be a schedule object, "
                    f"got {self.faults!r}"
                )
            # Canonicalize through the real parser so the job key hashes
            # the validated form, not an arbitrary spelling.
            object.__setattr__(
                self, "faults", FaultSchedule.from_dict(self.faults).as_dict()
            )
        if self.model is not None and (
            not isinstance(self.model, str) or not self.model
        ):
            raise ConfigError(
                f"model must be a path string, got {self.model!r}"
            )
        if not isinstance(self.regret, bool):
            raise ConfigError(
                f"regret must be true/false, got {self.regret!r}"
            )

    # ------------------------------------------------------------------
    def key(self) -> str:
        """Content-addressed identity of this job."""
        return job_key({"type": "evaluate", **self.as_dict()})

    def label(self) -> str:
        if self.candidate is not None:
            base = f"{self.candidate}:{self.workload or self.matrix}"
            return f"{base}/s{self.seed}" if self.seed else base
        return f"{self.kernel}/{self.matrix}/{self.mode}"

    @property
    def candidate_scheme(self) -> str:
        """The scheme whose metrics represent this job's candidate: the
        first non-Baseline scheme, or ``Baseline`` itself for
        baseline-only candidates."""
        for name in self.schemes:
            if name != "Baseline":
                return name
        return "Baseline"

    def as_dict(self) -> dict:
        out: dict = {
            "kernel": self.kernel,
            "matrix": self.matrix,
            "scale": self.scale,
            "mode": self.mode,
            "schemes": list(self.schemes),
            "l1_type": self.l1_type,
            "bandwidth_gbps": self.bandwidth_gbps,
        }
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        # Optional fields appear only when set: a job that does not use
        # them keeps its pre-existing content-addressed key, so old
        # ledgers stay resumable across this schema growth.
        if self.candidate is not None:
            out["candidate"] = self.candidate
        if self.workload is not None:
            out["workload"] = self.workload
        if self.seed != 0:
            out["seed"] = self.seed
        if self.policy is not None:
            out["policy"] = self.policy
        if self.hardening is not None:
            out["hardening"] = self.hardening
        if self.faults is not None:
            out["faults"] = self.faults
        if self.model is not None:
            out["model"] = self.model
        if self.regret:
            out["regret"] = True
        return out

    @staticmethod
    def from_dict(raw: Mapping, defaults: Optional[Mapping] = None) -> "JobSpec":
        if not isinstance(raw, Mapping):
            raise ConfigError(f"plan job must be an object, got {raw!r}")
        for key in raw:
            if key not in _JOB_KEYS:
                raise ConfigError(f"unknown plan job key {key!r}")
        merged = dict(defaults or {})
        merged.update(raw)
        if "kernel" not in merged or "matrix" not in merged:
            raise ConfigError("plan job needs 'kernel' and 'matrix'")
        if "schemes" in merged:
            schemes = merged["schemes"]
            if isinstance(schemes, str) or not isinstance(schemes, Iterable):
                raise ConfigError("'schemes' must be a list of scheme names")
            merged["schemes"] = tuple(schemes)
        return JobSpec(**merged)


@dataclass(frozen=True)
class CampaignPlan:
    """A named, ordered list of jobs plus an optional fault schedule.

    ``faults`` carries host-level fault kinds (``job_hang`` /
    ``job_crash`` / ``job_oom``) that the runner applies per job
    attempt; hardware
    kinds in the same schedule are ignored at this layer.
    """

    name: str
    jobs: Tuple[JobSpec, ...]
    faults: Optional[object] = None  # FaultSchedule; untyped to stay lazy

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("a campaign plan needs a non-empty name")
        if not self.jobs:
            raise ConfigError("a campaign plan needs at least one job")
        seen: dict = {}
        for spec in self.jobs:
            key = spec.key()
            if key in seen:
                raise ConfigError(
                    f"duplicate job in plan: {spec.label()} "
                    f"(same description as {seen[key].label()})"
                )
            seen[key] = spec

    # ------------------------------------------------------------------
    def key(self) -> str:
        """Content-addressed identity of the whole plan."""
        return job_key({"type": "plan", **self.as_dict()})

    def as_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "jobs": [spec.as_dict() for spec in self.jobs],
        }
        if self.faults is not None:
            out["faults"] = self.faults.as_dict()
        return out

    @staticmethod
    def from_dict(raw: Mapping) -> "CampaignPlan":
        from repro.faults.spec import FaultSchedule

        if not isinstance(raw, Mapping):
            raise ConfigError(
                f"campaign plan must be an object, got {type(raw).__name__}"
            )
        for key in raw:
            if key not in _PLAN_KEYS:
                raise ConfigError(f"unknown campaign plan key {key!r}")
        if "jobs" not in raw:
            raise ConfigError("campaign plan is missing the 'jobs' list")
        jobs = raw["jobs"]
        if isinstance(jobs, (str, bytes)) or not isinstance(jobs, Iterable):
            raise ConfigError("'jobs' must be a list of job objects")
        defaults = raw.get("defaults", {})
        if not isinstance(defaults, Mapping):
            raise ConfigError("'defaults' must be an object")
        for key in defaults:
            if key not in _DEFAULT_KEYS:
                raise ConfigError(f"unknown plan defaults key {key!r}")
        faults = raw.get("faults")
        return CampaignPlan(
            name=raw.get("name", "campaign"),
            jobs=tuple(
                JobSpec.from_dict(entry, defaults=defaults) for entry in jobs
            ),
            faults=(
                FaultSchedule.from_dict(faults) if faults is not None else None
            ),
        )

    @staticmethod
    def from_file(path: Union[str, "object"]) -> "CampaignPlan":
        """Load a JSON plan file; every failure is a :class:`ConfigError`."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            raise ConfigError(f"no such plan file: {path}") from None
        except IsADirectoryError:
            raise ConfigError(f"{path} is a directory, not a plan") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed plan {path}: {exc}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read plan {path}: {exc}") from None
        try:
            return CampaignPlan.from_dict(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid plan {path}: {exc}") from None

    def save(self, path) -> None:
        from repro.obs.sinks import write_atomic

        write_atomic(
            path,
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
        )


def table5_plan(
    scale: float = 0.3,
    mode: str = "ee",
    schemes: Sequence[str] = ("Baseline", "Best Avg", "Max Cfg", "SparseAdapt"),
) -> CampaignPlan:
    """The paper's Table-5 sweep as a plan.

    SpMSpM over the R01–R08 matrices and SpMSpV over R09–R16, every
    matrix evaluated against the standard scheme comparison set.
    """
    jobs = [
        JobSpec(
            kernel="spmspm",
            matrix=f"R{index:02d}",
            scale=scale,
            mode=mode,
            schemes=tuple(schemes),
        )
        for index in range(1, 9)
    ] + [
        JobSpec(
            kernel="spmspv",
            matrix=f"R{index:02d}",
            scale=scale,
            mode=mode,
            schemes=tuple(schemes),
        )
        for index in range(9, 17)
    ]
    return CampaignPlan(name="table5", jobs=tuple(jobs))
