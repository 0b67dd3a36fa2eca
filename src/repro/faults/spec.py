"""Fault taxonomy and declarative fault schedules.

A :class:`FaultSpec` describes *what* fails, *when*, and *how severely*;
a :class:`FaultSchedule` bundles several specs with one master seed so a
whole campaign is reproducible bit-for-bit. Specs are data, not
behaviour: :mod:`repro.faults.injector` interprets them at runtime.

Fault kinds (see ``docs/robustness.md`` for the full taxonomy):

=====================  ====================================================
Kind                   Effect when it fires
=====================  ====================================================
``counter_noise``      Multiplicative Gaussian noise (sigma = severity) on
                       every non-echo counter (``--noise`` is a one-spec
                       schedule of this kind).
``counter_dropout``    Each non-echo counter is lost with probability
                       ``severity``; a lost counter reads NaN (default) or
                       zero (``params: {"mode": "zero"}``).
``counter_saturation`` Each counter is pinned to its full-scale
                       plausibility bound with probability ``severity``
                       (a saturated/clipped hardware counter).
``counter_stale``      The whole counter vector is replaced by the
                       previous epoch's raw values (a missed sample
                       window replaying the old latch contents).
``reconfig_drop``      A commanded reconfiguration is silently not
                       applied; the hardware keeps its old configuration.
``reconfig_partial``   Each changed parameter independently fails to land
                       with probability ``severity`` (e.g. DVFS applies
                       but the cache resize doesn't).
``bandwidth_throttle`` Off-chip bandwidth is scaled by ``1 - severity``
                       for ``params: {"duration": N}`` epochs (transient
                       HBM contention/refresh storm).
``thermal_clamp``      The effective clock is capped at
                       ``params: {"clamp_mhz": f}`` for ``duration``
                       epochs (thermal DVFS clamp window).
``job_hang``           Host-level: a campaign job stalls for
                       ``params: {"seconds": s}`` before doing any work
                       (a wedged kernel/driver); the suite runner's
                       deadline watchdog is what catches it.
``job_crash``          Host-level: a campaign job dies mid-run with a
                       retryable error (a segfaulted worker, from the
                       supervisor's point of view).
``job_oom``            Host-level: a campaign job aborts under memory
                       pressure (:class:`MemoryError`); the suite runner
                       quarantines it immediately — rerunning the same
                       job at the same scale would just OOM again.
``lease_lost``         Fabric-level: a store worker's lease on the job it
                       is running vanishes mid-execution (an aggressive
                       reclaim, an operator ``rm``); the worker must
                       detect the loss and discard its partial output —
                       convergence is preserved by first-wins publishing.
``clock_skew``         Fabric-level: the claiming worker's wall clock is
                       offset by ``params: {"seconds": s}`` (positive or
                       negative), so the lease deadlines it writes and
                       reads disagree with its peers' — exercising early
                       reclaim and double-run harmlessness.
``io_enospc``          Storage-level: a durability-critical write fails
                       with ``ENOSPC`` (the disk filled up mid-campaign).
``io_eio``             Storage-level: a durability-critical write, fsync,
                       or rename fails with ``EIO`` (a dying disk or a
                       flaky network mount).
``io_torn_write``      Storage-level: a write persists only a prefix of
                       its record before failing — the torn line a crash
                       or torn page leaves behind; readers must skip or
                       quarantine it, never half-read it.
``io_rename_lost``     Storage-level: an ``os.replace``/``os.link``/
                       ``os.rename`` silently does not take effect (a
                       power cut rolled back the non-durable rename);
                       the temporary file is left as an orphan.
``io_fsync_lie``       Storage-level: ``fsync`` reports success without
                       syncing (lying volatile write caches), so code
                       must never treat an fsync return as proof beyond
                       what a checksum can verify.
=====================  ====================================================

The ``job_*`` kinds are interpreted by :mod:`repro.runner`, not by
the :class:`~repro.faults.injector.FaultInjector` — their window and
rate apply per campaign *job attempt* instead of per epoch. The
fabric kinds (``lease_lost``/``clock_skew``) are interpreted by
:mod:`repro.runner.store` workers, per claimed job. The storage kinds
(``io_*``) are interpreted by the :class:`repro.faults.io` shim, per
durability-critical I/O operation. Both fire only in ``--store``
campaigns: serial and ``--workers`` runs honour the host kinds alone.
A schedule may mix host-level,
fabric-level, storage-level, and hardware kinds; each layer consumes
its own.

``rate`` is the per-epoch probability that a spec fires inside its
``[start_epoch, end_epoch)`` window; a rate of 1.0 fires every epoch
*without consuming a random draw*, so a rate-1.0 spec's stream depends
on its seed alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.errors import FaultError
from repro.transmuter.config import CLOCKS_MHZ

__all__ = [
    "COUNTER_FAULTS",
    "RECONFIG_FAULTS",
    "MACHINE_FAULTS",
    "HOST_FAULTS",
    "STORE_FAULTS",
    "IO_FAULTS",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultSchedule",
    "noise_schedule",
    "mixed_schedule",
]

COUNTER_FAULTS: Tuple[str, ...] = (
    "counter_noise",
    "counter_dropout",
    "counter_saturation",
    "counter_stale",
)
RECONFIG_FAULTS: Tuple[str, ...] = ("reconfig_drop", "reconfig_partial")
MACHINE_FAULTS: Tuple[str, ...] = ("bandwidth_throttle", "thermal_clamp")
#: Host-level kinds, interpreted per job attempt by ``repro.runner``.
HOST_FAULTS: Tuple[str, ...] = ("job_hang", "job_crash", "job_oom")
#: Fabric-level kinds, interpreted per claimed job by
#: ``repro.runner.store`` workers (kept out of ``HOST_FAULTS`` so the
#: supervisor's injector never mistakes a lease fault for a job crash).
STORE_FAULTS: Tuple[str, ...] = ("lease_lost", "clock_skew")
#: Storage-level kinds, interpreted per durability-critical I/O
#: operation by the :mod:`repro.faults.io` shim.
IO_FAULTS: Tuple[str, ...] = (
    "io_enospc",
    "io_eio",
    "io_torn_write",
    "io_rename_lost",
    "io_fsync_lie",
)

#: Every fault kind the framework understands (hardware + host level).
FAULT_KINDS: Tuple[str, ...] = (
    COUNTER_FAULTS
    + RECONFIG_FAULTS
    + MACHINE_FAULTS
    + HOST_FAULTS
    + STORE_FAULTS
    + IO_FAULTS
)

#: Allowed keys of ``FaultSpec.params`` per kind.
_PARAM_KEYS: Dict[str, Tuple[str, ...]] = {
    "counter_dropout": ("mode",),
    "bandwidth_throttle": ("duration",),
    "thermal_clamp": ("duration", "clamp_mhz"),
    "job_hang": ("seconds",),
    "clock_skew": ("seconds",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: what fails, when, and how severely.

    ``seed`` pins this spec's private random stream; when ``None`` the
    stream is derived from the schedule seed and the spec's position,
    so two specs of the same kind never share draws.
    """

    kind: str
    rate: float = 1.0
    severity: float = 1.0
    start_epoch: int = 0
    end_epoch: Optional[int] = None
    seed: Optional[int] = None
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        if not isinstance(self.rate, (int, float)) or isinstance(
            self.rate, bool
        ):
            raise FaultError(f"fault rate must be a number, got {self.rate!r}")
        if not 0.0 <= float(self.rate) <= 1.0:
            raise FaultError(
                f"fault rate must be in [0, 1], got {self.rate!r}"
            )
        if not isinstance(self.severity, (int, float)) or isinstance(
            self.severity, bool
        ):
            raise FaultError(
                f"fault severity must be a number, got {self.severity!r}"
            )
        if not 0.0 < float(self.severity) <= 1.0:
            raise FaultError(
                f"fault severity must be in (0, 1], got {self.severity!r}"
            )
        if self.start_epoch < 0:
            raise FaultError(
                f"start_epoch must be non-negative, got {self.start_epoch}"
            )
        if self.end_epoch is not None and self.end_epoch <= self.start_epoch:
            raise FaultError(
                f"end_epoch ({self.end_epoch}) must be greater than "
                f"start_epoch ({self.start_epoch})"
            )
        allowed = _PARAM_KEYS.get(self.kind, ())
        for key in self.params:
            if key not in allowed:
                raise FaultError(
                    f"unknown param {key!r} for fault kind {self.kind!r}"
                )
        if self.kind == "counter_dropout":
            mode = self.params.get("mode", "nan")
            if mode not in ("nan", "zero"):
                raise FaultError(
                    f"counter_dropout mode must be 'nan' or 'zero', "
                    f"got {mode!r}"
                )
        if self.kind in MACHINE_FAULTS:
            duration = self.params.get("duration", 3)
            if not isinstance(duration, int) or duration < 1:
                raise FaultError(
                    f"duration must be a positive integer, got {duration!r}"
                )
        if self.kind == "thermal_clamp":
            clamp = self.params.get("clamp_mhz", 250.0)
            if clamp not in CLOCKS_MHZ:
                raise FaultError(
                    f"clamp_mhz must be one of {CLOCKS_MHZ}, got {clamp!r}"
                )
        if self.kind == "job_hang":
            seconds = self.params.get("seconds", 30.0)
            if (
                not isinstance(seconds, (int, float))
                or isinstance(seconds, bool)
                or seconds <= 0
            ):
                raise FaultError(
                    f"job_hang seconds must be a positive number, "
                    f"got {seconds!r}"
                )
        if self.kind == "clock_skew":
            seconds = self.params.get("seconds", 30.0)
            if (
                not isinstance(seconds, (int, float))
                or isinstance(seconds, bool)
                or seconds == 0
            ):
                raise FaultError(
                    f"clock_skew seconds must be a non-zero number "
                    f"(positive = fast clock, negative = slow), "
                    f"got {seconds!r}"
                )

    # ------------------------------------------------------------------
    def applies_to(self, epoch: int) -> bool:
        """Whether ``epoch`` lies inside this spec's active window."""
        if epoch < self.start_epoch:
            return False
        return self.end_epoch is None or epoch < self.end_epoch

    def scaled(self, factor: float) -> "FaultSpec":
        """Copy with the fire rate multiplied by ``factor`` (capped at 1)."""
        if factor < 0:
            raise FaultError(f"rate factor must be non-negative, got {factor}")
        return FaultSpec(
            kind=self.kind,
            rate=min(1.0, self.rate * factor),
            severity=self.severity,
            start_epoch=self.start_epoch,
            end_epoch=self.end_epoch,
            seed=self.seed,
            params=dict(self.params),
        )

    def as_dict(self) -> dict:
        """JSON-friendly view (spec files, trace payloads)."""
        out: dict = {"kind": self.kind, "rate": self.rate}
        if self.severity != 1.0:
            out["severity"] = self.severity
        if self.start_epoch:
            out["start_epoch"] = self.start_epoch
        if self.end_epoch is not None:
            out["end_epoch"] = self.end_epoch
        if self.seed is not None:
            out["seed"] = self.seed
        if self.params:
            out["params"] = dict(self.params)
        return out

    @staticmethod
    def from_dict(raw: Mapping) -> "FaultSpec":
        """Parse one spec entry, rejecting unknown keys."""
        if not isinstance(raw, Mapping):
            raise FaultError(f"fault spec must be an object, got {raw!r}")
        known = (
            "kind",
            "rate",
            "severity",
            "start_epoch",
            "end_epoch",
            "seed",
            "params",
        )
        for key in raw:
            if key not in known:
                raise FaultError(f"unknown fault spec key {key!r}")
        if "kind" not in raw:
            raise FaultError("fault spec is missing the 'kind' key")
        return FaultSpec(
            kind=raw["kind"],
            rate=raw.get("rate", 1.0),
            severity=raw.get("severity", 1.0),
            start_epoch=raw.get("start_epoch", 0),
            end_epoch=raw.get("end_epoch"),
            seed=raw.get("seed"),
            params=dict(raw.get("params", {})),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A reproducible set of fault sources driving one run or campaign."""

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise FaultError(f"schedule seed must be an int, got {self.seed!r}")
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise FaultError(
                    f"schedule entries must be FaultSpec, got {spec!r}"
                )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(spec.kind for spec in self.specs)

    def scaled(self, factor: float) -> "FaultSchedule":
        """Copy with every spec's rate multiplied by ``factor``."""
        return FaultSchedule(
            specs=tuple(spec.scaled(factor) for spec in self.specs),
            seed=self.seed,
        )

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.as_dict() for spec in self.specs],
        }

    @staticmethod
    def from_dict(raw: Mapping) -> "FaultSchedule":
        """Parse ``{"seed": ..., "faults": [...]}``; strict on keys."""
        if not isinstance(raw, Mapping):
            raise FaultError(
                f"fault schedule must be an object, got {type(raw).__name__}"
            )
        for key in raw:
            if key not in ("seed", "faults"):
                raise FaultError(f"unknown fault schedule key {key!r}")
        if "faults" not in raw:
            raise FaultError("fault schedule is missing the 'faults' list")
        faults = raw["faults"]
        if not isinstance(faults, Iterable) or isinstance(faults, (str, bytes)):
            raise FaultError("'faults' must be a list of fault specs")
        return FaultSchedule(
            specs=tuple(FaultSpec.from_dict(entry) for entry in faults),
            seed=raw.get("seed", 0),
        )

    @staticmethod
    def from_file(path: Union[str, "object"]) -> "FaultSchedule":
        """Load a JSON spec file; every failure is a :class:`FaultError`."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except FileNotFoundError:
            raise FaultError(f"no such fault spec file: {path}") from None
        except IsADirectoryError:
            raise FaultError(f"{path} is a directory, not a spec file") from None
        except json.JSONDecodeError as exc:
            raise FaultError(f"malformed fault spec {path}: {exc}") from None
        except OSError as exc:
            raise FaultError(f"cannot read fault spec {path}: {exc}") from None
        return FaultSchedule.from_dict(raw)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


# ---------------------------------------------------------------------------
def noise_schedule(sigma: float, seed: int = 0) -> FaultSchedule:
    """Gaussian telemetry noise (``--noise sigma --noise-seed seed``).

    The single ``counter_noise`` spec fires every epoch (rate 1.0, so no
    fire draws are consumed) and pins its private stream to ``seed``, so
    the counter perturbations depend on ``sigma`` and ``seed`` alone.
    Pair it with ``HardeningConfig.disabled()`` to see the raw noise.
    """
    if sigma <= 0:
        raise FaultError(f"noise sigma must be positive, got {sigma}")
    return FaultSchedule(
        specs=(
            FaultSpec(
                kind="counter_noise", rate=1.0, severity=sigma, seed=seed
            ),
        ),
        seed=seed,
    )


def mixed_schedule(
    rate: float,
    seed: int = 0,
    noise_sigma: float = 0.1,
    dropout_mode: str = "nan",
) -> FaultSchedule:
    """A representative all-kinds campaign schedule at one base rate.

    Every fault family is present: the counter faults fire independently
    at ``rate``, the reconfiguration faults at ``rate``, and the two
    transient machine events at ``rate / 2`` with short windows.
    ``experiments/specs/fault_rates.json`` inlines
    ``mixed_schedule(0.1).scaled(f).as_dict()`` for each swept rate
    factor ``f``.
    """
    if not 0.0 <= rate <= 1.0:
        raise FaultError(f"fault rate must be in [0, 1], got {rate}")
    if rate == 0.0:
        return FaultSchedule(specs=(), seed=seed)
    return FaultSchedule(
        specs=(
            FaultSpec("counter_noise", rate=rate, severity=noise_sigma),
            FaultSpec(
                "counter_dropout",
                rate=rate,
                severity=0.5,
                params={"mode": dropout_mode},
            ),
            FaultSpec("counter_saturation", rate=rate, severity=0.5),
            FaultSpec("counter_stale", rate=rate),
            FaultSpec("reconfig_drop", rate=rate),
            FaultSpec("reconfig_partial", rate=rate, severity=0.5),
            FaultSpec(
                "bandwidth_throttle",
                rate=rate / 2.0,
                severity=0.5,
                params={"duration": 3},
            ),
            FaultSpec(
                "thermal_clamp",
                rate=rate / 2.0,
                params={"duration": 3, "clamp_mhz": 250.0},
            ),
        ),
        seed=seed,
    )
