"""The SparseAdapt runtime controller (paper Figure 3a).

At the end of every epoch the controller (i) collects the hardware
telemetry, (ii) runs the predictive-model ensemble to get the proposed
configuration for the next epoch, (iii) filters the proposal through
the reconfiguration cost-aware policy, and (iv) applies the surviving
changes, charging the transition cost to the next epoch. The host-side
telemetry/decision latency (50-100 host cycles, Section 3.4) is
accounted once per epoch.

**Fault injection and hardening.** ``faults`` accepts a
:class:`~repro.faults.FaultSchedule` describing deterministic, seeded
fault injection: corrupted counters, silently dropped or partially
applied reconfigurations, and transient machine events (HBM bandwidth
throttling, thermal DVFS clamps). Under faults the controller tracks
two configurations — the *hardware* configuration the machine actually
runs (which drives the simulation and the energy/time accounting) and
the *host* configuration the controller believes it set (which drives
inference and the policy filter). An unhardened controller lets the
two silently diverge when a reconfiguration is dropped; a hardened one
(``hardening``, on by default whenever ``faults`` is passed) sanitizes
counters against plausibility bounds with last-known-good
substitution, verifies reconfigurations by echo read-back with
bounded retries, and degrades to a static safe configuration
(``safe_config``, defaulting to the initial configuration) after a
streak of faulty epochs, probing its way back once telemetry is clean.
Fault-free runs are byte-identical to a controller without any of this
machinery: every fault/hardening step is gated behind the injector and
the hardening flag.

Telemetry noise is a fault schedule like any other:
``faults=noise_schedule(sigma, seed)`` with
``hardening=HardeningConfig.disabled()`` (see
:func:`repro.faults.noise_schedule`).

When a trace recorder is installed (``repro.obs.recording``), the
controller emits one ``epoch`` span per executed epoch plus a
``decision`` event carrying the per-stage host latency and the
proposed-vs-accepted configuration diff, a ``reconfig`` event per
applied transition, and one ``provenance`` event per (epoch, runtime
parameter) carrying the decision-tree path that produced the proposal
(feature, threshold, direction per node, vote margin), the raw and
observed counter values the model read, and the policy's
accept/reject verdict with its cost-vs-budget numbers. Fault runs
additionally emit ``fault.injected``, ``fault.detected``,
``machine.degraded``, ``controller.readback`` and
``controller.safe_mode`` events. With tracing disabled all
instrumentation is skipped behind a single flag check, so the modeled
numbers and the runtime cost are identical to an uninstrumented run.
Traced and untraced epochs take the same decision path: the decision
memo, ``model.predict`` on a miss and ``policy.filter``. A recorder
only adds what gets reported: it hands ``filter`` a list to collect
the policy verdicts in, and asks ``model.explain`` for the tree paths
behind the (possibly memoized) prediction, so tracing cannot change
a decision.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

from repro import obs
from repro.core.hardening import (
    CounterSanitizer,
    HardeningConfig,
    SafeModeMachine,
)
from repro.core.model import SparseAdaptModel
from repro.core.modes import OptimizationMode
from repro.core.policies import HybridPolicy, ReconfigurationPolicy
from repro.core.schedule import EpochRecord, ScheduleResult
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSchedule
from repro.kernels.base import KernelTrace
from repro.transmuter import params
from repro.transmuter.config import RUNTIME_PARAMETERS, HardwareConfig
from repro.transmuter.machine import TransmuterModel
from repro.transmuter.reconfig import (
    ReconfigCost,
    apply_transition,
    host_decision_overhead_s,
    reconfiguration_cost,
)

__all__ = ["SparseAdaptController", "config_dict", "config_diff"]

#: Host power attributed to the decision process, watts. The paper
#: notes telemetry/streaming happens "in the shadow of the workload"
#: (Section 3.3); only the incremental decision energy is charged.
_HOST_DECISION_POWER_W = 0.05


def config_dict(config: HardwareConfig) -> Dict[str, object]:
    """A configuration as a flat, JSON-friendly dict (trace payloads)."""
    out: Dict[str, object] = {"l1_type": config.l1_type}
    for name in RUNTIME_PARAMETERS:
        out[name] = config.get(name)
    return out


def config_diff(
    old: HardwareConfig, new: HardwareConfig
) -> Dict[str, List[object]]:
    """Runtime parameters that differ, as ``{name: [old, new]}``."""
    return {
        name: [old.get(name), new.get(name)]
        for name in RUNTIME_PARAMETERS
        if old.get(name) != new.get(name)
    }


class SparseAdaptController:
    """Epoch-granular feedback controller driving the machine model."""

    def __init__(
        self,
        model: SparseAdaptModel,
        machine: TransmuterModel,
        mode: OptimizationMode,
        policy: Optional[ReconfigurationPolicy] = None,
        initial_config: Optional[HardwareConfig] = None,
        faults: Optional[FaultSchedule] = None,
        hardening: Optional[HardeningConfig] = None,
        safe_config: Optional[HardwareConfig] = None,
    ) -> None:
        self.model = model
        self.machine = machine
        self.mode = mode
        self.policy = policy or HybridPolicy()
        self.faults = faults
        # The injector lives on the controller (not in run()) so its
        # RNG streams persist across runs.
        self._injector = FaultInjector(faults) if faults is not None else None
        if hardening is None:
            # Hardening is opt-out for fault schedules.
            hardening = (
                HardeningConfig()
                if faults is not None
                else HardeningConfig.disabled()
            )
        self.hardening = hardening
        if initial_config is None:
            initial_config = HardwareConfig(l1_type=model.l1_type)
        if initial_config.l1_type != model.l1_type:
            raise ConfigError(
                "initial configuration and model disagree on the L1 type"
            )
        self.initial_config = initial_config
        if safe_config is None:
            safe_config = initial_config
        if safe_config.l1_type != model.l1_type:
            raise ConfigError(
                "safe configuration and model disagree on the L1 type"
            )
        self.safe_config = safe_config
        #: Robustness statistics of the most recent :meth:`run` call
        #: (``None`` before the first run). Purely observational.
        self.last_run_stats: Optional[Dict[str, object]] = None
        # (config, counters) -> predicted config. model.predict is a
        # pure function of its two (hashable, frozen) arguments, so the
        # bucket is the exact key — memoized decisions are bit-identical
        # by construction. Invalidated when model/policy are swapped.
        self._decision_memo: Dict[tuple, HardwareConfig] = {}
        self._memo_token: Optional[tuple] = None

    # ------------------------------------------------------------------
    def _check_memo_token(self) -> None:
        """Invalidate the decision memo if model or policy changed."""
        token = (id(self.model), id(self.policy))
        if token != self._memo_token:
            self._decision_memo.clear()
            self._memo_token = token

    # ------------------------------------------------------------------
    @property
    def bandwidth_gbps(self) -> float:
        return self.machine.memory.bandwidth_bytes_per_s / 1e9

    def run(self, trace: KernelTrace) -> ScheduleResult:
        """Execute a kernel trace under closed-loop control."""
        schedule = ScheduleResult(scheme="sparseadapt")
        injector = self._injector
        hardened = self.hardening.enabled
        clean = injector is None and not hardened
        sanitizer = CounterSanitizer(self.hardening) if hardened else None
        safe_machine = SafeModeMachine(self.hardening) if hardened else None
        # Hardware truth vs. host belief; they only diverge when an
        # unhardened controller suffers a silent reconfiguration fault.
        config = self.initial_config  # host belief
        hw_config = self.initial_config  # hardware truth
        pending_reconfig = None
        carry_readback = False
        faults_start = injector.n_injected if injector is not None else 0
        n_detected = 0
        n_readback = 0
        last_epoch_time = 0.0
        overhead = host_decision_overhead_s()
        recorder = obs.get_recorder()
        traced = recorder.enabled
        if traced:
            start_payload: Dict[str, object] = dict(
                scheme="sparseadapt",
                trace=trace.name,
                n_epochs=trace.n_epochs,
                mode=self.mode.value,
                policy=self.policy.name,
                faults=(
                    self.faults.as_dict() if self.faults is not None else None
                ),
                bandwidth_gbps=self.bandwidth_gbps,
                initial_config=config_dict(config),
            )
            if hardened:
                start_payload["hardening"] = dict(
                    fault_streak_threshold=self.hardening.fault_streak_threshold,
                    recovery_epochs=self.hardening.recovery_epochs,
                    readback_retries=self.hardening.readback_retries,
                    stale_detection=self.hardening.stale_detection,
                )
                start_payload["safe_config"] = config_dict(self.safe_config)
            recorder.event("controller.start", **start_payload)
        self._check_memo_token()
        memo = self._decision_memo
        for index, workload in enumerate(trace.epochs):
            with recorder.span(
                "epoch", epoch=index, phase=workload.phase
            ) as span:
                environment = None
                epoch_faults_start = 0
                if injector is not None:
                    epoch_faults_start = injector.n_injected
                    environment = injector.environment(index)
                if environment is None:
                    result = self.machine.simulate_epoch(workload, hw_config)
                else:
                    result = self.machine.simulate_epoch(
                        workload, hw_config, environment=environment
                    )
                    if traced:
                        recorder.event(
                            "machine.degraded",
                            epoch=index,
                            bandwidth_scale=environment.bandwidth_scale,
                            clock_cap_mhz=environment.clock_cap_mhz,
                        )
                schedule.append(
                    EpochRecord(
                        index=index,
                        config=hw_config,
                        result=result,
                        reconfig=pending_reconfig,
                    )
                )
                if traced:
                    span.set(
                        config=hw_config.describe(),
                        config_values=config_dict(hw_config),
                        time_s=result.time_s,
                        energy_j=result.energy_j,
                        gflops=result.gflops,
                        reconfig_time_s=(
                            pending_reconfig.time_s if pending_reconfig else 0.0
                        ),
                    )
                last_epoch_time = result.time_s
                dirty_hint = workload.stores * params.WORD_BYTES
                # Telemetry -> inference -> policy -> reconfiguration.
                if traced:
                    t0 = perf_counter()
                if injector is not None:
                    observed, _ = injector.observe(index, result.counters)
                else:
                    observed = result.counters
                if sanitizer is not None:
                    counters, issues = sanitizer.sanitize(observed, config)
                else:
                    counters, issues = observed, []
                # Only *severe* epochs feed the safe-mode streak: a
                # failed read-back (the hardware is not where the host
                # put it) or telemetry so corrupt that substitution
                # rewrote much of it. Lightly damaged epochs — a couple
                # of implausible counters, a stale-but-plausible vector
                # — are repaired or tolerated and adapted on; degrading
                # to the static config for them would shed adaptive
                # gain without buying protection.
                n_substituted = sum(
                    1 for issue in issues if "substitute" in issue
                )
                faulty = (
                    carry_readback
                    or n_substituted >= self.hardening.severe_issue_count
                )
                carry_readback = False
                if issues:
                    n_detected += len(issues)
                    if traced:
                        for issue in issues:
                            recorder.event(
                                "fault.detected", epoch=index, **issue
                            )
                adapting = True
                if safe_machine is not None:
                    transition_name = safe_machine.observe(faulty)
                    if transition_name is not None and traced:
                        recorder.event(
                            "controller.safe_mode",
                            epoch=index,
                            transition=transition_name,
                            state=safe_machine.state,
                            fault_streak=safe_machine.fault_streak,
                            clean_streak=safe_machine.clean_streak,
                        )
                    adapting = safe_machine.adapting
                if not adapting:
                    # Safe mode: no inference, hold the safe config.
                    predicted = self.safe_config
                    applied = self.safe_config
                else:
                    if traced:
                        t1 = perf_counter()
                    memo_key = (config, counters)
                    predicted = memo.get(memo_key)
                    if predicted is None:
                        predicted = self.model.predict(counters, config)
                        memo[memo_key] = predicted
                    if traced:
                        t2 = perf_counter()
                    # The policy filter is NOT memoized: its verdicts
                    # depend on last_epoch_time/dirty_hint, which vary
                    # epoch to epoch.
                    verdicts = [] if traced else None
                    applied = self.policy.filter(
                        current=config,
                        predicted=predicted,
                        last_epoch_time_s=last_epoch_time,
                        power=self.machine.power,
                        bandwidth_gbps=self.bandwidth_gbps,
                        dirty_bytes_hint=dirty_hint,
                        verdicts=verdicts,
                    )
                    if traced:
                        t3 = perf_counter()
                if clean:
                    pending_reconfig = reconfiguration_cost(
                        config,
                        applied,
                        self.machine.power,
                        self.bandwidth_gbps,
                        dirty_bytes_hint=dirty_hint,
                    )
                    if pending_reconfig.is_free:
                        pending_reconfig = None
                    next_hw = applied
                    next_host = applied
                else:
                    pending_reconfig, next_hw, retries = self._command(
                        index, hw_config, applied, dirty_hint, injector
                    )
                    n_readback += retries
                    if hardened:
                        # Echo read-back: the host's belief is corrected
                        # to what the hardware actually reached; an
                        # incomplete transition flags the next epoch.
                        next_host = next_hw
                        if next_hw != applied:
                            carry_readback = True
                        if traced and (retries or next_hw != applied):
                            recorder.event(
                                "controller.readback",
                                epoch=index,
                                attempts=retries + 1,
                                recovered=next_hw == applied,
                                requested=config_dict(applied),
                                actual=config_dict(next_hw),
                            )
                    else:
                        # Unhardened: the host believes the command
                        # landed, even when it silently did not.
                        next_host = applied
                if traced and adapting:
                    t4 = perf_counter()
                    proposed = config_diff(config, predicted)
                    accepted = config_diff(config, applied)
                    recorder.event(
                        "decision",
                        epoch=index,
                        latency_s=t4 - t0,
                        counter_read_s=t1 - t0,
                        inference_s=t2 - t1,
                        policy_filter_s=t3 - t2,
                        cost_model_s=t4 - t3,
                        proposed=proposed,
                        accepted=accepted,
                        rejected=sorted(set(proposed) - set(accepted)),
                    )
                    raw_counters = result.counters.as_dict()
                    observed_counters = (
                        counters.as_dict() if not clean else raw_counters
                    )
                    verdict_by_param = {v.parameter: v for v in verdicts}
                    provenance = self.model.explain(counters, config)
                    for parameter, record in provenance.items():
                        verdict = verdict_by_param.get(parameter)
                        recorder.event(
                            "provenance",
                            epoch=index,
                            parameter=parameter,
                            current=record["current"],
                            predicted=record["predicted"],
                            kind=record["kind"],
                            margin=record["margin"],
                            depth=record["depth"],
                            path=record["path"],
                            leaf=record["leaf"],
                            counters_raw=raw_counters,
                            counters_observed=observed_counters,
                            verdict=(
                                verdict.as_dict() if verdict else None
                            ),
                        )
                if traced and pending_reconfig is not None:
                    recorder.event(
                        "reconfig",
                        epoch=index,
                        applies_to=index + 1,
                        from_config=config_dict(hw_config),
                        to_config=config_dict(next_hw),
                        changed=list(pending_reconfig.changed),
                        cost_time_s=pending_reconfig.time_s,
                        cost_energy_j=pending_reconfig.energy_j,
                        flushed_l1=pending_reconfig.flushed_l1,
                        flushed_l2=pending_reconfig.flushed_l2,
                    )
                if traced and injector is not None:
                    for fault in injector.injected[epoch_faults_start:]:
                        recorder.event("fault.injected", **fault.as_dict())
                config = next_host
                hw_config = next_hw
                schedule.overhead_time_s += overhead
                schedule.overhead_energy_j += overhead * _HOST_DECISION_POWER_W
        self.last_run_stats = self._collect_stats(
            injector, faults_start, sanitizer, safe_machine,
            n_detected, n_readback,
        )
        return schedule

    # ------------------------------------------------------------------
    def _command(
        self,
        epoch: int,
        hw_config: HardwareConfig,
        target: HardwareConfig,
        dirty_hint: float,
        injector: Optional[FaultInjector],
    ):
        """Command ``hw_config -> target`` under possible reconfig faults.

        Returns ``(cost, reached_config, retries)``: the accumulated
        transition cost over all attempts (``None`` if free), the
        configuration the hardware ended up in, and the number of
        read-back retries spent. A hardened controller retries up to
        ``readback_retries`` times; an unhardened one commands once and
        never looks back.
        """
        hardened = self.hardening.enabled
        current = hw_config
        attempt = 0
        retries = 0
        time_s = 0.0
        energy_j = 0.0
        flushed_l1 = False
        flushed_l2 = False
        changed: List[str] = []
        while True:
            drops = (
                injector.reconfig_failures(epoch, current, target, attempt)
                if injector is not None
                else ()
            )
            outcome = apply_transition(
                current,
                target,
                self.machine.power,
                self.bandwidth_gbps,
                dirty_bytes_hint=dirty_hint,
                drop_parameters=drops,
            )
            time_s += outcome.cost.time_s
            energy_j += outcome.cost.energy_j
            flushed_l1 = flushed_l1 or outcome.cost.flushed_l1
            flushed_l2 = flushed_l2 or outcome.cost.flushed_l2
            changed += [
                name for name in outcome.cost.changed if name not in changed
            ]
            current = outcome.actual
            if (
                outcome.complete
                or not hardened
                or attempt >= self.hardening.readback_retries
            ):
                break
            attempt += 1
            retries += 1
        if not changed:
            return None, current, retries
        cost = ReconfigCost(
            time_s=time_s,
            energy_j=energy_j,
            flushed_l1=flushed_l1,
            flushed_l2=flushed_l2,
            changed=tuple(
                name for name in RUNTIME_PARAMETERS if name in changed
            ),
        )
        return cost, current, retries

    @staticmethod
    def _collect_stats(
        injector, faults_start, sanitizer, safe_machine,
        n_detected, n_readback,
    ) -> Dict[str, object]:
        """Robustness statistics of the run that just finished."""
        injected: Dict[str, int] = {}
        if injector is not None:
            for fault in injector.injected[faults_start:]:
                injected[fault.kind] = injected.get(fault.kind, 0) + 1
        return {
            "faults_injected": injected,
            "n_faults_injected": sum(injected.values()),
            "n_faults_detected": n_detected,
            "counters_substituted": (
                sanitizer.n_substituted if sanitizer is not None else 0
            ),
            "readback_retries": n_readback,
            "safe_mode_entries": (
                safe_machine.entries if safe_machine is not None else 0
            ),
            "safe_epochs": (
                safe_machine.safe_epochs if safe_machine is not None else 0
            ),
        }
