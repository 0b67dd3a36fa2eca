"""Tests for the fault-injection framework (``repro.faults``):
spec validation, schedule files, the deterministic injector, the
command/apply boundary, and the campaign driver."""

import json
import math

import pytest

from repro.baselines import BASELINE, MAX_CFG
from repro.errors import FaultError, ReproError
from repro.faults import (
    COUNTER_FAULTS,
    FAULT_KINDS,
    HOST_FAULTS,
    IO_FAULTS,
    MACHINE_FAULTS,
    RECONFIG_FAULTS,
    STORE_FAULTS,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    mixed_schedule,
    noise_schedule,
)
from repro.transmuter import (
    ECHO_COUNTERS,
    PLAUSIBLE_BOUNDS,
    apply_transition,
)
from repro.transmuter.config import RUNTIME_PARAMETERS

EPOCHS = 12


@pytest.fixture()
def clean_counters(machine, spmspv_trace):
    """Raw counter vectors of a short fault-free run."""
    config = BASELINE
    return [
        machine.simulate_epoch(workload, config).counters
        for workload in spmspv_trace.epochs[:EPOCHS]
    ]


class TestFaultSpec:
    def test_all_kinds_partitioned(self):
        assert FAULT_KINDS == (
            COUNTER_FAULTS
            + RECONFIG_FAULTS
            + MACHINE_FAULTS
            + HOST_FAULTS
            + STORE_FAULTS
            + IO_FAULTS
        )
        assert len(set(FAULT_KINDS)) == len(FAULT_KINDS)

    def test_every_kind_constructs(self):
        for kind in FAULT_KINDS:
            spec = FaultSpec(kind=kind, rate=0.5, severity=0.5)
            assert spec.kind == kind

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bitflip"},
            {"kind": "counter_noise", "rate": -0.1},
            {"kind": "counter_noise", "rate": 1.5},
            {"kind": "counter_noise", "rate": "high"},
            {"kind": "counter_noise", "severity": 0.0},
            {"kind": "counter_noise", "severity": 2.0},
            {"kind": "counter_noise", "start_epoch": -1},
            {"kind": "counter_noise", "start_epoch": 5, "end_epoch": 5},
            {"kind": "counter_noise", "params": {"duration": 3}},
            {"kind": "counter_dropout", "params": {"mode": "garbage"}},
            {"kind": "thermal_clamp", "params": {"clamp_mhz": 123.0}},
            {"kind": "bandwidth_throttle", "params": {"duration": 0}},
        ],
    )
    def test_invalid_specs_raise_fault_error(self, kwargs):
        with pytest.raises(FaultError):
            FaultSpec(**kwargs)

    def test_fault_error_is_repro_error(self):
        # Satellite guarantee: every fault failure is catchable as the
        # package-wide base class.
        assert issubclass(FaultError, ReproError)
        with pytest.raises(ReproError):
            FaultSpec(kind="nope")

    def test_applies_to_window(self):
        spec = FaultSpec(kind="counter_stale", start_epoch=3, end_epoch=6)
        assert [spec.applies_to(e) for e in range(8)] == [
            False, False, False, True, True, True, False, False,
        ]
        open_ended = FaultSpec(kind="counter_stale", start_epoch=2)
        assert open_ended.applies_to(10**6)

    def test_scaled_caps_rate(self):
        spec = FaultSpec(kind="counter_noise", rate=0.6, severity=0.2)
        assert spec.scaled(0.5).rate == pytest.approx(0.3)
        assert spec.scaled(10.0).rate == 1.0
        assert spec.scaled(0.5).severity == 0.2
        with pytest.raises(FaultError):
            spec.scaled(-1.0)

    def test_dict_round_trip(self):
        spec = FaultSpec(
            kind="thermal_clamp",
            rate=0.25,
            start_epoch=4,
            end_epoch=9,
            seed=17,
            params={"duration": 2, "clamp_mhz": 125.0},
        )
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(FaultError):
            FaultSpec.from_dict({"kind": "counter_noise", "sigma": 0.1})
        with pytest.raises(FaultError):
            FaultSpec.from_dict({"rate": 0.5})
        with pytest.raises(FaultError):
            FaultSpec.from_dict("counter_noise")


class TestFaultSchedule:
    def test_entries_must_be_specs(self):
        with pytest.raises(FaultError):
            FaultSchedule(specs=({"kind": "counter_noise"},))
        with pytest.raises(FaultError):
            FaultSchedule(seed=True)

    def test_scaled_and_kinds(self):
        # The built-in mixed schedule covers the hardware kinds; host
        # kinds (job_hang/job_crash) are campaign-level, opt-in only.
        hardware = COUNTER_FAULTS + RECONFIG_FAULTS + MACHINE_FAULTS
        schedule = mixed_schedule(0.2, seed=3)
        assert len(schedule) == len(hardware)
        assert set(schedule.kinds()) == set(hardware)
        half = schedule.scaled(0.5)
        assert half.seed == 3
        for spec, scaled in zip(schedule.specs, half.specs):
            assert scaled.rate == pytest.approx(spec.rate * 0.5)

    def test_file_round_trip(self, tmp_path):
        schedule = mixed_schedule(0.1, seed=9)
        path = tmp_path / "schedule.json"
        schedule.save(path)
        assert FaultSchedule.from_file(path) == schedule

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(FaultError):
            FaultSchedule.from_file(tmp_path / "nope.json")

    def test_from_file_directory(self, tmp_path):
        with pytest.raises(FaultError):
            FaultSchedule.from_file(tmp_path)

    def test_from_file_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FaultError):
            FaultSchedule.from_file(path)

    def test_from_file_unknown_kind(self, tmp_path):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({"faults": [{"kind": "cosmic_ray"}]}))
        with pytest.raises(FaultError):
            FaultSchedule.from_file(path)

    def test_from_dict_strict_keys(self):
        with pytest.raises(FaultError):
            FaultSchedule.from_dict({"faults": [], "schedule_seed": 1})
        with pytest.raises(FaultError):
            FaultSchedule.from_dict({"seed": 1})
        with pytest.raises(FaultError):
            FaultSchedule.from_dict({"faults": "counter_noise"})

    def test_noise_schedule_requires_positive_sigma(self):
        with pytest.raises(FaultError):
            noise_schedule(0.0)
        with pytest.raises(FaultError):
            noise_schedule(-0.2)

    def test_mixed_schedule_rate_zero_is_empty(self):
        assert len(mixed_schedule(0.0)) == 0
        with pytest.raises(FaultError):
            mixed_schedule(-0.5)
        with pytest.raises(FaultError):
            mixed_schedule(1.5)


class TestFaultInjector:
    def test_requires_schedule(self):
        with pytest.raises(FaultError):
            FaultInjector([FaultSpec(kind="counter_noise")])

    def _drive(self, schedule, clean_counters):
        injector = FaultInjector(schedule)
        observed = []
        for epoch, counters in enumerate(clean_counters):
            injector.environment(epoch)
            seen, _ = injector.observe(epoch, counters)
            observed.append(seen.as_dict())
        return injector, observed

    def test_deterministic_under_fixed_seed(self, clean_counters):
        schedule = mixed_schedule(0.4, seed=21)
        first, values_a = self._drive(schedule, clean_counters)
        second, values_b = self._drive(schedule, clean_counters)
        for epoch_a, epoch_b in zip(values_a, values_b):
            assert epoch_a.keys() == epoch_b.keys()
            for name in epoch_a:
                # NaN-aware: dropped counters read NaN on both runs.
                assert epoch_a[name] == epoch_b[name] or (
                    math.isnan(epoch_a[name]) and math.isnan(epoch_b[name])
                ), name
        assert [f.as_dict() for f in first.injected] == [
            f.as_dict() for f in second.injected
        ]

    def test_pinned_seed_isolates_spec_stream(self, clean_counters):
        """A spec with its own seed produces the same corruption whether
        or not unrelated specs sit in front of it in the schedule."""
        noise = FaultSpec(kind="counter_noise", severity=0.2, seed=5)
        never = FaultSpec(kind="counter_dropout", rate=0.0, severity=0.5)
        _, alone = self._drive(
            FaultSchedule(specs=(noise,), seed=0), clean_counters
        )
        _, behind = self._drive(
            FaultSchedule(specs=(never, noise), seed=99), clean_counters
        )
        assert alone == behind

    def test_dropout_nan_and_zero_modes(self, clean_counters):
        for mode, check in (
            ("nan", math.isnan),
            ("zero", lambda value: value == 0.0),
        ):
            schedule = FaultSchedule(
                specs=(
                    FaultSpec(
                        kind="counter_dropout",
                        severity=1.0,
                        params={"mode": mode},
                    ),
                ),
                seed=0,
            )
            injector = FaultInjector(schedule)
            seen, fired = injector.observe(0, clean_counters[0])
            assert [f.kind for f in fired] == ["counter_dropout"]
            for name, value in seen.as_dict().items():
                if name in ECHO_COUNTERS:
                    assert value == clean_counters[0].as_dict()[name]
                else:
                    assert check(value), name

    def test_saturation_pins_to_plausibility_bound(self, clean_counters):
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="counter_saturation", severity=1.0),),
            seed=0,
        )
        injector = FaultInjector(schedule)
        seen, fired = injector.observe(0, clean_counters[0])
        assert [f.kind for f in fired] == ["counter_saturation"]
        for name, value in seen.as_dict().items():
            assert value == PLAUSIBLE_BOUNDS[name][1]

    def test_stale_replays_previous_raw_vector(self, clean_counters):
        schedule = FaultSchedule(
            specs=(FaultSpec(kind="counter_stale", start_epoch=1),),
            seed=0,
        )
        injector = FaultInjector(schedule)
        first, fired = injector.observe(0, clean_counters[0])
        assert first is clean_counters[0] and not fired
        second, fired = injector.observe(1, clean_counters[1])
        assert [f.kind for f in fired] == ["counter_stale"]
        assert second.as_dict() == clean_counters[0].as_dict()

    def test_stale_without_history_is_silent(self, clean_counters):
        injector = FaultInjector(
            FaultSchedule(specs=(FaultSpec(kind="counter_stale"),), seed=0)
        )
        seen, fired = injector.observe(0, clean_counters[0])
        assert seen is clean_counters[0]
        assert not fired

    def test_bandwidth_throttle_window(self):
        spec = FaultSpec(
            kind="bandwidth_throttle",
            severity=0.5,
            start_epoch=0,
            end_epoch=1,
            params={"duration": 3},
        )
        injector = FaultInjector(FaultSchedule(specs=(spec,), seed=0))
        environments = [injector.environment(epoch) for epoch in range(6)]
        for environment in environments[:3]:
            assert environment is not None
            assert environment.bandwidth_scale == pytest.approx(0.5)
            assert environment.clock_cap_mhz is None
        assert environments[3:] == [None, None, None]
        assert injector.counts() == {"bandwidth_throttle": 1}

    def test_thermal_clamp_constrains_clock(self):
        spec = FaultSpec(
            kind="thermal_clamp",
            start_epoch=0,
            end_epoch=1,
            params={"duration": 2, "clamp_mhz": 250.0},
        )
        injector = FaultInjector(FaultSchedule(specs=(spec,), seed=0))
        environment = injector.environment(0)
        assert environment.clock_cap_mhz == pytest.approx(250.0)
        constrained = environment.constrain(MAX_CFG)
        assert constrained.clock_mhz == pytest.approx(250.0)
        assert BASELINE == environment.constrain(BASELINE) or (
            environment.constrain(BASELINE).clock_mhz <= 250.0
        )

    def test_reconfig_drop_fails_every_change(self):
        injector = FaultInjector(
            FaultSchedule(specs=(FaultSpec(kind="reconfig_drop"),), seed=0)
        )
        dropped = injector.reconfig_failures(0, BASELINE, MAX_CFG)
        expected = tuple(
            name
            for name in RUNTIME_PARAMETERS
            if BASELINE.get(name) != MAX_CFG.get(name)
        )
        assert dropped == expected
        assert injector.counts() == {"reconfig_drop": 1}

    def test_reconfig_partial_full_severity_drops_all(self):
        injector = FaultInjector(
            FaultSchedule(
                specs=(FaultSpec(kind="reconfig_partial", severity=1.0),),
                seed=0,
            )
        )
        dropped = injector.reconfig_failures(0, BASELINE, MAX_CFG)
        assert set(dropped) == {
            name
            for name in RUNTIME_PARAMETERS
            if BASELINE.get(name) != MAX_CFG.get(name)
        }

    def test_reconfig_noop_command_never_fails(self):
        injector = FaultInjector(
            FaultSchedule(specs=(FaultSpec(kind="reconfig_drop"),), seed=0)
        )
        assert injector.reconfig_failures(0, BASELINE, BASELINE) == ()
        assert injector.n_injected == 0


class TestApplyTransition:
    def test_clean_command_reaches_target(self, machine):
        outcome = apply_transition(BASELINE, MAX_CFG, machine.power)
        assert outcome.actual == MAX_CFG
        assert outcome.complete
        assert outcome.dropped == ()
        assert outcome.cost.time_s > 0

    def test_dropping_everything_keeps_old_config(self, machine):
        changed = tuple(
            name
            for name in RUNTIME_PARAMETERS
            if BASELINE.get(name) != MAX_CFG.get(name)
        )
        outcome = apply_transition(
            BASELINE, MAX_CFG, machine.power, drop_parameters=changed
        )
        assert outcome.actual == BASELINE
        assert not outcome.complete
        assert set(outcome.dropped) == set(changed)
        assert outcome.cost.is_free

    def test_partial_drop_reverts_only_named_parameters(self, machine):
        outcome = apply_transition(
            BASELINE,
            MAX_CFG,
            machine.power,
            drop_parameters=("l1_kb",),
        )
        assert outcome.actual.l1_kb == BASELINE.l1_kb
        assert outcome.actual.l2_kb == MAX_CFG.l2_kb
        assert outcome.dropped == ("l1_kb",)
        assert not outcome.complete

    def test_dropping_unchanged_parameter_is_ignored(self, machine):
        # BASELINE and MAX_CFG share the same clock, so dropping it
        # drops nothing and the transition still completes.
        assert BASELINE.clock_mhz == MAX_CFG.clock_mhz
        outcome = apply_transition(
            BASELINE, MAX_CFG, machine.power, drop_parameters=("clock_mhz",)
        )
        assert outcome.actual == MAX_CFG
        assert outcome.dropped == ()
        assert outcome.complete


class TestHostFaultKinds:
    """The host-level ``job_hang``/``job_crash``/``job_oom`` kinds:
    spec validation and the layer split (epoch injector ignores them;
    the suite runner consumes them — see also tests/test_runner.py and
    tests/test_runner_parallel.py)."""

    def test_kinds_registered(self):
        assert HOST_FAULTS == ("job_hang", "job_crash", "job_oom")
        for kind in HOST_FAULTS:
            assert kind in FAULT_KINDS

    def test_job_hang_seconds_validated(self):
        spec = FaultSpec(kind="job_hang", params={"seconds": 2.5})
        assert spec.params["seconds"] == 2.5
        FaultSpec(kind="job_hang")  # default seconds is fine
        for bad in (0, -1.0, "soon", True):
            with pytest.raises(FaultError, match="seconds"):
                FaultSpec(kind="job_hang", params={"seconds": bad})

    def test_job_crash_takes_no_params(self):
        with pytest.raises(FaultError, match="unknown param"):
            FaultSpec(kind="job_crash", params={"seconds": 1.0})

    def test_job_oom_takes_no_params(self):
        FaultSpec(kind="job_oom", rate=0.5)  # params-free kind
        with pytest.raises(FaultError, match="unknown param"):
            FaultSpec(kind="job_oom", params={"seconds": 1.0})

    def test_schedule_file_round_trip(self, tmp_path):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(kind="job_hang", rate=0.5, params={"seconds": 4.0}),
                FaultSpec(kind="job_crash", rate=0.25, end_epoch=8),
            ),
            seed=6,
        )
        path = tmp_path / "host.json"
        schedule.save(path)
        assert FaultSchedule.from_file(path) == schedule

    def test_epoch_injector_ignores_host_kinds(self, clean_counters):
        """A mixed hardware+host schedule drives the epoch injector
        exactly as the hardware-only schedule would."""
        noise = FaultSpec(kind="counter_noise", severity=0.2, seed=5)
        hang = FaultSpec(kind="job_hang", rate=1.0, seed=9)

        def drive(schedule):
            injector = FaultInjector(schedule)
            out = []
            for epoch, counters in enumerate(clean_counters):
                injector.environment(epoch)
                seen, _ = injector.observe(epoch, counters)
                out.append(seen.as_dict())
            return injector, out

        hardware_only, a = drive(FaultSchedule(specs=(noise,), seed=0))
        mixed, b = drive(FaultSchedule(specs=(noise, hang), seed=0))
        assert a == b
        assert hardware_only.counts() == mixed.counts()
        assert "job_hang" not in mixed.counts()


class TestCampaignHostFaults:
    def test_crashing_rate_job_is_quarantined(self):
        """A rate-1.0 ``job_crash`` window over one job of a fault-rate
        spec turns exactly that job into a failure row; the rest of
        the sweep still completes."""
        import dataclasses

        from repro.experiments.spec import ExperimentSpec, compile_plan
        from repro.runner import SupervisorConfig, run_plan

        noise = FaultSpec(kind="counter_noise", rate=0.3, severity=0.2)
        spec = ExperimentSpec.from_dict(
            {
                "name": "crash-sweep",
                "defaults": {"kernel": "spmspv", "scale": 0.12},
                "candidates": [
                    {
                        "name": f"hardened-{factor:g}",
                        "faults": FaultSchedule(specs=(noise,), seed=4)
                        .scaled(factor)
                        .as_dict(),
                    }
                    for factor in (0.0, 0.5, 1.0)
                ],
                "workloads": [{"matrix": "P1"}],
            }
        )
        crash = FaultSchedule(
            specs=(
                FaultSpec(
                    kind="job_crash", rate=1.0, start_epoch=1, end_epoch=2
                ),
            ),
            seed=4,
        )
        plan = dataclasses.replace(compile_plan(spec), faults=crash)
        report = run_plan(
            plan, config=SupervisorConfig(max_retries=1, backoff_base_s=0.0)
        )
        assert len(report.rows) == 3
        failed = [row for row in report.rows if row["status"] != "ok"]
        assert len(failed) == 1
        assert failed[0]["candidate"] == "hardened-0.5"
        assert failed[0]["failure"]["kind"] == "retryable"
        assert "injected job_crash" in failed[0]["failure"]["error"]
        assert failed[0]["attempts"] == 2
        for row in report.rows:
            if row["status"] == "ok":
                assert "SparseAdapt" in row["result"]["schemes"]
