"""Tests for telemetry-noise robustness, the hardened controller
(sanitization, read-back, safe mode), the shipped fault-rate spec,
energy breakdown aggregation, and the element-wise sparse operations."""

import json
import math
import pathlib

import numpy as np
import pytest

from repro import obs
from repro.baselines import BASELINE
from repro.core import (
    CounterSanitizer,
    HardeningConfig,
    HybridPolicy,
    OptimizationMode,
    SafeModeMachine,
    SparseAdaptController,
)
from repro.errors import ConfigError, FaultError, ShapeError
from repro.faults import (
    FaultSchedule,
    FaultSpec,
    mixed_schedule,
    noise_schedule,
)
from repro.sparse import COOMatrix, generators
from repro.sparse.ops import hadamard, sparse_add
from repro.transmuter.counters import PerformanceCounters

EE = OptimizationMode.ENERGY_EFFICIENT
ROOT = pathlib.Path(__file__).resolve().parent.parent
FAULT_RATES_SPEC = ROOT / "experiments" / "specs" / "fault_rates.json"
FAULT_RATES_GOLDEN = ROOT / "tests" / "golden" / "fault_rates_campaign.json"


class TestTelemetryNoise:
    """Telemetry noise is an ordinary fault schedule, run unhardened."""

    def _noisy(self, model_ee, machine, faults):
        return SparseAdaptController(
            model_ee,
            machine,
            EE,
            HybridPolicy(0.4),
            faults=faults,
            hardening=HardeningConfig.disabled(),
        )

    def test_zero_noise_is_exact(self, model_ee, machine, spmspv_trace):
        clean = SparseAdaptController(
            model_ee, machine, EE, HybridPolicy(0.4)
        ).run(spmspv_trace)
        silent = FaultSchedule(
            specs=(FaultSpec("counter_noise", rate=0.0, severity=0.2),)
        )
        zero_noise = self._noisy(model_ee, machine, silent).run(
            spmspv_trace
        )
        assert clean.total_energy_j == zero_noise.total_energy_j

    def test_noise_degrades_gracefully(self, model_ee, machine, spmspv_trace):
        """Strong noise must not crash the controller and must not cost
        more than a bounded fraction of the clean gains."""
        clean = SparseAdaptController(
            model_ee, machine, EE, HybridPolicy(0.4)
        ).run(spmspv_trace)
        noisy = self._noisy(
            model_ee, machine, noise_schedule(0.3, seed=1)
        ).run(spmspv_trace)
        assert noisy.n_epochs == clean.n_epochs
        assert noisy.gflops_per_watt > 0.5 * clean.gflops_per_watt

    def test_noise_is_seeded(self, model_ee, machine, spmspv_trace):
        runs = [
            self._noisy(model_ee, machine, noise_schedule(0.2, seed=7)).run(
                spmspv_trace
            )
            for _ in range(2)
        ]
        assert runs[0].total_energy_j == runs[1].total_energy_j

    def test_negative_noise_rejected(self):
        with pytest.raises(FaultError):
            noise_schedule(-0.1)


class TestLegacyNoiseShim:
    """``--noise SIGMA --noise-seed SEED`` is the one surviving legacy
    noise interface: shorthand for an unhardened noise schedule."""

    @staticmethod
    def _args(noise, seed=0, faults=None):
        import argparse

        return argparse.Namespace(
            noise=noise, noise_stream_seed=seed, faults=faults
        )

    def test_shim_matches_explicit_schedule_bit_exactly(self):
        from repro.cli import _fault_setup
        from repro.experiments.harness import job_context
        from repro.runner import JobSpec

        # The shim yields JobSpec fields; the decoded job runs the
        # explicit schedule, unhardened.
        faults, hardening = _fault_setup(self._args(0.2, seed=7))
        assert faults == noise_schedule(0.2, seed=7).as_dict()
        assert hardening is False
        context = job_context(
            JobSpec(
                kernel="spmspv",
                matrix="P1",
                scale=0.15,
                schemes=("Baseline",),
                faults=faults,
                hardening=hardening,
            )
        )
        assert context.faults == noise_schedule(0.2, seed=7)
        assert context.hardening == HardeningConfig.disabled()
        assert _fault_setup(self._args(0.0)) == (None, None)

    def test_noise_cannot_combine_with_faults(self, tmp_path):
        from repro.cli import _fault_setup

        spec = tmp_path / "s.json"
        mixed_schedule(0.1).save(spec)
        with pytest.raises(FaultError, match="not both"):
            _fault_setup(self._args(0.1, faults=str(spec)))


class TestHardeningConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fault_streak_threshold": 0},
            {"recovery_epochs": 0},
            {"readback_retries": -1},
            {"severe_issue_count": 0},
        ],
    )
    def test_invalid_tunables_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            HardeningConfig(**kwargs)

    def test_disabled_is_off(self):
        assert not HardeningConfig.disabled().enabled
        assert HardeningConfig().enabled


class TestCounterSanitizer:
    @pytest.fixture()
    def clean(self, machine, spmspv_trace):
        return machine.simulate_epoch(spmspv_trace.epochs[0], BASELINE).counters

    def _mutate(self, counters, **overrides):
        values = counters.as_dict()
        values.update(overrides)
        return PerformanceCounters(**values)

    def test_clean_vector_passes_through_unchanged(self, clean):
        sanitizer = CounterSanitizer(HardeningConfig())
        result, issues = sanitizer.sanitize(clean, BASELINE)
        assert result is clean
        assert issues == []
        assert sanitizer.n_substituted == 0

    def test_nan_is_substituted(self, clean):
        sanitizer = CounterSanitizer(HardeningConfig())
        sanitizer.sanitize(clean, BASELINE)  # establish last-known-good
        corrupt = self._mutate(clean, l1_miss_rate=float("nan"))
        result, issues = sanitizer.sanitize(corrupt, BASELINE)
        assert [i["issue"] for i in issues] == ["non_finite"]
        # Substituted by the last clean reading of that counter.
        assert result.as_dict()["l1_miss_rate"] == (
            clean.as_dict()["l1_miss_rate"]
        )
        assert not math.isnan(result.as_dict()["l1_miss_rate"])

    def test_out_of_range_substituted_with_midpoint_before_history(
        self, clean
    ):
        sanitizer = CounterSanitizer(HardeningConfig())
        corrupt = self._mutate(clean, l2_occupancy=7.5)
        result, issues = sanitizer.sanitize(corrupt, BASELINE)
        issue = next(i for i in issues if i.get("counter") == "l2_occupancy")
        assert issue["issue"] == "out_of_range"
        # No clean history yet: the plausible-range midpoint stands in.
        assert 0.0 <= result.as_dict()["l2_occupancy"] <= 1.0

    def test_full_scale_pin_flagged_on_suspect_counter(self, clean):
        sanitizer = CounterSanitizer(HardeningConfig())
        corrupt = self._mutate(clean, xbar_contention_ratio=1.0)
        _, issues = sanitizer.sanitize(corrupt, BASELINE)
        assert any(i["issue"] == "full_scale_pin" for i in issues)

    def test_echo_mismatch_reported_without_substitution(self, clean):
        sanitizer = CounterSanitizer(HardeningConfig())
        # Counters echo BASELINE geometry but the host thinks it
        # commanded something larger: flagged, echo kept.
        from repro.baselines import MAX_CFG

        result, issues = sanitizer.sanitize(clean, MAX_CFG)
        mismatches = [i for i in issues if i["issue"] == "echo_mismatch"]
        assert mismatches
        for issue in mismatches:
            assert "substitute" not in issue
        assert (
            result.as_dict()["l1_capacity_kb"]
            == clean.as_dict()["l1_capacity_kb"]
        )

    def test_stale_vector_detected(self, clean):
        sanitizer = CounterSanitizer(HardeningConfig())
        sanitizer.sanitize(clean, BASELINE)
        _, issues = sanitizer.sanitize(clean, BASELINE)
        assert any(i["issue"] == "stale" for i in issues)

    def test_stale_detection_can_be_disabled(self, clean):
        sanitizer = CounterSanitizer(HardeningConfig(stale_detection=False))
        sanitizer.sanitize(clean, BASELINE)
        _, issues = sanitizer.sanitize(clean, BASELINE)
        assert not any(i["issue"] == "stale" for i in issues)


class TestSafeModeMachine:
    def test_enters_after_streak(self):
        machine = SafeModeMachine(HardeningConfig(fault_streak_threshold=3))
        assert machine.observe(True) is None
        assert machine.observe(True) is None
        assert machine.observe(True) == "enter"
        assert not machine.adapting
        assert machine.entries == 1

    def test_interrupted_streak_stays_normal(self):
        machine = SafeModeMachine(HardeningConfig(fault_streak_threshold=3))
        machine.observe(True)
        machine.observe(True)
        assert machine.observe(False) is None
        assert machine.observe(True) is None
        assert machine.adapting

    def test_probe_and_exit(self):
        config = HardeningConfig(fault_streak_threshold=2, recovery_epochs=2)
        machine = SafeModeMachine(config)
        machine.observe(True)
        assert machine.observe(True) == "enter"
        assert machine.observe(False) is None
        assert machine.observe(False) == "probe"
        assert machine.adapting  # the probe epoch runs the pipeline
        assert machine.observe(False) == "exit"
        assert machine.state == "normal"

    def test_failed_probe_reenters(self):
        config = HardeningConfig(fault_streak_threshold=2, recovery_epochs=1)
        machine = SafeModeMachine(config)
        machine.observe(True)
        machine.observe(True)
        assert machine.observe(False) == "probe"
        assert machine.observe(True) == "reenter"
        assert machine.entries == 2
        assert not machine.adapting

    def test_safe_epochs_counted(self):
        config = HardeningConfig(fault_streak_threshold=1, recovery_epochs=5)
        machine = SafeModeMachine(config)
        machine.observe(True)
        for _ in range(3):
            machine.observe(False)
        assert machine.safe_epochs == 3


class TestFaultFreeIntegrity:
    """Arming the fault/hardening machinery with nothing to inject must
    not change a single modeled number (the fault-free fast path)."""

    def _run(self, model_ee, machine, spmspv_trace, **kwargs):
        return SparseAdaptController(
            model_ee, machine, EE, HybridPolicy(0.4), **kwargs
        ).run(spmspv_trace)

    def test_empty_schedule_unhardened_identical(
        self, model_ee, machine, spmspv_trace
    ):
        clean = self._run(model_ee, machine, spmspv_trace)
        armed = self._run(
            model_ee,
            machine,
            spmspv_trace,
            faults=FaultSchedule(),
            hardening=HardeningConfig.disabled(),
        )
        assert armed.total_energy_j == clean.total_energy_j
        assert armed.total_time_s == clean.total_time_s
        assert armed.n_reconfigurations == clean.n_reconfigurations

    def test_empty_schedule_hardened_identical(
        self, model_ee, machine, spmspv_trace
    ):
        clean = self._run(model_ee, machine, spmspv_trace)
        hardened = self._run(
            model_ee, machine, spmspv_trace, faults=FaultSchedule()
        )
        assert hardened.total_energy_j == clean.total_energy_j
        assert hardened.n_reconfigurations == clean.n_reconfigurations

    def test_clean_trace_carries_no_fault_records(
        self, model_ee, machine, spmspv_trace, tmp_path
    ):
        path = tmp_path / "clean.jsonl"
        with obs.recording(path):
            self._run(model_ee, machine, spmspv_trace)
        from repro.obs import report

        records = report.load_trace(path)
        events = {
            r["name"] for r in records if r.get("type") == "event"
        }
        assert not any(name.startswith("fault.") for name in events)
        assert "controller.safe_mode" not in events
        start = next(r for r in records if r["name"] == "controller.start")
        assert start["attrs"]["faults"] is None
        assert "hardening" not in start["attrs"]


class TestHardenedController:
    def _controller(self, model_ee, machine, faults, hardening=None):
        return SparseAdaptController(
            model_ee,
            machine,
            EE,
            HybridPolicy(0.4),
            initial_config=BASELINE,
            faults=faults,
            hardening=hardening,
        )

    def test_run_stats_populated(self, model_ee, machine, spmspv_trace):
        controller = self._controller(
            model_ee, machine, mixed_schedule(0.2, seed=4)
        )
        assert controller.last_run_stats is None
        controller.run(spmspv_trace)
        stats = controller.last_run_stats
        assert stats["n_faults_injected"] > 0
        assert stats["n_faults_detected"] > 0
        assert stats["n_faults_injected"] == sum(
            stats["faults_injected"].values()
        )

    def test_sustained_outage_enters_and_leaves_safe_mode(
        self, model_ee, machine
    ):
        from repro.experiments.harness import build_trace

        trace = build_trace("spmspv", "P3", scale=0.15)
        n = trace.n_epochs
        assert n >= 12, "trace too short for the outage window"
        outage = FaultSchedule(
            specs=(
                FaultSpec(
                    kind="counter_dropout",
                    rate=1.0,
                    severity=0.9,
                    start_epoch=2,
                    end_epoch=n - 6,
                ),
            ),
            seed=0,
        )
        controller = self._controller(model_ee, machine, outage)
        controller.run(trace)
        stats = controller.last_run_stats
        assert stats["safe_mode_entries"] >= 1
        assert stats["safe_epochs"] > 0
        # The outage ends 6 epochs before the run does; with the default
        # 2-clean-epoch recovery the controller must have probed back.
        assert stats["safe_epochs"] < n - 2

    def test_readback_corrects_dropped_reconfigs(
        self, model_ee, machine, spmspv_trace
    ):
        drops = FaultSchedule(
            specs=(FaultSpec(kind="reconfig_drop", rate=0.5),), seed=1
        )
        controller = self._controller(model_ee, machine, drops)
        controller.run(spmspv_trace)
        assert controller.last_run_stats["readback_retries"] > 0

    def test_deterministic_under_fixed_seed(
        self, model_ee, machine, spmspv_trace
    ):
        runs = []
        for _ in range(2):
            controller = self._controller(
                model_ee, machine, mixed_schedule(0.3, seed=11)
            )
            schedule = controller.run(spmspv_trace)
            runs.append((schedule.total_energy_j, controller.last_run_stats))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_fault_events_recorded_in_trace(
        self, model_ee, machine, spmspv_trace, tmp_path
    ):
        path = tmp_path / "faulty.jsonl"
        controller = self._controller(
            model_ee, machine, mixed_schedule(0.3, seed=2)
        )
        with obs.recording(path):
            controller.run(spmspv_trace)
        from repro.obs import report

        records = report.load_trace(path)
        events = [r["name"] for r in records if r.get("type") == "event"]
        assert "fault.injected" in events
        assert "fault.detected" in events
        start = next(r for r in records if r["name"] == "controller.start")
        expected = mixed_schedule(0.3, seed=2).as_dict()
        assert start["attrs"]["faults"] == expected
        assert start["attrs"]["hardening"]["fault_streak_threshold"] >= 1

    def test_safe_config_must_match_l1_type(self, model_ee, machine):
        from repro.transmuter.config import HardwareConfig

        with pytest.raises(ConfigError):
            SparseAdaptController(
                model_ee,
                machine,
                EE,
                faults=mixed_schedule(0.1),
                safe_config=HardwareConfig(l1_type="spm"),
            )


@pytest.fixture(scope="module")
def fault_rates_rows(tmp_path_factory):
    """Run the shipped fault-rate spec, plus a rate-0 hardened and
    unhardened pair, and return ``{candidate: SparseAdapt entry}``
    from the ledger's terminal rows."""
    from repro.experiments.spec import ExperimentSpec, compile_plan
    from repro.obs.compare import ledger_terminal_rows
    from repro.runner import run_plan

    raw = json.loads(FAULT_RATES_SPEC.read_text())
    rate_zero = mixed_schedule(0.1, seed=0).scaled(0.0).as_dict()
    raw["candidates"] += [
        {"name": "hardened-0", "faults": rate_zero},
        {"name": "unhardened-0", "hardening": False, "faults": rate_zero},
    ]
    ledger = tmp_path_factory.mktemp("fault_rates") / "fault_rates.jsonl"
    run_plan(compile_plan(ExperimentSpec.from_dict(raw)), ledger_path=ledger)
    _, rows = ledger_terminal_rows(ledger)
    assert all(row["status"] == "ok" for row in rows)
    return {
        row["candidate"]: row["result"]["schemes"]["SparseAdapt"]
        for row in rows
    }


class TestFaultCampaign:
    def test_rejects_bad_inputs(self):
        """A fault-rate candidate's inline schedule is validated when
        the spec compiles, before anything runs."""
        from repro.experiments.spec import ExperimentSpec, compile_plan

        def compile_with(faults):
            raw = json.loads(FAULT_RATES_SPEC.read_text())
            raw["candidates"][-1]["faults"] = faults
            compile_plan(ExperimentSpec.from_dict(raw))

        with pytest.raises(ConfigError):
            compile_with("not a schedule")
        with pytest.raises(FaultError):
            compile_with({"seed": 0})
        with pytest.raises(FaultError):
            compile_with(
                {"faults": [{"kind": "counter_noise", "rate": -0.1}]}
            )

    def test_spec_schedules_are_scaled_mixed_schedules(self):
        from repro.experiments.spec import load_spec

        spec = load_spec(FAULT_RATES_SPEC)
        factors = {"0.25": 0.25, "0.5": 0.5, "1": 1.0}
        faulted = [c for c in spec.candidates if c.faults is not None]
        assert len(faulted) == 2 * len(factors)
        for candidate in faulted:
            variant, tag = candidate.name.split("-")
            expected = mixed_schedule(0.1).scaled(factors[tag]).as_dict()
            assert candidate.faults == expected
            assert candidate.hardening is (
                False if variant == "unhardened" else None
            )

    def test_spec_matches_recorded_campaign(self, fault_rates_rows):
        """Every candidate reproduces the recorded fault-rate sweep
        (tests/golden/fault_rates_campaign.json) float-exactly."""
        golden = json.loads(FAULT_RATES_GOLDEN.read_text())
        assert fault_rates_rows["clean"]["efficiency_gain"] == (
            golden["clean_gain"]
        )
        assert "fault_stats" not in fault_rates_rows["clean"]
        tags = {0.0: "0", 0.25: "0.25", 0.5: "0.5", 1.0: "1"}
        for row in golden["rows"]:
            for variant in ("hardened", "unhardened"):
                entry = fault_rates_rows[
                    f"{variant}-{tags[row['rate_scale']]}"
                ]
                recorded = row[variant]
                assert entry["efficiency_gain"] == recorded["gain"]
                assert entry["reconfigurations"] == (
                    recorded["reconfigurations"]
                )
                for key, value in entry["fault_stats"].items():
                    assert value == recorded[key], (variant, key)

    def test_retention_at_ten_percent_mixed_faults(self, fault_rates_rows):
        """The documented acceptance number: at the 10% mixed-fault
        rate the hardened controller retains a sizeable fraction of
        the clean adaptive gain over BASELINE (docs/robustness.md)."""

        def retention(candidate):
            gain = fault_rates_rows[candidate]["efficiency_gain"]
            return (gain - 1.0) / (clean_gain - 1.0)

        clean_gain = fault_rates_rows["clean"]["efficiency_gain"]
        assert clean_gain > 1.0
        assert retention("hardened-0") == pytest.approx(1.0)
        assert retention("unhardened-0") == pytest.approx(1.0)
        full = fault_rates_rows["hardened-1"]
        assert full["fault_stats"]["n_faults_injected"] > 0
        assert full["fault_stats"]["n_faults_detected"] > 0
        assert retention("hardened-1") >= 0.35
        assert full["efficiency_gain"] > 1.0

    def test_components_sum_to_total(self, model_ee, machine, spmspv_trace):
        schedule = SparseAdaptController(
            model_ee, machine, EE, HybridPolicy(0.4)
        ).run(spmspv_trace)
        breakdown = schedule.energy_breakdown()
        assert sum(breakdown.values()) == pytest.approx(
            schedule.total_energy_j, rel=1e-9
        )

    def test_all_components_nonnegative(
        self, model_ee, machine, spmspv_trace
    ):
        schedule = SparseAdaptController(
            model_ee, machine, EE, HybridPolicy(0.4)
        ).run(spmspv_trace)
        for name, value in schedule.energy_breakdown().items():
            assert value >= 0.0, name

    def test_memory_bound_workload_dominated_by_dram_or_leak(
        self, model_ee, machine, spmspv_trace
    ):
        schedule = SparseAdaptController(
            model_ee, machine, EE, HybridPolicy(0.4)
        ).run(spmspv_trace)
        breakdown = schedule.energy_breakdown()
        memory_side = breakdown["dram"] + breakdown["leakage"]
        compute_side = breakdown["core_dynamic"]
        assert memory_side > compute_side


class TestElementwiseOps:
    def test_sparse_add_matches_dense(self, rng):
        a = generators.uniform_random(16, 12, 0.3, seed=1)
        b = generators.uniform_random(16, 12, 0.3, seed=2)
        result = sparse_add(a, b)
        assert np.allclose(result.to_dense(), a.to_dense() + b.to_dense())

    def test_hadamard_matches_dense(self):
        a = generators.uniform_random(16, 12, 0.4, seed=3)
        b = generators.uniform_random(16, 12, 0.4, seed=4)
        result = hadamard(a, b)
        assert np.allclose(result.to_dense(), a.to_dense() * b.to_dense())

    def test_hadamard_is_structural_intersection(self):
        a = COOMatrix([0], [0], [2.0], (2, 2))
        b = COOMatrix([1], [1], [3.0], (2, 2))
        assert hadamard(a, b).nnz == 0

    def test_add_with_cancellation_keeps_stored_zero(self):
        a = COOMatrix([0], [0], [2.0], (2, 2))
        b = COOMatrix([0], [0], [-2.0], (2, 2))
        summed = sparse_add(a, b)
        # The structural entry survives with value 0 (GraphBLAS keeps
        # explicit zeros); prune() drops it when wanted.
        assert summed.nnz == 1
        assert summed.prune().nnz == 0

    def test_shape_mismatch_rejected(self):
        a = COOMatrix.empty((2, 2))
        b = COOMatrix.empty((3, 2))
        with pytest.raises(ShapeError):
            sparse_add(a, b)
        with pytest.raises(ShapeError):
            hadamard(a, b)
