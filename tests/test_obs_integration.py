"""Integration tests: instrumentation hooks through the real runtime."""

import pytest

from repro import obs
from repro.core import OptimizationMode, TransmuterRuntime
from repro.obs import report
from repro.sparse import generators


@pytest.fixture(scope="module")
def runtime():
    return TransmuterRuntime(mode=OptimizationMode.ENERGY_EFFICIENT)


@pytest.fixture(scope="module")
def matrix():
    return generators.rmat(256, 1500, seed=7)


@pytest.fixture(scope="module")
def vector():
    return generators.random_vector(256, 0.5, seed=3)


def _epoch_spans(records):
    return [
        r for r in records if r["type"] == "span" and r["name"] == "epoch"
    ]


class TestControllerTracing:
    def test_one_epoch_span_per_epoch_record(self, runtime, matrix, vector):
        with obs.recording(None) as recorder:
            outcome = runtime.spmspv(matrix, vector)
        spans = _epoch_spans(recorder.sink.records())
        assert len(spans) == outcome.schedule.n_epochs
        assert [s["attrs"]["epoch"] for s in spans] == list(
            range(outcome.schedule.n_epochs)
        )

    def test_span_configs_match_schedule_transitions(
        self, runtime, matrix, vector
    ):
        with obs.recording(None) as recorder:
            outcome = runtime.spmspv(matrix, vector)
        spans = _epoch_spans(recorder.sink.records())
        assert [s["attrs"]["config"] for s in spans] == [
            config.describe()
            for config in outcome.schedule.config_sequence()
        ]

    def test_reconfig_events_match_applied_transitions(
        self, runtime, matrix, vector
    ):
        with obs.recording(None) as recorder:
            outcome = runtime.spmspv(matrix, vector)
        records = recorder.sink.records()
        reconfigs = [r for r in records if r["name"] == "reconfig"]
        # Events decided after the final epoch are never paid by a record.
        paid = [
            r
            for r in reconfigs
            if r["attrs"]["applies_to"] < outcome.schedule.n_epochs
        ]
        assert len(paid) == outcome.schedule.n_reconfigurations
        for event in reconfigs:
            assert event["attrs"]["changed"]
            assert event["attrs"]["cost_time_s"] > 0.0

    def test_decision_events_record_diff_and_latency(
        self, runtime, matrix, vector
    ):
        with obs.recording(None) as recorder:
            outcome = runtime.spmspv(matrix, vector)
        decisions = [
            r
            for r in recorder.sink.records()
            if r["name"] == "decision"
        ]
        assert len(decisions) == outcome.schedule.n_epochs
        for event in decisions:
            attrs = event["attrs"]
            assert attrs["latency_s"] > 0.0
            # accepted changes are a subset of proposed changes
            assert set(attrs["accepted"]) <= set(attrs["proposed"])
            assert set(attrs["rejected"]) == set(attrs["proposed"]) - set(
                attrs["accepted"]
            )

    def test_noise_seed_recorded_for_reproducibility(self, matrix, vector):
        from repro.core.controller import SparseAdaptController
        from repro.core.hardening import HardeningConfig
        from repro.core.training import train_default_model
        from repro.faults import FaultSchedule, noise_schedule
        from repro.kernels.spmspv import trace_spmspv
        from repro.transmuter.machine import TransmuterModel

        model = train_default_model(
            OptimizationMode.ENERGY_EFFICIENT, kernel="spmspv"
        )
        trace = trace_spmspv(matrix.to_csc(), vector, 500)

        def run_traced(faults):
            controller = SparseAdaptController(
                model=model,
                machine=TransmuterModel(),
                mode=OptimizationMode.ENERGY_EFFICIENT,
                faults=faults,
                hardening=HardeningConfig.disabled(),
            )
            with obs.recording(None) as recorder:
                schedule = controller.run(trace)
            starts = [
                r
                for r in recorder.sink.records()
                if r["name"] == "controller.start"
            ]
            return schedule, starts[0]["attrs"]

        schedule_a, attrs_a = run_traced(noise_schedule(0.05, seed=1234))
        assert attrs_a["faults"]["seed"] == 1234
        assert attrs_a["faults"]["faults"][0]["severity"] == pytest.approx(
            0.05
        )
        # Replaying with the schedule recovered from the trace
        # reproduces the noisy run exactly.
        schedule_b, _ = run_traced(FaultSchedule.from_dict(attrs_a["faults"]))
        assert schedule_a.summary() == schedule_b.summary()
        assert schedule_a.config_sequence() == schedule_b.config_sequence()


class TestObservabilityNeverPerturbs:
    def test_traced_and_untraced_results_identical(
        self, runtime, matrix, vector
    ):
        with obs.recording(None):
            traced = runtime.spmspv(matrix, vector)
        untraced = runtime.spmspv(matrix, vector)
        assert traced.schedule.summary() == untraced.schedule.summary()
        assert traced.schedule.total_time_s == untraced.schedule.total_time_s
        assert (
            traced.schedule.total_energy_j == untraced.schedule.total_energy_j
        )
        assert (
            traced.schedule.config_sequence()
            == untraced.schedule.config_sequence()
        )


class TestMachineAndOffloadEvents:
    def test_machine_epoch_events(self, runtime, matrix, vector):
        with obs.recording(None) as recorder:
            outcome = runtime.spmspv(matrix, vector)
        machine_events = [
            r
            for r in recorder.sink.records()
            if r["name"] == "machine.epoch"
        ]
        assert len(machine_events) == outcome.schedule.n_epochs
        for event in machine_events:
            attrs = event["attrs"]
            assert 0.0 <= attrs["l1_hit_rate"] <= 1.0
            assert 0.0 <= attrs["l2_hit_rate"] <= 1.0
            assert isinstance(attrs["bandwidth_saturated"], bool)

    def test_offload_span_and_event(self, runtime, matrix, vector):
        with obs.recording(None) as recorder:
            outcome = runtime.spmspv(matrix, vector)
        records = recorder.sink.records()
        offload_spans = [
            r
            for r in records
            if r["type"] == "span" and r["name"] == "offload"
        ]
        assert len(offload_spans) == 1
        assert offload_spans[0]["attrs"]["kernel"] == "spmspv"
        assert offload_spans[0]["attrs"]["gflops"] == pytest.approx(
            outcome.gflops
        )
        offload_events = [
            r for r in records if r["name"] == "runtime.offload"
        ]
        assert len(offload_events) == 1

    def test_offload_metrics_counter(self, runtime, matrix, vector):
        """Offloads are counted from the trace: one ``runtime.offload``
        event per offloaded kernel."""
        with obs.recording(None) as recorder:
            runtime.bfs(generators.rmat(64, 256, seed=11))
        offloads = [
            r["attrs"]["kernel"]
            for r in recorder.sink.records()
            if r["name"] == "runtime.offload"
        ]
        assert offloads == ["bfs"]


class TestTraceReportPipeline:
    def test_jsonl_report_roundtrip(self, runtime, matrix, vector, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.recording(path):
            outcome = runtime.spmspv(matrix, vector)
        records = report.load_trace(path)
        summary = report.summarize(records)
        assert len(summary["epochs"]) == outcome.schedule.n_epochs
        assert len(summary["decision_latencies_s"]) == (
            outcome.schedule.n_epochs
        )
        rendered = report.render(summary)
        assert "epoch timeline" in rendered
        assert "reconfigurations by parameter" in rendered
        assert "host decision latency" in rendered
        assert "most expensive epochs" in rendered

    def test_empty_trace_quantiles_render_nan(self):
        # A trace with no decision events still renders the latency
        # quantile line — with NaN spelled out, not a crash or a
        # silently missing row.
        rendered = report.render(report.summarize([]))
        assert "host decision latency (0 decisions)" in rendered
        assert "p50/p90/p99 (bucket-estimated): NaN / NaN / NaN us" in rendered
        assert "(no samples)" in rendered

    def test_harness_spans_present(self, tmp_path):
        from repro.experiments.harness import build_trace

        with obs.recording(None) as recorder:
            build_trace("spmspv", "P1", scale=0.1, use_cache=False)
        spans = [
            r
            for r in recorder.sink.records()
            if r["name"] == "harness.build_trace"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["matrix"] == "P1"
        assert spans[0]["attrs"]["n_epochs"] >= 1


class TestProvenanceRecords:
    def test_header_is_first_record_with_schema_version(
        self, runtime, matrix, vector
    ):
        from repro.obs.trace import SCHEMA_VERSION

        with obs.recording(None) as recorder:
            runtime.spmspv(matrix, vector)
        records = recorder.sink.records()
        assert records[0]["type"] == "header"
        assert records[0]["name"] == "trace"
        assert records[0]["attrs"]["schema_version"] == SCHEMA_VERSION

    def test_one_provenance_record_per_epoch_and_parameter(
        self, runtime, matrix, vector
    ):
        from repro.transmuter.config import RUNTIME_PARAMETERS

        with obs.recording(None) as recorder:
            outcome = runtime.spmspv(matrix, vector)
        provenance = [
            r for r in recorder.sink.records() if r["name"] == "provenance"
        ]
        assert len(provenance) == outcome.schedule.n_epochs * len(
            RUNTIME_PARAMETERS
        )
        for record in provenance:
            attrs = record["attrs"]
            assert attrs["parameter"] in RUNTIME_PARAMETERS
            assert attrs["path"], "tree-backed params always have a path"
            for step in attrs["path"]:
                assert isinstance(step["feature"], str)
                assert step["direction"] in ("le", "gt")
            assert attrs["counters_raw"]
            assert attrs["counters_observed"]

    def test_provenance_predictions_match_decision_proposals(
        self, runtime, matrix, vector
    ):
        with obs.recording(None) as recorder:
            runtime.spmspv(matrix, vector)
        records = recorder.sink.records()
        decisions = {
            r["attrs"]["epoch"]: r["attrs"]
            for r in records
            if r["name"] == "decision"
        }
        for record in records:
            if record["name"] != "provenance":
                continue
            attrs = record["attrs"]
            proposed = decisions[attrs["epoch"]]["proposed"]
            if attrs["parameter"] in proposed:
                assert proposed[attrs["parameter"]] == [
                    attrs["current"],
                    attrs["predicted"],
                ]
            else:
                assert attrs["current"] == attrs["predicted"]

    def test_verdicts_agree_with_accepted_changes(
        self, runtime, matrix, vector
    ):
        with obs.recording(None) as recorder:
            runtime.spmspv(matrix, vector)
        records = recorder.sink.records()
        decisions = {
            r["attrs"]["epoch"]: r["attrs"]
            for r in records
            if r["name"] == "decision"
        }
        checked = 0
        for record in records:
            if record["name"] != "provenance":
                continue
            attrs = record["attrs"]
            verdict = attrs["verdict"]
            if verdict is None:
                continue
            decision = decisions[attrs["epoch"]]
            assert verdict["accepted"] == (
                attrs["parameter"] in decision["accepted"]
            )
            assert verdict["reason"]
            assert verdict["code"]
            assert verdict["cost_time_s"] >= 0.0
            checked += 1
        assert checked > 0, "run proposed no changes; test is vacuous"

    def test_clean_run_raw_equals_observed_counters(
        self, runtime, matrix, vector
    ):
        with obs.recording(None) as recorder:
            runtime.spmspv(matrix, vector)
        for record in recorder.sink.records():
            if record["name"] == "provenance":
                attrs = record["attrs"]
                assert attrs["counters_raw"] == attrs["counters_observed"]

    def test_noisy_run_perturbs_observed_counters(self, matrix, vector):
        from repro.core.controller import SparseAdaptController
        from repro.core.hardening import HardeningConfig
        from repro.core.training import train_default_model
        from repro.faults import noise_schedule
        from repro.kernels.spmspv import trace_spmspv
        from repro.transmuter.machine import TransmuterModel

        model = train_default_model(
            OptimizationMode.ENERGY_EFFICIENT, kernel="spmspv"
        )
        trace = trace_spmspv(matrix.to_csc(), vector, 500)
        controller = SparseAdaptController(
            model=model,
            machine=TransmuterModel(),
            mode=OptimizationMode.ENERGY_EFFICIENT,
            faults=noise_schedule(0.1, seed=3),
            hardening=HardeningConfig.disabled(),
        )
        with obs.recording(None) as recorder:
            controller.run(trace)
        provenance = [
            r for r in recorder.sink.records() if r["name"] == "provenance"
        ]
        assert any(
            r["attrs"]["counters_raw"] != r["attrs"]["counters_observed"]
            for r in provenance
        )

    def test_policy_verdict_metrics_labeled(self, runtime, matrix, vector):
        """trace-report counts the provenance records' verdicts by
        parameter, outcome and reason code."""
        with obs.recording(None) as recorder:
            runtime.spmspv(matrix, vector)
        records = recorder.sink.records()
        verdicts = [
            r["attrs"]["verdict"]
            for r in records
            if r["name"] == "provenance" and r["attrs"]["verdict"]
        ]
        assert verdicts, "no policy verdict recorded"
        summary = report.summarize(records)
        rows = summary["policy_verdicts"]
        assert sum(row["count"] for row in rows) == len(verdicts)
        for row in rows:
            assert row["verdict"] in ("accepted", "rejected")
            assert row["count"] == sum(
                1
                for v in verdicts
                if v["parameter"] == row["parameter"]
                and v["code"] == row["code"]
                and v["accepted"] == (row["verdict"] == "accepted")
            )
        assert "--- policy verdicts ---" in report.render(summary)

    def test_provenance_emission_does_not_change_results(
        self, runtime, matrix, vector
    ):
        # A traced run also explains each decision and collects the
        # policy verdicts; results must still be byte-identical to the
        # untraced run.
        with obs.recording(None) as recorder:
            traced = runtime.spmspv(matrix, vector)
        assert any(
            r["name"] == "provenance" for r in recorder.sink.records()
        )
        untraced = runtime.spmspv(matrix, vector)
        assert traced.schedule.summary() == untraced.schedule.summary()
        assert (
            traced.schedule.config_sequence()
            == untraced.schedule.config_sequence()
        )


class TestFastpathTraceParity:
    """The fast path must not change what a traced run *says* either:
    the provenance stream, policy verdicts included, is part of the
    reproduction record, so the production path and the scalar
    reference copies must emit identical ones.

    (Traced decisions take the same memo, flat decision tables and
    policy filter as untraced ones; the scalar reference reads the
    provenance off the linked ``TreeNode`` walk and recomputes every
    decision, so this diff checks the flat tables' paths and the
    memoized decisions record for record.)
    """

    def _traced_run(self, runtime, matrix, vector, fast):
        from tests.scalar_reference import code_path

        with code_path(fast):
            with obs.recording(None) as recorder:
                outcome = runtime.spmspv(matrix, vector)
        provenance = [
            dict(r["attrs"])
            for r in recorder.sink.records()
            if r["name"] == "provenance"
        ]
        return outcome, provenance

    def test_provenance_and_verdicts_identical(
        self, runtime, matrix, vector
    ):
        fast_outcome, fast_prov = self._traced_run(
            runtime, matrix, vector, fast=True
        )
        scalar_outcome, scalar_prov = self._traced_run(
            runtime, matrix, vector, fast=False
        )
        assert fast_prov, "traced run emitted no provenance events"
        assert any(record["verdict"] for record in fast_prov)
        assert fast_prov == scalar_prov
        assert (
            fast_outcome.schedule.summary()
            == scalar_outcome.schedule.summary()
        )
        assert fast_outcome.schedule.config_sequence() == (
            scalar_outcome.schedule.config_sequence()
        )
