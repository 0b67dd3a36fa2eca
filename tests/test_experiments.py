"""Unit tests for the experiment harness and reporting helpers."""

import pytest

from repro.core import OptimizationMode
from repro.core.policies import ConservativePolicy, HybridPolicy
from repro.errors import ConfigError, ModelError
from repro.experiments import (
    STANDARD_SCHEMES,
    EvaluationContext,
    build_trace,
    default_policy_for,
    evaluate_schemes,
    gains_over,
)
from repro.experiments import harness
from repro.experiments.harness import job_context
from repro.experiments.reporting import (
    append_geomean,
    format_gain_table,
    format_scalar_table,
)
from repro.sparse import suite
from repro.transmuter import TransmuterModel

EE = OptimizationMode.ENERGY_EFFICIENT


class TestBuildTrace:
    def test_spmspm_trace(self):
        trace = build_trace("spmspm", "R03", scale=0.2)
        assert trace.n_epochs >= 1
        assert "spmspm" in trace.name

    def test_spmspv_trace(self):
        trace = build_trace("spmspv", "P1", scale=0.1)
        assert trace.n_epochs >= 1

    def test_graph_traces(self):
        for kernel in ("bfs", "sssp"):
            trace = build_trace(kernel, "R10", scale=0.1)
            assert trace.n_epochs >= 1

    def test_cache_returns_same_object(self):
        a = build_trace("spmspv", "P1", scale=0.1)
        b = build_trace("spmspv", "P1", scale=0.1)
        assert a is b

    @pytest.mark.parametrize("kernel", ["spmspm", "bfs", "sssp"])
    def test_cache_ignores_seed_and_density_off_spmspv(
        self, kernel, monkeypatch
    ):
        """Only SpMSpV draws a vector, so another kernel's trace is one
        cache entry for every job seed and vector density."""
        loads = []
        original = suite.load

        def counting_load(*args, **kwargs):
            loads.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(suite, "load", counting_load)
        monkeypatch.setattr(harness, "_TRACE_CACHE", {})
        a = build_trace(kernel, "R03", scale=0.07, seed=1)
        b = build_trace(kernel, "R03", scale=0.07, seed=2, vector_density=0.3)
        assert a is b
        assert len(loads) == 1

    def test_spmspv_cache_keys_on_seed(self):
        a = build_trace("spmspv", "R03", scale=0.07, seed=1)
        b = build_trace("spmspv", "R03", scale=0.07, seed=2)
        assert a is not b
        assert a.epochs != b.epochs

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            build_trace("fft", "P1")

    def test_custom_epoch_size(self):
        small = build_trace("spmspv", "P2", scale=0.1, epoch_fp_ops=250.0)
        large = build_trace("spmspv", "P2", scale=0.1, epoch_fp_ops=4000.0)
        assert small.n_epochs > large.n_epochs


class TestEvaluateSchemes:
    @pytest.fixture(scope="class")
    def context(self, model_ee):
        return EvaluationContext(
            trace=build_trace("spmspv", "P1", scale=0.12),
            machine=TransmuterModel(),
            mode=EE,
            model=model_ee,
            policy=HybridPolicy(0.4),
            n_samples=24,
        )

    def test_standard_schemes(self, context):
        results = evaluate_schemes(context, STANDARD_SCHEMES)
        assert set(results) == set(STANDARD_SCHEMES)
        for name, schedule in results.items():
            assert schedule.n_epochs >= context.trace.n_epochs
            assert schedule.scheme == name

    def test_upper_bound_schemes(self, context):
        results = evaluate_schemes(
            context, ("Baseline", "Ideal Static", "Ideal Greedy", "Oracle")
        )
        assert results["Oracle"].metric(EE) >= results[
            "Ideal Static"
        ].metric(EE) - 1e-12

    def test_profileadapt_schemes(self, context):
        results = evaluate_schemes(
            context, ("ProfileAdapt Naive", "ProfileAdapt Ideal")
        )
        assert results["ProfileAdapt Ideal"].metric(EE) >= results[
            "ProfileAdapt Naive"
        ].metric(EE) - 1e-12

    def test_unknown_scheme_rejected(self, context):
        with pytest.raises(ConfigError):
            evaluate_schemes(context, ("Quantum",))

    def test_gains_over_baseline(self, context):
        results = evaluate_schemes(context, ("Baseline", "Max Cfg"))
        gains = gains_over(results)
        assert gains["Baseline"]["perf_gain"] == pytest.approx(1.0)
        # Max Cfg burns power for at best marginal speed on this tiny
        # bandwidth-bound input: performance parity, efficiency loss.
        assert gains["Max Cfg"]["perf_gain"] > 0.9
        assert gains["Max Cfg"]["efficiency_gain"] < 1.0

    def test_gains_missing_reference_rejected(self, context):
        results = evaluate_schemes(context, ("Max Cfg",))
        with pytest.raises(ConfigError):
            gains_over(results)


class TestHarnessErrorPaths:
    """The harness rejects poisoned inputs with one-line ConfigErrors —
    the suite runner quarantines on exactly these."""

    def test_empty_trace_rejected(self):
        from repro.kernels.base import KernelTrace

        context = EvaluationContext(
            trace=KernelTrace(name="hollow", epochs=[]),
            machine=TransmuterModel(),
            mode=EE,
        )
        with pytest.raises(ConfigError, match="empty trace 'hollow'"):
            evaluate_schemes(context, ("Baseline",))

    def test_sparseadapt_without_model_rejected(self, monkeypatch):
        """``job_context`` is the one place a stock model is chosen; a
        bare context asking for SparseAdapt fails before any scheme
        runs and trains nothing."""
        import repro.experiments.harness as harness_module

        def no_training(*args, **kwargs):
            raise AssertionError("evaluate_schemes trained a model")

        monkeypatch.setattr(harness_module, "train_default_model", no_training)
        monkeypatch.setattr(
            harness_module, "run_static", lambda *a, **k: no_training()
        )
        context = EvaluationContext(
            trace=build_trace("spmspv", "P1", scale=0.12),
            machine=TransmuterModel(),
            mode=EE,
        )
        with pytest.raises(ConfigError, match="SparseAdapt needs a model"):
            evaluate_schemes(context, ("Baseline", "SparseAdapt"))

    def test_unknown_matrix_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            build_trace("spmspv", "R99", scale=0.1)

    def test_unknown_scheme_message_names_candidates(self, model_ee):
        context = EvaluationContext(
            trace=build_trace("spmspv", "P1", scale=0.12),
            machine=TransmuterModel(),
            mode=EE,
            model=model_ee,
        )
        with pytest.raises(ConfigError, match="Quantum"):
            evaluate_schemes(context, ("Baseline", "Quantum"))

    def test_known_schemes_constant_matches_harness(self):
        from repro.experiments.harness import (
            KNOWN_SCHEMES,
            STANDARD_SCHEMES,
            UPPER_BOUND_SCHEMES,
        )

        for name in STANDARD_SCHEMES + UPPER_BOUND_SCHEMES:
            assert name in KNOWN_SCHEMES


class TestJobContext:
    """``job_context`` is the one decoder from a JobSpec to the context
    its schemes run in."""

    @staticmethod
    def _spec(**fields):
        from repro.runner import JobSpec

        return JobSpec(
            **{"kernel": "spmspv", "matrix": "P1", "scale": 0.12, **fields}
        )

    def test_statics_only_job_trains_nothing(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("a statics-only job trained a model")

        monkeypatch.setattr(harness, "train_default_model", no_training)
        context = job_context(
            self._spec(schemes=("Baseline", "Best Avg", "Max Cfg"))
        )
        assert context.model is None
        assert context.mode is EE

    def test_sparseadapt_job_resolves_the_stock_model(self):
        from repro.core.training import train_default_model

        context = job_context(self._spec(mode="pp", l1_type="spm"))
        assert context.mode is OptimizationMode.POWER_PERFORMANCE
        assert context.model is train_default_model(
            OptimizationMode.POWER_PERFORMANCE, kernel="spmspv", l1_type="spm"
        )

    def test_fields_decode(self):
        from repro.core.hardening import HardeningConfig
        from repro.faults import noise_schedule

        faults = noise_schedule(0.1, seed=3)
        context = job_context(
            self._spec(
                schemes=("Baseline",),
                bandwidth_gbps=2.0,
                seed=4,
                policy="conservative",
                faults=faults.as_dict(),
                hardening=False,
            )
        )
        assert context.trace is build_trace("spmspv", "P1", 0.12, seed=4)
        assert context.machine.describe() == "2x8 @ 2 GB/s"
        assert context.seed == 4
        assert isinstance(context.policy, ConservativePolicy)
        assert context.faults == faults
        assert context.hardening == HardeningConfig.disabled()
        default = job_context(self._spec(schemes=("Baseline",)))
        assert isinstance(default.policy, HybridPolicy)
        assert default.faults is None and default.hardening is None


class TestPolicyDefaults:
    def test_paper_section54_policy_assignment(self):
        assert isinstance(default_policy_for("spmspm"), ConservativePolicy)
        hybrid = default_policy_for("spmspv")
        assert isinstance(hybrid, HybridPolicy)
        assert hybrid.tolerance == pytest.approx(0.40)


class TestReporting:
    def test_append_geomean(self):
        table = {
            "A": {"x": 2.0, "y": 1.0},
            "B": {"x": 8.0, "y": 1.0},
        }
        with_gm = append_geomean(table)
        assert with_gm["GM"]["x"] == pytest.approx(4.0)
        assert with_gm["GM"]["y"] == pytest.approx(1.0)

    def test_geomean_requires_positive(self):
        with pytest.raises(ModelError):
            append_geomean({"A": {"x": 0.0}})

    def test_format_gain_table_contains_rows(self):
        text = format_gain_table(
            "title", {"A": {"x": 1.5}}, schemes=("x",)
        )
        assert "title" in text
        assert "A" in text
        assert "1.50" in text

    def test_format_scalar_table(self):
        text = format_scalar_table("t", {"metric": 3.14159})
        assert "metric" in text
        assert "3.142" in text


class TestSparkline:
    def test_shape_follows_values(self):
        from repro.experiments.reporting import sparkline

        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_constant_series_mid_height(self):
        from repro.experiments.reporting import sparkline

        assert set(sparkline([7.0] * 5)) == {"▄"}

    def test_long_series_bucketed(self):
        from repro.experiments.reporting import sparkline

        assert len(sparkline(list(range(1000)), width=50)) == 50

    def test_empty_series(self):
        from repro.experiments.reporting import sparkline

        assert sparkline([]) == ""

    def test_format_timeline_labels_and_ranges(self):
        from repro.experiments.reporting import format_timeline

        text = format_timeline(
            "panels", {"clock": [125.0, 250.0, 1000.0]}
        )
        assert "clock" in text
        assert "[125 .. 1000]" in text
