"""Tests for trace diffing (obs.diff) and provenance explain (obs.explain)."""

import json
import math

import numpy as np
import pytest

from repro.faults import noise_schedule
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.obs.diff import diff_traces, render_diff
from repro.obs.explain import explain, render_explanation


def _header(version=2):
    return {
        "seq": 0,
        "ts": 0.0,
        "type": "header",
        "name": "trace",
        "attrs": {"schema_version": version},
    }


def _start(**overrides):
    attrs = {
        "scheme": "sparseadapt",
        "trace": "spmspv-U1",
        "policy": "hybrid",
        "faults": None,
    }
    attrs.update(overrides)
    return {
        "seq": 1,
        "ts": 0.0,
        "type": "event",
        "name": "controller.start",
        "attrs": attrs,
    }


def _epoch(index, config, time_s=1e-5, energy_j=1e-6, gflops=1.0,
           reconfig_time_s=0.0):
    return {
        "seq": 2 + index,
        "ts": 0.0,
        "type": "span",
        "name": "epoch",
        "dur_s": 1e-6,
        "attrs": {
            "epoch": index,
            "phase": "stream",
            "config_values": config,
            "time_s": time_s,
            "energy_j": energy_j,
            "gflops": gflops,
            "reconfig_time_s": reconfig_time_s,
        },
    }


def _provenance(epoch, parameter="l1_kb", current=16, predicted=64,
                counters=None, verdict=None, path=None):
    return {
        "seq": 100 + epoch,
        "ts": 0.0,
        "type": "event",
        "name": "provenance",
        "attrs": {
            "epoch": epoch,
            "parameter": parameter,
            "current": current,
            "predicted": predicted,
            "kind": "tree",
            "margin": 0.8,
            "depth": 1 if path is None else len(path),
            "path": path
            if path is not None
            else [
                {
                    "depth": 0,
                    "feature": "l1_miss_rate",
                    "feature_index": 2,
                    "threshold": 0.24,
                    "value": 0.31,
                    "direction": "gt",
                }
            ],
            "leaf": {"prediction": predicted, "n_samples": 12},
            "counters_raw": counters or {"l1_miss_rate": 0.31},
            "counters_observed": counters or {"l1_miss_rate": 0.31},
            "verdict": verdict,
        },
    }


CONFIG_A = {"l1_type": "cache", "l1_kb": 16, "l2_kb": 16,
            "clock_mhz": 250.0, "prefetch": 4,
            "l1_sharing": "shared", "l2_sharing": "shared"}
CONFIG_B = dict(CONFIG_A, l1_kb=64, clock_mhz=500.0)


def _trace(configs, counters_by_epoch=None, **start_overrides):
    records = [_header(), _start(**start_overrides)]
    for index, config in enumerate(configs):
        records.append(_epoch(index, config))
        counters = (counters_by_epoch or {}).get(index)
        records.append(
            _provenance(index, counters=counters)
        )
    return records


class TestDiffTraces:
    def test_identical_traces_have_no_divergence(self):
        a = _trace([CONFIG_A, CONFIG_A, CONFIG_A])
        diff = diff_traces(a, a)
        assert diff["first_divergence_epoch"] is None
        assert diff["divergence"]["n_divergent_epochs"] == 0
        assert diff["divergence"]["parameter_counts"] == {}
        assert "identical" in render_diff(diff)

    def test_first_divergence_and_parameter_counts(self):
        a = _trace([CONFIG_A, CONFIG_A, CONFIG_A, CONFIG_A])
        b = _trace([CONFIG_A, CONFIG_A, CONFIG_B, CONFIG_B])
        diff = diff_traces(a, b)
        assert diff["first_divergence_epoch"] == 2
        assert diff["divergence"]["n_divergent_epochs"] == 2
        assert diff["divergence"]["parameter_counts"] == {
            "l1_kb": 2,
            "clock_mhz": 2,
        }
        timeline = diff["divergence"]["timeline"]
        assert timeline[0]["epoch"] == 2
        assert timeline[0]["params"]["l1_kb"] == {"a": 16, "b": 64}

    def test_counter_deltas_at_divergence(self):
        counters_a = {1: {"l1_miss_rate": 0.10, "gpe_ipc": 0.5}}
        counters_b = {1: {"l1_miss_rate": 0.30, "gpe_ipc": 0.5}}
        a = _trace([CONFIG_A, CONFIG_A], counters_by_epoch=counters_a)
        b = _trace([CONFIG_A, CONFIG_B], counters_by_epoch=counters_b)
        diff = diff_traces(a, b)
        assert diff["first_divergence_epoch"] == 1
        deltas = diff["counters_at_divergence"]
        assert deltas["l1_miss_rate"]["delta"] == pytest.approx(0.20)
        assert deltas["gpe_ipc"]["delta"] == 0.0

    def test_no_provenance_means_no_counter_deltas(self):
        """Counters at divergence come from provenance records only;
        ``machine.epoch`` events carry no epoch index to join on."""
        machine_epoch = {
            "seq": 50,
            "ts": 0.0,
            "type": "event",
            "name": "machine.epoch",
            "attrs": {"phase": "stream", "time_s": 1e-5, "l1_hit_rate": 0.9},
        }

        def trace(configs):
            records = [_header(), _start()]
            for index, config in enumerate(configs):
                records += [machine_epoch, _epoch(index, config)]
            return records

        diff = diff_traces(
            trace([CONFIG_A, CONFIG_A]), trace([CONFIG_A, CONFIG_B])
        )
        assert diff["first_divergence_epoch"] == 1
        assert diff["counters_at_divergence"] is None
        assert "first divergence: epoch 1" in render_diff(diff)

    def test_metric_regression_summary(self):
        a = [_header(), _start(), _epoch(0, CONFIG_A, time_s=1e-5,
                                         energy_j=1e-6, gflops=2.0)]
        b = [_header(), _start(), _epoch(0, CONFIG_A, time_s=2e-5,
                                         energy_j=4e-6, gflops=1.0)]
        diff = diff_traces(a, b)
        metrics = diff["metrics"]
        assert metrics["a"]["gflops"] == pytest.approx(2.0)
        assert metrics["b"]["gflops"] == pytest.approx(1.0)
        assert metrics["regression_pct"]["gflops"] == pytest.approx(-50.0)
        # GFLOPS/W: a = 2e-5*1e9*... flops/energy; check sign only.
        assert metrics["regression_pct"]["gflops_per_watt"] < 0

    def test_epoch_count_mismatch_flagged(self):
        a = _trace([CONFIG_A, CONFIG_A, CONFIG_A])
        b = _trace([CONFIG_A, CONFIG_A])
        diff = diff_traces(a, b)
        assert not diff["epoch_counts_match"]
        assert diff["n_compared"] == 2
        assert "shared epochs" in render_diff(diff)

    def test_schema1_trace_without_config_values_rejected(self):
        legacy_epoch = _epoch(0, CONFIG_A)
        del legacy_epoch["attrs"]["config_values"]
        a = [_start(), legacy_epoch]
        with pytest.raises(ValueError, match="re-record"):
            diff_traces(a, a)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="no epoch spans"):
            diff_traces([_header(), _start()], _trace([CONFIG_A]))

    def test_render_mentions_run_metadata(self):
        noise = noise_schedule(0.15, seed=7).as_dict()
        a = _trace([CONFIG_A, CONFIG_A])
        b = _trace([CONFIG_A, CONFIG_B], faults=noise)
        text = render_diff(diff_traces(a, b, "clean", "noisy"))
        assert "clean" in text and "noisy" in text
        assert "first divergence: epoch 1" in text
        assert "faults=null" in text
        assert f"faults={json.dumps(noise)}" in text


class TestExplain:
    def test_groups_by_epoch_and_filters(self):
        records = _trace([CONFIG_A, CONFIG_A, CONFIG_A])
        result = explain(records, epoch=1)
        assert list(result["epochs"]) == [1]
        assert result["epochs"][1][0]["parameter"] == "l1_kb"

    def test_default_selects_proposing_epochs(self):
        records = [_header(), _start()]
        records.append(_epoch(0, CONFIG_A))
        records.append(
            _provenance(0, current=16, predicted=16)  # no change
        )
        records.append(_epoch(1, CONFIG_A))
        records.append(
            _provenance(1, current=16, predicted=64)  # proposes
        )
        result = explain(records)
        assert list(result["epochs"]) == [1]

    def test_no_provenance_raises(self):
        records = [_header(), _start(), _epoch(0, CONFIG_A)]
        with pytest.raises(ValueError, match="no provenance"):
            explain(records)

    def test_unmatched_filter_raises(self):
        records = _trace([CONFIG_A])
        with pytest.raises(ValueError, match="epoch 99"):
            explain(records, epoch=99)
        with pytest.raises(ValueError, match="'bogus'"):
            explain(records, parameter="bogus")

    def test_render_shows_path_and_verdict(self):
        verdict = {
            "parameter": "l1_kb",
            "proposed": 64,
            "current": 16,
            "accepted": False,
            "code": "over_budget",
            "reason": "rejected l1_kb: cost 3.1e-05 s > budget 1.2e-05 s",
            "cost_time_s": 3.1e-05,
            "cost_energy_j": 1e-9,
            "budget_s": 1.2e-05,
            "payback_epochs": 2.5,
        }
        records = [_header(), _start(), _epoch(0, CONFIG_A),
                   _provenance(0, verdict=verdict)]
        text = render_explanation(records)
        assert "l1_kb: 16 -> 64 (proposed; margin 0.80)" in text
        assert "l1_miss_rate = 0.31 > threshold 0.24 -> right" in text
        assert "leaf predicts 64 (12 training samples)" in text
        assert "verdict: REJECTED — rejected l1_kb: cost" in text

    def test_render_tags_only_unknown_kinds(self):
        tree = _provenance(0)
        other = _provenance(1)
        other["attrs"]["kind"] = "forest"
        records = [_header(), _start(), _epoch(0, CONFIG_A),
                   _epoch(1, CONFIG_A), tree, other]
        lines = render_explanation(records).splitlines()
        assert any(
            line.startswith("epoch 0 · l1_kb:") and line.endswith(")")
            for line in lines
        )
        assert any(
            line.startswith("epoch 1 · l1_kb:") and line.endswith("[forest]")
            for line in lines
        )

    def test_render_single_leaf_tree(self):
        """A tree fitted on constant labels never splits: its recorded
        path is empty and the leaf is the whole decision."""
        tree = DecisionTreeClassifier(max_depth=1).fit(
            np.zeros((6, 3)), np.full(6, 64)
        )
        path = tree.decision_path(np.zeros(3))
        record = _provenance(0, predicted=64, path=path["steps"])
        record["attrs"]["leaf"] = path["leaf"]
        records = [_header(), _start(), _epoch(0, CONFIG_A), record]
        lines = render_explanation(records).splitlines()
        at = lines.index("  (single-leaf tree: no split before the leaf)")
        assert lines[at + 1] == "  => leaf predicts 64 (6 training samples)"

    def test_render_with_counters(self):
        records = _trace(
            [CONFIG_A], counters_by_epoch={0: {"l1_miss_rate": 0.42}}
        )
        text = render_explanation(records, epoch=0, show_counters=True)
        assert "observed counters" in text
        assert "l1_miss_rate" in text


class TestOracleRegret:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.baselines import BASELINE, EpochTable
        from repro.core.controller import SparseAdaptController
        from repro.core.modes import OptimizationMode
        from repro.core.training import train_default_model
        from repro.kernels.spmspv import trace_spmspv
        from repro.sparse import generators
        from repro.transmuter.machine import TransmuterModel

        matrix = generators.rmat(128, 600, seed=5)
        vector = generators.random_vector(128, 0.5, seed=6)
        trace = trace_spmspv(matrix.to_csc(), vector, 500)
        machine = TransmuterModel()
        mode = OptimizationMode.ENERGY_EFFICIENT
        model = train_default_model(mode, kernel="spmspv")
        controller = SparseAdaptController(
            model=model, machine=machine, mode=mode,
            initial_config=BASELINE,
        )
        from repro import obs

        with obs.recording(None) as recorder:
            schedule = controller.run(trace)
        records = recorder.sink.records()
        table = EpochTable(machine, trace, n_samples=8, seed=0,
                           include=[BASELINE])
        return schedule, table, mode, records

    def test_regret_structure(self, setup):
        from repro.baselines import oracle
        from repro.experiments.harness import oracle_regret

        schedule, table, mode, records = setup
        regret = oracle_regret(
            schedule, oracle(table, mode), mode, records=records
        )
        assert regret["proxy"] == "energy_j"
        assert regret["n_epochs"] == schedule.n_epochs
        assert len(regret["per_epoch"]) == schedule.n_epochs
        assert regret["total_regret"] == pytest.approx(
            regret["total_cost"] - regret["oracle_cost"]
        )
        assert all(math.isfinite(r) for r in regret["per_epoch"])
        assert 1 <= len(regret["worst_epochs"]) <= 5
        worst = regret["worst_epochs"][0]
        assert {"epoch", "regret", "config", "oracle_config"} <= set(worst)

    def test_pp_mode_uses_time_proxy(self, setup):
        from repro.baselines import oracle
        from repro.core.modes import OptimizationMode
        from repro.experiments.harness import oracle_regret

        schedule, table, _, _ = setup
        pp = OptimizationMode.POWER_PERFORMANCE
        regret = oracle_regret(schedule, oracle(table, pp), pp)
        assert regret["proxy"] == "time_s"

    def test_rejected_proposals_joined_from_trace(self, setup):
        from repro.baselines import oracle
        from repro.experiments.harness import oracle_regret

        schedule, table, mode, records = setup
        regret = oracle_regret(
            schedule, oracle(table, mode), mode, records=records
        )
        # Epoch 0 can never join a decision (none precedes it); any
        # joined entry must name proposed values for rejected params.
        for worst in regret["worst_epochs"]:
            if "rejected_proposals" in worst and worst["rejected_proposals"]:
                for values in worst["rejected_proposals"].values():
                    assert values is not None
