"""Tests for the command-line interface."""

import hashlib
import json
import pathlib
import threading

import pytest

from repro.cli import build_parser, main
from tests.test_fastpath_equivalence import _record_content

RUN_P1 = ["run", "--kernel", "spmspv", "--matrix", "P1", "--scale", "0.15"]


def _read_trace(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _sparseadapt_slice(records):
    """The header and the SparseAdapt scheme's records of a ``run``
    trace: each scheme's records precede its ``harness.scheme`` span."""
    out, pending = [], []
    for record in records:
        if record["type"] == "header":
            out.append(record)
        elif record["name"] == "harness.scheme":
            if record["attrs"]["scheme"] == "SparseAdapt":
                out.extend(pending)
            pending = []
        else:
            pending.append(record)
    return out


def _content_sha256(records):
    content = [list(_record_content(record)) for record in records]
    return hashlib.sha256(
        json.dumps(content, sort_keys=True).encode()
    ).hexdigest()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.kernel == "spmspm"
        assert args.matrix == "R03"
        assert args.mode == "ee"

    def test_experiment_names_validated(self):
        """There is no ``experiment`` verb: the paper's verdicts are
        specs under ``experiments/specs/paper/`` and benchmarks."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "sec7"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "3600 points" in out
        assert "Baseline" in out
        assert "Max Cfg" in out

    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "R16" in out
        assert "wiki-Vote_11" in out

    def test_train_and_run_with_saved_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert (
            main(
                [
                    "train",
                    "--mode",
                    "ee",
                    "--kernel",
                    "spmspv",
                    "--out",
                    str(model_path),
                ]
            )
            == 0
        )
        assert model_path.exists()
        capsys.readouterr()
        assert (
            main(
                [
                    "run",
                    "--kernel",
                    "spmspv",
                    "--matrix",
                    "P1",
                    "--scale",
                    "0.15",
                    "--model",
                    str(model_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "SparseAdapt" in out
        assert "Baseline" in out

    def test_run_standard(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--kernel",
                    "spmspm",
                    "--matrix",
                    "R03",
                    "--scale",
                    "0.2",
                    "--mode",
                    "pp",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Max Cfg" in out
        assert "GFLOPS/W" in out

    def test_run_json(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--kernel",
                    "spmspv",
                    "--matrix",
                    "P1",
                    "--scale",
                    "0.15",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "spmspv"
        assert "SparseAdapt" in payload["schemes"]
        assert "Baseline" in payload["gains_over_baseline"]
        sparseadapt = payload["schemes"]["SparseAdapt"]
        assert sparseadapt["gflops"] > 0
        assert "energy_breakdown_j" in sparseadapt

class TestTraceCommands:
    def test_trace_requires_out_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--trace-out"])

    def test_trace_then_report(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "run",
                    "--kernel",
                    "spmspv",
                    "--matrix",
                    "P1",
                    "--scale",
                    "0.15",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert trace_path.exists()
        assert "records" in out
        # every line of the trace is standalone JSON
        lines = trace_path.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)

        assert main(["trace-report", str(trace_path)]) == 0
        report_out = capsys.readouterr().out
        assert "epoch timeline" in report_out
        assert "reconfigurations by parameter" in report_out
        assert "host decision latency" in report_out
        assert "determinism: faults=null" in report_out

    def test_json_stdout_stays_parseable_with_trace_out(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "run.jsonl"
        assert main(RUN_P1 + ["--json", "--trace-out", str(trace_path)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "gains_over_baseline" in payload
        n_records = len(trace_path.read_text().splitlines())
        assert f"trace: {n_records} records -> {trace_path}" in captured.err
        assert "records ->" not in captured.out

    def test_trace_report_top_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        main(
            [
                "run",
                "--kernel",
                "spmspv",
                "--matrix",
                "P1",
                "--scale",
                "0.15",
                "--trace-out",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        assert main(["trace-report", str(trace_path), "--top", "2"]) == 0
        assert "top-2 most expensive epochs" in capsys.readouterr().out

    def test_tracing_disabled_after_trace_command(self, tmp_path):
        from repro.obs import get_recorder

        main(
            [
                "run",
                "--kernel",
                "spmspv",
                "--matrix",
                "P1",
                "--scale",
                "0.15",
                "--trace-out",
                str(tmp_path / "t.jsonl"),
            ]
        )
        assert get_recorder().enabled is False

    @pytest.mark.parametrize(
        "extra, digest",
        [
            (
                [],
                "236b2daa7cbbaf174257213eba760710"
                "d3b3298a34fb7093e04c1baa5c0bb98d",
            ),
            (
                ["--noise", "0.15", "--noise-seed", "7"],
                "0c9ff0ffeda62ceb3a459060290d9790"
                "4cd4782d4c4c0282095107401e75b12f",
            ),
        ],
        ids=["clean", "noise"],
    )
    def test_sparseadapt_records_are_pinned(
        self, tmp_path, capsys, extra, digest
    ):
        """The SparseAdapt slice of a ``run --trace-out`` recording
        hashes to the content the SparseAdapt-only ``trace`` verb
        recorded for the same run before ``--trace-out`` moved here."""
        path = tmp_path / "run.jsonl"
        assert main(RUN_P1 + extra + ["--trace-out", str(path)]) == 0
        records = _read_trace(path)
        schemes = [
            record["attrs"]["scheme"]
            for record in records
            if record["name"] == "harness.scheme"
        ]
        assert schemes == ["Baseline", "Best Avg", "Max Cfg", "SparseAdapt"]
        assert _content_sha256(_sparseadapt_slice(records)) == digest

    @pytest.mark.parametrize(
        "extra, verdicts",
        [
            (
                [],
                {
                    ("clock_mhz", "accepted", "within_budget"): 1,
                    ("l1_sharing", "accepted", "within_budget"): 1,
                    ("l2_sharing", "rejected", "over_budget"): 1,
                    ("prefetch", "rejected", "over_budget"): 4,
                },
            ),
            (
                ["--noise", "0.15", "--noise-seed", "7"],
                {
                    ("clock_mhz", "accepted", "within_budget"): 2,
                    ("clock_mhz", "rejected", "over_budget"): 12,
                    ("l1_sharing", "accepted", "within_budget"): 2,
                    ("l1_sharing", "rejected", "over_budget"): 6,
                    ("prefetch", "accepted", "within_budget"): 4,
                },
            ),
        ],
        ids=["clean", "noise"],
    )
    def test_trace_report_verdict_table_is_pinned(
        self, tmp_path, capsys, extra, verdicts
    ):
        """trace-report's policy-verdict table counts what the
        controller's ``controller.policy_verdicts`` counter counted for
        the same runs (its series, recorded before the counter went)."""
        from repro.obs import report

        path = tmp_path / "run.jsonl"
        assert main(RUN_P1 + extra + ["--trace-out", str(path)]) == 0
        summary = report.summarize(_read_trace(path))
        table = {
            (row["parameter"], row["verdict"], row["code"]): row["count"]
            for row in summary["policy_verdicts"]
        }
        assert table == verdicts
        capsys.readouterr()
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "--- policy verdicts ---" in out
        for (parameter, verdict, code), count in verdicts.items():
            assert (
                f"  {parameter:<12} {verdict:<9} {code:<16} {count:>5}"
                in out
            )

    def test_cold_model_cache_records_the_same_content(self, tmp_path):
        """The stock model is resolved before the recorder is installed,
        so training on a cold cache adds no records."""
        from repro.core.training import clear_model_cache

        cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        clear_model_cache()
        assert main(RUN_P1 + ["--trace-out", str(cold)]) == 0
        assert main(RUN_P1 + ["--trace-out", str(warm)]) == 0
        assert list(map(_record_content, _read_trace(cold))) == list(
            map(_record_content, _read_trace(warm))
        )


class TestExplainAndDiffCommands:
    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("traces")
        clean = base / "clean.jsonl"
        noisy = base / "noisy.jsonl"
        common = [
            "run", "--kernel", "spmspv", "--matrix", "P1",
            "--scale", "0.15",
        ]
        assert main(common + ["--trace-out", str(clean)]) == 0
        assert (
            main(
                common
                + [
                    "--noise", "0.15", "--noise-seed", "7",
                    "--trace-out", str(noisy),
                ]
            )
            == 0
        )
        return clean, noisy

    def test_explain_default(self, traces, capsys):
        clean, _ = traces
        capsys.readouterr()
        assert main(["explain", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "decision provenance" in out
        assert "threshold" in out
        assert "leaf predicts" in out

    def test_explain_epoch_and_param_filters(self, traces, capsys):
        clean, _ = traces
        capsys.readouterr()
        assert (
            main(
                ["explain", str(clean), "--epoch", "1", "--param", "l1_kb"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "epoch 1 · l1_kb" in out
        assert "l2_kb" not in out

    def test_explain_counters_flag(self, traces, capsys):
        clean, _ = traces
        capsys.readouterr()
        assert main(["explain", str(clean), "--epoch", "1", "--counters"]) == 0
        assert "observed counters" in capsys.readouterr().out

    def test_diff_reports_divergence(self, traces, capsys):
        clean, noisy = traces
        capsys.readouterr()
        # Divergence exits 3 (like suite-report --diff) with a one-line
        # stderr summary, so scripts can assert without parsing.
        assert main(["diff", str(clean), str(noisy)]) == 3
        captured = capsys.readouterr()
        assert "trace diff" in captured.out
        assert "first divergence: epoch" in captured.out
        assert "whole-run metrics" in captured.out
        assert captured.err.startswith("divergence: first at epoch")
        assert len(captured.err.strip().splitlines()) == 1

    def test_diff_identical_traces(self, traces, capsys):
        clean, _ = traces
        capsys.readouterr()
        assert main(["diff", str(clean), str(clean)]) == 0
        captured = capsys.readouterr()
        assert "identical" in captured.out
        assert captured.err == ""

    def test_diff_json(self, traces, capsys):
        clean, noisy = traces
        capsys.readouterr()
        # --json keeps stdout machine-parseable and still exits 3.
        assert main(["diff", str(clean), str(noisy), "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["first_divergence_epoch"] is not None
        assert "parameter_counts" in payload["divergence"]
        assert "regression_pct" in payload["metrics"]

    def test_explain_against_divergent(self, traces, capsys):
        clean, noisy = traces
        capsys.readouterr()
        assert main(["explain", str(clean), "--against", str(noisy)]) == 3
        captured = capsys.readouterr()
        assert "first divergence: epoch" in captured.out
        assert "decisions at epoch" in captured.out
        assert "decision provenance" in captured.out
        assert captured.err.startswith("divergence: traces split")

    def test_explain_against_identical(self, traces, capsys):
        clean, _ = traces
        capsys.readouterr()
        assert main(["explain", str(clean), "--against", str(clean)]) == 0
        captured = capsys.readouterr()
        assert "identical" in captured.out
        assert captured.err == ""

    def test_explain_against_bad_trace(self, traces, tmp_path, capsys):
        clean, _ = traces
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert main(["explain", str(clean), "--against", str(bad)]) == 1

    def test_missing_trace_is_one_line_error(self, capsys):
        assert main(["explain", "/nonexistent/trace.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_malformed_trace_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not json\n')
        for verbs in (["explain", str(bad)], ["trace-report", str(bad)]):
            assert main(verbs) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert "Traceback" not in err

    def test_diff_propagates_either_side_error(self, traces, tmp_path, capsys):
        clean, _ = traces
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        assert main(["diff", str(bad), str(clean)]) == 1
        assert main(["diff", str(clean), str(bad)]) == 1

    def test_future_schema_rejected(self, tmp_path, capsys):
        future = tmp_path / "future.jsonl"
        future.write_text(
            '{"seq": 0, "ts": 0, "type": "header", "name": "trace", '
            '"attrs": {"schema_version": 99}}\n'
        )
        for verbs in (
            ["explain", str(future)],
            ["diff", str(future), str(future)],
            ["trace-report", str(future)],
        ):
            assert main(verbs) == 1
            err = capsys.readouterr().err
            assert "schema version 99" in err
            assert "Traceback" not in err

    def test_empty_trace_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["explain", str(empty)]) == 1
        assert "no records" in capsys.readouterr().err

    def test_unknown_epoch_is_one_line_error(self, traces, capsys):
        clean, _ = traces
        capsys.readouterr()
        assert main(["explain", str(clean), "--epoch", "9999"]) == 1
        err = capsys.readouterr().err
        assert "no provenance records match epoch 9999" in err

    def test_trace_report_quantile_line(self, traces, capsys):
        clean, _ = traces
        capsys.readouterr()
        assert main(["trace-report", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "p50/p90/p99" in out
        assert "min/max" in out


FAULT_RATES = str(
    pathlib.Path(__file__).resolve().parent.parent
    / "experiments"
    / "specs"
    / "fault_rates.json"
)


def _assert_one_line_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


class TestFaultsCommand:
    """Fault campaigns from the CLI: the shipped fault-rate spec runs
    through ``suite-run --spec`` and ``compare``, and schedule files
    ride inline in a spec's candidates."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        ledger = tmp_path_factory.mktemp("faults") / "faults.jsonl"
        argv = ["suite-run", "--spec", FAULT_RATES, "--ledger", str(ledger)]
        assert main(argv) == 0
        return ledger

    def _spec(self, tmp_path, faults):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "faults",
                    "defaults": {"kernel": "spmspv", "scale": 0.15},
                    "candidates": [
                        {"name": "clean"},
                        {"name": "hardened", "faults": faults},
                    ],
                    "workloads": [{"matrix": "P1"}],
                }
            )
        )
        return str(spec)

    def test_mixed_campaign_table(self, campaign, capsys):
        assert main(["compare", FAULT_RATES, str(campaign)]) == 0
        out = capsys.readouterr().out
        assert "hardened-1" in out
        assert "unhardened-1" in out
        assert "fault_detection_rate" in out
        assert "[PASS] hardened-1" in out

    def test_campaign_json_and_artifact(self, campaign, tmp_path, capsys):
        artifact = tmp_path / "compare.json"
        argv = ["compare", FAULT_RATES, str(campaign), "--json"]
        assert main(argv + ["--out", str(artifact)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(artifact.read_text())
        retention, hardening = payload["gates"]
        assert retention["candidate"] == hardening["candidate"] == "hardened-1"
        assert retention["of"] == "clean"
        assert hardening["of"] == "unhardened-1"
        assert retention["passed"] is True
        assert hardening["passed"] is True

    def test_campaign_artifact_is_deterministic(
        self, campaign, tmp_path, capsys
    ):
        rerun = tmp_path / "rerun.jsonl"
        argv = ["suite-run", "--spec", FAULT_RATES, "--ledger", str(rerun)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["suite-report", str(campaign), "--diff", str(rerun)]) == 0

    def test_spec_file_campaign(self, tmp_path, capsys):
        from repro.faults import mixed_schedule

        schedule = tmp_path / "schedule.json"
        mixed_schedule(0.2, seed=3).save(schedule)
        spec = self._spec(tmp_path, json.loads(schedule.read_text()))
        ledger = tmp_path / "spec.jsonl"
        argv = ["suite-run", "--spec", spec, "--ledger", str(ledger)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["compare", spec, str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "hardened" in out
        assert "all 2 job(s) ok" in out

    def test_negative_mixed_rate(self, tmp_path, capsys):
        faults = {"faults": [{"kind": "counter_noise", "rate": -0.1}]}
        err = _assert_one_line_error(
            capsys, ["suite-run", "--spec", self._spec(tmp_path, faults)]
        )
        assert "rate" in err

    def test_missing_spec_file(self, capsys):
        _assert_one_line_error(
            capsys, ["suite-run", "--spec", "/nonexistent/spec.json"]
        )

    def test_malformed_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        err = _assert_one_line_error(
            capsys, ["suite-run", "--spec", str(bad)]
        )
        assert "malformed" in err

    def test_unknown_fault_kind_in_spec(self, tmp_path, capsys):
        faults = {"faults": [{"kind": "gamma_burst"}]}
        err = _assert_one_line_error(
            capsys, ["suite-run", "--spec", self._spec(tmp_path, faults)]
        )
        assert "gamma_burst" in err


class TestRunFaultArguments:
    def test_negative_noise_is_one_line_error(self, capsys):
        assert main(["run", "--noise", "-0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_noise_and_faults_conflict(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text('{"faults": []}')
        assert (
            main(["run", "--noise", "0.1", "--faults", str(spec)]) == 1
        )
        assert "not both" in capsys.readouterr().err

    def test_run_with_fault_schedule(self, tmp_path, capsys):
        from repro.faults import mixed_schedule

        spec = tmp_path / "schedule.json"
        mixed_schedule(0.3, seed=5).save(spec)
        assert (
            main(
                [
                    "run", "--kernel", "spmspv", "--matrix", "P1",
                    "--scale", "0.15", "--faults", str(spec), "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults"]["seed"] == 5
        assert payload["faults"]["hardened"] is True
        assert "SparseAdapt" in payload["schemes"]

    def test_run_bad_spec_is_one_line_error(self, capsys):
        assert main(["run", "--faults", "/nonexistent.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("{oops", "malformed"),
            ('{"faults": [{"kind": "gamma_burst"}]}', "gamma_burst"),
        ],
        ids=["malformed-json", "unknown-kind"],
    )
    def test_run_bad_schedule_file_is_one_line_error(
        self, tmp_path, capsys, text, expected
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        err = _assert_one_line_error(capsys, ["run", "--faults", str(bad)])
        assert expected in err

    def test_trace_noise_records_replayable_schedule(self, tmp_path, capsys):
        from repro.faults import noise_schedule

        trace_path = tmp_path / "noisy.jsonl"
        argv = [
            "run", "--kernel", "spmspv", "--matrix", "P1",
            "--scale", "0.15", "--noise", "0.2", "--noise-seed", "7",
            "--trace-out", str(trace_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        records = list(map(json.loads, trace_path.read_text().splitlines()))
        start = next(r for r in records if r["name"] == "controller.start")
        expected = noise_schedule(0.2, seed=7).as_dict()
        assert start["attrs"]["faults"] == expected
        assert "hardening" not in start["attrs"]
        assert any(r["name"] == "fault.injected" for r in records)
        assert main(["trace-report", str(trace_path)]) == 0
        report = capsys.readouterr().out
        assert f"determinism: faults={json.dumps(expected)}" in report

    def test_trace_with_faults_records_fault_events(self, tmp_path, capsys):
        from repro.faults import mixed_schedule

        spec = tmp_path / "schedule.json"
        mixed_schedule(0.4, seed=1).save(spec)
        trace_path = tmp_path / "faulty.jsonl"
        assert (
            main(
                [
                    "run", "--kernel", "spmspv", "--matrix", "P1",
                    "--scale", "0.15", "--faults", str(spec),
                    "--trace-out", str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        names = {
            record["name"]
            for record in map(
                json.loads, trace_path.read_text().splitlines()
            )
            if record.get("type") == "event"
        }
        assert "fault.injected" in names
        assert "controller.start" in names


class TestRunJobSpec:
    """``repro run`` evaluates the :class:`JobSpec` its flags describe
    through the same decoder as a ``suite-run`` job."""

    @pytest.mark.parametrize(
        "kernel, matrix", [("spmspv", "P1"), ("spmspm", "R04")]
    )
    def test_gains_equal_suite_run_row(
        self, tmp_path, capsys, kernel, matrix
    ):
        from repro.experiments.harness import STANDARD_SCHEMES

        argv = ["run", "--kernel", kernel, "--matrix", matrix]
        assert main(argv + ["--scale", "0.12", "--json"]) == 0
        gains = json.loads(capsys.readouterr().out)["gains_over_baseline"]

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "name": "one",
            "jobs": [{
                "kernel": kernel, "matrix": matrix, "scale": 0.12,
                "schemes": list(STANDARD_SCHEMES),
            }],
        }))
        ledger = tmp_path / "run.jsonl"
        assert main(["suite-run", str(plan), "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        records = map(json.loads, ledger.read_text().splitlines())
        (row,) = [r["row"] for r in records if r.get("type") == "done"]
        schemes = row["result"]["schemes"]
        assert list(schemes) == list(gains)
        for name, values in gains.items():
            assert {key: schemes[name][key] for key in values} == values

    def test_non_finite_bandwidth_is_one_line_error(self, capsys):
        err = _assert_one_line_error(capsys, RUN_P1 + ["--bandwidth", "nan"])
        assert "bandwidth must be finite and positive" in err


class TestProfilingAndDeadlineCli:
    RUN = RUN_P1

    def test_new_flags_and_verbs_parse(self):
        parser = build_parser()
        args = parser.parse_args(self.RUN + ["--profile", "--deadline", "30"])
        assert args.profile is True
        assert args.deadline == 30.0
        args = parser.parse_args(["top", "ledger.jsonl", "--once"])
        assert args.once is True
        assert args.straggler_threshold == 30.0
        args = parser.parse_args(["profile-report", "p.json", "--collapsed"])
        assert args.collapsed is True

    def test_run_output_identical_under_generous_deadline(self, capsys):
        assert main(self.RUN) == 0
        plain = capsys.readouterr().out
        assert main(self.RUN + ["--deadline", "600"]) == 0
        assert capsys.readouterr().out == plain

    def test_run_tiny_deadline_is_one_line_error(self, monkeypatch, capsys):
        # The job blocks until main has returned, so the 1 us watchdog
        # fires however fast a warm evaluation would have been.
        from repro.experiments import harness

        release = threading.Event()
        monkeypatch.setattr(
            harness, "job_context", lambda spec: release.wait()
        )
        try:
            assert main(self.RUN + ["--deadline", "1e-6"]) == 1
        finally:
            release.set()
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "deadline" in captured.err

    @pytest.mark.parametrize("deadline", ["-1", "0"])
    def test_single_job_verbs_reject_non_positive_deadline(
        self, monkeypatch, capsys, deadline
    ):
        """``run`` checks the deadline the way ``suite-run`` does,
        before its job starts."""
        from repro.experiments import harness

        calls = []
        for name in ("build_trace", "job_context"):
            monkeypatch.setattr(
                harness, name, lambda *a, _n=name, **k: calls.append(_n)
            )
        assert main(self.RUN + ["--deadline", deadline]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: deadline must be positive, got {float(deadline)!r}\n"
        )
        assert captured.out == ""
        assert calls == []

    def test_run_profile_report_and_saved_profile(self, tmp_path, capsys):
        profile_path = tmp_path / "run.profile.json"
        assert (
            main(
                self.RUN
                + ["--profile", "--profile-out", str(profile_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "of wall-clock" in out
        assert "kernel_sim" in out
        data = json.loads(profile_path.read_text())
        assert data["schema"] == 1
        assert data["wall_s"] > 0

        assert main(["profile-report", str(profile_path)]) == 0
        assert "span tree" in capsys.readouterr().out
        assert main(["profile-report", str(profile_path), "--collapsed"]) == 0
        collapsed = capsys.readouterr().out
        assert any(
            ";" in line for line in collapsed.splitlines()
        )  # nested frames present

    def test_profile_report_missing_file(self, capsys):
        assert main(["profile-report", "/nonexistent.profile.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_run_json_profile_keeps_stdout_parseable(self, capsys):
        assert main(self.RUN + ["--profile", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # profile report went to stderr
        assert payload["kernel"] == "spmspv"
        assert "of wall-clock" in captured.err

    def test_suite_run_metrics_out(self, tmp_path, capsys):
        plan = {
            "name": "cli-metrics",
            "defaults": {"scale": 0.15, "schemes": ["Baseline", "Best Avg"]},
            "jobs": [{"kernel": "spmspv", "matrix": "P1"}],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        metrics_path = tmp_path / "campaign.om"
        ledger_path = tmp_path / "ledger.jsonl"
        assert (
            main(
                [
                    "suite-run", str(plan_path),
                    "--ledger", str(ledger_path),
                    "--metrics-out", str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"metrics written to {metrics_path}" in out
        text = metrics_path.read_text()
        assert text.endswith("# EOF\n")
        assert "campaign_jobs_total 1" in text
