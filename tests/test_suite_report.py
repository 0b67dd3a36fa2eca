"""Tests for ``repro.runner.report`` and the ``repro suite-report``
CLI: post-hoc ledger summaries (job counts, retries, quarantine
taxonomy, per-worker timing, in-flight jobs, torn lines) and stable
diffs between two campaigns' ledgers."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.runner import (
    PortableJob,
    RunLedger,
    SuiteRunner,
    SupervisorConfig,
)
from repro.runner.report import (
    diff_ledgers,
    format_ledger_diff,
    format_ledger_summary,
    summarize_ledger,
)

FAST = SupervisorConfig(max_retries=2, backoff_base_s=0.0)


def _job(kind, index, payload=None):
    return PortableJob(
        kind=kind,
        key=f"{kind[0]}{index:02d}",
        label=f"{kind}/{index}",
        index=index,
        payload=payload or {},
    )


def _mixed_campaign(path, workers=1):
    """Three-job campaign: one clean, one retried-then-ok, one
    quarantined (poisoned)."""
    jobs = [
        _job("sleep", 0),
        _job(
            "fail",
            1,
            {
                "error": "flaky",
                "retryable": True,
                "fail_attempts": 1,
                "value": 1,
            },
        ),
        _job("fail", 2, {"error": "bad input", "retryable": False}),
    ]
    ledger = RunLedger(path, plan_key="mixed", plan_name="mixed")
    runner = SuiteRunner(config=FAST, ledger=ledger, workers=workers)
    return runner.run_portable(jobs, name="mixed", plan_key="mixed")


# ---------------------------------------------------------------------------
class TestSummarizeLedger:
    def test_mixed_campaign_summary(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        _mixed_campaign(path)
        summary = summarize_ledger(path)
        assert summary["plan_name"] == "mixed"
        assert summary["jobs"] == {
            "total": 3,
            "ok": 2,
            "failed": 1,
            "in_flight": 0,
        }
        assert summary["retries"] == 1
        assert summary["retried_jobs"] == 1
        assert summary["quarantined"] == {"poisoned": 1}
        assert summary["attempts"] == 1 + 2 + 1
        assert summary["torn_lines"] == 0
        assert summary["workers"] is None

    def test_parallel_campaign_records_worker_attribution(self, tmp_path):
        path = tmp_path / "par.jsonl"
        _mixed_campaign(path, workers=2)
        summary = summarize_ledger(path)
        assert summary["workers"] == 2
        assert len(summary["by_worker"]) == 2
        assert sum(entry["jobs"] for entry in summary["by_worker"]) == 3
        text = format_ledger_summary(summary)
        assert "workers   : 2" in text
        assert "w0:" in text and "w1:" in text
        assert "quarantine: poisoned=1" in text

    def test_in_flight_and_torn_lines_reported(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        ledger = RunLedger(path, plan_key="p")
        ledger.job_started("a", 0, 1)
        ledger.job_done(
            "a",
            {"index": 0, "key": "a", "label": "a", "status": "ok",
             "attempts": 1},
        )
        ledger.job_started("b", 1, 1)
        ledger.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "key": "b", "row"')
        summary = summarize_ledger(path)
        assert summary["jobs"]["in_flight"] == 1
        assert summary["in_flight_keys"] == ["b"]
        assert summary["torn_lines"] == 1
        text = format_ledger_summary(summary)
        assert "resume would re-run: b" in text
        assert "torn lines: 1" in text

    def test_missing_and_non_ledger_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no such ledger"):
            summarize_ledger(tmp_path / "nope.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "start", "key": "a"}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="missing header"):
            summarize_ledger(bad)


# ---------------------------------------------------------------------------
class TestDiffLedgers:
    def test_identical_campaigns_diff_clean(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _mixed_campaign(a, workers=1)
        _mixed_campaign(b, workers=2)
        diff = diff_ledgers(a, b)
        assert diff["identical"]
        assert diff["same"] == 3
        assert diff["only_a"] == diff["only_b"] == diff["changed"] == []

    def test_divergence_is_per_job(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _mixed_campaign(a)
        ledger = RunLedger(b, plan_key="mixed", plan_name="mixed")
        # Same first job, a changed second job, a missing third.
        ledger.job_started("s00", 0, 1)
        records_a = [
            json.loads(line)
            for line in a.read_text(encoding="utf-8").splitlines()
        ]
        row_a = next(
            r["row"] for r in records_a if r.get("key") == "s00"
            and r["type"] == "done"
        )
        ledger.job_done("s00", row_a)
        ledger.job_started("f01", 1, 1)
        ledger.job_quarantined(
            "f01",
            {
                "index": 1,
                "key": "f01",
                "label": "fail/1",
                "status": "failed",
                "attempts": 3,
                "failure": {"kind": "retryable", "error": "flaky"},
            },
        )
        ledger.close()
        diff = diff_ledgers(a, b)
        assert not diff["identical"]
        assert diff["same"] == 1
        assert [entry["key"] for entry in diff["only_a"]] == ["f02"]
        assert diff["only_b"] == []
        (changed,) = diff["changed"]
        assert changed["key"] == "f01"
        assert changed["a"]["status"] == "ok"
        assert changed["b"]["status"] == "failed"
        text = format_ledger_diff(diff)
        assert "identical : False" in text
        assert "only in a : fail/2" in text
        assert "changed   : fail/1" in text

    def test_duration_differences_ignored(self, tmp_path):
        """Wall-clock fields never make two campaigns diverge."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, duration in ((a, 0.25), (b, 99.0)):
            ledger = RunLedger(path, plan_key="p")
            ledger.job_started("x", 0, 1)
            ledger.job_done(
                "x",
                {
                    "index": 0,
                    "key": "x",
                    "label": "x",
                    "status": "ok",
                    "attempts": 1,
                    "duration_s": duration,
                },
            )
            ledger.close()
        assert diff_ledgers(a, b)["identical"]


# ---------------------------------------------------------------------------
class TestSuiteReportCLI:
    def test_summary_text_and_json(self, tmp_path, capsys):
        path = tmp_path / "camp.jsonl"
        _mixed_campaign(path, workers=2)
        assert main(["suite-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "plan 'mixed'" in out
        assert "3 terminal (2 ok, 1 failed)" in out

        assert main(["suite-report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"]["total"] == 3
        assert payload["workers"] == 2

    def test_diff_exit_codes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _mixed_campaign(a)
        _mixed_campaign(b, workers=2)
        assert main(["suite-report", str(a), "--diff", str(b)]) == 0
        assert "identical : True" in capsys.readouterr().out

        lone = tmp_path / "lone.jsonl"
        ledger = RunLedger(lone, plan_key="mixed", plan_name="mixed")
        ledger.close()
        rc = main(["suite-report", str(a), "--diff", str(lone)])
        assert rc == 3  # divergence is a distinct exit code
        assert "identical : False" in capsys.readouterr().out

    def test_missing_ledger_is_an_error(self, tmp_path, capsys):
        rc = main(["suite-report", str(tmp_path / "nope.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
