"""Tests for live campaign telemetry (repro.obs.live + heartbeats).

Heartbeat records are volatile by contract: every results reader
(resume, shard merge, byte-parity) must ignore them, while ``repro
top`` builds its whole live view out of them. Covers the ledger
round-trip, torn-heartbeat tolerance, the EWMA rate math, crafted-shard
aggregation with straggler/dead flags, the rendered view, the
OpenMetrics export, and a real slow-worker campaign observed mid-run.
"""

import json
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.obs import live
from repro.obs.metrics import MetricsRegistry
from repro.runner import (
    PortableJob,
    RunLedger,
    SuiteRunner,
    SupervisorConfig,
    shard_path,
)
from repro.runner.ledger import (
    LEDGER_VERSION,
    VOLATILE_TYPES,
    read_ledger_records,
)

FAST = SupervisorConfig(max_retries=0, backoff_base_s=0.0)


def _sleep_job(index, seconds=0.0):
    return PortableJob(
        kind="sleep",
        key=f"s{index:02d}",
        label=f"sleep/{index}",
        index=index,
        payload={"seconds": seconds, "value": index},
    )


def _write_ledger(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _row(key, status="ok", **fields):
    """A terminal row with the fields the executor writes."""
    return {
        "key": key, "label": key, "status": status, "attempts": 1, **fields
    }


def _header(plan_key="live", worker=None, plan_name="live-plan"):
    record = {
        "type": "header",
        "version": LEDGER_VERSION,
        "plan_name": plan_name,
        "plan_key": plan_key,
    }
    if worker is not None:
        record["worker"] = worker
    return record


def _beat(
    ts, done, failed=0, total=4, worker=None, job=None, plan=None,
    campaign=None,
):
    record = {
        "type": "heartbeat",
        "ts": ts,
        "done": done,
        "failed": failed,
        "total": total,
    }
    if worker is not None:
        record["worker"] = worker
    if job is not None:
        record["job"] = job
    if plan is not None:
        record["plan"] = plan
    if campaign is not None:
        record["campaign"] = campaign
    return record


class TestHeartbeatLedgerContract:
    def test_serial_runner_emits_heartbeats(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        ledger = RunLedger(path, plan_key="hb", plan_name="hb-plan")
        runner = SuiteRunner(config=FAST, ledger=ledger)
        runner.run([_build(j) for j in [_sleep_job(0), _sleep_job(1)]])
        records, skipped = read_ledger_records(path)
        assert skipped == 0
        beats = [r for r in records if r["type"] == "heartbeat"]
        # One per job start plus the final completion beat.
        assert len(beats) == 3
        assert beats[0]["done"] == 0 and beats[0]["job"] == "sleep/0"
        assert beats[-1]["done"] == 2
        assert beats[-1]["failed"] == 0
        assert beats[-1]["total"] == 2
        for beat in beats:
            assert isinstance(beat["ts"], float)
            # Every beat is self-identifying so multi-campaign hosts
            # can label scraped telemetry without the header.
            assert beat["plan"] == "hb-plan"
            assert beat["campaign"] == "hb"

    def test_resume_ignores_heartbeats(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        ledger = RunLedger(path, plan_key="rs")
        ledger.heartbeat(done=0, failed=0, total=2, job="sleep/0")
        ledger.job_done("s00", _row("s00"))
        ledger.heartbeat(done=1, failed=0, total=2)
        ledger.close()
        resumed = RunLedger(path, plan_key="rs", resume=True)
        assert set(resumed.completed) == {"s00"}
        assert resumed.in_flight == []
        assert resumed.n_skipped == 0
        resumed.close()

    def test_worker_shard_heartbeats_not_counted_torn(self, tmp_path):
        shard = tmp_path / "s.jsonl.w0"
        _write_ledger(
            shard,
            [
                _header(worker=0),
                _beat(1.0, 0, worker=0, job="sleep/0"),
                {
                    "type": "done",
                    "key": "s00",
                    "row": _row("s00"),
                },
                _beat(2.0, 1, worker=0),
            ],
        )
        records, skipped = read_ledger_records(shard)
        # Heartbeats are volatile records, not damage.
        assert skipped == 0
        assert [r["type"] for r in records].count("heartbeat") == 2

    def test_merge_drops_heartbeats(self, tmp_path):
        base = tmp_path / "merge.jsonl"
        ledger = RunLedger(base, plan_key="mg")
        # Store workers heartbeat into their own shards; only their
        # published job records reach the canonical ledger.
        SuiteRunner(config=FAST, ledger=ledger, workers=2).run_portable(
            [_sleep_job(0), _sleep_job(1)], plan_key="mg"
        )
        records, _ = read_ledger_records(base)
        kinds = [r["type"] for r in records]
        assert "heartbeat" not in kinds
        assert "done" in kinds

    def test_torn_heartbeat_costs_nothing(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        _write_ledger(
            path,
            [
                _header(plan_key="tn"),
                {
                    "type": "done",
                    "key": "s00",
                    "row": _row("s00"),
                },
            ],
        )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "heartbeat", "ts": 12.5, "do')  # torn
        ledger = RunLedger(path, plan_key="tn", resume=True)
        assert set(ledger.completed) == {"s00"}
        ledger.close()
        status = live.read_live(path, now=100.0)
        assert status.done == 1

    def test_volatile_types_contract(self):
        assert "heartbeat" in VOLATILE_TYPES
        assert "merge" in VOLATILE_TYPES


def _build(portable):
    from repro.runner import build_job

    return build_job(portable)


class TestEwmaRate:
    def test_empty_and_single_sample(self):
        assert live.ewma_rate([]) == 0.0
        assert live.ewma_rate([(1.0, 1)]) == 0.0

    def test_constant_rate(self):
        samples = [(float(t), t) for t in range(6)]  # 1 job/s
        assert live.ewma_rate(samples) == pytest.approx(1.0)

    def test_stall_decays_toward_zero(self):
        burst = [(0.0, 0), (1.0, 2), (2.0, 4)]  # 2 job/s
        stalled = burst + [(3.0, 4), (4.0, 4), (5.0, 4)]
        assert live.ewma_rate(stalled) < live.ewma_rate(burst) / 2

    def test_non_monotonic_time_ignored(self):
        samples = [(2.0, 2), (1.0, 5), (3.0, 3)]
        assert live.ewma_rate(samples) >= 0.0


class TestReadLive:
    def test_missing_ledger_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no ledger"):
            live.read_live(tmp_path / "absent.jsonl")

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        _write_ledger(path, [_beat(1.0, 0)])
        with pytest.raises(ConfigError, match="missing header"):
            live.read_live(path)

    def _campaign(self, tmp_path, w1_last_beat_age=1.0, now=1000.0):
        base = tmp_path / "led.jsonl"
        _write_ledger(base, [_header()])
        _write_ledger(
            shard_path(base, 0),
            [
                _header(worker=0),
                _beat(now - 30.0, 0, total=4, worker=0, job="a"),
                _beat(now - 20.0, 1, total=4, worker=0, job="b"),
                _beat(now - 10.0, 2, total=4, worker=0, job="c"),
                _beat(now - 1.0, 3, total=4, worker=0, job="d"),
            ],
        )
        _write_ledger(
            shard_path(base, 1),
            [
                _header(worker=1),
                _beat(now - 120.0, 0, total=4, worker=1, job="x"),
                _beat(
                    now - w1_last_beat_age, 1, total=4, worker=1, job="y"
                ),
            ],
        )
        return base, now

    def test_aggregation_and_straggler_flags(self, tmp_path):
        base, now = self._campaign(tmp_path, w1_last_beat_age=45.0)
        status = live.read_live(base, now=now, straggler_after_s=30.0)
        assert status.total == 8
        assert status.done == 4  # 3 + 1
        assert status.remaining == 4
        by_label = {w.label: w for w in status.workers}
        assert not by_label["w0"].straggler
        assert by_label["w1"].straggler and not by_label["w1"].dead
        assert status.stragglers == [by_label["w1"]]
        # Only w0 still earns throughput credit; ETA follows from it.
        assert status.throughput_jobs_s == pytest.approx(
            by_label["w0"].rate_jobs_s + by_label["w1"].rate_jobs_s
        )
        assert status.eta_s == pytest.approx(
            status.remaining / status.throughput_jobs_s
        )

    def test_dead_worker_excluded_from_throughput(self, tmp_path):
        base, now = self._campaign(tmp_path, w1_last_beat_age=130.0)
        status = live.read_live(base, now=now, straggler_after_s=30.0)
        by_label = {w.label: w for w in status.workers}
        assert by_label["w1"].dead
        assert status.throughput_jobs_s == pytest.approx(
            by_label["w0"].rate_jobs_s
        )

    def test_shard_terminal_rows_trusted_over_stale_beats(self, tmp_path):
        base = tmp_path / "led.jsonl"
        _write_ledger(base, [_header()])
        _write_ledger(
            shard_path(base, 0),
            [
                _header(worker=0),
                _beat(10.0, 0, total=2, worker=0),
                {
                    "type": "done",
                    "key": "a",
                    "row": _row("a"),
                },
                {
                    "type": "quarantined",
                    "key": "b",
                    "row": _row(
                        "b",
                        status="quarantined",
                        failure={"kind": "oom", "error": "boom"},
                    ),
                },
            ],
        )
        status = live.read_live(base, now=20.0)
        assert status.done == 1
        assert status.failed == 1
        assert status.quarantined == {"oom": 1}

    def test_foreign_plan_shards_skipped(self, tmp_path):
        base = tmp_path / "led.jsonl"
        _write_ledger(base, [_header(plan_key="mine")])
        _write_ledger(
            shard_path(base, 0),
            [
                _header(plan_key="other", worker=0),
                _beat(1.0, 3, total=3, worker=0),
            ],
        )
        status = live.read_live(base, now=10.0)
        assert status.workers == []
        assert status.done == 0

    def test_workers_campaign_reads_its_local_store(self, tmp_path):
        """A --workers campaign's workers heartbeat inside
        ``<ledger>.store/``: their shards count, and the store header
        sizes the pending grid on top of the resumed rows."""
        base = tmp_path / "camp.jsonl"
        done = {"type": "done", "key": "a", "row": _row("a")}
        _write_ledger(base, [_header(), done])
        store = tmp_path / "camp.jsonl.store"
        store.mkdir()
        _write_ledger(
            store / "ledger.jsonl",
            [{**_header(plan_key="pending"), "jobs": 3, "store": True}],
        )
        for worker, count in ((0, 2), (1, 0)):
            _write_ledger(
                store / f"ledger.jsonl.w{worker}",
                [
                    _header(plan_key="pending", worker=worker),
                    _beat(5.0, count, total=3, worker=worker),
                ],
            )
        status = live.read_live(base, now=6.0)
        assert status.total == 4
        assert status.done == 3
        assert [w.label for w in status.workers] == ["w0", "w1"]
        assert not status.complete

    def test_serial_heartbeats_drive_totals(self, tmp_path):
        path = tmp_path / "serial.jsonl"
        _write_ledger(
            path,
            [
                _header(),
                _beat(1.0, 0, total=3, job="a"),
                {
                    "type": "done",
                    "key": "a",
                    "row": _row("a"),
                },
                _beat(2.0, 1, total=3, job="b"),
            ],
        )
        status = live.read_live(path, now=3.0)
        assert status.total == 3
        assert status.done == 1
        assert [w.label for w in status.workers] == ["serial"]

    def test_complete_campaign_eta_zero(self, tmp_path):
        path = tmp_path / "done.jsonl"
        _write_ledger(
            path,
            [
                _header(),
                _beat(1.0, 2, total=2),
            ],
        )
        status = live.read_live(path, now=5.0)
        assert status.complete
        assert status.eta_s == 0.0

    def test_unknown_rate_gives_nan_eta(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        _write_ledger(path, [_header(), _beat(1.0, 0, total=5)])
        status = live.read_live(path, now=2.0)
        assert status.remaining == 5
        assert status.eta_s != status.eta_s  # NaN

    def test_campaign_identity_from_header(self, tmp_path):
        path = tmp_path / "id.jsonl"
        _write_ledger(path, [_header(), _beat(1.0, 1, total=2)])
        status = live.read_live(path, now=2.0)
        assert status.plan_name == "live-plan"
        assert status.campaign == "live"

    def test_placeholder_header_falls_back_to_heartbeats(self, tmp_path):
        """Hand-rolled or pre-identity headers lack a useful name/key;
        the self-identifying heartbeats fill both in."""
        path = tmp_path / "old.jsonl"
        _write_ledger(
            path,
            [
                {
                    "type": "header",
                    "version": LEDGER_VERSION,
                    "plan_name": "campaign",
                },
                _beat(1.0, 0, total=2),
                _beat(
                    2.0, 1, total=2, plan="fig11", campaign="abcd1234"
                ),
            ],
        )
        status = live.read_live(path, now=3.0)
        assert status.plan_name == "fig11"
        assert status.campaign == "abcd1234"
        assert status.as_dict()["campaign"] == "abcd1234"

    def test_legacy_heartbeats_without_identity_tolerated(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        _write_ledger(
            path,
            [
                {
                    "type": "header",
                    "version": LEDGER_VERSION,
                    "plan_name": "campaign",
                },
                _beat(1.0, 1, total=2),
            ],
        )
        status = live.read_live(path, now=2.0)
        assert status.plan_name == "campaign"
        assert status.campaign is None
        assert status.done == 1


class TestRendering:
    def test_render_top_flags_and_progress(self, tmp_path):
        base = tmp_path / "led.jsonl"
        _write_ledger(base, [_header()])
        now = 1000.0
        _write_ledger(
            shard_path(base, 0),
            [
                _header(worker=0),
                _beat(now - 10, 1, total=2, worker=0, job="slow-one"),
            ],
        )
        _write_ledger(
            shard_path(base, 1),
            [
                _header(worker=1),
                _beat(now - 200, 0, total=2, worker=1),
            ],
        )
        status = live.read_live(base, now=now, straggler_after_s=30.0)
        text = live.render_top(status)
        assert "live-plan" in text
        assert "[live]" in text  # campaign id in the title line
        assert "1/4 jobs" in text
        assert "[slow-one]" in text
        assert "DEAD" in text  # w1: 200s > 4 * 30s
        assert "w0" in text and "w1" in text

    def test_render_complete_campaign(self, tmp_path):
        path = tmp_path / "done.jsonl"
        _write_ledger(
            path,
            [
                _header(),
                {
                    "type": "done",
                    "key": "a",
                    "row": _row("a"),
                },
            ],
        )
        status = live.read_live(path, now=5.0)
        text = live.render_top(status)
        assert "ETA done" in text
        assert "campaign complete" in text

    def test_as_dict_round_trips_to_json(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_ledger(path, [_header(), _beat(1.0, 1, total=2)])
        status = live.read_live(path, now=2.0)
        payload = json.loads(
            json.dumps(status.as_dict()).replace("NaN", "null")
        )
        assert payload["plan_name"] == "live-plan"


#: The OpenMetrics text of ``test_export_bytes_are_pinned``'s status.
_PINNED_OPENMETRICS = (
    "# TYPE campaign_eta_s gauge\n"
    "# HELP campaign_eta_s Estimated seconds to completion (NaN unknown)\n"
    "campaign_eta_s NaN\n"
    "# TYPE campaign_info gauge\n"
    "# HELP campaign_info Campaign identity (constant 1)\n"
    'campaign_info{campaign="c0ffee",plan="pinned-plan"} 1\n'
    "# TYPE campaign_jobs_done gauge\n"
    "# HELP campaign_jobs_done Jobs finished ok\n"
    "campaign_jobs_done 2\n"
    "# TYPE campaign_jobs_failed gauge\n"
    "# HELP campaign_jobs_failed Jobs failed or quarantined\n"
    "campaign_jobs_failed 1\n"
    "# TYPE campaign_jobs_remaining gauge\n"
    "# HELP campaign_jobs_remaining Jobs not yet terminal\n"
    "campaign_jobs_remaining 2\n"
    "# TYPE campaign_jobs_total gauge\n"
    "# HELP campaign_jobs_total Jobs in the campaign plan\n"
    "campaign_jobs_total 5\n"
    "# TYPE campaign_stragglers gauge\n"
    "# HELP campaign_stragglers Runners past the straggler threshold\n"
    "campaign_stragglers 1\n"
    "# TYPE campaign_throughput_jobs_per_s gauge\n"
    "# HELP campaign_throughput_jobs_per_s Aggregate EWMA throughput"
    " of live runners\n"
    "campaign_throughput_jobs_per_s 0.25\n"
    "# TYPE campaign_worker_done gauge\n"
    "# HELP campaign_worker_done Terminal jobs per runner\n"
    'campaign_worker_done{worker="w0"} 2\n'
    'campaign_worker_done{worker="w1"} 1\n'
    "# TYPE campaign_worker_heartbeat_age_s gauge\n"
    "# HELP campaign_worker_heartbeat_age_s Seconds since last heartbeat\n"
    'campaign_worker_heartbeat_age_s{worker="w0"} 1.5\n'
    'campaign_worker_heartbeat_age_s{worker="w1"} 95\n'
    "# TYPE campaign_worker_rate_jobs_per_s gauge\n"
    "# HELP campaign_worker_rate_jobs_per_s Per-runner EWMA throughput\n"
    'campaign_worker_rate_jobs_per_s{worker="w0"} 0.125\n'
    'campaign_worker_rate_jobs_per_s{worker="w1"} 0\n'
    "# TYPE campaign_worker_straggler gauge\n"
    "# HELP campaign_worker_straggler 1 when past the straggler threshold\n"
    'campaign_worker_straggler{worker="w0"} 0\n'
    'campaign_worker_straggler{worker="w1"} 1\n'
    "# EOF\n"
)


class TestMetricsExport:
    def test_export_bytes_are_pinned(self):
        """The export's exposition text is pinned byte for byte: a
        scraper sees the same series, order, HELP text and NaN."""
        status = live.CampaignStatus(
            ledger_path="led.jsonl",
            plan_name="pinned-plan",
            campaign="c0ffee",
            total=5,
            done=2,
            failed=1,
            throughput_jobs_s=0.25,
            eta_s=float("nan"),
            workers=[
                live.WorkerStatus(
                    worker=0, done=2, total=3, rate_jobs_s=0.125, stale_s=1.5
                ),
                live.WorkerStatus(
                    worker=1,
                    failed=1,
                    total=2,
                    rate_jobs_s=0.0,
                    stale_s=95.0,
                    straggler=True,
                ),
            ],
        )
        registry = live.export_campaign_metrics(status, MetricsRegistry())
        assert registry.render_openmetrics() == _PINNED_OPENMETRICS

    def test_export_campaign_metrics_openmetrics(self, tmp_path):
        base = tmp_path / "led.jsonl"
        _write_ledger(base, [_header()])
        _write_ledger(
            shard_path(base, 0),
            [
                _header(worker=0),
                _beat(1.0, 1, total=2, worker=0),
                _beat(2.0, 2, total=2, worker=0),
            ],
        )
        status = live.read_live(base, now=3.0)
        registry = live.export_campaign_metrics(status, MetricsRegistry())
        text = registry.render_openmetrics()
        assert text.endswith("# EOF\n")
        # Identity gauge labels the unlabeled progress series so
        # multi-campaign scrapers can join them to a plan/campaign.
        assert (
            'campaign_info{campaign="live",plan="live-plan"} 1' in text
        )
        assert "campaign_jobs_total 2" in text
        assert "campaign_jobs_done 2" in text
        assert 'campaign_worker_done{worker="w0"} 2' in text
        assert "campaign_eta_s 0" in text


class TestTopCli:
    def test_top_once_flags_straggler(self, tmp_path, capsys):
        base = tmp_path / "led.jsonl"
        _write_ledger(base, [_header()])
        now = time.time()
        _write_ledger(
            shard_path(base, 0),
            [
                _header(worker=0),
                _beat(round(now - 2.0, 3), 1, total=2, worker=0),
            ],
        )
        _write_ledger(
            shard_path(base, 1),
            [
                _header(worker=1),
                _beat(round(now - 120.0, 3), 0, total=2, worker=1),
            ],
        )
        assert main(["top", str(base), "--once"]) == 0
        out = capsys.readouterr().out
        assert "STRAGGLER" in out or "DEAD" in out
        assert "w0" in out

    def test_top_json_and_metrics_out(self, tmp_path, capsys):
        base = tmp_path / "led.jsonl"
        _write_ledger(
            base, [_header(), _beat(1.0, 1, total=1, job="only")]
        )
        metrics_path = tmp_path / "m.txt"
        assert (
            main(
                [
                    "top",
                    str(base),
                    "--json",
                    "--metrics-out",
                    str(metrics_path),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is True
        assert metrics_path.read_text().endswith("# EOF\n")

    def test_top_missing_ledger_errors(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSlowWorkerIntegration:
    def test_live_view_of_running_campaign(self, tmp_path):
        """Watch a real 2-worker campaign mid-run: the worker stuck in
        a slow job ages past a tight straggler threshold while the
        campaign is still incomplete."""
        base = tmp_path / "slow.jsonl"
        jobs = [_sleep_job(0, seconds=6.0)] + [
            _sleep_job(i) for i in range(1, 4)
        ]
        ledger = RunLedger(base, plan_key="slow")
        runner = SuiteRunner(config=FAST, ledger=ledger, workers=2)
        result = {}

        def campaign():
            result["report"] = runner.run_portable(jobs, plan_key="slow")

        thread = threading.Thread(target=campaign)
        thread.start()
        try:
            flagged = False
            deadline = time.time() + 20.0
            while time.time() < deadline:
                try:
                    status = live.read_live(base, straggler_after_s=0.5)
                except ConfigError:
                    time.sleep(0.2)
                    continue
                slow = [
                    w
                    for w in status.workers
                    if w.straggler and not w.finished
                ]
                if slow and not status.complete:
                    flagged = True
                    break
                time.sleep(0.2)
        finally:
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert flagged, "straggler never flagged during the slow job"
        assert result["report"].counts() == {"ok": 4, "failed": 0}
