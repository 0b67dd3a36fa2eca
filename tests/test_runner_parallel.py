"""Adversarial tests for the parallel suite runner: worker-count
byte-parity, kill/resume with mixed worker counts, SIGINT handling,
fault-injected (torn/duplicated) record groups, stale local stores,
worker-quarantine isolation, and the ``--workers`` CLI surface.

The CI matrix exports ``REPRO_TEST_WORKERS`` (1/2/4); tests that only
need *a* parallel worker count honor it so every matrix leg exercises a
different fan-out.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.errors import ConfigError, ReproError, StorageError
from repro.faults import FaultSchedule
from repro.runner import (
    CampaignPlan,
    ExperimentStore,
    PortableJob,
    RunLedger,
    SuiteRunner,
    SupervisorConfig,
    build_job,
    plan_portable_jobs,
    run_plan,
    shard_path,
    table5_plan,
)
from repro.runner.ledger import (
    VOLATILE_TYPES,
    list_shards,
    local_store_path,
    read_ledger_records,
)
from repro.runner.fsck import run_fsck

#: No-sleep supervision for synthetic-job tests.
FAST = SupervisorConfig(max_retries=2, backoff_base_s=0.0)

#: Worker count of the CI matrix leg (tests needing "some" parallelism).
ENV_WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "2")))


def _sleep_job(index, seconds=0.0, key=None):
    return PortableJob(
        kind="sleep",
        key=key or f"s{index:02d}",
        label=f"sleep/{index}",
        index=index,
        payload={"seconds": seconds, "value": index},
    )


def _row(key, status="ok", index=0, **fields):
    """A terminal row with the fields the executor writes."""
    return {
        "index": index,
        "key": key,
        "label": key,
        "status": status,
        "attempts": 1,
        **fields,
    }


def _statics_plan():
    """The built-in Table-5 plan, statics-only (no model training)."""
    return table5_plan(scale=0.15, schemes=("Baseline", "Best Avg"))


def _tiny_plan(**overrides):
    raw = {
        "name": "tiny",
        "defaults": {"scale": 0.15, "schemes": ["Baseline", "Best Avg"]},
        "jobs": [
            {"kernel": "spmspv", "matrix": "P1"},
            {"kernel": "spmspv", "matrix": "U1"},
        ],
    }
    raw.update(overrides)
    return CampaignPlan.from_dict(raw)


def _stable_ledger_lines(path):
    """The ledger's deterministic content: volatile fields stripped,
    merge bookkeeping dropped, each record re-encoded canonically."""

    def strip(value):
        if isinstance(value, dict):
            return {
                key: strip(nested)
                for key, nested in value.items()
                if key != "duration_s"
            }
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    records, _ = read_ledger_records(path)
    return [
        json.dumps(strip(record), sort_keys=True)
        for record in records
        if record.get("type") not in VOLATILE_TYPES
    ]


def _stable_report(report):
    return json.dumps(report.stable_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
class TestPortableJob:
    def test_round_trip(self):
        job = _sleep_job(3, seconds=0.5)
        assert PortableJob.from_dict(job.as_dict()) == job
        assert json.loads(json.dumps(job.as_dict())) == job.as_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="portable job kind"):
            PortableJob(kind="exec", key="k", label="l", index=0)

    def test_build_sleep_job_runs(self):
        live = build_job(_sleep_job(7))
        assert live.fn() == {"value": 7}
        assert live.key == "s07"

    def test_fail_job_recovers_after_budget(self):
        job = PortableJob(
            kind="fail",
            key="f0",
            label="fail/0",
            index=0,
            payload={
                "error": "flaky",
                "retryable": True,
                "fail_attempts": 2,
                "value": 9,
            },
        )
        report = SuiteRunner(config=FAST).run_portable([job])
        (row,) = report.rows
        assert row["status"] == "ok"
        assert row["attempts"] == 3
        assert row["result"] == {"value": 9}

    def test_plan_portable_jobs_mirror_specs(self):
        plan = _statics_plan()
        jobs = plan_portable_jobs(plan)
        assert [job.key for job in jobs] == [
            spec.key() for spec in plan.jobs
        ]
        assert [job.label for job in jobs] == [
            spec.label() for spec in plan.jobs
        ]
        assert all(job.kind == "evaluate" for job in jobs)
        assert jobs[0].meta["kernel"] == plan.jobs[0].kernel


# ---------------------------------------------------------------------------
class TestParallelDeterminism:
    def test_workers_matrix_byte_identical(self, tmp_path):
        """The tentpole contract: the same plan at --workers 1/2/4
        yields byte-identical reports and ledgers (modulo wall-clock
        fields and merge bookkeeping)."""
        plan = _statics_plan()
        reports, ledgers = [], []
        for workers in (1, 2, 4):
            ledger = tmp_path / f"w{workers}.jsonl"
            report = run_plan(
                plan, config=FAST, ledger_path=ledger, workers=workers
            )
            assert report.counts() == {"ok": 16, "failed": 0}
            reports.append(_stable_report(report))
            ledgers.append(_stable_ledger_lines(ledger))
            # Shards are consumed by the merge, never left behind.
            assert list_shards(ledger) == []
        assert reports[0] == reports[1] == reports[2]
        assert ledgers[0] == ledgers[1] == ledgers[2]

    def test_parallel_without_ledger_matches_serial(self):
        plan = _tiny_plan()
        serial = run_plan(plan, config=FAST, workers=1)
        parallel = run_plan(plan, config=FAST, workers=ENV_WORKERS)
        assert _stable_report(serial) == _stable_report(parallel)

    def test_kill_and_resume_with_different_worker_count(self, tmp_path):
        """Checkpoint under one worker count, resume under another:
        byte-identical to an uninterrupted serial run."""
        plan = _statics_plan()
        ref = tmp_path / "ref.jsonl"
        full = run_plan(plan, config=FAST, ledger_path=ref, workers=1)

        split = tmp_path / "split.jsonl"
        first = run_plan(
            plan, config=FAST, ledger_path=split, workers=2, max_jobs=5
        )
        assert first.partial and len(first.rows) == 5
        resumed = run_plan(
            plan, config=FAST, ledger_path=split, workers=4, resume=True
        )
        assert resumed.n_resumed == 5
        assert _stable_report(resumed) == _stable_report(full)
        assert _stable_ledger_lines(split) == _stable_ledger_lines(ref)

        # Resuming a finished campaign is a no-op at any worker count.
        again = run_plan(
            plan, config=FAST, ledger_path=split, workers=3, resume=True
        )
        assert again.n_resumed == 16
        assert _stable_report(again) == _stable_report(full)
        assert _stable_ledger_lines(split) == _stable_ledger_lines(ref)

    def test_fault_draws_identical_across_worker_counts(self, tmp_path):
        """Host-fault draws are stateless per (seed, spec, job,
        attempt), so injected crashes/OOMs land on the same jobs with
        the same attempt counts at every worker count."""
        faults = FaultSchedule.from_dict(
            {
                "seed": 7,
                "faults": [
                    {
                        "kind": "job_crash",
                        "start_epoch": 0,
                        "end_epoch": 8,
                        "rate": 0.5,
                    },
                    {
                        "kind": "job_oom",
                        "start_epoch": 2,
                        "end_epoch": 3,
                        "rate": 1.0,
                    },
                ],
            }
        )
        jobs = [_sleep_job(index) for index in range(8)]
        outputs = []
        for workers in (1, 2, 3):
            ledger = RunLedger(
                tmp_path / f"f{workers}.jsonl", plan_key="faulted"
            )
            runner = SuiteRunner(
                config=FAST, ledger=ledger, faults=faults, workers=workers
            )
            report = runner.run_portable(jobs, plan_key="faulted")
            outputs.append(
                (
                    _stable_report(report),
                    _stable_ledger_lines(tmp_path / f"f{workers}.jsonl"),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]
        rows = json.loads(outputs[0][0])["rows"]
        kinds = {
            row["failure"]["kind"]
            for row in rows
            if row["status"] == "failed"
        }
        assert "oom" in kinds  # the rate-1.0 job_oom always lands

    def test_store_and_io_kinds_never_fire_in_workers_run(self, tmp_path):
        """A serial run ignores store and io_* specs, so a --workers
        run must too: rate-1.0 torn writes and lost leases change
        nothing, and the job_crash behind them still draws from its
        own position in the schedule."""
        faults = FaultSchedule.from_dict(
            {
                "seed": 11,
                "faults": [
                    {"kind": "io_torn_write", "rate": 1.0},
                    {"kind": "lease_lost", "rate": 1.0},
                    {"kind": "job_crash", "rate": 0.5},
                ],
            }
        )
        jobs = [_sleep_job(index) for index in range(8)]
        outputs = []
        for workers in (1, 2):
            path = tmp_path / f"io{workers}.jsonl"
            runner = SuiteRunner(
                config=FAST,
                ledger=RunLedger(path, plan_key="io"),
                faults=faults,
                workers=workers,
            )
            report = runner.run_portable(jobs, plan_key="io")
            outputs.append(
                (_stable_report(report), _stable_ledger_lines(path))
            )
        assert outputs[0] == outputs[1]
        rows = json.loads(outputs[0][0])["rows"]
        # The job_crash spec does fire.
        assert max(row["attempts"] for row in rows) > 1


# ---------------------------------------------------------------------------
def _worker_dies(payload):  # pragma: no cover - runs in a child process
    os._exit(17)


class TestWorkerIsolation:
    def test_hang_quarantines_only_that_job(self, tmp_path):
        """A rate-1.0 hang on one job times out and is quarantined in
        its worker; every other job — including later jobs of the same
        worker — still succeeds."""
        faults = FaultSchedule.from_dict(
            {
                "faults": [
                    {
                        "kind": "job_hang",
                        "start_epoch": 0,
                        "end_epoch": 1,
                        "rate": 1.0,
                        "params": {"seconds": 30.0},
                    }
                ]
            }
        )
        config = SupervisorConfig(
            deadline_s=0.4, max_retries=0, backoff_base_s=0.0
        )
        ledger = RunLedger(tmp_path / "hang.jsonl", plan_key="hang")
        runner = SuiteRunner(
            config=config,
            ledger=ledger,
            faults=faults,
            workers=ENV_WORKERS,
        )
        report = runner.run_portable(
            [_sleep_job(index) for index in range(4)], plan_key="hang"
        )
        assert report.counts() == {"ok": 3, "failed": 1}
        (failure,) = report.failures()
        assert failure["index"] == 0
        assert failure["failure"]["kind"] == "timeout"

    def test_oom_quarantines_fail_fast(self, tmp_path):
        """job_oom aborts without burning the retry budget: one
        attempt, kind 'oom', only the targeted job."""
        faults = FaultSchedule.from_dict(
            {
                "faults": [
                    {
                        "kind": "job_oom",
                        "start_epoch": 1,
                        "end_epoch": 2,
                        "rate": 1.0,
                    }
                ]
            }
        )
        ledger = RunLedger(tmp_path / "oom.jsonl", plan_key="oom")
        runner = SuiteRunner(
            config=FAST, ledger=ledger, faults=faults, workers=ENV_WORKERS
        )
        report = runner.run_portable(
            [_sleep_job(index) for index in range(4)], plan_key="oom"
        )
        assert report.counts() == {"ok": 3, "failed": 1}
        (failure,) = report.failures()
        assert failure["index"] == 1
        assert failure["failure"]["kind"] == "oom"
        assert failure["attempts"] == 1

    def test_dead_worker_raises_and_resume_completes(
        self, tmp_path, monkeypatch
    ):
        """A worker that dies hard (os._exit) loses its unwritten jobs:
        the parent surfaces a ReproError with a resume hint, and a
        resume finishes the campaign byte-identically."""
        plan = _tiny_plan()
        ref = tmp_path / "ref.jsonl"
        full = run_plan(plan, config=FAST, ledger_path=ref)

        broken = tmp_path / "broken.jsonl"
        monkeypatch.setattr(
            "repro.runner.executor.run_local_worker", _worker_dies
        )
        with pytest.raises(ReproError, match="--resume"):
            run_plan(plan, config=FAST, ledger_path=broken, workers=2)
        monkeypatch.undo()

        resumed = run_plan(
            plan, config=FAST, ledger_path=broken, resume=True, workers=2
        )
        assert _stable_report(resumed) == _stable_report(full)

    def test_merge_record_names_each_worker(self, tmp_path):
        """The ledger's merge record is the campaign's account of its
        workers: the actual fan-out and one entry per worker rank."""
        path = tmp_path / "events.jsonl"
        ledger = RunLedger(path, plan_key="events")
        runner = SuiteRunner(config=FAST, ledger=ledger, workers=2)
        runner.run_portable(
            [_sleep_job(index) for index in range(4)], plan_key="events"
        )
        merges = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line)["type"] == "merge"
        ]
        assert len(merges) == 1
        assert merges[0]["workers"] == 2
        by_worker = merges[0]["by_worker"]
        assert [entry["worker"] for entry in by_worker] == [0, 1]
        assert sum(entry["jobs"] for entry in by_worker) == 4


# ---------------------------------------------------------------------------
class TestShardAdversarial:
    def _store_with(self, tmp_path, groups):
        """A store over keys a and b with the given (fabricated) record
        groups published."""
        store = ExperimentStore.create(
            tmp_path / "camp.jsonl.store",
            jobs=[_sleep_job(0, key="a"), _sleep_job(1, key="b")],
            name="adversarial",
            config=FAST,
        )
        for key, records in groups.items():
            store.publish(key, records)
        return store

    @staticmethod
    def _group(key, *rows):
        start = {"type": "start", "key": key, "index": 0, "attempt": 1}
        return [start] + [
            {"type": "done", "key": key, "row": row} for row in rows
        ]

    def test_torn_shard_tail_is_skipped(self, tmp_path):
        """A worker shard truncated mid-record (the one write a crash
        can tear) still yields every intact record to ``repro top``."""
        path = shard_path(tmp_path / "camp.jsonl", 0)
        shard = RunLedger(path, plan_key="plan", worker=0)
        shard.job_started("a", 0, 1)
        shard.job_done(
            "a",
            {"index": 0, "key": "a", "label": "a", "status": "ok",
             "attempts": 1},
        )
        shard.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "key": "b", "row": {"ind')
        records, skipped = read_ledger_records(path)
        assert skipped == 1
        assert [r["key"] for r in records if r["type"] == "done"] == ["a"]

    def test_torn_terminal_leaves_job_in_flight(self, tmp_path):
        """A published group whose done record never made it (only its
        start survived) is marked in flight, to be re-run fresh,
        without copying the orphan start record into the ledger."""
        store = self._store_with(
            tmp_path,
            {
                "a": self._group("a", _row("a")),
                "b": self._group("b"),
            },
        )
        ledger = RunLedger(tmp_path / "m.jsonl", plan_key="plan")
        stats = store.merge_into(ledger, ["a", "b"])
        ledger.close()
        assert stats.merged_jobs == 1
        assert "a" in ledger.completed
        assert "b" in ledger.in_flight
        records, _ = read_ledger_records(ledger.path)
        assert not any(r.get("key") == "b" for r in records)

    def test_duplicate_terminal_records_first_wins(self, tmp_path):
        """An adversarially duplicated terminal row (same key, twice in
        one group) merges exactly once."""
        store = self._store_with(
            tmp_path,
            {
                "a": self._group(
                    "a",
                    _row("a", v=1),
                    _row("a", status="failed", v=2),
                )
            },
        )
        ledger = RunLedger(tmp_path / "m.jsonl", plan_key="plan")
        store.merge_into(ledger, ["a"])
        ledger.close()
        records, _ = read_ledger_records(ledger.path)
        dones = [r for r in records if r.get("type") == "done"]
        assert len(dones) == 1
        assert dones[0]["row"]["v"] == 1
        assert ledger.completed["a"]["row"]["status"] == "ok"

    def test_merge_is_idempotent(self, tmp_path):
        """Merging the same store twice adds nothing the second time."""
        store = self._store_with(
            tmp_path, {"a": self._group("a", _row("a"))}
        )
        ledger = RunLedger(tmp_path / "m.jsonl", plan_key="plan")
        first = store.merge_into(ledger, ["a"])
        second = store.merge_into(ledger, ["a"])
        ledger.close()
        assert first.merged_jobs == 1
        assert second.merged_jobs == 0
        assert second.skipped_completed == 1

    def _stale_store(self, camp, jobs, records=()):
        """The store a killed ``--workers`` parent leaves beside
        ``camp``, with ``records`` (one job's group) published."""
        store = ExperimentStore.create(
            local_store_path(camp), jobs=jobs, name="stale", config=FAST
        )
        if records:
            store.publish(records[0]["key"], list(records))
        return store.root

    def test_stale_store_folded_on_resume(self, tmp_path):
        """A group a killed parent's worker published is folded into
        the canonical ledger on resume — its job is NOT re-run — and
        the store is deleted. The merged ledger stays byte-identical
        to an uninterrupted serial run."""
        plan = _statics_plan()
        ref = tmp_path / "ref.jsonl"
        full = run_plan(plan, config=FAST, ledger_path=ref, workers=1)

        camp = tmp_path / "camp.jsonl"
        run_plan(plan, config=FAST, ledger_path=camp, max_jobs=1)

        # The serial reference tells us exactly what the dead parent's
        # worker published for the second job.
        records, _ = read_ledger_records(ref)
        spec = plan.jobs[1]
        group = [
            r
            for r in records
            if r.get("key") == spec.key()
            and r.get("type") in ("start", "done")
        ]
        stale = self._stale_store(
            camp, plan_portable_jobs(plan)[1:], records=group
        )

        resumed = run_plan(
            plan,
            config=FAST,
            ledger_path=camp,
            resume=True,
            workers=ENV_WORKERS,
        )
        # Both the checkpointed job and the recovered one replay.
        assert resumed.n_resumed == 2
        assert not stale.exists()
        assert _stable_report(resumed) == _stable_report(full)
        assert _stable_ledger_lines(camp) == _stable_ledger_lines(ref)

    def test_foreign_plan_store_never_folded(self, tmp_path):
        """A stale store whose jobs belong to a different plan adds
        nothing to the ledger on resume, and is removed."""
        plan = _tiny_plan()
        camp = tmp_path / "camp.jsonl"
        run_plan(plan, config=FAST, ledger_path=camp, max_jobs=1)
        foreign = _sleep_job(0, key="x")
        row = _row("x")
        done = {"type": "done", "key": "x", "row": row}
        stale = self._stale_store(camp, [foreign], records=[done])
        resumed = run_plan(plan, config=FAST, ledger_path=camp, resume=True)
        assert not stale.exists()
        assert "x" not in {r["key"] for r in resumed.rows}
        records, _ = read_ledger_records(camp)
        assert not any(r.get("key") == "x" for r in records)

    def test_damaged_stale_store_kept_for_fsck(self, tmp_path):
        """A stale store whose published group is damaged is not
        deleted: resume raises before folding anything, `repro fsck
        --repair` quarantines the group, and the next resume re-runs
        its job, byte-identical to an uninterrupted run."""
        plan = _tiny_plan()
        full = run_plan(plan, config=FAST)
        camp = tmp_path / "camp.jsonl"
        run_plan(plan, config=FAST, ledger_path=camp, max_jobs=1)
        pending = plan_portable_jobs(plan)[1:]
        row = _row(pending[0].key, index=1)
        done = {"type": "done", "key": pending[0].key, "row": row}
        stale = self._stale_store(camp, pending, records=[done])
        group = stale / "results" / f"{pending[0].key}.jsonl"
        group.write_text(group.read_text()[:-9], encoding="utf-8")
        before = camp.read_bytes()
        with pytest.raises(StorageError, match="fsck --repair"):
            run_plan(plan, config=FAST, ledger_path=camp, resume=True)
        assert group.exists()
        assert camp.read_bytes() == before
        assert run_fsck(stale, repair=True).exit_code() == 0
        resumed = run_plan(plan, config=FAST, ledger_path=camp, resume=True)
        assert not stale.exists()
        assert resumed.n_resumed == 1
        assert _stable_report(resumed) == _stable_report(full)

    def test_failed_fold_keeps_store_for_resume(self, tmp_path, monkeypatch):
        """A --workers fold that hits a damaged group raises and keeps
        the store; after `repro fsck --repair`, --resume folds every
        intact group and re-runs only the quarantined job."""
        plan = _statics_plan()
        full = run_plan(plan, config=FAST)
        camp = tmp_path / "camp.jsonl"
        victim = plan.jobs[3].key()
        real_merge = ExperimentStore.merge_into

        def damage_then_merge(store, ledger, key_order):
            group = store.root / "results" / f"{victim}.jsonl"
            group.write_text(group.read_text()[:-9], encoding="utf-8")
            return real_merge(store, ledger, key_order)

        monkeypatch.setattr(ExperimentStore, "merge_into", damage_then_merge)
        with pytest.raises(StorageError, match="fsck --repair"):
            run_plan(plan, config=FAST, ledger_path=camp, workers=2)
        monkeypatch.undo()
        store = local_store_path(camp)
        n_published = len(list((store / "results").glob("*.jsonl")))
        assert n_published == len(plan.jobs)
        assert run_fsck(store, repair=True).exit_code() == 0
        resumed = run_plan(
            plan, config=FAST, ledger_path=camp, resume=True, workers=2
        )
        assert not store.exists()
        assert resumed.n_resumed == len(plan.jobs) - 1
        assert _stable_report(resumed) == _stable_report(full)

    def test_fresh_run_removes_stale_store(self, tmp_path):
        """Starting a fresh campaign removes a leftover store beside
        the new ledger so it cannot pollute a later resume."""
        plan = _tiny_plan()
        camp = tmp_path / "camp.jsonl"
        stale = self._stale_store(camp, plan_portable_jobs(plan))
        run_plan(plan, config=FAST, ledger_path=camp)
        assert not stale.exists()


# ---------------------------------------------------------------------------
_SIGINT_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.runner import PortableJob, RunLedger, SuiteRunner, SupervisorConfig
from repro.runner.executor import CampaignInterrupted
from repro.runner.executor import recover_local_store

mode, ledger_path = sys.argv[1], sys.argv[2]
jobs = [
    PortableJob(
        kind="sleep", key=f"s{{i:02d}}", label=f"sleep/{{i}}", index=i,
        payload={{"seconds": 0.25, "value": i}},
    )
    for i in range(8)
]
config = SupervisorConfig(max_retries=0, backoff_base_s=0.0)
resume = mode == "resume"
ledger = RunLedger(ledger_path, plan_key="sigint", resume=resume)
if resume:
    recover_local_store(ledger, [job.key for job in jobs])
runner = SuiteRunner(config=config, ledger=ledger, workers=int(sys.argv[3]))
try:
    report = runner.run_portable(jobs, plan_key="sigint")
except CampaignInterrupted as exc:
    print("INTERRUPTED " + exc.resume_hint)
    sys.exit(130)
print(json.dumps(report.stable_dict(), sort_keys=True))
"""


class TestSigintFanout:
    def test_sigint_checkpoints_once_and_resume_completes(self, tmp_path):
        """SIGINT to the parent stops every worker, folds what they
        published into the canonical ledger, exits with one resume
        hint — and a resume (at a different worker count) completes
        the campaign byte-identically to an uninterrupted run."""
        src = str(
            (os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        )
        src = os.path.join(src, "src")
        script = tmp_path / "campaign.py"
        script.write_text(_SIGINT_SCRIPT.format(src=src), encoding="utf-8")

        ref = tmp_path / "ref.jsonl"
        done = subprocess.run(
            [sys.executable, str(script), "fresh", str(ref), "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        reference = done.stdout.strip().splitlines()[-1]

        target = tmp_path / "killed.jsonl"
        proc = subprocess.Popen(
            [sys.executable, str(script), "fresh", str(target), "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(1.0)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 130, (out, err)
        assert out.count("INTERRUPTED") == 1  # one hint, not one per worker
        assert "rerun with --resume" in out

        resumed = subprocess.run(
            [sys.executable, str(script), "resume", str(target), "3"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout.strip().splitlines()[-1] == reference
        # An interrupted parallel run completes an arbitrary subset of
        # the plan (not a prefix), so the resumed ledger's *groups* can
        # be ordered differently from the serial reference — but the
        # terminal rows themselves are byte-identical.
        assert sorted(_stable_ledger_lines(target)) == sorted(
            _stable_ledger_lines(ref)
        )


# ---------------------------------------------------------------------------
class TestParallelCLI:
    def _write_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        _tiny_plan().save(path)
        return str(path)

    def test_workers_flag_matches_serial(self, tmp_path, capsys):
        plan = self._write_plan(tmp_path)
        assert main(["suite-run", plan, "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert (
            main(["suite-run", plan, "--json", "--workers", "4"]) == 0
        )
        parallel = json.loads(capsys.readouterr().out)

        def stable(payload):
            payload = json.loads(json.dumps(payload))
            payload.pop("duration_s", None)
            for row in payload["rows"]:
                row.pop("duration_s", None)
            return payload

        assert stable(parallel) == stable(serial)

    def test_workers_zero_rejected(self, tmp_path, capsys):
        rc = main(
            [
                "suite-run",
                self._write_plan(tmp_path),
                "--workers",
                "0",
            ]
        )
        assert rc == 1
        assert "--workers" in capsys.readouterr().err

    def test_resume_with_different_worker_count(self, tmp_path, capsys):
        plan = self._write_plan(tmp_path)
        ledger = str(tmp_path / "run.jsonl")
        rc = main(
            [
                "suite-run",
                plan,
                "--ledger",
                ledger,
                "--max-jobs",
                "1",
                "--workers",
                "2",
                "--backoff",
                "0.0",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(
            [
                "suite-run",
                plan,
                "--ledger",
                ledger,
                "--resume",
                "--workers",
                "3",
                "--json",
                "--backoff",
                "0.0",
            ]
        )
        assert rc == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["counts"] == {"ok": 2, "failed": 0}
        assert resumed["n_resumed"] == 1
