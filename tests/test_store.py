"""The experiment store: registration, scheduling, first-wins
publishing, chaos-proof convergence, and ledger compaction
(docs/robustness.md, "multi-host campaigns")."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigError, ReproError
from repro.faults.spec import FaultSchedule
from repro.runner.executor import SuiteRunner
from repro.runner.ledger import (
    RunLedger,
    compact_ledger,
    verify_trailer,
)
from repro.runner.report import diff_ledgers
from repro.runner.store import (
    ExperimentStore,
    build_schedule,
    predicted_cost,
    run_store_worker,
)
from repro.runner.supervisor import SupervisorConfig
from repro.runner.worker import PortableJob

FAST = SupervisorConfig(max_retries=2, backoff_base_s=0.0)


def _sleep_job(index, seconds=0.001):
    return PortableJob(
        kind="sleep",
        key=f"s{index:02d}",
        label=f"sleep-{index}",
        index=index,
        payload={"seconds": seconds, "value": index},
    )


def _fail_job(index, retryable=True, fail_attempts=99):
    return PortableJob(
        kind="fail",
        key=f"f{index:02d}",
        label=f"fail-{index}",
        index=index,
        payload={
            "error": "boom",
            "retryable": retryable,
            "fail_attempts": fail_attempts,
        },
    )


def _row(**fields):
    """A terminal row of job ``s00`` with the fields the executor
    writes."""
    return {
        "key": "s00", "label": "s00", "status": "ok", "attempts": 1, **fields
    }


def _grid(n_sleep=4, n_fail=1):
    jobs = [_sleep_job(i) for i in range(n_sleep)]
    jobs += [_fail_job(n_sleep + i) for i in range(n_fail)]
    return jobs


def _reference_ledger(tmp_path, jobs, config=FAST, name="ref"):
    """A clean single-worker run of the same grid, for diffing."""
    path = tmp_path / "ref.jsonl"
    ledger = RunLedger(path, plan_key="ref-key", plan_name=name)
    runner = SuiteRunner(config=config, ledger=ledger)
    runner.run_portable(jobs, name=name)
    ledger.close()
    return path


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------
class TestScheduling:
    def test_predicted_cost_orders_by_scale(self):
        cheap = PortableJob(
            kind="evaluate", key="a", label="a", index=0,
            payload={"scale": 0.1},
        )
        dear = PortableJob(
            kind="evaluate", key="b", label="b", index=1,
            payload={"scale": 0.9},
        )
        assert predicted_cost(cheap) < predicted_cost(dear)

    def test_sleep_cost_is_its_seconds(self):
        assert predicted_cost(_sleep_job(0, seconds=2.5)) == 2.5

    def test_schedule_sorts_cheapest_first(self):
        jobs = [
            _sleep_job(0, seconds=0.3),
            _sleep_job(1, seconds=0.1),
            _sleep_job(2, seconds=0.2),
        ]
        order = [entry.key for entry in build_schedule(jobs)]
        assert order == ["s01", "s02", "s00"]

    def test_schedule_ties_break_in_plan_order(self):
        jobs = [_sleep_job(i, seconds=0.1) for i in range(3)]
        order = [entry.index for entry in build_schedule(jobs)]
        assert order == [0, 1, 2]


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------
class TestRegistration:
    def test_create_then_attach(self, tmp_path):
        jobs = _grid()
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="g", config=FAST
        )
        attached = ExperimentStore.attach(tmp_path / "store")
        assert attached.plan_key == store.plan_key
        assert attached.n_jobs == len(jobs)
        assert attached.config == FAST
        assert [e.key for e in attached.schedule] == [
            e.key for e in store.schedule
        ]

    def test_legacy_after_keys_still_attach(self, tmp_path):
        # Older stores recorded a dependency key per schedule entry.
        jobs = _grid()
        ref = _reference_ledger(tmp_path, jobs)
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="ref", config=FAST
        )
        meta_path = store.root / "store.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        for entry in meta["schedule"]:
            entry["after"] = jobs[0].key
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        attached = ExperimentStore.attach(store.root)
        summary = run_store_worker(attached, poll_s=0.01)
        assert summary["complete"] and summary["finalized"]
        assert diff_ledgers(attached.ledger_path, ref)["identical"]

    def test_create_twice_rejected(self, tmp_path):
        ExperimentStore.create(tmp_path / "store", jobs=_grid(), name="g")
        with pytest.raises(ConfigError, match="already registered"):
            ExperimentStore.create(
                tmp_path / "store", jobs=_grid(), name="g"
            )

    def test_create_or_attach_verifies_plan(self, tmp_path):
        ExperimentStore.create(tmp_path / "store", jobs=_grid(), name="g")
        ExperimentStore.create_or_attach(
            tmp_path / "store", jobs=_grid(), name="g"
        )
        with pytest.raises(ConfigError, match="different plan"):
            ExperimentStore.create_or_attach(
                tmp_path / "store", jobs=_grid(n_sleep=2), name="other"
            )

    def test_attach_missing_store_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="no experiment store"):
            ExperimentStore.attach(tmp_path / "nowhere")

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            ExperimentStore.create(tmp_path / "store", jobs=[], name="g")

    def test_duplicate_keys_rejected(self, tmp_path):
        jobs = [_sleep_job(0), _sleep_job(0)]
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentStore.create(tmp_path / "store", jobs=jobs, name="g")

    def test_registration_writes_header_with_grid_size(self, tmp_path):
        store = ExperimentStore.create(
            tmp_path / "store", jobs=_grid(), name="g"
        )
        header = json.loads(
            store.ledger_path.read_text(encoding="utf-8").splitlines()[0]
        )
        assert header["type"] == "header"
        assert header["jobs"] == 5


# ---------------------------------------------------------------------------
# Publishing
# ---------------------------------------------------------------------------
class TestPublish:
    def test_publish_first_wins(self, tmp_path):
        store = ExperimentStore.create(
            tmp_path / "store", jobs=_grid(), name="g"
        )
        first = [{"type": "done", "key": "s00", "row": _row(v=1)}]
        second = [{"type": "done", "key": "s00", "row": _row(v=2)}]
        assert store.publish("s00", first)
        assert not store.publish("s00", second)
        assert store.read_result("s00") == first

    def test_publish_empty_group_rejected(self, tmp_path):
        store = ExperimentStore.create(
            tmp_path / "store", jobs=_grid(), name="g"
        )
        with pytest.raises(ReproError):
            store.publish("s00", [])

    def test_open_entries_shrink_as_results_land(self, tmp_path):
        store = ExperimentStore.create(
            tmp_path / "store", jobs=_grid(), name="g"
        )
        assert len(store.open_entries()) == 5
        store.publish(
            "s00", [{"type": "done", "key": "s00", "row": _row()}]
        )
        assert len(store.open_entries()) == 4
        assert not store.is_complete()


# ---------------------------------------------------------------------------
# Convergence (single process)
# ---------------------------------------------------------------------------
class TestConvergence:
    def test_single_worker_matches_plain_run(self, tmp_path):
        jobs = _grid()
        ref = _reference_ledger(tmp_path, jobs)
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="ref", config=FAST
        )
        summary = run_store_worker(store, poll_s=0.01)
        assert summary["complete"] and summary["finalized"]
        assert summary["ok"] == 4 and summary["failed"] == 1
        diff = diff_ledgers(store.ledger_path, ref)
        assert diff["identical"], diff

    def test_two_sequential_workers_split_the_grid(self, tmp_path):
        jobs = _grid(n_sleep=6, n_fail=0)
        ref = _reference_ledger(tmp_path, jobs)
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="ref", config=FAST
        )
        first = run_store_worker(store, max_jobs=2, poll_s=0.01)
        assert first["published"] == 2 and not first["complete"]
        second = run_store_worker(store, poll_s=0.01)
        assert second["published"] == 4 and second["complete"]
        assert diff_ledgers(store.ledger_path, ref)["identical"]

    def test_finalize_is_idempotent(self, tmp_path):
        jobs = _grid()
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="g", config=FAST
        )
        run_store_worker(store, poll_s=0.01)
        before = store.ledger_path.read_bytes()
        assert store.finalize()  # second merge: nothing to add
        assert store.ledger_path.read_bytes() == before

    def test_finalize_sweeps_worker_shards(self, tmp_path):
        jobs = _grid()
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="g", config=FAST
        )
        run_store_worker(store, poll_s=0.01)
        leftovers = list(store.root.glob("ledger.jsonl.w*"))
        assert leftovers == []

    def test_report_rows_in_plan_order(self, tmp_path):
        jobs = _grid()
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="g", config=FAST
        )
        run_store_worker(store, poll_s=0.01)
        report = store.report()
        assert [row["key"] for row in report.rows] == [
            job.key for job in jobs
        ]
        assert not report.partial

    def test_faulted_twin_runs_at_any_worker_count(self, tmp_path):
        # A fault sweep whose clean twin quarantines still runs: a
        # serial run, --workers 2, and one store worker publish the
        # same rows, so worker count can never change a report.
        from repro.runner.executor import run_plan
        from repro.runner.plan import CampaignPlan, JobSpec

        host_faults = FaultSchedule.from_dict(
            {"seed": 3, "faults": [{"kind": "job_crash", "rate": 1.0}]}
        )
        clean = JobSpec(kernel="spmspv", matrix="P1", scale=0.05)
        faulted = JobSpec(
            kernel="spmspv",
            matrix="P1",
            scale=0.05,
            faults={
                "seed": 9,
                "faults": [{"kind": "counter_noise", "rate": 0.5}],
            },
        )
        plan = CampaignPlan(
            name="dep", jobs=(clean, faulted), faults=host_faults
        )
        config = SupervisorConfig(max_retries=1, backoff_base_s=0.0)
        serial = run_plan(plan, config=config)
        parallel = run_plan(plan, config=config, workers=2)
        store = ExperimentStore.create(
            tmp_path / "store", plan=plan, config=config
        )
        assert run_store_worker(store, poll_s=0.01)["complete"]
        reports = [serial, parallel, store.report()]
        stable = [
            json.dumps(report.stable_dict()["rows"], sort_keys=True)
            for report in reports
        ]
        assert stable[0] == stable[1] == stable[2]
        # job_crash at rate 1.0 quarantines both jobs after running
        # every attempt; the faulted twin is executed, not skipped.
        for row in serial.rows:
            assert row["status"] == "failed"
            assert row["attempts"] == 2


# ---------------------------------------------------------------------------
# Fabric faults
# ---------------------------------------------------------------------------
class TestFabricFaults:
    def test_lease_lost_discards_then_converges(self, tmp_path):
        jobs = [_sleep_job(i) for i in range(3)]
        ref = _reference_ledger(tmp_path, jobs)
        faults = FaultSchedule.from_dict(
            {"seed": 1, "faults": [{"kind": "lease_lost", "rate": 1.0}]}
        )
        store = ExperimentStore.create(
            tmp_path / "store",
            jobs=jobs,
            name="ref",
            config=FAST,
            faults=faults,
        )
        summary = run_store_worker(store, poll_s=0.01)
        assert summary["complete"]
        # Every job's first run lost its lease and was discarded; the
        # once-per-(worker, job) guard let the re-claims run clean, and
        # the converged ledger is still byte-identical.
        assert diff_ledgers(store.ledger_path, ref)["identical"]

    def test_clock_skew_converges(self, tmp_path):
        jobs = [_sleep_job(i) for i in range(3)]
        ref = _reference_ledger(tmp_path, jobs)
        faults = FaultSchedule.from_dict(
            {
                "seed": 2,
                "faults": [
                    {
                        "kind": "clock_skew",
                        "rate": 1.0,
                        "params": {"seconds": -120.0},
                    }
                ],
            }
        )
        store = ExperimentStore.create(
            tmp_path / "store",
            jobs=jobs,
            name="ref",
            config=FAST,
            faults=faults,
        )
        summary = run_store_worker(
            store, poll_s=0.01, lease_ttl_s=300.0
        )
        assert summary["complete"]
        assert diff_ledgers(store.ledger_path, ref)["identical"]

    def test_store_kinds_do_not_reach_job_execution(self):
        # The supervisor's host injector must never interpret fabric
        # kinds as job crashes.
        from repro.runner.supervisor import HostFaultInjector

        faults = FaultSchedule.from_dict(
            {"seed": 1, "faults": [{"kind": "lease_lost", "rate": 1.0}]}
        )
        injector = HostFaultInjector(faults)
        assert not injector
        assert injector.actions(0) == []


# ---------------------------------------------------------------------------
# Chaos: SIGKILLed subprocess workers, staggered restart
# ---------------------------------------------------------------------------
def _spawn_worker(store_dir, ttl="1.0"):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--store",
            str(store_dir),
            "--lease-ttl",
            ttl,
            "--poll",
            "0.05",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestChaos:
    def test_sigkilled_worker_converges_byte_identical(self, tmp_path):
        """The headline guarantee: SIGKILL a worker mid-campaign,
        restart it staggered, and the merged report is byte-identical
        to a clean one-worker run."""
        jobs = [_sleep_job(i, seconds=0.1) for i in range(10)]
        ref = _reference_ledger(tmp_path, jobs)
        store_dir = tmp_path / "store"
        ExperimentStore.create(
            store_dir, jobs=jobs, name="ref", config=FAST
        )
        victim = _spawn_worker(store_dir)
        survivor = _spawn_worker(store_dir)
        time.sleep(0.35)  # let both claim mid-job
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)
        time.sleep(0.1)
        replacement = _spawn_worker(store_dir)
        try:
            survivor.wait(timeout=60)
            replacement.wait(timeout=60)
        finally:
            for proc in (survivor, replacement):
                if proc.poll() is None:
                    proc.kill()
        store = ExperimentStore.attach(store_dir)
        assert store.is_complete()
        diff = diff_ledgers(store.ledger_path, ref)
        assert diff["identical"], diff
        # And through the CLI contract: exit 0 on identical ledgers.
        assert (
            main(
                [
                    "suite-report",
                    str(store.ledger_path),
                    "--diff",
                    str(ref),
                ]
            )
            == 0
        )


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------
class TestCompaction:
    def _converged_store(self, tmp_path):
        jobs = _grid()
        ref = _reference_ledger(tmp_path, jobs)
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="ref", config=FAST
        )
        run_store_worker(store, poll_s=0.01)
        return store, ref

    def test_compact_shrinks_and_preserves_report(self, tmp_path):
        store, ref = self._converged_store(tmp_path)
        before = store.ledger_path.stat().st_size
        stats = compact_ledger(store.ledger_path)
        assert stats["bytes_after"] < before
        assert diff_ledgers(store.ledger_path, ref)["identical"]

    def test_compact_appends_valid_trailer(self, tmp_path):
        store, _ = self._converged_store(tmp_path)
        compact_ledger(store.ledger_path)
        result = verify_trailer(store.ledger_path)
        assert result["present"] and result["ok"]

    def test_verify_detects_corruption(self, tmp_path):
        store, _ = self._converged_store(tmp_path)
        compact_ledger(store.ledger_path)
        text = store.ledger_path.read_text(encoding="utf-8")
        store.ledger_path.write_text(
            text.replace('"status": "ok"', '"status": "okay"', 1)
            if '"status": "ok"' in text
            else text.replace("ok", "ko", 1),
            encoding="utf-8",
        )
        result = verify_trailer(store.ledger_path)
        assert result["present"] and not result["ok"]

    def test_uncompacted_ledger_has_no_trailer(self, tmp_path):
        store, _ = self._converged_store(tmp_path)
        result = verify_trailer(store.ledger_path)
        assert not result["present"]

    def test_compact_is_idempotent(self, tmp_path):
        store, _ = self._converged_store(tmp_path)
        compact_ledger(store.ledger_path)
        once = store.ledger_path.read_bytes()
        compact_ledger(store.ledger_path)
        assert store.ledger_path.read_bytes() == once


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def _store(self, tmp_path):
        jobs = _grid()
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="g", config=FAST
        )
        return store

    def test_worker_verb_converges_store(self, tmp_path, capsys):
        store = self._store(tmp_path)
        code = main(
            [
                "worker",
                "--store",
                str(store.root),
                "--poll",
                "0.01",
                "--json",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["complete"] and summary["finalized"]

    def test_worker_missing_store_is_one_line_error(self, tmp_path, capsys):
        code = main(["worker", "--store", str(tmp_path / "nope")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_ledger_compact_verb(self, tmp_path, capsys):
        store = self._store(tmp_path)
        run_store_worker(store, poll_s=0.01)
        assert main(["ledger-compact", str(store.ledger_path)]) == 0
        capsys.readouterr()
        assert (
            main(["ledger-compact", str(store.ledger_path), "--check"]) == 0
        )
        out = capsys.readouterr().out
        assert "trailer ok" in out

    def test_ledger_compact_check_without_trailer_fails(
        self, tmp_path, capsys
    ):
        store = self._store(tmp_path)
        run_store_worker(store, poll_s=0.01)
        code = main(["ledger-compact", str(store.ledger_path), "--check"])
        assert code == 1
        assert "no checksum trailer" in capsys.readouterr().err

    def test_ledger_compact_missing_file_is_one_line_error(
        self, tmp_path, capsys
    ):
        code = main(["ledger-compact", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_suite_run_store_conflicts(self, tmp_path, capsys):
        for extra in (
            ["--ledger", str(tmp_path / "l.jsonl")],
            ["--workers", "2"],
        ):
            code = main(
                ["suite-run", "--store", str(tmp_path / "store"), *extra]
            )
            assert code == 1
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "extra, hint",
        [
            (["--profile"], "drop --profile\n"),
            (["--profile-out", "p.json"], "drop --profile-out\n"),
            (["--metrics-out", "m.prom"], "--once --metrics-out m.prom`"),
        ],
        ids=["profile", "profile-out", "metrics-out"],
    )
    def test_suite_run_store_rejects_unserved_flags(
        self, tmp_path, capsys, extra, hint
    ):
        """A ``--store`` run would ignore these flags, so it refuses
        them before registering anything; ``--metrics-out`` is pointed
        at ``repro top`` on the store's ledger."""
        store = tmp_path / "store"
        code = main(["suite-run", "--store", str(store), *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert hint in err
        if "--metrics-out" in extra:
            assert f"repro top {store / 'ledger.jsonl'}" in err
        assert not store.exists()

    def test_suite_report_funnels_bad_ledgers(self, tmp_path, capsys):
        # Satellite: missing / empty / header-less ledgers exit 1 with
        # the one-line error funnel, never a traceback.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text(
            '{"type": "start", "key": "x"}\n', encoding="utf-8"
        )
        directory = tmp_path / "adir"
        directory.mkdir()
        for target in (
            tmp_path / "missing.jsonl",
            empty,
            headerless,
            directory,
        ):
            for argv in (
                ["suite-report", str(target)],
                ["top", str(target), "--once"],
            ):
                assert main(argv) == 1, argv
                assert capsys.readouterr().err.startswith("error:"), argv


# ---------------------------------------------------------------------------
# Live view over a store ledger
# ---------------------------------------------------------------------------
class TestStoreLive:
    def test_header_grid_size_overrides_total(self, tmp_path):
        from repro.obs.live import read_live

        jobs = _grid()
        store = ExperimentStore.create(
            tmp_path / "store", jobs=jobs, name="g", config=FAST
        )
        status = read_live(store.ledger_path)
        assert status.total == len(jobs)
        run_store_worker(store, poll_s=0.01)
        status = read_live(store.ledger_path)
        assert status.total == len(jobs)
        assert status.complete
