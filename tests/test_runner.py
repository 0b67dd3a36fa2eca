"""Tests for the resilient suite runner (``repro.runner``): plans and
content-addressed job keys, the durable run ledger, deadline/retry
supervision, host-level fault injection, kill-and-resume determinism,
and the ``repro suite-run`` CLI."""

import json
import time

import pytest

from repro.cli import main
from repro.errors import (
    ConfigError,
    FaultError,
    JobTimeoutError,
    ReproError,
    RetryableError,
)
from repro.faults import FaultSchedule, FaultSpec
from repro.runner import (
    CampaignInterrupted,
    CampaignPlan,
    HostFaultInjector,
    Job,
    JobSpec,
    RunLedger,
    SuiteRunner,
    SupervisorConfig,
    call_with_deadline,
    job_key,
    run_plan,
    table5_plan,
)
from repro.runner.supervisor import backoff_delay

#: No-sleep supervision for synthetic-job tests.
FAST = SupervisorConfig(max_retries=2, backoff_base_s=0.0)


def _job(fn, index=0, key=None, label=None, **kwargs):
    return Job(
        key=key or f"job{index:02d}",
        label=label or f"job/{index}",
        fn=fn,
        index=index,
        **kwargs,
    )


def _ok(index=0, **meta):
    return _job(lambda: {"value": index}, index=index, **meta)


# ---------------------------------------------------------------------------
class TestJobKey:
    def test_order_insensitive(self):
        assert job_key({"a": 1, "b": [2, 3]}) == job_key({"b": [2, 3], "a": 1})

    def test_content_addressed(self):
        assert job_key({"a": 1}) != job_key({"a": 2})
        assert len(job_key({"a": 1})) == 16
        int(job_key({"a": 1}), 16)  # hex


class TestJobSpec:
    def test_defaults_and_label(self):
        spec = JobSpec(kernel="spmspv", matrix="R09")
        assert spec.label() == "spmspv/R09/ee"
        assert spec.schemes == ("Baseline", "SparseAdapt")
        assert spec.key() == JobSpec(kernel="spmspv", matrix="R09").key()

    def test_key_tracks_description(self):
        a = JobSpec(kernel="spmspv", matrix="R09", scale=0.3)
        b = JobSpec(kernel="spmspv", matrix="R09", scale=0.2)
        assert a.key() != b.key()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel": "fft", "matrix": "R01"},
            {"kernel": "spmspv", "matrix": "R99"},
            {"kernel": "spmspv", "matrix": "R01", "scale": 0.0},
            {"kernel": "spmspv", "matrix": "R01", "scale": 1.5},
            {"kernel": "spmspv", "matrix": "R01", "mode": "fast"},
            {"kernel": "spmspv", "matrix": "R01", "l1_type": "dram"},
            {"kernel": "spmspv", "matrix": "R01", "schemes": ()},
            {
                "kernel": "spmspv",
                "matrix": "R01",
                "schemes": ("Baseline", "Quantum"),
            },
            # Baseline is the gains reference; every job must carry it.
            {"kernel": "spmspv", "matrix": "R01", "schemes": ("SparseAdapt",)},
            {"kernel": "spmspv", "matrix": "R01", "deadline_s": 0},
            # Numeric fields: a finite real number, not a bool or a
            # string; the bandwidth strictly positive.
            {"kernel": "spmspv", "matrix": "R01", "scale": "0.05"},
            {"kernel": "spmspv", "matrix": "R01", "scale": True},
            {"kernel": "spmspv", "matrix": "R01", "scale": float("nan")},
            {"kernel": "spmspv", "matrix": "R01", "bandwidth_gbps": 0},
            {"kernel": "spmspv", "matrix": "R01", "bandwidth_gbps": -1},
            {"kernel": "spmspv", "matrix": "R01", "bandwidth_gbps": "x"},
            {"kernel": "spmspv", "matrix": "R01", "bandwidth_gbps": True},
            {"kernel": "spmspv", "matrix": "R01", "bandwidth_gbps": 1e400},
            {
                "kernel": "spmspv",
                "matrix": "R01",
                "bandwidth_gbps": float("nan"),
            },
            {"kernel": "spmspv", "matrix": "R01", "bandwidth_gbps": 10**400},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            JobSpec(**kwargs)

    def test_numeric_fields_kept_as_written(self):
        """Validation does not convert: the key hashes the value as the
        plan wrote it."""
        spec = JobSpec(
            kernel="spmspv", matrix="R01", scale=1, bandwidth_gbps=2
        )
        assert type(spec.scale) is int and type(spec.bandwidth_gbps) is int

    @pytest.mark.parametrize(
        "text", ['"bandwidth_gbps": 0', '"bandwidth_gbps": 1e400',
                 '"scale": "0.05"']
    )
    def test_plan_with_bad_number_fails_at_load(self, tmp_path, capsys, text):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"name": "p", "jobs": [{"kernel": "spmspv", "matrix": "P1", '
            + text + "}]}",
            encoding="utf-8",
        )
        assert main(["suite-run", str(plan)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_round_trip(self):
        spec = JobSpec(
            kernel="spmspm", matrix="R03", scale=0.2, deadline_s=9.0
        )
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_defaults_merge(self):
        spec = JobSpec.from_dict(
            {"kernel": "spmspv", "matrix": "R09"},
            defaults={"scale": 0.2, "schemes": ["Baseline", "Best Avg"]},
        )
        assert spec.scale == 0.2
        assert spec.schemes == ("Baseline", "Best Avg")
        # Explicit job keys win over defaults.
        spec = JobSpec.from_dict(
            {"kernel": "spmspv", "matrix": "R09", "scale": 0.4},
            defaults={"scale": 0.2},
        )
        assert spec.scale == 0.4

    def test_from_dict_strictness(self):
        with pytest.raises(ConfigError):
            JobSpec.from_dict({"kernel": "spmspv", "matrix": "R09", "x": 1})
        with pytest.raises(ConfigError):
            JobSpec.from_dict({"kernel": "spmspv"})
        with pytest.raises(ConfigError):
            JobSpec.from_dict(
                {"kernel": "spmspv", "matrix": "R09", "schemes": "Baseline"}
            )


class TestCampaignPlan:
    def test_table5(self):
        plan = table5_plan()
        assert plan.name == "table5"
        assert len(plan.jobs) == 16
        assert [s.kernel for s in plan.jobs[:8]] == ["spmspm"] * 8
        assert [s.kernel for s in plan.jobs[8:]] == ["spmspv"] * 8
        assert [s.matrix for s in plan.jobs] == [
            f"R{i:02d}" for i in range(1, 17)
        ]
        assert len({s.key() for s in plan.jobs}) == 16

    def test_duplicate_jobs_rejected(self):
        spec = JobSpec(kernel="spmspv", matrix="R09")
        with pytest.raises(ConfigError, match="duplicate"):
            CampaignPlan(name="dup", jobs=(spec, spec))

    def test_from_dict_strictness(self):
        base = {
            "name": "p",
            "jobs": [{"kernel": "spmspv", "matrix": "R09"}],
        }
        assert CampaignPlan.from_dict(base).name == "p"
        with pytest.raises(ConfigError):
            CampaignPlan.from_dict({**base, "extra": 1})
        with pytest.raises(ConfigError):
            CampaignPlan.from_dict({"name": "p"})
        with pytest.raises(ConfigError):
            CampaignPlan.from_dict(
                {**base, "defaults": {"kernel": "spmspv"}}
            )

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="no such plan"):
            CampaignPlan.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed"):
            CampaignPlan.from_file(bad)

    def test_save_round_trip(self, tmp_path):
        plan = table5_plan(scale=0.2)
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = CampaignPlan.from_file(path)
        assert loaded.key() == plan.key()

    def test_plan_key_covers_faults(self):
        plan = table5_plan()
        faulted = CampaignPlan(
            name=plan.name,
            jobs=plan.jobs,
            faults=FaultSchedule(
                specs=(FaultSpec(kind="job_crash", rate=0.5),), seed=1
            ),
        )
        assert faulted.key() != plan.key()


# ---------------------------------------------------------------------------
class TestRunLedger:
    def test_refuses_overwrite_and_blind_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(ConfigError, match="cannot resume"):
            RunLedger(path, plan_key="k", resume=True)
        RunLedger(path, plan_key="k").close()
        with pytest.raises(ConfigError, match="--resume"):
            RunLedger(path, plan_key="k")

    def test_terminal_rows_replayed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path, plan_key="k") as ledger:
            ledger.job_started("a", 0, 1)
            ledger.job_done(
                "a",
                {"key": "a", "label": "a", "status": "ok", "attempts": 1,
                 "result": 7},
            )
            ledger.job_started("b", 1, 1)
            ledger.job_quarantined(
                "b",
                {"key": "b", "label": "b", "status": "failed", "attempts": 1},
            )
            ledger.job_started("c", 2, 1)  # in flight: no terminal row
        reopened = RunLedger(path, plan_key="k", resume=True)
        assert set(reopened.completed) == {"a", "b"}
        assert reopened.completed["a"]["row"]["result"] == 7
        assert reopened.in_flight == ["c"]
        reopened.close()

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path, plan_key="k") as ledger:
            ledger.job_done(
                "a", {"key": "a", "label": "a", "status": "ok", "attempts": 1}
            )
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "key": "b", "row"')  # killed write
        reopened = RunLedger(path, plan_key="k", resume=True)
        assert set(reopened.completed) == {"a"}
        reopened.close()

    def test_plan_key_mismatch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunLedger(path, plan_key="old", plan_name="other").close()
        with pytest.raises(ConfigError, match="different plan"):
            RunLedger(path, plan_key="new", resume=True)

    def test_rejects_non_ledger_file(self, tmp_path):
        path = tmp_path / "not-a-ledger.jsonl"
        path.write_text('{"type": "start", "key": "a"}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="missing header"):
            RunLedger(path, plan_key="k", resume=True)


# ---------------------------------------------------------------------------
class TestSupervisor:
    def test_no_deadline_runs_inline(self):
        assert call_with_deadline(lambda: 42, None) == 42

    def test_deadline_timeout(self):
        with pytest.raises(JobTimeoutError, match="0.05s deadline"):
            call_with_deadline(lambda: time.sleep(5), 0.05, label="hang")
        assert issubclass(JobTimeoutError, RetryableError)
        assert issubclass(JobTimeoutError, ReproError)

    def test_worker_exception_propagates(self):
        def boom():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            call_with_deadline(boom, 5.0)

    def test_backoff_deterministic_and_growing(self):
        config = SupervisorConfig(backoff_base_s=0.05, seed=3)
        first = backoff_delay(config, job_index=2, attempt=1)
        assert first == backoff_delay(config, job_index=2, attempt=1)
        second = backoff_delay(config, job_index=2, attempt=2)
        assert 0.05 <= first <= 0.05 * 1.25
        assert second > first
        assert backoff_delay(FAST, job_index=0, attempt=1) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0},
            {"deadline_s": -1.0},
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(FaultError):
            SupervisorConfig(**kwargs)


class TestHostFaultInjector:
    def _schedule(self, *specs, seed=0):
        return FaultSchedule(specs=tuple(specs), seed=seed)

    def test_requires_schedule(self):
        with pytest.raises(FaultError):
            HostFaultInjector([FaultSpec(kind="job_crash")])

    def test_hardware_kinds_ignored(self):
        injector = HostFaultInjector(
            self._schedule(FaultSpec(kind="counter_noise", severity=0.2))
        )
        assert not injector
        assert injector.actions(0) == []

    def test_window_selects_job_indices(self):
        injector = HostFaultInjector(
            self._schedule(
                FaultSpec(
                    kind="job_hang",
                    rate=1.0,
                    start_epoch=2,
                    end_epoch=4,
                    params={"seconds": 1.5},
                )
            )
        )
        assert injector.actions(1) == []
        assert injector.actions(2) == [("job_hang", 1.5)]
        assert injector.actions(3) == [("job_hang", 1.5)]
        assert injector.actions(4) == []
        assert injector.injected == [(2, "job_hang"), (3, "job_hang")]

    def test_rate_zero_never_fires(self):
        injector = HostFaultInjector(
            self._schedule(FaultSpec(kind="job_crash", rate=0.0))
        )
        assert all(injector.actions(j) == [] for j in range(20))

    def test_crash_wrap_raises_retryable(self):
        injector = HostFaultInjector(
            self._schedule(FaultSpec(kind="job_crash", rate=1.0))
        )
        wrapped = injector.wrap(lambda: {"x": 1}, job_index=0)
        with pytest.raises(RetryableError, match="injected job_crash"):
            wrapped()

    def test_oom_wrap_raises_memory_error(self):
        """job_oom aborts the attempt with MemoryError — which the
        executor quarantines fail-fast as kind 'oom' instead of
        burning the retry budget."""
        injector = HostFaultInjector(
            self._schedule(FaultSpec(kind="job_oom", rate=1.0))
        )
        wrapped = injector.wrap(lambda: {"x": 1}, job_index=0)
        with pytest.raises(MemoryError, match="injected job_oom"):
            wrapped()

    def test_oom_draws_are_stateless(self):
        schedule = self._schedule(
            FaultSpec(kind="job_oom", rate=0.5), seed=13
        )
        fresh = [
            HostFaultInjector(schedule).actions(j) for j in range(32)
        ]
        sequential = HostFaultInjector(schedule)
        assert [sequential.actions(j) for j in range(32)] == fresh
        fired = [j for j, actions in enumerate(fresh) if actions]
        assert 0 < len(fired) < 32

    def test_hang_wrap_sleeps_then_runs(self, monkeypatch):
        naps = []
        monkeypatch.setattr(
            "repro.runner.supervisor.time.sleep", naps.append
        )
        injector = HostFaultInjector(
            self._schedule(
                FaultSpec(kind="job_hang", rate=1.0, params={"seconds": 2.0})
            )
        )
        assert injector.wrap(lambda: {"x": 1}, job_index=0)() == {"x": 1}
        assert naps == [2.0]

    def test_draws_are_stateless(self):
        """Fire decisions depend only on (seed, spec, job, attempt) —
        never on which jobs were queried before. This is what keeps a
        resumed campaign byte-identical to an uninterrupted one."""
        schedule = self._schedule(
            FaultSpec(kind="job_crash", rate=0.5), seed=11
        )
        fresh = [
            HostFaultInjector(schedule).actions(j) for j in range(32)
        ]
        sequential = HostFaultInjector(schedule)
        assert [sequential.actions(j) for j in range(32)] == fresh
        # Reversed query order changes nothing either.
        reversed_order = HostFaultInjector(schedule)
        assert [
            reversed_order.actions(j) for j in reversed(range(32))
        ] == fresh[::-1]
        fired = [j for j, actions in enumerate(fresh) if actions]
        assert 0 < len(fired) < 32  # the rate actually does something

    def test_retry_attempt_gets_fresh_draw(self):
        schedule = self._schedule(
            FaultSpec(kind="job_crash", rate=0.5), seed=11
        )
        injector = HostFaultInjector(schedule)
        decisions = {
            attempt: bool(injector.actions(3, attempt))
            for attempt in range(1, 64)
        }
        assert len(set(decisions.values())) == 2  # clears on some attempt


# ---------------------------------------------------------------------------
class TestSuiteRunner:
    def test_success_row(self):
        report = SuiteRunner(config=FAST).run(
            [_ok(0, meta={"kernel": "spmspv"})], name="one"
        )
        (row,) = report.rows
        assert row["status"] == "ok"
        assert row["attempts"] == 1
        assert row["result"] == {"value": 0}
        assert row["kernel"] == "spmspv"
        assert report.counts() == {"ok": 1, "failed": 0}
        assert report.failures() == []

    def test_retry_then_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RetryableError("transient")
            return {"ok": True}

        report = SuiteRunner(config=FAST).run([_job(flaky)])
        (row,) = report.rows
        assert row["status"] == "ok"
        assert row["attempts"] == 3

    def test_retries_exhausted_quarantines(self):
        def always():
            raise RetryableError("still down")

        report = SuiteRunner(config=FAST).run([_job(always)])
        (row,) = report.rows
        assert row["status"] == "failed"
        assert row["attempts"] == FAST.max_retries + 1
        assert row["failure"] == {"kind": "retryable", "error": "still down"}

    def test_poisoned_input_fails_fast(self):
        def poison():
            raise ValueError("bad matrix")

        report = SuiteRunner(config=FAST).run([_job(poison)])
        (row,) = report.rows
        assert row["status"] == "failed"
        assert row["attempts"] == 1  # non-retryable: no retry burned
        assert row["failure"]["kind"] == "poisoned"
        assert row["failure"]["error"] == "ValueError: bad matrix"

    def test_memory_error_quarantined_as_oom(self):
        def hog():
            raise MemoryError("cannot allocate 80 GiB")

        report = SuiteRunner(config=FAST).run([_job(hog)])
        (row,) = report.rows
        assert row["status"] == "failed"
        assert row["attempts"] == 1  # OOM would recur: fail fast
        assert row["failure"]["kind"] == "oom"
        assert "cannot allocate" in row["failure"]["error"]

    def test_timeout_kind(self):
        config = SupervisorConfig(
            deadline_s=0.05, max_retries=0, backoff_base_s=0.0
        )
        report = SuiteRunner(config=config).run(
            [_job(lambda: time.sleep(5), label="hang/job")]
        )
        (row,) = report.rows
        assert row["status"] == "failed"
        assert row["failure"]["kind"] == "timeout"
        assert "deadline" in row["failure"]["error"]

    def test_job_deadline_overrides_config(self):
        config = SupervisorConfig(deadline_s=0.05, max_retries=0)
        job = _job(lambda: time.sleep(0.2) or {"ok": 1}, deadline_s=10.0)
        report = SuiteRunner(config=config).run([job])
        assert report.rows[0]["status"] == "ok"

    def test_backoff_sleeps_between_retries(self):
        naps = []
        runner = SuiteRunner(
            config=SupervisorConfig(backoff_base_s=0.01, max_retries=2)
        )
        runner._sleep = naps.append

        def always():
            raise RetryableError("down")

        runner.run([_job(always)])
        assert len(naps) == 2
        assert all(nap > 0 for nap in naps)
        assert naps[1] > naps[0]

    def test_failure_does_not_abort_campaign(self):
        jobs = [
            _ok(0, key="a"),
            _job(lambda: (_ for _ in ()).throw(ValueError("x")), 1, key="b"),
            _ok(2, key="c"),
        ]
        report = SuiteRunner(config=FAST).run(jobs)
        assert [row["status"] for row in report.rows] == [
            "ok",
            "failed",
            "ok",
        ]

    def test_interrupt_checkpoints_and_hints(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path, plan_key="k", plan_name="p")
        ctrl_c = [True]  # fire once: the re-run after resume succeeds

        def interrupted_once():
            if ctrl_c.pop() if ctrl_c else False:
                raise KeyboardInterrupt()
            return {"value": 1}

        jobs = [
            _ok(0, key="a"),
            _job(interrupted_once, 1, key="b"),
            _ok(2, key="c"),
        ]
        with pytest.raises(CampaignInterrupted) as excinfo:
            SuiteRunner(config=FAST, ledger=ledger).run(jobs)
        err = excinfo.value
        assert isinstance(err, KeyboardInterrupt)
        assert err.completed == 1
        assert err.total == 3
        assert "--resume" in err.resume_hint
        assert str(path) in err.resume_hint
        # The first job's terminal row survived; resume skips it.
        resumed_ledger = RunLedger(
            path, plan_key="k", plan_name="p", resume=True
        )
        report = SuiteRunner(config=FAST, ledger=resumed_ledger).run(jobs)
        assert report.n_resumed == 1
        assert [row["status"] for row in report.rows] == ["ok"] * 3

    def test_interrupt_without_ledger_hints_nothing_to_resume(self):
        job = _job(lambda: (_ for _ in ()).throw(KeyboardInterrupt()), 0)
        with pytest.raises(CampaignInterrupted) as excinfo:
            SuiteRunner(config=FAST).run([job])
        assert "nothing to resume" in excinfo.value.resume_hint

    def test_resumed_rows_identical(self, tmp_path):
        jobs = [_ok(i, key=f"k{i}") for i in range(3)]
        fresh = SuiteRunner(
            config=FAST,
            ledger=RunLedger(tmp_path / "a.jsonl", plan_key="k"),
        ).run(jobs)
        once = SuiteRunner(
            config=FAST,
            ledger=RunLedger(tmp_path / "b.jsonl", plan_key="k"),
        ).run(jobs)
        resumed = SuiteRunner(
            config=FAST,
            ledger=RunLedger(tmp_path / "b.jsonl", plan_key="k", resume=True),
        ).run(jobs)
        assert resumed.n_resumed == 3
        assert json.dumps(resumed.stable_dict(), sort_keys=True) == json.dumps(
            fresh.stable_dict(), sort_keys=True
        )
        assert once.stable_dict() == resumed.stable_dict()

    def test_stable_dict_strips_wall_clock(self):
        report = SuiteRunner(config=FAST).run([_ok(0)])
        stable = report.stable_dict()
        assert "duration_s" not in stable
        assert all("duration_s" not in row for row in stable["rows"])
        assert "duration_s" in report.as_dict()


# ---------------------------------------------------------------------------
def _tiny_plan(**overrides):
    """Two fast statics-only evaluation jobs (no model training)."""
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


class TestRunPlan:
    def test_kill_and_resume_byte_identical(self, tmp_path):
        """The acceptance criterion: interrupting after every job and
        resuming yields a report byte-identical (modulo wall-clock
        fields) to the uninterrupted run."""
        plan = _tiny_plan()
        full = run_plan(plan, config=FAST)
        assert full.counts() == {"ok": 2, "failed": 0}

        ledger = tmp_path / "run.jsonl"
        first = run_plan(plan, config=FAST, ledger_path=ledger, max_jobs=1)
        assert first.partial
        assert len(first.rows) == 1
        resumed = run_plan(
            plan, config=FAST, ledger_path=ledger, resume=True
        )
        assert not resumed.partial
        assert resumed.n_resumed == 1
        assert json.dumps(resumed.stable_dict(), sort_keys=True) == json.dumps(
            full.stable_dict(), sort_keys=True
        )

    def test_max_jobs_counts_only_new_work(self, tmp_path):
        plan = _tiny_plan()
        ledger = tmp_path / "run.jsonl"
        run_plan(plan, config=FAST, ledger_path=ledger, max_jobs=1)
        # One job is already in the ledger, so max_jobs=1 of *new* work
        # finishes the whole plan.
        report = run_plan(
            plan, config=FAST, ledger_path=ledger, resume=True, max_jobs=1
        )
        assert not report.partial
        assert len(report.rows) == 2
        assert report.n_resumed == 1

    def test_hang_job_quarantined_others_succeed(self, tmp_path):
        """A plan with one hanging job completes within the
        deadline+retry budget: exactly one quarantined row, every other
        job ok."""
        from repro.experiments.harness import build_trace

        # Warm the trace cache so the deadline only measures the hang.
        for spec in _tiny_plan().jobs:
            build_trace(spec.kernel, spec.matrix, scale=spec.scale)
        plan = _tiny_plan(
            faults={
                "seed": 5,
                "faults": [
                    {
                        "kind": "job_hang",
                        "rate": 1.0,
                        "start_epoch": 0,
                        "end_epoch": 1,
                        "params": {"seconds": 30.0},
                    }
                ],
            }
        )
        config = SupervisorConfig(
            deadline_s=1.0, max_retries=1, backoff_base_s=0.0
        )
        report = run_plan(plan, config=config, ledger_path=tmp_path / "l")
        assert report.counts() == {"ok": 1, "failed": 1}
        (failure,) = report.failures()
        assert failure["matrix"] == "P1"
        assert failure["failure"]["kind"] == "timeout"
        assert failure["attempts"] == 2
        ok = [row for row in report.rows if row["status"] == "ok"]
        assert ok[0]["matrix"] == "U1"


# ---------------------------------------------------------------------------
class TestSuiteRunCLI:
    def _write_plan(self, tmp_path, **overrides):
        path = tmp_path / "plan.json"
        _tiny_plan(**overrides).save(path)
        return str(path)

    def test_smoke_table(self, tmp_path, capsys):
        assert main(["suite-run", self._write_plan(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Campaign tiny" in out
        assert "2 ok, 0 failed" in out
        assert "spmspv/P1/ee" in out

    def test_json_and_out_agree(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = main(
            [
                "suite-run",
                self._write_plan(tmp_path),
                "--json",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["counts"] == {"ok": 2, "failed": 0}
        assert json.loads(out_path.read_text(encoding="utf-8")) == printed

    def test_resume_requires_ledger(self, tmp_path, capsys):
        rc = main(["suite-run", self._write_plan(tmp_path), "--resume"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--ledger" in err

    def test_existing_ledger_requires_resume(self, tmp_path, capsys):
        plan = self._write_plan(tmp_path)
        ledger = str(tmp_path / "run.jsonl")
        assert main(["suite-run", plan, "--ledger", ledger]) == 0
        capsys.readouterr()
        rc = main(["suite-run", plan, "--ledger", ledger])
        assert rc == 1
        assert "--resume" in capsys.readouterr().err

    def test_checkpoint_then_resume_matches_full(self, tmp_path, capsys):
        plan = self._write_plan(tmp_path)
        ledger = str(tmp_path / "run.jsonl")

        assert main(["suite-run", plan, "--json"]) == 0
        full = json.loads(capsys.readouterr().out)

        rc = main(
            ["suite-run", plan, "--ledger", ledger, "--max-jobs", "1"]
        )
        assert rc == 0
        assert "checkpoint:" in capsys.readouterr().err
        rc = main(
            ["suite-run", plan, "--ledger", ledger, "--resume", "--json"]
        )
        assert rc == 0
        resumed = json.loads(capsys.readouterr().out)

        def stable(payload):
            payload = json.loads(json.dumps(payload))
            payload.pop("n_resumed", None)
            payload.pop("duration_s", None)
            for row in payload["rows"]:
                row.pop("duration_s", None)
            return payload

        assert stable(resumed) == stable(full)

    def test_bad_plan_file(self, tmp_path, capsys):
        rc = main(["suite-run", str(tmp_path / "missing.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_builtin_plan_is_table5(self, capsys, monkeypatch):
        # Intercept run_plan: the built-in plan must be the full
        # Table-5 sweep without touching the (slow) evaluation.
        import repro.runner as runner_pkg

        seen = {}

        def fake_run_plan(plan, **kwargs):
            seen["plan"] = plan
            raise ConfigError("stop here")

        monkeypatch.setattr(runner_pkg, "run_plan", fake_run_plan)
        rc = main(["suite-run", "--scale", "0.2", "--mode", "pp"])
        assert rc == 1
        plan = seen["plan"]
        assert plan.name == "table5"
        assert len(plan.jobs) == 16
        assert all(spec.scale == 0.2 for spec in plan.jobs)
        assert all(spec.mode == "pp" for spec in plan.jobs)

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom():
            raise KeyboardInterrupt()

        monkeypatch.setattr(cli, "_command_info", boom)
        assert main(["info"]) == 130
        assert capsys.readouterr().err.startswith("interrupted:")

    def test_campaign_interrupt_prints_resume_hint(
        self, capsys, monkeypatch
    ):
        import repro.cli as cli

        def boom():
            raise CampaignInterrupted("runs/led.jsonl", 3, 16)

        monkeypatch.setattr(cli, "_command_info", boom)
        assert main(["info"]) == 130
        err = capsys.readouterr().err
        assert err.startswith("interrupted: checkpointed 3/16 jobs")
        assert "--resume" in err
