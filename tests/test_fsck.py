"""``repro fsck``: detection of every corruption class, the repair
round-trips, the 0/1/3 exit-code contract (library and CLI), finalize
tmp scavenging, and the directory-fsync degrade latch
(docs/robustness.md, "storage faults and repair")."""

import errno
import json
import os
import time
import warnings

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.obs import sinks
from repro.runner.fsck import (
    QUARANTINE_DIR,
    FsckReport,
    format_fsck_report,
    run_fsck,
)
from repro.runner.executor import run_plan
from repro.runner.ledger import RunLedger, compact_ledger
from repro.runner.plan import CampaignPlan
from repro.runner.store import ExperimentStore, run_store_worker
from repro.runner.supervisor import SupervisorConfig
from repro.runner.worker import PortableJob

FAST = SupervisorConfig(max_retries=2, backoff_base_s=0.0)


def _sleep_job(index):
    return PortableJob(
        kind="sleep",
        key=f"s{index:02d}",
        label=f"sleep-{index}",
        index=index,
        payload={"seconds": 0.0, "value": index},
    )


def _complete_store(tmp_path, n=3, name="fsck"):
    store = ExperimentStore.create_or_attach(
        tmp_path / "store",
        jobs=[_sleep_job(i) for i in range(n)],
        name=name,
        config=FAST,
    )
    run_store_worker(store, lease_ttl_s=60.0, poll_s=0.01)
    return store


def _kinds(report):
    return sorted(f.kind for f in report.findings)


def _write_lease(store, key, owner="w1", deadline_offset=3600.0):
    path = store.leases_dir / f"{key}.json"
    now = time.time()
    path.write_text(
        json.dumps(
            {
                "key": key,
                "owner": owner,
                "token": "t-test",
                "acquired": now,
                "deadline": now + deadline_offset,
                "ttl_s": 60.0,
            }
        ),
        encoding="utf-8",
    )
    return path


# ---------------------------------------------------------------------------
# Exit-code contract
# ---------------------------------------------------------------------------
class TestExitCodes:
    def test_clean_is_zero(self):
        report = FsckReport(target="x", mode="store", repair=False)
        assert report.exit_code() == 0
        assert report.clean

    def test_repairable_without_repair_is_three(self):
        report = FsckReport(target="x", mode="store", repair=False)
        report.add("tmp_orphan", "p", "d", repairable=True)
        assert report.exit_code() == 3

    def test_unrepairable_is_one(self):
        report = FsckReport(target="x", mode="store", repair=False)
        report.add("ledger_version", "p", "d", repairable=False)
        assert report.exit_code() == 1

    def test_repair_mode_zero_only_when_all_repaired(self):
        report = FsckReport(target="x", mode="store", repair=True)
        finding = report.add("tmp_orphan", "p", "d", repairable=True)
        assert report.exit_code() == 1
        finding.repaired = True
        assert report.exit_code() == 0

    def test_bad_target_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            run_fsck(tmp_path / "nope")
        with pytest.raises(ConfigError):
            run_fsck(tmp_path)  # a directory without store.json


# ---------------------------------------------------------------------------
# Store mode: detection and repair per corruption class
# ---------------------------------------------------------------------------
class TestStoreFsck:
    def test_clean_store_scans_clean(self, tmp_path):
        store = _complete_store(tmp_path)
        report = run_fsck(store.root)
        assert report.clean
        assert report.mode == "store"
        assert report.exit_code() == 0
        assert report.checked["groups"] == 3
        json.dumps(report.as_dict())  # JSON-native throughout

    def test_tmp_orphan_detected_then_unlinked(self, tmp_path):
        store = _complete_store(tmp_path)
        orphan = store.results_dir / "s00.jsonl.tmp123-deadbeef"
        orphan.write_text("{", encoding="utf-8")
        report = run_fsck(store.root)
        assert _kinds(report) == ["tmp_orphan"]
        assert report.exit_code() == 3
        repaired = run_fsck(store.root, repair=True)
        assert repaired.exit_code() == 0
        assert not orphan.exists()
        assert run_fsck(store.root).clean

    def test_truncated_group_quarantined_and_republished(self, tmp_path):
        store = _complete_store(tmp_path)
        path = store.result_path("s01")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        report = run_fsck(store.root)
        assert "group_corrupt" in _kinds(report)
        assert report.exit_code() == 3
        repaired = run_fsck(store.root, repair=True)
        # Quarantine reopens the job; the ledger cross-reference then
        # republishes it from the terminal row — self-healing in one
        # pass, no worker needed.
        assert {"group_corrupt", "result_missing"} <= set(
            _kinds(repaired)
        )
        assert repaired.exit_code() == 0
        assert (store.root / QUARANTINE_DIR / "s01.jsonl").exists()
        assert store.read_result("s01") is not None
        assert run_fsck(store.root).clean

    def test_group_without_terminal_detected(self, tmp_path):
        store = _complete_store(tmp_path)
        path = store.result_path("s02")
        path.write_text(
            json.dumps({"type": "start", "key": "s02", "attempt": 1})
            + "\n",
            encoding="utf-8",
        )
        report = run_fsck(store.root)
        assert "group_no_terminal" in _kinds(report)
        assert run_fsck(store.root, repair=True).exit_code() == 0

    def test_foreign_group_detected(self, tmp_path):
        store = _complete_store(tmp_path)
        (store.results_dir / "zz99.jsonl").write_text(
            '{"type": "done", "key": "zz99"}\n', encoding="utf-8"
        )
        report = run_fsck(store.root)
        assert _kinds(report) == ["group_foreign"]
        assert run_fsck(store.root, repair=True).exit_code() == 0

    def test_lease_classes_detected_and_unlinked(self, tmp_path):
        store = _complete_store(tmp_path)
        # Dangling: a lease for a job that already published.
        _write_lease(store, "s00")
        # Torn: unparseable lease (crash mid-claim).
        torn = store.leases_dir / "s01.json"
        torn.write_text('{"key": "s01", "own', encoding="utf-8")
        report = run_fsck(store.root)
        assert sorted(_kinds(report)) == ["lease_dangling", "lease_torn"]
        assert report.exit_code() == 3
        repaired = run_fsck(store.root, repair=True)
        assert repaired.exit_code() == 0
        assert not list(store.leases_dir.glob("*.json"))

    def test_expired_and_stale_leases(self, tmp_path):
        store = ExperimentStore.create_or_attach(
            tmp_path / "store",
            jobs=[_sleep_job(i) for i in range(2)],
            name="fsck",
            config=FAST,
        )
        # No results yet, so these cannot be dangling.
        _write_lease(store, "s00", deadline_offset=-5.0)
        _write_lease(store, "s01", deadline_offset=3600.0)
        report = run_fsck(store.root)
        assert sorted(_kinds(report)) == ["lease_expired", "lease_stale"]
        assert run_fsck(store.root, repair=True).exit_code() == 0

    def test_missing_ledger_header_rebuilt(self, tmp_path):
        store = _complete_store(tmp_path)
        store.ledger_path.unlink()
        report = run_fsck(store.root)
        assert _kinds(report) == ["ledger_missing"]
        repaired = run_fsck(store.root, repair=True)
        assert repaired.exit_code() == 0
        assert store.ledger_path.exists()
        assert run_fsck(store.root).clean

    def test_headerless_ledger_quarantined_and_rebuilt(self, tmp_path):
        store = _complete_store(tmp_path)
        store.ledger_path.write_text(
            '{"type": "done", "key": "s00", "status": "ok"}\n',
            encoding="utf-8",
        )
        report = run_fsck(store.root)
        assert "ledger_headerless" in _kinds(report)
        assert report.exit_code() == 3  # store mode: rebuildable
        repaired = run_fsck(store.root, repair=True)
        assert repaired.exit_code() == 0
        assert (store.root / QUARANTINE_DIR / store.ledger_path.name).exists()
        assert run_fsck(store.root).clean

    def test_torn_ledger_line_compacted_away(self, tmp_path):
        store = _complete_store(tmp_path)
        with store.ledger_path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "key": "s9')  # no newline
        report = run_fsck(store.root)
        assert "ledger_torn" in _kinds(report)
        repaired = run_fsck(store.root, repair=True)
        assert repaired.exit_code() == 0
        assert run_fsck(store.root).clean
        raw = store.ledger_path.read_text(encoding="utf-8")
        assert raw.endswith("\n")

    def test_malformed_ledger_records_compacted_away(self, tmp_path):
        """Parseable records that break the validity rule are damaged
        lines: reported as ``ledger_torn``, compacted away by repair,
        and a worker pass afterwards converges on the same rows."""
        store = _complete_store(tmp_path)
        reference = store.report().stable_dict()
        with store.ledger_path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "row": {"status": "ok"}}\n')
            handle.write('{"type": "done", "key": "s00", "row": "x"}\n')
        report = run_fsck(store.root)
        assert _kinds(report) == ["ledger_torn"]
        assert report.findings[0].detail.startswith("2 damaged line(s)")
        assert run_fsck(store.root, repair=True).exit_code() == 0
        run_store_worker(store, lease_ttl_s=60.0, poll_s=0.01)
        assert store.report().stable_dict() == reference
        assert run_fsck(store.root).clean

    def test_trailer_mismatch_detected_and_recompacted(self, tmp_path):
        store = _complete_store(tmp_path)
        compact_ledger(store.ledger_path)
        raw = store.ledger_path.read_text(encoding="utf-8")
        lines = raw.splitlines(keepends=True)
        # Corrupt a body byte while keeping every line valid JSON.
        assert '"plan_name":"fsck"' in lines[0]
        lines[0] = lines[0].replace(
            '"plan_name":"fsck"', '"plan_name":"fsCk"'
        )
        store.ledger_path.write_text("".join(lines), encoding="utf-8")
        report = run_fsck(store.root)
        assert "ledger_trailer_mismatch" in _kinds(report)
        repaired = run_fsck(store.root, repair=True)
        assert repaired.exit_code() == 0
        assert run_fsck(store.root).clean

    def test_deleted_group_republished_from_ledger(self, tmp_path):
        store = _complete_store(tmp_path)
        store.result_path("s02").unlink()
        report = run_fsck(store.root)
        assert _kinds(report) == ["result_missing"]
        assert report.exit_code() == 3
        repaired = run_fsck(store.root, repair=True)
        assert repaired.findings[0].action == (
            "republished from ledger terminal row"
        )
        records = store.read_result("s02")
        assert records is not None
        assert records[-1]["type"] == "done"
        assert records[-1]["row"]["status"] == "ok"
        assert run_fsck(store.root).clean

    def test_repair_then_resume_converges(self, tmp_path):
        """After compound damage, one --repair plus one worker pass
        yields exactly the rows a clean campaign produced."""
        store = _complete_store(tmp_path, n=4)
        reference = [
            {k: v for k, v in row.items() if k != "duration_s"}
            for row in store.report().rows
        ]
        # Compound damage: torn group, vanished group, stale lease,
        # torn ledger tail.
        path = store.result_path("s00")
        path.write_bytes(path.read_bytes()[:-7])
        store.result_path("s03").unlink()
        _write_lease(store, "s01")
        with store.ledger_path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn')
        assert run_fsck(store.root, repair=True).exit_code() == 0
        run_store_worker(store, lease_ttl_s=60.0, poll_s=0.01)
        rows = [
            {k: v for k, v in row.items() if k != "duration_s"}
            for row in store.report().rows
        ]
        assert rows == reference
        assert run_fsck(store.root).clean


# ---------------------------------------------------------------------------
# Bare-ledger mode
# ---------------------------------------------------------------------------
class TestLedgerFsck:
    def _ledger(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path, plan_key="k", plan_name="bare")
        ledger.job_done(
            "a",
            {"index": 0, "key": "a", "label": "a", "status": "ok",
             "attempts": 1},
        )
        ledger.close()
        return path

    def test_clean_ledger(self, tmp_path):
        path = self._ledger(tmp_path)
        report = run_fsck(path)
        assert report.mode == "ledger"
        assert report.exit_code() == 0

    def test_torn_tail_repairable(self, tmp_path):
        path = self._ledger(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"half')
        assert run_fsck(path).exit_code() == 3
        assert run_fsck(path, repair=True).exit_code() == 0
        assert run_fsck(path).clean

    def test_malformed_records_repaired_then_resume_converges(
        self, tmp_path
    ):
        """A keyless ``done`` and a non-dict ``row`` in a campaign
        ledger: fsck exits 3 with ``ledger_torn``, ``--repair``
        compacts them away, and ``--resume`` then replays every job to
        a report byte-identical to an undamaged run's."""
        plan = CampaignPlan.from_dict(
            {
                "name": "tiny",
                "defaults": {"scale": 0.15, "schemes": ["Baseline"]},
                "jobs": [
                    {"kernel": "spmspv", "matrix": "P1"},
                    {"kernel": "spmspv", "matrix": "U1"},
                ],
            }
        )
        path = tmp_path / "run.jsonl"
        reference = run_plan(plan, config=FAST, ledger_path=path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "row": {"status": "ok"}}\n')
            handle.write('{"type": "done", "key": "k", "row": "oops"}\n')
        report = run_fsck(path)
        assert _kinds(report) == ["ledger_torn"]
        assert report.exit_code() == 3
        assert run_fsck(path, repair=True).exit_code() == 0
        assert run_fsck(path).clean
        resumed = run_plan(plan, config=FAST, ledger_path=path, resume=True)
        assert resumed.n_resumed == 2
        assert json.dumps(resumed.stable_dict(), sort_keys=True) == (
            json.dumps(reference.stable_dict(), sort_keys=True)
        )

    def test_headerless_bare_ledger_unrepairable(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "done"}\n', encoding="utf-8")
        report = run_fsck(path)
        assert _kinds(report) == ["ledger_headerless"]
        assert report.exit_code() == 1  # no store.json to rebuild from
        assert run_fsck(path, repair=True).exit_code() == 1

    def test_residue_prefix_scoped_to_this_ledger(self, tmp_path):
        path = self._ledger(tmp_path)
        ours = tmp_path / "run.jsonl.compact42"
        ours.write_text("x", encoding="utf-8")
        other = tmp_path / "other.jsonl.compact42"
        other.write_text("x", encoding="utf-8")
        report = run_fsck(path, repair=True)
        assert [f.kind for f in report.findings] == ["tmp_orphan"]
        assert not ours.exists()
        assert other.exists()  # not ours to judge


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestFsckCLI:
    def test_clean_exit_zero(self, tmp_path, capsys):
        store = _complete_store(tmp_path)
        assert main(["fsck", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "clean: no damage found" in out

    def test_repairable_exit_three_with_hint(self, tmp_path, capsys):
        store = _complete_store(tmp_path)
        (store.results_dir / "s00.jsonl.tmp1-aa").write_text("{")
        assert main(["fsck", str(store.root)]) == 3
        out = capsys.readouterr().out
        assert "run again with --repair" in out

    def test_json_output_carries_exit_code(self, tmp_path, capsys):
        store = _complete_store(tmp_path)
        store.result_path("s00").unlink()
        assert main(["fsck", str(store.root), "--json"]) == 3
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["exit_code"] == 3
        assert payload["findings"][0]["kind"] == "result_missing"
        assert "error:" in captured.err

    def test_repair_round_trip(self, tmp_path, capsys):
        store = _complete_store(tmp_path)
        store.result_path("s00").unlink()
        assert main(["fsck", str(store.root), "--repair"]) == 0
        assert main(["fsck", str(store.root)]) == 0

    def test_bad_target_one_line_error(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "nope")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_human_report_statuses(self, tmp_path):
        store = _complete_store(tmp_path)
        store.result_path("s00").unlink()
        text = format_fsck_report(run_fsck(store.root))
        assert "[repairable] result_missing" in text
        text = format_fsck_report(run_fsck(store.root, repair=True))
        assert "[repaired] result_missing" in text


# ---------------------------------------------------------------------------
# Finalize scavenging + directory-fsync degrade (satellites)
# ---------------------------------------------------------------------------
class TestScavenge:
    def test_finalize_scavenges_old_tmp_residue(self, tmp_path):
        store = ExperimentStore.create_or_attach(
            tmp_path / "store",
            jobs=[_sleep_job(0)],
            name="scav",
            config=FAST,
        )
        orphan = store.results_dir / "s00.jsonl.tmp9-cafe"
        orphan.write_text("{", encoding="utf-8")
        old = time.time() - 3600.0
        os.utime(orphan, (old, old))
        fresh = store.results_dir / "s00.jsonl.tmp8-beef"
        fresh.write_text("{", encoding="utf-8")
        run_store_worker(store, lease_ttl_s=60.0, poll_s=0.01)
        assert not orphan.exists()  # aged out: scavenged at finalize
        assert fresh.exists()  # could be a live writer: left alone

    def test_scavenge_tmp_returns_reaped_paths(self, tmp_path):
        store = _complete_store(tmp_path, n=1)
        orphan = store.root / "store.json.tmp1-aa"
        orphan.write_text("{", encoding="utf-8")
        old = time.time() - 3600.0
        os.utime(orphan, (old, old))
        reaped = store.scavenge_tmp()
        assert reaped == [orphan]
        assert not orphan.exists()


class TestFsyncDegrade:
    def test_unsupported_fsync_degrades_with_one_shot_warning(
        self, tmp_path, monkeypatch
    ):
        sinks._reset_dir_fsync_latch()

        def refuse(fd):
            raise OSError(errno.EINVAL, "Invalid argument")

        monkeypatch.setattr(os, "fsync", refuse)
        try:
            with pytest.warns(RuntimeWarning, match="not power-loss"):
                sinks.fsync_dir(tmp_path)
            # Latched: the second call neither warns nor errors.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sinks.fsync_dir(tmp_path)
        finally:
            sinks._reset_dir_fsync_latch()

    def test_real_fsync_errors_still_propagate(
        self, tmp_path, monkeypatch
    ):
        sinks._reset_dir_fsync_latch()

        def fail(fd):
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setattr(os, "fsync", fail)
        try:
            with pytest.raises(OSError):
                sinks.fsync_dir(tmp_path)
        finally:
            sinks._reset_dir_fsync_latch()
