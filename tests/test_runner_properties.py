"""Property-based tests (hypothesis-free, seeded ``random.Random``
streams) for the runner's durability primitives: content-addressed
job-key stability under plan permutation, ledger round-trips through
arbitrary JSON-native rows, byte-level truncation robustness, and the
publish-order insensitivity + idempotence of the store's record-group
merge (``ExperimentStore.merge_into``)."""

import json
import random
import string

from repro.runner import (
    ExperimentStore,
    JobSpec,
    PortableJob,
    RunLedger,
    job_key,
)
from repro.runner.ledger import read_ledger_records

N_TRIALS = 25


def _rng(trial):
    return random.Random(0xC0FFEE + trial)


def _random_scalar(rng):
    return rng.choice(
        [
            rng.randint(-(10**6), 10**6),
            round(rng.uniform(-1e3, 1e3), 6),
            "".join(
                rng.choice(string.ascii_letters) for _ in range(rng.randint(0, 12))
            ),
            rng.random() < 0.5,
            None,
        ]
    )


def _random_value(rng, depth=2):
    if depth == 0 or rng.random() < 0.5:
        return _random_scalar(rng)
    if rng.random() < 0.5:
        return [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {
        f"k{index}": _random_value(rng, depth - 1)
        for index in range(rng.randint(0, 4))
    }


def _random_row(rng, index, key):
    return {
        "index": index,
        "key": key,
        "label": f"job/{index}",
        "status": rng.choice(["ok", "failed"]),
        "attempts": rng.randint(1, 4),
        "result": _random_value(rng),
    }


def _random_spec(rng):
    return JobSpec(
        kernel=rng.choice(["spmspm", "spmspv"]),
        matrix=rng.choice(
            ["R01", "R05", "R09", "R16", "P1", "U1"]
        ),
        mode=rng.choice(["ee", "pp"]),
        scale=rng.choice([0.1, 0.15, 0.3]),
        bandwidth_gbps=rng.choice([0.5, 1.0, 2.0]),
    )


# ---------------------------------------------------------------------------
class TestJobKeyStability:
    def test_key_ignores_dict_insertion_order(self):
        for trial in range(N_TRIALS):
            rng = _rng(trial)
            items = [
                (f"field{index}", _random_value(rng))
                for index in range(rng.randint(1, 6))
            ]
            shuffled = list(items)
            rng.shuffle(shuffled)
            assert job_key(dict(items)) == job_key(dict(shuffled))

    def test_spec_key_independent_of_plan_position(self):
        """Permuting a plan's job list never changes any job's key —
        which is exactly what lets a resumed campaign trust rows
        written by a run with a different ordering/worker count."""
        for trial in range(N_TRIALS):
            rng = _rng(trial)
            specs = [_random_spec(rng) for _ in range(rng.randint(2, 8))]
            before = [spec.key() for spec in specs]
            order = list(range(len(specs)))
            rng.shuffle(order)
            after = {position: specs[position].key() for position in order}
            assert all(
                after[position] == before[position] for position in order
            )

    def test_key_tracks_any_field_change(self):
        for trial in range(N_TRIALS):
            rng = _rng(trial)
            spec = _random_spec(rng)
            changed = JobSpec(
                kernel=spec.kernel,
                matrix=spec.matrix,
                mode=spec.mode,
                scale=spec.scale + 0.01,
                bandwidth_gbps=spec.bandwidth_gbps,
            )
            assert changed.key() != spec.key()


# ---------------------------------------------------------------------------
class TestLedgerRoundTrip:
    def test_rows_survive_reopen_byte_exact(self, tmp_path):
        """Whatever JSON-native row goes in comes back verbatim on
        resume, with terminal statuses preserved."""
        for trial in range(N_TRIALS):
            rng = _rng(trial)
            path = tmp_path / f"round{trial}.jsonl"
            n_jobs = rng.randint(1, 10)
            rows = {}
            ledger = RunLedger(path, plan_key=f"plan{trial}")
            for index in range(n_jobs):
                key = f"job{index:02d}"
                ledger.job_started(key, index, 1)
                row = _random_row(rng, index, key)
                if row["status"] == "ok":
                    ledger.job_done(key, row)
                else:
                    ledger.job_quarantined(key, row)
                rows[key] = row
            ledger.close()

            reopened = RunLedger(
                path, plan_key=f"plan{trial}", resume=True
            )
            reopened.close()
            assert set(reopened.completed) == set(rows)
            for key, row in rows.items():
                record = reopened.completed[key]
                assert record["row"] == json.loads(json.dumps(row))
                assert record["type"] == (
                    "done" if row["status"] == "ok" else "quarantined"
                )
            assert reopened.in_flight == []
            assert reopened.n_skipped == 0

    def test_truncation_at_any_byte_never_raises(self, tmp_path):
        """Chopping a ledger at an arbitrary byte offset (what a crash
        mid-write leaves behind) loses at most the torn tail line —
        loading never raises and every intact record survives."""
        for trial in range(N_TRIALS):
            rng = _rng(trial)
            path = tmp_path / f"trunc{trial}.jsonl"
            ledger = RunLedger(path, plan_key="t")
            for index in range(rng.randint(1, 6)):
                key = f"job{index:02d}"
                ledger.job_started(key, index, 1)
                ledger.job_done(key, _random_row(rng, index, key))
            ledger.close()
            blob = path.read_bytes()
            cut = rng.randint(0, len(blob))
            path.write_bytes(blob[:cut])

            records, skipped = read_ledger_records(path)
            assert skipped <= 1
            # Every surviving record is a prefix of what was written.
            full_records = [
                json.loads(line)
                for line in blob.decode("utf-8").splitlines()
            ]
            assert records == full_records[: len(records)]


# ---------------------------------------------------------------------------
class TestMergeProperties:
    def _make_groups(self, rng):
        """A random campaign's published record groups, dealt over a
        random worker count: (key_order, {key: row}, per-worker
        [(key, group)] lists in each worker's publish order)."""
        n_jobs = rng.randint(1, 12)
        keys = [f"job{index:02d}" for index in range(n_jobs)]
        rows = {
            key: _random_row(rng, index, key)
            for index, key in enumerate(keys)
        }
        n_workers = rng.randint(1, 4)
        workers = [[] for _ in range(n_workers)]
        for index, key in enumerate(keys):
            # Rows as a worker publishes them: JSON round-tripped.
            row = json.loads(json.dumps(rows[key]))
            kind = "done" if row["status"] == "ok" else "quarantined"
            workers[index % n_workers].append(
                (
                    key,
                    [
                        {
                            "type": "start",
                            "key": key,
                            "index": index,
                            "attempt": 1,
                        },
                        {"type": kind, "key": key, "row": row},
                    ],
                )
            )
        return keys, rows, workers

    def _store(self, root, keys, workers, rng=None):
        """A real store over ``keys`` with every worker's groups
        published, workers interleaved in a (shuffled) order."""
        jobs = [
            PortableJob(kind="sleep", key=key, label=key, index=index)
            for index, key in enumerate(keys)
        ]
        store = ExperimentStore.create(root, jobs=jobs, name="merge")
        queue = [list(groups) for groups in workers]
        if rng is not None:
            for groups in queue:
                rng.shuffle(groups)
            rng.shuffle(queue)
        while any(queue):
            for groups in queue:
                if groups:
                    key, group = groups.pop(0)
                    store.publish(key, group)
        return store

    def _merged(self, store, keys, target):
        ledger = RunLedger(target, plan_key="m")
        stats = store.merge_into(ledger, keys)
        ledger.close()
        return ledger, stats

    def test_merge_is_shard_order_insensitive(self, tmp_path):
        """merge_into produces byte-identical canonical ledgers no
        matter the order the workers published their groups in."""
        for trial in range(N_TRIALS):
            rng = _rng(trial)
            keys, rows, workers = self._make_groups(rng)
            outputs = []
            for attempt in range(2):
                store = self._store(
                    tmp_path / f"store{trial}_{attempt}", keys, workers, rng
                )
                target = tmp_path / f"out{trial}_{attempt}.jsonl"
                self._merged(store, keys, target)
                outputs.append(target.read_bytes())
            assert outputs[0] == outputs[1]

    def test_merge_is_idempotent(self, tmp_path):
        for trial in range(N_TRIALS):
            rng = _rng(trial)
            keys, rows, workers = self._make_groups(rng)
            store = self._store(tmp_path / f"store{trial}", keys, workers)
            target = tmp_path / f"idem{trial}.jsonl"
            _, first = self._merged(store, keys, target)
            once = target.read_bytes()
            ledger = RunLedger(target, plan_key="m", resume=True)
            second = store.merge_into(ledger, keys)
            ledger.close()
            assert first.merged_jobs == len(keys)
            assert second.merged_jobs == 0
            assert second.merged_records == 0
            assert second.skipped_completed == len(keys)
            assert target.read_bytes() == once

    def test_merge_recovers_every_terminal_row(self, tmp_path):
        for trial in range(N_TRIALS):
            rng = _rng(trial)
            keys, rows, workers = self._make_groups(rng)
            store = self._store(tmp_path / f"store{trial}", keys, workers)
            ledger, _ = self._merged(
                store, keys, tmp_path / f"all{trial}.jsonl"
            )
            assert set(ledger.completed) == set(keys)
            for key in keys:
                assert ledger.completed[key]["row"] == json.loads(
                    json.dumps(rows[key])
                )

    def test_first_published_terminal_wins(self, tmp_path):
        """A second publish of a job (a re-run by a worker that lost
        its lease) never replaces the first group."""
        for trial in range(N_TRIALS):
            rng = _rng(trial)
            keys, rows, workers = self._make_groups(rng)
            store = self._store(tmp_path / f"store{trial}", keys, workers)
            for key in keys:
                late = {"index": 0, "key": key, "status": "late"}
                assert not store.publish(
                    key, [{"type": "done", "key": key, "row": late}]
                )
            ledger, _ = self._merged(
                store, keys, tmp_path / f"first{trial}.jsonl"
            )
            for key in keys:
                assert ledger.completed[key]["row"]["status"] != "late"


# ---------------------------------------------------------------------------
class TestStorageTruncationProperties:
    """A result group or ledger chopped at *any* byte offset is either
    fully recovered or deterministically flagged and quarantined by
    ``repro fsck`` — never silently half-read (docs/robustness.md,
    "storage faults and repair")."""

    def _store_with_group(self, tmp_path):
        from repro.runner.store import ExperimentStore
        from repro.runner.supervisor import SupervisorConfig
        from repro.runner.worker import PortableJob

        store = ExperimentStore.create_or_attach(
            tmp_path / "store",
            jobs=[
                PortableJob(
                    kind="sleep",
                    key="s00",
                    label="sleep-0",
                    index=0,
                    payload={"seconds": 0.0, "value": 0},
                )
            ],
            name="trunc",
            config=SupervisorConfig(max_retries=1, backoff_base_s=0.0),
        )
        store.publish(
            "s00",
            [
                {"type": "start", "key": "s00", "index": 0, "attempt": 1},
                {
                    "type": "done",
                    "key": "s00",
                    "row": {"index": 0, "key": "s00", "status": "ok"},
                },
            ],
        )
        return store

    def test_group_truncation_never_silently_half_read(self, tmp_path):
        import shutil

        from repro.errors import StorageError
        from repro.runner.fsck import QUARANTINE_DIR, run_fsck

        store = self._store_with_group(tmp_path)
        path = store.result_path("s00")
        blob = path.read_bytes()
        full = store.read_result("s00")
        quarantine = store.root / QUARANTINE_DIR
        for cut in range(len(blob) + 1):
            path.write_bytes(blob[:cut])
            try:
                records = store.read_result("s00")
            except StorageError:
                detected = True
            else:
                detected = False
                if cut == len(blob):
                    assert records == full
                    continue
                # A line-boundary cut can parse; it must either keep
                # every job record (only the trailer lost) or be
                # caught by fsck's terminal check below.
                assert records == full[: len(records)]
                if records == full:
                    continue
            report = run_fsck(store.root, repair=True)
            assert report.exit_code() == 0
            kinds = {f.kind for f in report.findings}
            assert kinds & {"group_corrupt", "group_no_terminal"}, (
                f"cut {cut}: damage undetected "
                f"(read {'raised' if detected else 'parsed'})"
            )
            # Deterministic quarantine: the job is open again, never
            # half-settled.
            assert store.read_result("s00") is None
            if quarantine.exists():
                shutil.rmtree(quarantine)
        path.write_bytes(blob)
        assert run_fsck(store.root).clean

    def test_ledger_truncation_fsck_round_trip(self, tmp_path):
        """Any byte-level ledger truncation either repairs to a clean
        re-scan preserving the intact-prefix terminals, or (header
        lost) is reported unrepairable — never a crash, never silent
        row loss."""
        from repro.runner.fsck import run_fsck

        for trial in range(N_TRIALS):
            rng = _rng(trial)
            path = tmp_path / f"fsck{trial}.jsonl"
            ledger = RunLedger(path, plan_key="t")
            for index in range(rng.randint(1, 6)):
                key = f"job{index:02d}"
                ledger.job_started(key, index, 1)
                ledger.job_done(key, _random_row(rng, index, key))
            ledger.close()
            blob = path.read_bytes()
            cut = rng.randint(0, len(blob))
            path.write_bytes(blob[:cut])

            surviving, _skipped = read_ledger_records(path)
            survivors = {
                r["key"]: r
                for r in surviving
                if r.get("type") in ("done", "quarantined")
            }
            report = run_fsck(path, repair=True)
            if not any(r.get("type") == "header" for r in surviving):
                assert report.exit_code() == 1
                assert "ledger_headerless" in {
                    f.kind for f in report.findings
                }
                continue
            assert report.exit_code() == 0
            rescan = run_fsck(path)
            assert rescan.clean
            records, skipped = read_ledger_records(path)
            assert skipped == 0
            terminals = {
                r["key"]: r
                for r in records
                if r.get("type") in ("done", "quarantined")
            }
            assert terminals == survivors
