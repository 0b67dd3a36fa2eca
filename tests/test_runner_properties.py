"""Property-based tests for the runner's durability primitives:
content-addressed job-key stability under plan permutation, ledger
round-trips through arbitrary JSON-native rows, byte-level truncation
robustness, the publish-order insensitivity + idempotence of the
store's record-group merge (``ExperimentStore.merge_into``) — all on
seeded ``random.Random`` streams — and, with hypothesis, agreement of
every ledger reader on ledgers interleaving valid and malformed
records."""

import json
import random
import string
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.compare import ledger_terminal_rows
from repro.obs.live import read_live
from repro.runner import (
    ExperimentStore,
    JobSpec,
    PortableJob,
    RunLedger,
    job_key,
)
from repro.runner.ledger import read_ledger_records
from repro.runner.report import summarize_ledger

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
                    "row": {
                        "index": 0,
                        "key": "s00",
                        "label": "s00",
                        "status": "ok",
                        "attempts": 1,
                    },
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


# ---------------------------------------------------------------------------
_KEYS = st.sampled_from(["k0", "k1", "k2", "k3"])


def _valid_line(kind, key):
    if kind == "start":
        return {"type": "start", "key": key, "index": 0, "attempt": 1}
    if kind == "retry":
        return {"type": "retry", "key": key, "attempt": 1, "error": "x",
                "backoff_s": 0.0}
    if kind == "done":
        return {"type": "done", "key": key,
                "row": {"key": key, "label": key, "status": "ok",
                        "attempts": 1}}
    return {"type": "quarantined", "key": key,
            "row": {"key": key, "label": key, "status": "failed",
                    "attempts": 1, "failure": {"kind": "error"}}}


#: ``("valid", record)`` lines fold into job state.
_VALID_LINES = st.one_of(
    st.builds(
        _valid_line,
        st.sampled_from(["start", "retry", "done", "quarantined"]),
        _KEYS,
    ),
    st.just({"type": "merge", "workers": 2, "by_worker": []}),
    st.just({"type": "header", "version": 1, "plan_key": "other"}),
).map(lambda record: ("valid", json.dumps(record)))

#: ``("skip", text)`` lines are damage every reader skips and counts.
_MALFORMED_LINES = st.one_of(
    st.builds(
        lambda kind: json.dumps({"type": kind, "row": {"status": "ok"}}),
        st.sampled_from(["start", "retry", "done", "quarantined"]),
    ),
    st.builds(
        lambda kind, key: json.dumps(
            {"type": kind, "key": key, "row": {"status": "ok"}}
        ),
        st.sampled_from(["start", "done", "quarantined"]),
        st.one_of(st.integers(), st.none(), st.lists(st.integers())),
    ),
    st.builds(
        lambda kind, key, row: json.dumps(
            {"type": kind, "key": key, "row": row}
        ),
        st.sampled_from(["done", "quarantined"]),
        _KEYS,
        st.one_of(st.text(max_size=5), st.none(), st.lists(st.integers())),
    ),
    st.sampled_from(
        ['[1, 2]', '7', '"done"', '{"key": "k0"}', '{"type": 3}',
         '{"type": "do', '{"type": "done", "key": "k1", "ro']
    ),
).map(lambda text: ("skip", text))


class TestLedgerReadersAgree:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(_VALID_LINES, _MALFORMED_LINES, st.just(("blank", ""))),
            max_size=30,
        )
    )
    def test_settled_keys_order_counts_and_skips(self, lines):
        """Resume, ``suite-report``, ``compare``'s scrape and ``repro
        top`` fold any mix of valid and malformed records to the same
        settled keys, order, ok/failed split and skipped count."""
        settled, started, skipped = {}, {}, 0
        for kind, text in lines:
            if kind == "skip":
                skipped += 1
            elif kind == "valid":
                record = json.loads(text)
                if record["type"] in ("done", "quarantined"):
                    settled.setdefault(record["key"], record)
                elif record["type"] == "start":
                    started.setdefault(record["key"], True)
        order = list(settled)
        n_ok = sum(1 for r in settled.values() if r["type"] == "done")
        n_failed = len(settled) - n_ok
        in_flight = [key for key in started if key not in settled]

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.jsonl"
            header = {"type": "header", "version": 1, "plan_key": "p",
                      "plan_name": "prop"}
            path.write_text(
                "".join(
                    text + "\n"
                    for text in [json.dumps(header)]
                    + [text for _, text in lines]
                ),
                encoding="utf-8",
            )

            ledger = RunLedger(path, plan_key="p", resume=True)
            ledger.close()
            assert list(ledger.completed) == order
            assert ledger.in_flight == in_flight
            assert ledger.n_skipped == skipped

            summary = summarize_ledger(path)
            assert summary["jobs"] == {
                "total": len(order),
                "ok": n_ok,
                "failed": n_failed,
                "in_flight": len(in_flight),
            }
            assert summary["in_flight_keys"] == sorted(in_flight)
            assert summary["torn_lines"] == skipped

            _, rows = ledger_terminal_rows(path)
            assert [row["key"] for row in rows] == order

            live = read_live(path, now=0.0)
            assert (live.done, live.failed) == (n_ok, n_failed)
            assert live.torn_lines == skipped
