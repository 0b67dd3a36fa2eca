"""One damaged-ledger corpus through every verb that reads a ledger.

Each case damages a copy of one small serial campaign ledger the way a
crash, a disk or a hand edit can: a keyless ``start``, a keyless
``done``, a non-string key, a non-dict ``row``, a duplicated terminal
record, a lost header, a torn final line, and well-shaped records
whose converted fields hold odd types (a non-numeric or huge heartbeat
count, a string ``failure`` or ``attempts``, a non-list or odd
``by_worker``), or whose row lacks a field every terminal row carries
(a string ``status`` and ``label``, an integer ``attempts``). Every
reader folds the file through :func:`repro.runner.ledger.fold_ledger`,
so resume, ``suite-run --resume``, ``suite-report`` (and ``--diff``),
``top``, ``compare``, ``ledger-compact`` and ``fsck`` must all agree on
the settled job count and the skipped-line count, exit per the CLI
contract, and never raise a traceback (docs/robustness.md, "The run
ledger and ``--resume``").
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.runner import CampaignPlan, RunLedger

PLAN = {
    "name": "damage",
    "defaults": {"scale": 0.15, "schemes": ["Baseline", "Best Avg"]},
    "jobs": [
        {"kernel": "spmspv", "matrix": "P1"},
        {"kernel": "spmspv", "matrix": "U1"},
    ],
}

#: case -> (lines appended to the intact ledger, skipped-line count).
#: The "headerless" and "duplicate_terminal" cases are built below.
APPENDED = {
    "keyless_start": ['{"type": "start", "index": 0, "attempt": 1}\n'],
    "keyless_done": ['{"type": "done", "row": {"status": "ok"}}\n'],
    "nonstring_key": ['{"type": "done", "key": 7, "row": {"status": "ok"}}\n'],
    "nondict_row": ['{"type": "done", "key": "feedbeef", "row": "oops"}\n'],
    "torn_tail": ['{"type": "done", "ke'],
    # Well-shaped records whose fields a reader converts hold odd types.
    "nonnumeric_heartbeat": [
        '{"type": "heartbeat", "ts": 1.0, "done": "x", "failed": 0,'
        ' "total": 3}\n'
    ],
    # An integer no float can hold.
    "huge_heartbeat_count": [
        '{"type": "heartbeat", "ts": 1.0, "done": 1' + "0" * 400 + ','
        ' "failed": 0, "total": 3}\n'
    ],
    "string_failure": [
        '{"type": "done", "key": "feedbeef",'
        ' "row": {"status": "failed", "failure": "boom"}}\n'
    ],
    "string_attempts": [
        '{"type": "done", "key": "feedbeef",'
        ' "row": {"status": "ok", "attempts": "x"}}\n'
    ],
    # Terminal rows missing a field the executor always writes.
    "statusless_row": [
        '{"type": "done", "key": "feedbeef",'
        ' "row": {"label": "x", "attempts": 1}}\n'
    ],
    "labelless_row": [
        '{"type": "done", "key": "feedbeef",'
        ' "row": {"status": "ok", "attempts": 1}}\n'
    ],
    "fractional_attempts": [
        '{"type": "done", "key": "feedbeef",'
        ' "row": {"status": "ok", "label": "x", "attempts": 1.5}}\n'
    ],
    "nonlist_by_worker": ['{"type": "merge", "workers": 2, "by_worker": 5}\n'],
    "odd_worker_entry": [
        '{"type": "merge", "workers": 1,'
        ' "by_worker": [{"worker": 0, "jobs": 1, "duration_s": "x"}]}\n'
    ],
}
SKIPPED = {
    "keyless_start": 1,
    "keyless_done": 1,
    "nonstring_key": 1,
    "nondict_row": 1,
    "torn_tail": 1,
    "nonnumeric_heartbeat": 1,
    "huge_heartbeat_count": 1,
    "string_failure": 1,
    "string_attempts": 1,
    "statusless_row": 1,
    "labelless_row": 1,
    "fractional_attempts": 1,
    "nonlist_by_worker": 1,
    "odd_worker_entry": 1,
    "duplicate_terminal": 0,
}
CASES = sorted(SKIPPED) + ["headerless"]


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    root = tmp_path_factory.mktemp("intact")
    plan = root / "plan.json"
    plan.write_text(json.dumps(PLAN), encoding="utf-8")
    ledger = root / "run.jsonl"
    assert main(["suite-run", str(plan), "--ledger", str(ledger)]) == 0
    return plan, ledger


@pytest.fixture(params=CASES)
def damaged(request, intact, tmp_path):
    """``(case, plan path, intact ledger path, damaged ledger path)``."""
    plan, source = intact
    path = tmp_path / "run.jsonl"
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    case = request.param
    if case == "headerless":
        lines = lines[1:]
    elif case == "duplicate_terminal":
        done = next(line for line in lines if '"type":"done"' in line)
        record = json.loads(done)
        record["row"] = dict(record["row"], status="failed")
        lines.append(json.dumps(record) + "\n")
    else:
        lines.extend(APPENDED[case])
    path.write_text("".join(lines), encoding="utf-8")
    return case, plan, source, path


def _run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return rc, out, err


def test_resume_fold(damaged):
    case, plan, _, path = damaged
    plan_key = CampaignPlan.from_file(plan).key()
    if case == "headerless":
        with pytest.raises(ConfigError, match="missing header"):
            RunLedger(path, plan_key=plan_key, resume=True)
        return
    ledger = RunLedger(path, plan_key=plan_key, resume=True)
    ledger.close()
    assert len(ledger.completed) == 2
    assert ledger.in_flight == []
    assert ledger.n_skipped == SKIPPED[case]


def test_every_verb_agrees(damaged, capsys, tmp_path):
    case, plan, source, path = damaged
    ledger = str(path)
    reads = {
        "suite-report": ["suite-report", ledger, "--json"],
        "diff": ["suite-report", str(source), "--diff", ledger, "--json"],
        "top": ["top", ledger, "--once", "--json"],
        "compare": ["compare", ledger, "--json"],
        "compact": [
            "ledger-compact", ledger, "--out", str(tmp_path / "c.jsonl"),
            "--json",
        ],
        "fsck": ["fsck", ledger, "--json"],
    }
    results = {name: _run(capsys, argv) for name, argv in reads.items()}
    resume_copy = tmp_path / "resume.jsonl"
    shutil.copyfile(path, resume_copy)
    results["resume"] = _run(
        capsys,
        ["suite-run", str(plan), "--ledger", str(resume_copy), "--resume",
         "--json"],
    )

    if case == "headerless":
        for name, (rc, _, err) in results.items():
            if name == "fsck":
                # A bare headerless ledger has no source to rebuild from.
                assert rc == 1
                assert "ledger_headerless" in results["fsck"][1]
                continue
            assert rc == 1, name
            assert err.startswith("error:"), name
            assert "missing header" in err, name
        return

    skipped = SKIPPED[case]
    rcs = {name: rc for name, (rc, _, _) in results.items()}
    assert rcs == {
        "suite-report": 0,
        "diff": 0,
        "top": 0,
        "compare": 0,
        "compact": 0,
        "fsck": 3 if skipped else 0,
        "resume": 0,
    }
    payload = {name: out for name, (_, out, _) in results.items()}
    summary = json.loads(payload["suite-report"])
    assert summary["jobs"]["total"] == 2
    assert summary["torn_lines"] == skipped
    diff = json.loads(payload["diff"])
    assert diff["identical"] and diff["same"] == 2
    assert diff["b"]["torn_lines"] == skipped
    top = json.loads(payload["top"])
    assert top["done"] + top["failed"] == 2
    assert top.get("torn_lines", 0) == skipped
    compared = json.loads(payload["compare"])["comparison"]
    assert len(compared["workloads"]) == 2
    stats = json.loads(payload["compact"])
    assert stats["jobs"] == 2
    assert stats["torn_lines"] == skipped
    fsck = json.loads(payload["fsck"])
    if skipped:
        (finding,) = fsck["findings"]
        assert finding["kind"] == "ledger_torn"
        assert finding["detail"].startswith(f"{skipped} damaged line(s)")
    else:
        assert fsck["clean"]
    resumed = json.loads(payload["resume"])
    assert resumed["counts"] == {"ok": 2, "failed": 0}
    assert resumed["n_resumed"] == 2


def test_text_views_count_the_line(damaged, capsys):
    """The text renderings of ``suite-report`` and ``top`` read the
    same fields as their JSON, plus the merge's per-worker entries."""
    case, _, _, path = damaged
    if case == "headerless":
        return
    for argv in (["suite-report", str(path)], ["top", str(path), "--once"]):
        rc, out, _ = _run(capsys, argv)
        assert rc == 0, argv
        assert ("torn lines: 1" in out) == bool(SKIPPED[case]), argv


@pytest.mark.parametrize(
    "row",
    [
        {},
        {"label": "x", "attempts": 1},
        {"status": "ok", "attempts": 1},
        {"status": "ok", "label": "x", "attempts": 1.5},
        {"status": "ok", "label": "x", "attempts": True},
    ],
    ids=["empty", "no_status", "no_label", "float_attempts", "bool_attempts"],
)
def test_odd_terminal_row_of_a_pending_job_reruns(
    intact, tmp_path, capsys, row
):
    """A terminal record that stands in for a job's only result but
    lacks a row field is a damaged line: resume re-runs the job, and
    the line counts as torn, never as a result."""
    plan, source = intact
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if '"type":"done"' in line)
    key = json.loads(lines[last])["key"]
    lines[last] = json.dumps({"type": "done", "key": key, "row": row}) + "\n"
    path = tmp_path / "run.jsonl"
    path.write_text("".join(lines), encoding="utf-8")

    rc, out, _ = _run(capsys, ["suite-report", str(path), "--json"])
    assert rc == 0
    summary = json.loads(out)
    assert summary["torn_lines"] == 1
    assert summary["jobs"]["total"] == 1

    rc, out, _ = _run(
        capsys,
        ["suite-run", str(plan), "--ledger", str(path), "--resume", "--json"],
    )
    assert rc == 0
    resumed = json.loads(out)
    assert resumed["counts"] == {"ok": 2, "failed": 0}
    assert resumed["n_resumed"] == 1
