"""Fast self-test of the campaign benchmark at tiny scale.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is printed, with
its unit, by every workload in both trace modes, that a correct run
reports no failures, and that the correctness check fails every job of
a run whose report does not match a deliberately altered hash.
"""

from __future__ import annotations

import json
import subprocess
import sys

import common
import run


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def bench(workload: str, trace: int, *extra: str) -> dict:
    command = [
        sys.executable,
        str(common.BENCH_DIR / "run.py"),
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        str(trace),
        "--tiny",
        *extra,
    ]
    done = subprocess.run(
        command,
        cwd=str(common.ROOT),
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    expect(done.returncode == 0, f"{command} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(wanted[0] == run.END_TO_END_UNITS, "end_to_end list drifted")
    expect(wanted[1] == run.PER_LAYER_UNITS, "per_layer list drifted")
    names = {w["name"] for w in spec["workloads"]}
    expect(names <= set(run.MEASURE), "BENCHMARK.json names a workload run.py lacks")

    # t5-warm is runnable by hand though not in BENCHMARK.json: test it too.
    for workload in sorted(run.MEASURE):
        for trace in (0, 1):
            result = bench(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: wrong result keys {sorted(result)}",
            )
            expect(result["correct"], f"{label}: incorrect output")
            expect(result["failed"] == 0, f"{label}: failed jobs")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            printed = {
                name: entry["unit"]
                for name, entry in result["metrics"].items()
            }
            expect(
                printed == wanted[trace],
                f"{label}: metrics {printed} != {wanted[trace]}",
            )
            print(f"ok   {label}: {len(printed)} metrics")

    altered = bench("store-2w", 0, "--expected-hash", "0" * 64)
    expect(not altered["correct"], "altered hash was not detected")
    expect(
        altered["failed"] == altered["attempted"],
        "an altered hash must fail every job of the run",
    )
    print("ok   altered report hash fails the correctness check")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
