"""Campaign benchmark: cold, warm and two-worker store workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload t5-cold --seed 0 --seconds 50 --trace 0

``BENCHMARK.json`` gates ``t5-cold`` and ``store-2w``; ``t5-warm`` is
run by hand (see ``perfbench/README.md`` for why). ``--trace 0`` prints the end-to-end metrics of untraced campaigns;
``--trace 1`` alternates untraced and traced campaigns and prints the
per-layer metrics (see ``perfbench/README.md`` for what each measures
and which end-to-end metric it should move). Every campaign's report is
hashed and checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import common
import tracing

#: Hard limit on one run; children are killed past it.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS: Dict[str, str] = {
    "campaign_s": "s",
    "setup_s": "s",
    "first_result_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS: Dict[str, str] = {"process.import_s": "s"}
PER_LAYER_UNITS.update({name: "s" for name in tracing.SELF_TIME_METRICS})
PER_LAYER_UNITS.update({name: "count" for name in tracing.CALL_METRICS})
PER_LAYER_UNITS.update({name: "ratio" for name in tracing.RATIO_METRICS})
PER_LAYER_UNITS.update(
    {
        "runner.store.worker_skew": "ratio",
        "trace.coverage": "ratio",
        "trace.overhead": "ratio",
    }
)


class Context:
    """One benchmark invocation: arguments plus its scratch directory."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = float(args.seconds)
        self.trace: bool = bool(args.trace)
        self.tiny: bool = args.tiny
        self.expected_hash: Optional[str] = args.expected_hash
        self.params = common.WORKLOADS["tiny" if args.tiny else "full"][
            args.workload
        ]
        self.work = work
        self.started = time.monotonic()
        #: Every child started, so none outlives the run.
        self.children: List[subprocess.Popen] = []
        self._n = 0

    def stop_children(self) -> None:
        for process in self.children:
            if process.poll() is None:
                process.kill()
            process.wait()

    def fresh_dir(self, prefix: str) -> Path:
        self._n += 1
        path = self.work / f"{prefix}{self._n}"
        path.mkdir(parents=True)
        return path

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def recorded_hash(self) -> Optional[str]:
        """The hash every campaign must match, when one is recorded."""
        if self.expected_hash is not None:
            return self.expected_hash
        if self.tiny or self.seed != common.DEFAULT_SEED:
            return None
        return common.load_expected()[self.workload]

    def keep_going(self, elapsed: List[float]) -> bool:
        """Whether another campaign of typical length fits the budget;
        traced runs need at least one untraced and one traced."""
        if len(elapsed) < (2 if self.trace else 1):
            return True
        typical = common.median(elapsed)
        spent = time.monotonic() - self.started
        return spent + typical <= self.seconds


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
def start_child(ctx: Context, mode: str, cwd: Path, **fields):
    """Start ``child.py`` in ``cwd``; returns (process, result path)."""
    out = cwd / f"{mode}-result.json"
    config = {
        "mode": mode,
        "root": str(common.ROOT),
        "seed": ctx.seed,
        "params": ctx.params,
        "trace": False,
        "out": str(out),
        **fields,
    }
    config_path = cwd / f"{mode}-config.json"
    config["launch"] = time.monotonic()
    config_path.write_text(json.dumps(config), encoding="utf-8")
    process = subprocess.Popen(
        [sys.executable, str(common.BENCH_DIR / "child.py"), str(config_path)],
        cwd=str(cwd),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    ctx.children.append(process)
    return process, out


def finish_child(ctx: Context, process, out: Path) -> Optional[dict]:
    """Wait for a child (killing it past the run limit); its result."""
    try:
        code = process.wait(timeout=max(1.0, ctx.remaining()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        code = None
    if code != 0 or not out.is_file():
        print(f"child {out.name} failed (exit {code})", file=sys.stderr)
        return None
    with out.open(encoding="utf-8") as handle:
        return json.load(handle)


def run_child(ctx: Context, mode: str, cwd: Path, **fields) -> Optional[dict]:
    return finish_child(ctx, *start_child(ctx, mode, cwd, **fields))


# ---------------------------------------------------------------------------
# Workloads. Each returns a "measurement": per-campaign records
# (campaign_s, rows, traced, spans) plus per-process figures.
# ---------------------------------------------------------------------------
def measure_t5_cold(ctx: Context) -> dict:
    campaigns: List[dict] = []
    processes: List[dict] = []
    n_failed_processes = 0
    elapsed: List[float] = []
    while ctx.keep_going(elapsed):
        traced = ctx.trace and len(elapsed) % 2 == 1
        began = time.monotonic()
        result = run_child(
            ctx, "cold", ctx.fresh_dir("cold"), trace=traced
        )
        elapsed.append(time.monotonic() - began)
        if result is None:
            n_failed_processes += 1
            continue
        processes.append(result)
        campaigns.extend(result["campaigns"])
    return {
        "campaigns": campaigns,
        "processes": processes,
        "lost_campaigns": n_failed_processes,
        "reference": None,
    }


def measure_t5_warm(ctx: Context) -> dict:
    # The child spends the whole budget on timed passes after set-up.
    result = run_child(
        ctx,
        "warm",
        ctx.fresh_dir("warm"),
        trace=ctx.trace,
        seconds=ctx.seconds,
    )
    if result is None:
        return {
            "campaigns": [],
            "processes": [],
            "lost_campaigns": 1,
            "reference": None,
        }
    return {
        "campaigns": result["campaigns"],
        "processes": [result],
        "lost_campaigns": 0,
        # Every timed pass must reproduce the cache-filling pass.
        "reference": common.rows_hash(result["fill_rows"]),
    }


def measure_store_2w(ctx: Context) -> dict:
    sys.path.insert(0, str(common.SRC))
    from repro.runner import ExperimentStore, run_plan
    from repro.runner.ledger import TERMINAL_TYPES, read_ledger_records

    plan = common.store_plan(ctx.params, ctx.seed)
    campaigns: List[dict] = []
    processes: List[dict] = []
    lost = 0
    elapsed: List[float] = []
    while ctx.keep_going(elapsed):
        traced = ctx.trace and len(elapsed) % 2 == 1
        root = ctx.fresh_dir("store")
        tracer = tracing.Tracer()
        began = time.monotonic()
        with tracer.span("runner.supervise"):
            ExperimentStore.create(root / "store", plan=plan)
        created = time.monotonic()
        started = [
            start_child(
                ctx,
                "worker",
                ctx.fresh_dir("worker"),
                trace=traced,
                store=str(root / "store"),
            )
            for _ in range(ctx.params["workers"])
        ]
        workers = [finish_child(ctx, *pair) for pair in started]
        done = time.monotonic()
        elapsed.append(done - began)
        records, _ = read_ledger_records(root / "store" / "ledger.jsonl")
        rows = [rec["row"] for rec in records if rec["type"] in TERMINAL_TYPES]
        if any(worker is None for worker in workers):
            lost += 1
            continue
        processes.extend(workers)
        busy = [
            (w["done"] - w["ready"])
            - w["spans"]["stats"].get("runner.store.idle", [0, 0.0, 0.0])[2]
            for w in workers
        ]
        campaigns.append(
            {
                "campaign_s": done - began,
                "rows": rows,
                "traced": traced,
                "spans": tracing.merge_dumps(
                    [tracer.dump()] + [w["spans"] for w in workers]
                ),
                "first_result_s": min(
                    w["first_result"]
                    for w in workers
                    if w["first_result"] is not None
                )
                - began,
                "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
                # Time the spans can account for: store creation plus
                # each worker's claim loop.
                "span_wall_s": (created - began)
                + sum(w["done"] - w["ready"] for w in workers),
                "worker_skew": max(busy) / (sum(busy) / len(busy)),
            }
        )
    # The store's contract: its ledger equals a serial run of the plan.
    serial = run_plan(plan)
    return {
        "campaigns": campaigns,
        "processes": processes,
        "lost_campaigns": lost,
        "reference": common.rows_hash(serial.rows),
    }


MEASURE: Dict[str, Callable[[Context], dict]] = {
    "t5-cold": measure_t5_cold,
    "t5-warm": measure_t5_warm,
    "store-2w": measure_store_2w,
}


# ---------------------------------------------------------------------------
# Checking and reporting
# ---------------------------------------------------------------------------
def check(ctx: Context, measurement: dict, n_jobs: int, lines: List[str]):
    """Returns (correct, attempted, failed) over every campaign."""
    campaigns = measurement["campaigns"]
    attempted = n_jobs * (len(campaigns) + measurement["lost_campaigns"])
    failed = n_jobs * measurement["lost_campaigns"]
    recorded = ctx.recorded_hash()
    reference = measurement["reference"]
    hashes = [common.rows_hash(c["rows"]) for c in campaigns]
    # Without a recorded hash, the campaigns must agree with each other
    # (and with the workload's own reference run, when it has one).
    expected = recorded or reference or (hashes[0] if hashes else None)
    if recorded is not None and reference is not None and reference != recorded:
        lines.append(f"reference run hash {reference[:16]} != recorded")
        failed = attempted
    for campaign, digest in zip(campaigns, hashes):
        problems = common.row_problems(campaign["rows"], n_jobs)
        if problems or digest != expected:
            failed = min(attempted, failed + n_jobs)
            detail = "; ".join(problems[:3]) or f"hash {digest[:16]}"
            lines.append(f"campaign check FAILED: {detail}")
    source = (
        "recorded"
        if recorded
        else "reference run"
        if reference
        else "first campaign"
    )
    lines.append(
        f"report hash {expected or '-'} "
        f"(checked against {source}; "
        f"traced campaigns: {sum(c['traced'] for c in campaigns)})"
    )
    lines.append(
        f"failed_frac {failed}/{attempted} = "
        f"{failed / attempted if attempted else 0.0:.4f}"
    )
    return failed == 0 and attempted > 0, attempted, failed


def end_to_end(measurement: dict, lines: List[str]) -> Dict[str, float]:
    untraced = [c for c in measurement["campaigns"] if not c["traced"]]
    processes = measurement["processes"]
    durations = [row["duration_s"] for c in untraced for row in c["rows"]]
    elapsed = sorted(c["campaign_s"] for c in untraced)
    lines.append(
        f"campaign_s over {len(elapsed)} campaigns: min {elapsed[0]:.3f} "
        f"median {common.median(elapsed):.3f} max {elapsed[-1]:.3f}"
    )
    lines.append(
        f"job latency from {len(durations)} jobs "
        f"over {len(untraced)} campaigns"
    )
    return {
        "campaign_s": common.median([c["campaign_s"] for c in untraced]),
        "setup_s": common.median([p["setup_s"] for p in processes]),
        "first_result_s": common.median(
            [c["first_result_s"] for c in untraced]
        ),
        "job_p50_s": common.percentile(durations, 50),
        "job_p90_s": common.percentile(durations, 90),
        "peak_rss_mb": common.median([c["peak_rss_mb"] for c in untraced]),
    }


def per_layer(measurement: dict, lines: List[str]) -> Dict[str, float]:
    campaigns = measurement["campaigns"]
    traced = [c for c in campaigns if c["traced"]]
    untraced = [c for c in campaigns if not c["traced"]]
    merged = tracing.merge_dumps([c["spans"] for c in traced])
    metrics = tracing.layer_metrics(merged, len(traced))
    metrics["process.import_s"] = common.median(
        [p["import_s"] for p in measurement["processes"]]
    )
    span_wall = sum(c.get("span_wall_s", c["campaign_s"]) for c in traced)
    metrics["trace.coverage"] = tracing.total_self(merged) / span_wall
    metrics["trace.overhead"] = (
        common.median([c["campaign_s"] for c in traced])
        / common.median([c["campaign_s"] for c in untraced])
        - 1.0
    )
    metrics["runner.store.worker_skew"] = common.median(
        [c.get("worker_skew", 1.0) for c in traced]
    )
    total = tracing.total_self(merged) / len(traced)
    shares: Dict[str, float] = {}
    for name in tracing.SELF_TIME_METRICS:
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + metrics[name] / total
    lines.append(
        "self-time share per traced campaign: "
        + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
    )
    bases = tracing.ratio_bases(merged)
    lines.append(
        "ratio bases (attempts, all traced campaigns): "
        + ", ".join(f"{k} {v}" for k, v in bases.items())
    )
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MEASURE))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink every workload (self-test only; not a measurement)",
    )
    parser.add_argument(
        "--expected-hash",
        help="check every campaign against this report hash instead",
    )
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure at {common.SRC / 'repro'}",
            file=sys.stderr,
        )
        return 2

    # SIGTERM unwinds like an error, so the children are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = common.WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(args, work)
    try:
        measurement = MEASURE[args.workload](ctx)
    finally:
        ctx.stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            common.WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    lines = [
        f"workload {args.workload} seed {args.seed}: "
        f"{len(measurement['campaigns'])} campaigns, "
        f"{measurement['lost_campaigns']} lost"
    ]
    n_jobs = common.n_jobs(ctx.params)
    correct, attempted, failed = check(ctx, measurement, n_jobs, lines)
    rows = [row for c in measurement["campaigns"][:1] for row in c["rows"]]
    for scheme in ("SparseAdapt", "Best Avg"):
        gain = common.headline(rows, scheme)
        if gain is not None:
            lines.append(
                f"headline (simulated, not timed): {scheme} EE "
                f"efficiency gain geomean over Baseline = {gain:.4f}x"
            )
            break
    kinds = {c["traced"] for c in measurement["campaigns"]}
    if kinds != ({False, True} if ctx.trace else {False}):
        for line in lines:
            print(line)
        print(
            f"error: too few campaigns of {args.workload} completed",
            file=sys.stderr,
        )
        return 1
    if ctx.trace:
        values = per_layer(measurement, lines)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(measurement, lines)
        units = END_TO_END_UNITS
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
