"""One benchmark process: a cold campaign, warm passes, or a store worker.

Started by ``run.py`` as ``python3 perfbench/child.py CONFIG.json``; the
config names the mode, the launch time (``time.monotonic()`` of the
parent just before the process was started; the clock is system-wide),
and where to write the JSON result. Each mode times itself from outside
the program and, when ``trace`` is set, records layer spans with the
wrappers of ``tracing.py``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Callable

import common
import tracing


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_repro(root: str) -> float:
    """Import the program from the checkout's ``src``; returns seconds."""
    sys.path.insert(0, str(Path(root) / "src"))
    start = time.monotonic()
    import repro.experiments.harness  # noqa: F401
    import repro.runner  # noqa: F401

    return time.monotonic() - start


def _campaign(run: Callable[[], object], traced: bool) -> dict:
    """Run one campaign under the probe (and, if traced, every layer
    wrapper); the result plus monotonic start, first-result and end."""
    first = tracing.FirstResult()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer if traced else None, first)
    start = time.monotonic()
    try:
        if traced:
            with tracer.span("runner.supervise"):
                result = run()
        else:
            result = run()
    finally:
        undo()
    return {
        "result": result,
        "start": start,
        "first": first.at,
        "done": time.monotonic(),
        "traced": traced,
        "spans": tracer.dump(),
    }


def _record(campaign: dict, rows, first_from: float) -> dict:
    return {
        "campaign_s": campaign["done"] - campaign["start"],
        "first_result_s": campaign["first"] - first_from,
        "rows": rows,
        "traced": campaign["traced"],
        "spans": campaign["spans"],
    }


def run_cold(config: dict, import_s: float) -> dict:
    """One cold Table-5 campaign with an fsynced ledger in an empty cwd."""
    from repro.runner import run_plan

    plan = common.t5_plan(config["params"], config["seed"])
    campaign = _campaign(
        lambda: run_plan(plan, ledger_path="ledger.jsonl"), config["trace"]
    )
    launch = config["launch"]
    record = _record(campaign, campaign["result"].rows, first_from=launch)
    record["peak_rss_mb"] = _peak_rss_mb()
    return {
        "import_s": import_s,
        "setup_s": campaign["start"] - launch,
        "campaigns": [record],
    }


def run_warm(config: dict, import_s: float) -> dict:
    """Fill every cache with one untimed pass, then time repeated passes
    of the same plan until the budget is spent. Traced runs alternate
    untraced and traced passes so both see the same cache state."""
    from repro.runner import run_plan

    plan = common.t5_plan(config["params"], config["seed"])
    fill = run_plan(plan)
    ready = time.monotonic()
    deadline = ready + config["seconds"]
    passes = []
    while True:
        traced = config["trace"] and len(passes) % 2 == 1
        campaign = _campaign(lambda: run_plan(plan), traced)
        passes.append(
            _record(
                campaign, campaign["result"].rows, first_from=campaign["start"]
            )
        )
        enough = len(passes) >= (2 if config["trace"] else 1)
        typical = common.median([p["campaign_s"] for p in passes])
        if enough and time.monotonic() + typical > deadline:
            break
    rss = _peak_rss_mb()
    for record in passes:
        record["peak_rss_mb"] = rss
    return {
        "import_s": import_s,
        "setup_s": ready - config["launch"],
        "fill_rows": fill.rows,
        "campaigns": passes,
    }


def run_worker(config: dict, import_s: float) -> dict:
    """One store worker: attach, claim-execute-publish, finalize."""
    from repro.runner import ExperimentStore, run_store_worker

    store = ExperimentStore.attach(config["store"])
    campaign = _campaign(lambda: run_store_worker(store), config["trace"])
    return {
        "import_s": import_s,
        "setup_s": campaign["start"] - config["launch"],
        "ready": campaign["start"],
        "first_result": campaign["first"],
        "done": campaign["done"],
        "spans": campaign["spans"],
        "peak_rss_mb": _peak_rss_mb(),
    }


MODES = {"cold": run_cold, "warm": run_warm, "worker": run_worker}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        config = json.load(handle)
    import_s = _import_repro(config["root"])
    result = MODES[config["mode"]](config, import_s)
    tmp = config["out"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, config["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
