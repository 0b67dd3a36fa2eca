"""Shared pieces of the campaign benchmark: workloads, plans, checks.

Everything here is importable without the ``repro`` package except the
plan functions, which import it lazily: ``run.py`` must be able to
refuse a checkout that has no ``src/repro`` before touching it.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space of one benchmark run (children's working directories,
#: stores, result files); removed when the run ends.
WORK_DIR = ROOT / ".perfbench-work"

#: The seed whose report hashes are recorded in ``expected.json``.
DEFAULT_SEED = 0

#: The nine schemes of ``repro.experiments.harness.KNOWN_SCHEMES``.
ALL_SCHEMES = (
    "Baseline",
    "Best Avg",
    "Max Cfg",
    "SparseAdapt",
    "Ideal Static",
    "Ideal Greedy",
    "Oracle",
    "ProfileAdapt Naive",
    "ProfileAdapt Ideal",
)
STATIC_SCHEMES = ("Baseline", "Best Avg", "Max Cfg")

#: Workload parameters. ``tiny`` shrinks every workload for the
#: self-test; the measured configuration is ``full``.
WORKLOADS: Dict[str, Dict[str, dict]] = {
    "full": {
        "t5-cold": {"scale": 0.15, "matrices": list(range(1, 17))},
        "t5-warm": {"scale": 0.3, "matrices": list(range(1, 17))},
        "store-2w": {
            "scale": 0.05,
            "matrices": list(range(1, 17)),
            "modes": ["ee", "pp"],
            "seeds_per_job": 4,
            "workers": 2,
        },
    },
    "tiny": {
        "t5-cold": {"scale": 0.05, "matrices": [1, 9]},
        "t5-warm": {"scale": 0.05, "matrices": [1, 9]},
        "store-2w": {
            "scale": 0.05,
            "matrices": [1, 9],
            "modes": ["ee", "pp"],
            "seeds_per_job": 2,
            "workers": 2,
        },
    },
}


def n_jobs(params: dict) -> int:
    """Jobs in one campaign of a workload (no ``repro`` import needed)."""
    return (
        len(params["matrices"])
        * len(params.get("modes", ["ee"]))
        * params.get("seeds_per_job", 1)
    )


def job_seed(seed: int) -> int:
    """The ``JobSpec.seed`` a benchmark seed maps to (non-negative)."""
    return int(seed) % (2 ** 31)


def _kernel_for(index: int) -> str:
    # Table 5: SpMSpM over R01-R08, SpMSpV over R09-R16.
    return "spmspm" if index <= 8 else "spmspv"


def t5_plan(params: dict, seed: int):
    """The Table-5 plan with all nine schemes at the workload's scale."""
    from repro.runner import CampaignPlan, JobSpec

    jobs = [
        JobSpec(
            kernel=_kernel_for(index),
            matrix=f"R{index:02d}",
            scale=params["scale"],
            schemes=ALL_SCHEMES,
            seed=job_seed(seed),
        )
        for index in params["matrices"]
    ]
    return CampaignPlan(name="t5", jobs=tuple(jobs))


def store_plan(params: dict, seed: int):
    """The store grid: matrices x modes x consecutive seeds, statics only."""
    from repro.runner import CampaignPlan, JobSpec

    base = (job_seed(seed) % (2 ** 29)) * params["seeds_per_job"]
    jobs = [
        JobSpec(
            kernel=_kernel_for(index),
            matrix=f"R{index:02d}",
            scale=params["scale"],
            mode=mode,
            schemes=STATIC_SCHEMES,
            seed=base + offset,
        )
        for index in params["matrices"]
        for mode in params["modes"]
        for offset in range(params["seeds_per_job"])
    ]
    return CampaignPlan(name="store-grid", jobs=tuple(jobs))


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------
def _strip_durations(value):
    if isinstance(value, dict):
        return {
            key: _strip_durations(nested)
            for key, nested in value.items()
            if key != "duration_s"
        }
    if isinstance(value, list):
        return [_strip_durations(item) for item in value]
    return value


def rows_hash(rows: Sequence[dict]) -> str:
    """SHA-256 of the canonical rows: no ``duration_s``, sorted keys."""
    canonical = json.dumps(
        _strip_durations(list(rows)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def row_problems(rows: Sequence[dict], n_expected: int) -> List[str]:
    """Structural checks that hold on every seed: every job ran once and
    succeeded, and each scheme's gains over Baseline are finite and
    positive, with Baseline's own gains exactly 1."""
    problems: List[str] = []
    if len(rows) != n_expected:
        problems.append(f"{len(rows)} rows, expected {n_expected}")
    for row in rows:
        label = row.get("label", "?")
        if row.get("status") != "ok":
            problems.append(f"{label}: status {row.get('status')}")
            continue
        schemes = (row.get("result") or {}).get("schemes") or {}
        base = schemes.get("Baseline") or {}
        if base.get("perf_gain") != 1.0 or base.get("efficiency_gain") != 1.0:
            problems.append(f"{label}: Baseline gains are not 1")
        for name, entry in schemes.items():
            for metric in ("perf_gain", "efficiency_gain"):
                value = entry.get(metric)
                if not isinstance(value, float) or not (
                    math.isfinite(value) and value > 0
                ):
                    problems.append(f"{label}: {name} {metric}={value!r}")
    return problems


def headline(rows: Sequence[dict], scheme: str) -> Optional[float]:
    """Geomean EE-mode efficiency gain of ``scheme`` over Baseline."""
    gains = [
        row["result"]["schemes"][scheme]["efficiency_gain"]
        for row in rows
        if row.get("status") == "ok"
        and row.get("mode", "ee") == "ee"
        and scheme in row["result"]["schemes"]
    ]
    if not gains:
        return None
    return math.exp(sum(math.log(g) for g in gains) / len(gains))


def load_expected() -> Dict[str, str]:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)
