"""Shared benchmark utilities.

Each paper benchmark regenerates one table/figure (the scheme
comparisons from the specs under ``experiments/specs/paper/``, the
other studies in their own file), times the run with pytest-benchmark
(single round — these are experiment replays, not micro-benchmarks),
prints the same rows/series the paper reports, and writes them to
``benchmarks/results/`` so the reproduction record survives pytest's
output capture.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_configure(config):
    RESULTS_DIR.mkdir(exist_ok=True)


@pytest.fixture()
def emit(request):
    """Print a report block and persist it under benchmarks/results/."""

    def _emit(text: str) -> None:
        name = request.node.name.replace("/", "_")
        print(f"\n{text}\n")
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")

    return _emit


def run_once(benchmark, fn, **kwargs):
    """Time one full experiment replay."""
    return benchmark.pedantic(
        fn, kwargs=kwargs, iterations=1, rounds=1, warmup_rounds=0
    )


def best_of(fn, repeats: int = 9) -> float:
    """Best-of-N wall time of ``fn()``, seconds.

    Micro-benchmark comparisons (e.g. the tracing-disabled overhead
    guard in ``bench_obs_overhead.py``) take the minimum over several
    repeats: the minimum estimates the true cost with the least
    scheduler/allocator noise, which matters when asserting a few
    percent of difference rather than reporting a throughput.
    """
    import time

    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def interleaved_best_of(fn_a, fn_b, repeats: int = 9):
    """Best-of-N wall times of two functions, measured interleaved.

    Comparing two ``best_of`` blocks taken back to back bakes machine
    drift (turbo states, a noisy neighbour finishing) into the ratio:
    whichever ran during the quiet window wins. Alternating A/B within
    one loop exposes both functions to the same conditions, which is
    what an overhead *ratio* assertion actually needs.
    """
    import time

    best_a = best_b = float("inf")
    for i in range(repeats):
        for fn in ((fn_a, fn_b) if i % 2 == 0 else (fn_b, fn_a)):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            if fn is fn_a:
                best_a = min(best_a, elapsed)
            else:
                best_b = min(best_b, elapsed)
    return best_a, best_b
