"""Figures 5-8, 11 and Table 6 — the paper's scheme-comparison verdicts.

Each panel is a spec under ``experiments/specs/paper/``: the schemes
are its candidates, the figure's inputs its workloads, and the paper's
"who wins, by roughly what factor" claims its gates (a negative
``within_pct`` means "must beat the reference by at least that much").
This benchmark runs every spec at its shipped scale, prints the
comparison report with the gate verdicts, and fails if any gate does.

Paper shapes, per panel:

* Fig. 5 (SpMSpV, synthetic): ~1.8x GFLOPS over Baseline in PP mode at
  ~3.5x the efficiency of Max Cfg; 1.5-1.9x GFLOPS/W in EE mode, where
  Max Cfg is ~2.9x less efficient than Baseline.
* Fig. 6 (SpMSpM, R01-R08): within ~8% of Max Cfg's performance at
  5.3x its efficiency (PP); 1.8x efficiency over Baseline (EE).
* Fig. 7 (SpMSpV, R09-R16, PP): 4.3x (cache) / 6.2x (SPM) the
  efficiency of Max Cfg.
* Fig. 8 (upper bounds): within ~5% of the Oracle's efficiency (EE).
* Fig. 11 left (policies, PP): hybrid tolerances of 10-40% beat both
  the conservative and the very permissive extremes.
* Fig. 11 right (external bandwidth, EE, no retraining): efficiency
  gains above 3x over Baseline when memory-bound, shrinking toward
  ~1.1x over Best Avg at the compute-bound end.
* Table 6 (BFS/SSSP, EE): geomean TEPS/W 1.31 / 1.29 over Baseline,
  ahead of Best Avg; the power-law graphs (R10, R11, R14) gain more
  than the diagonal-local R09.
"""

import pathlib

import pytest

from benchmarks.conftest import run_once
from repro.experiments.spec import compile_plan, load_spec
from repro.ml.metrics import geometric_mean
from repro.obs.compare import (
    build_comparison,
    evaluate_gates,
    render_comparison,
    scrape_rows,
)
from repro.runner import run_plan

SPECS = sorted(
    (
        pathlib.Path(__file__).parent.parent
        / "experiments"
        / "specs"
        / "paper"
    ).glob("*.json")
)


@pytest.mark.parametrize("path", SPECS, ids=[path.stem for path in SPECS])
def test_paper_claims(benchmark, emit, path):
    spec = load_spec(path)
    report = run_once(benchmark, run_plan, plan=compile_plan(spec))
    comparison = build_comparison(
        scrape_rows(report.rows, spec.metrics),
        spec.metrics,
        baseline=spec.baseline,
        candidates=spec.candidate_names(),
        workloads=spec.workload_names(),
        name=spec.name,
    )
    gates = evaluate_gates(comparison, spec.gates)
    emit(render_comparison(comparison, gates))

    failed = [gate for gate in gates if not gate["passed"]]
    assert not failed, failed

    if spec.name.startswith("tab06_"):
        # A cross-workload claim no gate can express: the power-law
        # graphs benefit more than the diagonal-local R09. TEPS/W over
        # Baseline is the energy ratio (edges are fixed per input).
        energy = comparison["cells"]["energy_j"]
        gain = {
            workload: row["Baseline"] / row["SparseAdapt"]
            for workload, row in energy.items()
        }
        power_law = geometric_mean([gain[m] for m in ("R10", "R11", "R14")])
        assert power_law >= gain["R09"] * 0.95

    if spec.name == "fig11_policies":
        # Per workload, where a gate compares geomeans: every policy
        # yields a functional controller, and some hybrid tolerance is
        # at least as good as both extremes.
        for row in comparison["cells"]["efficiency_gain"].values():
            policies = {
                name: gain for name, gain in row.items() if name != "best-avg"
            }
            assert all(gain > 0.5 for gain in policies.values()), row
            best_hybrid = max(
                gain
                for name, gain in policies.items()
                if name.startswith("hybrid-")
            )
            assert best_hybrid >= row["conservative"] * 0.98, row
            assert best_hybrid >= row["aggressive"] * 0.98, row

    if spec.name == "fig11_bandwidth":
        # The memory-bound end gains more than the compute-bound end.
        gain = comparison["cells"]["efficiency_gain"]
        assert gain["0.25GB/s"]["SparseAdapt"] > gain["16GB/s"]["SparseAdapt"]
