"""Fast smoke tests of every figure driver at tiny scales, the paper
spec parity check, and the golden-report regression rail.

The benchmarks exercise the drivers at their reporting scales; these
tests only verify that each driver runs end to end and returns the
structure its benchmark consumes, so a driver regression fails the test
suite, not just the (slower) benchmark run.

The scheme-comparison figures (Figs. 5-8 and Table 6) are spec files
under ``experiments/specs/paper/`` rather than drivers. Their smoke
tests run each spec at the scale of ``tests/golden/paper_figures.json``
and require every cell to equal the value the former hand-written
drivers recorded there; ``TestPaperSpecs`` checks that every paper spec
is pinned this way.

``TestGoldenReports`` pins small canonical CLI reports (``run``,
``suite-run``/``suite-report``, ``compare``) that were generated once
from the scalar reference path and checked in under ``tests/golden/``.
Both the production path and the scalar reference copies
(``tests/scalar_reference.py``) must reproduce them byte-for-byte: any
drift — a model change, a vectorization that rounds differently, a
formatting change — fails here with a diff against the recorded bytes.
Regenerate intentionally by running the CLI inside ``scalar_path()``
(see docs/performance.md).
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments import figures
from repro.experiments.spec import compile_plan, load_spec
from repro.obs.compare import build_comparison, scrape_rows
from repro.runner import run_plan
from repro.sparse import suite
from tests.scalar_reference import code_path

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
PAPER_SPEC_DIR = (
    pathlib.Path(__file__).parent.parent / "experiments" / "specs" / "paper"
)


#: Paper spec -> (figure in paper_figures.json, metric -> path to the
#: matching table in that figure's recorded driver result).
_PP = {"perf_gain": ["pp_perf"], "efficiency_gain": ["pp_eff"]}
_GOLDEN_TABLES = {
    "fig05_pp": ("fig5", _PP),
    "fig05_ee": ("fig5", {"efficiency_gain": ["ee_eff"]}),
    "fig06_pp": ("fig6", _PP),
    "fig06_ee": ("fig6", {"efficiency_gain": ["ee_eff"]}),
    "fig07_cache": (
        "fig7",
        {"perf_gain": ["cache", "perf"], "efficiency_gain": ["cache", "eff"]},
    ),
    "fig07_spm": (
        "fig7",
        {"perf_gain": ["spm", "perf"], "efficiency_gain": ["spm", "eff"]},
    ),
    "fig08_pp": ("fig8", _PP),
    "fig08_ee": (
        "fig8",
        {"perf_gain": ["ee_perf"], "efficiency_gain": ["ee_eff"]},
    ),
    "tab06_bfs": ("tab6", {"energy_j": ["bfs"]}),
    "tab06_sssp": ("tab6", {"energy_j": ["sssp"]}),
}


def _assert_specs_match_golden(*stems):
    """Run each named paper spec at its golden scale and compare every
    pinned table cell-by-cell; return the comparison cells by stem."""
    golden = json.loads((GOLDEN_DIR / "paper_figures.json").read_text())
    cells_by_stem = {}
    for stem in stems:
        figure, tables = _GOLDEN_TABLES[stem]
        spec = load_spec(PAPER_SPEC_DIR / f"{stem}.json")
        scale = golden[figure]["scale"]
        spec = replace(
            spec,
            workloads=tuple(
                replace(workload, scale=scale) for workload in spec.workloads
            ),
        )
        report = run_plan(compile_plan(spec))
        cells = build_comparison(
            scrape_rows(report.rows, spec.metrics),
            spec.metrics,
            baseline=spec.baseline,
            candidates=spec.candidate_names(),
            workloads=spec.workload_names(),
        )["cells"]
        for metric, keys in tables.items():
            expected = golden[figure]["result"]
            for key in keys:
                expected = expected[key]
            actual = cells[metric]
            if metric == "energy_j":
                # Table 6 reports TEPS/W over Baseline, which is the
                # energy ratio (edges are fixed per input).
                actual = {
                    workload: {
                        candidate: row["Baseline"] / row[candidate]
                        for candidate in ("Best Avg", "SparseAdapt")
                    }
                    for workload, row in actual.items()
                }
            assert actual == expected, f"{stem}: {metric}"
        cells_by_stem[stem] = cells
    return cells_by_stem


class TestDriverSmoke:
    def test_figure1(self):
        result = figures.figure1_motivation(n=64, density=0.2, n_samples=24)
        assert {"energy_gain", "speedup_percent", "dynamic_timeline"} <= set(
            result
        )
        timeline = result["dynamic_timeline"]
        assert len(timeline["clock_mhz"]) == len(timeline["phase"])

    def test_figure5(self):
        cells = _assert_specs_match_golden("fig05_pp", "fig05_ee")
        assert set(cells["fig05_ee"]["efficiency_gain"]) == set(
            suite.SYNTHETIC_IDS
        )

    def test_figure6(self):
        cells = _assert_specs_match_golden("fig06_pp", "fig06_ee")
        perf = cells["fig06_pp"]["perf_gain"]
        assert set(perf) == set(suite.SPMSPM_IDS)
        for gains in perf.values():
            assert gains["Baseline"] == pytest.approx(1.0)

    def test_figure7(self):
        cells = _assert_specs_match_golden("fig07_cache", "fig07_spm")
        assert set(cells["fig07_cache"]["efficiency_gain"]) == set(
            suite.SPMSPV_IDS
        )

    def test_table6(self):
        cells = _assert_specs_match_golden("tab06_bfs", "tab06_sssp")
        for stem in ("tab06_bfs", "tab06_sssp"):
            assert set(cells[stem]["energy_j"]) == set(suite.SPMSPV_IDS)

    def test_figure8(self):
        cells = _assert_specs_match_golden("fig08_pp", "fig08_ee")
        for stem in ("fig08_pp", "fig08_ee"):
            for metric in ("perf_gain", "efficiency_gain"):
                assert set(cells[stem][metric]) == set(suite.SPMSPM_IDS)
        # Oracle dominance over Ideal Static on its own metric (both
        # draw from the same sampled configuration set; SparseAdapt
        # roams the full space, so no dominance is implied there at
        # small sample counts).
        for gains in cells["fig08_ee"]["efficiency_gain"].values():
            assert gains["Oracle"] >= gains["Ideal Static"] - 1e-9

    def test_figure9(self):
        result = figures.figure9_model_complexity(
            depths=(2, 8), matrix_ids=("P1",), scale=0.08
        )
        assert set(result["P1"]) == {2, 8}

    def test_figure10(self):
        result = figures.figure10_feature_importance(quick=True)
        assert set(result) == {"pp", "ee"}
        for per_parameter in result.values():
            assert "clock_mhz" in per_parameter

    def test_figure11_policies(self):
        result = figures.figure11_policy_sweep(
            matrix_ids=("P1",), tolerances=(0.4,), scale=0.08
        )
        assert "hybrid-40%" in result["P1"]
        assert "conservative" in result["P1"]
        assert "aggressive" in result["P1"]

    def test_figure11_bandwidth(self):
        result = figures.figure11_bandwidth_sweep(
            matrix_id="P1", bandwidths_gbps=(0.5, 8.0), scale=0.08
        )
        assert set(result) == {0.5, 8.0}

    def test_figure12(self):
        result = figures.figure12_system_size(
            geometries=((1, 8), (2, 8)),
            scale=0.12,
            matrix_ids=("R03", "R04"),
        )
        assert set(result) == {"1x8", "2x8"}

    def test_section64(self):
        result = figures.section64_profileadapt(
            matrix_ids=("R09",), scale=0.1, pa_epoch_fp_ops=(2000.0,),
            n_samples=16,
        )
        assert set(result) == {"pp", "ee"}
        for ratios in result.values():
            assert set(ratios) == {
                "perf_vs_naive",
                "eff_vs_naive",
                "perf_vs_ideal",
                "eff_vs_ideal",
            }

    def test_section7(self):
        result = figures.section7_regular_kernels(n_samples=24)
        assert set(result) == {"gemm", "conv"}


class TestPaperSpecs:
    def test_every_paper_spec_is_pinned(self):
        stems = sorted(path.stem for path in PAPER_SPEC_DIR.glob("*.json"))
        assert stems == sorted(_GOLDEN_TABLES)


# ---------------------------------------------------------------------------
# Golden-report regression fixtures
# ---------------------------------------------------------------------------
def _normalize_suite_report(text: str) -> str:
    """Drop the wall-clock fields a ledger summary legitimately varies
    in (the ledger's own path and the summed job time)."""
    lines = []
    for line in text.splitlines():
        if line.startswith("Ledger "):
            lines.append("Ledger <LEDGER> — " + line.split(" — ", 1)[1])
        elif "job time" in line:
            continue
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fast", [False, True], ids=["scalar", "fastpath"])
class TestGoldenReports:
    def test_run_report_matches_golden(self, fast, capsys):
        golden = (GOLDEN_DIR / "run_spmspm_R03_ee.txt").read_text()
        with code_path(fast):
            assert (
                main(
                    [
                        "run",
                        "--kernel",
                        "spmspm",
                        "--matrix",
                        "R03",
                        "--scale",
                        "0.1",
                        "--mode",
                        "ee",
                        "--upper-bounds",
                    ]
                )
                == 0
            )
        assert capsys.readouterr().out == golden

    def test_suite_and_compare_match_golden(self, fast, tmp_path, capsys):
        spec = GOLDEN_DIR / "statics_spec.json"
        ledger = tmp_path / "golden.jsonl"
        with code_path(fast):
            assert (
                main(
                    [
                        "suite-run",
                        "--spec",
                        str(spec),
                        "--ledger",
                        str(ledger),
                    ]
                )
                == 0
            )
            suite_run_out = capsys.readouterr().out
            assert main(["compare", str(spec), str(ledger)]) == 0
            compare_out = capsys.readouterr().out
            assert main(["suite-report", str(ledger)]) == 0
            report_out = capsys.readouterr().out
        assert suite_run_out == (
            GOLDEN_DIR / "suite_run_statics.txt"
        ).read_text()
        assert compare_out == (GOLDEN_DIR / "compare_statics.txt").read_text()
        assert _normalize_suite_report(report_out) == (
            GOLDEN_DIR / "suite_report_statics.txt"
        ).read_text()
