"""Fast smoke tests of every figure driver at tiny scales, plus the
golden-report regression rail.

The benchmarks exercise the drivers at their reporting scales; these
tests only verify that each driver runs end to end and returns the
structure its benchmark consumes, so a driver regression fails the test
suite, not just the (slower) benchmark run.

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

import pathlib

import pytest

from repro.cli import main
from repro.experiments import figures
from repro.sparse import suite
from tests.scalar_reference import code_path

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestDriverSmoke:
    def test_figure1(self):
        result = figures.figure1_motivation(n=64, density=0.2, n_samples=24)
        assert {"energy_gain", "speedup_percent", "dynamic_timeline"} <= set(
            result
        )
        timeline = result["dynamic_timeline"]
        assert len(timeline["clock_mhz"]) == len(timeline["phase"])

    def test_figure5(self):
        result = figures.figure5_spmspv_synthetic(scale=0.08, n_samples=16)
        assert set(result) == {"pp_perf", "pp_eff", "ee_eff"}
        assert set(result["ee_eff"]) == set(suite.SYNTHETIC_IDS)

    def test_figure6(self):
        result = figures.figure6_spmspm_real(scale=0.12, n_samples=16)
        assert set(result["pp_perf"]) == set(suite.SPMSPM_IDS)
        for gains in result["pp_perf"].values():
            assert gains["Baseline"] == pytest.approx(1.0)

    def test_figure7(self):
        result = figures.figure7_spmspv_real(scale=0.08, n_samples=16)
        assert set(result) == {"cache", "spm"}
        assert set(result["cache"]["eff"]) == set(suite.SPMSPV_IDS)

    def test_table6(self):
        result = figures.table6_graph_algorithms(scale=0.08, n_samples=16)
        assert set(result) == {"bfs", "sssp"}
        for rows in result.values():
            assert set(rows) == set(suite.SPMSPV_IDS)

    def test_figure8(self):
        result = figures.figure8_upper_bounds(scale=0.12, n_samples=24)
        for key in ("pp_perf", "pp_eff", "ee_perf", "ee_eff"):
            assert set(result[key]) == set(suite.SPMSPM_IDS)
        # Oracle dominance over Ideal Static on its own metric (both
        # draw from the same sampled configuration set; SparseAdapt
        # roams the full space, so no dominance is implied there at
        # small sample counts).
        for matrix_id, gains in result["ee_eff"].items():
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
