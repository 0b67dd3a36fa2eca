"""Golden parity of the paper specs, the Fig. 10 model property, and
the golden-report regression rail.

The paper's scheme comparisons (Figs. 5-8, Fig. 11 and Table 6) are
spec files under ``experiments/specs/paper/``. ``TestDriverSmoke`` runs
each spec at the scale of ``tests/golden/paper_figures.json`` and
requires every cell to equal the value the former hand-written drivers
recorded there; ``TestPaperSpecs`` checks that every paper spec is
pinned this way. Fig. 10 (feature importance) is a property of the
stock model rather than a scheme comparison, so it is asserted here
directly. The studies that vary the model, the machine geometry or the
epoch size (Figs. 1, 9 and 12, Sections 6.4 and 7) live in the
benchmarks that gate them (``benchmarks/bench_fig*``/``bench_sec*``).

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
from repro.core.modes import OptimizationMode
from repro.core.training import train_default_model
from repro.experiments.spec import compile_plan, load_spec
from repro.obs.compare import build_comparison, scrape_rows
from repro.runner import run_plan
from repro.sparse import suite
from tests.scalar_reference import code_path

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
PAPER_SPEC_DIR = (
    pathlib.Path(__file__).parent.parent / "experiments" / "specs" / "paper"
)


def _tables(paths):
    """The view of a spec whose cells are the driver's tables as they
    are: metric -> key path of the matching table."""
    return lambda cells, spec: {
        tuple(path): cells[metric] for metric, path in paths.items()
    }


def _teps_per_watt(algorithm):
    """Table 6 reports TEPS/W over Baseline, which is the energy ratio
    (edges are fixed per input)."""

    def view(cells, spec):
        return {
            (algorithm,): {
                workload: {
                    candidate: row["Baseline"] / row[candidate]
                    for candidate in ("Best Avg", "SparseAdapt")
                }
                for workload, row in cells["energy_j"].items()
            }
        }

    return view


def _policy_sweep(cells, spec):
    """``figure11_policy_sweep``: matrix -> policy -> gains, with the
    hybrids named ``hybrid-<pct>%`` and no Best Avg row."""
    return {
        (): {
            workload: {
                (name + "%" if name.startswith("hybrid-") else name): {
                    metric: cells[metric][workload][name]
                    for metric in ("perf_gain", "efficiency_gain")
                }
                for name in spec.candidate_names()
                if name != "best-avg"
            }
            for workload in spec.workload_names()
        }
    }


def _bandwidth_sweep(cells, spec):
    """``figure11_bandwidth_sweep``: bandwidth -> SparseAdapt's GFLOPS/W
    over Baseline and over Best Avg."""
    efficiency = cells["efficiency_gain"]
    return {
        (): {
            str(workload.bandwidth_gbps): {
                "over_baseline": efficiency[workload.name]["SparseAdapt"],
                "over_best_avg": (
                    efficiency[workload.name]["SparseAdapt"]
                    / efficiency[workload.name]["Best Avg"]
                ),
            }
            for workload in spec.workloads
        }
    }


_PP = _tables({"perf_gain": ["pp_perf"], "efficiency_gain": ["pp_eff"]})
#: Paper spec -> (figure in paper_figures.json, view). A view maps the
#: spec's comparison cells (and the spec) to {key path into that
#: figure's recorded driver result: the value the driver recorded there}.
_GOLDEN_TABLES = {
    "fig05_pp": ("fig5", _PP),
    "fig05_ee": ("fig5", _tables({"efficiency_gain": ["ee_eff"]})),
    "fig06_pp": ("fig6", _PP),
    "fig06_ee": ("fig6", _tables({"efficiency_gain": ["ee_eff"]})),
    "fig07_cache": (
        "fig7",
        _tables(
            {
                "perf_gain": ["cache", "perf"],
                "efficiency_gain": ["cache", "eff"],
            }
        ),
    ),
    "fig07_spm": (
        "fig7",
        _tables(
            {"perf_gain": ["spm", "perf"], "efficiency_gain": ["spm", "eff"]}
        ),
    ),
    "fig08_pp": ("fig8", _PP),
    "fig08_ee": (
        "fig8",
        _tables({"perf_gain": ["ee_perf"], "efficiency_gain": ["ee_eff"]}),
    ),
    "fig11_policies": ("fig11_policies", _policy_sweep),
    "fig11_bandwidth": ("fig11_bandwidth", _bandwidth_sweep),
    "tab06_bfs": ("tab6", _teps_per_watt("bfs")),
    "tab06_sssp": ("tab6", _teps_per_watt("sssp")),
}


def _assert_specs_match_golden(*stems):
    """Run each named paper spec at its golden scale and compare every
    pinned table cell-by-cell; return the comparison cells by stem."""
    golden = json.loads((GOLDEN_DIR / "paper_figures.json").read_text())
    cells_by_stem = {}
    for stem in stems:
        figure, view = _GOLDEN_TABLES[stem]
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
        for path, actual in view(cells, spec).items():
            expected = golden[figure]["result"]
            for key in path:
                expected = expected[key]
            assert actual == expected, f"{stem}: {'/'.join(path)}"
        cells_by_stem[stem] = cells
    return cells_by_stem


class TestDriverSmoke:
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

    def test_figure10(self):
        """Fig. 10: every tree's grouped Gini importances are normalized,
        and memory-system telemetry (L1 + L2 + memory controller)
        outweighs core-side counters over all parameters, in both
        modes."""
        for mode in (
            OptimizationMode.POWER_PERFORMANCE,
            OptimizationMode.ENERGY_EFFICIENT,
        ):
            per_parameter = train_default_model(
                mode, kernel="spmspv", quick=True
            ).importance_table()
            assert "clock_mhz" in per_parameter
            total = {}
            for grouped in per_parameter.values():
                assert abs(sum(grouped.values()) - 1.0) < 1e-6 or sum(
                    grouped.values()
                ) == 0.0
                for group, value in grouped.items():
                    total[group] = total.get(group, 0.0) + value
            memory_side = (
                total.get("L1 R-DCache", 0.0)
                + total.get("L2 R-DCache", 0.0)
                + total.get("Memory Ctrl", 0.0)
            )
            core_side = total.get("GPE", 0.0) + total.get("LCP", 0.0)
            assert memory_side > core_side, mode

    def test_figure11_policies(self):
        cells = _assert_specs_match_golden("fig11_policies")
        efficiency = cells["fig11_policies"]["efficiency_gain"]
        assert set(efficiency) == {"P3", "R12"}
        for gains in efficiency.values():
            assert {"conservative", "aggressive", "hybrid-40"} <= set(gains)

    def test_figure11_bandwidth(self):
        cells = _assert_specs_match_golden("fig11_bandwidth")
        for gains in cells["fig11_bandwidth"]["efficiency_gain"].values():
            assert gains["Baseline"] == 1.0


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
