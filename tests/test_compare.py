"""The multi-candidate comparison layer (``repro compare``): metric
scraping, table/geomean/win-matrix construction, regression gates,
deterministic text/SVG rendering, worker-count and kill/resume
byte-parity of whole reports, and the CLI exit-code contract
(0 = gates pass, 3 = regression or divergence)."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.spec import ExperimentSpec, compile_plan
from repro.obs.compare import (
    METRICS,
    build_comparison,
    drill_down,
    evaluate_gates,
    ledger_terminal_rows,
    render_comparison,
    render_metric_svg,
    scrape_rows,
    write_figures,
)
from repro.experiments.spec import RegressionGate
from repro.runner import run_plan

#: Cheap all-static spec: no model training, deterministic results.
STATIC_SPEC = {
    "name": "statics",
    "baseline": "best-avg",
    "metrics": ["efficiency_gain", "perf_gain", "gflops"],
    "defaults": {"kernel": "spmspv", "scale": 0.12, "mode": "ee"},
    "candidates": [
        {"name": "best-avg", "scheme": "Best Avg"},
        {"name": "max-cfg", "scheme": "Max Cfg"},
    ],
    "workloads": [{"matrix": "P1"}, {"matrix": "U1"}],
    "gates": [
        {"candidate": "max-cfg", "metric": "efficiency_gain",
         "within_pct": 100}
    ],
}


def _spec_row(candidate, workload, seed=0, status="ok", scheme="SparseAdapt",
              failure_kind=None, **metrics):
    row = {
        "key": f"{candidate}-{workload}-{seed}",
        "label": f"{candidate}:{workload}",
        "candidate": candidate,
        "workload": workload,
        "seed": seed,
        "scheme": scheme,
        "status": status,
        "duration_s": 0.25,
    }
    if status == "ok":
        row["result"] = {"schemes": {scheme: dict(metrics)}}
    else:
        row["failure"] = {"kind": failure_kind or "crash", "error": "boom"}
    return row


# ---------------------------------------------------------------------------
# Scraping
# ---------------------------------------------------------------------------
def test_metrics_registry_directions():
    assert METRICS["efficiency_gain"].higher_is_better
    assert not METRICS["edp_js"].higher_is_better
    assert METRICS["wall_clock_s"].volatile
    assert METRICS["time_s"].direction == "lower"


def test_scrape_spec_rows():
    rows = [
        _spec_row("a", "P1", efficiency_gain=1.5, perf_gain=1.2),
        _spec_row("b", "P1", status="failed", failure_kind="timeout"),
    ]
    samples = scrape_rows(rows, ["efficiency_gain", "perf_gain"])
    assert [s["candidate"] for s in samples] == ["a", "b"]
    assert samples[0]["values"] == {
        "efficiency_gain": 1.5, "perf_gain": 1.2
    }
    assert samples[1]["values"] == {
        "efficiency_gain": None, "perf_gain": None
    }
    assert samples[1]["failure_kind"] == "timeout"


def test_scrape_legacy_rows_explode_per_scheme():
    row = {
        "key": "k", "label": "spmspv/P1/ee", "status": "ok",
        "result": {"schemes": {
            "Baseline": {"perf_gain": 1.0},
            "SparseAdapt": {"perf_gain": 1.4},
        }},
    }
    samples = scrape_rows([row], ["perf_gain"])
    assert {s["candidate"] for s in samples} == {"Baseline", "SparseAdapt"}
    assert all(s["workload"] == "spmspv/P1/ee" for s in samples)


def test_scrape_wall_clock_and_fault_rate():
    row = _spec_row(
        "a", "P1", efficiency_gain=1.0,
        fault_stats={"n_faults_injected": 4, "n_faults_detected": 3},
    )
    samples = scrape_rows(
        [row], ["wall_clock_s", "fault_detection_rate"]
    )
    assert samples[0]["values"]["wall_clock_s"] == 0.25
    assert samples[0]["values"]["fault_detection_rate"] == 0.75
    # No injected faults -> no rate, not a zero.
    clean = _spec_row(
        "a", "P1", efficiency_gain=1.0,
        fault_stats={"n_faults_injected": 0, "n_faults_detected": 0},
    )
    assert scrape_rows([clean], ["fault_detection_rate"])[0]["values"][
        "fault_detection_rate"
    ] is None


def test_scrape_unknown_metric_rejected():
    with pytest.raises(ConfigError, match="unknown metric"):
        scrape_rows([], ["speedyness"])


# ---------------------------------------------------------------------------
# Comparison building
# ---------------------------------------------------------------------------
def _samples():
    rows = [
        _spec_row("base", "P1", efficiency_gain=1.0),
        _spec_row("base", "U1", efficiency_gain=2.0),
        _spec_row("fast", "P1", efficiency_gain=2.0),
        _spec_row("fast", "U1", efficiency_gain=1.0),
        _spec_row("slow", "P1", efficiency_gain=0.5),
        _spec_row("slow", "U1", status="failed"),
    ]
    return scrape_rows(rows, ["efficiency_gain"])


def test_build_comparison_cells_geomean_wins_health():
    comparison = build_comparison(
        _samples(), ["efficiency_gain"], baseline="base"
    )
    cells = comparison["cells"]["efficiency_gain"]
    assert cells["P1"] == {"base": 1.0, "fast": 2.0, "slow": 0.5}
    assert cells["U1"]["slow"] is None
    assert comparison["geomean"]["efficiency_gain"]["base"] == 1.0
    # fast: geomean(2/1, 1/2) = 1; slow: only P1 has both sides -> 0.5.
    assert comparison["geomean"]["efficiency_gain"]["fast"] == (
        pytest.approx(1.0)
    )
    assert comparison["geomean"]["efficiency_gain"]["slow"] == (
        pytest.approx(0.5)
    )
    assert comparison["wins"]["fast"]["base"] == 1
    assert comparison["wins"]["base"]["fast"] == 1
    # slow's U1 cell is missing, so only P1 is comparable.
    assert comparison["wins"]["base"]["slow"] == 1
    assert comparison["health"]["slow"] == {
        "ok": 1, "failed": 1, "quarantine": {"crash": 1}
    }


def test_build_comparison_seed_averaging():
    rows = [
        _spec_row("a", "P1", seed=0, efficiency_gain=1.0),
        _spec_row("a", "P1", seed=1, efficiency_gain=3.0),
    ]
    comparison = build_comparison(
        scrape_rows(rows, ["efficiency_gain"]), ["efficiency_gain"]
    )
    assert comparison["cells"]["efficiency_gain"]["P1"]["a"] == 2.0
    assert comparison["n_seeds"] == 2


def test_build_comparison_rejects_unknown_baseline_and_empty():
    with pytest.raises(ConfigError, match="baseline"):
        build_comparison(_samples(), ["efficiency_gain"], baseline="ghost")
    with pytest.raises(ConfigError, match="no samples"):
        build_comparison([], ["efficiency_gain"])


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------
def test_evaluate_gates_pass_fail_and_no_data():
    comparison = build_comparison(
        _samples(), ["efficiency_gain"], baseline="base"
    )
    results = evaluate_gates(
        comparison,
        [
            RegressionGate("fast", "efficiency_gain", 5.0),
            RegressionGate("slow", "efficiency_gain", 10.0),
            RegressionGate("fast", "efficiency_gain", 5.0, workload="U1"),
            RegressionGate("ghost", "efficiency_gain", 5.0),
            # Negative tolerance: fast must beat base on P1 (2.0 vs
            # 1.0, a +100% margin) by at least |within_pct|.
            RegressionGate("fast", "efficiency_gain", -100.0, workload="P1"),
            RegressionGate("fast", "efficiency_gain", -100.5, workload="P1"),
        ],
    )
    # fast geomean ratio 1.0 -> margin 0 -> pass.
    assert results[0]["passed"] and results[0]["margin_pct"] == (
        pytest.approx(0.0)
    )
    # slow ratio 0.5 -> -50% margin, outside 10%.
    assert not results[1]["passed"]
    assert results[1]["reason"] == "regression"
    # Workload-scoped: fast on U1 is 1.0 vs base 2.0 -> fail.
    assert not results[2]["passed"]
    # Unknown candidate: silence must not pass.
    assert not results[3]["passed"]
    assert results[3]["reason"] == "no data"
    # A lead of exactly |within_pct| passes; one short of it fails.
    assert results[4]["passed"] and results[4]["margin_pct"] == 100.0
    assert not results[5]["passed"]
    assert results[5]["reason"] == "regression"


def test_gate_direction_for_lower_is_better():
    rows = [
        _spec_row("base", "P1", time_s=1.0),
        _spec_row("quick", "P1", time_s=0.5),
        _spec_row("laggy", "P1", time_s=2.0),
    ]
    comparison = build_comparison(
        scrape_rows(rows, ["time_s"]), ["time_s"], baseline="base"
    )
    results = evaluate_gates(
        comparison,
        [
            RegressionGate("quick", "time_s", 5.0),
            RegressionGate("laggy", "time_s", 5.0),
        ],
    )
    assert results[0]["passed"]  # faster than baseline
    assert not results[1]["passed"]  # 2x slower
    # Lower-is-better wins: quick beats base on the primary metric.
    assert comparison["wins"]["quick"]["base"] == 1


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def test_render_comparison_deterministic_and_complete():
    comparison = build_comparison(
        _samples(), ["efficiency_gain"], baseline="base", name="demo"
    )
    gates = evaluate_gates(
        comparison,
        [
            RegressionGate("slow", "efficiency_gain", 10.0),
            RegressionGate("fast", "efficiency_gain", -50.0, of="slow"),
        ],
    )
    text = render_comparison(comparison, gates)
    assert text == render_comparison(comparison, gates)
    assert "=== comparison: demo ===" in text
    assert "win/loss matrix" in text
    assert "[FAIL] slow within 10% of base" in text
    assert "[PASS] fast beats slow by ≥ 50% on efficiency_gain" in text
    assert "slow: 1 failed (crash=1) / 1 ok" in text


def test_render_metric_svg_deterministic(tmp_path):
    comparison = build_comparison(
        _samples(), ["efficiency_gain"], baseline="base"
    )
    svg = render_metric_svg(comparison, "efficiency_gain")
    assert svg == render_metric_svg(comparison, "efficiency_gain")
    assert svg.startswith("<svg ")
    assert svg.count("<rect") >= 5  # bars + legend swatches
    assert ">x</text>" in svg  # missing slow/U1 cell marker
    with pytest.raises(ConfigError, match="not in this comparison"):
        render_metric_svg(comparison, "edp_js")
    written = write_figures(comparison, tmp_path / "figs")
    assert [p.name for p in written] == ["efficiency_gain.svg"]


# ---------------------------------------------------------------------------
# End-to-end determinism (spec -> runner -> ledger -> report)
# ---------------------------------------------------------------------------
def _report_and_svg(ledger_path):
    spec = ExperimentSpec.from_dict(STATIC_SPEC)
    _, rows = ledger_terminal_rows(ledger_path)
    samples = scrape_rows(rows, spec.metrics)
    comparison = build_comparison(
        samples,
        spec.metrics,
        baseline=spec.baseline,
        candidates=spec.candidate_names(),
        workloads=spec.workload_names(),
        name=spec.name,
    )
    gates = evaluate_gates(comparison, spec.gates)
    return (
        render_comparison(comparison, gates),
        render_metric_svg(comparison, "efficiency_gain"),
    )


def test_workers_and_resume_byte_identical_reports(tmp_path):
    spec = ExperimentSpec.from_dict(STATIC_SPEC)
    plan = compile_plan(spec)

    serial = tmp_path / "serial.jsonl"
    run_plan(plan, ledger_path=str(serial))

    sharded = tmp_path / "sharded.jsonl"
    run_plan(plan, ledger_path=str(sharded), workers=4)

    resumed = tmp_path / "resumed.jsonl"
    partial = run_plan(plan, ledger_path=str(resumed), max_jobs=2)
    assert partial.partial
    run_plan(plan, ledger_path=str(resumed), resume=True, workers=2)

    reference = _report_and_svg(serial)
    assert _report_and_svg(sharded) == reference
    assert _report_and_svg(resumed) == reference


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def _write_spec(tmp_path, raw=STATIC_SPEC):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_suite_run_spec_then_compare(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    ledger = tmp_path / "run.jsonl"
    assert main(
        ["suite-run", "--spec", str(spec_path), "--ledger", str(ledger)]
    ) == 0
    out = tmp_path / "cmp.json"
    svg_dir = tmp_path / "figs"
    code = main([
        "compare", str(spec_path), str(ledger),
        "--out", str(out), "--svg-dir", str(svg_dir),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "=== comparison: statics ===" in captured.out
    assert "[PASS]" in captured.out
    payload = json.loads(out.read_text())
    assert payload["comparison"]["baseline"] == "best-avg"
    assert payload["gates"][0]["passed"] is True
    assert sorted(p.name for p in svg_dir.iterdir()) == [
        "efficiency_gain.svg", "gflops.svg", "perf_gain.svg",
    ]


def test_cli_compare_failing_gate_exits_3(tmp_path, capsys):
    raw = dict(STATIC_SPEC)
    raw["gates"] = [
        {"candidate": "max-cfg", "metric": "efficiency_gain",
         "within_pct": 5}
    ]
    spec_path = _write_spec(tmp_path, raw)
    ledger = tmp_path / "run.jsonl"
    assert main(
        ["suite-run", "--spec", str(spec_path), "--ledger", str(ledger),
         "--json"]
    ) == 0
    capsys.readouterr()
    assert main(["compare", str(spec_path), str(ledger)]) == 3
    captured = capsys.readouterr()
    assert "[FAIL]" in captured.out
    assert "gate violation" in captured.err
    # --no-gates turns the same comparison into exit 0.
    assert main(
        ["compare", str(spec_path), str(ledger), "--no-gates"]
    ) == 0
    # --json still exits 3 and carries the gate verdicts.
    capsys.readouterr()
    assert main(["compare", str(spec_path), str(ledger), "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["gates"][0]["passed"] is False


def test_cli_compare_wrong_ledger_for_spec(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    other = dict(STATIC_SPEC)
    other["workloads"] = [{"matrix": "P2"}]
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    ledger = tmp_path / "run.jsonl"
    assert main(
        ["suite-run", "--spec", str(spec_path), "--ledger", str(ledger),
         "--json"]
    ) == 0
    capsys.readouterr()
    assert main(["compare", str(other_path), str(ledger)]) == 1
    assert "was not produced by this spec" in capsys.readouterr().err


def test_cli_compare_spec_needs_ledger(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    assert main(["compare", str(spec_path)]) == 1
    assert "exactly one ledger" in capsys.readouterr().err


def test_cli_compare_legacy_ledger(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "name": "legacy",
        "defaults": {"scale": 0.12,
                     "schemes": ["Baseline", "Best Avg"]},
        "jobs": [{"kernel": "spmspv", "matrix": "P1"}],
    }))
    ledger = tmp_path / "run.jsonl"
    assert main(
        ["suite-run", str(plan), "--ledger", str(ledger), "--json"]
    ) == 0
    capsys.readouterr()
    assert main(["compare", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "=== comparison: legacy ===" in out
    assert "Best Avg" in out


def test_cli_suite_run_rejects_plan_and_spec(tmp_path, capsys):
    spec_path = _write_spec(tmp_path)
    assert main(
        ["suite-run", str(spec_path), "--spec", str(spec_path)]
    ) == 1
    assert "not both" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Drill-down
# ---------------------------------------------------------------------------
def test_drill_down_rejects_static_candidates():
    spec = ExperimentSpec.from_dict(STATIC_SPEC)
    with pytest.raises(ConfigError, match="adaptive"):
        drill_down(spec, "max-cfg", "P1")
    # The reference (baseline or override) is validated first.
    with pytest.raises(ConfigError, match="unknown candidate"):
        drill_down(spec, "max-cfg", "P1", reference="ghost")


def test_drill_down_diffs_two_adaptive_candidates():
    spec = ExperimentSpec.from_dict({
        "name": "pol",
        "defaults": {"kernel": "spmspv", "scale": 0.12, "mode": "ee"},
        "candidates": [
            {"name": "conservative", "policy": "conservative"},
            {"name": "aggressive", "policy": "aggressive"},
        ],
        "workloads": [{"matrix": "P1"}],
    })
    diff = drill_down(spec, "aggressive", "P1")
    assert diff["a"]["label"] == "conservative"
    assert diff["b"]["label"] == "aggressive"
    assert diff["n_compared"] > 0
    # Same policies -> identical runs, and the labels follow reference.
    same = drill_down(spec, "conservative", "P1",
                      reference="conservative")
    assert same["first_divergence_epoch"] is None
    with pytest.raises(ConfigError, match="unknown workload"):
        drill_down(spec, "aggressive", "ghost")
