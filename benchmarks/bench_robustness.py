"""Deployment robustness studies.

1. **Telemetry noise** — real saturating counters and sampling windows
   are never exact; the trees were trained on clean telemetry, so this
   sweeps multiplicative counter noise and reports how the deployed
   controller degrades.
2. **Training-set size** — the paper trains on ~360k examples; the
   stock model here uses a reduced Table-3 grid. This sweeps the
   sample budget per phase and shows where the gains saturate.
3. **Energy breakdown** — where each scheme's energy actually goes
   (DRAM vs leakage vs dynamic), explaining *why* the adaptive scheme
   wins (it recovers leakage and voltage-scaled dynamic energy, not
   DRAM energy, which is workload-fixed).
4. **Fault-rate sweep** — the shipped ``experiments/specs/fault_rates.json``
   spec (counter corruption, dropped reconfigurations, machine
   throttling at increasing rate scales, hardened vs. unhardened),
   read back from its ledger, reporting how much of the clean adaptive
   gain each controller retains (see docs/robustness.md).
"""

import pathlib
import tempfile

from benchmarks.conftest import run_once
from repro.baselines import BASELINE, MAX_CFG, run_static
from repro.core import (
    HardeningConfig,
    HybridPolicy,
    OptimizationMode,
    SparseAdaptController,
    build_training_set,
    table3_phases,
    train_default_model,
    train_model,
)
from repro.core.training import QUICK_PARAM_GRID
from repro.experiments.harness import build_trace
from repro.experiments.reporting import format_gain_table
from repro.faults import noise_schedule
from repro.transmuter import TransmuterModel

EE = OptimizationMode.ENERGY_EFFICIENT


def _noise_sweep():
    machine = TransmuterModel()
    model = train_default_model(EE, kernel="spmspv")
    trace = build_trace("spmspv", "P3", scale=0.3)
    baseline = run_static(machine, trace, {"Baseline": BASELINE})["Baseline"]
    out = {}
    for noise in (0.0, 0.05, 0.15, 0.30):
        schedule = SparseAdaptController(
            model,
            machine,
            EE,
            HybridPolicy(0.4),
            BASELINE,
            faults=noise_schedule(noise, seed=1) if noise else None,
            hardening=HardeningConfig.disabled(),
        ).run(trace)
        out[f"noise={int(noise * 100)}%"] = {
            "efficiency_gain": (
                schedule.gflops_per_watt / baseline.gflops_per_watt
            ),
            "reconfigurations": float(schedule.n_reconfigurations),
        }
    return out


def test_robustness_telemetry_noise(benchmark, emit):
    rows = run_once(benchmark, _noise_sweep)
    emit(
        format_gain_table(
            "Robustness 1 - counter noise sweep (SpMSpV P3, EE mode)",
            rows,
            ("efficiency_gain", "reconfigurations"),
        )
    )
    gains = [row["efficiency_gain"] for row in rows.values()]
    # Clean telemetry is at least as good as heavy noise, and even 30%
    # noise keeps a working controller.
    assert gains[0] >= gains[-1] - 0.05
    assert gains[-1] > 1.0
    # EXPERIMENTS.md: gains hold to 15% noise and degrade at 30%.
    clean = rows["noise=0%"]["efficiency_gain"]
    assert abs(rows["noise=15%"]["efficiency_gain"] - clean) <= 0.01 * clean
    assert rows["noise=30%"]["efficiency_gain"] <= 0.95 * clean


def _training_size_sweep():
    machine = TransmuterModel()
    trace = build_trace("spmspv", "P3", scale=0.3)
    baseline = run_static(machine, trace, {"Baseline": BASELINE})["Baseline"]
    phases = table3_phases("spmspv")
    out = {}
    for k_samples in (4, 8, 16, 32):
        training_set = build_training_set(
            phases, EE, k_samples=k_samples, seed=0
        )
        model = train_model(training_set, param_grid=QUICK_PARAM_GRID)
        schedule = SparseAdaptController(
            model, machine, EE, HybridPolicy(0.4), BASELINE
        ).run(trace)
        out[f"k={k_samples}"] = {
            "examples": float(training_set.n_examples),
            "efficiency_gain": (
                schedule.gflops_per_watt / baseline.gflops_per_watt
            ),
        }
    return out


def test_robustness_training_size(benchmark, emit):
    rows = run_once(benchmark, _training_size_sweep)
    emit(
        format_gain_table(
            "Robustness 2 - training-set size sweep (SpMSpV P3, EE mode)",
            rows,
            ("examples", "efficiency_gain"),
        )
    )
    gains = [row["efficiency_gain"] for row in rows.values()]
    # More data never collapses the controller; the largest budget must
    # be competitive with the best observed.
    assert gains[-1] >= max(gains) * 0.9
    assert all(g > 0.8 for g in gains)


def _energy_breakdown_study():
    machine = TransmuterModel()
    model = train_default_model(EE, kernel="spmspv")
    trace = build_trace("spmspv", "P3", scale=0.3)
    schedules = {
        **run_static(
            machine, trace, {"Baseline": BASELINE, "Max Cfg": MAX_CFG}
        ),
        "SparseAdapt": SparseAdaptController(
            model, machine, EE, HybridPolicy(0.4), BASELINE
        ).run(trace),
    }
    out = {}
    for name, schedule in schedules.items():
        breakdown = schedule.energy_breakdown()
        total = schedule.total_energy_j
        out[name] = {
            key: value / total
            for key, value in breakdown.items()
            if key
            in ("core_dynamic", "l1_dynamic", "l2_dynamic", "dram", "leakage")
        }
        out[name]["total_uj"] = total * 1e6
    return out


def test_robustness_energy_breakdown(benchmark, emit):
    rows = run_once(benchmark, _energy_breakdown_study)
    emit(
        format_gain_table(
            "Robustness 3 - energy breakdown by component (fractions;"
            " SpMSpV P3, EE mode)",
            rows,
            (
                "core_dynamic",
                "l1_dynamic",
                "l2_dynamic",
                "dram",
                "leakage",
                "total_uj",
            ),
            value_format="{:8.3f}",
        )
    )
    # Max Cfg's energy problem is leakage; SparseAdapt's energy is
    # mostly the irreducible DRAM share.
    assert rows["Max Cfg"]["leakage"] > rows["SparseAdapt"]["leakage"]
    assert rows["SparseAdapt"]["dram"] > rows["Max Cfg"]["dram"]
    assert rows["SparseAdapt"]["total_uj"] < rows["Baseline"]["total_uj"]


FAULT_RATES_SPEC = (
    pathlib.Path(__file__).resolve().parent.parent
    / "experiments"
    / "specs"
    / "fault_rates.json"
)


def _fault_sweep():
    from repro.experiments.spec import compile_plan, load_spec
    from repro.obs.compare import ledger_terminal_rows
    from repro.runner import run_plan

    with tempfile.TemporaryDirectory() as scratch:
        ledger = pathlib.Path(scratch) / "fault_rates.jsonl"
        run_plan(compile_plan(load_spec(FAULT_RATES_SPEC)), ledger_path=ledger)
        _, rows = ledger_terminal_rows(ledger)
    entries = {
        row["candidate"]: row["result"]["schemes"]["SparseAdapt"]
        for row in rows
    }
    clean_gain = entries["clean"]["efficiency_gain"]
    out = {}
    for candidate, entry in entries.items():
        stats = entry.get("fault_stats", {})
        out[candidate] = {
            "gain": entry["efficiency_gain"],
            "retention": (entry["efficiency_gain"] - 1.0) / (clean_gain - 1.0),
            "injected": float(stats.get("n_faults_injected", 0)),
            "detected": float(stats.get("n_faults_detected", 0)),
            "safe_epochs": float(stats.get("safe_epochs", 0)),
        }
    return out


def test_robustness_fault_sweep(benchmark, emit):
    rows = run_once(benchmark, _fault_sweep)
    emit(
        format_gain_table(
            "Robustness 4 - fault-rate spec (SpMSpV P3 at scale 0.15, EE"
            " mode, 10% base rate)",
            rows,
            ("gain", "retention", "injected", "detected", "safe_epochs"),
            value_format="{:8.3f}",
        )
    )
    # At the full 10% mixed-fault rate the hardened controller detects
    # the injected corruption and retains a documented fraction of the
    # clean adaptive gain over BASELINE (docs/robustness.md).
    full = rows["hardened-1"]
    assert full["detected"] > 0
    assert full["retention"] >= 0.35
    assert full["gain"] > 1.0
