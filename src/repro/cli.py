"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the configuration space, Table-4 static points, and the
    default machine geometry.
``suite``
    List the Table-5 evaluation matrices and their stand-in classes.
``train``
    Train a SparseAdapt model on the Table-3 sweep and save it as JSON.
``run``
    Evaluate control schemes for one kernel/matrix and print the gains
    (``--json`` for machine-readable output; ``--trace-out`` also
    records the evaluated schemes as a JSONL trace).
``trace-report``
    Summarize a recorded trace: epoch timeline, reconfiguration counts
    by parameter, decision-latency histogram, most expensive epochs.
``explain``
    Print the decision provenance recorded in a trace: the tree path
    (counter vs threshold at every node), vote margin, and the policy
    verdict with its cost-vs-budget numbers, per epoch and parameter.
``diff``
    Align two recorded traces epoch-by-epoch: first-divergence epoch,
    per-parameter divergence timeline, counter deltas at divergence,
    and a whole-run metric regression summary. Exits 3 when the traces
    diverge (0 when identical), so scripts can assert reproducibility.
``compare``
    Render a multi-candidate comparison from a declarative experiment
    spec and the ledger ``suite-run --spec`` produced (or from legacy
    campaign ledgers): per-workload metric tables, win/loss matrix,
    geomean deltas vs the baseline candidate, per-candidate health,
    regression gates (violations exit 3), optional SVG figures and a
    first-divergence drill-down between two adaptive candidates.
``suite-run``
    Run a supervised campaign from a plan file (or the built-in
    Table-5 plan): per-job deadlines, bounded retries, quarantine for
    poisoned inputs, and a durable run ledger that makes the campaign
    resumable with ``--resume``. ``--workers N`` runs the pending
    jobs on N local store workers (a store at ``<ledger>.store/``)
    with byte-identical results. ``--spec``
    compiles a declarative experiment spec (see ``docs/experiments.md``)
    into the plan instead, for ``repro compare`` afterwards.
    ``--store DIR`` registers the plan in a shared experiment store
    and works it as one store worker — any number of additional
    ``repro worker --store DIR`` processes (any host sharing the path)
    can join, and the converged ledger is byte-identical regardless.
``worker``
    Join a registered experiment store as one worker process: claim
    open jobs via atomic lease files, execute them under the store's
    supervision config, publish results first-wins, and exit when the
    grid converges (see docs/robustness.md, "multi-host campaigns").
``ledger-compact``
    Rewrite a run ledger to its header plus terminal records only,
    sealed with a checksum trailer — reports stay byte-identical while
    retry/heartbeat churn is dropped. ``--check`` verifies a compacted
    ledger's trailer instead.
``fsck``
    Scan an experiment store (or a bare ledger file) for storage
    damage: torn/corrupt records, result groups failing their sha256
    trailer, orphan ``*.tmp`` residue, dead leases, and terminal
    ledger rows whose result group vanished. ``--repair`` quarantines
    corrupt groups back to open, scavenges residue, and rewrites or
    rebuilds damaged ledgers so a resumed campaign converges
    byte-identical. Exits 0 clean / 1 unrepairable / 3 repairable
    damage found without ``--repair``.
``suite-report``
    Summarize a past campaign's run ledger without re-running it (job
    counts, retries, quarantine taxonomy, per-worker timing), or diff
    two ledgers' terminal rows with ``--diff``.
``top``
    Watch a running campaign live through its ledger's heartbeat
    records: progress bar, per-worker throughput, EWMA-based ETA, and
    straggler/dead-worker flags (``--once`` for one snapshot,
    ``--metrics-out`` for an OpenMetrics export).
``profile-report``
    Render a profile saved by ``run``/``suite-run`` ``--profile-out``:
    per-component self-time table, span tree, or the collapsed-stack
    flamegraph text (``--collapsed``).

``run`` executes under the suite runner's watchdog, so
``--deadline SECONDS`` bounds a single invocation; ``run`` and
``suite-run`` accept ``--profile`` to print a wall-clock attribution
report (see ``docs/profiling.md``).

Every library failure (bad arguments, malformed spec files, unknown
fault kinds, ...) exits 1 with a one-line ``error: ...`` on stderr —
never a traceback. The comparison verbs share one exit-code contract:
``diff``, ``explain --against``, ``suite-report --diff`` and
``compare`` exit 0 when the inputs agree (all gates pass), 3 when they
diverge or a gate is violated, with a one-line summary on stderr (see
``docs/observability.md``). Ctrl-C flushes open trace sinks, prints a
one-line ``interrupted: ...`` (with a resume hint when a ledger was
active), and exits 130.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__

__all__ = ["main", "build_parser"]

_MODES = {"ee": "energy-efficient", "pp": "power-performance"}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SparseAdapt (MICRO 2021) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("info", help="describe the modeled system")
    commands.add_parser("suite", help="list the Table-5 matrices")

    train = commands.add_parser("train", help="train and save a model")
    train.add_argument("--mode", choices=sorted(_MODES), default="ee")
    train.add_argument(
        "--kernel", choices=("spmspm", "spmspv"), default="spmspv"
    )
    train.add_argument("--l1-type", choices=("cache", "spm"), default="cache")
    train.add_argument(
        "--full",
        action="store_true",
        help="run the full hyperparameter grid search (slower)",
    )
    train.add_argument("--out", required=True, help="output JSON path")

    run = commands.add_parser("run", help="evaluate schemes on one input")
    run.add_argument(
        "--kernel",
        choices=("spmspm", "spmspv", "bfs", "sssp"),
        default="spmspm",
    )
    run.add_argument("--matrix", default="R03", help="Table-5 id (e.g. R03)")
    run.add_argument("--scale", type=float, default=0.3)
    run.add_argument("--mode", choices=sorted(_MODES), default="ee")
    run.add_argument("--model", help="trained model JSON (default: stock)")
    run.add_argument(
        "--bandwidth", type=float, default=1.0, help="off-chip GB/s"
    )
    run.add_argument(
        "--upper-bounds",
        action="store_true",
        help="include Ideal Static / Ideal Greedy / Oracle",
    )
    run.add_argument(
        "--noise",
        type=float,
        default=0.0,
        help="telemetry noise sigma on the SparseAdapt scheme",
    )
    run.add_argument(
        "--noise-seed",
        dest="noise_stream_seed",
        type=int,
        default=0,
        help="RNG seed of the telemetry noise stream",
    )
    run.add_argument(
        "--faults",
        help="fault schedule JSON for the SparseAdapt scheme "
        "(see docs/robustness.md)",
    )
    run.add_argument(
        "--no-hardening",
        action="store_true",
        help="run the fault-injected controller without the hardened "
        "sanitize/read-back/safe-mode layer",
    )
    run.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock deadline in seconds (the evaluation runs "
        "under the suite runner's watchdog)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="print a wall-clock profile (kernel sim, forest "
        "inference, cache/power models, ...) after the results",
    )
    run.add_argument(
        "--profile-out",
        help="also save the profile as JSON for `repro profile-report`",
    )
    run.add_argument(
        "--trace-out",
        help="record the evaluated schemes as a JSONL trace here "
        "(for `repro trace-report`, `explain` and `diff`)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the gain table",
    )

    report = commands.add_parser(
        "trace-report", help="summarize a recorded JSONL trace"
    )
    report.add_argument(
        "path", help="trace file written by `repro run --trace-out`"
    )
    report.add_argument(
        "--top",
        type=int,
        default=5,
        help="how many most-expensive epochs to list",
    )
    report.add_argument(
        "--timeline-rows",
        type=int,
        default=64,
        help="max epoch-timeline rows before eliding the middle",
    )

    explain = commands.add_parser(
        "explain",
        help="explain the recorded reconfiguration decisions of a trace",
    )
    explain.add_argument(
        "path", help="trace file written by `repro run --trace-out`"
    )
    explain.add_argument(
        "--epoch",
        type=int,
        default=None,
        help="explain one epoch (default: every epoch proposing a change)",
    )
    explain.add_argument(
        "--param",
        default=None,
        help="restrict to one runtime parameter (e.g. l1_kb)",
    )
    explain.add_argument(
        "--counters",
        action="store_true",
        help="also print the counter values the model read",
    )
    explain.add_argument(
        "--against",
        metavar="OTHER",
        default=None,
        help="second trace: explain both runs' decisions at their "
        "first divergence epoch instead (exits 3 when they diverge, "
        "0 when identical)",
    )

    diff = commands.add_parser(
        "diff", help="compare two recorded traces epoch-by-epoch"
    )
    diff.add_argument("path_a", help="reference trace")
    diff.add_argument("path_b", help="trace to compare against the reference")
    diff.add_argument(
        "--timeline-rows",
        type=int,
        default=24,
        help="max divergence-timeline rows before eliding the tail",
    )
    diff.add_argument(
        "--json",
        action="store_true",
        help="emit the structured diff as JSON instead of the report",
    )

    compare = commands.add_parser(
        "compare",
        help="compare candidates side-by-side from a spec's ledger "
        "(or legacy campaign ledgers)",
    )
    compare.add_argument(
        "target",
        help="experiment spec file (JSON/TOML), or a run ledger",
    )
    compare.add_argument(
        "ledgers",
        nargs="*",
        help="run ledger(s): exactly one when TARGET is a spec; "
        "optional extra ledgers when TARGET is itself a ledger",
    )
    compare.add_argument(
        "--baseline",
        default=None,
        help="baseline candidate for geomeans and gates "
        "(default: the spec's baseline, or the first candidate)",
    )
    compare.add_argument(
        "--metrics",
        default=None,
        help="comma-separated metric override "
        "(default: the spec's metric list)",
    )
    compare.add_argument(
        "--no-gates",
        action="store_true",
        help="skip the spec's regression gates (never exit 3)",
    )
    compare.add_argument(
        "--drill-down",
        metavar="CANDIDATE@WORKLOAD",
        default=None,
        help="re-run this candidate against the baseline on one "
        "workload with tracing and print the first-divergence trace "
        "diff (spec targets only; both must be adaptive)",
    )
    compare.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the --drill-down re-runs",
    )
    compare.add_argument(
        "--timeline-rows",
        type=int,
        default=24,
        help="max --drill-down divergence-timeline rows",
    )
    compare.add_argument(
        "--svg-dir",
        help="write one self-contained grouped-bar SVG per metric "
        "into this directory",
    )
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison (and gate results) as JSON",
    )
    compare.add_argument(
        "--out",
        help="also write the comparison JSON to this path (atomically)",
    )

    suite_run = commands.add_parser(
        "suite-run",
        help="run a supervised, resumable campaign from a plan",
    )
    suite_run.add_argument(
        "plan",
        nargs="?",
        help="campaign plan JSON file (omit for the built-in Table-5 plan)",
    )
    suite_run.add_argument(
        "--spec",
        help="experiment spec file (JSON/TOML) to compile into the "
        "campaign plan (mutually exclusive with a plan file); "
        "inspect the results with `repro compare SPEC LEDGER`",
    )
    suite_run.add_argument(
        "--scale",
        type=float,
        default=0.3,
        help="problem scale of the built-in plan (ignored with a plan file)",
    )
    suite_run.add_argument(
        "--mode",
        choices=sorted(_MODES),
        default="ee",
        help="optimization mode of the built-in plan "
        "(ignored with a plan file)",
    )
    suite_run.add_argument(
        "--ledger",
        help="durable JSONL run ledger; arms checkpointing and --resume",
    )
    suite_run.add_argument(
        "--store",
        metavar="DIR",
        help="register the plan in a shared experiment store at DIR "
        "(creating or attaching) and run as one store worker; other "
        "hosts join with `repro worker --store DIR` "
        "(mutually exclusive with --ledger/--resume/--workers)",
    )
    suite_run.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous run from --ledger "
        "(completed jobs replay from the ledger)",
    )
    suite_run.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-job wall-clock deadline in seconds "
        "(jobs may override via their deadline_s)",
    )
    suite_run.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retry budget per job for retryable failures (incl. timeouts)",
    )
    suite_run.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="first retry backoff sleep in seconds (doubles per retry)",
    )
    suite_run.add_argument(
        "--seed", type=int, default=0, help="seed of the retry-jitter streams"
    )
    suite_run.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="stop after this many newly executed jobs, leaving the "
        "ledger resumable (CI smoke, staged campaigns)",
    )
    suite_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="local store worker processes to run pending jobs on "
        "(default 1 = in-process; results are byte-identical "
        "at any count)",
    )
    suite_run.add_argument(
        "--faults",
        help="fault schedule JSON; its job_hang/job_crash/job_oom kinds "
        "are applied per job attempt (see docs/robustness.md)",
    )
    suite_run.add_argument(
        "--profile",
        action="store_true",
        help="profile the campaign (store workers return their span "
        "trees to the parent) and print the attribution report",
    )
    suite_run.add_argument(
        "--profile-out",
        help="also save the profile as JSON for `repro profile-report`",
    )
    suite_run.add_argument(
        "--metrics-out",
        help="write the campaign's final metrics in OpenMetrics text "
        "format to this path (atomically)",
    )
    suite_run.add_argument(
        "--json",
        action="store_true",
        help="emit the suite report as JSON instead of the table",
    )
    suite_run.add_argument(
        "--out",
        help="also write the suite report JSON to this path (atomically)",
    )

    suite_report = commands.add_parser(
        "suite-report",
        help="summarize or diff past campaign ledgers without re-running",
    )
    suite_report.add_argument(
        "ledger",
        help="run ledger (or worker shard) JSONL file to summarize",
    )
    suite_report.add_argument(
        "--diff",
        metavar="OTHER",
        help="second ledger: diff terminal rows (stable view, "
        "wall-clock stripped) instead of summarizing",
    )
    suite_report.add_argument(
        "--json",
        action="store_true",
        help="emit the summary/diff as JSON instead of text",
    )

    worker = commands.add_parser(
        "worker",
        help="join a shared experiment store as one campaign worker",
    )
    worker.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="experiment store directory (registered by "
        "`repro suite-run --store DIR` on any participating host)",
    )
    worker.add_argument(
        "--owner",
        default=None,
        help="lease owner id recorded on every claim "
        "(default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help="lease time-to-live in seconds; a worker silent for this "
        "long forfeits its claim to any survivor (default 30)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.25,
        help="seconds between scans when no open job is claimable",
    )
    worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="stop after publishing this many jobs, leaving the rest "
        "to other workers",
    )
    worker.add_argument(
        "--wait",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wait up to this long for the store registration to "
        "appear (workers launched before the coordinator)",
    )
    worker.add_argument(
        "--no-finalize",
        action="store_true",
        help="never merge the canonical ledger, even when this worker "
        "observes convergence (leave it to the coordinator)",
    )
    worker.add_argument(
        "--json",
        action="store_true",
        help="emit the worker summary as JSON instead of one line",
    )

    ledger_compact = commands.add_parser(
        "ledger-compact",
        help="rewrite a ledger to terminal records + checksum trailer",
    )
    ledger_compact.add_argument(
        "ledger",
        help="run ledger JSONL file to compact (or verify with --check)",
    )
    ledger_compact.add_argument(
        "--out",
        help="write the compacted ledger here instead of replacing "
        "the input in place",
    )
    ledger_compact.add_argument(
        "--check",
        action="store_true",
        help="verify the ledger's checksum trailer instead of "
        "compacting (exit 1 when missing or corrupt)",
    )
    ledger_compact.add_argument(
        "--json",
        action="store_true",
        help="emit the compaction/verification stats as JSON",
    )

    fsck = commands.add_parser(
        "fsck",
        help="scan (and --repair) an experiment store or ledger for "
        "storage damage",
    )
    fsck.add_argument(
        "target",
        help="experiment store directory (holding store.json) or a "
        "run-ledger JSONL file",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="apply repairs: quarantine corrupt result groups back to "
        "open, scavenge tmp residue, drop dead leases, rewrite or "
        "rebuild damaged ledgers (assumes no worker is active)",
    )
    fsck.add_argument(
        "--json",
        action="store_true",
        help="emit the fsck report as JSON",
    )

    top = commands.add_parser(
        "top",
        help="watch a running campaign live through its ledger",
    )
    top.add_argument(
        "ledger",
        help="run ledger of the campaign to watch (worker shards are "
        "found next to it and in its --workers store)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit instead of refreshing",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh interval in seconds",
    )
    top.add_argument(
        "--straggler-threshold",
        type=float,
        default=30.0,
        help="heartbeat age in seconds after which a runner is "
        "flagged as a straggler (dead at 4x)",
    )
    top.add_argument(
        "--metrics-out",
        help="write each snapshot as OpenMetrics text to this path "
        "(atomically; scrape-friendly)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="emit one snapshot as JSON and exit (implies --once)",
    )

    profile_report = commands.add_parser(
        "profile-report",
        help="render a profile saved by run/suite-run --profile-out",
    )
    profile_report.add_argument(
        "path", help="profile JSON written by --profile-out"
    )
    profile_report.add_argument(
        "--top",
        type=int,
        default=None,
        help="limit the component table to the N hottest components",
    )
    profile_report.add_argument(
        "--collapsed",
        action="store_true",
        help="emit collapsed-stack flamegraph text instead of the "
        "report (pipe into any flamegraph tool)",
    )
    profile_report.add_argument(
        "--json",
        action="store_true",
        help="emit the raw profile dict as JSON",
    )

    return parser


# ---------------------------------------------------------------------------
def _fault_setup(args):
    """Resolve the shared ``--noise``/``--faults`` arguments.

    Returns the ``(faults, hardening)`` fields of a
    :class:`~repro.runner.plan.JobSpec`, or raises
    :class:`~repro.errors.FaultError` (one-line error, exit 1) for
    negative rates, conflicting flags, and unreadable/malformed spec
    files — the CLI boundary validates before any model is trained.
    """
    from repro.errors import FaultError
    from repro.faults import FaultSchedule, noise_schedule

    noise = args.noise
    if noise < 0:
        raise FaultError(f"--noise must be non-negative, got {noise:g}")
    if noise > 0 and args.faults:
        raise FaultError("pass either --noise or --faults, not both")
    if args.faults:
        schedule = FaultSchedule.from_file(args.faults)
        return schedule.as_dict(), (False if args.no_hardening else None)
    if noise > 0:
        # --noise is shorthand for a one-spec counter_noise schedule,
        # run unhardened.
        return noise_schedule(noise, args.noise_stream_seed).as_dict(), False
    return None, None


def _mode(label: str):
    from repro.core.modes import OptimizationMode

    return (
        OptimizationMode.ENERGY_EFFICIENT
        if label == "ee"
        else OptimizationMode.POWER_PERFORMANCE
    )


def _command_info() -> int:
    from repro.baselines import static_configs_for
    from repro.transmuter import TransmuterModel, runtime_space, space_size

    machine = TransmuterModel()
    print(f"repro {__version__} - SparseAdapt reproduction")
    print(f"default machine: {machine.describe()}")
    print(
        f"configuration space: {space_size()} points "
        f"({len(runtime_space('cache'))} runtime-reachable for L1 cache, "
        f"{len(runtime_space('spm'))} for L1 SPM)"
    )
    print("\nTable-4 static configurations:")
    for l1_type in ("cache", "spm"):
        for name, config in static_configs_for(l1_type).items():
            print(f"  [{l1_type}] {name:9s} {config.describe()}")
    return 0


def _command_suite() -> int:
    from repro.sparse import suite

    print(f"{'id':4} {'name':24} {'dim':>7} {'nnz':>8}  domain / stand-in")
    for matrix_id, spec in suite.SUITE.items():
        print(
            f"{matrix_id:4} {spec.name:24} {spec.dimension:>7} "
            f"{spec.nnz:>8}  {spec.domain} / {spec.structure}"
        )
    return 0


def _command_train(args) -> int:
    from repro.core import save_model, train_default_model

    model = train_default_model(
        _mode(args.mode),
        kernel=args.kernel,
        l1_type=args.l1_type,
        quick=not args.full,
    )
    save_model(model, args.out)
    print(f"model saved to {args.out}")
    print(model.describe())
    return 0


def _emit_profile(profiler, args) -> None:
    """Print a just-captured profile (and save it with --profile-out)."""
    from repro.obs import profile as obs_profile

    data = profiler.as_dict()
    out = getattr(args, "profile_out", None)
    if out:
        obs_profile.save_profile(data, out)
    # With --json stdout must stay machine-parseable, so the human
    # report moves to stderr (the saved JSON is the machine channel).
    stream = sys.stderr if getattr(args, "json", False) else sys.stdout
    print(file=stream)
    print(obs_profile.format_profile_report(data), end="", file=stream)
    if out:
        print(
            f"profile written to {out} (repro profile-report {out})",
            file=stream,
        )


def _command_run(args) -> int:
    from repro.obs import profile as obs_profile

    if not args.profile:
        return _run_single(args)
    with obs_profile.profiling() as profiler:
        code = _run_single(args)
    if code == 0:
        _emit_profile(profiler, args)
    return code


def _run_single(args) -> int:
    import contextlib

    from repro import obs
    from repro.experiments.harness import (
        STANDARD_SCHEMES,
        UPPER_BOUND_SCHEMES,
        build_trace,
        evaluate_schemes,
        gains_over,
        job_context,
    )
    from repro.errors import ReproError
    from repro.experiments.reporting import format_gain_table
    from repro.runner import Job, JobSpec, SuiteRunner, SupervisorConfig

    faults, hardening = _fault_setup(args)
    spec = JobSpec(
        kernel=args.kernel,
        matrix=args.matrix,
        scale=args.scale,
        mode=args.mode,
        schemes=(
            UPPER_BOUND_SCHEMES + ("Best Avg", "Max Cfg")
            if args.upper_bounds
            else STANDARD_SCHEMES
        ),
        bandwidth_gbps=args.bandwidth,
        hardening=hardening,
        faults=faults,
        model=args.model,
    )

    # A one-job campaign: the suite runner supplies the --deadline
    # watchdog (inline, zero threads, when no deadline is set) and
    # nothing is retried. The deadline goes through SupervisorConfig,
    # so one that is not positive is rejected here, before anything
    # runs.
    runner = SuiteRunner(
        config=SupervisorConfig(deadline_s=args.deadline, max_retries=0)
    )
    # Named before the job resolves the model, so a run whose --model
    # fails to load still prints which input it traced.
    if not args.json:
        trace = build_trace(spec.kernel, spec.matrix, scale=spec.scale)
        print(f"trace: {trace.name} ({trace.n_epochs} epochs)")

    def evaluate() -> dict:
        context = job_context(spec)
        # The recorder sees the schemes only: the input was traced and
        # the model resolved before it is installed.
        recording = (
            obs.recording(args.trace_out)
            if args.trace_out
            else contextlib.nullcontext()
        )
        with recording as recorder:
            results = evaluate_schemes(context, spec.schemes)
        return {
            "context": context,
            "results": results,
            "gains": gains_over(results),
            "emitted": recorder.n_emitted if recorder else 0,
        }

    label = f"run/{args.kernel}/{args.matrix}"
    job = Job(key=spec.key(), label=label, fn=evaluate, index=0)
    row = runner.run([job], name=label.replace("/", "-")).rows[0]
    if row["status"] != "ok":
        raise ReproError(row["failure"]["error"])
    outcome = row["result"]
    context = outcome["context"]
    gains = outcome["gains"]
    if args.json:
        payload = {
            "kernel": args.kernel,
            "matrix": args.matrix,
            "scale": args.scale,
            "mode": context.mode.value,
            "bandwidth_gbps": args.bandwidth,
            "trace": {
                "name": context.trace.name,
                "n_epochs": context.trace.n_epochs,
            },
            "schemes": {
                name: result.as_dict()
                for name, result in outcome["results"].items()
            },
            "gains_over_baseline": gains,
        }
        if context.faults is not None:
            payload["faults"] = {
                "seed": context.faults.seed,
                "kinds": sorted(context.faults.kinds()),
                "n_specs": len(context.faults),
                "hardened": (
                    context.hardening is None or context.hardening.enabled
                ),
            }
        print(json.dumps(_to_jsonable(payload), indent=2))
    else:
        rows = {
            name: {
                "GFLOPS": values["gflops"],
                "GFLOPS/W": values["gflops_per_watt"],
                "perf x": values["perf_gain"],
                "eff x": values["efficiency_gain"],
            }
            for name, values in gains.items()
        }
        print(
            format_gain_table(
                f"{args.kernel} on {args.matrix} "
                f"({context.mode.value} mode, {args.bandwidth:g} GB/s)",
                rows,
                ("GFLOPS", "GFLOPS/W", "perf x", "eff x"),
                value_format="{:8.4f}",
            )
        )
    if args.trace_out:
        # With --json stdout must stay machine-parseable.
        print(
            f"trace: {outcome['emitted']} records -> {args.trace_out} "
            f"(inspect with: repro trace-report {args.trace_out})",
            file=sys.stderr if args.json else sys.stdout,
        )
    return 0


def _command_compare(args) -> int:
    from repro.errors import ConfigError
    from repro.experiments.spec import load_spec, looks_like_spec
    from repro.obs import compare as obs_compare
    from repro.obs.sinks import write_atomic

    spec = None
    if looks_like_spec(args.target):
        spec = load_spec(args.target)
        if len(args.ledgers) != 1:
            raise ConfigError(
                "a spec target needs exactly one ledger: "
                "repro compare SPEC LEDGER (run the spec first with "
                f"`repro suite-run --spec {args.target} --ledger ...`)"
            )
        ledger_paths = list(args.ledgers)
    else:
        ledger_paths = [args.target, *args.ledgers]

    if args.metrics is not None:
        metrics = tuple(
            token.strip()
            for token in args.metrics.split(",")
            if token.strip()
        )
        if not metrics:
            raise ConfigError("--metrics must name at least one metric")
    elif spec is not None:
        metrics = spec.metrics
    else:
        from repro.experiments.spec import DEFAULT_METRICS

        metrics = DEFAULT_METRICS

    rows: list = []
    header: dict = {}
    for path in ledger_paths:
        header, terminal = obs_compare.ledger_terminal_rows(path)
        if spec is not None:
            from repro.experiments.spec import compile_plan

            expected = compile_plan(spec).key()
            if header.get("plan_key") != expected:
                raise ConfigError(
                    f"ledger {path} was not produced by this spec "
                    f"(plan key {header.get('plan_key')!r}, spec "
                    f"compiles to {expected!r}); re-run with "
                    f"`repro suite-run --spec {args.target} "
                    f"--ledger {path}`"
                )
        rows.extend(terminal)

    samples = obs_compare.scrape_rows(rows, metrics)
    comparison = obs_compare.build_comparison(
        samples,
        metrics,
        baseline=args.baseline
        or (spec.baseline if spec is not None else None),
        candidates=spec.candidate_names() if spec is not None else None,
        workloads=spec.workload_names() if spec is not None else None,
        name=(
            spec.name
            if spec is not None
            # Legacy ledgers: the plan name, never the ledger path —
            # reports must not vary with where the ledger lives.
            else str(header.get("plan_name") or "comparison")
        ),
    )
    gate_results = None
    if spec is not None and not args.no_gates:
        gate_results = obs_compare.evaluate_gates(comparison, spec.gates)

    drill = None
    if args.drill_down is not None:
        if spec is None:
            raise ConfigError(
                "--drill-down re-runs candidates from a spec; the "
                "target must be a spec file, not a ledger"
            )
        candidate, separator, workload = args.drill_down.partition("@")
        if not separator or not candidate or not workload:
            raise ConfigError(
                "--drill-down takes CANDIDATE@WORKLOAD, got "
                f"{args.drill_down!r}"
            )
        drill = obs_compare.drill_down(
            spec,
            candidate,
            workload,
            seed=args.seed,
            reference=args.baseline,
        )

    payload = {"comparison": comparison, "gates": gate_results}
    if drill is not None:
        payload["drill_down"] = drill
    if args.out:
        write_atomic(
            args.out,
            json.dumps(_to_jsonable(payload), indent=2, sort_keys=True)
            + "\n",
        )
    if args.json:
        print(json.dumps(_to_jsonable(payload), indent=2, sort_keys=True))
    else:
        print(obs_compare.render_comparison(comparison, gate_results))
        if drill is not None:
            from repro.obs.diff import render_diff

            print()
            print(render_diff(drill, max_timeline_rows=args.timeline_rows))
        if args.out:
            print(f"comparison written to {args.out}")
    if args.svg_dir:
        written = obs_compare.write_figures(comparison, args.svg_dir)
        if not args.json:
            print(f"{len(written)} figure(s) written to {args.svg_dir}")

    violated = [
        result for result in gate_results or () if not result["passed"]
    ]
    if violated:
        print(
            f"gate violation: {len(violated)} of {len(gate_results)} "
            "gate(s) failed",
            file=sys.stderr,
        )
        return 3
    return 0


def _command_suite_run(args) -> int:
    from pathlib import Path

    from repro.errors import ConfigError
    from repro.faults import FaultSchedule
    from repro.obs.sinks import write_atomic
    from repro.runner import (
        CampaignPlan,
        SupervisorConfig,
        format_suite_table,
        run_plan,
        table5_plan,
    )

    if args.store and args.ledger:
        raise ConfigError(
            "--store keeps its own canonical ledger inside the store "
            "directory; pass either --store or --ledger, not both"
        )
    if args.store and args.resume:
        raise ConfigError(
            "--store campaigns resume themselves: re-running the same "
            "command (or any `repro worker --store`) continues from "
            "the published results; drop --resume"
        )
    if args.store and args.workers != 1:
        raise ConfigError(
            "--store parallelism comes from attaching more workers "
            "(`repro worker --store DIR`), not --workers; drop --workers"
        )
    for flag, given in (
        ("--profile", args.profile),
        ("--profile-out", args.profile_out),
    ):
        if args.store and given:
            raise ConfigError(
                f"--store campaigns are not profiled; drop {flag}"
            )
    if args.store and args.metrics_out:
        raise ConfigError(
            "--store keeps its ledger in the store directory; export its "
            f"metrics with `repro top {Path(args.store) / 'ledger.jsonl'} "
            f"--once --metrics-out {args.metrics_out}` and drop --metrics-out"
        )
    if args.resume and not args.ledger:
        raise ConfigError(
            "--resume requires --ledger (the run ledger to continue)"
        )
    if args.max_jobs is not None and args.max_jobs < 1:
        raise ConfigError(
            f"--max-jobs must be at least 1, got {args.max_jobs}"
        )
    if args.workers < 1:
        raise ConfigError(
            f"--workers must be at least 1, got {args.workers}"
        )
    if args.plan and args.spec:
        raise ConfigError(
            "pass either a plan file or --spec, not both"
        )
    if args.spec:
        from repro.experiments.spec import compile_plan, load_spec

        spec = load_spec(args.spec)
        plan = compile_plan(spec)
        if not args.json:
            print(
                f"spec {spec.name!r}: {len(plan.jobs)} job(s) "
                f"({len(spec.candidates)} candidate(s) x "
                f"{len(spec.workloads)} workload(s) x "
                f"{len(spec.seeds)} seed(s)), plan key {plan.key()}"
            )
    elif args.plan:
        plan = CampaignPlan.from_file(args.plan)
    else:
        plan = table5_plan(scale=args.scale, mode=args.mode)
    if args.faults:
        schedule = FaultSchedule.from_file(args.faults)
        plan = CampaignPlan(name=plan.name, jobs=plan.jobs, faults=schedule)
    config = SupervisorConfig(
        deadline_s=args.deadline,
        max_retries=args.max_retries,
        backoff_base_s=args.backoff,
        seed=args.seed,
    )

    if args.store:
        return _suite_run_store(args, plan, config)

    def execute():
        return run_plan(
            plan,
            config=config,
            ledger_path=args.ledger,
            resume=args.resume,
            max_jobs=args.max_jobs,
            workers=args.workers,
        )

    profiler = None
    if args.profile:
        from repro.obs import profile as obs_profile

        # Workers see the "profile" flag in their payload, run their
        # own Profiler, and export their span tree back to the parent
        # for merging — so the report covers the whole campaign.
        with obs_profile.profiling() as profiler:
            report = execute()
    else:
        report = execute()
    payload = _to_jsonable(report.as_dict())
    if args.out:
        write_atomic(
            args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_suite_table(report))
        if args.out:
            print(f"suite report written to {args.out}")
    if profiler is not None:
        _emit_profile(profiler, args)
    if args.metrics_out:
        from repro.obs import live
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        if args.ledger:
            live.export_campaign_metrics(
                live.read_live(args.ledger), registry
            )
        else:
            # No ledger: no heartbeats survive anywhere, so publish the
            # campaign totals straight from the in-memory report.
            counts = report.counts()
            registry.gauge(
                "campaign.jobs.total", "Jobs in the campaign plan"
            ).set(len(report.rows))
            registry.gauge(
                "campaign.jobs.done", "Jobs finished ok"
            ).set(counts["ok"])
            registry.gauge(
                "campaign.jobs.failed", "Jobs failed or quarantined"
            ).set(counts["failed"])
        write_atomic(args.metrics_out, registry.render_openmetrics())
        if not args.json:
            print(f"metrics written to {args.metrics_out}")
    if report.partial:
        hint = "; rerun with --resume to continue" if args.ledger else ""
        print(
            f"checkpoint: stopped after --max-jobs {args.max_jobs} "
            f"new jobs{hint}",
            file=sys.stderr,
        )
    return 0


def _suite_run_store(args, plan, config) -> int:
    """``suite-run --store``: register the plan and work it as one
    store worker (the coordinator leg of a multi-host campaign)."""
    from repro.obs.sinks import write_atomic
    from repro.runner import (
        ExperimentStore,
        format_suite_table,
        run_store_worker,
    )

    store = ExperimentStore.create_or_attach(
        args.store, plan=plan, config=config
    )
    if not args.json:
        print(
            f"store {store.root}: plan {store.plan_name!r} "
            f"({store.n_jobs} jobs, key {store.plan_key}) — "
            f"join with `repro worker --store {store.root}`"
        )
    summary = run_store_worker(store, max_jobs=args.max_jobs)
    report = store.report()
    payload = _to_jsonable({"report": report.as_dict(), "worker": summary})
    if args.out:
        write_atomic(
            args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_suite_table(report))
        if args.out:
            print(f"suite report written to {args.out}")
        print(
            f"store worker w{summary['worker']} ({summary['owner']}): "
            f"{summary['published']} job(s) published, "
            f"finalized={summary['finalized']}"
        )
    if not summary["complete"]:
        print(
            "checkpoint: store not yet converged "
            f"({len(store.open_entries())} open job(s)); any "
            "`repro worker --store` can finish it",
            file=sys.stderr,
        )
    return 0


def _command_worker(args) -> int:
    from repro.errors import ConfigError
    from repro.runner import (
        DEFAULT_LEASE_TTL_S,
        ExperimentStore,
        run_store_worker,
    )

    if args.wait < 0:
        raise ConfigError(f"--wait must be non-negative, got {args.wait:g}")
    ttl = DEFAULT_LEASE_TTL_S if args.lease_ttl is None else args.lease_ttl
    store = ExperimentStore.attach(args.store, wait_s=args.wait)
    summary = run_store_worker(
        store,
        owner=args.owner,
        lease_ttl_s=ttl,
        poll_s=args.poll,
        max_jobs=args.max_jobs,
        finalize=not args.no_finalize,
    )
    if args.json:
        print(json.dumps(_to_jsonable(summary), indent=2, sort_keys=True))
    else:
        print(
            f"worker w{summary['worker']} ({summary['owner']}): "
            f"{summary['published']} job(s) published "
            f"({summary['ok']} ok, {summary['failed']} failed) "
            f"in {summary['duration_s']:.2f}s — "
            f"store {'converged' if summary['complete'] else 'open'}"
            + (", ledger finalized" if summary["finalized"] else "")
        )
    return 0


def _command_ledger_compact(args) -> int:
    from repro.runner import compact_ledger, verify_trailer

    if args.check:
        result = verify_trailer(args.ledger)
        if args.json:
            print(json.dumps(_to_jsonable(result), indent=2, sort_keys=True))
        if not result["present"]:
            print(
                f"error: {args.ledger} has no checksum trailer "
                "(not a compacted ledger)",
                file=sys.stderr,
            )
            return 1
        if not result["ok"]:
            print(
                f"error: {args.ledger} trailer mismatch "
                f"(expected sha256 {result['expected']}, "
                f"recomputed {result['sha256']})",
                file=sys.stderr,
            )
            return 1
        if not args.json:
            print(
                f"{args.ledger}: trailer ok "
                f"({result['records']} records, sha256 {result['sha256']})"
            )
        return 0
    stats = compact_ledger(args.ledger, out=args.out)
    if args.json:
        print(json.dumps(_to_jsonable(stats), indent=2, sort_keys=True))
    else:
        dropped = sum(stats["dropped"].values())
        print(
            f"compacted {stats['path']} -> {stats['out']}: "
            f"{stats['records_before']} -> {stats['records_after']} "
            f"records ({stats['jobs']} jobs, {dropped} volatile/"
            f"superseded dropped, {stats['torn_lines']} torn), "
            f"{stats['bytes_before']} -> {stats['bytes_after']} bytes"
        )
        print(f"trailer sha256 {stats['sha256']}")
    return 0


def _command_fsck(args) -> int:
    from repro.runner.fsck import format_fsck_report, run_fsck

    report = run_fsck(args.target, repair=args.repair)
    if args.json:
        print(
            json.dumps(
                _to_jsonable(report.as_dict()), indent=2, sort_keys=True
            )
        )
    else:
        print(format_fsck_report(report))
    code = report.exit_code()
    if code == 3 and args.json:
        print(
            f"error: repairable damage in {args.target}; "
            "re-run with --repair",
            file=sys.stderr,
        )
    elif code == 1:
        print(
            f"error: unrepaired damage in {args.target}",
            file=sys.stderr,
        )
    return code


def _command_suite_report(args) -> int:
    from repro.runner.report import (
        diff_ledgers,
        format_ledger_diff,
        format_ledger_summary,
        summarize_ledger,
    )

    if args.diff:
        diff = diff_ledgers(args.ledger, args.diff)
        if args.json:
            print(json.dumps(_to_jsonable(diff), indent=2, sort_keys=True))
        else:
            print(format_ledger_diff(diff))
        return 0 if diff["identical"] else 3
    summary = summarize_ledger(args.ledger)
    if args.json:
        print(json.dumps(_to_jsonable(summary), indent=2, sort_keys=True))
    else:
        print(format_ledger_summary(summary))
    return 0


def _command_top(args) -> int:
    import time as time_module

    from repro.obs import live
    from repro.obs import metrics as obs_metrics
    from repro.obs.sinks import write_atomic

    def snapshot():
        status = live.read_live(
            args.ledger, straggler_after_s=args.straggler_threshold
        )
        if args.metrics_out:
            registry = obs_metrics.MetricsRegistry()
            live.export_campaign_metrics(status, registry)
            write_atomic(args.metrics_out, registry.render_openmetrics())
        return status

    if args.once or args.json:
        status = snapshot()
        if args.json:
            print(
                json.dumps(
                    _to_jsonable(status.as_dict()), indent=2, sort_keys=True
                )
            )
        else:
            print(live.render_top(status), end="")
        return 0
    while True:
        status = snapshot()
        # Full-screen refresh: clear, home, redraw.
        sys.stdout.write("\x1b[2J\x1b[H")
        sys.stdout.write(live.render_top(status))
        sys.stdout.flush()
        if status.complete:
            return 0
        time_module.sleep(args.interval)


def _command_profile_report(args) -> int:
    from repro.obs import profile as obs_profile

    try:
        data = obs_profile.load_profile(args.path)
    except FileNotFoundError:
        print(f"error: no such profile file: {args.path}", file=sys.stderr)
        return 1
    except IsADirectoryError:
        print(
            f"error: {args.path} is a directory, not a profile",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:  # malformed JSON or wrong schema
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 1
    if args.collapsed:
        sys.stdout.write(obs_profile.collapsed_stacks(data))
        return 0
    if args.json:
        print(json.dumps(_to_jsonable(data), indent=2, sort_keys=True))
        return 0
    print(obs_profile.format_profile_report(data, top=args.top), end="")
    return 0


def _load_trace_checked(path: str):
    """Load + schema-check a trace; ``None`` after a one-line stderr error.

    The single error path every trace-reading verb (``trace-report``,
    ``explain``, ``diff``) funnels through: missing file, malformed
    JSONL, and unsupported schema versions all print one line and make
    the caller exit 1 — never a traceback.
    """
    from repro.obs import report

    try:
        records = report.load_trace(path)
        report.check_schema(records, origin="trace")
    except FileNotFoundError:
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return None
    except IsADirectoryError:
        print(f"error: {path} is a directory, not a trace", file=sys.stderr)
        return None
    except ValueError as exc:  # malformed JSONL or bad schema version
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    return records


def _command_trace_report(args) -> int:
    from repro.obs import report

    records = _load_trace_checked(args.path)
    if records is None:
        return 1
    summary = report.summarize(records)
    print(
        report.render(
            summary, top=args.top, max_timeline_rows=args.timeline_rows
        )
    )
    return 0


def _command_explain(args) -> int:
    from repro.obs.explain import (
        render_divergence_explanation,
        render_explanation,
    )

    records = _load_trace_checked(args.path)
    if records is None:
        return 1
    if args.against:
        records_b = _load_trace_checked(args.against)
        if records_b is None:
            return 1
        try:
            text, first = render_divergence_explanation(
                records,
                records_b,
                label_a=args.path,
                label_b=args.against,
                parameter=args.param,
                show_counters=args.counters,
            )
        except ValueError as exc:  # no epochs / schema-1 config gaps
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(text)
        if first is None:
            return 0
        print(
            f"divergence: traces split at epoch {first}",
            file=sys.stderr,
        )
        return 3
    try:
        print(
            render_explanation(
                records,
                epoch=args.epoch,
                parameter=args.param,
                show_counters=args.counters,
            )
        )
    except ValueError as exc:  # no/filtered-out provenance records
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _command_diff(args) -> int:
    from repro.obs.diff import diff_traces, render_diff

    records_a = _load_trace_checked(args.path_a)
    if records_a is None:
        return 1
    records_b = _load_trace_checked(args.path_b)
    if records_b is None:
        return 1
    try:
        diff = diff_traces(
            records_a, records_b, label_a=args.path_a, label_b=args.path_b
        )
    except ValueError as exc:  # no epochs / schema-1 config gaps
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(_to_jsonable(diff), indent=2))
    else:
        print(render_diff(diff, max_timeline_rows=args.timeline_rows))
    first = diff["first_divergence_epoch"]
    if first is None:
        return 0
    # Same contract as `suite-report --diff`: divergence exits 3 so
    # reproducibility checks can assert without parsing the report.
    print(
        "divergence: first at epoch {} ({} of {} compared epochs "
        "differ)".format(
            first,
            diff["divergence"]["n_divergent_epochs"],
            diff["n_compared"],
        ),
        file=sys.stderr,
    )
    return 3


def _to_jsonable(value):
    """Recursively coerce a result structure into JSON-native types."""
    if isinstance(value, dict):
        return {str(key): _to_jsonable(nested) for key, nested in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return _to_jsonable(item())
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)  # numpy arrays
    if callable(tolist):
        return _to_jsonable(tolist())
    return str(value)


def _flush_trace_sinks() -> None:
    """Best-effort close of a recorder left installed by an interrupted
    command, so the trace on disk ends on a complete record. (The
    ``obs.recording`` context manager already restores and closes on
    the way out; this covers recorders installed without it.)"""
    from repro import obs

    recorder = obs.get_recorder()
    if getattr(recorder, "enabled", False):
        try:
            obs.install(None)
            recorder.close()
        except Exception:  # noqa: BLE001 - interrupt path, flush only
            pass


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    handlers = {
        "info": lambda: _command_info(),
        "suite": lambda: _command_suite(),
        "train": lambda: _command_train(args),
        "run": lambda: _command_run(args),
        "trace-report": lambda: _command_trace_report(args),
        "explain": lambda: _command_explain(args),
        "diff": lambda: _command_diff(args),
        "compare": lambda: _command_compare(args),
        "suite-run": lambda: _command_suite_run(args),
        "worker": lambda: _command_worker(args),
        "ledger-compact": lambda: _command_ledger_compact(args),
        "fsck": lambda: _command_fsck(args),
        "suite-report": lambda: _command_suite_report(args),
        "top": lambda: _command_top(args),
        "profile-report": lambda: _command_profile_report(args),
    }
    try:
        return handlers[args.command]()
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): not an error.
        return 0
    except KeyboardInterrupt as exc:
        # Ctrl-C: flush open sinks, one line, exit 130. A campaign
        # interrupt carries a resume hint (the ledger was checkpointed
        # before we got here).
        _flush_trace_sinks()
        hint = getattr(exc, "resume_hint", None)
        print(
            f"interrupted: {hint or 'stopped before completion'}",
            file=sys.stderr,
        )
        return 130
    except ReproError as exc:
        # Every library failure surfaces as one line, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
