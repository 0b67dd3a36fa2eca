"""Declarative experiment specs: parsing strictness, cross-reference
checks, compilation to campaign plans, and content-addressed key
stability for jobs that do not use the new spec fields."""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.spec import (
    DEFAULT_METRICS,
    CandidateSpec,
    ExperimentSpec,
    RegressionGate,
    WorkloadSpec,
    compile_plan,
    load_spec,
    looks_like_spec,
)
from repro.runner.plan import JobSpec


def _raw(**overrides):
    raw = {
        "name": "exp",
        "defaults": {"kernel": "spmspv", "scale": 0.15, "mode": "ee"},
        "candidates": [
            {"name": "dynamic"},
            {"name": "static", "scheme": "Best Avg"},
        ],
        "workloads": [{"matrix": "P1"}, {"matrix": "U1"}],
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
def test_from_dict_defaults():
    spec = ExperimentSpec.from_dict(_raw())
    assert spec.name == "exp"
    assert spec.baseline == "dynamic"  # first candidate by default
    assert spec.metrics == DEFAULT_METRICS
    assert spec.seeds == (0,)
    assert spec.gates == ()
    assert spec.candidate_names() == ["dynamic", "static"]
    # Workload names default to the matrix id; spec defaults merge in.
    assert spec.workload_names() == ["P1", "U1"]
    assert spec.workloads[0].kernel == "spmspv"
    assert spec.workloads[0].scale == 0.15


def test_workload_overrides_defaults():
    raw = _raw(
        workloads=[{"matrix": "P1", "scale": 0.5, "name": "big-p1"}]
    )
    spec = ExperimentSpec.from_dict(raw)
    assert spec.workloads[0].name == "big-p1"
    assert spec.workloads[0].scale == 0.5


@pytest.mark.parametrize(
    "mutation",
    [
        {"bogus": 1},
        {"candidates": [{"name": "x", "bogus": 1}]},
        {"workloads": [{"matrix": "P1", "bogus": 1}]},
        {"gates": [{"candidate": "dynamic", "metric": "perf_gain",
                    "within_pct": 5, "bogus": 1}]},
        # name/matrix are per-entry identity, not defaults.
        {"defaults": {"kernel": "spmspv", "matrix": "P1"}},
        {"defaults": {"kernel": "spmspv", "name": "w"}},
    ],
)
def test_unknown_keys_rejected(mutation):
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentSpec.from_dict(_raw(**mutation))


@pytest.mark.parametrize("key", ["candidates", "workloads"])
@pytest.mark.parametrize("value", [None, [], "nope"])
def test_missing_or_empty_lists_rejected(key, value):
    raw = _raw()
    if value is None:
        del raw[key]
    else:
        raw[key] = value
    with pytest.raises(ConfigError, match=key):
        ExperimentSpec.from_dict(raw)


def test_duplicate_names_rejected():
    with pytest.raises(ConfigError, match="duplicate candidate"):
        ExperimentSpec.from_dict(
            _raw(candidates=[{"name": "x"}, {"name": "x"}])
        )
    with pytest.raises(ConfigError, match="duplicate workload"):
        ExperimentSpec.from_dict(
            _raw(workloads=[{"matrix": "P1"}, {"matrix": "P1"}])
        )
    with pytest.raises(ConfigError, match="duplicate metric"):
        ExperimentSpec.from_dict(
            _raw(metrics=["perf_gain", "perf_gain"])
        )
    with pytest.raises(ConfigError, match="duplicate seed"):
        ExperimentSpec.from_dict(_raw(seeds=[1, 1]))


def test_baseline_must_be_declared():
    with pytest.raises(ConfigError, match="not a declared candidate"):
        ExperimentSpec.from_dict(_raw(baseline="ghost"))


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError, match="unknown metric"):
        ExperimentSpec.from_dict(_raw(metrics=["speedyness"]))


@pytest.mark.parametrize("seeds", [[True], [-1], [1.5], ["0"], []])
def test_bad_seeds_rejected(seeds):
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(_raw(seeds=seeds))


# ---------------------------------------------------------------------------
# Gate cross-references
# ---------------------------------------------------------------------------
def _gate(**overrides):
    gate = {"candidate": "static", "metric": "perf_gain", "within_pct": 10}
    gate.update(overrides)
    return gate


def test_gate_happy_path():
    spec = ExperimentSpec.from_dict(_raw(gates=[_gate()]))
    assert spec.gates[0] == RegressionGate(
        candidate="static", metric="perf_gain", within_pct=10.0
    )


@pytest.mark.parametrize(
    "gate, match",
    [
        (_gate(candidate="ghost"), "unknown candidate"),
        (_gate(of="ghost"), "unknown reference"),
        (_gate(of="static"), "against itself"),
        (_gate(metric="edp_js"), "not in the spec's"),
        (_gate(workload="ghost"), "unknown workload"),
        (_gate(within_pct=float("nan")), "finite"),
        (_gate(within_pct=True), "number"),
        ({"candidate": "static", "metric": "perf_gain"}, "within_pct"),
        (_gate(within_pct=float("inf")), "finite"),
        (_gate(within_pct=float("-inf")), "finite"),
    ],
)
def test_bad_gates_rejected(gate, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentSpec.from_dict(_raw(gates=[gate]))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
def test_compile_plan_shape_and_order():
    spec = ExperimentSpec.from_dict(_raw(seeds=[0, 7]))
    plan = compile_plan(spec)
    assert plan.name == "exp"
    assert len(plan.jobs) == 2 * 2 * 2
    # Workload-major: all of P1 before any of U1, candidates in
    # declaration order, seeds innermost.
    identities = [
        (job.workload, job.candidate, job.seed) for job in plan.jobs
    ]
    assert identities == [
        ("P1", "dynamic", 0),
        ("P1", "dynamic", 7),
        ("P1", "static", 0),
        ("P1", "static", 7),
        ("U1", "dynamic", 0),
        ("U1", "dynamic", 7),
        ("U1", "static", 0),
        ("U1", "static", 7),
    ]
    assert plan.jobs[0].label() == "dynamic:P1"
    assert plan.jobs[1].label() == "dynamic:P1/s7"
    # Scheme sets: Baseline plus the candidate scheme (dedup for
    # Baseline-only candidates is covered by CandidateSpec.schemes).
    assert plan.jobs[0].schemes == ("Baseline", "SparseAdapt")
    assert plan.jobs[2].schemes == ("Baseline", "Best Avg")
    assert plan.jobs[2].candidate_scheme == "Best Avg"


def test_compile_plan_regret_opt_in():
    base = ExperimentSpec.from_dict(_raw())
    assert not any(job.regret for job in compile_plan(base).jobs)
    with_regret = ExperimentSpec.from_dict(
        _raw(metrics=["perf_gain", "oracle_regret_pct"])
    )
    assert all(job.regret for job in compile_plan(with_regret).jobs)


def test_compile_plan_key_deterministic():
    spec_a = ExperimentSpec.from_dict(_raw())
    spec_b = ExperimentSpec.from_dict(_raw())
    assert compile_plan(spec_a).key() == compile_plan(spec_b).key()
    changed = ExperimentSpec.from_dict(
        _raw(candidates=[{"name": "dynamic", "policy": "aggressive"},
                         {"name": "static", "scheme": "Best Avg"}])
    )
    assert compile_plan(changed).key() != compile_plan(spec_a).key()


def test_compile_rejects_bad_policy_string():
    spec = ExperimentSpec.from_dict(
        _raw(candidates=[{"name": "dynamic", "policy": "yolo"}])
    )
    with pytest.raises(ConfigError, match="policy"):
        compile_plan(spec)


def test_baseline_scheme_candidate_runs_single_scheme():
    assert CandidateSpec(name="b", scheme="Baseline").schemes() == (
        "Baseline",
    )
    assert CandidateSpec(name="d").schemes() == ("Baseline", "SparseAdapt")


def test_legacy_job_keys_unchanged():
    """Jobs that do not use the spec fields keep their pre-existing
    content-addressed keys, so old ledgers stay resumable."""
    job = JobSpec(kernel="spmspv", matrix="P1")
    assert job.key() == "7627fa20187134e7"
    payload = job.as_dict()
    for key in (
        "candidate", "workload", "seed", "policy",
        "hardening", "faults", "model", "regret",
    ):
        assert key not in payload


def test_spec_fields_reach_the_job_key():
    plain = JobSpec(kernel="spmspv", matrix="P1")
    seeded = JobSpec(kernel="spmspv", matrix="P1", seed=3)
    tagged = JobSpec(
        kernel="spmspv", matrix="P1", candidate="c", workload="w"
    )
    assert len({plain.key(), seeded.key(), tagged.key()}) == 3


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------
def test_load_spec_json_roundtrip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_raw()))
    spec = load_spec(path)
    assert spec == ExperimentSpec.from_dict(_raw())
    assert looks_like_spec(path)


@pytest.mark.parametrize(
    "content, match",
    [
        ("{not json", "malformed"),
        ("[1, 2]", "object"),
    ],
)
def test_load_spec_bad_files(tmp_path, content, match):
    path = tmp_path / "spec.json"
    path.write_text(content)
    with pytest.raises(ConfigError, match=match):
        load_spec(path)


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="no such spec"):
        load_spec(tmp_path / "ghost.json")


def test_load_spec_toml(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(
        'name = "exp"\n'
        '[defaults]\nkernel = "spmspv"\nscale = 0.15\n'
        '[[candidates]]\nname = "dynamic"\n'
        '[[workloads]]\nmatrix = "P1"\n'
    )
    try:
        import tomllib  # noqa: F401
    except ImportError:
        with pytest.raises(ConfigError, match="tomllib"):
            load_spec(path)
    else:
        spec = load_spec(path)
        assert spec.name == "exp"
        assert spec.workload_names() == ["P1"]
        assert looks_like_spec(path)


def test_looks_like_spec_rejects_ledgers_and_garbage(tmp_path):
    ledger = tmp_path / "run.jsonl"
    ledger.write_text(
        '{"type": "header", "version": 1, "plan_key": "x"}\n'
        '{"type": "result", "key": "a"}\n'
    )
    assert not looks_like_spec(ledger)
    assert not looks_like_spec(tmp_path / "ghost.json")


def test_shipped_policies_spec_loads():
    import pathlib

    spec = load_spec(
        pathlib.Path(__file__).parent.parent
        / "experiments"
        / "specs"
        / "paper"
        / "fig11_policies.json"
    )
    assert spec.baseline == "conservative"
    assert "best-avg" in spec.candidate_names()
    plan = compile_plan(spec)
    assert len(plan.jobs) == len(spec.candidates) * len(spec.workloads)


def test_workload_spec_requires_kernel_and_matrix():
    with pytest.raises(ConfigError, match="kernel"):
        WorkloadSpec.from_dict({"matrix": "P1"})


def test_missing_matrix_advice_is_loadable():
    """The error names where each key may come from, and following it
    loads: ``kernel`` from spec defaults, ``matrix`` on the workload
    (spec defaults reject ``matrix``)."""
    with pytest.raises(ConfigError) as missing:
        ExperimentSpec.from_dict(_raw(workloads=[{"name": "w"}]))
    message = str(missing.value)
    assert "'matrix' on each workload" in message
    assert "'kernel' there or in spec defaults" in message
    with pytest.raises(ConfigError, match="unknown spec defaults key"):
        ExperimentSpec.from_dict(
            _raw(
                defaults={"kernel": "spmspv", "matrix": "P1"},
                workloads=[{"name": "w"}],
            )
        )
    spec = ExperimentSpec.from_dict(_raw(workloads=[{"matrix": "P1"}]))
    assert spec.workloads[0].kernel == "spmspv"
