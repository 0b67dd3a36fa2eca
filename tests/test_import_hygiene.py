"""A job process imports no tooling.

Suite jobs trace inputs, evaluate schemes and drive the runner.
Comparison, trace reports, exports, experiment specs, model
files, the offload runtime, the graph kernels, the line-accurate
simulator and fsck are tooling: the package ``__init__``s load them on
first use (PEP 562), so a cold worker process does not compile them.
Every public name must stay reachable the old ways: attribute access,
``from package import name`` and ``from package import *``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

#: Modules no suite job imports.
TOOLING = (
    "repro.obs.compare",
    "repro.obs.diff",
    "repro.obs.explain",
    "repro.obs.live",
    "repro.obs.metrics",
    "repro.obs.report",
    "repro.experiments.characterize",
    "repro.experiments.export",
    "repro.experiments.reporting",
    "repro.experiments.spec",
    "repro.core.ablation",
    "repro.core.memorymode",
    "repro.core.persistence",
    "repro.core.runtime",
    "repro.transmuter.detailed",
    "repro.runner.fsck",
    "repro.graph",
)

#: Packages whose ``__init__`` defers part of its ``__all__``.
LAZY_PACKAGES = (
    "repro.obs",
    "repro.experiments",
    "repro.core",
    "repro.transmuter",
    "repro.runner",
)

#: One statics-only job serially and through a store worker, and one
#: SparseAdapt job (stock-model training included); prints the result
#: counts and the ``repro`` modules loaded.
JOB_SCRIPT = """
import json, sys, tempfile
from pathlib import Path

import repro.experiments.harness
import repro.runner
from repro.runner import (
    CampaignPlan, ExperimentStore, JobSpec, run_plan, run_store_worker,
)

statics = JobSpec(
    kernel="spmspv", matrix="P1", scale=0.05,
    schemes=("Baseline", "Best Avg", "Max Cfg"),
)
adaptive = JobSpec(
    kernel="spmspv", matrix="P1", scale=0.05,
    schemes=("Baseline", "SparseAdapt"),
)
with tempfile.TemporaryDirectory() as root:
    serial = run_plan(
        CampaignPlan(name="hygiene", jobs=(statics, adaptive)),
        ledger_path=str(Path(root) / "run.jsonl"),
    )
    store = ExperimentStore.create(
        Path(root) / "store", plan=CampaignPlan(name="grid", jobs=(statics,))
    )
    run_store_worker(store, poll_s=0.01)
    published = store.terminal_row(statics.key()) is not None
print(json.dumps({
    "counts": serial.counts(),
    "published": published,
    "modules": sorted(name for name in sys.modules if name.startswith("repro")),
}))
"""


def _run_child(script: str) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_jobs_import_no_tooling():
    result = _run_child(JOB_SCRIPT)
    assert result["counts"] == {"ok": 2, "failed": 0}
    assert result["published"]
    loaded = set(result["modules"])
    assert "repro.experiments.harness" in loaded
    leaked = sorted(
        name
        for name in loaded
        if any(name == tool or name.startswith(tool + ".") for tool in TOOLING)
    )
    assert leaked == []


def test_import_star_resolves_every_name():
    result = _run_child(
        "import json\n"
        + "".join(f"from {package} import *\n" for package in LAZY_PACKAGES)
        + "print(json.dumps({'ok': True}))\n"
    )
    assert result == {"ok": True}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        getattr(module, "missing")


def test_deferred_names_are_the_submodule_objects():
    from repro import core, experiments, obs, runner, transmuter
    from repro.core import persistence
    from repro.experiments import characterize, spec
    from repro.obs import report
    from repro.runner import fsck
    from repro.transmuter import detailed

    assert obs.report is report
    assert experiments.load_spec is spec.load_spec
    assert experiments.characterize is characterize
    assert experiments.characterize_trace is characterize.characterize
    assert core.load_model is persistence.load_model
    assert transmuter.synthesize_trace is detailed.synthesize_trace
    assert runner.run_fsck is fsck.run_fsck
