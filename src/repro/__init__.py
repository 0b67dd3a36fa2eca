"""SparseAdapt reproduction: runtime control for sparse linear algebra
on a reconfigurable accelerator (MICRO 2021).

Subpackages
-----------
``repro.sparse``
    Sparse matrix formats, generators, and the Table-5 evaluation suite.
``repro.ml``
    From-scratch decision trees, forests, and linear models.
``repro.transmuter``
    Analytical model of the Transmuter CGRA: configuration space, DVFS,
    caches, crossbars, prefetcher, memory, power, counters, reconfiguration.
``repro.kernels``
    Outer-product SpMSpM, SpMSpV, GeMM, and Conv workload models that
    execute on real data and emit per-epoch workload traces.
``repro.graph``
    BFS and SSSP as iterative SpMSpV vertex programs.
``repro.core``
    The SparseAdapt framework: modes, telemetry, training-set
    construction, the predictive-model ensemble, cost-aware policies,
    and the runtime controller.
``repro.baselines``
    Static configurations, Ideal Greedy, Oracle, and ProfileAdapt.
``repro.experiments``
    Harness and drivers that regenerate every table and figure.
``repro.obs``
    Observability: structured JSONL traces, trace and campaign reports,
    OpenMetrics exports of a campaign ledger.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
