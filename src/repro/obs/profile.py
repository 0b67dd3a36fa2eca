"""Hierarchical wall-clock profiler for campaign hot-path attribution.

Traces answer "what did the controller decide"; the profiler answers
"where did the wall-clock go". Instrumented components — kernel
simulation, forest inference, the analytical cache/power models,
reconfiguration costing, ledger/sink I/O — open *spans*::

    from repro.obs import profile

    with profile.span("kernel_sim"):
        ...  # may open nested spans

Spans form a tree keyed by the call path (``kernel_sim;cache_model``),
each node accumulating call count and cumulative seconds; self time is
derived at report time as cumulative minus the children's cumulative.
The collapsed-stack export (one ``a;b;c <self_us>`` line per path) is
the flamegraph interchange format, so any stock flamegraph tool can
render a campaign profile.

Design mirrors :mod:`repro.obs.trace`: a process-wide current profiler
behind :func:`get_profiler`/:func:`install`, with a shared disabled
null profiler as the default so the disabled fast path is one attribute
check and a shared no-op context manager — cheap enough to leave the
instrumentation compiled in permanently (guarded in
``benchmarks/bench_obs_overhead.py``).

Thread safety matters here: the runner's deadline watchdog executes
each job attempt in its own thread, so span stacks are thread-local
(every thread nests from the root) while the accumulated tree is
shared under one lock. Lock traffic is per span entry/exit at component
granularity, not per epoch-inner-loop operation.

Stdlib-only and importing nothing from ``repro``: the modules being
instrumented (sinks, ledger, machine) import *this* module, so it must
sit at the bottom of the dependency graph.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "Profiler",
    "get_profiler",
    "install",
    "profiling",
    "span",
    "collapsed_stacks",
    "component_breakdown",
    "format_profile_report",
    "save_profile",
    "load_profile",
]

PROFILE_SCHEMA_VERSION = 1


class _NullSpan:
    """Shared do-nothing span: the disabled fast path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Node:
    """One call-path node of the accumulated profile tree."""

    __slots__ = ("name", "calls", "cum_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.cum_s = 0.0
        self.children: Dict[str, "_Node"] = {}


class _Span:
    """A live timer frame; created only when profiling is enabled."""

    __slots__ = ("_profiler", "_name", "_node", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._node: Optional[_Node] = None
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._node = self._profiler._push(self._name)
        self._start = self._profiler._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        elapsed = self._profiler._clock() - self._start
        self._profiler._pop(self._node, elapsed)
        return False


class Profiler:
    """Accumulates a span tree; one per profiled command or worker.

    ``clock`` is injectable for deterministic tests (defaults to
    :func:`time.perf_counter`). The profiler is enabled on creation;
    the module-level null profiler is the only disabled instance.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = True
        self._clock = clock
        self._root = _Node("")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._started = clock()
        self._stopped: Optional[float] = None

    # ------------------------------------------------------------------
    def span(self, name: str) -> object:
        """A context-manager timer frame nested under the current one."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def _stack(self) -> List[_Node]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = [self._root]
            self._local.stack = stack
        return stack

    def _push(self, name: str) -> _Node:
        stack = self._stack()
        parent = stack[-1]
        with self._lock:
            node = parent.children.get(name)
            if node is None:
                node = _Node(name)
                parent.children[name] = node
        stack.append(node)
        return node

    def _pop(self, node: Optional[_Node], elapsed: float) -> None:
        stack = self._stack()
        if len(stack) > 1 and stack[-1] is node:
            stack.pop()
        if node is None:  # pragma: no cover - defensive
            return
        with self._lock:
            node.calls += 1
            node.cum_s += elapsed

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Freeze the wall-clock window (idempotent)."""
        if self._stopped is None:
            self._stopped = self._clock()

    @property
    def wall_s(self) -> float:
        """Wall-clock seconds since creation (frozen by :meth:`stop`)."""
        end = self._stopped if self._stopped is not None else self._clock()
        return end - self._started

    # ------------------------------------------------------------------
    def merge(self, data: Optional[dict]) -> None:
        """Fold a worker's exported profile into this tree.

        Node counts and cumulative times add; the worker's wall-clock
        window is discarded (workers overlap — the supervising
        profiler's own window is the campaign wall-clock). A disabled
        profiler ignores merges, and ``None`` (a worker that ran
        unprofiled) is a no-op.
        """
        if not self.enabled or not data:
            return
        with self._lock:
            for entry in data.get("nodes", ()):
                path = entry.get("path")
                if not path:
                    continue
                node = self._root
                for name in path:
                    child = node.children.get(name)
                    if child is None:
                        child = _Node(name)
                        node.children[name] = child
                    node = child
                node.calls += int(entry.get("calls", 0))
                node.cum_s += float(entry.get("cum_s", 0.0))

    # ------------------------------------------------------------------
    def _walk(self) -> Iterator[Tuple[Tuple[str, ...], _Node]]:
        """Every node with its path, depth-first, children name-sorted."""
        todo: List[Tuple[Tuple[str, ...], _Node]] = [((), self._root)]
        while todo:
            path, node = todo.pop()
            if path:
                yield path, node
            for name in sorted(node.children, reverse=True):
                todo.append((path + (name,), node.children[name]))

    def as_dict(self) -> dict:
        """JSON-native export: schema, wall window, flat node list.

        ``self_s`` is derived here (cumulative minus children's
        cumulative, floored at zero against clock jitter) so saved
        profiles are self-describing.
        """
        nodes = []
        with self._lock:
            for path, node in self._walk():
                child_cum = sum(
                    child.cum_s for child in node.children.values()
                )
                nodes.append(
                    {
                        "path": list(path),
                        "calls": node.calls,
                        "cum_s": node.cum_s,
                        "self_s": max(0.0, node.cum_s - child_cum),
                    }
                )
        nodes.sort(key=lambda entry: entry["path"])
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "wall_s": self.wall_s,
            "nodes": nodes,
        }


# ---------------------------------------------------------------------------
# Process-wide current profiler (mirrors trace.py's recorder plumbing).

_NULL_PROFILER = Profiler()
_NULL_PROFILER.enabled = False

_current: Profiler = _NULL_PROFILER


def get_profiler() -> Profiler:
    """The process-wide current profiler (a disabled one by default)."""
    return _current


def install(profiler: Optional[Profiler]) -> Profiler:
    """Make ``profiler`` current; ``None`` restores the disabled null
    profiler. Returns the previously installed profiler."""
    global _current
    previous = _current
    _current = profiler if profiler is not None else _NULL_PROFILER
    return previous


def span(name: str) -> object:
    """Module-level shortcut: a span on the current profiler.

    This is the call instrumentation points use; when no profiler is
    installed it returns the shared null span without allocating.
    """
    profiler = _current
    if not profiler.enabled:
        return _NULL_SPAN
    return profiler.span(name)


class profiling:
    """Context manager: install a fresh (or given) profiler, restore on
    exit, and freeze its wall-clock window::

        with profile.profiling() as prof:
            run_plan(plan)
        print(format_profile_report(prof.as_dict()))
    """

    def __init__(self, profiler: Optional[Profiler] = None) -> None:
        self.profiler = profiler if profiler is not None else Profiler()
        self._previous: Optional[Profiler] = None

    def __enter__(self) -> Profiler:
        self._previous = install(self.profiler)
        return self.profiler

    def __exit__(self, *exc_info) -> bool:
        self.profiler.stop()
        install(
            self._previous
            if self._previous is not _NULL_PROFILER
            else None
        )
        return False


# ---------------------------------------------------------------------------
# Report formats over the exported dict (not the live Profiler), so
# they work identically on merged / saved / loaded profiles.


def _frame(name: str) -> str:
    """Sanitize one frame name for the collapsed-stack format, whose
    separators are ``;`` (frames) and space (the trailing value)."""
    return name.replace(";", "_").replace(" ", "_")


def collapsed_stacks(data: dict) -> str:
    """Flamegraph collapsed-stack text: ``a;b;c <self_microseconds>``.

    One line per call path carrying self time, sorted by path; feed
    straight into any stock ``flamegraph.pl``-compatible tool.
    """
    lines = []
    for entry in data.get("nodes", ()):
        value = int(round(entry.get("self_s", 0.0) * 1e6))
        if value <= 0 and not entry.get("calls"):
            continue
        stack = ";".join(_frame(name) for name in entry["path"])
        lines.append(f"{stack} {value}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def component_breakdown(data: dict) -> Dict[str, Dict[str, float]]:
    """Self time and calls grouped by component (leaf frame name).

    The same component can appear at several call paths (``reconfig``
    under a policy filter and under the controller commit); grouping by
    frame name answers the roadmap question — where does campaign time
    go per *component* — without double counting, because only self
    time is summed.
    """
    out: Dict[str, Dict[str, float]] = {}
    for entry in data.get("nodes", ()):
        name = entry["path"][-1]
        slot = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        slot["self_s"] += entry.get("self_s", 0.0)
        slot["calls"] += entry.get("calls", 0)
    return out


def coverage_fraction(data: dict) -> float:
    """Instrumented fraction of the wall-clock window: total self time
    (which sums without double counting) over wall seconds."""
    wall = data.get("wall_s") or 0.0
    if wall <= 0:
        return 0.0
    instrumented = sum(
        entry.get("self_s", 0.0) for entry in data.get("nodes", ())
    )
    return instrumented / wall


def format_profile_report(data: dict, top: Optional[int] = None) -> str:
    """Human-readable profile: component table plus the span tree."""
    wall = data.get("wall_s") or 0.0
    components = component_breakdown(data)
    ranked = sorted(
        components.items(),
        key=lambda item: (-item[1]["self_s"], item[0]),
    )
    if top is not None:
        ranked = ranked[:top]
    coverage = coverage_fraction(data) * 100.0
    lines = [
        "profile: wall {:.3f} s, {} components, {:.1f}% of wall-clock "
        "instrumented".format(wall, len(components), coverage),
        "",
        "{:<24} {:>12} {:>8} {:>10}".format(
            "component", "self_s", "self%", "calls"
        ),
    ]
    for name, stats in ranked:
        pct = 100.0 * stats["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            "{:<24} {:>12.6f} {:>7.1f}% {:>10d}".format(
                name, stats["self_s"], pct, int(stats["calls"])
            )
        )
    lines.append("")
    lines.append(
        "{:<44} {:>12} {:>12} {:>10}".format(
            "span tree", "cum_s", "self_s", "calls"
        )
    )
    for entry in data.get("nodes", ()):
        path = entry["path"]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            "{:<44} {:>12.6f} {:>12.6f} {:>10d}".format(
                label[:44],
                entry.get("cum_s", 0.0),
                entry.get("self_s", 0.0),
                int(entry.get("calls", 0)),
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
def save_profile(data: dict, path) -> None:
    """Write an exported profile as JSON (atomically, via the obs
    sink helper — imported locally to keep this module at the bottom
    of the dependency graph)."""
    from repro.obs.sinks import write_atomic

    write_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_profile(path) -> dict:
    """Load and validate a saved profile; raises ``ValueError`` on a
    file that is not a profile export."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "nodes" not in data:
        raise ValueError(f"{path} is not a profile export (no nodes)")
    if data.get("schema") != PROFILE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported profile schema {data.get('schema')!r} in {path}"
        )
    return data
