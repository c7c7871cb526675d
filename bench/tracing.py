"""Per-layer measurement from outside the program.

Nothing under ``src/`` knows about the benchmark.  Layers are observed
three ways, all driven from here:

* :class:`Tracer` wraps the coarse public entry points (application
  construction, machine construction, ``simulate_full``, store
  get/put, figure rendering, ...) with in-memory **spans** -- name,
  start, end, parent, one run id -- and takes **exact counts** from
  the objects those calls return (``RunResult``, the machine's caches
  and fabric).  Wrappers are installed on module/class attributes and
  removed again by :meth:`Tracer.uninstall`.
* :func:`profile_layers` buckets every function ``cProfile`` saw by the
  directory of its file under ``src/repro/`` (self time and exact call
  counts per layer).
* Span self time (:func:`span_self_times`) is a span's duration minus
  what its child spans cover, so nested spans never double-count.

End-to-end metrics are measured with all of this off.
"""

from __future__ import annotations

import cProfile
import functools
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

from ledger import PROFILE_LAYERS, SPANS

#: (name, start, end, parent index or -1)
Span = Tuple[str, float, float, int]

#: Top-level modules of ``repro`` that are layers in their own right.
_MODULE_LAYERS = {"runspec.py": "runspec", "cli.py": "cli",
                  "__main__.py": "cli"}


def layer_of_path(filename: str, src_root: str) -> Optional[str]:
    """The layer owning ``filename``; None for code without a file.

    ``src_root`` is the ``src/repro`` directory.  Packages map to their
    directory name (``engine`` to ``engine.py``: the C half is
    recognised separately, by builtin name); ``runspec.py`` and
    ``cli.py`` are layers of their own; everything else -- the rest of
    ``repro`` (config, units, service, ...), the standard library,
    numpy -- is ``other``.  Generated code (``<string>``: dataclass
    ``__init__``\\ s, ``<frozen ...>``) has no file and returns None so
    the caller can charge it to whoever called it.
    """
    if filename.startswith("<"):
        return None
    root = src_root.rstrip(os.sep) + os.sep
    if not filename.startswith(root):
        return "other"
    head = filename[len(root):].split(os.sep, 1)[0]
    if head == "engine":
        return "engine.py"
    layer = _MODULE_LAYERS.get(head, head)
    return layer if layer in PROFILE_LAYERS else "other"


def layer_of_builtin(name: str) -> str:
    """Builtins are ``builtins``, except the compiled event kernel."""
    return "engine.c" if "_csoa" in name else "builtins"


def profile_layers(profile: cProfile.Profile,
                   src_root: str) -> Dict[str, Dict[str, float]]:
    """Self seconds and call counts per layer from a finished profile.

    Reads ``getstats()`` directly: ``pstats`` keys entries by
    (file, line, name) and silently drops all but one of the
    dataclass-generated ``__init__``\\ s, which all sit at
    ``<string>:2`` -- 9 % of LogP's profiled time.  File-less code is
    charged to the layer of each caller, using the per-caller subcall
    records.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in PROFILE_LAYERS}

    def code_layer(code) -> Optional[str]:
        if isinstance(code, str):
            return layer_of_builtin(code)
        return layer_of_path(code.co_filename, src_root)

    for entry in profile.getstats():
        layer = code_layer(entry.code)
        if layer is not None:
            layers[layer]["self_s"] += entry.inlinetime
            layers[layer]["calls"] += entry.callcount
        for sub in entry.calls or ():
            if code_layer(sub.code) is None:
                owner = layers[layer or "other"]
                owner["self_s"] += sub.inlinetime
                owner["calls"] += sub.callcount
    return layers


def span_self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self seconds per span name (duration minus child cover)."""
    child_cover = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    totals: Dict[str, float] = {}
    for (name, start, end, _parent), covered in zip(spans, child_cover):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


class Tracer:
    """Spans and exact counts around the program's public entry points."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        #: One record per simulation: identity plus the figures' metrics
        #: (model error is computed from these).
        self.results: List[Dict] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        name, start, _end, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def _spanned(self, name: str, func: Callable,
                 after: Optional[Callable] = None) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                value = func(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(index, value)
            return value
        return wrapper

    def _patch(self, owner, attr: str, name: str,
               after: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._spanned(name, original, after))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the entry points (imports ``repro``; call after setup)."""
        import repro.cli
        import repro.core.runner as runner
        from repro.apps import APPLICATIONS
        from repro.apps.base import Application
        from repro.exec.store import ResultStore
        from repro.runspec import RunSpec

        self._patch(RunSpec, "make_application", "make_app")
        self._patch(RunSpec, "spec_digest", "spec_digest")
        self._patch(runner, "make_machine", "make_machine")
        self._patch(Application, "setup", "app_setup")
        for cls in {Application, *APPLICATIONS.values()}:
            if "verify" in cls.__dict__:
                self._patch(cls, "verify", "verify")
        self._patch(runner, "simulate_full", "simulate",
                    after=self._after_simulate)
        self._patch(ResultStore, "get", "store_get", after=self._after_get)
        self._patch(ResultStore, "put", "store_put", after=self._after_put)
        self._patch(repro.cli, "render_figure", "render")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- exact counts --------------------------------------------------------

    def _after_simulate(self, index: int, value) -> None:
        result, machine = value
        # simulate_full times exactly the event loop and verifies right
        # after it, so the loop's span ends where the verify span (a
        # child of this simulate span) starts.
        end = next(start for name, start, _end, parent
                   in self.spans[index + 1:]
                   if name == "verify" and parent == index)
        self.spans.append(("sim_run", end - result.wall_seconds, end, index))
        self.count("sim.runs")
        self.count("sim.events", result.sim_events)
        self.count("sim.messages", result.messages)
        self.count("sim.time_ns", result.total_ns)
        engine = result.engine or {}
        for key in ("heap_pops", "ring_pops", "flat_tx", "flat_posts",
                    "rows_recycled"):
            self.count(f"engine.{key}", engine.get(key, 0))
        memory = getattr(machine, "memory", None)
        if memory is not None:
            self.count("memory.cache_hits",
                       sum(cache.hits for cache in memory.caches))
            self.count("memory.cache_misses",
                       sum(cache.misses for cache in memory.caches))
        fabric = getattr(machine, "fabric", None)
        if fabric is not None:
            self.count("network.link_wait_ns", fabric.total_link_wait_ns())
        self.results.append({
            "app": result.app, "machine": result.machine,
            "topology": result.topology, "nprocs": result.nprocs,
            "execution": result.metric("execution"),
            "latency": result.metric("latency"),
            "contention": result.metric("contention"),
        })

    def _after_get(self, _index: int, value) -> None:
        self.count("exec.store_hits" if value is not None
                   else "exec.store_misses")

    def _after_put(self, _index: int, _value) -> None:
        self.count("exec.store_puts")

    # -- output --------------------------------------------------------------

    def span_metrics(self) -> Dict[str, float]:
        """Self seconds of the ledger's spans (0.0 for ones never opened)."""
        totals = span_self_times(self.spans)
        return {f"span.{name}_s": totals.get(name, 0.0) for name in SPANS}

    def dump(self) -> Dict:
        """Everything recorded, for the trace file written at exit."""
        return {
            "run_id": self.run_id,
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "counts": dict(self.counts),
        }


def model_errors(results: List[Dict]) -> Dict[str, float]:
    """Mean |model - target| / target over the points both simulated.

    The detailed target machine is the reference: the repository holds
    no hardware measurement, so these are model-vs-model errors and
    the simulator itself is unvalidated against hardware.
    """
    by_point: Dict[Tuple, Dict[str, Dict]] = {}
    for record in results:
        key = (record["app"], record["topology"], record["nprocs"])
        by_point.setdefault(key, {})[record["machine"]] = record
    out: Dict[str, float] = {}
    for model, metric in (("clogp", "execution"), ("logp", "execution"),
                          ("clogp", "latency"), ("clogp", "contention")):
        errors = [
            abs(machines[model][metric] - machines["target"][metric])
            / machines["target"][metric]
            for machines in by_point.values()
            if model in machines and "target" in machines
            and machines["target"][metric] > 0
        ]
        short = "exec" if metric == "execution" else metric
        out[f"model.{model}_{short}_err_pct"] = (
            100.0 * sum(errors) / len(errors) if errors else 0.0
        )
    return out
