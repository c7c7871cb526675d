"""The benchmark's ledger: workloads, metrics, bounds, and predictions.

Everything the rest of ``bench/`` and ``BENCHMARK.json`` agree on lives
here as plain data, so the contract is stated once:

* :data:`WORKLOADS` -- the seven named workloads and why each exists;
* :data:`END_TO_END` -- what a user of the system feels, each with the
  bound by which it may worsen before ``--compare`` calls a regression,
  and the workloads it applies to;
* :data:`PER_LAYER` -- what the traced run attributes to one layer,
  each naming the end-to-end metric and the workloads it should move
  (written down *before* measuring; see bench/README.md).

``BENCHMARK.json`` is the driver-facing projection of this module:
its ``end_to_end`` holds the metrics every workload reports, its
``per_layer`` the ones a single traced workload run can produce.
``bench/test_bench.py`` asserts the two stay consistent.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: Applications every simulation workload runs (the paper's five).
APPS5 = ("ep", "is", "cg", "fft", "cholesky")

#: Simulation seed of every spec.  Constant on purpose: the
#: benchmark's ``--seed`` only reorders operations (see README,
#: "What the seed does"), so exact simulated counts compare across
#: runs and commits whatever seed the caller picked.
SIM_SEED = 12345

#: Seconds one driver run measures (``BENCHMARK.json: run_seconds``).
RUN_SECONDS = 10

POINT = ("point-target", "point-clogp", "point-logp", "point-digest")
SWEEP = ("sweep-cold", "sweep-warm")
SERVE = ("serve-mixed",)
IN_PROCESS = SWEEP + POINT
ALL = IN_PROCESS + SERVE
#: Workloads that actually simulate (sweep-warm and the daemon's warm
#: phases answer from caches).
SIM = ("sweep-cold",) + POINT

WORKLOADS: Dict[str, str] = {
    "sweep-cold": "every figure, quick preset, on an empty result store: "
                  "all layers and the write side of exec.store",
    "sweep-warm": "the same figures from a filled store: store reads, spec "
                  "digests and rendering with the simulator bypassed",
    "point-target": "5 apps on the detailed target machine, p=16 mesh: "
                    "engine, coherence and memory do the work",
    "point-clogp": "same specs on CLogP: model Python per reference, "
                   "event kernel nearly idle",
    "point-logp": "same specs on LogP: no caches, address mapping and "
                  "logp_net dominate",
    "point-digest": "target specs with the determinism digest: hooked "
                    "object kernel instead of the compiled tier",
    "serve-mixed": "repro serve daemon: 60 cold /run, restart, 60 from "
                   "the store, then a saturating warm replay on 4 connections",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float         # share of the baseline median it may worsen by
    workloads: Tuple[str, ...]
    why: str
    #: Tighter per-workload bounds ``--compare`` applies when both sides
    #: ran the same seed (the driver's BENCHMARK.json carries one bound
    #: per metric, which must also hold across seeds: the loosest).
    bound_on: Optional[Dict[str, float]] = None

    def bound_for(self, workload: str, same_seed: bool) -> float:
        if not same_seed:
            return self.bound
        return (self.bound_on or {}).get(workload, self.bound)


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25, ALL,
        "process start to first timed pass: imports, spec construction, "
        "warm-up pass (point-*), store fill (sweep-warm), daemon spawn to "
        "/readyz 200 (serve-mixed)",
    ),
    EndToEnd(
        "wall_s", "s", "lower", 0.10, ALL,
        "host seconds per pass (serve-mixed: the cold phase, 60 distinct "
        "/run on one connection)",
        bound_on={**dict.fromkeys(POINT, 0.05), "sweep-cold": 0.08},
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.15, ALL,
        "peak resident set of the measuring process (serve-mixed: the "
        "daemon's VmHWM); repeats to 0.1 % at one seed, but the order of "
        "operations moves the heap's high-water mark by up to 9 %",
        bound_on=dict.fromkeys(ALL, 0.05),
    ),
    EndToEnd(
        "points_per_s", "1/s", "higher", 0.10, ALL,
        "simulation points one pass answers per second of the median pass "
        "(serve-mixed: warm requests per second, median over half-second "
        "windows)",
    ),
    EndToEnd(
        "fail_ratio", "ratio", "lower", 0.0, ALL,
        "failed / attempted operations; any increase is a regression "
        "(the driver reads it from the attempted/failed fields)",
    ),
    EndToEnd(
        "cold_mean_ms", "ms", "lower", 0.10, SERVE,
        "mean cold /run latency over the fixed spec universe (mean, not "
        "p50: point costs are heterogeneous and the p50 jumps between "
        "two apps while the sum holds)",
    ),
    EndToEnd("store_p50_ms", "ms", "lower", 0.10, SERVE,
             "client p50 of a /run answered from the on-disk store"),
    EndToEnd("warm_p50_ms", "ms", "lower", 0.10, SERVE,
             "client p50 of a /run answered from the in-memory memo, with "
             "4 requests in flight"),
    EndToEnd("warm_req_per_s", "1/s", "higher", 0.10, SERVE,
             "warm-phase throughput with 4 requests always in flight"),
]

#: Metrics the driver gates: reported by every workload, never zero.
#: ``fail_ratio`` is zero on a healthy run, so the driver reads it from
#: the ``attempted``/``failed`` fields instead.
DRIVER_END_TO_END = tuple(
    m.name for m in END_TO_END
    if m.workloads == ALL and m.name != "fail_ratio"
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metric this layer metric should move ...
    moves: str
    #: ... on these workloads (prediction, written before measuring).
    on: Tuple[str, ...]
    #: A single traced workload run can produce it (-> BENCHMARK.json).
    driver: bool = True


#: Profile layers: directory (or module) under ``src/repro/``; the
#: event kernel is split into its Python and C halves.
PROFILE_LAYERS: Dict[str, Tuple[str, ...]] = {
    "apps": SIM,
    "core": SIM,
    "memory": ("sweep-cold", "point-target", "point-clogp", "point-logp"),
    "network": ("sweep-cold", "point-digest"),
    "engine.py": ("sweep-cold", "point-target", "point-digest"),
    "engine.c": ("sweep-cold", "point-target"),
    "checkers": ("point-digest",),
    "faults": ("sweep-cold",),
    "runspec": SWEEP,
    "exec": SWEEP,
    "experiments": SWEEP,
    "cli": SWEEP,
    "builtins": IN_PROCESS,
    "other": IN_PROCESS,
}

SPANS: Dict[str, Tuple[str, ...]] = {
    "make_app": SIM,
    "make_machine": SIM,
    "app_setup": SIM,
    "sim_run": SIM,
    "verify": SIM,
    "spec_digest": SWEEP,
    "store_get": ("sweep-warm",),
    "store_put": ("sweep-cold",),
    "render": SWEEP,
}

#: Exact simulated counts: repeat bit-for-bit, compared exactly.
EXACT_COUNTS: Tuple[str, ...] = (
    "sim.runs", "sim.events", "sim.messages", "sim.time_ns",
    "engine.heap_pops", "engine.ring_pops", "engine.flat_tx",
    "engine.flat_posts", "engine.rows_recycled",
    "memory.cache_hits", "memory.cache_misses", "network.link_wait_ns",
    "exec.store_hits", "exec.store_misses", "exec.store_puts",
    "experiments.simulated",
)


def layer_metric(layer: str, kind: str) -> str:
    """``core.self_s``, but ``engine.py_self_s`` for the split kernel."""
    return f"{layer}{'_' if layer.startswith('engine.') else '.'}{kind}"


def _per_layer() -> List[PerLayer]:
    out: List[PerLayer] = []
    for layer, on in PROFILE_LAYERS.items():
        out.append(PerLayer(layer_metric(layer, "self_s"), "s", "lower",
                            "wall_s", on))
        out.append(PerLayer(layer_metric(layer, "calls"), "count", "lower",
                            "wall_s", on))
    out.extend(PerLayer(f"span.{name}_s", "s", "lower", "wall_s", on)
               for name, on in SPANS.items())
    for name in EXACT_COUNTS:
        if name.startswith("exec.") or name.startswith("experiments."):
            on = SWEEP
        elif name in ("memory.cache_hits", "memory.cache_misses"):
            on = ("sweep-cold", "point-target", "point-clogp", "point-digest")
        elif name.startswith(("network.", "engine.")):
            on = ("sweep-cold", "point-target", "point-digest")
        else:
            on = SIM
        better = "higher" if name in ("memory.cache_hits",
                                      "exec.store_hits") else "lower"
        out.append(PerLayer(name, "ns" if name.endswith("_ns") else "count",
                            better, "wall_s", on))
    out += [
        # Not exact: entries store wall_seconds, whose digits vary.
        PerLayer("exec.store_bytes", "B", "lower", "wall_s", SWEEP),
        PerLayer("host_ns_per_event", "ns", "lower", "wall_s", POINT),
        PerLayer("host_ns_per_msg", "ns", "lower", "wall_s", POINT),
        PerLayer("host_ns_per_ref", "ns", "lower", "wall_s",
                 ("point-target", "point-clogp", "point-digest")),
        PerLayer("memory.hit_ratio", "ratio", "higher", "wall_s",
                 ("point-target", "point-clogp", "point-digest")),
        PerLayer("trace.overhead_ratio", "ratio", "lower", "wall_s",
                 IN_PROCESS),
        PerLayer("trace.attributed_ratio", "ratio", "higher", "wall_s",
                 IN_PROCESS),
    ]
    # The service's own end-to-end numbers, visible to the driver as
    # ungated per-layer values (it gates serve-mixed through wall_s and
    # points_per_s; --compare gates these by their END_TO_END bounds).
    out.extend(PerLayer(m.name, m.unit, m.better, m.name, SERVE)
               for m in END_TO_END if m.workloads == SERVE)
    for name, unit, moves in (
        ("service.cold_p50_ms", "ms", "cold_mean_ms"),
        ("service.cold_p80_ms", "ms", "cold_mean_ms"),
        ("service.warm_p99_ms", "ms", "warm_p50_ms"),
        ("service.store_p90_ms", "ms", "store_p50_ms"),
        ("service.inserver_warm_p50_ms", "ms", "warm_p50_ms"),
        ("service.inserver_cold_p50_ms", "ms", "cold_mean_ms"),
        ("service.http_overhead_ms", "ms", "warm_p50_ms"),
        ("service.simulated", "count", "cold_mean_ms"),
        ("service.warm_memo", "count", "points_per_s"),
        ("service.warm_store", "count", "store_p50_ms"),
        ("service.coalesce_hits", "count", "cold_mean_ms"),
        ("service.shed", "count", "fail_ratio"),
        ("service.rebuilds", "count", "fail_ratio"),
        ("service.drain_s", "s", "fail_ratio"),
    ):
        better = "higher" if name == "service.warm_memo" else "lower"
        out.append(PerLayer(name, unit, better, moves, SERVE))
    # Produced only by the full ``--traced`` run (cross-workload, or
    # too slow / too workload-specific for every driver run).
    out += [
        PerLayer(f"model.{name}_err_pct", "%", "lower", "wall_s",
                 ("sweep-cold",), driver=False)
        for name in ("clogp_exec", "logp_exec", "clogp_latency",
                     "clogp_contention")
    ]
    out += [
        PerLayer("checkers.strict_s", "s", "lower", "wall_s",
                 ("point-digest",), driver=False),
        PerLayer("engine.build_ext_s", "s", "lower", "setup_s", ALL,
                 driver=False),
        PerLayer("cost.clogp_over_target", "ratio", "lower", "wall_s",
                 ("point-clogp", "point-target"), driver=False),
        PerLayer("cost.logp_over_target", "ratio", "lower", "wall_s",
                 ("point-logp", "point-target"), driver=False),
        PerLayer("cost.digest_over_target", "ratio", "lower", "wall_s",
                 ("point-digest", "point-target"), driver=False),
        PerLayer("cost.store_write_s", "s", "lower", "wall_s",
                 ("sweep-cold",), driver=False),
    ]
    return out


PER_LAYER: List[PerLayer] = _per_layer()

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}
PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def benchmark_json() -> Dict:
    """The driver-facing contract file, derived from this ledger."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END if m.name in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER if m.driver
        ],
    }
