"""SoA kernel semantics: parity with the object kernel, row recycling,
guarded runs, and the selection rules.

The whole kernel tier rests on one invariant: both kernels execute the
*same event sequence*, so flipping ``REPRO_ENGINE`` (or the config
knob) changes host time only, never results.  These tests pin that
parity on engine-level scenarios and on full simulations, plus the SoA
internals the object kernel does not have: the row table growing past
its preallocation, free-list recycling, and the packed-word ring.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.accounting import RunResult
from repro.core.runner import simulate_spec
from repro.engine import KERNELS, make_simulator, resolve_kernel
from repro.engine.compiled import HAVE_EXTENSION, CompiledSimulator
from repro.engine.core import TURN, Simulator
from repro.engine.resource import Resource
from repro.engine.soa import SoaSimulator
from repro.errors import SimulationError, WatchdogError
from repro.runspec import RunSpec
from repro.service.stats import ServiceStats


# -- scenario parity ----------------------------------------------------------


def _mixed_scenario(sim):
    """Sleeps, zero-delay yields, resource contention, events, TURN
    grants, and timeouts -- one generator workload exercising every
    yield form; returns the observed (tag, label, now) log."""
    log = []
    lock = Resource(sim, capacity=1, name="lock")
    ready = sim.event()

    def worker(tag, delay):
        log.append((tag, "start", sim.now))
        yield delay
        yield 0
        log.append((tag, "awake", sim.now))
        yield TURN if lock.try_acquire() else lock.request()
        log.append((tag, "locked", sim.now))
        yield 5
        lock.release()
        got = yield sim.timeout(3, value=tag)
        log.append((tag, "timeout", sim.now, got))
        if not ready.triggered:
            ready.succeed(tag)
        else:
            yield ready
        log.append((tag, "done", sim.now))

    for tag, delay in (("a", 2), ("b", 2), ("c", 7)):
        sim.spawn(worker(tag, delay), name=tag)
    sim.run()
    return log


def test_soa_matches_object_kernel_on_mixed_scenario():
    obj_log = _mixed_scenario(Simulator())
    soa_log = _mixed_scenario(SoaSimulator())
    assert soa_log == obj_log
    assert len(soa_log) == 15


def test_soa_matches_object_kernel_on_simulation(quick_spec):
    results = {}
    for kernel in ("object", "soa"):
        spec = quick_spec(engine_kernel=kernel)
        results[kernel] = simulate_spec(spec)
    obj, soa = results["object"], results["soa"]
    assert (soa.total_ns, soa.messages, soa.sim_events, soa.buckets) == (
        obj.total_ns, obj.messages, obj.sim_events, obj.buckets
    )
    assert obj.engine["kernel"] == "object"
    assert soa.engine["kernel"] == "soa"


# -- guarded runs: until / until_ns / max_events ------------------------------


def _sleeper_pair(sim):
    def sleeper(period):
        while True:
            yield period
    sim.spawn(sleeper(10), name="slow")
    sim.spawn(sleeper(4), name="fast")


def test_soa_until_advances_clock_past_drained_ring():
    sim = SoaSimulator()

    def short_lived():
        yield 3
        yield 0  # ring word at t=3, then the queues drain

    sim.spawn(short_lived())
    sim.run(until=50)
    # The horizon is honoured even though everything drained at t=3.
    assert sim.now == 50


def test_soa_until_ns_is_an_alias_and_exclusive():
    sim = SoaSimulator()
    _sleeper_pair(sim)
    sim.run(until_ns=21)
    assert sim.now == 21
    with pytest.raises(SimulationError):
        sim.run(until=5, until_ns=5)


def test_soa_max_events_budget():
    sim = SoaSimulator()
    _sleeper_pair(sim)
    with pytest.raises(WatchdogError):
        sim.run(max_events=7)
    assert sim.events_executed == 7
    with pytest.raises(SimulationError):
        sim.run(max_events=0)


def test_guarded_run_parity_with_object_kernel():
    outcomes = []
    for cls in (Simulator, SoaSimulator):
        sim = cls()
        _sleeper_pair(sim)
        executed = sim.run(until=37)
        outcomes.append((executed, sim.now, sim.events_executed))
    assert outcomes[0] == outcomes[1]


# -- timeouts under SoA -------------------------------------------------------


def test_soa_timeout_values_arrive_in_order():
    sim = SoaSimulator()
    seen = []

    def ticker():
        for n in range(6):
            value = yield sim.timeout(5, value=n)
            seen.append((sim.now, value))

    sim.spawn(ticker())
    sim.run()
    assert seen == [(5 * (n + 1), n) for n in range(6)]


# -- row table growth and recycling -------------------------------------------


def test_row_table_grows_across_preallocation_boundary():
    sim = SoaSimulator(row_capacity=8)
    assert sim._cap == 8
    hits = []

    def sleeper(pid):
        yield pid + 1
        yield 40 - pid
        hits.append(pid)

    for pid in range(30):  # 30 concurrent heap rows >> 8 preallocated
        sim.spawn(sleeper(pid), name=f"s{pid}")
    sim.run()
    assert sorted(hits) == list(range(30))
    profile = sim.engine_profile()
    assert profile["compactions"] >= 1
    assert profile["row_capacity"] >= 30
    assert profile["rows_live"] == 0


def test_free_list_recycles_rows():
    sim = SoaSimulator()

    def chatter():
        other = sim.event()
        done = []

        def listener():
            done.append((yield other))

        sim.spawn(listener(), name="listener")
        yield 2
        other.succeed("ping")
        yield 1
        assert done == ["ping"]

    sim.spawn(chatter(), name="chatter")
    sim.run()
    profile = sim.engine_profile()
    assert profile["kernel"] == "soa"
    assert profile["rows_recycled"] >= 1
    assert profile["heap_pops"] + profile["ring_pops"] == sim.events_executed


# -- kernel selection ---------------------------------------------------------


def test_env_var_forces_object_fallback(monkeypatch, quick_spec):
    monkeypatch.setenv("REPRO_ENGINE", "object")
    assert resolve_kernel("auto") == "object"
    assert type(make_simulator()) is Simulator
    result = simulate_spec(quick_spec())
    assert result.engine["kernel"] == "object"


def test_auto_prefers_compiled_else_soa(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    if HAVE_EXTENSION:
        assert resolve_kernel("auto") == "compiled"
        assert type(make_simulator()) is CompiledSimulator
    else:
        assert resolve_kernel("auto") == "soa"
        assert type(make_simulator()) is SoaSimulator


def test_explicit_knob_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "object")
    assert type(make_simulator(kernel="soa")) is SoaSimulator


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        resolve_kernel("vectorized")


def test_digest_runs_on_the_selected_kernel(monkeypatch, quick_spec):
    """The digest is fed natively: asking for it changes neither the
    kernel nor the path (misses stay flat programs)."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    kernels = ("soa", "compiled") if HAVE_EXTENSION else ("soa",)
    digests = set()
    for kernel in kernels:
        plain = simulate_spec(quick_spec(engine_kernel=kernel, check="off"))
        digested = simulate_spec(
            quick_spec(engine_kernel=kernel, check="off", digest=True)
        )
        assert digested.engine["kernel"] == kernel
        assert digested.engine["flat_tx"] == plain.engine["flat_tx"] > 0
        assert digested.engine["flat_posts"] == plain.engine["flat_posts"]
        assert digested.engine == plain.engine
        digests.add(digested.check_report.digest)
    auto = simulate_spec(quick_spec(check="off", digest=True))
    assert auto.engine["kernel"] == resolve_kernel("auto")
    digests.add(auto.check_report.digest)
    assert len(digests) == 1 and None not in digests


@pytest.mark.parametrize("knob", KERNELS)
def test_strict_runs_on_the_selected_kernel(monkeypatch, quick_spec, knob):
    """The sanitizer observes what every kernel reports, so the knob
    alone selects the kernel: a ``check="strict"`` run executes exactly
    what the unchecked run does, target misses as flat programs."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # compiled, unbuilt
        kernel = resolve_kernel(knob)
        plain = simulate_spec(quick_spec(engine_kernel=knob, check="off"))
        strict = simulate_spec(quick_spec(engine_kernel=knob, check="strict"))
    assert strict.check_report.ok
    assert strict.engine["kernel"] == kernel
    assert strict.engine == plain.engine
    assert (strict.engine["flat_tx"] > 0) == (kernel != "object")


# -- profile and result metadata ----------------------------------------------


def test_engine_profile_keys():
    sim = SoaSimulator()
    _sleeper_pair(sim)
    sim.run(until=30)
    profile = sim.engine_profile()
    for key in ("kernel", "events_executed", "heap_pops", "ring_pops",
                "rows_recycled", "compactions", "flat_posts",
                "row_capacity", "rows_live"):
        assert key in profile, key
    assert profile["kernel"] == "soa"


def test_run_result_engine_roundtrip(quick_spec):
    result = simulate_spec(quick_spec(engine_kernel="soa", check="off"))
    assert result.engine is not None
    assert result.engine["heap_pops"] + result.engine["ring_pops"] == (
        result.sim_events
    )
    restored = RunResult.from_dict(result.to_dict())
    assert restored.engine == result.engine


def test_run_result_tolerates_legacy_dicts(quick_spec):
    # Results persisted before the kernel tier have no "engine" key.
    legacy = simulate_spec(quick_spec()).to_dict()
    del legacy["engine"]
    assert RunResult.from_dict(legacy).engine is None


def test_service_stats_note_engine(quick_spec):
    stats = ServiceStats()
    assert stats.snapshot()["engine"] is None
    result = simulate_spec(quick_spec(engine_kernel="soa", check="off"))
    stats.note_engine(result)
    snap = stats.snapshot()["engine"]
    assert snap["kernel"] == "soa"
    assert snap["events_per_sec"] is None or snap["events_per_sec"] > 0
    # Legacy results without engine metadata leave the snapshot alone.
    bare = simulate_spec(quick_spec())
    bare.engine = None
    stats.note_engine(bare)
    assert stats.snapshot()["engine"] == snap


# -- fixtures -----------------------------------------------------------------


@pytest.fixture
def quick_spec():
    """Factory for a small deterministic jacobi spec."""
    def build(**overrides):
        kwargs = dict(preset="quick", seed=7)
        kwargs.update(overrides)
        return RunSpec.build("jacobi", "target", 4, "mesh", **kwargs)
    return build
