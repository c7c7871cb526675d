"""The runtime sanitizer: each checker fires on a seeded violation,
clean runs report clean, and checking never perturbs the simulation."""

import heapq

import pytest

from repro import FaultConfig, SystemConfig, make_app, simulate
from repro.checkers import (
    CheckerSet,
    CheckReport,
    CoherenceChecker,
    ConservationChecker,
    DeterminismChecker,
    ExactlyOnceChecker,
    MonotonicityChecker,
    make_checkers,
)
from repro.core.accounting import RunResult
from repro.core.coherence import CoherentMemory
from repro.core.runner import simulate_full
from repro.engine.core import Simulator
from repro.errors import InvariantError
from repro.memory.address import AddressSpace

from .conftest import ALL_MACHINES, tiny_app, tiny_config

FAULT = FaultConfig(drop_rate=0.05, corrupt_rate=0.02, delay_rate=0.05,
                    delay_ns=500)


def _checked_run(machine, check="strict", fault=None, **config_kw):
    config = tiny_config(4, check=check,
                         fault=fault if fault is not None else FaultConfig(),
                         **config_kw)
    return simulate(tiny_app("fft", 4), machine, config)


# -- construction -------------------------------------------------------------------


def test_make_checkers_off_returns_none():
    assert make_checkers(tiny_config(4, check="off")) is None


def test_make_checkers_levels():
    basic = make_checkers(tiny_config(4, check="basic"))
    names = [type(c).__name__ for c in basic]
    assert "DeterminismChecker" not in names
    assert {"MonotonicityChecker", "CoherenceChecker",
            "ConservationChecker", "ExactlyOnceChecker"} <= set(names)
    strict = make_checkers(tiny_config(4, check="strict"))
    assert any(isinstance(c, DeterminismChecker) for c in strict)
    digest_only = make_checkers(tiny_config(4, check="off", digest=True))
    assert [type(c).__name__ for c in digest_only] == ["DeterminismChecker"]


def test_invariant_error_carries_context():
    checker = MonotonicityChecker()
    with pytest.raises(InvariantError) as excinfo:
        checker.violation(1234, "the sky fell")
    err = excinfo.value
    assert err.checker == "monotonicity"
    assert err.now == 1234
    assert "the sky fell" in str(err)
    assert "t=1234" in str(err)


# -- clean runs ---------------------------------------------------------------------


@pytest.mark.parametrize("machine", ALL_MACHINES)
def test_clean_run_reports_ok(machine):
    result = _checked_run(machine)
    report = result.check_report
    assert report is not None
    assert report.ok
    assert report.total_checks > 0
    assert report.digest is not None


@pytest.mark.parametrize("machine", ("target", "clogp", "logp"))
def test_clean_faulty_run_reports_ok(machine):
    result = _checked_run(machine, fault=FAULT)
    report = result.check_report
    assert report.ok
    exactly_once = next(
        r for r in report.results if r.name == "exactly-once"
    )
    assert exactly_once.checks > 0  # the ARQ layer was exercised


def test_coherence_checker_runs_on_cached_machines_only():
    target = _checked_run("target").check_report
    logp = _checked_run("logp").check_report
    assert next(r for r in target.results if r.name == "coherence").checks > 0
    assert next(r for r in logp.results if r.name == "coherence").checks == 0


# -- mutation tests: every checker fires on a seeded violation ----------------------


def test_monotonicity_checker_fires_on_past_schedule():
    sim = Simulator(checkers=(MonotonicityChecker(),))
    with pytest.raises(InvariantError, match="monotonicity"):
        sim._schedule(-1, lambda: None)


class _Action:
    """Callable that tolerates heap tie-breaking comparisons."""

    def __call__(self):
        pass

    def __lt__(self, _other):
        return False


def test_monotonicity_checker_fires_on_replayed_heap_entry():
    checker = MonotonicityChecker()
    sim = Simulator(checkers=(checker,))
    # Two identical (time, sequence) keys cannot come from _schedule;
    # seeding them directly simulates heap corruption.
    action = _Action()
    heapq.heappush(sim._queue, (0, 7, action))
    heapq.heappush(sim._queue, (0, 7, action))
    with pytest.raises(InvariantError, match="monotonicity"):
        sim.run()


def _coherent_memory(check="basic"):
    config = tiny_config(4, check=check)
    checkers = make_checkers(config)
    sim = Simulator()
    space = AddressSpace(config.processors, config.block_bytes)
    # Home lookup needs allocated memory behind the probed blocks.
    space.alloc("data", 64, config.block_bytes, "blocked")
    memory = CoherentMemory(config, space, checkers=checkers, sim=sim)
    return memory, checkers


def test_coherence_checker_fires_on_phantom_sharer():
    memory, _ = _coherent_memory()
    memory.plan_read(0, block=5)  # clean transition passes
    memory.directory.entry(5).sharers.add(3)  # 3 holds no line
    with pytest.raises(InvariantError, match="coherence"):
        memory.plan_read(1, block=5)


def test_coherence_checker_strict_sweeps_other_blocks():
    memory, _ = _coherent_memory(check="strict")
    memory.plan_write(0, block=5)
    memory.directory.entry(5).sharers = set()  # owner no longer a sharer
    # Basic only checks the touched block; the strict global sweep after
    # a transition on an unrelated block still catches the corruption.
    with pytest.raises(InvariantError, match="coherence"):
        memory.plan_read(1, block=9)


def test_coherence_checker_fires_on_swmr_violation():
    from repro.memory.states import LineState

    memory, _ = _coherent_memory(check="basic")
    memory.plan_write(1, block=5)
    # Seed a second DIRTY copy: the canonical single-writer violation.
    memory.caches[0].install(5, LineState.DIRTY)
    with pytest.raises(InvariantError, match="coherence"):
        memory.plan_read(2, block=5)


def test_conservation_checker_fires_on_time_drift():
    config = tiny_config(2, check="off")
    result, machine = simulate_full(tiny_app("ep", 2), "ideal", config)
    assert result.check_report is None
    checker = ConservationChecker()
    machine.processors[0].buckets.compute_ns += 1  # create 1 ns from nothing
    with pytest.raises(InvariantError, match="conserve"):
        checker.finalize(machine)


def test_conservation_checker_fires_on_negative_bucket():
    config = tiny_config(2, check="off")
    _result, machine = simulate_full(tiny_app("ep", 2), "ideal", config)
    checker = ConservationChecker()
    machine.processors[1].buckets.sync_ns = -5
    with pytest.raises(InvariantError, match="negative bucket"):
        checker.finalize(machine)


def test_conservation_checker_fires_on_silent_message_loss():
    config = tiny_config(2, check="off")
    _result, machine = simulate_full(tiny_app("ep", 2), "ideal", config)
    checker = ConservationChecker()
    # An undelivered message on a fault-free machine is a leak.
    checker.on_message(0, 0, 1, "mp", 32, False)
    with pytest.raises(InvariantError, match="fault-free"):
        checker.finalize(machine)


def test_exactly_once_checker_fires_on_unmatched_delivery():
    checker = ExactlyOnceChecker()
    checker.on_logical_send(0, 0, 1)
    checker.on_app_delivery(10, 0, 1, duplicate=False)
    with pytest.raises(InvariantError, match="exactly-once"):
        checker.on_app_delivery(20, 0, 1, duplicate=False)


def test_exactly_once_checker_fires_on_incomplete_channel():
    checker = ExactlyOnceChecker()
    checker.on_logical_send(0, 0, 1)
    checker.on_app_delivery(10, 0, 1, duplicate=False)

    class _M:
        pass

    machine = _M()
    machine.sim = Simulator()
    with pytest.raises(InvariantError, match="not exactly-once"):
        checker.finalize(machine)  # delivered but never acked/completed


def test_determinism_checker_distinguishes_executions():
    # IS draws its keys from the seeded RNG, so a different seed changes
    # the access pattern (FFT would not: its pattern is data-oblivious).
    def run(seed):
        config = tiny_config(4, check="strict", seed=seed)
        return simulate(tiny_app("is", 4), "target", config)

    a = run(12345).check_report.digest
    b = run(12345).check_report.digest
    c = run(999).check_report.digest
    assert a == b
    assert a != c


# -- the sanitizer never perturbs the run -------------------------------------------


@pytest.mark.parametrize("machine", ALL_MACHINES)
def test_check_levels_do_not_perturb_results(machine):
    """Checkers are passive: every level (and off) must time identically."""
    outcomes = {}
    for check in ("off", "basic", "strict"):
        result = _checked_run(machine, check=check)
        data = result.to_dict()
        data.pop("wall_seconds")
        data.pop("check_report")
        # Engine metadata records *how* the run executed, and check
        # levels legitimately change that (hooked levels force the
        # object kernel's heap-only instrumented loop): only the
        # kernel-dispatch split moves, never what was simulated.
        data.pop("engine")
        outcomes[check] = data
    assert outcomes["off"] == outcomes["basic"] == outcomes["strict"]


def test_digest_is_independent_of_check_level():
    basic = _checked_run("target", check="basic", digest=True)
    strict = _checked_run("target", check="strict")
    off = simulate(
        tiny_app("fft", 4), "target", tiny_config(4, check="off", digest=True)
    )
    assert (basic.check_report.digest == strict.check_report.digest
            == off.check_report.digest)


def test_check_off_attaches_no_hooks():
    config = tiny_config(4, check="off")
    _result, machine = simulate_full(tiny_app("ep", 4), "target", config)
    assert machine.checkers is None
    assert machine.sim._event_hooks == ()
    assert machine.sim._schedule_hooks == ()
    assert machine.fabric._message_hooks == ()
    assert machine.memory._transition_hooks == ()


# -- reporting ----------------------------------------------------------------------


def test_check_report_round_trips():
    report = _checked_run("target", fault=FAULT).check_report
    rebuilt = CheckReport.from_dict(report.to_dict())
    assert rebuilt == report
    assert rebuilt.summary() == report.summary()


def test_run_result_round_trips_check_report():
    result = _checked_run("clogp")
    rebuilt = RunResult.from_dict(result.to_dict())
    assert rebuilt.check_report == result.check_report
    # Pre-sanitizer checkpoints have no such key at all.
    legacy = result.to_dict()
    del legacy["check_report"]
    assert RunResult.from_dict(legacy).check_report is None


def test_checker_set_precomputes_hook_tuples():
    checkers = CheckerSet(
        "basic", [MonotonicityChecker(), ConservationChecker(),
                  CoherenceChecker(), ExactlyOnceChecker(),
                  DeterminismChecker()]
    )
    assert len(checkers.event_hooks) == 1       # monotonicity
    assert len(checkers.schedule_hooks) == 1    # monotonicity
    assert len(checkers.message_hooks) == 1     # conservation
    assert len(checkers.transition_hooks) == 1  # coherence
    assert len(checkers.arq_checkers) == 1      # exactly-once
    # The digest is fed directly, not through a hook.
    assert isinstance(checkers.determinism, DeterminismChecker)
