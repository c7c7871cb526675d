"""The runtime sanitizer: each checker fires on a seeded violation,
clean runs report clean, and checking never perturbs the simulation."""

from array import array

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
    RecordStream,
    make_checkers,
)
from repro.checkers.base import FLUSH_RECORDS
from repro.core.accounting import RunResult
from repro.core.coherence import CoherentMemory
from repro.core.machine import Processor, make_machine
from repro.core.runner import simulate_full
from repro.engine.core import Simulator
from repro.errors import InvariantError
from repro.memory.address import AddressSpace
from repro.memory.states import LineState

from .conftest import ALL_KERNELS as KERNELS
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


def _feed_event(stream, times):
    for at in times:
        stream.event(at)
    stream.flush()


def _feed_times(stream, times):
    stream.feed_times(array("q", times).tobytes())


def test_monotonicity_checker_fires_on_past_schedule():
    """The stream definition: executed-event times are >= 0 and never
    decrease -- whichever entry point delivered them, and across the
    boundary between two flushed blocks."""
    for feed in (_feed_event, _feed_times):
        for bad in ([0, 5, 5, 4], [-1, 0, 3]):
            checker = MonotonicityChecker()
            stream = RecordStream.of((checker,))
            feed(stream, [0, 0, 2])  # a clean block passes
            assert (checker.checks, checker.violations) == (3, 0)
            with pytest.raises(InvariantError, match="monotonicity"):
                feed(stream, bad)
            assert checker.violations == 1
        checker = MonotonicityChecker()
        stream = RecordStream.of((checker,))
        for _ in range(FLUSH_RECORDS):  # fills the buffer: flushed when full
            stream.event(9)
        assert checker.checks == FLUSH_RECORDS
        with pytest.raises(InvariantError, match="regressed"):
            feed(stream, [8])


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
    checker.message(0, 0, 1, 32, False)
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


# -- ... and fires on every kernel --------------------------------------------------
#
# The checkers observe the model (coherence, ARQ lifecycle, end-of-run
# state) and the record stream every kernel feeds, never a kernel's
# internals -- so a fault seeded by a process *mid-run* must surface
# whichever run loop is executing, the C one included.

DROPS = FaultConfig(drop_rate=0.05, seed=5)


def _sabotaged(kernel, sabotage, late=False, **config_kw):
    """A target machine on ``kernel`` loaded with a tiny FFT plus one
    extra process that runs the ``sabotage(machine)`` generator halfway
    through the run (``late``: after the last processor finished).
    The caller runs and finalizes it."""
    def build():
        config = tiny_config(4, "mesh", engine_kernel=kernel, **config_kw)
        machine = make_machine("target", config)
        app = tiny_app("fft", 4)
        app.setup(machine.space, machine.streams)
        machine.processors = [Processor(machine, pid) for pid in range(4)]
        for pid, processor in enumerate(machine.processors):
            machine.sim.spawn(processor.run(app.proc_main(pid)))
        return machine

    clean = build()
    clean.sim.run()
    assert clean.checkers.finalize(clean).ok
    machine = build()
    assert machine.sim.kernel == kernel
    start = clean.sim.now + 1 if late else clean.sim.now // 2

    def saboteur():
        yield start
        yield from sabotage(machine)

    machine.sim.spawn(saboteur(), name="saboteur")
    return machine


def _phantom_sharer(machine):
    memory = machine.memory
    block = next(iter(memory.caches[0]._by_block))
    outsider = next(pid for pid in range(1, 4)
                    if not memory.caches[pid].contains(block))
    memory.directory.entry(block).sharers.add(outsider)
    yield 0


def _second_dirty_copy(machine):
    memory = machine.memory
    block, owner = next(
        (block, pid)
        for pid, cache in enumerate(memory.caches)
        for block, line in cache._by_block.items()
        if line.state is LineState.DIRTY
    )
    memory.caches[(owner + 1) % 4].install(block, LineState.DIRTY)
    yield 0


@pytest.mark.parametrize("sabotage", (_phantom_sharer, _second_dirty_copy))
@pytest.mark.parametrize("kernel", KERNELS)
def test_coherence_checker_fires_on_every_kernel(kernel, sabotage):
    # strict: the global sweep runs at the next transition, which the
    # flat programs and the C loop reach through their plan_* callouts
    # -- mid-run, long before finalize's end-of-run sweep.
    machine = _sabotaged(kernel, sabotage, check="strict")
    with pytest.raises(InvariantError, match="coherence"):
        machine.sim.run()


def _undelivered_record(machine):
    machine.sim._stream.message(machine.sim.now, 0, 1, 32, False)
    yield 0


def _leaked_link(machine):
    yield machine.fabric.links[0]  # granted, never released


@pytest.mark.parametrize("sabotage,late,detail", (
    (_undelivered_record, False, "fault-free"),
    (_leaked_link, True, "leaked at end of run"),
))
@pytest.mark.parametrize("kernel", KERNELS)
def test_conservation_checker_fires_on_every_kernel(kernel, sabotage, late,
                                                    detail):
    machine = _sabotaged(kernel, sabotage, late=late, check="basic")
    machine.sim.run()
    with pytest.raises(InvariantError, match=detail):
        machine.checkers.finalize(machine)


def _regressed_time(machine):
    now = machine.sim.now
    machine.sim._stream.feed_times(array("q", [now, now - 1]).tobytes())
    yield 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_monotonicity_checker_fires_on_every_kernel(kernel):
    machine = _sabotaged(kernel, _regressed_time, check="basic")
    with pytest.raises(InvariantError, match="monotonicity"):
        machine.sim.run()


def _unmatched_delivery(machine):
    for checker in machine.reliable._arq_checkers:
        checker.on_app_delivery(machine.sim.now, 0, 1, duplicate=False)
    yield 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_exactly_once_checker_fires_on_every_kernel(kernel):
    machine = _sabotaged(kernel, _unmatched_delivery, check="basic",
                         fault=DROPS)
    with pytest.raises(InvariantError, match="exactly-once"):
        machine.sim.run()
        machine.checkers.finalize(machine)


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
    """Checkers are passive: every level (and off) must time
    identically -- and execute identically: the ``engine`` metadata
    (kernel, queue split, flat programs) is part of the comparison."""
    outcomes = {}
    for check in ("off", "basic", "strict"):
        result = _checked_run(machine, check=check)
        data = result.to_dict()
        data.pop("wall_seconds")
        data.pop("check_report")
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
    assert machine.sim._stream is None
    assert machine.fabric._record_message is None
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
    members = [MonotonicityChecker(), ConservationChecker(),
               CoherenceChecker(), ExactlyOnceChecker(),
               DeterminismChecker()]
    checkers = CheckerSet("basic", members)
    assert len(checkers.transition_hooks) == 1  # coherence
    assert len(checkers.arq_checkers) == 1      # exactly-once
    # The other three consume the simulator's record stream.
    stream = Simulator(checkers=checkers)._stream
    assert len(stream._time_sinks) == 2     # monotonicity, determinism
    assert len(stream._message_sinks) == 2  # conservation, determinism
    assert RecordStream.of(members[2:4]) is None
