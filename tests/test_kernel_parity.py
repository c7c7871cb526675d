"""Cross-kernel matrix: one result, one determinism digest and one set
of sanitizer counts per configuration, whatever executes it.

The arms are ``{object, soa, compiled} x {digest only, strict}``.  The
object kernel runs the generator transactions of ``core/target.py``
over ``transmit_fast``; the SoA and compiled kernels run the flat
programs.  Every kernel feeds the sanitizer's record stream natively
(see ``repro.checkers.base``), so a check level never changes the path
and all six arms must agree on the simulated outcome, the digest *and*
every per-checker ``checks`` count -- for both protocols (Illinois adds
the sharing-writeback post), on every topology, on the abstract
machines, and across split ``run()`` calls.  The fault-injected and the
switching-delay cases are the standing coverage of the general path
(``_lat_general`` / ``Fabric.transmit(Message)``), which runs under
nothing else.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import FaultConfig
from repro.checkers import DeterminismChecker, MonotonicityChecker
from repro.config import PROTOCOLS
from repro.core.runner import simulate_full
from repro.engine import make_simulator
from repro.engine.resource import Resource
from repro.errors import SimulationError, WatchdogError
from repro.network.fabric import Fabric
from repro.network.topology import make_topology
from repro.runspec import RunSpec

from .conftest import ALL_APPS, ALL_TOPOLOGIES, TINY_PARAMS
from .conftest import ALL_KERNELS as KERNELS  # the object kernel first

#: p=8 is the smallest machine on which cube and mesh route differently;
#: cholesky is cut down so the whole matrix stays within a few seconds.
NPROCS = 8
PARAMS = dict(TINY_PARAMS, cholesky={"n": 32, "density": 0.12})


def _outcome(result):
    return (result.total_ns, result.messages, result.sim_events,
            result.buckets, result.check_report.digest)


def _checks(result):
    return {entry.name: entry.checks
            for entry in result.check_report.results}


def _agree(app, machine, topology, switch_delay_ns=0, **spec_kw):
    """Run one configuration on every arm; return the object kernel's
    strict result and machine after asserting that all arms agree."""
    def run(kernel, check):
        spec = RunSpec.build(
            app, machine, NPROCS, topology, params=PARAMS[app], seed=7,
            engine_kernel=kernel, check=check, digest=True, **spec_kw,
        )
        # RunSpec.build does not carry the switching delay.
        config = replace(spec.config, switch_delay_ns=switch_delay_ns)
        result, built = simulate_full(
            spec.make_application(), machine, config,
            max_events=spec.max_events,
        )
        assert result.engine["kernel"] == kernel
        return result, built

    strict = {kernel: run(kernel, "strict") for kernel in KERNELS}
    reference, built = strict["object"]
    checks = _checks(reference)
    assert reference.check_report.ok
    assert len(reference.check_report.digest) == 32
    assert checks["monotonicity"] == reference.sim_events
    for kernel, (result, _) in strict.items():
        assert _outcome(result) == _outcome(reference), kernel
        assert _checks(result) == checks, kernel
        digested, _ = run(kernel, "off")
        assert _outcome(digested) == _outcome(reference), kernel
        assert _checks(digested) == {
            "determinism": checks["determinism"]
        }, kernel
        assert digested.engine == result.engine, kernel
    return reference, built


def _conservation(machine):
    return next(c for c in machine.checkers if c.name == "conservation")


@pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", ALL_APPS)
def test_kernels_and_hooked_digest_run_agree(app, protocol, topology):
    """(The test id predates the record stream: the "hooked" arm is now
    the strict arm, on every kernel.)"""
    result, machine = _agree(app, "target", topology, protocol=protocol)
    # One record per executed event, one per transported message.
    assert _conservation(machine).sends == result.messages
    assert _checks(result)["determinism"] == (
        result.sim_events + result.messages
    )


@pytest.mark.parametrize("machine", ("logp", "clogp", "ideal"))
def test_abstract_machines_agree(machine):
    result, _ = _agree("cg", machine, "mesh")
    assert (result.messages > 0) == (machine != "ideal")


def test_fault_injected_target_agrees():
    """Dropped messages still complete -- as ``delivered=False`` records."""
    fault = FaultConfig(drop_rate=0.05, seed=5)
    dropped, machine = _agree("fft", "target", "mesh", fault=fault)
    assert any(b.retry_ns for b in dropped.buckets)  # drops were recovered
    assert not machine.fabric.is_plain
    assert _conservation(machine).undelivered > 0
    assert _checks(dropped)["exactly-once"] > 0


def test_switching_delay_target_agrees():
    """A per-hop switching delay takes the fabric off its plain path on
    every kernel, fault-free."""
    plain, _ = _agree("fft", "target", "mesh")
    delayed, machine = _agree("fft", "target", "mesh", switch_delay_ns=40)
    assert not machine.fabric.is_plain
    assert delayed.total_ns > plain.total_ns
    assert _conservation(machine).sends == delayed.messages


# -- the digest at engine level: split runs and sensitivity -------------------------


def _traffic(kernel, sleep=7, nbytes=32, dsts=(1, 2), extra_event=True):
    """A small fabric workload on a digest-carrying simulator: two
    senders transmit at the same instant, a third process sleeps."""
    sim = make_simulator(checkers=(DeterminismChecker(),), kernel=kernel)
    fabric = Fabric(sim, make_topology("mesh", 4), 50)
    lock = Resource(sim, capacity=1, name="lock")

    def sender(src, dst):
        yield 10
        yield from fabric.transmit_fast(src, dst, nbytes)
        yield lock
        yield 5
        lock.release()
        fabric.post_fast(dst, src, 8)

    def sleeper():
        yield sleep
        if extra_event:
            yield 0
        yield 4000

    sim.spawn(sender(0, dsts[0]), name="s0")
    sim.spawn(sender(3, dsts[1]), name="s3")
    sim.spawn(sleeper(), name="sleeper")
    return sim


@pytest.mark.parametrize("kernel", KERNELS)
def test_split_runs_hash_like_one_run(kernel):
    """``state_digest()`` is exact after any return from ``run()``:
    horizon stops, watchdog stops and the resumed remainder add up to
    the unsplit run's digest -- the same one on every kernel."""
    whole = _traffic("object")
    whole.run()
    expected = whole.state_digest()

    sim = _traffic(kernel)
    sim.run(until=1000)
    assert sim.state_digest() != expected  # mid-run, and readable
    sim.run()
    assert sim.state_digest() == expected

    sim = _traffic(kernel)
    with pytest.raises(WatchdogError):
        sim.run(max_events=9)
    assert sim.events_executed == 9
    sim.run(max_events=5, until=1200)
    sim.run()
    assert sim.state_digest() == expected
    assert sim.events_executed == whole.events_executed


def test_past_time_entry_is_refused_before_it_is_counted():
    """A heap entry behind the clock never executes, so no run loop --
    the guarded ``until=`` / ``max_events=`` loop included -- may count
    it or report its time to the record stream before refusing it."""
    outcomes = {}
    for kernel, guarded in [(k, False) for k in KERNELS] + [("soa", True)]:
        monotonicity, determinism = MonotonicityChecker(), DeterminismChecker()
        sim = make_simulator(checkers=(monotonicity, determinism),
                             kernel=kernel)

        def culprit():
            yield 20
            sim._schedule(sim.now - 5, lambda: None)
            yield 0

        def bystander():
            for _ in range(10):
                yield 7

        sim.spawn(culprit(), name="culprit")
        sim.spawn(bystander(), name="bystander")
        with pytest.raises(SimulationError) as excinfo:
            sim.run(max_events=10 ** 6 if guarded else None)
        digest = sim.state_digest()  # flushes: the counts are exact
        outcomes[kernel, guarded] = (
            str(excinfo.value), sim.now, sim.events_executed,
            monotonicity.checks, determinism.checks, digest,
        )
    assert len(set(outcomes.values())) == 1, outcomes
    message, _now, executed, checks, _records, _digest = outcomes["object", False]
    assert message == "time went backwards: 15 < 20"
    assert checks == executed == 5  # two starts, 7, 14, 20


@pytest.mark.parametrize("perturbation", (
    pytest.param({"sleep": 8}, id="one-sleep-1ns-longer"),
    pytest.param({"nbytes": 33}, id="message-1-byte-larger"),
    pytest.param({"dsts": (2, 1)}, id="same-time-messages-swap-dsts"),
    pytest.param({"extra_event": False}, id="one-event-fewer"),
))
def test_digest_is_sensitive(perturbation):
    def digest(**kw):
        sim = _traffic("auto", **kw)
        sim.run()
        return sim.state_digest()

    assert digest() == digest()
    assert digest(**perturbation) != digest()
