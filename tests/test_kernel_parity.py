"""Cross-kernel matrix: one result and one determinism digest per
configuration, whatever executes it.

The object kernel is the reference.  Hooked (``check="strict"``:
monotonicity's ``on_event`` selects it, conservation's ``on_message``
takes the fabric off its plain path) it runs the generator transactions
of ``core/target.py`` over the general Message transfer; un-hooked it
runs the same generators over ``transmit_fast``; the SoA and compiled
kernels run the flat programs.  Every kernel feeds the digest natively
(see ``repro.checkers.determinism``), so all of them run with
``digest=True`` here and must agree on the simulated outcome *and* the
digest -- for both protocols (Illinois adds the sharing-writeback
post), on every topology, on the abstract machines, under injected
faults, and across split ``run()`` calls.
"""

from __future__ import annotations

import pytest

from repro import FaultConfig
from repro.checkers import DeterminismChecker
from repro.config import PROTOCOLS
from repro.core.runner import simulate_spec
from repro.engine import make_simulator
from repro.engine.compiled import HAVE_EXTENSION
from repro.engine.resource import Resource
from repro.errors import WatchdogError
from repro.network.fabric import Fabric
from repro.network.topology import make_topology
from repro.runspec import RunSpec

from .conftest import ALL_APPS, ALL_TOPOLOGIES, TINY_PARAMS

KERNELS = ("object", "soa") + (("compiled",) if HAVE_EXTENSION else ())

#: p=8 is the smallest machine on which cube and mesh route differently;
#: cholesky is cut down so the whole matrix stays within a few seconds.
NPROCS = 8
PARAMS = dict(TINY_PARAMS, cholesky={"n": 32, "density": 0.12})


def _outcome(result):
    return (result.total_ns, result.messages, result.sim_events,
            result.buckets, result.check_report.digest)


def _agree(app, machine, topology, **spec_kw):
    """Run one configuration hooked and on every kernel; return the
    hooked result after asserting they all agree."""
    def run(**overrides):
        return simulate_spec(RunSpec.build(
            app, machine, NPROCS, topology, params=PARAMS[app], seed=7,
            **spec_kw, **overrides,
        ))

    hooked = run(engine_kernel="object", check="strict")
    assert hooked.engine["kernel"] == "object"
    assert len(hooked.check_report.digest) == 32
    records = _digest_records(hooked)
    for kernel in KERNELS:
        # check="off": a hook-installing REPRO_CHECK level would put
        # every leg on the hooked object kernel.
        result = run(engine_kernel=kernel, check="off", digest=True)
        assert result.engine["kernel"] == kernel
        assert _outcome(result) == _outcome(hooked), kernel
        assert _digest_records(result) == records, kernel
    return hooked


def _digest_records(result):
    return next(entry.checks for entry in result.check_report.results
                if entry.name == "determinism")


@pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", ALL_APPS)
def test_kernels_and_hooked_digest_run_agree(app, protocol, topology):
    hooked = _agree(app, "target", topology, protocol=protocol)
    # One record per executed event, one per transported message.
    assert _digest_records(hooked) == hooked.sim_events + hooked.messages


@pytest.mark.parametrize("machine", ("logp", "clogp", "ideal"))
def test_abstract_machines_agree(machine):
    hooked = _agree("cg", machine, "mesh")
    assert (hooked.messages > 0) == (machine != "ideal")


def test_fault_injected_target_agrees():
    """Dropped messages still complete -- as ``delivered=False`` records."""
    fault = FaultConfig(drop_rate=0.05, seed=5)
    dropped = _agree("fft", "target", "mesh", fault=fault)
    assert any(b.retry_ns for b in dropped.buckets)  # drops were recovered


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
