"""Allocation-free yield forms on the reference loop: TURN, int sleeps.

The object kernel has one heap-only run loop.  A process may use two
allocation-free yield forms on it (``yield <int>`` sleeps and ``yield
TURN`` grants); these tests pin that each executes the *same event
sequence* as the event-based form it replaces, and that the loop's
``until`` horizon and ``max_events`` watchdog see same-time work too.
"""

from __future__ import annotations

import pytest

from repro.engine.core import TURN, Simulator
from repro.engine.resource import Resource
from repro.errors import WatchdogError
from repro.core.runner import simulate_spec
from repro.runspec import RunSpec


def test_turn_grant_is_equivalent_to_event_grant():
    # A process granting via try_acquire + TURN interleaves exactly
    # like one yielding the granted request() event.
    def scenario(use_turn):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def contender(tag):
            if use_turn:
                yield TURN if res.try_acquire() else res.request()
            else:
                yield res.request()
            log.append((tag, "granted", sim.now))
            yield 5
            res.release()
            log.append((tag, "released", sim.now))

        def bystander():
            log.append(("c", "tick", sim.now))
            yield 5
            log.append(("c", "tock", sim.now))

        sim.spawn(contender("a"))
        sim.spawn(bystander())
        sim.spawn(contender("b"))
        sim.run()
        return log

    assert scenario(use_turn=True) == scenario(use_turn=False)


def test_int_sleep_matches_timeout_event():
    # ``yield n`` resumes at the same point as ``yield sim.timeout(n)``.
    def scenario(use_int):
        sim = Simulator()
        log = []

        def sleeper(tag, delay):
            if use_int:
                yield delay
            else:
                yield sim.timeout(delay)
            log.append((tag, sim.now))

        sim.spawn(sleeper("a", 10))
        sim.spawn(sleeper("b", 0))
        sim.spawn(sleeper("c", 10))
        sim.run()
        return log

    assert scenario(True) == scenario(False) == \
        [("b", 0), ("a", 10), ("c", 10)]


def test_until_horizon_in_guarded_loop():
    # Events past the ``until`` horizon stay queued and the clock
    # parks at it.
    sim = Simulator()
    seen = []

    def ticker():
        for _ in range(10):
            yield 0  # same-time work must not outrun the horizon logic
            yield 4
            seen.append(sim.now)

    sim.spawn(ticker())
    assert sim.run(until=10) == 10
    assert sim.now == 10
    assert seen == [4, 8]
    sim.run()  # drain the rest
    assert seen == [4, 8, 12, 16, 20, 24, 28, 32, 36, 40]


def test_watchdog_counts_ring_events():
    # max_events must count same-time work too, or a same-time
    # livelock (e.g. two processes ping-ponging zero-delay sleeps)
    # would never trip the watchdog.
    sim = Simulator()

    def livelock():
        while True:
            yield 0

    sim.spawn(livelock())
    with pytest.raises(WatchdogError) as excinfo:
        sim.run(max_events=500)
    assert excinfo.value.events == 500


def test_batch_local_parity_exact():
    # Uncontended message-passing run: releasing local time eagerly vs
    # batched must not change any simulated outcome.
    kwargs = dict(app="cg", machine="logp", nprocs=4, preset="quick")
    batched = simulate_spec(RunSpec.build(batch_local=True, **kwargs))
    eager = simulate_spec(RunSpec.build(batch_local=False, **kwargs))
    assert batched.total_ns == eager.total_ns
    assert batched.messages == eager.messages
    for b1, b2 in zip(batched.buckets, eager.buckets):
        assert b1.compute_ns == b2.compute_ns
        assert b1.memory_ns == b2.memory_ns


def test_batch_local_parity_invariants_under_contention():
    # On the contended target machine the release points shift the
    # interleaving, so total time may wiggle -- but the work done
    # (messages, compute, memory service) is identical and the time
    # shift stays marginal.
    kwargs = dict(app="jacobi", machine="target", nprocs=4, preset="quick")
    batched = simulate_spec(RunSpec.build(batch_local=True, **kwargs))
    eager = simulate_spec(RunSpec.build(batch_local=False, **kwargs))
    assert batched.messages == eager.messages
    assert sum(b.compute_ns for b in batched.buckets) == \
        sum(b.compute_ns for b in eager.buckets)
    assert sum(b.memory_ns for b in batched.buckets) == \
        sum(b.memory_ns for b in eager.buckets)
    assert abs(batched.total_ns - eager.total_ns) < 0.01 * batched.total_ns
