"""Differential fuzzing of the event kernels (first slice of ROADMAP 3(a)).

Hypothesis generates small raw-engine programs -- plain and zero sleeps,
``Timeout`` events, ``yield resource`` / ``release``, ``try_acquire`` +
``TURN``, ``Event.succeed`` / waits (early and late joiners), ``all_of``,
``spawn`` with and without a join, and plain-fabric sends (generator
legs and posted flat ops) -- and splits each run at random ``until`` /
``max_events`` points, so the guarded loops and the resume across a
horizon or watchdog stop are part of what is compared.

Every kernel runs the same program with the full record stream attached
and must report the same stops, final time, ``events_executed``, digest,
per-consumer ``checks`` and the same ``(process, op, time, value)`` log.
Programs that deadlock are kept: the ``DeadlockError`` is part of the
outcome.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers import (
    ConservationChecker,
    DeterminismChecker,
    MonotonicityChecker,
)
from repro.engine import TURN, all_of, make_simulator
from repro.engine.resource import Resource
from repro.errors import DeadlockError, WatchdogError
from repro.network.fabric import Fabric
from repro.network.topology import make_topology

from .conftest import ALL_KERNELS as KERNELS

CAPACITIES = (1, 2)
N_EVENTS = 3
N_NODES = 4

_delay = st.integers(0, 12)
_resource = st.integers(0, len(CAPACITIES) - 1)
_event = st.integers(0, N_EVENTS - 1)
_node = st.integers(0, N_NODES - 1)

_leaf_op = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("hold"), _resource, _delay),
    st.tuples(st.just("try"), _resource, _delay),
    st.tuples(st.just("succeed"), _event),
    st.tuples(st.just("wait"), _event),
    st.tuples(st.just("all_of"), st.lists(_event, max_size=3)),
    st.tuples(st.just("send"), _node, _node, st.sampled_from((8, 32))),
    st.tuples(st.just("post"), _node, _node, st.sampled_from((8, 32))),
)
_op = st.one_of(
    _leaf_op,
    st.tuples(st.just("spawn"), st.lists(_leaf_op, max_size=4),
              st.booleans()),
)
_program = st.lists(st.lists(_op, max_size=8), min_size=1, max_size=4)
_splits = st.lists(
    st.one_of(st.tuples(st.just("until"), st.integers(0, 40)),
              st.tuples(st.just("max_events"), st.integers(1, 12))),
    max_size=4,
)


def _execute(kernel, program, splits):
    consumers = (MonotonicityChecker(), ConservationChecker(),
                 DeterminismChecker())
    sim = make_simulator(checkers=consumers, kernel=kernel)
    fabric = Fabric(sim, make_topology("mesh", N_NODES), 50)
    resources = [Resource(sim, capacity=cap) for cap in CAPACITIES]
    events = [sim.event() for _ in range(N_EVENTS)]
    log = []

    def body(tag, ops):
        for index, op in enumerate(ops):
            kind, got = op[0], None
            if kind == "sleep":
                got = yield op[1]
            elif kind == "timeout":
                got = yield sim.timeout(op[1], value=index)
            elif kind == "hold":
                got = yield resources[op[1]]
                yield op[2]
                resources[op[1]].release()
            elif kind == "try":
                if resources[op[1]].try_acquire():
                    got = yield TURN
                    yield op[2]
                    resources[op[1]].release()
            elif kind == "succeed":
                if not events[op[1]].triggered:
                    events[op[1]].succeed(index)
            elif kind == "wait":
                got = yield events[op[1]]
            elif kind == "all_of":
                got = yield all_of(sim, [events[i] for i in op[1]])
            elif kind == "send":
                got = yield from fabric.transmit_fast(op[1], op[2], op[3])
            elif kind == "post":
                fabric.post_fast(op[1], op[2], op[3])
            else:  # spawn
                child = sim.spawn(body(tag + (index,), op[1]))
                if op[2]:
                    got = yield child
            log.append((tag, index, sim.now, got))
        return len(ops)

    for number, ops in enumerate(program):
        sim.spawn(body((number,), ops), name=f"p{number}")
    stops = []
    for kind, amount in splits + [("until", None)]:
        try:
            if kind == "max_events":
                sim.run(max_events=amount)
            else:
                # A horizon relative to the clock: never behind it.
                sim.run(until=None if amount is None else sim.now + amount)
        except (WatchdogError, DeadlockError) as stop:
            stops.append(str(stop))
    return (stops, sim.now, sim.events_executed, sim.state_digest(),
            [consumer.checks for consumer in consumers], log)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(program=_program, splits=_splits)
def test_random_programs_agree_on_every_kernel(program, splits):
    reference = _execute("object", program, splits)
    _stops, _now, executed, _digest, checks, _log = reference
    assert checks[0] == executed                 # monotonicity: per event
    assert checks[2] == executed + checks[1]     # determinism: + messages
    for kernel in KERNELS[1:]:
        assert _execute(kernel, program, splits) == reference, kernel
