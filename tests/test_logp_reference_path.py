"""The LogP reference path: public ``Trip`` parity and the no-``Trip`` guard.

The machines price every remote reference with plain-int gate
arithmetic; :class:`~repro.core.logp_net.Trip` objects are built only by
the public ``one_way``/``round_trip`` wrappers.  Two things are pinned:

* the public decomposition (``total/latency/stall/service/messages/
  retry``), the message records and the network counters of a fixed
  script, across ``per_event_type`` x ``adaptive`` x fault injection,
  against values recorded in ``tests/goldens/logp_trips.json`` (from the
  commit before the int rewrite; regenerate only for an intentional
  timing change with ``--update-goldens``);
* a LogP and a CLogP run complete with ``Trip.__init__`` patched to
  raise, and the record stream's conservation consumer sees exactly
  ``net.messages`` records.
"""

import dataclasses
import json
from pathlib import Path
import pytest

from repro import FaultConfig, LinkFailure, NodeStall, simulate
from repro.core import logp_net
from repro.core.logp_net import LogPNetwork
from repro.core.machine import Processor, make_machine
from repro.core.params import LogPParams
from repro.engine import Simulator
from repro.errors import AddressError
from repro.engine.rng import RandomStreams
from repro.faults.injector import FaultInjector
from repro.faults.reliable import RetryPolicy
from repro.network import make_topology

from tests.conftest import tiny_app, tiny_config

GOLDEN_PATH = Path(__file__).parent / "goldens" / "logp_trips.json"

NPROCS = 16

#: Seeded faults: drops, corruption, delays, one dead link and one
#: stalled node, so every branch of the ARQ arithmetic is taken.
FAULT = FaultConfig(
    drop_rate=0.15, corrupt_rate=0.1, delay_rate=0.2, delay_ns=900,
    retry_timeout_ns=2_500, max_retries=12, seed=77,
    link_failures=(LinkFailure(0, 4, 0, 3_000),),
    node_stalls=(NodeStall(2, 800, 4_000),),
)

#: (advance sim time by, op, src, dst, argument).  ``argument`` is the
#: service time of a round trip or the ``start_at`` offset from "now"
#: of a one-way message (None: start now).
SCRIPT = (
    (0, "rt", 0, 4, 300),
    (0, "rt", 0, 9, 300),
    (100, "ow", 4, 5, None),
    (0, "ow", 5, 4, 4_000),
    (0, "rt", 5, 0, 0),
    (700, "rt", 1, 2, 120),
    (0, "ow", 1, 2, None),
    (0, "ow", 1, 5, None),
    (0, "rt", 5, 1, 300),
    (9_000, "rt", 0, 5, 300),
    (0, "ow", 7, 7, None),
    (0, "rt", 12, 13, 50),
)

CASES = [
    (per_event_type, adaptive, faulty)
    for per_event_type in (False, True)
    for adaptive in (False, True)
    for faulty in (False, True)
]


def _case_key(per_event_type, adaptive, faulty):
    return (
        f"per_event_type={int(per_event_type)}/adaptive={int(adaptive)}"
        f"/faulty={int(faulty)}"
    )


class _MessageLog:
    """Record-stream consumer keeping every message record in the
    table's six-column form.  The stream carries no message ``kind``;
    the column is derived: under ARQ every intact message is followed
    by its ack, and nothing else is one."""

    def __init__(self, faulty):
        self.faulty = faulty
        self.calls = []

    def message(self, now, src, dst, nbytes, delivered):
        acked = self.calls[-1] if self.faulty and self.calls else None
        is_ack = acked is not None and acked[3] == "logp" and acked[5]
        self.calls.append(
            [now, src, dst, "ack" if is_ack else "logp", nbytes, delivered]
        )


def _run_script(per_event_type, adaptive, faulty):
    log = _MessageLog(faulty)
    sim = Simulator(checkers=(log,))
    topology = make_topology("mesh", NPROCS)
    params = LogPParams(L_ns=1_600, g_ns=1_300, o_ns=40, P=NPROCS)
    injector = policy = None
    if faulty:
        injector = FaultInjector(FAULT, RandomStreams(1), topology=topology)
        policy = RetryPolicy.from_fault(FAULT)
    net = LogPNetwork(
        sim, params, per_event_type=per_event_type, topology=topology,
        adaptive=adaptive, injector=injector, retry_policy=policy,
    )
    trips = []

    def driver():
        for advance, op, src, dst, arg in SCRIPT:
            if advance:
                yield advance
            if op == "rt":
                trip = net.round_trip(src, dst, service_ns=arg)
            else:
                start_at = None if arg is None else sim.now + arg
                trip = net.one_way(src, dst, start_at)
            trips.append(list(dataclasses.astuple(trip)))

    sim.spawn(driver())
    sim.run()
    return {
        "trips": trips,
        "hook_calls": log.calls,
        "messages": net.messages,
        "total_stall_ns": net.total_stall_ns,
        "total_retry_ns": net.total_retry_ns,
        "effective_g": net.effective_g(),
        "injected": [
            injector.dropped, injector.corrupted, injector.delayed,
            injector.window_drops, injector.stall_ns_injected,
        ] if faulty else None,
    }


@pytest.mark.parametrize("per_event_type,adaptive,faulty", CASES)
def test_trip_parity_with_recorded_table(per_event_type, adaptive, faulty,
                                         update_goldens):
    if update_goldens:
        pytest.skip("table is being regenerated by the update test")
    goldens = json.loads(GOLDEN_PATH.read_text())
    expected = goldens[_case_key(per_event_type, adaptive, faulty)]
    actual = _run_script(per_event_type, adaptive, faulty)
    assert actual == expected
    # The records are the sanitizer's view of the traffic: one per
    # injected message, acks and lost attempts included.
    assert len(actual["hook_calls"]) == actual["messages"]


def test_table_covers_the_fault_paths():
    """The recorded script must actually exercise what it claims to."""
    goldens = json.loads(GOLDEN_PATH.read_text())
    plain = goldens[_case_key(False, False, False)]
    faulty = goldens[_case_key(False, False, True)]
    assert all(trip[5] == 0 for trip in plain["trips"])
    assert any(trip[5] > 0 for trip in faulty["trips"])
    assert any(trip[2] > 0 for trip in plain["trips"])  # g stalls
    assert any(not call[5] for call in faulty["hook_calls"])
    assert all(count > 0 for count in faulty["injected"])
    assert goldens[_case_key(False, True, False)]["effective_g"] < 1_300
    assert (
        goldens[_case_key(True, False, False)]["total_stall_ns"]
        < plain["total_stall_ns"]
    )


def test_update_trip_table(update_goldens):
    """With ``--update-goldens``, rewrite the recorded table in place."""
    if not update_goldens:
        pytest.skip("pass --update-goldens to regenerate")
    payload = {_case_key(*case): _run_script(*case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(payload, sort_keys=True) + "\n")


# -- the machine reference path builds no Trip ------------------------------


@pytest.mark.parametrize("machine_name", ["logp", "clogp"])
@pytest.mark.parametrize("fault", [None, FaultConfig(drop_rate=0.02, seed=5)])
def test_machine_reference_path_builds_no_trip(monkeypatch, machine_name,
                                               fault):
    def refuse(self, *args, **kwargs):
        raise AssertionError("Trip built on the machine reference path")

    reference = simulate(
        tiny_app("fft", 4), machine_name,
        tiny_config(4, "mesh", fault=fault or FaultConfig()),
    )
    monkeypatch.setattr(logp_net.Trip, "__init__", refuse)
    result = simulate(
        tiny_app("fft", 4), machine_name,
        tiny_config(4, "mesh", fault=fault or FaultConfig()),
    )
    assert result.verified
    assert result.messages == reference.messages > 0
    assert result.total_ns == reference.total_ns


def test_explicit_messages_build_no_trip(monkeypatch):
    """``mp_transmit`` (one shared copy on the network) is int-only too."""
    monkeypatch.setattr(
        logp_net.Trip, "__init__",
        lambda self, *a, **k: pytest.fail("Trip built by mp_transmit"),
    )
    for machine_name in ("logp", "clogp"):
        machine = make_machine(machine_name, tiny_config(4))
        packet = machine.config.data_message_bytes
        gen = machine.mp_transmit(0, 1, 3 * packet)
        total = next(gen)
        with pytest.raises(StopIteration) as done:
            next(gen)
        g, L = machine.params.g_ns, machine.params.L_ns
        assert machine.net.messages == 3
        # Three packets leave g apart; the last one sets the duration.
        assert total == 2 * g + L
        assert done.value.value == (3 * L, 0)


@pytest.mark.parametrize("machine_name", ["logp", "clogp"])
def test_message_hooks_see_every_message(machine_name):
    """The stream's conservation consumer sees every message and ack."""
    machine = make_machine(
        machine_name, tiny_config(4, "mesh", check="strict",
                                  fault=FaultConfig(drop_rate=0.02, seed=5)),
    )
    net = machine.net
    app = tiny_app("is", 4)
    app.setup(machine.space, machine.streams)
    for pid in range(4):
        machine.sim.spawn(Processor(machine, pid).run(app.proc_main(pid)))
    machine.sim.run()
    assert app.verify()
    conservation = next(c for c in machine.checkers if c.name == "conservation")
    assert net.messages > 0
    assert conservation.sends == net.messages
    assert conservation.undelivered > 0  # drops, and only drops, are lost
    assert conservation.undelivered <= machine.fault_injector.dropped


def test_logp_machine_home_memo_follows_allocations():
    """The machine holds the space's memo dict itself, not a copy."""
    machine = make_machine("logp", tiny_config(4))
    a = machine.space.alloc("a", 64, 8, ("node", 2))
    assert machine.try_fast(2, a.addr(0), False) == machine.config.memory_ns
    assert machine.try_fast(1, a.addr(0), False) is None
    b = machine.space.alloc("b", 64, 8, ("node", 1))
    assert machine._homes is machine.space._home_cache
    assert machine.try_fast(1, b.addr(0), True) == machine.config.memory_ns
    assert machine.try_fast(2, a.addr(0), False) == machine.config.memory_ns
    with pytest.raises(AddressError):
        machine.try_fast(0, 0, False)  # the guard block
    with pytest.raises(AddressError):
        next(machine.transact(0, b.region.end, False))
