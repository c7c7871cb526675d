"""The abstracted LogP network: L delays plus g-gap gating.

Both the LogP and CLogP machines transport messages through this model.
A message from ``src`` to ``dst``:

1. may stall at the *sender* until ``g`` has elapsed since the sender's
   previous network event,
2. spends ``L`` in transit,
3. may stall at the *receiver* until ``g`` has elapsed since the
   receiver's previous network event.

The LogP definition gates *all* network events at a node with one gap
(a node cannot even overlap a send with a receive) -- the paper points
out this is one source of contention pessimism.  With
``per_event_type=True`` (the Section 7 relaxation) sends and receives
are gated independently.

Stalls are the model's *contention* estimate; the ``L`` terms are its
*latency* estimate.  The gate bookkeeping is pure integer arithmetic in
one function, :meth:`LogPNetwork.one_way_ns` (plain, adaptive-``g``,
sanitized and fault-injected messages all take it): the machines
get back plain ints ``(total, stall, retry)``, build no object and
sleep once.  :class:`Trip` is the public, named form of the same
numbers, built only by :meth:`~LogPNetwork.one_way` and
:meth:`~LogPNetwork.round_trip` for tests, examples and analysis.

That closed form is why the paper's "LogP is dearer to simulate than
the target" reproduces here in simulated message counts but not in host
time: their cost was one simulated network event per reference that a
cache would have absorbed; ours is six additions and two comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..engine.core import Simulator
from ..errors import RetryLimitError
from .params import LogPParams


@dataclass(frozen=True)
class Trip:
    """Timing decomposition of one (round-)trip through the LogP network."""

    #: Total elapsed time from initiation to completion.
    total_ns: int

    #: Contention-free transmission time (the L terms).
    latency_ns: int

    #: g-gap stall time (the model's contention estimate).
    stall_ns: int

    #: Remote service time included in the trip (e.g. memory access).
    service_ns: int

    #: Number of messages injected.
    messages: int

    #: Reliable-delivery recovery time contained in ``total_ns``:
    #: failed attempts, backoff waits, acks, fault delays and stalls.
    #: Zero on a fault-free network.
    retry_ns: int = 0


class LogPNetwork:
    """Per-node g-gap gates plus L-delay arithmetic.

    With ``adaptive=True`` (and a topology to measure routes on), the
    model implements the history-based g estimation the paper suggests
    as future work in Section 7: the effective gap is the configured
    ``g`` scaled by the *observed* communication locality -- the running
    mean of route hop counts divided by the mean hop count of uniform
    traffic (the assumption under which the bisection-bandwidth ``g``
    is derived).  An application whose messages travel half as far as
    uniform traffic gets half the gap, removing much of the pessimism
    the paper documents for EP.
    """

    def __init__(self, sim: Simulator, params: LogPParams,
                 per_event_type: bool = False, topology=None,
                 adaptive: bool = False, injector=None,
                 retry_policy=None, checkers=None):
        self.sim = sim
        self.params = params
        self.per_event_type = per_event_type
        self.adaptive = adaptive and topology is not None
        self.topology = topology
        #: Sanitizer ARQ-lifecycle observers (empty when unchecked).
        self._arq_checkers = (
            checkers.arq_checkers if checkers is not None else ()
        )
        #: Message sink of the sanitizer's record stream, or None.
        stream = sim._stream
        self._record_message = stream.message if stream is not None else None
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when
        #: set, every message goes through the reliable-delivery loop
        #: of :meth:`one_way_ns` (see there).
        self.injector = injector
        self.retry_policy = retry_policy
        self._L_ns = params.L_ns
        self._g_ns = params.g_ns
        self._o2_ns = 2 * params.o_ns
        #: Contention-free time of one message: ``L + 2o``.
        self.leg_latency_ns = params.L_ns + 2 * params.o_ns
        #: ... and of a request/reply pair, service excluded.
        self.round_trip_latency_ns = 2 * self.leg_latency_ns
        #: Cumulative reliable-delivery recovery time.
        self.total_retry_ns = 0
        nprocs = params.P
        # Next time each node may perform a network event.  With
        # per-event-type gating, sends and receives have separate gates.
        self._send_gate: List[int] = [0] * nprocs
        self._recv_gate: List[int] = (
            [0] * nprocs if per_event_type else self._send_gate
        )
        #: Total messages injected through this network.
        self.messages = 0
        #: Cumulative stall time (instrumentation).
        self.total_stall_ns = 0
        # History for adaptive g.
        self._hops_total = 0
        self._hops_messages = 0
        self._uniform_mean_hops = (
            self._mean_uniform_hops(topology) if self.adaptive else 0.0
        )

    @staticmethod
    def _mean_uniform_hops(topology) -> float:
        """Mean route length of uniform all-pairs traffic."""
        nprocs = topology.nprocs
        if nprocs <= 1:
            return 1.0
        total = sum(
            topology.hops(src, dst)
            for src in range(nprocs)
            for dst in range(nprocs)
            if src != dst
        )
        return total / (nprocs * (nprocs - 1))

    # -- gate arithmetic ---------------------------------------------------------

    def effective_g(self) -> int:
        """The gap currently applied (scaled by history when adaptive)."""
        g = self._g_ns
        if not self.adaptive or self._hops_messages == 0:
            return g
        observed = self._hops_total / self._hops_messages
        factor = min(1.0, observed / self._uniform_mean_hops)
        return round(g * factor)

    def one_way_ns(self, src: int, dst: int,
                   begin: int) -> Tuple[int, int, int]:
        """One message ``src -> dst`` entering the network at ``begin``.

        Returns plain ints ``(total, stall, retry)``; the contention-free
        part of ``total`` is always :attr:`leg_latency_ns`.  This is the
        only copy of the gate arithmetic: the sender waits for its gate,
        the message spends ``L`` in transit, the receiver waits for its
        gate, and each gate then closes for the (possibly adaptive) gap.

        Under fault injection the same loop runs the reliable-delivery
        protocol, abstracted the way the network abstracts links: each
        attempt pays the ordinary gated trip; a lost or corrupted
        attempt costs a backed-off timeout before the retransmission; a
        delivered attempt is confirmed by an ack that costs one ``L``
        (acks are small and not ``g``-gated -- the deliberate
        simplification mirroring how the model already ignores
        control-message sizes).  Link-failure windows apply to any route
        the topology says crosses the dead link; node stalls freeze the
        endpoint until their window closes.  ``stall`` is then the gate
        waits of the first delivered attempt and ``retry`` everything
        beyond it and the latency.

        :raises RetryLimitError: the retry cap was exhausted.
        """
        injector = self.injector
        faulty = injector is not None
        record = self._record_message
        send_gate = self._send_gate
        recv_gate = self._recv_gate
        L = self._L_ns
        if self.adaptive:
            self._hops_total += self.topology.hops(src, dst)
            self._hops_messages += 1
            g = self.effective_g()
        else:
            g = self._g_ns
        if faulty:
            for checker in self._arq_checkers:
                checker.on_logical_send(begin, src, dst)
        now = ready = begin
        intact = reached = True
        delay = 0
        stall = None  # set by the first intact delivery
        failed_attempts = 0
        while True:
            if faulty:
                ready = now + injector.stall_ns(src, now)
                fate = injector.fate(src, dst, ready, check_route=True)
                intact = fate.delivered
                reached = intact or fate.corrupted
                delay = fate.delay_ns
            sent = send_gate[src]
            if sent < ready:
                sent = ready
            send_gate[src] = sent + g
            self.messages += 1
            if reached:
                arrived = sent + L + delay
                if faulty:
                    arrived += injector.stall_ns(dst, arrived)
                received = recv_gate[dst]
                if received < arrived:
                    received = arrived
                recv_gate[dst] = received + g
                failure_at = received
            else:
                # Lost in the network: the sender times out.
                failure_at = sent + L
            if record is not None:
                record(failure_at, src, dst, 0, intact)
            if intact:
                if faulty:
                    for checker in self._arq_checkers:
                        checker.on_app_delivery(
                            received, src, dst, stall is not None
                        )
                if stall is None:
                    stall = (sent - ready) + (received - arrived)
                if not faulty:
                    self.total_stall_ns += stall
                    return received - begin + self._o2_ns, stall, 0
                ack_fate = injector.fate(dst, src, received, check_route=True)
                failure_at = received + L
                self.messages += 1
                if record is not None:
                    record(failure_at, dst, src, 0, ack_fate.delivered)
                if ack_fate.delivered:
                    for checker in self._arq_checkers:
                        checker.on_logical_complete(failure_at, src, dst)
                    total = failure_at - begin + self._o2_ns
                    retry = max(0, total - self.leg_latency_ns - stall)
                    self.total_stall_ns += stall
                    self.total_retry_ns += retry
                    return total, stall, retry
            failed_attempts += 1
            if failed_attempts > self.retry_policy.max_retries:
                raise RetryLimitError(src, dst, failed_attempts, failure_at)
            now = failure_at + self.retry_policy.backoff_ns(failed_attempts)

    def round_trip_ns(self, src: int, dst: int,
                      service_ns: int) -> Tuple[int, int, int]:
        """Request, remote service, reply: ``(total, stall, retry)`` ints.

        The contention-free part of ``total`` is
        :attr:`round_trip_latency_ns` plus ``service_ns``.
        """
        now = self.sim._now
        total, stall, retry = self.one_way_ns(src, dst, now)
        back, back_stall, back_retry = self.one_way_ns(
            dst, src, now + total + service_ns
        )
        return (total + service_ns + back, stall + back_stall,
                retry + back_retry)

    # -- public trips ---------------------------------------------------------------

    def one_way(self, src: int, dst: int, start_at: int = None) -> Trip:
        """One message src -> dst; returns its timing decomposition."""
        total, stall, retry = self.one_way_ns(
            src, dst, self.sim.now if start_at is None else start_at
        )
        return Trip(total, self.leg_latency_ns, stall, 0, 1, retry)

    def round_trip(self, src: int, dst: int, service_ns: int = 0) -> Trip:
        """Request src -> dst, remote service, reply dst -> src.

        This is the cost of satisfying a shared-memory reference
        remotely under the LogP abstraction.  ``service_ns`` models the
        remote node's memory/cache access between the two messages.
        """
        total, stall, retry = self.round_trip_ns(src, dst, service_ns)
        return Trip(total, self.round_trip_latency_ns, stall, service_ns, 2,
                    retry)


class LogPMessagePassing:
    """Explicit messages for machines whose ``self.net`` is a LogPNetwork.

    Mixed into :class:`~repro.core.machine.Machine` subclasses ahead of
    the base class, whose ``mp_transmit`` is free.
    """

    def mp_transmit(self, pid: int, dst: int, nbytes: int):
        """Explicit message through the LogP network, packetized.

        Each packet is one LogP message: full ``L`` latency plus the
        per-node ``g`` gating (and ``o``, were it non-zero) -- the
        model's home turf, since LogP was formulated for message
        passing.
        """
        if pid == dst:
            return 0, 0
        net = self.net
        now = self.sim.now
        latency = 0
        total = 0
        remaining = nbytes
        packet = self.config.data_message_bytes
        while remaining > 0:
            packet_total, _, retry = net.one_way_ns(pid, dst, now)
            latency += net.leg_latency_ns
            if packet_total > total:
                total = packet_total
            if retry:
                self.record_retry(pid, retry)
            remaining -= packet
        yield total
        return latency, 0
