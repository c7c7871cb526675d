"""Circuit-switched network transport for the target machine.

The paper's target networks are circuit-switched with wormhole routing,
serial 20 MB/s links, and negligible switching delay.  We model a
message as follows:

1. compute the deterministic route (dimension-ordered, so in-order link
   acquisition is deadlock-free),
2. acquire every link along the route in path order, *holding* links
   already acquired (this is the circuit being built; head-of-line
   blocking while holding upstream links is exactly the wormhole
   behaviour that creates tree contention),
3. once the circuit is complete, transmit for ``nbytes x 50 ns`` --
   with negligible switching delay the pipeline is limited purely by
   the serial-link bandwidth, so the contention-free time of a message
   is independent of hop count (which is why the paper's latency
   figures barely differ across topologies),
4. release all links.

For every message we return the split the paper's SPASM profiler keeps:
*latency* = contention-free transmission time, *contention* = everything
else the message spent in the network (waiting for links).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine.core import Simulator
from ..errors import TopologyError
from .link import Link
from .message import Message
from .topology import LinkId, Topology


class TransferResult:
    """Timing decomposition of one completed message transfer.

    A plain ``__slots__`` value class (one is allocated per transported
    message, so its constructor is hot):

    * ``latency_ns`` -- contention-free transmission time (charged to
      latency overhead),
    * ``contention_ns`` -- time spent waiting for links (charged to
      contention overhead),
    * ``delivered`` -- did the payload arrive intact?  Always True on a
      fault-free fabric; with fault injection a dropped or corrupted
      message still occupies the network but delivers nothing,
    * ``fault_ns`` -- fault-injected time (stalls, extra delays) spent
      by this transfer, excluded from both latency and contention so
      the reliable-delivery layer can charge it to retry overhead,
    * ``retry_ns`` -- reliable-delivery recovery time (set by the retry
      layer only),
    * ``attempts`` -- transmission attempts this result summarizes.
    """

    __slots__ = ("latency_ns", "contention_ns", "delivered", "fault_ns",
                 "retry_ns", "attempts")

    def __init__(self, latency_ns: int, contention_ns: int,
                 delivered: bool = True, fault_ns: int = 0,
                 retry_ns: int = 0, attempts: int = 1):
        self.latency_ns = latency_ns
        self.contention_ns = contention_ns
        self.delivered = delivered
        self.fault_ns = fault_ns
        self.retry_ns = retry_ns
        self.attempts = attempts

    @property
    def total_ns(self) -> int:
        return self.latency_ns + self.contention_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransferResult(latency_ns={self.latency_ns}, "
            f"contention_ns={self.contention_ns}, "
            f"delivered={self.delivered}, fault_ns={self.fault_ns}, "
            f"retry_ns={self.retry_ns}, attempts={self.attempts})"
        )


class Fabric:
    """The set of links of one topology plus the transfer protocol."""

    def __init__(self, sim: Simulator, topology: Topology, ns_per_byte: int,
                 switch_delay_ns: int = 0, injector=None):
        self.sim = sim
        self.topology = topology
        self.ns_per_byte = ns_per_byte
        #: Per-hop switching delay (0 per the paper's assumption).
        self.switch_delay_ns = switch_delay_ns
        #: Optional :class:`~repro.faults.injector.FaultInjector`.
        #: When None (the default) the fabric is perfectly reliable and
        #: follows the exact pre-fault code path.
        self.injector = injector
        #: Message sink of the sanitizer's record stream (None when
        #: unchecked): the simulator's, so the kernel's flat settle
        #: sites and the completion sites below feed one stream.
        stream = sim._stream
        self._record_message = stream.message if stream is not None else None
        self._links: Dict[LinkId, Link] = {
            link_id: Link(sim, *link_id) for link_id in topology.links()
        }
        #: Deterministic routes resolved to Link tuples, pre-filled for
        #: every (src, dst) pair at construction.  A flat
        #: ``src * nprocs + dst`` table: the per-message lookup is a
        #: list index instead of a tuple-keyed dict probe, and the hot
        #: paths (including the C flat-op stepper) index it with no
        #: None check.  The diagonal stays None -- every caller handles
        #: src == dst before routing.
        self._nprocs = topology.nprocs
        nprocs = self._nprocs
        links = self._links
        self._route_links: List[Optional[Tuple[Link, ...]]] = (
            [None] * (nprocs * nprocs)
        )
        for src in range(nprocs):
            base = src * nprocs
            for dst in range(nprocs):
                if src != dst:
                    self._route_links[base + dst] = tuple(
                        links[link_id]
                        for link_id in topology.route(src, dst)
                    )
        if injector is not None:
            for window in injector.fault.link_failures:
                link = self._links.get((window.src, window.dst))
                if link is not None:
                    link.fail_windows = link.fail_windows + (window,)
        #: True when the fabric is fault-free and has zero switching
        #: delay, i.e. ``transmit_fast``/``post_fast`` are valid.
        #: Machines key their own fast paths off this flag (see
        #: ``TargetMachine._net_lat``).
        self.is_plain = injector is None and switch_delay_ns == 0
        #: Total messages transported.
        self.messages = 0
        #: Total payload bytes transported.
        self.bytes_transported = 0
        #: Sum of latency portions over all messages.
        self.total_latency_ns = 0
        #: Sum of contention portions over all messages.
        self.total_contention_ns = 0

    def link(self, src: int, dst: int) -> Link:
        """The link between two adjacent nodes (raises if absent)."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise TopologyError(
                f"no link {src}->{dst} in {self.topology.name}"
            ) from None

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def transmission_ns(self, nbytes: int) -> int:
        """Contention-free time for a message of ``nbytes``."""
        return nbytes * self.ns_per_byte

    def transmit(self, message: Message):
        """Generator: move ``message`` across the network.

        Returns a :class:`TransferResult`.  A message to self costs
        nothing (local memory is not behind the network).
        """
        if message.src == message.dst:
            return TransferResult(0, 0)
        sim = self.sim
        injector = self.injector
        start = sim.now
        fault_ns = 0
        fate = None
        if injector is not None:
            # A stalled sender cannot inject until its window closes.
            stall = injector.stall_ns(message.src, sim.now)
            if stall:
                fault_ns += stall
                yield stall
            fate = injector.fate(message.src, message.dst, sim.now)
        pre_circuit_fault = fault_ns
        path = self._route(message.src, message.dst)
        held: List[Link] = []
        switch_ns = self.switch_delay_ns
        # Build the circuit: acquire links in path order, paying the
        # per-hop switching delay while the circuit extends.
        for link in path:
            yield link.request()
            if injector is not None and link.is_failed(sim.now):
                # The circuit head reached a dead link: the worm is
                # lost and the partial circuit torn down.
                link.release()
                for upstream in held:
                    upstream.release()
                injector.window_drops += 1
                self.messages += 1
                if self._record_message is not None:
                    self._record_message(sim.now, message.src, message.dst,
                                         message.nbytes, False)
                return TransferResult(
                    latency_ns=0,
                    contention_ns=max(0, sim.now - start - fault_ns),
                    delivered=False,
                    fault_ns=fault_ns,
                )
            held.append(link)
            if switch_ns:
                yield switch_ns
        circuit_done = sim.now
        transmit_ns = self.transmission_ns(message.nbytes)
        yield transmit_ns
        for link in held:
            link.record_transfer(message.nbytes, sim.now - circuit_done)
            link.release()
        if fate is not None:
            # Fault-injected delay plus a stalled receiver's ejection
            # wait; both are recovery time, not latency or contention.
            post = fate.delay_ns + injector.stall_ns(message.dst, sim.now)
            if post:
                fault_ns += post
                yield post
        # Contention-free, the message would have taken the switching
        # delays plus the serial transmission; anything beyond that was
        # queueing for links.
        latency = transmit_ns + switch_ns * len(path)
        contention = (circuit_done - start - pre_circuit_fault) - \
            switch_ns * len(path)
        self.messages += 1
        self.bytes_transported += message.nbytes
        self.total_latency_ns += latency
        self.total_contention_ns += contention
        delivered = fate is None or fate.delivered
        if self._record_message is not None:
            self._record_message(sim.now, message.src, message.dst,
                                 message.nbytes, delivered)
        return TransferResult(
            latency_ns=latency,
            contention_ns=contention,
            delivered=delivered,
            fault_ns=fault_ns,
        )

    def _route(self, src: int, dst: int) -> Tuple[Link, ...]:
        """The deterministic route as a pre-resolved tuple of Links."""
        return self._route_links[src * self._nprocs + dst]

    def transmit_fast(self, src: int, dst: int, nbytes: int):
        """Generator: :meth:`transmit` for the plain fabric, without
        the Message envelope.

        Returns the latency (the transmission time) as a plain int --
        no :class:`Message`, no :class:`TransferResult` -- for callers
        on the fault-free fast path that only need the latency split
        (the contention split is observable as elapsed minus returned).
        Yields the exact event sequence of :meth:`transmit` -- one link
        grant per hop in path order, then one transmission sleep -- and
        updates the same fabric and per-link statistics, so simulated
        results and instrumentation are bit-identical with the general
        path.  Only valid when :attr:`is_plain` is true.
        """
        if src == dst:
            return 0
        sim = self.sim
        start = sim._now
        path = self._route_links[src * self._nprocs + dst]
        for link in path:
            # Kernel-resolved grant (see Resource): no Event allocation
            # on the SoA kernel, free or busy.
            yield link
        circuit_done = sim._now
        transmit_ns = nbytes * self.ns_per_byte
        yield transmit_ns
        held_ns = sim._now - circuit_done
        for link in path:
            link.messages += 1
            link.bytes_carried += nbytes
            link.busy_ns += held_ns
            link.release()
        self.messages += 1
        self.bytes_transported += nbytes
        self.total_latency_ns += transmit_ns
        self.total_contention_ns += circuit_done - start
        if self._record_message is not None:
            self._record_message(sim._now, src, dst, nbytes, True)
        return transmit_ns

    def post_fast(self, src: int, dst: int, nbytes: int,
                  name: str = "post"):
        """Fire-and-forget ``transmit_fast`` (plain fabric only).

        On a flat-capable kernel the transfer is posted as a *flat op*
        -- a tag-dispatched table entry the kernel steps through with
        no generator frame (see ``SoaSimulator.flat_transmit``); on the
        object kernel it spawns the generator twin.  Both produce the
        identical event sequence and accounting.  Returns the joinable
        shell event.
        """
        sim = self.sim
        if sim._flat_capable and src != dst:
            path = self._route_links[src * self._nprocs + dst]
            tx = nbytes * self.ns_per_byte
            return sim.flat_transmit(self, ((path, nbytes, tx),), value=tx)
        return sim.spawn(self.transmit_fast(src, dst, nbytes), name=name)

    def post(self, message: Message, name: Optional[str] = None):
        """Fire-and-forget transmit (used for evicted-block writebacks).

        The message still occupies real links -- it just is not on any
        processor's critical path.  Returns the spawned process, which
        callers may join if they need completion.
        """
        return self.sim.spawn(
            self.transmit(message), name=name or f"post:{message.kind}"
        )

    # -- instrumentation -------------------------------------------------------

    def busiest_links(self, count: int = 5) -> List[Link]:
        """The ``count`` links with the highest busy time."""
        return sorted(self._links.values(), key=lambda l: -l.busy_ns)[:count]

    def total_link_wait_ns(self) -> int:
        """Aggregate time messages spent queued on links."""
        return sum(link.total_wait_ns for link in self._links.values())
