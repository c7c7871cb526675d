"""The target machine: detailed CC-NUMA simulation.

This is the paper's reference point -- the machine whose "pertinent
hardware features" are simulated in full:

* per-node Berkeley caches kept sequentially consistent by a
  fully-mapped directory at each block's home node,
* every protocol message (request, forward, data, invalidation, ack,
  writeback) individually transported over the circuit-switched
  network, paying real link contention,
* directory requests serialized per block at the home (a FIFO resource,
  which doubles as the protocol's race-freedom mechanism),
* NUMA local memory (``memory_cycles``) at the home node.

Message sizes follow Section 5: data messages carry a 32-byte block;
control messages are 8 bytes.  The LogP abstraction charges everything
at the 32-byte ``L`` -- the paper calls out both that pessimism and the
opposing optimism of CLogP not modeling this machine's coherence
traffic.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import SystemConfig
from ..engine.core import all_of
from ..engine.resource import Resource
from ..faults.reliable import ReliableTransport, RetryPolicy
from ..network.fabric import Fabric
from ..network.message import Message
from .coherence import CoherentMemory
from .machine import Machine, register_machine


@register_machine
class TargetMachine(Machine):
    """Detailed CC-NUMA machine (caches + directory + real network)."""

    name = "target"

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.fabric = Fabric(
            self.sim, self.topology, config.link_ns_per_byte,
            switch_delay_ns=config.switch_delay_ns,
            injector=self.fault_injector,
        )
        if self.fault_injector is not None:
            self.reliable = ReliableTransport(
                self.fabric,
                self.fault_injector,
                RetryPolicy.from_fault(config.fault),
                ack_bytes=config.control_message_bytes,
                checkers=self.checkers,
            )
        else:
            self.reliable = None
        self.memory = CoherentMemory(
            config, self.space, checkers=self.checkers, sim=self.sim
        )
        self._home_locks: Dict[int, Resource] = {}
        self._ctrl = config.control_message_bytes
        self._data = config.data_message_bytes
        #: Contention-free time of one invalidation+ack round.
        self._inv_round_latency = 2 * config.control_message_ns
        # Hot-path constants (attribute chains cost on every access).
        self._block_bytes = config.block_bytes
        self._hit_ns = config.cache_hit_ns
        self._mem_ns = config.memory_ns
        self._caches = self.memory.caches
        if self.reliable is None:
            # Fault-free: skip the retry-banking wrapper generator --
            # ``_net_transmit(pid, msg)`` then IS ``fabric.transmit(msg)``.
            self._net_transmit = self._net_transmit_plain
        #: Contention-free transmission times of the two message sizes.
        self._ctrl_ns = self._ctrl * self.fabric.ns_per_byte
        self._data_ns = self._data * self.fabric.ns_per_byte
        # One generator transaction serves every fabric; only the
        # per-message transfer differs.  A plain fabric (fault-free,
        # zero switching delay) moves messages through the
        # Message-free ``transmit_fast``; anything else pays for the
        # full Message transfer.
        self._net_lat = self._lat_general
        self._spawn_inv = self._spawn_inv_gen
        if self.fabric.is_plain:
            self._net_lat = self._lat_fast
            # On a flat-capable kernel, invalidation rounds post as
            # flat ops (same event sequence, no generator frame), and
            # whole directory transactions run as tag-dispatched flat
            # programs (see SoaSimulator.flat_transact): the kernel
            # steps request leg -> home lock -> plan callout -> service
            # sleep -> data/forward legs with no generator frame at
            # all.
            if self.sim._flat_capable:
                self._spawn_inv = self._spawn_inv_flat
                self._flat_ctx = (
                    self.fabric,
                    self.fabric._route_links,
                    self.fabric._nprocs,
                    self._ctrl,
                    self._data,
                    self._ctrl_ns,
                    self._data_ns,
                    self._mem_ns,
                    self._hit_ns,
                    self._inv_round_latency,
                    self.memory.plan_read,
                    self.memory.plan_write,
                    self,
                )
                # Bind once: the C loop recognizes deferred-call
                # tuples by identity of this exact callable (each
                # ``self._transact_flat`` access would make a fresh
                # bound method), and builds the op natively --
                # block/home/lock resolved through the same memo
                # dicts, with the method-form fallbacks for cold
                # blocks.
                self.transact_flat = self._transact_flat
                self.sim._flat_mctx = (
                    self.transact_flat,
                    self._block_bytes,
                    self.space._home_cache,
                    self.space.home_of_block,
                    self._home_locks,
                    self._home_lock,
                    self._flat_ctx,
                )

    def _net_transmit(self, pid: int, message: Message):
        """Generator: transmit on behalf of processor ``pid``.

        Routes through the reliable-delivery layer when faults are
        enabled, banking its recovery time against ``pid``'s retry
        bucket; otherwise this is exactly ``fabric.transmit``.
        """
        result = yield from self.reliable.transmit(message)
        if result.retry_ns:
            self.record_retry(pid, result.retry_ns)
        return result

    def _net_transmit_plain(self, pid: int, message: Message):
        # Returns the fabric's generator directly: ``yield from`` at the
        # call sites delegates to it with no wrapper frame in between.
        return self.fabric.transmit(message)

    def _lat_fast(self, pid: int, src: int, dst: int, nbytes: int,
                  kind: str):
        # Returns the fabric's Message-free generator directly -- one
        # message transfer with no Message, no TransferResult, and no
        # wrapper frame.  ``pid`` and ``kind`` are unused: the plain
        # fabric has no retry banking and builds no Message.
        return self.fabric.transmit_fast(src, dst, nbytes)

    def _lat_general(self, pid: int, src: int, dst: int, nbytes: int,
                     kind: str):
        """Generator twin of :meth:`_lat_fast` for the general fabric
        (faults or switching delay): full Message transfer,
        returning only the latency split the transactions charge."""
        result = yield from self._net_transmit(
            pid, Message(src, dst, nbytes, kind)
        )
        return result.latency_ns

    # -- memory interface ---------------------------------------------------------

    def try_fast(self, pid: int, addr: int, is_write: bool) -> Optional[int]:
        block = addr // self._block_bytes
        cache = self._caches[pid]
        if cache.probe(block, is_write):
            return self._hit_ns
        if is_write and self.memory.try_silent_upgrade(pid, block):
            # Illinois: EXCLUSIVE -> DIRTY without a directory
            # transaction -- the "fancier protocol" saving.
            cache.lookup(block)
            return self._hit_ns
        return None

    def transact(self, pid: int, addr: int, is_write: bool):
        """One directory transaction.

        The per-block home lock models *directory occupancy*: it is held
        from the request's arrival at the home until the home has
        updated state, read memory, collected invalidation acks, and
        launched the forward/reply -- but not through the reply's flight
        back to the requester, which real directories pipeline with the
        next request.

        Returns the transaction generator directly (no wrapper frame:
        every ``send`` into a ``yield from`` chain walks the whole
        delegation stack, so one less frame here cheapens every
        resumption of every transaction).
        """
        block = addr // self._block_bytes
        if is_write:
            return self._write_transaction(pid, block)
        return self._read_transaction(pid, block)

    def _transact_flat(self, pid: int, addr: int, is_write: bool):
        """One directory transaction as a flat op (plain fabric,
        flat-capable kernel).

        Compiles the miss round into a kernel-stepped table program
        instead of a generator; the caller yields the returned FLAT_TX
        sentinel and is resumed with the same ``(latency, service)``
        pair, after the identical event sequence, as the generator
        transactions below (the parity tests pin this).
        """
        block = addr // self._block_bytes
        return self.sim.flat_transact(
            self._flat_ctx, pid, block,
            self.space.home_of_block(block),
            self._home_lock(block), is_write,
        )

    def _post_data(self, src: int, dst: int, kind: str, block: int) -> None:
        """Launch a block-sized message nobody waits for (``wb`` /
        ``shwb``): off the critical path, but it occupies real links."""
        fabric = self.fabric
        if fabric.is_plain:
            # Message-free form: identical link grants, delays, and
            # counters -- a flat op on flat-capable kernels (see
            # Fabric.post_fast).
            fabric.post_fast(src, dst, self._data, name=kind)
        else:
            fabric.post(
                Message(src, dst, self._data, kind), name=f"{kind}{block}"
            )

    def _post_writeback(self, pid: int, writeback) -> None:
        """Launch an evicted victim's writeback message, if any."""
        if writeback is not None:
            victim_block, victim_home = writeback
            if victim_home != pid:
                self._post_data(pid, victim_home, "wb", victim_block)

    # -- transactions ------------------------------------------------------------------

    def _read_transaction(self, pid: int, block: int):
        """Directory read-miss: request, (forward,) data reply."""
        latency = 0
        service = 0
        home = self.space.home_of_block(block)
        if pid != home:
            latency += yield from self._net_lat(
                pid, pid, home, self._ctrl, "read_req"
            )
        home_lock = self._home_lock(block)
        yield home_lock  # kernel-resolved FIFO grant (see Resource)
        plan = self.memory.plan_read(pid, block)
        if plan.hit:  # raced with ourselves; cannot normally happen
            home_lock.release()
            return 0, self._hit_ns
        if plan.from_memory:
            service += self._mem_ns
            yield self._mem_ns
            home_lock.release()
            if home != pid:
                latency += yield from self._net_lat(
                    pid, home, pid, self._data, "data"
                )
        else:
            # Owned by a remote cache: home forwards, owner supplies.
            source = plan.source
            if home != source:
                latency += yield from self._net_lat(
                    pid, home, source, self._ctrl, "fwd"
                )
            home_lock.release()
            service += self._hit_ns
            yield self._hit_ns
            latency += yield from self._net_lat(
                pid, source, pid, self._data, "data"
            )
            if plan.sharing_writeback and source != home:
                # Illinois: the dirty owner's data also returns to the
                # home -- real traffic, off the requester's critical path.
                self._post_data(source, home, "shwb", block)
        self._post_writeback(pid, plan.writeback)
        return latency, service

    def _write_transaction(self, pid: int, block: int):
        """Directory write/ownership miss with parallel invalidations."""
        sim = self.sim
        latency = 0
        service = 0
        home = self.space.home_of_block(block)
        if pid != home:
            latency += yield from self._net_lat(
                pid, pid, home, self._ctrl, "write_req"
            )
        home_lock = self._home_lock(block)
        yield home_lock  # kernel-resolved FIFO grant (see Resource)
        plan = self.memory.plan_write(pid, block)
        if plan.fast:  # raced with ourselves; cannot normally happen
            home_lock.release()
            return 0, self._hit_ns
        # Invalidations go out in parallel with the home-side work.  The
        # previous owner (when it supplies the data) is invalidated by
        # the forwarded request itself, not a separate message.
        inv_targets = [s for s in plan.invalidated if s != plan.source]
        inv_rounds = [
            self._spawn_inv(pid, home, node) for node in inv_targets
        ]
        if not plan.had_data and plan.from_memory:
            service += self._mem_ns
            yield self._mem_ns
        elif not plan.had_data:
            source = plan.source
            if home != source:
                latency += yield from self._net_lat(
                    pid, home, source, self._ctrl, "fwd"
                )
        if inv_rounds:
            # Sequential consistency: the home releases the block only
            # after every stale copy is gone.
            yield all_of(sim, inv_rounds)
            # Contention-free the rounds overlap, so one round's worth
            # of transmission time is genuine latency; queuing beyond
            # that surfaces as contention.
            if any(node != home for node in inv_targets):
                latency += self._inv_round_latency
        home_lock.release()
        if plan.had_data:
            # Ownership upgrade: permission only, granted by the home.
            if pid != home:
                latency += yield from self._net_lat(
                    pid, home, pid, self._ctrl, "grant"
                )
        elif plan.from_memory:
            if home != pid:
                latency += yield from self._net_lat(
                    pid, home, pid, self._data, "data"
                )
        else:
            source = plan.source
            service += self._hit_ns
            yield self._hit_ns
            latency += yield from self._net_lat(
                pid, source, pid, self._data, "data"
            )
        self._post_writeback(pid, plan.writeback)
        return latency, service

    def _invalidation_round(self, pid: int, home: int, node: int):
        """Home -> sharer invalidation plus the returning ack.

        ``pid`` is the writer whose transaction required the round; its
        retry bucket absorbs any fault-recovery time the two control
        messages incur.
        """
        if home == node:
            # The home invalidates its local cache without a message.
            return
        yield from self._net_lat(pid, home, node, self._ctrl, "inv")
        yield from self._net_lat(pid, node, home, self._ctrl, "ack")

    def _spawn_inv_gen(self, pid: int, home: int, node: int):
        """Launch one invalidation round as a spawned generator."""
        return self.sim.spawn(
            self._invalidation_round(pid, home, node), name=f"inv{node}"
        )

    def _spawn_inv_flat(self, pid: int, home: int, node: int):
        """Launch one invalidation round as a flat op (plain fabric,
        flat-capable kernel).

        Two control-message legs -- inv out, ack back -- stepped by the
        kernel with no generator frame; the event timeline is identical
        to the spawned ``_invalidation_round`` (the parity tests pin
        this).  The degenerate home==node round (no messages) keeps
        the generator form so its three-event start/finish/dispatch
        sequence is preserved exactly.
        """
        if home == node:
            return self._spawn_inv_gen(pid, home, node)
        fabric = self.fabric
        routes = fabric._route_links
        nprocs = fabric._nprocs
        out = routes[home * nprocs + node]
        back = routes[node * nprocs + home]
        ctrl = self._ctrl
        tx = self._ctrl_ns
        return self.sim.flat_transmit(
            fabric, ((out, ctrl, tx), (back, ctrl, tx))
        )

    # -- plumbing -----------------------------------------------------------------------

    def mp_transmit(self, pid: int, dst: int, nbytes: int):
        """Explicit message over the real network, packetized.

        Messages larger than the 32-byte maximum (Section 5) travel as
        a train of packets over the same circuit-switched links.
        """
        if pid == dst:
            return 0, 0
        latency = 0
        remaining = nbytes
        packet = self._data
        while remaining > 0:
            size = min(packet, remaining)
            latency += yield from self._net_lat(pid, pid, dst, size, "mp")
            remaining -= size
        return latency, 0

    def _home_lock(self, block: int) -> Resource:
        lock = self._home_locks.get(block)
        if lock is None:
            lock = Resource(self.sim, capacity=1, name=f"dir{block}")
            self._home_locks[block] = lock
        return lock

    def message_count(self) -> int:
        return self.fabric.messages
