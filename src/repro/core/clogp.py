"""The CLogP machine: LogP plus an ideal coherent cache.

This is the paper's proposed locality abstraction.  Each node has the
target machine's cache running the *same* Berkeley state machine
(:class:`~repro.core.coherence.CoherentMemory` is shared code), but the
*overheads* of coherence maintenance are not modeled:

* invalidations, acks, ownership grants and writebacks are free and
  instantaneous -- state still changes, so a subsequent read by an
  invalidated sharer misses on both machines;
* the network is touched only when a reference "cannot be satisfied by
  the cache or local memory": a miss whose data lives at a remote node
  (remote home memory, or a remote dirty owner), costing one LogP round
  trip of two full-``L`` messages.

The network traffic this machine generates is therefore the minimum any
invalidation-based protocol could hope to achieve -- the property the
paper validates by comparing its latency curves against the target's.
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from ..errors import ProtocolError
from ..faults.reliable import RetryPolicy
from .coherence import CoherentMemory
from .logp_net import LogPMessagePassing, LogPNetwork
from .machine import Machine, register_machine
from .params import derive_logp


@register_machine
class CLogPMachine(LogPMessagePassing, Machine):
    """LogP network + ideal (overhead-free) coherent caches."""

    name = "clogp"

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.params = derive_logp(config, self.topology)
        self.net = LogPNetwork(
            self.sim,
            self.params,
            per_event_type=config.g_per_event_type,
            topology=self.topology,
            adaptive=config.adaptive_g,
            injector=self.fault_injector,
            retry_policy=(
                RetryPolicy.from_fault(config.fault)
                if self.fault_injector is not None else None
            ),
            checkers=self.checkers,
        )
        self.memory = CoherentMemory(
            config, self.space, checkers=self.checkers, sim=self.sim
        )
        # Hot-path constants (attribute chains cost on every access).
        self._block_bytes = config.block_bytes
        self._hit_ns = config.cache_hit_ns
        self._memory_ns = config.memory_ns
        self._fill_ns = config.cache_hit_ns + config.memory_ns
        self._caches = self.memory.caches

    # -- memory interface ---------------------------------------------------------

    def try_fast(self, pid: int, addr: int, is_write: bool) -> Optional[int]:
        block = addr // self._block_bytes
        memory = self.memory
        cache = self._caches[pid]
        if cache.probe(block, is_write):
            return self._hit_ns
        if not is_write:
            if memory.read_source(pid, block) is not None:
                return None  # remote data: needs a round trip
            # Local fill from home memory: free of network, pays memory.
            memory.plan_read(pid, block)
            return self._fill_ns
        if memory.try_silent_upgrade(pid, block):
            cache.lookup(block)
            return self._hit_ns
        if cache.state_of(block).is_valid:
            # Ownership upgrade: data already present, invalidations are
            # coherence overhead and cost nothing here.
            memory.plan_write(pid, block)
            return self._hit_ns
        if memory.write_source(pid, block) is not None:
            return None
        memory.plan_write(pid, block)
        return self._fill_ns

    def transact(self, pid: int, addr: int, is_write: bool):
        block = addr // self._block_bytes
        if is_write:
            plan = self.memory.plan_write(pid, block)
            if plan.fast:
                raise ProtocolError("CLogP write transact on a writable line")
        else:
            plan = self.memory.plan_read(pid, block)
            if plan.hit:
                raise ProtocolError("CLogP read transact on a valid line")
        source = plan.source
        if source is None or source == pid:
            # The source moved local while we flushed pending time.
            service = self._memory_ns
            yield service
            return 0, service
        service = self._memory_ns if plan.from_memory else self._hit_ns
        total, _, retry = self.net.round_trip_ns(pid, source, service)
        if retry:
            self.record_retry(pid, retry)
        yield total
        return self.net.round_trip_latency_ns, service

    def message_count(self) -> int:
        return self.net.messages
