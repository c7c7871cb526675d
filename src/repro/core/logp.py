"""The LogP machine: no caches, network abstracted by L and g.

Each node holds its slice of shared memory (like the paper's reference
to the BBN Butterfly GP-1000); *every* reference to a non-local address
becomes a request/reply round trip through the
:class:`~repro.core.logp_net.LogPNetwork` -- there is no cache to absorb
reuse or spatial locality, which is exactly what the paper's
LogP-vs-CLogP comparison isolates.

Spin-based synchronization cannot sit in a cache here: a blocked
processor polls the remote word every ``poll_interval_ns``, and each
poll is two messages charged to latency overhead
(:meth:`LogPMachine.split_spin`).  Fig. 3's enormous EP latency
overhead on LogP comes from precisely this behaviour.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import SystemConfig
from ..faults.reliable import RetryPolicy
from .logp_net import LogPMessagePassing, LogPNetwork
from .machine import Machine, register_machine
from .params import derive_logp


@register_machine
class LogPMachine(LogPMessagePassing, Machine):
    """Cache-less NUMA machine over the LogP network abstraction."""

    name = "logp"

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
        self._poll_messages = 0
        # Hot-path constants (every reference asks for its home).  The
        # memo dict is shared, not copied: alloc() clears it in place.
        self._block_bytes = config.block_bytes
        self._memory_ns = config.memory_ns
        self._homes = self.space._home_cache

    # -- memory interface ---------------------------------------------------------

    def try_fast(self, pid: int, addr: int, is_write: bool) -> Optional[int]:
        home = self._homes.get(addr // self._block_bytes)
        if home is None:
            home = self.space.home_of(addr)
        if home == pid:
            return self._memory_ns
        return None

    def transact(self, pid: int, addr: int, is_write: bool):
        home = self.space.home_of(addr)
        service = self._memory_ns
        total, _, retry = self.net.round_trip_ns(pid, home, service)
        if retry:
            self.record_retry(pid, retry)
        yield total
        return self.net.round_trip_latency_ns, service

    # -- spin model ---------------------------------------------------------------

    def split_spin(self, pid: int, wait_ns: int, addr: int) -> Tuple[int, int]:
        """Blocked waits become periodic remote polls.

        A poll is a full round trip (2 messages, 2L of latency).  Waits
        on locally-homed words poll local memory and cost nothing extra.
        """
        if wait_ns <= 0 or self.space.home_of(addr) == pid:
            return 0, wait_ns
        polls = wait_ns // self.config.poll_interval_ns
        if polls <= 0:
            return 0, wait_ns
        poll_ns = polls * self.params.round_trip_ns
        if poll_ns > wait_ns:
            poll_ns = wait_ns
        self._poll_messages += 2 * polls
        return poll_ns, wait_ns - poll_ns

    def message_count(self) -> int:
        return self.net.messages + self._poll_messages
