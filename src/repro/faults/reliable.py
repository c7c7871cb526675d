"""Sender-side reliable delivery over an unreliable fabric.

A minimal ARQ protocol: every data message is acknowledged by an
8-byte-class control message; the sender retransmits after a timeout
that backs off exponentially, gives up after ``max_retries``
retransmissions with a :class:`~repro.errors.RetryLimitError`, and the
receiver suppresses duplicates (a retransmission that races a lost ack)
by per-channel sequence numbers.

Cost accounting follows the SPASM philosophy of separating overheads:
the *successful* transmission keeps its ordinary latency/contention
split, and everything else -- failed attempts, backoff waits, acks,
duplicate retransmissions, fault-injected delays and stalls -- is
reported as ``retry_ns``, which the machine models charge to the
``retry_ns`` overhead bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import RetryLimitError
from ..network.fabric import TransferResult
from ..network.message import Message


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff/cap parameters of the ARQ sender."""

    timeout_ns: int
    max_retries: int
    backoff: float

    @classmethod
    def from_fault(cls, fault) -> "RetryPolicy":
        """Derive the policy from a :class:`~repro.faults.config.FaultConfig`."""
        return cls(
            timeout_ns=fault.retry_timeout_ns,
            max_retries=fault.max_retries,
            backoff=fault.backoff,
        )

    def backoff_ns(self, failed_attempts: int) -> int:
        """Wait before the retransmission following ``failed_attempts``."""
        return int(self.timeout_ns * self.backoff ** (failed_attempts - 1))


class ReliableTransport:
    """ARQ sender over a :class:`~repro.network.fabric.Fabric`."""

    def __init__(self, fabric, injector, policy: RetryPolicy,
                 ack_bytes: int = 8, checkers=None):
        self.fabric = fabric
        self.injector = injector
        self.policy = policy
        self.ack_bytes = ack_bytes
        #: Sanitizer checkers observing the ARQ exchange lifecycle
        #: (empty tuple when unchecked).  Raw fabric messages reach
        #: the record stream from the fabric; these hooks see the *logical*
        #: send/accept/complete events the exactly-once invariant is
        #: stated over.
        self._arq_checkers = (
            checkers.arq_checkers if checkers is not None else ()
        )
        self._next_seq: Dict[Tuple[int, int], int] = {}
        #: Retransmitted data messages (instrumentation).
        self.retransmissions = 0
        #: Acks transmitted by receivers.
        self.acks_sent = 0
        #: Acks lost in the network (each forces a duplicate data send).
        self.acks_lost = 0
        #: Duplicate data deliveries suppressed by the receiver.
        self.duplicates_suppressed = 0

    def transmit(self, message: Message):
        """Generator: deliver ``message`` reliably.

        Returns a :class:`~repro.network.fabric.TransferResult` whose
        latency/contention are those of the first successful delivery
        and whose ``retry_ns`` is every other nanosecond the exchange
        took.

        :raises RetryLimitError: the retry cap was exhausted.
        """
        sim = self.fabric.sim
        policy = self.policy
        arq_checkers = self._arq_checkers
        start = sim.now
        channel = (message.src, message.dst)
        self._next_seq[channel] = self._next_seq.get(channel, 0) + 1
        delivered = False
        base_latency = 0
        base_contention = 0
        failed_attempts = 0
        for checker in arq_checkers:
            checker.on_logical_send(start, message.src, message.dst)
        while True:
            result = yield from self.fabric.transmit(message)
            if result.delivered:
                for checker in arq_checkers:
                    checker.on_app_delivery(
                        sim.now, message.src, message.dst, delivered
                    )
                if delivered:
                    # A retransmission racing a lost ack: the receiver
                    # recognizes the sequence number and discards it.
                    self.duplicates_suppressed += 1
                else:
                    delivered = True
                    base_latency = result.latency_ns
                    base_contention = result.contention_ns
                # The receiver (re-)acks every intact copy it sees.
                ack = Message(
                    message.dst, message.src, self.ack_bytes, "ack"
                )
                ack_result = yield from self.fabric.transmit(ack)
                self.acks_sent += 1
                if ack_result.delivered:
                    for checker in arq_checkers:
                        checker.on_logical_complete(
                            sim.now, message.src, message.dst
                        )
                    break
                self.acks_lost += 1
            failed_attempts += 1
            if failed_attempts > policy.max_retries:
                raise RetryLimitError(
                    message.src, message.dst, failed_attempts, sim.now
                )
            self.retransmissions += 1
            yield policy.backoff_ns(failed_attempts)
        elapsed = sim.now - start
        retry_ns = max(0, elapsed - base_latency - base_contention)
        return TransferResult(
            latency_ns=base_latency,
            contention_ns=base_contention,
            retry_ns=retry_ns,
            attempts=failed_attempts + 1,
        )
