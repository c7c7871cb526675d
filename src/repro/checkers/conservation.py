"""Conservation sanitizer: time and messages are never lost.

Two families of invariants, both checked at end of run:

**Time conservation.**  The SPASM overhead separation is only an
*attribution* of execution time -- it must not create or destroy any.
For every processor, the sum of its buckets (compute + memory + latency
+ contention + sync + retry) must equal its finish time exactly: the
machine models clamp every charge against the observed elapsed window,
so the reconciliation tolerance is **zero nanoseconds** (``slack_ns``
exists for experimental models that cannot yet make that guarantee).
Negative buckets are always a violation.

**Message conservation.**  Every send must be matched by exactly one
delivery or a fault-accounted loss:

* on a fault-free network no message may go undelivered,
* under fault injection, undelivered transports must not exceed the
  injector's accounted verdicts (drops + corruptions + window drops) --
  a message that vanishes without a fault verdict is a leak,
* at end of run no network resource may still be held: all fabric links
  idle with empty queues, no banked-but-uncharged retry time, and no
  processor blocked on a message that never arrived.
"""

from __future__ import annotations

from .base import Checker


class ConservationChecker(Checker):
    """Bucket/wall-time reconciliation plus send/delivery matching."""

    name = "conservation"

    def __init__(self, slack_ns: int = 0):
        super().__init__()
        #: Permitted absolute reconciliation slack per processor, ns.
        self.slack_ns = slack_ns
        #: Message transports observed (one per transmit completion).
        self.sends = 0
        self.delivered = 0
        self.undelivered = 0

    def message(self, now: int, src: int, dst: int, nbytes: int,
                delivered: bool) -> None:
        """Record-stream consumer: one transport completed."""
        self.checks += 1
        self.sends += 1
        if delivered:
            self.delivered += 1
        else:
            self.undelivered += 1

    # -- end of run ---------------------------------------------------------

    def finalize(self, machine) -> None:
        now = machine.sim.now
        self._check_buckets(machine, now)
        self._check_messages(machine, now)
        self._check_resources(machine, now)

    def _check_buckets(self, machine, now: int) -> None:
        for processor in machine.processors:
            self.checks += 1
            buckets = processor.buckets
            for name, value in buckets.as_dict().items():
                if value < 0:
                    self.violation(
                        now,
                        f"cpu{processor.pid} has negative bucket "
                        f"{name}={value}",
                    )
            drift = buckets.total_ns - processor.finish_ns
            if abs(drift) > self.slack_ns:
                self.violation(
                    now,
                    f"cpu{processor.pid} overhead buckets do not conserve "
                    f"time: sum={buckets.total_ns} ns vs finish="
                    f"{processor.finish_ns} ns (drift {drift:+d} ns, "
                    f"allowed {self.slack_ns})",
                )

    def _check_messages(self, machine, now: int) -> None:
        self.checks += 1
        if self.delivered + self.undelivered != self.sends:
            self.violation(
                now,
                f"message ledger inconsistent: {self.sends} sends != "
                f"{self.delivered} delivered + {self.undelivered} lost",
            )
        injector = getattr(machine, "fault_injector", None)
        if injector is None:
            if self.undelivered:
                self.violation(
                    now,
                    f"{self.undelivered} message(s) undelivered on a "
                    f"fault-free network",
                )
            return
        accounted = (
            injector.dropped + injector.corrupted + injector.window_drops
        )
        if self.undelivered > accounted:
            self.violation(
                now,
                f"{self.undelivered} undelivered message(s) but only "
                f"{accounted} fault-accounted loss verdict(s) "
                f"(dropped={injector.dropped}, "
                f"corrupted={injector.corrupted}, "
                f"window={injector.window_drops}): silent message loss",
            )

    def _check_resources(self, machine, now: int) -> None:
        # Banked ARQ recovery time must have been drained into buckets.
        pending = getattr(machine, "_retry_pending", None)
        if pending is not None:
            self.checks += 1
            leaked = [
                (pid, amount) for pid, amount in enumerate(pending) if amount
            ]
            if leaked:
                self.violation(
                    now,
                    f"banked retry time never charged to a bucket: {leaked}",
                )
        # Circuit-switched links must all be released.
        fabric = getattr(machine, "fabric", None)
        if fabric is not None:
            for link in fabric.links:
                self.checks += 1
                if link.in_use or link.queue_length:
                    self.violation(
                        now,
                        f"link {link.src}->{link.dst} leaked at end of run: "
                        f"in_use={link.in_use}, queued={link.queue_length}",
                    )
        # Directory serialization points must be idle.
        home_locks = getattr(machine, "_home_locks", None)
        if home_locks:
            for block, lock in home_locks.items():
                self.checks += 1
                if lock.in_use or lock.queue_length:
                    self.violation(
                        now,
                        f"directory lock of block {block} leaked: "
                        f"in_use={lock.in_use}, queued={lock.queue_length}",
                    )
        # No receiver may still be parked on an empty channel.
        waiters = getattr(machine, "_mp_waiters", None)
        if waiters is not None:
            self.checks += 1
            stuck = {key: len(events) for key, events in waiters.items()
                     if events}
            if stuck:
                self.violation(
                    now, f"receivers still blocked on channels: {stuck}"
                )
