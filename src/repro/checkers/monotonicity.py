"""Engine-level time sanity: the clock only moves forward.

A consumer of the record stream (:class:`~repro.checkers.base.RecordStream`):
the simulated times of the executed events, in execution order, must be
non-negative and never decrease -- within a block and across block
boundaries.  That is the property every kernel can report; the
``(time, sequence)`` strictness and the at-the-schedule-site "scheduled
into the past" report of the earlier definition exist only where a
sequence number and a single scheduling primitive do (the object
kernel), and observing them kept checked runs off the kernels that
ship.  An entry scheduled into the past is still fatal everywhere: each
run loop refuses to pop an event older than its clock.
"""

from __future__ import annotations

from .base import Checker


class MonotonicityChecker(Checker):
    """Executed-event times are >= 0 and never decrease."""

    name = "monotonicity"

    def __init__(self) -> None:
        super().__init__()
        self._last = 0

    def event_times(self, block) -> None:
        last = self._last
        for at in block:
            if at < last:
                self.violation(
                    at,
                    f"negative simulated time {at}" if at < 0 else
                    f"event time regressed: t={at} executed after t={last}",
                )
            last = at
        self._last = last
        self.checks += len(block)
