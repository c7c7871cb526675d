"""Sanitizer framework: the Checker protocol and the CheckReport.

The simulator's correctness argument rests on invariants the models
maintain implicitly -- coherence keeps a single writer, the SPASM
buckets conserve time, the event heap never regresses, equal seeds give
equal executions, ARQ recovery delivers exactly once.  A *checker* is a
passive observer that verifies one such invariant at runtime.  Checkers
never schedule events, never draw randomness and never mutate simulator
state, so a checked run is bit-identical to an unchecked one; the only
cost is the observation itself.

Observation points
------------------
*The record stream* (:class:`RecordStream`) is the one engine- and
network-level channel.  Every kernel's run loop reports the simulated
time of each executed event to it and every message-completion site
(fabric transfers, the kernels' flat settle sites, the LogP network)
reports ``(completion time, src, dst, nbytes, delivered)``.  The stream
buffers event times and hands them on a block at a time, so the compiled
loop can collect them without entering the interpreter.  A checker
consumes the stream by defining either or both of

``event_times(block)``
    one ``array('q')`` block of executed-event times, in execution order,
``message(now, src, dst, nbytes, delivered)``
    one network message finished transport.

The records name only what every kernel knows, so attaching a consumer
neither selects a kernel nor takes the fabric off its plain path: a
checked run executes exactly the code an unchecked one does.

*Model hooks* are the no-op methods on :class:`Checker` that the machine
models call:

``on_transition(memory, pid, block, now)``
    a coherence state transition touched ``block`` (cached machines),
``on_logical_send / on_app_delivery / on_logical_complete``
    ARQ lifecycle of one reliably-delivered logical message,
``finalize(machine)``
    the run completed; end-of-run invariants go here.

:class:`CheckerSet` groups the active checkers and pre-resolves, per
model hook, the subset that actually overrides it -- hook sites hold a
tuple that is empty (and therefore falsy, one branch) when no checker
cares.

A violated invariant raises :class:`~repro.errors.InvariantError` when
it is observed (event times: when their block is handed over), carrying
the checker name, the simulated time, and the offending state.  A clean run aggregates per-checker statistics into a
:class:`CheckReport` embedded in run results and sweep checkpoints.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import InvariantError

#: Sanitizer levels accepted by ``SystemConfig.check`` / CLI ``--check``.
CHECK_LEVELS = ("off", "basic", "strict")


class Checker:
    """Base class of all sanitizer checkers (every hook is a no-op)."""

    #: Checker name used in reports and :class:`InvariantError`.
    name = "checker"

    def __init__(self) -> None:
        #: Individual invariant evaluations performed.
        self.checks = 0
        #: Violations detected (a violation also raises, so this is
        #: nonzero only in the instant before the raise propagates).
        self.violations = 0

    # -- violation helper ---------------------------------------------------

    def violation(self, now: int, detail: str) -> None:
        """Record and raise an :class:`InvariantError`."""
        self.violations += 1
        raise InvariantError(self.name, now, detail)

    # -- hooks (all optional) -----------------------------------------------

    def on_transition(self, memory, pid: int, block: int, now: int) -> None:
        """A coherence transition touched ``block``."""

    def on_logical_send(self, now: int, src: int, dst: int) -> None:
        """An ARQ logical message entered the reliable-delivery layer."""

    def on_app_delivery(self, now: int, src: int, dst: int,
                        duplicate: bool) -> None:
        """The receiver saw an intact copy (``duplicate``: suppressed)."""

    def on_logical_complete(self, now: int, src: int, dst: int) -> None:
        """An ARQ logical message was delivered and acknowledged."""

    def finalize(self, machine) -> None:
        """End-of-run invariants; called once after the run completes."""

    # -- reporting ----------------------------------------------------------

    def result(self) -> "CheckerResult":
        return CheckerResult(
            name=self.name, checks=self.checks, violations=self.violations
        )


@dataclass
class CheckerResult:
    """Statistics of one checker over one run."""

    name: str
    checks: int
    violations: int = 0

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "checks": int(self.checks),
            "violations": int(self.violations),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CheckerResult":
        return cls(
            name=data["name"],
            checks=int(data["checks"]),
            violations=int(data.get("violations", 0)),
        )


@dataclass
class CheckReport:
    """Aggregated sanitizer outcome of one completed run."""

    #: The ``--check`` level the run used.
    level: str
    results: List[CheckerResult] = field(default_factory=list)
    #: Hex state digest, when a determinism checker was attached.
    digest: Optional[str] = None

    @property
    def ok(self) -> bool:
        return all(result.violations == 0 for result in self.results)

    @property
    def total_checks(self) -> int:
        return sum(result.checks for result in self.results)

    def to_dict(self) -> Dict:
        return {
            "level": self.level,
            "results": [result.to_dict() for result in self.results],
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CheckReport":
        return cls(
            level=data["level"],
            results=[CheckerResult.from_dict(r) for r in data["results"]],
            digest=data.get("digest"),
        )

    def summary(self) -> str:
        checkers = ", ".join(
            f"{result.name}={result.checks}" for result in self.results
        )
        line = (
            f"sanitizer level={self.level}: {self.total_checks} checks "
            f"({checkers}) {'ok' if self.ok else 'VIOLATED'}"
        )
        if self.digest is not None:
            line += f" digest={self.digest}"
        return line


def _overrides(checker: Checker, hook: str) -> bool:
    """True when the checker's class overrides the named hook (a
    duck-typed checker without the attribute does not)."""
    base = getattr(Checker, hook)
    return getattr(type(checker), hook, base) is not base


#: Pending event times are handed to the consumers once this many are
#: buffered, which bounds the stream's memory whatever the run length.
FLUSH_RECORDS = 1 << 13


class RecordStream:
    """Owner of the record stream of one simulator (see module docstring).

    The simulator holds it (``sim._stream``, None when no attached
    checker consumes records) and the network models take their sink
    from there, so the kernels and the message-completion sites feed
    one stream.  Feeders call :meth:`event` (the Python run loops, one
    time per executed event), :meth:`feed_times` (the compiled loop's
    buffer) and :meth:`message`; :meth:`flush` hands over what is still
    pending, after which every consumer's ``checks`` count is exact.
    """

    def __init__(self, checkers: Sequence[Checker]):
        self._times: List[int] = []
        self._time_sinks = tuple(
            c.event_times for c in checkers if hasattr(c, "event_times")
        )
        self._message_sinks = tuple(
            c.message for c in checkers if hasattr(c, "message")
        )
        #: ``message(now, src, dst, nbytes, delivered)``: one network
        #: message finished transport at ``now``.  A sole consumer
        #: (digest-only and ``basic`` runs) is called directly.
        self.message = (
            self._message_sinks[0] if len(self._message_sinks) == 1
            else self._fan_out
        )
        self._hasher = next(
            (c for c in checkers if hasattr(c, "state_digest")), None
        )

    @classmethod
    def of(cls, checkers: Sequence[Checker]) -> Optional["RecordStream"]:
        """A stream feeding the record consumers among ``checkers``, or
        None when there are none (feeders then pay one ``None`` test)."""
        stream = cls(checkers)
        if stream._time_sinks or stream._message_sinks:
            return stream
        return None

    def event(self, at: int) -> None:
        """One engine event executed at simulated time ``at``."""
        times = self._times
        times.append(at)
        if len(times) >= FLUSH_RECORDS:
            self.flush()

    def feed_times(self, raw: bytes) -> None:
        """Event records straight from the compiled loop's buffer:
        ``raw`` holds one native int64 time per executed event."""
        self.flush()
        block = array("q")
        block.frombytes(raw)
        self._emit(block)

    def _fan_out(self, now: int, src: int, dst: int, nbytes: int,
                 delivered: bool) -> None:
        for sink in self._message_sinks:
            sink(now, src, dst, nbytes, delivered)

    def flush(self) -> None:
        """Hand the pending event times to the consumers."""
        times = self._times
        if times:
            block = array("q", times)
            # Emptied first: a consumer that raises must not see the
            # block again on the next flush.
            del times[:]
            self._emit(block)

    def _emit(self, block: array) -> None:
        for sink in self._time_sinks:
            sink(block)

    def state_digest(self) -> Optional[str]:
        """Digest of everything fed so far, or None when no consumer
        hashes the stream."""
        self.flush()
        if self._hasher is None:
            return None
        return self._hasher.state_digest()


class CheckerSet:
    """The active checkers of one machine, with per-hook dispatch lists.

    Model hook sites store the relevant tuple directly (e.g. the
    coherent memory keeps ``checkers.transition_hooks``); with no
    interested checker the tuple is empty and the site pays a single
    truthiness branch.  The record consumers among the checkers are fed
    by the simulator's :class:`RecordStream`, not from here.
    """

    def __init__(self, level: str, checkers: Sequence[Checker]):
        self.level = level
        self.checkers = tuple(checkers)
        self.transition_hooks = tuple(
            c.on_transition for c in self.checkers
            if _overrides(c, "on_transition")
        )
        #: Checkers that follow the ARQ logical-message lifecycle.
        self.arq_checkers = tuple(
            c for c in self.checkers
            if _overrides(c, "on_logical_send")
            or _overrides(c, "on_app_delivery")
            or _overrides(c, "on_logical_complete")
        )

    def __bool__(self) -> bool:
        return bool(self.checkers)

    def __iter__(self):
        return iter(self.checkers)

    def finalize(self, machine) -> CheckReport:
        """Run end-of-run checks and aggregate the report.

        :raises InvariantError: an invariant is violated -- by a record
            still pending in the stream, or at end of run.
        """
        stream = machine.sim._stream
        if stream is not None:
            stream.flush()
        for checker in self.checkers:
            checker.finalize(machine)
        return CheckReport(
            level=self.level,
            results=[checker.result() for checker in self.checkers],
            digest=machine.sim.state_digest(),
        )
