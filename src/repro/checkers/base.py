"""Sanitizer framework: the Checker protocol and the CheckReport.

The simulator's correctness argument rests on invariants the models
maintain implicitly -- coherence keeps a single writer, the SPASM
buckets conserve time, the event heap never regresses, equal seeds give
equal executions, ARQ recovery delivers exactly once.  A *checker* is a
passive observer that verifies one such invariant at runtime.  Checkers
never schedule events, never draw randomness and never mutate simulator
state, so an instrumented run is bit-identical to an unchecked one; the
only cost is the observation itself.

Hook points
-----------
Checkers override any subset of the no-op hooks on :class:`Checker`:

``on_event(at, seq, action)``
    one engine scheduler step is about to execute (engine level),
``on_schedule(at, now)``
    an action was scheduled for simulated time ``at`` while the clock
    reads ``now`` (engine level),
``on_message(now, src, dst, kind, nbytes, delivered)``
    one network message finished transport (fabric and LogP network),
``on_transition(memory, pid, block, now)``
    a coherence state transition touched ``block`` (cached machines),
``on_logical_send / on_app_delivery / on_logical_complete``
    ARQ lifecycle of one reliably-delivered logical message,
``finalize(machine)``
    the run completed; end-of-run invariants go here.

:class:`CheckerSet` groups the active checkers and pre-resolves, per
hook, the subset that actually overrides it -- hook sites hold a tuple
that is empty (and therefore falsy, one branch) when no checker cares.

The determinism digest (:mod:`repro.checkers.determinism`) is fed
outside this hook protocol: every kernel's event loop and every
message-completion site hands it kernel-independent records directly,
so attaching it neither selects the object kernel (only ``on_event`` /
``on_schedule`` hooks do) nor takes the fabric off its plain path (only
``on_message`` hooks do).

A violated invariant raises :class:`~repro.errors.InvariantError`
immediately, carrying the checker name, the simulated time, and the
offending state.  A clean run aggregates per-checker statistics into a
:class:`CheckReport` embedded in run results and sweep checkpoints.
"""

from __future__ import annotations

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

    def on_event(self, at: int, seq: int, action) -> None:
        """One engine scheduler step about to execute."""

    def on_schedule(self, at: int, now: int) -> None:
        """An action was scheduled at ``at`` while the clock reads ``now``."""

    def on_message(self, now: int, src: int, dst: int, kind: str,
                   nbytes: int, delivered: bool) -> None:
        """One network message finished transport."""

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


def hook_methods(checkers: Sequence[Checker], hook: str) -> tuple:
    """The bound ``hook`` methods of the checkers that override it.

    Shared by :class:`CheckerSet`, the object kernel (which dispatches
    ``on_event`` / ``on_schedule``) and kernel selection: a checker
    overriding either of those two is what makes
    :func:`repro.engine.make_simulator` pick the object kernel.
    """
    return tuple(
        getattr(checker, hook) for checker in checkers
        if _overrides(checker, hook)
    )


def find_determinism(checkers: Sequence[Checker]) -> Optional[Checker]:
    """The determinism-digest checker (the one exposing
    ``state_digest``) among ``checkers``, or None."""
    return next((c for c in checkers if hasattr(c, "state_digest")), None)


class CheckerSet:
    """The active checkers of one machine, with per-hook dispatch lists.

    Hook sites store the relevant tuple directly (e.g. the fabric keeps
    ``checkers.message_hooks``); with no interested checker the tuple is
    empty and the site pays a single truthiness branch.
    """

    def __init__(self, level: str, checkers: Sequence[Checker]):
        self.level = level
        self.checkers = tuple(checkers)
        self.event_hooks = hook_methods(self.checkers, "on_event")
        self.schedule_hooks = hook_methods(self.checkers, "on_schedule")
        self.message_hooks = hook_methods(self.checkers, "on_message")
        self.transition_hooks = hook_methods(self.checkers, "on_transition")
        #: Checkers that follow the ARQ logical-message lifecycle.
        self.arq_checkers = tuple(
            c for c in self.checkers
            if _overrides(c, "on_logical_send")
            or _overrides(c, "on_app_delivery")
            or _overrides(c, "on_logical_complete")
        )
        #: The determinism-digest checker, or None.  It installs no
        #: hook: the simulator holds it too, and the kernels and
        #: message-completion sites feed it directly.
        self.determinism = find_determinism(self.checkers)

    def __bool__(self) -> bool:
        return bool(self.checkers)

    def __iter__(self):
        return iter(self.checkers)

    def state_digest(self) -> Optional[str]:
        """Digest from the attached determinism checker, if any."""
        if self.determinism is None:
            return None
        return self.determinism.state_digest()

    def finalize(self, machine) -> CheckReport:
        """Run end-of-run checks and aggregate the report.

        :raises InvariantError: an end-of-run invariant is violated.
        """
        for checker in self.checkers:
            checker.finalize(machine)
        return CheckReport(
            level=self.level,
            results=[checker.result() for checker in self.checkers],
            digest=self.state_digest(),
        )
