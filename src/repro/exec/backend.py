"""Execution backends: serial and process-parallel spec execution.

A backend turns :class:`~repro.runspec.RunSpec`\\ s into
:class:`~repro.core.accounting.RunResult`\\ s.  Both backends share one
primitive, :func:`execute_spec`, which owns the retry/
:class:`PointFailure` semantics, so a point behaves identically no
matter where it runs:

* :class:`SerialBackend` executes specs one by one in the calling
  process -- the pre-existing behaviour, and the reference the parallel
  backend is tested against,
* :class:`ProcessPoolBackend` fans a batch out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (CLI ``--jobs N``)
  and yields points *as they complete*, so the consumer can checkpoint
  incrementally.

Because the simulator is deterministic (equal spec => equal execution,
gated by the golden digests), a worker process produces bit-identical
results and determinism digests to an in-process run -- the only field
that legitimately differs between backends is the measured
``wall_seconds``.
"""

from __future__ import annotations

import signal
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from ..core.accounting import RunResult
from ..core.runner import simulate
from ..errors import ConfigError, ReproError
from ..runspec import RunSpec
from .policy import RetryPolicy, deadline_guard


@dataclass(frozen=True)
class PointFailure:
    """Structured record of one sweep point that could not complete."""

    app: str
    machine: str
    topology: str
    nprocs: int
    #: Exception type name (e.g. ``"RetryLimitError"``).
    error: str
    #: The exception's message.
    message: str
    #: How many times the run was attempted (including retries).
    attempts: int

    def to_dict(self) -> Dict:
        return {
            "app": self.app,
            "machine": self.machine,
            "topology": self.topology,
            "nprocs": self.nprocs,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PointFailure":
        return cls(
            app=data["app"],
            machine=data["machine"],
            topology=data["topology"],
            nprocs=int(data["nprocs"]),
            error=data["error"],
            message=data["message"],
            attempts=int(data["attempts"]),
        )

    def summary(self) -> str:
        return (
            f"{self.app}/{self.machine}/{self.topology}/p={self.nprocs}: "
            f"{self.error}: {self.message} (after {self.attempts} attempt(s))"
        )


#: What executing one spec yields: the result, or a structured failure.
PointOutcome = Union[RunResult, PointFailure]


def failure_from(spec: RunSpec, exc: BaseException, attempts: int) -> PointFailure:
    """The structured failure record of ``spec`` dying with ``exc``."""
    return PointFailure(
        app=spec.app,
        machine=spec.machine,
        topology=spec.config.topology,
        nprocs=spec.config.processors,
        error=type(exc).__name__,
        message=str(exc),
        attempts=attempts,
    )


def execute_spec(
    spec: RunSpec,
    retries: int = 1,
    policy: Optional[RetryPolicy] = None,
    deadline_s: Optional[float] = None,
    before_attempt: Optional[Callable[[RunSpec, int], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> PointOutcome:
    """Execute one spec with graceful failure handling.

    A run failing with a :class:`~repro.errors.TransientError` (most
    interestingly :class:`~repro.errors.RetryLimitError` under fault
    injection, or :class:`~repro.errors.DeadlineExpiredError` from the
    deadline guard) is re-attempted per ``policy`` with a *fresh*
    application instance, sleeping the policy's deterministic backoff
    delay between attempts.  Permanent errors, and transient errors
    that exhaust the budget, are returned as a :class:`PointFailure`
    instead of raising, so the rest of a sweep continues.
    Non-simulation errors (bugs) propagate.

    ``policy`` wins over the legacy ``retries`` count; ``deadline_s``
    arms a per-attempt wall-clock deadline.  ``before_attempt`` is a
    test/chaos seam invoked inside the deadline guard, before the
    simulation, with ``(spec, attempt_number)``.
    """
    if policy is None:
        policy = RetryPolicy(max_retries=retries)
    key = spec.spec_digest()
    attempts = 0
    while True:
        attempts += 1
        app = spec.make_application()
        try:
            with deadline_guard(deadline_s):
                if before_attempt is not None:
                    before_attempt(spec, attempts)
                return simulate(
                    app, spec.machine, spec.config, max_events=spec.max_events
                )
        except ReproError as exc:  # noqa: PERF203 -- intentional retry loop
            if policy.should_retry(exc, attempts):
                delay = policy.delay_s(attempts, key)
                if delay > 0:
                    sleep(delay)
                continue
            return failure_from(spec, exc, attempts)


class ExecutionBackend:
    """Protocol of an execution backend.

    ``run`` lazily yields ``(spec, outcome)`` pairs as points complete
    (not necessarily in submission order), so callers can checkpoint
    each point the moment it finishes.  Backends may carry a
    :class:`~repro.exec.policy.RetryPolicy` and a per-point deadline;
    a policy set on the backend wins over the legacy per-call
    ``retries`` count.
    """

    #: Worker parallelism the backend provides.
    jobs: int = 1
    #: Retry policy applied to every point (None: derive from ``retries``).
    policy: Optional[RetryPolicy] = None
    #: Per-point wall-clock deadline in seconds (None: unbounded).
    deadline_s: Optional[float] = None

    def _effective_policy(self, retries: int) -> RetryPolicy:
        if self.policy is not None:
            return self.policy
        return RetryPolicy(max_retries=retries)

    def run(
        self, specs: Sequence[RunSpec], retries: int = 1
    ) -> Iterator[Tuple[RunSpec, PointOutcome]]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Executes specs one by one in the calling process."""

    name = "serial"
    jobs = 1

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        deadline_s: Optional[float] = None,
    ):
        self.policy = policy
        self.deadline_s = deadline_s

    def run(
        self, specs: Sequence[RunSpec], retries: int = 1
    ) -> Iterator[Tuple[RunSpec, PointOutcome]]:
        policy = self._effective_policy(retries)
        for spec in specs:
            yield spec, execute_spec(
                spec, policy=policy, deadline_s=self.deadline_s
            )


def _reset_worker_signals() -> None:
    """Pool-worker initializer: detach inherited signal plumbing.

    Workers are forked from a parent that may have installed signal
    handlers *and* a signal wakeup fd (``asyncio``'s
    ``add_signal_handler`` routes signals through a self-pipe).  A
    forked worker shares that very pipe, so a signal delivered to the
    worker -- e.g. the ``SIGTERM`` the executor's management thread
    sends to siblings of a crashed worker -- would be written into the
    parent's wakeup pipe and fire the *parent's* handler: a daemon
    would gracefully drain itself every time a worker died.  Workers
    do their own dying; the default dispositions are correct for them.
    """
    signal.set_wakeup_fd(-1)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, signal.SIG_DFL)


class ProcessPoolBackend(ExecutionBackend):
    """Executes batches across a pool of worker processes.

    The pool is created lazily on the first batch and reused across
    batches (an ``all`` sweep runs one batch per figure), so workers
    are forked once, not per figure.  Specs and outcomes are plain
    picklable dataclasses; the deterministic engine guarantees a worker
    computes the same result the parent would have.
    """

    name = "process"

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ConfigError(
                f"ProcessPoolBackend needs at least 2 jobs, got {jobs} "
                "(use SerialBackend / --jobs 1 for serial execution)"
            )
        self.jobs = jobs
        self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_reset_worker_signals
            )
        return self._pool

    def run(
        self, specs: Sequence[RunSpec], retries: int = 1
    ) -> Iterator[Tuple[RunSpec, PointOutcome]]:
        specs = list(specs)
        if not specs:
            return
        policy = self._effective_policy(retries)
        pool = self._ensure_pool()
        futures = {
            pool.submit(execute_spec, spec, policy=policy): spec
            for spec in specs
        }
        for future in as_completed(futures):
            yield futures[future], future.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def make_backend(
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    deadline_s: Optional[float] = None,
) -> ExecutionBackend:
    """Backend for the requested parallelism (``jobs <= 1``: serial).

    Parallel backends are *supervised*: worker death and expired
    deadlines are recovered by pool rebuilds instead of aborting the
    sweep (see :mod:`repro.exec.supervisor`).
    """
    if jobs <= 1:
        return SerialBackend(policy=policy, deadline_s=deadline_s)
    # Imported lazily: the supervisor builds on this module.
    from .supervisor import SupervisedPoolBackend

    return SupervisedPoolBackend(jobs, policy=policy, deadline_s=deadline_s)


def drain(
    pairs: Iterable[Tuple[RunSpec, PointOutcome]]
) -> Dict[str, PointOutcome]:
    """Collect a backend stream into a digest-keyed dict (test helper)."""
    return {spec.spec_digest(): outcome for spec, outcome in pairs}
