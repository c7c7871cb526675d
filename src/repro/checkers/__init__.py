"""Runtime sanitizer subsystem: pluggable simulation invariant checkers.

The paper's whole argument rests on trusting the simulator, so the
machines can run with a set of passive *checkers* that verify global
invariants while the simulation executes -- coherence SWMR, overhead
conservation, event-time monotonicity, determinism digests, and
exactly-once ARQ delivery.  See :mod:`repro.checkers.base` for how they
observe a run (one kernel-independent record stream plus model hooks).

Enable via ``SystemConfig(check="basic"|"strict")`` (CLI ``--check``),
or attach just the determinism digest with ``SystemConfig(digest=True)``
(CLI ``--digest``).  With ``check="off"`` no checker is constructed and
every observation site reduces to a single falsy branch, keeping
unchecked runs bit-identical to (and within noise of) pre-sanitizer
behaviour.  At every level the run executes on the selected kernel.
"""

from __future__ import annotations

from typing import Optional

from .base import CHECK_LEVELS, Checker, CheckerResult, CheckerSet, CheckReport, RecordStream
from .coherence import CoherenceChecker
from .conservation import ConservationChecker
from .determinism import DeterminismChecker
from .exactly_once import ExactlyOnceChecker
from .monotonicity import MonotonicityChecker

__all__ = [
    "CHECK_LEVELS",
    "Checker",
    "CheckerResult",
    "CheckerSet",
    "CheckReport",
    "CoherenceChecker",
    "ConservationChecker",
    "DeterminismChecker",
    "ExactlyOnceChecker",
    "MonotonicityChecker",
    "RecordStream",
    "make_checkers",
]


def make_checkers(config) -> Optional[CheckerSet]:
    """Build the checker set a :class:`~repro.config.SystemConfig` asks for.

    Returns None when nothing is enabled, so machines and observation
    sites can skip every sanitizer branch on the fast path.

    * ``basic``: per-block coherence checks, monotonicity, conservation,
      exactly-once ARQ accounting.
    * ``strict``: the same plus the global coherence sweep after every
      transition and the determinism digest.
    * ``digest=True`` attaches the determinism checker at any level,
      including ``off`` (observation only -- the digest never perturbs
      the run).
    """
    level = config.check
    checkers = []
    if level != "off":
        checkers.append(MonotonicityChecker())
        checkers.append(CoherenceChecker(full=(level == "strict")))
        checkers.append(ConservationChecker())
        checkers.append(ExactlyOnceChecker())
    if config.digest or level == "strict":
        checkers.append(DeterminismChecker())
    if not checkers:
        return None
    return CheckerSet(level, checkers)
