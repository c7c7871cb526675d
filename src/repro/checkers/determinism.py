"""Determinism digest: equal seeds must mean equal runs.

Every figure in the study assumes the simulator is deterministic -- the
paper's machine comparisons are meaningless if two runs of the same
configuration diverge.  The digest is a BLAKE2b-128 hash over a
*kernel-independent record stream*:

* one record per executed engine event: its simulated time, and
* one record per completed network message:
  ``(completion time, src, dst, nbytes, delivered)``.

Every record is a run of little-endian int64 words.  Event times are
hashed in execution order and message records in completion order, as
two streams whose hashes are combined at the end (every message record
carries its own time, so nothing is lost by not interleaving them).
Event times are buffered and hashed a block at a time -- there is one
per event, and the compiled loop collects them without entering the
interpreter -- while the much rarer message records go straight in.

The records name only what every kernel knows.  The earlier definition
hashed the executed callable's ``__qualname__`` and the message's
``kind`` string, which only the object kernel and the Message transfer
path have -- so asking for a digest forced the reference kernel and the
digest never saw the code ``auto`` runs.  Now every kernel feeds the
stream natively (the event loops call :meth:`DeterminismChecker.event`,
the C loop hands over buffered times through
:meth:`~DeterminismChecker.feed_times`) and every message-completion
site calls :meth:`~DeterminismChecker.message`, so a ``digest=True`` run
executes on the selected kernel, flat programs included, and all kernels
must produce the same value.

Two runs with the same seed and configuration must produce identical
digests on every machine model, topology *and kernel*; the golden
digests under ``tests/goldens/`` gate exactly that across code changes.
The digest is exposed as
:meth:`~repro.engine.core.Simulator.state_digest` and via the CLI
``--digest`` flag.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from typing import List

from .base import Checker

#: Pending event times are folded into the hash once this many are
#: buffered, which bounds the digest's memory whatever the run length.
FLUSH_RECORDS = 1 << 13

_pack_message = struct.Struct("<5q").pack


class DeterminismChecker(Checker):
    """Order-sensitive hash of the event-time and message records.

    Not a hook-installing checker: it overrides none of the ``on_*``
    hooks, so it neither selects the object kernel nor makes a fabric
    non-plain.  ``checks`` counts records (events plus messages) and is
    exact after :meth:`flush`, which :meth:`finalize` and
    :meth:`state_digest` both perform.
    """

    name = "determinism"

    def __init__(self) -> None:
        super().__init__()
        self._event_hash = hashlib.blake2b(digest_size=16)
        self._message_hash = hashlib.blake2b(digest_size=16)
        self._times: List[int] = []

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
        times = array("q")
        times.frombytes(raw)
        self._hash_times(times)

    def message(self, now: int, src: int, dst: int, nbytes: int,
                delivered: bool) -> None:
        """One network message finished transport at ``now``."""
        self.checks += 1
        self._message_hash.update(
            _pack_message(now, src, dst, nbytes, delivered)
        )

    def flush(self) -> None:
        """Fold the pending event times into the hash."""
        times = self._times
        if times:
            self._hash_times(array("q", times))
            del times[:]

    def _hash_times(self, times: array) -> None:
        self.checks += len(times)
        if sys.byteorder == "big":  # pragma: no cover - no such CI host
            times.byteswap()
        self._event_hash.update(times)

    def finalize(self, machine) -> None:
        self.flush()

    def state_digest(self) -> str:
        """Hex digest of everything observed so far."""
        self.flush()
        return hashlib.blake2b(
            self._event_hash.digest() + self._message_hash.digest(),
            digest_size=16,
        ).hexdigest()
