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

The records name only what every kernel knows, which is why this is a
consumer of the record stream (:class:`~repro.checkers.base.RecordStream`,
fed natively by every kernel's run loop and every message-completion
site) rather than a hash of kernel objects: a ``digest=True`` run
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

from .base import Checker

_pack_message = struct.Struct("<5q").pack


class DeterminismChecker(Checker):
    """Order-sensitive hash of the event-time and message records.

    ``checks`` counts records (events plus messages) and is exact once
    the stream is flushed, which ``Simulator.state_digest`` and
    ``CheckerSet.finalize`` both do.
    """

    name = "determinism"

    def __init__(self) -> None:
        super().__init__()
        self._event_hash = hashlib.blake2b(digest_size=16)
        self._message_hash = hashlib.blake2b(digest_size=16)

    def event_times(self, block: array) -> None:
        self.checks += len(block)
        if sys.byteorder == "big":  # pragma: no cover - no such CI host
            block = array("q", block)  # the block is shared: swap a copy
            block.byteswap()
        self._event_hash.update(block)

    def message(self, now: int, src: int, dst: int, nbytes: int,
                delivered: bool) -> None:
        self.checks += 1
        self._message_hash.update(
            _pack_message(now, src, dst, nbytes, delivered)
        )

    def state_digest(self) -> str:
        """Hex digest of the records consumed so far."""
        return hashlib.blake2b(
            self._event_hash.digest() + self._message_hash.digest(),
            digest_size=16,
        ).hexdigest()
