"""On-disk content-addressed result cache: the ResultStore.

Entries are keyed by :meth:`~repro.runspec.RunSpec.spec_digest` and
live at ``<root>/<digest[:2]>/<digest>.json``; each entry carries a
schema version, the digest it claims to be, the full serialized spec
(for auditing -- the digest alone is not human-readable), the
serialized :class:`~repro.core.accounting.RunResult`, and a BLAKE2b
*content checksum* over the canonical JSON of everything else.

Durability and integrity:

* writes are atomic: a unique temp file is flushed, fsynced, then
  renamed over the final path, so a crash leaves either the old entry
  or the new one, never a torn file;
* reads validate schema version, content checksum, and digest; an
  unreadable, truncated, bit-flipped, or mismatched entry is
  *quarantined* (renamed aside with a ``.quarantined`` suffix) and
  reported as a miss, so one corrupt file costs exactly one
  re-simulation -- it can never poison results;
* entries written under a different schema version are plain misses
  (overwritten on the next ``put``), not corruption;
* :meth:`ResultStore.verify` audits the whole store eagerly (``repro
  cache verify``) instead of waiting for a lookup to stumble over rot,
  and with ``repair=True`` re-simulates every corrupt entry whose
  embedded spec is still recoverable.

Caching is sound because a run is a pure function of its spec: the
determinism checker's golden digests (PR 2) gate exactly the property
that equal specs produce bit-identical results.  The one exception is
``wall_seconds``, a host-side measurement: a cached result reports the
wall time of the run that produced it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.accounting import RunResult
from ..runspec import RunSpec, canonical_json

#: Entry schema version.  Bump when the entry layout changes; stale
#: entries then read as misses and are overwritten in place.
#: Version 2 added the per-entry content checksum.  Version 3 marks
#: the redefinition of ``check_report.digest`` over the
#: kernel-independent record stream (same layout, new meaning): an
#: older entry must not answer a ``digest=True`` spec.  Version 4 marks
#: checked runs executing on the selected kernel: an older
#: ``check != off`` entry reports ``engine.kernel = "object"`` and a
#: monotonicity count of events + schedules, which no fresh run produces.
STORE_SCHEMA = 4

#: Suffix given to corrupt entries moved out of the cache's way.
QUARANTINE_SUFFIX = ".quarantined"

#: Process-wide counter making temp names unique *within* a process:
#: two tasks/threads racing ``put()`` of the same digest must never
#: share a temp file, or one would rename the other's half-written
#: bytes into place.  Cross-process uniqueness comes from the PID.
_TMP_SEQ = itertools.count()


def entry_checksum(payload: Dict) -> str:
    """BLAKE2b over the canonical JSON of the payload sans checksum.

    Canonical JSON (sorted keys, minimal separators) makes the checksum
    representation-independent: it survives a JSON round trip, so the
    reader can recompute it from the parsed entry.
    """
    body = {key: value for key, value in payload.items() if key != "checksum"}
    return hashlib.blake2b(
        canonical_json(body).encode("utf-8"), digest_size=16
    ).hexdigest()


@dataclass
class VerifyReport:
    """Outcome of one :meth:`ResultStore.verify` scan."""

    #: Entries examined (quarantined and temp files are skipped).
    scanned: int = 0
    #: Entries that validated end-to-end.
    ok: int = 0
    #: Entries written under a different schema (left in place).
    stale: int = 0
    #: Digests of corrupt entries (all were quarantined).
    corrupt: List[str] = field(default_factory=list)
    #: Digests re-simulated and rewritten (subset of ``corrupt``).
    repaired: List[str] = field(default_factory=list)
    #: Digests whose embedded spec was unrecoverable (subset of
    #: ``corrupt``; only populated when repairing).
    unrepairable: List[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when the store holds no unrepaired corruption."""
        return len(self.corrupt) == len(self.repaired)

    def summary(self) -> str:
        parts = [
            f"scanned {self.scanned} entr{'y' if self.scanned == 1 else 'ies'}",
            f"{self.ok} ok",
            f"{self.stale} stale",
            f"{len(self.corrupt)} corrupt",
        ]
        if self.repaired:
            parts.append(f"{len(self.repaired)} repaired")
        if self.unrepairable:
            parts.append(f"{len(self.unrepairable)} unrepairable")
        return "result store verify: " + ", ".join(parts)


@dataclass
class GcReport:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    #: Size budget the pass enforced.
    max_bytes: int
    #: Store size before the pass (live + quarantined + orphan temp).
    before_bytes: int = 0
    #: Store size after the pass.
    after_bytes: int = 0
    #: Live entries evicted (LRU by mtime).
    evicted: int = 0
    #: Bytes reclaimed from live entries.
    evicted_bytes: int = 0
    #: Quarantine files removed (always reclaimed first).
    quarantine_removed: int = 0
    #: Orphaned temp files from dead writers removed.
    tmp_removed: int = 0
    #: Live entries surviving the pass.
    kept: int = 0

    @property
    def within_budget(self) -> bool:
        return self.after_bytes <= self.max_bytes

    def summary(self) -> str:
        return (
            f"result store gc: {self.before_bytes} -> {self.after_bytes} "
            f"bytes (budget {self.max_bytes}); evicted {self.evicted} "
            f"entr{'y' if self.evicted == 1 else 'ies'} "
            f"({self.evicted_bytes} bytes), removed "
            f"{self.quarantine_removed} quarantined and "
            f"{self.tmp_removed} temp file(s), kept {self.kept}"
        )


class ResultStore:
    """Content-addressed on-disk cache of completed run results."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        #: Entries served from disk.
        self.hits = 0
        #: Lookups that found no usable entry.
        self.misses = 0
        #: Entries written.
        self.stores = 0
        #: Corrupt entries moved aside.
        self.quarantined = 0

    def _entry_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is never read again."""
        target = path.with_name(path.name + QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing cleaner/permissions
            pass
        self.quarantined += 1

    # -- validation ----------------------------------------------------------

    @staticmethod
    def _read_entry(
        path: Path, digest: str
    ) -> Tuple[Optional[Dict], Optional[RunResult], Optional[str]]:
        """Parse and validate one entry file.

        Returns ``(data, result, problem)`` where ``problem`` is None
        for a valid entry, ``"missing"``, ``"stale"`` (foreign schema,
        not corruption), or ``"corrupt"``.  ``data`` is whatever JSON
        parsed, even for corrupt entries -- repair mines it for a
        recoverable spec.
        """
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None, None, "missing"
        except (OSError, UnicodeDecodeError):
            return None, None, "corrupt"
        try:
            data = json.loads(raw)
        except json.JSONDecodeError:
            return None, None, "corrupt"
        if not isinstance(data, dict):
            return None, None, "corrupt"
        if data.get("schema") != STORE_SCHEMA:
            # A different (older/newer) store version: a legitimate
            # miss, not corruption; ``put`` will overwrite it.
            return data, None, "stale"
        if data.get("checksum") != entry_checksum(data):
            return data, None, "corrupt"
        if data.get("spec_digest") != digest:
            return data, None, "corrupt"
        try:
            result = RunResult.from_dict(data["result"])
        except (KeyError, TypeError, ValueError):
            return data, None, "corrupt"
        return data, result, None

    @staticmethod
    def _recover_spec(data: Optional[Dict], digest: str) -> Optional[RunSpec]:
        """The embedded spec of a damaged entry, if still trustworthy.

        Recovery demands the spec re-hash to the entry's own digest, so
        a corrupt entry can only ever be repaired into the result it
        was supposed to hold.
        """
        if not isinstance(data, dict):
            return None
        try:
            spec = RunSpec.from_dict(data.get("spec"))
        except Exception:
            return None
        if spec.spec_digest() != digest:
            return None
        return spec

    # -- lookups -------------------------------------------------------------

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """The cached result of ``spec``, or None.

        Never raises on bad cache contents: anything unusable is
        quarantined and treated as a miss.
        """
        digest = spec.spec_digest()
        path = self._entry_path(digest)
        _data, result, problem = self._read_entry(path, digest)
        if problem is None:
            self.hits += 1
            try:
                # Refresh the mtime so gc's LRU eviction sees recency
                # of *use*, not of the original write.
                os.utime(path)
            except OSError:  # pragma: no cover - raced eviction
                pass
            return result
        if problem == "corrupt":
            self._quarantine(path)
        self.misses += 1
        return None

    # -- writes --------------------------------------------------------------

    def put(self, spec: RunSpec, result: RunResult) -> None:
        """Persist one completed result (atomic fsync-then-rename).

        Safe under concurrent writers: every ``put`` -- from racing
        tasks in one process or racing server processes sharing the
        cache directory -- writes its *own* (pid, sequence)-unique temp
        file, fsyncs it, and renames it into place.  ``os.replace`` is
        atomic, so the losing writer of a race simply has its complete,
        byte-equivalent entry overwritten by another complete entry;
        nothing ever interleaves, and the loss is silent by design
        (results are a pure function of the spec, so both writers held
        the same payload).  A writer that dies mid-write leaves only
        its own temp file, which gc sweeps up later.
        """
        digest = spec.spec_digest()
        path = self._entry_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict = {
            "schema": STORE_SCHEMA,
            "spec_digest": digest,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        payload["checksum"] = entry_checksum(payload)
        tmp = path.with_name(
            f".{digest}.{os.getpid()}.{next(_TMP_SEQ)}.tmp"
        )
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._fsync_dir(path.parent)
        self.stores += 1

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Best-effort fsync of a directory, making renames durable."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fs without dir fsync
            pass
        finally:
            os.close(fd)

    # -- integrity audit -----------------------------------------------------

    def entry_paths(self) -> List[Path]:
        """Every live entry file, sorted for deterministic scans."""
        if not self.root.is_dir():
            return []
        return sorted(
            path for path in self.root.glob("*/*.json")
            if not path.name.startswith(".")
        )

    def quarantined_paths(self) -> List[Path]:
        """Entries moved aside by earlier reads or verify scans."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*.json{QUARANTINE_SUFFIX}"))

    def verify(self, repair: bool = False, simulate=None) -> VerifyReport:
        """Audit every entry; quarantine (and optionally heal) rot.

        Each entry is re-validated end-to-end (parse, schema, content
        checksum, digest, result shape).  Corrupt entries are
        quarantined; with ``repair=True`` each one whose embedded spec
        still re-hashes to the entry's digest is re-simulated and
        rewritten, so the store comes back bit-identical (the
        determinism contract) minus only entries damaged beyond spec
        recovery.  Repair also revisits entries *already* quarantined
        by earlier reads or verify-only scans, so ``verify`` followed by
        ``verify --repair`` heals everything a single ``--repair`` pass
        would have.  Quarantine files are kept as forensic evidence
        (their digest now has a healthy live entry, so later scans skip
        them).  ``simulate`` overrides the simulation entry point
        (tests); it takes a :class:`RunSpec` and returns a
        :class:`RunResult`.
        """
        if simulate is None:
            from ..core.runner import simulate_spec as simulate
        report = VerifyReport()
        stash = self.quarantined_paths() if repair else []
        live = set()
        for path in self.entry_paths():
            digest = path.stem
            live.add(digest)
            data, _result, problem = self._read_entry(path, digest)
            report.scanned += 1
            if problem is None:
                report.ok += 1
                continue
            if problem == "stale":
                report.stale += 1
                continue
            self._quarantine(path)
            report.corrupt.append(digest)
            if not repair:
                continue
            spec = self._recover_spec(data, digest)
            if spec is None:
                report.unrepairable.append(digest)
                continue
            self.put(spec, simulate(spec))
            report.repaired.append(digest)
        for path in stash:
            # "<digest>.json.quarantined" -> "<digest>".
            digest = Path(path.stem).stem
            if digest in live:
                continue  # a healthy entry superseded this quarantine
            report.scanned += 1
            report.corrupt.append(digest)
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                data = None
            spec = self._recover_spec(data, digest)
            if spec is None:
                report.unrepairable.append(digest)
                continue
            self.put(spec, simulate(spec))
            report.repaired.append(digest)
        return report

    # -- size bounding -------------------------------------------------------

    def tmp_paths(self) -> List[Path]:
        """Leftover temp files of writers that died mid-``put``."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/.*.tmp"))

    def size_bytes(self) -> int:
        """Total bytes held: live entries, quarantine, orphan temps."""
        total = 0
        for path in (
            self.entry_paths() + self.quarantined_paths() + self.tmp_paths()
        ):
            try:
                total += path.stat().st_size
            except OSError:  # noqa: PERF203  # pragma: no cover
                pass
        return total

    def gc(self, max_bytes: int) -> GcReport:
        """Bound the store to ``max_bytes`` (LRU-by-mtime eviction).

        Reclamation order: orphaned temp files and quarantine stashes
        go unconditionally (they serve no lookup), then live entries
        are evicted oldest-``mtime`` first until the store fits the
        budget.  ``get`` refreshes an entry's mtime on every hit, so
        mtime order is true recency-of-use -- a long-lived daemon keeps
        its hot set and sheds the cold tail.  Evicting a live entry
        only costs one re-simulation on the next miss; it can never
        lose information.
        """
        report = GcReport(max_bytes=max_bytes)
        overhead = 0
        for kind, paths in (
            ("tmp", self.tmp_paths()),
            ("quarantine", self.quarantined_paths()),
        ):
            for path in paths:
                try:
                    size = path.stat().st_size
                    os.unlink(path)
                except OSError:  # noqa: PERF203  # pragma: no cover
                    continue
                overhead += size
                if kind == "tmp":
                    report.tmp_removed += 1
                else:
                    report.quarantine_removed += 1
        entries: List[Tuple[float, int, Path]] = []
        for path in self.entry_paths():
            try:
                stat = path.stat()
            except OSError:  # noqa: PERF203  # pragma: no cover
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _mtime, size, _path in entries)
        report.before_bytes = total + overhead
        entries.sort(key=lambda item: (item[0], str(item[2])))
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:  # noqa: PERF203  # pragma: no cover
                continue
            total -= size
            report.evicted += 1
            report.evicted_bytes += size
        report.after_bytes = total
        report.kept = len(entries) - report.evicted
        return report

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters for instrumentation and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }

    def summary(self) -> str:
        return (
            f"result store {self.root}: {self.hits} hit(s), "
            f"{self.misses} miss(es), {self.stores} store(s), "
            f"{self.quarantined} quarantined"
        )
