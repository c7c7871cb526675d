"""Abstract machine model, simulated processor, and synchronization.

A :class:`Machine` owns the discrete-event engine, the shared address
space, and the machine-specific memory semantics.  A :class:`Processor`
drives one application generator, translating each yielded operation
into machine interactions and charging the SPASM overhead buckets.

Memory interface
----------------
Machines expose a two-level memory interface tuned for simulation speed:

* :meth:`Machine.try_fast` -- attempt the access without any engine
  interaction (cache hit, local memory on LogP, everything on the ideal
  machine).  Returns the cost in ns, or None.
* :meth:`Machine.transact` -- a generator performing the access in
  simulated time; returns ``(latency_ns, service_ns)``: the
  contention-free network time and the memory-service time.  Whatever
  *else* the transaction took (link waits, g-stalls, directory
  serialization) is charged to contention by the processor.

Fast-path costs accumulate in a pending-time counter that is flushed to
the engine as a single timeout before any interaction that other
processors can observe (a transaction or a synchronization operation).
Within a run of private hits/compute the global clock therefore lags a
processor's logical clock slightly; it is exact again at every point
where cross-processor ordering matters.

Synchronization
---------------
Locks, barriers and condition flags are implemented *semantically* --
waiters block on engine events instead of literally spinning -- while
the memory traffic a test-test&set spin would generate is reproduced
through real accesses:

* a lock attempt reads the lock word (a miss brings it into the cache),
  winners write it (invalidating spinners), and every release makes all
  waiters re-read and one of them win -- the invalidation-storm traffic
  of test-test&set on the cached machines;
* a flag waiter reads once at wait start and once after the setter's
  write (which invalidated its cached copy): exactly the paper's
  "first and last accesses" behaviour for EP's condition variables;
* on the cache-less LogP machine, time spent blocked is converted into
  periodic remote polls by :meth:`Machine.split_spin`, each poll being a
  network round trip -- the behaviour that blows up EP's latency
  overhead on LogP in the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple, Type

from ..checkers import make_checkers
from ..config import SystemConfig
from ..engine import make_simulator
from ..engine.core import Event, Simulator
from ..engine.rng import RandomStreams
from ..errors import ConfigError, SimulationError
from ..faults.injector import make_injector
from ..memory.address import AddressSpace
from ..network.topology import Topology, make_topology
from . import ops
from .accounting import OverheadBuckets


@dataclass
class _LockVar:
    """State of one simulated lock."""

    addr: int
    holder: Optional[int] = None
    waiters: List[Event] = field(default_factory=list)
    acquisitions: int = 0


@dataclass
class _BarrierVar:
    """State of one simulated centralized sense-reversing barrier."""

    counter_addr: int
    flag_addr: int
    lock_key: Hashable
    count: int = 0
    generation: int = 0


@dataclass
class _FlagVar:
    """State of one condition-variable word."""

    value: int = 0
    waiters: List[Event] = field(default_factory=list)


@dataclass
class _TreeBarrierVar:
    """State of one combining-tree barrier.

    Per-node arrival and release flags, each homed on its own node, so
    barrier traffic follows parent-child edges instead of hammering a
    central counter.
    """

    arrive_addrs: List[int]
    release_addrs: List[int]
    #: Per-processor participation count (the flag generation).
    counts: List[int] = field(default_factory=list)


class Machine(ABC):
    """Base class of the four machine models."""

    #: Registry name, e.g. ``"target"``.
    name: str = "abstract"

    #: Flat-compiled twin of :meth:`transact`, or None.  Machines that
    #: can compile a miss into a kernel-stepped flat program (currently
    #: the target machine on a plain fabric under a flat-capable
    #: kernel) set this to a callable ``(pid, addr, is_write)``
    #: returning the FLAT_TX sentinel; the caller ``yield``\ s it and
    #: is resumed with the same ``(latency_ns, service_ns)`` pair the
    #: generator form returns, after the identical event sequence.
    transact_flat = None

    def __init__(self, config: SystemConfig):
        self.config = config
        self.nprocs = config.processors
        #: Sanitizer checkers, or None when ``config.check`` is off and
        #: no digest was requested -- the None case takes the exact
        #: unchecked code paths (see :mod:`repro.checkers`).
        self.checkers = make_checkers(config)
        # Kernel selection honours config.engine_kernel / REPRO_ENGINE
        # at every check level (see repro.engine.make_simulator).
        self.sim = make_simulator(
            checkers=self.checkers or (), kernel=config.engine_kernel
        )
        self.topology: Topology = make_topology(config.topology, config.processors)
        self.space = AddressSpace(config.processors, config.block_bytes)
        self.streams = RandomStreams(config.seed)
        #: Fault injector, or None when ``config.fault`` cannot inject
        #: anything -- the None case takes the exact fault-free paths.
        self.fault_injector = make_injector(
            config.fault, self.streams, topology=self.topology
        )
        # Reliable-delivery recovery time accumulated per processor
        # during the current transaction; drained by the Processor into
        # its retry_ns bucket (see Processor._access_slow).
        self._retry_pending: List[int] = [0] * config.processors
        self.processors: List["Processor"] = []
        self._locks: Dict[Hashable, _LockVar] = {}
        self._barriers: Dict[Hashable, _BarrierVar] = {}
        self._tree_barriers: Dict[Hashable, _TreeBarrierVar] = {}
        self._flags: Dict[int, _FlagVar] = {}
        self._sync_homes = 0
        # Message-passing channels: (src, dst, tag) -> buffered count,
        # plus receivers blocked on an empty channel.
        self._mp_buffered: Dict[Hashable, int] = {}
        self._mp_waiters: Dict[Hashable, List[Event]] = {}
        #: Total Send operations completed (instrumentation).
        self.mp_sends = 0

    # -- memory interface (machine specific) -----------------------------------

    @abstractmethod
    def try_fast(self, pid: int, addr: int, is_write: bool) -> Optional[int]:
        """Cost in ns if the access needs no simulated time, else None."""

    @abstractmethod
    def transact(self, pid: int, addr: int, is_write: bool):
        """Generator performing the access; returns (latency_ns, service_ns)."""

    def split_spin(self, pid: int, wait_ns: int, addr: int) -> Tuple[int, int]:
        """Split a blocked wait into (latency_ns, sync_ns).

        Default: the whole wait is synchronization time (cached machines
        spin locally; the ideal machine just waits).  The LogP machine
        overrides this to charge remote polling traffic.
        """
        return 0, wait_ns

    def message_count(self) -> int:
        """Network messages transported so far (instrumentation)."""
        return 0

    # -- fault-recovery accounting ------------------------------------------------

    def record_retry(self, pid: int, retry_ns: int) -> None:
        """Bank reliable-delivery recovery time for processor ``pid``."""
        self._retry_pending[pid] += retry_ns

    def take_retry_ns(self, pid: int) -> int:
        """Drain the banked recovery time (the Processor charges it)."""
        pending = self._retry_pending[pid]
        if pending:
            self._retry_pending[pid] = 0
        return pending

    # -- synchronization variables ------------------------------------------------

    def _alloc_sync_word(self, label: str) -> int:
        """Allocate a block-aligned shared word for a sync variable.

        Each variable gets its own cache block (no false sharing) and
        homes rotate round-robin across nodes.
        """
        home = self._sync_homes % self.nprocs
        self._sync_homes += 1
        array = self.space.alloc(
            f"__sync_{label}", 1, self.config.block_bytes, ("node", home)
        )
        return array.addr(0)

    def _lock_var(self, key: Hashable) -> _LockVar:
        var = self._locks.get(key)
        if var is None:
            var = _LockVar(addr=self._alloc_sync_word(f"lock_{key}"))
            self._locks[key] = var
        return var

    def _barrier_var(self, key: Hashable) -> _BarrierVar:
        var = self._barriers.get(key)
        if var is None:
            var = _BarrierVar(
                counter_addr=self._alloc_sync_word(f"barcnt_{key}"),
                flag_addr=self._alloc_sync_word(f"barflag_{key}"),
                lock_key=("__barrier__", key),
            )
            self._barriers[key] = var
        return var

    def _tree_barrier_var(self, key: Hashable) -> _TreeBarrierVar:
        var = self._tree_barriers.get(key)
        if var is None:
            block = self.config.block_bytes
            arrive = self.space.alloc(
                f"__sync_treebar_{key}_arrive", self.nprocs, block,
                "blocked", align_blocks_per_proc=True,
            )
            release = self.space.alloc(
                f"__sync_treebar_{key}_release", self.nprocs, block,
                "blocked", align_blocks_per_proc=True,
            )
            var = _TreeBarrierVar(
                arrive_addrs=[arrive.addr(i) for i in range(self.nprocs)],
                release_addrs=[release.addr(i) for i in range(self.nprocs)],
                counts=[0] * self.nprocs,
            )
            self._tree_barriers[key] = var
        return var

    def _flag_var(self, addr: int) -> _FlagVar:
        var = self._flags.get(addr)
        if var is None:
            var = _FlagVar()
            self._flags[addr] = var
        return var

    # -- synchronization operations --------------------------------------------------

    def op_lock(self, proc: "Processor", key: Hashable):
        """Acquire a lock with test-test&set semantics."""
        pending = proc._pending_ns
        if pending:
            proc._pending_ns = 0
            yield pending
        lock = self._lock_var(key)
        addr = lock.addr
        sim = self.sim
        transact = self.transact
        transact_flat = self.transact_flat
        retry_pending = self._retry_pending
        pid = proc.pid
        buckets = proc.buckets
        while True:
            # Test: read the lock word (may miss -> network traffic).
            # ``access_hit`` charges cache hits without a generator --
            # spins re-read a line they already cache, so the hit path
            # dominates here.
            for is_write in (False, True):
                if is_write:
                    if lock.holder is not None:
                        break
                    # Test&set wins: take the lock, then pay for the
                    # ownership-acquiring write (invalidates other
                    # copies).
                    lock.holder = pid
                    lock.acquisitions += 1
                if not proc.access_hit(addr, is_write):
                    # ``_access_slow`` inlined: the lock path is the
                    # hottest op, and every resumption of the delegated
                    # transaction walks the whole ``yield from`` chain,
                    # so one less frame here pays on every send (same
                    # trade as Processor.run's Read/Write slow path).
                    pending = proc._pending_ns
                    if pending:
                        proc._pending_ns = 0
                        yield pending
                    started = sim._now
                    if transact_flat is None:
                        latency_ns, service_ns = yield from transact(
                            pid, addr, is_write
                        )
                    else:
                        # Flat-compiled transaction: one yield instead
                        # of delegating into a generator -- the kernel
                        # makes the deferred call (natively on the
                        # compiled tier) and steps the whole miss
                        # round.
                        latency_ns, service_ns = yield (
                            transact_flat, pid, addr, is_write
                        )
                    elapsed = sim._now - started
                    if latency_ns + service_ns > elapsed:
                        latency_ns = max(0, elapsed - service_ns)
                    retry_ns = retry_pending[pid]
                    if retry_ns:
                        retry_pending[pid] = 0
                    if retry_ns > elapsed - latency_ns - service_ns:
                        retry_ns = max(0, elapsed - latency_ns - service_ns)
                    buckets.latency_ns += latency_ns
                    buckets.memory_ns += service_ns
                    buckets.retry_ns += retry_ns
                    buckets.contention_ns += (
                        elapsed - latency_ns - service_ns - retry_ns
                    )
                if is_write:
                    return
            # Busy: block until a release wakes us, then re-contend.
            event = sim.event()
            lock.waiters.append(event)
            started = sim.now
            yield event
            proc.charge_spin(sim.now - started, addr)

    def op_unlock(self, proc: "Processor", key: Hashable):
        """Release a lock, waking all spinners (invalidation storm)."""
        pending = proc._pending_ns
        if pending:
            proc._pending_ns = 0
            yield pending
        lock = self._lock_var(key)
        if lock.holder != proc.pid:
            raise SimulationError(
                f"processor {proc.pid} unlocking lock {key!r} held by "
                f"{lock.holder}"
            )
        lock.holder = None
        # The releasing store invalidates every spinner's cached copy.
        if not proc.access_hit(lock.addr, True):
            yield from proc._access_slow(lock.addr, True)
        waiters, lock.waiters = lock.waiters, []
        for event in waiters:
            event.succeed()

    def op_barrier(self, proc: "Processor", key: Hashable):
        """Global barrier; implementation chosen by ``config.barrier``."""
        if self.config.barrier == "tree":
            yield from self._op_tree_barrier(proc, key)
        else:
            yield from self._op_central_barrier(proc, key)

    def _op_tree_barrier(self, proc: "Processor", key: Hashable):
        """Binary combining-tree barrier over per-node flags.

        Arrivals combine up the tree (a parent waits for its children's
        arrival flags, then sets its own), the root flips the release
        wave, and releases propagate back down.  Every flag is homed on
        its own node, so traffic follows tree edges -- O(log p) depth
        and no central hot spot.
        """
        if proc._pending_ns:
            yield from proc.flush()
        barrier = self._tree_barrier_var(key)
        pid = proc.pid
        generation = barrier.counts[pid] + 1
        barrier.counts[pid] = generation
        left, right = 2 * pid + 1, 2 * pid + 2
        for child in (left, right):
            if child < self.nprocs:
                yield from self.op_wait_flag(
                    proc, barrier.arrive_addrs[child], generation, cmp="ge"
                )
        if pid != 0:
            yield from self.op_set_flag(
                proc, barrier.arrive_addrs[pid], generation
            )
            yield from self.op_wait_flag(
                proc, barrier.release_addrs[pid], generation, cmp="ge"
            )
        for child in (left, right):
            if child < self.nprocs:
                yield from self.op_set_flag(
                    proc, barrier.release_addrs[child], generation
                )

    def _op_central_barrier(self, proc: "Processor", key: Hashable):
        """Centralized sense-reversing barrier over all processors."""
        if proc._pending_ns:
            yield from proc.flush()
        barrier = self._barrier_var(key)
        yield from self.op_lock(proc, barrier.lock_key)
        # Fetch&increment of the arrival counter under the lock.
        if not proc.access_hit(barrier.counter_addr, False):
            yield from proc._access_slow(barrier.counter_addr, False)
        if not proc.access_hit(barrier.counter_addr, True):
            yield from proc._access_slow(barrier.counter_addr, True)
        barrier.count += 1
        arrived_generation = barrier.generation
        last = barrier.count == self.nprocs
        if last:
            barrier.count = 0
            barrier.generation += 1
        yield from self.op_unlock(proc, barrier.lock_key)
        if last:
            yield from self.op_set_flag(
                proc, barrier.flag_addr, barrier.generation
            )
        else:
            yield from self.op_wait_flag(
                proc, barrier.flag_addr, arrived_generation + 1, cmp="ge"
            )

    def op_set_flag(self, proc: "Processor", addr: int, value: int):
        """Write a condition variable and wake its waiters."""
        pending = proc._pending_ns
        if pending:
            proc._pending_ns = 0
            yield pending
        flag = self._flag_var(addr)
        # The store invalidates waiters' cached copies (on the target,
        # real invalidation traffic; on CLogP, a free transition).
        if not proc.access_hit(addr, True):
            yield from proc._access_slow(addr, True)
        flag.value = value
        waiters, flag.waiters = flag.waiters, []
        for event in waiters:
            event.succeed()

    def op_wait_flag(self, proc: "Processor", addr: int, value: int,
                     cmp: str = "ge"):
        """Spin until the condition variable satisfies the test."""
        pending = proc._pending_ns
        if pending:
            proc._pending_ns = 0
            yield pending
        flag = self._flag_var(addr)
        equality = cmp == "eq"
        while True:
            # The test read: on cached machines the first iteration may
            # miss, later iterations re-read after an invalidation.
            if not proc.access_hit(addr, False):
                yield from proc._access_slow(addr, False)
            current = flag.value
            if (current == value) if equality else (current >= value):
                return
            event = self.sim.event()
            flag.waiters.append(event)
            started = self.sim.now
            yield event
            proc.charge_spin(self.sim.now - started, addr)

    # -- message passing -------------------------------------------------------------

    def mp_transmit(self, pid: int, dst: int, nbytes: int):
        """Generator: move an explicit message; returns (latency, service).

        The base implementation (used by the ideal machine) is free --
        subclasses route through their network model.
        """
        return 0, 0
        yield  # pragma: no cover - makes this a generator

    def op_send(self, proc: "Processor", dst: int, nbytes: int, tag: int):
        """Eager send: completes when the data has reached ``dst``."""
        if not 0 <= dst < self.nprocs:
            raise SimulationError(f"send to invalid processor {dst}")
        if proc._pending_ns:
            yield from proc.flush()
        sim = self.sim
        started = sim.now
        latency_ns, service_ns = yield from self.mp_transmit(
            proc.pid, dst, nbytes
        )
        elapsed = sim.now - started
        if latency_ns + service_ns > elapsed:
            latency_ns = max(0, elapsed - service_ns)
        retry_ns = self.take_retry_ns(proc.pid)
        if retry_ns > elapsed - latency_ns - service_ns:
            retry_ns = max(0, elapsed - latency_ns - service_ns)
        proc.buckets.latency_ns += latency_ns
        proc.buckets.memory_ns += service_ns
        proc.buckets.retry_ns += retry_ns
        proc.buckets.contention_ns += (
            elapsed - latency_ns - service_ns - retry_ns
        )
        self.mp_sends += 1
        key = (proc.pid, dst, tag)
        waiters = self._mp_waiters.get(key)
        if waiters:
            waiters.pop(0).succeed()
        else:
            self._mp_buffered[key] = self._mp_buffered.get(key, 0) + 1

    def op_recv(self, proc: "Processor", src: int, tag: int):
        """Blocking receive of one message from ``src`` with ``tag``."""
        if not 0 <= src < self.nprocs:
            raise SimulationError(f"receive from invalid processor {src}")
        if proc._pending_ns:
            yield from proc.flush()
        key = (src, proc.pid, tag)
        buffered = self._mp_buffered.get(key, 0)
        if buffered:
            self._mp_buffered[key] = buffered - 1
        else:
            event = self.sim.event()
            self._mp_waiters.setdefault(key, []).append(event)
            started = self.sim.now
            yield event
            # Blocked receives idle the processor (no polling traffic:
            # arrival notification is the send itself).
            proc.buckets.sync_ns += self.sim.now - started
        # Copying the delivered message out of the buffer.
        copy_ns = self.config.memory_ns
        proc._pending_ns += copy_ns
        proc.buckets.memory_ns += copy_ns

    # -- instrumentation -----------------------------------------------------------

    def lock_acquisitions(self) -> int:
        """Total successful lock acquisitions across all locks."""
        return sum(lock.acquisitions for lock in self._locks.values())

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} p={self.nprocs} "
            f"topology={self.config.topology}>"
        )


class Processor:
    """One simulated processor: interprets an application generator."""

    __slots__ = ("machine", "pid", "buckets", "_pending_ns", "finish_ns",
                 "_batch")

    def __init__(self, machine: Machine, pid: int):
        if not 0 <= pid < machine.nprocs:
            raise ConfigError(f"pid {pid} out of range")
        self.machine = machine
        self.pid = pid
        self.buckets = OverheadBuckets()
        self._pending_ns = 0
        self.finish_ns = 0
        self._batch = machine.config.batch_local

    # -- charging helpers ------------------------------------------------------------

    def flush(self):
        """Generator: release accumulated local time to the engine."""
        if self._pending_ns:
            delay, self._pending_ns = self._pending_ns, 0
            yield delay

    def charge_spin(self, wait_ns: int, addr: int) -> None:
        """Attribute a blocked wait per the machine's spin model."""
        latency_ns, sync_ns = self.machine.split_spin(self.pid, wait_ns, addr)
        self.buckets.latency_ns += latency_ns
        self.buckets.sync_ns += sync_ns

    # -- memory access ---------------------------------------------------------------

    def access(self, addr: int, is_write: bool):
        """Generator: one shared reference with full accounting."""
        cost = self.machine.try_fast(self.pid, addr, is_write)
        if cost is not None:
            self._pending_ns += cost
            self.buckets.memory_ns += cost
            return
        yield from self._access_slow(addr, is_write)

    def access_hit(self, addr: int, is_write: bool) -> bool:
        """Charge a fast-path hit inline; False when the access misses.

        The non-generator half of :meth:`access`: sync operations call
        this first so the (dominant) cache-hit case costs no generator
        allocation, and fall through to :meth:`_access_slow` on a miss.
        """
        cost = self.machine.try_fast(self.pid, addr, is_write)
        if cost is None:
            return False
        self._pending_ns += cost
        self.buckets.memory_ns += cost
        return True

    def _access_slow(self, addr: int, is_write: bool):
        machine = self.machine
        sim = machine.sim
        pending = self._pending_ns
        if pending:
            self._pending_ns = 0
            yield pending
        started = sim._now
        transact_flat = machine.transact_flat
        if transact_flat is None:
            latency_ns, service_ns = yield from machine.transact(
                self.pid, addr, is_write
            )
        else:
            # Flat-compiled transaction (see Machine.transact_flat):
            # the request tuple defers the call to the kernel, which
            # on the compiled tier builds the op natively.
            latency_ns, service_ns = yield (
                transact_flat, self.pid, addr, is_write
            )
        elapsed = sim._now - started
        # Contention-free time cannot exceed the observed window: when a
        # parallel leg (e.g. the target's invalidation round) overlaps
        # the data path completely, its charged latency is credited back
        # so that the buckets always sum to the elapsed time.
        if latency_ns + service_ns > elapsed:
            latency_ns = max(0, elapsed - service_ns)
        # ``take_retry_ns`` inlined (zero on every fault-free access).
        retry_pending = machine._retry_pending
        retry_ns = retry_pending[self.pid]
        if retry_ns:
            retry_pending[self.pid] = 0
        if retry_ns > elapsed - latency_ns - service_ns:
            retry_ns = max(0, elapsed - latency_ns - service_ns)
        buckets = self.buckets
        buckets.latency_ns += latency_ns
        buckets.memory_ns += service_ns
        buckets.retry_ns += retry_ns
        buckets.contention_ns += (
            elapsed - latency_ns - service_ns - retry_ns
        )

    def _access_range(self, base: int, count: int, stride: int, is_write: bool):
        """Generator: a strided scan, fast-pathing hits without yields."""
        try_fast = self.machine.try_fast
        pid = self.pid
        pending = 0
        addr = base
        for _ in range(count):
            cost = try_fast(pid, addr, is_write)
            if cost is None:
                if pending:
                    self._pending_ns += pending
                    self.buckets.memory_ns += pending
                    pending = 0
                yield from self._access_slow(addr, is_write)
            else:
                pending += cost
            addr += stride
        if pending:
            self._pending_ns += pending
            self.buckets.memory_ns += pending

    def _access_many(self, addrs, is_write: bool):
        """Generator: an index gather/scatter."""
        try_fast = self.machine.try_fast
        pid = self.pid
        pending = 0
        for addr in addrs:
            cost = try_fast(pid, addr, is_write)
            if cost is None:
                if pending:
                    self._pending_ns += pending
                    self.buckets.memory_ns += pending
                    pending = 0
                yield from self._access_slow(addr, is_write)
            else:
                pending += cost
        if pending:
            self._pending_ns += pending
            self.buckets.memory_ns += pending

    # -- the interpreter ---------------------------------------------------------------

    def run(self, app_generator):
        """Engine process: interpret the application's operation stream.

        Reads and writes that :meth:`Machine.try_fast` can satisfy are
        charged inline -- no generator, no engine event -- so a run of
        cache hits costs the engine nothing until the accumulated time
        is flushed.  With ``config.batch_local`` off, the accumulated
        local time is instead released after every operation.
        """
        machine = self.machine
        sim = machine.sim
        try_fast = machine.try_fast
        transact = machine.transact
        transact_flat = machine.transact_flat
        retry_pending = machine._retry_pending
        cycle_ns = machine.config.cpu_cycle_ns
        buckets = self.buckets
        pid = self.pid
        batch = self._batch
        for op in app_generator:
            kind = type(op)
            if kind is ops.Compute:
                duration = op.cycles * cycle_ns
                self._pending_ns += duration
                buckets.compute_ns += duration
                if batch:
                    continue
            elif kind is ops.Read or kind is ops.Write:
                is_write = kind is ops.Write
                cost = try_fast(pid, op.addr, is_write)
                if cost is not None:
                    self._pending_ns += cost
                    buckets.memory_ns += cost
                    if batch:
                        continue
                else:
                    # ``_access_slow`` inlined: this is the hottest slow
                    # path, and every resumption of the delegated
                    # transaction walks the whole ``yield from`` chain,
                    # so one less frame here pays on every send.
                    pending = self._pending_ns
                    if pending:
                        self._pending_ns = 0
                        yield pending
                    started = sim._now
                    if transact_flat is None:
                        latency_ns, service_ns = yield from transact(
                            pid, op.addr, is_write
                        )
                    else:
                        # Flat-compiled transaction: one yield instead
                        # of delegating into a generator -- the kernel
                        # makes the deferred call (natively on the
                        # compiled tier) and steps the whole miss
                        # round.
                        latency_ns, service_ns = yield (
                            transact_flat, pid, op.addr, is_write
                        )
                    elapsed = sim._now - started
                    if latency_ns + service_ns > elapsed:
                        latency_ns = max(0, elapsed - service_ns)
                    retry_ns = retry_pending[pid]
                    if retry_ns:
                        retry_pending[pid] = 0
                    if retry_ns > elapsed - latency_ns - service_ns:
                        retry_ns = max(0, elapsed - latency_ns - service_ns)
                    buckets.latency_ns += latency_ns
                    buckets.memory_ns += service_ns
                    buckets.retry_ns += retry_ns
                    buckets.contention_ns += (
                        elapsed - latency_ns - service_ns - retry_ns
                    )
                    continue
            elif kind is ops.ReadRange:
                yield from self._access_range(op.addr, op.count, op.stride, False)
            elif kind is ops.WriteRange:
                yield from self._access_range(op.addr, op.count, op.stride, True)
            elif kind is ops.ReadMany:
                yield from self._access_many(op.addrs, False)
            elif kind is ops.WriteMany:
                yield from self._access_many(op.addrs, True)
            elif kind is ops.Send:
                yield from machine.op_send(self, op.dst, op.nbytes, op.tag)
            elif kind is ops.Recv:
                yield from machine.op_recv(self, op.src, op.tag)
            elif kind is ops.Lock:
                yield from machine.op_lock(self, op.lock_id)
            elif kind is ops.Unlock:
                yield from machine.op_unlock(self, op.lock_id)
            elif kind is ops.Barrier:
                yield from machine.op_barrier(self, op.barrier_id)
            elif kind is ops.SetFlag:
                yield from machine.op_set_flag(self, op.addr, op.value)
            elif kind is ops.WaitFlag:
                yield from machine.op_wait_flag(self, op.addr, op.value, op.cmp)
            else:
                raise SimulationError(
                    f"processor {self.pid} received unknown operation {op!r}"
                )
            if not batch and self._pending_ns:
                delay, self._pending_ns = self._pending_ns, 0
                yield delay
        if self._pending_ns:
            yield from self.flush()
        self.finish_ns = machine.sim.now

    def __repr__(self) -> str:
        return f"<Processor {self.pid} of {self.machine.name}>"


# -- machine registry -------------------------------------------------------------------

_MACHINE_REGISTRY: Dict[str, Type[Machine]] = {}


def register_machine(cls: Type[Machine]) -> Type[Machine]:
    """Class decorator adding a machine model to the registry."""
    _MACHINE_REGISTRY[cls.name] = cls
    return cls


def make_machine(name: str, config: SystemConfig) -> Machine:
    """Instantiate a registered machine model by name."""
    try:
        cls = _MACHINE_REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown machine {name!r}; known: {sorted(_MACHINE_REGISTRY)}"
        ) from None
    return cls(config)


def machine_names() -> List[str]:
    """Names of all registered machine models."""
    return sorted(_MACHINE_REGISTRY)
