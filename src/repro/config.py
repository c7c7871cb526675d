"""Simulated-machine configuration.

A single frozen dataclass, :class:`SystemConfig`, carries every hardware
parameter used by the three machine models.  The defaults reproduce the
hardware of the HPCA'95 paper:

* 33 MHz SPARC processors (30 ns cycle),
* serial unidirectional links at 20 MB/s (50 ns per byte),
* data messages of 32 bytes (so the LogP ``L`` parameter is 1.6 us),
* coherence control messages of 8 bytes on the detailed network,
* 64 KB 2-way set-associative caches with 32-byte blocks,
* fully-connected / binary-hypercube / 2-D-mesh topologies.

The paper restricts the processor count to powers of two; we enforce the
same restriction because the hypercube requires it and the mesh shape
rule ("columns = 2x rows for odd powers of two") assumes it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Tuple

from .checkers.base import CHECK_LEVELS
from .errors import ConfigError
from .faults.config import FaultConfig
from .units import KB


def _default_engine_kernel() -> str:
    """Default engine kernel knob, overridable via ``REPRO_ENGINE``.

    ``"auto"`` defers resolution to :func:`repro.engine.resolve_kernel`
    (which also reads ``REPRO_ENGINE``, so the env var works both when a
    config is built and when a bare simulator is made).  Set
    ``REPRO_ENGINE=object`` to force the object-kernel fallback across a
    whole test run without threading a flag through every entry point.
    """
    kernel = os.environ.get("REPRO_ENGINE", "").strip().lower()
    return kernel or "auto"


def _default_check_level() -> str:
    """Default sanitizer level, overridable via ``REPRO_CHECK``.

    The environment hook lets an entire test or CI run opt into the
    sanitizer (e.g. ``REPRO_CHECK=strict pytest``) without threading a
    flag through every configuration site.
    """
    return os.environ.get("REPRO_CHECK", "off")

#: Topology identifiers accepted by :class:`SystemConfig`.
TOPOLOGIES: Tuple[str, ...] = ("full", "cube", "mesh")

#: Machine-model identifiers used across the package.
MACHINES: Tuple[str, ...] = ("target", "logp", "clogp", "ideal")

#: Coherence protocols the cached machines can run.
PROTOCOLS: Tuple[str, ...] = ("berkeley", "illinois")

#: Barrier implementations.
BARRIERS: Tuple[str, ...] = ("central", "tree")

#: Engine kernel knob values (mirrors ``repro.engine.KERNELS``; kept as
#: a literal here so the config layer does not import the engine).
ENGINE_KERNELS: Tuple[str, ...] = ("auto", "soa", "compiled", "object")


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class SystemConfig:
    """Hardware parameters shared by all machine models.

    Attributes mirror the paper's architectural characteristics
    (Section 5).  All times are integer nanoseconds.
    """

    #: Number of processing nodes (must be a power of two).
    processors: int = 8

    #: Interconnect topology: ``"full"``, ``"cube"`` or ``"mesh"``.
    topology: str = "full"

    #: Processor cycle time.  33 MHz SPARC => 30 ns.
    cpu_cycle_ns: int = 30

    #: Serial-link byte time.  20 MB/s => 50 ns per byte.
    link_ns_per_byte: int = 50

    #: Payload size of a data-carrying message (one cache block).
    data_message_bytes: int = 32

    #: Size of a coherence control message (request / inv / ack) on the
    #: detailed target network.  The LogP machines charge every message
    #: at the full ``L`` regardless (that pessimism is one of the
    #: paper's observations).
    control_message_bytes: int = 8

    #: Per-hop switching delay on the detailed network.  The paper
    #: assumes it "negligible compared to the transmission time" and
    #: ignores it (0 here); setting it non-zero tests that assumption
    #: (see ``bench_ablations``).
    switch_delay_ns: int = 0

    #: Private cache capacity in bytes.
    cache_size_bytes: int = 64 * KB

    #: Cache associativity (ways per set).
    cache_assoc: int = 2

    #: Cache block (line) size in bytes; also the coherence unit.
    block_bytes: int = 32

    #: Cache hit time in processor cycles.
    cache_hit_cycles: int = 1

    #: Local (home) memory access time in processor cycles.
    memory_cycles: int = 10

    #: Interval between successive spin polls of a remote location on
    #: the cache-less LogP machine.  Each poll is a network round trip,
    #: which is exactly why EP's latency overhead explodes on LogP.
    poll_interval_ns: int = 4_000

    #: When True, the LogP ``g`` gap is enforced only between network
    #: events of the *same* kind (send-send or receive-receive) at a
    #: node, instead of between any two events.  This is the relaxation
    #: experimented with in Section 7 of the paper.
    g_per_event_type: bool = False

    #: Coherence protocol run by the cached machines: ``"berkeley"``
    #: (the paper's target) or ``"illinois"`` (MESI -- the "fancier"
    #: protocol the paper predicts would agree even closer with the
    #: CLogP abstraction; see Sections 3.2 and 7).
    protocol: str = "berkeley"

    #: When True, the LogP ``g`` is scaled by the observed communication
    #: locality (running mean of route hop counts relative to uniform
    #: traffic) -- the history-based g estimation the paper suggests as
    #: future work in Section 7.
    adaptive_g: bool = False

    #: Barrier implementation: ``"central"`` (lock-protected counter +
    #: release flag, the classic 1994 construct and the default) or
    #: ``"tree"`` (binary combining tree over per-node flags, which
    #: keeps synchronization traffic local -- see the network-stats
    #: tooling for why that matters).
    barrier: str = "central"

    #: When True (default) consecutive purely-local progress -- compute
    #: quanta and cache hits -- accumulates in the processor's pending
    #: counter and reaches the engine as a *single* deferred timeout,
    #: flushed before any externally visible interaction.  When False
    #: every local quantum is released to the engine as its own timeout
    #: (one event per hit), which is the behaviour the paper attributes
    #: the LogP model's simulation slowness to.  Accounting is identical
    #: either way; only event counts (and host speed) differ.
    batch_local: bool = True

    #: Engine kernel for the event core: ``"compiled"`` (the SoA
    #: kernel driven by the optional C hot loop), ``"soa"`` (the
    #: pure-Python struct-of-arrays fast path), ``"object"`` (the
    #: heap-only reference kernel, taken only when asked for) or
    #: ``"auto"`` (consult ``REPRO_ENGINE``, else compiled when the
    #: extension is built, else SoA).  Every ``check`` level and the
    #: digest run on whichever kernel this selects.  All kernels execute
    #: identical event sequences; the knob only changes host speed.
    #: Defaults to the ``REPRO_ENGINE`` environment variable, or
    #: ``"auto"``.
    engine_kernel: str = field(default_factory=_default_engine_kernel)

    #: Master seed for all deterministic random streams.
    seed: int = 12345

    #: Runtime sanitizer level: ``"off"`` (no checker constructed, the
    #: exact pre-sanitizer code paths), ``"basic"`` (cheap per-operation
    #: invariants) or ``"strict"`` (adds the global coherence sweep per
    #: transition and the determinism digest).  Defaults to the
    #: ``REPRO_CHECK`` environment variable, or ``"off"``.
    check: str = field(default_factory=_default_check_level)

    #: Attach the determinism digest checker regardless of ``check``
    #: level (pure observation; see ``Simulator.state_digest``).
    digest: bool = False

    #: Fault-injection configuration.  The default injects nothing and
    #: the machines take the exact fault-free code paths, so a run with
    #: all rates at zero is bit-identical to a run without this field.
    fault: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.processors):
            raise ConfigError(
                f"processors must be a power of two, got {self.processors}"
            )
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; expected one of {TOPOLOGIES}"
            )
        if self.block_bytes <= 0 or not _is_power_of_two(self.block_bytes):
            raise ConfigError(
                f"block_bytes must be a positive power of two, got {self.block_bytes}"
            )
        if self.cache_assoc <= 0:
            raise ConfigError(f"cache_assoc must be positive, got {self.cache_assoc}")
        if self.cache_size_bytes % (self.block_bytes * self.cache_assoc):
            raise ConfigError(
                "cache_size_bytes must be a multiple of block_bytes * cache_assoc "
                f"({self.cache_size_bytes} % "
                f"{self.block_bytes * self.cache_assoc} != 0)"
            )
        for name in (
            "cpu_cycle_ns",
            "link_ns_per_byte",
            "data_message_bytes",
            "control_message_bytes",
            "cache_hit_cycles",
            "memory_cycles",
            "poll_interval_ns",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.data_message_bytes < self.block_bytes:
            raise ConfigError(
                "data_message_bytes must hold a full cache block "
                f"({self.data_message_bytes} < {self.block_bytes})"
            )
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; expected one of "
                f"{PROTOCOLS}"
            )
        if self.barrier not in BARRIERS:
            raise ConfigError(
                f"unknown barrier kind {self.barrier!r}; expected one of "
                f"{BARRIERS}"
            )
        if not isinstance(self.fault, FaultConfig):
            raise ConfigError(
                f"fault must be a FaultConfig, got {type(self.fault).__name__}"
            )
        if self.check not in CHECK_LEVELS:
            raise ConfigError(
                f"unknown check level {self.check!r}; expected one of "
                f"{CHECK_LEVELS}"
            )
        if self.engine_kernel not in ENGINE_KERNELS:
            raise ConfigError(
                f"unknown engine kernel {self.engine_kernel!r}; expected "
                f"one of {ENGINE_KERNELS}"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def sets(self) -> int:
        """Number of cache sets."""
        return self.cache_size_bytes // (self.block_bytes * self.cache_assoc)

    @property
    def cache_hit_ns(self) -> int:
        """Cache hit time in nanoseconds."""
        return self.cache_hit_cycles * self.cpu_cycle_ns

    @property
    def memory_ns(self) -> int:
        """Local memory access time in nanoseconds."""
        return self.memory_cycles * self.cpu_cycle_ns

    @property
    def data_message_ns(self) -> int:
        """Contention-free transmission time of a data message.

        With 32-byte messages on 20 MB/s serial links this is 1600 ns:
        the paper's ``L`` parameter.
        """
        return self.data_message_bytes * self.link_ns_per_byte

    @property
    def control_message_ns(self) -> int:
        """Contention-free transmission time of a control message."""
        return self.control_message_bytes * self.link_ns_per_byte

    def cycles(self, n: int) -> int:
        """Convert ``n`` processor cycles to nanoseconds."""
        return n * self.cpu_cycle_ns

    def with_(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # -- canonical (de)serialization (run specs, caches, checkpoints) --------

    def to_dict(self) -> Dict:
        """JSON-ready form carrying *every* field.

        Iterating the dataclass fields keeps the serialization -- and
        therefore :meth:`~repro.runspec.RunSpec.spec_digest` -- in
        lockstep with the schema: a newly added configuration field is
        serialized automatically, so it can change a digest but never
        alias two different configurations under one key.
        """
        out: Dict = {name: getattr(self, name) for name in CONFIG_FIELDS}
        out["fault"] = self.fault.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SystemConfig":
        """Rebuild from :meth:`to_dict` output.

        Strict on both sides -- unknown *and* missing fields raise a
        :class:`~repro.errors.ConfigError` -- so a checkpoint or cache
        entry written by a different schema version is rejected instead
        of silently resuming with default-filled fields.
        """
        names = set(CONFIG_FIELDS)
        unknown = set(data) - names
        missing = names - set(data)
        if unknown or missing:
            raise ConfigError(
                "system config was serialized by a different schema "
                f"(unknown fields: {sorted(unknown)}, "
                f"missing fields: {sorted(missing)})"
            )
        kwargs = dict(data)
        kwargs["fault"] = FaultConfig.from_dict(kwargs["fault"])
        return cls(**kwargs)


#: Every :class:`SystemConfig` field name in declaration order, computed
#: once from the dataclass: ``to_dict`` / ``from_dict`` iterate it, so a
#: new field is still serialized (and digested) automatically.
CONFIG_FIELDS: Tuple[str, ...] = tuple(spec.name for spec in fields(SystemConfig))

#: A ready-made configuration matching the paper's hardware with 8 nodes.
PAPER_CONFIG = SystemConfig()


def paper_config(processors: int, topology: str = "full", **overrides) -> SystemConfig:
    """Build the paper's hardware configuration for a given machine size."""
    return SystemConfig(processors=processors, topology=topology, **overrides)
