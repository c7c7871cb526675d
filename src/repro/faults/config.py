"""Declarative fault-injection configuration.

:class:`FaultConfig` is carried by
:class:`~repro.config.SystemConfig` (field ``fault``) and consumed by
the machine models: the target machine hands it to its
:class:`~repro.network.fabric.Fabric`, the LogP machines to their
:class:`~repro.core.logp_net.LogPNetwork`.  Everything is frozen and
hashable so configurations stay usable as memo keys.

The config is *pay-for-what-you-use*: when :attr:`FaultConfig.enabled`
is false (all rates zero, no failure windows, no stalls) no injector is
built and the simulation takes exactly the fault-free code path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from ..errors import ConfigError


@dataclass(frozen=True)
class LinkFailure:
    """A transient failure window of one directed link.

    While ``start_ns <= now < end_ns`` every message routed over the
    ``src -> dst`` link is lost (and recovered by the reliable-delivery
    layer's retries).
    """

    src: int
    dst: int
    start_ns: int
    end_ns: int

    def __post_init__(self) -> None:
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ConfigError(
                f"link failure window [{self.start_ns}, {self.end_ns}) "
                "must be non-empty and non-negative"
            )

    def covers(self, now: int) -> bool:
        """True while the link is down at simulated time ``now``."""
        return self.start_ns <= now < self.end_ns


@dataclass(frozen=True)
class NodeStall:
    """A window during which one node stops servicing the network.

    Any message sent or received by ``node`` while the window covers
    the attempt is delayed until ``end_ns`` -- the node is frozen, not
    dead, so nothing is lost, but every in-window message pays the
    remainder of the window as recovery time.
    """

    node: int
    start_ns: int
    end_ns: int

    def __post_init__(self) -> None:
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ConfigError(
                f"node stall window [{self.start_ns}, {self.end_ns}) "
                "must be non-empty and non-negative"
            )

    def stall_ns(self, now: int) -> int:
        """Extra delay a network event at ``now`` suffers (0 outside)."""
        if self.start_ns <= now < self.end_ns:
            return self.end_ns - now
        return 0


@dataclass(frozen=True)
class FaultConfig:
    """Fault rates, failure windows, and the reliable-delivery policy."""

    #: Probability that a message is silently lost in the network.
    drop_rate: float = 0.0

    #: Probability that a message arrives corrupted (full transmission
    #: cost paid, payload discarded by the receiver's checksum).
    corrupt_rate: float = 0.0

    #: Probability that a delivered message suffers an extra delay.
    delay_rate: float = 0.0

    #: Mean of the (exponential) extra delay applied to delayed messages.
    delay_ns: int = 2_000

    #: Transient link-failure windows (target fabric: the named link;
    #: LogP machines: any route crossing the link, via the topology).
    link_failures: Tuple[LinkFailure, ...] = ()

    #: Node-stall windows (both network layers).
    node_stalls: Tuple[NodeStall, ...] = ()

    #: Sender timeout before the first retransmission.
    retry_timeout_ns: int = 20_000

    #: Maximum retransmissions per message before the sender gives up
    #: with a :class:`~repro.errors.RetryLimitError`.
    max_retries: int = 8

    #: Multiplier applied to the timeout after each failed attempt.
    backoff: float = 2.0

    #: Seed of the fault RNG stream.  ``None`` derives it from the
    #: machine's master seed (still on the dedicated fault stream, so
    #: application draws are never perturbed).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("drop_rate", "corrupt_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.drop_rate + self.corrupt_rate + self.delay_rate > 1.0:
            raise ConfigError(
                "drop_rate + corrupt_rate + delay_rate must not exceed 1"
            )
        if self.delay_ns <= 0:
            raise ConfigError(f"delay_ns must be positive, got {self.delay_ns}")
        if self.retry_timeout_ns <= 0:
            raise ConfigError(
                f"retry_timeout_ns must be positive, got {self.retry_timeout_ns}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff < 1.0:
            raise ConfigError(f"backoff must be >= 1, got {self.backoff}")
        for window in self.link_failures:
            if not isinstance(window, LinkFailure):
                raise ConfigError(
                    f"link_failures entries must be LinkFailure, got {window!r}"
                )
        for window in self.node_stalls:
            if not isinstance(window, NodeStall):
                raise ConfigError(
                    f"node_stalls entries must be NodeStall, got {window!r}"
                )

    # -- canonical (de)serialization (run specs, caches, checkpoints) --------

    def to_dict(self) -> Dict:
        """JSON-ready form carrying *every* field.

        Iterating the dataclass fields keeps the serialization in
        lockstep with the schema: a newly added field is serialized
        (and therefore digested) automatically.
        """
        out: Dict = {name: getattr(self, name) for name in FAULT_FIELDS}
        for name in ("link_failures", "node_stalls"):
            out[name] = [vars(window).copy() for window in out[name]]
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultConfig":
        """Rebuild from :meth:`to_dict` output.

        Strict on both sides -- unknown *and* missing fields raise --
        so a payload written by a different schema version is detected
        instead of silently filling defaults.
        """
        names = set(FAULT_FIELDS)
        unknown = set(data) - names
        missing = names - set(data)
        if unknown or missing:
            raise ConfigError(
                "fault config was serialized by a different schema "
                f"(unknown fields: {sorted(unknown)}, "
                f"missing fields: {sorted(missing)})"
            )
        kwargs = dict(data)
        kwargs["link_failures"] = tuple(
            LinkFailure(**window) for window in kwargs["link_failures"]
        )
        kwargs["node_stalls"] = tuple(
            NodeStall(**window) for window in kwargs["node_stalls"]
        )
        return cls(**kwargs)

    @property
    def enabled(self) -> bool:
        """True when any fault can actually occur.

        Policy knobs alone (timeouts, retry caps, seeds) do not enable
        the machinery: a config with every rate at zero and no windows
        is inert and the simulation must be bit-identical to one built
        without a fault config at all.
        """
        return bool(
            self.drop_rate > 0.0
            or self.corrupt_rate > 0.0
            or self.delay_rate > 0.0
            or self.link_failures
            or self.node_stalls
        )


#: Every :class:`FaultConfig` field name in declaration order, computed
#: once from the dataclass: ``to_dict`` / ``from_dict`` iterate it, so a
#: new field is still serialized (and digested) automatically.
FAULT_FIELDS: Tuple[str, ...] = tuple(spec.name for spec in fields(FaultConfig))
