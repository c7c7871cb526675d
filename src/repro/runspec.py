"""Canonical description of one simulation: the RunSpec.

A :class:`RunSpec` is a frozen, canonically-serializable value object
that names everything a simulation depends on -- the application and
its constructor parameters, the machine model, the full
:class:`~repro.config.SystemConfig` (topology, seed, protocol, barrier,
fault injection, sanitizer level, ...), the workload preset, and the
engine watchdog budget.  Its :meth:`~RunSpec.spec_digest` is a BLAKE2b
hash of the canonical JSON form and is the *only* identity the
execution layers use:

* the in-memory sweep memo and the on-disk checkpoint journal key
  completed points by digest,
* the :class:`~repro.exec.store.ResultStore` content-addresses cached
  results by digest,
* the process-pool backend ships specs (not ad-hoc argument tuples) to
  workers.

The digest hashes *every* field of the serialized form, so adding a
configuration field changes the digest of every spec that carries a
non-default value -- a cache miss, never silent aliasing.  This
replaces the hand-maintained 8-element ``RunKey`` tuple, which dropped
fields it did not know about (``barrier`` and ``seed`` among them) and
therefore served the *wrong* cached run when those fields differed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from .config import MACHINES, SystemConfig
from .errors import ConfigError
from .faults.config import FaultConfig

#: Version of the canonical serialization.  Bump when the *shape* of
#: :meth:`RunSpec.to_dict` changes (field values changing is handled by
#: the digest itself).
SPEC_SCHEMA = 1

#: JSON-scalar types allowed as application parameter values.
_SCALARS = (bool, int, float, str, type(None))

#: Application parameters in canonical form: name-sorted (name, value).
ParamsTuple = Tuple[Tuple[str, object], ...]


def canonical_json(payload: Dict) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulation depends on, as a hashable value."""

    #: Application name (see :data:`repro.apps.APPLICATIONS`).
    app: str

    #: Machine model name (see :data:`repro.config.MACHINES`).
    machine: str

    #: Full hardware/fault/sanitizer configuration.
    config: SystemConfig

    #: Application constructor kwargs, canonically sorted.  A plain
    #: mapping may be passed; it is normalized on construction.
    params: Union[ParamsTuple, Mapping[str, object]] = ()

    #: Workload preset the parameters came from (journaling metadata;
    #: part of the identity, like the old memo key's preset slot).
    preset: str = "default"

    #: Engine watchdog budget (``None``: unbounded), forwarded to
    #: :meth:`~repro.engine.core.Simulator.run`.
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.machine not in MACHINES:
            raise ConfigError(
                f"unknown machine {self.machine!r}; expected one of {MACHINES}"
            )
        params = self.params
        if isinstance(params, Mapping):
            params = tuple(sorted(params.items()))
        else:
            params = tuple(sorted((str(k), v) for k, v in params))
        for name, value in params:
            if not isinstance(value, _SCALARS):
                raise ConfigError(
                    f"application parameter {name!r} must be a JSON scalar "
                    f"for canonical serialization, got {type(value).__name__}"
                )
        object.__setattr__(self, "params", params)
        if self.max_events is not None and self.max_events <= 0:
            raise ConfigError(
                f"max_events must be positive or None, got {self.max_events}"
            )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(
        cls,
        app: str,
        machine: str,
        nprocs: int,
        topology: str = "full",
        *,
        preset: str = "default",
        params: Optional[Mapping[str, object]] = None,
        seed: int = 12345,
        fault: Optional[FaultConfig] = None,
        check: Optional[str] = None,
        digest: bool = False,
        protocol: str = "berkeley",
        barrier: str = "central",
        adaptive_g: bool = False,
        g_per_event_type: bool = False,
        batch_local: bool = True,
        max_events: Optional[int] = None,
        engine_kernel: Optional[str] = None,
    ) -> "RunSpec":
        """Assemble a spec from sweep-level arguments.

        ``params=None`` resolves the application parameters from the
        preset (see :func:`repro.experiments.workloads.app_params`);
        ``check=None`` leaves the sanitizer level to the configuration
        default (the ``REPRO_CHECK`` environment variable, or off);
        ``engine_kernel=None`` likewise defers to the configuration
        default (``REPRO_ENGINE``, or auto -- the compiled kernel when
        the extension is built, else the SoA kernel).
        """
        if params is None:
            # Imported lazily: the experiments package sits above this
            # layer and importing it at module scope would be circular.
            from .experiments.workloads import app_params

            params = app_params(app, preset)
        config = SystemConfig(
            processors=nprocs,
            topology=topology,
            seed=seed,
            protocol=protocol,
            barrier=barrier,
            adaptive_g=adaptive_g,
            g_per_event_type=g_per_event_type,
            batch_local=batch_local,
            digest=digest,
            fault=fault if fault is not None else FaultConfig(),
            **({"check": check} if check is not None else {}),
            **({"engine_kernel": engine_kernel}
               if engine_kernel is not None else {}),
        )
        return cls(
            app=app,
            machine=machine,
            config=config,
            params=dict(params),
            preset=preset,
            max_events=max_events,
        )

    # -- canonical (de)serialization -----------------------------------------

    @property
    def params_dict(self) -> Dict[str, object]:
        """Application constructor kwargs as a fresh dict."""
        return dict(self.params)

    def to_dict(self) -> Dict:
        """Canonical JSON-ready representation (digest input)."""
        return {
            "schema": SPEC_SCHEMA,
            "app": self.app,
            "machine": self.machine,
            "preset": self.preset,
            "max_events": self.max_events,
            "params": self.params_dict,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        :raises ConfigError: the payload was written by a different
            serialization schema or carries unknown configuration
            fields.
        """
        if not isinstance(data, dict):
            raise ConfigError(f"run spec must be a mapping, got {type(data).__name__}")
        schema = data.get("schema")
        if schema != SPEC_SCHEMA:
            raise ConfigError(
                f"run spec was serialized with schema {schema!r}; this "
                f"version reads schema {SPEC_SCHEMA}"
            )
        try:
            return cls(
                app=data["app"],
                machine=data["machine"],
                config=SystemConfig.from_dict(data["config"]),
                params=dict(data["params"]),
                preset=data["preset"],
                max_events=data["max_events"],
            )
        except KeyError as exc:
            raise ConfigError(f"run spec is missing field {exc}") from exc

    def canonical_json(self) -> str:
        """The canonical JSON form the digest is computed over."""
        return canonical_json(self.to_dict())

    def spec_digest(self) -> str:
        """Stable BLAKE2b hex digest of the canonical serialization."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hashlib.blake2b(
                self.canonical_json().encode("utf-8"), digest_size=16
            ).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    # -- execution helpers ---------------------------------------------------

    def make_application(self):
        """A fresh application instance for one simulation attempt.

        Applications hold run state and must never be reused across
        runs, so every attempt gets its own instance.
        """
        from .apps import make_app

        return make_app(self.app, self.config.processors, **self.params_dict)

    def describe(self) -> str:
        """Human-readable one-liner used in logs and failure records."""
        return (
            f"{self.app}/{self.machine}/{self.config.topology}/"
            f"p={self.config.processors} ({self.preset})"
        )
