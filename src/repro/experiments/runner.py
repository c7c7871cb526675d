"""Sweep runner: executes the simulations behind each figure.

Several figures are different metrics of the *same* simulations (e.g.
Fig. 17 plots execution time and Fig. 19 the contention of the same
CG-on-mesh runs), so the runner memoizes completed runs.  Identity is
the :meth:`~repro.runspec.RunSpec.spec_digest` of each point's
canonical :class:`~repro.runspec.RunSpec` -- every field of the
configuration participates, so two points differing in *any* knob
(seed, barrier, fault rates, sanitizer level, ...) can never alias.

Execution is delegated to an
:class:`~repro.exec.backend.ExecutionBackend`: serial by default, or a
process pool (``jobs=N``) that runs the points of a batch in parallel
and streams them back as they complete.  An optional
:class:`~repro.exec.store.ResultStore` (``cache_dir=...``) persists
completed results across invocations, content-addressed by the same
digest.

Robustness
----------
Long sweeps must survive individual failing points (most interestingly
under fault injection, where a run can legitimately die with
:class:`~repro.errors.RetryLimitError`).  The backend retries a failing
run (``run_retries``) and then reports a structured
:class:`~repro.exec.backend.PointFailure` instead of aborting the
sweep; failed points surface as ``nan`` in the figure series.  With a
``checkpoint_path`` the runner journals every completed point (and
failure) to JSON after it finishes, and a fresh runner pointed at the
same file resumes without re-running completed points.  Checkpoints
carry a schema version: a file written by the old tuple-keyed format
(or any other schema) is rejected with a clear
:class:`~repro.errors.ConfigError` instead of silently resuming wrong
points.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.accounting import RunResult
from ..errors import ConfigError, ReproError
from ..exec.backend import (
    ExecutionBackend,
    PointFailure,
    PointOutcome,
    make_backend,
)
from ..exec.policy import RetryPolicy
from ..exec.store import ResultStore
from ..faults.config import FaultConfig
from ..runspec import RunSpec
from .registry import Experiment
from .workloads import processor_sweep

#: Version of the checkpoint JSON schema.  Version 1 (the retired
#: hand-maintained ``RunKey`` tuple keys) is detected and rejected.
CHECKPOINT_SCHEMA = 2

#: One figure series: display label, machine, metric, per-run kwargs.
SeriesSpec = Tuple[str, str, Callable[[RunResult], float], Dict[str, object]]


@dataclass
class FigureData:
    """The series behind one figure: metric value per (machine, p)."""

    experiment: Experiment
    processors: Tuple[int, ...]
    #: machine name -> list of metric values aligned with ``processors``
    #: (``nan`` marks a point whose simulation failed).
    series: Dict[str, List[float]] = field(default_factory=dict)
    #: machine name -> list of the full results (same alignment; a
    #: failed point holds its :class:`PointFailure` instead).
    results: Dict[str, List[PointOutcome]] = field(default_factory=dict)
    #: Failures encountered while producing this figure.
    failures: List[PointFailure] = field(default_factory=list)

    def value(self, machine: str, nprocs: int) -> float:
        """Metric value of one point.

        :raises ConfigError: the figure has no such machine series or
            was not run at that processor count.
        """
        if machine not in self.series:
            raise ConfigError(
                f"figure {self.experiment.id!r} has no series for machine "
                f"{machine!r}; available: {sorted(self.series)}"
            )
        if nprocs not in self.processors:
            raise ConfigError(
                f"figure {self.experiment.id!r} was not run at p={nprocs}; "
                f"available processor counts: {list(self.processors)}"
            )
        return self.series[machine][self.processors.index(nprocs)]


class SweepRunner:
    """Runs and memoizes the processor sweeps for the experiments."""

    def __init__(
        self,
        preset: str = "default",
        processors: Optional[Sequence[int]] = None,
        seed: int = 12345,
        fault: Optional[FaultConfig] = None,
        run_retries: int = 1,
        checkpoint_path: Optional[Union[str, Path]] = None,
        max_events: Optional[int] = None,
        check: Optional[str] = None,
        digest: bool = False,
        jobs: int = 1,
        backend: Optional[ExecutionBackend] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        store: Optional[ResultStore] = None,
        deadline_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.preset = preset
        self.processors: Tuple[int, ...] = tuple(
            processors if processors is not None else processor_sweep(preset)
        )
        self.seed = seed
        #: Fault-injection configuration applied to every run (None ->
        #: the fault-free default).
        self.fault = fault
        #: How many times a failing run is re-attempted before being
        #: recorded as a :class:`PointFailure`.
        self.run_retries = run_retries
        #: Engine watchdog budget forwarded to every simulation.
        self.max_events = max_events
        #: Sanitizer level applied to every run (None -> the
        #: configuration default, i.e. ``REPRO_CHECK`` or off).
        self.check = check
        #: Attach the determinism-digest checker to every run.
        self.digest = digest
        #: Per-point wall-clock deadline forwarded to the backend.
        self.deadline_s = deadline_s
        #: Retry policy applied by the backend (None: derived from
        #: ``run_retries`` -- immediate transient-only re-attempts).
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else RetryPolicy(max_retries=run_retries)
        )
        #: Execution backend (explicit instance wins over ``jobs``).
        self.backend: ExecutionBackend = (
            backend if backend is not None
            else make_backend(jobs, policy=self.retry_policy,
                              deadline_s=deadline_s)
        )
        # Supervised backends flush the checkpoint before every pool
        # rebuild, so a crash mid-recovery never loses streamed points.
        add_listener = getattr(self.backend, "add_rebuild_listener", None)
        if add_listener is not None:
            add_listener(self._save_checkpoint)
        #: Result store (explicit instance wins over ``cache_dir``;
        #: both None -> no cross-invocation caching).
        self.store: Optional[ResultStore] = (
            store if store is not None
            else ResultStore(cache_dir) if cache_dir is not None
            else None
        )
        #: Simulations actually executed by this runner (memo hits,
        #: store hits and resumed checkpoint points do not count).
        self.simulated = 0
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self._cache: Dict[str, RunResult] = {}
        self._failures: Dict[str, PointFailure] = {}
        #: Spec behind every memoized digest (checkpoint journaling).
        self._specs: Dict[str, RunSpec] = {}
        #: The one spec of every distinct sweep point (see point_spec).
        self._points: Dict[Tuple, RunSpec] = {}
        if self.checkpoint_path is not None and self.checkpoint_path.exists():
            self._load_checkpoint()

    def close(self) -> None:
        """Release backend workers (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- checkpointing -------------------------------------------------------------

    def _load_checkpoint(self) -> None:
        """Resume from a checkpoint written by an earlier sweep."""
        try:
            with open(self.checkpoint_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            version = data.get("version")
            if version != CHECKPOINT_SCHEMA:
                raise ConfigError(
                    f"checkpoint uses schema version {version!r}; this "
                    f"version writes schema {CHECKPOINT_SCHEMA} (version 1 "
                    "was keyed by the retired RunKey tuple) -- delete the "
                    "file or finish the sweep with the version that wrote it"
                )
            for key, entry in data.get("results", {}).items():
                spec = self._verified_spec(key, entry)
                self._cache[key] = RunResult.from_dict(entry["result"])
                self._specs[key] = spec
            for key, entry in data.get("failures", {}).items():
                spec = self._verified_spec(key, entry)
                self._failures[key] = PointFailure.from_dict(entry["failure"])
                self._specs[key] = spec
        except ConfigError as exc:
            raise ConfigError(
                f"cannot resume from checkpoint {self.checkpoint_path}: {exc}"
            ) from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"cannot resume from checkpoint {self.checkpoint_path}: "
                f"{exc}"
            ) from exc

    @staticmethod
    def _verified_spec(key: str, entry: Dict) -> RunSpec:
        """Rebuild one journaled spec, verifying its digest matches."""
        spec = RunSpec.from_dict(entry["spec"])
        if spec.spec_digest() != key:
            raise ConfigError(
                f"journaled spec for {key} re-hashes to "
                f"{spec.spec_digest()}; the checkpoint was written by a "
                "different configuration schema"
            )
        return spec

    def _save_checkpoint(self) -> None:
        """Atomically journal every completed point and failure."""
        if self.checkpoint_path is None:
            return
        data = {
            "version": CHECKPOINT_SCHEMA,
            "preset": self.preset,
            "seed": self.seed,
            "results": {
                key: {
                    "spec": self._specs[key].to_dict(),
                    "result": result.to_dict(),
                }
                for key, result in self._cache.items()
            },
            "failures": {
                key: {
                    "spec": self._specs[key].to_dict(),
                    "failure": failure.to_dict(),
                }
                for key, failure in self._failures.items()
            },
        }
        tmp = self.checkpoint_path.with_name(self.checkpoint_path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1)
            # Flush user- and kernel-space buffers before the rename: a
            # crash mid-write must leave either the old checkpoint or
            # the new one, never a truncated file.
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.checkpoint_path)

    @property
    def failures(self) -> List[PointFailure]:
        """Every point failure recorded so far."""
        return list(self._failures.values())

    # -- primitives ----------------------------------------------------------------

    def point_spec(
        self,
        app: str,
        machine: str,
        topology: str,
        nprocs: int,
        g_per_event_type: bool = False,
        adaptive_g: bool = False,
        protocol: str = "berkeley",
        barrier: str = "central",
    ) -> RunSpec:
        """The canonical spec of one sweep point, built once per runner.

        Figures share points and every point is asked for by the
        prefetch, the per-figure prefetch and the series, so each
        distinct point gets one spec object (which caches its digest).
        The sweep-level fields (preset, seed, fault, check, digest,
        max_events) are fixed at construction, so the point arguments
        alone identify the spec.
        """
        key = (app, machine, topology, nprocs, g_per_event_type,
               adaptive_g, protocol, barrier)
        spec = self._points.get(key)
        if spec is None:
            spec = self._points[key] = RunSpec.build(
                app=app,
                machine=machine,
                nprocs=nprocs,
                topology=topology,
                preset=self.preset,
                seed=self.seed,
                fault=self.fault,
                check=self.check,
                digest=self.digest,
                protocol=protocol,
                barrier=barrier,
                adaptive_g=adaptive_g,
                g_per_event_type=g_per_event_type,
                max_events=self.max_events,
            )
        return spec

    def outcome_of(self, spec: RunSpec) -> Optional[PointOutcome]:
        """The memoized outcome of a spec, if it already ran."""
        key = spec.spec_digest()
        result = self._cache.get(key)
        if result is not None:
            return result
        return self._failures.get(key)

    def run_batch(self, specs: Sequence[RunSpec]) -> None:
        """Execute every not-yet-known spec of a batch.

        The batch is deduplicated by digest, then filtered against the
        in-memory memo (which includes resumed checkpoint points) and
        the result store; the remainder goes to the execution backend.
        Completed points stream back (in completion order under the
        process pool) and each is memoized, persisted to the store, and
        checkpointed the moment it finishes, so a crash mid-batch loses
        at most the in-flight points.
        """
        pending: List[RunSpec] = []
        seen: set = set()
        store_hit = False
        for spec in specs:
            key = spec.spec_digest()
            if key in self._cache or key in self._failures or key in seen:
                continue
            if self.store is not None:
                cached = self.store.get(spec)
                if cached is not None:
                    self._cache[key] = cached
                    self._specs[key] = spec
                    store_hit = True
                    continue
            seen.add(key)
            pending.append(spec)
        if store_hit:
            self._save_checkpoint()
        if not pending:
            return
        try:
            for spec, outcome in self.backend.run(pending, self.run_retries):
                key = spec.spec_digest()
                self._specs[key] = spec
                if isinstance(outcome, PointFailure):
                    self._failures[key] = outcome
                else:
                    self.simulated += 1
                    self._cache[key] = outcome
                    if self.store is not None:
                        self.store.put(spec, outcome)
                self._save_checkpoint()
        except KeyboardInterrupt:
            # Ctrl-C mid-batch: flush everything that streamed back, so
            # --resume after the interrupt re-runs only unfinished points.
            self._save_checkpoint()
            raise

    def run_point(
        self,
        app: str,
        machine: str,
        topology: str,
        nprocs: int,
        g_per_event_type: bool = False,
        adaptive_g: bool = False,
        protocol: str = "berkeley",
        barrier: str = "central",
    ) -> PointOutcome:
        """One memoized simulation with graceful failure handling.

        A failing run is retried ``run_retries`` times; if it still
        fails the point is recorded (and memoized, and checkpointed) as
        a :class:`PointFailure` so the rest of the sweep continues.
        """
        spec = self.point_spec(
            app, machine, topology, nprocs,
            g_per_event_type=g_per_event_type,
            adaptive_g=adaptive_g,
            protocol=protocol,
            barrier=barrier,
        )
        outcome = self.outcome_of(spec)
        if outcome is not None:
            return outcome
        self.run_batch([spec])
        outcome = self.outcome_of(spec)
        assert outcome is not None, f"backend dropped {spec.describe()}"
        return outcome

    def run_one(
        self,
        app: str,
        machine: str,
        topology: str,
        nprocs: int,
        g_per_event_type: bool = False,
        adaptive_g: bool = False,
        protocol: str = "berkeley",
        barrier: str = "central",
    ) -> RunResult:
        """One memoized simulation; raises if the point failed."""
        outcome = self.run_point(
            app, machine, topology, nprocs,
            g_per_event_type=g_per_event_type,
            adaptive_g=adaptive_g,
            protocol=protocol,
            barrier=barrier,
        )
        if isinstance(outcome, PointFailure):
            raise ReproError(f"sweep point failed: {outcome.summary()}")
        return outcome

    # -- figures --------------------------------------------------------------------

    def _series(
        self,
        data: FigureData,
        label: str,
        app: str,
        machine: str,
        topology: str,
        metric,
        **run_kwargs,
    ) -> None:
        """Fill one (label -> values) series, degrading failed points."""
        outcomes = [
            self.run_point(app, machine, topology, nprocs, **run_kwargs)
            for nprocs in self.processors
        ]
        data.results[label] = outcomes
        values: List[float] = []
        for outcome in outcomes:
            if isinstance(outcome, PointFailure):
                data.failures.append(outcome)
                values.append(math.nan)
            else:
                values.append(metric(outcome))
        data.series[label] = values

    def _experiment_series(self, experiment: Experiment) -> List[SeriesSpec]:
        """The (label, machine, metric, run-kwargs) series of a figure."""
        if experiment.metric == "simspeed":
            # Section 7 speed-of-simulation study: the metric series is
            # the host cost of each machine model, measured in simulator
            # events executed (wall seconds are also in the attached
            # results but are noisy on a shared host).
            return [
                (machine, machine, lambda r: float(r.sim_events), {})
                for machine in experiment.machines
            ]
        if experiment.metric == "ggap":
            # Section 7 g-gap relaxation: strict vs per-event-type gating.
            contention = lambda r: r.metric("contention")  # noqa: E731
            return [
                ("target", "target", contention, {}),
                ("clogp", "clogp", contention, {}),
                ("clogp-relaxed-g", "clogp", contention,
                 {"g_per_event_type": True}),
            ]
        if experiment.metric == "gadapt":
            # History-based g estimation (the paper's future-work idea).
            contention = lambda r: r.metric("contention")  # noqa: E731
            return [
                ("target", "target", contention, {}),
                ("clogp", "clogp", contention, {}),
                ("clogp-adaptive-g", "clogp", contention,
                 {"adaptive_g": True}),
            ]
        if experiment.metric == "protocol":
            # Berkeley vs Illinois targets against the CLogP
            # abstraction.  The series is total network messages: the
            # paper frames the claim in terms of network accesses, with
            # CLogP's traffic as the minimum any invalidation protocol
            # can achieve and "fancier" protocols approaching it from
            # above.
            messages = lambda r: float(r.messages)  # noqa: E731
            return [
                ("target-berkeley", "target", messages,
                 {"protocol": "berkeley"}),
                ("target-illinois", "target", messages,
                 {"protocol": "illinois"}),
                ("clogp", "clogp", messages, {"protocol": "berkeley"}),
            ]
        metric = lambda r: r.metric(experiment.metric)  # noqa: E731
        return [
            (machine, machine, metric, {})
            for machine in experiment.machines
        ]

    def experiment_specs(self, experiment: Experiment) -> List[RunSpec]:
        """Every point spec one experiment needs (with duplicates)."""
        return [
            self.point_spec(
                experiment.app, machine, experiment.topology, nprocs,
                **run_kwargs,
            )
            for (_label, machine, _metric, run_kwargs)
            in self._experiment_series(experiment)
            for nprocs in self.processors
        ]

    def prefetch(self, experiments: Sequence[Experiment]) -> None:
        """Batch-execute every point several experiments need.

        Collecting the specs of many figures into one backend batch
        maximizes worker utilization: with ``jobs=N`` the whole sweep
        keeps N simulations in flight instead of draining per figure.
        """
        specs: List[RunSpec] = []
        for experiment in experiments:
            specs.extend(self.experiment_specs(experiment))
        self.run_batch(specs)

    def run_experiment(self, experiment: Experiment) -> FigureData:
        """All series of one experiment."""
        self.prefetch([experiment])
        data = FigureData(experiment=experiment, processors=self.processors)
        for label, machine, metric, run_kwargs in (
                self._experiment_series(experiment)):
            self._series(
                data, label, experiment.app, machine, experiment.topology,
                metric, **run_kwargs,
            )
        return data
