"""Command-line interface.

::

    repro list                              # apps, machines, topologies, figures
    repro params --topology mesh -p 32      # derived LogP parameters
    repro run --app fft --machine target --topology mesh -p 8
    repro figure fig13 [--preset quick]     # regenerate one paper figure
    repro all [--preset quick] [--jobs 4]   # regenerate every figure
    repro scalability --app cg --machine target   # speedup/overhead table
    repro profile --app is -p 8             # per-processor overhead profile
    repro trace record --app fft -p 4 --out fft.trace.json
    repro trace replay fft.trace.json --machine target
    repro cache verify --cache-dir .repro-cache [--repair]

(Equivalently: ``python -m repro ...``.)

Sweep commands (``figure``, ``all``, ``scalability``) accept
``--jobs N`` to run points on a pool of worker processes, and
``--cache-dir DIR`` (or the ``REPRO_CACHE_DIR`` environment variable)
to persist completed results in a content-addressed
:class:`~repro.exec.store.ResultStore`, so re-running a command skips
already-simulated points; ``--no-cache`` disables both reading and
writing the store.  Parallel sweeps are supervised (DESIGN.md §11):
``--deadline-s`` bounds each point's wall-clock, ``--max-retries``
re-attempts transient failures with deterministic backoff, and sweep
exit codes separate "completed with failed points" (3) from "aborted"
(1) and "interrupted" (130).

Flags shared between subcommands (``--preset``, ``--topology``, ``-p``,
``--protocol``, ``--barrier``, the fault-injection group, ...) are
declared once on parent parsers and inherited, so they cannot drift
apart between commands.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .apps import APPLICATIONS
from .checkers import CHECK_LEVELS
from .config import (
    BARRIERS,
    ENGINE_KERNELS,
    MACHINES,
    PROTOCOLS,
    TOPOLOGIES,
    SystemConfig,
)
from .core.params import derive_logp
from .core.runner import simulate, simulate_spec
from .errors import ConfigError, ReproError
from .exec.policy import RetryPolicy
from .exec.store import ResultStore
from .experiments import SweepRunner, experiment_ids, get_experiment, render_figure
from .faults import FaultConfig
from .runspec import RunSpec
from .signals import raise_keyboard_interrupt_on_sigterm
from .units import ns_to_us

#: Workload presets selectable from the command line.
PRESETS = ("default", "quick")

#: Exit codes of the sweep commands.  Distinct codes let automation
#: tell "the sweep finished but some points failed" (retryable by
#: re-running with --resume) from "the sweep aborted" (needs a human).
EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_POINT_FAILURES = 3
EXIT_INTERRUPTED = 130


def _parent(*adders) -> argparse.ArgumentParser:
    """A helper-less parser holding one shared group of arguments."""
    parser = argparse.ArgumentParser(add_help=False)
    for add in adders:
        add(parser)
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=12345,
                        help="master random seed (default 12345)")
    parser.add_argument("--check", choices=CHECK_LEVELS, default=None,
                        help="runtime sanitizer level (default: the "
                             "REPRO_CHECK environment variable, or off)")


def _add_topology(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", choices=TOPOLOGIES, default="full")


def _add_processors(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-p", "--processors", type=int, default=8)


def _add_preset(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=PRESETS, default="default")


def _add_model(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", choices=PROTOCOLS,
                        default="berkeley",
                        help="coherence protocol of the cached machines")
    parser.add_argument("--barrier", choices=BARRIERS,
                        default="central", help="barrier implementation")


def _add_fault(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-drop", type=float, default=0.0,
                        metavar="RATE",
                        help="probability a network message is dropped "
                             "(default 0: no fault injection)")
    parser.add_argument("--fault-delay", type=float, default=0.0,
                        metavar="RATE",
                        help="probability a message is delayed in transit "
                             "(default 0)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        metavar="SEED",
                        help="dedicated seed for the fault RNG stream "
                             "(default: derive from the master seed)")
    parser.add_argument("--retries", type=int, default=8, metavar="N",
                        help="reliable-delivery retry cap per message "
                             "(default 8)")


def _add_sweep_exec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes executing sweep points "
                             "(default 1: serial in-process)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed result cache directory "
                             "(default: the REPRO_CACHE_DIR environment "
                             "variable, or no cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely (neither "
                             "read nor write entries)")
    parser.add_argument("--resume", metavar="CHECKPOINT", default=None,
                        help="sweep checkpoint JSON: completed points are "
                             "loaded from it and new points appended")
    parser.add_argument("--deadline-s", type=float, default=None,
                        metavar="S",
                        help="per-point wall-clock deadline: a hung point "
                             "is converted into a retryable failure "
                             "in-worker, and a truly wedged worker is "
                             "reclaimed by a pool rebuild (default: "
                             "unbounded)")
    parser.add_argument("--max-retries", type=int, default=1, metavar="N",
                        help="re-attempts for a point failing with a "
                             "transient error (worker crash, expired "
                             "deadline, exhausted ARQ); exponential "
                             "backoff with deterministic seeded jitter "
                             "(default 1)")


def _check_kwargs(args: argparse.Namespace) -> dict:
    """Sanitizer-related SystemConfig kwargs from parsed arguments.

    ``--check`` unset is *omitted* (not passed as None) so the
    ``REPRO_CHECK`` environment default still applies.
    """
    kwargs = {}
    if getattr(args, "check", None) is not None:
        kwargs["check"] = args.check
    if getattr(args, "digest", False):
        kwargs["digest"] = True
    return kwargs


def _fault_from_args(args: argparse.Namespace) -> FaultConfig:
    return FaultConfig(
        drop_rate=args.fault_drop,
        delay_rate=args.fault_delay,
        seed=args.fault_seed,
        max_retries=args.retries,
    )


def _spec_from_args(args: argparse.Namespace, **overrides) -> RunSpec:
    """The canonical RunSpec of a single-run command's arguments."""
    build_kwargs = dict(
        app=args.app,
        machine=args.machine,
        nprocs=args.processors,
        topology=args.topology,
        preset=args.preset,
        seed=args.seed,
        check=getattr(args, "check", None),
        digest=getattr(args, "digest", False),
        protocol=getattr(args, "protocol", "berkeley"),
        barrier=getattr(args, "barrier", "central"),
        adaptive_g=getattr(args, "adaptive_g", False),
        g_per_event_type=getattr(args, "g_per_event_type", False),
        batch_local=not getattr(args, "no_batch_local", False),
        fault=_fault_from_args(args) if hasattr(args, "fault_drop") else None,
        engine_kernel=getattr(args, "engine", None),
    )
    build_kwargs.update(overrides)
    return RunSpec.build(**build_kwargs)


def _cache_dir_from_args(args: argparse.Namespace) -> Optional[str]:
    """Resolve the result-store directory (None: caching disabled)."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        return cache_dir
    return os.environ.get("REPRO_CACHE_DIR") or None


def _cmd_list(_args: argparse.Namespace) -> int:
    print("applications :", ", ".join(sorted(APPLICATIONS)))
    print("machines     :", ", ".join(MACHINES))
    print("topologies   :", ", ".join(TOPOLOGIES))
    print("experiments  :", ", ".join(experiment_ids()))
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    config = SystemConfig(processors=args.processors, topology=args.topology)
    params = derive_logp(config)
    print(f"topology={args.topology} P={params.P}")
    print(f"L = {ns_to_us(params.L_ns):.2f} us")
    print(f"g = {ns_to_us(params.g_ns):.2f} us")
    print(f"o = {ns_to_us(params.o_ns):.2f} us")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    config = spec.config
    profile_engine = getattr(args, "profile_engine", False)
    if profile_engine:
        # simulate_spec discards the machine; keep it for the engine
        # counters.
        from .core.runner import simulate_full

        result, machine = simulate_full(
            spec.make_application(), spec.machine, config,
            max_events=spec.max_events,
        )
    else:
        result = simulate_spec(spec)
    print(result.summary())
    if result.check_report is not None:
        print(result.check_report.summary())
    for pid, buckets in enumerate(result.buckets):
        line = (
            f"  cpu{pid:<3d} compute={ns_to_us(buckets.compute_ns):10.1f}us "
            f"memory={ns_to_us(buckets.memory_ns):10.1f}us "
            f"latency={ns_to_us(buckets.latency_ns):10.1f}us "
            f"contention={ns_to_us(buckets.contention_ns):10.1f}us "
            f"sync={ns_to_us(buckets.sync_ns):10.1f}us"
        )
        if config.fault.enabled:
            line += f" retry={ns_to_us(buckets.retry_ns):10.1f}us"
        print(line)
    if profile_engine:
        profile = machine.sim.engine_profile()
        print("engine profile:")
        for key, value in profile.items():
            print(f"  {key:<18} {value}")
        if result.wall_seconds > 0:
            rate = profile["events_executed"] / result.wall_seconds
            print(f"  events_per_sec     {rate:,.0f}")
    return 0 if result.verified else 1


def _make_sweep_runner(
    args: argparse.Namespace,
    processors: Optional[List[int]] = None,
) -> SweepRunner:
    fault = _fault_from_args(args)
    max_retries = getattr(args, "max_retries", 1)
    return SweepRunner(
        preset=args.preset,
        processors=processors,
        seed=args.seed,
        fault=fault if fault.enabled else None,
        run_retries=max_retries,
        checkpoint_path=args.resume,
        check=getattr(args, "check", None),
        jobs=args.jobs,
        cache_dir=_cache_dir_from_args(args),
        deadline_s=getattr(args, "deadline_s", None),
        retry_policy=RetryPolicy(max_retries=max_retries,
                                 base_delay_s=0.05, seed=args.seed),
    )


def _sweep_exit(runner: SweepRunner) -> int:
    """Sweep exit code: clean, or completed-with-point-failures."""
    failures = runner.failures
    if not failures:
        return EXIT_OK
    print(f"repro: sweep completed with {len(failures)} failed point(s):",
          file=sys.stderr)
    for failure in failures:
        print(f"  {failure.summary()}", file=sys.stderr)
    return EXIT_POINT_FAILURES


def _run_figures(args: argparse.Namespace, experiment_ids_list) -> int:
    experiments = [get_experiment(eid) for eid in experiment_ids_list]
    # SIGTERM (daemons, CI runners, process supervisors) takes the
    # same unwind path as Ctrl-C: checkpoint flushed, pool torn down,
    # exit code 130.
    with raise_keyboard_interrupt_on_sigterm(), \
            _make_sweep_runner(args) as runner:
        try:
            # One batch across every requested figure keeps all --jobs
            # workers busy; rendering below is pure memo lookups.
            runner.prefetch(experiments)
            for experiment in experiments:
                print(render_figure(runner.run_experiment(experiment)))
                print()
        except KeyboardInterrupt:
            # The runner flushed its checkpoint on the way out, so
            # --resume picks the sweep back up without losing points.
            print("repro: interrupted; completed points are checkpointed",
                  file=sys.stderr)
            return EXIT_INTERRUPTED
        except ReproError as exc:
            print(f"repro: sweep aborted: {exc}", file=sys.stderr)
            return EXIT_ABORTED
        return _sweep_exit(runner)


def _cmd_figure(args: argparse.Namespace) -> int:
    return _run_figures(args, args.ids)


def _cmd_all(args: argparse.Namespace) -> int:
    return _run_figures(args, experiment_ids())


def _parse_bytes(text: str) -> int:
    """A byte count with an optional K/M/G suffix (e.g. ``512M``)."""
    scales = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    raw = text.strip()
    scale = 1
    if raw and raw[-1].upper() in scales:
        scale = scales[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = int(raw) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r} (expected e.g. 1048576, 512K, 64M, 2G)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"size must be >= 0, got {text!r}")
    return value


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    if cache_dir is None:
        raise ConfigError(
            "no cache directory to collect; pass --cache-dir or set "
            "REPRO_CACHE_DIR"
        )
    store = ResultStore(cache_dir)
    report = store.gc(args.max_bytes)
    print(report.summary())
    return EXIT_OK if report.within_budget else EXIT_ABORTED


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=_cache_dir_from_args(args),
        max_queue=args.max_queue,
        deadline_s=args.deadline_s,
        request_timeout_s=args.request_timeout_s,
        max_retries=args.max_retries,
        breaker_rebuilds=args.breaker_rebuilds,
        breaker_cooldown_s=args.breaker_cooldown_s,
        drain_s=args.drain_s,
        max_store_bytes=args.max_store_bytes,
        seed=args.seed,
    )
    return serve(config)


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    if cache_dir is None:
        raise ConfigError(
            "no cache directory to verify; pass --cache-dir or set "
            "REPRO_CACHE_DIR"
        )
    store = ResultStore(cache_dir)
    report = store.verify(repair=args.repair)
    print(report.summary())
    if report.corrupt and not args.repair:
        print("repro: corrupt entries were quarantined; re-run with "
              "--repair to re-simulate them", file=sys.stderr)
    return EXIT_OK if report.healthy else EXIT_ABORTED


def _cmd_scalability(args: argparse.Namespace) -> int:
    from .analysis import scalability_table

    with raise_keyboard_interrupt_on_sigterm(), \
            _make_sweep_runner(args, processors=args.sweep) as runner:
        specs = [
            runner.point_spec(
                args.app, args.machine, args.topology, nprocs,
                protocol=args.protocol, barrier=args.barrier,
            )
            for nprocs in args.sweep
        ]
        runner.run_batch(specs)
        results = [
            runner.run_one(
                args.app, args.machine, args.topology, nprocs,
                protocol=args.protocol, barrier=args.barrier,
            )
            for nprocs in args.sweep
        ]
    print(
        f"{args.app} on {args.machine}/{args.topology} "
        f"({args.preset} workload)"
    )
    print(scalability_table(results))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .analysis import profile_table

    result = simulate_spec(_spec_from_args(args, fault=None))
    print(profile_table(result))
    return 0 if result.verified else 1


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .trace import record_trace, save_trace

    spec = _spec_from_args(args, fault=None)
    result, trace = record_trace(
        spec.make_application(), spec.machine, spec.config
    )
    save_trace(trace, args.out)
    print(result.summary())
    print(
        f"recorded {trace.total_operations} operations from "
        f"{trace.nprocs} processors to {args.out}"
    )
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from .trace import TraceApplication, load_trace

    trace = load_trace(args.trace_file)
    config = SystemConfig(
        processors=trace.nprocs, topology=args.topology, seed=args.seed,
        **_check_kwargs(args),
    )
    result = simulate(TraceApplication(trace), args.machine, config)
    print(result.summary())
    if args.machine != trace.recorded_on:
        print(
            f"note: trace was recorded on {trace.recorded_on!r}; replaying "
            f"on {args.machine!r} is the trace-driven approximation"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Abstracting Network Characteristics and "
            "Locality Properties of Parallel Systems' (HPCA 1995)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared argument groups, declared once (see module docstring).
    common = _parent(_add_common)
    topology = _parent(_add_topology)
    processors = _parent(_add_processors)
    preset = _parent(_add_preset)
    model = _parent(_add_model)
    fault = _parent(_add_fault)
    sweep_exec = _parent(_add_sweep_exec)

    p_list = sub.add_parser("list", help="list apps/machines/experiments")
    p_list.set_defaults(func=_cmd_list)

    p_params = sub.add_parser("params", help="show derived LogP parameters",
                              parents=[topology, processors])
    p_params.set_defaults(func=_cmd_params)

    p_run = sub.add_parser(
        "run", help="one simulation",
        parents=[topology, processors, preset, model, common, fault],
    )
    p_run.add_argument("--app", choices=sorted(APPLICATIONS), required=True)
    p_run.add_argument("--machine", choices=MACHINES, default="target")
    p_run.add_argument("--adaptive-g", action="store_true",
                       help="history-based g estimation (Section 7)")
    p_run.add_argument("--g-per-event-type", action="store_true",
                       help="apply g only between identical event types")
    p_run.add_argument("--engine", choices=ENGINE_KERNELS, default=None,
                       help="event-kernel selection: compiled (the "
                            "struct-of-arrays core driven by the C "
                            "extension), soa (the same core in pure "
                            "Python), object (the reference kernel), or "
                            "auto (default: REPRO_ENGINE, else compiled "
                            "when the extension is built, else soa)")
    p_run.add_argument("--profile-engine", action="store_true",
                       help="print the engine's internal activity "
                            "counters (active kernel, event counts by "
                            "source, events/sec) after the run")
    p_run.add_argument("--no-batch-local", action="store_true",
                       help="release accumulated local time (compute "
                            "quanta, cache hits) after every operation "
                            "instead of batching until the next "
                            "externally visible interaction")
    p_run.add_argument("--digest", action="store_true",
                       help="compute and print the determinism digest "
                            "(runs on the selected kernel; the value is "
                            "the same on every kernel)")
    p_run.set_defaults(func=_cmd_run)

    p_figure = sub.add_parser(
        "figure", help="regenerate paper figures",
        parents=[preset, common, fault, sweep_exec],
    )
    p_figure.add_argument("ids", nargs="+", metavar="FIG",
                          help=f"one of {', '.join(experiment_ids())}")
    p_figure.set_defaults(func=_cmd_figure)

    p_all = sub.add_parser(
        "all", help="regenerate every figure",
        parents=[preset, common, fault, sweep_exec],
    )
    p_all.set_defaults(func=_cmd_all)

    p_scal = sub.add_parser(
        "scalability", help="speedup/efficiency/overhead sweep",
        parents=[topology, preset, model, common, fault, sweep_exec],
    )
    p_scal.add_argument("--app", choices=sorted(APPLICATIONS), required=True)
    p_scal.add_argument("--machine", choices=MACHINES, default="target")
    p_scal.add_argument(
        "--sweep", type=lambda s: [int(x) for x in s.split(",")],
        default=[1, 2, 4, 8, 16],
        help="comma-separated processor counts (default 1,2,4,8,16)",
    )
    p_scal.set_defaults(func=_cmd_scalability)

    p_prof = sub.add_parser(
        "profile", help="per-processor overhead profile of one run",
        parents=[topology, processors, preset, common],
    )
    p_prof.add_argument("--app", choices=sorted(APPLICATIONS), required=True)
    p_prof.add_argument("--machine", choices=MACHINES, default="target")
    p_prof.set_defaults(func=_cmd_profile)

    p_cache = sub.add_parser("cache", help="result-store maintenance")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_verify = cache_sub.add_parser(
        "verify",
        help="audit every store entry's checksum; quarantine "
             "(and with --repair re-simulate) corrupt entries",
    )
    p_verify.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="store to audit (default: REPRO_CACHE_DIR)")
    p_verify.add_argument("--repair", action="store_true",
                          help="re-simulate quarantined entries from their "
                               "embedded specs and rewrite them")
    p_verify.set_defaults(func=_cmd_cache_verify)

    p_gc = cache_sub.add_parser(
        "gc",
        help="evict least-recently-used store entries until the store "
             "fits a byte budget (also removes quarantine/tmp debris)",
    )
    p_gc.add_argument("--cache-dir", metavar="DIR", default=None,
                      help="store to collect (default: REPRO_CACHE_DIR)")
    p_gc.add_argument("--max-bytes", type=_parse_bytes, required=True,
                      metavar="N",
                      help="byte budget; accepts K/M/G suffixes (e.g. 64M)")
    p_gc.set_defaults(func=_cmd_cache_gc)

    p_serve = sub.add_parser(
        "serve",
        help="simulation-as-a-service HTTP daemon (warm answers from "
             "the result store, cold misses over a supervised pool)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="TCP port; 0 binds an ephemeral port and "
                              "prints the choice (default 8765)")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="worker processes in the pool (default 2)")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="result store backing warm requests "
                              "(default: REPRO_CACHE_DIR; no store means "
                              "every request simulates)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve without a result store even if "
                              "REPRO_CACHE_DIR is set")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="cold requests admitted beyond the pool "
                              "before shedding with 429 (default 64)")
    p_serve.add_argument("--deadline-s", type=float, default=None,
                         help="per-point wall-clock deadline inside the "
                              "pool (default: none)")
    p_serve.add_argument("--request-timeout-s", type=float, default=60.0,
                         help="cap on any single request's wait, "
                              "including queueing (default 60)")
    p_serve.add_argument("--max-retries", type=int, default=1,
                         help="transient-failure retries per point "
                              "(default 1)")
    p_serve.add_argument("--breaker-rebuilds", type=int, default=3,
                         help="consecutive pool rebuilds before the "
                              "circuit breaker trips to warm-only mode "
                              "(default 3)")
    p_serve.add_argument("--breaker-cooldown-s", type=float, default=5.0,
                         help="seconds the breaker stays open before "
                              "admitting a half-open probe (default 5)")
    p_serve.add_argument("--drain-s", type=float, default=10.0,
                         help="graceful-drain deadline after SIGTERM/"
                              "SIGINT (default 10)")
    p_serve.add_argument("--max-store-bytes", type=_parse_bytes,
                         default=None, metavar="N",
                         help="store size budget reported by /readyz; "
                              "accepts K/M/G suffixes")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="seed for retry backoff jitter (default 0)")
    p_serve.set_defaults(func=_cmd_serve)

    p_trace = sub.add_parser("trace", help="record / replay traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_record = trace_sub.add_parser(
        "record", help="record a trace",
        parents=[topology, processors, preset, common],
    )
    p_record.add_argument("--app", choices=sorted(APPLICATIONS),
                          required=True)
    p_record.add_argument("--machine", choices=MACHINES, default="clogp")
    p_record.add_argument("--out", required=True, help="output JSON path")
    p_record.set_defaults(func=_cmd_trace_record, processors=4,
                          preset="quick")

    p_replay = trace_sub.add_parser(
        "replay", help="replay a trace", parents=[topology, common],
    )
    p_replay.add_argument("trace_file", help="trace JSON path")
    p_replay.add_argument("--machine", choices=MACHINES, default="target")
    p_replay.set_defaults(func=_cmd_trace_replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
