"""One workload, one fresh process: set up, run passes, check, report.

``bench/run.py`` starts this file once per measurement with a scrubbed
environment and ``PYTHONPATH=src``.  The last line of standard output
is one JSON object (see :func:`main`); everything above it is noise
from the program under test.

Modes:

``timed``   set up, then repeat passes until ``--seconds`` are spent
            (tracing off: this is where every end-to-end number comes
            from), then run the workload's correctness checks;
``setup``   set up and exit -- lets the parent take ``setup_s`` as a
            median over several fresh processes;
``traced``  set up, then one untraced reference pass, one pass under
            the span/count wrappers and one pass under ``cProfile``;
``strict``  one ``check="strict"`` pass of the quick target specs
            (``checkers.strict_s``; not a workload).
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ledger import (
    APPS5, EXACT_COUNTS, IN_PROCESS, SIM_SEED, layer_metric,
)

#: Back-to-back CLI invocations in one sweep-warm sample (one takes
#: about 50 ms, too short to time alone).
WARM_CALLS = 20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """What the passes of one workload did, and whether they agree."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.points = 0
        self.violations: List[str] = []
        self.tiers: set = set()
        #: First pass's observation; later passes must equal it.
        self.reference = None
        #: Exact simulated totals of one pass (point workloads).
        self.sim: Dict[str, int] = {}

    def agree(self, observation, what: str) -> None:
        if self.reference is None:
            self.reference = observation
        elif observation != self.reference:
            self.violations.append(f"{what} differs between passes")


def fingerprint(result) -> Dict:
    """The deterministic part of a RunResult, small enough to compare."""
    buckets = json.dumps([b.as_dict() for b in result.buckets],
                         sort_keys=True)
    report = result.check_report
    return {
        "app": result.app,
        "events": int(result.sim_events),
        "messages": int(result.messages),
        "time_ns": int(result.total_ns),
        "buckets": hashlib.blake2b(buckets.encode(),
                                   digest_size=8).hexdigest(),
        "digest": report.digest if report is not None else None,
    }


class PointWorkload:
    """``simulate_spec`` over the five apps at p=16 on the mesh."""

    def __init__(self, machine: str, digest: bool, seed: int, smoke: bool,
                 preset: str = "default", check: Optional[str] = None):
        from repro.runspec import RunSpec

        apps = list(APPS5[:2] if smoke else APPS5)
        random.Random(seed).shuffle(apps)
        self.machine, self.digest, self.seed, self.smoke = (
            machine, digest, seed, smoke)
        self.specs = [
            RunSpec.build(app, machine, 16, "mesh", preset=preset,
                          seed=SIM_SEED, digest=digest, check=check)
            for app in apps
        ]
        self.outcome = Outcome()

    def setup(self) -> None:
        self.one_pass()           # warm-up: lazy imports, memo tables

    def one_pass(self) -> None:
        from repro.core.runner import simulate_spec
        from repro.errors import ReproError

        out = self.outcome
        prints = []
        for spec in self.specs:
            out.attempted += 1
            try:
                result = simulate_spec(spec)
            except ReproError as exc:
                out.failed += 1
                out.violations.append(f"{spec.describe()}: {exc!r}")
                continue
            out.points += 1
            if not result.verified:
                out.failed += 1
                out.violations.append(f"{spec.describe()}: unverified")
            out.tiers.add(result.engine["kernel"])
            prints.append(fingerprint(result))
        out.agree(prints, "simulated counts, buckets or digest")
        out.sim = {
            key: sum(p[key] for p in prints)
            for key in ("events", "messages", "time_ns")
        }

    def finish(self) -> None:
        """Cross-kernel parity: the hooked run equals the un-hooked one."""
        if not self.digest:
            return
        out = self.outcome
        plain = PointWorkload(self.machine, False, self.seed, self.smoke)
        plain.one_pass()
        out.violations.extend(plain.outcome.violations)
        hooked = [dict(p, digest=None) for p in out.reference]
        if hooked != plain.outcome.reference:
            out.violations.append(
                "point-digest and point-target disagree on simulated "
                "counts or buckets"
            )
        if any(p["digest"] is None for p in out.reference):
            out.violations.append("digest run produced no digest")


class SweepWorkload:
    """``repro figure <every figure>`` through ``repro.cli.main``."""

    def __init__(self, warm: bool, seed: int, smoke: bool, scratch: Path):
        from repro.experiments import experiment_ids

        ids = experiment_ids()
        if smoke:
            ids = ids[:2]
        # Same set of points in any order: prefetch batches them all.
        random.Random(seed).shuffle(ids)
        self.argv = ["figure", *ids, "--preset", "quick",
                     "--seed", str(SIM_SEED)]
        self.warm = warm
        self.calls = 1 if not warm else (2 if smoke else WARM_CALLS)
        self.scratch = scratch
        self.store: Optional[Path] = None
        self.entries = 0
        self.outcome = Outcome()

    def _cli(self, extra: List[str]) -> str:
        from repro.cli import main

        out = self.outcome
        out.attempted += 1
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(self.argv + extra)
        if code != 0:
            out.failed += 1
            out.violations.append(f"repro {' '.join(self.argv)}: exit {code}")
        return buffer.getvalue()

    def _count_entries(self) -> int:
        from repro.exec.store import ResultStore

        return len(ResultStore(self.store).entry_paths())

    def _fresh_store(self) -> None:
        # Old stores stay until the child removes its scratch directory:
        # deleting 108 files is not part of what a pass measures.
        self.store = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))

    def setup(self) -> None:
        if self.warm:
            self._fresh_store()
            self.outcome.agree(self._cli(["--cache-dir", str(self.store)]),
                               "figure output")
            self.entries = self._count_entries()

    def one_pass(self) -> None:
        out = self.outcome
        if not self.warm:
            self._fresh_store()
        for _ in range(self.calls):
            out.agree(self._cli(["--cache-dir", str(self.store)]),
                      "figure output (cold vs warm, or pass vs pass)")
        if not self.warm:
            self.entries = self._count_entries()
        out.points += self.entries * self.calls

    def nostore_pass(self) -> None:
        self.outcome.agree(self._cli(["--no-cache"]), "figure output")

    def store_bytes(self) -> int:
        from repro.exec.store import ResultStore

        return ResultStore(self.store).size_bytes()

    def finish(self) -> None:
        if self.warm and self._count_entries() != self.entries:
            self.outcome.violations.append(
                "a warm pass added store entries: something was simulated"
            )
        if self.entries == 0:
            self.outcome.violations.append("the sweep stored no results")


def make_workload(name: str, seed: int, smoke: bool, scratch: Path):
    if name == "sweep-cold":
        return SweepWorkload(False, seed, smoke, scratch)
    if name == "sweep-warm":
        return SweepWorkload(True, seed, smoke, scratch)
    machine = {"point-target": "target", "point-clogp": "clogp",
               "point-logp": "logp", "point-digest": "target"}[name]
    return PointWorkload(machine, name == "point-digest", seed, smoke)


# -- modes ----------------------------------------------------------------------


def timed(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def run_timed(workload, seconds: float, smoke: bool) -> List[float]:
    passes: List[float] = []
    budget_end = time.perf_counter() + seconds
    while not passes or (not smoke and time.perf_counter() < budget_end):
        passes.append(timed(workload.one_pass))
    return passes


def run_traced(workload, name: str, trace_out: Path) -> Dict:
    """Reference pass, span/count pass, profiled pass -> layer metrics."""
    import repro
    from tracing import Tracer, model_errors, profile_layers

    src_root = str(Path(repro.__file__).resolve().parent)
    reference_s = timed(workload.one_pass)
    metrics: Dict[str, float] = {}
    if name == "sweep-cold":
        metrics["sweep.nostore_wall_s"] = timed(workload.nostore_pass)

    tracer = Tracer(run_id=f"{name}-{os.getpid()}")
    tracer.install()
    try:
        span_s = timed(workload.one_pass)
    finally:
        tracer.uninstall()
    metrics.update(tracer.span_metrics())
    metrics.update(dict.fromkeys(EXACT_COUNTS, 0), **tracer.counts)
    if isinstance(workload, SweepWorkload):
        # One simulate_full call per point the runner actually ran.
        metrics["experiments.simulated"] = tracer.counts.get("sim.runs", 0)
        metrics["exec.store_bytes"] = workload.store_bytes()
        if workload.warm and tracer.counts.get("sim.runs", 0):
            workload.outcome.violations.append(
                "experiments.simulated != 0 on a warm pass")
        if not workload.warm:
            metrics.update(model_errors(tracer.results))

    profile = cProfile.Profile()
    profile.enable()
    try:
        profiled_s = timed(workload.one_pass)
    finally:
        profile.disable()
    attributed = 0.0
    for layer, values in profile_layers(profile, src_root).items():
        metrics[layer_metric(layer, "self_s")] = values["self_s"]
        metrics[layer_metric(layer, "calls")] = values["calls"]
        attributed += values["self_s"]

    events = tracer.counts.get("sim.events", 0)
    messages = tracer.counts.get("sim.messages", 0)
    hits = tracer.counts.get("memory.cache_hits", 0)
    refs = hits + tracer.counts.get("memory.cache_misses", 0)
    host_ns = reference_s * 1e9
    metrics.update({
        "host_ns_per_event": host_ns / events if events else 0.0,
        "host_ns_per_msg": host_ns / messages if messages else 0.0,
        "host_ns_per_ref": host_ns / refs if refs else 0.0,
        "memory.hit_ratio": hits / refs if refs else 0.0,
        "trace.reference_wall_s": reference_s,
        "trace.span_wall_s": span_s,
        "trace.profiled_wall_s": profiled_s,
        "trace.overhead_ratio": profiled_s / reference_s,
        "trace.attributed_ratio": attributed / profiled_s,
    })
    trace_out.write_text(json.dumps(tracer.dump()))
    return metrics


def run_strict(smoke: bool) -> Tuple[float, PointWorkload]:
    workload = PointWorkload("target", False, SIM_SEED, smoke,
                             preset="quick", check="strict")
    return timed(workload.one_pass), workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=IN_PROCESS)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "setup", "traced", "strict"))
    parser.add_argument("--seed", type=int, default=SIM_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent started us")
    parser.add_argument("--scratch", required=True,
                        help="directory for stores and traces")
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="child-", dir=args.scratch))
    record: Dict = {"workload": args.workload, "mode": args.mode,
                    "seed": args.seed}
    try:
        if args.mode == "strict":
            seconds, workload = run_strict(args.smoke)
            record["metrics"] = {"checkers.strict_s": seconds}
        else:
            workload = make_workload(args.workload, args.seed, args.smoke,
                                     scratch)
            workload.setup()
            record["setup_s"] = time.time() - args.spawned_at
            workload.outcome.points = 0      # set-up answers are not timed
            if args.mode == "timed":
                passes = run_timed(workload, args.seconds, args.smoke)
                record["passes_s"] = passes
                # Points of one pass over the median pass: as steady as
                # wall_s, where total / total would follow the slowest.
                record["points_per_s"] = (
                    workload.outcome.points / len(passes)
                    / statistics.median(passes)
                )
            elif args.mode == "traced":
                record["metrics"] = run_traced(
                    workload, args.workload,
                    Path(args.scratch) / f"trace-{args.workload}.json",
                )
        record["peak_rss_mb"] = peak_rss_mb()
        if args.mode in ("timed", "traced"):
            workload.finish()
        outcome = workload.outcome
        record.update({
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "violations": outcome.violations,
            "tiers": sorted(outcome.tiers),
            "sim": outcome.sim,
        })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
