"""The benchmark: seven workloads, end-to-end metrics, a per-layer ledger.

From the repository root::

    python bench/run.py                    # every workload, timed
    python bench/run.py --traced           # ... plus the per-layer run
    python bench/run.py --seed 7 --out results.json
    python bench/run.py --compare A.json B.json
    python bench/run.py --selfcheck        # same code twice, own bounds
    python bench/run.py --smoke            # seconds, every metric, no rigor

and, as ``BENCHMARK.json`` tells the driver::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

which prints one JSON object as the last line of standard output.

Every measurement runs in a fresh child process (``bench/child.py``,
``bench/serve.py``) with ``REPRO_*`` removed from the environment and
``PYTHONPATH`` pointing at ``src/``; nothing outside ``bench/`` is
modified except the in-place build of the optional C extension, which
the repository's own CI does the same way.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

sys.path.insert(0, str(HERE))

from ledger import (  # noqa: E402
    ALL, DRIVER_END_TO_END, END_TO_END, END_TO_END_BY_NAME, EXACT_COUNTS,
    PER_LAYER, PER_LAYER_BY_NAME, RUN_SECONDS, SIM_SEED, WORKLOADS,
)
from stats import summarize, verdict  # noqa: E402

#: Environment knobs that would silently change what is measured.
SCRUBBED = ("REPRO_ENGINE", "REPRO_CHECK", "REPRO_CSOA", "REPRO_CACHE_DIR")

#: ``setup_s`` is the median over up to this many fresh processes ...
SETUPS = 3

#: ... as long as the extra set-ups fit in this many seconds: a 0.3 s
#: set-up is cheap to repeat and noisy alone; a 4 s one is neither.
SETUP_BUDGET_S = 3.0

#: Hard stop for one child (the driver allows a run 180 s in all).
CHILD_TIMEOUT_S = 150

#: Workloads that must run on the compiled tier when a compiler exists
#: (point-digest installs hooks, which force the object kernel).
COMPILED_WORKLOADS = ("point-target", "point-clogp", "point-logp",
                      "serve-mixed")


class BenchError(Exception):
    """The benchmark could not produce a trustworthy number."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- child processes ------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(workload: Optional[str], mode: str, seed: int, seconds: float,
              smoke: bool) -> Dict:
    """Start one measuring process and return the record it printed."""
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    if workload == "serve-mixed":
        command = [sys.executable, str(HERE / "serve.py")]
        mode = "setup" if mode == "setup" else "timed"
    else:
        command = [sys.executable, str(HERE / "child.py")]
        if workload is not None:
            command += ["--workload", workload]
    command += ["--mode", mode, "--seed", str(seed),
                "--seconds", str(seconds), "--scratch", str(scratch)]
    if smoke:
        command.append("--smoke")
    command += ["--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} ({mode}) exceeded "
                         f"{CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} ({mode}) exited {done.returncode}:\n"
            + done.stderr[-2000:]
        )
    return json.loads(lines[-1])


# -- provenance and the compiled tier -------------------------------------------


def _extension_fingerprint() -> str:
    digest = hashlib.sha256(sys.version.encode())
    for path in (SRC / "repro" / "engine" / "_csoa.c", ROOT / "setup.py"):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def prepare(force: bool) -> Dict:
    """Build the C extension if a compiler exists; record what will run.

    ``force`` rebuilds unconditionally (the full run, so
    ``engine.build_ext_s`` is always measured); otherwise the extension
    is rebuilt only when its sources changed since the last build in
    this checkout, so the driver's many runs pay for one build.
    """
    compiler = shutil.which(os.environ.get("CC", "cc")) or shutil.which("gcc")
    build_s = 0.0
    stamp = BUILD / "csoa.stamp"
    built = list((SRC / "repro" / "engine").glob("_csoa*.so"))
    fingerprint = _extension_fingerprint()
    stale = not built or not stamp.exists() \
        or stamp.read_text() != fingerprint
    if compiler and (force or stale):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
            cwd=ROOT, capture_output=True, text=True,
        )
        build_s = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError("build_ext failed:\n" + done.stderr[-2000:])
        BUILD.mkdir(exist_ok=True)
        stamp.write_text(fingerprint)
    probe = subprocess.run(
        [sys.executable, "-c",
         "from repro.engine import resolve_kernel; print(resolve_kernel())"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
    )
    if probe.returncode != 0:
        raise BenchError("cannot import repro:\n" + probe.stderr[-2000:])
    tier = probe.stdout.strip()
    if compiler and tier != "compiled":
        raise BenchError(
            f"a C compiler exists ({compiler}) but the engine resolves to "
            f"{tier!r}: refusing to benchmark a silent downgrade"
        )
    commit = "unknown"
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
    return {
        "tier": tier,
        "compiler": compiler,
        "engine.build_ext_s": build_s,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "hardware_reference": "none: unvalidated against hardware",
    }


# -- one workload ----------------------------------------------------------------


def _check(record: Dict, provenance: Dict, workload: str) -> List[str]:
    problems = list(record.get("violations", ()))
    tiers = record.get("tiers") or []
    if provenance["compiler"] and workload in COMPILED_WORKLOADS \
            and record.get("mode") != "setup" and tiers != ["compiled"]:
        problems.append(f"ran on tier {tiers}, not the compiled one")
    return problems


def measure(workload: str, seed: int, seconds: float, smoke: bool,
            provenance: Dict) -> Dict:
    """The timed (tracing off) run of one workload."""
    main = run_child(workload, "timed", seed, seconds, smoke)
    records = [main]
    spent = 0.0
    while not smoke and len(records) < SETUPS \
            and spent + records[-1]["setup_s"] <= SETUP_BUDGET_S:
        records.append(run_child(workload, "setup", seed, seconds, smoke))
        spent += records[-1]["setup_s"]
    problems = [p for r in records for p in _check(r, provenance, workload)]
    passes = main["passes_s"]
    samples = {"setup_s": [r["setup_s"] for r in records], "wall_s": passes}
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": statistics.median(passes),
        "peak_rss_mb": main["peak_rss_mb"],
        "points_per_s": main["points_per_s"],
        "fail_ratio": main["failed"] / main["attempted"],
    }
    metrics.update(main.get("end_to_end", {}))
    summary = {name: summarize(values) for name, values in samples.items()}
    return {
        "workload": workload, "seed": seed,
        "metrics": metrics, "samples": samples, "summary": summary,
        "attempted": main["attempted"], "failed": main["failed"],
        "violations": problems, "tiers": main["tiers"], "sim": main["sim"],
        # serve-mixed only: what its traced run would report.
        "service": {**main.get("metrics", {}), **main.get("end_to_end", {})},
    }


def trace(workload: str, seed: int, seconds: float, smoke: bool,
          provenance: Dict) -> Dict:
    """The traced run of one workload: per-layer metrics, ungated.

    The daemon of serve-mixed is a separate program with no tracing to
    switch on: its per-layer numbers are client-side percentiles and
    ``/stats`` reads taken between the phases of an ordinary run.
    """
    record = run_child(workload, "traced", seed, seconds, smoke)
    metrics = dict(record.get("metrics", {}))
    metrics.update(record.get("end_to_end", {}))
    return {
        "workload": workload, "seed": seed, "metrics": metrics,
        "attempted": record["attempted"], "failed": record["failed"],
        "violations": _check(record, provenance, workload),
    }


# -- driver mode ------------------------------------------------------------------


def driver_run(args) -> int:
    provenance = prepare(force=False)
    if args.trace:
        result = trace(args.workload, args.seed, args.seconds, False,
                       provenance)
        metrics = {
            m.name: {"value": result["metrics"].get(m.name, 0), "unit": m.unit}
            for m in PER_LAYER if m.driver
        }
    else:
        result = measure(args.workload, args.seed, args.seconds, False,
                         provenance)
        metrics = {
            name: {"value": result["metrics"][name],
                   "unit": END_TO_END_BY_NAME[name].unit}
            for name in DRIVER_END_TO_END
        }
    for problem in result["violations"]:
        log(f"bench: {args.workload}: {problem}")
    correct = not result["violations"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- the full run -------------------------------------------------------------------


def cross_checks(timed: Dict[str, Dict]) -> List[str]:
    """Checks that need two workloads' results."""
    problems = []
    if "point-target" in timed and "point-digest" in timed and \
            timed["point-target"]["sim"] != timed["point-digest"]["sim"]:
        problems.append(
            "point-digest and point-target disagree on sim.events / "
            "sim.messages / sim.time_ns"
        )
    return problems


def cross_metrics(timed: Dict[str, Dict],
                  traced: Dict[str, Dict]) -> Dict[str, float]:
    """The paper's simulation-cost ratios and other two-workload numbers."""
    out: Dict[str, float] = {}

    def wall(name: str) -> Optional[float]:
        return timed[name]["metrics"]["wall_s"] if name in timed else None

    target = wall("point-target")
    for name, workload in (("cost.clogp_over_target", "point-clogp"),
                           ("cost.logp_over_target", "point-logp"),
                           ("cost.digest_over_target", "point-digest")):
        if target and wall(workload):
            out[name] = wall(workload) / target
    nostore = traced.get("sweep-cold", {}).get("metrics", {}) \
        .get("sweep.nostore_wall_s")
    if nostore is not None and wall("sweep-cold"):
        out["cost.store_write_s"] = wall("sweep-cold") - nostore
    return out


def full_run(seed: int, seconds: float, smoke: bool, traced: bool) -> Dict:
    provenance = prepare(force=True)
    provenance["seed"] = seed
    log(f"bench: tier={provenance['tier']} python={provenance['python']} "
        f"nproc={provenance['nproc']} commit={provenance['commit'][:12]} "
        f"seed={seed} (build_ext {provenance['engine.build_ext_s']:.2f} s)")
    result: Dict = {"provenance": provenance, "workloads": {}, "traced": {},
                    "violations": []}
    for name in ALL:
        log(f"bench: {name} ...")
        result["workloads"][name] = measure(name, seed, seconds, smoke,
                                            provenance)
    if traced:
        for name in ALL:
            if name == "serve-mixed":      # its timed run already has them
                result["traced"][name] = {
                    "workload": name, "seed": seed, "violations": [],
                    "metrics": result["workloads"][name]["service"],
                }
                continue
            log(f"bench: {name} (traced) ...")
            result["traced"][name] = trace(name, seed, seconds, smoke,
                                           provenance)
        strict = run_child(None, "strict", seed, seconds, smoke)
        result["cross"] = dict(strict["metrics"])
        result["cross"]["engine.build_ext_s"] = \
            provenance["engine.build_ext_s"]
        result["violations"] += strict["violations"]
    result.setdefault("cross", {}).update(
        cross_metrics(result["workloads"], result["traced"]))
    result["violations"] += cross_checks(result["workloads"])
    for group in ("workloads", "traced"):
        for name, entry in result[group].items():
            result["violations"] += [f"{name}: {p}"
                                     for p in entry["violations"]]
    return result


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 10:
        return f"{int(value)}"
    return f"{value:.4g}"


def print_report(result: Dict) -> None:
    print("end-to-end (tracing off)")
    print(f"  {'workload':<13} {'metric':<15} {'value':>10} {'unit':<6} "
          f"q1..q3 [min..max] n, tail")
    for name, entry in result["workloads"].items():
        for metric in END_TO_END:
            if name not in metric.workloads:
                continue
            value = entry["metrics"][metric.name]
            line = (f"  {name:<13} {metric.name:<15} {_fmt(value):>10} "
                    f"{metric.unit:<6}")
            summary = entry["summary"].get(metric.name)
            if summary and "q1" in summary:
                line += (f" {_fmt(summary['q1'])}..{_fmt(summary['q3'])} "
                         f"[{_fmt(summary['min'])}..{_fmt(summary['max'])}] "
                         f"n={summary['n']}")
                if "tail" in summary:
                    line += (f", p{summary['tail']['p']:g}="
                             f"{_fmt(summary['tail']['value'])}")
            print(line)
    if result["traced"]:
        print("per-layer (traced run; not gated; model errors are against "
              "the detailed target -- unvalidated against hardware)")
        for name, entry in result["traced"].items():
            for metric in PER_LAYER:
                value = entry["metrics"].get(metric.name)
                if value is not None and (value or name in metric.on):
                    print(f"  {name:<13} {metric.name:<30} "
                          f"{_fmt(value):>12} {metric.unit}")
    if result.get("cross"):
        print("cross-workload")
        for key, value in result["cross"].items():
            unit = PER_LAYER_BY_NAME[key].unit
            print(f"  {'':<13} {key:<30} {_fmt(value):>12} {unit}")
    for problem in result["violations"]:
        print(f"VIOLATION {problem}")


# -- comparing two result files ---------------------------------------------------------


def compare(base: Dict, cand: Dict, strict: bool = False) -> int:
    """Apply each metric's own bound and direction; 0 when nothing regressed.

    ``strict`` (``--selfcheck``: both sides are the same code) also
    fails on "improved" and "unresolved": any difference beyond the
    bound means the instrument, not the program, moved.
    """
    tiers = (base["provenance"]["tier"], cand["provenance"]["tier"])
    if tiers[0] != tiers[1]:
        print(f"refusing to compare: engine tiers differ ({tiers[0]} vs "
              f"{tiers[1]})")
        return 2
    same_seed = base["provenance"]["seed"] == cand["provenance"]["seed"]
    if not same_seed:
        print("seeds differ: applying the cross-seed bounds of BENCHMARK.json")
    bad = 0
    print(f"  {'workload':<13} {'metric':<15} {'base':>10} {'cand':>10} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for name in base["workloads"]:
        if name not in cand["workloads"]:
            continue
        b, c = base["workloads"][name], cand["workloads"][name]
        for metric in END_TO_END:
            if name not in metric.workloads:
                continue
            one = {**b["summary"].get(metric.name, {}),
                   "median": b["metrics"][metric.name]}
            two = {**c["summary"].get(metric.name, {}),
                   "median": c["metrics"][metric.name]}
            row = verdict(metric.name, metric.better,
                          metric.bound_for(name, same_seed),
                          one, two,
                          b["samples"].get(metric.name, ()),
                          c["samples"].get(metric.name, ()))
            if row["verdict"] == "regressed" or \
                    (strict and row["verdict"] != "ok"):
                bad += 1
            print(f"  {name:<13} {metric.name:<15} {_fmt(row['base']):>10} "
                  f"{_fmt(row['cand']):>10} {row['worse_by']:>+9.1%} "
                  f"{row['spread']:>7.1%} {row['bound']:>6.0%}  "
                  f"{row['verdict']}")
        if b["sim"] != c["sim"]:
            bad += 1
            print(f"  {name:<13} exact simulated counts moved: "
                  f"{b['sim']} -> {c['sim']}")
        bt = base.get("traced", {}).get(name, {}).get("metrics", {})
        ct = cand.get("traced", {}).get(name, {}).get("metrics", {})
        for key in EXACT_COUNTS:
            if key in bt and key in ct and bt[key] != ct[key]:
                bad += 1
                print(f"  {name:<13} {key} moved: {bt[key]} -> {ct[key]}")
    print("regressions: " + str(bad) if bad else "no regression")
    return 1 if bad else 0


# -- entry point ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print the driver's JSON")
    parser.add_argument("--seed", type=int, default=SIM_SEED,
                        help="orders operations (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="seconds of timed passes per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="full run: add the per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="1 pass, 2 apps, 200 warm requests, traced")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the timed benchmark twice and compare")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files with the ledger's bounds")
    parser.add_argument("--out", help="write the full run's results as JSON")
    args = parser.parse_args(argv)

    if args.compare:
        base, cand = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(base, cand)
    if not (SRC / "repro" / "__init__.py").exists():
        log(f"bench: {SRC / 'repro'} not found: nothing to measure")
        return 2
    try:
        if args.workload:
            return driver_run(args)
        if args.selfcheck:
            first = full_run(args.seed, args.seconds, False, False)
            second = full_run(args.seed, args.seconds, False, False)
            for label, result in (("first", first), ("second", second)):
                print(f"== {label} set")
                print_report(result)
            print("== second set against the first")
            code = compare(first, second, strict=True)
            return code or (1 if first["violations"] or second["violations"]
                            else 0)
        result = full_run(args.seed, args.seconds, args.smoke,
                          args.traced or args.smoke)
    except BenchError as exc:
        log(f"bench: {exc}")
        return 1
    print_report(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if result["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
