"""Tests of the benchmark itself (``pytest bench/ -q``; not tier-1).

The repository's ``testpaths`` is ``tests/``, so a plain ``pytest``
never collects this file: it costs tier-1 nothing.
"""

from __future__ import annotations

import cProfile
import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import ledger
import run as bench_run
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# -- schema ------------------------------------------------------------------------


def test_benchmark_json_is_the_ledgers_projection():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == ledger.benchmark_json()


def test_benchmark_json_meets_the_driver_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"] and spec["command"][0] == "python3"
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's time cap.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) < 3420


def test_every_end_to_end_metric_is_fully_declared():
    assert len(ledger.END_TO_END) == 9
    for metric in ledger.END_TO_END:
        assert NAME.match(metric.name) and UNIT.match(metric.unit)
        assert metric.better in ("lower", "higher")
        assert 0 <= metric.bound <= 0.25
        assert metric.workloads and set(metric.workloads) <= set(ledger.ALL)
        assert set(metric.bound_on or ()) <= set(metric.workloads)
    assert set(ledger.WORKLOADS) == set(ledger.ALL)
    assert len(ledger.ALL) == 7


def test_every_per_layer_metric_names_what_it_should_move():
    names = [m.name for m in ledger.PER_LAYER]
    assert len(names) == len(set(names))
    for metric in ledger.PER_LAYER:
        assert NAME.match(metric.name) and UNIT.match(metric.unit)
        assert metric.moves in ledger.END_TO_END_BY_NAME, metric
        assert metric.on and set(metric.on) <= set(ledger.ALL), metric
        moved = ledger.END_TO_END_BY_NAME[metric.moves]
        assert set(metric.on) <= set(moved.workloads), metric


# -- the percentile rule -------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (9, None), (19, None), (20, 50.0), (40, 75.0), (60, 80.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (20000, 99.9),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count,
                                                                expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_is_nearest_rank_and_summary_reports_the_tail():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0) == 1
    assert stats.percentile(samples, 50) in (50, 51)
    assert stats.percentile(samples, 100) == 100
    summary = stats.summarize(samples)
    assert summary["n"] == 100 and summary["tail"]["p"] == 90.0
    assert summary["q1"] < summary["median"] < summary["q3"]
    assert "q1" not in stats.summarize([3.0])


# -- verdicts --------------------------------------------------------------------------


def _summary(*samples):
    return stats.summarize(samples)


def test_verdict_applies_bound_direction_and_spread():
    tight = _summary(1.00, 1.01, 1.02)
    assert stats.verdict("wall_s", "lower", 0.05, tight,
                         _summary(1.03, 1.04, 1.05))["verdict"] == "ok"
    assert stats.verdict("wall_s", "lower", 0.05, tight,
                         _summary(1.10, 1.11, 1.12))["verdict"] == "regressed"
    assert stats.verdict("wall_s", "lower", 0.05, tight,
                         _summary(0.80, 0.81, 0.82))["verdict"] == "improved"
    # Higher-is-better metrics regress downwards.
    assert stats.verdict("points_per_s", "higher", 0.10, _summary(100.0),
                         _summary(85.0))["verdict"] == "regressed"
    # Spread wider than the bound: unresolved, never "unchanged" ...
    noisy = (1.0, 1.2, 1.4)
    assert stats.verdict("wall_s", "lower", 0.05, _summary(*noisy),
                         _summary(1.05, 1.25, 1.3), noisy,
                         (1.05, 1.25, 1.3))["verdict"] == "unresolved"
    # ... unless every candidate run beats every baseline run.
    assert stats.verdict("wall_s", "lower", 0.05, _summary(*noisy),
                         _summary(0.5, 0.6, 0.9), noisy,
                         (0.5, 0.6, 0.9))["verdict"] == "improved"


def test_verdict_special_cases():
    # setup_s differences under 50 ms are ignored whatever the ratio.
    assert stats.verdict("setup_s", "lower", 0.25, _summary(0.10),
                         _summary(0.14))["verdict"] == "ok"
    # fail_ratio: any increase regresses.
    assert stats.verdict("fail_ratio", "lower", 0.0, _summary(0.0),
                         _summary(0.001))["verdict"] == "regressed"
    assert stats.verdict("fail_ratio", "lower", 0.0, _summary(0.0),
                         _summary(0.0))["verdict"] == "ok"


def _result(tier, wall):
    entry = {"metrics": {m.name: 1.0 for m in ledger.END_TO_END},
             "summary": {}, "samples": {}, "sim": {"events": 5}}
    entry["metrics"]["wall_s"] = wall
    return {"provenance": {"tier": tier, "seed": 1},
            "workloads": {"point-target": entry}}


def test_compare_refuses_differing_tiers_and_flags_regressions(capsys):
    assert bench_run.compare(_result("compiled", 1.0),
                             _result("soa", 1.0)) == 2
    assert "tiers differ" in capsys.readouterr().out
    assert bench_run.compare(_result("compiled", 1.0),
                             _result("compiled", 1.02)) == 0
    # point-target's own 5 % bound applies, not wall_s's loosest 10 %.
    assert bench_run.compare(_result("compiled", 1.0),
                             _result("compiled", 1.07)) == 1
    moved = _result("compiled", 1.0)
    moved["workloads"]["point-target"]["sim"] = {"events": 6}
    assert bench_run.compare(_result("compiled", 1.0), moved) == 1


# -- path -> layer bucketing and spans --------------------------------------------------


def test_paths_bucket_by_directory_under_src_repro():
    root = "/x/src/repro"
    layer = tracing.layer_of_path
    assert layer(f"{root}/core/machine.py", root) == "core"
    assert layer(f"{root}/engine/soa.py", root) == "engine.py"
    assert layer(f"{root}/exec/store.py", root) == "exec"
    assert layer(f"{root}/runspec.py", root) == "runspec"
    assert layer(f"{root}/cli.py", root) == "cli"
    assert layer(f"{root}/config.py", root) == "other"
    assert layer(f"{root}/service/app.py", root) == "other"
    assert layer("/usr/lib/python3/json/encoder.py", root) == "other"
    assert layer("/x/src/reproduce/core/x.py", root) == "other"
    assert layer("<string>", root) is None
    assert tracing.layer_of_builtin(
        "<built-in method repro.engine._csoa.run_fast>") == "engine.c"
    assert tracing.layer_of_builtin("<built-in method builtins.len>") \
        == "builtins"
    assert set(tracing.profile_layers(cProfile.Profile(), root)) \
        == set(ledger.PROFILE_LAYERS)


@dataclass
class _Generated:
    value: int


def test_generated_code_is_charged_to_its_caller():
    def caller():
        return [_Generated(i) for i in range(2000)]

    profile = cProfile.Profile()
    profile.enable()
    caller()
    profile.disable()
    # This file stands in for a layer: pretend bench/ is src/repro/core.
    here = Path(__file__).resolve()
    fake_root = str(here.parent.parent)
    layers = tracing.profile_layers(profile, fake_root)
    raw = sum(entry.inlinetime for entry in profile.getstats())
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(raw)
    # The 2000 dataclass __init__ calls landed with their caller's file
    # (bench/ is not a layer name, so that is "other"), not nowhere.
    assert layers["other"]["calls"] >= 2000


def test_span_self_time_subtracts_child_cover():
    spans = [("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0),
             ("inner", 6.0, 7.0, 0), ("leaf", 2.5, 3.0, 1)]
    assert tracing.span_self_times(spans) == {
        "outer": 6.0, "inner": 3.5, "leaf": 0.5}


# -- end to end ---------------------------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point-target",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_smoke_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30, f"smoke run took {elapsed:.1f} s"
    result = json.loads(out.read_text())
    assert result["violations"] == []
    for metric in ledger.END_TO_END:
        for workload in metric.workloads:
            value = result["workloads"][workload]["metrics"][metric.name]
            assert isinstance(value, (int, float)), (workload, metric.name)
            assert metric.name in done.stdout
    for metric in ledger.PER_LAYER:
        if metric.driver:
            for workload in metric.on:
                traced = result["traced"][workload]["metrics"]
                assert metric.name in traced, (workload, metric.name)
        else:
            sweep = result["traced"]["sweep-cold"]["metrics"]
            assert metric.name in result["cross"] or metric.name in sweep, \
                metric.name
    assert result["workloads"]["point-target"]["metrics"]["fail_ratio"] == 0
    for key in ("tier", "python", "nproc", "commit", "seed"):
        assert key in result["provenance"]
