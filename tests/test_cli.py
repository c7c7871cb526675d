"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fft" in out and "target" in out and "fig01" in out


def test_params(capsys):
    assert main(["params", "--topology", "mesh", "-p", "32"]) == 0
    out = capsys.readouterr().out
    assert "L = 1.60 us" in out
    assert "g = 6.40 us" in out  # 0.8 * 8 columns


def test_params_full(capsys):
    assert main(["params", "--topology", "full", "-p", "8"]) == 0
    out = capsys.readouterr().out
    assert "g = 0.40 us" in out  # 3.2/8


def test_run(capsys):
    code = main([
        "run", "--app", "fft", "--machine", "clogp", "--topology", "cube",
        "-p", "2", "--preset", "quick",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fft" in out and "clogp" in out
    assert "cpu0" in out and "cpu1" in out


def test_figure(capsys):
    code = main(["figure", "fig03", "--preset", "quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig03" in out and "EP on full" in out


def test_unknown_figure_raises():
    with pytest.raises(KeyError):
        main(["figure", "fig99", "--preset", "quick"])


def test_parser_rejects_bad_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--app", "nosuch"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_scalability(capsys):
    code = main([
        "scalability", "--app", "fft", "--machine", "clogp",
        "--sweep", "1,4", "--preset", "quick",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "speedup" in out and "fft" in out


def test_profile(capsys):
    code = main([
        "profile", "--app", "is", "-p", "2", "--preset", "quick",
        "--machine", "ideal",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "pid" in out and "compute_us" in out


def test_trace_record_and_replay(capsys, tmp_path):
    path = str(tmp_path / "t.json")
    code = main([
        "trace", "record", "--app", "fft", "-p", "2", "--out", path,
        "--preset", "quick",
    ])
    assert code == 0
    code = main(["trace", "replay", path, "--machine", "clogp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fft@trace" in out


def test_trace_replay_warns_cross_machine(capsys, tmp_path):
    path = str(tmp_path / "t.json")
    main([
        "trace", "record", "--app", "is", "-p", "2", "--out", path,
        "--preset", "quick", "--machine", "clogp",
    ])
    main(["trace", "replay", path, "--machine", "logp"])
    out = capsys.readouterr().out
    assert "trace-driven approximation" in out


# -- fault-injection flags ------------------------------------------------------------


def test_run_with_fault_flags_prints_retry_bucket(capsys):
    code = main([
        "run", "--app", "fft", "--machine", "clogp", "-p", "2",
        "--preset", "quick", "--fault-drop", "0.02", "--fault-seed", "9",
        "--retries", "6",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "retry=" in out


def test_run_without_fault_flags_hides_retry_bucket(capsys):
    code = main([
        "run", "--app", "fft", "--machine", "clogp", "-p", "2",
        "--preset", "quick",
    ])
    assert code == 0
    assert "retry=" not in capsys.readouterr().out


def test_fault_flags_have_help_text():
    import io
    from contextlib import redirect_stdout

    with pytest.raises(SystemExit):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            build_parser().parse_args(["run", "--help"])
    help_text = buffer.getvalue()
    for flag in ("--fault-drop", "--fault-delay", "--fault-seed", "--retries"):
        assert flag in help_text


def test_figure_with_fault_and_resume(capsys, tmp_path):
    checkpoint = str(tmp_path / "ckpt.json")
    code = main([
        "figure", "fig03", "--preset", "quick", "--fault-drop", "0.01",
        "--fault-delay", "0.01", "--resume", checkpoint,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig03" in out
    import os
    assert os.path.exists(checkpoint)
    # Re-running with the checkpoint resumes instantly and agrees.
    code = main([
        "figure", "fig03", "--preset", "quick", "--fault-drop", "0.01",
        "--fault-delay", "0.01", "--resume", checkpoint,
    ])
    assert code == 0
    assert capsys.readouterr().out == out


def test_run_rejects_bad_fault_rate():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        main([
            "run", "--app", "fft", "--machine", "clogp", "-p", "2",
            "--preset", "quick", "--fault-drop", "1.5",
        ])


# -- parallel execution and result caching ------------------------------------------


def test_figure_with_jobs_matches_serial(capsys):
    assert main(["figure", "fig03", "--preset", "quick"]) == 0
    serial_out = capsys.readouterr().out
    assert main(["figure", "fig03", "--preset", "quick", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial_out


def test_figure_with_cache_dir_warm_run_skips_simulation(
        capsys, tmp_path, monkeypatch):
    import repro.exec.backend as backend_module

    cache = str(tmp_path / "cache")
    argv = ["figure", "fig03", "--preset", "quick", "--cache-dir", cache]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("warm cache run must not simulate")

    monkeypatch.setattr(backend_module, "simulate", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold_out


@pytest.fixture
def sweep_work(monkeypatch):
    """Count spec builds and store reads; refuse to simulate once armed."""
    import repro.exec.backend as backend_module
    from repro.exec.store import ResultStore
    from repro.runspec import RunSpec

    counts = {"build": 0, "get": 0}
    real_build = RunSpec.build.__func__
    real_get = ResultStore.get

    def counting_build(cls, *args, **kwargs):
        counts["build"] += 1
        return real_build(cls, *args, **kwargs)

    def counting_get(self, spec):
        counts["get"] += 1
        return real_get(self, spec)

    def refuse(*args, **kwargs):
        raise AssertionError("warm cache run must not simulate")

    def arm(forbid_simulation: bool = False) -> dict:
        counts.update(build=0, get=0)
        monkeypatch.setattr(RunSpec, "build", classmethod(counting_build))
        monkeypatch.setattr(ResultStore, "get", counting_get)
        if forbid_simulation:
            monkeypatch.setattr(backend_module, "simulate", refuse)
        return counts

    return arm


def test_warm_sweep_resolves_each_point_once(capsys, tmp_path, sweep_work):
    # Figures share points (Figs. 17 and 19 are two metrics of the same
    # runs), and every point is asked for by the global prefetch, the
    # per-figure prefetch and the series: one spec build and one store
    # read per *distinct* point, however many figures refer to it.
    from repro.exec.store import ResultStore
    from repro.experiments import experiment_ids

    # The work counted does not depend on the sanitizer level; pin it so
    # a REPRO_CHECK=strict session does not pay for 108 strict runs.
    cache = tmp_path / "cache"
    argv = ["figure", *experiment_ids(), "--preset", "quick",
            "--check", "off", "--cache-dir", str(cache)]
    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    points = len(ResultStore(cache).entry_paths())

    counts = sweep_work(forbid_simulation=True)
    assert main(argv) == 0
    assert capsys.readouterr().out == cold_out
    assert counts == {"build": points, "get": points}
    assert len(ResultStore(cache).entry_paths()) == points


def test_scalability_builds_each_point_once(capsys, sweep_work):
    counts = sweep_work()
    assert main([
        "scalability", "--app", "fft", "--machine", "clogp",
        "--sweep", "1,2,4", "--preset", "quick",
    ]) == 0
    capsys.readouterr()
    assert counts["build"] == 3


def test_cache_dir_env_var_enables_cache(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "env-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    assert main(["figure", "fig03", "--preset", "quick"]) == 0
    capsys.readouterr()
    assert cache.exists() and any(cache.iterdir())


def test_no_cache_overrides_cache_dir(capsys, tmp_path):
    cache = tmp_path / "cache"
    assert main([
        "figure", "fig03", "--preset", "quick",
        "--cache-dir", str(cache), "--no-cache",
    ]) == 0
    capsys.readouterr()
    assert not cache.exists()


def test_exec_flags_have_help_text():
    import io
    from contextlib import redirect_stdout

    with pytest.raises(SystemExit):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            build_parser().parse_args(["figure", "--help"])
    help_text = buffer.getvalue()
    for flag in ("--jobs", "--cache-dir", "--no-cache", "--resume",
                 "--deadline-s", "--max-retries"):
        assert flag in help_text


# -- supervision: exit codes, deadlines, cache verify -------------------------------


def test_figure_exit_code_distinguishes_point_failures(capsys, monkeypatch):
    """A sweep that finishes with failed points exits 3 ('completed
    with point failures'), distinct from 0 (clean) and 1 (aborted)."""
    import repro.exec.backend as backend_module
    from repro.cli import EXIT_POINT_FAILURES
    from repro.errors import RetryLimitError

    real_simulate = backend_module.simulate

    def flaky(app, machine_name, config, **kwargs):
        if machine_name == "logp":
            raise RetryLimitError(0, 1, 3, 12345)
        return real_simulate(app, machine_name, config, **kwargs)

    monkeypatch.setattr(backend_module, "simulate", flaky)
    code = main(["figure", "fig01", "--preset", "quick"])
    assert code == EXIT_POINT_FAILURES == 3
    captured = capsys.readouterr()
    assert "fig01" in captured.out  # the figure still rendered
    assert "failed point(s)" in captured.err
    assert "RetryLimitError" in captured.err


def test_figure_deadline_flag_converts_hang_into_point_failure(
        capsys, monkeypatch):
    """--deadline-s bounds every point: a hung simulation surfaces as a
    DeadlineExpiredError point failure, not a stuck process."""
    import time as time_module

    import repro.exec.backend as backend_module
    from repro.cli import EXIT_POINT_FAILURES

    real_simulate = backend_module.simulate

    def hanging(app, machine_name, config, **kwargs):
        if machine_name == "logp":
            time_module.sleep(60)
        return real_simulate(app, machine_name, config, **kwargs)

    monkeypatch.setattr(backend_module, "simulate", hanging)
    code = main([
        "figure", "fig01", "--preset", "quick",
        "--deadline-s", "0.2", "--max-retries", "0",
    ])
    assert code == EXIT_POINT_FAILURES
    assert "DeadlineExpiredError" in capsys.readouterr().err


def test_cache_verify_healthy_store_exits_clean(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    assert main(["figure", "fig03", "--preset", "quick",
                 "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "result store verify" in out and "0 corrupt" in out


def test_cache_verify_and_repair_corruption(capsys, tmp_path):
    from repro.exec import ResultStore

    cache = tmp_path / "cache"
    assert main(["figure", "fig03", "--preset", "quick",
                 "--cache-dir", str(cache)]) == 0
    cold_out = capsys.readouterr().out
    # Silent bit rot: a result value changed, checksum now stale, but
    # the embedded spec intact -- exactly the repairable case.
    import json

    entry = ResultStore(cache).entry_paths()[0]
    payload = json.loads(entry.read_text())
    payload["result"]["total_ns"] = 1
    entry.write_text(json.dumps(payload))

    # Verify alone: corruption found and quarantined, non-zero exit.
    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 1
    captured = capsys.readouterr()
    assert "1 corrupt" in captured.out
    assert "--repair" in captured.err

    # Repair: the missing point is re-simulated and the store healthy.
    assert main(["cache", "verify", "--cache-dir", str(cache),
                 "--repair"]) == 0
    assert "1 repaired" in capsys.readouterr().out
    assert main(["cache", "verify", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()

    # The repaired store serves the figure identically.
    assert main(["figure", "fig03", "--preset", "quick",
                 "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out == cold_out


def test_cache_verify_requires_a_directory(monkeypatch):
    from repro.errors import ConfigError

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    with pytest.raises(ConfigError, match="--cache-dir"):
        main(["cache", "verify"])


def test_cache_verify_reads_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    assert main(["figure", "fig03", "--preset", "quick",
                 "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    assert main(["cache", "verify"]) == 0
