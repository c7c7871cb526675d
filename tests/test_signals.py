"""SIGTERM takes the same clean-shutdown path as Ctrl-C.

PR 6 flushed sweep checkpoints on ``KeyboardInterrupt``, which only
SIGINT raises; a daemonized or CI-supervised sweep gets SIGTERM and
would have died without flushing.  These tests pin the conversion
context manager and the CLI wiring: a SIGTERM mid-sweep exits 130 with
the checkpoint on disk, exactly like an interactive interrupt.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import EXIT_INTERRUPTED, main
from repro.signals import (
    TERMINATION_SIGNALS,
    raise_keyboard_interrupt_on_sigterm,
)


def test_termination_signals_cover_int_and_term():
    assert signal.SIGINT in TERMINATION_SIGNALS
    assert signal.SIGTERM in TERMINATION_SIGNALS


def test_sigterm_raises_keyboard_interrupt_inside_the_block():
    with pytest.raises(KeyboardInterrupt):
        with raise_keyboard_interrupt_on_sigterm():
            os.kill(os.getpid(), signal.SIGTERM)
            # The signal is delivered at the next bytecode boundary.
            for _ in range(1000):
                time.sleep(0.001)
            raise AssertionError("SIGTERM was not converted")


def test_previous_handler_is_restored_on_exit():
    sentinel = []

    def outer(signum, frame):
        sentinel.append(signum)

    previous = signal.signal(signal.SIGTERM, outer)
    try:
        with raise_keyboard_interrupt_on_sigterm():
            assert signal.getsignal(signal.SIGTERM) is not outer
        assert signal.getsignal(signal.SIGTERM) is outer
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_nested_blocks_unwind_cleanly():
    before = signal.getsignal(signal.SIGTERM)
    with raise_keyboard_interrupt_on_sigterm():
        with raise_keyboard_interrupt_on_sigterm():
            pass
    assert signal.getsignal(signal.SIGTERM) is before


def test_off_main_thread_is_a_documented_noop():
    before = signal.getsignal(signal.SIGTERM)
    outcome = {}

    def body():
        try:
            with raise_keyboard_interrupt_on_sigterm():
                outcome["entered"] = True
        except Exception as exc:  # pragma: no cover - the failure mode
            outcome["error"] = exc

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert outcome == {"entered": True}
    assert signal.getsignal(signal.SIGTERM) is before


def test_sigterm_mid_sweep_exits_130_with_checkpoint_flushed(
    tmp_path, monkeypatch, capsys
):
    """``repro figure`` under SIGTERM: checkpoint on disk, exit 130."""
    from repro.experiments import SweepRunner

    checkpoint = tmp_path / "sweep.ckpt.json"
    real_prefetch = SweepRunner.prefetch

    def prefetch_then_terminate(self, experiments):
        # Complete the sweep (so there are points worth flushing), then
        # model the host terminating us before rendering finishes.
        real_prefetch(self, experiments)
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(30)  # interrupted by the converted signal
        raise AssertionError("SIGTERM never arrived")

    monkeypatch.setattr(SweepRunner, "prefetch", prefetch_then_terminate)
    code = main([
        "figure", "fig01", "--preset", "quick", "--jobs", "2",
        "--resume", str(checkpoint),
    ])
    assert code == EXIT_INTERRUPTED
    captured = capsys.readouterr()
    assert "checkpointed" in captured.err
    # The checkpoint survived the termination with every point in it.
    payload = json.loads(checkpoint.read_text())
    assert payload["results"]
    assert payload["failures"] == {}


# -- the daemon under worker death ------------------------------------------------------


def _children(pid):
    """Direct children of ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # noqa: PERF203 -- process raced away
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_serve_survives_a_sigkilled_worker_and_still_drains(tmp_path):
    """A dead pool worker must not shut the daemon down.

    When a worker dies, the executor SIGTERMs its siblings; without
    ``exec/backend.py:_reset_worker_signals`` they inherited the
    daemon's signal wakeup fd and wrote SIGTERM into it, so the daemon
    drained itself.  Here it must answer the next cold request and
    still drain with exit 0 on a real SIGTERM.
    """
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2", "--cache-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, start_new_session=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        host, port = line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)

        def run(nprocs):
            conn = http.client.HTTPConnection(host, int(port), timeout=60)
            try:
                conn.request("POST", "/run", body=json.dumps({"build": {
                    "app": "fft", "machine": "clogp", "nprocs": nprocs,
                    "preset": "quick",
                }}))
                return conn.getresponse().status
            finally:
                conn.close()

        assert run(2) == 200
        workers = _children(proc.pid)
        assert workers, "the pool spawned no worker"
        os.kill(workers[0], signal.SIGKILL)
        assert run(4) == 200
        assert proc.poll() is None, "the daemon exited after a worker died"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
