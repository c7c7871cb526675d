"""The serve-mixed workload: a real ``repro serve`` daemon under replay.

Closed loop, one load-generating process:

``cold``   every spec of the universe once over one keep-alive
           connection, on an empty store (each is simulated);
restart    SIGTERM (must drain with exit 0), new daemon on the same store;
``store``  every spec once more (each answered from disk);
``warm``   seed-drawn requests, one always in flight on each of four
           connections polled by a single thread, until the time budget
           is spent (each answered from the in-memory memo).

Every 200 body is compared byte for byte with an in-process
``result_payload`` reference computed *after* the phases, so the
reference simulations do not compete with the daemon for the two cores
while it is being timed.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ledger import APPS5, SIM_SEED
from stats import percentile

MACHINES = ("target", "clogp", "logp")
TOPOLOGIES = ("full", "mesh")
PROCESSORS = (4, 16)
#: Requests kept in flight during the warm phase, one per connection.
#: Four saturate the daemon (6500-7000 requests/s whatever the host's
#: wake-up latency); with two it idles whenever the client is checking
#: a body, and the same run wanders between 5300 and 6600.
CONNECTIONS = 4
#: Width of the windows the warm throughput is the median over.
WINDOW_S = 0.5
#: Longest a client waits (or polls) for one response.
REQUEST_TIMEOUT_S = 120.0
#: Warm requests of a ``--smoke`` run (a full run is time-bounded).
SMOKE_WARM_REQUESTS = 200


def spec_universe(seed: int, smoke: bool) -> List[Dict]:
    builds = [
        {"app": app, "machine": machine, "nprocs": nprocs,
         "topology": topology, "preset": "quick", "seed": SIM_SEED}
        for app in (APPS5[:2] if smoke else APPS5)
        for machine in MACHINES
        for topology in TOPOLOGIES
        for nprocs in PROCESSORS
    ]
    random.Random(seed).shuffle(builds)
    return builds


class Daemon:
    """A ``repro serve`` subprocess, ready to answer."""

    def __init__(self, cache_dir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"daemon failed to start: {line!r}")
            address = line.split("listening on ", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            deadline = time.monotonic() + 30.0
            while self.get_json("/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise

    def get_json(self, path: str) -> Tuple[int, Dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def drain(self, timeout: float = 30.0) -> Tuple[int, float]:
        """SIGTERM and wait: (exit code, seconds the drain took)."""
        start = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -signal.SIGKILL
        self.proc.stdout.close()
        return code, time.perf_counter() - start

    def kill(self) -> None:
        """Last resort: the daemon's whole session, pool workers too."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """One keep-alive connection speaking just enough HTTP/1.1.

    The standard ``http.client`` sleeps in ``recv``; on a 2-vCPU virtual
    machine each sleep costs a halt and a wake-up whose latency depends
    on the hypervisor's mood (measured here: the same code at 3000 and
    at 4900 requests/s an hour apart).  :meth:`response` can instead
    poll without ever sleeping, so the warm phase measures the daemon,
    not the host's wake-up latency.
    """

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def send(self, body: bytes) -> None:
        self.sock.sendall(
            b"POST /run HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%b" % (len(body), body)
        )

    def response(self, block: bool) -> Optional[Tuple[int, str, bytes]]:
        """(status, x-repro-source, body) once it has all arrived.

        ``block=False`` returns None instead of waiting for more bytes.
        """
        while True:
            head_end = self.buffer.find(b"\r\n\r\n")
            if head_end >= 0:
                lines = self.buffer[:head_end].decode("ascii").split("\r\n")
                headers = dict(line.split(": ", 1) for line in lines[1:])
                end = head_end + 4 + int(headers["content-length"])
                if len(self.buffer) >= end:
                    body = self.buffer[head_end + 4:end]
                    self.buffer = self.buffer[end:]
                    return (int(lines[0].split()[1]),
                            headers.get("x-repro-source", ""), body)
            if block:
                if not select.select([self.sock], [], [], REQUEST_TIMEOUT_S)[0]:
                    raise TimeoutError("no response from the daemon")
            try:
                chunk = self.sock.recv(65536, socket.MSG_DONTWAIT)
            except BlockingIOError:
                return None
            if not chunk:
                raise ConnectionError("the daemon closed the connection")
            self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


class Replay:
    """Issues requests, keeps latencies, checks every response."""

    def __init__(self, daemon: Daemon, bodies: List[bytes]):
        self.daemon = daemon
        self.bodies = bodies
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []
        #: First 200 body seen per spec; all later ones must equal it.
        self.first: List[Optional[bytes]] = [None] * len(bodies)

    def drain(self) -> float:
        """Stop the daemon; anything but a clean exit is a violation."""
        code, seconds = self.daemon.drain()
        if code != 0:
            self.violations.append(f"daemon drained with exit {code}")
        return seconds

    def _check(self, index: int, response, expect_source: str) -> None:
        status, source, body = response
        self.attempted += 1
        if self.first[index] is None:
            self.first[index] = body
        same = body == self.first[index]
        if status != 200 or not same or source != expect_source:
            self.failed += 1
            if len(self.violations) < 10:
                self.violations.append(
                    f"spec {index}: status {status}, source {source!r} "
                    f"(expected {expect_source!r}), body "
                    f"{'matches' if same else 'differs'}"
                )

    def once_each(self, expect_source: str, spin: bool) -> List[float]:
        """Every spec once over one connection; latencies in seconds.

        Cold requests wait tens of milliseconds for a pool worker that
        needs the other core, so they sleep; ``spin`` polls instead.
        """
        conn = Connection(self.daemon.host, self.daemon.port)
        latencies = []
        try:
            for index, body in enumerate(self.bodies):
                start = time.perf_counter()
                conn.send(body)
                response = conn.response(block=not spin)
                while response is None:
                    if time.perf_counter() - start > REQUEST_TIMEOUT_S:
                        raise TimeoutError("no response from the daemon")
                    response = conn.response(block=False)
                latencies.append(time.perf_counter() - start)
                self._check(index, response, expect_source)
        finally:
            conn.close()
        return latencies

    def warm(self, seed: int, seconds: float,
             requests: Optional[int]) -> Tuple[List[float], float]:
        """Seed-drawn requests, one always in flight per connection.

        One thread polls ``CONNECTIONS`` sockets without sleeping (two
        threads would pass the interpreter lock back and forth); runs
        for ``seconds``, or for exactly ``requests`` when given.
        Returns the latencies and the requests per second, taken as the
        median over half-second windows so that a hiccup of the host
        inside one run does not set the run's number.
        """
        rng = random.Random(seed)
        conns = [Connection(self.daemon.host, self.daemon.port)
                 for _ in range(CONNECTIONS)]
        latencies: List[float] = []
        per_window: Dict[int, int] = {}
        clock = time.perf_counter
        try:
            begin = clock()
            deadline = begin + seconds
            inflight = []
            for conn in conns:
                index = rng.randrange(len(self.bodies))
                conn.send(self.bodies[index])
                inflight.append((index, clock()))
            sent = len(conns)
            while any(inflight):
                if clock() > deadline + REQUEST_TIMEOUT_S:
                    raise TimeoutError("no response from the daemon")
                for slot, conn in enumerate(conns):
                    if inflight[slot] is None:
                        continue
                    response = conn.response(block=False)
                    if response is None:
                        continue
                    index, started = inflight[slot]
                    now = clock()
                    latencies.append(now - started)
                    window = int((now - begin) / WINDOW_S)
                    per_window[window] = per_window.get(window, 0) + 1
                    self._check(index, response, "memo")
                    more = sent < requests if requests is not None \
                        else now < deadline
                    if more:
                        index = rng.randrange(len(self.bodies))
                        conn.send(self.bodies[index])
                        inflight[slot] = (index, clock())
                        sent += 1
                    else:
                        inflight[slot] = None
            wall = clock() - begin
        finally:
            for conn in conns:
                conn.close()
        whole = [per_window.get(i, 0) / WINDOW_S
                 for i in range(int(wall / WINDOW_S))]
        rate = statistics.median(whole) if whole else len(latencies) / wall
        return latencies, rate


def reference_bodies(builds: List[Dict]) -> List[bytes]:
    """Serial in-process reference: the exact servable bytes per spec."""
    from repro.core.runner import simulate_spec
    from repro.runspec import RunSpec, canonical_json
    from repro.service.app import result_payload

    out = []
    for build in builds:
        spec = RunSpec.build(**build)
        payload = result_payload(spec.spec_digest(), simulate_spec(spec))
        out.append(canonical_json(payload).encode("utf-8"))
    return out


def ms(seconds: float) -> float:
    return seconds * 1000.0


def run(seed: int, seconds: float, smoke: bool, setup_only: bool,
        spawned_at: float, scratch: Path) -> Dict:
    builds = spec_universe(seed, smoke)
    bodies = [json.dumps({"build": build}).encode("utf-8")
              for build in builds]
    store = Path(tempfile.mkdtemp(prefix="serve-store-", dir=scratch))
    record: Dict = {"workload": "serve-mixed", "seed": seed,
                    "mode": "setup" if setup_only else "timed"}
    daemon = Daemon(store)
    try:
        record["setup_s"] = time.time() - spawned_at
        replay = Replay(daemon, bodies)
        if setup_only:
            replay.drain()
            record.update(attempted=0, failed=0,
                          violations=replay.violations, tiers=[], sim={})
            return record

        phase_start = time.perf_counter()
        cold = replay.once_each("simulated", spin=False)
        cold_s = time.perf_counter() - phase_start
        _, stats_cold = daemon.get_json("/stats")
        rss = daemon.peak_rss_mb()
        drain_s = replay.drain()

        daemon = Daemon(store)
        replay.daemon = daemon
        stored = replay.once_each("store", spin=True)
        budget = max(seconds - cold_s - sum(stored), seconds / 4.0)
        warm, warm_rate = replay.warm(
            seed, budget, SMOKE_WARM_REQUESTS if smoke else None)
        _, stats_warm = daemon.get_json("/stats")
        rss = max(rss, daemon.peak_rss_mb())
        drain2_s = replay.drain()
    except BaseException:
        daemon.kill()
        raise
    finally:
        shutil.rmtree(store, ignore_errors=True)

    for index, (seen, expected) in enumerate(
            zip(replay.first, reference_bodies(builds))):
        if seen != expected:
            replay.failed += 1
            replay.violations.append(
                f"served body of {builds[index]} differs from the "
                f"in-process reference"
            )
    expected_sims = len(builds)
    if stats_cold["simulated"] != expected_sims or stats_warm["simulated"]:
        replay.violations.append(
            f"daemon simulated {stats_cold['simulated']} cold + "
            f"{stats_warm['simulated']} after restart; expected "
            f"{expected_sims} + 0"
        )

    warm_p50 = ms(percentile(warm, 50))
    inserver_warm = stats_warm["warm_latency"]["p50_ms"] or 0.0
    record.update({
        "passes_s": [cold_s],
        "points_per_s": warm_rate,
        "peak_rss_mb": rss,
        "attempted": replay.attempted,
        "failed": replay.failed,
        "violations": replay.violations,
        "tiers": [stats_cold["engine"]["kernel"]],
        "sim": {},
        "end_to_end": {
            "cold_mean_ms": ms(sum(cold) / len(cold)),
            "store_p50_ms": ms(percentile(stored, 50)),
            "warm_p50_ms": warm_p50,
            "warm_req_per_s": warm_rate,
        },
        "metrics": {
            "service.cold_p50_ms": ms(percentile(cold, 50)),
            "service.cold_p80_ms": ms(percentile(cold, 80)),
            "service.warm_p99_ms": ms(percentile(warm, 99)),
            "service.store_p90_ms": ms(percentile(stored, 90)),
            "service.inserver_warm_p50_ms": inserver_warm,
            "service.inserver_cold_p50_ms":
                stats_cold["cold_latency"]["p50_ms"] or 0.0,
            "service.http_overhead_ms": warm_p50 - inserver_warm,
            "service.simulated":
                stats_cold["simulated"] + stats_warm["simulated"],
            "service.warm_memo": stats_warm["warm_memo"],
            "service.warm_store": stats_warm["warm_store"],
            "service.coalesce_hits":
                stats_cold["coalesce_hits"] + stats_warm["coalesce_hits"],
            "service.shed": sum(
                stats[key] for stats in (stats_cold, stats_warm)
                for key in ("shed_queue", "shed_breaker", "shed_drain")),
            "service.rebuilds": stats_cold["backend"]["rebuilds"]
                + stats_warm["backend"]["rebuilds"],
            "service.drain_s": max(drain_s, drain2_s),
        },
    })
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", required=True, choices=("timed", "setup"))
    parser.add_argument("--seed", type=int, default=SIM_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent started us")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    record = run(args.seed, args.seconds, args.smoke, args.mode == "setup",
                 args.spawned_at, Path(args.scratch))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
