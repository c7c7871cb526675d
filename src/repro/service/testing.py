"""In-process serving harness for tests.

:func:`serve_in_thread` runs a full daemon -- real sockets, real HTTP
framing, real supervised pool -- on an event loop in a background
thread, and hands back a :class:`ServiceHandle` exposing:

* a blocking JSON client (``get``/``post``) over ``http.client`` with
  keep-alive, so tests exercise the same wire path curl would;
* the live :class:`~repro.service.app.ReproService` object, so tests
  can assert on counters, drive the breaker, or inject chaos seams;
* ``shutdown()``, which runs the same drain path SIGTERM triggers and
  returns the daemon's exit code.

Signal handlers cannot be installed off the main thread, so the
harness drives drain directly -- the daemon's ``_on_signal`` is a
thin wrapper over exactly this path (the ``serve-mixed`` workload of
``bench/serve.py`` covers the real-signal route: it SIGTERMs a daemon
subprocess and requires a drain with exit code 0).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from typing import Optional, Tuple

from .app import ReproService, ServiceConfig
from .daemon import Daemon


class ServiceHandle:
    """A running in-thread daemon plus a blocking client for it."""

    def __init__(self, daemon: Daemon, loop, thread: threading.Thread):
        self.daemon = daemon
        self.loop = loop
        self.thread = thread
        self._conn: Optional[http.client.HTTPConnection] = None
        self.exit_code: Optional[int] = None

    @property
    def service(self) -> ReproService:
        return self.daemon.service

    @property
    def port(self) -> int:
        return self.daemon.port

    # -- client --------------------------------------------------------------

    def connection(self) -> http.client.HTTPConnection:
        """One persistent keep-alive connection (lazily opened)."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.daemon.config.host, self.port, timeout=30
            )
        return self._conn

    def request(
        self,
        method: str,
        path: str,
        payload=None,
        conn: Optional[http.client.HTTPConnection] = None,
    ) -> Tuple[int, bytes, dict]:
        """One request; returns (status, raw body bytes, headers)."""
        conn = conn if conn is not None else self.connection()
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, dict(response.getheaders())

    def get(self, path: str) -> Tuple[int, dict]:
        status, body, _ = self.request("GET", path)
        return status, json.loads(body.decode("utf-8"))

    def post(self, path: str, payload) -> Tuple[int, dict]:
        status, body, _ = self.request("POST", path, payload)
        return status, json.loads(body.decode("utf-8"))

    # -- coroutine bridge ----------------------------------------------------

    def call(self, coro, timeout: float = 30.0):
        """Run a coroutine on the daemon's loop from the test thread."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout=timeout)

    # -- shutdown ------------------------------------------------------------

    def shutdown(self, timeout: float = 30.0) -> int:
        """Drain exactly as a SIGTERM would; return the exit code."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self.exit_code is None:
            self.loop.call_soon_threadsafe(self.daemon._on_signal)
            self.thread.join(timeout=timeout)
            if self.thread.is_alive():
                raise TimeoutError("daemon did not drain in time")
            self._watcher.join(timeout=5.0)
        return self.exit_code


def serve_in_thread(
    config: Optional[ServiceConfig] = None,
    service: Optional[ReproService] = None,
    start_timeout: float = 30.0,
) -> ServiceHandle:
    """Start a daemon on a background thread; returns once it listens."""
    config = config if config is not None else ServiceConfig(port=0)
    daemon = Daemon(
        config, service=service, announce=lambda *_args, **_kw: None
    )
    started = threading.Event()
    box: dict = {}

    async def _main():
        await daemon.start()
        box["loop"] = asyncio.get_running_loop()
        started.set()
        return await daemon.run_until_drained()

    def _thread_main():
        box["exit"] = asyncio.run(_main())

    thread = threading.Thread(
        target=_thread_main, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=start_timeout):
        raise TimeoutError("daemon failed to start listening")
    handle = ServiceHandle(daemon, box["loop"], thread)

    def _capture_exit():
        thread.join()
        handle.exit_code = box.get("exit")

    watcher = threading.Thread(target=_capture_exit, daemon=True)
    watcher.start()
    handle._watcher = watcher
    return handle
