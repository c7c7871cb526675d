"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import SystemConfig
from repro.apps import make_app
from repro.engine import HAVE_EXTENSION, resolve_kernel

#: Tiny application parameter sets used across the tests -- small enough
#: that a full simulation takes well under a second.
TINY_PARAMS = {
    "ep": {"pairs": 2_048},
    "is": {"keys": 512, "buckets": 64, "iterations": 1},
    "cg": {"n": 64, "nnz_per_row": 4, "iterations": 2},
    "fft": {"points": 256},
    "cholesky": {"n": 48, "density": 0.12},
}

ALL_APPS = tuple(sorted(TINY_PARAMS))
ALL_MACHINES = ("target", "logp", "clogp", "ideal")
ALL_TOPOLOGIES = ("full", "cube", "mesh")
#: Every kernel this host can run (the compiled tier needs the extension).
ALL_KERNELS = ("object", "soa") + (("compiled",) if HAVE_EXTENSION else ())


def tiny_app(name: str, nprocs: int):
    """A freshly constructed tiny application instance."""
    return make_app(name, nprocs, **TINY_PARAMS[name])


def tiny_config(nprocs: int = 4, topology: str = "full", **overrides):
    """A small machine configuration for tests."""
    return SystemConfig(processors=nprocs, topology=topology, **overrides)


@pytest.fixture
def config4():
    return tiny_config(4)


@pytest.fixture
def config8_mesh():
    return tiny_config(8, "mesh")


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite tests/goldens/*.json with the digests of the "
             "current build instead of comparing against them",
    )


def _kernel_line() -> str:
    """One loud line naming the kernel tiers this run can reach, so a
    suite that never touched the compiled tier says so."""
    env = " ".join(
        f"{name}={os.environ.get(name, '')!r}"
        for name in ("REPRO_ENGINE", "REPRO_CHECK", "REPRO_CSOA")
    )
    return (
        f"repro kernels: auto -> {resolve_kernel('auto').upper()}, "
        f"HAVE_EXTENSION={HAVE_EXTENSION} "
        f"(compiled-tier tests {'RUN' if HAVE_EXTENSION else 'SKIPPED'}); "
        f"{env}"
    )


def pytest_report_header(config):
    return _kernel_line()


def pytest_terminal_summary(terminalreporter, config):
    # ``-q`` (the tier-1 command) suppresses the report header.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_kernel_line())


@pytest.fixture
def update_goldens(request):
    return request.config.getoption("--update-goldens")
