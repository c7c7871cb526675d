"""Process-oriented discrete-event simulation engine.

This subpackage is the stand-in for CSIM, the sequential simulation
library the paper's SPASM simulator was built on.  It provides:

* :class:`~repro.engine.core.Simulator` -- the event loop with an
  integer-nanosecond clock (the *object* kernel: one heap-only loop,
  the reference every other kernel is checked against),
* :class:`~repro.engine.soa.SoaSimulator` -- the struct-of-arrays
  kernel, the default fast path,
* :func:`make_simulator` -- the kernel-selecting factory machines use,
* :class:`~repro.engine.core.Process` -- simulated processes written as
  Python generators that ``yield`` events,
* :class:`~repro.engine.core.Event` / timeouts / :func:`all_of`,
* :class:`~repro.engine.resource.Resource` -- FIFO resources with
  capacity (used for network links and directory serialization),
* :class:`~repro.engine.rng.RandomStreams` -- deterministic, named
  random streams so every machine model replays identical workloads.
"""

import os
import warnings

from .compiled import HAVE_EXTENSION, CompiledSimulator
from .core import TURN, Acquirable, Event, Process, Simulator, Timeout, all_of
from .resource import Resource
from .rng import RandomStreams
from .soa import SoaSimulator

#: Recognized values for the kernel knob (``REPRO_ENGINE`` /
#: ``SystemConfig.engine_kernel`` / ``--engine``).
KERNELS = ("auto", "soa", "compiled", "object")


def resolve_kernel(kernel: str = "auto") -> str:
    """Resolve a kernel knob value to a concrete kernel name.

    ``"auto"`` consults the ``REPRO_ENGINE`` environment variable and
    otherwise picks the compiled tier when the ``_csoa`` extension is
    loaded, falling back to the pure-Python SoA kernel.  An explicit
    ``"compiled"`` request on a host without the extension degrades to
    ``"soa"`` with a ``RuntimeWarning`` -- missing the optional build
    is never an error.  Raises ``ValueError`` on an unrecognized name
    (config-layer validation wraps this in ``ConfigError`` with
    context).
    """
    if kernel == "auto":
        kernel = os.environ.get("REPRO_ENGINE", "").strip().lower() or "auto"
        if kernel == "auto":
            kernel = "compiled" if HAVE_EXTENSION else "soa"
    if kernel == "compiled" and not HAVE_EXTENSION:
        warnings.warn(
            "engine kernel 'compiled' requested but the repro.engine._csoa "
            "extension is not available (not built, or disabled via "
            "REPRO_CSOA); falling back to the pure-Python 'soa' kernel, "
            "which executes the identical event sequence",
            RuntimeWarning,
            stacklevel=2,
        )
        kernel = "soa"
    if kernel not in ("soa", "compiled", "object"):
        raise ValueError(
            f"unknown engine kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


def make_simulator(checkers=(), kernel: str = "auto",
                   fail_fast: bool = True) -> Simulator:
    """Build a simulator on the kernel the knob selects.

    All kernels execute identical event sequences and feed the
    sanitizer's record stream the same records, so flipping the knob
    never changes results, digests or per-checker counts -- only host
    time.
    """
    cls = {
        "object": Simulator,
        "soa": SoaSimulator,
        "compiled": CompiledSimulator,
    }[resolve_kernel(kernel)]
    return cls(fail_fast=fail_fast, checkers=checkers)


__all__ = [
    "Event",
    "Process",
    "Simulator",
    "SoaSimulator",
    "CompiledSimulator",
    "HAVE_EXTENSION",
    "Timeout",
    "TURN",
    "Acquirable",
    "all_of",
    "make_simulator",
    "resolve_kernel",
    "KERNELS",
    "Resource",
    "RandomStreams",
]
