"""Cross-kernel matrix: every kernel runs the one generator transaction.

The object kernel is the reference.  Un-hooked it runs the generator
transactions of ``core/target.py`` over ``transmit_fast``; hooked (a
``digest=True`` run, which is what the golden digests pin) it runs the
same generators over the general Message transfer; the SoA and compiled
kernels run the flat programs.  All four must agree exactly, for both
protocols -- Illinois adds the sharing-writeback post -- and on every
topology.
"""

from __future__ import annotations

import pytest

from repro.config import PROTOCOLS
from repro.core.runner import simulate_spec
from repro.engine.compiled import HAVE_EXTENSION
from repro.runspec import RunSpec

from .conftest import ALL_APPS, ALL_TOPOLOGIES, TINY_PARAMS

KERNELS = ("object", "soa") + (("compiled",) if HAVE_EXTENSION else ())

#: p=8 is the smallest machine on which cube and mesh route differently;
#: cholesky is cut down so the whole matrix stays under five seconds.
NPROCS = 8
PARAMS = dict(TINY_PARAMS, cholesky={"n": 32, "density": 0.12})


def _outcome(result):
    return (result.total_ns, result.messages, result.sim_events,
            result.buckets)


@pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", ALL_APPS)
def test_kernels_and_hooked_digest_run_agree(app, protocol, topology):
    def run(**overrides):
        # check="off": a hook-installing REPRO_CHECK level would force
        # the hooked object kernel on every leg.
        return simulate_spec(RunSpec.build(
            app, "target", NPROCS, topology, params=PARAMS[app], seed=7,
            protocol=protocol, check="off", **overrides,
        ))

    hooked = run(engine_kernel="object", digest=True)
    assert hooked.check_report.digest is not None
    assert hooked.engine["kernel"] == "object"
    for kernel in KERNELS:
        result = run(engine_kernel=kernel)
        assert result.engine["kernel"] == kernel
        assert _outcome(result) == _outcome(hooked), kernel
