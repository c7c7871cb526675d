"""Compiled event-core tier and flat-op semantics.

Two batteries:

* Flat ops (``SoaSimulator.flat_transmit``): the tag-dispatched leaf
  transmits that replace the highest-frequency spawned generators.
  Their contract is *step-for-step* timeline parity with the generator
  twin, which the cross-kernel simulation parity tests pin end to end;
  here we pin the mechanics directly -- grant order under contention,
  multi-leg chaining, accounting, deadlock bookkeeping, and the
  guarded (method-form) dispatch path.

* The compiled tier: selection precedence with the new ``compiled``
  kernel name, bit-identical results against both pure-Python kernels,
  and -- via subprocesses, because ``HAVE_EXTENSION`` is an
  import-time decision -- the graceful-degradation paths when the
  ``_csoa`` extension is absent, disabled (``REPRO_CSOA=0``), or
  broken.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import pytest

from repro.checkers import DeterminismChecker
from repro.core.runner import simulate_spec
from repro.engine import make_simulator, resolve_kernel
from repro.engine.compiled import HAVE_EXTENSION, CompiledSimulator
from repro.engine.core import Simulator
from repro.engine.soa import SoaSimulator
from repro.errors import DeadlockError, SimulationError
from repro.network.link import Link
from repro.runspec import RunSpec

needs_extension = pytest.mark.skipif(
    not HAVE_EXTENSION, reason="_csoa extension not built"
)

# Both flat-capable kernels must execute flat ops identically; the
# compiled tier only joins the matrix when the extension is present.
FLAT_KERNELS = [SoaSimulator] + (
    [CompiledSimulator] if HAVE_EXTENSION else []
)


class _FakeFabric:
    """Just the counters ``_flat_wake`` charges at settle time."""

    def __init__(self):
        self.messages = 0
        self.bytes_transported = 0
        self.total_latency_ns = 0
        self.total_contention_ns = 0


# -- flat-op mechanics --------------------------------------------------------


@pytest.mark.parametrize("cls", FLAT_KERNELS)
def test_flat_transmit_uncontended_single_leg(cls):
    sim = cls()
    fabric = _FakeFabric()
    path = tuple(Link(sim, i, i + 1) for i in range(3))
    shell = sim.flat_transmit(fabric, ((path, 64, 120),), value=120)
    sim.run()
    # N acquire words + 1 transmit-start word + 1 settle row + 1 shell
    # dispatch: the same N+3 events the generator twin costs.
    assert sim.events_executed == len(path) + 3
    assert shell.triggered and shell.value == 120
    assert sim.now == 120
    assert fabric.messages == 1
    assert fabric.bytes_transported == 64
    assert fabric.total_latency_ns == 120
    assert fabric.total_contention_ns == 0
    for link in path:
        assert link.messages == 1
        assert link.bytes_carried == 64
        assert link.busy_ns == 120
        assert link.in_use == 0
        assert link.grants == 1
    profile = sim.engine_profile()
    assert profile["flat_posts"] == 1


@pytest.mark.parametrize("cls", FLAT_KERNELS)
def test_flat_transmits_serialize_fifo_on_shared_link(cls):
    sim = cls()
    fabric = _FakeFabric()
    link = Link(sim, 0, 1)
    first = sim.flat_transmit(fabric, (((link,), 8, 50),), value="a")
    second = sim.flat_transmit(fabric, (((link,), 8, 50),), value="b")
    order = []
    sim.spawn(_watch(order, first, "a"))
    sim.spawn(_watch(order, second, "b"))
    sim.run()
    assert order == [("a", 50), ("b", 100)]
    # The second op queued for 50 ns on the busy link.
    assert link.total_wait_ns == 50
    assert link.grants == 2
    assert fabric.total_contention_ns == 50
    assert fabric.messages == 2


def _watch(order, shell, tag):
    yield shell
    order.append((tag, shell.sim.now))


@pytest.mark.parametrize("cls", FLAT_KERNELS)
def test_flat_transmit_two_legs_chain_at_settle(cls):
    sim = cls()
    fabric = _FakeFabric()
    out = Link(sim, 0, 1)
    back = Link(sim, 1, 0)
    shell = sim.flat_transmit(
        fabric, (((out,), 16, 30), ((back,), 16, 30)), value=None
    )
    sim.run()
    assert shell.triggered
    assert sim.now == 60  # legs run back to back
    assert fabric.messages == 2
    assert fabric.total_latency_ns == 60
    assert out.messages == 1 and back.messages == 1
    assert out.in_use == 0 and back.in_use == 0


@pytest.mark.parametrize("cls", FLAT_KERNELS)
def test_flat_op_counts_as_blocked_for_deadlock(cls):
    sim = cls()
    fabric = _FakeFabric()
    link = Link(sim, 0, 1)
    link.in_use = 1  # held forever by nobody: the op can never proceed
    sim.flat_transmit(fabric, (((link,), 8, 10),))
    with pytest.raises(DeadlockError):
        sim.run()


def test_flat_ops_run_under_guarded_loop():
    # until= runs take the method-form dispatch (_execute_word /
    # _execute_row); flat words and K_FLAT rows must route there too.
    sim = SoaSimulator()
    fabric = _FakeFabric()
    link = Link(sim, 0, 1)
    shell = sim.flat_transmit(fabric, (((link,), 8, 40),))
    sim.run(until=100)
    assert shell.triggered
    assert sim.now == 100
    assert fabric.messages == 1


def test_flat_capability_flags():
    assert Simulator._flat_capable is False
    assert SoaSimulator._flat_capable is True
    assert CompiledSimulator._flat_capable is True


@pytest.mark.parametrize("cls", FLAT_KERNELS)
def test_flat_op_slots_recycle(cls):
    sim = cls()
    fabric = _FakeFabric()
    link = Link(sim, 0, 1)
    for _ in range(4):
        sim.flat_transmit(fabric, (((link,), 8, 10),))
        sim.run()
    # Sequential ops reuse one table slot.
    assert len(sim._flat_ops) == 1
    assert sim._flat_free == [0]
    assert sim.engine_profile()["flat_posts"] == 4


# -- flat memory-transaction mechanics ----------------------------------------
#
# The transaction program (request leg -> home lock -> directory plan
# -> service sleep -> data leg) is pinned end to end by the cross-
# kernel simulation parity tests; here we pin the contended paths
# directly with a stub directory, where grant order is observable.


class _Plan:
    """Directory plan stub: a home-local read served from memory."""

    hit = False
    fast = False
    from_memory = True
    source = None
    invalidated = ()
    had_data = False
    sharing_writeback = False
    writeback = None


class _FakeMachine:
    def __init__(self):
        self.writebacks = []

    def _post_writeback(self, pid, writeback):
        self.writebacks.append((pid, writeback))


#: Memory service time used by the stub plans below.
_MEM_NS = 100


def _home_ctx(sim, calls):
    """Machine context tuple for home-local read transactions.

    Home-local ops never touch routes or message legs, so those
    entries can stay empty; the plan callout records its arguments.
    """
    fabric = _FakeFabric()

    def plan_read(pid, block):
        calls.append((pid, block))
        return _Plan()

    def plan_write(pid, block):  # pragma: no cover - read-only stubs
        raise AssertionError("read-only scenario planned a write")

    return (fabric, [], 1, 8, 64, 30, 120, _MEM_NS, 60, 0,
            plan_read, plan_write, _FakeMachine())


@pytest.mark.parametrize("cls", FLAT_KERNELS)
def test_home_lock_fifo_with_mixed_flat_and_generator_waiters(cls):
    # Three waiters queue on a held home lock in arrival order: a flat
    # transaction, a plain generator (`yield lock`), another flat
    # transaction.  Resource.release must grant strictly FIFO across
    # the two waiter encodings (complement-packed flat words vs plain
    # process ints) -- a LIFO or kind-segregated grant would reorder
    # the completion log.
    sim = cls()
    calls = []
    ctx = _home_ctx(sim, calls)
    from repro.engine import Resource

    lock = Resource(sim, capacity=1, name="dir5")
    log = []

    def holder():
        yield lock
        yield 50
        lock.release()

    def flat_requester(tag, arrive):
        yield arrive
        result = yield sim.flat_transact(ctx, 0, 5, 0, lock, False)
        log.append((tag, sim.now, result))

    def generator_waiter():
        yield 20
        yield lock
        log.append(("gen", sim.now, None))
        lock.release()

    sim.spawn(holder(), name="holder")
    sim.spawn(flat_requester("flatA", 10), name="flatA")
    sim.spawn(generator_waiter(), name="gen")
    sim.spawn(flat_requester("flatB", 30), name="flatB")
    sim.run()
    assert log == [
        ("flatA", 50 + _MEM_NS, (0, _MEM_NS)),
        ("gen", 50 + _MEM_NS, None),
        ("flatB", 50 + 2 * _MEM_NS, (0, _MEM_NS)),
    ]
    assert calls == [(0, 5), (0, 5)]
    assert lock.in_use == 0 and not lock._waiters
    assert lock.grants == 4


@needs_extension
@pytest.mark.parametrize(
    "splits",
    [(25,), (25, 60)],
    ids=["python-parks-c-grants", "python-grants-c-wakes"],
)
def test_parked_flat_op_wakes_across_kernel_boundary(splits):
    # Guarded runs (`until=`) use the Python word loop even on the
    # compiled tier, so splitting one run pins the handoff contract:
    # an op parked (and possibly granted) by the Python loop must be
    # granted/woken by the C loop from the same kernel state, and the
    # whole splice must be event-identical to an unsplit SoA run.
    from repro.engine import Resource

    def scenario(sim):
        calls = []
        ctx = _home_ctx(sim, calls)
        lock = Resource(sim, capacity=1, name="dir5")
        log = []

        def holder():
            yield lock
            yield 50
            lock.release()

        def requester():
            yield 10
            result = yield sim.flat_transact(ctx, 0, 5, 0, lock, False)
            log.append((sim.now, result))

        sim.spawn(holder(), name="holder")
        sim.spawn(requester(), name="req")
        return log, lock

    ref = SoaSimulator()
    ref_log, _ = scenario(ref)
    ref.run()

    sim = CompiledSimulator()
    log, lock = scenario(sim)
    sim.run(until=splits[0])
    assert sim.now == splits[0] and not log
    assert lock.in_use == 1 and len(lock._waiters) == 1
    for t in splits[1:]:
        sim.run(until=t)
    sim.run()
    assert log == ref_log == [(50 + _MEM_NS, (0, _MEM_NS))]
    assert sim.now == ref.now
    assert sim.events_executed == ref.events_executed
    assert lock.in_use == 0 and not lock._waiters


# -- compiled tier: parity ----------------------------------------------------


@needs_extension
def test_compiled_matches_on_mixed_scenario():
    from tests.test_engine_soa import _mixed_scenario

    assert _mixed_scenario(CompiledSimulator()) == _mixed_scenario(
        Simulator()
    )


@needs_extension
def test_compiled_matches_both_kernels_on_simulation(quick_spec):
    results = {}
    for kernel in ("object", "soa", "compiled"):
        spec = quick_spec(engine_kernel=kernel, check="off")
        results[kernel] = simulate_spec(spec)
    obj, soa, comp = (
        results["object"], results["soa"], results["compiled"]
    )

    def key(r):
        return (r.total_ns, r.messages, r.sim_events, r.buckets)

    assert key(comp) == key(obj) == key(soa)
    assert comp.engine["kernel"] == "compiled"
    assert comp.engine["extension_loaded"] == 1
    assert comp.engine["heap_pops"] == soa.engine["heap_pops"]
    assert comp.engine["ring_pops"] == soa.engine["ring_pops"]
    assert comp.engine["rows_recycled"] == soa.engine["rows_recycled"]
    assert comp.engine["flat_posts"] == soa.engine["flat_posts"] > 0


@needs_extension
def test_compiled_guarded_runs_share_python_loop():
    outcomes = []
    for cls in (Simulator, CompiledSimulator):
        sim = cls()

        def sleeper(period):
            while True:
                yield period

        sim.spawn(sleeper(10))
        sim.spawn(sleeper(4))
        executed = sim.run(until=37)
        outcomes.append((executed, sim.now, sim.events_executed))
    assert outcomes[0] == outcomes[1]


@needs_extension
def test_compiled_profile_reports_extension():
    sim = CompiledSimulator()

    def once():
        yield 1

    sim.spawn(once())
    sim.run()
    profile = sim.engine_profile()
    assert profile["kernel"] == "compiled"
    assert profile["extension_loaded"] == 1


# -- compiled tier: the native digest feed ------------------------------------
#
# The C loop buffers event times and hands them over on every exit path;
# these pin the exits the end-to-end parity matrix never takes.

#: How a digest scenario ends: drained, a process raising, a deadlock,
#: and a sleep past the C loop's int64 key budget (Python finishes it).
DIGEST_EXITS = ("drained", "crash", "deadlock", "handoff")


def _digest_exit_scenario(cls, exit_kind):
    """Run flat transmits and sleepers to the given exit; return the
    simulator (its ``state_digest()`` must be exact whatever happened)."""
    sim = cls(checkers=(DeterminismChecker(),))
    fabric = _FakeFabric()
    path = tuple(Link(sim, i, i + 1) for i in range(2))
    never = sim.event()

    def worker():
        for _ in range(40):
            yield 3
            sim.flat_transmit(fabric, ((path, 16, 20),))
        if exit_kind == "crash":
            raise ValueError("boom")
        if exit_kind == "deadlock":
            yield never
        if exit_kind == "handoff":
            yield 2 ** 40
            yield 5

    sim.spawn(worker(), name="worker")
    error = {"crash": SimulationError, "deadlock": DeadlockError}.get(
        exit_kind
    )
    if error is None:
        sim.run()
    else:
        with pytest.raises(error):
            sim.run()
    return sim


@needs_extension
@pytest.mark.parametrize("exit_kind", DIGEST_EXITS)
def test_compiled_digest_is_exact_on_every_exit_path(exit_kind):
    ref = _digest_exit_scenario(SoaSimulator, exit_kind)
    sim = _digest_exit_scenario(CompiledSimulator, exit_kind)
    assert sim.events_executed == ref.events_executed > 100
    assert sim.state_digest() == ref.state_digest()
    # ... and it differs from the digest of any other ending.
    other = "drained" if exit_kind != "drained" else "handoff"
    assert sim.state_digest() != _digest_exit_scenario(
        CompiledSimulator, other
    ).state_digest()


@needs_extension
def test_compiled_digest_runs_do_not_leak():
    """Every exit path balances its references: repeated digest runs
    keep the interpreter's allocated-block count flat."""
    def cycle():
        for exit_kind in DIGEST_EXITS:
            _digest_exit_scenario(CompiledSimulator, exit_kind)
        gc.collect()
        return sys.getallocatedblocks()

    for _ in range(3):  # warm caches, interned ints, type slots
        cycle()
    before = cycle()
    for _ in range(20):
        after = cycle()
    assert after - before < 20, (before, after)


# -- compiled tier: selection -------------------------------------------------


@needs_extension
def test_selection_precedence_matrix(monkeypatch, quick_spec):
    # Explicit knob, no env.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert resolve_kernel("compiled") == "compiled"
    assert type(make_simulator(kernel="compiled")) is CompiledSimulator
    # Env fills in auto.
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    assert resolve_kernel("auto") == "compiled"
    # Explicit knob beats env.
    assert resolve_kernel("soa") == "soa"
    assert type(make_simulator(kernel="soa")) is SoaSimulator
    monkeypatch.setenv("REPRO_ENGINE", "soa")
    assert resolve_kernel("compiled") == "compiled"
    # Config knob flows through the run layer.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    result = simulate_spec(quick_spec(engine_kernel="compiled", check="off"))
    assert result.engine["kernel"] == "compiled"


# -- compiled tier: import-time fallback (subprocess) -------------------------
#
# HAVE_EXTENSION is decided when repro.engine.compiled first imports,
# so the no-extension arms need a fresh interpreter, not monkeypatch.


def _run_py(code, **env_overrides):
    env = dict(os.environ)
    env.update(env_overrides)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_repro_csoa_off_selects_soa_silently():
    proc = _run_py(
        "import warnings\n"
        "from repro.engine import HAVE_EXTENSION, resolve_kernel\n"
        "assert not HAVE_EXTENSION\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    assert resolve_kernel('auto') == 'soa'\n"
        "assert not caught, [str(w.message) for w in caught]\n"
        "print('ok')\n",
        REPRO_CSOA="0", REPRO_ENGINE="",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_explicit_compiled_degrades_with_warning_not_error():
    proc = _run_py(
        "import warnings\n"
        "from repro.engine import resolve_kernel, make_simulator\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    assert resolve_kernel('compiled') == 'soa'\n"
        "assert any(issubclass(w.category, RuntimeWarning) for w in caught)\n"
        "assert any('falling back' in str(w.message) for w in caught)\n"
        "from repro.engine.soa import SoaSimulator\n"
        "import warnings\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "    sim = make_simulator(kernel='compiled')\n"
        "assert type(sim) is SoaSimulator\n"
        "print('ok')\n",
        REPRO_CSOA="0", REPRO_ENGINE="",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_repro_engine_compiled_env_on_bare_host_still_runs():
    # The full selection path: REPRO_ENGINE=compiled with no extension
    # must complete a real run on the SoA fallback, warning only.
    proc = _run_py(
        "import warnings\n"
        "warnings.simplefilter('default')\n"
        "from repro.runspec import RunSpec\n"
        "from repro.core.runner import simulate_spec\n"
        "spec = RunSpec.build('jacobi', 'target', 4, 'mesh',\n"
        "                     preset='quick', seed=7, check='off')\n"
        "result = simulate_spec(spec)\n"
        "assert result.engine['kernel'] == 'soa'\n"
        "assert result.engine['extension_loaded'] == 0\n"
        "print('ok')\n",
        REPRO_CSOA="0", REPRO_ENGINE="compiled",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_csoa_disabled_flat_transactions_match_spec():
    # REPRO_CSOA=0 pins the pure-Python SoA flat-transaction path as
    # the specification: a full target-machine run in a fresh
    # interpreter with the extension disabled must reproduce the same
    # simulation invariants as this process's kernel (whichever tier
    # selection picked here), and must actually have taken the flat
    # path rather than the generator twins.
    proc = _run_py(
        "from repro.runspec import RunSpec\n"
        "from repro.core.runner import simulate_spec\n"
        "spec = RunSpec.build('jacobi', 'target', 4, 'mesh',\n"
        "                     preset='quick', seed=7, check='off')\n"
        "r = simulate_spec(spec)\n"
        "print(r.engine['kernel'], r.engine['extension_loaded'],\n"
        "      r.sim_events, r.messages, r.total_ns,\n"
        "      r.engine['flat_tx'], r.engine['flat_posts'])\n",
        REPRO_CSOA="0", REPRO_ENGINE="",
    )
    assert proc.returncode == 0, proc.stderr
    kernel, loaded, events, messages, total_ns, flat_tx, flat_posts = (
        proc.stdout.split()
    )
    assert kernel == "soa" and loaded == "0"
    assert int(flat_tx) > 0 and int(flat_posts) > 0

    spec = RunSpec.build("jacobi", "target", 4, "mesh",
                         preset="quick", seed=7, check="off")
    ref = simulate_spec(spec)
    assert (int(events), int(messages), int(total_ns)) == (
        ref.sim_events, ref.messages, ref.total_ns
    )


def test_broken_extension_import_falls_back():
    # A corrupt .so raises ImportError; emulate by poisoning
    # sys.modules before repro.engine.compiled imports.
    proc = _run_py(
        "import sys\n"
        "sys.modules['repro.engine._csoa'] = None\n"
        "from repro.engine import HAVE_EXTENSION, resolve_kernel\n"
        "assert not HAVE_EXTENSION\n"
        "assert resolve_kernel('auto') == 'soa'\n"
        "print('ok')\n",
        REPRO_ENGINE="",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# -- fixtures -----------------------------------------------------------------


@pytest.fixture
def quick_spec():
    """Factory for a small deterministic jacobi spec."""
    def build(**overrides):
        kwargs = dict(preset="quick", seed=7)
        kwargs.update(overrides)
        return RunSpec.build("jacobi", "target", 4, "mesh", **kwargs)
    return build
