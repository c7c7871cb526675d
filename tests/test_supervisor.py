"""SupervisedPoolBackend: worker death, hung points, degradation.

Every test here attacks a real ``ProcessPoolExecutor`` -- SIGKILLed
workers, tasks that never return, workers too wedged to deliver their
own alarm -- and asserts the supervision contract: the sweep still
yields an outcome for *every* spec, completed points are bit-identical
to a serial run, and unrecoverable points surface as structured
:class:`~repro.exec.backend.PointFailure` records instead of exceptions.
"""

import functools
import os
import signal
import time

from repro import RunSpec
from repro.exec import (
    PointFailure,
    ProcessPoolBackend,
    RetryPolicy,
    SerialBackend,
    SupervisedPoolBackend,
    execute_spec,
    make_backend,
)
from repro.exec.backend import drain


def canonical(result) -> dict:
    data = result.to_dict()
    data.pop("wall_seconds")
    return data


def quick_specs(*processor_counts, machine="ideal"):
    return [
        RunSpec.build("fft", machine, nprocs, preset="quick", digest=True)
        for nprocs in processor_counts
    ]


# -- worker-side tasks (module-level: they must pickle to the pool) ------------------


def crashing_task(spec, policy, deadline_s):
    """Every attempt kills its worker outright (no Python unwinding)."""
    os._exit(13)


def wedged_task(spec, policy, deadline_s):
    """A worker too stuck to deliver its own deadline alarm.

    Blocking SIGALRM models a point wedged inside C code: the in-worker
    deadline guard can never fire, so only the supervisor's host-side
    timer can reclaim the worker.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(120)


def stalling_task(stall_digest, spec, policy, deadline_s):
    """Stall one chosen spec on every attempt; run the rest normally."""
    def stall(inner_spec, attempt):
        if inner_spec.spec_digest() == stall_digest:
            time.sleep(120)

    return execute_spec(
        spec, policy=policy, deadline_s=deadline_s, before_attempt=stall
    )


# -- construction --------------------------------------------------------------------


def test_make_backend_supervises_parallel_by_default():
    backend = make_backend(2)
    assert isinstance(backend, SupervisedPoolBackend)
    assert isinstance(backend, ProcessPoolBackend)  # drop-in for the bare pool


# -- worker death --------------------------------------------------------------------


def test_sigkilled_worker_is_recovered_bit_identically():
    """The tentpole claim: SIGKILL a worker mid-sweep and every point
    still completes, bit-identical to serial execution."""
    specs = quick_specs(1, 2, 4) + quick_specs(1, 2, 4, machine="clogp")
    serial = drain(SerialBackend().run(specs))

    kills = {"count": 0}

    def killer(backend, completed):
        if completed == 1 and kills["count"] == 0:
            pids = backend.worker_pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)
                kills["count"] += 1

    backend = SupervisedPoolBackend(
        2, policy=RetryPolicy(max_retries=3), observer=killer
    )
    with backend:
        parallel = drain(backend.run(specs))

    assert kills["count"] == 1
    assert backend.rebuilds >= 1
    assert not backend.degraded
    assert set(parallel) == set(serial)
    for key, serial_result in serial.items():
        assert not isinstance(parallel[key], PointFailure)
        assert canonical(parallel[key]) == canonical(serial_result)
        assert (parallel[key].check_report.digest
                == serial_result.check_report.digest)


def test_rebuild_listener_fires_before_every_rebuild():
    """The checkpoint-flush hook: one call per pool rebuild."""
    flushes = {"count": 0}
    backend = SupervisedPoolBackend(
        2,
        policy=RetryPolicy(max_retries=1),
        task_fn=crashing_task,
        max_rebuilds=100,
    )
    backend.add_rebuild_listener(
        lambda: flushes.__setitem__("count", flushes["count"] + 1)
    )
    with backend:
        outcomes = drain(backend.run(quick_specs(1, 2)))
    assert backend.rebuilds >= 1
    assert flushes["count"] == backend.rebuilds
    assert all(isinstance(o, PointFailure) for o in outcomes.values())


def test_crash_looping_spec_fails_with_worker_crash_error():
    """A spec whose resubmissions keep dying must come back as a
    structured failure, not crash-loop the pool forever."""
    backend = SupervisedPoolBackend(
        2,
        policy=RetryPolicy(max_retries=1),
        task_fn=crashing_task,
        max_rebuilds=100,
    )
    with backend:
        outcomes = drain(backend.run(quick_specs(1, 2)))
    assert backend.rebuilds == 2  # budget: initial dispatch + 1 resubmission
    assert not backend.degraded
    for outcome in outcomes.values():
        assert isinstance(outcome, PointFailure)
        assert outcome.error == "WorkerCrashError"
        assert outcome.attempts == 2


def test_degrades_to_serial_after_consecutive_rebuilds():
    """With a generous retry budget but a pool that keeps dying, the
    supervisor abandons the pool and finishes the sweep in-process."""
    specs = quick_specs(1, 2, 4)
    serial = drain(SerialBackend().run(specs))
    backend = SupervisedPoolBackend(
        2,
        policy=RetryPolicy(max_retries=10),
        task_fn=crashing_task,
        max_rebuilds=2,
    )
    with backend:
        outcomes = drain(backend.run(specs))
    assert backend.degraded
    assert backend.rebuilds == 2
    assert backend.stats()["degraded"] == 1
    # Serial fallback executed the real simulation for every point.
    for key, serial_result in serial.items():
        assert not isinstance(outcomes[key], PointFailure)
        assert canonical(outcomes[key]) == canonical(serial_result)


# -- hung points ---------------------------------------------------------------------


def test_worker_side_deadline_fails_only_the_stalled_point():
    """A point stalling past its deadline on every attempt becomes a
    DeadlineExpiredError failure; its neighbours are untouched."""
    specs = quick_specs(1, 2, 4)
    victim = specs[1].spec_digest()
    backend = SupervisedPoolBackend(
        2,
        policy=RetryPolicy(max_retries=1),
        deadline_s=0.3,
        deadline_grace_s=60.0,  # host timer out of the way: in-worker alarm
        task_fn=functools.partial(stalling_task, victim),
    )
    with backend:
        outcomes = drain(backend.run(specs))
    assert backend.rebuilds == 0  # the alarm fired in the worker
    failure = outcomes[victim]
    assert isinstance(failure, PointFailure)
    assert failure.error == "DeadlineExpiredError"
    assert failure.attempts == 2
    healthy = [o for key, o in outcomes.items() if key != victim]
    assert healthy and not any(isinstance(o, PointFailure) for o in healthy)


def test_host_timer_reclaims_a_wedged_worker():
    """A worker that cannot deliver its own alarm is killed from the
    parent once deadline + grace elapses, and the point is failed."""
    backend = SupervisedPoolBackend(
        2,
        policy=RetryPolicy(max_retries=0),
        deadline_s=0.2,
        deadline_grace_s=0.3,
        task_fn=wedged_task,
        wait_tick_s=0.05,
    )
    start = time.monotonic()
    with backend:
        outcomes = drain(backend.run(quick_specs(1, 2)))
    elapsed = time.monotonic() - start
    assert elapsed < 60  # nobody waited for the 120 s sleep
    assert backend.rebuilds >= 1
    for outcome in outcomes.values():
        assert isinstance(outcome, PointFailure)
        assert outcome.error == "DeadlineExpiredError"


def test_empty_batch_is_a_no_op():
    backend = SupervisedPoolBackend(2)
    with backend:
        assert list(backend.run([])) == []
    assert backend.stats() == {"rebuilds": 0, "completed": 0, "degraded": 0}
