"""ResultStore: on-disk caching, corruption quarantine, cache bypass."""

import json

import pytest

import repro.exec.backend as backend_module
from repro import RunSpec
from repro.exec import ResultStore
from repro.exec.store import QUARANTINE_SUFFIX, STORE_SCHEMA
from repro.experiments import SweepRunner, get_experiment, render_figure


@pytest.fixture
def counted_simulate(monkeypatch):
    """Count real simulations so cache hits are directly observable."""
    real_simulate = backend_module.simulate
    calls = {"count": 0}

    def counting(app, machine_name, config, **kwargs):
        calls["count"] += 1
        return real_simulate(app, machine_name, config, **kwargs)

    monkeypatch.setattr(backend_module, "simulate", counting)
    return calls


def quick_spec(**overrides) -> RunSpec:
    kwargs = dict(app="fft", machine="clogp", nprocs=2, preset="quick")
    kwargs.update(overrides)
    return RunSpec.build(**kwargs)


# -- direct store behaviour ---------------------------------------------------------


def test_get_put_round_trip(tmp_path):
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path / "cache")
    spec = quick_spec()
    assert store.get(spec) is None
    result = simulate_spec(spec)
    store.put(spec, result)
    cached = store.get(spec)
    assert cached is not None
    assert cached.to_dict() == result.to_dict()
    assert store.stats() == {"hits": 1, "misses": 1, "stores": 1,
                             "quarantined": 0}


def test_entries_are_keyed_by_spec_digest(tmp_path):
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    # A different seed is a different spec: no aliasing.
    assert store.get(quick_spec(seed=999)) is None
    digest = spec.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    assert entry.exists()
    payload = json.loads(entry.read_text())
    assert payload["schema"] == STORE_SCHEMA
    assert payload["spec_digest"] == digest
    assert payload["spec"] == spec.to_dict()


def test_corrupt_entry_is_quarantined_and_re_simulated(tmp_path,
                                                       counted_simulate):
    spec = quick_spec()
    digest = spec.spec_digest()
    with SweepRunner(preset="quick", cache_dir=tmp_path) as runner:
        runner.run_batch([spec])
    assert counted_simulate["count"] == 1
    entry = tmp_path / digest[:2] / f"{digest}.json"
    payload = entry.read_bytes()
    entry.write_bytes(payload[: len(payload) // 2])  # truncate mid-write

    with SweepRunner(preset="quick", cache_dir=tmp_path) as runner:
        runner.run_batch([spec])
        assert runner.store.quarantined == 1
    # The corrupt file was moved aside, the point re-simulated exactly
    # once, and the cache repaired with a fresh entry.
    assert counted_simulate["count"] == 2
    assert entry.with_name(entry.name + QUARANTINE_SUFFIX).exists()
    assert entry.exists()
    store = ResultStore(tmp_path)
    assert store.get(spec) is not None


def test_garbage_json_entry_is_quarantined(tmp_path):
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    digest = spec.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    entry.write_text("{not json")
    fresh = ResultStore(tmp_path)
    assert fresh.get(spec) is None
    assert fresh.quarantined == 1
    assert not entry.exists()


def test_wrong_digest_entry_is_quarantined(tmp_path):
    """An entry whose recorded digest disagrees with its path is
    corrupt -- serving it would attribute a result to the wrong spec."""
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    digest = spec.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    payload = json.loads(entry.read_text())
    payload["spec_digest"] = "0" * len(digest)
    entry.write_text(json.dumps(payload))
    fresh = ResultStore(tmp_path)
    assert fresh.get(spec) is None
    assert fresh.quarantined == 1


def test_foreign_schema_entry_is_a_plain_miss(tmp_path):
    """A different store schema is a version skew, not corruption: the
    entry is left in place for the other version and overwritten here."""
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    digest = spec.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    payload = json.loads(entry.read_text())
    payload["schema"] = STORE_SCHEMA + 1
    entry.write_text(json.dumps(payload))
    fresh = ResultStore(tmp_path)
    assert fresh.get(spec) is None
    assert fresh.quarantined == 0
    assert entry.exists()  # not moved aside


def test_schema_2_digest_entry_is_resimulated(tmp_path, counted_simulate):
    """A schema bump that changes what a stored result *means* must turn
    warm entries into plain misses, then overwrite them.  Schema 3
    redefined ``check_report.digest`` (a schema-2 entry holds the
    old-definition digest); schema 4 moved checked runs onto the
    selected kernel (a schema-3 ``check != off`` entry reports the
    object kernel and a monotonicity count of events + schedules)."""
    from repro.core.runner import simulate_spec
    from repro.exec.store import entry_checksum

    def as_schema_2(result):
        result["check_report"]["digest"] = "0" * 32

    def as_schema_3(result):
        result["engine"]["kernel"] = "object"
        monotonicity = next(entry for entry in result["check_report"]["results"]
                            if entry["name"] == "monotonicity")
        monotonicity["checks"] *= 2

    for schema, spec, age in ((2, quick_spec(digest=True), as_schema_2),
                              (3, quick_spec(check="basic"), as_schema_3)):
        root = tmp_path / f"schema-{schema}"
        current = simulate_spec(spec).to_dict()
        current.pop("wall_seconds")
        ResultStore(root).put(spec, simulate_spec(spec))
        digest = spec.spec_digest()
        entry = root / digest[:2] / f"{digest}.json"
        payload = json.loads(entry.read_text())
        payload["schema"] = schema
        age(payload["result"])
        payload["checksum"] = entry_checksum(payload)  # valid, as written then
        entry.write_text(json.dumps(payload))

        counted_simulate["count"] = 0
        with SweepRunner(preset="quick", cache_dir=root) as runner:
            runner.run_batch([spec])
            outcome = runner.outcome_of(spec)
            assert runner.store.misses == 1 and runner.store.quarantined == 0
        assert counted_simulate["count"] == 1
        fresh = outcome.to_dict()
        fresh.pop("wall_seconds")
        assert fresh == current
        rewritten = json.loads(entry.read_text())
        assert rewritten["schema"] == STORE_SCHEMA == 4
        rewritten["result"].pop("wall_seconds")
        assert rewritten["result"] == current


# -- integrity audit: checksums, verify, repair -------------------------------------


def test_entries_carry_a_content_checksum(tmp_path):
    from repro.core.runner import simulate_spec
    from repro.exec.store import entry_checksum

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    digest = spec.spec_digest()
    payload = json.loads((tmp_path / digest[:2] / f"{digest}.json").read_text())
    # The checksum is recomputable from the parsed JSON: it survives the
    # round trip through text, which is what makes reads verifiable.
    assert payload["checksum"] == entry_checksum(payload)


def test_bit_flip_anywhere_in_the_result_is_caught(tmp_path):
    """The checksum covers the result values themselves -- a flipped
    digit in a metric is corruption, even though the JSON still parses
    and the spec digest still matches."""
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    digest = spec.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    payload = json.loads(entry.read_text())
    payload["result"]["total_ns"] = payload["result"]["total_ns"] + 1
    entry.write_text(json.dumps(payload))
    fresh = ResultStore(tmp_path)
    assert fresh.get(spec) is None
    assert fresh.quarantined == 1


def test_verify_reports_a_healthy_store(tmp_path):
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    for seed in (1, 2, 3):
        spec = quick_spec(seed=seed)
        store.put(spec, simulate_spec(spec))
    report = store.verify()
    assert report.scanned == 3 and report.ok == 3
    assert report.healthy
    assert not report.corrupt
    assert "3 ok" in report.summary()


def test_verify_quarantines_corruption_without_repair(tmp_path):
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    digest = spec.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    data = bytearray(entry.read_bytes())
    data[len(data) // 2] ^= 0xFF
    entry.write_bytes(bytes(data))

    report = ResultStore(tmp_path).verify(repair=False)
    assert report.corrupt == [digest]
    assert not report.repaired and not report.healthy
    assert not entry.exists()  # moved aside
    assert entry.with_name(entry.name + QUARANTINE_SUFFIX).exists()


def test_verify_repair_restores_bit_identical_entries(tmp_path):
    """--repair re-simulates a corrupt entry from its embedded spec and
    the rewritten entry is bit-identical (determinism) to the original,
    modulo the host-measured wall time."""
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    digest = spec.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    original = json.loads(entry.read_text())
    # Corrupt only the result values; the embedded spec stays intact,
    # which is what makes the entry repairable.
    damaged = dict(original)
    damaged["result"] = dict(original["result"], total_ns=0)
    entry.write_text(json.dumps(damaged))

    resimulated = []

    def counting_simulate(recovered_spec):
        resimulated.append(recovered_spec.spec_digest())
        return simulate_spec(recovered_spec)

    report = ResultStore(tmp_path).verify(repair=True,
                                          simulate=counting_simulate)
    assert report.corrupt == [digest]
    assert report.repaired == [digest]
    assert not report.unrepairable
    assert report.healthy
    assert resimulated == [digest]  # exactly the damaged point, once
    repaired = json.loads(entry.read_text())
    original["result"].pop("wall_seconds")
    repaired["result"].pop("wall_seconds")
    assert repaired["result"] == original["result"]
    assert ResultStore(tmp_path).get(spec) is not None


def test_verify_repair_reports_unrepairable_garbage(tmp_path):
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    digest = spec.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    entry.write_text("{totally-not-json")  # no spec left to recover

    report = ResultStore(tmp_path).verify(repair=True)
    assert report.corrupt == [digest]
    assert report.unrepairable == [digest]
    assert not report.repaired
    assert not report.healthy
    assert "unrepairable" in report.summary()


def test_repair_recovers_entries_quarantined_by_an_earlier_scan(tmp_path):
    """verify-then-repair must heal as much as a single --repair pass:
    the first scan quarantines the rot, the second mines the
    quarantined file for its spec and re-simulates."""
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    spec = quick_spec()
    store.put(spec, simulate_spec(spec))
    digest = spec.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    payload = json.loads(entry.read_text())
    payload["result"]["total_ns"] = 0  # checksum now fails
    entry.write_text(json.dumps(payload))

    first = ResultStore(tmp_path).verify(repair=False)
    assert first.corrupt == [digest] and not first.healthy
    assert not entry.exists()

    second = ResultStore(tmp_path).verify(repair=True)
    assert second.corrupt == [digest]
    assert second.repaired == [digest]
    assert second.healthy
    assert entry.exists()
    assert ResultStore(tmp_path).get(spec) is not None


def test_verify_skips_quarantined_and_foreign_schema_files(tmp_path):
    from repro.core.runner import simulate_spec

    store = ResultStore(tmp_path)
    good = quick_spec(seed=1)
    store.put(good, simulate_spec(good))
    stale = quick_spec(seed=2)
    store.put(stale, simulate_spec(stale))
    digest = stale.spec_digest()
    entry = tmp_path / digest[:2] / f"{digest}.json"
    payload = json.loads(entry.read_text())
    payload["schema"] = STORE_SCHEMA + 1
    entry.write_text(json.dumps(payload))
    # A leftover quarantine file from an earlier incident.
    (entry.parent / ("dead.json" + QUARANTINE_SUFFIX)).write_text("junk")

    report = ResultStore(tmp_path).verify()
    assert report.scanned == 2
    assert report.ok == 1
    assert report.stale == 1
    assert report.healthy


# -- sweep-runner integration -------------------------------------------------------


def test_warm_store_performs_zero_simulations(tmp_path, counted_simulate):
    """The acceptance check: a second invocation against a warm store
    answers every point from disk and simulates nothing."""
    experiment = get_experiment("fig01")
    with SweepRunner(preset="quick", processors=(1, 4),
                     cache_dir=tmp_path) as cold:
        cold_data = cold.run_experiment(experiment)
        assert cold.simulated == counted_simulate["count"] > 0

    cold_count = counted_simulate["count"]
    with SweepRunner(preset="quick", processors=(1, 4),
                     cache_dir=tmp_path) as warm:
        warm_data = warm.run_experiment(experiment)
        assert warm.simulated == 0
        assert warm.store.hits == cold_count
    assert counted_simulate["count"] == cold_count  # zero new simulations
    assert warm_data.series == cold_data.series
    assert render_figure(warm_data) == render_figure(cold_data)


def test_warm_store_serves_parallel_backend(tmp_path, counted_simulate):
    """Cache entries written by a serial run satisfy a --jobs 2 run."""
    experiment = get_experiment("fig01")
    with SweepRunner(preset="quick", processors=(1, 4),
                     cache_dir=tmp_path) as cold:
        cold_data = cold.run_experiment(experiment)
    cold_count = counted_simulate["count"]
    with SweepRunner(preset="quick", processors=(1, 4), jobs=2,
                     cache_dir=tmp_path) as warm:
        warm_data = warm.run_experiment(experiment)
        assert warm.simulated == 0
    assert counted_simulate["count"] == cold_count
    assert warm_data.series == cold_data.series


def test_no_cache_dir_means_no_cache_files(tmp_path, counted_simulate):
    with SweepRunner(preset="quick", processors=(1,)) as runner:
        runner.run_point("fft", "clogp", "full", 1)
        assert runner.store is None
    assert list(tmp_path.iterdir()) == []
    assert counted_simulate["count"] == 1


def test_failures_are_not_cached(tmp_path, monkeypatch):
    """Failures may be transient (host trouble, interrupted runs), so
    only successful results are persisted."""
    from repro.errors import RetryLimitError
    from repro.exec import PointFailure

    def dying(app, machine_name, config, **kwargs):
        raise RetryLimitError(0, 1, 3, 12345)

    monkeypatch.setattr(backend_module, "simulate", dying)
    spec = quick_spec()
    with SweepRunner(preset="quick", cache_dir=tmp_path) as runner:
        runner.run_batch([spec])
        assert isinstance(runner.outcome_of(spec), PointFailure)
        assert runner.store.stores == 0
    digest = spec.spec_digest()
    assert not (tmp_path / digest[:2] / f"{digest}.json").exists()
