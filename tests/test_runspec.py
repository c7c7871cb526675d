"""RunSpec: canonical serialization and the spec digest.

The digest replaces the retired hand-maintained ``RunKey`` tuple as the
identity of one simulation.  The tuple dropped fields it did not know
about -- ``barrier`` and ``seed`` among them -- so two genuinely
different runs could alias under one memo key.  The digest hashes the
*entire* canonical serialization, so every configuration knob
participates by construction.
"""

from dataclasses import fields

import pytest

from repro import FaultConfig, RunSpec, SystemConfig
from repro.config import CONFIG_FIELDS
from repro.errors import ConfigError
from repro.faults import LinkFailure, NodeStall
from repro.faults.config import FAULT_FIELDS


def spec(**overrides) -> RunSpec:
    kwargs = dict(app="fft", machine="clogp", nprocs=4, topology="full",
                  preset="quick")
    kwargs.update(overrides)
    return RunSpec.build(**kwargs)


# -- digest stability ---------------------------------------------------------------


def test_digest_is_stable_across_constructions():
    assert spec().spec_digest() == spec().spec_digest()


def test_digest_is_independent_of_params_dict_order():
    first = RunSpec.build("is", "target", 4, params={"keys": 512, "buckets": 64})
    second = RunSpec.build("is", "target", 4, params={"buckets": 64, "keys": 512})
    assert first == second
    assert first.spec_digest() == second.spec_digest()


def test_digest_survives_serialization_round_trip():
    original = spec(fault=FaultConfig(drop_rate=0.01, seed=7),
                    barrier="tree", check="strict")
    rebuilt = RunSpec.from_dict(original.to_dict())
    assert rebuilt == original
    assert rebuilt.spec_digest() == original.spec_digest()


# -- the digest definition is pinned ------------------------------------------------
#
# Literal digests: a change to the canonical serialization (field order
# aside -- the JSON is key-sorted) would silently turn every user's
# result store and checkpoint into misses, so it must show up here.


PINNED_DIGESTS = {
    "defaults": "b0b428d69fae99b4586714f551856739",
    "target": "5913df31f6628efd58ca8089de4d8ee6",
    "logp": "4d94264b16a0f82113f8b2dcf1d8072d",
    "clogp": "1b744735be51958d91003e38c416c6b1",
    "ideal": "2e14445f6db80aead9d80c4bb3716876",
    "model-knobs": "80999f60085112b44aefbc8611630441",
    "fault-windows": "a192141bd4d16114e8fdd8b251763ccd",
    "strict-digest": "fda8f46087542a197f99c77ac0aae558",
}


def pinned_spec(name: str) -> RunSpec:
    if name == "defaults":
        return RunSpec.build("fft", "target", 8)
    if name in ("target", "logp", "clogp", "ideal"):
        return spec(machine=name)
    if name == "model-knobs":
        return spec(app="cg", topology="mesh", nprocs=16,
                    protocol="illinois", barrier="tree",
                    adaptive_g=True, g_per_event_type=True)
    if name == "fault-windows":
        return spec(machine="target", topology="cube", fault=FaultConfig(
            drop_rate=0.01, seed=7,
            link_failures=(LinkFailure(0, 1, 10, 20),),
            node_stalls=(NodeStall(2, 5, 9),),
        ))
    assert name == "strict-digest"
    return spec(check="strict", digest=True, max_events=1_000_000)


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_digest_definition_is_pinned(name, monkeypatch):
    # The ambient sanitizer level and kernel knob are configuration
    # fields; clear them so the defaults are the documented ones.
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert pinned_spec(name).spec_digest() == PINNED_DIGESTS[name]


@pytest.mark.parametrize("cls, names", [
    (SystemConfig, CONFIG_FIELDS),
    (FaultConfig, FAULT_FIELDS),
])
def test_serialized_field_names_track_the_dataclass(cls, names):
    # to_dict/from_dict iterate a tuple read off the dataclass once; it
    # must still name every field, so a new one is serialized and
    # digested.
    assert list(names) == [f.name for f in fields(cls)]
    assert list(cls().to_dict()) == list(names)


# -- every knob participates (the RunKey aliasing hazard) ---------------------------


@pytest.mark.parametrize("overrides", [
    {"app": "cg"},
    {"machine": "target"},
    {"topology": "mesh"},
    {"nprocs": 8},
    {"preset": "default"},
    {"seed": 999},                      # RunKey dropped the seed
    {"barrier": "tree"},                # RunKey dropped the barrier
    {"protocol": "illinois"},
    {"adaptive_g": True},
    {"g_per_event_type": True},
    {"digest": True},
    {"max_events": 1_000_000},
    {"fault": FaultConfig(drop_rate=0.05)},
    {"fault": FaultConfig(seed=3)},
    {"params": {"points": 1024}},
])
def test_every_field_changes_the_digest(overrides):
    assert spec(**overrides).spec_digest() != spec().spec_digest()


def test_check_level_changes_the_digest():
    # Explicit levels on both sides: the omitted-check default tracks
    # the ambient REPRO_CHECK, so it cannot anchor this comparison.
    assert (spec(check="strict").spec_digest()
            != spec(check="off").spec_digest())


def test_fault_windows_change_the_digest():
    windowed = spec(fault=FaultConfig(
        link_failures=(LinkFailure(0, 1, 10, 20),),
        node_stalls=(NodeStall(2, 5, 9),),
    ))
    assert windowed.spec_digest() != spec().spec_digest()
    rebuilt = RunSpec.from_dict(windowed.to_dict())
    assert rebuilt.config.fault.link_failures == (LinkFailure(0, 1, 10, 20),)
    assert rebuilt.config.fault.node_stalls == (NodeStall(2, 5, 9),)
    assert rebuilt.spec_digest() == windowed.spec_digest()


def test_config_hardware_fields_change_the_digest():
    custom = RunSpec(
        app="fft", machine="target",
        config=SystemConfig(processors=4, memory_cycles=20),
        params={"points": 512}, preset="quick",
    )
    base = RunSpec(
        app="fft", machine="target",
        config=SystemConfig(processors=4),
        params={"points": 512}, preset="quick",
    )
    assert custom.spec_digest() != base.spec_digest()


# -- strict deserialization ---------------------------------------------------------


def test_from_dict_rejects_unknown_config_fields():
    payload = spec().to_dict()
    payload["config"]["flux_capacitor"] = True
    with pytest.raises(ConfigError, match="flux_capacitor"):
        RunSpec.from_dict(payload)


def test_from_dict_rejects_missing_config_fields():
    payload = spec().to_dict()
    del payload["config"]["barrier"]
    with pytest.raises(ConfigError, match="barrier"):
        RunSpec.from_dict(payload)


def test_from_dict_rejects_wrong_schema():
    payload = spec().to_dict()
    payload["schema"] = 99
    with pytest.raises(ConfigError, match="schema 99"):
        RunSpec.from_dict(payload)


def test_unknown_machine_rejected():
    with pytest.raises(ConfigError, match="unknown machine"):
        RunSpec(app="fft", machine="vax", config=SystemConfig(processors=4))


def test_non_scalar_params_rejected():
    with pytest.raises(ConfigError, match="JSON scalar"):
        RunSpec(app="fft", machine="clogp",
                config=SystemConfig(processors=4),
                params={"points": [1, 2, 3]})


# -- execution helpers --------------------------------------------------------------


def test_make_application_returns_fresh_instances():
    s = spec()
    first = s.make_application()
    second = s.make_application()
    assert first is not second
    assert first.name == "fft"
    assert first.nprocs == 4


def test_build_resolves_preset_params():
    from repro.experiments.workloads import app_params

    s = spec()
    assert s.params_dict == app_params("fft", "quick")


def test_describe_names_the_point():
    assert spec().describe() == "fft/clogp/full/p=4 (quick)"
