from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from defsim.envsim import ChannelState, CommsChannel, EffectDescriptor, Owner, Process, Service
from defsim.errors import StaleDescriptors
from defsim.sensing import (
    Assessment,
    Descriptor,
    Pattern,
    SensorConfig,
    WorldState,
    identify,
    predicate_holds,
    sense,
    update_world_state,
)

from conftest import make_env, make_host

FULL_CONFIG = SensorConfig(
    physical=["host_integrity", "service_table", "process_table", "file_table", "channel_state"],
    logical=["unknown_proc_count", "foreign_file_count", "channel_counts",
             "service_weights", "host_integrity", "service_health", "channel_health"],
    transformers=["comms_integrity", "functionality_belief", "host_integrity",
                  "service_health", "counts", "channel_health"],
)


def features_of(descriptors):
    ws = update_world_state(WorldState(), descriptors)
    return ws.features


def test_no_sensors_yields_no_descriptors():
    env = make_env()
    env.step(0)
    assert sense(env, "h1", SensorConfig(), Random(1)) == []


def test_unknown_proc_count_by_enumeration():
    # two unknown-hash processes among three
    env = make_env(hosts=[make_host("h1", processes=[
        Process("p_ok", "sys", True, Owner.SYSTEM),
        Process("p_bad1", "x1", False, Owner.MALWARE),
        Process("p_bad2", "x2", False, Owner.MALWARE),
    ])])
    env.step(0)
    feats = features_of(sense(env, "h1", FULL_CONFIG, Random(1)))
    assert feats["unknown_proc_count"] == 2


def test_comms_integrity_three_of_four_channels_healthy():
    hosts = [make_host("h1", services=[Service("web", True, 1.0, 1.0)]),
             make_host("h2"), make_host("h3"), make_host("h4"), make_host("h5")]
    channels = [
        CommsChannel("c1", ("h1", "h2"), ChannelState.HEALTHY),
        CommsChannel("c2", ("h1", "h3"), ChannelState.HEALTHY),
        CommsChannel("c3", ("h1", "h4"), ChannelState.HEALTHY),
        CommsChannel("c4", ("h1", "h5"), ChannelState.SPOOFED),
    ]
    env = make_env(hosts=hosts, channels=channels)
    env.step(0)
    feats = features_of(sense(env, "h1", FULL_CONFIG, Random(1)))
    assert feats["comms_integrity"] == 0.75


def test_pipeline_stages_feed_forward_only():
    # physical reads land in beliefs, derived values in features
    env = make_env()
    env.step(0)
    ws = update_world_state(WorldState(), sense(env, "h1", FULL_CONFIG, Random(1)))
    assert "service_health:web" in ws.beliefs
    assert "functionality_belief" in ws.features
    assert "service_table" not in ws.features


def test_sensor_noise_is_bounded_and_seeded():
    env = make_env()
    env.hosts["h1"].integrity = 0.5
    env.step(0)
    config = SensorConfig(physical=["host_integrity"], logical=["host_integrity"],
                          transformers=["host_integrity"], noise={"host_integrity": 0.1})
    values = set()
    for _ in range(5):
        feats = features_of(sense(env, "h1", config, Random(9)))
        values.add(feats["host_integrity"])
    assert len(values) == 1  # same seed, same perturbation
    value = values.pop()
    assert 0.4 <= value <= 0.6 and value != 0.5


def test_noise_draws_follow_key_order_on_a_multi_service_host():
    # service_table reads each service in sorted id order as health, up,
    # required, weight; a "service_*" glob perturbs every one of them
    env = make_env(hosts=[make_host("h1", services=[
        Service("web", True, 1.0, 0.9),
        Service("db", False, 2.0, 0.4),
        Service("api", True, 0.5, 0.7),
    ])])
    env.step(0)
    config = SensorConfig(physical=["service_table"], noise={"service_*": 0.25})
    descriptors = sense(env, "h1", config, Random(5))

    draws = Random(5)
    expected = []
    for sid, truth in (("api", (0.7, 0, 1, 0.5)), ("db", (0.4, 0, 0, 2.0)),
                       ("web", (0.9, 1, 1, 1.0))):
        for kind, value in zip(("service_health", "service_up", "service_required",
                                "service_weight"), truth):
            expected.append((f"{kind}:{sid}", max(0.0, min(1.0, value + draws.uniform(-0.25, 0.25)))))
    assert [(d.key, d.value) for d in descriptors] == expected


# -- update_world_state ---------------------------------------------------------------

def test_empty_update_only_advances_the_tick():
    ws = WorldState(tick=3, features={"x": 1.0})
    update_world_state(ws, [])
    assert ws.features == {"x": 1.0}
    assert ws.tick == 4


def test_last_writer_wins_overwrite():
    ws = WorldState(features={"comms_integrity": 1.0})
    update_world_state(ws, [Descriptor("transformer:t", "comms_integrity", 0.5, 0)])
    assert ws.features["comms_integrity"] == 0.5


def test_stale_descriptors_rejected():
    ws = WorldState(tick=5)
    with pytest.raises(StaleDescriptors):
        update_world_state(ws, [Descriptor("transformer:t", "x", 1, 4)])


def test_descriptor_is_immutable_and_hashable():
    d = Descriptor("physical:p", "k", 1.0, 0)
    assert (d.source, d.key, d.value, d.tick) == ("physical:p", "k", 1.0, 0)
    for name in ("source", "key", "value", "tick"):
        with pytest.raises(AttributeError):
            setattr(d, name, None)
    assert d == Descriptor("physical:p", "k", 1.0, 0)
    assert hash(d) == hash(Descriptor("physical:p", "k", 1.0, 0))


# -- identify ----------------------------------------------------------------------------

def pattern(pid, preds, severity, confidence=0.9):
    return Pattern(pid, preds, severity, confidence)


def test_identify_no_patterns_is_vacuous():
    a = identify(WorldState(), [], 0.5)
    assert a.matched == [] and a.problematic is False and a.top_severity == 0.0


def test_identify_single_match_by_hand():
    ws = WorldState(features={"unknown_proc_count": 2})
    p = pattern("p", [("unknown_proc_count", ">=", 1)], 0.8)
    a = identify(ws, [p], 0.5)
    assert a.matched == [("p", 0.8, 0.9)]
    assert a.problematic is True and a.top_severity == 0.8


def test_identify_orders_by_severity_then_id():
    ws = WorldState(features={"x": 1})
    patterns = [
        pattern("low", [("x", ">=", 1)], 0.4),
        pattern("hi_b", [("x", ">=", 1)], 0.8),
        pattern("hi_a", [("x", ">=", 1)], 0.8),
    ]
    a = identify(ws, patterns, 0.5)
    assert [m[0] for m in a.matched] == ["hi_a", "hi_b", "low"]
    assert a.top_severity == 0.8


def test_identify_absent_feature_fails_predicate():
    a = identify(WorldState(), [pattern("p", [("missing", ">=", 1)], 0.9)], 0.5)
    assert a.matched == []


def test_identify_is_pure():
    ws = WorldState(features={"x": 3})
    patterns = [pattern("p", [("x", ">=", 1)], 0.7)]
    first = identify(ws, patterns, 0.5)
    second = identify(ws, patterns, 0.5)
    assert first == second
    assert ws.features == {"x": 3}


@given(st.integers(min_value=0, max_value=5),
       st.floats(min_value=0, max_value=1, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_adding_a_pattern_never_removes_matches(count, severity):
    ws = WorldState(features={"x": count})
    base = [pattern(f"p{i}", [("x", ">=", i)], 0.5) for i in range(3)]
    before = {m[0] for m in identify(ws, base, 0.5).matched}
    extended = base + [pattern("extra", [("x", ">=", 0)], severity)]
    after = {m[0] for m in identify(ws, extended, 0.5).matched}
    assert before <= after


def test_problematic_monotone_in_matched_severity():
    ws = WorldState(features={"x": 1})
    low = identify(ws, [pattern("p", [("x", ">=", 1)], 0.4)], 0.5)
    high = identify(ws, [pattern("p", [("x", ">=", 1)], 0.6)], 0.5)
    assert not low.problematic and high.problematic


# -- belief / ground-truth separation ----------------------------------------------------

def test_unsensed_ground_truth_never_reaches_beliefs():
    env = make_env(hosts=[make_host("h1", services=[Service("web", True, 1.0, 1.0)],
                                    files=[])])
    env.step(0)
    config = SensorConfig(physical=["service_table"], logical=["service_weights"],
                          transformers=["functionality_belief"])
    ws = update_world_state(WorldState(), sense(env, "h1", config, Random(1)))
    baseline_beliefs = dict(ws.beliefs)
    baseline_features = dict(ws.features)
    # corrupt ground truth outside sensor coverage
    env.hosts["h1"].integrity = 0.01
    env.apply_effect(EffectDescriptor("process:h1:mal", "", "spawn", {"owner": "malware"}))
    env.step(1)
    update_world_state(ws, sense(env, "h1", config, Random(1)))
    assert ws.beliefs == baseline_beliefs
    assert ws.features == baseline_features
    assert "host_integrity" not in ws.beliefs
