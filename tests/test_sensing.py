import dataclasses
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from defsim.envsim import (
    ChannelState,
    CommsChannel,
    EffectDescriptor,
    FileEntry,
    Owner,
    Process,
    Service,
    ServiceState,
)
from defsim.sensing import (
    _COMPARATORS,
    _LOGICAL_SENSORS,
    _PHYSICAL_SENSORS,
    _TRANSFORMERS,
    Pattern,
    SensorConfig,
    WorldState,
    all_hold,
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


def fold(rows, config=FULL_CONFIG, ws=None, tick=0, **own):
    """A world state after folding one pass of rows into it."""
    ws = WorldState() if ws is None else ws
    update_world_state(ws, rows, config, tick, own)
    return ws


def features_of(rows, config=FULL_CONFIG):
    return fold(rows, config).features


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
    # physical reads land in the rows, derived values in features
    env = make_env()
    env.step(0)
    rows = sense(env, "h1", FULL_CONFIG, Random(1))
    ws = fold(rows)
    assert ("service_up", "web", 1) in rows and "service_up:web" not in ws.features
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
        feats = features_of(sense(env, "h1", config, Random(9)), config)
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
    rows = sense(env, "h1", config, Random(5))

    draws = Random(5)
    expected = []
    for sid, truth in (("api", (0.7, 0, 1, 0.5)), ("db", (0.4, 0, 0, 2.0)),
                       ("web", (0.9, 1, 1, 1.0))):
        for kind, value in zip(("service_health", "service_up", "service_required",
                                "service_weight"), truth):
            expected.append((f"{kind}:{sid}", max(0.0, min(1.0, value + draws.uniform(-0.25, 0.25)))))
    assert [(f"{kind}:{ident}", value) for kind, ident, value in rows] == expected


def test_noisy_pass_draws_the_pinned_values():
    # pinned values and next draw: a change in how sensing consumes the
    # seeded stream would change every trace of a noisy scenario
    env = make_env(
        hosts=[make_host("h1", integrity=0.6,
                         services=[Service("web", True, 1.0, 0.9), Service("db", False, 2.0, 0.4)],
                         processes=[Process("sys", "s", True, Owner.SYSTEM),
                                    Process("mal", "m", False, Owner.MALWARE)],
                         files=[FileEntry("f1", Owner.MALWARE)]),
               make_host("h2"), make_host("h3")],
        channels=[CommsChannel("c1", ("h1", "h2"), ChannelState.HEALTHY),
                  CommsChannel("c2", ("h1", "h3"), ChannelState.SPOOFED)])
    env.step(0)
    config = SensorConfig(physical=FULL_CONFIG.physical,
                          noise={"host_integrity": 0.3, "service_health:*": 0.2,
                                 "process_unknown:*": 0.4, "channel_healthy:*": 0.1})
    rng = Random(42)
    rows = sense(env, "h1", config, rng)
    assert [(kind if ident is None else f"{kind}:{ident}", value)
            for kind, ident, value in rows] == [
        ("host_integrity", 0.6836560790747302),
        ("service_health:db", 0.21000430208906679),
        ("service_up:db", 0),
        ("service_required:db", 0),
        ("service_weight:db", 2.0),
        ("service_health:web", 0.8100117273476477),
        ("service_up:web", 1),
        ("service_required:web", 1),
        ("service_weight:web", 1.0),
        ("process_unknown:mal", 0.7785685905190582),
        ("process_unknown:sys", 0.18917697133120992),
        ("file_foreign:f1", 1),
        ("channel_state:c1", "healthy"),
        ("channel_healthy:c1", 1.0),
        ("channel_state:c2", "spoofed"),
        ("channel_healthy:c2", 0.0784359135409691),
    ]
    assert rng.random() == 0.08693883262941615


# -- update_world_state ---------------------------------------------------------------

def test_empty_update_only_advances_the_tick():
    ws, config = WorldState(tick=3, features={"x": 1.0}), SensorConfig()
    update_world_state(ws, [], config, 4, {})
    assert ws.features == {"x": 1.0} and config.derived == {((), ()): {}}
    assert ws.tick == 4


def test_last_writer_wins_overwrite():
    ws = WorldState(features={"comms_integrity": 1.0})
    config = SensorConfig(logical=["channel_counts"], transformers=["comms_integrity"])
    fold([("channel_healthy", "c1", 1), ("channel_healthy", "c2", 0)], config, ws)
    assert ws.features["comms_integrity"] == 0.5


# -- skipping unchanged passes -------------------------------------------------------------

INTEGRITY_ONLY = SensorConfig(physical=["host_integrity"], logical=["host_integrity"],
                              transformers=["host_integrity"])


def test_first_pass_derives_even_without_rows():
    ws = WorldState()
    assert update_world_state(ws, [], SensorConfig(transformers=["comms_integrity"]), 0, {})
    assert ws.features == {"comms_integrity": 1.0}


@pytest.mark.parametrize("first, second", [(1, 1.0), (1.0, 1), (1, True), (0.5, 0.25)])
def test_rows_of_another_value_or_type_are_rederived(first, second):
    """Rows equal by value but not by type key their own memo entry."""
    config = dataclasses.replace(INTEGRITY_ONLY)  # with an empty memo
    ws = fold([("host_integrity", None, first)], config)
    assert update_world_state(ws, [("host_integrity", None, second)], config, 1, {})
    assert [(type(value), value) for value in
            (derived["host_integrity"] for derived in config.derived.values())] == [
        (type(first), first), (type(second), second)]
    value = ws.features["host_integrity"]
    assert type(value) is type(second) and value == second


@pytest.mark.parametrize("first, second", [(0, 0.0), (0, 1)])
def test_own_values_are_written_on_every_pass(first, second):
    ws = fold([("host_integrity", None, 0.5)], INTEGRITY_ONLY, replica_count=first)
    assert update_world_state(ws, None, INTEGRITY_ONLY, 1, {"replica_count": second})
    assert type(ws.features["replica_count"]) is type(second)


def test_reused_rows_are_unchanged_and_own_values_still_written():
    ws = fold([("host_integrity", None, 0.5)], INTEGRITY_ONLY, replica_count=0)
    assert update_world_state(ws, None, INTEGRITY_ONLY, 1, {"replica_count": 1})
    assert not update_world_state(ws, None, INTEGRITY_ONLY, 2, {"replica_count": 1})
    assert ws.tick == 2 and ws.features == {"host_integrity": 0.5, "replica_count": 1}


# numbers as the scenario table admits them: ints and floats, never bools
_STATE_NUMBERS = st.integers(-2, 2) | st.floats(-2.0, 2.0)


@st.composite
def platform_states(draw):
    """A host h1 with any integrity, services, processes and files of any
    owner, linked to other hosts by channels in any state."""
    def some(build):
        return [build(i) for i in range(draw(st.integers(0, 3)))]

    services = some(lambda i: Service(f"s{i}", draw(st.booleans()), draw(_STATE_NUMBERS),
                                      draw(_STATE_NUMBERS), draw(st.sampled_from(ServiceState))))
    processes = some(lambda i: Process(f"p{i}", f"hash{i}", draw(st.booleans()),
                                       draw(st.sampled_from(Owner))))
    files = some(lambda i: FileEntry(f"f{i}", draw(st.sampled_from(Owner))))
    peers = some(lambda i: make_host(f"h{i + 2}"))
    channels = [CommsChannel(f"c{i}", ("h1", peer.host_id), draw(st.sampled_from(ChannelState)))
                for i, peer in enumerate(peers)]
    h1 = make_host("h1", draw(_STATE_NUMBERS), services, processes, files)
    return make_env(hosts=[h1, *peers], channels=channels)


@given(platform_states(), st.sampled_from([0.0, 0.05, 0.5]), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 1.0), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_every_feature_is_a_number(env, noise, seed, detectability, replica_count):
    """Every sensor and transformer on, with and without noise, and the
    agent's own values as AgentState and AgentRuntime type them: every
    feature is an int or a float, never a bool. The deliberation memo keys
    features by their comparisons alone, which rests on this."""
    config = SensorConfig(list(_PHYSICAL_SENSORS), list(_LOGICAL_SENSORS), list(_TRANSFORMERS),
                          {"*": noise} if noise else {})
    ws = fold(sense(env, "h1", config, Random(seed)), config,
              detectability=detectability, replica_count=replica_count)
    assert {"detectability", "replica_count", "comms_integrity"} <= ws.features.keys()
    assert all(type(value) in (int, float) for value in ws.features.values()), ws.features


def _exact(features):
    """Features as (key, type, repr) in key order: 1, 1.0 and True apart,
    and -0.0 apart from 0.0."""
    return [(key, type(value), repr(value)) for key, value in features.items()]


# one row that equals the others by value, not by type or by the sign of zero
_TYPED_ROWS = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0]).map(
    lambda value: [("host_integrity", None, value)])
_ZEROS = [[("host_integrity", None, 0.0)], [("host_integrity", None, -0.0)],
          [("host_integrity", None, 1)]]


@given(st.lists(platform_states() | _TYPED_ROWS, min_size=1, max_size=3),
       st.lists(st.integers(0, 3), min_size=1, max_size=8), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(_ZEROS, [0, 2, 1], False, 0)
@settings(max_examples=200, deadline=None)
def test_one_shared_config_derives_what_a_fresh_config_per_pass_derives(pool, order, noisy,
                                                                       seed):
    """Passes drawn from a pool of platform states and typed rows (index 3,
    after a first pass, reads nothing again) folded through one
    SensorConfig, whose memo every pass shares, leave the features (values,
    types and key order) and return on every pass what a fresh config per
    pass does. The memo holds at most one entry per distinct typed row set,
    and none for a noisy config."""
    def config():
        return SensorConfig(list(_PHYSICAL_SENSORS), list(_LOGICAL_SENSORS),
                            list(_TRANSFORMERS), {"*": 0.05} if noisy else {})
    shared, rng, seen = config(), Random(seed), set()
    memo_ws, fresh_ws = WorldState(), WorldState()
    for tick, index in enumerate(order):
        if index == 3 and seen:
            memo_rows = fresh_rows = None
        else:
            item = pool[index % len(pool)]
            memo_rows = item if isinstance(item, list) else sense(item, "h1", shared, rng)
            fresh_rows = list(memo_rows)
            seen.add(repr(memo_rows))
        own = {"detectability": 0.5, "replica_count": tick % 2}
        assert (update_world_state(memo_ws, memo_rows, shared, tick, own)
                == update_world_state(fresh_ws, fresh_rows, config(), tick, own))
        assert _exact(memo_ws.features) == _exact(fresh_ws.features)
    assert len(shared.derived) <= (0 if noisy else len(seen))


# -- predicates -----------------------------------------------------------------------------

# the predicate evaluation all_hold replaced, kept as its reference
_REFERENCE_COMPARATORS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def reference_predicate_holds(features, pred):
    key, cmp, threshold = pred
    return key in features and _REFERENCE_COMPARATORS[cmp](features[key], threshold)


def reference_all_hold(features, preds):
    return all(reference_predicate_holds(features, p) for p in preds)


def outcome(fn, *args):
    try:
        result = fn(*args)
    except TypeError as exc:  # an order comparison of a str with a number
        return "raises", str(exc)
    return type(result), result


_KEYS = ("a", "b", "c")
_VALUES = st.one_of(st.sampled_from([0, 1, 0.5, 1.0, True, False, float("nan")]),
                    st.integers(-3, 3), st.floats(allow_nan=True), st.booleans(),
                    st.sampled_from(["healthy", "spoofed"]))
_PREDICATES = st.tuples(st.sampled_from(_KEYS + ("absent",)), st.sampled_from(sorted(_COMPARATORS)),
                        _VALUES)


@given(st.dictionaries(st.sampled_from(_KEYS), _VALUES),
       st.lists(st.one_of(_PREDICATES, _PREDICATES.map(list)), max_size=4))
@settings(max_examples=500, deadline=None)
def test_all_hold_equals_the_reference(features, preds):
    assert sorted(_COMPARATORS) == sorted(_REFERENCE_COMPARATORS)
    assert outcome(all_hold, features, preds) == outcome(reference_all_hold, features, preds)


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
    baseline_rows = sense(env, "h1", config, Random(1))
    ws = fold(baseline_rows, config)
    baseline_features = dict(ws.features)
    # corrupt ground truth outside sensor coverage
    env.hosts["h1"].integrity = 0.01
    env.apply_effect(EffectDescriptor("process:h1:mal", "", "spawn", {"owner": "malware"}))
    env.step(1)
    rows = sense(env, "h1", config, Random(1))
    fold(rows, config, ws, tick=1)
    assert rows == baseline_rows
    assert ws.features == baseline_features
    assert not {"host_integrity", "process_unknown"} & {kind for kind, _, _ in rows}
    assert not {"host_integrity", "unknown_proc_count"} & ws.features.keys()
