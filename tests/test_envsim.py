from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from defsim.envsim import (
    ChannelState,
    CommsChannel,
    DeliveryStatus,
    EffectDescriptor,
    FileEntry,
    Owner,
    Process,
    Service,
    ServiceState,
    sum_in_order,
)
from defsim.errors import UnknownEntity

from conftest import BUNDLED, make_env, make_host, two_host_env


# -- step ----------------------------------------------------------------------

def test_step_empty_schedule_returns_nothing():
    env = make_env()
    assert env.step(5) == []


def test_step_delivers_delayed_messages_in_the_order_they_were_sent():
    # sent at ticks 1 and 2 over delays of 3 and 2: both arrive at tick 4
    env = two_host_env("degraded", drop=0.0, delay=3)
    env.step(1)
    first = dict(msg("a1"), tag="first")
    assert env.deliver("c1", first, Random(1)) is DeliveryStatus.DELIVERED
    env.channels["c1"].delay_ticks = 2
    env.step(2)
    second = dict(msg("a1"), tag="second")
    assert env.deliver("c1", second, Random(1)) is DeliveryStatus.DELIVERED
    assert env.step(3) == [] and "a1" not in env.inboxes
    assert env.step(4) == [("c1", first), ("c1", second)]
    assert env.inboxes["a1"] == [first, second]


# -- apply_effect ----------------------------------------------------------------

def test_set_host_integrity():
    env = make_env()
    outcome = env.apply_effect(EffectDescriptor("host:h1", "integrity", "set", 0.5))
    assert env.hosts["h1"].integrity == 0.5
    assert outcome["changes"][0]["old"] == 1.0
    assert outcome["changes"][0]["new"] == 0.5


def test_add_clamps_integrity_to_zero():
    env = make_env()
    env.apply_effect(EffectDescriptor("host:h1", "integrity", "set", 0.3))
    env.apply_effect(EffectDescriptor("host:h1", "integrity", "add", -0.9))
    assert env.hosts["h1"].integrity == 0.0


def test_kill_absent_process_is_unknown_entity():
    env = make_env()
    with pytest.raises(UnknownEntity):
        env.apply_effect(EffectDescriptor("process:h1:nope", "", "kill"))


def test_spawn_then_kill_process():
    env = make_env()
    env.apply_effect(EffectDescriptor("process:h1:mal1", "", "spawn",
                                      {"image_hash": "x", "known_good": False, "owner": "malware"}))
    assert "mal1" in env.hosts["h1"].processes
    env.apply_effect(EffectDescriptor("process:h1:mal1", "", "kill"))
    assert "mal1" not in env.hosts["h1"].processes


def test_unknown_selector_sweeps_only_bad_processes():
    env = make_env(hosts=[make_host("h1", processes=[
        Process("good", "sys", True, Owner.SYSTEM),
        Process("bad_b", "x", False, Owner.MALWARE),
        Process("bad_a", "x", False, Owner.MALWARE),
    ])])
    outcome = env.apply_effect(EffectDescriptor("process:h1:@unknown", "", "kill"))
    assert [c["entity"] for c in outcome["changes"]] == ["process:h1:bad_a", "process:h1:bad_b"]
    assert set(env.hosts["h1"].processes) == {"good"}


def test_service_state_refreshes_and_outcome_records_transition():
    env = make_env()
    outcome = env.apply_effect(EffectDescriptor("service:h1:web", "health", "set", 0.1))
    change = outcome["changes"][0]
    assert change["old_state"] == "up"
    assert change["new_state"] == "down"
    assert change["required"] is True


def test_setting_channel_healthy_clears_drop_and_delay():
    env = two_host_env(channel_state="degraded", drop=0.4, delay=2)
    env.apply_effect(EffectDescriptor("channel:c1", "state", "set", "healthy"))
    ch = env.channels["c1"]
    assert ch.drop_probability == 0.0 and ch.delay_ticks == 0


# -- functionality ------------------------------------------------------------------

def test_functionality_all_up_is_one():
    env = make_env()
    assert env.functionality() == 1.0


def test_functionality_all_down_is_zero():
    env = make_env()
    env.apply_effect(EffectDescriptor("service:h1:web", "health", "set", 0.0))
    assert env.functionality() == 0.0


def test_functionality_weighted_three_quarters():
    # two required services, weights 1 and 3, only the weight-3 one up: 3/4
    env = make_env(hosts=[make_host("h1", services=[
        Service("small", True, 1.0, 0.0, ServiceState.DOWN),
        Service("big", True, 3.0, 1.0),
    ])])
    assert env.functionality() == 0.75


def test_functionality_monotone_in_service_state():
    env = make_env(hosts=[make_host("h1", services=[
        Service("a", True, 2.0, 0.0, ServiceState.DOWN),
        Service("b", True, 1.0, 1.0),
    ])])
    before = env.functionality()
    env.apply_effect(EffectDescriptor("service:h1:a", "health", "set", 1.0))
    assert env.functionality() >= before


# -- deliver ---------------------------------------------------------------------------

def msg(recipient="a2"):
    return {"kind": "StatusReport", "sender": "a1", "recipient": recipient, "payload": {}}


def test_deliver_healthy_immediate():
    env = two_host_env()
    env.step(0)
    assert env.deliver("c1", msg(), Random(1)) is DeliveryStatus.DELIVERED
    assert env.inboxes["a2"]  # on the send tick


def test_deliver_disabled_always_dropped():
    env = two_host_env("disabled")
    for seed in range(20):
        assert env.deliver("c1", msg(), Random(seed)) is DeliveryStatus.DROPPED
    assert "a2" not in env.inboxes


def test_deliver_degraded_certain_drop():
    env = two_host_env("degraded", drop=1.0)
    assert env.deliver("c1", msg(), Random(3)) is DeliveryStatus.DROPPED


def test_deliver_degraded_delay_schedules_arrival():
    env = two_host_env("degraded", drop=0.0, delay=2)
    env.step(4)
    sent = msg()
    assert env.deliver("c1", sent, Random(1)) is DeliveryStatus.DELIVERED
    assert "a2" not in env.inboxes
    env.step(5)  # t+1
    assert "a2" not in env.inboxes
    assert env.step(6) == [("c1", sent)]  # t+2
    assert env.inboxes["a2"] == [sent]


def test_deliver_spoofed_is_observed_and_substitutable():
    env = two_host_env("spoofed")
    env.step(0)
    out = env.deliver("c1", msg(), Random(1), spoofer=lambda _, m: dict(m, payload={"forged": True}))
    assert out is DeliveryStatus.OBSERVED_AND_DELIVERED
    assert env.inboxes["a2"][0]["payload"] == {"forged": True}


# -- snapshot / restore ------------------------------------------------------------------

def test_snapshot_restore_identity():
    env = make_env()
    before = (dict(env.hosts["h1"].services), dict(env.hosts["h1"].processes))
    token = env.snapshot("h1")
    env.restore(token)
    host = env.hosts["h1"]
    assert set(host.services) == set(before[0]) and set(host.processes) == set(before[1])


def test_restore_returns_service_fields_to_snapshot_values():
    env = make_env()
    token = env.snapshot("h1")
    env.apply_effect(EffectDescriptor("service:h1:web", "health", "set", 0.0))
    assert env.hosts["h1"].services["web"].state is ServiceState.DOWN
    env.restore(token)
    svc = env.hosts["h1"].services["web"]
    assert svc.health == 1.0 and svc.state is ServiceState.UP and svc.required and svc.weight == 1.0


def test_a_kill_clears_residence_and_the_agents_process():
    env = two_host_env()
    env.install_agent("a1", "h1")
    env.install_agent("a2", "h2")
    assert env.hosts["h1"].resident_agent == "a1"
    assert "agent_proc_a1" in env.hosts["h1"].processes
    outcome = env.apply_effect(EffectDescriptor("agent:a1", "", "kill"))
    assert outcome["changes"] == [
        {"entity": "agent:a1", "attribute": "resident", "old": "h1", "new": None}]
    assert env.hosts["h1"].resident_agent is None
    assert "agent_proc_a1" not in env.hosts["h1"].processes
    assert env.hosts["h2"].resident_agent == "a2"
    assert "agent_proc_a2" in env.hosts["h2"].processes


def test_restore_preserves_malware_and_agent_presence():
    env = make_env()
    token = env.snapshot("h1")
    env.apply_effect(EffectDescriptor("process:h1:mal", "", "spawn", {"owner": "malware"}))
    env.install_agent("a1", "h1")
    env.restore(token)
    host = env.hosts["h1"]
    assert "mal" in host.processes
    assert host.resident_agent == "a1"
    assert "agent_proc_a1" in host.processes


# -- the per-host change counts and the fixed topology ------------------------------------------

def three_host_env(channel_state="healthy", delay=0):
    """two_host_env's hosts and channel c1 (h1-h2), plus h3 on channel c2 to h2."""
    env = two_host_env(channel_state, delay=delay)
    hosts = [*env.hosts.values(), make_host("h3")]
    return make_env(hosts=hosts, channels=[*env.channels.values(),
                                           CommsChannel("c2", ("h2", "h3"))])


# each mutator, and the hosts whose sensors read what it changes
_MUTATORS = {
    "host": (lambda env: env.apply_effect(EffectDescriptor("host:h1", "integrity", "set", 0.5)),
             {"h1"}),
    "service": (lambda env: env.apply_effect(
        EffectDescriptor("service:h1:web", "health", "add", -0.1)), {"h1"}),
    "process": (lambda env: env.apply_effect(
        EffectDescriptor("process:h1:mal", "", "spawn", {"owner": "malware"})), {"h1"}),
    "file": (lambda env: env.apply_effect(
        EffectDescriptor("file:h1:drop", "", "spawn", {"owner": "malware"})), {"h1"}),
    "channel": (lambda env: env.apply_effect(
        EffectDescriptor("channel:c1", "state", "set", "spoofed")), {"h1", "h2"}),
    "agent": (lambda env: env.apply_effect(EffectDescriptor("agent:a1", "", "kill")), {"h1"}),
    "restore": (lambda env: env.restore(env.snapshot("h1")), {"h1"}),
    "install_agent": (lambda env: env.install_agent("a2", "h2"), {"h2"}),
    # a selector that matches nothing changes nothing
    "no_match": (lambda env: env.apply_effect(
        EffectDescriptor("process:h2:@unknown", "", "kill")), set()),
}


@pytest.mark.parametrize("name", list(_MUTATORS))
def test_each_mutator_advances_the_mutation_count(name):
    """A mutator advances the change count of exactly the hosts whose
    sensors read what it changed, and of no other host."""
    mutate, touched = _MUTATORS[name]
    env = three_host_env()
    env.install_agent("a1", "h1")
    before = dict(env.host_changes)
    mutate(env)
    assert {h for h in env.hosts if env.host_changes[h] != before[h]} == touched
    assert all(env.host_changes[h] > before[h] for h in touched)


def test_stepping_routing_messaging_and_snapshots_leave_the_mutation_count():
    env = three_host_env("degraded", delay=1)
    env.install_agent("a1", "h1")
    before = dict(env.host_changes)
    env.step(0)
    assert env.route("h1", "h2") == "c1"
    assert env.deliver("c1", msg(), Random(1)) is DeliveryStatus.DELIVERED
    assert env.step(1) and env.drain_inbox("a2") == [msg()]
    env.snapshot("h1")
    env.functionality()
    assert env.host_changes == before


@pytest.mark.parametrize("name", BUNDLED)
def test_channels_adjacent_lists_each_hosts_channels_by_id(name, bundled_configs):
    env = bundled_configs[name].build_environment()
    for host_id in env.hosts:
        want = sorted((c for c in env.channels.values() if host_id in c.endpoints),
                      key=lambda c: c.channel_id)
        got = env.channels_adjacent(host_id)
        assert type(got) is tuple and len(got) == len(want), host_id
        assert all(a is b for a, b in zip(got, want)), host_id  # the live channels


def test_a_channel_from_a_host_to_itself_is_adjacent_once():
    env = make_env(channels=[CommsChannel("c0", ("h1", "h1"))])
    assert env.channels_adjacent("h1") == (env.channels["c0"],)
    assert env.channels_adjacent("nowhere") == ()


# -- properties -----------------------------------------------------------------------------

@given(st.lists(st.tuples(st.sampled_from(["set", "add"]),
                          st.floats(min_value=-2, max_value=2, allow_nan=False)),
                max_size=30))
@settings(max_examples=100, deadline=None)
def test_fractions_stay_in_unit_interval(ops):
    env = make_env()
    for op, value in ops:
        env.apply_effect(EffectDescriptor("host:h1", "integrity", op, value))
        env.apply_effect(EffectDescriptor("service:h1:web", "health", op, value))
        assert 0.0 <= env.hosts["h1"].integrity <= 1.0
        assert 0.0 <= env.hosts["h1"].services["web"].health <= 1.0


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_disabled_channel_never_delivers_any_seed(seed):
    env = two_host_env("disabled")
    assert env.deliver("c1", msg(), Random(seed)) is DeliveryStatus.DROPPED


@given(st.lists(st.one_of(st.integers(), st.floats(), st.booleans())),
       st.sampled_from([0, 0.0, -0.0, 1]))
@settings(max_examples=200, deadline=None)
def test_sum_in_order_adds_left_to_right(values, start):
    total = start
    for value in values:  # the loop it stands for
        total += value
    assert repr(sum_in_order(values, start)) == repr(total)
    assert repr(sum_in_order(iter(values), start)) == repr(total)
