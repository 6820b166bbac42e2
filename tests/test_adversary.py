from itertools import product
from random import Random

import pytest

from defsim.adversary import (
    HuntResult,
    MalwareController,
    MalwareInstance,
    MalwarePhase,
    PHASE_ORDER,
    Playbook,
    PlaybookStep,
    hunt,
    malware_step,
    next_phase,
    spoof_payload,
)
from defsim.envsim import CommsChannel, EffectDescriptor, Service
from defsim.runner import run_episode
from defsim.scenario import _STEP, _TRIGGER

from conftest import BUNDLED, make_env, make_host, two_host_env


def inst(phase=MalwarePhase.DORMANT, host="h1", intensity=0.5):
    return MalwareInstance("m1", host, phase=phase, hunt_intensity=intensity)


def test_scripted_step_passthrough():
    env = two_host_env()
    pb = Playbook(steps=[PlaybookStep(4, "set_channel", {"channel": "c1", "state": "disabled"},
                                      instance_id="m1")],
                  fallback=False)
    effects = malware_step(inst(MalwarePhase.COMMS_COMPROMISE), env, pb, Random(1), 4)
    assert len(effects) == 1
    assert effects[0].target == "channel:c1"
    assert effects[0].value == "disabled"


def test_scripted_trigger_gates_step():
    env = make_env()
    step = PlaybookStep(2, "create_file", {"file_id": "f"}, instance_id="m1",
                        trigger={"kind": "host_integrity_below", "host": "h1", "value": 0.5})
    pb = Playbook(steps=[step], fallback=False)
    assert malware_step(inst(), env, pb, Random(1), 2) == []
    env.hosts["h1"].integrity = 0.2
    assert len(malware_step(inst(), env, pb, Random(1), 2)) == 1


# trigger kind -> (its fields, an edit of make_env()'s platform that makes it hold)
TRIGGERS = {
    "host_integrity_below": ({"host": "h1", "value": 0.5},
                             lambda env: setattr(env.hosts["h1"], "integrity", 0.2)),
}


def test_the_playbook_reads_every_trigger_kind_of_the_format():
    assert set(_TRIGGER.cases) == set(TRIGGERS)
    for kind, (fields, make_hold) in TRIGGERS.items():
        env = make_env()
        step = PlaybookStep(2, "create_file", {"file_id": "f"}, instance_id="m1",
                            trigger={"kind": kind, **fields})
        pb = Playbook(steps=[step], fallback=False)
        assert malware_step(inst(), env, pb, Random(1), 2) == []
        make_hold(env)
        assert len(malware_step(inst(), env, pb, Random(1), 2)) == 1


# step action -> (its params on two_host_env(), the effects it emits, the instance's
# phase and lateral target after it); the instance m1 starts in Foothold on h1
STEPS = {
    "advance_phase": ({}, [], MalwarePhase.PERSISTENCE, None),
    "create_file": ({"file_id": "f"}, [EffectDescriptor("file:h1:f", "", "spawn",
                                                        {"owner": "malware"})],
                    MalwarePhase.FOOTHOLD, None),
    "set_channel": ({"channel": "c1", "state": "disabled"},
                    [EffectDescriptor("channel:c1", "state", "set", "disabled")],
                    MalwarePhase.FOOTHOLD, None),
    "degrade_service": ({"service": "db", "host": "h2", "amount": 0.5},
                        [EffectDescriptor("service:h2:db", "health", "add", -0.5)],
                        MalwarePhase.FOOTHOLD, None),
    "degrade_host": ({"amount": 0.25}, [EffectDescriptor("host:h1", "integrity", "add", -0.25)],
                     MalwarePhase.FOOTHOLD, None),
    "move_lateral": ({"target_host": "h2"}, [], MalwarePhase.FOOTHOLD, "h2"),
}


def test_the_playbook_runs_every_step_action_of_the_format_in_its_own_branch():
    assert set(_STEP.cases) == set(STEPS)
    for action, (params, effects, phase, lateral_target) in STEPS.items():
        instance = inst(MalwarePhase.FOOTHOLD)
        pb = Playbook(steps=[PlaybookStep(3, action, params, instance_id="m1")], fallback=False)
        assert malware_step(instance, two_host_env(), pb, Random(1), 3) == effects, action
        assert (instance.phase, instance.lateral_target) == (phase, lateral_target), action


def test_fallback_degradation_targets_lowest_health_required_service():
    env = make_env(hosts=[make_host("h1", services=[
        Service("alpha", True, 1.0, 0.9),
        Service("beta", True, 1.0, 0.4),   # lowest health, should be hit
        Service("gamma", False, 1.0, 0.1),  # not required, ignored
    ])])
    pb = Playbook(fallback=True, degradation_amount=0.2)
    effects = malware_step(inst(MalwarePhase.DEGRADATION), env, pb, Random(1), 0)
    assert len(effects) == 1
    assert effects[0].target == "service:h1:beta"
    assert effects[0].operation == "add" and effects[0].value == -0.2


def test_fallback_foothold_spawns_unknown_process_and_tracks_footprint():
    env = make_env()
    pb = Playbook(fallback=True)
    instance = inst(MalwarePhase.FOOTHOLD)
    effects = malware_step(instance, env, pb, Random(1), 0)
    assert effects[0].operation == "spawn"
    assert effects[0].value["known_good"] is False
    assert instance.footprint
    assert instance.phase is MalwarePhase.PERSISTENCE


def test_fallback_holds_in_degradation_without_resident_agent():
    env = make_env()
    pb = Playbook(fallback=True)
    instance = inst(MalwarePhase.DEGRADATION)
    malware_step(instance, env, pb, Random(1), 0)
    assert instance.phase is MalwarePhase.DEGRADATION
    env.hosts["h1"].resident_agent = "a1"
    malware_step(instance, env, pb, Random(1), 1)
    assert instance.phase is MalwarePhase.AGENT_HUNT


# -- hunt -------------------------------------------------------------------------

def test_hunt_zero_detectability_never_finds():
    instance = inst(MalwarePhase.AGENT_HUNT, intensity=1.0)
    assert all(hunt(instance, 0.0, Random(s)) is HuntResult.NOT_FOUND for s in range(50))


def test_hunt_certain_detection():
    instance = inst(MalwarePhase.AGENT_HUNT, intensity=1.0)
    assert all(hunt(instance, 1.0, Random(s)) is HuntResult.FOUND for s in range(50))


def test_hunt_frequency_matches_closed_form():
    # detectability 0.5 x intensity 0.5 -> 0.25 +/- 0.02 over 10000 trials
    instance = inst(MalwarePhase.AGENT_HUNT, intensity=0.5)
    rng = Random(42)
    found = sum(hunt(instance, 0.5, rng) is HuntResult.FOUND for _ in range(10_000))
    assert abs(found / 10_000 - 0.25) <= 0.02


# -- spoof_payload -------------------------------------------------------------------

def test_spoof_probability_zero_passes_the_message_as_it_is():
    message = {"kind": "StatusReport", "sender": "a1", "recipient": "c2",
               "payload": {"x": 1}, "auth_tag": "t"}
    out = spoof_payload(inst(), message, 0.0, Random(1))
    assert out is message
    assert message == {"kind": "StatusReport", "sender": "a1", "recipient": "c2",
                       "payload": {"x": 1}, "auth_tag": "t"}


def test_spoof_probability_one_forges_with_invalid_tag():
    message = {"kind": "StatusReport", "sender": "a1", "recipient": "c2",
               "payload": {"x": 1}, "auth_tag": "t"}
    out = spoof_payload(inst(), message, 1.0, Random(1))
    assert out["forged"] is True
    assert out["auth_tag"].startswith("forged-")
    assert out["kind"] == "ControlCommand"
    assert message["auth_tag"] == "t" and "forged" not in message  # a copy is forged


# -- controller -----------------------------------------------------------------------

def kinds(events):
    return [kind for kind, _ in events]


def test_controller_filters_effects_on_unreached_hosts():
    env = two_host_env()
    pb = Playbook(steps=[
        PlaybookStep(0, "degrade_service", {"host": "h2", "service": "db", "amount": 0.5},
                     instance_id="m1"),
    ], fallback=False)
    ctrl = MalwareController([inst(MalwarePhase.DEGRADATION, host="h1")], pb)
    assert ctrl.step(env, Random(1), 0, lambda h: None) == []  # h2 was never reached
    assert env.hosts["h2"].services["db"].health == 1.0 and not ctrl.attacked


def test_two_instances_that_find_one_agent_kill_it_once():
    env = make_env(hosts=[make_host("h1", resident_agent="a1")])
    pb = Playbook(fallback=True)
    ctrl = MalwareController([MalwareInstance(iid, "h1", phase=MalwarePhase.AGENT_HUNT,
                                              hunt_intensity=1.0) for iid in ("m1", "m2")], pb)
    events = ctrl.step(env, Random(1), 0, lambda h: 1.0)
    assert kinds(events) == ["attack.onset", "env.effect"]
    outcome = events[1][1]
    assert (outcome["cause"], outcome["target"], outcome["operation"]) == (
        "malware:m1", "agent:a1", "kill")
    assert env.hosts["h1"].resident_agent is None


def test_controller_lateral_creates_instance_and_respects_cap():
    env = two_host_env()
    pb = Playbook(steps=[PlaybookStep(0, "move_lateral", {"target_host": "h2"}, instance_id="m1")],
                  fallback=False, max_instances=2)
    ctrl = MalwareController([inst(MalwarePhase.LATERAL_MOVEMENT)], pb)
    events = ctrl.step(env, Random(1), 0, lambda h: None)
    assert events == [("adversary.lateral", {"parent": "m1", "instance": "m1_r1", "host": "h2"})]
    assert ctrl.instances["m1_r1"].phase is MalwarePhase.FOOTHOLD
    assert ctrl.reached_hosts() == {"h1", "h2"}
    # at the cap, a move makes no instance
    pb.steps[0] = PlaybookStep(1, "move_lateral", {"target_host": "h2"}, instance_id="m1")
    assert ctrl.step(env, Random(1), 1, lambda h: None) == []
    assert sorted(ctrl.instances) == ["m1", "m1_r1"]


def test_controller_evicts_instance_when_footprint_removed():
    env = make_env()
    pb = Playbook(fallback=True)
    ctrl = MalwareController([inst(MalwarePhase.FOOTHOLD)], pb)
    assert kinds(ctrl.step(env, Random(1), 0, lambda h: None)) == [
        "adversary.phase", "attack.onset", "env.effect"]
    pid = next(iter(ctrl.instances["m1"].footprint))
    assert pid in env.hosts["h1"].processes  # the step applied its effect
    del env.hosts["h1"].processes[pid]
    assert ctrl.step(env, Random(1), 1, lambda h: None) == [("adversary.evicted", {"instance": "m1"})]
    assert not ctrl.instances["m1"].alive


def test_an_evicted_instance_emits_nothing_in_later_ticks():
    env = make_env()
    pb = Playbook(steps=[PlaybookStep(tick, "create_file", instance_id="m1") for tick in (1, 2)],
                  fallback=True)
    ctrl = MalwareController([MalwareInstance("m1", "h1", MalwarePhase.PERSISTENCE,
                                              footprint={"mal_m1_1"})], pb)
    rng = Random(1)
    assert ctrl.step(env, rng, 0, lambda h: None) == [("adversary.evicted", {"instance": "m1"})]
    before = (dict(env.host_changes), rng.getstate())
    for tick in (1, 2, 3):
        assert ctrl.step(env, rng, tick, lambda h: None) == []
    assert (env.host_changes, rng.getstate()) == before
    assert "drop_m1" not in env.hosts["h1"].files


def test_step_returns_eviction_phase_lateral_onset_then_each_effect_once_an_episode():
    env = two_host_env()
    pb = Playbook(steps=[PlaybookStep(0, "move_lateral", {"target_host": "h2"}, instance_id="m2"),
                         PlaybookStep(0, "degrade_host", {"amount": 0.25}, instance_id="m2")],
                  fallback=True)
    ctrl = MalwareController([
        MalwareInstance("m0", "h1", MalwarePhase.FOOTHOLD, footprint={"mal_gone"}),
        MalwareInstance("m1", "h1", MalwarePhase.FOOTHOLD),
        MalwareInstance("m2", "h1"),
    ], pb)
    rng = Random(1)
    events = ctrl.step(env, rng, 0, lambda h: None)
    assert events[:4] == [
        ("adversary.evicted", {"instance": "m0"}),
        ("adversary.phase", {"instance": "m1", "phase": "Persistence"}),
        ("adversary.lateral", {"parent": "m2", "instance": "m2_r1", "host": "h2"}),
        ("attack.onset", {}),
    ]
    # the effects apply after every instance has stepped, in the order collected
    assert [(kind, p["cause"], p["target"]) for kind, p in events[4:]] == [
        ("env.effect", "malware:m1", "process:h1:mal_m1_1"),
        ("env.effect", "malware:m2", "host:h1")]
    assert env.hosts["h1"].integrity == 0.75
    # the next tick has effects too, and no second onset
    events = ctrl.step(env, rng, 1, lambda h: None)
    assert kinds(events) == ["adversary.phase"] * 3 + ["env.effect"] * 2
    assert [p["cause"] for _, p in events[3:]] == ["malware:m1", "malware:m2_r1"]


def test_phase_walk_is_forward_only_one_step_per_tick():
    env = make_env(hosts=[make_host("h1", services=[Service("web", True, 1.0, 1.0)],
                                    resident_agent="a1")])
    ctrl = MalwareController([inst()], Playbook(fallback=True))
    rng = Random(7)
    seen = [ctrl.instances["m1"].phase]
    for tick in range(12):
        # detectability 0.0: a hunt never finds the agent, so the walk ends in AgentHunt
        ctrl.step(env, rng, tick, lambda h: 0.0)
        seen.append(ctrl.instances["m1"].phase)
    indices = [PHASE_ORDER.index(p) for p in seen]
    assert all(0 <= b - a <= 1 for a, b in zip(indices, indices[1:]))
    assert indices == sorted(indices)
    assert seen[-1] is MalwarePhase.AGENT_HUNT


@pytest.mark.parametrize("name", BUNDLED)
def test_attack_onset_comes_once_just_before_the_first_malware_effect(bundled_configs, name):
    for seed, agent_enabled in product(range(1, 21), (True, False)):
        trace = run_episode(bundled_configs[name], seed, agent_enabled).trace
        onsets = [i for i, e in enumerate(trace) if e["kind"] == "attack.onset"]
        first = next((i for i, e in enumerate(trace) if e["kind"] == "env.effect"
                      and e["cause"].startswith("malware:")), None)
        assert onsets == ([] if first is None else [first - 1]), (seed, agent_enabled)


# -- intercept ------------------------------------------------------------------------

def three_host_env():
    """h1 and h2 share channel c1; h3 is on no channel."""
    return make_env(hosts=[make_host(h) for h in ("h1", "h2", "h3")],
                    channels=[CommsChannel("c1", ("h1", "h2"))])


def message():
    return {"kind": "StatusReport", "sender": "a1", "recipient": "c2",
            "payload": {"x": 1}, "auth_tag": "t"}


@pytest.mark.parametrize("probability", [1.0, 0.0], ids=["forges", "passes"])
def test_the_lowest_id_live_instance_on_an_endpoint_intercepts(probability):
    env = three_host_env()
    ctrl = MalwareController([MalwareInstance(iid, host) for iid, host in
                              (("m2", "h1"), ("m1", "h2"), ("m3", "h1"))],
                             Playbook(spoof_probability=probability))
    sent, rng = message(), Random(1)
    out = ctrl.intercept(env, rng, "c1", sent)
    assert rng.getstate() != Random(1).getstate()  # the interceptor drew
    if probability:
        assert out["auth_tag"] == "forged-m1" and out["forged"] is True
    else:
        assert out is sent


def test_a_dead_instance_and_one_off_the_endpoints_do_not_intercept():
    env = three_host_env()
    ctrl = MalwareController([MalwareInstance("m0", "h1", alive=False),
                              MalwareInstance("m1", "h3"), MalwareInstance("m2", "h2")],
                             Playbook(spoof_probability=1.0))
    assert ctrl.intercept(env, Random(1), "c1", message())["auth_tag"] == "forged-m2"


def test_with_no_instance_there_intercept_returns_the_message_itself():
    env = three_host_env()
    ctrl = MalwareController([MalwareInstance("m0", "h1", alive=False),
                              MalwareInstance("m1", "h3")], Playbook(spoof_probability=1.0))
    sent, rng = message(), Random(1)
    assert ctrl.intercept(env, rng, "c1", sent) is sent
    assert rng.getstate() == Random(1).getstate()


def test_next_phase_saturates_at_hunt():
    assert next_phase(MalwarePhase.AGENT_HUNT) is MalwarePhase.AGENT_HUNT
