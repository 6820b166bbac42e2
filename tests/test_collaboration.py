from random import Random

import pytest

from defsim.collaboration import (
    Conclusion,
    FriendlyRoster,
    MessageKind,
    Post,
    Verdict,
    apply_control,
    auth_tag,
    build_message,
    handover,
    merge_conclusions,
    propagate,
    report,
    share_and_request,
    verify_message,
)
from defsim.envsim import DeliveryStatus, EffectDescriptor
from defsim.errors import (
    InvalidTransition,
    RefusedNoAuthorization,
    RefusedNoRoute,
    RefusedNoTrigger,
    RefusedNonFriendly,
    RefusedOccupied,
    UnknownGoal,
)
from defsim.execution import AgentState, Authority
from defsim.learning import KnowledgeBase
from defsim.planning import Goal, RulesOfEngagement, normalize_goals
from defsim.sensing import Pattern

from conftest import two_host_env
from negotiation_oracle import run_negotiation

KEY = "episode-key"


def concl(subject, verdict, confidence, origin, tick=0):
    return Conclusion(subject, Verdict(verdict), confidence, origin, tick)


# -- authentication ----------------------------------------------------------------------

def test_valid_message_verifies():
    msg = build_message(KEY, MessageKind.STATUS_REPORT, "a1", "c2", {"x": 1})
    assert verify_message(KEY, msg)


def test_tampered_payload_fails_verification():
    msg = build_message(KEY, MessageKind.STATUS_REPORT, "a1", "c2", {"x": 1})
    msg["payload"] = {"x": 2}
    assert not verify_message(KEY, msg)


def test_wrong_key_cannot_forge():
    msg = build_message("attacker-key", MessageKind.CONTROL_COMMAND, "c2", "a1",
                        {"command": "set_roe", "field": "max_plan_risk", "value": 1.0})
    assert not verify_message(KEY, msg)


def test_tag_depends_on_all_addressing_fields():
    base = auth_tag(KEY, "StatusReport", "a1", "c2", {"x": 1})
    assert base != auth_tag(KEY, "StatusReport", "a2", "c2", {"x": 1})
    assert base != auth_tag(KEY, "StatusReport", "a1", "c3", {"x": 1})
    assert base != auth_tag(KEY, "ControlCommand", "a1", "c2", {"x": 1})


def test_tag_bytes_are_pinned():
    # sha256 of the key and the canonical JSON of the addressed payload
    assert auth_tag(KEY, "StatusReport", "a1", "c2", {"x": 1}) == "dd830cca3e73adb7"


def test_tag_of_a_payload_json_cannot_write_raises():
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        auth_tag(KEY, "StatusReport", "a1", "c2", {"x": {1, 2}})


# -- negotiation ---------------------------------------------------------------------------

def test_single_agent_no_incoming_unchanged():
    local = {"host:h1": concl("host:h1", "clean", 0.8, "a1")}
    assert merge_conclusions(local, []) == local


def test_disjoint_subjects_union():
    a = {"host:h1": concl("host:h1", "compromised", 0.7, "a1")}
    b = {"host:h2": concl("host:h2", "clean", 0.6, "a2")}
    merged_a = merge_conclusions(a, b.values())
    merged_b = merge_conclusions(b, a.values())
    assert set(merged_a) == set(merged_b) == {"host:h1", "host:h2"}
    assert merged_a == merged_b


def test_conflict_resolved_by_confidence():
    a = {"host:h2": concl("host:h2", "compromised", 0.9, "a1")}
    b = {"host:h2": concl("host:h2", "clean", 0.6, "a2")}
    merged = merge_conclusions(b, a.values())
    assert merged["host:h2"].verdict is Verdict.COMPROMISED


def test_conflict_tie_broken_by_smaller_origin():
    # (h2, compromised, 0.9, a1) vs (h2, clean, 0.9, a2): a1 < a2 wins
    a = {"host:h2": concl("host:h2", "compromised", 0.9, "a1")}
    b = {"host:h2": concl("host:h2", "clean", 0.9, "a2")}
    merged = merge_conclusions(b, a.values())
    assert merged["host:h2"].verdict is Verdict.COMPROMISED
    assert merged["host:h2"].origin == "a1"


def random_sets(rng, n_agents):
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    subjects = [f"host:h{i}" for i in range(4)]
    initial = {}
    for agent in agents:
        initial[agent] = {}
        for subject in rng.sample(subjects, rng.randint(0, len(subjects))):
            initial[agent][subject] = concl(
                subject, rng.choice(["compromised", "clean", "unknown"]),
                round(rng.random(), 3), agent, rng.randint(0, 5))
    return agents, initial


def test_full_graph_negotiation_converges_within_three_rounds():
    rng = Random(11)
    for _ in range(50):
        agents, initial = random_sets(rng, rng.randint(2, 5))
        adjacency = {a: set(agents) - {a} for a in agents}
        final, rounds = run_negotiation(initial, adjacency, max_rounds=5)
        assert rounds <= 3
        sets = [frozenset(final[a].items()) for a in agents]
        assert len(set(sets)) == 1


def test_partitioned_negotiation_converges_per_component():
    rng = Random(7)
    agents, initial = random_sets(rng, 5)
    left, right = agents[:3], agents[3:]
    adjacency = {a: (set(left) - {a}) if a in left else (set(right) - {a}) for a in agents}
    final, _ = run_negotiation(initial, adjacency, max_rounds=5)
    assert len({frozenset(final[a].items()) for a in left}) == 1
    assert len({frozenset(final[a].items()) for a in right}) == 1


# -- share / report ---------------------------------------------------------------------------

def agent_on(host="h1"):
    return AgentState("a1", host, detectability=0.1)


def passes(channel, message):
    return message


def forge(channel, message):
    return dict(message, payload={"forged": True})


def post_on(env, rng=None, spoofer=passes, c2_host="h2"):
    return Post(env, rng or Random(1), KEY, spoofer, 0.05, c2_host)


def test_share_no_peers_no_noise():
    env = two_host_env()
    env.step(0)
    state = agent_on()
    events = share_and_request(state, [], {}, post_on(env))
    assert events == []
    assert state.detectability == 0.1


def test_share_single_peer_delivers_and_raises_detectability():
    env = two_host_env()
    env.step(0)
    state = agent_on()
    conclusions = {"host:h1": concl("host:h1", "clean", 0.9, "a1")}
    events = share_and_request(state, [("a2", "h2")], conclusions, post_on(env))
    assert events == [("agent.conclusions_requested",
                       {"peer": "a2", "status": "delivered", "channel": "c1"})]
    assert state.detectability == pytest.approx(0.15)
    inbox = env.drain_inbox("a2")
    assert inbox[0]["kind"] == "RequestConclusions"
    assert verify_message(KEY, inbox[0])


def test_share_all_peers_unreachable_is_no_route():
    env = two_host_env("disabled")
    env.step(0)
    state = agent_on()
    events = share_and_request(state, [("a2", "h2")], {}, post_on(env))
    assert events == [("agent.collaboration_solo", {"reason": "no_peer_reachable"})]
    assert state.detectability == 0.1  # nothing sent, nothing revealed


def test_the_tag_binds_each_field_of_each_conclusion_and_their_order():
    env = two_host_env()
    env.step(0)
    conclusions = [concl("host:h1", "compromised", 0.7, "a1", 3),
                   concl("host:h2", "clean", 0.9, "a2", 4)]
    post_on(env).send(agent_on(), "h2", MessageKind.SHARE_CONCLUSIONS, "a2",
                      {"conclusions": conclusions}, round_no=1)
    sent, = env.drain_inbox("a2")
    assert sent["payload"]["conclusions"] == conclusions and verify_message(KEY, sent)
    # a value for each field that no conclusion above holds
    other = {"subject": "host:h9", "verdict": Verdict.UNKNOWN, "confidence": 0.71,
             "origin": "a9", "tick": 5}
    assert Conclusion._fields == tuple(other)
    for index, held in enumerate(conclusions):
        for name, value in other.items():
            edited = list(conclusions)
            edited[index] = held._replace(**{name: value})
            assert not verify_message(KEY, {**sent, "payload": {"conclusions": edited}}), name
    reordered = {**sent, "payload": {"conclusions": conclusions[::-1]}}
    assert not verify_message(KEY, reordered)


def test_report_delivered_on_healthy_channel():
    env = two_host_env()
    env.step(0)
    events = report(agent_on(), post_on(env), "interval")
    assert events == [("agent.report", {"status": "delivered", "reason": "interval"})]
    message, = env.drain_inbox("c2")
    assert message["kind"] == "StatusReport" and message["payload"] == {}
    assert verify_message(KEY, message)


def test_report_no_route_when_disabled():
    env = two_host_env("disabled")
    env.step(0)
    state = agent_on()
    events = report(state, post_on(env), "interval")
    assert events == [("agent.report_skipped", {"reason": "no_route", "trigger": "interval"})]
    assert state.detectability == 0.1


def test_a_center_send_comes_from_c2_and_charges_no_one():
    env = two_host_env()
    env.step(0)
    state = AgentState("a2", "h2", detectability=0.1)
    sent = post_on(env, c2_host="h1").send(None, state.host_id, MessageKind.HANDOVER_GRANT,
                                           "a2", {})
    assert sent == ("c1", DeliveryStatus.DELIVERED)
    message = env.drain_inbox("a2")[0]
    assert message["sender"] == "c2" and verify_message(KEY, message)
    assert state.detectability == 0.1


def test_a_send_with_no_route_sends_and_charges_nothing():
    env = two_host_env("disabled")
    env.step(0)
    state, rng = agent_on(), Random(1)
    assert post_on(env, rng).send(state, "h2", MessageKind.SHARE_CONCLUSIONS, "a2", {}) is None
    assert env.inboxes == {}
    assert state.detectability == 0.1
    assert rng.getstate() == Random(1).getstate()


def test_a_spoofed_channel_delivers_what_the_spoofer_returns():
    env = two_host_env("spoofed")
    env.step(0)
    state = agent_on()
    sent = post_on(env, spoofer=forge).send(state, "h2", MessageKind.SHARE_CONCLUSIONS, "a2",
                                            {"conclusions": []}, round_no=2)
    assert sent == ("c1", DeliveryStatus.OBSERVED_AND_DELIVERED)
    message = env.drain_inbox("a2")[0]
    assert message["payload"] == {"forged": True} and message["round"] == 2
    assert not verify_message(KEY, message)  # the receiver discards the forgery
    assert state.detectability == pytest.approx(0.15)


# -- handover -----------------------------------------------------------------------------------

def test_handover_grant_then_return():
    state = agent_on()
    handover(state, {"kind": "HandoverGrant"})
    assert state.authority is Authority.REMOTE_C2
    handover(state, {"kind": "HandoverReturn"})
    assert state.authority is Authority.AGENT


def test_double_grant_is_invalid_transition():
    state = agent_on()
    handover(state, {"kind": "HandoverGrant"})
    with pytest.raises(InvalidTransition):
        handover(state, {"kind": "HandoverGrant"})


def test_return_without_grant_is_invalid():
    with pytest.raises(InvalidTransition):
        handover(agent_on(), {"kind": "HandoverReturn"})


# -- control ---------------------------------------------------------------------------------------

def kb_with_goals(*weights):
    kb = KnowledgeBase()
    kb.goals = normalize_goals(
        [Goal(f"g{i}", [("x", ">=", 1)], w) for i, w in enumerate(weights)])
    return kb


def test_set_goal_weight_renormalizes_sole_goal():
    kb = kb_with_goals(1.0)
    apply_control({"command": "set_goal_weight", "goal_id": "g0", "weight": 0.25},
                  kb, RulesOfEngagement())
    assert kb.goals[0].weight == 1.0


def test_set_goal_weight_renormalizes_pair():
    kb = kb_with_goals(0.5, 0.5)
    apply_control({"command": "set_goal_weight", "goal_id": "g0", "weight": 1.5},
                  kb, RulesOfEngagement())
    weights = {g.goal_id: g.weight for g in kb.goals}
    assert weights["g0"] == pytest.approx(0.75)
    assert weights["g1"] == pytest.approx(0.25)


def test_set_goal_weight_unknown_goal():
    with pytest.raises(UnknownGoal):
        apply_control({"command": "set_goal_weight", "goal_id": "ghost", "weight": 1.0},
                      kb_with_goals(1.0), RulesOfEngagement())


def test_set_roe_sets_the_field():
    roe = RulesOfEngagement(max_plan_risk=0.5)
    apply_control({"command": "set_roe", "field": "max_plan_risk", "value": 0.0},
                  KnowledgeBase(), roe)
    assert roe.max_plan_risk == 0.0


def test_add_rule_lands_in_knowledge_base():
    kb = KnowledgeBase()
    apply_control({"command": "add_rule",
                   "rule": {"rule_id": "r9", "condition": [["x", ">=", 1]],
                            "action_id": "act", "priority": 9}},
                  kb, RulesOfEngagement())
    assert "r9" in kb.rules and kb.rules["r9"].priority == 9


def test_add_pattern_example_reweights_matching_patterns():
    kb = KnowledgeBase()
    kb.patterns["p"] = Pattern("p", [("x", ">=", 1)], severity=0.8, confidence=0.5)
    change = apply_control(
        {"command": "add_pattern_example", "features": {"x": 2}, "label": "compromised"},
        kb, RulesOfEngagement())
    assert change["patterns_updated"] == ["p"]
    assert kb.patterns["p"].confidence == 1.0
    apply_control(
        {"command": "add_pattern_example", "features": {"x": 2}, "label": "clean"},
        kb, RulesOfEngagement())
    assert kb.patterns["p"].confidence == 0.5


# -- propagation ----------------------------------------------------------------------------------

def roster(hosts=("h2",), token="tok"):
    return FriendlyRoster(hosts=frozenset(hosts), authorization_token=token)


def try_propagate(env, target="h2", roster_=None, integrity=0.1, threshold=0.3):
    return propagate(agent_on("h1"), target, roster_ or roster(), post_on(env),
                     local_integrity=integrity, threshold=threshold,
                     kb_payload={}, new_agent_id="a1_r1", initial_detectability=0.1)


def test_propagate_refuses_non_roster_host():
    env = two_host_env()
    env.step(0)
    with pytest.raises(RefusedNonFriendly):
        try_propagate(env, roster_=roster(hosts=("h9",)))


def test_propagate_refuses_bad_authorization():
    env = two_host_env()
    env.step(0)
    with pytest.raises(RefusedNoAuthorization):
        try_propagate(env, roster_=roster(token=""))


def test_propagate_refuses_a_host_that_holds_a_live_agent_and_draws_nothing():
    env = two_host_env("degraded", drop=0.5)  # a delivery here would draw
    env.step(0)
    env.install_agent("a2", "h2")
    rng = Random(1)
    with pytest.raises(RefusedOccupied, match="'h2' holds live agent 'a2'"):
        propagate(agent_on("h1"), "h2", roster(), post_on(env, rng), local_integrity=0.1,
                  threshold=0.3, kb_payload={}, new_agent_id="a1_r1", initial_detectability=0.1)
    assert rng.getstate() == Random(1).getstate()
    assert env.hosts["h2"].resident_agent == "a2" and env.inboxes == {}
    env.apply_effect(EffectDescriptor("agent:a2", "", "kill"))  # a kill frees the host
    env.apply_effect(EffectDescriptor("channel:c1", "state", "set", "healthy"))
    assert try_propagate(env).host_id == "h2"


def test_propagate_refuses_without_trigger():
    env = two_host_env()
    env.step(0)
    with pytest.raises(RefusedNoTrigger):
        try_propagate(env, integrity=0.9)


def test_propagate_refuses_without_route():
    env = two_host_env("disabled")
    env.step(0)
    with pytest.raises(RefusedNoRoute):
        try_propagate(env)


def test_propagate_installs_replica_with_fresh_identity():
    env = two_host_env()
    env.step(0)
    replica = try_propagate(env)
    assert replica.agent_id == "a1_r1"
    assert replica.host_id == "h2"
    assert env.hosts["h2"].resident_agent == "a1_r1"
    assert "agent_proc_a1_r1" in env.hosts["h2"].processes
    transfer = env.drain_inbox("a1_r1")[0]
    assert transfer["kind"] == "ReplicaTransfer"
    assert verify_message(KEY, transfer)


def test_refusal_order_names_first_failed_condition():
    env = two_host_env("disabled")
    env.step(0)
    # non-roster beats every later condition
    with pytest.raises(RefusedNonFriendly):
        try_propagate(env, roster_=roster(hosts=()), integrity=0.9)


def test_the_replica_transfer_passes_no_spoofer_and_charges_no_noise():
    # the one message sent past Post.send (ROADMAP item 14)
    env = two_host_env("spoofed")
    env.step(0)
    state = agent_on("h1")
    propagate(state, "h2", roster(), post_on(env, spoofer=forge), local_integrity=0.1,
              threshold=0.3, kb_payload={}, new_agent_id="a1_r1", initial_detectability=0.1)
    transfer = env.drain_inbox("a1_r1")[0]
    assert transfer["payload"] == {"knowledge": {}} and verify_message(KEY, transfer)
    assert state.detectability == 0.1
