from random import Random

import pytest

from defsim.envsim import EffectDescriptor
from defsim.errors import ModeForbidden
from defsim.execution import (
    ActionStatus,
    AgentMode,
    AgentState,
    Authority,
    DEFAULT_MAX_RETRIES,
    Deviation,
    PlanExecution,
    adjust,
    execute_step,
    monitor_effects,
    monitor_execution,
)
from defsim.planning import (
    ActionCategory,
    ActionSpec,
    ProbabilisticEffect,
    RulesOfEngagement,
    SNAPSHOT_ACTION_ID,
    TargetScope,
)
from defsim.sensing import WorldState

from conftest import make_env


def spec(aid, category=ActionCategory.OBSERVE, noise=0.0, duration=1, effects=(),
         pre=(), risk=0.0, builtin=None):
    return ActionSpec(aid, category, preconditions=list(pre), effects=list(effects),
                      risk=risk, noise=noise, duration=duration, builtin=builtin)


def no_propagate(spec):
    raise AssertionError(f"{spec.action_id} is not a propagate action")


def plan_of(*action_ids, durations=None):
    """Released entries, as select_action_plan logs them."""
    entries = []
    offset = 0
    for aid in action_ids:
        entries.append({"action": aid, "offset": offset, "origin": "proposed"})
        offset += (durations or {}).get(aid, 1)
    return entries


def agent(mode=AgentMode.NORMAL, authority=Authority.AGENT, detectability=0.1):
    return AgentState("a1", "h1", detectability=detectability, mode=mode, authority=authority)


def env_effect(target, attribute, operation, value):
    return ProbabilisticEffect(
        env_effect=EffectDescriptor(target, attribute, operation, value),
        feature_deltas=[], probability=1.0)


def kinds(events):
    return [kind for kind, _ in events]


def run_plan(pe, env, state, rep, ticks):
    """Monitor, then execute, on each of `ticks` ticks, as the runner does
    for a plan whose effects expect nothing; return the events executed."""
    events = []
    for tick in range(ticks):
        assert monitor_effects(pe, WorldState(tick=tick), rep) == ([], [])
        events += execute_step(pe, env, state, tick, rep, Random(1), no_propagate)
    return events


def test_observe_duration_one_done_same_tick_with_noise():
    env = make_env()
    state = agent(detectability=0.2)
    pe = PlanExecution(plan_of("look"))
    rep = {"look": spec("look", noise=0.05)}
    events = execute_step(pe, env, state, tick=4, repertoire=rep, rng=Random(1),
                          propagate=no_propagate)
    assert events == [
        ("agent.action_started",
         {"action": "look", "entry_index": 0, "detectability": state.detectability}),
        ("agent.action_done", {"action": "look", "entry_index": 0})]
    assert pe.attempt.status is ActionStatus.DONE and pe.attempt.started_tick == 4
    assert state.detectability == pytest.approx(0.25)
    assert pe.cursor == len(pe.entries)


def test_multi_tick_action_completes_at_duration():
    env = make_env()
    state = agent()
    rep = {"slow": spec("slow", duration=3)}
    pe = PlanExecution(plan_of("slow", durations={"slow": 3}))
    first = execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    assert kinds(first) == ["agent.action_started"]
    assert pe.attempt.status is ActionStatus.IN_PROGRESS and pe.cursor == 0
    assert execute_step(pe, env, state, 1, rep, Random(1), no_propagate) == []
    final = execute_step(pe, env, state, 2, rep, Random(1), no_propagate)
    assert final == [("agent.action_done", {"action": "slow", "entry_index": 0})]
    assert pe.attempt.status is ActionStatus.DONE and pe.cursor == 1


def test_destructive_in_fail_safe_forbidden():
    env = make_env()
    state = agent(mode=AgentMode.FAIL_SAFE)
    rep = {"boom": spec("boom", category=ActionCategory.DESTRUCTIVE, risk=0.2)}
    pe = PlanExecution(plan_of("boom"))
    with pytest.raises(ModeForbidden):
        execute_step(pe, env, state, 0, rep, Random(1), no_propagate)


def test_camouflage_subtracts_with_clamp():
    env = make_env()
    state = agent(detectability=0.5)
    rep = {"hide": spec("hide", category=ActionCategory.CAMOUFLAGE, noise=0.3)}
    pe = PlanExecution(plan_of("hide"))
    execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    assert state.detectability == pytest.approx(0.2)
    pe2 = PlanExecution(plan_of("hide"))
    execute_step(pe2, env, state, 1, rep, Random(1), no_propagate)
    assert state.detectability == 0.0  # clamped


def test_unknown_entity_marks_record_failed_and_halts_plan():
    env = make_env()
    state = agent()
    rep = {"kill_ghost": spec(
        "kill_ghost", effects=[env_effect("process:h1:ghost", "", "kill", None)])}
    pe = PlanExecution(plan_of("kill_ghost"))
    events = execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    assert kinds(events) == ["agent.action_started", "agent.action_failed"]
    assert pe.attempt.status is ActionStatus.FAILED
    assert pe.cursor == 0  # the entry awaits the adjuster's ruling


def test_self_placeholder_resolves_to_agent_host():
    env = make_env()
    env.apply_effect(EffectDescriptor("process:h1:mal", "", "spawn", {"owner": "malware"}))
    state = agent()
    rep = {"purge": spec("purge", effects=[env_effect("process:$self:@unknown", "", "kill", None)])}
    pe = PlanExecution(plan_of("purge"))
    execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    assert pe.attempt.status is ActionStatus.DONE
    assert "mal" not in env.hosts["h1"].processes


def test_snapshot_and_restore_builtins_round_trip():
    env = make_env()
    state = agent()
    rep = {
        "wreck": spec("wreck", effects=[
            env_effect("service:h1:web", "health", "set", 0.0)]),
        "roll_back": spec("roll_back", category=ActionCategory.RESTORE, builtin="restore"),
    }
    pe = PlanExecution(plan_of(SNAPSHOT_ACTION_ID, "wreck", "roll_back"))
    events = run_plan(pe, env, state, rep, 3)
    assert env.hosts["h1"].services["web"].health == 1.0
    assert kinds(events) == [kind for change in ("env.snapshot", "env.effect", "env.restore")
                             for kind in ("agent.action_started", "agent.action_done", change)]


def test_an_agent_holds_its_latest_snapshot_and_restore_rolls_back_to_it():
    env = make_env()
    state = agent()
    rep = {
        "dent": spec("dent", effects=[env_effect("service:h1:web", "health", "add", -0.25)]),
        "roll_back": spec("roll_back", category=ActionCategory.RESTORE, builtin="restore"),
    }
    pe = PlanExecution(plan_of(SNAPSHOT_ACTION_ID, "dent", SNAPSHOT_ACTION_ID, "dent",
                               "roll_back"))
    events = run_plan(pe, env, state, rep, 5)
    assert state.snapshot.token_id == 2
    assert env.hosts["h1"].services["web"].health == 0.75  # as at the second snapshot
    assert kinds(events) == [
        kind for change in ("env.snapshot", "env.effect", "env.snapshot", "env.effect",
                            "env.restore")
        for kind in ("agent.action_started", "agent.action_done", change)]


# -- the events execute_step returns ---------------------------------------------------------

def test_an_effect_action_returns_start_then_done_then_each_change():
    env = make_env()
    env.apply_effect(EffectDescriptor("process:h1:mal", "", "spawn", {"owner": "malware"}))
    state = agent()
    rep = {"purge": spec("purge", effects=[
        env_effect("process:$self:@unknown", "", "kill", None),
        env_effect("service:h1:web", "health", "add", -0.1)])}
    pe = PlanExecution(plan_of("purge"))
    events = execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    assert kinds(events) == ["agent.action_started", "agent.action_done",
                             "env.effect", "env.effect"]
    assert [payload["target"] for _, payload in events[2:]] == [
        "process:h1:@unknown", "service:h1:web"]
    assert events[2][1]["cause"] == "agent:a1:purge"
    assert events[2][1]["changes"] == [
        {"entity": "process:h1:mal", "attribute": "", "old": "present", "new": "killed"}]


def test_an_effect_whose_target_is_gone_fails_the_action_and_returns_no_change():
    env = make_env()
    state = agent()
    rep = {"sweep": spec("sweep", effects=[
        env_effect("process:h1:ghost", "", "kill", None),
        env_effect("service:h1:web", "health", "add", -0.1)])}
    pe = PlanExecution(plan_of("sweep"))
    events = execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    assert kinds(events) == ["agent.action_started", "agent.action_failed", "env.effect"]
    assert events[2][1]["target"] == "service:h1:web"  # the ghost's kill records nothing


def test_every_effect_draws_whether_or_not_it_acts_on_the_platform():
    env = make_env()
    state = agent()
    rep = {"think": spec("think", effects=[
        ProbabilisticEffect(env_effect=None, feature_deltas=[], probability=0.5)] * 3)}
    rng = Random(7)
    execute_step(PlanExecution(plan_of("think")), env, state, 0, rep, rng, no_propagate)
    expected = Random(7)
    for _ in range(3):
        expected.random()
    assert rng.getstate() == expected.getstate()


def test_the_snapshot_builtin_returns_its_token():
    env = make_env()
    state = agent()
    pe = PlanExecution(plan_of(SNAPSHOT_ACTION_ID))
    events = execute_step(pe, env, state, 0, {}, Random(1), no_propagate)
    assert events[1:] == [
        ("agent.action_done", {"action": SNAPSHOT_ACTION_ID, "entry_index": 0}),
        ("env.snapshot", {"host": "h1", "token": state.snapshot.token_id})]


def test_the_restore_builtin_with_a_snapshot_returns_the_restore():
    env = make_env()
    state = agent()
    state.snapshot = env.snapshot("h1")
    rep = {"roll_back": spec("roll_back", builtin="restore")}
    events = execute_step(PlanExecution(plan_of("roll_back")), env, state, 0, rep, Random(1),
                          no_propagate)
    assert kinds(events) == ["agent.action_started", "agent.action_done", "env.restore"]
    assert events[2][1] == {"host": "h1", "token": state.snapshot.token_id, "restored": True}


def test_restore_without_snapshot_fails():
    env = make_env()
    state = agent()
    rep = {"roll_back": spec("roll_back", builtin="restore")}
    pe = PlanExecution(plan_of("roll_back"))
    events = execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    assert kinds(events) == ["agent.action_started", "agent.action_failed"]
    assert pe.attempt.status is ActionStatus.FAILED


def test_the_verify_builtin_changes_nothing():
    env = make_env()
    state = agent()
    rep = {"check": spec("check", builtin="verify")}
    events = execute_step(PlanExecution(plan_of("check")), env, state, 0, rep, Random(1),
                          no_propagate)
    assert kinds(events) == ["agent.action_started", "agent.action_done"]


@pytest.mark.parametrize("ok, status", [(True, ActionStatus.DONE), (False, ActionStatus.FAILED)])
def test_propagate_builtin_calls_its_callback_once_and_records_the_result(ok, status):
    env = make_env()
    state = agent()
    calls = []

    def propagate(action):
        calls.append(action.action_id)
        return ok

    rep = {"replicate": spec("replicate", category=ActionCategory.PROPAGATE, builtin="propagate")}
    pe = PlanExecution(plan_of("replicate"))
    events = execute_step(pe, env, state, 0, rep, Random(1), propagate)
    assert calls == ["replicate"]
    assert pe.attempt.status is status
    assert events[1:] == [(f"agent.action_{status.value}",
                           {"action": "replicate", "entry_index": 0})]


# -- monitoring --------------------------------------------------------------------------

def test_monitor_execution_all_done_is_quiet():
    env = make_env()
    state = agent()
    rep = {"look": spec("look")}
    pe = PlanExecution(plan_of("look"))
    execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    assert monitor_execution(pe, 1, rep) == []


def test_monitor_execution_reports_failure():
    env = make_env()
    state = agent()
    rep = {"kill_ghost": spec(
        "kill_ghost", effects=[env_effect("process:h1:ghost", "", "kill", None)])}
    pe = PlanExecution(plan_of("kill_ghost"))
    execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    deviations = monitor_execution(pe, 1, rep)
    assert len(deviations) == 1 and deviations[0].deviation_kind == "failed"
    assert deviations[0].action_id == "kill_ghost"


def test_monitor_execution_flags_overdue():
    rep = {"slow": spec("slow", duration=2)}
    from defsim.execution import ExecutionRecord
    pe = PlanExecution(plan_of("slow", durations={"slow": 2}),
                       attempt=ExecutionRecord("slow", 0, ActionStatus.IN_PROGRESS, started_tick=3))
    assert monitor_execution(pe, 4, rep) == []  # still on schedule at 3+2-1
    overdue = monitor_execution(pe, 6, rep)     # started+duration+1
    assert len(overdue) == 1 and overdue[0].deviation_kind == "overdue"


def test_monitor_effects_met_and_unmet():
    env = make_env()
    state = agent()
    rep = {"fix": spec("fix", effects=[ProbabilisticEffect(
        env_effect=None, feature_deltas=[], probability=0.7,
        expect=[("proc_gone", ">=", 1)])])}
    pe = PlanExecution(plan_of("fix"))
    execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    met_ws = WorldState(tick=1, features={"proc_gone": 1})
    assert monitor_effects(pe, met_ws, rep) == ([], [("fix", 0, True)])
    assert pe.attempt is None  # checked, so ruled on
    assert monitor_effects(pe, met_ws, rep) == ([], [])
    pe2 = PlanExecution(plan_of("fix"))
    execute_step(pe2, env, state, 0, rep, Random(1), no_propagate)
    unmet_ws = WorldState(tick=1, features={"proc_gone": 0})
    deviations, checks = monitor_effects(pe2, unmet_ws, rep)
    assert checks == [("fix", 0, False)]
    assert len(deviations) == 1
    assert deviations[0].deviation_kind == "effect_unmet"
    assert deviations[0].probability == 0.7  # retry heuristic input


# -- adjustment ladder ---------------------------------------------------------------------

def failing_pe(env, state, rep):
    pe = PlanExecution(plan_of("kill_ghost"))
    execute_step(pe, env, state, 0, rep, Random(1), no_propagate)
    return pe


GHOST_REP = {"kill_ghost": spec(
    "kill_ghost", category=ActionCategory.CONTAIN,
    effects=[env_effect("process:h1:ghost", "", "kill", None)])}


def test_adjust_retries_first():
    env = make_env()
    state = agent()
    pe = failing_pe(env, state, GHOST_REP)
    deviations = monitor_execution(pe, 1, GHOST_REP)
    counts = {}
    decision = adjust(pe, deviations, GHOST_REP, counts, WorldState(), RulesOfEngagement())
    assert decision.kind == "retry"
    assert counts["kill_ghost"] == 1
    assert pe.cursor == 0 and pe.attempt is None  # the next execute starts it afresh
    # plan unchanged apart from the rescheduled entry
    assert [e["action"] for e in pe.entries] == ["kill_ghost"]


def test_retry_count_never_exceeds_limit():
    env = make_env()
    state = agent()
    counts = {}
    rep = GHOST_REP
    pe = failing_pe(env, state, rep)
    for attempt in range(4):
        deviations = monitor_execution(pe, attempt + 1, rep)
        if not deviations:
            break
        decision = adjust(pe, deviations, rep, counts, WorldState(), RulesOfEngagement())
        if decision.kind != "retry":
            break
        execute_step(pe, env, state, attempt + 1, rep, Random(1), no_propagate)
    assert counts["kill_ghost"] == DEFAULT_MAX_RETRIES
    assert decision.kind == "replan"


def test_adjust_substitutes_same_category_alternative():
    env = make_env()
    state = agent()
    rep = dict(GHOST_REP)
    rep["quarantine"] = spec("quarantine", category=ActionCategory.CONTAIN)
    pe = failing_pe(env, state, rep)
    deviations = monitor_execution(pe, 1, rep)
    counts = {"kill_ghost": 2}  # retries already spent
    decision = adjust(pe, deviations, rep, counts, WorldState(), RulesOfEngagement())
    assert decision.kind == "substitute"
    assert decision.substitute_action_id == "quarantine"
    assert pe.entries[0]["action"] == "quarantine"


def test_adjust_replans_without_alternative():
    env = make_env()
    state = agent()
    pe = failing_pe(env, state, GHOST_REP)
    deviations = monitor_execution(pe, 1, GHOST_REP)
    counts = {"kill_ghost": 2}
    decision = adjust(pe, deviations, GHOST_REP, counts, WorldState(), RulesOfEngagement())
    assert decision.kind == "replan"


def test_detectability_non_decreasing_without_camouflage():
    env = make_env()
    state = agent(detectability=0.1)
    rep = {"a": spec("a", noise=0.02), "b": spec("b", noise=0.0)}
    previous = state.detectability
    for tick, aid in enumerate(["a", "b", "a"]):
        pe = PlanExecution(plan_of(aid))
        execute_step(pe, env, state, tick, rep, Random(1), no_propagate)
        assert state.detectability >= previous
        previous = state.detectability
