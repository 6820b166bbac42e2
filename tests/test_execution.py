from random import Random

import pytest

from defsim.envsim import EffectDescriptor
from defsim.errors import AuthorityNotHeld, ModeForbidden
from defsim.execution import (
    ActionStatus,
    AgentMode,
    AgentState,
    Authority,
    Deviation,
    PlanExecution,
    adjust,
    execute_step,
    fail_safe,
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


def test_observe_duration_one_done_same_tick_with_noise():
    env = make_env()
    state = agent(detectability=0.2)
    pe = PlanExecution(plan_of("look"))
    rep = {"look": spec("look", noise=0.05)}
    updates = execute_step(pe, env, state, tick=4, repertoire=rep, rng=Random(1),
                           snapshot_store=[], propagate=no_propagate)
    assert len(updates) == 1
    rec = updates[0]
    assert rec.status is ActionStatus.DONE
    assert rec.started_tick == 4 and rec.finished_tick == 4
    assert state.detectability == pytest.approx(0.25)
    assert pe.finished()


def test_multi_tick_action_completes_at_duration():
    env = make_env()
    state = agent()
    rep = {"slow": spec("slow", duration=3)}
    pe = PlanExecution(plan_of("slow", durations={"slow": 3}))
    first = execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)
    assert first[0].status is ActionStatus.IN_PROGRESS
    assert execute_step(pe, env, state, 1, rep, Random(1), [], no_propagate) == []
    final = execute_step(pe, env, state, 2, rep, Random(1), [], no_propagate)
    assert final[0].status is ActionStatus.DONE and final[0].finished_tick == 2


def test_destructive_in_fail_safe_forbidden():
    env = make_env()
    state = agent(mode=AgentMode.FAIL_SAFE)
    rep = {"boom": spec("boom", category=ActionCategory.DESTRUCTIVE, risk=0.2)}
    pe = PlanExecution(plan_of("boom"))
    with pytest.raises(ModeForbidden):
        execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)


def test_camouflage_subtracts_with_clamp():
    env = make_env()
    state = agent(detectability=0.5)
    rep = {"hide": spec("hide", category=ActionCategory.CAMOUFLAGE, noise=0.3)}
    pe = PlanExecution(plan_of("hide"))
    execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)
    assert state.detectability == pytest.approx(0.2)
    pe2 = PlanExecution(plan_of("hide"))
    execute_step(pe2, env, state, 1, rep, Random(1), [], no_propagate)
    assert state.detectability == 0.0  # clamped


def test_destroyed_agent_refuses_everything():
    env = make_env()
    state = agent(mode=AgentMode.DESTROYED)
    pe = PlanExecution(plan_of("look"))
    with pytest.raises(ModeForbidden):
        execute_step(pe, env, state, 0, {"look": spec("look")}, Random(1), [], no_propagate)


def test_authority_not_held_blocks_execution():
    env = make_env()
    state = agent(authority=Authority.REMOTE_C2)
    pe = PlanExecution(plan_of("look"))
    with pytest.raises(AuthorityNotHeld):
        execute_step(pe, env, state, 0, {"look": spec("look")}, Random(1), [], no_propagate)


def test_unknown_entity_marks_record_failed_and_halts_plan():
    env = make_env()
    state = agent()
    rep = {"kill_ghost": spec(
        "kill_ghost", effects=[env_effect("process:h1:ghost", "", "kill", None)])}
    pe = PlanExecution(plan_of("kill_ghost"))
    updates = execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)
    assert updates[0].status is ActionStatus.FAILED
    assert "error" in updates[0].observed_effects[0]
    assert pe.halted()
    assert execute_step(pe, env, state, 1, rep, Random(1), [], no_propagate) == []


def test_self_placeholder_resolves_to_agent_host():
    env = make_env()
    env.apply_effect(EffectDescriptor("process:h1:mal", "", "spawn", {"owner": "malware"}))
    state = agent()
    rep = {"purge": spec("purge", effects=[env_effect("process:$self:@unknown", "", "kill", None)])}
    pe = PlanExecution(plan_of("purge"))
    updates = execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)
    assert updates[0].status is ActionStatus.DONE
    assert "mal" not in env.hosts["h1"].processes


def test_snapshot_and_restore_builtins_round_trip():
    env = make_env()
    state = agent()
    store = []
    rep = {
        "wreck": spec("wreck", effects=[
            env_effect("service:h1:web", "health", "set", 0.0)]),
        "roll_back": spec("roll_back", category=ActionCategory.RESTORE, builtin="restore"),
    }
    pe = PlanExecution(plan_of(SNAPSHOT_ACTION_ID, "wreck", "roll_back"))
    for tick in range(3):
        execute_step(pe, env, state, tick, rep, Random(1), store, no_propagate)
    assert env.hosts["h1"].services["web"].health == 1.0
    assert [r.status for r in pe.records] == [ActionStatus.DONE] * 3


def test_restore_without_snapshot_fails():
    env = make_env()
    state = agent()
    rep = {"roll_back": spec("roll_back", builtin="restore")}
    pe = PlanExecution(plan_of("roll_back"))
    updates = execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)
    assert updates[0].status is ActionStatus.FAILED


@pytest.mark.parametrize("ok, status", [(True, ActionStatus.DONE), (False, ActionStatus.FAILED)])
def test_propagate_builtin_calls_its_callback_once_and_records_the_result(ok, status):
    env = make_env()
    state = agent()
    calls = []

    def propagate(action):
        calls.append(action.action_id)
        return ok, "a1_r1" if ok else "RefusedNoTrigger"

    rep = {"replicate": spec("replicate", category=ActionCategory.PROPAGATE, builtin="propagate")}
    pe = PlanExecution(plan_of("replicate"))
    updates = execute_step(pe, env, state, 0, rep, Random(1), [], propagate)
    assert calls == ["replicate"]
    assert updates[0].status is status
    assert updates[0].observed_effects == [
        {"builtin": "propagate", "ok": ok, "detail": "a1_r1" if ok else "RefusedNoTrigger"}]


# -- monitoring --------------------------------------------------------------------------

def done_record(pe):
    return pe.records[-1]


def test_monitor_execution_all_done_is_quiet():
    env = make_env()
    state = agent()
    rep = {"look": spec("look")}
    pe = PlanExecution(plan_of("look"))
    execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)
    assert monitor_execution(pe.records, 1, rep) == []


def test_monitor_execution_reports_failure():
    env = make_env()
    state = agent()
    rep = {"kill_ghost": spec(
        "kill_ghost", effects=[env_effect("process:h1:ghost", "", "kill", None)])}
    pe = PlanExecution(plan_of("kill_ghost"))
    execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)
    deviations = monitor_execution(pe.records, 1, rep)
    assert len(deviations) == 1 and deviations[0].kind == "failed"
    assert deviations[0].action_id == "kill_ghost"


def test_monitor_execution_flags_overdue():
    rep = {"slow": spec("slow", duration=2)}
    from defsim.execution import ExecutionRecord
    stuck = ExecutionRecord("slow", 0, ActionStatus.IN_PROGRESS, started_tick=3)
    assert monitor_execution([stuck], 4, rep) == []  # still on schedule at 3+2-1
    overdue = monitor_execution([stuck], 6, rep)     # started+duration+1
    assert len(overdue) == 1 and overdue[0].kind == "overdue"


def test_monitor_effects_met_and_unmet():
    env = make_env()
    state = agent()
    rep = {"fix": spec("fix", effects=[ProbabilisticEffect(
        env_effect=None, feature_deltas=[], probability=0.7,
        expect=[("proc_gone", ">=", 1)])])}
    pe = PlanExecution(plan_of("fix"))
    execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)
    met_ws = WorldState(tick=1, features={"proc_gone": 1})
    assert monitor_effects(pe, met_ws, rep) == ([], [("fix", 0, True)])
    assert monitor_effects(pe, met_ws, rep) == ([], [])  # each record is checked once
    pe2 = PlanExecution(plan_of("fix"))
    execute_step(pe2, env, state, 0, rep, Random(1), [], no_propagate)
    unmet_ws = WorldState(tick=1, features={"proc_gone": 0})
    deviations, checks = monitor_effects(pe2, unmet_ws, rep)
    assert checks == [("fix", 0, False)]
    assert len(deviations) == 1
    assert deviations[0].kind == "effect_unmet"
    assert deviations[0].probability == 0.7  # retry heuristic input


def test_monitor_effects_waits_for_belief_refresh():
    env = make_env()
    state = agent()
    rep = {"fix": spec("fix", effects=[ProbabilisticEffect(
        env_effect=None, feature_deltas=[], probability=1.0,
        expect=[("x", ">=", 1)])])}
    pe = PlanExecution(plan_of("fix"))
    execute_step(pe, env, state, 5, rep, Random(1), [], no_propagate)
    stale_ws = WorldState(tick=5, features={})
    assert monitor_effects(pe, stale_ws, rep) == ([], [])  # ws not refreshed yet


# -- adjustment ladder ---------------------------------------------------------------------

def failing_pe(env, state, rep):
    pe = PlanExecution(plan_of("kill_ghost"))
    execute_step(pe, env, state, 0, rep, Random(1), [], no_propagate)
    return pe


GHOST_REP = {"kill_ghost": spec(
    "kill_ghost", category=ActionCategory.CONTAIN,
    effects=[env_effect("process:h1:ghost", "", "kill", None)])}


def test_adjust_retries_first():
    env = make_env()
    state = agent()
    pe = failing_pe(env, state, GHOST_REP)
    deviations = monitor_execution(pe.records, 1, GHOST_REP)
    counts = {}
    decision = adjust(pe, deviations, GHOST_REP, counts, WorldState(), RulesOfEngagement())
    assert decision.kind == "retry"
    assert counts["kill_ghost"] == 1
    assert pe.cursor == 0 and not pe.halted()
    # plan unchanged apart from the rescheduled entry
    assert [e["action"] for e in pe.entries] == ["kill_ghost"]


def test_retry_count_never_exceeds_limit():
    env = make_env()
    state = agent()
    counts = {}
    rep = GHOST_REP
    pe = failing_pe(env, state, rep)
    for attempt in range(4):
        deviations = monitor_execution(pe.records, attempt + 1, rep)
        if not deviations:
            break
        decision = adjust(pe, deviations, rep, counts, WorldState(), RulesOfEngagement(),
                          max_retries=2)
        if decision.kind != "retry":
            break
        execute_step(pe, env, state, attempt + 1, rep, Random(1), [], no_propagate)
    assert counts["kill_ghost"] <= 2
    assert decision.kind == "replan"


def test_adjust_substitutes_same_category_alternative():
    env = make_env()
    state = agent()
    rep = dict(GHOST_REP)
    rep["quarantine"] = spec("quarantine", category=ActionCategory.CONTAIN)
    pe = failing_pe(env, state, rep)
    deviations = monitor_execution(pe.records, 1, rep)
    counts = {"kill_ghost": 2}  # retries already spent
    decision = adjust(pe, deviations, rep, counts, WorldState(), RulesOfEngagement())
    assert decision.kind == "substitute"
    assert decision.substitute_action_id == "quarantine"
    assert pe.entries[0]["action"] == "quarantine"


def test_adjust_replans_without_alternative():
    env = make_env()
    state = agent()
    pe = failing_pe(env, state, GHOST_REP)
    deviations = monitor_execution(pe.records, 1, GHOST_REP)
    counts = {"kill_ghost": 2}
    decision = adjust(pe, deviations, GHOST_REP, counts, WorldState(), RulesOfEngagement())
    assert decision.kind == "replan"


# -- lifecycle ------------------------------------------------------------------------------

def test_fail_safe_transition():
    state = agent()
    fail_safe(state, "test")
    assert state.mode is AgentMode.FAIL_SAFE


def test_mode_walk_has_no_resurrection():
    state = agent()
    fail_safe(state, "x")
    env = make_env()
    env.install_agent("a1", "h1")
    # malware killed the agent: the episode marks it destroyed and removes it
    state.mode = AgentMode.DESTROYED
    env.remove_agent("a1")
    with pytest.raises(ModeForbidden):
        fail_safe(state, "too late")
    with pytest.raises(ModeForbidden):
        execute_step(PlanExecution(plan_of("look")), env, state, 0,
                     {"look": spec("look")}, Random(1), [], no_propagate)


def test_detectability_non_decreasing_without_camouflage():
    env = make_env()
    state = agent(detectability=0.1)
    rep = {"a": spec("a", noise=0.02), "b": spec("b", noise=0.0)}
    previous = state.detectability
    for tick, aid in enumerate(["a", "b", "a"]):
        pe = PlanExecution(plan_of(aid))
        execute_step(pe, env, state, tick, rep, Random(1), [], no_propagate)
        assert state.detectability >= previous
        previous = state.detectability
