from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from defsim import planning
from defsim.planning import (
    ActionCategory,
    ActionSpec,
    BUILTIN_ACTIONS,
    ConditionActionRule,
    Goal,
    PlanProposal,
    PlannerConfig,
    ProbabilisticEffect,
    RulesOfEngagement,
    SNAPSHOT_ACTION_ID,
    TargetScope,
    VERIFY_ACTION_ID,
    action_roe_ok,
    expected_loss,
    fast_rule_select,
    normalize_goals,
    plan_roe_violations,
    propose_plans,
    predict,
    score_sequence,
    select_action_plan,
    signed_noise,
)
from defsim.sensing import WorldState, all_hold, apply_feature_delta


def ws_with(**features):
    return WorldState(tick=0, features=dict(features))


def action(aid, category=ActionCategory.RESTORE, pre=(), effects=(), risk=0.0,
           noise=0.0, scope=TargetScope.SELF_HOST, duration=1, preparation=()):
    return ActionSpec(aid, category, preconditions=list(pre), effects=list(effects),
                      risk=risk, noise=noise, duration=duration, target_scope=scope,
                      preparation=list(preparation))


def effect(deltas, probability=1.0, expect=()):
    return ProbabilisticEffect(env_effect=None, feature_deltas=list(deltas),
                               probability=probability, expect=list(expect))


def goal(gid, preds, weight=1.0):
    return Goal(gid, list(preds), weight)


# -- predict ---------------------------------------------------------------------------

def test_predict_empty_sequence_is_goal_indicator():
    ws = ws_with(a=1.0, b=0.0)
    goals = normalize_goals([goal("ga", [("a", ">=", 1)], 1.0),
                             goal("gb", [("b", ">=", 1)], 1.0)])
    sat = predict(ws, [], {}, goals)
    assert sat == {"ga": 1.0, "gb": 0.0}


def test_predict_certain_effect_satisfies_goal():
    ws = ws_with(x=0.0)
    rep = {"fix": action("fix", effects=[effect([("x", "set", 1.0)], 1.0)])}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    assert predict(ws, ["fix"], rep, goals) == {"g": 1.0}


def test_predict_single_probabilistic_effect_exact():
    # one action, effect probability 0.7 satisfying g: exactly 0.7
    ws = ws_with(x=0.0)
    rep = {"fix": action("fix", effects=[effect([("x", "set", 1.0)], 0.7)])}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    sat = predict(ws, ["fix"], rep, goals)
    assert sat["g"] == pytest.approx(0.7, abs=1e-12)


def test_predict_two_independent_effects_enumerated_exactly():
    # oracle by hand: g needs both x and y; p = 0.6 * 0.5
    ws = ws_with(x=0.0, y=0.0)
    rep = {"a": action("a", effects=[effect([("x", "set", 1.0)], 0.6),
                                     effect([("y", "set", 1.0)], 0.5)])}
    goals = normalize_goals([goal("g", [("x", ">=", 1), ("y", ">=", 1)])])
    assert predict(ws, ["a"], rep, goals)["g"] == pytest.approx(0.3, abs=1e-12)


def test_predict_sampling_path_is_deterministic():
    # 13 probabilistic effects forces the seeded sampling path
    effects = [effect([(f"k{i}", "set", 1.0)], 0.5) for i in range(13)]
    rep = {"big": action("big", effects=effects)}
    ws = ws_with(**{f"k{i}": 0.0 for i in range(13)})
    goals = normalize_goals([goal("g", [("k0", ">=", 1)])])
    first = predict(ws, ["big"], rep, goals)
    second = predict(ws, ["big"], rep, goals)
    assert first == second
    assert 0.3 <= first["g"] <= 0.7


# -- propose_plans -----------------------------------------------------------------------

def test_empty_repertoire_proposes_only_empty_plan():
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    proposals = propose_plans(ws_with(x=0.0), {}, goals, PlannerConfig())
    assert len(proposals) == 1 and proposals[0].actions == ()


def test_single_improving_action_beats_empty_plan():
    ws = ws_with(x=0.0)
    rep = {"fix": action("fix", effects=[effect([("x", "set", 1.0)])])}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    proposals = propose_plans(ws, rep, goals, PlannerConfig(depth=1))
    assert proposals[0].actions == ("fix",)
    empty = next(p for p in proposals if p.actions == ())
    assert proposals[0].utility > empty.utility


def test_preconditions_chain_under_optimistic_application():
    # enable's effect makes fix applicable at depth 2
    ws = ws_with(x=0.0, ready=0.0)
    rep = {
        "enable": action("enable", effects=[effect([("ready", "set", 1.0)])]),
        "fix": action("fix", pre=[("ready", ">=", 1)],
                      effects=[effect([("x", "set", 1.0)])]),
    }
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    proposals = propose_plans(ws, rep, goals, PlannerConfig(depth=2))
    assert proposals[0].actions == ("enable", "fix")


def test_only_frontier_nodes_get_evolved_features(monkeypatch):
    # 4 actions, depth 3, beam 2: 4 + 8 + 8 children, of which the 2 best of
    # levels 1 and 2 are expanded; the last level and beam-cut nodes never are
    rep = {f"a{i}": action(f"a{i}", effects=[effect([("x", "add", 0.1 * (i + 1))], 0.5)])
           for i in range(4)}
    goals = normalize_goals([goal("g", [("x", ">=", 0.3)])])
    evolved = []
    real = planning._apply_optimistic
    monkeypatch.setattr(planning, "_apply_optimistic",
                        lambda feats, spec: evolved.append(spec.action_id) or real(feats, spec))
    propose_plans(ws_with(x=0.0), rep, goals, PlannerConfig(depth=3, beam=2))
    assert len(evolved) == 4


def test_utility_decomposition_recomputes_exactly():
    ws = ws_with(x=0.0)
    rep = {
        "fix": action("fix", effects=[effect([("x", "set", 1.0)], 0.8)], risk=0.2, noise=0.3),
        "hide": action("hide", category=ActionCategory.CAMOUFLAGE, noise=0.4),
    }
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    config = PlannerConfig(risk_weight=1.5, noise_weight=0.25, depth=2)
    for proposal in propose_plans(ws, rep, goals, config):
        assert proposal.utility == pytest.approx(
            proposal.benefit - 1.5 * proposal.risk_total - 0.25 * proposal.noise_total,
            abs=1e-12)
        assert proposal.noise_total == pytest.approx(
            sum(signed_noise(rep[a]) for a in proposal.actions), abs=1e-12)


def test_ranking_invariant_under_joint_weight_rescaling():
    ws = ws_with(x=0.0, y=0.0)
    rep = {
        "ax": action("ax", effects=[effect([("x", "set", 1.0)], 0.9)], noise=0.1),
        "ay": action("ay", effects=[effect([("y", "set", 1.0)], 0.7)], risk=0.05),
    }
    config = PlannerConfig(depth=2)
    base = [goal("gx", [("x", ">=", 1)], 0.3), goal("gy", [("y", ">=", 1)], 0.7)]
    scaled = [goal("gx", [("x", ">=", 1)], 3.0), goal("gy", [("y", ">=", 1)], 7.0)]
    order_a = [p.actions for p in propose_plans(
        ws, rep, normalize_goals(base), config)]
    order_b = [p.actions for p in propose_plans(
        ws, rep, normalize_goals(scaled), config)]
    assert order_a == order_b


# -- brute-force oracle equivalence ----------------------------------------------------------

def test_bounded_search_equals_brute_force_on_small_instances():
    from planning_oracle import oracle_best, random_instance
    rng = Random(2024)
    config = PlannerConfig(depth=2, beam=5)
    for _ in range(60):
        ws, repertoire, goals = random_instance(rng)
        proposals = propose_plans(ws, repertoire, goals, config)
        oracle_utility, oracle_seq = oracle_best(ws, repertoire, goals, config)
        assert proposals[0].utility == oracle_utility  # dyadic inputs: exact
        assert proposals[0].actions == oracle_seq


# -- expected_loss -------------------------------------------------------------------------------

def test_expected_loss_all_satisfied_no_threat_is_zero():
    ws = ws_with(x=1.0)
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    assert expected_loss(ws, {}, goals, horizon=3) == 0.0


def test_expected_loss_nothing_satisfiable_is_one():
    ws = ws_with(x=0.0)
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    assert expected_loss(ws, {}, goals, horizon=3) == 1.0


def test_expected_loss_partial_weighted():
    # single goal, inaction satisfaction 0.4 -> loss 0.6: model via an
    # always-applied plan effect with probability 0.4
    ws = ws_with(x=0.0)
    rep = {"a": action("a", effects=[effect([("x", "set", 1.0)], 0.4)])}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    loss = expected_loss(ws, rep, goals, horizon=1, plan_action_ids=["a"])
    assert loss == pytest.approx(0.6, abs=1e-12)


def test_expected_loss_applies_progression_per_tick():
    ws = ws_with(x=1.0)
    goals = normalize_goals([goal("g", [("x", ">=", 0.75)])])
    progression = [("x", "add", -0.1)]
    assert expected_loss(ws, {}, goals, 2, progression=progression) == 0.0  # 0.8 still ok
    assert expected_loss(ws, {}, goals, 3, progression=progression) == 1.0  # 0.7 fails


# -- select_action_plan ---------------------------------------------------------------------------

def roe(**kw):
    defaults = dict(max_plan_risk=0.5, destructive_only_on_residence=True,
                    forbidden_categories=set(), fast_deadline_ticks=2)
    defaults.update(kw)
    return RulesOfEngagement(**defaults)


def select(ws, rep, goals, roe_=None, config=None, progression=()):
    config = config or PlannerConfig(depth=2)
    proposals = propose_plans(ws, rep, goals, config)
    return select_action_plan(proposals, goals, roe_ or roe(), ws, rep, config, progression)


def test_all_roe_violating_proposals_yield_no_action():
    ws = ws_with(x=0.0)
    rep = {"boom": action("boom", category=ActionCategory.DESTRUCTIVE,
                          effects=[effect([("x", "set", 1.0)])], risk=0.4,
                          scope=TargetScope.REMOTE)}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    body = select(ws, rep, goals)
    # the destructive-remote plan is filtered; empty plan remains but fails the gate
    assert body["chosen"] == {"no_action": True, "entries": None}
    assert "released_entries" not in body["rationale"]
    filtered = [c for c in body["candidates"] if not c["roe_ok"]]
    assert any("remote scope" in v for c in filtered for v in c["roe_violations"])


def test_action_and_plan_roe_checks_share_the_per_action_clauses():
    rep = {"boom": action("boom", category=ActionCategory.DESTRUCTIVE, risk=0.4,
                          scope=TargetScope.REMOTE),
           "hide": action("hide", category=ActionCategory.CAMOUFLAGE, risk=0.1)}
    rules = roe(forbidden_categories={"camouflage"})
    proposal = PlanProposal(("boom", "hide"), {}, 0.0, 0.0, 0.6, 0.0)
    # these strings are written to the decision log
    assert plan_roe_violations(proposal, rep, rules) == [
        "plan risk 0.600 exceeds budget 0.500",
        "boom: destructive action with remote scope",
        "hide: category camouflage forbidden",
    ]
    assert not action_roe_ok(rep["boom"], rules) and not action_roe_ok(rep["hide"], rules)
    assert action_roe_ok(rep["hide"], roe())
    assert action_roe_ok(rep["boom"], roe(destructive_only_on_residence=False))
    assert not action_roe_ok(rep["boom"], roe(max_plan_risk=0.3,
                                              destructive_only_on_residence=False))


def test_risk_budget_filters_expensive_plans():
    ws = ws_with(x=0.0)
    rep = {"pricey": action("pricey", category=ActionCategory.DESTRUCTIVE,
                            effects=[effect([("x", "set", 1.0)])], risk=0.9)}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    body = select(ws, rep, goals, roe(max_plan_risk=0.5))
    assert body["chosen"]["no_action"] and "released_entries" not in body["rationale"]


def test_destructive_plan_gets_snapshot_and_verify():
    ws = ws_with(x=0.0)
    rep = {"boom": action("boom", category=ActionCategory.DESTRUCTIVE,
                          effects=[effect([("x", "set", 1.0)])], risk=0.2)}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    body = select(ws, rep, goals)
    ids = [e["action"] for e in body["chosen"]["entries"]]
    origins = [e["origin"] for e in body["chosen"]["entries"]]
    assert ids == [SNAPSHOT_ACTION_ID, "boom", VERIFY_ACTION_ID]
    assert origins == ["precautionary", "proposed", "post_execution"]
    assert ids.index(SNAPSHOT_ACTION_ID) < ids.index("boom")


def test_risk_gate_releases_when_plan_beats_inaction():
    ws = ws_with(x=0.0)
    rep = {"fix": action("fix", effects=[effect([("x", "set", 1.0)])])}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    body = select(ws, rep, goals)
    gate = body["rationale"]["gate"]
    assert body["chosen"]["entries"] == body["rationale"]["released_entries"]
    assert gate["inaction_loss"] == 1.0 and gate["plan_loss"] == 0.0
    assert gate["released"] is True


def test_risk_gate_withholds_useless_plan():
    # action exists but does not move any goal: inaction loss equals plan loss
    ws = ws_with(x=0.0, y=0.0)
    rep = {"noop_ish": action("noop_ish", effects=[effect([("y", "set", 1.0)])], noise=0.1)}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    body = select(ws, rep, goals)
    assert body["chosen"]["no_action"] and "released_entries" not in body["rationale"]
    gate = body["rationale"]["gate"]
    assert gate["inaction_loss"] - gate["plan_loss"] <= 0


def test_trim_drops_action_with_failing_precondition_without_provider():
    ws = ws_with(x=0.0, armed=0.0)
    rep = {
        "fix": action("fix", effects=[effect([("x", "set", 1.0)])]),
        "strike": action("strike", pre=[("armed", ">=", 1)],
                         effects=[effect([("x", "set", 1.0)])]),
    }
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    config = PlannerConfig(depth=2, beam=8)
    # force the proposal that includes the unsatisfiable action
    proposals = propose_plans(ws, rep, goals, config)
    assert all("strike" not in p.actions for p in proposals)  # search never chains it
    # hand-build a proposal containing it to exercise the trim path
    from defsim.planning import score_sequence
    bogus = score_sequence(ws, ("fix",), rep, goals, config)
    object.__setattr__(bogus, "actions", ("strike", "fix"))
    body = select_action_plan([bogus], goals, roe(), ws, rep, config)
    assert "strike" not in [e["action"] for e in body["chosen"]["entries"]]
    assert body["rationale"]["trims"][0]["action"] == "strike"


def test_unique_provider_inserted_as_prerequisite():
    ws = ws_with(x=0.0, armed=0.0)
    rep = {
        "arm": action("arm", effects=[effect([("armed", "set", 1.0)])]),
        "strike": action("strike", pre=[("armed", ">=", 1)],
                         effects=[effect([("x", "set", 1.0)])]),
    }
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    config = PlannerConfig(depth=1, beam=5)  # depth 1 proposes bare "strike"... not applicable
    from defsim.planning import score_sequence
    bogus = score_sequence(ws, (), rep, goals, config)
    object.__setattr__(bogus, "actions", ("strike",))
    body = select_action_plan([bogus], goals, roe(), ws, rep, config)
    entries = [(e["action"], e["origin"]) for e in body["chosen"]["entries"]]
    assert entries[0] == ("arm", "prerequisite")
    assert entries[1] == ("strike", "proposed")


def test_scenario_declared_preparation_inserted():
    ws = ws_with(x=0.0, staged=1.0)
    rep = {
        "stage": action("stage", effects=[effect([("staged", "set", 1.0)])]),
        "fix": action("fix", effects=[effect([("x", "set", 1.0)])],
                      preparation=["stage"]),
    }
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    body = select(ws, rep, goals)
    entries = [(e["action"], e["origin"]) for e in body["chosen"]["entries"]]
    assert (("stage", "preparatory") in entries)
    assert entries.index(("stage", "preparatory")) < entries.index(
        ("fix", "proposed"))


def test_released_plan_never_scores_below_empty_plan():
    ws = ws_with(x=0.0)
    rep = {"fix": action("fix", effects=[effect([("x", "set", 1.0)], 0.9)], risk=0.1)}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    config = PlannerConfig(depth=2)
    proposals = propose_plans(ws, rep, goals, config)
    body = select_action_plan(proposals, goals, roe(), ws, rep, config)
    empty_utility = next(p.utility for p in proposals if p.actions == ())
    if not body["chosen"]["no_action"]:
        winner = next(p for p in proposals if list(p.actions) == body["rationale"]["winner"])
        assert winner.utility >= empty_utility


def test_tie_break_is_lexicographic_and_recorded():
    ws = ws_with(x=0.0)
    shared = [effect([("x", "set", 1.0)])]
    rep = {"b_fix": action("b_fix", effects=shared), "a_fix": action("a_fix", effects=shared)}
    goals = normalize_goals([goal("g", [("x", ">=", 1)])])
    rationale = select(ws, rep, goals, config=PlannerConfig(depth=1))["rationale"]
    assert rationale["winner"] == ["a_fix"]
    assert rationale["tie_break"]["used"] is True


def test_offsets_accumulate_durations():
    ws = ws_with(x=0.0, y=0.0)
    rep = {
        "slow": action("slow", effects=[effect([("x", "set", 1.0)])], duration=3),
        "quick": action("quick", pre=[("x", ">=", 1)],
                        effects=[effect([("y", "set", 1.0)])]),
    }
    goals = normalize_goals([goal("g", [("x", ">=", 1), ("y", ">=", 1)])])
    body = select(ws, rep, goals)
    offsets = {e["action"]: e["offset"] for e in body["chosen"]["entries"]}
    assert offsets["slow"] == 0 and offsets["quick"] == 3


# "made" is absent from the beliefs: only an effect or a progression delta creates it
GATE_KEYS = ("f0", "f1", "made")
gate_values = st.sampled_from([0.0, 0.5, 1.0])
gate_deltas = st.tuples(st.sampled_from(GATE_KEYS), st.sampled_from(["set", "add"]),
                        st.sampled_from([1.0, 0.5, 0.0]))
gate_predicates = st.tuples(st.sampled_from(GATE_KEYS), st.sampled_from([">=", "<="]),
                            gate_values)
# goals that the beliefs rarely meet, so that acting pays
gate_goal_predicates = st.tuples(st.sampled_from(GATE_KEYS), st.just(">="),
                                 st.sampled_from([1.0, 1.5]))


@st.composite
def gated_instances(draw):
    """Beliefs, repertoire, goals, progression deltas and extra proposed
    sequences, which need not be applicable, so trimming and inserted
    prerequisite and preparatory entries all occur."""
    ids = [f"a{i}" for i in range(draw(st.integers(1, 4)))]
    repertoire = {aid: action(
        aid, category=draw(st.sampled_from([ActionCategory.RESTORE, ActionCategory.CONTAIN,
                                            ActionCategory.DESTRUCTIVE])),
        pre=draw(st.lists(gate_predicates, max_size=2)),
        effects=[effect(draw(st.lists(gate_deltas, min_size=1, max_size=2)),
                        draw(st.sampled_from([0.25, 0.5, 1.0])))
                 for _ in range(draw(st.integers(1, 2)))],
        risk=draw(st.sampled_from([0.0, 0.125])),
        preparation=draw(st.lists(st.sampled_from(ids), max_size=1))) for aid in ids}
    ws = ws_with(**{key: draw(gate_values) for key in GATE_KEYS[:2]})
    goals = normalize_goals([goal(f"g{i}", draw(st.lists(gate_goal_predicates, min_size=1,
                                                          max_size=2)))
                             for i in range(draw(st.integers(1, 2)))])
    progression = draw(st.lists(gate_deltas, max_size=2))
    sequences = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=3), max_size=3))
    return ws, repertoire, goals, progression, sequences


@given(gated_instances())
@settings(max_examples=400, deadline=None)
def test_released_entries_are_applicable_on_the_gate_walk(instance):
    # the risk gate predicts each released plan without checking preconditions;
    # selection must release only entries whose preconditions the gate could
    # evaluate: each holds on the optimistic walk from the beliefs, and each
    # feature it names is present on the walk from the features after progression
    ws, repertoire, goals, progression, sequences = instance
    config = PlannerConfig(depth=2, beam=4)
    proposals = propose_plans(ws, repertoire, goals, config)
    proposals += [score_sequence(ws, seq, repertoire, goals, config) for seq in sequences]
    body = select_action_plan(proposals, goals, roe(), ws, repertoire, config, progression)
    if body["chosen"]["no_action"]:
        return
    walk = dict(ws.features)
    gate_walk = dict(ws.features)
    for delta in progression * config.depth:  # expected_loss's horizon is the depth
        apply_feature_delta(gate_walk, delta)
    for aid in (e["action"] for e in body["chosen"]["entries"]):
        if aid in BUILTIN_ACTIONS:
            continue
        spec = repertoire[aid]
        assert all_hold(walk, spec.preconditions), (aid, spec.preconditions, walk)
        assert all(key in gate_walk for key, _, _ in spec.preconditions), (aid, gate_walk)
        for delta in (d for eff in spec.effects for d in eff.feature_deltas):
            apply_feature_delta(walk, delta)
            apply_feature_delta(gate_walk, delta)


# -- fast path --------------------------------------------------------------------------------------

def rules():
    return [
        ConditionActionRule("r1", [("alert", ">=", 1)], "hide", priority=1),
        ConditionActionRule("r2", [("alert", ">=", 1)], "fix", priority=2),
    ]


FAST_REP = {
    "hide": action("hide", category=ActionCategory.CAMOUFLAGE, noise=0.3),
    "fix": action("fix", effects=[effect([("alert", "set", 0.0)])]),
}


def test_fast_path_not_taken_without_deadline_pressure():
    assert fast_rule_select(ws_with(alert=1.0), rules(), None, roe(), FAST_REP) is None
    assert fast_rule_select(ws_with(alert=1.0), rules(), 5, roe(fast_deadline_ticks=2),
                            FAST_REP) is None


def test_fast_path_priority_order():
    body = fast_rule_select(ws_with(alert=1.0), rules(), 1, roe(fast_deadline_ticks=2), FAST_REP)
    assert body == {
        "candidates": [],
        "chosen": {"no_action": False, "action_id": "hide",
                   "entries": [{"action": "hide", "offset": 0, "origin": "proposed"}]},
        "rationale": {"deadline_ticks": 1, "fast_deadline_ticks": 2, "rules_evaluated": [
            {"rule": "r1", "priority": 1, "condition_held": True, "roe_ok": True}]},
    }


def test_fast_path_falls_through_roe_forbidden_rule():
    body = fast_rule_select(
        ws_with(alert=1.0), rules(), 1,
        roe(fast_deadline_ticks=2, forbidden_categories={"camouflage"}), FAST_REP)
    assert body["chosen"]["action_id"] == "fix"
    evaluated = body["rationale"]["rules_evaluated"]
    assert evaluated[0]["roe_ok"] is False and evaluated[1]["roe_ok"] is True
    # no rule whose condition holds: no body
    assert fast_rule_select(ws_with(alert=0.0), rules(), 1, roe(fast_deadline_ticks=2),
                            FAST_REP) is None

