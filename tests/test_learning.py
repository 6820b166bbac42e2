from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from defsim.collaboration import apply_control
from defsim.errors import SchemaMismatch
from defsim.learning import KnowledgeBase, apply_proposition, learn, reward
from defsim.planning import ConditionActionRule, Goal, normalize_goals
from defsim.scenario import load_scenario
from defsim.sensing import Pattern, WorldState

from conftest import assert_same_knowledge, scenario_path


def ws_with(**features):
    return WorldState(tick=7, features=dict(features))


def goals_of(*specs):
    return normalize_goals([Goal(f"g{i}", [pred], w) for i, (pred, w) in enumerate(specs)])


# -- reward -----------------------------------------------------------------------------

def test_reward_zero_when_all_goals_hold():
    goals = goals_of((("x", ">=", 1), 1.0), (("y", "<=", 0), 3.0))
    assert reward(goals, ws_with(x=1, y=0)) == 0.0


def test_reward_minus_one_when_nothing_holds():
    goals = goals_of((("x", ">=", 1), 1.0), (("y", "<=", 0), 1.0))
    assert reward(goals, ws_with(x=0, y=5)) == -1.0


def test_reward_weighted_quarter_split():
    # weights 0.25/0.75, only the 0.75 goal satisfied: reward -0.25
    goals = goals_of((("x", ">=", 1), 0.25), (("y", ">=", 1), 0.75))
    assert reward(goals, ws_with(x=0, y=1)) == pytest.approx(-0.25)


@given(st.lists(st.tuples(st.booleans(), st.floats(min_value=0.05, max_value=5,
                                                   allow_nan=False)),
                min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_reward_bounds_and_zero_iff_all_hold(spec):
    goals = normalize_goals(
        [Goal(f"g{i}", [("sat", ">=", 1)] if holds else [("sat", ">=", 2)], w)
         for i, (holds, w) in enumerate(spec)])
    value = reward(goals, ws_with(sat=1))
    assert -1.0 <= value <= 0.0
    if all(holds for holds, _ in spec):
        assert value == 0.0
    else:
        assert value < 0.0


# -- effect statistics ------------------------------------------------------------------------

def test_zero_trials_estimate_is_half():
    assert KnowledgeBase().estimate("act", 0) == 0.5


def test_learn_counts_observed_and_missed():
    kb = KnowledgeBase()
    for proposition in learn([("act", 0, True), ("act", 0, False)], []):
        assert proposition.kind == "effect_stat_update"
        apply_proposition(kb, proposition)
    assert kb.effect_stats[("act", 0)] == (1, 2)
    assert kb.estimate("act", 0) == pytest.approx(2 / 4)


def test_estimate_converges_to_ground_truth():
    # simulator effect with true probability 0.7: estimate in [0.65, 0.75]
    # after 1000 seeded trials
    kb = KnowledgeBase()
    rng = Random(99)
    feedback = [("act", 0, rng.random() < 0.7) for _ in range(1000)]
    for proposition in learn(feedback, []):
        apply_proposition(kb, proposition)
    assert 0.65 <= kb.estimate("act", 0) <= 0.75


def test_pattern_confidence_is_confirmed_over_matched():
    kb = KnowledgeBase()
    kb.patterns["p"] = Pattern("p", [("x", ">=", 1)], 0.8, confidence=0.9)
    for proposition in learn([], [("p", True), ("p", False), ("p", True)]):
        assert proposition.kind == "pattern_confidence_update"
        apply_proposition(kb, proposition)
    assert kb.pattern_stats["p"] == (2, 3)
    assert kb.patterns["p"].confidence == pytest.approx(2 / 3)


# -- serialization ---------------------------------------------------------------------------------

def test_knowledge_base_round_trip():
    kb = KnowledgeBase()
    kb.patterns["p"] = Pattern("p", [("x", ">=", 1)], 0.8, 0.9,
                               progression=[("x", "add", -0.1)], deadline_ticks=2)
    kb.rules["r"] = ConditionActionRule("r", [("x", ">=", 2)], "act", 1)
    kb.goals = normalize_goals([Goal("g", [("x", ">=", 1)], 1.0)])
    kb.note_effect_outcome("act", 0, True)
    data = kb.to_json()
    back = KnowledgeBase.from_json(data)
    assert back.to_json() == data


def s2_knowledge():
    """A knowledge base as an episode builds one from s2's config."""
    config = load_scenario(scenario_path("s2_lateral_hunt"))
    kb = KnowledgeBase(patterns={p.pattern_id: p for p in config.build_patterns()},
                       rules=config.build_rules(), goals=config.build_goals())
    return kb, config.build_roe()


S2_KB, _ = s2_knowledge()
S2_ACTIONS = sorted({rule.action_id for rule in S2_KB.rules.values()})
RULE_EDIT = st.builds(
    lambda rule_id, priority, action_id, value: {"command": "add_rule", "rule": {
        "rule_id": rule_id, "condition": [["host_integrity", "<=", value]],
        "action_id": action_id, "priority": priority}},
    st.sampled_from(["r_new", "a_first", *sorted(S2_KB.rules)]), st.integers(0, 3),
    st.sampled_from(S2_ACTIONS), st.sampled_from([0.25, 0.5]))
GOAL_EDIT = st.builds(lambda goal_id, weight: {"command": "set_goal_weight", "goal_id": goal_id,
                                               "weight": weight},
                      st.sampled_from([g.goal_id for g in S2_KB.goals]),
                      st.floats(0.01, 10, allow_nan=False))
PATTERN_NOTE = st.tuples(st.just("pattern"), st.sampled_from(sorted(S2_KB.patterns)),
                         st.booleans())
EFFECT_NOTE = st.tuples(st.just("effect"), st.sampled_from(S2_ACTIONS), st.integers(0, 2),
                        st.booleans())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(RULE_EDIT, GOAL_EDIT, PATTERN_NOTE, EFFECT_NOTE), max_size=12))
def test_a_knowledge_base_an_episode_edited_survives_its_json(edits):
    kb, roe = s2_knowledge()
    # two rules of one priority, added out of id order, then one replaced:
    # fast_rule_select tries the two in the knowledge base's order
    for rule_id, value in (("z_tie", 0.5), ("b_tie", 0.5), ("z_tie", 0.25)):
        apply_control({"command": "add_rule", "rule": {
            "rule_id": rule_id, "condition": [["host_integrity", "<=", value]],
            "action_id": S2_ACTIONS[0], "priority": 1}}, kb, roe)
    for edit in edits:
        if isinstance(edit, dict):  # a C2 command, as the episode applies it
            apply_control(edit, kb, roe)
        elif edit[0] == "pattern":
            kb.note_pattern_outcome(edit[1], edit[2])
        else:
            kb.note_effect_outcome(*edit[1:])
    assert_same_knowledge(KnowledgeBase.from_json(kb.to_json()), kb)


def test_knowledge_schema_mismatch():
    with pytest.raises(SchemaMismatch):
        KnowledgeBase.from_json({"schema_version": 99})
