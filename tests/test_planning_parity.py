"""The planner against the reference that scores every node from scratch.

Search nodes carry outcome distributions that each child extends from its
parent; these tests hold that to bit equality with reference_predict and
reference_propose_plans (tests/planning_oracle.py) on inputs that are not
dyadic, so any change in the order of float operations shows.
"""

import importlib.util
from pathlib import Path

from hypothesis import given, settings, strategies as st

from defsim.planning import (
    EXACT_ENUM_LIMIT,
    ActionCategory,
    ActionSpec,
    Goal,
    PlannerConfig,
    ProbabilisticEffect,
    expected_loss,
    normalize_goals,
    predict,
    propose_plans,
)
from defsim.sensing import WorldState

from planning_oracle import reference_predict, reference_propose_plans, total

_spec = importlib.util.spec_from_file_location(
    "planner_probe", Path(__file__).resolve().parent.parent / "scripts" / "planner_probe.py")
PROBE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(PROBE)

PRESENT = ("f0", "f1", "f2")
KEYS = PRESENT + ("ghost",)  # "ghost" is absent from the beliefs, so "add" creates it

values = st.one_of(st.sampled_from([0, 1, 0.1, 0.2, 1 / 3, -0.3, 0.7]),
                   st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
probabilities = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 0.3, 0.7, 0.9]),
                          st.floats(min_value=0.01, max_value=0.99))
deltas = st.tuples(st.sampled_from(KEYS), st.sampled_from(["set", "add"]), values)
effects = st.builds(
    lambda ds, p: ProbabilisticEffect(env_effect=None, feature_deltas=ds, probability=p),
    st.lists(deltas, min_size=1, max_size=2), probabilities)
predicates = st.tuples(st.sampled_from(KEYS), st.sampled_from([">=", "<=", ">", "<"]), values)
# risks and noises that are not dyadic, so the order in which a plan's are added up shows
costs = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3]),
                  st.floats(min_value=0.0, max_value=0.5, allow_nan=False))


@st.composite
def instances(draw, max_effects=3):
    ws = WorldState(tick=0, features={k: draw(values) for k in PRESENT})
    repertoire = {}
    for i in range(draw(st.integers(1, 4))):
        repertoire[f"a{i}"] = ActionSpec(
            f"a{i}",
            draw(st.sampled_from([ActionCategory.RESTORE, ActionCategory.CAMOUFLAGE])),
            # a precondition on "ghost" holds only once an earlier action's
            # effect has created it in the search's evolved beliefs
            preconditions=draw(st.lists(
                st.tuples(st.sampled_from(KEYS), st.sampled_from([">=", "<="]), values),
                max_size=1)),
            effects=draw(st.lists(effects, max_size=max_effects)),
            risk=draw(st.one_of(st.sampled_from([0.0, 0.1, 0.3]), costs)),
            noise=draw(st.one_of(st.sampled_from([0.0, 0.05, 0.2]), costs)),
        )
    goals = normalize_goals([
        Goal(f"g{i}", draw(st.lists(predicates, min_size=1, max_size=2)),
             draw(st.sampled_from([0.3, 1.0, 2.5])))
        for i in range(draw(st.integers(1, 3)))])
    return ws, repertoire, goals


def assert_bit_equal(got, want):
    assert got == want
    assert repr(got) == repr(want)  # also tells -0.0 from 0.0 and 0 from 0.0


def proposal_rows(proposals):
    return [(p.actions, p.utility, p.benefit, p.risk_total, p.noise_total,
             p.predicted_satisfaction) for p in proposals]


@given(instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_predict_equals_reference(instance, data):
    ws, repertoire, goals = instance
    ids = data.draw(st.lists(st.sampled_from(sorted(repertoire)), max_size=4))
    base = data.draw(st.lists(deltas, max_size=3))
    assert_bit_equal(predict(ws, ids, repertoire, goals, base),
                     reference_predict(ws, ids, repertoire, goals, base))


@given(instances(max_effects=6), st.data())
@settings(max_examples=40, deadline=None)
def test_predict_sampled_path_equals_reference(instance, data):
    ws, repertoire, goals = instance
    uncertain = ProbabilisticEffect(None, [("f0", "add", 0.1)], data.draw(
        st.floats(min_value=0.01, max_value=0.99)))
    repertoire["wide"] = ActionSpec("wide", ActionCategory.RESTORE,
                                    effects=[uncertain] * (EXACT_ENUM_LIMIT + 1))
    ids = data.draw(st.permutations(sorted(repertoire)))
    assert_bit_equal(predict(ws, ids, repertoire, goals),
                     reference_predict(ws, ids, repertoire, goals))


@given(instances(), st.integers(1, 3), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_propose_plans_equals_reference_search(instance, depth, beam):
    ws, repertoire, goals = instance
    config = PlannerConfig(risk_weight=0.7, noise_weight=0.3, depth=depth, beam=beam)
    assert_bit_equal(proposal_rows(propose_plans(ws, repertoire, goals, config)),
                     proposal_rows(reference_propose_plans(ws, repertoire, goals, config)))


@given(st.lists(st.tuples(costs, costs, st.sampled_from([ActionCategory.RESTORE,
                                                        ActionCategory.CAMOUFLAGE])),
                min_size=2, max_size=3))
@settings(max_examples=100, deadline=None)
def test_every_plan_total_equals_reference_search(specs):
    # the beam holds every node, so every sequence up to depth 3 is returned,
    # (a0, a1, a2) beside (a2, a1, a0): totals added in any other order show
    repertoire = {f"a{i}": ActionSpec(f"a{i}", category, risk=risk, noise=noise)
                  for i, (risk, noise, category) in enumerate(specs)}
    ws = WorldState(tick=0, features={"f0": 0.5})
    goals = normalize_goals([Goal("g", [("f0", ">=", 0.2)], 1.0)])
    config = PlannerConfig(risk_weight=0.7, noise_weight=0.3, depth=3, beam=40)
    got = propose_plans(ws, repertoire, goals, config)
    assert len(got) == sum(len(specs) ** n for n in range(4))
    assert_bit_equal(proposal_rows(got),
                     proposal_rows(reference_propose_plans(ws, repertoire, goals, config)))


def test_search_crossing_the_enumeration_limit_equals_reference_search():
    # 5 and 7 uncertain effects per action: depth-2 nodes hold 10, 12 or 14,
    # so the search crosses EXACT_ENUM_LIMIT at depth 2 on one branch and at
    # depth 3 on all; the goals reward many occurrences, so deep nodes win
    def bump(p):
        return ProbabilisticEffect(None, [("x", "add", 0.1)], p)
    repertoire = {
        "five": ActionSpec("five", ActionCategory.RESTORE, effects=[bump(0.55)] * 5),
        "seven": ActionSpec("seven", ActionCategory.RESTORE,
                            effects=[bump(0.45)] * 6 + [bump(1.0), bump(0.3)]),
    }
    ws = WorldState(tick=0, features={"x": 0.0})
    goals = normalize_goals([Goal("g", [("x", ">=", 0.95)], 1.0),
                             Goal("h", [("x", ">=", 0.45)], 0.5)])
    config = PlannerConfig(depth=3, beam=5)
    got = propose_plans(ws, repertoire, goals, config)
    assert_bit_equal(proposal_rows(got),
                     proposal_rows(reference_propose_plans(ws, repertoire, goals, config)))
    uncertain = sum(1 for a in got[0].actions for eff in repertoire[a].effects
                    if 0.0 < eff.probability < 1.0)
    assert len(got[0].actions) == 3 and uncertain > EXACT_ENUM_LIMIT


@given(instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_expected_loss_equals_reference(instance, data):
    ws, repertoire, goals = instance
    ids = data.draw(st.lists(st.sampled_from(sorted(repertoire)), max_size=3))
    progression = data.draw(st.lists(deltas, max_size=2))
    horizon = data.draw(st.integers(0, 3))
    sat = reference_predict(ws, ids, repertoire, goals, progression * horizon)
    want = max(0.0, min(1.0, 1.0 - total(g.weight * sat[g.goal_id] for g in goals)))
    assert_bit_equal(expected_loss(ws, repertoire, goals, horizon, ids, progression), want)


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_planner_probe_smallest_instance_equals_reference_search(seed):
    ws, repertoire, goals, config = PROBE.instance(seed, *min(PROBE.ROWS))
    assert_bit_equal(proposal_rows(propose_plans(ws, repertoire, goals, config)),
                     proposal_rows(reference_propose_plans(ws, repertoire, goals, config)))
