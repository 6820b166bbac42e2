"""Brute-force planning oracle, reference planner and the randomized
small-instance generator.

Shared by the planner unit tests and the acceptance suite. All generated
quantities are dyadic rationals (exact in binary floating point), so the
oracle's outcome enumeration and the planner's both compute exact values and
"equal utility" means bitwise equality, not approximate equality.

reference_predict and reference_propose_plans are the planner as it was
before search nodes carried outcome distributions: every node re-enumerates
all outcomes of its whole sequence from the original beliefs. The planner
must match them bit for bit on any input, dyadic or not.
"""

from __future__ import annotations

import itertools
import operator
import zlib
from functools import reduce
from random import Random
from typing import Any, Iterable, Sequence

from defsim.planning import (
    EXACT_ENUM_LIMIT,
    SAMPLE_COUNT,
    ActionCategory,
    ActionSpec,
    Goal,
    PlannerConfig,
    PlanProposal,
    ProbabilisticEffect,
    normalize_goals,
    signed_noise,
)
from defsim.sensing import FeatureDelta, WorldState, all_hold, apply_feature_delta


def total(values: Iterable[Any]) -> Any:
    """The left-to-right sum from int 0, as builtin sum() made it before
    CPython 3.12 compensated float rounding."""
    return reduce(operator.add, values, 0)


DYADIC_PROBS = (0.25, 0.5, 0.75, 1.0)
DYADIC_VALUES = (0.25, 0.5, 1.0)
DYADIC_COSTS = (0.0, 0.125, 0.25)
WEIGHT_COMBOS = ((1.0,), (1.0, 1.0), (1.0, 3.0), (2.0, 2.0), (1.0, 1.0, 2.0))


def oracle_best(ws: WorldState, repertoire: dict[str, ActionSpec],
                goals: list[Goal], config: PlannerConfig) -> tuple[float, tuple[str, ...]]:
    """Exhaustively enumerate every sequence up to the depth bound whose
    preconditions hold under optimistic chaining; score each by full
    enumeration over all effect outcomes. Ties prefer the lexicographically
    smaller sequence."""

    def score(seq: tuple[str, ...]) -> float:
        effects = [eff for aid in seq for eff in repertoire[aid].effects]
        benefit = 0.0
        for bits in itertools.product((0, 1), repeat=len(effects)):
            prob = 1.0
            for bit, eff in zip(bits, effects):
                prob *= eff.probability if bit else (1.0 - eff.probability)
            if prob == 0.0:
                continue
            feats = dict(ws.features)
            for bit, eff in zip(bits, effects):
                if bit:
                    for delta in eff.feature_deltas:
                        apply_feature_delta(feats, delta)
            for g in goals:
                if all_hold(feats, g.predicates):
                    benefit += g.weight * prob
        risk = total(repertoire[a].risk for a in seq)
        noise = total(
            -repertoire[a].noise if repertoire[a].category is ActionCategory.CAMOUFLAGE
            else repertoire[a].noise for a in seq)
        return benefit - config.risk_weight * risk - config.noise_weight * noise

    best = (score(()), ())
    frontier: list[tuple[tuple[str, ...], dict]] = [((), dict(ws.features))]
    for _ in range(config.depth):
        nxt = []
        for seq, feats in frontier:
            for aid in sorted(repertoire):
                spec = repertoire[aid]
                if not all_hold(feats, spec.preconditions):
                    continue
                new_feats = dict(feats)
                for eff in spec.effects:
                    for delta in eff.feature_deltas:
                        apply_feature_delta(new_feats, delta)
                new_seq = seq + (aid,)
                cand = (score(new_seq), new_seq)
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
                nxt.append((new_seq, new_feats))
        frontier = nxt
    return best


def reference_predict(
    ws: WorldState,
    action_ids: Sequence[str],
    repertoire: dict[str, ActionSpec],
    goals: list[Goal],
    base_deltas: Sequence[FeatureDelta] = (),
) -> dict[str, float]:
    """Per-goal satisfaction probability by full enumeration of the 2^k
    outcomes of the k uncertain effects, or SAMPLE_COUNT seeded samples
    above EXACT_ENUM_LIMIT."""
    features = dict(ws.features)
    for delta in base_deltas:
        apply_feature_delta(features, delta)

    effect_plan: list[tuple[list[FeatureDelta], float]] = []
    for aid in action_ids:
        for eff in repertoire[aid].effects:
            effect_plan.append((eff.feature_deltas, eff.probability))

    uncertain = [i for i, (_, p) in enumerate(effect_plan) if 0.0 < p < 1.0]
    satisfaction = {g.goal_id: 0.0 for g in goals}

    def evaluate(occurring: set[int], weight: float) -> None:
        feats = dict(features)
        for i, (deltas, _) in enumerate(effect_plan):
            if i in occurring:
                for delta in deltas:
                    apply_feature_delta(feats, delta)
        for g in goals:
            if all_hold(feats, g.predicates):
                satisfaction[g.goal_id] += weight

    certain = {i for i, (_, p) in enumerate(effect_plan) if p >= 1.0}
    if len(uncertain) <= EXACT_ENUM_LIMIT:
        for bits in itertools.product((False, True), repeat=len(uncertain)):
            prob = 1.0
            occurring = set(certain)
            for bit, idx in zip(bits, uncertain):
                p = effect_plan[idx][1]
                prob *= p if bit else (1.0 - p)
                if bit:
                    occurring.add(idx)
            if prob > 0.0:
                evaluate(occurring, prob)
    else:
        seed = zlib.crc32("|".join(action_ids).encode()) ^ 0x5EED
        rng = Random(seed)
        share = 1.0 / SAMPLE_COUNT
        for _ in range(SAMPLE_COUNT):
            occurring = set(certain)
            for idx in uncertain:
                if rng.random() < effect_plan[idx][1]:
                    occurring.add(idx)
            evaluate(occurring, share)
    return satisfaction


def reference_score(ws: WorldState, action_ids: Sequence[str],
                    repertoire: dict[str, ActionSpec], goals: list[Goal],
                    config: PlannerConfig) -> PlanProposal:
    sat = reference_predict(ws, action_ids, repertoire, goals)
    benefit = total(g.weight * sat[g.goal_id] for g in goals)
    risk_total = total(repertoire[a].risk for a in action_ids)
    noise_total = total(signed_noise(repertoire[a]) for a in action_ids)
    utility = benefit - config.risk_weight * risk_total - config.noise_weight * noise_total
    return PlanProposal(tuple(action_ids), sat, utility, benefit, risk_total, noise_total)


def reference_propose_plans(ws: WorldState, repertoire: dict[str, ActionSpec],
                            goals: list[Goal], config: PlannerConfig) -> list[PlanProposal]:
    """The planner's beam search with every node scored from scratch by
    reference_predict."""
    empty = reference_score(ws, (), repertoire, goals, config)
    candidates: dict[tuple[str, ...], PlanProposal] = {(): empty}
    frontier: list[tuple[tuple[str, ...], dict[str, Any]]] = [((), dict(ws.features))]
    for _ in range(config.depth):
        level: list[tuple[PlanProposal, dict[str, Any]]] = []
        for seq, feats in frontier:
            for aid in sorted(repertoire):
                spec = repertoire[aid]
                if not all_hold(feats, spec.preconditions):
                    continue
                new_feats = dict(feats)
                for eff in spec.effects:
                    for delta in eff.feature_deltas:
                        apply_feature_delta(new_feats, delta)
                proposal = reference_score(ws, seq + (aid,), repertoire, goals, config)
                candidates[proposal.actions] = proposal
                level.append((proposal, new_feats))
        level.sort(key=lambda t: (-t[0].utility, t[0].actions))
        frontier = [(p.actions, f) for p, f in level[: config.beam]]

    ranked = sorted(candidates.values(), key=lambda p: (-p.utility, p.actions))
    top = ranked[: config.beam]
    if all(p.actions for p in top):
        top = top[: config.beam - 1] + [empty]
    return top


def random_instance(rng: Random) -> tuple[WorldState, dict[str, ActionSpec], list[Goal]]:
    """A small planning instance: repertoire <= 4, effects per action <= 3,
    so any depth-2 sequence stays within the exact-enumeration limit."""
    keys = [f"f{i}" for i in range(rng.randint(2, 4))]
    ws = WorldState(tick=0, features={k: rng.choice([0.0, 0.5, 1.0]) for k in keys})
    repertoire: dict[str, ActionSpec] = {}
    for i in range(rng.randint(1, 4)):
        effects = []
        for _ in range(rng.randint(0, 3)):
            deltas = [(rng.choice(keys), rng.choice(["set", "add"]),
                       rng.choice(DYADIC_VALUES))]
            effects.append(ProbabilisticEffect(
                env_effect=None, feature_deltas=deltas,
                probability=rng.choice(DYADIC_PROBS)))
        preconditions = []
        if rng.random() < 0.4:
            preconditions = [(rng.choice(keys), rng.choice([">=", "<="]),
                              rng.choice(DYADIC_VALUES))]
        repertoire[f"a{i}"] = ActionSpec(
            f"a{i}",
            rng.choice([ActionCategory.RESTORE, ActionCategory.CONTAIN,
                        ActionCategory.OBSERVE, ActionCategory.CAMOUFLAGE]),
            preconditions=preconditions,
            effects=effects,
            risk=rng.choice(DYADIC_COSTS),
            noise=rng.choice(DYADIC_COSTS),
        )
    weights = rng.choice(WEIGHT_COMBOS)
    goals = [Goal(f"g{i}", [(rng.choice(keys), ">=", rng.choice([0.5, 1.0]))], w)
             for i, w in enumerate(weights)]
    return ws, repertoire, normalize_goals(goals)
