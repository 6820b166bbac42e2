"""Response planning and action selection.

Futures are predicted from outcome distributions over the features that the
goal predicates name, treating probabilistic effects as independent. A
bounded best-first search proposes plans; each search node carries its
distribution and extends its parent's with the new action's effects alone,
in an order that keeps every probability and every per-goal sum bit-equal to
scoring the whole sequence from scratch (see _Outcomes). Plans are scored by
weighted goal satisfaction minus risk and noise penalties. Selection filters
by the rules of engagement, trims and augments the winner (prerequisite,
preparatory, precautionary, post-execution entries) and releases it only if
it beats inaction through the risk gate, which predicts with the same
distribution code. A condition-action fast path bypasses search entirely
under tight deadlines.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Any, Optional, Sequence

from .envsim import EffectDescriptor
from .errors import ConfigInvalid
from .sensing import (
    FeatureDelta,
    Predicate,
    WorldState,
    all_hold,
    apply_feature_delta,
    feature_after_delta,
    predicate_holds,
)

EXACT_ENUM_LIMIT = 12
SAMPLE_COUNT = 256


class ActionCategory(str, Enum):
    OBSERVE = "observe"
    CONTAIN = "contain"
    RESTORE = "restore"
    DESTRUCTIVE = "destructive"
    CAMOUFLAGE = "camouflage"
    COMMUNICATE = "communicate"
    PROPAGATE = "propagate"


class TargetScope(str, Enum):
    SELF_HOST = "self_host"
    REMOTE = "remote"


@dataclass
class ProbabilisticEffect:
    """One effect of an action: what happens in the environment, how the
    believed features are predicted to change, and what should be observable
    afterwards."""

    env_effect: Optional[EffectDescriptor]
    feature_deltas: list[FeatureDelta]
    probability: float
    expect: list[Predicate] = field(default_factory=list)


@dataclass
class ActionSpec:
    action_id: str
    category: ActionCategory
    preconditions: list[Predicate] = field(default_factory=list)
    effects: list[ProbabilisticEffect] = field(default_factory=list)
    risk: float = 0.0
    noise: float = 0.0
    duration: int = 1
    target_scope: TargetScope = TargetScope.SELF_HOST
    preparation: list[str] = field(default_factory=list)
    builtin: Optional[str] = None  # snapshot | restore | verify | propagate
    target_host: Optional[str] = None


@dataclass
class Goal:
    goal_id: str
    predicates: list[Predicate]
    weight: float


def normalize_goals(goals: list[Goal]) -> list[Goal]:
    total = sum(g.weight for g in goals)
    if goals and total <= 0:
        raise ConfigInvalid("goal weights must sum to a positive value")
    for g in goals:
        g.weight = g.weight / total
    return goals


@dataclass
class PlanProposal:
    actions: tuple[str, ...]
    predicted_satisfaction: dict[str, float]
    utility: float
    benefit: float
    risk_total: float
    noise_total: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "actions": list(self.actions),
            "utility": self.utility,
            "benefit": self.benefit,
            "risk_total": self.risk_total,
            "noise_total": self.noise_total,
        }


class EntryOrigin(str, Enum):
    PROPOSED = "proposed"
    PREREQUISITE = "prerequisite"
    PREPARATORY = "preparatory"
    PRECAUTIONARY = "precautionary"
    POST_EXECUTION = "post_execution"


@dataclass
class RulesOfEngagement:
    max_plan_risk: float = 1.0
    destructive_only_on_residence: bool = True
    forbidden_categories: set[str] = field(default_factory=set)
    fast_deadline_ticks: int = 0


@dataclass
class ConditionActionRule:
    rule_id: str
    condition: list[Predicate]
    action_id: str
    priority: int


@dataclass
class PlannerConfig:
    risk_weight: float = 1.0   # penalty per unit plan risk
    noise_weight: float = 0.5  # penalty per unit plan noise
    depth: int = 3             # maximum plan length searched
    beam: int = 5              # frontier width and proposal count


SNAPSHOT_ACTION_ID = "snapshot_host"
VERIFY_ACTION_ID = "verify_effects"

BUILTIN_ACTIONS: dict[str, ActionSpec] = {
    SNAPSHOT_ACTION_ID: ActionSpec(
        SNAPSHOT_ACTION_ID, ActionCategory.OBSERVE, builtin="snapshot"),
    VERIFY_ACTION_ID: ActionSpec(
        VERIFY_ACTION_ID, ActionCategory.OBSERVE, builtin="verify"),
}


def signed_noise(spec: ActionSpec) -> float:
    """Camouflage noise is the configured detectability reduction, so it
    counts negative in the plan's noise budget."""
    return -spec.noise if spec.category is ActionCategory.CAMOUFLAGE else spec.noise


# -- prediction -----------------------------------------------------------------

_ABSENT = object()  # the value of a goal feature that the features do not hold
_Rows = list[tuple[float, tuple]]  # (probability, goal-feature values)


def _apply_optimistic(feats: dict[str, Any], spec: ActionSpec) -> dict[str, Any]:
    """A copy of `feats` with every effect of `spec` applied, whatever its
    probability."""
    evolved = dict(feats)
    for eff in spec.effects:
        for delta in eff.feature_deltas:
            apply_feature_delta(evolved, delta)
    return evolved


class _Outcomes:
    """Outcome distributions over the goal-predicate features.

    A distribution is a list of (probability, values) rows; values holds
    the features the goal predicates name, in `keys` order. Rows stay in
    the order itertools.product((False, True), ...) enumerates the
    uncertain effects, first effect slowest, so every probability is the
    left-to-right product of its factors and every per-goal sum adds the
    same terms in the same order, whether a sequence is scored in one go or
    extended one action at a time. Identical rows are never merged, since
    that would reorder the sums.

    Which goals hold on a values tuple is memoised: one instance serves a
    whole search, whose goals are fixed.
    """

    def __init__(self, goals: list[Goal], features: dict[str, Any]) -> None:
        self.goals = goals
        self.keys = tuple(dict.fromkeys(pred[0] for g in goals for pred in g.predicates))
        self._slots = {key: i for i, key in enumerate(self.keys)}
        self._held: dict[tuple, tuple[str, ...]] = {}
        self._base = tuple(features.get(key, _ABSENT) for key in self.keys)
        self.start: _Rows = [(1.0, self._base)]

    def _moves(self, eff: ProbabilisticEffect) -> list[tuple[int, str, Any]]:
        return [(self._slots[key], op, value) for key, op, value in eff.feature_deltas
                if key in self._slots]

    @staticmethod
    def _shift(values: tuple, moves: list[tuple[int, str, Any]]) -> tuple:
        out = list(values)
        for slot, op, value in moves:
            current = out[slot]
            out[slot] = feature_after_delta(0.0 if current is _ABSENT else current, op, value)
        return tuple(out)

    def extend(self, rows: Optional[_Rows], uncertain: int,
               spec: ActionSpec) -> tuple[Optional[_Rows], int]:
        """The distribution after `spec`'s effects, and the count of
        uncertain effects so far. A certain effect updates every row; an
        uncertain one with probability p splits each row into prob * (1 - p)
        without it, then prob * p with it; an effect with probability 0
        never occurs. Rows of probability 0 are dropped, as enumeration
        skips them. Past EXACT_ENUM_LIMIT uncertain effects the rows are
        None and the sequence is scored by sampling."""
        uncertain += sum(1 for eff in spec.effects if 0.0 < eff.probability < 1.0)
        if rows is None or uncertain > EXACT_ENUM_LIMIT:
            return None, uncertain
        shift = self._shift
        for eff in spec.effects:
            p = eff.probability
            moves = self._moves(eff)
            if p >= 1.0:
                if moves:
                    rows = [(prob, shift(values, moves)) for prob, values in rows]
            elif p > 0.0:
                q = 1.0 - p
                split = []
                for prob, values in rows:
                    without, occurs = prob * q, prob * p
                    if without > 0.0:
                        split.append((without, values))
                    if occurs > 0.0:
                        split.append((occurs, shift(values, moves) if moves else values))
                rows = split
        return rows, uncertain

    def _sample(self, action_ids: Sequence[str],
                repertoire: dict[str, ActionSpec]) -> _Rows:
        """SAMPLE_COUNT equally weighted rows, drawn with a generator seeded
        from the action ids."""
        effects = [(eff.probability, self._moves(eff))
                   for aid in action_ids for eff in repertoire[aid].effects]
        rng = Random(zlib.crc32("|".join(action_ids).encode()) ^ 0x5EED)
        share = 1.0 / SAMPLE_COUNT
        rows = []
        for _ in range(SAMPLE_COUNT):
            values = self._base
            for p, moves in effects:
                if p >= 1.0 or (0.0 < p < 1.0 and rng.random() < p):
                    values = self._shift(values, moves)
            rows.append((share, values))
        return rows

    def satisfaction(self, rows: Optional[_Rows], action_ids: Sequence[str],
                     repertoire: dict[str, ActionSpec]) -> dict[str, float]:
        """Per-goal probability mass of the rows that satisfy the goal; with
        no rows, that of the sampled outcomes of `action_ids`."""
        if rows is None:
            rows = self._sample(action_ids, repertoire)
        satisfaction = {g.goal_id: 0.0 for g in self.goals}
        held = self._held
        for prob, values in rows:
            try:
                goal_ids = held[values]
            except KeyError:
                goal_ids = held[values] = self._goals_held(values)
            except TypeError:  # an unhashable feature value, such as a list
                goal_ids = self._goals_held(values)
            for goal_id in goal_ids:
                satisfaction[goal_id] += prob
        return satisfaction

    def _goals_held(self, values: tuple) -> tuple[str, ...]:
        feats = {key: value for key, value in zip(self.keys, values) if value is not _ABSENT}
        return tuple(g.goal_id for g in self.goals if all_hold(feats, g.predicates))


def predict(
    ws: WorldState,
    action_ids: Sequence[str],
    repertoire: dict[str, ActionSpec],
    goals: list[Goal],
    base_deltas: Sequence[FeatureDelta] = (),
) -> dict[str, float]:
    """Per-goal satisfaction probability after running the sequence.

    base_deltas (e.g. threat progression) apply deterministically first.
    Each probabilistic effect occurs independently. With at most
    EXACT_ENUM_LIMIT uncertain effects the outcome distribution is built
    exactly, one action at a time, as the search builds it node by node
    (see _Outcomes for the row order that keeps the sums bit-exact); beyond
    that SAMPLE_COUNT deterministic seeded samples are drawn. Preconditions
    are not checked here: the search and _trim_and_augment admit an action
    only where they hold.
    """
    features = dict(ws.features)
    for delta in base_deltas:
        apply_feature_delta(features, delta)
    outcomes = _Outcomes(goals, features)
    rows: Optional[_Rows] = outcomes.start
    uncertain = 0
    for aid in action_ids:
        rows, uncertain = outcomes.extend(rows, uncertain, repertoire[aid])
    return outcomes.satisfaction(rows, action_ids, repertoire)


def _proposal(
    action_ids: tuple[str, ...],
    sat: dict[str, float],
    repertoire: dict[str, ActionSpec],
    goals: list[Goal],
    config: PlannerConfig,
) -> PlanProposal:
    benefit = sum(g.weight * sat[g.goal_id] for g in goals)
    risk_total = sum(repertoire[a].risk for a in action_ids)
    noise_total = sum(signed_noise(repertoire[a]) for a in action_ids)
    utility = benefit - config.risk_weight * risk_total - config.noise_weight * noise_total
    return PlanProposal(action_ids, sat, utility, benefit, risk_total, noise_total)


def score_sequence(
    ws: WorldState,
    action_ids: Sequence[str],
    repertoire: dict[str, ActionSpec],
    goals: list[Goal],
    config: PlannerConfig,
) -> PlanProposal:
    sat = predict(ws, action_ids, repertoire, goals)
    return _proposal(tuple(action_ids), sat, repertoire, goals, config)


# -- proposal search --------------------------------------------------------------

def propose_plans(
    ws: WorldState,
    repertoire: dict[str, ActionSpec],
    goals: list[Goal],
    config: PlannerConfig,
) -> list[PlanProposal]:
    """Bounded best-first search over action sequences of length <= depth.

    An action extends a sequence iff its preconditions hold on the belief
    copy evolved by optimistically applying every prior effect (probability
    ignored). Each node carries its outcome distribution, extended from its
    parent's by the new action's effects alone, and is scored exactly as
    score_sequence scores its sequence. The beam keeps the best `beam`
    nodes per level by (utility desc, action-id sequence asc). Returns at
    most `beam` proposals, best first, with the empty plan always included
    as the baseline candidate.
    """
    outcomes = _Outcomes(goals, ws.features)
    empty = _proposal((), outcomes.satisfaction(outcomes.start, (), repertoire),
                      repertoire, goals, config)
    candidates: dict[tuple[str, ...], PlanProposal] = {(): empty}
    # a node: (actions, optimistic features, outcome rows, uncertain effects)
    frontier: list[tuple[tuple[str, ...], dict[str, Any], Optional[_Rows], int]] = [
        ((), dict(ws.features), outcomes.start, 0)]
    order = sorted(repertoire)

    for _ in range(config.depth):
        level: list[tuple[PlanProposal, tuple]] = []
        for seq, feats, rows, uncertain in frontier:
            for aid in order:
                spec = repertoire[aid]
                if not all_hold(feats, spec.preconditions):
                    continue
                new_feats = _apply_optimistic(feats, spec)
                new_seq = seq + (aid,)
                new_rows, new_uncertain = outcomes.extend(rows, uncertain, spec)
                sat = outcomes.satisfaction(new_rows, new_seq, repertoire)
                proposal = _proposal(new_seq, sat, repertoire, goals, config)
                candidates[new_seq] = proposal
                level.append((proposal, (new_seq, new_feats, new_rows, new_uncertain)))
        level.sort(key=lambda t: (-t[0].utility, t[0].actions))
        frontier = [node for _, node in level[: config.beam]]

    ranked = sorted(candidates.values(), key=lambda p: (-p.utility, p.actions))
    top = ranked[: config.beam]
    if all(p.actions for p in top):  # keep the baseline in the returned set
        top = top[: config.beam - 1] + [empty]
    return top


# -- expected loss and the risk gate ----------------------------------------------

def expected_loss(
    ws: WorldState,
    repertoire: dict[str, ActionSpec],
    goals: list[Goal],
    horizon: int,
    plan_action_ids: Optional[Sequence[str]] = None,
    progression: Sequence[FeatureDelta] = (),
) -> float:
    """1 - weighted predicted satisfaction after `horizon` ticks of threat
    progression, with the plan's effects (if any) applied on top."""
    base: list[FeatureDelta] = []
    for _ in range(horizon):
        base.extend(progression)
    ids = [a for a in (plan_action_ids or []) if a not in BUILTIN_ACTIONS]
    sat = predict(ws, ids, repertoire, goals, base_deltas=base)
    loss = 1.0 - sum(g.weight * sat[g.goal_id] for g in goals)
    return max(0.0, min(1.0, loss))


# -- rules of engagement -----------------------------------------------------------

def _action_violations(aid: str, spec: ActionSpec, roe: RulesOfEngagement) -> list[str]:
    """The ROE clauses one action breaks whatever plan it sits in."""
    violations = []
    if spec.category.value in roe.forbidden_categories:
        violations.append(f"{aid}: category {spec.category.value} forbidden")
    if (
        spec.category is ActionCategory.DESTRUCTIVE
        and roe.destructive_only_on_residence
        and spec.target_scope is TargetScope.REMOTE
    ):
        violations.append(f"{aid}: destructive action with remote scope")
    return violations


def action_roe_ok(spec: ActionSpec, roe: RulesOfEngagement) -> bool:
    if spec.risk > roe.max_plan_risk:
        return False
    return not _action_violations(spec.action_id, spec, roe)


def plan_roe_violations(
    proposal: PlanProposal,
    repertoire: dict[str, ActionSpec],
    roe: RulesOfEngagement,
) -> list[str]:
    violations = []
    if proposal.risk_total > roe.max_plan_risk:
        violations.append(
            f"plan risk {proposal.risk_total:.3f} exceeds budget {roe.max_plan_risk:.3f}")
    for aid in proposal.actions:
        violations.extend(_action_violations(aid, repertoire[aid], roe))
    return violations


# -- selection ----------------------------------------------------------------------

def _unique_provider(
    failing: list[Predicate],
    repertoire: dict[str, ActionSpec],
    roe: RulesOfEngagement,
    feats: dict[str, Any],
    exclude: str,
) -> Optional[str]:
    """The single repertoire action whose optimistic effects satisfy every
    failing predicate, is itself applicable and ROE-legal; None if zero or
    several qualify."""
    providers = []
    for aid in sorted(repertoire):
        if aid == exclude:
            continue
        spec = repertoire[aid]
        if not action_roe_ok(spec, roe) or not all_hold(feats, spec.preconditions):
            continue
        if all_hold(_apply_optimistic(feats, spec), failing):
            providers.append(aid)
    return providers[0] if len(providers) == 1 else None


def _trim_and_augment(
    proposal: PlanProposal,
    repertoire: dict[str, ActionSpec],
    roe: RulesOfEngagement,
    ws: WorldState,
) -> tuple[list[tuple[str, EntryOrigin]], list[dict[str, Any]], list[dict[str, Any]]]:
    feats = ws.features
    entries: list[tuple[str, EntryOrigin]] = []
    trims: list[dict[str, Any]] = []
    insertions: list[dict[str, Any]] = []
    snapshot_done = False

    for aid in proposal.actions:
        spec = repertoire[aid]
        for prep_id in spec.preparation:
            prep = repertoire.get(prep_id)
            if prep is None or not action_roe_ok(prep, roe):
                continue
            if all_hold(feats, prep.preconditions):
                entries.append((prep_id, EntryOrigin.PREPARATORY))
                insertions.append({"action": prep_id, "origin": "preparatory", "before": aid})
                feats = _apply_optimistic(feats, prep)
        if not all_hold(feats, spec.preconditions):
            failing = [list(p) for p in spec.preconditions if not predicate_holds(feats, p)]
            provider = _unique_provider(
                [tuple(p) for p in failing], repertoire, roe, feats, exclude=aid)
            if provider is None:
                trims.append({"action": aid, "reason": "precondition_failed", "failing": failing})
                continue
            entries.append((provider, EntryOrigin.PREREQUISITE))
            insertions.append({"action": provider, "origin": "prerequisite", "before": aid})
            feats = _apply_optimistic(feats, repertoire[provider])
            if not all_hold(feats, spec.preconditions):
                trims.append({"action": aid, "reason": "precondition_failed_after_prerequisite",
                              "failing": failing})
                continue
        if spec.category is ActionCategory.DESTRUCTIVE and not snapshot_done:
            entries.append((SNAPSHOT_ACTION_ID, EntryOrigin.PRECAUTIONARY))
            insertions.append({"action": SNAPSHOT_ACTION_ID, "origin": "precautionary", "before": aid})
            snapshot_done = True
        entries.append((aid, EntryOrigin.PROPOSED))
        feats = _apply_optimistic(feats, spec)

    if entries:
        entries.append((VERIFY_ACTION_ID, EntryOrigin.POST_EXECUTION))
        insertions.append({"action": VERIFY_ACTION_ID, "origin": "post_execution", "before": None})
    return entries, trims, insertions


def select_action_plan(
    proposals: list[PlanProposal],
    goals: list[Goal],
    roe: RulesOfEngagement,
    ws: WorldState,
    repertoire: dict[str, ActionSpec],
    config: PlannerConfig,
    progression: Sequence[FeatureDelta] = (),
) -> dict[str, Any]:
    """Pick, trim, augment and gate a plan. The returned log carries every
    number needed to recompute the decision; a plan is released when the log
    has `released_entries`, each {action, offset, origin} with the offset the
    sum of the earlier entries' durations."""
    log: dict[str, Any] = {
        "candidates": [],
        "filters": [],
        "trims": [],
        "insertions": [],
        "tie_break": {"used": False},
        "gate": None,
        "risk_weight": config.risk_weight,
        "noise_weight": config.noise_weight,
    }
    survivors: list[PlanProposal] = []
    for prop in proposals:
        violations = plan_roe_violations(prop, repertoire, roe)
        log["candidates"].append({**prop.to_dict(), "roe_ok": not violations, "roe_violations": violations})
        if violations:
            log["filters"].append({"actions": list(prop.actions), "violations": violations})
        else:
            survivors.append(prop)

    if not survivors:
        log["gate"] = {"released": False, "reason": "all_candidates_roe_filtered"}
        return log

    survivors.sort(key=lambda p: (-p.utility, p.actions))
    best = survivors[0]
    if len(survivors) > 1 and survivors[1].utility == best.utility:
        log["tie_break"] = {
            "used": True,
            "kept": list(best.actions),
            "over": list(survivors[1].actions),
            "rule": "lexicographic_action_ids",
        }
    log["winner"] = list(best.actions)

    entries, trims, insertions = _trim_and_augment(best, repertoire, roe, ws)
    log["trims"] = trims
    log["insertions"] = insertions

    plan_ids = [aid for aid, _ in entries if aid not in BUILTIN_ACTIONS]
    inaction_loss = expected_loss(ws, repertoire, goals, config.depth, None, progression)
    plan_loss = expected_loss(ws, repertoire, goals, config.depth, plan_ids, progression)
    released = bool(entries) and (inaction_loss - plan_loss) > 0.0
    log["gate"] = {
        "inaction_loss": inaction_loss,
        "plan_loss": plan_loss,
        "released": released,
    }
    if not released:
        return log

    released_entries = []
    offset = final_risk = 0
    for aid, origin in entries:
        spec = BUILTIN_ACTIONS.get(aid) or repertoire[aid]
        released_entries.append({"action": aid, "offset": offset, "origin": origin.value})
        offset += spec.duration
        final_risk += spec.risk
    # re-verify every ROE clause on the augmented plan before release
    if final_risk > roe.max_plan_risk:
        log["gate"]["released"] = False
        log["gate"]["reason"] = "augmented_plan_exceeds_risk_budget"
        return log
    log["released_entries"] = released_entries
    return log


# -- fast path ------------------------------------------------------------------------

def fast_rule_select(
    ws: WorldState,
    rules: list[ConditionActionRule],
    deadline_ticks: Optional[int],
    roe: RulesOfEngagement,
    repertoire: dict[str, ActionSpec],
) -> tuple[Optional[str], list[dict[str, Any]]]:
    """First matching, ROE-legal rule action under a tight deadline.

    Returns (action_id or None, evaluation log). No search expansions are
    performed; rules are tried in ascending priority order.
    """
    evaluated: list[dict[str, Any]] = []
    if deadline_ticks is None or deadline_ticks >= roe.fast_deadline_ticks:
        return None, evaluated
    for rule in sorted(rules, key=lambda r: r.priority):
        held = all_hold(ws.features, rule.condition)
        spec = repertoire.get(rule.action_id)
        roe_ok = spec is not None and action_roe_ok(spec, roe)
        evaluated.append({"rule": rule.rule_id, "priority": rule.priority,
                          "condition_held": held, "roe_ok": roe_ok})
        if held and roe_ok:
            return rule.action_id, evaluated
    return None, evaluated
