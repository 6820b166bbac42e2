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
under tight deadlines. Selection and the fast path each return the decision
body that the trace logs; Deliberations memoises selection's bodies.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Any, Optional, Sequence

from .envsim import EffectDescriptor, sum_in_order
from .errors import canonical_json
from .sensing import (
    _COMPARATORS,
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
    total = sum_in_order(g.weight for g in goals)  # > 0: the table admits positive weights only
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
_Rows = list[tuple[float, tuple, tuple[str, ...]]]  # (probability, goal-feature values, goal ids)
_Effects = list[tuple[float, float, list[tuple[int, str, Any]]]]  # (p, 1 - p, slot moves)


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

    A distribution is a list of (probability, values, goal ids) rows: values
    holds the features the goal predicates name, in `keys` order, and goal
    ids the goals that hold on them. Rows stay in the order
    itertools.product((False, True), ...) enumerates the uncertain effects,
    first effect slowest, so every probability is the left-to-right product
    of its factors and every per-goal sum adds the same terms in the same
    order, whether a sequence is scored in one go or extended one action at
    a time. Identical rows are never merged, since that would reorder the
    sums.

    One instance serves a whole search, whose repertoire and goals are
    fixed. Each action's effects are prepared once, by _plan. Goal ids are
    looked up, memoised, only when an effect makes a new values tuple; a row
    that an effect leaves alone keeps its parent's.
    """

    def __init__(self, goals: list[Goal], features: dict[str, Any],
                 repertoire: dict[str, ActionSpec]) -> None:
        self.goals = goals
        self.repertoire = repertoire
        self.keys = tuple(dict.fromkeys(pred[0] for g in goals for pred in g.predicates))
        self._slots = {key: i for i, key in enumerate(self.keys)}
        self._held: dict[tuple, tuple[str, ...]] = {}
        self._none_held = {g.goal_id: 0.0 for g in goals}
        self._plans: dict[str, tuple[int, _Effects]] = {}
        base = tuple(features.get(key, _ABSENT) for key in self.keys)
        self.start: _Rows = [(1.0, base, self._goals_held(base))]

    def _plan(self, aid: str) -> tuple[int, _Effects]:
        """The count of `aid`'s uncertain effects, and the (p, 1 - p, slot
        moves) of each effect that can change a row: an effect of
        probability 0 never occurs, and a certain one that moves no slot
        changes nothing."""
        plan = self._plans.get(aid)
        if plan is None:
            uncertain, effects = 0, []
            for eff in self.repertoire[aid].effects:
                p = eff.probability
                moves = [(self._slots[key], op, value) for key, op, value in eff.feature_deltas
                         if key in self._slots]
                if 0.0 < p < 1.0:
                    uncertain += 1
                if p > 0.0 and (p < 1.0 or moves):
                    effects.append((p, 1.0 - p, moves))
            plan = self._plans[aid] = (uncertain, effects)
        return plan

    def extend(self, rows: Optional[_Rows], uncertain: int,
               aid: str) -> tuple[Optional[_Rows], int]:
        """The distribution after `aid`'s effects, and the count of
        uncertain effects so far. Only the rows an effect moves get new
        values and goal ids. Past EXACT_ENUM_LIMIT uncertain effects the rows
        are None and the sequence is scored by sampling."""
        count, effects = self._plan(aid)
        uncertain += count
        if rows is None or uncertain > EXACT_ENUM_LIMIT:
            return None, uncertain
        return self._apply(rows, effects), uncertain

    def _apply(self, rows: _Rows, effects: _Effects) -> _Rows:
        """A certain effect updates every row; an uncertain one with
        probability p splits each row into prob * (1 - p) without it, then
        prob * p with it. Rows of probability 0 are dropped, as enumeration
        skips them."""
        held, goals_held = self._held, self._goals_held
        for p, q, moves in effects:
            split = []
            add = split.append
            for prob, values, goal_ids in rows:
                if p < 1.0:
                    without, prob = prob * q, prob * p
                    if without > 0.0:
                        add((without, values, goal_ids))
                    if not prob > 0.0:
                        continue
                if moves:
                    out = list(values)
                    for slot, op, value in moves:
                        current = out[slot]
                        out[slot] = feature_after_delta(
                            0.0 if current is _ABSENT else current, op, value)
                    values = tuple(out)
                    try:
                        goal_ids = held[values]
                    except KeyError:
                        goal_ids = held[values] = goals_held(values)
                add((prob, values, goal_ids))
            rows = split
        return rows

    def _sample(self, action_ids: Sequence[str]) -> _Rows:
        """SAMPLE_COUNT equally weighted rows, drawn with a generator seeded
        from the action ids."""
        effects = [eff for aid in action_ids for eff in self._plan(aid)[1]]
        rng = Random(zlib.crc32("|".join(action_ids).encode()) ^ 0x5EED)
        _, base, goal_ids = self.start[0]
        start = [(1.0 / SAMPLE_COUNT, base, goal_ids)]
        rows: _Rows = []
        for _ in range(SAMPLE_COUNT):
            rows += self._apply(start, [(1.0, 0.0, moves) for p, _, moves in effects
                                        if p >= 1.0 or rng.random() < p])
        return rows

    def satisfaction(self, rows: Optional[_Rows], action_ids: Sequence[str]) -> dict[str, float]:
        """Per-goal probability mass of the rows that satisfy the goal, added
        up in row order from the goal ids each row carries; with no rows,
        that of the sampled outcomes of `action_ids`."""
        if rows is None:
            rows = self._sample(action_ids)
        satisfaction = self._none_held.copy()
        for prob, _, goal_ids in rows:
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
    outcomes = _Outcomes(goals, features, repertoire)
    rows: Optional[_Rows] = outcomes.start
    uncertain = 0
    for aid in action_ids:
        rows, uncertain = outcomes.extend(rows, uncertain, aid)
    return outcomes.satisfaction(rows, action_ids)


def _proposal(
    action_ids: tuple[str, ...],
    sat: dict[str, float],
    goals: list[Goal],
    config: PlannerConfig,
    risk_total: float,
    noise_total: float,
) -> PlanProposal:
    benefit = sum_in_order(g.weight * sat[g.goal_id] for g in goals)
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
    return _proposal(tuple(action_ids), sat, goals, config,
                     sum_in_order(repertoire[a].risk for a in action_ids),
                     sum_in_order(signed_noise(repertoire[a]) for a in action_ids))


# -- proposal search --------------------------------------------------------------

@dataclass
class Visits:
    """The action sequences after which a search and its selection read
    features, each standing for the belief copy or outcome rows it evolves;
    Deliberations derives their comparisons from them."""

    expanded: list[tuple[str, ...]] = field(default_factory=list)  # the search's frontier nodes
    walked: tuple[str, ...] = ()  # the trim walk's applied entries, which the gate weighs
    trials: list[tuple[str, ...]] = field(default_factory=list)  # walk prefixes a provider was tried at


def propose_plans(
    ws: WorldState,
    repertoire: dict[str, ActionSpec],
    goals: list[Goal],
    config: PlannerConfig,
    visits: Optional[Visits] = None,
) -> list[PlanProposal]:
    """Bounded best-first search over action sequences of length <= depth.

    An action extends a sequence iff its preconditions hold on the belief
    copy evolved by optimistically applying every prior effect (probability
    ignored). The beam keeps the best `beam` nodes per level by (utility
    desc, action-id sequence asc). Returns at most `beam` proposals, best
    first, with the empty plan always included as the baseline candidate.

    A node costs only its new action and is scored exactly as
    score_sequence scores its sequence. Its rows extend its parent's by the
    action's prepared effects (see _Outcomes). Its risk and noise totals add
    the action's risk and signed noise to its parent's, from the root's int
    0: the additions sum_in_order makes. Its evolved belief copy is built only
    when it enters the next frontier, since only frontier nodes expand.
    `visits`, if given, gets the sequence of every node expanded.
    """
    outcomes = _Outcomes(goals, ws.features, repertoire)
    empty = _proposal((), outcomes.satisfaction(outcomes.start, ()), goals, config, 0, 0)
    candidates: dict[tuple[str, ...], PlanProposal] = {(): empty}
    # a node: (its proposal, its parent's evolved features, its action, its
    # outcome rows, its uncertain effects)
    frontier: list[tuple[PlanProposal, dict[str, Any], Optional[ActionSpec],
                         Optional[_Rows], int]] = [(empty, ws.features, None, outcomes.start, 0)]
    order = sorted(repertoire)

    for _ in range(config.depth):
        if visits is not None:
            visits.expanded += [node[0].actions for node in frontier]
        level = []
        for parent, feats, last, rows, uncertain in frontier:
            if last is not None:
                feats = _apply_optimistic(feats, last)
            for aid in order:
                spec = repertoire[aid]
                if spec.preconditions and not all_hold(feats, spec.preconditions):
                    continue
                seq = parent.actions + (aid,)
                new_rows, new_uncertain = outcomes.extend(rows, uncertain, aid)
                proposal = _proposal(seq, outcomes.satisfaction(new_rows, seq), goals, config,
                                     parent.risk_total + spec.risk,
                                     parent.noise_total + signed_noise(spec))
                candidates[seq] = proposal
                level.append((proposal, feats, spec, new_rows, new_uncertain))
        level.sort(key=lambda node: (-node[0].utility, node[0].actions))
        frontier = level[: config.beam]

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
    loss = 1.0 - sum_in_order(g.weight * sat[g.goal_id] for g in goals)
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
    visits: Optional[Visits],
) -> tuple[list[tuple[str, EntryOrigin]], list[dict[str, Any]], list[dict[str, Any]]]:
    feats = ws.features
    entries: list[tuple[str, EntryOrigin]] = []
    trims: list[dict[str, Any]] = []
    insertions: list[dict[str, Any]] = []
    snapshot_done = False

    for aid in proposal.actions:
        spec = repertoire[aid]
        for prep_id in spec.preparation:  # _cross_rules admits repertoire actions only
            prep = repertoire[prep_id]
            if not action_roe_ok(prep, roe):
                continue
            if all_hold(feats, prep.preconditions):
                entries.append((prep_id, EntryOrigin.PREPARATORY))
                insertions.append({"action": prep_id, "origin": "preparatory", "before": aid})
                feats = _apply_optimistic(feats, prep)
        if not all_hold(feats, spec.preconditions):
            if visits is not None:
                visits.trials.append(tuple(a for a, _ in entries if a not in BUILTIN_ACTIONS))
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
    visits: Optional[Visits] = None,
) -> dict[str, Any]:
    """Pick, trim, augment and gate a plan; return the decision body the
    trace logs: the candidates, what was chosen and a rationale that carries
    every number needed to recompute the choice. A released plan's entries,
    each {action, offset, origin} with the offset the sum of the earlier
    entries' durations, are `chosen.entries` and the rationale's
    `released_entries`. The empty plan is always among the proposals (see
    propose_plans) and always passes the ROE, so there is always a winner
    and a gate. `visits`, if given, gets the trim walk's applied entries,
    which the gate weighs, and its provider trials."""
    candidates: list[dict[str, Any]] = []
    rationale: dict[str, Any] = {
        "filters": [],
        "tie_break": {"used": False},
        "risk_weight": config.risk_weight,
        "noise_weight": config.noise_weight,
    }
    body = {"candidates": candidates, "chosen": {"no_action": True, "entries": None},
            "rationale": rationale}
    survivors: list[PlanProposal] = []
    for prop in proposals:
        violations = plan_roe_violations(prop, repertoire, roe)
        candidates.append({**prop.to_dict(), "roe_ok": not violations, "roe_violations": violations})
        if violations:
            rationale["filters"].append({"actions": list(prop.actions), "violations": violations})
        else:
            survivors.append(prop)

    survivors.sort(key=lambda p: (-p.utility, p.actions))
    best = survivors[0]
    if len(survivors) > 1 and survivors[1].utility == best.utility:
        rationale["tie_break"] = {
            "used": True,
            "kept": list(best.actions),
            "over": list(survivors[1].actions),
            "rule": "lexicographic_action_ids",
        }
    rationale["winner"] = list(best.actions)

    entries, rationale["trims"], rationale["insertions"] = _trim_and_augment(
        best, repertoire, roe, ws, visits)
    plan_ids = [aid for aid, _ in entries if aid not in BUILTIN_ACTIONS]
    if visits is not None:
        visits.walked = tuple(plan_ids)
    inaction_loss = expected_loss(ws, repertoire, goals, config.depth, None, progression)
    plan_loss = expected_loss(ws, repertoire, goals, config.depth, plan_ids, progression)
    # with no entries the two losses are the same float
    gate = rationale["gate"] = {"inaction_loss": inaction_loss, "plan_loss": plan_loss,
                                "released": (inaction_loss - plan_loss) > 0.0}
    if not gate["released"]:
        return body

    released_entries = []
    offset = final_risk = 0
    for aid, origin in entries:
        spec = BUILTIN_ACTIONS.get(aid) or repertoire[aid]
        released_entries.append({"action": aid, "offset": offset, "origin": origin.value})
        offset += spec.duration
        final_risk += spec.risk
    # re-verify every ROE clause on the augmented plan before release
    if final_risk > roe.max_plan_risk:
        gate["released"] = False
        gate["reason"] = "augmented_plan_exceeds_risk_budget"
        return body
    body["chosen"] = {"no_action": False, "entries": released_entries}
    rationale["released_entries"] = released_entries
    return body


# -- the deliberation memo ------------------------------------------------------------

_Chain = tuple[tuple[str, type, Any], ...]  # (op, type, value) of each delta, in order applied
_Chains = frozenset[_Chain]


@dataclass
class _Entry:
    """A decision body, its bytes and what its search compared: each read
    key by its start value, or its absence, and each threshold's outcome on
    it; per key, the outcomes after a delta, derived from the visits when a
    lookup first needs them; and the ROE categories tested, with the
    forbidden ones among them."""

    body: dict[str, Any]
    encoded: str
    starts: dict[str, tuple[Any, list[bool]]]
    tested: frozenset[str]
    forbidden: frozenset[str]
    visits: Visits
    drift: dict[str, _Chain]  # the gate's progression, `depth` times, per key
    reads: dict[str, list[tuple[_Chain, list[bool]]]] = field(default_factory=dict)


class Deliberations:
    """Decision bodies by the comparisons their search made, for a
    repertoire, goals and config that nothing edits.

    Every feature is an int or a float (sensing.update_world_state writes
    numbers only), and the search reads one, or its absence, only by
    comparing it with a goal or precondition threshold after a chain of
    deltas: a sequence's optimistic effects (propose_plans,
    _trim_and_augment) or an outcome row's effects after the gate's
    progression (_Outcomes). An entry keeps its search's Visits, from which
    the memo derives every (key, chain) the search may have compared, with
    each threshold's outcome. A lookup replays them on new features by the
    same operations; if every outcome repeats, the search would take every
    branch it took and give the same body. The rest of what the search reads
    keys a bucket exactly: goal weights, the ROE scalars and the
    progression; the ROE categories selection tested are replayed too. A
    new planner read must be derived here or join the bucket, and must
    change only through a C2 command or a change that re-runs identify: the
    runner keeps an agent's last decision until one of them happens."""

    def __init__(self, repertoire: dict[str, ActionSpec], goals: list[Goal],
                 config: PlannerConfig) -> None:
        self.repertoire = repertoire
        self.config = config
        self.bodies: dict[tuple, list[_Entry]] = {}  # bucket -> entries, oldest first
        # the goals' predicates; a runtime's own goals carry its weights
        reads = [pred for goal in goals for pred in goal.predicates]
        self._goal_keys = {pred[0] for pred in reads}
        reads += [pred for spec in repertoire.values() for pred in spec.preconditions]
        self.thresholds: dict[str, dict[tuple[str, Any], None]] = {}  # key -> (cmp, threshold)
        for key, cmp, threshold in reads:
            self.thresholds.setdefault(key, {})[cmp, threshold] = None
        self._read_keys = sorted(self.thresholds)
        self._compares = {key: [(_COMPARATORS[cmp], t) for cmp, t in known]
                          for key, known in self.thresholds.items()}
        self._chains: dict[tuple[str, ...], dict[str, _Chains]] = {(): {}}  # see _chains_of
        self._moves: dict[str, _Chains] = {}  # key -> the chains of each action alone

    def deliberate(self, ws: WorldState, goals: list[Goal], roe: RulesOfEngagement,
                   progression: list[FeatureDelta]) -> tuple[dict[str, Any], str]:
        """The body and canonical bytes of the newest entry of the bucket
        that replays, else a search's, which joins the bucket. Only
        expected_loss applies the progression, and then predict reads goal
        features alone, so a delta on a key no goal names is dropped first:
        deltas on different keys commute, and the body is the same without
        it."""
        progression = [delta for delta in progression if delta[0] in self._goal_keys]
        bucket = self.bodies.setdefault(self.key(goals, roe, progression), [])
        for entry in reversed(bucket):
            if self._replays(entry, ws.features, roe):
                return entry.body, entry.encoded
        visits = Visits()
        body = self.search(ws, goals, roe, progression, visits)
        encoded = canonical_json(body)
        # selection tested the ROE categories of every candidate's actions,
        # of the winner's preparations and, after a provider trial, of every
        # action
        tested = {aid for proposal in body["candidates"] for aid in proposal["actions"]}
        tested.update(prep for aid in body["rationale"]["winner"]
                      for prep in self.repertoire[aid].preparation)
        tested = {self.repertoire[aid].category.value
                  for aid in (self.repertoire if visits.trials else tested)}
        starts = {key: (value, self._outcomes(key, value, ())) for key in self._read_keys
                  for value in [ws.features.get(key, _ABSENT)]}
        bucket.append(_Entry(body, encoded, starts, frozenset(tested),
                             frozenset(tested & roe.forbidden_categories), visits,
                             _runs(progression * self.config.depth)))
        return body, encoded

    def search(self, ws: WorldState, goals: list[Goal], roe: RulesOfEngagement,
               progression: list[FeatureDelta],
               visits: Optional[Visits] = None) -> dict[str, Any]:
        """The decision body of a fresh search and selection."""
        proposals = propose_plans(ws, self.repertoire, goals, self.config, visits)
        return select_action_plan(proposals, goals, roe, ws, self.repertoire, self.config,
                                  progression, visits)

    def key(self, goals: list[Goal], roe: RulesOfEngagement,
            progression: list[FeatureDelta]) -> tuple:
        """The bucket: what the search reads exactly, each with its type.
        That is goal weights, the ROE clauses selection checks but its
        categories, and the progression, which deliberate has cut to the
        deltas on goal keys."""
        scalars = (roe.max_plan_risk, roe.destructive_only_on_residence)
        return (tuple((type(goal.weight), goal.weight) for goal in goals),
                tuple((type(value), value) for value in scalars),
                tuple((key, op, type(value), value) for key, op, value in progression))

    def _replays(self, entry: _Entry, features: dict[str, Any], roe: RulesOfEngagement) -> bool:
        """Whether every comparison of the entry gives its outcome on
        `features`: those on the start values first, then, derived only if
        they all repeat, those after a delta. A value equal to the start,
        type and all, repeats them all: only a zero's sign can differ, and no
        comparison tells it, nor after adds."""
        if entry.tested & roe.forbidden_categories != entry.forbidden:
            return False
        changed = [(key, value) for key, (start, _) in entry.starts.items()
                   if not ((value := features.get(key, _ABSENT)) is start
                           or (type(value) is type(start) and value == start))]
        try:
            if any(self._outcomes(key, value, ()) != entry.starts[key][1]
                   for key, value in changed):
                return False
            return all(self._outcomes(key, value, chain) == outcomes for key, value in changed
                       for chain, outcomes in self.comparisons(entry, key))
        except ArithmeticError:  # too many chains, or an int too large to add a float to
            return False

    def comparisons(self, entry: _Entry, key: str) -> list[tuple[_Chain, list[bool]]]:
        """The entry's comparisons on `key` after a delta, derived once: the
        chains of each one-step extension of an expanded node (so of every
        scored sequence), of the walk (so of its prefixes), of each provider
        trial's one-step extensions, and of the walk after the gate's drift.
        Each chain meets every threshold on the key."""
        found = entry.reads.get(key)
        if found is None:
            visits, moves = entry.visits, self._moves.get(key)
            if moves is None:
                moves = self._moves[key] = frozenset().union(
                    *(self._chains_of((aid,)).get(key, _EMPTY) for aid in self.repertoire))
            chains = set(self._chains_of(visits.walked).get(key, _EMPTY))
            for seq in visits.expanded + visits.trials:
                chains |= _product(self._chains_of(seq).get(key, _EMPTY), moves)
            if key in entry.drift:
                chains |= _product(_product(_EMPTY, (entry.drift[key],)),
                                   self._chains_of(visits.walked).get(key, _EMPTY))
            start = entry.starts[key][0]
            found = entry.reads[key] = [(chain, self._outcomes(key, start, chain))
                                        for chain in sorted(chains - _EMPTY, key=len)]
        return found

    def _outcomes(self, key: str, value: Any, chain: _Chain) -> list[bool]:
        """Each threshold's outcome on `key`'s value after `chain`, by the
        operations the planner applies: an absent key fails every comparison
        if the chain is empty, and else starts at 0.0, as in
        apply_feature_delta and _Outcomes."""
        compares = self._compares[key]
        if value is _ABSENT:
            if not chain:
                return [False] * len(compares)
            value = 0.0
        for op, _, delta in chain:
            value = feature_after_delta(value, op, delta)
        return [compare(value, threshold) for compare, threshold in compares]

    def _chains_of(self, seq: tuple[str, ...]) -> dict[str, _Chains]:
        """On each key, every chain an optimistic copy or an outcome row of
        `seq` can pass through: every ordered subset of its effects' runs on
        the key, whatever their probabilities."""
        found = self._chains.get(seq)
        if found is None:
            found = dict(self._chains_of(seq[:-1]))
            for eff in self.repertoire[seq[-1]].effects:
                for key, run in _runs(eff.feature_deltas).items():
                    chains = found.get(key, _EMPTY)
                    found[key] = chains | _product(chains, (run,))
            self._chains[seq] = found
        return found


_EMPTY: _Chains = frozenset({()})


def _runs(deltas: Sequence[FeatureDelta]) -> dict[str, _Chain]:
    """Each key the deltas move, with its deltas in order."""
    runs: dict[str, _Chain] = {}
    for key, op, value in deltas:
        runs[key] = runs.get(key, ()) + ((op, type(value), value),)
    return runs


def _product(chains: _Chains, runs: Sequence[_Chain] | _Chains) -> _Chains:
    """Every chain followed by every run but one with a `set` delta, past
    which no value hangs on the start; more than the exact enumeration's
    rows are too many."""
    product = frozenset(chain + run for run in runs if all(op != "set" for op, _, _ in run)
                        for chain in chains)
    if len(product) > 2 ** EXACT_ENUM_LIMIT:
        raise OverflowError("too many outcome chains")
    return product


# -- fast path ------------------------------------------------------------------------

def fast_rule_select(
    ws: WorldState,
    rules: list[ConditionActionRule],
    deadline_ticks: Optional[int],
    roe: RulesOfEngagement,
    repertoire: dict[str, ActionSpec],
) -> Optional[dict[str, Any]]:
    """The decision body of the first matching, ROE-legal rule action under
    a tight deadline, or None if no rule fires.

    No search expansions are performed; rules are tried in ascending
    priority order, and the body's rationale logs each one tried.
    """
    if deadline_ticks is None or deadline_ticks >= roe.fast_deadline_ticks:
        return None
    evaluated: list[dict[str, Any]] = []
    for rule in sorted(rules, key=lambda r: r.priority):
        held = all_hold(ws.features, rule.condition)
        roe_ok = action_roe_ok(repertoire[rule.action_id], roe)  # a rule names a repertoire action
        evaluated.append({"rule": rule.rule_id, "priority": rule.priority,
                          "condition_held": held, "roe_ok": roe_ok})
        if held and roe_ok:
            aid = rule.action_id
            entry = {"action": aid, "offset": 0, "origin": EntryOrigin.PROPOSED.value}
            return {"candidates": [],
                    "chosen": {"no_action": False, "action_id": aid, "entries": [entry]},
                    "rationale": {"deadline_ticks": deadline_ticks,
                                  "fast_deadline_ticks": roe.fast_deadline_ticks,
                                  "rules_evaluated": evaluated}}
    return None
