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

import math
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Any, Optional, Sequence

from .envsim import EffectDescriptor, sum_in_order
from .errors import ConfigInvalid, canonical_json
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
    total = sum_in_order(g.weight for g in goals)
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
                    except TypeError:  # an unhashable feature value, such as a list
                        goal_ids = goals_held(values)
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

def propose_plans(
    ws: WorldState,
    repertoire: dict[str, ActionSpec],
    goals: list[Goal],
    config: PlannerConfig,
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


# -- threshold cells ------------------------------------------------------------

_CELL_RANGE = 2 ** 53  # every int within it converts to float exactly
_SUM_LIMIT = 512  # past this many sums of its add deltas, a key keeps exact values


def _cell_number(value: Any) -> bool:
    """An int (not a bool) or a float within +-2**53: not NaN, no infinity."""
    return (type(value) is float or type(value) is int) and -_CELL_RANGE <= value <= _CELL_RANGE


def _sums(deltas: list[int], most: int) -> Optional[set[int]]:
    """Every sum of 1 to `most` of `deltas`, repeats allowed, or None past
    _SUM_LIMIT sums. A level that adds no new sum ends it: every later
    level would add the deltas to sums already found."""
    values = set(deltas)
    sums: set[int] = set()
    level = {0}
    for _ in range(most if values else 0):
        level = {s + d for s in level for d in values}
        if level <= sums:
            break
        sums |= level
        if len(sums) > _SUM_LIMIT:
            return None
    return sums


def _scaled(value: Any, bits: int) -> int:
    """`value` (an int or a float) times 2**bits, an int while 2**bits is a
    multiple of the value's power-of-two denominator."""
    numerator, denominator = value.as_integer_ratio()
    return numerator << (bits + 1 - denominator.bit_length())


def danger_intervals(
    repertoire: dict[str, ActionSpec],
    goals: list[Goal],
    config: PlannerConfig,
    progression: Sequence[FeatureDelta] = (),
) -> dict[str, Optional[list[float]]]:
    """Per read key (a feature a goal or precondition names), sorted, the
    start values near which some planner comparison can change outcome, as
    sorted disjoint float intervals flattened to [lo0, hi0, lo1, hi1, ...].
    The gaps between them are the key's cells (see cell_of): two values in
    one cell give every comparison that propose_plans and
    select_action_plan, with this progression, make on the key the same
    outcome. A key with a non-numeric threshold or add delta, or past the
    limits below, gets None: its values key exactly.

    The invariant: the planner reads a feature's start value x only by
    comparing a value derived from it with a threshold t of a goal
    predicate or an action precondition, and every field of the body
    follows from those outcomes and from inputs keyed exactly. Deriving
    adds, left to right, at most L_k = depth * (P + 2) * m_k of the
    repertoire's add deltas on key k (P the longest preparation list, m_k
    the most add deltas on k in one action): a search node applies at most
    depth actions; _trim_and_augment applies, per proposed action, its
    preparations, one prerequisite and the action, and _unique_provider's
    trial of a candidate stands in for that prerequisite; expected_loss
    applies the released entries, at most as many. In expected_loss alone,
    goal predicates first see the progression applied depth times, which
    adds its r_k add deltas on k depth times, start_k in all. Only goal
    predicates read a value the progression moved, so r_k counts only the
    deltas on goal keys: Deliberations drops every other delta before it
    builds a table, and counting one anyway would only widen the intervals.
    A set delta makes every later value independent of x.

    So each interval is c +- eps, rounded outward to floats, for every
    center c = t - s (every t) and c = t - start_k - s (goal thresholds, if
    r_k > 0), with s any exact sum of 1 to L_k repertoire add deltas on k;
    and [t, t] for every t, as a comparison with no addition before it is
    exact.

    The bound eps. Let n_k = depth * r_k + L_k, the most additions between
    x and a comparison, A_k the largest |add delta| on k and T_k the
    largest |t|. Each addition, and at most one conversion of an int
    running value to float, rounds with relative error at most u = 2**-53,
    so a result errs from x + S (S the exact sum added) by at most
    ((1 + u)**(n_k + 1) - 1) * B <= (n_k + 1) * 2**-52 * B, with B = |x| +
    the sum of the |deltas|, while (n_k + 1) * u <= 1/2. Every such chain
    is non-decreasing in x for each type of x (int or float), as rounding
    and int addition are monotone. So it suffices that the nearest value
    x0 of x's type below c - eps compares below t, and the nearest above
    c + eps above it. |x0| <= |c| + eps + 1, |c| <= T_k + n_k * A_k, so B
    <= W_k + eps with W_k = T_k + 1 + 2 * n_k * A_k. eps_k = (n_k + 1) *
    2**-51 * W_k is at least (n_k + 1) * 2**-52 * (W_k + eps_k), and x0 +
    S < t - eps_k then gives a result below t. A key keeps exact values
    where n_k >= 2**20 or W_k > 2**50, which keeps both conditions and
    every value near an interval within +-2**53, where ints are floats.
    """
    preparations = max((len(spec.preparation) for spec in repertoire.values()), default=0)
    reads: dict[str, list[tuple[Any, bool]]] = {}  # key -> (threshold, a goal's)
    for goal in goals:
        for key, _, threshold in goal.predicates:
            reads.setdefault(key, []).append((threshold, True))
    for spec in repertoire.values():
        for key, _, threshold in spec.preconditions:
            reads.setdefault(key, []).append((threshold, False))
    adds: dict[str, list[Any]] = {}
    most: dict[str, int] = {}  # key -> the most add deltas on it in one action
    for spec in repertoire.values():
        counts: dict[str, int] = {}
        for eff in spec.effects:
            for key, op, value in eff.feature_deltas:
                if op == "add":
                    adds.setdefault(key, []).append(value)
                    counts[key] = counts.get(key, 0) + 1
        for key, count in counts.items():
            most[key] = max(most.get(key, 0), count)
    drift: dict[str, list[Any]] = {}
    for key, op, value in progression:
        if op == "add":
            drift.setdefault(key, []).append(value)

    intervals: dict[str, Optional[list[float]]] = dict.fromkeys(sorted(reads))
    for key, thresholds in reads.items():
        numbers = [t for t, _ in thresholds] + adds.get(key, []) + drift.get(key, [])
        if not all(_cell_number(v) for v in numbers):
            continue
        # exact arithmetic on ints: every number is a multiple of 2**-bits
        bits = max(v.as_integer_ratio()[1].bit_length() for v in numbers) - 1
        tops = [(_scaled(t, bits), goal) for t, goal in thresholds]
        deltas = [_scaled(d, bits) for d in adds.get(key, [])]
        drifts = [_scaled(d, bits) for d in drift.get(key, [])]
        steps = config.depth * (preparations + 2) * most.get(key, 0)
        additions = config.depth * len(drifts) + steps
        sums = _sums(deltas, steps)
        width = (max(abs(t) for t, _ in tops) + (1 << bits)
                 + 2 * additions * max((abs(d) for d in deltas + drifts), default=0))
        if sums is None or additions >= 2 ** 20 or width > 2 ** (50 + bits):
            continue
        eps = (additions + 1) * width  # in units of 2**-(bits + 51), as is c << 51
        centers = {t - s for t, _ in tops for s in sums}
        if drifts:
            start = config.depth * sum_in_order(drifts)
            centers.update(t - start - s for t, goal in tops if goal for s in sums | {0})
        # int / int rounds to nearest, so one step outward passes the exact end
        unit = 1 << (bits + 51)
        spans = [(float(t), float(t)) for t, _ in thresholds]
        spans += [(math.nextafter(((c << 51) - eps) / unit, -math.inf),
                   math.nextafter(((c << 51) + eps) / unit, math.inf)) for c in centers]
        flat: list[float] = []
        for lo, hi in sorted(spans):
            if flat and lo <= math.nextafter(flat[-1], math.inf):  # no cell without a float
                flat[-1] = max(flat[-1], hi)
            else:
                flat += [lo, hi]
        intervals[key] = flat
    return intervals


def cell_of(intervals: Optional[list[float]], value: Any) -> Optional[int]:
    """The index of the cell of a key's danger intervals that holds `value`;
    None when the value must key exactly: the key has no intervals, the
    value is not an int or float within +-2**53 (a bool, NaN, an
    infinity), or it lies in an interval."""
    if intervals is None or not _cell_number(value):
        return None
    pos = bisect_left(intervals, value)
    if pos & 1 or pos < len(intervals) and intervals[pos] == value:
        return None
    return pos >> 1


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


# -- the deliberation memo ------------------------------------------------------------

class Deliberations:
    """Decision bodies by the inputs of their search, and cell tables by
    progression, for a repertoire, goals and config that nothing edits."""

    def __init__(self, repertoire: dict[str, ActionSpec], goals: list[Goal],
                 config: PlannerConfig) -> None:
        self.repertoire = repertoire
        self.goals = goals  # their predicates; a runtime's own goals carry its weights
        self.config = config
        self.bodies: dict[tuple, tuple[dict[str, Any], str]] = {}  # key -> body and bytes
        self._cells: dict[tuple, dict[str, Optional[list[float]]]] = {}  # progression -> table
        self._goal_keys = frozenset(pred[0] for goal in goals for pred in goal.predicates)

    def deliberate(self, ws: WorldState, goals: list[Goal], roe: RulesOfEngagement,
                   progression: list[FeatureDelta]) -> tuple[dict[str, Any], str]:
        """The body and canonical bytes the key finds, else a search's, kept if
        the key hashes. Only expected_loss applies the progression, and then
        predict reads goal features alone, so a delta on a key no goal names
        is dropped first: deltas on different keys commute, and the body is
        the same without it."""
        progression = [delta for delta in progression if delta[0] in self._goal_keys]
        try:
            key = self.key(ws, goals, roe, progression)
            found = self.bodies.get(key)
        except TypeError:
            key = found = None
        if found is None:
            body = self.search(ws, goals, roe, progression)
            found = body, canonical_json(body)
            if key is not None:
                self.bodies[key] = found
        return found

    def search(self, ws: WorldState, goals: list[Goal], roe: RulesOfEngagement,
               progression: list[FeatureDelta]) -> dict[str, Any]:
        """The decision body of a fresh search and selection."""
        proposals = propose_plans(ws, self.repertoire, goals, self.config)
        log = select_action_plan(proposals, goals, roe, ws, self.repertoire, self.config,
                                 progression)
        entries = log.get("released_entries")
        return {
            "candidates": log["candidates"],
            "chosen": {"no_action": entries is None, "entries": entries},
            "rationale": {k: v for k, v in log.items() if k != "candidates"},
        }

    def key(self, ws: WorldState, goals: list[Goal], roe: RulesOfEngagement,
            progression: list[FeatureDelta]) -> tuple:
        """Everything the search reads that differs between deliberations:
        each read key of danger_intervals by presence and a value by its cell
        (see there why that suffices) or else exactly, with its type, as
        every other input: goal weights, the ROE clauses selection checks
        and the progression, which deliberate has cut to the deltas on goal
        keys. A new planner input must join the key, and must change only
        through a C2 command or a change that re-runs identify: the runner
        keeps an agent's last decision until one of them happens."""
        steps = tuple((key, op, type(value), value) for key, op, value in progression)
        cells = self._cells.get(steps)
        if cells is None:
            cells = self._cells[steps] = danger_intervals(
                self.repertoire, self.goals, self.config, progression)
        features, reads = ws.features, []
        for key, intervals in cells.items():
            if key in features:
                value = features[key]
                cell = cell_of(intervals, value)
                reads.append((key, type(value), value) if cell is None else (key, cell))
        scalars = (roe.max_plan_risk, roe.destructive_only_on_residence)
        return (tuple(reads), tuple((type(goal.weight), goal.weight) for goal in goals),
                tuple((type(value), value) for value in scalars),
                frozenset(roe.forbidden_categories), steps)


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
