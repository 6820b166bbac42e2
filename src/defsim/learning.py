"""Reward computation, count-based effect statistics and pattern-confidence
reweighting.

Feedback becomes propositions, each applied to the knowledge base once per
observation id, with no validation gate: effect outcomes update
success/trial counts (read back as Laplace-smoothed estimates), and
end-of-episode assessment outcomes of a training scenario set a pattern's
confidence to its confirmed/matched ratio. The planner still plans with the
effect probabilities the scenario declares, not with these estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import SchemaMismatch
from .planning import ConditionActionRule, Goal
from .sensing import Pattern, WorldState, all_hold

KB_SCHEMA_VERSION = 1


@dataclass
class KnowledgeBase:
    patterns: dict[str, Pattern] = field(default_factory=dict)
    effect_stats: dict[tuple[str, int], tuple[int, int]] = field(default_factory=dict)
    rules: dict[str, ConditionActionRule] = field(default_factory=dict)
    goals: list[Goal] = field(default_factory=list)
    pattern_stats: dict[str, tuple[int, int]] = field(default_factory=dict)  # (confirmed, matched)
    applied_observations: set[str] = field(default_factory=set)
    pattern_version: int = 0  # advanced by each write to a pattern

    def estimate(self, action_id: str, effect_index: int) -> float:
        """Laplace-smoothed success probability; 0.5 with zero trials."""
        successes, trials = self.effect_stats.get((action_id, effect_index), (0, 0))
        return (successes + 1) / (trials + 2)

    def note_effect_outcome(self, action_id: str, effect_index: int, observed: bool) -> None:
        successes, trials = self.effect_stats.get((action_id, effect_index), (0, 0))
        self.effect_stats[(action_id, effect_index)] = (successes + int(observed), trials + 1)

    def note_pattern_outcome(self, pattern_id: str, confirmed: bool) -> None:
        c, m = self.pattern_stats.get(pattern_id, (0, 0))
        c, m = c + int(confirmed), m + 1
        self.pattern_stats[pattern_id] = (c, m)
        if pattern_id in self.patterns:
            self.patterns[pattern_id].confidence = c / m
            self.pattern_version += 1

    def to_json(self) -> dict[str, Any]:
        """Every field an episode reads, patterns and rules in the knowledge
        base's own order: fast_rule_select keeps it between equal priorities."""
        return {
            "schema_version": KB_SCHEMA_VERSION,
            "patterns": [
                {
                    "id": p.pattern_id,
                    "predicates": [list(x) for x in p.predicates],
                    "severity": p.severity,
                    "confidence": p.confidence,
                    "progression": [list(x) for x in p.progression],
                    "deadline_ticks": p.deadline_ticks,
                }
                for p in self.patterns.values()
            ],
            "effect_stats": {
                f"{aid}:{idx}": list(counts)
                for (aid, idx), counts in sorted(self.effect_stats.items())
            },
            "pattern_stats": {pid: list(counts)
                              for pid, counts in sorted(self.pattern_stats.items())},
            "rules": [
                {
                    "rule_id": r.rule_id,
                    "condition": [list(x) for x in r.condition],
                    "action_id": r.action_id,
                    "priority": r.priority,
                }
                for r in self.rules.values()
            ],
            "goals": [
                {"goal_id": g.goal_id, "predicates": [list(x) for x in g.predicates],
                 "weight": g.weight}
                for g in self.goals
            ],
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "KnowledgeBase":
        version = data.get("schema_version")
        if version != KB_SCHEMA_VERSION:
            raise SchemaMismatch(
                f"knowledge base schema_version {version!r}, expected {KB_SCHEMA_VERSION}")
        kb = KnowledgeBase()
        for spec in data.get("patterns", []):
            kb.patterns[spec["id"]] = Pattern(
                pattern_id=spec["id"],
                predicates=[tuple(x) for x in spec["predicates"]],
                severity=spec["severity"],
                confidence=spec["confidence"],
                progression=[tuple(x) for x in spec.get("progression", [])],
                deadline_ticks=spec.get("deadline_ticks"),
            )
        for key, counts in data.get("effect_stats", {}).items():
            aid, idx = key.rsplit(":", 1)
            kb.effect_stats[(aid, int(idx))] = (counts[0], counts[1])
        for pid, counts in data.get("pattern_stats", {}).items():  # absent before it was written
            kb.pattern_stats[pid] = (counts[0], counts[1])
        for spec in data.get("rules", []):
            kb.rules[spec["rule_id"]] = ConditionActionRule(
                rule_id=spec["rule_id"],
                condition=[tuple(x) for x in spec["condition"]],
                action_id=spec["action_id"],
                priority=spec["priority"],
            )
        for spec in data.get("goals", []):
            kb.goals.append(Goal(spec["goal_id"], [tuple(x) for x in spec["predicates"]],
                                 spec["weight"]))
        return kb


@dataclass(frozen=True)
class EffectObservation:
    observation_id: str
    action_id: str
    effect_index: int
    observed: bool


@dataclass(frozen=True)
class AssessmentObservation:
    observation_id: str
    pattern_id: str
    confirmed: bool


@dataclass(frozen=True)
class Proposition:
    kind: str  # effect_stat_update | pattern_confidence_update
    observation_id: str
    payload: dict[str, Any]


def reward(goals: list[Goal], ws: WorldState) -> float:
    """Distance between goals and achievements: 0 when every goal predicate
    holds, -1 when none does, weighted in between. Normalized weights can
    accumulate a few ulps past 1, so the sum is clamped to the domain."""
    value = 0.0
    for g in goals:
        if not all_hold(ws.features, g.predicates):
            value -= g.weight
    return max(-1.0, value)


def learn(
    kb: KnowledgeBase,
    execution_feedback: list[EffectObservation],
    assessment_feedback: list[AssessmentObservation],
) -> list[Proposition]:
    """Turn feedback into idempotent propositions (one per observation id)."""
    propositions: list[Proposition] = []
    for obs in execution_feedback:
        propositions.append(Proposition(
            kind="effect_stat_update",
            observation_id=obs.observation_id,
            payload={"action_id": obs.action_id, "effect_index": obs.effect_index,
                     "observed": obs.observed},
        ))
    for obs in assessment_feedback:
        propositions.append(Proposition(
            kind="pattern_confidence_update",
            observation_id=obs.observation_id,
            payload={"pattern_id": obs.pattern_id, "confirmed": obs.confirmed},
        ))
    return propositions


def apply_proposition(kb: KnowledgeBase, proposition: Proposition) -> bool:
    """Apply once per observation id; a repeat application is a no-op."""
    if proposition.observation_id in kb.applied_observations:
        return False
    kb.applied_observations.add(proposition.observation_id)
    payload = proposition.payload
    if proposition.kind == "effect_stat_update":
        kb.note_effect_outcome(payload["action_id"], payload["effect_index"], payload["observed"])
    else:  # pattern_confidence_update, the other kind learn makes
        kb.note_pattern_outcome(payload["pattern_id"], payload["confirmed"])
    return True

