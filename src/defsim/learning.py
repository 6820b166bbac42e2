"""Reward computation, count-based effect statistics and pattern-confidence
reweighting.

Feedback becomes propositions, each applied to the knowledge base as it
comes, with no validation gate: effect checks update success/trial counts
(read back as Laplace-smoothed estimates), and end-of-episode assessment
outcomes of a training scenario set a pattern's confidence to its
confirmed/matched ratio. The planner still plans with the effect
probabilities the scenario declares, not with these estimates.
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
        for spec in data["patterns"]:
            kb.patterns[spec["id"]] = Pattern(
                pattern_id=spec["id"],
                predicates=[tuple(x) for x in spec["predicates"]],
                severity=spec["severity"],
                confidence=spec["confidence"],
                progression=[tuple(x) for x in spec["progression"]],
                deadline_ticks=spec["deadline_ticks"],
            )
        for key, counts in data["effect_stats"].items():
            aid, idx = key.rsplit(":", 1)
            kb.effect_stats[(aid, int(idx))] = (counts[0], counts[1])
        for pid, counts in data["pattern_stats"].items():
            kb.pattern_stats[pid] = (counts[0], counts[1])
        for spec in data["rules"]:
            kb.rules[spec["rule_id"]] = ConditionActionRule(
                rule_id=spec["rule_id"],
                condition=[tuple(x) for x in spec["condition"]],
                action_id=spec["action_id"],
                priority=spec["priority"],
            )
        for spec in data["goals"]:
            kb.goals.append(Goal(spec["goal_id"], [tuple(x) for x in spec["predicates"]],
                                 spec["weight"]))
        return kb


@dataclass(frozen=True)
class Proposition:
    kind: str  # effect_stat_update | pattern_confidence_update
    subject: tuple[str, int] | str  # (action id, effect index) | pattern id
    held: bool  # the effect was observed | the pattern was confirmed


def reward(goals: list[Goal], ws: WorldState) -> float:
    """Distance between goals and achievements: 0 when every goal predicate
    holds, -1 when none does, weighted in between. Normalized weights can
    accumulate a few ulps past 1, so the sum is clamped to the domain."""
    value = 0.0
    for g in goals:
        if not all_hold(ws.features, g.predicates):
            value -= g.weight
    return max(-1.0, value)


def learn(effect_checks: list[tuple[str, int, bool]],
          assessment_outcomes: list[tuple[str, bool]]) -> list[Proposition]:
    """Turn (action id, effect index, held) checks and (pattern id, confirmed)
    outcomes into propositions."""
    return ([Proposition("effect_stat_update", (action_id, index), held)
             for action_id, index, held in effect_checks]
            + [Proposition("pattern_confidence_update", pattern_id, confirmed)
               for pattern_id, confirmed in assessment_outcomes])


def apply_proposition(kb: KnowledgeBase, proposition: Proposition) -> None:
    if proposition.kind == "effect_stat_update":
        kb.note_effect_outcome(*proposition.subject, proposition.held)
    else:  # pattern_confidence_update, the other kind learn makes
        kb.note_pattern_outcome(proposition.subject, proposition.held)
