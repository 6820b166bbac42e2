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

from dataclasses import dataclass, field, fields
from typing import Any

from .planning import ConditionActionRule, Goal
from .sensing import Pattern, WorldState, all_hold


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
        """The knowledge a replica starts from: patterns, rules and goals as their
        dataclass fields with lists copied (the tuples in them are never edited),
        in the knowledge base's order, which fast_rule_select keeps between equal
        priorities; effect_stats as [action id, effect index, successes, trials]
        rows, since tuple keys cannot be JSON object keys."""
        return {
            "patterns": [_fields(p) for p in self.patterns.values()],
            "rules": [_fields(r) for r in self.rules.values()],
            "goals": [_fields(g) for g in self.goals],
            "effect_stats": [[*key, *counts] for key, counts in self.effect_stats.items()],
            "pattern_stats": dict(self.pattern_stats),
        }

    @staticmethod
    def from_json(data: dict[str, Any]) -> "KnowledgeBase":
        """The knowledge base `to_json` gave, built on its payload's lists."""
        return KnowledgeBase(
            patterns={p["pattern_id"]: Pattern(**p) for p in data["patterns"]},
            rules={r["rule_id"]: ConditionActionRule(**r) for r in data["rules"]},
            goals=[Goal(**g) for g in data["goals"]],
            effect_stats={(aid, idx): (s, t) for aid, idx, s, t in data["effect_stats"]},
            pattern_stats=data["pattern_stats"],
        )


def _fields(record: Any) -> dict[str, Any]:
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    return {name: list(v) if isinstance(v, list) else v for name, v in values.items()}


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
