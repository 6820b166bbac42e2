"""Plan execution: effector, execution/effects monitoring, adjustment, and
the agent's own lifecycle state (detectability, fail-safe). An agent reaches
the destroyed mode only when malware kills it; the episode loop records that.

Plans run strictly sequentially. Every action's noise raises detectability
(camouflage lowers it by its configured reduction); failures and unmet
effect expectations surface as deviations, which the adjustment ladder
handles: retry while retries remain, then substitute a same-category
action, then hand control back to planning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from random import Random
from typing import Any, Callable, Optional

from .envsim import EffectDescriptor, Environment, SnapshotToken, clamp01
from .errors import AuthorityNotHeld, ModeForbidden, UnknownEntity
from .planning import (
    ActionCategory,
    ActionSpec,
    BUILTIN_ACTIONS,
    RulesOfEngagement,
    action_roe_ok,
    signed_noise,
)
from .sensing import WorldState, all_hold

DEFAULT_MAX_RETRIES = 2


class ActionStatus(str, Enum):
    IN_PROGRESS = "in_progress"
    DONE = "done"
    FAILED = "failed"


class AgentMode(str, Enum):
    NORMAL = "normal"
    FAIL_SAFE = "fail_safe"
    DESTROYED = "destroyed"


class Authority(str, Enum):
    AGENT = "agent"
    REMOTE_C2 = "remote_c2"


@dataclass
class AgentState:
    agent_id: str
    host_id: str
    detectability: float = 0.1
    mode: AgentMode = AgentMode.NORMAL
    authority: Authority = Authority.AGENT
    snapshot: Optional[SnapshotToken] = None  # the latest, which the restore builtin rolls back to


# a trace event of the tick: its kind and payload
Event = tuple[str, dict[str, Any]]


@dataclass
class ExecutionRecord:
    action_id: str
    entry_index: int
    status: ActionStatus
    started_tick: int
    finished_tick: Optional[int] = None
    effects_checked: bool = False
    adjusted: bool = False


@dataclass
class Deviation:
    kind: str  # failed | overdue | effect_unmet
    action_id: str
    entry_index: int
    detail: str = ""
    probability: Optional[float] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "deviation_kind": self.kind,
            "action_id": self.action_id,
            "entry_index": self.entry_index,
            "detail": self.detail,
            "probability": self.probability,
        }


@dataclass
class AdjustmentDecision:
    kind: str  # retry | substitute | replan
    substitute_action_id: Optional[str] = None


@dataclass
class PlanExecution:
    entries: list[dict[str, Any]]  # the released entries: action, offset, origin
    records: list[ExecutionRecord] = field(default_factory=list)
    cursor: int = 0

    def active_record(self) -> Optional[ExecutionRecord]:
        if self.records and self.records[-1].status is ActionStatus.IN_PROGRESS:
            return self.records[-1]
        return None

    def halted(self) -> bool:
        """A failed record awaits the adjuster."""
        return bool(
            self.records
            and self.records[-1].status is ActionStatus.FAILED
            and not self.records[-1].adjusted
        )

    def finished(self) -> bool:
        return (
            self.cursor >= len(self.entries)
            and self.active_record() is None
            and not self.halted()
        )


def _lookup(action_id: str, repertoire: dict[str, ActionSpec]) -> ActionSpec:
    """A plan entry's spec: every entry names a builtin or a repertoire action."""
    return BUILTIN_ACTIONS.get(action_id) or repertoire[action_id]


def resolve_self(effect: EffectDescriptor, host_id: str) -> EffectDescriptor:
    """The effect with the host name `$self`, not an id like `h$self`, as `host_id`."""
    kind, *names = effect.target.split(":")
    if names[0] == "$self":
        return replace(effect, target=":".join((kind, host_id, *names[1:])))
    return effect


def execute_step(
    pe: PlanExecution,
    env: Environment,
    agent_state: AgentState,
    tick: int,
    repertoire: dict[str, ActionSpec],
    rng: Random,
    propagate: Callable[[ActionSpec], bool],
) -> list[Event]:
    """Start or advance the next scheduled entry; one entry per tick.

    Effects apply on completion through env.apply_effect, each drawn
    independently from the seeded stream; an UnknownEntity from a stale
    target marks the record failed. Detectability bookkeeping happens at
    start. A failed record halts the plan until the adjuster rules. The
    propagate builtin calls `propagate`, which says whether it installed a
    replica. Returns the tick's trace events in trace order:
    agent.action_started, then agent.action_done or agent.action_failed,
    then the completion's changes: env.snapshot, env.restore, or an
    env.effect, whose payload is the apply_effect outcome, per applied effect.
    """
    if agent_state.mode is AgentMode.DESTROYED:
        raise ModeForbidden("agent destroyed")
    if agent_state.authority is not Authority.AGENT:
        raise AuthorityNotHeld("authority held by remote center")
    if pe.halted():
        return []

    events: list[Event] = []
    rec = pe.active_record()
    if rec is None:
        if pe.cursor >= len(pe.entries):
            return []
        action_id = pe.entries[pe.cursor]["action"]
        spec = _lookup(action_id, repertoire)
        if spec.category is ActionCategory.DESTRUCTIVE and agent_state.mode is AgentMode.FAIL_SAFE:
            raise ModeForbidden(f"destructive action {action_id!r} forbidden in fail_safe")
        rec = ExecutionRecord(action_id, pe.cursor, ActionStatus.IN_PROGRESS, started_tick=tick)
        pe.records.append(rec)
        agent_state.detectability = clamp01(agent_state.detectability + signed_noise(spec))
        events.append(("agent.action_started", {"action": action_id, "entry_index": rec.entry_index,
                                                "detectability": agent_state.detectability}))
    else:
        spec = _lookup(rec.action_id, repertoire)

    if tick >= rec.started_tick + spec.duration - 1:
        changes = _complete(rec, spec, env, agent_state, tick, rng, propagate)
        pe.cursor = rec.entry_index + 1 if rec.status is ActionStatus.DONE else rec.entry_index
        # the status values name the events: agent.action_done, agent.action_failed
        events.append((f"agent.action_{rec.status.value}",
                       {"action": rec.action_id, "entry_index": rec.entry_index}))
        events += changes
    return events


def _complete(
    rec: ExecutionRecord,
    spec: ActionSpec,
    env: Environment,
    agent_state: AgentState,
    tick: int,
    rng: Random,
    propagate: Callable[[ActionSpec], bool],
) -> list[Event]:
    """Finish `rec`, set its status and return the changes it made."""
    rec.finished_tick = tick
    rec.status = ActionStatus.DONE
    if spec.builtin == "snapshot":
        agent_state.snapshot = token = env.snapshot(agent_state.host_id)
        return [("env.snapshot", {"host": token.host_id, "token": token.token_id})]
    if spec.builtin == "restore":
        if agent_state.snapshot is None:
            rec.status = ActionStatus.FAILED
            return []
        return [("env.restore", env.restore(agent_state.snapshot))]
    if spec.builtin is not None:  # verify or propagate: the schema admits no other builtin
        if spec.builtin == "propagate" and not propagate(spec):
            rec.status = ActionStatus.FAILED
        return []

    changes: list[Event] = []
    for eff in spec.effects:
        # every effect draws, so the stream keeps its place whatever an effect holds
        if rng.random() < eff.probability and eff.env_effect is not None:
            concrete = resolve_self(eff.env_effect, agent_state.host_id)
            try:
                changes.append(("env.effect", env.apply_effect(
                    concrete, cause=f"agent:{agent_state.agent_id}:{spec.action_id}")))
            except UnknownEntity:
                rec.status = ActionStatus.FAILED
    return changes


def monitor_execution(
    records: list[ExecutionRecord],
    tick: int,
    repertoire: dict[str, ActionSpec],
) -> list[Deviation]:
    """A deviation per record whose terminal-or-overdue status is not done."""
    deviations: list[Deviation] = []
    for rec in records:
        if rec.adjusted:
            continue
        if rec.status is ActionStatus.FAILED:
            deviations.append(Deviation("failed", rec.action_id, rec.entry_index,
                                        detail="action failed"))
        elif rec.status is ActionStatus.IN_PROGRESS:
            spec = _lookup(rec.action_id, repertoire)
            if tick >= rec.started_tick + spec.duration:
                deviations.append(Deviation(
                    "overdue", rec.action_id, rec.entry_index,
                    detail=f"in_progress past tick {rec.started_tick + spec.duration - 1}"))
    return deviations


def monitor_effects(
    pe: PlanExecution,
    ws: WorldState,
    repertoire: dict[str, ActionSpec],
) -> tuple[list[Deviation], list[tuple[str, int, bool]]]:
    """Compare each done action's expected-effect predicates against the
    refreshed beliefs; unmet expectations are the warning signs. Returns the
    deviations and every check made, as (action id, effect index, held)."""
    deviations: list[Deviation] = []
    checks: list[tuple[str, int, bool]] = []
    for rec in pe.records:
        if rec.status is not ActionStatus.DONE or rec.effects_checked or rec.adjusted:
            continue
        if rec.finished_tick is None or rec.finished_tick >= ws.tick:
            continue  # beliefs not refreshed since completion yet
        rec.effects_checked = True
        spec = _lookup(rec.action_id, repertoire)
        if spec.builtin is not None:
            continue
        for index, eff in enumerate(spec.effects):
            if eff.expect:
                held = all_hold(ws.features, eff.expect)
                checks.append((rec.action_id, index, held))
                if not held:
                    deviations.append(Deviation(
                        "effect_unmet", rec.action_id, rec.entry_index,
                        detail=f"expected {eff.expect} not observed",
                        probability=eff.probability))
    return deviations, checks


def adjust(
    pe: PlanExecution,
    deviations: list[Deviation],
    repertoire: dict[str, ActionSpec],
    retry_counts: dict[str, int],
    ws: WorldState,
    roe: RulesOfEngagement,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> AdjustmentDecision:
    """Policy ladder for the first deviation: retry while attempts remain,
    else substitute a same-category applicable action, else replan."""
    dev = sorted(deviations, key=lambda d: (d.entry_index, d.kind))[0]
    for rec in pe.records:
        if rec.entry_index == dev.entry_index and not rec.adjusted:
            rec.adjusted = True

    aid = dev.action_id
    if retry_counts.get(aid, 0) < max_retries:
        retry_counts[aid] = retry_counts.get(aid, 0) + 1
        pe.cursor = dev.entry_index
        return AdjustmentDecision("retry")

    spec = repertoire.get(aid)
    if spec is not None:
        alternatives = [
            other for other in sorted(repertoire)
            if other != aid
            and repertoire[other].category is spec.category
            and all_hold(ws.features, repertoire[other].preconditions)
            and action_roe_ok(repertoire[other], roe)
        ]
        if alternatives:
            substitute = alternatives[0]
            pe.entries[dev.entry_index]["action"] = substitute
            pe.cursor = dev.entry_index
            return AdjustmentDecision("substitute", substitute_action_id=substitute)
    return AdjustmentDecision("replan")


def fail_safe(agent_state: AgentState) -> None:
    """Degrade to fail-safe: destructive actions are forbidden from here on.
    The caller is expected to attempt a status report."""
    if agent_state.mode is AgentMode.DESTROYED:
        raise ModeForbidden("agent destroyed")
    agent_state.mode = AgentMode.FAIL_SAFE

