"""Plan execution: effector, execution/effects monitoring, adjustment, and
the agent's own lifecycle state (detectability, mode, authority). The
episode loop sets the mode: fail-safe on a command or a streak of no-action
decisions, destroyed when malware kills the agent.

Plans run strictly sequentially, one attempt at a time: a plan holds the one
attempt that monitoring has not yet ruled on. Every action's noise raises
detectability (camouflage lowers it by its configured reduction); a failed
or overdue attempt, or an unmet effect expectation of a done one, surfaces
as a deviation, which the adjustment ladder handles: retry while retries
remain, then substitute a same-category action, then hand control back to
planning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from random import Random
from typing import Any, Callable, Optional

from .envsim import EffectDescriptor, Environment, SnapshotToken, clamp01
from .errors import ModeForbidden, UnknownEntity
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


@dataclass
class Deviation:
    deviation_kind: str  # failed | overdue | effect_unmet
    action_id: str
    entry_index: int
    detail: str = ""
    probability: Optional[float] = None


@dataclass
class AdjustmentDecision:
    kind: str  # retry | substitute | replan
    substitute_action_id: Optional[str] = None


@dataclass
class PlanExecution:
    entries: list[dict[str, Any]]  # the released entries: action, offset, origin
    cursor: int = 0
    # in progress, failed, or done with its effects unchecked
    attempt: Optional[ExecutionRecord] = None


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
    """Start the entry at the cursor, or advance the attempt in progress; one
    entry per tick.

    The runner calls this only for a live agent that holds authority, after
    monitoring has ruled on a failed or done attempt. A destructive entry
    raises ModeForbidden in fail-safe mode. Effects apply on completion
    through env.apply_effect, each drawn independently from the seeded
    stream; an UnknownEntity from a stale target fails the attempt.
    Detectability bookkeeping happens at start. The propagate builtin calls
    `propagate`, which says whether it installed a replica. Returns the
    tick's trace events in trace order: agent.action_started, then
    agent.action_done or agent.action_failed, then the completion's changes:
    env.snapshot, env.restore, or an env.effect, whose payload is the
    apply_effect outcome, per applied effect.
    """
    events: list[Event] = []
    rec = pe.attempt
    if rec is None:
        action_id = pe.entries[pe.cursor]["action"]
        spec = _lookup(action_id, repertoire)
        if spec.category is ActionCategory.DESTRUCTIVE and agent_state.mode is AgentMode.FAIL_SAFE:
            raise ModeForbidden(f"destructive action {action_id!r} forbidden in fail_safe")
        rec = pe.attempt = ExecutionRecord(action_id, pe.cursor, ActionStatus.IN_PROGRESS,
                                           started_tick=tick)
        agent_state.detectability = clamp01(agent_state.detectability + signed_noise(spec))
        events.append(("agent.action_started", {"action": action_id, "entry_index": rec.entry_index,
                                                "detectability": agent_state.detectability}))
    else:
        spec = _lookup(rec.action_id, repertoire)

    if tick >= rec.started_tick + spec.duration - 1:
        changes = _complete(rec, spec, env, agent_state, rng, propagate)
        if rec.status is ActionStatus.DONE:
            pe.cursor += 1
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
    rng: Random,
    propagate: Callable[[ActionSpec], bool],
) -> list[Event]:
    """Finish `rec`, set its status and return the changes it made."""
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
    pe: PlanExecution,
    tick: int,
    repertoire: dict[str, ActionSpec],
) -> list[Deviation]:
    """The attempt's deviation, if it failed or is in progress past its
    duration: zero or one."""
    rec = pe.attempt
    if rec is None:
        return []
    if rec.status is ActionStatus.FAILED:
        return [Deviation("failed", rec.action_id, rec.entry_index, detail="action failed")]
    if rec.status is ActionStatus.IN_PROGRESS:
        spec = _lookup(rec.action_id, repertoire)
        if tick >= rec.started_tick + spec.duration:
            return [Deviation(
                "overdue", rec.action_id, rec.entry_index,
                detail=f"in_progress past tick {rec.started_tick + spec.duration - 1}")]
    return []


def monitor_effects(
    pe: PlanExecution,
    ws: WorldState,
    repertoire: dict[str, ActionSpec],
) -> tuple[list[Deviation], list[tuple[str, int, bool]]]:
    """Check a done attempt's expected-effect predicates against the
    features, which monitoring reads after this pass's sense refreshed them
    and before the next execute, and clear the attempt; unmet expectations
    are the warning signs. A builtin's expectations go unchecked. Returns
    the deviations and every check made, as (action id, effect index, held)."""
    rec = pe.attempt
    if rec is None or rec.status is not ActionStatus.DONE:
        return [], []
    pe.attempt = None
    spec = _lookup(rec.action_id, repertoire)
    if spec.builtin is not None:
        return [], []
    deviations: list[Deviation] = []
    checks: list[tuple[str, int, bool]] = []
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
) -> AdjustmentDecision:
    """Rule on the attempt that every deviation comes from, and clear it:
    retry its entry while attempts remain, else substitute a same-category
    applicable action, else replan. A retry or a substitute moves the cursor
    back to the entry, which starts afresh at the next execute."""
    dev = deviations[0]
    pe.attempt = None
    aid = dev.action_id
    if retry_counts.get(aid, 0) < DEFAULT_MAX_RETRIES:
        retry_counts[aid] = retry_counts.get(aid, 0) + 1
        pe.cursor = dev.entry_index
        return AdjustmentDecision("retry")

    # snapshot and verify, the builtins outside the repertoire, never fail,
    # expect nothing and take one tick, so they never deviate
    spec = repertoire[aid]
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
