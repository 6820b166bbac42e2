"""Kill-chain malware model.

A malware instance walks a seven-phase chain, driven by a scripted playbook
with an optional rule-based fallback. Instances only ever act on hosts they
have reached (initial foothold or lateral movement) and on channels adjacent
to those hosts. The only things the malware can observe are channels it has
spoofed and the resident agent's detectability scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Any, Callable, Optional

from .envsim import ChannelState, EffectDescriptor, Environment


class MalwarePhase(str, Enum):
    DORMANT = "Dormant"
    FOOTHOLD = "Foothold"
    PERSISTENCE = "Persistence"
    COMMS_COMPROMISE = "CommsCompromise"
    LATERAL_MOVEMENT = "LateralMovement"
    DEGRADATION = "Degradation"
    AGENT_HUNT = "AgentHunt"


PHASE_ORDER = list(MalwarePhase)


def next_phase(phase: MalwarePhase) -> MalwarePhase:
    idx = PHASE_ORDER.index(phase)
    return PHASE_ORDER[min(idx + 1, len(PHASE_ORDER) - 1)]


@dataclass
class MalwareInstance:
    instance_id: str
    host_id: str
    phase: MalwarePhase = MalwarePhase.DORMANT
    hunt_intensity: float = 0.5
    alive: bool = True
    footprint: set[str] = field(default_factory=set)
    _spawn_counter: int = 0
    lateral_target: Optional[str] = None


@dataclass(frozen=True)
class PlaybookStep:
    tick: int
    action: str
    params: dict[str, Any] = field(default_factory=dict)
    instance_id: str = field(kw_only=True)  # the instance that runs the step
    trigger: Optional[dict[str, Any]] = None


@dataclass
class Playbook:
    steps: list[PlaybookStep] = field(default_factory=list)
    fallback: bool = True
    hunt_intensity: float = 0.5
    spoof_probability: float = 0.5
    degradation_amount: float = 0.2
    max_instances: int = 8


class HuntResult(str, Enum):
    NOT_FOUND = "not_found"
    FOUND = "found"


def hunt(instance: MalwareInstance, agent_detectability: float, rng: Random) -> HuntResult:
    """Search the instance's host for its resident agent.

    Succeeds with probability min(1, detectability * hunt_intensity); a find
    translates into a kill-agent effect by the caller.
    """
    p = min(1.0, agent_detectability * instance.hunt_intensity)
    return HuntResult.FOUND if rng.random() < p else HuntResult.NOT_FOUND


def spoof_payload(
    instance: MalwareInstance,
    message: dict[str, Any],
    spoof_probability: float,
    rng: Random,
) -> dict[str, Any]:
    """Intercept a message on a spoofed channel.

    With spoof_probability the payload is replaced by a forgery carrying no
    valid authentication tag (the malware cannot forge tags); otherwise the
    message passes through, flagged observed.
    """
    out = dict(message, observed=True)
    if rng.random() < spoof_probability:
        out["kind"] = "ControlCommand"
        out["payload"] = {"command": "set_roe", "field": "max_plan_risk", "value": 1.0}
        out["auth_tag"] = f"forged-{instance.instance_id}"
        out["forged"] = True
    return out


def _trigger_holds(trigger: Optional[dict[str, Any]], env: Environment) -> bool:
    """No trigger, or host_integrity_below: the one trigger kind of the
    scenario format."""
    return trigger is None or env.hosts[trigger["host"]].integrity < trigger["value"]


def _scripted_effects(
    instance: MalwareInstance,
    step: PlaybookStep,
    playbook: Playbook,
) -> list[EffectDescriptor]:
    act = step.action
    params = step.params
    host = params.get("host", instance.host_id)
    if act == "advance_phase":
        instance.phase = next_phase(instance.phase)
        return []
    if act == "create_file":
        fid = params.get("file_id", f"drop_{instance.instance_id}")
        return [EffectDescriptor(f"file:{host}:{fid}", "", "spawn", {"owner": "malware"})]
    if act == "set_channel":
        return [EffectDescriptor(f"channel:{params['channel']}", "state", "set", params["state"])]
    if act == "degrade_service":
        amount = params.get("amount", playbook.degradation_amount)
        return [EffectDescriptor(f"service:{host}:{params['service']}", "health", "add", -amount)]
    if act == "degrade_host":
        amount = params.get("amount", playbook.degradation_amount)
        return [EffectDescriptor(f"host:{host}", "integrity", "add", -amount)]
    instance.lateral_target = params["target_host"]  # move_lateral, the last action of _STEP
    return []


def _next_pid(instance: MalwareInstance) -> str:
    instance._spawn_counter += 1
    return f"mal_{instance.instance_id}_{instance._spawn_counter}"


def _fallback_effects(
    instance: MalwareInstance,
    env: Environment,
    playbook: Playbook,
    rng: Random,
    detectability: Optional[float],
    instance_count: int,
) -> list[EffectDescriptor]:
    """One phase-appropriate action, then advance the chain one step."""
    phase = instance.phase
    host = env.hosts[instance.host_id]
    effects: list[EffectDescriptor] = []
    advance = True

    if phase is MalwarePhase.DORMANT:
        pass
    elif phase is MalwarePhase.FOOTHOLD:
        pid = _next_pid(instance)
        instance.footprint.add(pid)
        effects.append(EffectDescriptor(
            f"process:{instance.host_id}:{pid}", "", "spawn",
            {"image_hash": f"mal-{instance.instance_id}", "known_good": False, "owner": "malware"}))
    elif phase is MalwarePhase.PERSISTENCE:
        effects.append(EffectDescriptor(
            f"file:{instance.host_id}:drop_{instance.instance_id}", "", "spawn", {"owner": "malware"}))
    elif phase is MalwarePhase.COMMS_COMPROMISE:
        clean = [c for c in env.channels_adjacent(instance.host_id)
                 if c.state not in (ChannelState.SPOOFED, ChannelState.DISABLED)]
        if clean:
            # spoofing keeps the channel observable; scripted playbooks cover
            # the disabled variant
            effects.append(EffectDescriptor(f"channel:{clean[0].channel_id}", "state", "set", "spoofed"))
    elif phase is MalwarePhase.LATERAL_MOVEMENT:
        if instance_count < playbook.max_instances:
            reachable = sorted(
                {ep for c in env.channels_adjacent(instance.host_id)
                 if c.state is not ChannelState.DISABLED
                 for ep in c.endpoints if ep != instance.host_id}
            )
            if reachable:
                instance.lateral_target = reachable[0]
    elif phase is MalwarePhase.DEGRADATION:
        candidates = sorted(
            (s for s in host.services.values() if s.required and s.health > 0.0),
            key=lambda s: (s.health, s.service_id),
        )
        if candidates:
            effects.append(EffectDescriptor(
                f"service:{instance.host_id}:{candidates[0].service_id}",
                "health", "add", -playbook.degradation_amount))
        # hold here unless there is an agent worth hunting
        advance = host.resident_agent is not None
    elif phase is MalwarePhase.AGENT_HUNT:
        advance = False
        if host.resident_agent is not None and detectability is not None:
            if hunt(instance, detectability, rng) is HuntResult.FOUND:
                effects.append(EffectDescriptor(f"agent:{host.resident_agent}", "", "kill"))

    if advance and phase is not MalwarePhase.AGENT_HUNT:
        instance.phase = next_phase(instance.phase)
    return effects


def malware_step(
    instance: MalwareInstance,
    env: Environment,
    playbook: Playbook,
    rng: Random,
    tick: int,
    detectability: Optional[float] = None,
    instance_count: int = 1,
) -> list[EffectDescriptor]:
    """Emit this tick's effects for one instance.

    Scripted steps for the tick run in list order; with none scheduled and
    fallback enabled, one phase-appropriate action runs instead. Dead
    instances do nothing.
    """
    if not instance.alive:
        return []
    scripted = [
        s for s in playbook.steps
        if s.tick == tick and s.instance_id == instance.instance_id
    ]
    effects: list[EffectDescriptor] = []
    ran_script = False
    for step in scripted:
        if not _trigger_holds(step.trigger, env):
            continue
        ran_script = True
        effects.extend(_scripted_effects(instance, step, playbook))
    if not ran_script and playbook.fallback:
        effects.extend(_fallback_effects(instance, env, playbook, rng, detectability, instance_count))
    return effects


class MalwareController:
    """Owns every instance in an episode and routes the playbook to them."""

    def __init__(self, instances: list[MalwareInstance], playbook: Playbook):
        self.instances: dict[str, MalwareInstance] = {i.instance_id: i for i in instances}
        self.playbook = playbook
        self._replica_counter = 0

    def reached_hosts(self) -> set[str]:
        return {i.host_id for i in self.instances.values() if i.alive}

    def _check_evictions(self, env: Environment) -> list[str]:
        evicted = []
        for inst in self.instances.values():
            if not inst.alive or not inst.footprint:
                continue
            if not inst.footprint & set(env.hosts[inst.host_id].processes):
                inst.alive = False
                evicted.append(inst.instance_id)
        return evicted

    def step(
        self,
        env: Environment,
        rng: Random,
        tick: int,
        detectability_of: Callable[[str], Optional[float]],
    ) -> tuple[list[tuple[str, EffectDescriptor]], dict[str, Any]]:
        """Advance every instance in id order; returns ((instance, effect)
        pairs, notes).

        notes records evictions, phase changes and lateral spawns for the
        episode trace. Effects targeting hosts the malware has not reached
        are filtered out, which keeps scripted playbooks honest; so is a
        second find of an agent that another instance kills this tick.
        """
        notes: dict[str, Any] = {"evicted": self._check_evictions(env), "lateral": [], "phases": {}}
        effects: list[tuple[str, EffectDescriptor]] = []
        hunted: set[str] = set()  # the agent targets killed this tick
        for iid in sorted(self.instances):
            inst = self.instances[iid]
            if not inst.alive:
                continue
            before = inst.phase
            det = detectability_of(inst.host_id)
            emitted = malware_step(
                inst, env, self.playbook, rng, tick,
                detectability=det, instance_count=len(self.instances),
            )
            reached = self.reached_hosts()
            for eff in emitted:
                if eff.target in hunted or not self._effect_reachable(eff, env, reached):
                    continue
                if eff.target.startswith("agent:"):
                    hunted.add(eff.target)
                effects.append((iid, eff))
            if inst.phase is not before:
                notes["phases"][iid] = inst.phase.value
            if inst.lateral_target is not None:
                # a validated host: a move_lateral step's or an adjacent channel's endpoint
                target, inst.lateral_target = inst.lateral_target, None
                if len(self.instances) < self.playbook.max_instances:
                    self._replica_counter += 1
                    new_id = f"{iid}_r{self._replica_counter}"
                    child = MalwareInstance(
                        instance_id=new_id,
                        host_id=target,
                        phase=MalwarePhase.FOOTHOLD,
                        hunt_intensity=inst.hunt_intensity,
                    )
                    self.instances[new_id] = child
                    notes["lateral"].append({"parent": iid, "instance": new_id, "host": target})
        return effects, notes

    @staticmethod
    def _effect_reachable(effect: EffectDescriptor, env: Environment, reached: set[str]) -> bool:
        kind, name = effect.target.split(":")[:2]
        if kind == "channel":
            return bool(set(env.channels[name].endpoints) & reached)
        if kind == "agent":
            return any(env.hosts[h].resident_agent == name for h in reached)
        return name in reached  # a host, or an entity on one
