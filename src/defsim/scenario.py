"""Scenario file loading and validation.

One JSON document describes an episode: platform topology, malware playbook,
sensors and patterns, the agent's repertoire/goals/rules-of-engagement,
planner settings, the C2 script, the friendly roster and run bookkeeping.
Validation rejects unknown fields and dangling identifier references before
any episode starts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .adversary import MalwareInstance, MalwarePhase, Playbook, PlaybookStep
from .collaboration import FriendlyRoster
from .envsim import (
    ChannelState,
    CommsChannel,
    Environment,
    FileEntry,
    Host,
    Owner,
    Process,
    Service,
)
from .errors import ConfigInvalid
from .planning import (
    ActionCategory,
    ActionSpec,
    ConditionActionRule,
    Goal,
    PlannerConfig,
    ProbabilisticEffect,
    RulesOfEngagement,
    TargetScope,
    normalize_goals,
)
from .envsim import EffectDescriptor
from .sensing import Pattern, SensorConfig

SCHEMA_VERSION = 1

_COMPARATORS = {">=", "<=", ">", "<", "==", "!="}
_DELTA_OPS = {"set", "add"}
_PLAYBOOK_ACTIONS = {
    "advance_phase", "spawn_process", "create_file", "set_channel",
    "degrade_service", "degrade_host", "move_lateral", "set_hunt_intensity",
}
_C2_KINDS = {"ControlCommand", "HandoverGrant", "HandoverReturn", "RequestConclusions"}
_CONTROL_COMMANDS = {
    "set_goal_weight", "set_roe", "add_rule", "add_pattern_example",
    "request_handover", "grant_return", "fail_safe",
}


@dataclass
class AgentSpec:
    agent_id: str
    host_id: str
    detectability: float = 0.1


@dataclass
class CollaborationSettings:
    threshold: float = 0.6
    report_interval: int = 10
    propagation_threshold: float = 0.3
    communicate_noise: float = 0.05
    negotiation_rounds: int = 3
    fail_safe_streak: int = 20


@dataclass
class ScenarioConfig:
    raw: dict[str, Any]
    name: str
    duration_ticks: int
    training: bool
    seeds: list[int]
    trigger_threshold: float
    collaboration: CollaborationSettings
    agents: list[AgentSpec]
    c2_host: Optional[str]
    c2_script: list[dict[str, Any]]
    roster: FriendlyRoster

    def scenario_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # fresh, mutable objects per episode; episodes must not share state
    def build_environment(self) -> Environment:
        topo = self.raw["topology"]
        hosts: dict[str, Host] = {}
        for spec in topo["hosts"]:
            services = {
                s["service_id"]: Service(
                    service_id=s["service_id"],
                    required=s.get("required", False),
                    weight=s.get("weight", 1.0),
                    health=s.get("health", 1.0),
                )
                for s in spec.get("services", [])
            }
            processes = {
                p["process_id"]: Process(
                    process_id=p["process_id"],
                    image_hash=p.get("image_hash", "sys"),
                    known_good=p.get("known_good", True),
                    owner=Owner(p.get("owner", "system")),
                )
                for p in spec.get("processes", [])
            }
            files = {
                f["file_id"]: FileEntry(f["file_id"], Owner(f.get("owner", "system")))
                for f in spec.get("files", [])
            }
            hosts[spec["host_id"]] = Host(
                host_id=spec["host_id"],
                friendly=spec.get("friendly", True),
                integrity=spec.get("integrity", 1.0),
                services=services,
                processes=processes,
                files=files,
                resident_agent=spec.get("resident_agent"),
            )
        channels = {
            c["channel_id"]: CommsChannel(
                channel_id=c["channel_id"],
                endpoints=(c["endpoints"][0], c["endpoints"][1]),
                state=ChannelState(c.get("state", "healthy")),
                drop_probability=c.get("drop_probability", 0.0),
                delay_ticks=c.get("delay_ticks", 0),
            )
            for c in topo.get("channels", [])
        }
        thresholds = topo.get("thresholds", {})
        return Environment(
            hosts=hosts,
            channels=channels,
            up_threshold=thresholds.get("up_threshold", 0.8),
            down_threshold=thresholds.get("down_threshold", 0.3),
            roster_token=self.raw.get("roster", {}).get("authorization_token", ""),
        )

    def build_playbook(self) -> tuple[list[MalwareInstance], Playbook]:
        pb = self.raw.get("playbook", {})
        instances = [
            MalwareInstance(
                instance_id=i["instance_id"],
                host_id=i["host_id"],
                phase=MalwarePhase(i.get("phase", "Dormant")),
                hunt_intensity=i.get("hunt_intensity", pb.get("hunt_intensity", 0.5)),
            )
            for i in pb.get("instances", [])
        ]
        default_instance = instances[0].instance_id if instances else None
        steps = [
            PlaybookStep(
                tick=s["tick"],
                action=s["action"],
                params=s.get("params", {}),
                instance_id=s.get("instance_id") or default_instance,
                trigger=s.get("trigger"),
            )
            for s in pb.get("steps", [])
        ]
        playbook = Playbook(
            steps=steps,
            fallback=pb.get("fallback", True),
            hunt_intensity=pb.get("hunt_intensity", 0.5),
            spoof_probability=pb.get("spoof_probability", 0.5),
            degradation_amount=pb.get("degradation_amount", 0.2),
            max_instances=pb.get("max_instances", 8),
        )
        return instances, playbook

    def build_sensor_config(self) -> SensorConfig:
        sensors = self.raw.get("sensors", {})
        return SensorConfig(
            physical=list(sensors.get("physical", [])),
            logical=list(sensors.get("logical", [])),
            transformers=list(sensors.get("transformers", [])),
            noise=dict(sensors.get("noise", {})),
        )

    def build_patterns(self) -> list[Pattern]:
        return [
            Pattern(
                pattern_id=p["id"],
                predicates=[tuple(x) for x in p.get("predicates", [])],
                severity=p["severity"],
                confidence=p["confidence"],
                progression=[tuple(x) for x in p.get("progression", [])],
                deadline_ticks=p.get("deadline_ticks"),
            )
            for p in self.raw.get("patterns", [])
        ]

    def build_repertoire(self) -> dict[str, ActionSpec]:
        repertoire: dict[str, ActionSpec] = {}
        for a in self.raw.get("repertoire", []):
            effects = []
            for e in a.get("effects", []):
                env_effect = None
                if e.get("env") is not None:
                    env = e["env"]
                    env_effect = EffectDescriptor(
                        target=env["target"],
                        attribute=env.get("attribute", ""),
                        operation=env["operation"],
                        value=env.get("value"),
                    )
                effects.append(ProbabilisticEffect(
                    env_effect=env_effect,
                    feature_deltas=[tuple(x) for x in e.get("features", [])],
                    probability=e.get("probability", 1.0),
                    expect=[tuple(x) for x in e.get("expect", [])],
                ))
            repertoire[a["action_id"]] = ActionSpec(
                action_id=a["action_id"],
                category=ActionCategory(a["category"]),
                preconditions=[tuple(x) for x in a.get("preconditions", [])],
                effects=effects,
                risk=a.get("risk", 0.0),
                noise=a.get("noise", 0.0),
                duration=a.get("duration", 1),
                target_scope=TargetScope(a.get("target_scope", "self_host")),
                preparation=list(a.get("preparation", [])),
                builtin=a.get("builtin"),
                target_host=a.get("target_host"),
            )
        return repertoire

    def build_goals(self) -> list[Goal]:
        goals = [
            Goal(g["goal_id"], [tuple(x) for x in g.get("predicates", [])], g["weight"])
            for g in self.raw.get("goals", [])
        ]
        return normalize_goals(goals)

    def build_roe(self) -> RulesOfEngagement:
        roe = self.raw.get("roe", {})
        return RulesOfEngagement(
            max_plan_risk=roe.get("max_plan_risk", 1.0),
            destructive_only_on_residence=roe.get("destructive_only_on_residence", True),
            forbidden_categories=set(roe.get("forbidden_categories", [])),
            fast_deadline_ticks=roe.get("fast_deadline_ticks", 0),
        )

    def build_rules(self) -> dict[str, ConditionActionRule]:
        return {
            r["rule_id"]: ConditionActionRule(
                rule_id=r["rule_id"],
                condition=[tuple(x) for x in r.get("condition", [])],
                action_id=r["action_id"],
                priority=r["priority"],
            )
            for r in self.raw.get("rules", [])
        }

    def build_planner_config(self) -> PlannerConfig:
        p = self.raw.get("planner", {})
        return PlannerConfig(
            risk_weight=p.get("risk_weight", 1.0),
            noise_weight=p.get("noise_weight", 0.5),
            depth=p.get("depth", 3),
            beam=p.get("beam", 5),
        )


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read scenario: {exc}") from exc
    return parse_scenario(raw)


def parse_scenario(raw: dict[str, Any]) -> ScenarioConfig:
    problems = validate_scenario(raw)
    if problems:
        raise ConfigInvalid(problems)
    collab = raw.get("collaboration", {})
    roster_raw = raw.get("roster", {})
    c2 = raw.get("c2", {})
    config = ScenarioConfig(
        raw=raw,
        name=raw.get("name", "unnamed"),
        duration_ticks=raw["duration_ticks"],
        training=raw.get("training", False),
        seeds=list(raw.get("seeds", [])),
        trigger_threshold=raw.get("trigger_threshold", 0.5),
        collaboration=CollaborationSettings(
            threshold=collab.get("threshold", 0.6),
            report_interval=collab.get("report_interval", 10),
            propagation_threshold=collab.get("propagation_threshold", 0.3),
            communicate_noise=collab.get("communicate_noise", 0.05),
            negotiation_rounds=collab.get("negotiation_rounds", 3),
            fail_safe_streak=collab.get("fail_safe_streak", 20),
        ),
        agents=[
            AgentSpec(a["agent_id"], a["host_id"], a.get("detectability", 0.1))
            for a in raw.get("agents", [])
        ],
        c2_host=c2.get("host_id"),
        c2_script=list(c2.get("script", [])),
        roster=FriendlyRoster(
            hosts=frozenset(roster_raw.get("hosts", [])),
            authorization_token=roster_raw.get("authorization_token", ""),
        ),
    )
    return config


# -- validation ---------------------------------------------------------------

def _keys(section: dict[str, Any], allowed: set[str], required: set[str],
          where: str, problems: list[str]) -> None:
    for key in sorted(set(section) - allowed):
        problems.append(f"{where}: unknown field {key!r}")
    for key in sorted(required - set(section)):
        problems.append(f"{where}: missing field {key!r}")


def _object(value: Any, where: str, problems: list[str]) -> dict[str, Any]:
    """`value` if it is a JSON object; otherwise a problem and an empty one."""
    if isinstance(value, dict):
        return value
    problems.append(f"{where}: {value!r} must be an object")
    return {}


def _objects(value: Any, where: str, problems: list[str]) -> list[dict[str, Any]]:
    """The entries of a list that are JSON objects; a problem for each other
    entry, or for a value that is not a list."""
    if not isinstance(value, list):
        problems.append(f"{where}: {value!r} must be a list")
        return []
    entries = []
    for index, entry in enumerate(value):
        if isinstance(entry, dict):
            entries.append(entry)
        else:
            problems.append(f"{where}[{index}]: {entry!r} must be an object")
    return entries


def _ident(entry: dict[str, Any], key: str, where: str, problems: list[str]) -> str:
    """entry[key] if it is a string. An absent key gives "" (_keys reports a
    required one); any other type gives "" and a problem."""
    value = entry.get(key, "")
    if isinstance(value, str):
        return value
    problems.append(f"{where}: {key} {value!r} must be a string")
    return ""


def _check_predicates(preds: Any, where: str, problems: list[str]) -> None:
    if not isinstance(preds, list):
        problems.append(f"{where}: predicates must be a list")
        return
    for p in preds:
        if not (isinstance(p, (list, tuple)) and len(p) == 3):
            problems.append(f"{where}: predicate {p!r} must be [key, comparator, value]")
        elif p[1] not in _COMPARATORS:
            problems.append(f"{where}: unknown comparator {p[1]!r}")


def _check_deltas(deltas: Any, where: str, problems: list[str]) -> None:
    if not isinstance(deltas, list):
        problems.append(f"{where}: feature deltas must be a list")
        return
    for d in deltas:
        if not (isinstance(d, (list, tuple)) and len(d) == 3):
            problems.append(f"{where}: delta {d!r} must be [key, op, value]")
        elif d[1] not in _DELTA_OPS:
            problems.append(f"{where}: unknown delta op {d[1]!r}")


def _check_fraction(value: Any, where: str, problems: list[str]) -> None:
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        problems.append(f"{where}: {value!r} must be a fraction in [0, 1]")


def _check_int(value: Any, minimum: int, where: str, problems: list[str]) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        problems.append(f"{where}: {value!r} must be an integer >= {minimum}")


def validate_scenario(raw: dict[str, Any]) -> list[str]:
    problems: list[str] = []
    if not isinstance(raw, dict):
        return ["scenario must be a JSON object"]

    _keys(raw, allowed={
        "schema_version", "name", "duration_ticks", "training", "seeds",
        "trigger_threshold", "topology", "playbook", "sensors", "patterns",
        "repertoire", "goals", "roe", "rules", "planner", "collaboration",
        "c2", "roster", "agents",
    }, required={"schema_version", "duration_ticks", "topology"},
        where="scenario", problems=problems)

    if raw.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"scenario: schema_version {raw.get('schema_version')!r}, expected {SCHEMA_VERSION}")
    _check_int(raw.get("duration_ticks", 0), 1, "scenario.duration_ticks", problems)
    if "trigger_threshold" in raw:
        _check_fraction(raw["trigger_threshold"], "scenario.trigger_threshold", problems)

    topo = _object(raw.get("topology", {}), "topology", problems)
    _keys(topo, {"hosts", "channels", "thresholds"}, {"hosts"}, "topology", problems)
    thresholds = _object(topo.get("thresholds", {}), "topology.thresholds", problems)
    _keys(thresholds, {"up_threshold", "down_threshold"}, set(), "topology.thresholds", problems)
    up = thresholds.get("up_threshold", 0.8)
    down = thresholds.get("down_threshold", 0.3)
    if not 0.0 <= down < up <= 1.0:
        problems.append("topology.thresholds: require 0 <= down_threshold < up_threshold <= 1")

    host_ids: set[str] = set()
    service_ids: dict[str, set[str]] = {}
    required_services = 0
    hosts = _objects(topo.get("hosts", []), "topology.hosts", problems)
    for spec in hosts:
        _keys(spec, {"host_id", "friendly", "integrity", "services", "processes",
                     "files", "resident_agent"}, {"host_id"},
              f"host {spec.get('host_id')!r}", problems)
        hid = _ident(spec, "host_id", "topology.hosts", problems)
        if hid in host_ids:
            problems.append(f"topology: duplicate host_id {hid!r}")
        host_ids.add(hid)
        service_ids[hid] = set()
        if "integrity" in spec:
            _check_fraction(spec["integrity"], f"host {hid!r}.integrity", problems)
        for s in _objects(spec.get("services", []), f"host {hid!r}.services", problems):
            _keys(s, {"service_id", "required", "weight", "health"}, {"service_id"},
                  f"service {s.get('service_id')!r}", problems)
            service_ids[hid].add(_ident(s, "service_id", f"host {hid!r}.services", problems))
            if s.get("required", False):
                required_services += 1
            weight = s.get("weight", 1.0)
            if not isinstance(weight, (int, float)) or weight <= 0:
                problems.append(f"service {s.get('service_id')!r}: weight must be positive")
            if "health" in s:
                _check_fraction(s["health"], f"service {s.get('service_id')!r}.health", problems)
        for p in _objects(spec.get("processes", []), f"host {hid!r}.processes", problems):
            _keys(p, {"process_id", "image_hash", "known_good", "owner"}, {"process_id"},
                  f"process {p.get('process_id')!r}", problems)
            if p.get("owner") == "malware" and p.get("known_good", False):
                problems.append(f"process {p.get('process_id')!r}: malware owner requires known_good=false")
        for f in _objects(spec.get("files", []), f"host {hid!r}.files", problems):
            _keys(f, {"file_id", "owner"}, {"file_id"}, f"file {f.get('file_id')!r}", problems)

    if required_services == 0:
        problems.append("topology: at least one required service is needed for functionality")

    channel_ids: set[str] = set()
    for c in _objects(topo.get("channels", []), "topology.channels", problems):
        _keys(c, {"channel_id", "endpoints", "state", "drop_probability", "delay_ticks"},
              {"channel_id", "endpoints"}, f"channel {c.get('channel_id')!r}", problems)
        cid = _ident(c, "channel_id", "topology.channels", problems)
        if cid in channel_ids:
            problems.append(f"topology: duplicate channel_id {cid!r}")
        channel_ids.add(cid)
        endpoints = c.get("endpoints", [])
        if len(endpoints) != 2:
            problems.append(f"channel {cid!r}: endpoints must name two hosts")
        for ep in endpoints:
            if ep not in host_ids:
                problems.append(f"channel {cid!r}: endpoint {ep!r} is not a host")
        state = c.get("state", "healthy")
        if state not in {s.value for s in ChannelState}:
            problems.append(f"channel {cid!r}: unknown state {state!r}")
        if "drop_probability" in c:
            _check_fraction(c["drop_probability"], f"channel {cid!r}.drop_probability", problems)
        if state == "healthy" and (c.get("drop_probability", 0.0) or c.get("delay_ticks", 0)):
            problems.append(f"channel {cid!r}: healthy implies drop_probability=0 and delay_ticks=0")

    pb = _object(raw.get("playbook", {}), "playbook", problems)
    _keys(pb, {"instances", "steps", "fallback", "hunt_intensity", "spoof_probability",
               "degradation_amount", "max_instances"}, set(), "playbook", problems)
    instance_ids: set[str] = set()
    instances = _objects(pb.get("instances", []), "playbook.instances", problems)
    # a step without an instance_id runs on the first listed instance, as in build_playbook
    default_instance = next((i.get("instance_id") for i in instances), None)
    for i in instances:
        _keys(i, {"instance_id", "host_id", "phase", "hunt_intensity"},
              {"instance_id", "host_id"}, f"instance {i.get('instance_id')!r}", problems)
        instance_ids.add(_ident(i, "instance_id", "playbook.instances", problems))
        if i.get("host_id") not in host_ids:
            problems.append(f"instance {i.get('instance_id')!r}: unknown host {i.get('host_id')!r}")
        phase = i.get("phase", "Dormant")
        if phase not in {p.value for p in MalwarePhase}:
            problems.append(f"instance {i.get('instance_id')!r}: unknown phase {phase!r}")
    if "hunt_intensity" in pb:
        _check_fraction(pb["hunt_intensity"], "playbook.hunt_intensity", problems)
    if "spoof_probability" in pb:
        _check_fraction(pb["spoof_probability"], "playbook.spoof_probability", problems)
    for s in _objects(pb.get("steps", []), "playbook.steps", problems):
        _keys(s, {"tick", "action", "params", "instance_id", "trigger"},
              {"tick", "action"}, f"playbook step at tick {s.get('tick')!r}", problems)
        where = f"playbook step at tick {s.get('tick')!r}"
        if s.get("action") not in _PLAYBOOK_ACTIONS:
            problems.append(f"{where}: unknown action {s.get('action')!r}")
        if s.get("instance_id") is not None and s["instance_id"] not in instance_ids:
            problems.append(f"{where}: unknown instance {s['instance_id']!r}")
        if s.get("instance_id") is None and default_instance is None:
            problems.append(f"{where}: no instance_id and no instance listed to run on")
        params = s.get("params", {})
        if s.get("action") == "set_channel" and params.get("channel") not in channel_ids:
            problems.append(f"{where}: unknown channel {params.get('channel')!r}")
        if s.get("action") == "degrade_service":
            hid = params.get("host") or next(
                (i.get("host_id") for i in instances
                 if i.get("instance_id") == (s.get("instance_id") or default_instance)),
                None)
            if hid in service_ids and params.get("service") not in service_ids.get(hid, set()):
                problems.append(f"{where}: unknown service {params.get('service')!r} on host {hid!r}")
        if s.get("action") in ("degrade_host", "move_lateral"):
            target = params.get("host") or params.get("target_host")
            if target is not None and target not in host_ids:
                problems.append(f"{where}: unknown host {target!r}")

    sensors = _object(raw.get("sensors", {}), "sensors", problems)
    _keys(sensors, {"physical", "logical", "transformers", "noise"}, set(), "sensors", problems)
    from .sensing import _LOGICAL_SENSORS, _PHYSICAL_SENSORS, _TRANSFORMERS
    for name in sensors.get("physical", []):
        if name not in _PHYSICAL_SENSORS:
            problems.append(f"sensors.physical: unknown sensor {name!r}")
    for name in sensors.get("logical", []):
        if name not in _LOGICAL_SENSORS:
            problems.append(f"sensors.logical: unknown sensor {name!r}")
    for name in sensors.get("transformers", []):
        if name not in _TRANSFORMERS:
            problems.append(f"sensors.transformers: unknown transformer {name!r}")

    pattern_ids: set[str] = set()
    for p in _objects(raw.get("patterns", []), "patterns", problems):
        _keys(p, {"id", "predicates", "severity", "confidence", "progression",
                  "deadline_ticks"}, {"id", "severity", "confidence"},
              f"pattern {p.get('id')!r}", problems)
        pattern_ids.add(_ident(p, "id", "patterns", problems))
        _check_predicates(p.get("predicates", []), f"pattern {p.get('id')!r}", problems)
        _check_deltas(p.get("progression", []), f"pattern {p.get('id')!r}.progression", problems)
        _check_fraction(p.get("severity", 0), f"pattern {p.get('id')!r}.severity", problems)
        _check_fraction(p.get("confidence", 0), f"pattern {p.get('id')!r}.confidence", problems)

    action_ids: set[str] = set()
    repertoire = _objects(raw.get("repertoire", []), "repertoire", problems)
    for a in repertoire:
        _keys(a, {"action_id", "category", "preconditions", "effects", "risk", "noise",
                  "duration", "target_scope", "preparation", "builtin", "target_host"},
              {"action_id", "category"}, f"action {a.get('action_id')!r}", problems)
        aid = _ident(a, "action_id", "repertoire", problems)
        where = f"action {aid!r}"
        if aid in action_ids:
            problems.append(f"repertoire: duplicate action_id {aid!r}")
        action_ids.add(aid)
        if a.get("category") not in {c.value for c in ActionCategory}:
            problems.append(f"{where}: unknown category {a.get('category')!r}")
        if a.get("category") == "destructive" and a.get("risk", 0.0) <= 0.0:
            problems.append(f"{where}: destructive actions must declare risk > 0")
        _check_predicates(a.get("preconditions", []), where, problems)
        _check_fraction(a.get("risk", 0.0), f"{where}.risk", problems)
        _check_fraction(a.get("noise", 0.0), f"{where}.noise", problems)
        _check_int(a.get("duration", 1), 1, f"{where}.duration", problems)
        if a.get("target_scope", "self_host") not in {t.value for t in TargetScope}:
            problems.append(f"{where}: unknown target_scope {a.get('target_scope')!r}")
        if a.get("builtin") not in (None, "snapshot", "restore", "verify", "propagate"):
            problems.append(f"{where}: unknown builtin {a.get('builtin')!r}")
        if a.get("builtin") == "propagate" and not a.get("target_host"):
            problems.append(f"{where}: propagate actions need a target_host")
        if a.get("target_host") is not None and a["target_host"] not in host_ids:
            problems.append(f"{where}: unknown target_host {a['target_host']!r}")
        for idx, e in enumerate(_objects(a.get("effects", []), f"{where}.effects", problems)):
            _keys(e, {"env", "features", "probability", "expect"}, set(),
                  f"{where}.effects[{idx}]", problems)
            _check_fraction(e.get("probability", 1.0), f"{where}.effects[{idx}].probability",
                            problems)
            _check_deltas(e.get("features", []), f"{where}.effects[{idx}].features", problems)
            _check_predicates(e.get("expect", []), f"{where}.effects[{idx}].expect", problems)
            env = e.get("env")
            if env is not None:
                env = _object(env, f"{where}.effects[{idx}].env", problems)
                _keys(env, {"target", "attribute", "operation", "value"},
                      {"target", "operation"}, f"{where}.effects[{idx}].env", problems)
    # the planner only inserts a preparation step it finds in the repertoire
    for a in repertoire:
        preparation = a.get("preparation", [])
        where = f"action {a.get('action_id')!r}.preparation"
        if not isinstance(preparation, list):
            problems.append(f"{where}: {preparation!r} must be a list")
            continue
        for prep_id in preparation:
            if not isinstance(prep_id, str) or prep_id not in action_ids:
                problems.append(f"{where}: unknown action {prep_id!r}")

    goal_ids: set[str] = set()
    for g in _objects(raw.get("goals", []), "goals", problems):
        _keys(g, {"goal_id", "predicates", "weight"}, {"goal_id", "weight"},
              f"goal {g.get('goal_id')!r}", problems)
        goal_ids.add(_ident(g, "goal_id", "goals", problems))
        _check_predicates(g.get("predicates", []), f"goal {g.get('goal_id')!r}", problems)
        if not isinstance(g.get("weight"), (int, float)) or g.get("weight", 0) <= 0:
            problems.append(f"goal {g.get('goal_id')!r}: weight must be positive")

    roe = _object(raw.get("roe", {}), "roe", problems)
    _keys(roe, {"max_plan_risk", "destructive_only_on_residence", "forbidden_categories",
                "fast_deadline_ticks"}, set(), "roe", problems)
    if "max_plan_risk" in roe:
        _check_fraction(roe["max_plan_risk"], "roe.max_plan_risk", problems)
    for cat in roe.get("forbidden_categories", []):
        if cat not in {c.value for c in ActionCategory}:
            problems.append(f"roe.forbidden_categories: unknown category {cat!r}")

    priorities: set[int] = set()
    for r in _objects(raw.get("rules", []), "rules", problems):
        _keys(r, {"rule_id", "condition", "action_id", "priority"},
              {"rule_id", "action_id", "priority"}, f"rule {r.get('rule_id')!r}", problems)
        _check_predicates(r.get("condition", []), f"rule {r.get('rule_id')!r}", problems)
        if r.get("action_id") not in action_ids:
            problems.append(f"rule {r.get('rule_id')!r}: unknown action {r.get('action_id')!r}")
        prio = r.get("priority")
        if prio in priorities:
            problems.append(f"rule {r.get('rule_id')!r}: duplicate priority {prio!r}")
        priorities.add(prio)

    planner = _object(raw.get("planner", {}), "planner", problems)
    _keys(planner, {"risk_weight", "noise_weight", "depth", "beam"}, set(), "planner", problems)
    for key in ("depth", "beam"):
        _check_int(planner.get(key, 1), 1, f"planner.{key}", problems)
    for key in ("risk_weight", "noise_weight"):
        value = planner.get(key, 0.0)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"planner.{key}: {value!r} must be a number >= 0")

    collab = _object(raw.get("collaboration", {}), "collaboration", problems)
    _keys(collab, {"threshold", "report_interval", "propagation_threshold",
                   "communicate_noise", "negotiation_rounds", "fail_safe_streak"},
          set(), "collaboration", problems)
    for key in ("threshold", "propagation_threshold", "communicate_noise"):
        if key in collab:
            _check_fraction(collab[key], f"collaboration.{key}", problems)
    for key, minimum in (("report_interval", 1), ("negotiation_rounds", 0),
                         ("fail_safe_streak", 1)):
        if key in collab:
            _check_int(collab[key], minimum, f"collaboration.{key}", problems)

    c2 = _object(raw.get("c2", {}), "c2", problems)
    _keys(c2, {"host_id", "script"}, set(), "c2", problems)
    if c2 and _ident(c2, "host_id", "c2", problems) not in host_ids:
        problems.append(f"c2: unknown host {c2.get('host_id')!r}")
    agents = _objects(raw.get("agents", []), "agents", problems)
    agent_ids = [_ident(a, "agent_id", "agents", problems) for a in agents]
    for entry in _objects(c2.get("script", []), "c2.script", problems):
        _keys(entry, {"tick", "kind", "to", "payload"}, {"tick", "kind", "to"},
              f"c2 script at tick {entry.get('tick')!r}", problems)
        if entry.get("kind") not in _C2_KINDS:
            problems.append(f"c2 script: unknown message kind {entry.get('kind')!r}")
        if entry.get("to") not in agent_ids:
            problems.append(f"c2 script: unknown agent {entry.get('to')!r}")
        if entry.get("kind") == "ControlCommand":
            command = (entry.get("payload") or {}).get("command")
            if command not in _CONTROL_COMMANDS:
                problems.append(f"c2 script: unknown control command {command!r}")

    roster = _object(raw.get("roster", {}), "roster", problems)
    _keys(roster, {"hosts", "authorization_token"}, set(), "roster", problems)
    for hid in roster.get("hosts", []):
        if hid not in host_ids:
            problems.append(f"roster: unknown host {hid!r}")

    seen_agents: set[str] = set()
    for a, agent_id in zip(agents, agent_ids):
        _keys(a, {"agent_id", "host_id", "detectability"}, {"agent_id", "host_id"},
              f"agent {a.get('agent_id')!r}", problems)
        if agent_id in seen_agents:
            problems.append(f"agents: duplicate agent_id {agent_id!r}")
        seen_agents.add(agent_id)
        if a.get("host_id") not in host_ids:
            problems.append(f"agent {a.get('agent_id')!r}: unknown host {a.get('host_id')!r}")
        if "detectability" in a:
            _check_fraction(a["detectability"], f"agent {a.get('agent_id')!r}.detectability",
                            problems)

    for spec in hosts:
        resident = spec.get("resident_agent")
        if resident is not None and resident not in agent_ids:
            problems.append(
                f"host {spec.get('host_id')!r}: resident_agent {resident!r} not in agents")

    return problems
