"""Descriptor pipeline, world-state maintenance and pattern matching.

The agent never reads the environment directly: everything it believes comes
through sense(), a three-stage pipeline (physical reads, logical
aggregations, normalizing transformers) where each stage consumes only the
previous stage's output. Matching learned threshold patterns against the
derived features is what triggers planning.
"""

from __future__ import annotations

import fnmatch
from collections import deque
from dataclasses import dataclass, field
from random import Random
from typing import Any, Optional, Sequence

from .envsim import ChannelState, Environment, ServiceState
from .errors import PreconditionUnevaluable, StaleDescriptors

# A predicate is (feature key, comparator, threshold); conjunctions are lists.
Predicate = tuple[str, str, Any]
FeatureDelta = tuple[str, str, Any]  # (feature key, "set"|"add", value)

_COMPARATORS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def predicate_holds(features: dict[str, Any], pred: Predicate, strict: bool = False) -> bool:
    key, cmp, threshold = pred
    if key not in features:
        if strict:
            raise PreconditionUnevaluable(f"feature {key!r} absent")
        return False
    return _COMPARATORS[cmp](features[key], threshold)


def all_hold(features: dict[str, Any], preds: Sequence[Predicate], strict: bool = False) -> bool:
    return all(predicate_holds(features, p, strict=strict) for p in preds)


def feature_after_delta(current: Any, op: str, value: Any) -> Any:
    """A feature's value after one delta; `current` is 0.0 for a feature
    that is absent."""
    if op == "set":
        return value
    if op == "add":
        return current + value
    raise ValueError(f"unknown feature delta op {op!r}")


def apply_feature_delta(features: dict[str, Any], delta: FeatureDelta) -> None:
    key, op, value = delta
    features[key] = feature_after_delta(features.get(key, 0.0), op, value)


@dataclass(frozen=True)
class Descriptor:
    source: str
    key: str
    value: Any
    tick: int


@dataclass
class Pattern:
    pattern_id: str
    predicates: list[Predicate]
    severity: float
    confidence: float
    progression: list[FeatureDelta] = field(default_factory=list)
    deadline_ticks: Optional[int] = None

    def matches(self, ws: "WorldState") -> bool:
        return all_hold(ws.features, self.predicates)


@dataclass
class Assessment:
    matched: list[tuple[str, float, float]]  # (pattern_id, severity, confidence)
    problematic: bool
    top_severity: float


HISTORY_DEPTH = 64


@dataclass
class WorldState:
    tick: int = 0
    beliefs: dict[str, Any] = field(default_factory=dict)
    features: dict[str, Any] = field(default_factory=dict)
    history: deque = field(default_factory=lambda: deque(maxlen=HISTORY_DEPTH))


@dataclass
class SensorConfig:
    physical: list[str] = field(default_factory=list)
    logical: list[str] = field(default_factory=list)
    transformers: list[str] = field(default_factory=list)
    noise: dict[str, float] = field(default_factory=dict)  # key glob -> half width


# -- stage 1: physical reads --------------------------------------------------

def _phys_host_integrity(env: Environment, host_id: str) -> list[tuple[str, Any]]:
    return [("host_integrity", env.hosts[host_id].integrity)]


def _phys_service_table(env: Environment, host_id: str) -> list[tuple[str, Any]]:
    out: list[tuple[str, Any]] = []
    for sid in sorted(env.hosts[host_id].services):
        svc = env.hosts[host_id].services[sid]
        out.append((f"service_health:{sid}", svc.health))
        out.append((f"service_up:{sid}", 1 if svc.state is ServiceState.UP else 0))
        out.append((f"service_required:{sid}", 1 if svc.required else 0))
        out.append((f"service_weight:{sid}", svc.weight))
    return out


def _phys_process_table(env: Environment, host_id: str) -> list[tuple[str, Any]]:
    out: list[tuple[str, Any]] = []
    for pid in sorted(env.hosts[host_id].processes):
        proc = env.hosts[host_id].processes[pid]
        out.append((f"process_unknown:{pid}", 0 if proc.known_good else 1))
    return out


def _phys_file_table(env: Environment, host_id: str) -> list[tuple[str, Any]]:
    out: list[tuple[str, Any]] = []
    for fid in sorted(env.hosts[host_id].files):
        entry = env.hosts[host_id].files[fid]
        out.append((f"file_foreign:{fid}", 1 if entry.owner.value == "malware" else 0))
    return out


def _phys_channel_state(env: Environment, host_id: str) -> list[tuple[str, Any]]:
    out: list[tuple[str, Any]] = []
    for ch in env.channels_adjacent(host_id):
        out.append((f"channel_state:{ch.channel_id}", ch.state.value))
        out.append((f"channel_healthy:{ch.channel_id}", 1 if ch.state is ChannelState.HEALTHY else 0))
    return out


_PHYSICAL_SENSORS = {
    "host_integrity": _phys_host_integrity,
    "service_table": _phys_service_table,
    "process_table": _phys_process_table,
    "file_table": _phys_file_table,
    "channel_state": _phys_channel_state,
}


# -- stage 2: logical aggregations ---------------------------------------------

def _log_unknown_proc_count(phys: dict[str, Any]) -> list[tuple[str, Any]]:
    return [("unknown_proc_count",
             sum(v for k, v in phys.items() if k.startswith("process_unknown:")))]


def _log_foreign_file_count(phys: dict[str, Any]) -> list[tuple[str, Any]]:
    return [("foreign_file_count",
             sum(v for k, v in phys.items() if k.startswith("file_foreign:")))]


def _log_required_down_count(phys: dict[str, Any]) -> list[tuple[str, Any]]:
    count = 0
    for key, req in phys.items():
        if not key.startswith("service_required:") or not req:
            continue
        sid = key.split(":", 1)[1]
        if not phys.get(f"service_up:{sid}", 0):
            count += 1
    return [("required_down_count", count)]


def _log_channel_counts(phys: dict[str, Any]) -> list[tuple[str, Any]]:
    states = [k for k in phys if k.startswith("channel_healthy:")]
    return [("channel_count", len(states)),
            ("channel_healthy_count", sum(phys[k] for k in states))]


def _log_service_weights(phys: dict[str, Any]) -> list[tuple[str, Any]]:
    total = 0.0
    up = 0.0
    for key, req in phys.items():
        if not key.startswith("service_required:") or not req:
            continue
        sid = key.split(":", 1)[1]
        weight = phys.get(f"service_weight:{sid}", 0.0)
        total += weight
        if phys.get(f"service_up:{sid}", 0):
            up += weight
    return [("required_weight", total), ("required_up_weight", up)]


def _log_host_integrity(phys: dict[str, Any]) -> list[tuple[str, Any]]:
    if "host_integrity" in phys:
        return [("host_integrity", phys["host_integrity"])]
    return []


def _log_service_health(phys: dict[str, Any]) -> list[tuple[str, Any]]:
    return [(k, v) for k, v in phys.items() if k.startswith("service_health:")]


def _log_channel_health(phys: dict[str, Any]) -> list[tuple[str, Any]]:
    return [(k, v) for k, v in phys.items() if k.startswith("channel_healthy:")]


_LOGICAL_SENSORS = {
    "unknown_proc_count": _log_unknown_proc_count,
    "foreign_file_count": _log_foreign_file_count,
    "required_down_count": _log_required_down_count,
    "channel_counts": _log_channel_counts,
    "service_weights": _log_service_weights,
    "host_integrity": _log_host_integrity,
    "service_health": _log_service_health,
    "channel_health": _log_channel_health,
}


# -- stage 3: normalizing transformers -----------------------------------------

def _tf_comms_integrity(logical: dict[str, Any]) -> list[tuple[str, Any]]:
    count = logical.get("channel_count", 0)
    if not count:
        return [("comms_integrity", 1.0)]
    return [("comms_integrity", logical.get("channel_healthy_count", 0) / count)]


def _tf_functionality_belief(logical: dict[str, Any]) -> list[tuple[str, Any]]:
    total = logical.get("required_weight", 0.0)
    if not total:
        return [("functionality_belief", 1.0)]
    return [("functionality_belief", logical.get("required_up_weight", 0.0) / total)]


def _tf_host_integrity(logical: dict[str, Any]) -> list[tuple[str, Any]]:
    if "host_integrity" in logical:
        return [("host_integrity", logical["host_integrity"])]
    return []


def _tf_service_health(logical: dict[str, Any]) -> list[tuple[str, Any]]:
    return [(k, v) for k, v in logical.items() if k.startswith("service_health:")]


def _tf_counts(logical: dict[str, Any]) -> list[tuple[str, Any]]:
    keys = ("unknown_proc_count", "foreign_file_count", "required_down_count")
    return [(k, logical[k]) for k in keys if k in logical]


def _tf_channel_health(logical: dict[str, Any]) -> list[tuple[str, Any]]:
    return [(k, v) for k, v in logical.items() if k.startswith("channel_healthy:")]


_TRANSFORMERS = {
    "comms_integrity": _tf_comms_integrity,
    "functionality_belief": _tf_functionality_belief,
    "host_integrity": _tf_host_integrity,
    "service_health": _tf_service_health,
    "counts": _tf_counts,
    "channel_health": _tf_channel_health,
}


def _noise_half_width(key: str, noise: dict[str, float]) -> float:
    for pattern, half_width in noise.items():
        if fnmatch.fnmatchcase(key, pattern):
            return half_width
    return 0.0


def sense(env: Environment, host_id: str, config: SensorConfig, rng: Random) -> list[Descriptor]:
    """Run the three-stage pipeline for the agent resident on host_id.

    Noisy physical sensors perturb numeric reads with additive uniform noise
    (configured half width per key glob), drawn from the seeded stream in
    key order. Unsensed attributes are simply absent from the result.
    """
    tick = max(env.tick, 0)
    descriptors: list[Descriptor] = []

    phys: dict[str, Any] = {}
    for name in config.physical:
        for key, value in _PHYSICAL_SENSORS[name](env, host_id):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                hw = _noise_half_width(key, config.noise)
                if hw > 0.0:
                    value = max(0.0, min(1.0, value + rng.uniform(-hw, hw)))
            phys[key] = value
            descriptors.append(Descriptor(f"physical:{name}", key, value, tick))

    logical: dict[str, Any] = {}
    for name in config.logical:
        for key, value in _LOGICAL_SENSORS[name](phys):
            logical[key] = value
            descriptors.append(Descriptor(f"logical:{name}", key, value, tick))

    for name in config.transformers:
        for key, value in _TRANSFORMERS[name](logical):
            descriptors.append(Descriptor(f"transformer:{name}", key, value, tick))

    return descriptors


def update_world_state(ws: WorldState, descriptors: list[Descriptor]) -> WorldState:
    """Fold a sensing pass into the world state.

    Physical descriptors land in beliefs, derived ones in features, last
    writer wins per key. The previous summary is pushed into the bounded
    history even for an empty pass.
    """
    for d in descriptors:
        if d.tick < ws.tick:
            raise StaleDescriptors(f"descriptor {d.key!r} from tick {d.tick} < {ws.tick}")
    ws.history.append({"tick": ws.tick, "features": dict(ws.features)})
    new_tick = max((d.tick for d in descriptors), default=ws.tick + 1)
    for d in descriptors:
        if d.source.startswith("physical:"):
            ws.beliefs[d.key] = d.value
        else:
            ws.features[d.key] = d.value
    ws.tick = new_tick
    return ws


def identify(ws: WorldState, patterns: list[Pattern], trigger_threshold: float) -> Assessment:
    """Match patterns against the current features.

    Pure in (ws, patterns, threshold). Matches are sorted by severity
    descending, ties by pattern_id ascending.
    """
    matched = sorted(
        ((p.pattern_id, p.severity, p.confidence) for p in patterns if p.matches(ws)),
        key=lambda m: (-m[1], m[0]),
    )
    top = matched[0][1] if matched else 0.0
    return Assessment(matched=matched, problematic=top >= trigger_threshold, top_severity=top)


def matched_patterns(assessment: Assessment, patterns: list[Pattern]) -> list[Pattern]:
    by_id = {p.pattern_id: p for p in patterns}
    return [by_id[m[0]] for m in assessment.matched if m[0] in by_id]


def progression_deltas(assessment: Assessment, patterns: list[Pattern]) -> list[FeatureDelta]:
    """Per-tick threat drift implied by the matched patterns."""
    deltas: list[FeatureDelta] = []
    for p in matched_patterns(assessment, patterns):
        deltas.extend(p.progression)
    return deltas


def effective_deadline(assessment: Assessment, patterns: list[Pattern]) -> Optional[int]:
    """Most urgent deadline among matched patterns; None means no time pressure."""
    deadlines = [p.deadline_ticks for p in matched_patterns(assessment, patterns)
                 if p.deadline_ticks is not None]
    return min(deadlines) if deadlines else None
