"""Sensing pipeline, world-state maintenance and pattern matching.

The agent never reads the environment directly: everything it believes comes
through a three-stage pipeline (physical reads, logical aggregations,
normalizing transformers) where each stage consumes only the previous
stage's output. sense() takes the physical reads; update_world_state()
derives features from a fresh read, once per distinct set of rows a sensor
config sees, and is handed no rows when the agent has not read again.
Matching learned threshold patterns against the features is what triggers
planning.
"""

from __future__ import annotations

import fnmatch
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import copysign
from random import Random
from typing import Any, Callable, Iterable, Optional, Sequence

from .envsim import ChannelState, Environment, ServiceState, sum_in_order

# A predicate is (feature key, comparator, threshold); conjunctions are lists.
Predicate = tuple[str, str, Any]
FeatureDelta = tuple[str, str, Any]  # (feature key, "set"|"add", value)

_COMPARATORS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt,
                "==": operator.eq, "!=": operator.ne}


def predicate_holds(features: dict[str, Any], pred: Predicate) -> bool:
    key, cmp, threshold = pred
    return key in features and _COMPARATORS[cmp](features[key], threshold)


def all_hold(features: dict[str, Any], preds: Sequence[Predicate]) -> bool:
    for key, cmp, threshold in preds:
        if key not in features or not _COMPARATORS[cmp](features[key], threshold):
            return False
    return True


def feature_after_delta(current: Any, op: str, value: Any) -> Any:
    """A feature's value after one delta; `current` is 0.0 for a feature
    that is absent."""
    return value if op == "set" else current + value  # the other op is add


def apply_feature_delta(features: dict[str, Any], delta: FeatureDelta) -> None:
    key, op, value = delta
    features[key] = feature_after_delta(features.get(key, 0.0), op, value)


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

    @cached_property
    def summary(self) -> dict[str, Any]:
        """The trigger summary that assessment events and decisions carry:
        built once, shared by both, read by each."""
        return {"matched": [list(m) for m in self.matched], "top_severity": self.top_severity,
                "problematic": self.problematic}


@dataclass
class WorldState:
    """What an agent knows of its host: the features derived from its last
    read, plus its own values."""
    tick: int = 0
    features: dict[str, Any] = field(default_factory=dict)


@dataclass
class SensorConfig:
    physical: list[str] = field(default_factory=list)
    logical: list[str] = field(default_factory=list)
    transformers: list[str] = field(default_factory=list)
    noise: dict[str, float] = field(default_factory=dict)  # key glob -> half width
    # typed rows -> the features the logical and transformer stages derive
    # from them; a noisy config's rows are fresh draws, so it holds none
    derived: dict[tuple[Any, ...], dict[str, Any]] = field(
        default_factory=dict, init=False, repr=False, compare=False)


# A sensor emits (kind, entity id or None, value) rows; a row's key is the
# kind, or "kind:id" for a per-entity row. A stage keeps its rows by kind:
# {kind: value} or {kind: {id: value}}, so the next stage reads by kind.
Row = tuple[str, Optional[str], Any]
Stage = dict[str, Any]


# -- stage 1: physical reads --------------------------------------------------

def _phys_host_integrity(env: Environment, host_id: str) -> list[Row]:
    return [("host_integrity", None, env.hosts[host_id].integrity)]


def _phys_service_table(env: Environment, host_id: str) -> list[Row]:
    out: list[Row] = []
    for sid in sorted(env.hosts[host_id].services):
        svc = env.hosts[host_id].services[sid]
        out.append(("service_health", sid, svc.health))
        out.append(("service_up", sid, 1 if svc.state is ServiceState.UP else 0))
        out.append(("service_required", sid, 1 if svc.required else 0))
        out.append(("service_weight", sid, svc.weight))
    return out


def _phys_process_table(env: Environment, host_id: str) -> list[Row]:
    processes = env.hosts[host_id].processes
    return [("process_unknown", pid, 0 if processes[pid].known_good else 1)
            for pid in sorted(processes)]


def _phys_file_table(env: Environment, host_id: str) -> list[Row]:
    files = env.hosts[host_id].files
    return [("file_foreign", fid, 1 if files[fid].owner.value == "malware" else 0)
            for fid in sorted(files)]


def _phys_channel_state(env: Environment, host_id: str) -> list[Row]:
    out: list[Row] = []
    for ch in env.channels_adjacent(host_id):
        out.append(("channel_state", ch.channel_id, ch.state.value))
        out.append(("channel_healthy", ch.channel_id, 1 if ch.state is ChannelState.HEALTHY else 0))
    return out


_PHYSICAL_SENSORS = {
    "host_integrity": _phys_host_integrity,
    "service_table": _phys_service_table,
    "process_table": _phys_process_table,
    "file_table": _phys_file_table,
    "channel_state": _phys_channel_state,
}


def _copy(*kinds: str) -> Callable[[Stage], list[Row]]:
    """A logical sensor or transformer that passes the previous stage's rows
    of the given kinds through unchanged, kind by kind."""
    def copy(stage: Stage) -> list[Row]:
        out: list[Row] = []
        for kind in kinds:
            value = stage.get(kind)
            if isinstance(value, dict):
                out += [(kind, ident, v) for ident, v in value.items()]
            elif kind in stage:
                out.append((kind, None, value))
        return out
    return copy


# -- stage 2: logical aggregations ---------------------------------------------

def _log_unknown_proc_count(phys: Stage) -> list[Row]:
    return [("unknown_proc_count", None, sum_in_order(phys.get("process_unknown", {}).values()))]


def _log_foreign_file_count(phys: Stage) -> list[Row]:
    return [("foreign_file_count", None, sum_in_order(phys.get("file_foreign", {}).values()))]


def _log_channel_counts(phys: Stage) -> list[Row]:
    healthy = phys.get("channel_healthy", {})
    return [("channel_count", None, len(healthy)),
            ("channel_healthy_count", None, sum_in_order(healthy.values()))]


def _log_service_weights(phys: Stage) -> list[Row]:
    up = phys.get("service_up", {})
    weights = phys.get("service_weight", {})
    total = 0.0
    up_weight = 0.0
    for sid, required in phys.get("service_required", {}).items():
        if not required:
            continue
        weight = weights.get(sid, 0.0)
        total += weight
        if up.get(sid, 0):
            up_weight += weight
    return [("required_weight", None, total), ("required_up_weight", None, up_weight)]


_LOGICAL_SENSORS = {
    "unknown_proc_count": _log_unknown_proc_count,
    "foreign_file_count": _log_foreign_file_count,
    "channel_counts": _log_channel_counts,
    "service_weights": _log_service_weights,
    "host_integrity": _copy("host_integrity"),
    "service_health": _copy("service_health"),
    "channel_health": _copy("channel_healthy"),
}


# -- stage 3: normalizing transformers -----------------------------------------

def _tf_comms_integrity(logical: Stage) -> list[Row]:
    count = logical.get("channel_count", 0)
    if not count:
        return [("comms_integrity", None, 1.0)]
    return [("comms_integrity", None, logical.get("channel_healthy_count", 0) / count)]


def _tf_functionality_belief(logical: Stage) -> list[Row]:
    total = logical.get("required_weight", 0.0)
    if not total:
        return [("functionality_belief", None, 1.0)]
    return [("functionality_belief", None, logical.get("required_up_weight", 0.0) / total)]


_TRANSFORMERS = {
    "comms_integrity": _tf_comms_integrity,
    "functionality_belief": _tf_functionality_belief,
    "host_integrity": _copy("host_integrity"),
    "service_health": _copy("service_health"),
    "counts": _copy("unknown_proc_count", "foreign_file_count"),
    "channel_health": _copy("channel_healthy"),
}


def _perturb(key: str, value: Any, noise: dict[str, float], rng: Random) -> Any:
    """A numeric read plus uniform noise of the half width of the first glob
    matching its key, clamped to [0, 1]; other reads pass unchanged."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        hw = next((w for glob, w in noise.items() if fnmatch.fnmatchcase(key, glob)), 0.0)
        if hw > 0.0:
            return max(0.0, min(1.0, value + rng.uniform(-hw, hw)))
    return value


def _by_kind(rows: Iterable[Row]) -> Stage:
    """The physical rows keyed by kind for the logical stage, last writer wins."""
    stage: Stage = {}
    for kind, ident, value in rows:
        if ident is None:
            stage[kind] = value
        else:
            stage.setdefault(kind, {})[ident] = value
    return stage


def _fold(rows: Iterable[Row], out: dict[str, Any]) -> Stage:
    """Write each row to `out` under its key, last writer wins, and key the
    rows by kind for the next stage."""
    stage: Stage = {}
    for kind, ident, value in rows:
        if ident is None:
            stage[kind] = out[kind] = value
        else:
            stage.setdefault(kind, {})[ident] = out[f"{kind}:{ident}"] = value
    return stage


def _run_stage(sensors: dict[str, Callable[[Stage], list[Row]]], names: list[str],
               previous: Stage, out: dict[str, Any]) -> Stage:
    return _fold(chain.from_iterable(sensors[name](previous) for name in names), out)


def sense(env: Environment, host_id: str, config: SensorConfig, rng: Random) -> list[Row]:
    """The physical rows the agent resident on host_id reads, in sensor order.

    Noisy physical sensors perturb numeric reads (`_perturb`), drawing from
    the seeded stream in row order. Unsensed attributes are simply absent
    from the result.
    """
    rows = [row for name in config.physical for row in _PHYSICAL_SENSORS[name](env, host_id)]
    if config.noise:
        rows = [(kind, ident, _perturb(kind if ident is None else f"{kind}:{ident}", value,
                                       config.noise, rng)) for kind, ident, value in rows]
    return rows


def update_world_state(ws: WorldState, rows: Optional[list[Row]], config: SensorConfig,
                       tick: int, own: dict[str, Any]) -> bool:
    """Fold one pass into the world state at `tick`.

    `rows` is a fresh read, which counts as a change, or None when the
    agent's host has not changed since its last read, so the features still
    hold what that read derived. The logical and transformer stages derive
    features from the rows, then the agent's own values (`own`) are written
    to features, last writer wins per key. Each stage reads only the one
    before it, so the derived features depend on the rows alone. Rows are
    looked up in `config.derived`, which every world state fed by the config
    shares; the stages run only on a miss, and a noiseless config stores
    what they derived. The derived pairs are written in the order the stages
    write them, so keys and values are what the stages would leave.
    Returns whether any feature may have changed.
    """
    ws.tick = tick
    changed = rows is not None
    if changed:
        # the rows and their values' types, -0.0 apart from 0.0: the one pair
        # of finite values of one type that compare equal
        typed = None if config.noise else (tuple(rows), tuple([
            type(v) if v != 0 or copysign(1.0, v) > 0 else "-0.0" for _, _, v in rows]))
        derived = config.derived.get(typed)
        if derived is None:
            derived = {}
            logical = _run_stage(_LOGICAL_SENSORS, config.logical, _by_kind(rows), derived)
            _run_stage(_TRANSFORMERS, config.transformers, logical, derived)
            if typed is not None:
                config.derived[typed] = derived
        ws.features.update(derived)
    features = ws.features
    for key, value in own.items():
        if key not in features or type(features[key]) is not type(value) or features[key] != value:
            changed = True
        features[key] = value
    return changed


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
    # no match is no problem, even under a trigger threshold of 0
    return Assessment(matched=matched, problematic=bool(matched) and top >= trigger_threshold,
                      top_severity=top)


def effective_deadline(patterns: list[Pattern]) -> Optional[int]:
    """Most urgent deadline among the matched patterns; None means no time
    pressure."""
    deadlines = [p.deadline_ticks for p in patterns if p.deadline_ticks is not None]
    return min(deadlines) if deadlines else None
