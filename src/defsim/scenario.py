"""Scenario file loading and validation.

One JSON document describes an episode: platform topology, malware playbook,
sensors and patterns, the agent's repertoire/goals/rules-of-engagement,
planner settings, the C2 script, the friendly roster and run bookkeeping.

The table ``SCENARIO`` is the reference for the format. For each field it
gives the type, the range, the default and the id namespace the value must
name. One walk checks a document against it and fills in the defaults; then
``_cross_rules``, the few rules that span fields or records, run on the result.
Each problem names where it is in the document, and nothing is built from a
document with a problem.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .adversary import MalwareInstance, MalwarePhase, Playbook, PlaybookStep
from .collaboration import FriendlyRoster
from .envsim import (ChannelState, CommsChannel, EffectDescriptor, Environment, FileEntry, Host,
                     Owner, Process, Service, sum_in_order)
from .errors import ConfigInvalid, canonical_json, read_json
from .planning import (BUILTIN_ACTIONS, ActionCategory, ActionSpec, ConditionActionRule, Goal,
                       PlannerConfig, ProbabilisticEffect, RulesOfEngagement, TargetScope,
                       normalize_goals)
from .sensing import _LOGICAL_SENSORS, _PHYSICAL_SENSORS, _TRANSFORMERS, Pattern, SensorConfig


# -- the walk -----------------------------------------------------------------

REQUIRED = object()  # default of a key that must be present
OMITTED = object()  # default of a key that stays absent: its reader has its own


def _where(path: Any) -> str:
    """A path as text. The walk keeps a path as a label or a (parent path,
    key) pair, and turns it into text only for a problem."""
    if type(path) is str:
        return path
    parent, key = path
    if parent is None:
        return key
    return f"{_where(parent)}[{key}]" if type(key) is int else f"{_where(parent)}.{key}"


class _Walk:
    """What one walk of a document collects."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.ids: defaultdict[str, set[Any]] = defaultdict(set)  # namespace -> ids
        # (path of the referring record, namespace, id, what the id names)
        self.refs: list[tuple[Any, str, Any, str]] = []
        self.record: Any = "scenario"  # path of the record being walked
        self.scope = ""  # id of the named record that scopes per-host ids

    def problem(self, path: Any, text: str) -> None:
        self.problems.append(f"{_where(path)}: {text}")

    def bad(self, path: Any, value: Any, desc: str) -> Any:
        self.problems.append(f"{_where(path)} must be {desc}, not {value!r}")
        return value

    def bad_shape(self, path: Any, value: Any, desc: str) -> Any:
        self.problem(path, f"{value!r} must be {desc}")
        return value


class Spec:
    """A node of the table; the base class accepts any value."""

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        """`value`, found at `key` of `parent`, with every default filled in;
        each problem goes to `walk`."""
        return value


class Scalar(Spec):
    """A value of one of `types` (a bool is not an int here), in [lo, hi]
    when given."""

    def __init__(self, desc: str, *types: type, lo: Any = None, hi: Any = None):
        self.desc, self.types, self.lo, self.hi = desc, types, lo, hi

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        if type(value) in self.types and (self.lo is None or self.lo <= value <= self.hi):
            return value
        return walk.bad((parent, key), value, self.desc)


def _number(desc: str, lo: float = -sys.float_info.max, hi: float = sys.float_info.max,
            types: tuple[type, ...] = (int, float)) -> Scalar:
    """A number in [lo, hi]. The default bounds are the largest floats, which
    also rule out NaN, the infinities and integers no float can hold."""
    return Scalar(desc, *types, lo=lo, hi=hi)


class OneOf(Spec):
    def __init__(self, values: Any, what: str):
        self.values, self.what = frozenset(getattr(v, "value", v) for v in values), what

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        if type(value) is not str or value not in self.values:
            walk.problem((parent, key), f"unknown {self.what} {value!r}")
        return value


class Maybe(Spec):
    """null, or a value of `spec`."""

    def __init__(self, spec: Spec):
        self.spec = spec

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        return value if value is None else self.spec.check(value, parent, key, walk)


class Ref(Spec):
    """The id of a record in namespace `ns`, resolved once the walk has seen
    every record."""

    def __init__(self, ns: str, label: str = ""):
        self.ns, self.label = ns, label or ns

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        if type(value) is not str:
            return walk.bad((parent, key), value, "a string")
        walk.refs.append((walk.record, self.ns, value, self.label))
        return value


# The containers loop instead of using comprehensions: a comprehension's own
# frame costs more than most of the short lists in a scenario.

class List(Spec):
    def __init__(self, item: Spec):
        self.item = item

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        path = (parent, key)
        if type(value) is not list:
            return walk.bad_shape(path, value, "a list")
        check, out = self.item.check, []
        for i, v in enumerate(value):
            out.append(check(v, path, i, walk))
        return out


class Tuple(Spec):
    """A list of fixed length with one spec per position."""

    def __init__(self, desc: str, *items: Spec):
        self.desc, self.checks = desc, [spec.check for spec in items]

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        path = (parent, key)
        if type(value) is not list or len(value) != len(self.checks):
            return walk.bad_shape(path, value, self.desc)
        out = value.copy()
        for i, check in enumerate(self.checks):
            out[i] = check(value[i], path, i, walk)
        return out


class Map(Spec):
    """An object with free keys and values of one spec."""

    def __init__(self, item: Spec):
        self.item = item

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        path = (parent, key)
        if type(value) is not dict:
            return walk.bad_shape(path, value, "an object")
        check, out = self.item.check, {}
        for k, v in value.items():
            out[k] = check(v, path, k, walk)
        return out


Field = tuple[Spec, Any]  # (spec, default); a list or object default is walked like a value


# An id is one name of a target string (envsim.EffectDescriptor): it holds no
# ":" and is none of the names that a target gives a meaning.
_TARGET_WORDS = ("$self", "@unknown", "@foreign")
_ID_DESC = "a string without ':' other than '$self', '@unknown' and '@foreign'"


def _is_id(value: Any) -> bool:
    return type(value) is str and ":" not in value and value not in _TARGET_WORDS


class Name(Spec):
    """An id that names no record, such as the file a playbook step creates."""

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        return value if _is_id(value) else walk.bad((parent, key), value, _ID_DESC)


class Record(Spec):
    """An object with the given fields. A record of a `kind` is named by its
    field `id`, a string unique among the records of that kind (per host when
    `scoped`); problems inside it are reported at "<kind> '<id>'"."""

    def __init__(self, fields: dict[str, Field], kind: str = "", id: str = "",
                 scoped: bool = False):
        self.kind, self.id, self.scoped = kind, id, scoped
        self.checks = {k: spec.check for k, (spec, _) in fields.items()}
        self.defaults = [(k, spec.check, d, type(d) in (list, dict))
                         for k, (spec, d) in fields.items() if d is not OMITTED]

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        path = (parent, key)
        if type(value) is not dict:
            return walk.bad_shape(path, value, "an object")
        if self.id and self.id in value:
            path = self._name(value[self.id], path, walk)
        outer, walk.record = walk.record, path
        out, checks = {}, self.checks
        for name, item in value.items():
            check = checks.get(name)
            if check is None:
                walk.problem(path, f"unknown field {name!r}")
            else:
                out[name] = check(item, path, name, walk)
        if len(out) < len(checks):
            for name, check, default, walked in self.defaults:
                if name in out:
                    continue
                if default is REQUIRED:
                    walk.problem(path, f"missing field {name!r}")
                else:  # a fresh copy of a list or object, with its own defaults
                    out[name] = check(default, path, name, walk) if walked else default
        walk.record = outer
        return out

    def _name(self, ident: Any, path: Any, walk: _Walk) -> Any:
        if not _is_id(ident):
            walk.problem(path, f"{self.id} {ident!r} must be {_ID_DESC}")
            return path
        key = (walk.scope, ident) if self.scoped else ident
        if key in walk.ids[self.kind]:
            walk.problem(path, f"duplicate {self.id} {ident!r}")
            return path
        walk.ids[self.kind].add(key)
        if not self.scoped:
            walk.scope = ident
        return f"{self.kind} {ident!r}"


class Switch(Spec):
    """An object whose field `key` picks the record it must be. The cases
    given as fields share the `common` ones; a case given as a Spec is used as
    it is."""

    def __init__(self, key: str, what: str, common: dict[str, Field],
                 cases: dict[str, dict[str, Field] | Spec]):
        self.key, self.what = key, what
        self.cases = {value: fields if isinstance(fields, Spec)
                      else Record({key: (ANY, REQUIRED), **common, **fields})
                      for value, fields in cases.items()}

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        if type(value) is not dict:
            return walk.bad_shape((parent, key), value, "an object")
        case = value.get(self.key)
        spec = self.cases.get(case) if type(case) is str else None
        if spec is None:
            walk.problem((parent, key), f"unknown {self.what} {case!r}" if self.key in value
                         else f"missing field {self.key!r}")
            return value
        return spec.check(value, parent, key, walk)


class EnvEffect(Spec):
    """An action's effect on the platform (``envsim.EffectDescriptor``). The
    names in its target resolve against the topology, where ``$self`` stands
    for the acting agent's host; the target's kind and the attribute give the
    operations, and the operation gives the value."""

    def check(self, value: Any, parent: Any, key: Any, walk: _Walk) -> Any:
        before = len(walk.problems)
        out = _ENV_FIELDS.check(value, parent, key, walk)
        if len(walk.problems) > before:
            return out
        path = (parent, key)
        kind, *names = out["target"].split(":")
        namespaces = _TARGET_NAMES.get(kind)
        if namespaces is None or len(names) != len(namespaces):
            return walk.bad((path, "target"), out["target"], "a target such as host:<host id>, "
                            "service:<host id>:<service id> or channel:<channel id>")
        for name, ns in zip(names, namespaces):
            if ns is None or (ns in ("host", "service") and names[0] == "$self"):
                continue  # any name, or one on the acting agent's host
            walk.refs.append(((path, "target"), ns,
                              (names[0], name) if ns == "service" else name, ns))
        operations = _ENV_OPERATIONS.get((kind, out["attribute"]))
        if operations is None:
            walk.problem((path, "attribute"),
                         f"unknown attribute {out['attribute']!r} of {kind} targets")
        elif out["operation"] not in operations:
            walk.problem((path, "operation"), f"unknown operation {out['operation']!r} "
                         f"of {kind} attribute {out['attribute']!r}")
        else:
            out["value"] = operations[out["operation"]].check(out["value"], path, "value", walk)
        return out


# -- the table ----------------------------------------------------------------

ANY = Spec()
ID = (ANY, REQUIRED)  # checked by the record it names
STR = Scalar("a string", str)
BOOL = Scalar("true or false", bool)
NULL = Scalar("null", type(None))
NUMBER = _number("a finite number")
NONNEGATIVE = _number("a number >= 0", lo=0)
POSITIVE = _number("positive", lo=math.nextafter(0.0, 1.0))
FRACTION = _number("a fraction in [0, 1]", lo=0, hi=1)
INTEGER = _number("an integer", types=(int,))
COUNT = _number("an integer >= 0", lo=0, types=(int,))
AT_LEAST_ONE = _number("an integer >= 1", lo=1, types=(int,))
CATEGORY = OneOf(ActionCategory, "category")
CHANNEL_STATE = OneOf(ChannelState, "state")
OWNER = OneOf(Owner, "owner")
# every world-state feature is an int or a float, so thresholds and deltas are numbers
PREDICATE = Tuple("a [key, comparator, value] list",
                  STR, OneOf((">=", "<=", ">", "<", "==", "!="), "comparator"), NUMBER)
DELTA = Tuple("a [key, op, value] list", STR, OneOf(("set", "add"), "delta op"), NUMBER)
HOST = Ref("host")

_ENV_FIELDS = Record({"target": (STR, REQUIRED), "attribute": (STR, ""),
                      "operation": (STR, REQUIRED), "value": (ANY, None)})
# what an agent action may do to the platform; the adversary builds its own effects
# target kind -> namespace of each name after the kind; None: any name
_TARGET_NAMES: dict[str, tuple[Optional[str], ...]] = {
    "host": ("host",), "service": ("host", "service"), "process": ("host", None),
    "file": ("host", None), "channel": ("channel",)}
_NUMERIC = {"set": NUMBER, "add": NUMBER}  # the result clamps to [0, 1]
# (target kind, attribute) -> {operation: value}
_ENV_OPERATIONS: dict[tuple[str, str], dict[str, Spec]] = {
    ("host", "integrity"): _NUMERIC,
    ("service", "health"): _NUMERIC,
    ("process", ""): {"kill": NULL},  # a named pid or @unknown
    ("file", ""): {"remove": NULL},  # a named fid or @foreign
    ("channel", "state"): {"set": CHANNEL_STATE},
}

TOPOLOGY = Record({
    "thresholds": (Record({"up_threshold": (FRACTION, 0.8),
                           "down_threshold": (FRACTION, 0.3)}), {}),
    "hosts": (List(Record({
        "host_id": ID, "friendly": (BOOL, True), "integrity": (FRACTION, 1.0),
        "services": (List(Record({
            "service_id": ID, "required": (BOOL, False), "weight": (POSITIVE, 1.0),
            "health": (FRACTION, 1.0)}, "service", "service_id", scoped=True)), []),
        "processes": (List(Record({
            "process_id": ID, "image_hash": (STR, "sys"), "known_good": (BOOL, True),
            "owner": (OWNER, "system")}, "process", "process_id", scoped=True)), []),
        "files": (List(Record({"file_id": ID, "owner": (OWNER, "system")},
                              "file", "file_id", scoped=True)), []),
    }, "host", "host_id")), REQUIRED),
    "channels": (List(Record({
        "channel_id": ID,
        "endpoints": (Tuple("a [host, host] list", Ref("host", "endpoint"),
                            Ref("host", "endpoint")), REQUIRED),
        "state": (CHANNEL_STATE, "healthy"),
        "drop_probability": (FRACTION, 0.0),
        "delay_ticks": (COUNT, 0),
    }, "channel", "channel_id")), []),
})

_STEP_HOST = {"host": (HOST, OMITTED)}  # absent: the instance's host
# the kinds adversary._trigger_holds reads
_TRIGGER = Switch("kind", "trigger", {}, {
    "host_integrity_below": {"host": (HOST, REQUIRED), "value": (NUMBER, REQUIRED)}})
_STEP = Switch("action", "action", {
    "tick": (COUNT, REQUIRED),
    "instance_id": (Maybe(Ref("instance")), None),  # null: the first listed instance
    "trigger": (Maybe(_TRIGGER), None),
}, {  # an absent amount is the playbook's degradation_amount
    "advance_phase": {"params": (Record({}), {})},
    "create_file": {"params": (Record({"file_id": (Name(), OMITTED), **_STEP_HOST}), {})},
    "set_channel": {"params": (Record({
        "channel": (Ref("channel"), REQUIRED), "state": (CHANNEL_STATE, REQUIRED)}), REQUIRED)},
    "degrade_service": {"params": (Record({
        "service": (STR, REQUIRED), "amount": (FRACTION, OMITTED), **_STEP_HOST}), REQUIRED)},
    "degrade_host": {"params": (Record({"amount": (FRACTION, OMITTED), **_STEP_HOST}), {})},
    "move_lateral": {"params": (Record({"target_host": (HOST, REQUIRED)}), REQUIRED)},
})

_RULE_FIELDS: dict[str, Field] = {
    "rule_id": ID, "condition": (List(PREDICATE), []), "action_id": (Ref("action"), REQUIRED),
    "priority": (INTEGER, REQUIRED)}
_ROE_FIELDS: dict[str, Field] = {
    "max_plan_risk": (FRACTION, 1.0), "destructive_only_on_residence": (BOOL, True),
    "forbidden_categories": (List(CATEGORY), []), "fast_deadline_ticks": (COUNT, 0)}
_COMMAND = Switch("command", "control command", {}, {
    # an unknown goal is rejected when the command arrives, as in the trace
    "set_goal_weight": {"goal_id": (STR, REQUIRED), "weight": (POSITIVE, REQUIRED)},
    "set_roe": Switch("field", "roe field", {"command": ID}, {
        name: {"value": (spec, REQUIRED)} for name, (spec, _) in _ROE_FIELDS.items()}),
    "add_rule": {"rule": (Record({**_RULE_FIELDS, "rule_id": (STR, REQUIRED)}), REQUIRED)},
    "add_pattern_example": {"features": (Map(NUMBER), REQUIRED),
                            "label": (OneOf(("compromised", "clean"), "label"), REQUIRED)},
    "fail_safe": {},
})
_C2_ENTRY = Switch("kind", "message kind", {
    "tick": (COUNT, REQUIRED), "to": (Ref("agent"), REQUIRED),
}, {
    "ControlCommand": {"payload": (_COMMAND, REQUIRED)},
    **{kind: {"payload": (Record({}), {})}
       for kind in ("HandoverGrant", "HandoverReturn", "RequestConclusions")},
})

SCENARIO = Record({
    "schema_version": (_number("1", lo=1, hi=1, types=(int,)), REQUIRED),
    "name": (STR, "unnamed"),
    "duration_ticks": (AT_LEAST_ONE, REQUIRED),
    "training": (BOOL, False),
    "seeds": (List(INTEGER), []),  # informational: `defsim batch` takes --seeds
    "trigger_threshold": (FRACTION, 0.5),
    "topology": (TOPOLOGY, REQUIRED),
    "playbook": (Record({
        "instances": (List(Record({
            "instance_id": ID, "host_id": (HOST, REQUIRED),
            "phase": (OneOf(MalwarePhase, "phase"), "Dormant"),
            "hunt_intensity": (FRACTION, OMITTED),  # absent: the playbook's hunt_intensity
        }, "instance", "instance_id")), []),
        "steps": (List(_STEP), []),
        "fallback": (BOOL, True),
        "hunt_intensity": (FRACTION, 0.5),
        "spoof_probability": (FRACTION, 0.5),
        "degradation_amount": (FRACTION, 0.2),
        "max_instances": (COUNT, 8),
    }), {}),
    "sensors": (Record({
        "physical": (List(OneOf(_PHYSICAL_SENSORS, "sensor")), []),
        "logical": (List(OneOf(_LOGICAL_SENSORS, "sensor")), []),
        "transformers": (List(OneOf(_TRANSFORMERS, "transformer")), []),
        "noise": (Map(NONNEGATIVE), {}),  # key glob -> half width
    }), {}),
    "patterns": (List(Record({
        "id": ID, "predicates": (List(PREDICATE), []), "severity": (FRACTION, REQUIRED),
        "confidence": (FRACTION, REQUIRED), "progression": (List(DELTA), []),
        "deadline_ticks": (Maybe(COUNT), None),
    }, "pattern", "id")), []),
    "repertoire": (List(Record({
        "action_id": ID,
        "category": (CATEGORY, REQUIRED),
        "preconditions": (List(PREDICATE), []),
        "effects": (List(Record({
            "env": (Maybe(EnvEffect()), None), "features": (List(DELTA), []),
            "probability": (FRACTION, 1.0), "expect": (List(PREDICATE), []),
        })), []),
        "risk": (FRACTION, 0.0),
        "noise": (FRACTION, 0.0),
        "duration": (AT_LEAST_ONE, 1),
        "target_scope": (OneOf(TargetScope, "target_scope"), "self_host"),
        "preparation": (List(STR), []),
        "builtin": (Maybe(OneOf(("snapshot", "restore", "verify", "propagate"), "builtin")),
                    None),
        "target_host": (Maybe(HOST), None),
    }, "action", "action_id")), []),
    "goals": (List(Record({"goal_id": ID, "predicates": (List(PREDICATE), []),
                           "weight": (POSITIVE, REQUIRED)}, "goal", "goal_id")), []),
    "roe": (Record(_ROE_FIELDS), {}),
    "rules": (List(Record(_RULE_FIELDS, "rule", "rule_id")), []),
    "planner": (Record({"risk_weight": (NONNEGATIVE, 1.0), "noise_weight": (NONNEGATIVE, 0.5),
                        "depth": (AT_LEAST_ONE, 3), "beam": (AT_LEAST_ONE, 5)}), {}),
    "collaboration": (Record({
        "threshold": (FRACTION, 0.6), "report_interval": (AT_LEAST_ONE, 10),
        "propagation_threshold": (FRACTION, 0.3), "communicate_noise": (FRACTION, 0.05),
        "negotiation_rounds": (COUNT, 3), "fail_safe_streak": (AT_LEAST_ONE, 20),
    }), {}),
    "c2": (Maybe(Record({"host_id": (HOST, REQUIRED), "script": (List(_C2_ENTRY), [])})), None),
    "roster": (Record({"hosts": (List(HOST), []), "authorization_token": (STR, "")}), {}),
    "agents": (List(Record({"agent_id": ID, "host_id": (HOST, REQUIRED),
                            "detectability": (FRACTION, 0.1)}, "agent", "agent_id")), []),
})


# -- rules that span fields or records ----------------------------------------

_REPLICA_SUFFIX = re.compile(r"_r[0-9]+$")  # a replica is named <parent id>_r<n>


def _cross_rules(doc: dict[str, Any], ids: dict[str, set[Any]], problems: list[str]) -> None:
    """The rules that span fields or records, on a document of the table's shape."""
    topo, pb = doc["topology"], doc["playbook"]
    if not topo["thresholds"]["down_threshold"] < topo["thresholds"]["up_threshold"]:
        problems.append("topology.thresholds: require 0 <= down_threshold < up_threshold <= 1")
    if not any(s["required"] for h in topo["hosts"] for s in h["services"]):
        problems.append("topology: at least one required service is needed for functionality")
    # weights are positive, so a finite total keeps each partial sum finite: this covers
    # functionality, functionality_belief and normalize_goals
    for where, weights in (("topology.hosts", [s["weight"] for h in topo["hosts"]
                                               for s in h["services"] if s["required"]]),
                           ("scenario.goals", [g["weight"] for g in doc["goals"]])):
        if not math.isfinite(sum_in_order(weights)):
            problems.append(f"{where}: the weights sum past the largest float")
    for h in topo["hosts"]:
        for index, p in enumerate(h["processes"]):
            if p["owner"] == "malware" and p["known_good"]:
                problems.append(f"process {p['process_id']!r}: malware owner requires "
                                "known_good=false")
            if p["process_id"].startswith("agent_proc_"):  # install_agent would replace it
                problems.append(f"host {h['host_id']!r}.processes[{index}]: the prefix 'agent_proc_' "
                                f"of process_id {p['process_id']!r} is taken by agents' processes")
    held: dict[str, str] = {}  # host -> its agent: the adversary hunts a host's one resident
    for a in doc["agents"]:
        if held.setdefault(a["host_id"], a["agent_id"]) != a["agent_id"]:
            problems.append(f"agent {a['agent_id']!r}: host {a['host_id']!r} already holds "
                            f"agent {held[a['host_id']]!r}")
    # messages from the remote center carry the sender "c2"
    if "c2" in ids["agent"]:
        problems.append("agent 'c2': id is taken by the remote center")
    for kind, records, key in (("agent", doc["agents"], "agent_id"),
                               ("instance", pb["instances"], "instance_id")):
        for record in records:
            base = record[key]
            while match := _REPLICA_SUFFIX.search(base):
                base = base[:match.start()]
                if base in ids[kind]:
                    problems.append(f"{kind} {record[key]!r}: id is taken by a replica of "
                                    f"{kind} {base!r}")
                    break
    for c in topo["channels"]:
        if c["state"] == "healthy" and (c["drop_probability"] or c["delay_ticks"]):
            problems.append(f"channel {c['channel_id']!r}: healthy implies "
                            "drop_probability=0 and delay_ticks=0")
    instance_hosts = {i["instance_id"]: i["host_id"] for i in pb["instances"]}
    default_instance = next(iter(instance_hosts), None)  # as build_playbook picks it
    for index, step in enumerate(pb["steps"]):
        instance = step["instance_id"] if step["instance_id"] is not None else default_instance
        if instance is None:
            problems.append(f"scenario.playbook.steps[{index}]: no instance_id and no instance "
                            "listed to run on")
        elif step["action"] == "degrade_service":
            host = step["params"].get("host", instance_hosts[instance])
            if (host, step["params"]["service"]) not in ids["service"]:
                problems.append(f"scenario.playbook.steps[{index}]: unknown service "
                                f"{step['params']['service']!r} on host {host!r}")
    for a in doc["repertoire"]:
        if a["action_id"] in BUILTIN_ACTIONS:  # plan entries find builtins by id
            problems.append(f"action {a['action_id']!r}: id is taken by a builtin action")
        if a["category"] == "destructive" and a["risk"] <= 0.0:
            problems.append(f"action {a['action_id']!r}: destructive actions must declare risk > 0")
        if a["builtin"] == "propagate" and not a["target_host"]:
            problems.append(f"action {a['action_id']!r}: propagate actions need a target_host")
        # the planner only inserts a preparation step it finds in the repertoire
        for prep in a["preparation"]:
            if prep not in ids["action"]:
                problems.append(f"action {a['action_id']!r}.preparation: unknown action {prep!r}")
    priorities: set[int] = set()
    for r in doc["rules"]:
        if r["priority"] in priorities:
            problems.append(f"rule {r['rule_id']!r}: duplicate priority {r['priority']!r}")
        priorities.add(r["priority"])


def _check(raw: Any) -> tuple[Any, list[str]]:
    """The document with its defaults filled in, and every problem found."""
    walk = _Walk()
    doc = SCENARIO.check(raw, None, "scenario", walk)
    for record, ns, ident, label in walk.refs:
        if ident not in walk.ids[ns]:
            shown = (f"{ident[1]!r} on host {ident[0]!r}" if type(ident) is tuple
                     else repr(ident))
            walk.problem(record, f"unknown {label} {shown}")
    if not walk.problems:
        _cross_rules(doc, walk.ids, walk.problems)
    return doc, walk.problems


# -- configuration --------------------------------------------------------------

@dataclass
class AgentSpec:
    agent_id: str
    host_id: str
    detectability: float


@dataclass
class CollaborationSettings:
    threshold: float
    report_interval: int
    propagation_threshold: float
    communicate_noise: float
    negotiation_rounds: int
    fail_safe_streak: int


@dataclass
class ScenarioConfig:
    raw: dict[str, Any]  # as written
    scenario_hash: str  # of raw, computed once: the auth key and trace header use it
    doc: dict[str, Any]  # raw with every default of the table filled in
    name: str
    duration_ticks: int
    training: bool
    trigger_threshold: float
    collaboration: CollaborationSettings
    agents: list[AgentSpec]
    c2_host: Optional[str]
    c2_script: list[dict[str, Any]]
    roster: FriendlyRoster

    # fresh, mutable objects per episode; episodes must not share state. The
    # table's keys are the dataclasses' field names where the two agree.
    def build_environment(self) -> Environment:
        topo = self.doc["topology"]
        hosts = {h["host_id"]: Host(**dict(
            h, services={s["service_id"]: Service(**s) for s in h["services"]},
            processes={p["process_id"]: Process(**dict(p, owner=Owner(p["owner"])))
                       for p in h["processes"]},
            files={f["file_id"]: FileEntry(**dict(f, owner=Owner(f["owner"])))
                   for f in h["files"]})) for h in topo["hosts"]}
        channels = {c["channel_id"]: CommsChannel(**dict(
            c, endpoints=tuple(c["endpoints"]), state=ChannelState(c["state"])))
            for c in topo["channels"]}
        return Environment(hosts, channels, topo["thresholds"]["up_threshold"],
                           topo["thresholds"]["down_threshold"])

    def build_playbook(self) -> tuple[list[MalwareInstance], Playbook]:
        pb = dict(self.doc["playbook"])
        hunt_intensity = pb.pop("hunt_intensity")  # each instance's unless it sets its own
        instances = [MalwareInstance(**dict(
            i, phase=MalwarePhase(i["phase"]),
            hunt_intensity=i.get("hunt_intensity", hunt_intensity)))
            for i in pb.pop("instances")]
        pb["steps"] = [PlaybookStep(**dict(s, instance_id=s["instance_id"] if s["instance_id"]
                                           is not None else instances[0].instance_id))
                       for s in pb["steps"]]  # _cross_rules: then an instance is listed
        return instances, Playbook(**pb)

    def build_sensor_config(self) -> SensorConfig:
        sensors = self.doc["sensors"]
        return SensorConfig(list(sensors["physical"]), list(sensors["logical"]),
                            list(sensors["transformers"]), dict(sensors["noise"]))

    def build_patterns(self) -> list[Pattern]:
        return [Pattern(p["id"], [tuple(x) for x in p["predicates"]], p["severity"],
                        p["confidence"], [tuple(x) for x in p["progression"]], p["deadline_ticks"])
                for p in self.doc["patterns"]]

    def build_repertoire(self) -> dict[str, ActionSpec]:
        return {a["action_id"]: ActionSpec(**dict(
            a, category=ActionCategory(a["category"]),
            preconditions=[tuple(x) for x in a["preconditions"]],
            effects=[ProbabilisticEffect(
                EffectDescriptor(**e["env"]) if e["env"] is not None else None,
                [tuple(x) for x in e["features"]], e["probability"],
                [tuple(x) for x in e["expect"]]) for e in a["effects"]],
            target_scope=TargetScope(a["target_scope"]), preparation=list(a["preparation"])))
            for a in self.doc["repertoire"]}

    def build_goals(self) -> list[Goal]:
        return normalize_goals([Goal(g["goal_id"], [tuple(x) for x in g["predicates"]], g["weight"])
                                for g in self.doc["goals"]])

    def build_roe(self) -> RulesOfEngagement:
        roe = self.doc["roe"]
        return RulesOfEngagement(**dict(roe, forbidden_categories=set(roe["forbidden_categories"])))

    def build_rules(self) -> dict[str, ConditionActionRule]:
        return {r["rule_id"]: ConditionActionRule(**dict(
            r, condition=[tuple(x) for x in r["condition"]])) for r in self.doc["rules"]}

    def build_planner_config(self) -> PlannerConfig:
        return PlannerConfig(**self.doc["planner"])


def load_scenario(path: str | Path) -> ScenarioConfig:
    return parse_scenario(read_json(path, ConfigInvalid, "scenario"))


def parse_scenario(raw: dict[str, Any]) -> ScenarioConfig:
    doc, problems = _check(raw)
    if problems:
        raise ConfigInvalid(problems)
    c2 = doc["c2"]
    return ScenarioConfig(
        raw=raw,
        scenario_hash=hashlib.sha256(canonical_json(raw).encode()).hexdigest()[:16],
        doc=doc,
        name=doc["name"],
        duration_ticks=doc["duration_ticks"],
        training=doc["training"],
        trigger_threshold=doc["trigger_threshold"],
        collaboration=CollaborationSettings(**doc["collaboration"]),
        agents=[AgentSpec(**a) for a in doc["agents"]],
        c2_host=c2["host_id"] if c2 else None,
        c2_script=c2["script"] if c2 else [],
        roster=FriendlyRoster(hosts=frozenset(doc["roster"]["hosts"]),
                              authorization_token=doc["roster"]["authorization_token"]),
    )
