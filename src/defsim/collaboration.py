"""Peer conclusion exchange, C2 reporting, supervisor control, authority
handover and conditional propagation.

Every message carries an authentication tag derived from the shared episode
key; receivers discard anything with an invalid tag, so a spoofing adversary
can observe and deny but never inject state. Negotiation is a bounded-round
merge: union by subject, conflicts to the higher confidence, ties to the
lexicographically smaller origin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Any, Callable, Iterable, Optional

from .envsim import DeliveryStatus, Environment, clamp01
from .errors import (
    InvalidTransition,
    NoRoute,
    RefusedNoAuthorization,
    RefusedNoRoute,
    RefusedNoTrigger,
    RefusedNonFriendly,
    UnknownField,
    UnknownGoal,
    canonical_json,
)
from .execution import AgentState, Authority
from .learning import KnowledgeBase
from .planning import ConditionActionRule, RulesOfEngagement, normalize_goals
from .sensing import all_hold


class MessageKind(str, Enum):
    REQUEST_CONCLUSIONS = "RequestConclusions"
    SHARE_CONCLUSIONS = "ShareConclusions"
    STATUS_REPORT = "StatusReport"
    CONTROL_COMMAND = "ControlCommand"
    HANDOVER_GRANT = "HandoverGrant"
    HANDOVER_RETURN = "HandoverReturn"
    REPLICA_TRANSFER = "ReplicaTransfer"


class Verdict(str, Enum):
    COMPROMISED = "compromised"
    CLEAN = "clean"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Conclusion:
    subject: str
    verdict: Verdict
    confidence: float
    origin: str
    tick: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "verdict": self.verdict.value,
            "confidence": self.confidence,
            "origin": self.origin,
            "tick": self.tick,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Conclusion":
        return Conclusion(
            subject=data["subject"],
            verdict=Verdict(data["verdict"]),
            confidence=data["confidence"],
            origin=data["origin"],
            tick=data["tick"],
        )


@dataclass(frozen=True)
class FriendlyRoster:
    hosts: frozenset[str]
    authorization_token: str


# -- authentication ------------------------------------------------------------

def auth_tag(key: str, kind: str, sender: str, recipient: str, payload: Any) -> str:
    canonical = canonical_json(
        {"kind": kind, "sender": sender, "recipient": recipient, "payload": payload})
    return hashlib.sha256((key + canonical).encode()).hexdigest()[:16]


def build_message(
    key: str,
    kind: MessageKind,
    sender: str,
    recipient: str,
    payload: Any,
    round_no: int = 0,
) -> dict[str, Any]:
    return {
        "kind": kind.value,
        "sender": sender,
        "recipient": recipient,
        "payload": payload,
        "round": round_no,
        "auth_tag": auth_tag(key, kind.value, sender, recipient, payload),
    }


def verify_message(key: str, message: dict[str, Any]) -> bool:
    expected = auth_tag(key, message.get("kind", ""), message.get("sender", ""),
                        message.get("recipient", ""), message.get("payload"))
    return message.get("auth_tag") == expected


# -- negotiation ------------------------------------------------------------------

def _prefer(a: Conclusion, b: Conclusion) -> Conclusion:
    """Deterministic total preference: higher confidence, then smaller
    origin id, then verdict value, then newer tick."""
    ka = (-a.confidence, a.origin, a.verdict.value, -a.tick)
    kb = (-b.confidence, b.origin, b.verdict.value, -b.tick)
    return a if ka <= kb else b


def merge_conclusions(
    local: dict[str, Conclusion],
    incoming: Iterable[Conclusion],
) -> dict[str, Conclusion]:
    merged = dict(local)
    for c in incoming:
        held = merged.get(c.subject)
        merged[c.subject] = c if held is None else _prefer(held, c)
    return merged


# -- exchange over the simulated platform ----------------------------------------

def share_and_request(
    agent_state: AgentState,
    peers: list[tuple[str, str]],
    conclusions: dict[str, Conclusion],
    env: Environment,
    rng: Random,
    key: str,
    communicate_noise: float,
    spoofer: Optional[Callable[[str, dict[str, Any]], dict[str, Any]]] = None,
) -> list[dict[str, Any]]:
    """Send a conclusions request (carrying our own set) to each peer.

    Every send is noisy: collaboration reveals presence. Peers behind
    disabled or missing channels are skipped; if no peer at all was
    reachable, NoRoute tells the caller to proceed alone.
    """
    outcomes: list[dict[str, Any]] = []
    sent_any = False
    payload = {"conclusions": [conclusions[s].to_dict() for s in sorted(conclusions)]}
    for peer_id, peer_host in peers:
        channel = env.route(agent_state.host_id, peer_host)
        if channel is None:
            outcomes.append({"peer": peer_id, "status": "no_route"})
            continue
        msg = build_message(key, MessageKind.REQUEST_CONCLUSIONS,
                            agent_state.agent_id, peer_id, payload)
        status = env.deliver(channel, msg, rng, spoofer=spoofer)
        agent_state.detectability = clamp01(agent_state.detectability + communicate_noise)
        sent_any = True
        outcomes.append({"peer": peer_id, "status": status.value, "channel": channel})
    if peers and not sent_any:
        raise NoRoute("no peer reachable; proceeding alone")
    return outcomes


def report(
    agent_state: AgentState,
    c2_host: str,
    summary: dict[str, Any],
    env: Environment,
    rng: Random,
    key: str,
    communicate_noise: float,
    spoofer: Optional[Callable[[str, dict[str, Any]], dict[str, Any]]] = None,
) -> DeliveryStatus:
    """Status report to the remote center, subject to channel state."""
    channel = env.route(agent_state.host_id, c2_host)
    if channel is None:
        raise NoRoute(f"no channel from {agent_state.host_id!r} to {c2_host!r}")
    msg = build_message(key, MessageKind.STATUS_REPORT, agent_state.agent_id, "c2", summary)
    status = env.deliver(channel, msg, rng, spoofer=spoofer)
    agent_state.detectability = clamp01(agent_state.detectability + communicate_noise)
    return status


# -- authority handover ---------------------------------------------------------

def handover(agent_state: AgentState, message: dict[str, Any]) -> AgentState:
    """Flip the authority holder; exactly one side holds it at any tick.

    The caller authenticates messages first; this guards only the
    transition direction.
    """
    kind = message.get("kind")
    if kind == MessageKind.HANDOVER_GRANT.value:
        if agent_state.authority is not Authority.AGENT:
            raise InvalidTransition("grant while authority already remote")
        agent_state.authority = Authority.REMOTE_C2
    elif kind == MessageKind.HANDOVER_RETURN.value:
        if agent_state.authority is not Authority.REMOTE_C2:
            raise InvalidTransition("return while agent already holds authority")
        agent_state.authority = Authority.AGENT
    else:
        raise InvalidTransition(f"not a handover message: {kind!r}")
    return agent_state


# -- supervisor control -----------------------------------------------------------

def apply_control(
    command: dict[str, Any],
    kb: KnowledgeBase,
    roe: RulesOfEngagement,
) -> dict[str, Any]:
    """Apply a knowledge/goals/constraints command at a decision boundary.
    The episode loop routes fail_safe itself; authority moves only by the
    HandoverGrant and HandoverReturn messages."""
    name = command.get("command")
    if name == "set_goal_weight":
        goal_id = command["goal_id"]
        target = next((g for g in kb.goals if g.goal_id == goal_id), None)
        if target is None:
            raise UnknownGoal(f"no goal {goal_id!r}")
        target.weight = float(command["weight"])
        normalize_goals(kb.goals)
        return {"command": name, "goal_id": goal_id,
                "weights": {g.goal_id: g.weight for g in kb.goals}}
    if name == "set_roe":
        fld = command["field"]
        if not hasattr(roe, fld):
            raise UnknownField(f"no ROE field {fld!r}")
        value = command["value"]
        if fld == "forbidden_categories":
            value = set(value)
        setattr(roe, fld, value)
        return {"command": name, "field": fld, "value": command["value"]}
    if name == "add_rule":
        spec = command["rule"]
        rule = ConditionActionRule(
            rule_id=spec["rule_id"],
            condition=[tuple(p) for p in spec["condition"]],
            action_id=spec["action_id"],
            priority=spec["priority"],
        )
        kb.rules[rule.rule_id] = rule
        return {"command": name, "rule_id": rule.rule_id}
    if name == "add_pattern_example":
        features = command["features"]
        confirmed = command["label"] == "compromised"
        touched = []
        for pid in sorted(kb.patterns):
            if all_hold(features, kb.patterns[pid].predicates):
                kb.note_pattern_outcome(pid, confirmed)
                touched.append(pid)
        return {"command": name, "patterns_updated": touched}
    raise UnknownField(f"unknown control command {name!r}")


# -- conditional propagation --------------------------------------------------------

def propagate(
    agent_state: AgentState,
    target_host: str,
    roster: FriendlyRoster,
    env: Environment,
    local_integrity: float,
    threshold: float,
    kb_payload: dict[str, Any],
    rng: Random,
    key: str,
    new_agent_id: str,
    initial_detectability: float = 0.1,
) -> AgentState:
    """Install a replica on a friendly host, only when every condition holds:
    roster membership, valid authorization, the low-integrity trigger, and a
    usable channel. The first failed condition names the refusal."""
    if target_host not in roster.hosts:
        raise RefusedNonFriendly(f"{target_host!r} not in friendly roster")
    if not roster.authorization_token or roster.authorization_token != env.roster_token:
        raise RefusedNoAuthorization("roster authorization token invalid")
    if not local_integrity < threshold:
        raise RefusedNoTrigger(
            f"local integrity {local_integrity:.2f} not below trigger {threshold:.2f}")
    channel = env.route(agent_state.host_id, target_host)
    if channel is None:
        raise RefusedNoRoute(f"no usable channel to {target_host!r}")
    msg = build_message(key, MessageKind.REPLICA_TRANSFER, agent_state.agent_id,
                        new_agent_id, {"knowledge": kb_payload})
    if env.deliver(channel, msg, rng) is DeliveryStatus.DROPPED:
        raise RefusedNoRoute(f"replica transfer dropped on {channel!r}")
    replica = AgentState(
        agent_id=new_agent_id,
        host_id=target_host,
        detectability=initial_detectability,
    )
    env.install_agent(new_agent_id, target_host)
    return replica
