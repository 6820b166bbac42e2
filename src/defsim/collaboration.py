"""Peer conclusion exchange, C2 reporting, supervisor control, authority
handover and conditional propagation.

Every message carries an authentication tag derived from the shared episode
key; receivers discard anything with an invalid tag, so a spoofing adversary
can observe and deny but never inject state. An episode sends every message
through one `Post`, which routes, tags, passes the spoofer and charges the
sending agent its noise; only the replica transfer in `propagate` bypasses
it. The exchanges return their trace events, which the episode emits.
A conclusions payload, `{"conclusions": [...]}`, carries the sender's
`Conclusion` tuples by subject as they are, and the tag covers each field
of each, in order: the tuples encode as JSON arrays.
Negotiation is a bounded-round merge: union by subject, conflicts to the
higher confidence, ties to the lexicographically smaller origin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .envsim import DeliveryStatus, Environment, clamp01
from .errors import (
    InvalidTransition,
    RefusedNoAuthorization,
    RefusedNoRoute,
    RefusedNoTrigger,
    RefusedNonFriendly,
    RefusedOccupied,
    UnknownGoal,
    canonical_json,
)
from .execution import AgentState, Authority, Event
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


class Conclusion(NamedTuple):
    subject: str
    verdict: Verdict
    confidence: float
    origin: str
    tick: int


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
        "kind": kind,
        "sender": sender,
        "recipient": recipient,
        "payload": payload,
        "round": round_no,
        "auth_tag": auth_tag(key, kind, sender, recipient, payload),
    }


def verify_message(key: str, message: dict[str, Any]) -> bool:
    expected = auth_tag(key, message.get("kind", ""), message.get("sender", ""),
                        message.get("recipient", ""), message.get("payload"))
    return message.get("auth_tag") == expected


# -- negotiation ------------------------------------------------------------------

def _prefer(a: Conclusion, b: Conclusion) -> Conclusion:
    """Deterministic total preference: higher confidence, then smaller
    origin id, then verdict value, then newer tick."""
    ka = (-a.confidence, a.origin, a.verdict, -a.tick)
    kb = (-b.confidence, b.origin, b.verdict, -b.tick)
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

@dataclass(frozen=True)
class Post:
    """An episode's one send: every message that an agent or the remote
    center sends goes through `send`, except the replica transfer (see
    `propagate`)."""
    env: Environment
    rng: Random
    key: str
    spoofer: Callable[[str, dict[str, Any]], dict[str, Any]]
    communicate_noise: float
    c2_host: Optional[str]

    def send(self, agent: Optional[AgentState], to_host: str, kind: MessageKind,
             recipient: str, payload: Any, round_no: int = 0
             ) -> Optional[tuple[str, DeliveryStatus]]:
        """Route from the agent's host, or from `c2_host` as `c2` when `agent`
        is None; tag the message, deliver it through the spoofer and raise the
        agent's detectability by the noise of a send (the center is never
        charged). Returns the channel and the delivery status, or None when no
        channel connects the hosts, having sent and charged nothing."""
        channel = self.env.route(self.c2_host if agent is None else agent.host_id, to_host)
        if channel is None:
            return None
        message = build_message(self.key, kind, "c2" if agent is None else agent.agent_id,
                                recipient, payload, round_no)
        status = self.env.deliver(channel, message, self.rng, spoofer=self.spoofer)
        if agent is not None:
            agent.detectability = clamp01(agent.detectability + self.communicate_noise)
        return channel, status


def share_and_request(agent_state: AgentState, peers: list[tuple[str, str]],
                      conclusions: dict[str, Conclusion], post: Post) -> list[Event]:
    """Send a conclusions request, carrying our own set, to each (peer id,
    host) and return the trace events: one agent.conclusions_requested per
    peer, or, when no peer had a route, the single agent.collaboration_solo.
    Every send is noisy: collaboration reveals presence."""
    outcomes: list[dict[str, Any]] = []
    payload = {"conclusions": [conclusions[s] for s in sorted(conclusions)]}
    for peer_id, peer_host in peers:
        sent = post.send(agent_state, peer_host, MessageKind.REQUEST_CONCLUSIONS, peer_id,
                         payload)
        outcomes.append({"peer": peer_id, "status": "no_route"} if sent is None
                        else {"peer": peer_id, "status": sent[1].value, "channel": sent[0]})
    if peers and all(outcome["status"] == "no_route" for outcome in outcomes):
        return [("agent.collaboration_solo", {"reason": "no_peer_reachable"})]
    return [("agent.conclusions_requested", outcome) for outcome in outcomes]


def report(agent_state: AgentState, post: Post, reason: str) -> list[Event]:
    """Send a status report to the remote center and return its trace
    event: agent.report, or agent.report_skipped when no channel reaches
    the center's host. The center reads nothing, so the payload is empty."""
    sent = post.send(agent_state, post.c2_host, MessageKind.STATUS_REPORT, "c2", {})
    if sent is None:
        return [("agent.report_skipped", {"reason": "no_route", "trigger": reason})]
    return [("agent.report", {"status": sent[1].value, "reason": reason})]


# -- authority handover ---------------------------------------------------------

def handover(agent_state: AgentState, message: dict[str, Any]) -> None:
    """Flip the authority holder on a HandoverGrant or a HandoverReturn;
    exactly one side holds it at any tick.

    The caller authenticates messages first; this guards only the
    transition direction.
    """
    if message.get("kind") == MessageKind.HANDOVER_GRANT:
        if agent_state.authority is not Authority.AGENT:
            raise InvalidTransition("grant while authority already remote")
        agent_state.authority = Authority.REMOTE_C2
    elif agent_state.authority is not Authority.REMOTE_C2:  # a HandoverReturn
        raise InvalidTransition("return while agent already holds authority")
    else:
        agent_state.authority = Authority.AGENT


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
        # finite: the other weights sum to at most 1, as normalised before
        normalize_goals(kb.goals)
        return {"command": name, "goal_id": goal_id,
                "weights": {g.goal_id: g.weight for g in kb.goals}}
    if name == "set_roe":
        fld = command["field"]
        value = command["value"]
        if fld == "forbidden_categories":
            value = set(value)
        setattr(roe, fld, value)
        return {"command": name, "field": fld, "value": command["value"]}
    if name == "add_rule":
        spec = command["rule"]
        rule = ConditionActionRule(**dict(spec, condition=[tuple(p) for p in spec["condition"]]))
        kb.rules[rule.rule_id] = rule
        return {"command": name, "rule_id": rule.rule_id}
    # add_pattern_example, the one case of the scenario's _COMMAND left (fail_safe is routed)
    confirmed = command["label"] == "compromised"
    touched = []
    for pid in sorted(kb.patterns):
        if all_hold(command["features"], kb.patterns[pid].predicates):
            kb.note_pattern_outcome(pid, confirmed)
            touched.append(pid)
    return {"command": name, "patterns_updated": touched}


# -- conditional propagation --------------------------------------------------------

def propagate(
    agent_state: AgentState,
    target_host: str,
    roster: FriendlyRoster,
    post: Post,
    local_integrity: float,
    threshold: float,
    kb_payload: dict[str, Any],
    new_agent_id: str,
    initial_detectability: float,
) -> AgentState:
    """Install a replica on a friendly host, only when every condition holds:
    roster membership, a nonempty authorization token, the low-integrity
    trigger, a host with no live agent, and a usable channel. The first
    failed condition names the refusal. The ReplicaTransfer is the one
    message sent past `Post.send`: it is delivered without the spoofer and
    charges no noise (ROADMAP item 14)."""
    env = post.env
    if target_host not in roster.hosts:
        raise RefusedNonFriendly(f"{target_host!r} not in friendly roster")
    if not roster.authorization_token:
        raise RefusedNoAuthorization("roster authorization token invalid")
    if not local_integrity < threshold:
        raise RefusedNoTrigger(
            f"local integrity {local_integrity:.2f} not below trigger {threshold:.2f}")
    occupant = env.hosts[target_host].resident_agent
    if occupant is not None:  # a host holds one agent; a kill clears its residence
        raise RefusedOccupied(f"{target_host!r} holds live agent {occupant!r}")
    channel = env.route(agent_state.host_id, target_host)
    if channel is None:
        raise RefusedNoRoute(f"no usable channel to {target_host!r}")
    msg = build_message(post.key, MessageKind.REPLICA_TRANSFER, agent_state.agent_id,
                        new_agent_id, {"knowledge": kb_payload})
    if env.deliver(channel, msg, post.rng) is DeliveryStatus.DROPPED:
        raise RefusedNoRoute(f"replica transfer dropped on {channel!r}")
    replica = AgentState(
        agent_id=new_agent_id,
        host_id=target_host,
        detectability=initial_detectability,
    )
    env.install_agent(new_agent_id, target_host)
    return replica
