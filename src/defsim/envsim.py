"""Deterministic discrete-event simulated platform.

Hosts carry services, processes and opaque files; comms channels connect
hosts. Both the adversary and the defending agent act on this state
exclusively through effect descriptors, so every mutation is recorded and
replayable. Time is an integer tick counter; all randomness comes from the
seeded stream owned by the episode loop and is consumed in event order.
"""

from __future__ import annotations

import copy
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from random import Random
from typing import Any, Callable, Iterable, Optional

from .errors import UnknownEntity


def clamp01(x: float) -> float:
    return max(0.0, min(1.0, x))


def sum_in_order(values: Iterable[Any], start: Any = 0) -> Any:
    """start + each value, left to right: the same bits on every CPython,
    where builtin sum() compensates float rounding from 3.12 on."""
    return reduce(operator.add, values, start)


class ServiceState(str, Enum):
    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


class ChannelState(str, Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    SPOOFED = "spoofed"
    DISABLED = "disabled"


class Owner(str, Enum):
    SYSTEM = "system"
    MALWARE = "malware"
    AGENT = "agent"


@dataclass
class Service:
    service_id: str
    required: bool
    weight: float
    health: float
    state: ServiceState = ServiceState.UP

    def refresh_state(self, up_threshold: float, down_threshold: float) -> None:
        if self.health >= up_threshold:
            self.state = ServiceState.UP
        elif self.health <= down_threshold:
            self.state = ServiceState.DOWN
        else:
            self.state = ServiceState.DEGRADED


@dataclass
class Process:
    process_id: str
    image_hash: str
    known_good: bool
    owner: Owner = Owner.SYSTEM


@dataclass
class FileEntry:
    file_id: str
    owner: Owner = Owner.SYSTEM


@dataclass
class Host:
    host_id: str
    friendly: bool = True
    integrity: float = 1.0
    services: dict[str, Service] = field(default_factory=dict)
    processes: dict[str, Process] = field(default_factory=dict)
    files: dict[str, FileEntry] = field(default_factory=dict)
    resident_agent: Optional[str] = None


@dataclass
class CommsChannel:
    channel_id: str
    endpoints: tuple[str, str]
    state: ChannelState = ChannelState.HEALTHY
    drop_probability: float = 0.0
    delay_ticks: int = 0

    def enforce_invariants(self) -> None:
        # healthy channels are clean by definition
        if self.state is ChannelState.HEALTHY:
            self.drop_probability = 0.0
            self.delay_ticks = 0


@dataclass(frozen=True)
class EffectDescriptor:
    """One mutation of the environment.

    target is a reference string:
      host:<hid> | service:<hid>:<sid> | process:<hid>:<pid> |
      file:<hid>:<fid> | channel:<cid> | agent:<aid>
    Process/file positions accept the selectors @unknown (known_good=False
    processes) and @foreign (malware-owned files). Agent actions do what
    scenario._ENV_OPERATIONS admits; the adversary adds spawns and agent kills.
    """

    target: str
    attribute: str
    operation: str  # set | add | remove | spawn | kill
    value: Any = None


@dataclass
class SnapshotToken:
    token_id: int
    host_id: str
    services: dict[str, Service]
    processes: dict[str, Process]
    files: dict[str, FileEntry]


class DeliveryStatus(str, Enum):
    DELIVERED = "delivered"
    DROPPED = "dropped"
    OBSERVED_AND_DELIVERED = "observed_and_delivered"


class Environment:
    """Topology plus the delayed messages of one episode, owned by a single
    episode loop and never shared mid-episode.

    The topology (hosts, channels and their endpoints) is fixed at
    construction. Every change to a host, service, process, file or channel
    state goes through apply_effect, restore or install_agent, and each of
    them advances `host_changes` of every host whose sensors read what it
    changed: a channel's two endpoints, or the one host of anything else.
    Rows read on a host when its count last had its current value still hold.
    """

    def __init__(self, hosts: dict[str, Host], channels: dict[str, CommsChannel],
                 up_threshold: float = 0.8, down_threshold: float = 0.3):
        self.hosts = hosts
        self.channels = channels
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.tick = -1
        # arrival tick -> (channel id, message) pairs, in the order they were sent
        self._scheduled: dict[int, list[tuple[str, dict[str, Any]]]] = {}
        self.inboxes: dict[str, list[dict[str, Any]]] = {}
        self._token_counter = itertools.count(1)
        self.host_changes = dict.fromkeys(hosts, 0)
        adjacent: dict[str, list[CommsChannel]] = {}
        for ch in sorted(channels.values(), key=lambda c: c.channel_id):
            for host_id in dict.fromkeys(ch.endpoints):
                adjacent.setdefault(host_id, []).append(ch)
        self._adjacent = {host_id: tuple(chs) for host_id, chs in adjacent.items()}
        for host in self.hosts.values():
            for svc in host.services.values():
                svc.refresh_state(up_threshold, down_threshold)

    # -- stepping ------------------------------------------------------------

    def step(self, tick: int) -> list[tuple[str, dict[str, Any]]]:
        """Start tick: deliver the delayed messages due now in the order they
        were sent, and return them as (channel id, message) pairs."""
        self.tick = tick
        due = self._scheduled.pop(tick, [])
        for _, message in due:
            self.inboxes.setdefault(message["recipient"], []).append(message)
        return due

    # -- effects -------------------------------------------------------------

    def apply_effect(self, effect: EffectDescriptor, cause: str = "") -> dict[str, Any]:
        """Mutate the target per the effect, clamping numeric results.

        Returns an outcome record with one change entry per affected entity
        (selectors may touch several); each change carries old and new values
        and, for services, the old and new derived state. UnknownEntity: a
        named process or file, or a service on the agent's own host, is gone.
        """
        changes = []
        for kind, host, name in self._resolve(effect):
            changes.append(self._apply_one(kind, host, name, effect))
            # then the count of each host whose sensors read the entity
            for host_id in self.channels[name].endpoints if host is None else (host.host_id,):
                self.host_changes[host_id] += 1
        return {
            "cause": cause,
            "target": effect.target,
            "attribute": effect.attribute,
            "operation": effect.operation,
            "changes": changes,
        }

    def _resolve(self, effect: EffectDescriptor) -> list[tuple[str, Optional[Host], str]]:
        """(kind, host, name) for each entity the target names. A host
        target's host is itself; a service, process or file lives on its host
        under its name; an agent resides on its host; a channel has none."""
        kind, *names = effect.target.split(":")
        if kind == "channel":
            return [(kind, None, names[0])]
        if kind == "agent":  # the one host it resides on
            return [(kind, next(h for h in self.hosts.values() if h.resident_agent == names[0]),
                     names[0])]
        host = self.hosts[names[0]]
        name = names[-1]
        if name == "@unknown" and kind == "process":
            return [(kind, host, pid) for pid in sorted(
                p.process_id for p in host.processes.values() if not p.known_good)]
        if name == "@foreign" and kind == "file":
            return [(kind, host, fid) for fid in sorted(
                f.file_id for f in host.files.values() if f.owner is Owner.MALWARE)]
        return [(kind, host, name)]

    def _apply_one(self, kind: str, host: Optional[Host], name: str,
                   effect: EffectDescriptor) -> dict[str, Any]:
        if kind == "host":
            return self._mutate_numeric(host, effect, entity=f"host:{name}")
        if kind == "channel":
            return self._apply_channel(name, effect)
        if kind == "agent":
            return self._apply_agent(host, name)
        if kind == "service":
            return self._apply_service(host, name, effect)
        if kind == "process":
            return self._apply_process(host, name, effect)
        return self._apply_file(host, name, effect)

    def _mutate_numeric(self, obj: Any, effect: EffectDescriptor, entity: str) -> dict[str, Any]:
        """Set or add to a host's integrity or a service's health, clamped to [0, 1]."""
        attr = effect.attribute
        old = getattr(obj, attr)
        new = clamp01(float(effect.value if effect.operation == "set" else old + effect.value))
        setattr(obj, attr, new)
        return {"entity": entity, "attribute": attr, "old": old, "new": new}

    def _apply_channel(self, cid: str, effect: EffectDescriptor) -> dict[str, Any]:
        ch = self.channels[cid]
        old = ch.state.value
        ch.state = ChannelState(effect.value)
        ch.enforce_invariants()
        return {"entity": f"channel:{cid}", "attribute": "state", "old": old, "new": ch.state.value}

    def _apply_agent(self, host: Host, agent_id: str) -> dict[str, Any]:
        host.resident_agent = None
        host.processes.pop(f"agent_proc_{agent_id}", None)  # its own action may have killed it
        return {"entity": f"agent:{agent_id}", "attribute": "resident", "old": host.host_id, "new": None}

    def _apply_service(self, host: Host, sid: str, effect: EffectDescriptor) -> dict[str, Any]:
        hid = host.host_id
        svc = host.services.get(sid)
        if svc is None:
            raise UnknownEntity(f"no service {sid!r} on host {hid!r}")
        old_state = svc.state.value
        change = self._mutate_numeric(svc, effect, entity=f"service:{hid}:{sid}")
        svc.refresh_state(self.up_threshold, self.down_threshold)
        change["old_state"] = old_state
        change["new_state"] = svc.state.value
        change["required"] = svc.required
        return change

    def _apply_process(self, host: Host, pid: str, effect: EffectDescriptor) -> dict[str, Any]:
        hid = host.host_id
        if effect.operation == "spawn":
            spec = effect.value or {}
            host.processes[pid] = Process(
                process_id=pid,
                image_hash=spec.get("image_hash", "unknown"),
                known_good=bool(spec.get("known_good", False)),
                owner=Owner(spec.get("owner", "malware")),
            )
            return {"entity": f"process:{hid}:{pid}", "attribute": "", "old": None, "new": "spawned"}
        if pid not in host.processes:  # kill
            raise UnknownEntity(f"no process {pid!r} on host {hid!r}")
        del host.processes[pid]
        return {"entity": f"process:{hid}:{pid}", "attribute": "", "old": "present", "new": "killed"}

    def _apply_file(self, host: Host, fid: str, effect: EffectDescriptor) -> dict[str, Any]:
        hid = host.host_id
        if effect.operation == "spawn":
            spec = effect.value or {}
            host.files[fid] = FileEntry(file_id=fid, owner=Owner(spec.get("owner", "malware")))
            return {"entity": f"file:{hid}:{fid}", "attribute": "", "old": None, "new": "created"}
        if fid not in host.files:  # remove
            raise UnknownEntity(f"no file {fid!r} on host {hid!r}")
        del host.files[fid]
        return {"entity": f"file:{hid}:{fid}", "attribute": "", "old": "present", "new": "removed"}

    # -- aggregate measures ----------------------------------------------------

    def functionality(self) -> float:
        """Weighted fraction of required services currently up, in [0, 1]. A
        scenario holds a required service, and a weight is positive."""
        total = 0.0
        up = 0.0
        for host in self.hosts.values():
            for svc in host.services.values():
                if not svc.required:
                    continue
                total += svc.weight
                if svc.state is ServiceState.UP:
                    up += svc.weight
        return up / total

    # -- messaging ---------------------------------------------------------------

    def channels_adjacent(self, host_id: str) -> tuple[CommsChannel, ...]:
        """The channels with host_id as an endpoint, by channel id."""
        return self._adjacent.get(host_id, ())

    def route(self, from_host: str, to_host: str) -> Optional[str]:
        """Direct, non-disabled channel between the hosts, or None."""
        for ch in self.channels_adjacent(from_host):
            if to_host in ch.endpoints and ch.state is not ChannelState.DISABLED:
                return ch.channel_id
        return None

    def deliver(
        self,
        channel_id: str,
        message: dict[str, Any],
        rng: Random,
        spoofer: Optional[Callable[[str, dict[str, Any]], dict[str, Any]]] = None,
    ) -> DeliveryStatus:
        """Push one message through a channel that route() returned.

        Disabled drops always; degraded drops with drop_probability, else
        arrives after delay_ticks; spoofed delivers what the spoofer hook
        makes of the message (a forgery, or the message as it is) and
        returns OBSERVED_AND_DELIVERED; healthy delivers immediately. Draws
        come from the caller's seeded stream.
        """
        ch = self.channels[channel_id]
        if ch.state is ChannelState.DISABLED:
            return DeliveryStatus.DROPPED
        if ch.state is ChannelState.DEGRADED:
            if rng.random() < ch.drop_probability:
                return DeliveryStatus.DROPPED
            delay = ch.delay_ticks
            if delay > 0:
                self._scheduled.setdefault(self.tick + delay, []).append((channel_id, message))
                return DeliveryStatus.DELIVERED
            self.inboxes.setdefault(message["recipient"], []).append(message)
            return DeliveryStatus.DELIVERED
        if ch.state is ChannelState.SPOOFED:
            out = spoofer(channel_id, message) if spoofer else message
            self.inboxes.setdefault(out["recipient"], []).append(out)
            return DeliveryStatus.OBSERVED_AND_DELIVERED
        self.inboxes.setdefault(message["recipient"], []).append(message)
        return DeliveryStatus.DELIVERED

    def drain_inbox(self, recipient: str) -> list[dict[str, Any]]:
        return self.inboxes.pop(recipient, [])

    # -- snapshot / restore ---------------------------------------------------

    def snapshot(self, host_id: str) -> SnapshotToken:
        host = self.hosts[host_id]
        return SnapshotToken(
            token_id=next(self._token_counter),
            host_id=host_id,
            services=copy.deepcopy(host.services),
            processes=copy.deepcopy(host.processes),
            files=copy.deepcopy(host.files),
        )

    def restore(self, token: SnapshotToken) -> dict[str, Any]:
        """Return services, files and system processes to snapshot values.

        Malware- and agent-owned processes present now are preserved, and
        resident_agent is untouched: recovering data does not evict anyone.
        """
        host = self.hosts[token.host_id]
        self.host_changes[token.host_id] += 1
        host.services = copy.deepcopy(token.services)
        host.files = copy.deepcopy(token.files)
        kept = {
            pid: proc
            for pid, proc in host.processes.items()
            if proc.owner in (Owner.MALWARE, Owner.AGENT)
        }
        restored = {
            pid: copy.deepcopy(proc)
            for pid, proc in token.processes.items()
            if proc.owner is Owner.SYSTEM
        }
        host.processes = {**restored, **kept}
        for svc in host.services.values():
            svc.refresh_state(self.up_threshold, self.down_threshold)
        return {"host": token.host_id, "token": token.token_id, "restored": True}

    # -- agent footprint ------------------------------------------------------

    def install_agent(self, agent_id: str, host_id: str) -> None:
        host = self.hosts[host_id]
        self.host_changes[host_id] += 1
        host.resident_agent = agent_id
        pid = f"agent_proc_{agent_id}"
        host.processes[pid] = Process(pid, image_hash=f"agent-{agent_id}", known_good=True, owner=Owner.AGENT)
