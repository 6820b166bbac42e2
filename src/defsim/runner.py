"""Episode loop, metrics, decision log, replay and reporting.

Tick order is fixed and canonical: (1) environment step, delivering delayed
messages in the order they were sent; (2) adversary instances in id order,
then their effects in that order; (3) live agents in id order, each running
inbox -> sense -> identify -> control boundary -> collaborate ->
monitor/adjust -> plan -> execute -> report; (4) the scripted C2 sends for
the tick. The adversary, execution and the collaboration exchanges return
their trace events, which the loop emits; every message but the replica
transfer goes through the episode's one `collaboration.Post`.
Messages sent mid-tick land in inboxes and are read at the recipient's next
agent phase, so any (config, seed) pair replays to an identical trace. Each
event's seq is its 0-based position in its tick.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from random import Random
from typing import Any, Optional

from . import collaboration, execution, learning, planning, sensing
from .adversary import MalwareController
from .envsim import Environment, sum_in_order
from .errors import (
    ConfigInvalid,
    CorruptTrace,
    IndexOutOfRange,
    InvalidTransition,
    ModeForbidden,
    PropagationRefused,
    SchemaMismatch,
    UnknownGoal,
    canonical_json,
    read_json,
    write_text,
)
from .execution import AgentMode, AgentState, Authority, PlanExecution
from .learning import KnowledgeBase
from .planning import ActionSpec, RulesOfEngagement
from .scenario import AgentSpec, ScenarioConfig
from .sensing import Assessment, WorldState

TRACE_SCHEMA_VERSION = 1
RECOVERY_LEVEL = 0.95
RECOVERY_SUSTAIN_TICKS = 10


@dataclass
class AgentRuntime:
    state: AgentState
    ws: WorldState
    kb: KnowledgeBase
    roe: RulesOfEngagement
    initial_detectability: float  # a replica's start value
    plan_exec: Optional[PlanExecution] = None
    retry_counts: dict[str, int] = field(default_factory=dict)
    conclusions: dict[str, collaboration.Conclusion] = field(default_factory=dict)
    last_report_tick: int = -(10 ** 9)
    no_action_streak: int = 0
    replica_count: int = 0
    assessment: Optional[Assessment] = None
    identified_at: int = -1  # the knowledge base's pattern version at the last identify
    sensed_at: int = -1  # its host's change count at the last sense
    # the last decision: (its assessment, path, body, canonical bytes). It
    # stands while its assessment does: features and patterns change only
    # through a sense or a write that re-runs identify, and goals, rules and
    # ROE only through a C2 command, which drops it
    decision: Optional[tuple[Assessment, str, dict[str, Any], str]] = None


@dataclass
class EpisodeResult:
    scenario_name: str
    scenario_hash: str
    seed: int
    metrics: dict[str, Any]
    functionality_series: list[float]
    decision_log: list[dict[str, Any]]
    trace: list[dict[str, Any]]
    agents: list[str]
    primary_agent: Optional[str]

    def header(self) -> dict[str, Any]:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "scenario": self.scenario_name,
            "scenario_hash": self.scenario_hash,
            "seed": self.seed,
            "agents": self.agents,
            "primary_agent": self.primary_agent,
        }

    def to_json(self) -> dict[str, Any]:
        """The result file. Its decision log holds the trace's decision
        records, a repeated body named by `same_as`, which `explain` resolves."""
        return {**self.header(), "metrics": self.metrics,
                "functionality_series": self.functionality_series,
                "decision_log": [{k: v for k, v in event.items() if k not in ("kind", "seq")}
                                 for event in self.trace if event["kind"] == "agent.decision"]}


def time_to_recovery(series: list[float], onset: Optional[int]) -> Optional[int]:
    """First tick after attack onset where functionality holds at or above
    RECOVERY_LEVEL for RECOVERY_SUSTAIN_TICKS consecutive ticks."""
    if onset is None:
        return None
    run_start: Optional[int] = None
    run_len = 0
    for t in range(onset + 1, len(series)):
        if series[t] >= RECOVERY_LEVEL:
            if run_start is None:
                run_start = t
            run_len += 1
            if run_len >= RECOVERY_SUSTAIN_TICKS:
                return run_start
        else:
            run_start = None
            run_len = 0
    return None


def _episode_metrics(events: list[dict[str, Any]], primary: Optional[str]) -> dict[str, Any]:
    """The metrics block folded from an episode's events: by the episode
    from its own trace, and by replay from the trace file."""
    series = [e["value"] for e in events if e["kind"] == "tick.functionality"]
    onsets = [e["tick"] for e in events if e["kind"] == "attack.onset"]
    harm_events = sum(1 for e in events if e["kind"] == "harm")
    reward_total = sum_in_order((e["reward"] for e in events
                                 if e["kind"] == "agent.reward" and e.get("agent") == primary), 0.0)
    survived: Optional[bool] = None
    if primary is not None:
        survived = not any(e["kind"] == "agent.killed" and e.get("agent") == primary
                           for e in events)
    return {
        "resilience_auc": sum_in_order(series) / len(series) if series else 0.0,
        "time_to_recovery": time_to_recovery(series, onsets[0] if onsets else None),
        "agent_survived": survived,
        "harm_events": harm_events,
        "reward_total": reward_total,
    }


class Episode:
    def __init__(self, config: ScenarioConfig, seed: int, agent_enabled: bool = True):
        self.config = config
        self.seed = seed
        self.rng = Random(seed)
        self.env: Environment = config.build_environment()
        self.malware = MalwareController(*config.build_playbook())
        self.post = collaboration.Post(
            self.env, self.rng, f"shared-key-{config.scenario_hash}",
            partial(self.malware.intercept, self.env, self.rng),
            config.collaboration.communicate_noise, config.c2_host)
        self.trace: list[dict[str, Any]] = []
        self.decision_log: list[dict[str, Any]] = []
        self.body_index: dict[str, int] = {}  # encoded decision body -> its first decision
        self.tick = 0
        self.seq = 0  # the next event's position in its tick

        # by agent id, in install order: scenario agents, then replicas
        self.runtimes: dict[str, AgentRuntime] = {}
        self.agent_ids: tuple[str, ...] = ()  # the same ids, sorted
        if agent_enabled:
            # the config's, shared by every runtime of its episodes: nothing edits
            # them (set_roe edits each runtime's ROE)
            self.sensors = config.sensors
            self.repertoire = config.deliberations.repertoire
            for spec in config.agents:
                self._add_agent(spec)
        self.primary_agent = config.agents[0].agent_id if (agent_enabled and config.agents) else None

    # -- construction ----------------------------------------------------------

    def _add_agent(self, spec: AgentSpec) -> None:
        state = AgentState(agent_id=spec.agent_id, host_id=spec.host_id,
                           detectability=spec.detectability)
        kb = KnowledgeBase(
            patterns={p.pattern_id: p for p in self.config.build_patterns()},
            rules=self.config.build_rules(),
            goals=self.config.build_goals(),
        )
        self.env.install_agent(spec.agent_id, spec.host_id)
        self._add_runtime(state, kb, spec.detectability)

    def _add_runtime(self, state: AgentState, kb: KnowledgeBase,
                     initial_detectability: float) -> None:
        """Register an agent already installed on its host (scenario agent or replica)."""
        self.runtimes[state.agent_id] = AgentRuntime(
            state=state, ws=WorldState(), kb=kb, roe=self.config.build_roe(),
            initial_detectability=initial_detectability)
        # a new tuple, so a tick's loop over the old one runs no replica it installs
        self.agent_ids = tuple(sorted(self.runtimes))

    # -- trace helpers -----------------------------------------------------------

    def emit(self, kind: str, **payload: Any) -> None:
        self.trace.append({"tick": self.tick, "seq": self.seq, "kind": kind, **payload})
        self.seq += 1

    def _emit_events(self, events: list[tuple[str, dict[str, Any]]], **agent: str) -> None:
        """Emit a phase's trace events, the acting agent's id on each but an
        env.effect, which also records the harm or kill it makes."""
        for kind, payload in events:
            if kind == "env.effect":
                self._record_effect_outcome(payload)
            else:
                self.emit(kind, **agent, **payload)

    def _record_effect_outcome(self, outcome: dict[str, Any]) -> None:
        self.emit("env.effect", **outcome)
        cause = outcome["cause"]
        for change in outcome["changes"]:
            if (cause.startswith("agent:") and change.get("required")
                    and change["new_state"] == "down" and change["old_state"] != "down"):
                self.emit("harm", entity=change["entity"], cause=cause)
            elif change["entity"].startswith("agent:"):
                # only the adversary kills agents, and only a live resident one
                agent_id = change["entity"][len("agent:"):]
                self.runtimes[agent_id].state.mode = AgentMode.DESTROYED
                self.emit("agent.killed", agent=agent_id, by=cause)

    # -- episode loop ---------------------------------------------------------------

    def run(self) -> EpisodeResult:
        for tick in range(self.config.duration_ticks):
            self.tick, self.seq = tick, 0
            for channel, message in self.env.step(tick):
                self.emit("env.message_delivered", channel=channel,
                          message_kind=message.get("kind"), recipient=message.get("recipient"))
            self._emit_events(self.malware.step(self.env, self.rng, tick, self._detectability_of))
            for agent_id in self.agent_ids:
                self._agent_phase(self.runtimes[agent_id], tick)
            self._c2_phase(tick)
            self.emit("tick.functionality", value=self.env.functionality())
        self._end_of_episode_learning()
        return EpisodeResult(
            scenario_name=self.config.name,
            scenario_hash=self.config.scenario_hash,
            seed=self.seed,
            metrics=_episode_metrics(self.trace, self.primary_agent),
            functionality_series=[e["value"] for e in self.trace
                                  if e["kind"] == "tick.functionality"],
            decision_log=self.decision_log,
            trace=self.trace,
            agents=list(self.runtimes),
            primary_agent=self.primary_agent,
        )

    def _detectability_of(self, host_id: str) -> Optional[float]:
        # only install_agent sets residence, right before the runtime joins; a kill clears it
        agent_id = self.env.hosts[host_id].resident_agent
        return None if agent_id is None else self.runtimes[agent_id].state.detectability

    # -- agent phase ----------------------------------------------------------------------

    def _agent_phase(self, rt: AgentRuntime, tick: int) -> None:
        if rt.state.mode is AgentMode.DESTROYED:
            return
        commands = self._process_inbox(rt)

        # features derived at the host's current change count still hold; a
        # noisy config reads every pass, so its draws keep their place
        count = self.env.host_changes[rt.state.host_id]
        rows = None
        if rt.sensed_at != count or self.sensors.noise:
            rows = sensing.sense(self.env, rt.state.host_id, self.sensors, self.rng)
            rt.sensed_at = count
        changed = sensing.update_world_state(
            rt.ws, rows, self.sensors, tick,
            {"detectability": rt.state.detectability, "replica_count": rt.replica_count})
        # an assessment stands while the features and the patterns do (C2's
        # add_pattern_example moves a confidence)
        if changed or rt.kb.pattern_version != rt.identified_at:
            rt.assessment = sensing.identify(rt.ws, list(rt.kb.patterns.values()),
                                             self.config.trigger_threshold)
            rt.identified_at = rt.kb.pattern_version
        assessment = rt.assessment
        if assessment.matched:
            self.emit("agent.assessment", agent=rt.state.agent_id, **assessment.summary)

        self._apply_control_queue(rt, commands)
        self._update_own_conclusion(rt, assessment)
        self._maybe_collaborate(rt, assessment)

        if rt.state.authority is Authority.REMOTE_C2:
            if assessment.problematic:
                self._attempt_report(rt, tick, reason="problematic_under_remote_authority")
            self._periodic_report(rt, tick)
            return

        self._monitor_and_adjust(rt, tick)
        self._maybe_plan(rt, assessment, tick)
        self._execute(rt, tick)
        if rt.state.agent_id == self.primary_agent:
            self.emit("agent.reward", agent=rt.state.agent_id,
                      reward=learning.reward(rt.kb.goals, rt.ws))
        self._periodic_report(rt, tick)

    def _process_inbox(self, rt: AgentRuntime) -> list[dict[str, Any]]:
        """Handle the agent's messages; return the control commands among them,
        which apply after this pass's identify."""
        commands: list[dict[str, Any]] = []
        for msg in self.env.drain_inbox(rt.state.agent_id):
            if not collaboration.verify_message(self.post.key, msg):
                self.emit("agent.message_discarded", agent=rt.state.agent_id,
                          message_kind=msg.get("kind"), sender=msg.get("sender"),
                          reason="invalid_auth_tag", forged=bool(msg.get("forged")))
                continue
            kind = msg.get("kind")
            if kind == collaboration.MessageKind.REQUEST_CONCLUSIONS:
                self._handle_conclusions(rt, msg, reply=True)
            elif kind == collaboration.MessageKind.SHARE_CONCLUSIONS:
                self._handle_conclusions(rt, msg, reply=False)
            elif kind == collaboration.MessageKind.REPLICA_TRANSFER:
                # the knowledge the replica's parent sent at install. A pass
                # before it arrived matched no pattern, so none decided; this
                # pass identifies again, which also drops any kept decision
                rt.kb = KnowledgeBase.from_json(msg["payload"]["knowledge"])
                rt.identified_at = -1
            elif kind == collaboration.MessageKind.CONTROL_COMMAND:
                commands.append(msg["payload"])  # a C2 script's _COMMAND
                self.emit("agent.control_queued", agent=rt.state.agent_id,
                          command=msg["payload"]["command"])
            elif kind in (collaboration.MessageKind.HANDOVER_GRANT,
                          collaboration.MessageKind.HANDOVER_RETURN):
                try:
                    collaboration.handover(rt.state, msg)
                    self.emit("agent.handover", agent=rt.state.agent_id,
                              authority=rt.state.authority.value)
                except InvalidTransition as exc:
                    self.emit("agent.message_discarded", agent=rt.state.agent_id,
                              message_kind=kind, sender=msg.get("sender"),
                              reason=f"invalid_transition: {exc}")
        return commands

    def _handle_conclusions(self, rt: AgentRuntime, msg: dict[str, Any], reply: bool) -> None:
        sender = msg.get("sender", "")
        if sender == "c2":  # on-demand status request from the remote center
            self._attempt_report(rt, self.tick, reason="on_demand")
            return
        payload = msg.get("payload") or {}
        merged = collaboration.merge_conclusions(rt.conclusions, payload.get("conclusions", []))
        changed = merged != rt.conclusions
        rt.conclusions = merged
        round_no = msg.get("round", 0)
        self.emit("agent.negotiation", agent=rt.state.agent_id, sender=sender,
                  round=round_no, changed=changed, set_size=len(rt.conclusions))
        if reply and sender in self.runtimes:
            peers = [(sender, self.runtimes[sender].state.host_id)]
        elif changed and round_no < self.config.collaboration.negotiation_rounds:
            peers, round_no = self._peers_of(rt), round_no + 1
        else:
            return
        # one payload for every peer: recipients only read it
        shared = {"conclusions": [rt.conclusions[s] for s in sorted(rt.conclusions)]}
        for peer_id, peer_host in peers:
            sent = self.post.send(rt.state, peer_host, collaboration.MessageKind.SHARE_CONCLUSIONS,
                                  peer_id, shared, round_no)
            if sent is None:
                self.emit("agent.share_skipped", agent=rt.state.agent_id, peer=peer_id,
                          reason="no_route")
            else:
                self.emit("agent.conclusions_shared", agent=rt.state.agent_id, peer=peer_id,
                          status=sent[1].value, round=round_no)

    def _peers_of(self, rt: AgentRuntime) -> list[tuple[str, str]]:
        peers = (self.runtimes[agent_id].state for agent_id in self.agent_ids)
        return [(peer.agent_id, peer.host_id) for peer in peers
                if peer.agent_id != rt.state.agent_id and peer.mode is not AgentMode.DESTROYED]

    def _apply_control_queue(self, rt: AgentRuntime, commands: list[dict[str, Any]]) -> None:
        if commands:  # a command may edit what the last decision read
            rt.decision = None
        for command in commands:
            name = command["command"]
            try:
                if name == "fail_safe":
                    self._fail_safe(rt, "supervisor_command")
                else:
                    change = collaboration.apply_control(command, rt.kb, rt.roe)
                    self.emit("agent.control_applied", agent=rt.state.agent_id, **change)
            except UnknownGoal as exc:
                self.emit("agent.control_rejected", agent=rt.state.agent_id,
                          command=name, reason=str(exc))

    def _update_own_conclusion(self, rt: AgentRuntime, assessment: Assessment) -> None:
        subject = f"host:{rt.state.host_id}"
        if assessment.problematic:
            confidence = assessment.matched[0][2]
            verdict = collaboration.Verdict.COMPROMISED
        else:
            confidence = 1.0 - assessment.top_severity
            verdict = collaboration.Verdict.CLEAN
        own = collaboration.Conclusion(subject, verdict, confidence,
                                       rt.state.agent_id, rt.ws.tick)
        rt.conclusions = collaboration.merge_conclusions(rt.conclusions, [own])

    def _maybe_collaborate(self, rt: AgentRuntime, assessment: Assessment) -> None:
        if not assessment.matched or rt.state.mode is not AgentMode.NORMAL:
            return
        top_confidence = assessment.matched[0][2]
        if top_confidence >= self.config.collaboration.threshold:
            return
        peers = self._peers_of(rt)
        if not peers:
            return
        events = collaboration.share_and_request(rt.state, peers, rt.conclusions, self.post)
        self._emit_events(events, agent=rt.state.agent_id)

    # -- monitoring, planning, execution -------------------------------------------------

    def _monitor_and_adjust(self, rt: AgentRuntime, tick: int) -> None:
        pe = rt.plan_exec
        if pe is None:
            return
        unmet, checks = execution.monitor_effects(pe, rt.ws, self.repertoire)
        if checks:
            self._learn(rt, learning.learn(checks, []))
        deviations = execution.monitor_execution(pe, tick, self.repertoire) + unmet
        if not deviations:
            if pe.attempt is None and pe.cursor >= len(pe.entries):
                rt.plan_exec = None  # the plan's last attempt is ruled on
            return
        for dev in deviations:
            self.emit("agent.deviation", agent=rt.state.agent_id, **asdict(dev))
        decision = execution.adjust(pe, deviations, self.repertoire, rt.retry_counts,
                                    rt.ws, rt.roe)
        self.emit("agent.adjustment", agent=rt.state.agent_id, decision=decision.kind,
                  substitute=decision.substitute_action_id)
        if decision.kind == "replan":
            rt.plan_exec = None

    def _maybe_plan(self, rt: AgentRuntime, assessment: Assessment, tick: int) -> None:
        if rt.plan_exec is not None or not assessment.problematic:
            if not assessment.problematic:
                rt.no_action_streak = 0
            return
        # a decision stands while its assessment does: identify re-runs on any
        # change of a feature or a pattern, and a command drops the decision
        kept = rt.decision
        if kept is None or kept[0] is not assessment:
            kept = rt.decision = (assessment, *self._plan(rt, assessment))
        _, path, body, encoded = kept
        self._decide(rt, tick, path, assessment, body, encoded)
        if body["chosen"]["no_action"]:
            rt.no_action_streak += 1
            if (rt.no_action_streak >= self.config.collaboration.fail_safe_streak
                    and rt.state.mode is AgentMode.NORMAL):
                self._fail_safe(rt, "persistent_no_action")

    def _fail_safe(self, rt: AgentRuntime, reason: str) -> None:
        """Degrade the agent to fail-safe, record why and report it."""
        rt.state.mode = AgentMode.FAIL_SAFE
        self.emit("agent.fail_safe", agent=rt.state.agent_id, reason=reason)
        self._attempt_report(rt, self.tick, reason="fail_safe")

    def _plan(self, rt: AgentRuntime, assessment: Assessment) -> tuple[str, dict[str, Any], str]:
        """The path, body and canonical bytes of a decision on `assessment`."""
        # identify matched these in this knowledge base: a ReplicaTransfer that
        # replaces it re-runs identify, and no pattern is ever removed
        patterns = [rt.kb.patterns[pattern_id] for pattern_id, _, _ in assessment.matched]
        body = planning.fast_rule_select(rt.ws, list(rt.kb.rules.values()),
                                         sensing.effective_deadline(patterns), rt.roe,
                                         self.repertoire)
        if body is not None:
            return "fast", body, canonical_json(body)
        progression = [delta for p in patterns for delta in p.progression]
        return ("deliberative",
                *self.config.deliberations.deliberate(rt.ws, rt.kb.goals, rt.roe, progression))

    def _decide(self, rt: AgentRuntime, tick: int, path: str, assessment: Assessment,
                body: dict[str, Any], encoded: str) -> None:
        """Log the decision and release its plan, if any. The plan runs a copy
        of the logged entries: execution.adjust substitutes an action by editing
        its entry in place, and the decisions of one memoised outcome share its
        body, so no logged entry is edited after this point. A body that
        encodes to the bytes of an earlier one in this episode is emitted as
        the index of the first, `same_as`."""
        envelope = {"tick": tick, "agent": rt.state.agent_id, "path": path,
                    "trigger": assessment.summary}
        first = self.body_index.setdefault(encoded, len(self.decision_log))
        reused = first < len(self.decision_log)
        self.decision_log.append({**envelope, **body})
        self.emit("agent.decision", **envelope, **({"same_as": first} if reused else body))
        chosen = body["chosen"]
        if not chosen["no_action"]:
            self.emit("agent.plan_released", agent=rt.state.agent_id,
                      entries=chosen["entries"], path=path)
            rt.plan_exec = PlanExecution([dict(e) for e in chosen["entries"]])
            rt.no_action_streak = 0

    def _execute(self, rt: AgentRuntime, tick: int) -> None:
        pe = rt.plan_exec
        if pe is None:
            return
        try:
            events = execution.execute_step(pe, self.env, rt.state, tick, self.repertoire,
                                            self.rng, lambda spec: self._propagate(rt, spec))
        except ModeForbidden as exc:
            self.emit("agent.plan_dropped", agent=rt.state.agent_id, reason=str(exc))
            rt.plan_exec = None
            return
        self._emit_events(events, agent=rt.state.agent_id)

    def _propagate(self, rt: AgentRuntime, spec: ActionSpec) -> bool:
        """The propagate builtin: install a replica on the action's target
        host. The replica starts with no knowledge and reads its parent's
        from the ReplicaTransfer in its inbox."""
        target = spec.target_host or ""
        integrity_belief = rt.ws.features.get("host_integrity", 1.0)
        new_id = f"{rt.state.agent_id}_r{rt.replica_count + 1}"
        try:
            replica_state = collaboration.propagate(
                rt.state, target, self.config.roster, self.post,
                integrity_belief, self.config.collaboration.propagation_threshold,
                rt.kb.to_json(), new_id,
                initial_detectability=rt.initial_detectability)
        except PropagationRefused as exc:
            self.emit("agent.propagation", agent=rt.state.agent_id, target=target,
                      installed=False, refusal=type(exc).__name__, detail=str(exc))
            return False
        rt.replica_count += 1
        self._add_runtime(replica_state, KnowledgeBase(), rt.initial_detectability)
        self.emit("agent.propagation", agent=rt.state.agent_id, target=target,
                  installed=True, replica=new_id)
        return True

    # -- reporting -----------------------------------------------------------------------

    def _attempt_report(self, rt: AgentRuntime, tick: int, reason: str) -> None:
        if self.config.c2_host is None:
            return
        rt.last_report_tick = tick  # skipped reports retry next interval
        events = collaboration.report(rt.state, self.post, reason)
        self._emit_events(events, agent=rt.state.agent_id)

    def _periodic_report(self, rt: AgentRuntime, tick: int) -> None:
        if tick - rt.last_report_tick >= self.config.collaboration.report_interval:
            self._attempt_report(rt, tick, reason="interval")

    # -- C2 control phase -------------------------------------------------------------------

    def _c2_phase(self, tick: int) -> None:
        for entry in self.config.c2_script:
            if entry["tick"] != tick:
                continue
            recipient = entry["to"]
            target = self.runtimes.get(recipient)
            if target is None:  # the agent is off: a scripted recipient is a scenario agent
                self.emit("c2.send_failed", to=recipient, reason="unknown_agent")
                continue
            sent = self.post.send(None, target.state.host_id,
                                  collaboration.MessageKind(entry["kind"]), recipient,
                                  entry["payload"])
            if sent is None:
                self.emit("c2.send_failed", to=recipient, reason="no_route")
            else:
                self.emit("c2.sent", to=recipient, message_kind=entry["kind"],
                          status=sent[1].value)
        self.env.drain_inbox("c2")  # the center takes its status reports and acts on none

    # -- episode-end learning ------------------------------------------------------------------

    def _end_of_episode_learning(self) -> None:
        if not self.config.training:
            return
        compromised = self.malware.held_hosts()
        # an agent's assessment events are exactly its passes that matched a pattern
        matched: dict[str, set[str]] = {}
        for event in self.trace:
            if event["kind"] == "agent.assessment":
                matched.setdefault(event["agent"], set()).update(m[0] for m in event["matched"])
        for agent_id in sorted(matched):
            rt = self.runtimes[agent_id]
            confirmed = rt.state.host_id in compromised
            self._learn(rt, learning.learn(
                [], [(pid, confirmed) for pid in sorted(matched[agent_id])]))

    def _learn(self, rt: AgentRuntime, propositions: list[learning.Proposition]) -> None:
        """Apply a non-empty list of propositions of one kind."""
        for proposition in propositions:
            learning.apply_proposition(rt.kb, proposition)
        self.emit("agent.learning", agent=rt.state.agent_id,
                  propositions=len(propositions), proposition_kind=propositions[0].kind)


# -- public entry points --------------------------------------------------------------------

def run_episode(config: ScenarioConfig, seed: int, agent_enabled: bool = True) -> EpisodeResult:
    return Episode(config, seed, agent_enabled=agent_enabled).run()


def run_batch(config: ScenarioConfig, seeds: list[int],
              agent_enabled: bool = True) -> dict[str, Any]:
    """One episode per seed; like every episode of the config they share its
    memo, which moves no byte. Aggregation is a pure fold over results by seed."""
    if not seeds:
        raise ConfigInvalid("batch needs at least one seed")
    per_seed: dict[int, dict[str, Any]] = {}
    for seed in sorted(set(seeds)):
        per_seed[seed] = Episode(config, seed, agent_enabled).run().metrics
    numeric_keys = ["resilience_auc", "harm_events", "reward_total"]
    aggregate: dict[str, Any] = {}
    for key in numeric_keys:
        values = [per_seed[s][key] for s in sorted(per_seed)]
        aggregate[key] = {"mean": sum_in_order(values) / len(values),
                          "min": min(values), "max": max(values)}
    recoveries = [per_seed[s]["time_to_recovery"] for s in sorted(per_seed)
                  if per_seed[s]["time_to_recovery"] is not None]
    aggregate["time_to_recovery"] = {
        "recovered_runs": len(recoveries),
        "mean": sum_in_order(recoveries) / len(recoveries) if recoveries else None,
    }
    aggregate["agent_survived_rate"] = (
        sum(1 for s in per_seed if per_seed[s]["agent_survived"]) / len(per_seed)
        if agent_enabled else None)
    return {"scenario": config.name, "scenario_hash": config.scenario_hash,
            "seeds": sorted(per_seed), "per_seed": {str(s): per_seed[s] for s in sorted(per_seed)},
            "aggregate": aggregate}


def write_trace(result: EpisodeResult, path: str | Path) -> None:
    lines = [canonical_json(result.header())]
    lines += [canonical_json(event) for event in result.trace]
    lines.append(canonical_json(
        {"kind": "end", "events": len(result.trace), "metrics": result.metrics}))
    write_text(path, "\n".join(lines) + "\n")


def write_result(result: EpisodeResult, path: str | Path) -> None:
    write_text(path, canonical_json(result.to_json()) + "\n")


def replay(trace_path: str | Path) -> dict[str, Any]:
    """Recompute the metrics block from a trace file alone."""
    events = read_json(trace_path, CorruptTrace, "trace", lines=True)
    if not events:
        raise CorruptTrace("empty trace file")
    header = events.pop(0)
    if not isinstance(header, dict):
        raise CorruptTrace("trace header is not a JSON object")
    version = header.get("schema_version")
    if version != TRACE_SCHEMA_VERSION:
        raise SchemaMismatch(
            f"trace schema_version {version!r}, expected {TRACE_SCHEMA_VERSION}")
    holds_body: list[bool] = []  # per decision so far: does its event hold its body
    for number, event in enumerate(events, start=2):
        if not isinstance(event, dict) or "kind" not in event:
            raise CorruptTrace(f"trace line {number} is not an event object with a kind")
        if event["kind"] == "agent.decision":
            full, ref = _holds_body(event, "trace line", number), event.get("same_as")
            if not (full or type(ref) is int and 0 <= ref < len(holds_body) and holds_body[ref]):
                raise CorruptTrace(_bad_reference(ref, "trace line", number))
            holds_body.append(full)
    if not events or events[-1].get("kind") != "end":
        raise CorruptTrace("trace missing end record")
    end = events.pop()
    if end.get("events") != len(events):
        raise CorruptTrace(
            f"trace truncated: end record says {end.get('events')} events, found {len(events)}")

    try:
        return _episode_metrics(events, header.get("primary_agent"))
    except (KeyError, TypeError, OverflowError) as exc:
        raise CorruptTrace(f"malformed event field: {exc!r}") from exc


def _holds_body(record: Any, what: str, number: int) -> bool:
    """Whether a decision record holds its body (True) or names an earlier
    decision's with `same_as` (False). It must do exactly one of the two."""
    if not isinstance(record, dict):
        raise CorruptTrace(f"{what} {number} is not a JSON object")
    full = "same_as" not in record
    if ("candidates" in record, "chosen" in record, "rationale" in record) != (full, full, full):
        raise CorruptTrace(f"{what} {number}: a decision carries either same_as or "
                           "all of candidates, chosen and rationale")
    return full


def _bad_reference(ref: Any, what: str, number: int) -> str:
    return (f"{what} {number}: same_as {canonical_json(ref)} names no earlier decision that "
            "holds its body")


def explain(decision_log: list[dict[str, Any]], index: int) -> str:
    """Human-readable rendering of one decision, derived solely from the
    recorded log entry and, for a repeated body, the entry its `same_as`
    names, which must be an earlier entry that holds its body."""
    if not 0 <= index < len(decision_log):
        raise IndexOutOfRange(f"decision index {index} outside 0..{len(decision_log) - 1}"
                              if decision_log else "the result holds no decisions")
    entry = body = decision_log[index]
    if not _holds_body(entry, "decision", index):
        ref = entry["same_as"]
        if not (type(ref) is int and 0 <= ref < index
                and _holds_body(decision_log[ref], "decision", ref)):
            raise CorruptTrace(_bad_reference(ref, "decision", index))
        body = decision_log[ref]
    try:
        return _render_decision(entry, body, index)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptTrace(f"decision {index} is malformed: {exc!r}") from exc


def _render_decision(entry: dict[str, Any], body: dict[str, Any], index: int) -> str:
    """The decision: `entry`'s envelope and `body`'s candidates, chosen and rationale."""
    lines: list[str] = []
    trigger = entry["trigger"]
    lines.append(f"Decision {index} at tick {entry['tick']} by agent {entry['agent']}:")
    matched = ", ".join(f"{m[0]} (severity {m[1]:.2f}, confidence {m[2]:.2f})"
                        for m in trigger["matched"]) or "none"
    lines.append(f"  Trigger: matched patterns: {matched}")
    lines.append(f"  Top severity {trigger['top_severity']:.2f}; "
                 f"problematic={trigger['problematic']}")

    rationale = body["rationale"]
    if entry.get("path") == "fast":
        lines.append(f"  Fast path taken: deadline {rationale['deadline_ticks']} tick(s) "
                     f"< fast threshold {rationale['fast_deadline_ticks']}")
        for ev in rationale["rules_evaluated"]:
            lines.append(f"    rule {ev['rule']} (priority {ev['priority']}): "
                         f"condition_held={ev['condition_held']}, roe_ok={ev['roe_ok']}")
        lines.append(f"  Chosen action: {body['chosen']['action_id']}")
        return "\n".join(lines)

    lines.append(f"  Candidates (utility = benefit - {rationale['risk_weight']}*risk "
                 f"- {rationale['noise_weight']}*noise):")
    for cand in body["candidates"]:
        actions = " -> ".join(cand["actions"]) if cand["actions"] else "(empty plan)"
        verdict = "ok" if cand["roe_ok"] else "FILTERED: " + "; ".join(cand["roe_violations"])
        lines.append(f"    [{actions}] utility {cand['utility']:.4f} = "
                     f"{cand['benefit']:.4f} - {rationale['risk_weight']}*{cand['risk_total']:.4f}"
                     f" - {rationale['noise_weight']}*{cand['noise_total']:.4f} (ROE {verdict})")
    tie = rationale["tie_break"]
    if tie["used"]:
        lines.append(f"  Tie break: kept {tie['kept']} over {tie['over']} ({tie['rule']})")
    for trim in rationale["trims"]:
        lines.append(f"  Trimmed {trim['action']}: {trim['reason']} {trim['failing']}")
    for ins in rationale["insertions"]:
        lines.append(f"  Inserted {ins['action']} ({ins['origin']})"
                     + (f" before {ins['before']}" if ins["before"] else ""))
    gate = rationale["gate"]
    # a plan that beats inaction is still withheld if the gate names a reason
    relation = ">" if gate["inaction_loss"] - gate["plan_loss"] > 0.0 else "<="
    lines.append(
        f"  Risk gate: inaction loss {gate['inaction_loss']:.4f} - plan loss "
        f"{gate['plan_loss']:.4f} {relation} 0 -> "
        + ("released" if gate["released"] else "no action")
        + (f" ({gate['reason']})" if "reason" in gate else ""))
    chosen = body["chosen"]
    if chosen["no_action"]:
        lines.append("  Chosen: no action")
    else:
        lines.append("  Chosen plan:")
        for e in chosen["entries"]:
            lines.append(f"    +{e['offset']:>3} {e['action']} [{e['origin']}]")
    return "\n".join(lines)


def export_csv(batch: dict[str, Any], path: str | Path) -> None:
    """One row per (scenario, seed) with named metric columns."""
    fields = ["scenario", "seed", "resilience_auc", "time_to_recovery",
              "agent_survived", "harm_events", "reward_total"]
    rows = io.StringIO(newline="")
    writer = csv.DictWriter(rows, fieldnames=fields)
    writer.writeheader()
    for seed in batch["seeds"]:
        metrics = batch["per_seed"][str(seed)]
        writer.writerow({"scenario": batch["scenario"], "seed": seed, **metrics})
    write_text(path, rows.getvalue())
