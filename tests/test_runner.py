import copy
import functools
import hashlib
import importlib.util
import itertools
import json
import math
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from defsim import collaboration, execution, planning, sensing
from defsim.errors import (
    ConfigInvalid,
    CorruptTrace,
    IndexOutOfRange,
    SchemaMismatch,
    canonical_json,
)
from defsim.runner import (
    AgentRuntime,
    Episode,
    explain,
    export_csv,
    replay,
    run_batch,
    run_episode,
    time_to_recovery,
    write_result,
    write_trace,
    _deliberations,
)
from defsim.scenario import _COMMAND, load_scenario, parse_scenario
from defsim.sensing import Assessment

from conftest import BUNDLED, assert_same_knowledge, scenario_path
from memo_oracle import check_reads, episode_inputs

GOLDEN_DIR = Path(__file__).parent / "golden"


def quiet_scenario(**overrides):
    """Agent present, no malware: nothing to fix."""
    raw = {
        "schema_version": 1,
        "name": "quiet",
        "duration_ticks": 20,
        "topology": {
            "thresholds": {"up_threshold": 0.8, "down_threshold": 0.3},
            "hosts": [
                {"host_id": "h1",
                 "services": [{"service_id": "svc", "required": True, "weight": 1.0, "health": 1.0}],
                 "processes": [{"process_id": "sys", "image_hash": "s", "known_good": True,
                                "owner": "system"}]},
            ],
            "channels": [],
        },
        "sensors": {
            "physical": ["service_table", "process_table"],
            "logical": ["unknown_proc_count", "service_weights"],
            "transformers": ["functionality_belief", "counts"],
        },
        "patterns": [{"id": "proc", "predicates": [["unknown_proc_count", ">=", 1]],
                      "severity": 0.9, "confidence": 0.9}],
        "repertoire": [{"action_id": "watch", "category": "observe"}],
        "goals": [{"goal_id": "g", "predicates": [["functionality_belief", ">=", 0.95]],
                   "weight": 1.0}],
        "agents": [{"agent_id": "a1", "host_id": "h1"}],
    }
    raw.update(overrides)
    return parse_scenario(raw)


def test_no_malware_full_functionality_and_no_plans():
    result = run_episode(quiet_scenario(), seed=1)
    assert all(v == 1.0 for v in result.functionality_series)
    assert result.metrics["resilience_auc"] == 1.0
    released = [e for e in result.trace if e["kind"] == "agent.plan_released"]
    assert released == []
    assert result.metrics["agent_survived"] is True
    assert result.metrics["harm_events"] == 0


def test_same_config_and_seed_identical_serialization():
    config = quiet_scenario()
    a = run_episode(config, 3)
    b = run_episode(config, 3)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    assert json.dumps(a.trace, sort_keys=True) == json.dumps(b.trace, sort_keys=True)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_determinism_and_replay(name, bundled_configs, tmp_path):
    config = bundled_configs[name]
    first = run_episode(config, 2)
    second = run_episode(config, 2)
    assert json.dumps(first.trace, sort_keys=True) == json.dumps(second.trace, sort_keys=True)
    trace_path = tmp_path / "trace.jsonl"
    write_trace(first, trace_path)
    recomputed = replay(trace_path)
    assert json.dumps(recomputed, sort_keys=True) == json.dumps(first.metrics, sort_keys=True)


def test_batch_singleton_equals_episode_metrics():
    config = quiet_scenario()
    batch = run_batch(config, [4])
    episode = run_episode(config, 4)
    assert batch["per_seed"]["4"] == episode.metrics
    assert batch["aggregate"]["resilience_auc"]["mean"] == episode.metrics["resilience_auc"]


def test_batch_order_insensitive():
    config = quiet_scenario()
    forward = run_batch(config, [1, 2, 3])
    shuffled = run_batch(config, [3, 1, 2])
    assert json.dumps(forward, sort_keys=True) == json.dumps(shuffled, sort_keys=True)


def test_a_repeated_seed_runs_once(bundled_configs, monkeypatch):
    config, run, runs = bundled_configs["s1_comms_spoof"], Episode.run, []

    def counted_run(self):
        runs.append(self.seed)
        return run(self)

    monkeypatch.setattr(Episode, "run", counted_run)
    batch = run_batch(config, [1, 1, 2])
    assert runs == [1, 2]
    assert batch == run_batch(config, [1, 2])


def test_a_forward_sends_one_payload_to_every_peer(bundled_configs, monkeypatch):
    handle, send = Episode._handle_conclusions, Episode._send_conclusions
    forwards: list[list] = []  # per _handle_conclusions call: each send's (payload, copy)

    def recorded_handle(self, rt, msg, reply):
        forwards.append([])
        return handle(self, rt, msg, reply)

    def recorded_send(self, rt, peer_id, payload, round_no):
        forwards[-1].append((payload, copy.deepcopy(payload)))
        return send(self, rt, peer_id, payload, round_no)

    monkeypatch.setattr(Episode, "_handle_conclusions", recorded_handle)
    monkeypatch.setattr(Episode, "_send_conclusions", recorded_send)
    for seed in range(1, 21):
        run_episode(bundled_configs["s3_partition"], seed)
    assert max(len(sends) for sends in forwards) == 2
    for sends in forwards:
        assert all(payload is sends[0][0] for payload, _ in sends)
        # recipients only read it: it still holds what was sent
        assert all(payload == sent for payload, sent in sends)


def test_batch_requires_seeds():
    with pytest.raises(ConfigInvalid):
        run_batch(quiet_scenario(), [])


def test_batch_csv_export(tmp_path):
    config = quiet_scenario()
    batch = run_batch(config, [1, 2])
    path = tmp_path / "metrics.csv"
    export_csv(batch, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("scenario,seed,resilience_auc")
    assert len(lines) == 3


# -- trace file handling ----------------------------------------------------------------------

def test_replay_truncated_trace_is_corrupt(tmp_path):
    result = run_episode(quiet_scenario(), 1)
    path = tmp_path / "trace.jsonl"
    write_trace(result, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")  # drop the end record and more
    with pytest.raises(CorruptTrace):
        replay(path)


def test_replay_wrong_event_count_is_corrupt(tmp_path):
    result = run_episode(quiet_scenario(), 1)
    path = tmp_path / "trace.jsonl"
    write_trace(result, path)
    lines = path.read_text().splitlines()
    del lines[5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptTrace):
        replay(path)


def test_replay_garbage_line_is_corrupt(tmp_path):
    result = run_episode(quiet_scenario(), 1)
    path = tmp_path / "trace.jsonl"
    write_trace(result, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # cut mid line
    with pytest.raises(CorruptTrace):
        replay(path)


def test_replay_schema_mismatch_names_version(tmp_path):
    result = run_episode(quiet_scenario(), 1)
    path = tmp_path / "trace.jsonl"
    write_trace(result, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["schema_version"] = 0
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(SchemaMismatch) as err:
        replay(path)
    assert "0" in str(err.value)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=150)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5)


@given(data=st.data(), seed=st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_replay_checks_every_decision_reference(bundled_results, tmp_path_factory, data, seed):
    """A `same_as` rewritten to any JSON value replays to the episode's
    metrics if it still names an earlier decision that holds its body, and
    raises CorruptTrace otherwise."""
    result = bundled_results[("s3_partition", seed)]
    path = tmp_path_factory.mktemp("refs") / "trace.jsonl"
    write_trace(result, path)
    lines = path.read_text().splitlines()
    events = [json.loads(line) for line in lines]
    decisions = [i for i, e in enumerate(events) if e.get("kind") == "agent.decision"]
    line = data.draw(st.sampled_from([i for i in decisions if "same_as" in events[i]]))
    value = data.draw(_json_values)
    lines[line] = json.dumps({**events[line], "same_as": value})
    path.write_text("\n".join(lines) + "\n")
    if (type(value) is int and 0 <= value < decisions.index(line)
            and "same_as" not in events[decisions[value]]):
        assert replay(path) == result.metrics
    else:
        with pytest.raises(CorruptTrace):
            replay(path)


@pytest.mark.parametrize("agent_enabled", [True, False], ids=["agent_on", "agent_off"])
@pytest.mark.parametrize("name", BUNDLED)
def test_replay_metrics_serialize_like_result_json(name, agent_enabled, bundled_configs,
                                                   tmp_path):
    result = run_episode(bundled_configs[name], 1, agent_enabled=agent_enabled)
    write_trace(result, tmp_path / "trace.jsonl")
    write_result(result, tmp_path / "result.json")
    stored = json.loads((tmp_path / "result.json").read_text())["metrics"]
    replayed = replay(tmp_path / "trace.jsonl")
    assert json.dumps(replayed, sort_keys=True) == json.dumps(result.metrics, sort_keys=True)
    assert json.dumps(replayed, sort_keys=True) == json.dumps(stored, sort_keys=True)


def test_seq_is_the_position_of_an_event_in_its_tick(bundled_configs):
    """Ticks never decrease, seq runs 0, 1, 2, ... within each tick, and a
    tick's delayed deliveries open it."""
    delivered = 0
    for config in bundled_configs.values():
        for agent_enabled in (True, False):
            for seed in range(1, 21):
                trace = run_episode(config, seed, agent_enabled).trace
                for before, event in zip([None] + trace, trace):
                    same_tick = before is not None and before["tick"] == event["tick"]
                    assert before is None or before["tick"] <= event["tick"]
                    assert event["seq"] == (before["seq"] + 1 if same_tick else 0)
                    if event["kind"] == "env.message_delivered":
                        assert not same_tick or before["kind"] == "env.message_delivered"
                        delivered += 1
    assert delivered


# -- explain -----------------------------------------------------------------------------------

def test_explain_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        explain([], 0)


def test_explain_released_plan_lists_origins(bundled_results):
    result = bundled_results[("s1_comms_spoof", 1)]
    released = [i for i, d in enumerate(result.decision_log)
                if not d["chosen"]["no_action"] and d["path"] == "deliberative"]
    text = explain(result.decision_log, released[0])
    assert "Risk gate" in text
    assert "[proposed]" in text
    assert "[precautionary]" in text or "[post_execution]" in text
    assert "utility" in text


def test_explain_no_action_states_gate_numbers(bundled_results):
    for seed in range(1, 6):
        result = bundled_results[("s2_lateral_hunt", seed)]
        withheld = [i for i, d in enumerate(result.decision_log)
                    if d["chosen"]["no_action"] and d["rationale"].get("gate", {}).get(
                        "inaction_loss") is not None]
        if withheld:
            text = explain(result.decision_log, withheld[0])
            assert "inaction loss" in text and "plan loss" in text
            assert "no action" in text
            return
    pytest.fail("no gated no_action decision found in s2 seeds 1..5")


def test_explain_names_tie_break():
    from defsim.runner import explain as render
    entry = {
        "tick": 1, "agent": "a1", "path": "deliberative",
        "trigger": {"matched": [["p", 0.9, 0.9]], "top_severity": 0.9, "problematic": True},
        "candidates": [
            {"actions": ["a_fix"], "utility": 0.5, "benefit": 0.5, "risk_total": 0.0,
             "noise_total": 0.0, "roe_ok": True, "roe_violations": []},
            {"actions": ["b_fix"], "utility": 0.5, "benefit": 0.5, "risk_total": 0.0,
             "noise_total": 0.0, "roe_ok": True, "roe_violations": []},
        ],
        "chosen": {"no_action": False,
                   "entries": [{"action": "a_fix", "offset": 0, "origin": "proposed"}]},
        "rationale": {
            "risk_weight": 1.0, "noise_weight": 0.5,
            "tie_break": {"used": True, "kept": ["a_fix"], "over": ["b_fix"],
                          "rule": "lexicographic_action_ids"},
            "trims": [], "insertions": [],
            "gate": {"inaction_loss": 1.0, "plan_loss": 0.0, "released": True},
            "winner": ["a_fix"],
        },
    }
    text = render([entry], 0)
    assert "lexicographic_action_ids" in text


def test_explain_fast_decision_renders_rules(bundled_results):
    for seed in range(1, 6):
        result = bundled_results[("s2_lateral_hunt", seed)]
        fast = [i for i, d in enumerate(result.decision_log) if d["path"] == "fast"]
        if fast:
            text = explain(result.decision_log, fast[0])
            assert "Fast path taken" in text
            assert "Chosen action" in text
            return
    pytest.fail("no fast decision in s2 seeds 1..5")


# -- metrics ------------------------------------------------------------------------------------

def test_time_to_recovery_requires_sustained_level():
    series = [1.0] * 3 + [0.2] * 5 + [0.96] * 9 + [0.2] + [0.97] * 12
    # onset at 3; the 9-tick plateau is too short, the 12-tick one qualifies
    assert time_to_recovery(series, 3) == 18
    assert time_to_recovery(series, None) is None
    assert time_to_recovery([1.0] * 30, None) is None


def test_forbidding_destructive_actions_forces_zero_harm(bundled_configs):
    raw = json.loads(json.dumps(bundled_configs["s1_comms_spoof"].raw))
    raw["roe"]["forbidden_categories"] = ["destructive"]
    config = parse_scenario(raw)
    for seed in range(1, 6):
        result = run_episode(config, seed)
        assert result.metrics["harm_events"] == 0
        assert not any(e["kind"] == "harm" for e in result.trace)


RISK_LOOP = Path(__file__).parent / "data" / "risk_loop.json"


def risk_loop_scenario(script=()):
    """Instance m1 spawns a process on h1 at tick 0. The agent purges every
    unknown process with a destructive action that also takes h1's required
    service down, and a restore action, which the planner predicts brings
    functionality back, rolls h1 back to the precautionary snapshot. The
    remote center on c2host sends `script`."""
    doc = json.loads(RISK_LOOP.read_text())
    doc["c2"]["script"] = [{"to": "a1", **entry} for entry in script]
    return parse_scenario(doc)


def test_harm_then_a_restore_closes_the_risk_loop(tmp_path):
    result = run_episode(risk_loop_scenario(), 1)
    events = [(e["tick"], e["kind"]) for e in result.trace
              if e["kind"] in ("env.snapshot", "harm", "env.restore")]
    assert events == [(0, "env.snapshot"), (1, "harm"), (3, "env.restore")]
    harm = next(e for e in result.trace if e["kind"] == "harm")
    assert (harm["entity"], harm["cause"]) == ("service:h1:svc", "agent:a1:purge")
    assert result.functionality_series[1:4] == [0.0, 0.0, 1.0]
    assert result.metrics["harm_events"] == 1
    write_trace(result, tmp_path / "trace.jsonl")
    assert replay(tmp_path / "trace.jsonl")["harm_events"] == 1


def test_an_instance_whose_processes_are_killed_is_evicted():
    result = run_episode(risk_loop_scenario(), 1)
    evicted = [e for e in result.trace if e["kind"] == "adversary.evicted"]
    assert [(e["tick"], e["instance"]) for e in evicted] == [(2, "m1")]
    assert not any(e.get("cause") == "malware:m1" for e in result.trace if e["tick"] >= 2)


def test_two_hunts_that_find_the_agent_in_one_tick_kill_it_once(tmp_path):
    raw = json.loads(Path(scenario_path("s2_lateral_hunt")).read_text())
    raw["playbook"]["instances"] = [
        {"instance_id": iid, "host_id": "h1", "phase": "AgentHunt", "hunt_intensity": 1.0}
        for iid in ("m1", "m2")]
    raw["playbook"]["steps"] = []
    raw["agents"][0]["detectability"] = 1.0
    result = run_episode(parse_scenario(raw), 1)
    killed = [(e["tick"], e["agent"], e["by"]) for e in result.trace if e["kind"] == "agent.killed"]
    assert killed == [(0, "a1", "malware:m1")]
    assert result.trace[-1]["tick"] == raw["duration_ticks"] - 1
    write_trace(result, tmp_path / "trace.jsonl")
    assert replay(tmp_path / "trace.jsonl") == result.metrics


def test_a_hunt_kills_an_agent_whose_own_action_killed_its_process(tmp_path):
    """a1 starts unseen, then a fast rule's self_kill (noise 1.0) kills a1's
    own process at tick 0; m1's certain hunt finds a1 at tick 1, and the kill
    clears a residence whose process is already gone."""
    config = quiet_scenario(
        duration_ticks=6,
        playbook={"instances": [{"instance_id": "m1", "host_id": "h1", "phase": "AgentHunt",
                                 "hunt_intensity": 1.0}]},
        patterns=[{"id": "always", "predicates": [["functionality_belief", ">=", 0.0]],
                   "severity": 0.9, "confidence": 0.9, "deadline_ticks": 0}],
        repertoire=[{"action_id": "self_kill", "category": "contain", "noise": 1.0,
                     "effects": [{"env": {"target": "process:$self:agent_proc_a1",
                                          "operation": "kill"}}]}],
        rules=[{"rule_id": "r", "action_id": "self_kill", "priority": 1}],
        roe={"fast_deadline_ticks": 1},
        agents=[{"agent_id": "a1", "host_id": "h1", "detectability": 0.0}])
    result = run_episode(config, 1)
    effects = [(e["tick"], e["cause"], e["changes"][0]["entity"])
               for e in result.trace if e["kind"] == "env.effect"]
    assert effects == [(0, "agent:a1:self_kill", "process:h1:agent_proc_a1"),
                       (1, "malware:m1", "agent:a1")]
    killed = [(e["tick"], e["agent"]) for e in result.trace if e["kind"] == "agent.killed"]
    assert killed == [(1, "a1")]
    assert result.trace[-1]["tick"] == 5 and result.metrics["agent_survived"] is False
    write_trace(result, tmp_path / "trace.jsonl")
    assert replay(tmp_path / "trace.jsonl") == result.metrics


def test_a_replica_is_refused_a_host_that_holds_a_live_agent(tmp_path):
    raw = json.loads(Path(scenario_path("s2_lateral_hunt")).read_text())
    raw["agents"].append({"agent_id": "a2", "host_id": "h2"})  # a1's replicate_backup target
    result = run_episode(parse_scenario(raw), 2)
    propagations = [e for e in result.trace if e["kind"] == "agent.propagation"]
    assert propagations and {(e["installed"], e["refusal"]) for e in propagations} == {
        (False, "RefusedOccupied")}
    assert result.agents == ["a1", "a2"]
    write_trace(result, tmp_path / "trace.jsonl")
    assert replay(tmp_path / "trace.jsonl") == result.metrics


def test_a_fail_safe_command_forbids_the_destructive_step():
    script = [{"tick": 0, "kind": "ControlCommand", "payload": {"command": "fail_safe"}}]
    result = run_episode(risk_loop_scenario(script), 1)
    fail_safe = [(e["tick"], e["reason"]) for e in result.trace if e["kind"] == "agent.fail_safe"]
    assert fail_safe == [(1, "supervisor_command")]
    dropped = [e for e in result.trace if e["kind"] == "agent.plan_dropped"]
    assert dropped and "destructive action 'purge' forbidden in fail_safe" in dropped[0]["reason"]
    assert result.metrics["harm_events"] == 0


def test_a_second_handover_grant_is_discarded():
    script = [{"tick": tick, "kind": "HandoverGrant"} for tick in (0, 1)]
    result = run_episode(risk_loop_scenario(script), 1)
    handovers = [(e["tick"], e["kind"], e.get("authority") or e.get("reason"))
                 for e in result.trace if e["kind"] in ("agent.handover",
                                                        "agent.message_discarded")]
    assert handovers == [
        (1, "agent.handover", "remote_c2"),
        (2, "agent.message_discarded",
         "invalid_transition: grant while authority already remote")]


# set_roe field -> (the value the command sends, the value the agent's ROE then holds)
ROE_VALUES = {"max_plan_risk": (0.25, 0.25), "destructive_only_on_residence": (False, False),
              "forbidden_categories": (["contain"], {"contain"}), "fast_deadline_ticks": (7, 7)}
# control command -> (its fields, what the agent holds after it)
COMMANDS = {
    "set_goal_weight": ({"goal_id": "g", "weight": 1.5},
                        lambda rt: [g.weight for g in rt.kb.goals] == [0.75, 0.25]),
    "set_roe": ({}, None),  # one command per field of ROE_VALUES
    "add_rule": ({"rule": {"rule_id": "r9", "condition": [], "action_id": "watch",
                           "priority": 9}},
                 lambda rt: "r9" in rt.kb.rules and rt.kb.rules["r9"].action_id == "watch"),
    "add_pattern_example": ({"features": {"unknown_proc_count": 2}, "label": "compromised"},
                            lambda rt: rt.kb.patterns["proc"].confidence == 1.0),
    "fail_safe": ({}, lambda rt: rt.state.mode is execution.AgentMode.FAIL_SAFE),
}


def test_the_agent_applies_every_control_command_of_the_format_in_its_own_branch():
    assert set(_COMMAND.cases) == set(COMMANDS)
    assert set(_COMMAND.cases["set_roe"].cases) == set(ROE_VALUES)
    cases = [(name, {"command": name, **fields}, check) for name, (fields, check)
             in COMMANDS.items() if name != "set_roe"]
    cases += [(f"set_roe {field}", {"command": "set_roe", "field": field, "value": sent},
               lambda rt, field=field, held=held: getattr(rt.roe, field) == held)
              for field, (sent, held) in ROE_VALUES.items()]
    script = [{"tick": 0, "kind": "ControlCommand", "to": "a1", "payload": command}
              for _, command, _ in cases]
    config = quiet_scenario(  # the script shows that the format accepts every command
        goals=[{"goal_id": "g", "predicates": [], "weight": 1.0},
               {"goal_id": "g2", "predicates": [], "weight": 1.0}],
        c2={"host_id": "h1", "script": script})
    for name, command, check in cases:
        episode = Episode(config, seed=1)
        rt = episode.runtimes["a1"]
        assert not check(rt), name
        episode._apply_control_queue(rt, [command])
        assert check(rt), name
        applied = [e.get("command") for e in episode.trace
                   if e["kind"] in ("agent.control_applied", "agent.fail_safe")]
        assert applied == [None if name == "fail_safe" else command["command"]], name


def test_decision_log_complete_for_released_plans(bundled_results):
    for result in bundled_results.values():
        released_events = [e for e in result.trace if e["kind"] == "agent.plan_released"]
        released_decisions = [d for d in result.decision_log if not d["chosen"]["no_action"]]
        assert len(released_events) == len(released_decisions)


def test_control_commands_apply_at_decision_boundary(bundled_results):
    result = bundled_results[("s1_comms_spoof", 1)]
    queued = [e for e in result.trace if e["kind"] == "agent.control_queued"]
    applied = [e for e in result.trace if e["kind"] == "agent.control_applied"]
    assert queued and applied
    for event in applied:
        same_tick = [e for e in result.trace
                     if e["tick"] == event["tick"] and e.get("agent") == event["agent"]]
        action_events = [e for e in same_tick if e["kind"] == "agent.action_started"]
        # execution within the tick happens only after the boundary
        for act in action_events:
            assert act["seq"] > event["seq"]


def test_remote_authority_suspends_execution(bundled_results):
    result = bundled_results[("s3_partition", 1)]
    grants = [e for e in result.trace
              if e["kind"] == "agent.handover" and e["authority"] == "remote_c2"]
    returns = [e for e in result.trace
               if e["kind"] == "agent.handover" and e["authority"] == "agent"]
    assert grants and returns
    start, end = grants[0]["tick"], returns[0]["tick"]
    a1_actions = [e for e in result.trace
                  if e["kind"] == "agent.action_started" and e.get("agent") == "a1"
                  and start < e["tick"] < end]
    assert a1_actions == []
    reports = [e for e in result.trace
               if e["kind"] == "agent.report" and e.get("agent") == "a1"
               and start < e["tick"] < end]
    assert reports  # it keeps reporting while supervised


@pytest.mark.parametrize("name", ["s1_comms_spoof", "s3_partition"])
def test_the_remote_center_takes_its_status_reports(name, bundled_configs, tmp_path):
    """Status reports are addressed to `c2`; the center's phase takes them
    each tick, so none is left in an inbox, and taking them moves no trace
    byte."""
    episode = Episode(bundled_configs[name], 1)
    result = episode.run()
    assert any(e["kind"] == "agent.report" and e["status"] != "dropped" for e in result.trace)
    assert [m for inbox in episode.env.inboxes.values() for m in inbox
            if m.get("recipient") == "c2"] == []
    write_trace(result, tmp_path / "trace.jsonl")
    golden = json.loads((GOLDEN_DIR / "agent_on_digests.json").read_text())
    assert (hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest()
            == golden[name]["digests_by_seed"]["1"]["trace"])


def test_a_status_report_carries_the_agents_own_last_three_decisions(bundled_configs,
                                                                     monkeypatch):
    report, summaries = collaboration.report, []

    def captured(state, c2_host, summary, *args, **kwargs):
        summaries.append((state.agent_id, copy.deepcopy(summary)))
        return report(state, c2_host, summary, *args, **kwargs)
    monkeypatch.setattr(collaboration, "report", captured)
    full = 0
    for seed in range(1, 21):
        summaries.clear()
        result = run_episode(bundled_configs["s3_partition"], seed)
        decided: dict[str, list] = {}  # agent -> its decisions so far, as a report lists them
        decisions, reports = iter(result.decision_log), iter(summaries)
        for event in result.trace:
            if event["kind"] == "agent.decision":
                entry = next(decisions)
                decided.setdefault(entry["agent"], []).append(
                    {"tick": entry["tick"], "path": entry["path"],
                     "no_action": entry["chosen"]["no_action"]})
            elif event["kind"] in ("agent.report", "agent.report_skipped"):
                agent, summary = next(reports)
                assert agent == event["agent"]
                assert summary["recent_decisions"] == decided.get(agent, [])[-3:]
                full += len(summary["recent_decisions"]) == 3
        assert next(reports, None) is None
    assert full


def test_training_sets_a_matched_patterns_confidence_to_its_confirmed_ratio(bundled_configs):
    """At the end of a training episode each pattern an agent matched counts
    one more match, confirmed when a malware instance was ever on the
    agent's host: the scenario's instances and those the trace shows moving
    laterally."""
    outcomes = set()
    for name in ("s2_lateral_hunt", "s3_partition"):
        raw = json.loads(json.dumps(bundled_configs[name].raw))
        raw["training"] = True
        config = parse_scenario(raw)
        for seed in range(1, 6):
            untrained, trained = Episode(bundled_configs[name], seed), Episode(config, seed)
            untrained.run()
            trace = trained.run().trace
            hosts = ({instance.host_id for instance in config.build_playbook()[0]}
                     | {e["host"] for e in trace if e["kind"] == "adversary.lateral"})
            matched: dict[str, set] = {}
            for e in trace:
                if e["kind"] == "agent.assessment":
                    matched.setdefault(e["agent"], set()).update(m[0] for m in e["matched"])
            for before, rt in zip(untrained.runtimes.values(), trained.runtimes.values(), strict=True):
                assert before.state.agent_id == rt.state.agent_id
                confirmed = rt.state.host_id in hosts
                for pid, pattern in rt.kb.patterns.items():
                    c, m = before.kb.pattern_stats.get(pid, (0, 0))
                    if pid in matched.get(rt.state.agent_id, ()):
                        c, m = c + confirmed, m + 1
                        outcomes.add(confirmed)
                    assert rt.kb.pattern_stats.get(pid, (0, 0)) == (c, m)
                    assert pattern.confidence == (c / m if m else
                                                  before.kb.patterns[pid].confidence)
    assert outcomes == {True, False}


def test_result_file_round_trip(bundled_configs, tmp_path):
    """The result file's decision log holds the trace's decision records, and
    resolving their `same_as` gives back the in-memory log."""
    result = run_episode(bundled_configs["s3_partition"], 1)  # repeats decision bodies
    path = tmp_path / "result.json"
    write_result(result, path)
    write_trace(result, tmp_path / "trace.jsonl")
    text = path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")  # one compact line
    data = json.loads(text)
    assert data["metrics"] == result.metrics
    assert data == result.to_json()
    assert data["decision_log"] == [{k: v for k, v in event.items() if k not in ("kind", "seq")}
                                    for event in decision_events(tmp_path / "trace.jsonl")]
    assert any("same_as" in entry for entry in data["decision_log"])
    assert resolve_same_as(data["decision_log"]) == result.decision_log


def test_set_roe_zero_risk_budget_filters_all_risky_plans(bundled_configs):
    # supervisor zeroes the risk budget early: afterwards no released plan
    # may contain a nonzero-risk action
    raw = json.loads(json.dumps(bundled_configs["s1_comms_spoof"].raw))
    raw["c2"]["script"] = [{"tick": 0, "kind": "ControlCommand", "to": "a1",
                            "payload": {"command": "set_roe", "field": "max_plan_risk",
                                        "value": 0.0}}]
    config = parse_scenario(raw)
    risk_of = {a["action_id"]: a.get("risk", 0.0) for a in raw["repertoire"]}
    for seed in (1, 2):
        result = run_episode(config, seed)
        applied = [e for e in result.trace if e["kind"] == "agent.control_applied"]
        assert applied and applied[0]["tick"] == 1  # arrives next tick, applied at boundary
        boundary = applied[0]["tick"]
        for event in result.trace:
            if event["kind"] == "agent.plan_released" and event["tick"] > boundary:
                assert all(risk_of.get(e["action"], 0.0) == 0.0 for e in event["entries"])


# -- the deliberation memo ------------------------------------------------------------

@pytest.fixture
def search_calls(monkeypatch):
    """Count the plan searches the episode loop starts."""
    calls = []
    search = planning.propose_plans

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(planning, "propose_plans", counted)
    return calls


def test_unchanged_no_action_deliberations_are_reused(bundled_configs, search_calls):
    config, seeds = bundled_configs["s3_partition"], list(range(1, 11))
    deliberations = 0
    for seed in seeds:
        result = run_episode(config, seed)
        deliberations += sum(1 for d in result.decision_log if d["path"] == "deliberative")
    alone = len(search_calls)
    assert 0 < alone < deliberations
    run_batch(config, seeds)  # one memo for all ten episodes
    assert 0 < len(search_calls) - alone < alone


_DECISION_BODY = ("candidates", "chosen", "rationale")
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def decision_events(trace_path):
    lines = trace_path.read_text().split("\n")
    return [e for e in map(json.loads, filter(None, lines)) if e.get("kind") == "agent.decision"]


def resolve_same_as(decisions):
    """These decision records, each `same_as` replaced in place by the body
    of the decision it names; also checks that no two full bodies are equal."""
    full = [_encode({k: d[k] for k in _DECISION_BODY}) for d in decisions if "same_as" not in d]
    assert len(set(full)) == len(full), "a full body repeats an earlier one"
    for record in decisions:
        if "same_as" in record:
            first = decisions[record.pop("same_as")]
            record.update({k: first[k] for k in _DECISION_BODY})
    return decisions


@pytest.mark.parametrize("name", BUNDLED)
def test_episodes_sharing_one_memo_write_the_bytes_of_lone_episodes(name, bundled_configs,
                                                                    tmp_path):
    """Episodes through one memo write the bytes of lone episodes, and
    resolving each `same_as` gives back the full decision event's bytes:
    {tick, seq, kind} and the decision_log entry."""
    config = bundled_configs[name]
    memo = _deliberations(config)
    for seed in range(1, 21):  # in seed order, as run_batch runs them
        shared = _artifact_bytes(Episode(config, seed, deliberations=memo).run(), tmp_path)
        lone = run_episode(config, seed)
        assert shared == _artifact_bytes(lone, tmp_path), seed
        resolved = resolve_same_as(decision_events(tmp_path / "trace.jsonl"))
        assert [_encode(event) for event in resolved] == [
            _encode({"tick": event["tick"], "seq": event["seq"], "kind": "agent.decision", **entry})
            for event, entry in zip(resolved, lone.decision_log, strict=True)], seed
    assert memo.bodies


def test_agents_install_in_order_and_run_in_id_order(bundled_configs, monkeypatch):
    """The header lists the agents in install order, scenario agents first,
    then replicas; each tick runs them in id order, and a replica first runs
    in the tick after its install."""
    raw = json.loads(json.dumps(bundled_configs["s2_lateral_hunt"].raw))
    raw["agents"].append({"agent_id": "a2", "host_id": "h3"})
    config = parse_scenario(raw)
    agent_phase, calls = Episode._agent_phase, []

    def recorded_phase(self, rt, tick):
        calls.append((tick, rt.state.agent_id))
        return agent_phase(self, rt, tick)

    monkeypatch.setattr(Episode, "_agent_phase", recorded_phase)
    for seed in range(2, 6):
        calls.clear()
        result = run_episode(config, seed)
        assert result.agents == ["a1", "a2", "a1_r1"]
        assert [e["tick"] for e in result.trace
                if e["kind"] == "agent.propagation" and e["installed"]] == [18]
        for tick in range(config.duration_ticks):
            ran = [agent for t, agent in calls if t == tick]
            assert ran == sorted(ran)
        assert min(t for t, agent in calls if agent == "a1_r1") == 19


def test_a_replica_starts_from_its_parents_knowledge(bundled_configs, monkeypatch):
    """After its first pass, a replica's knowledge base equals the one its
    parent sent at install, over s2 seeds 1-20."""
    add_runtime, agent_phase = Episode._add_runtime, Episode._agent_phase
    sent, checked = {}, []

    def recorded_add(self, state, kb, initial_detectability):
        parent = state.agent_id.rpartition("_r")[0]
        if parent in self.runtimes:  # a replica: scenario agents have no parent
            sent[state.agent_id] = (self.runtimes[parent].kb,
                                    copy.deepcopy(self.runtimes[parent].kb))
        return add_runtime(self, state, kb, initial_detectability)

    def first_pass_checked(self, rt, tick):
        agent_phase(self, rt, tick)
        if rt.state.agent_id in sent:
            parents, knowledge = sent.pop(rt.state.agent_id)
            assert rt.kb is not parents
            assert_same_knowledge(rt.kb, knowledge)
            checked.append(rt.state.agent_id)

    monkeypatch.setattr(Episode, "_add_runtime", recorded_add)
    monkeypatch.setattr(Episode, "_agent_phase", first_pass_checked)
    for seed in range(1, 21):
        sent.clear()
        run_episode(bundled_configs["s2_lateral_hunt"], seed)
    assert checked


def replica_scenario(channel):
    """a1 on h1, whose integrity is low, replicates to h2 over `channel`; a
    pattern with no predicates always matches."""
    return parse_scenario({
        "schema_version": 1, "name": "replica", "duration_ticks": 6,
        "topology": {"hosts": [{"host_id": "h1", "integrity": 0.2,
                                "services": [{"service_id": "svc", "required": True}]},
                               {"host_id": "h2"}],
                     "channels": [{"channel_id": "c12", "endpoints": ["h1", "h2"], **channel}]},
        "sensors": {"physical": ["host_integrity"], "logical": ["host_integrity"],
                    "transformers": ["host_integrity"]},
        "patterns": [{"id": "always", "severity": 0.9, "confidence": 0.9}],
        "repertoire": [{"action_id": "replicate", "category": "propagate",
                        "builtin": "propagate", "target_host": "h2", "target_scope": "remote",
                        "preconditions": [["host_integrity", "<=", 0.3]],
                        "effects": [{"features": [["replica_count", "add", 1]]}]}],
        "goals": [{"goal_id": "spread", "predicates": [["replica_count", ">=", 1]],
                   "weight": 1.0}],
        "roster": {"hosts": ["h1", "h2"], "authorization_token": "tok"},
        "agents": [{"agent_id": "a1", "host_id": "h1"}],
    })


def test_a_replica_identifies_on_the_pass_its_delayed_knowledge_arrives(monkeypatch):
    agent_phase, passes = Episode._agent_phase, []

    def recorded(self, rt, tick):
        agent_phase(self, rt, tick)
        if rt.state.agent_id == "a1_r1":
            passes.append((tick, len(rt.kb.patterns), [m[0] for m in rt.assessment.matched]))

    monkeypatch.setattr(Episode, "_agent_phase", recorded)
    result = run_episode(replica_scenario({"state": "degraded", "delay_ticks": 2}), 1)
    installed = [e["tick"] for e in result.trace
                 if e["kind"] == "agent.propagation" and e["installed"]]
    arrived = [e["tick"] for e in result.trace if e["kind"] == "env.message_delivered"
               and e["message_kind"] == "ReplicaTransfer"]
    assert installed == [0] and arrived == [2]
    # the pass before the transfer matches no pattern; the one it arrives in does
    assert passes[:2] == [(1, 0, []), (2, 1, ["always"])]
    assert [e["tick"] for e in result.trace
            if e["kind"] == "agent.assessment" and e["agent"] == "a1_r1"][0] == 2


def withholding_agent():
    """An agent whose only action never beats inaction, so every deliberation
    withholds; an `urgent` match takes the fast path and releases it, a
    `spreading` match adds threat progression on a goal feature and a
    `relinking` match on `link_state`. The action's preconditions name two
    features no goal names: `link_state`, and `backlog`, which is absent at
    first."""
    config = quiet_scenario(
        repertoire=[{"action_id": "watch", "category": "observe",
                     "preconditions": [["link_state", "==", 1], ["backlog", "<=", 0]]}],
        patterns=[{"id": "proc", "predicates": [["unknown_proc_count", ">=", 1]],
                   "severity": 0.9, "confidence": 0.9},
                  {"id": "urgent", "predicates": [], "severity": 0.9, "confidence": 0.9,
                   "deadline_ticks": 0},
                  {"id": "spreading", "predicates": [], "severity": 0.9, "confidence": 0.9,
                   "progression": [["unknown_proc_count", "add", 1]]},
                  {"id": "relinking", "predicates": [], "severity": 0.9, "confidence": 0.9,
                   "progression": [["link_state", "add", 1]]}],
        goals=[{"goal_id": "g", "predicates": [["functionality_belief", ">=", 0.95]],
                "weight": 1.0},
               {"goal_id": "g_clean", "predicates": [["unknown_proc_count", "<=", 0]],
                "weight": 1.0}],
        roe={"fast_deadline_ticks": 1},
        rules=[{"rule_id": "r", "condition": [], "action_id": "watch", "priority": 1}],
    )
    episode = Episode(config, seed=1)
    rt = episode.runtimes["a1"]
    rt.ws.features.update(functionality_belief=1, unknown_proc_count=1, link_state=1,
                          process_count=3)
    return episode, rt


def threat(pattern_id):
    return Assessment(matched=[(pattern_id, 0.9, 0.9)], problematic=True, top_severity=0.9)


def _command(**command):
    def apply(episode, rt):
        episode._apply_control_queue(rt, [command])
    return apply


def _release_plan(episode, rt):
    episode._maybe_plan(rt, threat("urgent"), tick=1)
    assert rt.plan_exec is not None
    rt.plan_exec = None  # the plan ran to its end


def _set_feature(key, value):
    def apply(episode, rt):
        rt.ws.features[key] = value
    return apply


@pytest.mark.parametrize("start, between, searches", [
    ({}, lambda episode, rt: None, 1),
    ({}, _command(command="set_goal_weight", goal_id="g", weight=3.0), 2),
    ({}, _command(command="set_roe", field="max_plan_risk", value=0.5), 2),
    # selection tests no category: `watch`'s precondition fails, so no
    # candidate holds an action
    ({}, _command(command="set_roe", field="forbidden_categories", value=["contain"]), 1),
    # read only by the fast path, which runs before the memo
    ({}, _command(command="set_roe", field="fast_deadline_ticks", value=0), 1),
    # every comparison on it gives the same outcome
    ({}, _set_feature("functionality_belief", 1.0), 1),
    ({}, _set_feature("functionality_belief", 0.99), 1),
    ({}, _set_feature("functionality_belief", 0.9), 2),
    # 0 and 0.0 give every comparison the same outcome, type aside
    ({"unknown_proc_count": 0}, _set_feature("unknown_proc_count", 0.0), 1),
    ({}, _set_feature("process_count", 4), 1),  # nothing reads it
    ({}, _set_feature("tags", ["a", "b"]), 1),  # nothing reads it, so it needs no hash
    ({}, _set_feature("link_state", 0), 2),  # only a precondition reads it
    ({}, _set_feature("backlog", 0.0), 2),
    ({}, _release_plan, 1),  # the memo outlives a released plan
    ({}, lambda episode, rt: "spreading", 2),
    # only expected_loss applies a progression, and then reads goal features alone
    ({}, lambda episode, rt: "relinking", 1),
], ids=["nothing", "set_goal_weight", "set_roe", "set_roe_forbidden_categories",
        "set_roe_fast_deadline_ticks", "goal_feature_1_to_1.0", "same_cell_value",
        "crosses_a_threshold", "value_on_a_threshold_0_to_0.0", "unread_feature",
        "unread_list_feature", "precondition_feature", "read_feature_absent_to_0.0",
        "released_plan", "threat_progression", "unread_progression"])
def test_what_forces_a_new_search(start, between, searches, search_calls):
    episode, rt = withholding_agent()
    rt.ws.features.update(start)
    episode._maybe_plan(rt, threat("proc"), tick=0)
    second = between(episode, rt) or "proc"
    episode._maybe_plan(rt, threat(second), tick=2)
    assert len(search_calls) == searches
    withheld = [d for d in episode.decision_log if d["path"] == "deliberative"]
    assert [d["tick"] for d in withheld] == [0, 2]
    assert all(d["chosen"]["no_action"] for d in withheld)
    assert rt.no_action_streak == (1 if between is _release_plan else 2)


def test_a_list_valued_feature_deliberates_without_the_memo(search_calls):
    episode, rt = withholding_agent()
    rt.ws.features["link_state"] = ["a", "b"]  # a read key, unhashable: no key
    episode._maybe_plan(rt, threat("proc"), tick=0)
    episode._maybe_plan(rt, threat("proc"), tick=2)
    assert len(search_calls) == 2 and episode.deliberations.bodies == {}
    assert [d["chosen"]["no_action"] for d in episode.decision_log] == [True, True]


@pytest.fixture
def key_derivations(monkeypatch):
    """Count the memo keys the episode loop derives: one per deliberation
    that does not keep the agent's last decision."""
    calls = []
    key = planning.Deliberations.key

    def counted(self, *inputs):
        calls.append(1)
        return key(self, *inputs)

    monkeypatch.setattr(planning.Deliberations, "key", counted)
    return calls


def test_a_decision_stands_while_its_assessment_does(key_derivations):
    episode, rt = withholding_agent()
    assessment = threat("proc")
    for tick in (0, 2, 4):
        episode._maybe_plan(rt, assessment, tick)
    assert len(key_derivations) == 1
    # each pass still logs and emits its decision and counts the withheld streak
    assert [d["tick"] for d in episode.decision_log] == [0, 2, 4]
    assert [e["kind"] for e in episode.trace].count("agent.decision") == 3
    assert rt.no_action_streak == 3


def test_a_fast_decision_stands_while_its_assessment_does(monkeypatch):
    episode, rt = withholding_agent()
    calls = []
    select = planning.fast_rule_select
    monkeypatch.setattr(planning, "fast_rule_select",
                        lambda *args: calls.append(1) or select(*args))
    assessment = threat("urgent")
    for tick in (0, 2):
        episode._maybe_plan(rt, assessment, tick)
        assert rt.plan_exec is not None
        rt.plan_exec = None  # the plan ran to its end
    assert len(calls) == 1
    assert [(d["tick"], d["path"]) for d in episode.decision_log] == [(0, "fast"), (2, "fast")]


@pytest.mark.parametrize("between", [
    lambda episode, rt: threat("proc"),  # identify ran again
    _command(command="set_goal_weight", goal_id="g", weight=3.0),
    _command(command="set_roe", field="max_plan_risk", value=0.5),
    _command(command="add_rule", rule={"rule_id": "r2", "condition": [],
                                       "action_id": "watch", "priority": 0}),
    _command(command="add_pattern_example", features={"unknown_proc_count": 1},
             label="clean"),
], ids=["new_assessment", "set_goal_weight", "set_roe", "add_rule", "add_pattern_example"])
def test_what_drops_a_kept_decision(between, key_derivations):
    episode, rt = withholding_agent()
    assessment = threat("proc")
    episode._maybe_plan(rt, assessment, tick=0)
    assessment = between(episode, rt) or assessment
    episode._maybe_plan(rt, assessment, tick=2)
    assert len(key_derivations) == 2


def test_no_consumer_edits_a_shared_trigger_summary(bundled_configs, monkeypatch):
    """Assessment events, decisions and status reports share one summary per
    assessment; after whole episodes each still equals a fresh one."""
    assessments = []
    identify = sensing.identify
    monkeypatch.setattr(sensing, "identify",
                        lambda *args: assessments.append(identify(*args)) or assessments[-1])
    for name in ("s1_comms_spoof", "s3_partition"):
        for seed in (1, 2):
            run_episode(bundled_configs[name], seed)
    shared = [a for a in assessments if "summary" in vars(a)]
    assert shared
    for a in shared:
        assert a.summary == Assessment(a.matched, a.problematic, a.top_severity).summary


def read_keys(episode):
    """The features a goal or a precondition names, sorted: all the memo reads."""
    return tuple(sorted(episode.deliberations.thresholds))


# values every predicate threshold compares with, and anything at all
_NUMBERS = st.one_of(st.booleans(), st.integers(min_value=-2, max_value=3),
                     st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]), st.floats(-2, 3))
_ANYTHING = st.one_of(st.none(), _NUMBERS, st.floats(), st.text(max_size=3),
                      st.lists(st.integers(), max_size=2))


@given(data=st.data(), name=st.sampled_from(BUNDLED))
@settings(max_examples=200, deadline=None)
def test_features_outside_the_read_set_leave_the_deliberation_unchanged(bundled_configs,
                                                                         data, name):
    """Two belief states that agree on every read key, in presence, type and
    value, and differ anywhere else give the same decision body."""
    episode = Episode(bundled_configs[name], seed=1)
    rt, memo = episode.runtimes["a1"], episode.deliberations
    keys = read_keys(episode)
    read = data.draw(st.dictionaries(st.sampled_from(keys), _NUMBERS))
    named = sorted({pred[0] for goal in rt.kb.goals for pred in goal.predicates}
                   | {pred[0] for spec in episode.repertoire.values() for pred in spec.preconditions}
                   | {delta[0] for spec in episode.repertoire.values() for effect in spec.effects
                      for delta in effect.feature_deltas}
                   | {"host_integrity", "detectability", "replica_count", "process_count"})
    unread = st.dictionaries((st.sampled_from(named) | st.text(max_size=4))
                             .filter(lambda key: key not in keys), _ANYTHING, max_size=6)
    progression = data.draw(st.lists(st.tuples(st.sampled_from(keys),
                                               st.sampled_from(["set", "add"]), _NUMBERS),
                                     max_size=3))
    bodies = []
    for _ in range(2):
        items = [*data.draw(unread).items(), *read.items()]
        rt.ws.features = dict(data.draw(st.permutations(items)))  # in any order
        bodies.append(canonical_json(memo.search(rt.ws, rt.kb.goals, rt.roe, progression)))
    assert bodies[0] == bodies[1]


_generator_spec = importlib.util.spec_from_file_location(
    "perfbench_generator",
    Path(__file__).resolve().parent.parent / "perfbench" / "generator.py")
GENERATOR = importlib.util.module_from_spec(_generator_spec)
_generator_spec.loader.exec_module(GENERATOR)


def _prerequisite_chain():
    """A story whose risk gate compares after the longest chain of adds a
    deliberation makes, three on `exposure`: `shield` needs exposure >= 0.3
    and prepares with `scan` (-0.2), after which only `boost` (+0.25) can
    provide the precondition again; the gate then weighs scan, boost and
    shield (-0.4) together, exposure - 0.35 <= 0."""
    return quiet_scenario(
        planner={"depth": 1},
        repertoire=[
            {"action_id": "shield", "category": "contain",
             "preconditions": [["exposure", ">=", 0.3]], "preparation": ["scan"],
             "effects": [{"features": [["exposure", "add", -0.4]]}]},
            {"action_id": "scan", "category": "observe",
             "effects": [{"features": [["exposure", "add", -0.2]]}]},
            {"action_id": "boost", "category": "restore",
             "effects": [{"features": [["exposure", "add", 0.25]]}]}],
        goals=[{"goal_id": "g_hidden", "predicates": [["exposure", "<=", 0.0]], "weight": 1.0}])


@functools.cache
def _memo_episode(name):
    """An episode of the scenario: the tests below only read it, and set the
    agent's features."""
    if name in BUNDLED:
        config = load_scenario(scenario_path(name))
    elif name == "prerequisite_chain":
        config = _prerequisite_chain()
    else:
        base = json.loads(GENERATOR.base_path(Path(__file__).resolve().parent.parent / "src")
                          .read_text())
        config = GENERATOR.generate_configs(base, [int(name.rsplit("_", 1)[1])])[0][0]
    return Episode(config, seed=1)


_DRIFTS = st.one_of(st.sampled_from([-0.35, -0.1, -0.08, -0.05, 0.05, 0.1, 1, -1]),
                    st.floats(-1, 1))


def _progression(data, episode):
    return data.draw(st.lists(st.tuples(st.sampled_from(read_keys(episode)),
                                        st.sampled_from(["set", "add"]), _DRIFTS), max_size=3))


def _near(*values):
    """Each int or float of `values`, the floats next to it, and it in the
    other numeric type where that is exact."""
    near = []
    for value in values:
        if type(value) in (int, float) and math.isfinite(value):
            near += [value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)]
            near.append(float(value) if type(value) is int else int(value)
                        if value.is_integer() else value)
    return near


def _replayed_bodies(episode, states, progression):
    """Deliberate each belief state in turn on one fresh memo; for each that
    found an entry instead of searching, the bytes it gave and those of a
    fresh search."""
    rt, memo = episode.runtimes["a1"], _deliberations(episode.config)
    search, searches, found = memo.search, [], []
    memo.search = lambda *inputs: searches.append(1) or search(*inputs)
    for state in states:
        rt.ws.features = state
        before = len(searches)
        _, encoded = memo.deliberate(rt.ws, rt.kb.goals, rt.roe, progression)
        if len(searches) == before:
            found.append((encoded, canonical_json(search(rt.ws, rt.kb.goals, rt.roe,
                                                         progression))))
    return found


@given(data=st.data())
@settings(max_examples=150, deadline=None)
@pytest.mark.parametrize("name", [*BUNDLED, "wide_repertoire_1", "wide_repertoire_2"])
def test_beliefs_with_one_memo_key_give_one_body(name, data):
    """Belief states that replay an entry's comparisons get its body, the
    bytes a fresh search gives them, under any threat progression. Each
    state after the first moves up to two read keys of the first: next to
    its value or a threshold on the key, to the other numeric type, to any
    number, or away."""
    episode = _memo_episode(name)
    progression = _progression(data, episode)
    keys = read_keys(episode)
    first = data.draw(st.dictionaries(st.sampled_from(keys), _NUMBERS))
    states = [first]
    for _ in range(4):
        state = dict(first)
        for key in data.draw(st.sets(st.sampled_from(keys), max_size=2)):
            near = _near(state.get(key), *(t for _, t in episode.deliberations.thresholds[key]))
            moved = data.draw(st.sampled_from(near + [None]) | _NUMBERS)
            if moved is None:
                state.pop(key, None)
            else:
                state[key] = moved
        states.append(state)
    for encoded, fresh in _replayed_bodies(episode, states, progression):
        assert encoded == fresh


def _last_start(adds, threshold, strict):
    """The largest float start in [-2, 2] below `threshold` (or at most it,
    if not `strict`) after `adds`, added left to right as the planner adds."""
    def below(value):
        for add in adds:
            value += add
        return value < threshold if strict else value <= threshold
    low, high = -2.0, 2.0
    while math.nextafter(low, high) != high:
        middle = (low + high) / 2
        if middle in (low, high):
            middle = math.nextafter(low, high)
        low, high = (middle, high) if below(middle) else (low, middle)
    return low


# the two floats on either side of each start value where a comparison of the
# prerequisite chain turns: each threshold after up to three of its adds
_TURNS = sorted({(start, math.nextafter(start, math.inf))
                 for count in range(4) for adds in itertools.product((-0.2, 0.25, -0.4),
                                                                     repeat=count)
                 for threshold in (0.3, 0.0) for strict in (True, False)
                 for start in [_last_start(adds, threshold, strict)]})


@given(data=st.data())
@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("name", [*BUNDLED, "wide_repertoire_1", "wide_repertoire_2"])
def test_progression_deltas_no_goal_names_leave_the_deliberation_unchanged(name, data):
    """The matched patterns' deltas mixed in any order with deltas on keys
    no goal names (read or not, present or absent) give the body bytes of
    the deltas on goal keys alone, and deliberate buckets them by those alone."""
    episode = _memo_episode(name)
    rt, memo = episode.runtimes["a1"], episode.deliberations
    goal_keys = {pred[0] for goal in rt.kb.goals for pred in goal.predicates}
    keys = read_keys(episode)
    rt.ws.features = data.draw(st.dictionaries(st.sampled_from(keys), _NUMBERS))
    patterns = sorted({delta for p in rt.kb.patterns.values() for delta in p.progression})
    others = (st.sampled_from(sorted(set(keys) - goal_keys) + ["host_integrity"])
              | st.text(max_size=4)).filter(lambda key: key not in goal_keys)
    progression = data.draw(st.permutations(
        data.draw(st.lists(st.sampled_from(patterns), max_size=3))
        + data.draw(st.lists(st.tuples(others, st.sampled_from(["set", "add"]), _NUMBERS),
                             min_size=1, max_size=3))))
    kept = [delta for delta in progression if delta[0] in goal_keys]
    body = canonical_json(memo.search(rt.ws, rt.kb.goals, rt.roe, progression))
    assert canonical_json(memo.search(rt.ws, rt.kb.goals, rt.roe, kept)) == body
    fresh = _deliberations(episode.config)
    assert fresh.deliberate(rt.ws, rt.kb.goals, rt.roe, progression)[1] == body
    assert list(fresh.bodies) == [fresh.key(rt.ws, rt.kb.goals, rt.roe, kept)]


@pytest.mark.parametrize("name", [*BUNDLED, "wide_repertoire_1", "wide_repertoire_2"])
def test_every_deliberation_reads_only_comparisons_the_memo_derives(name):
    """Every deliberation of seeds 1-20 (1-9 for a generated scenario)."""
    config = _memo_episode(name).config
    seeds = range(1, 21) if name in BUNDLED else range(1, 10)
    assert check_reads(config, episode_inputs(config, seeds)) > 0


def test_the_longest_derivation_reads_only_comparisons_the_memo_derives():
    """The prerequisite chain's story on and next to each start value where
    one of its comparisons turns, with exposure absent, under progressions."""
    episode = _memo_episode("prerequisite_chain")
    rt = episode.runtimes["a1"]
    states = [{}] + [{"exposure": value} for turn in _TURNS for value in _near(*turn)]
    inputs = [(state, rt.kb.goals, rt.roe, progression) for state in states
              for progression in ([], [("exposure", "add", -0.1)], [("exposure", "set", 0.5)])]
    assert check_reads(episode.config, inputs) > 0


def test_an_add_delta_on_a_list_feature_no_goal_names_is_dropped():
    """Applied, an `add` delta on a list-valued feature raises in the risk
    gate's loss estimate; no goal names the feature, so deliberate drops the
    delta and gives the body of the goal-key deltas."""
    episode, rt = withholding_agent()
    rt.ws.features["peers"] = [1, 2]
    memo, kept = episode.deliberations, [("unknown_proc_count", "add", 1)]
    with pytest.raises(TypeError):
        memo.search(rt.ws, rt.kb.goals, rt.roe, [("peers", "add", 1), *kept])
    _, encoded = memo.deliberate(rt.ws, rt.kb.goals, rt.roe, [("peers", "add", 1), *kept])
    assert encoded == canonical_json(memo.search(rt.ws, rt.kb.goals, rt.roe, kept))


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_cell_of_the_longest_derivation_gives_one_body(data):
    """As above, on the story whose gate compares after the longest chain
    of adds: the two exposure values on either side of every start value
    where one of its comparisons turns, in either order, and any others,
    with no progression and then any."""
    episode = _memo_episode("prerequisite_chain")
    progression = [] if data.draw(st.booleans()) else _progression(data, episode)
    pairs = [*_TURNS, *(pair[::-1] for pair in _TURNS),
             data.draw(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=4))]
    for values in pairs:
        found = _replayed_bodies(episode, [{"exposure": value} for value in values], progression)
        for encoded, fresh in found:
            assert encoded == fresh, values


def _releasing_runtime(episode):
    rt = episode.runtimes["a1"]
    rt.ws.features.update(functionality_belief=1, unknown_proc_count=1)
    return rt


def _entries(rt):
    return [(e["action"], e["offset"], e["origin"]) for e in rt.plan_exec.entries]


def _substitutable_scenario():
    """Two interchangeable contain actions: adjust can substitute either."""
    purge = {"category": "contain", "effects": [
        {"features": [["unknown_proc_count", "set", 0]], "probability": 1.0}]}
    return quiet_scenario(
        repertoire=[{"action_id": "kill", **purge}, {"action_id": "purge", **purge}],
        goals=[{"goal_id": "g", "predicates": [["functionality_belief", ">=", 0.95]],
                "weight": 1.0},
               {"goal_id": "g_clean", "predicates": [["unknown_proc_count", "<=", 0]],
                "weight": 1.0}])


def _substitute_proposed(episode, rt):
    """Substitute the plan's first proposed entry, as adjust does once retries
    are spent; returns that entry's index and the action it replaced."""
    proposed = next(i for i, e in enumerate(rt.plan_exec.entries)
                    if e["origin"] == planning.EntryOrigin.PROPOSED.value)
    action = rt.plan_exec.entries[proposed]["action"]
    decision = execution.adjust(
        rt.plan_exec, [execution.Deviation("effect_unmet", action, proposed)],
        episode.repertoire, {}, rt.ws, rt.roe, max_retries=0)
    assert decision.kind == "substitute" and decision.substitute_action_id != action
    assert rt.plan_exec.entries[proposed]["action"] == decision.substitute_action_id
    return proposed, action


def test_a_substitution_leaves_the_logged_entries_unchanged():
    """The released plan runs a copy of the logged entries: execution.adjust
    edits the running plan, never the decision log or the trace."""
    episode = Episode(_substitutable_scenario(), seed=1)
    rt = _releasing_runtime(episode)
    episode._maybe_plan(rt, threat("proc"), tick=0)
    logged = json.loads(canonical_json(episode.decision_log[-1]["chosen"]["entries"]))
    proposed, action = _substitute_proposed(episode, rt)
    assert logged[proposed]["action"] == action
    decision, released = (next(e for e in episode.trace if e["kind"] == kind)
                          for kind in ("agent.decision", "agent.plan_released"))
    assert episode.decision_log[-1]["chosen"]["entries"] == logged
    assert decision["chosen"]["entries"] == released["entries"] == logged


def test_a_memo_hit_releases_the_logged_entries_after_a_substitution(search_calls):
    """execution.adjust edits a released plan in place; the memo must not
    hand that edit to the next runtime the same outcome releases."""
    config = _substitutable_scenario()
    memo = _deliberations(config)
    first = Episode(config, seed=1, deliberations=memo)
    second = Episode(config, seed=2, deliberations=memo)
    rt1, rt2 = _releasing_runtime(first), _releasing_runtime(second)
    first._maybe_plan(rt1, threat("proc"), tick=0)
    released = _entries(rt1)
    second._maybe_plan(rt2, threat("proc"), tick=0)  # a hit
    assert _entries(rt2) == released and len(search_calls) == 1

    _substitute_proposed(second, rt2)
    assert _entries(rt2) != released

    rt2.plan_exec = None  # the edited plan ran to its end
    second._maybe_plan(rt2, threat("proc"), tick=3)  # a hit again
    assert len(search_calls) == 1
    assert _entries(rt2) == released and _entries(rt1) == released
    logged = [d["chosen"]["entries"] for d in first.decision_log + second.decision_log]
    assert logged[0] == logged[1] == logged[2]


_S3_GOALS = ("g_available", "g_comms", "g_clean", "g_unknown")  # the last is rejected
_roe_values = {
    "max_plan_risk": st.one_of(st.sampled_from([0, 1, 0.0, 1.0]),
                               st.floats(min_value=0, max_value=1)),
    "forbidden_categories": st.lists(
        st.sampled_from([c.value for c in planning.ActionCategory]), max_size=3),
    "destructive_only_on_residence": st.booleans(),
    "fast_deadline_ticks": st.integers(min_value=0, max_value=4),
}


def _c2_commands(goal_ids):
    return st.one_of(
        st.fixed_dictionaries({"command": st.just("set_goal_weight"),
                               "goal_id": st.sampled_from(goal_ids),
                               "weight": st.floats(min_value=0.05, max_value=5.0)}),
        *(st.fixed_dictionaries({"command": st.just("set_roe"), "field": st.just(field),
                                 "value": values})
          for field, values in _roe_values.items()),
    )


def _link_c2_to_every_agent(raw):
    """s3's C2 host links only to a1's host; links to the other two hosts let
    commands reach a2 and a3 too."""
    if raw["name"] == "s3_partition":
        raw["topology"]["channels"] += [
            {"channel_id": f"c2{host}", "endpoints": [host, "c2host"], "state": "healthy"}
            for host in ("hB", "hC")]


def _artifact_bytes(result, tmp_path):
    write_trace(result, tmp_path / "trace.jsonl")
    write_result(result, tmp_path / "result.json")
    return (tmp_path / "trace.jsonl").read_bytes(), (tmp_path / "result.json").read_bytes()


@pytest.mark.parametrize("name", ["s1_comms_spoof", "s3_partition"])
@given(data=st.data(), seed=st.integers(min_value=1, max_value=20))
@settings(max_examples=25, deadline=None)
def test_reuse_leaves_artifacts_unchanged_under_c2_commands(name, bundled_configs,
                                                            tmp_path_factory, data, seed):
    # most memo hits fall in s1, and in s3, whose a2 and a3 withhold on most ticks
    raw = json.loads(json.dumps(bundled_configs[name].raw))
    _link_c2_to_every_agent(raw)
    goal_ids = [g["goal_id"] for g in raw["goals"]] + ["g_unknown"]  # the last is rejected
    raw["c2"]["script"] = raw["c2"]["script"] + data.draw(st.lists(
        st.fixed_dictionaries({"tick": st.integers(min_value=0, max_value=59),
                               "kind": st.just("ControlCommand"),
                               "to": st.sampled_from([a["agent_id"] for a in raw["agents"]]),
                               "payload": _c2_commands(goal_ids)}),
        max_size=6))
    config = parse_scenario(raw)
    seeds, memo = (seed, seed + 1, seed + 2), _deliberations(config)  # one memo for three
    reused = [_artifact_bytes(Episode(config, s, deliberations=memo).run(),
                              tmp_path_factory.mktemp("reused")) for s in seeds]
    with pytest.MonkeyPatch.context() as mp:
        # inputs that never compare equal, and no decision kept: every
        # deliberation searches afresh
        mp.setattr(planning.Deliberations, "key", lambda self, *inputs: object())
        mp.setattr(AgentRuntime, "decision", property(lambda rt: None, lambda rt, kept: None))
        fresh = [_artifact_bytes(run_episode(config, s), tmp_path_factory.mktemp("fresh"))
                 for s in seeds]
    assert reused == fresh


# -- skipping unchanged sensing passes --------------------------------------------------

# features on which every predicate of every bundled pattern holds
_PATTERN_EXAMPLE = {"unknown_proc_count": 1, "foreign_file_count": 1, "comms_integrity": 0.3,
                    "functionality_belief": 0.5, "detectability": 0.5, "host_integrity": 0.3}


def _pattern_example(number):
    """The number-th add_pattern_example command; labels alternate, so every
    command moves the confidences of the patterns it touches."""
    return {"command": "add_pattern_example", "features": _PATTERN_EXAMPLE,
            "label": ("compromised", "clean")[number % 2]}


def _defeat_sensing_skip(mp):
    """Make every pass read its sensors, re-derive its features and re-run
    identify."""
    # no runtime has read at the current mutation count, so none reuses its reads
    mp.setattr(AgentRuntime, "sensed_at", property(lambda rt: -1, lambda rt, count: None))
    update = sensing.update_world_state

    def rederive(ws, rows, config, tick, own):
        ws.rows = None  # no previous pass to compare with
        update(ws, rows, config, tick, own)
        return True
    mp.setattr(sensing, "update_world_state", rederive)


def _bytes_with_and_without_skip(config, seed, tmp_path_factory):
    skipped = _artifact_bytes(run_episode(config, seed), tmp_path_factory.mktemp("skipped"))
    with pytest.MonkeyPatch.context() as mp:
        _defeat_sensing_skip(mp)
        full = _artifact_bytes(run_episode(config, seed), tmp_path_factory.mktemp("full"))
    return skipped, full


@pytest.mark.parametrize("name", BUNDLED)
def test_reused_reads_equal_fresh_reads(name, bundled_configs, monkeypatch):
    """A pass that reuses its last reads gets what reading now would return,
    by value and by value type."""
    sense, update = sensing.sense, sensing.update_world_state
    sensed, reused = [], []

    def counted_sense(*args):
        sensed.append(args)
        return sense(*args)

    def checked_update(ws, rows, config, tick, own):
        if not sensed:  # no read since the previous pass
            runtime = next(rt for rt in episode.runtimes.values() if rt.ws is ws)
            fresh = sense(episode.env, runtime.state.host_id, config, Random(0))
            assert rows == fresh and [type(r[2]) for r in rows] == [type(r[2]) for r in fresh]
            reused.append(tick)
        sensed.clear()
        return update(ws, rows, config, tick, own)

    monkeypatch.setattr(sensing, "sense", counted_sense)
    monkeypatch.setattr(sensing, "update_world_state", checked_update)
    for seed in range(1, 6):
        episode = Episode(bundled_configs[name], seed)
        episode.run()
    assert reused


def test_a_noisy_config_reads_on_every_pass(bundled_configs, monkeypatch, tmp_path_factory):
    raw = json.loads(json.dumps(bundled_configs["s1_comms_spoof"].raw))
    raw["sensors"]["noise"] = {"service_health:*": 0.05}
    config = parse_scenario(raw)
    calls = {"sense": 0, "update_world_state": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(sensing, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sensing, name, counted)
    first = _artifact_bytes(run_episode(config, 1), tmp_path_factory.mktemp("first"))
    assert calls["sense"] == calls["update_world_state"] > 0
    assert _artifact_bytes(run_episode(config, 1), tmp_path_factory.mktemp("second")) == first


def test_unchanged_sensing_passes_skip_identify(bundled_configs, monkeypatch):
    calls = {"update_world_state": 0, "identify": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(sensing, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sensing, name, counted)
    for seed in (1, 2, 3):
        run_episode(bundled_configs["s3_partition"], seed)
    assert 0 < calls["identify"] < calls["update_world_state"]


def test_identify_reruns_when_a_pattern_confidence_changes(bundled_configs, tmp_path_factory):
    # features often stay the same across the ticks after a command, so an
    # assessment reused on features alone would log the old confidence
    raw = json.loads(json.dumps(bundled_configs["s1_comms_spoof"].raw))
    raw["c2"]["script"] = raw["c2"]["script"] + [
        {"tick": tick, "kind": "ControlCommand", "to": "a1", "payload": _pattern_example(i)}
        for i, tick in enumerate(range(3, 60, 2))]
    config = parse_scenario(raw)
    applied = 0
    for seed in range(1, 21):
        skipped, full = _bytes_with_and_without_skip(config, seed, tmp_path_factory)
        assert skipped == full, f"seed {seed}"
        applied += skipped[0].count(b'"patterns_updated":["')
    assert applied


@given(data=st.data(), name=st.sampled_from(BUNDLED), seed=st.integers(min_value=1, max_value=20))
@settings(max_examples=25, deadline=None)
def test_sensing_skip_leaves_artifacts_unchanged_under_c2_commands(
        bundled_configs, tmp_path_factory, data, name, seed):
    raw = json.loads(json.dumps(bundled_configs[name].raw))
    _link_c2_to_every_agent(raw)
    entries = data.draw(st.lists(
        st.fixed_dictionaries({"tick": st.integers(min_value=0, max_value=59),
                               "kind": st.just("ControlCommand"),
                               "to": st.sampled_from([a["agent_id"] for a in raw["agents"]]),
                               "payload": st.one_of(_c2_commands(_S3_GOALS), st.none())}),
        max_size=8))
    examples = [e for e in sorted(entries, key=lambda e: e["tick"]) if e["payload"] is None]
    for number, entry in enumerate(examples):
        entry["payload"] = _pattern_example(number)
    raw["c2"]["script"] = raw["c2"]["script"] + entries
    skipped, full = _bytes_with_and_without_skip(parse_scenario(raw), seed, tmp_path_factory)
    assert skipped == full
