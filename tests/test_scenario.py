import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from defsim.cli import main
from defsim.envsim import EffectDescriptor
from defsim.execution import resolve_self
from defsim.errors import ConfigInvalid, DefsimError
from defsim.runner import Episode, replay, run_episode, write_trace
from defsim.scenario import (CHANNEL_STATE, MAX_DURATION_TICKS, NULL, NUMBER, _COMMAND,
                             _ENV_OPERATIONS, _STEP, load_scenario, parse_scenario)

from conftest import BUNDLED, run_python, scenario_path


def minimal_raw():
    return {
        "schema_version": 1,
        "name": "mini",
        "duration_ticks": 10,
        "topology": {
            "thresholds": {"up_threshold": 0.8, "down_threshold": 0.3},
            "hosts": [
                {"host_id": "h1",
                 "services": [{"service_id": "svc", "required": True, "weight": 1.0, "health": 1.0}]},
            ],
            "channels": [],
        },
        "agents": [{"agent_id": "a1", "host_id": "h1"}],
    }


def problems_of(raw):
    """The problems parse_scenario reports for `raw`; it must report some."""
    with pytest.raises(ConfigInvalid) as err:
        parse_scenario(raw)
    return err.value.problems


def test_bundled_scenarios_validate():
    for name in BUNDLED:
        config = load_scenario(scenario_path(name))
        assert config.duration_ticks > 0
        assert config.scenario_hash


def test_minimal_scenario_parses():
    config = parse_scenario(minimal_raw())
    env = config.build_environment()
    assert "h1" in env.hosts


def test_unknown_top_level_field_rejected():
    raw = minimal_raw()
    raw["surprise"] = 1
    problems = problems_of(raw)
    assert any("unknown field 'surprise'" in p for p in problems)


def test_unknown_nested_field_rejected():
    raw = minimal_raw()
    raw["topology"]["hosts"][0]["surprise"] = 1
    assert any("unknown field 'surprise'" in p for p in problems_of(raw))


def test_wrong_schema_version_rejected():
    raw = minimal_raw()
    raw["schema_version"] = 99
    with pytest.raises(ConfigInvalid):
        parse_scenario(raw)


def test_dangling_channel_endpoint_rejected():
    raw = minimal_raw()
    raw["topology"]["channels"] = [{"channel_id": "c", "endpoints": ["h1", "ghost"]}]
    assert any("endpoint 'ghost'" in p for p in problems_of(raw))


def test_missing_required_service_rejected():
    raw = minimal_raw()
    raw["topology"]["hosts"][0]["services"][0]["required"] = False
    assert any("required service" in p for p in problems_of(raw))


def test_rule_referencing_unknown_action_rejected():
    raw = minimal_raw()
    raw["rules"] = [{"rule_id": "r", "condition": [], "action_id": "ghost", "priority": 1}]
    assert any("unknown action 'ghost'" in p for p in problems_of(raw))


def test_duplicate_rule_priorities_rejected():
    raw = minimal_raw()
    raw["repertoire"] = [{"action_id": "a", "category": "observe"}]
    raw["rules"] = [
        {"rule_id": "r1", "condition": [], "action_id": "a", "priority": 1},
        {"rule_id": "r2", "condition": [], "action_id": "a", "priority": 1},
    ]
    assert any("duplicate priority" in p for p in problems_of(raw))


def test_bad_comparator_rejected():
    raw = minimal_raw()
    raw["patterns"] = [{"id": "p", "predicates": [["x", "~", 1]],
                        "severity": 0.5, "confidence": 0.5}]
    assert any("unknown comparator" in p for p in problems_of(raw))


def test_playbook_unknown_instance_host_rejected():
    raw = minimal_raw()
    raw["playbook"] = {"instances": [{"instance_id": "m1", "host_id": "ghost"}]}
    assert any("unknown host 'ghost'" in p for p in problems_of(raw))


def test_destructive_action_needs_positive_risk():
    raw = minimal_raw()
    raw["repertoire"] = [{"action_id": "boom", "category": "destructive", "risk": 0.0}]
    assert any("risk > 0" in p for p in problems_of(raw))


def test_c2_script_unknown_agent_rejected():
    raw = minimal_raw()
    raw["c2"] = {"host_id": "h1",
                 "script": [{"tick": 1, "kind": "HandoverGrant", "to": "ghost"}]}
    assert any("unknown agent 'ghost'" in p for p in problems_of(raw))


@pytest.mark.parametrize("command", ["request_handover", "grant_return"])
def test_a_handover_control_command_is_an_unknown_command(command, tmp_path):
    # authority moves only by the HandoverGrant and HandoverReturn messages
    raw = minimal_raw()
    raw["c2"] = {"host_id": "h1", "script": [
        {"tick": 1, "kind": "ControlCommand", "to": "a1", "payload": {"command": command}}]}
    assert any(f"unknown control command {command!r}" in p for p in problems_of(raw))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(path), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 2


def test_every_numeric_effect_attribute_is_a_fraction():
    """apply_effect clamps every numeric result to [0, 1], so each attribute
    an effect may set or add to is a fraction in the topology as well."""
    records = {"host": ("host:h1", lambda host: host),  # (target, record in a host's entry)
               "service": ("service:h1:svc", lambda host: host["services"][0])}
    numeric = [key for key, operations in _ENV_OPERATIONS.items() if "add" in operations]
    assert {kind for kind, _ in numeric} == set(records)
    for kind, attribute in numeric:
        target, record = records[kind]
        raw = minimal_raw()
        record(raw["topology"]["hosts"][0])[attribute] = 1.5
        assert any(f".{attribute} must be a fraction in [0, 1]" in p for p in problems_of(raw))
        env = parse_scenario(minimal_raw()).build_environment()
        for value, clamped in ((5, 1.0), (-5, 0.0)):
            change = env.apply_effect(EffectDescriptor(target, attribute, "add", value))
            assert change["changes"][0]["new"] == clamped


def test_roster_unknown_host_rejected():
    raw = minimal_raw()
    raw["roster"] = {"hosts": ["ghost"], "authorization_token": "t"}
    assert any("roster: unknown host" in p for p in problems_of(raw))


def test_the_remote_centers_host_holds_no_agent_and_no_replica(tmp_path):
    """The center is remote: an agent on its host, or a replica installed
    there, would send to it over a link to some other host, where a spoofer
    can read or forge what it sends."""
    raw = json.loads((Path(__file__).parent / "data" / "risk_loop.json").read_text())
    on_center = copy.deepcopy(raw)
    on_center["agents"][0]["host_id"] = "c2host"
    assert problems_of(on_center) == [
        "agent 'a1': host 'c2host' is the remote center's c2.host_id"]
    in_roster = copy.deepcopy(raw)
    in_roster["roster"] = {"hosts": ["h1", "c2host"], "authorization_token": "tok"}
    assert problems_of(in_roster) == [
        "scenario.roster.hosts[1]: host 'c2host' is the remote center's c2.host_id"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(on_center))
    assert main(["run", "--scenario", str(path), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 2


def test_thresholds_ordering_enforced():
    raw = minimal_raw()
    raw["topology"]["thresholds"] = {"up_threshold": 0.3, "down_threshold": 0.8}
    assert any("down_threshold < up_threshold" in p for p in problems_of(raw))


def test_healthy_channel_with_delay_rejected():
    raw = minimal_raw()
    raw["topology"]["hosts"].append({"host_id": "h2"})
    raw["topology"]["channels"] = [
        {"channel_id": "c", "endpoints": ["h1", "h2"], "state": "healthy", "delay_ticks": 3}]
    assert any("healthy implies" in p for p in problems_of(raw))


def test_config_invalid_lists_all_problems():
    raw = minimal_raw()
    raw["surprise"] = 1
    raw["schema_version"] = 2
    with pytest.raises(ConfigInvalid) as err:
        parse_scenario(raw)
    assert len(err.value.problems) >= 2


def two_instance_raw(step):
    """Instances m_a@h1 and m_b@h2; only h1 runs the service the step degrades."""
    raw = minimal_raw()
    raw["topology"]["hosts"].append({"host_id": "h2"})
    raw["playbook"] = {
        "instances": [{"instance_id": "m_a", "host_id": "h1"},
                      {"instance_id": "m_b", "host_id": "h2"}],
        "steps": [dict(step, tick=1, action="degrade_service", params={"service": "svc"})],
    }
    return raw


def test_step_without_instance_runs_on_first_listed_instance():
    for step in ({}, {"instance_id": None}):
        _, playbook = parse_scenario(two_instance_raw(step)).build_playbook()
        assert playbook.steps[0].instance_id == "m_a"


def test_default_instance_validation_ignores_hash_seed():
    # validation must pick the same default instance as build_playbook under
    # every string-hash seed, not the first element of a set
    script = ("import json, sys\n"
              "from defsim.errors import ConfigInvalid\n"
              "from defsim.scenario import parse_scenario\n"
              "try:\n"
              "    parse_scenario(json.loads(sys.argv[1]))\n"
              "    print('[]')\n"
              "except ConfigInvalid as exc:\n"
              "    print(json.dumps(exc.problems))\n")
    raw = json.dumps(two_instance_raw({}))
    for hash_seed in range(8):
        proc = run_python(["-c", script, raw], PYTHONHASHSEED=str(hash_seed))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [], f"PYTHONHASHSEED={hash_seed}"


def _add_agents(*agent_ids):
    """The agents, each on a host of its own, as a host holds one agent."""
    def edit(raw):
        for index, a in enumerate(agent_ids, start=2):
            raw["topology"]["hosts"].append({"host_id": f"h{index}"})
            raw["agents"].append({"agent_id": a, "host_id": f"h{index}"})
    return edit


def _add_instances(*instance_ids):
    return lambda raw: raw.update(playbook={"instances": [
        {"instance_id": i, "host_id": "h1"} for i in instance_ids]})


def _two_hosts(raw):
    raw["topology"]["hosts"].append({"host_id": "h2"})
    raw["topology"]["channels"] = [{"channel_id": "c", "endpoints": ["h1", "h2"]}]


def _step(**step):
    """A playbook of one step for instance m1 on h1; h1 and h2 share channel c."""
    def edit(raw):
        _two_hosts(raw)
        raw["playbook"] = {"instances": [{"instance_id": "m1", "host_id": "h1"}],
                           "steps": [{"tick": 1, "action": "advance_phase", **step}]}
    return edit


def _env_effect(**env):
    """An action of one effect on the platform; h1 and h2 share channel c."""
    def edit(raw):
        _two_hosts(raw)
        raw["repertoire"] = [{"action_id": "a", "category": "observe", "effects": [{"env": env}]}]
    return edit


# options the format no longer has: nothing reached them
DELETED_OPTIONS = {
    "trigger_service_health_below": (
        _step(trigger={"kind": "service_health_below", "host": "h1", "service": "svc",
                       "value": 0.5}),
        "scenario.playbook.steps[0].trigger: unknown trigger 'service_health_below'"),
    "trigger_channel_state_is": (
        _step(trigger={"kind": "channel_state_is", "channel": "c", "state": "disabled"}),
        "scenario.playbook.steps[0].trigger: unknown trigger 'channel_state_is'"),
    "step_spawn_process": (_step(action="spawn_process", params={}),
                           "scenario.playbook.steps[0]: unknown action 'spawn_process'"),
    "set_channel_drop_probability": (
        _step(action="set_channel",
              params={"channel": "c", "state": "degraded", "drop_probability": 0.5}),
        "scenario.playbook.steps[0].params: unknown field 'drop_probability'"),
    "set_channel_delay_ticks": (
        _step(action="set_channel", params={"channel": "c", "state": "degraded", "delay_ticks": 2}),
        "scenario.playbook.steps[0].params: unknown field 'delay_ticks'"),
    "step_set_hunt_intensity": (_step(action="set_hunt_intensity", params={"value": 0.9}),
                                "scenario.playbook.steps[0]: unknown action 'set_hunt_intensity'"),
    "clamp_host_integrity": (
        _env_effect(target="host:h1", attribute="integrity", operation="clamp", value=[0, 1]),
        "action 'a'.effects[0].env.operation: unknown operation 'clamp' of host attribute "
        "'integrity'"),
    "clamp_service_health": (
        _env_effect(target="service:h1:svc", attribute="health", operation="clamp", value=[0, 1]),
        "action 'a'.effects[0].env.operation: unknown operation 'clamp' of service attribute "
        "'health'"),
    "channel_drop_probability_effect": (
        _env_effect(target="channel:c", attribute="drop_probability", operation="set", value=0.5),
        "action 'a'.effects[0].env.attribute: unknown attribute 'drop_probability' of channel "
        "targets"),
    "channel_delay_ticks_effect": (
        _env_effect(target="channel:c", attribute="delay_ticks", operation="add", value=1),
        "action 'a'.effects[0].env.attribute: unknown attribute 'delay_ticks' of channel targets"),
    "sensor_required_down_count": (
        lambda r: r.update(sensors={"logical": ["required_down_count"]}),
        "scenario.sensors.logical[0]: unknown sensor 'required_down_count'"),
    # an agent resides on its agents[].host_id, and only there
    "topology_resident_agent": (
        lambda r: r["topology"]["hosts"][0].update(resident_agent="a1"),
        "host 'h1': unknown field 'resident_agent'"),
    # agent-action effects: the adversary builds its own spawns and agent kills
    "service_remove_effect": (
        _env_effect(target="service:h1:svc", operation="remove"),
        "action 'a'.effects[0].env.attribute: unknown attribute '' of service targets"),
    "process_remove_effect": (
        _env_effect(target="process:h1:p", operation="remove"),
        "action 'a'.effects[0].env.operation: unknown operation 'remove' of process attribute ''"),
    "process_spawn_effect": (
        _env_effect(target="process:h1:p", operation="spawn"),
        "action 'a'.effects[0].env.operation: unknown operation 'spawn' of process attribute ''"),
    "file_spawn_effect": (
        _env_effect(target="file:h1:f", operation="spawn"),
        "action 'a'.effects[0].env.operation: unknown operation 'spawn' of file attribute ''"),
    "agent_kill_effect": (
        _env_effect(target="agent:a1", operation="kill"),
        "action 'a'.effects[0].env.target must be a target such as host:<host id>, "
        "service:<host id>:<service id> or channel:<channel id>, not 'agent:a1'"),
}

def _roster_host_with_process(process_id):
    """A roster host h2, where a1's first replica would install, holding the process."""
    def edit(raw):
        raw["topology"]["hosts"].append({"host_id": "h2", "processes": [{"process_id": process_id}]})
        raw["roster"] = {"hosts": ["h2"], "authorization_token": "tok"}
    return edit


# ids that would break a target string or read as one of its selectors, or
# that the platform gives its own entities
BAD_IDS = {
    "instance_id_with_a_colon": (
        _add_instances("m:1"),
        "scenario.playbook.instances[0]: instance_id 'm:1' must be a string without ':' other "
        "than '$self', '@unknown' and '@foreign'"),
    "create_file_id_with_a_colon": (
        _step(action="create_file", params={"file_id": "drop:x"}),
        "scenario.playbook.steps[0].params.file_id must be a string without ':' other than "
        "'$self', '@unknown' and '@foreign', not 'drop:x'"),
    "process_id_unknown_selector": (
        lambda r: r["topology"]["hosts"][0].update(processes=[{"process_id": "@unknown"}]),
        "host 'h1'.processes[0]: process_id '@unknown' must be a string without ':'"),
    "file_id_foreign_selector": (
        lambda r: r["topology"]["hosts"][0].update(files=[{"file_id": "@foreign"}]),
        "host 'h1'.files[0]: file_id '@foreign' must be a string without ':'"),
    "host_id_self": (lambda r: r["topology"]["hosts"].append({"host_id": "$self"}),
                     "topology.hosts[1]: host_id '$self' must be a string without ':'"),
    "agent_id_with_a_colon": (_add_agents("a:2"),
                              "scenario.agents[1]: agent_id 'a:2' must be a string without ':'"),
    # the platform names an agent's process agent_proc_<agent id>, and install
    # would replace a topology process of that name
    "process_id_of_an_agent": (
        lambda r: r["topology"]["hosts"][0].update(
            processes=[{"process_id": "agent_proc_a1", "image_hash": "db"}]),
        "host 'h1'.processes[0]: the prefix 'agent_proc_' of process_id 'agent_proc_a1' is taken by "
        "agents' processes"),
    "process_id_of_a_replica": (
        _roster_host_with_process("agent_proc_a1_r1"),
        "host 'h2'.processes[0]: the prefix 'agent_proc_' of process_id 'agent_proc_a1_r1' is taken by "
        "agents' processes"),
}


@pytest.mark.parametrize("edit, problem", [
    (lambda r: r.update(collaboration={"threshold": "0.5"}), "collaboration.threshold"),
    (lambda r: r.update(collaboration={"report_interval": 0}), "collaboration.report_interval"),
    (lambda r: r.update(collaboration={"communicate_noise": -0.1}),
     "collaboration.communicate_noise"),
    (lambda r: r.update(collaboration={"fail_safe_streak": "20"}),
     "collaboration.fail_safe_streak"),
    (lambda r: r["agents"].append({"agent_id": "a1", "host_id": "h1"}),
     "duplicate agent_id 'a1'"),
    (lambda r: r.update(planner={"depth": "3"}), "planner.depth"),
    (lambda r: r.update(planner={"noise_weight": "1"}), "planner.noise_weight"),
    (lambda r: r.update(trigger_threshold="0.5"), "scenario.trigger_threshold"),
    (lambda r: r.update(duration_ticks=MAX_DURATION_TICKS + 1), "scenario.duration_ticks"),
    (lambda r: r["topology"]["hosts"][0]["services"][0].update(weight="1"),
     "weight must be positive"),
    (lambda r: r.update(repertoire=[{"action_id": "a", "category": "observe", "duration": "2"}]),
     "action 'a'.duration"),
    (lambda r: r.update(playbook={"steps": [{"tick": 1, "action": "create_file"}]}),
     "no instance_id and no instance listed"),
    (lambda r: r["agents"].append("a2"), "agents[1]: 'a2' must be an object"),
    (lambda r: r["agents"][0].update(agent_id=["a1"]), "agent_id ['a1'] must be a string"),
    (lambda r: r.update(topology=[r["topology"]]), "topology: [{"),
    (lambda r: r["topology"]["hosts"].append("h2"), "topology.hosts[1]: 'h2' must be an object"),
    (lambda r: r.update(repertoire=[{"action_id": "a", "category": "observe",
                                     "preparation": ["ghost"]}]),
     "action 'a'.preparation: unknown action 'ghost'"),
    # known_good defaults to true, which a malware-owned process may not be
    (lambda r: r["topology"]["hosts"][0].update(
        processes=[{"process_id": "evil", "owner": "malware"}]),
     "process 'evil': malware owner requires known_good=false"),
    # plan entries name builtins by id, so a repertoire action may not reuse one
    (lambda r: r.update(repertoire=[{"action_id": "verify_effects", "category": "observe"}]),
     "action 'verify_effects': id is taken by a builtin action"),
    # peers would read this agent's conclusion requests as the center's status requests
    (lambda r: r["agents"][0].update(agent_id="c2"), "agent 'c2': id is taken by the remote center"),
    # two runtimes would share the inbox of a1's first replica
    (_add_agents("a1_r1"), "agent 'a1_r1': id is taken by a replica of agent 'a1'"),
    (_add_agents("a1_r1_r12"), "agent 'a1_r1_r12': id is taken by a replica of agent 'a1'"),
    # m1's lateral spawn would overwrite it
    (_add_instances("m1", "m1_r1"), "instance 'm1_r1': id is taken by a replica of instance 'm1'"),
    (_add_instances("m1", "m1_r3_r4"),
     "instance 'm1_r3_r4': id is taken by a replica of instance 'm1'"),
    # the adversary hunts a host's one resident agent
    (lambda r: r["agents"].append({"agent_id": "a2", "host_id": "h1"}),
     "agent 'a2': host 'h1' already holds agent 'a1'"),
    # a total of inf makes functionality NaN, and every normalised goal weight 0
    (lambda r: r["topology"]["hosts"][0].update(services=[
        {"service_id": sid, "required": True, "weight": 1e308} for sid in ("s1", "s2")]),
     "topology.hosts: the weights sum past the largest float"),
    (lambda r: r.update(goals=[{"goal_id": gid, "weight": 1e308} for gid in ("g1", "g2")]),
     "scenario.goals: the weights sum past the largest float"),
    *DELETED_OPTIONS.values(),
    *BAD_IDS.values(),
], ids=["threshold_string", "report_interval_zero", "communicate_noise_negative",
        "fail_safe_streak_string", "duplicate_agent_id", "depth_string",
        "noise_weight_string", "trigger_threshold_string", "duration_ticks_past_the_bound",
        "service_weight_string",
        "duration_string", "step_without_any_instance", "agent_entry_string",
        "agent_id_list", "topology_list", "host_entry_string", "unknown_preparation",
        "malware_process_known_good_by_default", "action_id_shadows_builtin", "agent_id_c2",
        "agent_id_of_a_replica", "agent_id_of_a_replica_of_a_replica",
        "instance_id_of_a_replica", "instance_id_of_a_replica_of_a_replica",
        "two_agents_on_one_host", "service_weights_past_max_float",
        "goal_weights_past_max_float", *DELETED_OPTIONS, *BAD_IDS])
def test_mistyped_or_out_of_range_settings_are_config_invalid(edit, problem):
    raw = minimal_raw()
    edit(raw)
    with pytest.raises(ConfigInvalid) as err:
        parse_scenario(raw)
    assert any(problem in p for p in err.value.problems), err.value.problems


@pytest.mark.parametrize("name", sorted(DELETED_OPTIONS))
def test_run_exits_2_on_a_deleted_option(name, tmp_path, capsys):
    raw = minimal_raw()
    DELETED_OPTIONS[name][0](raw)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(path), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert DELETED_OPTIONS[name][1] in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(BAD_IDS))
def test_run_exits_2_on_an_id_that_breaks_a_target(name, tmp_path, capsys):
    raw = minimal_raw()
    BAD_IDS[name][0](raw)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--scenario", str(path), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert BAD_IDS[name][1] in capsys.readouterr().err


def test_every_effect_of_the_table_applies_to_the_platform():
    """Each operation the table admits on each (kind, attribute) parses in a
    one-action scenario and applies to its platform, touching an entity."""
    targets = {"host": ["host:h1"], "service": ["service:h1:svc", "service:$self:svc"],
               "process": ["process:h1:p", "process:$self:@unknown"],
               "file": ["file:h1:f", "file:$self:@foreign"], "channel": ["channel:c"]}
    values = {NUMBER: 0.5, NULL: None, CHANNEL_STATE: "spoofed"}
    assert {kind for kind, _ in _ENV_OPERATIONS} == set(targets)
    for (kind, attribute), operations in _ENV_OPERATIONS.items():
        for operation, spec in operations.items():
            for target in targets[kind]:
                raw = minimal_raw()
                _env_effect(target=target, attribute=attribute, operation=operation,
                            value=values[spec])(raw)
                raw["topology"]["hosts"][0].update(
                    processes=[{"process_id": "p"},
                               {"process_id": "u", "known_good": False, "owner": "malware"}],
                    files=[{"file_id": "f"}, {"file_id": "x", "owner": "malware"}])
                config = parse_scenario(raw)
                env = config.build_environment()
                effect = config.build_repertoire()["a"].effects[0].env_effect
                before = dict(env.host_changes)
                outcome = env.apply_effect(resolve_self(effect, "h1"))
                assert len(outcome["changes"]) == 1, target
                # the hosts that read the entity: channel c's endpoints, or h1
                touched = {"h1", "h2"} if kind == "channel" else {"h1"}
                assert {h: env.host_changes[h] - before[h] for h in env.hosts} == {
                    h: int(h in touched) for h in env.hosts}, target


@pytest.mark.parametrize("edit", [_add_agents("a1_rx"), _add_agents("a1_r"), _add_agents("b1_r1"),
                                  _add_instances("m1", "m1_rx"), _add_instances("m1_r1")],
                         ids=["a1_rx", "a1_r", "b1_r1", "m1_rx", "m1_r1_alone"])
def test_an_id_that_no_replica_takes_is_accepted(edit):
    raw = minimal_raw()
    edit(raw)
    parse_scenario(raw)


# -- fuzzing: any document is either ConfigInvalid or runs ---------------------------

S1 = json.loads(Path(scenario_path("s1_comms_spoof")).read_text())
PROBES = ["s", ["l"], {"o": 1}, 7, -3, None, True, 0.5]
DELETE = object()  # an edit that removes the node


def node_paths(node, prefix=()):
    """The path, as keys and list indices, of every node under `node`."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def node_at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


S1_PATHS = list(node_paths(S1))
# every string the scenario holds, as a key or a value: ids, names and enum values
S1_STRINGS = sorted({p[-1] for p in S1_PATHS if isinstance(p[-1], str)}
                    | {v for v in (node_at(S1, p) for p in S1_PATHS) if isinstance(v, str)})


def edited(raw, edits):
    """`raw` with each (path, value) edit applied in turn."""
    out = copy.deepcopy(raw)
    for path, value in edits:
        try:
            parent = node_at(out, path[:-1])
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit replaced or removed a node on the path
    return out


def parse_and_run(raw):
    """Parse the document and run a 10-tick episode of it. ConfigInvalid from
    the parse and the kit's own errors from the run are fine; any other
    exception fails the calling test."""
    try:
        config = parse_scenario(raw)
    except ConfigInvalid:
        return
    config.duration_ticks = min(config.duration_ticks, 10)
    try:
        run_episode(config, 1)
    except DefsimError:
        pass


def test_every_single_node_edit_is_config_invalid_or_runs():
    for path in S1_PATHS:
        for probe in PROBES:
            parse_and_run(edited(S1, [(path, probe)]))


def in_range(original):
    """Values of the node's own type, so that most edits stay inside the
    table's ranges; a string names something the scenario already names."""
    if isinstance(original, bool):
        return st.booleans()
    if isinstance(original, int):
        return st.integers(min_value=0, max_value=6)
    if isinstance(original, float):
        return st.floats(min_value=0.0, max_value=1.0)
    if isinstance(original, str):
        return st.sampled_from(S1_STRINGS)
    return st.just(DELETE)


OUT_OF_RANGE = st.one_of(
    st.sampled_from(PROBES), st.just(DELETE), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**400, max_value=10**400),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=-3, max_value=3), max_size=2))


@st.composite
def several_edits(draw):
    paths = draw(st.lists(st.sampled_from(S1_PATHS), min_size=2, max_size=6))
    return [(p, draw(st.one_of(in_range(node_at(S1, p)), OUT_OF_RANGE))) for p in paths]


@given(edits=several_edits())
@settings(max_examples=80, deadline=None)
def test_several_edits_at_once_are_config_invalid_or_run(edits):
    parse_and_run(edited(S1, edits))


def id_scenario(h1="h1", h2="h2", svc="svc", proc="p", file="f", chan="c", agent="a1",
                inst="m1", drop="drop"):
    """A 9-tick story that writes each id into the targets it forms. m1 spawns
    a process at tick 0, creates `drop`, degrades `svc`, spoofs `chan`, moves
    to h2 and kills the agent at tick 7. From tick 0 on the agent's `sweep`
    kills and removes named entities and selected ones, sets and adds to
    numbers, and sets the channel's state."""
    effects = [(f"process:{h1}:{proc}", "", "kill", None),
               (f"file:{h1}:{file}", "", "remove", None),
               (f"process:{h2}:@unknown", "", "kill", None),
               (f"file:{h2}:@foreign", "", "remove", None),
               (f"service:{h2}:{svc}", "health", "set", 1.0),
               (f"service:$self:{svc}", "health", "add", 0.1),
               (f"host:{h2}", "integrity", "add", -0.1),
               (f"channel:{chan}", "state", "set", "healthy")]
    step = {"tick": 2, "instance_id": inst}
    return {
        "schema_version": 1, "duration_ticks": 9,
        "topology": {
            "hosts": [{"host_id": h1, "services": [{"service_id": svc, "required": True}],
                       "processes": [{"process_id": proc}], "files": [{"file_id": file}]},
                      {"host_id": h2, "services": [{"service_id": svc, "required": True}],
                       "processes": [{"process_id": proc, "known_good": False, "owner": "malware"}],
                       "files": [{"file_id": file, "owner": "malware"}]}],
            "channels": [{"channel_id": chan, "endpoints": [h1, h2]}]},
        "playbook": {
            "instances": [{"instance_id": inst, "host_id": h1, "phase": "Foothold",
                           "hunt_intensity": 1.0}],
            "steps": [{**step, "tick": 1, "action": "create_file", "params": {"file_id": drop}},
                      {**step, "action": "degrade_service", "params": {"service": svc, "host": h1}},
                      {**step, "action": "set_channel",
                       "params": {"channel": chan, "state": "spoofed"}}]},
        "patterns": [{"id": "always", "severity": 1.0, "confidence": 1.0, "deadline_ticks": 0}],
        "repertoire": [{"action_id": "sweep", "category": "contain", "effects": [
            {"env": dict(zip(("target", "attribute", "operation", "value"), effect))}
            for effect in effects]}],
        "roe": {"fast_deadline_ticks": 1},
        "rules": [{"rule_id": "r", "action_id": "sweep", "priority": 1}],
        "agents": [{"agent_id": agent, "host_id": h1, "detectability": 1.0}],
    }


def test_the_id_story_reaches_every_target_it_forms():
    result = run_episode(parse_scenario(id_scenario()), 1)
    effects = {(e["tick"], e["target"]) for e in result.trace if e["kind"] == "env.effect"}
    assert {(0, "process:h1:mal_m1_1"), (1, "file:h1:drop"), (2, "service:h1:svc"),
            (2, "channel:c"), (0, "process:h1:p"), (0, "file:h1:f"), (0, "process:h2:@unknown"),
            (0, "file:h2:@foreign"), (0, "service:h1:svc"), (7, "agent:a1")} <= effects
    assert [e["tick"] for e in result.trace if e["kind"] == "adversary.lateral"] == [5]


# ids from text, with the characters and names that a target reads
ID_TEXT = st.one_of(st.text(max_size=3), st.text(alphabet="h1:$@", max_size=4),
                    st.sampled_from(["$self", "@unknown", "@foreign", "h$self"]))


@given(ids=st.fixed_dictionaries({slot: ID_TEXT for slot in (
    "h1", "h2", "svc", "proc", "file", "chan", "agent", "inst", "drop")}))
@settings(max_examples=200, deadline=None)
def test_any_ids_are_config_invalid_or_run_to_the_end(ids):
    try:
        config = parse_scenario(id_scenario(**ids))
    except ConfigInvalid:
        return
    episode = Episode(config, 1)
    episode.run()
    assert episode.tick == config.duration_ticks - 1


# -- fuzzing: what validation guarantees, the runtime does not check again ------------

WEIGHT = st.floats(min_value=5e-324, max_value=1e308)  # the table's positive weights
DELTA_VALUE = st.one_of(st.floats(min_value=-1e308, max_value=1e308),
                        st.integers(min_value=-3, max_value=3))
DELTAS = st.lists(st.tuples(st.sampled_from(["threat", "health"]), st.sampled_from(["set", "add"]),
                            DELTA_VALUE).map(list), max_size=2)
HOSTS = ["h1", "h2"]


@st.composite
def playbook_steps(draw):
    """A step of each action of the format, on a listed instance or on null
    (the first listed), with params that may name what the platform lacks."""
    action = draw(st.sampled_from(sorted(_STEP.cases)))
    host = draw(st.one_of(st.just({}), st.sampled_from(HOSTS).map(lambda h: {"host": h})))
    amount = draw(st.one_of(st.just({}), st.floats(0.0, 1.0).map(lambda a: {"amount": a})))
    params = {
        "advance_phase": {},
        "create_file": {**host, "file_id": draw(st.sampled_from(["f", "drop"]))},
        "set_channel": {"channel": "c", "state": draw(st.sampled_from(sorted(CHANNEL_STATE.values)))},
        "degrade_service": {**host, **amount, "service": draw(st.sampled_from(["svc", "db"]))},
        "degrade_host": {**host, **amount},
        "move_lateral": {"target_host": draw(st.sampled_from(HOSTS))},
    }[action]
    trigger = draw(st.one_of(st.none(), st.fixed_dictionaries({
        "kind": st.just("host_integrity_below"), "host": st.sampled_from(HOSTS),
        "value": st.floats(0.0, 1.0)})))
    return {"tick": draw(st.integers(0, 8)), "action": action, "params": params,
            "instance_id": draw(st.sampled_from(["m1", "m2", None])), "trigger": trigger}


ROE_VALUE = {"max_plan_risk": st.floats(0.0, 1.0), "destructive_only_on_residence": st.booleans(),
             "forbidden_categories": st.lists(st.sampled_from(["destructive", "contain"]),
                                              max_size=2),
             "fast_deadline_ticks": st.integers(0, 3)}


@st.composite
def control_commands(draw):
    command = draw(st.sampled_from(sorted(_COMMAND.cases)))
    if command == "set_goal_weight":
        fields = {"goal_id": draw(st.sampled_from(["g1", "g2"])), "weight": draw(WEIGHT)}
    elif command == "set_roe":
        field = draw(st.sampled_from(sorted(ROE_VALUE)))
        fields = {"field": field, "value": draw(ROE_VALUE[field])}
    elif command == "add_rule":
        fields = {"rule": {"rule_id": "r2", "action_id": draw(st.sampled_from(["watch", "purge"])),
                           "priority": 0}}
    elif command == "add_pattern_example":
        fields = {"features": {"threat": draw(DELTA_VALUE)},
                  "label": draw(st.sampled_from(["compromised", "clean"]))}
    else:
        fields = {}
    return {"tick": draw(st.integers(0, 8)), "kind": "ControlCommand", "to": "a1",
            "payload": {"command": command, **fields}}


def slot_scenario(goal_weights, steps, commands, progression, effects):
    """A 9-tick story of two hosts on channel c: instances m1 on h1 and m2
    on h2 run `steps`; the center on h2 sends `commands` to a1 on h1; the
    `always` pattern adds `progression`, and the actions `watch` and `purge`
    make `effects`, to the features `threat` and `health` that goals read."""
    def host(host_id, service):
        return {"host_id": host_id, "services": [{"service_id": service, "required": True}]}
    return {
        "schema_version": 1, "duration_ticks": 9,
        "topology": {"hosts": [host("h1", "svc"), host("h2", "db")],
                     "channels": [{"channel_id": "c", "endpoints": HOSTS}]},
        "playbook": {"instances": [{"instance_id": "m1", "host_id": "h1", "phase": "Foothold"},
                                   {"instance_id": "m2", "host_id": "h2"}],
                     "steps": steps},
        "patterns": [{"id": "always", "severity": 0.9, "confidence": 0.9, "deadline_ticks": 0,
                      "progression": progression}],
        "repertoire": [
            {"action_id": "watch", "category": "contain", "effects": [{"features": effects}]},
            {"action_id": "purge", "category": "destructive", "risk": 0.2, "effects": [
                {"env": {"target": "process:$self:@unknown", "operation": "kill"},
                 "features": [["threat", "set", 0]]}]}],
        "goals": [{"goal_id": f"g{i}", "predicates": [[key, "<=", 0.5]], "weight": weight}
                  for i, (key, weight) in enumerate(zip(("threat", "health"), goal_weights), 1)],
        "roe": {"fast_deadline_ticks": 1},
        "rules": [{"rule_id": "r1", "action_id": "watch", "priority": 1,
                   "condition": [["threat", ">=", 1]]}],
        "c2": {"host_id": "h2", "script": commands},
        "agents": [{"agent_id": "a1", "host_id": "h1", "detectability": 0.5}],
    }


@given(goal_weights=st.lists(WEIGHT, min_size=1, max_size=2),
       steps=st.lists(playbook_steps(), max_size=4),
       commands=st.lists(control_commands(), max_size=4), progression=DELTAS, effects=DELTAS)
@settings(max_examples=100, deadline=None)
def test_what_validation_accepts_runs_to_its_end(goal_weights, steps, commands, progression,
                                                 effects):
    try:
        config = parse_scenario(slot_scenario(goal_weights, steps, commands, progression, effects))
    except ConfigInvalid:
        return
    result = run_episode(config, 1)
    assert result.trace[-1]["tick"] == config.duration_ticks - 1
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(result, Path(tmp) / "trace.jsonl")
        assert replay(Path(tmp) / "trace.jsonl") == result.metrics
