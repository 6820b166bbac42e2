import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from defsim.cli import main
from defsim.errors import ConfigInvalid, DefsimError
from defsim.runner import run_episode
from defsim.scenario import load_scenario, parse_scenario

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


def test_roster_unknown_host_rejected():
    raw = minimal_raw()
    raw["roster"] = {"hosts": ["ghost"], "authorization_token": "t"}
    assert any("roster: unknown host" in p for p in problems_of(raw))


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


def test_resident_agent_consistency_checked():
    raw = minimal_raw()
    raw["topology"]["hosts"][0]["resident_agent"] = "ghost"
    assert any("resident_agent 'ghost'" in p for p in problems_of(raw))


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
    return lambda raw: raw["agents"].extend({"agent_id": a, "host_id": "h1"} for a in agent_ids)


def _add_instances(*instance_ids):
    return lambda raw: raw.update(playbook={"instances": [
        {"instance_id": i, "host_id": "h1"} for i in instance_ids]})


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
], ids=["threshold_string", "report_interval_zero", "communicate_noise_negative",
        "fail_safe_streak_string", "duplicate_agent_id", "depth_string",
        "noise_weight_string", "trigger_threshold_string", "service_weight_string",
        "duration_string", "step_without_any_instance", "agent_entry_string",
        "agent_id_list", "topology_list", "host_entry_string", "unknown_preparation",
        "malware_process_known_good_by_default", "action_id_shadows_builtin", "agent_id_c2",
        "agent_id_of_a_replica", "agent_id_of_a_replica_of_a_replica",
        "instance_id_of_a_replica", "instance_id_of_a_replica_of_a_replica"])
def test_mistyped_or_out_of_range_settings_are_config_invalid(edit, problem):
    raw = minimal_raw()
    edit(raw)
    with pytest.raises(ConfigInvalid) as err:
        parse_scenario(raw)
    assert any(problem in p for p in err.value.problems), err.value.problems


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
