import json
from pathlib import Path

import pytest

from defsim import cli
from defsim.cli import main
from defsim.runner import explain, run_episode, write_result

from conftest import BUNDLED, run_python, scenario_path


def test_run_writes_trace_and_result(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", scenario_path("s1_comms_spoof"),
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "trace.jsonl").exists()
    assert (out / "result.json").exists()
    metrics = json.loads(capsys.readouterr().out)
    assert "resilience_auc" in metrics


def test_run_agent_off_flag(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", scenario_path("s1_comms_spoof"),
               "--seed", "1", "--out", str(out), "--agent-off"])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["agent_survived"] is None


def test_batch_writes_csv_and_aggregate(tmp_path, capsys):
    out = tmp_path / "batch"
    rc = main(["batch", "--scenario", scenario_path("s1_comms_spoof"),
               "--seeds", "1..3", "--out", str(out)])
    assert rc == 0
    assert (out / "metrics.csv").read_text().count("\n") == 4  # header + 3 rows
    aggregate = json.loads((out / "aggregate.json").read_text())
    assert aggregate["seeds"] == [1, 2, 3]


def test_replay_round_trip(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", scenario_path("s1_comms_spoof"),
          "--seed", "2", "--out", str(out)])
    first = json.loads(capsys.readouterr().out)
    rc = main(["replay", "--trace", str(out / "trace.jsonl")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == first


def test_explain_renders_decision(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", scenario_path("s1_comms_spoof"),
          "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    rc = main(["explain", "--result", str(out / "result.json"), "--decision", "0"])
    assert rc == 0
    assert "Decision 0 at tick" in capsys.readouterr().out


def test_explain_from_file_equals_explain_from_memory(bundled_configs, tmp_path, capsys):
    path = tmp_path / "result.json"
    for name in BUNDLED:
        for seed in range(1, 21):
            result = run_episode(bundled_configs[name], seed)
            write_result(result, path)
            assert result.decision_log, f"{name} seed {seed}: no decision to explain"
            for i in range(len(result.decision_log)):
                assert main(["explain", "--result", str(path), "--decision", str(i)]) == 0
                assert capsys.readouterr().out == explain(result.decision_log, i) + "\n", \
                    f"{name} seed {seed} decision {i}"


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1}))
    rc = main(["run", "--scenario", str(bad), "--seed", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"schema_version": 1}\n{"truncated...')
    rc = main(["replay", "--trace", str(trace)])
    assert rc == 2


def test_explain_bad_index_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", scenario_path("s1_comms_spoof"),
          "--seed", "1", "--out", str(out)])
    capsys.readouterr()
    rc = main(["explain", "--result", str(out / "result.json"), "--decision", "9999"])
    assert rc == 2


def test_explain_of_a_result_with_no_decisions_says_so(tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--scenario", scenario_path("s1_comms_spoof"),
          "--seed", "1", "--out", str(out), "--agent-off"])
    capsys.readouterr()
    rc = main(["explain", "--result", str(out / "result.json"), "--decision", "0"])
    assert rc == 2
    assert capsys.readouterr().err == "error: the result holds no decisions\n"


S1 = scenario_path("s1_comms_spoof")
END_ONE = '{"kind": "end", "events": 1}\n'
TOO_LARGE = "1" + "0" * 400  # a JSON integer no float can hold
NOT_UTF8 = str(Path(__file__).parent / "data" / "not_utf8.json")
TOO_DEEP = "[" * 100_000 + "\n"  # deeper than the JSON decoder recurses
S1_STEP_PARAMS_STRING = json.loads(Path(S1).read_text())
S1_STEP_PARAMS_STRING["playbook"]["steps"][2]["params"] = "s"
# a repertoire action under a builtin's id, whose effect a precondition needs
S1_SHADOWS_BUILTIN = json.loads(Path(S1).read_text())
S1_SHADOWS_BUILTIN["repertoire"].append({"action_id": "verify_effects", "category": "observe",
                                         "effects": [{"features": [["armed", "set", 1]]}]})
next(a for a in S1_SHADOWS_BUILTIN["repertoire"]
     if a["action_id"] == "purge_unknown")["preconditions"].append(["armed", ">=", 1])

S2 = json.loads(Path(scenario_path("s2_lateral_hunt")).read_text())
# declared ids that the remote center or a replica takes
S2_RESERVED_IDS = {
    "agent_c2": dict(S2, agents=S2["agents"] + [{"agent_id": "c2", "host_id": "h2"}]),
    "agent_replica_id": dict(S2, agents=S2["agents"] + [{"agent_id": "a1_r1", "host_id": "h2"}]),
    "instance_replica_id": dict(S2, playbook=dict(
        S2["playbook"], max_instances=8,
        instances=S2["playbook"]["instances"] + [{"instance_id": "m1_r1", "host_id": "h2"}])),
}


def trace_text(*events: str) -> str:
    """A version-1 trace of these event lines, framed by its end record."""
    return "\n".join(['{"schema_version": 1}', *events,
                      f'{{"kind": "end", "events": {len(events)}}}']) + "\n"


# a decision event that explain can render, as trace line or as result entry
ENVELOPE = ('"kind": "agent.decision", "tick": 0, "agent": "a1", "path": "deliberative", '
            '"trigger": {"matched": [], "top_severity": 0.5, "problematic": true}')
DECISION = ('{' + ENVELOPE + ', "candidates": [], "chosen": {"no_action": true, "entries": null}, '
            '"rationale": {"risk_weight": 1, "noise_weight": 1, "tie_break": {"used": false}, '
            '"trims": [], "insertions": [], '
            '"gate": {"inaction_loss": 0, "plan_loss": 0, "released": false}}}')


def same_as(value: str) -> str:
    return '{' + ENVELOPE + ', "same_as": ' + value + '}'


# decision records whose last reference is malformed
SAME_AS_CASES = {
    "own_index": (DECISION, same_as("1")),
    "past_own_index": (DECISION, same_as("2"), DECISION),
    "negative": (DECISION, same_as("-1")),
    "true": (DECISION, same_as("true")),
    "float": (DECISION, same_as("0.0")),
    "string": (DECISION, same_as('"0"')),
    "naming_a_reference": (DECISION, same_as("0"), same_as("1")),
    "beside_a_body": (DECISION, DECISION[:-1] + ', "same_as": 0}'),
}


def explain_last_reference(*entries: str) -> tuple[list[str], str]:
    """explain's command line for the last entry that holds same_as, and a
    result file of these entries."""
    index = max(i for i, entry in enumerate(entries) if "same_as" in entry)
    return (["explain", "--result", "FILE", "--decision", str(index)],
            '{"decision_log": [' + ", ".join(entries) + ']}\n')


# command line, with FILE standing for the artifact path, and the artifact text
MALFORMED = {
    "seeds_not_numbers": (["batch", "--scenario", S1, "--seeds", "abc", "--out", "FILE"], None),
    "seeds_empty": (["batch", "--scenario", S1, "--seeds", ",", "--out", "FILE"], None),
    "trace_header_array": (["replay", "--trace", "FILE"],
                           '[1, 2]\n{"kind": "end", "events": 0}\n'),
    "trace_event_array": (["replay", "--trace", "FILE"],
                          '{"schema_version": 1}\n[1]\n' + END_ONE),
    "trace_event_without_kind": (["replay", "--trace", "FILE"],
                                 '{"schema_version": 1}\n{"tick": 0}\n' + END_ONE),
    "trace_event_without_field": (
        ["replay", "--trace", "FILE"],
        '{"schema_version": 1}\n{"kind": "tick.functionality", "tick": 0}\n' + END_ONE),
    "trace_reward_too_large": (
        ["replay", "--trace", "FILE"],
        '{"schema_version": 1, "primary_agent": "a1"}\n'
        '{"kind": "agent.reward", "agent": "a1", "reward": ' + TOO_LARGE + '}\n' + END_ONE),
    "trace_functionality_too_large": (
        ["replay", "--trace", "FILE"],
        '{"schema_version": 1}\n'
        '{"kind": "tick.functionality", "tick": 0, "value": ' + TOO_LARGE + '}\n' + END_ONE),
    **{f"trace_same_as_{case}": (["replay", "--trace", "FILE"], trace_text(*events))
       for case, events in SAME_AS_CASES.items()},
    # the result's entries are the trace's events less kind and seq; a kind changes nothing
    **{f"result_same_as_{case}": explain_last_reference(*entries)
       for case, entries in SAME_AS_CASES.items()},
    "result_same_as_in_a_list": explain_last_reference(DECISION, '["same_as"]'),
    "trace_bare_cr_line_breaks": (  # only LF ends a line: this is one line of two values
        ["replay", "--trace", "FILE"], '{"schema_version": 1}\r{"kind": "end", "events": 0}\r'),
    "trace_line_of_unicode_space": (  # not JSON, so not a blank line either
        ["replay", "--trace", "FILE"],
        '{"schema_version": 1}\n\u00a0\n{"kind": "end", "events": 0}\n'),
    "trace_decision_without_body": (
        ["replay", "--trace", "FILE"],
        trace_text('{"kind": "agent.decision", "candidates": [], "chosen": {}}')),
    "result_array": (["explain", "--result", "FILE", "--decision", "0"], "[]\n"),
    "decision_entry_empty": (["explain", "--result", "FILE", "--decision", "0"],
                             '{"decision_log": [{}]}\n'),
    "decision_log_number": (["explain", "--result", "FILE", "--decision", "0"],
                            '{"decision_log": 5}\n'),
    "scenario_not_utf8": (["run", "--scenario", NOT_UTF8, "--seed", "1", "--out", "FILE"], None),
    "scenario_too_deep": (["run", "--scenario", "FILE", "--seed", "1", "--out", "FILE"],
                          TOO_DEEP),
    "scenario_step_params_string": (["run", "--scenario", "FILE", "--seed", "1", "--out", "FILE"],
                                    json.dumps(S1_STEP_PARAMS_STRING)),
    "scenario_action_shadows_builtin": (["run", "--scenario", "FILE", "--seed", "1",
                                         "--out", "FILE"], json.dumps(S1_SHADOWS_BUILTIN)),
    **{f"scenario_{case}": (["run", "--scenario", "FILE", "--seed", "1", "--out", "FILE"],
                            json.dumps(raw)) for case, raw in S2_RESERVED_IDS.items()},
    "trace_not_utf8": (["replay", "--trace", NOT_UTF8], None),
    "trace_too_deep": (["replay", "--trace", "FILE"], TOO_DEEP),
    "result_not_utf8": (["explain", "--result", NOT_UTF8, "--decision", "0"], None),
    "result_too_deep": (["explain", "--result", "FILE", "--decision", "0"], TOO_DEEP),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(case, tmp_path):
    args, text = MALFORMED[case]
    artifact = tmp_path / "artifact"
    if text is not None:
        artifact.write_text(text, encoding="utf-8")
    proc = run_python(["-m", "defsim.cli"]
                      + [str(artifact) if arg == "FILE" else arg for arg in args])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


# command line, with OUT standing for an output path, and the part of OUT
# that is made a directory, or a regular file, before the run
UNWRITABLE = {
    "run_out_is_a_file": (["run", "--scenario", S1, "--seed", "1", "--out", "OUT"], "", "file"),
    "batch_out_is_a_file": (["batch", "--scenario", S1, "--seeds", "1", "--out", "OUT"], "",
                            "file"),
    "trace_is_a_directory": (["run", "--scenario", S1, "--seed", "1", "--out", "OUT"],
                             "trace.jsonl", "directory"),
    "csv_is_a_directory": (["batch", "--scenario", S1, "--seeds", "1", "--out", "OUT"],
                           "metrics.csv", "directory"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unwritable_output_exits_1_without_traceback(case, tmp_path):
    args, inside, kind = UNWRITABLE[case]
    out = tmp_path / "out"
    blocker = out / inside
    if kind == "file":
        blocker.write_text("")
    else:
        blocker.mkdir(parents=True)
    proc = run_python(["-m", "defsim.cli"] + [str(out) if arg == "OUT" else arg for arg in args])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: cannot ")
    assert str(blocker) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["run", "batch"])
def test_an_unwritable_out_fails_before_any_episode_runs(command, tmp_path, capsys,
                                                         monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_episode", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(cli, "run_batch", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "out"
    out.write_text("")
    seeds = ["--seed", "1"] if command == "run" else ["--seeds", "1..20"]
    assert main([command, "--scenario", S1, *seeds, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot make directory {out}")
    assert calls == []


def test_bad_seeds_exit_2_before_the_output_directory_is_made(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["batch", "--scenario", S1, "--seeds", "1..x", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot parse seeds")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    trace_text('{"kind": "x", "s": "a\u2028b\u2029c\u0085d"}'),
    trace_text(DECISION, same_as("0"), DECISION.replace("[]", "[1]"), same_as("2"), same_as("0")),
    trace_text('{"kind": "x",\r"s": 1}'),  # a raw CR is JSON whitespace
    trace_text('{"kind": "x", "s": 1}\r', '{"kind": "y"}').replace("\n", "\r\n"),
], ids=["line_separators_in_a_string", "decision_references", "raw_cr_in_a_line", "crlf_lines"])
def test_replay_accepts_a_valid_trace(text, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(text, encoding="utf-8")
    assert main(["replay", "--trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["harm_events"] == 0
