import hashlib
import json
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from defsim.cli import main
from defsim.errors import CorruptTrace, OutputUnwritable, canonical_json, read_json, write_text
from defsim.runner import replay, write_trace

from conftest import run_python, scenario_path

TEXT = st.text(st.characters(blacklist_categories=("Cs",)))  # UTF-8 can encode it


def json_values(floats):
    return st.recursive(
        st.none() | st.booleans() | st.integers() | floats | TEXT,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
        max_leaves=12)


VALUES = json_values(st.floats(allow_nan=False))
PADDING = st.text(" \t\r", max_size=3)


@st.composite
def lines(draw):
    """One line of a JSON-lines file: a value as json.dumps writes it, or a
    line that json.loads reads otherwise or refuses."""
    value = json.dumps(draw(VALUES), ensure_ascii=draw(st.booleans()))
    return draw(st.sampled_from([
        value,
        draw(PADDING) + value + draw(PADDING),
        value.replace(", ", ",\r"),  # a raw CR as whitespace between tokens
        "\ufeff" + value,  # a byte order mark
        value + draw(st.sampled_from([" 0", "x", value])),  # extra data
        draw(st.sampled_from(["NaN", "[Infinity, -Infinity]", '{"v": NaN}'])),
        "[" * 100_000,  # deeper than the decoder recurses
        "1" * 5000,  # more digits than int() converts
        draw(PADDING),  # blank
    ]))


@settings(max_examples=300, deadline=None)
@given(st.lists(lines(), max_size=6), st.sampled_from(["\n", "\r\n", "\r"]))
def test_read_json_lines_decodes_each_line_as_json_loads_does(tmp_path_factory, drawn, newline):
    path = tmp_path_factory.mktemp("lines") / "trace.jsonl"
    path.write_bytes(newline.join(drawn).encode("utf-8"))
    # the lines as JSON sees them: only LF ends a line, and a CR is whitespace,
    # so a CRLF line keeps its CR and a file of bare CR breaks is one line
    text = path.read_bytes().decode("utf-8")
    kept = [line for line in text.split("\n") if line.strip(" \t\r")]
    try:
        expected = [json.loads(line) for line in kept]
    except (ValueError, RecursionError) as exc:
        try:
            read_json(path, CorruptTrace, "trace", lines=True)
        except CorruptTrace as error:
            assert str(error) == f"cannot read trace: {exc}"
            assert type(error.__cause__) is type(exc)
        else:
            raise AssertionError(f"read_json accepted what json.loads refuses: {exc}")
    else:
        # compared as text, so that NaN equals NaN and 1 differs from 1.0
        got = read_json(path, CorruptTrace, "trace", lines=True)
        assert json.dumps(got) == json.dumps(expected)


def dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(json_values(st.floats()))  # NaN and infinities too
def test_canonical_json_writes_what_json_dumps_writes(value):
    assert canonical_json(value) == dumps(value)


def test_canonical_json_writes_every_bundled_event_and_result_as_json_dumps_does(
        bundled_results):
    for result in bundled_results.values():
        assert canonical_json(result.to_json()) == dumps(result.to_json())
        for event in result.trace:
            assert canonical_json(event) == dumps(event)


def test_canonical_json_refuses_what_json_dumps_refuses_and_goes_on():
    value = {"a": [{1}]}
    with pytest.raises(TypeError) as refused:
        dumps(value)
    with pytest.raises(TypeError) as error:
        canonical_json(value)
    assert str(error.value) == str(refused.value)
    # the containers of the failed encode are not left marked as open
    value["a"] = [1]
    assert canonical_json(value) == '{"a":[1]}'


def test_canonical_json_refuses_a_circular_value():
    value = [1]
    value.append(value)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        canonical_json(value)
    assert canonical_json([value[0]]) == "[1]"


@pytest.mark.parametrize("old", [None, b"x" * 1000 + b"\n", b"ab"],
                         ids=["absent", "longer", "shorter"])
@pytest.mark.parametrize("text", ["one\ntwo\n", "a\r\nb\nc\r\n", "\u00e9\u2028\U0001f600\n"],
                         ids=["lf", "crlf_and_lf", "non_ascii"])
def test_write_text_leaves_exactly_the_utf8_bytes_of_the_text(tmp_path, old, text):
    path = tmp_path / "artifact"
    if old is not None:
        path.write_bytes(old)
    write_text(path, text)
    # no stale tail of a longer file, no newline translation, no locale codec
    assert path.read_bytes() == text.encode("utf-8")


def test_write_text_writes_utf8_under_an_ascii_locale(tmp_path):
    path = tmp_path / "artifact"
    proc = run_python(["-c", "import sys; from defsim.errors import write_text; "
                       "write_text(sys.argv[1], '\\u00e9\\r\\n')", str(path)],
                      LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert proc.returncode == 0, proc.stderr
    assert path.read_bytes() == "\u00e9\r\n".encode("utf-8")


def test_write_text_creates_a_file_as_path_write_text_does(tmp_path):
    (tmp_path / "reference").write_text("x")
    write_text(tmp_path / "artifact", "x")
    assert (os.stat(tmp_path / "artifact").st_mode
            == os.stat(tmp_path / "reference").st_mode)  # umask applied, not executable


def test_write_text_through_a_symlink_rewrites_its_target(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"an older and longer text\n")
    link.symlink_to(target)
    write_text(link, "new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


def test_write_text_writes_to_a_device_that_cannot_be_cut(tmp_path):
    link = tmp_path / "trace.jsonl"
    link.symlink_to(os.devnull)  # how a user can discard an artifact
    write_text(link, "x\n")
    assert link.read_bytes() == b""


@pytest.mark.parametrize("case", ["directory", "missing_parent"])
def test_write_text_to_an_unwritable_path_names_it(tmp_path, case):
    path = tmp_path / "artifact"
    if case == "directory":
        path.mkdir()
    else:
        path = path / "artifact"
    with pytest.raises(OutputUnwritable, match=f"^cannot write {re.escape(str(path))}: ") as error:
        write_text(path, "x")
    assert isinstance(error.value.__cause__, OSError)


@pytest.mark.parametrize("written", [1.0, 0.5, 0.01], ids=["before_the_cut", "half", "start"])
def test_a_trace_torn_by_a_crash_mid_write_fails_replay(bundled_results, tmp_path, written):
    # nothing is fsynced: a crash can leave part of the new trace over the old
    # one, before the file is cut to length
    old, new = bundled_results[("s3_partition", 1)], bundled_results[("s1_comms_spoof", 1)]
    path = tmp_path / "trace.jsonl"
    write_trace(new, path)
    new_bytes = path.read_bytes()
    write_trace(old, path)
    with open(path, "r+b") as file:
        file.write(new_bytes[:int(len(new_bytes) * written)])
    with pytest.raises(CorruptTrace):
        replay(path)


def test_batch_exports_keep_their_bytes(tmp_path, capsys):
    # metrics.csv has csv's CRLF rows and aggregate.json LF lines, on every OS
    out = tmp_path / "batch"
    assert main(["batch", "--scenario", scenario_path("s2_lateral_hunt"),
                 "--seeds", "1..3", "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_bytes() == (
        b"scenario,seed,resilience_auc,time_to_recovery,agent_survived,harm_events,"
        b"reward_total\r\n"
        b"s2_lateral_hunt,1,0.29333333333333333,,False,0,-5.999999999999999\r\n"
        b"s2_lateral_hunt,2,0.7933333333333327,,True,0,-19.549999999999983\r\n"
        b"s2_lateral_hunt,3,0.7933333333333327,,True,0,-19.549999999999983\r\n")
    assert hashlib.sha256((out / "aggregate.json").read_bytes()).hexdigest() == (
        "5532c0bb674967d5ed3ceec693638c1a0d77d3351cddccec2d7d4afd10cd58b2")
