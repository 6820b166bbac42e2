import json

import pytest
from hypothesis import given, settings, strategies as st

from defsim.errors import CorruptTrace, canonical_json, read_json

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
