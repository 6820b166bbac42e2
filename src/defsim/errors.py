"""Exception hierarchy shared across the simulation kit, the reader that
maps a bad input file onto it, and the writers of files and canonical JSON."""

from __future__ import annotations

import json
import os
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any


class DefsimError(Exception):
    """Base class for all kit errors."""


class ConfigInvalid(DefsimError):
    """Scenario file failed validation; message lists every problem found."""

    def __init__(self, problems: list[str] | str):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = problems
        super().__init__("; ".join(problems))


# -- environment ------------------------------------------------------------

class UnknownEntity(DefsimError):
    """An agent action's target is gone (stale plan; execution treats as failure)."""


# -- execution --------------------------------------------------------------

class ModeForbidden(DefsimError):
    """Operation not permitted in the agent's current mode."""


# -- collaboration ----------------------------------------------------------

class InvalidTransition(DefsimError):
    """Handover message does not match the current authority holder."""


class UnknownGoal(DefsimError):
    pass


class PropagationRefused(DefsimError):
    """Base for replica installation refusals; names the first failed condition."""


class RefusedNonFriendly(PropagationRefused):
    pass


class RefusedNoAuthorization(PropagationRefused):
    pass


class RefusedNoTrigger(PropagationRefused):
    pass


class RefusedNoRoute(PropagationRefused):
    pass


class RefusedOccupied(PropagationRefused):
    """The target host holds a live agent, and a host holds one."""


# -- runner -----------------------------------------------------------------

class SchemaMismatch(DefsimError):
    """Trace file written under a different schema version."""


class CorruptTrace(DefsimError):
    """Trace file is truncated or not parseable."""


class IndexOutOfRange(DefsimError):
    """Decision index outside the decision log."""


class OutputUnwritable(DefsimError):
    """An output file or directory cannot be written; names the path and why."""


_raw_decode = json.JSONDecoder().raw_decode


def _loads_line(line: str) -> Any:
    """json.loads(line), in one scanner call when the value fills the line;
    any other line, padded or malformed, goes to json.loads itself, so
    what is accepted and every error message stay json.loads'."""
    try:
        value, end = _raw_decode(line)
    except (ValueError, RecursionError):
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


def read_json(path: str | Path, error: type[DefsimError], what: str,
              lines: bool = False) -> Any:
    """The JSON document in the file at `path`, or with `lines` the documents
    on its non-blank lines. A file that cannot be read, is not UTF-8, is not
    JSON or nests too deep for the decoder raises `error`."""
    try:
        if lines:
            # lines and blanks by JSON's rules, not str's: strings may hold U+2028
            # raw, and a raw CR is whitespace, so it is read untranslated
            with open(path, encoding="utf-8", newline="") as file:
                text = file.read()
            return [_loads_line(line) for line in text.split("\n") if line.strip(" \t\r")]
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise error(f"cannot read {what}: {exc}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8 bytes, untranslated. An existing file is
    overwritten in place and cut to length, as O_TRUNC costs far more on ext4;
    nothing is fsynced, so a crash mid-write can leave stale or torn bytes."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as file:
            file.write(text.encode("utf-8"))
            if os.fstat(fd).st_size > file.tell():  # a device such as /dev/null has no length
                file.truncate()
    except OSError as exc:
        raise OutputUnwritable(f"cannot write {path}: {exc.strerror or exc}") from exc


# json.dumps(value, sort_keys=True, separators=(",", ":")) builds a C encoder
# on every call; this one is built once. The markers dict keeps the circular
# reference check, and JSONEncoder's default raises json.dumps' TypeError. The
# markers are shared, so encodes must not run in two threads at once.
_markers: dict[int, Any] = {}
_encode = c_make_encoder(_markers, json.JSONEncoder().default, encode_basestring_ascii,
                         None, ":", ",", True, False, True)


def canonical_json(value: Any) -> str:
    """`value` in the canonical form of traces, results and auth tags: keys
    sorted, "," and ":" separators, non-ASCII as \\uXXXX, NaN and infinities
    as Python's json writes them; the same text as json.dumps with
    sort_keys=True and separators=(",", ":")."""
    try:
        return "".join(_encode(value, 0))
    except BaseException:
        _markers.clear()  # a failed encode leaves its containers marked
        raise
