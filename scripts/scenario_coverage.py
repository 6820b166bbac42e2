"""Print the function-body lines of the defsim package that no bundled story
reaches.

Run from the repository root:

    PYTHONPATH=src python3 scripts/scenario_coverage.py [--seeds N]

For each bundled scenario it runs seeds 1..N (default 20) through the
command line: `run`, `replay` of its trace, `explain` of every decision of
its result, and one `batch` of the seeds. A stdlib `sys.settrace` line
tracer records the lines each module's functions execute meanwhile. Every
story imports the package, so each module's source also runs once more
under the tracer, in a namespace of its own, to count the functions it
calls at import. A function-body line is a line that an instruction of a
function's code object maps to (lambdas and comprehensions included),
other than the function's first line; module and class bodies do not
count. It prints, per module, the number of body lines, how many no story
reached and which, then the totals.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import sys
import tempfile
from importlib.resources import files
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable, Optional

from defsim import cli

# the stories shipped in the package, one JSON file each
BUNDLED = tuple(sorted(path.stem for path in
                       Path(str(files("defsim") / "scenarios")).glob("*.json")))
MODULES = sorted(path.stem for path in Path(cli.__file__).parent.glob("*.py"))


def body_lines(path: str) -> set[int]:
    """The function-body lines of the module at `path`."""
    lines: set[int] = set()
    stack = [compile(Path(path).read_text(), path, "exec")]
    while stack:
        code = stack.pop()
        stack.extend(const for const in code.co_consts if isinstance(const, CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def line_tracer(reached: dict[str, set[int]]) -> Callable[..., Any]:
    """A sys.settrace function that adds each line run in a file of
    `reached` to that file's set, and traces no other file."""
    def local_for(lines: set[int]) -> Callable[..., Any]:
        def local(frame: FrameType, event: str, arg: Any) -> Callable[..., Any]:
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    locals_by_file = {filename: local_for(lines) for filename, lines in reached.items()}

    def tracer(frame: FrameType, event: str, arg: Any) -> Optional[Callable[..., Any]]:
        return locals_by_file.get(frame.f_code.co_filename)
    return tracer


def defsim(*argv: str) -> None:
    if cli.main(list(argv)) != 0:
        raise SystemExit(f"defsim {' '.join(argv)} failed")


def run_stories(seeds: list[int], out: Path, filenames: dict[str, str]) -> None:
    """Import every module again, then run every bundled story through run,
    replay, explain and batch."""
    for name, filename in filenames.items():
        exec(compile(Path(filename).read_text(), filename, "exec"),
             {"__name__": f"defsim.{name}", "__package__": "defsim"})
    for name in BUNDLED:
        scenario = str(files("defsim") / "scenarios" / f"{name}.json")
        for seed in seeds:
            episode = out / name / str(seed)
            defsim("run", "--scenario", scenario, "--seed", str(seed), "--out", str(episode))
            defsim("replay", "--trace", str(episode / "trace.jsonl"))
            result = str(episode / "result.json")
            for index in range(len(json.loads(Path(result).read_text())["decision_log"])):
                defsim("explain", "--result", result, "--decision", str(index))
        defsim("batch", "--scenario", scenario, "--seeds", f"{seeds[0]}..{seeds[-1]}",
               "--out", str(out / name / "batch"))


def spans(lines: list[int]) -> str:
    """Sorted line numbers as ranges: 3-5, 9."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="run seeds 1..N")
    args = parser.parse_args(argv)
    seeds = list(range(1, args.seeds + 1))
    filenames = {name: importlib.import_module(f"defsim.{name}").__file__ for name in MODULES}
    reached: dict[str, set[int]] = {filename: set() for filename in filenames.values()}
    previous = sys.gettrace()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(line_tracer(reached))
        try:
            run_stories(seeds, Path(tmp), filenames)
        finally:
            sys.settrace(previous)
    print(f"bundled stories, seeds 1-{args.seeds}: function-body lines no story reaches")
    print("| module | body lines | unreached | lines |")
    print("| --- | --- | --- | --- |")
    total = unreached_total = 0
    for name, filename in filenames.items():
        lines = body_lines(filename)
        unreached = sorted(lines - reached[filename])
        total, unreached_total = total + len(lines), unreached_total + len(unreached)
        print(f"| {name}.py | {len(lines)} | {len(unreached)} | {spans(unreached)} |")
    print(f"| total | {total} | {unreached_total} | |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
