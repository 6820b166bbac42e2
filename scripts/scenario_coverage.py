"""Print the function-body lines of the defsim package that no bundled story
reaches, or with --fields the fields that no story reads.

Run from the repository root:

    PYTHONPATH=src python3 scripts/scenario_coverage.py [--seeds N] [--fields]

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

With --fields it wraps `__getattribute__` on every class of the package
and runs each bundled story, agent on and off, plus the test suite's
`tests/data/risk_loop.json` (the one input whose agent restores a
snapshot), for seeds 1..N, writing, replaying and explaining each
episode. A field is a dataclass field, or an attribute that these inputs
set on an instance of a class that is no dataclass. It prints each field
never read through an instance of its own class, as
`module.py: Class.field`, one a line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import inspect
import io
import itertools
import json
import sys
import tempfile
from enum import Enum
from importlib.resources import files
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable, Optional

from defsim import cli, runner
from defsim.scenario import ScenarioConfig, load_scenario

# the stories shipped in the package, one JSON file each
BUNDLED = tuple(sorted(path.stem for path in
                       Path(str(files("defsim") / "scenarios")).glob("*.json")))
# the test suite's one input whose agent restores a snapshot
RISK_LOOP = Path(__file__).resolve().parent.parent / "tests" / "data" / "risk_loop.json"
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


def read_every_artifact(configs: list[ScenarioConfig], seeds: list[int], out: Path) -> None:
    """Run each config, agent on and off, then write, replay and explain the episode."""
    for config, seed, agent_enabled in itertools.product(configs, seeds, (True, False)):
        result = runner.run_episode(config, seed, agent_enabled)
        runner.write_trace(result, out / "trace.jsonl")
        runner.write_result(result, out / "result.json")
        runner.replay(out / "trace.jsonl")
        decision_log = json.loads((out / "result.json").read_text())["decision_log"]
        for index in range(len(decision_log)):
            runner.explain(decision_log, index)


def unread_fields(seeds: list[int]) -> list[str]:
    """`module.py: Class.field` of each field that no input reads through an
    instance of the field's class."""
    classes = [cls for name in MODULES
               for cls in vars(importlib.import_module(f"defsim.{name}")).values()
               if isinstance(cls, type) and cls.__module__ == f"defsim.{name}"
               and not issubclass(cls, Enum)]  # an enum member holds no field
    reads: set[tuple[type, str]] = set()
    writes: set[tuple[type, str]] = set()

    def probes(cls: type) -> dict[str, Callable[..., Any]]:
        get, put = cls.__getattribute__, cls.__setattr__

        def __getattribute__(self: Any, name: str) -> Any:
            reads.add((type(self), name))
            return get(self, name)

        def __setattr__(self: Any, name: str, value: Any) -> None:
            writes.add((type(self), name))
            put(self, name, value)
        # a dataclass declares its fields, and a frozen one sets them past __setattr__
        if dataclasses.is_dataclass(cls):
            return {"__getattribute__": __getattribute__}
        return {"__getattribute__": __getattribute__, "__setattr__": __setattr__}

    # no class of the package defines either method itself but the frozen
    # dataclasses their __setattr__, which stays, so deleting a probe restores it
    installed = {cls: probes(cls) for cls in classes}
    for cls, methods in installed.items():
        for name, method in methods.items():
            setattr(cls, name, method)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = [str(files("defsim") / "scenarios" / f"{name}.json") for name in BUNDLED]
            configs = [load_scenario(path) for path in [*paths, str(RISK_LOOP)]]
            read_every_artifact(configs, seeds, Path(tmp))
    finally:
        for cls, methods in installed.items():
            for name in methods:
                delattr(cls, name)
    fields = writes | {(cls, f.name) for cls in classes if dataclasses.is_dataclass(cls)
                       for f in dataclasses.fields(cls)}
    return sorted(f"{cls.__module__.split('.')[-1]}.py: {cls.__name__}.{name}"
                  for cls, name in fields
                  if not any(read == name and issubclass(reader, cls) for reader, read in reads))


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
    parser.add_argument("--fields", action="store_true",
                        help="list the fields no input reads instead of the unreached lines")
    args = parser.parse_args(argv)
    seeds = list(range(1, args.seeds + 1))
    if args.fields:
        print(f"bundled stories and risk_loop, seeds 1-{args.seeds}: "
              "fields no input reads on their own class")
        for name in unread_fields(seeds):
            print(name)
        return 0
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
