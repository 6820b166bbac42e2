import importlib.util
import sys
from pathlib import Path

import defsim
from defsim.runner import Episode, EpisodeResult

from test_imports import KEPT_FIELDS

_spec = importlib.util.spec_from_file_location(
    "scenario_coverage",
    Path(__file__).resolve().parent.parent / "scripts" / "scenario_coverage.py")
COVERAGE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(COVERAGE)


def test_scenario_coverage_counts_one_seed_and_restores_the_trace_function(capsys):
    def outer_tracer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer_tracer)
    try:
        assert COVERAGE.main(["--seeds", "1"]) == 0
        assert sys.gettrace() is outer_tracer
    finally:
        sys.settrace(previous)
    table = [line.strip("| ").split(" | ") for line in capsys.readouterr().out.splitlines()
             if line.startswith("|")]
    rows = table[2:]  # after the header and its rule
    modules = sorted(path.name for path in Path(defsim.__file__).parent.glob("*.py"))
    assert [row[0] for row in rows] == [*modules, "total"]
    counts = [(int(row[1]), int(row[2])) for row in rows]
    for body, unreached in counts:
        assert 0 <= unreached <= body
    assert counts[-1] == tuple(map(sum, zip(*counts[:-1])))
    # a story runs the episode loop, so most of the runner is reached
    runner_body, runner_unreached = counts[modules.index("runner.py")]
    assert runner_unreached < runner_body / 2


def test_every_field_is_read_on_its_own_class_but_the_kept_ones(capsys):
    # seed 1 alone reaches no replication and no fast-path decision, so
    # seed 2 runs too
    assert COVERAGE.main(["--seeds", "2", "--fields"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == sorted(KEPT_FIELDS)
    # and the classes are as they were
    assert not {"__getattribute__", "__setattr__"} & (vars(Episode).keys()
                                                      | vars(EpisodeResult).keys())
