import importlib.util
from pathlib import Path

from defsim import planning, runner

from conftest import BUNDLED

_spec = importlib.util.spec_from_file_location(
    "memo_probe", Path(__file__).resolve().parent.parent / "scripts" / "memo_probe.py")
PROBE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(PROBE)


def test_memo_probe_counts_one_seed_and_restores_what_it_wraps(capsys):
    wrapped = planning.propose_plans, planning.danger_intervals, runner.Episode.run
    assert PROBE.main(["--seeds", "1"]) == 0
    assert (planning.propose_plans, planning.danger_intervals, runner.Episode.run) == wrapped
    table = [line.strip("| ").split(" | ") for line in capsys.readouterr().out.splitlines()
             if line.startswith("|")]
    rows = table[2:]  # after the header and its rule
    assert [(row[0], row[1]) for row in rows] == [
        (name, run) for name in BUNDLED for run in ("lone", "batch")]
    for row in rows:
        decisions, deliberative, searches, tables, distinct = (float(n) for n in row[2:7])
        assert decisions >= deliberative >= searches >= distinct > 0
        # a new progression is a new memo key, so each table build precedes a search
        assert searches >= tables > 0
    # with one seed, the batch is the lone episode
    assert [row[2:] for row in rows[0::2]] == [row[2:] for row in rows[1::2]]
