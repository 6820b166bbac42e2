import importlib.util
from pathlib import Path

from defsim import planning, runner, sensing

from conftest import BUNDLED

_spec = importlib.util.spec_from_file_location(
    "memo_probe", Path(__file__).resolve().parent.parent / "scripts" / "memo_probe.py")
PROBE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(PROBE)


def test_memo_probe_counts_one_seed_and_restores_what_it_wraps(capsys):
    def wrappable():
        return (planning.Deliberations.key, planning.propose_plans, sensing.sense,
                sensing._by_kind, runner.Episode.run)
    wrapped = wrappable()
    assert PROBE.main(["--seeds", "1"]) == 0
    assert wrappable() == wrapped
    table = [line.strip("| ").split(" | ") for line in capsys.readouterr().out.splitlines()
             if line.startswith("|")]
    rows = table[2:]  # after the header and its rule
    assert [(row[0], row[1]) for row in rows] == [
        (name, run) for name in (*BUNDLED, "wide_repertoire") for run in ("lone", "batch")]
    for row in rows:
        decisions, deliberative, keys, searches, distinct, reads, derivations = (
            float(n) for n in row[2:9])
        # a deliberation keeps its agent's last decision, finds a body its
        # bucket holds or searches, and one search finds each distinct body at least
        assert decisions >= deliberative >= keys >= searches >= distinct > 0
        # a pass that reuses its reads derives nothing, and the first pass derives
        assert reads >= derivations > 0
    # with one seed, the batch is the lone episode
    bundled = rows[:2 * len(BUNDLED)]
    assert [row[2:] for row in bundled[0::2]] == [row[2:] for row in bundled[1::2]]


def test_memo_probe_runs_the_wide_repertoire_workload_of_the_benchmark(tmp_path):
    configs, seeds = PROBE.wide_repertoire()
    prepared = PROBE.workloads.setup_wide_repertoire(
        PROBE.WIDE_SEED, Path(__file__).resolve().parent.parent / "src", tmp_path)
    assert {c.name: PROBE.generator.scenario_sha256(c.raw) for c in configs} == prepared.fingerprint
    assert [op.key for op in prepared.ops] == [f"{c.name}/{s}" for c in configs for s in seeds]
