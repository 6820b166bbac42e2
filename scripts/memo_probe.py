"""Count how often the deliberation memo saves a search.

Run from the repository root:

    PYTHONPATH=src python3 scripts/memo_probe.py [--seeds N]

For each bundled scenario it runs seeds 1..N (default 20) as lone
episodes, then as one run_batch, whose episodes share one memo. It prints
one row for each: decisions (all, and deliberative), searches (calls of
planning.propose_plans), cell tables (calls of planning.danger_intervals,
which the memo makes once per distinct threat progression) and distinct
bodies (distinct encoded bodies of the deliberative decisions). A lone row
gives the mean per episode, a batch row the total of the batch. Searches
above distinct bodies are searches whose result an earlier one had already
given.
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from importlib.resources import files
from typing import Iterator, Optional

from defsim import planning, runner
from defsim.errors import canonical_json
from defsim.scenario import load_scenario

BUNDLED = ("s1_comms_spoof", "s2_lateral_hunt", "s3_partition")
COLUMNS = ("decisions", "deliberative", "searches", "cell tables", "distinct bodies")


@contextmanager
def counting() -> Iterator[tuple[dict[str, int], list[runner.EpisodeResult]]]:
    """The calls of planning.propose_plans and planning.danger_intervals and
    the results of every Episode.run, while open."""
    calls, results = {"propose_plans": 0, "danger_intervals": 0}, []
    wrapped = {name: getattr(planning, name) for name in calls}
    run = runner.Episode.run

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped[name](*args, **kwargs)
        return call

    def recorded_run(self):
        results.append(run(self))
        return results[-1]

    for name in calls:
        setattr(planning, name, counted(name))
    runner.Episode.run = recorded_run
    try:
        yield calls, results
    finally:
        for name, function in wrapped.items():
            setattr(planning, name, function)
        runner.Episode.run = run


def bodies(result: runner.EpisodeResult) -> list[str]:
    return [canonical_json({k: d[k] for k in ("candidates", "chosen", "rationale")})
            for d in result.decision_log if d["path"] == "deliberative"]


def counts(results: list[runner.EpisodeResult], calls: dict[str, int],
           distinct: int) -> tuple[int, int, int, int, int]:
    return (sum(len(r.decision_log) for r in results), sum(len(bodies(r)) for r in results),
            calls["propose_plans"], calls["danger_intervals"], distinct)


def probe(name: str, seeds: list[int]) -> list[tuple[str, str, tuple[float, ...]]]:
    config = load_scenario(str(files("defsim") / "scenarios" / f"{name}.json"))
    lone = [0] * len(COLUMNS)
    for seed in seeds:
        with counting() as (calls, results):
            runner.run_episode(config, seed)
        for i, n in enumerate(counts(results, calls, len(set(bodies(results[0]))))):
            lone[i] += n
    with counting() as (calls, results):
        runner.run_batch(config, seeds)
    distinct = len({body for result in results for body in bodies(result)})
    return [(name, "lone", tuple(n / len(seeds) for n in lone)),
            (name, "batch", counts(results, calls, distinct))]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="run seeds 1..N")
    args = parser.parse_args(argv)
    seeds = list(range(1, args.seeds + 1))
    print(f"seeds 1-{args.seeds}; lone: mean per episode, batch: total of the batch")
    print("| scenario | run | " + " | ".join(COLUMNS) + " |")
    print("| --- | --- |" + " --- |" * len(COLUMNS))
    for name in BUNDLED:
        for scenario, run, row in probe(name, seeds):
            print(f"| {scenario} | {run} | " + " | ".join(f"{n:g}" for n in row) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
