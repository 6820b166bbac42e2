"""Count how often the deliberation memo saves a search.

Run from the repository root:

    PYTHONPATH=src python3 scripts/memo_probe.py [--seeds N]

For each bundled scenario it runs seeds 1..N (default 20) as lone
episodes, then as one run_batch, whose episodes share one memo. Then it
runs the `wide_repertoire` benchmark workload of workload seed 7, as
perfbench/workloads.py draws it: its 12 generated scenarios times the
first N of its 9 episode seeds as lone episodes, then each scenario's
seeds as one run_batch. It prints one row for each: decisions (all, and
deliberative), key derivations (calls of planning.Deliberations.key, one
per deliberation an agent could not take over from its last decision),
searches (calls of planning.propose_plans) and distinct bodies (distinct
encoded bodies of the deliberative decisions). A lone row gives the mean
per episode, a batch row the total of its batches. Searches above
distinct bodies are searches whose result an earlier one had already
given.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import contextmanager
from importlib.resources import files
from pathlib import Path
from typing import Any, Iterator, Optional

from defsim import planning, runner
from defsim.errors import canonical_json
from defsim.scenario import ScenarioConfig, load_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import generator, workloads  # noqa: E402  (read only: the benchmark's inputs)

# the stories shipped in the package, one JSON file each
BUNDLED = tuple(sorted(path.stem for path in
                       Path(str(files("defsim") / "scenarios")).glob("*.json")))
WIDE_SEED = 7  # the wide_repertoire workload seed
COLUMNS = ("decisions", "deliberative", "key derivations", "searches", "distinct bodies")
# what each counted column counts: (owner, attribute)
COUNTED = ((planning.Deliberations, "key"), (planning, "propose_plans"))


@contextmanager
def counting() -> Iterator[tuple[dict[str, int], list[runner.EpisodeResult]]]:
    """The calls of each COUNTED function and the results of every
    Episode.run, while open."""
    calls, results = {name: 0 for _, name in COUNTED}, []
    wrapped = [(owner, name, getattr(owner, name)) for owner, name in COUNTED]
    run = runner.Episode.run

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    def recorded_run(self):
        results.append(run(self))
        return results[-1]

    for owner, name, function in wrapped:
        setattr(owner, name, counted(name, function))
    runner.Episode.run = recorded_run
    try:
        yield calls, results
    finally:
        for owner, name, function in wrapped:
            setattr(owner, name, function)
        runner.Episode.run = run


def bodies(result: runner.EpisodeResult) -> list[str]:
    return [canonical_json({k: d[k] for k in ("candidates", "chosen", "rationale")})
            for d in result.decision_log if d["path"] == "deliberative"]


def counts(results: list[runner.EpisodeResult], calls: dict[str, int],
           distinct: int) -> tuple[int, ...]:
    return (sum(len(r.decision_log) for r in results), sum(len(bodies(r)) for r in results),
            *(calls[name] for _, name in COUNTED), distinct)


def probe(name: str, configs: list[ScenarioConfig],
          seeds: list[int]) -> list[tuple[str, str, tuple[float, ...]]]:
    """The lone row (mean per episode) and the batch row (total of one
    batch per config) of every config run on every seed."""
    lone, batch = [0] * len(COLUMNS), [0] * len(COLUMNS)
    for config in configs:
        for seed in seeds:
            with counting() as (calls, results):
                runner.run_episode(config, seed)
            for i, n in enumerate(counts(results, calls, len(set(bodies(results[0]))))):
                lone[i] += n
        with counting() as (calls, results):
            runner.run_batch(config, seeds)
        distinct = len({body for result in results for body in bodies(result)})
        for i, n in enumerate(counts(results, calls, distinct)):
            batch[i] += n
    episodes = len(configs) * len(seeds)
    return [(name, "lone", tuple(n / episodes for n in lone)), (name, "batch", tuple(batch))]


def wide_repertoire() -> tuple[list[ScenarioConfig], list[int]]:
    """The generated scenarios and episode seeds of perfbench's
    `wide_repertoire` workload at WIDE_SEED, drawn as its set-up draws them."""
    src = Path(__file__).resolve().parent.parent / "src"
    base: dict[str, Any] = load_scenario(generator.base_path(src)).raw
    scenario_seeds = random.Random(f"wide-scenarios:{WIDE_SEED}").sample(
        range(1, 1_000_000), workloads.WIDE_SCENARIOS)
    configs = [config for config, _ in generator.generate_configs(base, scenario_seeds)]
    return configs, workloads.episode_seeds(WIDE_SEED, workloads.WIDE_SEEDS)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20,
                        help="run seeds 1..N, and the first N wide_repertoire seeds")
    args = parser.parse_args(argv)
    seeds = list(range(1, args.seeds + 1))
    configs, wide_seeds = wide_repertoire()
    print(f"bundled: seeds 1-{args.seeds}; wide_repertoire: workload seed {WIDE_SEED}, "
          f"its first {min(args.seeds, len(wide_seeds))} episode seeds; "
          "lone: mean per episode, batch: total of the batches")
    print("| scenario | run | " + " | ".join(COLUMNS) + " |")
    print("| --- | --- |" + " --- |" * len(COLUMNS))
    rows = [row for name in BUNDLED for row in probe(
        name, [load_scenario(str(files("defsim") / "scenarios" / f"{name}.json"))], seeds)]
    rows += probe("wide_repertoire", configs, wide_seeds[:args.seeds])
    for scenario, run, row in rows:
        print(f"| {scenario} | {run} | " + " | ".join(f"{n:g}" for n in row) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
