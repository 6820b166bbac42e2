"""The benchmark's three workloads: their inputs, ops, batches and checks.

The workload seed picks the episode seeds and drives the scenario
generator; defsim itself only sees the resulting scenarios and seeds.
Every call into defsim goes through its public entry points, looked up on
their modules at call time so that the traced run's wrappers see them.

Why each workload exists:

- ``bundled_run``: the ``defsim run`` path on the three bundled scenarios,
  the real user traffic, where sensing, trace writing, collaboration and
  per-tick runner work all carry weight.
- ``wide_repertoire``: the same op on generated scenarios with a wide
  repertoire and planner depth 3; it isolates the planner.
- ``artifact_reads``: ``replay`` and ``explain`` over artifacts written at
  set-up, the read side of the artifact layer; planning and sensing do no
  work in it.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from defsim import runner, scenario

from . import generator

BUNDLED = ("s1_comms_spoof", "s2_lateral_hunt", "s3_partition")
# 3 scenarios x 80 seeds = 240 distinct ops. The median op is an s2 op,
# whose cost depends on when the agent dies; this many seeds keep the
# median steady across workload seeds (34 seeds let it move by 17 %).
BUNDLED_SEEDS = 80
# Seeds per scenario that also go through run_batch each round, in
# calls of BATCH_SEEDS seeds; shorter calls are timed more exactly.
BUNDLED_BATCH_SEEDS = 40
BATCH_SEEDS = 10
# Artifacts per scenario: 120 ops, 12 of them above op_ms_p90. Their
# set-up runs every episode, three times per run, so it is kept smaller
# than bundled_run's block.
ARTIFACT_SEEDS = 40
WIDE_SCENARIOS = 12
WIDE_SEEDS = 9
WIDE_BATCH_SCENARIOS = 6


class CheckFailed(Exception):
    """An op's output differs from what it must be."""


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Batch:
    key: str
    episodes: int
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Prepared:
    """What one set-up produces. ``fingerprint`` must be the same for every
    set-up of a run: it holds the sha256 of each input and artifact."""

    ops: list[Op]
    batches: list[Batch]
    warmup: list[Op]
    fingerprint: dict[str, str] = field(default_factory=dict)
    # sha256 of each op's trace bytes: from set-up for artifact_reads, from
    # the first checked repetition of each op for the other workloads
    trace_digests: dict[str, str] = field(default_factory=dict)

    def output_digest(self) -> str:
        """One sha256 over every op's trace digest, in op order."""
        h = hashlib.sha256()
        for op in self.ops:
            h.update(self.trace_digests.get(op.key, "-").encode())
        return h.hexdigest()


def episode_seeds(seed: int, count: int) -> list[int]:
    """Distinct episode seeds drawn from the workload seed."""
    return random.Random(f"episode-seeds:{seed}").sample(range(1, 1_000_000), count)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_op(config: Any, seed: int, out: Path) -> dict[str, Any]:
    """The ``defsim run`` path: one episode, then its trace and result."""
    result = runner.run_episode(config, seed)
    runner.write_trace(result, out / "trace.jsonl")
    runner.write_result(result, out / "result.json")
    return result.metrics


def _episode_ops(configs: list[tuple[str, Any]], seeds: list[int], out_dir: Path,
                 prepared: Prepared, expected: dict[tuple[str, int], dict[str, Any]]) -> list[Op]:
    """One op per (scenario, seed); the ops of a scenario write into one
    directory, as repeated ``defsim run --out`` calls would.

    The first repetition of an op is checked in full; every later one must
    write the same bytes and return the same metrics as that verified one.
    """
    result_digests: dict[str, str] = {}
    ops = []
    for name, config in configs:
        out = out_dir / name
        out.mkdir(parents=True, exist_ok=True)
        trace, result = out / "trace.jsonl", out / "result.json"
        for seed in seeds:
            key = f"{name}/{seed}"

            def check(metrics: dict[str, Any], key: str = key, name: str = name,
                      seed: int = seed, trace: Path = trace, result: Path = result) -> None:
                digests = (_sha256(trace), _sha256(result))
                if key in result_digests:
                    if (digests != (prepared.trace_digests[key], result_digests[key])
                            or metrics != expected[(name, seed)]):
                        raise CheckFailed(f"{key}: output differs from its first repetition")
                    return
                replayed = runner.replay(trace)
                if replayed != metrics:
                    raise CheckFailed(f"{key}: replay {replayed} != result {metrics}")
                if json.loads(result.read_text())["metrics"] != metrics:
                    raise CheckFailed(f"{key}: result.json metrics differ from the run")
                prepared.trace_digests[key], result_digests[key] = digests
                expected[(name, seed)] = metrics

            ops.append(Op(key, lambda c=config, s=seed, o=out: _run_op(c, s, o), check))
    return ops


def _batch(name: str, config: Any, seeds: list[int],
           expected: dict[tuple[str, int], dict[str, Any]]) -> Batch:
    def check(batch: dict[str, Any]) -> None:
        for seed in seeds:
            single = expected.get((name, seed))
            if single is None:
                raise CheckFailed(f"batch {name}: no single-episode result for seed {seed}")
            if batch["per_seed"][str(seed)] != single:
                raise CheckFailed(f"batch {name}: seed {seed} metrics differ from run_episode")
    return Batch(f"batch:{name}/{seeds[0]}", len(seeds),
                 lambda: runner.run_batch(config, seeds), check)


def load_bundled(src: Path) -> list[tuple[str, Any]]:
    return [(name, scenario.load_scenario(src / "defsim" / "scenarios" / f"{name}.json"))
            for name in BUNDLED]


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_bundled_run(seed: int, src: Path, out_dir: Path) -> Prepared:
    configs = load_bundled(src)
    seeds = episode_seeds(seed, BUNDLED_SEEDS)
    prepared = Prepared(ops=[], batches=[], warmup=[])
    expected: dict[tuple[str, int], dict[str, Any]] = {}
    prepared.ops = _episode_ops(configs, seeds, _fresh_dir(out_dir), prepared, expected)
    prepared.batches = [_batch(name, config, seeds[i:i + BATCH_SEEDS], expected)
                        for name, config in configs
                        for i in range(0, BUNDLED_BATCH_SEEDS, BATCH_SEEDS)]
    prepared.warmup = [prepared.ops[i * BUNDLED_SEEDS] for i in range(len(configs))]
    prepared.fingerprint = {name: generator.scenario_sha256(config.raw)
                             for name, config in configs}
    return prepared


def setup_wide_repertoire(seed: int, src: Path, out_dir: Path) -> Prepared:
    base = scenario.load_scenario(generator.base_path(src)).raw
    scenario_seeds = random.Random(f"wide-scenarios:{seed}").sample(
        range(1, 1_000_000), WIDE_SCENARIOS)
    generated = generator.generate_configs(base, scenario_seeds)
    configs = [(config.name, config) for config, _ in generated]
    seeds = episode_seeds(seed, WIDE_SEEDS)
    prepared = Prepared(ops=[], batches=[], warmup=[])
    expected: dict[tuple[str, int], dict[str, Any]] = {}
    prepared.ops = _episode_ops(configs, seeds, _fresh_dir(out_dir), prepared, expected)
    prepared.batches = [_batch(name, config, seeds, expected)
                        for name, config in configs[:WIDE_BATCH_SCENARIOS]]
    prepared.warmup = [prepared.ops[0]]
    prepared.fingerprint = {config.name: digest for config, digest in generated}
    return prepared


def read_result(path: Path) -> dict[str, Any]:
    """A result file parsed the way ``defsim explain`` parses it."""
    return json.loads(path.read_text())


def _read_op(trace: Path, result: Path) -> tuple[dict[str, Any], str]:
    """What ``defsim replay`` and ``defsim explain`` do for one episode:
    recompute the metrics, then render every logged decision."""
    metrics = runner.replay(trace)
    log = read_result(result).get("decision_log", [])
    text = "\n".join(runner.explain(log, i) for i in range(len(log)))
    return metrics, text


def _read_batch(traces: list[Path]) -> list[dict[str, Any]]:
    """A batch's metrics recomputed from its traces alone."""
    return [runner.replay(trace) for trace in traces]


def setup_artifact_reads(seed: int, src: Path, out_dir: Path) -> Prepared:
    configs = load_bundled(src)
    seeds = episode_seeds(seed, ARTIFACT_SEEDS)
    out_dir = _fresh_dir(out_dir)
    prepared = Prepared(ops=[], batches=[], warmup=[])
    for name, config in configs:
        traces, metrics_block = [], []
        for episode_seed in seeds:
            key = f"{name}/{episode_seed}"
            out = out_dir / name / str(episode_seed)
            out.mkdir(parents=True)
            result = runner.run_episode(config, episode_seed)
            runner.write_trace(result, out / "trace.jsonl")
            runner.write_result(result, out / "result.json")
            expected_text = "\n".join(runner.explain(result.decision_log, i)
                                      for i in range(len(result.decision_log)))
            prepared.trace_digests[key] = _sha256(out / "trace.jsonl")
            traces.append(out / "trace.jsonl")
            metrics_block.append(result.metrics)

            def check(output: tuple[dict[str, Any], str], key: str = key,
                      metrics: dict[str, Any] = result.metrics, text: str = expected_text) -> None:
                if output[0] != metrics:
                    raise CheckFailed(f"{key}: replay {output[0]} != result {metrics}")
                if output[1] != text:
                    raise CheckFailed(f"{key}: explain output differs from the in-memory log")

            prepared.ops.append(Op(key, lambda t=out / "trace.jsonl", r=out / "result.json":
                                   _read_op(t, r), check))

        for i in range(0, ARTIFACT_SEEDS, BATCH_SEEDS):
            chunk, block = traces[i:i + BATCH_SEEDS], metrics_block[i:i + BATCH_SEEDS]

            def batch_check(replayed: list[dict[str, Any]], key: str = f"{name}/{seeds[i]}",
                            block: list[dict[str, Any]] = block) -> None:
                if replayed != block:
                    raise CheckFailed(f"batch {key}: replayed metrics differ from the runs")

            prepared.batches.append(Batch(f"batch:{name}/{seeds[i]}", len(chunk),
                                          lambda t=chunk: _read_batch(t), batch_check))
    prepared.warmup = [prepared.ops[i * ARTIFACT_SEEDS] for i in range(len(configs))]
    prepared.fingerprint = {name: generator.scenario_sha256(config.raw)
                             for name, config in configs}
    prepared.fingerprint["artifacts"] = prepared.output_digest()
    return prepared


SETUPS: dict[str, Callable[[int, Path, Path], Prepared]] = {
    "bundled_run": setup_bundled_run,
    "wide_repertoire": setup_wide_repertoire,
    "artifact_reads": setup_artifact_reads,
}
