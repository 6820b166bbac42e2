"""Tests of the benchmark itself: generator, span arithmetic, failure
accounting and the per-op checks."""

from __future__ import annotations

from pathlib import Path

import pytest

from defsim import planning, scenario
from defsim.sensing import WorldState
from perfbench import generator, harness, spans, workloads

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def base_raw():
    return scenario.load_scenario(generator.base_path(SRC)).raw


def test_generator_is_deterministic_per_seed(base_raw):
    first = generator.generate(base_raw, 7)
    assert generator.generate(base_raw, 7) == first
    assert generator.scenario_sha256(generator.generate(base_raw, 7)) == \
        generator.scenario_sha256(first)
    assert generator.scenario_sha256(generator.generate(base_raw, 8)) != \
        generator.scenario_sha256(first)
    assert base_raw["planner"]["depth"] == 2, "the base document must not be modified"


def test_generated_scenario_has_the_wide_shape(base_raw):
    [(config, digest)] = generator.generate_configs(base_raw, [3])
    assert digest == generator.scenario_sha256(config.raw)
    assert config.build_planner_config().depth == generator.PLANNER_DEPTH
    repertoire = config.build_repertoire()
    goal_features = {p[0] for g in config.build_goals() for p in g.predicates}
    extra = [spec for aid, spec in repertoire.items() if aid.startswith("tune_")]
    assert len(extra) == generator.EXTRA_ACTIONS
    for spec in extra:
        assert len(spec.effects) == generator.EFFECTS_PER_ACTION
        for effect in spec.effects:
            assert 0.0 < effect.probability < 1.0
            assert effect.env_effect is None
            assert {d[0] for d in effect.feature_deltas} <= goal_features


def _span(name, start, end, parent, op="0:x"):
    return [name, start, end, parent, op]


def test_self_time_of_nested_spans():
    recorded = [
        _span("op", 0.0, 10.0, None),
        _span("f", 1.0, 6.0, 0),
        _span("g", 2.0, 4.0, 1),
        _span("g", 4.5, 5.0, 1),
        _span("f", 7.0, 9.0, 0),
        _span("g", 11.0, 12.0, None, op=None),  # a check between ops: no root
    ]
    totals = spans.fold_self_times(recorded)
    assert totals["op"] == [1, 3.0, 10.0]
    assert totals["f"] == [2, 4.5, 7.0]
    assert totals["g"] == [2, 2.5, 2.5]
    assert sum(entry[1] for entry in totals.values()) == totals["op"][2]
    spans.fold_self_times(recorded, totals)
    assert totals["f"] == [4, 9.0, 14.0]


def test_wrappers_record_parents_and_restore_originals():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    original = planning.score_sequence
    uninstall = spans.install(recorder, {"planning.score_sequence", "planning.predict"})
    try:
        assert planning.score_sequence is not original
        ws = WorldState()
        recorder.op = "0:x"
        root = recorder.begin("op")
        planning.score_sequence(ws, (), {}, [], planning.PlannerConfig())
        recorder.end(root)
    finally:
        uninstall()
    assert planning.score_sequence is original
    names = [(s[0], s[3]) for s in recorder.spans]
    assert names == [("op", None), ("planning.score_sequence", 0), ("planning.predict", 1)]
    counts = {"planning.outcomes": 0}
    spans.drain_counts(recorder, counts)
    assert counts["planning.outcomes"] == 1  # 2^0 outcomes for the empty plan


def test_outcome_count_switches_to_sampling():
    effect = planning.ProbabilisticEffect(None, [], 0.5)
    repertoire = {"a": planning.ActionSpec("a", planning.ActionCategory.OBSERVE,
                                           effects=[effect, effect, effect])}
    assert spans.outcomes_enumerated(["a"] * 4, repertoire) == 2 ** 12
    assert spans.outcomes_enumerated(["a"] * 5, repertoire) == planning.SAMPLE_COUNT


def test_faster_half_mean():
    assert harness.faster_half_mean([3.0, 1.0]) == 1.0
    assert harness.faster_half_mean([5.0, 1.0, 3.0]) == 2.0
    assert harness.faster_half_mean([float(i) for i in range(10, 0, -1)]) == 3.0


def _fail_check(output):
    raise workloads.CheckFailed("wrong output")


def _raise():
    raise ValueError("op crashed")


def test_failed_checks_count_as_failed_ops_and_the_run_goes_on():
    prepared = workloads.Prepared(
        ops=[workloads.Op("good", lambda: 1, lambda out: None),
             workloads.Op("bad-output", lambda: 2, _fail_check),
             workloads.Op("crash", _raise, lambda out: None)],
        batches=[workloads.Batch("batch", 3, lambda: 3, _fail_check)],
        warmup=[])
    m = harness.measure(prepared, seconds=0.0)
    assert m.rounds == harness.MIN_ROUNDS
    assert m.attempted == 4 * harness.MIN_ROUNDS
    assert m.failed == 3 * harness.MIN_ROUNDS
    assert set(m.op_samples) == {"good"}
    assert len(m.op_samples["good"]) == harness.MIN_ROUNDS
    assert not m.batch_samples
    assert any("op crashed" in f for f in m.failures)


def test_op_check_catches_a_trace_that_does_not_replay(tmp_path):
    config = scenario.load_scenario(SRC / "defsim" / "scenarios" / "s1_comms_spoof.json")
    prepared = workloads.Prepared(ops=[], batches=[], warmup=[])
    [op] = workloads._episode_ops([("s1", config)], [1], tmp_path, prepared, {})
    trace = tmp_path / "s1" / "trace.jsonl"

    def tamper():
        text = trace.read_text()
        assert '"kind":"agent.reward"' in text
        trace.write_text(text.replace('"kind":"agent.reward"', '"kind":"agent.other"', 1))

    metrics = op.run()
    tamper()
    with pytest.raises(workloads.CheckFailed, match="replay"):
        op.check(metrics)
    op.check(op.run())
    assert prepared.trace_digests
    tamper()
    with pytest.raises(workloads.CheckFailed, match="first repetition"):
        op.check(metrics)


def test_batch_check_compares_with_single_episodes():
    expected = {("s", 1): {"m": 1.0}, ("s", 2): {"m": 2.0}}
    batch = workloads._batch("s", None, [1, 2], expected)
    batch.check({"per_seed": {"1": {"m": 1.0}, "2": {"m": 2.0}}})
    with pytest.raises(workloads.CheckFailed):
        batch.check({"per_seed": {"1": {"m": 1.0}, "2": {"m": 2.5}}})
