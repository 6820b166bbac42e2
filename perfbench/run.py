"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bundled_run --seed 1 --seconds 5 --trace 0

Run it from the repository root; it imports defsim from ``src/`` of the
same checkout and writes its artifacts under ``perfbench/_out/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
The lines before it name the inputs (scenario sha256s) and the output
digest, which must not change under a speed-only change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "batch_episodes_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.startswith("tracing.op_ms"):
        return "ms"
    if name == "runner.trace_bytes":
        return "bytes"
    if name in ("tracing.overhead", "tracing.unattributed_share"):
        return "ratio"
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bundled_run", "wide_repertoire", "artifact_reads"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def traced(args: argparse.Namespace, prepared, setup, check_setup, probe, out_dir: Path):
    """The per-layer metrics: the workload untraced for half the time, for
    the tracing overhead; a set-up with ``parse_scenario`` wrapped; then the
    workload with every target wrapped for the other half."""
    from perfbench import harness, spans

    untraced = harness.measure(prepared, args.seconds / 2, probe=probe)
    recorder = spans.SpanRecorder()
    setup_totals: dict[str, list[float]] = {}
    uninstall = spans.install(recorder, {"scenario.parse_scenario"})
    recorder.op = "setup"
    try:
        root = recorder.begin("setup")
        check_setup(setup())
        recorder.end(root)
    finally:
        uninstall()
    spans.fold_self_times(recorder.spans, setup_totals)
    recorder.spans.clear()

    totals: dict[str, list[float]] = {}
    counts: dict[str, float] = defaultdict(float)
    # raw spans of the first traced op of each scenario, written at the end
    kept_ops = {f"0:{op.key}" for op in prepared.warmup}
    kept: list[list] = []

    def fold_round(elapsed: float) -> None:
        kept.extend([index, *span] for index, span in enumerate(recorder.spans)
                    if span[4] in kept_ops)
        spans.fold_self_times(recorder.spans, totals)
        recorder.spans.clear()

    uninstall = spans.install(recorder)
    try:
        m = harness.measure(prepared, args.seconds / 2, recorder=recorder,
                            between_rounds=fold_round,
                            after_op=lambda: spans.drain_counts(recorder, counts),
                            probe=probe)
    finally:
        uninstall()
    metrics = harness.per_layer(
        totals, setup_totals, m.rounds * len(prepared.ops), counts,
        harness.statistics.median(untraced.op_ms()),
        harness.statistics.median(m.op_ms()))
    spans_path = out_dir / f"{args.workload}.spans.tsv"
    with open(spans_path, "w") as fh:
        fh.write("id\tparent\top\tname\tstart_us\tend_us\n")
        for index, name, start, end, parent, op in kept:
            fh.write(f"{index}\t{'' if parent is None else parent}\t{op}\t{name}\t"
                     f"{start * 1e6:.1f}\t{end * 1e6:.1f}\n")
    harness.log(f"traced rounds {m.rounds}; untraced rounds {untraced.rounds}; "
                f"spans of {len(kept_ops)} op(s) in {spans_path.relative_to(ROOT)}")
    m.attempted += untraced.attempted
    m.failed += untraced.failed
    m.failures += untraced.failures
    return m, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "defsim" / "__init__.py").is_file():
        print(f"error: no defsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import defsim
    if Path(defsim.__file__).resolve().parent != SRC / "defsim":
        print(f"error: imported defsim from {defsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness, spans, workloads

    setup = workloads.SETUPS[args.workload]
    out_dir = ROOT / "perfbench" / "_out" / args.workload
    problems: list[str] = []
    setup_times: list[float] = []

    probe = harness.SpeedProbe()

    def corrected(step):
        """Run ``step``; its result and its speed-corrected seconds, scaled by
        the mean of the probes taken right before and right after it."""
        before = probe.refresh(force=True)
        start = time.perf_counter()
        out = step()
        elapsed = time.perf_counter() - start
        return out, elapsed * (before + probe.refresh(force=True)) / 2

    def timed_setup():
        prepared, seconds = corrected(lambda: setup(args.seed, SRC, out_dir))
        for op in prepared.warmup:
            seconds += corrected(op.run)[1]
        setup_times.append(seconds)
        return prepared

    prepared = timed_setup()

    def check_setup(again) -> None:
        if again.fingerprint != prepared.fingerprint:
            problems.append("set-up is not deterministic: "
                            f"{again.fingerprint} != {prepared.fingerprint}")

    harness.log(f"workload {args.workload} seed {args.seed}")
    for name, digest in sorted(prepared.fingerprint.items()):
        harness.log(f"input {name} sha256 {digest}")

    if args.trace == 0:
        def between_rounds(elapsed: float) -> None:
            # spread the set-up repetitions over the run so that a slow
            # stretch of the machine does not hit all of them
            if (len(setup_times) < harness.SETUPS_PER_RUN
                    and elapsed >= args.seconds * len(setup_times) / harness.SETUPS_PER_RUN):
                check_setup(timed_setup())

        m = harness.measure(prepared, args.seconds, between_rounds=between_rounds, probe=probe)
        while len(setup_times) < harness.SETUPS_PER_RUN:
            check_setup(timed_setup())
        metrics = harness.end_to_end(m, setup_times)
        units = END_TO_END_UNITS
        op_ms = m.op_ms()
        raw_best_ms = [min(v) * 1000 for v in m.op_raw.values()]
        harness.log(f"rounds {m.rounds}; op samples {len(op_ms)} (faster half of {m.rounds} "
                    f"repetitions each), {harness.samples_above(op_ms, 90)} above p90; "
                    f"raw best host ms p50 {harness.statistics.median(raw_best_ms):.3f}; "
                    f"corrected set-ups {', '.join(f'{t:.3f}' for t in setup_times)} s")
    else:
        m, metrics = traced(args, prepared, lambda: setup(args.seed, SRC, out_dir),
                            check_setup, probe, out_dir.parent)
        units = {name: per_layer_unit(name) for name in metrics}

    harness.log(f"output sha256 {prepared.output_digest()}")
    for failure in m.failures[:20] + problems:
        harness.log(f"FAILED {failure}")
    print(json.dumps({
        "correct": m.failed == 0 and not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
