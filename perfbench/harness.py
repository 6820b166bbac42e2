"""Closed-loop measurement and the metrics computed from it.

One round runs every op of the workload once, in a fixed order, then every
batch once; the next op starts when the previous one ends. Rounds repeat
until the measuring time is used up, so every op runs the same number of
times and the op mix is the same on every run.

Host time on a shared machine comes in slow stretches, some as long as a
whole run, in which all work on either core runs up to twice as long, so
no statistic over raw times stays steady. Each time is therefore
speed-corrected: a fixed stdlib-only reference loop is timed at most
``RECALIBRATE_S`` before every op, and the op's host time is scaled by
``REFERENCE_MS`` over the loop's time. On an unloaded host of the kind
that defined this benchmark (2 cores, CPython 3.11) the loop takes about
``REFERENCE_MS`` and the correction is close to 1; in a slow stretch the
loop and the op slow down alike. An op's time is the mean of the faster
half of its corrected repetitions: that drops the ones hit by a slowdown
that began after their probe, and with many repetitions it does not rest
on the single lowest one. The raw best host times are printed beside the
corrected metrics.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import spans as spans_mod
from .workloads import Batch, CheckFailed, Op, Prepared

MIN_ROUNDS = 2
SETUPS_PER_RUN = 3
REFERENCE_MS = 1.0
RECALIBRATE_S = 0.05

_REFERENCE_DATA = {f"k{i}": [i, i * 0.5, f"v{i}", {"x": i}] for i in range(40)}


def reference_loop() -> int:
    """Fixed work of the kinds defsim does: dict copies, JSON encoding,
    sorting, seeded random draws and small loops."""
    rng = random.Random(1)
    acc = 0
    for _ in range(20):
        d = dict(_REFERENCE_DATA)
        acc += len(json.dumps(d, sort_keys=True))
        acc += sum(1 for x in sorted(rng.random() for _ in range(40)) if x > 0.5)
        for key, value in d.items():
            if value[0] % 3 == 0:
                acc += len(key)
    return acc


class SpeedProbe:
    """The host's current speed, as the factor that scales a host time to
    the reference speed."""

    def __init__(self) -> None:
        self.factor = 1.0
        self._at = float("-inf")

    def refresh(self, force: bool = False) -> float:
        """Time the loop again if the last probe is stale; the faster of two
        runs, so that an interrupt during the probe does not skew it."""
        if force or time.perf_counter() - self._at >= RECALIBRATE_S:
            runs = []
            for _ in range(2):
                start = time.perf_counter()
                reference_loop()
                self._at = time.perf_counter()
                runs.append(self._at - start)
            self.factor = REFERENCE_MS / 1000 / min(runs)
        return self.factor


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    # speed-corrected and raw host seconds of every successful repetition
    op_samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    op_raw: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    batch_samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    batch_episodes: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def op_ms(self) -> list[float]:
        """Each distinct op's corrected time, in ms, sorted."""
        return sorted(faster_half_mean(v) * 1000 for v in self.op_samples.values())


def _attempt(item: Op | Batch, m: Measurement,
             recorder: Optional[spans_mod.SpanRecorder], root: str) -> Optional[float]:
    """Run one op or batch and return its host seconds; a raised error or a
    failed check counts as a failed op and the run goes on."""
    m.attempted += 1
    index = None
    if recorder is not None:
        recorder.op = f"{m.rounds}:{item.key}"
        index = recorder.begin(root)
    start = time.perf_counter()
    try:
        output = item.run()
    except Exception:  # the loop must survive any op failure; it is reported
        elapsed = None
        m.failed += 1
        m.failures.append(f"{item.key}: {traceback.format_exc(limit=3)}")
    else:
        elapsed = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.end(index)
            recorder.op = None
    if elapsed is None:
        return None
    try:
        item.check(output)
    except CheckFailed as exc:
        m.failed += 1
        m.failures.append(str(exc))
        return None
    except Exception as exc:  # a check that cannot even run fails its op
        m.failed += 1
        m.failures.append(f"{item.key}: check raised {exc!r}")
        return None
    return elapsed


def measure(prepared: Prepared, seconds: float,
            recorder: Optional[spans_mod.SpanRecorder] = None,
            between_rounds: Callable[[float], None] = lambda elapsed: None,
            after_op: Callable[[], None] = lambda: None,
            probe: Optional[SpeedProbe] = None) -> Measurement:
    """Whole rounds until ``seconds`` of op and batch host time have passed."""
    probe = probe or SpeedProbe()
    m = Measurement()
    elapsed = 0.0
    while m.rounds < MIN_ROUNDS or elapsed < seconds:
        for op in prepared.ops:
            factor = probe.refresh()
            t = _attempt(op, m, recorder, "op")
            after_op()
            if t is not None:
                elapsed += t
                m.op_samples[op.key].append(t * factor)
                m.op_raw[op.key].append(t)
        for batch in prepared.batches:
            # a batch lasts up to a second, so probe on both sides of it
            factor = probe.refresh(force=True)
            t = _attempt(batch, m, recorder, "batch")
            factor = (factor + probe.refresh(force=True)) / 2
            after_op()
            if t is not None:
                elapsed += t
                m.batch_samples[batch.key].append(t * factor)
                m.batch_episodes[batch.key] = batch.episodes
        m.rounds += 1
        between_rounds(elapsed)
    return m


def faster_half_mean(samples: list[float]) -> float:
    """Mean of the ceil(n/2) smallest samples: the minimum of two, the
    mean of the best five of ten."""
    fastest = sorted(samples)[:(len(samples) + 1) // 2]
    return sum(fastest) / len(fastest)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(values, n=100)``."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(m: Measurement, setup_times: list[float]) -> dict[str, float]:
    """The user-facing metrics, from speed-corrected times."""
    op_ms = m.op_ms()
    batch_s = sum(faster_half_mean(v) for v in m.batch_samples.values())
    return {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": quantile(op_ms, 90),
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1000),
        "batch_episodes_per_s": sum(m.batch_episodes.values()) / batch_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def samples_above(values: list[float], q: int) -> int:
    threshold = quantile(values, q)
    return sum(1 for v in values if v > threshold)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def per_layer(totals: dict[str, list[float]], setup_totals: dict[str, list[float]],
              ops: int, counts: dict[str, float],
              untraced_p50_ms: float, traced_p50_ms: float) -> dict[str, float]:
    """Per-op calls and self ms of every wrapped function, the runner
    residual, per-op counts and the tracing overhead.

    ``totals`` folds the spans under the traced run's op and batch roots
    and is divided by its ops, so each round's batches count as part of
    its ops' work. ``scenario.parse_scenario`` runs only in set-up and is
    reported for the one traced set-up, from ``setup_totals``.
    """
    out: dict[str, float] = {}
    for name in spans_mod.SPAN_NAMES:
        if name == "scenario.parse_scenario":
            calls, self_s, _ = setup_totals.get(name, (0, 0.0, 0.0))
            per = 1
        else:
            calls, self_s, _ = totals.get(name, (0, 0.0, 0.0))
            per = ops
        out[f"{name}.calls"] = calls / per
        out[f"{name}.self_ms"] = self_s * 1000 / per
    out["runner.self_ms"] = out["runner.run_episode.self_ms"] + out["runner.run_batch.self_ms"]
    for name in spans_mod.COUNTERS:
        out[name] = counts.get(name, 0.0) / ops
    roots = [totals.get(root, (0, 0.0, 0.0)) for root in ("op", "batch")]
    out["tracing.unattributed_share"] = sum(r[1] for r in roots) / sum(r[2] for r in roots)
    out["tracing.op_ms_p50_untraced"] = untraced_p50_ms
    out["tracing.op_ms_p50_traced"] = traced_p50_ms
    out["tracing.overhead"] = traced_p50_ms / untraced_p50_ms - 1.0
    return out


def log(message: str) -> None:
    print(message, file=sys.stdout, flush=True)
