"""Reproduce the baseline table of ROADMAP.md with this benchmark's code.

    python3 perfbench/reconcile.py

For each bundled scenario and episode seeds 1-20 it prints events and
decisions per episode, which must match the table exactly, and host ms
per episode with the agent on and off: the mean over seeds of each seed's
best of ``REPEATS`` runs, raw and speed-corrected as in the benchmark.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 21)
REPEATS = 3


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from defsim import runner
    from perfbench import harness, workloads

    probe = harness.SpeedProbe()
    print("| scenario | agent-on ms/episode (raw, corrected) | agent-off ms/episode "
          "(raw, corrected) | events/episode | decisions/episode |")
    print("| --- | --- | --- | --- | --- |")
    for name, config in workloads.load_bundled(ROOT / "src"):
        ms: dict[bool, list[tuple[float, float]]] = {True: [], False: []}
        events, decisions = [], []
        for agent in (True, False):
            for seed in SEEDS:
                best = None
                for _ in range(REPEATS):
                    factor = probe.refresh(force=True)
                    start = time.perf_counter()
                    result = runner.run_episode(config, seed, agent_enabled=agent)
                    elapsed = time.perf_counter() - start
                    if best is None or elapsed < best[0]:
                        best = (elapsed, elapsed * factor)
                ms[agent].append(best)
                if agent:
                    events.append(len(result.trace))
                    decisions.append(len(result.decision_log))

        def cell(rows: list[tuple[float, float]]) -> str:
            return (f"{statistics.mean(r[0] for r in rows) * 1000:.1f}, "
                    f"{statistics.mean(r[1] for r in rows) * 1000:.1f}")

        print(f"| {name} | {cell(ms[True])} | {cell(ms[False])} | "
              f"{statistics.mean(events):.2f} | {statistics.mean(decisions):.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
