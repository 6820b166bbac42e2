"""Time one planner search on synthetic instances.

Run from the repository root:

    PYTHONPATH=src python3 scripts/planner_probe.py [--seed N] [--repeat N]

It builds one instance per row of ROWS (repertoire size, effects per action,
search depth, beam width) from the seed and prints, for each, the best of
--repeat timed propose_plans calls in milliseconds. The same seed always
builds the same instances.

Every instance has the same shape, so rows differ only in size:

- four goal features, f0-f3, all present in the beliefs, and three goals
  over them;
- every effect moves one goal feature, with a probability in (0.2, 0.8),
  so every effect is uncertain and the outcome rows double with each one;
- no action has a precondition, so the beam always fills;
- probabilities, deltas, risks and noises are not dyadic, as in real
  scenarios, so float rounding is exercised.
"""

from __future__ import annotations

import argparse
import random
import time
from typing import Optional

from defsim.planning import (
    ActionCategory,
    ActionSpec,
    Goal,
    PlannerConfig,
    ProbabilisticEffect,
    normalize_goals,
    propose_plans,
)
from defsim.sensing import WorldState

# (repertoire, effects per action, depth, beam)
ROWS = ((6, 1, 2, 5), (12, 2, 3, 5), (12, 3, 3, 5))
FEATURES = ("f0", "f1", "f2", "f3")


def instance(seed: int, repertoire_size: int, effects_per_action: int,
             depth: int, beam: int) -> tuple[WorldState, dict[str, ActionSpec],
                                             list[Goal], PlannerConfig]:
    """The planner inputs of one row, built from `seed` alone."""
    rng = random.Random(f"planner_probe:{seed}:{repertoire_size}:{effects_per_action}")
    ws = WorldState(tick=0, features={key: round(rng.uniform(0.0, 0.5), 3) for key in FEATURES})
    repertoire = {}
    for i in range(repertoire_size):
        effects = []
        for _ in range(effects_per_action):
            key = rng.choice(FEATURES)
            delta = (key, "set", 1.0) if rng.random() < 0.25 else (
                key, "add", round(rng.uniform(0.1, 0.4), 3))
            effects.append(ProbabilisticEffect(None, [delta], round(rng.uniform(0.2, 0.8), 3)))
        repertoire[f"act_{i:02d}"] = ActionSpec(
            f"act_{i:02d}",
            rng.choice([ActionCategory.RESTORE, ActionCategory.CONTAIN, ActionCategory.CAMOUFLAGE]),
            effects=effects,
            risk=round(rng.uniform(0.0, 0.05), 3),
            noise=round(rng.uniform(0.0, 0.05), 3),
        )
    goals = normalize_goals([
        Goal("restored", [("f0", ">=", 0.9)], 2.0),
        Goal("contained", [("f1", ">=", 0.7), ("f2", ">=", 0.6)], 1.0),
        Goal("quiet", [("f3", ">=", 0.8)], 0.7),
    ])
    return ws, repertoire, goals, PlannerConfig(risk_weight=1.0, noise_weight=0.5,
                                                depth=depth, beam=beam)


def best_ms(seed: int, row: tuple[int, int, int, int], repeat: int) -> float:
    """The fastest of `repeat` propose_plans calls on the row's instance."""
    ws, repertoire, goals, config = instance(seed, *row)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        propose_plans(ws, repertoire, goals, config)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    print("| repertoire | effects/action | depth | beam | ms per call |")
    print("| --- | --- | --- | --- | --- |")
    for row in ROWS:
        ms = best_ms(args.seed, row, args.repeat)
        print("| " + " | ".join(str(n) for n in row) + f" | {ms:.2f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
