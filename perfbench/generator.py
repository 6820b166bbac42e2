"""Seeded generator for the ``wide_repertoire`` scenarios.

Each scenario is the bundled ``s2_lateral_hunt`` with a wider repertoire:
``EXTRA_ACTIONS`` feature-only actions, each with uncertain effects on the
goal features, and planner depth 3. That makes ``propose_plans`` the
dominant cost of every episode, which is the point of the workload.

The shape is fixed and only the effect probabilities come from the seed,
so every generated scenario costs about the same to simulate:

- the malware never hunts (hunt intensity 0), so no seed ends early with
  a destroyed agent and a handful of decisions;
- extra actions carry no risk and little noise, so the planner keeps
  choosing full-depth plans and every episode makes the same number of
  decisions;
- each extra action touches two goal features, in a fixed rotation;
  three effects per action doubled the per-episode cost and widened its
  spread across seeds;
- episodes are ``DURATION_TICKS`` long, enough for about ten decisions.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path
from typing import Any

from defsim import scenario

BASE_SCENARIO = "s2_lateral_hunt"
EXTRA_ACTIONS = 5
EFFECTS_PER_ACTION = 2
PLANNER_DEPTH = 3
DURATION_TICKS = 40
PROBABILITY_RANGE = (0.3, 0.6)

# Feature deltas that move a goal predicate of s2_lateral_hunt towards
# satisfaction.
GOAL_DELTAS = (
    ("functionality_belief", "set", 1.0),
    ("detectability", "add", -0.1),
    ("unknown_proc_count", "set", 0),
    ("replica_count", "add", 1),
)


def base_path(src_root: Path) -> Path:
    return src_root / "defsim" / "scenarios" / f"{BASE_SCENARIO}.json"


def generate(base_raw: dict[str, Any], seed: int) -> dict[str, Any]:
    """A new scenario document; the same (base, seed) gives the same document."""
    rng = random.Random(f"wide_repertoire:{seed}")
    raw = copy.deepcopy(base_raw)
    raw["name"] = f"wide_repertoire_{seed}"
    raw["duration_ticks"] = DURATION_TICKS
    raw["planner"]["depth"] = PLANNER_DEPTH
    playbook = raw["playbook"]
    playbook["hunt_intensity"] = 0.0
    for instance in playbook["instances"]:
        instance["hunt_intensity"] = 0.0
    lo, hi = PROBABILITY_RANGE
    for i in range(EXTRA_ACTIONS):
        deltas = [GOAL_DELTAS[(i + j) % len(GOAL_DELTAS)] for j in range(EFFECTS_PER_ACTION)]
        raw["repertoire"].append({
            "action_id": f"tune_{i:02d}",
            "category": "restore",
            "preconditions": [],
            "effects": [
                {"env": None, "features": [list(delta)],
                 "probability": round(rng.uniform(lo, hi), 2), "expect": []}
                for delta in deltas
            ],
            "risk": 0.0,
            "noise": 0.01,
            "duration": 1,
            "target_scope": "self_host",
        })
    return raw


def scenario_sha256(raw: dict[str, Any]) -> str:
    """Digest of the canonical JSON form, so two commits can show that they
    ran the same generated input."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def generate_configs(base_raw: dict[str, Any], seeds: list[int]) -> list[tuple[Any, str]]:
    """Parsed configs with their sha256, one per seed; ``parse_scenario``
    rejects any generated document that is not a valid scenario."""
    out = []
    for seed in seeds:
        raw = generate(base_raw, seed)
        out.append((scenario.parse_scenario(raw), scenario_sha256(raw)))
    return out
