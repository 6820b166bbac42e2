"""Regenerate the committed golden files.

Run from the repository root after any change that affects environment or
adversary behaviour:

    python3 scripts/generate_golden.py

It writes two kinds of file to tests/golden/:

- agent_off_<scenario>.json: the agent-off metrics of each bundled scenario
  for seeds 1-20.
- agent_on_digests.json: the sha256 of the write_trace and write_result
  bytes of each agent-on episode of the same scenarios and seeds, which pins
  everything the agent does.

The acceptance suite compares fresh runs against these files, so they must
only ever change deliberately; each regeneration that changes agent-on
digests names the behaviour change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from importlib.resources import files
from pathlib import Path

from defsim.runner import EpisodeResult, run_episode, write_result, write_trace
from defsim.scenario import load_scenario

BUNDLED = ("s1_comms_spoof", "s2_lateral_hunt", "s3_partition")
SEEDS = range(1, 21)
OUT = Path(__file__).resolve().parent.parent / "tests" / "golden"
DIGESTS = OUT / "agent_on_digests.json"


def artifact_digests(result: EpisodeResult) -> dict[str, str]:
    """sha256 of the bytes write_trace and write_result put on disk."""
    with tempfile.TemporaryDirectory() as tmp:
        trace, res = Path(tmp) / "trace.jsonl", Path(tmp) / "result.json"
        write_trace(result, trace)
        write_result(result, res)
        return {"trace": hashlib.sha256(trace.read_bytes()).hexdigest(),
                "result": hashlib.sha256(res.read_bytes()).hexdigest()}


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    digests: dict[str, dict] = {}
    for name in BUNDLED:
        config = load_scenario(str(files("defsim") / "scenarios" / f"{name}.json"))
        baseline = {
            str(seed): run_episode(config, seed, agent_enabled=False).metrics
            for seed in SEEDS
        }
        payload = {"scenario": name, "scenario_hash": config.scenario_hash(),
                   "agent_enabled": False, "metrics_by_seed": baseline}
        path = OUT / f"agent_off_{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
        digests[name] = {
            "scenario_hash": config.scenario_hash(),
            "digests_by_seed": {str(seed): artifact_digests(run_episode(config, seed))
                                for seed in SEEDS},
        }
    DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()
