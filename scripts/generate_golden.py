"""Regenerate, or check, the committed golden files.

Run from the repository root after any change that affects environment or
adversary behaviour, or the format of the trace or result file:

    python3 scripts/generate_golden.py

It writes two kinds of file to tests/golden/:

- agent_off_<scenario>.json: the agent-off metrics of each bundled scenario
  for seeds 1-20.
- agent_on_digests.json: the sha256 of the write_trace and write_result
  bytes of each agent-on episode of the same scenarios and seeds, which pins
  everything the agent does.

The acceptance suite compares fresh runs against these files, so they must
only ever change deliberately; each regeneration that changes agent-on
digests names the behaviour change in CHANGES.md. A change to the trace
format with no change of behaviour, such as writing a repeated decision
body as a reference, moves only the trace digests: --check names every
episode's trace and nothing else, and the run without --check regenerates
them. Likewise a change to the result format alone, such as writing the
result's decision log as the trace's decision records, moves only the
result digests.

    python3 scripts/generate_golden.py --check

recomputes the same values and compares them with tests/golden/ without
writing anything. It prints one line per difference, naming the scenario,
the seed and the file (agent_off, trace or result), and exits 1 if there is
any; otherwise it prints "unchanged" and exits 0. A change meant to keep
behaviour shows "unchanged"; a behaviour change names the bytes it moved.
Both modes also run the same seeds of each scenario through run_batch, whose
episodes share one deliberation memo, and --check prints "<scenario>: batch"
when a per-seed metric differs from the lone episode's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from importlib.resources import files
from pathlib import Path

from defsim.runner import EpisodeResult, run_batch, run_episode, write_result, write_trace
from defsim.scenario import load_scenario

# the stories shipped in the package, one JSON file each
BUNDLED = tuple(sorted(path.stem for path in
                       Path(str(files("defsim") / "scenarios")).glob("*.json")))
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


def agent_off_path(name: str) -> Path:
    return OUT / f"agent_off_{name}.json"


def compute() -> tuple[dict[str, dict], dict[str, dict], list[str]]:
    """The agent-off payload of each scenario, the agent-on digests, and the
    scenarios whose run_batch metrics differ from their lone episodes'."""
    agent_off: dict[str, dict] = {}
    digests: dict[str, dict] = {}
    batch_differs: list[str] = []
    for name in BUNDLED:
        config = load_scenario(str(files("defsim") / "scenarios" / f"{name}.json"))
        baseline = {
            str(seed): run_episode(config, seed, agent_enabled=False).metrics
            for seed in SEEDS
        }
        agent_off[name] = {"scenario": name, "scenario_hash": config.scenario_hash,
                           "agent_enabled": False, "metrics_by_seed": baseline}
        results = {seed: run_episode(config, seed) for seed in SEEDS}
        digests[name] = {
            "scenario_hash": config.scenario_hash,
            "digests_by_seed": {str(seed): artifact_digests(results[seed]) for seed in SEEDS},
        }
        per_seed = run_batch(config, list(SEEDS))["per_seed"]
        if any(per_seed[str(seed)] != results[seed].metrics for seed in SEEDS):
            batch_differs.append(name)
    return agent_off, digests, batch_differs


def _read(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def differences(agent_off: dict[str, dict], digests: dict[str, dict],
                batch_differs: list[str]) -> list[str]:
    """One line per (scenario, seed, file) whose fresh value differs from the
    committed one; a scenario whose hash changed counts as one line, and so
    does one whose batch metrics differ from its lone episodes'."""
    lines = []
    committed_digests = _read(DIGESTS)
    for name in BUNDLED:
        off = _read(agent_off_path(name))
        on = committed_digests.get(name, {})
        fresh_hash = agent_off[name]["scenario_hash"]
        if off.get("scenario_hash") != fresh_hash or on.get("scenario_hash") != fresh_hash:
            lines.append(f"{name}: scenario_hash differs")
        for seed in SEEDS:
            key = str(seed)
            if off.get("metrics_by_seed", {}).get(key) != agent_off[name]["metrics_by_seed"][key]:
                lines.append(f"{name} seed {seed}: agent_off")
            fresh = digests[name]["digests_by_seed"][key]
            old = on.get("digests_by_seed", {}).get(key, {})
            for kind in ("trace", "result"):
                if old.get(kind) != fresh[kind]:
                    lines.append(f"{name} seed {seed}: {kind}")
        if name in batch_differs:
            lines.append(f"{name}: batch")
    return lines


def write(agent_off: dict[str, dict], digests: dict[str, dict]) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, payload in agent_off.items():
        path = agent_off_path(name)
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")
    print(f"wrote {DIGESTS}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with tests/golden/ instead of writing")
    args = parser.parse_args(argv)
    agent_off, digests, batch_differs = compute()
    if not args.check:
        write(agent_off, digests)
        return 0
    lines = differences(agent_off, digests, batch_differs)
    for line in lines:
        print(line)
    if lines:
        return 1
    print("unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
