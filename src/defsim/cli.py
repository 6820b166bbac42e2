"""Command line interface: run, batch, replay, explain.

Exit codes: 0 success, 2 validation problems (bad scenario, bad trace,
bad index), 1 runtime errors and output paths that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    ConfigInvalid,
    CorruptTrace,
    DefsimError,
    IndexOutOfRange,
    OutputUnwritable,
    SchemaMismatch,
    read_json,
    write_text,
)
from .runner import (
    explain,
    export_csv,
    replay,
    run_batch,
    run_episode,
    write_result,
    write_trace,
)
from .scenario import load_scenario

_VALIDATION_ERRORS = (ConfigInvalid, SchemaMismatch, CorruptTrace, IndexOutOfRange)


def _parse_seeds(text: str) -> list[int]:
    try:
        lo, dots, hi = text.partition("..")
        seeds = (list(range(int(lo), int(hi) + 1)) if dots
                 else [int(part) for part in text.split(",") if part.strip()])
    except ValueError as exc:
        raise ConfigInvalid(f"cannot parse seeds {text!r}: {exc}") from exc
    if not seeds:
        raise ConfigInvalid(f"cannot parse seeds {text!r}: they name no seed")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defsim",
        description="Deterministic cyber-defense agent simulation kit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one seeded episode")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int, required=True)
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--agent-off", action="store_true",
                       help="baseline run without the defending agent")

    batch_p = sub.add_parser("batch", help="run a seed range and aggregate")
    batch_p.add_argument("--scenario", required=True)
    batch_p.add_argument("--seeds", required=True, help="e.g. 1..20 or 1,2,5")
    batch_p.add_argument("--out", required=True)
    batch_p.add_argument("--agent-off", action="store_true")

    replay_p = sub.add_parser("replay", help="recompute metrics from a trace file")
    replay_p.add_argument("--trace", required=True)

    explain_p = sub.add_parser("explain", help="render one decision from a result file")
    explain_p.add_argument("--result", required=True)
    explain_p.add_argument("--decision", type=int, required=True)
    return parser


def _output_dir(path: str) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputUnwritable(f"cannot make directory {path}: {exc.strerror or exc}") from exc
    return Path(path)


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    out = _output_dir(args.out)
    result = run_episode(config, args.seed, agent_enabled=not args.agent_off)
    write_trace(result, out / "trace.jsonl")
    write_result(result, out / "result.json")
    print(json.dumps(result.metrics, sort_keys=True, indent=2))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    seeds = _parse_seeds(args.seeds)
    out = _output_dir(args.out)
    batch = run_batch(config, seeds, agent_enabled=not args.agent_off)
    export_csv(batch, out / "metrics.csv")
    write_text(out / "aggregate.json", json.dumps(batch, sort_keys=True, indent=2) + "\n")
    print(json.dumps(batch["aggregate"], sort_keys=True, indent=2))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    metrics = replay(args.trace)
    print(json.dumps(metrics, sort_keys=True, indent=2))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    data = read_json(args.result, ConfigInvalid, "result file")
    if not isinstance(data, dict):
        raise ConfigInvalid("result file is not a JSON object")
    decision_log = data.get("decision_log", [])
    if not isinstance(decision_log, list):
        raise ConfigInvalid("result file's decision_log is not a list")
    print(explain(decision_log, args.decision))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "batch": _cmd_batch,
                "replay": _cmd_replay, "explain": _cmd_explain}
    try:
        return handlers[args.command](args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DefsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
