from __future__ import annotations

import copy
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import defsim
from defsim.envsim import CommsChannel, Environment, Host, Owner, Process, Service
from defsim.runner import EpisodeResult, decision_body, run_episode
from defsim.scenario import ScenarioConfig, load_scenario, parse_scenario

# the stories shipped in the package, one JSON file each
BUNDLED = tuple(sorted(path.stem for path in
                       Path(str(files("defsim") / "scenarios")).glob("*.json")))


def scenario_path(name: str) -> str:
    return str(files("defsim") / "scenarios" / f"{name}.json")


def run_python(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this defsim, with extra env vars."""
    src = str(Path(defsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env))


def body_of(decision_log: list[dict], index: int) -> dict:
    """The record that holds decision `index`'s body, as explain resolves it."""
    return decision_body(decision_log, index, f"decision {index}")


def fresh_config(config: ScenarioConfig) -> ScenarioConfig:
    """The config parsed again from a copy of its document, with a
    deliberation memo of its own that no earlier episode has filled."""
    return parse_scenario(copy.deepcopy(config.raw))


@pytest.fixture(scope="session")
def bundled_configs() -> dict[str, ScenarioConfig]:
    return {name: load_scenario(scenario_path(name)) for name in BUNDLED}


@pytest.fixture(scope="session")
def bundled_results(bundled_configs) -> dict[tuple[str, int], EpisodeResult]:
    """One agent-on episode per (scenario, seed 1..5); shared across tests."""
    out = {}
    for name, config in bundled_configs.items():
        for seed in range(1, 6):
            out[(name, seed)] = run_episode(config, seed)
    return out


def assert_same_knowledge(kb, expected) -> None:
    """Equal on every knowledge-base field an episode reads, in every order
    it reads."""
    assert list(kb.patterns.items()) == list(expected.patterns.items())  # confidence included
    assert list(kb.rules.items()) == list(expected.rules.items())
    assert kb.goals == expected.goals
    assert kb.effect_stats == expected.effect_stats
    assert kb.pattern_stats == expected.pattern_stats


def make_host(host_id="h1", integrity=1.0, services=(), processes=(), files=(),
              resident_agent=None) -> Host:
    return Host(
        host_id=host_id,
        integrity=integrity,
        services={s.service_id: s for s in services},
        processes={p.process_id: p for p in processes},
        files={f.file_id: f for f in files},
        resident_agent=resident_agent,
    )


def make_env(hosts=None, channels=None, up=0.8, down=0.3) -> Environment:
    if hosts is None:
        hosts = [make_host("h1", services=[Service("web", True, 1.0, 1.0)],
                           processes=[Process("sys", "sys-1", True, Owner.SYSTEM)])]
    if channels is None:
        channels = []
    return Environment(
        hosts={h.host_id: h for h in hosts},
        channels={c.channel_id: c for c in channels},
        up_threshold=up,
        down_threshold=down,
    )


def two_host_env(channel_state="healthy", drop=0.0, delay=0) -> Environment:
    hosts = [
        make_host("h1", services=[Service("web", True, 1.0, 1.0)],
                  processes=[Process("sys1", "sys-1", True, Owner.SYSTEM)]),
        make_host("h2", services=[Service("db", True, 1.0, 1.0)],
                  processes=[Process("sys2", "sys-2", True, Owner.SYSTEM)]),
    ]
    channel = CommsChannel("c1", ("h1", "h2"), state=channel_state,
                           drop_probability=drop, delay_ticks=delay)
    from defsim.envsim import ChannelState
    channel.state = ChannelState(channel_state)
    channel.enforce_invariants()
    return make_env(hosts=hosts, channels=[channel])
