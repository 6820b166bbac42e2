"""Span recorder, self-time fold and the wrappers of the traced run.

The traced run replaces public functions of the defsim modules with
wrappers from outside the package. The runner calls them through their
modules (``sensing.sense``, ``planning.propose_plans``, ...), and
``planning`` calls ``predict`` and ``score_sequence`` through its own
globals, so the wrappers also see the calls made inside the package.

Each wrapper records a span: name, start, end, parent span and op id.
Spans stay in memory; a layer's self time is its span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from defsim import (
    adversary,
    collaboration,
    envsim,
    execution,
    learning,
    planning,
    runner,
    scenario,
    sensing,
)

from . import workloads

# (module object, attribute path, span name). Span names read
# "<module>.<function>" or "<module>.<Class>.<method>".
TARGETS: list[tuple[Any, str, str]] = [
    (planning, "propose_plans", "planning.propose_plans"),
    (planning, "score_sequence", "planning.score_sequence"),
    (planning, "predict", "planning.predict"),
    (planning, "expected_loss", "planning.expected_loss"),
    (planning, "select_action_plan", "planning.select_action_plan"),
    (planning, "fast_rule_select", "planning.fast_rule_select"),
    (sensing, "sense", "sensing.sense"),
    (sensing, "update_world_state", "sensing.update_world_state"),
    (sensing, "identify", "sensing.identify"),
    (scenario, "parse_scenario", "scenario.parse_scenario"),
    *[(scenario.ScenarioConfig, name, f"scenario.ScenarioConfig.{name}")
      for name in ("build_environment", "build_playbook", "build_sensor_config",
                   "build_patterns", "build_repertoire", "build_goals", "build_roe",
                   "build_rules", "build_planner_config")],
    (runner, "run_episode", "runner.run_episode"),
    (runner, "run_batch", "runner.run_batch"),
    (runner, "write_trace", "runner.write_trace"),
    (runner, "write_result", "runner.write_result"),
    (runner, "replay", "runner.replay"),
    (runner, "explain", "runner.explain"),
    # the CLI's own read of result.json before it calls explain
    (workloads, "read_result", "cli.read_result"),
    (collaboration, "build_message", "collaboration.build_message"),
    (collaboration, "verify_message", "collaboration.verify_message"),
    (collaboration, "share_and_request", "collaboration.share_and_request"),
    (collaboration, "report", "collaboration.report"),
    (collaboration, "merge_conclusions", "collaboration.merge_conclusions"),
    (collaboration, "propagate", "collaboration.propagate"),
    (execution, "execute_step", "execution.execute_step"),
    (execution, "monitor_execution", "execution.monitor_execution"),
    (execution, "monitor_effects", "execution.monitor_effects"),
    (execution, "adjust", "execution.adjust"),
    *[(envsim.Environment, name, f"envsim.Environment.{name}")
      for name in ("step", "apply_effect", "deliver", "route", "functionality",
                   "drain_inbox")],
    (adversary.MalwareController, "step", "adversary.MalwareController.step"),
    (learning, "learn", "learning.learn"),
    (learning, "apply_proposition", "learning.apply_proposition"),
    (learning, "reward", "learning.reward"),
]

SPAN_NAMES = [name for _, _, name in TARGETS]

# Counts derived from op outputs rather than from span boundaries.
COUNTERS = [
    "planning.outcomes",
    "sensing.descriptors",
    "runner.events",
    "runner.decisions",
    "runner.trace_bytes",
    "collaboration.messages_discarded",
    "execution.retries",
    "execution.substitutions",
    "execution.replans",
    "execution.failed_actions",
]


@dataclass
class SpanRecorder:
    """Spans as ``[name, start, end, parent, op]`` lists, in start order."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[list[Any]] = field(default_factory=list)
    op: Optional[str] = None  # "<round>:<op key>" while an op or batch runs
    _stack: list[int] = field(default_factory=list)
    # op outputs whose counts are taken after the op's root span has ended
    pending: list[tuple[str, Any]] = field(default_factory=list)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        begin, end, pending = self.begin, self.end, self.pending

        if name == "planning.predict":
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                pending.append((name, args[1:3]))
                index = begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(index)
        elif name in ("sensing.sense", "runner.run_episode", "runner.write_trace"):
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end(index)
                pending.append((name, args[1] if name == "runner.write_trace" else out))
                return out
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(index)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper


def install(recorder: SpanRecorder,
            names: Optional[set[str]] = None) -> Callable[[], None]:
    """Wrap every target, or those in ``names``; the returned function puts
    the originals back."""
    originals = []
    for owner, attr, name in TARGETS:
        if names is not None and name not in names:
            continue
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, name))

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
    return uninstall


def outcomes_enumerated(action_ids: Any, repertoire: dict[str, Any]) -> int:
    """Outcomes ``predict`` visits: 2^k over the k uncertain effects, or the
    fixed sample count once k exceeds the exact-enumeration limit."""
    k = sum(1 for aid in action_ids for eff in repertoire[aid].effects
            if 0.0 < eff.probability < 1.0)
    return 2 ** k if k <= planning.EXACT_ENUM_LIMIT else planning.SAMPLE_COUNT


def drain_counts(recorder: SpanRecorder, counts: dict[str, float]) -> None:
    """Fold the op outputs the wrappers set aside into ``counts``."""
    for name, item in recorder.pending:
        if name == "planning.predict":
            counts["planning.outcomes"] += outcomes_enumerated(*item)
        elif name == "sensing.sense":
            counts["sensing.descriptors"] += len(item)
        elif name == "runner.write_trace":
            counts["runner.trace_bytes"] += Path(item).stat().st_size
        elif name == "runner.run_episode":
            counts["runner.events"] += len(item.trace)
            counts["runner.decisions"] += len(item.decision_log)
            for event in item.trace:
                kind = event["kind"]
                if kind == "agent.message_discarded":
                    counts["collaboration.messages_discarded"] += 1
                elif kind == "agent.action_failed":
                    counts["execution.failed_actions"] += 1
                elif kind == "agent.adjustment":
                    decision = event["decision"]
                    if decision == "retry":
                        counts["execution.retries"] += 1
                    elif decision == "substitute":
                        counts["execution.substitutions"] += 1
                    elif decision == "replan":
                        counts["execution.replans"] += 1
    recorder.pending.clear()


ROOTS = ("op", "batch", "setup")


def fold_self_times(spans: list[list[Any]],
                    totals: Optional[dict[str, list[float]]] = None) -> dict[str, list[float]]:
    """Add each span under a root span into ``totals[name]`` as ``[calls,
    self seconds, total seconds]``. Self time is a span's duration minus the
    durations of its direct children. Spans outside any root, such as those
    of the checks run between ops, are left out."""
    totals = {} if totals is None else totals
    child_time = [0.0] * len(spans)
    inside = [False] * len(spans)
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent is None:
            inside[index] = name in ROOTS
        else:
            inside[index] = inside[parent]
            child_time[parent] += end - start
    for index, (name, start, end, _, _) in enumerate(spans):
        if inside[index]:
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
            entry[2] += end - start
    return totals
