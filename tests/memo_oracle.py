"""The deliberation memo's soundness, checked by recording reads.

A memo entry gives its body to any features on which its comparisons
replay, so it is sound only if the search reads nothing but those
comparisons and what the bucket keys exactly. check_reads turns every int
and float feature into an instance of a subclass that records each
comparison made on it, with its feature key and the chain of `add` deltas
that led to it, and runs the search again on those features. Its body must
be the plain search's, byte for byte, and every comparison it recorded must
be one the memo derived for the entry of the plain search. So a planner
read that the memo does not derive fails the check.
"""

from __future__ import annotations

import copy
import operator
import sys
from typing import Any

import pytest

from defsim import planning, runner
from defsim.errors import canonical_json
from defsim.scenario import ScenarioConfig

from conftest import fresh_config

_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge}


class _Traced:
    """A feature value that records each comparison made on it into `log`
    as (key, chain, comparator, other). The goal-id cache of _Outcomes
    compares values tuples in a dict lookup; those are not planner reads and
    are not recorded."""

    key: str
    chain: tuple
    log: list

    def _plain(self) -> Any:
        return type(self).__bases__[1](self)

    def __add__(self, other: Any) -> Any:
        total = self._plain() + other
        if type(total) not in (int, float):
            return total
        return traced(total, self.key, self.chain + (("add", type(other), other),), self.log)

    def __radd__(self, other: Any) -> Any:
        return other + self._plain()

    def _compare(self, cmp: str, other: Any) -> bool:
        if sys._getframe(2).f_code is not planning._Outcomes._apply.__code__:
            self.log.append((self.key, self.chain, cmp, other))
        return _COMPARE[cmp](self._plain(), other._plain() if isinstance(other, _Traced) else other)


for _cmp, _name in (("==", "__eq__"), ("!=", "__ne__"), ("<", "__lt__"), ("<=", "__le__"),
                    (">", "__gt__"), (">=", "__ge__")):
    setattr(_Traced, _name, lambda self, other, _cmp=_cmp: self._compare(_cmp, other))


class _TracedInt(_Traced, int):
    __hash__ = int.__hash__


class _TracedFloat(_Traced, float):
    __hash__ = float.__hash__


def traced(value: Any, key: str, chain: tuple, log: list) -> _Traced:
    out = (_TracedInt if type(value) is int else _TracedFloat)(value)
    out.key, out.chain, out.log = key, chain, log
    return out


def derived(memo: planning.Deliberations, entry: Any) -> set[tuple]:
    """Every (key, chain, comparator, threshold) the memo derives for the entry."""
    return {(key, chain, cmp, threshold)
            for key in entry.starts
            for chain in [(), *(chain for chain, _ in memo.comparisons(entry, key))]
            for cmp, threshold in memo.thresholds[key]}


def check_reads(config: ScenarioConfig, inputs: list[tuple]) -> int:
    """For each (features, goals, roe, progression): the traced search gives
    the plain body's bytes and reads only comparisons its entry derives.
    Returns the count of comparisons recorded."""
    recorded = 0
    for features, goals, roe, progression in inputs:
        memo = fresh_config(config).deliberations
        ws = planning.WorldState(tick=0, features=features)
        _, encoded = memo.deliberate(ws, goals, roe, progression)
        [[entry]] = memo.bodies.values()
        log: list[tuple] = []
        ws.features = {key: traced(value, key, (), log) if type(value) in (int, float) else value
                       for key, value in features.items()}
        kept = [delta for delta in progression if delta[0] in memo._goal_keys]
        assert canonical_json(memo.search(ws, goals, roe, kept)) == encoded
        underived = set(log) - derived(memo, entry)
        assert not underived, (features, progression, sorted(underived, key=repr)[:5])
        recorded += len(log)
    return recorded


def episode_inputs(config: ScenarioConfig, seeds: range) -> list[tuple]:
    """The distinct inputs of every deliberation of the episodes, run on a
    config of their own."""
    inputs, deliberate, config = {}, planning.Deliberations.deliberate, fresh_config(config)

    def recorded(self, ws, goals, roe, progression):
        snapshot = copy.deepcopy((ws.features, goals, roe, progression))
        inputs.setdefault(repr(snapshot), snapshot)
        return deliberate(self, ws, goals, roe, progression)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planning.Deliberations, "deliberate", recorded)
        for seed in seeds:
            runner.run_episode(config, seed)
    return list(inputs.values())
