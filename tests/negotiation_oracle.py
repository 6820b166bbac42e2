"""The synchronous negotiation model: criterion 6's oracle.

Episodes negotiate over routed channels (`runner.Episode._handle_conclusions`),
which can be spoofed, delayed or dropped. This model drops the platform and
keeps the merge: every round each agent merges its neighbours' current sets
with `collaboration.merge_conclusions`, so criterion 6 checks that the merge
converges, not that an episode does.
"""

from __future__ import annotations

from defsim.collaboration import Conclusion, merge_conclusions


def run_negotiation(
    initial: dict[str, dict[str, Conclusion]],
    adjacency: dict[str, set[str]],
    max_rounds: int,
) -> tuple[dict[str, dict[str, Conclusion]], int]:
    """Simulate the exchange across a topology: each round every agent
    receives its neighbours' current sets and merges. Returns the final
    sets and the number of rounds until no set changed."""
    current = {agent: dict(conclusions) for agent, conclusions in initial.items()}
    rounds_used = 0
    for _ in range(max_rounds):
        incoming = {
            agent: [current[peer] for peer in sorted(adjacency.get(agent, set())) if peer in current]
            for agent in current
        }
        nxt = {
            agent: merge_conclusions(current[agent],
                                     (c for peer_set in incoming[agent] for c in peer_set.values()))
            for agent in sorted(current)
        }
        rounds_used += 1
        if nxt == current:
            break
        current = nxt
    return current, rounds_used
