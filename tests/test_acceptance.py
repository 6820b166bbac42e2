"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Golden agent-off baselines and agent-on artifact digests live in
tests/golden/ and are regenerated only via scripts/generate_golden.py.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

import pytest

from defsim.collaboration import Conclusion, Verdict
from defsim.learning import EffectObservation, KnowledgeBase, learn, apply_proposition
from defsim.adversary import HuntResult, MalwareInstance, MalwarePhase, hunt
from defsim.planning import Goal, PlannerConfig, normalize_goals, propose_plans
from defsim.runner import replay, run_episode, write_result, write_trace
from defsim.scenario import parse_scenario
from defsim.sensing import WorldState, all_hold
from defsim.learning import reward

from conftest import BUNDLED
from negotiation_oracle import run_negotiation
from planning_oracle import oracle_best, random_instance

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {name}: PASS")


# -- 1. determinism, replay, runtime ------------------------------------------------------------

def test_criterion_1_determinism_and_replay(bundled_configs, tmp_path):
    with criterion(1, "determinism"):
        for name in BUNDLED:
            config = bundled_configs[name]
            for seed in range(1, 6):
                started = time.perf_counter()
                first = run_episode(config, seed)
                elapsed = time.perf_counter() - started
                assert elapsed < 2.0, f"{name} seed {seed} took {elapsed:.2f}s"
                second = run_episode(config, seed)
                path_a = tmp_path / f"{name}_{seed}_a.jsonl"
                path_b = tmp_path / f"{name}_{seed}_b.jsonl"
                write_trace(first, path_a)
                write_trace(second, path_b)
                assert path_a.read_bytes() == path_b.read_bytes()
                assert json.dumps(first.metrics, sort_keys=True) == \
                    json.dumps(second.metrics, sort_keys=True)
                recomputed = replay(path_a)
                assert json.dumps(recomputed, sort_keys=True) == \
                    json.dumps(first.metrics, sort_keys=True)


# -- 2. defense efficacy against committed baselines ----------------------------------------------

def test_criterion_2_paired_baseline(bundled_configs):
    with criterion(2, "defense efficacy"):
        for name in BUNDLED:
            config = bundled_configs[name]
            golden = json.loads((GOLDEN_DIR / f"agent_off_{name}.json").read_text())
            assert golden["scenario_hash"] == config.scenario_hash, \
                "scenario changed: regenerate goldens deliberately"
            on_values, off_values = [], []
            for seed in range(1, 21):
                off = run_episode(config, seed, agent_enabled=False).metrics
                assert off == golden["metrics_by_seed"][str(seed)], \
                    f"{name} seed {seed} diverged from golden baseline"
                off_values.append(off["resilience_auc"])
                on_values.append(run_episode(config, seed).metrics["resilience_auc"])
            assert sum(on_values) / 20 > sum(off_values) / 20, name


# -- behaviour lock: agent-on artifacts against committed digests ----------------------------------

def test_agent_on_artifacts_match_golden_digests(bundled_configs, tmp_path):
    golden = json.loads((GOLDEN_DIR / "agent_on_digests.json").read_text())
    assert sorted(golden) == sorted(BUNDLED)
    for name in BUNDLED:
        config = bundled_configs[name]
        assert golden[name]["scenario_hash"] == config.scenario_hash, \
            "scenario changed: regenerate goldens deliberately"
        expected = golden[name]["digests_by_seed"]
        assert sorted(expected, key=int) == [str(seed) for seed in range(1, 21)]
        for seed in range(1, 21):
            result = run_episode(config, seed)
            trace, res = tmp_path / "trace.jsonl", tmp_path / "result.json"
            write_trace(result, trace)
            write_result(result, res)
            assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
                expected[str(seed)]["trace"], f"{name} seed {seed}: trace bytes changed"
            assert hashlib.sha256(res.read_bytes()).hexdigest() == \
                expected[str(seed)]["result"], f"{name} seed {seed}: result bytes changed"


# -- 3. planner oracle equivalence ------------------------------------------------------------------

def test_criterion_3_planner_oracle_equivalence():
    with criterion(3, "planner oracle equivalence"):
        rng = Random(31337)
        config = PlannerConfig(depth=2, beam=5)
        for _ in range(200):
            ws, repertoire, goals = random_instance(rng)
            proposals = propose_plans(ws, repertoire, goals, config)
            oracle_utility, oracle_seq = oracle_best(ws, repertoire, goals, config)
            assert proposals[0].utility == oracle_utility
            assert proposals[0].actions == oracle_seq


# -- 4. rules-of-engagement safety fuzz ---------------------------------------------------------------

def fuzz_scenario(rng: Random) -> dict:
    mal_host = rng.choice(["h0", "h2"])
    channel_states = [rng.choice(["healthy", "healthy", "degraded", "spoofed"])
                      for _ in range(2)]
    degradation = rng.choice([0.2, 0.25, 0.3])
    raw = {
        "schema_version": 1,
        "name": "fuzz",
        "duration_ticks": 25,
        "trigger_threshold": 0.5,
        "topology": {
            "thresholds": {"up_threshold": 0.8, "down_threshold": 0.3},
            "hosts": [
                {"host_id": "h0",
                 "services": [{"service_id": "svc0", "required": True, "weight": 2.0,
                               "health": 1.0}],
                 "processes": [
                     {"process_id": "sys0", "image_hash": "s", "known_good": True,
                      "owner": "system"},
                     {"process_id": "lurker0", "image_hash": "x", "known_good": False,
                      "owner": "malware"}]},
                {"host_id": "h1",
                 "services": [{"service_id": "svc1", "required": True, "weight": 1.0,
                               "health": 1.0}],
                 "processes": [{"process_id": "sys1", "image_hash": "s", "known_good": True,
                                "owner": "system"}]},
                {"host_id": "h2",
                 "services": [{"service_id": "svc2", "required": False, "weight": 1.0,
                               "health": 1.0}],
                 "processes": [
                     {"process_id": "sys2", "image_hash": "s", "known_good": True,
                      "owner": "system"},
                     {"process_id": "lurker", "image_hash": "x", "known_good": False,
                      "owner": "malware"}]},
            ],
            "channels": [
                {"channel_id": "c01", "endpoints": ["h0", "h1"], "state": channel_states[0],
                 **({"drop_probability": 0.2, "delay_ticks": 1}
                    if channel_states[0] == "degraded" else {})},
                {"channel_id": "c02", "endpoints": ["h0", "h2"], "state": channel_states[1],
                 **({"drop_probability": 0.2, "delay_ticks": 1}
                    if channel_states[1] == "degraded" else {})},
            ],
        },
        "playbook": {
            # starts in Degradation with no spawned footprint: the implant is
            # fileless and cannot be evicted, so the pressure lasts all episode
            "instances": [{"instance_id": "m1", "host_id": mal_host, "phase": "Degradation",
                           "hunt_intensity": rng.choice([0.0, 0.1, 0.2])}],
            "fallback": True,
            "spoof_probability": rng.choice([0.2, 0.5]),
            "degradation_amount": degradation,
            "max_instances": 2,
            "steps": [
                {"tick": t, "action": "degrade_host", "params": {"host": mal_host,
                                                                 "amount": 0.2}}
                for t in (6, 8, 10)
            ],
        },
        "sensors": {
            "physical": ["host_integrity", "service_table", "process_table", "channel_state"],
            "logical": ["unknown_proc_count", "channel_counts", "service_weights",
                        "host_integrity", "service_health"],
            "transformers": ["comms_integrity", "functionality_belief", "host_integrity",
                             "service_health", "counts"],
        },
        "patterns": [
            {"id": "proc", "predicates": [["unknown_proc_count", ">=", 1]],
             "severity": 0.7, "confidence": 0.9, "deadline_ticks": 1},
            {"id": "func", "predicates": [["functionality_belief", "<=", 0.9]],
             "severity": 0.9, "confidence": 0.9,
             "progression": [["functionality_belief", "add", -0.05]]},
            {"id": "weak", "predicates": [["host_integrity", "<=", 0.6]],
             "severity": 0.8, "confidence": 0.9,
             "progression": [["host_integrity", "add", -0.1]]},
        ],
        "repertoire": [
            {"action_id": "purge_local", "category": "destructive",
             "preconditions": [["unknown_proc_count", ">=", 1]],
             "effects": [{"env": {"target": "process:$self:@unknown", "operation": "kill"},
                          "features": [["unknown_proc_count", "set", 0]],
                          "probability": 0.9,
                          "expect": [["unknown_proc_count", "<=", 0]]}],
             "risk": rng.choice([0.15, 0.2]), "noise": 0.1},
            {"action_id": "purge_remote", "category": "destructive",
             "target_scope": "remote",
             "preconditions": [],
             "effects": [{"env": {"target": "process:h2:@unknown", "operation": "kill"},
                          "features": [["unknown_proc_count", "set", 0]],
                          "probability": 0.9}],
             "risk": 0.1, "noise": 0.05},
            {"action_id": "repair_svc0", "category": "restore",
             "preconditions": [["service_health:svc0", "<=", 0.99]],
             "effects": [{"env": {"target": "service:h0:svc0", "attribute": "health",
                                  "operation": "set", "value": 1.0},
                          "features": [["functionality_belief", "set", 1.0],
                                       ["service_health:svc0", "set", 1.0]],
                          "probability": 1.0,
                          "expect": [["service_health:svc0", ">=", 0.99]]}],
             "risk": 0.0, "noise": 0.05},
            {"action_id": "replicate_bad", "category": "propagate", "builtin": "propagate",
             "target_host": "h2", "target_scope": "remote",
             "preconditions": [["host_integrity", "<=", 0.5]],
             "effects": [{"env": None, "features": [["replica_count", "add", 1]],
                          "probability": 1.0}],
             "risk": 0.0, "noise": 0.05},
            {"action_id": "replicate_good", "category": "propagate", "builtin": "propagate",
             "target_host": "h1", "target_scope": "remote",
             "preconditions": [["host_integrity", "<=", 0.5]],
             "effects": [{"env": None, "features": [["replica_count", "add", 1]],
                          "probability": 1.0}],
             "risk": 0.0, "noise": 0.05},
        ],
        "goals": [
            {"goal_id": "g_avail", "predicates": [["functionality_belief", ">=", 0.95]],
             "weight": 0.5},
            {"goal_id": "g_clean", "predicates": [["unknown_proc_count", "<=", 0]],
             "weight": 0.3},
            {"goal_id": "g_presence", "predicates": [["replica_count", ">=", 1]],
             "weight": 0.2},
        ],
        "roe": {"max_plan_risk": 0.6, "destructive_only_on_residence": True,
                "forbidden_categories": [], "fast_deadline_ticks": 2},
        "rules": [
            {"rule_id": "r_remote", "condition": [["unknown_proc_count", ">=", 1]],
             "action_id": "purge_remote", "priority": 1},
            {"rule_id": "r_local", "condition": [["unknown_proc_count", ">=", 1]],
             "action_id": "purge_local", "priority": 2},
        ],
        "planner": {"depth": 2, "beam": 4},
        "collaboration": {"propagation_threshold": 0.5, "report_interval": 10},
        "roster": {"hosts": ["h0", "h1"], "authorization_token": "tok-fuzz"},
        "agents": [{"agent_id": "a0", "host_id": "h0", "detectability": 0.1}],
    }
    return raw


def test_criterion_4_roe_safety_fuzz():
    with criterion(4, "ROE safety fuzz"):
        rng = Random(404)
        destructive_on_residence = 0
        replicas_installed = 0
        refusals = 0
        episodes = 0
        for scenario_no in range(250):
            config = parse_scenario(fuzz_scenario(rng))
            categories = {a["action_id"]: a["category"] for a in config.raw["repertoire"]}
            for seed in range(4):
                episodes += 1
                result = run_episode(config, rng.randint(0, 10_000_000))
                agent_hosts = {"a0": "h0"}
                for event in result.trace:
                    if event["kind"] == "agent.propagation" and event["installed"]:
                        replicas_installed += 1
                        assert event["target"] in ("h0", "h1"), \
                            f"replica on non-roster host {event['target']}"
                        agent_hosts[event["replica"]] = event["target"]
                    if event["kind"] == "agent.propagation" and not event["installed"]:
                        refusals += 1
                    if event["kind"] == "env.effect" and event["cause"].startswith("agent:"):
                        _, aid, action_id = event["cause"].split(":", 2)
                        if categories.get(action_id) != "destructive":
                            continue
                        host = agent_hosts[aid]
                        for change in event["changes"]:
                            entity = change["entity"]
                            parts = entity.split(":")
                            if parts[0] in ("host", "service", "process", "file"):
                                assert parts[1] == host, \
                                    f"destructive effect on {entity} from agent on {host}"
                                destructive_on_residence += 1
        assert episodes == 1000
        assert destructive_on_residence > 0, "fuzz never exercised destructive actions"
        assert replicas_installed > 0, "fuzz never exercised propagation"
        assert refusals > 0, "fuzz never exercised propagation refusals"


# -- 5. execution biconditional --------------------------------------------------------------------

def test_criterion_5_adjustment_biconditional(bundled_results):
    with criterion(5, "execution adjustment biconditional"):
        adjustments_total = 0
        for result in bundled_results.values():
            deviation_keys = {(e["tick"], e["agent"]) for e in result.trace
                              if e["kind"] == "agent.deviation"}
            adjustment_keys = {(e["tick"], e["agent"]) for e in result.trace
                               if e["kind"] == "agent.adjustment"}
            assert deviation_keys == adjustment_keys
            adjustments_total += len(adjustment_keys)
        assert adjustments_total > 0, "bundled traces never exercised adjustment"


# -- 6. negotiation convergence ------------------------------------------------------------------------

def random_conclusion_sets(rng: Random, agents: list[str]) -> dict:
    subjects = [f"host:h{i}" for i in range(4)]
    initial = {}
    for agent in agents:
        initial[agent] = {}
        for subject in rng.sample(subjects, rng.randint(0, len(subjects))):
            initial[agent][subject] = Conclusion(
                subject, rng.choice(list(Verdict)), round(rng.random(), 3),
                agent, rng.randint(0, 9))
    return initial


def test_criterion_6_negotiation_convergence():
    with criterion(6, "negotiation convergence"):
        rng = Random(606)
        for _ in range(500):
            n = rng.randint(2, 5)
            agents = [f"a{i}" for i in range(1, n + 1)]
            initial = random_conclusion_sets(rng, agents)
            adjacency = {a: set(agents) - {a} for a in agents}
            final, rounds = run_negotiation(initial, adjacency, max_rounds=5)
            assert rounds <= 3
            assert len({frozenset(final[a].items()) for a in agents}) == 1
        # partitioned topologies converge per connected component
        for _ in range(100):
            agents = [f"a{i}" for i in range(1, 6)]
            split = rng.randint(1, 4)
            left, right = agents[:split], agents[split:]
            initial = random_conclusion_sets(rng, agents)
            adjacency = {a: (set(left) if a in left else set(right)) - {a} for a in agents}
            final, _ = run_negotiation(initial, adjacency, max_rounds=5)
            assert len({frozenset(final[a].items()) for a in left}) == 1
            assert len({frozenset(final[a].items()) for a in right}) == 1


# -- 7. learning convergence -------------------------------------------------------------------------

def test_criterion_7_learning_convergence():
    with criterion(7, "learning convergence"):
        kb = KnowledgeBase()
        rng = Random(777)
        feedback = [EffectObservation(f"o{i}", "act", 0, observed=rng.random() < 0.7)
                    for i in range(1000)]
        for proposition in learn(kb, feedback, []):
            apply_proposition(kb, proposition)
        estimate = kb.estimate("act", 0)
        assert 0.65 <= estimate <= 0.75, estimate

        instance = MalwareInstance("m", "h", phase=MalwarePhase.AGENT_HUNT,
                                   hunt_intensity=0.5)
        hunt_rng = Random(778)
        found = sum(hunt(instance, 0.5, hunt_rng) is HuntResult.FOUND
                    for _ in range(10_000))
        assert abs(found / 10_000 - 0.25) <= 0.02


# -- 8. reward bounds ----------------------------------------------------------------------------------

def test_criterion_8_reward_bounds():
    with criterion(8, "reward bounds"):
        rng = Random(808)
        for _ in range(500):
            n = rng.randint(1, 5)
            goals = normalize_goals([
                Goal(f"g{i}", [(f"f{rng.randint(0, 3)}", ">=", rng.choice([0.5, 1.0]))],
                     rng.uniform(0.1, 3.0))
                for i in range(n)])
            ws = WorldState(tick=0, features={f"f{i}": rng.choice([0.0, 0.5, 1.0])
                                              for i in range(4)})
            value = reward(goals, ws)
            assert -1.0 <= value <= 0.0
            if all(all_hold(ws.features, g.predicates) for g in goals):
                assert value == 0.0
            else:
                assert value < 0.0
        # hand-computed weighted case: 0.25/0.75 split, only 0.75 satisfied
        goals = normalize_goals([Goal("g25", [("a", ">=", 1)], 0.25),
                                 Goal("g75", [("b", ">=", 1)], 0.75)])
        value = reward(goals, WorldState(tick=0, features={"a": 0, "b": 1}))
        assert value == pytest.approx(-0.25)


# -- 9. authority mutual exclusion and forged-message immunity ------------------------------------------

def forged_control_scenario() -> dict:
    return {
        "schema_version": 1,
        "name": "forged",
        "duration_ticks": 15,
        "topology": {
            "thresholds": {"up_threshold": 0.8, "down_threshold": 0.3},
            "hosts": [
                {"host_id": "h1",
                 "services": [{"service_id": "svc", "required": True, "weight": 1.0,
                               "health": 1.0}],
                 "processes": [
                     {"process_id": "sys", "image_hash": "s", "known_good": True,
                      "owner": "system"},
                     {"process_id": "mal", "image_hash": "x", "known_good": False,
                      "owner": "malware"}]},
                {"host_id": "c2host", "services": [], "processes": []},
            ],
            "channels": [{"channel_id": "c1", "endpoints": ["h1", "c2host"],
                          "state": "spoofed"}],
        },
        "playbook": {
            "instances": [{"instance_id": "m1", "host_id": "h1", "phase": "CommsCompromise"}],
            "fallback": False,
            "spoof_probability": 1.0,  # every transiting message is forged
            "steps": [],
        },
        "sensors": {"physical": ["service_table"], "logical": ["service_weights"],
                    "transformers": ["functionality_belief"]},
        "patterns": [],
        "repertoire": [{"action_id": "watch", "category": "observe"}],
        "goals": [{"goal_id": "g", "predicates": [["functionality_belief", ">=", 0.9]],
                   "weight": 1.0}],
        "c2": {"host_id": "c2host", "script": [
            {"tick": 2, "kind": "ControlCommand", "to": "a1",
             "payload": {"command": "set_roe", "field": "max_plan_risk", "value": 0.0}},
            {"tick": 5, "kind": "HandoverGrant", "to": "a1", "payload": {}},
        ]},
        "agents": [{"agent_id": "a1", "host_id": "h1"}],
    }


def test_criterion_9_authority_and_forgery(bundled_results):
    with criterion(9, "authority mutual exclusion"):
        # handover alternation across the S3 script: one holder at every tick
        for seed in range(1, 6):
            result = bundled_results[("s3_partition", seed)]
            for agent in result.agents:
                transitions = [e["authority"] for e in result.trace
                               if e["kind"] == "agent.handover" and e["agent"] == agent]
                expected = "remote_c2"
                for authority in transitions:
                    assert authority == expected, "overlapping authority transition"
                    expected = "agent" if expected == "remote_c2" else "remote_c2"
            grants = [e for e in result.trace if e["kind"] == "agent.handover"]
            assert grants, "S3 never exercised handover"

        # forged control messages never alter agent state
        forged_seen = False
        for seed in range(1, 6):
            result = bundled_results[("s3_partition", seed)]
            forged_seen |= any(e["kind"] == "agent.message_discarded" and e.get("forged")
                               for e in result.trace)
        assert forged_seen, "S3 never exercised forged-message discard"

        config = parse_scenario(forged_control_scenario())
        for seed in range(1, 6):
            result = run_episode(config, seed)
            discarded = [e for e in result.trace if e["kind"] == "agent.message_discarded"]
            assert discarded, "spoofed channel produced no forged messages"
            assert all(e["reason"] == "invalid_auth_tag" for e in discarded)
            assert not any(e["kind"] in ("agent.control_applied", "agent.handover",
                                         "agent.control_queued")
                           for e in result.trace)


# -- 10. explainability sufficiency --------------------------------------------------------------------

def recompute_deliberative_choice(entry: dict) -> list[str]:
    survivors = [c for c in entry["candidates"] if c["roe_ok"]]
    assert survivors, "released plan with no surviving candidate"
    survivors.sort(key=lambda c: (-c["utility"], c["actions"]))
    return survivors[0]["actions"]


def test_criterion_10_explainability(bundled_results, bundled_configs):
    with criterion(10, "explainability sufficiency"):
        checked = 0
        for (name, _seed), result in bundled_results.items():
            categories = {a["action_id"]: a["category"]
                          for a in bundled_configs[name].raw["repertoire"]}
            for entry in result.decision_log:
                if entry["chosen"]["no_action"]:
                    continue
                checked += 1
                entries = entry["chosen"]["entries"]
                if entry["path"] == "fast":
                    evaluated = entry["rationale"]["rules_evaluated"]
                    firing = next(e["rule"] for e in evaluated
                                  if e["condition_held"] and e["roe_ok"])
                    assert entry["rationale"]["deadline_ticks"] < \
                        entry["rationale"]["fast_deadline_ticks"]
                    assert entries[0]["action"] == entry["chosen"]["action_id"]
                    # the chosen action is the one named by the first firing rule
                    first_firing_index = min(i for i, e in enumerate(evaluated)
                                             if e["condition_held"] and e["roe_ok"])
                    assert all(not (e["condition_held"] and e["roe_ok"])
                               for e in evaluated[:first_firing_index])
                    continue
                rationale = entry["rationale"]
                winner = recompute_deliberative_choice(entry)
                assert winner == rationale["winner"], entry
                trimmed = {t["action"] for t in rationale["trims"]}
                proposed = [e["action"] for e in entries if e["origin"] == "proposed"]
                assert proposed == [a for a in winner if a not in trimmed]
                assert rationale["gate"]["released"] is True
                assert rationale["gate"]["inaction_loss"] - rationale["gate"]["plan_loss"] > 0
                assert entries[-1]["action"] == "verify_effects"
                destructive_positions = [i for i, e in enumerate(entries)
                                         if categories.get(e["action"]) == "destructive"]
                if destructive_positions:
                    snapshot_positions = [i for i, e in enumerate(entries)
                                          if e["action"] == "snapshot_host"]
                    assert snapshot_positions and \
                        snapshot_positions[0] < destructive_positions[0]
        assert checked > 0
