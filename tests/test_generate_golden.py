import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_golden.py"


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("generate_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed(golden):
    """The committed golden values, shaped as compute() returns fresh ones."""
    agent_off = {name: json.loads(golden.agent_off_path(name).read_text())
                 for name in golden.BUNDLED}
    return agent_off, json.loads(golden.DIGESTS.read_text()), []


def test_check_exits_0_when_nothing_differs(golden, monkeypatch, capsys):
    monkeypatch.setattr(golden, "compute", lambda: committed(golden))
    assert golden.main(["--check"]) == 0
    assert capsys.readouterr().out == "unchanged\n"


def test_check_names_each_differing_file_and_exits_1(golden, monkeypatch, capsys):
    agent_off, digests, batch_differs = copy.deepcopy(committed(golden))
    digests["s2_lateral_hunt"]["digests_by_seed"]["7"]["trace"] = "0" * 64
    agent_off["s3_partition"]["metrics_by_seed"]["20"]["harm_events"] += 1
    monkeypatch.setattr(golden, "compute", lambda: (agent_off, digests, batch_differs))
    assert golden.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s2_lateral_hunt seed 7: trace",
        "s3_partition seed 20: agent_off",
    ]


@pytest.mark.parametrize("skew, out", [(0, "unchanged"), (1, "s1_comms_spoof: batch")],
                         ids=["batch_equal", "batch_differs"])
def test_check_compares_batch_metrics_with_lone_episodes(golden, monkeypatch, capsys,
                                                         skew, out):
    monkeypatch.setattr(golden, "BUNDLED", ("s1_comms_spoof",))
    monkeypatch.setattr(golden, "SEEDS", range(1, 4))
    run_batch = golden.run_batch

    def skewed(config, seeds):
        batch = run_batch(config, seeds)
        batch["per_seed"]["2"]["harm_events"] += skew
        return batch
    monkeypatch.setattr(golden, "run_batch", skewed)
    assert golden.main(["--check"]) == skew
    assert capsys.readouterr().out.splitlines() == [out]
