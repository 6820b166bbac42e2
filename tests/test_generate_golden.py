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
    return agent_off, json.loads(golden.DIGESTS.read_text())


def test_check_exits_0_when_nothing_differs(golden, monkeypatch, capsys):
    monkeypatch.setattr(golden, "compute", lambda: committed(golden))
    assert golden.main(["--check"]) == 0
    assert capsys.readouterr().out == "unchanged\n"


def test_check_names_each_differing_file_and_exits_1(golden, monkeypatch, capsys):
    agent_off, digests = copy.deepcopy(committed(golden))
    digests["s2_lateral_hunt"]["digests_by_seed"]["7"]["trace"] = "0" * 64
    agent_off["s3_partition"]["metrics_by_seed"]["20"]["harm_events"] += 1
    monkeypatch.setattr(golden, "compute", lambda: (agent_off, digests))
    assert golden.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "s2_lateral_hunt seed 7: trace",
        "s3_partition seed 20: agent_off",
    ]
