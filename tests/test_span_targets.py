"""Every target of the traced benchmark run resolves.

`perfbench/spans.py` wraps defsim functions by name for `perfbench/run.py
--trace 1`. A deletion or rename in defsim that leaves a stale name in its
`TARGETS` fails here rather than in the first traced run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402


def test_every_span_target_installs_and_uninstalls():
    assert [name for owner, attr, name in spans.TARGETS if attr not in vars(owner)] == []
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in spans.TARGETS]
    uninstall = spans.install(spans.SpanRecorder())
    try:
        assert all(vars(owner)[attr].__wrapped__ is original
                   for owner, attr, original in originals)
    finally:
        uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
