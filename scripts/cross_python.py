"""Check the committed golden files under every installed CPython from 3.10 on.

    python3 scripts/cross_python.py

Runs `scripts/generate_golden.py --check` with each interpreter found under
pyenv's versions directory ($PYENV_ROOT/versions, by default
~/.pyenv/versions), importing defsim from this checkout's src/, once under
each string-hash seed of HASH_SEEDS. It prints one line per (interpreter,
hash seed): the version, the seed and the last line the check printed
("unchanged" when the bytes match; on a failure, also the exit code and the
number of lines, one per differing file). Exits 1 if any check fails or no
interpreter is found. Needs only the standard library.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
MINIMUM = (3, 10)
HASH_SEEDS = ("0", "12345")  # PYTHONHASHSEED values: no byte may depend on set order


def interpreters() -> list[tuple[str, Path]]:
    """(version, python) for each installed CPython at or above MINIMUM, oldest first."""
    found = []
    for path in VERSIONS.glob("*"):
        match = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", path.name)
        python = path / "bin" / "python3"
        if match and tuple(map(int, match.groups()))[:2] >= MINIMUM and python.exists():
            found.append((tuple(map(int, match.groups())), path.name, python))
    return [(name, python) for _, name, python in sorted(found)]


def main() -> int:
    found = interpreters()
    if not found:
        print(f"no CPython >= {'.'.join(map(str, MINIMUM))} under {VERSIONS}")
        return 1
    failed = False
    for name, python in found:
        for hash_seed in HASH_SEEDS:
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [str(python), str(ROOT / "scripts" / "generate_golden.py"), "--check"],
                capture_output=True, text=True, env=env, cwd=ROOT)
            lines = (done.stdout + done.stderr).strip().splitlines()
            last = lines[-1] if lines else "no output"
            label = f"{name} PYTHONHASHSEED={hash_seed}"
            print(f"{label}: {last}" if done.returncode == 0 else
                  f"{label}: exit {done.returncode}, {len(lines)} lines, the last: {last}")
            failed |= done.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
