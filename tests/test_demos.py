"""The scripts in demos/ run from the source tree and print what they promise."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# one line of each demo's output, compared with its surrounding blanks stripped
PINNED = {
    "lie_growth.py": "free, 2 generators     (2, 1, 2, 3, 6)    [1, 2, 4, 8, 16, 32] [1, 2, 0]",
    "separation.py": "p = 2: separated at (degree, precision) = (2, 2)",
    "tour.py": "a b c  ~?  c b a             yes, conjugate by a^-1",
}


@pytest.mark.parametrize("demo", sorted(PINNED))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert PINNED[demo] in [line.strip() for line in proc.stdout.splitlines()]


def test_readme_quick_start(capsys):
    # the "Library quick start" block of the README, run as written
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["a c", "a^-1", "b", "a c"]
