"""Every demo script runs to completion and prints its pinned bytes, and
README's library quick start runs as written."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout: the demos print Python ints and numpy's str
# of integer arrays, and demo 03 prints the repr of ``code.dims``
STDOUT_SHA256 = {
    "01_finite_fields.py": "12d5f2ef23f4eb02f2f943b1f0859099654706c402030939b944371fabb39ef7",
    "02_tower_places.py": "acf207439df2f91c231c377ca5bc6f7fb792ce89b5034052c7e7674f64d2758f",
    "03_rational_code_walkthrough.py": "27c955239e2f5904ff7292c793c92cb9d91cf82a5dbac431bf84fdd672a89780",
    "04_tower_code.py": "3bde8bca640b781d051e1f6d3a681b6732594e2eecfbed57a6b06c9aabb8e41b",
    "05_hermitian_code.py": "73610574e2bf26e523da43158bbcaec68544f473faad6e4d99b43c3c360ea6ed",
    "06_bounds_and_regimes.py": "87986fd556bf26f6d8d51d9eeaa3dbc27f0fc9930e937819d93b490bdb9af3aa",
}


def test_demos_present():
    assert DEMOS
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name], proc.stdout.decode()


def test_readme_library_quick_start_runs(capsys):
    """The ```python block under README's "## Quick start (library)" runs
    as written, asserts and all."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start (library)\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "construct_lrc(" in block
    exec(compile(block, "README.md: Quick start (library)", "exec"), {})
    assert "CodeParams(n=6, k=2, d_designed=2, r=(2, 1))" in capsys.readouterr().out
