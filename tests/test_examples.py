"""Every example must actually run.

The examples are roots of the reachability rule in
``tests/test_repo_layout.py``: a module they import counts as read. A
rotted example must therefore fail here rather than keep dead code
"reached". Each one runs as a script in a fresh interpreter, in a
scratch directory, with warnings as errors.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    completed = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
