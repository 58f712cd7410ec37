"""What a process imports before it does anything (no wall clock).

A fleet worker's start is mostly imports, paid once in the server
process and again in every spawned worker. scipy (a third of the module
count) is needed only where a hull is peeled or k-means runs, and
asyncio only where an HTTP loop runs — neither on a worker's way to its
serve loop. Each check runs in a fresh interpreter, because this one has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _loaded_after(statement: str) -> set[str]:
    """Top-level package names in ``sys.modules`` after ``statement``."""
    script = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
    )
    output = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    return set(json.loads(output.splitlines()[-1]))


def test_a_worker_imports_neither_scipy_nor_asyncio():
    loaded = _loaded_after("import repro.serving.worker")
    assert "repro" in loaded and "numpy" in loaded
    assert not {"scipy", "asyncio"} & loaded


def test_the_serving_package_imports_no_scipy():
    # The parent side runs the HTTP loop, so asyncio is its business.
    loaded = _loaded_after(
        "import repro.serving\n"
        "from repro.serving import ServingServer, WorkerFleet"
    )
    assert "asyncio" in loaded
    assert "scipy" not in loaded


def test_the_deferral_is_not_a_stub():
    loaded = _loaded_after(
        "import numpy as np\n"
        "from repro.index.hull import hull_vertices\n"
        "square = np.array([[0., 0.], [0., 1.], [1., 0.], [1., 1.], [.5, .5]])\n"
        "assert hull_vertices(square).tolist() == [0, 1, 2, 3]"
    )
    assert "scipy" in loaded
