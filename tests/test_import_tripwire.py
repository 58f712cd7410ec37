"""What a process imports before it does anything (no wall clock).

A fleet worker's start is mostly imports, paid once in the server
process and again in every spawned worker. scipy (a third of the module
count) is needed only where a hull is peeled or k-means runs, and
asyncio only where an HTTP loop runs — neither on a worker's way to its
serve loop. Every package surface is lazy (:mod:`repro._lazy`), so a
worker also leaves out the parts of :mod:`repro` that no wire request
reaches: SPROC, the abstraction modules, the Bayesian and finite-state
model families, the R*-tree and the CSVD index. Each check runs in a
fresh interpreter, because this one has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.query import TopKQuery
from repro.data.store import ingest_synthetic
from repro.models.linear import LinearModel
from repro.serving.protocol import encode_query

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: The ``repro`` modules a serving worker has loaded once it has opened
#: its store and answered queries (91 when every package imported every
#: submodule). A new module on that path must raise this on purpose.
WORKER_MODULES = 48

#: What no wire request reaches, so no worker may load.
NOT_SERVED = (
    "repro.abstraction",
    "repro.apps",
    "repro.sproc",
    "repro.models.bayes",
    "repro.models.fsm",
    "repro.index.rtree",
    "repro.index.csvd",
    "repro.telemetry.explain",
)

#: A worker's serve loop over a store, fed from a list instead of a pipe.
_WORKER_SCRIPT = """
import json, sys
from repro.serving.protocol import WorkItem
from repro.serving.worker import StoreArchiveManifest, WorkerConfig, worker_main


class Pipe:
    def __init__(self, items):
        self.items, self.sent = list(items), []

    def recv(self):
        return self.items.pop(0)

    def send(self, reply):
        self.sent.append(reply)


payloads = json.loads(sys.argv[2])
items = [WorkItem("query", i, payload=p) for i, p in enumerate(payloads)]
items.append(WorkItem("batch", len(items), payload=payloads[:2]))
items.append(WorkItem("shutdown", len(items)))
replies = Pipe([])
worker_main(0, StoreArchiveManifest(sys.argv[1]), Pipe(items), replies, WorkerConfig())
# The ready reply plus one per query and batch; shutdown sends none.
assert [r.ok for r in replies.sent] == [True] * len(items), replies.sent
print(json.dumps(sorted(sys.modules)))
"""


def _run(*argv: str) -> str:
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout


def _loaded_after(statement: str) -> set[str]:
    """Top-level package names in ``sys.modules`` after ``statement``."""
    script = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
    )
    return set(json.loads(_run("-c", script).splitlines()[-1]))


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


def _is_under(module: str, prefix: str) -> bool:
    """``module`` is ``prefix``, inside it, or a sibling named after it
    (``repro.models.bayes`` covers ``repro.models.bayes_infer``)."""
    return module == prefix or module.startswith(prefix)


def test_a_serving_worker_loads_only_what_it_serves(tmp_path):
    store = tmp_path / "store"
    ingest_synthetic(store, size=64, n_bands=2, seed=3)
    model = LinearModel({"band0": 0.7, "band1": -0.4})
    payloads = [
        encode_query(TopKQuery(model=model, k=5)),
        encode_query(TopKQuery(model=model, k=5, maximize=False)),
        encode_query(TopKQuery(model=model, k=3), strategy="scan"),
    ]
    output = _run("-c", _WORKER_SCRIPT, str(store), json.dumps(payloads))
    loaded = json.loads(output.splitlines()[-1])
    ours = [m for m in loaded if m.split(".")[0] == "repro"]
    assert not [
        m for m in ours if any(_is_under(m, p) for p in NOT_SERVED)
    ]
    assert not {"scipy", "asyncio"} & {m.split(".")[0] for m in loaded}
    assert len(ours) <= WORKER_MODULES, sorted(ours)


def test_a_composite_query_still_loads_sproc():
    loaded = _run(
        "-c",
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.data.raster import RasterLayer, RasterStack\n"
        "from repro.metrics.registry import MetricsRegistry\n"
        "from repro.service import RetrievalService\n"
        "from repro.sproc import CompositeQuery\n"
        "stack = RasterStack({'a': RasterLayer('a', np.ones((8, 8)))})\n"
        "service = RetrievalService(stack, leaf_size=4, "
        "registry=MetricsRegistry())\n"
        "query = CompositeQuery(['x', 'y'], np.eye(2, 4) * 0.8 + 0.1)\n"
        "answers, decision = service.composite_top_k(query, 2)\n"
        "assert len(answers) == 2 and decision.chosen in "
        "('naive', 'dp', 'fast')\n"
        "print(json.dumps(sorted(sys.modules)))",
    )
    assert "repro.sproc.arbitration" in json.loads(loaded.splitlines()[-1])
