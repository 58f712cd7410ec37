"""Every package surface is one lazy table (:mod:`repro._lazy`).

A package ``__init__`` imports nothing but the helper and names each
export once, beside the module that defines it. The checks: the table
is the whole ``__init__``; every exported name resolves to the
defining module's object and is listed by ``dir``; importing every
package loads no submodule; child modules still resolve as attributes;
and a name written twice fails at import.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._lazy import surface

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def _fresh(script: str) -> list[str]:
    """The last stdout line of ``script`` in a new interpreter, as JSON."""
    output = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    return json.loads(output.splitlines()[-1])


def test_every_package_is_found():
    assert len(PACKAGES) == 16
    assert {"repro.data.store", "repro.serving", "repro.telemetry"} <= set(
        PACKAGES
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_the_init_is_one_surface_table(package):
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    imports = [
        node for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert [ast.unparse(node) for node in imports] == [
        "from repro._lazy import surface"
    ]
    targets = [
        ast.unparse(target)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
    ]
    assert "(__all__, __getattr__, __dir__)" in targets


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_definition(package):
    module = importlib.import_module(package)
    assert module.__all__ == sorted(set(module.__all__))
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed
        defined_in = getattr(value, "__module__", None)
        if isinstance(value, type(repro)):
            assert value.__name__ == f"{package}.{name}"
        elif defined_in is not None and defined_in.startswith("repro."):
            assert getattr(sys.modules[defined_in], name) is value


def test_importing_every_package_loads_no_submodule():
    loaded = _fresh(
        "import importlib, json, sys\n"
        f"for name in {PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro')))"
    )
    assert loaded == sorted([*PACKAGES, "repro._lazy"])


def test_a_name_loads_only_its_module():
    loaded = _fresh(
        "import json, sys\n"
        "from repro.models import FiniteStateMachine\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro.models'))))"
    )
    assert loaded == ["repro.models", "repro.models.fsm"]


def test_child_modules_resolve_as_attributes():
    names = _fresh(
        "import json\n"
        "import repro\n"
        "print(json.dumps([repro.core.engine.__name__,"
        " repro.data.store.reader.__name__, repro.apps.credit.__name__]))"
    )
    assert names == [
        "repro.core.engine", "repro.data.store.reader", "repro.apps.credit"
    ]


def test_star_import_binds_the_whole_surface():
    namespace: dict = {}
    exec("from repro.telemetry import *", namespace)
    assert set(repro.telemetry.__all__) <= set(namespace)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        repro.core.nothing_here  # noqa: B018
    assert not hasattr(repro.core, "__wrapped__")


def test_a_name_written_twice_fails_at_import():
    with pytest.raises(ImportError, match="repro.core.TopKQuery"):
        surface(
            "repro.core", {".query": "TopKQuery", ".engine": "TopKQuery"}
        )


def test_moved_names_keep_their_package_paths():
    from repro.index.onion_cache import OnionIndexCache
    from repro.service import COMPOSITE_STRATEGIES
    from repro.service import OnionIndexCache as via_service
    from repro.service.routing import OnionIndexCache as via_routing

    assert via_service is via_routing is OnionIndexCache
    assert repro.index.OnionIndexCache is OnionIndexCache
    assert COMPOSITE_STRATEGIES == ("naive", "dp", "fast")
