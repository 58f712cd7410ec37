"""Lazy package surfaces (PEP 562).

Every package ``__init__`` in :mod:`repro` is one call to
:func:`surface`: a table from each defining module to the names the
package re-exports from it. A name is written once, in that table, and
nothing is imported until the name is first read. Importing a package
therefore costs one small module, so a process loads only what it
touches: a fleet worker opens a store and serves tile queries without
loading the SPROC, Bayesian, finite-state or abstraction code its
packages also export.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Any, Callable


def surface(
    package: str, exports: dict[str, str], submodules: str = ""
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module — relative to ``package`` (``".engine"``)
    or absolute — to the space-separated names re-exported from it.
    ``submodules`` names child modules that are public as themselves.
    Any child module also resolves as an attribute on first access, as
    it would have after an eager import. A name listed twice raises.
    """
    origin: dict[str, str] = {}
    for module, names in exports.items():
        for name in names.split():
            if name in origin:
                raise ImportError(f"{package}.{name} is exported twice")
            origin[name] = module
    public = sorted([*origin, *submodules.split()])

    def __getattr__(name: str) -> Any:
        if name in origin:
            value = getattr(importlib.import_module(origin[name], package), name)
        elif not name.startswith("__") and importlib.util.find_spec(
            f"{package}.{name}"
        ):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *public})

    return public, __getattr__, __dir__
