"""The tree has three places with three jobs, and the docs know it.

``src/repro`` runs, ``experiments/`` reproduces the paper, ``bench/``
measures the system. These checks keep the prose pointing at files and
names that exist, keep the experiments a leaf nothing else depends on,
keep every module of the program reached from something that runs, and
keep every import read.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROSE = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "TUTORIAL.md",
]
SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))
DOCUMENTS = [*PROSE, ROOT / ".github" / "workflows" / "ci.yml", *SOURCES]
#: A repo path or trajectory-file name as the documents write them.
PATH_RE = re.compile(
    r"(?<![\w./-])((?:experiments|bench|tests)/[\w./-]*|BENCH_\w+\.json)"
)

#: A backticked span of prose, and a dotted ``repro`` name inside one.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
DOTTED_RE = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
#: A Sphinx cross-reference to a ``repro`` name (``:func:`~repro.x.f```).
ROLE_RE = re.compile(r":(?:\w+:)?\w+:`~?(repro(?:\.\w+)+)`")


#: The retired tree's name, spelled so that this file does not itself
#: match a grep for it.
RETIRED = "benchmarks" + "/"


def _relative(path: Path) -> str:
    return str(path.relative_to(ROOT))


def test_documents_name_only_paths_that_exist():
    problems = []
    for document in DOCUMENTS:
        text = document.read_text(encoding="utf-8")
        if RETIRED in text:
            problems.append(f"{_relative(document)}: names the retired {RETIRED}")
        problems.extend(
            f"{_relative(document)}: {name} does not exist"
            for name in sorted(
                {match.group(1).rstrip(".") for match in PATH_RE.finditer(text)}
            )
            if not (ROOT / name).exists()
        )
    assert not problems, "\n".join(problems)


def test_nothing_imports_the_experiments():
    """``experiments/`` is a leaf: the program, its tests and its
    benchmark must all work with the directory deleted."""
    modules = {
        path.stem
        for path in (ROOT / "experiments").glob("bench_*.py")
    }
    names = "|".join(sorted(modules | {"experiments"}))
    importing = re.compile(
        rf"^\s*(?:from|import)\s+(?:{names})\b", re.MULTILINE
    )
    offenders = [
        _relative(path)
        for tree in ("src", "tests", "bench")
        for path in sorted((ROOT / tree).rglob("*.py"))
        if importing.search(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, f"these import from experiments/: {offenders}"


def _resolve(name: str) -> object:
    """Import the longest module prefix of a dotted name, then walk the
    rest as attributes (``AttributeError`` if one is gone)."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            found = getattr(found, attribute)
        return found
    raise ModuleNotFoundError(name)


def _named(document: Path) -> set[str]:
    """The ``repro.…`` names a document points at: backticked in the
    prose, Sphinx roles in the program's docstrings."""
    text = document.read_text(encoding="utf-8")
    if document.suffix == ".py":
        return set(ROLE_RE.findall(text))
    return {
        match.group(0)
        for span in CODE_SPAN_RE.finditer(text)
        for match in DOTTED_RE.finditer(span.group(1))
    }


def test_documents_name_only_repro_names_that_resolve():
    """A backticked ``repro.…`` name in the prose, or a Sphinx-role
    reference to one in a docstring, imports or resolves, so a deleted
    module, class or function cannot linger in the docs."""
    problems = []
    for document in [*PROSE, *SOURCES]:
        for name in sorted(_named(document)):
            try:
                _resolve(name)
            except (ImportError, AttributeError) as error:
                problems.append(f"{_relative(document)}: {name}: {error}")
    assert not problems, "\n".join(problems)


# A module of ``src/repro`` earns its place by being reached from
# something that runs: the serving worker, ``python -m repro``, an
# experiment, an example, the benchmark, or a code block of the docs.
# Its own tests are deliberately not roots. The graph is read from the
# source alone (nothing is imported), with the lazy package tables of
# :mod:`repro._lazy` resolved from their dict literals.

#: Modules that run as entry points of their own.
ROOT_MODULES = ("repro.serving.worker", "repro.__main__")
#: Trees whose every ``.py`` file is a root.
ROOT_TREES = ("experiments", "examples", "bench")
#: A fenced Python block of a document.
PYTHON_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.S)


def _module_files(src: Path) -> dict[str, Path]:
    """Dotted name → file for every module under ``src/repro``."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _surface_table(tree: ast.Module, package: str) -> dict[str, str]:
    """Exported name → defining module, from a package's ``surface(...)``
    dict literal."""
    table = {}
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "surface"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Dict)
        ):
            continue
        for key, value in zip(node.args[1].keys, node.args[1].values):
            module = ast.literal_eval(key)
            if module.startswith("."):
                module = package + module
            for name in ast.literal_eval(value).split():
                table[name] = module
    return table


def _imports(tree: ast.AST, package: str | None) -> set[tuple[str, str | None]]:
    """``(module, name)`` pairs a piece of code imports, ``name`` being
    ``None`` for a whole module. Relative imports are resolved against
    ``package``."""
    found: set[tuple[str, str | None]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if package is None:
                    continue
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                module = ".".join([*base, *filter(None, [node.module])])
            else:
                module = node.module
            found.update((module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in ("import_module", "find_spec")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            found.add((node.args[0].value, None))
    return found


def unreached_modules(
    src: Path, root_modules: tuple[str, ...], root_code: list[str]
) -> list[str]:
    """The modules of ``src/repro`` that no root reaches.

    An edge is an ``import``/``from`` statement anywhere in a module
    (function bodies included), a relative import, a package name
    resolved through its ``surface(...)`` table, or an
    ``importlib.import_module``/``find_spec`` call on a literal. A
    reached module also reaches the packages that contain it.
    """
    files = _module_files(src)
    trees = {
        name: ast.parse(path.read_text(encoding="utf-8"))
        for name, path in files.items()
    }
    packages = {name for name, path in files.items() if path.name == "__init__.py"}
    tables = {name: _surface_table(trees[name], name) for name in packages}

    def targets(pairs: set[tuple[str, str | None]]) -> set[str]:
        out = set()
        for module, name in pairs:
            out.add(module)
            if name is not None:
                out.add(tables.get(module, {}).get(name, f"{module}.{name}"))
        return out & files.keys()

    edges = {
        name: targets(
            _imports(tree, name if name in packages else name.rpartition(".")[0])
        )
        for name, tree in trees.items()
    }
    frontier = set(root_modules)
    for code in root_code:
        frontier |= targets(_imports(ast.parse(code), None))
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached or module not in files:
            continue
        reached.add(module)
        frontier |= edges[module]
        frontier.add(module.rpartition(".")[0])
    return sorted(files.keys() - reached)


def _root_code() -> list[str]:
    code = [
        path.read_text(encoding="utf-8")
        for tree in ROOT_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
    ]
    for document in PROSE:
        code.extend(PYTHON_BLOCK_RE.findall(document.read_text(encoding="utf-8")))
    return code


def test_every_module_is_reached_from_something_that_runs():
    """No ``src/repro`` module is read only by its own tests."""
    assert set(ROOT_MODULES) <= _module_files(ROOT / "src").keys()
    unreached = unreached_modules(ROOT / "src", ROOT_MODULES, _root_code())
    assert not unreached, f"nothing but tests reaches: {unreached}"


def test_a_planted_module_nothing_reaches_is_found(tmp_path):
    """One edge of each kind, and two modules no edge reaches: one that
    nothing names, one that only its package's table names."""
    files = {
        "repro/__init__.py": 'surface(__name__, {".a": "A"})\n',
        "repro/a.py": "def load():\n    from . import b\n",
        "repro/b.py": 'import importlib\nimportlib.import_module("repro.pkg.c")\n',
        "repro/worker.py": "from .pkg.f import serve\n",
        "repro/planted.py": "",
        "repro/pkg/__init__.py": (
            'surface(__name__, {".c": "C", "repro.pkg.d": "D", ".e": "E"})\n'
        ),
        "repro/pkg/c.py": "from repro.pkg import E\n",
        "repro/pkg/d.py": "",
        "repro/pkg/e.py": "",
        "repro/pkg/f.py": "import repro.deep.g\n",
        "repro/deep/__init__.py": "",
        "repro/deep/g.py": "",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unreached_modules(
        tmp_path, ("repro.worker",), ["from repro import A"]
    ) == ["repro.pkg.d", "repro.planted"]


#: The trees the unused-import rule reads (the lint job's F401, kept
#: in tier-1 so it holds where ruff is not installed).
LINTED = ("src", "tests", "bench", "experiments", "examples")


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names an annotation reads, its quoted parts included."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _annotation_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` of each name ``source`` imports and never reads.

    A name counts as read where any code of the module loads it, where
    an annotation (quoted or not) names it, or where ``__all__``
    re-exports it; ``__future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node.returns
        ):
            read |= _annotation_names(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read |= {
                item.value
                for item in node.value.elts
                if isinstance(item, ast.Constant)
            }
    return [
        f"{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read
    ]


def test_no_module_imports_a_name_it_never_reads():
    problems = [
        f"{_relative(path)}:{unused}"
        for tree in LINTED
        for path in sorted((ROOT / tree).rglob("*.py"))
        for unused in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not problems, "unused imports:\n" + "\n".join(problems)


def test_a_planted_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as codec\n"
        "from typing import TYPE_CHECKING, Any\n"
        "from collections import OrderedDict, deque\n"
        "if TYPE_CHECKING:\n"
        "    from fractions import Fraction\n"
        "    from decimal import Decimal\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "def f(x: 'Fraction | None') -> OrderedDict:\n"
        "    import re\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [
        "3: codec", "4: Any", "5: deque", "8: Decimal", "12: re",
    ]
