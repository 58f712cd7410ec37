"""The tree has three places with three jobs, and the docs know it.

``src/repro`` runs, ``experiments/`` reproduces the paper, ``bench/``
measures the system. These checks keep the prose pointing at files that
exist and keep the experiments a leaf nothing else depends on.
"""

from __future__ import annotations

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
DOCUMENTS = [
    *PROSE,
    ROOT / ".github" / "workflows" / "ci.yml",
    *sorted((ROOT / "src" / "repro").rglob("*.py")),
]
#: A repo path or trajectory-file name as the documents write them.
PATH_RE = re.compile(
    r"(?<![\w./-])((?:experiments|bench|tests)/[\w./-]*|BENCH_\w+\.json)"
)

#: A backticked span of prose, and a dotted ``repro`` name inside one.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
DOTTED_RE = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


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


def test_documents_name_only_repro_names_that_resolve():
    """A backticked ``repro.…`` name in the prose imports or resolves,
    so a deleted module, class or function cannot linger in the docs."""
    problems = []
    for document in PROSE:
        text = document.read_text(encoding="utf-8")
        names = {
            match.group(0)
            for span in CODE_SPAN_RE.finditer(text)
            for match in DOTTED_RE.finditer(span.group(1))
        }
        for name in sorted(names):
            try:
                _resolve(name)
            except (ImportError, AttributeError) as error:
                problems.append(f"{_relative(document)}: {name}: {error}")
    assert not problems, "\n".join(problems)
