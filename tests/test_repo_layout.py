"""The tree has three places with three jobs, and the docs know it.

``src/repro`` runs, ``experiments/`` reproduces the paper, ``bench/``
measures the system. These checks keep the prose pointing at files that
exist and keep the experiments a leaf nothing else depends on.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "TUTORIAL.md",
    ROOT / ".github" / "workflows" / "ci.yml",
    *sorted((ROOT / "src" / "repro").rglob("*.py")),
]
#: A repo path or trajectory-file name as the documents write them.
PATH_RE = re.compile(
    r"(?<![\w./-])((?:experiments|bench|tests)/[\w./-]*|BENCH_\w+\.json)"
)


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
