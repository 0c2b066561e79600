"""Every module of the package uses every name it imports, every top-level
name it defines is referred to somewhere, and importing the CLI loads neither
mpmath, the process pool nor fractions."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "decoupling_lab"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression of the module reads.

    A name counts as used when it appears as a bare name anywhere (the base of
    an attribute access, an annotation, a call); ``__future__`` imports are
    exempt.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "from typing import Callable, Sequence\n"
        "from .spaces import Space as S\n"
        "def f(x: Sequence) -> S:\n"
        "    return np.zeros(os.cpu_count())\n"
    )
    assert unused_imports(source) == ["line 2: sys", "line 4: Callable"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_names(source: str) -> dict[str, tuple[int, int]]:
    """Each top-level def, class and assigned name, with the lines of its definition."""
    names = {}
    for node in ast.parse(source).body:
        span = (node.lineno, node.end_lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = span
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = span
    return names


def unreferenced_names(source: str, others: list[str]) -> list[str]:
    """Top-level names of source that occur as a whole word nowhere outside
    their own definition, neither in source nor in the other texts."""
    lines = source.splitlines()
    unused = []
    for name, (first, last) in top_level_names(source).items():
        rest = "\n".join(lines[:first - 1] + lines[last:])
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for text in (rest, *others)):
            unused.append(name)
    return unused


def test_checker_flags_unreferenced_names():
    source = (
        "LIMIT = 3\n"
        "A, (B, C) = 1, (2, 3)\n"
        "def f(x):\n"
        "    \"f calls f.\"\n"
        "    return f(x - 1) + LIMIT + A\n"
        "def g():\n"
        "    return g()\n"
        "class Seen:\n"
        "    pass\n"
    )
    assert unreferenced_names(source, ["print(f, B, Seen_not)"]) == ["C", "g", "Seen"]


def _corpus() -> dict[Path, str]:
    return {path: path.read_text()
            for folder in ("src", "tests", "perfbench")
            for path in sorted((ROOT / folder).rglob("*.py"))}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_top_level_names(path):
    corpus = _corpus()
    others = [text for other, text in corpus.items() if other != path.resolve()]
    assert unreferenced_names(path.read_text(), others) == []


def test_cli_import_defers_mpmath_and_the_process_pool():
    code = ("import sys, decoupling_lab.cli; "
            "print(sorted(m for m in ('mpmath', 'concurrent.futures.process', 'fractions') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
