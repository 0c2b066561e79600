"""Every module of the package uses every name it imports, and importing the
CLI loads neither mpmath nor the process pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "decoupling_lab"


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


def test_cli_import_defers_mpmath_and_the_process_pool():
    code = ("import sys, decoupling_lab.cli; "
            "print(sorted(m for m in ('mpmath', 'concurrent.futures.process') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
