"""Every module of the package uses every name it imports, every top-level
name it defines is referred to somewhere, and each subcommand loads only the
modules it runs: --help and bounds load no numpy, no run loads mpmath or
numpy.ma (which np.quantile and np.unique load; verify takes its thresholds
and distinct values without them), --help loads none of hashlib,
dataclasses, inspect and decimal, and a one-worker run loads neither the
process pool nor fractions."""

import ast
import json
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


# Each subcommand imports only the package modules it runs; every run also
# loads cli, reports and bounds (the argument parser's name tables).
IMPORT_SETS = {
    "help": (["--help"], []),
    "bounds": (["bounds", "--formula", "extrap-c", "--p", "2", "--q", "4", "--A", "2",
                "--b", "0.1"], []),
    "estimate": (["estimate", "--space", "l2:2", "--depth", "2", "--trials", "4",
                  "--restarts", "1"], ["constants", "probmodel", "rng", "spaces"]),
    "atlas": (["atlas", "--spaces", "l2:2", "--ps", "2", "--depth", "2", "--trials", "4",
               "--restarts", "1"], ["constants", "probmodel", "rng", "spaces"]),
    "bdg": (["bdg", "--space", "l2:2", "--p", "2", "--samples", "64", "--steps", "4"],
            ["rng", "spaces", "stochint"]),
    "verify": (["verify", "--suite", "all", "--depth", "2", "--trials", "2"],
               ["inequalities", "probmodel", "rng", "spaces"]),
    # of the pair suites, only extrapolation evaluates a closed form
    **{f"verify-{suite}": (["verify", "--suite", suite, "--depth", "2", "--trials", "2"],
                           ["inequalities", "probmodel", "rng", "spaces"])
       for suite in ("tail", "goodlambda", "davis")},
}

RUN_CLI = """
import contextlib, io, json, sys
from decoupling_lab import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("command", sorted(IMPORT_SETS))
def test_each_subcommand_imports_only_what_it_runs(command):
    argv, runs = IMPORT_SETS[command]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", RUN_CLI, *argv, "--seed", "0", "--workers", "1"],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    code, modules = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    package = sorted(m.split(".")[1] for m in modules if m.startswith("decoupling_lab."))
    assert package == sorted(["bounds", "cli", "reports", *runs])
    # bounds and --help start without numpy; closed forms are evaluated in decimal
    assert ("numpy" in modules) == bool(runs)
    assert not {"mpmath", "numpy.ma"} & set(modules)
    # one worker starts no process pool, and nothing loads fractions
    assert not {"concurrent.futures.process", "fractions"} & set(modules)


RUN_SUITES = """
import contextlib, io, json, sys
from decoupling_lab import cli
loaded = {}
for suite in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--suite", suite, "--space", "lp:0.5:3", "--depth", "4",
                         "--trials", "12", "--seed", "0", "--workers", "1"])
    loaded[suite] = [code, "numpy.ma" in sys.modules]
print(json.dumps(loaded))
"""


def test_no_verify_suite_loads_numpy_ma():
    # each suite in turn in one process: a suite that loads numpy.ma is the
    # first whose entry reads True
    from decoupling_lab.cli import VERIFY_SUITES

    suites = [suite for suite in VERIFY_SUITES if suite != "all"]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", RUN_SUITES, *suites],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == {suite: [0, False] for suite in suites}


def test_help_loads_no_hashing_dataclasses_or_decimal():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", RUN_CLI, "--help"],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    code, modules = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert not {"hashlib", "dataclasses", "inspect", "decimal", "mpmath"} & set(modules)
