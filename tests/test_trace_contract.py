"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps package
functions from outside by name and binds its counting hooks to their
positional arguments.  These tests run it over toy jobs of every subcommand and
every verify suite, so a renamed or re-signatured traced function fails here
and not only in the benchmark's own suite."""

import contextlib
import io
import types
from pathlib import Path

import decoupling_lab.cli as cli
import decoupling_lab.stochint as st

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

JOBS = [
    ["verify", "--suite", "levy", "--space", "l2:2", "--depth", "3", "--trials", "4"],
    ["verify", "--suite", "all", "--space", "lp:0.5:2", "--depth", "2", "--trials", "2"],
    ["estimate", "--space", "l2:2", "--depth", "2", "--trials", "10", "--restarts", "1"],
    ["bounds", "--formula", "extrap-c", "--p", "2", "--q", "4", "--A", "2", "--b", "0.1"],
    ["bdg", "--space", "linf:2", "--samples", "300", "--steps", "8"],
    ["atlas", "--spaces", "l2:2", "--ps", "2", "--depth", "2", "--trials", "10",
     "--restarts", "1"],
]


def _tracing():
    """perfbench/tracing.py as a module, compiled from its source (no bytecode
    is written next to it)."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--seed", "0", "--workers", "1"]) == 0
    return out.getvalue()


def test_traced_jobs_print_the_same_reports():
    plain = [_stdout(argv) for argv in JOBS]
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        traced = [_stdout(argv) for argv in JOBS]
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracer.metrics(1.0)
    # bdg's four default exponents come from one simulation of one chunk
    assert metrics["stochint.simulate.calls"] == 1
    assert metrics["stochint.simulate_useful_frac"] == 1.0
    assert metrics["stochint.coefficients_per_chunk"] == 1
    assert metrics["stochint.gamma_inner_draws"] == st.GAMMA_INNER * 300
    assert metrics["constants.ratio.calls"] > 0 and metrics["probmodel.g_terminal_moment.calls"] > 0
