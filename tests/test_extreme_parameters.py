"""A sweep of extreme exponents through the CLI, in process: every verify
suite, estimate and atlas on three spaces at p from 1e-300 to 1e300.  Each
run must end in a report (exit 0, or 1 only when some row has holds=false)
or in a refusal (exit 2 with one stderr line), never in an exception.  The
runs are derandomized (seed 0) and small."""

import contextlib
import io

import numpy as np
import pytest

import decoupling_lab.cli as cli

SPACES = ("l2:2", "lp:0.5:3", "linf:3")
PS = ("1e-300", "1e-5", "1e-3", "700", "1e300")
FAMILIES = ("paley-walsh-multipliers", "gaussian-multipliers")


def _runs(p):
    for space in SPACES:
        for suite in cli.VERIFY_SUITES[:-1]:
            yield ["verify", "--suite", suite, "--space", space, "--p", p, "--depth", "3",
                   "--trials", "3"]
        for family in FAMILIES:
            search = ["--family", family, "--depth", "2", "--trials", "20", "--restarts", "1"]
            yield ["estimate", "--space", space, "--p", p, *search]
            yield ["atlas", "--spaces", space, "--ps", p, *search]


def _outcome(argv) -> str:
    """What is wrong with the run's ending, or "" when nothing is."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        try:
            code = cli.main([*argv, "--seed", "0", "--workers", "1"])
        except Exception as exc:  # the sweep reports whatever escapes
            return f"raised {type(exc).__name__}: {exc}"
    if code == 1 and '"holds":false' not in out.getvalue():
        return "exit 1 without a row that has holds=false"
    if code == 2 and err.getvalue().count("\n") != 1:
        return f"exit 2 with stderr {err.getvalue()!r}"
    if code not in (0, 1, 2):
        return f"exit {code}"
    return ""


@pytest.mark.parametrize("p", PS)
def test_extreme_exponents_end_in_a_report_or_a_refusal(p):
    failures = [(" ".join(argv), what) for argv in _runs(p) if (what := _outcome(argv))]
    assert failures == []
