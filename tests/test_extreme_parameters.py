"""The refusal contract through the CLI at extreme parameters.

Each run must end in a report (exit 0, or 1 only when some row has
holds=false) or in a refusal (exit 2 with one stderr line), never in an
exception or a traceback.  A sweep runs every verify suite, estimate and
atlas in process on three spaces at p from 1e-300 to 1e300; a derandomized
hypothesis test draws whole command lines and runs each as a child with
numpy's default float warnings, under an address-space limit and a timeout.
The in-process runs see numpy's float warnings as errors (pytest's
``error::RuntimeWarning``), so both check that the CLI silences them itself.
All runs are seeded (seed 0) and small."""

import contextlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import decoupling_lab.cli as cli
from decoupling_lab.bounds import FORMULAS
from decoupling_lab.names import DIRECTIONS, FAMILIES

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
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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


# the grammar's kinds, with extreme exponents and one wide nested space
DIMS = st.integers(1, 4)
EXPONENTS = st.sampled_from(("0.5", "1", "3", "400", "1e300", "1e-300"))
SPACE_TEXTS = st.one_of(
    st.sampled_from(("lp:400:2", "lp:1e300:2", "nested:300x2,2x3")),
    st.builds("l2:{}".format, DIMS),
    st.builds("linf:{}".format, DIMS),
    st.builds("lp:{}:{}".format, EXPONENTS, DIMS),
    st.builds("nested:{}x{},{}x{}".format, EXPONENTS, DIMS, EXPONENTS, DIMS),
)
P_TEXTS = st.one_of(st.sampled_from(("0.5", "1", "2", "4")),
                    st.floats(min_value=1e-300, max_value=1e300).map(repr))


@st.composite
def command_lines(draw):
    """One CLI run: a subcommand and its flags, small enough for a child."""
    command = draw(st.sampled_from(("verify", "estimate", "atlas", "bdg", "bounds")))
    p, space = draw(P_TEXTS), draw(SPACE_TEXTS)
    if command == "bounds":
        return ["bounds", "--formula", draw(st.sampled_from(sorted(FORMULAS))), "--p", p,
                "--q", draw(P_TEXTS), "--A", "2", "--b", "0.1", "--d", "4", "--workers", "1"]
    if command == "bdg":
        return ["bdg", "--space", space, "--p", p, "--samples", str(draw(st.integers(1, 256))),
                "--steps", str(draw(st.integers(1, 8))),
                "--family", draw(st.sampled_from(("deterministic", "rotating", "adapted-sign"))),
                "--workers", "1"]
    depth, trials = str(draw(st.integers(1, 3))), str(draw(st.integers(1, 3)))
    if command == "verify":
        return ["verify", "--suite", draw(st.sampled_from(cli.VERIFY_SUITES)), "--space", space,
                "--p", p, "--depth", depth, "--trials", trials, "--workers", "1"]
    search = ["--direction", draw(st.sampled_from(DIRECTIONS)),
              "--family", draw(st.sampled_from(sorted(FAMILIES))),
              "--depth", depth, "--trials", trials, "--restarts", "1", "--workers", "1"]
    if command == "estimate":
        return ["estimate", "--space", space, "--p", p, *search]
    return ["atlas", "--spaces", space, "--ps", p, *search]


def _limit_address_space():
    # 1.5 GiB, in the child only
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))


def _child_env():
    """This process's environment with the package's sources on the path and
    numpy's default float warnings (no PYTHONWARNINGS)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env.update(PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1")
    return env


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "goodlambda", "--space", "l2:2", "--p", "700", "--trials", "2"],
    ["atlas", "--spaces", "l2:2", "--ps", "700,800", "--trials", "20", "--restarts", "1"],
])
def test_spawned_pool_workers_silence_float_warnings_too(argv):
    # a spawned worker inherits no numpy error state from main, unlike a forked one
    code = ("import multiprocessing, sys; multiprocessing.set_start_method('spawn'); "
            f"import decoupling_lab.cli as cli; sys.exit(cli.main({[*argv, '--workers', '2']!r}))")
    run = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, preexec_fn=_limit_address_space, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("decoupling-lab: ") and run.stderr.count("\n") == 1, run.stderr


@settings(derandomize=True, database=None, max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_lines())
@example(argv=["verify", "--suite", "symsum", "--space", "l2:2", "--p", "700", "--trials", "3",
               "--workers", "1"])
@example(argv=["verify", "--suite", "goodlambda", "--space", "l2:2", "--p", "700",
               "--trials", "3", "--workers", "1"])
@example(argv=["estimate", "--space", "l2:2", "--p", "700", "--trials", "20", "--restarts", "1",
               "--workers", "1"])
@example(argv=["verify", "--suite", "extrapolation", "--space", "l2:2", "--p", "700",
               "--trials", "3", "--workers", "2"])
# deep trees: each is refused as its increment tables are drawn
@example(argv=["verify", "--suite", "davis", "--space", "l2:4", "--depth", "18", "--trials", "20",
               "--workers", "1"])
@example(argv=["verify", "--suite", "davis", "--space", "l2:4", "--depth", "22", "--trials", "20",
               "--workers", "1"])
@example(argv=["verify", "--suite", "tail", "--space", "l2:4", "--depth", "22", "--trials", "20",
               "--workers", "1"])
# two chunks over two workers, whose norms overflow
@example(argv=["bdg", "--space", "lp:1e300:2", "--p", "2", "--samples", "4100", "--steps", "4",
               "--workers", "2"])
def test_a_child_run_ends_in_a_report_or_one_refusal_line(argv):
    run = subprocess.run([sys.executable, "-m", "decoupling_lab.cli", *argv, "--seed", "0"],
                         env=_child_env(), capture_output=True, text=True,
                         preexec_fn=_limit_address_space, timeout=120)
    assert "Traceback" not in run.stderr
    if run.returncode == 2:
        assert run.stdout == "" and run.stderr.count("\n") == 1, run.stderr
        assert run.stderr.startswith("decoupling-lab: ")
    else:
        assert run.returncode in (0, 1) and run.stderr == "", run.stderr
        assert (run.returncode == 1) == ('"holds":false' in run.stdout)
