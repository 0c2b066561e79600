"""The benchmark's eight jobs (perfbench/run.py's workloads, run there as
children at many seeds) keep their report bytes at seed 0: the sha256 of each
job's stdout through cli.main, as the code gave it before the search measured
ahead and verify took its thresholds from probmodel.quantiles."""

import ast
import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import decoupling_lab.cli as cli

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

JOB_SHA256 = {
    "estimate-linf4-d8": (
        ["estimate", "--space", "linf:4", "--p", "4", "--family", "paley-walsh-multipliers",
         "--depth", "8", "--trials", "40", "--restarts", "1", "--workers", "1"],
        "dda00025ad7815ae9ca43b8782925f2b69e73fbd411e99cf81bc1435b35db6b1"),
    "estimate-lp05-d5": (
        ["estimate", "--space", "lp:0.5:3", "--p", "1", "--family", "gaussian-multipliers",
         "--depth", "5", "--trials", "50", "--restarts", "1", "--workers", "1"],
        "b8ae5e76dffbf2d410166d125f36d7b66bee6af612fbd8be028ea67544368949"),
    "verify-l2": (
        ["verify", "--suite", "all", "--space", "l2:4", "--depth", "4", "--trials", "120",
         "--workers", "1"],
        "23ef259b55509e08ed3aa6d5c0cac20a741fbd2db14f99fb7522e396db154a35"),
    "verify-lp05": (
        ["verify", "--suite", "all", "--space", "lp:0.5:3", "--depth", "4", "--trials", "80",
         "--workers", "1"],
        "fe217c3dfee9995c20334bb5e8ff2ef718e25adb745880b72254cf8fb9e2196c"),
    "atlas": (
        ["atlas", "--spaces", "l2:2,l2:4,linf:2,linf:4,linf:8", "--ps", "1,2,4", "--depth", "3",
         "--trials", "400", "--restarts", "6", "--workers", "1"],
        "edce0cef3104ed633e9c40c9de6a261b3d9d53ddbc6cc11b9d3cb73d80b4fd20"),
    "bounds": (
        ["bounds", "--formula", "extrap-c", "--p", "2", "--q", "4", "--A", "2", "--b", "0.1",
         "--workers", "1"],
        "daaecd2473a216d8cd3831e17592812165bb3d8128631fe63c200b7ee9045d9a"),
    "bdg-linf4": (
        ["bdg", "--space", "linf:4", "--p", "1", "2", "4", "8", "--samples", "2048",
         "--workers", "1"],
        "3f52d348a3612778adb6269f860e496bc91ed4ae87ff81325784edc398af4074"),
    "bdg-l2": (
        ["bdg", "--space", "l2:4", "--p", "1", "2", "4", "8", "--samples", "10000",
         "--workers", "1"],
        "5339c998f6f6673570570695ab1b11a5558c6d7e1e5559b643bdccfb366f10b4"),
}


@pytest.mark.parametrize("job", sorted(JOB_SHA256))
def test_benchmark_job_bytes(job):
    argv, digest = JOB_SHA256[job]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--seed", "0"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_the_pinned_jobs_are_the_benchmarks():
    # perfbench/run.py's WORKLOADS literal, read without importing the harness
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS":
            workloads = ast.literal_eval(node.value)
    jobs = {label: argv for workload in workloads.values() for label, argv in workload["jobs"]}
    assert jobs == {job: argv for job, (argv, _) in JOB_SHA256.items()}
