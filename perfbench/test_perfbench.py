"""Self-tests of the benchmark: the gate must count doctored reports as
failures, the tracer must restore what it wraps, and a tiny pass of every
workload must run clean.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from gate import REFERENCE_SEED, Gate, canonical_json, job_key, load_reference  # noqa: E402
from tracing import Tracer  # noqa: E402

REFERENCE = load_reference()
OTHER_SEED = 7


def reference_report(workload: str, label: str) -> dict:
    argv = dict(run.WORKLOADS[workload]["jobs"])[label]
    return copy.deepcopy(REFERENCE[job_key(argv)])


def fail_frac(workload: str, doctored: dict | None = None, seed: int = REFERENCE_SEED,
              returncode: int = 0) -> float:
    """fail_frac of one pass whose jobs print the reference reports, with
    ``doctored`` replacing some of them."""
    outputs = {}
    for label, _ in run.WORKLOADS[workload]["jobs"]:
        report = (doctored or {}).get(label) or reference_report(workload, label)
        report["seed"] = seed
        outputs[label] = canonical_json(report).encode()

    def runner(label, argv, seed, deadline):
        return run.JobRun(label, argv, returncode, outputs[label], 0.01)

    jobs = run.WORKLOADS[workload]["jobs"]
    result = run.run_pass(jobs, seed, runner, Gate(REFERENCE), perf_counter() + 60)
    return len(result.failures) / len(result.jobs)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_reference_reports_pass(workload):
    assert fail_frac(workload) == 0.0


def test_ratio_nudged_by_1e9_is_counted():
    report = reference_report("many-small", "atlas")
    cell = next(r for r in report["results"] if r["space"].startswith("linf"))
    cell["ratio"] *= 1 + 1e-9
    assert fail_frac("many-small", {"atlas": report}) == 0.25


def test_estimate_ratio_nudged_fails_replay_at_any_seed():
    report = reference_report("exact-large", "estimate-lp05-d5")
    report["results"][0]["ratio"] *= 1 + 1e-9
    assert fail_frac("exact-large", {"estimate-lp05-d5": report}) == 0.5
    assert fail_frac("exact-large", {"estimate-lp05-d5": report}, seed=OTHER_SEED) == 0.5


def test_flipped_holds_is_counted():
    report = reference_report("many-small", "verify-l2")
    report["results"][3]["holds"] = False
    assert fail_frac("many-small", {"verify-l2": report}) == 0.25


def test_inequality_side_nudged_is_counted():
    report = reference_report("many-small", "verify-lp05")
    row = next(r for r in report["results"] if r["lhs"] > 0)
    row["lhs"] *= 1 + 1e-9
    assert fail_frac("many-small", {"verify-lp05": report}) == 0.25


def test_off_reference_seed_checks_only_invariants():
    linf = reference_report("many-small", "atlas")
    next(r for r in linf["results"] if r["space"].startswith("linf"))["ratio"] *= 1 + 1e-9
    assert fail_frac("many-small", {"atlas": linf}, seed=OTHER_SEED) == 0.0
    l2 = reference_report("many-small", "atlas")
    next(r for r in l2["results"] if r["space"] == "l2:2" and r["p"] == 2.0)["ratio"] += 1e-9
    assert fail_frac("many-small", {"atlas": l2}, seed=OTHER_SEED) == 0.25


def test_bdg_moments_judged_in_standard_errors():
    near = reference_report("bdg-mc", "bdg-linf4")
    row = near["results"][1]
    row["sup_moment"] += 2 * row["sup_se"]
    assert fail_frac("bdg-mc", {"bdg-linf4": near}) == 0.0
    far = reference_report("bdg-mc", "bdg-linf4")
    row = far["results"][1]
    row["sup_moment"] += 10 * row["sup_se"]
    assert fail_frac("bdg-mc", {"bdg-linf4": far}) == 0.5


def test_envelope_and_exit_failures_are_counted():
    report = reference_report("many-small", "bounds")
    report["config"]["params"]["p"] = 3.0
    assert fail_frac("many-small", {"bounds": report}, seed=OTHER_SEED) == 0.25
    assert fail_frac("bdg-mc", returncode=1) == 1.0
    broken = reference_report("bdg-mc", "bdg-l2")
    broken["results"][0] = "not a row"
    assert fail_frac("bdg-mc", {"bdg-l2": broken}) == 0.5


def test_tracer_restores_what_it_wraps():
    from decoupling_lab import constants, probmodel, spaces

    before = (constants.g_terminal_moment, spaces.Space.__dict__["norms"],
              spaces.Space.__dict__["dim"], probmodel.AdaptedSequence.__dict__["from_multipliers"])
    tracer = Tracer()
    tracer.install()
    assert constants.g_terminal_moment is probmodel.g_terminal_moment is not before[0]
    tracer.uninstall()
    after = (constants.g_terminal_moment, spaces.Space.__dict__["norms"],
             spaces.Space.__dict__["dim"], probmodel.AdaptedSequence.__dict__["from_multipliers"])
    assert after == before


def test_host_clock_divides_by_the_probes_around_each_span(monkeypatch):
    works = iter([0.2, 0.4, 0.1])
    monkeypatch.setattr(run, "calibrate",
                        lambda deadline: {"work": next(works), "start": 0.3})
    clock = run.HostClock(perf_counter() + 60)
    # the host ran the probe at 0.3 s on average around this span: 1.5x slow
    assert clock.reference_s(3.0) == pytest.approx(3.0 * run.CAL_REF["work"] / 0.3)
    assert clock.reference_s(1.0, "start") == pytest.approx(run.CAL_REF["start"] / 0.3)
    assert clock.spans == [3.0, 1.0] and len(clock.probes) == 3


def test_peak_rss_is_the_jobs_own():
    import numpy  # noqa: F401  (the benchmark process holds numpy, a job may not)
    import resource

    own_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job = run.spawn("bare", [], ["-S", "-c", "pass"], 60)
    assert job.returncode == 0
    assert 0.0 < job.peak_rss_mib < 0.5 * own_mib
    assert 0.0 < job.wall_s < 60


def test_calibration_probe_runs():
    probe = run.calibrate(perf_counter() + 60)
    assert set(probe) == {"python", "numpy_small", "numpy_large", "work", "start"}
    assert all(v > 0 for v in probe.values())


def shrunk(argv: list[str]) -> list[str]:
    """The same job at toy size."""
    small = {"--trials": "6", "--samples": "300", "--depth": "3"}
    out = list(argv)
    for flag, value in small.items():
        if flag in out:
            i = out.index(flag) + 1
            out[i] = str(min(int(out[i]), int(value)))
    return out


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_pass(workload):
    jobs = [(label, shrunk(argv)) for label, argv in run.WORKLOADS[workload]["jobs"]]
    deadline = perf_counter() + 120
    plain = run.run_pass(jobs, 1, run.child_job, Gate(REFERENCE), deadline)
    assert plain.failures == []
    tracer = Tracer()
    traced = run.run_pass(jobs, 1, run.in_process_job, Gate(REFERENCE), deadline, tracer)
    assert traced.failures == []
    assert [r.stdout for r in traced.jobs] == [r.stdout for r in plain.jobs]
    metrics = tracer.metrics(traced.wall_s)
    modules = sum(v for k, v in metrics.items() if k.count(".") == 1 and k.startswith("share."))
    assert modules == pytest.approx(1.0)
    assert 0.0 < metrics["share.untraced"] < 1.0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mib"}
    traced = set(Tracer().metrics(1.0)) | {
        "setup.import_numpy_s", "setup.import_pkg_s", "trace.overhead_frac",
        "reports.report_bytes"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bdg-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
