#!/usr/bin/env python3
"""Benchmark for decoupling-lab: fixed CLI workloads, a traced run, a gate.

Run from the repository root (needs only the sources under ``src/``)::

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seconds 32      # every workload, one table
    python3 perfbench/run.py --workload bdg-mc --trace 1      # per-layer metrics
    python3 perfbench/run.py --pin                            # rewrite the gate reference

``--trace 0`` runs the workload's job list again and again for ``--seconds``
as child processes of the CLI (closed loop: one job at a time), and reports
the end-to-end metrics ``setup_s`` (median of several ``--help`` spawns),
``wall_s`` (sum over the job list of each job's median time) and
``peak_rss_mib`` (largest peak RSS of one job's process); both times are in
seconds of a reference host (``HostClock``).  ``--trace 1``
replays the job list in this process through ``decoupling_lab.cli.main``,
alternating untraced and traced passes, and reports the per-layer metrics of
``tracing.Tracer``.  Every job's report goes through ``gate.Gate``; failed
jobs count in ``failed`` of the result, so fail_frac = failed / attempted.

The last line of stdout is the result object; the line before it holds the
diagnostics (environment, per-job report sha256, per-pass times, calibration).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy loads here or in a child
sys.path[:0] = [str(HERE), str(SRC)]

from gate import REFERENCE_SEED, Gate, job_key, write_reference  # noqa: E402

WORKLOADS = {
    "exact-large": {
        "why": "few large exact models: product-space enumeration (g_terminal_moment) "
               "dominates, on a dyadic sup-norm tree and an r<1 three-point tree",
        "jobs": [
            ("estimate-linf4-d8", ["estimate", "--space", "linf:4", "--p", "4",
                                   "--family", "paley-walsh-multipliers", "--depth", "8",
                                   "--trials", "40", "--restarts", "1", "--workers", "1"]),
            ("estimate-lp05-d5", ["estimate", "--space", "lp:0.5:3", "--p", "1",
                                  "--family", "gaussian-multipliers", "--depth", "5",
                                  "--trials", "50", "--restarts", "1", "--workers", "1"]),
        ],
    },
    "many-small": {
        "why": "thousands of tiny models: per-call overhead of model building, window "
               "norms and shallow searches dominates, at one worker",
        # verify draws its models' trees at random from the seed; at depth 4
        # with many trials the work per seed varies far less than at depth 5
        "jobs": [
            ("verify-l2", ["verify", "--suite", "all", "--space", "l2:4", "--depth", "4",
                           "--trials", "120", "--workers", "1"]),
            ("verify-lp05", ["verify", "--suite", "all", "--space", "lp:0.5:3", "--depth", "4",
                             "--trials", "80", "--workers", "1"]),
            ("atlas", ["atlas", "--spaces", "l2:2,l2:4,linf:2,linf:4,linf:8", "--ps", "1,2,4",
                       "--depth", "3", "--trials", "400", "--restarts", "6", "--workers", "1"]),
            ("bounds", ["bounds", "--formula", "extrap-c", "--p", "2", "--q", "4",
                        "--A", "2", "--b", "0.1", "--workers", "1"]),
        ],
    },
    "bdg-mc": {
        "why": "Brownian Monte Carlo where only stochint works: MC gamma norms on linf:4 "
               "and the closed-form route on l2:4, each p re-simulating the same paths",
        "jobs": [
            ("bdg-linf4", ["bdg", "--space", "linf:4", "--p", "1", "2", "4", "8",
                           "--samples", "2048", "--workers", "1"]),
            ("bdg-l2", ["bdg", "--space", "l2:4", "--p", "1", "2", "4", "8",
                        "--samples", "10000", "--workers", "1"]),
        ],
    },
}

# Timed ``--help`` spawns: a few at the start of a run (after one warm-up) and
# one after every pass, so setup_s samples the whole run, not one moment of it.
SETUP_SPAWNS_FIRST = 3
SETUP_SPAWNS_PER_PASS = 1
IMPORT_SPAWNS = 7
# calibrate() on the host the baseline was taken on, rounded: the unit of the
# end-to-end times is a second of that host
CAL_REF = {"work": 0.19, "start": 0.21}
RUN_LIMIT_S = 170.0       # a job still running this long after the start is killed

# Fixed work of the three kinds the jobs do: interpreter loops, numpy on
# cache-sized arrays and numpy on arrays larger than the caches.
CAL_PROBE = """
import json, time
import numpy as np
t0 = time.perf_counter()
total = 0
for i in range(300_000):
    total += i % 7
t1 = time.perf_counter()
a = np.arange(1.0, 200_001.0)
for _ in range(40):
    a = np.sqrt(a * a + 1.0)
t2 = time.perf_counter()
b = np.random.default_rng(0).standard_normal((200_000, 4))
for _ in range(3):
    b = b + np.abs(b).max(axis=1)[:, None] * 1e-9
t3 = time.perf_counter()
print(json.dumps({"python": t1 - t0, "numpy_small": t2 - t1, "numpy_large": t3 - t2}))
"""

IMPORT_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter(); import numpy\n"
    "t1 = time.perf_counter(); import decoupling_lab.cli\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'numpy': t1 - t0, 'pkg': t2 - t1}))\n"
)


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DECOUPLING_LAB_SEED", None)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class JobRun:
    label: str
    argv: list
    returncode: int
    stdout: bytes
    wall_s: float
    ref_s: float = 0.0        # wall_s in seconds of the reference host (HostClock)
    peak_rss_mib: float = 0.0
    cpu_s: float = 0.0
    stderr: bytes = b""


def spawn(label: str, argv: list[str], args: list[str], timeout: float) -> JobRun:
    """Run ``python <args>`` to completion under ``launch.py``, which reports
    the process's own wall time, peak RSS and CPU time.

    The launcher leads its own session, so a timeout kills the job and any
    worker processes it started too.
    """
    t0 = perf_counter()
    usage_r, usage_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(usage_w), sys.executable, *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True, pass_fds=(usage_w,))
    except BaseException:
        os.close(usage_r)
        raise
    finally:
        os.close(usage_w)
    streams = {"stdout": proc.stdout, "stderr": proc.stderr, "usage": open(usage_r, "rb")}
    data: dict = {}
    readers = [threading.Thread(target=lambda k=k, s=s: data.__setitem__(k, s.read()))
               for k, s in streams.items()]
    for reader in readers:
        reader.start()
    timer = threading.Timer(max(timeout, 0.0), os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    reaped = False
    try:
        _, status, _ = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        timer.cancel()
        if not reaped:  # interrupted: take the child's session down too
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    for stream in streams.values():
        stream.close()
    try:
        usage = json.loads(data["usage"])
    except ValueError:  # the launcher was killed before it reported
        usage = {"wall_s": wall, "peak_rss_mib": 0.0, "cpu_s": 0.0}
    return JobRun(label, argv, proc.returncode, data["stdout"], usage["wall_s"], usage["wall_s"],
                  usage["peak_rss_mib"], usage["cpu_s"], data["stderr"])


def cli_args(argv: list[str]) -> list[str]:
    return ["-m", "decoupling_lab.cli", *argv]


def measure_setup(count: int, deadline: float, clock: HostClock | None = None) -> list[float]:
    """Times of ``count`` fresh ``decoupling-lab --help`` processes, in
    reference seconds when a ``clock`` is given."""
    times = []
    for _ in range(count):
        run = spawn("setup", ["--help"], cli_args(["--help"]), deadline - perf_counter())
        if run.returncode != 0:
            raise RuntimeError(f"decoupling-lab --help failed: {run.stderr.decode()[-400:]}")
        times.append(clock.reference_s(run.wall_s, "start") if clock else run.wall_s)
    return times


def measure_imports(deadline: float) -> dict:
    samples = []
    for _ in range(IMPORT_SPAWNS):
        run = spawn("imports", [], ["-c", IMPORT_PROBE], deadline - perf_counter())
        if run.returncode != 0:
            raise RuntimeError(f"import probe failed: {run.stderr.decode()[-400:]}")
        samples.append(json.loads(run.stdout))
    return {f"setup.import_{k}_s": statistics.median(s[k] for s in samples)
            for k in ("numpy", "pkg")}


# ---------------------------------------------------------------------------
# passes over a job list


def with_seed(argv: list[str], seed: int) -> list[str]:
    return [*argv, "--seed", str(seed)]


def child_job(label: str, argv: list[str], seed: int, deadline: float) -> JobRun:
    return spawn(label, argv, cli_args(with_seed(argv, seed)), deadline - perf_counter())


def in_process_job(label: str, argv: list[str], seed: int, deadline: float) -> JobRun:
    """The job through ``cli.main`` in this process, with one worker so every
    layer call happens here (reports do not depend on the worker count)."""
    from decoupling_lab import cli

    args = with_seed(argv, seed)
    args[args.index("--workers") + 1] = "1"
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            traceback.print_exc()
            code = 1
    wall = perf_counter() - t0
    return JobRun(label, argv, code, out.getvalue().encode(), wall,
                  stderr=err.getvalue().encode())


@dataclass
class PassResult:
    wall_s: float
    jobs: list
    failures: list


def run_pass(jobs, seed: int, runner, gate: Gate, deadline: float, tracer=None,
             clock: HostClock | None = None) -> PassResult:
    """One closed-loop pass: each job starts when the previous one ended.

    The pass wall time is the sum of the job wall times; the gate (and the
    clock's calibration) runs between jobs and is not timed.
    """
    runs, failures = [], []
    for label, argv in jobs:
        if tracer is not None:
            tracer.job = label
            tracer.install()
        try:
            run = runner(label, argv, seed, deadline)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if clock is not None:
            run.ref_s = clock.reference_s(run.wall_s)
        runs.append(run)
        problems = gate.check(argv, seed, run.returncode, run.stdout)
        if problems:
            detail = run.stderr.decode(errors="replace").strip().splitlines()[-1:]
            failures.append({"job": label, "problems": problems + detail})
    return PassResult(sum(r.wall_s for r in runs), runs, failures)


# ---------------------------------------------------------------------------
# environment block


def git_rev() -> str:
    """HEAD of the checkout, read from .git without leaving it; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrate(deadline: float) -> dict:
    """Seconds a fresh Python process takes for each part of a fixed piece of
    work (``CAL_PROBE``), for all of it (``work``) and to start and import
    numpy (``start``): the host's speed now, measured with nothing of
    decoupling-lab in it."""
    run = spawn("calibrate", [], ["-c", CAL_PROBE], deadline - perf_counter())
    if run.returncode != 0:
        raise RuntimeError(f"calibration probe failed: {run.stderr.decode()[-400:]}")
    parts = json.loads(run.stdout)
    work = sum(parts.values())
    return {**parts, "work": work, "start": run.wall_s - work}


class HostClock:
    """Converts wall times to seconds of a host whose ``calibrate`` takes
    ``CAL_REF``.

    The host's speed drifts with its other tenants' load, by a quarter and
    more within minutes, and a job slows with it about as much as the probe
    does.  Each timed span is divided by the mean of the probes just before
    and just after it, so that drift cancels while a change in the program's
    own cost does not.  The raw wall times stay in the diagnostics.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.probes = [calibrate(deadline)]
        self.spans: list[float] = []   # spans[k] ran between probes[k] and probes[k + 1]

    def reference_s(self, wall_s: float, part: str = "work") -> float:
        """``wall_s`` scaled by the ``part`` of the probes around it: ``work``
        for jobs, ``start`` for spans that are mostly start-up."""
        self.probes.append(calibrate(self.deadline))
        self.spans.append(wall_s)
        reference = statistics.fmean(p[part] for p in self.probes[-2:])
        return wall_s * CAL_REF[part] / reference


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "git_rev": git_rev(), "python": platform.python_version(),
        "numpy": numpy.__version__, "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "threads": THREAD_PINS,
    }


# ---------------------------------------------------------------------------
# one workload


def job_digests(passes) -> list[dict]:
    """Per job: report sha256 (a diagnostic: same bytes, less time) and times."""
    out = []
    for i, run in enumerate(passes[0].jobs):
        runs = [p.jobs[i] for p in passes]
        out.append({
            "job": run.label,
            "sha256": sorted({hashlib.sha256(r.stdout).hexdigest() for r in runs}),
            "wall_s": [r.wall_s for r in runs],
            "ref_s": [r.ref_s for r in runs],
            "peak_rss_mib": max(r.peak_rss_mib for r in runs),
            "cpu_s": [r.cpu_s for r in runs],
        })
    return out


def fits(t0: float, seconds: float, spans: list[float]) -> bool:
    """Whether one more pass ends nearer to ``seconds`` after ``t0`` than
    stopping now, judged by the fastest pass so far: runs end within half a
    pass of ``--seconds`` instead of overrunning it by up to a whole one."""
    return perf_counter() - t0 + min(spans) / 2 <= seconds


def run_untraced(name: str, seed: int, seconds: float, gate: Gate) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    measure_setup(1, deadline)  # warm-up: may byte-compile the package
    clock = HostClock(deadline)
    setup = measure_setup(SETUP_SPAWNS_FIRST, deadline, clock)
    passes, spans = [], []
    t0 = perf_counter()
    while not passes or fits(t0, seconds, spans):
        t = perf_counter()
        passes.append(run_pass(WORKLOADS[name]["jobs"], seed, child_job, gate, deadline,
                               clock=clock))
        setup += measure_setup(SETUP_SPAWNS_PER_PASS, deadline, clock)
        spans.append(perf_counter() - t)
    walls = [p.wall_s for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(job_medians(passes, "ref_s")), "s"),
        "peak_rss_mib": (max(r.peak_rss_mib for p in passes for r in p.jobs), "MiB"),
    }
    return {"metrics": metrics, "passes": passes,
            "diagnostics": {"setup_ref_s": setup, "pass_wall_s": walls,
                            "raw_wall_s": sum(job_medians(passes, "wall_s")),
                            "calibration_s": statistics.median(p["work"] for p in clock.probes),
                            "clock": {"probes": clock.probes, "spans": clock.spans},
                            "jobs": job_digests(passes)}}


def job_medians(passes, field: str) -> list[float]:
    """Each job's median ``field`` over the run's passes."""
    return [statistics.median(getattr(p.jobs[i], field) for p in passes)
            for i in range(len(passes[0].jobs))]


def run_traced(name: str, seed: int, seconds: float, gate: Gate) -> dict:
    from tracing import Tracer

    deadline = perf_counter() + RUN_LIMIT_S
    calib = statistics.median(calibrate(deadline)["work"] for _ in range(3))
    imports = measure_imports(deadline)
    jobs = WORKLOADS[name]["jobs"]
    plain, traced, tracers, spans = [], [], [], []
    t0 = perf_counter()
    # untraced and traced passes in ABBA order, so neither side gets all the
    # first (cold) passes
    while not (plain and traced) or fits(t0, seconds, spans):
        t = perf_counter()
        if (len(plain) + len(traced)) % 4 in (0, 3):
            plain.append(run_pass(jobs, seed, in_process_job, gate, deadline))
        else:
            tracers.append(Tracer())
            traced.append(run_pass(jobs, seed, in_process_job, gate, deadline, tracers[-1]))
        spans.append(perf_counter() - t)
    per_pass = [t.metrics(p.wall_s) for t, p in zip(tracers, traced)]
    layer = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    layer.update(imports)
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    layer["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    layer["reports.report_bytes"] = sum(len(r.stdout) for r in traced[-1].jobs)
    metrics = {key: (value, unit_of(key)) for key, value in layer.items()}
    return {"metrics": metrics, "passes": plain + traced,
            "diagnostics": {"calibration_s": calib,
                            "untraced_pass_wall_s": [p.wall_s for p in plain],
                            "traced_pass_wall_s": [p.wall_s for p in traced],
                            "jobs": job_digests(traced),
                            "layers_by_job": tracers[-1].job_table(
                                {r.label: r.wall_s for r in traced[-1].jobs})}}


def unit_of(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("_mib"):
        return "MiB"
    if key.endswith("report_bytes"):
        return "bytes"
    if key.endswith("_frac") or key.startswith("share.") or key.endswith("per_joint_outcome") \
            or key.endswith("per_chunk"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, gate: Gate) -> dict:
    body = (run_traced if trace else run_untraced)(name, seed, seconds, gate)
    passes = body.pop("passes")
    attempted = sum(len(p.jobs) for p in passes)
    failures = [f for p in passes for f in p.failures]
    body["diagnostics"].update({
        "workload": name, "seed": seed, "trace": int(trace), "passes": len(passes),
        "environment": environment(), "failures": failures[:10],
    })
    body.update(attempted=attempted, failed=len(failures))
    return body


# ---------------------------------------------------------------------------
# entry point


def print_table(name: str, body: dict):
    frac = body["failed"] / body["attempted"]
    rows = [(k, v, u) for k, (v, u) in body["metrics"].items()] + [("fail_frac", frac, "ratio")]
    for key, value, unit in rows:
        print(f"{name:12s} {key:48s} {value:>16.6g} {unit}", file=sys.stderr)
    for failure in body["diagnostics"]["failures"]:
        print(f"{name:12s} FAILED {failure['job']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)


def pin(gate: Gate) -> int:
    """Write the gate reference from one run of every job at the reference seed."""
    reports, bad = {}, 0
    for name, spec in WORKLOADS.items():
        for label, argv in spec["jobs"]:
            run = child_job(label, argv, REFERENCE_SEED, perf_counter() + 600)
            problems = gate.check(argv, REFERENCE_SEED, run.returncode, run.stdout)
            print(f"{name} {label}: {'ok' if not problems else problems}", file=sys.stderr)
            if problems:
                bad += 1
            else:
                reports[job_key(argv)] = json.loads(run.stdout)
    if bad:
        return 1
    write_reference(reports)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result as JSON here")
    parser.add_argument("--pin", action="store_true", help="rewrite the gate reference and exit")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "decoupling_lab" / "cli.py").is_file():
        print(f"perfbench: no decoupling-lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        return pin(Gate(reference={}))

    gate = Gate()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    bodies = {}
    for name in names:
        bodies[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), gate)
        print_table(name, bodies[name])
    if args.out:
        Path(args.out).write_text(json.dumps(bodies, indent=1, default=str) + "\n")

    attempted = sum(b["attempted"] for b in bodies.values())
    failed = sum(b["failed"] for b in bodies.values())
    if len(names) == 1:
        metrics = bodies[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, b in bodies.items() for k, v in b["metrics"].items()}
    print(json.dumps({n: b["diagnostics"] for n, b in bodies.items()}, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
