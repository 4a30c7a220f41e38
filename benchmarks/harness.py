"""Measurement loops of the condks benchmark.

Jobs run in-process through the ``condks`` click entry point, one
client in a closed loop: the next job starts when the previous one has
finished and its output has been checked.  ``measure`` gives the
end-to-end metrics with tracing off; ``trace`` alternates untraced and
traced jobs and gives the per-layer metrics plus the tracing overhead.
Set-up time and peak memory come from fresh interpreters.
"""

from __future__ import annotations

import ctypes
import importlib.metadata
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from click.testing import CliRunner

from layer_trace import ROOT, LayerTracer
from workloads import Job, Workload

SETUP_RUNS = 9
# Calibration (see calibrated_series): the reference work's time at the
# nominal machine speed, about its median on a 2-vCPU Intel Xeon virtual
# machine, and the share of each measured step's time spent re-measuring it.
REFERENCE_NOMINAL_S = 0.012
REFERENCE_SHARE = 0.05
CHILD_TIMEOUT_S = 150
# The console script ``condks = "condks.cli:main"``, spelled out so that
# it runs from a source tree without installing the package, and made to
# write the process's peak resident memory (VmHWM) to stderr as it exits.
# The OS rusage of the child cannot give that figure: a child started by
# vfork and exec inherits the parent's peak.
FRESH_JOB_SCRIPT = """\
import atexit, sys
def _peak():
    with open("/proc/self/status", encoding="ascii") as fh:
        sys.stderr.write("\\n" + next(l for l in fh if l.startswith("VmHWM:")))
atexit.register(_peak)
from condks.cli import main
sys.exit(main(prog_name="condks"))
"""


@dataclass
class Tally:
    """Jobs attempted and failed, with the first few problems found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def run_job(job: Job, runner: CliRunner, tally: Tally, label: str,
            tracer: LayerTracer | None = None) -> float:
    """Run one job in-process, check it, and return its wall time."""
    if job.out_dir is not None:
        shutil.rmtree(job.out_dir, ignore_errors=True)
    from condks.cli import main

    start = time.perf_counter()
    if tracer is None:
        result = runner.invoke(main, job.args)
    else:
        with tracer.span(ROOT):
            result = runner.invoke(main, job.args)
    elapsed = time.perf_counter() - start
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        problems = [f"raised {result.exception!r}"]
    else:
        problems = checked(job, result.exit_code, result.stdout)
    tally.record(label, problems)
    return elapsed


def checked(job: Job, exit_code: int, stdout: str) -> list[str]:
    """The job's check; output malformed beyond what the check expects
    fails the job instead of stopping the run."""
    try:
        return job.check(exit_code, stdout)
    except Exception as exc:  # noqa: BLE001  any output may be malformed
        return [f"check raised {exc!r}"]


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str], env: dict[str, str], cwd: Path,
               stdout, stderr) -> tuple[int, float]:
    """Run a child to completion; return its exit code and wall time.

    A child that runs past CHILD_TIMEOUT_S is killed and waited for.
    """
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, stdout=stdout, stderr=stderr,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode, time.perf_counter() - start


def spawn_import(src: Path, cwd: Path) -> float:
    """Wall time of a fresh interpreter that imports condks.cli."""
    code, elapsed = _run_child([sys.executable, "-c", "import condks.cli"],
                               child_env(src), cwd, subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"a fresh interpreter failed to import condks.cli ({code})")
    return elapsed


def fresh_job_peak_rss_mb(job: Job, src: Path, cwd: Path, tally: Tally) -> float:
    """Peak resident memory of a fresh process that runs one job."""
    if job.out_dir is not None:
        shutil.rmtree(job.out_dir, ignore_errors=True)
    stdout_path = cwd / "fresh_job.stdout"
    stderr_path = cwd / "fresh_job.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        code, _ = _run_child([sys.executable, "-c", FRESH_JOB_SCRIPT, *job.args],
                             child_env(src), cwd, out, err)
    tally.record("fresh-process job", checked(job, code, stdout_path.read_text("utf-8")))
    peaks = [line.split()[1] for line in stderr_path.read_text("utf-8").splitlines()
             if line.startswith("VmHWM:")]
    if not peaks:
        raise RuntimeError("the fresh-process job reported no peak memory")
    return int(peaks[-1]) / 1024.0


def reference_work() -> float:
    """Wall time of a fixed unit of work that never changes.

    A mix like condks's own: interpreter-bound float math and string
    churn, sorts, and small matrix products.  Its bulk allocations are
    floats and strings, which the cyclic garbage collector does not
    track, so a collection triggered by the jobs' garbage does not land
    in it.  It calibrates the times
    below and must stay as it is, or calibrated figures from before and
    after the edit stop being comparable.
    """
    start = time.perf_counter()
    values = []
    labels = []
    for i in range(16_000):
        x = float(i) * 0.5
        values.append(math.erfc(x * 1e-4))
        labels.append(str(x))
    values.sort()
    labels.sort()
    a = np.full((21, 21), 0.05)
    for _ in range(240):
        a = a @ a
        a /= a.max()
    return time.perf_counter() - start


def _reference_burst(share_of: float) -> float:
    """Median time of reference work run until it has taken
    REFERENCE_SHARE of ``share_of`` seconds, and at least three times."""
    times = [reference_work() for _ in range(3)]
    while sum(times) < REFERENCE_SHARE * share_of:
        times.append(reference_work())
    return statistics.median(times)


def calibrated_series(step: Callable[[], float],
                      more: Callable[[list[float]], bool]) -> tuple[list[float], float]:
    """Time ``step()`` while ``more(times so far)``; return the wall times
    and the median of the same times calibrated to the nominal machine
    speed.

    The machine this runs on is shared, and its speed swings by tens of
    percent within seconds and drifts over minutes, longer than any one
    run.  Reference work run just before and just after each step
    measures the speed the step ran at: the step's calibrated time is
    its wall time times REFERENCE_NOMINAL_S over the mean of those two
    reference times, i.e. its wall time at the speed where the
    reference work takes REFERENCE_NOMINAL_S.
    """
    before = _reference_burst(0.0)
    wall: list[float] = []
    calibrated: list[float] = []
    while more(wall):
        wall.append(step())
        after = _reference_burst(wall[-1])
        calibrated.append(wall[-1] * REFERENCE_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return wall, statistics.median(calibrated)


def timing_summary(times: list[float]) -> dict[str, float]:
    """Median, quartiles, extremes and count of job times."""
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive") if len(times) > 1 else (times[0],) * 3
    return {"median": statistics.median(times), "q1": q1, "q3": q3,
            "min": min(times), "max": max(times), "count": len(times)}


def measure(workload: Workload, seconds: float, src: Path) -> tuple[dict, Tally]:
    """End-to-end metrics, tracing off.

    ``job_s`` and ``setup_s`` are calibrated medians (see
    ``calibrated_series``); the wall times are reported beside them.
    """
    tally = Tally()
    cwd = workload.work_dir
    setup_wall, setup = calibrated_series(lambda: spawn_import(src, cwd),
                                          lambda done: len(done) < SETUP_RUNS)
    rss_mb = fresh_job_peak_rss_mb(workload.fresh_job(), src, cwd, tally)
    runner = CliRunner()
    run_job(workload.warmup_job(), runner, tally, "warm-up job")
    start = time.perf_counter()
    job_wall, job = calibrated_series(
        lambda: run_job(workload.main_job(), runner, tally, f"job {tally.attempted}"),
        lambda done: not done or time.perf_counter() - start < seconds)
    metrics = {
        "job_s": job,
        "items_per_s": workload.items / job,
        "peak_rss_mb": rss_mb,
        "setup_s": setup,
    }
    details = {"job wall time": timing_summary(job_wall),
               "setup wall time": timing_summary(setup_wall)}
    return {"metrics": metrics, "details": details}, tally


def trace(workload: Workload, seconds: float) -> tuple[dict, Tally]:
    """Per-layer metrics from traced jobs, alternating with untraced ones."""
    tally = Tally()
    runner = CliRunner()
    run_job(workload.warmup_job(), runner, tally, "warm-up job")
    tracer = LayerTracer()
    plain: list[float] = []
    traced: list[float] = []
    per_job: list[dict[str, float]] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_job(workload.main_job(), runner, tally, f"job {len(plain)}"))
        with tracer:
            traced.append(run_job(workload.main_job(), runner, tally,
                                  f"traced job {len(traced)}", tracer))
        per_job.append(tracer.job_metrics())
    names = sorted(set().union(*per_job))
    metrics = {name: statistics.median(m.get(name, 0.0) for m in per_job) for name in names}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    details = {"job wall time": timing_summary(plain),
               "traced job wall time": timing_summary(traced)}
    return {"metrics": metrics, "details": details}, tally


def _blas_threads() -> str:
    """OpenBLAS's own thread count, asked of the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    git = root / ".git"
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
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict[str, str]:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "not installed (scipy oracles skipped)"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu": _cpu_model(),
        "nproc": str(len(os.sched_getaffinity(0))),
        "commit": _git_commit(root),
    }
