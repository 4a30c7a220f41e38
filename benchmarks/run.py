"""The condks benchmark: one workload, one run, metrics as JSON.

    python3 benchmarks/run.py --workload simulate_power --seed 1 --seconds 30 --trace 0

Run from a source checkout; the package is imported from its ``src``
directory.  With ``--trace 0`` the run measures the end-to-end metrics
listed under ``end_to_end`` in BENCHMARK.json; with ``--trace 1`` it
measures the ``per_layer`` ones.  The end-to-end times are calibrated
against a fixed reference work measured beside every job (see
``harness.calibrated_series``); wall times are printed next to them.
Every job's output is checked.  The
last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it say the same for a reader.  Work files go to ``.bench_work``
in the checkout and are removed at the end.

The exit code is 0 when the run completed (its ``correct`` field says
whether the outputs passed their checks) and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# One BLAS thread: with OpenBLAS's default pool, job times on a shared
# two-core machine spread far more widely.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

WAIT_NOTE = ("waiting time: none to report; condks runs on one thread with "
             "no queues, so no work waits for a busy layer")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "condks" / "cli.py").is_file():
        print(f"error: no condks source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import harness
    from workloads import HAVE_SCIPY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = _declared("per_layer" if args.trace else "end_to_end")
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        workload.prepare()
        import condks.cli  # noqa: F401  imported before any timing

        env = harness.environment(ROOT)
        if args.trace:
            result, tally = harness.trace(workload, args.seconds)
        else:
            result, tally = harness.measure(workload, args.seconds, SRC)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    measured = result["metrics"]
    metrics = {}
    for entry in declared:
        # A layer the workload never calls has no spans: its counts and
        # times are 0.
        value = measured.get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if not HAVE_SCIPY:
        print("note: scipy is not installed; the kstwo and kolmogorov oracle checks were skipped")
    print(f"workload: {workload.name}, seed {args.seed}, {workload.items} "
          f"{workload.item_unit} per job, one client, closed loop, "
          f"{'traced' if args.trace else 'untraced'}")
    for key, summary in result["details"].items():
        print(f"{key}: median {_fmt(summary['median'])} s, quartiles "
              f"{_fmt(summary['q1'])}..{_fmt(summary['q3'])} s, range "
              f"{_fmt(summary['min'])}..{_fmt(summary['max'])} s, "
              f"{summary['count']} samples")
    for name, metric in metrics.items():
        print(f"{name}: {_fmt(metric['value'])} {metric['unit']}")
    if args.trace:
        print("per-layer figures are per job (median over traced jobs); "
              "matmul_flops is computed from the exact_cdf arguments, not timed")
        print(WAIT_NOTE)
    else:
        wall = result["details"]["job wall time"]["median"]
        print(f"job_s and setup_s are calibrated: wall times scaled to the machine "
              f"speed at which the reference work takes {harness.REFERENCE_NOMINAL_S} s; "
              f"this run's job wall time / calibrated time = "
              f"{_fmt(wall / measured['job_s'])}")
        print(f"items_per_s counts {workload.item_unit} per calibrated second")
    print(f"fail_ratio: {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4g}")
    for problem in tally.problems:
        print(f"failed check: {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)
    sys.exit(main(sys.argv[1:]))
