"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import harness  # noqa: E402
from click.testing import CliRunner  # noqa: E402
from layer_trace import LayerTracer, mtw_matmul_flops  # noqa: E402
from workloads import (  # noqa: E402
    ANCHOR_SEED, HAVE_SCIPY, Job, SimulatePower, Table, TestRows,
)

import condks.cli  # noqa: E402
import condks.kolmogorov  # noqa: E402
import condks.monte_carlo  # noqa: E402

SMOKE = {
    "simulate_power": lambda seed, d: SimulatePower(seed, d, replicates=300),
    "test_rows": lambda seed, d: TestRows(seed, d, rows=3000),
    "table": lambda seed, d: Table(seed, d, n_max=25),
}
COUNT_SUFFIXES = (".calls", ".values", ".matrix_calls", ".matmul_flops")


def _prepared(name: str, tmp_path: Path, seed: int = 7):
    workload = SMOKE[name](seed, tmp_path / name)
    workload.prepare()
    return workload


def _traced_job(workload, tracer: LayerTracer) -> dict[str, float]:
    tally = harness.Tally()
    with tracer:
        harness.run_job(workload.main_job(), CliRunner(), tally, "traced", tracer)
    assert tally.failed == 0, tally.problems
    return tracer.job_metrics()


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_jobs_pass_their_checks(name, tmp_path):
    workload = _prepared(name, tmp_path)
    tally = harness.Tally()
    runner = CliRunner()
    for job in (workload.warmup_job(), workload.main_job(), workload.main_job()):
        harness.run_job(job, runner, tally, "smoke")
    assert (tally.attempted, tally.failed) == (3, 0), tally.problems


def test_anchor_seed_output_passes_the_frozen_checks(tmp_path):
    workload = SimulatePower(ANCHOR_SEED, tmp_path)
    workload.prepare()
    tally = harness.Tally()
    harness.run_job(workload.fresh_job(), CliRunner(), tally, "anchor")
    assert tally.failed == 0, tally.problems


def test_measure_reports_every_end_to_end_metric(tmp_path):
    workload = _prepared("test_rows", tmp_path)
    result, tally = harness.measure(workload, 0.01, SRC)
    assert tally.failed == 0, tally.problems
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for entry in declared:
        assert result["metrics"][entry["name"]] > 0


def _edit_statistic(job: Job, code: int, stdout: str) -> tuple[int, str]:
    path = job.out_dir / "statistics.csv"
    lines = path.read_text().splitlines()
    lines[1] = repr(float(lines[1]) + 1e-6)  # replicate 0 is always re-derived
    path.write_text("\n".join(lines) + "\n")
    return code, stdout


def _edit_rejection_rate(job: Job, code: int, stdout: str) -> tuple[int, str]:
    path = job.out_dir / "summary.json"
    summary = json.loads(path.read_text())
    summary["power"]["rejection_rate"] += 1 / 300
    path.write_text(json.dumps(summary))
    return code, stdout


def _flip_exit_code(job: Job, code: int, stdout: str) -> tuple[int, str]:
    return 1 - code, stdout


def _edit_report_statistic(job: Job, code: int, stdout: str) -> tuple[int, str]:
    report = json.loads(stdout)
    report["statistic"] += 1e-9
    return code, json.dumps(report)


def _edit_table_cell(job: Job, code: int, stdout: str) -> tuple[int, str]:
    lines = stdout.splitlines()
    cells = lines[3].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[3] = ",".join(cells)
    return code, "\n".join(lines) + "\n"


CORRUPTIONS = [
    ("simulate_power", _edit_statistic),
    ("simulate_power", _flip_exit_code),
    ("test_rows", _edit_report_statistic),
    ("test_rows", _flip_exit_code),
    ("table", _edit_table_cell),
]
if HAVE_SCIPY:
    CORRUPTIONS.append(("simulate_power", _edit_rejection_rate))


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS,
                         ids=[f"{n}-{c.__name__.lstrip('_')}" for n, c in CORRUPTIONS])
def test_corrupted_output_counts_as_failed(name, corrupt, tmp_path):
    workload = _prepared(name, tmp_path)
    job = workload.main_job()
    bad = Job(job.args, lambda code, out: job.check(*corrupt(job, code, out)), job.out_dir)
    tally = harness.Tally()
    runner = CliRunner()
    harness.run_job(job, runner, tally, "clean")
    harness.run_job(bad, runner, tally, "corrupted")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.problems[0].startswith("corrupted: ")


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_trace_counts_repeat_exactly(name, tmp_path):
    workload = _prepared(name, tmp_path)
    tracer = LayerTracer()
    first, second = (_traced_job(workload, tracer) for _ in range(2))
    counts = sorted(k for k in first if k.endswith(COUNT_SUFFIXES))
    assert counts
    assert [first[k] for k in counts] == [second[k] for k in counts]


def test_trace_sees_calls_through_names_imported_elsewhere(tmp_path):
    # meta_test calls exact_cdf through monte_carlo's namespace and the
    # CLI's power recount calls p_value through cli's: one call of each
    # per replicate, plus the meta-test's own p-value.
    workload = _prepared("simulate_power", tmp_path)
    metrics = _traced_job(workload, LayerTracer())
    assert metrics["kolmogorov.p_value.calls"] == 300 + 1
    assert metrics["kolmogorov.exact_cdf.calls"] == 600
    assert metrics["kolmogorov.exact_cdf.distinct_ratio"] == 0.5
    assert metrics["monte_carlo.replicate_rng.calls"] == 300
    assert metrics["conditional.validate_zetas.values"] == 2 * 300 * 50


def test_uninstall_restores_every_original(tmp_path):
    originals = (condks.cli.exact_cdf, condks.monte_carlo.exact_cdf,
                 condks.kolmogorov.p_value, condks.conditional.NormalLocation.cdf)
    _traced_job(_prepared("table", tmp_path), LayerTracer())
    assert (condks.cli.exact_cdf, condks.monte_carlo.exact_cdf,
            condks.kolmogorov.p_value, condks.conditional.NormalLocation.cdf) == originals


def test_every_declared_layer_metric_is_produced(tmp_path):
    produced = {"trace.overhead_s"}
    for name in SMOKE:
        produced |= set(_traced_job(_prepared(name, tmp_path), LayerTracer()))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {entry["name"] for entry in declared} <= produced


def test_matmul_flops_model():
    # n = 50 is 0b110010: 5 squarings and 3 multiplies; d = 0.2 gives
    # k = 11, so m = 21.
    assert mtw_matmul_flops(50, 0.2) == 2 * 21 ** 3 * 8
    assert mtw_matmul_flops(50, 0.005) == 0  # nd <= 1/2
    assert mtw_matmul_flops(50, 0.9) == 0  # DKW bound below 1e-16
    assert mtw_matmul_flops(50, 1.0) == 0


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
