"""Workloads of the condks benchmark: seeded inputs, command lines, output checks.

Each workload turns the benchmark seed into input files with numpy alone
(never with condks's own samplers), names the ``condks`` command line
that processes them, and checks what the command produced.  The checks
use oracles that share no code with condks: the standard library's
``statistics.NormalDist`` always, and ``scipy.stats.kstwo`` /
``scipy.special`` when scipy imports.  A check returns a list of
problems; an empty list means the job's output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

try:
    from scipy import special as _special
    from scipy.stats import kstwo as _kstwo
except ImportError:  # the scipy oracles are optional
    _special = None
    _kstwo = None

HAVE_SCIPY = _kstwo is not None

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The criterion-8 power scenario at n = 50 (tests/test_acceptance.py):
# its statistics file is frozen by the reproducibility contract, and its
# rejection rate is the frozen power anchor.
ANCHOR_SEED = 88_050
ANCHOR_STATISTICS_SHA256 = (
    "a86846c5f601b03d8ad8c6f6d1647388eb5a1e6cd0299bc86cabfb31747bef51"
)
ANCHOR_REJECTION_RATE = 0.8508

# Tolerances.  The package's normal quantile is accurate to 1e-9, which
# bounds how far a re-derived statistic may sit from the reported one;
# critical values come from a bisection that stops at width 1e-10.
STATISTIC_TOL = 1e-9
BISECTION_WIDTH = 1e-10
LAW_TOL = 1e-12


@dataclass(frozen=True)
class Job:
    """One invocation of the ``condks`` command line and how to judge it.

    ``check(exit_code, stdout)`` returns the problems found in the
    output; files the command wrote are read by the check itself, from
    ``out_dir``, which is removed before each run so that a job that
    writes nothing cannot pass on an earlier job's files.
    """

    args: list[str]
    check: Callable[[int, str], list[str]]
    out_dir: Path | None = None


class Workload:
    """A named workload: seeded inputs plus the jobs that run on them.

    ``prepare`` writes the inputs; ``warmup_job`` is a small job run
    before timing; ``main_job`` is the timed job, repeated in a closed
    loop; ``fresh_job`` is the job a fresh process runs to measure peak
    memory.  ``items`` is the work one main job does, counted in
    ``item_unit``.
    """

    name: str
    item_unit: str
    items: int

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def prepare(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def warmup_job(self) -> Job:
        raise NotImplementedError

    def main_job(self) -> Job:
        raise NotImplementedError

    def fresh_job(self) -> Job:
        return self.main_job()


def _ks_uniform(y: np.ndarray) -> float:
    u = np.sort(y)
    n = u.size
    i = np.arange(1, n + 1)
    return float(max((i / n - u).max(), (u - (i - 1) / n).max()))


def _exit_code_problem(exit_code: int, reject: bool, what: str) -> list[str]:
    want = 1 if reject else 0
    if exit_code != want:
        return [f"exit code {exit_code}, expected {want} ({what} reject={reject})"]
    return []


class SimulatePower(Workload):
    """``condks simulate`` on the criterion-8 power scenario at n = 50.

    The only workload that runs every pipeline step: replicate RNG,
    draws, quantile then cdf, sort and statistic, null law, reduction.
    The scenario seed is the benchmark seed; the fresh-process job runs
    the anchor seed, where the output is frozen.
    """

    name = "simulate_power"
    item_unit = "replicates"
    n = 50
    alpha = 0.05
    meta_alpha = 0.01
    zeta_low, zeta_high = 0.0, 1.0
    null_sigma, data_sigma = 1.0, 2.0
    sampled_replicates = 64
    warmup_replicates = 200

    def __init__(self, seed: int, work_dir: Path, replicates: int = 10_000) -> None:
        super().__init__(seed, work_dir)
        self.replicates = replicates
        self.items = replicates
        self._critical = None

    def _scenario(self, tag: str, seed: int, replicates: int) -> Path:
        path = self.work_dir / f"{tag}.cfg"
        path.write_text(
            f"zeta_sampler = uniform:a={self.zeta_low!r},b={self.zeta_high!r}\n"
            f"null_family = normal-location:sigma={self.null_sigma!r}\n"
            f"data_family = normal-location:sigma={self.data_sigma!r}\n"
            f"n = {self.n}\n"
            f"replicates = {replicates}\n"
            f"seed = {seed}\n",
            encoding="utf-8",
        )
        return path

    def prepare(self) -> None:
        super().prepare()
        self._cfg = {
            "main": (self._scenario("main", self.seed, self.replicates),
                     self.seed, self.replicates),
            "warmup": (self._scenario("warmup", self.seed, self.warmup_replicates),
                       self.seed, self.warmup_replicates),
            "anchor": (self._scenario("anchor", ANCHOR_SEED, self.replicates),
                       ANCHOR_SEED, self.replicates),
        }
        if HAVE_SCIPY:
            # The exact level-alpha critical value: a replicate rejects
            # iff its statistic exceeds it.
            self._critical = float(_kstwo.isf(self.alpha, self.n))

    def _job(self, tag: str) -> Job:
        cfg, seed, replicates = self._cfg[tag]
        out = self.work_dir / f"out_{tag}"
        return Job(
            args=["simulate", str(cfg), "--out", str(out),
                  "--alpha", repr(self.alpha), "--meta-alpha", repr(self.meta_alpha)],
            check=lambda code, stdout: self.check(out, seed, replicates, code),
            out_dir=out,
        )

    def warmup_job(self) -> Job:
        return self._job("warmup")

    def main_job(self) -> Job:
        return self._job("main")

    def fresh_job(self) -> Job:
        return self._job("anchor")

    def expected_statistic(self, seed: int, index: int) -> float:
        """Replicate ``index`` re-derived from its own seed stream.

        The draw order is the package's documented contract: n zetas
        from the uniform sampler, then n uniforms pushed through the
        data family's quantile.
        """
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        rng = np.random.Generator(np.random.PCG64(ss))
        rng.random(self.n)  # the zetas: y below depends only on xi - zeta
        u = rng.random(self.n)
        data = statistics.NormalDist(0.0, self.data_sigma)
        null = statistics.NormalDist(0.0, self.null_sigma)
        y = np.array([null.cdf(data.inv_cdf(float(p))) for p in u])
        return _ks_uniform(y)

    def check(self, out: Path, seed: int, replicates: int,
              exit_code: int) -> list[str]:
        try:
            raw = (out / "statistics.csv").read_bytes()
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"cannot read outputs: {exc}"]
        problems: list[str] = []
        lines = raw.decode("utf-8").splitlines()
        if not lines or lines[0] != "statistic":
            return ["statistics.csv lacks its 'statistic' header"]
        try:
            stats = np.array([float(v) for v in lines[1:]])
        except ValueError:
            return ["statistics.csv holds a non-numeric value"]
        if stats.size != replicates:
            return [f"{stats.size} statistics, expected {replicates}"]
        if np.any(stats < 1.0 / (2 * self.n)) or np.any(stats > 1.0):
            problems.append("a statistic lies outside [1/(2n), 1]")

        picks = np.random.default_rng(seed).choice(
            replicates, size=min(self.sampled_replicates, replicates), replace=False)
        for r in sorted({0, replicates - 1, *picks.tolist()}):
            want = self.expected_statistic(seed, r)
            if abs(stats[r] - want) > STATISTIC_TOL:
                problems.append(f"replicate {r}: statistic {stats[r]!r}, "
                                f"re-derived {want!r}")
                break

        try:
            power = summary["power"]
            meta = summary["meta_test"]
            rate = float(power["rejection_rate"])
            std_error = float(power["std_error"])
            meta_p = float(meta["p_value"])
            meta_reject = bool(meta["reject"])
        except (KeyError, TypeError, ValueError):
            return problems + ["summary.json lacks power or meta_test fields"]
        rejections = rate * replicates
        if abs(rejections - round(rejections)) > 1e-6:
            problems.append(f"rejection_rate {rate} is not a count over {replicates}")
        if self._critical is not None:
            # Statistics within the bisection width of the critical
            # value may fall either way; all others are decided.
            surely = int(np.count_nonzero(stats > self._critical + BISECTION_WIDTH))
            maybe = int(np.count_nonzero(stats > self._critical - BISECTION_WIDTH))
            if not surely <= round(rejections) <= maybe:
                problems.append(f"{round(rejections)} rejections, kstwo at n={self.n} "
                                f"gives {surely}..{maybe}")
        se = math.sqrt(rate * (1.0 - rate) / replicates)
        if abs(std_error - se) > 1e-15:
            problems.append(f"std_error {std_error}, expected {se}")
        if meta_reject != (meta_p < self.meta_alpha):
            problems.append("meta_test reject disagrees with its p-value")
        problems += _exit_code_problem(exit_code, meta_reject, "meta_test")

        if seed == ANCHOR_SEED and replicates == 10_000:
            digest = hashlib.sha256(raw).hexdigest()
            if digest != ANCHOR_STATISTICS_SHA256:
                problems.append(f"anchor statistics.csv sha256 {digest} differs "
                                "from the recorded one")
            if rate != ANCHOR_REJECTION_RATE:
                problems.append(f"anchor rejection_rate {rate}, expected "
                                f"{ANCHOR_REJECTION_RATE}")
        return problems


class TestRows(Workload):
    """``condks test`` on ``rows`` xi,zeta pairs drawn under the null.

    zeta ~ U(-1, 1) and xi ~ N(zeta, 1).  Covers CSV ingest and one
    large-array probability integral transform; at this n the null law
    is one asymptotic evaluation and the Monte-Carlo harness is idle.
    """

    __test__ = False  # not a pytest class

    name = "test_rows"
    item_unit = "rows"
    family = "normal-location:sigma=1"
    alpha = 0.05

    def __init__(self, seed: int, work_dir: Path, rows: int = 100_000) -> None:
        super().__init__(seed, work_dir)
        self.rows = rows
        self.items = rows

    def prepare(self) -> None:
        super().prepare()
        rng = np.random.default_rng(self.seed)
        zeta = rng.uniform(-1.0, 1.0, self.rows)
        xi = zeta + rng.standard_normal(self.rows)
        self.data = self.work_dir / "rows.csv"
        # repr(float(v)): numpy 2 scalars print as np.float64(...).
        with open(self.data, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("xi,zeta\n")
            fh.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(xi, zeta))
        # The oracle reads the file back, as the command does.
        with open(self.data, newline="", encoding="utf-8") as fh:
            table = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        diff = table[:, 0] - table[:, 1]
        if _special is not None:
            y = _special.ndtr(diff)
        else:
            unit = statistics.NormalDist()
            y = np.array([unit.cdf(float(v)) for v in diff])
        self.statistic = _ks_uniform(y)
        scaled = math.sqrt(self.rows) * self.statistic
        self.p_value = float(_special.kolmogorov(scaled)) if _special is not None else None

    def _job(self) -> Job:
        return Job(args=["test", str(self.data), "--family", self.family,
                         "--alpha", repr(self.alpha)],
                   check=self.check)

    def warmup_job(self) -> Job:
        return self._job()

    def main_job(self) -> Job:
        return self._job()

    def check(self, exit_code: int, stdout: str) -> list[str]:
        lines = stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
            statistic = float(report["statistic"])
            p = float(report["p_value"])
            reject = report["reject"]
        except (IndexError, KeyError, TypeError, ValueError):
            return [f"no JSON report on stdout (exit code {exit_code})"]
        problems: list[str] = []
        expected = {"test_kind": "conditional", "n": self.rows,
                    "mode": "asymptotic" if self.rows > 140 else "exact",
                    "alpha": self.alpha}
        for key, want in expected.items():
            if report.get(key) != want:
                problems.append(f"{key}={report.get(key)!r}, expected {want!r}")
        if abs(statistic - self.statistic) > LAW_TOL:
            problems.append(f"statistic {statistic!r}, recomputed {self.statistic!r}")
        if self.p_value is not None and self.rows > 140 and abs(p - self.p_value) > 1e-10:
            problems.append(f"p_value {p!r}, kolmogorov oracle {self.p_value!r}")
        if reject is not (p < self.alpha):
            problems.append(f"reject={reject!r} but p_value={p!r}, alpha={self.alpha}")
        return problems + _exit_code_problem(exit_code, bool(reject), "test")


class Table(Workload):
    """``condks table --n-max 200`` with the default four alphas.

    Only the null law runs: a sequential bisection for every (n, alpha)
    cell, across the n = 140 switch of the test's auto mode.  The
    command takes no data, so the seed changes nothing here.
    """

    name = "table"
    item_unit = "cells"
    alphas = (0.2, 0.1, 0.05, 0.01)
    warmup_n_max = 20

    def __init__(self, seed: int, work_dir: Path, n_max: int = 200) -> None:
        super().__init__(seed, work_dir)
        self.n_max = n_max
        self.items = n_max * len(self.alphas)
        self.reference = _read_table(
            (REFERENCE_DIR / "table_n200.csv").read_text(encoding="utf-8"))
        self._law_checked: set[str] = set()

    def _job(self, n_max: int) -> Job:
        return Job(args=["table", "--n-max", str(n_max)],
                   check=lambda code, stdout: self.check(n_max, code, stdout))

    def warmup_job(self) -> Job:
        return self._job(min(self.warmup_n_max, self.n_max))

    def main_job(self) -> Job:
        return self._job(self.n_max)

    def check(self, n_max: int, exit_code: int, stdout: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}, expected 0"]
        try:
            table = _read_table(stdout)
        except ValueError as exc:
            return [f"unreadable table: {exc}"]
        header, rows = table
        if header != self.reference[0]:
            return [f"header {header}, expected {self.reference[0]}"]
        if len(rows) != n_max:
            return [f"{len(rows)} rows, expected {n_max}"]
        problems: list[str] = []
        for row, ref in zip(rows, self.reference[1]):
            if row[0] != ref[0] or np.max(np.abs(np.subtract(row[1:], ref[1:]))) > 2 * BISECTION_WIDTH:
                problems.append(f"row n={row[0]} differs from the reference")
                break
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if _kstwo is not None and digest not in self._law_checked:
            problems += self._check_law(header, rows)
            if not problems:
                self._law_checked.add(digest)
        return problems

    @staticmethod
    def _check_law(alphas: list[float], rows: list[list[float]]) -> list[str]:
        """Each cell c for n <= 140 is the exact level-alpha critical value
        to within the bisection width: P(D_n <= c) >= 1 - alpha, and
        P(D_n <= c - width) < 1 - alpha, with kstwo as the law."""
        for row in rows:
            n = int(row[0])
            if n > 140:
                break
            for alpha, c in zip(alphas, row[1:]):
                target = 1.0 - alpha
                if (_kstwo.cdf(c, n) < target - LAW_TOL
                        or _kstwo.cdf(c - 1.01 * BISECTION_WIDTH, n) >= target + LAW_TOL):
                    return [f"cell n={n}, alpha={alpha}: {c!r} is not the "
                            "kstwo critical value"]
        return []


def _read_table(text: str) -> tuple[list[float], list[list[float]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if not header or header[0] != "n":
        raise ValueError("missing 'n,...' header")
    rows = [[float(v) for v in row] for row in reader if row]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged rows")
    return [float(a) for a in header[1:]], rows


WORKLOADS = {cls.name: cls for cls in (SimulatePower, TestRows, Table)}
