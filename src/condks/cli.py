"""Command-line front end.

Exit codes are uniform across subcommands: 0 for success (and a
non-rejecting test), 1 for a rejecting test, 2 for usage or data
errors.  All tabular output is plain CSV, all reports are single-line
JSON, so everything pipes.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
import warnings
from array import array
from contextlib import nullcontext
from dataclasses import replace
from itertools import chain
from typing import Iterable

import click
import numpy as np

from .conditional import csv_records, pit_transform
from .kolmogorov import (
    _level,
    _level_target,
    _shared_law,
    asymptotic_cdf,
    asymptotic_critical_value,
    critical_value,
    exact_cdf,
    p_value,
)
from .monte_carlo import _in_parts, meta_test, power_from_statistics, run_replicates
from .specs import load_scenario, parse_family_spec
from .testing import conditional_ks_test


class _Main(click.Group):
    """Ends a subcommand that raises ValueError or OSError, a data error,
    with ``error: <message>`` on stderr and exit code 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # a closed stdout pipe: click exits 1 quietly
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


def _write(lines: Iterable[str], out: str | None) -> None:
    """Write ``lines`` as they come, each ended by LF, to stdout or to the UTF-8 file ``out``."""
    with (nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8", newline="\n")) as fh:
        fh.writelines(line + "\n" for line in lines)
        fh.flush()  # in the command, so that click ends a closed stdout pipe quietly


_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # numpy's opener decompresses these


def _processes() -> int:
    """Worker processes for a command: the CPUs this process may use, at
    most the 2 measured (README, "Worker processes")."""
    return min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1


def _read_pairs(path: str) -> np.ndarray:
    """Read an ``xi,zeta`` CSV file into an (n, 2) float array.

    A pipe, or a file named with a suffix numpy's opener decompresses,
    is first copied once to a temporary directory and read there as plain
    text: a pipe opened again resumes mid-stream, and a decompressor
    raises on plain text.  Errors name ``path``, never the copy.

    A regular file takes two routes.  numpy's C reader parses it in one
    call from its absolute path (it reads a file it opens in blocks, and
    fetches a relative path that parses as a URL) after ``csv`` reads the
    header on its own handle; numpy skips the physical lines ``csv`` took.
    A file numpy refuses, or whose values are not n >= 1 finite pairs, is
    read again by ``_read_pairs_by_line``: only that loop names the line of
    a bad record and takes the spellings only ``float()`` accepts (``1_0``).
    """
    if not os.path.isfile(path) or path.endswith(_COMPRESSED):
        with tempfile.TemporaryDirectory() as scratch:
            copy = os.path.join(scratch, "pairs.csv")
            with open(path, "rb") as src, open(copy, "wb") as dst:
                shutil.copyfileobj(src, dst)  # copyfile refuses a FIFO
            try:
                return _read_pairs(copy)
            except ValueError as exc:
                raise ValueError(str(exc).replace(copy, path)) from None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = csv.reader(fh)
        try:
            header = [c.strip() for c in next(rows, [])]
        except (ValueError, csv.Error):
            header = None
        if header == ["xi", "zeta"]:
            try:
                with warnings.catch_warnings():
                    # numpy warns on an empty body; the loop words it as an error.
                    warnings.simplefilter("ignore", UserWarning)
                    pairs = np.loadtxt(os.path.abspath(path), delimiter=",",
                                       comments=None, quotechar='"', ndmin=2,
                                       skiprows=rows.line_num, encoding="utf-8-sig")
            except ValueError:
                pass
            else:
                if pairs.size and pairs.shape[1] == 2 and np.isfinite(pairs).all():
                    return pairs
    return _read_pairs_by_line(path)


def _read_pairs_by_line(path: str) -> np.ndarray:
    """``_read_pairs`` one record at a time, with ``csv`` and ``float()``."""
    flat = array("d")
    for _, values in csv_records(path, ("xi", "zeta")):
        flat.extend(values)
    if not flat:
        raise ValueError(f"{path}: no data rows")
    return np.frombuffer(flat).reshape(-1, 2)


def _read_input(path: str, family_spec: str):
    """The pairs in ``path``, the spec's family and the test kind: a
    pinned zeta replaces the zeta column and makes the test classic.  The
    spec is parsed first, so a bad one is named before the file is read."""
    family, pinned = parse_family_spec(family_spec)
    pairs = _read_pairs(path)
    if pinned is None:
        return pairs, family, "conditional"
    pairs[:, 1] = pinned
    return pairs, family, "classic"


@click.group(cls=_Main)
def main() -> None:
    """KS tests for plain samples and covariate-conditioned pairs."""


@main.command("test")
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--family", "family_spec", required=True,
              help="Family spec, e.g. 'normal-location:sigma=1'; zeta=... runs "
                   "the classic test.")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--mode", type=click.Choice(["exact", "asymptotic", "auto"]),
              default="auto", show_default=True)
def cmd_test(data: str, family_spec: str, alpha: float, mode: str) -> None:
    """Run a KS test on the pairs in DATA and print a JSON report."""
    _level(alpha, "--alpha")
    pairs, family, kind = _read_input(data, family_spec)
    report = replace(conditional_ks_test(pairs, family, alpha=alpha, mode=mode),
                     test_kind=kind)
    click.echo(report.to_json())
    sys.exit(1 if report.reject else 0)


@main.command("dist")
@click.option("-n", "n", type=int, default=None,
              help="Sample size for the exact finite-n law.")
@click.option("--asymptotic", is_flag=True,
              help="Query the limiting law of sqrt(n) * D_n instead.")
@click.argument("query", type=click.Choice(["cdf", "pvalue", "critical"]))
@click.argument("value", type=float)
def cmd_dist(n: int | None, asymptotic: bool, query: str, value: float) -> None:
    """Evaluate the null distribution at VALUE (12 significant digits).

    cdf and pvalue take a statistic, critical takes a level alpha; a
    critical value is rounded up, never down.
    """
    if (n is None) == (not asymptotic):
        raise click.UsageError("pass exactly one of -n or --asymptotic")
    # (query, asymptotic): the exact law of D_n or the limit of sqrt(n) D_n.
    result = {
        ("cdf", False): lambda: exact_cdf(n, value),
        ("pvalue", False): lambda: p_value(value, n, "exact"),
        ("critical", False): lambda: critical_value(n, value),
        ("cdf", True): lambda: asymptotic_cdf(value),
        ("pvalue", True): lambda: 1.0 - asymptotic_cdf(value),
        ("critical", True): lambda: asymptotic_critical_value(value),
    }[query, asymptotic]()
    if query == "critical":
        # Round up, so that the printed threshold still reaches 1 - alpha.
        # (Imported here: decimal adds 0.4 MB to every other command.)
        from decimal import ROUND_CEILING, Context, Decimal

        result = float(Context(prec=12, rounding=ROUND_CEILING).plus(Decimal(result)))
    click.echo(f"{result:.12g}")


@main.command("table")
@click.option("--n-max", type=click.IntRange(min=1), required=True,
              help="Tabulate sample sizes 1..N_MAX.")
@click.option("--alpha", "alphas", type=float, multiple=True,
              default=(0.2, 0.1, 0.05, 0.01), show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the CSV here instead of stdout.")
def cmd_table(n_max: int, alphas: tuple[float, ...], out: str | None) -> None:
    """Print a critical-value table as CSV, one row per sample size."""
    for a in alphas:  # in order, so the first bad level is the one named
        _level_target(_level(a, "--alpha"))
    # Part i takes the rows n = i + 1 (mod parts), as a row's cost grows
    # with n.  Fresh 2-process tables broke even at 32-40 cells a part and
    # won from 56 (README, "Worker processes"), so a part gets 64 at least.
    parts = max(1, min(_processes(), n_max * len(alphas) // 64))
    done = _in_parts(_table_rows, [(range(i + 1, n_max + 1, parts), alphas)
                                   for i in range(parts)])
    rows = [""] * n_max
    for i, part in enumerate(done):
        rows[i::parts] = part
    _write(["n," + ",".join(repr(float(a)) for a in alphas), *rows], out)


def _table_rows(sizes: range, alphas: tuple[float, ...]) -> list[str]:
    """The CSV rows of ``condks table`` for the sample sizes ``sizes``."""
    return [f"{size}," + ",".join(repr(critical_value(size, a)) for a in alphas)
            for size in sizes]


@main.command("simulate")
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True,
              help="Directory for statistics.csv and summary.json.")
@click.option("--alpha", type=float, default=0.05, show_default=True,
              help="Per-replicate test level for the power estimate.")
@click.option("--meta-alpha", type=float, default=0.01, show_default=True,
              help="Level for the calibration meta-test.")
def cmd_simulate(scenario: str, out_dir: str, alpha: float, meta_alpha: float) -> None:
    """Run a scenario end-to-end and write its artifacts.

    Exits 1 when the calibration meta-test rejects (expected for
    power scenarios, whose statistics are not null-distributed).
    """
    _level(alpha, "--alpha")
    _level(meta_alpha, "--meta-alpha")
    config = load_scenario(scenario)
    # Each part of the run puts its statistics' law, batched, into the
    # scope that both passes read (up to AUTO_EXACT_LIMIT; see _shared_law).
    with _shared_law(config.n):
        stats = run_replicates(config, _processes())
        meta = meta_test(stats, config.n, alpha=meta_alpha)
        summary: dict = {"meta_test": meta.to_dict()}
        if not config.is_calibration:
            power = power_from_statistics(stats, config.n, alpha)
            summary["power"] = {**power._asdict(), "alpha": alpha}
    os.makedirs(out_dir, exist_ok=True)
    _write(chain(["statistic"], map(repr, map(float, stats))),
           os.path.join(out_dir, "statistics.csv"))
    _write([json.dumps(summary, indent=2)], os.path.join(out_dir, "summary.json"))
    sys.exit(1 if meta.reject else 0)


@main.command("curve")
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--family", "family_spec", required=True)
@click.option("--grid", "grid_size", type=click.IntRange(min=0), default=100,
              show_default=True,
              help="Extra evenly spaced evaluation points; 0 for jumps only.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the CSV here instead of stdout.")
def cmd_curve(data: str, family_spec: str, grid_size: int, out: str | None) -> None:
    """Emit the transformed-sample ECDF against its uniform reference.

    Columns are x,empirical,reference.  Each jump contributes its
    pre- and post-jump value, so the largest |empirical - reference|
    across rows equals the KS statistic exactly; nothing is plotted
    here, the CSV is meant for external tooling.
    """
    pairs, family, _ = _read_input(data, family_spec)
    ys = pit_transform(pairs, family).values
    n = ys.size
    grid = [0.5] if grid_size == 1 else [j / (grid_size - 1) for j in range(grid_size)]
    # ys is sorted, so the count of values <= x is one binary search.
    counts = np.searchsorted(ys, grid, side="right").tolist()
    # The rows (x, empirical, reference) in sorted order, formatted once
    # per float.  Value i of ys gives (y, (i-1)/n, y) and (y, i/n, y); a
    # grid point x with count values <= x gives (x, count/n, x), which
    # sorts right after the jump rows of those values.
    fractions = [repr(i / n) for i in range(n + 1)]
    jumps = [f"{y},{before},{y}\n{y},{after},{y}" for y, before, after
             in zip(map(repr, ys.tolist()), fractions, fractions[1:])]
    lines = ["x,empirical,reference"]
    done = 0
    for x, count in zip(grid, counts):
        lines.extend(jumps[done:count])
        x = repr(x)
        lines.append(f"{x},{fractions[count]},{x}")
        done = count
    lines.extend(jumps[done:])
    _write(lines, out)


if __name__ == "__main__":
    main()
