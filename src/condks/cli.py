"""Command-line front end.

Exit codes are uniform across subcommands: 0 for success (and a
non-rejecting test), 1 for a rejecting test, 2 for usage or data
errors.  All tabular output is plain CSV, all reports are single-line
JSON, so everything pipes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from array import array
from dataclasses import replace

import click
import numpy as np

from .conditional import pit_transform
from .kolmogorov import (
    asymptotic_cdf,
    asymptotic_critical_value,
    critical_value,
    exact_cdf,
    p_value,
)
from .monte_carlo import meta_test, power_from_statistics, run_replicates
from .specs import load_scenario, parse_family_spec
from .testing import conditional_ks_test


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _read_pairs(path: str) -> np.ndarray:
    """Read an ``xi,zeta`` CSV file into an (n, 2) float array."""
    xis, zetas = array("d"), array("d")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["xi", "zeta"]:
            raise ValueError(f"{path}: expected header 'xi,zeta', got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}: line {reader.line_num}: expected 2 fields")
            try:
                xi, zeta = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(
                    f"{path}: line {reader.line_num}: non-numeric value"
                ) from None
            if not (math.isfinite(xi) and math.isfinite(zeta)):
                raise ValueError(f"{path}: line {reader.line_num}: non-finite value")
            xis.append(xi)
            zetas.append(zeta)
    if not xis:
        raise ValueError(f"{path}: no data rows")
    return np.column_stack((np.frombuffer(xis), np.frombuffer(zetas)))


def _read_input(path: str, family_spec: str, kind: str):
    """The pairs in ``path`` and the spec's family, ready for the
    conditional path: --kind classic needs a pinned zeta, which replaces
    the zeta column; --kind conditional refuses one."""
    pairs = _read_pairs(path)
    family, pinned = parse_family_spec(family_spec)
    if kind == "classic":
        if pinned is None:
            raise ValueError(
                "classic kind needs a fixed conditioning value, add "
                "zeta=... to the family spec"
            )
        pairs[:, 1] = pinned
    elif pinned is not None:
        raise ValueError("zeta= pinning only applies to --kind classic")
    return pairs, family


@click.group()
def main() -> None:
    """KS tests for plain samples and covariate-conditioned pairs."""


@main.command("test")
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--family", "family_spec", required=True,
              help="Family spec, e.g. 'normal-location:sigma=1'.")
@click.option("--kind", type=click.Choice(["conditional", "classic"]),
              default="conditional", show_default=True,
              help="classic ignores the zeta column and needs zeta= in the spec.")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--mode", type=click.Choice(["exact", "asymptotic", "auto"]),
              default="auto", show_default=True)
def cmd_test(data: str, family_spec: str, kind: str, alpha: float, mode: str) -> None:
    """Run a KS test on the pairs in DATA and print a JSON report."""
    try:
        pairs, family = _read_input(data, family_spec, kind)
        report = replace(conditional_ks_test(pairs, family, alpha=alpha, mode=mode),
                         test_kind=kind)
    except (ValueError, OSError) as exc:
        _fail(str(exc))
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
    try:
        if asymptotic:
            if query == "cdf":
                result = asymptotic_cdf(value)
            elif query == "pvalue":
                result = 1.0 - asymptotic_cdf(value)
            else:
                result = asymptotic_critical_value(value)
        else:
            if query == "cdf":
                result = exact_cdf(n, value)
            elif query == "pvalue":
                result = p_value(value, n, "exact")
            else:
                result = critical_value(n, value)
    except ValueError as exc:
        _fail(str(exc))
    if query == "critical":
        # Round up, so that the printed threshold still reaches 1 - alpha.
        # (Imported here: decimal adds 0.4 MB to every other command.)
        from decimal import ROUND_CEILING, Context, Decimal

        result = float(Context(prec=12, rounding=ROUND_CEILING).plus(Decimal(result)))
    click.echo(f"{result:.12g}")


@main.command("table")
@click.option("--n-max", type=int, required=True,
              help="Tabulate sample sizes 1..N_MAX.")
@click.option("--alpha", "alphas", type=float, multiple=True,
              default=(0.2, 0.1, 0.05, 0.01), show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the CSV here instead of stdout.")
def cmd_table(n_max: int, alphas: tuple[float, ...], out: str | None) -> None:
    """Print a critical-value table as CSV, one row per sample size."""
    try:
        if n_max < 1:
            raise ValueError(f"--n-max must be >= 1, got {n_max}")
        for a in alphas:
            if not 0.0 < a < 1.0:
                raise ValueError(f"alpha must lie in (0, 1), got {a}")
        lines = ["n," + ",".join(repr(float(a)) for a in alphas)]
        for size in range(1, n_max + 1):
            cells = [repr(critical_value(size, a)) for a in alphas]
            lines.append(f"{size}," + ",".join(cells))
    except ValueError as exc:
        _fail(str(exc))
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


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
    try:
        for option, level in (("--alpha", alpha), ("--meta-alpha", meta_alpha)):
            if not 0.0 < level < 1.0:
                raise ValueError(f"{option} must lie in (0, 1), got {level}")
        config = load_scenario(scenario)
        stats = run_replicates(config)
        meta = meta_test(stats, config.n, alpha=meta_alpha)
        summary: dict = {"meta_test": meta.to_dict()}
        if not config.is_calibration:
            power = power_from_statistics(stats, config.n, alpha)
            summary["power"] = {
                "rejection_rate": power.rejection_rate,
                "std_error": power.std_error,
                "alpha": alpha,
            }
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "statistics.csv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write("statistic\n")
            for s in stats:
                fh.write(repr(float(s)) + "\n")
        with open(os.path.join(out_dir, "summary.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(summary, indent=2) + "\n")
    except (ValueError, OSError) as exc:
        _fail(str(exc))
    sys.exit(1 if meta.reject else 0)


@main.command("curve")
@click.argument("data", type=click.Path(exists=True, dir_okay=False))
@click.option("--family", "family_spec", required=True)
@click.option("--kind", type=click.Choice(["conditional", "classic"]),
              default="conditional", show_default=True)
@click.option("--grid", "grid_size", type=int, default=100, show_default=True,
              help="Extra evenly spaced evaluation points; 0 for jumps only.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the CSV here instead of stdout.")
def cmd_curve(data: str, family_spec: str, kind: str, grid_size: int,
              out: str | None) -> None:
    """Emit the transformed-sample ECDF against its uniform reference.

    Columns are x,empirical,reference.  Each jump contributes its
    pre- and post-jump value, so the largest |empirical - reference|
    across rows equals the KS statistic exactly; nothing is plotted
    here, the CSV is meant for external tooling.
    """
    try:
        if grid_size < 0:
            raise ValueError(f"--grid must be >= 0, got {grid_size}")
        pairs, family = _read_input(data, family_spec, kind)
        ys = pit_transform(pairs, family).values
        n = ys.size
        if grid_size == 1:
            grid = [0.5]
        elif grid_size > 1:
            grid = [j / (grid_size - 1) for j in range(grid_size)]
        else:
            grid = []
        # ys is sorted, so the count of values <= x is one binary search.
        counts = np.searchsorted(ys, grid, side="right").tolist()
    except (ValueError, OSError) as exc:
        _fail(str(exc))
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
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
