import json

import numpy as np
import pytest
from click.testing import CliRunner

from condks import (
    NormalLocation,
    asymptotic_critical_value,
    exact_cdf,
    ks_statistic_uniform,
    p_value,
    parse_family_spec,
)
from condks.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_null_csv(path, n=150, sigma=1.0, seed=11):
    rng = np.random.default_rng(seed)
    zetas = rng.uniform(-1.0, 2.0, n)
    xi = NormalLocation(sigma=sigma).quantile(rng.random(n), zetas)
    lines = ["xi,zeta"] + [f"{float(x)!r},{float(z)!r}" for x, z in zip(xi, zetas)]
    path.write_text("\n".join(lines) + "\n")


def write_scenario(path, body):
    path.write_text(body)


class TestTestCommand:
    def test_null_data_exit_zero(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        write_null_csv(data)
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=1"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["test_kind"] == "conditional"
        assert report["reject"] is False

    def test_violating_data_exit_one(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        write_null_csv(data, n=300, sigma=2.0, seed=1)
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=1"])
        assert res.exit_code == 1
        assert json.loads(res.output)["reject"] is True

    def test_single_row_report(self, runner, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("xi,zeta\n0,0\n")
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=1"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["n"] == 1
        assert report["statistic"] == 0.5
        assert report["p_value"] == 1.0
        assert report["mode"] == "exact"

    def test_midpoint_data_attains_minimum_statistic(self, runner, tmp_path):
        # unit-window family with integer zetas keeps arithmetic exact
        n = 8
        zetas = [-2, -1, 0, 1, 2, 3, 4, 5]
        rows = ["xi,zeta"]
        for i, z in enumerate(zetas, start=1):
            p = (2 * i - 1) / (2 * n)
            rows.append(f"{z + p!r},{z}")
        data = tmp_path / "mid.csv"
        data.write_text("\n".join(rows) + "\n")
        res = runner.invoke(main, ["test", str(data), "--family", "uniform-width"])
        assert res.exit_code == 0
        assert json.loads(res.output)["statistic"] == 1.0 / (2.0 * n)

    def test_classic_kind_with_pinned_zeta(self, runner, tmp_path):
        rng = np.random.default_rng(44)
        xi = NormalLocation(sigma=1.0).quantile(rng.random(120), np.full(120, 0.5))
        data = tmp_path / "c.csv"
        data.write_text("xi,zeta\n" + "\n".join(f"{float(x)!r},99" for x in xi) + "\n")
        res = runner.invoke(main, ["test", str(data), "--kind", "classic",
                                   "--family", "normal-location:sigma=1,zeta=0.5"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["test_kind"] == "classic"

    def test_classic_requires_pin(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        write_null_csv(data, n=5)
        res = runner.invoke(main, ["test", str(data), "--kind", "classic",
                                   "--family", "normal-location:sigma=1"])
        assert res.exit_code == 2

    def test_conditional_rejects_pin(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        write_null_csv(data, n=5)
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=1,zeta=0"])
        assert res.exit_code == 2

    def test_missing_file(self, runner):
        res = runner.invoke(main, ["test", "nope.csv", "--family",
                                   "normal-location:sigma=1"])
        assert res.exit_code == 2

    def test_malformed_row_reports_line(self, runner, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("xi,zeta\n1,2\n1,oops\n")
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=1"])
        assert res.exit_code == 2
        assert "line 3" in res.output

    def test_wrong_header(self, runner, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1,2\n")
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=1"])
        assert res.exit_code == 2
        assert "xi,zeta" in res.output

    def test_domain_violation_reports_index(self, runner, tmp_path):
        data = tmp_path / "dom.csv"
        data.write_text("xi,zeta\n0.5,2.0\n0.5,-3\n")
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "exponential-rate"])
        assert res.exit_code == 2
        assert "index 1" in res.output

    def test_crlf_input_accepted(self, runner, tmp_path):
        data = tmp_path / "crlf.csv"
        data.write_bytes(b"xi,zeta\r\n0,0\r\n1,1\r\n")
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=1"])
        assert res.exit_code == 0

    # The ingest contract: what the reader accepts, and the exact error
    # text and line number of what it refuses.

    @pytest.mark.parametrize("body", [
        b"\xef\xbb\xbfxi,zeta\n0.25,0\n-1,1\n",   # UTF-8 byte-order mark
        b"xi,zeta\n\n0.25,0\n\n\n-1,1\n\n",       # blank lines
        b'xi,zeta\n"0.25","0"\n" -1 ",1\n',       # quoted fields, with spaces
        b"xi , zeta\n 0.25 ,0\t\n-1, 1\n",        # whitespace float() strips
    ])
    def test_accepted_layouts_give_the_plain_report(self, runner, tmp_path, body):
        plain = tmp_path / "plain.csv"
        plain.write_text("xi,zeta\n0.25,0\n-1,1\n")
        data = tmp_path / "layout.csv"
        data.write_bytes(body)
        for args in (["--family", "normal-location:sigma=1"],
                     ["--kind", "classic", "--family", "normal-location:sigma=1,zeta=0"]):
            want = runner.invoke(main, ["test", str(plain), *args])
            got = runner.invoke(main, ["test", str(data), *args])
            assert want.exit_code == 0, want.output
            assert (got.exit_code, got.output) == (0, want.output)

    @pytest.mark.parametrize("body, message", [
        ("xi,zeta\n0,0\n\n1,oops\n", "line 4: non-numeric value"),
        ("xi,zeta\n0,0\nnan,1\n", "line 3: non-finite value"),
        ("xi,zeta\n\n0,inf\n", "line 3: non-finite value"),
        ("xi,zeta\n0,-inf\n", "line 2: non-finite value"),
        ("xi,zeta\n0,0\n1,2,3\n", "line 3: expected 2 fields"),
        ("xi,zeta\n0,0\n\n\n1\n", "line 5: expected 2 fields"),
        ("xi,zeta\n", "no data rows"),
        ("xi,zeta\n\n\n", "no data rows"),
        ("", "expected header 'xi,zeta', got None"),
    ])
    def test_ingest_errors_name_file_and_line(self, runner, tmp_path, body, message):
        data = tmp_path / "bad.csv"
        data.write_text(body)
        for command in ("test", "curve"):
            res = runner.invoke(main, [command, str(data), "--family",
                                       "normal-location:sigma=1"])
            assert res.exit_code == 2
            assert res.output == f"error: {data}: {message}\n"


class TestDistCommand:
    def test_asymptotic_cdf_at_zero(self, runner):
        res = runner.invoke(main, ["dist", "--asymptotic", "cdf", "0"])
        assert res.exit_code == 0
        assert res.output.strip() == "0"

    def test_exact_n1(self, runner):
        res = runner.invoke(main, ["dist", "-n", "1", "cdf", "0.75"])
        assert res.output.strip() == "0.5"

    def test_critical_round_trip(self, runner):
        res = runner.invoke(main, ["dist", "-n", "20", "critical", "0.05"])
        crit = float(res.output)
        assert exact_cdf(20, crit) >= 0.95
        res2 = runner.invoke(main, ["dist", "-n", "20", "cdf", res.output.strip()])
        assert float(res2.output) >= 0.95

    def test_critical_rounds_up(self, runner):
        # Rounding to nearest printed a value below the critical value
        # for n = 44, alpha = 0.01 and n = 100, alpha = 0.2.
        for n in range(1, 101):
            for alpha in (0.2, 0.1, 0.05, 0.01, 0.001):
                res = runner.invoke(main, ["dist", "-n", str(n), "critical", str(alpha)])
                assert res.exit_code == 0
                assert exact_cdf(n, float(res.output)) >= 1.0 - alpha, (n, alpha)

    def test_asymptotic_critical_rounds_up(self, runner):
        res = runner.invoke(main, ["dist", "--asymptotic", "critical", "0.05"])
        x = asymptotic_critical_value(0.05)
        # the smallest 12-digit decimal at or above x, whose last digit is 1e-11
        assert x <= float(res.output) < x + 1e-11

    def test_pvalue_queries(self, runner):
        res = runner.invoke(main, ["dist", "-n", "10", "pvalue", "0.3"])
        assert float(res.output) == pytest.approx(1.0 - exact_cdf(10, 0.3), abs=1e-11)
        res = runner.invoke(main, ["dist", "--asymptotic", "pvalue", "1.3581"])
        assert float(res.output) == pytest.approx(0.05, abs=1e-6)

    def test_twelve_significant_digits(self, runner):
        res = runner.invoke(main, ["dist", "--asymptotic", "cdf", "1.0"])
        assert res.output.strip() == f"{0.730000328322645:.12g}"

    def test_mode_flags_are_exclusive(self, runner):
        assert runner.invoke(main, ["dist", "cdf", "0.5"]).exit_code == 2
        assert runner.invoke(
            main, ["dist", "-n", "5", "--asymptotic", "cdf", "0.5"]
        ).exit_code == 2

    def test_bad_alpha(self, runner):
        res = runner.invoke(main, ["dist", "-n", "5", "critical", "1.5"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["dist", "-n", "10", "critical", "1e-17"],
        ["dist", "--asymptotic", "critical", "1e-17"],
        ["table", "--n-max", "3", "--alpha", "1e-17"],
    ])
    def test_alpha_below_double_resolution(self, runner, args):
        # 1 - 1e-17 rounds to 1, where the searches used to return 1.0 and
        # 4.2919 instead of about 0.981 and 4.463
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert "1 - alpha rounds to 1" in res.output


class TestTableCommand:
    def test_default_alphas_and_round_trip(self, runner):
        res = runner.invoke(main, ["table", "--n-max", "8"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "n,0.2,0.1,0.05,0.01"
        assert len(lines) == 9
        alphas = [float(a) for a in lines[0].split(",")[1:]]
        for line in lines[1:]:
            cells = line.split(",")
            n = int(cells[0])
            for alpha, cell in zip(alphas, cells[1:]):
                v = float(cell)
                assert exact_cdf(n, v) >= 1.0 - alpha

    def test_rows_decrease_with_n(self, runner):
        res = runner.invoke(main, ["table", "--n-max", "10", "--alpha", "0.05"])
        vals = [float(line.split(",")[1]) for line in res.output.strip().splitlines()[1:]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_n100_close_to_asymptotic_scaling(self, runner):
        res = runner.invoke(main, ["table", "--n-max", "100", "--alpha", "0.05"])
        last = res.output.strip().splitlines()[-1].split(",")
        assert last[0] == "100"
        approx = asymptotic_critical_value(0.05) / np.sqrt(100.0)
        assert float(last[1]) == pytest.approx(approx, abs=0.005)

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "t.csv"
        res = runner.invoke(main, ["table", "--n-max", "3", "--out", str(out)])
        assert res.exit_code == 0
        assert out.read_text().startswith("n,0.2")

    def test_bad_inputs(self, runner):
        assert runner.invoke(main, ["table", "--n-max", "0"]).exit_code == 2
        assert runner.invoke(
            main, ["table", "--n-max", "3", "--alpha", "2"]
        ).exit_code == 2


CALIBRATION_CFG = (
    "zeta_sampler = uniform:a=0,b=1\n"
    "null_family = normal-location:sigma=1\n"
    "n = 12\n"
    "replicates = 80\n"
    "seed = 1305\n"
)

POWER_CFG = (
    "zeta_sampler = uniform:a=0,b=1\n"
    "null_family = normal-location:sigma=1\n"
    "data_family = normal-location:sigma=2\n"
    "n = 80\n"
    "replicates = 60\n"
    "seed = 7\n"
)


class TestSimulateCommand:
    def test_calibration_run(self, runner, tmp_path):
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG)
        out = tmp_path / "results"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        stats_lines = (out / "statistics.csv").read_text().splitlines()
        assert stats_lines[0] == "statistic"
        assert len(stats_lines) == 81
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"meta_test"}
        assert summary["meta_test"]["n"] == 80
        assert summary["meta_test"]["reject"] is False

    def test_power_run_summary_and_exit(self, runner, tmp_path):
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, POWER_CFG)
        out = tmp_path / "results"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        # statistics are deliberately not null-distributed: meta rejects
        assert res.exit_code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"meta_test", "power"}
        power = summary["power"]
        assert set(power) == {"rejection_rate", "std_error", "alpha"}
        assert power["alpha"] == 0.05
        assert power["rejection_rate"] > 0.5
        r = power["rejection_rate"]
        assert power["std_error"] == pytest.approx(np.sqrt(r * (1 - r) / 60))

    def test_single_replicate_csv_has_two_lines(self, runner, tmp_path):
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG.replace("replicates = 80",
                                                    "replicates = 1"))
        out = tmp_path / "r"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert len((out / "statistics.csv").read_text().splitlines()) == 2

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["simulate", str(cfg), "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["simulate", str(cfg), "--out", str(out2)]).exit_code == 0
        assert (out1 / "statistics.csv").read_bytes() == (out2 / "statistics.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_bad_scenario_key(self, runner, tmp_path):
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG + "bogus = 3\n")
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "bogus" in res.output

    def test_point_mass_outside_family_domain(self, runner, tmp_path):
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG.replace(
            "zeta_sampler = uniform:a=0,b=1", "zeta_sampler = point-mass:c=0"
        ).replace("normal-location:sigma=1", "exponential-rate"))
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "rate zeta must be > 0" in res.output
        assert "replicate" not in res.output
        assert not (tmp_path / "x").exists()

    def test_meta_alpha_checked_before_the_run(self, runner, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr("condks.cli.run_replicates", runs.append)
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG)
        out = tmp_path / "results"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out),
                                   "--meta-alpha", "2"])
        assert res.exit_code == 2
        assert res.output == "error: --meta-alpha must lie in (0, 1), got 2.0\n"
        assert runs == []
        assert not (out / "statistics.csv").exists()

    def test_missing_scenario_file(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", str(tmp_path / "no.cfg"),
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2


def curve_text_reference(ys, grid):
    """condks curve's CSV built by sorting every (x, empirical, reference)
    row as a tuple and formatting each field with repr."""
    ys = sorted(ys)
    n = len(ys)
    rows = []
    for i, y in enumerate(ys, start=1):
        rows += [(y, (i - 1) / n, y), (y, i / n, y)]
    for x in grid:
        rows.append((x, sum(1 for y in ys if y <= x) / n, x))
    return "x,empirical,reference\n" + "".join(
        f"{x!r},{e!r},{r!r}\n" for x, e, r in sorted(rows))


class TestCurveCommand:
    def test_single_pair_jump_rows(self, runner, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("xi,zeta\n0,0\n")
        res = runner.invoke(main, ["curve", str(data), "--family",
                                   "normal-location:sigma=1", "--grid", "0"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "x,empirical,reference"
        assert lines[1] == "0.5,0.0,0.5"
        assert lines[2] == "0.5,1.0,0.5"

    def test_max_gap_equals_statistic(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        write_null_csv(data, n=40, seed=2)
        test_res = runner.invoke(main, ["test", str(data), "--family",
                                        "normal-location:sigma=1"])
        stat = json.loads(test_res.output)["statistic"]
        curve_res = runner.invoke(main, ["curve", str(data), "--family",
                                         "normal-location:sigma=1", "--grid", "50"])
        gaps = []
        for line in curve_res.output.strip().splitlines()[1:]:
            _, emp, ref = (float(v) for v in line.split(","))
            gaps.append(abs(emp - ref))
        assert max(gaps) == stat

    def test_grid_adds_rows(self, runner, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("xi,zeta\n0,0\n")
        res = runner.invoke(main, ["curve", str(data), "--family",
                                   "normal-location:sigma=1", "--grid", "5"])
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 + 2 + 5
        xs = [float(l.split(",")[0]) for l in lines[1:]]
        assert xs == sorted(xs)

    def test_classic_kind(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("xi,zeta\n0.5,9\n0.1,9\n")
        res = runner.invoke(main, ["curve", str(data), "--kind", "classic",
                                   "--family", "uniform-width:zeta=0", "--grid", "0"])
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 5

    def test_out_file(self, runner, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("xi,zeta\n0,0\n")
        out = tmp_path / "curve.csv"
        res = runner.invoke(main, ["curve", str(data), "--family",
                                   "normal-location:sigma=1", "--out", str(out)])
        assert res.exit_code == 0
        assert out.read_text().startswith("x,empirical,reference")

    @pytest.mark.parametrize("kind, family", [
        ("conditional", "uniform-width"),
        ("classic", "uniform-width:zeta=0"),
    ])
    def test_grid_counts_ties_like_brute_force(self, runner, tmp_path, kind, family):
        # Most Y values land exactly on points of the 5-point grid
        # 0, 0.25, ..., 1, where a jump row and a grid row tie on x.
        pairs = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (-1.0, 0.0), (2.5, 2.0),
                 (0.25, 0.0), (0.7, 0.0), (1.75, 1.0)]
        data = tmp_path / "ties.csv"
        data.write_text("xi,zeta\n" + "".join(f"{x},{z}\n" for x, z in pairs))
        shift = (lambda z: z) if kind == "conditional" else (lambda z: 0.0)
        ys = [min(max(x - shift(z), 0.0), 1.0) for x, z in pairs]
        res = runner.invoke(main, ["curve", str(data), "--kind", kind,
                                   "--family", family, "--grid", "5"])
        assert res.exit_code == 0, res.output
        assert res.output == curve_text_reference(ys, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("kind, family", [
        ("conditional", "uniform-width"),
        ("classic", "uniform-width:zeta=0"),
    ])
    @pytest.mark.parametrize("grid_size", [0, 1, 2, 101])
    def test_bytes_match_sorted_rows(self, runner, tmp_path, kind, family, grid_size):
        # Two-decimal values: many ties, most of them on the 101-point grid
        # j/100, some clamped to 0 or 1, some on 1/2 for the 1-point grid.
        rng = np.random.default_rng(8)
        xs = np.round(rng.uniform(-0.2, 1.2, 400), 2)
        zetas = np.zeros(400) if kind == "conditional" else rng.uniform(-5, 5, 400)
        data = tmp_path / "ties.csv"
        data.write_text("xi,zeta\n" + "".join(
            f"{x!r},{z!r}\n" for x, z in zip(xs.tolist(), zetas.tolist())))
        ys = [min(max(x, 0.0), 1.0) for x in xs.tolist()]
        grid = ([0.5] if grid_size == 1 else
                [j / (grid_size - 1) for j in range(grid_size)] if grid_size else [])
        res = runner.invoke(main, ["curve", str(data), "--kind", kind,
                                   "--family", family, "--grid", str(grid_size)])
        assert res.exit_code == 0, res.output
        assert res.output == curve_text_reference(ys, grid)

    def test_negative_grid_rejected(self, runner, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("xi,zeta\n0,0\n")
        res = runner.invoke(main, ["curve", str(data), "--family",
                                   "normal-location:sigma=1", "--grid", "-1"])
        assert res.exit_code == 2


def write_normal_table(path):
    """A 'zeta,x,cdf' grid of the normal location family, for tabulated specs."""
    fam = NormalLocation(sigma=1.0)
    rows = ["zeta,x,cdf"]
    for z in (0.0, 0.5, 1.0):
        for x in np.linspace(-3.0, 4.0, 15).tolist():
            rows.append(f"{z!r},{x!r},{fam.cdf(x, z)!r}")
    path.write_text("\n".join(rows) + "\n")


class TestClassicKindMatchesScalarCdf:
    """--kind classic maps every xi through the pinned cdf in one array
    call; its output must equal one scalar cdf call per value."""

    FAMILIES = ["normal-location:sigma=2,zeta=0.5", "exponential-rate:zeta=1.5",
                "uniform-width:zeta=-0.25", "tabulated:path={table},zeta=0.3"]
    FAMILY_IDS = [spec.split(":")[0] for spec in FAMILIES]

    @pytest.fixture
    def case(self, tmp_path, request):
        table = tmp_path / "table.csv"
        write_normal_table(table)
        spec = request.param.format(table=table)
        rng = np.random.default_rng(23)
        xs = rng.normal(0.5, 1.5, 3000).tolist()
        zetas = rng.uniform(-9.0, 9.0, 3000).tolist()
        data = tmp_path / "d.csv"
        data.write_text("xi,zeta\n" + "".join(f"{x!r},{z!r}\n" for x, z in zip(xs, zetas)))
        family, pinned = parse_family_spec(spec)
        ys = sorted(float(family.cdf(x, pinned)) for x in xs)
        return data, spec, ys

    @pytest.mark.parametrize("case", FAMILIES, indirect=True, ids=FAMILY_IDS)
    def test_test_report(self, runner, case):
        data, spec, ys = case
        statistic = ks_statistic_uniform(ys)
        p = p_value(statistic, len(ys), "exact")
        res = runner.invoke(main, ["test", str(data), "--kind", "classic",
                                   "--family", spec, "--mode", "exact"])
        assert res.output == json.dumps({
            "test_kind": "classic", "n": len(ys), "statistic": statistic,
            "p_value": p, "mode": "exact", "alpha": 0.05, "reject": p < 0.05,
        }) + "\n"
        assert res.exit_code == int(p < 0.05)

    @pytest.mark.parametrize("case", FAMILIES, indirect=True, ids=FAMILY_IDS)
    def test_curve_rows(self, runner, case):
        data, spec, ys = case
        res = runner.invoke(main, ["curve", str(data), "--kind", "classic",
                                   "--family", spec, "--grid", "5"])
        assert res.exit_code == 0, res.output
        assert res.output == curve_text_reference(ys, [0.0, 0.25, 0.5, 0.75, 1.0])
