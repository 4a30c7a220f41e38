"""The reproducibility contract, pinned byte for byte.

Each test runs the CLI through ``CliRunner`` and compares what it wrote
with one frozen constant: a full sha256 for a file or a long stdout, the
whole line for a JSON report.  A change that moves any of these bytes
has to change its constant here, on purpose and in one place.
"""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from condks.cli import main

# The anchor scenario (criterion 8 at n = 50, the simulate_power workload).
ANCHOR_SCENARIO = (
    "zeta_sampler = uniform:a=0.0,b=1.0\n"
    "null_family = normal-location:sigma=1.0\n"
    "data_family = normal-location:sigma=2.0\n"
    "n = 50\n"
    "replicates = 10000\n"
    "seed = 88050\n"
)
ANCHOR_STATISTICS_SHA256 = (
    "a86846c5f601b03d8ad8c6f6d1647388eb5a1e6cd0299bc86cabfb31747bef51"
)
ANCHOR_SUMMARY_SHA256 = (
    "8c7fbb64fdebfcdaf448acabcfb52aaf5edaad820203a257cd315dc4d27b4145"
)
TABLE_N200_SHA256 = (
    "6df5bb7cdd9fb56e65902709e1f4a9bf50013050e407db3fbe9a0445f7275d4e"
)

# condks test and condks curve on the file ``pairs_file`` writes, with a
# spec that leaves zeta to the file and with one that pins it.
UNPINNED = "normal-location:sigma=1"
PINNED = "normal-location:sigma=1,zeta=0.5"
TEST_REPORTS = {
    UNPINNED: (0, '{"test_kind": "conditional", "n": 120, '
                  '"statistic": 0.03421242208576647, "p_value": 0.9981745272226307, '
                  '"mode": "exact", "alpha": 0.05, "reject": false}'),
    PINNED: (0, '{"test_kind": "classic", "n": 120, '
                '"statistic": 0.06192251210018829, "p_value": 0.723115143065074, '
                '"mode": "exact", "alpha": 0.05, "reject": false}'),
}
CURVE_GRID7_SHA256 = {
    UNPINNED: "c25e23e1a23280bdbe1cc163123d242f4979723c49aa3aa1ba857220c83feaa8",
    PINNED: "e8251f9dfa77df1eacf437ad3b9a2279ab0cc96ef88430d8c598d021350992ef",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def pairs_file(tmp_path_factory):
    """120 seeded ``xi,zeta`` rows: zeta uniform on [0, 1), xi = zeta plus
    a standard normal draw, each float written by ``repr``."""
    rng = np.random.default_rng(2018)
    zetas = rng.uniform(0.0, 1.0, 120)
    xis = zetas + rng.standard_normal(120)
    path = tmp_path_factory.mktemp("golden") / "pairs.csv"
    path.write_text("xi,zeta\n" + "".join(
        f"{x!r},{z!r}\n" for x, z in zip(xis.tolist(), zetas.tolist())))
    return path


def test_anchor_simulate_artifacts(runner, tmp_path):
    scenario = tmp_path / "anchor.cfg"
    scenario.write_text(ANCHOR_SCENARIO)
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", str(scenario), "--out", str(out)])
    # The meta-test rejects: the data are not null-distributed.
    assert res.exit_code == 1, res.output
    assert sha256((out / "statistics.csv").read_bytes()) == ANCHOR_STATISTICS_SHA256
    assert sha256((out / "summary.json").read_bytes()) == ANCHOR_SUMMARY_SHA256


def test_table_n200_stdout(runner):
    res = runner.invoke(main, ["table", "--n-max", "200"])
    assert res.exit_code == 0, res.output
    assert sha256(res.stdout_bytes) == TABLE_N200_SHA256


@pytest.mark.parametrize("spec", [UNPINNED, PINNED], ids=["unpinned", "pinned"])
def test_test_report_line(runner, pairs_file, spec):
    res = runner.invoke(main, ["test", str(pairs_file), "--family", spec])
    assert (res.exit_code, res.stdout) == (TEST_REPORTS[spec][0],
                                           TEST_REPORTS[spec][1] + "\n")


@pytest.mark.parametrize("spec", [UNPINNED, PINNED], ids=["unpinned", "pinned"])
def test_curve_grid7_stdout(runner, pairs_file, spec):
    res = runner.invoke(main, ["curve", str(pairs_file), "--family", spec,
                               "--grid", "7"])
    assert res.exit_code == 0, res.output
    assert sha256(res.stdout_bytes) == CURVE_GRID7_SHA256[spec]
