import errno
import gzip
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import condks
from condks import (
    NormalLocation,
    asymptotic_critical_value,
    exact_cdf,
    ks_statistic_uniform,
    p_value,
    parse_family_spec,
)
from condks import cli, kolmogorov, monte_carlo
from condks.cli import main
from test_golden import (ANCHOR_SCENARIO, ANCHOR_STATISTICS_SHA256, ANCHOR_SUMMARY_SHA256,
                         TABLE_N200_SHA256)


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
        res = runner.invoke(main, ["test", str(data),
                                   "--family", "normal-location:sigma=1,zeta=0.5"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["test_kind"] == "classic"

    def test_kind_option_is_unknown(self, runner, tmp_path):
        # The family spec decides the kind; the old flag is a usage error.
        data = tmp_path / "d.csv"
        write_null_csv(data, n=5)
        for command in ("test", "curve"):
            res = runner.invoke(main, [command, str(data), "--kind", "classic",
                                       "--family", "normal-location:sigma=1,zeta=0"])
            assert res.exit_code == 2
            assert "No such option" in res.stderr and "--kind" in res.stderr

    def test_pinned_spec_is_classic_on_the_pinned_column(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        write_null_csv(data, n=50)
        pinned = tmp_path / "pinned.csv"
        rows = data.read_text().splitlines()
        pinned.write_text("\n".join([rows[0]] + [r.split(",")[0] + ",0.25"
                                                 for r in rows[1:]]) + "\n")
        got = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=1,zeta=0.25"])
        want = runner.invoke(main, ["test", str(pinned), "--family",
                                    "normal-location:sigma=1"])
        assert got.exit_code == want.exit_code == 0, got.output
        assert '"test_kind": "conditional"' in want.output
        assert got.output == want.output.replace('"conditional"', '"classic"')

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

    @pytest.mark.parametrize("pin, reason", [
        ("-1", "zeta=-1.0 invalid for family 'exponential-rate': rate zeta must be > 0"),
        ("nan", "zeta=nan invalid for family 'exponential-rate': zeta must be finite"),
    ], ids=["negative", "nan"])
    def test_bad_pinned_zeta_named_without_an_index(self, runner, tmp_path, pin, reason):
        data = tmp_path / "d.csv"
        data.write_text("xi,zeta\n0.5,1\n")
        res = runner.invoke(main, ["test", str(data),
                                   "--family", f"exponential-rate:zeta={pin}"])
        assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {reason}\n")

    def test_empty_grid_path_is_named(self, runner, tmp_path):
        # It used to end with "[Errno 2] No such file or directory: ''".
        data = tmp_path / "d.csv"
        data.write_text("xi,zeta\n0.5,1\n")
        res = runner.invoke(main, ["test", str(data), "--family", "tabulated:path="])
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", "error: spec 'tabulated:path=': path='' is not a file path\n")

    def test_constructor_refusal_names_the_spec(self, runner, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("xi,zeta\n0.5,1\n")
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=-1"])
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", "error: spec 'normal-location:sigma=-1': "
                   "sigma must be positive and finite, got -1.0\n")

    @pytest.mark.parametrize("command", ["test", "curve"])
    def test_spec_is_parsed_before_the_file(self, runner, tmp_path, command):
        data = tmp_path / "bad.csv"
        data.write_text("xi,zeta\n1,2\n1,oops\n")
        res = runner.invoke(main, [command, str(data), "--family", "bogus"])
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", "error: unknown family 'bogus' in spec 'bogus'\n")

    def test_alpha_is_checked_before_the_file(self, runner, tmp_path, monkeypatch):
        def read(path):
            raise AssertionError("the file was read")

        data = tmp_path / "d.csv"
        write_null_csv(data, n=5)
        monkeypatch.setattr(cli, "_read_pairs", read)
        res = runner.invoke(main, ["test", str(data), "--family",
                                   "normal-location:sigma=1", "--alpha", "2"])
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", "error: --alpha must lie in (0, 1), got 2.0\n")

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
                     ["--family", "normal-location:sigma=1,zeta=0"]):
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

    @pytest.mark.parametrize("command", ["test", "curve"])
    def test_field_over_the_csv_limit_is_a_data_error(self, runner, tmp_path, command):
        # csv.Error used to escape as a traceback with exit code 1, "rejected".
        data = tmp_path / "wide.csv"
        data.write_text("xi,zeta\n0,0\n" + "x" * 200_000 + ",1\n")
        res = runner.invoke(main, [command, str(data), "--family",
                                   "normal-location:sigma=1"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == (
            f"error: {data}: line 3: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("command", ["test", "curve"])
    def test_non_utf8_byte_is_named_by_file_and_line(self, runner, tmp_path, command):
        # The decoder's own message gave an offset inside the chunk it was
        # decoding: position 8 for the short file, 5624 for the long one.
        short = tmp_path / "short.csv"
        short.write_bytes(b"xi,zeta\n\xff,0\n")
        body = bytearray(b"xi,zeta\n" + b"0.25000,0.5\n" * 2000)
        body[22_008] = 0xFF  # 12-byte rows after an 8-byte header: line 1835
        long = tmp_path / "long.csv"
        long.write_bytes(bytes(body))
        for data, line in ((short, 2), (long, 1835)):
            res = runner.invoke(main, [command, str(data), "--family",
                                       "normal-location:sigma=1"])
            assert (res.exit_code, res.stdout) == (2, "")
            assert res.stderr == (f"error: {data}: line {line}: not valid UTF-8 "
                                  "(byte 0xff: invalid start byte)\n")


def ingest_outcome(read, path):
    """The bits of the array ``read(path)`` returns, or its error text."""
    try:
        return read(str(path)).view(np.uint64).tolist()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


# Bodies the two ingest paths must read alike: layouts numpy's reader
# takes, and the files it refuses, which the line loop reads or words.
INGEST_PROBES = {
    "bom": b"\xef\xbb\xbfxi,zeta\n0.25,0\n-1,1\n",
    "cr": b"xi,zeta\r0.25,0\r-1,1\r",
    "crlf": b"xi,zeta\r\n0.25,0\r\n-1,1\r\n",
    "mixed-endings": b"xi,zeta\r\n0.25,0\n-1,1\r",
    "no-final-newline": b"xi,zeta\n0.25,0\n-1,1",
    "blank-lines": b"xi,zeta\n\n0.25,0\n\n\n-1,1\n\n",
    "spaces-line": b"xi,zeta\n0.25,0\n  \n",
    "tab-line": b"xi,zeta\n\t\n0.25,0\n",
    "quoted": b'xi,zeta\n"0.25","0"\n" -1 ",1\n',
    "space-after-quote": b'xi,zeta\n"0.25" ,0\n',
    "space-before-quote": b'xi,zeta\n "0.25",0\n',
    "doubled-quote": b'xi,zeta\n"0.""25",0\n',
    "quoted-newline": b'xi,zeta\n"0.25\n",0\n',
    "unclosed-quote": b'xi,zeta\n0.25,"0\n',
    "trailing-quote": b'xi,zeta\n0.25,0"\n',
    "spaces-tabs": b"xi , zeta\n 0.25 ,0\t\n-1, 1\n",
    "vt-ff": b"xi,zeta\n\x0b0.25,\x0c0\n",
    "nbsp": "xi,zeta\n\u00a00.25,0\u00a0\n".encode(),
    "nel": b"xi,zeta\n0.25,0\x85\n",
    "underscore": b"xi,zeta\n1_0,0\n",
    "fullwidth": "xi,zeta\n\uff11,0\n".encode(),
    "overflow": b"xi,zeta\n1e400,0\n",
    "subnormal": b"xi,zeta\n4.9e-324,0\n",
    "underflow": b"xi,zeta\n1e-400,-0\n",
    "long-mantissa": b"xi,zeta\n0.1000000000000000055511151231257827,0\n",
    "nan": b"xi,zeta\nnan,0\n",
    "inf": b"xi,zeta\n0,inf\n",
    "infinity": b"xi,zeta\nInfinity,0\n",
    "one-field": b"xi,zeta\n0\n",
    "three-fields": b"xi,zeta\n0,0,0\n",
    "trailing-comma": b"xi,zeta\n0,0,\n",
    "empty-field": b"xi,zeta\n0,\n",
    "non-numeric": b"xi,zeta\n0,oops\n",
    "inner-space": b"xi,zeta\n1 2,0\n",
    "hex-float": b"xi,zeta\n0x1p3,0\n",
    "hash": b"xi,zeta\n#1,0\n",
    "ctrl-z-line": b"xi,zeta\n0,0\n\x1a\n",
    "bad-utf8": b"xi,zeta\n\xff,0\n",
    "header-only": b"xi,zeta\n",
    "blank-only": b"xi,zeta\n\n\n",
    "empty-file": b"",
    "wrong-header": b"a,b\n0,0\n",
    "quoted-header": b'"xi","zeta"\n0,0\n',
    "over-limit-row": b"xi,zeta\n0,0\n" + b"x" * 200_000 + b",1\n",
    "over-limit-header": b"x" * 200_000 + b",zeta\n0,0\n",
}

# Tokens for the seeded random files: numbers both readers take, and
# spellings one or both refuse.
GOOD_TOKENS = ["0", "-0", "1", "-2.5", "+.5", "5.", "1e3", "1E-3", " 3 ", "\t4",
               '"7"', '"-0.125"', "4.9e-324", "1e-400", "1.7976931348623157e308"]
ODD_TOKENS = ["", "x", "1_0", "\uff11", "nan", "inf", "-Infinity", "1e400",
              '"1""2"', ' "1"', '"1" ', '"1\n"', "\u00a01", "\x0b1", "\x0c1",
              "0x1p3", "1 2", "#1"]


def random_ingest_body(rng):
    """An xi,zeta file of 1..6 rows: all numbers both readers take, or with
    odd tokens, odd field counts and blank lines mixed in."""
    odd = rng.random() < 0.5

    def token():
        if odd and rng.random() < 0.15:
            return rng.choice(ODD_TOKENS)
        roll = rng.random()
        if roll < 0.4:
            return repr(rng.uniform(-1e3, 1e3))
        if roll < 0.6:
            return "0." + "".join(rng.choices("0123456789", k=rng.randint(17, 40)))
        return rng.choice(GOOD_TOKENS)

    rows = []
    for _ in range(rng.randint(1, 6)):
        fields = 2
        if odd and rng.random() < 0.1:
            fields = rng.choice([0, 1, 3])
        rows.append(",".join(token() for _ in range(fields)))
        if rng.random() < 0.1:
            rows.append(rng.choice(["", "", " ", "\t"]) if odd else "")
    eol = rng.choice(["\n", "\r\n", "\r"])
    text = eol.join(["xi,zeta", *rows]) + rng.choice(["", eol])
    return (b"\xef\xbb\xbf" if rng.random() < 0.2 else b"") + text.encode()


class TestIngestPaths:
    """_read_pairs parses with numpy's reader and hands what it refuses
    to the line loop; for every file the two must agree, bit for bit or
    error text for error text."""

    @pytest.mark.parametrize("body", INGEST_PROBES.values(), ids=INGEST_PROBES)
    def test_probe_reads_alike(self, tmp_path, body):
        data = tmp_path / "d.csv"
        data.write_bytes(body)
        assert (ingest_outcome(cli._read_pairs, data)
                == ingest_outcome(cli._read_pairs_by_line, data))

    def test_random_files_read_alike(self, tmp_path, monkeypatch):
        by_line = cli._read_pairs_by_line
        reread = []
        monkeypatch.setattr(cli, "_read_pairs_by_line",
                            lambda path: reread.append(path) or by_line(path))
        rng = random.Random(20_181)
        data = tmp_path / "d.csv"
        served = 0  # files numpy's reader took without the loop
        for _ in range(2000):
            body = random_ingest_body(rng)
            data.write_bytes(body)
            before = len(reread)
            fast = ingest_outcome(cli._read_pairs, data)
            served += len(reread) == before
            assert fast == ingest_outcome(by_line, data), body
        assert 1000 < served < 1800, served

    def test_well_formed_file_never_reaches_the_loop(self, tmp_path, monkeypatch):
        def loop(path):
            raise AssertionError("the line loop ran")

        data = tmp_path / "d.csv"
        write_null_csv(data, n=50)
        monkeypatch.setattr(cli, "_read_pairs_by_line", loop)
        assert cli._read_pairs(str(data)).shape == (50, 2)

    def test_spellings_only_float_takes_read_as_before(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("xi,zeta\n1_0,\uff11\n", encoding="utf-8")
        assert cli._read_pairs(str(data)).tolist() == [[10.0, 1.0]]

    def test_empty_body_warns_nothing(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("xi,zeta\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="no data rows"):
                cli._read_pairs(str(data))
        assert caught == []

    def test_over_limit_number_is_the_one_difference(self, tmp_path):
        # numpy's reader has no field size limit; the csv module does.
        data = tmp_path / "d.csv"
        data.write_text("xi,zeta\n" + "0" * 199_999 + "1,0\n")
        assert cli._read_pairs(str(data)).tolist() == [[1.0, 0.0]]
        with pytest.raises(ValueError, match="line 2: field larger than field limit"):
            cli._read_pairs_by_line(str(data))

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressor_suffix_reads_as_plain_text(self, tmp_path, suffix):
        # numpy's opener picks a decompressor by suffix; it raises on plain
        # text (lzma.LZMAError for .xz and .lzma), and the loop reads it.
        data = tmp_path / f"d.csv{suffix}"
        write_null_csv(data, n=20)
        got = ingest_outcome(cli._read_pairs, data)
        assert got == ingest_outcome(cli._read_pairs_by_line, data)
        assert len(got) == 20

    def test_compressed_file_is_not_decompressed(self, tmp_path):
        plain = tmp_path / "d.csv"
        write_null_csv(plain, n=20)
        data = tmp_path / "d.csv.gz"
        data.write_bytes(gzip.compress(plain.read_bytes()))
        got = ingest_outcome(cli._read_pairs, data)
        assert got == ingest_outcome(cli._read_pairs_by_line, data)
        assert got == (f"ValueError: {data}: line 1: not valid UTF-8 "
                       "(byte 0x8b: invalid start byte)")

    @pytest.mark.parametrize("header", [b'"xi\n",zeta', b'"xi\n\n",zeta'],
                             ids=["two-lines", "three-lines"])
    def test_header_over_several_lines_is_skipped_whole(self, tmp_path, monkeypatch,
                                                        header):
        # numpy skips physical lines: one skipped line would leave the rest
        # of the header, which numpy refuses, and the loop would read it.
        def loop(path):
            raise AssertionError("the line loop ran")

        data = tmp_path / "d.csv"
        data.write_bytes(header + b"\n0.25,0\n-1,1\n")
        want = ingest_outcome(cli._read_pairs_by_line, data)
        assert want == np.array([[0.25, 0.0], [-1.0, 1.0]]).view(np.uint64).tolist()
        monkeypatch.setattr(cli, "_read_pairs_by_line", loop)
        assert ingest_outcome(cli._read_pairs, data) == want

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once_and_whole(self, tmp_path):
        # A pipe cannot be opened again at its start: the header handle
        # took its first block, so numpy must read the rest from that handle.
        data = tmp_path / "d.csv"
        write_null_csv(data, n=2000)
        body = data.read_bytes()
        assert len(body) > 65_536  # more than a pipe buffer holds
        read_end, write_end = os.pipe()

        def write():
            with os.fdopen(write_end, "wb") as fh:
                fh.write(body)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            got = ingest_outcome(cli._read_pairs, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
            writer.join()
        assert got == ingest_outcome(cli._read_pairs, data)

    def test_relative_path_that_parses_as_url_is_not_fetched(self, tmp_path,
                                                              monkeypatch):
        fetched = []

        def urlopen(url, *args, **kwargs):
            fetched.append(url)
            raise urllib.error.URLError("no network in tests")

        folder = tmp_path / "http:" / "host"
        folder.mkdir(parents=True)
        write_null_csv(folder / "d.csv", n=20)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        got = ingest_outcome(cli._read_pairs, "http://host/d.csv")
        assert got == ingest_outcome(cli._read_pairs_by_line, folder / "d.csv")
        assert len(got) == 20
        assert fetched == []


def piped_outcome(body):
    """``ingest_outcome`` of ``_read_pairs`` on ``body`` written through a
    pipe, and the pipe's path."""
    read_end, write_end = os.pipe()

    def write():
        try:
            with os.fdopen(write_end, "wb") as fh:
                fh.write(body)
        except BrokenPipeError:
            pass  # a reader that stops early closes the pipe

    writer = threading.Thread(target=write)
    writer.start()
    pipe = f"/dev/fd/{read_end}"
    try:
        return ingest_outcome(cli._read_pairs, pipe), pipe
    finally:
        os.close(read_end)
        writer.join()


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")


@needs_dev_fd
@pytest.mark.parametrize("first, rows", [(b"1_0,0", 2000), (b"\xff,0", 0),
                                         (b"0.5,x", 2000)],
                         ids=["underscore", "bad-utf8", "non-numeric"])
def test_pipe_reads_as_its_regular_file(tmp_path, first, rows):
    # A first row numpy refuses, then more than a pipe buffer of rows (none
    # in the short file): the line loop must read the pipe's bytes from
    # their start, not from where an earlier read left the pipe.
    data = tmp_path / "d.csv"
    write_null_csv(data, n=rows)
    header, body = data.read_bytes().split(b"\n", 1)
    data.write_bytes(header + b"\n" + first + b"\n" + body)
    want = ingest_outcome(cli._read_pairs, data)
    got, pipe = piped_outcome(data.read_bytes())
    if isinstance(want, str):
        want = want.replace(str(data), pipe)
        assert want.startswith(f"ValueError: {pipe}: line 2: ")
    else:
        assert len(want) == rows + 1
    assert got == want


@needs_dev_fd
def test_spool_is_removed_on_every_exit(tmp_path, monkeypatch):
    spools = tmp_path / "spools"
    spools.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spools))
    by_line = cli._read_pairs_by_line
    seen = []
    monkeypatch.setattr(cli, "_read_pairs_by_line",
                        lambda path: seen.append(os.listdir(spools)) or by_line(path))
    got, _ = piped_outcome(b"xi,zeta\n0.25,0\n")
    assert len(got) == 1 and seen == [] and os.listdir(spools) == []
    got, pipe = piped_outcome(b"xi,zeta\n0.5,x\n")
    assert got == f"ValueError: {pipe}: line 2: non-numeric value"
    assert len(seen) == 1 and len(seen[0]) == 1  # the loop read the spool
    assert os.listdir(spools) == []


def test_plain_text_named_xz_is_read_by_numpy(tmp_path, monkeypatch):
    def loop(path):
        raise AssertionError("the line loop ran")

    plain = tmp_path / "d.csv"
    write_null_csv(plain, n=50)
    data = tmp_path / "d.csv.xz"
    data.write_bytes(plain.read_bytes())
    want = ingest_outcome(cli._read_pairs, plain)
    monkeypatch.setattr(cli, "_read_pairs_by_line", loop)
    assert ingest_outcome(cli._read_pairs, data) == want


def test_every_suffix_numpy_decompresses_is_spooled():
    # A numpy that adds an opener fails here, instead of sending a plain
    # file so named to its decompressor and then to the line loop.
    datasource = pytest.importorskip("numpy.lib._datasource")
    if not hasattr(datasource, "_file_openers"):
        pytest.skip("numpy has no _datasource._file_openers")
    assert set(datasource._file_openers.keys()) - {None} <= set(cli._COMPRESSED)


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

    @pytest.mark.parametrize("args, message", [
        (["--asymptotic", "cdf", "nan"], "x must not be NaN"),
        (["--asymptotic", "pvalue", "nan"], "x must not be NaN"),
        (["-n", "20", "cdf", "nan"], "d must not be NaN"),
    ])
    def test_nan_refused(self, runner, args, message):
        # The limit law used to print 0 and 1 for NaN, with exit code 0.
        res = runner.invoke(main, ["dist", *args])
        assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"error: {message}\n")

    def test_bad_alpha(self, runner):
        res = runner.invoke(main, ["dist", "-n", "5", "critical", "1.5"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args, want", [
        (["--asymptotic", "cdf"], (0, "0\n", "")),
        (["-n", "20", "pvalue"],
         (2, "", "error: statistic must lie in [0, 1], got -0.1\n")),
    ])
    def test_negative_value_after_double_dash(self, runner, args, want):
        # Without "--", click reads -0.1 as an option and stops in its parser.
        res = runner.invoke(main, ["dist", *args, "--", "-0.1"])
        assert (res.exit_code, res.stdout, res.stderr) == want

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
        res = runner.invoke(main, ["table", "--n-max", "0"])
        assert res.exit_code == 2
        assert "Invalid value for '--n-max': 0 is not in the range x>=1." in res.stderr
        assert runner.invoke(
            main, ["table", "--n-max", "3", "--alpha", "2"]
        ).exit_code == 2

    def test_alpha_is_named_as_an_option_before_the_first_cell(self, runner,
                                                              monkeypatch):
        def cell(n, alpha):
            raise AssertionError("a cell was computed")

        res = runner.invoke(main, ["table", "--n-max", "3", "--alpha", "0"])
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", "error: --alpha must lie in (0, 1), got 0.0\n")
        monkeypatch.setattr(cli, "critical_value", cell)
        res = runner.invoke(main, ["table", "--n-max", "3",
                                   "--alpha", "0.05", "--alpha", "1"])
        assert res.stderr == "error: --alpha must lie in (0, 1), got 1.0\n"

    def test_first_bad_alpha_is_named(self, runner):
        # critical_value checks every alpha on the first row, in order.
        res = runner.invoke(main, ["table", "--n-max", "3",
                                   "--alpha", "1e-17", "--alpha", "2"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == (
            "error: alpha=1e-17 is too small: 1 - alpha rounds to 1 in double "
            "precision, so its critical value cannot be resolved\n"
        )


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

    def test_empty_grid_path_is_named(self, runner, tmp_path):
        # It used to join '' to the scenario's directory and end with
        # "[Errno 21] Is a directory".
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG.replace("normal-location:sigma=1",
                                                    "tabulated:path="))
        out = tmp_path / "results"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", f"error: {cfg}: line 2: scenario key 'null_family': "
                   "spec 'tabulated:path=': path='' is not a file path\n")
        assert not out.exists()

    def test_sampler_refusal_names_the_spec(self, runner, tmp_path):
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG.replace("uniform:a=0,b=1", "uniform:a=1,b=0"))
        out = tmp_path / "results"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", f"error: {cfg}: line 1: scenario key 'zeta_sampler': "
                   "spec 'uniform:a=1,b=0': need finite a < b, got a=1.0, b=0.0\n")
        assert not out.exists()

    def test_negative_seed_is_named(self, runner, tmp_path):
        # numpy's own "expected non-negative integer" named no key.
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG.replace("seed = ", "seed = -"))
        out = tmp_path / "results"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.startswith("error: seed must be a non-negative integer, got -")
        assert not out.exists()

    def test_missing_scenario_file(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", str(tmp_path / "no.cfg"),
                                   "--out", str(tmp_path / "x")])
        assert res.exit_code == 2


def library_outputs(cfg, alpha=0.05, meta_alpha=0.01):
    """The bytes of statistics.csv and summary.json, built from the library
    outside any ``_shared_law`` scope."""
    config = condks.load_scenario(str(cfg))
    stats = condks.run_replicates(config)
    summary = {"meta_test": condks.meta_test(stats, config.n, alpha=meta_alpha).to_dict()}
    if not config.is_calibration:
        power = condks.monte_carlo.power_from_statistics(stats, config.n, alpha)
        summary["power"] = {**power._asdict(), "alpha": alpha}
    lines = ["statistic", *(repr(float(s)) for s in stats)]
    return ("\n".join(lines) + "\n").encode(), (json.dumps(summary, indent=2) + "\n").encode()


class TestSimulateSharedLaw:
    """A run opens one law scope.  Up to AUTO_EXACT_LIMIT it evaluates each
    statistic's exact law once, batched per matrix size into the scope's
    map, and the meta and power passes read it there: every call is kept,
    and no H is built.  Past it the scope holds no map."""

    @pytest.fixture
    def scopes(self, monkeypatch):
        """[enclosing memo, n, the memo as the meta pass found it] per
        ``_shared_law`` scope opened."""
        opened = []
        shared, meta = cli._shared_law, cli.meta_test

        def spy(n):
            opened.append([kolmogorov._law_memo.get(), n, None])
            return shared(n)

        def reading(*args, **kwargs):
            memo = kolmogorov._law_memo.get()
            if opened and memo is not None:
                opened[-1][2] = {m: dict(law) for m, law in memo.items()}
            return meta(*args, **kwargs)

        monkeypatch.setattr(cli, "_shared_law", spy)
        monkeypatch.setattr(cli, "meta_test", reading)
        return opened

    @staticmethod
    def power_cfg(tmp_path, n, replicates):
        cfg = tmp_path / "power.cfg"
        write_scenario(cfg, POWER_CFG.replace("n = 80", f"n = {n}")
                       .replace("replicates = 60", f"replicates = {replicates}"))
        return cfg

    @staticmethod
    def written_statistics(out):
        return np.loadtxt(out / "statistics.csv", skiprows=1, ndmin=1)

    def test_power_pass_builds_no_matrix(self, runner, tmp_path, monkeypatch, scopes):
        # Nor does the meta pass: the run fills the scope with the batch's values.
        cfg = self.power_cfg(tmp_path, 30, 40)
        want = library_outputs(cfg)
        builds, law_calls, batches, pass_builds = [], [], [], []
        build, law, many = (kolmogorov._transition_matrix, kolmogorov.exact_cdf,
                            kolmogorov._exact_cdf_many)
        meta, power = cli.meta_test, cli.power_from_statistics

        def counted_build(k, h):
            builds.append(k)
            return build(k, h)

        def counted_law(n, d):  # p_value's calls; meta_test holds its own name
            law_calls.append(d)
            return law(n, d)

        def counted_many(n, ds):
            batches.append(many(n, ds))
            return batches[-1]

        def counted(run):
            def wrapped(*args, **kwargs):
                start = len(builds)
                result = run(*args, **kwargs)
                pass_builds.append(len(builds) - start)
                return result
            return wrapped

        monkeypatch.setattr(kolmogorov, "_transition_matrix", counted_build)
        monkeypatch.setattr(kolmogorov, "exact_cdf", counted_law)
        monkeypatch.setattr(monte_carlo, "_exact_cdf_many", counted_many)
        monkeypatch.setattr(cli, "meta_test", counted(meta))
        monkeypatch.setattr(cli, "power_from_statistics", counted(power))
        out = tmp_path / "out"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert res.exit_code == 1, res.output
        # One per statistic from the power pass, and one from the meta
        # report's own p-value at n = 40 replicates.
        assert len(law_calls) == 41
        assert pass_builds == [0, 0]
        assert builds == []
        stats = self.written_statistics(out)
        # The batch holds every statistic's law, in exact_cdf's bits, and
        # the meta pass finds it, and nothing else, in the scope.
        assert len(batches) == 1
        assert batches[0] == {d: law(30, d) for d in stats.tolist()}
        assert scopes == [[None, 30, {30: batches[0]}]]
        assert kolmogorov._law_memo.get() is None
        assert ((out / "statistics.csv").read_bytes(), (out / "summary.json").read_bytes()) == want

    @pytest.mark.parametrize("kind, n, maps_opened", [
        ("calibration", 12, 1), ("power", 140, 1), ("power", 141, 0),
        ("calibration", 141, 0),
    ])
    def test_scope_only_on_the_exact_law(self, runner, tmp_path, scopes,
                                         kind, n, maps_opened):
        if kind == "calibration":
            cfg = tmp_path / "calibration.cfg"
            write_scenario(cfg, CALIBRATION_CFG.replace("n = 12", f"n = {n}")
                           .replace("replicates = 80", "replicates = 20"))
        else:
            cfg = self.power_cfg(tmp_path, n, 20)
        want = library_outputs(cfg)
        out = tmp_path / "out"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert res.exit_code in (0, 1), res.output
        assert [(enclosing, opened_n) for enclosing, opened_n, _ in scopes] == [(None, n)]
        read = scopes[0][2]
        if maps_opened:
            assert read == {n: kolmogorov._exact_cdf_many(n, self.written_statistics(out))}
        else:
            assert read is None
        assert kolmogorov._law_memo.get() is None
        assert ((out / "statistics.csv").read_bytes(), (out / "summary.json").read_bytes()) == want

    def test_no_memo_left_when_the_power_pass_raises(self, runner, tmp_path,
                                                     monkeypatch, scopes):
        inside = []

        def failing(stats, n, alpha):
            inside.append(kolmogorov._law_memo.get())
            raise ValueError("power pass failed")

        monkeypatch.setattr(cli, "power_from_statistics", failing)
        cfg = self.power_cfg(tmp_path, 30, 10)
        out = tmp_path / "out"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert (res.exit_code, res.stderr) == (2, "error: power pass failed\n")
        assert [(enclosing, n) for enclosing, n, _ in scopes] == [(None, 30)]
        # The batch's values at n = 30 only: the meta report's p-value at
        # n = 10 replicates is not kept.
        assert list(inside[0]) == [30]
        assert kolmogorov._law_memo.get() is None
        assert not out.exists()


JOBS_SCENARIOS = {
    "anchor": ANCHOR_SCENARIO,
    # 3337 = 47 * 71: 16 blocks of 221 at n = 37, the last one short.
    "power at n = 37": POWER_CFG.replace("n = 80", "n = 37")
                                .replace("replicates = 60", "replicates = 3337"),
    "calibration at n = 50": CALIBRATION_CFG.replace("n = 12", "n = 50")
                                            .replace("replicates = 80", "replicates = 2000"),
    # Past AUTO_EXACT_LIMIT: the asymptotic power, and no law scope.
    "power at n = 141": POWER_CFG.replace("n = 80", "n = 141")
                                 .replace("replicates = 60", "replicates = 1000"),
}

# 12 blocks of 204 at n = 40; the first zeta at or below 0 is drawn by
# replicate 1328, in the second of two parts.
FAILING_IN_PARTS_CFG = (
    "zeta_sampler = gaussian-mixture:weights=1,means=1,sds=0.25\n"
    "null_family = exponential-rate\n"
    "n = 40\n"
    "replicates = 2448\n"
    "seed = 11\n"
)

# condks simulate in a fresh interpreter whose exit hook, like the
# benchmark's, writes one line to stderr: here the forks it saw, with
# three CPUs to use, and whether numpy.random, which the children then
# share, was loaded before each.
FORK_COUNTING_SCRIPT = """\
import atexit, os, sys
forks = []
fork = os.fork
def counted():
    forks.append("numpy.random" in sys.modules)
    return fork()
os.fork = counted
os.sched_getaffinity = lambda pid: {0, 1, 2}
atexit.register(lambda: sys.stderr.write(f"exit hook: forks {forks}\\n"))
from condks.cli import main
sys.exit(main(prog_name="condks"))
"""


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs ``os.sched_getaffinity`` reports."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return use


class TestSimulateJobs:
    """condks simulate splits the replicates over as many processes as it
    may use CPUs, at most 2; the artifacts are the same bytes for any
    count."""

    def run(self, runner, cfg, out):
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        return res, (out / "statistics.csv").read_bytes(), (out / "summary.json").read_bytes()

    @pytest.mark.parametrize("name", sorted(JOBS_SCENARIOS))
    def test_same_bytes_for_any_cpu_count(self, runner, tmp_path, forks, cpus, name):
        cfg = tmp_path / "scenario.cfg"
        write_scenario(cfg, JOBS_SCENARIOS[name])
        if name == "anchor":
            want = (ANCHOR_STATISTICS_SHA256, ANCHOR_SUMMARY_SHA256)
        else:
            want = tuple(hashlib.sha256(b).hexdigest() for b in library_outputs(cfg))
        for count in (None, 1, 2, 8):
            forks.clear()
            if count:
                cpus(count)
            res, *artifacts = self.run(runner, cfg, tmp_path / f"out{count}")
            assert res.exit_code == (0 if name.startswith("calibration") else 1), res.output
            assert (res.stdout, res.stderr) == ("", "")
            assert tuple(hashlib.sha256(b).hexdigest() for b in artifacts) == want
            if count:
                assert len(forks) == min(count, 2) - 1

    def test_without_sched_getaffinity_the_run_stays_in_one_process(
            self, runner, tmp_path, forks, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        cfg = tmp_path / "scenario.cfg"
        write_scenario(cfg, JOBS_SCENARIOS["power at n = 37"])
        res, *artifacts = self.run(runner, cfg, tmp_path / "out")
        assert res.exit_code == 1, res.output
        assert tuple(artifacts) == library_outputs(cfg)
        assert forks == []

    def test_the_first_failing_replicate_is_named_for_any_cpu_count(
            self, runner, tmp_path, forks, cpus):
        cfg = tmp_path / "scenario.cfg"
        write_scenario(cfg, FAILING_IN_PARTS_CFG)
        errors = []
        for count in (1, 2):
            cpus(count)
            res = runner.invoke(main, ["simulate", str(cfg), "--out", str(tmp_path / "out")])
            errors.append((res.exit_code, res.stdout, res.stderr))
        assert len(forks) == 1
        assert errors[0][2].startswith("error: replicate 1328: zeta=-")
        assert errors == [(2, "", errors[0][2])] * 2
        assert not (tmp_path / "out").exists()

    def test_a_worker_that_dies_is_a_data_error(self, runner, tmp_path, forks, cpus,
                                                monkeypatch):
        parent, run = os.getpid(), monte_carlo._run_range

        def dying_in_children(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run(*args)

        monkeypatch.setattr(monte_carlo, "_run_range", dying_in_children)
        cpus(2)
        cfg = tmp_path / "scenario.cfg"
        write_scenario(cfg, JOBS_SCENARIOS["power at n = 37"])
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(tmp_path / "out")])
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", "error: a worker process exited with status 3\n")
        assert kolmogorov._law_memo.get() is None

    @pytest.mark.parametrize("count", [None, 8])
    def test_a_small_run_never_forks(self, runner, tmp_path, monkeypatch, cpus, count):
        # 300 replicates at n = 50 are 2 blocks: the benchmark's traced job.
        def refused():
            raise AssertionError("os.fork was called")

        monkeypatch.setattr(os, "fork", refused)
        if count:
            cpus(count)
        cfg = tmp_path / "scenario.cfg"
        write_scenario(cfg, ANCHOR_SCENARIO.replace("replicates = 10000", "replicates = 300"))
        res, *artifacts = self.run(runner, cfg, tmp_path / "out")
        assert res.exit_code == 1, res.output
        assert tuple(artifacts) == library_outputs(cfg)

    def test_children_leave_no_trace_in_a_fresh_process(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        write_scenario(cfg, JOBS_SCENARIOS["power at n = 37"])
        src = str(Path(condks.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", FORK_COUNTING_SCRIPT, "simulate", str(cfg), "--out", str(out)],
            capture_output=True, env=dict(os.environ, PYTHONPATH=path), timeout=120, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"exit hook: forks [True]\n")
        assert ((out / "statistics.csv").read_bytes(), (out / "summary.json").read_bytes()) \
            == library_outputs(cfg)


def table_text(n_max, alphas=(0.2, 0.1, 0.05, 0.01)):
    """condks table's CSV built one cell at a time, in row order."""
    rows = [f"{n}," + ",".join(repr(kolmogorov.critical_value(n, a)) for a in alphas)
            for n in range(1, n_max + 1)]
    return "\n".join(["n," + ",".join(map(repr, alphas)), *rows]) + "\n"


class TestTableWorkers:
    """condks table splits its rows over as many processes as it may use
    CPUs, at most 2, once each part gets 64 cells; the CSV is the same
    bytes for any count."""

    @pytest.mark.parametrize("n_max", [31, 32, 33, 200])
    def test_same_bytes_for_any_cpu_count(self, runner, forks, cpus, n_max):
        want = table_text(n_max)
        for count in (1, 2, 8):
            forks.clear()
            cpus(count)
            res = runner.invoke(main, ["table", "--n-max", str(n_max)])
            assert (res.exit_code, res.stderr) == (0, "")
            assert res.stdout == want
            if n_max == 200:
                assert hashlib.sha256(res.stdout_bytes).hexdigest() == TABLE_N200_SHA256
            assert len(forks) == (min(count, 2) - 1 if n_max > 31 else 0)

    def test_a_single_alpha_and_an_out_file(self, runner, tmp_path, forks, cpus):
        # 150 cells of one alpha are 2 parts of 64 or more, as are 600.
        one_alpha, four_alphas = table_text(150, alphas=(0.05,)), table_text(150)
        for count in (1, 2, 8):
            forks.clear()
            cpus(count)
            res = runner.invoke(main, ["table", "--n-max", "150", "--alpha", "0.05"])
            assert (res.exit_code, res.stdout) == (0, one_alpha)
            out = tmp_path / f"table{count}.csv"
            res = runner.invoke(main, ["table", "--n-max", "150", "--out", str(out)])
            assert (res.exit_code, res.stdout, res.stderr) == (0, "", "")
            assert out.read_text() == four_alphas
            assert len(forks) == 2 * (min(count, 2) - 1)

    def test_a_worker_that_dies_is_a_data_error(self, runner, forks, cpus, monkeypatch):
        parent, rows = os.getpid(), cli._table_rows

        def dying_in_children(*args):
            if os.getpid() != parent:
                os._exit(3)
            return rows(*args)

        monkeypatch.setattr(cli, "_table_rows", dying_in_children)
        cpus(2)
        res = runner.invoke(main, ["table", "--n-max", "40"])
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", "error: a worker process exited with status 3\n")
        assert len(forks) == 1

    @pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
    def test_without_it_the_table_stays_in_one_process(self, runner, forks, monkeypatch,
                                                       missing):
        monkeypatch.delattr(os, missing)
        res = runner.invoke(main, ["table", "--n-max", "40"])
        assert (res.exit_code, res.stdout) == (0, table_text(40))
        assert forks == []


def write_wide_grid(path):
    """A zeta,x,cdf grid whose line 3 holds a field over the csv limit."""
    path.write_text("zeta,x,cdf\n0,0,0\n0," + "1" * 200_000 + ",1\n")


class TestTabulatedGridErrors:
    # csv.Error used to escape from the grid reader as a traceback with
    # exit code 1, "rejected".
    def test_field_over_the_csv_limit_in_test(self, runner, tmp_path):
        grid = tmp_path / "grid.csv"
        write_wide_grid(grid)
        data = tmp_path / "d.csv"
        write_null_csv(data, n=20)
        res = runner.invoke(main, ["test", str(data), "--family",
                                   f"tabulated:path={grid}"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == (
            f"error: {grid}: line 3: field larger than field limit (131072)\n"
        )

    def test_field_over_the_csv_limit_in_simulate(self, runner, tmp_path):
        write_wide_grid(tmp_path / "grid.csv")
        cfg = tmp_path / "scen.cfg"
        write_scenario(cfg, CALIBRATION_CFG.replace(
            "normal-location:sigma=1", "tabulated:path=grid.csv"))
        out = tmp_path / "results"
        res = runner.invoke(main, ["simulate", str(cfg), "--out", str(out)])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == (f"error: {cfg}: line 2: scenario key 'null_family': "
                              f"{tmp_path / 'grid.csv'}: line 3: "
                              "field larger than field limit (131072)\n")
        assert not out.exists()


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
        res = runner.invoke(main, ["curve", str(data),
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
        res = runner.invoke(main, ["curve", str(data),
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
        res = runner.invoke(main, ["curve", str(data),
                                   "--family", family, "--grid", str(grid_size)])
        assert res.exit_code == 0, res.output
        assert res.output == curve_text_reference(ys, grid)

    def test_negative_grid_rejected(self, runner, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("xi,zeta\n0,0\n")
        res = runner.invoke(main, ["curve", str(data), "--family",
                                   "normal-location:sigma=1", "--grid", "-1"])
        assert res.exit_code == 2
        assert "Invalid value for '--grid': -1 is not in the range x>=0." in res.stderr


@pytest.mark.parametrize("command", ["table", "curve"])
def test_unwritable_out_is_a_data_error(runner, tmp_path, command):
    # It used to end in a traceback and exit code 1, the code for "rejected".
    data = tmp_path / "one.csv"
    data.write_text("xi,zeta\n0,0\n")
    args = {"table": ["table", "--n-max", "1"],
            "curve": ["curve", str(data), "--family", "normal-location:sigma=1"]}[command]
    out = tmp_path / "missing" / "t.csv"
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == (
        f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(out)!r}\n"
    )


def test_write_takes_lines_as_they_come(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cli._write((f"row{i}" for i in range(3)), str(out))
    cli._write((f"row{i}" for i in range(3)), None)
    assert out.read_bytes() == capsys.readouterr().out.encode() == b"row0\nrow1\nrow2\n"


def run_module(*args, stdout=subprocess.PIPE):
    """``python -m condks.cli ARGS`` in a fresh interpreter."""
    src = str(Path(condks.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "condks.cli", *args],
                          env=dict(os.environ, PYTHONPATH=path), stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120, check=False)


class TestModuleEntryPoint:
    def test_unwritable_out_exits_2_without_traceback(self, tmp_path):
        out = tmp_path / "missing" / "t.csv"
        proc = run_module("table", "--n-max", "1", "--out", str(out))
        assert (proc.returncode, proc.stdout) == (2, b"")
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_closed_stdout_pipe_exits_1_quietly(self):
        # A closed stdout pipe is not a data error: click ends the run
        # with exit code 1 and nothing on stderr.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module("table", "--n-max", "1", stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


def write_normal_table(path):
    """A 'zeta,x,cdf' grid of the normal location family, for tabulated specs."""
    fam = NormalLocation(sigma=1.0)
    rows = ["zeta,x,cdf"]
    for z in (0.0, 0.5, 1.0):
        for x in np.linspace(-3.0, 4.0, 15).tolist():
            rows.append(f"{z!r},{x!r},{fam.cdf(x, z)!r}")
    path.write_text("\n".join(rows) + "\n")


class TestClassicKindMatchesScalarCdf:
    """A spec with zeta= maps every xi through the pinned cdf in one array
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
        res = runner.invoke(main, ["test", str(data),
                                   "--family", spec, "--mode", "exact"])
        assert res.output == json.dumps({
            "test_kind": "classic", "n": len(ys), "statistic": statistic,
            "p_value": p, "mode": "exact", "alpha": 0.05, "reject": p < 0.05,
        }) + "\n"
        assert res.exit_code == int(p < 0.05)

    @pytest.mark.parametrize("case", FAMILIES, indirect=True, ids=FAMILY_IDS)
    def test_curve_rows(self, runner, case):
        data, spec, ys = case
        res = runner.invoke(main, ["curve", str(data),
                                   "--family", spec, "--grid", "5"])
        assert res.exit_code == 0, res.output
        assert res.output == curve_text_reference(ys, [0.0, 0.25, 0.5, 0.75, 1.0])
