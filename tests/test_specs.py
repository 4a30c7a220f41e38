import os

import numpy as np
import pytest

from condks import (
    ExponentialRate,
    GaussianMixtureSampler,
    NormalLocation,
    PointMassSampler,
    TabulatedFamily,
    UniformSampler,
    UniformWidth,
    load_scenario,
    parse_family_spec,
    parse_sampler_spec,
)


def write_table(path):
    path.write_text(
        "zeta,x,cdf\n"
        "0,0,0\n0,1,0.5\n0,2,1\n"
        "1,0,0\n1,1,0.3\n1,2,1\n"
    )


class TestFamilySpecs:
    def test_normal_location(self):
        fam, pinned = parse_family_spec("normal-location:sigma=2")
        assert fam == NormalLocation(sigma=2.0)
        assert pinned is None

    def test_normal_location_default_sigma(self):
        fam, _ = parse_family_spec("normal-location")
        assert fam == NormalLocation(sigma=1.0)

    def test_exponential_and_uniform_width(self):
        assert parse_family_spec("exponential-rate")[0] == ExponentialRate()
        assert parse_family_spec("uniform-width")[0] == UniformWidth()

    def test_pinned_zeta(self):
        fam, pinned = parse_family_spec("exponential-rate:zeta=2")
        assert fam == ExponentialRate()
        assert pinned == 2.0

    def test_pinned_zeta_validated_against_family(self):
        with pytest.raises(ValueError, match="zeta"):
            parse_family_spec("exponential-rate:zeta=-1")

    def test_tabulated(self, tmp_path):
        write_table(tmp_path / "t.csv")
        fam, _ = parse_family_spec(f"tabulated:path={tmp_path}/t.csv")
        assert isinstance(fam, TabulatedFamily)
        assert fam.zeta_grid.tolist() == [0.0, 1.0]

    def test_tabulated_relative_path_resolution(self, tmp_path):
        write_table(tmp_path / "t.csv")
        fam, _ = parse_family_spec("tabulated:path=t.csv", base_dir=str(tmp_path))
        assert isinstance(fam, TabulatedFamily)

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown family"):
            parse_family_spec("cauchy")
        with pytest.raises(ValueError, match="unknown key"):
            parse_family_spec("normal-location:mu=3")
        with pytest.raises(ValueError, match="not a number"):
            parse_family_spec("normal-location:sigma=abc")
        with pytest.raises(ValueError, match="malformed"):
            parse_family_spec("normal-location:sigma")
        with pytest.raises(ValueError, match="duplicate"):
            parse_family_spec("normal-location:sigma=1,sigma=2")
        with pytest.raises(ValueError, match="empty"):
            parse_family_spec("  ")
        with pytest.raises(ValueError, match="path"):
            parse_family_spec("tabulated")


class TestSamplerSpecs:
    def test_uniform(self):
        assert parse_sampler_spec("uniform:a=0,b=1") == UniformSampler(0.0, 1.0)

    def test_point_mass(self):
        assert parse_sampler_spec("point-mass:c=2") == PointMassSampler(2.0)

    def test_gaussian_mixture_with_pipe_lists(self):
        s = parse_sampler_spec("gaussian-mixture:weights=0.5|0.5,means=0|3,sds=1|0.5")
        assert s == GaussianMixtureSampler(
            components=((0.5, 0.0, 1.0), (0.5, 3.0, 0.5))
        )

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            parse_sampler_spec("poisson:lam=2")
        with pytest.raises(ValueError, match="missing required key"):
            parse_sampler_spec("uniform:a=0")
        with pytest.raises(ValueError, match="equal length"):
            parse_sampler_spec("gaussian-mixture:weights=1,means=0|3,sds=1|1")
        with pytest.raises(ValueError, match="number list"):
            parse_sampler_spec("gaussian-mixture:weights=a|b,means=0|3,sds=1|1")
        with pytest.raises(ValueError, match="unknown key"):
            parse_sampler_spec("point-mass:c=1,d=2")
        with pytest.raises(ValueError, match="missing required key 'sds'"):
            parse_sampler_spec("gaussian-mixture:weights=1,means=0")


class TestConstructorRefusalsNameTheSpec:
    @pytest.mark.parametrize("parse, spec, message", [
        (parse_family_spec, "normal-location:sigma=-1",
         "sigma must be positive and finite, got -1.0"),
        (parse_sampler_spec, "uniform:a=1,b=0", "need finite a < b, got a=1.0, b=0.0"),
        (parse_sampler_spec, "point-mass:c=inf", "need finite c, got inf"),
        (parse_sampler_spec, "gaussian-mixture:weights=0.5|0.5,means=0|1,sds=1|-2",
         "mixture sd -2.0 must be positive"),
    ], ids=["normal-location", "uniform", "point-mass", "gaussian-mixture"])
    def test_message_is_prefixed_with_the_spec(self, parse, spec, message):
        with pytest.raises(ValueError) as info:
            parse(spec)
        assert str(info.value) == f"spec {spec!r}: {message}"

    def test_table_errors_keep_their_file_and_line(self, tmp_path):
        (tmp_path / "t.csv").write_text("zeta,x,cdf\n0,0,0\n0,1,0.5\n0,1,1\n")
        with pytest.raises(ValueError) as info:
            parse_family_spec("tabulated:path=t.csv", base_dir=str(tmp_path))
        assert str(info.value).startswith(f"{tmp_path / 't.csv'}: line 4: duplicate point")


class TestScenarioFiles:
    def test_full_round_trip(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "# power study\n"
            "zeta_sampler = gaussian-mixture:weights=0.5|0.5,means=0|3,sds=1|0.5\n"
            "null_family = normal-location:sigma=1   # the null\n"
            "\n"
            "data_family = normal-location:sigma=2\n"
            "n = 100\n"
            "replicates = 10\n"
            "seed = 42\n"
        )
        sc = load_scenario(cfg)
        assert sc.null_family == NormalLocation(sigma=1.0)
        assert sc.data_family == NormalLocation(sigma=2.0)
        assert sc.n == 100 and sc.replicates == 10 and sc.seed == 42
        assert not sc.is_calibration

    def test_data_family_defaults_to_null(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "zeta_sampler = uniform:a=0,b=1\n"
            "null_family = exponential-rate\n"
            "n = 5\nreplicates = 3\nseed = 1\n"
        )
        sc = load_scenario(cfg)
        assert sc.is_calibration

    def test_tabulated_path_relative_to_scenario_file(self, tmp_path):
        write_table(tmp_path / "t.csv")
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "zeta_sampler = uniform:a=0,b=1\n"
            "null_family = tabulated:path=t.csv\n"
            "n = 5\nreplicates = 3\nseed = 1\n"
        )
        sc = load_scenario(cfg)
        assert isinstance(sc.null_family, TabulatedFamily)

    def test_error_names_offending_key(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "zeta_sampler = uniform:a=0,b=1\n"
            "null_family = normal-location:sigma=1\n"
            "n = 5\nreplicates = 3\nseed = 1\nbogus = 1\n"
        )
        with pytest.raises(ValueError, match="'bogus'"):
            load_scenario(cfg)

    def test_missing_key_reported(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("zeta_sampler = uniform:a=0,b=1\nn = 5\nreplicates = 3\nseed = 1\n")
        with pytest.raises(ValueError, match="'null_family'"):
            load_scenario(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "zeta_sampler = uniform:a=0,b=1\n"
            "zeta_sampler = uniform:a=0,b=2\n"
            "null_family = normal-location:sigma=1\n"
            "n = 5\nreplicates = 3\nseed = 1\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_scenario(cfg)

    def test_malformed_line_reported_with_number(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("zeta_sampler = uniform:a=0,b=1\nnonsense line\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scenario(cfg)

    def test_non_integer_count_rejected(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "zeta_sampler = uniform:a=0,b=1\n"
            "null_family = normal-location:sigma=1\n"
            "n = 5.5\nreplicates = 3\nseed = 1\n"
        )
        with pytest.raises(ValueError, match="integer"):
            load_scenario(cfg)

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        # A '#' opens a comment only at the start of a line or after
        # whitespace, so it may appear inside a path.
        write_table(tmp_path / "g#1.csv")
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "zeta_sampler = uniform:a=0,b=1\n"
            "null_family = tabulated:path=g#1.csv\t# the grid\n"
            "  # indented comment\n"
            "n = 5\nreplicates = 3\nseed = 1\n"
        )
        sc = load_scenario(cfg)
        assert sc.null_family == TabulatedFamily.from_csv(tmp_path / "g#1.csv")

    def test_hash_right_after_a_value_is_part_of_it(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "zeta_sampler = uniform:a=0,b=1\n"
            "null_family = normal-location:sigma=1\n"
            "n = 5# note\nreplicates = 3\nseed = 1\n"
        )
        with pytest.raises(ValueError) as caught:
            load_scenario(cfg)
        assert str(caught.value) == f"{cfg}: line 3: scenario key 'n': '5# note' is not an integer"

    def test_pinned_zeta_rejected_in_scenario(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "zeta_sampler = uniform:a=0,b=1\n"
            "null_family = normal-location:sigma=1,zeta=0\n"
            "n = 5\nreplicates = 3\nseed = 1\n"
        )
        with pytest.raises(ValueError, match="point-mass"):
            load_scenario(cfg)

    def test_non_utf8_byte_is_named_by_file_and_line(self, tmp_path):
        # The decoder's own message gave an offset in its chunk and no file.
        cfg = tmp_path / "scen.cfg"
        cfg.write_bytes(b"zeta_sampler = uniform:a=0,b=1\n"
                        b"null_family = normal-location:sigma=1\n"
                        b"n = 5\xff\nreplicates = 3\nseed = 1\n")
        with pytest.raises(ValueError) as caught:
            load_scenario(cfg)
        assert str(caught.value) == (
            f"{cfg}: line 3: not valid UTF-8 (byte 0xff: invalid start byte)"
        )

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_piped_byte_that_is_not_utf8_is_named_without_a_line(self):
        # A pipe cannot be read again to find the line, so the error names
        # the pipe and the byte, where the decoder's own named neither.
        read_end, write_end = os.pipe()
        os.write(write_end, b"zeta_sampler = uniform:a=0,b=1\nn = 5\xff\n")
        os.close(write_end)
        try:
            with pytest.raises(ValueError) as caught:
                load_scenario(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert str(caught.value) == (f"/dev/fd/{read_end}: not valid UTF-8 "
                                     "(byte 0xff: invalid start byte)")
