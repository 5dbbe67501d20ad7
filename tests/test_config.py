import dataclasses
import re

import pytest

from irsnoma.config import (SystemConfig, db_to_linear, dbm_to_watt,
                            load_config, parse_config_text)


def test_unit_conversions():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(-114.0) == pytest.approx(3.9810717055349695e-15, rel=1e-12)
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-12)
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)


def test_defaults_follow_reference_table():
    cfg = SystemConfig()
    assert cfg.num_clusters == 5
    assert cfg.users_per_cluster == 2
    assert cfg.total_users == 30
    assert cfg.cluster_power_w == pytest.approx(1.0)
    assert cfg.noise_power_w == pytest.approx(dbm_to_watt(-114.0))
    assert cfg.min_sinr == pytest.approx(db_to_linear(3.0))
    assert cfg.bs_irs_distance_m == 30.0
    assert cfg.user_radius_m == 10.0
    assert cfg.pathloss_exp_bs_irs == 2.2


@pytest.mark.parametrize("field,value", [
    ("num_bs_antennas", 4),      # M must exceed I - 1
    ("total_users", 9),          # fewer than K * I
    ("cluster_power_w", 0.0),
    ("correlation_threshold", 1.5),
    ("min_sinr", 0.0),           # divides the floor violation
    ("min_sinr", -1.0),
    ("ref_pathloss", 0.0),       # all-zero channels
    ("rician_bs_irs", -0.5),     # NaN channels
    ("rician_irs_user", -0.5),
    ("min_sinr", float("nan")),  # passes every range test
    ("noise_power_w", float("inf")),
    ("circuit_power_w", float("nan")),
    ("bs_irs_distance_m", float("inf")),
    ("rician_bs_irs", float("nan")),
    ("pathloss_exp_bs_irs", float("nan")),
])
def test_invalid_configs_rejected(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(SystemConfig(), **{field: value})


def test_parse_config_text_with_db_keys():
    cfg = parse_config_text(
        """
        # scenario file
        num_irs_elements = 16
        cluster_power_dbm = 30   # Watts after conversion
        noise_power_dbm = -114
        min_sinr_db = 3
        correlation_threshold = 0.7
        """
    )
    assert cfg.num_irs_elements == 16
    assert cfg.cluster_power_w == pytest.approx(1.0)
    assert cfg.min_sinr == pytest.approx(db_to_linear(3.0))


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("mystery_knob = 12\n")
    with pytest.raises(ValueError, match="expected"):
        parse_config_text("just words\n")


def test_parse_config_rejects_out_of_range_values():
    # a linear key reaches SystemConfig unconverted, so its range is checked
    # there, before any stage runs
    with pytest.raises(ValueError, match="min_sinr must be strictly positive"):
        parse_config_text("num_irs_elements = 16\nmin_sinr = 0\n")


@pytest.mark.parametrize("text,message", [
    ("min_sinr = 2\nmin_sinr_db = 3\n",
     "line 2: min_sinr_db sets min_sinr again, already set by min_sinr on line 1"),
    ("num_clusters = 5\n# comment\nnum_clusters = 4\n",
     "line 3: num_clusters sets num_clusters again, already set by num_clusters on line 1"),
    ("noise_power_dbm = -114\nnoise_power_w = 1e-14\n",
     "line 2: noise_power_w sets noise_power_w again, already set by noise_power_dbm on line 1"),
])
def test_parse_config_rejects_a_field_set_twice(text, message):
    # the second line used to overwrite the first without a word
    with pytest.raises(ValueError, match=message):
        parse_config_text(text)


@pytest.mark.parametrize("key", ["min_sinr_db", "cluster_power_dbm"])
def test_parse_config_rejects_an_overflowing_db_value(key):
    # 10 ** (1e5 / 10) raises OverflowError in the conversion
    with pytest.raises(ValueError, match=f"line 2: {key} = 100000 overflows"):
        parse_config_text(f"num_irs_elements = 16\n{key} = 100000\n")


_INTEGER_FIELDS = ("num_bs_antennas", "num_irs_elements", "users_per_cluster",
                   "num_clusters", "total_users")


@pytest.mark.parametrize("line,message", [
    *((f"{name} = 5.0", f"line 2: {name} = 5.0 is not an integer")
      for name in _INTEGER_FIELDS),
    ("min_sinr_db = high", "line 2: min_sinr_db = high is not a number"),
    ("noise_power_w = 1e-14 W", "line 2: noise_power_w = 1e-14 W is not a number"),
])
def test_parse_config_names_a_value_that_does_not_parse(line, message):
    # int() and float() name neither the line nor the key
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config_text(f"# scenario\n{line}\n")


def test_parse_config_rejects_rng_seed():
    # simulate --seed seeds every run; a seed in the scenario file would be
    # ignored, so it is refused like any other unknown key
    with pytest.raises(ValueError, match="line 2: unknown config key 'rng_seed'"):
        parse_config_text("num_irs_elements = 16\nrng_seed = 5\n")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("num_bs_antennas = 10\nbandwidth_hz = 2.0\n")
    cfg = load_config(str(path))
    assert cfg.num_bs_antennas == 10
    assert cfg.bandwidth_hz == 2.0
