"""Scenario configuration and unit conversions.

All scenario scalars live in a single immutable ``SystemConfig``. Values are
stored in linear units (Watts, linear power ratios); dB/dBm inputs are
converted exactly once, either through the ``*_db``/``*_dbm`` keys of a
config file or through the helpers below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


def db_to_linear(value_db: float) -> float:
    """Convert a dB ratio to linear scale."""
    return 10.0 ** (value_db / 10.0)


def dbm_to_watt(value_dbm: float) -> float:
    """Convert a dBm power level to Watts."""
    return 10.0 ** (value_dbm / 10.0) / 1000.0


_NOISE_W = dbm_to_watt(-114.0)


@dataclass(frozen=True)
class SystemConfig:
    """All scenario scalars, in linear units.

    Defaults follow the reference downlink: 5 beams of 2 superposed users
    drawn from 30 candidates around the reflecting surface, 30 dBm per
    beam, -114 dBm noise, 3 dB Rician factors, -30 dB reference path loss
    at 1 m with exponent 2.2 on both hops.
    """

    num_bs_antennas: int = 8          # M, ULA antennas at the BS
    num_irs_elements: int = 32        # N, reflecting elements
    users_per_cluster: int = 2        # K
    num_clusters: int = 5             # I (one beam per cluster)
    total_users: int = 30             # V, candidate pool for clustering
    cluster_power_w: float = 1.0      # P_i, transmit power per beam
    max_power_w: float = 1.0          # P_max, per-beam budget cap
    circuit_power_w: float = 1.0      # P_c
    noise_power_w: float = _NOISE_W   # sigma^2
    bandwidth_hz: float = 1.0         # rates are reported per Hz by default
    rician_bs_irs: float = db_to_linear(3.0)
    rician_irs_user: float = db_to_linear(3.0)
    ref_pathloss: float = db_to_linear(-30.0)   # L0 at d0
    ref_distance_m: float = 1.0                 # d0
    bs_irs_distance_m: float = 30.0
    pathloss_exp_bs_irs: float = 2.2
    pathloss_exp_irs_user: float = 2.2
    user_radius_m: float = 10.0       # disc radius of the user point process
    min_sinr: float = db_to_linear(3.0)         # QoS threshold, linear
    sic_power_gap_w: float = 100.0 * _NOISE_W   # P_g, decode-power separation
    correlation_threshold: float = 0.7          # clustering gate in [0, 1]
    element_spacing_ratio: float = 0.5          # d/lambda for both ULAs

    def __post_init__(self) -> None:
        # a NaN passes every range test below, and an infinite power or
        # distance leaves the stages nothing to compute with
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.num_bs_antennas <= self.num_clusters - 1:
            raise ValueError(
                "num_bs_antennas must exceed num_clusters - 1, got "
                f"M={self.num_bs_antennas}, I={self.num_clusters}"
            )
        if self.total_users < self.users_per_cluster * self.num_clusters:
            raise ValueError(
                "total_users must cover all clusters: need at least "
                f"{self.users_per_cluster * self.num_clusters}, got {self.total_users}"
            )
        if min(self.users_per_cluster, self.num_clusters, self.num_irs_elements) < 1:
            raise ValueError("counts must be positive")
        for name in (
            "cluster_power_w", "max_power_w", "circuit_power_w", "noise_power_w",
            "bandwidth_hz", "ref_distance_m", "bs_irs_distance_m", "user_radius_m",
            "sic_power_gap_w", "min_sinr", "ref_pathloss",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if min(self.rician_bs_irs, self.rician_irs_user) < 0.0:
            raise ValueError("Rician factors must be nonnegative")
        if not 0.0 <= self.correlation_threshold <= 1.0:
            raise ValueError("correlation_threshold must lie in [0, 1]")


# Config-file keys carrying dB/dBm values and the linear field they map to.
_DB_KEYS = {
    "cluster_power_dbm": ("cluster_power_w", dbm_to_watt),
    "max_power_dbm": ("max_power_w", dbm_to_watt),
    "circuit_power_dbm": ("circuit_power_w", dbm_to_watt),
    "noise_power_dbm": ("noise_power_w", dbm_to_watt),
    "sic_power_gap_dbm": ("sic_power_gap_w", dbm_to_watt),
    "rician_bs_irs_db": ("rician_bs_irs", db_to_linear),
    "rician_irs_user_db": ("rician_irs_user", db_to_linear),
    "ref_pathloss_db": ("ref_pathloss", db_to_linear),
    "min_sinr_db": ("min_sinr", db_to_linear),
}

# the integer fields, read from the annotations (strings under postponed evaluation)
_INT_FIELDS = {f.name for f in fields(SystemConfig) if f.type == "int"}


def parse_config_text(text: str) -> SystemConfig:
    """Parse flat ``key = value`` text into a SystemConfig.

    ``#`` starts a comment. Unknown keys are rejected, and so is a field set
    twice, under either spelling. Keys with a ``_db`` / ``_dbm`` suffix are
    converted to linear units here, so the rest of the library never sees
    decibels.
    """
    field_names = {f.name for f in fields(SystemConfig)}
    overrides: dict[str, float | int] = {}
    set_at: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        target = _DB_KEYS[key][0] if key in _DB_KEYS else key
        if target not in field_names:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if target in set_at:
            first_line, first_key = set_at[target]
            raise ValueError(f"line {lineno}: {key} sets {target} again, "
                             f"already set by {first_key} on line {first_line}")
        set_at[target] = (lineno, key)
        kind = int if key in _INT_FIELDS else float
        try:
            number = kind(value)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"line {lineno}: {key} = {value} is not {noun}") from None
        if key in _DB_KEYS:
            try:
                overrides[target] = _DB_KEYS[key][1](number)
            except OverflowError:
                raise ValueError(f"line {lineno}: {key} = {value} overflows "
                                 "a float in linear units") from None
        else:
            overrides[key] = number
    return SystemConfig(**overrides)


def load_config(path: str) -> SystemConfig:
    """Load a SystemConfig from a flat key-value file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
