"""Geometric Rician channel model and link-quality metrics.

The downlink reaches every user through the reflecting surface only: a BS
to surface matrix per user and a surface to user vector, both Rician with
ULA line-of-sight components, combined into the cascaded matrix
``W = diag(conj(h)) H``. For a reflection vector ``b`` the effective
channel row is ``u = b^H W`` and all rate/power metrics are computed from
the squared gains ``|u f|^2`` of the beamformers ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import SystemConfig


@dataclass(frozen=True)
class UserGeometry:
    """Placement draw for one trial: distances and departure/arrival angles."""

    irs_user_distance_m: np.ndarray   # (V,) planar distance surface -> user
    irs_user_aod_rad: np.ndarray      # (V,) departure angle at the surface
    irs_aoa_rad: float                # arrival angle at the surface (BS side)
    bs_aod_rad: float                 # departure angle at the BS


@dataclass(frozen=True)
class ChannelSet:
    """Per-user channel draws; immutable and safe to share across workers."""

    bs_irs: np.ndarray     # (V, N, M)
    irs_user: np.ndarray   # (V, N)
    cascaded: np.ndarray   # (V, N, M), row n = conj(h_n) * H[n, :]


def array_response(angle_rad: float | np.ndarray, num_elements: int,
                   spacing_ratio: float = 0.5) -> np.ndarray:
    """ULA response: element e carries phase exp(-j 2 pi e (d/lambda) sin(angle)).

    A scalar angle gives an (N,) vector, an array of angles one row per
    angle, (..., N).
    """
    if num_elements < 1:
        raise ValueError("num_elements must be at least 1")
    idx = np.arange(num_elements)
    return np.exp(-2j * np.pi * idx * spacing_ratio
                  * np.sin(np.asarray(angle_rad))[..., None])


def path_gain(ref_loss: float, distance_m: float, ref_distance_m: float,
              exponent: float) -> float:
    """Distance-dependent power gain L0 * (d / d0)^(-alpha)."""
    return ref_loss * (distance_m / ref_distance_m) ** (-exponent)


def draw_user_geometry(config: SystemConfig, rng: np.random.Generator) -> UserGeometry:
    """Drop users uniformly in a disc around the surface; draw ULA angles.

    Radial distances follow the uniform-in-disc law d = R sqrt(U). The
    BS-side angles are one draw per trial, user departure angles are i.i.d.;
    all angles are uniform on [-pi/3, pi/3].
    """
    v = config.total_users
    dist = config.user_radius_m * np.sqrt(rng.random(v))
    dist = np.maximum(dist, 1e-9 * config.user_radius_m)
    lo, hi = -np.pi / 3.0, np.pi / 3.0
    return UserGeometry(
        irs_user_distance_m=dist,
        irs_user_aod_rad=rng.uniform(lo, hi, size=v),
        irs_aoa_rad=float(rng.uniform(lo, hi)),
        bs_aod_rad=float(rng.uniform(lo, hi)),
    )


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # i.i.d. CN(0, 1) entries
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def synthesize_channels(config: SystemConfig, geometry: UserGeometry,
                        rng: np.random.Generator) -> ChannelSet:
    """Draw Rician BS-surface and surface-user channels and cascade them.

    Each link mixes a deterministic ULA outer-product line-of-sight term
    (weight delta/(1+delta)) with unit-variance complex Gaussian scatter
    (weight 1/(1+delta)), scaled by the distance path gain.
    """
    n, m, v = config.num_irs_elements, config.num_bs_antennas, config.total_users
    sr = config.element_spacing_ratio

    a_irs_rx = array_response(geometry.irs_aoa_rad, n, sr)
    a_bs_tx = array_response(geometry.bs_aod_rad, m, sr)
    los_bs_irs = np.outer(a_irs_rx.conj(), a_bs_tx)

    delta = config.rician_bs_irs
    gain_bs_irs = path_gain(config.ref_pathloss, config.bs_irs_distance_m,
                            config.ref_distance_m, config.pathloss_exp_bs_irs)
    bs_irs = np.sqrt(gain_bs_irs) * (
        np.sqrt(delta / (1.0 + delta)) * los_bs_irs[None, :, :]
        + np.sqrt(1.0 / (1.0 + delta)) * _complex_normal(rng, (v, n, m))
    )

    eps = config.rician_irs_user
    los_irs_user = array_response(geometry.irs_user_aod_rad, n, sr)
    gain_irs_user = path_gain(
        config.ref_pathloss, geometry.irs_user_distance_m,
        config.ref_distance_m, config.pathloss_exp_irs_user,
    )
    irs_user = np.sqrt(gain_irs_user)[:, None] * (
        np.sqrt(eps / (1.0 + eps)) * los_irs_user
        + np.sqrt(1.0 / (1.0 + eps)) * _complex_normal(rng, (v, n))
    )

    cascaded = irs_user.conj()[:, :, None] * bs_irs
    return ChannelSet(bs_irs=bs_irs, irs_user=irs_user, cascaded=cascaded)


def effective_channel(cascaded: np.ndarray, reflection: np.ndarray) -> np.ndarray:
    """Effective row channel b^H W, for one user (N,M) or a stack (V,N,M)."""
    reflection = np.asarray(reflection)
    if cascaded.shape[-2] != reflection.shape[0]:
        raise ValueError(
            f"reflection length {reflection.shape[0]} does not match "
            f"cascaded rows {cascaded.shape[-2]}"
        )
    return np.einsum("n,...nm->...m", reflection.conj(), cascaded)


@dataclass(frozen=True)
class LinkGains:
    """Squared effective gains for a clustered, beamformed scenario.

    ``own_beam[i, k]`` is |u_{i,k} f_i|^2, ``cross_beam[i, k, j]`` is
    |u_{i,k} f_j|^2 and ``channel_power[i, k]`` is ||u_{i,k}||^2. Users are
    indexed weakest-first inside each cluster.
    """

    own_beam: np.ndarray       # (I, K)
    cross_beam: np.ndarray     # (I, K, I)
    channel_power: np.ndarray  # (I, K)


def link_gains(effective: np.ndarray, members: np.ndarray,
               beamformers: np.ndarray, check_order: bool = True) -> LinkGains:
    """Collect |u f|^2 gains for cluster members against every beam.

    ``effective`` is the (V, M) stack of effective channels, ``members``
    the (I, K) user indices sorted ascending by channel power, and
    ``beamformers`` the (I, M) beam vectors. ``check_order=False`` skips
    the sort contract check, for re-evaluation at a reflection other than
    the one the decode order was fixed at.
    """
    u = effective[members]                       # (I, K, M)
    proj = np.einsum("ikm,jm->ikj", u, beamformers)
    cross = np.abs(proj) ** 2
    beams = np.arange(cross.shape[0])
    own = cross[beams, :, beams]
    power = np.sum(np.abs(u) ** 2, axis=-1)
    if __debug__ and check_order:
        if np.any(np.diff(power, axis=1) < -1e-12 * np.max(power)):
            raise AssertionError("cluster members must be sorted weakest-first")
    return LinkGains(own_beam=own, cross_beam=cross, channel_power=power)


def stronger_tail(beta: np.ndarray) -> np.ndarray:
    """Per user, the summed coefficients of the stronger users l > k, (I, K)."""
    return beta[:, ::-1].cumsum(axis=1)[:, ::-1] - beta


class SinrParts(NamedTuple):
    """The SINRs at one split and the terms they are built from."""

    gamma: np.ndarray      # (I, K) post-SIC SINRs
    psi: np.ndarray        # (I, K) power leaked in from all other beams, W
    tail: np.ndarray       # (I, K) stronger_tail(beta)
    den: np.ndarray        # (I, K) SINR denominator P tail g + psi + sigma^2
    radiated: np.ndarray   # (I,) radiated power per beam P_i * sum(beta), W
    num: np.ndarray        # (I, K) SINR numerator P beta g


def sinr_parts(gains: LinkGains, beta: np.ndarray,
               config: SystemConfig) -> SinrParts:
    """Post-SIC SINR of every user and the terms it is built from.

    User k in a cluster decodes after the weaker ones are cancelled, so the
    remaining in-beam interference stems from the stronger users l > k.
    """
    p = config.cluster_power_w
    radiated = p * beta.sum(axis=1)
    psi = (np.einsum("ikj,j->ik", gains.cross_beam, radiated)
           - gains.own_beam * radiated[:, None])
    tail = stronger_tail(beta)
    den = p * tail * gains.own_beam + psi + config.noise_power_w
    num = p * beta * gains.own_beam
    return SinrParts(num / den, psi, tail, den, radiated, num)


def sinr(gains: LinkGains, beta: np.ndarray, config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Post-SIC SINR of every user and the interference term it saw, (I, K)."""
    parts = sinr_parts(gains, beta, config)
    return parts.gamma, parts.psi


def cluster_rates_and_power(gamma: np.ndarray, beta: np.ndarray,
                            config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster sum rate (bits/s) and consumed power (Watts).

    Beamformers are unit norm, so the radiated part is P_i * sum(beta).
    """
    rates = config.bandwidth_hz * np.log2(1.0 + gamma).sum(axis=1)
    powers = config.cluster_power_w * beta.sum(axis=1) + config.circuit_power_w
    return rates, powers


def energy_efficiency(gamma: np.ndarray, beta: np.ndarray,
                      config: SystemConfig) -> float:
    """Network objective: sum over clusters of rate / consumed power."""
    rates, powers = cluster_rates_and_power(gamma, beta, config)
    return float(np.sum(rates / powers))
