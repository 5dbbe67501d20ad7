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


def _rician(rng: np.random.Generator, los: np.ndarray, factor: float,
            gain: float | np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """sqrt(gain) (sqrt(f/(1+f)) los + sqrt(1/(1+f)) (a + jb)/sqrt(2)), a, b ~ N(0, 1).

    Part by part in real arithmetic, with the complex expression's bits:
    NumPy divides by sqrt(2) + 0j with Smith's method, which scales each
    part by fl(1/sqrt(2)), and a real factor adds only signed-zero cross
    terms. ``a`` is drawn before ``b``.
    """
    out = np.empty(shape, dtype=complex)
    draws = rng.standard_normal(shape), rng.standard_normal(shape)
    for draw, los_part, part in zip(draws, (los.real, los.imag), (out.real, out.imag)):
        draw *= 1.0 / np.sqrt(2.0)
        draw *= np.sqrt(1.0 / (1.0 + factor))
        draw += np.sqrt(factor / (1.0 + factor)) * los_part
        np.multiply(draw, np.sqrt(gain), out=part)
    return out


def synthesize_channels(config: SystemConfig, geometry: UserGeometry,
                        rng: np.random.Generator) -> ChannelSet:
    """Draw Rician BS-surface and surface-user channels and cascade them.

    Each link mixes a deterministic ULA outer-product line-of-sight term
    (weight delta/(1+delta)) with unit-variance complex Gaussian scatter
    (weight 1/(1+delta)), scaled by the distance path gain; the normal
    draws are most of the cost.
    """
    n, m, v = config.num_irs_elements, config.num_bs_antennas, config.total_users
    sr = config.element_spacing_ratio

    a_irs_rx = array_response(geometry.irs_aoa_rad, n, sr)
    a_bs_tx = array_response(geometry.bs_aod_rad, m, sr)
    los_bs_irs = np.outer(a_irs_rx.conj(), a_bs_tx)
    gain_bs_irs = path_gain(config.ref_pathloss, config.bs_irs_distance_m,
                            config.ref_distance_m, config.pathloss_exp_bs_irs)
    bs_irs = _rician(rng, los_bs_irs, config.rician_bs_irs, gain_bs_irs, (v, n, m))

    los_irs_user = array_response(geometry.irs_user_aod_rad, n, sr)
    gain_irs_user = path_gain(
        config.ref_pathloss, geometry.irs_user_distance_m,
        config.ref_distance_m, config.pathloss_exp_irs_user,
    )
    irs_user = _rician(rng, los_irs_user, config.rician_irs_user,
                       gain_irs_user[:, None], (v, n))

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
    return np.add.accumulate(beta[:, ::-1], axis=1)[:, ::-1] - beta


def sinr(gains: LinkGains, beta: np.ndarray, config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Post-SIC SINR of every user and the interference term it saw, (I, K).

    User k in a cluster decodes after the weaker ones are cancelled, so the
    remaining in-beam interference stems from the stronger users l > k.
    """
    p = config.cluster_power_w
    radiated = p * beta.sum(axis=1)
    psi = (np.einsum("ikj,j->ik", gains.cross_beam, radiated)
           - gains.own_beam * radiated[:, None])
    den = p * stronger_tail(beta) * gains.own_beam + psi + config.noise_power_w
    return p * beta * gains.own_beam / den, psi


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
