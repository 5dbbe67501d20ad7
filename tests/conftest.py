import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from irsnoma.beamforming import BeamformerSet, build_zf_beamformers
from irsnoma.channel import (draw_user_geometry, effective_channel, link_gains,
                             sinr, synthesize_channels)
from irsnoma.clustering import form_clusters
from irsnoma.config import SystemConfig
from irsnoma.power_allocation import shape_for_decode_order

# the same examples on every run, and no example database on disk
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def config():
    return SystemConfig()


def build_scenario(seed, config=None, zero_forcing=True, random_beams=False):
    """Draw one clustered, beamformed scenario at the initial reflection."""
    cfg = config or SystemConfig()
    rng = np.random.default_rng(seed)
    geometry = draw_user_geometry(cfg, rng)
    channels = synthesize_channels(cfg, geometry, rng)
    b0 = np.ones(cfg.num_irs_elements, dtype=complex)
    effective = effective_channel(channels.cascaded, b0)
    plan = form_clusters(effective, cfg.num_clusters, cfg.users_per_cluster,
                         cfg.correlation_threshold, rng)
    if random_beams:
        f = (rng.standard_normal((cfg.num_clusters, cfg.num_bs_antennas))
             + 1j * rng.standard_normal((cfg.num_clusters, cfg.num_bs_antennas)))
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        beams = BeamformerSet(vectors=f)
    else:
        beams = build_zf_beamformers(effective[plan.members[:, -1]])
    gains = link_gains(effective, plan.members, beams.vectors)
    return cfg, rng, channels, plan, beams, gains


def solver_free_floor(gains, cfg):
    """Half the smallest SINR of the decode-order split at the full per-beam
    budget: a floor that split meets, set without running Stage 1."""
    full = np.full(gains.own_beam.shape, cfg.max_power_w / cfg.cluster_power_w
                   / gains.own_beam.shape[1])
    gamma, _ = sinr(gains, shape_for_decode_order(full, cfg), cfg)
    return 0.5 * float(gamma.min())


def attainable_floor_scenario(seed, num_irs_elements=16, random_beams=True):
    """Scenario whose SINR floor is set below the starting SINRs.

    Used wherever the floor must be jointly attainable at the initial
    reflection (the reference parameters leave far users interference
    limited below the 3 dB floor there). The floor is ``solver_free_floor``.
    """
    base = dataclasses.replace(SystemConfig(), num_irs_elements=num_irs_elements)
    cfg, rng, channels, plan, beams, gains = build_scenario(
        seed, config=base, random_beams=random_beams)
    cfg = dataclasses.replace(cfg, min_sinr=solver_free_floor(gains, cfg))
    return cfg, rng, channels, plan, beams, gains
