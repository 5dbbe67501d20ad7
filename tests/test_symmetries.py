"""Exact symmetries of the front end and Stage 1, as checks that can fail.

Each transform leaves the physics of a draw unchanged:

- a unitary U on the BS axis of the cascaded channel (the zero-forcing
  beams rotate by U^H);
- a common phase on the reflection b;
- one permutation of the surface elements, applied to the cascaded
  channel and to b;
- a relabeling of the users.

So the plan must come out the same (through the user map, for a
relabeling), and the gains, the Stage-1 split and its efficiency the same
to 1e-12 of their largest magnitude. The front end runs at a random
unit-modulus reflection: at the all-ones b0 a common phase and a
permutation of b would act on nothing. Every check runs at the floor
``solver_free_floor`` sets from the untransformed gains, which Stage 1
certifies, and at the reference 3 dB floor, which it does not.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma.beamforming import build_zf_beamformers
from irsnoma.channel import (draw_user_geometry, effective_channel, link_gains,
                             synthesize_channels)
from irsnoma.clustering import form_clusters
from irsnoma.config import SystemConfig
from irsnoma.power_allocation import allocate_power

from conftest import solver_free_floor

FLOORS = ["solver-free", "3 dB"]
draws = given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([16, 64]))
examples = settings(max_examples=20, deadline=None)


def _draw(seed, n):
    """A reference config at N = ``n``, its cascaded channel, a random
    unit-modulus reflection, and the generator to draw a transform from."""
    cfg = dataclasses.replace(SystemConfig(), num_irs_elements=n)
    rng = np.random.default_rng(seed)
    cascaded = synthesize_channels(cfg, draw_user_geometry(cfg, rng), rng)
    return cfg, cascaded, np.exp(1j * rng.uniform(-np.pi, np.pi, n)), rng


def _front_end(cfg, cascaded, reflection):
    """The plan and its (I, K, I) gains at ``reflection``, as a trial builds them."""
    effective = effective_channel(cascaded, reflection)
    plan = form_clusters(effective, cfg.num_clusters, cfg.users_per_cluster,
                         cfg.correlation_threshold)
    beams = build_zf_beamformers(effective[plan[:, -1]])
    return plan, link_gains(effective, plan, beams)


def _assert_close(got, want):
    assert np.abs(np.asarray(got) - want).max() <= 1e-12 * np.abs(want).max()


def _check(floor, cfg, draw, transformed, relabel=None):
    """The front end and Stage 1 on ``draw`` and on ``transformed``, each a
    (cascaded, reflection) pair; ``relabel`` maps a transformed user index
    to the original one."""
    plan, gains = _front_end(cfg, *draw)
    plan_t, gains_t = _front_end(cfg, *transformed)
    if relabel is not None:
        plan_t = relabel[plan_t]
    assert np.array_equal(plan_t, plan)
    _assert_close(gains_t, gains)
    if floor == "solver-free":
        cfg = dataclasses.replace(cfg, min_sinr=solver_free_floor(gains, cfg))
    stage1, stage1_t = allocate_power(gains, cfg), allocate_power(gains_t, cfg)
    assert stage1.feasible == stage1_t.feasible == (floor == "solver-free")
    _assert_close(stage1_t.beta, stage1.beta)
    _assert_close(stage1_t.ee, stage1.ee)


@pytest.mark.parametrize("floor", FLOORS)
@examples
@draws
def test_unitary_on_bs_axis(floor, seed, n):
    cfg, cascaded, reflection, rng = _draw(seed, n)
    m = cfg.num_bs_antennas
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    unitary = q * (np.diag(r) / np.abs(np.diag(r)))
    _check(floor, cfg, (cascaded, reflection), (cascaded @ unitary, reflection))


@pytest.mark.parametrize("floor", FLOORS)
@examples
@draws
def test_common_phase_on_reflection(floor, seed, n):
    cfg, cascaded, reflection, rng = _draw(seed, n)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
    _check(floor, cfg, (cascaded, reflection), (cascaded, phase * reflection))


@pytest.mark.parametrize("floor", FLOORS)
@examples
@draws
def test_permutation_of_surface_elements(floor, seed, n):
    cfg, cascaded, reflection, rng = _draw(seed, n)
    order = rng.permutation(n)
    _check(floor, cfg, (cascaded, reflection),
           (cascaded[:, order], reflection[order]))


@pytest.mark.parametrize("floor", FLOORS)
@examples
@draws
def test_relabeling_of_users(floor, seed, n):
    cfg, cascaded, reflection, rng = _draw(seed, n)
    labels = rng.permutation(cfg.total_users)
    _check(floor, cfg, (cascaded, reflection), (cascaded[labels], reflection),
           relabel=labels)
