"""Exhaustive small-N oracle for the reflection.

Every discrete reflection with 8 phase levels at N = 4, 4096 candidates,
keeps the clustered plan found at the all-ones reflection b0, re-sorted
weakest-first at the candidate as ``form_clusters`` sorts it. Each candidate
gets its own ZF beams and its own Stage 1; one whose ZF raises counts as
infeasible. The oracle keeps no code under ``src/``: it reads
``effective_channel``, ``build_zf_beamformers``, ``link_gains`` and
``allocate_power`` only.

What it pins now are the draws where Stage 1 does not certify b0 while some
discrete reflection is certified: the draws an alternating loop must turn
feasible. At the 3 dB reference floor no candidate is certified.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from irsnoma.beamforming import NullSpaceError, build_zf_beamformers
from irsnoma.channel import effective_channel, link_gains
from irsnoma.config import SystemConfig, db_to_linear
from irsnoma.power_allocation import allocate_power

from conftest import build_scenario

N, LEVELS = 4, 8
# candidate c has level l_n on element n, c = sum_n l_n LEVELS^(N-1-n);
# candidate 0 is b0
LEVEL_GRID = np.array(list(itertools.product(range(LEVELS), repeat=N)))
REFLECTIONS = np.exp(2j * np.pi * LEVEL_GRID / LEVELS)


def _scenario(seed, floor_db):
    base = dataclasses.replace(SystemConfig(), num_irs_elements=N,
                               min_sinr=db_to_linear(floor_db))
    cfg, _, cascaded, plan, _, gains = build_scenario(seed, config=base)
    return cfg, cascaded, plan, gains


def _one_candidate(cascaded, plan, reflection):
    """The (I, K, I) gains of b0's plan re-sorted at one reflection, or None
    where ZF raises."""
    effective = effective_channel(cascaded, reflection)
    power = np.add.reduce(np.abs(effective) ** 2, axis=1)
    members = np.take_along_axis(plan, np.argsort(power[plan], axis=1, kind="stable"),
                                 axis=1)
    try:
        beams = build_zf_beamformers(effective[members[:, -1]])
    except NullSpaceError:
        return None
    return link_gains(effective, members, beams)


def _oracle(seed, floor_db):
    """Per candidate, Stage 1's verdict and efficiency, and Stage 1 on the
    draw's own b0 gains."""
    cfg, cascaded, plan, gains_b0 = _scenario(seed, floor_db)
    gains = [_one_candidate(cascaded, plan, b) for b in REFLECTIONS]
    stage1 = [None if g is None else allocate_power(g, cfg) for g in gains]
    feasible = np.array([r is not None and r.feasible for r in stage1])
    ee = np.array([r.ee if r is not None else np.nan for r in stage1])
    return feasible, ee, allocate_power(gains_b0, cfg)


@pytest.mark.slow
@pytest.mark.parametrize("seed, floor_db, count, b0_ee, best_ee", [
    # b0 infeasible, yet a discrete reflection is certified: the pinned draws
    (1, -5.0, 368, None, 51.9639),
    (2, -5.0, 200, None, 47.7089),
    # b0 certified, and the best certified candidate beats it
    (0, -5.0, 448, 63.329, 69.3678),
    (3, -5.0, 272, 54.625, 56.5563),
    # no candidate meets the reference floor with b0's plan
    (0, 3.0, 0, None, None),
])
def test_exhaustive_reflection_oracle(seed, floor_db, count, b0_ee, best_ee):
    feasible, ee, at_b0 = _oracle(seed, floor_db)
    assert int(feasible.sum()) == count
    # candidate 0 is b0, bit for bit the draw's own Stage 1
    assert feasible[0] == at_b0.feasible == (b0_ee is not None)
    assert ee[0] == at_b0.ee
    if b0_ee is not None:
        assert at_b0.ee == pytest.approx(b0_ee, rel=1e-4)
    if best_ee is not None:
        assert ee[feasible].max() == pytest.approx(best_ee, rel=1e-4)
    # a common phase step leaves every SINR unchanged, so the certified set
    # is closed under it
    shifted = np.exp(2j * np.pi / LEVELS) * REFLECTIONS
    step = ((LEVEL_GRID + 1) % LEVELS) @ LEVELS ** np.arange(N - 1, -1, -1)
    assert np.allclose(REFLECTIONS[step], shifted)
    assert np.array_equal(feasible[step], feasible)
