"""Stage 1 against oracles over the per-cluster totals.

The oracles share no code with the solver: the interference comes from the
public ``sinr``, the least total and the bound split are chains written one
cluster and one user at a time, and the searches are exhaustive grids or
a multi-start coordinate search.
"""

import dataclasses

import numpy as np
import pytest

from irsnoma import power_allocation
from irsnoma.channel import energy_efficiency, sinr
from irsnoma.config import SystemConfig, db_to_linear
from irsnoma.power_allocation import allocate_power, shape_for_decode_order

from conftest import attainable_floor_scenario, build_scenario, solver_free_floor


def interference_columns(gains, cfg):
    """(I, K, I): the interference plus noise each user sees is noise plus
    this map of the per-cluster totals (psi is linear in them)."""
    clusters, users = gains.own_beam.shape
    columns = []
    for j in range(clusters):
        beta = np.zeros((clusters, users))
        beta[j] = 1.0 / users
        columns.append(sinr(gains, beta, cfg)[1])
    return np.stack(columns, axis=-1)


def least_totals(gains, cfg, totals, columns):
    """Each cluster's least total at the others' ``totals`` (any leading
    shape): the strongest user's floor, then per weaker user the larger of
    its floor and gap bounds, from the strongest user down to the weakest."""
    p, gamma = cfg.cluster_power_w, cfg.min_sinr
    clusters, users = gains.own_beam.shape
    out = []
    for i in range(clusters):
        g = gains.own_beam[i]
        c = cfg.noise_power_w + totals @ columns[i].T       # (..., K)
        level = gamma * c[..., -1] / (p * g[-1])
        for k in range(users - 2, -1, -1):
            level = np.maximum((1 + gamma) * level + gamma * c[..., k] / (p * g[k]),
                               2 * level + cfg.sic_power_gap_w / (p * g[k + 1]))
        out.append(level)
    return np.stack(out, axis=-1)


def bound_split(gains, cfg, totals, columns):
    """The split at ``totals`` that gives every user but the strongest its
    binding floor or gap bound, or None where the strongest user then falls
    below the floor."""
    p, gamma = cfg.cluster_power_w, cfg.min_sinr
    clusters, users = gains.own_beam.shape
    beta = np.zeros((clusters, users))
    for i in range(clusters):
        g = gains.own_beam[i]
        c = cfg.noise_power_w + columns[i] @ totals
        level = totals[i]
        for k in range(users - 1):
            below = min((level - gamma * c[k] / (p * g[k])) / (1 + gamma),
                        (level - cfg.sic_power_gap_w / (p * g[k + 1])) / 2)
            beta[i, k], level = level - below, below
        if level < gamma * c[-1] / (p * g[-1]):
            return None
        beta[i, -1] = level
    return beta


def efficiency_at(gains, cfg, totals, columns, attainable):
    """Stage 1's objective at ``totals``: the bound split at an attainable
    floor, the decode-order split otherwise; -inf where infeasible."""
    if attainable:
        beta = bound_split(gains, cfg, totals, columns)
        if beta is None:
            return -np.inf
    else:
        beta = shape_for_decode_order(totals[:, None] * np.ones(gains.own_beam.shape)
                                      / gains.own_beam.shape[1], cfg)
    gamma, _ = sinr(gains, beta, cfg)
    return energy_efficiency(gamma, beta, cfg)


def two_cluster_draw(seed, floor_db=None):
    """I = 2, K = 2 ZF draw; ``floor_db`` None puts the floor at
    ``solver_free_floor``."""
    base = dataclasses.replace(SystemConfig(), num_clusters=2, num_bs_antennas=4,
                               total_users=8, num_irs_elements=16)
    cfg, *_, gains = build_scenario(seed, config=base)
    floor = solver_free_floor(gains, cfg) if floor_db is None else db_to_linear(floor_db)
    return dataclasses.replace(cfg, min_sinr=floor), gains


@pytest.mark.parametrize("floor_db", [None, -10.0, -5.0, 0.0, 3.0, 10.0])
def test_certificate_matches_totals_grid(floor_db):
    # (a) exhaustive (s1, s2) grid at I = 2, geometric from 1e-6 of the
    # budget: the same verdict, the certified totals feasible, and every
    # feasible grid point at or above them
    verdicts = []
    for seed in range(6):
        cfg, gains = two_cluster_draw(seed, floor_db)
        columns = interference_columns(gains, cfg)
        high = cfg.max_power_w / cfg.cluster_power_w
        axis = np.geomspace(1e-6 * high, high, 400)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
        feasible = np.all(least_totals(gains, cfg, grid, columns) <= grid, axis=-1)
        problem = power_allocation._Problem(gains, cfg)
        least = problem.certify(*problem.constraints())
        verdicts.append(least is not None)
        assert feasible.any() == (least is not None), seed
        if least is not None:
            certified = least[::2]
            assert np.all(least_totals(gains, cfg, certified, columns)
                          <= certified * (1 + 1e-9)), seed
            assert np.all(grid[feasible] >= certified * (1 - 1e-12)), seed
    if floor_db is None:
        assert all(verdicts)
    if floor_db == 10.0:
        assert not any(verdicts)
    elif floor_db is not None:
        assert any(verdicts)


def grid_optimum(gains, cfg, attainable, points=40, rounds=4):
    """Best efficiency over the (s1, s2) box: a full grid, then three finer
    grids around the best point."""
    columns = interference_columns(gains, cfg)
    high = cfg.max_power_w / cfg.cluster_power_w
    lo, hi = np.zeros(2), np.full(2, high)
    best, value = None, -np.inf
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], points + 1)[1:] for i in range(2)]
        for s1 in axes[0]:
            for s2 in axes[1]:
                ee = efficiency_at(gains, cfg, np.array([s1, s2]), columns, attainable)
                if ee > value:
                    best, value = np.array([s1, s2]), ee
        width = 2.0 * (hi - lo) / points
        lo, hi = np.maximum(best - width, 0.0), np.minimum(best + width, high)
    return value


@pytest.mark.parametrize("attainable", [True, False])
def test_totals_search_matches_totals_grid(attainable):
    # (b) Stage 1's efficiency against an exhaustive (s1, s2) grid at I = 2,
    # at a solver-free attainable floor and at an unattainable 10 dB floor
    for seed in range(4):
        cfg, gains = two_cluster_draw(seed, None if attainable else 10.0)
        result = allocate_power(gains, cfg)
        assert result.feasible == attainable
        oracle = grid_optimum(gains, cfg, attainable)
        assert result.ee >= oracle * (1 - 1e-6), seed
        assert result.ee <= oracle * (1 + 1e-4), seed


def coordinate_search(gains, cfg, start, columns, points=16, sweeps=30):
    """Coordinate ascent over the totals: per total, a grid over the budget
    and a golden-section search in the best grid cell."""
    high = cfg.max_power_w / cfg.cluster_power_w
    s = start.copy()
    value = efficiency_at(gains, cfg, s, columns, True)
    ratio = (np.sqrt(5.0) - 1.0) / 2.0

    def along(i, v):
        trial = s.copy()
        trial[i] = v
        return efficiency_at(gains, cfg, trial, columns, True)

    for _ in range(sweeps):
        before = value
        for i in range(s.size):
            grid = np.linspace(0.0, high, points + 1)[1:]
            values = [along(i, v) for v in grid]
            k = int(np.argmax(values))
            lo, hi = grid[max(k - 1, 0)] if k else 0.0, grid[min(k + 1, points - 1)]
            for _ in range(40):
                a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                if along(i, a) >= along(i, b):
                    hi = b
                else:
                    lo = a
            for v in (0.5 * (lo + hi), grid[k], s[i]):
                if along(i, v) > value:
                    s[i], value = v, along(i, v)
        if value <= before * (1 + 1e-10):
            break
    return value


@pytest.mark.slow
def test_stage1_within_one_percent_of_multistart_search():
    # (c) I = 5, ZF draws at a solver-free attainable floor: Stage 1 comes
    # within 1% of the best of several coordinate searches over the totals
    worst = 0.0
    for seed in range(20):
        cfg, *_, gains = attainable_floor_scenario(seed, random_beams=False)
        columns = interference_columns(gains, cfg)
        high = cfg.max_power_w / cfg.cluster_power_w
        starts = [np.full(5, f * high) for f in (1.0, 0.3, 0.1)]
        oracle = max(coordinate_search(gains, cfg, s, columns) for s in starts
                     if np.isfinite(efficiency_at(gains, cfg, s, columns, True)))
        result = allocate_power(gains, cfg)
        assert result.feasible
        worst = max(worst, (oracle - result.ee) / oracle)
    assert worst <= 0.01, worst
