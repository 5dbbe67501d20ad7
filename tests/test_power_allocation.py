import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsnoma import power_allocation
from irsnoma.channel import (LinkGains, cluster_rates_and_power,
                             energy_efficiency, sinr, stronger_tail)
from irsnoma.config import SystemConfig, db_to_linear
from irsnoma.power_allocation import (DualInfeasibleError, DualVariables,
                                      allocate_power, constraint_slacks,
                                      initial_coefficients, qos_power_repair,
                                      sca_coefficients, subgradient_update,
                                      surrogate_rates)

from conftest import attainable_floor_scenario, build_scenario

LN2 = np.log(2.0)


class TestScaBound:
    def test_unit_anchor_values(self):
        zeta, omega = sca_coefficients(np.array(1.0))
        assert zeta == pytest.approx(0.5, abs=1e-15)
        assert omega == pytest.approx(1.0, abs=1e-15)

    def test_tight_at_anchor(self):
        rng = np.random.default_rng(0)
        gamma0 = 10 ** rng.uniform(-3, 5, 1000)
        zeta, omega = sca_coefficients(gamma0)
        bound = zeta * np.log2(gamma0) + omega
        np.testing.assert_allclose(bound, np.log2(1 + gamma0), atol=1e-12)

    def test_dominated_by_true_rate(self):
        rng = np.random.default_rng(1)
        gamma0 = 10 ** rng.uniform(-3, 5, 1000)
        gamma = 10 ** rng.uniform(-3, 5, 1000)
        zeta, omega = sca_coefficients(gamma0)
        assert np.all(zeta * np.log2(gamma) + omega
                      <= np.log2(1 + gamma) + 1e-12)

    def test_nonpositive_anchor_rejected(self):
        with pytest.raises(ValueError):
            sca_coefficients(np.array([1.0, 0.0]))


@dataclasses.dataclass
class _Cluster:
    """One cluster's closed-form inputs, 1-D, with frozen duals."""

    beam_gain: np.ndarray    # (K,) weakest-first
    psi: np.ndarray          # (K,)
    beta: np.ndarray         # (K,) working coefficients
    zeta: np.ndarray         # (K,)
    rho: float
    power_dual: float
    qos_dual: np.ndarray     # (K,)
    sic_dual: np.ndarray     # (K-1,)


def _closed_form(ctx, cfg, beta=None):
    """Every coefficient after one sweep of the cluster from ``beta``."""
    beta = ctx.beta if beta is None else beta
    gains = LinkGains(own_beam=ctx.beam_gain[None, :], cross_beam=None,
                      channel_power=ctx.beam_gain[None, :])
    duals = DualVariables(power=np.array([ctx.power_dual]),
                          qos=ctx.qos_dual[None, :], sic=ctx.sic_dual[None, :])
    return power_allocation._sweep(gains, beta[None, :], ctx.psi[None, :],
                                   ctx.zeta[None, :], np.array([ctx.rho]),
                                   duals, cfg)[0]


def _single_cluster_context(seed, duals=None):
    """I = 1, K = 2 context with frozen duals for the closed-form oracle."""
    rng = np.random.default_rng(seed)
    g = np.sort(10.0 ** rng.uniform(-10, -8, 2))
    beta = np.array([0.3, 0.1])
    cfg = dataclasses.replace(
        SystemConfig(), num_clusters=1, users_per_cluster=2, total_users=2,
        num_bs_antennas=2, num_irs_elements=4,
        min_sinr=db_to_linear(-20.0))
    if duals is None:
        duals = (0.0, rng.uniform(0, 1e7, 2), rng.uniform(0, 1e6, 1))
    alpha, phi, ups = duals
    gains = LinkGains(own_beam=g[None, :], cross_beam=g[None, :, None],
                      channel_power=g[None, :])
    gamma, psi = sinr(gains, beta[None, :], cfg)
    zeta, omega = sca_coefficients(gamma)
    rho = float(surrogate_rates(gamma, zeta, omega, cfg.bandwidth_hz)[0]
                / (cfg.cluster_power_w * beta.sum() + cfg.circuit_power_w))
    ctx = _Cluster(beam_gain=g, psi=psi[0], beta=beta.copy(), zeta=zeta[0],
                   rho=rho, power_dual=alpha, qos_dual=phi, sic_dual=ups)
    return cfg, ctx, gains


def _lagrangian(beta, ctx, cfg):
    """Independent evaluation of the dual function being made stationary."""
    p = cfg.cluster_power_w
    g = ctx.beam_gain
    noise = cfg.noise_power_w
    d0 = p * g[0] * beta[1] + ctx.psi[0] + noise
    gamma = np.array([p * beta[0] * g[0] / d0,
                      p * beta[1] * g[1] / (ctx.psi[1] + noise)])
    rate = cfg.bandwidth_hz * np.sum(ctx.zeta * np.log2(gamma))
    power_term = ctx.rho * (p * beta.sum() + cfg.circuit_power_w)
    budget = ctx.power_dual * (cfg.max_power_w - p * beta.sum())
    qos = (ctx.qos_dual[0] * (p * beta[0] * g[0] - cfg.min_sinr * d0)
           + ctx.qos_dual[1] * (p * beta[1] * g[1]
                                - cfg.min_sinr * (ctx.psi[1] + noise)))
    sic = ctx.sic_dual[0] * (p * beta[0] * g[1] - p * beta[1] * g[1]
                             - cfg.sic_power_gap_w)
    return rate - power_term + budget + qos + sic


class TestClosedForm:
    def test_first_user_matches_direct_expression(self):
        cfg, ctx, _ = _single_cluster_context(0)
        p = cfg.cluster_power_w
        expected = (cfg.bandwidth_hz * ctx.zeta[0] / (LN2 * (
            (ctx.rho + ctx.power_dual) * p
            - ctx.qos_dual[0] * p * ctx.beam_gain[0]
            - ctx.sic_dual[0] * p * ctx.beam_gain[1])))
        assert _closed_form(ctx, cfg)[0] == pytest.approx(expected, rel=1e-12)

    def test_degenerate_duals_flagged(self):
        cfg, ctx, _ = _single_cluster_context(1)
        ctx.rho = 0.0
        ctx.qos_dual = np.zeros(2)
        ctx.sic_dual = np.zeros(1)
        with pytest.raises(DualInfeasibleError):
            _closed_form(ctx, cfg)

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_search_stationary_point(self, seed):
        cfg, ctx, _ = _single_cluster_context(seed)
        # user 0: the formula is explicit; grid the independent dual function
        beta0 = _closed_form(ctx, cfg)[0]
        lo, hi = beta0 * 0.2, beta0 * 5.0
        grid = np.linspace(lo, hi, 100_000)
        values = np.array([_lagrangian(np.array([b, ctx.beta[1]]), ctx, cfg)
                           for b in grid[:: 1000]])
        dense = grid[np.argmax([_lagrangian(np.array([b, ctx.beta[1]]),
                                            ctx, cfg)
                                for b in grid[:: 100]]) * 100]
        fine = np.linspace(max(lo, dense - (hi - lo) / 100),
                           dense + (hi - lo) / 100, 4000)
        best = fine[np.argmax([_lagrangian(np.array([b, ctx.beta[1]]),
                                           ctx, cfg) for b in fine])]
        assert beta0 == pytest.approx(best, rel=1e-3)
        assert values.max() >= values[0]

    def test_second_user_fixed_point_is_stationary(self):
        cfg, ctx, _ = _single_cluster_context(7)
        # solve the implicit relation by fixed point, then check the dual
        # function's derivative vanishes there (central difference); user 0's
        # closed form reads no coefficient, so the sweeps iterate user 1 alone
        beta = ctx.beta
        for _ in range(60):
            beta = _closed_form(ctx, cfg, beta)
        beta0, beta1 = beta
        h = beta1 * 1e-6
        up = _lagrangian(np.array([beta0, beta1 + h]), ctx, cfg)
        down = _lagrangian(np.array([beta0, beta1 - h]), ctx, cfg)
        slope = (up - down) / (2 * h)
        scale = abs(_lagrangian(np.array([beta0, beta1]), ctx, cfg)) / beta1
        assert abs(slope) / scale < 1e-4


def _scalar_sweep(g, psi, beta, zeta, rho, duals, cfg):
    """Reference sweep: the closed form written out one scalar at a time.

    Cluster by cluster, users weakest-first, every weaker-user term rebuilt
    for each user, each product in the order the batched sweep takes it.
    """
    p, bw, noise = cfg.cluster_power_w, cfg.bandwidth_hz, cfg.noise_power_w
    out = beta.copy()
    clusters, users = beta.shape
    for i in range(clusters):
        for k in range(users):
            sic_term = duals.sic[i, k] * p * g[i, k + 1] if k < users - 1 else 0.0
            denom = LN2 * ((rho[i] + duals.power[i]) * p
                           - duals.qos[i, k] * p * g[i, k] - sic_term)
            for z in range(k):
                d_z = p * g[i, z] * sum(out[i, z + 1:]) + psi[i, z] + noise
                denom += bw * zeta[i, z] * p * g[i, z] / d_z
                denom += LN2 * (duals.qos[i, z] * cfg.min_sinr * p * g[i, z]
                                + duals.sic[i, z] * p * g[i, z + 1])
            if denom <= 0.0:
                raise DualInfeasibleError(f"cluster {i}, user {k}")
            out[i, k] = bw * zeta[i, k] / denom
    return np.clip(out, 0.0, cfg.max_power_w / cfg.cluster_power_w)


class TestBatchedSweep:
    @settings(max_examples=200, deadline=None)
    @given(clusters=st.integers(1, 5), users=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1), dual_scale=st.floats(0.0, 1.5))
    @example(clusters=5, users=2, seed=0, dual_scale=1.5)
    def test_matches_per_cluster_loop(self, clusters, users, seed, dual_scale):
        rng = np.random.default_rng(seed)
        shape = (clusters, users)
        # non-unit power and bandwidth, which would hide a reordered product
        cfg = dataclasses.replace(SystemConfig(),
                                  min_sinr=10 ** rng.uniform(-2, 0.5),
                                  cluster_power_w=10 ** rng.uniform(-1, 1),
                                  bandwidth_hz=10 ** rng.uniform(0, 7))
        p = cfg.cluster_power_w
        g = np.sort(10 ** rng.uniform(-11, -7, shape), axis=1)
        psi = 10 ** rng.uniform(-15, -9, shape)
        beta = rng.uniform(0.0, 1.0, shape) / users
        zeta = rng.uniform(0.01, 1.0, shape)
        rho = 10 ** rng.uniform(-1, 2, clusters)
        # multipliers near rho / (P g) put the denominators near zero
        duals = DualVariables(
            power=rng.uniform(0.0, 1.0, clusters) * rho,
            qos=dual_scale * rng.uniform(0.0, 1.0, shape) * rho[:, None] / (p * g),
            sic=(dual_scale * rng.uniform(0.0, 1.0, (clusters, users - 1))
                 * rho[:, None] / (p * g[:, 1:])))
        cross = np.zeros((clusters, users, clusters))
        cross[np.arange(clusters), :, np.arange(clusters)] = g
        gains = LinkGains(own_beam=g, cross_beam=cross, channel_power=g)
        try:
            expected = _scalar_sweep(g, psi, beta, zeta, rho, duals, cfg)
        except DualInfeasibleError:
            with pytest.raises(DualInfeasibleError):
                power_allocation._sweep(gains, beta, psi, zeta, rho, duals, cfg)
            return
        batched = power_allocation._sweep(gains, beta, psi, zeta, rho, duals,
                                          cfg)
        assert np.array_equal(batched, expected)


class TestSweepGuard:
    def test_vanishing_coefficient_is_dual_infeasible(self):
        # an infinite budget multiplier drives every coefficient to 0, which
        # no rate bound can be expanded at
        cfg, ctx, _ = _single_cluster_context(
            0, duals=(np.inf, np.zeros(2), np.zeros(1)))
        with pytest.raises(DualInfeasibleError):
            _closed_form(ctx, cfg)

    def test_loop_retries_a_vanishing_sweep(self):
        # the first dual step blows the budget multiplier up; the loop must
        # halve the step and go on, as for a nonpositive denominator
        cfg, *_, gains = build_scenario(0)
        update = power_allocation.subgradient_update
        calls = 0

        def blown_first_step(duals, *args):
            nonlocal calls
            calls += 1
            out = update(duals, *args)
            if calls == 1:
                out.power[:] = np.inf
            return out

        with mock.patch.object(power_allocation, "subgradient_update",
                               blown_first_step):
            result = allocate_power(gains, cfg)
        assert calls > result.iterations
        assert np.isfinite(result.ee) and np.all(result.beta > 0.0)


class TestSubgradient:
    def test_satisfied_constraints_keep_duals_at_zero(self):
        duals = DualVariables.zeros(5, 2)
        cfg, _, _, _, _, gains = build_scenario(0)
        beta = initial_coefficients(gains, cfg)
        slacks = constraint_slacks(gains, beta, cfg)
        slacks.qos[:] = np.abs(slacks.qos)   # force satisfaction
        updated = subgradient_update(duals, slacks,
                                     np.full(5, 0.1), np.full((5, 2), 0.1),
                                     np.full((5, 1), 0.1))
        assert not updated.power.any()
        assert not updated.qos.any()
        assert not updated.sic.any()

    def test_power_violation_raises_budget_dual(self):
        cfg, _, _, _, _, gains = build_scenario(1)
        beta = np.full((5, 2), 2.0)   # far beyond the budget
        slacks = constraint_slacks(gains, beta, cfg)
        duals = DualVariables.zeros(5, 2)
        updated = subgradient_update(duals, slacks, np.full(5, 0.1),
                                     np.zeros((5, 2)), np.zeros((5, 1)))
        assert np.all(updated.power > 0)

    def test_duals_settle_on_feasible_fixed_problem(self):
        cfg, _, _, _, _, gains = build_scenario(2)
        beta = initial_coefficients(gains, cfg)
        repaired = qos_power_repair(gains, beta, cfg)
        if repaired is not None:
            beta = repaired.beta
        slacks = constraint_slacks(gains, beta, cfg)
        feasible = (slacks.power.min() > 0 and slacks.sic.min() > 0
                    and slacks.qos.min() > 0)
        duals = DualVariables(power=np.full(5, 0.5),
                              qos=np.abs(np.random.default_rng(0).normal(
                                  0.1, 0.05, (5, 2))),
                              sic=np.full((5, 1), 0.2))
        prev = duals.copy()
        change = np.inf
        for t in range(1, 501):
            duals = subgradient_update(
                duals, slacks, np.full(5, 1e-2 / np.sqrt(t)),
                np.full((5, 2), 1e-2 / np.sqrt(t)) / max(slacks.qos.min(), 1e-12),
                np.full((5, 1), 1e-2 / np.sqrt(t)) / max(slacks.sic.min(), 1e-12))
            change = max(np.abs(duals.power - prev.power).max(),
                         np.abs(duals.qos - prev.qos).max(),
                         np.abs(duals.sic - prev.sic).max())
            prev = duals.copy()
        if feasible:
            assert change < 1e-6


class TestAllocatePower:
    def test_warm_start_budget(self):
        cfg, _, _, _, _, gains = build_scenario(3)
        beta = initial_coefficients(gains, cfg)
        np.testing.assert_allclose(beta.sum(axis=1), 0.9, rtol=1e-12)
        assert np.all(beta[:, 0] >= beta[:, 1])   # weak users get more

    def test_trace_monotone_everywhere(self):
        for seed in range(10):
            cfg, _, _, _, _, gains = build_scenario(seed)
            result = allocate_power(gains, cfg)
            ees = [tp.ee for tp in result.trace]
            rhos = np.array([tp.rho for tp in result.trace])
            assert np.all(np.diff(ees) >= -1e-9)
            assert np.all(np.diff(rhos, axis=0) >= -1e-9)

    def test_residual_vanishes_on_feasible_instances(self):
        for seed in range(10):
            cfg, _, _, _, _, gains = build_scenario(seed)
            probe = allocate_power(gains, cfg)
            gamma, _ = sinr(gains, probe.beta, cfg)
            cfg = dataclasses.replace(cfg, min_sinr=0.5 * float(gamma.min()))
            result = allocate_power(gains, cfg)
            assert result.residual <= 1e-4
            assert result.converged

    def test_cut_loop_is_not_converged(self):
        cfg, _, _, _, _, gains = build_scenario(0)
        # every step retry exhausted before the first sweep
        result = allocate_power(gains, cfg, max_retries=0)
        assert result.converged is False
        assert result.residual == np.inf
        # iteration cap reached before either stop test can fire
        result = allocate_power(gains, cfg, max_iterations=2)
        assert result.converged is False

    def test_no_stop_at_constraint_breaking_dual_iterate(self):
        # single-cluster instance whose one-sweep Lagrangian change drops
        # below tolerance while the dual iterate still breaks the decode gap
        base = dataclasses.replace(
            SystemConfig(), num_clusters=1, users_per_cluster=2,
            total_users=2, num_bs_antennas=2, num_irs_elements=4,
            min_sinr=db_to_linear(-20.0))
        cfg, _, _, _, _, gains = build_scenario(0, config=base)
        result = allocate_power(gains, cfg)
        tight = allocate_power(gains, cfg, max_iterations=1000,
                               tolerance=1e-12, stall_limit=1000)
        assert result.converged and result.feasible
        assert abs(result.ee - tight.ee) <= 1e-3 * tight.ee

    def test_feasible_floor_is_enforced(self):
        # at an attainable floor the returned split satisfies every family
        cfg0, _, _, _, _, gains = build_scenario(4)
        stage = allocate_power(gains, cfg0)
        gamma, _ = sinr(gains, stage.beta, cfg0)
        cfg = dataclasses.replace(cfg0, min_sinr=0.5 * float(gamma.min()))
        result = allocate_power(gains, cfg)
        assert result.feasible
        gamma, _ = sinr(gains, result.beta, cfg)
        assert np.all(gamma >= cfg.min_sinr * (1 - 1e-3))
        assert np.all(cfg.cluster_power_w * result.beta.sum(axis=1)
                      <= cfg.max_power_w * (1 + 1e-6))

    def test_beats_uniform_split_on_most_instances(self):
        wins = 0
        total = 0
        for seed in range(40):
            cfg, _, _, _, _, gains = build_scenario(seed)
            result = allocate_power(gains, cfg)
            uniform = np.full_like(result.beta,
                                   cfg.max_power_w / (cfg.cluster_power_w
                                                      * 2 * 1.1))
            gamma_u, _ = sinr(gains, uniform, cfg)
            total += 1
            wins += result.ee >= energy_efficiency(gamma_u, uniform, cfg)
        assert wins / total >= 0.95

    def test_repaired_split_evaluated_once(self):
        # the repair hands its evaluated point to the loop as the first
        # dual iterate, so no split is evaluated twice in a row
        for seed, random_beams in ((0, False), (1, False), (4, True)):
            cfg, *_, gains = attainable_floor_scenario(seed,
                                                       random_beams=random_beams)
            assert qos_power_repair(gains, initial_coefficients(gains, cfg),
                                    cfg) is not None
            evaluate = power_allocation._evaluate
            betas = []

            def counted_evaluate(gains, beta, config):
                betas.append(beta.copy())
                return evaluate(gains, beta, config)

            with mock.patch.object(power_allocation, "_evaluate",
                                   counted_evaluate):
                allocate_power(gains, cfg)
            assert len(betas) >= 2
            assert not any(np.array_equal(a, b)
                           for a, b in zip(betas, betas[1:]))

    def test_decode_order_shaping_on_unattainable_floor(self):
        # reference floor is interference-unattainable at the start: the
        # returned split must still respect the decode-order power ratio
        cfg, _, _, _, _, gains = build_scenario(5)
        result = allocate_power(gains, cfg)
        if not result.feasible:
            ratios = result.beta[:, 0] / result.beta[:, 1]
            assert np.all(ratios >= cfg.min_sinr)


def _last_gain(result):
    """Iteration whose point last raised the running best (0: none did)."""
    ees = [tp.ee for tp in result.trace]
    # the entry of iteration j holds the best after iteration j - 1
    return max((tp.iteration - 1 for tp, before in zip(result.trace[1:], ees)
                if tp.ee > before), default=0)


class TestStopRule:
    def test_unattainable_floor_converges_in_a_few_iterations(self):
        # ZF draws at the reference floor have no floor-respecting split;
        # the loop stops once the incumbent stops improving
        for seed in range(10):
            cfg, *_, gains = build_scenario(seed)
            result = allocate_power(gains, cfg, max_iterations=12)
            assert result.feasible is False
            assert result.converged is True

    def test_unattainable_floor_stops_three_after_last_gain(self):
        for seed in range(10):
            cfg, *_, gains = build_scenario(seed)
            result = allocate_power(gains, cfg)
            assert not result.feasible
            assert result.iterations == _last_gain(result) + 3

    def test_attainable_floor_runs_to_stall_limit(self):
        # floor-respecting incumbents keep the residual test, which these
        # ZF draws never pass, so the stall limit ends the loop
        for seed in range(3):
            cfg, *_, gains = attainable_floor_scenario(seed, random_beams=False)
            for stall_limit in (10, 25):
                result = allocate_power(gains, cfg, stall_limit=stall_limit)
                assert result.feasible and result.converged
                assert result.iterations == _last_gain(result) + stall_limit


def test_floor_respecting_stage1_bytes_pinned():
    # the 3 dB pin in test_experiments never reads the residual: no split
    # respects that floor. On these draws the incumbent respects the floor,
    # so the residual decides the stop. The digest was re-recorded when the
    # ZF beams moved in their last bits (one pseudo-inverse); a change that
    # moves these bytes on purpose updates it
    digest = hashlib.sha256()
    for random_beams in (True, False):
        for seed in range(20):
            cfg, *_, gains = attainable_floor_scenario(seed, random_beams=random_beams)
            result = allocate_power(gains, cfg)
            digest.update(repr((result.iterations, result.converged,
                                repr(result.residual), repr(result.ee))).encode())
            digest.update(result.beta.tobytes())
    assert digest.hexdigest() == (
        "6bb4f8e36c427d145ec77c670fe0e442a4f9450aad85e483357b7f5675e04ab8")


# (kind, N) at the reference floor, (kind, random_beams) at an attainable one
_SOURCES = (("reference", 8), ("reference", 16),
            ("attainable", False), ("attainable", True))


def _stage1_draw(source, seed):
    kind, option = source
    if kind == "reference":
        base = dataclasses.replace(SystemConfig(), num_irs_elements=option)
        cfg, *_, gains = build_scenario(seed, config=base)
    else:
        cfg, *_, gains = attainable_floor_scenario(seed, random_beams=option)
    return cfg, gains


class TestStage1Properties:
    @settings(max_examples=40, deadline=None)
    @given(source=st.sampled_from(_SOURCES), seed=st.integers(0, 10**6),
           max_iterations=st.integers(1, 100),
           max_retries=st.sampled_from([0, 1, 8]))
    def test_invariants(self, source, seed, max_iterations, max_retries):
        cfg, gains = _stage1_draw(source, seed)
        sweep = power_allocation._sweep
        sweeps_taken = 0

        def counted_sweep(*args):
            nonlocal sweeps_taken
            out = sweep(*args)
            sweeps_taken += 1
            return out

        with mock.patch.object(power_allocation, "_sweep", counted_sweep):
            result = allocate_power(gains, cfg, max_iterations=max_iterations,
                                    max_retries=max_retries)
        ees = np.array([tp.ee for tp in result.trace])
        assert np.all(np.diff(ees) >= 0.0)
        gamma, psi = sinr(gains, result.beta, cfg)
        assert result.ee == energy_efficiency(gamma, result.beta, cfg)
        assert np.array_equal(result.psi, psi)
        zeta, omega = sca_coefficients(gamma)
        _, powers = cluster_rates_and_power(gamma, result.beta, cfg)
        rho = surrogate_rates(gamma, zeta, omega, cfg.bandwidth_hz) / powers
        assert all(np.array_equal(got, want) for got, want in (
            (result.rho, rho), (result.zeta, zeta), (result.omega, omega)))
        assert result.iterations <= max_iterations
        assert (result.residual == np.inf) == (sweeps_taken == 0)


class TestFusedPoint:
    @settings(max_examples=60, deadline=None)
    @given(source=st.sampled_from(_SOURCES), seed=st.integers(0, 10**6),
           scale=st.floats(0.05, 3.0), power=st.floats(0.1, 10.0),
           circuit=st.floats(0.1, 10.0), bandwidth=st.floats(0.5, 2e7))
    def test_matches_public_path(self, source, seed, scale, power, circuit,
                                 bandwidth):
        # the loop's one-pass evaluation must give, bit for bit, what the
        # public functions compute at the same split; the defaults' unit
        # powers and bandwidth would hide a reordered product
        cfg, gains = _stage1_draw(source, seed)
        cfg = dataclasses.replace(cfg, cluster_power_w=power,
                                  circuit_power_w=circuit,
                                  bandwidth_hz=bandwidth)
        rng = np.random.default_rng(seed)
        beta = scale * rng.uniform(1e-3, 1.0, gains.own_beam.shape)
        point = power_allocation._evaluate(gains, beta, cfg)

        gamma, psi = sinr(gains, beta, cfg)
        den = (cfg.cluster_power_w * stronger_tail(beta) * gains.own_beam
               + psi + cfg.noise_power_w)
        slacks = constraint_slacks(gains, beta, cfg)
        zeta, omega = sca_coefficients(gamma)
        rbar = surrogate_rates(gamma, zeta, omega, cfg.bandwidth_hz)
        _, powers = cluster_rates_and_power(gamma, beta, cfg)
        radiated = cfg.cluster_power_w * beta.sum(axis=1)
        violations = np.array([
            max(0.0, float(np.max(radiated / cfg.max_power_w - 1.0))),
            max(0.0, float(np.max(1.0 - gamma / cfg.min_sinr, initial=0.0))),
            max(0.0, float(np.max(-slacks.sic / cfg.sic_power_gap_w,
                                  initial=0.0)))])
        assert all(np.array_equal(got, want) for got, want in (
            (point.beta, beta), (point.gamma, gamma), (point.psi, psi),
            (point.log_gamma, np.log2(gamma)), (point.den, den),
            (point.slacks.power, slacks.power), (point.slacks.qos, slacks.qos),
            (point.slacks.sic, slacks.sic), (point.violations, violations),
            (point.zeta, zeta), (point.omega, omega), (point.rbar, rbar),
            (point.powers, powers), (point.rho, rbar / powers)))
        assert point.ee == energy_efficiency(gamma, beta, cfg)
        assert point.feasible == bool(np.all(violations <= power_allocation._CAPS))


def _stage1_wide_draws():
    """260 Stage-1 inputs: reference-floor ZF draws and attainable floors."""
    for n in (16, 64):
        base = dataclasses.replace(SystemConfig(), num_irs_elements=n)
        for seed in range(100):
            cfg, *_, gains = build_scenario(seed, config=base)
            yield cfg, gains
    for random_beams in (False, True):
        for seed in range(30):
            cfg, *_, gains = attainable_floor_scenario(seed, random_beams=random_beams)
            yield cfg, gains


def test_stage1_wide_bytes_pinned():
    # allocate_power's split, SINRs, interference, scalar fields and trace,
    # on the reference floor (where every draw is unattainable) and on
    # attainable floors under ZF and random beams. Re-recorded when the ZF
    # beams moved in their last bits (one pseudo-inverse); a change that
    # moves these bytes on purpose updates the digest
    digest = hashlib.sha256()
    for cfg, gains in _stage1_wide_draws():
        result = allocate_power(gains, cfg)
        for array in (result.beta, result.gamma, result.psi):
            digest.update(array.tobytes())
        digest.update(repr((repr(result.ee), result.iterations, result.converged,
                            result.feasible, repr(result.residual))).encode())
        for tp in result.trace:
            digest.update(repr((tp.iteration, repr(tp.ee))).encode())
            digest.update(tp.rho.tobytes())
    assert digest.hexdigest() == (
        "fdeee2352a6dad6010ed92bce63dc5cfdffc81defa956eb8e6d94cf2bf23eda4")


def test_stage1_nine_clusters_bytes_pinned():
    # the wide pin's draws all have I = 5, and below 8 terms NumPy sums
    # left to right; from 8 terms on it sums pairwise. Nine clusters put
    # every sum over clusters on the pairwise path, so a reduction that
    # changes its order moves these bytes (a left-to-right Python sum of
    # the cluster ratios passes the I = 5 pins and fails this one).
    # Recorded under 1 and 2 BLAS threads
    digest = hashlib.sha256()
    for users in (2, 3):
        base = dataclasses.replace(SystemConfig(), num_clusters=9,
                                   num_bs_antennas=10, users_per_cluster=users)
        for seed in range(30):
            cfg, *_, gains = build_scenario(seed, config=base)
            result = allocate_power(gains, cfg)
            for array in (result.beta, result.gamma, result.psi):
                digest.update(array.tobytes())
            digest.update(repr((repr(result.ee), result.iterations, result.converged,
                                result.feasible, repr(result.residual))).encode())
            for tp in result.trace:
                digest.update(repr((tp.iteration, repr(tp.ee))).encode())
                digest.update(tp.rho.tobytes())
    assert digest.hexdigest() == (
        "f9c762b2d89fd5159ad1630ecd0de40e54838c11e34d6172f594de7bb0ce9151")
