import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma import sdp
from irsnoma.beamforming import build_zf_beamformers
from irsnoma.channel import effective_channel, link_gains, sinr
from irsnoma.clustering import random_plan
from irsnoma.config import SystemConfig, db_to_linear
from irsnoma.power_allocation import allocate_power
from irsnoma.reflection import (dc_linearize, evaluate_reflection,
                                exact_rank_penalty, lift_user_matrices,
                                optimize_reflection, sinr_trace_matrices)

from conftest import attainable_floor_scenario, build_scenario

ULP = np.finfo(float).eps


def _random_psd(rng, n, diag_cap=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return mat * (diag_cap * rng.random() / np.real(np.diag(mat)).max())


class TestLifting:
    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            omega = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            b = np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
            direct = abs(np.vdot(b, omega)) ** 2
            lifted = np.real(np.trace(np.outer(b, b.conj())
                                      @ np.outer(omega, omega.conj())))
            assert abs(direct - lifted) < 1e-10 * max(direct, 1.0)

    def test_lift_shapes_and_rank(self):
        cfg, _, channels, plan, beams, _ = build_scenario(1)
        lifts = lift_user_matrices(channels, plan, beams)
        i_cl, k_us = cfg.num_clusters, cfg.users_per_cluster
        assert lifts.shape == (i_cl, k_us, i_cl, cfg.num_irs_elements,
                               cfg.num_irs_elements)
        svals = np.linalg.svd(lifts[0, 0, 0], compute_uv=False)
        assert svals[1] <= 1e-12 * svals[0]

    def test_null_user_gives_zero_matrix(self):
        cfg, _, channels, plan, beams, _ = build_scenario(2)
        lifts = lift_user_matrices(channels, plan, beams)
        # strongest users' lifts through foreign beams are ZF-nulled at b0
        # only in the b0 direction, not as matrices; check an actual zero
        zero = np.zeros(cfg.num_irs_elements, dtype=complex)
        assert not np.outer(zero, zero.conj()).any()

    def test_trace_sinr_matches_vector_sinr(self):
        cfg, _, channels, plan, beams, gains = build_scenario(3)
        beta = np.full((cfg.num_clusters, cfg.users_per_cluster), 0.3)
        lifts = lift_user_matrices(channels, plan, beams)
        own, den = sinr_trace_matrices(lifts, beta, cfg)
        b0 = np.ones(cfg.num_irs_elements, dtype=complex)
        b_mat = np.outer(b0, b0.conj())
        num = (cfg.cluster_power_w * beta
               * np.einsum("ikab,ba->ik", own, b_mat).real)
        dval = np.einsum("ikab,ba->ik", den, b_mat).real + cfg.noise_power_w
        gamma_vec, _ = sinr(gains, beta, cfg)
        np.testing.assert_allclose(num / dval, gamma_vec, rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.sampled_from([4, 8, 16]),
           draw_seed=st.integers(0, 10**6))
    def test_trace_sinr_matches_vector_sinr_at_any_reflection(self, seed, n,
                                                              draw_seed):
        base = dataclasses.replace(SystemConfig(), num_irs_elements=n)
        cfg, _, channels, plan, beams, _ = build_scenario(seed, config=base)
        rng = np.random.default_rng(draw_seed)
        b = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        beta = rng.uniform(0.01, 1.0, (cfg.num_clusters, cfg.users_per_cluster))
        lifts = lift_user_matrices(channels, plan, beams)
        own, den = sinr_trace_matrices(lifts, beta, cfg)
        b_mat = np.outer(b, b.conj())
        num = (cfg.cluster_power_w * beta
               * np.einsum("ikab,ba->ik", own, b_mat).real)
        dval = np.einsum("ikab,ba->ik", den, b_mat).real + cfg.noise_power_w
        _, gamma_vec, _ = evaluate_reflection(channels, plan, beams, beta, b, cfg)
        np.testing.assert_allclose(num / dval, gamma_vec, rtol=1e-9)


class TestDcLinearization:
    def _pieces(self, seed, eta=0.0):
        cfg, rng, channels, plan, beams, gains = build_scenario(seed)
        stage1 = allocate_power(gains, cfg)
        lifts = lift_user_matrices(channels, plan, beams)
        own, den = sinr_trace_matrices(lifts, stage1.beta, cfg)
        n = cfg.num_irs_elements
        anchor = _random_psd(np.random.default_rng(seed + 1), n) + 0.05 * np.eye(n)
        anchor *= 1.0 / max(np.real(np.diag(anchor)).max(), 1.0)
        pieces = dc_linearize(anchor, own, den, stage1, cfg, eta)
        return cfg, anchor, own, den, stage1, pieces

    def test_tight_at_anchor(self):
        _, anchor, own, den, stage1, pieces = self._pieces(0)
        rate = pieces.bandwidth * float(np.sum(
            pieces.zeta * (np.log2(pieces.num_anchor)
                           - np.log2(pieces.den_anchor)) + pieces.omega))
        assert pieces.value(anchor) == pytest.approx(rate + pieces.constant,
                                                     rel=1e-10)

    def test_majorization_of_denominator_log(self):
        cfg, anchor, own, den, stage1, pieces = self._pieces(1)
        rng = np.random.default_rng(7)
        n = anchor.shape[0]
        for _ in range(200):
            other = _random_psd(rng, n)
            den_other = (np.einsum("ikab,ba->ik", den, other).real
                         + cfg.noise_power_w)
            f2 = np.log2(den_other)
            f2bar = (np.log2(pieces.den_anchor)
                     + (den_other - pieces.den_anchor)
                     / (np.log(2.0) * pieces.den_anchor))
            assert np.all(f2 <= f2bar + 1e-10)

    def test_gradient_matches_finite_differences(self):
        cfg, anchor, own, den, stage1, pieces = self._pieces(2)
        rng = np.random.default_rng(11)
        n = anchor.shape[0]
        grad = pieces.gradient()
        for _ in range(20):
            delta = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            delta = 0.5 * (delta + delta.conj().T)
            delta /= np.linalg.norm(delta)
            h = 1e-6
            up = pieces.value(anchor + h * delta)
            down = pieces.value(anchor - h * delta)
            fd = (up - down) / (2 * h)
            analytic = float(np.real(np.einsum("ij,ji->", grad, delta)))
            assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_infeasible_anchor_rejected(self):
        cfg, anchor, own, den, stage1, _ = self._pieces(3)
        with pytest.raises(ValueError, match="anchor"):
            dc_linearize(np.zeros_like(anchor), own, den, stage1, cfg, 0.0)


class TestRankOnePenalty:
    def test_rank_one_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        lift = np.outer(v, v.conj())
        assert exact_rank_penalty(lift) == pytest.approx(0.0, abs=1e-10)

    def test_identity_penalty(self):
        assert exact_rank_penalty(np.eye(4, dtype=complex)) == pytest.approx(3.0)

    @staticmethod
    def _linearizer(seed):
        """Dimension and a minorant builder for one drawn scenario."""
        cfg, _, channels, plan, beams, gains = build_scenario(seed)
        stage1 = allocate_power(gains, cfg)
        lifts = lift_user_matrices(channels, plan, beams)
        own, den = sinr_trace_matrices(lifts, stage1.beta, cfg)
        return cfg.num_irs_elements, lambda anchor: dc_linearize(
            anchor, own, den, stage1, cfg, 0.0)

    def test_surrogate_dominates_exact(self):
        n, linearize = self._linearizer(1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            anchor = _random_psd(rng, n)
            other = _random_psd(rng, n)
            assert (linearize(anchor).penalty(other)
                    >= exact_rank_penalty(other) - 1e-9)

    def test_surrogate_tight_at_anchor(self):
        n, linearize = self._linearizer(2)
        anchor = _random_psd(np.random.default_rng(2), n)
        assert linearize(anchor).penalty(anchor) == pytest.approx(
            exact_rank_penalty(anchor), abs=1e-10)


class TestOptimizeReflection:
    def test_single_element_any_phase(self):
        cfg = dataclasses.replace(
            SystemConfig(), num_irs_elements=1, num_clusters=2, total_users=6,
            num_bs_antennas=4, min_sinr=1e-6)
        cfg2, rng, channels, plan, beams, gains = build_scenario(5, config=cfg)
        stage1 = allocate_power(gains, cfg2)
        result = optimize_reflection(channels, plan, beams, stage1, cfg2)
        assert abs(abs(result.reflection[0]) - 1.0) <= ULP
        assert result.ee == pytest.approx(result.ee_initial, rel=1e-9)

    def test_never_worse_than_start(self):
        for seed in range(6):
            cfg, rng, channels, plan, beams, gains = attainable_floor_scenario(
                seed, random_beams=True)
            stage1 = allocate_power(gains, cfg)
            result = optimize_reflection(channels, plan, beams, stage1, cfg)
            assert result.ee >= result.ee_initial * (1 - 1e-12)
            assert np.abs(np.abs(result.reflection) - 1.0).max() <= ULP

    def test_penalty_driven_to_rank_one_when_floor_attainable(self):
        hits = 0
        runs = 0
        for seed in range(8):
            cfg, rng, channels, plan, beams, gains = attainable_floor_scenario(
                seed, random_beams=True)
            stage1 = allocate_power(gains, cfg)
            if not stage1.feasible:
                continue
            result = optimize_reflection(channels, plan, beams, stage1, cfg)
            runs += 1
            trace = float(np.real(np.trace(result.lifted)))
            hits += result.exact_penalty < 1e-3 * trace
        assert runs > 0
        assert hits == runs

    def test_zero_forced_start_is_kept(self):
        # beams nulled at the starting reflection make it a sharp optimum;
        # on these attainable ZF draws the first solve stalls at the lift of
        # b0, and the stage must return b0 and its efficiency unchanged
        b0 = np.ones(16, dtype=complex)
        for seed in (0, 3, 7, 9, 11, 12, 14, 18, 19):
            cfg, _, channels, plan, beams, gains = attainable_floor_scenario(
                seed, random_beams=False)
            stage1 = allocate_power(gains, cfg)
            result = optimize_reflection(channels, plan, beams, stage1, cfg)
            assert result.iterations > 0 and not result.fallback, seed
            assert result.ee == stage1.ee, seed
            assert np.array_equal(result.reflection, b0), seed

    def test_split_on_the_floor_reaches_the_solver(self):
        # Stage 1's certified split puts a SINR on the floor itself here
        # (rounded just below it); Stage 2 gates on the certificate, so it
        # still runs its loop and raises the efficiency
        base = dataclasses.replace(SystemConfig(), num_irs_elements=64,
                                   min_sinr=db_to_linear(-15.0))
        cfg, _, channels, plan, beams, gains = build_scenario(
            38, config=base, random_beams=True)
        stage1 = allocate_power(gains, cfg)
        assert stage1.feasible and stage1.gamma.min() <= cfg.min_sinr
        result = optimize_reflection(channels, plan, beams, stage1, cfg)
        assert result.iterations > 0
        assert result.ee >= result.ee_initial

    def test_floor_breaking_start_returned_without_solving(self):
        # at the reference floor b0 breaks the SINR floor on every draw;
        # Stage 2 must return it before any solver work
        def no_solver(*args, **kwargs):
            raise AssertionError("solver called on a floor-breaking start")

        base = dataclasses.replace(SystemConfig(), num_irs_elements=16)
        for seed in range(4):
            cfg, rng, channels, plan, beams, gains = build_scenario(seed,
                                                                    config=base)
            stage1 = allocate_power(gains, cfg)
            with mock.patch.object(sdp, "solve", no_solver), \
                    mock.patch.object(sdp, "_phase_one", no_solver):
                result = optimize_reflection(channels, plan, beams, stage1, cfg)
            b0 = np.ones(cfg.num_irs_elements, dtype=complex)
            assert result.fallback and result.iterations == 0
            assert np.array_equal(result.reflection, b0)
            assert np.array_equal(result.lifted, np.outer(b0, b0.conj()))
            assert result.ee == result.ee_initial
            gains0 = link_gains(effective_channel(channels.cascaded, b0),
                                plan.members, beams.vectors, check_order=False)
            _, psi0 = sinr(gains0, stage1.beta, cfg)
            assert np.array_equal(result.psi, psi0)

    def test_post_loop_fallback_returns_start(self):
        # this draw iterates, then no extracted candidate beats b0, so the
        # end-of-loop fallback must hand back b0 with its own values
        cfg, rng, channels, plan, beams, gains = attainable_floor_scenario(
            116, random_beams=True)
        stage1 = allocate_power(gains, cfg)
        result = optimize_reflection(channels, plan, beams, stage1, cfg)
        assert result.iterations > 0 and result.fallback
        b0 = np.ones(cfg.num_irs_elements, dtype=complex)
        assert np.array_equal(result.reflection, b0)
        assert result.ee == result.ee_initial
        gains0 = link_gains(effective_channel(channels.cascaded, b0),
                            plan.members, beams.vectors, check_order=False)
        _, psi0 = sinr(gains0, stage1.beta, cfg)
        assert np.array_equal(result.psi, psi0)

    def test_stage1_values_are_those_at_start(self):
        # Stage 2 takes ee, gamma and psi at b0 from Stage 1 instead of
        # recomputing them; they must be the b0 values bitwise
        base = dataclasses.replace(SystemConfig(), num_irs_elements=16)
        draws = [build_scenario(seed, config=base) for seed in range(3)]
        draws += [attainable_floor_scenario(seed, random_beams=rb)
                  for seed in range(3) for rb in (False, True)]
        b0 = np.ones(16, dtype=complex)
        for cfg, rng, channels, plan, beams, gains in draws:
            effective = effective_channel(channels.cascaded, b0)
            # the random-clustering baseline's plan and beams, as run_trial
            plan_r = random_plan(effective, cfg.num_clusters,
                                 cfg.users_per_cluster, rng)
            beams_r = build_zf_beamformers(effective[plan_r.members[:, -1]])
            gains_r = link_gains(effective, plan_r.members, beams_r.vectors)
            for plan_, beams_, gains_ in ((plan, beams, gains),
                                          (plan_r, beams_r, gains_r)):
                stage1 = allocate_power(gains_, cfg)
                ee0, gamma0, psi0 = evaluate_reflection(
                    channels, plan_, beams_, stage1.beta, b0, cfg)
                assert stage1.ee == ee0
                assert np.array_equal(stage1.gamma, gamma0)
                assert np.array_equal(stage1.psi, psi0)

    def test_surrogate_trace_monotone_for_fixed_eta(self):
        cfg, rng, channels, plan, beams, gains = attainable_floor_scenario(
            3, random_beams=True)
        stage1 = allocate_power(gains, cfg)
        result = optimize_reflection(channels, plan, beams, stage1, cfg)
        by_eta = {}
        for point in result.trace:
            by_eta.setdefault(point.eta, []).append(point.ee)
        for values in by_eta.values():
            assert np.all(np.diff(values) >= -1e-6 * max(1.0, abs(values[0])))


# (kind, N): at the reference floor the starting vector breaks the SINR
# floor, so Stage 2 returns it at once without solving; at an attainable
# floor with random beams it runs its loop wherever the starting vector
# meets the floor
_STAGE2_SOURCES = (("reference", 8), ("reference", 16),
                   ("attainable", 8), ("attainable", 16))


class TestStage2Properties:
    @settings(max_examples=10, deadline=None)
    @given(source=st.sampled_from(_STAGE2_SOURCES), seed=st.integers(0, 10**6))
    def test_result_invariants(self, source, seed):
        kind, n = source
        if kind == "reference":
            base = dataclasses.replace(SystemConfig(), num_irs_elements=n)
            cfg, rng, channels, plan, beams, gains = build_scenario(seed,
                                                                    config=base)
        else:
            cfg, rng, channels, plan, beams, gains = attainable_floor_scenario(
                seed, num_irs_elements=n, random_beams=True)
        stage1 = allocate_power(gains, cfg)
        result = optimize_reflection(channels, plan, beams, stage1, cfg)
        effective = effective_channel(channels.cascaded, result.reflection)
        gains_at = link_gains(effective, plan.members, beams.vectors,
                              check_order=False)
        _, psi = sinr(gains_at, stage1.beta, cfg)
        assert np.array_equal(result.psi, psi)
        assert np.abs(np.abs(result.reflection) - 1.0).max() <= ULP
        assert result.ee >= result.ee_initial * (1 - 1e-12)
        # a second call on the same inputs returns the same bits
        again = optimize_reflection(channels, plan, beams, stage1, cfg)
        for name in ("reflection", "lifted", "psi"):
            assert np.array_equal(getattr(again, name), getattr(result, name)), name
        for name in ("ee", "fallback", "converged", "iterations", "exact_penalty",
                     "trace"):
            assert getattr(again, name) == getattr(result, name), name
