import collections
import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma import experiments, sdp
from irsnoma.beamforming import build_zf_beamformers
from irsnoma.channel import effective_channel, link_gains, sinr
from irsnoma.clustering import random_plan
from irsnoma.config import SystemConfig, db_to_linear
from irsnoma.power_allocation import allocate_power
from irsnoma.reflection import (evaluate_reflection, exact_rank_penalty,
                                floor_constraints, optimize_reflection,
                                sca_coefficients, sinr_lifts, surrogate_problem)

from conftest import attainable_floor_scenario, build_scenario

ULP = np.finfo(float).eps


def _random_psd(rng, n, diag_cap=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return mat * (diag_cap * rng.random() / np.real(np.diag(mat)).max())


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
        cfg, _, cascaded, plan, beams, _ = build_scenario(1)
        beta = np.full((cfg.num_clusters, cfg.users_per_cluster), 0.3)
        lifted = sinr_lifts(cascaded, plan, beams, beta, cfg)
        n = cfg.num_irs_elements
        for stack in lifted:
            assert stack.shape == (cfg.num_clusters, cfg.users_per_cluster, n, n)
        svals = np.linalg.svd(lifted[0][0, 0], compute_uv=False)
        assert svals[1] <= 1e-12 * svals[0]

    def test_null_user_gives_zero_matrix(self):
        # a user whose cascaded channel is zero sees nothing through any
        # beam: its own, numerator and denominator lifts are all zero
        cfg, _, cascaded, plan, beams, _ = build_scenario(2)
        beta = np.full((cfg.num_clusters, cfg.users_per_cluster), 0.3)
        nulled = cascaded.copy()
        nulled[plan[1, 0]] = 0.0
        for stack in sinr_lifts(nulled, plan, beams, beta, cfg):
            assert not stack[1, 0].any()
            assert stack[0, 0].any()

    def test_trace_sinr_matches_vector_sinr(self):
        cfg, _, cascaded, plan, beams, gains = build_scenario(3)
        beta = np.full((cfg.num_clusters, cfg.users_per_cluster), 0.3)
        own, _, den = sinr_lifts(cascaded, plan, beams, beta, cfg)
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
        cfg, _, cascaded, plan, beams, _ = build_scenario(seed, config=base)
        rng = np.random.default_rng(draw_seed)
        b = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        beta = rng.uniform(0.01, 1.0, (cfg.num_clusters, cfg.users_per_cluster))
        own, _, den = sinr_lifts(cascaded, plan, beams, beta, cfg)
        b_mat = np.outer(b, b.conj())
        num = (cfg.cluster_power_w * beta
               * np.einsum("ikab,ba->ik", own, b_mat).real)
        dval = np.einsum("ikab,ba->ik", den, b_mat).real + cfg.noise_power_w
        _, gamma_vec, _ = evaluate_reflection(cascaded, plan, beams, beta, b, cfg)
        np.testing.assert_allclose(num / dval, gamma_vec, rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.sampled_from([4, 8, 16]),
           draw_seed=st.integers(0, 10**6), quantile=st.floats(0.05, 0.95))
    def test_floor_stack_holds_exactly_where_the_sinr_floor_does(
            self, seed, n, draw_seed, quantile):
        # every floor matrix has unit Frobenius norm, and b b^H meets floor s
        # exactly when user s's vector-domain SINR at b meets the floor; the
        # floor sits among the users' SINRs so that both verdicts occur
        base = dataclasses.replace(SystemConfig(), num_irs_elements=n)
        cfg, _, cascaded, plan, beams, _ = build_scenario(seed, config=base)
        rng = np.random.default_rng(draw_seed)
        b = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        beta = rng.uniform(0.01, 1.0, (cfg.num_clusters, cfg.users_per_cluster))
        _, gamma, _ = evaluate_reflection(cascaded, plan, beams, beta, b, cfg)
        gamma = gamma.reshape(-1)
        cfg = dataclasses.replace(cfg, min_sinr=float(np.quantile(gamma, quantile)))
        _, num, den = sinr_lifts(cascaded, plan, beams, beta, cfg)
        mats, bounds = floor_constraints(num, den, cfg)
        np.testing.assert_allclose(np.linalg.norm(mats, axis=(1, 2)), 1.0, rtol=1e-12)
        met = np.einsum("sab,ba->s", mats, np.outer(b, b.conj())).real >= bounds
        away = np.abs(gamma / cfg.min_sinr - 1.0) > 1e-9
        assert np.array_equal(met[away], (gamma >= cfg.min_sinr)[away])


def summed_rate(num, den, b_mat, cfg):
    """R(B): bandwidth times the summed log2(1 + gamma) of the lifted SINRs."""
    gamma = (np.einsum("ikab,ba->ik", num, b_mat).real
             / (np.einsum("ikab,ba->ik", den, b_mat).real + cfg.noise_power_w))
    return cfg.bandwidth_hz * float(np.sum(np.log2(1.0 + gamma)))


def _unit_hermitian(rng, n):
    delta = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    delta = 0.5 * (delta + delta.conj().T)
    return delta / np.linalg.norm(delta)


class TestDcLinearization:
    def _surrogate(self, seed, eta=0.0):
        cfg, rng, cascaded, plan, beams, gains = build_scenario(seed)
        stage1 = allocate_power(gains, cfg)
        _, num, den = sinr_lifts(cascaded, plan, beams, stage1.beta, cfg)
        n = cfg.num_irs_elements
        anchor = _random_psd(np.random.default_rng(seed + 1), n) + 0.05 * np.eye(n)
        anchor *= 1.0 / max(np.real(np.diag(anchor)).max(), 1.0)
        problem, grad = surrogate_problem(anchor, num, den, None, cfg, eta)
        return cfg, anchor, num, den, problem, grad

    def test_tight_at_anchor(self):
        # the minorant touches the summed rate at the anchor: the returned
        # rate gradient is the rate's own gradient there
        cfg, anchor, num, den, _, grad = self._surrogate(0)
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            delta = _unit_hermitian(rng, anchor.shape[0])
            fd = (summed_rate(num, den, anchor + h * delta, cfg)
                  - summed_rate(num, den, anchor - h * delta, cfg)) / (2 * h)
            assert sdp.frob(grad, delta) == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_majorization_of_denominator_log(self):
        # at eta = 0 the linear part is -sum_ik bw zeta_ik d_ik(B) / (ln2 d_ik(B_t)),
        # the tangent of the concave sum -sum_ik bw zeta_ik log2 d_ik(B) at B_t
        cfg, anchor, num, den, problem, _ = self._surrogate(1)

        def dval(b_mat):
            return np.einsum("ikab,ba->ik", den, b_mat).real + cfg.noise_power_w

        zeta, _ = sca_coefficients(
            np.einsum("ikab,ba->ik", num, anchor).real / dval(anchor))
        weights = cfg.bandwidth_hz * zeta
        at_anchor = sdp.frob(problem.objective, anchor)
        rng = np.random.default_rng(7)
        for _ in range(200):
            other = _random_psd(rng, anchor.shape[0])
            log_rise = float(np.sum(weights * (np.log2(dval(other))
                                               - np.log2(dval(anchor)))))
            tangent_rise = at_anchor - sdp.frob(problem.objective, other)
            assert log_rise <= tangent_rise + 1e-10 * (1.0 + abs(at_anchor))

    def test_gradient_matches_finite_differences(self):
        cfg, anchor, num, den, problem, grad = self._surrogate(2)
        rng = np.random.default_rng(11)
        n = anchor.shape[0]
        for _ in range(20):
            delta = _unit_hermitian(rng, n)
            h = 1e-6
            up = problem.value(anchor + h * delta)
            down = problem.value(anchor - h * delta)
            fd = (up - down) / (2 * h)
            analytic = sdp.frob(grad, delta)
            assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-12)

    def test_infeasible_anchor_rejected(self):
        cfg, anchor, num, den, _, _ = self._surrogate(3)
        with pytest.raises(ValueError, match="anchor"):
            surrogate_problem(np.zeros_like(anchor), num, den, None, cfg, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.sampled_from([8, 16]),
           random_beams=st.booleans(), eta=st.sampled_from([0.0, 1.0]),
           draw_seed=st.integers(0, 10**6))
    def test_solver_problem_minorizes_penalized_rate(self, seed, n, random_beams,
                                                     eta, draw_seed):
        # the problem the solver maximizes gains no more than the penalized
        # summed rate R - eta P from its anchor to any B, and its gradient at
        # the anchor (the rate gradient less eta times the penalty's
        # subgradient I - kappa kappa^H) matches finite differences
        base = dataclasses.replace(SystemConfig(), num_irs_elements=n)
        cfg, _, cascaded, plan, beams, gains = build_scenario(
            seed, config=base, random_beams=random_beams)
        stage1 = allocate_power(gains, cfg)
        _, num, den = sinr_lifts(cascaded, plan, beams, stage1.beta, cfg)

        def objective(b_mat):
            return (summed_rate(num, den, b_mat, cfg)
                    - eta * exact_rank_penalty(b_mat))

        rng = np.random.default_rng(draw_seed)
        anchor = _random_psd(rng, n)
        problem, rate_grad = surrogate_problem(anchor, num, den, None, cfg, eta)
        kappa = np.linalg.eigh(anchor)[1][:, -1]
        grad = rate_grad - eta * (np.eye(n) - np.outer(kappa, kappa.conj()))
        at_anchor = problem.value(anchor)
        exact_anchor = objective(anchor)
        tol = 1e-9 * (1.0 + abs(at_anchor) + abs(exact_anchor))
        for draw in range(20):
            if draw % 2:
                phases = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
                other = rng.random() * np.outer(phases, phases.conj())
            else:
                other = _random_psd(rng, n)
            gain = problem.value(other) - at_anchor
            assert gain <= objective(other) - exact_anchor + tol
        for _ in range(3):
            delta = _unit_hermitian(rng, n)
            h = 1e-6
            fd = (problem.value(anchor + h * delta)
                  - problem.value(anchor - h * delta)) / (2 * h)
            analytic = sdp.frob(grad, delta)
            scale = max(abs(fd), 1e-3 * np.linalg.norm(grad))
            assert abs(analytic - fd) <= 1e-4 * scale


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
        """Dimension and, per anchor, the minorized penalty of its problem.

        The weight enters the problem only through -eta Re tr(M B), so M is
        the objective at weight 0 less the objective at weight 1.
        """
        cfg, _, cascaded, plan, beams, gains = build_scenario(seed)
        stage1 = allocate_power(gains, cfg)
        _, num, den = sinr_lifts(cascaded, plan, beams, stage1.beta, cfg)

        def penalty(anchor):
            free, _ = surrogate_problem(anchor, num, den, None, cfg, 0.0)
            weighted, _ = surrogate_problem(anchor, num, den, None, cfg, 1.0)
            return lambda b_mat: sdp.frob(free.objective - weighted.objective, b_mat)

        return cfg.num_irs_elements, penalty

    def test_surrogate_dominates_exact(self):
        n, linearize = self._linearizer(1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            anchor = _random_psd(rng, n)
            other = _random_psd(rng, n)
            assert linearize(anchor)(other) >= exact_rank_penalty(other) - 1e-9

    def test_surrogate_tight_at_anchor(self):
        n, linearize = self._linearizer(2)
        anchor = _random_psd(np.random.default_rng(2), n)
        assert linearize(anchor)(anchor) == pytest.approx(
            exact_rank_penalty(anchor), abs=1e-10)


class TestOptimizeReflection:
    def test_single_element_any_phase(self):
        cfg = dataclasses.replace(
            SystemConfig(), num_irs_elements=1, num_clusters=2, total_users=6,
            num_bs_antennas=4, min_sinr=1e-6)
        cfg2, rng, cascaded, plan, beams, gains = build_scenario(5, config=cfg)
        stage1 = allocate_power(gains, cfg2)
        result = optimize_reflection(cascaded, plan, beams, stage1, cfg2)
        assert abs(abs(result.reflection[0]) - 1.0) <= ULP
        assert result.ee == pytest.approx(stage1.ee, rel=1e-9)

    def test_never_worse_than_start(self):
        for seed in range(6):
            cfg, rng, cascaded, plan, beams, gains = attainable_floor_scenario(
                seed, random_beams=True)
            stage1 = allocate_power(gains, cfg)
            result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
            assert result.ee >= stage1.ee * (1 - 1e-12)
            assert np.abs(np.abs(result.reflection) - 1.0).max() <= ULP

    def test_penalty_driven_to_rank_one_when_floor_attainable(self):
        hits = 0
        runs = 0
        for seed in range(8):
            cfg, rng, cascaded, plan, beams, gains = attainable_floor_scenario(
                seed, random_beams=True)
            stage1 = allocate_power(gains, cfg)
            if not stage1.feasible:
                continue
            result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
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
            cfg, _, cascaded, plan, beams, gains = attainable_floor_scenario(
                seed, random_beams=False)
            stage1 = allocate_power(gains, cfg)
            result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
            assert result.iterations > 0 and not result.fallback, seed
            assert result.ee == stage1.ee, seed
            assert np.array_equal(result.reflection, b0), seed

    def test_split_on_the_floor_reaches_the_solver(self):
        # Stage 1's certified split puts a SINR on the floor itself here
        # (rounded just below it); Stage 2 gates on the certificate, so it
        # still runs its loop and raises the efficiency
        base = dataclasses.replace(SystemConfig(), num_irs_elements=64,
                                   min_sinr=db_to_linear(-15.0))
        cfg, _, cascaded, plan, beams, gains = build_scenario(
            38, config=base, random_beams=True)
        stage1 = allocate_power(gains, cfg)
        gamma, _ = sinr(gains, stage1.beta, cfg)
        assert stage1.feasible and gamma.min() <= cfg.min_sinr
        result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
        assert result.iterations > 0
        assert result.ee >= stage1.ee

    def test_floor_breaking_start_returned_without_solving(self):
        # at the reference floor Stage 1 certifies neither plan of these
        # trials, so each Stage-2 method records its plan's Stage-1 values
        # and the trial reaches no Stage-2 code; Stage 2 refuses those splits
        def no_solver(*args, **kwargs):
            raise AssertionError("Stage 2 reached on a floor-breaking start")

        calls = collections.defaultdict(list)

        def spy(name):
            real = getattr(experiments, name)

            def recorded(*args):
                calls[name].append((args, real(*args)))
                return calls[name][-1][1]
            return recorded

        for trial in range(4):
            calls.clear()
            with mock.patch.object(experiments, "optimize_reflection", no_solver), \
                    mock.patch.object(sdp, "solve", no_solver), \
                    mock.patch.object(sdp, "_phase_one", no_solver), \
                    mock.patch.multiple(experiments, **{
                        name: spy(name) for name in ("synthesize_channels",
                                                     "link_gains", "allocate_power")}):
                record = experiments.run_trial(SystemConfig(), list(experiments.METHODS),
                                               4243, 16, 8, trial)
            assert record.feasible == (False, False)
            assert record.stage2_ee_trace == []
            [(_, cascaded)] = calls["synthesize_channels"]
            [((_, members, beams), _)] = calls["link_gains"]
            for plan, method in enumerate(("proposed", "random-clustering")):
                (_, cfg), stage1 = calls["allocate_power"][plan]
                assert record.ee[method] == stage1.ee
                assert record.ici[method] == experiments._far_user_ici(stage1.psi)
                with pytest.raises(ValueError, match="certified"):
                    optimize_reflection(cascaded, members[plan], beams[plan],
                                        stage1, cfg)

    def test_post_loop_fallback_returns_start(self):
        # this draw iterates, then no extracted candidate beats b0, so the
        # end-of-loop fallback must hand back b0 with its own values
        cfg, rng, cascaded, plan, beams, gains = attainable_floor_scenario(
            116, random_beams=True)
        stage1 = allocate_power(gains, cfg)
        result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
        assert result.iterations > 0 and result.fallback
        b0 = np.ones(cfg.num_irs_elements, dtype=complex)
        assert np.array_equal(result.reflection, b0)
        assert result.ee == stage1.ee
        gains0 = link_gains(effective_channel(cascaded, b0),
                            plan, beams, check_order=False)
        _, psi0 = sinr(gains0, stage1.beta, cfg)
        assert np.array_equal(result.psi, psi0)

    def test_stage1_values_are_those_at_start(self):
        # Stage 2 takes ee and psi at b0 from Stage 1 instead of recomputing
        # them; they, and the SINRs at Stage 1's split, must be the b0
        # values bitwise
        base = dataclasses.replace(SystemConfig(), num_irs_elements=16)
        draws = [build_scenario(seed, config=base) for seed in range(3)]
        draws += [attainable_floor_scenario(seed, random_beams=rb)
                  for seed in range(3) for rb in (False, True)]
        b0 = np.ones(16, dtype=complex)
        for cfg, rng, cascaded, plan, beams, gains in draws:
            effective = effective_channel(cascaded, b0)
            # the random-clustering baseline's plan and beams, as run_trial
            plan_r = random_plan(effective, cfg.num_clusters,
                                 cfg.users_per_cluster, rng)
            beams_r = build_zf_beamformers(effective[plan_r[:, -1]])
            gains_r = link_gains(effective, plan_r, beams_r)
            for plan_, beams_, gains_ in ((plan, beams, gains),
                                          (plan_r, beams_r, gains_r)):
                stage1 = allocate_power(gains_, cfg)
                ee0, gamma0, psi0 = evaluate_reflection(
                    cascaded, plan_, beams_, stage1.beta, b0, cfg)
                assert stage1.ee == ee0
                assert np.array_equal(sinr(gains_, stage1.beta, cfg)[0], gamma0)
                assert np.array_equal(stage1.psi, psi0)

    def test_stage2_attainable_bytes_pinned(self):
        # the reference-floor pins make no Stage-2 call; on these draws
        # the floor is attainable, so every result field comes out of the
        # surrogate loop. N = 16 does not move with the BLAS thread count; a
        # change that moves these bytes on purpose updates the digest
        digest = hashlib.sha256()
        for random_beams in (True, False):
            for seed in range(10):
                cfg, _, cascaded, plan, beams, gains = attainable_floor_scenario(
                    seed, random_beams=random_beams)
                stage1 = allocate_power(gains, cfg)
                result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
                digest.update(result.reflection.tobytes())
                digest.update(repr((repr(result.ee), result.iterations,
                                    result.fallback, result.converged,
                                    repr(result.exact_penalty))).encode())
                digest.update(repr([(iteration, repr(p.ee), repr(p.eta))
                                    for iteration, p in enumerate(result.trace, 1)]
                                   ).encode())
        assert digest.hexdigest() == (
            "b13cfecb6e971217634edfebdac66b5b6dcc6371e018389fad4eeb4555726fc9")

    def test_surrogate_trace_monotone_for_fixed_eta(self):
        cfg, rng, cascaded, plan, beams, gains = attainable_floor_scenario(
            3, random_beams=True)
        stage1 = allocate_power(gains, cfg)
        result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
        by_eta = {}
        for point in result.trace:
            by_eta.setdefault(point.eta, []).append(point.ee)
        for values in by_eta.values():
            assert np.all(np.diff(values) >= -1e-6 * max(1.0, abs(values[0])))


# (kind, N): at the reference floor Stage 1 certifies no draw, so Stage 2
# refuses the split; at an attainable floor with random beams the
# certificate holds and Stage 2 runs its loop
_STAGE2_SOURCES = (("reference", 8), ("reference", 16),
                   ("attainable", 8), ("attainable", 16))


class TestStage2Properties:
    @settings(max_examples=10, deadline=None)
    @given(source=st.sampled_from(_STAGE2_SOURCES), seed=st.integers(0, 10**6))
    def test_result_invariants(self, source, seed):
        kind, n = source
        if kind == "reference":
            base = dataclasses.replace(SystemConfig(), num_irs_elements=n)
            cfg, rng, cascaded, plan, beams, gains = build_scenario(seed,
                                                                    config=base)
        else:
            cfg, rng, cascaded, plan, beams, gains = attainable_floor_scenario(
                seed, num_irs_elements=n, random_beams=True)
        stage1 = allocate_power(gains, cfg)
        if kind == "reference":
            assert not stage1.feasible
            with pytest.raises(ValueError, match="certified"):
                optimize_reflection(cascaded, plan, beams, stage1, cfg)
            return
        result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
        effective = effective_channel(cascaded, result.reflection)
        gains_at = link_gains(effective, plan, beams, check_order=False)
        _, psi = sinr(gains_at, stage1.beta, cfg)
        assert np.array_equal(result.psi, psi)
        assert np.abs(np.abs(result.reflection) - 1.0).max() <= ULP
        assert result.ee >= stage1.ee * (1 - 1e-12)
        # a second call on the same inputs returns the same bits
        again = optimize_reflection(cascaded, plan, beams, stage1, cfg)
        for name in ("reflection", "lifted", "psi"):
            assert np.array_equal(getattr(again, name), getattr(result, name)), name
        for name in ("ee", "fallback", "converged", "iterations", "exact_penalty",
                     "trace"):
            assert getattr(again, name) == getattr(result, name), name
