import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma import power_allocation
from irsnoma.channel import energy_efficiency, own_beam, sinr, stronger_tail
from irsnoma.config import SystemConfig, db_to_linear
from irsnoma.experiments import METHODS, ExperimentSpec, run_experiment
from irsnoma.power_allocation import allocate_power

from conftest import attainable_floor_scenario, build_scenario, solver_free_floor


def split_of(levels, shape):
    """Coefficients from the flat levels S_k (summed coefficients of users
    k..K-1), (I, K)."""
    levels = levels.reshape(shape)
    return levels - np.append(levels[:, 1:], np.zeros((shape[0], 1)), axis=1)


def bound_split(gains, cfg, totals):
    """Stage 1's split at fixed per-cluster ``totals``: every user but the
    strongest at its binding floor or decode-gap bound."""
    problem = power_allocation._Problem(gains, cfg)
    a, b = problem.constraints()
    clusters = problem.shape[0]
    return split_of(problem.tight(a, np.r_[totals, b[clusters:]], problem.layout.start[0]),
                    problem.shape)


def single_cluster(seed):
    """I = 1, K = 2: a draw, a floor from -20 to 5 dB, and a fixed total."""
    rng = np.random.default_rng(seed)
    g = np.sort(10.0 ** rng.uniform(-10, -8, 2))
    cfg = dataclasses.replace(
        SystemConfig(), num_clusters=1, users_per_cluster=2, total_users=2,
        num_bs_antennas=2, num_irs_elements=4,
        min_sinr=db_to_linear(rng.uniform(-20.0, 5.0)))
    gains = g[None, :, None]
    return cfg, gains, rng.uniform(0.2, 1.0)


def weak_user_grid_optimum(gains, cfg, total, points=100_000):
    """The weak user's coefficient that maximizes the cluster's rate at a
    fixed total under the floor and the decode gap: a 1-D grid, refined."""
    p, noise = cfg.cluster_power_w, cfg.noise_power_w
    g = gains[0, :, 0]

    def best(weak):
        strong = total - weak
        gamma = np.stack([p * weak * g[0] / (p * strong * g[0] + noise),
                          p * strong * g[1] / noise])
        ok = ((gamma >= cfg.min_sinr).all(axis=0)
              & (p * g[1] * (weak - strong) >= cfg.sic_power_gap_w))
        rate = np.where(ok, np.log2(1 + gamma).sum(axis=0), -np.inf)
        return weak[int(np.argmax(rate))]

    step = total / points
    coarse = best(np.linspace(step, total - step, points))
    return best(np.linspace(coarse - step, coarse + step, 4001))


class TestClosedForm:
    def test_first_user_matches_direct_expression(self):
        # the weak user takes the larger of its floor and gap bounds, with
        # the strongest user's share the rest of the total
        for seed in range(20):
            cfg, gains, total = single_cluster(seed)
            p, gamma = cfg.cluster_power_w, cfg.min_sinr
            g, noise = gains[0, :, 0], cfg.noise_power_w
            expected = max(gamma * (total + noise / (p * g[0])) / (1 + gamma),
                           0.5 * (total + cfg.sic_power_gap_w / (p * g[1])))
            beta = bound_split(gains, cfg, np.array([total]))[0]
            assert beta[0] == pytest.approx(expected, rel=1e-12)
            assert beta.sum() == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_search_stationary_point(self, seed):
        cfg, gains, total = single_cluster(seed)
        beta = bound_split(gains, cfg, np.array([total]))[0]
        assert beta[0] == pytest.approx(
            weak_user_grid_optimum(gains, cfg, total), rel=1e-3)


def least_split(gains, cfg):
    """The certificate's least split, or None at an unattainable floor."""
    problem = power_allocation._Problem(gains, cfg)
    levels = problem.certify(*problem.constraints())
    return None if levels is None else split_of(levels, problem.shape)


# caps per constraint family (budget, SINR floor, decode gap) on a split's
# excess over each bound, relative to that bound
CAPS = (5e-7, 5e-4, 5e-7)


def meets_caps(gains, beta, cfg):
    """True when ``beta`` breaks no constraint family by more than ``CAPS``."""
    gamma, _ = sinr(gains, beta, cfg)
    sic = (cfg.cluster_power_w * own_beam(gains)[:, 1:]
           * (beta[:, :-1] - stronger_tail(beta)[:, :-1]) - cfg.sic_power_gap_w)
    radiated = cfg.cluster_power_w * beta.sum(axis=1)
    violations = (float(np.max(radiated / cfg.max_power_w - 1.0)),
                  float(np.max(1.0 - gamma / cfg.min_sinr, initial=0.0)),
                  float(np.max(-sic / cfg.sic_power_gap_w, initial=0.0)))
    return all(excess <= cap for excess, cap in zip(violations, CAPS))


def _certificate_draw(users, clusters, seed, floor_db, random_beams):
    base = dataclasses.replace(
        SystemConfig(), users_per_cluster=users, num_clusters=clusters,
        num_bs_antennas=clusters + 1, total_users=max(30, users * clusters),
        num_irs_elements=16, min_sinr=db_to_linear(floor_db))
    cfg, *_, gains = build_scenario(seed, config=base, random_beams=random_beams)
    return cfg, gains


class TestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(users=st.sampled_from([1, 2, 3]), clusters=st.sampled_from([5, 9]),
           seed=st.integers(0, 10**6), floor_db=st.floats(-40.0, 3.0),
           random_beams=st.booleans(), raise_db=st.floats(0.01, 10.0))
    def test_verdicts(self, users, clusters, seed, floor_db, random_beams, raise_db):
        # a feasible verdict's split meets every cap once scaled up by
        # 1 + 1e-9, and a higher floor never turns an unattainable verdict
        # into a feasible one
        cfg, gains = _certificate_draw(users, clusters, seed, floor_db, random_beams)
        beta = least_split(gains, cfg)
        if beta is not None:
            assert meets_caps(gains, beta * (1.0 + 1e-9), cfg)
        higher = dataclasses.replace(cfg, min_sinr=cfg.min_sinr * db_to_linear(raise_db))
        if beta is None:
            assert least_split(gains, higher) is None
        assert allocate_power(gains, cfg).feasible == (beta is not None)

    def test_cap_oracle_sees_a_raised_floor(self):
        # the least split puts the strongest users on the floor: it meets the
        # caps there and breaks the floor's once the floor rises by 1e-3
        cfg, *_, gains = attainable_floor_scenario(0)
        beta = least_split(gains, cfg)
        assert meets_caps(gains, beta, cfg)
        raised = dataclasses.replace(cfg, min_sinr=cfg.min_sinr * (1.0 + 1e-3))
        assert not meets_caps(gains, beta, raised)

    def test_reference_floor_is_unattainable(self):
        # 3 dB: inter-cluster interference leaves no split that meets it
        for n in (16, 64):
            base = dataclasses.replace(SystemConfig(), num_irs_elements=n)
            for seed in range(30):
                cfg, *_, gains = build_scenario(seed, config=base)
                assert least_split(gains, cfg) is None


class TestAllocatePower:
    def test_trace_monotone_everywhere(self):
        for seed in range(10):
            cfg, _, _, _, _, gains = build_scenario(seed)
            result = allocate_power(gains, cfg)
            ees = [tp.ee for tp in result.trace]
            assert np.all(np.diff(ees) >= -1e-9)

    def test_residual_vanishes_on_feasible_instances(self):
        for seed in range(10):
            cfg, _, _, _, _, gains = build_scenario(seed)
            cfg = dataclasses.replace(cfg, min_sinr=solver_free_floor(gains, cfg))
            result = allocate_power(gains, cfg)
            assert result.residual <= 1e-4
            assert result.converged

    def test_cut_loop_is_not_converged(self):
        # the reference draws take more than two ascent steps
        cfg, _, _, _, _, gains = build_scenario(0)
        result = allocate_power(gains, cfg, max_iterations=2)
        assert result.converged is False
        assert result.iterations == 2
        assert result.residual > power_allocation._TOLERANCE

    def test_feasible_floor_is_enforced(self):
        # at an attainable floor the returned split satisfies every family
        cfg0, _, _, _, _, gains = build_scenario(4)
        cfg = dataclasses.replace(cfg0, min_sinr=solver_free_floor(gains, cfg0))
        result = allocate_power(gains, cfg)
        assert result.feasible
        gamma, _ = sinr(gains, result.beta, cfg)
        # strictly above on this draw, though the ascent may put a weak user
        # on the floor itself
        assert np.all(gamma > cfg.min_sinr)
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

    def test_ascent_without_a_gain_stops_unconverged(self, monkeypatch):
        # every trial point scores below the start, so all 50 halvings of
        # the first step fail: the ascent stops there, at the start, with no
        # step taken and the stop test not met
        cfg, *_, gains = attainable_floor_scenario(0)
        real = power_allocation._Efficiency.value
        scored = []

        def losing(self, x):
            ee, terms = real(self, x)
            scored.append(ee)
            return (ee if len(scored) == 1 else 0.5 * ee), terms

        monkeypatch.setattr(power_allocation._Efficiency, "value", losing)
        result = allocate_power(gains, cfg)
        assert len(scored) == 51
        assert (result.iterations, result.converged) == (0, False)
        assert [point.ee for point in result.trace] == scored[:1]
        assert result.residual > power_allocation._TOLERANCE

    def test_singular_tight_system_has_no_levels(self):
        # no draw has given a singular system; all-zero rows make one, and
        # the solve's LinAlgError must read as "no levels", not escape
        cfg, *_, gains = attainable_floor_scenario(0)
        problem = power_allocation._Problem(gains, cfg)
        a, b = problem.constraints()
        assert problem.tight(a, b, problem.layout.start[1]) is not None
        assert problem.tight(np.zeros_like(a), b, problem.layout.start[1]) is None

    @pytest.mark.parametrize("max_iterations", [-1, -3])
    def test_negative_iteration_cap_rejected(self, max_iterations):
        cfg, *_, gains = build_scenario(0)
        with pytest.raises(ValueError, match="max_iterations"):
            allocate_power(gains, cfg, max_iterations=max_iterations)

    def test_null_space_solved_only_where_rows_are_held(self, monkeypatch):
        # at the reference floor no row of the box is ever held, so the
        # ascent needs neither a null-space basis nor multipliers; an
        # attainable draw puts rows on its polyhedron's faces and needs both
        # (the draws are built first: the ZF beams take an SVD of their own)
        reference = [build_scenario(seed) for seed in range(10)]
        cfg, *_, gains = attainable_floor_scenario(0, random_beams=False)
        calls = {"svd": 0, "lstsq": 0}
        for name in calls:
            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        for ref_cfg, *_, ref_gains in reference:
            allocate_power(ref_gains, ref_cfg)
        assert calls == {"svd": 0, "lstsq": 0}
        allocate_power(gains, cfg)
        assert calls["svd"] > 0 and calls["lstsq"] > 0

    def test_decode_order_shaping_on_unattainable_floor(self):
        # reference floor is interference-unattainable at the start: the
        # returned split must still respect the decode-order power ratio
        cfg, _, _, _, _, gains = build_scenario(5)
        result = allocate_power(gains, cfg)
        if not result.feasible:
            ratios = result.beta[:, 0] / result.beta[:, 1]
            assert np.all(ratios >= cfg.min_sinr)


class TestLayoutCache:
    """Stage 1 shares one read-only layout per shape (I, K) and floor."""

    def test_cached_arrays_are_read_only(self):
        cfg, *_, gains = build_scenario(0)
        allocate_power(gains, cfg)
        layout = power_allocation._layout(cfg.num_clusters, cfg.users_per_cluster,
                                          cfg.min_sinr)
        for field in dataclasses.fields(layout):
            with pytest.raises(ValueError, match="read-only"):
                getattr(layout, field.name)[...] = 0

    def test_other_shapes_and_floors_leave_a_result_unchanged(self):
        # A at the reference floor and at an attainable one (both branches),
        # then B at another (I, K) and floor, then A again
        draws_a = [(draw[0], draw[-1]) for draw in (
            build_scenario(0), attainable_floor_scenario(0, random_beams=False))]
        base = dataclasses.replace(SystemConfig(), num_clusters=9, num_bs_antennas=10,
                                   users_per_cluster=3, min_sinr=db_to_linear(-5.0))
        cfg_b, *_, gains_b = build_scenario(1, config=base)

        def digests():
            out = []
            for cfg, gains in draws_a:
                digest = hashlib.sha256()
                _digest_result(digest, allocate_power(gains, cfg), gains, cfg)
                out.append(digest.hexdigest())
            return out

        power_allocation._layout.cache_clear()
        first = digests()
        allocate_power(gains_b, cfg_b)
        assert digests() == first
        assert power_allocation._layout.cache_info().currsize == 3

    def test_reference_grid_builds_one_layout(self, tmp_path):
        # the key holds no draw: every trial of a grid with one (I, K, floor)
        # shares one layout
        power_allocation._layout.cache_clear()
        spec = ExperimentSpec(n_grid=[16, 32], m_grid=[8], num_trials=3,
                              methods=list(METHODS), out_dir=str(tmp_path), seed=4243)
        run_experiment(SystemConfig(), spec)
        info = power_allocation._layout.cache_info()
        assert info.currsize == info.misses == 1 and info.hits > 0


class TestStopRule:
    def test_unattainable_floor_converges_in_a_few_iterations(self):
        # ZF draws at the reference floor have no floor-respecting split;
        # the ascent over the totals settles within a few Newton steps
        for seed in range(10):
            cfg, *_, gains = build_scenario(seed)
            result = allocate_power(gains, cfg, max_iterations=12)
            assert result.feasible is False
            assert result.converged is True


def test_floor_respecting_stage1_bytes_pinned():
    # the 3 dB pins in test_experiments see only unattainable floors; on
    # these draws the floor is attainable, so the ascent runs over the
    # floor's polyhedron. Re-recorded when the certificate and the ascent
    # replaced the dual loop (and the floor stopped being set from Stage 1's
    # own output), and when the ascent moved from a floor raised by 1e-3 to
    # the floor itself; a change that moves these bytes on purpose updates it
    digest = hashlib.sha256()
    for random_beams in (True, False):
        for seed in range(20):
            cfg, *_, gains = attainable_floor_scenario(seed, random_beams=random_beams)
            result = allocate_power(gains, cfg)
            digest.update(repr((result.iterations, result.converged,
                                repr(result.residual), repr(result.ee))).encode())
            digest.update(result.beta.tobytes())
    assert digest.hexdigest() == (
        "9a40d20fbbf346c902815bef6e81ef76845e71d7808d14e4760dcb3095f8d3bb")



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
           max_iterations=st.integers(0, 100))
    def test_invariants(self, source, seed, max_iterations):
        cfg, gains = _stage1_draw(source, seed)
        result = allocate_power(gains, cfg, max_iterations=max_iterations)
        ees = np.array([tp.ee for tp in result.trace])
        assert np.all(np.diff(ees) >= 0.0)
        gamma, psi = sinr(gains, result.beta, cfg)
        assert result.ee == energy_efficiency(gamma, result.beta, cfg)
        assert np.array_equal(result.psi, psi)
        assert result.iterations <= max_iterations
        assert result.iterations == len(ees) - 1
        assert not result.converged or result.residual <= power_allocation._TOLERANCE
        if result.feasible:
            assert meets_caps(gains, result.beta, cfg)


def _digest_result(digest, result, gains, cfg):
    """Feed every field of a ``Stage1Result`` and its trace to ``digest``,
    with the SINRs at its split on the draw's ``gains`` under ``cfg``."""
    for array in (result.beta, sinr(gains, result.beta, cfg)[0], result.psi):
        digest.update(array.tobytes())
    digest.update(repr((repr(result.ee), result.iterations, result.converged,
                        result.feasible, repr(result.residual))).encode())
    for iteration, tp in enumerate(result.trace):
        digest.update(repr((iteration, repr(tp.ee))).encode())


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
    # attainable floors under ZF and random beams. Re-recorded when the
    # certificate and the ascent replaced the dual loop, and when the ascent
    # moved from a floor raised by 1e-3 to the floor itself, and when the
    # trace points lost their per-cluster ratios; a change that moves these
    # bytes on purpose updates the digest
    digest = hashlib.sha256()
    for cfg, gains in _stage1_wide_draws():
        _digest_result(digest, allocate_power(gains, cfg), gains, cfg)
    assert digest.hexdigest() == (
        "0821612838ea473e0211f64099e9602fd16af56da2bb42a436bf6af3b51650ca")


def test_stage1_nine_clusters_bytes_pinned():
    # the wide pin's draws all have I = 5, and below 8 terms NumPy sums
    # left to right; from 8 terms on it sums pairwise. Nine clusters put
    # every sum over clusters on the pairwise path, so a reduction that
    # changes its order moves these bytes (a left-to-right Python sum of
    # the cluster ratios passes the I = 5 pins and fails this one).
    # Re-recorded when the certificate and the ascent replaced the dual
    # loop, under 1 and 2 BLAS threads, and when the trace points lost their
    # per-cluster ratios
    digest = hashlib.sha256()
    for users in (2, 3):
        base = dataclasses.replace(SystemConfig(), num_clusters=9,
                                   num_bs_antennas=10, users_per_cluster=users)
        for seed in range(30):
            cfg, *_, gains = build_scenario(seed, config=base)
            _digest_result(digest, allocate_power(gains, cfg), gains, cfg)
    assert digest.hexdigest() == (
        "a98a5aca6e433cc6ca75f29ca397a55fc56a99bf266a61ec30ab245da4d88f81")


def test_stage1_edge_paths_bytes_pinned():
    # the exits the wide pin does not reach: one user per cluster, where
    # there are no floor or gap rows between levels, and an ascent cut after
    # 0, 1 or 2 steps. Recorded before Stage 1's per-call overhead was cut,
    # which left every field bitwise as it was; re-recorded when the trace
    # points lost their per-cluster ratios
    digest = hashlib.sha256()
    for floor_db in (-5.0, 3.0):
        base = dataclasses.replace(SystemConfig(), users_per_cluster=1,
                                   min_sinr=db_to_linear(floor_db))
        for random_beams in (False, True):
            for seed in range(10):
                cfg, *_, gains = build_scenario(seed, config=base,
                                                random_beams=random_beams)
                _digest_result(digest, allocate_power(gains, cfg), gains, cfg)
    for max_iterations in (0, 1, 2):
        for source in _SOURCES:
            for seed in range(5):
                cfg, gains = _stage1_draw(source, seed)
                _digest_result(digest, allocate_power(gains, cfg,
                                                      max_iterations=max_iterations),
                               gains, cfg)
    assert digest.hexdigest() == (
        "90c688910c97827c70efb7ceb96efc236661ecad363ebc053b21c8bfb94315f4")
