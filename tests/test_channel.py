import dataclasses
import hashlib

import numpy as np
import pytest

from irsnoma.channel import (LinkGains, array_response, cluster_rates_and_power,
                             draw_user_geometry, effective_channel,
                             energy_efficiency, link_gains, path_gain, sinr,
                             synthesize_channels)
from irsnoma.config import SystemConfig

from conftest import build_scenario


class TestArrayResponse:
    def test_zero_angle_is_all_ones(self):
        np.testing.assert_allclose(array_response(0.0, 4, 0.5), np.ones(4))

    def test_entries_unit_modulus(self):
        rng = np.random.default_rng(0)
        for angle in rng.uniform(-np.pi / 2, np.pi / 2, 20):
            resp = array_response(angle, 16, 0.5)
            np.testing.assert_allclose(np.abs(resp), 1.0, atol=1e-12)

    def test_broadside_two_elements(self):
        # hand evaluation: exp(-j*pi*sin(pi/2)) = -1
        np.testing.assert_allclose(array_response(np.pi / 2, 2, 0.5),
                                   [1.0, -1.0], atol=1e-12)

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            array_response(0.0, 0)

    def test_angle_array_stacks_single_responses(self):
        angles = np.random.default_rng(1).uniform(-np.pi / 3, np.pi / 3, 30)
        stacked = array_response(angles, 16, 0.5)
        assert stacked.shape == (30, 16)
        assert np.array_equal(stacked, np.stack(
            [array_response(float(a), 16, 0.5) for a in angles]))


class TestPathGain:
    def test_reference_value(self):
        # frozen from direct evaluation of 1e-3 * 30**-2.2
        assert path_gain(1e-3, 30.0, 1.0, 2.2) == pytest.approx(
            5.627729823467977e-07, rel=1e-12)

    def test_monotone_decreasing_in_distance(self):
        gains = [path_gain(1e-3, d, 1.0, 2.2) for d in (1, 3, 10, 30, 100)]
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestSynthesis:
    def test_los_limit_dominates(self):
        # huge Rician factor: the channel collapses onto the LoS outer product
        cfg = dataclasses.replace(SystemConfig(), rician_bs_irs=1e12,
                                  total_users=10)
        rng = np.random.default_rng(3)
        geo = draw_user_geometry(cfg, rng)
        ch = synthesize_channels(cfg, geo, rng)
        scale = np.sqrt(path_gain(cfg.ref_pathloss, cfg.bs_irs_distance_m,
                                  cfg.ref_distance_m, cfg.pathloss_exp_bs_irs))
        los = np.outer(array_response(geo.irs_aoa_rad, cfg.num_irs_elements).conj(),
                       array_response(geo.bs_aod_rad, cfg.num_bs_antennas))
        dev = np.abs(ch.bs_irs[0] - scale * los).max() / np.abs(scale * los).max()
        assert dev < 1e-4

    def test_scatter_energy_matches_unit_variance(self):
        # tiny Rician factor isolates the scatter part: E||H||_F^2 = N*M
        # over at least 1e4 channel draws
        cfg = dataclasses.replace(SystemConfig(), rician_bs_irs=1e-12,
                                  total_users=500, num_irs_elements=8,
                                  num_bs_antennas=6)
        rng = np.random.default_rng(5)
        scale = path_gain(cfg.ref_pathloss, cfg.bs_irs_distance_m,
                          cfg.ref_distance_m, cfg.pathloss_exp_bs_irs)
        energies = []
        for _ in range(20):
            geo = draw_user_geometry(cfg, rng)
            ch = synthesize_channels(cfg, geo, rng)
            energies.append(np.sum(np.abs(ch.bs_irs) ** 2, axis=(1, 2)) / scale)
        assert np.concatenate(energies).mean() == pytest.approx(8 * 6, rel=0.02)

    def test_cascaded_rows_match_definition(self):
        cfg = dataclasses.replace(SystemConfig(), total_users=10)
        rng = np.random.default_rng(7)
        geo = draw_user_geometry(cfg, rng)
        ch = synthesize_channels(cfg, geo, rng)
        v, n = 4, 11
        expected = ch.irs_user[v, n].conj() * ch.bs_irs[v, n]
        np.testing.assert_allclose(ch.cascaded[v, n], expected, rtol=1e-12)

    def test_synthesis_bytes_pinned(self):
        # every byte of the three channel arrays over 90 draws; the digest
        # was recorded before the Rician mix was computed in real arithmetic,
        # under 1 and 2 BLAS threads. A change that moves these bytes on
        # purpose updates it
        digest = hashlib.sha256()
        for n in (16, 32, 64):
            cfg = dataclasses.replace(SystemConfig(), num_irs_elements=n)
            for seed in range(30):
                rng = np.random.default_rng(seed)
                ch = synthesize_channels(cfg, draw_user_geometry(cfg, rng), rng)
                for array in (ch.bs_irs, ch.irs_user, ch.cascaded):
                    digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "1404884ae5e4f91109937ee631a275333fd86e3361ce3149c052c22dda016982")

    def test_geometry_invariants(self):
        cfg = SystemConfig()
        geo = draw_user_geometry(cfg, np.random.default_rng(11))
        assert np.all(geo.irs_user_distance_m > 0)
        assert np.all(geo.irs_user_distance_m <= cfg.user_radius_m)
        assert np.all(np.abs(geo.irs_user_aod_rad) <= np.pi / 2)


class TestEffectiveChannel:
    def test_identity_cascade(self):
        w = np.eye(3, dtype=complex)
        np.testing.assert_allclose(effective_channel(w, np.ones(3)), np.ones(3))

    def test_common_phase_leaves_beam_gain_invariant(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
        base = abs(effective_channel(w, b) @ f)
        rotated = abs(effective_channel(w, np.exp(1j * 0.7) * b) @ f)
        assert rotated == pytest.approx(base, rel=1e-12)

    def test_associativity_oracle(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        left = effective_channel(w, b) @ f
        right = b.conj() @ (w @ f)
        assert abs(left - right) / abs(right) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            effective_channel(np.zeros((4, 3), dtype=complex), np.ones(5))


def _scalar_sinr_oracle(k, i, beta, own, cross, p, noise):
    """Independent elementwise evaluation of the post-SIC SINR."""
    users = beta.shape[1]
    intra = sum(p * beta[i, l] * own[i, k] for l in range(k + 1, users))
    ici = sum(cross[i, k, j] * p * sum(beta[j, l] for l in range(users))
              for j in range(beta.shape[0]) if j != i)
    return p * beta[i, k] * own[i, k] / (intra + ici + noise)


class TestSinr:
    def test_single_user_single_cluster(self):
        gains = LinkGains(own_beam=np.array([[2.0]]),
                          cross_beam=np.array([[[2.0]]]),
                          channel_power=np.array([[2.0]]))
        cfg = dataclasses.replace(SystemConfig(), num_clusters=1,
                                  users_per_cluster=1, total_users=1,
                                  num_bs_antennas=2)
        gamma, psi = sinr(gains, np.array([[0.5]]), cfg)
        assert psi[0, 0] == 0.0
        assert gamma[0, 0] == pytest.approx(
            cfg.cluster_power_w * 0.5 * 2.0 / cfg.noise_power_w, rel=1e-12)

    def test_strongest_user_has_no_intra_term(self):
        cfg, _, _, _, _, gains = build_scenario(0)
        beta = np.full(gains.own_beam.shape, 0.3)
        gamma, psi = sinr(gains, beta, cfg)
        expected = (cfg.cluster_power_w * 0.3 * gains.own_beam[:, -1]
                    / (psi[:, -1] + cfg.noise_power_w))
        np.testing.assert_allclose(gamma[:, -1], expected, rtol=1e-12)

    def test_matches_scalar_oracle_on_hand_instance(self):
        own = np.array([[0.4, 1.1], [0.2, 0.9]])
        cross = np.array([[[0.4, 0.05], [1.1, 0.2]],
                          [[0.03, 0.2], [0.07, 0.9]]])
        cross[0, :, 0] = own[0]
        cross[1, :, 1] = own[1]
        beta = np.array([[0.6, 0.2], [0.5, 0.3]])
        gains = LinkGains(own_beam=own, cross_beam=cross,
                          channel_power=np.array([[1.0, 2.0], [1.0, 2.0]]))
        cfg = dataclasses.replace(SystemConfig(), num_clusters=2,
                                  users_per_cluster=2, total_users=4,
                                  num_bs_antennas=4)
        gamma, _ = sinr(gains, beta, cfg)
        for i in range(2):
            for k in range(2):
                oracle = _scalar_sinr_oracle(k, i, beta, own, cross,
                                             cfg.cluster_power_w,
                                             cfg.noise_power_w)
                assert gamma[i, k] == pytest.approx(oracle, rel=1e-12)

    def test_denominator_stays_above_noise(self):
        cfg, _, _, _, _, gains = build_scenario(1)
        beta = np.full(gains.own_beam.shape, 0.4)
        gamma, psi = sinr(gains, beta, cfg)
        num = cfg.cluster_power_w * beta * gains.own_beam
        assert np.all(num / gamma >= cfg.noise_power_w * (1 - 1e-12))

    def test_sorting_contract_enforced(self):
        cfg, _, channels, plan, beams, _ = build_scenario(2)
        b0 = np.ones(cfg.num_irs_elements, dtype=complex)
        effective = effective_channel(channels.cascaded, b0)
        flipped = plan.members[:, ::-1]
        with pytest.raises(AssertionError):
            link_gains(effective, flipped, beams.vectors)


class TestRatesAndPower:
    def test_zero_sinr_means_zero_rate(self):
        cfg = SystemConfig()
        beta = np.array([[0.4, 0.5]])
        rates, powers = cluster_rates_and_power(np.zeros((1, 2)), beta, cfg)
        assert rates[0] == 0.0
        assert powers[0] == pytest.approx(
            cfg.cluster_power_w * 0.9 + cfg.circuit_power_w)

    def test_unit_sinr_two_users(self):
        cfg = dataclasses.replace(SystemConfig(), bandwidth_hz=1.0)
        rates, _ = cluster_rates_and_power(np.ones((1, 2)),
                                           np.array([[0.1, 0.1]]), cfg)
        assert rates[0] == pytest.approx(2.0)

    def test_idle_cluster_burns_circuit_power_only(self):
        cfg = SystemConfig()
        _, powers = cluster_rates_and_power(np.zeros((1, 2)),
                                            np.zeros((1, 2)), cfg)
        assert powers[0] == pytest.approx(cfg.circuit_power_w)

    def test_objective_invariant_under_common_reflection_phase(self):
        cfg, _, channels, plan, beams, _ = build_scenario(3)
        beta = np.full((cfg.num_clusters, cfg.users_per_cluster), 0.3)
        values = []
        for theta in (0.0, 1.1):
            b = np.exp(1j * theta) * np.ones(cfg.num_irs_elements)
            eff = effective_channel(channels.cascaded, b)
            gains = link_gains(eff, plan.members, beams.vectors)
            gamma, _ = sinr(gains, beta, cfg)
            values.append(energy_efficiency(gamma, beta, cfg))
        assert values[0] == pytest.approx(values[1], rel=1e-10)
