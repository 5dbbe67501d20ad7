import dataclasses
import hashlib
import os
import pathlib
import platform
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import irsnoma
from irsnoma.channel import (_rician, array_response,
                             cluster_rates_and_power, draw_user_geometry,
                             effective_channel, energy_efficiency, link_gains,
                             own_beam, path_gain, sinr, synthesize_channels)
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
        gain = path_gain(cfg.ref_pathloss, cfg.bs_irs_distance_m,
                         cfg.ref_distance_m, cfg.pathloss_exp_bs_irs)
        los = np.outer(array_response(geo.irs_aoa_rad, cfg.num_irs_elements).conj(),
                       array_response(geo.bs_aod_rad, cfg.num_bs_antennas))
        bs_irs = _rician(rng, los, cfg.rician_bs_irs, gain,
                         (cfg.total_users, *los.shape))
        scale = np.sqrt(gain)
        dev = np.abs(bs_irs - scale * los).max() / np.abs(scale * los).max()
        assert dev < 1e-4

    def test_scatter_energy_matches_unit_variance(self):
        # tiny Rician factor isolates the scatter part: E||H||_F^2 = N*M
        # over 1e4 channel draws
        rng = np.random.default_rng(5)
        los = np.outer(array_response(0.4, 8).conj(), array_response(-0.2, 6))
        bs_irs = _rician(rng, los, 1e-12, 1.0, (10_000, 8, 6))
        energies = np.sum(np.abs(bs_irs) ** 2, axis=(1, 2))
        assert energies.mean() == pytest.approx(8 * 6, rel=0.02)

    def test_cascaded_rows_match_definition(self):
        # replay the generator from before the draw: H first, then h, and
        # cascaded row n is exactly conj(h_n) * H[n, :]
        cfg = dataclasses.replace(SystemConfig(), total_users=10)
        n, m, v = cfg.num_irs_elements, cfg.num_bs_antennas, cfg.total_users
        rng = np.random.default_rng(7)
        geo = draw_user_geometry(cfg, rng)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        cascaded = synthesize_channels(cfg, geo, rng)
        los = np.outer(array_response(geo.irs_aoa_rad, n).conj(),
                       array_response(geo.bs_aod_rad, m))
        h_bs = _rician(replay, los, cfg.rician_bs_irs,
                       path_gain(cfg.ref_pathloss, cfg.bs_irs_distance_m,
                                 cfg.ref_distance_m, cfg.pathloss_exp_bs_irs),
                       (v, n, m))
        gain_user = path_gain(cfg.ref_pathloss, geo.irs_user_distance_m,
                              cfg.ref_distance_m, cfg.pathloss_exp_irs_user)
        h_user = _rician(replay, array_response(geo.irs_user_aod_rad, n),
                         cfg.rician_irs_user, gain_user[:, None], (v, n))
        assert np.array_equal(cascaded, h_user.conj()[:, :, None] * h_bs)

    def test_cascaded_is_read_only(self):
        cfg = dataclasses.replace(SystemConfig(), total_users=10)
        rng = np.random.default_rng(9)
        cascaded = synthesize_channels(cfg, draw_user_geometry(cfg, rng), rng)
        with pytest.raises(ValueError, match="read-only"):
            cascaded[0, 0] = 0.0

    def test_synthesis_bytes_pinned(self):
        # every byte of the cascaded channel over 90 draws. The digest was
        # re-recorded when synthesis stopped returning the surface-user draw
        # h; with h replayed from the generator beside it, the earlier
        # digest over both arrays still held. A change that moves these
        # bytes on purpose updates it
        digest = hashlib.sha256()
        for n in (16, 32, 64):
            cfg = dataclasses.replace(SystemConfig(), num_irs_elements=n)
            for seed in range(30):
                rng = np.random.default_rng(seed)
                cascaded = synthesize_channels(cfg, draw_user_geometry(cfg, rng), rng)
                digest.update(cascaded.tobytes())
        assert digest.hexdigest() == (
            "e101c5f42ee50d87956960358968e1376a74b709f430e06f10a16f0e017dd620")

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap trimming measured is glibc's")
    def test_n64_trials_take_no_page_faults(self):
        # a trial must not free so much at the heap top that glibc hands it
        # back to the kernel, or the next trial faults those pages in again.
        # Counted over whole trials in a fresh interpreter: a loop of bare
        # synthesis calls also counts the heap layout its process started with
        child = textwrap.dedent("""
            import resource
            from irsnoma.config import SystemConfig
            from irsnoma.experiments import METHODS, run_trial
            for trial in range(5):
                run_trial(SystemConfig(), list(METHODS), 4243, 64, 8, trial)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for trial in range(5, 45):
                run_trial(SystemConfig(), list(METHODS), 4243, 64, 8, trial)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = pathlib.Path(irsnoma.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr[-3000:]
        assert int(run.stdout) / 40 <= 5

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
        gains = np.array([[[2.0]]])
        cfg = dataclasses.replace(SystemConfig(), num_clusters=1,
                                  users_per_cluster=1, total_users=1,
                                  num_bs_antennas=2)
        gamma, psi = sinr(gains, np.array([[0.5]]), cfg)
        assert psi[0, 0] == 0.0
        assert gamma[0, 0] == pytest.approx(
            cfg.cluster_power_w * 0.5 * 2.0 / cfg.noise_power_w, rel=1e-12)

    def test_strongest_user_has_no_intra_term(self):
        cfg, _, _, _, _, gains = build_scenario(0)
        beta = np.full(gains.shape[:-1], 0.3)
        gamma, psi = sinr(gains, beta, cfg)
        expected = (cfg.cluster_power_w * 0.3 * own_beam(gains)[:, -1]
                    / (psi[:, -1] + cfg.noise_power_w))
        np.testing.assert_allclose(gamma[:, -1], expected, rtol=1e-12)

    def test_matches_scalar_oracle_on_hand_instance(self):
        own = np.array([[0.4, 1.1], [0.2, 0.9]])
        cross = np.array([[[0.4, 0.05], [1.1, 0.2]],
                          [[0.03, 0.2], [0.07, 0.9]]])
        cross[0, :, 0] = own[0]
        cross[1, :, 1] = own[1]
        beta = np.array([[0.6, 0.2], [0.5, 0.3]])
        cfg = dataclasses.replace(SystemConfig(), num_clusters=2,
                                  users_per_cluster=2, total_users=4,
                                  num_bs_antennas=4)
        gamma, _ = sinr(cross, beta, cfg)
        for i in range(2):
            for k in range(2):
                oracle = _scalar_sinr_oracle(k, i, beta, own, cross,
                                             cfg.cluster_power_w,
                                             cfg.noise_power_w)
                assert gamma[i, k] == pytest.approx(oracle, rel=1e-12)

    def test_denominator_stays_above_noise(self):
        cfg, _, _, _, _, gains = build_scenario(1)
        beta = np.full(gains.shape[:-1], 0.4)
        gamma, psi = sinr(gains, beta, cfg)
        num = cfg.cluster_power_w * beta * own_beam(gains)
        assert np.all(num / gamma >= cfg.noise_power_w * (1 - 1e-12))

    def test_sorting_contract_enforced(self):
        cfg, _, cascaded, plan, beams, _ = build_scenario(2)
        b0 = np.ones(cfg.num_irs_elements, dtype=complex)
        effective = effective_channel(cascaded, b0)
        flipped = plan[:, ::-1]
        with pytest.raises(AssertionError):
            link_gains(effective, flipped, beams)

    def test_sorting_contract_is_checked_plan_by_plan(self):
        # plan 0 misorders users 0 and 1 by 1e-9 of its own largest power;
        # plan 1's users carry 1e6 times the power. A tolerance scaled by
        # the stack's largest power (1e-12 of plan 1's) would pass plan 0
        rng = np.random.default_rng(15)
        effective = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        effective[4:] *= 1e3
        power = np.sum(np.abs(effective) ** 2, axis=1)
        scale = power[[0, 2, 3]].max()
        effective[1] = effective[0] * np.sqrt(1.0 - 1e-9 * scale / power[0])
        power = np.sum(np.abs(effective) ** 2, axis=1)
        members = np.arange(8).reshape(2, 2, 2)
        members = np.take_along_axis(members, np.argsort(power[members], axis=-1), axis=-1)
        assert members[0, 0].tolist() == [1, 0]
        members[0, 0] = [0, 1]
        beams = rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))
        link_gains(effective, members[1], beams[1])
        with pytest.raises(AssertionError):
            link_gains(effective, members[0], beams[0])
        with pytest.raises(AssertionError):
            link_gains(effective, members, beams)
        link_gains(effective, members, beams, check_order=False)
        members[0, 0] = [1, 0]
        link_gains(effective, members, beams)


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
        cfg, _, cascaded, plan, beams, _ = build_scenario(3)
        beta = np.full((cfg.num_clusters, cfg.users_per_cluster), 0.3)
        values = []
        for theta in (0.0, 1.1):
            b = np.exp(1j * theta) * np.ones(cfg.num_irs_elements)
            eff = effective_channel(cascaded, b)
            gains = link_gains(eff, plan, beams)
            gamma, _ = sinr(gains, beta, cfg)
            values.append(energy_efficiency(gamma, beta, cfg))
        assert values[0] == pytest.approx(values[1], rel=1e-10)
