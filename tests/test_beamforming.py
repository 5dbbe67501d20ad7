import dataclasses

import numpy as np
import pytest

from irsnoma.beamforming import NullSpaceError, build_zf_beamformers
from irsnoma.channel import effective_channel, link_gains, sinr
from irsnoma.clustering import random_plan
from irsnoma.config import SystemConfig

from conftest import build_scenario


def test_orthogonal_channels_keep_their_directions():
    strong = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    beams = build_zf_beamformers(strong)
    np.testing.assert_allclose(np.abs(beams), np.eye(2), atol=1e-12)


def test_zero_forcing_residual_and_norms():
    rng = np.random.default_rng(0)
    for _ in range(20):
        strong = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        beams = build_zf_beamformers(strong)
        np.testing.assert_allclose(np.linalg.norm(beams, axis=1), 1.0,
                                   atol=1e-12)
        cross = strong @ beams.T        # (j, i) = u_j f_i
        off = cross - np.diag(np.diag(cross))
        assert np.abs(off).max() < 1e-9


def test_rank_one_projector_oracle():
    # M = 3, I = 2: the beam is the projection of u1 onto the complement of u2
    rng = np.random.default_rng(1)
    for _ in range(10):
        strong = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        beams = build_zf_beamformers(strong)
        v = strong[1].conj()
        projector = np.eye(3) - np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
        expected = projector @ strong[0].conj()
        expected /= np.linalg.norm(expected)
        # equal up to a global phase
        alignment = abs(np.vdot(expected, beams[0]))
        assert alignment == pytest.approx(1.0, abs=1e-10)


def test_empty_null_space_is_structured_error():
    strong = np.ones((3, 2), dtype=complex)   # M = 2 <= I - 1 = 2
    with pytest.raises(NullSpaceError):
        build_zf_beamformers(strong)


def test_degenerate_stack_names_cluster():
    strong = np.array([[1.0, 0.0, 0.0],
                       [1.0, 0.0, 0.0],
                       [0.0, 1.0, 0.0]], dtype=complex)
    with pytest.raises(NullSpaceError) as err:
        build_zf_beamformers(strong)
    assert err.value.cluster_index in (0, 1)


def test_strong_users_see_no_interference_weak_users_do():
    cfg, _, _, _, _, gains = build_scenario(0)
    beta = np.full(gains.shape[:-1], 0.3)
    _, psi = sinr(gains, beta, cfg)
    # leakage per term at the shaping user is numerically zero
    num_clusters = gains.shape[0]
    for i in range(num_clusters):
        for j in range(num_clusters):
            if j != i:
                assert gains[i, -1, j] < 1e-16
    assert np.all(psi[:, -1] < 1e-15)
    assert np.any(psi[:, 0] > 0.0)


def test_beam_invariant_under_channel_scaling():
    rng = np.random.default_rng(2)
    strong = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    base = build_zf_beamformers(strong)
    scaled = strong.copy()
    scaled[0] *= 7.5
    again = build_zf_beamformers(scaled)
    assert abs(np.vdot(base[0], again[0])) == pytest.approx(
        1.0, abs=1e-10)


def _plan_stacks():
    """Per draw: the effective channels and three plans' (I, K) members, the
    clustered plan first, for ZF draws at N = 16, 32, 64, K = 1 and 3, and
    I = 9 with M = 12."""
    configs = [dataclasses.replace(SystemConfig(), num_irs_elements=n) for n in (16, 32, 64)]
    configs += [dataclasses.replace(SystemConfig(), users_per_cluster=k) for k in (1, 3)]
    configs.append(dataclasses.replace(SystemConfig(), num_clusters=9, num_bs_antennas=12))
    for cfg in configs:
        for seed in range(3):
            _, rng, cascaded, plan, _, _ = build_scenario(seed, config=cfg)
            effective = effective_channel(cascaded,
                                          np.ones(cfg.num_irs_elements, dtype=complex))
            members = [plan] + [
                random_plan(effective, cfg.num_clusters, cfg.users_per_cluster, rng)
                for _ in range(2)]
            yield effective, np.stack(members), rng


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestPlanAxis:
    def test_stacks_give_each_plans_own_bytes(self):
        # a 2- and a 3-plan stack of ZF beams and gains, and of gains on
        # random beams, read plan by plan the bytes of per-plan calls
        for effective, members, rng in _plan_stacks():
            strong = effective[members[..., -1]]
            shape = strong.shape
            random_beams = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            random_beams /= np.linalg.norm(random_beams, axis=-1, keepdims=True)
            for plans in (2, 3):
                zf = build_zf_beamformers(strong[:plans])
                for beams in (zf, random_beams[:plans]):
                    gains = link_gains(effective, members[:plans], beams)
                    for p in range(plans):
                        alone = link_gains(effective, members[p], beams[p])
                        _same_bytes(gains[p], alone)
                for p in range(plans):
                    _same_bytes(zf[p], build_zf_beamformers(strong[p]))

    def test_stack_raises_its_first_failing_plans_error(self):
        rng = np.random.default_rng(14)
        good, rank_two, rank_zero, tilted = (
            rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)) for _ in range(4))
        rank_two[3] = 2.0 * rank_two[2]            # rank-deficient: cluster 2 alone
        rank_zero[1] = 3.0 * rank_zero[0]          # rank-deficient: cluster 0 alone
        tilted[1] = tilted[3] + 1e-12 * tilted[1]  # full rank, but beam 1 is no beam
        alone = {}
        for name, strong in (("rank_two", rank_two), ("rank_zero", rank_zero),
                             ("tilted", tilted)):
            with pytest.raises(NullSpaceError) as err:
                build_zf_beamformers(strong)
            alone[name] = err.value
        assert [e.cluster_index for e in alone.values()] == [2, 0, 1]
        for stack, first in (((good, rank_two, rank_zero), "rank_two"),
                             ((good, rank_zero, rank_two), "rank_zero"),
                             ((tilted, good, rank_zero), "tilted"),
                             ((good, good, rank_zero, tilted), "rank_zero")):
            for strong in (np.stack(stack), np.stack(stack + stack).reshape(2, -1, 4, 6)):
                with pytest.raises(NullSpaceError) as err:
                    build_zf_beamformers(strong)
                assert type(err.value) is NullSpaceError
                assert err.value.cluster_index == alone[first].cluster_index
                assert str(err.value) == str(alone[first])
        with pytest.raises(NullSpaceError) as err:
            build_zf_beamformers(np.ones((2, 3, 2), dtype=complex))   # M <= I - 1
        assert (err.value.cluster_index, str(err.value)) == (
            0, "cluster 0: need M > I - 1, got M=2, I=3")
