"""The batched front end against the per-cluster code it replaced.

``build_zf_beamformers`` runs one SVD over every cluster's block and
``form_clusters`` masks one whole-pool gated matrix. The reference
functions below are the per-cluster loop and the subset rebuild they
replaced, kept verbatim, and the batched code must give the same bits.
"""

import dataclasses

import numpy as np
import pytest

from irsnoma.beamforming import NullSpaceError, build_zf_beamformers
from irsnoma.channel import (draw_user_geometry, effective_channel,
                             synthesize_channels)
from irsnoma.clustering import (_argmax_pair, build_difference_matrix,
                                correlation_matrix, form_clusters, random_plan)
from irsnoma.config import SystemConfig

from conftest import build_scenario


def _zf_reference(strong_channels):
    """One SVD and one projection per cluster."""
    num_clusters, m = strong_channels.shape
    if m <= num_clusters - 1:
        raise NullSpaceError(0, f"need M > I - 1, got M={m}, I={num_clusters}")
    vectors = np.zeros((num_clusters, m), dtype=complex)
    for i in range(num_clusters):
        others = np.delete(strong_channels, i, axis=0)
        if others.size:
            _, svals, vh = np.linalg.svd(others, full_matrices=True)
            tol = max(m, num_clusters) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
            rank = int(np.sum(svals > tol))
            basis = vh[rank:].conj().T
        else:
            basis = np.eye(m, dtype=complex)
        if basis.shape[1] == 0:
            raise NullSpaceError(i, "empty null space (rank-deficient channel stack)")
        beam = basis @ (basis.conj().T @ strong_channels[i].conj())
        norm = np.linalg.norm(beam)
        if norm <= 1e-10 * np.linalg.norm(strong_channels[i]):
            raise NullSpaceError(i, "strongest-user channel lies in the span of the others")
        vectors[i] = beam / norm
    return vectors


def _clusters_reference(effective, num_clusters, users_per_cluster, threshold,
                        rng, counts):
    """Greedy clustering that rebuilds the gated matrix on the pool per cluster.

    ``counts`` collects how often the gate was relaxed and how often the
    random fallback fired, so that the tests can show they cover both.
    """
    v = effective.shape[0]
    power = np.sum(np.abs(effective) ** 2, axis=1)
    corr = correlation_matrix(effective)
    available = np.ones(v, dtype=bool)
    members = np.zeros((num_clusters, users_per_cluster), dtype=int)
    if users_per_cluster == 1:
        order = np.argsort(-power, kind="stable")[:num_clusters]
        members[:, 0] = np.sort(order)
        return members, np.setdiff1d(np.arange(v), members[:, 0])
    for i in range(num_clusters):
        pool = np.flatnonzero(available)
        gate = threshold
        pair = None
        while pair is None:
            diff = build_difference_matrix(effective[pool], gate)
            x, y, mag = _argmax_pair(diff)
            if mag > 0.0:
                pair = (pool[x], pool[y])
            elif gate > 0.0:
                gate = max(gate - 0.05, 0.0)
                counts["relaxed"] += 1
            else:
                pick = rng.choice(pool, size=2, replace=False)
                pair = (int(pick[0]), int(pick[1]))
                counts["random"] += 1
        cluster = [pair[0], pair[1]]
        available[list(cluster)] = False
        while len(cluster) < users_per_cluster:
            strongest = cluster[int(np.argmax(power[cluster]))]
            pool = np.flatnonzero(available)
            grow_gate = gate
            chosen = None
            while chosen is None:
                eligible = pool[corr[strongest, pool] > grow_gate]
                if eligible.size:
                    chosen = int(eligible[np.argmax(corr[strongest, eligible])])
                elif grow_gate > 0.0:
                    grow_gate = max(grow_gate - 0.05, 0.0)
                else:
                    chosen = int(rng.choice(pool))
            cluster.append(chosen)
            available[chosen] = False
        order = np.argsort(power[cluster], kind="stable")
        members[i] = np.asarray(cluster)[order]
    return members, np.flatnonzero(available)


def _effective_draws(seeds, sizes=(16, 64)):
    for seed in seeds:
        for n in sizes:
            cfg = dataclasses.replace(SystemConfig(), num_irs_elements=n)
            rng = np.random.default_rng(seed)
            channels = synthesize_channels(cfg, draw_user_geometry(cfg, rng), rng)
            yield effective_channel(channels.cascaded, np.ones(n, dtype=complex))


def _assert_same_plan(effective, num_clusters, users_per_cluster, threshold,
                      seed, counts):
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    members, leftover = _clusters_reference(effective, num_clusters,
                                            users_per_cluster, threshold,
                                            rng_ref, counts)
    plan = form_clusters(effective, num_clusters, users_per_cluster, threshold, rng)
    assert np.array_equal(plan.members, members)
    assert np.array_equal(plan.leftover, leftover)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestZeroForcingOracle:
    def test_random_stacks_bitwise(self):
        rng = np.random.default_rng(11)
        shapes = [(5, 8)] * 250 + [(1, 3)] * 20 + [(2, 3)] * 20
        for shape in shapes:
            strong = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.array_equal(build_zf_beamformers(strong).vectors,
                                  _zf_reference(strong))

    def test_scenario_draws_bitwise(self):
        for seed in range(20):
            for n in (16, 64):
                base = dataclasses.replace(SystemConfig(), num_irs_elements=n)
                _, _, channels, plan, beams, _ = build_scenario(seed, config=base)
                effective = effective_channel(channels.cascaded,
                                              np.ones(n, dtype=complex))
                strong = effective[plan.members[:, -1]]
                assert np.array_equal(beams.vectors, _zf_reference(strong))

    def test_degenerate_stacks_same_error_or_close_beams(self):
        # exactly dependent rows give blocks of different ranks; the masked
        # columns change the product's summation length, so beams agree to
        # rounding here rather than bitwise. A dependent row lies in the
        # span of the others, so on these stacks both raise
        rng = np.random.default_rng(12)
        for _ in range(60):
            strong = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            strong[1] = 2.0 * strong[0] if rng.random() < 0.5 else strong[0] + strong[2]
            try:
                want = _zf_reference(strong)
            except NullSpaceError as err:
                with pytest.raises(NullSpaceError) as got:
                    build_zf_beamformers(strong)
                assert got.value.cluster_index == err.cluster_index
                continue
            np.testing.assert_allclose(build_zf_beamformers(strong).vectors, want,
                                       rtol=0.0, atol=1e-12)
        hand = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                        dtype=complex)
        with pytest.raises(NullSpaceError) as got:
            build_zf_beamformers(hand)
        assert got.value.cluster_index == 0

    def test_strongest_user_in_span_of_others_raises(self):
        # u_1 = 2 u_0: the rounding noise left of beam 0 is no beam
        rng = np.random.default_rng(13)
        for _ in range(100):
            strong = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            strong[1] = 2.0 * strong[0]
            with pytest.raises(NullSpaceError) as want:
                _zf_reference(strong)
            with pytest.raises(NullSpaceError) as got:
                build_zf_beamformers(strong)
            assert got.value.cluster_index == want.value.cluster_index


class TestClusteringOracle:
    def test_scenario_draws(self):
        counts = {"relaxed": 0, "random": 0}
        cfg = SystemConfig()
        for k, effective in enumerate(_effective_draws(range(60))):
            _assert_same_plan(effective, cfg.num_clusters, cfg.users_per_cluster,
                              cfg.correlation_threshold, k, counts)

    def test_triple_growth(self):
        counts = {"relaxed": 0, "random": 0}
        for k, effective in enumerate(_effective_draws(range(30))):
            _assert_same_plan(effective, 5, 3, 0.7, k, counts)
            _assert_same_plan(effective, 10, 3, 0.9, k, counts)

    def test_relaxed_gate(self):
        counts = {"relaxed": 0, "random": 0}
        for k, effective in enumerate(_effective_draws(range(30))):
            _assert_same_plan(effective, 15, 2, 0.99, k, counts)
        assert counts["relaxed"] > 0

    def test_random_fallback(self):
        # orthogonal users pass no gate, not even a fully relaxed one
        counts = {"relaxed": 0, "random": 0}
        for seed in range(20):
            _assert_same_plan(np.eye(8, dtype=complex), 3, 2, 0.9, seed, counts)
            _assert_same_plan(np.eye(9, dtype=complex), 3, 3, 0.5, seed, counts)
        assert counts["random"] > 0

    def test_single_user_clusters(self):
        counts = {"relaxed": 0, "random": 0}
        for k, effective in enumerate(_effective_draws(range(10), sizes=(16,))):
            _assert_same_plan(effective, 5, 1, 0.7, k, counts)

    def test_random_plan_leftover(self):
        for k, effective in enumerate(_effective_draws(range(10), sizes=(16,))):
            plan = random_plan(effective, 5, 2, np.random.default_rng(k))
            picked = np.random.default_rng(k).choice(effective.shape[0], size=10,
                                                     replace=False)
            assert np.array_equal(plan.leftover,
                                  np.setdiff1d(np.arange(effective.shape[0]), picked))
