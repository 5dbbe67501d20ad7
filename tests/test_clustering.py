import numpy as np
import pytest

from irsnoma import clustering
from irsnoma.clustering import (build_difference_matrix, correlation_matrix,
                                form_clusters, random_plan)

from conftest import build_scenario


def pair_correlation(u_x, u_y):
    """The off-diagonal entry of the two-row correlation matrix."""
    return correlation_matrix(np.stack([u_x, u_y]))[0, 1]


class TestCorrelation:
    def test_parallel_vectors(self):
        u = np.array([1.0 + 2j, 3.0])
        assert pair_correlation(u, 2.5j * u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert pair_correlation(np.array([1.0, 0.0]),
                                np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_hand_inner_product(self):
        # |<[1, j], [1, 1]>| / 2 = |1 - j| / 2 = sqrt(2)/2
        u_x = np.array([1.0, 1.0j])
        u_y = np.array([1.0, 1.0])
        assert pair_correlation(u_x, u_y) == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
        assert pair_correlation(u_y, u_x) == pytest.approx(np.sqrt(2) / 2, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            pair_correlation(np.zeros(3), np.ones(3))

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
        corr = correlation_matrix(u)
        assert np.all(corr <= 1.0 + 1e-12)


class TestDifferenceMatrix:
    def test_threshold_one_gives_zero_matrix(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert not build_difference_matrix(u, 1.0).any()

    def test_threshold_zero_populates_all_pairs(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        diff = build_difference_matrix(u, 0.0)
        power = np.sum(np.abs(u) ** 2, axis=1)
        for x in range(5):
            for y in range(x + 1, 5):
                assert diff[x, y] == pytest.approx(power[x] - power[y], rel=1e-12)
        assert not np.tril(diff).any()

    def test_orthogonal_pairs_gated_out(self):
        # two parallel pairs, cross pairs orthogonal: only (0,1) and (2,3) pass
        u = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 3.0]],
                     dtype=complex)
        diff = build_difference_matrix(u, 0.5)
        assert diff[0, 1] == pytest.approx(1.0 - 4.0)
        assert diff[2, 3] == pytest.approx(1.0 - 9.0)
        for x, y in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            assert diff[x, y] == 0.0

    def test_gate_property(self):
        cfg, _, channels, _, _, _ = build_scenario(4)
        from irsnoma.channel import effective_channel
        u = effective_channel(channels.cascaded,
                              np.ones(cfg.num_irs_elements, complex))
        diff = build_difference_matrix(u, 0.7)
        corr = correlation_matrix(u)
        xs, ys = np.nonzero(diff)
        assert np.all(corr[xs, ys] > 0.7)

    def test_needs_two_users(self):
        with pytest.raises(ValueError):
            build_difference_matrix(np.ones((1, 3), dtype=complex), 0.5)

    def test_pool_mask_is_the_read_only_strict_upper_triangle(self):
        # one mask per pool size is shared by every plan of that size
        u = np.ones((7, 2), dtype=complex) * np.arange(1, 8)[:, None]
        build_difference_matrix(u, 0.5)
        mask = clustering._upper(7)
        assert np.array_equal(mask, np.triu(np.ones((7, 7), dtype=bool), k=1))
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 1] = False


class TestFormClusters:
    def test_greedy_pairs_extreme_gains_first(self):
        # four nearly parallel users with norms^2 = 4, 3, 2, 1: the largest
        # gain difference pairs user 0 with user 3, the rest form cluster 2
        base = np.array([1.0, 0.5, 0.25])
        scales = np.sqrt(np.array([4.0, 3.0, 2.0, 1.0]) / np.sum(base ** 2))
        u = np.outer(scales, base).astype(complex)
        plan = form_clusters(u, 2, 2, 0.7)
        assert sorted(plan[0].tolist()) == [0, 3]
        assert sorted(plan[1].tolist()) == [1, 2]
        # weakest first inside each cluster
        assert plan[0][0] == 3
        assert plan[1][0] == 2

    def test_all_zero_matrix_pairs_lowest_indices(self):
        # all pairs orthogonal, so no gate passes: each cluster takes the two
        # lowest-indexed available users, equal powers keep their order
        u = np.eye(5, dtype=complex)
        plan = form_clusters(u, 2, 2, 0.9)
        assert plan.tolist() == [[0, 1], [2, 3]]

    def test_triple_cluster_growth(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        plan = form_clusters(u, 1, 3, 0.7)
        assert plan.shape == (1, 3)
        power = np.sum(np.abs(u) ** 2, axis=1)
        ordered = power[plan[0]]
        assert np.all(np.diff(ordered) >= 0)

    def test_plan_invariants(self):
        cfg, _, channels, plan, _, _ = build_scenario(6)
        members = plan.ravel()
        assert len(set(members.tolist())) == members.size
        assert members.size == cfg.num_clusters * cfg.users_per_cluster

    def test_not_enough_users_rejected(self):
        u = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            form_clusters(u, 2, 2, 0.5)

    def test_beats_random_pairing_on_average(self):
        from irsnoma.channel import effective_channel
        from irsnoma.config import SystemConfig
        from irsnoma.channel import draw_user_geometry, synthesize_channels

        cfg = SystemConfig()
        wins = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            geo = draw_user_geometry(cfg, rng)
            ch = synthesize_channels(cfg, geo, rng)
            u = effective_channel(ch.cascaded,
                                  np.ones(cfg.num_irs_elements, complex))
            corr = correlation_matrix(u)
            greedy = form_clusters(u, cfg.num_clusters, cfg.users_per_cluster,
                                   cfg.correlation_threshold)
            rand = random_plan(u, cfg.num_clusters, cfg.users_per_cluster, rng)
            mean_corr = lambda plan: np.mean(
                [corr[m[0], m[1]] for m in plan])
            wins.append(mean_corr(greedy) - mean_corr(rand))
        assert np.mean(wins) > 0.0


class TestRandomPlan:
    def test_shapes_and_order(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        plan = random_plan(u, 3, 2, rng)
        assert plan.shape == (3, 2)
        power = np.sum(np.abs(u) ** 2, axis=1)
        for row in plan:
            assert power[row[0]] <= power[row[1]]
