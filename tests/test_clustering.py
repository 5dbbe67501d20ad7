import itertools

import numpy as np
import pytest

from irsnoma import clustering
from irsnoma.clustering import correlation_matrix, form_clusters, random_plan

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
    """The correlation gate on the gain differences, read through the plan."""

    def test_threshold_one_gives_zero_matrix(self):
        # no correlation clears 1, so the walk starts at the first relaxed
        # gate, 0.95
        rng = np.random.default_rng(1)
        u = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        assert np.array_equal(form_clusters(u, 3, 2, 1.0), form_clusters(u, 3, 2, 0.95))

    def test_threshold_zero_populates_all_pairs(self):
        # every pair of nonzero correlation clears a zero gate, so the plan
        # pairs users by their gain difference alone
        rng = np.random.default_rng(2)
        u = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        power = np.sum(np.abs(u) ** 2, axis=1)
        free, want = set(range(5)), []
        for _ in range(2):
            pair = max(itertools.combinations(sorted(free), 2),
                       key=lambda p: abs(power[p[0]] - power[p[1]]))
            want.append(sorted(pair, key=power.__getitem__))
            free -= set(pair)
        assert form_clusters(u, 2, 2, 0.0).tolist() == want

    def test_orthogonal_pairs_gated_out(self):
        # two parallel pairs, cross pairs orthogonal: only (0,1) and (2,3)
        # pass, though (0,3) ties (2,3) for the largest difference
        u = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 3.0]],
                     dtype=complex)
        assert form_clusters(u, 1, 2, 0.5).tolist() == [[2, 3]]
        assert form_clusters(u, 2, 2, 0.5).tolist() == [[2, 3], [0, 1]]

    def test_gate_property(self):
        cfg, _, cascaded, plan, _, _ = build_scenario(4)
        from irsnoma.channel import effective_channel
        u = effective_channel(cascaded, np.ones(cfg.num_irs_elements, complex))
        corr = correlation_matrix(u)
        assert np.all(corr[plan[:, 0], plan[:, 1]] > cfg.correlation_threshold)

    def test_needs_two_users(self):
        with pytest.raises(ValueError):
            form_clusters(np.ones((1, 3), dtype=complex), 1, 2, 0.5)

    def test_pool_mask_is_the_read_only_strict_upper_triangle(self):
        # one mask per pool size is shared by every plan of that size
        u = np.ones((7, 2), dtype=complex) * np.arange(1, 8)[:, None]
        clustering._upper.cache_clear()
        form_clusters(u, 2, 2, 0.5)
        form_clusters(u[::-1], 3, 2, 0.5)
        assert clustering._upper.cache_info().misses == 1
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

    @staticmethod
    def _two_band_stack():
        # two orthogonal blocks; no pair clears 0.9, the small-difference pair
        # (0, 1) clears the first relaxed gate 0.85 and the large-difference
        # pair (2, 3) only the second, 0.8
        u = np.zeros((4, 4), dtype=complex)
        u[0, 0] = u[2, 2] = 1.0
        u[1, :2] = np.sqrt(1.5) * np.array([0.87, np.sqrt(1.0 - 0.87 ** 2)])
        u[3, 2:] = np.sqrt(10.0) * np.array([0.82, np.sqrt(1.0 - 0.82 ** 2)])
        return u

    def test_gate_comes_before_magnitude(self):
        # the stricter gate seeds first
        u = self._two_band_stack()
        assert form_clusters(u, 1, 2, 0.9).tolist() == [[0, 1]]
        assert form_clusters(u, 2, 2, 0.9).tolist() == [[0, 1], [2, 3]]
        # at a gate both clear, the larger difference seeds first
        assert form_clusters(u, 1, 2, 0.8).tolist() == [[2, 3]]

    def test_lower_gate_ranked_only_when_reached(self):
        u = self._two_band_stack()
        power = np.sum(np.abs(u) ** 2, axis=1)
        walk = clustering._ranked_pairs(power, correlation_matrix(u), 0.9)
        # the ladder's own float steps: 0.9 - 0.05 - 0.05 is 0.7999999999999999
        assert next(walk) == (0, 1)
        assert walk.gi_frame.f_locals["gate"] == 0.9 - 0.05
        assert next(walk) == (2, 3)
        assert walk.gi_frame.f_locals["gate"] == 0.9 - 0.05 - 0.05

    def test_equal_differences_break_row_major(self):
        # (0, 3) and (1, 2) are parallel pairs with the same difference 3,
        # cross pairs orthogonal: the lower row seeds first, at the threshold
        # and at a relaxed gate (parallel rows correlate at 1, not above it)
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0], [2.0, 0.0]],
                     dtype=complex)
        for threshold in (0.5, 1.0):
            assert form_clusters(u, 1, 2, threshold).tolist() == [[0, 3]]
            assert form_clusters(u, 2, 2, threshold).tolist() == [[0, 3], [1, 2]]

    def test_triple_cluster_growth(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        plan = form_clusters(u, 1, 3, 0.7)
        assert plan.shape == (1, 3)
        power = np.sum(np.abs(u) ** 2, axis=1)
        ordered = power[plan[0]]
        assert np.all(np.diff(ordered) >= 0)

    def test_plan_invariants(self):
        cfg, _, cascaded, plan, _, _ = build_scenario(6)
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
            cascaded = synthesize_channels(cfg, geo, rng)
            u = effective_channel(cascaded, np.ones(cfg.num_irs_elements, complex))
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
