"""The front end against the per-cluster code it replaced.

``build_zf_beamformers`` reads every beam from one pseudo-inverse of the
strongest-user stack, and ``form_clusters`` takes each cluster's pair from
one walk down a single order of the whole pool's pairs and grows a cluster
with one argmax. The reference functions below are the per-cluster loop,
the subset rebuild and the gate-relaxing growth loop they replaced, kept
verbatim but for the clustering's last resorts, which take the
lowest-indexed available users. The subset rebuild keeps its own
correlations, gated difference matrix and row-major argmax, so a change to
the correlation, the gate ladder or the tie rule in ``irsnoma.clustering``
cannot move the reference with it. The clustering must give the same bits;
the beams agree to 1e-13, since the pseudo-inverse rounds differently from
the per-cluster projections, and raise the same error.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsnoma.beamforming import NullSpaceError, build_zf_beamformers
from irsnoma.channel import (draw_user_geometry, effective_channel,
                             synthesize_channels)
from irsnoma.clustering import form_clusters, random_plan
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


def _correlation_reference(effective):
    """All pairwise correlations of the (V, M) stack."""
    conj = effective.conj()
    norms = np.sqrt(np.add.reduce((conj * effective).real, axis=1))
    if (norms == 0.0).any():
        raise ValueError("correlation undefined for a zero channel vector")
    return np.abs(conj @ effective.T) / (norms[:, None] * norms)


def _difference_reference(effective, threshold):
    """Upper-triangular gain differences, zero where the correlation does
    not clear ``threshold``."""
    power = np.sum(np.abs(effective) ** 2, axis=1)
    diff = power[:, None] - power[None, :]
    gated = np.where(_correlation_reference(effective) > threshold, diff, 0.0)
    return np.triu(gated, k=1)


def _argmax_pair_reference(matrix):
    # first max in row-major order, i.e. lowest (x, y) on ties
    flat = int(np.argmax(np.abs(matrix)))
    x, y = divmod(flat, matrix.shape[1])
    return x, y, float(abs(matrix[x, y]))


def _clusters_reference(effective, num_clusters, users_per_cluster, threshold,
                        counts):
    """Greedy clustering that rebuilds the gated matrix on the pool per cluster
    and grows a cluster by relaxing the correlation gate.

    ``counts`` collects how often the gate was relaxed and how often a last
    resort fired, so that the tests can show they cover both.
    """
    v = effective.shape[0]
    power = np.sum(np.abs(effective) ** 2, axis=1)
    corr = _correlation_reference(effective)
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
            diff = _difference_reference(effective[pool], gate)
            x, y, mag = _argmax_pair_reference(diff)
            if mag > 0.0:
                pair = (pool[x], pool[y])
            elif gate > 0.0:
                gate = max(gate - 0.05, 0.0)
                counts["relaxed"] += 1
            else:
                pair = (int(pool[0]), int(pool[1]))
                counts["last_resort"] += 1
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
                    chosen = int(pool[0])
                    counts["last_resort"] += 1
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
            cascaded = synthesize_channels(cfg, draw_user_geometry(cfg, rng), rng)
            yield effective_channel(cascaded, np.ones(n, dtype=complex))


def _assert_same_plan(effective, num_clusters, users_per_cluster, threshold,
                      counts):
    members, leftover = _clusters_reference(effective, num_clusters,
                                            users_per_cluster, threshold, counts)
    plan = form_clusters(effective, num_clusters, users_per_cluster, threshold)
    assert np.array_equal(plan, members)
    assert np.array_equal(np.setdiff1d(np.arange(len(effective)), plan), leftover)


class TestZeroForcingOracle:
    def test_random_stacks_within_1e_13(self):
        rng = np.random.default_rng(11)
        shapes = [(5, 8)] * 250 + [(1, 3)] * 20 + [(2, 3)] * 20
        for shape in shapes:
            strong = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            np.testing.assert_allclose(build_zf_beamformers(strong),
                                       _zf_reference(strong), rtol=0.0, atol=1e-13)

    def test_scenario_draws_within_1e_13(self):
        for seed in range(20):
            for n in (16, 64):
                base = dataclasses.replace(SystemConfig(), num_irs_elements=n)
                _, _, cascaded, plan, beams, _ = build_scenario(seed, config=base)
                effective = effective_channel(cascaded, np.ones(n, dtype=complex))
                strong = effective[plan[:, -1]]
                np.testing.assert_allclose(beams, _zf_reference(strong),
                                           rtol=0.0, atol=1e-13)

    def test_degenerate_stacks_same_error_or_close_beams(self):
        # a row set to 2 u_0 or u_0 + u_2 lies in the span of the others, so
        # the stack is rank-deficient and both raise, at the same cluster
        # (all 60 stacks here do). Should the rounding of u_0 + u_2 leave a
        # stack numerically full rank, neither raises, and beams built from
        # so near-singular a stack agree only to 1e-12
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
            np.testing.assert_allclose(build_zf_beamformers(strong), want,
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


def _stacks(min_clusters):
    """(I, M) with min_clusters <= I <= M <= 12, and a seed for the entries."""
    shapes = st.integers(min_clusters, 12).flatmap(
        lambda m: st.tuples(st.integers(min_clusters, m), st.just(m)))
    return st.tuples(shapes, st.integers(0, 2**32 - 1))


def _gaussian_stack(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestZeroForcingProperties:
    @settings(max_examples=200, deadline=None)
    @given(stack=_stacks(1))
    def test_contract(self, stack):
        strong = _gaussian_stack(*stack)
        beams = build_zf_beamformers(strong)
        np.testing.assert_allclose(np.linalg.norm(beams, axis=1), 1.0,
                                   rtol=0.0, atol=1e-12)
        gain = strong @ beams.T                  # (j, i) = u_j f_i
        leak = np.abs(gain) / np.linalg.norm(strong, axis=1)[:, None]
        assert np.all(leak[~np.eye(len(strong), dtype=bool)] <= 1e-10)
        own = np.diag(gain)
        assert np.all(own.real > 0.0)
        assert np.all(np.abs(own.imag) <= 1e-12 * own.real)
        np.testing.assert_allclose(beams, _zf_reference(strong), rtol=0.0, atol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(stack=_stacks(2), rows=st.permutations(range(12)), summed=st.booleans(),
           scale=st.just(0j) | st.complex_numbers(min_magnitude=1e-3,
                                                  max_magnitude=1e3),
           tilt=st.sampled_from([0.0, 1e-12]))
    def test_dependent_row_raises_as_reference(self, stack, rows, summed, scale, tilt):
        # row j becomes u_k + u_l (given three rows) or c u_k. A relative
        # tilt of 1e-12 along u_j keeps the stack numerically full rank, so
        # the beam-norm test must raise rather than the rank test
        strong = _gaussian_stack(*stack)
        j, k, *rest = [r for r in rows if r < len(strong)]
        row = strong[k] + strong[rest[0]] if summed and rest else scale * strong[k]
        tilt *= np.linalg.norm(row) / np.linalg.norm(strong[j])
        strong[j] = row + tilt * strong[j]
        with pytest.raises(NullSpaceError) as want:
            _zf_reference(strong)
        with pytest.raises(NullSpaceError) as got:
            build_zf_beamformers(strong)
        assert got.value.cluster_index == want.value.cluster_index


@st.composite
def _cluster_inputs(draw):
    """A channel stack of V <= 12 users, possibly degenerate, a plan that
    fits it and a gate. Rows may repeat, fall in mutually orthogonal
    coordinate blocks, or share one power."""
    v, m = draw(st.integers(2, 12)), draw(st.integers(1, 6))
    users = draw(st.sampled_from([k for k in (1, 2, 3) if k <= v]))
    clusters = draw(st.integers(1, v // users))
    gate = draw(st.floats(0.0, 1.0))
    stack = _gaussian_stack((v, m), draw(st.integers(0, 2**32 - 1)))
    stack = stack[draw(st.lists(st.integers(0, v - 1), min_size=v, max_size=v))]
    blocks = draw(st.integers(1, m))
    row_block = np.array(draw(st.lists(st.integers(0, blocks - 1),
                                       min_size=v, max_size=v)))
    stack = stack * (np.arange(m)[None, :] % blocks == row_block[:, None])
    if draw(st.booleans()):
        stack /= np.linalg.norm(stack, axis=1, keepdims=True)
    return stack, clusters, users, gate


class TestClusteringOracle:
    def test_scenario_draws(self):
        counts = {"relaxed": 0, "last_resort": 0}
        cfg = SystemConfig()
        for effective in _effective_draws(range(60)):
            _assert_same_plan(effective, cfg.num_clusters, cfg.users_per_cluster,
                              cfg.correlation_threshold, counts)

    def test_triple_growth(self):
        counts = {"relaxed": 0, "last_resort": 0}
        for effective in _effective_draws(range(30)):
            _assert_same_plan(effective, 5, 3, 0.7, counts)
            _assert_same_plan(effective, 10, 3, 0.9, counts)

    def test_relaxed_gate(self):
        counts = {"relaxed": 0, "last_resort": 0}
        for effective in _effective_draws(range(30)):
            _assert_same_plan(effective, 15, 2, 0.99, counts)
        assert counts["relaxed"] > 0

    def test_last_resort(self):
        # orthogonal users pass no gate, not even a fully relaxed one: a pair
        # is the two lowest-indexed available users, and growth takes the
        # first available one
        counts = {"relaxed": 0, "last_resort": 0}
        _assert_same_plan(np.eye(8, dtype=complex), 3, 2, 0.9, counts)
        _assert_same_plan(np.eye(9, dtype=complex), 3, 3, 0.5, counts)
        assert counts["last_resort"] == 9
        plan = form_clusters(np.eye(8, dtype=complex), 3, 2, 0.9)
        assert plan.tolist() == [[0, 1], [2, 3], [4, 5]]
        assert np.setdiff1d(np.arange(8), plan).tolist() == [6, 7]
        plan = form_clusters(np.eye(9, dtype=complex), 3, 3, 0.5)
        assert plan.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert np.setdiff1d(np.arange(9), plan).size == 0

    def test_single_user_clusters(self):
        counts = {"relaxed": 0, "last_resort": 0}
        for effective in _effective_draws(range(10), sizes=(16,)):
            _assert_same_plan(effective, 5, 1, 0.7, counts)

    @settings(max_examples=300, deadline=None)
    @given(inputs=_cluster_inputs())
    def test_small_stacks(self, inputs):
        effective, clusters, users, gate = inputs
        _assert_same_plan(effective, clusters, users, gate,
                          {"relaxed": 0, "last_resort": 0})
        plan = form_clusters(effective, clusters, users, gate)
        power = np.sum(np.abs(effective) ** 2, axis=1)
        assert plan.shape == (clusters, users)
        assert len(set(plan.ravel().tolist())) == plan.size
        assert np.all(np.diff(power[plan], axis=1) >= 0.0)

    def test_random_plan_leftover(self):
        for k, effective in enumerate(_effective_draws(range(10), sizes=(16,))):
            plan = random_plan(effective, 5, 2, np.random.default_rng(k))
            picked = np.random.default_rng(k).choice(effective.shape[0], size=10,
                                                     replace=False)
            assert np.array_equal(np.setdiff1d(np.arange(effective.shape[0]), plan),
                                  np.setdiff1d(np.arange(effective.shape[0]), picked))
