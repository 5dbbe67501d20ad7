"""User clustering from channel correlation and gain separation.

Users sharing a beam should be strongly correlated (so one beamformer fits
both) while having clearly separated channel gains (so superposition-coded
decoding works). Pairs are picked greedily by the largest gain difference
among pairs whose correlation clears a threshold; when the gate starves,
the threshold is relaxed in 0.05 steps and the final resort is random
pairing, so a plan is always produced. The gated matrix is built once per
plan on the whole pool, and a taken user's row and column are zeroed; pool
indices ascend, so ties break as on a matrix of the available users alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClusterPlan:
    """Cluster membership: (I, K) user indices, weakest channel first."""

    members: np.ndarray        # (I, K) int
    leftover: np.ndarray       # users not served this round


def correlation(u_x: np.ndarray, u_y: np.ndarray) -> float:
    """|<u_x, u_y>| / (||u_x|| ||u_y||), in [0, 1] by Cauchy-Schwarz."""
    nx = np.linalg.norm(u_x)
    ny = np.linalg.norm(u_y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("correlation undefined for a zero channel vector")
    return float(np.abs(np.vdot(u_x, u_y)) / (nx * ny))


def correlation_matrix(effective: np.ndarray) -> np.ndarray:
    """All pairwise correlations of the (V, M) effective channel stack."""
    norms = np.linalg.norm(effective, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("correlation undefined for a zero channel vector")
    gram = effective.conj() @ effective.T
    return np.abs(gram) / np.outer(norms, norms)


def build_difference_matrix(effective: np.ndarray, threshold: float) -> np.ndarray:
    """Upper-triangular gain differences gated by correlation.

    Entry (x, y) with y > x holds ||u_x||^2 - ||u_y||^2 when the pair's
    correlation exceeds ``threshold``, else 0. Lower triangle and diagonal
    are zero.
    """
    v = effective.shape[0]
    if v < 2:
        raise ValueError("need at least two users")
    power = np.sum(np.abs(effective) ** 2, axis=1)
    return _gated_differences(power, correlation_matrix(effective), threshold)


def _gated_differences(power: np.ndarray, corr: np.ndarray,
                       threshold: float) -> np.ndarray:
    diff = power[:, None] - power[None, :]
    gated = np.where(corr > threshold, diff, 0.0)
    return np.triu(gated, k=1)


def _argmax_pair(matrix: np.ndarray) -> tuple[int, int, float]:
    # first max in row-major order, i.e. lowest (x, y) on ties
    flat = int(np.argmax(np.abs(matrix)))
    x, y = divmod(flat, matrix.shape[1])
    return x, y, float(abs(matrix[x, y]))


def form_clusters(effective: np.ndarray, num_clusters: int, users_per_cluster: int,
                  threshold: float, rng: np.random.Generator) -> ClusterPlan:
    """Greedy gain-difference clustering over the available user pool.

    Repeats ``num_clusters`` times: seed a cluster with the pair of largest
    gated |gain difference|, then (for K > 2) grow it with the available
    user best correlated to the cluster's strongest member. Selected users
    are removed from the pool. Relaxation and random fallbacks keep the
    plan well defined on degenerate inputs.
    """
    v = effective.shape[0]
    if num_clusters * users_per_cluster > v:
        raise ValueError("not enough users for the requested plan")
    power = np.sum(np.abs(effective) ** 2, axis=1)
    corr = correlation_matrix(effective)
    available = np.ones(v, dtype=bool)
    members = np.zeros((num_clusters, users_per_cluster), dtype=int)

    if users_per_cluster == 1:
        # degenerate: no pairing, serve the strongest users one per beam
        order = np.argsort(-power, kind="stable")[:num_clusters]
        members[:, 0] = np.sort(order)
        available[order] = False
        return ClusterPlan(members=members, leftover=np.flatnonzero(available))

    gated = _gated_differences(power, corr, threshold)
    for i in range(num_clusters):
        gated[~available] = 0.0
        gated[:, ~available] = 0.0
        diff, gate, pair = gated, threshold, None
        while pair is None:
            x, y, mag = _argmax_pair(diff)
            if mag > 0.0:
                pair = (x, y)
            elif gate > 0.0:
                gate = max(gate - 0.05, 0.0)
                diff = np.where(np.outer(available, available),
                                _gated_differences(power, corr, gate), 0.0)
            else:
                pick = rng.choice(np.flatnonzero(available), size=2, replace=False)
                pair = (int(pick[0]), int(pick[1]))
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

    return ClusterPlan(members=members, leftover=np.flatnonzero(available))


def random_plan(effective: np.ndarray, num_clusters: int, users_per_cluster: int,
                rng: np.random.Generator) -> ClusterPlan:
    """Uniform-random clustering baseline over the same user pool."""
    v = effective.shape[0]
    picked = rng.choice(v, size=num_clusters * users_per_cluster, replace=False)
    power = np.sum(np.abs(effective) ** 2, axis=1)
    members = picked.reshape(num_clusters, users_per_cluster)
    members = np.take_along_axis(members, np.argsort(power[members], axis=1), axis=1)
    available = np.ones(v, dtype=bool)
    available[picked] = False
    return ClusterPlan(members=members, leftover=np.flatnonzero(available))
