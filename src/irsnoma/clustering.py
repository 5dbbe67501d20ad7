"""User clustering from channel correlation and gain separation.

Users sharing a beam should be strongly correlated (so one beamformer fits
both) while having clearly separated channel gains (so superposition-coded
decoding works). Pairs are picked greedily by the largest gain difference
among pairs whose correlation clears a threshold; when the gate starves,
the threshold is relaxed in 0.05 steps, and where even a zero gate admits
no pair the two lowest-indexed available users are paired. The plan is a
deterministic function of the channels. The gated pairs of the whole pool
are ranked once per plan, by falling |difference| and row-major on ties,
and one walk down that ranking skips the pairs with a taken user: each pair
it takes is the first maximum of the gated matrix of the available users.
"""

from __future__ import annotations

import functools

import numpy as np


def correlation_matrix(effective: np.ndarray) -> np.ndarray:
    """All pairwise correlations of the (V, M) effective channel stack."""
    conj = effective.conj()
    # row norms with np.linalg.norm's arithmetic, without its wrapper
    norms = np.sqrt(np.add.reduce((conj * effective).real, axis=1))
    if (norms == 0.0).any():
        raise ValueError("correlation undefined for a zero channel vector")
    return np.abs(conj @ effective.T) / (norms[:, None] * norms)


def build_difference_matrix(effective: np.ndarray, threshold: float) -> np.ndarray:
    """Upper-triangular gain differences gated by correlation.

    Entry (x, y) with y > x holds ||u_x||^2 - ||u_y||^2 when the pair's
    correlation exceeds ``threshold``, else 0. Lower triangle and diagonal
    are zero.
    """
    v = effective.shape[0]
    if v < 2:
        raise ValueError("need at least two users")
    power = np.add.reduce(np.abs(effective) ** 2, axis=1)
    return _gated_differences(power, correlation_matrix(effective), threshold)


@functools.lru_cache(maxsize=16)
def _upper(v: int) -> np.ndarray:
    """The read-only strict upper triangle of a (v, v) pool, built once per v."""
    mask = np.triu(np.ones((v, v), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _gated_differences(power: np.ndarray, corr: np.ndarray,
                       threshold: float) -> np.ndarray:
    diff = power[:, None] - power[None, :]
    return np.where(_upper(power.size) & (corr > threshold), diff, 0.0)


def _argmax_pair(matrix: np.ndarray) -> tuple[int, int, float]:
    # first max in row-major order, i.e. lowest (x, y) on ties
    flat = int(np.argmax(np.abs(matrix)))
    x, y = divmod(flat, matrix.shape[1])
    return x, y, float(abs(matrix[x, y]))


def form_clusters(effective: np.ndarray, num_clusters: int, users_per_cluster: int,
                  threshold: float) -> np.ndarray:
    """Greedy gain-difference clustering over the available user pool.

    Repeats ``num_clusters`` times: seed a cluster with the pair of largest
    gated |gain difference|, then (for K > 2) grow it with the available
    user best correlated to the cluster's strongest member, the first in
    index order on ties. Selected users are removed from the pool. Gate
    relaxation, and pairing the two lowest-indexed available users when no
    gate admits a pair, keep the plan well defined on degenerate inputs.
    Returns the (I, K) members, each cluster weakest channel first.
    """
    v = effective.shape[0]
    if num_clusters * users_per_cluster > v:
        raise ValueError("not enough users for the requested plan")
    power = np.add.reduce(np.abs(effective) ** 2, axis=1)
    corr = correlation_matrix(effective)

    if users_per_cluster == 1:
        # degenerate: no pairing, serve the strongest users one per beam
        return np.sort(np.argsort(-power, kind="stable")[:num_clusters])[:, None]

    # the gated pairs by falling |difference|, row-major on ties: the order in
    # which repeated argmax passes over the available users meet them
    magnitude = np.abs(_gated_differences(power, corr, threshold)).ravel()
    ranked = np.flatnonzero(magnitude)
    walk = iter(ranked[np.argsort(-magnitude[ranked], kind="stable")].tolist())
    available = [True] * v
    clusters = []
    for _ in range(num_clusters):
        cluster = None
        for flat in walk:
            x, y = divmod(flat, v)
            if available[x] and available[y]:
                cluster = [x, y]
                break
        gate = threshold
        while cluster is None:
            if gate > 0.0:
                gate = max(gate - 0.05, 0.0)
                free = np.array(available)
                x, y, mag = _argmax_pair(np.where(np.outer(free, free),
                                                  _gated_differences(power, corr, gate), 0.0))
                if mag > 0.0:
                    cluster = [x, y]
            else:
                cluster = np.flatnonzero(available)[:2].tolist()
        available[cluster[0]] = available[cluster[1]] = False

        while len(cluster) < users_per_cluster:
            strongest = cluster[int(np.argmax(power[cluster]))]
            pool = np.flatnonzero(available)
            chosen = int(pool[np.argmax(corr[strongest, pool])])
            cluster.append(chosen)
            available[chosen] = False
        clusters.append(cluster)

    members = np.array(clusters)
    return np.take_along_axis(members, np.argsort(power[members], axis=1, kind="stable"),
                              axis=1)


def random_plan(effective: np.ndarray, num_clusters: int, users_per_cluster: int,
                rng: np.random.Generator) -> np.ndarray:
    """Uniform-random clustering baseline over the same user pool: the
    (I, K) members, each cluster weakest channel first."""
    v = effective.shape[0]
    picked = rng.choice(v, size=num_clusters * users_per_cluster, replace=False)
    power = np.add.reduce(np.abs(effective) ** 2, axis=1)
    members = picked.reshape(num_clusters, users_per_cluster)
    return np.take_along_axis(members, np.argsort(power[members], axis=1), axis=1)
