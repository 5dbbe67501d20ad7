"""User clustering from channel correlation and gain separation.

Users sharing a beam should be strongly correlated (so one beamformer fits
both) while having clearly separated channel gains (so superposition-coded
decoding works). A pair is admitted by a correlation gate: first the
threshold, then a ladder relaxed in 0.05 steps down to 0. All admitted
pairs form one order: by the first gate of the ladder that the pair
clears, then by falling gain difference, row-major on ties. One walk down
that order seeds each cluster with the first pair whose users are both
still available, so each pick is the largest gated difference among the
available users at the strictest gate that admits any of them. Where no
pair is left, the two lowest-indexed available users are paired. The plan
is a deterministic function of the channels.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np


def correlation_matrix(effective: np.ndarray) -> np.ndarray:
    """All pairwise correlations of the (V, M) effective channel stack."""
    conj = effective.conj()
    # row norms with np.linalg.norm's arithmetic, without its wrapper
    norms = np.sqrt(np.add.reduce((conj * effective).real, axis=1))
    if (norms == 0.0).any():
        raise ValueError("correlation undefined for a zero channel vector")
    return np.abs(conj @ effective.T) / (norms[:, None] * norms)


@functools.lru_cache(maxsize=16)
def _upper(v: int) -> np.ndarray:
    """The read-only strict upper triangle of a (v, v) pool, built once per v."""
    mask = np.triu(np.ones((v, v), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def _ranked_pairs(power: np.ndarray, corr: np.ndarray,
                  threshold: float) -> Iterator[tuple[int, int]]:
    """Yield every pair (x, y), x < y, of nonzero gain difference that some
    gate of the ladder admits: by the first gate whose correlation it clears,
    then by falling |difference|, row-major on ties. Each gate's pairs are
    ranked only once the walk has used up the gates above it."""
    v = power.size
    magnitude = np.abs(power[:, None] - power[None, :])
    pending = _upper(v) & (magnitude > 0.0)
    gate = threshold
    while True:
        cleared = pending & (corr > gate)
        band = np.flatnonzero(cleared)
        for flat in band[np.argsort(-magnitude.ravel()[band], kind="stable")].tolist():
            yield divmod(flat, v)
        if gate <= 0.0:
            return
        pending &= ~cleared
        gate = max(gate - 0.05, 0.0)


def form_clusters(effective: np.ndarray, num_clusters: int, users_per_cluster: int,
                  threshold: float) -> np.ndarray:
    """Greedy gain-difference clustering over the available user pool.

    One walk goes down the single order of ``_ranked_pairs``. Each cluster
    is seeded with the first pair in it whose users are both available,
    then (for K > 2) grown with the available user best correlated to the
    cluster's strongest member, the first in index order on ties. Selected
    users leave the pool. Where no pair is left, the cluster is seeded with
    the two lowest-indexed available users, so the plan is well defined on
    degenerate inputs. Returns the (I, K) members, each cluster weakest
    channel first.
    """
    v = effective.shape[0]
    if num_clusters * users_per_cluster > v:
        raise ValueError("not enough users for the requested plan")
    power = np.add.reduce(np.abs(effective) ** 2, axis=1)
    corr = correlation_matrix(effective)

    if users_per_cluster == 1:
        # degenerate: no pairing, serve the strongest users one per beam
        return np.sort(np.argsort(-power, kind="stable")[:num_clusters])[:, None]

    walk = _ranked_pairs(power, corr, threshold)
    available = [True] * v
    clusters = []
    for _ in range(num_clusters):
        for x, y in walk:
            if available[x] and available[y]:
                cluster = [x, y]
                break
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
