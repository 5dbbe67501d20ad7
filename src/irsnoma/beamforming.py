"""Zero-forcing beamformers from each cluster's strongest user.

Beam i is the projection of the strongest user's channel onto the null
space of the other clusters' strongest-user channels, normalized to unit
norm. That nulls the inter-cluster leakage at the user whose channel shaped
the beam; weaker users in a cluster keep residual leakage. Every cluster's
null space comes from one batched SVD over the stacked "other clusters"
blocks, and every projection from one batched product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NullSpaceError(ValueError):
    """ZF null space is empty or degenerate for one cluster."""

    def __init__(self, cluster_index: int, message: str):
        super().__init__(f"cluster {cluster_index}: {message}")
        self.cluster_index = cluster_index


@dataclass(frozen=True)
class BeamformerSet:
    vectors: np.ndarray                 # (I, M), each row unit norm


def build_zf_beamformers(strong_channels: np.ndarray) -> BeamformerSet:
    """Build one unit-norm ZF beam per cluster.

    ``strong_channels`` stacks the strongest-user effective rows u_{i,K}
    as (I, M). Block i stacks the rows of the other clusters, in ascending
    order, as (I-1, M); its null space (found by SVD with threshold
    max(M, I) * eps * s_max) hosts beam i. One SVD runs over all I blocks.
    Each null-space basis is sliced at the lowest rank among the blocks,
    and a block of higher rank (a degenerate stack) zeroes the extra
    columns, so every beam is one batched projection. Each beam is then
    divided by its own ``np.linalg.norm``; a norm of at most 1e-10 ||u_{i,K}||
    is rounding noise (u_{i,K} lies in the span of the others), and raises.
    """
    num_clusters, m = strong_channels.shape
    if m <= num_clusters - 1:
        raise NullSpaceError(0, f"need M > I - 1, got M={m}, I={num_clusters}")
    # rank <= I - 1 < M, so every null space is nonempty from here on
    others = np.nonzero(~np.eye(num_clusters, dtype=bool))[1].reshape(num_clusters, -1)
    _, svals, vh = np.linalg.svd(strong_channels[others], full_matrices=True)
    tol = max(m, num_clusters) * np.finfo(float).eps * svals[:, :1]
    rank = np.sum(svals > tol, axis=1)
    low = int(rank.min())
    keep = np.arange(low, m) >= rank[:, None]          # (I, M - low)
    basis = np.where(keep[:, None, :], vh[:, low:].conj().transpose(0, 2, 1), 0.0)
    beams = (basis @ (basis.conj().transpose(0, 2, 1)
                      @ strong_channels.conj()[:, :, None]))[:, :, 0]
    # one norm per beam: a batched norm(axis=1) rounds some beams differently
    norms = np.array([np.linalg.norm(beam) for beam in beams])
    tiny = np.flatnonzero(norms <= 1e-10 * np.linalg.norm(strong_channels, axis=1))
    if tiny.size:
        raise NullSpaceError(int(tiny[0]),
                             "strongest-user channel lies in the span of the others")
    return BeamformerSet(vectors=beams / norms[:, None])
