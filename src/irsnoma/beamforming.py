"""Zero-forcing beamformers from each cluster's strongest user.

Beam i is the projection of the strongest user's channel onto the null
space of the other clusters' strongest-user channels, normalized to unit
norm. That nulls the inter-cluster leakage at the user whose channel shaped
the beam; weaker users in a cluster keep residual leakage.
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
    as (I, M). For each i the rows of the other clusters form the matrix
    whose null space (found by SVD with threshold max(M, I) * eps * s_max)
    hosts beam i.
    """
    num_clusters, m = strong_channels.shape
    if m <= num_clusters - 1:
        raise NullSpaceError(0, f"need M > I - 1, got M={m}, I={num_clusters}")
    vectors = np.zeros((num_clusters, m), dtype=complex)
    for i in range(num_clusters):
        others = np.delete(strong_channels, i, axis=0)   # (I-1, M), rows u_{j,K}
        if others.size:
            _, svals, vh = np.linalg.svd(others, full_matrices=True)
            tol = max(m, num_clusters) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
            rank = int(np.sum(svals > tol))
            basis = vh[rank:].conj().T                   # (M, M - rank)
        else:
            basis = np.eye(m, dtype=complex)
        if basis.shape[1] == 0:
            raise NullSpaceError(i, "empty null space (rank-deficient channel stack)")
        beam = basis @ (basis.conj().T @ strong_channels[i].conj())
        norm = np.linalg.norm(beam)
        if norm < 1e-30:
            raise NullSpaceError(i, "strongest-user channel lies in the span of the others")
        vectors[i] = beam / norm
    return BeamformerSet(vectors=vectors)
