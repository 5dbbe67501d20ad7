"""Zero-forcing beamformers from each cluster's strongest user.

Beam i is the projection of the strongest user's channel onto the null
space of the other clusters' strongest-user channels, normalized to unit
norm. That nulls the inter-cluster leakage at the user whose channel shaped
the beam; weaker users in a cluster keep residual leakage. Every beam is a
column of one pseudo-inverse of the strongest-user stack, read from one
SVD (Wiesel, Eldar & Shamai, "Zero-forcing precoding and generalized
inverses", IEEE TSP 2008).
"""

from __future__ import annotations

import numpy as np


class NullSpaceError(ValueError):
    """ZF null space is empty or degenerate for one cluster."""

    def __init__(self, cluster_index: int, message: str):
        super().__init__(f"cluster {cluster_index}: {message}")
        self.cluster_index = cluster_index


def build_zf_beamformers(strong_channels: np.ndarray) -> np.ndarray:
    """Build one unit-norm ZF beam per cluster, for one plan or a stack.

    ``strong_channels`` stacks the strongest-user rows u_i as the (I, M)
    matrix S, or one such matrix per plan, (..., I, M); the beams, one
    unit-norm row each, keep its shape. One SVD, S = U diag(s) V^H, gives
    the pseudo-inverse F = V diag(1/s) U^H, whose column f_i meets
    u_j f_i = 1 if j = i, else 0. Beam i is f_i / ||f_i|| =
    P u_i^* / ||P u_i^*||, with P the projector onto the null space of the
    other rows, so u_i f_i is real and positive. Raises at the first u_i in
    the span of the others: on a rank-deficient S (s_min <= max(M, I) eps
    s_max), the first row whose removal keeps the rank; else the first with
    ||P u_i^*|| = 1 / ||f_i|| <= 1e-10 ||u_i||. A stack raises the error
    that its first failing plan raises alone.
    """
    num_clusters, m = strong_channels.shape[-2:]
    if m <= num_clusters - 1:
        raise NullSpaceError(0, f"need M > I - 1, got M={m}, I={num_clusters}")
    u, svals, vh = np.linalg.svd(strong_channels, full_matrices=False)
    tol = max(m, num_clusters) * np.finfo(float).eps * svals[..., :1]
    full = svals[..., -1:] > tol
    if np.count_nonzero(full) == full.size:
        beams = (u.conj() / svals[..., None, :]) @ vh.conj()      # row i is f_i^T
        # row norms with np.linalg.norm's arithmetic, without its wrapper
        norms = np.sqrt(np.add.reduce((beams.conj() * beams).real, axis=-1))
        strong = np.sqrt(np.add.reduce((strong_channels.conj() * strong_channels).real,
                                       axis=-1))
        spanned = norms * strong >= 1e10
        if not np.count_nonzero(spanned):
            return beams / norms[..., None]
    if strong_channels.ndim > 2:
        # a plan's bits do not depend on its stack, so the plans called
        # alone, in order, raise the first failing plan's error
        for plan in strong_channels.reshape(-1, num_clusters, m):
            build_zf_beamformers(plan)
    if svals[-1] > tol:
        index = int(np.flatnonzero(spanned)[0])
    else:
        rank = np.sum(svals > tol)
        index = next((i for i in range(num_clusters) if np.linalg.matrix_rank(
            np.delete(strong_channels, i, axis=0)) == rank), 0)
    raise NullSpaceError(index, "strongest-user channel lies in the span of the others")
