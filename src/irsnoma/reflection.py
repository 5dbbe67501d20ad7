"""Stage 2: reflection-coefficient optimization on the lifted surface matrix.

With beams and power splits frozen, each user's SINR depends on the
reflection vector b only through |b^H w|^2 terms, which become linear
traces tr(B w w^H) after lifting B = b b^H. The rate objective is then a
difference of concave log-traces; linearizing the denominator log at the
current iterate yields a concave minorant, and the nonconvex rank-one
requirement is replaced by the penalty tr(B) - ||B||_2, itself minorized
through the spectral-norm subgradient at the iterate.

The ascent starts from the all-ones reflection b0, at which Stage 1 solved
the split, and needs a split that Stage 1 certified to meet the SINR floor:
the trial runs the stage only on such a split, and the stage refuses any
other. Each iteration maximizes the minorant exactly over the
floor-respecting spectrahedron with the dense barrier solver and keeps the
solution only if it raises the minorant, so the penalized surrogate ascends
monotonically for a fixed penalty weight. Rank one is reached through the
penalty alone: its weight grows tenfold, from a cold start, whenever the
ascent stalls at an iterate that is not yet rank-one, and the loop stops
once the iterate is rank-one or the ascent stalls at the top weight. The
unit-modulus vector is the leading eigenvector's phases; if those break the
floor or lower the efficiency, b0 is returned, so the achieved efficiency
never drops below its Stage-1 value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .channel import (effective_channel, energy_efficiency, link_gains, sinr,
                      stronger_tail)
from .config import SystemConfig
from .power_allocation import LN2, Stage1Result

_ASCENT_TOL = 1e-12
_PENALTY_TOL = 1e-3   # rank-one when tr(B) - ||B||_2 <= _PENALTY_TOL * tr(B)
_ETA_CAP = 1e6        # top of the penalty-weight ladder


def _traces(mats: np.ndarray, b_mat: np.ndarray) -> np.ndarray:
    """Re tr(B M) for every (i, k) matrix of an (I, K, N, N) stack."""
    return np.einsum("ikab,ba->ik", mats, b_mat).real


def _unit_frobenius(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An (I, K, N, N) stack as (I K, N, N) matrices of unit Frobenius norm,
    and the norms they were divided by (at least 1e-300)."""
    n = mats.shape[-1]
    mats = mats.reshape(-1, n, n)
    scale = np.array([max(float(np.linalg.norm(mat)), 1e-300) for mat in mats])
    return mats / scale[:, None, None], scale


def sinr_lifts(cascaded: np.ndarray, members: np.ndarray, beams: np.ndarray,
               beta: np.ndarray,
               config: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lifted SINR of every user of the (I, K) ``members`` under the
    (I, M) ``beams`` and the split ``beta``, as (I, K, N, N) stacks, from
    the (V, N, M) ``cascaded`` channel.

    With w = W_{i,k} f_j, the cascaded channel of cluster i's user k
    through beam j, |b^H w|^2 = tr(B w w^H). Returns (own, num, den):
    ``own[i, k]`` is the own-beam lift, ``num`` is P beta own, and
    ``den[i, k]`` collects the stronger-user tail plus all other beams'
    leakage, so that gamma = tr(B num) / (tr(B den) + sigma^2).
    """
    p = config.cluster_power_w
    omega = np.einsum("iknm,jm->ikjn", cascaded[members], beams)
    lifts = omega[..., :, None] * omega[..., None, :].conj()   # (I, K, I, N, N)
    clusters = np.arange(beta.shape[0])
    own = lifts[clusters, :, clusters]
    beam_power = p * beta.sum(axis=1)
    den = p * stronger_tail(beta)[:, :, None, None] * own
    # one beam at a time, so each den[i] adds its leakage in the order j = 0, 1, ...
    for j in clusters:
        others = clusters != j
        den[others] += beam_power[j] * lifts[others, :, j]
    return own, p * beta[:, :, None, None] * own, den


def sca_coefficients(gamma0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tight logarithmic lower-bound coefficients at the expansion point.

    Returns (zeta, omega) with zeta = g/(1+g) and
    omega = log2(1+g) - zeta*log2(g), so that
    zeta*log2(gamma) + omega <= log2(1+gamma) for every gamma > 0,
    with equality at gamma = gamma0.
    """
    gamma0 = np.asarray(gamma0, dtype=float)
    if (gamma0 <= 0.0).any():
        raise ValueError("expansion point must be strictly positive")
    zeta = gamma0 / (1.0 + gamma0)
    return zeta, np.log2(1.0 + gamma0) - zeta * np.log2(gamma0)


def surrogate_problem(anchor: np.ndarray, num: np.ndarray, den: np.ndarray,
                      constraints: tuple[np.ndarray, np.ndarray] | None,
                      config: SystemConfig,
                      eta: float) -> tuple[sdp.SdpProblem, np.ndarray]:
    """This iteration's problem: the penalized rate's minorant at B_t.

    ``num`` holds the numerator lifts P beta own, so that gamma =
    tr(B num) / (tr(B den) + sigma^2). The penalized rate is
    R(B) - eta (tr(B) - ||B||_2), with R the bandwidth times the summed
    log2(1 + gamma). Its concave minorant bounds each log2(1 + gamma) by
    ``sca_coefficients`` at the anchor SINRs, linearizes each denominator
    log at B_t and bounds ||B||_2 below by Re tr(kappa kappa^H B), with
    kappa the anchor's leading eigenvector; it is tight at B_t. In the
    returned problem, under the floors ``constraints`` (the pair that
    ``floor_constraints`` returns, or None for no floor), the numerator logs
    are weighted log terms on unit-Frobenius matrices and the rest is the
    linear objective. Its value differs from the minorant by a constant
    that does not depend on B. Also returns the Hermitian gradient of the
    rate part at B_t, which is the gradient of R there.

    Raises ValueError when a log argument is nonpositive at the anchor,
    which signals an infeasible anchor.
    """
    num_anchor = _traces(num, anchor)
    den_anchor = _traces(den, anchor) + config.noise_power_w
    if np.any(num_anchor <= 0.0) or np.any(den_anchor <= 0.0):
        raise ValueError("infeasible anchor: nonpositive log argument")
    zeta, _ = sca_coefficients(num_anchor / den_anchor)
    _, eigvecs = np.linalg.eigh(anchor)
    kappa = eigvecs[:, -1]
    bandwidth = config.bandwidth_hz
    den_part = np.einsum("ik,ikab->ab", zeta / (LN2 * den_anchor), den)
    gradient = np.einsum("ik,ikab->ab", zeta / (LN2 * num_anchor), num)
    gradient -= den_part
    gradient *= bandwidth
    linear = -bandwidth * den_part
    linear -= eta * (np.eye(anchor.shape[0]) - np.outer(kappa, kappa.conj()))
    logs, _ = _unit_frobenius(num)
    weights = bandwidth * zeta / LN2
    problem = sdp.SdpProblem(objective=linear,
                             constraints=constraints,
                             log_terms=(logs, weights.reshape(-1)))
    return problem, 0.5 * (gradient + gradient.conj().T)


def exact_rank_penalty(b_mat: np.ndarray) -> float:
    """tr(B) - ||B||_2; zero iff a PSD B is rank one."""
    eigvals = np.linalg.eigvalsh(b_mat)
    return float(np.real(np.trace(b_mat)) - eigvals[-1])


@dataclass
class Stage2TracePoint:
    """The relaxed efficiency and penalty weight after iteration t + 1, t
    the point's trace index."""

    ee: float
    eta: float


@dataclass
class ReflectionResult:
    reflection: np.ndarray
    lifted: np.ndarray
    ee: float
    psi: np.ndarray     # (I, K) inter-cluster interference at the reflection, W
    fallback: bool
    converged: bool
    iterations: int
    exact_penalty: float
    trace: list[Stage2TracePoint] = field(default_factory=list)


def evaluate_reflection(cascaded: np.ndarray, members: np.ndarray,
                        beams: np.ndarray, beta: np.ndarray,
                        reflection: np.ndarray,
                        config: SystemConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """True vector-domain efficiency, SINRs and interference at a reflection."""
    effective = effective_channel(cascaded, reflection)
    gains = link_gains(effective, members, beams, check_order=False)
    gamma, psi = sinr(gains, beta, config)
    return energy_efficiency(gamma, beta, config), gamma, psi


def floor_constraints(num: np.ndarray, den: np.ndarray,
                      config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lifted SINR floors Re tr(A_s B) >= c_s, one per user s = (i, k).

    With ``num`` the numerator lifts P beta own, gamma >= gamma_min is
    tr(B num) - gamma_min tr(B den) >= gamma_min sigma^2; each floor is
    normalized to unit Frobenius scale for solver conditioning. Returns the
    (I K, N, N) stack A and the (I K,) bounds c. Each A_s has rank <= I:
    the own-beam lift plus the I - 1 other beams' leakage lifts.
    """
    mats, scale = _unit_frobenius(num - config.min_sinr * den)
    return mats, config.min_sinr * config.noise_power_w / scale


def _relaxed_ee(own: np.ndarray, den: np.ndarray, b_mat: np.ndarray,
                beta: np.ndarray, config: SystemConfig) -> float:
    """Efficiency of the lifted SINRs at B with the Stage-1 split."""
    num = config.cluster_power_w * beta * _traces(own, b_mat)
    dval = _traces(den, b_mat) + config.noise_power_w
    return energy_efficiency(num / dval, beta, config)


def optimize_reflection(cascaded: np.ndarray, members: np.ndarray,
                        beams: np.ndarray, stage1: Stage1Result,
                        config: SystemConfig) -> ReflectionResult:
    """Run the Stage-2 loop and extract a unit-modulus reflection vector.

    At most 20 iterations, each one exact surrogate solve to a 1e-6 gap.
    The penalty weight starts at 2% of the rate-gradient norm at the first
    anchor, clipped to [1e-2, 1e2] (a fixed large weight freezes the
    rank-one start). Whenever the ascent stalls and the anchor is not
    rank-one to within 1e-3 of its trace, the weight climbs tenfold, up
    to 1e6, and the next solve starts cold; at 1e6 a stalled surrogate
    ends the loop with ``converged=True``. The loop starts from the lift of
    the all-ones vector b0. The vector is the leading eigenvector's phases,
    kept only if it meets the floor and keeps at least the starting
    efficiency; otherwise b0 is returned with ``fallback=True``, the one
    meaning of that flag. ``psi`` of the result is the interference every
    user sees at the returned reflection with the Stage-1 split.

    ``stage1`` must be solved at the all-ones reflection b0 with these
    ``beams`` and ``members``: its ``ee`` and ``psi`` are taken as the values at
    b0 (``evaluate_reflection`` at b0 gives them bitwise). Raises ValueError
    when its ``feasible`` certificate is False: the surrogate ascent needs a
    floor-respecting split.
    """
    if not stage1.feasible:
        raise ValueError("Stage 2 needs a split Stage 1 certified feasible")
    n = config.num_irs_elements
    b0 = np.ones(n, dtype=complex)
    ee0, psi0 = stage1.ee, stage1.psi
    anchor = np.outer(b0, b0.conj())
    own, num, den = sinr_lifts(cascaded, members, beams, stage1.beta, config)
    constraints = floor_constraints(num, den, config)

    # the penalty starts at a few percent of the rate-gradient scale at the
    # anchor; the gradient does not depend on the weight
    _, gradient = surrogate_problem(anchor, num, den, constraints, config, 0.0)
    eta = float(np.clip(0.02 * np.linalg.norm(gradient), 1e-2, 1e2))
    trace: list[Stage2TracePoint] = []
    warm = None
    prev_ee = None
    converged = False
    iterations = 0
    for iterations in range(1, 21):
        problem, _ = surrogate_problem(anchor, num, den, constraints, config, eta)
        # one exact solve maximizes this iteration's concave surrogate, from
        # the last solution or, cold, the anchor blended 5% toward I/2
        start = warm if warm is not None else 0.95 * anchor + 0.025 * np.eye(n)
        solution = sdp.solve(problem, tolerance=1e-6, initial=start)
        if solution.status == "infeasible":
            break
        phi_start = problem.value(anchor)
        stalled = solution.objective <= phi_start + _ASCENT_TOL * (
            1.0 + abs(phi_start))
        if not stalled:
            anchor = warm = solution.matrix
        pen = exact_rank_penalty(anchor)
        ee_rel = _relaxed_ee(own, den, anchor, stage1.beta, config)
        trace.append(Stage2TracePoint(ee=ee_rel, eta=eta))
        ee_stalled = stalled or (prev_ee is not None and abs(ee_rel - prev_ee)
                                 <= 1e-4 * max(1.0, abs(prev_ee)))
        # penalty weight grows only once the surrogate ascent has stalled at
        # the current weight; escalating mid-climb would drown the rate term
        if ee_stalled:
            if pen <= _PENALTY_TOL * float(np.real(np.trace(anchor))):
                converged = True
                break
            if eta < _ETA_CAP:
                # climb the weight ladder from a cold start; the warm start
                # and the efficiency history belong to the old weight
                eta = min(eta * 10.0, _ETA_CAP)
                warm = None
                prev_ee = None
                continue
            if stalled:
                converged = True
                break
        prev_ee = ee_rel

    # recover a unit-modulus vector from the leading eigenvector's phases;
    # it must meet the floor, and efficiency may never drop below ee0
    eigvals, eigvecs = np.linalg.eigh(anchor)
    reflection = np.exp(1j * np.angle(eigvecs[:, -1]))
    ee, gamma, psi = evaluate_reflection(cascaded, members, beams, stage1.beta,
                                         reflection, config)
    violation = float(np.max(1.0 - gamma / config.min_sinr, initial=0.0))
    fallback = not (violation <= 1e-9 and ee >= ee0)
    if fallback:
        reflection, ee, psi = b0, ee0, psi0
    # exact_rank_penalty(anchor), from the extraction's decomposition
    penalty = float(np.real(np.trace(anchor)) - eigvals[-1])
    return ReflectionResult(reflection=reflection, lifted=anchor, ee=ee, psi=psi,
                            fallback=fallback, converged=converged,
                            iterations=iterations, exact_penalty=penalty,
                            trace=trace)

