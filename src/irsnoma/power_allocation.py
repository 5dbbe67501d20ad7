"""Stage 1: power-split optimization across each beam's superposed users.

For fixed beams and reflection the per-cluster energy efficiency is a
ratio of a log-sum rate to an affine power term. Three classic moves make
it tractable: a logarithmic lower bound (zeta * log2(gamma) + omega, tight
at the expansion point) turns the rate concave in log-space, a parametric
transform turns the ratio into rate - rho * power with rho the achieved
efficiency, and the KKT conditions of the resulting Lagrangian admit a
closed-form power coefficient for each user, processed weakest-first.
Dual variables for the power budget, SINR floor, and decode-power-gap
constraints follow projected subgradient steps.

The dual iterate is free to cross the SINR-floor boundary (that is what
makes the multipliers move); a separate incumbent keeps the best iterate
seen so far, preferring floor-respecting ones, and the reported trace is
the incumbent's running-best efficiency, which is nondecreasing by
construction. When no coefficient vector can satisfy the floor at the
current reflection (interference-limited draws), the returned split is
re-shaped to keep the decode-order power ratios sane so that the
reflection stage can restore the floor geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import (LinkGains, cluster_rates_and_power, energy_efficiency,
                      inter_cluster_interference, sinr)
from .config import SystemConfig

LN2 = float(np.log(2.0))

# acceptance caps per constraint family (power, SINR floor, decode gap),
# tighter than the reporting tolerances (1e-6, 1e-3, 1e-6)
_CAPS = np.array([5e-7, 5e-4, 5e-7])


class DualInfeasibleError(RuntimeError):
    """Closed-form denominator went nonpositive: duals/rho are inconsistent."""


def sca_coefficients(gamma0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tight logarithmic lower-bound coefficients at the expansion point.

    Returns (zeta, omega) with zeta = g/(1+g) and
    omega = log2(1+g) - zeta*log2(g), so that
    zeta*log2(gamma) + omega <= log2(1+gamma) for every gamma > 0,
    with equality at gamma = gamma0.
    """
    gamma0 = np.asarray(gamma0, dtype=float)
    if np.any(gamma0 <= 0.0):
        raise ValueError("expansion point must be strictly positive")
    zeta = gamma0 / (1.0 + gamma0)
    omega = np.log2(1.0 + gamma0) - zeta * np.log2(gamma0)
    return zeta, omega


def surrogate_rates(gamma: np.ndarray, zeta: np.ndarray, omega: np.ndarray,
                    bandwidth: float) -> np.ndarray:
    """Per-cluster lower-bound rate sum BW * (zeta*log2(gamma) + omega)."""
    return bandwidth * (zeta * np.log2(gamma) + omega).sum(axis=1)


@dataclass
class DualVariables:
    """Multipliers for the budget (per cluster), SINR floor and SIC gap."""

    power: np.ndarray   # (I,)
    qos: np.ndarray     # (I, K)
    sic: np.ndarray     # (I, K-1)

    @classmethod
    def zeros(cls, num_clusters: int, users: int) -> "DualVariables":
        return cls(power=np.zeros(num_clusters),
                   qos=np.zeros((num_clusters, users)),
                   sic=np.zeros((num_clusters, max(users - 1, 0))))

    def copy(self) -> "DualVariables":
        return DualVariables(self.power.copy(), self.qos.copy(), self.sic.copy())


@dataclass
class Slacks:
    """Signed constraint slacks (positive = satisfied) at a given state."""

    power: np.ndarray   # (I,) P_max - P_i * sum(beta)
    qos: np.ndarray     # (I, K) numerator - gamma_min * denominator
    sic: np.ndarray     # (I, K-1) decode-gap left side - P_g


def _tails(beta: np.ndarray) -> np.ndarray:
    return np.cumsum(beta[:, ::-1], axis=1)[:, ::-1] - beta


def constraint_slacks(gains: LinkGains, beta: np.ndarray,
                      config: SystemConfig) -> Slacks:
    return _slacks(gains, beta, inter_cluster_interference(gains, beta, config),
                   config)


def _slacks(gains: LinkGains, beta: np.ndarray, psi: np.ndarray,
            config: SystemConfig) -> Slacks:
    """Slacks at ``beta`` given the interference ``psi`` that ``sinr`` saw."""
    p = config.cluster_power_w
    g = gains.own_beam
    tail = _tails(beta)
    den = p * tail * g + psi + config.noise_power_w
    qos = p * beta * g - config.min_sinr * den
    sic = p * g[:, 1:] * (beta[:, :-1] - tail[:, :-1]) - config.sic_power_gap_w
    power = config.max_power_w - p * beta.sum(axis=1)
    return Slacks(power=power, qos=qos, sic=sic)


def subgradient_update(duals: DualVariables, slacks: Slacks,
                       step_power: np.ndarray, step_qos: np.ndarray,
                       step_sic: np.ndarray) -> DualVariables:
    """Projected subgradient step: dual <- [dual - step * slack]^+."""
    return DualVariables(
        power=np.maximum(0.0, duals.power - step_power * slacks.power),
        qos=np.maximum(0.0, duals.qos - step_qos * slacks.qos),
        sic=np.maximum(0.0, duals.sic - step_sic * slacks.sic),
    )


@dataclass
class PacContext:
    """Closed-form inputs; leading axes (none for one cluster) index clusters."""

    beam_gain: np.ndarray           # (..., K) |u_k f|^2, sorted weakest-first
    psi: np.ndarray                 # (..., K) inter-cluster interference, Watts
    beta: np.ndarray                # (..., K) working coefficients (entries < k updated)
    zeta: np.ndarray                # (..., K) bound slopes at the current anchor
    rho: float | np.ndarray         # (...) cluster efficiency parameter
    power_dual: float | np.ndarray  # (...) alpha_i
    qos_dual: np.ndarray            # (..., K)
    sic_dual: np.ndarray            # (..., K-1)
    min_sinr: float
    cluster_power: float
    noise_power: float
    bandwidth: float


def closed_form_pac(k: int, ctx: PacContext) -> float | np.ndarray:
    """Stationary power coefficient of user k given everything else.

    Solves dL/dbeta_k = 0 of the dual Lagrangian, for every cluster of the
    context at once: a float for a 1-D context, an array of the leading
    shape otherwise. The terms from weaker users z < k enter through their
    SINR denominators evaluated at the working coefficients, so callers
    must process k in ascending order. Raises DualInfeasibleError when the
    stationary denominator of any cluster is nonpositive (duals
    inconsistent with rho); the caller should shrink its dual steps and
    retry.
    """
    p = ctx.cluster_power
    g = ctx.beam_gain
    users = g.shape[-1]
    gamma_term = ctx.qos_dual[..., k] * p * g[..., k]
    sic_term = ctx.sic_dual[..., k] * p * g[..., k + 1] if k < users - 1 else 0.0
    denom = LN2 * ((ctx.rho + ctx.power_dual) * p - gamma_term - sic_term)
    for z in range(k):
        tail = ctx.beta[..., z + 1:].sum(axis=-1)
        d_z = p * g[..., z] * tail + ctx.psi[..., z] + ctx.noise_power
        denom += ctx.bandwidth * ctx.zeta[..., z] * p * g[..., z] / d_z
        denom += LN2 * (ctx.qos_dual[..., z] * ctx.min_sinr * p * g[..., z]
                        + ctx.sic_dual[..., z] * p * g[..., z + 1])
    if np.any(denom <= 0.0):
        raise DualInfeasibleError(f"nonpositive stationary denominator for user {k}")
    return ctx.bandwidth * ctx.zeta[..., k] / denom


def _sweep(gains: LinkGains, beta: np.ndarray, psi: np.ndarray,
           zeta: np.ndarray, rho: np.ndarray, duals: DualVariables,
           config: SystemConfig) -> np.ndarray:
    """One full coefficient update, ascending within each cluster."""
    out = beta.copy()
    ctx = PacContext(
        beam_gain=gains.own_beam, psi=psi, beta=out, zeta=zeta, rho=rho,
        power_dual=duals.power, qos_dual=duals.qos, sic_dual=duals.sic,
        min_sinr=config.min_sinr, cluster_power=config.cluster_power_w,
        noise_power=config.noise_power_w, bandwidth=config.bandwidth_hz,
    )
    for k in range(beta.shape[1]):
        out[:, k] = closed_form_pac(k, ctx)
    cap = config.max_power_w / config.cluster_power_w
    return np.clip(out, 0.0, cap)


def family_violations(gains: LinkGains, beta: np.ndarray, gamma: np.ndarray,
                      config: SystemConfig) -> np.ndarray:
    """(power, qos, sic) excesses in the units of their reporting tolerances."""
    p = config.cluster_power_w
    e_pow = max(0.0, float(np.max(p * beta.sum(axis=1) / config.max_power_w - 1.0)))
    e_qos = max(0.0, float(np.max(1.0 - gamma / config.min_sinr, initial=0.0)))
    lhs = p * gains.own_beam[:, 1:] * (beta[:, :-1] - _tails(beta)[:, :-1])
    e_sic = max(0.0, float(np.max((config.sic_power_gap_w - lhs) /
                                  config.sic_power_gap_w, initial=0.0)))
    return np.array([e_pow, e_qos, e_sic])


def initial_coefficients(gains: LinkGains, config: SystemConfig) -> np.ndarray:
    """Inverse-gain warm start at 90% of the per-beam budget."""
    weights = 1.0 / np.maximum(gains.channel_power, 1e-300)
    weights /= weights.sum(axis=1, keepdims=True)
    budget = 0.9 * min(config.cluster_power_w, config.max_power_w) / config.cluster_power_w
    return weights * budget


def qos_power_repair(gains: LinkGains, beta0: np.ndarray, config: SystemConfig,
                     rounds: int = 40, margin: float = 1.05) -> np.ndarray | None:
    """Drive the coefficients to the SINR floor by target-tracking updates.

    Classic fixed-point power control: every user below the floor gets
    beta_k <- target_k * denominator_k / (P g_k) with targets slightly
    above the floor, users already above keep their own SINR. Converges
    exactly when the floor is jointly attainable at this reflection;
    returns None on divergence or budget overflow (unattainable draw).
    """
    p = config.cluster_power_w
    g = gains.own_beam
    budget = min(config.cluster_power_w, config.max_power_w) / config.cluster_power_w
    gamma, _ = sinr(gains, beta0, config)
    target = np.maximum(gamma, config.min_sinr * margin)
    beta = beta0.copy()
    for _ in range(rounds):
        gamma, psi = sinr(gains, beta, config)
        den = p * _tails(beta) * g + psi + config.noise_power_w
        beta_new = np.clip(target * den / (p * g), 0.0, None)
        if not np.all(np.isfinite(beta_new)) or beta_new.sum() > 10.0 * budget * beta.shape[0]:
            return None
        if float(np.abs(beta_new - beta).max()) <= 1e-12 * max(1.0, float(beta.max())):
            beta = beta_new
            break
        beta = beta_new
    if np.any(beta.sum(axis=1) > budget * (1.0 + 1e-9)):
        return None
    gamma, _ = sinr(gains, beta, config)
    if family_violations(gains, beta, gamma, config).max() > _CAPS.max():
        return None
    return beta


def _lagrangian(rbar: np.ndarray, powers: np.ndarray, rho: np.ndarray,
               duals: DualVariables, slacks: Slacks) -> float:
    """Lagrangian of the parametric problem at fixed multipliers."""
    return float(np.sum(rbar - rho * powers)
                 + np.sum(duals.power * slacks.power)
                 + np.sum(duals.qos * slacks.qos)
                 + np.sum(duals.sic * slacks.sic))


def shape_for_decode_order(beta: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Restore decode-order power ratios at constant per-cluster power.

    On draws where the floor is unattainable the efficiency optimum
    starves weak users; this projection re-splits each cluster so the
    weakest-first coefficients decrease geometrically by the floor ratio,
    which keeps the floor reachable once the reflection stage aligns
    phases. Total per-cluster power is preserved.
    """
    ratio = config.min_sinr * 1.5
    users = beta.shape[1]
    weights = ratio ** np.arange(users - 1, -1, -1, dtype=float)
    weights /= weights.sum()
    return beta.sum(axis=1, keepdims=True) * weights[None, :]


@dataclass
class TracePoint:
    iteration: int
    rho: np.ndarray
    ee: float
    max_violation: float


@dataclass
class Stage1Result:
    beta: np.ndarray
    rho: np.ndarray
    zeta: np.ndarray
    omega: np.ndarray
    duals: DualVariables
    iterations: int
    converged: bool
    feasible: bool
    residual: float
    ee: float
    trace: list[TracePoint] = field(default_factory=list)


def allocate_power(gains: LinkGains, config: SystemConfig, *,
                   max_iterations: int = 100, tolerance: float = 1e-4,
                   step_scale: float = 1e-2, max_retries: int = 8,
                   stall_limit: int = 25,
                   beta0: np.ndarray | None = None) -> Stage1Result:
    """Run the Stage-1 loop and return the best floor-respecting split.

    Per iteration: re-tighten the rate bound at the dual iterate, set each
    cluster's efficiency parameter to its achieved ratio, take one dual
    step, refresh all coefficients through the closed form, and let the
    incumbent absorb the new point when it improves (floor-respecting
    points always beat violating ones).

    The loop stops with ``converged=True`` in two cases: the parametric
    residual of the dual iterate falls below ``tolerance`` after three
    iterations without improvement, or the incumbent stalls for
    ``stall_limit`` iterations. Once a floor-respecting incumbent exists,
    the residual test also requires the dual iterate itself to meet the
    acceptance caps, since a small residual alone only says the dual step
    was small. While no floor-respecting point exists (an unattainable
    floor, where the multipliers legitimately diverge) the residual test
    alone decides. ``converged`` is False when ``max_iterations`` is
    reached or every step retry raised ``DualInfeasibleError``;
    ``residual`` is ``inf`` when no sweep was taken.
    """
    num_clusters, users = gains.own_beam.shape
    bw = config.bandwidth_hz
    warm = initial_coefficients(gains, config) if beta0 is None else beta0.copy()
    repaired = qos_power_repair(gains, warm, config)
    if repaired is not None:
        warm = repaired

    def cluster_efficiencies(beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        zeta, omega = sca_coefficients(gamma)
        rbar = surrogate_rates(gamma, zeta, omega, bw)
        _, powers = cluster_rates_and_power(gamma, beta, config)
        return rbar / powers

    wander = warm.copy()
    gamma_w, psi_w = sinr(gains, wander, config)
    slacks = _slacks(gains, wander, psi_w, config)
    ee_w = energy_efficiency(gamma_w, wander, config)
    viol_w = family_violations(gains, wander, gamma_w, config)

    inc_beta, inc_ee, inc_viol = wander.copy(), ee_w, viol_w.copy()
    inc_feasible = bool(np.all(inc_viol <= _CAPS))
    run_rho = cluster_efficiencies(inc_beta, gamma_w)   # running max per cluster
    run_ee = inc_ee                                     # running max overall

    duals = DualVariables.zeros(num_clusters, users)
    c = step_scale
    residual = np.inf
    converged = False
    trace: list[TracePoint] = []
    last_improvement = 0
    p = config.cluster_power_w
    g_sic = p * gains.own_beam[:, 1:]
    sic_norm = g_sic + config.sic_power_gap_w

    iteration = 0
    for iteration in range(1, max_iterations + 1):
        zeta, omega = sca_coefficients(gamma_w)
        rbar = surrogate_rates(gamma_w, zeta, omega, bw)
        _, powers = cluster_rates_and_power(gamma_w, wander, config)
        rho = rbar / powers

        trace.append(TracePoint(iteration=iteration, rho=run_rho.copy(),
                                ee=run_ee, max_violation=float(inc_viol.max())))

        rho_scale = max(float(np.mean(rho)), 1e-12)
        den = p * _tails(wander) * gains.own_beam + psi_w + config.noise_power_w
        qos_scale = p * gains.own_beam * config.min_sinr * den
        # SIC-gap violations are tiny against their own scale near the
        # boundary, so the step saturates to a sign-normalized move of
        # the dual's effective magnitude Upsilon * P * g
        sic_scale = g_sic * (np.abs(slacks.sic) + 1e-2 * sic_norm)
        c_try = c
        for _ in range(max_retries):
            base = c_try / np.sqrt(iteration)
            step_power = np.full(num_clusters, base * rho_scale / config.max_power_w)
            step_qos = base * rho_scale / qos_scale
            step_sic = 5.0 * base * rho_scale / sic_scale
            duals_try = subgradient_update(duals, slacks, step_power,
                                           step_qos, step_sic)
            try:
                wander_try = _sweep(gains, wander, psi_w, zeta, rho, duals_try,
                                    config)
            except DualInfeasibleError:
                c_try *= 0.5
                continue
            break
        else:
            break
        duals, c = duals_try, c_try
        # previous point's Lagrangian, from the values computed there above
        lag_old = _lagrangian(rbar, powers, rho, duals, slacks)
        wander = wander_try
        gamma_w, psi_w = sinr(gains, wander, config)
        slacks = _slacks(gains, wander, psi_w, config)
        ee_w = energy_efficiency(gamma_w, wander, config)
        viol_w = family_violations(gains, wander, gamma_w, config)

        cand_feasible = bool(np.all(viol_w <= _CAPS))
        improved = False
        if cand_feasible and (not inc_feasible or ee_w > inc_ee):
            improved = True
        elif not cand_feasible and not inc_feasible and ee_w > inc_ee:
            improved = True
        if improved:
            inc_beta, inc_ee, inc_viol = wander.copy(), ee_w, viol_w.copy()
            inc_feasible = cand_feasible
            last_improvement = iteration
            run_rho = np.maximum(run_rho, cluster_efficiencies(inc_beta, gamma_w))
            run_ee = max(run_ee, inc_ee)

        # parametric residual: how much the closed-form sweep changed the
        # Lagrangian at the current multipliers. It vanishes at a stationary
        # split, but also whenever the dual step is small, so on its own it
        # does not certify a primal-feasible stop
        _, powers = cluster_rates_and_power(gamma_w, wander, config)
        lag_new = _lagrangian(surrogate_rates(gamma_w, zeta, omega, bw), powers,
                              rho, duals, slacks)
        scale = max(float(np.sum(rho)
                          * (config.cluster_power_w + config.circuit_power_w)),
                    1e-300)
        residual = abs(lag_new - lag_old) / scale
        if (residual <= tolerance and iteration - last_improvement >= 3
                and (cand_feasible or not inc_feasible)):
            converged = True
            break
        if iteration - last_improvement >= stall_limit:
            converged = True
            break

    feasible = bool(np.all(inc_viol <= np.array([1e-6, 1e-3, 1e-6])))
    beta = inc_beta
    if not feasible:
        beta = shape_for_decode_order(inc_beta, config)
    gamma, _ = sinr(gains, beta, config)
    ee = energy_efficiency(gamma, beta, config)
    zeta, omega = sca_coefficients(gamma)
    rbar = surrogate_rates(gamma, zeta, omega, bw)
    _, powers = cluster_rates_and_power(gamma, beta, config)
    rho = rbar / powers
    trace.append(TracePoint(iteration=iteration + 1, rho=run_rho.copy(),
                            ee=run_ee, max_violation=float(inc_viol.max())))
    return Stage1Result(beta=beta, rho=rho, zeta=zeta, omega=omega, duals=duals,
                        iterations=iteration, converged=converged,
                        feasible=feasible, residual=residual, ee=ee, trace=trace)
