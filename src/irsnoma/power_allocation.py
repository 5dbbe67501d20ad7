"""Stage 1: power-split optimization across each beam's superposed users.

For fixed beams and reflection the per-cluster energy efficiency is a
ratio of a log-sum rate to an affine power term. Three classic moves make
it tractable: a logarithmic lower bound (zeta * log2(gamma) + omega, tight
at the expansion point) turns the rate concave in log-space, a parametric
transform turns the ratio into rate - rho * power with rho the achieved
efficiency, and the KKT conditions of the resulting Lagrangian admit a
closed-form power coefficient for each user, processed weakest-first.
Dual variables for the power budget, SINR floor, and decode-power-gap
constraints follow projected subgradient steps. Each split the loop visits
is evaluated once; the dual step, the sweep and the stop test read that.

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

from .channel import LinkGains, SinrParts, sinr_parts
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
    return _bound_terms(np.asarray(gamma0, dtype=float))[:2]


def _bound_terms(gamma0: np.ndarray) -> tuple[np.ndarray, ...]:
    """(zeta, omega, log2(gamma0), log2(1 + gamma0)) for ``sca_coefficients``."""
    if (gamma0 <= 0.0).any():
        raise ValueError("expansion point must be strictly positive")
    one_plus = 1.0 + gamma0
    log_gamma, log_rate = np.log2(gamma0), np.log2(one_plus)
    zeta = gamma0 / one_plus
    return zeta, log_rate - zeta * log_gamma, log_gamma, log_rate


def surrogate_rates(gamma: np.ndarray, zeta: np.ndarray, omega: np.ndarray,
                    bandwidth: float) -> np.ndarray:
    """Per-cluster lower-bound rate sum BW * (zeta*log2(gamma) + omega)."""
    return _surrogate(np.log2(gamma), zeta, omega, bandwidth)


def _surrogate(log_gamma: np.ndarray, zeta: np.ndarray, omega: np.ndarray,
               bandwidth: float) -> np.ndarray:
    return bandwidth * (zeta * log_gamma + omega).sum(axis=1)


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


def constraint_slacks(gains: LinkGains, beta: np.ndarray,
                      config: SystemConfig) -> Slacks:
    return _slacks(gains, beta, sinr_parts(gains, beta, config), config)


def _slacks(gains: LinkGains, beta: np.ndarray, parts: SinrParts,
            config: SystemConfig) -> Slacks:
    """Slacks at ``beta`` from its ``sinr_parts``."""
    p = config.cluster_power_w
    g = gains.own_beam
    qos = p * beta * g - config.min_sinr * parts.den
    sic = p * g[:, 1:] * (beta[:, :-1] - parts.tail[:, :-1]) - config.sic_power_gap_w
    return Slacks(power=config.max_power_w - parts.radiated, qos=qos, sic=sic)


def subgradient_update(duals: DualVariables, slacks: Slacks,
                       step_power: float | np.ndarray, step_qos: np.ndarray,
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
    gamma_term = ctx.qos_dual[..., k] * p * g[..., k]
    sic_term = ctx.sic_dual[..., k] * p * g[..., k + 1] if k < g.shape[-1] - 1 else 0.0
    denom = LN2 * ((ctx.rho + ctx.power_dual) * p - gamma_term - sic_term)
    for z in range(k):
        tail = ctx.beta[..., z + 1:].sum(axis=-1)
        g_z = g[..., z]
        d_z = p * g_z * tail + ctx.psi[..., z] + ctx.noise_power
        denom += ctx.bandwidth * ctx.zeta[..., z] * p * g_z / d_z
        denom += LN2 * (ctx.qos_dual[..., z] * ctx.min_sinr * p * g_z
                        + ctx.sic_dual[..., z] * p * g[..., z + 1])
    if (denom <= 0.0).any():
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
    return out.clip(0.0, config.max_power_w / config.cluster_power_w)


@dataclass
class _Point:
    """Everything the Stage-1 loop reads at one split, computed once."""

    beta: np.ndarray
    gamma: np.ndarray        # (I, K) SINRs
    log_gamma: np.ndarray    # (I, K) log2(gamma)
    psi: np.ndarray          # (I, K) inter-cluster interference they saw
    den: np.ndarray          # (I, K) SINR denominators
    slacks: Slacks
    violations: np.ndarray   # (power, qos, sic) excesses in tolerance units
    feasible: bool           # every violation within _CAPS
    ee: float
    powers: np.ndarray       # (I,) consumed power per cluster
    zeta: np.ndarray         # bound coefficients tightened at gamma
    omega: np.ndarray
    rbar: np.ndarray         # (I,) surrogate rates, tight at gamma
    rho: np.ndarray          # (I,) rbar / powers


def _evaluate(gains: LinkGains, beta: np.ndarray, config: SystemConfig) -> _Point:
    parts = sinr_parts(gains, beta, config)
    gamma, radiated = parts.gamma, parts.radiated
    slacks = _slacks(gains, beta, parts, config)
    violations = np.array([
        max(0.0, float((radiated / config.max_power_w - 1.0).max())),
        max(0.0, float((1.0 - gamma / config.min_sinr).max(initial=0.0))),
        max(0.0, float((-slacks.sic / config.sic_power_gap_w).max(initial=0.0))),
    ])
    zeta, omega, log_gamma, log_rate = _bound_terms(gamma)
    rates = config.bandwidth_hz * log_rate.sum(axis=1)  # as cluster_rates_and_power
    powers = radiated + config.circuit_power_w
    rbar = _surrogate(log_gamma, zeta, omega, config.bandwidth_hz)
    return _Point(beta=beta, gamma=gamma, log_gamma=log_gamma, psi=parts.psi,
                  den=parts.den, slacks=slacks, violations=violations,
                  feasible=bool((violations <= _CAPS).all()),
                  ee=float((rates / powers).sum()), powers=powers, zeta=zeta,
                  omega=omega, rbar=rbar, rho=rbar / powers)


def initial_coefficients(gains: LinkGains, config: SystemConfig) -> np.ndarray:
    """Inverse-gain warm start at 90% of the per-beam budget."""
    weights = 1.0 / np.maximum(gains.channel_power, 1e-300)
    weights /= weights.sum(axis=1, keepdims=True)
    budget = 0.9 * min(config.cluster_power_w, config.max_power_w) / config.cluster_power_w
    return weights * budget


def qos_power_repair(gains: LinkGains, beta0: np.ndarray,
                     config: SystemConfig) -> _Point | None:
    """Drive the coefficients to the SINR floor by target-tracking updates.

    Classic fixed-point power control: every user below the floor gets
    beta_k <- target_k * denominator_k / (P g_k) with targets 5% above the
    floor, users already above keep their own SINR; at most 40 rounds.
    Converges exactly when the floor is jointly attainable at this
    reflection; returns the evaluated repaired split, or None on
    divergence or budget overflow (unattainable draw).
    """
    pg = config.cluster_power_w * gains.own_beam
    budget = min(config.cluster_power_w, config.max_power_w) / config.cluster_power_w
    parts = sinr_parts(gains, beta0, config)
    target = np.maximum(parts.gamma, config.min_sinr * 1.05)
    den = parts.den
    beta = beta0.copy()
    for _ in range(40):
        beta_new = (target * den / pg).clip(0.0, None)
        if not np.isfinite(beta_new).all() or beta_new.sum() > 10.0 * budget * beta.shape[0]:
            return None
        done = float(np.abs(beta_new - beta).max()) <= 1e-12 * max(1.0, float(beta.max()))
        beta = beta_new
        if done:
            break
        den = sinr_parts(gains, beta, config).den
    if (beta.sum(axis=1) > budget * (1.0 + 1e-9)).any():
        return None
    point = _evaluate(gains, beta, config)
    return None if point.violations.max() > _CAPS.max() else point


def _lagrangian(rbar: np.ndarray, powers: np.ndarray, rho: np.ndarray,
               duals: DualVariables, slacks: Slacks) -> float:
    """Lagrangian of the parametric problem at fixed multipliers."""
    return float((rbar - rho * powers).sum()
                 + (duals.power * slacks.power).sum()
                 + (duals.qos * slacks.qos).sum()
                 + (duals.sic * slacks.sic).sum())


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
    gamma: np.ndarray        # (I, K) SINRs at beta
    psi: np.ndarray          # (I, K) inter-cluster interference at beta, W
    duals: DualVariables
    iterations: int
    converged: bool
    feasible: bool
    residual: float
    ee: float
    trace: list[TracePoint] = field(default_factory=list)


def allocate_power(gains: LinkGains, config: SystemConfig, *,
                   max_iterations: int = 100, tolerance: float = 1e-4,
                   max_retries: int = 8, stall_limit: int = 25,
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
    warm = initial_coefficients(gains, config) if beta0 is None else beta0.copy()
    # the dual iterate: the repaired warm start, or the warm start itself
    point = qos_power_repair(gains, warm, config) or _evaluate(gains, warm, config)
    inc = point                              # the incumbent
    run_rho = point.rho                      # running max per cluster
    run_ee = point.ee                        # running max overall

    duals = DualVariables.zeros(num_clusters, users)
    c = 1e-2
    residual = np.inf
    converged = False
    trace: list[TracePoint] = []
    last_improvement = 0
    p = config.cluster_power_w
    g_sic = p * gains.own_beam[:, 1:]
    sic_floor = 1e-2 * (g_sic + config.sic_power_gap_w)
    qos_base = p * gains.own_beam * config.min_sinr
    full_power = config.cluster_power_w + config.circuit_power_w

    iteration = 0
    for iteration in range(1, max_iterations + 1):
        trace.append(TracePoint(iteration=iteration, rho=run_rho.copy(),
                                ee=run_ee, max_violation=float(inc.violations.max())))

        rho_scale = max(float(point.rho.mean()), 1e-12)
        qos_scale = qos_base * point.den
        # SIC-gap violations are tiny against their own scale near the
        # boundary, so the step saturates to a sign-normalized move of
        # the dual's effective magnitude Upsilon * P * g
        sic_scale = g_sic * (np.abs(point.slacks.sic) + sic_floor)
        c_try = c
        for _ in range(max_retries):
            base = c_try / np.sqrt(iteration)
            duals_try = subgradient_update(
                duals, point.slacks, base * rho_scale / config.max_power_w,
                base * rho_scale / qos_scale, 5.0 * base * rho_scale / sic_scale)
            try:
                beta_try = _sweep(gains, point.beta, point.psi, point.zeta,
                                  point.rho, duals_try, config)
            except DualInfeasibleError:
                c_try *= 0.5
                continue
            break
        else:
            break
        duals, c = duals_try, c_try
        # previous point's Lagrangian, from the values computed there
        lag_old = _lagrangian(point.rbar, point.powers, point.rho, duals,
                              point.slacks)
        prev, point = point, _evaluate(gains, beta_try, config)

        # floor-respecting points beat violating ones, then efficiency decides
        if (point.feasible, point.ee) > (inc.feasible, inc.ee):
            inc = point
            last_improvement = iteration
            run_rho = np.maximum(run_rho, point.rho)
            run_ee = max(run_ee, point.ee)

        # parametric residual: how much the closed-form sweep changed the
        # Lagrangian at the current multipliers. It vanishes at a stationary
        # split, but also whenever the dual step is small, so on its own it
        # does not certify a primal-feasible stop
        lag_new = _lagrangian(
            _surrogate(point.log_gamma, prev.zeta, prev.omega, config.bandwidth_hz),
            point.powers, prev.rho, duals, point.slacks)
        scale = max(float((prev.rho * full_power).sum()), 1e-300)
        residual = abs(lag_new - lag_old) / scale
        if (residual <= tolerance and iteration - last_improvement >= 3
                and (point.feasible or not inc.feasible)):
            converged = True
            break
        if iteration - last_improvement >= stall_limit:
            converged = True
            break

    feasible = bool(np.all(inc.violations <= np.array([1e-6, 1e-3, 1e-6])))
    final = inc if feasible else _evaluate(
        gains, shape_for_decode_order(inc.beta, config), config)
    trace.append(TracePoint(iteration=iteration + 1, rho=run_rho.copy(),
                            ee=run_ee, max_violation=float(inc.violations.max())))
    return Stage1Result(beta=final.beta, rho=final.rho, zeta=final.zeta,
                        omega=final.omega, gamma=final.gamma, psi=final.psi,
                        duals=duals, iterations=iteration, converged=converged,
                        feasible=feasible, residual=residual, ee=final.ee,
                        trace=trace)
