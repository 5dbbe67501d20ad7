"""Stage 1: power-split optimization across each beam's superposed users.

For fixed beams and reflection the per-cluster energy efficiency is a
ratio of a log-sum rate to an affine power term. Three classic moves make
it tractable: a logarithmic lower bound (zeta * log2(gamma) + omega, tight
at the expansion point) turns the rate concave in log-space, a parametric
transform turns the ratio into rate - rho * power with rho the achieved
efficiency, and the KKT conditions of the resulting Lagrangian admit a
closed-form power coefficient for each user. One sweep updates every
cluster at once and goes weakest-first within each: a user's closed form
reads the SINR denominators of the weaker users, which depend on the
coefficients just updated above them. The terms that depend on no
coefficient are built once per sweep and shared by every user.
Dual variables for the power budget, SINR floor, and decode-power-gap
constraints follow projected subgradient steps. Each split the loop visits
is evaluated once, in one pass; the dual step, the sweep and the stop test
read that. The loop runs about a hundred NumPy calls per iteration on
(I, K) arrays, so each call's fixed cost, not its arithmetic, sets the
time: reductions call the ufuncs' own ``reduce`` (the C reduction behind
``ndarray.sum``/``min``/``max``, without their Python frame), and products
two steps share are formed once, in the same left-to-right order.

The dual iterate is free to cross the SINR-floor boundary (that is what
makes the multipliers move); a separate incumbent keeps the best iterate
seen so far, preferring floor-respecting ones, and the reported trace is
the incumbent's running-best efficiency, which is nondecreasing by
construction. The loop stops once the incumbent has gone three iterations
without improving and either breaks the floor (the multipliers then
diverge, and the incumbent is the only output left to change) or respects
it while the dual iterate meets the caps with a small parametric residual;
a longer stall ends it in any case. When no coefficient vector can
satisfy the floor at the current reflection (interference-limited draws),
the returned split is re-shaped to keep the decode-order power ratios sane
so that the reflection stage can restore the floor geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkGains, SinrParts, sinr_parts
from .config import SystemConfig

LN2 = float(np.log(2.0))

# acceptance caps per constraint family (power, SINR floor, decode gap),
# tighter than the reporting tolerances (1e-6, 1e-3, 1e-6)
_CAPS = (5e-7, 5e-4, 5e-7)


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
    if (gamma0 <= 0.0).any():
        raise ValueError("expansion point must be strictly positive")
    return _bound_terms(gamma0)[:2]


def _bound_terms(gamma0: np.ndarray) -> tuple[np.ndarray, ...]:
    """(zeta, omega, log2(gamma0), log2(1 + gamma0), zeta * log2(gamma0)) at a
    positive ``gamma0``; the last is the bound's slope term, shared by omega
    and the surrogate rate tight at ``gamma0``."""
    one_plus = 1.0 + gamma0
    log_gamma, log_rate = np.log2(gamma0), np.log2(one_plus)
    zeta = gamma0 / one_plus
    slope = zeta * log_gamma
    return zeta, log_rate - slope, log_gamma, log_rate, slope


def surrogate_rates(gamma: np.ndarray, zeta: np.ndarray, omega: np.ndarray,
                    bandwidth: float) -> np.ndarray:
    """Per-cluster lower-bound rate sum BW * (zeta*log2(gamma) + omega)."""
    return _surrogate(np.log2(gamma), zeta, omega, bandwidth)


def _surrogate(log_gamma: np.ndarray, zeta: np.ndarray, omega: np.ndarray,
               bandwidth: float) -> np.ndarray:
    return bandwidth * np.add.reduce(zeta * log_gamma + omega, axis=1)


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
    qos = parts.num - config.min_sinr * parts.den
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


def _sweep(gains: LinkGains, beta: np.ndarray, psi: np.ndarray,
           zeta: np.ndarray, rho: np.ndarray, duals: DualVariables,
           config: SystemConfig) -> np.ndarray:
    """One closed-form update of every coefficient, all clusters at once.

    User k's coefficient is BW * zeta_k over the denominator that makes
    dL/dbeta_k = 0. Each weaker user z < k adds a coefficient-free term and
    BW zeta_z P g_z / d_z, whose SINR denominator d_z reads the
    coefficients above z as updated so far in this sweep. So users go in
    ascending k, the coefficient-free terms are built once per sweep, and
    only d_z is rebuilt per (k, z). Raises DualInfeasibleError when a
    denominator or a coefficient is not strictly positive (duals
    inconsistent with rho, or a multiplier so large that the coefficient
    vanishes): the caller should shrink its dual steps and retry. The
    result is capped at P_max / P.
    """
    p, bw = config.cluster_power_w, config.bandwidth_hz
    g = gains.own_beam
    pg = p * g
    sic_term = np.zeros(g.shape)         # the strongest user has no gap
    sic_term[:, :-1] = duals.sic * p * g[:, 1:]
    own = LN2 * ((rho + duals.power)[:, None] * p - duals.qos * p * g - sic_term)
    weak = LN2 * (duals.qos[:, :-1] * config.min_sinr * p * g[:, :-1]
                  + sic_term[:, :-1])
    numerator = bw * zeta
    rate_gain = numerator * p * g
    out = beta.copy()
    for k in range(g.shape[1]):
        denom = own[:, k]
        for z in range(k):
            d_z = (pg[:, z] * np.add.reduce(out[:, z + 1:], axis=1) + psi[:, z]
                   + config.noise_power_w)
            denom = denom + rate_gain[:, z] / d_z + weak[:, z]
        if np.minimum.reduce(denom) <= 0.0:
            raise DualInfeasibleError(f"nonpositive stationary denominator for user {k}")
        column = numerator[:, k] / denom
        if not np.minimum.reduce(column) > 0.0:
            raise DualInfeasibleError(f"coefficient of user {k} is not positive")
        out[:, k] = column
    return np.minimum(out, config.max_power_w / config.cluster_power_w)


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
    """Everything the loop reads at ``beta``, in one pass over its SINR terms."""
    return _evaluate_parts(gains, beta, sinr_parts(gains, beta, config), config)


def _evaluate_parts(gains: LinkGains, beta: np.ndarray, parts: SinrParts,
                    config: SystemConfig) -> _Point:
    """``_evaluate`` from the ``sinr_parts`` at ``beta``. Each violation is a
    monotone map of one extreme entry, so it has the bits of the largest
    mapped entry. The smallest SINR also makes the bound's positivity check.
    """
    gamma, radiated = parts.gamma, parts.radiated
    slacks = _slacks(gains, beta, parts, config)
    low = float(np.minimum.reduce(gamma, axis=None))
    if low <= 0.0:
        raise ValueError("expansion point must be strictly positive")
    gap_short = (-float(np.minimum.reduce(slacks.sic, axis=None))
                 if slacks.sic.size else 0.0)  # K = 1: no gap
    power = max(0.0, float(np.maximum.reduce(radiated)) / config.max_power_w - 1.0)
    floor = max(0.0, 1.0 - low / config.min_sinr)
    sic = max(0.0, gap_short / config.sic_power_gap_w)
    zeta, omega, log_gamma, log_rate, slope = _bound_terms(gamma)
    bw = config.bandwidth_hz
    rates = bw * np.add.reduce(log_rate, axis=1)  # as cluster_rates_and_power
    powers = radiated + config.circuit_power_w
    rbar = bw * np.add.reduce(slope + omega, axis=1)  # as _surrogate
    return _Point(beta=beta, gamma=gamma, log_gamma=log_gamma, psi=parts.psi,
                  den=parts.den, slacks=slacks, violations=np.array([power, floor, sic]),
                  feasible=power <= _CAPS[0] and floor <= _CAPS[1] and sic <= _CAPS[2],
                  ee=float(np.add.reduce(rates / powers)), powers=powers, zeta=zeta,
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
    return _repair(gains, beta0, sinr_parts(gains, beta0, config), config)


def _repair(gains: LinkGains, beta0: np.ndarray, parts: SinrParts,
            config: SystemConfig) -> _Point | None:
    """``qos_power_repair`` from the ``sinr_parts`` of ``beta0``."""
    pg = config.cluster_power_w * gains.own_beam
    budget = min(config.cluster_power_w, config.max_power_w) / config.cluster_power_w
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
    return None if point.violations.max() > max(_CAPS) else point


def _lagrangian(rbar: np.ndarray, powers: np.ndarray, rho: np.ndarray,
               duals: DualVariables, slacks: Slacks) -> float:
    """Lagrangian of the parametric problem at fixed multipliers."""
    return float((rbar - rho * powers).sum()
                 + (duals.power * slacks.power).sum()
                 + (duals.qos * slacks.qos).sum()
                 + (duals.sic * slacks.sic).sum())


def _residual(prev: _Point, point: _Point, duals: DualVariables,
              config: SystemConfig) -> float:
    """Relative change of the Lagrangian at ``duals`` over one sweep."""
    lag_old = _lagrangian(prev.rbar, prev.powers, prev.rho, duals, prev.slacks)
    lag_new = _lagrangian(
        _surrogate(point.log_gamma, prev.zeta, prev.omega, config.bandwidth_hz),
        point.powers, prev.rho, duals, point.slacks)
    full_power = config.cluster_power_w + config.circuit_power_w
    scale = max(float((prev.rho * full_power).sum()), 1e-300)
    return abs(lag_new - lag_old) / scale


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
    """The running-best per-cluster ratios and efficiency before an iteration.

    ``rho`` may be the same array as other trace points' (and as the
    result's ``rho``): the loop rebinds its running maximum and never
    writes into it, so trace arrays are shared and read-only.
    """

    iteration: int
    rho: np.ndarray
    ee: float


@dataclass
class Stage1Result:
    beta: np.ndarray
    rho: np.ndarray
    zeta: np.ndarray
    omega: np.ndarray
    gamma: np.ndarray        # (I, K) SINRs at beta
    psi: np.ndarray          # (I, K) inter-cluster interference at beta, W
    iterations: int
    converged: bool
    feasible: bool
    residual: float
    ee: float
    trace: list[TracePoint] = field(default_factory=list)


def allocate_power(gains: LinkGains, config: SystemConfig, *,
                   max_iterations: int = 100, tolerance: float = 1e-4,
                   max_retries: int = 8, stall_limit: int = 25) -> Stage1Result:
    """Run the Stage-1 loop and return the best floor-respecting split.

    Per iteration: re-tighten the rate bound at the dual iterate, set each
    cluster's efficiency parameter to its achieved ratio, take one dual
    step, refresh all coefficients through the closed form, and let the
    incumbent absorb the new point when it improves (floor-respecting
    points always beat violating ones). Each new split is evaluated once,
    by ``_evaluate``, and every later step of the loop reads that point.

    The loop stops with ``converged=True`` after three iterations without
    improvement when the incumbent breaks the floor, or when it respects
    the floor and the dual iterate both meets the acceptance caps and has
    a parametric residual below ``tolerance`` (a small residual alone only
    says the dual step was small). It also stops once the incumbent stalls
    for ``stall_limit`` iterations. While no floor-respecting point exists
    (an unattainable floor) the multipliers diverge and the residual
    certifies nothing, so it is not waited for. The residual is computed
    only where that test reads it, and once after the loop: ``residual``
    is the one-sweep Lagrangian change of the last sweep, whichever rule
    stopped the loop, and ``inf`` when no sweep was taken. ``converged``
    is False when ``max_iterations`` is reached or every step retry
    raised ``DualInfeasibleError``.
    """
    num_clusters, users = gains.own_beam.shape
    warm = initial_coefficients(gains, config)
    parts = sinr_parts(gains, warm, config)  # read by the repair and the fallback
    # the dual iterate: the repaired warm start, or the warm start itself
    point = (_repair(gains, warm, parts, config)
             or _evaluate_parts(gains, warm, parts, config))
    inc = point                              # the incumbent
    run_rho = point.rho                      # running max per cluster
    run_ee = point.ee                        # running max overall

    duals = DualVariables.zeros(num_clusters, users)
    c = 1e-2
    prev = None                              # the point before the last sweep
    converged = False
    trace: list[TracePoint] = []
    last_improvement = 0
    p = config.cluster_power_w
    g_sic = p * gains.own_beam[:, 1:]
    sic_floor = 1e-2 * (g_sic + config.sic_power_gap_w)
    qos_base = p * gains.own_beam * config.min_sinr

    iteration = 0
    for iteration in range(1, max_iterations + 1):
        trace.append(TracePoint(iteration=iteration, rho=run_rho, ee=run_ee))

        rho_scale = max(float(np.add.reduce(point.rho)) / num_clusters, 1e-12)  # as np.mean
        qos_scale = qos_base * point.den
        # SIC-gap violations are tiny against their own scale near the
        # boundary, so the step saturates to a sign-normalized move of
        # the dual's effective magnitude Upsilon * P * g
        sic_scale = g_sic * (np.abs(point.slacks.sic) + sic_floor)
        c_try = c
        for _ in range(max_retries):
            base = c_try / math.sqrt(iteration)
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
        prev, point = point, _evaluate(gains, beta_try, config)

        # floor-respecting points beat violating ones, then efficiency decides
        if (point.feasible, point.ee) > (inc.feasible, inc.ee):
            inc = point
            last_improvement = iteration
            run_rho = np.maximum(run_rho, point.rho)
            run_ee = max(run_ee, point.ee)

        if iteration - last_improvement >= 3 and (not inc.feasible or (
                point.feasible
                and _residual(prev, point, duals, config) <= tolerance)):
            converged = True
            break
        if iteration - last_improvement >= stall_limit:
            converged = True
            break

    residual = np.inf if prev is None else _residual(prev, point, duals, config)
    feasible = bool(np.all(inc.violations <= np.array([1e-6, 1e-3, 1e-6])))
    final = inc if feasible else _evaluate(
        gains, shape_for_decode_order(inc.beta, config), config)
    trace.append(TracePoint(iteration=iteration + 1, rho=run_rho, ee=run_ee))
    return Stage1Result(beta=final.beta, rho=final.rho, zeta=final.zeta,
                        omega=final.omega, gamma=final.gamma, psi=final.psi,
                        iterations=iteration, converged=converged,
                        feasible=feasible, residual=residual, ee=final.ee,
                        trace=trace)
