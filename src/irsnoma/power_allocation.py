"""Stage 1: power-split optimization across each beam's superposed users.

With the beams and the reflection fixed, a user's interference from the
other beams is linear in the other clusters' totals s_j = sum_k beta_jk.
In the levels S_k (the summed coefficients of users k..K-1 of a cluster,
weakest first, S_0 = s_i) user k's rate is log2((P g_k S_k + c_k) /
(P g_k S_{k+1} + c_k)), c_k its interference plus noise, and the budget,
SINR-floor and decode-gap constraints are all linear. The rate telescopes
into terms that each rise with one S_k when g_k c_{k-1} > g_{k-1} c_k, so
the best split at fixed totals gives every user but the strongest its
binding floor or gap bound (Zhu et al., IEEE JSAC 2017).

The least totals that meet the floor are the least fixed point of a
monotone max-affine map (Yates, IEEE JSAC 1995), solved on its active
branches; the floor is attainable exactly when they fit the budget. One
active-set Newton ascent then maximizes the sum of per-cluster rate /
power: over the levels within the floor's polyhedron, whose faces are the
kinks of the efficiency over the totals alone, or, at an unattainable
floor, over the totals under ``shape_for_decode_order``'s weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import LinkGains, cluster_rates_and_power, sinr
from .config import SystemConfig

LN2 = float(np.log(2.0))

# the ascent stops once a full Newton step predicts less relative gain
_TOLERANCE = 1e-10


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


def shape_for_decode_order(beta: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Restore decode-order power ratios at constant per-cluster power.

    Re-splits each cluster so the weakest-first coefficients decrease
    geometrically by 1.5 times the floor: with two users, the weaker one's
    SINR against the stronger one's power alone is 1.5 times the floor.
    Stage 1 searches the totals under these weights where the floor is
    unattainable. Total per-cluster power is preserved.
    """
    ratio = config.min_sinr * 1.5
    users = beta.shape[1]
    weights = ratio ** np.arange(users - 1, -1, -1, dtype=float)
    weights /= weights.sum()
    return beta.sum(axis=1, keepdims=True) * weights[None, :]


class _Problem:
    """One Stage-1 instance: each user's interference as a linear map of
    the per-cluster totals, and the floor's bounds on the levels."""

    def __init__(self, gains: LinkGains, config: SystemConfig) -> None:
        self.config = config
        self.shape = gains.own_beam.shape                           # (I, K)
        self.pg = config.cluster_power_w * gains.own_beam
        cross = gains.cross_beam.copy()
        beams = np.arange(self.shape[0])
        cross[beams, :, beams] = 0.0
        self.inflow = np.zeros((*self.shape, self.pg.size))  # c - sigma^2 over the levels
        self.inflow[..., ::self.shape[1]] = config.cluster_power_w * cross
        self.high = config.max_power_w / config.cluster_power_w

    def constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit rows ``a`` and bounds ``b`` of ``a @ levels <= b``, I rows
        each: the budget, per weaker user its floor then its gap bound, and
        the strongest user's floor."""
        cfg, (clusters, users) = self.config, self.shape
        eye, inflow = np.eye(self.pg.size).reshape(self.inflow.shape), self.inflow
        need, gap = cfg.min_sinr / self.pg, cfg.sic_power_gap_w / self.pg[:, 1:]
        rows, bounds = [eye[:, 0]], [np.full(clusters, self.high)]
        for k in range(users - 1):
            rows += [(1.0 + cfg.min_sinr) * eye[:, k + 1] - eye[:, k]
                     + need[:, k, None] * inflow[:, k], 2.0 * eye[:, k + 1] - eye[:, k]]
            bounds += [-need[:, k] * cfg.noise_power_w, -gap[:, k]]
        rows.append(need[:, -1, None] * inflow[:, -1] - eye[:, -1])
        bounds.append(-need[:, -1] * cfg.noise_power_w)
        a, b = np.concatenate(rows), np.concatenate(bounds)
        norm = np.linalg.norm(a, axis=1)
        return a / norm[:, None], b / norm

    def tight(self, a: np.ndarray, b: np.ndarray, first: slice) -> np.ndarray | None:
        """The levels where the rows ``first`` and, per weaker user, one of
        its floor and gap rows are tight, swapping in broken partners until
        none is broken. For the least levels (``first`` the strongest users'
        floors) each solution is a rising lower bound of the least fixed
        point; a singular system or a nonpositive total shows there is none."""
        clusters, users = self.shape
        pairs = clusters + np.arange(2 * clusters * (users - 1)).reshape(users - 1, 2, clusters)
        pick = np.zeros((users - 1, 1, clusters), dtype=int)
        while True:
            rows = np.r_[np.arange(b.size)[first], np.take_along_axis(pairs, pick, 1).ravel()]
            try:
                levels = np.linalg.solve(a[rows], b[rows])
            except np.linalg.LinAlgError:
                return None
            if not np.all(levels[::users] > 0.0):
                return None
            other = np.take_along_axis(pairs, 1 - pick, 1)
            broken = a[other] @ levels > b[other] + 1e-12 * self.high
            if not broken.any():
                return levels
            pick[broken] ^= 1

    def certify(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """The least levels in ``a @ levels <= b`` (rows as ``constraints``
        gives them), or None: no fixed point, or one above the budget."""
        levels = self.tight(a, b, slice(-self.shape[0], None))
        return None if levels is None or np.any(levels[::self.shape[1]] > self.high) else levels


class _Efficiency:
    """The sum of per-cluster rate / power, with its analytic gradient and
    Hessian, over ``x``: the levels, or (``bound`` False) the I totals under
    the decode-order weights. User k's rate is log2(num / den), and every
    num, den and power is affine in the levels, so in ``x``."""

    def __init__(self, problem: _Problem, bound: bool) -> None:
        (clusters, users), size = problem.shape, problem.pg.size
        level_map = np.eye(size)
        if not bound:
            weights = shape_for_decode_order(np.full((1, users), 1.0 / users),
                                             problem.config)[0]
            tails = weights[::-1].cumsum()[::-1]                    # W_0 = 1
            level_map = (np.eye(clusters)[:, None, :] * tails[:, None]).reshape(size, -1)
        own, inflow = np.diag(problem.pg.ravel()), problem.inflow.reshape(size, size)
        shift = np.eye(size, k=1)
        shift[users - 1::users] = 0.0    # S_K = 0
        self.num = (own + inflow) @ level_map
        self.den = (own @ shift + inflow) @ level_map
        self.power = problem.config.cluster_power_w * level_map[::users]
        self.shape, self.config, self.level_map = problem.shape, problem.config, level_map

    def value(self, x: np.ndarray):
        """(efficiency, per-cluster ratios, terms the derivatives read)."""
        cfg = self.config
        num = cfg.noise_power_w + self.num @ x
        den = cfg.noise_power_w + self.den @ x
        rates = cfg.bandwidth_hz * np.log2(num / den).reshape(self.shape).sum(axis=1)
        power = cfg.circuit_power_w + self.power @ x
        ratios = rates / power
        return float(ratios.sum()), ratios, (num, den, rates, power)

    def derivatives(self, terms) -> tuple[np.ndarray, np.ndarray]:
        num, den, rates, power = terms
        scale = self.config.bandwidth_hz / LN2
        a, b = self.num / num[:, None], self.den / den[:, None]
        rate_rows = scale * (a - b).reshape(*self.shape, -1).sum(axis=1)
        grad = rate_rows.T @ (1.0 / power) - self.power.T @ (rates / power ** 2)
        weight = np.repeat(np.sqrt(1.0 / power), self.shape[1])[:, None]
        a, b = a * weight, b * weight
        cross = self.power.T @ (rate_rows / (power ** 2)[:, None])
        hess = (scale * (b.T @ b - a.T @ a) - cross - cross.T
                + self.power.T @ (self.power * (2.0 * rates / power ** 3)[:, None]))
        return grad, hess


@dataclass
class TracePoint:
    """The running-best per-cluster ratios and efficiency after ``iteration``
    ascent steps; ``rho`` arrays are shared between points and read-only."""

    iteration: int
    rho: np.ndarray
    ee: float


@dataclass
class Stage1Result:
    beta: np.ndarray
    rho: np.ndarray          # (I,) per-cluster rate / consumed power at beta
    gamma: np.ndarray        # (I, K) SINRs at beta
    psi: np.ndarray          # (I, K) inter-cluster interference at beta, W
    iterations: int          # ascent steps taken
    converged: bool          # the stop test held within max_iterations
    feasible: bool           # the floor is attainable (certified)
    residual: float          # relative gain of a full Newton step at beta
    ee: float
    trace: list[TracePoint] = field(default_factory=list)


def _ascend(efficiency: _Efficiency, a: np.ndarray, b: np.ndarray,
            x: np.ndarray, max_iterations: int):
    """Active-set Newton ascent over ``a @ x <= b`` from a feasible ``x``:
    the Newton step in the null space of the held rows (negative curvature
    flipped), stopped at the first row it reaches, which is then held, and
    halved until it gains (Armijo). Below ``_TOLERANCE`` predicted relative
    gain the held row with the most negative multiplier is let go; with
    none left the ascent has converged."""
    ee, ratios, terms = efficiency.value(x)
    held = b - a @ x <= 1e-12 * np.abs(x).max()
    run_rho, trace = ratios, [TracePoint(0, ratios, ee)]
    steps, converged, residual, basis = 0, False, np.inf, None
    for _ in range(max_iterations + b.size):
        grad, hess = efficiency.derivatives(terms)
        if basis is None:            # null space of the held rows
            _, sv, vt = np.linalg.svd(a[held])
            basis = vt[np.count_nonzero(sv > 1e-10 * sv.max(initial=0.0)):].T
        curv, vecs = np.linalg.eigh(basis.T @ -hess @ basis)
        curv = np.maximum(np.abs(curv), 1e-12 * np.abs(curv).max(initial=1.0))
        step = basis @ (vecs @ ((vecs.T @ (basis.T @ grad)) / curv))
        residual = float(grad @ step) / ee
        if residual <= _TOLERANCE:
            mult = np.linalg.lstsq(a[held].T, grad)[0] if held.any() else grad[:0]
            if not mult.size or mult.min() >= -1e-9 * np.abs(grad).max():
                converged = True
                break
            held[np.flatnonzero(held)[mult.argmin()]], basis = False, None
            continue
        if steps == max_iterations:
            break
        rise = a @ step
        limits = np.full(b.size, np.inf)
        np.divide(b - a @ x, rise, out=limits, where=~held & (rise > 0.0))
        hit = int(limits.argmin())
        reach = t = min(1.0, max(float(limits[hit]), 0.0))
        for _ in range(50):
            ee_new, ratios, terms_new = efficiency.value(x + t * step)
            if ee_new >= ee + 1e-4 * t * residual * ee:
                break
            t *= 0.5
        else:
            break
        if t == reach < 1.0:
            held[hit], basis = True, None
        x, ee, terms = x + t * step, ee_new, terms_new
        steps += 1
        run_rho = np.maximum(run_rho, ratios)
        trace.append(TracePoint(steps, run_rho, ee))
    return x, steps, converged, residual, trace


def allocate_power(gains: LinkGains, config: SystemConfig, *,
                   max_iterations: int = 100) -> Stage1Result:
    """Certify the floor, then maximize the efficiency by ``_ascend``.

    An attainable floor is searched over its polyhedron from its least
    levels, lifted to a tenth of the budget where that keeps the floor; an
    unattainable one from a tenth of the budget. ``feasible`` is the
    certificate, and the reflection stage runs exactly where it holds.
    ``converged`` is False after ``max_iterations`` steps or when no
    halving of a step gained.
    """
    problem = _Problem(gains, config)
    clusters, users = problem.shape
    a, b = problem.constraints()
    least = problem.certify(a, b)
    feasible = least is not None
    efficiency = _Efficiency(problem, feasible)
    x = np.full(clusters, 0.1 * problem.high)
    if feasible:
        # the least totals scaled up still meet the floor (interference is
        # linear in them, noise is not), so the second lift always does
        totals = least[::users]
        for lift in (np.maximum(x, totals), totals * (problem.high / totals.max())):
            x = problem.tight(a, np.r_[lift, b[clusters:]], slice(clusters))
            if x is not None and np.all(a @ x - b <= 1e-12 * problem.high):
                break
    else:
        # every beam keeps a 1e-6 share of its budget, so no beam falls
        # silent: every user of the split reported at an unattainable floor
        # keeps a positive SINR and rate
        a = np.r_[np.eye(clusters), -np.eye(clusters)]
        b = np.r_[np.full(clusters, problem.high), np.full(clusters, -1e-6 * problem.high)]
    x, steps, converged, residual, trace = _ascend(efficiency, a, b, x, max_iterations)
    levels = (efficiency.level_map @ x).reshape(clusters, users)
    beta = levels - np.append(levels[:, 1:], np.zeros((clusters, 1)), axis=1)
    gamma, psi = sinr(gains, beta, config)
    rates, powers = cluster_rates_and_power(gamma, beta, config)
    rho = rates / powers
    return Stage1Result(beta=beta, rho=rho, gamma=gamma, psi=psi,
                        iterations=steps, converged=converged, feasible=feasible,
                        residual=residual, ee=float(np.sum(rho)), trace=trace)
