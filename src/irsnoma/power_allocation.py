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
floor, over the totals under ``decode_order_split``'s weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channel import energy_efficiency, own_beam, sinr
from .config import SystemConfig

LN2 = float(np.log(2.0))

# the ascent stops once a full Newton step predicts less relative gain
_TOLERANCE = 1e-10


def decode_order_split(beta: np.ndarray, min_sinr: float) -> np.ndarray:
    """Restore decode-order power ratios at constant per-cluster power.

    Re-splits each cluster so the weakest-first coefficients decrease
    geometrically by 1.5 times the floor ``min_sinr``: with two users, the
    weaker one's SINR against the stronger one's power alone is 1.5 times
    the floor. Stage 1 searches the totals under these weights where the
    floor is unattainable. Total per-cluster power is preserved.
    """
    ratio = min_sinr * 1.5
    users = beta.shape[1]
    weights = ratio ** np.arange(users - 1, -1, -1, dtype=float)
    weights /= weights.sum()
    return beta.sum(axis=1, keepdims=True) * weights[None, :]


@dataclass(frozen=True)
class _Layout:
    """The read-only arrays of a Stage-1 problem that depend on its shape
    (I, K) and floor alone, never on a draw. Constraint rows are ordered as
    ``_Problem.constraints`` gives them: I budget rows, then per weaker user
    k its floor rows and its gap rows, then the strongest users' floors."""

    unit: np.ndarray     # (2, n, n): the identity, and the level shift (S_K = 0)
    rows: np.ndarray     # (2n, n): the constraint rows without the interference
    floor: np.ndarray    # (K, I): the row of user k's floor, per cluster
    gap: np.ndarray      # (K - 1, I): the row of weaker user k's gap bound
    decode: np.ndarray   # (n, I): the levels of the totals under decode-order weights
    box: np.ndarray      # (2I, I): the rows of the totals' box at an unattainable floor
    start: np.ndarray    # (2, n): ``tight``'s first rows, from the budgets or the top floors
    others: np.ndarray   # (I, 1, I): False where a user's interference is its own beam


@functools.lru_cache(maxsize=64)
def _layout(clusters: int, users: int, min_sinr: float) -> _Layout:
    """The ``_Layout`` of shape (clusters, users) at floor ``min_sinr``,
    built once per key: the key holds no draw, so every call shares it."""
    size = clusters * users
    floor = clusters + 2 * clusters * np.arange(users)[:, None] + np.arange(clusters)
    gap = floor[:-1] + clusters
    unit = np.stack((np.eye(size), np.eye(size, k=1)))
    unit[1, users - 1::users] = 0.0
    eye = unit[0].reshape(clusters, users, size)
    rows = np.empty((2 * size, size))
    rows[:clusters] = eye[:, 0]
    for k in range(users - 1):
        rows[floor[k]] = (1.0 + min_sinr) * eye[:, k + 1] - eye[:, k]
        rows[gap[k]] = 2.0 * eye[:, k + 1] - eye[:, k]
    rows[floor[-1]] = -eye[:, -1]
    weights = decode_order_split(np.full((1, users), 1.0 / users), min_sinr)[0]
    tails = weights[::-1].cumsum()[::-1]                            # W_0 = 1
    decode = (np.eye(clusters)[:, None, :] * tails[:, None]).reshape(size, -1)
    box = np.concatenate((np.eye(clusters), -np.eye(clusters)))
    weaker = floor[:-1].ravel()
    start = np.stack((np.concatenate((np.arange(clusters), weaker)),
                      np.concatenate((floor[-1], weaker))))
    others = ~np.eye(clusters, dtype=bool)[:, None, :]
    layout = _Layout(unit=unit, rows=rows, floor=floor, gap=gap, decode=decode, box=box,
                     start=start, others=others)
    for array in (unit, rows, floor, gap, decode, box, start, others):
        array.flags.writeable = False
    return layout


class _Problem:
    """One Stage-1 instance: each user's interference as a linear map of
    the per-cluster totals, and the floor's bounds on the levels."""

    def __init__(self, gains: np.ndarray, config: SystemConfig) -> None:
        self.config = config
        self.shape = clusters, users = gains.shape[:-1]               # (I, K)
        self.layout = _layout(clusters, users, config.min_sinr)
        self.pg = config.cluster_power_w * own_beam(gains)
        self.inflow = np.zeros((*self.shape, self.pg.size))  # c - sigma^2 over the levels
        np.multiply(config.cluster_power_w, gains, out=self.inflow[..., ::users],
                    where=self.layout.others)
        self.high = config.max_power_w / config.cluster_power_w

    def constraints(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit rows ``a`` and bounds ``b`` of ``a @ levels <= b``, I rows
        each: the budget, per weaker user its floor then its gap bound, and
        the strongest user's floor. So in K blocks of 2I rows, block k holds
        user k - 1's gap rows (the budgets for k = 0), then user k's floors."""
        cfg, clusters, users = self.config, *self.shape
        need = cfg.min_sinr / self.pg
        a = self.layout.rows.copy()
        b = np.empty(a.shape[0])
        blocks_a = a.reshape(users, 2 * clusters, -1)
        blocks_b = b.reshape(users, 2 * clusters)
        blocks_a[:, clusters:] += (need[:, :, None] * self.inflow).transpose(1, 0, 2)
        blocks_b[0, :clusters] = self.high
        blocks_b[:, clusters:] = -need.T * cfg.noise_power_w
        blocks_b[1:, :clusters] = -(cfg.sic_power_gap_w / self.pg[:, 1:]).T
        norm = np.sqrt(np.add.reduce(a * a, axis=1))
        a /= norm[:, None]
        b /= norm
        return a, b

    def tight(self, a: np.ndarray, b: np.ndarray, start: np.ndarray) -> np.ndarray | None:
        """The levels where the rows ``start`` (a row of ``layout.start``:
        I fixed rows, then every weaker user's floor) are tight, swapping
        in a weaker user's gap row for its floor, and back, while the row
        left out is broken. For the least levels (the strongest users'
        floors fixed) each solution is a rising lower bound of the least
        fixed point; a singular system or a nonpositive total shows there
        is none."""
        clusters, users = self.shape
        floor, gap = self.layout.floor[:-1], self.layout.gap
        rows, other, pick = start, gap, False                  # pick True: the gap row
        while True:
            try:
                levels = np.linalg.solve(a[rows], b[rows])
            except np.linalg.LinAlgError:
                return None
            if not (levels[::users] > 0.0).all():
                return None
            broken = a[other] @ levels > b[other] + 1e-12 * self.high
            if not broken.any():
                return levels
            pick = pick ^ broken
            rows = np.concatenate((start[:clusters], np.where(pick, gap, floor).ravel()))
            other = np.where(pick, floor, gap)

    def certify(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """The least levels in ``a @ levels <= b`` (rows as ``constraints``
        gives them), or None: no fixed point, or one above the budget."""
        levels = self.tight(a, b, self.layout.start[1])
        return None if levels is None or (levels[::self.shape[1]] > self.high).any() else levels


class _Efficiency:
    """The sum of per-cluster rate / power, with its analytic gradient and
    Hessian, over ``x``: the levels, or (``bound`` False) the I totals under
    the decode-order weights. User k's rate is log2(num / den), and every
    num, den and power is affine in the levels, so in ``x``; ``parts``
    stacks the num and den maps, (2, n, len(x))."""

    def __init__(self, problem: _Problem, bound: bool) -> None:
        layout, size, users = problem.layout, problem.pg.size, problem.shape[1]
        level_map = layout.unit[0] if bound else layout.decode
        inflow = problem.inflow.reshape(size, size)
        cfg = problem.config
        self.parts = (problem.pg.reshape(size, 1) * layout.unit + inflow) @ level_map
        self.power = cfg.cluster_power_w * level_map[::users]
        self.power_t = self.power.T
        self.noise, self.bandwidth, self.circuit = (
            cfg.noise_power_w, cfg.bandwidth_hz, cfg.circuit_power_w)
        self.scale = cfg.bandwidth_hz / LN2
        self.shape, self.level_map = problem.shape, level_map

    def value(self, x: np.ndarray):
        """(efficiency, terms the derivatives read)."""
        parts = self.noise + self.parts @ x                         # num, den
        rates = self.bandwidth * np.add.reduce(
            np.log2(parts[0] / parts[1]).reshape(self.shape), axis=1)
        power = self.circuit + self.power @ x
        return float(np.add.reduce(rates / power)), (parts, rates, power)

    def derivatives(self, terms) -> tuple[np.ndarray, np.ndarray]:
        parts, rates, power = terms
        scale, power_t = self.scale, self.power_t
        rows = self.parts / parts[:, :, None]
        rate_rows = scale * np.add.reduce((rows[0] - rows[1]).reshape(*self.shape, -1), axis=1)
        inverse, square = 1.0 / power, power ** 2
        grad = rate_rows.T @ inverse - power_t @ (rates / square)
        rows *= np.sqrt(inverse).repeat(self.shape[1])[:, None]
        gram = rows.transpose(0, 2, 1) @ rows
        cross = power_t @ (rate_rows / square[:, None])
        hess = (scale * (gram[1] - gram[0]) - cross - cross.T
                + power_t @ (self.power * (2.0 * rates / power ** 3)[:, None]))
        return grad, hess


@dataclass
class TracePoint:
    """The efficiency after t ascent steps, t the point's trace index."""

    ee: float


@dataclass
class Stage1Result:
    beta: np.ndarray
    psi: np.ndarray          # (I, K) inter-cluster interference at beta, W
    iterations: int          # ascent steps taken
    converged: bool          # the stop test held within max_iterations
    feasible: bool           # the floor is attainable (certified)
    residual: float          # relative gain of a full Newton step at beta
    ee: float
    trace: list[TracePoint] = field(default_factory=list)


def _null_space(a: np.ndarray, held: np.ndarray) -> np.ndarray | None:
    """An orthonormal basis of the null space of the held rows of ``a``, or
    None for the whole space when none is held (the SVD would return the
    identity, and products with it are exact)."""
    if not held.any():
        return None
    _, sv, vt = np.linalg.svd(a[held])
    return vt[np.count_nonzero(sv > 1e-10 * np.maximum.reduce(sv, initial=0.0)):].T


def _ascend(efficiency: _Efficiency, a: np.ndarray, b: np.ndarray,
            x: np.ndarray, max_iterations: int):
    """Active-set Newton ascent over ``a @ x <= b`` from a feasible ``x``:
    the Newton step in the null space of the held rows (negative curvature
    flipped), stopped at the first row it reaches, which is then held, and
    halved until it gains (Armijo). Below ``_TOLERANCE`` predicted relative
    gain the held row with the most negative multiplier is let go; with
    none left the ascent has converged."""
    ee, terms = efficiency.value(x)
    held = b - a @ x <= 1e-12 * np.maximum.reduce(np.abs(x))
    trace = [TracePoint(ee)]
    converged, residual = False, np.inf
    basis = _null_space(a, held)
    for _ in range(max_iterations + b.size):
        grad, hess = efficiency.derivatives(terms)
        whole = basis is None        # no row is held
        curv, vecs = np.linalg.eigh(-hess if whole else basis.T @ -hess @ basis)
        magnitude = np.abs(curv)
        curv = np.maximum(magnitude, 1e-12 * np.maximum.reduce(magnitude, initial=1.0))
        step = vecs @ ((vecs.T @ (grad if whole else basis.T @ grad)) / curv)
        if not whole:
            step = basis @ step
        residual = float(grad @ step) / ee
        if residual <= _TOLERANCE:
            mult = np.linalg.lstsq(a[held].T, grad)[0] if held.any() else grad[:0]
            if not mult.size or mult.min() >= -1e-9 * np.maximum.reduce(np.abs(grad)):
                converged = True
                break
            held[np.flatnonzero(held)[mult.argmin()]] = False
            basis = _null_space(a, held)
            continue
        if len(trace) > max_iterations:
            break
        rise = a @ step
        limits = np.empty(b.size)
        limits.fill(np.inf)
        np.divide(b - a @ x, rise, out=limits, where=~held & (rise > 0.0))
        hit = int(limits.argmin())
        reach = t = min(1.0, max(float(limits[hit]), 0.0))
        for _ in range(50):
            trial = x + t * step
            ee_new, terms_new = efficiency.value(trial)
            if ee_new >= ee + 1e-4 * t * residual * ee:
                break
            t *= 0.5
        else:
            break
        if t == reach < 1.0:
            held[hit] = True
            basis = _null_space(a, held)
        x, ee, terms = trial, ee_new, terms_new
        trace.append(TracePoint(ee))
    return x, converged, residual, trace


def allocate_power(gains: np.ndarray, config: SystemConfig, *,
                   max_iterations: int = 100) -> Stage1Result:
    """Certify the floor, then maximize the efficiency by ``_ascend``, on
    one plan's (I, K, I) ``gains`` from ``link_gains``.

    An attainable floor is searched over its polyhedron from its least
    levels, lifted to a tenth of the budget where that keeps the floor; an
    unattainable one from a tenth of the budget. ``feasible`` is the
    certificate, and the reflection stage runs exactly where it holds.
    ``converged`` is False after ``max_iterations`` steps or when no
    halving of a step gained. A negative ``max_iterations`` raises
    ValueError.
    """
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations}")
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
            x = problem.tight(a, np.concatenate((lift, b[clusters:])), problem.layout.start[0])
            if x is not None and (a @ x - b <= 1e-12 * problem.high).all():
                break
    else:
        # every beam keeps a 1e-6 share of its budget, so no beam falls
        # silent: every user of the split reported at an unattainable floor
        # keeps a positive SINR and rate
        a, b = problem.layout.box, np.empty(2 * clusters)
        b[:clusters] = problem.high
        b[clusters:] = -1e-6 * problem.high
    x, converged, residual, trace = _ascend(efficiency, a, b, x, max_iterations)
    beta = (efficiency.level_map @ x).reshape(clusters, users)     # the levels
    beta[:, :-1] -= beta[:, 1:]      # NumPy reads the overlapping operand as it was
    gamma, psi = sinr(gains, beta, config)
    return Stage1Result(beta=beta, psi=psi, iterations=len(trace) - 1, converged=converged,
                        feasible=feasible, residual=residual,
                        ee=energy_efficiency(gamma, beta, config), trace=trace)
