"""Dense barrier solver for small Hermitian semidefinite programs.

Problem class: maximize Re tr(C B) over Hermitian B >= 0 subject to linear
inequalities Re tr(A_m B) >= c_m and the elementwise bound diag(B) <= 1,
the unit-modulus relaxation |b_n|^2 <= 1 of a lifted B = b b^H. The
diagonal bound makes the feasible set compact (|B_ij|^2 <= B_ii B_jj),
so the problem is never unbounded.

Method: primal path-following on the log-barrier

    phi_t(B) = -t Re tr(C B) - log det B - sum_m log(slack_m) - sum_n log(1 - B_nn)

with exact Newton steps. The Newton system is the positive map
B^-1 (.) B^-1 plus a low-rank sum over constraint normals, so it is solved
through the inverse map B (.) B and a small dense correction system. Each
constraint and log-term matrix A = U D U^H is kept as its eigenpairs above
a 1e-13 relative cutoff, so a step forms B A B as (B U) D (B U)^H and reads
every trace against the stacked matrices in one product. A Newton step
thus costs O(N^2 rank) per matrix, plus one eigendecomposition per matrix
per problem and a few O(N^3) products on B itself around one Cholesky
factor. The barrier parameter grows tenfold per centering round until the
gap estimate nu / t clears the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

_HERM_TOL = 1e-9
_RANK_TOL = 1e-13
_STRICT_MARGIN = 1e-12   # relative slack a strictly feasible point keeps
DIAG_BOUND = 1.0   # diag(B) <= 1: the unit-modulus relaxation |b_n|^2 <= 1


def frob(x: np.ndarray, y: np.ndarray) -> float:
    """Re tr(X Y) for Hermitian arguments."""
    return float(np.real(np.einsum("ij,ji->", x, y)))


def _real_rows(mats: np.ndarray) -> np.ndarray:
    """(k, 2 N^2) float view of a contiguous complex (k, N, N) stack."""
    k, n, _ = mats.shape
    return mats.reshape(k, n * n).view(np.float64)


def low_rank_factors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of each Hermitian matrix in a (m, N, N) stack.

    Keeps the pairs with |lambda| > 1e-13 max|lambda| of their own matrix,
    so that mats[s] = vecs[s] @ diag(vals[s]) @ vecs[s]^H up to rounding.
    Matrices of lower rank are padded to the common rank R with zero
    eigenvalues; an all-zero matrix keeps none. Returns vecs (m, N, R) and
    vals (m, R).
    """
    vals, vecs = np.linalg.eigh(mats)
    peak = np.abs(vals).max(axis=-1, initial=0.0)
    keep = np.abs(vals) > _RANK_TOL * peak[:, None]
    rank = int(keep.sum(axis=-1).max(initial=0))
    # kept pairs first, in eigh's order, then cut to the common rank
    order = np.argsort(~keep, axis=-1, kind="stable")[:, :rank]
    vals = np.where(np.take_along_axis(keep, order, axis=-1),
                    np.take_along_axis(vals, order, axis=-1), 0.0)
    return np.take_along_axis(vecs, order[:, None, :], axis=-1), vals


@dataclass
class SdpProblem:
    """maximize Re tr(C B) + sum_l w_l ln(Re tr(M_l B))
    subject to Re tr(A_m B) >= c_m, diag(B) <= DIAG_BOUND, B >= 0.

    ``constraints`` is the pair (A, c) of an (m, N, N) matrix stack and its
    (m,) bounds, ``log_terms`` the pair (M, w) of an (l, N, N) stack and its
    positive weights; None stands for an empty pair. Every matrix must be
    Hermitian to 1e-9 of its largest entry (at least 1). Weighted concave
    logs of positive traces share the Newton structure of the constraint
    barriers, so they come at no extra solver machinery. The matrices are
    validated, symmetrized and stacked once, at construction, and factored
    once, on first use; both pairs then hold views into that one stack, so
    a problem is not edited after it is built.
    """

    objective: np.ndarray
    constraints: tuple[np.ndarray, np.ndarray] | None = None
    log_terms: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        objective = np.asarray(self.objective, dtype=complex)
        n = objective.shape[0]
        empty = (np.zeros((0, n, n)), np.zeros(0))
        a, c = self.constraints or empty
        m, w = self.log_terms or empty
        # the objective, the constraint matrices, then the log-term matrices
        stacks = [np.asarray(x, dtype=complex) for x in (objective[None], a, m)]
        bounds = np.asarray(c, dtype=float)
        weights = np.asarray(w, dtype=float)
        if (any(x.shape[1:] != (n, n) for x in stacks)
                or (bounds.shape, weights.shape) != (stacks[1].shape[:1],
                                                     stacks[2].shape[:1])):
            raise ValueError("mismatched dimension: the objective must be N x N, "
                             "and each stack hold N x N matrices, one value each")
        if np.any(weights <= 0.0):
            raise ValueError("every log term needs a positive weight")
        stack = np.concatenate(stacks)
        adjoint = stack.conj().transpose(0, 2, 1)
        scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
        skew = np.abs(stack - adjoint).max(axis=(1, 2))
        bad = np.flatnonzero(skew > _HERM_TOL * scale)
        if bad.size:
            raise ValueError(f"matrices {bad.tolist()} of (objective, constraints, "
                             "log terms) are not Hermitian")
        stack = 0.5 * (stack + adjoint)
        self.objective, self._stack = stack[0], stack[1:]
        self.constraints = (self._stack[:bounds.size], bounds)
        self.log_terms = (self._stack[bounds.size:], weights)
        self._rows = _real_rows(self._stack)

    @property
    def dim(self) -> int:
        return self.objective.shape[0]

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvectors (N, m R) and eigenvalues (m, R) of the stack.

        Computed on the first Newton step, so a problem that never takes
        one never pays for it. The vectors of all matrices sit
        side by side, so one product B @ U gives B U_s for every matrix.
        """
        vecs, vals = low_rank_factors(self._stack)
        return vecs.transpose(1, 0, 2).reshape(self.dim, -1), vals

    def _traces(self, x: np.ndarray) -> np.ndarray:
        """Re tr(S X) for every stacked matrix S, constraints first.

        ``x`` is one (N, N) matrix, giving shape (m,), or a (k, N, N)
        stack, giving (m, k). For Hermitian S, Re tr(S X) is
        sum_ij Re S_ij Re X_ij + Im S_ij Im X_ij, one real product.
        """
        x = np.ascontiguousarray(x, dtype=complex)
        if x.ndim == 2:
            return self._rows @ x.reshape(-1).view(np.float64)
        return self._rows @ _real_rows(x).T

    def value(self, b: np.ndarray) -> float:
        """Objective value (linear plus weighted logs) at a feasible point."""
        total = frob(self.objective, b)
        for mat, weight in zip(*self.log_terms):
            trace = frob(mat, b)
            if trace <= 0.0:
                return -np.inf
            total += weight * float(np.log(trace))
        return float(total)


@dataclass
class SdpSolution:
    matrix: np.ndarray
    status: str              # "optimal" | "max_iters" | "infeasible"
    objective: float
    newton_steps: int


def _slacks_and_traces(problem: SdpProblem,
                       b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    traces = problem._traces(b)
    _, bounds = problem.constraints
    diag = DIAG_BOUND - np.real(np.diag(b))
    return traces[:bounds.size] - bounds, diag, traces[bounds.size:]


def strictly_feasible(problem: SdpProblem, b: np.ndarray) -> bool:
    """True when ``b`` sits strictly inside every constraint of ``problem``."""
    lin, diag, traces = _slacks_and_traces(problem, b)
    scale = 1.0 + float(np.abs(problem.constraints[1]).max(initial=0.0))
    if lin.size and lin.min() <= _STRICT_MARGIN * scale:
        return False
    if diag.min() <= _STRICT_MARGIN * DIAG_BOUND:
        return False
    if traces.size and traces.min() <= 0.0:
        return False
    try:
        np.linalg.cholesky(b + 0.0j)
    except np.linalg.LinAlgError:
        return False
    return True


class BarrierPoint(NamedTuple):
    """An iterate inside the barrier's domain and what a step from it reuses."""

    matrix: np.ndarray
    value: float             # phi_t
    lin: np.ndarray          # constraint slacks
    diag: np.ndarray         # diagonal slacks
    traces: np.ndarray       # log-term traces
    chol: np.ndarray         # lower Cholesky factor of ``matrix``


def barrier_point(problem: SdpProblem, b: np.ndarray, t: float) -> BarrierPoint | None:
    """phi_t and its pieces at ``b``; None outside the barrier's domain."""
    lin, diag, traces = _slacks_and_traces(problem, b)
    if (lin.size and lin.min() <= 0.0) or diag.min() <= 0.0:
        return None
    if traces.size and traces.min() <= 0.0:
        return None
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return None
    logdet = 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
    value = -t * frob(problem.objective, b) - logdet
    for trace, weight in zip(traces, problem.log_terms[1]):
        value -= t * weight * float(np.log(trace))
    if lin.size:
        value -= float(np.sum(np.log(lin)))
    value -= float(np.sum(np.log(diag)))
    return BarrierPoint(b, value, lin, diag, traces, chol)


def newton_direction(problem: SdpProblem, point: BarrierPoint,
                     t: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Newton direction of phi_t at ``point``, its squared decrement, and L^-1.

    The direction D solves the Newton system

        B^-1 D B^-1 + sum_s w_s Re tr(S_s D) S_s + Diag(w_d * diag D) = -grad phi_t

    over the stacked matrices S_s (w_s = 1 / slack_s^2 for a constraint,
    t w_l / trace_l^2 for a log term, w_d = 1 / (1 - B_nn)^2), through the
    inverse map B (.) B and a dense (m + N)-square correction system. The
    inverse Cholesky factor L^-1 gives B^-1 = L^-H L^-1 and is returned for
    the step bound.
    """
    b = point.matrix
    n = problem.dim
    m = problem._stack.shape[0]
    linv = np.linalg.inv(point.chol)
    # every stacked matrix enters the barrier as -scale_s log(slack_s)
    slack = np.concatenate([point.lin, point.traces])
    scale = np.concatenate([np.ones(point.lin.size), t * problem.log_terms[1]])
    resid = t * problem.objective + linv.conj().T @ linv
    resid += (scale / slack @ problem._rows).view(complex).reshape(n, n)
    resid[np.diag_indices(n)] -= 1.0 / point.diag
    q = b @ resid @ b
    # B S_s B = (B U_s) D_s (B U_s)^H, stacked (m, N, N)
    vecs, vals = problem._factors
    bu = (b @ vecs).reshape(n, m, vals.shape[1]).transpose(1, 0, 2)
    proj = (bu * vals[:, None, :]) @ bu.conj().transpose(0, 2, 1)

    r = m + n
    w = np.concatenate([scale / slack**2, 1.0 / point.diag**2])
    gram = np.empty((r, r))
    inner = problem._traces(proj)
    gram[:m, :m] = 0.5 * (inner + inner.T)
    gram[:m, m:] = np.real(np.diagonal(proj, axis1=1, axis2=2))
    gram[m:, :m] = gram[:m, m:].T
    gram[m:, m:] = np.abs(b) ** 2
    rhs = np.concatenate([problem._traces(q), np.real(np.diag(q))])

    sqrt_w = np.sqrt(w)
    core = np.eye(r) + sqrt_w[:, None] * gram * sqrt_w[None, :]
    wy = w * np.linalg.solve(core, sqrt_w * rhs) / sqrt_w
    delta = q - (wy[:m] @ _real_rows(proj)).view(complex).reshape(n, n)
    delta -= (b * wy[m:][None, :]) @ b
    delta = 0.5 * (delta + delta.conj().T)
    return delta, frob(resid, delta), linv


def _max_step(problem: SdpProblem, point: BarrierPoint, delta: np.ndarray,
              linv: np.ndarray) -> float:
    """Largest step along ``delta`` keeping every barrier term defined."""
    s_max = 1.0
    slack = np.concatenate([point.lin, point.traces])
    change = problem._traces(delta)
    falling = change < 0.0
    if np.any(falling):
        s_max = min(s_max, float(np.min(slack[falling] / -change[falling])))
    d_diag = np.real(np.diag(delta))
    rising = d_diag > 0.0
    if np.any(rising):
        s_max = min(s_max, float(np.min(point.diag[rising] / d_diag[rising])))
    white = linv @ delta @ linv.conj().T
    lam_min = float(np.min(np.linalg.eigvalsh(0.5 * (white + white.conj().T))))
    if lam_min < 0.0:
        s_max = min(s_max, 1.0 / -lam_min)
    return s_max


def _center(problem: SdpProblem, b: np.ndarray, t: float, newton_budget: int,
            ctol: float) -> tuple[np.ndarray, int]:
    """Newton descent on phi_t from a strictly feasible start.

    Stops when the Newton decrement satisfies lambda^2 / 2 <= ctol; a loose
    ctol keeps the iterate inside the quadratic-convergence basin of the
    next barrier round at a fraction of the cost of exact centering. The
    accepted line-search point carries its barrier value, slacks and
    Cholesky factor into the next step.
    """
    point = barrier_point(problem, b, t)
    steps = 0
    while point is not None and steps < newton_budget:
        delta, decrement, linv = newton_direction(problem, point, t)
        if not np.isfinite(decrement) or decrement <= 2.0 * ctol:
            break
        step = min(1.0, 0.99 * _max_step(problem, point, delta, linv))
        accepted = None
        for _ in range(40):
            cand = point.matrix + step * delta
            cand = barrier_point(problem, 0.5 * (cand + cand.conj().T), t)
            if cand is not None and cand.value <= point.value - 0.25 * step * decrement:
                accepted = cand
                break
            step *= 0.5
        steps += 1
        if accepted is None:
            break
        point = accepted
    return (b if point is None else point.matrix), steps


def solve(problem: SdpProblem, tolerance: float = 1e-6, max_iters: int = 600,
          initial: np.ndarray | None = None) -> SdpSolution:
    """Path-following solve; returns the best iterate with a status flag.

    ``initial`` may carry a warm start, used only when strictly feasible;
    otherwise I / 2 is tried, then a few feasibility-repair rounds; if no
    interior point is found the status is "infeasible". Otherwise the
    matrix is exactly Hermitian and ``objective`` is ``problem.value`` at it.
    """
    n = problem.dim
    b = None
    if initial is not None and strictly_feasible(problem, initial):
        b = np.asarray(initial, dtype=complex).copy()
    if b is None:
        cand = 0.5 * DIAG_BOUND * np.eye(n, dtype=complex)
        if strictly_feasible(problem, cand):
            b = cand
        else:
            b = _phase_one(problem, cand)
    if b is None:
        return SdpSolution(matrix=0.5 * DIAG_BOUND * np.eye(n, dtype=complex),
                           status="infeasible", objective=np.nan,
                           newton_steps=0)

    nu = float(2 * n + problem.constraints[1].size)
    obj0 = problem.value(b)
    t = max(1.0, nu / (1.0 + abs(obj0)))
    total_steps = 0
    status = "max_iters"
    while total_steps < max_iters:
        budget = min(80, max_iters - total_steps)
        b, used = _center(problem, b, t, newton_budget=budget, ctol=0.05)
        total_steps += used
        obj = problem.value(b)
        if nu / t <= tolerance * (1.0 + abs(obj)):
            b, used = _center(problem, b, t, ctol=1e-10 * (1.0 + nu),
                              newton_budget=min(80, max_iters - total_steps))
            total_steps += used
            status = "optimal"
            break
        t *= 10.0
    return SdpSolution(matrix=b, status=status,
                       objective=problem.value(b),
                       newton_steps=total_steps)


def _phase_one(problem: SdpProblem, start: np.ndarray) -> np.ndarray | None:
    """Feasibility repair by maximizing the worst constraint slack.

    Works inside the same problem class: one extra diagonal coordinate
    carries the (shifted, rescaled) slack level, every constraint is
    tightened by it, and its own value is maximized. The recovered block
    maximizes the minimum slack; None when that maximum is nonpositive.
    """
    mats, bounds = problem.constraints
    if not bounds.size:
        return None
    n = problem.dim
    lin0, _, _ = _slacks_and_traces(problem, start)
    offset = max(0.0, -float(lin0.min())) + 1.0
    scale = 2.0 * offset / DIAG_BOUND  # slack level = scale * last diagonal entry
    a_aug = np.zeros((bounds.size, n + 1, n + 1), dtype=complex)
    a_aug[:, :n, :n] = mats
    a_aug[:, n, n] = -scale
    c_aug = np.zeros((n + 1, n + 1), dtype=complex)
    c_aug[n, n] = 1.0
    aug = SdpProblem(objective=c_aug, constraints=(a_aug, bounds - offset))
    b_aug0 = np.zeros((n + 1, n + 1), dtype=complex)
    b_aug0[:n, :n] = start
    b_aug0[n, n] = 1e-3 * DIAG_BOUND
    solution = solve(aug, tolerance=1e-4, max_iters=400, initial=b_aug0)
    block = solution.matrix[:n, :n]
    # pull off the boundary as far as feasibility allows
    interior = 0.5 * DIAG_BOUND * np.eye(n, dtype=complex)
    for tau in (0.3, 0.1, 0.03, 0.01, 0.0):
        blend = (1.0 - tau) * block + tau * interior
        if strictly_feasible(problem, blend):
            return blend
    return None
