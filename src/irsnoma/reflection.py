"""Stage 2: reflection-coefficient optimization on the lifted surface matrix.

With beams and power splits frozen, each user's SINR depends on the
reflection vector b only through |b^H w|^2 terms, which become linear
traces tr(B w w^H) after lifting B = b b^H. The rate objective is then a
difference of concave log-traces; linearizing the denominator log at the
current iterate yields a concave minorant, and the nonconvex rank-one
requirement is replaced by the penalty tr(B) - ||B||_2, itself minorized
through the spectral-norm subgradient at the iterate.

Each iteration maximizes the minorant's linearization over the feasible
spectrahedron with the dense barrier solver, then line-searches the true
minorant along the segment, so the penalized surrogate ascends
monotonically for a fixed penalty weight. The penalty weight grows
tenfold whenever the iterate is insufficiently rank-one. A unit-modulus
vector is finally recovered from the leading eigenvector's phases, with
Gaussian randomization as backup; if no candidate beats the starting
vector, the starting vector is returned, so the achieved efficiency never
drops below its Stage-1 value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .beamforming import BeamformerSet
from .channel import ChannelSet, LinkGains, energy_efficiency, link_gains, sinr
from .clustering import ClusterPlan
from .config import SystemConfig
from .power_allocation import LN2, Stage1Result, sca_coefficients

_ASCENT_TOL = 1e-12


def lift_user_matrices(channels: ChannelSet, plan: ClusterPlan,
                       beamformers: BeamformerSet) -> np.ndarray:
    """Per-user, per-beam lifted matrices (I, K, I, N, N).

    Entry [i, k, j] is w w^H with w = W_{i,k} f_j, the cascaded channel of
    cluster i's user k through beam j, so |b^H w|^2 = tr(B w w^H).
    """
    cascaded = channels.cascaded[plan.members]            # (I, K, N, M)
    omega = np.einsum("iknm,jm->ikjn", cascaded, beamformers.vectors)
    return omega[..., :, None] * omega[..., None, :].conj()


def sinr_trace_matrices(lifts: np.ndarray, beta: np.ndarray,
                        config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Numerator/denominator matrices of every user's lifted SINR.

    Returns (own, den): ``own[i, k]`` is the user's own-beam lift and
    ``den[i, k]`` collects the stronger-user tail plus all other beams'
    leakage, so that gamma = P beta tr(B own) / (tr(B den) + sigma^2).
    """
    num_clusters, users = beta.shape
    p = config.cluster_power_w
    own = np.stack([lifts[i, :, i] for i in range(num_clusters)])
    tail = np.flip(np.cumsum(np.flip(beta, axis=1), axis=1), axis=1) - beta
    beam_power = p * beta.sum(axis=1)
    den = p * tail[:, :, None, None] * own
    for i in range(num_clusters):
        for j in range(num_clusters):
            if j != i:
                den[i] += beam_power[j] * lifts[i, :, j]
    return own, den


@dataclass
class SurrogatePieces:
    """Anchor-dependent minorant of the penalized Stage-2 objective."""

    num_mats: np.ndarray     # (I, K, N, N) own-beam lifts scaled by P beta
    den_mats: np.ndarray     # (I, K, N, N)
    num_anchor: np.ndarray   # (I, K) traces at the anchor
    den_anchor: np.ndarray   # (I, K) traces at the anchor, noise included
    zeta: np.ndarray
    omega: np.ndarray
    constant: float          # -rho * power (B-independent)
    eta: float
    kappa: np.ndarray        # leading eigenvector of the anchor
    anchor_offset: float     # ||B_t||_2 - Re tr(kappa kappa^H B_t)
    bandwidth: float
    noise_power: float

    def value(self, b_mat: np.ndarray) -> float:
        """Minorant value at B: concave logs minus affine terms."""
        num = np.einsum("ikab,ba->ik", self.num_mats, b_mat).real
        den = np.einsum("ikab,ba->ik", self.den_mats, b_mat).real + self.noise_power
        if np.any(num <= 0.0):
            return -np.inf
        f1 = np.log2(num)
        f2bar = np.log2(self.den_anchor) + (den - self.den_anchor) / (
            LN2 * self.den_anchor)
        rate = self.bandwidth * float(np.sum(self.zeta * (f1 - f2bar) + self.omega))
        penalty = float(np.real(np.trace(b_mat))) - self.anchor_offset - float(
            np.real(np.vdot(self.kappa, b_mat @ self.kappa)))
        return rate + self.constant - self.eta * penalty

    def gradient(self) -> np.ndarray:
        """Exact gradient of the minorant at its anchor (Hermitian)."""
        n = self.num_mats.shape[-1]
        grad = np.einsum("ik,ikab->ab", self.zeta / (LN2 * self.num_anchor),
                         self.num_mats)
        grad -= np.einsum("ik,ikab->ab",
                          self.zeta / (LN2 * self.den_anchor), self.den_mats)
        grad *= self.bandwidth
        grad -= self.eta * (np.eye(n) - np.outer(self.kappa, self.kappa.conj()))
        return 0.5 * (grad + grad.conj().T)

    def as_solver_problem(self, constraints) -> "sdp.SdpProblem":
        """Cast the minorant as the solver's concave objective.

        The numerator logs become weighted log terms (normalized to unit
        Frobenius scale; the normalization only shifts the objective by a
        constant). The linearized denominators and the rank-one penalty
        form the linear part.
        """
        n = self.num_mats.shape[-1]
        linear = -np.einsum("ik,ikab->ab",
                            self.zeta / (LN2 * self.den_anchor), self.den_mats)
        linear *= self.bandwidth
        linear -= self.eta * (np.eye(n) - np.outer(self.kappa, self.kappa.conj()))
        linear = 0.5 * (linear + linear.conj().T)
        logs = []
        weights = self.bandwidth * self.zeta / LN2
        for i in range(self.num_mats.shape[0]):
            for k in range(self.num_mats.shape[1]):
                mat = self.num_mats[i, k]
                scale = max(float(np.linalg.norm(mat)), 1e-300)
                logs.append((mat / scale, float(weights[i, k])))
        return sdp.SdpProblem(objective=linear, constraints=list(constraints),
                              log_terms=logs)


def dc_linearize(anchor: np.ndarray, own: np.ndarray, den: np.ndarray,
                 stage1: Stage1Result, config: SystemConfig,
                 eta: float) -> SurrogatePieces:
    """Build the concave minorant anchored at the current lifted iterate.

    The logarithmic bound coefficients are re-tightened at the anchor SINRs
    (the bound is global for any expansion point, so the minorant property
    is preserved and the surrogate is tight at the anchor). Raises
    ValueError when a log argument is nonpositive at the anchor, which
    signals an infeasible anchor.
    """
    p = config.cluster_power_w
    num_mats = p * stage1.beta[:, :, None, None] * own
    num_anchor = np.einsum("ikab,ba->ik", num_mats, anchor).real
    den_anchor = np.einsum("ikab,ba->ik", den, anchor).real + config.noise_power_w
    if np.any(num_anchor <= 0.0) or np.any(den_anchor <= 0.0):
        raise ValueError("infeasible anchor: nonpositive log argument")
    zeta, omega = sca_coefficients(num_anchor / den_anchor)
    eigvals, eigvecs = np.linalg.eigh(anchor)
    kappa = eigvecs[:, -1]
    spectral = float(eigvals[-1])
    anchor_offset = spectral - float(np.real(np.vdot(kappa, anchor @ kappa)))
    rho_power = float(np.sum(stage1.rho * (
        p * stage1.beta.sum(axis=1) + config.circuit_power_w)))
    return SurrogatePieces(
        num_mats=num_mats, den_mats=den, num_anchor=num_anchor,
        den_anchor=den_anchor, zeta=zeta, omega=omega,
        constant=-rho_power, eta=eta, kappa=kappa,
        anchor_offset=anchor_offset, bandwidth=config.bandwidth_hz,
        noise_power=config.noise_power_w,
    )


def exact_rank_penalty(b_mat: np.ndarray) -> float:
    """tr(B) - ||B||_2; zero iff a PSD B is rank one."""
    eigvals = np.linalg.eigvalsh(b_mat)
    return float(np.real(np.trace(b_mat)) - eigvals[-1])


def rank_one_penalty(b_mat: np.ndarray, anchor: np.ndarray) -> float:
    """Minorized penalty tr(B) - [||B_t||_2 + Re tr(kk^H (B - B_t))].

    Since the bracket lower-bounds the spectral norm, this value upper
    bounds the exact penalty and stays >= -1e-9 on PSD inputs.
    """
    eigvals, eigvecs = np.linalg.eigh(anchor)
    kappa = eigvecs[:, -1]
    bound = float(eigvals[-1]) + float(np.real(
        np.vdot(kappa, (b_mat - anchor) @ kappa)))
    return float(np.real(np.trace(b_mat))) - bound


def gaussian_randomization(b_mat: np.ndarray, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Unit-modulus candidates from phases of CN(0, B) draws, (count, N)."""
    eigvals, eigvecs = np.linalg.eigh(b_mat)
    root = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))[None, :]
    n = b_mat.shape[0]
    z = (rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)))
    draws = z @ root.conj().T / np.sqrt(2.0)
    return np.exp(1j * np.angle(draws))


@dataclass
class Stage2TracePoint:
    iteration: int
    ee: float
    exact_penalty: float
    eta: float


@dataclass
class ReflectionResult:
    reflection: np.ndarray
    lifted: np.ndarray
    ee: float
    ee_initial: float
    gamma: np.ndarray
    fallback: bool
    converged: bool
    iterations: int
    exact_penalty: float
    trace: list[Stage2TracePoint] = field(default_factory=list)


def evaluate_reflection(channels: ChannelSet, plan: ClusterPlan,
                        beamformers: BeamformerSet, beta: np.ndarray,
                        reflection: np.ndarray,
                        config: SystemConfig) -> tuple[float, np.ndarray, LinkGains]:
    """True vector-domain efficiency and SINRs at a given reflection."""
    effective = np.einsum("n,vnm->vm", reflection.conj(), channels.cascaded)
    gains = link_gains(effective, plan.members, beamformers.vectors,
                       check_order=False)
    gamma, _ = sinr(gains, beta, config)
    return energy_efficiency(gamma, beta, config), gamma, gains


def floor_constraints(own: np.ndarray, den: np.ndarray, beta: np.ndarray,
                      config: SystemConfig) -> list[tuple[np.ndarray, float]]:
    """Lifted SINR floors Re tr(A B) >= c, one per user.

    gamma >= gamma_min is P beta tr(B own) - gamma_min tr(B den) >=
    gamma_min sigma^2; each pair is normalized to unit Frobenius scale for
    solver conditioning. A has rank <= I: the own-beam lift plus the I - 1
    other beams' leakage lifts.
    """
    p = config.cluster_power_w
    constraints = []
    for i in range(own.shape[0]):
        for k in range(own.shape[1]):
            a_mat = p * beta[i, k] * own[i, k] - config.min_sinr * den[i, k]
            scale = max(float(np.linalg.norm(a_mat)), 1e-300)
            constraints.append((a_mat / scale,
                                config.min_sinr * config.noise_power_w / scale))
    return constraints


def _relaxed_ee(own: np.ndarray, den: np.ndarray, b_mat: np.ndarray,
                beta: np.ndarray, config: SystemConfig) -> float:
    p = config.cluster_power_w
    num = p * beta * np.einsum("ikab,ba->ik", own, b_mat).real
    dval = np.einsum("ikab,ba->ik", den, b_mat).real + config.noise_power_w
    rates = config.bandwidth_hz * np.log2(1.0 + num / dval).sum(axis=1)
    powers = p * beta.sum(axis=1) + config.circuit_power_w
    return float(np.sum(rates / powers))


def optimize_reflection(channels: ChannelSet, plan: ClusterPlan,
                        beamformers: BeamformerSet, stage1: Stage1Result,
                        config: SystemConfig, rng: np.random.Generator, *,
                        max_iterations: int = 20, tolerance: float = 1e-4,
                        penalty_tol: float = 1e-3, eta0: float | None = None,
                        eta_cap: float = 1e6, num_randomizations: int = 50,
                        sdp_tolerance: float = 1e-6,
                        recovery_threshold: float = 0.5) -> ReflectionResult:
    """Run the Stage-2 loop and extract a unit-modulus reflection vector.

    ``eta0=None`` sets the initial penalty weight from the rate-gradient
    scale at the first anchor (a fixed large weight freezes the rank-one
    start). When the starting reflection violates the SINR floor, the loop
    only runs if the repaired anchor retains at least
    ``recovery_threshold`` of the starting efficiency; otherwise the
    guaranteed fallback (return the starting vector) applies directly.
    """
    n = config.num_irs_elements
    b0 = np.ones(n, dtype=complex)
    ee0, gamma0, _ = evaluate_reflection(channels, plan, beamformers,
                                         stage1.beta, b0, config)
    viol0 = float(np.max(1.0 - gamma0 / config.min_sinr, initial=0.0))

    lifts = lift_user_matrices(channels, plan, beamformers)
    own, den = sinr_trace_matrices(lifts, stage1.beta, config)
    constraints = floor_constraints(own, den, stage1.beta, config)

    anchor = np.outer(b0, b0.conj())
    probe = sdp.SdpProblem(objective=np.zeros((n, n), dtype=complex),
                           constraints=list(constraints))
    anchor_slacks, _ = sdp.slacks(probe, anchor)
    if anchor_slacks.size and anchor_slacks.min() <= 0.0:
        # starting reflection violates the SINR floor; move to the
        # max-min-slack interior point before any surrogate ascent
        repaired = sdp._phase_one(probe, 0.5 * np.eye(n, dtype=complex))
        hopeless = repaired is None or (
            _relaxed_ee(own, den, repaired, stage1.beta, config)
            < recovery_threshold * ee0)
        if hopeless:
            # the floor is unattainable, or only at a fraction of the
            # starting efficiency the ascent cannot recover; keep b0
            return ReflectionResult(reflection=b0, lifted=anchor, ee=ee0,
                                    ee_initial=ee0, gamma=gamma0, fallback=True,
                                    converged=False, iterations=0,
                                    exact_penalty=0.0, trace=[])
        anchor = repaired

    eta = eta0 if eta0 is not None else 0.0
    trace: list[Stage2TracePoint] = []
    warm = None
    prev_ee = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        try:
            pieces = dc_linearize(anchor, own, den, stage1, config, eta)
        except ValueError:
            break
        if iterations == 1 and eta0 is None:
            # start the penalty at a few percent of the rate-gradient scale
            rate_scale = float(np.linalg.norm(pieces.gradient()))
            eta = float(np.clip(0.02 * rate_scale, 1e-2, 1e2))
            pieces = dc_linearize(anchor, own, den, stage1, config, eta)
        # one exact solve maximizes this iteration's concave surrogate: the
        # log numerators ride along as weighted log terms, everything else
        # (linearized denominators, penalty) is the linear part
        problem = pieces.as_solver_problem(constraints)
        start = _feasible_start(problem, anchor, warm)
        solution = sdp.solve(problem, tolerance=sdp_tolerance, initial=start)
        if solution.status == "infeasible":
            break
        phi_start = pieces.value(anchor)
        cand = 0.5 * (solution.matrix + solution.matrix.conj().T)
        stalled = pieces.value(cand) <= phi_start + _ASCENT_TOL * (
            1.0 + abs(phi_start))
        if not stalled:
            anchor = cand
            warm = solution.matrix
        pen = exact_rank_penalty(anchor)
        ee_rel = _relaxed_ee(own, den, anchor, stage1.beta, config)
        trace.append(Stage2TracePoint(iteration=iterations, ee=ee_rel,
                                      exact_penalty=pen, eta=eta))
        ee_stalled = stalled or (prev_ee is not None and abs(ee_rel - prev_ee)
                                 <= tolerance * max(1.0, abs(prev_ee)))
        # penalty weight grows only once the surrogate ascent has stalled at
        # the current weight; escalating mid-climb would drown the rate term
        if ee_stalled:
            if pen > penalty_tol * float(np.real(np.trace(anchor))):
                # climb the weight ladder in place: once eta * penalty
                # outweighs the rate gap, any feasible unit-modulus lift
                # (the starting vector at worst) wins the injection
                injected = None
                while injected is None:
                    injected = _inject_rank_one(anchor, own, den, stage1.beta,
                                                config, eta, probe, rng,
                                                fallback=b0)
                    if injected is not None or eta >= eta_cap:
                        break
                    eta = min(eta * 10.0, eta_cap)
                if injected is None:
                    converged = stalled
                    if converged:
                        break
                else:
                    # raise the weight alongside the rounding, otherwise the
                    # next surrogate maximization spreads the spectrum again
                    anchor = injected
                    eta = min(eta * 10.0, eta_cap)
                    warm = None
                    prev_ee = None
                    continue
            else:
                converged = True
                break
        prev_ee = ee_rel

    # terminal rounding: if the iteration budget ran out mid-climb with a
    # spread spectrum, one injection at the penalty cap bounds the final
    # rank-one defect whenever any feasible unit-modulus lift exists
    if exact_rank_penalty(anchor) > penalty_tol * float(np.real(np.trace(anchor))):
        rounded = _inject_rank_one(anchor, own, den, stage1.beta, config,
                                   eta_cap, probe, rng, fallback=b0)
        if rounded is not None:
            anchor = rounded

    # recover a unit-modulus vector: leading-eigenvector phases, then
    # Gaussian randomization as backup; QoS-clean candidates outrank
    # no-worse-than-start ones, and efficiency may never drop below ee0
    eigvals, eigvecs = np.linalg.eigh(anchor)
    lead = eigvecs[:, -1] * np.sqrt(max(float(eigvals[-1]), 0.0))
    candidates = [np.exp(1j * np.angle(lead))]
    if num_randomizations > 0:
        candidates.extend(gaussian_randomization(anchor, num_randomizations, rng))
    tiers = [(-np.inf, None, None), (-np.inf, None, None)]  # (ee, b, gamma)
    for cand in candidates:
        ee_c, gamma_c, _ = evaluate_reflection(channels, plan, beamformers,
                                               stage1.beta, cand, config)
        viol_c = float(np.max(1.0 - gamma_c / config.min_sinr, initial=0.0))
        if ee_c < ee0 * (1.0 - 1e-12):
            continue
        if viol_c <= 1e-9 and ee_c > tiers[0][0]:
            tiers[0] = (ee_c, cand, gamma_c)
        if viol_c <= max(viol0, 1e-9) and ee_c > tiers[1][0]:
            tiers[1] = (ee_c, cand, gamma_c)
    best_ee, best_b, best_gamma = tiers[0] if tiers[0][1] is not None else tiers[1]

    if best_b is None or best_ee < ee0:
        return ReflectionResult(reflection=b0, lifted=anchor, ee=ee0,
                                ee_initial=ee0, gamma=gamma0, fallback=True,
                                converged=converged, iterations=iterations,
                                exact_penalty=exact_rank_penalty(anchor),
                                trace=trace)
    return ReflectionResult(reflection=best_b, lifted=anchor, ee=best_ee,
                            ee_initial=ee0, gamma=best_gamma, fallback=False,
                            converged=converged, iterations=iterations,
                            exact_penalty=exact_rank_penalty(anchor), trace=trace)


def _true_penalized(own: np.ndarray, den: np.ndarray, b_mat: np.ndarray,
                    beta: np.ndarray, config: SystemConfig,
                    eta: float) -> float:
    """True log-rate sum minus eta times the exact rank-one defect."""
    p = config.cluster_power_w
    num = p * beta * np.einsum("ikab,ba->ik", own, b_mat).real
    dval = np.einsum("ikab,ba->ik", den, b_mat).real + config.noise_power_w
    if np.any(num < 0.0) or np.any(dval <= 0.0):
        return -np.inf
    rate = config.bandwidth_hz * float(np.log2(1.0 + num / dval).sum())
    return rate - eta * exact_rank_penalty(b_mat)


def _inject_rank_one(anchor: np.ndarray, own: np.ndarray, den: np.ndarray,
                     beta: np.ndarray, config: SystemConfig, eta: float,
                     probe: sdp.SdpProblem, rng: np.random.Generator,
                     fallback: np.ndarray | None = None) -> np.ndarray | None:
    """Round the anchor to a feasible unit-modulus lift when that helps.

    The spectral-norm penalty cannot always travel to a rank-one point
    along feasible directions (the floor constraints wall off the leading
    eigenvector's ray). Rounding candidates (leading-eigenvector phases,
    a few Gaussian draws, and the known starting vector) are exact
    rank-one lifts. Rounding re-anchors the surrogate, so candidates are
    judged on the true penalized objective, where the exact defect of a
    unit-modulus lift is zero; whichever feasible candidate improves it
    becomes the new anchor.
    """
    eigvals, eigvecs = np.linalg.eigh(anchor)
    lead = eigvecs[:, -1] * np.sqrt(max(float(eigvals[-1]), 0.0))
    candidates = [(np.exp(1j * np.angle(lead)), True)]
    candidates.extend((cand, True)
                      for cand in gaussian_randomization(anchor, 10, rng))
    if fallback is not None:
        # the guaranteed-fallback vector skips the slack check: ending the
        # loop on its lift is consistent with the extraction fallback
        candidates.append((fallback, False))
    val0 = _true_penalized(own, den, anchor, beta, config, eta)
    best, best_val = None, val0
    for cand, check in candidates:
        lift = np.outer(cand, cand.conj())
        if check:
            slacks, _ = sdp.slacks(probe, lift)
            if slacks.size and slacks.min() < -1e-6:
                continue
        val = _true_penalized(own, den, lift, beta, config, eta)
        if val > best_val + _ASCENT_TOL * (1.0 + abs(val0)):
            best, best_val = lift, val
    return best


def _feasible_start(problem: sdp.SdpProblem, anchor: np.ndarray,
                    warm: np.ndarray | None) -> np.ndarray | None:
    """First strictly feasible candidate among warm start and anchor blends."""
    n = anchor.shape[0]
    eye = np.eye(n, dtype=complex)
    candidates = []
    if warm is not None:
        candidates.append(warm)
    for tau in (0.05, 0.2, 0.5):
        candidates.append((1.0 - tau) * anchor + 0.5 * tau * eye)
    for cand in candidates:
        if sdp.strictly_feasible(problem, cand):
            return cand
    return None
