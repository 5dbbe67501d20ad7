"""Acceptance suite: one test per exit criterion, one printed verdict each.

The Monte Carlo blocks share a module-scoped paired-trial experiment at the
reference scenario. Criteria that need the SINR floor to be attainable at
the starting reflection (the penalty drive and the Stage-2 convergence
counts) draw scenarios whose floor is set below the starting SINRs, since
the reference floor is interference-unattainable there (see the decisions
log); everything else runs at reference settings.
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

from irsnoma import sdp
from irsnoma.beamforming import build_zf_beamformers
from irsnoma.channel import cluster_rates_and_power, sinr
from irsnoma.config import SystemConfig, db_to_linear
from irsnoma.experiments import ExperimentSpec, emit_results, run_experiment
from irsnoma.power_allocation import allocate_power
from irsnoma.reflection import (optimize_reflection, sca_coefficients,
                                sinr_lifts, surrogate_problem)

from conftest import attainable_floor_scenario, build_scenario, solver_free_floor
from test_power_allocation import bound_split, single_cluster, weak_user_grid_optimum
from test_reflection import summed_rate
from test_sdp import brute_force_objective, random_problem

ULP = np.finfo(float).eps


def verdict(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def trend_records():
    spec = ExperimentSpec(
        n_grid=[16, 32, 48, 64], m_grid=[8], num_trials=200,
        methods=["proposed", "conventional", "random-clustering",
                 "stage1-only"],
        out_dir="unused", seed=2024)
    start = time.perf_counter()
    records = run_experiment(SystemConfig(), spec)
    return records, time.perf_counter() - start


def test_criterion_1_zero_forcing():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_null = 0.0
    worst_norm = 0.0
    for trial in range(1000):
        m = (6, 8, 10)[trial % 3]
        strong = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        beams = build_zf_beamformers(strong)
        cross = np.abs(strong @ beams.T)
        np.fill_diagonal(cross, 0.0)
        worst_null = max(worst_null, float(cross.max()))
        worst_norm = max(worst_norm, float(np.abs(
            np.linalg.norm(beams, axis=1) - 1.0).max()))
    elapsed = time.perf_counter() - start
    ok = worst_null < 1e-9 and worst_norm < 1e-12 and elapsed < 1.0
    verdict(1, ok, f"max |u_j f_i| = {worst_null:.2e}, "
                   f"max norm error = {worst_norm:.2e}, {elapsed:.2f}s")


def test_criterion_2_sca_bound_suite():
    rng = np.random.default_rng(1)
    anchors = 10 ** rng.uniform(-4, 5, 1000)
    zeta, omega = sca_coefficients(anchors)
    tightness = np.abs(zeta * np.log2(anchors) + omega
                       - np.log2(1 + anchors)).max()
    gammas = 10 ** rng.uniform(-4, 5, 1000)
    z2, o2 = sca_coefficients(10 ** rng.uniform(-4, 5, 1000))
    slack = (np.log2(1 + gammas) + 1e-12
             - (z2 * np.log2(gammas) + o2)).min()
    ok = tightness < 1e-12 and slack >= 0.0
    verdict(2, ok, f"tightness {tightness:.2e}, worst dominance slack {slack:.2e}")


def _ee_grid_oracle(gains, cfg, resolution=400):
    """Exhaustive efficiency optimum over the (beta_1, beta_2) square."""
    p, bw = cfg.cluster_power_w, cfg.bandwidth_hz
    axis = np.linspace(0.0, 1.0, resolution + 1)[1:]
    b1, b2 = np.meshgrid(axis, axis, indexing="ij")
    g = gains[0, :, 0]
    noise = cfg.noise_power_w
    gamma1 = p * b1 * g[0] / (p * b2 * g[0] + noise)
    gamma2 = p * b2 * g[1] / noise
    ee = bw * (np.log2(1 + gamma1) + np.log2(1 + gamma2)) / (
        p * (b1 + b2) + cfg.circuit_power_w)
    feasible = ((gamma1 >= cfg.min_sinr) & (gamma2 >= cfg.min_sinr)
                & (p * (b1 + b2) <= cfg.max_power_w)
                & (p * g[1] * (b1 - b2) >= cfg.sic_power_gap_w))
    assert feasible.any()
    return float(np.where(feasible, ee, -np.inf).max())


def test_criterion_3_closed_form_against_oracles():
    start = time.perf_counter()
    worst_rel = 0.0
    for seed in range(50):
        # the split at a fixed total against a 1-D grid over the weak user
        cfg, gains, total = single_cluster(seed)
        formula = bound_split(gains, cfg, np.array([total]))[0, 0]
        grid_point = weak_user_grid_optimum(gains, cfg, total)
        worst_rel = max(worst_rel, abs(formula - grid_point) / grid_point)

    worst_gap = 0.0
    base = dataclasses.replace(
        SystemConfig(), num_clusters=1, users_per_cluster=2, total_users=2,
        num_bs_antennas=2, num_irs_elements=4, min_sinr=db_to_linear(-20.0))
    for seed in range(12):
        cfg, _, _, _, _, gains = build_scenario(seed, config=base)
        result = allocate_power(gains, cfg)
        oracle = _ee_grid_oracle(gains, cfg)
        worst_gap = max(worst_gap, (oracle - result.ee) / oracle)
    elapsed = time.perf_counter() - start
    ok = worst_rel < 1e-4 and worst_gap < 0.02 and elapsed < 30.0
    verdict(3, ok, f"fixed-total split error {worst_rel:.2e}, "
                   f"grid-optimum gap {100 * worst_gap:.2f}%, {elapsed:.1f}s")


def _cluster_ratios(gains, beta, cfg):
    """Each cluster's rate / consumed power at the split ``beta``."""
    gamma, _ = sinr(gains, beta, cfg)
    rates, powers = cluster_rates_and_power(gamma, beta, cfg)
    return rates / powers


def test_criterion_4_dinkelbach_monotonicity():
    # the floor is set per instance below the SINRs of a solver-free split
    # (the reference floor is interference-unattainable). The ascent
    # maximizes the sum of the cluster ratios, not each one, so the verdict
    # also counts the draws whose returned split lowers some cluster's ratio
    # below its value at the split the ascent starts from
    rising = 0
    residual_ok = 0
    trades = 0
    trials = 200
    for seed in range(trials):
        cfg, _, _, _, _, gains = build_scenario(seed)
        cfg = dataclasses.replace(cfg, min_sinr=solver_free_floor(gains, cfg))
        result = allocate_power(gains, cfg)
        ees = np.array([tp.ee for tp in result.trace])
        rising += bool(np.all(np.diff(ees) >= -1e-9))
        residual_ok += result.residual <= 1e-4
        start = allocate_power(gains, cfg, max_iterations=0)
        trades += bool((_cluster_ratios(gains, result.beta, cfg)
                        < _cluster_ratios(gains, start.beta, cfg)).any())
    ok = rising == trials and residual_ok == trials
    verdict(4, ok, f"rising efficiency traces {rising}/{trials}, "
                   f"terminal residual ok {residual_ok}/{trials}; "
                   f"{trades}/{trials} draws end with some cluster's "
                   f"rate/power below its value at the start split")


def test_criterion_5_dc_gradient_and_majorization():
    worst_fd = 0.0
    rng = np.random.default_rng(5)
    checks = 0
    seed = 0
    while checks < 100:
        cfg, _, cascaded, plan, beams, gains = build_scenario(
            seed % 20, random_beams=bool(seed % 2))
        seed += 1
        stage1 = allocate_power(gains, cfg)
        _, num, den = sinr_lifts(cascaded, plan, beams, stage1.beta, cfg)
        n = cfg.num_irs_elements
        for _ in range(5):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            anchor = g @ g.conj().T
            anchor *= rng.random() / np.real(np.diag(anchor)).max()
            anchor += 1e-3 * np.eye(n)
            problem, grad = surrogate_problem(anchor, num, den, None, cfg, eta=0.0)
            delta = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            delta = 0.5 * (delta + delta.conj().T)
            delta /= np.linalg.norm(delta)
            h = 1e-6
            fd = (problem.value(anchor + h * delta)
                  - problem.value(anchor - h * delta)) / (2 * h)
            analytic = float(np.real(np.einsum("ij,ji->", grad, delta)))
            worst_fd = max(worst_fd, abs(analytic - fd) / max(abs(fd), 1e-12))
            checks += 1
            if checks >= 100:
                break

    # the surrogate the solver maximizes rises no more than the summed rate
    # from its anchor, over 1e3 random feasible points
    cfg, _, cascaded, plan, beams, gains = build_scenario(0)
    stage1 = allocate_power(gains, cfg)
    _, num, den = sinr_lifts(cascaded, plan, beams, stage1.beta, cfg)
    n = cfg.num_irs_elements
    anchor = np.outer(np.ones(n), np.ones(n)).astype(complex)
    problem, _ = surrogate_problem(anchor, num, den, None, cfg, eta=0.0)
    at_anchor = problem.value(anchor)
    rate_anchor = summed_rate(num, den, anchor, cfg)
    violations = 0
    for _ in range(1000):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        other = g @ g.conj().T
        other *= rng.random() / np.real(np.diag(other)).max()
        rise = problem.value(other) - at_anchor
        violations += int(rise > summed_rate(num, den, other, cfg) - rate_anchor
                          + 1e-10 * (1.0 + abs(rate_anchor)))
    ok = worst_fd < 1e-4 and violations == 0
    verdict(5, ok, f"worst gradient FD error {worst_fd:.2e}, "
                   f"minorant violations {violations}/1000")


@pytest.mark.slow
def test_criterion_6_conic_solver():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        problem = random_problem(rng, 3, num_constraints=2)
        solution = sdp.solve(problem, tolerance=1e-8)
        oracle = brute_force_objective(problem, rng, samples=1_000_000)
        shortfall = (oracle - solution.objective) / (1 + abs(oracle))
        worst = max(worst, shortfall)

    identity = sdp.solve(sdp.SdpProblem(objective=np.eye(4, dtype=complex)),
                         tolerance=2e-7)
    identity_err = abs(identity.objective - 4.0)

    big = random_problem(np.random.default_rng(7), 32, num_constraints=10)
    start = time.perf_counter()
    big_solution = sdp.solve(big, tolerance=1e-6)
    big_time = time.perf_counter() - start
    ok = (worst < 1e-3 and identity_err < 1e-6
          and big_time < 2.0 and big_solution.status == "optimal")
    verdict(6, ok, f"oracle shortfall {worst:.2e}, identity error "
                   f"{identity_err:.2e}, N=32 solve {big_time:.2f}s")


@pytest.fixture(scope="module")
def floor_attainable_runs():
    """Stage-2 runs on scenarios whose floor the first stage could satisfy."""
    runs = []
    seed = 0
    while len(runs) < 100 and seed < 400:
        cfg, rng, cascaded, plan, beams, gains = attainable_floor_scenario(
            seed, num_irs_elements=16, random_beams=True)
        seed += 1
        stage1 = allocate_power(gains, cfg)
        if not stage1.feasible:
            continue
        result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
        runs.append((stage1, result))
    return runs


@pytest.mark.slow
def test_criterion_7_rank_one_penalty_drive(floor_attainable_runs):
    runs = floor_attainable_runs
    assert len(runs) == 100
    pen_ok = sum(r.exact_penalty < 1e-3 * float(np.real(np.trace(r.lifted)))
                 for _, r in runs)
    modulus_ok = sum(np.abs(np.abs(r.reflection) - 1.0).max() <= ULP
                     for _, r in runs)
    ok = pen_ok >= 95 and modulus_ok == len(runs)
    verdict(7, ok, f"terminal penalty ok {pen_ok}/{len(runs)}, "
                   f"unit modulus {modulus_ok}/{len(runs)}")


@pytest.mark.slow
def test_criterion_8_alternating_monotonicity(trend_records,
                                              floor_attainable_runs):
    records, _ = trend_records
    fails = 0
    for record in records:
        scale = max(1.0, abs(record.ee["stage1-only"]))
        if record.ee["proposed"] < record.ee["stage1-only"] - 1e-6 * scale:
            fails += 1
    for stage1, result in floor_attainable_runs:
        if result.ee < stage1.ee - 1e-6 * max(1.0, abs(stage1.ee)):
            fails += 1
    # Stage 2 keeps b0, so its comparison is equal by construction, where
    # Stage 1 did not certify the floor (the gate) and where the extracted
    # vector breaks the floor or loses efficiency (the fallback)
    gated = sum(not record.feasible[0] for record in records)
    fallbacks = sum(result.fallback for _, result in floor_attainable_runs)
    total = len(records) + len(floor_attainable_runs)
    verdict(8, fails == 0, f"stage-2 never below stage-1 on {total - fails}"
                           f"/{total} runs; {gated + fallbacks} of them keep b0 "
                           f"({gated}/{len(records)} trend records at the Stage-1 "
                           f"gate, {fallbacks}/{len(floor_attainable_runs)} "
                           f"attainable runs through the fallback)")


@pytest.mark.slow
def test_criterion_9_trend_reproduction(trend_records):
    records, elapsed = trend_records

    def mean_of(method, field="ee", n=None):
        vals = [getattr(r, field)[method] for r in records
                if (n is None or r.n == n) and method in getattr(r, field)]
        return float(np.mean(vals))

    ee_prop = mean_of("proposed")
    ee_conv = mean_of("conventional")
    ee_rand = mean_of("random-clustering")
    ici_prop = mean_of("proposed", "ici")
    ici_rand = mean_of("random-clustering", "ici")
    per_n = [mean_of("proposed", n=n) for n in (16, 32, 48, 64)]
    dips_ok = all(b >= a * 0.98 for a, b in zip(per_n, per_n[1:]))
    ok = (ee_prop > ee_conv and ee_prop > ee_rand and ici_prop < ici_rand
          and dips_ok and elapsed < 1800.0)
    verdict(9, ok,
            f"EE proposed {ee_prop:.2f} > conventional {ee_conv:.2f} and "
            f"> random-clustering {ee_rand:.2f}; far-user ICI {ici_prop:.2e} "
            f"< {ici_rand:.2e}; EE per N {['%.1f' % v for v in per_n]}; "
            f"{elapsed / 60:.1f} min")


def _iterations_to_settle(trace_ees, rel=1e-4):
    final = trace_ees[-1]
    for idx, value in enumerate(trace_ees):
        if abs(value - final) <= rel * max(1.0, abs(final)):
            return idx + 1
    return len(trace_ees)


@pytest.mark.slow
def test_criterion_10_convergence_counts(trend_records):
    records, _ = trend_records
    stage1_medians = {}
    for n in (16, 32, 64):
        counts = [_iterations_to_settle(r.stage1_ee_trace) for r in records
                  if r.n == n and r.stage1_ee_trace]
        stage1_medians[n] = float(np.median(counts))

    stage2_medians = {}
    for n in (16, 32, 64):
        counts = []
        seed = 500
        while len(counts) < 15 and seed < 800:
            cfg, rng, cascaded, plan, beams, gains = attainable_floor_scenario(
                seed, num_irs_elements=n, random_beams=True)
            seed += 1
            stage1 = allocate_power(gains, cfg)
            if not stage1.feasible:
                continue
            result = optimize_reflection(cascaded, plan, beams, stage1, cfg)
            if result.trace:
                counts.append(_iterations_to_settle(
                    [tp.ee for tp in result.trace]))
        stage2_medians[n] = float(np.median(counts))

    ok = (all(v <= 8.0 for v in stage1_medians.values())
          and all(v <= 8.0 for v in stage2_medians.values()))
    verdict(10, ok, f"stage-1 medians {stage1_medians}, "
                    f"stage-2 medians {stage2_medians}")


def test_criterion_11_determinism(tmp_path):
    cfg = dataclasses.replace(
        SystemConfig(), num_irs_elements=8, num_bs_antennas=6, num_clusters=3,
        total_users=12, min_sinr=db_to_linear(-10.0))
    outputs = []
    for tag in ("a", "b"):
        spec = ExperimentSpec(
            n_grid=[8], m_grid=[6], num_trials=2,
            methods=["proposed", "conventional", "random-clustering",
                     "random-pac", "stage1-only"],
            out_dir=str(tmp_path / tag), seed=99)
        records = run_experiment(cfg, spec)
        outputs.append(emit_results(records, spec, cfg))
    same = all(filecmp.cmp(outputs[0][name], outputs[1][name], shallow=False)
               for name in ("summary.csv", "ici.csv", "convergence_stage1.csv",
                            "convergence_stage2.csv", "manifest.txt"))
    verdict(11, same, "identical seed and config give byte-identical CSVs")
