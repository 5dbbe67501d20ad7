"""Monte Carlo experiment driver, baselines, and result emission.

Each trial draws one set of channels and runs every requested method on
that identical draw (paired comparison): the full two-stage pipeline, the
orthogonal time-sharing benchmark, random clustering, random power
coefficients, and the pipeline without the reflection stage. Per-trial
seeds derive from the experiment seed and the scenario coordinates, so
identical invocations produce byte-identical CSV outputs regardless of
worker count, provided the BLAS thread count is fixed too (a different
count changes the rounding of the SDP solver's matrix products).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .beamforming import build_zf_beamformers
from .channel import (LinkGains, draw_user_geometry, effective_channel,
                      energy_efficiency, link_gains, sinr, synthesize_channels)
from .clustering import form_clusters, random_plan
from .config import SystemConfig
from .power_allocation import allocate_power
from .reflection import optimize_reflection

METHODS = ("proposed", "conventional", "random-clustering", "random-pac",
           "stage1-only")
# baselines that never run Stage 1: its infeasibility drops none of their trials
_WITHOUT_STAGE1 = ("conventional", "random-pac")


@dataclass
class ExperimentSpec:
    n_grid: list[int]
    m_grid: list[int]
    num_trials: int
    methods: list[str]
    out_dir: str
    seed: int
    workers: int = 1
    conventional_mode: str = "time-share"   # or "single-user"

    def __post_init__(self) -> None:
        if self.num_trials < 1:
            raise ValueError("num_trials must be at least 1")
        if not self.n_grid or not self.m_grid:
            raise ValueError("scenario grids must be nonempty")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.conventional_mode not in ("time-share", "single-user"):
            raise ValueError("conventional_mode must be time-share or single-user")


@dataclass
class TrialRecord:
    n: int
    m: int
    trial: int
    ee: dict[str, float] = field(default_factory=dict)
    ici: dict[str, float] = field(default_factory=dict)
    stage1_ee_trace: list[float] = field(default_factory=list)
    stage2_ee_trace: list[float] = field(default_factory=list)
    stage1_iterations: int = 0
    stage2_iterations: int = 0
    wall_stage1_s: float = 0.0
    wall_stage2_s: float = 0.0
    feasible: bool = True               # Stage 1 on the main plan
    random_plan_feasible: bool = True   # Stage 1 on random-clustering's plan


def _far_user_ici(psi: np.ndarray) -> float:
    # weakest member sits at index 0 of each cluster
    return float(psi[:, 0].mean())


def conventional_bf_ee(gains: LinkGains, config: SystemConfig,
                       mode: str = "time-share") -> tuple[float, float]:
    """Orthogonal benchmark: each beam serves its users without superposition.

    "time-share" gives each of the K users a 1/K duty cycle at full beam
    power; "single-user" dedicates the beam to its strongest user. Power
    accounting matches the proposed scheme (radiated plus circuit power).
    Returns (efficiency, far-user interference).
    """
    p = config.cluster_power_w
    psi_full = np.einsum("ikj->ik", gains.cross_beam) * p - gains.own_beam * p
    snr = p * gains.own_beam / (psi_full + config.noise_power_w)
    if mode == "time-share":
        rates = config.bandwidth_hz * np.log2(1.0 + snr).sum(axis=1) / snr.shape[1]
    elif mode == "single-user":
        rates = config.bandwidth_hz * np.log2(1.0 + snr[:, -1])
    else:
        raise ValueError(f"unknown conventional mode {mode!r}")
    powers = p + config.circuit_power_w
    return float(np.sum(rates / powers)), _far_user_ici(psi_full)


def random_power_coefficients(config: SystemConfig,
                              rng: np.random.Generator) -> np.ndarray:
    """Unoptimized coefficients: random fractions, weakest user largest."""
    draws = rng.random((config.num_clusters, config.users_per_cluster))
    draws = -np.sort(-draws, axis=1)
    budget = 0.9 * min(config.cluster_power_w, config.max_power_w) / config.cluster_power_w
    return draws / draws.sum(axis=1, keepdims=True) * budget


def _stream(key: list[int], index: int) -> np.random.Generator:
    """The generator of ``SeedSequence(key).spawn(n)[index]`` (any n > index),
    built alone; each reader of a trial's randomness owns one index."""
    return np.random.default_rng(np.random.SeedSequence(key, spawn_key=(index,)))


def run_trial(config: SystemConfig, methods: list[str], seed: int, n: int, m: int,
              trial: int, conventional_mode: str = "time-share") -> TrialRecord:
    """One paired-comparison trial at scenario (n, m).

    Only the random streams that the requested methods read are built.
    """
    cfg = replace(config, num_irs_elements=n, num_bs_antennas=m)
    key = [seed, n, m, trial]
    rng_channel, rng_cluster = _stream(key, 0), _stream(key, 1)

    geometry = draw_user_geometry(cfg, rng_channel)
    channels = synthesize_channels(cfg, geometry, rng_channel)
    b0 = np.ones(cfg.num_irs_elements, dtype=complex)
    effective = effective_channel(channels.cascaded, b0)

    plan = form_clusters(effective, cfg.num_clusters, cfg.users_per_cluster,
                         cfg.correlation_threshold, rng_cluster)
    beams = build_zf_beamformers(effective[plan.members[:, -1]])
    gains = link_gains(effective, plan.members, beams.vectors)

    record = TrialRecord(n=n, m=m, trial=trial)
    t0 = time.perf_counter()
    stage1 = allocate_power(gains, cfg)
    record.wall_stage1_s = time.perf_counter() - t0
    record.feasible = stage1.feasible
    record.stage1_ee_trace = [tp.ee for tp in stage1.trace]
    record.stage1_iterations = stage1.iterations

    if "stage1-only" in methods:
        record.ee["stage1-only"] = stage1.ee
        record.ici["stage1-only"] = _far_user_ici(stage1.psi)

    if "proposed" in methods:
        rng_stage2 = _stream(key, 4)
        t0 = time.perf_counter()
        stage2 = optimize_reflection(channels, plan, beams, stage1, cfg, rng_stage2)
        record.wall_stage2_s = time.perf_counter() - t0
        record.stage2_ee_trace = [tp.ee for tp in stage2.trace]
        record.stage2_iterations = stage2.iterations
        record.ee["proposed"] = stage2.ee
        record.ici["proposed"] = _far_user_ici(stage2.psi)

    if "conventional" in methods:
        ee_c, ici_c = conventional_bf_ee(gains, cfg, conventional_mode)
        record.ee["conventional"] = ee_c
        record.ici["conventional"] = ici_c

    if "random-clustering" in methods:
        plan_r = random_plan(effective, cfg.num_clusters, cfg.users_per_cluster,
                             _stream(key, 2))
        beams_r = build_zf_beamformers(effective[plan_r.members[:, -1]])
        gains_r = link_gains(effective, plan_r.members, beams_r.vectors)
        stage1_r = allocate_power(gains_r, cfg)
        record.random_plan_feasible = stage1_r.feasible
        stage2_r = optimize_reflection(channels, plan_r, beams_r, stage1_r, cfg,
                                       _stream(key, 5))
        record.ee["random-clustering"] = stage2_r.ee
        record.ici["random-clustering"] = _far_user_ici(stage2_r.psi)

    if "random-pac" in methods:
        beta_r = random_power_coefficients(cfg, _stream(key, 3))
        gamma_r, psi_rp = sinr(gains, beta_r, cfg)
        record.ee["random-pac"] = energy_efficiency(gamma_r, beta_r, cfg)
        record.ici["random-pac"] = _far_user_ici(psi_rp)

    return record


def _trial_task(args: tuple) -> TrialRecord:
    return run_trial(*args)


def run_experiment(config: SystemConfig, spec: ExperimentSpec) -> list[TrialRecord]:
    """All trials over the scenario grid; order-independent aggregation."""
    tasks = [(config, spec.methods, spec.seed, n, m, t, spec.conventional_mode)
             for n in spec.n_grid for m in spec.m_grid
             for t in range(spec.num_trials)]
    if spec.workers > 1:
        # imported here: a serial run need not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            records = list(pool.map(_trial_task, tasks, chunksize=1))
    else:
        records = [_trial_task(task) for task in tasks]
    records.sort(key=lambda r: (r.n, r.m, r.trial))
    return records


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _stage1_feasible(record: TrialRecord, method: str) -> bool:
    """Whether the Stage-1 run that ``method`` builds on met its constraints."""
    if method in _WITHOUT_STAGE1:
        return True
    if method == "random-clustering":
        return record.random_plan_feasible
    return record.feasible


def _summary_rows(records: list[TrialRecord], spec: ExperimentSpec,
                  value_of, header: str) -> list[str]:
    rows = [header]
    for method in [m for m in METHODS if m in spec.methods]:
        for n in spec.n_grid:
            for m_ant in spec.m_grid:
                cell = [r for r in records if r.n == n and r.m == m_ant]
                vals = [value_of(r, method) for r in cell
                        if _stage1_feasible(r, method)
                        and value_of(r, method) is not None]
                bad = sum(1 for r in cell if not _stage1_feasible(r, method))
                if vals:
                    arr = np.asarray(vals)
                    rows.append(f"{method},{n},{m_ant},{_fmt(arr.mean())},"
                                f"{_fmt(arr.std())},{len(vals)},{bad}")
                else:
                    rows.append(f"{method},{n},{m_ant},NA,NA,0,{bad}")
    return rows


def _convergence_rows(records: list[TrialRecord], spec: ExperimentSpec,
                      attr: str) -> list[str]:
    rows = ["N,M,iteration,mean_ee,trials"]
    for n in spec.n_grid:
        for m_ant in spec.m_grid:
            traces = [getattr(r, attr) for r in records
                      if r.n == n and r.m == m_ant and r.feasible and getattr(r, attr)]
            if not traces:
                continue
            depth = max(len(t) for t in traces)
            padded = np.array([t + [t[-1]] * (depth - len(t)) for t in traces])
            for it in range(depth):
                rows.append(f"{n},{m_ant},{it + 1},{_fmt(padded[:, it].mean())},"
                            f"{len(traces)}")
    return rows


def emit_results(records: list[TrialRecord], spec: ExperimentSpec,
                 config: SystemConfig) -> dict[str, str]:
    """Write summary, convergence, interference CSVs plus manifest and plot script."""
    if not records:
        raise ValueError("no records to emit")
    os.makedirs(spec.out_dir, exist_ok=True)
    paths = {}

    def write(name: str, lines: list[str]) -> None:
        path = os.path.join(spec.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        paths[name] = path

    write("summary.csv", _summary_rows(
        records, spec, lambda r, m: r.ee.get(m),
        "method,N,M,mean_ee,std_ee,trials,infeasible"))
    write("ici.csv", _summary_rows(
        records, spec, lambda r, m: r.ici.get(m),
        "method,N,M,mean_ici,std_ici,trials,infeasible"))
    write("convergence_stage1.csv",
          _convergence_rows(records, spec, "stage1_ee_trace"))
    write("convergence_stage2.csv",
          _convergence_rows(records, spec, "stage2_ee_trace"))

    manifest = ["[config]"]
    manifest += [f"{f.name} = {getattr(config, f.name)!r}"
                 for f in fields(config)]
    manifest += ["", "[experiment]"]
    for name in ("n_grid", "m_grid", "num_trials", "methods", "seed",
                 "conventional_mode"):
        manifest.append(f"{name} = {getattr(spec, name)!r}")
    digest = hashlib.sha256("\n".join(manifest).encode()).hexdigest()
    manifest += ["", f"content_sha256 = {digest}"]
    write("manifest.txt", manifest)

    write("plot_results.py", _PLOT_SCRIPT.splitlines())
    return paths


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot the simulator CSVs found next to this script."""
import csv
import os
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))


def load(name):
    with open(os.path.join(HERE, name)) as fh:
        return list(csv.DictReader(fh))


def grouped(rows, value_key):
    by_method = {}
    for row in rows:
        if row[value_key] == "NA":
            continue
        by_method.setdefault(row["method"], []).append(
            (int(row["N"]), float(row[value_key])))
    return by_method


def line_plot(by_method, ylabel, out):
    fig, ax = plt.subplots()
    for method, pts in sorted(by_method.items()):
        pts.sort()
        ax.plot([p[0] for p in pts], [p[1] for p in pts], marker="o", label=method)
    ax.set_xlabel("reflecting elements N")
    ax.set_ylabel(ylabel)
    ax.grid(True, alpha=0.4)
    ax.legend()
    fig.savefig(os.path.join(HERE, out), dpi=150, bbox_inches="tight")
    plt.close(fig)


def convergence_plot(name, out):
    rows = load(name)
    fig, ax = plt.subplots()
    by_n = {}
    for row in rows:
        by_n.setdefault(int(row["N"]), []).append(
            (int(row["iteration"]), float(row["mean_ee"])))
    for n, pts in sorted(by_n.items()):
        pts.sort()
        ax.plot([p[0] for p in pts], [p[1] for p in pts], marker=".",
                label=f"N={n}")
    ax.set_xlabel("iteration")
    ax.set_ylabel("mean energy efficiency (bits/J)")
    ax.grid(True, alpha=0.4)
    ax.legend()
    fig.savefig(os.path.join(HERE, out), dpi=150, bbox_inches="tight")
    plt.close(fig)


def main():
    line_plot(grouped(load("summary.csv"), "mean_ee"),
              "mean energy efficiency (bits/J)", "ee_vs_n.png")
    line_plot(grouped(load("ici.csv"), "mean_ici"),
              "far-user interference (W)", "ici_vs_n.png")
    for name, out in (("convergence_stage1.csv", "convergence_stage1.png"),
                      ("convergence_stage2.csv", "convergence_stage2.png")):
        if os.path.exists(os.path.join(HERE, name)):
            convergence_plot(name, out)
    print("plots written to", HERE)


if __name__ == "__main__":
    sys.exit(main())
'''
