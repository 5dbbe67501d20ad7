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

import functools
import hashlib
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .beamforming import build_zf_beamformers
from .channel import (draw_user_geometry, effective_channel, energy_efficiency,
                      link_gains, own_beam, sinr, synthesize_channels)
from .clustering import form_clusters, random_plan
from .config import SystemConfig
from .power_allocation import allocate_power
from .reflection import optimize_reflection

METHODS = ("proposed", "conventional", "random-clustering", "random-pac",
           "stage1-only")
# each method that builds on Stage 1: its plan's index in a trial's plan
# stack, and whether Stage 2 runs on that plan's split. Stage 2 runs only on
# a split Stage 1 certified; otherwise the method records the Stage-1 values.
# The baselines absent here run no Stage 1, so its infeasibility drops none
# of their trials
_STAGES = {"proposed": (0, True), "stage1-only": (0, False),
           "random-clustering": (1, True)}
# the SDP's bytes follow the BLAS thread count (module docstring). numpy
# loaded its BLAS, which read these variables, before this module runs; with
# them unset the BLAS runs one thread per CPU the process may use
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count())
_ENVIRONMENT = [f"numpy = {np.__version__}"] + [
    f"{var} = {os.environ.get(var, 'unset')}"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
] + [f"cpus = {_CPUS}"]


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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not self.n_grid or not self.m_grid:
            raise ValueError("scenario grids must be nonempty")
        if len(set(self.n_grid)) < len(self.n_grid) or len(set(self.m_grid)) < len(self.m_grid):
            # a repeated point would run its trials twice and count them twice
            raise ValueError("scenario grids must not repeat a value")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.conventional_mode not in ("time-share", "single-user"):
            raise ValueError("conventional_mode must be time-share or single-user")


@dataclass
class TrialRecord:
    n: int
    m: int
    trial: int
    feasible: tuple[bool, ...]   # Stage 1's certificate on each stacked plan
    ee: dict[str, float] = field(default_factory=dict)
    ici: dict[str, float] = field(default_factory=dict)
    stage1_ee_trace: list[float] = field(default_factory=list)
    stage2_ee_trace: list[float] = field(default_factory=list)


def _far_user_ici(psi: np.ndarray) -> float:
    # weakest member sits at index 0 of each cluster
    return float(np.add.reduce(psi[:, 0]) / psi.shape[0])


def conventional_bf_ee(gains: np.ndarray, config: SystemConfig,
                       mode: str = "time-share") -> tuple[float, float]:
    """Orthogonal benchmark: each beam serves its users without superposition.

    "time-share" gives each of the K users a 1/K duty cycle at full beam
    power, capped at P_max; "single-user" dedicates the beam to its
    strongest user. Power accounting matches the proposed scheme (radiated
    plus circuit power). ``gains`` is one plan's (I, K, I) array from
    ``link_gains``. Returns (efficiency, far-user interference).
    """
    # every beam radiates within the per-beam budget, as Stage 1's does
    p = min(config.cluster_power_w, config.max_power_w)
    own = own_beam(gains)
    psi_full = np.einsum("ikj->ik", gains) * p - own * p
    snr = p * own / (psi_full + config.noise_power_w)
    if mode == "time-share":
        rates = config.bandwidth_hz * np.add.reduce(np.log2(1.0 + snr), axis=1) / snr.shape[1]
    elif mode == "single-user":
        rates = config.bandwidth_hz * np.log2(1.0 + snr[:, -1])
    else:
        raise ValueError(f"unknown conventional mode {mode!r}")
    powers = p + config.circuit_power_w
    return float(np.add.reduce(rates / powers)), _far_user_ici(psi_full)


def random_power_coefficients(config: SystemConfig,
                              rng: np.random.Generator) -> np.ndarray:
    """Unoptimized coefficients: random fractions, weakest user largest."""
    draws = rng.random((config.num_clusters, config.users_per_cluster))
    draws = -np.sort(-draws, axis=1)
    budget = 0.9 * min(config.cluster_power_w, config.max_power_w) / config.cluster_power_w
    return draws / np.add.reduce(draws, axis=1, keepdims=True) * budget


def _stream(key: list[int], index: int) -> np.random.Generator:
    """The generator of ``SeedSequence(key).spawn(n)[index]`` (any n > index),
    built alone; each reader of a trial's randomness owns one index."""
    return np.random.default_rng(np.random.SeedSequence(key, spawn_key=(index,)))


@functools.lru_cache(maxsize=64)
def _grid_config(config: SystemConfig, n: int, m: int) -> SystemConfig:
    """``config`` at grid point (n, m), validated and built once per key: a
    trial at a point already built pays no ``replace``."""
    return replace(config, num_irs_elements=n, num_bs_antennas=m)


def run_trial(config: SystemConfig, methods: list[str], seed: int, n: int, m: int,
              trial: int, conventional_mode: str = "time-share") -> TrialRecord:
    """One paired-comparison trial at scenario (n, m).

    Every plan the trial evaluates is drawn first: the clustered plan, and
    random clustering's when requested. Their (P, I, K) stack, P = 1 or 2,
    gets every plan's beams in one call and its (P, I, K, I) gains in one
    more, bit for bit the per-plan results; each stage reads a plan's row.
    Stage 1 runs on every plan whatever the methods, and ``feasible`` holds
    each plan's certificate in stack order; the clustered plan's, entry 0,
    is what the CLI's feasible count and ``convergence_stage1.csv`` report
    for every run. Each method that builds on Stage 1 reads its plan, and
    whether Stage 2 follows, from ``_STAGES``. Stream 0 draws the channels,
    2 the random plan and 3 the random coefficients, each built only when
    drawn from. Index 1 is unused: renumbering would change the random
    baselines' draws.
    """
    cfg = _grid_config(config, n, m)
    key = [seed, n, m, trial]
    rng_channel = _stream(key, 0)

    geometry = draw_user_geometry(cfg, rng_channel)
    cascaded = synthesize_channels(cfg, geometry, rng_channel)
    b0 = np.ones(cfg.num_irs_elements, dtype=complex)
    effective = effective_channel(cascaded, b0)

    plans = [form_clusters(effective, cfg.num_clusters, cfg.users_per_cluster,
                           cfg.correlation_threshold)]
    if "random-clustering" in methods:
        plans.append(random_plan(effective, cfg.num_clusters, cfg.users_per_cluster,
                                 _stream(key, 2)))
    members = np.array(plans)
    beams = build_zf_beamformers(effective[members[..., -1]])
    gains = link_gains(effective, members, beams)
    stage1 = [allocate_power(plan_gains, cfg) for plan_gains in gains]

    record = TrialRecord(n=n, m=m, trial=trial,
                         feasible=tuple(result.feasible for result in stage1),
                         stage1_ee_trace=[tp.ee for tp in stage1[0].trace])

    for method in [name for name in _STAGES if name in methods]:
        plan, runs_stage2 = _STAGES[method]
        result = stage1[plan]
        if runs_stage2 and result.feasible:
            result = optimize_reflection(cascaded, members[plan], beams[plan],
                                         result, cfg)
            if method == "proposed":
                record.stage2_ee_trace = [tp.ee for tp in result.trace]
        record.ee[method] = result.ee
        record.ici[method] = _far_user_ici(result.psi)

    if "conventional" in methods:
        ee_c, ici_c = conventional_bf_ee(gains[0], cfg, conventional_mode)
        record.ee["conventional"] = ee_c
        record.ici["conventional"] = ici_c

    if "random-pac" in methods:
        beta_r = random_power_coefficients(cfg, _stream(key, 3))
        gamma_r, psi_rp = sinr(gains[0], beta_r, cfg)
        record.ee["random-pac"] = energy_efficiency(gamma_r, beta_r, cfg)
        record.ici["random-pac"] = _far_user_ici(psi_rp)

    return record


def check_grid(config: SystemConfig, spec: ExperimentSpec) -> None:
    """Raise ValueError if the config at any (n, m) grid point is invalid."""
    for n in spec.n_grid:
        for m in spec.m_grid:
            _grid_config(config, n, m)


def run_experiment(config: SystemConfig, spec: ExperimentSpec) -> list[TrialRecord]:
    """All trials over the scenario grid; order-independent aggregation.

    Every grid point's config is checked before the first trial runs.
    """
    check_grid(config, spec)
    tasks = [(config, spec.methods, spec.seed, n, m, t, spec.conventional_mode)
             for n in spec.n_grid for m in spec.m_grid
             for t in range(spec.num_trials)]
    if spec.workers > 1:
        # imported here: a serial run need not load the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            records = list(pool.map(run_trial, *zip(*tasks), chunksize=1))
    else:
        records = [run_trial(*task) for task in tasks]
    records.sort(key=lambda r: (r.n, r.m, r.trial))
    return records


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _stage1_feasible(record: TrialRecord, method: str) -> bool:
    """Whether the Stage-1 run that ``method`` builds on met its constraints."""
    return method not in _STAGES or record.feasible[_STAGES[method][0]]


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
                      trace_of) -> list[str]:
    rows = ["N,M,iteration,mean_ee,trials"]
    for n in spec.n_grid:
        for m_ant in spec.m_grid:
            traces = [trace_of(r) for r in records
                      if r.n == n and r.m == m_ant and r.feasible[0] and trace_of(r)]
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
    """Write the summary, interference and convergence CSVs and the manifest;
    returns each file's path by name."""
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
          _convergence_rows(records, spec, lambda r: r.stage1_ee_trace))
    write("convergence_stage2.csv",
          _convergence_rows(records, spec, lambda r: r.stage2_ee_trace))

    manifest = ["[config]"]
    manifest += [f"{f.name} = {getattr(config, f.name)!r}"
                 for f in fields(config)]
    manifest += ["", "[experiment]"]
    for name in ("n_grid", "m_grid", "num_trials", "methods", "seed",
                 "conventional_mode"):
        manifest.append(f"{name} = {getattr(spec, name)!r}")
    manifest += ["", "[environment]"] + _ENVIRONMENT
    digest = hashlib.sha256("\n".join(manifest).encode()).hexdigest()
    manifest += ["", f"content_sha256 = {digest}"]
    write("manifest.txt", manifest)
    return paths
