#!/usr/bin/env python3
"""Benchmark of the irsnoma Monte Carlo simulator.

Run from the repository root:

    python3 bench/run_bench.py --workload reference --seed 1 --seconds 45 --trace 0

One run is a single process and a closed loop with one client. A pass calls
``run_experiment`` (workers=1, one trial after another) once per surface
size N of the grid, then ``emit_results`` for the whole grid, as
``simulate`` would. A pass is a fixed set of trials made from ``--seed``.
A run makes at least one pass and repeats the same inputs while another
whole pass still fits in ``--seconds``; each repeat must give
byte-identical CSVs. Each trial is clocked as one request of the loop.

Host speed: on a shared 2-core VM the same code runs up to 1.7x faster or
slower from one few-second stretch to the next. So a fixed calibration
kernel is timed after every trial, and each trial's wall time is rescaled
to the kernel's nominal time (``CALIBRATION_NOMINAL_S``): the reported
seconds are those of the host at its nominal speed. The raw wall figures
are written to the report beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the first
half of the trials once untraced and once traced, and reports the
per-layer metrics (raw seconds), with the tracing overhead as the traced
trial time against the untraced one, both rescaled to nominal host speed.

Every trial is checked: each efficiency is finite, ``proposed`` is never
below ``stage1-only``, the Stage-1 trace never decreases, and
``summary.csv`` holds one row per method and N. The traced pass also checks
that every returned reflection is unit-modulus. A failed check counts the
trial as failed and the command exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full report (run
environment, CSV digests, raw times, layer self times) and the spans of a
traced pass are written under ``bench/out/``.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads: two threads slow a
# reference N = 64 trial on a 2-core box and change the SDP Newton steps
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

GRID_N = (16, 32, 64)
GRID_M = 8
ALL_METHODS = "proposed,conventional,random-clustering,random-pac,stage1-only"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60
# typical time of HostSpeed.sample on the 2-core x86-64 VM the benchmark
# was defined on; a fixed constant, so normalized times compare across runs
CALIBRATION_NOMINAL_S = 1.5e-3


@dataclasses.dataclass(frozen=True)
class Workload:
    config_text: str     # scenario file text, parsed as `simulate --config` does
    methods: str         # comma list, as `simulate --methods` takes it
    trials: int          # trials per N in one pass
    headline: str        # method whose mean efficiency is `ee_pipeline`


# Why each workload is here is recorded in BENCHMARK.json and bench/README.md.
# A pass takes about 35 s at nominal host speed. `attainable` is not in
# BENCHMARK.json: its Stage-2 cost per draw is heavy-tailed (0.8 to 7.6 s at
# N = 64) and its efficiency bimodal, so no run that fits the time budget
# is steady across seeds; run it by hand for its traced per-layer view.
WORKLOADS = {
    "reference": Workload("", ALL_METHODS, 27, "proposed"),
    "no-reflection": Workload("", "stage1-only,conventional,random-pac", 500,
                              "stage1-only"),
    "attainable": Workload("min_sinr_db = -15\n", ALL_METHODS, 20, "proposed"),
}


class HostSpeed:
    """A fixed kernel whose time tracks how fast the host runs right now.

    It mixes small complex eigen-decompositions and an interpreted loop, the
    two kinds of work a trial does, and touches nothing of the simulator.
    """

    def __init__(self) -> None:
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        self._mats = rng.standard_normal((8, 16, 16)) + 1j * rng.standard_normal((8, 16, 16))

    def sample(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for m in self._mats:
            h = m @ m.conj().T
            _, vecs = np.linalg.eigh(h)
            float(np.real(np.einsum("ij,ji->", h, vecs)))
            acc = 0
            for i in range(2000):
                acc += i
        return time.perf_counter() - t0

    def nominal_factor(self) -> float:
        """Nominal over current kernel time: multiply a wall time by it."""
        return CALIBRATION_NOMINAL_S / statistics.median(
            self.sample() for _ in range(5))


@dataclasses.dataclass
class Library:
    experiments: object
    sdp: object
    config: object
    spec: object


@dataclasses.dataclass
class TrialTime:
    n: int
    raw_s: float
    factor: float            # nominal over kernel time around the trial


@dataclasses.dataclass
class Pass:
    records: list
    times: list              # TrialTime per trial, in run order
    emit_s: float            # nominal seconds
    wall_s: float            # raw seconds, calibration excluded
    calib_s: float           # raw seconds spent in the calibration kernel
    digests: dict            # CSV name (and "records") -> sha256
    failed: set              # trial ids that raised or failed a check
    error: str = ""


def set_up(work: Workload, seed: int, out_dir: str) -> Library:
    """Import the library and build the run's config and spec as `simulate` does."""
    from irsnoma import cli, experiments, sdp
    from irsnoma.config import parse_config_text

    config = parse_config_text(work.config_text)
    args = cli.build_parser().parse_args([
        "--trials", str(work.trials), "--n-grid", ",".join(map(str, GRID_N)),
        "--m-grid", str(GRID_M), "--methods", work.methods, "--out", out_dir,
        "--seed", str(seed), "--workers", "1"])
    spec = experiments.ExperimentSpec(
        n_grid=args.n_grid, m_grid=args.m_grid, num_trials=args.trials,
        methods=args.methods.split(","), out_dir=args.out, seed=args.seed,
        workers=args.workers, conventional_mode=args.conventional_mode)
    return Library(experiments, sdp, config, spec)


def timed_set_up(work: Workload, seed: int, out_dir: str) -> tuple[Library, float, float]:
    """(library, raw set-up seconds, nominal set-up seconds)."""
    t0 = time.perf_counter()
    lib = set_up(work, seed, out_dir)
    raw = time.perf_counter() - t0
    return lib, raw, raw * HostSpeed().nominal_factor()


def child_set_up(workload: str, seed: int) -> tuple[float, float]:
    """(raw, nominal) set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    raw, nominal = proc.stdout.split()[-2:]
    return float(raw), float(nominal)


def trial_id(record) -> str:
    return f"n{record.n}-t{record.trial}"


def record_failures(records, methods: list[str]) -> set:
    failed = set()
    for r in records:
        ok = set(r.ee) == set(methods) and all(math.isfinite(v) for v in r.ee.values())
        if ok and "proposed" in r.ee and "stage1-only" in r.ee:
            ok = r.ee["proposed"] >= r.ee["stage1-only"] * (1.0 - 1e-12)
        trace = r.stage1_ee_trace
        if not (ok and all(b >= a for a, b in zip(trace, trace[1:]))):
            failed.add(trial_id(r))
    return failed


def summary_ok(path: str, methods: list[str]) -> bool:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",")[:2] for line in fh.read().splitlines()[1:]]
    expected = sorted((m, str(n)) for m in methods for n in GRID_N)
    return sorted(map(tuple, rows)) == expected


def digests(paths: dict, records) -> dict:
    out = {}
    for name in sorted(paths):
        if name.endswith(".csv"):
            with open(paths[name], "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    lines = [f"{trial_id(r)},{m},{r.ee[m]!r}" for r in records for m in sorted(r.ee)]
    out["records"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return out


@contextlib.contextmanager
def timed_trials(experiments, times: list, sample):
    """Clock each trial ``run_experiment`` runs: the closed loop's request latency.

    The calibration kernel ``sample`` is timed after each trial, so every
    trial sits between two kernel samples; the kernel's seconds are yielded
    so the caller can take them out of its wall time.
    """
    run_trial = experiments.run_trial
    calib_s = [sample()]

    def clocked(*args):
        t0 = time.perf_counter()
        record = run_trial(*args)
        raw = time.perf_counter() - t0
        calib_s.append(sample())
        factor = 2.0 * CALIBRATION_NOMINAL_S / (calib_s[-2] + calib_s[-1])
        times.append(TrialTime(record.n, raw, factor))
        return record

    experiments.run_trial = clocked
    try:
        yield calib_s
    finally:
        experiments.run_trial = run_trial


def run_pass(lib: Library, sample) -> Pass:
    """One closed-loop pass over the grid, then the correctness checks."""
    spec = lib.spec
    records, times, calib_s = [], [], []
    start = time.perf_counter()
    try:
        with timed_trials(lib.experiments, times, sample) as calib_s:
            for n in GRID_N:
                records += lib.experiments.run_experiment(
                    lib.config, dataclasses.replace(spec, n_grid=[n]))
        t0 = time.perf_counter()
        paths = lib.experiments.emit_results(records, spec, lib.config)
        emit_s = (time.perf_counter() - t0) * (times[-1].factor if times else 1.0)
    except Exception:
        traceback.print_exc()
        every = {f"n{n}-t{t}" for n in GRID_N for t in range(spec.num_trials)}
        return Pass(records, times, 0.0, 0.0, sum(calib_s), {}, every, "raised")
    wall = time.perf_counter() - start - sum(calib_s)
    failed = record_failures(records, spec.methods)
    error = ""
    if not summary_ok(paths["summary.csv"], spec.methods):
        failed = {trial_id(r) for r in records}
        error = "summary.csv rows"
    return Pass(records, times, emit_s, wall, sum(calib_s), digests(paths, records),
                failed, error)


def latency_summary(seconds: list[float]) -> dict:
    if not seconds:
        return {"trials": 0}
    return {"trials": len(seconds), "median": statistics.median(seconds),
            "mean": statistics.fmean(seconds), "max": max(seconds)}


def blas_threads() -> tuple[int, str]:
    """Thread count of the OpenBLAS bundled with numpy, else the pinned env value."""
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn()), symbol
    return int(os.environ["OPENBLAS_NUM_THREADS"]), "OPENBLAS_NUM_THREADS"


def environment() -> dict:
    import numpy
    threads, source = blas_threads()
    return {"blas_threads": threads, "blas_threads_source": source,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "numpy": numpy.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def end_to_end(passes: list[Pass], setup_nominal: list[float], work: Workload) -> dict:
    times = [t for p in passes for t in p.times]
    busy = sum(t.raw_s * t.factor for t in times) + sum(p.emit_s for p in passes)
    return {
        "trials_per_s": (len(times) / busy, "trials/s"),
        **{f"trial_s_n{n}": (statistics.median(t.raw_s * t.factor for t in times
                                               if t.n == n), "s")
           for n in GRID_N},
        "setup_s": (statistics.median(setup_nominal), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ee_pipeline": (statistics.fmean(r.ee[work.headline] for r in passes[0].records),
                        "bit/J/Hz"),
    }


def raw_times(passes: list[Pass], setup_raw: list[float]) -> dict:
    """The wall-clock figures the nominal metrics were scaled from."""
    times = [t for p in passes for t in p.times]
    return {
        "trials_per_s": len(times) / sum(p.wall_s for p in passes),
        "trial_s": {n: latency_summary([t.raw_s for t in times if t.n == n])
                    for n in GRID_N},
        "setup_s": setup_raw,
        "host_factor": latency_summary([t.factor for t in times]),
    }


def per_layer(untraced: Pass, traced: Pass, tracer, lib: Library) -> tuple[dict, dict]:
    import inspect

    import tracing

    limit = inspect.signature(lib.experiments.allocate_power).parameters[
        "max_iterations"].default
    metrics = tracing.layer_metrics(tracer.spans, limit)
    paired = [(r.ee["proposed"], r.ee["stage1-only"]) for r in traced.records
              if "proposed" in r.ee and "stage1-only" in r.ee]
    stage1 = sum(b for _, b in paired)
    gain = 100.0 * (sum(a for a, _ in paired) - stage1) / stage1 if paired else 0.0
    metrics["reflection.ee_gain_pct"] = (gain, "%")
    roots = sum(s.duration for s in tracer.spans if s.parent < 0)
    uncovered = traced.wall_s + traced.calib_s - roots
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.uncovered_s"] = (uncovered, "s")
    # both passes are host-speed normalized trial by trial, so the ratio
    # shows the spans' cost rather than the host's drift between passes
    nominal = [sum(t.raw_s * t.factor for t in p.times) for p in (untraced, traced)]
    metrics["trace_overhead_pct"] = (100.0 * (nominal[1] / nominal[0] - 1.0), "%")
    table = tracing.self_table(tracer.spans)
    table["(not in any layer)"] = (0, uncovered)
    return metrics, table


def declared_units(trace: int) -> dict | None:
    """Metric names and units BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print raw and nominal seconds, exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "irsnoma", "__init__.py")):
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    lib, setup_raw, setup_nominal = timed_set_up(work, args.seed, os.path.join(OUT, name))
    if args.setup_only:
        print(repr(setup_raw), repr(setup_nominal))
        return 0
    samples = [(setup_raw, setup_nominal)] + [child_set_up(args.workload, args.seed)
                                              for _ in range(SETUP_SAMPLES - 1)]

    tracer = None
    host = HostSpeed()
    if args.trace:
        # the first half of the trials, once untraced and once traced
        import tracing
        lib.spec = dataclasses.replace(lib.spec, num_trials=(work.trials + 1) // 2)
        passes = [run_pass(lib, host.sample)]
        tracer = tracing.Tracer()
        with tracing.installed(tracer, lib.experiments, lib.sdp):
            # the kernel gets a span of its own so no layer is charged for it
            passes.append(run_pass(lib, tracer.wrap(host.sample, "bench.calibration",
                                                    "bench")))
        passes[-1].failed |= tracing.failed_trials(tracer.spans)
    else:
        deadline = time.perf_counter() + args.seconds
        passes = [run_pass(lib, host.sample)]
        while (not passes[-1].error and time.perf_counter() + passes[-1].wall_s
               + passes[-1].calib_s < deadline):
            passes.append(run_pass(lib, host.sample))

    attempted = len(GRID_N) * lib.spec.num_trials * len(passes)
    failed = sum(len(p.failed) for p in passes)
    problems = [p.error for p in passes if p.error]
    if any(p.digests != passes[0].digests for p in passes if not p.error):
        problems.append("outputs differ between passes of the same inputs")
        failed = attempted
    metrics, table, raw = {}, {}, {}
    if not any(p.error == "raised" for p in passes):
        if args.trace:
            metrics, table = per_layer(passes[0], passes[1], tracer, lib)
        else:
            metrics = end_to_end(passes, [s[1] for s in samples], work)
            raw = raw_times(passes, [s[0] for s in samples])
    declared = declared_units(args.trace)
    emitted = {k: unit for k, (_, unit) in metrics.items()}
    if metrics and declared is not None and declared != emitted:
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(declared) ^ set(emitted))}")
    correct = failed == 0 and not problems

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "trials_per_n": lib.spec.num_trials, "passes": len(passes),
        "environment": environment(), "csv_sha256": passes[0].digests,
        "problems": problems, "raw": raw,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "self_s": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(table.items())},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracing.write_spans(tracer.spans, os.path.join(OUT, f"{name}-spans.csv"))

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print("csv_sha256 " + json.dumps(report["csv_sha256"], sort_keys=True))
    if raw:
        print("raw " + json.dumps(raw))
    wall = passes[-1].wall_s + passes[-1].calib_s
    for key, (calls, secs) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"self {key:32s} calls {calls:6d}  {secs:9.4f} s  "
              f"{100.0 * secs / wall:5.1f} %")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
