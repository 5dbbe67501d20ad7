import collections
import dataclasses
import filecmp
import hashlib
import importlib.util
import inspect
import os
import pathlib
import re
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest

from irsnoma.beamforming import build_zf_beamformers
from irsnoma.channel import (draw_user_geometry, effective_channel, link_gains,
                             own_beam, sinr, synthesize_channels)
from irsnoma.clustering import form_clusters, random_plan
from irsnoma import experiments, sdp
from irsnoma.cli import main as cli_main
from irsnoma.config import SystemConfig, db_to_linear
from irsnoma.power_allocation import allocate_power
from irsnoma.experiments import (METHODS, ExperimentSpec, TrialRecord, _stream,
                                 check_grid, conventional_bf_ee, emit_results,
                                 random_power_coefficients, run_experiment,
                                 run_trial)

from conftest import build_scenario

SMALL = dict(num_irs_elements=8, num_bs_antennas=6, num_clusters=3,
             total_users=12, min_sinr=db_to_linear(-10.0))


def small_config():
    return dataclasses.replace(SystemConfig(), **SMALL)


def small_spec(out_dir, methods=None, trials=2):
    return ExperimentSpec(
        n_grid=[8], m_grid=[6], num_trials=trials,
        methods=methods or ["proposed", "conventional", "random-clustering",
                            "random-pac", "stage1-only"],
        out_dir=str(out_dir), seed=7)


class TestSpecValidation:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentSpec(n_grid=[8], m_grid=[6], num_trials=1,
                           methods=["nope"], out_dir="x", seed=0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grids"):
            ExperimentSpec(n_grid=[], m_grid=[6], num_trials=1,
                           methods=["proposed"], out_dir="x", seed=0)

    @pytest.mark.parametrize("n_grid, m_grid", [([8, 8], [6]), ([8], [6, 7, 6])])
    def test_rejects_repeated_grid_value(self, n_grid, m_grid):
        with pytest.raises(ValueError, match="repeat"):
            ExperimentSpec(n_grid=n_grid, m_grid=m_grid, num_trials=1,
                           methods=["proposed"], out_dir="x", seed=0)

    def test_rejects_negative_seed(self):
        # the trial streams take the seed as entropy, which must be nonnegative
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec(n_grid=[8], m_grid=[6], num_trials=1,
                           methods=["proposed"], out_dir="x", seed=-1)

    def test_invalid_grid_point_rejected_before_any_trial(self, tmp_path, monkeypatch):
        # M = 2 leaves too few antennas for three beams; the valid point
        # before it must not run either
        monkeypatch.setattr(experiments, "run_trial", mock.Mock())
        spec = dataclasses.replace(small_spec(tmp_path), m_grid=[6, 2])
        with pytest.raises(ValueError, match="num_bs_antennas"):
            run_experiment(small_config(), spec)
        experiments.run_trial.assert_not_called()


class TestConventionalBaseline:
    def test_single_user_cluster_equals_full_power_noma(self):
        # K = 1: superposition degenerates; time sharing is the same formula
        cfg = dataclasses.replace(SystemConfig(), users_per_cluster=1,
                                  total_users=10)
        cfg2, _, _, _, _, gains = build_scenario(0, config=cfg)
        ee_conv, _ = conventional_bf_ee(gains, cfg2, "time-share")
        beta = np.ones((cfg2.num_clusters, 1))
        gamma, _ = sinr(gains, beta, cfg2)
        rates = cfg2.bandwidth_hz * np.log2(1 + gamma).sum(axis=1)
        ee_noma = float(np.sum(rates / (cfg2.cluster_power_w
                                        + cfg2.circuit_power_w)))
        assert ee_conv == pytest.approx(ee_noma, rel=1e-12)

    def test_time_share_rate_formula(self):
        cfg, _, _, _, _, gains = build_scenario(1)
        ee, _ = conventional_bf_ee(gains, cfg, "time-share")
        p = cfg.cluster_power_w
        own = own_beam(gains)
        psi = np.einsum("ikj->ik", gains) * p - own * p
        rates = (cfg.bandwidth_hz / 2.0) * np.log2(
            1 + p * own / (psi + cfg.noise_power_w)).sum(axis=1)
        expected = float(np.sum(rates / (p + cfg.circuit_power_w)))
        assert ee == pytest.approx(expected, rel=1e-12)

    def test_single_user_mode_uses_strongest(self):
        cfg, _, _, _, _, gains = build_scenario(2)
        ee, _ = conventional_bf_ee(gains, cfg, "single-user")
        p = cfg.cluster_power_w
        own = own_beam(gains)
        psi = np.einsum("ikj->ik", gains) * p - own * p
        rates = cfg.bandwidth_hz * np.log2(
            1 + p * own[:, -1] / (psi[:, -1] + cfg.noise_power_w))
        expected = float(np.sum(rates / (p + cfg.circuit_power_w)))
        assert ee == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mode", ["time-share", "single-user"])
    def test_beam_power_capped_at_budget(self, mode):
        # a beam radiates min(P_i, P_max), as Stage 1's budget rows allow
        def ee_at(cluster_w, max_w):
            cfg = dataclasses.replace(SystemConfig(), cluster_power_w=cluster_w,
                                      max_power_w=max_w)
            cfg, _, _, _, _, gains = build_scenario(0, config=cfg)
            return conventional_bf_ee(gains, cfg, mode)

        assert ee_at(1.0, 0.5) == ee_at(0.5, 0.5)

    def test_unknown_mode_rejected(self):
        cfg, _, _, _, _, gains = build_scenario(3)
        with pytest.raises(ValueError):
            conventional_bf_ee(gains, cfg, "broken")


def test_random_power_coefficients_budget_and_order():
    cfg = SystemConfig()
    rng = np.random.default_rng(0)
    beta = random_power_coefficients(cfg, rng)
    np.testing.assert_allclose(beta.sum(axis=1), 0.9, rtol=1e-12)
    assert np.all(np.diff(beta, axis=1) <= 0)


class TestRunTrial:
    def test_same_seed_reproduces_record(self):
        cfg = small_config()
        methods = ["proposed", "conventional", "random-pac"]
        a = run_trial(cfg, methods, seed=3, n=8, m=6, trial=0)
        b = run_trial(cfg, methods, seed=3, n=8, m=6, trial=0)
        assert a.ee == b.ee
        assert a.ici == b.ici
        assert a.stage1_ee_trace == b.stage1_ee_trace

    @pytest.mark.parametrize("floor_db", [3.0, -15.0])
    def test_record_is_a_pure_function_of_its_inputs(self, floor_db):
        # a record holds no measured time: two calls with the same arguments
        # give equal records, at a floor Stage 1 misses and at one where
        # Stage 2 runs its loop
        cfg = dataclasses.replace(SystemConfig(), min_sinr=db_to_linear(floor_db))
        for trial in range(2):
            first = run_trial(cfg, list(METHODS), 4243, 16, 8, trial)
            assert run_trial(cfg, list(METHODS), 4243, 16, 8, trial) == first

    def test_stage2_runs_above_128_elements(self):
        # Stage 1 certifies this N = 136 draw, so Stage 2 must run its loop;
        # no solver size cap may end it before the first iteration
        cfg = dataclasses.replace(SystemConfig(), min_sinr=db_to_linear(-15.0))
        record = run_trial(cfg, ["proposed"], 0, 136, 8, 0)
        assert record.feasible == (True,)
        assert record.stage2_ee_trace

    def test_paired_methods_share_channels(self):
        cfg = small_config()
        record = run_trial(cfg, ["proposed", "conventional", "stage1-only"],
                           seed=5, n=8, m=6, trial=1)
        assert set(record.ee) == {"proposed", "conventional", "stage1-only"}
        assert set(record.ici) == set(record.ee)
        assert record.ee["proposed"] >= record.ee["stage1-only"] * (1 - 1e-9)

    def test_scenario_override_applied(self):
        cfg = small_config()
        record = run_trial(cfg, ["conventional"], seed=5, n=4, m=6, trial=0)
        assert record.n == 4

    def test_streams_are_the_spawned_children(self):
        # a stream built alone draws what SeedSequence.spawn's child draws
        for key in ([4243, 16, 8, 0], [1, 64, 8, 7]):
            children = np.random.SeedSequence(key).spawn(6)
            for i, child in enumerate(children):
                assert (_stream(key, i).bit_generator.state
                        == np.random.default_rng(child).bit_generator.state)

    def test_random_clustering_draws_apart_from_proposed(self):
        # at -15 dB Stage 2 runs its loop on these draws; random-clustering's
        # values must not depend on whether proposed ran
        cfg = dataclasses.replace(SystemConfig(), min_sinr=db_to_linear(-15.0))
        for trial in range(6):
            alone = run_trial(cfg, ["random-clustering"], seed=1, n=8, m=8,
                              trial=trial)
            paired = run_trial(cfg, ["proposed", "random-clustering"], seed=1,
                               n=8, m=8, trial=trial)
            for values in ("ee", "ici"):
                assert (getattr(alone, values)["random-clustering"]
                        == getattr(paired, values)["random-clustering"]), values

    @staticmethod
    def _built_streams(cfg, methods, seed, n, trials):
        """Records of ``trials`` trials and the stream indices each built."""
        built = []

        def counted(key, index):
            built[-1].append(index)
            return _stream(key, index)

        records = []
        with mock.patch.object(experiments, "_stream", counted):
            for trial in range(trials):
                built.append([])
                records.append(run_trial(cfg, methods, seed=seed, n=n, m=8,
                                         trial=trial))
        return records, built

    def test_unread_streams_are_not_built(self):
        # at the 3 dB floor a five-method trial builds only the channel,
        # random-plan and random-pac generators
        for n in (16, 64):
            _, built = self._built_streams(SystemConfig(), list(METHODS),
                                           seed=4243, n=n, trials=4)
            assert built == [[0, 2, 3]] * 4
        # at -15 dB Stage 2 runs its loop and draws no randomness, so
        # proposed and random-clustering build only the channel and
        # random-plan generators
        cfg = dataclasses.replace(SystemConfig(), min_sinr=db_to_linear(-15.0))
        records, built = self._built_streams(cfg, ["proposed", "random-clustering"],
                                             seed=1, n=8, trials=4)
        assert built == [[0, 2]] * 4
        assert all(r.feasible[0] for r in records)
        assert any(r.feasible[1] for r in records)
        assert any(r.stage2_ee_trace for r in records)

    def test_random_clustering_leaves_the_main_plan_bytes(self):
        # random-clustering's plan is stacked with the main plan's in one
        # beams call and one gains call; the main plan's results keep the
        # bytes of a trial without it, at an infeasible and a feasible floor
        others = ["proposed", "conventional", "random-pac", "stage1-only"]

        def main_plan(record):
            values = ([record.ee[m] for m in others] + [record.ici[m] for m in others]
                      + record.stage1_ee_trace + record.stage2_ee_trace)
            return np.array(values).tobytes(), record.feasible[0]

        feasible = dataclasses.replace(SystemConfig(), min_sinr=db_to_linear(-15.0))
        verdicts = []
        for cfg, seed, n in ((SystemConfig(), 4243, 16), (SystemConfig(), 4243, 64),
                             (feasible, 1, 8)):
            for trial in range(3):
                alone = run_trial(cfg, others, seed=seed, n=n, m=8, trial=trial)
                stacked = run_trial(cfg, others + ["random-clustering"], seed=seed,
                                    n=n, m=8, trial=trial)
                assert main_plan(alone) == main_plan(stacked)
                verdicts.append(alone.feasible[0])
        assert any(verdicts) and not all(verdicts)

    def test_verdict_has_one_entry_per_stacked_plan(self):
        # a one-entry verdict such as (False,) is truthy, so every read must
        # index a plan. Each plan, built alone from the trial's streams, has
        # its own Stage-1 certificate in its entry; at -10 dB Stage 1
        # certifies this draw's main plan and not its random plan
        cfg = dataclasses.replace(SystemConfig(), num_irs_elements=16,
                                  num_bs_antennas=8, min_sinr=db_to_linear(-10.0))
        key = [4243, 16, 8, 0]
        rng = _stream(key, 0)
        cascaded = synthesize_channels(cfg, draw_user_geometry(cfg, rng), rng)
        effective = effective_channel(cascaded, np.ones(16, dtype=complex))
        plans = [form_clusters(effective, cfg.num_clusters, cfg.users_per_cluster,
                               cfg.correlation_threshold),
                 random_plan(effective, cfg.num_clusters, cfg.users_per_cluster,
                             _stream(key, 2))]
        own = ()
        for plan in plans:
            beams = build_zf_beamformers(effective[plan[:, -1]])
            own += (allocate_power(link_gains(effective, plan, beams), cfg).feasible,)
        assert own == (True, False)
        one_plan = [m for m in METHODS if m != "random-clustering"]
        assert run_trial(cfg, one_plan, 4243, 16, 8, 0).feasible == own[:1]
        assert run_trial(cfg, list(METHODS), 4243, 16, 8, 0).feasible == own


class TestRunExperiment:
    def test_worker_count_does_not_change_records(self, tmp_path):
        # the process-pool path gives the serial path's records, in order
        cfg = small_config()
        spec = ExperimentSpec(n_grid=[4, 8], m_grid=[6], num_trials=2,
                              methods=list(METHODS),
                              out_dir=str(tmp_path), seed=7)
        serial = run_experiment(cfg, spec)
        pooled = run_experiment(cfg, dataclasses.replace(spec, workers=2))
        assert len(serial) == 4
        assert pooled == serial

    def test_grid_builds_each_point_config_once(self, tmp_path):
        # check_grid fills one entry per (n, m); the trials only read them
        cfg = small_config()
        spec = ExperimentSpec(n_grid=[4, 8], m_grid=[6, 8], num_trials=3,
                              methods=["conventional"], out_dir=str(tmp_path), seed=7)
        experiments._grid_config.cache_clear()
        check_grid(cfg, spec)
        info = experiments._grid_config.cache_info()
        assert info.misses == info.currsize == 4 and info.hits == 0
        records = run_experiment(cfg, spec)
        info = experiments._grid_config.cache_info()
        assert info.misses == info.currsize == 4 and info.hits == 4 + len(records)
        for n in (4, 8):
            for m in (6, 8):
                assert experiments._grid_config(cfg, n, m) == dataclasses.replace(
                    cfg, num_irs_elements=n, num_bs_antennas=m)

    def test_grid_configs_of_two_bases_never_share_an_entry(self):
        base = small_config()
        other = dataclasses.replace(base, min_sinr=db_to_linear(-5.0))
        experiments._grid_config.cache_clear()
        first = experiments._grid_config(base, 8, 6)
        second = experiments._grid_config(other, 8, 6)
        assert first.min_sinr == base.min_sinr and second.min_sinr == other.min_sinr
        assert (first.num_irs_elements, first.num_bs_antennas) == (8, 6)
        assert experiments._grid_config.cache_info().currsize == 2


class TestEmitResults:
    def test_csv_schema_and_determinism(self, tmp_path):
        cfg = small_config()
        spec = small_spec(tmp_path / "run1",
                          methods=["conventional", "random-pac"])
        records = run_experiment(cfg, spec)
        paths = emit_results(records, spec, cfg)
        header = pathlib.Path(paths["summary.csv"]).read_text().splitlines()[0]
        assert header == "method,N,M,mean_ee,std_ee,trials,infeasible"

        spec2 = small_spec(tmp_path / "run2",
                           methods=["conventional", "random-pac"])
        records2 = run_experiment(cfg, spec2)
        paths2 = emit_results(records2, spec2, cfg)
        for name in ("summary.csv", "ici.csv", "convergence_stage1.csv",
                     "convergence_stage2.csv"):
            assert filecmp.cmp(paths[name], paths2[name], shallow=False), name

    def test_zero_feasible_rows_use_na(self, tmp_path):
        spec = small_spec(tmp_path, methods=["conventional"], trials=1)
        record = TrialRecord(n=8, m=6, trial=0, feasible=(False,))
        record.ee["conventional"] = 1.0
        paths = emit_results([record], spec, small_config())
        rows = pathlib.Path(paths["summary.csv"]).read_text().splitlines()
        assert rows[1] == "conventional,8,6,1,0,1,0"

    def test_stage1_method_on_infeasible_trial_is_na(self, tmp_path):
        spec = small_spec(tmp_path, methods=["stage1-only"], trials=1)
        record = TrialRecord(n=8, m=6, trial=0, feasible=(False,))
        record.ee["stage1-only"] = 1.0
        record.ici["stage1-only"] = 1.0
        paths = emit_results([record], spec, small_config())
        for name in ("summary.csv", "ici.csv"):
            rows = pathlib.Path(paths[name]).read_text().splitlines()
            assert rows[1] == "stage1-only,8,6,NA,NA,0,1", name

    def test_random_clustering_gated_on_its_own_plan(self, tmp_path):
        # seed 7, trials 18 and 8: only the random plan's Stage 1 is feasible
        # on trial 18, only the main plan's on trial 8
        cfg = small_config()
        methods = ["random-clustering", "stage1-only"]
        records = [run_trial(cfg, methods, seed=7, n=8, m=6, trial=t)
                   for t in (18, 8)]
        assert [r.feasible for r in records] == [(False, True), (True, False)]
        paths = emit_results(records, small_spec(tmp_path, methods=methods), cfg)
        for name, values in (("summary.csv", "ee"), ("ici.csv", "ici")):
            rows = pathlib.Path(paths[name]).read_text().splitlines()
            clustered = getattr(records[0], values)["random-clustering"]
            stage1 = getattr(records[1], values)["stage1-only"]
            assert rows[1] == f"random-clustering,8,6,{clustered:.12g},0,1,1", name
            assert rows[2] == f"stage1-only,8,6,{stage1:.12g},0,1,1", name

    def test_writes_exactly_the_csvs_and_manifest(self, tmp_path):
        cfg = small_config()
        spec = small_spec(tmp_path, methods=["conventional"], trials=1)
        paths = emit_results(run_experiment(cfg, spec), spec, cfg)
        names = ["convergence_stage1.csv", "convergence_stage2.csv", "ici.csv",
                 "manifest.txt", "summary.csv"]
        assert sorted(os.listdir(tmp_path)) == names
        assert paths == {name: os.path.join(str(tmp_path), name) for name in names}
        manifest = pathlib.Path(paths["manifest.txt"]).read_text()
        assert "num_irs_elements" in manifest
        content, digest = manifest.rsplit("\n\ncontent_sha256 = ", 1)
        assert hashlib.sha256(content.encode()).hexdigest() == digest.strip()

        # the environment the bytes depend on, inside the digested content,
        # as the BLAS read it when numpy loaded: a fresh interpreter started
        # with OMP_NUM_THREADS=3 still reports 3 after changing it to 5
        child = textwrap.dedent(f"""
            import dataclasses, os
            from irsnoma.config import SystemConfig
            from irsnoma.experiments import ExperimentSpec, emit_results, run_experiment
            os.environ["OMP_NUM_THREADS"] = "5"
            cfg = dataclasses.replace(SystemConfig(), **{SMALL!r})
            spec = dataclasses.replace({spec!r}, out_dir={str(tmp_path / "child")!r})
            emit_results(run_experiment(cfg, spec), spec, cfg)
        """)
        src = pathlib.Path(experiments.__file__).resolve().parents[1]
        env = dict(os.environ, OMP_NUM_THREADS="3", PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        env.pop("MKL_NUM_THREADS", None)
        run = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr[-3000:]
        manifest = (tmp_path / "child" / "manifest.txt").read_text()
        environment = manifest.split("[environment]\n")[1].split("\n\n")[0]
        assert environment.splitlines() == [
            f"numpy = {np.__version__}",
            f"OPENBLAS_NUM_THREADS = {os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
            "OMP_NUM_THREADS = 3", "MKL_NUM_THREADS = unset",
            f"cpus = {len(os.sched_getaffinity(0))}"]
        content, digest = manifest.rsplit("\n\ncontent_sha256 = ", 1)
        assert hashlib.sha256(content.encode()).hexdigest() == digest.strip()

    def test_empty_records_rejected(self, tmp_path):
        spec = small_spec(tmp_path, methods=["conventional"])
        with pytest.raises(ValueError):
            emit_results([], spec, small_config())


class TestCli:
    def test_end_to_end_run(self, tmp_path, capsys):
        config_path = tmp_path / "scenario.cfg"
        config_path.write_text(
            "num_irs_elements = 8\nnum_bs_antennas = 6\n"
            "num_clusters = 3\ntotal_users = 12\nmin_sinr_db = -10\n")
        out = tmp_path / "out"
        code = cli_main([
            "--config", str(config_path), "--trials", "1", "--n-grid", "8",
            "--m-grid", "6", "--methods", "conventional,random-pac",
            "--out", str(out), "--seed", "1",
        ])
        assert code == 0
        assert (out / "summary.csv").exists()
        assert "trials" in capsys.readouterr().out

    @pytest.mark.parametrize("args, message", [
        (["--trials", "0"], "num_trials must be at least 1"),
        (["--methods", "bogus"], "unknown methods"),
        (["--m-grid", "8,3"], "num_bs_antennas must exceed"),
        (["--n-grid", "16,0"], "counts must be positive"),
        (["--n-grid", "16,16"], "scenario grids must not repeat a value"),
        (["--seed", "-1"], "seed must be nonnegative"),
        (["--config", "CONFIG"], "line 1: unknown config key 'num_beams'"),
        (["--config", "MISSING"], "No such file or directory"),
        (["--methods", ""], "methods must be nonempty"),
        (["--workers", "0"], "workers must be at least 1"),
        (["--workers", "-2"], "workers must be at least 1"),
        (["--out", "CONFIG"], "File exists"),
        (["--config", "NAN"], "min_sinr must be finite, got nan"),
        (["--config", "HUGE"], "line 1: min_sinr_db = 100000 overflows"),
        (["--config", "FLOAT"], "line 1: num_clusters = 5.0 is not an integer"),
    ])
    def test_bad_input_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                        args, message):
        # reported on one line with exit status 2, before any trial runs
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("num_beams = 5\n")
        nan_path = tmp_path / "nan.cfg"
        nan_path.write_text("min_sinr_db = nan\n")
        huge_path = tmp_path / "huge.cfg"
        huge_path.write_text("min_sinr_db = 100000\n")
        float_path = tmp_path / "float.cfg"
        float_path.write_text("num_clusters = 5.0\n")
        paths = {"CONFIG": str(config_path), "MISSING": str(tmp_path / "none.cfg"),
                 "NAN": str(nan_path), "HUGE": str(huge_path), "FLOAT": str(float_path)}
        args = [paths.get(arg, arg) for arg in args]
        monkeypatch.setattr(experiments, "run_trial", mock.Mock())
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--n-grid", "16", "--out", str(tmp_path / "out"), *args])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"simulate: error: {message}" in err and "Traceback" not in err
        experiments.run_trial.assert_not_called()
        assert not (tmp_path / "out").exists()


def _bench_module(monkeypatch, name):
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # for its dataclasses
    spec.loader.exec_module(module)
    return module


def _bench_tracing(monkeypatch):
    return _bench_module(monkeypatch, "tracing")


@pytest.mark.parametrize("workload", ["reference", "no-reflection", "attainable"])
def test_bench_pass_runs(monkeypatch, tmp_path, workload):
    # one trial per N of the bench's own pass, built as bench/run_bench.py
    # builds it: the CLI flags its set-up reads, the record fields its
    # checks read and the paths emit_results returns. Only attainable's
    # floor lets Stage 2 run. Its import pins BLAS through the environment;
    # monkeypatch restores the variables after
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    bench = _bench_module(monkeypatch, "run_bench")
    lib = bench.set_up(bench.WORKLOADS[workload], 4243, str(tmp_path))
    lib.spec = dataclasses.replace(lib.spec, num_trials=1)
    result = bench.run_pass(lib, lambda: 1e-3)
    assert len(result.records) == len(bench.GRID_N)
    assert not result.failed and not result.error


def test_bench_tracer_finds_every_layer(monkeypatch):
    # bench/tracing.py skips a name it cannot find without a word, and its
    # trial id reads run_trial's n and trial by position: a rename here
    # would drop a layer from the per-layer metrics
    tracing = _bench_tracing(monkeypatch)
    assert [attr for _, attr, *_ in tracing.targets(experiments, sdp)] == [
        "run_experiment", "emit_results", "run_trial", "draw_user_geometry",
        "synthesize_channels", "effective_channel", "link_gains",
        "form_clusters", "random_plan", "build_zf_beamformers",
        "allocate_power", "optimize_reflection", "solve", "_phase_one"]
    params = list(inspect.signature(experiments.run_trial).parameters)
    assert (params[3], params[5]) == ("n", "trial")


def _traced_trial(monkeypatch, methods, config=SystemConfig()):
    """The spans of one trial (seed 4243, N = 16) traced as the bench's
    --trace 1 pass traces it, after checking that the bench reads no error
    and no failed trial in them, and that tracing leaves the record as an
    untraced run gives it."""
    tracing = _bench_tracing(monkeypatch)
    tracer = tracing.Tracer()
    args = (config, methods, 4243, 16, 8, 0)
    with tracing.installed(tracer, experiments, sdp):
        traced = experiments.run_trial(*args)
    assert traced == run_trial(*args)
    assert not [span.name for span in tracer.spans if span.error]
    assert not tracing.failed_trials(tracer.spans)
    return tracer.spans


def test_bench_tracer_reads_a_traced_trial(monkeypatch):
    # an all-methods trial has a rising Stage-1 trace per call and one span
    # per call it makes (both plans' beams and gains in one call each); at
    # the 3 dB floor Stage 1 certifies neither plan, so Stage 2 never runs
    spans = _traced_trial(monkeypatch, list(METHODS))
    stage1 = [span for span in spans if span.layer == "power_allocation"]
    assert len(stage1) == 2 and all(span.attrs["trace_ok"] for span in stage1)
    assert collections.Counter(span.layer for span in spans) == {
        "experiments": 1, "channel": 4, "clustering": 2, "beamforming": 1,
        "power_allocation": 2}


def test_bench_tracer_reads_stage2_on_the_certified_plan_only(monkeypatch):
    # at -10 dB Stage 1 certifies this trial's main plan and not its random
    # plan, so Stage 2 runs once, on the main plan's split, and iterates
    cfg = dataclasses.replace(SystemConfig(), min_sinr=db_to_linear(-10.0))
    spans = _traced_trial(monkeypatch, list(METHODS), cfg)
    stage1 = [span.attrs["feasible"] for span in spans
              if span.layer == "power_allocation"]
    assert stage1 == [True, False]
    [stage2] = [span for span in spans if span.layer == "reflection"]
    assert stage2.attrs["iterations"] >= 1 and stage2.attrs["unit_ok"]


def test_bench_tracer_reads_a_traced_one_plan_trial(monkeypatch):
    # the no-reflection workload's methods stack one plan: one Stage-1 run
    # and no Stage 2
    spans = _traced_trial(monkeypatch, ["stage1-only", "conventional", "random-pac"])
    assert collections.Counter(span.layer for span in spans) == {
        "experiments": 1, "channel": 4, "clustering": 1, "beamforming": 1,
        "power_allocation": 1}


def test_stage1_methods_without_sdp_output_bytes_pinned(tmp_path):
    # the methods that run no SDP, at the reference scenario on a small
    # grid; their bytes do not depend on the BLAS thread count. At the 3 dB
    # floor every trial is Stage-1 infeasible, so stage1-only's CSV rows are
    # NA and convergence_stage1.csv is a header: the per-trial efficiencies
    # carry Stage 1's values into the digest. The records digest was
    # re-recorded when Stage 1 began searching the totals under the
    # decode-order weights; a change that moves these bytes on purpose
    # updates the digests.
    spec = ExperimentSpec(n_grid=[16, 32], m_grid=[8], num_trials=3,
                          methods=["stage1-only", "conventional", "random-pac"],
                          out_dir=str(tmp_path), seed=4243)
    records = run_experiment(SystemConfig(), spec)
    paths = emit_results(records, spec, SystemConfig())
    digests = {name: hashlib.sha256(pathlib.Path(paths[name]).read_bytes()).hexdigest()
               for name in ("summary.csv", "ici.csv", "convergence_stage1.csv")}
    lines = [f"{r.n},{r.m},{r.trial},{m},{r.ee[m]!r}"
             for r in records for m in sorted(r.ee)]
    digests["records"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digests == {
        "summary.csv": "c8869aef69d26c39b8fdac1a23e06c1c54a9c688bbedab73931da5bed418120d",
        "ici.csv": "d8ffe997ea9cd75fefd918de54d8c4c895841d48eb320baad40e2a0f27f7b132",
        "convergence_stage1.csv":
            "6ee76bf27592c48094df11b66a17a6a9f47c3a2c96c2d126f98fa3e8503fbd74",
        "records": "0bbf67a8e081dfd662dd9f47c8dbb2f84003a0c015e99244eb4dd143c34f105c",
    }


def test_all_methods_at_reference_floor_output_bytes_pinned(tmp_path):
    # at the 3 dB floor Stage 1 is infeasible on every draw, so proposed and
    # random-clustering record their plans' Stage-1 values and no Stage 2
    # runs: no method's bytes depend on the BLAS thread count.
    # The records digest was re-recorded when Stage 1 began searching the
    # totals under the decode-order weights; a change that moves these
    # bytes on purpose updates the digests
    spec = ExperimentSpec(n_grid=[16, 32], m_grid=[8], num_trials=3,
                          methods=list(METHODS), out_dir=str(tmp_path), seed=4243)
    records = run_experiment(SystemConfig(), spec)
    assert all(r.feasible == (False, False) for r in records)
    paths = emit_results(records, spec, SystemConfig())
    digests = {name: hashlib.sha256(pathlib.Path(paths[name]).read_bytes()).hexdigest()
               for name in ("summary.csv", "ici.csv", "convergence_stage1.csv",
                            "convergence_stage2.csv")}
    lines = [f"{r.n},{r.m},{r.trial},{m},{r.ee[m]!r},{r.ici[m]!r}"
             for r in records for m in sorted(r.ee)]
    digests["records"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    header = "6ee76bf27592c48094df11b66a17a6a9f47c3a2c96c2d126f98fa3e8503fbd74"
    assert digests == {
        "summary.csv": "b848662e9792a5817c7b24c35018e5715738b25b8f1671d38cddc3fcdda3c8da",
        "ici.csv": "a73e81872f15d4196ce7678377374d9dcbc7cc8251685a42e0eef2c7690ad6ed",
        "convergence_stage1.csv": header,
        "convergence_stage2.csv": header,
        "records": "ad6c2a0eb93eb19d137049390c7288afdcdd19acd49d30fee616089e6b09b955",
    }


def test_pinned_digests_hold_under_two_blas_threads():
    # every *_bytes_pinned digest holds under 1 and 2 BLAS threads. BLAS
    # reads its thread count when numpy loads, so the pins run again in a
    # fresh interpreter with two threads
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "bytes_pinned"],
        cwd=pathlib.Path(__file__).resolve().parents[1], env=env,
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:]
    assert re.search(r"\b8 passed\b", run.stdout), run.stdout[-3000:]
