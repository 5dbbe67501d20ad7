import dataclasses
import filecmp
import hashlib
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from irsnoma.channel import sinr
from irsnoma import experiments
from irsnoma.cli import main as cli_main
from irsnoma.config import SystemConfig, db_to_linear
from irsnoma.experiments import (METHODS, ExperimentSpec, TrialRecord, _LazyStream,
                                 _stream,
                                 conventional_bf_ee, emit_results,
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
        psi = np.einsum("ikj->ik", gains.cross_beam) * p - gains.own_beam * p
        rates = (cfg.bandwidth_hz / 2.0) * np.log2(
            1 + p * gains.own_beam / (psi + cfg.noise_power_w)).sum(axis=1)
        expected = float(np.sum(rates / (p + cfg.circuit_power_w)))
        assert ee == pytest.approx(expected, rel=1e-12)

    def test_single_user_mode_uses_strongest(self):
        cfg, _, _, _, _, gains = build_scenario(2)
        ee, _ = conventional_bf_ee(gains, cfg, "single-user")
        p = cfg.cluster_power_w
        psi = np.einsum("ikj->ik", gains.cross_beam) * p - gains.own_beam * p
        rates = cfg.bandwidth_hz * np.log2(
            1 + p * gains.own_beam[:, -1] / (psi[:, -1] + cfg.noise_power_w))
        expected = float(np.sum(rates / (p + cfg.circuit_power_w)))
        assert ee == pytest.approx(expected, rel=1e-12)

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
        # at -15 dB Stage 2 runs its Gaussian randomization on these draws;
        # random-clustering's values must not depend on whether proposed ran
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
        # at the 3 dB floor clustering never reaches its random fallback and
        # Stage 2 returns before it draws, so a five-method trial builds
        # only the channel, random-plan and random-pac generators
        for n in (16, 64):
            _, built = self._built_streams(SystemConfig(), list(METHODS),
                                           seed=4243, n=n, trials=4)
            assert built == [[0, 2, 3]] * 4

    def test_lazy_streams_draw_as_built_streams(self):
        # at -15 dB Stage 2 draws its Gaussian randomization wherever its
        # plan's Stage 1 is feasible, so the Stage-2 streams are built there,
        # and they draw what _stream(key, i) draws
        for key in ([1, 8, 8, 0], [4243, 64, 8, 3]):
            for index in (1, 4, 5):
                assert np.array_equal(_LazyStream(key, index).standard_normal(16),
                                      _stream(key, index).standard_normal(16))
        cfg = dataclasses.replace(SystemConfig(), min_sinr=db_to_linear(-15.0))
        methods = ["proposed", "random-clustering"]
        lazy, built = self._built_streams(cfg, methods, seed=1, n=8, trials=4)
        assert [(4 in indices, 5 in indices) for indices in built] == [
            (r.feasible, r.random_plan_feasible) for r in lazy]
        assert all(r.feasible for r in lazy)
        assert any(r.random_plan_feasible for r in lazy)
        with mock.patch.object(experiments, "_LazyStream", _stream):
            eager = [run_trial(cfg, methods, seed=1, n=8, m=8, trial=trial)
                     for trial in range(4)]

        def untimed(record):
            return dataclasses.replace(record, wall_stage1_s=0.0, wall_stage2_s=0.0)

        assert [untimed(r) for r in lazy] == [untimed(r) for r in eager]
        assert any(r.stage2_iterations for r in lazy)


class TestRunExperiment:
    def test_worker_count_does_not_change_records(self, tmp_path):
        # the process-pool path gives the serial path's records, in order;
        # only the measured wall times may differ
        cfg = small_config()
        spec = ExperimentSpec(n_grid=[4, 8], m_grid=[6], num_trials=2,
                              methods=list(METHODS),
                              out_dir=str(tmp_path), seed=7)

        def untimed(records):
            return [dataclasses.replace(r, wall_stage1_s=0.0, wall_stage2_s=0.0)
                    for r in records]

        serial = run_experiment(cfg, spec)
        pooled = run_experiment(cfg, dataclasses.replace(spec, workers=2))
        assert len(serial) == 4
        assert untimed(pooled) == untimed(serial)


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
        record = TrialRecord(n=8, m=6, trial=0, feasible=False)
        record.ee["conventional"] = 1.0
        paths = emit_results([record], spec, small_config())
        rows = pathlib.Path(paths["summary.csv"]).read_text().splitlines()
        assert rows[1] == "conventional,8,6,1,0,1,0"

    def test_stage1_method_on_infeasible_trial_is_na(self, tmp_path):
        spec = small_spec(tmp_path, methods=["stage1-only"], trials=1)
        record = TrialRecord(n=8, m=6, trial=0, feasible=False)
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
        assert [(r.feasible, r.random_plan_feasible) for r in records] == [
            (False, True), (True, False)]
        paths = emit_results(records, small_spec(tmp_path, methods=methods), cfg)
        for name, values in (("summary.csv", "ee"), ("ici.csv", "ici")):
            rows = pathlib.Path(paths[name]).read_text().splitlines()
            clustered = getattr(records[0], values)["random-clustering"]
            stage1 = getattr(records[1], values)["stage1-only"]
            assert rows[1] == f"random-clustering,8,6,{clustered:.12g},0,1,1", name
            assert rows[2] == f"stage1-only,8,6,{stage1:.12g},0,1,1", name

    def test_manifest_and_plot_script_written(self, tmp_path):
        cfg = small_config()
        spec = small_spec(tmp_path, methods=["conventional"], trials=1)
        records = run_experiment(cfg, spec)
        paths = emit_results(records, spec, cfg)
        manifest = pathlib.Path(paths["manifest.txt"]).read_text()
        assert "content_sha256" in manifest
        assert "num_irs_elements" in manifest
        assert os.path.exists(paths["plot_results.py"])

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
    # at the 3 dB floor Stage 1 is infeasible on every draw, so Stage 2
    # returns its start at once for proposed and random-clustering and
    # draws nothing: no method's bytes depend on the BLAS thread count.
    # The records digest was re-recorded when Stage 1 began searching the
    # totals under the decode-order weights; a change that moves these
    # bytes on purpose updates the digests
    spec = ExperimentSpec(n_grid=[16, 32], m_grid=[8], num_trials=3,
                          methods=list(METHODS), out_dir=str(tmp_path), seed=4243)
    records = run_experiment(SystemConfig(), spec)
    assert all(r.stage2_iterations == 0 for r in records)
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
    assert re.search(r"\b6 passed\b", run.stdout), run.stdout[-3000:]
