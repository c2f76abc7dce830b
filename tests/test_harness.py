import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.special

from mlsa.cli import report_json
from mlsa.driver import BallMonitor, RunPlan, default_theta0, run
from mlsa.harness import (BLOCK, ReplicationSpec, block_seeds, clt_report, cost_curve,
                          kolmogorov_critical, ks_statistic, l2_monitor, normalized_sample_stats,
                          run_replicas)
from mlsa.params import ParameterSet, replication_counts

from conftest import CRITICAL_DEFAULT, make_scalar_family, make_slow_family, written_columns


def small_spec(R=4, n=50, seed=11, checkpoints=None):
    return ReplicationSpec(replicas=R, n_final=n,
                           checkpoints=tuple(checkpoints or (n // 2, n)),
                           master_seed=seed)


def test_replica_seed_streams_are_distinct():
    seeds = block_seeds(123, 150)  # 150 streams give ~1.1e4 pairs
    prefixes = set()
    for s in seeds:
        draws = np.random.default_rng(s).random(64)
        prefixes.add(draws.tobytes())
    assert len(prefixes) == 150


def test_block_j_runs_on_child_j_of_the_master_seed(slow_params, slow_family, cost_model,
                                                    identity):
    # the documented layout: block j draws from default_rng(SeedSequence(master_seed).spawn(n)[j])
    spec, theta0 = small_spec(R=BLOCK + 3, n=20), default_theta0(slow_family)
    record = run_replicas(spec, slow_params, slow_family, cost_model, identity, theta0)
    child = np.random.SeedSequence(spec.master_seed).spawn(2)[1]
    tail = run(RunPlan(slow_params, cost_model, spec.n_final), slow_family, identity, theta0,
               spec.checkpoints, child, replicas=3)
    assert np.array_equal(record.theta[:, BLOCK:], tail.theta)
    assert np.array_equal(record.theta_bar[:, BLOCK:], tail.theta_bar)


def test_run_replicas_deterministic_and_nondegenerate(slow_params, slow_family,
                                                      cost_model, identity):
    theta0 = default_theta0(slow_family)
    a = run_replicas(small_spec(), slow_params, slow_family, cost_model, identity, theta0)
    b = run_replicas(small_spec(), slow_params, slow_family, cost_model, identity, theta0)
    assert written_columns(a) == written_columns(b)
    finals = {tuple(row) for row in a.theta[-1]}
    assert len(finals) >= 2  # noise present: distinct seeds separate


def test_run_replicas_worker_count_invariance(slow_params, slow_family, cost_model, identity):
    # three blocks, the last one partial: each block runs whole on one worker
    theta0 = default_theta0(slow_family)
    spec = small_spec(R=2 * BLOCK + 3, n=50)
    runs = [run_replicas(spec, slow_params, slow_family, cost_model, identity, theta0,
                         workers=w) for w in (1, 2, 3)]
    assert runs[0].theta.shape[1] == 2 * BLOCK + 3
    assert written_columns(runs[0]) == written_columns(runs[1]) == written_columns(runs[2])


def test_kolmogorov_critical_against_scipy():
    # scipy's inverse stays the reference for the Newton solve on the series
    for alpha in [*np.geomspace(1e-10, 0.99, 40), 0.10, 0.05, 0.01, 0.005]:
        assert kolmogorov_critical(float(alpha)) == pytest.approx(
            float(scipy.special.kolmogi(alpha)), rel=1e-13, abs=0)
        assert scipy.special.kolmogorov(kolmogorov_critical(alpha)) == pytest.approx(alpha)
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError):
            kolmogorov_critical(alpha)


BLOCK_SCIPY = """
import importlib.abc, json, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, BlockScipy())
import numpy as np
import mlsa, mlsa.cli, mlsa.linear

cfg, out = sys.argv[1:]
codes = [mlsa.cli.main(argv) for argv in (["validate", cfg], ["predict", cfg],
                                          ["run", cfg, "--workers", "1", "--out", out],
                                          ["plot", out])]
with open(out + "/manifest.json") as fh:
    complete = json.load(fh)["complete"]
cm = mlsa.linear.ContractingMatrix(np.array([[-2.0, 1.5], [-0.5, -3.0]]), 0.5)
lyap = mlsa.linear.lyapunov_norm(cm)
gap, bound = mlsa.linear.exp_product_gap(cm, [0.05] * 40, 0, 40, lyap)
print(json.dumps({"codes": codes, "complete": complete, "eps0": lyap.eps0, "gap": gap,
                  "bound": bound, "scipy": sorted(m for m in sys.modules
                                                  if m.split(".")[0] == "scipy")}))
"""


def test_import_loads_neither_scipy_stats_nor_special(tmp_path):
    # a fresh interpreter: this test session has already imported scipy; the
    # process pool, too, is imported only by the run that opens one
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for module in ("mlsa", "mlsa.cli"):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                "or m == 'concurrent.futures'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]", module
    # every command and the criterion 7 functions, with any scipy import raising
    with open(os.path.join(os.path.dirname(__file__), "..", "configs",
                           "slow_default.json")) as fh:
        doc = json.load(fh)
    doc["replication"].update(replicas=4, n_final=60)
    cfg = tmp_path / "slow_cut.json"
    cfg.write_text(json.dumps(doc))
    out = subprocess.run([sys.executable, "-c", BLOCK_SCIPY, str(cfg), str(tmp_path / "run")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0] and result["complete"] is True
    assert result["eps0"] > 0.05 and 0 < result["gap"] <= result["bound"]
    assert result["scipy"] == []


def test_namespace_serves_the_setup_probe():
    # the benchmark's set-up probe reads the names the package namespace keeps
    root = os.path.join(os.path.dirname(__file__), "..")
    out = subprocess.run([sys.executable, os.path.join(root, "perfbench", "setup_probe.py"),
                          "--plan", os.path.join(root, "configs", "slow_default.json")],
                         env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) > 0  # the set-up time, in seconds


def test_ks_statistic_behaviour():
    rng = np.random.default_rng(0)
    good = rng.standard_normal(800)
    assert ks_statistic(good) < kolmogorov_critical(0.01) / np.sqrt(800)
    shifted = good + 0.5
    assert ks_statistic(shifted) > kolmogorov_critical(0.01) / np.sqrt(800)
    # scipy's normal CDF stays the reference, out to |x| = 8 in both tails
    for sample in (good, shifted, 3.0 * good, np.linspace(-8.0, 8.0, 401)):
        x = np.sort(sample)
        i, cdf = np.arange(1, len(x) + 1), scipy.special.ndtr(x)
        ref = max(np.max(i / len(x) - cdf), np.max(cdf - (i - 1) / len(x)))
        assert ks_statistic(sample) == pytest.approx(ref, rel=0, abs=1e-14)


def test_calibration_with_injected_normals():
    # with exact N(0, Sigma*) input the KS gate passes in >= 98 of 100 runs
    rng = np.random.default_rng(2718)
    target = np.array([[1.0]])
    passes = 0
    for _ in range(100):
        z = rng.standard_normal((1000, 1))
        if normalized_sample_stats(z, target, 0.01)["ks_pass"]:
            passes += 1
    assert passes >= 98


def test_calibration_frobenius_shrinks_with_replicas():
    rng = np.random.default_rng(99)
    target = np.array([[1.0, 0.3], [0.3, 1.0]])
    A = np.linalg.cholesky(target)

    def fro(R):
        vals = [normalized_sample_stats(rng.standard_normal((R, 2)) @ A.T, target,
                                        0.01)["frobenius_rel"] for _ in range(30)]
        return float(np.mean(vals))

    small, large = fro(250), fro(4000)
    assert large < 0.7 * small  # ~ R^-1/2 decay


def _record_for_report(slow_params, family, cost_model, identity, R=120, n=400, seed=5):
    spec = ReplicationSpec(replicas=R, n_final=n, checkpoints=(n,), master_seed=seed)
    return run_replicas(spec, slow_params, family, cost_model, identity,
                        default_theta0(family))


def test_clt_report_fields_and_purity(slow_params, cost_model, identity):
    fam = make_slow_family()
    record = _record_for_report(slow_params, fam, cost_model, identity)
    rep1 = clt_report(record, slow_params, fam, 400, divergence_radius=10.0)
    rep2 = clt_report(record, slow_params, fam, 400, divergence_radius=10.0)
    assert report_json(rep1) == report_json(rep2)  # pure function of its inputs
    assert rep1.replicas_screened == 120
    assert rep1.screened_fraction == 1.0
    assert not rep1.underpowered
    assert rep1.zeta.shape == (120, 2)
    assert 0.5 < rep1.cost_ratio < 1.5
    assert rep1.target_cov == pytest.approx(
        np.array([[1.0, 0.15], [0.15, 0.25]]), abs=1e-12)
    # slow regime: zeta centres theta_bar - theta* at the bias -eps_bias H^-1 mu
    shift = rep1.eps_bias * np.linalg.solve(fam.H, fam.mu)
    assert rep1.zeta == pytest.approx(
        (record.theta_bar[-1] - fam.theta_star + shift) / rep1.eps_diff, rel=1e-9)
    doc = json.loads(report_json(rep1))
    assert doc["inputs"]["divergence_radius"] == 10.0
    with pytest.raises(KeyError):  # not a checkpoint of the run: no neighbouring column
        clt_report(record, slow_params, fam, 399, divergence_radius=10.0)


def displaced(rec, replica, n, shift):
    """Copy of ``rec`` with one replica's iterate moved by ``shift`` from checkpoint ``n`` on."""
    theta = rec.theta.copy()
    theta[rec.ns >= n, replica] += shift
    return dataclasses.replace(rec, theta=theta)


def test_clt_report_screens_divergent(slow_params, cost_model, identity):
    fam = make_slow_family()
    spec = ReplicationSpec(replicas=30, n_final=400, checkpoints=(200, 400), master_seed=5)
    record = run_replicas(spec, slow_params, fam, cost_model, identity, default_theta0(fam))
    rep = clt_report(displaced(record, 0, 400, 100.0), slow_params, fam, 400,
                     divergence_radius=10.0)
    assert rep.replicas_total == 30
    assert rep.replicas_screened == 29
    assert rep.underpowered  # fewer than 100 survivors
    # screening reads the iterate at the reported checkpoint: a replica that
    # leaves the ball only after n = 200 still counts at n = 200
    late = clt_report(displaced(record, 0, 400, 100.0), slow_params, fam, 200,
                      divergence_radius=10.0)
    assert late.replicas_screened == 30
    early = clt_report(displaced(record, 0, 200, 100.0), slow_params, fam, 200,
                       divergence_radius=10.0)
    assert early.replicas_screened == 29


def test_reports_screen_overflowing_replicas_without_warnings(slow_params, cost_model, identity):
    # from n = 200, replica 0 sits at 2.2e303 and aborts later, and replica 1 stays
    # live at 8.1e206, outside the ball: their squared distances overflow to inf,
    # which screens them out (inf is not <= any radius) without a RuntimeWarning
    fam = make_slow_family()
    spec = ReplicationSpec(replicas=30, n_final=400, checkpoints=(200, 400), master_seed=5)
    ball = BallMonitor(center=fam.theta_star, eps=10.0, n0=1)
    record = run_replicas(spec, slow_params, fam, cost_model, identity, default_theta0(fam),
                          ball=ball)
    rec = displaced(displaced(record, 0, 200, 2.2e303), 1, 200, 8.1e206)
    in_ball = rec.in_ball.copy()
    in_ball[:, 1] = False
    rec = dataclasses.replace(rec, in_ball=in_ball, abort_iteration=np.array([300] + [0] * 29))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = clt_report(rec, slow_params, fam, 200, divergence_radius=10.0)
        monitor = l2_monitor(rec, slow_params, [(200, 200), (400, 400)])
    assert report.replicas_screened == 28 and np.isfinite(monitor.values).all()


def test_clt_report_rejects_zero_gamma(slow_params, cost_model, identity):
    fam = make_scalar_family(noise=0.0)
    record = _record_for_report(slow_params, fam, cost_model, identity, R=4, n=20)
    with pytest.raises(ValueError, match="Gamma"):
        clt_report(record, slow_params, fam, 20, divergence_radius=10.0)


def test_critical_report_centers_at_root(cost_model, identity):
    p = ParameterSet(**CRITICAL_DEFAULT)
    fam = make_scalar_family(H=-1.0, mu=0.05, gamma_var=1.0, beta=1.0)
    spec = ReplicationSpec(replicas=150, n_final=300, checkpoints=(300,), master_seed=3)
    record = run_replicas(spec, p, fam, cost_model, identity, default_theta0(fam))
    rep = clt_report(record, p, fam, 300, divergence_radius=10.0)
    assert rep.eps_bias is None
    assert rep.zeta.shape == (150, 1)


def test_l2_monitor_zero_noise_vanishes(slow_params, cost_model, identity):
    fam = make_scalar_family(H=-0.5, mu=0.0, noise=0.0)
    ball = BallMonitor(center=np.zeros(1), eps=2.0, n0=1)
    spec = ReplicationSpec(replicas=2, n_final=400, checkpoints=tuple(range(10, 401, 10)),
                           master_seed=0)
    record = run_replicas(spec, slow_params, fam, cost_model, identity, [1.0], ball=ball)
    assert record.ball is ball  # the record carries the monitor its flags track
    mon = l2_monitor(record, slow_params, [(10, 100), (300, 400)])
    assert (mon.epsilon, mon.n0) == (2.0, 1)
    assert not any(mon.flagged)
    assert mon.values[1] < mon.values[0] * 1e-3  # deterministic contraction
    assert mon.ratio == pytest.approx(mon.values[1] / mon.values[0])


def test_l2_monitor_requires_flags(slow_params, cost_model, identity):
    fam = make_scalar_family()
    spec = ReplicationSpec(replicas=2, n_final=40, checkpoints=(10, 20, 30, 40),
                           master_seed=0)
    record = run_replicas(spec, slow_params, fam, cost_model, identity, [1.0])
    assert record.ball is None and record.in_ball is None
    with pytest.raises(ValueError, match="ball"):
        l2_monitor(record, slow_params, [(10, 20), (30, 40)])


def test_l2_monitor_window_rules(slow_params, cost_model, identity):
    fam = make_scalar_family(H=-0.5, mu=0.0, noise=0.0)
    ball = BallMonitor(center=np.zeros(1), eps=0.01, n0=1)  # smaller than the transient
    spec = ReplicationSpec(replicas=2, n_final=200, checkpoints=tuple(range(5, 201, 5)),
                           master_seed=0)
    record = run_replicas(spec, slow_params, fam, cost_model, identity, [1.0], ball=ball)
    mon = l2_monitor(record, slow_params, [(5, 50), (100, 200)])
    assert all(mon.flagged)  # the excursion kills the from-n0-on restriction
    assert mon.ratio is None
    doc = json.loads(report_json(mon))
    assert doc["values"] == [None, None] and doc["ratio"] is None  # NaN is written as null
    with pytest.raises(ValueError, match="disjoint"):
        l2_monitor(record, slow_params, [(5, 50), (40, 60)])


def test_cost_curve_deterministic_rows(cost_model, identity):
    p = ParameterSet(**dict(CRITICAL_DEFAULT, kappa_K=10.0 / 3.0))
    fam = make_scalar_family(beta=1.0)
    spec = ReplicationSpec(replicas=2, n_final=8, checkpoints=(1, 2, 4, 8), master_seed=1)
    record = run_replicas(spec, p, fam, cost_model, identity, [0.5])
    rows = cost_curve(record, p)
    assert [r["n"] for r in rows] == [2, 4, 8]  # n = 1 has no critical prediction
    expected = 0.0
    for m, s in ((1, 1), (2, 2)):  # s_n = max(ceil(1.5 log2 n), 1)
        K = p.kappa_K * 3.0 * m ** 2
        expected += sum(n_k * cost_model.level_cost(k)
                        for k, n_k in enumerate(replication_counts(p, s, K)[0], 1))
    assert rows[0]["mean_cost"] == pytest.approx(expected, rel=1e-12)
    assert rows[0]["ratio"] == pytest.approx(rows[0]["mean_cost"] / rows[0]["predicted_cost"])
