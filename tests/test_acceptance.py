"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is deterministic given the seeds fixed here.
"""

import math
import time

import numpy as np
import pytest

from mlsa import (BallMonitor, ContractingMatrix, GeometricCostModel,
                  IdentityProjection, ParameterSet, ReplicationSpec,
                  averaged_operator, clt_report, cost_curve, default_theta0,
                  exp_product_gap, l2_monitor, linear_iterate, lyapunov_norm,
                  oracle_eps_bias, oracle_eps_diff, predict_critical, predict_slow,
                  psi, run_replicas, spectral_abscissa)
from mlsa.harness import block_seeds

from conftest import (CRITICAL_DEFAULT, CRITICAL_PINNED, SLOW_DEFAULT, SLOW_PINNED,
                      make_scalar_family, make_slow_family)

WORKERS = 2


def report(k, elapsed, budget, msg):
    line = f"ACCEPTANCE {k}: PASS ({elapsed:.1f}s < {budget:.0f}s) - {msg}"
    print(line, flush=True)
    assert elapsed < budget, line


@pytest.fixture(scope="module")
def slow_clt(cost_model_mod, identity_mod):
    params = ParameterSet(**SLOW_DEFAULT)
    family = make_slow_family()
    spec = ReplicationSpec(replicas=1000, n_final=4000, checkpoints=(4000,),
                           master_seed=20240501)
    t0 = time.perf_counter()
    record = run_replicas(spec, params, family, cost_model_mod, identity_mod,
                          default_theta0(family), workers=WORKERS)
    return params, family, record, time.perf_counter() - t0


@pytest.fixture(scope="module")
def critical_clt(cost_model_mod, identity_mod):
    params = ParameterSet(**CRITICAL_DEFAULT)
    family = make_scalar_family(H=-1.0, mu=0.05, gamma_var=1.0, beta=1.0)
    spec = ReplicationSpec(replicas=1000, n_final=4000, checkpoints=(4000,),
                           master_seed=20240502)
    t0 = time.perf_counter()
    record = run_replicas(spec, params, family, cost_model_mod, identity_mod,
                          default_theta0(family), workers=WORKERS)
    return params, family, record, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cost_model_mod():
    return GeometricCostModel(kappa_C=1.0, M=2.0)


@pytest.fixture(scope="module")
def identity_mod():
    return IdentityProjection()


def test_criterion_01_psi_periodicity():
    t0 = time.perf_counter()
    us = np.linspace(0.2, 3.0, 10)
    gaps = np.linspace(0.1, 2.5, 6)  # u - v
    Ms = [1.5, 2.0, 3.0, 4.0, 6.0]
    count = 0
    worst = 0.0
    for u in us:
        for g in gaps:
            v = u - g
            if abs(u + v) < 1e-9:
                v -= 1e-3
            for M in Ms:
                a, b = psi(u, v, M, 1.0), psi(u, v, M, 0.0)
                worst = max(worst, abs(a / b - 1.0))
                count += 1
    assert count == 300
    assert worst <= 1e-12
    report(1, time.perf_counter() - t0, 1.0,
           f"psi(1)=psi(0) on {count} grid points, worst rel err {worst:.2e}")


def test_criterion_02_slow_formula_vs_oracle():
    t0 = time.perf_counter()
    params = ParameterSet(**SLOW_PINNED)  # alpha=1 beta=.5 M=2 phi=rho=2 psi=.75 kK=ks=1
    n = 10 ** 6
    pred = predict_slow(params, n)
    rb = pred.eps_bias / oracle_eps_bias(params, n)
    rd = pred.eps_diff / oracle_eps_diff(params, n)
    assert 0.98 <= rb <= 1.02
    assert 0.98 <= rd <= 1.02
    report(2, time.perf_counter() - t0, 10.0,
           f"bias ratio {rb:.5f}, diff ratio {rd:.5f} at n=1e6")


def test_criterion_03_critical_formula_vs_oracle():
    t0 = time.perf_counter()
    params = ParameterSet(**CRITICAL_PINNED)  # alpha=1 M=2 phi=rho=2 psi=.8 kK=1
    n = 10 ** 6
    ratio = predict_critical(params, n).eps_diff / oracle_eps_diff(params, n)
    assert 0.98 <= ratio <= 1.02
    report(3, time.perf_counter() - t0, 10.0, f"diff ratio {ratio:.5f} at n=1e6")


def test_criterion_04_cost_law_both_regimes(cost_model_mod, identity_mod):
    t0 = time.perf_counter()
    n = 10 ** 4
    ratios = {}
    for name, cfg, fam in (
            ("slow", SLOW_DEFAULT, make_slow_family()),
            ("critical", CRITICAL_DEFAULT,
             make_scalar_family(H=-1.0, mu=0.05, gamma_var=1.0, beta=1.0))):
        params = ParameterSet(**cfg)
        spec = ReplicationSpec(replicas=2, n_final=n, checkpoints=(n,), master_seed=7)
        record = run_replicas(spec, params, fam, cost_model_mod, identity_mod,
                              default_theta0(fam))
        row = cost_curve(record, params)[-1]
        ratios[name] = row["ratio"]
        assert 0.9 <= row["ratio"] <= 1.1, name
    report(4, time.perf_counter() - t0, 60.0,
           f"cost ratios slow {ratios['slow']:.4f}, critical {ratios['critical']:.4f}")


def test_criterion_05_slow_regime_clt(slow_clt):
    params, family, record, elapsed = slow_clt
    t0 = time.perf_counter()
    rep = clt_report(record, params, family, 4000, divergence_radius=10.0)
    elapsed += time.perf_counter() - t0
    assert rep.screened_fraction >= 0.99
    assert rep.frobenius_rel <= 0.15
    assert float(np.linalg.norm(rep.mean)) <= 0.15
    assert rep.ks_pass
    report(5, elapsed, 600.0,
           f"R={rep.replicas_screened}, frobenius {rep.frobenius_rel:.4f}, "
           f"|mean| {np.linalg.norm(rep.mean):.4f}, "
           f"KS {np.max(rep.ks_stats):.4f} < {rep.ks_critical:.4f}")


def test_criterion_06_critical_regime_clt(critical_clt):
    params, family, record, elapsed = critical_clt
    t0 = time.perf_counter()
    rep = clt_report(record, params, family, 4000, divergence_radius=10.0)
    elapsed += time.perf_counter() - t0
    var_ratio = float(rep.cov[0, 0] / rep.target_cov[0, 0])
    assert abs(var_ratio - 1.0) <= 0.15
    assert rep.ks_pass
    report(6, elapsed, 600.0,
           f"R={rep.replicas_screened}, var ratio {var_ratio:.4f}, "
           f"KS {float(rep.ks_stats[0]):.4f} < {rep.ks_critical:.4f}")


def test_criterion_07_linear_machinery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(714)

    def draw_contracting(margin=1.0):
        d = int(rng.integers(1, 5))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = -rng.uniform(1.0, 2.5, d)
        H = Q @ np.diag(lam) @ Q.T + 0.25 * rng.standard_normal((d, d))
        ab = spectral_abscissa(H)
        if ab > -margin - 0.05:
            H -= (ab + margin + 0.05) * np.eye(d)
        return H

    # (a) Lyapunov grid check on 20 random contracting matrices
    for _ in range(20):
        H = draw_contracting()
        cm = ContractingMatrix(H, 0.8)
        ly = lyapunov_norm(cm)  # grid-verifies the contraction bound internally
        for eps in np.linspace(0, ly.eps0, 100):
            gap = ly.norm_mat(np.eye(H.shape[0]) + eps * H) - (1 - eps * cm.L)
            assert gap <= 1e-10

    # (b) exponential-vs-product bound dominates in 50/50 draws
    wins = 0
    for _ in range(50):
        H = draw_contracting()
        cm = ContractingMatrix(H, 0.8)
        ly = lyapunov_norm(cm)
        c = 0.9 * ly.eps0
        r = int(rng.integers(0, 6))
        m = r + int(rng.integers(1, 40))
        actual, bound = exp_product_gap(cm, lambda n, c=c: c * n ** -0.6, r, m, lyap=ly)
        wins += int(actual <= bound)
    assert wins == 50

    # (c) averaged-operator limit at (l, n) = (200, 2e4), standard test schedules
    gamma = lambda k: k ** (-1.0 / 3.0)
    weights = lambda k: 1.0
    worst = abs(averaged_operator(np.array([[-1.0]]), gamma, weights, 200, 20000)[0, 0] - 1.0)
    for _ in range(5):
        H = draw_contracting()
        err = np.linalg.norm(
            averaged_operator(H, gamma, weights, 200, 20000) + np.linalg.inv(H), 2)
        worst = max(worst, err)
    assert worst <= 0.05
    report(7, time.perf_counter() - t0, 60.0,
           f"20 Lyapunov grids, 50/50 bound dominations, Hbar error {worst:.4f} <= 0.05")


def test_criterion_08_linear_averaging_limits():
    t0 = time.perf_counter()
    n = 10 ** 5
    idx = np.arange(1, n + 1, dtype=float)
    gamma, b = idx ** -0.5, idx ** 2.0
    delta = idx ** -0.3
    mu = 1.0
    _, theta_bar = linear_iterate(np.array([[-1.0]]), gamma, b,
                                  lambda k: np.array([delta[k - 1] * mu]), n)
    norm = float(np.sum(b * delta) / np.sum(b))
    part1 = theta_bar[0] / norm
    assert abs(part1 - mu) <= 0.03 * mu  # -H^-1 mu = mu

    R = 2000
    rng = np.random.default_rng(20240508)
    _, bars = linear_iterate(np.array([[-1.0]]), gamma, b,
                             lambda k: delta[k - 1] * rng.standard_normal((R, 1)), n,
                             theta0=np.zeros((R, 1)))
    sigma = math.sqrt(float(np.sum((b * delta) ** 2))) / float(np.sum(b))
    var = float(np.var(bars[:, 0] / sigma, ddof=1))
    assert abs(var - 1.0) <= 0.10  # H^-2 Gamma = 1
    report(8, time.perf_counter() - t0, 120.0,
           f"drift limit ratio {part1:.4f}, replica variance {var:.4f}")


def test_criterion_09_l2_bound_monitor(cost_model_mod, identity_mod):
    t0 = time.perf_counter()
    params = ParameterSet(**SLOW_DEFAULT)
    family = make_slow_family()
    theta0 = default_theta0(family)
    cps = tuple(range(500, 1001, 10)) + tuple(range(4000, 8001, 50))
    spec = ReplicationSpec(replicas=500, n_final=8000, checkpoints=cps,
                           master_seed=20240509)
    ball = BallMonitor(center=family.theta_star, eps=0.25, n0=100)
    record = run_replicas(spec, params, family, cost_model_mod, identity_mod,
                          theta0, workers=WORKERS, ball=ball)
    mon = l2_monitor(record, params, family.theta_star, 0.25, 100,
                     [(500, 1000), (4000, 8000)])
    assert not any(mon.flagged)
    assert mon.ratio is not None and mon.ratio <= 2.0
    report(9, time.perf_counter() - t0, 300.0,
           f"windowed L2 ratio {mon.ratio:.4f} <= 2 "
           f"(values {mon.values[0]:.3f} -> {mon.values[1]:.3f})")


def test_criterion_10_determinism(cost_model_mod, identity_mod):
    t0 = time.perf_counter()
    params = ParameterSet(**SLOW_DEFAULT)
    family = make_slow_family()
    theta0 = default_theta0(family)
    spec = ReplicationSpec(replicas=40, n_final=400, checkpoints=(200, 400),
                           master_seed=31415)

    def artifacts(workers):
        record = run_replicas(spec, params, family, cost_model_mod, identity_mod,
                              theta0, workers=workers)
        rep = clt_report(record, params, family, 400, divergence_radius=10.0)
        curve = cost_curve(record, params)
        rows = record.csv_rows()
        return rows, rep.to_json(), curve

    a1 = artifacts(1)
    a2 = artifacts(1)
    a3 = artifacts(2)
    assert a1 == a2 == a3
    # seed streams themselves are reproducible objects
    assert [s.spawn_key for s in block_seeds(31415, 5)] == [
        s.spawn_key for s in block_seeds(31415, 5)]
    report(10, time.perf_counter() - t0, 120.0,
           "records, CLT report and cost table bitwise identical across reruns "
           "and worker counts")
