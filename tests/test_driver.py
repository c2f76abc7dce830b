import math

import numpy as np
import pytest

from mlsa import (BallMonitor, BoxProjection, GeometricCostModel, IdentityProjection,
                  ParameterSet, SyntheticGaussianFamily, default_theta0,
                  geometric_checkpoints, replication_counts, run)
from mlsa.driver import RunPlan, csv_header
from mlsa.families import LevelFamily

from conftest import CRITICAL_DEFAULT, SLOW_PINNED, make_scalar_family, make_slow_family


def reference_run(params, family, cost_model, projection, theta0, n_final, seed):
    """Scalar reference for run(): plain-Python schedule and one stream per iteration.

    Returns (theta_n, theta_bar_n, cost_n) after each iteration n.
    """
    p = params
    streams = np.random.SeedSequence(seed).spawn(n_final)
    theta = np.array(theta0, dtype=float)
    theta_bar, b_bar, K_bar, cost, out = np.zeros_like(theta), 0.0, 0.0, 0.0, []
    for n in range(1, n_final + 1):
        K = p.kappa_K * (p.phi + 1.0) * float(n) ** p.phi
        K_bar += K
        if p.regime == "slow":
            raw = math.log(p.kappa_s * K_bar ** (1.0 / (2 * p.alpha - p.beta + 1))) / math.log(p.M)
            s = max(math.floor(raw), 1)
        else:
            raw = (1.0 / p.alpha) * ((p.phi + 1) / 2.0) * math.log(n) / math.log(p.M)
            s = max(math.ceil(raw), 1)
        counts = replication_counts(p, s, K)
        z = family.ml_estimate(theta, counts, np.random.default_rng(streams[n - 1]))
        cost += sum(n_k * cost_model.level_cost(None, k) for k, n_k in enumerate(counts, 1))
        theta = projection(theta + float(n) ** (-p.psi) * z)
        b = float(n) ** p.rho
        theta_bar = (b_bar * theta_bar + b * theta) / (b_bar + b)
        b_bar += b
        out.append((theta, theta_bar, cost))
    return out


def test_first_step_is_linear_contraction(slow_params_pinned, cost_model):
    fam = make_scalar_family(H=-1.0, mu=0.0, noise=0.0)
    rec = run(slow_params_pinned, fam, cost_model, IdentityProjection(), [1.0], 1, (1,), 0)
    assert rec.theta_final[0] == pytest.approx(1.0 - 1.0, abs=0)  # gamma_1 = 1
    assert rec.theta_bar_final[0] == rec.theta_final[0]  # average starts at n = 1


def test_step_box_clamp(slow_params_pinned, cost_model):
    # H = 0 and mu = 1 push theta deterministically from 0.4 to 0.9
    fam = SyntheticGaussianFamily(theta_star=[0.0], H=[[0.0]], mu=[1.0],
                                  noise_factor=[[0.0]], alpha=1.0, beta=0.5, M=2.0)
    p = ParameterSet(**dict(SLOW_PINNED, kappa_s=1e-3))  # keeps s_1 = 1
    box = BoxProjection([-0.5], [0.5])
    rec = run(p, fam, cost_model, box, [0.4], 1, (1,), 0)
    assert rec.theta_final[0] == pytest.approx(0.5, abs=0)


def test_iteration_cost_arithmetic(critical_params):
    # kappa_K = 10/27 makes K_3 = 10 at s_3 = ceil(1.5 log2 3) = 3: counts (5, 3, 2)
    p = ParameterSet(**dict(CRITICAL_DEFAULT, kappa_K=10.0 / 27.0))
    plan = RunPlan(p, GeometricCostModel(kappa_C=1.0, M=2.0), 3)
    assert tuple(plan.counts[2]) == (5, 3, 2)
    assert plan.cost_inc[2] == 5 * 2 + 3 * 4 + 2 * 8  # = 38


def test_step_cost_matches_schedule(slow_params_pinned, cost_model):
    fam = make_scalar_family()
    counts = replication_counts(slow_params_pinned, 1, 3.0)  # s_1 = 1, K_1 = 3
    rec = run(slow_params_pinned, fam, cost_model, IdentityProjection(), [1.0], 1, (1,), 0)
    assert rec.cost_final == sum(n_k * cost_model.level_cost(None, k)
                                 for k, n_k in enumerate(counts, 1))


def test_run_is_deterministic(slow_params, slow_family, cost_model, identity):
    theta0 = default_theta0(slow_family)
    kw = dict(n_final=150, checkpoints=(10, 150), seed=987)
    a = run(slow_params, slow_family, cost_model, identity, theta0, **kw)
    b = run(slow_params, slow_family, cost_model, identity, theta0, **kw)
    assert rows(a) == rows(b)
    assert np.array_equal(a.theta_final, b.theta_final)


def test_zero_noise_contraction_bound(cost_model, identity):
    p = ParameterSet(**SLOW_PINNED)
    fam = make_scalar_family(H=-1.0, mu=0.0, noise=0.0)
    n = 10 ** 4
    rec = run(p, fam, cost_model, identity, [1.0], n, (n,), 0)
    # |theta_n| <= prod(1 - gamma_k) <= exp(-sum gamma_k), computed alongside
    gammas = np.arange(1, n + 1, dtype=float) ** -0.75
    bound = np.exp(np.sum(np.log1p(-np.minimum(gammas, 1 - 1e-16))))
    assert bound <= 1e-10
    assert abs(rec.theta_final[0]) <= max(bound, 1e-300) or abs(rec.theta_final[0]) <= 1e-10


def test_streaming_average_matches_direct_sum(slow_params, slow_family, cost_model, identity):
    n = 2000
    rec = run(slow_params, slow_family, cost_model, identity,
              default_theta0(slow_family), n, tuple(range(1, n + 1)), 4242)
    b = np.arange(1, n + 1, dtype=float) ** slow_params.rho
    thetas = np.stack([cp.theta for cp in rec.checkpoints])
    direct = (b[:, None] * thetas).sum(axis=0) / b.sum()
    np.testing.assert_allclose(rec.theta_bar_final, direct, rtol=1e-10)


def test_cost_strictly_increasing(slow_params, slow_family, cost_model, identity):
    rec = run(slow_params, slow_family, cost_model, identity,
              default_theta0(slow_family), 50, tuple(range(1, 51)), 7)
    costs = [cp.cost for cp in rec.checkpoints]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_default_config_average_improves(slow_params, cost_model, identity):
    fam = make_slow_family()
    theta0 = default_theta0(fam)
    d0 = np.linalg.norm(theta0 - fam.theta_star)
    improved = 0
    for seed in range(100):
        rec = run(slow_params, fam, cost_model, identity, theta0, 2000, (2000,), seed)
        if np.linalg.norm(rec.theta_bar_final - fam.theta_star) < d0:
            improved += 1
    assert improved >= 99


class _BlowUpFamily(LevelFamily):
    d = 1
    theta_star = np.zeros(1)

    def __init__(self, at):
        self.at = at
        self.calls = 0

    def sample_level_diff_batch(self, theta, k, size, rng):
        return np.stack([self.ml_estimate(theta, [1], rng)] * size)

    def ml_estimate(self, theta, counts, rng):
        self.calls += 1
        return np.array([np.inf]) if self.calls >= self.at else np.array([0.0])


def test_abort_flags_partial_record(slow_params, cost_model, identity):
    fam = _BlowUpFamily(at=5)
    rec = run(slow_params, fam, cost_model, identity, [1.0], 20, (3, 10), 0)
    assert rec.aborted
    assert rec.abort_iteration == 5
    assert not np.isfinite(rec.abort_z[0])
    assert [cp.n for cp in rec.checkpoints] == [3]  # only pre-abort checkpoints


def test_ball_monitor_tracks_previous_iterates(slow_params, cost_model, identity):
    fam = make_scalar_family(H=-0.5, mu=0.0, noise=0.0)  # theta_1 = 0.5 after gamma_1 = 1
    ball = BallMonitor(center=np.zeros(1), eps=0.05, n0=1)
    rec = run(slow_params, fam, cost_model, identity, [1.0], 30,
              tuple(range(1, 31)), 0, ball=ball)
    flags = [cp.in_ball for cp in rec.checkpoints]
    assert flags[0] is True  # no m in [n0, 0] yet
    assert all(f is False for f in flags[1:])  # theta_1 left; the restriction never resets
    ball_late = BallMonitor(center=np.zeros(1), eps=0.05, n0=25)
    rec2 = run(slow_params, fam, cost_model, identity, [1.0], 30,
               tuple(range(1, 31)), 0, ball=ball_late)
    assert rec2.checkpoints[-1].in_ball is True  # contraction done before n0


def test_geometric_checkpoints_shape():
    cps = geometric_checkpoints(500)
    assert cps[0] == 1 and cps[-1] == 500
    assert all(a < b for a, b in zip(cps, cps[1:]))


def test_run_matches_scalar_reference(slow_params, critical_params, cost_model):
    cases = [(slow_params, make_slow_family(), IdentityProjection()),
             (slow_params, make_slow_family(), BoxProjection([0.0, 0.0], [0.9, 0.9])),
             (critical_params, make_scalar_family(beta=1.0), IdentityProjection()),
             (critical_params, make_scalar_family(beta=1.0), BoxProjection([0.2], [1.5]))]
    for params, fam, proj in cases:
        theta0 = default_theta0(fam)
        # numpy's vectorised power may differ from libm pow by an ulp beyond n = 10
        # on some CPUs, so the bitwise check runs 10 iterations and a longer run
        # is held to a relative tolerance of a few hundred ulps
        for n_final, rtol in ((10, 0.0), (200, 1e-13)):
            ref = reference_run(params, fam, cost_model, proj, theta0, n_final, seed=55)
            rec = run(params, fam, cost_model, proj, theta0, n_final,
                      tuple(range(1, n_final + 1)), 55)
            for cp, (theta, theta_bar, cost) in zip(rec.checkpoints, ref, strict=True):
                np.testing.assert_allclose(cp.theta, theta, rtol=rtol, atol=0)
                np.testing.assert_allclose(cp.theta_bar, theta_bar, rtol=rtol, atol=0)
                assert cp.cost == cost  # integer-valued sums are exact in any order


def test_run_precomputed_plan_reuse(slow_params, slow_family, cost_model, identity):
    plan = RunPlan(slow_params, cost_model, 100)
    theta0 = default_theta0(slow_family)
    a = run(slow_params, slow_family, cost_model, identity, theta0, 100, (100,), 5, plan=plan)
    b = run(slow_params, slow_family, cost_model, identity, theta0, 100, (100,), 5)
    assert rows(a) == rows(b)


def test_run_rejects_bad_checkpoints(slow_params, slow_family, cost_model, identity):
    with pytest.raises(ValueError):
        run(slow_params, slow_family, cost_model, identity,
            default_theta0(slow_family), 10, (11,), 0)


def rows(rec):
    return [cp.csv_row() for cp in rec.checkpoints]


def test_record_serialization_roundtrip(slow_params, slow_family, cost_model, identity):
    rec = run(slow_params, slow_family, cost_model, identity,
              default_theta0(slow_family), 20, (10, 20), 3)
    assert csv_header(2) == ["n", "theta_0", "theta_1", "theta_bar_0", "theta_bar_1", "cost"]
    assert len(rows(rec)) == 2
    for cp, row in zip(rec.checkpoints, rows(rec)):
        assert row[0] == cp.n
        values = [float(v) for v in row[1:]]  # repr round-trips every float exactly
        assert values == list(cp.theta) + list(cp.theta_bar) + [cp.cost]
