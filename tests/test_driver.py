import csv
import io
import math

import numpy as np
import pytest

from mlsa import (BallMonitor, BoxProjection, EulerSdeFamily, GeometricCostModel,
                  IdentityProjection, ParameterSet, ReplicationSpec, SyntheticGaussianFamily,
                  default_theta0, geometric_checkpoints, run, run_replicas)
from mlsa.driver import RunPlan, csv_header
from mlsa.families import LevelFamily

from conftest import (CRITICAL_DEFAULT, SLOW_PINNED, make_scalar_family, make_slow_family,
                      reference_counts)


def synthetic_estimate(family, theta, counts, g):
    """One row's SyntheticGaussianFamily estimate from its (s, d) normals ``g``,
    with f and the noise factor applied in plain Python (unmodulated, no
    quadratic term)."""
    assert not family.modulated and family.Q is None
    s, d = len(counts), family.d
    coef = family.M ** (-family.beta * np.arange(1, s + 1) / 2.0) / np.sqrt(
        np.asarray(counts, dtype=float))
    v = coef @ g  # the level sum of this row's normals

    def apply(A, x):  # A @ x, column by column
        out = [x[0] * A[i, 0] for i in range(d)]
        for j in range(1, d):
            out = [out[i] + x[j] * A[i, j] for i in range(d)]
        return out

    e = [theta[i] - family.theta_star[i] for i in range(d)]
    f, noise = apply(family.H, e), apply(family.A, v)
    bias = family.M ** (-family.alpha * s)
    return np.array([f[i] + family.mu[i] * (1.0 * bias) + noise[i] for i in range(d)])


def reference_run(params, family, cost_model, projection, theta0, n_final, seed, replicas):
    """Plain-Python reference for run() on one block: a plain-Python schedule,
    the block's one stream default_rng(seed), one (replicas, s, d) draw per
    iteration, and every row stepped on its own.

    Returns, per row, the list of (theta_n, theta_bar_n, cost_n) after each
    iteration n.
    """
    p = params
    rng = np.random.default_rng(seed)
    thetas = [np.array(theta0, dtype=float)] * replicas
    bars = [np.zeros(family.d)] * replicas
    b_bar, K_bar, cost, out = 0.0, 0.0, 0.0, [[] for _ in range(replicas)]
    for n in range(1, n_final + 1):
        K = p.kappa_K * (p.phi + 1.0) * float(n) ** p.phi
        K_bar += K
        if p.regime == "slow":
            raw = math.log(p.kappa_s * K_bar ** (1.0 / (2 * p.alpha - p.beta + 1))) / math.log(p.M)
            s = max(math.floor(raw), 1)
        else:
            raw = (1.0 / p.alpha) * ((p.phi + 1) / 2.0) * math.log(n) / math.log(p.M)
            s = max(math.ceil(raw), 1)
        counts = reference_counts(p, s, K)
        g = rng.standard_normal((replicas, s, family.d))
        cost += sum(n_k * cost_model.level_cost(k) for k, n_k in enumerate(counts, 1))
        b = float(n) ** p.rho
        for r in range(replicas):
            z = synthetic_estimate(family, thetas[r], counts, g[r])
            thetas[r] = projection(thetas[r] + float(n) ** (-p.psi) * z)
            bars[r] = (b_bar * bars[r] + b * thetas[r]) / (b_bar + b)
            out[r].append((thetas[r], bars[r], cost))
        b_bar += b
    return out


def per_iteration_stream_run(family, plan, theta0, n_final, stream):
    """The earlier stream layout, kept as an in-law reference: one replica
    alone, iteration n drawing from default_rng(stream.spawn(n_final)[n-1])."""
    theta, bar, b_bar = np.array(theta0, dtype=float), np.zeros(family.d), 0.0
    for i, child in enumerate(stream.spawn(n_final)):
        counts = plan.counts[i, :plan.s[i]]
        z = family.ml_estimate(theta[None], counts, np.random.default_rng(child))[0]
        theta = theta + plan.gamma[i] * z
        bar = (b_bar * bar + plan.b[i] * theta) / (b_bar + plan.b[i])
        b_bar += plan.b[i]
    return bar


def test_first_step_is_linear_contraction(slow_params_pinned, cost_model):
    fam = make_scalar_family(H=-1.0, mu=0.0, noise=0.0)
    rec = run(RunPlan(slow_params_pinned, cost_model, 1), fam, IdentityProjection(), [1.0],
              (1,), 0)
    assert rec.theta[-1, 0, 0] == pytest.approx(1.0 - 1.0, abs=0)  # gamma_1 = 1
    assert rec.theta_bar[-1, 0, 0] == rec.theta[-1, 0, 0]  # average starts at n = 1


def test_step_box_clamp(slow_params_pinned, cost_model):
    # H = 0 and mu = 1 push theta deterministically from 0.4 to 0.9
    fam = SyntheticGaussianFamily(theta_star=[0.0], H=[[0.0]], mu=[1.0],
                                  noise_factor=[[0.0]], alpha=1.0, beta=0.5, M=2.0)
    p = ParameterSet(**dict(SLOW_PINNED, kappa_s=1e-3))  # keeps s_1 = 1
    box = BoxProjection([-0.5], [0.5])
    rec = run(RunPlan(p, cost_model, 1), fam, box, [0.4], (1,), 0)
    assert rec.theta[-1, 0, 0] == pytest.approx(0.5, abs=0)


def test_iteration_cost_arithmetic(critical_params):
    # kappa_K = 10/27 makes K_3 = 10 at s_3 = ceil(1.5 log2 3) = 3: counts (5, 3, 2)
    p = ParameterSet(**dict(CRITICAL_DEFAULT, kappa_K=10.0 / 27.0))
    plan = RunPlan(p, GeometricCostModel(kappa_C=1.0, M=2.0), 3)
    assert tuple(plan.counts[2]) == (5, 3, 2)
    assert plan.cost_inc[2] == 5 * 2 + 3 * 4 + 2 * 8  # = 38


def test_step_cost_matches_schedule(slow_params_pinned, cost_model):
    fam = make_scalar_family()
    counts = reference_counts(slow_params_pinned, 1, 3.0)  # s_1 = 1, K_1 = 3
    rec = run(RunPlan(slow_params_pinned, cost_model, 1), fam, IdentityProjection(), [1.0],
              (1,), 0)
    assert rec.cost[-1] == sum(n_k * cost_model.level_cost(k)
                                 for k, n_k in enumerate(counts, 1))


def test_run_is_deterministic(slow_params, slow_family, cost_model, identity):
    theta0 = default_theta0(slow_family)
    plan = RunPlan(slow_params, cost_model, 150)
    a = run(plan, slow_family, identity, theta0, (10, 150), 987)
    b = run(plan, slow_family, identity, theta0, (10, 150), 987)
    assert a.csv_rows() == b.csv_rows()
    assert np.array_equal(a.theta[-1], b.theta[-1])


def test_zero_noise_contraction_bound(cost_model, identity):
    p = ParameterSet(**SLOW_PINNED)
    fam = make_scalar_family(H=-1.0, mu=0.0, noise=0.0)
    n = 10 ** 4
    rec = run(RunPlan(p, cost_model, n), fam, identity, [1.0], (n,), 0)
    # |theta_n| <= prod(1 - gamma_k) <= exp(-sum gamma_k), computed alongside
    gammas = np.arange(1, n + 1, dtype=float) ** -0.75
    bound = np.exp(np.sum(np.log1p(-np.minimum(gammas, 1 - 1e-16))))
    assert bound <= 1e-10
    assert abs(rec.theta[-1, 0, 0]) <= max(bound, 1e-300) or abs(rec.theta[-1, 0, 0]) <= 1e-10


def test_streaming_average_matches_direct_sum(slow_params, slow_family, cost_model, identity):
    n = 2000
    rec = run(RunPlan(slow_params, cost_model, n), slow_family, identity,
              default_theta0(slow_family), tuple(range(1, n + 1)), 4242)
    b = np.arange(1, n + 1, dtype=float) ** slow_params.rho
    direct = (b[:, None] * rec.theta[:, 0]).sum(axis=0) / b.sum()
    np.testing.assert_allclose(rec.theta_bar[-1, 0], direct, rtol=1e-10)


def test_cost_strictly_increasing(slow_params, slow_family, cost_model, identity):
    rec = run(RunPlan(slow_params, cost_model, 50), slow_family, identity,
              default_theta0(slow_family), tuple(range(1, 51)), 7)
    assert np.all(np.diff(rec.cost) > 0)


def test_default_config_average_improves(slow_params, cost_model, identity):
    fam = make_slow_family()
    theta0 = default_theta0(fam)
    d0 = np.linalg.norm(theta0 - fam.theta_star)
    rec = run(RunPlan(slow_params, cost_model, 2000), fam, identity, theta0, (2000,), 0,
              replicas=100)
    improved = np.sum(np.linalg.norm(rec.theta_bar[-1] - fam.theta_star, axis=1) < d0)
    assert improved >= 99


class _BlowUpFamily(LevelFamily):
    d = 1
    theta_star = np.zeros(1)

    def __init__(self, at):
        self.at = at
        self.calls = 0

    def sample_level_diff_batch(self, theta, k, size, rng):
        return np.zeros((size, 1))

    def ml_estimate(self, theta, counts, rng):
        self.calls += 1
        return np.full(np.shape(theta), np.inf if self.calls >= self.at else 0.0)


def test_abort_flags_partial_record(slow_params, cost_model, identity):
    fam = _BlowUpFamily(at=5)
    rec = run(RunPlan(slow_params, cost_model, 20), fam, identity, [1.0], (3, 10), 0)
    assert rec.aborted[0]
    assert rec.abort_iteration[0] == 5
    assert [row[:2] for row in rec.csv_rows()] == [[0, 3]]  # only pre-abort checkpoints


def test_ball_monitor_tracks_previous_iterates(slow_params, cost_model, identity):
    fam = make_scalar_family(H=-0.5, mu=0.0, noise=0.0)  # theta_1 = 0.5 after gamma_1 = 1
    ball = BallMonitor(center=np.zeros(1), eps=0.05, n0=1)
    plan = RunPlan(slow_params, cost_model, 30)
    rec = run(plan, fam, identity, [1.0], tuple(range(1, 31)), 0, ball=ball)
    flags = rec.in_ball[:, 0]
    assert flags[0]  # no m in [n0, 0] yet
    assert not flags[1:].any()  # theta_1 left; the restriction never resets
    ball_late = BallMonitor(center=np.zeros(1), eps=0.05, n0=25)
    rec2 = run(plan, fam, identity, [1.0], tuple(range(1, 31)), 0, ball=ball_late)
    assert rec2.in_ball[-1, 0]  # contraction done before n0


def test_geometric_checkpoints_shape():
    cps = geometric_checkpoints(500)
    assert cps[0] == 1 and cps[-1] == 500
    assert all(a < b for a, b in zip(cps, cps[1:]))


def test_run_matches_scalar_reference(slow_params, critical_params, cost_model):
    cases = [(slow_params, make_slow_family(), IdentityProjection()),
             (slow_params, make_slow_family(), BoxProjection([0.0, 0.0], [0.9, 0.9])),
             (critical_params, make_scalar_family(beta=1.0), IdentityProjection()),
             (critical_params, make_scalar_family(beta=1.0), BoxProjection([0.2], [1.5]))]
    replicas = 9  # enough rows that a BLAS product would group some differently
    for params, fam, proj in cases:
        theta0 = default_theta0(fam)
        # numpy's vectorised power may differ from libm pow by an ulp beyond n = 10
        # on some CPUs, so the bitwise check runs 10 iterations and a longer run
        # is held to a relative tolerance of a few hundred ulps
        for n_final, rtol in ((10, 0.0), (200, 1e-13)):
            ref = reference_run(params, fam, cost_model, proj, theta0, n_final, 55, replicas)
            rec = run(RunPlan(params, cost_model, n_final), fam, proj, theta0,
                      tuple(range(1, n_final + 1)), 55, replicas=replicas)
            assert len(ref) == rec.theta.shape[1]
            for r, ref_rows in enumerate(ref):
                assert len(ref_rows) == len(rec.ns)
                for j, (theta, theta_bar, cost) in enumerate(ref_rows):
                    np.testing.assert_allclose(rec.theta[j, r], theta, rtol=rtol, atol=0)
                    np.testing.assert_allclose(rec.theta_bar[j, r], theta_bar, rtol=rtol, atol=0)
                    assert rec.cost[j] == cost  # integer-valued sums are exact in any order


def test_block_streams_match_per_iteration_streams_in_law(slow_params, cost_model, identity):
    from scipy.stats import ks_2samp

    fam, R, n = make_slow_family(), 400, 200
    theta0 = default_theta0(fam)
    plan = RunPlan(slow_params, cost_model, n)
    spec = ReplicationSpec(replicas=R, n_final=n, checkpoints=(n,), master_seed=1)
    block = run_replicas(spec, slow_params, fam, cost_model, identity, theta0).theta_bar[-1]
    old = np.stack([per_iteration_stream_run(fam, plan, theta0, n, stream)
                    for stream in np.random.SeedSequence(2).spawn(R)])
    for j in range(fam.d):
        assert ks_2samp(block[:, j], old[:, j]).pvalue > 0.01


def test_aborted_row_leaves_other_rows_unchanged(slow_params, cost_model):
    cases = [(make_slow_family(), [1e308, 1e308]),  # H e overflows at n = 1
             (EulerSdeFamily(drift=0.05, diffusion=0.2, target=1.0), [np.inf])]
    for fam, blow_up in cases:
        theta0 = np.tile(default_theta0(fam), (4, 1))
        args = (RunPlan(slow_params, cost_model, 12), fam, IdentityProjection())
        calm = run(*args, theta0, (3, 12), 8, replicas=4)
        theta0[1] = blow_up
        mixed = run(*args, theta0, (3, 12), 8, replicas=4)
        assert mixed.abort_iteration.tolist() == [0, 1, 0, 0]
        assert [row[:2] for row in calm.csv_rows()] == [[r, n] for r in range(4) for n in (3, 12)]
        # the aborted replica writes no row; the others write exactly what they did alone
        assert mixed.csv_rows() == [row for row in calm.csv_rows() if row[0] != 1]


def test_run_rejects_bad_checkpoints(slow_params, slow_family, cost_model, identity):
    with pytest.raises(ValueError):
        run(RunPlan(slow_params, cost_model, 10), slow_family, identity,
            default_theta0(slow_family), (11,), 0)


def test_record_serialization_roundtrip(slow_params, slow_family, cost_model, identity):
    rec = run(RunPlan(slow_params, cost_model, 20), slow_family, identity,
              default_theta0(slow_family), (10, 20), 3)
    assert csv_header(2) == ["n", "theta_0", "theta_1", "theta_bar_0", "theta_bar_1", "cost"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rec.csv_rows())
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert [row[:2] for row in rows] == [["0", "10"], ["0", "20"]]
    for row in rows:
        r, j = int(row[0]), list(rec.ns).index(int(row[1]))
        values = [float(v) for v in row[2:]]  # csv writes every float as its exact repr
        assert values == list(rec.theta[j, r]) + list(rec.theta_bar[j, r]) + [rec.cost[j]]
