import csv
import io
import itertools
import math
import pickle
import threading
import time
import warnings

import numpy as np
import pytest

from mlsa import (BallMonitor, BoxProjection, EulerSdeFamily, GeometricCostModel,
                  IdentityProjection, ParameterSet, ReplicationSpec, SyntheticGaussianFamily,
                  default_theta0, geometric_checkpoints, replication_counts, run,
                  run_replicas)
from mlsa.driver import RunPlan, csv_header, csv_lines
from mlsa.families import LevelFamily

from conftest import (CRITICAL_DEFAULT, GAMMA2, SLOW_PINNED, estimate, make_scalar_family,
                      make_slow_family, reference_counts)


def synthetic_estimate(family, theta, counts, g):
    """One row's SyntheticGaussianFamily estimate from its (s, d) normals ``g``,
    with f and the noise factor applied in plain Python and the level scale
    built by the expression the family's memo replaced."""
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
    return np.array([f[i] + family.mu[i] * bias + noise[i] for i in range(d)])


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
        z = estimate(family, theta[None], counts, np.random.default_rng(child))[0]
        theta = theta + plan.gamma[i] * z
        bar = (b_bar * bar + plan.b[i] * theta) / (b_bar + plan.b[i])
        b_bar += plan.b[i]
    return bar


def parent_noise(family, counts, g):
    """A SyntheticGaussianFamily iteration's noise term from its (R, s, d) normals
    ``g``, by the per-iteration expression the chunked draw replaced."""
    s = len(counts)
    coef = family.M ** (-family.beta * np.arange(1, s + 1) / 2.0) / np.sqrt(counts)
    v = coef @ g
    out = v[:, :1] * family.A[:, 0]
    for j in range(1, family.d):
        out = out + v[:, j:j + 1] * family.A[:, j]
    return out


def parent_run(plan, family, projection, theta0, checkpoints, seed, replicas, ball=None):
    """The per-iteration loop that run() replaced, on the same RunPlan arrays: the
    ball tested before each step, one ml_estimate per iteration and, for the
    synthetic family, one (replicas, s, d) draw per iteration.  Its abort test
    reads the average, as run()'s does.  Returns (theta, theta_bar, in_ball,
    abort_iteration) with run()'s record layout."""
    ns = sorted(set(checkpoints))
    rng = np.random.default_rng(seed)
    theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float), (replicas, family.d)))
    theta_bar, b_bar = np.zeros_like(theta), 0.0
    live, in_ball = np.ones(replicas, dtype=bool), np.ones(replicas, dtype=bool)
    abort_iteration = np.zeros(replicas, dtype=np.int64)
    rec = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(plan.n_final):
            n, counts = i + 1, plan.counts[i, :plan.s[i]]
            if ball is not None and n - 1 >= ball.n0:
                in_ball &= np.linalg.norm(theta - ball.center, axis=1) <= ball.eps
            if isinstance(family, SyntheticGaussianFamily):
                g = rng.standard_normal((replicas, len(counts), family.d))
                z = (family.f(theta) + family.mu * family.M ** (-family.alpha * len(counts))
                     + parent_noise(family, counts, g))
            else:
                z = family.ml_estimate(theta, counts, rng)
            theta_new = projection(theta + plan.gamma[i] * z)
            b_bar_new = b_bar + plan.b[i]
            bar_new = (b_bar * theta_bar + plan.b[i] * theta_new) / b_bar_new
            failed = live & ~np.isfinite(bar_new).all(axis=1)
            abort_iteration[failed] = n
            live &= ~failed
            theta = np.where(live[:, None], theta_new, theta)
            theta_bar = np.where(live[:, None], bar_new, theta_bar)
            b_bar = b_bar_new
            if n in ns:
                rec.append((theta, theta_bar, in_ball.copy()))
    theta, theta_bar, flags = (np.array(x) for x in zip(*rec))
    return theta, theta_bar, flags if ball is not None else None, abort_iteration


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


def test_aborted_row_stays_frozen(slow_params, cost_model, identity):
    # H = 1 repels: 1e308 overflows at n = 1 (gamma_1 = 1) but would step to a
    # finite 1.7e308 at n = 2 (gamma_2 = 2^-0.5), so only the freeze keeps it
    fam = make_scalar_family(H=1.0, mu=0.0, noise=1e-3)
    rec = run(RunPlan(slow_params, cost_model, 6), fam, identity, [[0.5], [1e308]],
              (1, 2, 6), 3, replicas=2)
    assert rec.abort_iteration.tolist() == [0, 1]
    assert rec.theta[:, 1, 0].tolist() == [1e308] * 3
    assert rec.theta_bar[:, 1, 0].tolist() == [0.0] * 3
    assert np.all(np.isfinite(rec.theta[:, 0])) and rec.theta[2, 0, 0] != rec.theta[1, 0, 0]


def test_overflowing_block_sum_aborts_nothing(slow_params, cost_model, identity):
    # H = 0.25 repels gently: 100 rows near 2e306 and their averages stay finite over 4
    # iterations, but the block's averages sum past the float range at every iteration,
    # so the one-sum fast check fails each time and the exact per-row test must find
    # nothing to abort.  Noise is zero, so each row alone (whose sum stays finite) is
    # the reference for its records
    fam = make_scalar_family(H=0.25, mu=0.0, noise=0.0)
    args = (RunPlan(slow_params, cost_model, 4), fam, identity)
    theta0, cps = np.linspace(1.9e306, 2e306, 100)[:, None], (1, 2, 3, 4)
    rec = run(*args, theta0, cps, 5, replicas=100)
    assert rec.abort_iteration.tolist() == [0] * 100
    assert np.all(np.isfinite(rec.theta)) and np.all(np.isfinite(rec.theta_bar))
    assert np.all(rec.theta_bar >= 1.9e306)  # every checkpoint's sum passes the float maximum
    for r in range(100):
        alone = run(*args, theta0[r], cps, 5)
        assert csv_lines(row[1:] for row in rec.csv_rows() if row[0] == r) == \
            csv_lines(row[1:] for row in alone.csv_rows())


def test_overflowing_average_aborts_its_row(slow_params, cost_model):
    # the box holds row 1 at 1e308, a finite state, but at n = 2 its average's weighted
    # sum b_1 theta_1 + b_2 theta_2 = 5e308 overflows: the row aborts there, and
    # records no infinite average
    fam = make_scalar_family(H=1.0, mu=0.0, noise=0.0)
    args = (RunPlan(slow_params, cost_model, 6), fam, BoxProjection([-1e308], [1e308]))
    rec = run(*args, [[0.5], [1e308]], (1, 2, 6), 3, replicas=2)
    assert rec.abort_iteration.tolist() == [0, 2]
    assert rec.theta[:, 1, 0].tolist() == [1e308] * 3 and rec.theta_bar[0, 1, 0] == 1e308
    assert np.all(np.isfinite(rec.theta_bar))
    alone = run(*args, [0.5], (1, 2, 6), 3)
    assert rec.csv_rows() == alone.csv_rows() + [[1, 1, 1e308, 1e308, rec.cost[0]]]


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


def test_ml_estimate_level_scale_memo_is_bit_exact(slow_params, critical_params, cost_model):
    # every level count s of a slow and a critical plan: the first call (memo built), a
    # second call (memo hit) and a pickled copy (the pool path) give exactly the estimate
    # of the expression the memo replaced
    theta = np.array([[0.3, -0.2], [1.5, 0.25], [-0.7, 2.0]])
    for params in (slow_params, critical_params):
        s_max = int(RunPlan(params, cost_model, 4000).s.max())
        levels = np.arange(1, s_max + 1)
        all_counts = replication_counts(params, levels, np.full(s_max, 5000.0))
        fam = SyntheticGaussianFamily(theta_star=[0.1, -0.1], H=np.diag([-1.0, -2.0]),
                                      mu=[1.0, -1.0], noise_factor=np.linalg.cholesky(GAMMA2),
                                      alpha=params.alpha, beta=params.beta, M=params.M)
        for call in ("build", "hit", "pickled"):
            if call == "pickled":
                fam = pickle.loads(pickle.dumps(fam))
            for s in levels.tolist():
                counts = all_counts[s - 1, :s]
                z = estimate(fam, theta, counts, np.random.default_rng(s))
                g = np.random.default_rng(s).standard_normal((len(theta), s, 2))
                ref = [synthetic_estimate(fam, row, counts, gr) for row, gr in zip(theta, g)]
                assert np.array_equal(z, np.array(ref)), (params.regime, call, s)


def test_dense_ball_flags_match_the_norm_definition(slow_params, cost_model, identity):
    # in_ball after iteration n: |theta_m - center| <= eps for every m in [n0, n - 1],
    # as np.linalg.norm(., axis=1) evaluates it; eps is set to replica 0's largest
    # distance, so that replica sits exactly on the boundary and stays in
    fam, R, n_final, n0 = make_slow_family(), 6, 80, 5
    plan, cps = RunPlan(slow_params, cost_model, n_final), tuple(range(1, n_final + 1))
    theta0 = default_theta0(fam)
    free = run(plan, fam, identity, theta0, cps, 4, replicas=R)
    dist = np.linalg.norm(free.theta - fam.theta_star, axis=2)  # row m - 1 is theta_m
    eps = float(dist[n0 - 1:n_final - 1, 0].max())
    rec = run(plan, fam, identity, theta0, cps, 4, replicas=R,
              ball=BallMonitor(center=fam.theta_star, eps=eps, n0=n0))
    assert np.array_equal(rec.theta, free.theta)
    expected = np.ones((n_final, R), dtype=bool)
    for n in range(n0 + 1, n_final + 1):
        expected[n - 1] = np.all([np.linalg.norm(rec.theta[m - 1] - fam.theta_star, axis=1) <= eps
                                  for m in range(n0, n)], axis=0)
    assert np.array_equal(rec.in_ball, expected)
    assert rec.in_ball[-1, 0] and not rec.in_ball[-1].all()


def test_csv_lines_match_csv_writer(slow_params, cost_model):
    def reference(rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()

    fam = make_slow_family()
    theta0 = np.tile(default_theta0(fam), (3, 1))
    theta0[1] = [1e308, 1e308]  # H e overflows at n = 1: replica 1 aborts
    rec = run(RunPlan(slow_params, cost_model, 12), fam, IdentityProjection(), theta0,
              (3, 12), 8, replicas=3)
    assert rec.aborted.tolist() == [False, True, False]
    record_rows = [["replica"] + csv_header(2)] + rec.csv_rows()
    numbers = [[0, 7, 1.5, -3, 2 ** 70, np.int64(7), np.int32(-3), np.float64(2.25),
                np.float32(0.1), np.float64(1e-5)],
               [-0.0, 5e-324, 1e16, 0.1 + 0.2, np.float64(-0.0), np.float64(5e-324),
                np.float64(1e16), np.float64(0.1) + np.float64(0.2)],
               # predictions.csv: the critical regime has no bias columns
               [10, 4, -0.25, None, 0.5, 123.0, None, 0.75, 0],
               [None, None]]
    for rows in (record_rows, numbers):
        assert csv_lines(rows) == reference(rows)


def test_chunked_draw_matches_per_iteration_draws(slow_params, critical_params, cost_model):
    # every run of equal s_n of a slow and a critical plan (s = 1..17), drawn chunk by
    # chunk: each chunk holds min(T, 2^16 // (R s d)) iterations and its entries are
    # exactly the noise of that many successive (R, s, d) draws and of as many
    # one-iteration draws, and the stream ends where they leave it
    for params, n_final in ((slow_params, 4000), (critical_params, 1500)):
        plan = RunPlan(params, cost_model, n_final)
        starts = np.flatnonzero(np.diff(plan.s, prepend=0)).tolist() + [n_final]
        for R, d in itertools.product((1, 9, 100), (1, 2, 3)):
            fam = SyntheticGaussianFamily(theta_star=np.zeros(d), H=-np.eye(d), mu=np.ones(d),
                                          noise_factor=np.tril(np.ones((d, d))) / d,
                                          alpha=params.alpha, beta=params.beta, M=params.M)
            rng, ref, one = (np.random.default_rng(R * d) for _ in range(3))
            for a, e in zip(starts, starts[1:]):
                block = plan.counts[a:e, :plan.s[a]]
                while len(block):
                    entries = fam.draw(block, R, rng)
                    s = block.shape[1]
                    assert len(entries) == min(len(block), max(1, 2 ** 16 // (R * s * d)))
                    for counts, entry in zip(block, entries):
                        g = ref.standard_normal((R, s, d))
                        assert np.array_equal(entry, parent_noise(fam, counts, g))
                        assert np.array_equal(entry, fam.draw(counts[None], R, one)[0])
                    block = block[len(entries):]
            assert rng.standard_normal() == ref.standard_normal() == one.standard_normal()


def chunk_starts(plan, replicas, d):
    """The first iteration index of each chunk run() makes on a synthetic family."""
    runs = np.flatnonzero(np.diff(plan.s, prepend=0)).tolist() + [plan.n_final]
    return [i for a, e in zip(runs, runs[1:])
            for i in range(a, e, max(1, 2 ** 16 // (replicas * int(plan.s[a]) * d)))]


def test_chunked_run_matches_per_iteration_loop(slow_params, critical_params, cost_model):
    # run() against the per-iteration loop on the same plan, bit for bit, over 2,000
    # iterations: chunks capped at 2^16 / (200 s) iterations (100 rows, d = 2) and
    # uncapped ones, sparse and dense checkpoints, a ball whose n0 falls inside a chunk and whose
    # rows leave it at different times, and a row that aborts mid-chunk
    n_final, n0 = 2000, 1001
    slow = RunPlan(slow_params, cost_model, n_final)
    fam, repel = make_slow_family(), SyntheticGaussianFamily(
        theta_star=[0.0, 0.0], H=np.diag([0.5, -1.0]), mu=[1.0, 0.0],
        noise_factor=np.linalg.cholesky(GAMMA2), alpha=1.0, beta=0.5, M=2.0)
    dense = tuple(range(1, n_final + 1))
    free = run(slow, fam, IdentityProjection(), default_theta0(fam), dense, 11, replicas=100)
    # eps: the median over rows of the largest distance of theta_m, m in [n0, n_final - 1]
    dist = np.linalg.norm(free.theta[n0 - 1:n_final - 1] - fam.theta_star, axis=2)
    eps = float(np.median(dist.max(axis=0)))
    blow_up = np.tile(default_theta0(fam), (9, 1))
    blow_up[4] = [1e292, 0.0]  # grows by about (1 + gamma_n / 2) per step; its average overflows
    cases = [
        (slow, fam, IdentityProjection(), default_theta0(fam), 100,
         geometric_checkpoints(n_final) + (n0 - 1, n0, n0 + 1), 11,
         BallMonitor(center=fam.theta_star, eps=eps, n0=n0)),
        (slow, repel, IdentityProjection(), blow_up, 9, dense, 12,
         BallMonitor(center=np.zeros(2), eps=1e3, n0=40)),
        (RunPlan(critical_params, cost_model, n_final), make_scalar_family(beta=1.0),
         BoxProjection([0.2], [1.5]), [1.4], 20, dense[::7], 13,
         BallMonitor(center=np.full(1, 0.5), eps=0.3, n0=1)),
        (RunPlan(slow_params, cost_model, 30), EulerSdeFamily(drift=0.05, diffusion=0.2),
         BoxProjection([0.0], [5.0]), [1.5], 3, dense[:30], 14,
         BallMonitor(center=np.full(1, np.exp(-0.05)), eps=0.4, n0=3)),
    ]
    recs = []
    for plan, family, proj, theta0, R, cps, seed, ball in cases:
        rec = run(plan, family, proj, theta0, cps, seed, replicas=R, ball=ball)
        ref = parent_run(plan, family, proj, theta0, cps, seed, R, ball)
        for got, want in zip((rec.theta, rec.theta_bar, rec.in_ball, rec.abort_iteration), ref):
            assert np.array_equal(got, want)
        recs.append(rec)
    starts = chunk_starts(slow, 100, 2)
    assert n0 - 1 not in starts and n0 not in starts  # iteration n0 + 1 tests theta_n0 mid-chunk
    assert len(starts) > 2 * len(chunk_starts(slow, 1, 1))  # most chunks are capped runs
    inside = recs[0].in_ball.sum(axis=1)[recs[0].ns > n0]
    assert inside[-1] == 50 and len(set(inside.tolist())) >= 3  # rows leave at different times
    a = int(recs[1].abort_iteration[4])
    assert recs[1].abort_iteration.tolist() == [0] * 4 + [a] + [0] * 4
    assert a - 1 not in chunk_starts(slow, 9, 2)  # iteration a is not a chunk's first
    assert np.isfinite(recs[1].theta[a - 1, 4]).all()  # the average overflowed, not the state


def recast(family, cls, **attrs):
    """A copy of ``family`` as an instance of its subclass ``cls``, with ``attrs`` set."""
    out = object.__new__(cls)
    out.__dict__.update(family.__dict__, _level_terms={}, **attrs)
    return out


class _DrawFailed(Exception):
    pass


class _EstimateFailed(Exception):
    pass


class _ScriptedFamily(SyntheticGaussianFamily):
    """Counts its finished draws; its ``draw`` call ``draw_fails`` raises, and its
    ``ml_estimate`` call ``estimate_fails`` raises once ``wait_draws`` draws are done."""

    draw_fails = estimate_fails = None
    wait_draws = 0

    def draw(self, counts, replicas, rng):
        if self.draws + 1 == self.draw_fails:
            raise _DrawFailed
        entries = super().draw(counts, replicas, rng)
        with self.drawn:
            self.draws += 1
            self.drawn.notify_all()
        return entries

    def ml_estimate(self, theta, counts, noise):
        self.estimates += 1
        if self.estimates == self.estimate_fails:
            with self.drawn:
                self.waited = self.drawn.wait_for(lambda: self.draws >= self.wait_draws, 10.0)
            time.sleep(0.05)  # time for the producer to block in its put
            self.threads_at_failure = threading.active_count()
            raise _EstimateFailed
        return super().ml_estimate(theta, counts, noise)


def test_draw_ahead_thread_never_outlives_run(slow_params, cost_model, identity):
    # a normal run, a run whose third draw raises and a run whose estimator raises
    # mid-chunk while the producer, two chunks queued, is blocked putting a third:
    # each ends with the producer joined, and a failure reaches the caller by type
    plan = RunPlan(slow_params, cost_model, 2000)
    starts = chunk_starts(plan, 100, 2)
    k = next(k for k, (a, e) in enumerate(zip(starts, starts[1:])) if e - a >= 2)
    assert k + 4 < len(starts)
    args = (plan, make_slow_family(), identity, np.zeros(2), (1, 2000), 3)
    before = threading.active_count()
    families = []
    for fails in ({}, {"draw_fails": 3},
                  {"estimate_fails": starts[k] + 2, "wait_draws": k + 4}):
        fam = recast(args[1], _ScriptedFamily, draws=0, estimates=0,
                     drawn=threading.Condition(), **fails)
        families.append(fam)
        if not fails:
            run(plan, fam, *args[2:], replicas=100)
        else:
            with pytest.raises(_DrawFailed if "draw_fails" in fails else _EstimateFailed):
                run(plan, fam, *args[2:], replicas=100)
        assert threading.active_count() == before
    normal, draw_failed, estimate_failed = families
    assert normal.draws == len(starts) and normal.estimates == 2000
    assert draw_failed.draws == 2 and draw_failed.estimates == starts[2]
    # the estimator failed inside chunk k + 1, with chunks k + 2 and k + 3 queued
    # and k + 4 drawn, and the producer was still alive then
    assert estimate_failed.waited and estimate_failed.draws == k + 4
    assert estimate_failed.threads_at_failure == before + 1


class _OverflowingDraw(SyntheticGaussianFamily):
    def draw(self, counts, replicas, rng):
        np.add.reduce(np.full(2, 1e308))  # overflows: numpy warns unless over="ignore"
        return super().draw(counts, replicas, rng)


def test_draw_ahead_keeps_the_drivers_errstate(slow_params, cost_model, identity):
    # numpy's errstate does not follow a new thread, so the producer sets the
    # driver's own: an overflow in draw warns no more than it did on this thread
    fam = make_slow_family()
    args = (RunPlan(slow_params, cost_model, 300), identity, np.zeros(2), (1, 300), 4)
    want = run(args[0], fam, *args[1:], replicas=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(args[0], recast(fam, _OverflowingDraw), *args[1:], replicas=5)
    assert np.array_equal(got.theta, want.theta)
    assert np.array_equal(got.theta_bar, want.theta_bar)


class _SleepyDraw(SyntheticGaussianFamily):
    def draw(self, counts, replicas, rng):
        time.sleep(1e-3)
        return super().draw(counts, replicas, rng)


def test_draw_ahead_results_do_not_depend_on_thread_timing(slow_params, cost_model):
    # 100 rows x 2,000 slow iterations in capped chunks, against the per-iteration
    # loop: a producer slowed by 1 ms per draw and ten repeats at full speed give
    # the same bits, with a ball whose n0 falls inside a chunk and a row whose
    # average overflows mid-chunk
    n_final, n0, R = 2000, 1001, 100
    plan = RunPlan(slow_params, cost_model, n_final)
    repel = SyntheticGaussianFamily(
        theta_star=[0.0, 0.0], H=np.diag([0.5, -1.0]), mu=[1.0, 0.0],
        noise_factor=np.linalg.cholesky(GAMMA2), alpha=1.0, beta=0.5, M=2.0)
    theta0 = np.tile(default_theta0(repel), (R, 1))
    theta0[4] = [1e292, 0.0]
    cps = geometric_checkpoints(n_final) + (n0 - 1, n0, n0 + 1)
    # eps: the median over rows of the largest |theta_m|, m in [n0, n_final - 1]
    free = parent_run(plan, repel, IdentityProjection(), theta0, range(n0, n_final), 15, R)
    with np.errstate(over="ignore"):  # the overflowing row's norm is inf
        eps = float(np.median(np.linalg.norm(free[0], axis=2).max(axis=0)))
    ball = BallMonitor(center=np.zeros(2), eps=eps, n0=n0)
    starts = chunk_starts(plan, R, 2)
    assert n0 - 1 not in starts and n0 not in starts and len(starts) > 2 * len(
        chunk_starts(plan, 1, 1))
    ref = parent_run(plan, repel, IdentityProjection(), theta0, cps, 15, R, ball)
    a = int(ref[3][4])
    assert ref[3].tolist() == [0] * 4 + [a] + [0] * (R - 5) and a - 1 not in starts
    inside = ref[2].sum(axis=1)[np.array(sorted(set(cps))) > n0]
    assert inside[-1] == R // 2 and len(set(inside.tolist())) >= 3  # rows leave at different times
    for fam in [recast(repel, _SleepyDraw)] + [repel] * 10:
        rec = run(plan, fam, IdentityProjection(), theta0, cps, 15, replicas=R, ball=ball)
        for got, want in zip((rec.theta, rec.theta_bar, rec.in_ball, rec.abort_iteration), ref):
            assert np.array_equal(got, want)
