import csv
import io
import itertools
import math
import pickle
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mlsa.cli import RECORD_BLOCK, csv_lines, records_columns, records_header, write_text
from mlsa.driver import (BallMonitor, BoxProjection, IdentityProjection, RunPlan, RunRecord,
                         default_theta0, geometric_checkpoints, run)
from mlsa.families import EulerSdeFamily, GeometricCostModel, LevelFamily, SyntheticGaussianFamily
from mlsa.harness import ReplicationSpec, run_replicas
from mlsa.params import ParameterSet, replication_counts, schedule_arrays

from conftest import (CRITICAL_DEFAULT, GAMMA2, SLOW_PINNED, columns_sum, csv_writer_text,
                      estimate, make_scalar_family, make_slow_family, record_rows,
                      reference_counts, synthetic_f, written_columns)


def noise(family, counts, g):
    """SyntheticGaussianFamily noise A v of each row of the (..., s, d) normals ``g``, rows
    never mixing: v = sum_k M^(-beta k / 2) g_k / sqrt(N_k), A v summed column by column."""
    v = family.M ** (-family.beta * np.arange(1, len(counts) + 1) / 2.0) / np.sqrt(counts) @ g
    return columns_sum(family.A, v)


def reference_run(family, schedule, theta0, checkpoints, seed, R, box=None, ball=None):
    """run()'s (theta, theta_bar, cost, in_ball, abort_iteration) in plain Python for R rows
    held as component lists that never mix, from ``schedule`` = (gamma_n, b_n, counts N_k,
    level costs C_k) and default_rng(seed): a SyntheticGaussianFamily draws one (R, s, d)
    normal block per iteration, any other family estimates row by row.  ``box``: (lower, upper)."""
    gammas, bs, counts, level_cost = schedule
    d, rng, ns, rec = family.d, np.random.default_rng(seed), set(checkpoints), []
    thetas = np.broadcast_to(np.asarray(theta0, dtype=float), (R, d)).T.tolist()
    sums, b_bar, cost, in_ball, abort = [[0.0] * R] * d, 0.0, 0.0, [True] * R, [0] * R
    for n, (gamma, b, c) in enumerate(zip(gammas, bs, counts), 1):
        if ball is not None and n - 1 >= ball.n0:  # iteration n tests theta_{n-1}
            sq = [0.0] * R  # |theta - center|^2, summed left to right
            for col, y in zip(thetas, np.asarray(ball.center, dtype=float).tolist()):
                sq = [a + (x - y) * (x - y) for a, x in zip(sq, col)]
            in_ball = [ok and math.sqrt(a) <= ball.eps for ok, a in zip(in_ball, sq)]
        cost += sum(n_k * c_k for n_k, c_k in zip(c, level_cost))  # integer-valued: exact
        if isinstance(family, SyntheticGaussianFamily):  # H (theta - theta*) column by column
            e = [[x - y for x in col] for col, y in zip(thetas, family.theta_star.tolist())]
            mu_bias = (family.mu * family.M ** (-family.alpha * len(c))).tolist()
            zs = noise(family, c, rng.standard_normal((R, len(c), d))).T.tolist()
            for i, h in enumerate(family.H.tolist()):
                f = [x * h[0] for x in e[0]]
                for e_j, h_j in zip(e[1:], h[1:]):
                    f = [a + x * h_j for a, x in zip(f, e_j)]
                zs[i] = [a + mu_bias[i] + y for a, y in zip(f, zs[i])]
        else:  # the family's own estimator, rows in order
            zs = family.ml_estimate(np.array(thetas).T, c, rng).T.tolist()
        thetas = [[x + gamma * y for x, y in zip(col, z)] for col, z in zip(thetas, zs)]
        if box is not None:
            thetas = [[min(max(x, lo), hi) for x in col] for col, lo, hi in zip(thetas, *box)]
        # theta_bar_n = b_bar_n^-1 sum_{k<=n} b_k theta_k, both sums running
        sums = [[w + b * x for w, x in zip(col_sum, col)] for col_sum, col in zip(sums, thetas)]
        b_bar += b
        bars = [[w / b_bar for w in col] for col in sums]
        for col in bars:  # a row aborts at its first non-finite average and keeps stepping
            abort = [a or (0 if math.isfinite(x) else n) for a, x in zip(abort, col)]
        if n in ns:
            rec.append((list(zip(*thetas)), list(zip(*bars)), cost, in_ball))
    theta, theta_bar, cost, flags = (np.array(x) for x in zip(*rec))
    return theta, theta_bar, cost, flags if ball is not None else None, np.array(abort)


def plan_schedule(params, n_final):
    """run()'s schedule from schedule_arrays, replication_counts and kappa_C M^k."""
    arr = schedule_arrays(params, n_final)
    counts = [row[row > 0].tolist() for row in replication_counts(params, arr["s"], arr["K"])]
    return (arr["gamma"].tolist(), arr["b"].tolist(), counts,
            [params.kappa_C * params.M ** k for k in range(1, max(map(len, counts)) + 1)])


def scalar_schedule(p, n_final):
    """The same schedule by the paper's formulas in plain Python, one n at a time."""
    n = range(1, n_final + 1)
    K = [p.kappa_K * (p.phi + 1.0) * float(m) ** p.phi for m in n]
    if p.regime == "slow":
        s = [max(math.floor(math.log(p.kappa_s * K_bar ** (1.0 / (2 * p.alpha - p.beta + 1)))
                            / math.log(p.M)), 1) for K_bar in itertools.accumulate(K)]
    else:
        s = [max(math.ceil((1.0 / p.alpha) * ((p.phi + 1) / 2.0) * math.log(m) / math.log(p.M)), 1)
             for m in n]
    return ([float(m) ** (-p.psi) for m in n], [float(m) ** p.rho for m in n],
            [reference_counts(p, *sK) for sK in zip(s, K)],
            [p.kappa_C * p.M ** k for k in range(1, max(s) + 1)])


def written_rows(record):
    """The record's CSV rows as written, each a tuple of field strings."""
    return list(zip(*written_columns(record)))


def per_iteration_stream_run(family, plan, theta0, n_final, stream):
    """The earlier stream layout, kept as an in-law reference: one replica
    alone, iteration n drawing from default_rng(stream.spawn(n_final)[n-1])."""
    theta, wsum, b_bar = np.array(theta0, dtype=float), np.zeros(family.d), 0.0
    for i, child in enumerate(stream.spawn(n_final)):
        counts = plan.counts[i, :plan.s[i]]
        z = estimate(family, theta[None], counts, np.random.default_rng(child))[0]
        theta = theta + plan.gamma[i] * z
        wsum = wsum + plan.b[i] * theta
        b_bar += plan.b[i]
    return wsum / b_bar


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
    assert plan.cost[2] - plan.cost[1] == 5 * 2 + 3 * 4 + 2 * 8  # = 38


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
    assert written_columns(a) == written_columns(b)
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


def test_running_average_within_recursive_summation_bound(slow_params, cost_model, identity):
    # theta_bar_n at every n of 100 rows in capped chunks, against the exact rational
    # average b_bar_n^-1 sum_k b_k theta_k of the recorded theta_k: n rounded products
    # summed left to right and one rounded quotient err by at most
    # gamma_{n+1} sum_k b_k |theta_k| / b_bar_n, gamma_m = m u / (1 - m u), u the unit
    # roundoff (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2);
    # b_n = n^2 keeps the float b_bar_n exact
    n_final, R, u = 200, 100, Fraction(1, 2 ** 53)
    plan = RunPlan(slow_params, cost_model, n_final)
    assert len(chunk_starts(plan, R, 2)) > 5
    fam = make_slow_family()
    rec = run(plan, fam, identity, default_theta0(fam), range(1, n_final + 1), 21, replicas=R)
    arr = schedule_arrays(slow_params, n_final)
    bs = [Fraction(x) for x in arr["b"].tolist()]
    b_bars = list(itertools.accumulate(bs))
    assert b_bars == [Fraction(x) for x in arr["b_bar"].tolist()]
    thetas, bars = (x.reshape(n_final, R * 2).tolist() for x in (rec.theta, rec.theta_bar))
    wsum, abs_sum = [Fraction(0)] * (R * 2), [Fraction(0)] * (R * 2)
    for n, (b, b_bar, theta, theta_bar) in enumerate(zip(bs, b_bars, thetas, bars), 1):
        terms = [b * Fraction(x) for x in theta]
        wsum = [w + t for w, t in zip(wsum, terms)]
        abs_sum = [a + abs(t) for a, t in zip(abs_sum, terms)]
        gamma = (n + 1) * u / (1 - (n + 1) * u)
        for x, w, a in zip(theta_bar, wsum, abs_sum):
            assert abs(Fraction(x) - w / b_bar) <= gamma * a / b_bar, n


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

    def ml_estimate(self, theta, counts, rng):
        self.calls += 1
        return np.full(np.shape(theta), np.inf if self.calls >= self.at else 0.0)


def test_abort_flags_partial_record(slow_params, cost_model, identity):
    fam = _BlowUpFamily(at=5)
    rec = run(RunPlan(slow_params, cost_model, 20), fam, identity, [1.0], (3, 10), 0)
    assert rec.aborted[0]
    assert rec.abort_iteration[0] == 5
    assert [row[:2] for row in written_rows(rec)] == [("0", "3")]  # only pre-abort checkpoints


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
        assert [row[:2] for row in written_rows(calm)] == [(str(r), str(n)) for r in range(4)
                                                           for n in (3, 12)]
        # the aborted replica writes no row; the others write exactly what they did alone
        assert written_rows(mixed) == [row for row in written_rows(calm) if row[0] != "1"]


def test_abort_sticks(slow_params, cost_model, identity):
    # H = 1 repels: 1e308 overflows at n = 1 (gamma_1 = 1), and the average of 1e304
    # overflows at n = 11, inside the fifth of seven chunks.  The aborted row keeps
    # stepping, non-finite, through the later chunks, which leave its abort where it
    # is; the live row moves on, and the aborted one writes no CSV row
    fam = make_scalar_family(H=1.0, mu=0.0, noise=1e-3)
    for x0, n_final, a in ((1e308, 6, 1), (1e304, 40, 11)):
        plan = RunPlan(slow_params, cost_model, n_final)
        rec = run(plan, fam, identity, [[0.5], [x0]], (1, 2, n_final), 3, replicas=2)
        assert rec.abort_iteration.tolist() == [0, a]
        assert np.all(np.isfinite(rec.theta[:, 0])) and rec.theta[2, 0, 0] != rec.theta[1, 0, 0]
        assert [row[:2] for row in written_rows(rec)] == [
            ("0", "1"), ("0", "2"), ("0", str(n_final))] + [("1", str(n)) for n in (1, 2) if n < a]
    starts = chunk_starts(plan, 2, 1)
    assert len(starts) == 7 and starts[4] < a - 1 < starts[5]  # mid-chunk, not in the last


def test_overflowing_block_sum_aborts_nothing(slow_params, cost_model, identity):
    # H = 0.25 repels gently: 100 rows near 2e306 and their averages stay finite over 4
    # iterations, though the block's averages sum past the float range at every
    # iteration, and no row aborts.  Noise is zero, so each row alone (whose sum stays
    # finite) is the reference for its records
    fam = make_scalar_family(H=0.25, mu=0.0, noise=0.0)
    args = (RunPlan(slow_params, cost_model, 4), fam, identity)
    theta0, cps = np.linspace(1.9e306, 2e306, 100)[:, None], (1, 2, 3, 4)
    rec = run(*args, theta0, cps, 5, replicas=100)
    assert rec.abort_iteration.tolist() == [0] * 100
    assert np.all(np.isfinite(rec.theta)) and np.all(np.isfinite(rec.theta_bar))
    assert np.all(rec.theta_bar >= 1.9e306)  # every checkpoint's sum passes the float maximum
    for r in range(100):
        alone = run(*args, theta0[r], cps, 5)
        assert [row[1:] for row in written_rows(rec) if row[0] == str(r)] == \
            [row[1:] for row in written_rows(alone)]


def test_overflowing_average_aborts_its_row(slow_params, cost_model):
    # the box holds row 1 at 1e308, a finite state, but at n = 2 its average's weighted
    # sum b_1 theta_1 + b_2 theta_2 = 5e308 overflows: the row aborts there, and
    # records no infinite average at a checkpoint it reached
    fam = make_scalar_family(H=1.0, mu=0.0, noise=0.0)
    args = (RunPlan(slow_params, cost_model, 6), fam, BoxProjection([-1e308], [1e308]))
    rec = run(*args, [[0.5], [1e308]], (1, 2, 6), 3, replicas=2)
    assert rec.abort_iteration.tolist() == [0, 2]
    assert rec.theta[0, 1, 0] == rec.theta_bar[0, 1, 0] == 1e308
    assert np.all(np.isfinite(rec.theta_bar[:, 0])) and np.isfinite(rec.theta_bar[0, 1])
    alone = run(*args, [0.5], (1, 2, 6), 3)
    assert written_rows(rec) == written_rows(alone) + [
        ("1", "1", "1e+308", "1e+308", str(rec.cost[0].item()))]


def test_run_rejects_bad_checkpoints(slow_params, slow_family, cost_model, identity):
    with pytest.raises(ValueError):
        run(RunPlan(slow_params, cost_model, 10), slow_family, identity,
            default_theta0(slow_family), (11,), 0)


def test_record_serialization_roundtrip(slow_params, slow_family, cost_model, identity):
    rec = run(RunPlan(slow_params, cost_model, 20), slow_family, identity,
              default_theta0(slow_family), (10, 20), 3)
    assert records_header(2) == ["replica", "n", "theta_0", "theta_1", "theta_bar_0",
                                 "theta_bar_1", "cost"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(*written_columns(rec)))
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
                ref = (synthetic_f(fam, theta) + fam.mu * fam.M ** (-fam.alpha * s)
                       + noise(fam, counts, g))
                assert np.array_equal(z, ref), (params.regime, call, s)


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
    # records at a checkpoint at every n, d = 1 and d = 2; component 0 repels, so replica
    # 1 aborts at n = 1, before its first checkpoint, and replica 2 mid-run (as in
    # test_abort_sticks)
    for fam in (make_scalar_family(H=1.0, mu=0.0, noise=1e-3),
                make_slow_family(H_diag=(1.0, -2.0))):
        theta0 = np.full((4, fam.d), 0.5)
        theta0[1, 0], theta0[2, 0] = 1e308, 1e304
        rec = run(RunPlan(slow_params, cost_model, 40), fam, IdentityProjection(), theta0,
                  range(1, 41), 8, replicas=4)
        assert rec.abort_iteration[1] == 1 and 1 < rec.abort_iteration[2] < 40
        assert not rec.aborted[[0, 3]].any()
        header = records_header(fam.d)
        assert csv_lines([name, *col] for name, col in zip(header, written_columns(rec))) == \
            csv_writer_text(record_rows(rec))
    # tables of numbers: each value written as str writes it, a None as an empty field
    tables = [[[0, 7, 1.5, -3, 2 ** 70, np.int64(7), np.int32(-3), np.float64(2.25),
                np.float32(0.1), np.float64(1e-5)]],
              [[-0.0, 5e-324, 1e16, 0.1 + 0.2, np.float64(-0.0), np.float64(5e-324),
                np.float64(1e16), np.float64(0.1) + np.float64(0.2)]],
              # predictions.csv: the critical regime has no bias columns
              [[10, 4, -0.25, None, 0.5, 123.0, None, 0.75, 0],
               [11, 5, 0.125, None, 1.5, 7.0, None, 0.5, 1]],
              [[None, None]]]
    for rows in tables:
        columns = [["" if v is None else str(v) for v in col] for col in zip(*rows)]
        assert csv_lines(columns) == csv_writer_text(rows)


def built_record(replicas, c, d, abort_iteration=None):
    """A record of ``replicas`` rows at checkpoints 1..c, built directly: normal iterates and
    averages, and an increasing cost."""
    rng = np.random.default_rng(0)
    return RunRecord(ns=np.arange(1, c + 1), theta=rng.standard_normal((c, replicas, d)),
                     theta_bar=rng.standard_normal((c, replicas, d)),
                     cost=np.cumsum(rng.random(c) * 1e6), in_ball=None, ball=None,
                     abort_iteration=np.zeros(replicas, dtype=np.int64) if abort_iteration is None
                     else np.array(abort_iteration))


def test_record_blocks_are_the_whole_table():
    # 4 replicas x 4000 checkpoints, two block boundaries: replica 1 aborts mid-run, at n =
    # 2000 (the first boundary falls among its rows), and replica 2 before its first checkpoint
    rec = built_record(4, 4000, 2, abort_iteration=[0, 2000, 1, 0])
    blocks = list(records_columns(rec))
    assert [len(b[0]) for b in blocks] == [RECORD_BLOCK, RECORD_BLOCK, 9999 - 2 * RECORD_BLOCK]
    assert "".join(map(csv_lines, blocks)) == csv_writer_text(record_rows(rec)[1:])
    # the table of no rows: every replica aborted before its first checkpoint
    assert list(records_columns(built_record(3, 10, 2, abort_iteration=[1, 1, 1]))) == []


def test_record_write_memory_is_one_block(tmp_path):
    # the write's traced peak is bounded by one block's fields, each held at most three
    # times (as its str in a column, in the block's text and in the text's bytes), plus the
    # replica, n and cost strings that all blocks share; it gains less than a byte per added
    # row, where anything held per row (an index, a str) costs at least that
    c, fields = 2 ** 12, 5  # d = 1
    peaks = []
    for replicas in (8, 32):  # 2^15 and 2^17 rows
        rec = built_record(replicas, c, 1)
        for x in (rec.theta, rec.theta_bar):
            x[:] = np.round(x * 8) / 8  # short reprs keep the formatting quick
        tracemalloc.start()
        try:
            write_text(str(tmp_path / "records.csv"), map(csv_lines, records_columns(rec)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    field = sys.getsizeof("x" * 24) + 8  # the longest repr of a double, and its list slot
    assert peaks[1] < (3 * RECORD_BLOCK * fields + replicas + 2 * c) * field
    assert peaks[1] - peaks[0] < 2 ** 17 - 2 ** 15, peaks


def chunk_starts(plan, replicas, d):
    """The first iteration index of each chunk run() makes on a synthetic family."""
    runs = np.flatnonzero(np.diff(plan.s, prepend=0)).tolist() + [plan.n_final]
    return [i for a, e in zip(runs, runs[1:])
            for i in range(a, e, max(1, 2 ** 16 // (replicas * int(plan.s[a]) * d)))]


def chunk_blocks(plan, replicas, d):
    """The counts block of each chunk run() makes on a synthetic family, in order."""
    starts = chunk_starts(plan, replicas, d)
    return [plan.counts[a:e, :plan.s[a]] for a, e in zip(starts, starts[1:] + [plan.n_final])]


def test_chunked_draw_matches_per_iteration_draws(slow_params, critical_params, cost_model):
    # every run of equal s_n of a slow and a critical plan (s = 1..17), drawn in the
    # chunks run() cuts, whole or capped at 2^16 // (R s d) iterations: each draw
    # returns one entry per counts row, exactly the noise of as many successive
    # (R, s, d) draws and of as many one-iteration draws, and the stream ends where
    # they leave it
    for params, n_final in ((slow_params, 4000), (critical_params, 1500)):
        plan = RunPlan(params, cost_model, n_final)
        for R, d in itertools.product((1, 9, 100), (1, 2, 3)):
            fam = SyntheticGaussianFamily(theta_star=np.zeros(d), H=-np.eye(d), mu=np.ones(d),
                                          noise_factor=np.tril(np.ones((d, d))) / d,
                                          alpha=params.alpha, beta=params.beta, M=params.M)
            rng, ref, one = (np.random.default_rng(R * d) for _ in range(3))
            for block in chunk_blocks(plan, R, d):
                entries = fam.draw(block, R, rng)
                assert len(entries) == len(block)
                for counts, entry in zip(block, entries):
                    g = ref.standard_normal((R, block.shape[1], d))
                    assert np.array_equal(entry, noise(fam, counts, g))
                    assert np.array_equal(entry, fam.draw(counts[None], R, one)[0])
            assert rng.standard_normal() == ref.standard_normal() == one.standard_normal()


class _HookedDraw(SyntheticGaussianFamily):
    def draw(self, counts, replicas, rng):
        self.hook((counts, replicas))  # on the draw thread
        return super().draw(counts, replicas, rng)


def test_run_cuts_the_chunks_it_draws(slow_params, cost_model, identity):
    # run() hands draw the blocks chunk_starts predicts, in order, none above 2^16
    # normals: whole runs of equal s_n at 1 row, capped ones at 9 and 100 rows and
    # in the 50-row tail block of 150 replicas
    plan = RunPlan(slow_params, cost_model, 2000)
    spec = ReplicationSpec(replicas=150, n_final=2000, checkpoints=(2000,), master_seed=6)
    for sizes in ([1], [9], [100], [100, 50]):
        blocks = []
        fam = recast(make_slow_family(), _HookedDraw, hook=blocks.append)
        if len(sizes) == 1:
            run(plan, fam, identity, np.zeros(2), (2000,), 6, replicas=sizes[0])
        else:  # 150 replicas: a 100-row block, then the 50-row tail block
            run_replicas(spec, slow_params, fam, cost_model, identity, np.zeros(2))
        want = [(block, r) for r in sizes for block in chunk_blocks(plan, r, 2)]
        assert len(blocks) == len(want)
        for (got, r), (block, size) in zip(blocks, want):
            assert r == size and np.array_equal(got, block) and got.size * r * 2 <= 2 ** 16
    assert len(chunk_blocks(plan, 1, 2)) == len(np.unique(plan.s))  # whole runs
    assert len(chunk_blocks(plan, 50, 2)) > len(chunk_blocks(plan, 9, 2)) > len(np.unique(plan.s))


def recast(family, cls, **attrs):
    """A copy of ``family`` as an instance of its subclass ``cls``, with ``attrs`` set."""
    out = object.__new__(cls)
    out.__dict__.update(family.__dict__, _block_terms={}, **attrs)
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
            time.sleep(0.05)  # time for the draw thread to run any further draw
            self.threads_at_failure = threading.active_count()
            raise _EstimateFailed
        return super().ml_estimate(theta, counts, noise)


def test_draw_ahead_thread_never_outlives_run(slow_params, cost_model, identity):
    # a normal run, a run whose third draw raises and a run whose estimator raises
    # mid-chunk while the draw thread has drawn three chunks ahead: each ends with
    # the draw thread joined, and a failure reaches the caller by type
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
    # the estimator failed inside chunk k + 1, with chunks k + 2 to k + 4 drawn,
    # and the draw thread was still alive then
    assert estimate_failed.waited and estimate_failed.draws == k + 4
    assert estimate_failed.threads_at_failure == before + 1


def test_draw_ahead_keeps_the_drivers_errstate(slow_params, cost_model, identity):
    # numpy's errstate does not follow a new thread, so the draw thread sets the
    # driver's own: an overflow in draw warns no more than it did on this thread
    fam = make_slow_family()
    args = (RunPlan(slow_params, cost_model, 300), identity, np.zeros(2), (1, 300), 4)
    want = run(args[0], fam, *args[1:], replicas=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the sum overflows, and numpy warns unless over="ignore"
        overflow = recast(fam, _HookedDraw, hook=lambda _: np.add.reduce(np.full(2, 1e308)))
        got = run(args[0], overflow, *args[1:], replicas=5)
    assert np.array_equal(got.theta, want.theta)
    assert np.array_equal(got.theta_bar, want.theta_bar)


def median_ball(plan, family, identity, theta0, seed, n0):
    """A ball about theta* from n0 on whose eps is the median over 100 rows of the largest
    |theta_m - theta*|, m in [n0, n_final - 1]: about half the rows leave it."""
    free = run(plan, family, identity, theta0, range(n0, plan.n_final), seed, replicas=100).theta
    with np.errstate(over="ignore", invalid="ignore"):  # an aborted row's norm is inf or nan
        dist = np.nan_to_num(np.linalg.norm(free - family.theta_star, axis=2), nan=np.inf)
    return BallMonitor(family.theta_star, float(np.median(dist.max(axis=0))), n0)


def check_against_reference(cases, cost_model, identity):
    """run() against reference_run on each case's schedules, theta and theta_bar within
    each schedule's rtol (0: bit for bit), costs, ball flags and aborts exactly, for
    every family of the case; returns each case's last record.  A case: params, n_final,
    run()'s families, box, theta0, R, checkpoints, seed, ball, {schedule: rtol}."""
    recs = []
    for params, n, families, box, theta0, R, cps, seed, ball, schedules in cases:
        refs = [(reference_run(families[0], schedule(params, n), theta0, cps, seed, R, box, ball),
                 rtol) for schedule, rtol in schedules.items()]
        for family in families:
            rec = run(RunPlan(params, cost_model, n), family, BoxProjection(*box) if box
                      else identity, theta0, cps, seed, replicas=R, ball=ball)
            for (theta, theta_bar, *rest), rtol in refs:  # costs sum integers: exact
                np.testing.assert_allclose([rec.theta, rec.theta_bar], [theta, theta_bar], rtol, 0)
                np.testing.assert_equal([rec.cost, rec.in_ball, rec.abort_iteration], rest)
        recs.append(rec)
    return recs


def assert_rows_leave_the_ball(rec, n0):
    inside = rec.in_ball.sum(axis=1)[rec.ns > n0]
    assert inside[-1] == 50 and len(set(inside.tolist())) >= 3  # rows leave at different times


def assert_row_4_aborts_mid_chunk(rec, plan):
    R, a = len(rec.abort_iteration), int(rec.abort_iteration[4])
    assert rec.abort_iteration.tolist() == [0] * 4 + [a] + [0] * (R - 5)
    assert a - 1 not in chunk_starts(plan, R, 2)  # iteration a is not a chunk's first
    assert np.isfinite(rec.theta[rec.ns == a, 4]).all()  # the average overflowed, not theta


def blow_up_theta0(family, R):
    """default_theta0 on R rows but row 4 at (1e292, 0), which grows by about (1 + gamma_n / 2)
    per step on a family that repels along the first axis: its average overflows."""
    theta0 = np.tile(default_theta0(family), (R, 1))
    theta0[4] = [1e292, 0.0]
    return theta0


def test_run_matches_scalar_reference(slow_params, critical_params, cost_model, identity):
    # run() against reference_run on the paper's formulas one n at a time and on the
    # library's schedule, slow and critical, with and without a box, 9 rows a BLAS
    # product would group.  scalar_schedule's libm pow may differ from numpy's by an
    # ulp beyond n = 10: 10 iterations to the bit, 200 to 1e-13
    fam, scalar = make_slow_family(), make_scalar_family(beta=1.0)
    dense = tuple(range(1, 201))
    check_against_reference([
        (params, n, [family], box, default_theta0(family), 9, dense[:n], 55, None,
         {plan_schedule: 0.0, scalar_schedule: rtol})
        for params, family, box in ((slow_params, fam, None), (critical_params, scalar, None),
                                    (slow_params, fam, ([0.0, 0.0], [0.9, 0.9])),
                                    (critical_params, scalar, ([0.2], [1.5])))
        for n, rtol in ((10, 0.0), (200, 1e-13))], cost_model, identity)


def test_chunked_run_matches_per_iteration_loop(slow_params, critical_params, cost_model,
                                                identity):
    # run() bit for bit against the row-by-row reference_run over 2,000 iterations:
    # capped chunks (100 rows, d = 2) and whole ones, sparse and dense checkpoints,
    # boxes, Euler, balls whose n0 falls in a chunk and whose rows leave at different
    # times, and a row whose average overflows mid-chunk
    n_final, n0 = 2000, 1001
    slow, dense = RunPlan(slow_params, cost_model, n_final), tuple(range(1, n_final + 1))
    sparse = geometric_checkpoints(n_final) + (n0 - 1, n0, n0 + 1)
    fam, scalar = make_slow_family(), make_scalar_family(beta=1.0)
    repel = make_slow_family(mu=(1.0, 0.0), H_diag=(0.5, -1.0))  # repels along the first axis
    recs = check_against_reference([
        (slow_params, n_final, [fam], None, default_theta0(fam), 100, sparse, 11,
         median_ball(slow, fam, identity, default_theta0(fam), 11, n0), {plan_schedule: 0.0}),
        (slow_params, n_final, [repel], None, blow_up_theta0(repel, 9), 9, dense, 12,
         BallMonitor(center=np.zeros(2), eps=1e3, n0=40), {plan_schedule: 0.0}),
        (critical_params, n_final, [scalar], ([0.2], [1.5]), [1.4], 20, dense[::7], 13,
         BallMonitor(center=np.full(1, 0.5), eps=0.3, n0=1), {plan_schedule: 0.0}),
        (slow_params, 30, [EulerSdeFamily(drift=0.05, diffusion=0.2)], ([0.0], [5.0]), [1.5], 3,
         dense[:30], 14, BallMonitor(np.full(1, np.exp(-0.05)), 0.4, 3), {plan_schedule: 0.0}),
    ], cost_model, identity)
    starts = chunk_starts(slow, 100, 2)  # mostly capped; iteration n0 + 1 tests theta_n0 mid-chunk
    assert {n0 - 1, n0}.isdisjoint(starts) and len(starts) > 2 * len(chunk_starts(slow, 1, 1))
    assert_rows_leave_the_ball(recs[0], n0)
    assert_row_4_aborts_mid_chunk(recs[1], slow)


def test_draw_ahead_results_do_not_depend_on_thread_timing(slow_params, cost_model, identity):
    # 100 rows x 2,000 slow iterations in capped chunks, bit for bit against
    # reference_run: a draw thread slowed by 1 ms per draw and ten repeats at full
    # speed give the same bits, with a ball whose n0 falls inside a chunk and a row
    # whose average overflows mid-chunk
    n_final, n0 = 2000, 1001
    slow = RunPlan(slow_params, cost_model, n_final)
    repel = make_slow_family(mu=(1.0, 0.0), H_diag=(0.5, -1.0))  # repels along the first axis
    sleepy = recast(repel, _HookedDraw, hook=lambda _: time.sleep(1e-3))  # 1 ms per draw
    theta0, cps = blow_up_theta0(repel, 100), geometric_checkpoints(n_final) + (n0 - 1, n0, n0 + 1)
    rec, = check_against_reference([
        (slow_params, n_final, [sleepy] + [repel] * 10, None, theta0, 100, cps, 15,
         median_ball(slow, repel, identity, theta0, 15, n0), {plan_schedule: 0.0}),
    ], cost_model, identity)
    starts = chunk_starts(slow, 100, 2)
    assert {n0 - 1, n0}.isdisjoint(starts)
    assert_rows_leave_the_ball(rec, n0)
    assert_row_4_aborts_mid_chunk(rec, slow)
