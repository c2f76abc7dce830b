import math
import tracemalloc

import numpy as np
import pytest

from mlsa.linear import (ContractingMatrix, IllConditionedError, LyapunovNorm, _expm,
                         averaged_operator, exp_product_gap, linear_iterate, lyapunov_norm,
                         product_operator, spectral_abscissa)


def random_contracting(rng, d=None, margin=1.0):
    d = d or int(rng.integers(2, 5))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = -rng.uniform(1.0, 2.5, d)
    H = Q @ np.diag(lam) @ Q.T + 0.3 * rng.standard_normal((d, d))
    ab = spectral_abscissa(H)
    if ab > -margin - 0.05:
        H -= (ab + margin + 0.05) * np.eye(d)
    return H


def scalar_schedule(sched):
    if callable(sched):
        return sched
    arr = np.asarray(sched, dtype=float)
    return lambda n: float(arr[n - 1])


def reference_eps0(cm):
    """lyapunov_norm's eps0 from a scan that evaluates one eps at a time."""
    import scipy.linalg
    H, L, d = cm.H, cm.L, cm.d
    P = scipy.linalg.solve_continuous_lyapunov((H + L * np.eye(d)).T, -np.eye(d))
    P = 0.5 * (P + P.T)
    w = np.linalg.eigvalsh(P)
    if w[0] <= 0 or w[-1] / w[0] > 1e12:
        raise IllConditionedError("ill-conditioned")
    ly = LyapunovNorm(P, eps0=0.0)

    def gap(eps):
        return ly.norm_mat(np.eye(d) + eps * H) - (1.0 - eps * L)

    lo, hi = 0.0, None
    for eps in np.linspace(0.0, 1.0 / L, max(int(1.0 / L / 1e-3), 2) + 1)[1:]:
        if gap(float(eps)) <= 0.0:
            lo = float(eps)
        else:
            hi = float(eps)
            break
    if hi is not None:
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if gap(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
    if lo <= 0.0 or max(gap(float(e)) for e in np.linspace(0.0, lo, 100)) > 1e-10:
        raise IllConditionedError("verification failed")
    return lo


def reference_averaged_operator(H, gamma, b, l, n):
    g, bf = scalar_schedule(gamma), scalar_schedule(b)
    d = H.shape[0]
    prod = np.eye(d)
    acc = bf(l) * prod
    for k in range(l + 1, n + 1):
        prod = prod @ (np.eye(d) + g(k) * H)
        acc = acc + bf(k) * prod
    return (g(l) / bf(l)) * acc


def reference_linear_iterate(H, gamma, b, upsilon_source, n, theta0=None):
    g, bf = scalar_schedule(gamma), scalar_schedule(b)
    theta = np.zeros(H.shape[0]) if theta0 is None else np.array(theta0, dtype=float)
    wsum, b_bar = np.zeros_like(theta), 0.0  # theta_bar_n = b_bar_n^-1 sum_{k<=n} b_k theta_k
    for k in range(1, n + 1):
        ups = upsilon_source(k)
        theta = theta + g(k) * (theta @ H.T + ups)
        wsum = wsum + bf(k) * theta
        b_bar = b_bar + bf(k)
    return theta, wsum / b_bar


def test_contracting_matrix_validation():
    ContractingMatrix(-np.eye(2), 0.5)
    with pytest.raises(ValueError, match="abscissa"):
        ContractingMatrix(-np.eye(2), 1.0)  # not strictly below -L
    with pytest.raises(ValueError):
        ContractingMatrix(np.eye(2), 0.5)


def test_lyapunov_norm_scalar_case():
    ly = lyapunov_norm(ContractingMatrix(np.array([[-2.0]]), 1.0))
    assert ly.eps0 == pytest.approx(2.0 / 3.0, rel=1e-14)  # |1 - 2 eps| <= 1 - eps holds up to 2/3


def test_lyapunov_norm_identity_case():
    ly = lyapunov_norm(ContractingMatrix(-np.eye(2), 0.5))
    # P is a multiple of the identity; |1 - eps| <= 1 - eps / 2 holds up to 4/3
    assert np.allclose(ly.P / ly.P[0, 0], np.eye(2), atol=1e-12)
    assert ly.eps0 == pytest.approx(4.0 / 3.0, rel=1e-14)
    for eps in np.linspace(0, 1, 25):
        assert ly.norm_mat(np.eye(2) - eps * np.eye(2)) <= 1 - 0.5 * eps + 1e-12


def test_lyapunov_norm_beats_euclidean_for_shear():
    H = np.array([[-1.0, 4.0], [0.0, -1.0]])
    cm = ContractingMatrix(H, 0.5)
    eps = 0.05
    assert np.linalg.norm(np.eye(2) + eps * H, 2) > 1 - 0.5 * eps  # euclidean fails
    ly = lyapunov_norm(cm)
    for e in np.linspace(0, ly.eps0, 50):
        assert ly.norm_mat(np.eye(2) + e * H) <= 1 - 0.5 * e + 1e-10
    # the exact radius of the shear [[-1, a], [0, -1]] at L = 1/2, also where a
    # 1e-3 grid scan overshoots it or finds no positive radius at all
    for a in (4.0, 1e3, 1e4, 1e5):
        ly = lyapunov_norm(ContractingMatrix(np.array([[-1.0, a], [0.0, -1.0]]), 0.5))
        assert ly.eps0 == pytest.approx(4.0 / (a * a + a * math.sqrt(a * a + 1) + 3), rel=1e-9)


def test_lyapunov_norm_ill_conditioned_rejected():
    H = np.array([[-1.0, 1e8], [0.0, -1.0]])
    with pytest.raises(IllConditionedError):
        lyapunov_norm(ContractingMatrix(H, 0.5))


def test_lyapunov_norm_matches_scalar_scan():
    rng = np.random.default_rng(17)
    cases = [ContractingMatrix(random_contracting(rng, d=1 + i % 4), 0.8) for i in range(20)]
    # a slow H with a small L: the reference scans a 10^4-point grid
    cases += [ContractingMatrix(0.1 * random_contracting(rng, d=d), 0.1) for d in (2, 4)]
    cases.append(ContractingMatrix(np.array([[-1.0, 1e8], [0.0, -1.0]]), 0.5))
    raised = 0
    for cm in cases:
        try:
            expected = reference_eps0(cm)
        except IllConditionedError:
            with pytest.raises(IllConditionedError):
                lyapunov_norm(cm)
            raised += 1
            continue
        ly = lyapunov_norm(cm)
        assert ly.eps0 == pytest.approx(expected, rel=1e-12)
        # the radius is the largest one: just past it the bound fails
        past = ly.eps0 * (1 + 1e-6)
        if past < 1.0 / cm.L:
            assert ly.norm_mat(np.eye(cm.d) + past * cm.H) > 1.0 - past * cm.L
    assert raised == 1


def test_product_operator_empty_and_scalar():
    H = np.array([[-1.0]])
    assert np.array_equal(product_operator(H, lambda n: 0.5, 3, 3), np.eye(1))
    val = product_operator(H, lambda n: 0.5, 0, 3)[0, 0]
    assert val == pytest.approx(0.125, abs=0)  # (1 - 0.5)^3
    with pytest.raises(ValueError, match="1-based"):
        product_operator(H, [0.1, 0.2, 0.3], -1, 2)  # would read gamma_0 = arr[-1]
    with pytest.raises(ValueError, match="3 values.* 5"):
        product_operator(H, [0.1, 0.2, 0.3], 0, 5)


def test_product_operator_contraction_in_lyapunov_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        H = random_contracting(rng)
        cm = ContractingMatrix(H, 1.0)
        ly = lyapunov_norm(cm)
        gammas = ly.eps0 * (np.arange(1, 41, dtype=float)) ** -0.6
        for k in (5, 20, 40):
            prod = product_operator(H, gammas, 0, k)
            bound = np.prod(1.0 - gammas[:k] * cm.L)
            assert ly.norm_mat(prod) <= bound + 1e-10


def test_averaged_operator_single_term():
    H = np.array([[-1.0]])
    out = averaged_operator(H, lambda n: n ** -0.5, lambda n: n ** 2.0, 7, 7)
    assert out[0, 0] == pytest.approx(7.0 ** -0.5, abs=0)  # gamma_l times identity


def test_averaged_operator_matches_scalar_loop():
    rng = np.random.default_rng(23)
    idx = np.arange(1, 1201, dtype=float)
    for i in range(8):
        H = random_contracting(rng, d=1 + i % 4)
        for gamma, b in ((lambda k: k ** (-1.0 / 3.0), lambda k: 1.0),
                         (lambda k: k ** -0.75, lambda k: k ** 2.0),
                         (idx ** -0.6, idx ** 1.5)):
            for l, n in ((1, 1), (7, 900), (200, 1200)):
                assert np.array_equal(averaged_operator(H, gamma, b, l, n),
                                      reference_averaged_operator(H, gamma, b, l, n))
    with pytest.raises(ValueError, match="1200 values.* 1201"):
        averaged_operator(H, idx ** -0.6, idx, 1, 1201)


def test_averaged_operator_scalar_path_bitwise_at_criterion_7_horizon():
    # d = 1 takes one cumulative product, d >= 2 the np.dot chain; criterion 7 calls both
    # at (200, 2e4)
    rng = np.random.default_rng(7)
    Hs = [np.array([[h]]) for h in (-1.0, -0.37, -2.5)] + [random_contracting(rng, d=d)
                                                             for d in (2, 3, 4)]
    for H in Hs:
        for gamma, b in ((lambda k: k ** (-1.0 / 3.0), lambda k: 1.0),
                         (lambda k: k ** -0.75, lambda k: k ** 2.0)):
            assert np.array_equal(averaged_operator(H, gamma, b, 200, 20000),
                                  reference_averaged_operator(H, gamma, b, 200, 20000))


def test_averaged_operator_peak_is_two_stacks():
    # the steps and their running products, each an (n - l + 1, d, d) stack, and the two
    # schedule vectors; a list of the products copied into a third stack exceeds it
    rng = np.random.default_rng(11)
    gamma, b, l, n = (lambda k: k ** (-1.0 / 3.0)), (lambda k: 1.0), 200, 5000
    for d in (2, 4):
        H = random_contracting(rng, d=d)
        averaged_operator(H, gamma, b, l, n)  # untraced first call: numpy's lazy set-up
        tracemalloc.start()
        try:
            averaged_operator(H, gamma, b, l, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n - l + 1) * (2 * d * d + 2) + 2 ** 16


def test_averaged_operator_and_linear_iterate_leave_ndarray_schedules_unchanged():
    # an ndarray schedule is read through views of the caller's array
    rng = np.random.default_rng(13)
    idx = np.arange(1, 401, dtype=float)
    gamma, b = idx ** -0.6, idx ** 1.5
    kept = gamma.copy(), b.copy()
    for d in (1, 3):
        H = random_contracting(rng, d=d)
        averaged_operator(H, gamma, b, 7, 400)
        linear_iterate(H, gamma, b, lambda k: np.ones(d), 400)
        assert np.array_equal(gamma, kept[0]) and np.array_equal(b, kept[1])


def test_averaged_operator_regression_heavy_weights():
    # with gamma = k^-0.75 and b = k^2 the operator at (200, 2e4) is still far
    # from -H^-1 = 1: the weight growth dominates the elapsed ODE time scale
    val = averaged_operator(np.array([[-1.0]]), lambda n: n ** -0.75,
                            lambda n: n ** 2.0, 200, 20000)[0, 0]
    assert val == pytest.approx(2.74949, rel=1e-4)


def test_averaged_operator_standard_schedule_limit():
    val = averaged_operator(np.array([[-1.0]]), lambda n: n ** (-1.0 / 3.0),
                            lambda n: 1.0, 200, 20000)[0, 0]
    assert abs(val - 1.0) <= 0.013  # frozen: 1.00967


def test_averaged_operator_monotone_envelope():
    # ||Hbar[l(n), n] + H^-1|| with l(n) = n/4 shrinks along the scan
    H = np.array([[-1.0]])
    errs = []
    for n in (1000, 4000, 16000):
        val = averaged_operator(H, lambda k: k ** (-1.0 / 3.0), lambda k: 1.0, n // 4, n)
        errs.append(abs(val[0, 0] - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 0.02


def test_exp_product_gap_scalar_reference():
    cm = ContractingMatrix(np.array([[-1.0]]), 0.5)
    actual, bound = exp_product_gap(cm, lambda n: 0.1, 0, 10)
    assert actual == pytest.approx(abs(math.exp(-1.0) - 0.9 ** 10), rel=1e-10)
    assert actual == pytest.approx(0.019201, rel=1e-4)
    assert bound >= actual


def test_expm_matches_scipy():
    # random, strongly non-normal and Jordan-block matrices of d = 1..6, scaled to
    # ||X||_1 from 1e-6 to 40: within 1e-11 of scipy.linalg.expm in relative 1-norm
    import scipy.linalg
    rng = np.random.default_rng(4)
    for d in range(1, 7):
        upper = 10.0 * np.triu(rng.standard_normal((d, d)), 1)  # far from normal
        non_normal = np.diag(rng.uniform(-3.0, 1.0, d)) + upper
        for X in (rng.standard_normal((d, d)), non_normal, np.eye(d, k=1) - np.eye(d)):
            for norm in np.geomspace(1e-6, 40.0, 9):
                Y = X * (norm / np.linalg.norm(X, 1))
                ref = scipy.linalg.expm(Y)
                assert np.linalg.norm(_expm(Y) - ref, 1) <= 1e-11 * np.linalg.norm(ref, 1)


def test_exp_product_gap_empty():
    cm = ContractingMatrix(np.array([[-1.0]]), 0.5)
    assert exp_product_gap(cm, lambda n: 0.1, 4, 4) == (0.0, 0.0)


def test_exp_product_gap_requires_small_steps():
    cm = ContractingMatrix(np.array([[-1.0]]), 0.5)
    ly = lyapunov_norm(cm)
    with pytest.raises(ValueError, match="eps0"):
        exp_product_gap(cm, lambda n: 10.0, 0, 5, lyap=ly)
    with pytest.raises(ValueError, match="1-based"):
        exp_product_gap(cm, [0.1, 0.1, 0.1], -1, 2, lyap=ly)
    with pytest.raises(ValueError, match="2 values.* 5"):
        exp_product_gap(cm, [0.1, 0.1], 0, 5, lyap=ly)


def test_exp_product_gap_bound_dominates_random():
    rng = np.random.default_rng(9)
    for _ in range(15):
        H = random_contracting(rng)
        cm = ContractingMatrix(H, 1.0)
        ly = lyapunov_norm(cm)
        c = 0.9 * ly.eps0
        gamma = lambda n, c=c: c * n ** -0.7
        r = int(rng.integers(0, 5))
        m = r + int(rng.integers(1, 30))
        actual, bound = exp_product_gap(cm, gamma, r, m, lyap=ly)
        assert actual <= bound


def test_linear_iterate_fixed_point():
    theta, theta_bar = linear_iterate(np.array([[-1.0]]), lambda n: n ** -0.5,
                                      lambda n: 1.0, lambda k: np.zeros(1), 200)
    assert np.array_equal(theta, np.zeros(1))
    assert np.array_equal(theta_bar, np.zeros(1))


def test_linear_iterate_matches_scalar_loop():
    n = 600
    idx = np.arange(1, n + 1, dtype=float)
    rng = np.random.default_rng(29)
    for shape in ((3,), (40, 3)):
        H = random_contracting(rng, d=3)
        noise = 0.3 * rng.standard_normal((n,) + shape)
        theta0 = rng.standard_normal(shape)
        for gamma, b in ((idx ** -0.5, idx ** 2.0), (lambda k: k ** -0.6, lambda k: 1.0)):
            got = linear_iterate(H, gamma, b, lambda k: noise[k - 1], n, theta0=theta0)
            want = reference_linear_iterate(H, gamma, b, lambda k: noise[k - 1], n, theta0=theta0)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    with pytest.raises(ValueError, match="600 values.* 601"):
        linear_iterate(H, idx ** -0.5, idx, lambda k: noise[0], n + 1, theta0=theta0)
    for bad in (0, -1):  # no step to take: named, not an IndexError
        with pytest.raises(ValueError, match=f"n = {bad}"):
            linear_iterate(H, idx ** -0.5, idx, lambda k: noise[0], bad, theta0=theta0)


def test_linear_iterate_broadcasts_default_start_to_batched_innovations():
    # theta0 = None starts one (d,) state that step 1 broadcasts to the (R, d) innovations
    n = 600
    idx = np.arange(1, n + 1, dtype=float)
    rng = np.random.default_rng(37)
    for d in (1, 3):
        H = random_contracting(rng, d=d)
        noise = 0.3 * rng.standard_normal((n, 40, d))
        got = linear_iterate(H, idx ** -0.5, idx ** 2.0, lambda k: noise[k - 1], n)
        want = reference_linear_iterate(H, idx ** -0.5, idx ** 2.0, lambda k: noise[k - 1], n)
        assert got[0].shape == got[1].shape == (40, d)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_linear_iterate_deterministic_drift_limit():
    # Upsilon_k = k^-0.3 mu: the normalized average approaches -H^-1 mu = mu
    n = 20000
    mu = 0.7
    idx = np.arange(1, n + 1, dtype=float)
    delta = idx ** -0.3
    _, theta_bar = linear_iterate(np.array([[-1.0]]), idx ** -0.5, idx ** 2.0,
                                  lambda k: np.array([delta[k - 1] * mu]), n)
    b = idx ** 2.0
    norm = float(np.sum(b * delta) / np.sum(b))
    assert theta_bar[0] / norm == pytest.approx(mu, rel=0.01)


def test_linear_iterate_batched_variance():
    n, R = 20000, 400
    idx = np.arange(1, n + 1, dtype=float)
    delta = idx ** -0.3
    rng = np.random.default_rng(31)
    _, theta_bar = linear_iterate(
        np.array([[-1.0]]), idx ** -0.5, idx ** 2.0,
        lambda k: delta[k - 1] * rng.standard_normal((R, 1)), n,
        theta0=np.zeros((R, 1)))
    b = idx ** 2.0
    sigma = math.sqrt(float(np.sum((b * delta) ** 2))) / float(np.sum(b))
    sample_var = np.var(theta_bar[:, 0] / sigma, ddof=1)
    assert sample_var == pytest.approx(1.0, abs=0.2)  # target H^-2 Gamma = 1


def test_linear_iterate_aborts_on_blowup():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RuntimeError):
        linear_iterate(np.array([[4.0]]), lambda n: 1.0, lambda n: 1.0,
                       lambda k: np.array([1.0]), 9000)
