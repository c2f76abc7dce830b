import math

import numpy as np
import pytest

from mlsa import (ContractingMatrix, IllConditionedError, averaged_operator,
                  exp_lemma_gaps, exp_product_gap, linear_iterate, lyapunov_norm,
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


def test_contracting_matrix_validation():
    ContractingMatrix(-np.eye(2), 0.5)
    with pytest.raises(ValueError, match="abscissa"):
        ContractingMatrix(-np.eye(2), 1.0)  # not strictly below -L
    with pytest.raises(ValueError):
        ContractingMatrix(np.eye(2), 0.5)


def test_lyapunov_norm_scalar_case():
    ly = lyapunov_norm(ContractingMatrix(np.array([[-2.0]]), 1.0))
    assert ly.eps0 >= 0.5  # |1 - 2 eps| <= 1 - eps holds up to 2/3
    assert ly.eps0 <= 2.0 / 3.0 + 1e-6


def test_lyapunov_norm_identity_case():
    ly = lyapunov_norm(ContractingMatrix(-np.eye(2), 0.5))
    # P is a multiple of the identity; the bound holds on all of [0, 1]
    assert np.allclose(ly.P / ly.P[0, 0], np.eye(2), atol=1e-12)
    assert ly.eps0 >= 1.0
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


def test_lyapunov_norm_ill_conditioned_rejected():
    H = np.array([[-1.0, 1e8], [0.0, -1.0]])
    with pytest.raises(IllConditionedError):
        lyapunov_norm(ContractingMatrix(H, 0.5))


def test_product_operator_empty_and_scalar():
    H = np.array([[-1.0]])
    assert np.array_equal(product_operator(H, lambda n: 0.5, 3, 3), np.eye(1))
    val = product_operator(H, lambda n: 0.5, 0, 3)[0, 0]
    assert val == pytest.approx(0.125, abs=0)  # (1 - 0.5)^3


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


def test_exp_product_gap_empty():
    cm = ContractingMatrix(np.array([[-1.0]]), 0.5)
    assert exp_product_gap(cm, lambda n: 0.1, 4, 4) == (0.0, 0.0)


def test_exp_product_gap_requires_small_steps():
    cm = ContractingMatrix(np.array([[-1.0]]), 0.5)
    ly = lyapunov_norm(cm)
    with pytest.raises(ValueError, match="eps0"):
        exp_product_gap(cm, lambda n: 10.0, 0, 5, lyap=ly)


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


def test_exp_lemma_values():
    g1, g1b, g2, g2b = exp_lemma_gaps(np.zeros((2, 2)))
    assert (g1, g1b, g2, g2b) == (0.0, 0.0, 0.0, 0.0)
    g1, g1b, g2, g2b = exp_lemma_gaps(np.array([[1.0]]))
    assert g1 == pytest.approx(math.e - 1, rel=1e-10)
    assert g1b == pytest.approx(math.e, rel=1e-10)
    assert g2 == pytest.approx(math.e - 2, rel=1e-10)
    assert g2b == pytest.approx(math.e / 2, rel=1e-10)


def test_exp_lemma_inequalities_random():
    rng = np.random.default_rng(12)
    for _ in range(100):
        A = rng.standard_normal((3, 3))
        A *= rng.uniform(0, 2.0) / max(np.linalg.norm(A, 2), 1e-12)
        g1, g1b, g2, g2b = exp_lemma_gaps(A)
        assert g1 <= g1b + 1e-12
        assert g2 <= g2b + 1e-12


def test_linear_iterate_fixed_point():
    theta, theta_bar = linear_iterate(np.array([[-1.0]]), lambda n: n ** -0.5,
                                      lambda n: 1.0, lambda k: np.zeros(1), 200)
    assert np.array_equal(theta, np.zeros(1))
    assert np.array_equal(theta_bar, np.zeros(1))


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
