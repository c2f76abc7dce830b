import numpy as np
import pytest

from mlsa import EulerSdeFamily, GeometricCostModel

from conftest import make_scalar_family, make_slow_family


def sample_level_diff(family, theta, k, rng):
    """One sample of the level-k difference."""
    return family.sample_level_diff_batch(np.asarray(theta, dtype=float), k, 1, rng)[0]


def scaled_level_covs(family, theta, k_max, samples, rng, beta):
    """cov(F_k - F_{k-1}) * M^(beta k) for k = 1..k_max, one batch of ``samples`` per level."""
    return [np.atleast_2d(np.cov(family.sample_level_diff_batch(theta, k, samples, rng),
                                 rowvar=False)) * family.M ** (beta * k)
            for k in range(1, k_max + 1)]


def test_zero_noise_level_two_increment():
    fam = make_scalar_family(mu=1.0, noise=0.0)
    rng = np.random.default_rng(0)
    val = sample_level_diff(fam, np.array([0.37]), 2, rng)
    # increment M^(-2a) - M^(-a) = 0.25 - 0.5
    assert val == pytest.approx([-0.25], abs=0)


def test_zero_noise_level_one_at_root():
    fam = make_scalar_family(mu=1.0, noise=0.0)
    rng = np.random.default_rng(0)
    val = sample_level_diff(fam, fam.theta_star, 1, rng)
    assert val == pytest.approx([0.5], abs=0)  # f(theta*) = 0 leaves mu M^-1


def test_level_zero_rejected():
    fam = make_scalar_family()
    with pytest.raises(ValueError):
        sample_level_diff(fam, np.zeros(1), 0, np.random.default_rng(0))


def test_level_variance_monte_carlo():
    # closed-form variance at k = 3: M^(-beta k) = 2^-1.5 = 0.35355339
    fam = make_scalar_family(H=-1.0, gamma_var=1.0, beta=0.5, M=2.0)
    rng = np.random.default_rng(42)
    batch = fam.sample_level_diff_batch(fam.theta_star, 3, 10 ** 6, rng)
    assert np.var(batch[:, 0], ddof=1) == pytest.approx(0.35355339, rel=0.01)


def test_telescoping_zero_noise():
    fam = make_scalar_family(mu=0.7, noise=0.0)
    theta = np.array([0.4])
    rng = np.random.default_rng(1)
    s = 5
    total = sum(sample_level_diff(fam, theta, k, rng) for k in range(1, s + 1))
    expected = fam.f(theta) + 0.7 * 2.0 ** (-1.0 * s)
    np.testing.assert_allclose(total, expected, rtol=0, atol=1e-15)


def test_sampling_determinism():
    fam = make_slow_family()
    a = sample_level_diff(fam, np.array([0.1, -0.2]), 4, np.random.default_rng(99))
    b = sample_level_diff(fam, np.array([0.1, -0.2]), 4, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_order_check_synthetic_matches_gamma():
    fam = make_slow_family()
    covs = scaled_level_covs(fam, fam.theta_star, 5, 40_000, np.random.default_rng(3), fam.beta)
    for cov in covs:
        np.testing.assert_allclose(cov, fam.Gamma, atol=0.05)


def test_order_check_euler_variance_ratio():
    fam = EulerSdeFamily(drift=0.05, diffusion=0.2, target=1.0)
    rows = scaled_level_covs(fam, np.array([1.0]), 8, 2000, np.random.default_rng(11), 1.0)
    covs = [cov[0, 0] for cov in rows[1:]]  # level 1 is the raw payoff
    for a, b in zip(covs, covs[1:]):
        assert 0.5 <= b / a <= 2.0


def test_euler_coupling_zero_diffusion_deterministic():
    fam = EulerSdeFamily(drift=0.3, diffusion=0.0, target=1.0)
    theta = np.array([1.0])
    v1 = sample_level_diff(fam, theta, 4, np.random.default_rng(0))
    v2 = sample_level_diff(fam, theta, 4, np.random.default_rng(12345))
    assert np.array_equal(v1, v2)  # draws are consumed but cannot affect the value
    # the shortfall payoff negates the deterministic Euler discretization gap
    def euler_gap(steps):
        h = 1.0 / steps
        return (1 + 0.3 * h) ** steps
    expected = -(euler_gap(16) - euler_gap(8))
    assert v1[0] == pytest.approx(expected, rel=1e-12)


def test_euler_shortfall_root_and_slope():
    fam = EulerSdeFamily(drift=0.1, diffusion=0.2, target=2.0)
    np.testing.assert_allclose(fam.f(fam.theta_star), [0.0], atol=1e-14)
    assert fam.H[0, 0] == pytest.approx(-np.exp(0.1))
    rows = np.array([fam.theta_star, fam.theta_star + 1.0])  # one f value per (R, 1) row
    np.testing.assert_allclose(fam.f(rows), [[0.0], [-np.exp(0.1)]], atol=1e-14)


def test_euler_rejects_nonintegral_scale():
    with pytest.raises(ValueError):
        EulerSdeFamily(drift=0.1, diffusion=0.2, target=1.0, M=1)


def test_cost_model_values():
    cm = GeometricCostModel(kappa_C=1.0, M=2.0)
    assert cm.level_cost(3) == 8.0
    assert cm.level_cost(1) == 2.0
    assert GeometricCostModel(kappa_C=2.5, M=4.0).level_cost(2) == 40.0
    with pytest.raises(ValueError):
        cm.level_cost(0)


def test_generic_estimate_matches_collapse_at_zero_noise():
    fam = make_scalar_family(mu=0.9, noise=0.0)
    theta = np.array([[0.3], [-0.8]])
    counts = (7, 4, 2)
    rng = np.random.default_rng(0)
    z_fast = fam.ml_estimate(theta, counts, rng)
    z_slow = super(type(fam), fam).ml_estimate(theta, counts, np.random.default_rng(1))
    np.testing.assert_allclose(z_fast, z_slow, rtol=0, atol=1e-15)


def test_euler_product_matches_step_loop():
    fam = EulerSdeFamily(drift=0.05, diffusion=0.2, target=1.0)
    theta, size = np.array([0.9]), 500
    for k in (1, 3, 6):
        vals = fam.sample_level_diff_batch(theta, k, size, np.random.default_rng(k))[:, 0]
        # reference: the Euler recursion step by step on the same draws
        n_fine = 2 ** k
        dw = np.sqrt(1.0 / n_fine) * np.random.default_rng(k).standard_normal((size, n_fine))

        def euler(increments, h):
            x = np.full(size, 0.9)
            for i in range(increments.shape[1]):
                x = x + 0.05 * x * h + 0.2 * x * increments[:, i]
            return x

        ref = 1.0 - euler(dw, 1.0 / n_fine)
        if k > 1:
            ref -= 1.0 - euler(dw.reshape(size, n_fine // 2, 2).sum(axis=2), 2.0 / n_fine)
        np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=1e-14)
