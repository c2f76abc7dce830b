import itertools
import tracemalloc

import numpy as np
import pytest

from mlsa.families import EulerSdeFamily, GeometricCostModel, SyntheticGaussianFamily

from conftest import (estimate, level_samples, make_scalar_family, make_slow_family,
                      one_shot_estimate, synthetic_f)


def sample_level_diff(family, theta, k, rng):
    """One sample of the level-k difference (a synthetic family's from the reference law)."""
    return level_samples(family, theta, k, 1, rng)[0]


def scaled_level_covs(family, theta, k_max, samples, rng, beta):
    """cov(F_k - F_{k-1}) * M^(beta k) for k = 1..k_max, one batch of ``samples`` per level."""
    return [np.atleast_2d(np.cov(level_samples(family, theta, k, samples, rng),
                                 rowvar=False)) * family.M ** (beta * k)
            for k in range(1, k_max + 1)]


def test_zero_noise_level_two_increment():
    fam = make_scalar_family(mu=1.0, noise=0.0)
    rng = np.random.default_rng(0)
    val = sample_level_diff(fam, np.array([0.37]), 2, rng)
    # increment M^(-2a) - M^(-a) = 0.25 - 0.5
    assert val == pytest.approx([-0.25], abs=0)
    # the family's estimate gains the same increment from s = 1 to s = 2
    theta = np.array([[0.37]])
    two, one = (estimate(fam, theta, (1,) * s, rng) for s in (2, 1))
    assert np.array_equal(two - one, [[-0.25]])


def test_zero_noise_level_one_at_root():
    fam = make_scalar_family(mu=1.0, noise=0.0)
    rng = np.random.default_rng(0)
    val = sample_level_diff(fam, fam.theta_star, 1, rng)
    assert val == pytest.approx([0.5], abs=0)  # f(theta*) = 0 leaves mu M^-1
    assert np.array_equal(estimate(fam, fam.theta_star[None], (1,), rng), [[0.5]])


def test_level_zero_rejected():
    fam = make_scalar_family()
    with pytest.raises(ValueError, match="level k must be >= 1"):
        sample_level_diff(fam, np.zeros(1), 0, np.random.default_rng(0))
    euler = EulerSdeFamily(drift=0.1, diffusion=0.2, target=1.0)
    with pytest.raises(ValueError, match="level k must be >= 1"):
        euler.sample_level_diff_batch(np.ones(1), 0, 1, np.random.default_rng(0))


def test_level_variance_monte_carlo():
    # closed-form variance at k = 3: M^(-beta k) = 2^-1.5 = 0.35355339
    fam = make_scalar_family(H=-1.0, gamma_var=1.0, beta=0.5, M=2.0)
    rng = np.random.default_rng(42)
    batch = level_samples(fam, fam.theta_star, 3, 10 ** 6, rng)
    assert np.var(batch[:, 0], ddof=1) == pytest.approx(0.35355339, rel=0.01)
    # the family's estimate with one level-3 sample, levels 1 and 2 averaged away
    # (their variances M^(-beta k) / 2^40 add about 1e-12)
    rows = np.tile(fam.theta_star, (10 ** 6, 1))
    zs = estimate(fam, rows, (2 ** 40, 2 ** 40, 1), rng)[:, 0]
    assert np.var(zs, ddof=1) == pytest.approx(0.35355339, rel=0.01)


def test_telescoping_zero_noise():
    fam = make_scalar_family(mu=0.7, noise=0.0)
    theta = np.array([0.4])
    rng = np.random.default_rng(1)
    s = 5
    total = sum(sample_level_diff(fam, theta, k, rng) for k in range(1, s + 1))
    expected = synthetic_f(fam, theta) + 0.7 * 2.0 ** (-1.0 * s)
    np.testing.assert_allclose(total, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(estimate(fam, theta[None], (1,) * s, rng), expected[None],
                               rtol=0, atol=1e-15)


def test_sampling_determinism():
    fam = make_slow_family()
    a = sample_level_diff(fam, np.array([0.1, -0.2]), 4, np.random.default_rng(99))
    b = sample_level_diff(fam, np.array([0.1, -0.2]), 4, np.random.default_rng(99))
    assert np.array_equal(a, b)
    theta, counts = np.array([[0.1, -0.2], [0.3, 0.4]]), (9, 5, 3, 2)
    a, b = (estimate(fam, theta, counts, np.random.default_rng(99)) for _ in range(2))
    assert np.array_equal(a, b)
    euler = EulerSdeFamily(drift=0.1, diffusion=0.2, target=1.0)
    a, b = (euler.ml_estimate(theta[:, :1], counts, np.random.default_rng(99)) for _ in range(2))
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
    # f(theta) = target - theta exp(drift T) has its root at theta* and slope H; with no
    # diffusion the estimate telescopes to the finest level's Euler shortfall
    # target - theta (1 + drift h)^(M^s), which tends to f as s grows
    fam = EulerSdeFamily(drift=0.1, diffusion=0.0, target=2.0)
    assert fam.theta_star[0] == pytest.approx(2.0 * np.exp(-0.1))
    assert fam.H[0, 0] == pytest.approx(-np.exp(0.1))
    rows = np.array([fam.theta_star, fam.theta_star + 1.0])  # one value per (R, 1) row
    for s in (1, 4, 10):
        z = fam.ml_estimate(rows, np.full(s, 3), np.random.default_rng(s))
        np.testing.assert_allclose(z, 2.0 - rows * (1.0 + 0.1 / 2 ** s) ** 2 ** s, rtol=0,
                                   atol=1e-13)
    # the Euler bias theta exp(drift) drift^2 / (2 M^s) at s = 10 is below 2e-5 here
    np.testing.assert_allclose(z, [[0.0], [fam.H[0, 0]]], rtol=0, atol=2e-5)


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
    z_fast = estimate(fam, theta, counts, rng)
    z_slow = one_shot_estimate(fam, theta, counts, np.random.default_rng(1))
    np.testing.assert_allclose(z_fast, z_slow, rtol=0, atol=1e-15)


def test_ml_estimate_block_operand_memo_is_bit_exact():
    # one family per d, called in turn on a 100-row block and a 7-row tail block, its
    # operand memo built and hit at several s: ml_estimate is f(theta) + mu M^(-alpha s)
    # + noise bit for bit, the operations of f in its order
    rng = np.random.default_rng(41)
    for d in (1, 2, 3):
        fam = SyntheticGaussianFamily(theta_star=rng.standard_normal(d),
                                      H=0.5 * rng.standard_normal((d, d)) - np.eye(d),
                                      mu=rng.standard_normal(d), noise_factor=np.eye(d),
                                      alpha=1.0, beta=0.5, M=2.0)
        for s, R in itertools.product((1, 4, 9, 4, 1), (100, 7)):
            theta, noise = rng.standard_normal((2, R, d)) * 10.0 ** rng.uniform(-3, 3, (2, R, d))
            want = synthetic_f(fam, theta) + fam.mu * fam.M ** (-fam.alpha * s) + noise
            assert np.array_equal(fam.ml_estimate(theta, np.ones(s, dtype=np.int64), noise),
                                  want), (d, s, R)


def test_euler_product_matches_step_loop():
    theta, size = np.array([0.9]), 500
    for M, ks in ((2, (1, 3, 6)), (3, (1, 2, 4))):
        fam = EulerSdeFamily(drift=0.05, diffusion=0.2, target=1.0, M=M)
        for k in ks:
            vals = fam.sample_level_diff_batch(theta, k, size, np.random.default_rng(k))[:, 0]
            # reference: the Euler recursion step by step on the same draws
            n_fine = M ** k
            dw = np.sqrt(1.0 / n_fine) * np.random.default_rng(k).standard_normal((size, n_fine))

            def euler(increments, h):
                x = np.full(size, 0.9)
                for i in range(increments.shape[1]):
                    x = x + 0.05 * x * h + 0.2 * x * increments[:, i]
                return x

            ref = 1.0 - euler(dw, 1.0 / n_fine)
            if k > 1:  # coarse step j sums the fine steps jM .. jM + M - 1
                coarse = sum(dw[:, i::M] for i in range(M))
                ref -= 1.0 - euler(coarse, M / n_fine)
            np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=1e-14)


def sample_major_level_diff(fam, x0, k, size, rng):
    """The level-k difference with the increments held sample-major, one
    (size, n_fine) row per sample: the layout the step-major kernel replaced."""
    n_fine = fam.M ** k
    h = fam.T / n_fine
    dw = np.sqrt(h) * rng.standard_normal((size, n_fine))
    xf = x0 * np.prod(1.0 + fam.drift * h + fam.diffusion * dw, axis=1)
    if k == 1:
        return (fam.target - xf)[:, None]
    hc = fam.T / (n_fine // fam.M)
    dwc = dw.reshape(size, n_fine // fam.M, fam.M).sum(axis=2)
    xc = x0 * np.prod(1.0 + fam.drift * hc + fam.diffusion * dwc, axis=1)
    return ((fam.target - xf) - (fam.target - xc))[:, None]


def test_euler_step_major_kernel_is_bit_exact():
    # the same draws, products taken left to right over the same doubles, and coarse
    # sums left to right, which is numpy's own grouping of fewer than 8 terms
    cases = [(M, k, size) for M in (2, 3, 7) for k in range(1, 7) for size in (1, 2, 500)
             if M ** k * size <= 2 ** 22]
    cases += [(2, k, size) for k in range(7, 13) for size in (1, 2, 17)]
    for M, k, size in cases:
        fam = EulerSdeFamily(drift=0.05, diffusion=0.2, target=1.0, M=M)
        seed = [M, k, size]
        got = fam.sample_level_diff_batch(np.array([0.9]), k, size, np.random.default_rng(seed))
        ref = sample_major_level_diff(fam, 0.9, k, size, np.random.default_rng(seed))
        assert got.shape == (size, 1)
        assert np.array_equal(got, ref), (M, k, size)


def test_euler_step_major_kernel_at_eight_term_groups():
    # from M = 8 numpy sums a contiguous group in 8 partial sums, while the kernel
    # sums left to right: each coarse increment moves by about an ulp, and the level
    # difference by a few ulps of its O(1) paths, far below this fixed bound
    fam = EulerSdeFamily(drift=0.05, diffusion=0.2, target=1.0, M=8)
    for k in (1, 2, 3):
        for size in (1, 2, 500):
            got = fam.sample_level_diff_batch(np.array([0.9]), k, size, np.random.default_rng(k))
            ref = sample_major_level_diff(fam, 0.9, k, size, np.random.default_rng(k))
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


def test_euler_estimate_in_draw_cap_batches_matches_one_batch_per_level():
    # level k draws 2^k normals a sample, so a batch holds 2^(16-k) samples: these
    # counts take 1 to 7 batches a level; the same normals are drawn in the same order
    fam = EulerSdeFamily(drift=0.05, diffusion=0.2, target=1.0, M=2)
    theta = np.array([[0.9], [1.1]])
    for counts in ((40_000, 30_000, 20_000), (70_000, 3, 50_000), (5, 4, 3)):
        rng, ref_rng = np.random.default_rng(counts), np.random.default_rng(counts)
        got = fam.ml_estimate(theta, np.array(counts), rng)
        want = one_shot_estimate(fam, theta, counts, ref_rng)
        assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))  # measured: 1 ulp
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if max(counts) < 2 ** 13:  # one batch a level: the same bits
            assert np.array_equal(got, want)


def test_euler_estimate_memory_is_bounded_above_the_draw_cap():
    # 200,000 level-3 samples are 1.6 million normals: about 30 MB drawn in one batch
    fam = EulerSdeFamily(drift=0.05, diffusion=0.2, target=1.0, M=2)
    tracemalloc.start()
    try:
        fam.ml_estimate(np.array([[0.9]]), np.array([1, 1, 200_000]), np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
