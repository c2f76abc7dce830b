import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlsa import ParameterSet, replication_counts

from conftest import SLOW_PINNED, CRITICAL_DEFAULT, make_scalar_family


def test_counts_reference_plan(slow_params_pinned):
    counts = replication_counts(slow_params_pinned, 3, 64.0)
    assert counts == (23, 14, 8)  # 8*2^1.5 -> 23, 8*2^0.75 -> 14, 8
    assert all(type(c) is int for c in counts)


def test_counts_beta_one_independent_of_s(critical_params):
    assert replication_counts(critical_params, 3, 10.0) == (5, 3, 2)  # ceil(10 * 2^-k)
    assert replication_counts(critical_params, 6, 10.0)[:3] == (5, 3, 2)


def test_counts_single_level_unit(slow_params_pinned):
    assert replication_counts(slow_params_pinned, 1, slow_params_pinned.M) == (1,)


def test_counts_integer_tie_is_exact(slow_params_pinned):
    # K / M^s integral: the ceiling must not round it up
    assert replication_counts(slow_params_pinned, 3, 64.0)[-1] == 8


def test_counts_preconditions(slow_params_pinned):
    with pytest.raises(ValueError):
        replication_counts(slow_params_pinned, 0, 8.0)
    with pytest.raises(ValueError):
        replication_counts(slow_params_pinned, 2, 0.0)


@given(st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.5, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_counts_nonincreasing_and_positive(beta, s, K):
    d = dict(SLOW_PINNED if beta < 1 else CRITICAL_DEFAULT)
    d["beta"] = beta
    params = ParameterSet(**d)
    counts = replication_counts(params, s, K)
    assert len(counts) == s
    assert all(c >= 1 for c in counts)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_zero_noise_estimate_at_root(slow_params_pinned):
    fam = make_scalar_family(mu=1.0, noise=0.0)
    counts = replication_counts(slow_params_pinned, 4, 100.0)
    z = fam.ml_estimate(fam.theta_star, counts, np.random.default_rng(0))
    assert z == pytest.approx([2.0 ** -4], abs=0)  # telescoped bias only


def test_zero_noise_estimate_anywhere(slow_params_pinned):
    fam = make_scalar_family(H=-1.0, mu=1.0, noise=0.0)
    theta = np.array([0.62])
    for s in (2, 5):
        counts = replication_counts(slow_params_pinned, s, 37.0)
        z = fam.ml_estimate(theta, counts, np.random.default_rng(0))
        np.testing.assert_allclose(z, fam.f(theta) + 2.0 ** (-s), rtol=0, atol=1e-16)


def test_estimator_variance_closed_form(slow_params_pinned):
    # var(z) = sum_k M^(-beta k)/N_k = 2^-0.5/23 + 2^-1/14 + 2^-1.5/8 = 0.1106523
    fam = make_scalar_family(H=-1.0, gamma_var=1.0, beta=0.5, M=2.0)
    counts = replication_counts(slow_params_pinned, 3, 64.0)
    rng = np.random.default_rng(2024)
    zs = np.array([fam.ml_estimate(fam.theta_star, counts, rng)[0] for _ in range(100_000)])
    assert np.var(zs, ddof=1) == pytest.approx(0.1106523, rel=0.03)


def test_generic_loop_agrees_with_collapse(slow_params_pinned):
    fam = make_scalar_family(H=-1.0, gamma_var=1.0, beta=0.5, M=2.0)
    counts = replication_counts(slow_params_pinned, 3, 64.0)
    base = type(fam).__mro__[1]
    rng = np.random.default_rng(77)
    zs = np.array([base.ml_estimate(fam, fam.theta_star, counts, rng)[0]
                   for _ in range(6000)])
    assert np.var(zs, ddof=1) == pytest.approx(0.1106523, rel=0.10)
    assert np.mean(zs) == pytest.approx(2.0 ** -3, abs=4 * np.sqrt(0.11 / 6000))


def test_unbiasedness_at_finest_level(slow_params_pinned):
    fam = make_scalar_family(H=-1.0, mu=0.8, gamma_var=0.5)
    theta = np.array([0.25])
    counts = replication_counts(slow_params_pinned, 4, 200.0)
    rng = np.random.default_rng(5)
    zs = np.array([fam.ml_estimate(theta, counts, rng)[0] for _ in range(40_000)])
    expected = fam.f(theta)[0] + 0.8 * 2.0 ** -4
    tol = 4 * np.sqrt(np.var(zs) / len(zs))
    assert np.mean(zs) == pytest.approx(expected, abs=tol)
