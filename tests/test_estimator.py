import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlsa.params import ParameterSet, replication_counts, schedule_arrays

from conftest import (SLOW_PINNED, CRITICAL_DEFAULT, estimate, make_scalar_family,
                      one_shot_estimate, reference_counts, synthetic_f)


def counts_row(params, s, K):
    """(N_1, ..., N_s) as Python ints, from the one-row counts matrix."""
    return tuple(replication_counts(params, s, K)[0].tolist())


def test_counts_reference_plan(slow_params_pinned):
    matrix = replication_counts(slow_params_pinned, 3, 64.0)
    assert matrix.shape == (1, 3) and matrix.dtype == np.int64
    assert counts_row(slow_params_pinned, 3, 64.0) == (23, 14, 8)  # 8*2^1.5 -> 23, 8*2^0.75 -> 14, 8


def test_counts_beta_one_independent_of_s(critical_params):
    assert counts_row(critical_params, 3, 10.0) == (5, 3, 2)  # ceil(10 * 2^-k)
    assert counts_row(critical_params, 6, 10.0)[:3] == (5, 3, 2)


def test_counts_single_level_unit(slow_params_pinned):
    assert counts_row(slow_params_pinned, 1, slow_params_pinned.M) == (1,)


def test_counts_integer_tie_is_exact(slow_params_pinned):
    # K / M^s integral: the ceiling must not round it up
    assert counts_row(slow_params_pinned, 3, 64.0)[-1] == 8


def test_counts_preconditions(slow_params_pinned):
    with pytest.raises(ValueError):
        replication_counts(slow_params_pinned, 0, 8.0)
    with pytest.raises(ValueError):
        replication_counts(slow_params_pinned, 2, 0.0)
    with pytest.raises(ValueError):
        replication_counts(slow_params_pinned, [2, 0], [8.0, 8.0])


@given(st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.5, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_counts_nonincreasing_and_positive(beta, s, K):
    d = dict(SLOW_PINNED if beta < 1 else CRITICAL_DEFAULT)
    d["beta"] = beta
    params = ParameterSet(**d)
    counts = counts_row(params, s, K)
    assert counts == reference_counts(params, s, K)
    assert len(counts) == s
    assert all(c >= 1 for c in counts)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_counts_matrix_matches_scalar_rows(slow_params, critical_params):
    # one matrix for a whole run, row n zero-padded past s_n
    for params in (slow_params, critical_params):
        arr = schedule_arrays(params, 3000)
        matrix = replication_counts(params, arr["s"], arr["K"])
        assert matrix.shape == (3000, arr["s"].max())
        for i in range(0, 3000, 7):
            s = int(arr["s"][i])
            assert tuple(matrix[i, :s].tolist()) == reference_counts(params, s, float(arr["K"][i]))
            assert not matrix[i, s:].any()


def test_zero_noise_estimate_at_root(slow_params_pinned):
    fam = make_scalar_family(mu=1.0, noise=0.0)
    counts = counts_row(slow_params_pinned, 4, 100.0)
    z = estimate(fam, fam.theta_star[None], counts, np.random.default_rng(0))
    assert z.shape == (1, 1)
    assert z[0] == pytest.approx([2.0 ** -4], abs=0)  # telescoped bias only


def test_zero_noise_estimate_anywhere(slow_params_pinned):
    fam = make_scalar_family(H=-1.0, mu=1.0, noise=0.0)
    theta = np.array([[0.62], [-0.3]])
    for s in (2, 5):
        counts = counts_row(slow_params_pinned, s, 37.0)
        z = estimate(fam, theta, counts, np.random.default_rng(0))
        np.testing.assert_allclose(z, synthetic_f(fam, theta) + 2.0 ** (-s), rtol=0, atol=1e-16)


def test_estimator_variance_closed_form(slow_params_pinned):
    # var(z) = sum_k M^(-beta k)/N_k = 2^-0.5/23 + 2^-1/14 + 2^-1.5/8 = 0.1106523
    fam = make_scalar_family(H=-1.0, gamma_var=1.0, beta=0.5, M=2.0)
    counts = counts_row(slow_params_pinned, 3, 64.0)
    rows = np.tile(fam.theta_star, (100_000, 1))
    zs = estimate(fam, rows, counts, np.random.default_rng(2024))[:, 0]
    assert np.var(zs, ddof=1) == pytest.approx(0.1106523, rel=0.03)


def test_generic_loop_agrees_with_collapse(slow_params_pinned):
    # the per-sample reference law, N_k samples a level, and the family's one-draw
    # collapse give the same mean and variance
    fam = make_scalar_family(H=-1.0, gamma_var=1.0, beta=0.5, M=2.0)
    counts = counts_row(slow_params_pinned, 3, 64.0)
    rows = np.tile(fam.theta_star, (6000, 1))
    for zs in (one_shot_estimate(fam, rows, counts, np.random.default_rng(77))[:, 0],
               estimate(fam, rows, counts, np.random.default_rng(77))[:, 0]):
        assert np.var(zs, ddof=1) == pytest.approx(0.1106523, rel=0.10)
        assert np.mean(zs) == pytest.approx(2.0 ** -3, abs=4 * np.sqrt(0.11 / 6000))


def test_unbiasedness_at_finest_level(slow_params_pinned):
    fam = make_scalar_family(H=-1.0, mu=0.8, gamma_var=0.5)
    theta = np.array([0.25])
    counts = counts_row(slow_params_pinned, 4, 200.0)
    rows = np.tile(theta, (40_000, 1))
    zs = estimate(fam, rows, counts, np.random.default_rng(5))[:, 0]
    expected = synthetic_f(fam, theta)[0] + 0.8 * 2.0 ** -4
    tol = 4 * np.sqrt(np.var(zs) / len(zs))
    assert np.mean(zs) == pytest.approx(expected, abs=tol)
