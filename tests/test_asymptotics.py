import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlsa import (ParameterSet, oracle_eps_bias, oracle_eps_diff, predict_critical,
                  predict_slow, psi, rates)
from mlsa.asymptotics import predictions_csv

from conftest import SLOW_PINNED


def test_psi_reference_values():
    assert psi(1.0, 0.5, 2.0, 0.0) == pytest.approx(0.5469182, rel=1e-6)
    assert psi(1.0, 0.5, 2.0, 0.5) == pytest.approx(0.5714923, rel=1e-6)


def test_psi_endpoint_identity_exact():
    assert psi(1.0, 0.5, 2.0, 1.0) == pytest.approx(psi(1.0, 0.5, 2.0, 0.0), rel=1e-14)


def test_psi_domain_errors():
    with pytest.raises(ValueError):
        psi(-1.0, -2.0, 2.0, 0.5)  # u <= 0
    with pytest.raises(ValueError):
        psi(1.0, 1.5, 2.0, 0.5)  # u - v <= 0
    with pytest.raises(ValueError):
        psi(1.0, -1.0, 2.0, 0.5)  # u + v = 0: denominator vanishes
    with pytest.raises(ValueError):
        psi(1.0, 0.5, 2.0, 1.5)  # z outside [0, 1]
    with pytest.raises(ValueError):
        psi(1.0, 0.5, 1.0, 0.5)  # M must exceed 1


@given(st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=1.1, max_value=8.0))
@settings(max_examples=300, deadline=None)
@example(u=0.0546875, v=-4.0, M=8.0)  # u + v very negative: the bracket once cancelled to 1e-12
def test_psi_periodicity_property(u, v, M):
    if u - v <= 1e-9 or abs(u + v) < 1e-6:
        return
    a, b = psi(u, v, M, 1.0), psi(u, v, M, 0.0)
    assert abs(a / b - 1.0) <= 1e-12


def test_psi_smooth_on_unit_grid():
    # curvature proxy: second differences on a 1e4-point grid stay tiny
    z = np.linspace(0.0, 1.0, 10 ** 4)
    for (u, v) in [(2.5, -1.0), (2.5, 0.5), (1.2, 0.7)]:
        vals = np.array([psi(u, v, 2.0, t) for t in z])
        second = np.abs(np.diff(vals, 2)) / vals[1:-1]
        assert second.max() <= 1e-6


def test_rates_reference_values(slow_params_pinned):
    rb = rates(slow_params_pinned)
    assert rb.r == pytest.approx(0.4, abs=0)
    assert rb.r1 == pytest.approx(2.5, abs=0)
    assert rb.r2 == pytest.approx(2.5, abs=0)


@given(st.floats(min_value=0.6, max_value=2.0), st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_rates_invariants(alpha, beta, extra_phi):
    phi = 1.0 / (2 * alpha - beta) + extra_phi
    p = ParameterSet(regime="slow", alpha=alpha, beta=beta, M=2.0, phi=phi, rho=phi,
                     psi=0.9, kappa_K=1.0, kappa_s=1.0, kappa_C=1.0, lam=1.0)
    rb = rates(p)
    assert 0.0 < rb.r < 0.5
    assert rb.r1 > alpha
    assert rb.r2 > 0.0
    assert rb.r1 == pytest.approx(rb.r2, rel=1e-12)  # rho = phi


def test_predicted_cost_reference(slow_params_pinned):
    pred = predict_slow(slow_params_pinned, 10 ** 4)
    assert pred.predicted_cost == pytest.approx(6.28521e12, rel=1e-5)


def test_prediction_continuous_across_level_jumps(slow_params_pinned):
    # psi(1) = psi(0) removes the would-be O(1) jump when s_n increments
    prev = predict_slow(slow_params_pinned, 200)
    for n in range(201, 4000):
        cur = predict_slow(slow_params_pinned, n)
        if cur.s == prev.s + 1:
            assert abs(cur.eps_bias / prev.eps_bias - 1) < 0.02
            assert abs(cur.eps_diff / prev.eps_diff - 1) < 0.02
        prev = cur


def test_pre_asymptotic_flagged():
    p = ParameterSet(**dict(SLOW_PINNED, kappa_s=1e-3))
    assert predict_slow(p, 1).pre_asymptotic
    assert not predict_slow(p, 10 ** 4).pre_asymptotic


def test_oracle_bias_constant_level_segment():
    p = ParameterSet(**dict(SLOW_PINNED, kappa_s=1e-3))
    # s_k = 1 for all k <= 50, so the weighted average is exactly M^-alpha
    assert oracle_eps_bias(p, 50) == pytest.approx(0.5, rel=1e-14)


def test_oracle_bias_nonincreasing(slow_params_pinned):
    vals = [oracle_eps_bias(slow_params_pinned, n) for n in range(2, 800)]
    assert all(b <= a * (1 + 1e-13) for a, b in zip(vals, vals[1:]))


def test_oracle_rejects_oversized_n(slow_params_pinned):
    with pytest.raises(ValueError):
        oracle_eps_bias(slow_params_pinned, 10 ** 7 + 1)


def test_slow_predict_vs_oracle_midrange(slow_params_pinned):
    n = 10 ** 5
    assert predict_slow(slow_params_pinned, n).eps_bias / oracle_eps_bias(
        slow_params_pinned, n) == pytest.approx(1.0, abs=0.02)
    assert predict_slow(slow_params_pinned, n).eps_diff / oracle_eps_diff(
        slow_params_pinned, n) == pytest.approx(1.0, abs=0.02)


GRID = [
    dict(SLOW_PINNED),
    dict(SLOW_PINNED, rho=3.0, psi=0.6, kappa_s=2.0, kappa_K=1.5),
    dict(SLOW_PINNED, alpha=0.75, beta=0.4, psi=0.7),
    dict(SLOW_PINNED, alpha=1.25, beta=0.8, phi=1.5, psi=0.85, kappa_s=4.0, kappa_K=0.5),
    dict(SLOW_PINNED, beta=0.25, phi=1.2, rho=1.0, psi=0.8, kappa_K=2.0),
]


@pytest.mark.parametrize("overrides", GRID)
def test_slow_predict_vs_oracle_grid_at_1e6(overrides):
    p = ParameterSet(**overrides)
    n = 10 ** 6
    rb = predict_slow(p, n).eps_bias / oracle_eps_bias(p, n)
    rd = predict_slow(p, n).eps_diff / oracle_eps_diff(p, n)
    assert 0.98 <= rb <= 1.02
    assert 0.98 <= rd <= 1.02


def test_critical_reference_value(critical_params_pinned):
    # (1/sqrt(2)) * 1e-4.5 * sqrt(3 log2 1000) = 1.2227e-4
    pred = predict_critical(critical_params_pinned, 10 ** 3)
    assert pred.eps_diff == pytest.approx(1.2227e-4, rel=1e-4)
    assert pred.eps_bias is None
    assert pred.eps_bias_cost_form is None


def test_critical_doubling_identity(critical_params_pinned):
    p = critical_params_pinned
    for n in (64, 1000, 5000):
        a = predict_critical(p, n).eps_diff
        b = predict_critical(p, 2 * n).eps_diff
        factor = 2.0 ** (-(p.phi + 1) / 2) * math.sqrt(math.log(2.0 * n) / math.log(n))
        assert b / a == pytest.approx(factor, rel=1e-12)


def test_critical_prefactor_is_one_for_equal_exponents(critical_params_pinned):
    p = critical_params_pinned  # rho = phi
    n = 500
    bare = (1 / math.sqrt(2 * p.alpha * p.kappa_K) * float(n) ** (-(p.phi + 1) / 2)
            * math.sqrt((p.phi + 1) * math.log(n) / math.log(p.M)))
    assert predict_critical(p, n).eps_diff == pytest.approx(bare, rel=1e-12)


def test_critical_rejects_n_one(critical_params_pinned):
    with pytest.raises(ValueError):
        predict_critical(critical_params_pinned, 1)


def test_critical_oracle_two_term_sum(critical_params_pinned):
    # at n = 2 only the k = 2 term survives (log_M 1 = 0)
    p = critical_params_pinned
    b2 = 2.0 ** p.rho
    d2 = math.sqrt((2 * p.alpha * p.kappa_K) ** -1 * 2.0 ** -p.phi * 1.0)  # log_2 2 = 1
    expected = b2 * d2 / (1.0 + b2)
    assert oracle_eps_diff(p, 2) == pytest.approx(expected, rel=1e-14)


def test_critical_predict_vs_oracle_midrange(critical_params_pinned):
    n = 2 * 10 ** 5
    ratio = predict_critical(critical_params_pinned, n).eps_diff / oracle_eps_diff(
        critical_params_pinned, n)
    assert 0.97 <= ratio <= 1.03


def test_cost_form_identity_slow(slow_params_pinned):
    # plugging the predicted cost into the cost forms reproduces the n forms
    for n in (100, 10 ** 4, 10 ** 6):
        pred = predict_slow(slow_params_pinned, n)
        assert pred.eps_bias_cost_form == pytest.approx(pred.eps_bias, rel=1e-12)
        assert pred.eps_diff_cost_form == pytest.approx(pred.eps_diff, rel=1e-12)


def test_cost_form_critical_converges_from_above(critical_params_pinned):
    ratios = []
    for n in (10 ** 4, 10 ** 5, 10 ** 6):
        pred = predict_critical(critical_params_pinned, n)
        ratios.append(pred.eps_diff_cost_form / pred.eps_diff)
    assert all(1.0 < r < 1.2 for r in ratios)
    assert ratios[0] > ratios[1] > ratios[2]


def test_predictions_csv_shape(slow_params_pinned):
    text = predictions_csv(slow_params_pinned, [10, 100])
    lines = text.strip().splitlines()
    assert lines[0].startswith("n,s,xi,eps_bias")
    assert len(lines) == 3
