import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlsa.asymptotics import (oracle_eps_bias, oracle_eps_diff, predict_critical, predict_slow,
                              predictions, psi, rates)
from mlsa.cli import main
from mlsa.config import load_config
from mlsa.params import ParameterSet, schedule_arrays, schedule_windows

from conftest import CRITICAL_PINNED, SLOW_PINNED

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
PREDICTION_COLUMNS = ["n", "s", "xi", "eps_bias", "eps_diff", "predicted_cost",
                      "eps_bias_cost_form", "eps_diff_cost_form", "pre_asymptotic"]


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


def fsum_oracles(p, n):
    """(eps_bias or None, eps_diff) with each partial sum rounded once by math.fsum."""
    k = np.arange(1, n + 1, dtype=float)
    arr = schedule_arrays(p, n)
    b, s, b_bar = arr["b"], arr["s"], math.fsum(arr["b"].tolist())
    if p.regime == "critical":
        d2 = (2.0 * p.alpha * p.kappa_K) ** -1.0 * k ** (-p.phi) * np.log(k) / math.log(p.M)
        return None, math.sqrt(math.fsum((b ** 2 * d2).tolist())) / b_bar
    bias = math.fsum((b * p.M ** (-p.alpha * s)).tolist()) / b_bar
    d2 = p.M ** ((1.0 - p.beta) * s) / k ** p.phi
    conv = math.sqrt(p.kappa_K * (p.phi + 1) * (1.0 - p.M ** (-(1.0 - p.beta) / 2.0)))
    return bias, math.sqrt(math.fsum((b ** 2 * d2).tolist())) / b_bar / conv


def test_windowed_oracles_match_fsum(slow_params_pinned, critical_params_pinned):
    n = 3 * 2 ** 16 + 7  # three full windows and a tail
    for p in (slow_params_pinned, critical_params_pinned):
        bias, diff = fsum_oracles(p, n)
        assert oracle_eps_diff(p, n) == pytest.approx(diff, rel=1e-13, abs=0)
        if bias is not None:
            assert oracle_eps_bias(p, n) == pytest.approx(bias, rel=1e-13, abs=0)


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
    with pytest.raises(ValueError, match="n >= 2"):
        predict_critical(critical_params_pinned, 1)
    with pytest.raises(ValueError, match="n >= 2"):
        predictions(critical_params_pinned, [5, 1, 7])


def test_predictions_reject_any_n_below_one(slow_params_pinned, critical_params_pinned):
    for ns in ([0, 5], [5, -3]):  # a valid n next to the bad one
        with pytest.raises(ValueError, match="n >= 1"):
            predictions(slow_params_pinned, ns)
        with pytest.raises(ValueError, match="n >= 2"):
            predictions(critical_params_pinned, ns)


def test_predict_wrappers_reject_the_other_regime(slow_params_pinned, critical_params_pinned):
    with pytest.raises(ValueError, match="predict_slow requires slow-regime"):
        predict_slow(critical_params_pinned, 10)
    with pytest.raises(ValueError, match="predict_critical requires critical-regime"):
        predict_critical(slow_params_pinned, 10)


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


def scalar_prediction(p, n, s, xi):
    """The closed forms at one n in scalar math, as they were evaluated one n at a
    time before predictions() became one array pass; the arrays' reference."""
    def psi_at(u, v, z):
        ln_m = math.log(p.M)
        top = (p.M ** (u * z) * math.expm1(u * (1.0 - z) * ln_m)
               + p.M ** (u + v) * math.expm1(u * z * ln_m))
        return p.M ** (-z * (u + v)) * top / math.expm1((u + v) * ln_m)

    q = (p.rho + 1) / (p.phi + 1)
    prefactor = q / math.sqrt(2 * q - 1)
    if p.regime == "critical":
        log_M_n = math.log(n) / math.log(p.M)
        eps_diff = (1.0 / math.sqrt(2 * p.alpha * p.kappa_K) * prefactor
                    * float(n) ** (-(p.phi + 1) / 2.0) * math.sqrt((p.phi + 1) * log_M_n))
        cost = (p.kappa_C * p.kappa_K / p.alpha * float(n) ** (p.phi + 1)
                * ((p.phi + 1) / 2.0) * log_M_n)
        eps_diff_cost = (math.sqrt(p.kappa_C) / (2 * p.alpha) * prefactor
                         * (math.log(cost) / math.log(p.M)) / math.sqrt(cost))
        return dict(n=n, s=s, xi=xi, eps_bias=None, eps_diff=eps_diff, predicted_cost=cost,
                    eps_bias_cost_form=None, eps_diff_cost_form=eps_diff_cost,
                    pre_asymptotic=False)
    pre = xi < 0.0
    rb = rates(p)
    one_minus = 1.0 - p.M ** (-(1.0 - p.beta) / 2.0)
    decay = float(n) ** (-(p.phi + 1) * rb.r)
    z = xi - math.floor(xi) if pre else xi
    psi_b, psi_d = psi_at(rb.r1, -p.alpha, z), psi_at(rb.r2, 1.0 - p.beta, z)
    eps_bias = p.kappa_s ** (-p.alpha) * p.kappa_K ** (-rb.r) * psi_b * decay
    eps_diff = (one_minus ** -0.5 * prefactor * p.kappa_s ** ((1 - p.beta) / 2)
                * p.kappa_K ** (-rb.r) * math.sqrt(psi_d) * decay)
    cost = p.kappa_C * p.kappa_K / one_minus * float(n) ** (p.phi + 1)
    eps_bias_cost = (p.kappa_C ** rb.r * one_minus ** (-rb.r) * p.kappa_s ** (-p.alpha)
                     * psi_b * cost ** (-rb.r))
    eps_diff_cost = (p.kappa_C ** rb.r * one_minus ** (-(rb.r + 0.5)) * prefactor
                     * p.kappa_s ** ((1 - p.beta) / 2) * math.sqrt(psi_d) * cost ** (-rb.r))
    return dict(n=n, s=s, xi=xi, eps_bias=eps_bias, eps_diff=eps_diff, predicted_cost=cost,
                eps_bias_cost_form=eps_bias_cost, eps_diff_cost_form=eps_diff_cost,
                pre_asymptotic=pre)


def test_array_predictions_match_scalar_reference():
    # numpy's vectorised power and log may differ from libm by an ulp or two;
    # rtol was fixed at 2e-15 (about 9 ulps) before the array pass was written
    sets = [load_config(os.path.join(CONFIGS, f"{name}_default.json")).params
            for name in ("slow", "critical")]
    sets += [ParameterSet(**SLOW_PINNED), ParameterSet(**CRITICAL_PINNED),
             ParameterSet(**dict(SLOW_PINNED, kappa_s=1e-3))]  # pre-asymptotic at small n
    for p in sets:
        ns = list(range(2 if p.regime == "critical" else 1, 4001))
        _, w = next(schedule_windows(p, 4000, ("s", "xi")))  # 4000 indices: one window
        ref = [scalar_prediction(p, n, int(w["s"][n - 1]), float(w["xi"][n - 1]))
               for n in ns]
        got = predictions(p, ns)
        for name in PREDICTION_COLUMNS:
            want = [r[name] for r in ref]
            if name in ("eps_bias", "eps_bias_cost_form") and p.regime == "critical":
                assert getattr(got, name) is None
            elif name in ("n", "s", "xi", "pre_asymptotic"):
                assert getattr(got, name).tolist() == want, name
            else:
                np.testing.assert_allclose(getattr(got, name), want, rtol=2e-15, atol=0,
                                           err_msg=name)
        # the one-n wrapper holds Python numbers, which JSON takes as they are
        one = (predict_slow if p.regime == "slow" else predict_critical)(p, ns[-1])
        assert one == got.at(len(ns) - 1)
        assert [type(getattr(one, c)) for c in ("n", "s", "xi", "eps_diff", "pre_asymptotic")] \
            == [int, int, float, float, bool]
        json.dumps(vars(one))


def test_predictions_csv_shape(tmp_path, capsys):
    # mlsa predict's table: one column per Predictions field, pre_asymptotic as 0/1
    early = dict(SLOW_PINNED, kappa_s=1e-3)  # n = 1 is pre-asymptotic
    family = {"kind": "synthetic_gaussian", "theta_star": [0.0], "H": [[-1.0]], "mu": [0.05],
              "noise_factor": [[1.0]]}
    for i, (params, ns, pre) in enumerate(((early, [1, 10 ** 4], ["1", "0"]),
                                           (SLOW_PINNED, [10, 100], ["0", "0"]),
                                           (CRITICAL_PINNED, [10, 100], ["0", "0"]))):
        doc = {"params": params, "family": family, "projection": {"kind": "identity"},
               "replication": {"replicas": 2, "n_final": ns[-1], "checkpoints": ns,
                               "master_seed": 0},
               "output": {"directory": "out"}}
        path = tmp_path / f"predict{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(PREDICTION_COLUMNS)
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == [str(n) for n in ns]
        assert [row[-1] for row in rows] == pre
        p = ParameterSet(**params)
        for j, row in enumerate(rows):
            a = predictions(p, ns).at(j)
            assert float(row[4]) == a.eps_diff and float(row[5]) == a.predicted_cost
            if p.regime == "critical":  # no bias columns: empty fields
                assert row[3] == row[6] == ""
            else:
                assert float(row[3]) == a.eps_bias and float(row[6]) == a.eps_bias_cost_form