"""Closed-form error/cost predictions and brute-force partial-sum oracles.

Slow regime (beta < 1), with r = alpha/(2a-b+1), r1, r2 and the periodic
modulation psi_{u,v}(z) = M^(-z(u+v)) ((M^u-1)/(M^(u+v)-1) + M^(uz) - 1):

    eps_bias_n = kappa_s^-alpha kappa_K^-r psi_{r1,-alpha}(xi_n) n^(-(phi+1) r)
    eps_diff_n = (1-M^(-(1-beta)/2))^(-1/2) * P * kappa_s^((1-beta)/2)
                 * kappa_K^-r * sqrt(psi_{r2,1-beta}(xi_n)) * n^(-(phi+1) r)
    cost_n     ~ kappa_C kappa_K / (1-M^(-(1-beta)/2)) * n^(phi+1)

with P = ((rho+1)/(phi+1)) / sqrt(2(rho+1)/(phi+1) - 1).

Critical regime (beta = 1):

    eps_diff_n = (2 alpha kappa_K)^(-1/2) * P * n^(-(phi+1)/2)
                 * sqrt(log_M n^(phi+1))
    cost_n     ~ kappa_C kappa_K alpha^-1 n^(phi+1) log_M n^((phi+1)/2)

The oracles evaluate the underlying weighted partial sums exactly:
eps_bias as b_bar_n^-1 sum b_k M^(-alpha s_k), and eps_diff as
b_bar_n^-1 sqrt(sum (b_k delta_k^diff)^2) with (delta_k^diff)^2 =
M^((1-beta) s_k)/k^phi (slow; rescaled by (kappa_K (phi+1)
(1-M^(-(1-beta)/2)))^(-1/2) so that both routes estimate the same
Gamma-normalized CLT scale) or (2 alpha kappa_K)^-1 k^-phi log_M k (critical).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .params import CRITICAL, SLOW, ParameterSet, schedule_arrays


def _psi_formula(u: float, v: float, M: float, z: float) -> float:
    return M ** (-z * (u + v)) * ((M ** u - 1.0) / (M ** (u + v) - 1.0) + M ** (u * z) - 1.0)


def psi(u: float, v: float, M: float, z: float) -> float:
    """Periodic modulation factor psi_{u,v}(z) for z in [0, 1].

    Requires u > 0 and u - v > 0; additionally u + v = 0 is a domain error
    because the denominator M^(u+v) - 1 vanishes there.
    """
    if not (u > 0 and u - v > 0):
        raise ValueError("psi requires u > 0 and u - v > 0")
    if u + v == 0:
        raise ValueError("psi undefined at u + v = 0 (denominator vanishes)")
    if not (M > 1):
        raise ValueError("psi requires M > 1")
    if not 0.0 <= z <= 1.0:
        raise ValueError("psi argument z must lie in [0, 1]")
    return _psi_formula(u, v, M, z)


@dataclass(frozen=True)
class RateBundle:
    r: float
    r1: float
    r2: float


def rates(params: ParameterSet) -> RateBundle:
    """Exact rate constants of the slow regime."""
    if params.regime != SLOW:
        raise ValueError("rates are defined for the slow regime")
    p = params
    base = 2 * p.alpha - p.beta + 1
    return RateBundle(
        r=p.alpha / base,
        r1=(p.rho + 1) / (p.phi + 1) * base,
        r2=(2 * (p.rho + 1) / (p.phi + 1) - 1) * base,
    )


@dataclass(frozen=True)
class AsymptoticPrediction:
    n: int
    s: int
    xi: float
    eps_bias: Optional[float]
    eps_diff: float
    predicted_cost: float
    eps_bias_cost_form: Optional[float]
    eps_diff_cost_form: float
    pre_asymptotic: bool = False


def _diff_prefactor(params: ParameterSet) -> float:
    q = (params.rho + 1) / (params.phi + 1)
    return q / math.sqrt(2 * q - 1)


def predict_slow(params: ParameterSet, n: int) -> AsymptoticPrediction:
    """Evaluate every slow-regime closed form at horizon n.

    If s_n comes from the clamp branch (floor <= 0) the prediction is flagged
    ``pre_asymptotic`` rather than refused; xi_n is then negative and the
    formulas are evaluated as written.
    """
    if params.regime != SLOW:
        raise ValueError("predict_slow requires slow-regime parameters")
    return predictions(params, [n])[0]


def _slow_at(p: ParameterSet, n: int, s: int, xi: float) -> AsymptoticPrediction:
    pre = xi < 0.0  # the max(. , 1) clamp was active
    rb = rates(p)
    one_minus = 1.0 - p.M ** (-(1.0 - p.beta) / 2.0)
    decay = float(n) ** (-(p.phi + 1) * rb.r)
    # pre-asymptotic xi lies below 0; the modulation is periodic, so evaluate
    # it at the fractional part there
    z = xi - math.floor(xi) if pre else xi
    psi_b = _psi_formula(rb.r1, -p.alpha, p.M, z)
    psi_d = _psi_formula(rb.r2, 1.0 - p.beta, p.M, z)
    eps_bias = p.kappa_s ** (-p.alpha) * p.kappa_K ** (-rb.r) * psi_b * decay
    eps_diff = (one_minus ** -0.5 * _diff_prefactor(p) * p.kappa_s ** ((1 - p.beta) / 2)
                * p.kappa_K ** (-rb.r) * math.sqrt(psi_d) * decay)
    cost = p.kappa_C * p.kappa_K / one_minus * float(n) ** (p.phi + 1)
    eps_bias_cost = (p.kappa_C ** rb.r * one_minus ** (-rb.r) * p.kappa_s ** (-p.alpha)
                     * psi_b * cost ** (-rb.r))
    eps_diff_cost = (p.kappa_C ** rb.r * one_minus ** (-(rb.r + 0.5)) * _diff_prefactor(p)
                     * p.kappa_s ** ((1 - p.beta) / 2) * math.sqrt(psi_d) * cost ** (-rb.r))
    return AsymptoticPrediction(n=n, s=s, xi=xi, eps_bias=eps_bias, eps_diff=eps_diff,
                                predicted_cost=cost, eps_bias_cost_form=eps_bias_cost,
                                eps_diff_cost_form=eps_diff_cost, pre_asymptotic=pre)


def predict_critical(params: ParameterSet, n: int) -> AsymptoticPrediction:
    """Critical-regime prediction; has no bias normalization (centers at theta*)."""
    if params.regime != CRITICAL:
        raise ValueError("predict_critical requires critical-regime parameters")
    return predictions(params, [n])[0]


def _critical_at(p: ParameterSet, n: int, s: int, xi: float) -> AsymptoticPrediction:
    if n < 2:
        raise ValueError("critical prediction needs n >= 2 (log n vanishes at 1)")
    log_M_n = math.log(n) / math.log(p.M)
    eps_diff = (1.0 / math.sqrt(2 * p.alpha * p.kappa_K) * _diff_prefactor(p)
                * float(n) ** (-(p.phi + 1) / 2.0) * math.sqrt((p.phi + 1) * log_M_n))
    cost = (p.kappa_C * p.kappa_K / p.alpha * float(n) ** (p.phi + 1)
            * ((p.phi + 1) / 2.0) * log_M_n)
    eps_diff_cost = (math.sqrt(p.kappa_C) / (2 * p.alpha) * _diff_prefactor(p)
                     * (math.log(cost) / math.log(p.M)) / math.sqrt(cost))
    return AsymptoticPrediction(n=n, s=s, xi=xi, eps_bias=None, eps_diff=eps_diff,
                                predicted_cost=cost, eps_bias_cost_form=None,
                                eps_diff_cost_form=eps_diff_cost)


def predictions(params: ParameterSet, ns: Sequence[int]) -> list[AsymptoticPrediction]:
    """The prediction at every n in ``ns``, from one schedule pass at max(ns)."""
    arr = schedule_arrays(params, max(ns, default=1))
    at = _slow_at if params.regime == SLOW else _critical_at
    return [at(params, n, int(arr["s"][n - 1]), float(arr["xi"][n - 1])) for n in ns]


_MAX_ORACLE_N = 10 ** 7


def oracle_eps_bias(params: ParameterSet, n: int) -> float:
    """Brute-force bias normalization b_bar_n^-1 sum_k b_k M^(-alpha s_k)."""
    if params.regime != SLOW:
        raise ValueError("the bias oracle applies to the slow regime")
    if n > _MAX_ORACLE_N:
        raise ValueError("oracle restricted to n <= 1e7 (exact summation)")
    arr = schedule_arrays(params, n)
    terms = arr["b"] * params.M ** (-params.alpha * arr["s"])
    return float(np.sum(terms) / arr["b_bar"][-1])


def oracle_eps_diff(params: ParameterSet, n: int) -> float:
    """Brute-force fluctuation normalization b_bar_n^-1 sqrt(sum (b_k d_k)^2).

    Slow regime: (d_k)^2 = M^((1-beta) s_k) / k^phi, and the sum is rescaled
    by (kappa_K (phi+1) (1-M^(-(1-beta)/2)))^(-1/2): the raw partial sum
    normalizes the CLT with the budget-rescaled covariance, and this constant
    converts it to the Gamma normalization that the closed form uses.

    Critical regime: (d_k)^2 = (2 alpha kappa_K)^-1 k^-phi log_M k, already
    Gamma-normalized (the k = 1 term vanishes with log_M 1 = 0).
    """
    if n > _MAX_ORACLE_N:
        raise ValueError("oracle restricted to n <= 1e7 (exact summation)")
    p = params
    arr = schedule_arrays(p, n)
    k = arr["idx"]
    if p.regime == SLOW:
        d2 = p.M ** ((1.0 - p.beta) * arr["s"]) / k ** p.phi
        conv = math.sqrt(p.kappa_K * (p.phi + 1) * (1.0 - p.M ** (-(1.0 - p.beta) / 2.0)))
        return float(math.sqrt(np.sum(arr["b"] ** 2 * d2)) / arr["b_bar"][-1] / conv)
    d2 = (2.0 * p.alpha * p.kappa_K) ** -1.0 * k ** (-p.phi) * np.log(k) / math.log(p.M)
    return float(math.sqrt(np.sum(arr["b"] ** 2 * d2)) / arr["b_bar"][-1])


def predictions_csv(params: ParameterSet, ns: Sequence[int]) -> str:
    """CSV table of predictions keyed by n."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "s", "xi", "eps_bias", "eps_diff", "predicted_cost",
                "eps_bias_cost_form", "eps_diff_cost_form", "pre_asymptotic"])
    for a in predictions(params, [int(n) for n in ns]):
        w.writerow([a.n, a.s, repr(a.xi),
                    "" if a.eps_bias is None else repr(a.eps_bias), repr(a.eps_diff),
                    repr(a.predicted_cost),
                    "" if a.eps_bias_cost_form is None else repr(a.eps_bias_cost_form),
                    repr(a.eps_diff_cost_form), int(a.pre_asymptotic)])
    return buf.getvalue()
