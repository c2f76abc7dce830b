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

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .params import CRITICAL, SLOW, WINDOW, ParameterSet, levels, schedule_windows


def _psi_formula(u: float, v: float, M: float, z):
    # the bracket over its denominator M^(u+v) - 1: on z in [0, 1] both terms of
    # the numerator are >= 0, so they do not cancel when u + v is very negative
    ln_m = math.log(M)
    top = M ** (u * z) * np.expm1(u * (1.0 - z) * ln_m) + M ** (u + v) * np.expm1(u * z * ln_m)
    return M ** (-z * (u + v)) * top / math.expm1((u + v) * ln_m)


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
    return float(_psi_formula(u, v, M, z))


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
class Predictions:
    """The closed forms at each n of ``n``: arrays from :func:`predictions`, Python
    numbers from the one-n wrappers (:meth:`at`).  Critical bias fields are None."""

    n: np.ndarray
    s: np.ndarray
    xi: np.ndarray
    eps_bias: Optional[np.ndarray]
    eps_diff: np.ndarray
    predicted_cost: np.ndarray
    eps_bias_cost_form: Optional[np.ndarray]
    eps_diff_cost_form: np.ndarray
    pre_asymptotic: np.ndarray

    def at(self, j: int) -> Predictions:
        """The prediction at ``n[j]``, each field a Python int, float, bool or None."""
        return Predictions(*(None if v is None else v[j].item()
                             for v in (getattr(self, f.name) for f in fields(self))))


def _diff_prefactor(params: ParameterSet) -> float:
    q = (params.rho + 1) / (params.phi + 1)
    return q / math.sqrt(2 * q - 1)


def predict_slow(params: ParameterSet, n: int) -> Predictions:
    """Every slow-regime closed form at horizon n (see :func:`predictions`)."""
    if params.regime != SLOW:
        raise ValueError("predict_slow requires slow-regime parameters")
    return predictions(params, [n]).at(0)


def predict_critical(params: ParameterSet, n: int) -> Predictions:
    """Critical-regime prediction; has no bias normalization (centers at theta*)."""
    if params.regime != CRITICAL:
        raise ValueError("predict_critical requires critical-regime parameters")
    return predictions(params, [n]).at(0)


def least_n(params: ParameterSet) -> int:
    """The least n with closed forms: 2 in the critical regime, whose log n vanishes at 1."""
    return 2 if params.regime == CRITICAL else 1


def predictions(params: ParameterSet, ns: Sequence[int]) -> Predictions:
    """Every closed form at each n in ``ns`` in one array pass, s_n and xi_n from :func:`levels`
    at those n only (slow: at K_bar_n, streamed to max(ns)).  A slow-regime s_n from the clamp
    branch (floor <= 0) is flagged ``pre_asymptotic``, not refused: xi_n is then negative and
    the formulas are evaluated as written.  Every n must be at least :func:`least_n`.
    """
    p = params
    n = np.asarray(ns, dtype=np.int64)
    if np.any(n < least_n(p)):
        raise ValueError(f"{p.regime} predictions need every n >= {least_n(p)}")
    x, K_bar = n.astype(float), np.zeros(n.shape)
    if p.regime == SLOW:
        for lo, w in schedule_windows(p, int(n.max(initial=1)), ("K_bar",)):
            at = (n > lo) & (n <= lo + WINDOW)
            K_bar[at] = w["K_bar"][n[at] - lo - 1]
    s, xi = levels(p, K_bar if p.regime == SLOW else x)
    if p.regime == SLOW:
        pre = xi < 0.0  # the max(. , 1) clamp was active
        rb = rates(p)
        one_minus = 1.0 - p.M ** (-(1.0 - p.beta) / 2.0)
        decay = x ** (-(p.phi + 1) * rb.r)
        # pre-asymptotic xi lies below 0; the modulation is periodic, so evaluate
        # it at the fractional part there
        z = np.where(pre, xi - np.floor(xi), xi)
        psi_b = _psi_formula(rb.r1, -p.alpha, p.M, z)
        psi_d = _psi_formula(rb.r2, 1.0 - p.beta, p.M, z)
        eps_bias = p.kappa_s ** (-p.alpha) * p.kappa_K ** (-rb.r) * psi_b * decay
        eps_diff = (one_minus ** -0.5 * _diff_prefactor(p) * p.kappa_s ** ((1 - p.beta) / 2)
                    * p.kappa_K ** (-rb.r) * np.sqrt(psi_d) * decay)
        cost = p.kappa_C * p.kappa_K / one_minus * x ** (p.phi + 1)
        eps_bias_cost = (p.kappa_C ** rb.r * one_minus ** (-rb.r) * p.kappa_s ** (-p.alpha)
                         * psi_b * cost ** (-rb.r))
        eps_diff_cost = (p.kappa_C ** rb.r * one_minus ** (-(rb.r + 0.5)) * _diff_prefactor(p)
                         * p.kappa_s ** ((1 - p.beta) / 2) * np.sqrt(psi_d) * cost ** (-rb.r))
    else:
        pre, eps_bias, eps_bias_cost = np.zeros(n.shape, dtype=bool), None, None
        log_M_n = np.log(x) / math.log(p.M)
        eps_diff = (1.0 / math.sqrt(2 * p.alpha * p.kappa_K) * _diff_prefactor(p)
                    * x ** (-(p.phi + 1) / 2.0) * np.sqrt((p.phi + 1) * log_M_n))
        cost = (p.kappa_C * p.kappa_K / p.alpha * x ** (p.phi + 1)
                * ((p.phi + 1) / 2.0) * log_M_n)
        eps_diff_cost = (math.sqrt(p.kappa_C) / (2 * p.alpha) * _diff_prefactor(p)
                         * (np.log(cost) / math.log(p.M)) / np.sqrt(cost))
    return Predictions(n=n, s=s, xi=xi, eps_bias=eps_bias, eps_diff=eps_diff,
                       predicted_cost=cost, eps_bias_cost_form=eps_bias_cost,
                       eps_diff_cost_form=eps_diff_cost, pre_asymptotic=pre)


_MAX_ORACLE_N = 10 ** 7


def _powers(M: float, c: float, s: np.ndarray) -> np.ndarray:
    """M ** (c * s) from a table over the range of s: the bits of the elementwise power."""
    lo, hi = int(s.min()), int(s.max())
    return M ** (c * s) if hi - lo >= len(s) else (M ** (c * np.arange(lo, hi + 1)))[s - lo]


@lru_cache(maxsize=1)
def _oracles(params: ParameterSet, n: int) -> tuple[float, float]:
    """(eps_bias, or 0 if critical; eps_diff) from one pass over the schedule windows
    that serves both oracles: np.sum per window, then the window sums in order."""
    if n > _MAX_ORACLE_N:
        raise ValueError("oracle restricted to n <= 1e7 (exact summation)")
    p, slow, bias, diff = params, params.regime == SLOW, 0.0, 0.0
    for lo, w in schedule_windows(p, n, ("b", "b_bar", "s") if slow else ("b", "b_bar")):
        b, k = w["b"], np.arange(lo + 1, lo + len(w["b"]) + 1, dtype=float)
        if slow:  # in the arrays held, by the one-line forms' operators in order: their bits
            bias += float(np.sum(b * _powers(p.M, -p.alpha, w["s"])))
            k **= p.phi
            d2 = _powers(p.M, 1.0 - p.beta, w["s"])
            d2 /= k
        else:  # (2 alpha kappa_K)^-1 k^-phi log k / log M
            d2 = np.log(k)
            k **= -p.phi
            d2 *= np.multiply(k, (2.0 * p.alpha * p.kappa_K) ** -1.0, out=k)
            d2 /= math.log(p.M)
        b **= 2
        # b, k and d2 live on through the next window's build: freed sooner, their pages re-fault
        diff += float(np.sum(np.multiply(b, d2, out=d2)))
    b_bar = float(w["b_bar"][-1])
    conv = (1.0 if not slow else
            math.sqrt(p.kappa_K * (p.phi + 1) * (1.0 - p.M ** (-(1.0 - p.beta) / 2.0))))
    return bias / b_bar, math.sqrt(diff) / b_bar / conv


def oracle_eps_bias(params: ParameterSet, n: int) -> float:
    """Brute-force bias normalization b_bar_n^-1 sum_k b_k M^(-alpha s_k)."""
    if params.regime != SLOW:
        raise ValueError("the bias oracle applies to the slow regime")
    return _oracles(params, n)[0]


def oracle_eps_diff(params: ParameterSet, n: int) -> float:
    """Brute-force fluctuation normalization b_bar_n^-1 sqrt(sum (b_k d_k)^2).

    Slow regime: (d_k)^2 = M^((1-beta) s_k) / k^phi, and the sum is rescaled
    by (kappa_K (phi+1) (1-M^(-(1-beta)/2)))^(-1/2): the raw partial sum
    normalizes the CLT with the budget-rescaled covariance, and this constant
    converts it to the Gamma normalization that the closed form uses.

    Critical regime: (d_k)^2 = (2 alpha kappa_K)^-1 k^-phi log_M k, already
    Gamma-normalized (the k = 1 term vanishes with log_M 1 = 0).
    """
    return _oracles(params, n)[1]
