"""Schedule constants, deterministic schedules, level counts and feasibility validation.

The algorithm is driven by power-law schedules

    gamma_n = n^-psi,   b_n = n^rho,   K_n = kappa_K * (phi+1) * n^phi,

a cumulative budget ``K_bar_n = sum_{k<=n} K_k`` and an accuracy level ``s_n``
whose form depends on the regime:

* slow (beta < 1):   s_n = max(floor(log_M(kappa_s * K_bar_n^(1/(2a-b+1)))), 1)
* critical (beta=1): s_n = max(ceil((1/alpha) * log_M(n^((phi+1)/2))), 1)

``xi_n`` is the fractional part left over by the floor in the slow regime; it
drives the periodic modulation of the asymptotic constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

SLOW = "slow"
CRITICAL = "critical"
REGIMES = (SLOW, CRITICAL)


class InvalidParameters(ValueError):
    """Raised with the ``violations`` that reject a parameter set or experiment, as messages."""

    def __init__(self, violations: tuple[str, ...]):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class ParameterSet:
    """All scalar problem and schedule constants for one regime.

    An invalid combination cannot be constructed: ``__post_init__`` runs the
    regime feasibility check and raises :class:`InvalidParameters` otherwise.
    Instances are immutable and safe to share across concurrent replicas.
    """

    regime: str
    alpha: float
    beta: float
    M: float
    phi: float
    rho: float
    psi: float
    kappa_K: float = 1.0
    kappa_s: float = 1.0
    kappa_C: float = 1.0
    lam: float = 1.0  # linearization exponent, in (0, 1]

    def __post_init__(self):
        for f in fields(self):
            if f.name != "regime":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
        violations = validate(self.to_dict())
        if violations:
            raise InvalidParameters(violations)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _check(violations: list, name: str, ok: bool, lhs: float, op: str, rhs: float):
    if not ok:
        violations.append(f"{name}: {lhs:.6g} {op} {rhs:.6g} fails")


def validate(v: Mapping) -> tuple[str, ...]:
    """Evaluate every regime feasibility inequality of the mapping ``v``
    (the fields of a :class:`ParameterSet`), strictly; returns the violation
    messages, each led by its inequality's name, empty when the set is accepted.

    Pure: a function of the field values only.  Equality in any strict
    inequality counts as a violation.  Non-finite fields reject with a single
    "non-finite" violation.
    """
    regime = v.get("regime")
    if regime not in REGIMES:
        return (f"regime: {regime!r} not in {REGIMES}",)
    if not all(math.isfinite(float(x)) for k, x in v.items() if k != "regime"):
        return ("non-finite: all fields must be finite",)

    alpha, beta, M = float(v["alpha"]), float(v["beta"]), float(v["M"])
    phi, rho, psi = float(v["phi"]), float(v["rho"]), float(v["psi"])
    lam = float(v["lam"])
    violations: list[str] = []
    _check(violations, "alpha > 0", alpha > 0, alpha, ">", 0)
    # past 2^1023, 2 alpha overflows and every bound below that reads it is void
    _check(violations, "2 alpha finite", math.isfinite(2 * alpha), alpha, "<=", np.finfo(float).max / 2)
    _check(violations, "beta > 0", beta > 0, beta, ">", 0)
    _check(violations, "M > 1", M > 1, M, ">", 1)
    _check(violations, "kappa_K > 0", float(v["kappa_K"]) > 0, float(v["kappa_K"]), ">", 0)
    _check(violations, "kappa_s > 0", float(v["kappa_s"]) > 0, float(v["kappa_s"]), ">", 0)
    _check(violations, "kappa_C > 0", float(v["kappa_C"]) > 0, float(v["kappa_C"]), ">", 0)
    _check(violations, "lambda in (0, 1]", 0 < lam <= 1, lam, "in", 1)
    if violations:
        return tuple(violations)

    # the regime decides only its beta; the critical regime is the slow one's inequalities at b = 1
    if regime == SLOW:
        _check(violations, "beta < 1", beta < 1, beta, "<", 1)
        b = beta
    else:
        _check(violations, "beta = 1", beta == 1.0, beta, "=", 1)
        b = 1.0
    bounded = b < 2 * alpha  # the phi and psi bounds are defined only then: 2 alpha - beta + 1 > 1
    _check(violations, "beta < 2 alpha", bounded, b, "<", 2 * alpha)
    if bounded:
        lo = 1.0 / (2 * alpha - b)
        _check(violations, "phi > 1/(2 alpha - beta)", phi > lo, phi, ">", lo)
    _check(violations, "phi + 1 < 2 (rho + 1)", phi + 1 < 2 * (rho + 1), phi + 1, "<", 2 * (rho + 1))
    if bounded:
        r = alpha / (2 * alpha - b + 1)
        lower = max(0.0, 1.0 - (2 * lam / (lam + 1)) * (phi + 1) * r)
        _check(violations, "psi > (1 - 2 lambda/(lambda+1) (phi+1) r)_+", psi > lower, psi, ">", lower)
    _check(violations, "psi < 1", psi < 1, psi, "<", 1)
    return tuple(violations)


WINDOW = 2 ** 16  # elements of a streamed window, 512 KB of doubles: indices or normals
KEYS = ("gamma", "b", "b_bar", "K", "K_bar", "s")


def levels(params: ParameterSet, x) -> tuple[np.ndarray, np.ndarray]:
    """The single source of s_n and xi_n: ``(s, xi)`` elementwise at the array ``x``, K_bar_n
    (slow) or n (critical); s is int64, xi the real level minus s.  Overflow and underflow give
    inf or nan, not warnings, and an infinite level casts to an end of int64."""
    p = params
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # log(0) is -inf, s_n 1
        if p.regime == SLOW:  # in one array, by the one-line form's operators in order: its bits
            xi = x ** (1.0 / (2 * p.alpha - p.beta + 1))
            np.log(np.multiply(xi, p.kappa_s, out=xi), out=xi)
        else:
            xi = np.log(x)
            xi *= (1.0 / p.alpha) * ((p.phi + 1) / 2.0)
        xi /= math.log(p.M)
        s = (np.floor if p.regime == SLOW else np.ceil)(xi)
        return np.maximum(s, 1.0, out=s).astype(np.int64), np.subtract(xi, s, out=xi)


def schedule_windows(params: ParameterSet, n: int, keys=KEYS):
    """The schedule over 1..n, s_n and xi_n from :func:`levels`: yields ``(lo, w)`` for each
    ``WINDOW``-index slice lo+1..min(lo+WINDOW, n) of 1..n, ``w`` a dict of exactly ``keys``
    over it, cleared as the next window starts; a window holds only what those keys need.
    K_bar and b_bar go on from the window before's sum, adding the exact terms in index
    order.  Overflow gives inf or nan, not warnings."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    p, need = params, set(keys) | ({"s"} if "xi" in keys else set())
    need |= {"K_bar"} if p.regime == SLOW and "s" in need else set()
    need |= {t[:-4] for t in need if t.endswith("_bar")}  # a sum needs its terms
    terms = {"gamma": lambda i: i ** (-p.psi), "b": lambda i: i ** p.rho,
             "K": lambda i: p.kappa_K * (p.phi + 1.0) * i ** p.phi}
    last = {"K_bar": 0.0, "b_bar": 0.0}
    w: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, WINDOW):
            w.clear()
            idx = np.arange(lo + 1, min(lo + WINDOW, n) + 1, dtype=float)
            w.update((k, terms[k](idx)) for k in need & terms.keys())
            if "s" in need and p.regime == CRITICAL:  # the level of n, before the indices go
                w["s"], w["xi"] = levels(p, idx)
            del idx
            for total in need & {"K_bar", "b_bar"}:  # the sum so far, then the terms, in place
                w[total] = w[total[:-4]].copy() if total[:-4] in keys else w.pop(total[:-4])
                w[total][0] += last[total]
                last[total] = np.cumsum(w[total], out=w[total])[-1]
            if "s" in need and p.regime == SLOW:  # the level of K_bar_n
                w["s"], w["xi"] = levels(p, w["K_bar"])
            w = {k: w[k] for k in keys}  # the next window clears this dict
            yield lo, w


def schedule_arrays(params: ParameterSet, n: int) -> dict[str, np.ndarray]:
    """New full-length arrays of every :data:`KEYS` schedule over 1..n, for the run plan
    and config load; predictions and oracles stream the windows instead."""
    a = {k: np.empty(n, dtype=np.int64 if k == "s" else float) for k in KEYS}
    for keys in (KEYS[:3], KEYS[3:]):  # in two passes, fewer window arrays are held at once
        for lo, w in schedule_windows(params, n, keys):
            for k in keys:  # each window array goes as it is copied, the last pass's too
                a[k][lo:lo + WINDOW] = w.pop(k)
    return a


# snap near-integer count values before the ceiling so exact ratios such as
# K/M^s = 8 are not pushed up by float noise from pow/log round-trips
_INT_SNAP = 1e-9


def replication_counts(params: ParameterSet, s, K) -> np.ndarray:
    """Level counts N_k(s_n, K_n) for all n at once: an (n, max s_n) integer
    matrix whose row n holds (N_1, ..., N_{s_n}) and zeros past s_n.

    N_k(s, K) = ceil((K / M^s) * M^((beta+1)/2 * (s-k))), nonincreasing in k;
    for beta = 1 they reduce to ceil(K * M^-k), independent of s.  ``s`` and
    ``K`` are equal-length sequences, or scalars for a single row.  Raises
    :class:`InvalidParameters` when a count exceeds 2^53.  Built in windows of whole rows,
    at most ``WINDOW // 4`` entries (a row at least), in place as doubles, cast once checked.
    """
    s = np.atleast_1d(np.asarray(s))
    K = np.atleast_1d(np.asarray(K, dtype=float))
    if np.any(s < 1):
        raise ValueError("s must be >= 1")
    if not np.all(K > 0):
        raise ValueError("K must be positive")
    M, beta, k = params.M, params.beta, np.arange(1, int(s.max()) + 1)
    counts, rows, tops = np.empty((len(s), len(k)), np.int64), max(1, WINDOW // 4 // len(k)), []
    for lo in range(0, len(s), rows):  # each entry the whole-matrix form's, made in place
        sw = s[lo:lo + rows, None]
        x, past = M ** (0.5 * (beta + 1) * (sw - k)), k > sw  # past: the zeros past s_n
        x *= K[lo:lo + rows, None] / M ** sw
        r, c = np.round(x), np.abs(x)  # round(x) where |x - r| <= _INT_SNAP max(1, |x|)
        near = np.abs(np.subtract(x, r, out=r), out=r) <= np.multiply(
            _INT_SNAP, np.maximum(1.0, c, out=c), out=c)
        np.copyto(np.ceil(x, out=c), np.round(x, out=r), where=near)  # else ceil(x)
        np.copyto(np.maximum(c, 1.0, out=c), 0.0, where=past)
        i = int(np.argmax(c[:, 0]))  # N_1 is a row's largest; doubles skip integers past 2^53
        tops.append((c[i, 0], lo + i))
        if c[i, 0] <= 2.0 ** 53:  # checked before the cast, which would wrap a larger count
            counts[lo:lo + rows] = c
        del x, past, r, c, near  # before the next window's are made
    top, n = tops[int(np.argmax([v for v, _ in tops]))]  # the first largest N_1 of all rows
    if not top <= 2.0 ** 53:
        raise InvalidParameters((f"N_1 <= 2^53: {top:.6g} fails at n = {n + 1}",))
    return counts
