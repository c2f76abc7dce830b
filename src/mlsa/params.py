"""Schedule constants, deterministic schedules and feasibility validation.

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
from dataclasses import MISSING, dataclass, fields
from typing import Mapping

import numpy as np

SLOW = "slow"
CRITICAL = "critical"
REGIMES = (SLOW, CRITICAL)


class InvalidParameters(ValueError):
    """Raised when a ParameterSet fails its regime feasibility inequalities."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("; ".join(v.message for v in report.violations) or "invalid")


@dataclass(frozen=True)
class Violation:
    name: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    accepted: bool
    regime: str
    violations: tuple[Violation, ...]

    def violation_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.violations)


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
    L: float = 0.5  # contraction margin of the zero

    def __post_init__(self):
        for f in fields(self):
            if f.name != "regime":
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
        report = validate(self)
        if not report.accepted:
            raise InvalidParameters(report)

    @property
    def r(self) -> float:
        """Base rate alpha / (2*alpha - beta + 1)."""
        return self.alpha / (2.0 * self.alpha - self.beta + 1.0)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _field_values(params) -> dict:
    if isinstance(params, ParameterSet):
        return params.to_dict()
    if isinstance(params, Mapping):
        return dict(params)
    raise TypeError(f"expected ParameterSet or mapping, got {type(params)!r}")


def _check(violations: list, name: str, ok: bool, lhs: float, op: str, rhs: float):
    if not ok:
        violations.append(Violation(name, f"{name}: {lhs:.6g} {op} {rhs:.6g} fails"))


def validate(params) -> ValidationReport:
    """Evaluate every regime feasibility inequality, strictly.

    Accepts a :class:`ParameterSet` or a plain mapping with the same keys.
    Pure: the report is a function of the field values only.  Equality in any
    strict inequality counts as a violation.  Non-finite fields reject with a
    single "non-finite" violation.
    """
    v = _field_values(params)
    regime = v.get("regime")
    violations: list[Violation] = []
    numeric = {k: val for k, val in v.items() if k != "regime"}
    if regime not in REGIMES:
        violations.append(Violation("regime", f"regime: {regime!r} not in {REGIMES}"))
        return ValidationReport(False, str(regime), tuple(violations))
    if not all(math.isfinite(float(x)) for x in numeric.values()):
        violations.append(Violation("non-finite", "non-finite: all fields must be finite"))
        return ValidationReport(False, regime, tuple(violations))

    alpha, beta, M = float(v["alpha"]), float(v["beta"]), float(v["M"])
    phi, rho, psi = float(v["phi"]), float(v["rho"]), float(v["psi"])
    lam, L = float(v["lam"]), float(v["L"])

    _check(violations, "alpha > 0", alpha > 0, alpha, ">", 0)
    _check(violations, "beta > 0", beta > 0, beta, ">", 0)
    _check(violations, "M > 1", M > 1, M, ">", 1)
    _check(violations, "kappa_K > 0", float(v["kappa_K"]) > 0, float(v["kappa_K"]), ">", 0)
    _check(violations, "kappa_s > 0", float(v["kappa_s"]) > 0, float(v["kappa_s"]), ">", 0)
    _check(violations, "kappa_C > 0", float(v["kappa_C"]) > 0, float(v["kappa_C"]), ">", 0)
    _check(violations, "L > 0", L > 0, L, ">", 0)
    _check(violations, "lambda in (0, 1]", 0 < lam <= 1, lam, "in", 1)
    if violations:
        return ValidationReport(False, regime, tuple(violations))

    if regime == SLOW:
        _check(violations, "beta < 1", beta < 1, beta, "<", 1)
        _check(violations, "beta < 2 alpha", beta < 2 * alpha, beta, "<", 2 * alpha)
        if beta < 2 * alpha:
            lo = 1.0 / (2 * alpha - beta)
            _check(violations, "phi > 1/(2 alpha - beta)", phi > lo, phi, ">", lo)
        _check(violations, "phi + 1 < 2 (rho + 1)", phi + 1 < 2 * (rho + 1), phi + 1, "<", 2 * (rho + 1))
        r = alpha / (2 * alpha - beta + 1)
        lower = max(0.0, 1.0 - (2 * lam / (lam + 1)) * (phi + 1) * r)
        _check(violations, "psi > (1 - 2 lambda/(lambda+1) (phi+1) r)_+", psi > lower, psi, ">", lower)
        _check(violations, "psi < 1", psi < 1, psi, "<", 1)
    else:
        _check(violations, "beta = 1", beta == 1.0, beta, "=", 1)
        _check(violations, "alpha > 1/2", alpha > 0.5, alpha, ">", 0.5)
        if alpha > 0.5:
            lo = 1.0 / (2 * alpha - 1)
            _check(violations, "phi > 1/(2 alpha - 1)", phi > lo, phi, ">", lo)
        _check(violations, "phi + 1 < 2 (rho + 1)", phi + 1 < 2 * (rho + 1), phi + 1, "<", 2 * (rho + 1))
        lower = max(0.0, 1.0 - (lam / (lam + 1)) * (phi + 1))
        _check(violations, "psi > (1 - lambda/(lambda+1) (phi+1))_+", psi > lower, psi, ">", lower)
        _check(violations, "psi < 1", psi < 1, psi, "<", 1)

    return ValidationReport(not violations, regime, tuple(violations))


def schedule_arrays(params: ParameterSet, n: int) -> dict[str, np.ndarray]:
    """Schedules for all indices 1..n: the single source of s_n, K_bar_n, xi_n.

    Returns arrays ``idx, gamma, b, b_bar, K, K_bar, s, xi``.  K_bar uses
    cumulative summation of the exact terms.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    p = params
    idx = np.arange(1, n + 1, dtype=float)
    K = p.kappa_K * (p.phi + 1.0) * idx ** p.phi
    K_bar = np.cumsum(K)
    if p.regime == SLOW:
        raw = np.log(p.kappa_s * K_bar ** (1.0 / (2 * p.alpha - p.beta + 1))) / math.log(p.M)
        s = np.maximum(np.floor(raw), 1.0)
    else:
        raw = (1.0 / p.alpha) * ((p.phi + 1) / 2.0) * np.log(idx) / math.log(p.M)
        s = np.maximum(np.ceil(raw), 1.0)
    b = idx ** p.rho
    return {
        "idx": idx,
        "gamma": idx ** (-p.psi),
        "b": b,
        "b_bar": np.cumsum(b),
        "K": K,
        "K_bar": K_bar,
        "s": s.astype(np.int64),
        "xi": raw - s,
    }


def fill_param_defaults(d: Mapping) -> dict:
    """Structural check of a flat parameter mapping; fills optional defaults.

    Raises on unknown or missing keys and on non-numeric values (no silent
    coercion of strings or booleans) but does not run the feasibility
    validation (use :func:`validate` or construct a ParameterSet for that).
    """
    defaults = {f.name: f.default for f in fields(ParameterSet) if f.default is not MISSING}
    unknown = set(d) - {f.name for f in fields(ParameterSet)}
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    missing = {f.name for f in fields(ParameterSet)} - set(defaults) - set(d)
    if missing:
        raise ValueError(f"missing parameter keys: {sorted(missing)}")
    for k, v in d.items():
        if k != "regime" and type(v) not in (int, float):
            raise TypeError(f"parameter {k} must be a number, got {v!r}")
    return {**defaults, **{k: (v if k == "regime" else float(v)) for k, v in d.items()}}
