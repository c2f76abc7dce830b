import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlsa import InvalidParameters, ParameterSet, validate
from mlsa.params import fill_param_defaults, schedule_arrays

from conftest import CRITICAL_DEFAULT, SLOW_PINNED


def make(overrides, base=SLOW_PINNED):
    d = dict(base)
    d.update(overrides)
    return d


def names(violations):
    return tuple(v.name for v in violations)


def test_accepted_reference_set():
    assert validate(make({})) == ()


def test_rejects_beta_not_below_one():
    assert "beta < 1" in names(validate(make({"beta": 1.2})))


def test_rejects_weight_exponent_too_small():
    # phi + 1 = 3 is not below 2 (rho + 1) = 2
    assert "phi + 1 < 2 (rho + 1)" in names(validate(make({"rho": 0.0})))


def test_equality_rejects_strictly():
    # phi + 1 = 2 (rho + 1) exactly
    assert "phi + 1 < 2 (rho + 1)" in names(validate(make({"phi": 2.0, "rho": 0.5})))
    assert validate(make({"psi": 1.0}))


def test_non_finite_rejected_with_reason():
    assert names(validate(make({"alpha": float("nan")}))) == ("non-finite",)


def test_invalid_set_cannot_be_constructed():
    with pytest.raises(InvalidParameters) as exc:
        ParameterSet(**make({"beta": 1.2}))
    assert "beta < 1" in names(exc.value.violations)


def test_critical_acceptance_and_rejection():
    assert validate(CRITICAL_DEFAULT) == ()
    assert "beta = 1" in names(validate(make({"beta": 0.9}, base=CRITICAL_DEFAULT)))
    assert "alpha > 1/2" in names(validate(make({"alpha": 0.5}, base=CRITICAL_DEFAULT)))


def test_validate_is_pure():
    d = make({"beta": 1.2})
    assert validate(d) == validate(d)


def schedule_at(params, n):
    """(K_bar_n, s_n, xi_n) from the last entry of the schedule arrays."""
    arr = schedule_arrays(params, n)
    return float(arr["K_bar"][-1]), int(arr["s"][-1]), float(arr["xi"][-1])


def test_schedule_reference_point(slow_params_pinned):
    K_bar, s, xi = schedule_at(slow_params_pinned, 10)
    assert K_bar == 3 * 385  # sum of 3 k^2, k <= 10
    assert s == 4
    assert abs(xi - 0.0695) < 1e-3
    # definitional identity between the level, the offset and the budget
    lhs = slow_params_pinned.M ** (s + xi)
    rhs = slow_params_pinned.kappa_s * K_bar ** (1 / 2.5)
    assert abs(lhs / rhs - 1) < 1e-12


def test_schedule_clamp_branch():
    p = ParameterSet(**make({"kappa_s": 1e-3}))
    _, s, xi = schedule_at(p, 1)
    assert s == 1
    assert xi < 0  # the floor was below 1


def test_schedule_rejects_n_zero(slow_params_pinned):
    with pytest.raises(ValueError):
        schedule_arrays(slow_params_pinned, 0)


def test_critical_level_reference_point():
    p = ParameterSet(**CRITICAL_DEFAULT)
    assert schedule_at(p, 8)[1] == 5  # ceil(1.5 * log2 8) = ceil(4.5)


def test_level_offset_identity_along_n(slow_params_pinned):
    p = slow_params_pinned
    arr = schedule_arrays(p, 399)
    for K_bar, s, xi in zip(arr["K_bar"], arr["s"], arr["xi"]):
        if xi >= 0:
            lhs = p.M ** (s + xi)
            rhs = p.kappa_s * K_bar ** (1 / 2.5)
            assert abs(lhs / rhs - 1) < 1e-12


def test_monotonicity(slow_params_pinned):
    arr = schedule_arrays(slow_params_pinned, 3000)
    assert np.all(np.diff(arr["s"]) >= 0)
    assert np.all(np.diff(arr["K_bar"]) > 0)
    assert np.all(np.diff(arr["gamma"]) < 0)
    arr_c = schedule_arrays(ParameterSet(**CRITICAL_DEFAULT), 3000)
    assert np.all(np.diff(arr_c["s"]) >= 0)


def reference_schedule(p, ns):
    """Plain-Python (s_n, xi_n) at the indices ``ns`` from an exactly summed K_bar_n.

    phi = 2 sums k^2 in closed form over the integers; any other phi sums the
    budget terms with math.fsum, which rounds the exact sum once.
    """
    out = {}
    for n in ns:
        if p.regime == "critical":
            raw = (p.phi + 1) / 2.0 / p.alpha * math.log(n) / math.log(p.M)
            s = max(math.ceil(raw), 1)
        else:
            if p.phi == 2.0:
                K_bar = p.kappa_K * float(n * (n + 1) * (2 * n + 1) // 2)
            else:
                K_bar = math.fsum(p.kappa_K * (p.phi + 1) * float(k) ** p.phi
                                  for k in range(1, n + 1))
            raw = math.log(p.kappa_s * K_bar ** (1.0 / (2 * p.alpha - p.beta + 1))) / math.log(p.M)
            s = max(math.floor(raw), 1)
        out[n] = (s, raw - s)
    return out


def test_schedule_arrays_match_exact_reference():
    n_max = 200_000
    cases = [(SLOW_PINNED, {}), (SLOW_PINNED, {"kappa_s": 8.0, "psi": 0.5}),
             (SLOW_PINNED, {"phi": 1.5, "rho": 1.5}), (CRITICAL_DEFAULT, {})]
    for base, overrides in cases:
        p = ParameterSet(**make(overrides, base=base))
        arr = schedule_arrays(p, n_max)
        if p.phi == 2.0 or p.regime == "critical":
            ns = range(1, n_max + 1)
        else:  # fsum is O(n) per index, so check a spread of indices
            ns = (1, 2, 17, 100, 499, 500, 4_000, 65_537, n_max)
        for n, (s, xi) in reference_schedule(p, ns).items():
            assert arr["s"][n - 1] == s, (overrides, n)
            assert abs(arr["xi"][n - 1] - xi) <= 1e-10, (overrides, n)


def test_params_from_dict_strictness():
    with pytest.raises(ValueError, match="unknown"):
        fill_param_defaults(make({"bogus": 1.0}))
    with pytest.raises(ValueError, match="missing"):
        fill_param_defaults({"regime": "slow", "alpha": 1.0})
    for bad in ("2.0", True, None, [2.0]):  # no silent coercion to a number
        with pytest.raises(TypeError, match="M must be a number"):
            fill_param_defaults(make({"M": bad}))


def test_bad_regime_tag():
    assert "regime" in names(validate(make({"regime": "fast"})))
