import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mlsa.asymptotics
import mlsa.params
from mlsa.asymptotics import (_powers, oracle_eps_bias, oracle_eps_diff, predict_critical,
                              predict_slow, predictions)
from mlsa.config import ConfigError, config_from_dict
from mlsa.driver import RunPlan
from mlsa.harness import ReplicationSpec, clt_report, cost_curve, run_replicas
from mlsa.params import (InvalidParameters, ParameterSet, replication_counts, schedule_arrays,
                         schedule_windows, validate)

from conftest import CRITICAL_DEFAULT, SLOW_DEFAULT, SLOW_PINNED


def make(overrides, base=SLOW_PINNED):
    d = dict(base)
    d.update(overrides)
    return d


def names(violations):
    return tuple(message.split(": ", 1)[0] for message in violations)


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


def test_alpha_whose_double_overflows_rejected_by_name():
    # 2 alpha is finite up to half the largest double, and past it every bound reading it is
    # void: the named check alone rejects, in either regime
    half = np.finfo(float).max / 2
    for base in (SLOW_PINNED, CRITICAL_DEFAULT):
        assert "2 alpha finite" not in names(validate(make({"alpha": half}, base=base)))
        assert names(validate(make({"alpha": np.nextafter(half, np.inf)}, base=base))) == (
            "2 alpha finite",)


def test_critical_acceptance_and_rejection():
    assert validate(CRITICAL_DEFAULT) == ()
    assert "beta = 1" in names(validate(make({"beta": 0.9}, base=CRITICAL_DEFAULT)))
    assert "beta < 2 alpha" in names(validate(make({"alpha": 0.5}, base=CRITICAL_DEFAULT)))


def test_validate_is_pure():
    d = make({"beta": 1.2})
    assert validate(d) == validate(d)


def regime_inequalities_hold(v):
    """The standing assumptions, one regime at a time and in the critical regime's own form
    (alpha > 1/2, phi > 1/(2 alpha - 1), psi > (1 - lam/(lam+1) (phi+1))_+), as plain floats;
    each bound is taken only after the inequality that makes it finite."""
    a, beta, phi, rho, psi, lam = (v[k] for k in ("alpha", "beta", "phi", "rho", "psi", "lam"))
    q = lam / (lam + 1)
    if v["regime"] == "slow":
        return (beta < 1 and beta < 2 * a and phi > 1 / (2 * a - beta) and phi + 1 < 2 * (rho + 1)
                and max(0.0, 1 - 2 * q * (phi + 1) * (a / (2 * a - beta + 1))) < psi < 1)
    return (beta == 1 and a > 0.5 and phi > 1 / (2 * a - 1) and phi + 1 < 2 * (rho + 1)
            and max(0.0, 1 - q * (phi + 1)) < psi < 1)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(regime=st.sampled_from(["slow", "critical"]),
       alpha=st.floats(0.3, 20.0), beta=st.one_of(st.just(1.0), st.floats(0.05, 1.5)),
       dphi=st.floats(-1.0, 1.5).map(lambda x: 1.0 - x),  # hypothesis favours x = 0
       drho=st.floats(-1.0, 1.5).map(lambda x: 1.0 - x),
       u=st.floats(-0.55, 0.55).map(lambda x: 0.5 - x),
       lam=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)), eighths=st.integers(-8, 96),
       pin=st.sampled_from([None, None, "weight", "phi", "psi"]))
def test_validate_is_the_regime_inequality_list(regime, alpha, beta, dphi, drho, u, lam,
                                                eighths, pin):
    # phi, rho and psi are drawn as offsets from their bounds, so accepted sets are common;
    # a pin puts one strict inequality at exact equality, which rejects
    b = beta if regime == "slow" else 1.0
    bounded = b < 2 * alpha
    phi = (1 / (2 * alpha - b) if bounded else 1.0) + (0.0 if pin == "phi" else dphi)
    rho = (phi + 1) / 2 - 1 + drho
    if pin == "weight":  # on the grid of eighths, phi + 1 = 2 (rho + 1) exactly
        rho = eighths / 8
        phi = 2 * rho + 1
    v = make({"regime": regime, "alpha": alpha, "beta": beta, "phi": phi, "rho": rho, "lam": lam})
    lower = 0.0
    if bounded:  # validate's psi bound: the same operations in the same order
        lower = max(0.0, 1 - 2 * lam / (lam + 1) * (phi + 1) * (alpha / (2 * alpha - b + 1)))
    v["psi"] = lower + (0.0 if pin == "psi" else u) * (1 - lower)
    accepted = validate(v) == ()
    assert accepted == regime_inequalities_hold(v), validate(v)
    assert not (accepted and pin)


def test_undefined_bounds_reject_without_raising():
    # slow 2 alpha - beta + 1 = 0, and critical 2 alpha - 1 + 1 = 0 in floats: the phi and
    # psi bounds are not evaluated where beta < 2 alpha fails
    for overrides in ({"alpha": 0.5, "beta": 2.0}, {"alpha": 1.0, "beta": 3.0},
                      {"regime": "critical", "beta": 1.0, "alpha": 1e-20}):
        assert "beta < 2 alpha" in names(validate(make(overrides)))


def schedule_at(params, n):
    """(K_bar_n, s_n, xi_n) from the last entry of the streamed schedule."""
    arr = streamed(params, n, ("K_bar", "s", "xi"))
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
    arr = streamed(p, 399, ("K_bar", "s", "xi"))
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
        xi_n = streamed(p, n_max, ("xi",))["xi"]  # a build holds no xi
        if p.phi == 2.0 or p.regime == "critical":
            ns = range(1, n_max + 1)
        else:  # fsum is O(n) per index, so check a spread of indices
            ns = (1, 2, 17, 100, 499, 500, 4_000, 65_537, n_max)
        for n, (s, xi) in reference_schedule(p, ns).items():
            assert arr["s"][n - 1] == s, (overrides, n)
            assert abs(xi_n[n - 1] - xi) <= 1e-10, (overrides, n)


WINDOWED_N = 3 * 2 ** 16 + 7  # three full 2^16-index windows and a tail


def one_shot_schedule(p, n):
    """The schedule keys by full-length expressions over indices 1..n at once."""
    idx = np.arange(1, n + 1, dtype=float)
    K = p.kappa_K * (p.phi + 1.0) * idx ** p.phi
    K_bar = np.cumsum(K)
    if p.regime == "slow":
        raw = np.log(p.kappa_s * K_bar ** (1.0 / (2 * p.alpha - p.beta + 1))) / math.log(p.M)
        s = np.maximum(np.floor(raw), 1.0)
    else:
        raw = (1.0 / p.alpha) * ((p.phi + 1) / 2.0) * np.log(idx) / math.log(p.M)
        s = np.maximum(np.ceil(raw), 1.0)
    b = idx ** p.rho
    return {"gamma": idx ** (-p.psi), "b": b, "b_bar": np.cumsum(b), "K": K, "K_bar": K_bar,
            "s": s.astype(np.int64), "xi": raw - s}


@pytest.mark.parametrize("base, overrides", [(SLOW_PINNED, {}),
                                             (SLOW_PINNED, {"kappa_s": 8.0, "psi": 0.5}),
                                             (SLOW_PINNED, {"phi": 1.5, "rho": 1.5}),
                                             (CRITICAL_DEFAULT, {})])
def test_windowed_build_is_bitwise_one_shot(base, overrides):
    p = ParameterSet(**make(overrides, base=base))
    got, want = schedule_arrays(p, WINDOWED_N), one_shot_schedule(p, WINDOWED_N)
    got["xi"] = streamed(p, WINDOWED_N, ("xi",))["xi"]  # streamed only: a build holds no xi
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert got[k].dtype == v.dtype and got[k].tobytes() == v.tobytes(), k


def drop_schedule_memos():
    """Forget the memoised oracle sums, so the next call starts cold."""
    mlsa.asymptotics._oracles.cache_clear()


def windows_peak(windows):
    """The traced peak of a pass that holds ``windows`` window arrays at once (2^16 doubles or
    int64s each, 512 KiB), plus one 64 KiB allowance for all that is not a window array: the
    dicts, scalars and 0-d results, and the small ``_powers`` tables."""
    return windows * 8 * mlsa.params.WINDOW + 2 ** 16


# The window arrays each pass holds at once by design:
# - a schedule build's second pass: K, with K_bar (slow) or the indices (critical), while levels
#   makes xi and s, as float then int64;
# - a slow oracle pass: b, b_bar and K_bar while levels makes xi and the two s; after it, b, b_bar
#   and s, with the oracle's k, the _powers index and result, or its product; and the window
#   before's b, k and d2, which the loop rebinds only after the generator builds the next window
#   (released sooner, their pages go back to the system and each window faults them in again);
# - a critical oracle pass: the indices, b and b_bar while the generator builds a window, with
#   the window before's b, k and d2;
# - a slow prediction: the indices and K, then the running sum made in K;
# - a critical prediction: none, since it makes no pass.
# K's scalar factor multiplies the power's own array, never a second one, by numpy's temporary
# elision, which numpy does only on platforms with the C backtrace function (glibc, as on CI's
# Linux); elsewhere a pass that makes K holds one window more.
BUILD_WINDOWS, ORACLE_WINDOWS = 5, {"slow": 9, "critical": 6}
PREDICTION_WINDOWS = {"slow": 2, "critical": 0}


def test_build_and_oracles_hold_no_full_length_temporaries(slow_params_pinned,
                                                           critical_params_pinned):
    n = 10 ** 6
    for p in (slow_params_pinned, critical_params_pinned):
        drop_schedule_memos()
        tracemalloc.start()
        try:
            arr = schedule_arrays(p, n)
            held, peak = tracemalloc.get_traced_memory()
            assert held >= 6 * 8 * n and peak <= 6 * 8 * n + windows_peak(BUILD_WINDOWS)
            del arr
            drop_schedule_memos()  # the oracles stream the schedule and read no build
            tracemalloc.reset_peak()
            if p.regime == "slow":
                oracle_eps_bias(p, n)
            oracle_eps_diff(p, n)
            assert tracemalloc.get_traced_memory()[1] <= windows_peak(ORACLE_WINDOWS[p.regime])
        finally:
            tracemalloc.stop()


def test_streamed_predictions_hold_a_few_windows(slow_params_pinned, critical_params_pinned):
    n = 10 ** 6
    for p, predict in ((slow_params_pinned, predict_slow), (critical_params_pinned, predict_critical)):
        drop_schedule_memos()
        tracemalloc.start()
        try:
            predict(p, n)
            peak = tracemalloc.get_traced_memory()[1]
            assert peak <= windows_peak(PREDICTION_WINDOWS[p.regime])
        finally:
            tracemalloc.stop()


COUNT_WINDOW = mlsa.params.WINDOW // 4  # entries of one window of replication_counts' rows


def count_windows_peak(windows):
    """The traced bytes of ``windows`` float windows of COUNT_WINDOW entries (128 KiB each),
    plus the 64 KiB allowance of :func:`windows_peak`."""
    return windows * 8 * COUNT_WINDOW + 2 ** 16


# A counts window holds three float arrays at once (the real counts x; round(x), then
# |x - round(x)|; the snap bound, then the counts) and two boolean masks of an eighth each
# (past s_n, and near an integer); the previous window's are released first.  RunPlan's
# cost casts one window of counts to float at a time.  No count assumes temporary elision.
COUNT_WINDOWS, COST_WINDOWS = 3.25, 1


def test_plan_build_holds_a_few_count_windows(monkeypatch, slow_params, cost_model):
    n = 4000  # the slow_clt shape: slow_default's plan, s_max = 17, so 963 rows a window
    arr = schedule_arrays(slow_params, n)
    tracemalloc.start()
    try:
        counts = replication_counts(slow_params, arr["s"], arr["K"])
        assert counts.shape == (n, 17)
        peak = tracemalloc.get_traced_memory()[1]
        assert peak <= counts.nbytes + count_windows_peak(COUNT_WINDOWS)
    finally:
        tracemalloc.stop()
    del arr, counts
    peaks = []

    def counts_then_reset(*args):  # the peak up to the counts, then the cost's alone
        counts = replication_counts(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return counts

    monkeypatch.setattr(mlsa.driver, "replication_counts", counts_then_reset)
    tracemalloc.start()
    try:
        plan = RunPlan(slow_params, cost_model, n)
        held, cost_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    schedule = len(mlsa.params.KEYS) * 8 * n  # the build's arrays, K and K_bar until it returns
    assert held >= plan.counts.nbytes + 5 * 8 * n
    assert peaks[0] <= schedule + plan.counts.nbytes + count_windows_peak(COUNT_WINDOWS)
    assert cost_peak <= held + 2 * 8 * n + count_windows_peak(COST_WINDOWS)


def whole_matrix_counts(p, s, K):
    """replication_counts' one-shot form: every (n, s_max) array at once, cast at the end."""
    k = np.arange(1, int(s.max()) + 1)
    x = (K / p.M ** s)[:, None] * p.M ** (0.5 * (p.beta + 1) * (s[:, None] - k))
    r = np.round(x)
    counts = np.where(np.abs(x - r) <= 1e-9 * np.maximum(1.0, np.abs(x)), r, np.ceil(x))
    return np.where(k <= s[:, None], np.maximum(counts, 1.0), 0.0).astype(np.int64)


@pytest.mark.parametrize("base", [SLOW_DEFAULT, CRITICAL_DEFAULT])
def test_windowed_counts_and_cost_are_bitwise_the_whole_matrix(base, cost_model):
    p, n = ParameterSet(**base), 4000
    plan, arr = RunPlan(p, cost_model, n), schedule_arrays(p, n)
    rows = COUNT_WINDOW // plan.counts.shape[1]
    assert n % rows  # the last window is partial
    steps = np.flatnonzero(np.diff(plan.s)) + 1  # the first rows of a new s_n
    assert np.any(steps % rows)  # and s_n changes inside a window
    want = whole_matrix_counts(p, arr["s"], arr["K"])
    assert plan.counts.dtype == want.dtype and plan.counts.tobytes() == want.tobytes()
    costs = np.array([cost_model.level_cost(k) for k in range(1, want.shape[1] + 1)])
    assert plan.cost.tobytes() == np.cumsum(want @ costs).tobytes()


def streamed(p, n, keys):
    """Each key of one pass over the windows, concatenated; each window holds exactly ``keys``."""
    parts = {k: [] for k in keys}
    for _, w in schedule_windows(p, n, keys):
        assert list(w) == list(keys)
        for k in keys:
            parts[k].append(w[k].copy())
    return {k: np.concatenate(v) for k, v in parts.items()}


def full_build_oracles(p, n):
    """(eps_bias or None, eps_diff) reduced from one full schedule_arrays build: np.sum
    of the elementwise terms per 2^16-index window, the window sums in order."""
    arr = schedule_arrays(p, n)
    k = np.arange(1, n + 1, dtype=float)
    if p.regime == "slow":
        bias = arr["b"] * p.M ** (-p.alpha * arr["s"])
        d2 = arr["b"] ** 2 * (p.M ** ((1.0 - p.beta) * arr["s"]) / k ** p.phi)
    else:
        bias = None
        d2 = arr["b"] ** 2 * ((2.0 * p.alpha * p.kappa_K) ** -1.0 * k ** (-p.phi) * np.log(k)
                              / math.log(p.M))
    windows = range(0, n, 2 ** 16)
    conv = (1.0 if p.regime == "critical" else
            math.sqrt(p.kappa_K * (p.phi + 1) * (1.0 - p.M ** (-(1.0 - p.beta) / 2.0))))
    diff = math.sqrt(sum(float(np.sum(d2[lo:lo + 2 ** 16])) for lo in windows))
    b_bar = float(arr["b_bar"][-1])
    return (None if bias is None else
            sum(float(np.sum(bias[lo:lo + 2 ** 16])) for lo in windows) / b_bar,
            diff / b_bar / conv)


@pytest.mark.parametrize("base, overrides", [(SLOW_PINNED, {}),
                                             (SLOW_PINNED, {"kappa_s": 8.0, "psi": 0.5}),
                                             (SLOW_PINNED, {"phi": 1.5, "rho": 1.5}),
                                             (CRITICAL_DEFAULT, {})])
def test_streamed_schedule_and_oracles_are_bitwise_a_full_build(base, overrides):
    p = ParameterSet(**make(overrides, base=base))
    drop_schedule_memos()
    ns = [1, 2, 2 ** 16, 2 ** 16 + 1, 2 * 2 ** 16 + 5, WINDOWED_N - 1, WINDOWED_N]
    pred = predictions(p, ns if p.regime == "slow" else ns[1:])
    bias, diff = (oracle_eps_bias(p, WINDOWED_N) if p.regime == "slow" else None,
                  oracle_eps_diff(p, WINDOWED_N))
    arr = schedule_arrays(p, WINDOWED_N)
    at = pred.n - 1
    xi_n = streamed(p, WINDOWED_N, ("xi",))["xi"]
    assert pred.s.tobytes() == arr["s"][at].tobytes() and pred.xi.tobytes() == xi_n[at].tobytes()
    for k in arr:  # each key on its own: a pass computes what the key needs, carries included
        got = streamed(p, WINDOWED_N, (k,))[k]
        assert got.dtype == arr[k].dtype and got.tobytes() == arr[k].tobytes(), k
    want_bias, want_diff = full_build_oracles(p, WINDOWED_N)
    assert diff.hex() == want_diff.hex()
    assert bias is None if want_bias is None else bias.hex() == want_bias.hex()


def test_predictions_stream_only_the_budget(monkeypatch, slow_params_pinned,
                                            critical_params_pinned):
    # the critical level reads n itself; the slow one reads K_bar_n, a running sum, so its
    # predictions make one pass over ("K_bar",) to max(ns), and the critical ones none
    asked = []

    def recording(p, n, keys=mlsa.params.KEYS):
        asked.append((p.regime, n, tuple(keys)))
        return schedule_windows(p, n, keys)

    monkeypatch.setattr(mlsa.asymptotics, "schedule_windows", recording)
    predictions(critical_params_pinned, [2, 10, WINDOWED_N])
    predict_critical(critical_params_pinned, 10 ** 6)
    assert asked == []
    predictions(slow_params_pinned, [10, WINDOWED_N, 3])
    assert asked == [("slow", WINDOWED_N, ("K_bar",))]


@pytest.mark.parametrize("base, overrides", [(SLOW_PINNED, {}),
                                             (SLOW_PINNED, {"kappa_s": 1e-3}),  # xi_n < 0 early
                                             (SLOW_PINNED, {"M": 3.0, "alpha": 0.8, "beta": 0.3,
                                                            "phi": 3.0, "rho": 3.0}),
                                             (CRITICAL_DEFAULT, {}),
                                             (CRITICAL_DEFAULT, {"alpha": 2.5})])
def test_predicted_levels_are_the_windows_bit_for_bit(base, overrides):
    # predictions decide s_n and xi_n at the asked n only; each n, alone or with the
    # others, gets the bits the windows give it, at and around every window edge
    p = ParameterSet(**make(overrides, base=base))
    want = streamed(p, WINDOWED_N, ("s", "xi"))
    edges = {lo + d for lo in range(0, WINDOWED_N, 2 ** 16) for d in (-1, 0, 1, 2, 3)}
    ns = sorted(n for n in edges | {WINDOWED_N - 1, WINDOWED_N, 1000}
                if (1 if p.regime == "slow" else 2) <= n <= WINDOWED_N)
    for group in [ns] + [[n] for n in ns]:
        got, at = predictions(p, group), np.asarray(group) - 1
        assert got.s.dtype == want["s"].dtype and got.s.tobytes() == want["s"][at].tobytes()
        assert got.xi.tobytes() == want["xi"][at].tobytes(), group


@pytest.mark.parametrize("M, alpha, beta", [(2.0, 1.0, 0.5), (3.0, 0.8, 0.3), (1.5, 1.7, 0.9),
                                            (7.0, 0.55, 0.05)])
def test_s_power_table_is_the_elementwise_power(M, alpha, beta):
    rng = np.random.default_rng(int(10 * M))
    runs = np.repeat(np.arange(1, 60), rng.integers(1, 3000, 59))  # s's nondecreasing runs
    for s in (runs, runs[::-1].copy(), rng.integers(1, 40, 5000), np.array([5]),
              np.array([1, 90, 3])):  # the last: a range wider than s, so no table
        for c in (-alpha, 1.0 - beta):
            got = _powers(M, c, s)
            assert got.dtype == np.float64 and np.array_equal(got, M ** (c * s))


def test_params_from_dict_strictness():
    def doc(params):
        return {"params": params,
                "family": {"kind": "synthetic_gaussian", "theta_star": [0.0], "H": [[-1.0]],
                           "mu": [1.0], "noise_factor": [[1.0]]},
                "projection": {"kind": "identity"},
                "replication": {"replicas": 2, "n_final": 10, "master_seed": 0},
                "output": {"directory": "out"}}

    assert config_from_dict(doc(make({}))).params == ParameterSet(**SLOW_PINNED)
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(doc(make({"bogus": 1.0})))
    with pytest.raises(ConfigError, match="missing"):
        config_from_dict(doc({"regime": "slow", "alpha": 1.0}))
    for bad in ("2.0", True, None, [2.0]):  # no silent coercion to a number
        with pytest.raises(ConfigError, match="M must be a number"):
            config_from_dict(doc(make({"M": bad})))


def test_bad_regime_tag():
    assert "regime" in names(validate(make({"regime": "fast"})))


def test_schedule_build_is_released_with_its_caller(slow_params_pinned):
    kept = weakref.ref(schedule_arrays(slow_params_pinned, 500)["s"])
    assert kept() is None  # nothing at module level holds the build
    arr = schedule_arrays(slow_params_pinned, 500)
    assert tuple(arr) == mlsa.params.KEYS and all(v.flags.writeable for v in arr.values())


def test_schedule_rebuild_after_other_keys_is_bitwise_equal(slow_params_pinned,
                                                            critical_params_pinned):
    first = {k: v.copy() for k, v in schedule_arrays(slow_params_pinned, 700).items()}
    schedule_arrays(slow_params_pinned, 350)
    schedule_arrays(critical_params_pinned, 700)
    again = schedule_arrays(slow_params_pinned, 700)
    for k, v in first.items():
        assert again[k].dtype == v.dtype and again[k].tobytes() == v.tobytes(), k


def test_one_schedule_build_per_params_and_n(slow_params, slow_params_pinned, slow_family,
                                             cost_model, identity):
    drop_schedule_memos()
    for i, n in enumerate((1237, WINDOWED_N)):  # one window, then four
        first = predictions(slow_params_pinned, [10, n])
        oracle_eps_bias(slow_params_pinned, n)  # one pass serves both oracles
        oracle_eps_diff(slow_params_pinned, n)
        oracle_eps_bias(slow_params_pinned, n)
        info = mlsa.asymptotics._oracles.cache_info()
        assert (info.misses, info.hits) == (i + 1, 2 * i + 2)
        again = predictions(slow_params_pinned, [10, n])  # predictions keep no memo
        assert again.xi is not first.xi and again.xi.tobytes() == first.xi.tobytes()
        assert mlsa.asymptotics._oracles.cache_info() == info
    # a run, its CLT report and its cost curve make no oracle pass
    spec = ReplicationSpec(replicas=20, n_final=60, checkpoints=(30, 60), master_seed=3)
    record = run_replicas(spec, slow_params, slow_family, cost_model, identity,
                          slow_family.theta_star + 0.5)
    clt_report(record, slow_params, slow_family, 60, divergence_radius=10.0)
    cost_curve(record, slow_params)
    assert mlsa.asymptotics._oracles.cache_info() == info
