"""Projected multilevel stochastic approximation driver.

One iteration advances

    theta_n = Pi( theta_{n-1} + gamma_n * Z(U_n; theta_{n-1}, s_n, K_n) )

and maintains the weighted average theta_bar_n = (b_bar_{n-1} theta_bar_{n-1}
+ b_n theta_n) / b_bar_n (the average starts at n = 1, excluding theta_0) plus
the exact cumulative cost sum_m sum_k N_k(s_m, K_m) C_k(theta_{m-1}).

Per-iteration schedule and plan data are theta-independent, so they are
precomputed once in a :class:`RunPlan` and shared across replicas; each
replica owns its state and random stream exclusively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import LevelFamily
from .params import ParameterSet, schedule_arrays

# snap near-integer count values before the ceiling so exact ratios such as
# K/M^s = 8 are not pushed up by float noise from pow/log round-trips
_INT_SNAP = 1e-9


def _ceil_snapped(x: float) -> int:
    r = round(x)
    if abs(x - r) <= _INT_SNAP * max(1.0, abs(x)):
        return max(int(r), 1)
    return max(math.ceil(x), 1)


def replication_counts(params: ParameterSet, s: int, K: float) -> tuple[int, ...]:
    """Level counts (N_1, ..., N_s) for budget K at accuracy s.

    N_k(s, K) = ceil((K / M^s) * M^((beta+1)/2 * (s-k))), nonincreasing in k;
    for beta = 1 they reduce to ceil(K * M^-k), independent of s.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if not K > 0:
        raise ValueError("K must be positive")
    M, beta = params.M, params.beta
    base = K / M ** s
    return tuple(_ceil_snapped(base * M ** (0.5 * (beta + 1) * (s - k))) for k in range(1, s + 1))


class IdentityProjection:
    """D = R^d; the projection is the identity."""

    kind = "identity"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x


class BoxProjection:
    """Componentwise clamp onto the box [lower_i, upper_i]."""

    kind = "box"

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if np.any(self.lower > self.upper):
            raise ValueError("box lower bounds must not exceed upper bounds")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


def _master_sequence(seed) -> np.random.SeedSequence:
    """Fresh master handle (rebased so spawn counters start at zero)."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)
    return np.random.SeedSequence(seed)


@dataclass(frozen=True)
class BallMonitor:
    """Tracks whether theta_m stayed in B_eps(center) for all m in [n0, n-1]."""

    center: np.ndarray
    eps: float
    n0: int


def csv_header(d: int) -> list[str]:
    """Columns of one checkpoint row: n, theta_i, theta_bar_i, cost."""
    return (["n"] + [f"theta_{i}" for i in range(d)]
            + [f"theta_bar_{i}" for i in range(d)] + ["cost"])


@dataclass(frozen=True)
class Checkpoint:
    n: int
    theta: np.ndarray
    theta_bar: np.ndarray
    cost: float
    in_ball: Optional[bool] = None

    def csv_row(self) -> list:
        """Values under :func:`csv_header`, floats as exact ``repr``."""
        return ([self.n] + [repr(float(x)) for x in self.theta]
                + [repr(float(x)) for x in self.theta_bar] + [repr(float(self.cost))])


@dataclass(frozen=True)
class RunRecord:
    """Checkpointed output of one replica run."""

    checkpoints: tuple[Checkpoint, ...]
    n_final: int
    theta_final: np.ndarray
    theta_bar_final: np.ndarray
    cost_final: float
    seed: object
    aborted: bool = False
    abort_iteration: Optional[int] = None
    abort_z: Optional[np.ndarray] = None

    def checkpoint_at(self, n: int) -> Checkpoint:
        for cp in self.checkpoints:
            if cp.n == n:
                return cp
        raise KeyError(f"no checkpoint at n={n}")


class RunPlan:
    """Precomputed, immutable per-iteration tables shared by all replicas.

    The cost model is theta-free, so the cost of iteration n is the fixed
    increment sum_k N_k C_k.
    """

    def __init__(self, params: ParameterSet, cost_model, n_final: int, alpha_prime=None):
        self.params = params
        self.n_final = int(n_final)
        arr = schedule_arrays(params, n_final, alpha_prime=alpha_prime)
        self.gamma = arr["gamma"]
        self.b = arr["b"]
        self.s = arr["s"]
        self.counts = [np.asarray(replication_counts(params, int(s), float(K)), dtype=float)
                       for s, K in zip(arr["s"], arr["K"])]
        costs = np.array([cost_model.level_cost(None, k) for k in range(1, int(self.s.max()) + 1)])
        self.cost_inc = np.array([float(np.sum(c * costs[:len(c)])) for c in self.counts])


def default_theta0(family: LevelFamily) -> np.ndarray:
    """Unit-norm offset from theta* (exercises the transient)."""
    if family.theta_star is None:
        raise ValueError("family has no theta*; supply theta0 explicitly")
    d = family.d
    u = np.ones(d) / math.sqrt(d)
    return family.theta_star + u


def geometric_checkpoints(n_final: int, factor: float = 1.25) -> tuple[int, ...]:
    """Geometric checkpoint set {ceil(factor^j)} intersected with [1, n_final]."""
    pts = set()
    x = 1.0
    while x <= n_final:
        pts.add(int(math.ceil(x)))
        x *= factor
    pts.add(n_final)
    return tuple(sorted(pts))


def run(params: ParameterSet, family: LevelFamily, cost_model, projection,
        theta0, n_final: int, checkpoints: Sequence[int], seed, *,
        ball: Optional[BallMonitor] = None, plan: Optional[RunPlan] = None) -> RunRecord:
    """Run one replica for ``n_final`` iterations.

    Deterministic function of all inputs and the seed.  ``checkpoints`` are
    recorded after the indicated iteration completes; ``seed`` may be an int
    or a numpy SeedSequence.  A non-finite state aborts with a partial record
    flagged invalid.
    """
    checkpoints = tuple(sorted(set(int(c) for c in checkpoints)))
    if checkpoints and (checkpoints[0] < 1 or checkpoints[-1] > n_final):
        raise ValueError("checkpoints must lie in [1, n_final]")
    rp = plan or RunPlan(params, cost_model, n_final)
    if rp.n_final < n_final:
        raise ValueError("precomputed RunPlan is shorter than n_final")
    iteration_seeds = _master_sequence(seed).spawn(n_final)
    theta = np.array(theta0, dtype=float).reshape(family.d)
    theta_bar = np.zeros(family.d)
    b_bar = 0.0
    cost = 0.0
    in_ball = True
    cp_mask = np.zeros(n_final + 1, dtype=bool)
    for c in checkpoints:
        cp_mask[c] = True
    recorded: list[Checkpoint] = []
    gamma, b, counts_all, cost_inc = rp.gamma, rp.b, rp.counts, rp.cost_inc
    aborted = False
    abort_n = None
    abort_z = None
    for i in range(n_final):
        n = i + 1
        if ball is not None and n - 1 >= ball.n0 and in_ball:
            if float(np.linalg.norm(theta - ball.center)) > ball.eps:
                in_ball = False
        z = family.ml_estimate(theta, counts_all[i], np.random.default_rng(iteration_seeds[i]))
        theta_new = projection(theta + gamma[i] * z)
        if not np.all(np.isfinite(theta_new)):
            aborted, abort_n, abort_z = True, n, np.array(z)
            break
        cost += cost_inc[i]
        theta = theta_new
        b_bar_new = b_bar + b[i]
        theta_bar = (b_bar * theta_bar + b[i] * theta) / b_bar_new
        b_bar = b_bar_new
        if cp_mask[n]:
            recorded.append(Checkpoint(n=n, theta=theta.copy(), theta_bar=theta_bar.copy(),
                                       cost=cost, in_ball=(in_ball if ball is not None else None)))
    return RunRecord(
        checkpoints=tuple(recorded),
        n_final=(abort_n - 1) if aborted else n_final,
        theta_final=theta.copy(),
        theta_bar_final=theta_bar.copy(),
        cost_final=cost,
        seed=seed,
        aborted=aborted,
        abort_iteration=abort_n,
        abort_z=abort_z,
    )
