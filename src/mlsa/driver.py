"""Projected multilevel stochastic approximation driver.

One iteration advances

    theta_n = Pi( theta_{n-1} + gamma_n * Z(U_n; theta_{n-1}, s_n, K_n) )

and maintains the weighted average theta_bar_n = (b_bar_{n-1} theta_bar_{n-1}
+ b_n theta_n) / b_bar_n (the average starts at n = 1, excluding theta_0) plus
the exact cumulative cost sum_m sum_k N_k(s_m, K_m) C_k(theta_{m-1}).

Per-iteration schedule and plan data are theta-independent, so they are
precomputed once in a :class:`RunPlan` and shared across replicas; a block of
replicas runs in lockstep as one (R, d) state on a random stream it owns.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import LevelFamily
from .params import ParameterSet, schedule_arrays

# snap near-integer count values before the ceiling so exact ratios such as
# K/M^s = 8 are not pushed up by float noise from pow/log round-trips
_INT_SNAP = 1e-9


def replication_counts(params: ParameterSet, s, K) -> np.ndarray:
    """Level counts N_k(s_n, K_n) for all n at once: an (n, max s_n) integer
    matrix whose row n holds (N_1, ..., N_{s_n}) and zeros past s_n.

    N_k(s, K) = ceil((K / M^s) * M^((beta+1)/2 * (s-k))), nonincreasing in k;
    for beta = 1 they reduce to ceil(K * M^-k), independent of s.  ``s`` and
    ``K`` are equal-length sequences, or scalars for a single row.
    """
    s = np.atleast_1d(np.asarray(s))
    K = np.atleast_1d(np.asarray(K, dtype=float))
    if np.any(s < 1):
        raise ValueError("s must be >= 1")
    if not np.all(K > 0):
        raise ValueError("K must be positive")
    M, beta = params.M, params.beta
    k = np.arange(1, int(s.max()) + 1)
    x = (K / M ** s)[:, None] * M ** (0.5 * (beta + 1) * (s[:, None] - k))
    r = np.round(x)
    counts = np.where(np.abs(x - r) <= _INT_SNAP * np.maximum(1.0, np.abs(x)), r, np.ceil(x))
    return np.where(k <= s[:, None], np.maximum(counts, 1.0), 0.0).astype(np.int64)


class IdentityProjection:
    """D = R^d; the projection is the identity."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x


class BoxProjection:
    """Componentwise clamp onto the box [lower_i, upper_i]."""

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if np.any(self.lower > self.upper):
            raise ValueError("box lower bounds must not exceed upper bounds")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


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
    aborted: bool = False
    abort_iteration: Optional[int] = None
    abort_z: Optional[np.ndarray] = None

    def checkpoint_at(self, n: int) -> Checkpoint:
        i = bisect.bisect_left(self.checkpoints, n, key=lambda cp: cp.n)
        if i < len(self.checkpoints) and self.checkpoints[i].n == n:
            return self.checkpoints[i]
        raise KeyError(f"no checkpoint at n={n}")


class RunPlan:
    """Precomputed, immutable per-iteration tables shared by all replicas.

    ``counts`` is the :func:`replication_counts` matrix of the run; iteration
    n samples ``counts[n-1, :s[n-1]]``.  The cost model is theta-free, so the
    cost of iteration n is the fixed increment sum_k N_k C_k.
    """

    def __init__(self, params: ParameterSet, cost_model, n_final: int):
        self.n_final = int(n_final)
        arr = schedule_arrays(params, n_final)
        self.gamma = arr["gamma"]
        self.b = arr["b"]
        self.s = arr["s"]
        self.counts = replication_counts(params, self.s, arr["K"])
        costs = np.array([cost_model.level_cost(None, k)
                          for k in range(1, self.counts.shape[1] + 1)])
        self.cost_inc = self.counts @ costs


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
        theta0, n_final: int, checkpoints: Sequence[int], seed, *, replicas: int = 1,
        ball: Optional[BallMonitor] = None, plan: Optional[RunPlan] = None) -> list[RunRecord]:
    """Run a block of ``replicas`` replicas in lockstep for ``n_final`` iterations.

    The states are the rows of one (replicas, d) array started at ``theta0``;
    each iteration makes one ``ml_estimate`` call for all rows on the stream
    ``default_rng(seed)`` (an int or a SeedSequence seed).  ``checkpoints`` are
    recorded after the indicated iteration completes.  A row whose state turns
    non-finite aborts alone with a partial record flagged invalid; it stays in
    the block, frozen, so the other rows draw and record exactly as before.
    """
    checkpoints = frozenset(int(c) for c in checkpoints)
    if checkpoints and (min(checkpoints) < 1 or max(checkpoints) > n_final):
        raise ValueError("checkpoints must lie in [1, n_final]")
    rp = plan or RunPlan(params, cost_model, n_final)
    if rp.n_final < n_final:
        raise ValueError("precomputed RunPlan is shorter than n_final")
    rng = np.random.default_rng(seed)
    theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float), (replicas, family.d)))
    theta_bar = np.zeros_like(theta)
    b_bar = 0.0
    cost = 0.0
    live = np.ones(replicas, dtype=bool)
    in_ball = np.ones(replicas, dtype=bool)
    aborts = {}  # row -> (abort iteration, its estimate, cost so far)
    recorded: list[list[Checkpoint]] = [[] for _ in range(replicas)]
    gamma, b, s, counts, cost_inc = rp.gamma, rp.b, rp.s, rp.counts, rp.cost_inc
    # non-finite states are expected here: they are detected and abort their row
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_final):
            n = i + 1
            if ball is not None and n - 1 >= ball.n0:
                in_ball &= np.linalg.norm(theta - ball.center, axis=1) <= ball.eps
            z = family.ml_estimate(theta, counts[i, :s[i]], rng)
            theta_new = projection(theta + gamma[i] * z)
            b_bar_new = b_bar + b[i]
            bar_new = (b_bar * theta_bar + b[i] * theta_new) / b_bar_new
            if not (live.all() and np.isfinite(theta_new).all()):
                failed = live & ~np.isfinite(theta_new).all(axis=1)
                for r in np.flatnonzero(failed):
                    aborts[r] = (n, z[r].copy(), cost)
                live &= ~failed
                theta_new = np.where(live[:, None], theta_new, theta)
                bar_new = np.where(live[:, None], bar_new, theta_bar)
            theta, theta_bar, b_bar = theta_new, bar_new, b_bar_new
            cost += cost_inc[i]
            if n in checkpoints:
                for r in np.flatnonzero(live):
                    recorded[r].append(Checkpoint(
                        n=n, theta=theta[r].copy(), theta_bar=theta_bar[r].copy(), cost=cost,
                        in_ball=None if ball is None else bool(in_ball[r])))
    records = []
    for r in range(replicas):
        n_abort, z_abort, cost_r = aborts.get(r, (None, None, cost))
        records.append(RunRecord(
            checkpoints=tuple(recorded[r]), n_final=n_final if n_abort is None else n_abort - 1,
            theta_final=theta[r].copy(), theta_bar_final=theta_bar[r].copy(),
            cost_final=float(cost_r), aborted=n_abort is not None, abort_iteration=n_abort,
            abort_z=z_abort))
    return records
