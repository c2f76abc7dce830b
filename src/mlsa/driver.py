"""Projected multilevel stochastic approximation driver.

One iteration advances

    theta_n = Pi( theta_{n-1} + gamma_n * Z(U_n; theta_{n-1}, s_n, K_n) )

and maintains the weighted average theta_bar_n = b_bar_n^-1 sum_{k<=n} b_k theta_k
(the average starts at n = 1, excluding theta_0) as one running sum of b_k theta_k,
plus the exact cumulative cost sum_m sum_k N_k(s_m, K_m) C_k(theta_{m-1}).

Per-iteration schedule and plan data are theta-independent, so they are
precomputed once in a :class:`RunPlan` and shared across replicas; a block of
replicas runs in lockstep as one (R, d) state on a random stream it owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import LevelFamily
from .params import WINDOW, ParameterSet, replication_counts, schedule_arrays


class IdentityProjection:
    """D = R^d; the projection is the identity."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x


class BoxProjection:
    """Componentwise clamp onto the box [lower_i, upper_i]."""

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if not np.all(self.lower <= self.upper):  # also false at a NaN bound
            raise ValueError("box bounds must be numbers with lower <= upper")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True)
class BallMonitor:
    """Tracks whether theta_m stayed in B_eps(center) for all m in [n0, n-1]."""

    center: np.ndarray
    eps: float
    n0: int


@dataclass(frozen=True)
class RunRecord:
    """Checkpointed output of one run of R replicas; row r is replica r.

    ``theta``, ``theta_bar`` (c, R, d) and ``in_ball`` (c, R; None without a
    ``ball`` monitor) hold all rows after iteration ``ns[j]``; ``cost`` (c,) is
    shared, the cost model being theta-free.  A row whose average turned
    non-finite at iteration ``abort_iteration[r]`` (0: it completed) aborted
    there: its entries at checkpoints from then on are not part of the record.
    """

    ns: np.ndarray
    theta: np.ndarray
    theta_bar: np.ndarray
    cost: np.ndarray
    in_ball: Optional[np.ndarray]
    ball: Optional[BallMonitor]
    abort_iteration: np.ndarray

    @property
    def aborted(self) -> np.ndarray:
        return self.abort_iteration > 0


class RunPlan:
    """Precomputed, immutable per-iteration tables shared by all replicas.

    ``counts`` is the :func:`replication_counts` matrix of the run; iteration
    n samples ``counts[n-1, :s[n-1]]``.  The cost model is theta-free, so
    ``cost[n-1]``, the cost of iterations 1..n, is the sum of the fixed
    increments sum_k N_k C_k, summed once in iteration order.
    """

    def __init__(self, params: ParameterSet, cost_model, n_final: int):
        self.n_final = int(n_final)
        arr = schedule_arrays(params, n_final)
        self.gamma = arr["gamma"]
        self.b, self.b_bar = arr["b"], arr["b_bar"]
        self.s = arr["s"]
        self.counts = replication_counts(params, self.s, arr["K"])
        costs = np.array([cost_model.level_cost(k)
                          for k in range(1, self.counts.shape[1] + 1)])
        self.cost = np.cumsum(self.counts @ costs)


def default_theta0(family: LevelFamily) -> np.ndarray:
    """Unit-norm offset from theta* (exercises the transient)."""
    if family.theta_star is None:
        raise ValueError("family has no theta*; supply theta0 explicitly")
    d = family.d
    u = np.ones(d) / math.sqrt(d)
    return family.theta_star + u


def geometric_checkpoints(n_final: int) -> tuple[int, ...]:
    """Geometric checkpoint set {ceil(1.25^j)} intersected with [1, n_final]."""
    pts = set()
    x = 1.0
    while x <= n_final:
        pts.add(int(math.ceil(x)))
        x *= 1.25
    pts.add(n_final)
    return tuple(sorted(pts))


def run(plan: RunPlan, family: LevelFamily, projection, theta0, checkpoints: Sequence[int],
        seed, *, replicas: int = 1, ball: Optional[BallMonitor] = None) -> RunRecord:
    """Run a block of ``replicas`` replicas in lockstep for ``plan.n_final`` iterations.

    The plan is the run's only schedule input.  The states are the rows of
    one (replicas, d) array started at ``theta0``, on the stream
    ``default_rng(seed)`` (an int or a SeedSequence seed).  The iterations run
    in chunks: each run of equal s_n is cut every max(1, 2^16 // (replicas s d))
    iterations.  A one-thread executor, the only caller of ``family.draw``, draws
    the chunks' random input in order, one entry per counts row, up to three
    chunks ahead, under this function's ``np.errstate``; each iteration makes one
    ``ml_estimate`` call for all rows with its entry, and the iterations only step.
    The thread is joined on every exit, and an exception a draw raises reaches the
    caller.  After each chunk, one cumulative sum takes the chunk's b_n theta_n into
    the running sum S_n carried over, and theta_bar_n = S_n / b_bar_n; the whole
    block is recorded at the chunk's ``checkpoints``, the ball flags are updated,
    and each row whose average turned non-finite in the chunk is flagged as aborted
    at its first such iteration.  Rows never mix, so an aborted row keeps stepping
    and the other rows draw and record exactly as they would without it.
    """
    from concurrent.futures import ThreadPoolExecutor  # not at import: it loads logging

    n_final = plan.n_final
    ns = np.array(sorted({int(c) for c in checkpoints}), dtype=np.int64)
    if ns.size and (ns[0] < 1 or ns[-1] > n_final):
        raise ValueError("checkpoints must lie in [1, n_final]")
    rng = np.random.default_rng(seed)
    theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float), (replicas, family.d)))
    wsum = np.zeros_like(theta)  # sum_{k<=n} b_k theta_k, added in iteration order
    in_ball = np.ones(replicas, dtype=bool)
    abort_iteration = np.zeros(replicas, dtype=np.int64)
    rec_theta = np.empty((len(ns),) + theta.shape)
    rec_bar = np.empty_like(rec_theta)
    rec_ball = None if ball is None else np.empty((len(ns), replicas), dtype=bool)
    # Python scalars: the same doubles, without numpy scalar dispatch per iteration
    gamma, s = plan.gamma.tolist(), plan.s.tolist()
    runs = np.flatnonzero(np.diff(plan.s, prepend=0)).tolist() + [n_final]  # where s_n changes
    cuts = [n for a, e in zip(runs, runs[1:])
            for n in range(a, e, max(1, WINDOW // (replicas * s[a] * family.d)))]
    blocks = [plan.counts[a:e, :s[a]] for a, e in zip(cuts, cuts[1:] + [n_final])]

    def draw(block):  # numpy's errstate is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            return family.draw(block, replicas, rng)

    # non-finite states are expected here: they are detected and abort their row
    with ThreadPoolExecutor(max_workers=1) as pool, np.errstate(over="ignore", invalid="ignore"):
        ahead = [pool.submit(draw, block) for block in blocks[:3]]
        for c, (first, block) in enumerate(zip(cuts, blocks)):  # one chunk: one draw's iterations
            entries = ahead.pop(0).result()
            if c + 3 < len(blocks):
                ahead.append(pool.submit(draw, blocks[c + 3]))
            path = [theta]
            for i, (counts, entry) in enumerate(zip(block, entries), first):
                z = family.ml_estimate(theta, counts, entry)
                theta = projection(theta + gamma[i] * z)
                path.append(theta)
            last = first + len(block)
            states = np.stack(path)  # row t: the states after iteration first + t
            # row t: the sums and averages after iteration first + t + 1; the carried sum
            # goes into the first term, so the chunk's cuts leave every bit as it is
            sums = plan.b[first:last, None, None] * states[1:]
            sums[0] += wsum
            sums = np.cumsum(sums, axis=0)
            wsum, bars = sums[-1], sums / plan.b_bar[first:last, None, None]
            # the sum stays non-finite once it is, so the chunk's last average shows
            # every row that failed in the chunk
            failed = np.flatnonzero((abort_iteration == 0) & ~np.isfinite(bars[-1]).all(axis=1))
            if failed.size:
                bad = ~np.isfinite(bars[:, failed]).all(axis=2)
                abort_iteration[failed] = first + 1 + bad.argmax(axis=0)
            lo, hi = np.searchsorted(ns, [first + 1, last + 1])
            at = ns[lo:hi] - first
            rec_theta[lo:hi], rec_bar[lo:hi] = states[at], bars[at - 1]
            if ball is not None:  # iteration n tests theta_{n-1} once n - 1 >= n0
                x = states[:-1] - ball.center  # np.linalg.norm(x, axis=2), unwrapped
                ok = np.sqrt(np.add.reduce(x * x, axis=2)) <= ball.eps
                ok |= (np.arange(first, last) < ball.n0)[:, None]
                # row t: the flags after iteration first + t, row 0 the carried ones
                flags = np.logical_and.accumulate(np.vstack([in_ball, ok]))
                rec_ball[lo:hi], in_ball = flags[at], flags[-1]
    return RunRecord(ns=ns, theta=rec_theta, theta_bar=rec_bar, cost=plan.cost[ns - 1],
                     in_ball=rec_ball, ball=ball, abort_iteration=abort_iteration)
