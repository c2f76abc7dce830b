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

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .families import LevelFamily
from .params import ParameterSet, schedule_arrays

# snap near-integer count values before the ceiling so exact ratios such as
# K/M^s = 8 are not pushed up by float noise from pow/log round-trips
_INT_SNAP = 1e-9
_DRAW_CAP = 1 << 16  # most standard normals in one chunk's synthetic draw (512 KB)


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


def csv_header(d: int) -> list[str]:
    """Columns of one checkpoint row: n, theta_i, theta_bar_i, cost."""
    return (["n"] + [f"theta_{i}" for i in range(d)]
            + [f"theta_bar_{i}" for i in range(d)] + ["cost"])


def csv_lines(rows) -> str:
    """CSV lines of rows of numbers, plain names and None (an empty field): what
    ``csv.writer(lineterminator="\\n")`` writes, save its quotes on a lone empty field."""
    return "".join(",".join(["" if v is None else str(v) for v in row]) + "\n" for row in rows)


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

    def csv_rows(self) -> list[list]:
        """Rows under ``["replica"] + csv_header(d)``, replica by replica, over the
        checkpoints reached before any abort; the values are Python floats, so
        :func:`csv_lines` writes each as its shortest round-trip repr."""
        reached = ~self.aborted | (self.ns[:, None] < self.abort_iteration)
        rep, j = np.nonzero(reached.T)
        values = np.hstack([self.theta[j, rep], self.theta_bar[j, rep], self.cost[j, None]])
        return [[r, n, *v] for r, n, v in zip(rep.tolist(), self.ns[j].tolist(),
                                              values.tolist())]


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
        costs = np.array([cost_model.level_cost(k)
                          for k in range(1, self.counts.shape[1] + 1)])
        self.cost_inc = self.counts @ costs


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
    ``ml_estimate`` call for all rows with its entry.  The thread is joined on
    every exit, and an exception a draw raises reaches the caller.  After each
    chunk, the whole block is recorded at the chunk's ``checkpoints``, the ball
    flags are updated, and each row whose average turned non-finite in the
    chunk is flagged as aborted at its first such iteration.  Rows never mix,
    so an aborted row keeps stepping and the other rows draw and record
    exactly as they would without it.
    """
    from concurrent.futures import ThreadPoolExecutor  # not at import: it loads logging

    n_final = plan.n_final
    ns = np.array(sorted({int(c) for c in checkpoints}), dtype=np.int64)
    if ns.size and (ns[0] < 1 or ns[-1] > n_final):
        raise ValueError("checkpoints must lie in [1, n_final]")
    rng = np.random.default_rng(seed)
    theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float), (replicas, family.d)))
    theta_bar = np.zeros_like(theta)
    b_bar = 0.0
    in_ball = np.ones(replicas, dtype=bool)
    abort_iteration = np.zeros(replicas, dtype=np.int64)
    rec_theta = np.empty((len(ns),) + theta.shape)
    rec_bar = np.empty_like(rec_theta)
    rec_ball = None if ball is None else np.empty((len(ns), replicas), dtype=bool)
    # Python scalars: the same doubles, without numpy scalar dispatch per iteration
    gamma, b, s = plan.gamma.tolist(), plan.b.tolist(), plan.s.tolist()
    runs = np.flatnonzero(np.diff(plan.s, prepend=0)).tolist() + [n_final]  # where s_n changes
    cuts = [n for a, e in zip(runs, runs[1:])
            for n in range(a, e, max(1, _DRAW_CAP // (replicas * s[a] * family.d)))]
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
            path, bars = [theta], [theta_bar]  # the states after iteration first + t
            for i, (counts, entry) in enumerate(zip(block, entries), first):
                z = family.ml_estimate(theta, counts, entry)
                theta = projection(theta + gamma[i] * z)
                theta_bar = (b_bar * theta_bar + b[i] * theta) / (b_bar + b[i])
                b_bar += b[i]
                path.append(theta)
                bars.append(theta_bar)
            # theta_bar_n weighs in theta_n (b_n > 0) and stays non-finite once it is, so
            # the chunk's last average shows every row that failed in the chunk
            failed = np.flatnonzero((abort_iteration == 0) & ~np.isfinite(theta_bar).all(axis=1))
            if failed.size:
                bad = ~np.isfinite(np.stack([x[failed] for x in bars])).all(axis=2)
                abort_iteration[failed] = first + bad.argmax(axis=0)
            lo, hi = np.searchsorted(ns, [first + 1, first + len(block) + 1])
            at = (ns[lo:hi] - first).tolist()
            if at:
                rec_theta[lo:hi], rec_bar[lo:hi] = [path[t] for t in at], [bars[t] for t in at]
            if ball is not None:  # iteration n tests theta_{n-1} once n - 1 >= n0
                x = np.stack(path[:-1]) - ball.center  # np.linalg.norm(x, axis=2), unwrapped
                ok = np.sqrt(np.add.reduce(x * x, axis=2)) <= ball.eps
                ok |= (np.arange(first, first + len(block)) < ball.n0)[:, None]
                # row t: the flags after iteration first + t, row 0 the carried ones
                flags = np.logical_and.accumulate(np.vstack([in_ball, ok]))
                rec_ball[lo:hi], in_ball = flags[at], flags[-1]
    # the cost of iterations 1..n, summed in iteration order
    return RunRecord(ns=ns, theta=rec_theta, theta_bar=rec_bar,
                     cost=np.cumsum(plan.cost_inc)[ns - 1], in_ball=rec_ball, ball=ball,
                     abort_iteration=abort_iteration)
