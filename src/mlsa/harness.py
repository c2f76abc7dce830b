"""Replicated runs, CLT verification statistics and the L2 monitor.

Block j of BLOCK replicas (j*BLOCK .. min((j+1)*BLOCK, R) - 1) runs in
lockstep on the stream default_rng(SeedSequence(master_seed).spawn(n_blocks)[j]);
these streams are independent and non-overlapping, and blocks go to workers
whole, so records do not depend on worker count or scheduling order.

The CLT report normalizes the averaged iterate at a checkpoint,

    zeta_i = eps_diff_n^-1 (theta_bar_n - theta* + eps_bias_n H^-1 mu)   (slow)
    zeta_i = eps_diff_n^-1 (theta_bar_n - theta*)                        (critical)

and compares the empirical mean/covariance against N(0, H^-1 Gamma H^-T),
with component-wise one-sample Kolmogorov-Smirnov tests after standardization
by a symmetric square root of the target covariance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import driver
from .asymptotics import predictions, rates
from .driver import BallMonitor, RunPlan, RunRecord
from .families import LevelFamily
from .params import CRITICAL, SLOW, ParameterSet


class InsufficientReplicas(ValueError):
    """Too few replicas are left to compute a statistic."""


@dataclass(frozen=True)
class ReplicationSpec:
    """How many replicas to run, for how long, and how to seed them."""

    replicas: int
    n_final: int
    checkpoints: tuple[int, ...]
    master_seed: int
    divergence_radius: Optional[float] = None

    def __post_init__(self):
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")
        if not self.checkpoints:
            raise ValueError("need at least one checkpoint")
        if any(c < 1 or c > self.n_final for c in self.checkpoints):
            raise ValueError("checkpoints must lie in [1, n_final]")
        object.__setattr__(self, "checkpoints", tuple(sorted(set(self.checkpoints))))


# replicas per block: one random stream and one (BLOCK, d) lockstep state each
BLOCK = 100
# family-wise false-alarm level of the CLT report's KS tests
CLT_LEVEL = 0.01


def block_seeds(master_seed: int, n_blocks: int) -> list[np.random.SeedSequence]:
    """Documented seed mixing: block j runs on child j of SeedSequence(master_seed)."""
    return list(np.random.SeedSequence(master_seed).spawn(n_blocks))


def _run_block(args):
    common, seed, size, ball = args
    return driver.run(*common, seed, replicas=size, ball=ball)


def _join(parts: list[RunRecord]) -> RunRecord:
    """Block records joined along the replica axis; they share ``ns``, ``cost`` and ``ball``."""
    def join(name, axis=1):
        return np.concatenate([getattr(p, name) for p in parts], axis=axis)

    first = parts[0]
    return RunRecord(ns=first.ns, theta=join("theta"), theta_bar=join("theta_bar"),
                     cost=first.cost, in_ball=None if first.in_ball is None else join("in_ball"),
                     ball=first.ball, abort_iteration=join("abort_iteration", 0))


def run_replicas(spec: ReplicationSpec, params: ParameterSet, family: LevelFamily,
                 cost_model, projection, theta0, *, workers: int = 1,
                 ball: Optional[BallMonitor] = None) -> RunRecord:
    """Run ``spec.replicas`` independent replicas, deterministically.

    Each block of BLOCK replicas runs in lockstep on its own stream; at most
    ``workers`` processes take whole blocks, and a single block runs in this
    process.  Aborted replicas are kept and flagged, never dropped.  Row r of
    the returned record is replica r, independent of ``workers``.
    """
    R = spec.replicas
    common = (RunPlan(params, cost_model, spec.n_final), family, projection,
              np.asarray(theta0, dtype=float), spec.checkpoints)
    starts = range(0, R, BLOCK)
    tasks = [(common, seed, min(BLOCK, R - j), ball)
             for j, seed in zip(starts, block_seeds(spec.master_seed, len(starts)))]
    if workers <= 1 or len(tasks) == 1:
        parts = [_run_block(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # ``import mlsa`` opens no pool

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            parts = list(pool.map(_run_block, tasks))
    return _join(parts)


def ks_statistic(sample: np.ndarray) -> float:
    """One-sample KS distance of ``sample`` to the standard normal."""
    import scipy.special  # imported here: ``import mlsa`` stays free of scipy.special

    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    cdf = scipy.special.ndtr(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def kolmogorov_critical(alpha: float) -> float:
    """c with P(sup |B(t)| > c) = alpha; the sample-size-n critical value is c/sqrt(n)."""
    import scipy.special  # imported here: ``import mlsa`` stays free of scipy.special

    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    return float(scipy.special.kolmogi(alpha))


def _sym_inv_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(S)
    if np.any(w <= 0):
        raise ValueError("target covariance must be positive definite")
    return (V / np.sqrt(w)) @ V.T


@dataclass(frozen=True)
class CltReport:
    checkpoint: int
    replicas_total: int
    replicas_screened: int
    screened_fraction: float
    zeta: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    target_cov: np.ndarray
    frobenius_rel: float
    ks_stats: np.ndarray
    ks_critical: float
    ks_pass: bool
    level: float
    eps_bias: Optional[float]
    eps_diff: float
    cost_ratio: float
    underpowered: bool
    inputs: dict = field(default_factory=dict)


def normalized_sample_stats(zeta: np.ndarray, target_cov: np.ndarray, level: float) -> dict:
    """Mean/covariance distances and per-component KS for normalized samples.

    Pure statistics core, also used for calibration with injected normal
    draws. Bonferroni: each of the d components is tested at level/d.
    """
    zeta = np.asarray(zeta, dtype=float)
    n, d = zeta.shape
    mean = zeta.mean(axis=0)
    cov = np.atleast_2d(np.cov(zeta, rowvar=False, ddof=1))
    fro = float(np.linalg.norm(cov - target_cov) / np.linalg.norm(target_cov))
    w = zeta @ _sym_inv_sqrt(target_cov).T
    ks = np.array([ks_statistic(w[:, j]) for j in range(d)])
    crit = kolmogorov_critical(level / d) / math.sqrt(n)
    return {
        "mean": mean,
        "cov": cov,
        "frobenius_rel": fro,
        "ks_stats": ks,
        "ks_critical": crit,
        "ks_pass": bool(np.all(ks < crit)),
    }


def clt_report(record: RunRecord, params: ParameterSet, family: LevelFamily,
               checkpoint: int, *, divergence_radius: float,
               inputs: Optional[dict] = None) -> CltReport:
    """Build the CLT verification report at one checkpoint of ``record.ns``.

    Screening: replicas whose iterate at ``checkpoint`` lies outside the ball
    of radius ``divergence_radius`` around theta*, or that aborted, are
    excluded (their count is reported).  Pure function of its arguments.
    """
    if not family.has_ground_truth():
        raise ValueError("CLT report requires a family with ground truth (H, mu, Gamma)")
    Gamma = np.atleast_2d(family.Gamma)
    if not np.any(Gamma != 0.0):
        raise ValueError("target covariance requires Gamma != 0")
    hit = np.flatnonzero(record.ns == checkpoint)
    if not hit.size:
        raise KeyError(f"no checkpoint at n={checkpoint}")
    j = int(hit[0])
    H_inv = np.linalg.inv(np.atleast_2d(family.H))
    target = H_inv @ Gamma @ H_inv.T
    theta_star = family.theta_star
    pred = predictions(params, [checkpoint]).at(0)
    R = len(record.abort_iteration)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed norm, inf, is screened out
        kept = ~record.aborted & (np.linalg.norm(record.theta[j] - theta_star, axis=1)
                                  <= divergence_radius)
    n_kept = int(kept.sum())
    if n_kept < 2:
        raise InsufficientReplicas(f"fewer than 2 of {R} replicas survive screening")
    center = record.theta_bar[j, kept] - theta_star
    if params.regime == SLOW:
        center = center + pred.eps_bias * (H_inv @ family.mu)
    zeta = center / pred.eps_diff
    return CltReport(
        checkpoint=checkpoint,
        replicas_total=R,
        replicas_screened=n_kept,
        screened_fraction=n_kept / R,
        zeta=zeta,
        target_cov=target,
        level=CLT_LEVEL,
        eps_bias=pred.eps_bias,
        eps_diff=pred.eps_diff,
        cost_ratio=float(record.cost[j] / pred.predicted_cost),
        underpowered=n_kept < 100,
        inputs={"params": params.to_dict(), "divergence_radius": divergence_radius,
                **(inputs or {})},
        **normalized_sample_stats(zeta, target, CLT_LEVEL),
    )


def l2_delta(params: ParameterSet, n: np.ndarray) -> np.ndarray:
    """Regime normalization for the restricted L2 error of the raw iterate."""
    n = np.asarray(n, dtype=float)
    if params.regime == SLOW:
        return n ** (-(params.phi + 1) * rates(params).r + (1.0 - params.psi) / 2.0)
    return n ** (-(params.psi + params.phi) / 2.0) * np.sqrt(np.log(n))


@dataclass(frozen=True)
class L2Monitor:
    windows: tuple[tuple[int, int], ...]
    values: tuple[float, ...]  # nan where flagged
    flagged: tuple[bool, ...]
    ratio: Optional[float]  # last window / first window, when both usable
    epsilon: float
    n0: int


def report_json(report, **extra) -> str:
    """Key-sorted JSON of a report dataclass's fields and ``extra``: arrays and
    tuples become lists, and NaN in a value or list becomes null."""
    def plain(v):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return None if isinstance(v, float) and math.isnan(v) else v

    doc = {f.name: getattr(report, f.name) for f in fields(report)}
    return json.dumps({k: plain(v) for k, v in {**doc, **extra}.items()}, sort_keys=True)


def l2_monitor(record: RunRecord, params: ParameterSet,
               windows: Sequence[tuple[int, int]]) -> L2Monitor:
    """Windowed estimates of delta_n^-1 E[1{stayed} |theta_n - theta*|^2]^(1/2).

    The stay-in-ball indicator and theta* are those of the ball monitor the
    record was produced with (``record.ball``, centred at theta*).  Windows
    must be disjoint; a window with no usable checkpoint or an empty
    restriction set is flagged.  Only non-aborted replicas enter.
    """
    wins = [(int(lo), int(hi)) for lo, hi in windows]
    for (a1, b1), (a2, b2) in zip(wins, wins[1:]):
        if a2 <= b1:
            raise ValueError("windows must be disjoint and increasing")
    usable = ~record.aborted
    if not usable.any():
        raise InsufficientReplicas(f"all {len(usable)} replicas aborted")
    ball = record.ball
    if ball is None:
        raise ValueError("record lacks ball-monitor flags; rerun with ball tracking")
    ns = record.ns
    stay = record.in_ball[:, usable]  # checkpoint x replica
    with np.errstate(over="ignore", invalid="ignore"):  # rows outside the ball may overflow
        err2 = np.where(stay, ((record.theta[:, usable] - ball.center) ** 2).sum(axis=2), 0.0)
    dn = l2_delta(params, ns)
    per_n = np.sqrt(err2.mean(axis=1)) / np.where(dn > 0.0, dn, 1.0)
    values: list[float] = []
    flagged: list[bool] = []
    for lo, hi in wins:
        # critical delta vanishes at n = 1; flagged = no usable n or an empty restriction set
        sel = (ns >= lo) & (ns <= hi) & (dn > 0.0)
        flagged.append(not stay[sel].any())
        values.append(float("nan") if flagged[-1] else float(per_n[sel].mean()))
    ratio = None
    if len(values) >= 2 and not flagged[0] and not flagged[-1] and values[0] > 0:
        ratio = values[-1] / values[0]
    return L2Monitor(windows=tuple(wins), values=tuple(values), flagged=tuple(flagged),
                     ratio=ratio, epsilon=float(ball.eps), n0=int(ball.n0))


def cost_curve(record: RunRecord, params: ParameterSet) -> list[dict]:
    """Rows (n, mean cost_n, predicted cost, ratio) over the checkpoints; the
    mean cost is the cost every replica shares, as the cost model is theta-free."""
    if record.aborted.all():
        raise InsufficientReplicas(f"all {len(record.aborted)} replicas aborted")
    # the critical law has no prediction at n = 1
    keep = record.ns >= (2 if params.regime == CRITICAL else 1)
    ns, costs = record.ns[keep], record.cost[keep]
    pred = predictions(params, ns).predicted_cost
    return [{"n": n, "mean_cost": cost, "predicted_cost": q, "ratio": r}
            for n, cost, q, r in zip(ns.tolist(), costs.tolist(), pred.tolist(),
                                     (costs / pred).tolist())]
