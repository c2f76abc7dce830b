"""Replicated runs, CLT verification statistics and the L2 monitor.

Replica streams are derived from the master seed with numpy's SeedSequence
spawning (seed_i = SeedSequence(master_seed).spawn()[i]), which hashes
(entropy, spawn_key) into independent, non-overlapping PCG64 streams; records
are therefore independent of worker count and scheduling order.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import driver
from .asymptotics import predict
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


def replica_seeds(master_seed: int, count: int) -> list[np.random.SeedSequence]:
    """Documented seed mixing: child i of SeedSequence(master_seed)."""
    return list(np.random.SeedSequence(master_seed).spawn(count))


def _run_chunk(args):
    (params, family, cost_model, projection, theta0, n_final, checkpoints,
     seeds, ball) = args
    plan = RunPlan(params, cost_model, n_final)
    return [driver.run(params, family, cost_model, projection, theta0, n_final,
                       checkpoints, seed, ball=ball, plan=plan) for seed in seeds]


def run_replicas(spec: ReplicationSpec, params: ParameterSet, family: LevelFamily,
                 cost_model, projection, theta0, *, workers: int = 1,
                 ball: Optional[BallMonitor] = None) -> list[RunRecord]:
    """Run ``spec.replicas`` independent replicas, deterministically.

    Aborted replicas are returned flagged, never dropped.  The result list is
    ordered by replica index and independent of ``workers``.
    """
    seeds = replica_seeds(spec.master_seed, spec.replicas)
    common = (params, family, cost_model, projection, np.asarray(theta0, dtype=float),
              spec.n_final, spec.checkpoints)
    if workers <= 1:
        return _run_chunk(common + (seeds, ball))
    chunks = [seeds[i::workers] for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_run_chunk, [common + (c, ball) for c in chunks]))
    out: list[Optional[RunRecord]] = [None] * spec.replicas
    for w, part in enumerate(parts):
        for j, rec in enumerate(part):
            out[w + j * workers] = rec
    return out  # type: ignore[return-value]


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

    def to_json(self) -> str:
        out = {
            "checkpoint": self.checkpoint,
            "replicas_total": self.replicas_total,
            "replicas_screened": self.replicas_screened,
            "screened_fraction": self.screened_fraction,
            "mean": self.mean.tolist(),
            "cov": self.cov.tolist(),
            "target_cov": self.target_cov.tolist(),
            "frobenius_rel": self.frobenius_rel,
            "ks_stats": self.ks_stats.tolist(),
            "ks_critical": self.ks_critical,
            "ks_pass": self.ks_pass,
            "level": self.level,
            "eps_bias": self.eps_bias,
            "eps_diff": self.eps_diff,
            "cost_ratio": self.cost_ratio,
            "underpowered": self.underpowered,
            "inputs": self.inputs,
            "zeta": self.zeta.tolist(),
        }
        return json.dumps(out, sort_keys=True)


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


def clt_report(records: Sequence[RunRecord], params: ParameterSet, family: LevelFamily,
               checkpoint: int, *, divergence_radius: float, level: float = 0.01,
               inputs: Optional[dict] = None) -> CltReport:
    """Build the CLT verification report at one checkpoint.

    Screening: replicas whose iterate at ``checkpoint`` lies outside the ball
    of radius ``divergence_radius`` around theta*, or that aborted, are
    excluded (their count is reported).  Pure function of its arguments.
    """
    if not family.has_ground_truth():
        raise ValueError("CLT report requires a family with ground truth (H, mu, Gamma)")
    Gamma = np.atleast_2d(family.Gamma)
    if not np.any(Gamma != 0.0):
        raise ValueError("target covariance requires Gamma != 0")
    H_inv = np.linalg.inv(np.atleast_2d(family.H))
    target = H_inv @ Gamma @ H_inv.T
    theta_star = family.theta_star
    pred = predict(params, checkpoint)
    kept = []
    for rec in records:
        if rec.aborted:
            continue
        theta = rec.checkpoint_at(checkpoint).theta
        if float(np.linalg.norm(theta - theta_star)) > divergence_radius:
            continue
        kept.append(rec)
    n_kept = len(kept)
    if n_kept < 2:
        raise InsufficientReplicas(f"fewer than 2 of {len(records)} replicas survive screening")
    theta_bars = np.stack([rec.checkpoint_at(checkpoint).theta_bar for rec in kept])
    costs = np.array([rec.checkpoint_at(checkpoint).cost for rec in kept])
    center = theta_bars - theta_star
    if params.regime == SLOW:
        center = center + pred.eps_bias * (H_inv @ family.mu)
    zeta = center / pred.eps_diff
    stats = normalized_sample_stats(zeta, target, level)
    return CltReport(
        checkpoint=checkpoint,
        replicas_total=len(records),
        replicas_screened=n_kept,
        screened_fraction=n_kept / len(records),
        zeta=zeta,
        mean=stats["mean"],
        cov=stats["cov"],
        target_cov=target,
        frobenius_rel=stats["frobenius_rel"],
        ks_stats=stats["ks_stats"],
        ks_critical=stats["ks_critical"],
        ks_pass=stats["ks_pass"],
        level=level,
        eps_bias=pred.eps_bias,
        eps_diff=pred.eps_diff,
        cost_ratio=float(costs.mean() / pred.predicted_cost),
        underpowered=n_kept < 100,
        inputs={"params": params.to_dict(), "divergence_radius": divergence_radius,
                **(inputs or {})},
    )


def l2_delta(params: ParameterSet, n: np.ndarray) -> np.ndarray:
    """Regime normalization for the restricted L2 error of the raw iterate."""
    n = np.asarray(n, dtype=float)
    if params.regime == SLOW:
        return n ** (-(params.phi + 1) * params.r + (1.0 - params.psi) / 2.0)
    return n ** (-(params.psi + params.phi) / 2.0) * np.sqrt(np.log(n))


@dataclass(frozen=True)
class L2Monitor:
    windows: tuple[tuple[int, int], ...]
    values: tuple[float, ...]  # nan where flagged
    flagged: tuple[bool, ...]
    ratio: Optional[float]  # last window / first window, when both usable
    epsilon: float
    n0: int

    def to_json(self) -> str:
        return json.dumps({
            "windows": [list(w) for w in self.windows],
            "values": [None if math.isnan(v) else v for v in self.values],
            "flagged": list(self.flagged),
            "ratio": self.ratio,
            "epsilon": self.epsilon,
            "n0": self.n0,
        }, sort_keys=True)


def l2_monitor(records: Sequence[RunRecord], params: ParameterSet, theta_star,
               epsilon: float, n0: int, windows: Sequence[tuple[int, int]]) -> L2Monitor:
    """Windowed estimates of delta_n^-1 E[1{stayed} |theta_n - theta*|^2]^(1/2).

    The stay-in-ball indicator is the one tracked by the driver's ball
    monitor, so records must have been produced with ball=(theta*, epsilon,
    n0).  Windows must be disjoint; a window with no usable checkpoint or an
    empty restriction set is flagged.  Only non-aborted replicas enter.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    wins = [(int(lo), int(hi)) for lo, hi in windows]
    for (a1, b1), (a2, b2) in zip(wins, wins[1:]):
        if a2 <= b1:
            raise ValueError("windows must be disjoint and increasing")
    usable = [rec for rec in records if not rec.aborted]
    if not usable:
        raise InsufficientReplicas(f"all {len(records)} replicas aborted")
    maps = [{cp.n: cp for cp in rec.checkpoints} for rec in usable]
    common_ns = sorted(set.intersection(*(set(m) for m in maps)))
    values: list[float] = []
    flagged: list[bool] = []
    for lo, hi in wins:
        per_n = []
        stayers = 0
        for n in (m for m in common_ns if lo <= m <= hi):
            dn = float(l2_delta(params, np.array([n]))[0])
            if dn <= 0.0:  # critical delta vanishes at n = 1
                continue
            sq = []
            for m in maps:
                cp = m[n]
                if cp.in_ball is None:
                    raise ValueError("records lack ball-monitor flags; rerun with ball tracking")
                err2 = float(np.sum((cp.theta - theta_star) ** 2))
                sq.append(err2 if cp.in_ball else 0.0)
                stayers += int(cp.in_ball)
            per_n.append(math.sqrt(float(np.mean(sq))) / dn)
        if per_n and stayers > 0:  # flagged = empty restriction set
            values.append(float(np.mean(per_n)))
            flagged.append(False)
        else:
            values.append(float("nan"))
            flagged.append(True)
    ratio = None
    if len(values) >= 2 and not flagged[0] and not flagged[-1] and values[0] > 0:
        ratio = values[-1] / values[0]
    return L2Monitor(windows=tuple(wins), values=tuple(values), flagged=tuple(flagged),
                     ratio=ratio, epsilon=float(epsilon), n0=int(n0))


def cost_curve(records: Sequence[RunRecord], params: ParameterSet) -> list[dict]:
    """Rows (n, mean cost_n, predicted cost, ratio) over common checkpoints."""
    usable = [rec for rec in records if not rec.aborted]
    if not usable:
        raise InsufficientReplicas(f"all {len(records)} replicas aborted")
    ns = [cp.n for cp in usable[0].checkpoints]
    rows = []
    for n in ns:
        costs = [rec.checkpoint_at(n).cost for rec in usable]
        if params.regime == CRITICAL and n < 2:
            continue
        predicted = predict(params, n).predicted_cost
        mean_cost = float(np.mean(costs))
        rows.append({"n": n, "mean_cost": mean_cost, "predicted_cost": predicted,
                     "ratio": mean_cost / predicted})
    return rows
