"""Approximation families F_k and cost models.

A level family produces samples of the level differences F_k - F_{k-1} (with
the multilevel convention F_0 = 0, so level 1 is the full coarse estimator).
Two built-in families are provided:

* :class:`SyntheticGaussianFamily` -- Gaussian level differences constructed so
  that the bias and variance order conditions hold with exact equality:
  E[F_k(theta,U)] - f(theta) = mu * m(theta) * M^(-alpha k) and
  cov(F_k - F_{k-1}) = m(theta)^2 * M^(-beta k) * Gamma.  Ground truth
  (theta*, H, mu, Gamma) is known exactly, which is what the CLT harness needs.

* :class:`EulerSdeFamily` -- coupled coarse/fine Euler discretizations of a
  scalar geometric Brownian motion, a qualitative order-(alpha,1) family with
  exactly known (theta*, H) but no closed-form (mu, Gamma).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class GeometricCostModel:
    """Cost of one level-k sample: C_k(theta) = kappa_C * M^k, theta-free."""

    kappa_C: float
    M: float

    def level_cost(self, theta, k: int) -> float:
        if k < 1:
            raise ValueError("level k must be >= 1")
        return self.kappa_C * self.M ** k


class LevelFamily(abc.ABC):
    """Evaluation contract for level differences.

    Subclasses fix the dimension ``d`` and implement ``sample_level_diff_batch``.
    Sampling requires an exclusively owned random stream per caller; family
    descriptions themselves are immutable.
    """

    d: int

    # ground truth, when known (None entries otherwise)
    theta_star: Optional[np.ndarray] = None
    H: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    Gamma: Optional[np.ndarray] = None

    @abc.abstractmethod
    def sample_level_diff_batch(self, theta, k: int, size: int, rng) -> np.ndarray:
        """``size`` independent samples of F_k(theta, U) - F_{k-1}(theta, U), shape (size, d)."""

    def ml_estimate(self, theta: np.ndarray, counts: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        """Multilevel estimate: sum over k of the mean of counts[k-1] samples.

        Level-major, sample-minor sampling order; all samples independent
        (drawn as one batch per level).  Families with exploitable structure
        may override with an exact equal-in-law shortcut (see
        SyntheticGaussianFamily).
        """
        z = np.zeros(self.d)
        for k, n_k in enumerate(counts, start=1):
            z += self.sample_level_diff_batch(theta, k, int(n_k), rng).mean(axis=0)
        return z

    def has_ground_truth(self) -> bool:
        return self.mu is not None and self.Gamma is not None

    def f(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class SyntheticGaussianFamily(LevelFamily):
    """Ground-truth family with exactly Gaussian level differences.

    Level-difference law (m = modulation, g standard normal):

        k = 1:  f(theta) + mu*m(theta)*M^(-alpha)       + M^(-beta/2)  *m(theta)*A g
        k >= 2: mu*m(theta)*(M^(-alpha k)-M^(-alpha(k-1))) + M^(-beta k/2)*m(theta)*A g

    With modulation off the covariance of the level-k difference is exactly
    M^(-beta k) * Gamma where Gamma = A A^T, and E[F_k] - f = mu * M^(-alpha k).

    f(theta) = H(theta-theta*) + (theta-theta*) .* (Q(theta-theta*)) with the
    optional quadratic perturbation Q; m(theta) = 1 + |theta-theta*| when
    ``modulated``.  One sample of a level difference consumes exactly d
    standard normals; ``ml_estimate`` consumes s*d (one block row per level).
    """

    def __init__(self, theta_star, H, mu, noise_factor, alpha: float, beta: float, M: float,
                 quadratic=None, modulated: bool = False):
        self.theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
        self.d = d = self.theta_star.shape[0]
        self.H = np.asarray(H, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        self.A = np.asarray(noise_factor, dtype=float)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.M = float(M)
        self.Q = None if quadratic is None else np.asarray(quadratic, dtype=float)
        self.modulated = bool(modulated)
        if self.M <= 1:
            raise ValueError("M must exceed 1")
        shapes = {"theta_star": (d,), "H": (d, d), "mu": (d,), "noise_factor": (d, d),
                  "quadratic": (d, d)}
        values = (self.theta_star, self.H, self.mu, self.A, self.Q)
        for (name, shape), a in zip(shapes.items(), values):
            if a is not None and (a.shape != shape or not np.all(np.isfinite(a))):
                raise ValueError(f"{name} must be a finite array of shape {shape}")
        self.Gamma = self.A @ self.A.T

    def f(self, theta):
        e = np.asarray(theta, dtype=float) - self.theta_star
        out = self.H @ e
        if self.Q is not None:
            out = out + e * (self.Q @ e)
        return out

    def modulation(self, theta) -> float:
        if not self.modulated:
            return 1.0
        return 1.0 + float(np.linalg.norm(np.asarray(theta, dtype=float) - self.theta_star))

    def _bias_increment(self, k: int) -> float:
        if k == 1:
            return self.M ** (-self.alpha)
        return self.M ** (-self.alpha * k) - self.M ** (-self.alpha * (k - 1))

    def sample_level_diff_batch(self, theta, k, size, rng):
        if k < 1:
            raise ValueError("level k must be >= 1")
        m = self.modulation(theta)
        g = rng.standard_normal((size, self.d))
        out = self.mu * (m * self._bias_increment(k)) + (self.M ** (-self.beta * k / 2.0) * m) * (g @ self.A.T)
        if k == 1:
            out = out + self.f(theta)
        return out

    def ml_estimate(self, theta, counts, rng):
        """Exact collapse: the mean of N iid Gaussians is Gaussian with 1/N
        the covariance, so one draw per level reproduces the estimator's law.

        Consumes an (s, d) standard-normal block, rows in level order.
        """
        s = len(counts)
        m = self.modulation(theta)
        g = rng.standard_normal((s, self.d))
        coef = self.M ** (-self.beta * np.arange(1, s + 1) / 2.0) / np.sqrt(
            np.asarray(counts, dtype=float))
        noise = (coef @ g) @ self.A.T
        return self.f(theta) + self.mu * (m * self.M ** (-self.alpha * s)) + m * noise


class EulerSdeFamily(LevelFamily):
    """Coupled coarse/fine Euler levels for a scalar geometric Brownian motion.

    dX = drift*X dt + diffusion*X dW on [0, T] with X_0 = theta; level k uses
    M^k uniform time steps.  Within one sample the coarse path reuses the fine
    increments, summed in groups of M, and the level difference is
    payoff(fine) - payoff(coarse).

    Payoffs:

    * ``"shortfall"`` (default): payoff(x) = target - x, so
      f(theta) = target - theta*exp(drift*T) has the contracting slope
      H = -exp(drift*T) and the exactly known root theta* = target*exp(-drift*T).
      This is the variant usable inside the stochastic approximation loop.
    * ``"terminal"``: payoff(x) = x (coupling and order diagnostics only; the
      slope is positive, so there is no contracting zero).

    (mu, Gamma) have no closed form here; the family participates in
    qualitative rate checks, never in CLT covariance tests.  One level-k
    difference consumes M^k standard normals.
    """

    def __init__(self, drift: float, diffusion: float, target: float = 1.0,
                 horizon: float = 1.0, M: int = 2, payoff: str = "shortfall"):
        if int(M) != M or M < 2:
            raise ValueError("EulerSdeFamily requires an integer scale M >= 2")
        if payoff not in ("shortfall", "terminal"):
            raise ValueError("payoff must be 'shortfall' or 'terminal'")
        self.d = 1
        self.drift = float(drift)
        self.diffusion = float(diffusion)
        self.target = float(target)
        self.T = float(horizon)
        self.M = int(M)
        self.payoff = payoff
        self.mu = None
        self.Gamma = None
        if payoff == "shortfall":
            self.theta_star = np.array([self.target * np.exp(-self.drift * self.T)])
            self.H = np.array([[-np.exp(self.drift * self.T)]])
        else:
            self.theta_star = None
            self.H = None

    def f(self, theta):
        x = float(np.atleast_1d(theta)[0])
        ex = x * np.exp(self.drift * self.T)
        return np.array([self.target - ex if self.payoff == "shortfall" else ex])

    def _payoff(self, x):
        return self.target - x if self.payoff == "shortfall" else x

    def _terminal_pair(self, theta, k, size, rng):
        """Terminal values (fine with M^k steps, coarse with M^(k-1) steps)."""
        x0 = float(np.atleast_1d(theta)[0])
        n_fine = self.M ** k
        h = self.T / n_fine
        dw = np.sqrt(h) * rng.standard_normal((size, n_fine))
        # the Euler step x + a x h + s x dW is x (1 + a h + s dW), so a path is a product
        xf = x0 * np.prod(1.0 + self.drift * h + self.diffusion * dw, axis=1)
        if k == 1:
            return xf, None
        hc = self.T / (n_fine // self.M)
        dwc = dw.reshape(size, n_fine // self.M, self.M).sum(axis=2)
        xc = x0 * np.prod(1.0 + self.drift * hc + self.diffusion * dwc, axis=1)
        return xf, xc

    def sample_level_diff_batch(self, theta, k, size, rng):
        if k < 1:
            raise ValueError("level k must be >= 1")
        xf, xc = self._terminal_pair(theta, k, size, rng)
        if xc is None:  # F_1 - F_0 = F_1 with the convention F_0 = 0
            vals = self._payoff(xf)
        else:
            vals = self._payoff(xf) - self._payoff(xc)
        return vals[:, None]


@dataclass(frozen=True)
class OrderCheckRow:
    k: int
    scaled_bias_norm: float  # |sum of level-diff means up to k - f(theta*)| * M^(alpha k)
    scaled_cov: np.ndarray  # cov(F_k - F_{k-1}) * M^(beta k)


def empirical_order_check(family: LevelFamily, k_max: int, samples_per_level: int,
                          rng: np.random.Generator, alpha: Optional[float] = None,
                          beta: Optional[float] = None, theta=None) -> list[OrderCheckRow]:
    """Monte Carlo estimate of the order constants at theta* (or ``theta``).

    The level-k bias is recovered by telescoping the level-difference means.
    Requires a family with known theta* and f; rejects sample sizes below 100.
    """
    if samples_per_level < 100:
        raise ValueError("need at least 100 samples per level")
    if theta is None and family.theta_star is None:
        raise ValueError("order check requires a known theta* or an explicit theta")
    alpha = getattr(family, "alpha", None) if alpha is None else alpha
    beta = getattr(family, "beta", None) if beta is None else beta
    if alpha is None or beta is None:
        raise ValueError("order exponents (alpha, beta) unknown for this family")
    M = float(family.M)
    theta = family.theta_star if theta is None else np.asarray(theta, dtype=float)
    f_ref = family.f(theta)
    rows = []
    running_mean = np.zeros(family.d)
    for k in range(1, k_max + 1):
        batch = family.sample_level_diff_batch(theta, k, samples_per_level, rng)
        running_mean = running_mean + batch.mean(axis=0)
        cov = np.atleast_2d(np.cov(batch, rowvar=False, ddof=1))
        rows.append(OrderCheckRow(
            k=k,
            scaled_bias_norm=float(np.linalg.norm(running_mean - f_ref)) * M ** (alpha * k),
            scaled_cov=cov * M ** (beta * k),
        ))
    return rows
