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

    def level_cost(self, k: int) -> float:
        if k < 1:
            raise ValueError("level k must be >= 1")
        return self.kappa_C * self.M ** k


def _rowmap(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x @ A.T, column by column, so a row's result does not depend on its neighbours."""
    out = x[..., :1] * A[:, 0]
    for j in range(1, A.shape[1]):
        out = out + x[..., j:j + 1] * A[:, j]
    return out


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
        """Multilevel estimates for the rows of ``theta`` (shape (R, d)), shape (R, d).

        Each row sums over k the mean of counts[k-1] samples.  Rows draw in
        order, each level-major and sample-minor, all samples independent
        (one batch per level).  Families with exploitable structure may
        override with an exact equal-in-law shortcut (see
        SyntheticGaussianFamily).
        """
        theta = np.asarray(theta, dtype=float)
        z = np.zeros(theta.shape)
        for row, out in zip(theta, z):
            for k, n_k in enumerate(counts, start=1):
                out += self.sample_level_diff_batch(row, k, int(n_k), rng).mean(axis=0)
        return z

    def has_ground_truth(self) -> bool:
        return self.mu is not None and self.Gamma is not None


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
    standard normals; ``ml_estimate`` consumes s*d per row (one draw per level).
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
        """f at theta of shape (d,) or at each row of theta of shape (R, d)."""
        e = np.asarray(theta, dtype=float) - self.theta_star
        out = _rowmap(self.H, e)
        if self.Q is not None:
            out = out + e * _rowmap(self.Q, e)
        return out

    def modulation(self, theta):
        """m(theta), with a trailing axis of length 1 when modulated (one value per row)."""
        if not self.modulated:
            return 1.0
        e = np.asarray(theta, dtype=float) - self.theta_star
        return 1.0 + np.linalg.norm(e, axis=-1, keepdims=True)

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

        Consumes one (R, s, d) standard-normal block: rows in order, levels
        in order within a row.
        """
        s = len(counts)
        m = self.modulation(theta)
        g = rng.standard_normal((len(theta), s, self.d))
        coef = self.M ** (-self.beta * np.arange(1, s + 1) / 2.0) / np.sqrt(
            np.asarray(counts, dtype=float))
        noise = _rowmap(self.A, coef @ g)
        return self.f(theta) + self.mu * (m * self.M ** (-self.alpha * s)) + m * noise


class EulerSdeFamily(LevelFamily):
    """Coupled coarse/fine Euler levels for a scalar geometric Brownian motion.

    dX = drift*X dt + diffusion*X dW on [0, T] with X_0 = theta; level k uses
    M^k uniform time steps.  Within one sample the coarse path reuses the fine
    increments, summed in groups of M.  The payoff is the shortfall
    target - X_T: a level difference is (target - fine) - (target - coarse),
    and f(theta) = target - theta*exp(drift*T) has the contracting slope
    H = -exp(drift*T) and the exactly known root theta* = target*exp(-drift*T).

    (mu, Gamma) have no closed form here; the family participates in
    qualitative rate checks, never in CLT covariance tests.  One level-k
    difference consumes M^k standard normals.
    """

    def __init__(self, drift: float, diffusion: float, target: float = 1.0,
                 horizon: float = 1.0, M: int = 2):
        if int(M) != M or M < 2:
            raise ValueError("EulerSdeFamily requires an integer scale M >= 2")
        self.d = 1
        self.drift = float(drift)
        self.diffusion = float(diffusion)
        self.target = float(target)
        self.T = float(horizon)
        self.M = int(M)
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below, not warned about
            self.theta_star = np.array([self.target * np.exp(-self.drift * self.T)])
            self.H = np.array([[-np.exp(self.drift * self.T)]])
        values = [self.drift, self.diffusion, self.target, self.T, self.theta_star[0], self.H[0, 0]]
        if not (self.T > 0 and np.all(np.isfinite(values))):
            raise ValueError("EulerSdeFamily needs finite drift, diffusion and target, a horizon "
                             "> 0, and a finite theta* and exp(drift*horizon)")

    def f(self, theta):
        """f at theta of shape (1,) or at each row of theta of shape (R, 1)."""
        return self.target - np.asarray(theta, dtype=float) * np.exp(self.drift * self.T)

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
            vals = self.target - xf
        else:
            vals = (self.target - xf) - (self.target - xc)
        return vals[:, None]
