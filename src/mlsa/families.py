"""Approximation families F_k and cost models.

A level family turns one iteration's level counts (N_1, ..., N_s) into the
multilevel estimate sum_k mean of N_k samples of F_k - F_{k-1} (with the
convention F_0 = 0, so level 1 is the full coarse estimator), for every row of
a block of iterates.  Two built-in families are provided:

* :class:`SyntheticGaussianFamily` -- Gaussian level differences constructed so
  that the bias and variance order conditions hold with exact equality:
  E[F_k(theta,U)] - f(theta) = mu * M^(-alpha k) and
  cov(F_k - F_{k-1}) = M^(-beta k) * Gamma.  Ground truth (theta*, H, mu,
  Gamma) is known exactly, which is what the CLT harness needs.  Its estimate
  is drawn in law, one normal per level, not sample by sample.

* :class:`EulerSdeFamily` -- coupled coarse/fine Euler discretizations of a
  scalar geometric Brownian motion, a qualitative order-(alpha,1) family with
  exactly known (theta*, H) but no closed-form (mu, Gamma).  Its estimate
  averages the N_k samples of each level.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .params import WINDOW


@dataclass(frozen=True)
class GeometricCostModel:
    """Cost of one level-k sample: C_k(theta) = kappa_C * M^k, theta-free."""

    kappa_C: float
    M: float

    def level_cost(self, k: int) -> float:
        if k < 1:
            raise ValueError("level k must be >= 1")
        return self.kappa_C * self.M ** k


def _rowmap(columns, x: np.ndarray) -> np.ndarray:
    """x @ A.T for A's ``columns``, column by column, so a row's result does not
    depend on its neighbours."""
    out = x[..., :1] * columns[0]
    for j in range(1, len(columns)):
        out = out + x[..., j:j + 1] * columns[j]
    return out


class LevelFamily(abc.ABC):
    """Evaluation contract for multilevel estimates.

    Subclasses fix the dimension ``d`` and implement ``ml_estimate``, the one
    call the driver makes per iteration and block; ``draw`` may take over the
    random input.  Sampling requires an exclusively owned random stream per
    caller; family descriptions themselves are immutable, save memos of
    theta-free terms.
    """

    d: int

    # ground truth, when known (None entries otherwise)
    theta_star: Optional[np.ndarray] = None
    H: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    Gamma: Optional[np.ndarray] = None

    def draw(self, counts: np.ndarray, replicas: int, rng: np.random.Generator) -> Sequence:
        """One entry for each iteration whose counts are a row of the (T, s) block
        ``counts``, T entries in all, drawing only theirs from ``rng``.  ``driver.run``
        calls it on a one-thread executor, ahead of ``ml_estimate``, so only one of the
        two may draw.  Here every entry is ``rng`` and ``ml_estimate`` draws on the
        calling thread: Euler's hundreds of short numpy calls per iteration would
        contend with the recursion for the GIL on the draw thread."""
        return [rng] * len(counts)

    @abc.abstractmethod
    def ml_estimate(self, theta: np.ndarray, counts: Sequence[int], entry) -> np.ndarray:
        """Multilevel estimates for the rows of ``theta`` (shape (R, d)), shape (R, d):
        each row's sum over k of the mean of counts[k-1] level-k differences, from
        ``entry``, this iteration's entry from ``draw``."""

    def has_ground_truth(self) -> bool:
        return self.mu is not None and self.Gamma is not None


class SyntheticGaussianFamily(LevelFamily):
    """Ground-truth family with exactly Gaussian level differences.

    Level-difference law (g standard normal):

        k = 1:  f(theta) + mu*M^(-alpha)          + M^(-beta/2)  *A g
        k >= 2: mu*(M^(-alpha k)-M^(-alpha(k-1))) + M^(-beta k/2)*A g

    so the covariance of the level-k difference is exactly M^(-beta k) * Gamma
    where Gamma = A A^T, and E[F_k] - f = mu * M^(-alpha k).

    f(theta) = H(theta-theta*) is linear, so with the identity projection a run
    is the averaged linear-Gaussian recursion.  No sample is drawn one by one:
    ``draw`` consumes s*d normals per row and iteration (one per level) and
    ``ml_estimate`` none.
    """

    def __init__(self, theta_star, H, mu, noise_factor, alpha: float, beta: float, M: float):
        self.theta_star = np.atleast_1d(np.asarray(theta_star, dtype=float))
        self.d = d = self.theta_star.shape[0]
        self.H = np.asarray(H, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        self.A = np.asarray(noise_factor, dtype=float)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.M = float(M)
        if self.M <= 1:
            raise ValueError("M must exceed 1")
        shapes = {"theta_star": (d,), "H": (d, d), "mu": (d,), "noise_factor": (d, d)}
        values = (self.theta_star, self.H, self.mu, self.A)
        for (name, shape), a in zip(shapes.items(), values):
            if a.shape != shape or not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be a finite array of shape {shape}")
        self.Gamma = self.A @ self.A.T
        self._block_terms = {}  # (block shape, s) -> ml_estimate's operands at that shape

    def draw(self, counts, replicas, rng):
        """Exact collapse: the mean of N iid Gaussians is Gaussian with 1/N
        the covariance, so one normal per level reproduces the estimator's law.

        The entries are the noise terms (T, R, d) of one (T, R, s, d) normal
        draw, the values of T successive (R, s, d) draws: rows in order, levels
        in order within a row.  ``driver.run`` cuts its blocks at 2^16 normals.
        """
        s = counts.shape[1]
        g = rng.standard_normal((len(counts), replicas, s, self.d))
        coef = self.M ** (-self.beta * np.arange(1, s + 1) / 2.0) / np.sqrt(counts)
        return _rowmap(self.A.T, (coef[:, None, None, :] @ g)[:, :, 0, :])

    def ml_estimate(self, theta, counts, noise):
        """f(theta) + mu M^(-alpha s) + noise, with ``noise`` the entry from ``draw``: f's steps,
        in its order, on theta*, H's columns and the bias memoised at theta's (R, d) shape."""
        key = theta.shape, len(counts)
        ops = self._block_terms.get(key)
        if ops is None:  # same-shape operands skip numpy's slower broadcasting loops
            bias = self.mu * self.M ** (-self.alpha * len(counts))
            shaped = [np.array(np.broadcast_to(x, theta.shape))
                      for x in (self.theta_star, *self.H.T, bias)]
            ops = self._block_terms[key] = shaped[0], tuple(shaped[1:-1]), shaped[-1]
        theta_star, columns, bias = ops
        return _rowmap(columns, theta - theta_star) + bias + noise


class EulerSdeFamily(LevelFamily):
    """Coupled coarse/fine Euler levels for a scalar geometric Brownian motion.

    dX = drift*X dt + diffusion*X dW on [0, T] with X_0 = theta; level k uses
    M^k uniform time steps.  Within one sample the coarse path reuses the fine
    increments, summed left to right in groups of M adjacent steps (numpy's own
    grouping for M < 8).  They are held step-major, (M^k, size) C-contiguous, so
    a path product is M^k multiplies of whole rows.  The payoff is the shortfall
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

    def sample_level_diff_batch(self, theta, k, size, rng):
        """``size`` independent samples of F_k(theta, U) - F_{k-1}(theta, U), shape (size, 1)."""
        if k < 1:
            raise ValueError("level k must be >= 1")
        x0 = float(np.atleast_1d(theta)[0])
        n_fine = self.M ** k
        h = self.T / n_fine
        # the stream's sample-major draw, held step-major: row i holds every sample's step i
        dw = np.multiply(rng.standard_normal((size, n_fine)).T, np.sqrt(h), order="C")
        # the Euler step x + a x h + s x dW is x (1 + a h + s dW), so a path is a product
        xf = x0 * np.multiply.reduce(1.0 + self.drift * h + self.diffusion * dw, axis=0)
        if k == 1:  # F_1 - F_0 = F_1 with the convention F_0 = 0
            return (self.target - xf)[:, None]
        hc = self.T / (n_fine // self.M)
        dwc = dw.reshape(n_fine // self.M, self.M, size).sum(axis=1)  # left to right per group
        xc = x0 * np.multiply.reduce(1.0 + self.drift * hc + self.diffusion * dwc, axis=0)
        return ((self.target - xf) - (self.target - xc))[:, None]

    def ml_estimate(self, theta, counts, rng):
        """Rows draw in order, each level-major and sample-minor, all samples
        independent, in batches of at most WINDOW normals whose sums add in order."""
        theta = np.asarray(theta, dtype=float)
        z = np.zeros(theta.shape)
        for row, out in zip(theta, z):
            for k, n_k in enumerate(map(int, counts), start=1):
                step = max(1, WINDOW // self.M ** k)
                out += sum(self.sample_level_diff_batch(row, k, min(step, n_k - i), rng).sum(axis=0)
                           for i in range(0, n_k, step)) / n_k
        return z
