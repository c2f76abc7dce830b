"""Linear-system machinery: Lyapunov norms, operator products and limits.

For a contracting matrix H (all eigenvalue real parts < -L) there is an
inner-product norm with ||I + eps*H||_P <= 1 - eps*L on [0, eps0]; this module
constructs it, evaluates the step products

    Hprod[l,k] = prod_{r=l+1}^k (I + gamma_r H)

and the averaged operators

    Hbar[l,n] = (gamma_l / b_l) * sum_{k=l}^n b_k Hprod[l,k]  ->  -H^{-1},

and certifies the exponential-vs-product bound

    ||e^{(t_m-t_r)H} - prod_{l=r+1}^m (I+gamma_l H)||_P
        <= ||H||_P^2 e^{gamma_1 (L+||H||_P)} e^{-(t_m-t_r) L} sum gamma_q^2

together with the elementary gaps ||e^A - I|| <= e^||A|| ||A|| and
||e^A - (I+A)|| <= 0.5 e^||A|| ||A||^2.  The linear recursion
theta_n = theta_{n-1} + gamma_n (H theta_{n-1} + Upsilon_n) with its weighted
average is provided for empirical checks of the averaging limit theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg

ScheduleLike = Union[Sequence[float], np.ndarray, Callable[[int], float]]


def _sched_fn(sched: ScheduleLike) -> Callable[[int], float]:
    if callable(sched):
        return sched
    arr = np.asarray(sched, dtype=float)
    return lambda n: float(arr[n - 1])


def spectral_abscissa(H: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(np.asarray(H, dtype=float)).real))


@dataclass(frozen=True)
class ContractingMatrix:
    """H with spectral abscissa strictly below -L (checked at construction)."""

    H: np.ndarray
    L: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        object.__setattr__(self, "H", H)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        if not self.L > 0:
            raise ValueError("L must be positive")
        if spectral_abscissa(H) > -self.L - 1e-9:
            raise ValueError(f"spectral abscissa {spectral_abscissa(H):.6g} is not below -L = {-self.L}")

    @property
    def d(self) -> int:
        return self.H.shape[0]


class LyapunovNorm:
    """Inner-product norm <x,y>_P = x^T P y with a verified contraction radius.

    ``norm_mat`` is the induced operator norm, the largest singular value of
    P^(1/2) M P^(-1/2) (P^(1/2) from the symmetric eigendecomposition).
    """

    def __init__(self, P: np.ndarray, eps0: float):
        self.P = np.asarray(P, dtype=float)
        self.eps0 = float(eps0)
        w, V = np.linalg.eigh(self.P)
        if np.any(w <= 0):
            raise ValueError("P must be positive definite")
        self._sqrt = (V * np.sqrt(w)) @ V.T
        self._isqrt = (V / np.sqrt(w)) @ V.T

    def norm_mat(self, M) -> float:
        return float(np.linalg.norm(self._sqrt @ np.asarray(M, dtype=float) @ self._isqrt, 2))


class IllConditionedError(RuntimeError):
    pass


_GRID_RESOLUTION = 1e-3
_VERIFY_POINTS = 100
_VERIFY_SLACK = 1e-10


def _contraction_gap(lyap: LyapunovNorm, H: np.ndarray, L: float, eps: float) -> float:
    return lyap.norm_mat(np.eye(H.shape[0]) + eps * H) - (1.0 - eps * L)


def lyapunov_norm(cm: ContractingMatrix) -> LyapunovNorm:
    """Construct a norm with ||I + eps H||_P <= 1 - eps L on [0, eps0].

    P solves the stationary Lyapunov equation (H + L I)^T P + P (H + L I) = -I;
    eps0 is found by a grid scan at 1e-3 resolution, refined by bisection, and
    the whole interval is re-verified on a 100-point grid.
    """
    H, L = cm.H, cm.L
    d = cm.d
    A = H + L * np.eye(d)
    P = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(d))
    P = 0.5 * (P + P.T)
    w = np.linalg.eigvalsh(P)
    if w[0] <= 0 or w[-1] / w[0] > 1e12:
        raise IllConditionedError(
            f"ill-conditioned: Lyapunov solution has eigenvalue range [{w[0]:.3g}, {w[-1]:.3g}]")
    lyap = LyapunovNorm(P, eps0=0.0)

    eps_max = 1.0 / L  # beyond this the bound 1 - eps L is negative
    n_grid = max(int(eps_max / _GRID_RESOLUTION), 2)
    grid = np.linspace(0.0, eps_max, n_grid + 1)[1:]
    lo = 0.0
    hi = None
    for eps in grid:
        if _contraction_gap(lyap, H, L, float(eps)) <= 0.0:
            lo = float(eps)
        else:
            hi = float(eps)
            break
    if hi is not None:
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _contraction_gap(lyap, H, L, mid) <= 0.0:
                lo = mid
            else:
                hi = mid
    eps0 = lo
    if eps0 <= 0.0:
        raise IllConditionedError("verification failed: no positive contraction radius found")
    check = np.linspace(0.0, eps0, _VERIFY_POINTS)
    worst = max(_contraction_gap(lyap, H, L, float(e)) for e in check)
    if worst > _VERIFY_SLACK:
        raise IllConditionedError(f"verification failed: grid gap {worst:.3g} above tolerance")
    return LyapunovNorm(P, eps0=eps0)


def product_operator(H: np.ndarray, gamma: ScheduleLike, l: int, k: int) -> np.ndarray:
    """Hprod[l,k] = prod_{r=l+1}^k (I + gamma_r H), the empty product at l = k."""
    if l > k:
        raise ValueError("need l <= k")
    H = np.asarray(H, dtype=float)
    g = _sched_fn(gamma)
    out = np.eye(H.shape[0])
    for r in range(l + 1, k + 1):
        out = out @ (np.eye(H.shape[0]) + g(r) * H)
    return out


def averaged_operator(H: np.ndarray, gamma: ScheduleLike, b: ScheduleLike, l: int, n: int) -> np.ndarray:
    """Hbar[l,n] = (gamma_l / b_l) sum_{k=l}^n b_k Hprod[l,k].

    Incremental product reuse: O(n - l) matrix multiplies.
    """
    if l > n:
        raise ValueError("need l <= n")
    if l < 1:
        raise ValueError("indices are 1-based")
    H = np.asarray(H, dtype=float)
    g, bf = _sched_fn(gamma), _sched_fn(b)
    d = H.shape[0]
    eye = np.eye(d)
    prod = np.eye(d)
    acc = bf(l) * prod
    for k in range(l + 1, n + 1):
        prod = prod @ (eye + g(k) * H)
        acc = acc + bf(k) * prod
    return (g(l) / bf(l)) * acc


def exp_product_gap(cm: ContractingMatrix, gamma: ScheduleLike, r: int, m: int,
                    lyap: Optional[LyapunovNorm] = None) -> tuple[float, float]:
    """(actual gap, theoretical bound) between e^{(t_m-t_r)H} and the product.

    Both are measured in the Lyapunov norm; requires gamma_{r+1} <= eps0 so the
    contraction argument applies from index r on.
    """
    if r > m:
        raise ValueError("need r <= m")
    lyap = lyap or lyapunov_norm(cm)
    if r == m:
        return 0.0, 0.0
    g = _sched_fn(gamma)
    if g(r + 1) > lyap.eps0:
        raise ValueError(f"gamma_{r + 1} = {g(r + 1):.6g} exceeds the verified radius eps0 = {lyap.eps0:.6g}")
    H, L = cm.H, cm.L
    dt = sum(g(q) for q in range(r + 1, m + 1))
    prod = product_operator(H, gamma, r, m)
    actual = lyap.norm_mat(scipy.linalg.expm(dt * H) - prod)
    h_norm = lyap.norm_mat(H)
    bound = (h_norm ** 2 * math.exp(g(1) * (L + h_norm)) * math.exp(-dt * L)
             * sum(g(q) ** 2 for q in range(r + 1, m + 1)))
    return actual, bound


def exp_lemma_gaps(A: np.ndarray) -> tuple[float, float, float, float]:
    """((||e^A - I||, e^||A|| ||A||), (||e^A - I - A||, e^||A|| ||A||^2 / 2)).

    Euclidean operator norm; returned flat as (g1, g1_bound, g2, g2_bound).
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    eA = scipy.linalg.expm(A)
    na = np.linalg.norm(A, 2)
    g1 = float(np.linalg.norm(eA - np.eye(d), 2))
    g2 = float(np.linalg.norm(eA - np.eye(d) - A, 2))
    return g1, math.exp(na) * na, g2, 0.5 * math.exp(na) * na ** 2


def linear_iterate(H: np.ndarray, gamma: ScheduleLike, b: ScheduleLike,
                   upsilon_source: Callable[[int], np.ndarray], n: int,
                   theta0=None) -> tuple[np.ndarray, np.ndarray]:
    """Run theta_k = theta_{k-1} + gamma_k (H theta_{k-1} + Upsilon_k), k <= n.

    ``upsilon_source(k)`` returns the innovation(s) at step k: shape (d,) for
    one trajectory or (R, d) for R independent trajectories run in lockstep
    (theta0 must have the matching shape).  Deterministic callables and
    stream-driven closures are both fine.  Returns (theta_n, theta_bar_n) with
    the b-weighted average started at k = 1.
    """
    H = np.asarray(H, dtype=float)
    d = H.shape[0]
    g, bf = _sched_fn(gamma), _sched_fn(b)
    theta = np.zeros(d) if theta0 is None else np.array(theta0, dtype=float)
    theta_bar = np.zeros_like(theta)
    b_bar = 0.0
    Ht = H.T
    for k in range(1, n + 1):
        ups = upsilon_source(k)
        theta = theta + g(k) * (theta @ Ht + ups)
        bk = bf(k)
        b_bar_new = b_bar + bk
        theta_bar = (b_bar * theta_bar + bk * theta) / b_bar_new
        b_bar = b_bar_new
        if k % 4096 == 0 and not np.all(np.isfinite(theta)):
            raise RuntimeError(f"non-finite state at iteration {k}")
    if not np.all(np.isfinite(theta)):
        raise RuntimeError("non-finite final state")
    return theta, theta_bar
