"""Linear-system machinery: Lyapunov norms, operator products and limits.

For a contracting matrix H (all eigenvalue real parts < -L) there is an
inner-product norm with ||I + eps*H||_P <= 1 - eps*L on [0, eps0]; this module
constructs it, evaluates the step products

    Hprod[l,k] = prod_{r=l+1}^k (I + gamma_r H)

and the averaged operators

    Hbar[l,n] = (gamma_l / b_l) * sum_{k=l}^n b_k Hprod[l,k]  ->  -H^{-1},

and certifies the exponential-vs-product bound

    ||e^{(t_m-t_r)H} - prod_{l=r+1}^m (I+gamma_l H)||_P
        <= ||H||_P^2 e^{gamma_1 (L+||H||_P)} e^{-(t_m-t_r) L} sum gamma_q^2.

The linear recursion theta_n = theta_{n-1} + gamma_n (H theta_{n-1} + Upsilon_n)
with its weighted average is provided for empirical checks of the averaging
limit theorems.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

ScheduleLike = Union[Sequence[float], np.ndarray, Callable[[int], float]]


def _sched_values(sched: ScheduleLike, lo: int, hi: int) -> np.ndarray:
    """Schedule values at the 1-based indices lo..hi (empty if hi < lo)."""
    if lo < 1:
        raise ValueError("indices are 1-based")
    if callable(sched):
        return np.array([sched(k) for k in range(lo, hi + 1)], dtype=float)
    arr = np.asarray(sched, dtype=float)
    if len(arr) < hi:
        raise ValueError(f"schedule has {len(arr)} values, the horizon needs {hi}")
    return arr[lo - 1:hi]


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
_STACK_ENTRIES = 2 ** 16  # matrix entries per grid-scan stack: bounded memory, early stop


def _contraction_gap(lyap: LyapunovNorm, H: np.ndarray, L: float, eps) -> np.ndarray:
    """||I + eps H||_P - (1 - eps L), elementwise over a scalar or an array of eps."""
    eps = np.asarray(eps, dtype=float)
    steps = np.eye(H.shape[0]) + eps[..., None, None] * H
    return np.linalg.norm(lyap._sqrt @ steps @ lyap._isqrt, 2, axis=(-2, -1)) - (1.0 - eps * L)


def lyapunov_norm(cm: ContractingMatrix) -> LyapunovNorm:
    """Construct a norm with ||I + eps H||_P <= 1 - eps L on [0, eps0].

    P solves the stationary Lyapunov equation (H + L I)^T P + P (H + L I) = -I;
    eps0 is found by a grid scan at 1e-3 resolution, refined by bisection, and
    the whole interval is re-verified on a 100-point grid.
    """
    import scipy.linalg  # imported here: ``import mlsa`` stays free of scipy.linalg
    H, L, d = cm.H, cm.L, cm.d
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
    lo, hi = 0.0, None  # eps0 lies below the first grid point whose gap is not <= 0
    stack = max(_STACK_ENTRIES // d ** 2, 1)  # grid points per stacked call
    for part in np.split(grid, range(stack, len(grid), stack)):
        fails = np.flatnonzero(~(_contraction_gap(lyap, H, L, part) <= 0.0))
        if fails.size:
            j = int(fails[0])
            lo, hi = (float(part[j - 1]) if j else lo), float(part[j])
            break
        lo = float(part[-1])
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
    worst = float(np.max(_contraction_gap(lyap, H, L, check)))
    if worst > _VERIFY_SLACK:
        raise IllConditionedError(f"verification failed: grid gap {worst:.3g} above tolerance")
    return LyapunovNorm(P, eps0=eps0)


def product_operator(H: np.ndarray, gamma: ScheduleLike, l: int, k: int) -> np.ndarray:
    """Hprod[l,k] = prod_{r=l+1}^k (I + gamma_r H), the empty product at l = k."""
    if l > k:
        raise ValueError("need l <= k")
    H = np.asarray(H, dtype=float)
    eye = np.eye(H.shape[0])
    return functools.reduce(np.dot, eye + _sched_values(gamma, l + 1, k)[:, None, None] * H, eye)


def averaged_operator(H: np.ndarray, gamma: ScheduleLike, b: ScheduleLike, l: int, n: int) -> np.ndarray:
    """Hbar[l,n] = (gamma_l / b_l) sum_{k=l}^n b_k Hprod[l,k].

    Incremental product reuse: O(n - l) matrix multiplies over the prebuilt
    (n - l, d, d) stack of steps I + gamma_k H, then a sum in index order.
    """
    if l > n:
        raise ValueError("need l <= n")
    H = np.asarray(H, dtype=float)
    g, bv = _sched_values(gamma, l, n), _sched_values(b, l, n)
    eye = np.eye(H.shape[0])
    prods = np.array(list(itertools.accumulate(eye + g[1:, None, None] * H, np.dot, initial=eye)))
    return (g[0] / bv[0]) * np.cumsum(bv[:, None, None] * prods, axis=0)[-1]


def exp_product_gap(cm: ContractingMatrix, gamma: ScheduleLike, r: int, m: int,
                    lyap: Optional[LyapunovNorm] = None) -> tuple[float, float]:
    """(actual gap, theoretical bound) between e^{(t_m-t_r)H} and the product.

    Both are measured in the Lyapunov norm; requires gamma_{r+1} <= eps0 so the
    contraction argument applies from index r on.
    """
    import scipy.linalg  # imported here: ``import mlsa`` stays free of scipy.linalg
    if r > m:
        raise ValueError("need r <= m")
    if r < 0:
        raise ValueError("indices are 1-based")
    lyap = lyap or lyapunov_norm(cm)
    if r == m:
        return 0.0, 0.0
    g = _sched_values(gamma, 1, m).tolist()
    if g[r] > lyap.eps0:
        raise ValueError(f"gamma_{r + 1} = {g[r]:.6g} exceeds the verified radius eps0 = {lyap.eps0:.6g}")
    H, L = cm.H, cm.L
    dt = sum(g[r:])
    actual = lyap.norm_mat(scipy.linalg.expm(dt * H) - product_operator(H, g, r, m))
    h_norm = lyap.norm_mat(H)
    bound = (h_norm ** 2 * math.exp(g[0] * (L + h_norm)) * math.exp(-dt * L)
             * sum(q ** 2 for q in g[r:]))
    return actual, bound


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
    Ht = np.asarray(H, dtype=float).T
    g, bv = _sched_values(gamma, 1, n), _sched_values(b, 1, n)
    b_bar = np.cumsum(np.concatenate(([0.0], bv))).tolist()  # 0, b_1, b_1 + b_2, ... in index order
    theta = np.zeros(Ht.shape[0]) if theta0 is None else np.array(theta0, dtype=float)
    theta_bar = np.zeros_like(theta)
    # np.dot gives the products of ``@`` bit for bit and skips matmul's slow
    # path for an (R, 1) state, about ten times slower at R = 2000
    for k, gk, bk, b_old, b_new in zip(range(1, n + 1), g.tolist(), bv.tolist(), b_bar, b_bar[1:]):
        theta = theta + gk * (np.dot(theta, Ht) + upsilon_source(k))
        theta_bar = (b_old * theta_bar + bk * theta) / b_new
        if k % 4096 == 0 and not np.all(np.isfinite(theta)):
            raise RuntimeError(f"non-finite state at iteration {k}")
    if not np.all(np.isfinite(theta)):
        raise RuntimeError("non-finite final state")
    return theta, theta_bar
