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


_VERIFY_POINTS = 100
_VERIFY_SLACK = 1e-10


def lyapunov_norm(cm: ContractingMatrix) -> LyapunovNorm:
    """Construct a norm with ||I + eps H||_P <= 1 - eps L on [0, eps0].

    P solves the stationary Lyapunov equation (H + L I)^T P + P (H + L I) = -I,
    so with X = H^T P H - L^2 P

        (I + eps H)^T P (I + eps H) - (1 - eps L)^2 P = eps (eps X - I),

    and, while 1 - eps L >= 0, the bound holds exactly when
    eps * lambda_max(X) <= 1.  Past 1/L the right side 1 - eps L is negative,
    which no norm meets, so 1/L caps eps0: eps0 = 1 / max(L, lambda_max(X)).
    The whole interval is re-verified on a 100-point grid.
    """
    H, L, d = cm.H, cm.L, cm.d
    eye = np.eye(d)
    At = H.T + L * eye
    # row-major vec(At P + P At^T) = (At kron I + I kron At) vec P: d^2 unknowns, for small d
    P = np.linalg.solve(np.kron(At, eye) + np.kron(eye, At), -eye.ravel()).reshape(d, d)
    P = 0.5 * (P + P.T)
    w = np.linalg.eigvalsh(P)
    if w[0] <= 0 or w[-1] / w[0] > 1e12:
        raise IllConditionedError(
            f"ill-conditioned: Lyapunov solution has eigenvalue range [{w[0]:.3g}, {w[-1]:.3g}]")
    lam = np.linalg.eigvalsh(H.T @ P @ H - L * L * P)[-1]
    lyap = LyapunovNorm(P, eps0=1.0 / max(L, lam))
    check = np.linspace(0.0, lyap.eps0, _VERIFY_POINTS)
    steps = np.eye(d) + check[:, None, None] * H
    gaps = np.linalg.norm(lyap._sqrt @ steps @ lyap._isqrt, 2, axis=(-2, -1)) - (1.0 - check * L)
    worst = float(np.max(gaps))
    if worst > _VERIFY_SLACK:
        raise IllConditionedError(f"verification failed: grid gap {worst:.3g} above tolerance")
    return lyap


def product_operator(H: np.ndarray, gamma: ScheduleLike, l: int, k: int) -> np.ndarray:
    """Hprod[l,k] = prod_{r=l+1}^k (I + gamma_r H), the empty product at l = k."""
    if l > k:
        raise ValueError("need l <= k")
    H = np.asarray(H, dtype=float)
    eye = np.eye(H.shape[0])
    return functools.reduce(np.dot, eye + _sched_values(gamma, l + 1, k)[:, None, None] * H, eye)


def averaged_operator(H: np.ndarray, gamma: ScheduleLike, b: ScheduleLike, l: int, n: int) -> np.ndarray:
    """Hbar[l,n] = (gamma_l / b_l) sum_{k=l}^n b_k Hprod[l,k].

    Incremental product reuse: one (n - l + 1, d, d) stack of the identity and the
    steps I + gamma_k H becomes the running products (at d = 1 one rounded multiply
    each: one in-place cumulative product, the same bits; d >= 2 streams the np.dot
    chain into a second stack), then the weighted sum in index order, in place.
    """
    if l > n:
        raise ValueError("need l <= n")
    H = np.asarray(H, dtype=float)
    g, bv = _sched_values(gamma, l, n), _sched_values(b, l, n)
    eye = np.eye(H.shape[0])
    prods = np.empty((len(g),) + H.shape)
    prods[0] = eye
    np.add(eye, np.multiply(g[1:, None, None], H, out=prods[1:]), out=prods[1:])
    if H.shape == (1, 1):
        np.cumprod(prods, axis=0, out=prods)
    else:
        prods = np.fromiter(itertools.accumulate(prods[1:], np.dot, initial=eye),
                            np.dtype((float, H.shape)), len(g))
    prods *= bv[:, None, None]
    return (g[0] / bv[0]) * np.cumsum(prods, axis=0, out=prods)[-1]


def _expm(X: np.ndarray) -> np.ndarray:
    """e^X: the degree-18 Taylor sum of X / 2^s (1-norm below 1), squared s times; not
    ``scipy.linalg.expm``, whose LU solve on scipy's OpenBLAS threads can take ms per call."""
    s = max(0, int(np.frexp(np.linalg.norm(X, 1))[1]))
    terms = itertools.accumulate(range(1, 19), lambda T, k: T @ X / (k * 2.0 ** s),
                                 initial=np.eye(len(X)))
    return np.linalg.matrix_power(sum(terms), 2 ** s)


def exp_product_gap(cm: ContractingMatrix, gamma: ScheduleLike, r: int, m: int,
                    lyap: Optional[LyapunovNorm] = None) -> tuple[float, float]:
    """(actual gap, theoretical bound) between e^{(t_m-t_r)H} and the product.

    Both are measured in the Lyapunov norm; requires gamma_{r+1} <= eps0 so the
    contraction argument applies from index r on.
    """
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
    actual = lyap.norm_mat(_expm(dt * H) - product_operator(H, g, r, m))
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
    if n < 1:
        raise ValueError(f"need n >= 1 steps, got n = {n}")
    Ht = np.asarray(H, dtype=float).T
    g, bv = _sched_values(gamma, 1, n), _sched_values(b, 1, n)
    theta = np.zeros(Ht.shape[0]) if theta0 is None else np.array(theta0, dtype=float)
    wsum = 0.0  # sum_{k<=n} b_k theta_k, in index order
    # np.dot gives ``@``'s products bit for bit and skips matmul's slow path for an
    # (R, 1) state, ten times slower at R = 2000; a (d,) start broadcasts to (R, d) innovations
    for k, gk, bk in zip(range(1, n + 1), g.tolist(), bv.tolist()):
        theta = theta + gk * (np.dot(theta, Ht) + upsilon_source(k))
        wsum = wsum + bk * theta
        if (k % 4096 == 0 or k == n) and not np.all(np.isfinite(theta)):
            raise RuntimeError(f"non-finite state at iteration {k}")
    return theta, wsum / np.cumsum(bv)[-1]  # b_bar_n, summed in index order
