import csv
import io
import math

import numpy as np
import pytest

from mlsa import (GeometricCostModel, IdentityProjection, ParameterSet,
                  SyntheticGaussianFamily)
from mlsa.driver import csv_header

# default experiment constants; chosen so the n = 4000 horizons of the
# acceptance experiments are deep enough into the asymptotic regime
SLOW_DEFAULT = dict(regime="slow", alpha=1.0, beta=0.5, M=2.0, phi=2.0, rho=2.0,
                    psi=0.5, kappa_K=1.0, kappa_s=8.0, kappa_C=1.0, lam=1.0)
# constants pinned by the formula-vs-oracle checks
SLOW_PINNED = dict(regime="slow", alpha=1.0, beta=0.5, M=2.0, phi=2.0, rho=2.0,
                   psi=0.75, kappa_K=1.0, kappa_s=1.0, kappa_C=1.0, lam=1.0)
CRITICAL_DEFAULT = dict(regime="critical", alpha=1.0, beta=1.0, M=2.0, phi=2.0,
                        rho=2.0, psi=0.5, kappa_K=1.0, kappa_s=1.0, kappa_C=1.0,
                        lam=1.0)
CRITICAL_PINNED = dict(regime="critical", alpha=1.0, beta=1.0, M=2.0, phi=2.0,
                       rho=2.0, psi=0.8, kappa_K=1.0, kappa_s=1.0, kappa_C=1.0,
                       lam=1.0)

GAMMA2 = np.array([[1.0, 0.3], [0.3, 1.0]])


@pytest.fixture
def slow_params():
    return ParameterSet(**SLOW_DEFAULT)


@pytest.fixture
def slow_params_pinned():
    return ParameterSet(**SLOW_PINNED)


@pytest.fixture
def critical_params():
    return ParameterSet(**CRITICAL_DEFAULT)


@pytest.fixture
def critical_params_pinned():
    return ParameterSet(**CRITICAL_PINNED)


def make_slow_family(mu=(1.0, -1.0), H_diag=(-1.0, -2.0)):
    return SyntheticGaussianFamily(
        theta_star=np.zeros(2),
        H=np.diag(H_diag),
        mu=np.asarray(mu, dtype=float),
        noise_factor=np.linalg.cholesky(GAMMA2),
        alpha=1.0, beta=0.5, M=2.0,
    )


def make_scalar_family(H=-1.0, mu=1.0, gamma_var=1.0, beta=0.5, alpha=1.0, M=2.0,
                       noise=None):
    a = np.sqrt(gamma_var) if noise is None else noise
    return SyntheticGaussianFamily(
        theta_star=np.zeros(1), H=[[H]], mu=[mu], noise_factor=[[a]],
        alpha=alpha, beta=beta, M=M,
    )


@pytest.fixture
def slow_family():
    return make_slow_family()


# immutable, so one instance serves every test, the module-scoped acceptance fixtures too
@pytest.fixture(scope="session")
def cost_model():
    return GeometricCostModel(kappa_C=1.0, M=2.0)


@pytest.fixture(scope="session")
def identity():
    return IdentityProjection()


def estimate(fam, theta, counts, rng):
    """One iteration's multilevel estimate for the rows of ``theta``, as the
    driver makes it: the family's ``draw`` for that iteration alone, then
    ``ml_estimate`` with the entry it returned."""
    counts = np.asarray(counts)
    (entry,) = fam.draw(counts[None], len(theta), rng)
    return fam.ml_estimate(theta, counts, entry)


def columns_sum(A, x):
    """x @ A.T at x of shape (..., d), A's columns summed left to right, so a row's
    result does not depend on its neighbours."""
    out = x[..., :1] * A[:, 0]
    for j in range(1, A.shape[1]):
        out = out + x[..., j:j + 1] * A[:, j]
    return out


def synthetic_f(fam, theta):
    """A SyntheticGaussianFamily's f(theta) = H (theta - theta*) at theta of shape (d,)
    or at each row of theta of shape (R, d), in the order ml_estimate applies it."""
    return columns_sum(fam.H, np.asarray(theta, dtype=float) - fam.theta_star)


def bias_increment(fam, k):
    """E[F_k - F_{k-1}] - [k = 1] f, in units of mu: M^(-alpha k) - M^(-alpha (k-1)),
    with M^0 read as 0 at k = 1."""
    if k == 1:
        return fam.M ** (-fam.alpha)
    return fam.M ** (-fam.alpha * k) - fam.M ** (-fam.alpha * (k - 1))


def synthetic_level_diff_batch(fam, theta, k, size, rng):
    """The per-sample law the SyntheticGaussianFamily collapses: ``size`` independent
    samples of F_k(theta, U) - F_{k-1}(theta, U), shape (size, d), d normals each:
    f(theta) [k = 1] + mu (M^(-alpha k) - M^(-alpha (k-1))) + M^(-beta k/2) A g."""
    if k < 1:
        raise ValueError("level k must be >= 1")
    g = rng.standard_normal((size, fam.d))
    out = fam.mu * bias_increment(fam, k) + fam.M ** (-fam.beta * k / 2.0) * (g @ fam.A.T)
    if k == 1:
        out = out + synthetic_f(fam, theta)
    return out


def level_samples(fam, theta, k, size, rng):
    """``size`` samples of the level-k difference at theta: the synthetic reference law,
    or the family's own per-sample kernel."""
    if isinstance(fam, SyntheticGaussianFamily):
        return synthetic_level_diff_batch(fam, np.asarray(theta, dtype=float), k, size, rng)
    return fam.sample_level_diff_batch(np.asarray(theta, dtype=float), k, size, rng)


def one_shot_estimate(fam, theta, counts, rng):
    """The multilevel estimate sample by sample, rows in order, each level drawn in one
    batch: the sum over k of the mean of counts[k-1] level-k samples."""
    z = np.zeros(np.shape(theta))
    for row, out in zip(np.asarray(theta, dtype=float), z):
        for k, n_k in enumerate(counts, start=1):
            out += level_samples(fam, row, k, int(n_k), rng).mean(axis=0)
    return z


def reference_counts(params, s, K):
    """Scalar reference for replication_counts: (N_1, ..., N_s) as Python ints,
    N_k = ceil((K / M^s) M^((beta+1)/2 (s-k))) after snapping values within
    1e-9 (relative) of an integer onto it."""
    def ceil_snapped(x):
        r = round(x)
        if abs(x - r) <= 1e-9 * max(1.0, abs(x)):
            return max(int(r), 1)
        return max(math.ceil(x), 1)

    base = K / params.M ** s
    return tuple(ceil_snapped(base * params.M ** (0.5 * (params.beta + 1) * (s - k)))
                 for k in range(1, s + 1))


def csv_writer_text(rows):
    """What ``csv.writer(lineterminator="\\n")`` writes of ``rows``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def record_rows(rec):
    """The header and the CSV rows of a record, as Python numbers: replica by replica,
    the checkpoints each reached before any abort."""
    return [["replica"] + csv_header(rec.theta.shape[2])] + [
        [r, n, *rec.theta[j, r].tolist(), *rec.theta_bar[j, r].tolist(), rec.cost[j].item()]
        for r in range(rec.theta.shape[1]) for j, n in enumerate(rec.ns.tolist())
        if not rec.aborted[r] or n < rec.abort_iteration[r]]
