"""The four benchmark workloads: generated inputs, one execution, its checks.

Every workload is built from a shipped config in ``configs/`` plus overrides
and the workload seed, and is driven only through interfaces the ROADMAP
keeps: ``cli.main``, ``load_config``/``build_*``, ``RunPlan(...)``,
``run_replicas``, ``clt_report``, ``cost_curve``, ``l2_monitor``,
``predict*``, ``oracle_*``, ``schedule_arrays``, ``family.ml_estimate`` and
the public ``linear`` functions.  Calls go through module attributes
(``asymptotics.predict_slow``, ``linear.linear_iterate``) so the traced run
can wrap them.

A check is *hard* when a failure means the program produced a wrong or
non-reproducible output; it is *statistical* when it is a test with a
nominal false-alarm rate (the CLT gates, the replica-variance gate).  Both
kinds count as failed operations; only hard failures make a run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

ACCEPTANCE_REPLICAS = 1000  # replica count the acceptance CLT thresholds are set for
THEORY_N = 10 ** 6  # horizon of the closed-form vs oracle checks (criteria 2, 3)
LINEAR_N = 5000  # linear recursion horizon (criterion 8 uses 1e5)
LINEAR_R = 2000  # lockstep trajectories of the linear recursion (as criterion 8)
LYAPUNOV_DRAWS = 2  # random contracting matrices for the Lyapunov grids (criterion 7 uses 20)
GAP_DRAWS = 8  # exponential-vs-product bound draws (criterion 7 uses 50)
OPERATOR_N = 5000  # averaged-operator horizon (criterion 7 uses 2e4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_config: str  # shipped config the generated one starts from
    replicas: int = 0
    n_final: int = 0
    dense_checkpoints: bool = False
    workers: int = 1

    @property
    def replica_iters(self) -> int:
        return self.replicas * self.n_final if self.replicas else LINEAR_R * LINEAR_N


WORKLOADS = {w.name: w for w in (
    Workload("slow_clt", "slow-regime CLT replicas at d=2; the per-replica iteration loop "
             "(driver + ml_estimate + stream setup) dominates",
             "configs/slow_default.json", replicas=20, n_final=4000, workers=2),
    Workload("critical_dense", "critical regime with a checkpoint at every iteration; "
             "checkpoint storage, cost_curve, L2 statistics and records.csv I/O weigh in",
             "configs/critical_default.json", replicas=8, n_final=1500,
             dense_checkpoints=True),
    Workload("euler_gbm", "coupled Euler GBM levels with box projection; ml_estimate is "
             "almost all of the time, so a faster replica loop must leave it unchanged",
             "configs/euler_gbm.json", replicas=2, n_final=72),
    Workload("theory", "closed forms vs oracles at n=1e6, mlsa predict, Lyapunov/operator "
             "checks and the lockstep linear recursion; no replica driver calls",
             "configs/slow_default.json"),
)}

# criteria 2 and 3 pin these constants on top of the shipped configs
SLOW_PINNED = {"psi": 0.75, "kappa_s": 1.0}
CRITICAL_PINNED = {"psi": 0.8}
SHIPPED = ("configs/slow_default.json", "configs/critical_default.json",
           "configs/euler_gbm.json")


@dataclass
class Check:
    name: str
    ok: bool
    hard: bool
    value: object = None

    def __post_init__(self):
        self.ok = bool(self.ok)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_config(base: str, out_path: str, *, params=None, replicas=None,
                 n_final=None, checkpoints=None, seed=None, out_dir=None) -> str:
    doc = _read_json(base)
    doc["params"].update(params or {})
    rep = doc["replication"]
    if replicas is not None:
        rep["replicas"] = replicas
    if n_final is not None:
        rep["n_final"] = n_final
    if checkpoints is not None:
        rep["checkpoints"] = checkpoints
    if seed is not None:
        rep["master_seed"] = seed
    if out_dir is not None:
        doc["output"]["directory"] = out_dir
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return out_path


def generate_inputs(work: Workload, seed: int, work_dir: str) -> dict:
    """Write the workload's configs under ``work_dir``; returns their paths.

    Paths are relative to the repository root, the working directory, so the
    artifacts (which embed the config, output directory included) and their
    byte counts do not depend on where the checkout lives.
    """
    if work.name == "theory":
        return {
            "slow_pinned": write_config("configs/slow_default.json",
                                        os.path.join(work_dir, "slow_pinned.json"),
                                        params=SLOW_PINNED),
            "critical_pinned": write_config("configs/critical_default.json",
                                            os.path.join(work_dir, "critical_pinned.json"),
                                            params=CRITICAL_PINNED),
            "shipped": list(SHIPPED),
        }
    out_dir = os.path.join(work_dir, "run")
    cps = list(range(1, work.n_final + 1)) if work.dense_checkpoints else None
    return {"config": write_config(work.base_config, os.path.join(work_dir, "config.json"),
                                   replicas=work.replicas,
                                   n_final=work.n_final, checkpoints=cps, seed=seed,
                                   out_dir=out_dir),
            "out": out_dir}


def setup_probe_args(work: Workload, inputs: dict) -> list[str]:
    """Arguments of setup_probe.py: what a user of this workload loads and builds."""
    if work.name == "theory":
        return [inputs["slow_pinned"], inputs["critical_pinned"]] + inputs["shipped"]
    return ["--plan", inputs["config"]]


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Execution:
    """One workload execution at a fixed seed, followed by its checks."""

    def __init__(self, work: Workload, inputs: dict, seed: int, work_dir: str):
        self.work = work
        self.inputs = inputs
        self.seed = seed
        self.work_dir = work_dir
        self.first_digest = None

    def run(self, workers: int) -> None:
        from mlsa import cli
        if self.work.name == "theory":
            self.outcome = run_theory(self.inputs, self.seed, self.work_dir)
            return
        rc = _quiet(cli.main, ["run", self.inputs["config"], "--seed", str(self.seed),
                               "--workers", str(workers), "--out", self.inputs["out"]])
        self.outcome = {"rc": rc}

    def check(self) -> tuple[list[Check], dict]:
        """Checks of the last execution, and its exact counts."""
        if self.work.name == "theory":
            checks, counts, digest = theory_checks(self.outcome)
        else:
            checks, counts, digest = run_checks(self.work, self.inputs["out"], self.outcome["rc"])
        if self.first_digest is None:
            self.first_digest = digest
        checks.append(Check("repeat_identical", digest == self.first_digest, True))
        return checks, counts

    def operations(self, checks: list[Check], counts: dict) -> tuple[int, int]:
        """(attempted, failed): replicas plus checks; aborted replicas plus failed checks."""
        failed = sum(not c.ok for c in checks) + counts.get("replicas_aborted", 0)
        return self.work.replicas + len(checks), failed


def _dir_digest(path: str) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


def _aborted_replicas(records_path: str, n_checkpoints: int) -> int:
    """Replicas with fewer checkpoint rows than scheduled aborted early."""
    rows: dict[str, int] = {}
    with open(records_path, "r", encoding="utf-8") as fh:
        fh.readline()  # hash comment
        for row in csv.DictReader(fh):
            rows[row["replica"]] = rows.get(row["replica"], 0) + 1
    return sum(1 for n in rows.values() if n < n_checkpoints)


def run_checks(work: Workload, out: str, rc: int) -> tuple[list[Check], dict, str]:
    checks = [Check("exit_code_0", rc == 0, True, rc)]
    manifest = _read_json(os.path.join(out, "manifest.json"))
    checks.append(Check("manifest_complete", manifest.get("complete") is True, True))
    n_cps = len(manifest["config"]["replication"]["checkpoints"])
    aborted = _aborted_replicas(os.path.join(out, "records.csv"), n_cps)
    if work.name == "euler_gbm":
        checks.append(Check("no_replica_aborted", aborted == 0, True, aborted))

    with open(os.path.join(out, "cost_table.csv"), "r", encoding="utf-8") as fh:
        fh.readline()
        last = list(csv.DictReader(fh))[-1]
    ratio = float(last["ratio"])
    checks.append(Check("cost_ratio_in_0.9_1.1", 0.9 <= ratio <= 1.1, True, ratio))

    clt = _read_json(os.path.join(out, "clt_report.json"))
    screened = 0
    if "skipped" not in clt:
        screened = clt["replicas_screened"]
        scale = math.sqrt(ACCEPTANCE_REPLICAS / work.replicas)
        mean_norm = float(np.linalg.norm(clt["mean"]))
        checks += [
            Check("clt_screened_fraction", clt["screened_fraction"] >= 0.99, False,
                  clt["screened_fraction"]),
            Check("clt_frobenius", clt["frobenius_rel"] <= 0.15 * scale, False,
                  clt["frobenius_rel"]),
            Check("clt_mean_norm", mean_norm <= 0.15 * scale, False, mean_norm),
            Check("clt_ks_at_0.01", clt["ks_pass"] and clt["level"] == 0.01, False,
                  max(clt["ks_stats"])),
        ]
    if work.name == "critical_dense":
        flagged = _read_json(os.path.join(out, "l2_monitor.json"))["flagged"]
        checks.append(Check("l2_no_window_flagged", not any(flagged), True, flagged))

    digest, size = _dir_digest(out)
    counts = {"replicas_aborted": aborted, "replicas_screened": screened,
              "artifact_bytes": size}
    return checks, counts, digest


def run_theory(inputs: dict, seed: int, work_dir: str) -> dict:
    """Acceptance criteria 1-3, 7 and 8 plus ``mlsa predict`` on the shipped configs."""
    from mlsa import asymptotics, cli, config, linear

    out = {}
    # criterion 1: psi(1) = psi(0) on a parameter grid
    worst = 0.0
    for u in np.linspace(0.2, 3.0, 10):
        for gap in np.linspace(0.1, 2.5, 6):
            v = u - gap
            if abs(u + v) < 1e-9:
                v -= 1e-3
            for M in (1.5, 2.0, 3.0, 4.0, 6.0):
                a, b = asymptotics.psi(u, v, M, 1.0), asymptotics.psi(u, v, M, 0.0)
                worst = max(worst, abs(a / b - 1.0))
    out["psi_worst"] = worst

    # criteria 2 and 3: closed forms against the brute-force oracles
    slow = config.load_config(inputs["slow_pinned"]).params
    crit = config.load_config(inputs["critical_pinned"]).params
    pred = asymptotics.predict_slow(slow, THEORY_N)
    out["slow_bias_ratio"] = pred.eps_bias / asymptotics.oracle_eps_bias(slow, THEORY_N)
    out["slow_diff_ratio"] = pred.eps_diff / asymptotics.oracle_eps_diff(slow, THEORY_N)
    out["critical_diff_ratio"] = (asymptotics.predict_critical(crit, THEORY_N).eps_diff
                                  / asymptotics.oracle_eps_diff(crit, THEORY_N))

    # mlsa predict on the shipped configs
    pred_dir = os.path.join(work_dir, "predict")
    out["predict_rc"] = [_quiet(cli.main, ["predict", path, "--out",
                                           os.path.join(pred_dir, str(i))])
                         for i, path in enumerate(inputs["shipped"])]
    out["predict_dir"] = pred_dir

    # criterion 7: Lyapunov grids, exponential-vs-product bounds, averaged operator
    rng = np.random.Generator(np.random.PCG64(seed))

    # dimensions and horizons cycle with the draw index, so the seed changes
    # the matrices but not the amount of work
    def draw_contracting(i, margin=1.0):
        d = 1 + i % 4
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        H = Q @ np.diag(-rng.uniform(1.0, 2.5, d)) @ Q.T + 0.25 * rng.standard_normal((d, d))
        ab = linear.spectral_abscissa(H)
        if ab > -margin - 0.05:
            H -= (ab + margin + 0.05) * np.eye(d)
        return H

    grid_gap = -np.inf
    for i in range(LYAPUNOV_DRAWS):
        H = draw_contracting(i)
        cm = linear.ContractingMatrix(H, 0.8)
        ly = linear.lyapunov_norm(cm)
        for eps in np.linspace(0, ly.eps0, 100):
            grid_gap = max(grid_gap, ly.norm_mat(np.eye(H.shape[0]) + eps * H) - (1 - eps * cm.L))
    out["lyapunov_grid_gap"] = float(grid_gap)
    wins = 0
    for i in range(GAP_DRAWS):
        cm = linear.ContractingMatrix(draw_contracting(i), 0.8)
        ly = linear.lyapunov_norm(cm)
        c = 0.9 * ly.eps0
        r = i % 6
        m = r + 1 + (7 * i) % 39
        actual, bound = linear.exp_product_gap(cm, lambda n, c=c: c * n ** -0.6, r, m, lyap=ly)
        wins += int(actual <= bound)
    out["bound_wins"] = wins
    gamma, weights = (lambda k: k ** (-1.0 / 3.0)), (lambda k: 1.0)
    hbar = abs(linear.averaged_operator(np.array([[-1.0]]), gamma, weights, 200,
                                        OPERATOR_N)[0, 0] - 1.0)
    for i in range(5):
        H = draw_contracting(i)
        hbar = max(hbar, float(np.linalg.norm(
            linear.averaged_operator(H, gamma, weights, 200, OPERATOR_N) + np.linalg.inv(H), 2)))
    out["hbar_error"] = hbar

    # criterion 8: drift limit and lockstep replica variance of the linear recursion
    idx = np.arange(1, LINEAR_N + 1, dtype=float)
    gam, b, delta = idx ** -0.5, idx ** 2.0, idx ** -0.3
    _, bar = linear.linear_iterate(np.array([[-1.0]]), gam, b,
                                   lambda k: np.array([delta[k - 1]]), LINEAR_N)
    out["drift_ratio"] = float(bar[0] / (np.sum(b * delta) / np.sum(b)))
    _, bars = linear.linear_iterate(np.array([[-1.0]]), gam, b,
                                    lambda k: delta[k - 1] * rng.standard_normal((LINEAR_R, 1)),
                                    LINEAR_N, theta0=np.zeros((LINEAR_R, 1)))
    sigma = math.sqrt(float(np.sum((b * delta) ** 2))) / float(np.sum(b))
    out["replica_variance"] = float(np.var(bars[:, 0] / sigma, ddof=1))
    return out


def theory_checks(o: dict) -> tuple[list[Check], dict, str]:
    checks = [
        Check("c1_psi_periodic", o["psi_worst"] <= 1e-12, True, o["psi_worst"]),
        Check("c2_slow_bias_ratio", 0.98 <= o["slow_bias_ratio"] <= 1.02, True,
              o["slow_bias_ratio"]),
        Check("c2_slow_diff_ratio", 0.98 <= o["slow_diff_ratio"] <= 1.02, True,
              o["slow_diff_ratio"]),
        Check("c3_critical_diff_ratio", 0.98 <= o["critical_diff_ratio"] <= 1.02, True,
              o["critical_diff_ratio"]),
        Check("predict_exit_codes_0", o["predict_rc"] == [0, 0, 0], True, o["predict_rc"]),
        Check("c7_lyapunov_grid", o["lyapunov_grid_gap"] <= 1e-10, True, o["lyapunov_grid_gap"]),
        Check("c7_bound_dominates", o["bound_wins"] == GAP_DRAWS, True, o["bound_wins"]),
        Check("c7_hbar_error", o["hbar_error"] <= 0.05, True, o["hbar_error"]),
        Check("c8_drift_ratio", abs(o["drift_ratio"] - 1.0) <= 0.03, True, o["drift_ratio"]),
        Check("c8_replica_variance", abs(o["replica_variance"] - 1.0) <= 0.10, False,
              o["replica_variance"]),
    ]
    values = {k: v for k, v in o.items() if k != "predict_dir"}
    h = hashlib.sha256(json.dumps(values, sort_keys=True).encode())
    size = 0
    pred_dir = o["predict_dir"]
    for sub in sorted(os.listdir(pred_dir)):
        d, s = _dir_digest(os.path.join(pred_dir, sub))
        h.update(d.encode())
        size += s
    return checks, {"artifact_bytes": size}, h.hexdigest()
