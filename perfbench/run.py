"""mlsa benchmark: four workloads, end-to-end metrics and per-layer traced spans.

Print every metric by name with its unit, for every workload (run from the
repository root; takes about 8 x SECONDS plus set-up):

    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One run of one workload, end-to-end (--trace 0) or per-layer (--trace 1):

    python3 perfbench/run.py --workload slow_clt --seed 1 --seconds 25 --trace 0

Each run is a closed loop in one process: one execution at a time, no more
pool workers than the workload's count (at most 2, the core count the sizes
were chosen on).  The seed generates the workload's config from a shipped
config in ``configs/`` plus overrides; the program receives only that config
and seed.  The first execution is a warm-up; executions repeat until SECONDS
have passed.  Outputs are checked after every execution (see workloads.py).
The last stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``; the line before it carries the environment block (versions,
cpu count, commit, seed, load average at start and end), the raw and
normalized samples, the reference-kernel times and every check.

Workloads, and the layer predicted to dominate each (self time in the traced
run, net of tracing overhead):

    slow_clt        configs/slow_default.json with 20 replicas x 4000
                    iterations, 36 geometric checkpoints, 2 workers.
                    driver + families >= 90%: ml_estimate, SeedSequence.spawn
                    plus default_rng, and loop overhead.  Where the lockstep
                    engine shows.
    critical_dense  configs/critical_default.json with 8 replicas x 1500
                    iterations and a checkpoint at every iteration, 1 worker.
                    harness (cost_curve, l2_monitor) + asymptotics + cli
                    artifact I/O >= 40%: faster stepping with slower
                    checkpoint storage, statistics or I/O shows here.
    euler_gbm       configs/euler_gbm.json with 2 replicas x 72 iterations,
                    1 worker.  families (coupled Euler paths in ml_estimate)
                    >= 95%: the lockstep engine should leave it unchanged; the
                    Euler product-form rewrite shows only here.
    theory          closed forms vs oracles at n=1e6 (criteria 1-3), mlsa
                    predict on the shipped configs, Lyapunov/operator checks
                    (criterion 7) and the linear recursion with 2000 lockstep
                    trajectories (criterion 8).  linear + asymptotics + params
                    >= 90%; no replica driver calls.

End-to-end metrics (--trace 0, tracing off).  Times are normalized to a
reference host speed (see SpeedReference): this host's speed switches by up
to 1.5x with other tenants' load, which raw medians cannot average out.

    wall_s               s    median time of one execution after set-up:
                              replicas, CLT/cost/L2 statistics, artifact writes
    setup_s              s    median of 5 cold set-ups in fresh interpreters:
                              import, config load and validation, family,
                              projection, cost model, RunPlan at the horizon
    replica_iters_per_s  1/s  replicas x n_final / wall_s (theory: the linear
                              recursion's trajectories x steps)
    peak_rss_mb          MB   peak resident memory of this process plus its
                              largest pool worker

The error rate, failed / attempted, is printed with them and carried by the
result's ``attempted`` and ``failed`` fields.  It is 0 on a healthy tree, so
it is not a bounded metric.

Per-layer metrics (--trace 1): a separate run that alternates untraced and
traced executions with 1 worker (spans cannot cross the process pool from
outside) and reports medians over the traced ones, in raw seconds.  Spans
are recorded by tracing.py around public entry points and saved to
.bench_out/spans-<workload>.npz.

    driver.run_s, driver.plan_s                     s     inclusive time
    driver.self_us_per_iter                         us    driver.run self time
        (minus families, projection, cost-model and default_rng calls)
        per replica-iteration; SeedSequence.spawn stays in it
    driver.rng_setup_us_per_iter                    us    numpy default_rng calls
    driver.replicas_aborted                         count
    families.ml_estimate_s                          s
    families.ml_estimate_us_per_call                us
    families.ml_estimate_calls, families.samples_drawn (sum of counts),
    families.s_min, families.s_max (the s_n range)  count
    families.samples_per_s                          1/s
    harness.run_replicas_s, .clt_report_s, .cost_curve_s, .l2_monitor_s   s
    harness.replicas_screened                       count (CltReport field)
    asymptotics.predict_s, asymptotics.oracle_s     s
    asymptotics.predict_calls                       count
    params.schedule_arrays_s                        s
    linear.lyapunov_s, linear.operator_s, linear.linear_iterate_s   s
    config.load_s                                   s
    cli.write_s                                     s     self time of cli.main:
        artifact formatting, hashing and writes
    cli.artifact_bytes                              count
    trace.overhead_frac                             1     traced / untraced - 1

A layer a workload does not reach reports 0.  The counts repeat exactly for a
given seed.  Which end-to-end metric each layer should move: driver and
families move wall_s and replica_iters_per_s on slow_clt (driver.plan_s also
setup_s), families alone euler_gbm; harness, asymptotics.predict and cli move
wall_s (cli also peak_rss_mb) on critical_dense; linear, params and the
asymptotics oracles move wall_s on theory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
MIN_TIMED = 3
REF_SECONDS = 0.015  # reference-kernel time that defines one normalized second

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import LAYER_OF, LAYERS, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "git_commit": git_commit(), "seed": seed,
            "loadavg_1min_start": os.getloadavg()[0]}


def setup_time(args: list[str]) -> float:
    """Set-up seconds reported by one fresh interpreter running setup_probe.py."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, as (pct, value)."""
    k = len(samples)
    if k <= 10:
        return None
    j = k - 11
    return [100.0 * (j + 1) / k, sorted(samples)[j]]


class Ledger:
    """Attempted and failed operations plus the failures by check name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.hard_failures = 0
        self.failures: dict[str, int] = {}
        self.last_checks: dict = {}

    def add(self, execution, checks, counts) -> None:
        attempted, failed = execution.operations(checks, counts)
        self.attempted += attempted
        self.failed += failed
        for c in checks:
            if not c.ok:
                self.failures[c.name] = self.failures.get(c.name, 0) + 1
                self.hard_failures += int(c.hard)
        self.last_checks = {c.name: {"ok": c.ok, "hard": c.hard, "value": c.value}
                            for c in checks}


class SpeedReference:
    """A fixed CPU kernel timed around every measurement to track host speed.

    On a shared host the CPU speed this process gets switches between states
    up to 1.5x apart, for seconds to a minute at a time, so medians of raw
    wall times from runs a few minutes apart differ by 25% and more.  Each
    measured interval is scaled by REF_SECONDS over the mean kernel time just
    before and just after it: times read as seconds at the speed at which the
    kernel takes REF_SECONDS.  Raw times are kept in the detail line.
    """

    def __init__(self):
        self._rng = np.random.Generator(np.random.PCG64(0))
        self.kernel_s: list[float] = []

    def _kernel(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):  # interpreter-bound, like the replica loops
            acc += i * i % 7
        x = self._rng.standard_normal(200_000)  # generator and array work, like ml_estimate
        x.cumsum()
        np.outer(x[:600], x[:600]).sum()  # memory-bound, like the Euler paths
        t = perf_counter() - t0
        self.kernel_s.append(t)
        return t

    def scaled(self, measure) -> tuple[float, float]:
        """Call ``measure()``, which returns seconds; returns (raw, normalized)."""
        before = self._kernel()
        raw = measure()
        return raw, raw * REF_SECONDS / ((before + self._kernel()) / 2)


def timed(execution, workers: int, ledger: Ledger, ref: SpeedReference) -> tuple[float, float, dict]:
    """One execution: (raw wall, normalized wall, exact counts)."""
    def run() -> float:
        t0 = perf_counter()
        execution.run(workers)
        return perf_counter() - t0
    raw, norm = ref.scaled(run)
    checks, counts = execution.check()
    ledger.add(execution, checks, counts)
    return raw, norm, counts


def measure_end_to_end(work, execution, inputs, seconds, ledger) -> tuple[dict, dict]:
    ref = SpeedReference()
    start = perf_counter()
    timed(execution, work.workers, ledger, ref)  # warm-up
    raw, walls = [], []
    while len(walls) < MIN_TIMED or (perf_counter() - start + statistics.median(raw)
                                      <= seconds):
        r, w, _ = timed(execution, work.workers, ledger, ref)
        raw.append(r)
        walls.append(w)
    rss = peak_rss_mb()
    probe_args = workloads.setup_probe_args(work, inputs)
    setups = [ref.scaled(lambda: setup_time(probe_args)) for _ in range(SETUP_PROBES)]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "replica_iters_per_s": (work.replica_iters / wall, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {"wall_s_count": len(walls), "wall_s_tail_percentile": tail_percentile(walls),
              "wall_s_samples": walls, "raw_wall_s_samples": raw,
              "raw_wall_s_median": statistics.median(raw),
              "setup_s_samples": [s for _, s in setups],
              "raw_setup_s_samples": [r for r, _ in setups],
              "reference_kernel_s": ref.kernel_s}
    return metrics, detail


def layer_metrics(work, tracer, counts: dict) -> dict:
    incl, own, calls = tracer.totals()
    iters = work.replicas * work.n_final
    per_iter = (lambda t: t / iters * 1e6) if iters else (lambda t: 0.0)
    samples, s_min, s_max = tracer.level_totals()
    est_s = incl.get("families.ml_estimate", 0.0)
    est_calls = calls.get("families.ml_estimate", 0)
    return {
        "driver.run_s": (incl.get("driver.run", 0.0), "s"),
        "driver.self_us_per_iter": (per_iter(own.get("driver.run", 0.0)), "us"),
        "driver.rng_setup_us_per_iter": (per_iter(incl.get("driver.rng_setup", 0.0)), "us"),
        "driver.plan_s": (incl.get("driver.plan", 0.0), "s"),
        "driver.replicas_aborted": (counts.get("replicas_aborted", 0), "count"),
        "families.ml_estimate_s": (est_s, "s"),
        "families.ml_estimate_us_per_call": (est_s / est_calls * 1e6 if est_calls else 0.0, "us"),
        "families.ml_estimate_calls": (est_calls, "count"),
        "families.samples_drawn": (samples, "count"),
        "families.samples_per_s": (samples / est_s if est_s else 0.0, "1/s"),
        "families.s_min": (s_min, "count"),
        "families.s_max": (s_max, "count"),
        "harness.run_replicas_s": (incl.get("harness.run_replicas", 0.0), "s"),
        "harness.clt_report_s": (incl.get("harness.clt_report", 0.0), "s"),
        "harness.cost_curve_s": (incl.get("harness.cost_curve", 0.0), "s"),
        "harness.l2_monitor_s": (incl.get("harness.l2_monitor", 0.0), "s"),
        "harness.replicas_screened": (counts.get("replicas_screened", 0), "count"),
        "asymptotics.predict_s": (incl.get("asymptotics.predict", 0.0), "s"),
        "asymptotics.predict_calls": (calls.get("asymptotics.predict", 0), "count"),
        "asymptotics.oracle_s": (incl.get("asymptotics.oracle", 0.0), "s"),
        "params.schedule_arrays_s": (incl.get("params.schedule_arrays", 0.0), "s"),
        "linear.lyapunov_s": (incl.get("linear.lyapunov", 0.0), "s"),
        "linear.operator_s": (incl.get("linear.operator", 0.0), "s"),
        "linear.linear_iterate_s": (incl.get("linear.linear_iterate", 0.0), "s"),
        "config.load_s": (incl.get("config.load", 0.0), "s"),
        "cli.write_s": (own.get("cli.main", 0.0), "s"),
        "cli.artifact_bytes": (counts.get("artifact_bytes", 0), "count"),
    }


def layer_split(tracer, wall: float, span_cost: float) -> tuple[dict, dict]:
    """Self time per layer as a share of the traced wall, raw and net of tracing.

    The net split takes the measured cost of one traced call off every span's
    own layer and off the wall time.
    """
    _, own, calls = tracer.totals()
    net_wall = wall - span_cost * sum(calls.values())
    raw = dict.fromkeys(LAYERS, 0.0)
    net = dict.fromkeys(LAYERS, 0.0)
    for name, t in own.items():
        raw[LAYER_OF[name]] += t / wall
        net[LAYER_OF[name]] += (t - calls[name] * span_cost) / net_wall
    raw["benchmark_and_untraced"] = 1.0 - sum(raw.values())
    net["benchmark_and_untraced"] = 1.0 - sum(net.values())
    return raw, net


def measure_layers(work, execution, seconds, ledger, spans_path) -> tuple[dict, dict]:
    ref = SpeedReference()
    start = perf_counter()
    timed(execution, 1, ledger, ref)  # warm-up
    plain, traced, per_exec = [], [], []
    while not traced or perf_counter() - start + statistics.median(r for r, _ in plain) \
            + statistics.median(r for r, _ in traced) <= seconds:
        plain.append(timed(execution, 1, ledger, ref)[:2])
        tracer = Tracer()
        restore = install(tracer)
        try:
            raw, norm, counts = timed(execution, 1, ledger, ref)
        finally:
            restore()
        traced.append((raw, norm))
        per_exec.append((layer_metrics(work, tracer, counts), tracer))
    tracer.save(spans_path)
    metrics = {name: (statistics.median_low(m[name][0] for m, _ in per_exec), unit)
               for name, (_, unit) in per_exec[0][0].items()}
    # the overhead compares speed-normalized walls; the split uses raw ones
    metrics["trace.overhead_frac"] = (statistics.median(n for _, n in traced)
                                      / statistics.median(n for _, n in plain) - 1.0, "1")
    raw, net = layer_split(per_exec[-1][1], traced[-1][0], Tracer.span_cost())
    detail = {"untraced_raw_wall_s_1_worker": [r for r, _ in plain],
              "traced_raw_wall_s": [r for r, _ in traced], "reference_kernel_s": ref.kernel_s,
              "layer_self_share_traced": raw, "layer_self_share_net_of_tracing": net,
              "spans_file": spans_path}
    return metrics, detail


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    work = WORKLOADS[name]
    env = environment(seed)
    work_dir = os.path.join(".bench_out", f"{name}-{seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    ledger = Ledger()
    try:
        inputs = workloads.generate_inputs(work, seed, work_dir)
        execution = workloads.Execution(work, inputs, seed, work_dir)
        if trace:
            metrics, detail = measure_layers(work, execution, seconds, ledger,
                                             os.path.join(".bench_out", f"spans-{name}.npz"))
        else:
            metrics, detail = measure_end_to_end(work, execution, inputs, seconds, ledger)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env["loadavg_1min_end"] = os.getloadavg()[0]
    error_rate = ledger.failed / ledger.attempted
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value!r} {unit}")
    print(f"{name} error_rate {error_rate!r} 1 ({ledger.failed}/{ledger.attempted} failed)")
    print(json.dumps({"workload": name, "environment": env, "error_rate": error_rate,
                      "failures_by_check": ledger.failures, "last_checks": ledger.last_checks,
                      **detail}, default=str))
    print(json.dumps({"correct": ledger.hard_failures == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    for name in WORKLOADS:
        for trace in (0, 1):
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", str(trace)], cwd=ROOT, check=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mlsa", "__init__.py")):
        print(f"no mlsa sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
