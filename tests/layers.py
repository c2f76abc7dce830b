"""Layer profile of one replica block, and the memory of the streamed schedule passes.

    PYTHONPATH=src python tests/layers.py

For each of perfbench's three replica workloads (their configs written by
``perfbench/workloads.py``'s ``generate_inputs`` at seed 1) and each shipped config,
it takes the first block of ``harness.BLOCK`` replicas that ``mlsa run`` makes and
prints three median times over ``REPS`` reps, the three timings taken in alternating
order:

- ``run``: the full ``driver.run`` of the block, its draw thread included;
- ``thread``: the same call, with every draw made beforehand, so the draw thread only
  hands over stored entries and the time is that of the calling thread;
- ``draw``: the block's draws alone, one after another on a fresh stream.

Euler draws its samples inside ``ml_estimate``, so its ``draw`` is near zero and its
``thread`` holds its draws; for Euler it also prints ``normals``: the standard normals
the block's ``ml_estimate`` calls draw, drawn alone on a fresh stream in the same batch
shapes and order, with their count.  Next it prints the ``theory`` workload's linear
layer at perfbench's shapes, medians over ``REPS`` alternating reps: the six
``averaged_operator`` calls at ``OPERATOR_N``, grouped by ``d``, each group with its
``tracemalloc`` peak in MiB and in stacks of ``(OPERATOR_N - 199) d^2`` doubles, and the
two ``linear_iterate`` calls (the drift and the lockstep ``LINEAR_R`` trajectories).  Then it
prints the ``tracemalloc`` peaks of the streamed
passes at n = 10^6 (the slow and critical oracles, the predictions and a schedule
build's temporaries), in MiB and in window arrays of ``params.WINDOW`` doubles; and, for
the three replica workloads, the peaks of the ``RunPlan`` build (with the bytes the plan
keeps) and of the ``records.csv`` write of one whole ``mlsa run --workers 1``.

Timings are noisy, so this is not a CI gate; the file has no ``test_`` prefix, so
the tier-1 suite does not collect it.  It changes no file outside a temporary
directory, and takes 30-45 s on a 2-vCPU host.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read only)
from mlsa import asymptotics, cli, driver, harness, linear  # noqa: E402
from mlsa.config import load_config  # noqa: E402
from mlsa.families import EulerSdeFamily  # noqa: E402
from mlsa.params import WINDOW, KEYS, ParameterSet, schedule_arrays  # noqa: E402

SHIPPED = ("slow_default", "critical_default", "euler_gbm")
REPS = 3


class Replay:
    """A family whose ``draw`` hands over the stored ``(counts, entries)`` pairs in order,
    or, with ``record`` set, draws from its family and stores them."""

    def __init__(self, family, stored, record=False):
        self.family, self.stored, self.record, self.d = family, stored, record, family.d
        self.next = iter(stored)

    def draw(self, counts, replicas, rng):
        if not self.record:
            return next(self.next)[1]
        entries = self.family.draw(counts, replicas, rng)
        self.stored.append((counts, entries))
        return entries

    def ml_estimate(self, theta, counts, entry):
        return self.family.ml_estimate(theta, counts, entry)


class _FirstBlock(Exception):
    """Carries the first task that ``harness.run_replicas`` hands ``harness._run_block``."""


def first_block(config_path: str, out_dir: str) -> tuple:
    """The first block's task ``(common, seed, size, ball)``, exactly as ``mlsa run``
    builds it: the run starts in one process, and its first block call stops it."""
    def stop(task):
        raise _FirstBlock(task)

    real, harness._run_block = harness._run_block, stop
    try:
        cli.main(["run", config_path, "--workers", "1", "--out", out_dir])
    except _FirstBlock as first:
        return first.args[0]
    finally:
        harness._run_block = real
    raise RuntimeError(f"mlsa run {config_path} ran no block")


def euler_shapes(plan, family, size: int) -> list:
    """The ``standard_normal`` shapes, in order, of one Euler block's ``ml_estimate`` calls."""
    return [(min(step, n_k - i), family.M ** k)
            for n in range(plan.n_final) for _ in range(size)
            for k, n_k in enumerate(plan.counts[n, :plan.s[n]].tolist(), start=1)
            for step in (max(1, WINDOW // family.M ** k),) for i in range(0, n_k, step)]


def median_times(timings: dict) -> dict:
    """Median seconds of each timing over ``REPS`` reps, in alternating order."""
    times: dict = {name: [] for name in timings}
    for rep in range(REPS):
        for name in (list(timings) if rep % 2 == 0 else list(timings)[::-1]):
            times[name].append(timings[name]())
    return {name: float(np.median(v)) for name, v in times.items()}


def profile(config_path: str, out_dir: str) -> dict:
    """Median seconds of ``run``, ``thread`` and ``draw`` for the first block, and for an
    Euler block ``normals``, with their count in ``normals_drawn``."""
    (plan, family, projection, theta0, cps), seed, size, ball = first_block(config_path, out_dir)

    def run(fam):
        return driver.run(plan, fam, projection, theta0, cps, seed, replicas=size, ball=ball)

    stored: list = []
    want = run(Replay(family, stored, record=True))  # also the warm-up

    def draw():  # every block's entries on a fresh stream, as driver.run's thread draws them
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            return [(counts, family.draw(counts, size, rng)) for counts, _ in stored]

    def timed(fn, *args):
        t0 = time.perf_counter()
        got = fn(*args)
        return time.perf_counter() - t0, got

    def same(seconds, got):  # a replayed run is the drawn one, bit for bit
        assert got.theta_bar.tobytes() == want.theta_bar.tobytes()
        return seconds

    timings = {"run": lambda: same(*timed(run, family)),
               # Euler's entries are the stream itself, so each replay draws afresh, untimed
               "thread": lambda: same(*timed(run, Replay(family, draw()))),
               "draw": lambda: timed(draw)[0]}
    if not isinstance(family, EulerSdeFamily):
        return median_times(timings)
    shapes = euler_shapes(plan, family, size)

    def normals():
        rng = np.random.default_rng(seed)
        for shape in shapes:
            rng.standard_normal(shape)

    timings["normals"] = lambda: timed(normals)[0]
    return dict(median_times(timings), normals_drawn=sum(a * b for a, b in shapes))


def linear_layer() -> tuple:
    """Median seconds of the ``theory`` workload's linear calls at perfbench's shapes, and
    the traced peak bytes of each ``averaged_operator`` group with the bytes of its stack."""
    rng = np.random.default_rng(1)

    def contracting(d):  # perfbench's draw without its perturbation: the timing depends on d
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return Q @ np.diag(-rng.uniform(1.0, 2.5, d)) @ Q.T

    gamma, weights = (lambda k: k ** (-1.0 / 3.0)), (lambda k: 1.0)
    by_d: dict = {}
    for H in [np.array([[-1.0]])] + [contracting(1 + i % 4) for i in range(5)]:
        by_d.setdefault(len(H), []).append(H)
    n, R = workloads.LINEAR_N, workloads.LINEAR_R
    idx = np.arange(1, n + 1, dtype=float)
    gam, b, delta = idx ** -0.5, idx ** 2.0, idx ** -0.3

    def timed(fn):
        def call():
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0
        return call

    groups = {f"averaged_operator d = {d} ({len(Hs)})": (
        lambda Hs=Hs: [linear.averaged_operator(H, gamma, weights, 200, workloads.OPERATOR_N)
                       for H in Hs], 8 * (workloads.OPERATOR_N - 199) * d * d)
        for d, Hs in sorted(by_d.items())}
    peaks = {label: (traced_peak(fn), stack) for label, (fn, stack) in groups.items()}
    timings = {label: timed(fn) for label, (fn, _) in groups.items()}
    timings["linear_iterate drift"] = timed(lambda: linear.linear_iterate(
        np.array([[-1.0]]), gam, b, lambda k: np.array([delta[k - 1]]), n))
    timings[f"linear_iterate R = {R}"] = timed(lambda: linear.linear_iterate(
        np.array([[-1.0]]), gam, b, lambda k: delta[k - 1] * rng.standard_normal((R, 1)), n,
        theta0=np.zeros((R, 1))))
    return median_times(timings), peaks


def traced_peak(fn) -> int:
    asymptotics._oracles.cache_clear()  # so an oracle call makes its pass
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def plan_and_write_peaks(config_path: str, out_dir: str) -> dict:
    """Traced peak bytes of the ``RunPlan`` build (``plan``, and ``kept``, what the plan holds)
    and of the ``records.csv`` write (``write``) that one ``mlsa run --workers 1`` makes."""
    peaks: dict = {}
    real_plan, real_write = harness.RunPlan, cli.write_text

    def traced(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def plan(*args):
        built, (peaks["kept"], peaks["plan"]) = traced(real_plan, *args)
        return built

    def write(path, parts):
        if os.path.basename(path) != "records.csv":
            return real_write(path, parts)
        digest, (_, peaks["write"]) = traced(real_write, path, parts)
        return digest

    harness.RunPlan, cli.write_text = plan, write
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["run", config_path, "--workers", "1", "--out", out_dir])
    finally:
        harness.RunPlan, cli.write_text = real_plan, real_write
    return peaks


def window_peaks(n: int = 10 ** 6) -> dict:
    """Traced peak bytes of each streamed pass at ``n``; for a schedule build, the bytes
    above its six full-length arrays."""
    slow, critical = (ParameterSet(**dict(load_config(f"configs/{name}.json").params.to_dict(),
                                          **pinned))
                      for name, pinned in (("slow_default", workloads.SLOW_PINNED),
                                           ("critical_default", workloads.CRITICAL_PINNED)))
    return {
        "slow oracles": traced_peak(lambda: asymptotics.oracle_eps_bias(slow, n)),  # one pass
        "critical oracle": traced_peak(lambda: asymptotics.oracle_eps_diff(critical, n)),
        "predict_slow": traced_peak(lambda: asymptotics.predict_slow(slow, n)),
        "predict_critical": traced_peak(lambda: asymptotics.predict_critical(critical, n)),
        "schedule_arrays (slow)": traced_peak(lambda: schedule_arrays(slow, n)) - len(KEYS) * 8 * n,
        "schedule_arrays (critical)": (traced_peak(lambda: schedule_arrays(critical, n))
                                       - len(KEYS) * 8 * n),
    }


def main() -> int:
    os.chdir(ROOT)  # generate_inputs reads the shipped configs by relative path
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for name in ("slow_clt", "critical_dense", "euler_gbm"):
            work_dir = os.path.join(tmp, name)
            os.makedirs(work_dir)
            inputs = workloads.generate_inputs(workloads.WORKLOADS[name], 1, work_dir)
            cases.append((f"perfbench {name}", inputs["config"]))
        cases += [(f"shipped {name}", os.path.join("configs", f"{name}.json")) for name in SHIPPED]
        print(f"median ms over {REPS} alternating reps: run / thread / draw")
        for label, path in cases:
            t = profile(path, os.path.join(tmp, "run"))
            normals = (f"   normals alone: {t['normals_drawn'] / 1e6:.2f} M in "
                       f"{1e3 * t['normals']:.1f}" if "normals" in t else "")
            print(f"  {label:26s} {1e3 * t['run']:9.1f} {1e3 * t['thread']:9.1f} "
                  f"{1e3 * t['draw']:9.1f}{normals}", flush=True)
        print(f"theory's linear layer at perfbench's shapes, median ms over {REPS} alternating "
              "reps (averaged_operator: the calls at each d, then their traced peak in MiB and "
              "in stacks)")
        times, peaks = linear_layer()
        for label, seconds in times.items():
            peak = (f" {peaks[label][0] / 2 ** 20:7.2f} MiB {peaks[label][0] / peaks[label][1]:6.2f}"
                    if label in peaks else "")
            print(f"  {label:32s} {1e3 * seconds:9.1f}{peak}", flush=True)
        print("traced peaks of mlsa run's RunPlan build (what the plan keeps) and records.csv "
              "write, in MiB")
        for label, path in cases[:3]:
            pk = plan_and_write_peaks(path, os.path.join(tmp, "whole"))
            print(f"  {label:26s} {pk['plan'] / 2 ** 20:7.2f} ({pk['kept'] / 2 ** 20:.2f}) "
                  f"{pk['write'] / 2 ** 20:7.2f}", flush=True)
    print(f"traced peaks at n = 10^6, in MiB and in windows of {WINDOW} doubles")
    for label, peak in window_peaks().items():
        print(f"  {label:26s} {peak / 2 ** 20:7.2f} MiB {peak / (8 * WINDOW):6.2f}")
    print(f"took {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
