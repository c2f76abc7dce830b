"""In-memory span recorder and the wrappers the traced run installs.

Spans are recorded from outside the package, around calls into each
module's public interface: every span has a name, a start, an end and the
index of its parent span.  Self time is a span's duration minus the part of
it covered by its child spans.  ``install`` patches module attributes for
one traced execution and returns the function that restores them.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

# span name -> layer; a span not listed here belongs to the benchmark itself
LAYER_OF = {
    "driver.run": "driver",
    "driver.plan": "driver",
    "driver.rng_setup": "driver",
    "driver.projection": "driver",
    "families.ml_estimate": "families",
    "families.level_cost": "families",
    "harness.run_replicas": "harness",
    "harness.clt_report": "harness",
    "harness.cost_curve": "harness",
    "harness.l2_monitor": "harness",
    "asymptotics.predict": "asymptotics",
    "asymptotics.oracle": "asymptotics",
    "params.schedule_arrays": "params",
    "linear.lyapunov": "linear",
    "linear.operator": "linear",
    "linear.linear_iterate": "linear",
    "config.load": "config",
    "config.build": "config",
    "cli.main": "cli",
}
LAYERS = ("driver", "families", "harness", "asymptotics", "params", "linear",
          "config", "cli")


class Tracer:
    """Append-only span store; spans nest through an explicit parent stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts_seen: list = []  # the counts of every ml_estimate call

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def wrap_ml_estimate(self, fn):
        """Like ``wrap``, and keeps the counts for the sample and level totals."""
        def traced(theta, counts, rng):
            self.counts_seen.append(counts)
            idx = self._open("families.ml_estimate")
            try:
                return fn(theta, counts, rng)
            finally:
                self._close(idx)
        return traced

    def level_totals(self) -> tuple[int, int, int]:
        """(samples drawn, smallest s_n, largest s_n) over the ml_estimate calls."""
        if not self.counts_seen:
            return 0, 0, 0
        levels = [len(c) for c in self.counts_seen]
        return int(sum(sum(c) for c in self.counts_seen)), min(levels), max(levels)

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one traced call adds to an untraced one, timed on a no-op."""
        def noop():
            return None
        traced = Tracer().wrap("noop", noop)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        return max((perf_counter() - t1) - (t1 - t0), 0.0) / calls

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (inclusive seconds, self seconds, call count)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        par = a["parent"]
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        self_t = np.bincount(a["name"], weights=own, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        return ({n: float(incl[i]) for i, n in enumerate(self.names)},
                {n: float(self_t[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})


class _Proxy:
    """Forwards attribute access to ``target``; traced methods override it."""

    def __init__(self, target, **methods):
        self._target = target
        self.__dict__.update(methods)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class _CallProxy(_Proxy):
    def __call__(self, *args):
        return self._call(*args)


# public functions wrapped wherever a module of the package binds them, so a
# call site that moves between modules stays traced
TRACED_FUNCTIONS = {
    ("mlsa.harness", "run_replicas"): "harness.run_replicas",
    ("mlsa.harness", "clt_report"): "harness.clt_report",
    ("mlsa.harness", "cost_curve"): "harness.cost_curve",
    ("mlsa.harness", "l2_monitor"): "harness.l2_monitor",
    ("mlsa.driver", "RunPlan"): "driver.plan",
    ("mlsa.driver", "run"): "driver.run",
    # predict() and predictions_csv() reach both regimes through these two
    ("mlsa.asymptotics", "predict_slow"): "asymptotics.predict",
    ("mlsa.asymptotics", "predict_critical"): "asymptotics.predict",
    ("mlsa.asymptotics", "oracle_eps_bias"): "asymptotics.oracle",
    ("mlsa.asymptotics", "oracle_eps_diff"): "asymptotics.oracle",
    ("mlsa.params", "schedule_arrays"): "params.schedule_arrays",
    ("mlsa.linear", "lyapunov_norm"): "linear.lyapunov",
    ("mlsa.linear", "averaged_operator"): "linear.operator",
    ("mlsa.linear", "exp_product_gap"): "linear.operator",
    ("mlsa.linear", "linear_iterate"): "linear.linear_iterate",
    ("mlsa.config", "load_config"): "config.load",
    ("mlsa.cli", "main"): "cli.main",
    ("numpy.random", "default_rng"): "driver.rng_setup",
}


def install(tracer: Tracer):
    """Wrap the public entry points of every layer; returns ``restore()``."""
    import importlib
    import sys

    import mlsa.cli  # noqa: F401  (loads every module of the package)

    saved = []
    modules = [m for n, m in list(sys.modules.items()) if n == "mlsa" or n.startswith("mlsa.")]

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    for (home, attr), name in TRACED_FUNCTIONS.items():
        original = getattr(importlib.import_module(home), attr)
        traced = tracer.wrap(name, original)
        for module in modules + [importlib.import_module(home)]:
            if getattr(module, attr, None) is original:
                patch(module, attr, traced)

    # the CLI builds the run's objects; trace the family's ml_estimate and
    # proxy the projection and cost model, whose methods the driver calls
    cli = sys.modules["mlsa.cli"]

    def traced_family(family):
        family.ml_estimate = tracer.wrap_ml_estimate(family.ml_estimate)
        return family

    builders = {
        "build_family": traced_family,
        "build_projection": lambda p: _CallProxy(
            p, _call=tracer.wrap("driver.projection", p.__call__)),
        "build_cost_model": lambda c: _Proxy(
            c, level_cost=tracer.wrap("families.level_cost", c.level_cost)),
    }
    for attr, make in builders.items():
        build = tracer.wrap("config.build", getattr(cli, attr))
        patch(cli, attr, lambda cfg, build=build, make=make: make(build(cfg)))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return restore
