"""Time one cold set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py [--plan] CONFIG [CONFIG ...]

Set-up is the import of ``mlsa``, loading and validating each config, and
building its family, projection and cost model; with ``--plan`` also the
``RunPlan`` at the config's horizon.  ``src`` must be on ``PYTHONPATH``.
"""

import sys
from time import perf_counter


def main(argv: list[str]) -> None:
    plan = argv[:1] == ["--plan"]
    paths = argv[1:] if plan else argv
    t0 = perf_counter()
    import mlsa
    for path in paths:
        cfg = mlsa.load_config(path)
        mlsa.build_family(cfg)
        mlsa.build_projection(cfg)
        cost_model = mlsa.build_cost_model(cfg)
        if plan:
            mlsa.RunPlan(cfg.params, cost_model, cfg.replication.n_final)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
