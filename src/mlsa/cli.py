"""Configuration-driven command line: validate, predict, run, plot.

Exit codes: 0 success, 1 domain failure (rejected parameters, too few
surviving replicas, missing or damaged artifacts), 2 usage or parse errors.
All artifacts embed the configuration hash; ``plot`` refuses inputs whose
bytes differ from the manifest's sha256.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import harness
from ._svg import loglog_plot
from .asymptotics import predictions_csv, rates
from .config import (ConfigError, build_cost_model, build_family, build_projection,
                     config_from_dict, load_config, prediction_checkpoints)
from .driver import BallMonitor, csv_header, csv_lines, default_theta0
from .params import SLOW, InvalidParameters


def cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except ConfigError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidParameters as exc:
        print("rejected")
        for message in exc.violations:
            print(f"  violation {message}")
        return 1
    print("accepted")
    return 0


def _load_or_report(path):
    """Load a full config; returns (config, exit_code) with config None on failure."""
    try:
        return load_config(path), 0
    except ConfigError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, 2
    except InvalidParameters as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return None, 1


def _make_out_dir(path: str) -> bool:
    """Create the output directory; a path that cannot be one is a parse error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"parse error: output directory {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def cmd_predict(args) -> int:
    cfg, rc = _load_or_report(args.config)
    if cfg is None:
        return rc
    table = predictions_csv(cfg.params, prediction_checkpoints(cfg))
    if args.out:
        if not _make_out_dir(args.out):
            return 2
        path = os.path.join(args.out, "predictions.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# config_hash={cfg.config_hash()}\n")
            fh.write(table)
        print(f"wrote {path}")
    else:
        print(table, end="")
    return 0


def cmd_run(args) -> int:
    # --seed follows the rule load_config applies to master_seed
    for flag, value, least in (("--seed", args.seed, 0), ("--workers", args.workers, 1)):
        if value is not None and value < least:
            print(f"parse error: {flag} must be an integer >= {least}, got {value}",
                  file=sys.stderr)
            return 2
    cfg, rc = _load_or_report(args.config)
    if cfg is None:
        return rc
    spec = cfg.replication
    if args.seed is not None:
        spec = dataclasses.replace(spec, master_seed=args.seed)
    out_dir = args.out or cfg.output_dir
    if not _make_out_dir(out_dir):
        return 2
    family = build_family(cfg)
    cost_model = build_cost_model(cfg)
    projection = build_projection(cfg)
    theta0 = default_theta0(family)
    # L2 monitor defaults: ball of the initial offset size, from n_final/8 on
    eps_l2 = float(np.linalg.norm(theta0 - family.theta_star))
    ball = BallMonitor(center=family.theta_star, eps=eps_l2, n0=max(1, spec.n_final // 8))
    radius = 10.0 * eps_l2 if spec.divergence_radius is None else spec.divergence_radius
    workers = args.workers or min(os.cpu_count() or 1, spec.replicas)
    record = harness.run_replicas(spec, cfg.params, family, cost_model, projection,
                                  theta0, workers=workers, ball=ball)
    cfg_hash = cfg.config_hash()
    manifest = {
        "config": cfg.to_dict(),
        "config_hash": cfg_hash,
        "master_seed": spec.master_seed,
        "complete": False,
        "files": {},
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    files = manifest["files"]  # filled incrementally so partial runs list what completed

    def write(name: str, text: str):
        data = text.encode()
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        files[name] = hashlib.sha256(data).hexdigest()

    def csv_text(header: list, columns: list) -> str:
        return (f"# config_hash={cfg_hash} master_seed={spec.master_seed}\n"
                + csv_lines([name, *col] for name, col in zip(header, columns, strict=True)))

    try:
        write("records.csv", csv_text(["replica"] + csv_header(family.d), record.csv_columns()))

        checkpoint = max(spec.checkpoints)
        if family.has_ground_truth():
            report = harness.clt_report(record, cfg.params, family, checkpoint,
                                        divergence_radius=radius,
                                        inputs={"config_hash": cfg_hash,
                                                "master_seed": spec.master_seed})
            payload = harness.report_json(report)
        else:
            payload = json.dumps({"config_hash": cfg_hash, "master_seed": spec.master_seed,
                                  "skipped": "family has no ground truth"})
        write("clt_report.json", payload)

        rows = harness.cost_curve(record, cfg.params)
        names = ["n", "mean_cost", "predicted_cost", "ratio"]
        write("cost_table.csv", csv_text(names, [[str(r[k]) for r in rows] for k in names]))

        lo = [c for c in spec.checkpoints if ball.n0 <= c <= spec.n_final // 2]
        hi = [c for c in spec.checkpoints if c > spec.n_final // 2]
        windows = [(min(c), max(c)) for c in (lo, hi) if c]
        mon = harness.l2_monitor(record, cfg.params, windows)
        write("l2_monitor.json", harness.report_json(mon, config_hash=cfg_hash,
                                                     master_seed=spec.master_seed))
        manifest["complete"] = True
    except harness.InsufficientReplicas as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True))
    print(f"wrote {len(manifest['files'])} artifacts to {out_dir}")
    return 0


def cmd_plot(args) -> int:
    from scipy.special import ndtri  # imported here: ``import mlsa.cli`` stays free of it
    run_dir = args.run_dir
    needed = ["records.csv", "cost_table.csv"]
    try:  # a damaged manifest, stored config or record table is a domain failure
        with open(os.path.join(run_dir, "manifest.json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest["complete"] is not True:  # its artifacts can be missing or stale
            print(f"incomplete run: the manifest in {run_dir} reads complete: false",
                  file=sys.stderr)
            return 1
        cfg_hash = manifest["config_hash"]
        for name in needed:  # catches a file from another run as well as a damaged one
            if name not in manifest["files"]:
                raise ValueError(f"manifest.json has no sha256 for {name}")
            with open(os.path.join(run_dir, name), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != manifest["files"][name]:
                    raise ValueError(f"{name} does not match its manifest sha256")
        cfg = config_from_dict(manifest["config"])
        # records.csv: a hash comment, then ["replica"] + csv_header(d) and its rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns, and does not raise, on a table of no rows
            table = np.loadtxt(os.path.join(run_dir, "records.csv"), delimiter=",", skiprows=2,
                               ndmin=2)
    except (FileNotFoundError, NotADirectoryError) as exc:
        print(f"missing artifacts: {os.path.basename(exc.filename)}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, UserWarning) as exc:
        print(f"damaged run directory: {exc}", file=sys.stderr)
        return 1
    family = build_family(cfg)
    theta_star = family.theta_star
    n_col, bar, cost = table[:, 1], table[:, 2 + family.d:2 + 2 * family.d], table[:, -1]
    ns = np.unique(n_col)
    mean_err = np.array([np.linalg.norm(bar[n_col == n] - theta_star, axis=1).mean() for n in ns])
    mean_cost = np.array([cost[n_col == n].mean() for n in ns])
    keep = mean_err > 0
    mean_err, mean_cost = mean_err[keep], mean_cost[keep]

    if cfg.params.regime == SLOW:
        r = rates(cfg.params).r
        anchor_c, anchor_e = mean_cost[-1], mean_err[-1]
        guide = anchor_e * (mean_cost / anchor_c) ** (-r)
        label = f"slope -{r:.3g}"
    else:
        shape = np.log(mean_cost) / math.log(cfg.params.M) / np.sqrt(mean_cost)
        c = float(mean_err @ shape / (shape @ shape))  # least squares on c alone
        guide = c * shape
        label = "c log(x)/sqrt(x)"
    svg = loglog_plot(mean_cost, mean_err, guide, guide_label=label)
    svg_path = os.path.join(run_dir, "error_vs_cost.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(svg)

    qq = [["component"], ["theoretical_quantile"], ["standardized_value"]]
    bars = bar[n_col == ns[-1]]  # the largest checkpoint, as in the CLT report
    for j in range(bars.shape[1]):
        col = np.sort(bars[:, j])
        col = (col - col.mean()) / (col.std(ddof=1) or 1.0)
        q = ndtri((np.arange(1, len(col) + 1) - 0.5) / len(col))
        for column, values in zip(qq, ([j] * len(col), q.tolist(), col.tolist())):
            column += map(str, values)
    qq_path = os.path.join(run_dir, "qq_data.csv")
    with open(qq_path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={cfg_hash}\n" + csv_lines(qq))
    print(f"wrote {svg_path} and {qq_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mlsa",
                                     description="multilevel averaged stochastic approximation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a configuration against the regime inequalities")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("predict", help="print the asymptotic prediction table")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("run", help="run the replicated experiment and write artifacts")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--workers", type=int, default=None, help="parallel replica workers")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plot", help="render SVG plots from a completed run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_plot)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
