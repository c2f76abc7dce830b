"""Configuration-driven command line: validate, predict, run, plot.

Exit codes: 0 success, 1 domain failure (rejected parameters, too few
surviving replicas, missing or damaged artifacts), 2 usage or parse errors;
:func:`main` maps ``ConfigError`` to 2 and ``InvalidParameters`` and
``InsufficientReplicas`` to 1.  Every artifact format but the plot's SVG markup
(``_svg``) lives here, in the one module that writes files.  All artifacts embed
the configuration hash; ``plot`` refuses inputs whose bytes differ from the manifest's sha256.
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
from .asymptotics import least_n, predictions, rates
from .config import (ConfigError, build_cost_model, build_family, build_projection,
                     config_from_dict, load_config)
from .driver import BallMonitor, RunRecord, default_theta0
from .params import SLOW, InvalidParameters


def csv_lines(columns) -> str:
    """CSV lines of equal-length columns of field strings: what ``csv.writer`` writes of
    their rows with ``lineterminator="\\n"``, save its quotes on a lone empty field."""
    return "\n".join([*map(",".join, zip(*columns)), ""])


def records_header(d: int) -> list[str]:
    """Columns of one ``records.csv`` row: replica, n, theta_i, theta_bar_i, cost."""
    return (["replica", "n"] + [f"theta_{i}" for i in range(d)]
            + [f"theta_bar_{i}" for i in range(d)] + ["cost"])


RECORD_BLOCK = 2 ** 10  # records.csv rows formatted and written at a time


def records_columns(record: RunRecord):
    """Yields the columns of field strings under :func:`records_header`, ``RECORD_BLOCK`` rows
    at a time: replica by replica, the checkpoints reached before any abort.  Each value is
    its ``str``, its shortest round-trip repr; each replica index and checkpoint n and cost
    is formatted once.  Beyond those, a block's rows are all that is held."""
    reached = np.where(record.aborted, np.searchsorted(record.ns, record.abort_iteration),
                       len(record.ns))  # replica r's rows: its checkpoints before the abort
    ends = np.cumsum(reached)
    starts = ends - reached
    reps, ns, costs = (list(map(str, v)) for v in  # shared by many rows: each str'd once
                       (range(len(reached)), record.ns.tolist(), record.cost.tolist()))
    for lo in range(0, int(ends[-1]), RECORD_BLOCK):
        row = np.arange(lo, min(lo + RECORD_BLOCK, int(ends[-1])))
        rep = np.searchsorted(ends, row, side="right")
        j = row - starts[rep]
        values = [list(map(str, col)) for x in (record.theta, record.theta_bar)
                  for col in x[j, rep].T.tolist()]
        rep, j = rep.tolist(), j.tolist()
        yield [[reps[r] for r in rep], [ns[i] for i in j], *values, [costs[i] for i in j]]


def write_text(path: str, parts) -> str:
    """Writes the text parts to ``path`` in turn, each encoded and hashed as it goes, so only
    one part is held at a time; returns the file's sha256 hex digest."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in parts:
            data = part.encode()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def report_json(report, **extra) -> str:
    """Key-sorted JSON of a report dataclass's fields and ``extra``: arrays and
    tuples become lists, and NaN or an infinity in a value or list becomes null."""
    def plain(v):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            return [plain(x) for x in v]
        return None if isinstance(v, float) and not math.isfinite(v) else v

    doc = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return json.dumps({k: plain(v) for k, v in {**doc, **extra}.items()}, sort_keys=True)


def cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except InvalidParameters as exc:
        print("rejected")
        for message in exc.violations:
            print(f"  violation {message}")
        return 1
    print("accepted")
    return 0


def _make_out_dir(path: str) -> None:
    """Create the output directory; a path that cannot be one is a parse error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror}") from exc


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    a = predictions(cfg.params, [n for n in cfg.replication.checkpoints if n >= least_n(cfg.params)])
    cols = [getattr(a, f.name) for f in dataclasses.fields(a)]
    cols[-1] = a.pre_asymptotic.astype(np.int64)  # written 0/1
    table = csv_lines([f.name, *([""] * len(a.n) if c is None else map(str, c.tolist()))]
                      for f, c in zip(dataclasses.fields(a), cols))
    if args.out:
        _make_out_dir(args.out)
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
            raise ConfigError(f"{flag} must be an integer >= {least}, got {value}")
    cfg = load_config(args.config)
    spec = cfg.replication
    if args.seed is not None:
        spec = dataclasses.replace(spec, master_seed=args.seed)
    out_dir = args.out or cfg.output_dir
    _make_out_dir(out_dir)
    family = build_family(cfg)
    cost_model = build_cost_model(cfg)
    projection = build_projection(cfg)
    theta0 = default_theta0(family)
    # L2 monitor defaults: ball of the initial offset size, from n_final/8 on
    eps_l2 = float(np.linalg.norm(theta0 - family.theta_star))
    ball = BallMonitor(center=family.theta_star, eps=eps_l2, n0=max(1, spec.n_final // 8))
    radius = 10.0 * eps_l2 if spec.divergence_radius is None else spec.divergence_radius
    workers = args.workers or os.cpu_count() or 1  # run_replicas takes at most one per block
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

    def write(name: str, parts):
        files[name] = write_text(os.path.join(out_dir, name), parts)

    def csv_text(header: list, blocks):
        yield (f"# config_hash={cfg_hash} master_seed={spec.master_seed}\n"
               + csv_lines([name] for name in header))
        yield from map(csv_lines, blocks)

    try:
        write("records.csv", csv_text(records_header(family.d), records_columns(record)))

        checkpoint = max(spec.checkpoints)
        if family.has_ground_truth():
            report = harness.clt_report(record, cfg.params, family, checkpoint,
                                        divergence_radius=radius,
                                        inputs={"config_hash": cfg_hash,
                                                "master_seed": spec.master_seed})
            payload = report_json(report)
        else:
            payload = json.dumps({"config_hash": cfg_hash, "master_seed": spec.master_seed,
                                  "skipped": "family has no ground truth"})
        write("clt_report.json", [payload])

        rows = harness.cost_curve(record, cfg.params)
        names = ["n", "mean_cost", "predicted_cost", "ratio"]
        write("cost_table.csv", csv_text(names, [[[str(r[k]) for r in rows] for k in names]]))

        lo = [c for c in spec.checkpoints if ball.n0 <= c <= spec.n_final // 2]
        hi = [c for c in spec.checkpoints if c > spec.n_final // 2]
        windows = [(min(c), max(c)) for c in (lo, hi) if c]
        mon = harness.l2_monitor(record, cfg.params, windows)
        write("l2_monitor.json", [report_json(mon, config_hash=cfg_hash,
                                              master_seed=spec.master_seed)])
        manifest["complete"] = True
    finally:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True))
    print(f"wrote {len(manifest['files'])} artifacts to {out_dir}")
    return 0


def cmd_plot(args) -> int:
    from statistics import NormalDist  # imported here: other commands skip its 5 ms import
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
        # records.csv: a hash comment, then records_header(d) and its rows
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
    at = records_header(family.d).index  # each column where the header puts it
    n_col, cost = table[:, at("n")], table[:, at("cost")]
    bar = table[:, at("theta_bar_0"):at("cost")]
    # each checkpoint's rows in file order (a stable sort), so its means sum as a mask's would
    order = np.argsort(n_col, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(n_col[order])) + 1)
    mean_err = np.array([np.linalg.norm(bar[g] - theta_star, axis=1).mean() for g in groups])
    mean_cost = np.array([cost[g].mean() for g in groups])
    # log10 takes neither a zero error nor the critical law c log_M(x)/sqrt(x) <= 0 at cost x <= 1
    keep = (mean_err > 0) & ((cfg.params.regime == SLOW) | (mean_cost > 1))
    if not keep.any():
        print(f"nothing to plot: no checkpoint in {run_dir} has a nonzero error and a positive "
              "guide", file=sys.stderr)
        return 1
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
    bars = bar[groups[-1]]  # the largest checkpoint, as in the CLT report
    for j in range(bars.shape[1]):
        col = np.sort(bars[:, j])
        col = (col - col.mean()) / (col.std(ddof=1) or 1.0)
        q = [NormalDist().inv_cdf((i - 0.5) / len(col)) for i in range(1, len(col) + 1)]
        for column, values in zip(qq, ([j] * len(col), q, col.tolist())):
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidParameters as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except harness.InsufficientReplicas as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
