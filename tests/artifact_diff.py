"""Artifact diff: every artifact of a fixed run matrix must match the one at a base revision.

    python tests/artifact_diff.py <rev>

The script extracts ``<rev>`` with ``git archive`` into a temporary directory and
copies this checkout's ``src/`` and ``configs/`` next to it.  On both trees it runs
one fixed matrix, from the tree's own root, so every relative path an artifact
embeds is the same on both sides:

- the three shipped configs, and the ``slow_clt``, ``critical_dense`` and
  ``euler_gbm`` configs that ``perfbench.workloads.generate_inputs`` writes at
  seed 1 (this checkout's ``perfbench/``, read only);
- for each, ``mlsa run --seed 1`` at ``--workers 1`` and ``2``, ``mlsa plot`` of
  each run, and ``mlsa predict --out``.

It then runs ``diff -r`` on the two output trees and prints the largest relative
move of any ``records.csv`` value, and for each ``clt_report.json`` that differs,
both trees' gate statistics (KS against its critical value, Frobenius, |mean| and
the variance ratios); these only report.  It exits 1 when a command fails on either
tree, or when a file differs (or exists on one side only) that no
``Artifacts moved:`` line lists, or when a listed file did not move.  Those are
the lines that this checkout's ``CHANGES.md`` adds to the one at ``<rev>`` and
that begin ``Artifacts moved: <dir>/<file>, ...``, with paths relative to the
output root (for example ``slow_default/workers1/records.csv``; ``fnmatch``
patterns allowed).
The file has no ``test_`` prefix, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import fnmatch
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = ("slow_default", "critical_default", "euler_gbm")
WORKLOADS = ("slow_clt", "critical_dense", "euler_gbm")
MLSA = "import sys; from mlsa.cli import main; sys.exit(main(sys.argv[1:]))"


def mlsa(tree: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-c", MLSA, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{os.path.basename(tree)}: mlsa {' '.join(args)} exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")


def configs(tree: str) -> dict:
    """Matrix name -> config path relative to ``tree``: shipped, then perfbench's."""
    import workloads  # this checkout's perfbench/ (on sys.path), only to write its inputs

    found = {name: f"configs/{name}.json" for name in SHIPPED}
    here = os.getcwd()
    os.chdir(tree)  # generate_inputs reads configs/ and writes paths relative to the root
    try:
        for name in WORKLOADS:
            work_dir = os.path.join("inputs", name)
            os.makedirs(work_dir)
            found[f"bench_{name}"] = workloads.generate_inputs(
                workloads.WORKLOADS[name], 1, work_dir)["config"]
    finally:
        os.chdir(here)
    return found


def run_matrix(tree: str) -> str:
    for name, config in configs(tree).items():
        for workers in ("1", "2"):
            out = os.path.join("out", name, f"workers{workers}")
            mlsa(tree, "run", config, "--seed", "1", "--workers", workers, "--out", out)
            mlsa(tree, "plot", out)
        mlsa(tree, "predict", config, "--out", os.path.join("out", name, "predict"))
    return os.path.join(tree, "out")


def differing(base_out: str, head_out: str) -> list[str]:
    """Paths under the output root that differ or exist on one side only, from ``diff -rq``."""
    done = subprocess.run(["diff", "-rq", base_out, head_out], capture_output=True, text=True)
    if done.returncode > 1:
        raise RuntimeError(f"diff -r failed: {done.stderr.strip()}")
    paths = []
    for line in done.stdout.splitlines():
        if line.startswith("Files "):  # Files <a> and <b> differ
            path = line[len("Files "):].split(" and ")[0]
        else:  # Only in <dir>: <name>
            where, _, name = line[len("Only in "):].partition(": ")
            path = os.path.join(where, name)
        for root in (base_out, head_out):
            if path.startswith(root + os.sep):
                paths.append(os.path.relpath(path, root))
    return sorted(set(paths))


def records_move(base_out: str, head_out: str) -> float:
    """Largest relative move of a records.csv value between the trees (0 if none moved)."""
    worst = 0.0
    for where, _, names in os.walk(head_out):
        if "records.csv" not in names:
            continue
        rel = os.path.relpath(os.path.join(where, "records.csv"), head_out)
        rows = []
        for root in (base_out, head_out):
            path = os.path.join(root, rel)
            if not os.path.exists(path):
                break
            with open(path, encoding="utf-8") as fh:
                rows.append([line.split(",") for line in fh.read().splitlines()[2:]])
        if len(rows) < 2 or len(rows[0]) != len(rows[1]):
            continue
        for a, b in zip(*rows):
            for x, y in zip(map(float, a), map(float, b)):
                if x != y:
                    worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def gate_margins(path: str) -> str:
    """The CLT gate statistics of one clt_report.json: the largest KS statistic against its
    critical value, the relative Frobenius distance, |mean| and the variance ratios."""
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    if "skipped" in rep:
        return "no CLT report (" + rep["skipped"] + ")"
    ratios = np.diag(np.array(rep["cov"])) / np.diag(np.array(rep["target_cov"]))
    return (f"KS {max(rep['ks_stats']):.4f} < {rep['ks_critical']:.4f}, Frobenius "
            f"{rep['frobenius_rel']:.4f}, |mean| {np.linalg.norm(rep['mean']):.4f}, variance "
            f"ratio {', '.join(f'{r:.4f}' for r in ratios)}")


def declared(base: str) -> list[str]:
    """Patterns of the lines beginning ``Artifacts moved:`` that this checkout's CHANGES.md adds."""
    def lines(root):
        path = os.path.join(root, "CHANGES.md")
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()

    old = set(lines(base))
    patterns = []
    for line in lines(ROOT):
        if line not in old and line.startswith("Artifacts moved:"):
            listed = line[len("Artifacts moved:"):].split(",")
            patterns += [p.strip().strip("`") for p in listed if p.strip()]
    return patterns


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    with tempfile.TemporaryDirectory() as tmp:
        base, head = os.path.join(tmp, "base"), os.path.join(tmp, "head")
        os.makedirs(base)
        archive = subprocess.run(["git", "-C", ROOT, "archive", argv[0]], capture_output=True)
        if archive.returncode != 0:
            print(f"git archive {argv[0]} failed: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", base], input=archive.stdout, check=True)
        for item in ("src", "configs"):
            shutil.copytree(os.path.join(ROOT, item), os.path.join(head, item),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            base_out, head_out = run_matrix(base), run_matrix(head)
        except RuntimeError as exc:
            print(f"FAILED   {exc}")
            return 1
        moved = differing(base_out, head_out)
        patterns = declared(base)
        failed = False
        for root, _, names in sorted(os.walk(head_out)):
            for name in sorted(names):
                rel = os.path.relpath(os.path.join(root, name), head_out)
                print(f"{'moved' if rel in moved else 'same':9s}{rel}")
        for rel in moved:
            if not any(fnmatch.fnmatch(rel, p) for p in patterns):
                print(f"UNDECLARED {rel} differs from {argv[0]}")
                failed = True
        for p in patterns:
            if not any(fnmatch.fnmatch(rel, p) for rel in moved):
                print(f"UNMOVED  {p} is declared moved but matches no differing file")
                failed = True
        for rel in moved:  # reported only: the gates themselves are tier-1's
            if os.path.basename(rel) == "clt_report.json" and all(
                    os.path.exists(os.path.join(root, rel)) for root in (base_out, head_out)):
                print(f"margins  {rel}\n  {argv[0]}: {gate_margins(os.path.join(base_out, rel))}"
                      f"\n  here: {gate_margins(os.path.join(head_out, rel))}")
        count = sum(len(names) for _, _, names in os.walk(head_out))
        print(f"{count} files, {len(moved)} differ; largest relative records.csv move "
              f"{records_move(base_out, head_out):.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
