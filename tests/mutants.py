"""Mutation check: every listed mutant of ``src/`` must be killed by each of its tests.

    python tests/mutants.py

The script copies ``src/``, ``tests/``, ``configs/`` and ``pyproject.toml`` to a
temporary directory.  For each mutant it checks that the old text occurs exactly
once in its file, so a refactor that moves the text fails here and must update
the mutant; it then applies the mutant and runs each named test id alone with
pytest.  A test kills the mutant when it fails.  It prints one line per mutant
and test and exits 1 when a mutant's text is not found exactly once, a test
survives its mutant, or pytest cannot run a test id.  The file has no ``test_``
prefix, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "configs", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, each of which must fail on the mutant


FAMILIES = "src/mlsa/families.py"
MUTANTS = (
    Mutant("bias exponent len(counts) off by one", FAMILIES,
           "self.mu * self.M ** (-self.alpha * len(counts))",
           "self.mu * self.M ** (-self.alpha * (len(counts) + 1))",
           ("tests/test_families.py::test_zero_noise_level_two_increment",
            "tests/test_families.py::test_zero_noise_level_one_at_root",
            "tests/test_families.py::test_telescoping_zero_noise",
            "tests/test_families.py::test_generic_estimate_matches_collapse_at_zero_noise",
            "tests/test_families.py::test_ml_estimate_block_operand_memo_is_bit_exact",
            "tests/test_estimator.py::test_zero_noise_estimate_anywhere",
            "tests/test_estimator.py::test_unbiasedness_at_finest_level",
            "tests/test_driver.py::test_ml_estimate_level_scale_memo_is_bit_exact")),
    Mutant("level scale M^(-beta k/2) started at k = 0", FAMILIES,
           "np.arange(1, s + 1) / 2.0", "np.arange(0, s) / 2.0",
           ("tests/test_families.py::test_level_variance_monte_carlo",
            "tests/test_estimator.py::test_estimator_variance_closed_form",
            "tests/test_estimator.py::test_generic_loop_agrees_with_collapse",
            "tests/test_driver.py::test_ml_estimate_level_scale_memo_is_bit_exact")),
    Mutant("noise scaled by 1/N_k, not 1/sqrt(N_k)", FAMILIES,
           "/ np.sqrt(counts)", "/ counts",
           ("tests/test_estimator.py::test_estimator_variance_closed_form",
            "tests/test_estimator.py::test_generic_loop_agrees_with_collapse",
            "tests/test_driver.py::test_ml_estimate_level_scale_memo_is_bit_exact")),
    Mutant("_rowmap skips its last column", FAMILIES,
           "for j in range(1, len(columns)):", "for j in range(1, len(columns) - 1):",
           ("tests/test_families.py::test_ml_estimate_block_operand_memo_is_bit_exact",
            "tests/test_driver.py::test_ml_estimate_level_scale_memo_is_bit_exact")),
    Mutant("Gamma = A^T A, not A A^T", FAMILIES,
           "self.Gamma = self.A @ self.A.T", "self.Gamma = self.A.T @ self.A",
           ("tests/test_families.py::test_order_check_synthetic_matches_gamma",)),
    Mutant("synthetic draw from an unseeded stream", FAMILIES,
           "g = rng.standard_normal((len(counts)",
           "g = np.random.default_rng().standard_normal((len(counts)",
           ("tests/test_families.py::test_sampling_determinism",)),
    Mutant("Euler batching removed", FAMILIES,
           "step = max(1, WINDOW // self.M ** k)", "step = max(1, n_k)",
           ("tests/test_families.py::test_euler_estimate_memory_is_bounded_above_the_draw_cap",)),
    Mutant("Euler level mean over N_k + 1", FAMILIES,
           "for i in range(0, n_k, step)) / n_k", "for i in range(0, n_k, step)) / (n_k + 1)",
           ("tests/test_families.py::test_euler_shortfall_root_and_slope",
            "tests/test_families.py::test_euler_estimate_in_draw_cap_batches_matches_one_batch_per_level")),
    Mutant("Euler draw from an unseeded stream", FAMILIES,
           "np.multiply(rng.standard_normal((size, n_fine))",
           "np.multiply(np.random.default_rng().standard_normal((size, n_fine))",
           ("tests/test_families.py::test_sampling_determinism",)),
    Mutant("Euler level 0 accepted", FAMILIES,
           'if k < 1:\n            raise ValueError("level k must be >= 1")\n        x0',
           'if k < 0:\n            raise ValueError("level k must be >= 1")\n        x0',
           ("tests/test_families.py::test_level_zero_rejected",)),
    Mutant("Euler root theta* = target exp(+drift T)", FAMILIES,
           "self.target * np.exp(-self.drift * self.T)", "self.target * np.exp(self.drift * self.T)",
           ("tests/test_families.py::test_euler_shortfall_root_and_slope",)),
    Mutant("closed forms not checked at load", "src/mlsa/config.py",
           "pred = predictions(p, prediction_checkpoints(cfg))", "pred = predictions(p, [])",
           ("tests/test_config_cli.py::test_overflowing_predictions_rejected_without_warnings",
            "tests/test_config_cli.py::test_fuzzed_configs_reject_or_complete")),
    Mutant("eps_bias not checked at load", "src/mlsa/config.py",
           'f.name in ("n", "s", "pre_asymptotic")', 'f.name in ("n", "s", "pre_asymptotic", "eps_bias")',
           ("tests/test_config_cli.py::test_overflowing_predictions_rejected_without_warnings",)),
)


def run_test(tmp: str, node: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           node], cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for item in COPIED:
            src, dst = os.path.join(ROOT, item), os.path.join(tmp, item)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, dst)
        for m in MUTANTS:
            path = os.path.join(tmp, m.path)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            if original.count(m.old) != 1:
                print(f"MISSING  {m.name}: old text occurs {original.count(m.old)} times in {m.path}")
                failed = True
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original.replace(m.old, m.new))
            try:
                for node in m.tests:
                    rc = run_test(tmp, node)
                    verdict = {0: "SURVIVED", 1: "KILLED"}.get(rc, f"ERROR({rc})")
                    failed |= rc != 1
                    print(f"{verdict:9s}{m.name}: {node}", flush=True)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
