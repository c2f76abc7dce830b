"""Mutation check: every listed mutant of ``src/`` must be killed by each of its tests.

    python tests/mutants.py

The script copies ``src/``, ``tests/``, ``configs/``, ``perfbench/`` (whose set-up
probe a test runs) and ``pyproject.toml`` to a temporary directory.  For each
mutant it checks that the old text occurs exactly once in its file, so a refactor
that moves the text fails here and must update the mutant; it then applies the
mutant and runs its named test ids in one pytest process, reading each id's outcome
from pytest's ``-rA`` summary, so the interpreter and pytest start once per mutant.  A
test kills the mutant when it fails or errors.  It prints one line per mutant and test
and exits 1 when a mutant's text is not found exactly once, a test survives its mutant,
or pytest cannot run a test id (an exit code other than 0 or 1, or no outcome for it).  It ends with a kill table, which only reports: the mutants each test id
killed, and the test ids that kill no mutant alone.  The file has no ``test_``
prefix, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "configs", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, each of which must fail on the mutant


FAMILIES = "src/mlsa/families.py"
HARNESS = "src/mlsa/harness.py"
ASYMPTOTICS = "src/mlsa/asymptotics.py"
LINEAR = "src/mlsa/linear.py"
PARAMS = "src/mlsa/params.py"
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
    Mutant("_block_terms keyed by len(counts) alone", FAMILIES,
           "key = theta.shape, len(counts)", "key = len(counts)",
           ("tests/test_families.py::test_ml_estimate_block_operand_memo_is_bit_exact",)),
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
    Mutant("Euler tail batch drawn full", FAMILIES,
           "min(step, n_k - i)", "step",
           ("tests/test_families.py::test_euler_shortfall_root_and_slope",
            "tests/test_families.py::test_euler_estimate_in_draw_cap_batches_matches_one_batch_per_level")),
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
           "pred = predictions(p, [n for n in cfg.replication.checkpoints if n >= least])",
           "pred = predictions(p, [])",
           ("tests/test_config_cli.py::test_overflowing_predictions_rejected_without_warnings",)),
    Mutant("eps_bias not checked at load", "src/mlsa/config.py",
           'f.name in ("n", "s", "pre_asymptotic")', 'f.name in ("n", "s", "pre_asymptotic", "eps_bias")',
           ("tests/test_config_cli.py::test_overflowing_predictions_rejected_without_warnings",)),
    Mutant("slow s_n overflow not checked at load", "src/mlsa/config.py",
           'if not 1 <= arr["s"][-1] < np.iinfo(np.int64).max:', "if False:",
           ("tests/test_config_cli.py::test_overflowing_slow_level_rejected",)),
    Mutant("n_final not bounded before the schedule build", "src/mlsa/config.py",
           "if n > PLAN_ENTRIES:", "if False:",
           ("tests/test_config_cli.py::test_n_final_bounded_before_the_schedule_build",)),
    Mutant("slow levels taken at n, not at K_bar_n", ASYMPTOTICS,
           "levels(p, K_bar if p.regime == SLOW else x)", "levels(p, x)",
           ("tests/test_params.py::test_predicted_levels_are_the_windows_bit_for_bit",
            "tests/test_params.py::test_streamed_schedule_and_oracles_are_bitwise_a_full_build",
            "tests/test_asymptotics.py::test_array_predictions_match_scalar_reference",
            "tests/test_asymptotics.py::test_slow_predict_vs_oracle_midrange",
            "tests/test_asymptotics.py::test_slow_predict_vs_oracle_grid_at_1e6",
            "tests/test_asymptotics.py::test_pre_asymptotic_flagged")),
    Mutant("K_bar read one index early", ASYMPTOTICS,
           'K_bar[at] = w["K_bar"][n[at] - lo - 1]', 'K_bar[at] = w["K_bar"][n[at] - lo - 2]',
           ("tests/test_params.py::test_predicted_levels_are_the_windows_bit_for_bit",
            "tests/test_params.py::test_streamed_schedule_and_oracles_are_bitwise_a_full_build",
            "tests/test_asymptotics.py::test_array_predictions_match_scalar_reference",
            "tests/test_asymptotics.py::test_predictions_csv_shape")),
    Mutant("_powers table index off by one", ASYMPTOTICS,
           "(M ** (c * np.arange(lo, hi + 1)))[s - lo]",
           "(M ** (c * np.arange(lo + 1, hi + 2)))[s - lo]",
           ("tests/test_params.py::test_s_power_table_is_the_elementwise_power",
            "tests/test_asymptotics.py::test_windowed_oracles_match_fsum")),
    Mutant("normal CDF of the KS statistic mirrored, erfc(x) for erfc(-x)", HARNESS,
           "math.erfc(-v / math.sqrt(2))", "math.erfc(v / math.sqrt(2))",
           ("tests/test_harness.py::test_ks_statistic_behaviour",
            "tests/test_harness.py::test_calibration_with_injected_normals")),
    Mutant("Kolmogorov series with every term positive", HARNESS,
           "np.where(k2 % 2, 2.0, -2.0)", "np.where(k2 % 2, 2.0, 2.0)",
           ("tests/test_harness.py::test_kolmogorov_critical_against_scipy",)),
    Mutant("Lyapunov Kronecker system built on A, not A^T", LINEAR,
           "At = H.T + L * eye", "At = H + L * eye",
           ("tests/test_linear.py::test_lyapunov_norm_matches_scalar_scan",)),
    Mutant("measured cost not checked at load", "src/mlsa/config.py",
           "if not np.isfinite(cost[-1]):", "if False:",
           ("tests/test_config_cli.py::test_overflowing_predictions_rejected_without_warnings",)),
    Mutant("exact plan not built for an overflowing cost bound or ratio", "src/mlsa/config.py",
           "2.0 ** 52 or not np.isfinite(2.0 * bound / least_cost):", "2.0 ** 52:",
           ("tests/test_config_cli.py::test_overflowing_predictions_rejected_without_warnings",)),
    Mutant("counts past 2^53 not checked at load", "src/mlsa/config.py",
           'if arr["K"][-1] > 2.0 ** 52 or not', "if not",
           ("tests/test_config_cli.py::test_counts_past_2_53_rejected",)),
    Mutant("plan size not checked at load", "src/mlsa/config.py",
           "if entries > PLAN_ENTRIES:", "if False:",
           ("tests/test_config_cli.py::test_plan_too_large_to_hold_rejected",)),
    Mutant("main maps InvalidParameters to exit 2", "src/mlsa/cli.py",
           'print(f"rejected: {exc}", file=sys.stderr)\n        return 1',
           'print(f"rejected: {exc}", file=sys.stderr)\n        return 2',
           ("tests/test_config_cli.py::test_counts_past_2_53_rejected",
            "tests/test_config_cli.py::test_overflowing_predictions_rejected_without_warnings")),
    Mutant("scipy.special imported by mlsa.cli", "src/mlsa/cli.py",
           "import numpy as np\n\nfrom . import harness",
           "import numpy as np\nimport scipy.special\n\nfrom . import harness",
           ("tests/test_harness.py::test_import_loads_neither_scipy_stats_nor_special",)),
    Mutant("run exits 0 with its manifest never marked complete", "src/mlsa/cli.py",
           'manifest["complete"] = True', "pass",
           ("tests/test_config_cli.py::test_fuzzed_configs_reject_or_complete",
            "tests/test_config_cli.py::test_numeric_edge_configs_reject_or_complete")),
    Mutant("plot QQ quantile negated", "src/mlsa/cli.py",
           "q = [NormalDist().inv_cdf(", "q = [-NormalDist().inv_cdf(",
           ("tests/test_config_cli.py::test_csv_artifacts_match_csv_writer",)),
    Mutant("plot reads files without the manifest sha256 check", "src/mlsa/cli.py",
           'if hashlib.sha256(fh.read()).hexdigest() != manifest["files"][name]:', "if False:",
           ("tests/test_config_cli.py::test_plot_refuses_mixed_hashes",)),
    Mutant("records.csv last partial block dropped", "src/mlsa/cli.py",
           "for lo in range(0, int(ends[-1]), RECORD_BLOCK):",
           "for lo in range(0, int(ends[-1]) // RECORD_BLOCK * RECORD_BLOCK, RECORD_BLOCK):",
           ("tests/test_driver.py::test_record_blocks_are_the_whole_table",
            "tests/test_config_cli.py::test_csv_artifacts_match_csv_writer")),
    Mutant("records.csv formatted as one block", "src/mlsa/cli.py",
           "RECORD_BLOCK = 2 ** 12", "RECORD_BLOCK = 2 ** 30",
           ("tests/test_driver.py::test_record_blocks_are_the_whole_table",
            "tests/test_driver.py::test_record_write_memory_is_one_block")),
    Mutant("artifact sha256 fed only the last part", "src/mlsa/cli.py",
           "digest.update(data)", "digest = hashlib.sha256(data)",
           ("tests/test_config_cli.py::test_run_writes_manifest_with_four_artifacts",
            "tests/test_config_cli.py::test_csv_artifacts_match_csv_writer")),
    Mutant("plot groups rows by an unstable sort", "src/mlsa/cli.py",
           'np.argsort(n_col, kind="stable")', "np.argsort(n_col)",
           ("tests/test_config_cli.py::test_plot_means_sum_each_checkpoint_in_file_order",)),
    Mutant("K_bar and b_bar running sums read one index early", PARAMS,
           "last[total] = np.cumsum(w[total], out=w[total])[-1]\n",
           "last[total] = np.cumsum(w[total], out=w[total])[-1]\n"
           "                w[total][1:] = w[total][:-1].copy()\n",
           ("tests/test_params.py::test_schedule_reference_point",
            "tests/test_params.py::test_schedule_arrays_match_exact_reference",
            "tests/test_asymptotics.py::test_windowed_oracles_match_fsum")),
    Mutant("slow regime accepts beta = 1", PARAMS,
           '"beta < 1", beta < 1,', '"beta < 1", beta <= 1,',
           ("tests/test_params.py::test_validate_is_the_regime_inequality_list",)),
    Mutant("2 alpha overflow not named", PARAMS,
           "math.isfinite(2 * alpha), alpha", "True, alpha",
           ("tests/test_params.py::test_alpha_whose_double_overflows_rejected_by_name",
            "tests/test_config_cli.py::test_validate_reject_names_inequality")),
    Mutant("last schedule window skipped", PARAMS,
           "for lo in range(0, n, WINDOW):", "for lo in range(0, max(n - WINDOW, 1), WINDOW):",
           ("tests/test_params.py::test_windowed_build_is_bitwise_one_shot",
            "tests/test_params.py::test_schedule_arrays_match_exact_reference",
            "tests/test_asymptotics.py::test_slow_predict_vs_oracle_midrange")),
    Mutant("oracle loop holds its bias terms through the next window's build", ASYMPTOTICS,
           '            bias += float(np.sum(b * _powers(p.M, -p.alpha, w["s"])))\n',
           '            t = b * _powers(p.M, -p.alpha, w["s"])\n'
           "            bias += float(np.sum(t))\n",
           ("tests/test_params.py::test_build_and_oracles_hold_no_full_length_temporaries",)),
    Mutant("oracles not cached, so they take two passes", ASYMPTOTICS,
           "@lru_cache(maxsize=1)", "@lru_cache(maxsize=0)",
           ("tests/test_params.py::test_one_schedule_build_per_params_and_n",)),
    Mutant("K_bar and b_bar window carry dropped", PARAMS,
           "last[total] = np.cumsum(w[total], out=w[total])[-1]",
           "np.cumsum(w[total], out=w[total])",
           ("tests/test_params.py::test_schedule_arrays_match_exact_reference",
            "tests/test_asymptotics.py::test_windowed_oracles_match_fsum")),
    Mutant("K_bar and b_bar window carry added after the in-place cumsum", PARAMS,
           "w[total][0] += last[total]\n"
           "                last[total] = np.cumsum(w[total], out=w[total])[-1]\n",
           "carry, last[total] = last[total], np.cumsum(w[total], out=w[total])[-1]\n"
           "                w[total][0] += carry\n",
           ("tests/test_params.py::test_schedule_arrays_match_exact_reference",
            "tests/test_params.py::test_windowed_build_is_bitwise_one_shot",
            "tests/test_asymptotics.py::test_windowed_oracles_match_fsum")),
    Mutant("s-only slow window pass keeps K_bar", PARAMS,
           "w = {k: w[k] for k in keys}", 'w = {k: w[k] for k in (*keys, "K_bar") if k in w}',
           ("tests/test_params.py::test_streamed_schedule_and_oracles_are_bitwise_a_full_build",
            "tests/test_params.py::test_windowed_build_is_bitwise_one_shot")),
    Mutant("schedule build keeps each pass's last window", PARAMS,
           "a[k][lo:lo + WINDOW] = w.pop(k)", "a[k][lo:lo + WINDOW] = w[k]",
           ("tests/test_params.py::test_build_and_oracles_hold_no_full_length_temporaries",)),
    Mutant("N_k rounded, not ceiled", PARAMS, "r, np.ceil(x))", "r, np.round(x))",
           ("tests/test_estimator.py::test_counts_reference_plan",
            "tests/test_estimator.py::test_counts_matrix_matches_scalar_rows",
            "tests/test_driver.py::test_iteration_cost_arithmetic")),
    Mutant("eps_bias centering sign flipped", HARNESS,
           "center = center + pred.eps_bias * (H_inv @ family.mu)",
           "center = center - pred.eps_bias * (H_inv @ family.mu)",
           ("tests/test_harness.py::test_clt_report_fields_and_purity",
            "tests/test_acceptance.py::test_criterion_05_slow_regime_clt")),
    Mutant("block j runs on child j + 1", HARNESS,
           "return list(np.random.SeedSequence(master_seed).spawn(n_blocks))",
           "return list(np.random.SeedSequence(master_seed).spawn(n_blocks + 1))[1:]",
           ("tests/test_harness.py::test_block_j_runs_on_child_j_of_the_master_seed",)),
    Mutant("cost left per increment, the cumulative sum dropped", "src/mlsa/driver.py",
           "self.cost = np.cumsum(self.counts @ costs)", "self.cost = self.counts @ costs",
           ("tests/test_driver.py::test_iteration_cost_arithmetic",)),
    Mutant("RunPlan dropped from the package namespace", "src/mlsa/__init__.py",
           "from .driver import RunPlan\n", "",
           ("tests/test_harness.py::test_namespace_serves_the_setup_probe",)),
    Mutant("checkpoints serialized as a tuple", "src/mlsa/config.py",
           '"checkpoints": list(self.replication.checkpoints)}',
           '"checkpoints": self.replication.checkpoints}',
           ("tests/test_config_cli.py::test_round_trip_is_lossless",)),
    Mutant("cost ratio not checked at load", "src/mlsa/config.py",
           "least_cost = min(1.0, pred.predicted_cost.min())", "least_cost = 1.0",
           ("tests/test_config_cli.py::test_overflowing_predictions_rejected_without_warnings",)),
    Mutant("log of an underflowed level argument warns", PARAMS,
           'np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # log(0)',
           'np.errstate(over="ignore", invalid="ignore"):  # log(0)',
           ("tests/test_config_cli.py::test_overflowing_predictions_rejected_without_warnings",)),
    Mutant("report JSON writes an infinity", "src/mlsa/cli.py",
           "None if isinstance(v, float) and not math.isfinite(v) else v",
           "None if isinstance(v, float) and math.isnan(v) else v",
           ("tests/test_config_cli.py::test_overflowing_zeta_reported_as_null",)),
    Mutant("plot keeps checkpoints whose critical law is <= 0", "src/mlsa/cli.py",
           "(cfg.params.regime == SLOW) | (mean_cost > 1)", "(cfg.params.regime == SLOW) | True",
           ("tests/test_config_cli.py::test_critical_plot_leaves_out_costs_at_most_one",)),
    Mutant("weighted sum reset at each chunk", "src/mlsa/driver.py",
           "sums[0] += wsum", "sums[0] += 0.0",
           ("tests/test_driver.py::test_chunked_run_matches_per_iteration_loop",
            "tests/test_driver.py::test_run_matches_scalar_reference")),
    Mutant("b_k applied to theta_{k-1}", LINEAR,
           "        theta = theta + gk * (np.dot(theta, Ht) + upsilon_source(k))\n"
           "        wsum = wsum + bk * theta\n",
           "        wsum = wsum + bk * theta\n"
           "        theta = theta + gk * (np.dot(theta, Ht) + upsilon_source(k))\n",
           ("tests/test_linear.py::test_linear_iterate_matches_scalar_loop",
            "tests/test_linear.py::test_linear_iterate_broadcasts_default_start_to_batched_innovations")),
    Mutant("gamma_{k+1} used at step k", LINEAR,
           "g, bv = _sched_values(gamma, 1, n), _sched_values(b, 1, n)\n    theta =",
           "g, bv = _sched_values(gamma, 2, n + 1), _sched_values(b, 1, n)\n    theta =",
           ("tests/test_linear.py::test_linear_iterate_matches_scalar_loop",
            "tests/test_linear.py::test_linear_iterate_broadcasts_default_start_to_batched_innovations",
            "tests/test_linear.py::test_linear_iterate_deterministic_drift_limit")),
)


OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.MULTILINE)  # -rA summary lines


def run_tests(tmp: str, nodes: tuple) -> dict:
    """Run ``nodes`` in one pytest process and map each to KILLED (some outcome of it
    failed or errored), SURVIVED (every outcome passed) or ERROR (pytest exited other
    than 0 or 1, or reported no outcome for it)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                           *nodes], cwd=tmp, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode not in (0, 1):
        return {node: f"ERROR({proc.returncode})" for node in nodes}
    passed: dict = {}  # test id -> whether every outcome reported for it passed
    for status, node in OUTCOME.findall(proc.stdout):
        node = node.split("[")[0]  # a parametrized id's cases count as the id
        passed[node] = passed.get(node, True) and status == "PASSED"
    return {node: "ERROR" if node not in passed else "SURVIVED" if passed[node] else "KILLED"
            for node in nodes}


def kill_table(kills: dict) -> None:
    """Print the mutants each test id killed, then the test ids none of whose kills is
    their own: every mutant they killed also fell to another listed test."""
    print("\nKill table: test id -> the listed mutants it killed")
    for node in sorted(kills):
        print(f"  {node}: {'; '.join(kills[node])}")
    killers: dict = {}
    for node, names in kills.items():
        for name in names:
            killers.setdefault(name, set()).add(node)
    shared = [node for node in sorted(kills)
              if all(len(killers[name]) > 1 for name in kills[node])]
    print(f"Tests that kill no mutant alone ({len(shared)} of {len(kills)}):")
    for node in shared:
        print(f"  {node}")


def main() -> int:
    failed = False
    kills: dict = {}  # test id -> names of the mutants it killed
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
                for node, verdict in run_tests(tmp, m.tests).items():
                    failed |= verdict != "KILLED"
                    if verdict == "KILLED":
                        kills.setdefault(node, []).append(m.name)
                    print(f"{verdict:9s}{m.name}: {node}", flush=True)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
    kill_table(kills)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
