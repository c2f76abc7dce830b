"""Multilevel Ruppert-Polyak averaged stochastic approximation."""

from .params import (CRITICAL, SLOW, InvalidParameters, ParameterSet, replication_counts,
                     schedule_arrays, validate)
from .families import EulerSdeFamily, GeometricCostModel, LevelFamily, SyntheticGaussianFamily
from .driver import (BallMonitor, BoxProjection, IdentityProjection, RunPlan, RunRecord,
                     default_theta0, geometric_checkpoints, run)
from .asymptotics import (RateBundle, oracle_eps_bias, oracle_eps_diff,
                          predict_critical, predict_slow, psi, rates)
from .linear import (ContractingMatrix, IllConditionedError, LyapunovNorm,
                     averaged_operator, exp_product_gap, linear_iterate,
                     lyapunov_norm, product_operator, spectral_abscissa)
from .harness import (CltReport, InsufficientReplicas, L2Monitor, ReplicationSpec,
                      clt_report, cost_curve, kolmogorov_critical, ks_statistic,
                      l2_monitor, normalized_sample_stats, block_seeds, run_replicas)
from .config import (ConfigError, ExperimentConfig, build_cost_model, build_family,
                     build_projection, config_from_dict, load_config)

__version__ = "0.1.0"
