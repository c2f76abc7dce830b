"""Experiment configuration: JSON schema, strict parsing, hashing.

One file per experiment.  Layout (matrices are row-major nested lists):

    {
      "params":      {"regime": "slow", "alpha": 1.0, ...},
      "family":      {"kind": "synthetic_gaussian", ...} | {"kind": "euler_sde", ...},
      "projection":  {"kind": "identity"} | {"kind": "box", "lower": [...], "upper": [...]},
      "replication": {"replicas": R, "n_final": N, "checkpoints": [...] | null,
                      "master_seed": S, "divergence_radius": r | null},
      "output":      {"directory": "out"}
    }

``params`` holds the fields of :class:`ParameterSet`: regime, alpha, beta, M,
phi, rho and psi, and optionally kappa_K, kappa_s, kappa_C and lam.  Unknown
keys anywhere are rejected.  Round-trips losslessly through ``to_dict``;
``config_hash`` is the sha256 of the canonical JSON and is embedded in every
artifact.

Documents are checked completely at load time: malformed structure, types or
shapes raise :class:`ConfigError`; well-formed values outside the model's
domain (regime inequalities, a non-integer Euler scale) raise
:class:`InvalidParameters`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .asymptotics import least_n, predictions
from .driver import BoxProjection, IdentityProjection, RunPlan, geometric_checkpoints
from .families import EulerSdeFamily, GeometricCostModel, LevelFamily, SyntheticGaussianFamily
from .harness import BLOCK, ReplicationSpec
from .linear import spectral_abscissa
from .params import InvalidParameters, ParameterSet, schedule_arrays


class ConfigError(ValueError):
    pass


# most entries of a run's (n_final, s_n) counts matrix or of one iteration's (BLOCK, s_n, d)
# synthetic draw: 2^25 int64 counts are 256 MiB, but a whole run holds about 59 B per
# iteration (2.0 GB at n_final 2^25 with s_n = 1, an extrapolation in README)
PLAN_ENTRIES = 2 ** 25


def _check_type(ok: bool, section: str, key: str, expected: str, value):
    if not ok:
        raise ConfigError(f"{section}: {key} must be {expected}, got {value!r}")


def _check_int(section: str, key: str, value, lo: int):
    _check_type(type(value) is int and value >= lo, section, key, f"an integer >= {lo}", value)


def _require_keys(section: dict, name: str, required: set, optional: set = frozenset()):
    unknown = set(section) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in '{name}': {sorted(missing)}")


@dataclass(frozen=True)
class ExperimentConfig:
    params: ParameterSet
    family_spec: dict
    projection_spec: dict
    replication: ReplicationSpec
    output_dir: str

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "family": self.family_spec,
            "projection": self.projection_spec,
            # vars, not asdict, which deep-copies each checkpoint (1.1 ms a call at 1,500)
            "replication": {**vars(self.replication),
                            "checkpoints": list(self.replication.checkpoints)},
            "output": {"directory": self.output_dir},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def parse_config_structure(doc: dict) -> None:
    """Structural pass: key and type checking, no feasibility validation.

    Raises ConfigError for malformed documents; regime inequalities are *not*
    checked here, so the CLI can report them as domain failures rather than
    parse errors.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    _require_keys(doc, "<root>", {"params", "family", "projection", "replication", "output"})
    for name in ("params", "family", "projection", "replication", "output"):
        _check_type(isinstance(doc[name], dict), "<root>", name, "an object", doc[name])

    fs = fields(ParameterSet)
    _require_keys(doc["params"], "params", {f.name for f in fs if f.default is MISSING},
                  {f.name for f in fs if f.default is not MISSING})
    for key, value in doc["params"].items():  # no silent coercion of strings or booleans
        if key == "regime":  # an unknown regime name is a domain error, found by validate
            _check_type(isinstance(value, str), "params", key, "a string", value)
        else:
            _check_type(type(value) in (int, float), "params", key, "a number", value)

    fam = doc["family"]
    kind = fam.get("kind")
    if kind == "synthetic_gaussian":
        _require_keys(fam, "family", {"kind", "theta_star", "H", "mu", "noise_factor"})
    elif kind == "euler_sde":
        _require_keys(fam, "family", {"kind", "drift", "diffusion"}, {"target", "horizon"})
        for key in ("drift", "diffusion", "target", "horizon"):
            _check_type(type(fam.get(key, 1.0)) in (int, float), "family", key, "a number",
                        fam.get(key))
    else:
        raise ConfigError(f"family: unknown kind {kind!r}")

    proj = doc["projection"]
    if proj.get("kind") == "identity":
        _require_keys(proj, "projection", {"kind"})
    elif proj.get("kind") == "box":
        _require_keys(proj, "projection", {"kind", "lower", "upper"})
    else:
        raise ConfigError(f"projection: unknown kind {proj.get('kind')!r}")

    rep = doc["replication"]
    _require_keys(rep, "replication", {"replicas", "n_final", "master_seed"},
                  {"checkpoints", "divergence_radius"})
    _check_int("replication", "replicas", rep["replicas"], 2)
    _check_int("replication", "n_final", rep["n_final"], 1)
    _check_int("replication", "master_seed", rep["master_seed"], 0)
    cps = rep.get("checkpoints")
    _check_type(cps is None or isinstance(cps, list), "replication", "checkpoints",
                "null or a list", cps)
    for c in cps or ():
        _check_int("replication", "checkpoints entry", c, 1)
    radius = rep.get("divergence_radius")
    _check_type(radius is None or (type(radius) in (int, float) and radius > 0), "replication",
                "divergence_radius", "null or a positive number", radius)
    out = doc["output"]
    _require_keys(out, "output", {"directory"})
    _check_type(isinstance(out["directory"], str), "output", "directory", "a string",
                out["directory"])


def config_from_dict(doc: dict) -> ExperimentConfig:
    parse_config_structure(doc)
    try:
        params = ParameterSet(**doc["params"])  # raises InvalidParameters when rejected
    except OverflowError as exc:  # an integer too large for a float
        raise ConfigError(f"params: {exc}") from exc
    rep = doc["replication"]
    cps = rep.get("checkpoints")
    if cps is None:
        cps = geometric_checkpoints(rep["n_final"])
    try:
        spec = ReplicationSpec(
            replicas=rep["replicas"],
            n_final=rep["n_final"],
            checkpoints=tuple(cps),
            master_seed=rep["master_seed"],
            divergence_radius=(None if rep.get("divergence_radius") is None
                               else float(rep["divergence_radius"])),
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"replication: {exc}") from exc
    cfg = ExperimentConfig(
        params=params,
        family_spec=dict(doc["family"]),
        projection_spec=dict(doc["projection"]),
        replication=spec,
        output_dir=doc["output"]["directory"],
    )
    _check_experiment(cfg)
    return cfg


def _reject(name: str, detail: str):
    raise InvalidParameters((f"{name}: {detail}",))


def _check_experiment(cfg: ExperimentConfig):
    """Checks that need the family and projection, not just one section."""
    p, fam = cfg.params, cfg.family_spec
    if fam["kind"] == "euler_sde" and p.M != int(p.M):
        _reject("integer M for euler_sde", f"M = {p.M:.6g} is not an integer")
    least = least_n(p)
    if cfg.replication.checkpoints[-1] < least:
        _reject(f"checkpoint n >= {least}", "the closed forms need log n > 0")
    n = cfg.replication.n_final
    if n > PLAN_ENTRIES:  # s_n >= 1: bounded before the n-length build below
        _reject("plan entries <= 2^25", f"max(n_final, BLOCK d) s_n >= n_final = {n} fails")
    arr = schedule_arrays(p, n)
    for key, what in (("K_bar", "the budget"), ("b_bar", "the weight sum")):  # s_n, theta_bar_n
        if not np.isfinite(arr[key][-1]):
            _reject(f"finite {key}_n", f"{what} overflows a double by n = {n}")
    if not 1 <= arr["s"][-1] < np.iinfo(np.int64).max:  # an inf level casts to an int64 end
        _reject("finite s_n", f"kappa_s K_bar_n^(1/(2 alpha - beta + 1)) overflows by n = {n}")
    try:  # the closed forms every run writes: cost_table.csv, clt_report.json, predict
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pred = predictions(p, [n for n in cfg.replication.checkpoints if n >= least])
    except OverflowError:
        _reject("finite predictions", "a closed form's constant overflows a double")
    for f in fields(pred):  # every float field; n, s and pre_asymptotic are ints and flags
        value = getattr(pred, f.name)
        if value is None or f.name in ("n", "s", "pre_asymptotic"):
            continue
        bad = pred.n[~np.isfinite(value)]
        if len(bad):
            _reject(f"finite {f.name}", f"the closed form is not a finite double at n = {bad[0]}")
    try:
        family = build_family(cfg)
        projection = build_projection(cfg)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"family or projection: {exc}") from exc
    d = family.d
    entries = max(n, BLOCK * d) * int(arr["s"][-1])  # checked before anything that size
    if entries > PLAN_ENTRIES:
        _reject("plan entries <= 2^25",
                f"max(n_final, BLOCK d) s_n = {entries} fails at n = {n}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # N_k <= K_n / M + 1 and K_n, s_n grow with n, so each of the n iterations costs at
        # most kappa_C (K_n + 1) M^(s_n+1) / (M - 1) at n = n_final
        bound = n * p.kappa_C * (arr["K"][-1] + 1.0) * p.M ** (arr["s"][-1] + 1.0) / (p.M - 1.0)
        # beta <= 1 and K_n grows (phi > 0), so N_1 <= ceil(K_n / M) < 2^53 unless K_n > 2^52;
        # cost_table.csv and the CLT report divide cost_n by a predicted cost: in either rare
        # case the exact plan decides, its counts rejecting N_1 past 2^53 first
        least_cost = min(1.0, pred.predicted_cost.min())
        if arr["K"][-1] > 2.0 ** 52 or not np.isfinite(2.0 * bound / least_cost):
            cost = RunPlan(p, build_cost_model(cfg), n).cost
            if not np.isfinite(cost[-1]):  # a sum of terms >= 0 stays inf once it is
                _reject("finite cost_n", "the cumulative cost overflows a double by n = "
                        f"{np.argmax(~np.isfinite(cost)) + 1}")
            bad = pred.n[~np.isfinite(cost[pred.n - 1] / pred.predicted_cost)]
            if len(bad):
                _reject("finite cost ratio", f"cost_n / predicted cost overflows at n = {bad[0]}")
    if fam["kind"] == "synthetic_gaussian":
        if min(np.linalg.matrix_rank(family.H), np.linalg.matrix_rank(family.A)) < d:
            _reject("nonsingular H and noise_factor",
                    "the CLT target H^-1 Gamma H^-T must be positive definite")
        if spectral_abscissa(family.H) >= 0:
            _reject("contracting H", f"spectral abscissa {spectral_abscissa(family.H):.6g} < 0 "
                    "fails; the CLT needs every eigenvalue of H in Re < 0")
    if isinstance(projection, BoxProjection):
        for key in ("lower", "upper"):
            _check_type(getattr(projection, key).shape == (d,), "projection", key,
                        f"a list of {d} numbers", cfg.projection_spec[key])


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(doc)


def build_family(cfg: ExperimentConfig) -> LevelFamily:
    fam = cfg.family_spec
    if fam["kind"] == "synthetic_gaussian":
        return SyntheticGaussianFamily(
            theta_star=np.asarray(fam["theta_star"], dtype=float),
            H=np.asarray(fam["H"], dtype=float),
            mu=np.asarray(fam["mu"], dtype=float),
            noise_factor=np.asarray(fam["noise_factor"], dtype=float),
            alpha=cfg.params.alpha,
            beta=cfg.params.beta,
            M=cfg.params.M,
        )
    return EulerSdeFamily(
        drift=float(fam["drift"]),
        diffusion=float(fam["diffusion"]),
        target=float(fam.get("target", 1.0)),
        horizon=float(fam.get("horizon", 1.0)),
        M=cfg.params.M,
    )


def build_cost_model(cfg: ExperimentConfig) -> GeometricCostModel:
    return GeometricCostModel(kappa_C=cfg.params.kappa_C, M=cfg.params.M)


def build_projection(cfg: ExperimentConfig):
    proj = cfg.projection_spec
    if proj["kind"] == "identity":
        return IdentityProjection()
    return BoxProjection(proj["lower"], proj["upper"])
