import contextlib
import copy
import hashlib
import io
import json
import os
import tempfile
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.special
from hypothesis import HealthCheck, given, settings, strategies as st

from mlsa import (ConfigError, InvalidParameters, build_cost_model, build_family,
                  build_projection, config_from_dict, cost_curve, default_theta0, run_replicas)
from mlsa.asymptotics import predictions
from mlsa.cli import main

from conftest import csv_writer_text, record_rows

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")

BASE = {
    "params": {"regime": "slow", "alpha": 1.0, "beta": 0.5, "M": 2.0, "phi": 2.0,
               "rho": 2.0, "psi": 0.5, "kappa_K": 1.0, "kappa_s": 8.0, "kappa_C": 1.0,
               "lam": 1.0},
    "family": {"kind": "synthetic_gaussian", "theta_star": [0.0, 0.0],
               "H": [[-1.0, 0.0], [0.0, -2.0]], "mu": [1.0, -1.0],
               "noise_factor": [[1.0, 0.0], [0.3, 0.9539392014169456]]},
    "projection": {"kind": "identity"},
    "replication": {"replicas": 4, "n_final": 60, "checkpoints": [30, 60],
                    "master_seed": 77, "divergence_radius": None},
    "output": {"directory": "out"},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def variant(**edits):
    doc = copy.deepcopy(BASE)
    for dotted, value in edits.items():
        section, key = dotted.split(".")
        doc[section][key] = value
    return doc


def test_round_trip_is_lossless():
    cfg = config_from_dict(copy.deepcopy(BASE))
    again = config_from_dict(cfg.to_dict())
    assert cfg.canonical_json() == again.canonical_json()
    assert cfg.config_hash() == again.config_hash()


def test_unknown_keys_rejected():
    doc = copy.deepcopy(BASE)
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict(variant(**{"family.bogus": 1}))
    with pytest.raises(ConfigError, match="params"):
        config_from_dict(variant(**{"params.surprise": 1.0}))
    # keys that no code reads: rejected, never silently ignored
    for doc in (variant(**{"output.plots": True}), variant(**{"params.L": 0.5}),
                variant(**{"family.quadratic": [[0.0, 0.0], [0.0, 0.0]]}),
                variant(**{"family.modulated": False}), euler_doc(payoff="shortfall")):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(doc)


def test_validate_accept_exit_zero(tmp_path, capsys):
    rc = main(["validate", write_config(tmp_path, BASE)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "accepted"


def euler_doc(**family):
    doc = copy.deepcopy(BASE)
    doc["params"].update({"regime": "critical", "beta": 1.0})
    doc["family"] = {"kind": "euler_sde", "drift": 0.05, "diffusion": 0.2,
                     "target": 1.0, "horizon": 1.0, **family}
    doc["projection"] = {"kind": "box", "lower": [0.0], "upper": [5.0]}
    doc["replication"].update({"replicas": 3, "n_final": 40, "checkpoints": [20, 40],
                               "divergence_radius": 20.0})
    return doc


def test_validate_reject_names_inequality(tmp_path, capsys):
    rc = main(["validate", write_config(tmp_path, variant(**{"params.beta": 1.2}))])
    assert rc == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "rejected"
    assert "  violation beta < 1: 1.2 < 1 fails" in out.splitlines()
    # domain errors outside the regime inequalities: same exit code, and `run`
    # refuses them with one line on stderr before writing anything
    euler_m = euler_doc()
    euler_m["params"]["M"] = 2.5
    cases = [(euler_m, "integer M for euler_sde"),
             (variant(**{"params.regime": "critical", "params.beta": 1.0,
                         "replication.checkpoints": [1]}), "checkpoint n >= 2"),
             (variant(**{"family.noise_factor": [[1.0, 0.0], [1.0, 0.0]]}),
              "nonsingular H and noise_factor"),
             # the CLT needs a contracting H: a 1-d one, and a 2-d one with a negative
             # diagonal whose eigenvalues are -1 +- sqrt(3), one of them positive
             (variant(**{"family.theta_star": [0.0], "family.H": [[0.5]], "family.mu": [1.0],
                         "family.noise_factor": [[1.0]]}), "contracting H"),
             (variant(**{"family.H": [[-1.0, 3.0], [1.0, -1.0]]}), "contracting H"),
             # a regime string that names no regime; a regime that is no string exits 2
             (variant(**{"params.regime": "medium"}), "regime: 'medium' not in")]
    for i, (doc, name) in enumerate(cases):
        path = write_config(tmp_path, doc, name=f"domain{i}.json")
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "rejected" and len(out) == 2 and out[1].startswith(f"  violation {name}")
        assert out[1].count(name) == 1  # the violation is named once
        out_dir = str(tmp_path / f"domain{i}")
        assert main(["run", path, "--out", out_dir]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and name in err
        assert not os.path.exists(out_dir)


def test_validate_malformed_file_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"params": [unclosed')
    rc = main(["validate", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "parse error" in err and ":1:" in err  # line diagnostics


@pytest.mark.filterwarnings("error::RuntimeWarning")  # Euler constants reject without a warning
def test_replicas_rejected_at_validation(tmp_path, capsys):
    doc = variant(**{"replication.replicas": 0})
    rc = main(["validate", write_config(tmp_path, doc)])
    assert rc == 2
    assert "replicas" in capsys.readouterr().err
    # structural errors: exit 2 from validate and from run, nothing written
    cases = [(variant(**{"replication.checkpoints": []}), "checkpoint"),
             (variant(**{"replication.checkpoints": [30, 61]}), "checkpoints"),
             (variant(**{"replication.n_final": 60.0}), "n_final"),
             (variant(**{"projection.kind": "box", "projection.lower": [-1.0, -1.0, -1.0],
                         "projection.upper": [1.0, 1.0, 1.0]}), "lower"),
             (variant(**{"projection.kind": "box", "projection.lower": [-1.0],
                         "projection.upper": [1.0]}), "lower"),
             (variant(**{"family.mu": [1.0, -1.0, 0.0]}), "mu"),
             (variant(**{"params.M": "2.0"}), "M"),
             (variant(**{"params.regime": 5}), "regime must be a string"),
             (variant(**{"params.regime": ["slow"]}), "regime must be a string"),
             (euler_doc(payoff="call"), "payoff"),
             (variant(**{"family.modulated": False}), "unknown keys in 'family': ['modulated']"),
             # Euler and box constants that no run can use
             (euler_doc(horizon=-1), "horizon"),
             (euler_doc(drift=float("nan")), "drift"),
             (euler_doc(drift=1e308), "exp(drift*horizon)"),
             (dict(euler_doc(), projection={"kind": "box", "lower": [float("nan")],
                                            "upper": [5.0]}), "lower")]
    for i, (doc, word) in enumerate(cases):
        path = write_config(tmp_path, doc, name=f"struct{i}.json")
        assert main(["validate", path]) == 2
        assert word in capsys.readouterr().err
        out_dir = str(tmp_path / f"struct{i}")
        assert main(["run", path, "--out", out_dir]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and word in err
        assert not os.path.exists(out_dir)
    # --seed obeys the rule load_config applies to master_seed; --workers is at least 1
    for i, (flag, value) in enumerate((("--seed", "-1"), ("--workers", "0"),
                                       ("--workers", "-3"))):
        out_dir = str(tmp_path / f"flag{i}")
        assert main(["run", write_config(tmp_path, BASE), flag, value, "--out", out_dir]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("parse error:") and flag in err
        assert not os.path.exists(out_dir)
    # an output path that names an existing regular file, from --out or from the config
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for argv in (["run", write_config(tmp_path, BASE), "--out", str(taken)],
                 ["run", write_config(tmp_path, variant(**{"output.directory": str(taken)}),
                                      name="taken.json")],
                 ["predict", write_config(tmp_path, BASE), "--out", str(taken)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("parse error:")
        assert captured.out == "" and taken.read_text() == "keep"


def test_predict_prints_table(tmp_path, capsys):
    rc = main(["predict", write_config(tmp_path, BASE)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n,s,xi,eps_bias,eps_diff,predicted_cost")
    assert len(lines) == 3  # header + both checkpoints


def run_dir_of(tmp_path, doc, name, *extra):
    cfg_path = write_config(tmp_path, doc, name=f"{name}.json")
    out_dir = str(tmp_path / name)
    rc = main(["run", cfg_path, "--out", out_dir, *extra])
    assert rc == 0
    return out_dir


def test_run_writes_manifest_with_four_artifacts(tmp_path):
    out_dir = run_dir_of(tmp_path, BASE, "r1")
    manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
    assert manifest["complete"]
    assert sorted(manifest["files"]) == ["clt_report.json", "cost_table.csv",
                                         "l2_monitor.json", "records.csv"]
    for name, digest in manifest["files"].items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_rerun_and_worker_count_reproduce_hashes(tmp_path):
    a = run_dir_of(tmp_path, BASE, "a")
    b = run_dir_of(tmp_path, BASE, "b")
    c = run_dir_of(tmp_path, BASE, "c", "--workers", "2")
    ma = json.loads(open(os.path.join(a, "manifest.json")).read())["files"]
    mb = json.loads(open(os.path.join(b, "manifest.json")).read())["files"]
    mc = json.loads(open(os.path.join(c, "manifest.json")).read())["files"]
    assert ma == mb == mc


def test_seed_flag_changes_artifacts(tmp_path):
    a = run_dir_of(tmp_path, BASE, "s1")
    b = run_dir_of(tmp_path, BASE, "s2", "--seed", "123456")
    ma = json.loads(open(os.path.join(a, "manifest.json")).read())["files"]
    mb = json.loads(open(os.path.join(b, "manifest.json")).read())["files"]
    assert ma["records.csv"] != mb["records.csv"]


def test_plot_outputs_svg_with_guide(tmp_path, capsys):
    out_dir = run_dir_of(tmp_path, BASE, "p1")
    rc = main(["plot", out_dir])
    assert rc == 0
    svg = open(os.path.join(out_dir, "error_vs_cost.svg")).read()
    assert svg.startswith("<svg")
    assert "stroke-dasharray" in svg  # the reference-slope guide
    assert "slope -0.4" in svg
    qq = open(os.path.join(out_dir, "qq_data.csv")).read()
    assert qq.splitlines()[1] == "component,theoretical_quantile,standardized_value"
    # checkpoints that stop short of n_final: the QQ data use the largest one
    doc = variant(**{"replication.replicas": 3, "replication.n_final": 40,
                     "replication.checkpoints": [10, 20]})
    out_dir = run_dir_of(tmp_path, doc, "p_short")
    assert main(["plot", out_dir]) == 0
    with open(os.path.join(out_dir, "qq_data.csv")) as fh:
        assert len(fh.read().splitlines()) == 2 + 3 * 2  # hash, header, 3 replicas x 2 components


def test_csv_artifacts_match_csv_writer(tmp_path):
    # every CSV artifact of run, plot and predict, byte for byte what csv.writer writes
    # of the record and tables computed again in this process
    docs = {"slow": variant(**{"replication.checkpoints": list(range(1, 61))}),
            "critical": shipped("critical_default.json", replicas=3, n_final=40,
                                checkpoints=list(range(1, 41)))}
    for name, doc in docs.items():
        path, out_dir = write_config(tmp_path, doc, name=f"{name}.json"), str(tmp_path / name)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", path, "--out", out_dir, "--workers", "1"]) == 0
            assert main(["plot", out_dir]) == main(["predict", path, "--out", out_dir]) == 0
        cfg = config_from_dict(doc)
        spec, params, family = cfg.replication, cfg.params, build_family(cfg)
        record = run_replicas(spec, params, family, build_cost_model(cfg), build_projection(cfg),
                              default_theta0(family))
        assert not record.aborted.any()
        costs = ["n", "mean_cost", "predicted_cost", "ratio"]
        qq = [["component", "theoretical_quantile", "standardized_value"]]
        q = scipy.special.ndtri((np.arange(1, spec.replicas + 1) - 0.5) / spec.replicas)
        for j in range(family.d):  # the largest checkpoint's averages, as mlsa plot reads them
            col = np.sort(record.theta_bar[-1, :, j])
            qq += ([j, x, y] for x, y in zip(q, (col - col.mean()) / col.std(ddof=1)))
        a = predictions(params, [n for n in spec.checkpoints if n >= 2 or name == "slow"])
        cols = [getattr(a, f.name) for f in fields(a)]
        cols[-1] = a.pre_asymptotic.astype(int)
        tag = f"# config_hash={cfg.config_hash()}"
        expected = {
            "records.csv": (f"{tag} master_seed={spec.master_seed}", record_rows(record)),
            "cost_table.csv": (f"{tag} master_seed={spec.master_seed}", [costs] + [
                [r[k] for k in costs] for r in cost_curve(record, params)]),
            "qq_data.csv": (tag, qq),
            "predictions.csv": (tag, [[f.name for f in fields(a)]] + list(zip(*(
                [None] * len(a.n) if c is None else c.tolist() for c in cols)))),
        }
        for file, (first, rows) in expected.items():
            with open(os.path.join(out_dir, file), encoding="utf-8", newline="") as fh:
                assert fh.read() == first + "\n" + csv_writer_text(rows), (name, file)


def test_counts_past_2_53_rejected(tmp_path, capsys):
    # slow_default's parameters with phi = rho: at 5.2 the largest N_1 passes 2^53 at
    # n = 2504 only, just before s_n steps up at n_final = 2505; at 10 it is N_1 at
    # n_final = 4000; at 100 the budget K_bar_n itself overflows
    cases = [(5.2, 2505, "N_1 <= 2^53: 9.58943e+15 fails at n = 2504"),
             (10.0, 4000, "N_1 <= 2^53: 4.97803e+32 fails at n = 4000"),
             (100.0, 4000, "finite K_bar_n: the budget overflows a double by n = 4000")]
    for i, (phi, n_final, message) in enumerate(cases):
        doc = shipped("slow_default.json", replicas=4, n_final=n_final)
        doc["params"].update(phi=phi, rho=phi)
        path, out_dir = write_config(tmp_path, doc, name=f"big{i}.json"), str(tmp_path / f"big{i}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing schedule's
            assert main(["validate", path]) == 1
            assert message in capsys.readouterr().out
            assert main(["run", path, "--out", out_dir]) == 1
        assert message in capsys.readouterr().err
        assert not os.path.exists(out_dir)
    doc = shipped("slow_default.json", replicas=4, n_final=2504)
    doc["params"].update(phi=5.1, rho=5.1)  # the largest N_1 stays below 2^53
    assert main(["validate", write_config(tmp_path, doc)]) == 0


def test_overflowing_schedule_rejected_without_warnings(tmp_path, capsys):
    # phi = rho = 100: the budget, the weights and s_n overflow while the schedule builds
    doc = shipped("slow_default.json", replicas=4)
    doc["params"].update(phi=100.0, rho=100.0)
    path, out_dir = write_config(tmp_path, doc), str(tmp_path / "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", path]) == 1
        assert main(["run", path, "--out", out_dir]) == 1
    captured = capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err + captured.out
    assert "finite K_bar_n" in captured.err and not os.path.exists(out_dir)


def test_overflowing_predictions_rejected_without_warnings(tmp_path, capsys):
    # kappa_C = 1e305 in either regime: the predicted cost overflows, which left
    # cost_table.csv rows of inf,inf,nan; slow M = 1e300: a float power in psi raises
    # OverflowError, which ended run (after records.csv) and predict in a traceback;
    # slow kappa_s = 1e-300, kappa_K = 1e-30: eps_bias alone overflows (a float
    # product, no OverflowError) while eps_diff and the cost stay finite
    cases = [("slow_default.json", {"kappa_C": 1e305}, "finite predicted_cost"),
             ("critical_default.json", {"kappa_C": 1e305}, "finite predicted_cost"),
             ("slow_default.json", {"M": 1e300}, "finite predictions"),
             ("slow_default.json", {"kappa_s": 1e-300, "kappa_K": 1e-30}, "finite eps_bias:")]
    for i, (name, params, message) in enumerate(cases):
        doc = shipped(name, replicas=4, n_final=60, checkpoints=None)
        doc["params"].update(params)
        path, out_dir = write_config(tmp_path, doc, name=f"c{i}.json"), str(tmp_path / f"out{i}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["validate", path]) == 1
            assert message in capsys.readouterr().out
            for command in ("run", "predict"):
                assert main([command, path, "--out", out_dir]) == 1
                assert message in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], name
        assert not os.path.exists(out_dir)


def test_weight_sum_overflow_rejected(tmp_path, capsys):
    # rho = 200: b_k = k^200 overflows past k = 34 while the budget stays finite
    doc = shipped("slow_default.json", replicas=20, n_final=400)
    doc["params"].update(rho=200.0)
    path, out_dir = write_config(tmp_path, doc), str(tmp_path / "out")
    message = "finite b_bar_n: the weight sum overflows a double by n = 400"
    assert main(["validate", path]) == 1
    assert message in capsys.readouterr().out
    assert main(["run", path, "--out", out_dir]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_plot_empty_dir_exit_one(tmp_path, capsys):
    rc = main(["plot", str(tmp_path / "nothing")])
    assert rc == 1
    assert "missing artifacts" in capsys.readouterr().err


def test_plot_refuses_mixed_hashes(tmp_path, capsys):
    out_dir = run_dir_of(tmp_path, BASE, "p2")
    path = os.path.join(out_dir, "cost_table.csv")
    lines = open(path).read().splitlines()
    lines[0] = "# config_hash=" + "0" * 64
    open(path, "w").write("\n".join(lines) + "\n")
    rc = main(["plot", out_dir])
    assert rc == 1
    assert "does not match its manifest sha256" in capsys.readouterr().err
    # damaged run directories: one line on stderr and exit 1, never a traceback
    doc = variant(**{"replication.replicas": 3, "replication.n_final": 40,
                     "replication.checkpoints": [10, 20, 40]})

    def invalid_config(text):
        manifest = json.loads(text)
        manifest["config"]["params"]["beta"] = 1.2  # no longer a slow-regime parameter set
        return json.dumps(manifest)

    def no_cost_digest(text):
        manifest = json.loads(text)
        del manifest["files"]["cost_table.csv"]
        return json.dumps(manifest)

    damage = [("records.csv", lambda text: text.split("\n", 1)[1]),  # no hash line
              ("cost_table.csv", lambda text: ""),
              ("manifest.json", lambda text: text[:-1]),  # truncated JSON
              ("manifest.json", invalid_config),
              ("manifest.json", no_cost_digest),
              ("records.csv", lambda text: text[:text.rindex(",")]),  # truncated last row
              ("records.csv", lambda text: "".join(text.splitlines(True)[:2])),  # no rows
              ("records.csv", lambda text: text[:-4] + "\n")]  # last cost cut by three digits
    for i, (name, edit) in enumerate(damage):
        out_dir = run_dir_of(tmp_path, doc, f"damaged{i}")
        path = os.path.join(out_dir, name)
        text = open(path).read()
        open(path, "w").write(edit(text))
        assert main(["plot", out_dir]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "damaged run directory" in err
        if edit is no_cost_digest:
            assert "manifest.json has no sha256 for cost_table.csv" in err


def test_plot_refuses_incomplete_run(tmp_path, capsys):
    # a failed rerun in the directory of a completed run leaves complete: false
    # beside the earlier run's cost_table.csv and clt_report.json
    doc = variant(**{"replication.replicas": 3, "replication.n_final": 40,
                     "replication.checkpoints": [10, 20, 40]})
    out_dir = run_dir_of(tmp_path, doc, "rerun")
    doc["replication"]["divergence_radius"] = 1e-9  # screens out every replica
    assert main(["run", write_config(tmp_path, doc, "fail.json"), "--out", out_dir]) == 1
    capsys.readouterr()
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        assert json.load(fh)["complete"] is False
    assert os.path.exists(os.path.join(out_dir, "cost_table.csv"))
    assert main(["plot", out_dir]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("incomplete run:")


def test_partial_failure_marks_manifest_incomplete(tmp_path, monkeypatch):
    import mlsa.harness

    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(mlsa.harness, "cost_curve", boom)
    cfg_path = write_config(tmp_path, BASE, name="fail.json")
    out_dir = str(tmp_path / "fail")
    with pytest.raises(RuntimeError):
        main(["run", cfg_path, "--out", out_dir])
    manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
    assert manifest["complete"] is False
    # artifacts finished before the failure are listed, the rest are absent
    assert sorted(manifest["files"]) == ["clt_report.json", "records.csv"]


def test_shipped_configs_are_valid(capsys):
    names = sorted(n for n in os.listdir(CONFIGS) if n.endswith(".json"))
    assert len(names) >= 3
    for name in names:
        rc = main(["validate", os.path.join(CONFIGS, name)])
        assert rc == 0, name
    capsys.readouterr()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # overflows are screened out quietly
def test_too_few_surviving_replicas_fail_cleanly(tmp_path, capsys):
    # H = -5000 I contracts, but the steps overshoot (|1 - 5000 gamma_n| > 1 while
    # gamma_n > 4e-4): every replica leaves the screening ball, and over a longer
    # horizon every replica overflows and aborts
    doc = variant(**{"family.H": [[-5000.0, 0.0], [0.0, -5000.0]], "params.psi": 0.3})
    for n_final in (60, 1500):
        doc["replication"].update({"n_final": n_final, "checkpoints": [n_final // 2, n_final]})
        path = write_config(tmp_path, doc, name=f"diverge{n_final}.json")
        out_dir = str(tmp_path / f"diverge{n_final}")
        rc = main(["run", path, "--out", out_dir, "--workers", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "replicas" in err
        manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
        assert manifest["complete"] is False
        assert sorted(manifest["files"]) == ["records.csv"]
        with open(os.path.join(out_dir, "records.csv")) as fh:
            last = {line.split(",")[1] for line in fh.readlines()[2:]}
        assert (str(n_final) in last) == (n_final == 60)  # the long run aborts every replica


def shipped(name, **replication):
    with open(os.path.join(CONFIGS, name)) as fh:
        doc = json.load(fh)
    doc["replication"].update(replication)
    return doc


SMALL = dict(replicas=3, n_final=40, checkpoints=None)
FUZZ_BASES = [shipped(name, **SMALL) for name in
              ("slow_default.json", "critical_default.json", "euler_gbm.json")]
# values of the wrong type for any field; numbers only where a list or string is due,
# so no example asks for unbounded work
WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                  st.lists(st.floats(-3, 3), max_size=3))
SHORT_LISTS = st.lists(st.floats(-3, 3) | st.just(float("nan")), max_size=3)
SPECIAL = {  # well-typed values the loader must still judge
    ("params", "M"): st.sampled_from([2, 2.5, 3.0, 1.5, 4]),
    ("params", "beta"): st.sampled_from([1.0, 0.5, float("nan"), -1.0]),
    ("params", "kappa_C"): st.sampled_from([1.0, 1e305]),
    ("family", "payoff"): st.sampled_from(["shortfall", "terminal", "call"]),
    ("family", "theta_star"): SHORT_LISTS,
    ("family", "mu"): SHORT_LISTS,
    ("replication", "checkpoints"): st.lists(st.integers(-1, 45), max_size=4),
    ("replication", "divergence_radius"): st.sampled_from([5.0, 1e-3, 0.0, -1.0]),
    ("projection", "lower"): SHORT_LISTS,
    ("projection", "upper"): SHORT_LISTS,
}


@st.composite
def mutations(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    if draw(st.booleans()):
        d = len(doc["family"].get("theta_star", [0.0]))
        doc["projection"] = {"kind": "box", "lower": [-2.0] * d, "upper": [2.0] * d}
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["special", "special", "wrong type", "delete", "section"]))
        if how == "section":  # a whole section of the wrong type, or an extra one
            doc[draw(st.sampled_from(sorted(doc) + ["extra"]))] = draw(WRONG)
            continue
        if how == "special":
            section, key = draw(st.sampled_from(sorted(SPECIAL)))
        else:
            section = draw(st.sampled_from(sorted(doc)))
            keys = sorted(doc[section]) if isinstance(doc[section], dict) else []
            key = draw(st.sampled_from(keys + ["extra"]))
        if not isinstance(doc[section], dict):
            continue
        if how == "delete":
            doc[section].pop(key, None)
        else:
            doc[section][key] = draw(SPECIAL[section, key] if how == "special" else WRONG)
    return doc


@given(mutations())
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_configs_reject_or_complete(doc):
    """Every document exits 1 or 2 with a message, or completes with finite artifacts;
    never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out_dir = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["run", path, "--out", out_dir, "--workers", "1"])
        if rc == 0:
            with open(os.path.join(out_dir, "manifest.json")) as fh:
                manifest = json.load(fh)
            assert manifest["complete"] is True
            for name in manifest["files"]:
                with open(os.path.join(out_dir, name)) as fh:
                    text = fh.read()
                if name.endswith(".csv"):  # no inf or nan field
                    values = {v for line in text.splitlines() if not line.startswith("#")
                              for v in line.split(",")}
                    assert not values & {"inf", "-inf", "nan"}, name
                else:  # no Infinity, -Infinity or NaN token
                    json.loads(text, parse_constant=lambda token: pytest.fail(f"{name}: {token}"))
        else:
            assert rc in (1, 2)
            assert err.getvalue().strip()


def test_run_euler_family_without_ground_truth(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["params"].update({"regime": "critical", "beta": 1.0})
    doc["family"] = {"kind": "euler_sde", "drift": 0.05, "diffusion": 0.2,
                     "target": 1.0, "horizon": 1.0}
    doc["replication"].update({"replicas": 3, "n_final": 40, "checkpoints": [20, 40],
                               "divergence_radius": 20.0})
    out_dir = run_dir_of(tmp_path, doc, "euler")
    report = json.loads(open(os.path.join(out_dir, "clt_report.json")).read())
    assert "skipped" in report  # no (mu, Gamma): the CLT report does not apply
    assert report["master_seed"] == doc["replication"]["master_seed"]
    assert main(["plot", out_dir]) == 0


def test_critical_guide_plot(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["params"].update({"regime": "critical", "beta": 1.0})
    doc["family"] = {"kind": "synthetic_gaussian", "theta_star": [0.0], "H": [[-1.0]],
                     "mu": [0.05], "noise_factor": [[1.0]]}
    out_dir = run_dir_of(tmp_path, doc, "crit")
    rc = main(["plot", out_dir])
    assert rc == 0
    svg = open(os.path.join(out_dir, "error_vs_cost.svg")).read()
    assert "log(x)/sqrt(x)" in svg
