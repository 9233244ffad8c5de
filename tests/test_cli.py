import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelgames import cli, kernels, montecarlo
from kernelgames.grid import uniform_grid


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


_GRID = {"kind": "uniform", "n": 6}
_STATE = {"mean": 0.0, "var": 1.0}
_CONST = {"kind": "constant", "r": 0.5}


def _spectral_cfg(tmp_path, **kernel):
    return _write(tmp_path, "cfg.json",
                  {"grid": {"kind": "uniform", "n": 12},
                   "kernel": kernel or {"kind": "constant", "r": 0.5}})


# -- exit-code contract ------------------------------------------------------

def test_missing_config_is_input_error(capsys):
    assert cli.main(["spectral"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_json_is_input_error_without_artifacts(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out.json"
    assert cli.main(["spectral", "--config", str(bad),
                     "--out", str(out)]) == 1
    assert not out.exists()


def test_unknown_config_keys_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json",
                 {"grid": {"kind": "uniform", "n": 4},
                  "kernel": {"kind": "constant", "r": 0.5},
                  "surprise": True})
    assert cli.main(["spectral", "--config", cfg]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_unknown_flag_is_input_error(capsys):
    assert cli.main(["design", "--mode", "optimum", "--bogus", "1"]) == 1


# -- spectral ----------------------------------------------------------------

def test_spectral_report_output(tmp_path):
    out = tmp_path / "report.json"
    cfg = _spectral_cfg(tmp_path)
    assert cli.main(["spectral", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    rep = payload["report"]
    assert rep["r1_holds"] and rep["r2_holds"]
    assert rep["numerical_range_sup"] == pytest.approx(0.5, abs=1e-12)
    assert max(rep["eigenvalues_re"]) == pytest.approx(0.5, abs=1e-12)


_ROUND_TRIP = [
    ("spectral", "kernel", {"kind": "constant", "r": 0.5}),
    ("spectral", "kernel", {"kind": "unidirectional", "r": 1}),
    ("spectral", "kernel", {"kind": "separable", "r": 2, "q_expr": "sin(t)"}),
    ("spectral", "kernel", {"kind": "graph", "edge_list": [[0, 1]], "rbar": 0.3}),
    ("spectral", "kernel", {"kind": "file", "path": "k.json"}),
    ("spectral", "kernel", {"kind": "file", "path": "k.csv"}),
    ("equilibrium", "info", {"kind": "none"}),
    ("equilibrium", "info", {"kind": "full"}),
    ("equilibrium", "info", {"kind": "public"}),
    ("equilibrium", "info", {"kind": "private_iid", "noise_var": 1}),
    ("equilibrium", "info", {"kind": "targeted", "members": [0, 2]}),
    ("moments", "moment", {"kind": "targeted", "m": 0.5}),
    ("moments", "moment", {"kind": "targeted", "members": [1, 3]}),
    ("moments", "moment", {"kind": "symmetric", "m": 0.5}),
    ("moments", "moment", {"kind": "explicit", "xi": [[0.0] * 6] * 6,
                           "zeta": [0.0] * 6}),
]


def test_spectral_resolved_config_round_trips(tmp_path, monkeypatch):
    # for every command and kind: the emitted config lists every default and
    # re-parses to a byte-identical artifact
    monkeypatch.chdir(tmp_path)
    K = kernels.constant_kernel(uniform_grid(6), 0.25)
    K.to_json("k.json")
    (tmp_path / "k.csv").write_text("\n".join(",".join(map(str, row))
                                              for row in K.values))
    for command, section, sub in _ROUND_TRIP:
        cfg = {"spectral": {"grid": _GRID, "kernel": sub},
               "equilibrium": {"grid": _GRID, "payoff": _CONST,
                               "state": _STATE, "info": sub},
               "moments": {"grid": _GRID, "r": 0.5,
                           "moment": sub}}[command]
        # a symmetric moment off the grid-matched diagonal fails obedience
        code = cli.main([command, "--config", _write(tmp_path, "a.json", cfg),
                         "--out", "a.out"])
        assert code in (0, 2), sub
        resolved = json.loads((tmp_path / "a.out").read_text())["config"]
        keys, _ = cli._SCHEMA[section][sub["kind"]]
        for key, (_, default) in keys.items():
            assert default is None or key in resolved[section], (sub, key)
        again = {key: resolved[key] for key in cli._SCHEMA[command][None][0]}
        assert cli.main([command, "--config", _write(tmp_path, "b.json", again),
                         "--out", "b.out"]) == code, sub
        assert ((tmp_path / "a.out").read_bytes()
                == (tmp_path / "b.out").read_bytes()), sub


def test_kernel_section_kinds():
    g = uniform_grid(6)
    K, _ = cli._parse("kernel", {"kind": "constant", "r": 0.25}, g)
    assert np.allclose(K.values, 0.25)
    K, _ = cli._parse("kernel", {"kind": "separable", "r": 2.0,
                                 "q_expr": "sin(t)"}, g)
    assert K.values[1, 2] == pytest.approx(
        2.0 * np.sin(g.coords[1]) * np.sin(g.coords[2]))
    with pytest.raises(ValueError):
        cli._parse("kernel", {"kind": "constant", "r": 0.25, "bogus": 1}, g)
    with pytest.raises(ValueError):
        cli._parse("kernel", {"kind": "mystery"}, g)


# -- equilibrium and moments -------------------------------------------------

def test_equilibrium_solve_and_verify(tmp_path):
    cfg = _write(tmp_path, "eq.json", {
        "grid": {"kind": "uniform", "n": 20},
        "payoff": {"kind": "constant", "r": 0.5},
        "state": {"mean": 1.0, "var": 1.0},
        "info": {"kind": "full"},
    })
    out = tmp_path / "eq_out.json"
    assert cli.main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["moment_check_passed"]
    # each restriction is judged relative to its scale: the mean b = 2 and
    # the action variance xi = 4 under full information
    assert payload["mean_tol"] == pytest.approx(3e-8)
    assert payload["obedience_tol"] == pytest.approx(5e-8)
    assert not any("tol" in key for key in payload["config"])
    assert payload["loadings"][0][0] == pytest.approx(2.0, abs=1e-10)
    # the moment's xi = 4 and zeta = 2 at every node
    assert np.max(np.abs(np.array(payload["action_cov"]) - 4.0)) <= 1e-10
    assert np.max(np.abs(np.array(payload["action_state_cov"]) - 2.0)) <= 1e-10
    assert np.shape(payload["action_cov"]) == (20, 20)
    assert np.shape(payload["action_state_cov"]) == (20,)


# correct equilibria whose residuals are rounding at the scale of the state;
# an absolute 1e-8 failed both
@pytest.mark.parametrize("state, info", [
    pytest.param({"mean": 0.0, "var": 1e6}, {"kind": "full"}, id="var-1e6-full"),
    pytest.param({"mean": 1e6, "var": 1.0}, {"kind": "none"}, id="mean-1e6-none"),
])
def test_equilibrium_verdict_is_scale_relative(tmp_path, capsys, state, info):
    cfg = _write(tmp_path, "eq.json", {
        "grid": {"kind": "uniform", "n": 400},
        "payoff": {"kind": "constant", "r": 0.9},
        "state": state, "info": info})
    assert cli.main(["equilibrium", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["moment_check_passed"]
    assert payload["mean_residual"] <= payload["mean_tol"]
    assert payload["obedience_residual"] <= payload["obedience_tol"]


def test_moments_feasible_targeted(tmp_path, capsys):
    cfg = _write(tmp_path, "m.json", {
        "grid": {"kind": "uniform", "n": 16},
        "r": 0.5,
        "moment": {"kind": "targeted", "m": 0.5},
    })
    assert cli.main(["moments", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] and payload["positivity_ok"]
    # the slacks are in the units of xi, whose largest entry is 16/9
    assert payload["bounds"]["tol"] == pytest.approx(1e-9 * (1 + 16 / 9))


def test_moments_infeasible_explicit_fails_verification(tmp_path, capsys):
    n = 4
    cfg = _write(tmp_path, "m.json", {
        "grid": {"kind": "uniform", "n": n},
        "r": 0.0,
        "moment": {"kind": "explicit",
                   "xi": [[0.0] * n for _ in range(n)],
                   "zeta": [0.0] * n,
                   "state_var": 1.0},
    })
    # zero moment passes; now an obedience-violating diagonal must exit 2
    assert cli.main(["moments", "--config", cfg]) == 0
    capsys.readouterr()
    xi = [[0.0] * n for _ in range(n)]
    for i in range(n):
        xi[i][i] = 1.0
    cfg = _write(tmp_path, "m2.json", {
        "grid": {"kind": "uniform", "n": n},
        "r": 0.0,
        "moment": {"kind": "explicit", "xi": xi, "zeta": [0.0] * n,
                   "state_var": 1.0},
    })
    assert cli.main(["moments", "--config", cfg]) == 2


def test_moments_near_obedient_explicit_fails_verification(tmp_path, capsys):
    # PSD, but its obedience residual 8.75e-7 is above the fixed 2e-8: one
    # verdict, exit 2 with no bounds (a caller's --tol once passed it here
    # and then failed inside the bounds check)
    cfg = _write(tmp_path, "m.json", {
        "grid": {"kind": "uniform", "n": 2}, "r": 0.0,
        "moment": {"kind": "explicit", "xi": [[1.0, 1.0], [1.0, 1.0]],
                   "zeta": [1.0 - 8.75e-7] * 2}})
    assert cli.main(["moments", "--config", cfg]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["positivity_ok"] and not payload["passed"]
    assert payload["obedience_residual"] == pytest.approx(8.75e-7, rel=1e-6)
    assert payload["obedience_tol"] == pytest.approx(2e-8)
    assert payload["bounds"] is None
    assert "obedience_tol" not in payload["config"]


# -- design ------------------------------------------------------------------

def test_design_cournot_full_disclosure(capsys):
    assert cli.main(["design", "--mode", "cournot",
                     "--lambda", "0.5", "--gamma", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["full_disclosure"]
    assert payload["m_star"] == 1.0


@pytest.mark.parametrize("lam, gamma", [("0.8", "2.0"), ("0.05", "77"),
                                        ("0.2", "17")])
def test_design_cournot_on_the_boundary(capsys, lam, gamma):
    # gamma = 4/lambda - 3 once ended in a RuntimeError traceback
    assert cli.main(["design", "--mode", "cournot", f"--lambda={lam}",
                     f"--gamma={gamma}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["full_disclosure"] and payload["regime"] == "T3"


def test_moments_negative_state_variance_is_input_error(tmp_path, capsys):
    cfg = _write(tmp_path, "m.json", {
        "grid": _GRID, "r": 0.5,
        "moment": {"kind": "explicit", "xi": _ZERO_XI, "zeta": [0.0] * 6,
                   "state_var": -1.0}})
    assert cli.main(["moments", "--config", cfg]) == 1
    assert "moment: state variance must be non-negative" in capsys.readouterr().err


def test_design_diagram_csv(tmp_path):
    out = tmp_path / "diagram.csv"
    assert cli.main(["design", "--mode", "diagram", "--r", "0.5",
                     "--resolution", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,regime,m_star,v_star"
    assert len(lines) == 26
    regimes = {line.split(",")[2] for line in lines[1:]}
    assert {"T1", "T2", "T3"} <= regimes


def test_design_negative_exponent_flag(capsys):
    # argparse reads "--r -1e-3" as two flags; the "=" form passes the number
    assert cli.main(["design", "--mode", "optimum", "--r=-1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["r"] == -0.001


def test_design_audit_passes(capsys):
    assert cli.main(["design", "--mode", "audit", "--r", "0.5",
                     "--u", "-1", "--v", "1", "--w", "0",
                     "--samples", "12", "--n", "40", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"]


def test_design_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["design", "--mode", "audit", "--r", "0.5", "--u", "-1",
            "--v", "1", "--w", "0", "--samples", "8", "--n", "30",
            "--seed", "11"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# -- mc ----------------------------------------------------------------------

def test_mc_aggregate_check(capsys):
    assert cli.main(["mc", "--check", "aggregate", "--n", "25",
                     "--draws", "20000", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"]
    assert payload["exchange_residual"] <= 1e-9


def test_mc_duplicate_check(capsys):
    assert cli.main(["mc", "--check", "duplicate", "--r", "2.0", "--n", "15",
                     "--draws", "20000", "--seed", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eigenvalue"] == pytest.approx(2.0, abs=1e-9)


def test_mc_duplicate_premise_failure_is_input_error(capsys):
    assert cli.main(["mc", "--check", "duplicate", "--r", "0.5",
                     "--n", "10", "--draws", "100"]) == 1



# sizes are checked before anything is allocated; an allocation that still
# fails is an input error too
@pytest.mark.parametrize("argv, message", [
    pytest.param(["mc", "--check", "bm", "--n", "1"],
                 "--n must be an integer in [2, ", id="bm-one-node"),
    pytest.param(["mc", "--check", "aggregate", "--draws", "1"],
                 "--draws must be at least 2", id="aggregate-one-draw"),
    pytest.param(["mc", "--check", "aggregate", "--n", "100000"],
                 "--n must be an integer in [1, ", id="aggregate-huge-n"),
    pytest.param(["mc", "--check", "duplicate", "--n", "100000"],
                 "--n must be an integer", id="duplicate-huge-n"),
    pytest.param(["mc", "--check", "bm", "--n", "100000"],
                 "--n must be an integer", id="bm-huge-n"),
    pytest.param(["design", "--mode", "audit", "--n", "100000"],
                 "--n must be an integer", id="audit-huge-n"),
    pytest.param(["design", "--mode", "audit", "--n", "0"],
                 "--n must be an integer", id="audit-zero-n"),
    pytest.param(["design", "--mode", "audit", "--samples", "-1"],
                 "samples must be non-negative, got -1", id="audit-negative-samples"),
    pytest.param(["design", "--mode", "diagram", "--resolution", "0"],
                 "resolution must be at least 1, got 0", id="diagram-zero-resolution"),
    pytest.param(["design", "--mode", "diagram", "--resolution", "-3"],
                 "resolution must be at least 1, got -3",
                 id="diagram-negative-resolution"),
    *(pytest.param(["mc", "--check", check, "--n", "5",
                    "--draws", "10000000000000"],
                   "--draws must be at least 2 and at most 100000000, "
                   "got 10000000000000", id=f"{check}-huge-draws")
      for check in ("aggregate", "duplicate", "bm")),
    pytest.param(["mc", "--check", "duplicate", "--r", "30", "--n", "20",
                  "--draws", "100"],
                 "node 0 has 1.500e+00", id="duplicate-own-cell-above-one"),
    # the spectrum is {-1e200, 0, 0, 0, 0}; eig returns a positive value for
    # a zero, below the rounding floor n^2 eps max|W^1/2 K W^1/2|
    pytest.param(["mc", "--check", "duplicate", "--r=-1e200", "--n", "5",
                  "--draws", "100"], "lies below the rounding floor 1.110e+185",
                 id="duplicate-rounding-eigenvalue"),
    # I - A is singular in floating point, though no eigenvalue of A is 1
    pytest.param(["design", "--mode", "audit", "--r=-1e18", "--samples", "4",
                  "--n", "10"], "mean equation matrix I - A is singular in "
                 "floating point", id="audit-singular-mean-solve"),
    # finite flags whose result overflows
    pytest.param(["design", "--mode", "optimum", "--u", "1e308", "--v", "1e308",
                  "--w", "1e308"],
                 "alpha = v + w is inf; an input is out of "
                 "floating-point range", id="optimum-infinite-result"),
    pytest.param(["design", "--mode", "optimum", "--r", "0.999999", "--v", "1e300"],
                 "result v_star is not finite; an input is out of "
                 "floating-point range", id="optimum-infinite-value"),
    # a non-finite number is an input error, never a result or a failed check
    *(pytest.param(argv + [flag, value],
                   f"{flag} must be a finite number, got {value}",
                   id=f"{argv[2]}{flag}-{value}")
      for argv, flag, value in [
          (["design", "--mode", "optimum"], "--r", "nan"),
          (["design", "--mode", "optimum"], "--u", "inf"),
          (["design", "--mode", "optimum"], "--v", "nan"),
          (["design", "--mode", "optimum"], "--w", "inf"),
          (["design", "--mode", "cournot"], "--lambda", "nan"),
          (["design", "--mode", "cournot"], "--gamma", "inf"),
          (["design", "--mode", "diagram", "--resolution", "2"],
           "--alpha-min", "nan"),
          (["design", "--mode", "diagram", "--resolution", "2"],
           "--alpha-max", "inf"),
          (["design", "--mode", "diagram", "--resolution", "2"],
           "--beta-min", "nan"),
          (["design", "--mode", "diagram", "--resolution", "2"],
           "--beta-max", "inf"),
          (["design", "--mode", "audit", "--samples", "4", "--n", "20"],
           "--u", "inf"),
          (["mc", "--check", "duplicate", "--n", "10", "--draws", "100"],
           "--r", "nan"),
      ]),
])
def test_size_flag_is_input_error(capsys, argv, message):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


# closed forms square as products, so IEEE rules apply: a square that
# overflows is inf (and a quotient by it underflows to 0.0), never the raw
# errno tuple of a Python float power; the run ends in a report (exit 0, or
# 2 for a failed verdict) or in one error line
@pytest.mark.parametrize("argv, cfg", [
    pytest.param(["design", "--mode", "optimum", "--r=-1e200"], None,
                 id="optimum-r-minus-1e200"),
    pytest.param(["design", "--mode", "optimum", "--r=-1e300", "--u", "1"],
                 None, id="optimum-overflow"),
    pytest.param(["design", "--mode", "diagram", "--r=-1e200", "--resolution",
                  "3"], None, id="diagram-r-minus-1e200"),
    pytest.param(["moments"], {"grid": _GRID, "r": -1e200,
                               "moment": {"kind": "targeted", "m": 0.5}},
                 id="moments-targeted-r-minus-1e200"),
    pytest.param(["moments"], {"grid": _GRID, "r": 0.5, "moment": {
        "kind": "explicit", "xi": [[1e200] * 6] * 6, "zeta": [1e200] * 6}},
                 id="moments-explicit-zeta-1e200"),
])
def test_overflowing_square_is_a_result_or_one_error_line(tmp_path, capsys,
                                                          argv, cfg):
    if cfg is not None:
        argv = argv + ["--config", _write(tmp_path, "cfg.json", cfg)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "(34," not in err
    assert code in (0, 2) or (code == 1 and err.startswith("error:")
                              and err.count("\n") == 1), (code, err)


# -- reproduce-all -----------------------------------------------------------

def test_reproduce_all_quick_manifest(tmp_path):
    outdir = tmp_path / "repro"
    assert cli.main(["reproduce-all", "--quick", "--outdir", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["all_passed"]
    assert len(manifest["checks"]) == 11
    names = {c["name"] for c in manifest["checks"]}
    assert "targeted_optimum" in names and "bm_example" in names
    seconds = manifest["battery_seconds"]
    assert set(seconds) == names and len(seconds) == 11
    assert all(s >= 0.0 for s in seconds.values())
    assert sum(seconds.values()) <= manifest["elapsed_seconds"]



# -- malformed configs end in an error line, never a traceback ---------------

@pytest.mark.parametrize("command, cfg", [
    ("moments", {"grid": _GRID, "r": None,
                 "moment": {"kind": "targeted", "m": 0.5}}),
    ("spectral", {"grid": _GRID, "kernel": {"kind": "constant", "r": None}}),
    ("spectral", {"grid": _GRID, "kernel": {"kind": "constant", "r": "half"}}),
    ("spectral", {"grid": _GRID,
                  "kernel": {"kind": "graph", "edge_list": [[0, 6]], "rbar": 0.3}}),
    ("spectral", {"grid": _GRID,
                  "kernel": {"kind": "graph", "edge_list": [[0, 1]]}}),
    ("spectral", {"grid": _GRID, "kernel": {
        "kind": "separable", "r": 1.0,
        "q_expr": "().__class__.__base__.__subclasses__().__len__() + 0*t"}}),
    ("spectral", {"grid": {"kind": "uniform", "n": None}, "kernel": _CONST}),
    ("spectral", {"grid": {"coords": {}, "weights": [1.0]}, "kernel": _CONST}),
    ("equilibrium", {"grid": _GRID, "payoff": _CONST, "state": _STATE,
                     "info": {"kind": "targeted", "members": [0, 6]}}),
    ("equilibrium", {"grid": _GRID, "payoff": _CONST, "state": _STATE,
                     "info": {"kind": "targeted", "members": [[0, None]]}}),
    ("equilibrium", {"grid": _GRID, "payoff": _CONST, "state": _STATE,
                     "info": {"kind": "private_iid"}}),
    ("equilibrium", {"grid": _GRID, "payoff": _CONST,
                     "state": {"mean": [1], "var": 1.0},
                     "info": {"kind": "none"}}),
    ("moments", {"grid": _GRID, "r": 0.5, "moment": {"kind": "targeted"}}),
    ("moments", {"grid": _GRID, "r": 0.5,
                 "moment": {"kind": "targeted", "m": 1e300}}),
    ("moments", {"grid": _GRID, "r": 0.5,
                 "moment": {"kind": "targeted", "members": [7]}}),
    ("moments", {"grid": _GRID, "r": 0.5, "moment": {"kind": "symmetric"}}),
    ("moments", {"grid": _GRID, "r": 0.5,
                 "moment": {"kind": "explicit", "zeta": [0.0] * 6}}),
    ("spectral", {"grid": {"kind": "uniform", "n": 1e18}, "kernel": _CONST}),
    ("spectral", {"grid": {"kind": "uniform", "n": 2.7}, "kernel": _CONST}),
    ("spectral", {"grid": {"kind": "uniform", "n": cli.MAX_GRID_NODES + 1},
                  "kernel": _CONST}),
    ("equilibrium", {"grid": _GRID, "payoff": _CONST, "state": _STATE,
                     "info": {"kind": "none"}, "method": "direct"}),
    ("spectral", {"grid": _GRID, "kernel": _CONST, "r1_margin": 0.1}),
    # node indices: a fractional number, a string or a boolean is not cast
    ("equilibrium", {"grid": _GRID, "payoff": _CONST, "state": _STATE,
                     "info": {"kind": "targeted", "members": [0.7, "2", True]}}),
    ("equilibrium", {"grid": _GRID, "payoff": _CONST, "state": _STATE,
                     "info": {"kind": "targeted", "members": [0, True]}}),
    ("moments", {"grid": _GRID, "r": 0.5,
                 "moment": {"kind": "targeted", "members": [0.5, 1]}}),
    ("spectral", {"grid": _GRID, "kernel": {
        "kind": "graph", "edge_list": [[0.9, 1.5]], "rbar": 0.3}}),
])
def test_malformed_config_is_input_error(tmp_path, capsys, command, cfg):
    path = _write(tmp_path, "cfg.json", cfg)
    assert cli.main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# an overflow, invalid value or division by zero ends the run with one
# error line and no warning before it
@pytest.mark.parametrize("command, cfg, message", [
    pytest.param("spectral", {"grid": _GRID,
                              "kernel": {"kind": "constant", "r": 1e308}},
                 "error: overflow encountered in square", id="kernel-r-1e308"),
    # the spectrum is {-1e20, 0, 0, 0, 0}; no verdict is read from the value
    # eigvalsh returns for a zero, below the rounding floor
    pytest.param("spectral", {"grid": {"kind": "uniform", "n": 5},
                              "kernel": {"kind": "constant", "r": -1e20}},
                 "lies below the rounding floor 1.110e+05",
                 id="kernel-r-minus-1e20"),
    pytest.param("equilibrium", {"grid": _GRID, "payoff": _CONST,
                                 "state": {"mean": -1e308, "var": 1.0},
                                 "info": {"kind": "none"}},
                 "error: invalid value encountered", id="state-mean-minus-1e308"),
    *(pytest.param("spectral", {"grid": _GRID, "kernel": {
        "kind": "separable", "r": 1.0, "q_expr": q}},
        f"cannot evaluate q_expr {q!r}", id=q)
      for q in ("sqrt(-t)", "exp(t*1000)", "log(t-1)", "1/(t-t)")),
])
def test_floating_point_failure_is_one_error_line(tmp_path, capsys, command,
                                                  cfg, message):
    # a RuntimeWarning is an error under this suite's pytest settings
    path = _write(tmp_path, "cfg.json", cfg)
    assert cli.main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert "Warning" not in err and "Traceback" not in err


def _eq_cfg(info):
    return {"grid": _GRID, "payoff": _CONST, "state": _STATE, "info": info}


def _moments_cfg(moment):
    return {"grid": _GRID, "r": 0.5, "moment": moment}


_ZERO_XI = [[0.0] * 6] * 6


# a key of another kind, a second way to give the same value, a string where
# a JSON boolean belongs, and a kernel file on another grid: each is refused
@pytest.mark.parametrize("command, cfg, message", [
    pytest.param("moments", _moments_cfg(
        {"kind": "targeted", "m": 0.5, "xi": _ZERO_XI}),
        "unknown keys ['xi']", id="targeted-moment-with-xi"),
    pytest.param("moments", _moments_cfg(
        {"kind": "targeted", "m": 0.5, "state_var": 1.0}),
        "unknown keys ['state_var']", id="targeted-moment-with-state-var"),
    pytest.param("moments", _moments_cfg(
        {"kind": "explicit", "xi": _ZERO_XI, "zeta": [0.0] * 6, "m": 0.5}),
        "unknown keys ['m']", id="explicit-moment-with-m"),
    pytest.param("moments", _moments_cfg(
        {"kind": "targeted", "m": 0.5, "members": [0, 1]}),
        "exactly one of 'm' and 'members'", id="targeted-moment-m-and-members"),
    pytest.param("equilibrium", _eq_cfg(
        {"kind": "private_iid", "noise_var": 1.0, "exact_lln": "false"}),
        "'exact_lln' must be JSON true or false", id="exact-lln-string"),
    pytest.param("moments", _moments_cfg(
        {"kind": "symmetric", "m": 0.5, "match_grid_obedience": "false"}),
        "'match_grid_obedience' must be JSON true or false",
        id="match-grid-obedience-string"),
    pytest.param("spectral", {"grid": _GRID, "kernel": {
        "kind": "graph", "edge_list": [[0, 1]], "rbar": 0.3,
        "undirected": "false"}},
        "'undirected' must be JSON true or false", id="graph-undirected-string"),
    pytest.param("spectral", {"grid": _GRID,
                              "kernel": {"kind": "file", "path": "k2.json"}},
                 "kernel file 'k2.json' is not on the config's grid",
                 id="file-kernel-on-another-grid"),
])
def test_config_schema_refuses_what_it_would_ignore(tmp_path, monkeypatch, capsys,
                                                    command, cfg, message):
    monkeypatch.chdir(tmp_path)
    kernels.constant_kernel(uniform_grid(2), 0.3).to_json("k2.json")
    assert cli.main([command, "--config", _write(tmp_path, "cfg.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


# a config array holds numbers only: a string is not parsed, a boolean is not
# cast, and a ragged nesting is refused; the error line names the section
@pytest.mark.parametrize("command, cfg, message", [
    pytest.param("spectral", {"grid": {"coords": ["0.25", "0.75"],
                                       "weights": [0.5, 0.5]}, "kernel": _CONST},
                 "error: grid: expected an array of numbers", id="string-coords"),
    pytest.param("spectral", {"grid": {"coords": [0.5], "weights": [True]},
                              "kernel": _CONST},
                 "error: grid: expected an array of numbers", id="boolean-weights"),
    pytest.param("spectral", {"grid": {"coords": [0.1, [0.5], 0.7],
                                       "weights": [0.3, 0.3, 0.4]},
                              "kernel": _CONST},
                 "error: grid: expected an array of numbers", id="ragged-coords"),
    pytest.param("moments", _moments_cfg(
        {"kind": "explicit", "xi": [["0.0"] * 6] * 6, "zeta": [0.0] * 6}),
        "error: moment: expected an array of numbers", id="string-xi"),
])
def test_config_arrays_take_numbers_only(tmp_path, capsys, command, cfg, message):
    assert cli.main([command, "--config", _write(tmp_path, "cfg.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert "Traceback" not in err


# a kind that is not a string cannot be looked up (it may not be hashable);
# every section refuses it, those without kinds too
@pytest.mark.parametrize("command, cfg", [
    pytest.param("spectral", {"kind": ["spectral"], "grid": _GRID,
                              "kernel": _CONST}, id="top-level"),
    pytest.param("spectral", {"grid": {"kind": ["uniform"], "n": 6},
                              "kernel": _CONST}, id="grid"),
    pytest.param("spectral", {"grid": _GRID,
                              "kernel": {"kind": ["constant"], "r": 0.5}},
                 id="kernel"),
    pytest.param("equilibrium", {"grid": _GRID, "payoff": {"kind": {}, "r": 0.5},
                                 "state": _STATE, "info": {"kind": "none"}},
                 id="payoff"),
    pytest.param("equilibrium", {"grid": _GRID, "payoff": _CONST,
                                 "state": dict(_STATE, kind=["x"]),
                                 "info": {"kind": "none"}}, id="state"),
    pytest.param("equilibrium", _eq_cfg({"kind": ["none"]}), id="info"),
    pytest.param("moments", _moments_cfg({"kind": 1, "m": 0.5}), id="moment"),
])
def test_non_string_kind_is_input_error(tmp_path, capsys, command, cfg):
    assert cli.main([command, "--config", _write(tmp_path, "cfg.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "kind" in err
    assert "Traceback" not in err


# -- a flag the subcommand does not read is a usage error --------------------

_VALID_CFG = {
    "spectral": {"grid": _GRID, "kernel": _CONST},
    "equilibrium": {"grid": _GRID, "payoff": _CONST, "state": _STATE,
                    "info": {"kind": "none"}},
    "moments": {"grid": _GRID, "r": 0.5,
                "moment": {"kind": "targeted", "m": 0.5}},
}
_MC = ["mc", "--check", "aggregate", "--n", "25", "--draws", "20000"]


# each argv runs and exits 0 once its last flag is removed
@pytest.mark.parametrize("argv", [
    ["spectral", "--config", "{spectral}", "--seed", "1"],
    ["spectral", "--config", "{spectral}", "--tol", "1e-6"],
    ["equilibrium", "--config", "{equilibrium}", "--seed", "1"],
    ["moments", "--config", "{moments}", "--seed", "1"],
    ["design", "--mode", "optimum", "--config", "{spectral}"],
    _MC + ["--config", "/nonexistent.json"],
    _MC + ["--tol", "7"],
    ["reproduce-all", "--quick", "--outdir", "{tmp}", "--config", "{spectral}"],
    ["reproduce-all", "--quick", "--outdir", "{tmp}", "--seed", "1"],
    ["reproduce-all", "--quick", "--outdir", "{tmp}", "--out", "{tmp}/m.json"],
    ["reproduce-all", "--quick", "--outdir", "{tmp}", "--tol", "1e-6"],
    pytest.param(["equilibrium", "--config", "{equilibrium}", "--tol", "1e-3"],
                 id="equilibrium-tol"),
    pytest.param(["moments", "--config", "{moments}", "--tol", "1e-3"],
                 id="moments-tol"),
    pytest.param(["design", "--mode", "audit", "--samples", "4", "--n", "20",
                  "--tol", "1e-3"], id="design-tol"),
    # flags of another mode of the same subcommand
    pytest.param(["design", "--mode", "cournot", "--r", "0.3"],
                 id="cournot-r"),
    pytest.param(["design", "--mode", "optimum", "--seed", "3"],
                 id="optimum-seed"),
    pytest.param(["design", "--mode", "optimum", "--samples", "9"],
                 id="optimum-samples"),
    pytest.param(_MC + ["--r", "5"], id="aggregate-r"),
])
def test_ignored_flag_is_input_error(tmp_path, capsys, argv):
    paths = {name: _write(tmp_path, f"{name}.json", cfg)
             for name, cfg in _VALID_CFG.items()}
    argv = [a.format(tmp=tmp_path, **paths) for a in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["design", "--mode", "optimum", "--seed", "3"], "seed",
                 id="optimum-seed"),
    pytest.param(["design", "--mode", "cournot", "--r", "0.3"], "r",
                 id="cournot-r"),
    pytest.param(["design", "--mode", "diagram", "--lambda", "0.3"], "lambda",
                 id="diagram-lambda"),
    pytest.param(_MC + ["--r", "5"], "r", id="aggregate-r"),
])
def test_flag_of_another_mode_is_named(capsys, argv, flag):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {argv[0]} {argv[1]} {argv[2]}: unknown keys ['{flag}']\n")


_OBJECTIVE_DEFAULTS = {"r": 0.5, "u": 0.0, "v": 1.0, "w": 0.0}
_MC_CONFIG = {"n": 40, "draws": 1000, "seed": 0, "command": "mc",
              "generator_id": montecarlo.GENERATOR_ID}


# the report's config lists every flag of the mode, defaults filled in
@pytest.mark.parametrize("argv, config", [
    pytest.param(["design", "--mode", "optimum"],
                 dict(_OBJECTIVE_DEFAULTS, command="design", mode="optimum"),
                 id="optimum"),
    pytest.param(["design", "--mode", "cournot"],
                 {"lambda": 0.5, "gamma": 2.0, "command": "design",
                  "mode": "cournot"}, id="cournot"),
    pytest.param(["design", "--mode", "audit", "--samples", "4", "--n", "10"],
                 dict(_OBJECTIVE_DEFAULTS, samples=4, seed=0, n=10,
                      command="design", mode="audit"), id="audit"),
    pytest.param(["mc", "--check", "aggregate", "--draws", "1000"],
                 dict(_MC_CONFIG, check="aggregate"), id="aggregate"),
    pytest.param(["mc", "--check", "duplicate", "--draws", "1000"],
                 dict(_MC_CONFIG, r=2.0, check="duplicate"), id="duplicate"),
    pytest.param(["mc", "--check", "bm", "--draws", "1000"],
                 dict(_MC_CONFIG, check="bm"), id="bm"),
])
def test_mode_report_config_lists_every_flag(capsys, argv, config):
    assert cli.main(argv) in (0, 2)
    assert json.loads(capsys.readouterr().out)["config"] == config
    flags, _ = cli._SCHEMA[argv[0]][argv[2]]
    assert set(config) - {"command", "mode", "check", "generator_id"} == set(flags)


# -- the exit-code contract holds for any mutation of a valid config ----------

_JSON_NUMBER = st.one_of(
    st.integers(-2, 64), st.floats(-64.0, 64.0),
    st.sampled_from([0.5, 1.0, 2.0, 1e20, -1e20, 1e200, -1e200, 1e308,
                     -1e308, 5e-324, 2 ** 53 + 1, math.inf, -math.inf,
                     math.nan]))
_JSON_LEAF = st.one_of(st.none(), st.booleans(), _JSON_NUMBER,
                       st.text(max_size=6),
                       st.sampled_from(list(cli._SCHEMA["kernel"])
                                       + list(cli._SCHEMA["info"])
                                       + list(cli._SCHEMA["moment"])
                                       + ["t", "sin(t)", "1/t", "t**t"]))
_JSON_VALUE = st.recursive(
    _JSON_LEAF, lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.sampled_from(["kind", "n", "r", "m", "bogus"]),
                        inner, max_size=3)),
    max_leaves=12)
_ALL_KEYS = sorted({key for kinds in cli._SCHEMA.values()
                    for keys, _ in kinds.values() for key in keys} | {"kind"})


def _paths(obj, path=()):
    """Every path into ``obj`` (dict keys and list indices), the root too."""
    yield path
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate(data, cfg):
    """``cfg`` with one value replaced, one key dropped or one key added."""
    path = data.draw(st.sampled_from(list(_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    target = parent[path[-1]] if path else cfg
    op = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if op == "add" and isinstance(target, dict):
        target[data.draw(st.sampled_from(_ALL_KEYS))] = data.draw(_JSON_VALUE)
    elif op == "drop" and isinstance(target, dict) and target:
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif path:
        # mostly a value of the same JSON type, so the run gets past the parser
        like = {bool: st.booleans(), int: _JSON_NUMBER, float: _JSON_NUMBER,
                str: _JSON_LEAF, list: st.lists(_JSON_NUMBER, max_size=8)}
        parent[path[-1]] = data.draw(st.one_of(
            like.get(type(target), _JSON_VALUE), _JSON_VALUE))
    return cfg


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_mutated_configs_keep_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        K = kernels.constant_kernel(uniform_grid(6), 0.25)
        K.to_json(os.path.join(tmp, "k.json"))
        with open(os.path.join(tmp, "k.csv"), "w") as fh:
            fh.write("\n".join(",".join(map(str, row)) for row in K.values))
        command, _, sub = data.draw(st.sampled_from(_ROUND_TRIP))
        if sub.get("kind") == "file":
            sub = dict(sub, path=os.path.join(tmp, sub["path"]))
        grid = data.draw(st.sampled_from(
            [_GRID, {"coords": [0.1, 0.5, 0.7, 0.8, 0.9, 1.0],
                     "weights": [1 / 6] * 6}]))
        cfg = copy.deepcopy(
            {"spectral": {"grid": grid, "kernel": sub},
             "equilibrium": {"grid": grid, "payoff": _CONST, "state": _STATE,
                             "info": sub},
             "moments": {"grid": grid, "r": 0.5, "moment": sub}}[command])
        for _ in range(data.draw(st.integers(1, 3))):
            cfg = _mutate(data, cfg)
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", path])
    err = err.getvalue()
    assert code in (0, 1, 2), (cfg, err)
    assert "Traceback" not in err and "Warning" not in err, (cfg, err)
