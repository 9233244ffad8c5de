"""Command-line front end.

Exit codes: 0 on success, 1 on input/configuration errors, 2 when a
scientific verification fails.  All artifacts are written atomically
(temporary file in the target directory, then rename), and every JSON
report embeds the fully-resolved configuration that produced it.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
import tempfile

import numpy as np

from . import checks, design, game, kernels, moments, montecarlo
from .errors import KernelGamesError
from .grid import MeasureGrid, uniform_grid
from .kernels import _config_number as _number
from .moments import DesignObjective

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2

#: Most grid nodes a config may ask for; a dense joint covariance of a grid
#: this size with one signal per node takes 128 MB.
MAX_GRID_NODES = 2048


class ConfigError(ValueError):
    """Malformed configuration or command line."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the exit-code contract
    # reserves 2 for verification failures, so remap to a ConfigError.
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# config handling

def _check_keys(cfg: dict, allowed, required, where: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return cfg


def _node_count(value, where: str, low: int) -> int:
    if value != int(value) or not low <= value <= MAX_GRID_NODES:
        raise ConfigError(f"{where} must be an integer in [{low}, "
                          f"{MAX_GRID_NODES}], got {value!r}")
    return int(value)


def _grid_from_config(cfg: dict) -> MeasureGrid:
    if "coords" in cfg or "weights" in cfg:
        _check_keys(cfg, {"coords", "weights"}, {"coords", "weights"}, "grid")
        return MeasureGrid(cfg["coords"], cfg["weights"])
    _check_keys(cfg, {"kind", "n", "a", "b"}, {"kind", "n"}, "grid")
    if cfg["kind"] != "uniform":
        raise ConfigError(f"unknown grid kind: {cfg['kind']!r}")
    n = _node_count(_number(cfg, "n"), "grid 'n'", 1)
    return uniform_grid(n, _number(cfg, "a", 0.0), _number(cfg, "b", 1.0))


def _grid_config(grid: MeasureGrid) -> dict:
    return {"coords": grid.coords.tolist(), "weights": grid.weights.tolist()}


def _info_from_config(g: game.BasicGame, cfg: dict) -> game.GaussianInfo:
    _check_keys(cfg, {"kind", "noise_var", "members", "exact_lln"},
                {"kind"}, "info")
    kind = cfg.get("kind")
    extra = set(cfg) - {"kind"}
    if kind == "none":
        if extra:
            raise ConfigError("info kind 'none' takes no parameters")
        return game.no_info(g)
    if kind == "full":
        if extra:
            raise ConfigError("info kind 'full' takes no parameters")
        return game.full_info(g)
    if kind == "public":
        if extra - {"noise_var"}:
            raise ConfigError("info kind 'public' takes only 'noise_var'")
        return game.public_info(g, _number(cfg, "noise_var", 0.0))
    if kind == "private_iid":
        if extra - {"noise_var", "exact_lln"}:
            raise ConfigError("info kind 'private_iid' takes 'noise_var' "
                              "and 'exact_lln'")
        return game.private_iid_info(g, _number(cfg, "noise_var"),
                                     exact_lln=bool(cfg.get("exact_lln", True)))
    if kind == "targeted":
        if extra != {"members"}:
            raise ConfigError("info kind 'targeted' takes exactly 'members'")
        return game.targeted_info(g, cfg["members"])
    raise ConfigError(f"unknown info kind: {kind!r}")


def _objective_from_args(args) -> DesignObjective:
    return DesignObjective(float(args.u), float(args.v), float(args.w))


# ---------------------------------------------------------------------------
# atomic artifact writing

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kg-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=_json_default) + "\n"
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _emit_csv(rows, header, out: str | None) -> None:
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    if out:
        _atomic_write(out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# subcommands

def _cmd_spectral(args) -> int:
    if not args.config:
        raise ConfigError("spectral requires --config")
    cfg = _load_config(args.config)
    _check_keys(cfg, {"grid", "kernel", "r1_margin"}, {"grid", "kernel"},
                "spectral config")
    grid = _grid_from_config(cfg["grid"])
    K = kernels.kernel_from_config(grid, cfg["kernel"])
    margin = _number(cfg, "r1_margin", 0.0)
    report = kernels.spectral_report(K, r1_margin=margin)
    resolved = {"command": "spectral", "grid": _grid_config(grid),
                "kernel": cfg["kernel"], "r1_margin": margin}
    _emit({"config": resolved, "report": report.as_dict()}, args.out)
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    if not args.config:
        raise ConfigError("equilibrium requires --config")
    cfg = _load_config(args.config)
    keys = {"grid", "payoff", "state", "info"}
    _check_keys(cfg, keys, keys, "equilibrium config")
    grid = _grid_from_config(cfg["grid"])
    payoff = kernels.kernel_from_config(grid, cfg["payoff"])
    _check_keys(cfg["state"], {"mean", "var"}, {"mean", "var"}, "state")
    g = game.common_state_game(grid, payoff, _number(cfg["state"], "mean"),
                               _number(cfg["state"], "var"))
    info = _info_from_config(g, cfg["info"])
    eq = game.solve_linear_equilibrium(g, info)
    tol = args.tol if args.tol is not None else 1e-8
    mrep = game.verify_moment_restrictions(eq, g, tol=tol)
    resolved = {"command": "equilibrium", "grid": _grid_config(grid),
                "payoff": cfg["payoff"], "state": cfg["state"],
                "info": cfg["info"], "method": "direct", "tol": tol}
    payload = {
        "config": resolved,
        "intercepts": eq.intercepts.values.tolist(),
        "loadings": [c.tolist() for c in eq.loadings],
        "induced_mean": eq.induced_mean.values.tolist(),
        "action_cov": eq.induced_action_cov.values.tolist(),
        "action_state_cov": eq.induced_action_state_cov.values.tolist(),
        "moment_residual": mrep.max_residual,
        "moment_check_passed": mrep.passed,
    }
    _emit(payload, args.out)
    return EXIT_OK if mrep.passed else EXIT_VERIFY


def _moment_from_config(cfg: dict, grid: MeasureGrid, r: float):
    _check_keys(cfg, {"kind", "m", "match_grid_obedience", "xi", "zeta",
                      "state_var", "members"}, {"kind"}, "moment")
    kind = cfg["kind"]
    if kind == "targeted":
        if "members" in cfg:
            members = cfg["members"]
        elif "m" in cfg:
            m = _number(cfg, "m")
            if not 0.0 <= m <= 1.0:
                raise ConfigError("targeted moment 'm' must lie in [0, 1]")
            members = np.arange(int(round(m * grid.n)))
        else:
            raise ConfigError("targeted moment needs 'm' or 'members'")
        return design.targeted_equilibrium_moment(members, r, grid)
    if kind == "symmetric":
        mom, _ = design.symmetric_moment(
            _number(cfg, "m"), r, grid,
            match_grid_obedience=bool(cfg.get("match_grid_obedience", False)))
        return mom
    if kind == "explicit":
        xi = kernels.Kernel(grid, cfg.get("xi"))
        zeta = grid.function(cfg.get("zeta"))
        return moments.EquilibriumMoment(grid, xi, zeta,
                                         _number(cfg, "state_var", 1.0))
    raise ConfigError(f"unknown moment kind: {kind!r}")


def _cmd_moments(args) -> int:
    if not args.config:
        raise ConfigError("moments requires --config")
    cfg = _load_config(args.config)
    _check_keys(cfg, {"grid", "r", "moment"}, {"grid", "r", "moment"},
                "moments config")
    grid = _grid_from_config(cfg["grid"])
    r = _number(cfg, "r")
    mom = _moment_from_config(cfg["moment"], grid, r)
    R = kernels.constant_kernel(grid, r)
    obed = moments.check_obedience(mom, R)
    obed_tol = (args.tol if args.tol is not None
                else moments.default_obedience_tol(mom))
    psd = moments.check_positivity(mom)
    feasible = obed <= obed_tol and psd
    # the bounds are theorems about feasible moments; skip them (and fail the
    # run) when obedience or positivity already broke down
    bounds = None
    passed = False
    if feasible:
        brep = moments.bounds_check(mom, r)
        bounds = {"cauchy_slack": brep.cauchy_slack,
                  "diag_slack": brep.diag_slack,
                  "ceiling_slack": brep.ceiling_slack,
                  "passed": brep.passed}
        passed = brep.passed
    resolved = {"command": "moments", "grid": _grid_config(grid), "r": r,
                "moment": cfg["moment"], "obedience_tol": obed_tol}
    payload = {
        "config": resolved,
        "obedience_residual": obed,
        "positivity_ok": psd,
        "bounds": bounds,
        "passed": passed,
    }
    _emit(payload, args.out)
    return EXIT_OK if passed else EXIT_VERIFY


def _cmd_design(args) -> int:
    mode = args.mode
    if mode == "optimum":
        obj = _objective_from_args(args)
        rep = design.optimal_targeted(args.r, obj)
        pub = design.public_optimum(args.r, obj)
        payload = {
            "config": {"command": "design", "mode": mode, "r": args.r,
                       "u": obj.u, "v": obj.v, "w": obj.w},
            "regime": rep.regime, "m_star": rep.m_star, "v_star": rep.v_star,
            "alpha": rep.alpha, "beta": rep.beta,
            "public": {"z_star": pub.z_star, "v_pub": pub.v_pub,
                       "boundary": pub.boundary},
        }
        _emit(payload, args.out)
        return EXIT_OK
    if mode == "diagram":
        rows = design.regime_diagram(args.r, (args.alpha_min, args.alpha_max),
                                     (args.beta_min, args.beta_max),
                                     args.resolution)
        _emit_csv(rows, ("alpha", "beta", "regime", "m_star", "v_star"),
                  args.out)
        return EXIT_OK
    if mode == "cournot":
        rep = design.cournot_policy(getattr(args, "lambda"), args.gamma)
        payload = {
            "config": {"command": "design", "mode": mode,
                       "lambda": getattr(args, "lambda"), "gamma": args.gamma},
            "u": rep.u, "v": rep.v, "w": rep.w, "r": rep.r,
            "regime": rep.regime, "m_star": rep.m_star, "v_star": rep.v_star,
            "full_disclosure": rep.full_disclosure,
        }
        _emit(payload, args.out)
        return EXIT_OK
    if mode == "audit":
        obj = _objective_from_args(args)
        n = _node_count(args.n, "--n", 1)
        rep = design.global_optimality_audit(args.r, obj, args.samples,
                                             args.seed, n=n, tol=args.tol)
        payload = {
            "config": {"command": "design", "mode": mode, "r": args.r,
                       "u": obj.u, "v": obj.v, "w": obj.w,
                       "samples": args.samples, "seed": args.seed,
                       "n": args.n, "tol": rep.tol},
            "max_excess": rep.max_excess, "v_star": rep.v_star,
            "samples_checked": rep.samples, "passed": rep.passed,
        }
        _emit(payload, args.out)
        return EXIT_OK if rep.passed else EXIT_VERIFY
    raise ConfigError(f"unknown design mode: {mode!r}")


def _cmd_mc(args) -> int:
    seed = args.seed
    # the bm example's private noises sum to zero, which needs two nodes
    _node_count(args.n, "--n", 2 if args.check == "bm" else 1)
    if args.draws < 2:
        raise ConfigError(f"--draws must be at least 2, got {args.draws}")
    if args.check == "aggregate":
        rng = np.random.default_rng(seed)
        grid = uniform_grid(args.n)
        mean = rng.normal(size=args.n)
        B = rng.normal(size=(args.n, 5))
        cov = B @ B.T + 0.1 * np.eye(args.n)
        sample = montecarlo.sample_gaussian(mean, cov, args.draws, seed=seed)
        mrep = montecarlo.verify_aggregate_mean(sample, grid, mean)
        vrep = montecarlo.verify_aggregate_variance(sample, grid, cov)
        exch = montecarlo.covariance_exchange_residual(
            cov, grid, rng.normal(size=args.n))
        cond = montecarlo.verify_conditional_fubini(
            sample, grid, [0, args.n // 2], mean, cov)
        passed = mrep.passed and vrep.passed and cond.passed and exch <= 1e-9
        payload = {
            "config": {"command": "mc", "check": "aggregate", "n": args.n,
                       "draws": args.draws, "seed": seed,
                       "generator_id": montecarlo.GENERATOR_ID},
            "mean_zscore": mrep.zscore, "variance_zscore": vrep.zscore,
            "exchange_residual": exch,
            "conditional_discrepancy": cond.statistic,
            "passed": passed,
        }
        _emit(payload, args.out)
        return EXIT_OK if passed else EXIT_VERIFY
    if args.check == "duplicate":
        grid = uniform_grid(args.n)
        g = game.common_state_game(grid, kernels.constant_kernel(grid, args.r),
                                   1.0, 1.0)
        rep = montecarlo.duplicate_equilibria(g, d=args.draws, seed=seed)
        payload = {
            "config": {"command": "mc", "check": "duplicate", "n": args.n,
                       "r": args.r, "draws": args.draws, "seed": seed,
                       "generator_id": montecarlo.GENERATOR_ID},
            "eigenvalue": rep.eigenvalue, "distance": rep.distance,
            "passed": rep.passed,
        }
        _emit(payload, args.out)
        return EXIT_OK if rep.passed else EXIT_VERIFY
    if args.check == "bm":
        res = checks.check_bm_example(n=args.n, draws=args.draws, seed=seed)
        payload = {
            "config": {"command": "mc", "check": "bm", "n": args.n,
                       "draws": args.draws, "seed": seed,
                       "generator_id": montecarlo.GENERATOR_ID},
            **res.as_dict(),
        }
        _emit(payload, args.out)
        return EXIT_OK if res.passed else EXIT_VERIFY
    raise ConfigError(f"unknown mc check: {args.check!r}")


def _cmd_reproduce_all(args) -> int:
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    results, elapsed = checks.run_all(quick=args.quick)
    manifest = {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "quick": bool(args.quick),
        "elapsed_seconds": round(elapsed, 3),
        "generator_id": montecarlo.GENERATOR_ID,
        "checks": [r.as_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _atomic_write(os.path.join(outdir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True,
                             default=_json_default) + "\n")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stderr.write(f"{status}  {r.name}\n")
    return EXIT_OK if manifest["all_passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point

#: flags shared by several subcommands; each subcommand takes only those it
#: reads, and no abbreviations, so a flag it would ignore is a usage error
_SHARED_FLAGS = {
    "config": dict(metavar="PATH", help="JSON configuration file"),
    "seed": dict(type=int, default=0, metavar="N"),
    "out": dict(metavar="PATH", help="output artifact (defaults to stdout)"),
    "tol": dict(type=float, default=None, metavar="X",
                help="override the default check tolerance"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="kernelgames",
                     description="Large-population kernel-interaction games: "
                                 "spectra, equilibria, moments, disclosure "
                                 "design, and stochastic verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, flags, summary):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        return p

    subcommand("spectral", ("config", "out"),
               "spectral report for a kernel on a grid")
    subcommand("equilibrium", ("config", "out", "tol"),
               "solve and verify a linear equilibrium")
    subcommand("moments", ("config", "out", "tol"),
               "obedience, positivity and bounds for a moment")

    p = subcommand("design", ("seed", "out", "tol"),
                   "optimal disclosure analysis")
    p.add_argument("--mode", required=True,
                   choices=("optimum", "diagram", "cournot", "audit"))
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--v", type=float, default=1.0)
    p.add_argument("--w", type=float, default=0.0)
    p.add_argument("--lambda", type=float, default=0.5, dest="lambda")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--alpha-min", type=float, default=-2.0)
    p.add_argument("--alpha-max", type=float, default=2.0)
    p.add_argument("--beta-min", type=float, default=-2.0)
    p.add_argument("--beta-max", type=float, default=2.0)
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--n", type=int, default=100)

    p = subcommand("mc", ("seed", "out"), "seeded stochastic verification")
    p.add_argument("--check", required=True,
                   choices=("aggregate", "duplicate", "bm"))
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--draws", type=int, default=100_000)
    p.add_argument("--r", type=float, default=2.0)

    p = subcommand("reproduce-all", (),
                   "run every verification battery, write a manifest")
    p.add_argument("--outdir", default="reproduction")
    p.add_argument("--quick", action="store_true",
                   help="reduced sample counts for a fast smoke run")
    return parser


_DISPATCH = {
    "spectral": _cmd_spectral,
    "equilibrium": _cmd_equilibrium,
    "moments": _cmd_moments,
    "design": _cmd_design,
    "mc": _cmd_mc,
    "reproduce-all": _cmd_reproduce_all,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (ValueError, KernelGamesError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
