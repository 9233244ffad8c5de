"""Command-line front end.

Exit codes: 0 on success, 1 on input/configuration errors, 2 when a
scientific verification fails.  All artifacts are written atomically
(temporary file in the target directory, then rename), and every JSON
report embeds the fully-resolved configuration that produced it.
"""

from __future__ import annotations

import argparse
import ast
import csv
import datetime
import json
import math
import operator
import os
import sys
import tempfile

import numpy as np

from . import checks, design, game, kernels, moments, montecarlo
from .errors import KernelGamesError
from .grid import MeasureGrid, uniform_grid
from .kernels import Kernel
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
# config value types: each checks one JSON value and returns it parsed

def _number(value, where: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _node_count(value, where: str, low: int = 1) -> int:
    if (_number(value, where) != int(value)
            or not low <= value <= MAX_GRID_NODES):
        raise ConfigError(f"{where} must be an integer in [{low}, "
                          f"{MAX_GRID_NODES}], got {value!r}")
    return int(value)


def _instance_of(label: str, cls):
    """The type of JSON values that are ``cls`` instances, taken as they are."""
    def parse(value, where: str):
        if not isinstance(value, cls):
            raise ConfigError(f"{where} must be {label}, got {value!r}")
        return value
    return parse


_flag = _instance_of("JSON true or false", bool)
_string = _instance_of("a string", str)
_array = _instance_of("a JSON array", list)  # its constructor checks the rest
_object = _instance_of("a JSON object", dict)


# ---------------------------------------------------------------------------
# builders that no library constructor provides directly

_Q_EXPR_NAMES = {name: getattr(np, name) for name in
                 ("sin", "cos", "exp", "log", "sqrt", "abs", "tanh", "pi")}
_Q_EXPR_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv,
               ast.Pow: operator.pow, ast.UAdd: operator.pos,
               ast.USub: operator.neg}


def _eval_q_expr(expr: str, t: np.ndarray):
    """Evaluate a ``q_expr`` profile: number literals, ``t``, ``pi``, unary
    +/-, the operators + - * / ** and one-argument calls of the
    ``_Q_EXPR_NAMES`` functions.  Anything else is a ValueError."""
    def ev(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in ("t", "pi"):
            return t if node.id == "t" else np.pi
        if isinstance(node, ast.BinOp) and type(node.op) in _Q_EXPR_OPS:
            return _Q_EXPR_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _Q_EXPR_OPS:
            return _Q_EXPR_OPS[type(node.op)](ev(node.operand))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(_Q_EXPR_NAMES.get(node.func.id))
                and len(node.args) == 1 and not node.keywords):
            return _Q_EXPR_NAMES[node.func.id](ev(node.args[0]))
        raise ValueError(f"q_expr may not contain {type(node).__name__} "
                         f"{ast.unparse(node)!r}")

    try:
        return ev(ast.parse(expr, mode="eval").body)
    except (SyntaxError, ArithmeticError, RecursionError) as exc:
        raise ValueError(f"cannot evaluate q_expr {expr!r}: {exc}") from None


def _separable_kernel(grid, r, q_expr):
    q = _eval_q_expr(q_expr, grid.coords)
    return kernels.separable_kernel(grid, r, np.broadcast_to(q, (grid.n,)))


def _file_kernel(grid, path):
    K = (Kernel.from_json(path) if path.endswith(".json")
         else Kernel.from_csv(path, grid))
    if not K.grid.same_nodes(grid):
        raise ConfigError(f"kernel file {path!r} is not on the config's grid")
    return K


def _targeted_moment(grid, r, m, members):
    if (m is None) == (members is None):
        raise ConfigError("targeted moment takes exactly one of 'm' and "
                          "'members'")
    if m is not None:
        if not 0.0 <= m <= 1.0:
            raise ConfigError("targeted moment 'm' must lie in [0, 1]")
        members = np.arange(int(round(m * grid.n)))
    return design.targeted_equilibrium_moment(members, r, grid)


# ---------------------------------------------------------------------------
# the config schema and its one parser

#: section -> kind -> ({key: (type, default)}, builder); a section without
#: kinds has the single kind None.  A default of ``...`` marks a required key;
#: a default of None lets the key be left out, and the resolved section then
#: leaves it out too.
_SCHEMA = {
    "spectral": {None: ({"grid": (_object, ...), "kernel": (_object, ...),
                         "r1_margin": (_number, 0.0)}, dict)},
    "equilibrium": {None: ({"grid": (_object, ...), "payoff": (_object, ...),
                            "state": (_object, ...), "info": (_object, ...)},
                           dict)},
    "moments": {None: ({"grid": (_object, ...), "r": (_number, ...),
                        "moment": (_object, ...)}, dict)},
    "grid": {
        "uniform": ({"n": (_node_count, ...), "a": (_number, 0.0),
                     "b": (_number, 1.0)}, uniform_grid),
        None: ({"coords": (_array, ...), "weights": (_array, ...)}, MeasureGrid),
    },
    "state": {None: ({"mean": (_number, ...), "var": (_number, ...)},
                     game.common_state_game)},
    "kernel": {
        "constant": ({"r": (_number, ...)}, kernels.constant_kernel),
        "unidirectional": ({"r": (_number, ...)}, kernels.unidirectional_kernel),
        "separable": ({"r": (_number, ...), "q_expr": (_string, ...)},
                      _separable_kernel),
        "graph": ({"edge_list": (_array, ...), "rbar": (_number, ...),
                   "undirected": (_flag, True)},
                  lambda grid, edge_list, rbar, undirected:
                  kernels.graph_kernel(grid, edge_list, rbar, undirected)),
        "file": ({"path": (_string, ...)}, _file_kernel),
    },
    "info": {
        "none": ({}, game.no_info),
        "full": ({}, game.full_info),
        "public": ({"noise_var": (_number, 0.0)}, game.public_info),
        "private_iid": ({"noise_var": (_number, ...),
                         "exact_lln": (_flag, True)}, game.private_iid_info),
        "targeted": ({"members": (_array, ...)}, game.targeted_info),
    },
    "moment": {
        "targeted": ({"m": (_number, None), "members": (_array, None)},
                     _targeted_moment),
        "symmetric": ({"m": (_number, ...),
                       "match_grid_obedience": (_flag, False)},
                      lambda grid, r, m, match_grid_obedience:
                      design.symmetric_moment(m, r, grid,
                                              match_grid_obedience)[0]),
        "explicit": ({"xi": (_array, ...), "zeta": (_array, ...),
                      "state_var": (_number, 1.0)},
                     lambda grid, r, xi, zeta, state_var:
                     moments.EquilibriumMoment(grid, Kernel(grid, xi),
                                               grid.function(zeta), state_var)),
    },
}


def _parse(section: str, cfg, *context, where: str = None):
    """Check ``cfg`` against ``_SCHEMA[section]`` and build its object with
    ``builder(*context, **values)``.  Returns (object, resolved section with
    every default filled in)."""
    where = where or section
    _object(cfg, where)
    kinds = _SCHEMA[section]
    kind = cfg.get("kind")
    if not isinstance(kind, (str, type(None))) or kind not in kinds:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    keys, build = kinds[kind]
    unknown = set(cfg) - set(keys) - ({"kind"} if kind else set())
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key, (_, default) in keys.items()
               if default is ... and key not in cfg]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    values = {key: parse(cfg[key], f"{where} '{key}'") if key in cfg
              else default for key, (parse, default) in keys.items()}
    resolved = {key: v for key, v in dict(values, kind=kind).items()
                if v is not None}
    return build(*context, **values), resolved


def _load_config(args) -> dict:
    """The command's top-level config section, checked against the schema."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {args.config}: {exc}") from exc
    return _parse(args.command, cfg, where=args.config)[0]


def _grid_config(grid: MeasureGrid) -> dict:
    return {"coords": grid.coords.tolist(), "weights": grid.weights.tolist()}


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
    cfg = _load_config(args)
    grid, _ = _parse("grid", cfg["grid"])
    K, kernel = _parse("kernel", cfg["kernel"], grid)
    report = kernels.spectral_report(K, r1_margin=cfg["r1_margin"])
    resolved = dict(cfg, command="spectral", grid=_grid_config(grid),
                    kernel=kernel)
    _emit({"config": resolved, "report": report.as_dict()}, args.out)
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    cfg = _load_config(args)
    grid, _ = _parse("grid", cfg["grid"])
    payoff, payoff_cfg = _parse("kernel", cfg["payoff"], grid, where="payoff")
    g, state = _parse("state", cfg["state"], grid, payoff)
    info, info_cfg = _parse("info", cfg["info"], g)
    eq = game.solve_linear_equilibrium(g, info)
    tol = args.tol if args.tol is not None else 1e-8
    mrep = game.verify_moment_restrictions(eq, g, tol=tol)
    resolved = {"command": "equilibrium", "grid": _grid_config(grid),
                "payoff": payoff_cfg, "state": state, "info": info_cfg,
                "method": "direct", "tol": tol}
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


def _cmd_moments(args) -> int:
    cfg = _load_config(args)
    grid, _ = _parse("grid", cfg["grid"])
    r = cfg["r"]
    mom, moment = _parse("moment", cfg["moment"], grid, r)
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
                "moment": moment, "obedience_tol": obed_tol}
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
    "config": dict(metavar="PATH", required=True,
                   help="JSON configuration file"),
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
