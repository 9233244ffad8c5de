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
import io
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

#: Most grid nodes a config may ask for.  With one signal per node, an info on
#: a grid this size stores 64 MiB of signal blocks; its PSD check factors at
#: most a 128 MiB joint covariance, and 32 MiB of it under a common state.
MAX_GRID_NODES = 2048

#: Most Monte Carlo draws ``mc`` may ask for.  Every check streams its draws,
#: so memory alone would not stop a run of days; this bound does.
MAX_DRAWS = 10 ** 8


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
_integer = _instance_of("an integer", int)      # argparse has parsed it


def _draws(value, where: str) -> int:
    if not 2 <= _integer(value, where) <= MAX_DRAWS:
        raise ConfigError(f"{where} must be at least 2 and at most "
                          f"{MAX_DRAWS}, got {value}")
    return value


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
# the design modes and mc checks: each runs and returns its report body,
# whose `passed`, where it has one, is the verdict; a body that is a list is
# a CSV table, its header row first

def _optimum(r, u, v, w):
    obj = DesignObjective(u, v, w)
    rep = design.optimal_targeted(r, obj)
    pub = design.public_optimum(r, obj)
    return {"regime": rep.regime, "m_star": rep.m_star, "v_star": rep.v_star,
            "alpha": rep.alpha, "beta": rep.beta,
            "public": {"z_star": pub.z_star, "v_pub": pub.v_pub,
                       "boundary": pub.boundary}}


def _diagram(**flags):
    rows = design.regime_diagram(flags["r"],
                                 (flags["alpha-min"], flags["alpha-max"]),
                                 (flags["beta-min"], flags["beta-max"]),
                                 flags["resolution"])
    return [("alpha", "beta", "regime", "m_star", "v_star"), *rows]


def _cournot(**flags):
    rep = design.cournot_policy(flags["lambda"], flags["gamma"])
    return {"u": rep.u, "v": rep.v, "w": rep.w, "r": rep.r,
            "regime": rep.regime, "m_star": rep.m_star, "v_star": rep.v_star,
            "full_disclosure": rep.full_disclosure}


def _audit(r, u, v, w, samples, seed, n):
    rep = design.global_optimality_audit(r, DesignObjective(u, v, w), samples,
                                         seed, n=n)
    return {"max_excess": rep.max_excess, "v_star": rep.v_star,
            "tol": rep.tol, "samples_checked": rep.samples,
            "passed": rep.passed}


def _aggregate(n, draws, seed):
    rng = np.random.default_rng(seed)
    grid = uniform_grid(n)
    mean = rng.normal(size=n)
    B = rng.normal(size=(n, 5))
    cov = B @ B.T + 0.1 * np.eye(n)
    rep = montecarlo.verify_process(grid, mean, cov, draws, seed,
                                    rng.normal(size=n), [0, n // 2])
    return {"mean_zscore": rep.mean.zscore,
            "variance_zscore": rep.variance.zscore,
            "exchange_residual": rep.exchange.statistic,
            "conditional_discrepancy": rep.conditional.statistic,
            "passed": rep.passed}


def _duplicate(n, r, draws, seed):
    grid = uniform_grid(n)
    g = game.common_state_game(grid, kernels.constant_kernel(grid, r), 1.0, 1.0)
    rep = montecarlo.duplicate_equilibria(g, d=draws, seed=seed)
    return {"eigenvalue": rep.eigenvalue, "distance": rep.distance,
            "passed": rep.passed}


def _bm(n, draws, seed):
    return checks.check_bm_example(n=n, draws=draws, seed=seed).as_dict()


# ---------------------------------------------------------------------------
# the config schema and its one parser

_OBJECTIVE = {"r": (_number, 0.5), "u": (_number, 0.0), "v": (_number, 1.0),
              "w": (_number, 0.0)}
_DRAWS = {"draws": (_draws, 100_000), "seed": (_integer, 0)}

#: section -> kind -> ({key: (type, default)}, builder); a section without
#: kinds has the single kind None.  A default of ``...`` marks a required key;
#: a default of None lets the key be left out, and the resolved section then
#: leaves it out too.  The kinds of ``design`` and ``mc`` are their modes,
#: and their keys are flags, which argparse parses as their default's type.
_SCHEMA = {
    "spectral": {None: ({"grid": (_object, ...), "kernel": (_object, ...)},
                        dict)},
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
                                              match_grid_obedience)),
        "explicit": ({"xi": (_array, ...), "zeta": (_array, ...),
                      "state_var": (_number, 1.0)},
                     lambda grid, r, xi, zeta, state_var:
                     moments.common_state_moment(Kernel(grid, xi), zeta, state_var)),
    },
    "design": {
        "optimum": (_OBJECTIVE, _optimum),
        "diagram": ({"r": (_number, 0.5), "alpha-min": (_number, -2.0),
                     "alpha-max": (_number, 2.0), "beta-min": (_number, -2.0),
                     "beta-max": (_number, 2.0), "resolution": (_integer, 101)},
                    _diagram),
        "cournot": ({"lambda": (_number, 0.5), "gamma": (_number, 2.0)},
                    _cournot),
        "audit": (dict(_OBJECTIVE, samples=(_integer, 200), seed=(_integer, 0),
                       n=(_node_count, 100)), _audit),
    },
    "mc": {
        "aggregate": (dict(n=(_node_count, 40), **_DRAWS), _aggregate),
        "duplicate": (dict(n=(_node_count, 40), r=(_number, 2.0), **_DRAWS),
                      _duplicate),
        # the bm example's private noises sum to zero, which needs two nodes
        "bm": (dict(n=(lambda value, where: _node_count(value, where, 2), 40),
                    **_DRAWS), _bm),
    },
}


def _parse(section: str, cfg, *context, where: str = None,
           flags: bool = False):
    """Check ``cfg`` against ``_SCHEMA[section]`` and build its object with
    ``builder(*context, **values)``.  Returns (object, resolved section with
    every default filled in).  With ``flags``, an error names a key as the
    flag ``--key``."""
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
    values = {key: parse(cfg[key], f"--{key}" if flags else f"{where} '{key}'")
              if key in cfg else default
              for key, (parse, default) in keys.items()}
    resolved = {key: v for key, v in dict(values, kind=kind).items()
                if v is not None}
    try:
        return build(*context, **values), resolved
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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


# ---------------------------------------------------------------------------
# atomic artifact writing

def _atomic_write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path`` (a temporary file, then a rename), or to
    stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
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


def _non_finite(obj, where: str = ""):
    """The path (``report.x``, ``loadings.0.1``) of the first non-finite
    number in ``obj``, or None."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        obj = dict(enumerate(obj))
    if not isinstance(obj, dict):
        return where if isinstance(obj, float) and not math.isfinite(obj) else None
    found = (_non_finite(v, f"{where}.{k}" if where else k) for k, v in obj.items())
    return next(filter(None, found), None)


def _emit(payload: dict, out: str | None, passed: bool = True) -> int:
    """Write the JSON report; return the exit code of its verdict."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=_json_default) + "\n"
    except ValueError:
        # a non-finite number is not JSON: the inputs overflowed, an input error
        raise ValueError(f"result {_non_finite(payload)} is not finite; an "
                         "input is out of floating-point range") from None
    _atomic_write(out, text)
    return EXIT_OK if passed else EXIT_VERIFY


def _emit_csv(rows, out: str | None) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _atomic_write(out, buf.getvalue())


# ---------------------------------------------------------------------------
# subcommands

def _cmd_spectral(args) -> int:
    cfg = _load_config(args)
    grid, _ = _parse("grid", cfg["grid"])
    K, kernel = _parse("kernel", cfg["kernel"], grid)
    report = kernels.spectral_report(K)
    resolved = dict(cfg, command="spectral", grid=_grid_config(grid),
                    kernel=kernel)
    return _emit({"config": resolved, "report": report.as_dict()}, args.out)


def _cmd_equilibrium(args) -> int:
    cfg = _load_config(args)
    grid, _ = _parse("grid", cfg["grid"])
    payoff, payoff_cfg = _parse("kernel", cfg["payoff"], grid, where="payoff")
    g, state = _parse("state", cfg["state"], grid, payoff)
    info, info_cfg = _parse("info", cfg["info"], g)
    eq = game.solve_linear_equilibrium(g, info)
    mrep = game.verify_moment_restrictions(eq, g)
    resolved = {"command": "equilibrium", "grid": _grid_config(grid),
                "payoff": payoff_cfg, "state": state, "info": info_cfg}
    payload = {
        "config": resolved,
        "intercepts": eq.intercepts.values.tolist(),
        "loadings": [c.tolist() for c in eq.loadings],
        "induced_mean": eq.induced_mean.values.tolist(),
        "action_cov": eq.moment.xi.values.tolist(),
        "action_state_cov": eq.moment.zeta.values.tolist(),
        "moment_residual": mrep.max_residual,
        "mean_residual": float(mrep.moment1_residuals.max()),
        "mean_tol": mrep.moment1_tol,
        "obedience_residual": float(mrep.moment2_residuals.max()),
        "obedience_tol": mrep.moment2_tol,
        "moment_check_passed": mrep.passed,
    }
    return _emit(payload, args.out, mrep.passed)


def _cmd_moments(args) -> int:
    cfg = _load_config(args)
    grid, _ = _parse("grid", cfg["grid"])
    r = cfg["r"]
    mom, moment = _parse("moment", cfg["moment"], grid, r)
    rep = moments.bounds_check(mom, r)
    # the bounds are theorems about feasible moments; report them only for one
    bounds = None
    if rep.feasible:
        bounds = {"cauchy_slack": rep.cauchy_slack,
                  "diag_slack": rep.diag_slack,
                  "ceiling_slack": rep.ceiling_slack,
                  "tol": rep.tol, "passed": rep.passed}
    resolved = {"command": "moments", "grid": _grid_config(grid), "r": r,
                "moment": moment}
    payload = {
        "config": resolved,
        "obedience_residual": rep.obedience_residual,
        "obedience_tol": rep.obedience_tol,
        "positivity_ok": rep.positivity_ok,
        "bounds": bounds,
        "passed": rep.passed,
    }
    return _emit(payload, args.out, rep.passed)


def _cmd_mode(args, selector: str, **extra) -> int:
    """Run the ``design`` mode or ``mc`` check that ``--<selector>`` names;
    ``extra`` joins the report's config."""
    mode = getattr(args, selector)
    given = {key: value for key, value in vars(args).items()
             if key not in ("command", "out", selector)}
    body, config = _parse(args.command, dict(given, kind=mode),
                          where=f"{args.command} --{selector} {mode}",
                          flags=True)
    if isinstance(body, list):
        _emit_csv(body, args.out)
        return EXIT_OK
    del config["kind"]
    config.update(extra, command=args.command, **{selector: mode})
    return _emit({"config": config, **body}, args.out, body.get("passed", True))


def _cmd_reproduce_all(args) -> int:
    outdir = args.outdir
    os.makedirs(outdir, exist_ok=True)
    results, elapsed = checks.run_all(quick=args.quick)
    manifest = {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "quick": bool(args.quick),
        "elapsed_seconds": elapsed,
        "battery_seconds": {r.name: r.seconds for r in results},
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
    "out": dict(metavar="PATH", help="output artifact (defaults to stdout)"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="kernelgames",
                     description="Large-population kernel-interaction games: "
                                 "spectra, equilibria, moments, disclosure "
                                 "design, and stochastic verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, flags, summary, selector=None):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        if selector:
            # every flag of any mode; _parse refuses the others
            modes = _SCHEMA[name]
            p.add_argument(f"--{selector}", required=True, choices=tuple(modes))
            defaults = {flag: default for keys, _ in modes.values()
                        for flag, (_, default) in keys.items()}
            for flag, default in defaults.items():
                p.add_argument(f"--{flag}", dest=flag, type=type(default),
                               default=argparse.SUPPRESS)
        return p

    subcommand("spectral", ("config", "out"),
               "spectral report for a kernel on a grid")
    subcommand("equilibrium", ("config", "out"),
               "solve and verify a linear equilibrium")
    subcommand("moments", ("config", "out"),
               "obedience, positivity and bounds for a moment")
    subcommand("design", ("out",), "optimal disclosure analysis", "mode")
    subcommand("mc", ("out",), "seeded stochastic verification", "check")
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
    "design": lambda args: _cmd_mode(args, "mode"),
    "mc": lambda args: _cmd_mode(args, "check",
                                 generator_id=montecarlo.GENERATOR_ID),
    "reproduce-all": _cmd_reproduce_all,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # a FloatingPointError is one error line, not a warning before one
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _DISPATCH[args.command](args)
    except (ValueError, ArithmeticError, KernelGamesError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
