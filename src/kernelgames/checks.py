"""Verification batteries bundling the library's end-to-end guarantees.

Each check returns a :class:`CheckResult` with a pass flag and summary
statistics.  The acceptance test suite runs them at full scale; the CLI's
``reproduce-all`` command runs the same code with reduced sample counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import design, game, kernels, moments, montecarlo
from .errors import NoConvergence
from .grid import MeasureGrid, uniform_grid
from .kernels import Kernel, constant_kernel, unidirectional_kernel
from .moments import DesignObjective


@dataclass
class CheckResult:
    name: str
    passed: bool
    stats: dict = field(default_factory=dict)
    seconds: float = 0.0    # wall time, set by ``run_all``; not in ``as_dict``

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "stats": {k: (float(v) if isinstance(v, (int, float, np.floating))
                              else v) for k, v in self.stats.items()}}


# 1 ------------------------------------------------------------------------
def check_targeted_optimum(triples: int = 10_000, points: int = 1_000_000,
                           seed: int = 20_260_823) -> CheckResult:
    """Closed-form targeted optimum vs the exact grid scan of V_tg."""
    rng = np.random.default_rng(seed)
    worst_value = 0.0
    worst_arg = 0.0
    ok = True
    for _ in range(triples):
        r = rng.uniform(-2.0, 0.75)
        alpha = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        obj = DesignObjective.from_alpha_beta(alpha, beta)
        rep = design.optimal_targeted(r, obj)
        m_scan, v_scan = design.targeted_grid_scan(r, obj, points)
        dv = abs(rep.v_star - v_scan) / (1.0 + abs(rep.v_star))
        worst_value = max(worst_value, dv)
        if dv > 1e-9:
            ok = False
        if rep.regime != "boundary":
            da = abs(rep.m_star - m_scan)
            worst_arg = max(worst_arg, da)
            if da > 2.0 / (points - 1):     # two grid steps
                ok = False
    return CheckResult("targeted_optimum", ok,
                       {"worst_value_dev": worst_value,
                        "worst_argmax_dev": worst_arg,
                        "triples": triples, "points": points})


# 2 ------------------------------------------------------------------------
def _moment_devs(a: moments.EquilibriumMoment, b: moments.EquilibriumMoment):
    """The largest entry gaps (max |xi_a - xi_b|, max |zeta_a - zeta_b|)."""
    return (float(np.max(np.abs(a.xi.values - b.xi.values))),
            float(np.max(np.abs(a.zeta.values - b.zeta.values))))


def check_targeted_equilibrium(n: int = 200) -> CheckResult:
    """Solved equilibrium under targeted information vs the closed forms."""
    grid = uniform_grid(n)
    worst = 0.0
    for r in (-2.0, 0.0, 0.5, 0.9):
        g = game.common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
        for m in (0.0, 0.25, 0.5, 1.0):
            k = int(round(m * n))
            members = np.arange(k)
            info = game.targeted_info(g, members)
            eq = game.solve_linear_equilibrium(g, info)
            target = design.targeted_equilibrium_moment(members, r, grid)
            worst = max(worst, *_moment_devs(eq.moment, target))
    return CheckResult("targeted_equilibrium", worst <= 1e-8,
                       {"worst_entry_dev": worst, "n": n})


# 3 ------------------------------------------------------------------------
def check_global_audit(samples: int = 500, n: int = 100,
                       seed: int = 7) -> CheckResult:
    """Feasible moments never beat the targeted optimum, per regime."""
    cases = {
        "T1": (0.5, -1.0, 0.0),
        "T2": (0.5, 1.0, 1.0),
        "T3": (0.5, 1.0, 0.5),
    }
    stats = {}
    ok = True
    for regime, (r, alpha, beta) in cases.items():
        obj = DesignObjective.from_alpha_beta(alpha, beta)
        rep = design.optimal_targeted(r, obj)
        if rep.regime != regime:
            ok = False
        audit = design.global_optimality_audit(r, obj, samples, seed, n=n)
        stats[f"excess_{regime}"] = audit.max_excess
        ok = ok and audit.passed
    return CheckResult("global_audit", ok, dict(stats, samples=samples, n=n))


# 4 ------------------------------------------------------------------------
def check_symmetric_equivalence(ns=(100, 200, 400)) -> CheckResult:
    """Symmetric-disclosure value equals the targeted value (after Richardson
    extrapolation in n) and the constructed signal reproduces its moment."""
    r = 0.5
    obj = DesignObjective(1.0, -0.3, 0.7)
    worst_rel = 0.0
    worst_round = 0.0
    for m in (0.3, 0.5, 0.9):
        target = design.targeted_value(m, r, obj)
        vals = []
        for n in ns:
            grid = uniform_grid(n)
            mom = design.symmetric_moment(m, r, grid)
            vals.append(moments.objective_value(mom, obj))
        # fit V_n = a + b / n and extrapolate to the continuum
        A = np.vstack([np.ones(len(ns)), 1.0 / np.asarray(ns, float)]).T
        coef, *_ = np.linalg.lstsq(A, np.asarray(vals), rcond=None)
        worst_rel = max(worst_rel, abs(coef[0] - target) / (1.0 + abs(target)))
        # round trip through the canonical signal construction
        grid = uniform_grid(ns[0])
        mom = design.symmetric_moment(m, r, grid, match_grid_obedience=True)
        g = game.common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
        info = moments.construct_canonical_signals(mom, g)
        eq = game.solve_linear_equilibrium(g, info)
        worst_round = max(worst_round, *_moment_devs(eq.moment, mom))
    ok = worst_rel <= 1e-4 and worst_round <= 1e-8
    return CheckResult("symmetric_equivalence", ok,
                       {"worst_rel_dev": worst_rel,
                        "worst_round_trip": worst_round})


# 5 ------------------------------------------------------------------------
def check_public_gap(points: int = 200, seed: int = 11) -> CheckResult:
    """Public disclosure strictly loses whenever partial disclosure wins."""
    rng = np.random.default_rng(seed)
    found = 0
    min_gap = math.inf
    ok = True
    while found < points:
        r = rng.uniform(-2.0, 0.9)
        alpha = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        obj = DesignObjective.from_alpha_beta(alpha, beta)
        rep = design.optimal_targeted(r, obj)
        if rep.regime != "T2":
            continue
        found += 1
        pub = design.public_optimum(r, obj)
        analytic_gap = (alpha ** 2 / (4.0 * (beta - r * alpha))
                        - max(0.0, (alpha - beta) / (1.0 - r) ** 2))
        gap = rep.v_star - pub.v_pub
        min_gap = min(min_gap, gap)
        if gap < analytic_gap - 1e-9 or gap <= 0.0:
            ok = False
    return CheckResult("public_gap", ok,
                       {"min_gap": min_gap, "t2_points": found})


# 6 ------------------------------------------------------------------------
def check_cournot_raster(resolution: int = 200) -> CheckResult:
    """Full-vs-partial disclosure boundary gamma = 4/lambda - 3 on a raster."""
    lams = np.linspace(0.005, 1.0, resolution)
    gams = np.linspace(0.05, 10.0, resolution)
    dlam = lams[1] - lams[0]
    dgam = gams[1] - gams[0]
    mis = 0
    checked = 0
    for lam in lams:
        g_star = 4.0 / lam - 3.0
        for gam in gams:
            # exempt cells within one raster step of the analytic boundary
            if abs(gam - g_star) <= dgam + (4.0 / lam ** 2) * dlam:
                continue
            checked += 1
            analytic_full = gam <= g_star
            obj = DesignObjective(1.0 - lam - lam * gam, -lam / 2.0, lam)
            rep = design.optimal_targeted(-gam, obj)
            report_full = rep.regime == "T3"
            if analytic_full != report_full:
                mis += 1
    return CheckResult("cournot_raster", mis == 0,
                       {"misclassified": mis, "interior_cells": checked,
                        "resolution": resolution})


# 7 ------------------------------------------------------------------------
def _random_r1_game(rng: np.random.Generator, n: int):
    values = rng.uniform(-0.9, 0.9, size=(n, n))
    if rng.uniform() < 0.5:
        values = 0.5 * (values + values.T)
    kern = Kernel(uniform_grid(n), values)
    return game.common_state_game(kern.grid, kern, float(rng.normal()), 1.0)


def _fixed_point_loadings(A: np.ndarray, rhs: np.ndarray,
                          initial: np.ndarray) -> np.ndarray:
    """Oracle for the dense solve: iterate c <- A c + rhs from ``initial``
    until a step is at most 1e-12 (1 + max|c|), which happens under (R1)."""
    c = np.asarray(initial, float)
    bound = 1e12 * (1.0 + float(np.max(np.abs(rhs), initial=0.0)))
    for _ in range(100_000):
        c_next = A @ c + rhs
        if not np.all(np.isfinite(c_next)) or np.max(np.abs(c_next)) > bound:
            raise NoConvergence(f"fixed-point iteration diverged: max|c| = "
                                f"{np.max(np.abs(c_next)):.3e} above {bound:.1e}")
        step = np.max(np.abs(c_next - c))
        c = c_next
        if step <= 1e-12 * (1.0 + np.max(np.abs(c))):
            break
    else:
        raise NoConvergence(f"fixed-point iteration cap reached: step 100,000 was "
                            f"{step:.3e} > {1e-12 * (1.0 + np.max(np.abs(c))):.1e}")
    game._require_fixed_point(A, rhs, c, "loadings", NoConvergence)
    return c


def check_uniqueness(n_games: int = 20, n: int = 25, starts: int = 5,
                     dup_draws: int = 100_000, seed: int = 123) -> CheckResult:
    """Dense solve and fixed-point iteration agree under (R1); above eigenvalue
    one, the duplicate construction yields two audited equilibria."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(n_games):
        g = _random_r1_game(rng, n)
        if not kernels.check_r1(g.payoff):
            ok = False
            continue
        info = design._random_info(g, rng)
        A, rhs = game._coefficient_system(g, info)
        ref = game._solve_fixed_point(A, rhs, "loadings", NoConvergence)
        for _ in range(starts):
            c = _fixed_point_loadings(A, rhs, rng.normal(size=ref.size))
            worst = max(worst, float(np.max(np.abs(c - ref))))
        if worst > 1e-7:
            ok = False
    # multiplicity side: payoff operators with a real eigenvalue >= 1
    dup_ok = True
    dists = []
    grid = uniform_grid(20)
    for i, r in enumerate((2.0, 1.5, 1.0)):
        g = game.common_state_game(grid, constant_kernel(grid, r), 1.0, 1.0)
        rep = montecarlo.duplicate_equilibria(g, d=dup_draws, seed=1000 + i)
        dup_ok = dup_ok and rep.passed
        dists.append(rep.distance)
    ok = ok and dup_ok
    return CheckResult("uniqueness", ok,
                       {"worst_solver_dev": worst, "dup_passed": dup_ok,
                        "min_dup_distance": min(dists)})


# 8 ------------------------------------------------------------------------
def _random_kernel(rng: np.random.Generator) -> Kernel:
    n = int(rng.integers(5, 50))
    grid = uniform_grid(n)
    values = rng.normal(size=(n, n))
    if rng.uniform() < 0.5:
        values = 0.5 * (values + values.T)
    return Kernel(grid, values)


def check_spectral_suite(n_kernels: int = 50, n_pairs: int = 100,
                         seed: int = 404) -> CheckResult:
    """Numerical-range containment chain, similarity of the two operator
    conventions, the Hadamard-product eigenvalue bound, and the vanishing
    spectrum of the one-directional kernel."""
    rng = np.random.default_rng(seed)
    ok = True
    worst_chain = -math.inf
    for _ in range(n_kernels):
        K = _random_kernel(rng)
        eigs = kernels.eigenvalues(K)
        nr_inf, nr_sup = kernels.numerical_range_bounds(K)
        opn = kernels.operator_norm_bound(K)
        scale = 1.0 + float(np.max(np.abs(eigs)))
        slack = 1e-9 * scale
        chain = (float(eigs.real.max()) <= nr_sup + slack
                 and float(eigs.real.min()) >= nr_inf - slack
                 and nr_sup <= opn + slack and nr_inf >= -opn - slack)
        if not chain:
            ok = False
        worst_chain = max(worst_chain, float(eigs.real.max()) - nr_sup)
        if K.undirected and abs(nr_sup - float(eigs.real.max())) > slack:
            ok = False
        # similarity: spectrum of K W equals spectrum of W^1/2 K W^1/2
        alt = np.linalg.eigvals(kernels._weighted_symmetrized(K))
        a = np.sort_complex(np.linalg.eigvals(kernels.operator_matrix(K)))
        b = np.sort_complex(alt)
        if np.max(np.abs(a - b)) > 1e-7 * scale:
            ok = False
    # Hadamard bound
    violations = 0
    for _ in range(n_pairs):
        n = int(rng.integers(5, 40))
        grid = uniform_grid(n)
        B = rng.normal(size=(n, n + 2))
        G = B @ B.T
        d = np.sqrt(np.diag(G))
        corr = G / np.outer(d, d)
        K = Kernel(grid, 0.5 * (corr + corr.T))
        Rv = rng.normal(size=(n, n))
        R = Kernel(grid, Rv)
        sup = kernels.numerical_range_bounds(R)[1]
        if sup >= 1.0:
            R = Kernel(grid, Rv * (0.95 / sup / 1.0001))
        max_eig, bound, holds = kernels.hadamard_eigen_bound(K, R)
        if not holds or max_eig >= 1.0:
            violations += 1
    ok = ok and violations == 0
    # one-directional kernel spectrum decay
    decay_ok = True
    r = 0.7
    for n in (100, 400):
        K = unidirectional_kernel(uniform_grid(n), r)
        lam_max = float(np.max(np.abs(kernels.eigenvalues(K))))
        if lam_max > 10.0 * r / n:
            decay_ok = False
    ok = ok and decay_ok
    return CheckResult("spectral_suite", ok,
                       {"worst_eig_minus_sup": worst_chain,
                        "hadamard_violations": violations,
                        "unidirectional_decay_ok": decay_ok})


# 9 ------------------------------------------------------------------------
def check_pettis(n_procs: int = 20, draws: int = 100_000, seed: int = 99) -> CheckResult:
    """Aggregation identities: exact covariance-exchange and conditional
    aggregation, stochastic mean/variance of the aggregate."""
    rng = np.random.default_rng(seed)
    n = 40      # nodes of each sampled process
    grid = uniform_grid(n)
    ok = True
    worst_exact = 0.0
    worst_z = 0.0
    for i in range(n_procs):
        mean = rng.normal(size=n)
        B = rng.normal(size=(n, 5))
        cov = B @ B.T + 0.1 * np.eye(n)
        rep = montecarlo.verify_process(
            grid, mean, cov, draws, seed + i, rng.normal(size=n),
            rng.choice(n, size=3, replace=False))
        worst_exact = max(worst_exact, rep.exchange.statistic,
                          rep.conditional.statistic)
        worst_z = max(worst_z, abs(rep.mean.zscore), abs(rep.variance.zscore))
        ok = ok and rep.passed
    return CheckResult("pettis_calculus", ok,
                       {"worst_exact_residual": worst_exact,
                        "worst_zscore": worst_z})


# 10 -----------------------------------------------------------------------
def _bm_fixed_point_oracle(mu, vt, vx, vy, r, s, k):
    """Independent iteration of the matching map for the symmetric example."""
    prec = 1.0 / vt + 1.0 / vx + 1.0 / vy
    g_t, g_x, g_y = (1.0 / vt) / prec, (1.0 / vx) / prec, (1.0 / vy) / prec
    a0 = ax = ay = 0.0
    for _ in range(10_000):
        t = r * ax + s
        a0 = r * a0 + k + t * g_t * mu
        ax = t * g_x
        ay = t * g_y + r * ay
    return a0, ax, ay


def _bm_discretized(n, mu, vt, vx, vy, r, s, k):
    """The symmetric example on ``n`` nodes: theta_tilde = s theta + k, and
    each node sees its private x_i and the public y (two signals)."""
    grid = uniform_grid(n)
    g = game.common_state_game(grid, constant_kernel(grid, r), s * mu + k,
                               s * s * vt)
    N = vx * n / (n - 1) * (np.eye(n) - np.full((n, n), 1.0 / n))
    D = 2 * n
    # each signal is theta + noise: covariance vt off the x-x and y-y blocks
    sig_cov = np.full((D, D), vt)
    xi_idx = np.arange(0, D, 2)
    y_idx = np.arange(1, D, 2)
    sig_cov[np.ix_(xi_idx, xi_idx)] = vt + N
    sig_cov[np.ix_(y_idx, y_idx)] = vt + vy
    info = game.info_from_parts(g, np.full(n, 2, int), np.full(D, mu), sig_cov,
                                np.full((D, n), s * vt))
    return g, info


def check_bm_example(n: int = 200, draws: int = 50_000,
                     seed: int = 55) -> CheckResult:
    """Symmetric LQG example: closed form, fixed-point oracle, discretized
    solve, moment restrictions, and the standard-deviation identity."""
    mu, vt, vx, vy, r, s, k = 0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.0
    bm = montecarlo.bm_example_equilibrium(mu, vt, vx, vy, r, s, k)
    hand = np.array([0.0, 0.2, 0.4])
    dev_hand = float(np.max(np.abs(np.array([bm.alpha0, bm.alpha_x, bm.alpha_y])
                                   - hand)))
    o0, ox, oy = _bm_fixed_point_oracle(mu, vt, vx, vy, r, s, k)
    dev_oracle = max(abs(bm.alpha0 - o0), abs(bm.alpha_x - ox),
                     abs(bm.alpha_y - oy))
    dev_vd = max(abs(bm.volatility - 0.52), abs(bm.dispersion - 0.04))

    g, info = _bm_discretized(n, mu, vt, vx, vy, r, s, k)
    eq = game.solve_linear_equilibrium(g, info)
    dev_disc = max(
        float(np.max(np.abs(np.array([c[0] for c in eq.loadings]) - bm.alpha_x))),
        float(np.max(np.abs(np.array([c[1] for c in eq.loadings]) - bm.alpha_y))),
        float(np.max(np.abs(eq.intercepts.values - bm.alpha0))))
    mrep = game.verify_moment_restrictions(eq, g)
    audit = montecarlo.best_response_audit(eq, g, d=draws, seed=seed)

    # standard-deviation identity on the closed-form moments of a node pair
    grid2 = MeasureGrid([0.25, 0.75], [0.5, 0.5])
    var_a = bm.volatility + bm.dispersion
    xi2 = np.array([[var_a, bm.volatility], [bm.volatility, var_a]])
    zeta2 = np.full(2, s * (bm.alpha_x + bm.alpha_y) * vt)
    ident = moments.symmetric_moment_identity(
        moments.common_state_moment(Kernel(grid2, xi2), zeta2, s * s * vt), r)

    ok = (dev_hand <= 1e-9 and dev_oracle <= 1e-9 and dev_vd <= 1e-9
          and dev_disc <= 1e-6 and mrep.passed and ident <= 1e-8 and audit.passed)
    return CheckResult("bm_example", ok,
                       {"dev_hand": dev_hand, "dev_oracle": dev_oracle,
                        "dev_discretized": dev_disc,
                        "moment_residual": mrep.max_residual,
                        "sd_identity_residual": ident,
                        "audit_passed": audit.passed})


# 11 -----------------------------------------------------------------------
def check_feasibility_necessity(n_eqs: int = 100, seed: int = 314) -> CheckResult:
    """Every solver-produced equilibrium moment passes obedience, positivity
    and all three bounds."""
    rng = np.random.default_rng(seed)
    ok = True
    worst_obed = 0.0
    worst_slack = math.inf
    rs = (-2.0, 0.0, 0.5, 0.9)
    grid = uniform_grid(40)
    games = [game.common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
             for r in rs]
    for i in range(n_eqs):
        r, g = rs[i % len(rs)], games[i % len(rs)]
        info = design._random_info(g, rng)
        eq = game.solve_linear_equilibrium(g, info)
        rep = moments.bounds_check(eq.moment, r)
        worst_obed = max(worst_obed, rep.obedience_residual)
        worst_slack = min(worst_slack, rep.cauchy_slack, rep.diag_slack,
                          rep.ceiling_slack)
        ok = ok and rep.passed
    return CheckResult("feasibility_necessity", ok,
                       {"worst_obedience": worst_obed,
                        "min_bound_slack": worst_slack, "equilibria": n_eqs})


ALL_CHECKS = {
    "targeted_optimum": check_targeted_optimum,
    "targeted_equilibrium": check_targeted_equilibrium,
    "global_audit": check_global_audit,
    "symmetric_equivalence": check_symmetric_equivalence,
    "public_gap": check_public_gap,
    "cournot_raster": check_cournot_raster,
    "uniqueness": check_uniqueness,
    "spectral_suite": check_spectral_suite,
    "pettis_calculus": check_pettis,
    "bm_example": check_bm_example,
    "feasibility_necessity": check_feasibility_necessity,
}

#: reduced-size keyword arguments used by the CLI reproduction run
QUICK_KWARGS = {
    "targeted_optimum": dict(triples=300, points=200_001),
    "targeted_equilibrium": dict(n=80),
    "global_audit": dict(samples=60, n=50),
    "symmetric_equivalence": dict(ns=(50, 100, 200)),
    "public_gap": dict(points=50),
    "cournot_raster": dict(resolution=60),
    "uniqueness": dict(n_games=5, dup_draws=20_000),
    "spectral_suite": dict(n_kernels=15, n_pairs=25),
    "pettis_calculus": dict(n_procs=5, draws=30_000),
    "bm_example": dict(n=120, draws=20_000),
    "feasibility_necessity": dict(n_eqs=24),
}


def run_all(quick: bool = False):
    """Run every check, recording each one's ``seconds``; returns (results,
    elapsed seconds)."""
    results = []
    t0 = time.perf_counter()
    for name, fn in ALL_CHECKS.items():
        kwargs = QUICK_KWARGS.get(name, {}) if quick else {}
        start = time.perf_counter()
        res = fn(**kwargs)
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results, time.perf_counter() - t0
