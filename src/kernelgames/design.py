"""Optimal information disclosure for constant-interaction games.

The designer picks a Gaussian signal structure to maximize the quadratic
objective V = u * double-int xi + v * int xi(t,t) + w * int zeta over moments
that some equilibrium can induce, for the normalized common state N(0, 1) and
constant payoff kernel r < 1.  With alpha = v + w and beta = r w - u, the
value of revealing the state to a set of mass m ("targeted disclosure") is

    V_tg(m) = (alpha m - beta m^2) / (1 - r m)^2,

and maximizing V_tg over m is globally optimal among all structures.  The
parameter space splits into three regimes: no disclosure (T1), an interior
optimum (T2), and full disclosure (T3).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .game import BasicGame, GaussianInfo, common_state_game, info_from_parts, \
    solve_linear_equilibrium
from .grid import MeasureGrid, uniform_grid
from .kernels import Kernel, constant_kernel
from .moments import DesignObjective, EquilibriumMoment, objective_value

#: tie tolerance for regime boundary classification
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class RegimeReport:
    regime: str       # one of T1, T2, T3, boundary
    m_star: float
    v_star: float
    alpha: float
    beta: float
    r: float


def targeted_value(m: float, r: float, obj: DesignObjective) -> float:
    """V_tg(m) = (alpha m - beta m^2) / (1 - r m)^2."""
    if not 0.0 <= m <= 1.0:
        raise ValueError("m must lie in [0, 1]")
    if r >= 1.0:
        raise ValueError("r must be below 1")
    a, b = obj.alpha, obj.beta(r)
    den = 1.0 - r * m
    return (a * m - b * m * m) / (den * den)


def optimal_targeted(r: float, obj: DesignObjective) -> RegimeReport:
    """Closed-form optimum of targeted disclosure with regime classification.

    T1 (no disclosure):  alpha <= 0 and alpha <= beta          -> m* = 0
    T2 (partial):        alpha > 0 and beta > (1+r)/2 * alpha  -> interior m*
    T3 (full):           alpha >= beta and beta <= (1+r)/2 * alpha -> m* = 1
    The knife-edge alpha = beta <= 0 admits both m = 0 and m = 1 and is
    reported as 'boundary'.
    """
    if r >= 1.0:
        raise ValueError("r must be below 1")
    a, b = obj.alpha, obj.beta(r)
    scale = 1.0 + abs(a) + abs(b)
    if abs(a - b) <= BOUNDARY_TOL * scale and a <= BOUNDARY_TOL * scale:
        return RegimeReport("boundary", 0.0, 0.0, a, b, r)
    if a <= 0.0 and a <= b:
        return RegimeReport("T1", 0.0, 0.0, a, b, r)
    if a > 0.0 and b > 0.5 * (1.0 + r) * a:
        m_star = a / (2.0 * b - r * a)
        v_star = a * a / (4.0 * (b - r * a))
        return RegimeReport("T2", m_star, v_star, a, b, r)
    # remaining region: alpha >= beta and beta <= (1+r)/2 alpha
    return RegimeReport("T3", 1.0, (a - b) / ((1.0 - r) * (1.0 - r)), a, b, r)


#: points per chunk of the numpy scan: the index base and three float buffers
#: of this size (1 MB) stay in cache
_SCAN_CHUNK = 32_768


def _scan_kernel_py(r, a, b, points):
    """First maximum (j, v) of V_tg over m = j / (points - 1).

    Each chunk is written in place into preallocated buffers, with the same
    operations in the same order as the one-shot expression
    (a*m - b*m*m) / ((1 - r*m)**2), so the result is bit-identical to
    ``np.argmax`` over the whole grid.
    """
    step = 1.0 / (points - 1)
    size = min(_SCAN_CHUNK, points)
    base = np.arange(size, dtype=float)
    m_buf, v_buf, d_buf = np.empty(size), np.empty(size), np.empty(size)
    best_v = -math.inf
    best_j = 0
    for start in range(0, points, size):
        k = min(size, points - start)
        m, v, d = m_buf[:k], v_buf[:k], d_buf[:k]
        np.add(base[:k], start, out=m)
        np.multiply(m, step, out=m)
        np.multiply(m, a, out=v)               # a*m
        np.multiply(m, b, out=d)
        np.multiply(d, m, out=d)               # b*m*m
        np.subtract(v, d, out=v)
        np.multiply(m, r, out=d)
        np.subtract(1.0, d, out=d)             # den = 1 - r*m
        np.multiply(d, d, out=d)
        np.divide(v, d, out=v)
        j = int(np.argmax(v))
        if v[j] > best_v:
            best_v = float(v[j])
            best_j = start + j
    return best_j, best_v


_scan_kernel_jit = None  # no compiled scan; perfbench/run.py reports the backend from it


def targeted_grid_scan(r: float, obj: DesignObjective,
                       points: int = 1_000_000) -> tuple:
    """Brute-force scan of V_tg over an equispaced m grid; returns (m, value)
    at the first grid maximum; ``points`` must be an integer >= 2."""
    if not isinstance(points, numbers.Integral) or points < 2:
        raise ValueError(f"points = {points!r}: the scan needs an integer >= 2")
    if r >= 1.0:
        raise ValueError("r must be below 1")
    a, b = obj.alpha, obj.beta(r)
    j, best_v = _scan_kernel_py(float(r), float(a), float(b), int(points))
    return j / (points - 1), float(best_v)


def targeted_equilibrium_moment(members, r: float,
                                grid: MeasureGrid) -> EquilibriumMoment:
    """Moment induced by revealing the state exactly to the node set M:
    xi = 1{s,t in M}/(1-rm)^2, zeta = 1{t in M}/(1-rm), m = nu(M).
    """
    if r >= 1.0:
        raise ValueError("r must be below 1")
    n = grid.n
    mask = np.zeros(n, dtype=bool)
    mask[grid.node_indices(members)] = True
    m = float(grid.weights[mask].sum())
    den = 1.0 - r * m
    xi = np.outer(mask, mask) / (den * den)
    zeta = mask / den
    return EquilibriumMoment(grid, Kernel(grid, xi),
                             grid.function(zeta.astype(float)), 1.0)


def symmetric_moment(m: float, r: float, grid: MeasureGrid,
                     match_grid_obedience: bool = False) -> EquilibriumMoment:
    """Symmetric-disclosure moment: xi has diagonal xi1 = m/(1-rm)^2 and
    off-diagonal xi2 = m^2/(1-rm)^2, zeta = m/(1-rm) everywhere.

    The continuum values satisfy the obedience identity xi1 = r xi2 + zeta
    exactly; on a finite grid the quadrature row aggregate mixes in the
    diagonal cell and is off by O(1/n).
    With ``match_grid_obedience`` the diagonal level is re-solved so that the
    finite-grid obedience holds exactly (useful for signal-construction round
    trips); the off-diagonal level and zeta keep their closed forms.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError("m must lie in [0, 1]")
    if r >= 1.0:
        raise ValueError("r must be below 1")
    den = 1.0 - r * m
    xi1 = m / (den * den)
    xi2 = m * m / (den * den)
    zbar = m / den
    n = grid.n
    values = np.full((n, n), xi2)
    if match_grid_obedience:
        # solve xi1' = r [w_t xi1' + (1 - w_t) xi2] + zeta per node
        w = grid.weights
        diag = (r * (1.0 - w) * xi2 + zbar) / (1.0 - r * w)
    else:
        diag = np.full(n, xi1)
    np.fill_diagonal(values, diag)
    return EquilibriumMoment(grid, Kernel(grid, values), grid.constant(zbar), 1.0)


@dataclass(frozen=True)
class PublicReport:
    z_star: float
    v_pub: float
    boundary: bool  # alpha = beta: any z is optimal


def public_optimum(r: float, obj: DesignObjective) -> PublicReport:
    """Best public disclosure: value (alpha - beta) z/(1-r)^2, so z* in {0, 1}."""
    if r >= 1.0:
        raise ValueError("r must be below 1")
    a, b = obj.alpha, obj.beta(r)
    scale = 1.0 + abs(a) + abs(b)
    if abs(a - b) <= BOUNDARY_TOL * scale:
        return PublicReport(0.0, 0.0, True)
    if a > b:
        return PublicReport(1.0, (a - b) / ((1.0 - r) * (1.0 - r)), False)
    return PublicReport(0.0, 0.0, False)


# ---------------------------------------------------------------------------
# global-optimality audit

def _random_info(game: BasicGame, rng: np.random.Generator) -> GaussianInfo:
    """Random one-signal-per-agent Gaussian structure over a common state."""
    n = game.grid.n
    a = rng.normal(size=n)                # loading on the common state
    k = int(rng.integers(1, 6))
    B = rng.normal(size=(n, k)) / math.sqrt(k)
    theta_var = float(game.state_cov.values[0, 0])
    sig_cov = theta_var * np.outer(a, a) + B @ B.T
    cross = theta_var * np.outer(a, np.ones(n))
    return info_from_parts(game, np.ones(n, int), np.zeros(n), sig_cov, cross)


def moment_from_equilibrium(eq) -> EquilibriumMoment:
    return EquilibriumMoment(eq.grid, eq.induced_action_cov,
                             eq.induced_action_state_cov,
                             float(eq.info.state_cov.values[0, 0]))


@dataclass(frozen=True)
class AuditReport:
    max_excess: float
    v_star: float
    samples: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_excess <= self.tol


def global_optimality_audit(r: float, obj: DesignObjective, samples: int,
                            seed: int, n: int = 100) -> AuditReport:
    """Sample feasible equilibrium moments and verify none beats the targeted
    optimum.  Moments are generated constructively: random Gaussian structures
    solved through the equilibrium solver, plus random targeted / symmetric /
    public structures, all on the normalized common state.  No moment may
    exceed V* by more than 1e-6 (1 + |V*|).
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    report = optimal_targeted(r, obj)
    v_star = report.v_star
    grid = uniform_grid(n)
    game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
    rng = np.random.default_rng(seed)
    max_excess = -math.inf
    count = 0

    def consider(moment):
        nonlocal max_excess, count
        max_excess = max(max_excess, objective_value(moment, obj) - v_star)
        count += 1

    k = int(round(report.m_star * n))
    consider(targeted_equilibrium_moment(np.arange(k), r, grid))
    for i in range(samples):
        kind = i % 4
        if kind in (0, 1):
            eq = solve_linear_equilibrium(game, _random_info(game, rng))
            consider(moment_from_equilibrium(eq))
        elif kind == 2:
            k = int(rng.integers(0, n + 1))
            members = rng.choice(n, size=k, replace=False)
            consider(targeted_equilibrium_moment(members, r, grid))
        else:
            mm = float(rng.uniform())
            consider(symmetric_moment(mm, r, grid, match_grid_obedience=True))
    return AuditReport(max_excess, v_star, count, 1e-6 * (1.0 + abs(v_star)))


# ---------------------------------------------------------------------------
# Cournot application

@dataclass(frozen=True)
class CournotReport:
    u: float
    v: float
    w: float
    r: float
    regime: str
    m_star: float
    v_star: float
    full_disclosure: bool


def cournot_policy(lam: float, gamma: float) -> CournotReport:
    """Market-information design with consumer weight lam and demand slope gamma.

    Firms play a_i = E_i[theta] - gamma E_i[aggregate], i.e. r = -gamma; the
    welfare objective has u = 1 - lam - lam*gamma, v = -lam/2, w = lam, so
    alpha = lam/2 and beta = -(1 - lam).  Full disclosure is optimal exactly
    when gamma <= 4/lam - 3.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    u = 1.0 - lam - lam * gamma
    v = -lam / 2.0
    w = lam
    r = -gamma
    obj = DesignObjective(u, v, w)
    report = optimal_targeted(r, obj)
    full = lam == 0.0 or gamma <= 4.0 / lam - 3.0
    # the analytic classification and the regime report must agree
    if full:
        agree = report.regime == "T3" and abs(report.m_star - 1.0) <= 1e-12
    else:
        m_closed = lam / (lam * gamma - 4.0 * (1.0 - lam))
        agree = report.regime == "T2" and abs(report.m_star - m_closed) <= 1e-12
    if not agree:
        raise RuntimeError("Cournot classification disagrees with the "
                           "targeted-disclosure optimum")
    return CournotReport(u, v, w, r, report.regime, report.m_star,
                         report.v_star, full)


def regime_diagram(r: float, alpha_range, beta_range, resolution: int):
    """Raster of regime labels over an (alpha, beta) rectangle.

    Returns a list of (alpha, beta, regime, m_star, v_star) rows.
    """
    if r >= 1.0:
        raise ValueError("r must be below 1")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    alphas = np.linspace(alpha_range[0], alpha_range[1], resolution)
    betas = np.linspace(beta_range[0], beta_range[1], resolution)
    rows = []
    for a in alphas:
        for b in betas:
            rep = optimal_targeted(r, DesignObjective.from_alpha_beta(a, b))
            rows.append((float(a), float(b), rep.regime, rep.m_star, rep.v_star))
    return rows
