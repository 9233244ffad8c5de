"""Equilibrium moments: obedience, positivity, bounds, and signal construction.

An equilibrium moment is a candidate pair (xi, zeta) of the action covariance
kernel and the action-state covariance, for a common state with variance
``state_var``.  Obedience ties the diagonal of xi to its R-weighted row
aggregate plus zeta; positivity requires the bordered covariance matrix
[[xi, zeta], [zeta', Var theta]] to be PSD.  Any feasible moment can be
realized by letting each agent observe its own equilibrium action as the
signal; ``construct_canonical_signals`` builds exactly that structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleMoment
from .game import (BasicGame, GaussianInfo, relative_tol,
                   second_moment_residuals, solve_mean)
from .grid import GridFunction, MeasureGrid
from .kernels import Kernel, check_r2, constant_kernel, psd_within


@dataclass(frozen=True)
class EquilibriumMoment:
    """Candidate second-moment profile (xi, zeta) with a common state variance."""

    grid: MeasureGrid
    xi: Kernel
    zeta: GridFunction
    state_var: float

    def __post_init__(self):
        if not self.xi.grid.same_nodes(self.grid) or not self.zeta.grid.same_nodes(self.grid):
            raise ValueError("moment components must share the grid")
        if not self.xi.undirected:
            raise ValueError("xi must be undirected")
        if np.any(self.xi.diag() < -1e-12 * (1 + np.abs(self.xi.values).max())):
            raise ValueError("diagonal of xi must be non-negative")
        if self.state_var < 0:
            raise ValueError("state variance must be non-negative")
        if self.state_var == 0 and np.any(self.zeta.values != 0):
            raise ValueError("zero state variance forces zeta to vanish")

    @cached_property
    def _positive(self) -> bool:
        """``check_positivity``'s verdict, decided on first use and kept."""
        z = self.zeta.values[:, None]
        M = np.block([[self.xi.values, z],
                      [z.T, np.full((1, 1), float(self.state_var))]])
        return psd_within(M)


@dataclass(frozen=True)
class DesignObjective:
    """Quadratic designer objective V = u * double-int xi + v * int diag + w * int zeta."""

    u: float
    v: float
    w: float

    @property
    def alpha(self) -> float:
        return self.v + self.w

    def beta(self, r: float) -> float:
        return r * self.w - self.u

    @classmethod
    def from_alpha_beta(cls, alpha: float, beta: float) -> "DesignObjective":
        """The objective with w = 0, so alpha = v and beta = -u for every r."""
        return cls(-beta, alpha, 0.0)


def check_obedience(m: EquilibriumMoment, R: Kernel) -> float:
    """Max over nodes of |xi(t,t) - sum_t' w R xi(t,t') - zeta(t)|."""
    if not R.grid.same_nodes(m.grid):
        raise ValueError("payoff kernel grid does not match the moment")
    return float(second_moment_residuals(R, m.xi.values, m.zeta.values).max())


def check_positivity(m: EquilibriumMoment) -> bool:
    """PSD test (``psd_within``) of the bordered matrix
    M = [[xi, zeta], [zeta', Var theta]], once per moment."""
    return m._positive


@dataclass(frozen=True)
class Feasibility:
    """Obedience (within 1e-8 (1 + max|xi|)) and positivity of a moment."""

    obedience_residual: float
    obedience_tol: float
    positivity_ok: bool

    @property
    def feasible(self) -> bool:
        return self.obedience_residual <= self.obedience_tol and self.positivity_ok


def check_feasibility(m: EquilibriumMoment, R: Kernel) -> Feasibility:
    """Whether ``m`` is an equilibrium moment of some information structure
    under the payoff kernel R: the one verdict on obedience and positivity."""
    return Feasibility(check_obedience(m, R), relative_tol(1e-8, m.xi.values),
                       check_positivity(m))


def double_integral(m: EquilibriumMoment) -> float:
    """Quadrature of the full double integral of xi (diagonal cells included)."""
    w = m.grid.weights
    return float(w @ m.xi.values @ w)


def diag_integral(m: EquilibriumMoment) -> float:
    return float(m.grid.weights @ m.xi.diag())


def zeta_integral(m: EquilibriumMoment) -> float:
    return float(m.grid.weights @ m.zeta.values)


@dataclass(frozen=True)
class BoundsReport(Feasibility):
    """Feasibility of a moment and the slacks of the three bounds it implies,
    in the units of xi; it passes when feasible and every slack is >= -tol,
    tol = 1e-9 (1 + max|xi|)."""

    cauchy_slack: float      # double-int xi - (int zeta)^2
    diag_slack: float        # int xi(t,t) - double-int xi
    ceiling_slack: float     # (1/(1-r))^2 - double-int xi
    tol: float

    @property
    def passed(self) -> bool:
        return self.feasible and (min(self.cauchy_slack, self.diag_slack,
                                      self.ceiling_slack) >= -self.tol)


def bounds_check(m: EquilibriumMoment, r: float) -> BoundsReport:
    """Feasibility of ``m`` for a constant payoff structure r < 1 and the
    bounds (int zeta)^2 <= double-int xi <= min{int diag, (1/(1-r))^2}; the
    bounds are theorems about feasible moments only.
    """
    if r >= 1:
        raise ValueError("bounds require r < 1")
    dd, iz, ceiling = double_integral(m), zeta_integral(m), 1.0 / (1.0 - r)
    var = m.state_var or 1.0    # zero variance: zeta = 0, normalized ceiling
    return BoundsReport(
        **vars(check_feasibility(m, constant_kernel(m.grid, r))),
        cauchy_slack=dd - iz * iz * (1.0 / var),
        diag_slack=diag_integral(m) - dd,
        ceiling_slack=ceiling * ceiling * var - dd,
        tol=relative_tol(1e-9, m.xi.values),
    )


def objective_value(m: EquilibriumMoment, obj: DesignObjective) -> float:
    """V(xi, zeta) = u * double-int xi + v * int xi(t,t) + w * int zeta."""
    return (obj.u * double_integral(m) + obj.v * diag_integral(m)
            + obj.w * zeta_integral(m))


def construct_canonical_signals(m: EquilibriumMoment, game: BasicGame) -> GaussianInfo:
    """Signals that realize a feasible moment: each agent observes its own action.

    Builds x(t) = phi(t) + zeta(t)/Var[theta] * (theta - E theta) + eps(t) with
    Cov[eps(s), eps(t)] = xi(s, t) - zeta(s) zeta(t)/Var[theta], which has
    action covariance xi and action-state covariance zeta by construction.
    """
    if not game.grid.same_nodes(m.grid):
        raise ValueError("game and moment grids differ")
    if not game.is_common_state():
        raise ValueError("canonical construction requires a common state")
    if not check_r2(game.payoff):
        raise ValueError("payoff kernel must satisfy (R2)")
    theta_var = float(game.state_cov.values[0, 0])
    if abs(theta_var - m.state_var) > 1e-9 * (1.0 + theta_var):
        raise ValueError("game state variance does not match the moment")
    feas = check_feasibility(m, game.payoff)
    if not feas.feasible:
        raise InfeasibleMoment(f"moment is infeasible: {feas}")

    phi = solve_mean(game)
    n = m.grid.n
    cross = np.outer(m.zeta.values, np.ones(n))  # Cov[x(t), theta(s)] = zeta(t)
    return GaussianInfo(game.state_cov, np.ones(n, int), phi.values, m.xi.values, cross)


def symmetric_moment_identity(m: EquilibriumMoment, r: float) -> float:
    """Residual of the symmetric standard-deviation identity
    Sd[f] = Corr[f, theta] / (1 - r Corr[f, f']) * Sd[theta],
    evaluated at a representative node pair.
    """
    xi, zeta = m.xi.values, m.zeta.values
    n = m.grid.n
    var_f = float(xi[0, 0])
    cov_ff = float(xi[0, 1]) if n > 1 else var_f
    # equal across nodes up to a relative spread of 1e-9
    two_level = np.where(np.eye(n, dtype=bool), var_f, cov_ff)
    if (np.max(np.abs(xi - two_level)) > relative_tol(1e-9, xi)
            or np.max(np.abs(zeta - zeta[0])) > relative_tol(1e-9, zeta)):
        raise ValueError("moment is not symmetric across nodes")
    var_t = float(m.state_var)
    if var_f <= 0.0 or var_t <= 0.0:
        return 0.0  # zero-variance convention: identity is vacuous
    sd_f, sd_t = np.sqrt(var_f), np.sqrt(var_t)
    corr_ft = float(zeta[0]) / (sd_f * sd_t)
    corr_ff = cov_ff / var_f
    den = 1.0 - r * corr_ff
    if abs(den) < 1e-15:
        raise ValueError("identity denominator vanished (r Corr[f, f'] = 1)")
    return abs(sd_f - corr_ft * sd_t / den)
