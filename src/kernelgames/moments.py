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

import numpy as np

from .errors import InfeasibleMoment
from .game import BasicGame, GaussianInfo, _assemble_info, solve_mean
from .grid import GridFunction, MeasureGrid
from .kernels import (Kernel, check_r2, constant_kernel, operator_matrix,
                      psd_project_tol, psd_within)


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

    def bordered_matrix(self) -> np.ndarray:
        n = self.grid.n
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = self.xi.values
        M[:n, n] = self.zeta.values
        M[n, :n] = self.zeta.values
        M[n, n] = self.state_var
        return M


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


def zero_moment(grid: MeasureGrid, state_var: float = 1.0) -> EquilibriumMoment:
    return EquilibriumMoment(
        grid, Kernel(grid, np.zeros((grid.n, grid.n))),
        grid.constant(0.0), state_var)


def obedience_residuals(m: EquilibriumMoment, R: Kernel) -> np.ndarray:
    if not R.grid.same_nodes(m.grid):
        raise ValueError("payoff kernel grid does not match the moment")
    A = operator_matrix(R)
    return np.abs(m.xi.diag() - np.sum(A * m.xi.values, axis=1) - m.zeta.values)


def check_obedience(m: EquilibriumMoment, R: Kernel) -> float:
    """Max over nodes of |xi(t,t) - sum_t' w R xi(t,t') - zeta(t)|."""
    return float(obedience_residuals(m, R).max())


def default_obedience_tol(m: EquilibriumMoment) -> float:
    return 1e-8 * (1.0 + float(np.max(np.abs(m.xi.values))))


def check_positivity(m: EquilibriumMoment) -> bool:
    """PSD test of the bordered matrix M = [[xi, zeta], [zeta', Var theta]]: no
    eigenvalue below -``psd_project_tol(M)``."""
    M = m.bordered_matrix()
    return psd_within(M, psd_project_tol(M))


def double_integral(m: EquilibriumMoment) -> float:
    """Quadrature of the full double integral of xi (diagonal cells included)."""
    w = m.grid.weights
    return float(w @ m.xi.values @ w)


def diag_integral(m: EquilibriumMoment) -> float:
    return float(m.grid.weights @ m.xi.diag())


def zeta_integral(m: EquilibriumMoment) -> float:
    return float(m.grid.weights @ m.zeta.values)


@dataclass(frozen=True)
class BoundsReport:
    """Feasibility of a moment and the slacks of the three bounds it implies;
    it passes when feasible and every slack is >= -tol."""

    cauchy_slack: float      # double-int xi - (int zeta)^2
    diag_slack: float        # int xi(t,t) - double-int xi
    ceiling_slack: float     # (1/(1-r))^2 - double-int xi
    obedience_residual: float
    obedience_tol: float
    positivity_ok: bool
    tol: float

    @property
    def feasible(self) -> bool:
        return self.obedience_residual <= self.obedience_tol and self.positivity_ok

    @property
    def passed(self) -> bool:
        return self.feasible and (min(self.cauchy_slack, self.diag_slack,
                                      self.ceiling_slack) >= -self.tol)


def bounds_check(m: EquilibriumMoment, r: float) -> BoundsReport:
    """Feasibility of ``m`` for a constant payoff structure r < 1 (obedience
    within ``default_obedience_tol``, positivity) and the bounds
    (int zeta)^2 <= double-int xi <= min{int diag, (1/(1-r))^2}, each within a
    slack of 1e-9; the bounds are theorems about feasible moments only.
    """
    if r >= 1:
        raise ValueError("bounds require r < 1")
    dd = double_integral(m)
    return BoundsReport(
        cauchy_slack=dd - zeta_integral(m) ** 2 * (1.0 if m.state_var == 0
                                                   else 1.0 / m.state_var),
        diag_slack=diag_integral(m) - dd,
        ceiling_slack=(1.0 / (1.0 - r)) ** 2 * m.state_var - dd
        if m.state_var > 0 else (1.0 / (1.0 - r)) ** 2 - dd,
        obedience_residual=check_obedience(m, constant_kernel(m.grid, r)),
        obedience_tol=default_obedience_tol(m),
        positivity_ok=check_positivity(m),
        tol=1e-9,
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
    obed = check_obedience(m, game.payoff)
    if obed > default_obedience_tol(m):
        raise InfeasibleMoment(f"obedience residual {obed:.3e} too large")
    if not check_positivity(m):
        raise InfeasibleMoment("moment fails the positivity condition")

    phi = solve_mean(game)
    n = m.grid.n
    sig_cov = m.xi.values.copy()
    if m.state_var > 0:
        cross = np.outer(m.zeta.values, np.ones(n))  # Cov[x(t), theta(s)] = zeta(t)
    else:
        cross = np.zeros((n, n))
    return _assemble_info(game, np.ones(n, int), phi.values, sig_cov, cross)
