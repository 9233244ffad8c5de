"""Equilibrium moments: obedience, positivity, bounds, and signal construction.

An equilibrium moment is a candidate triple (xi, Z, Sigma): the action
covariance xi, the action-state covariance Z(t, s) = Cov[f(t), theta(s)] and
the covariance Sigma of any state process.  ``EquilibriumMoment`` is defined
in ``game``, where a solved equilibrium carries its own, and re-exported
here with the verdicts on it.  Obedience ties the diagonal of xi to its
R-weighted row aggregate plus zeta = diag Z; positivity requires the joint
covariance [[xi, Z], [Z', Sigma]] to be PSD.  Any feasible moment is realized
by letting each agent observe its own equilibrium action as the signal;
``construct_canonical_signals`` builds exactly that structure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleMoment
from .game import (OBEDIENCE_TOL, BasicGame, EquilibriumMoment, GaussianInfo,
                   _require_r, _same_state, relative_tol,
                   second_moment_residuals, solve_mean)
from .kernels import Kernel, check_r2, constant_kernel, operator_matrix


def common_state_moment(xi: Kernel, zeta, state_var: float = 1.0) -> EquilibriumMoment:
    """The moment (xi, zeta) over one common theta of variance ``state_var``:
    Z = zeta 1' (a read-only broadcast) and Sigma = state_var 11'."""
    z = xi.grid.function(zeta).values
    if state_var < 0:
        raise ValueError("state variance must be non-negative")
    return EquilibriumMoment(xi.grid, xi, np.broadcast_to(z[:, None], (z.size,) * 2),
                             constant_kernel(xi.grid, state_var))


def _common_state_var(m: EquilibriumMoment) -> float:
    """Var theta, for the results that hold under a common state only:
    ValueError unless Sigma is exactly one constant (no tolerance)."""
    S = m.state_cov.values
    if not np.all(S == S.flat[0]):
        raise ValueError("the state covariance is not one common constant")
    return float(S.flat[0])


@dataclass(frozen=True)
class DesignObjective:
    """Quadratic designer objective V = u * double-int xi + v * int diag + w * int zeta."""

    u: float
    v: float
    w: float

    def __post_init__(self):
        # compares an int exactly, where math.isfinite(10**400) overflows
        if not all(abs(x) <= sys.float_info.max for x in (self.u, self.v, self.w)):
            raise ValueError(f"objective weights (u, v, w) = ({self.u!r}, "
                             f"{self.v!r}, {self.w!r}) must be finite")

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
    return _obedience(m, operator_matrix(R))


def _obedience(m: EquilibriumMoment, A: np.ndarray) -> float:
    """``check_obedience`` under the operator matrix A or its one repeated row."""
    return float(second_moment_residuals(A, m.xi.values, m.zeta.values).max())


def check_positivity(m: EquilibriumMoment) -> bool:
    """PSD test (``psd_within``) of the joint covariance
    [[xi, Z], [Z', Sigma]], once per moment."""
    return m._positive


@dataclass(frozen=True)
class Feasibility:
    """Obedience within OBEDIENCE_TOL (1 + max|xi|) and positivity of a moment."""

    obedience_residual: float
    obedience_tol: float
    positivity_ok: bool

    @property
    def feasible(self) -> bool:
        return self.obedience_residual <= self.obedience_tol and self.positivity_ok


def check_feasibility(m: EquilibriumMoment, R: Kernel) -> Feasibility:
    """Whether ``m`` is an equilibrium moment of some information structure
    under the payoff kernel R: the one verdict on obedience and positivity."""
    return _feasibility(m, check_obedience(m, R))


def _feasibility(m: EquilibriumMoment, obedience_residual: float) -> Feasibility:
    """The one verdict on ``m`` given its obedience residual."""
    return Feasibility(obedience_residual, relative_tol(OBEDIENCE_TOL, m.xi.values),
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
    tol = BOUNDS_TOL (1 + max|xi|)."""

    cauchy_slack: float      # double-int xi - (int zeta)^2
    diag_slack: float        # int xi(t,t) - double-int xi
    ceiling_slack: float     # (1/(1-r))^2 - double-int xi
    tol: float

    @property
    def passed(self) -> bool:
        return self.feasible and (min(self.cauchy_slack, self.diag_slack,
                                      self.ceiling_slack) >= -self.tol)


#: a feasible moment meets each of its bounds within BOUNDS_TOL (1 + max|xi|)
BOUNDS_TOL = 1e-9


def bounds_check(m: EquilibriumMoment, r: float) -> BoundsReport:
    """Feasibility of ``m`` for a constant payoff structure r < 1 and the
    bounds (int zeta)^2 <= double-int xi <= min{int diag, (1/(1-r))^2}, in
    units of Var theta; the bounds are theorems about feasible moments over
    a common state only (ValueError for any other state).
    """
    _require_r(r)
    dd, iz, ceiling = double_integral(m), zeta_integral(m), 1.0 / (1.0 - r)
    var = _common_state_var(m) or 1.0   # Var 0: zeta ~ 0; normalized ceiling
    return BoundsReport(
        **vars(_feasibility(m, _obedience(m, r * m.grid.weights))),
        cauchy_slack=dd - iz * iz * (1.0 / var),
        diag_slack=diag_integral(m) - dd,
        ceiling_slack=ceiling * ceiling * var - dd,
        tol=relative_tol(BOUNDS_TOL, m.xi.values),
    )


def objective_value(m: EquilibriumMoment, obj: DesignObjective) -> float:
    """V(xi, zeta) = u * double-int xi + v * int xi(t,t) + w * int zeta."""
    return (obj.u * double_integral(m) + obj.v * diag_integral(m)
            + obj.w * zeta_integral(m))


def construct_canonical_signals(m: EquilibriumMoment, game: BasicGame) -> GaussianInfo:
    """Signals that realize a feasible moment: each agent observes its own action.

    x has mean phi, Cov[x, x] = xi and Cov[x, theta] = Z over the game's state
    (its covariance equal to the moment's Sigma entry for entry), so every
    equilibrium loading is 1 and the equilibrium's moment is (xi, Z).
    """
    if not game.grid.same_nodes(m.grid):
        raise ValueError("game and moment grids differ")
    if not check_r2(game.payoff):
        raise ValueError("payoff kernel must satisfy (R2)")
    if not _same_state(m.state_cov, game.state_cov):
        raise ValueError("game state covariance does not match the moment")
    feas = check_feasibility(m, game.payoff)
    if not feas.feasible:
        raise InfeasibleMoment(f"moment is infeasible: {feas}")
    return GaussianInfo(game.state_cov, np.ones(m.grid.n, int),
                        solve_mean(game).values, m.xi.values, m.cross_cov)


#: the levels of xi and of zeta agree across nodes within SYMMETRY_TOL (1 +
#: their max), and 1 - r Corr[f, f'] vanishes below VANISHING_TOL (1 + |r Corr|)
SYMMETRY_TOL = 1e-9
VANISHING_TOL = 1e-15


def symmetric_moment_identity(m: EquilibriumMoment, r: float) -> float:
    """Residual of the symmetric standard-deviation identity
    Sd[f] = Corr[f, theta] / (1 - r Corr[f, f']) * Sd[theta],
    evaluated at a representative node pair.  Any finite r is valid.
    """
    if not -np.inf < r < np.inf:
        raise ValueError(f"r = {r!r}: must be finite")
    xi, zeta = m.xi.values, m.zeta.values
    n = m.grid.n
    var_f = float(xi[0, 0])
    cov_ff = float(xi[0, 1]) if n > 1 else var_f
    two_level = np.where(np.eye(n, dtype=bool), var_f, cov_ff)
    if (np.max(np.abs(xi - two_level)) > relative_tol(SYMMETRY_TOL, xi)
            or np.max(np.abs(zeta - zeta[0])) > relative_tol(SYMMETRY_TOL, zeta)):
        raise ValueError("moment is not symmetric across nodes")
    var_t = _common_state_var(m)
    if var_f <= 0.0 or var_t <= 0.0:
        return 0.0  # zero-variance convention: identity is vacuous
    sd_f, sd_t = np.sqrt(var_f), np.sqrt(var_t)
    corr_ft = float(zeta[0]) / (sd_f * sd_t)
    corr_ff = cov_ff / var_f
    den = 1.0 - r * corr_ff
    if abs(den) < relative_tol(VANISHING_TOL, r * corr_ff):
        raise ValueError("identity denominator vanished (r Corr[f, f'] = 1)")
    return abs(sd_f - corr_ft * sd_t / den)
