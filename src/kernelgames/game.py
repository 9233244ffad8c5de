"""Basic games, Gaussian information structures, and the linear equilibrium.

A basic game is the pair (state process theta, payoff kernel R); each agent
best-responds with f(t) = E_t[F(t)] + E_t[theta(t)] where F is the weighted
aggregate of everyone's strategy.  Under jointly Gaussian (theta, signals)
the equilibrium is linear in signals and is found by matching coefficients:
the loadings solve one large linear system assembled from the conditional
Gaussian formula.  The solved equilibrium carries the moment it induces,
one ``EquilibriumMoment`` (xi, Z, Sigma) built in the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence, SingularMeanEquation
from .grid import WEIGHT_SUM_TOL, GridFunction, MeasureGrid, _floats, _frozen
from .kernels import (REAL_EIG_CUTOFF, Kernel, _is_one, eigenvalues, operator_matrix,
                      psd_tol, psd_within)


#: an eigenvalue of a PSD matrix up to RANK_CUTOFF lambda_max counts as zero
RANK_CUTOFF = 1e-10


def _nonzero_eigenvalues(lam: np.ndarray) -> np.ndarray:
    """Which of the ascending eigenvalues of a PSD matrix, or of each matrix
    in a stack, count as nonzero: those above RANK_CUTOFF lambda_max and at
    least the smallest normal float (whose reciprocal overflows)."""
    return (lam > RANK_CUTOFF * lam[..., -1:]) & (lam >= np.finfo(float).tiny)


def _sym_pinv(mat: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a symmetric PSD matrix, or of each matrix in a stack
    (k, d, d), read as it is: its inputs are principal blocks of covariances
    that passed ``_require_cov``.  Eigenvalues that ``_nonzero_eigenvalues``
    drops count as zero."""
    if mat.size == 0:
        return mat
    lam, vec = np.linalg.eigh(mat)
    keep = _nonzero_eigenvalues(lam)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return (vec * inv[..., None, :]) @ vec.swapaxes(-1, -2)


def _require_symmetric(a: np.ndarray, name: str) -> None:
    """ValueError unless the one array ``a`` is finite and exactly symmetric."""
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError(f"{name} must be symmetric")


def _require_cov(cov, name: str) -> None:
    """The one covariance gate: ValueError, naming the smallest eigenvalue,
    unless ``cov`` (one array or its blocks), found finite and exactly
    symmetric where each block entered, passes ``psd_within``."""
    if not psd_within(cov):
        min_eig = float(np.linalg.eigvalsh(np.block(cov))[0])
        raise ValueError(f"{name} must be positive semidefinite (min eigenvalue "
                         f"{min_eig:.3e} < -tol {psd_tol(cov):.1e})")


#: the mean equation (I - A) b = E[theta] holds within MEAN_TOL (1 + max|b|)
MEAN_TOL = 1e-8


def _mean_residuals(A: np.ndarray, b: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """|b - A b - mu| at each node, for the payoff's operator matrix A."""
    return np.abs(b - A @ b - mu)


@dataclass(frozen=True)
class BasicGame:
    """Payoff kernel plus the Gaussian state process (mean and covariance)."""

    grid: MeasureGrid
    payoff: Kernel
    state_mean: GridFunction
    state_cov: Kernel

    def __post_init__(self):
        for obj in (self.payoff, self.state_mean, self.state_cov):
            if not obj.grid.same_nodes(self.grid):
                raise ValueError("all game components must share the grid")
        if not self.state_cov.undirected:       # a Kernel is finite
            raise ValueError("state covariance must be symmetric")
        _require_cov(self.state_cov.values, "state covariance")

    @cached_property
    def _mean_solution(self) -> GridFunction:
        """``solve_mean``'s result, solved on first use and kept (the arrays
        it reads are read-only); a singular game keeps nothing and raises on
        every call."""
        A = operator_matrix(self.payoff)
        eigs = eigenvalues(self.payoff)
        if _is_one(eigs):
            lam = eigs[np.argmin(np.abs(eigs - 1.0))]
            raise SingularMeanEquation(f"payoff operator has eigenvalue {lam:.6g}, "
                                       f"within {REAL_EIG_CUTOFF * (1 + abs(lam)):.1e} of 1")
        mu = self.state_mean.values
        try:
            phi = np.linalg.solve(np.eye(self.grid.n) - A, mu)
        except np.linalg.LinAlgError as exc:
            raise SingularMeanEquation("mean equation matrix I - A is singular "
                                       "in floating point") from exc
        res, tol = np.max(_mean_residuals(A, phi, mu)), relative_tol(MEAN_TOL, phi)
        if res > tol:
            raise SingularMeanEquation(f"mean equation residual {res:.3e} above "
                                       f"tolerance {tol:.1e}")
        return self.grid.function(phi)


def common_state_game(grid: MeasureGrid, payoff: Kernel,
                      mean: float = 0.0, var: float = 1.0) -> BasicGame:
    """Game in which every agent's state term is one common theta ~ N(mean, var)."""
    if var < 0:
        raise ValueError("state variance must be non-negative")
    cov = Kernel(grid, np.full((grid.n, grid.n), float(var)))
    return BasicGame(grid, payoff, grid.constant(mean), cov)


@dataclass(frozen=True)
class GaussianInfo:
    """Joint Gaussian law of the game's state process theta with the agents'
    signals.  ``state_cov`` is the game's kernel, kept by reference; the
    signals are stacked node by node in ``signal_mean``, ``signal_cov`` (D x D)
    and ``cross_cov`` (D x n, Cov[signals, theta-vector]).  The joint
    covariance passes ``_require_cov`` once, here, as its blocks."""

    state_cov: Kernel
    signal_dims: np.ndarray
    signal_mean: np.ndarray
    signal_cov: np.ndarray
    cross_cov: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        dims = np.array(self.signal_dims)
        if (dims.dtype.kind not in "iu" or dims.shape != (n,)
                or np.any(dims < 1)):
            raise ValueError("signal_dims must give a positive integer "
                             "dimension per node")
        dims = dims.astype(int, copy=False)
        total = int(dims.sum())
        mean = _frozen(self.signal_mean)
        sig = _frozen(self.signal_cov)
        cross = _frozen(self.cross_cov)
        if mean.shape != (total,):
            raise ValueError("signal_mean length must equal total signal dimension")
        if sig.shape != (total, total) or cross.shape != (total, n):
            raise ValueError("signal_cov must be D x D and cross_cov D x n")
        if not np.all(np.isfinite(cross)):
            raise ValueError("joint_cov must be finite")
        _require_symmetric(sig, "joint_cov")
        if not self.state_cov.undirected:       # a Kernel is finite
            raise ValueError("joint_cov must be symmetric")
        _require_cov([[self.state_cov.values, cross.T], [cross, sig]], "joint_cov")
        dims.flags.writeable = False
        object.__setattr__(self, "signal_dims", dims)
        object.__setattr__(self, "signal_mean", mean)
        object.__setattr__(self, "signal_cov", sig)
        object.__setattr__(self, "cross_cov", cross)

    @property
    def grid(self) -> MeasureGrid:
        return self.state_cov.grid

    @property
    def total_dim(self) -> int:
        return int(self.signal_dims.sum())

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.signal_dims)))

    def _node_of(self) -> np.ndarray:
        """Node index of each signal coordinate."""
        return np.repeat(np.arange(self.grid.n), self.signal_dims)

    def _own_pinv(self, x: np.ndarray) -> np.ndarray:
        """Apply the block-diagonal pseudo-inverse of the nodes' own-signal
        covariances to the rows of ``x`` (shape (D,) or (D, k)), in place.

        The blocks are factored in one batch per distinct signal dimension.
        """
        csig = self.signal_cov
        starts = self.offsets[:-1]
        for k in set(self.signal_dims.tolist()):    # np.unique imports numpy.ma
            rows = starts[self.signal_dims == k, None] + np.arange(k)    # (m, k)
            pinv = _sym_pinv(csig[rows[:, :, None], rows[:, None, :]])
            if k == 1:      # each 1 x 1 @ 1 x m product is 0 + pinv x: scale rows
                at = slice(None) if len(rows) == len(x) else rows[:, 0]
                x[at] *= pinv.reshape((-1,) + (1,) * (x.ndim - 1))
                x[at] += 0.0    # so that a zero product is +0, never -0
            else:
                x[rows] = (pinv @ x[rows].reshape(*rows.shape, -1)).reshape(
                    rows.shape + x.shape[1:])
        return x

    def _block_sum(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Sum ``x`` over each node's signal block along ``axis`` (D -> n);
        ``x`` itself when every block has one coordinate."""
        if self.total_dim == self.grid.n:
            return x
        return np.add.reduceat(x, self.offsets[:-1], axis=axis)

    def _own_entries(self, m: np.ndarray) -> np.ndarray:
        """Entry (i, t) of a (D, n) array for each signal coordinate i of node t."""
        return m[np.arange(self.total_dim), self._node_of()]


# ---------------------------------------------------------------------------
# named information structures

def no_info(game: BasicGame) -> GaussianInfo:
    """Every agent observes a degenerate (zero-variance) signal."""
    n = game.grid.n
    return GaussianInfo(game.state_cov, np.ones(n, int), np.zeros(n),
                        np.zeros((n, n)), np.zeros((n, n)))


def full_info(game: BasicGame) -> GaussianInfo:
    """Every agent observes its own state exactly: x(t) = theta(t)."""
    n = game.grid.n
    S = game.state_cov.values
    return GaussianInfo(game.state_cov, np.ones(n, int), game.state_mean.values, S, S)


def public_info(game: BasicGame, noise_var: float = 0.0) -> GaussianInfo:
    """One shared signal x = integral theta dnu + noise, observed by everyone."""
    if noise_var < 0:
        raise ValueError("noise variance must be non-negative")
    n = game.grid.n
    w = game.grid.weights
    S = game.state_cov.values
    cross_row = w @ S                      # Cov[x, theta(s)]
    var_x = float(w @ S @ w) + noise_var
    sig_cov = np.full((n, n), var_x)
    cross = np.tile(cross_row, (n, 1))
    mean = np.full(n, float(w @ game.state_mean.values))
    return GaussianInfo(game.state_cov, np.ones(n, int), mean, sig_cov, cross)


def private_iid_info(game: BasicGame, noise_var: float,
                     exact_lln: bool = True) -> GaussianInfo:
    """Own-state signal with idiosyncratic noise: x(t) = theta(t) + eps(t).

    With ``exact_lln`` (uniform grids only) the noise draws are exchangeable
    with unit weight-sum exactly zero, so the aggregate of any linear strategy
    carries no noise term -- the finite-grid analog of idiosyncratic noise
    vanishing in the population aggregate.  With ``exact_lln=False`` the noise
    is literally independent across nodes.
    """
    if noise_var < 0:
        raise ValueError("noise variance must be non-negative")
    n = game.grid.n
    w = game.grid.weights
    if exact_lln:
        if not np.allclose(w, 1.0 / n, rtol=0.0, atol=WEIGHT_SUM_TOL):
            raise ValueError("exact_lln noise requires a uniform grid")
        if n == 1:
            N = np.zeros((1, 1))
        else:
            N = noise_var * n / (n - 1) * (np.eye(n) - np.full((n, n), 1.0 / n))
    else:
        N = noise_var * np.eye(n)
    S = game.state_cov.values
    return GaussianInfo(game.state_cov, np.ones(n, int), game.state_mean.values,
                        S + N, S)


def targeted_info(game: BasicGame, members) -> GaussianInfo:
    """Members observe their state exactly; everyone else observes nothing."""
    n = game.grid.n
    mask = np.zeros(n, dtype=bool)
    mask[game.grid.node_indices(members)] = True
    S = game.state_cov.values
    sig_cov = np.where(np.outer(mask, mask), S, 0.0)
    cross = np.where(mask[:, None], S, 0.0)
    mean = np.where(mask, game.state_mean.values, 0.0)
    return GaussianInfo(game.state_cov, np.ones(n, int), mean, sig_cov, cross)


def info_from_parts(game: BasicGame, signal_dims, signal_mean,
                    sig_cov, cross) -> GaussianInfo:
    """Custom structure from explicit signal covariance and signal-state cross."""
    return GaussianInfo(game.state_cov, signal_dims, signal_mean, sig_cov, cross)


# ---------------------------------------------------------------------------
# equilibrium objects and solvers

@dataclass(frozen=True)
class EquilibriumMoment:
    """Candidate second-moment profile (xi, Z, Sigma): Z is ``cross_cov``, kept
    uncopied when it is already read-only, and Sigma ``state_cov``."""

    grid: MeasureGrid
    xi: Kernel
    cross_cov: np.ndarray
    state_cov: Kernel

    def __post_init__(self):
        if not all(k.grid.same_nodes(self.grid) for k in (self.xi, self.state_cov)):
            raise ValueError("moment components must share the grid")
        if not self.xi.undirected or not self.state_cov.undirected:
            raise ValueError("xi and the state covariance must be undirected")
        cross = _floats(self.cross_cov)
        cross = _frozen(cross) if cross.flags.writeable else cross
        if cross.shape != (self.grid.n,) * 2 or not np.all(np.isfinite(cross)):
            raise ValueError("cross_cov must be a finite n x n matrix")
        object.__setattr__(self, "cross_cov", cross)

    @cached_property
    def zeta(self) -> GridFunction:
        """zeta(t) = Cov[f(t), theta(t)], the diagonal of Z."""
        return self.grid.function(self.cross_cov.diagonal())

    @cached_property
    def _positive(self) -> bool:
        """``check_positivity``'s verdict, decided on first use and kept."""
        z = self.cross_cov
        return psd_within([[self.xi.values, z], [z.T, self.state_cov.values]])


@dataclass(frozen=True)
class LinearEquilibrium:
    """Linear strategy profile f(t) = intercept(t) + loadings(t) . x(t); the
    read-only ``coefficients`` hold all loadings in signal order, and
    ``moment`` is the (xi, Z, Sigma) the profile induces over the game's
    state."""

    grid: MeasureGrid
    info: GaussianInfo
    intercepts: GridFunction
    coefficients: np.ndarray
    induced_mean: GridFunction
    moment: EquilibriumMoment

    def loading_vector(self) -> np.ndarray:
        # no library caller; perfbench/workloads.py reads it
        return self.coefficients

    @property
    def loadings(self) -> tuple:
        return tuple(np.split(self.coefficients, self.info.offsets[1:-1]))


def solve_mean(game: BasicGame) -> GridFunction:
    """Solve the first-moment restriction (I - R-operator) phi = E[theta],
    once per game."""
    return game._mean_solution


def _coefficient_system(game: BasicGame, info: GaussianInfo):
    """Assemble (A, rhs) so equilibrium loadings solve c = A c + rhs."""
    A = operator_matrix(game.payoff)
    if info.total_dim != game.grid.n:       # gather one row per signal
        node_of = info._node_of()
        A = A[np.ix_(node_of, node_of)]
    A *= info.signal_cov
    A = info._own_pinv(A)
    rhs = info._own_pinv(info._own_entries(info.cross_cov))  # P Cov[x_t, theta(t)]
    return A, rhs


#: equilibrium loadings solve c = A c + rhs within COEFFICIENT_TOL (1 + max|c|)
COEFFICIENT_TOL = 1e-8


def _require_fixed_point(A: np.ndarray, rhs: np.ndarray, c: np.ndarray) -> None:
    """NoConvergence unless c = A c + rhs within COEFFICIENT_TOL (1 + max|c|)."""
    res = np.max(np.abs(c - (A @ c + rhs)), initial=0.0)
    if res > relative_tol(COEFFICIENT_TOL, c):
        raise NoConvergence(f"coefficient fixed point residual {res:.3e} above "
                            f"tolerance {relative_tol(COEFFICIENT_TOL, c):.1e}")


def _solve_coefficients(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The one dense solve of c = A c + rhs, checked by ``_require_fixed_point``."""
    try:
        c = np.linalg.solve(np.eye(rhs.size) - A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"direct coefficient solve failed: {exc}") from exc
    _require_fixed_point(A, rhs, c)
    return c


def _package_equilibrium(game, info, c: np.ndarray, b: np.ndarray) -> LinearEquilibrium:
    # Cov[f(s), x] summed over node s's block, then against each block of x
    cov_fx = info._block_sum(c[:, None] * info.signal_cov, axis=0)
    xi = info._block_sum(cov_fx * c, axis=1)
    # (c_s S_st) c_t and (c_t S_ts) c_s round apart, and ragged blocks add in
    # a different order on the two axes: average so xi is an undirected Kernel
    xi = 0.5 * (xi + xi.T)
    cross = info._block_sum(c[:, None] * info.cross_cov, axis=0)
    cross.flags.writeable = False
    intercept = b - info._block_sum(c * info.signal_mean)
    return LinearEquilibrium(
        grid=game.grid,
        info=info,
        intercepts=game.grid.function(intercept),
        coefficients=_frozen(c),
        induced_mean=game.grid.function(b),
        moment=EquilibriumMoment(game.grid, Kernel(game.grid, xi), cross,
                                 info.state_cov),
    )


def _same_state(a: Kernel, b: Kernel) -> bool:
    """Whether two state covariance kernels are one object or equal exactly."""
    return a is b or np.array_equal(a.values, b.values)


def solve_linear_equilibrium(game: BasicGame, info: GaussianInfo) -> LinearEquilibrium:
    """Matching-coefficient solution of the linear Bayesian equilibrium: one
    dense solve of c = A c + rhs."""
    if not info.grid.same_nodes(game.grid):
        raise ValueError("game and information structure grids differ")
    if not _same_state(info.state_cov, game.state_cov):
        raise ValueError("information structure theta block does not match the game")

    c = _solve_coefficients(*_coefficient_system(game, info))
    return _package_equilibrium(game, info, c, solve_mean(game).values)


def _require_r(r: float) -> None:
    """ValueError unless the interaction r is finite and below 1, so that
    1 - r m > 0 for every mass m in [0, 1]."""
    if not (math.isfinite(r) and r < 1.0):
        raise ValueError(f"r = {r!r}: must be finite and below 1")


def relative_tol(c: float, values) -> float:
    """The criterion c (1 + max|values|) for a residual about ``values``."""
    return c * (1.0 + float(np.max(np.abs(values), initial=0.0)))


#: obedience holds within OBEDIENCE_TOL (1 + max|xi|)
OBEDIENCE_TOL = 1e-8


def second_moment_residuals(A: np.ndarray, xi: np.ndarray,
                            zeta: np.ndarray) -> np.ndarray:
    """Obedience |xi(t,t) - sum_t' A(t,t') xi(t,t') - zeta(t)| at each node
    for the payoff's operator matrix A, or the one row all its rows repeat."""
    return np.abs(np.diag(xi) - np.sum(A * xi, axis=1) - zeta)


@dataclass(frozen=True)
class MomentReport:
    """Residuals of the two moment restrictions, each with its tolerance
    MEAN_TOL (1 + max|b|) and OBEDIENCE_TOL (1 + max|xi|)."""

    moment1_residuals: np.ndarray
    moment2_residuals: np.ndarray
    moment1_tol: float
    moment2_tol: float

    @property
    def max_residual(self) -> float:
        return float(max(self.moment1_residuals.max(), self.moment2_residuals.max()))

    @property
    def passed(self) -> bool:
        return bool(self.moment1_residuals.max() <= self.moment1_tol
                    and self.moment2_residuals.max() <= self.moment2_tol)


def verify_moment_restrictions(eq: LinearEquilibrium,
                               game: BasicGame) -> MomentReport:
    """Residuals of the first- and second-moment equilibrium restrictions."""
    if not eq.grid.same_nodes(game.grid):
        raise ValueError("equilibrium and game grids differ")
    b, xi = eq.induced_mean.values, eq.moment.xi.values
    A = operator_matrix(game.payoff)
    res1 = _mean_residuals(A, b, game.state_mean.values)
    res2 = second_moment_residuals(A, xi, eq.moment.zeta.values)
    return MomentReport(res1, res2, relative_tol(MEAN_TOL, b),
                        relative_tol(OBEDIENCE_TOL, xi))
