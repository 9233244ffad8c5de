"""Basic games, Gaussian information structures, and the linear equilibrium.

A basic game is the pair (state process theta, payoff kernel R); each agent
best-responds with f(t) = E_t[F(t)] + E_t[theta(t)] where F is the weighted
aggregate of everyone's strategy.  Under jointly Gaussian (theta, signals)
the equilibrium is linear in signals and is found by matching coefficients:
the loadings solve one large linear system assembled from the conditional
Gaussian formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence, SingularMeanEquation
from .grid import GridFunction, MeasureGrid, _frozen
from .kernels import Kernel, _is_one, eigenvalues, operator_matrix, psd_tol, psd_within


def _sym_pinv(mat: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a symmetric PSD matrix, or of each matrix in a stack
    (k, d, d), read as it is: its inputs are principal blocks of covariances
    that passed ``_require_cov``.  Eigenvalues up to 1e-10 times the largest,
    or below the smallest normal float (whose reciprocal overflows), count
    as zero."""
    if mat.size == 0:
        return mat
    lam, vec = np.linalg.eigh(mat)
    keep = (lam > 1e-10 * lam[..., -1:]) & (lam >= np.finfo(float).tiny)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return (vec * inv[..., None, :]) @ vec.swapaxes(-1, -2)


def _require_cov(cov: np.ndarray, name: str) -> None:
    """The one covariance gate: ValueError unless ``cov`` is finite, exactly
    symmetric and passes ``psd_within`` (the message then names the
    smallest eigenvalue).  Nothing behind it repairs or re-checks ``cov``."""
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"{name} must be finite")
    if not np.array_equal(cov, cov.T):
        raise ValueError(f"{name} must be symmetric")
    if not psd_within(cov):
        min_eig = float(np.linalg.eigvalsh(cov)[0])
        raise ValueError(f"{name} must be positive semidefinite (min eigenvalue "
                         f"{min_eig:.3e} < -tol {psd_tol(cov):.1e})")


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
        _require_cov(self.state_cov.values, "state covariance")

    def is_common_state(self) -> bool:
        v = self.state_cov.values
        tol = 1e-9 * (1.0 + float(np.max(np.abs(v))))
        return (np.max(np.abs(v - v.flat[0])) <= tol
                and np.max(np.abs(self.state_mean.values
                                  - self.state_mean.values[0])) <= tol)

    @cached_property
    def _mean_solution(self) -> GridFunction:
        """``solve_mean``'s result, solved on first use and kept (the arrays
        it reads are read-only); a singular game keeps nothing and raises on
        every call."""
        A = operator_matrix(self.payoff)
        if _is_one(eigenvalues(self.payoff)):
            raise SingularMeanEquation("payoff operator has eigenvalue 1")
        mu = self.state_mean.values
        try:
            phi = np.linalg.solve(np.eye(self.grid.n) - A, mu)
        except np.linalg.LinAlgError as exc:
            raise SingularMeanEquation("mean equation matrix I - A is singular "
                                       "in floating point") from exc
        scale = 1.0 + float(np.max(np.abs(phi)))
        if np.max(np.abs(phi - A @ phi - mu)) > 1e-9 * scale:
            raise SingularMeanEquation("mean equation residual above tolerance")
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
    covariance passes ``_require_cov`` once, here, and is not kept."""

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
        _require_cov(np.block([[self.state_cov.values, cross.T], [cross, sig]]),
                     "joint_cov")
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
        if not np.allclose(w, 1.0 / n, rtol=0.0, atol=1e-12):
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
    sel = np.outer(mask, mask)
    sig_cov = np.where(sel, S, 0.0)
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
class LinearEquilibrium:
    """Linear strategy profile f(t) = intercept(t) + loadings(t) . x(t); the
    read-only ``coefficients`` hold all loadings in signal order."""

    grid: MeasureGrid
    info: GaussianInfo
    intercepts: GridFunction
    coefficients: np.ndarray
    induced_mean: GridFunction
    induced_action_cov: Kernel
    induced_action_state_cov: GridFunction

    def loading_vector(self) -> np.ndarray:
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
    node_of = info._node_of()
    A = game.payoff.values[np.ix_(node_of, node_of)] * game.grid.weights[node_of]
    A *= info.signal_cov
    A = info._own_pinv(A)
    rhs = info._own_pinv(info._own_entries(info.cross_cov))  # P Cov[x_t, theta(t)]
    return A, rhs


def _require_fixed_point(A: np.ndarray, rhs: np.ndarray, c: np.ndarray) -> None:
    """NoConvergence unless c = A c + rhs within 1e-8 (1 + max|c|)."""
    if np.max(np.abs(c - (A @ c + rhs)), initial=0.0) > relative_tol(1e-8, c):
        raise NoConvergence("coefficient fixed point residual above tolerance")


def _package_equilibrium(game, info, c: np.ndarray, b: np.ndarray) -> LinearEquilibrium:
    # Cov[f(s), x] summed over node s's block, then against each block of x
    cov_fx = info._block_sum(c[:, None] * info.signal_cov, axis=0)
    xi = info._block_sum(cov_fx * c, axis=1)
    xi = 0.5 * (xi + xi.T)
    zeta = info._block_sum(c * info._own_entries(info.cross_cov))
    intercept = b - info._block_sum(c * info.signal_mean)
    return LinearEquilibrium(
        grid=game.grid,
        info=info,
        intercepts=game.grid.function(intercept),
        coefficients=_frozen(c),
        induced_mean=game.grid.function(b),
        induced_action_cov=Kernel(game.grid, xi),
        induced_action_state_cov=game.grid.function(zeta),
    )


def solve_linear_equilibrium(game: BasicGame, info: GaussianInfo) -> LinearEquilibrium:
    """Matching-coefficient solution of the linear Bayesian equilibrium: one
    dense solve of c = A c + rhs."""
    if not info.grid.same_nodes(game.grid):
        raise ValueError("game and information structure grids differ")
    if not np.array_equal(info.state_cov.values, game.state_cov.values):
        raise ValueError("information structure theta block does not match the game")

    A, rhs = _coefficient_system(game, info)
    try:
        c = np.linalg.solve(np.eye(rhs.size) - A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"direct coefficient solve failed: {exc}") from exc
    _require_fixed_point(A, rhs, c)
    return _package_equilibrium(game, info, c, solve_mean(game).values)


def relative_tol(c: float, values) -> float:
    """The criterion c (1 + max|values|) for a residual about ``values``."""
    return c * (1.0 + float(np.max(np.abs(values), initial=0.0)))


def second_moment_residuals(R: Kernel, xi: np.ndarray,
                            zeta: np.ndarray) -> np.ndarray:
    """Obedience |xi(t,t) - sum_t' w R xi(t,t') - zeta(t)| at each node."""
    A = operator_matrix(R)
    return np.abs(np.diag(xi) - np.sum(A * xi, axis=1) - zeta)


@dataclass(frozen=True)
class MomentReport:
    """Residuals of the two moment restrictions, each with its tolerance
    1e-8 (1 + max|b|) and 1e-8 (1 + max|xi|)."""

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
    b, xi = eq.induced_mean.values, eq.induced_action_cov.values
    res1 = np.abs(b - operator_matrix(game.payoff) @ b - game.state_mean.values)
    res2 = second_moment_residuals(game.payoff, xi, eq.induced_action_state_cov.values)
    return MomentReport(res1, res2, relative_tol(1e-8, b), relative_tol(1e-8, xi))
