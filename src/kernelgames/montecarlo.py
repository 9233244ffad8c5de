"""Stochastic verification: process sampling, aggregation identities,
best-response audits, the non-uniqueness construction, and the symmetric
linear-quadratic example.

Sampling is seeded and reproducible; statistical checks report z-scores
against standard errors, while identities that are exact in linear algebra
(covariance exchange, conditional aggregation) are checked at tight absolute
tolerances using the Monte Carlo draws only as evaluation points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoRealEigenvalueAtLeastOne, SingularMeanEquation
from .game import BasicGame, GaussianInfo, LinearEquilibrium, _assemble_info, \
    _sym_pinv, solve_mean, _package_equilibrium
from .grid import MeasureGrid
from .kernels import _real_mask, operator_matrix, psd_project_tol

GENERATOR_ID = "pcg64-spectral-v1"

#: standard errors a sampled mean or variance may stray from its target
TOL_SE = 4.0


@dataclass(frozen=True)
class ProcessSample:
    """Seeded joint draws of a Gaussian vector: draws[k] is the k-th sample."""

    draws: np.ndarray
    seed: int
    generator_id: str = GENERATOR_ID


def sample_gaussian(mean, cov, d: int, seed: int) -> ProcessSample:
    """d i.i.d. draws of N(mean, cov) via the spectral square-root factor.

    Negative eigenvalues of ``cov`` are clamped at zero; a clamp larger than
    1e-8 times the top eigenvalue triggers a warning (the covariance is then
    materially non-PSD).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    k = mean.size
    if cov.shape != (k, k):
        raise ValueError("covariance shape must match the mean")
    lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
    if float(lam[0]) < -psd_project_tol(cov):
        raise ValueError("covariance is not positive semidefinite")
    clamp = max(0.0, -float(lam[0]))
    top = max(float(lam[-1]), 0.0)
    if clamp > 1e-8 * top and top > 0:
        warnings.warn(f"clamped eigenvalue {-clamp:.3e} against top {top:.3e}")
    factor = vec * np.sqrt(np.clip(lam, 0.0, None))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(d), k))
    return ProcessSample(mean + z @ factor.T, int(seed))


@dataclass(frozen=True)
class MCReport:
    statistic: float
    expected: float
    stderr: float
    passed: bool

    @property
    def zscore(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.statistic == self.expected else math.inf
        return (self.statistic - self.expected) / self.stderr


def verify_aggregate_mean(sample: ProcessSample, grid: MeasureGrid,
                          mean) -> MCReport:
    """Empirical mean of the weighted aggregate vs the quadrature of means."""
    w = grid.weights
    agg = sample.draws @ w
    expected = float(w @ np.asarray(mean, float))
    d = agg.size
    se = float(agg.std(ddof=1)) / math.sqrt(d) if d > 1 else 0.0
    stat = float(agg.mean())
    return MCReport(stat, expected, se, abs(stat - expected) <= TOL_SE * se + 1e-12)


def verify_aggregate_variance(sample: ProcessSample, grid: MeasureGrid,
                              cov) -> MCReport:
    """Empirical variance of the aggregate vs the double integral of the
    covariance kernel."""
    w = grid.weights
    agg = sample.draws @ w
    expected = float(w @ np.asarray(cov, float) @ w)
    d = agg.size
    stat = float(agg.var(ddof=1))
    # variance-of-sample-variance for a Gaussian statistic
    se = expected * math.sqrt(2.0 / (d - 1)) if d > 1 else 0.0
    if se == 0.0:
        se = stat * math.sqrt(2.0 / max(d - 1, 1))
    return MCReport(stat, expected, se, abs(stat - expected) <= TOL_SE * se + 1e-12)


def covariance_exchange_residual(cov, grid: MeasureGrid, x_coeffs) -> float:
    """Exact identity Cov[x, aggregate f] = integral of Cov[x, f(t)] for a
    linear statistic x = x_coeffs . f; returns the absolute residual."""
    cov = np.asarray(cov, float)
    a = np.asarray(x_coeffs, float)
    w = grid.weights
    lhs = float(a @ cov @ w)
    rhs = 0.0
    for t in range(grid.n):
        rhs += w[t] * float(a @ cov[:, t])
    return abs(lhs - rhs)


def verify_conditional_fubini(sample: ProcessSample, grid: MeasureGrid,
                              cond_nodes, mean, cov) -> MCReport:
    """Conditioning and aggregation commute: at each sampled draw, the
    conditional mean of the aggregate equals the aggregate of conditional
    means.  Both sides use the conditional Gaussian formula; the identity is
    exact, so the max discrepancy over draws must be at most 1e-9."""
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    w = grid.weights
    idx = np.asarray(cond_nodes, dtype=int)
    Scc = cov[np.ix_(idx, idx)]
    P = _sym_pinv(Scc)
    dev = sample.draws[:, idx] - mean[idx]          # (d, k)
    # LHS: E[aggregate | conditioning block]
    cov_agg_c = w @ cov[:, idx]                     # (k,)
    lhs = float(w @ mean) + dev @ (P @ cov_agg_c)
    # RHS: aggregate of per-node conditional means
    gains = cov[:, idx] @ P                         # (n, k)
    cond_means = mean[None, :] + dev @ gains.T      # (d, n)
    rhs = cond_means @ w
    disc = float(np.max(np.abs(lhs - rhs)))
    return MCReport(disc, 0.0, 0.0, disc <= 1e-9)


@dataclass(frozen=True)
class NodeAuditReport:
    mean_z: np.ndarray
    rms: np.ndarray
    scale: float
    passed: bool


def best_response_audit(eq: LinearEquilibrium, game: BasicGame,
                        info: GaussianInfo, d: int = 100_000,
                        seed: int = 0) -> NodeAuditReport:
    """Monte Carlo check that each agent's strategy is a best response.

    Samples joint (theta, signal) draws, evaluates every agent's action and
    the conditional-formula right-hand side E_t[aggregate] + E_t[theta(t)],
    and tests that the residual has mean within ``TOL_SE`` standard errors of
    zero and negligible spread at every node.
    """
    n = game.grid.n
    mean = np.concatenate([game.state_mean.values, info.signal_mean])
    x = sample_gaussian(mean, info.joint_cov, d, seed).draws[:, n:]
    c = eq.loading_vector()
    Rw = game.payoff.values * game.grid.weights
    f = eq.intercepts.values + info._block_sum(x * c, axis=1)    # actions per draw
    # E_t[aggregate] + E_t[theta(t)] = its mean + k_t . (x_t - mu_t), where
    # k_t = P_t (Cov[x_t, aggregate] + Cov[x_t, theta(t)])
    cov_x_f = info._block_sum(info.signal_block() * c, axis=1)   # Cov[x, f(t')]
    k = info._own_pinv(info._own_entries(cov_x_f @ Rw.T + info.cross_block()))
    x -= info.signal_mean
    x *= k
    rhs_mean = Rw @ eq.induced_mean.values + game.state_mean.values
    resid = f - rhs_mean - info._block_sum(x, axis=1)

    scale = 1.0 + float(np.sqrt(np.mean(f ** 2)))
    means = resid.mean(axis=0)
    sds = resid.std(axis=0, ddof=1)
    se = sds / math.sqrt(d)
    rms = np.sqrt(np.mean(resid ** 2, axis=0))
    mean_ok = np.abs(means) <= TOL_SE * se + 1e-8 * scale
    rms_ok = rms <= 1e-6 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_z = np.where(se > 0, means / se, 0.0)
    return NodeAuditReport(mean_z, rms, scale, bool(np.all(mean_ok & rms_ok)))


@dataclass(frozen=True)
class DuplicateReport:
    eigenvalue: float
    distance: float
    base_audit: NodeAuditReport
    shifted_audit: NodeAuditReport

    @property
    def passed(self) -> bool:
        return (self.base_audit.passed and self.shifted_audit.passed
                and self.distance > 0.0)


def duplicate_equilibria(game: BasicGame, d: int = 100_000, seed: int = 0,
                         scale: float = 1.0) -> DuplicateReport:
    """Exhibit two distinct equilibria when the payoff operator A = R W has a
    real eigenvalue lambda >= 1 (eigenvector psi), directed or not.

    Agents observe state-independent unit-variance signals with
    Cov[x(s), x(t)] = c_s c_t off the diagonal, c_t^2 = (1 - rho_t) /
    (lambda - rho_t), where rho_t = w_t R(t, t) < 1 (else ValueError) is the
    weight of the agent's own cell.  For phi = psi / c this makes
    E_t[integral of R phi x] = phi_t x(t) exactly on the grid, so with f the
    no-information equilibrium, g = f + scale * phi * x is one too; both must
    pass the best-response audit.
    """
    A = operator_matrix(game.payoff)
    lam_all, vec_all = np.linalg.eig(A)
    ok = _real_mask(lam_all) & (lam_all.real >= 1.0 - 1e-9)
    if not np.any(ok):
        raise NoRealEigenvalueAtLeastOne(
            "payoff operator has no real eigenvalue >= 1")
    j = np.argmax(np.where(ok, lam_all.real, -np.inf))
    lam = float(lam_all.real[j])
    rho = np.diag(A)
    t = int(np.argmax(rho))
    if rho[t] >= 1.0:
        raise ValueError("duplicate construction needs w_t R(t, t) < 1 at every "
                         f"node; node {t} has {rho[t]:.3e}")
    # lambda within 1e-9 below 1 counts as 1, so c_t <= 1 and sig_cov is PSD
    c = np.sqrt((1.0 - rho) / (max(lam, 1.0) - rho))
    phi = vec_all[:, j].real / c
    w = game.grid.weights
    phi = phi / math.sqrt(float(np.sum(w * phi * phi)))  # unit L2(nu) norm

    try:
        base_mean = solve_mean(game).values
        base_game = game
    except SingularMeanEquation:
        # lambda = 1 makes the mean equation singular; use the zero-mean game
        base_game = BasicGame(game.grid, game.payoff,
                              game.grid.constant(0.0), game.state_cov)
        base_mean = np.zeros(game.grid.n)

    n = game.grid.n
    sig_cov = np.outer(c, c)
    np.fill_diagonal(sig_cov, 1.0)
    info = _assemble_info(base_game, np.ones(n, int), np.zeros(n),
                          sig_cov, np.zeros((n, n)))
    eq_f = _package_equilibrium(base_game, info, np.zeros(n), base_mean)
    eq_g = _package_equilibrium(base_game, info, scale * phi, base_mean)
    audit_f = best_response_audit(eq_f, base_game, info, d=d, seed=seed)
    audit_g = best_response_audit(eq_g, base_game, info, d=d, seed=seed + 1)
    distance = abs(scale)  # ||g - f||_{L2(nu x P)} = scale * ||phi|| * sd(x) = scale
    return DuplicateReport(lam, distance, audit_f, audit_g)


@dataclass(frozen=True)
class BMEquilibrium:
    alpha0: float
    alpha_x: float
    alpha_y: float
    volatility: float
    dispersion: float


def bm_example_equilibrium(mu_theta: float, var_theta: float, var_x: float,
                           var_y: float, r: float, s: float,
                           k: float) -> BMEquilibrium:
    """Symmetric continuum LQG game: a_i = r E_i[A] + s E_i[theta] + k, with
    x_i = theta + eps_i (variance var_x) and public y = theta + eta (var_y).

    Solves the three-coefficient matching system for a_i = a0 + ax x_i + ay y
    and returns the coefficients plus the volatility V = Cov[a_i, a_j] and the
    dispersion D = Var[a_i] - Cov[a_i, a_j].
    """
    if r >= 1.0:
        raise ValueError("equilibrium requires r < 1")
    if var_theta <= 0 or var_x <= 0 or var_y <= 0:
        raise ValueError("variances must be positive")
    # Bayesian weights of E[theta | x_i, y] on (prior mean, x_i, y)
    prec = 1.0 / var_theta + 1.0 / var_x + 1.0 / var_y
    g_t = (1.0 / var_theta) / prec
    g_x = (1.0 / var_x) / prec
    g_y = (1.0 / var_y) / prec
    # matching: a0 = r a0 + k + (r ax + s) g_t mu;  ax = (r ax + s) g_x;
    #           ay = (r ax + s) g_y + r ay
    M = np.array([
        [1.0 - r, -r * g_t * mu_theta, 0.0],
        [0.0, 1.0 - r * g_x, 0.0],
        [0.0, -r * g_y, 1.0 - r],
    ])
    rhs = np.array([k + s * g_t * mu_theta, s * g_x, s * g_y])
    a0, ax, ay = np.linalg.solve(M, rhs)
    V = (ax + ay) ** 2 * var_theta + ay ** 2 * var_y
    D = ax ** 2 * var_x
    return BMEquilibrium(float(a0), float(ax), float(ay), float(V), float(D))
