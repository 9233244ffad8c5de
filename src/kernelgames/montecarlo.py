"""Stochastic verification: process sampling, aggregation identities,
best-response audits, the non-uniqueness construction, and the symmetric
linear-quadratic example.

Sampling is seeded and reproducible; statistical checks report z-scores
against standard errors, while identities that are exact in linear algebra
(covariance exchange, conditional aggregation) are judged within EXACT_TOL
times (1 + their rounding scale), using the Monte Carlo draws only as
evaluation points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoRealEigenvalueAtLeastOne, SingularMeanEquation
from .game import BasicGame, GaussianInfo, LinearEquilibrium, \
    _nonzero_eigenvalues, _require_cov, _require_r, _require_symmetric, \
    _sym_pinv, relative_tol, solve_mean, _package_equilibrium
from .grid import MeasureGrid
from .kernels import _at_least_one, _real_mask, operator_matrix

GENERATOR_ID = "pcg64-spectral-v3"

#: standard errors a sampled mean or variance may stray from its target
TOL_SE = 4.0

#: values per block: neither a block's normals nor its image hold more
_BLOCK_VALUES = 1 << 16


def _gaussian_blocks(mean, cov, d: int, seed: int, maps):
    """Factor ``cov``, a covariance that passed ``game._require_cov``, and
    return (clamp, blocks), where ``blocks`` yields x @ ``maps`` for d >= 2
    draws x of N(mean, cov) in consecutive blocks of draws.  ``maps`` is a
    (len(mean), p) matrix; the raw draws are never formed.  clamp is
    max(0, -lambda_min) of ``cov``.

    The factor keeps the r eigenpairs that ``game._nonzero_eigenvalues``
    counts as nonzero, so each block is mean @ maps + z @ (factor.T @ maps)
    for the next max(1, ``_BLOCK_VALUES`` // max(r, p)) rows z of r standard
    normals of the seeded stream: the draws do not depend on the block size,
    maps = I yields the draws themselves bit for bit, and a zero covariance,
    or any all-zero image, draws no normals: each row is then mean @ maps.
    """
    if d < 2:
        raise ValueError(f"d = {d} draws; the sampled statistics need d >= 2")
    lam, vec = np.linalg.eigh(cov)
    # eigh sorts lam ascending, so the kept eigenpairs are its last ones
    top = lam.size - np.count_nonzero(_nonzero_eigenvalues(lam))
    # (maps.T @ factor).T, not factor.T @ maps: with maps = I it is the
    # factor's transposed view, the layout for which z @ image_t rounds as
    # z @ factor.T does (a C-ordered copy rounds small blocks differently)
    image_t = (maps.T @ (vec[:, top:] * np.sqrt(lam[top:]))).T
    offset = mean @ maps
    step = max(1, _BLOCK_VALUES // max(image_t.shape))
    if not image_t.any():
        image_t = image_t[:0]       # the normals would only be multiplied by 0
    rng = np.random.default_rng(seed)

    def blocks():
        for start in range(0, d, step):
            block = rng.standard_normal(
                (min(step, d - start), len(image_t))) @ image_t
            block += offset
            yield block
    return max(0.0, -float(lam[0])), blocks()


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


def _merge_moments(moments, block):
    """Merge a block of draws (rows; a 1-D block is one column) into the
    running (count, mean, M2) of its columns, M2 the centred sum of squares
    (Chan, Golub & LeVeque, 1979).  Start from (0, 0.0, 0.0) or zero vectors."""
    count, mean, m2 = moments
    b = len(block)
    block_mean = block.mean(axis=0)
    delta = block_mean - mean
    count += b
    mean = mean + delta * (b / count)
    m2 = m2 + (np.sum((block - block_mean) ** 2, axis=0)
               + delta ** 2 * ((count - b) * b / count))
    return count, mean, m2


#: beyond TOL_SE se, a sampled statistic may stray ROUNDING_TOL (1 + |expected|)
ROUNDING_TOL = 1e-12


def verify_aggregate_mean(moments, grid: MeasureGrid, mean) -> MCReport:
    """Empirical mean of the sampled aggregates (draws @ weights) vs the
    quadrature of means; ``moments`` is their (count d >= 2, mean, M2)."""
    expected = float(grid.weights @ np.asarray(mean, float))
    d, stat, m2 = moments
    stat, se = float(stat), math.sqrt(m2 / (d - 1)) / math.sqrt(d)
    return MCReport(stat, expected, se, abs(stat - expected)
                    <= TOL_SE * se + relative_tol(ROUNDING_TOL, expected))


def verify_aggregate_variance(moments, grid: MeasureGrid, cov) -> MCReport:
    """Empirical variance of the sampled aggregates (draws @ weights) vs the
    double integral of the covariance kernel; ``moments`` is their (count
    d >= 2, mean, M2)."""
    w = grid.weights
    expected = float(w @ np.asarray(cov, float) @ w)
    d, _, m2 = moments
    stat = float(m2 / (d - 1))
    # variance-of-sample-variance for a Gaussian statistic (at stat if zero)
    se = (expected or stat) * math.sqrt(2.0 / (d - 1))
    return MCReport(stat, expected, se, abs(stat - expected)
                    <= TOL_SE * se + relative_tol(ROUNDING_TOL, expected))


#: the exact identities hold on the draws within EXACT_TOL (1 + rounding scale)
EXACT_TOL = 1e-9


def covariance_exchange_residual(cov, grid: MeasureGrid, x_coeffs) -> MCReport:
    """Exact identity Cov[x, aggregate f] = integral of Cov[x, f(t)] for x =
    a . f, a = ``x_coeffs``: |(a Sigma) w - a (Sigma w)|, the statistic, is
    judged within EXACT_TOL (1 + |a|' |Sigma| w)."""
    cov = np.asarray(cov, float)
    a = np.asarray(x_coeffs, float)
    w = grid.weights
    res = abs(float((a @ cov) @ w) - float(a @ (cov @ w)))
    scale = float(np.abs(a) @ np.abs(cov) @ w)
    return MCReport(res, 0.0, 0.0, res <= EXACT_TOL * (1.0 + scale))


@dataclass(frozen=True)
class ProcessReport:
    """The four verdicts on one sampled process; ``clamp`` is
    max(0, -lambda_min) of its covariance."""

    mean: MCReport
    variance: MCReport
    exchange: MCReport
    conditional: MCReport
    clamp: float

    @property
    def passed(self) -> bool:
        return (self.mean.passed and self.variance.passed
                and self.exchange.passed and self.conditional.passed)


def verify_process(grid: MeasureGrid, mean, cov, d: int, seed: int,
                   x_coeffs, cond_nodes) -> ProcessReport:
    """Draw d samples of the process N(mean, cov) block by block
    (``_gaussian_blocks``) and judge them: the mean and variance of the
    aggregate (z-tests), the covariance exchange for x = ``x_coeffs`` . f and
    conditional aggregation on ``cond_nodes`` (exact identities).

    Conditioning and aggregation commute: at each draw, the conditional mean
    of the aggregate equals the aggregate of conditional means.  Both sides
    use the conditional Gaussian formula; the identity is exact, so the max
    discrepancy over draws must be within EXACT_TOL s, where s = 1 +
    |int mean| + max|x_c - mean_c| ||P||_inf max|Sigma[:, c]| bounds the
    rounding through the block pseudo-inverse P.  Only the aggregates'
    running moments and the two maxima outlive a block, so memory does not
    grow with ``d``.
    """
    mean = np.asarray(mean, float)
    cov = np.asarray(cov, float)
    if cov.shape != (mean.size, mean.size):
        raise ValueError("covariance shape must match the mean")
    _require_symmetric(cov, "covariance")
    _require_cov(cov, "covariance")
    w = grid.weights
    idx = grid.node_indices(cond_nodes)
    # each block is the draws' aggregate, then their conditioning coordinates
    maps = np.zeros((mean.size, 1 + idx.size))
    maps[:, 0] = w
    maps[idx, np.arange(1, 1 + idx.size)] = 1.0
    clamp, blocks = _gaussian_blocks(mean, cov, d, seed, maps)
    P = _sym_pinv(cov[np.ix_(idx, idx)])
    mean_agg = float(w @ mean)
    lhs_gain = P @ (w @ cov[:, idx])                # P Cov[x_c, aggregate]
    gains = cov[:, idx] @ P                         # (n, k)
    moments = (0, 0.0, 0.0)                         # the aggregates'
    disc = dev_max = 0.0
    for y in blocks:
        moments = _merge_moments(moments, y[:, 0])
        dev = y[:, 1:] - mean[idx]                  # (b, k)
        # LHS: E[aggregate | conditioning block]
        lhs = mean_agg + dev @ lhs_gain
        # RHS: aggregate of per-node conditional means
        rhs = (mean[None, :] + dev @ gains.T) @ w
        disc = max(disc, float(np.max(np.abs(lhs - rhs))))
        dev_max = max(dev_max, float(np.max(np.abs(dev), initial=0.0)))
    scale = (1.0 + abs(mean_agg) + dev_max
             * np.max(np.abs(P).sum(axis=1), initial=0.0)
             * np.max(np.abs(cov[:, idx]), initial=0.0))
    return ProcessReport(
        verify_aggregate_mean(moments, grid, mean),
        verify_aggregate_variance(moments, grid, cov),
        covariance_exchange_residual(cov, grid, x_coeffs),
        MCReport(disc, 0.0, 0.0, disc <= EXACT_TOL * scale), clamp)


@dataclass(frozen=True)
class NodeAuditReport:
    mean_z: np.ndarray
    rms: np.ndarray
    scale: float
    passed: bool


#: at each node the best-response residual has mean within TOL_SE se +
#: AUDIT_MEAN_TOL s and root mean square within AUDIT_RMS_TOL s, s = 1 + rms f
AUDIT_MEAN_TOL = 1e-8
AUDIT_RMS_TOL = 1e-6


def best_response_audit(eq: LinearEquilibrium, game: BasicGame,
                        d: int = 100_000, seed: int = 0) -> NodeAuditReport:
    """Monte Carlo check that each agent's strategy is a best response.

    Samples the signal coordinates of joint (theta, signal) draws, evaluates
    every agent's action and the conditional-formula right-hand side
    E_t[aggregate] + E_t[theta(t)], and tests that the residual has mean
    within ``TOL_SE`` standard errors of zero and negligible spread at every
    node.  The draws are consumed block by block as they are sampled, so
    memory does not grow with ``d``.
    """
    n, info = game.grid.n, eq.info
    c = eq.coefficients
    Rw = operator_matrix(game.payoff)
    # E_t[aggregate] + E_t[theta(t)] = its mean + k_t . (x_t - mu_t), where
    # k_t = P_t (Cov[x_t, aggregate] + Cov[x_t, theta(t)])
    cov_x_f = info._block_sum(info.signal_cov * c, axis=1)   # Cov[x, f(t')]
    k = info._own_pinv(info._own_entries(cov_x_f @ Rw.T + info.cross_cov))
    # each block is the draws' c_t . x_t, then their k_t . x_t, per node;
    # the mean of the right-hand side leaves out the k_t . mu_t that the
    # second image already holds
    rhs_mean = (Rw @ eq.induced_mean.values + game.state_mean.values
                - info._block_sum(info.signal_mean * k))
    coord, node = np.arange(info.total_dim), info._node_of()
    maps = np.zeros((info.total_dim, 2 * n))
    maps[coord, node] = c
    maps[coord, n + node] = k
    _, blocks = _gaussian_blocks(info.signal_mean, info.signal_cov, d,
                                 seed, maps)

    # per-node residual (count, mean, M2), and the sums of resid^2 and f^2
    moments = (0, np.zeros(n), np.zeros(n))
    sq = np.zeros(n)
    f_sq = 0.0
    for y in blocks:
        f = eq.intercepts.values + y[:, :n]                         # actions
        resid = f - rhs_mean - y[:, n:]
        moments = _merge_moments(moments, resid)
        sq += np.sum(resid ** 2, axis=0)
        f_sq += float(np.sum(f ** 2))

    _, means, m2 = moments
    scale = 1.0 + math.sqrt(f_sq / (d * n))
    se = np.sqrt(m2 / (d - 1)) / math.sqrt(d)
    rms = np.sqrt(sq / d)
    mean_ok = np.abs(means) <= TOL_SE * se + AUDIT_MEAN_TOL * scale
    rms_ok = rms <= AUDIT_RMS_TOL * scale
    mean_z = np.divide(means, se, out=np.zeros(n), where=se > 0)
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


def duplicate_equilibria(game: BasicGame, d: int = 100_000,
                         seed: int = 0) -> DuplicateReport:
    """Exhibit two distinct equilibria when the payoff operator A = R W has a
    real eigenvalue lambda >= 1 (eigenvector psi), directed or not.

    Agents observe state-independent unit-variance signals with
    Cov[x(s), x(t)] = c_s c_t off the diagonal, c_t^2 = (1 - rho_t) /
    (lambda - rho_t), where rho_t = w_t R(t, t) < 1 (else ValueError) is the
    weight of the agent's own cell.  For phi = psi / c this makes
    E_t[integral of R phi x] = phi_t x(t) exactly on the grid, so with f the
    no-information equilibrium, g = f + phi * x is one too; both must pass
    the best-response audit.  ``distance`` is ||g - f|| in L2(nu x P),
    measured from the two equilibria's loadings.
    """
    A = operator_matrix(game.payoff)
    lam_all, vec_all = np.linalg.eig(A)
    real_re = np.where(_real_mask(lam_all), lam_all.real, -np.inf)
    if not _at_least_one(real_re, game.payoff):
        raise NoRealEigenvalueAtLeastOne(
            "payoff operator has no real eigenvalue >= 1")
    j = np.argmax(real_re)
    lam = float(real_re[j])
    rho = np.diag(A)
    t = int(np.argmax(rho))
    if rho[t] >= 1.0:
        raise ValueError("duplicate construction needs w_t R(t, t) < 1 at every "
                         f"node; node {t} has {rho[t]:.3e}")
    # a lambda that _at_least_one counts is used as >= 1: c_t <= 1, sig_cov PSD
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
    info = GaussianInfo(game.state_cov, np.ones(n, int), np.zeros(n),
                        sig_cov, np.zeros((n, n)))
    eq_f = _package_equilibrium(base_game, info, np.zeros(n), base_mean)
    eq_g = _package_equilibrium(base_game, info, phi, base_mean)
    audit_f = best_response_audit(eq_f, base_game, d=d, seed=seed)
    audit_g = best_response_audit(eq_g, base_game, d=d, seed=seed + 1)
    # g - f = (c_g - c_f)_t x(t) with E x(t) = 0: ||g - f||^2 is the
    # integral of (c_g - c_f)_t^2 Var x(t)
    gap = eq_g.coefficients - eq_f.coefficients
    distance = math.sqrt(float(np.sum(w * gap ** 2 * np.diag(sig_cov))))
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
    _require_r(r)
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
