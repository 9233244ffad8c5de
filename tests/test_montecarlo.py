import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_game import _ragged_game_and_info

from kernelgames import game as game_module
from kernelgames import montecarlo
from kernelgames.checks import _bm_discretized
from kernelgames.errors import NoRealEigenvalueAtLeastOne, SingularMeanEquation
from kernelgames.game import (_package_equilibrium, common_state_game,
                              full_info, no_info, private_iid_info,
                              solve_linear_equilibrium, solve_mean)
from kernelgames.grid import MeasureGrid, uniform_grid
from kernelgames.kernels import (Kernel, check_r1, check_r2, constant_kernel,
                                 real_eigenvalues, spectral_report)
from kernelgames.montecarlo import (TOL_SE, _gaussian_blocks,
                                    best_response_audit,
                                    bm_example_equilibrium,
                                    covariance_exchange_residual,
                                    duplicate_equilibria,
                                    verify_aggregate_mean,
                                    verify_aggregate_variance, verify_process)


# -- sampling ----------------------------------------------------------------

def _draws(mean, cov, d, seed):
    """The sampler's d seeded draws, joined from its blocks."""
    return np.concatenate(list(_gaussian_blocks(mean, cov, d, seed,
                                                np.eye(len(mean)))[1]))


def test_sample_identity_covariance():
    n, d = 10, 100_000
    draws = _draws(np.zeros(n), np.eye(n), d, seed=1)
    emp = np.cov(draws.T)
    assert np.max(np.abs(emp - np.eye(n))) <= 0.02


_default_rng = np.random.default_rng


class _CountingRng:
    """A generator that records the shape of every standard normal draw."""

    def __init__(self, seed, sizes):
        self._rng = _default_rng(seed)
        self._sizes = sizes

    def standard_normal(self, size):
        self._sizes.append(size)
        return self._rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def normal_draws(monkeypatch):
    """The shapes of the standard normal arrays drawn during the test."""
    sizes = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _CountingRng(seed, sizes))
    return sizes


def test_sample_zero_covariance_is_deterministic(normal_draws):
    mean = np.array([1.0, -2.0, 3.0])
    draws = _draws(mean, np.zeros((3, 3)), 100, seed=2)
    assert np.array_equal(draws, np.tile(mean, (100, 1)))
    rep = verify_process(uniform_grid(3), mean, np.zeros((3, 3)), 100, 2,
                         np.ones(3), [1])
    assert rep.passed and rep.clamp == 0.0
    assert sum(math.prod(size) for size in normal_draws) == 0


def test_sample_rank_one_perfect_correlation():
    z = np.array([1.0, 2.0, -1.0])
    draws = _draws(np.zeros(3), np.outer(z, z), 5000, seed=3)
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(corr) >= 0.999


def test_sampling_is_reproducible():
    a = _draws(np.zeros(4), np.eye(4), 1000, seed=9)
    b = _draws(np.zeros(4), np.eye(4), 1000, seed=9)
    assert np.array_equal(a, b)
    grid = uniform_grid(4)
    reports = [verify_process(grid, np.zeros(4), np.eye(4), 1000, 9,
                              np.ones(4), [1]) for _ in range(2)]
    assert reports[0] == reports[1]


def test_sample_rejects_non_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        verify_process(uniform_grid(2), np.zeros(2), bad, 10, 0, np.ones(2), [0])


@pytest.mark.parametrize("entry, message", [
    (1e-14, "covariance must be symmetric"),
    (np.nan, "covariance must be finite"),
    (np.inf, "covariance must be finite"),
])
def test_sample_rejects_asymmetric_or_non_finite_cov(entry, message):
    cov = np.eye(3)
    cov[0, 2] += entry
    with pytest.raises(ValueError, match=message):
        verify_process(uniform_grid(3), np.zeros(3), cov, 10, 0, np.ones(3), [0])


def test_audit_runs_no_psd_verdict(monkeypatch):
    # the audit samples the signal block of an info that passed the gate
    eq, game = _bm_equilibrium(20)
    calls = []
    monkeypatch.setattr(game_module, "psd_within",
                        lambda sym: calls.append(sym.shape))
    assert best_response_audit(eq, game, d=1_000, seed=1).passed
    assert calls == []


def _one_shot_normals(cov, d, seed):
    """(z, factor): the whole (d, rank) standard normal array and the spectral
    factor of ``cov``, truncated to its eigenvalues above 1e-12 lambda_max."""
    lam, vec = np.linalg.eigh(cov)
    keep = lam > 1e-12 * lam.max()
    factor = vec[:, keep] * np.sqrt(lam[keep])
    z = np.random.default_rng(seed).standard_normal((d, factor.shape[1]))
    return z, factor


def _one_shot_draws(mean, cov, d, seed):
    """d draws at once."""
    z, factor = _one_shot_normals(cov, d, seed)
    return mean + z @ factor.T


def _one_shot_image(mean, cov, d, seed, maps):
    """The image x @ ``maps`` of d draws x at once, formed as the sampler
    forms it: mean @ maps + z @ (maps.T @ factor).T."""
    z, factor = _one_shot_normals(cov, d, seed)
    return mean @ maps + z @ (maps.T @ factor).T


@pytest.mark.parametrize("k, d", [
    (5, 2),                                             # two draws
    (3, 1000),                                          # below one block
    (3, 2 * (montecarlo._BLOCK_VALUES // 3) + 7),       # ragged last block
    (40, 3 * (montecarlo._BLOCK_VALUES // 40) - 1),
])
def test_blocked_draws_match_one_shot_reference(k, d):
    rng = np.random.default_rng(k + d)
    B = rng.normal(size=(k, 2))                         # rank 2 at most
    mean, cov = rng.normal(size=k), B @ B.T
    ref = _one_shot_draws(mean, cov, d, seed=d)
    draws = _draws(mean, cov, d, seed=d)
    assert draws.shape == (d, k)
    assert np.all(np.abs(draws - ref) <= 1e-12 * (1.0 + np.abs(ref)))


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 12), rank=st.integers(0, 12), lo=st.integers(0, 11),
       width=st.integers(1, 12), p_per_k=st.floats(0.0, 2.0),
       block=st.integers(1, 200), d=st.integers(2, 300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mapped_blocks_match_raw_draws_times_maps(k, rank, lo, width,
                                                  p_per_k, block, d, seed):
    # the marginal of a random slice of rows of a rank <= k covariance (rank
    # 0: the zero matrix), p from 1 to 2k columns, and a small block so that
    # most cases stream several blocks and end in a ragged one
    rng = np.random.default_rng(seed)
    lo = min(lo, k - 1)
    rows = slice(lo, min(k, lo + width))
    m = rows.stop - lo
    p = max(1, round(p_per_k * k))
    B = rng.normal(size=(k, rank))
    mean, cov = rng.normal(size=k)[rows], (B @ B.T)[rows, rows]
    maps = rng.normal(size=(m, p))
    with patch.object(montecarlo, "_BLOCK_VALUES", block):
        raw = np.concatenate(list(_gaussian_blocks(mean, cov, d, seed,
                                                   np.eye(m))[1]))
        images = list(_gaussian_blocks(mean, cov, d, seed, maps)[1])
    ref = raw @ maps
    got = np.concatenate(images)
    assert got.shape == (d, p)
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))


def test_full_rank_draws_match_untruncated_factor_bit_for_bit():
    # with every eigenvalue kept and every row drawn, each block is exactly
    # mean + z @ (V sqrt(Lambda)).T for the next (step, k) normals z, as
    # before truncation: every full-rank process draws the same values
    rng = np.random.default_rng(3)
    k = 40
    B = rng.normal(size=(k, 5))
    mean, cov = rng.normal(size=k), B @ B.T + 0.1 * np.eye(k)
    step = montecarlo._BLOCK_VALUES // k
    d = 2 * step + 11
    lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
    factor_t = (vec * np.sqrt(np.clip(lam, 0.0, None))).T
    z = np.random.default_rng(8)
    ref = np.concatenate([mean + z.standard_normal((min(step, d - s), k))
                          @ factor_t for s in range(0, d, step)])
    assert np.array_equal(_draws(mean, cov, d, seed=8), ref)


@pytest.mark.parametrize("rows", [slice(None), slice(3, None)])
def test_rank_deficient_draws_lie_in_the_range(rows, normal_draws):
    # draws of a rank-3 covariance have no component along its null vectors
    rng = np.random.default_rng(31)
    k = 12
    B = rng.normal(size=(k, 3))
    mean = rng.normal(size=k)
    draws = np.concatenate(list(_gaussian_blocks(
        mean[rows], (B @ B.T)[rows, rows], 5000, 31, np.eye(k)[rows, rows])[1]))
    u, _, _ = np.linalg.svd(B[rows])
    null = u[:, 3:]
    assert null.shape[1] > 0
    dev = draws - mean[rows]
    assert np.max(np.abs(dev @ null)) <= 1e-12 * (1.0 + np.max(np.abs(dev)))
    assert [size[1] for size in normal_draws] == [3]


def test_blocks_hold_at_most_block_values(normal_draws, monkeypatch):
    # the audit's image is wider than its rank (121 normals, 240 columns);
    # verify_process's is narrower (300 normals, 3 columns)
    images = []
    blocks_of = montecarlo._gaussian_blocks

    def recording(*args, **kwargs):
        clamp, blocks = blocks_of(*args, **kwargs)
        return clamp, (images.append(y.shape) or y for y in blocks)
    monkeypatch.setattr(montecarlo, "_gaussian_blocks", recording)
    eq, game = _bm_equilibrium(120)
    assert best_response_audit(eq, game, d=5_000, seed=1).passed
    n = 300
    assert verify_process(uniform_grid(n), np.zeros(n), np.eye(n), 5_000, 2,
                          np.ones(n), [0, 9]).passed
    assert {size[1] for size in normal_draws} == {121, 300}
    assert {size[1] for size in images} == {240, 3}
    assert sum(size[0] for size in images) == 10_000
    assert montecarlo._BLOCK_VALUES == 1 << 16
    for size in normal_draws + images:
        assert math.prod(size) <= 1 << 16


@pytest.mark.parametrize("d", [0, 1])
def test_every_sampling_caller_rejects_fewer_than_two_draws(d):
    with pytest.raises(ValueError, match=f"d = {d} draws"):
        verify_process(uniform_grid(4), np.zeros(4), np.eye(4), d, 0,
                       np.ones(4), [0])
    grid = uniform_grid(5)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 0.0, 1.0)
    info = private_iid_info(game, 1.0)
    eq = solve_linear_equilibrium(game, info)
    with pytest.raises(ValueError, match=f"d = {d} draws"):
        best_response_audit(eq, game, d=d, seed=0)
    dup = common_state_game(grid, constant_kernel(grid, 2.0), 1.0, 1.0)
    with pytest.raises(ValueError, match=f"d = {d} draws"):
        duplicate_equilibria(dup, d=d, seed=0)


# -- aggregate mean / variance -----------------------------------------------

def test_aggregate_variance_iid_process():
    n, d = 50, 100_000
    grid = uniform_grid(n)
    rep = verify_process(grid, np.zeros(n), np.eye(n), d, 4, np.ones(n),
                         [0]).variance
    assert rep.expected == pytest.approx(1.0 / n, abs=1e-15)
    assert rep.passed


def test_aggregate_variance_common_shock():
    n = 20
    grid = uniform_grid(n)
    cov = np.full((n, n), 2.5)   # one shared random variable
    rep = verify_process(grid, np.zeros(n), cov, 50_000, 5, np.ones(n),
                         [0]).variance
    assert rep.expected == pytest.approx(2.5, abs=1e-12)
    assert rep.passed


def test_aggregate_variance_lqg_equilibrium_process():
    # action covariance of the symmetric example: Var 0.56, Cov 0.52
    n = 40
    grid = uniform_grid(n)
    cov = np.full((n, n), 0.52)
    np.fill_diagonal(cov, 0.56)
    rep = verify_process(grid, np.zeros(n), cov, 100_000, 6, np.ones(n),
                         [0]).variance
    assert rep.expected == pytest.approx(0.52 + 0.04 / n, abs=1e-12)
    assert rep.passed


def test_aggregate_mean_matches_quadrature():
    rng = np.random.default_rng(7)
    n = 30
    grid = uniform_grid(n)
    mean = rng.normal(size=n)
    B = rng.normal(size=(n, 4))
    cov = B @ B.T
    rep = verify_process(grid, mean, cov, 100_000, 7, np.ones(n), [0]).mean
    assert rep.passed


def _one_shot_conditional(draws, grid, cond_nodes, mean, cov):
    """Conditional-aggregation discrepancy over all draws at once, and the
    rounding scale it is judged against: (per-draw |lhs - rhs|, scale)."""
    w = grid.weights
    idx = np.asarray(cond_nodes, dtype=int)
    P = montecarlo._sym_pinv(cov[np.ix_(idx, idx)])
    dev = draws[:, idx] - mean[idx]
    lhs = float(w @ mean) + dev @ (P @ (w @ cov[:, idx]))
    rhs = (mean[None, :] + dev @ (cov[:, idx] @ P).T) @ w
    scale = (1.0 + abs(float(w @ mean)) + np.max(np.abs(dev), initial=0.0)
             * np.max(np.abs(P).sum(axis=1), initial=0.0)
             * np.max(np.abs(cov[:, idx]), initial=0.0))
    return np.abs(lhs - rhs), scale


def _assert_close(got, want):
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_streamed_process_matches_one_shot_reference(monkeypatch):
    rng = np.random.default_rng(21)
    n = 25
    grid = uniform_grid(n)
    mean = rng.normal(size=n)
    B = rng.normal(size=(n, 5))
    cov = B @ B.T + 0.1 * np.eye(n)
    a, nodes = rng.normal(size=n), [0, 7, 19]
    step = montecarlo._BLOCK_VALUES // n
    d = 3 * step + 7                                    # ragged fourth block
    ref = _one_shot_draws(mean, cov, d, seed=21)
    agg = ref @ grid.weights
    moments = (d, agg.mean(), np.sum((agg - agg.mean()) ** 2))

    def assert_matches(rep):
        for got, want in ((rep.mean, verify_aggregate_mean(moments, grid, mean)),
                          (rep.variance,
                           verify_aggregate_variance(moments, grid, cov))):
            _assert_close(got.statistic, want.statistic)
            _assert_close(got.expected, want.expected)
            _assert_close(got.stderr, want.stderr)
            assert got.passed == want.passed
        assert rep.exchange == covariance_exchange_residual(cov, grid, a)
        disc, scale = _one_shot_conditional(ref, grid, nodes, mean, cov)
        _assert_close(rep.conditional.statistic, float(np.max(disc)))
        assert rep.conditional.passed == (np.max(disc) <= 1e-9 * scale)
        return disc

    rep = verify_process(grid, mean, cov, d, 21, a, nodes)
    assert_matches(rep)
    assert rep.passed
    # a wrong mean fails the mean test only: draw N(mean, cov), judge it
    # against mean + 1
    blocks_of = montecarlo._gaussian_blocks
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_gaussian_blocks",
                  lambda mu, *args: blocks_of(mu - 1.0, *args))
        off = verify_process(grid, mean + 1.0, cov, d, 21, a, nodes)
    assert not off.mean.passed and not off.passed
    assert off.variance.passed and off.exchange.passed and off.conditional.passed
    # a skewed block pseudo-inverse P puts P c on one side and P' c on the
    # other, so the discrepancy is of order one and its max over draws has
    # to survive the blocks after the one it sits in
    pinv = montecarlo._sym_pinv
    skew = np.triu(np.ones((3, 3)), 1)
    monkeypatch.setattr(montecarlo, "_sym_pinv", lambda S: pinv(S) + skew)
    bad = verify_process(grid, mean, cov, d, 21, a, nodes)
    disc = assert_matches(bad)
    assert not bad.conditional.passed
    assert np.argmax(disc) < 3 * step


def test_process_memory_does_not_grow_with_draws():
    # the (200,000 x 40) draws array alone is 61 MiB, and one float per draw
    # of the aggregate would be 7.6 MiB at 10^6 draws
    rng = np.random.default_rng(40)
    peaks = []
    for n, d in ((40, 200_000), (8, 100_000), (8, 1_000_000)):
        grid = uniform_grid(n)
        mean = rng.normal(size=n)
        B = rng.normal(size=(n, 5))
        cov = B @ B.T + 0.1 * np.eye(n)
        a = rng.normal(size=n)
        tracemalloc.start()
        try:
            rep = verify_process(grid, mean, cov, d, 40, a, [0, n // 2])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep.passed
    assert max(peaks) < 5 * 2 ** 20
    assert abs(peaks[2] - peaks[1]) <= 0.1 * peaks[1]


# -- exact aggregation identities --------------------------------------------

def test_covariance_exchange_is_exact():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        grid = uniform_grid(n)
        B = rng.normal(size=(n, 6))
        rep = covariance_exchange_residual(B @ B.T, grid, rng.normal(size=n))
        assert rep.passed
        assert rep.statistic <= 1e-12


def test_conditional_aggregation_commutes():
    rng = np.random.default_rng(9)
    n = 25
    grid = uniform_grid(n)
    mean = rng.normal(size=n)
    B = rng.normal(size=(n, 5))
    cov = B @ B.T + 0.2 * np.eye(n)
    rep = verify_process(grid, mean, cov, 5000, 10, np.ones(n),
                         [0, 7, 19]).conditional
    assert rep.passed
    assert rep.statistic <= 1e-9


def test_conditional_fubini_perfectly_correlated_single_node():
    n = 10
    grid = uniform_grid(n)
    cov = np.full((n, n), 1.0)
    rep = verify_process(grid, np.zeros(n), cov, 1000, 11, np.ones(n),
                         [0]).conditional
    assert rep.statistic <= 1e-9


def test_conditional_fubini_near_singular_block_within_rounding_scale():
    # nodes 0 and 1 almost collinear: the block pseudo-inverse has entries of
    # order 1e8, and rounding through it leaves a discrepancy above 1e-9
    n = 12
    grid = uniform_grid(n)
    rng = np.random.default_rng(1)
    B = rng.normal(size=(n, 4))
    B[1] = B[0] + 1e-4 * rng.normal(size=4)
    cov = B @ B.T
    mean = rng.normal(size=n)
    rep = verify_process(grid, mean, cov, 200, 1, np.ones(n),
                         [0, 1]).conditional
    assert rep.statistic > 1e-9
    assert rep.passed


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 20), rank=st.integers(1, 6), k=st.integers(1, 3),
       log_gap=st.floats(-12.0, 0.0), seed=st.integers(0, 2 ** 32 - 1))
def test_exact_aggregation_identities_within_rounding_scale(n, rank, k,
                                                            log_gap, seed):
    # random weights and a rank <= 6 covariance whose conditioning block has
    # its last node within 10**log_gap of its first, so the block is as
    # near-singular as the property draws it
    rng = np.random.default_rng(seed)
    grid = MeasureGrid(np.arange(n, dtype=float), rng.dirichlet(np.ones(n)))
    B = rng.normal(size=(n, rank))
    nodes = rng.choice(n, size=min(k, n), replace=False)
    B[nodes[-1]] = B[nodes[0]] + 10.0 ** log_gap * rng.normal(size=rank)
    cov = B @ B.T
    mean = rng.normal(size=n)
    rep = verify_process(grid, mean, cov, 200, seed, rng.normal(size=n), nodes)
    assert rep.exchange.passed
    assert rep.conditional.passed


def test_conditional_fubini_independent_process():
    n = 8
    grid = uniform_grid(n)
    rep = verify_process(grid, np.zeros(n), np.eye(n), 1000, 12, np.ones(n),
                         [2]).conditional
    assert rep.passed


# -- best-response audit -----------------------------------------------------

def test_audit_passes_on_solved_equilibrium():
    rng = np.random.default_rng(13)
    grid = uniform_grid(20)
    values = rng.uniform(-0.8, 0.8, size=(20, 20))
    game = common_state_game(grid, Kernel(grid, values), 0.5, 1.0)
    info = private_iid_info(game, 1.0)
    eq = solve_linear_equilibrium(game, info)
    rep = best_response_audit(eq, game, d=100_000, seed=14)
    assert rep.passed


def test_audit_fails_on_perturbed_loading():
    grid = uniform_grid(15)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 0.0, 1.0)
    info = full_info(game)
    eq = solve_linear_equilibrium(game, info)
    c = eq.loading_vector().copy()
    c[4] += 0.05
    bad = _package_equilibrium(game, info, c, eq.induced_mean.values)
    rep = best_response_audit(bad, game, d=20_000, seed=15)
    assert not rep.passed
    assert np.argmax(np.abs(rep.rms)) == 4


def test_audit_no_information_residual_zero():
    grid = uniform_grid(10)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 1.0, 1.0)
    info = no_info(game)
    eq = solve_linear_equilibrium(game, info)
    rep = best_response_audit(eq, game, d=2000, seed=16)
    assert rep.passed
    assert np.max(rep.rms) <= 1e-10


def _audit_image(eq, game):
    """(maps, rhs_mean): the (D, 2n) map of the signals to every node's
    action loading c_t . x_t and conditional-formula loading k_t . x_t, and
    the residual's constant once k . mu is taken out."""
    n, info = game.grid.n, eq.info
    c = eq.loading_vector()
    Rw = game.payoff.values * game.grid.weights
    cov_x_f = info._block_sum(info.signal_cov * c, axis=1)
    k = info._own_pinv(info._own_entries(cov_x_f @ Rw.T + info.cross_cov))
    rhs_mean = (Rw @ eq.induced_mean.values + game.state_mean.values
                - info._block_sum(info.signal_mean * k))
    node, D = info._node_of(), info.total_dim
    maps = np.zeros((D, 2 * n))
    maps[np.arange(D), node] = c
    maps[np.arange(D), n + node] = k
    return maps, rhs_mean


def _one_shot_audit(eq, game, d, seed):
    """The audit with the image of all d draws in memory at once: (mean_z,
    rms, scale, passed)."""
    n = game.grid.n
    maps, rhs_mean = _audit_image(eq, game)
    y = _one_shot_image(eq.info.signal_mean, eq.info.signal_cov, d, seed,
                        maps)
    f = eq.intercepts.values + y[:, :n]
    resid = f - rhs_mean - y[:, n:]
    scale = 1.0 + float(np.sqrt(np.mean(f ** 2)))
    means = resid.mean(axis=0)
    se = resid.std(axis=0, ddof=1) / math.sqrt(d)
    rms = np.sqrt(np.mean(resid ** 2, axis=0))
    passed = np.all((np.abs(means) <= TOL_SE * se + 1e-8 * scale)
                    & (rms <= 1e-6 * scale))
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_z = np.where(se > 0, means / se, 0.0)
    return mean_z, rms, scale, bool(passed)


def _bm_equilibrium(n):
    game, info = _bm_discretized(n, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.0)
    return solve_linear_equilibrium(game, info), game


def _assert_matches_one_shot(rep, eq, game, d, seed):
    mean_z, rms, scale, passed = _one_shot_audit(eq, game, d, seed)
    assert rep.passed == passed
    assert abs(rep.scale - scale) <= 1e-12 * scale
    assert np.all(np.abs(rep.rms - rms) <= 1e-12 * rms)
    assert np.all(np.abs(rep.mean_z - mean_z) <= 1e-9 * (1.0 + np.abs(mean_z)))


@pytest.mark.parametrize("case, d", [("ragged", 3_001), ("ragged", 40_000),
                                     ("bm", 20_000)])
def test_streamed_audit_matches_one_shot_reference(case, d):
    if case == "ragged":        # signal dims 1-3, rank-deficient joint law
        game, info = _ragged_game_and_info()
        eq = solve_linear_equilibrium(game, info)
    else:                       # two signals per node, rounding-noise residuals
        eq, game = _bm_equilibrium(60)
    rep = best_response_audit(eq, game, d=d, seed=5)
    _assert_matches_one_shot(rep, eq, game, d, seed=5)


def test_streamed_audit_matches_one_shot_on_duplicate_equilibria(monkeypatch):
    # the shifted equilibrium's rounding-noise residual means sit hundreds of
    # standard errors from zero
    calls = []

    def audit(eq, game, d, seed):
        calls.append((audit_of(eq, game, d=d, seed=seed), eq, game, d, seed))
        return calls[-1][0]
    audit_of = montecarlo.best_response_audit
    monkeypatch.setattr(montecarlo, "best_response_audit", audit)
    grid = uniform_grid(20)
    game = common_state_game(grid, constant_kernel(grid, 2.0), 1.0, 1.0)
    duplicate_equilibria(game, d=50_000, seed=1000)
    assert len(calls) == 2
    assert np.max(np.abs(calls[1][0].mean_z)) > 100.0
    for call in calls:
        _assert_matches_one_shot(*call)


def test_audit_draws_one_normal_per_rank(normal_draws):
    # the quick bm joint law has rank 121 of 360: the common state, the n - 1
    # centred private noises and the public noise; the audit draws 121
    # normals per draw, not 360 (nor 240, the signal rows)
    eq, game = _bm_equilibrium(120)
    rep = best_response_audit(eq, game, d=20_000, seed=55)
    assert rep.passed
    assert {size[1] for size in normal_draws} == {121}
    assert sum(size[0] for size in normal_draws) == 20_000


def test_audit_block_sums_do_not_grow_with_draws(monkeypatch):
    # the audit sums signal blocks (np.add.reduceat) while it sets up its
    # maps, never per block of draws: 4 blocks at d = 2,000, 92 at 50,000
    eq, game = _bm_equilibrium(60)
    counts = []
    add = np.add

    class CountingAdd:
        def __call__(self, *args, **kwargs):
            return add(*args, **kwargs)

        def reduceat(self, *args, **kwargs):
            counts[-1] += 1
            return add.reduceat(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(add, name)
    monkeypatch.setattr(np, "add", CountingAdd())
    for d in (2_000, 50_000):
        counts.append(0)
        assert best_response_audit(eq, game, d=d, seed=3).passed
    assert counts[0] == counts[1] > 0


def test_audit_memory_does_not_grow_with_draws():
    # one (20,000 x 360) joint draws array alone is 54.9 MiB
    eq, game = _bm_equilibrium(120)
    tracemalloc.start()
    try:
        rep = best_response_audit(eq, game, d=20_000, seed=55)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 4 * 2 ** 20


# -- duplicate equilibria ----------------------------------------------------

def test_duplicate_two_node_eigenvalue_one():
    grid = MeasureGrid([0.25, 0.75], [0.5, 0.5])
    game = common_state_game(grid, Kernel(grid, [[0.0, 2.0], [2.0, 0.0]]), 0.0, 1.0)
    rep = duplicate_equilibria(game, d=50_000, seed=17)
    assert rep.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert rep.passed
    assert rep.distance > 0


def test_duplicate_eigenvalue_just_below_one_keeps_signals_psd():
    # lambda = 1 - 5e-10 counts as 1; with rho_t = 1 - 1.5e-9 the unclipped
    # c_t^2 would be 1.5 and the signal covariance indefinite
    grid = MeasureGrid([0.25, 0.75], [0.5, 0.5])
    R = 2.0 * np.array([[1 - 1.5e-9, 1e-9], [1e-9, 1 - 1.5e-9]])
    game = common_state_game(grid, Kernel(grid, R), 0.0, 1.0)
    rep = duplicate_equilibria(game, d=2000, seed=0)
    assert rep.eigenvalue < 1.0
    assert rep.passed


def test_duplicate_constant_kernel_lambda_two():
    grid = uniform_grid(20)
    game = common_state_game(grid, constant_kernel(grid, 2.0), 1.0, 1.0)
    rep = duplicate_equilibria(game, d=50_000, seed=18)
    assert rep.eigenvalue == pytest.approx(2.0, abs=1e-9)
    assert rep.passed


def test_duplicate_requires_large_eigenvalue():
    grid = uniform_grid(10)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 0.0, 1.0)
    with pytest.raises(NoRealEigenvalueAtLeastOne):
        duplicate_equilibria(game, d=100, seed=19)


def _random_weights_grid(rng, n):
    u = rng.uniform(0.5, 1.5, n)
    return MeasureGrid(np.arange(n, dtype=float), u / u.sum())


def _scaled_to(K, lam):
    """``K`` rescaled so that its operator R W has largest real eigenvalue ``lam``."""
    top = float(real_eigenvalues(K).max())
    return Kernel(K.grid, K.values * (lam / top))


def _assert_exact_duplicate(rep, lam):
    assert rep.eigenvalue == pytest.approx(lam, rel=1e-9)
    assert rep.base_audit.passed and rep.shifted_audit.passed
    assert np.max(rep.shifted_audit.rms) <= 1e-12 * rep.shifted_audit.scale
    assert rep.passed and rep.distance == pytest.approx(1.0, rel=1e-12)


# the paper's necessity direction: for undirected interactions (R1) fails
# exactly when lambda_max >= 1, and then the duplicate equilibrium exists
@settings(max_examples=120, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 2 ** 32 - 1),
       lam=st.one_of(st.sampled_from([1.0, 1.5, 3.0]),
                     st.floats(0.1, 3.0).filter(lambda x: abs(x - 1.0) > 1e-6)))
def test_duplicate_exact_iff_r1_fails_on_undirected_kernels(n, seed, lam):
    rng = np.random.default_rng(seed)
    grid = _random_weights_grid(rng, n)
    v = rng.normal(size=(n, n))
    K = Kernel(grid, v + v.T)
    assume(real_eigenvalues(K).max() > 0.0)
    K = _scaled_to(K, lam)
    assert check_r1(K) == (lam < 1.0)
    game = common_state_game(grid, K, 1.0, 1.0)
    rho = grid.weights * np.diag(K.values)
    if lam < 1.0:
        with pytest.raises(NoRealEigenvalueAtLeastOne):
            duplicate_equilibria(game, d=2000, seed=0)
    elif rho.max() >= 1.0:
        with pytest.raises(ValueError, match=f"node {np.argmax(rho)} has"):
            duplicate_equilibria(game, d=2000, seed=0)
    else:
        _assert_exact_duplicate(duplicate_equilibria(game, d=2000, seed=0), lam)


@pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 3.0])
def test_duplicate_exact_on_directed_positive_kernel(lam):
    # lam is the Perron root of the positive operator
    rng = np.random.default_rng(23)
    n = 15
    grid = _random_weights_grid(rng, n)
    K = _scaled_to(Kernel(grid, rng.uniform(0.1, 1.0, size=(n, n))), lam)
    assert not check_r1(K)
    assert np.max(grid.weights * np.diag(K.values)) < 1.0
    game = common_state_game(grid, K, 1.0, 1.0)
    _assert_exact_duplicate(duplicate_equilibria(game, d=2000, seed=24), lam)


@pytest.mark.parametrize("n", [7, 10, 20, 40, 100])
def test_eigenvalue_one_gets_one_verdict(n):
    # lambda_max = 1 up to rounding, above or below 1 depending on n: every
    # verdict reads kernels' one rule, so uniqueness is never claimed while
    # the duplicate construction exhibits two equilibria
    grid = uniform_grid(n)
    K = constant_kernel(grid, 1.0)
    rep = spectral_report(K)
    assert not (check_r1(K) or check_r2(K) or rep.r1_holds or rep.r2_holds)
    game = common_state_game(grid, K, 1.0, 1.0)
    with pytest.raises(SingularMeanEquation):
        solve_mean(game)
    assert duplicate_equilibria(game, d=2000, seed=0).passed


def test_duplicate_distance_is_the_l2_norm_of_the_loading_gap(monkeypatch):
    audited = []
    audit_of = montecarlo.best_response_audit
    monkeypatch.setattr(montecarlo, "best_response_audit",
                        lambda eq, game, d, seed: audited.append(eq)
                        or audit_of(eq, game, d, seed))
    grid = uniform_grid(12)
    for r in (2.0, 1.5, 1.0):
        game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
        rep = duplicate_equilibria(game, d=2000, seed=20)
        eq_f, eq_g = audited[-2:]
        # f loads on no signal, so ||g - f||^2 is the integral of Var g(t)
        assert np.all(eq_f.loading_vector() == 0.0)
        norm_sq = grid.weights @ np.diag(eq_g.induced_action_cov.values)
        assert rep.distance == pytest.approx(math.sqrt(norm_sq), rel=1e-12)
        assert rep.distance == pytest.approx(1.0, rel=1e-12)


# -- symmetric LQG example ---------------------------------------------------

def test_bm_canonical_parameters():
    bm = bm_example_equilibrium(0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.0)
    assert bm.alpha0 == pytest.approx(0.0, abs=1e-12)
    assert bm.alpha_x == pytest.approx(0.2, abs=1e-12)
    assert bm.alpha_y == pytest.approx(0.4, abs=1e-12)
    assert bm.volatility == pytest.approx(0.52, abs=1e-12)
    assert bm.dispersion == pytest.approx(0.04, abs=1e-12)


def test_bm_state_independent_game():
    bm = bm_example_equilibrium(0.3, 1.0, 2.0, 0.5, 0.6, 0.0, 1.2)
    assert bm.alpha_x == pytest.approx(0.0, abs=1e-12)
    assert bm.alpha_y == pytest.approx(0.0, abs=1e-12)
    assert bm.alpha0 == pytest.approx(1.2 / (1 - 0.6), abs=1e-12)


def test_bm_large_private_noise_recovers_public_equilibrium():
    bm = bm_example_equilibrium(0.0, 1.0, 1e6, 1.0, 0.5, 0.5, 0.0)
    assert abs(bm.alpha_x) <= 1e-5
    # public-only oracle: aggregate = alpha_y y, so the fixed point is
    # alpha_y = s g_y / (1 - r) with g_y = 1/2
    assert bm.alpha_y == pytest.approx((0.5 * 0.5) / (1 - 0.5), abs=1e-4)


def test_bm_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bm_example_equilibrium(0.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        bm_example_equilibrium(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.0)
