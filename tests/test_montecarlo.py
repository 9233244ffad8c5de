import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernelgames.errors import NoRealEigenvalueAtLeastOne
from kernelgames.game import (_package_equilibrium, common_state_game,
                              full_info, no_info, private_iid_info,
                              solve_linear_equilibrium)
from kernelgames.grid import MeasureGrid, uniform_grid
from kernelgames.kernels import (Kernel, check_r1, constant_kernel,
                                 real_eigenvalues)
from kernelgames.montecarlo import (best_response_audit,
                                    bm_example_equilibrium,
                                    covariance_exchange_residual,
                                    duplicate_equilibria, sample_gaussian,
                                    verify_aggregate_mean,
                                    verify_aggregate_variance,
                                    verify_conditional_fubini)


# -- sampling ----------------------------------------------------------------

def test_sample_identity_covariance():
    n, d = 10, 100_000
    sample = sample_gaussian(np.zeros(n), np.eye(n), d, seed=1)
    emp = np.cov(sample.draws.T)
    assert np.max(np.abs(emp - np.eye(n))) <= 0.02


def test_sample_zero_covariance_is_deterministic():
    mean = np.array([1.0, -2.0, 3.0])
    sample = sample_gaussian(mean, np.zeros((3, 3)), 100, seed=2)
    assert np.allclose(sample.draws, mean[None, :])


def test_sample_rank_one_perfect_correlation():
    z = np.array([1.0, 2.0, -1.0])
    sample = sample_gaussian(np.zeros(3), np.outer(z, z), 5000, seed=3)
    corr = np.corrcoef(sample.draws[:, 0], sample.draws[:, 1])[0, 1]
    assert abs(corr) >= 0.999


def test_sampling_is_reproducible():
    a = sample_gaussian(np.zeros(4), np.eye(4), 1000, seed=9)
    b = sample_gaussian(np.zeros(4), np.eye(4), 1000, seed=9)
    assert np.array_equal(a.draws, b.draws)
    assert a.generator_id == b.generator_id


def test_sample_rejects_non_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        sample_gaussian(np.zeros(2), bad, 10, seed=0)


# -- aggregate mean / variance -----------------------------------------------

def test_aggregate_variance_iid_process():
    n, d = 50, 100_000
    grid = uniform_grid(n)
    sample = sample_gaussian(np.zeros(n), np.eye(n), d, seed=4)
    rep = verify_aggregate_variance(sample, grid, np.eye(n))
    assert rep.expected == pytest.approx(1.0 / n, abs=1e-15)
    assert rep.passed


def test_aggregate_variance_common_shock():
    n = 20
    grid = uniform_grid(n)
    cov = np.full((n, n), 2.5)   # one shared random variable
    sample = sample_gaussian(np.zeros(n), cov, 50_000, seed=5)
    rep = verify_aggregate_variance(sample, grid, cov)
    assert rep.expected == pytest.approx(2.5, abs=1e-12)
    assert rep.passed


def test_aggregate_variance_lqg_equilibrium_process():
    # action covariance of the symmetric example: Var 0.56, Cov 0.52
    n = 40
    grid = uniform_grid(n)
    cov = np.full((n, n), 0.52)
    np.fill_diagonal(cov, 0.56)
    sample = sample_gaussian(np.zeros(n), cov, 100_000, seed=6)
    rep = verify_aggregate_variance(sample, grid, cov)
    assert rep.expected == pytest.approx(0.52 + 0.04 / n, abs=1e-12)
    assert rep.passed


def test_aggregate_mean_matches_quadrature():
    rng = np.random.default_rng(7)
    n = 30
    grid = uniform_grid(n)
    mean = rng.normal(size=n)
    B = rng.normal(size=(n, 4))
    cov = B @ B.T
    sample = sample_gaussian(mean, cov, 100_000, seed=7)
    rep = verify_aggregate_mean(sample, grid, mean)
    assert rep.passed


# -- exact aggregation identities --------------------------------------------

def test_covariance_exchange_is_exact():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        grid = uniform_grid(n)
        B = rng.normal(size=(n, 6))
        assert covariance_exchange_residual(B @ B.T, grid,
                                            rng.normal(size=n)) <= 1e-12


def test_conditional_aggregation_commutes():
    rng = np.random.default_rng(9)
    n = 25
    grid = uniform_grid(n)
    mean = rng.normal(size=n)
    B = rng.normal(size=(n, 5))
    cov = B @ B.T + 0.2 * np.eye(n)
    sample = sample_gaussian(mean, cov, 5000, seed=10)
    rep = verify_conditional_fubini(sample, grid, [0, 7, 19], mean, cov)
    assert rep.passed
    assert rep.statistic <= 1e-9


def test_conditional_fubini_perfectly_correlated_single_node():
    n = 10
    grid = uniform_grid(n)
    cov = np.full((n, n), 1.0)
    sample = sample_gaussian(np.zeros(n), cov, 1000, seed=11)
    rep = verify_conditional_fubini(sample, grid, [0], np.zeros(n), cov)
    assert rep.statistic <= 1e-9


def test_conditional_fubini_independent_process():
    n = 8
    grid = uniform_grid(n)
    sample = sample_gaussian(np.zeros(n), np.eye(n), 1000, seed=12)
    rep = verify_conditional_fubini(sample, grid, [2], np.zeros(n), np.eye(n))
    assert rep.passed


# -- best-response audit -----------------------------------------------------

def test_audit_passes_on_solved_equilibrium():
    rng = np.random.default_rng(13)
    grid = uniform_grid(20)
    values = rng.uniform(-0.8, 0.8, size=(20, 20))
    game = common_state_game(grid, Kernel(grid, values), 0.5, 1.0)
    info = private_iid_info(game, 1.0)
    eq = solve_linear_equilibrium(game, info)
    rep = best_response_audit(eq, game, info, d=100_000, seed=14)
    assert rep.passed


def test_audit_fails_on_perturbed_loading():
    grid = uniform_grid(15)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 0.0, 1.0)
    info = full_info(game)
    eq = solve_linear_equilibrium(game, info)
    c = eq.loading_vector().copy()
    c[4] += 0.05
    bad = _package_equilibrium(game, info, c, eq.induced_mean.values)
    rep = best_response_audit(bad, game, info, d=20_000, seed=15)
    assert not rep.passed
    assert np.argmax(np.abs(rep.rms)) == 4


def test_audit_no_information_residual_zero():
    grid = uniform_grid(10)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 1.0, 1.0)
    info = no_info(game)
    eq = solve_linear_equilibrium(game, info)
    rep = best_response_audit(eq, game, info, d=2000, seed=16)
    assert rep.passed
    assert np.max(rep.rms) <= 1e-10


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
    return K.scale(lam / top)


def _assert_exact_duplicate(rep, lam):
    assert rep.eigenvalue == pytest.approx(lam, rel=1e-9)
    assert rep.base_audit.passed and rep.shifted_audit.passed
    assert np.max(rep.shifted_audit.rms) <= 1e-12 * rep.shifted_audit.scale
    assert rep.passed and rep.distance == 1.0


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
    if lam != 1.0:                  # at lambda_max = 1 rounding decides (R1)
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


def test_duplicate_distance_scales_linearly():
    grid = uniform_grid(12)
    game = common_state_game(grid, constant_kernel(grid, 1.5), 0.0, 1.0)
    d1 = duplicate_equilibria(game, d=2000, seed=20, scale=1.0).distance
    d3 = duplicate_equilibria(game, d=2000, seed=20, scale=3.0).distance
    assert d3 == pytest.approx(3.0 * d1)


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
