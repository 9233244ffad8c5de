import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelgames import game as game_module
from kernelgames.checks import _fixed_point_loadings
from kernelgames.design import _random_info
from kernelgames.errors import NoConvergence, SingularMeanEquation
from kernelgames.game import (BasicGame, GaussianInfo, _coefficient_system,
                              _package_equilibrium,
                              _sym_pinv, common_state_game, full_info, info_from_parts,
                              no_info,
                              private_iid_info, public_info,
                              solve_linear_equilibrium, solve_mean, targeted_info,
                              verify_moment_restrictions)
from kernelgames.grid import MeasureGrid, uniform_grid
from kernelgames.kernels import (Kernel, check_psd, check_r1, constant_kernel,
                                 separable_kernel)
from kernelgames.moments import symmetric_moment_identity
from kernelgames.montecarlo import best_response_audit


def _bm_info(game, n, var_x=1.0, var_y=1.0, mu=0.0):
    """Two signals per node: own noisy observation x_i and a shared signal y.

    The state of the game is the rescaled s*theta + k; the signals observe the
    raw unit-variance theta, so the cross-covariances carry the factor s.
    """
    s = np.sqrt(float(game.state_cov.values[0, 0]))
    # exchangeable sum-zero noise so the aggregate of x carries no noise term
    N = var_x * n / (n - 1) * (np.eye(n) - np.full((n, n), 1.0 / n))
    D = 2 * n
    xi_idx = np.arange(0, D, 2)
    y_idx = np.arange(1, D, 2)
    sig_cov = np.zeros((D, D))
    sig_cov[np.ix_(xi_idx, xi_idx)] = 1.0 + N
    sig_cov[np.ix_(xi_idx, y_idx)] = 1.0
    sig_cov[np.ix_(y_idx, xi_idx)] = 1.0
    sig_cov[np.ix_(y_idx, y_idx)] = 1.0 + var_y
    cross = np.full((D, n), s)
    return info_from_parts(game, np.full(n, 2, int), np.full(D, mu),
                           sig_cov, cross)


# -- solve_mean --------------------------------------------------------------

def test_solve_mean_geometric_series():
    g = uniform_grid(20)
    game = common_state_game(g, constant_kernel(g, 0.5), 1.0, 1.0)
    phi = solve_mean(game)
    assert np.allclose(phi.values, 2.0, atol=1e-12)


def test_solve_mean_zero_forcing():
    g = uniform_grid(15)
    game = common_state_game(g, constant_kernel(g, -0.8), 0.0, 1.0)
    assert np.allclose(solve_mean(game).values, 0.0)


def test_solve_mean_singular_at_eigenvalue_one():
    g = uniform_grid(10)
    game = common_state_game(g, constant_kernel(g, 1.0), 1.0, 1.0)
    for _ in range(2):      # nothing is kept: every call raises
        with pytest.raises(SingularMeanEquation,
                           match=r"eigenvalue 1[+-]0j, within 2\.0e-09 of 1"):
            solve_mean(game)


def test_mean_residual_error_names_residual_and_tolerance(monkeypatch):
    # one rule refuses both systems: the mean equation and the loadings
    g = uniform_grid(10)
    values = np.random.default_rng(5).uniform(-0.9, 0.9, size=(10, 10))
    game = common_state_game(g, Kernel(g, values), 1.0, 1.0)
    monkeypatch.setattr(game_module, "FIXED_POINT_TOL", 0.0)
    with pytest.raises(SingularMeanEquation, match=r"mean equation residual "
                       r"\d\.\d{3}e-\d\d above tolerance 0\.0e\+00"):
        solve_mean(game)
    with pytest.raises(NoConvergence, match=r"loadings residual "
                       r"\d\.\d{3}e-\d\d above tolerance 0\.0e\+00"):
        solve_linear_equilibrium(game, private_iid_info(game, 0.5))


def test_solve_mean_singular_in_floating_point():
    # no eigenvalue of A is 1, but 1 + 1e17 rounds I - A to a singular matrix
    g = uniform_grid(10)
    game = common_state_game(g, constant_kernel(g, -1e18), 0.0, 1.0)
    with pytest.raises(SingularMeanEquation, match="^mean equation matrix I - A "
                       "is singular in floating point$"):
        solve_mean(game)
    # the loadings' I - A under full information rounds the same way
    with pytest.raises(NoConvergence, match="^loadings matrix I - A is singular "
                       "in floating point$"):
        solve_linear_equilibrium(game, full_info(game))


def test_solve_mean_is_solved_once_per_game():
    g = uniform_grid(10)
    game = common_state_game(g, constant_kernel(g, 0.5), 1.0, 1.0)
    phi = solve_mean(game)
    assert solve_mean(game) is phi
    assert np.allclose(phi.values, 2.0)     # 1 / (1 - r)
    assert not phi.values.flags.writeable
    other = dataclasses.replace(game, state_mean=g.constant(3.0))
    assert np.allclose(solve_mean(other).values, 6.0)
    assert solve_mean(game) is phi


def test_equilibria_of_one_game_compute_its_spectrum_once(monkeypatch):
    calls = []
    eigenvalues = game_module.eigenvalues

    def counted(kernel):
        calls.append(kernel)
        return eigenvalues(kernel)
    monkeypatch.setattr(game_module, "eigenvalues", counted)
    g = uniform_grid(30)
    game = common_state_game(g, constant_kernel(g, 0.5), 1.0, 1.0)
    rng = np.random.default_rng(12)
    for _ in range(5):
        eq = solve_linear_equilibrium(game, _random_info(game, rng))
        assert verify_moment_restrictions(eq, game).passed
    assert len(calls) == 1


# -- solve_linear_equilibrium ------------------------------------------------

def test_symmetric_lqg_example_loadings():
    # state rescaled to s*theta + k with s=0.5, k=0; unit variances, r=0.5;
    # hand-solved matching system gives a = 0.2 x_i + 0.4 y
    n = 100
    g = uniform_grid(n)
    game = common_state_game(g, constant_kernel(g, 0.5), 0.0, 0.25)
    info = _bm_info(game, n)
    eq = solve_linear_equilibrium(game, info)
    loads = np.array(eq.loadings)
    assert np.max(np.abs(loads[:, 0] - 0.2)) <= 1e-9
    assert np.max(np.abs(loads[:, 1] - 0.4)) <= 1e-9
    assert np.max(np.abs(eq.intercepts.values)) <= 1e-9


def test_no_information_equilibrium_is_deterministic():
    g = uniform_grid(12)
    game = common_state_game(g, constant_kernel(g, 0.5), 1.0, 1.0)
    eq = solve_linear_equilibrium(game, no_info(game))
    assert np.allclose(eq.intercepts.values, solve_mean(game).values)
    assert np.max(np.abs(eq.moment.xi.values)) == 0.0
    assert np.max(np.abs(eq.loading_vector())) == 0.0


def test_full_information_common_state_loadings():
    g = uniform_grid(30)
    for r in (0.5, -1.0):
        game = common_state_game(g, constant_kernel(g, r), 0.0, 1.0)
        eq = solve_linear_equilibrium(game, full_info(game))
        assert np.allclose(eq.loading_vector(), 1.0 / (1.0 - r), atol=1e-10)


def test_degenerate_own_signal_block_falls_back_to_mean():
    # zero-variance signals at half the nodes: pseudo-inverse branch
    g = uniform_grid(10)
    game = common_state_game(g, constant_kernel(g, 0.4), 1.0, 1.0)
    eq = solve_linear_equilibrium(game, targeted_info(game, np.arange(5)))
    loads = eq.loading_vector()
    assert np.max(np.abs(loads[5:])) == 0.0
    assert np.all(np.abs(loads[:5]) > 0.1)


def test_fixed_point_diverges_outside_r1():
    g = uniform_grid(10)
    game = common_state_game(g, constant_kernel(g, 2.0), 0.0, 1.0)
    A, rhs = _coefficient_system(game, full_info(game))
    with pytest.raises(NoConvergence, match=r"diverged: max\|c\| = "
                       r"\d\.\d{3}e\+12 above 2\.0e\+12"):
        _fixed_point_loadings(A, rhs, np.zeros(rhs.size))


def test_fixed_point_errors_name_the_step_and_the_residual():
    # c <- A c swaps the entries of (1, -1) forever: every step is 2
    with pytest.raises(NoConvergence, match=r"cap reached: step 100,000 was "
                       r"2\.000e\+00 > 2\.0e-12"):
        _fixed_point_loadings(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2),
                              np.array([1.0, -1.0]))
    with pytest.raises(NoConvergence, match=r"residual 1\.000e\+00 above "
                       r"tolerance 1\.0e-08"):
        game_module._require_fixed_point(np.zeros((2, 2)), np.ones(2), np.zeros(2),
                                         "loadings", NoConvergence)


def test_direct_and_fixed_point_agree_under_r1():
    rng = np.random.default_rng(11)
    g = uniform_grid(20)
    for _ in range(5):
        values = rng.uniform(-0.9, 0.9, size=(20, 20))
        game = common_state_game(g, Kernel(g, values), 0.0, 1.0)
        info = private_iid_info(game, 0.5)
        ref = solve_linear_equilibrium(game, info).loading_vector()
        A, rhs = _coefficient_system(game, info)
        for _ in range(3):
            c = _fixed_point_loadings(A, rhs, rng.normal(size=ref.size))
            assert np.max(np.abs(c - ref)) <= 1e-7


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=15),
       seed=st.integers(0, 2 ** 32 - 1))
def test_direct_and_fixed_point_agree_under_r1_with_ragged_dims(dims, seed):
    # kernel entries in [-0.9, 0.9] give (R1) on the uniform grid; the
    # iteration from any start reaches the direct solve's loadings
    rng = np.random.default_rng(seed)
    n, D = len(dims), sum(dims)
    g = uniform_grid(n)
    R = Kernel(g, rng.uniform(-0.9, 0.9, size=(n, n)))
    assert check_r1(R)
    B = rng.normal(size=(n + D, n + D + 2))
    J = B @ B.T
    game = BasicGame(g, R, g.function(rng.normal(size=n)), Kernel(g, J[:n, :n]))
    info = info_from_parts(game, np.array(dims), rng.normal(size=D),
                           J[n:, n:], J[n:, :n])
    ref = solve_linear_equilibrium(game, info).loading_vector()
    A, rhs = _coefficient_system(game, info)
    for _ in range(3):
        c = _fixed_point_loadings(A, rhs, rng.normal(size=D))
        assert np.max(np.abs(c - ref)) <= 1e-7


def _ragged_game_and_info(n=12, seed=31):
    """Signal dims cycling 1, 2, 3 under a random rank-deficient PSD joint
    covariance; node 2's three signals repeat one coordinate, so its own
    block is singular."""
    rng = np.random.default_rng(seed)
    g = uniform_grid(n)
    dims = np.resize([1, 2, 3], n)
    D = int(dims.sum())
    B = rng.normal(size=(n + D, n + 4))
    B[n + 4] = B[n + 3] = B[n + 5]                 # node 2: signals 3, 4, 5
    J = B @ B.T
    J = 0.5 * (J + J.T)
    R = Kernel(g, rng.uniform(-0.6, 0.6, size=(n, n)))
    game = BasicGame(g, R, g.function(rng.normal(size=n)),
                     Kernel(g, J[:n, :n]))
    info = info_from_parts(game, dims, rng.normal(size=D), J[n:, n:], J[n:, :n])
    return game, info


def _dense_reference(game, info):
    """Loadings, xi, zeta and intercepts from the dense block-diagonal P and
    the n x D loading matrix Z."""
    n, D = game.grid.n, info.total_dim
    node_of = np.repeat(np.arange(n), info.signal_dims)
    off = np.concatenate(([0], np.cumsum(info.signal_dims)))
    csig = info.signal_cov
    cross = info.cross_cov
    P = np.zeros((D, D))
    for t in range(n):
        sl = slice(off[t], off[t + 1])
        P[sl, sl] = np.linalg.pinv(csig[sl, sl], rcond=1e-10, hermitian=True)
    E = game.payoff.values[np.ix_(node_of, node_of)] * game.grid.weights[node_of]
    c = np.linalg.solve(np.eye(D) - P @ (E * csig),
                        P @ cross[np.arange(D), node_of])
    Z = np.zeros((n, D))
    Z[node_of, np.arange(D)] = c
    b = solve_mean(game).values
    return c, Z @ csig @ Z.T, np.diag(Z @ cross), b - Z @ info.signal_mean


def test_ragged_signal_dims_match_dense_reference():
    game, info = _ragged_game_and_info()
    eq = solve_linear_equilibrium(game, info)
    c, xi, zeta, intercept = _dense_reference(game, info)
    vec = eq.loading_vector()
    assert not vec.flags.writeable and eq.loading_vector() is vec
    assert [len(l) for l in eq.loadings] == list(info.signal_dims)
    np.testing.assert_array_equal(np.concatenate(eq.loadings), vec)
    np.testing.assert_allclose(vec, c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(eq.moment.xi.values, xi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(eq.moment.zeta.values, zeta,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(eq.intercepts.values, intercept, rtol=0, atol=1e-12)
    assert verify_moment_restrictions(eq, game).passed
    assert best_response_audit(eq, game, d=20_000, seed=32).passed


def test_batched_sym_pinv_matches_per_block():
    rng = np.random.default_rng(33)
    F = rng.normal(size=(3, 3))
    u = rng.normal(size=3)
    blocks = np.stack([F @ F.T,                     # full rank
                       np.zeros((3, 3)),            # zero block
                       np.outer(u, u),              # rank one
                       F[:, :2] @ F[:, :2].T,       # rank two
                       1e-300 * np.eye(3)])         # tiny but positive
    batched = _sym_pinv(blocks)
    for blk, inv in zip(blocks, batched):
        np.testing.assert_allclose(inv, _sym_pinv(blk), rtol=1e-12, atol=0)
        ref = np.linalg.pinv(blk, rcond=1e-10, hermitian=True)
        np.testing.assert_allclose(inv, ref, rtol=1e-9,
                                   atol=1e-12 * np.abs(inv).max())
    assert not batched[1].any()


@pytest.mark.parametrize("ragged", [False, True])
def test_own_pinv_of_one_signal_blocks_is_the_batched_product_bit_for_bit(ragged):
    # a one-signal block [s] scales its rows by 1/s, or by 0 where s counts as
    # zero, and rounds as the batched (m, 1, 1) @ (m, 1, n) product did:
    # 0 + x / s, so a product that is zero is +0, never -0
    if ragged:
        _, info = _ragged_game_and_info()
    else:
        g = uniform_grid(6)
        state = common_state_game(g, constant_kernel(g, 0.5)).state_cov
        info = GaussianInfo(state, np.ones(6, int), np.zeros(6),
                            np.diag([1.0, 0.0, 3.0, 1e-310, 0.7, 1e-300]),
                            np.zeros((6, 6)))
    starts = info.offsets[:-1]
    rng = np.random.default_rng(34)
    for x in (rng.normal(size=(info.total_dim, 5)), rng.normal(size=info.total_dim)):
        x[:2] = -0.0
        ref = x.copy()
        for k in set(info.signal_dims.tolist()):
            rows = starts[info.signal_dims == k, None] + np.arange(k)
            pinv = _sym_pinv(info.signal_cov[rows[:, :, None], rows[:, None, :]])
            ref[rows] = (pinv @ ref[rows].reshape(*rows.shape, -1)).reshape(
                rows.shape + x.shape[1:])
        assert info._own_pinv(x).tobytes() == ref.tobytes()


def test_induced_mean_matches_solve_mean():
    g = uniform_grid(25)
    game = common_state_game(g, constant_kernel(g, 0.3), 2.0, 1.0)
    for info in (no_info(game), public_info(game, 0.5),
                 private_iid_info(game, 1.0)):
        eq = solve_linear_equilibrium(game, info)
        assert np.max(np.abs(eq.induced_mean.values
                             - solve_mean(game).values)) <= 1e-8


def test_moment_xi_is_psd():
    g = uniform_grid(16)
    game = common_state_game(g, constant_kernel(g, 0.5), 0.0, 1.0)
    eq = solve_linear_equilibrium(game, private_iid_info(game, 2.0))
    assert check_psd(eq.moment.xi)


def test_aggregate_variance_fubini_identity():
    # Var of the weighted aggregate equals the double integral of the
    # induced action covariance -- a deterministic identity at finite n
    g = uniform_grid(30)
    game = common_state_game(g, constant_kernel(g, 0.5), 0.0, 1.0)
    eq = solve_linear_equilibrium(game, private_iid_info(game, 1.0))
    w = g.weights
    xi = eq.moment.xi.values
    agg_var = float(w @ xi @ w)
    # recompute from first principles: Cov[sum_i w_i f_i, sum_j w_j f_j]
    direct = 0.0
    for i in range(g.n):
        direct += float(w[i] * (xi[i] @ w))
    assert abs(agg_var - direct) <= 1e-10


# -- continuum limit ---------------------------------------------------------

def test_grid_equilibrium_converges_to_the_continuum_closed_form():
    # R(s, t) = r q(s) q(t), a common state theta ~ N(0, v_theta) and private
    # signals x(t) = theta + eps(t): E_t[x(s)] = kappa x(t), so matching
    # coefficients gives a(t) = kappa (1 + r q(t) A) with
    # A = kappa int q / (1 - kappa r int q^2), int zeta = v_theta int a and
    # double-int xi = v_theta (int a)^2 (the noise averages out)
    r, v_theta, v_eps = 0.6, 1.0, 0.5
    kappa = v_theta / (v_theta + v_eps)
    int_q, int_q2 = 1.5, 7.0 / 3.0                  # q(t) = 1 + t on [0, 1]
    A = kappa * int_q / (1.0 - kappa * r * int_q2)
    int_a = kappa * (1.0 + r * int_q * A)
    errors, zetas, xis = [], [], []
    for n in (50, 100, 200, 400):
        grid = uniform_grid(n)
        g = common_state_game(grid, separable_kernel(grid, r, lambda t: 1.0 + t),
                              0.0, v_theta)
        eq = solve_linear_equilibrium(g, private_iid_info(g, v_eps))
        a = kappa * (1.0 + r * (1.0 + grid.coords) * A)
        errors.append(np.max(np.abs(eq.loading_vector() - a)))
        w = grid.weights
        zetas.append(w @ eq.moment.zeta.values)
        xis.append(w @ eq.moment.xi.values @ w)
    # the loadings converge at O(1/n): the error halves per doubling of n
    ratios = np.divide(errors[:-1], errors[1:])
    assert np.all(np.abs(ratios - 2.0) <= 0.1), ratios
    # the Richardson values 2 V_2n - V_n of both integrals converge at O(1/n^2)
    for values, limit in ((zetas, v_theta * int_a), (xis, v_theta * int_a ** 2)):
        rich = 2.0 * np.array(values[1:]) - np.array(values[:-1]) - limit
        assert np.all(np.abs(rich[:-1] / rich[1:] - 4.0) <= 0.5), rich
        assert abs(rich[-1]) <= 1e-4 * limit


def test_grid_equilibrium_converges_for_a_directed_kernel():
    # R(s, t) = r p(s) q(t) with p != q: matching coefficients gives
    # a(t) = kappa (1 + r p(t) B) with B = kappa int q / (1 - kappa r int pq)
    r, v_theta, v_eps = 0.6, 1.0, 0.5
    kappa = v_theta / (v_theta + v_eps)
    int_q, int_pq = 1.5, 13.0 / 6.0          # p = 1 + t, q = 2 - t on [0, 1]
    B = kappa * int_q / (1.0 - kappa * r * int_pq)
    int_a = kappa * (1.0 + r * 1.5 * B)      # int p = 1.5
    assert int_a == pytest.approx(31.0 / 6.0, rel=1e-14)
    errors, zetas, xis = [], [], []
    for n in (50, 100, 200, 400):
        grid = uniform_grid(n)
        t = grid.coords
        payoff = Kernel(grid, r * np.outer(1.0 + t, 2.0 - t))
        assert not payoff.undirected
        g = common_state_game(grid, payoff, 0.0, v_theta)
        eq = solve_linear_equilibrium(g, private_iid_info(g, v_eps))
        a = kappa * (1.0 + r * (1.0 + t) * B)
        errors.append(np.max(np.abs(eq.loading_vector() - a)))
        w = grid.weights
        zetas.append(w @ eq.moment.zeta.values)
        xis.append(w @ eq.moment.xi.values @ w)
    ratios = np.divide(errors[:-1], errors[1:])
    assert np.all(np.abs(ratios - 2.0) <= 0.2), ratios
    assert errors[-1] <= 1e-3
    assert abs(zetas[-1] - v_theta * int_a) <= 1e-4 * int_a
    assert abs(xis[-1] - v_theta * int_a ** 2) <= 1e-4 * int_a ** 2
    # the Richardson values 2 V_2n - V_n of both integrals converge at O(1/n^2)
    # to int zeta = 31/6 and double-int xi = (31/6)^2
    for values, limit in ((zetas, 31.0 / 6.0), (xis, (31.0 / 6.0) ** 2)):
        rich = 2.0 * np.array(values[1:]) - np.array(values[:-1]) - limit
        assert np.all(np.abs(rich[:-1] / rich[1:] - 4.0) <= 0.5), rich
        assert abs(rich[-1]) <= 1e-4 * limit


# -- moment restrictions -----------------------------------------------------

def test_moment_restrictions_on_lqg_example():
    n = 100
    g = uniform_grid(n)
    game = common_state_game(g, constant_kernel(g, 0.5), 0.0, 0.25)
    eq = solve_linear_equilibrium(game, _bm_info(game, n))
    rep = verify_moment_restrictions(eq, game)
    assert rep.passed
    assert rep.max_residual <= 1e-8
    # hand arithmetic from the (0.2, 0.4) loadings:
    # Var[a] = 0.56 = 0.5 * Cov-aggregate (0.52) + 0.5 * Cov[a, theta] (0.6)
    assert 0.56 == pytest.approx(0.5 * 0.52 + 0.5 * 0.6)
    # off-diagonal covariance approaches 0.52 with an O(1/n) correction from
    # the exchangeable sum-zero noise
    assert eq.moment.xi.values[0, 1] == pytest.approx(0.52, abs=1e-3)


def test_moment_restrictions_trivial_for_no_info():
    g = uniform_grid(10)
    game = common_state_game(g, constant_kernel(g, 0.5), 1.0, 1.0)
    eq = solve_linear_equilibrium(game, no_info(game))
    rep = verify_moment_restrictions(eq, game)
    assert rep.max_residual <= 1e-14


def test_moment_restrictions_detect_perturbed_loadings():
    g = uniform_grid(20)
    game = common_state_game(g, constant_kernel(g, 0.5), 0.0, 1.0)
    info = full_info(game)
    eq = solve_linear_equilibrium(game, info)
    c = eq.loading_vector().copy()
    c[3] += 0.01
    bad = _package_equilibrium(game, info, c, eq.induced_mean.values)
    assert not verify_moment_restrictions(bad, game).passed


# -- symmetric standard-deviation identity -----------------------------------

def test_sd_identity_full_disclosure():
    g = uniform_grid(40)
    game = common_state_game(g, constant_kernel(g, 0.5), 0.0, 1.0)
    eq = solve_linear_equilibrium(game, full_info(game))
    assert symmetric_moment_identity(eq.moment, 0.5) <= 1e-9


def test_sd_identity_zero_variance_convention():
    g = uniform_grid(10)
    game = common_state_game(g, constant_kernel(g, 0.5), 1.0, 1.0)
    eq = solve_linear_equilibrium(game, no_info(game))
    assert symmetric_moment_identity(eq.moment, 0.5) == 0.0


def test_sd_identity_symmetric_noisy_equilibrium():
    # representative-pair equilibrium with xi-bar1 = 8/9, xi-bar2 = 4/9,
    # zeta-bar = 2/3 (the m = 0.5, r = 0.5 symmetric-disclosure moments)
    g = MeasureGrid([0.25, 0.75], [0.5, 0.5])
    game = common_state_game(g, constant_kernel(g, 0.5), 0.0, 1.0)
    sig = np.array([[8 / 9, 4 / 9], [4 / 9, 8 / 9]])
    cross = np.full((2, 2), 2 / 3)
    info = info_from_parts(game, np.ones(2, int), np.zeros(2), sig, cross)
    eq = _package_equilibrium(game, info, np.ones(2), np.zeros(2))
    assert symmetric_moment_identity(eq.moment, 0.5) <= 1e-8


def test_sd_identity_rejects_asymmetric_profiles():
    g = uniform_grid(8)
    game = common_state_game(g, constant_kernel(g, 0.4), 0.0, 1.0)
    eq = solve_linear_equilibrium(game, targeted_info(game, np.arange(4)))
    with pytest.raises(ValueError):
        symmetric_moment_identity(eq.moment, 0.4)


# -- validation --------------------------------------------------------------

def test_game_rejects_non_psd_state_cov():
    g = uniform_grid(3)
    bad = Kernel(g, [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match=r"state covariance must be positive "
                       r"semidefinite \(min eigenvalue -1\.000e\+00 < -tol"):
        BasicGame(g, constant_kernel(g, 0.5), g.constant(0.0), bad)


def _info_of(joint, n=3):
    """The info whose joint covariance is ``joint``: its theta block is the
    state kernel, and its upper-right block is read as the cross block's
    transpose, so an asymmetry there cannot be given."""
    return GaussianInfo(Kernel(uniform_grid(n), joint[:n, :n]), np.ones(n, int),
                        np.zeros(n), joint[n:, n:], joint[n:, :n])


def test_info_rejects_non_psd_joint_cov_with_min_eigenvalue():
    joint = np.eye(6)
    joint[5, 5] = -0.1
    with pytest.raises(ValueError, match=r"joint_cov must be positive "
                       r"semidefinite \(min eigenvalue -1\.000e-01 < -tol "
                       r"2\.0e-08\)"):
        _info_of(joint)


def test_info_rejects_asymmetric_joint_cov():
    # a directed state kernel, then one signal-block entry
    for n, i, j in ((3, 0, 1), (100, 130, 190)):
        joint = np.eye(2 * n)
        joint[i, j] = 1e-3
        with pytest.raises(ValueError, match="joint_cov must be symmetric"):
            _info_of(joint, n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_info_rejects_non_finite_joint_cov_without_warning(bad):
    joint = np.eye(6)
    joint[4, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="joint_cov must be finite"):
            _info_of(joint)


@pytest.mark.parametrize("block, message", [
    ("cross_cov", "joint_cov must be finite"),
    ("signal_cov", "joint_cov must be symmetric"),
    ("state_cov", "joint_cov must be symmetric"),
])
def test_info_rejects_each_block_where_it_enters(monkeypatch, block, message):
    # a non-finite cross block, an asymmetric signal block and a directed
    # state kernel are each refused before the PSD verdict reads the joint
    g = uniform_grid(3)
    blocks = {"state_cov": np.eye(3), "signal_cov": np.eye(3),
              "cross_cov": np.zeros((3, 3))}
    blocks[block][0, 1] = np.nan if block == "cross_cov" else 1e-3
    calls = []
    monkeypatch.setattr(game_module, "psd_within", calls.append)
    with pytest.raises(ValueError, match=message):
        GaussianInfo(Kernel(g, blocks["state_cov"]), np.ones(3, int),
                     np.zeros(3), blocks["signal_cov"], blocks["cross_cov"])
    assert calls == []


def test_info_build_stays_below_the_size_of_its_joint():
    # n = D = 300: the (n + D)^2 joint takes 2.88 MB; the gate reads its
    # blocks, so the build's transient peak (peak minus the stored copies)
    # stays below that for a common state under random signals and for
    # full information, whose 600 rows are all equal
    g = uniform_grid(300)
    game = common_state_game(g, constant_kernel(g, 0.5), 0.0, 1.0)
    joint_bytes = 600 ** 2 * 8
    for info in (_random_info(game, np.random.default_rng(2)), full_info(game)):
        parts = (info.state_cov, info.signal_dims, info.signal_mean,
                 info.signal_cov, info.cross_cov)
        tracemalloc.start()
        try:
            built = GaussianInfo(*parts)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built.signal_cov.nbytes + built.cross_cov.nbytes <= kept
        assert peak - kept < joint_bytes


def test_info_takes_entries_near_the_float_limit_without_warning():
    # cov + cov.T would overflow on this diagonal
    joint = np.diag(np.full(6, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        info = _info_of(joint)
        assert np.array_equal(info.signal_cov, joint[3:, 3:])
        assert np.array_equal(info.cross_cov, joint[3:, :3])
        joint[3, 4], joint[4, 3] = 1e308, -1e308
        with pytest.raises(ValueError, match="joint_cov must be symmetric"):
            _info_of(joint)


def test_info_rejects_tiny_asymmetry_without_touching_the_input():
    # symmetry is exact: no asymmetry is averaged away, however small
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 6))
    joint = x @ x.T
    joint[3, 4] += 1e-14
    before = joint.copy()
    with pytest.raises(ValueError, match="joint_cov must be symmetric"):
        _info_of(joint)
    assert np.array_equal(joint, before)
    assert joint.flags.writeable


def test_value_objects_own_their_arrays():
    # one row per constructor and array: the stored array is a read-only
    # C-contiguous copy, also of a Fortran-ordered input, and the caller's own
    # array stays writable and unshared
    g = uniform_grid(3)
    S = Kernel(g, np.eye(3))
    dims, mean, sig, cross = np.ones(3, int), np.zeros(3), np.eye(3), np.zeros((3, 3))
    rows = [
        ("grid coords", lambda a: MeasureGrid(a, g.weights), g.coords, "coords"),
        ("grid weights", lambda a: MeasureGrid(g.coords, a), g.weights, "weights"),
        ("kernel values", lambda a: Kernel(g, a), np.eye(3), "values"),
        ("function values", g.function, np.ones(3), "values"),
        ("info signal_dims", lambda a: GaussianInfo(S, a, mean, sig, cross),
         dims, "signal_dims"),
        ("info signal_mean", lambda a: GaussianInfo(S, dims, a, sig, cross),
         mean, "signal_mean"),
        ("info signal_cov", lambda a: GaussianInfo(S, dims, mean, a, cross),
         sig, "signal_cov"),
        ("info cross_cov", lambda a: GaussianInfo(S, dims, mean, sig, a),
         cross, "cross_cov"),
    ]
    for name, make, array, attr in rows:
        array = np.asfortranarray(array.copy())
        before = array.copy()
        stored = getattr(make(array), attr)
        assert array.flags.writeable, name
        array += 1
        assert np.array_equal(stored, before), name
        assert not stored.flags.writeable, name
        assert stored.flags.c_contiguous, name


@pytest.mark.parametrize("dims, mean, sig, cross, message", [
    pytest.param(np.ones(3, int), [{}] * 3, np.eye(3), np.zeros((3, 3)),
                 "expected an array of numbers", id="object-mean"),
    pytest.param(np.ones(3, int), np.zeros(3), [[{}] * 3] * 3, [[{}] * 3] * 3,
                 "expected an array of numbers", id="object-joint"),
    pytest.param([1.7, 1.2, 1.0], np.zeros(3), np.eye(3), np.zeros((3, 3)),
                 "positive integer dimension", id="fractional-dims"),
])
def test_info_rejects_non_numeric_arrays(dims, mean, sig, cross, message):
    with pytest.raises(ValueError, match=message):
        GaussianInfo(Kernel(uniform_grid(3), np.eye(3)), dims, mean, sig, cross)


def test_info_accepts_rank_deficient_joint_cov():
    g = uniform_grid(400)
    game = common_state_game(g, constant_kernel(g, 0.5), 0.0, 1.0)
    full = full_info(game)       # rank one: every entry of the 800 x 800 is 1
    assert np.all(full.signal_cov == 1.0) and np.all(full.cross_cov == 1.0)
    none = no_info(game)         # zero signal block
    assert not np.any(none.signal_cov)


def test_info_build_runs_the_psd_verdict_once(monkeypatch):
    calls = []
    psd_within = game_module.psd_within
    monkeypatch.setattr(game_module, "psd_within",
                        lambda sym: calls.append(np.block(sym).shape)
                        or psd_within(sym))
    _, info = _ragged_game_and_info(4)      # dims 1, 2, 3, 1
    calls.clear()
    _info_of(np.eye(6))
    GaussianInfo(info.state_cov, info.signal_dims, info.signal_mean,
                 info.signal_cov, info.cross_cov)
    assert calls == [(6, 6), (11, 11)]


def test_solve_rejects_info_of_another_theta_block():
    g = uniform_grid(4)
    payoff = constant_kernel(g, 0.5)
    info = full_info(common_state_game(g, payoff, 0.0, 1.0))
    with pytest.raises(ValueError, match="theta block does not match the game"):
        solve_linear_equilibrium(common_state_game(g, payoff, 0.0, 2.0), info)


def test_solve_rejects_a_state_cov_one_ulp_away():
    g = uniform_grid(4)
    payoff = constant_kernel(g, 0.5)
    base = common_state_game(g, payoff, 0.0, 1.0)
    info = full_info(base)
    S = base.state_cov.values.copy()
    S[1, 2] = S[2, 1] = np.nextafter(S[1, 2], 2.0)
    near = BasicGame(g, payoff, base.state_mean, Kernel(g, S))
    with pytest.raises(ValueError, match="theta block does not match the game"):
        solve_linear_equilibrium(near, info)
    # equal entry for entry: another kernel object with the same values
    same = BasicGame(g, payoff, base.state_mean, Kernel(g, base.state_cov.values))
    assert np.array_equal(solve_linear_equilibrium(same, info).coefficients,
                          solve_linear_equilibrium(base, info).coefficients)


def test_solve_accepts_a_game_sharing_the_info_state_cov():
    g = uniform_grid(6)
    base = common_state_game(g, constant_kernel(g, 0.5), 0.0, 1.0)
    info = private_iid_info(base, 0.5)
    other = BasicGame(g, constant_kernel(g, -0.3), base.state_mean, info.state_cov)
    eq = solve_linear_equilibrium(other, info)
    assert eq.info.state_cov is base.state_cov
    assert verify_moment_restrictions(eq, other).passed



def test_info_grid_mismatch_rejected():
    g1 = uniform_grid(5)
    g2 = uniform_grid(6)
    game1 = common_state_game(g1, constant_kernel(g1, 0.5), 0.0, 1.0)
    game2 = common_state_game(g2, constant_kernel(g2, 0.5), 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_linear_equilibrium(game1, no_info(game2))
