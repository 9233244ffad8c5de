import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelgames import game as game_module
from kernelgames import moments as moments_module
from kernelgames.design import (_random_info, optimal_targeted,
                                symmetric_moment, targeted_equilibrium_moment)
from kernelgames.errors import InfeasibleMoment
from kernelgames.game import (BasicGame, common_state_game, full_info,
                              info_from_parts, solve_linear_equilibrium,
                              verify_moment_restrictions)
from kernelgames.grid import uniform_grid
from kernelgames.kernels import Kernel, constant_kernel, numerical_range_bounds
from kernelgames.moments import (DesignObjective, bounds_check,
                                 check_feasibility, check_obedience,
                                 check_positivity, common_state_moment,
                                 construct_canonical_signals, diag_integral,
                                 double_integral, objective_value,
                                 symmetric_moment_identity, zeta_integral)


def _zero_moment(grid):
    """The moment of the no-information equilibrium: xi = 0, zeta = 0."""
    return common_state_moment(Kernel(grid, np.zeros((grid.n, grid.n))),
                               np.zeros(grid.n))


def _targeted_half(n=10, r=0.5):
    grid = uniform_grid(n)
    return targeted_equilibrium_moment(np.arange(n // 2), r, grid), grid


# -- obedience ---------------------------------------------------------------

def test_obedience_targeted_half():
    m, grid = _targeted_half()
    R = constant_kernel(grid, 0.5)
    assert check_obedience(m, R) <= 1e-12
    # the closed-form numbers: diag 16/9 on members, row aggregate 4/9,
    # zeta 4/3, and 16/9 = 0.5 * (0.5 * 16/9) + 4/3
    assert m.xi.values[0, 0] == pytest.approx(16 / 9)
    assert m.zeta.values[0] == pytest.approx(4 / 3)
    assert 16 / 9 == pytest.approx(4 / 9 + 4 / 3)


def test_obedience_zero_moment():
    grid = uniform_grid(6)
    assert check_obedience(_zero_moment(grid), constant_kernel(grid, 0.9)) == 0.0


def test_obedience_symmetric_levels_arithmetic():
    # the two-level symmetric moment satisfies xi1 = r xi2 + zeta exactly
    m, r = 0.5, 0.5
    xi1 = m / (1 - r * m) ** 2
    xi2 = m ** 2 / (1 - r * m) ** 2
    zbar = m / (1 - r * m)
    assert xi1 == pytest.approx(8 / 9, abs=1e-15)
    assert xi2 == pytest.approx(4 / 9, abs=1e-15)
    assert zbar == pytest.approx(2 / 3, abs=1e-15)
    assert abs(xi1 - (r * xi2 + zbar)) <= 1e-12


def test_obedience_of_grid_matched_symmetric_moment():
    grid = uniform_grid(64)
    mom = symmetric_moment(0.5, 0.5, grid, match_grid_obedience=True)
    assert check_obedience(mom, constant_kernel(grid, 0.5)) <= 1e-12


# -- positivity --------------------------------------------------------------

def test_positivity_targeted_moment():
    m, _ = _targeted_half()
    assert check_positivity(m)


def test_positivity_rejects_zeta_without_variance():
    grid = uniform_grid(4)
    m = common_state_moment(Kernel(grid, np.zeros((4, 4))), np.ones(4), 1.0)
    assert not check_positivity(m)


def test_positivity_of_constructed_gaussian_covariance():
    rng = np.random.default_rng(21)
    grid = uniform_grid(12)
    for _ in range(10):
        B = rng.normal(size=(12, 4))
        xi = B @ B.T
        zeta = B[:, 0].copy()      # actions correlate with theta = first factor
        m = common_state_moment(Kernel(grid, 0.5 * (xi + xi.T)), zeta, 1.0)
        assert check_positivity(m)


def test_positivity_is_decided_once_per_moment(monkeypatch):
    verdicts = []
    psd_within = game_module.psd_within

    def counted(M):
        verdicts.append((M, psd_within(M)))
        return verdicts[-1][1]
    monkeypatch.setattr(game_module, "psd_within", counted)
    m, _ = _targeted_half()
    pos = check_positivity(m)
    rep = bounds_check(m, 0.5)
    assert len(verdicts) == 1
    M, verdict = verdicts[0]
    Z, S = m.cross_cov, m.state_cov.values
    assert np.array_equal(np.block(M), np.block([[m.xi.values, Z], [Z.T, S]]))
    assert type(pos) is bool and pos is verdict is rep.positivity_ok


# -- bounds ------------------------------------------------------------------

@pytest.mark.parametrize("r", [-2.0, 0.0, 0.5, 0.9])
def test_bounds_obedience_is_the_constant_kernel_obedience(r):
    # bounds_check reads obedience from the repeated row r w of the constant
    # kernel's operator matrix: the residual is the same float, bit for bit
    grid = uniform_grid(40)
    game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(5):
        eq = solve_linear_equilibrium(game, _random_info(game, rng))
        m = eq.moment
        assert (bounds_check(m, r).obedience_residual
                == check_obedience(m, constant_kernel(grid, r)))


def test_bounds_full_disclosure_ceiling_binds():
    grid = uniform_grid(20)
    m = targeted_equilibrium_moment(np.arange(20), 0.5, grid)
    rep = bounds_check(m, 0.5)
    assert rep.passed
    assert double_integral(m) == pytest.approx(4.0, abs=1e-12)
    assert rep.ceiling_slack == pytest.approx(0.0, abs=1e-12)


def test_bounds_half_disclosure_cauchy_binds():
    m, _ = _targeted_half(n=20)
    rep = bounds_check(m, 0.5)
    assert rep.passed
    assert double_integral(m) == pytest.approx(4 / 9, abs=1e-12)
    assert zeta_integral(m) ** 2 == pytest.approx(4 / 9, abs=1e-12)
    assert rep.cauchy_slack == pytest.approx(0.0, abs=1e-12)


def test_bounds_zero_moment_slacks():
    grid = uniform_grid(5)
    rep = bounds_check(_zero_moment(grid), 0.5)
    assert rep.cauchy_slack == pytest.approx(0.0)
    assert rep.diag_slack == pytest.approx(0.0)
    assert rep.ceiling_slack == pytest.approx(4.0)
    assert rep.passed


def test_bounds_pass_at_large_state_variance():
    # full information at Var theta = 1e4: xi = 1e6 and the slacks are
    # rounding of order 1e-9, which an absolute 1e-9 failed
    grid = uniform_grid(400)
    game = common_state_game(grid, constant_kernel(grid, 0.9), 0.0, 1e4)
    m = solve_linear_equilibrium(game, full_info(game)).moment
    rep = bounds_check(m, 0.9)
    assert rep.tol == pytest.approx(1e-9 * (1.0 + 1e6))
    assert rep.feasible and rep.passed


def test_bounds_reject_infeasible_precondition():
    grid = uniform_grid(4)
    bad = common_state_moment(constant_kernel(grid, 1.0), np.full(4, 0.9), 1.0)
    rep = bounds_check(bad, 0.5)
    assert rep.obedience_residual > rep.obedience_tol
    assert rep.feasible is False and rep.passed is False
    assert min(rep.cauchy_slack, rep.diag_slack, rep.ceiling_slack) >= 0.0


# -- objective ---------------------------------------------------------------

def test_objective_zeta_only_on_targeted():
    grid = uniform_grid(40)
    obj = DesignObjective(0.0, 0.0, 1.0)
    for m_frac, r in ((0.5, 0.5), (0.25, -1.0), (1.0, 0.5)):
        k = int(round(m_frac * grid.n))
        mom = targeted_equilibrium_moment(np.arange(k), r, grid)
        assert objective_value(mom, obj) == pytest.approx(
            m_frac / (1 - r * m_frac), abs=1e-12)


def test_objective_zero_moment():
    grid = uniform_grid(6)
    assert objective_value(_zero_moment(grid), DesignObjective(1, 2, 3)) == 0.0


def test_objective_double_integral_on_symmetric_moment():
    # u-only objective on the symmetric m=0.5, r=0.5 moment: continuum value
    # xi-bar2 = 4/9; the finite-n diagonal contributes O(1/n)
    obj = DesignObjective(1.0, 0.0, 0.0)
    vals = {}
    for n in (100, 200, 400):
        mom = symmetric_moment(0.5, 0.5, uniform_grid(n))
        v = objective_value(mom, obj)
        assert v == pytest.approx(4 / 9, abs=2.0 / n)
        vals[n] = v
    extrap = 2 * vals[400] - vals[200]   # Richardson in 1/n
    assert extrap == pytest.approx(4 / 9, abs=1e-6)


# -- canonical signal construction -------------------------------------------

def test_canonical_signals_reproduce_targeted_equilibrium():
    grid = uniform_grid(30)
    r = 0.5
    game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
    mom = targeted_equilibrium_moment(np.arange(15), r, grid)
    info = construct_canonical_signals(mom, game)
    eq = solve_linear_equilibrium(game, info)
    assert np.max(np.abs(eq.moment.xi.values - mom.xi.values)) <= 1e-8
    assert np.max(np.abs(eq.moment.zeta.values - mom.zeta.values)) <= 1e-8
    loads = eq.loading_vector()
    # loading 1 on the informative own signals; the zero-variance signals of
    # the uninformed agents take loading 0 through the pseudo-inverse branch
    assert np.max(np.abs(loads[:15] - 1.0)) <= 1e-8
    assert np.max(np.abs(loads[15:])) <= 1e-12


def test_canonical_signals_zero_moment_recovers_mean():
    grid = uniform_grid(12)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 1.0, 1.0)
    info = construct_canonical_signals(_zero_moment(grid), game)
    eq = solve_linear_equilibrium(game, info)
    assert np.allclose(eq.intercepts.values, 2.0, atol=1e-9)
    assert np.max(np.abs(eq.moment.xi.values)) <= 1e-12


def test_canonical_signals_round_trip_random_feasible():
    rng = np.random.default_rng(23)
    grid = uniform_grid(25)
    r = 0.4
    game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
    for _ in range(5):
        eq = solve_linear_equilibrium(game, _random_info(game, rng))
        mom = eq.moment
        info = construct_canonical_signals(mom, game)
        eq2 = solve_linear_equilibrium(game, info)
        assert np.max(np.abs(eq2.moment.xi.values - mom.xi.values)) <= 1e-8
        assert np.max(np.abs(eq2.moment.zeta.values - mom.zeta.values)) <= 1e-8


_SIZES = st.integers(2, 30)
_RS = st.floats(-2.0, 0.9)


@settings(max_examples=60, deadline=None)
@given(n=_SIZES, r=_RS, seed=st.integers(0, 2 ** 32 - 1))
def test_solved_moments_are_feasible(n, r, seed):
    # every equilibrium moment passes obedience, positivity and the bounds
    grid = uniform_grid(n)
    R = constant_kernel(grid, r)
    game = common_state_game(grid, R, 0.0, 1.0)
    info = _random_info(game, np.random.default_rng(seed))
    mom = solve_linear_equilibrium(game, info).moment
    assert check_feasibility(mom, R).feasible
    assert bounds_check(mom, r).passed


@settings(max_examples=40, deadline=None)
@given(n=_SIZES, r=_RS, log_sd=st.floats(-3.0, 4.0),
       mean_per_sd=st.floats(-10.0, 10.0), seed=st.integers(0, 2 ** 32 - 1))
@example(n=30, r=0.9, log_sd=4.0, mean_per_sd=10.0, seed=0)
def test_moment_verdicts_are_scale_invariant(n, r, log_sd, mean_per_sd, seed):
    # rescaling the state rescales every residual with it; no verdict may
    # depend on the units the state is measured in
    s = 10.0 ** log_sd
    grid = uniform_grid(n)
    R = constant_kernel(grid, r)
    game = common_state_game(grid, R, mean_per_sd * s, s * s)
    eq = solve_linear_equilibrium(game, _random_info(game, np.random.default_rng(seed)))
    assert verify_moment_restrictions(eq, game).passed
    rep = bounds_check(eq.moment, r)
    assert rep.feasible and rep.passed


@settings(max_examples=40, deadline=None)
@given(n=_SIZES, r=_RS, alpha=st.floats(-5.0, 5.0), beta=st.floats(-5.0, 5.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_no_equilibrium_moment_beats_the_targeted_optimum(n, r, alpha, beta, seed):
    # global optimality of targeted disclosure: every moment a random
    # structure induces is worth at most V*
    obj = DesignObjective.from_alpha_beta(alpha, beta)
    v_star = optimal_targeted(r, obj).v_star
    grid = uniform_grid(n)
    game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
    eq = solve_linear_equilibrium(game, _random_info(game, np.random.default_rng(seed)))
    value = objective_value(eq.moment, obj)
    assert value <= v_star + 1e-6 * (1.0 + abs(v_star))


@settings(max_examples=60, deadline=None)
@given(n=_SIZES, r=_RS, m=st.floats(0.0, 1.0))
@example(n=2, r=0.0, m=5e-324)    # a subnormal signal variance
def test_grid_matched_symmetric_moment_round_trips(n, r, m):
    # canonical signals of the grid-matched symmetric moment reproduce it
    grid = uniform_grid(n)
    game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
    mom = symmetric_moment(m, r, grid, match_grid_obedience=True)
    eq = solve_linear_equilibrium(game, construct_canonical_signals(mom, game))
    assert np.max(np.abs(eq.moment.xi.values - mom.xi.values)) <= 1e-8
    assert np.max(np.abs(eq.moment.zeta.values - mom.zeta.values)) <= 1e-8


# sufficiency as a property: the moment of any solved equilibrium, under a
# constant, symmetric or directed (R1) kernel, is reproduced by the canonical
# signals that construct_canonical_signals builds for it
@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 40), kind=st.sampled_from(["constant", "symmetric",
                                                   "directed"]),
       sup=st.floats(-2.0, 0.95), log_var=st.floats(-4.0, 4.0),
       mean=st.floats(-10.0, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_canonical_signals_reproduce_every_solved_moment(n, kind, sup, log_var,
                                                         mean, seed):
    rng = np.random.default_rng(seed)
    grid = uniform_grid(n)
    if kind == "constant":
        R = constant_kernel(grid, sup)
    else:
        v = rng.normal(size=(n, n))
        v = v + v.T if kind == "symmetric" else v
        # the numerical range scaled into [-s, s], s = min(|sup|, 0.95)
        s = min(abs(sup), 0.95)
        R = Kernel(grid, v * (s / max(np.abs(numerical_range_bounds(
            Kernel(grid, v))))))
    game = common_state_game(grid, R, mean, float(np.exp(log_var)))
    eq = solve_linear_equilibrium(game, _random_info(game, rng))
    mom = eq.moment
    eq2 = solve_linear_equilibrium(game, construct_canonical_signals(mom, game))
    tol = 1e-12 * (1.0 + np.max(np.abs(mom.xi.values)))
    assert np.max(np.abs(eq2.moment.xi.values - mom.xi.values)) <= tol
    assert np.max(np.abs(eq2.moment.zeta.values - mom.zeta.values)) <= tol


def test_canonical_signals_reject_infeasible_moment():
    grid = uniform_grid(6)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 0.0, 1.0)
    bad = common_state_moment(constant_kernel(grid, 1.0), np.full(6, 0.9), 1.0)
    with pytest.raises(InfeasibleMoment):
        construct_canonical_signals(bad, game)


def test_canonical_signals_require_r2():
    grid = uniform_grid(6)
    game = common_state_game(grid, constant_kernel(grid, 2.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        construct_canonical_signals(_zero_moment(grid), game)


# -- type invariants ---------------------------------------------------------

def test_moment_requires_undirected_xi():
    grid = uniform_grid(3)
    directed = Kernel(grid, np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError):
        common_state_moment(directed, np.zeros(3), 1.0)


def test_zero_state_variance_forces_zero_zeta():
    # the positivity verdict, not a second rule, rejects zeta != 0 at Var 0
    grid = uniform_grid(3)
    xi = constant_kernel(grid, 1.0)
    m = common_state_moment(xi, np.full(3, 0.5), 0.0)
    assert check_positivity(m) is False


def test_alpha_beta_recomputed():
    obj = DesignObjective(0.25, 1.0, -0.5)
    assert obj.alpha == pytest.approx(0.5)
    assert obj.beta(0.4) == pytest.approx(0.4 * -0.5 - 0.25)


def test_diag_integral_consistency():
    m, grid = _targeted_half(n=10)
    assert diag_integral(m) == pytest.approx(0.5 * 16 / 9, abs=1e-12)


# -- any state process: (xi, Z, Sigma) ------------------------------------------

def _iid_state_full_info(n=40, r=-2.0):
    """Full information over an i.i.d. state (Sigma = I): a solved equilibrium
    whose state is not common."""
    grid = uniform_grid(n)
    R = constant_kernel(grid, r)
    game = BasicGame(grid, R, grid.constant(0.0), Kernel(grid, np.eye(n)))
    eq = solve_linear_equilibrium(game, full_info(game))
    return game, R, eq


def test_moment_of_an_iid_state_is_feasible():
    # Z = Cov[f(t), theta(s)] is diagonal here; a single common theta of
    # variance Sigma[0, 0] would call this solved equilibrium infeasible
    game, R, eq = _iid_state_full_info()
    mom = eq.moment
    assert moments_module.EquilibriumMoment is game_module.EquilibriumMoment
    assert mom.state_cov is game.state_cov
    assert not mom.cross_cov.flags.writeable
    feas = check_feasibility(mom, R)
    assert feas.feasible and feas.positivity_ok
    # obedience is decided once: the solve's report reads the same float
    assert (verify_moment_restrictions(eq, game).moment2_residuals.max()
            == check_obedience(mom, R))


def test_canonical_signals_of_an_iid_state_round_trip():
    game, _, eq = _iid_state_full_info()
    mom = eq.moment
    eq2 = solve_linear_equilibrium(game, construct_canonical_signals(mom, game))
    assert np.max(np.abs(eq2.moment.xi.values - mom.xi.values)) <= 1e-12
    assert np.max(np.abs(eq2.moment.cross_cov - mom.cross_cov)) <= 1e-12
    assert np.max(np.abs(eq2.loading_vector() - 1.0)) <= 1e-12


def test_common_state_results_refuse_any_other_state():
    # the ceiling bound fails here (double-int xi = 0.0227 > w' Sigma w / 9),
    # so bounds_check and the standard-deviation identity raise
    _, _, eq = _iid_state_full_info()
    mom = eq.moment
    with pytest.raises(ValueError, match="not one common constant"):
        bounds_check(mom, -2.0)
    with pytest.raises(ValueError, match="not one common constant"):
        symmetric_moment_identity(mom, -2.0)


@pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf, 10**400])
def test_symmetric_identity_refuses_r_that_is_not_finite(r):
    # a NaN r gave NaN, and r = +-inf gave Sd[f] itself (a -inf denominator);
    # an int beyond the float range overflowed in the arithmetic
    mom = symmetric_moment(0.5, 0.5, uniform_grid(5))
    with pytest.raises(ValueError, match=r"r = .*: must be finite"):
        symmetric_moment_identity(mom, r)


def test_canonical_signals_need_the_moments_own_state():
    # the exact rule of the solver's theta-block check: no tolerance
    grid = uniform_grid(6)
    R = constant_kernel(grid, 0.5)
    game = common_state_game(grid, R, 0.0, 1.0 + 1e-15)
    with pytest.raises(ValueError, match="does not match the moment"):
        construct_canonical_signals(_zero_moment(grid), game)


def test_common_state_moment_refuses_a_negative_variance():
    grid = uniform_grid(3)
    with pytest.raises(ValueError, match="non-negative"):
        common_state_moment(constant_kernel(grid, 0.0), np.zeros(3), -1.0)


def _correlated_state_game(rng, n, log_scale, length):
    """Sigma(s, t) = e^u exp(-|s - t| / l) and a random symmetric or directed
    payoff kernel with its numerical range scaled into [-0.9, 0.9]."""
    grid = uniform_grid(n)
    t = grid.coords
    S = np.exp(log_scale) * np.exp(-np.abs(t[:, None] - t[None, :]) / length)
    v = rng.normal(size=(n, n))
    v = v + v.T if rng.uniform() < 0.5 else v
    R = Kernel(grid, v * (0.9 / max(np.abs(numerical_range_bounds(
        Kernel(grid, v))))))
    return BasicGame(grid, R, grid.constant(float(rng.normal())), Kernel(grid, S))


def _multi_signal_info(game, rng):
    """1 to 3 signals per node, x = L theta + noise, with a sparse loading L
    that mostly reads the node's own state."""
    n = game.grid.n
    dims = rng.integers(1, 4, size=n)
    node = np.repeat(np.arange(n), dims)
    L = np.zeros((node.size, n))
    L[np.arange(node.size), node] = rng.normal(size=node.size)
    extra = rng.uniform(size=L.shape) < 2.0 / n
    L[extra] = rng.normal(size=int(extra.sum()))
    B = rng.normal(size=(node.size, 3))
    cross = L @ game.state_cov.values
    sig_cov = cross @ L.T
    return info_from_parts(game, dims, L @ game.state_mean.values,
                           0.5 * (sig_cov + sig_cov.T) + B @ B.T, cross)


# sufficiency over any state process: solve -> (xi, Z) -> canonical signals ->
# solve reproduces xi and Z to rounding
@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 40), log_scale=st.floats(-3.0, 3.0),
       length=st.floats(0.05, 5.0), seed=st.integers(0, 2 ** 32 - 1))
# a gap of 3.8e-9 at max|xi| = 1.9e3: xi is formed by cancellation
@example(n=2, log_scale=3.0, length=0.25, seed=68792)
def test_canonical_signals_round_trip_over_any_state(n, log_scale, length, seed):
    rng = np.random.default_rng(seed)
    game = _correlated_state_game(rng, n, log_scale, length)
    info = _multi_signal_info(game, rng)
    eq = solve_linear_equilibrium(game, info)
    mom = eq.moment
    assert check_feasibility(mom, game.payoff).feasible
    eq2 = solve_linear_equilibrium(game, construct_canonical_signals(mom, game))
    # xi_st = sum c_i Cov[x_i, x_j] c_j rounds in proportion to the sum of
    # |c_i| |Cov[x_i, x_j]| |c_j| over the blocks of s and t, not to |xi_st|
    c = np.abs(eq.coefficients)
    scale = info._block_sum(info._block_sum(
        c[:, None] * np.abs(info.signal_cov), axis=0) * c, axis=1)
    tol = 1e-12 * (1.0 + np.max(scale))
    assert np.max(np.abs(eq2.moment.xi.values - mom.xi.values)) <= tol
    assert np.max(np.abs(eq2.moment.cross_cov - mom.cross_cov)) <= tol
