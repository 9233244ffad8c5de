import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelgames import moments as moments_module
from kernelgames.design import (_random_info, moment_from_equilibrium,
                                optimal_targeted, symmetric_coefficients,
                                symmetric_moment, targeted_equilibrium_moment)
from kernelgames.errors import InfeasibleMoment
from kernelgames.game import (common_state_game, full_info,
                              solve_linear_equilibrium,
                              verify_moment_restrictions)
from kernelgames.grid import uniform_grid
from kernelgames.kernels import Kernel, constant_kernel
from kernelgames.moments import (DesignObjective, EquilibriumMoment,
                                 bounds_check, check_feasibility,
                                 check_obedience, check_positivity,
                                 construct_canonical_signals, diag_integral,
                                 double_integral,
                                 objective_value, zero_moment, zeta_integral)


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
    assert check_obedience(zero_moment(grid), constant_kernel(grid, 0.9)) == 0.0


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
    m = EquilibriumMoment(grid,
                          Kernel(grid, np.zeros((4, 4))),
                          grid.constant(1.0), 1.0)
    assert not check_positivity(m)


def test_positivity_of_constructed_gaussian_covariance():
    rng = np.random.default_rng(21)
    grid = uniform_grid(12)
    for _ in range(10):
        B = rng.normal(size=(12, 4))
        xi = B @ B.T
        zeta = B[:, 0].copy()      # actions correlate with theta = first factor
        m = EquilibriumMoment(grid, Kernel(grid, 0.5 * (xi + xi.T)),
                              grid.function(zeta), 1.0)
        assert check_positivity(m)


def test_positivity_is_decided_once_per_moment(monkeypatch):
    verdicts = []
    psd_within = moments_module.psd_within

    def counted(M):
        verdicts.append((M, psd_within(M)))
        return verdicts[-1][1]
    monkeypatch.setattr(moments_module, "psd_within", counted)
    m, _ = _targeted_half()
    pos = check_positivity(m)
    rep = bounds_check(m, 0.5)
    assert len(verdicts) == 1
    M, verdict = verdicts[0]
    z = m.zeta.values[:, None]
    var = np.full((1, 1), m.state_var)
    assert np.array_equal(M, np.block([[m.xi.values, z], [z.T, var]]))
    assert type(pos) is bool and pos is verdict is rep.positivity_ok


# -- bounds ------------------------------------------------------------------

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
    rep = bounds_check(zero_moment(grid), 0.5)
    assert rep.cauchy_slack == pytest.approx(0.0)
    assert rep.diag_slack == pytest.approx(0.0)
    assert rep.ceiling_slack == pytest.approx(4.0)
    assert rep.passed


def test_bounds_pass_at_large_state_variance():
    # full information at Var theta = 1e4: xi = 1e6 and the slacks are
    # rounding of order 1e-9, which an absolute 1e-9 failed
    grid = uniform_grid(400)
    game = common_state_game(grid, constant_kernel(grid, 0.9), 0.0, 1e4)
    m = moment_from_equilibrium(solve_linear_equilibrium(game, full_info(game)))
    rep = bounds_check(m, 0.9)
    assert rep.tol == pytest.approx(1e-9 * (1.0 + 1e6))
    assert rep.feasible and rep.passed


def test_bounds_reject_infeasible_precondition():
    grid = uniform_grid(4)
    bad = EquilibriumMoment(grid, constant_kernel(grid, 1.0),
                            grid.constant(0.9), 1.0)
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
    assert objective_value(zero_moment(grid), DesignObjective(1, 2, 3)) == 0.0


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
    assert np.max(np.abs(eq.induced_action_cov.values - mom.xi.values)) <= 1e-8
    assert np.max(np.abs(eq.induced_action_state_cov.values
                         - mom.zeta.values)) <= 1e-8
    loads = eq.loading_vector()
    # loading 1 on the informative own signals; the zero-variance signals of
    # the uninformed agents take loading 0 through the pseudo-inverse branch
    assert np.max(np.abs(loads[:15] - 1.0)) <= 1e-8
    assert np.max(np.abs(loads[15:])) <= 1e-12


def test_symmetric_signal_coefficients():
    state_coef, noise_coef = symmetric_coefficients(0.5, 0.5)
    assert state_coef == pytest.approx(2 / 3, abs=1e-12)
    assert noise_coef == pytest.approx(2 / 3, abs=1e-12)


def test_canonical_signals_zero_moment_recovers_mean():
    grid = uniform_grid(12)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 1.0, 1.0)
    info = construct_canonical_signals(zero_moment(grid), game)
    eq = solve_linear_equilibrium(game, info)
    assert np.allclose(eq.intercepts.values, 2.0, atol=1e-9)
    assert np.max(np.abs(eq.induced_action_cov.values)) <= 1e-12


def test_canonical_signals_round_trip_random_feasible():
    rng = np.random.default_rng(23)
    grid = uniform_grid(25)
    r = 0.4
    game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
    for _ in range(5):
        eq = solve_linear_equilibrium(game, _random_info(game, rng))
        mom = moment_from_equilibrium(eq)
        info = construct_canonical_signals(mom, game)
        eq2 = solve_linear_equilibrium(game, info)
        assert np.max(np.abs(eq2.induced_action_cov.values
                             - mom.xi.values)) <= 1e-8
        assert np.max(np.abs(eq2.induced_action_state_cov.values
                             - mom.zeta.values)) <= 1e-8


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
    mom = moment_from_equilibrium(solve_linear_equilibrium(game, info))
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
    rep = bounds_check(moment_from_equilibrium(eq), r)
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
    value = objective_value(moment_from_equilibrium(eq), obj)
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
    assert np.max(np.abs(eq.induced_action_cov.values - mom.xi.values)) <= 1e-8
    assert np.max(np.abs(eq.induced_action_state_cov.values
                         - mom.zeta.values)) <= 1e-8


def test_canonical_signals_reject_infeasible_moment():
    grid = uniform_grid(6)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 0.0, 1.0)
    bad = EquilibriumMoment(grid, constant_kernel(grid, 1.0),
                            grid.constant(0.9), 1.0)
    with pytest.raises(InfeasibleMoment):
        construct_canonical_signals(bad, game)


def test_canonical_signals_require_r2():
    grid = uniform_grid(6)
    game = common_state_game(grid, constant_kernel(grid, 2.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        construct_canonical_signals(zero_moment(grid), game)


# -- type invariants ---------------------------------------------------------

def test_moment_requires_undirected_xi():
    grid = uniform_grid(3)
    directed = Kernel(grid, np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError):
        EquilibriumMoment(grid, directed, grid.constant(0.0), 1.0)


def test_zero_state_variance_forces_zero_zeta():
    grid = uniform_grid(3)
    xi = constant_kernel(grid, 1.0)
    with pytest.raises(ValueError):
        EquilibriumMoment(grid, xi, grid.constant(0.5), 0.0)


def test_alpha_beta_recomputed():
    obj = DesignObjective(0.25, 1.0, -0.5)
    assert obj.alpha == pytest.approx(0.5)
    assert obj.beta(0.4) == pytest.approx(0.4 * -0.5 - 0.25)


def test_diag_integral_consistency():
    m, grid = _targeted_half(n=10)
    assert diag_integral(m) == pytest.approx(0.5 * 16 / 9, abs=1e-12)
