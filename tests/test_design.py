import numpy as np
import pytest

from kernelgames.design import (cournot_policy, global_optimality_audit,
                                moment_from_equilibrium, optimal_targeted,
                                public_optimum, regime_diagram,
                                symmetric_coefficients, symmetric_moment,
                                targeted_equilibrium_moment,
                                targeted_grid_scan, targeted_value)
from kernelgames.game import common_state_game, solve_linear_equilibrium, targeted_info
from kernelgames.grid import uniform_grid
from kernelgames.kernels import constant_kernel
from kernelgames.moments import DesignObjective, objective_value


_obj = DesignObjective.from_alpha_beta


# -- targeted value and optimum ----------------------------------------------

def test_targeted_value_examples():
    assert targeted_value(0.0, 0.7, _obj(3.0, -1.0)) == 0.0
    assert targeted_value(0.5, 0.0, _obj(1.0, 0.0)) == pytest.approx(0.5)
    assert targeted_value(1.0, 0.5, _obj(1.0, 0.5)) == pytest.approx(2.0)


def test_targeted_value_domain_checks():
    with pytest.raises(ValueError):
        targeted_value(1.5, 0.5, _obj(1.0, 0.0))
    with pytest.raises(ValueError):
        targeted_value(0.5, 1.0, _obj(1.0, 0.0))


def test_optimal_targeted_interior():
    rep = optimal_targeted(0.0, _obj(1.0, 1.0))
    assert rep.regime == "T2"
    assert rep.m_star == pytest.approx(0.5)
    assert rep.v_star == pytest.approx(0.25)


def test_optimal_targeted_no_disclosure():
    for r in (-2.0, 0.0, 0.9):
        rep = optimal_targeted(r, _obj(-1.0, 0.0))
        assert rep.regime == "T1"
        assert rep.m_star == 0.0
        assert rep.v_star == 0.0


def test_optimal_targeted_full_disclosure():
    rep = optimal_targeted(0.5, _obj(1.0, 0.5))
    assert rep.regime == "T3"
    assert rep.m_star == 1.0
    assert rep.v_star == pytest.approx(2.0)


def test_optimal_targeted_boundary_knife_edge():
    rep = optimal_targeted(0.3, _obj(-1.0, -1.0))
    assert rep.regime == "boundary"
    assert rep.v_star == pytest.approx(0.0)


def test_optimum_beats_random_m_grid():
    rng = np.random.default_rng(31)
    for _ in range(200):
        r = rng.uniform(-2.0, 0.9)
        alpha, beta = rng.normal(size=2)
        obj = _obj(alpha, beta)
        rep = optimal_targeted(r, obj)
        ms = rng.uniform(0.0, 1.0, size=100)
        vals = [targeted_value(m, r, obj) for m in ms]
        assert rep.v_star >= max(vals) - 1e-10 * (1 + abs(rep.v_star))


def test_grid_scan_matches_closed_form():
    obj = _obj(1.0, 1.0)
    m_scan, v_scan = targeted_grid_scan(0.5, obj, points=400_001)
    rep = optimal_targeted(0.5, obj)
    assert abs(v_scan - rep.v_star) <= 1e-9 * (1 + abs(rep.v_star))
    assert abs(m_scan - rep.m_star) <= 2 / 400_000


def _one_shot_scan(r, obj, points):
    a, b = obj.alpha, obj.beta(r)
    m = np.arange(points) * (1.0 / (points - 1))
    den = 1.0 - r * m
    v = (a * m - b * m * m) / (den * den)
    j = int(np.argmax(v))
    return j, float(v[j])


def test_grid_scan_is_exact_at_chunk_edges():
    # the scan works in chunks of 32_768 points; it must return exactly the
    # first maximum of the one-shot scan, whatever the chunk the maximum is in
    rng = np.random.default_rng(20_261_018)
    triples = [(0.3, -1.0, 0.5),     # T1: maximum at m = 0
               (0.5, 1.0, -1.0),     # T3: maximum at m = 1
               (0.0, 1.0, 0.625),    # T2: m* = 0.8, in the last partial chunk
               (0.0, 0.0, 0.0)]      # flat: every point ties, m = 0 wins
    triples += [(rng.uniform(-2.0, 0.75), rng.uniform(-2.0, 2.0),
                 rng.uniform(-2.0, 2.0)) for _ in range(4)]
    for points in (2, 1001, 32_768, 32_769, 3 * 32_768 - 1):
        for r, alpha, beta in triples:
            obj = _obj(alpha, beta)
            j, v = _one_shot_scan(r, obj, points)
            assert targeted_grid_scan(r, obj, points) == (j / (points - 1), v)
    assert _one_shot_scan(0.3, _obj(-1.0, 0.5), 32_769)[0] == 0
    assert _one_shot_scan(0.5, _obj(1.0, -1.0), 32_769)[0] == 32_768
    assert _one_shot_scan(0.0, _obj(1.0, 0.625), 3 * 32_768 - 1)[0] > 2 * 32_768
    assert _one_shot_scan(0.0, _obj(0.0, 0.0), 32_769)[0] == 0
    # for r >= 1 the denominator vanishes inside [0, 1]: the scan refuses
    with pytest.raises(ValueError):
        targeted_grid_scan(1.0, _obj(1.0, 0.0), 1001)


# -- targeted equilibrium moment ---------------------------------------------

def test_targeted_moment_full_set():
    grid = uniform_grid(20)
    m = targeted_equilibrium_moment(np.arange(20), 0.5, grid)
    assert np.allclose(m.xi.values, 4.0)
    assert np.allclose(m.zeta.values, 2.0)


def test_targeted_moment_empty_set():
    grid = uniform_grid(10)
    m = targeted_equilibrium_moment(np.array([], dtype=int), 0.5, grid)
    assert np.max(np.abs(m.xi.values)) == 0.0
    assert np.max(np.abs(m.zeta.values)) == 0.0


def test_targeted_moment_half_set_levels():
    grid = uniform_grid(10)
    members = np.arange(5)
    m = targeted_equilibrium_moment(members, 0.5, grid)
    assert np.allclose(m.xi.values[np.ix_(members, members)], 16 / 9)
    assert np.max(np.abs(m.xi.values[5:, :])) == 0.0
    assert np.allclose(m.zeta.values[:5], 4 / 3)
    assert np.max(np.abs(m.zeta.values[5:])) == 0.0


def test_targeted_moment_matches_solved_equilibrium():
    grid = uniform_grid(60)
    rng = np.random.default_rng(32)
    for r in (-1.0, 0.5):
        members = rng.choice(60, size=24, replace=False)
        game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
        eq = solve_linear_equilibrium(game, targeted_info(game, members))
        mom = targeted_equilibrium_moment(members, r, grid)
        assert np.max(np.abs(eq.induced_action_cov.values
                             - mom.xi.values)) <= 1e-9
        assert np.max(np.abs(eq.induced_action_state_cov.values
                             - mom.zeta.values)) <= 1e-9


# -- symmetric moment --------------------------------------------------------

def test_symmetric_moment_levels():
    grid = uniform_grid(12)
    mom = symmetric_moment(0.5, 0.5, grid)
    assert mom.xi.values[0, 0] == pytest.approx(8 / 9)
    assert mom.xi.values[0, 1] == pytest.approx(4 / 9)
    assert mom.zeta.values[3] == pytest.approx(2 / 3)
    assert symmetric_coefficients(0.5, 0.5) == pytest.approx((2 / 3, 2 / 3))


def test_symmetric_moment_full_and_none():
    grid = uniform_grid(8)
    mom = symmetric_moment(1.0, 0.5, grid)
    assert np.allclose(mom.xi.values, 4.0)
    assert np.allclose(mom.zeta.values, 2.0)
    assert symmetric_coefficients(1.0, 0.5)[1] == 0.0
    mom = symmetric_moment(0.0, 0.5, grid)
    assert np.max(np.abs(mom.xi.values)) == 0.0


def test_symmetric_coefficients_formulae():
    m, r = 0.3, -1.5
    sc, nc = symmetric_coefficients(m, r)
    assert sc == pytest.approx(m / (1 - r * m))
    assert nc == pytest.approx(np.sqrt(m * (1 - m)) / (1 - r * m))


# -- public disclosure -------------------------------------------------------

def test_public_optimum_full_disclosure_side():
    rep = public_optimum(0.5, _obj(1.0, 0.5))
    assert rep.z_star == 1.0
    assert rep.v_pub == pytest.approx(2.0)
    assert not rep.boundary


def test_public_optimum_boundary():
    rep = public_optimum(0.2, _obj(0.7, 0.7))
    assert rep.boundary
    assert rep.v_pub == 0.0


def test_public_strictly_loses_in_t2():
    r, alpha, beta = 0.0, 1.0, 1.2
    rep = optimal_targeted(r, _obj(alpha, beta))
    assert rep.regime == "T2"
    assert rep.v_star == pytest.approx(1 / 4.8)
    pub = public_optimum(r, _obj(alpha, beta))
    assert pub.v_pub == 0.0
    assert pub.v_pub < rep.v_star


# -- global audit ------------------------------------------------------------

def test_audit_attains_optimum():
    rep = global_optimality_audit(0.5, _obj(1.0, 1.0), samples=0, seed=0, n=60)
    assert rep.max_excess >= -1e-9
    assert rep.passed


def test_audit_small_sample_passes():
    rep = global_optimality_audit(0.5, _obj(1.0, 1.0), samples=40, seed=5, n=50)
    assert rep.passed
    assert rep.samples == 41


def test_feasible_moments_never_beat_optimum():
    rng = np.random.default_rng(33)
    grid = uniform_grid(50)
    r = 0.5
    obj = _obj(1.0, 1.0)
    v_star = optimal_targeted(r, obj).v_star
    game = common_state_game(grid, constant_kernel(grid, r), 0.0, 1.0)
    from kernelgames.design import _random_info
    for _ in range(20):
        eq = solve_linear_equilibrium(game, _random_info(game, rng))
        v = objective_value(moment_from_equilibrium(eq), obj)
        assert v <= v_star + 1e-6 * (1 + abs(v_star))


# -- Cournot -----------------------------------------------------------------

def test_cournot_consumer_surplus_only_full_disclosure():
    for gamma in (0.5, 3.0, 9.0):
        assert cournot_policy(0.0, gamma).full_disclosure


def test_cournot_insensitive_demand_full_disclosure():
    for lam in (0.2, 0.6, 1.0):
        assert cournot_policy(lam, 1.0).full_disclosure


def test_cournot_partial_disclosure_case():
    rep = cournot_policy(1.0, 2.0)
    assert not rep.full_disclosure
    assert rep.regime == "T2"
    assert rep.m_star == pytest.approx(0.5, abs=1e-12)
    # cross-check through the generic optimum with alpha = 0.5, beta = 0
    generic = optimal_targeted(-2.0, _obj(0.5, 0.0))
    assert generic.m_star == pytest.approx(rep.m_star, abs=1e-12)


def test_cournot_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cournot_policy(1.5, 1.0)
    with pytest.raises(ValueError):
        cournot_policy(0.5, 0.0)


# -- regime diagram ----------------------------------------------------------

def test_regime_diagram_separating_ray():
    rows = regime_diagram(0.5, (1.0, 1.0), (0.5, 1.0), 2)
    by_beta = {round(b, 3): regime for _, b, regime, _, _ in rows}
    assert by_beta[0.5] == "T3"       # below the ray beta = 0.75 alpha
    assert by_beta[1.0] == "T2"       # above the ray


def test_regime_diagram_negative_r_downward_ray():
    # r = -3: ray slope (1+r)/2 = -1 in the alpha > 0 half-plane
    rows = regime_diagram(-3.0, (1.0, 1.0), (-1.5, -0.5), 2)
    by_beta = {round(b, 3): regime for _, b, regime, _, _ in rows}
    assert by_beta[-1.5] == "T3"
    assert by_beta[-0.5] == "T2"


def test_regime_diagram_knife_edge_point():
    rows = regime_diagram(0.5, (-1.0, -1.0), (-1.0, -1.0), 1)
    assert rows[0][2] == "boundary"
