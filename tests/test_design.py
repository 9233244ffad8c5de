import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelgames import design
from kernelgames.checks import check_targeted_optimum
from kernelgames.design import (BOUNDARY_TOL, _random_info, cournot_policy, global_optimality_audit,
                                optimal_targeted,
                                public_optimum, regime_diagram,
                                symmetric_moment, targeted_equilibrium_moment,
                                targeted_grid_scan, targeted_value)
from kernelgames.game import common_state_game, solve_linear_equilibrium, targeted_info
from kernelgames.grid import uniform_grid
from kernelgames.kernels import constant_kernel
from kernelgames.moments import DesignObjective, bounds_check, objective_value
from kernelgames.montecarlo import bm_example_equilibrium


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


def _chunk_values(r, a, b, j0, j1, points):
    # V_tg at the grid points j0..j1, by the one-shot expression
    m = np.arange(j0, j1 + 1) * (1.0 / (points - 1))
    den = 1.0 - r * m
    return (a * m - b * m * m) / (den * den)


def _one_shot_scan(r, obj, points):
    v = _chunk_values(r, obj.alpha, obj.beta(r), 0, points - 1, points)
    j = int(np.argmax(v))
    return j, float(v[j])


def test_grid_scan_is_exact_at_chunk_edges():
    # the scan works in chunks of 32_768 points; it must return exactly the
    # first maximum of the one-shot scan, whatever the chunk the maximum is in
    rng = np.random.default_rng(20_261_018)
    triples = [(0.3, -1.0, 0.5),     # T1: maximum at m = 0
               (0.5, 1.0, -1.0),     # T3: maximum at m = 1
               (0.0, 1.0, 0.625),    # T2: m* = 0.8, in the last partial chunk
               (0.0, 0.0, 0.0),      # flat: every point ties, m = 0 wins
               (0.0, 1.0, 2.5),      # T2: m* = 0.2, the later chunks are skipped
               (1 - 1e-9, 1.0, 1.0),     # r -> 1: 1 - r m rounds coarsely
               (1 - 1e-12, 0.5, 0.2),
               (1 - 1e-12, -1.0, -0.5),
               (-50.0, 1.0, 0.3),
               (-50.0, 1.0, -3.0),
               (0.5, -1.0, -1.0 - 1e-6)]   # U-shaped: V_tg(1) > 0 only at m = 1
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


def test_chunk_bound_is_at_least_every_value_of_its_chunk():
    rng = np.random.default_rng(31)
    rs = [1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 1e-15, 0.999, 0.0, -50.0, -1e6]
    for _ in range(400):
        r = float(rng.choice(rs)) if rng.uniform() < 0.5 else rng.uniform(-3.0, 0.99)
        a, b = rng.uniform(-2.0, 2.0, size=2) * 10.0 ** rng.integers(-12, 13)
        points = int(rng.integers(2, 20_001))
        j0 = int(rng.integers(0, points))
        j1 = int(rng.integers(j0, min(points, j0 + 500)))
        step = 1.0 / (points - 1)
        if rng.uniform() < 0.4:
            # the vertex a / 2b within rounding of a grid point inside the
            # chunk: only the margin covers that point's rounding
            jv = int(rng.integers(1, points - 1)) if points > 2 else 0
            j0, j1 = max(jv - 3, 0), min(jv + 3, points - 1)
            b = abs(b)
            a = 2.0 * b * (jv * step) * (1.0 + rng.uniform(-1e-12, 1e-12))
            r = 0.0 if rng.uniform() < 0.5 else r
        bound = design._chunk_bound(r, a, b, j0 * step, j1 * step)
        assert bound >= _chunk_values(r, a, b, j0, j1, points).max()


def test_scan_skips_every_chunk_after_the_first_at_no_disclosure(monkeypatch):
    # T1: V_tg <= 0 = V_tg(0) on [0, 1], and V_tg < 0 is bounded away from 0
    # after the first chunk, so a scan that stopped pruning would show here
    argmax, calls = np.argmax, []
    monkeypatch.setattr(design.np, "argmax", lambda v: calls.append(v.size) or argmax(v))
    assert targeted_grid_scan(0.3, _obj(-1.0, 0.5), 1_000_000) == (0.0, 0.0)
    assert calls == [32_768]


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pruned_scan_equals_the_one_shot_scan(chunk, data):
    points = data.draw(st.integers(2, 5_000))
    if data.draw(st.booleans()):
        # a near-tie across a chunk edge: at r = 0 the vertex a / 2b lies
        # halfway between the last point of one chunk and the first of the next
        edges = range(chunk, points - 1, chunk)
        if not edges:
            return
        edge = data.draw(st.sampled_from(edges))
        r, alpha, beta = 0.0, 1.0, (points - 1) / (2 * edge - 1.0)
    else:
        r = data.draw(st.one_of(
            st.floats(-3.0, 0.999),
            st.sampled_from([1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 1e-15, -50.0, -1e6])))
        alpha = data.draw(st.floats(-2.0, 2.0))
        beta = data.draw(st.one_of(st.floats(-2.0, 2.0), st.just(alpha)))
    scale = data.draw(st.sampled_from([1e-12, 1.0, 1e12]))
    obj = _obj(alpha * scale, beta * scale)
    j, v = _one_shot_scan(r, obj, points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design, "_SCAN_CHUNK", chunk)
        assert targeted_grid_scan(r, obj, points) == (j / (points - 1), v)


def test_a_second_scan_in_a_thread_allocates_no_buffer(monkeypatch):
    # the index base and the three buffers (1 MB) are kept per thread: a
    # second million-point scan allocates none of them again
    monkeypatch.setattr(design, "_scan_scratch", threading.local())
    obj = _obj(1.0, -1.0)       # T3: no chunk is skipped
    first = targeted_grid_scan(0.5, obj)
    tracemalloc.start()
    try:
        second = targeted_grid_scan(0.5, obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second == first == (1.0, _one_shot_scan(0.5, obj, 1_000_000)[1])
    assert peak < 64 * 1024


def test_a_chunk_above_the_scratch_reallocates_it(monkeypatch):
    monkeypatch.setattr(design, "_scan_scratch", threading.local())
    obj, points = _obj(1.0, 0.625), 200_001
    j, v = _one_shot_scan(0.0, obj, points)
    assert targeted_grid_scan(0.0, obj, points) == (j / (points - 1), v)
    assert design._scan_scratch.bufs[0].size == design._SCAN_CHUNK
    monkeypatch.setattr(design, "_SCAN_CHUNK", 50_000)
    assert targeted_grid_scan(0.0, obj, points) == (j / (points - 1), v)
    assert [buf.size for buf in design._scan_scratch.bufs] == [50_000] * 4
    assert np.array_equal(design._scan_scratch.bufs[0], np.arange(50_000))


def test_concurrent_scans_in_two_threads_use_their_own_buffers():
    triples = [(0.5, 1.0, -1.0), (-50.0, 1.0, -3.0)]    # neither skips a chunk
    points = 300_001
    barrier = threading.Barrier(len(triples))
    results, buffers = {}, {}

    def scan(i, r, alpha, beta):
        barrier.wait()
        results[i] = [targeted_grid_scan(r, _obj(alpha, beta), points)
                      for _ in range(4)]
        buffers[i] = design._scan_buffers(1)

    threads = [threading.Thread(target=scan, args=(i, *t))
               for i, t in enumerate(triples)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, (r, alpha, beta) in enumerate(triples):
        j, v = _one_shot_scan(r, _obj(alpha, beta), points)
        assert results[i] == [(j / (points - 1), v)] * 4
    assert not any(np.shares_memory(a, b) for a in buffers[0] for b in buffers[1])


@pytest.mark.parametrize("r, weights, message", [
    (0.5, (0.0, 1e308, 1e308), "alpha = v + w is inf"),
    (-1e300, (0.0, 0.0, 1e10), "beta = r w - u is -inf"),
    (0.5, (1e308, 1e308, 0.0), "1 + |alpha| + |beta| is inf"),
    # int weights sum exactly to an int beyond the float range
    (0.5, (0, 10**308, 10**308), "alpha = v + w is inf"),
])
def test_design_refuses_alpha_or_beta_that_overflows(r, weights, message):
    # each read as 'boundary' with v* = 0; alpha = inf raised a RuntimeWarning
    # in the scan
    obj = DesignObjective(*weights)
    for call in (lambda: targeted_grid_scan(r, obj, 1001),
                 lambda: optimal_targeted(r, obj),
                 lambda: targeted_value(0.5, r, obj),
                 lambda: public_optimum(r, obj),
                 lambda: global_optimality_audit(r, obj, 0, 0, n=4)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 1.0, 2.0, 10**400])
def test_design_refuses_r_that_is_not_finite_and_below_one(r):
    # nan scanned to (0.0, -inf) and was classified T3 with v* = nan; -inf
    # raised a RuntimeWarning inside the scan
    obj = _obj(1.0, 0.5)
    message = re.escape(f"r = {r!r}: must be finite and below 1")
    for call in (lambda: targeted_grid_scan(r, obj, 1001),
                 lambda: optimal_targeted(r, obj),
                 lambda: targeted_value(0.5, r, obj),
                 lambda: public_optimum(r, obj),
                 lambda: regime_diagram(r, (0, 1), (0, 1), 2),
                 lambda: symmetric_moment(0.5, r, uniform_grid(4)),
                 lambda: targeted_equilibrium_moment([0], r, uniform_grid(4)),
                 # nan and -inf gave a nan bounds report and nan coefficients
                 lambda: bounds_check(symmetric_moment(0.5, 0.5, uniform_grid(5)), r),
                 lambda: bm_example_equilibrium(0.0, 1.0, 1.0, 1.0, r, 1.0, 0.0)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("weights", [(0.0, math.inf, 0.0), (math.nan, 1.0, 0.0),
                                     (1.0, 0.0, -math.inf), (10**400, 0, 0)])
def test_objective_refuses_weights_that_are_not_finite(weights):
    # alpha = inf scanned to (0.0, -inf); an int beyond the float range
    # raised OverflowError
    with pytest.raises(ValueError, match=r"\(u, v, w\) = .* must be finite"):
        DesignObjective(*weights)


@pytest.mark.parametrize("points", [1, 0, -3, 2.5, 2.0])
def test_scan_rejects_points_other_than_an_integer_from_two(points):
    # 1 divided by zero, 0 and -3 failed inside numpy, and 2.5 scanned
    # int(2.5) points but divided by 1.5
    message = re.escape(f"points = {points!r}")
    with pytest.raises(ValueError, match=message):
        targeted_grid_scan(0.5, _obj(1.0, 0.5), points)
    with pytest.raises(ValueError, match=message):
        check_targeted_optimum(triples=1, points=points)


def test_scan_accepts_numpy_integer_points():
    obj = _obj(1.0, 0.5)
    assert (targeted_grid_scan(0.5, obj, np.int64(1001))
            == targeted_grid_scan(0.5, obj, 1001))


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
        assert np.max(np.abs(eq.moment.xi.values - mom.xi.values)) <= 1e-9
        assert np.max(np.abs(eq.moment.zeta.values - mom.zeta.values)) <= 1e-9


# -- symmetric moment --------------------------------------------------------

def test_symmetric_moment_levels():
    grid = uniform_grid(12)
    mom = symmetric_moment(0.5, 0.5, grid)
    assert mom.xi.values[0, 0] == pytest.approx(8 / 9)
    assert mom.xi.values[0, 1] == pytest.approx(4 / 9)
    assert mom.zeta.values[3] == pytest.approx(2 / 3)


def test_symmetric_moment_full_and_none():
    grid = uniform_grid(8)
    mom = symmetric_moment(1.0, 0.5, grid)
    assert np.allclose(mom.xi.values, 4.0)
    assert np.allclose(mom.zeta.values, 2.0)
    mom = symmetric_moment(0.0, 0.5, grid)
    assert np.max(np.abs(mom.xi.values)) == 0.0


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
    for _ in range(20):
        eq = solve_linear_equilibrium(game, _random_info(game, rng))
        v = objective_value(eq.moment, obj)
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


@pytest.mark.parametrize("lam, gamma", [(0.8, 2.0), (0.05, 77.0), (0.2, 17.0)])
def test_cournot_boundary_reports_full_disclosure(lam, gamma):
    # gamma = 4/lam - 3: the optimum rounds to T2 at m* = 1 - 2e-16 ... 2.3e-14,
    # which agrees with the closed form m = 1 within BOUNDARY_TOL (1 + |m|)
    rep = cournot_policy(lam, gamma)
    assert rep.full_disclosure and rep.regime == "T3"
    assert abs(rep.m_star - 1.0) <= BOUNDARY_TOL * 2.0


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


def test_random_info_on_a_common_state_draws_the_common_state_numbers():
    # a S and (a a') S are the old Var theta a and Var theta (a a') entry for
    # entry, so every seeded battery and bench op draws the same structure
    grid = uniform_grid(30)
    game = common_state_game(grid, constant_kernel(grid, 0.5), 0.0, 2.7)
    for seed in range(5):
        info = _random_info(game, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        a = rng.normal(size=30)
        k = int(rng.integers(1, 6))
        B = rng.normal(size=(30, k)) / np.sqrt(k)
        assert np.array_equal(info.signal_cov, 2.7 * np.outer(a, a) + B @ B.T)
        assert np.array_equal(info.cross_cov, 2.7 * np.outer(a, np.ones(30)))
